//! Small-signal AC analysis of the two-stage Miller opamp: the
//! designer-level two-pole model behind the behavioral single-pole
//! settling of [`crate::opamp::OpAmp`] — pole locations, unity-gain
//! bandwidth, phase margin, and the closed-loop step response with the
//! ringing a too-close non-dominant pole brings. The `design_margins`
//! section of `adc-testbench::experiments` scales both gm by the
//! converter's stage-1 bias across the 20–140 MS/s band and checks with
//! it that Eq. 1 keeps settling a fixed fraction of the clock period.

/// Two-stage Miller amplifier small-signal parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TwoPoleAmp {
    /// First-stage transconductance, siemens.
    pub gm1_s: f64,
    /// Second-stage transconductance, siemens.
    pub gm2_s: f64,
    /// Miller compensation capacitor, farads.
    pub cc_f: f64,
    /// Load capacitance at the output, farads.
    pub cl_f: f64,
    /// DC gain, V/V.
    pub dc_gain: f64,
}

impl TwoPoleAmp {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless every parameter is positive.
    pub fn new(gm1_s: f64, gm2_s: f64, cc_f: f64, cl_f: f64, dc_gain: f64) -> Self {
        assert!(
            gm1_s > 0.0 && gm2_s > 0.0 && cc_f > 0.0 && cl_f > 0.0 && dc_gain > 1.0,
            "parameters must be positive (gain > 1)"
        );
        Self {
            gm1_s,
            gm2_s,
            cc_f,
            cl_f,
            dc_gain,
        }
    }

    /// Unity-gain (gain-bandwidth) frequency, hertz: `gm1/(2π·Cc)`.
    pub fn unity_gain_hz(&self) -> f64 {
        self.gm1_s / (2.0 * std::f64::consts::PI * self.cc_f)
    }

    /// Dominant pole, hertz (from GBW and DC gain).
    pub fn dominant_pole_hz(&self) -> f64 {
        self.unity_gain_hz() / self.dc_gain
    }

    /// Non-dominant (output) pole, hertz: `gm2/(2π·CL)`.
    pub fn nondominant_pole_hz(&self) -> f64 {
        self.gm2_s / (2.0 * std::f64::consts::PI * self.cl_f)
    }

    /// Loop phase margin in degrees at feedback factor `beta`
    /// (two-pole approximation, right-half-plane zero neglected —
    /// nulled by the usual series resistor).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is outside `(0, 1]`.
    pub fn phase_margin_deg(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        // Loop crossover: β·GBW for a dominant-pole system.
        let f_cross = beta * self.unity_gain_hz();
        let phase_from_p2 = (f_cross / self.nondominant_pole_hz()).atan();
        90.0 - phase_from_p2.to_degrees()
    }

    /// Closed-loop damping factor ζ at feedback `beta` (two-pole
    /// second-order approximation): ζ = 0.5·√(p2/(β·GBW)).
    pub fn damping(&self, beta: f64) -> f64 {
        0.5 * (self.nondominant_pole_hz() / (beta * self.unity_gain_hz())).sqrt()
    }

    /// Closed-loop small-signal step response at time `t_s` (normalized
    /// to a unity final value), from the standard second-order form.
    pub fn step_response(&self, beta: f64, t_s: f64) -> f64 {
        if t_s <= 0.0 {
            return 0.0;
        }
        let wn = 2.0
            * std::f64::consts::PI
            * (beta * self.unity_gain_hz() * self.nondominant_pole_hz()).sqrt();
        let zeta = self.damping(beta);
        if zeta < 1.0 {
            let wd = wn * (1.0 - zeta * zeta).sqrt();
            let phi = (zeta / (1.0 - zeta * zeta).sqrt()).atan();
            1.0 - ((-zeta * wn * t_s).exp() / (1.0 - zeta * zeta).sqrt()) * (wd * t_s + phi).cos()
        } else {
            // Overdamped: two real poles.
            let s1 = -wn * (zeta - (zeta * zeta - 1.0).max(0.0).sqrt());
            let s2 = -wn * (zeta + (zeta * zeta - 1.0).max(0.0).sqrt());
            if (s1 - s2).abs() < 1e-6 * wn {
                // Critically damped.
                1.0 - (1.0 - s1 * t_s) * (s1 * t_s).exp()
            } else {
                1.0 + (s2 * (s1 * t_s).exp() - s1 * (s2 * t_s).exp()) / (s1 - s2)
            }
        }
    }

    /// Peak overshoot of the closed-loop step response, relative
    /// (0 = none).
    pub fn overshoot(&self, beta: f64) -> f64 {
        let zeta = self.damping(beta);
        if zeta >= 1.0 {
            0.0
        } else {
            (-std::f64::consts::PI * zeta / (1.0 - zeta * zeta).sqrt()).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage-1-like design point: gm1 = 40 mS, gm2 = 80 mS, Cc = 3 pF,
    /// CL = 4 pF, 80 dB.
    fn stage1_amp() -> TwoPoleAmp {
        TwoPoleAmp::new(40e-3, 80e-3, 3e-12, 4e-12, 10_000.0)
    }

    #[test]
    fn pole_ordering_is_sane() {
        let a = stage1_amp();
        assert!(a.dominant_pole_hz() < a.unity_gain_hz());
        assert!(a.nondominant_pole_hz() > a.unity_gain_hz());
    }

    #[test]
    fn unity_gain_matches_formula() {
        let a = stage1_amp();
        let expected = 40e-3 / (2.0 * std::f64::consts::PI * 3e-12);
        assert!((a.unity_gain_hz() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn phase_margin_improves_with_lower_beta() {
        let a = stage1_amp();
        assert!(a.phase_margin_deg(0.45) > a.phase_margin_deg(1.0));
        // The design point has healthy margin.
        assert!(
            a.phase_margin_deg(0.45) > 60.0,
            "{}",
            a.phase_margin_deg(0.45)
        );
    }

    #[test]
    fn low_nondominant_pole_rings() {
        // Strangle the output stage: gm2 down 20x.
        let weak = TwoPoleAmp::new(40e-3, 4e-3, 3e-12, 4e-12, 10_000.0);
        assert!(weak.phase_margin_deg(0.45) < 45.0);
        assert!(weak.overshoot(0.45) > 0.05);
        // The healthy design barely overshoots.
        assert!(stage1_amp().overshoot(0.45) < 0.01);
    }

    #[test]
    fn step_response_settles_to_one() {
        let a = stage1_amp();
        let tau = 1.0 / (2.0 * std::f64::consts::PI * 0.45 * a.unity_gain_hz());
        let v = a.step_response(0.45, 30.0 * tau);
        assert!((v - 1.0).abs() < 1e-4, "v {v}");
        assert_eq!(a.step_response(0.45, 0.0), 0.0);
    }

    #[test]
    fn step_response_is_monotone_when_overdamped() {
        let heavy = TwoPoleAmp::new(5e-3, 200e-3, 6e-12, 1e-12, 10_000.0);
        assert!(heavy.damping(0.45) > 1.0);
        let tau = 1.0 / (2.0 * std::f64::consts::PI * 0.45 * heavy.unity_gain_hz());
        let mut last = 0.0;
        for k in 1..200 {
            let v = heavy.step_response(0.45, k as f64 * tau / 10.0);
            assert!(v >= last - 1e-12, "non-monotone at step {k}");
            last = v;
        }
    }

    #[test]
    fn margins_are_rate_independent_with_tracking_bias() {
        // The paper's property at the AC level: if gm1, gm2 both scale
        // with f_CR (SC bias) while Cc, CL are fixed, the *crossover*
        // moves but the p2/crossover ratio — and hence the phase margin —
        // is constant.
        let at_rate = |scale: f64| {
            TwoPoleAmp::new(40e-3 * scale, 80e-3 * scale, 3e-12, 4e-12, 10_000.0)
                .phase_margin_deg(0.45)
        };
        let pm_20 = at_rate(20.0 / 110.0);
        let pm_140 = at_rate(140.0 / 110.0);
        assert!((pm_20 - pm_140).abs() < 1e-9, "{pm_20} vs {pm_140}");
    }
}
