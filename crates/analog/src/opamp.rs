//! Two-stage Miller opamp behavioral model.
//!
//! The paper's residue amplifier is "a two-stage Miller opamp with a
//! differential-pair output stage" (§3, ref \[3\]). For a switched-capacitor
//! residue stage the behaviorally relevant quantities are:
//!
//! * **DC gain** `A0` — sets the static closed-loop gain error
//!   `1/(1 + 1/(A0·β))`;
//! * **transconductance** `gm = 2·I_bias / V_ov` — together with the
//!   effective load capacitance this sets the unity-gain bandwidth
//!   `GBW = gm / (2π·C_L)` and hence the closed-loop settling time constant
//!   `τ = 1/(2π·β·GBW)`;
//! * **slew rate** `SR = I_slew / C_L` — large steps start slew-limited,
//!   which is a *nonlinear* (signal-dependent) error mechanism;
//! * **output swing** — the supply is only 1.8 V, so residues clip;
//! * **noise** — input-referred thermal noise, sampled once per phase.
//!
//! Because the SC bias generator makes `I_bias ∝ f_CR` (Eq. 1), both `τ`
//! and `SR` scale with conversion rate and the *fraction* of the half-period
//! spent settling stays constant — the mechanism behind the paper's flat
//! SNDR from 20 to 140 MS/s.

use crate::noise::NoiseSource;
use crate::units::KT_NOMINAL;

/// Design parameters of the opamp (independent of bias point).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OpAmpSpec {
    /// Open-loop DC gain, V/V.
    pub dc_gain: f64,
    /// Input-pair overdrive voltage `V_ov` in volts; `gm = 2·I / V_ov`.
    pub v_ov_v: f64,
    /// Fraction of the tail bias current available for slewing the load.
    pub slew_current_fraction: f64,
    /// Maximum differential output swing, volts (clips beyond ±this).
    pub output_swing_v: f64,
    /// Excess noise factor γ multiplying the `kT/(β·C_L)` sampled noise.
    pub noise_excess_factor: f64,
    /// Gain-compression knee, volts: the open-loop gain falls as
    /// `A0 / (1 + (V_out/knee)²)`, producing the odd-order distortion every
    /// real output stage shows as the swing approaches the rails. Infinite
    /// for an ideal amplifier.
    pub gain_knee_v: f64,
    /// One-sigma input-referred offset drawn at fabrication, volts.
    pub offset_sigma_v: f64,
}

impl OpAmpSpec {
    /// An essentially ideal amplifier: infinite gain, tiny overdrive
    /// (huge gm), no noise, generous swing.
    pub fn ideal() -> Self {
        Self {
            dc_gain: f64::INFINITY,
            v_ov_v: 1e-6,
            slew_current_fraction: 1e9,
            output_swing_v: 1e9,
            noise_excess_factor: 0.0,
            gain_knee_v: f64::INFINITY,
            offset_sigma_v: 0.0,
        }
    }

    /// A representative two-stage Miller design at 1.8 V in 0.18 µm:
    /// ~80 dB gain, 180 mV overdrive, rail-limited 2.4 V_pp-diff swing.
    pub fn miller_two_stage() -> Self {
        Self {
            dc_gain: 10_000.0, // 80 dB
            v_ov_v: 0.18,
            slew_current_fraction: 1.0,
            output_swing_v: 1.3,
            noise_excess_factor: 2.5,
            gain_knee_v: 0.9,
            offset_sigma_v: 1e-3,
        }
    }
}

impl Default for OpAmpSpec {
    fn default() -> Self {
        Self::miller_two_stage()
    }
}

/// An opamp at a concrete operating point (bias current + load).
///
/// The bias current is *supplied externally* — in the full converter it
/// comes from the SC bias generator, which is the paper's central idea.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OpAmp {
    /// Static design parameters.
    pub spec: OpAmpSpec,
    /// First-stage tail bias current, amperes.
    pub bias_current_a: f64,
    /// Effective load capacitance seen by the dominant pole, farads.
    pub load_cap_f: f64,
    /// Fabricated input-referred offset, volts (0 until
    /// [`OpAmp::with_offset`] installs a drawn value).
    pub input_offset_v: f64,
}

impl OpAmp {
    /// Creates an opamp at an operating point.
    ///
    /// # Panics
    ///
    /// Panics if the bias current or load capacitance is not positive.
    pub fn new(spec: OpAmpSpec, bias_current_a: f64, load_cap_f: f64) -> Self {
        assert!(bias_current_a > 0.0, "bias current must be positive");
        assert!(load_cap_f > 0.0, "load capacitance must be positive");
        Self {
            spec,
            bias_current_a,
            load_cap_f,
            input_offset_v: 0.0,
        }
    }

    /// Installs a fabricated input-referred offset.
    pub fn with_offset(mut self, input_offset_v: f64) -> Self {
        self.input_offset_v = input_offset_v;
        self
    }

    /// Input-pair transconductance, siemens.
    pub fn gm_s(&self) -> f64 {
        2.0 * self.bias_current_a / self.spec.v_ov_v
    }

    /// Unity-gain bandwidth, hertz.
    pub fn gbw_hz(&self) -> f64 {
        self.gm_s() / (2.0 * std::f64::consts::PI * self.load_cap_f)
    }

    /// Slew rate at the output, volts per second.
    pub fn slew_rate_v_per_s(&self) -> f64 {
        self.spec.slew_current_fraction * self.bias_current_a / self.load_cap_f
    }

    /// Closed-loop settling time constant for feedback factor `beta`,
    /// seconds.
    pub fn tau_s(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        self.load_cap_f / (beta * self.gm_s())
    }

    /// Output-level-dependent gain error factor: the open-loop gain
    /// compresses as `A0 / (1 + (v_out/knee)²)`, so large residues settle
    /// slightly shorter than small ones — the static odd-order distortion
    /// of a real output stage.
    pub fn gain_error_factor_at(&self, beta: f64, v_out: f64) -> f64 {
        if self.spec.dc_gain.is_infinite() {
            return 1.0;
        }
        let knee = self.spec.gain_knee_v;
        let compression = if knee.is_finite() && knee > 0.0 {
            1.0 + (v_out / knee).powi(2)
        } else {
            1.0
        };
        1.0 / (1.0 + compression / (self.spec.dc_gain * beta))
    }

    /// Settles the output from `initial_v` toward `target_v` for
    /// `settle_time_s` with feedback factor `beta`, including the
    /// slew-limited first segment and output clipping.
    ///
    /// Returns the output voltage at the end of the phase.
    pub fn settle(&self, target_v: f64, initial_v: f64, settle_time_s: f64, beta: f64) -> f64 {
        let target_v = target_v.clamp(-self.spec.output_swing_v, self.spec.output_swing_v);
        if settle_time_s <= 0.0 {
            return initial_v.clamp(-self.spec.output_swing_v, self.spec.output_swing_v);
        }
        let tau = self.tau_s(beta);
        let sr = self.slew_rate_v_per_s();
        let dv = target_v - initial_v;
        let dv_abs = dv.abs();
        let sign = dv.signum();
        // Boundary between slewing and linear settling: the exponential's
        // initial rate dv/τ must not exceed SR.
        let v_lin = sr * tau;
        // The slew-tail decay uses the polynomial kernel — the duration
        // is data-dependent, and SettlePlan::settle (this model's hot
        // twin) must stay bit-identical while remaining vectorizable.
        let out = if dv_abs <= v_lin {
            target_v - dv * (-settle_time_s / tau).exp()
        } else {
            let t_slew = (dv_abs - v_lin) / sr;
            if t_slew >= settle_time_s {
                initial_v + sign * sr * settle_time_s
            } else {
                let remaining = settle_time_s - t_slew;
                target_v - sign * v_lin * crate::stripe::exp_nonpos(-remaining / tau)
            }
        };
        out.clamp(-self.spec.output_swing_v, self.spec.output_swing_v)
    }

    /// RMS output-referred sampled noise of the closed-loop amplifier for
    /// feedback factor `beta`, volts: `sqrt(γ·kT/(β·C_L))`.
    pub fn sampled_noise_rms_v(&self, beta: f64) -> f64 {
        assert!(beta > 0.0 && beta <= 1.0);
        (self.spec.noise_excess_factor * KT_NOMINAL / (beta * self.load_cap_f)).sqrt()
    }

    /// Draws one sampled output-noise voltage.
    pub fn sample_noise(&self, beta: f64, noise: &mut NoiseSource) -> f64 {
        noise.gaussian(0.0, self.sampled_noise_rms_v(beta))
    }

    /// Precomputes the settling constants for one `(settle_time, beta)`
    /// operating point, hoisting `τ`, `SR`, the slew/linear boundary and
    /// — most importantly — the linear-decay exponential out of the
    /// per-sample loop. [`SettlePlan::settle`] then evaluates exactly the
    /// same piecewise model as [`OpAmp::settle`].
    pub fn settle_plan(&self, settle_time_s: f64, beta: f64) -> SettlePlan {
        let tau = self.tau_s(beta);
        let sr = self.slew_rate_v_per_s();
        SettlePlan {
            settle_time_s,
            tau_s: tau,
            slew_rate_v_per_s: sr,
            v_lin: sr * tau,
            decay: if settle_time_s > 0.0 {
                (-settle_time_s / tau).exp()
            } else {
                0.0
            },
            output_swing_v: self.spec.output_swing_v,
        }
    }
}

/// Precomputed settling constants for one `(settle_time, beta)` operating
/// point of an [`OpAmp`] — see [`OpAmp::settle_plan`].
///
/// The linear-settling branch (the overwhelmingly common one) costs one
/// multiply-subtract instead of an `exp()` per sample; only slew-limited
/// steps still evaluate an exponential (their decay depends on the
/// signal-dependent slew duration).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SettlePlan {
    /// Phase duration, seconds.
    pub settle_time_s: f64,
    /// Closed-loop settling time constant, seconds.
    pub tau_s: f64,
    /// Slew rate, volts per second.
    pub slew_rate_v_per_s: f64,
    /// Slew/linear boundary `SR·τ`, volts.
    pub v_lin: f64,
    /// Linear-settling residual factor `exp(−t_settle/τ)` (0 when the
    /// phase duration is not positive).
    pub decay: f64,
    /// Output clamp, volts.
    pub output_swing_v: f64,
}

impl SettlePlan {
    /// Settles from `initial_v` toward `target_v` over the planned phase:
    /// the same piecewise slew/linear/clip model as [`OpAmp::settle`],
    /// with every operating-point constant precomputed.
    pub fn settle(&self, target_v: f64, initial_v: f64) -> f64 {
        let swing = self.output_swing_v;
        let target_v = target_v.clamp(-swing, swing);
        if self.settle_time_s <= 0.0 {
            return initial_v.clamp(-swing, swing);
        }
        let dv = target_v - initial_v;
        let dv_abs = dv.abs();
        // Branch-free piecewise model: whether a step slews is a
        // signal-dependent coin flip (~40 % of nominal conversion
        // steps), so a branch here mispredicts constantly and the libm
        // exp() behind it serializes the lane kernel's amplify loop.
        // Instead all three segment results are computed — the
        // slew-tail decay through the polynomial exp kernel, with the
        // duration clamped into [0, t_settle] so out-of-segment lanes
        // feed it a harmless argument — and the comparisons select.
        // Selected values are bit-identical to OpAmp::settle's, which
        // takes the classic branchy form of the same model.
        let sign = dv.signum();
        let t_slew = (dv_abs - self.v_lin) / self.slew_rate_v_per_s;
        let remaining = (self.settle_time_s - t_slew).clamp(0.0, self.settle_time_s);
        let tail = crate::stripe::exp_nonpos(-remaining / self.tau_s);
        let lin = target_v - dv * self.decay;
        let rail = initial_v + sign * self.slew_rate_v_per_s * self.settle_time_s;
        let slew = target_v - sign * self.v_lin * tail;
        let out = if dv_abs <= self.v_lin {
            lin
        } else if t_slew >= self.settle_time_s {
            rail
        } else {
            slew
        };
        out.clamp(-swing, swing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn amp(bias_a: f64) -> OpAmp {
        OpAmp::new(OpAmpSpec::miller_two_stage(), bias_a, 4e-12)
    }

    #[test]
    fn gm_is_linear_in_bias() {
        let a = amp(1e-3);
        let b = amp(2e-3);
        assert!((b.gm_s() / a.gm_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gbw_matches_formula() {
        let a = amp(1e-3);
        let expected = a.gm_s() / (2.0 * std::f64::consts::PI * 4e-12);
        assert!((a.gbw_hz() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn bias_scaling_keeps_settling_fraction_constant() {
        // The paper's key mechanism: with I ∝ f_CR, the number of time
        // constants in a half-period is rate-independent.
        let f1 = 50e6;
        let f2 = 150e6;
        let k = 1e-3 / 110e6; // A per Hz
        let a1 = amp(k * f1);
        let a2 = amp(k * f2);
        let beta = 0.5;
        let ratio1 = (0.5 / f1) / a1.tau_s(beta);
        let ratio2 = (0.5 / f2) / a2.tau_s(beta);
        assert!((ratio1 / ratio2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_settling_matches_exponential() {
        let a = amp(5e-3);
        let beta = 0.5;
        let tau = a.tau_s(beta);
        // Small step (well below SR·τ): exact exponential.
        let out = a.settle(0.01, 0.0, 5.0 * tau, beta);
        let expected = 0.01 * (1.0 - (-5.0f64).exp());
        assert!((out - expected).abs() < 1e-9, "out {out}");
    }

    #[test]
    fn full_settling_reaches_target() {
        let a = amp(5e-3);
        let out = a.settle(0.7, -0.7, 1e-3, 0.5);
        assert!((out - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_time_returns_initial() {
        let a = amp(5e-3);
        assert_eq!(a.settle(1.0, 0.25, 0.0, 0.5), 0.25);
    }

    #[test]
    fn slew_limited_step_moves_at_slew_rate() {
        let spec = OpAmpSpec {
            slew_current_fraction: 0.001, // tiny slew current => slew-limited
            ..OpAmpSpec::miller_two_stage()
        };
        let a = OpAmp::new(spec, 1e-4, 4e-12);
        let sr = a.slew_rate_v_per_s();
        let t = 1e-9;
        let out = a.settle(1.0, 0.0, t, 0.5);
        // Far from completion, the output advanced by ≈ SR·t.
        assert!((out - sr * t).abs() / (sr * t) < 0.2, "out {out}");
    }

    #[test]
    fn output_clips_at_swing() {
        let a = amp(5e-3);
        let out = a.settle(5.0, 0.0, 1e-3, 0.5);
        assert_eq!(out, a.spec.output_swing_v);
        let out = a.settle(-5.0, 0.0, 1e-3, 0.5);
        assert_eq!(out, -a.spec.output_swing_v);
    }

    #[test]
    fn gain_error_factor_matches_formula() {
        // At zero output the gain is uncompressed: `1/(1 + 1/(A0·β))`.
        let a = amp(1e-3);
        let beta = 0.5;
        let e = a.gain_error_factor_at(beta, 0.0);
        assert!((e - 1.0 / (1.0 + 1.0 / (10_000.0 * 0.5))).abs() < 1e-15);
        // ~0.02% low for 80 dB gain at beta = 0.5.
        assert!(e < 1.0 && e > 0.9997);
    }

    #[test]
    fn noise_scales_inverse_sqrt_load() {
        let spec = OpAmpSpec::miller_two_stage();
        let small = OpAmp::new(spec, 1e-3, 1e-12);
        let large = OpAmp::new(spec, 1e-3, 4e-12);
        let ratio = small.sampled_noise_rms_v(0.5) / large.sampled_noise_rms_v(0.5);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_spec_settles_exactly_and_silently() {
        let a = OpAmp::new(OpAmpSpec::ideal(), 1e-3, 1e-12);
        let out = a.settle(0.123, -0.9, 1e-12, 0.5);
        assert!((out - 0.123).abs() < 1e-12);
        assert_eq!(a.sampled_noise_rms_v(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "bias current must be positive")]
    fn rejects_zero_bias() {
        let _ = OpAmp::new(OpAmpSpec::ideal(), 0.0, 1e-12);
    }

    #[test]
    fn settle_plan_matches_settle_bit_for_bit() {
        // The planned path must reproduce OpAmp::settle exactly across
        // the linear, slew-limited, slew-saturated and clamped branches.
        let a = amp(1e-3);
        for &t in &[0.0, 0.2e-9, 4.5e-9, 50e-9] {
            for &beta in &[0.5, 1.0] {
                let plan = a.settle_plan(t, beta);
                for i in 0..200 {
                    let target = -3.0 + 0.03 * i as f64;
                    let initial = 2.9 - 0.029 * i as f64;
                    assert_eq!(
                        plan.settle(target, initial).to_bits(),
                        a.settle(target, initial, t, beta).to_bits(),
                        "divergence at t={t} beta={beta} target={target} initial={initial}"
                    );
                }
            }
        }
        // The ideal amplifier's plan is exact as well.
        let ideal = OpAmp::new(OpAmpSpec::ideal(), 1e-3, 1e-12);
        let plan = ideal.settle_plan(1e-12, 0.5);
        assert_eq!(
            plan.settle(0.123, -0.9).to_bits(),
            ideal.settle(0.123, -0.9, 1e-12, 0.5).to_bits()
        );
    }
}
