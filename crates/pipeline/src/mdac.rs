//! The multiplying DAC (MDAC): residue generation with every §3
//! non-ideality.
//!
//! In the amplification phase (Fig. 2 of the paper) C1 is switched to
//! ±V_REF or V_CM by the DSB while C2 closes the loop around the opamp.
//! The ideal residue is
//!
//! ```text
//! V_out = (C1 + C2)/C2 · V_in − d · (C1/C2) · V_REF,   d ∈ {−1, 0, +1}
//! ```
//!
//! which for matched capacitors is the textbook `2·V_in − d·V_REF`. The
//! model layers on: capacitor-mismatch gain and DAC-level errors (the INL
//! signature), the opamp's finite-gain error, incomplete settling from the
//! previous output (the paper's §3 timing discussion), slew limiting,
//! output clipping, and sampled opamp noise.

use adc_analog::noise::NoiseSource;
use adc_analog::opamp::{OpAmp, SettlePlan};

/// Precomputed per-sample constants of one MDAC at one timing point.
///
/// Built by [`Mdac::plan`] once per timing/configuration change so the
/// conversion loop's inner pass ([`Mdac::amplify_planned`]) performs no
/// divisions and — on the dominant linear-settling branch — no `exp()`.
/// Every field mirrors the quantity [`Mdac::amplify`] derives per call.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MdacPlan {
    /// Interstage gain `(C1 + C2)/C2`.
    pub gain: f64,
    /// DAC step `C1/C2`.
    pub dac_gain: f64,
    /// Fabricated input-referred opamp offset, volts.
    pub input_offset_v: f64,
    /// Open-loop DC gain `A0` (infinite for an ideal amplifier).
    pub dc_gain: f64,
    /// Feedback factor during amplification.
    pub beta: f64,
    /// Gain-compression knee, volts.
    pub gain_knee_v: f64,
    /// Opamp settling constants at `(settle_time, beta)`.
    pub settle: SettlePlan,
    /// DSB residual factor `exp(−t_settle/τ_dsb)` (0 when disabled).
    pub dsb_decay: f64,
    /// RMS sampled opamp output noise, volts.
    pub noise_rms_v: f64,
}

impl MdacPlan {
    /// The planned amplification as a pure function of the plan plus the
    /// settling memory handed in by reference. [`Mdac::amplify_planned`]
    /// (the per-sample path) delegates here with the MDAC's
    /// own `prev_output_v`, so both entry points share one body and stay
    /// bit-identical by construction.
    pub fn amplify(
        &self,
        v_in: f64,
        dac_level: i8,
        v_ref_eff: f64,
        noise_v: f64,
        prev_output_v: &mut f64,
    ) -> f64 {
        let ideal = self.gain * (v_in + self.input_offset_v)
            - f64::from(dac_level) * self.dac_gain * v_ref_eff;
        // Mirrors OpAmp::gain_error_factor_at with the spec constants
        // lifted into the plan.
        let factor = if self.dc_gain.is_infinite() {
            1.0
        } else {
            let knee = self.gain_knee_v;
            let compression = if knee.is_finite() && knee > 0.0 {
                1.0 + (ideal / knee).powi(2)
            } else {
                1.0
            };
            1.0 / (1.0 + compression / (self.dc_gain * self.beta))
        };
        let target = ideal * factor;
        let settled = self.settle.settle(target, *prev_output_v);
        let dsb_error = if self.dsb_decay > 0.0 {
            (target - *prev_output_v) * self.dsb_decay
        } else {
            0.0
        };
        let out = settled - dsb_error + noise_v;
        *prev_output_v = out;
        out
    }
}

/// Stage-major structure-of-arrays gather of the [`MdacPlan`] (and
/// embedded [`SettlePlan`]) scalar fields, one flat array per field,
/// plus the branch-free lane kernel that consumes them.
///
/// [`MdacPlan::amplify`] reads ~20 plan constants behind one `&self`;
/// across the record kernel's stage lanes that would make the amplify
/// loop stride 160-byte array-of-structs records and branch per lane on plan-dependent
/// conditions, and the autovectorizer gives up. Gathered field-major,
/// the identical arithmetic becomes independent flat streams the
/// compiler packs. Two conditions are *pre-resolved* into the gathered
/// values so the scalar path's branches vanish without changing a bit
/// (see [`AmpConstants::push`]); the remaining per-lane `if`s select
/// between already-computed values, which is exactly the shape LLVM
/// if-converts.
#[derive(Debug, Clone, Default)]
pub struct AmpConstants {
    /// Interstage gain.
    gain: Vec<f64>,
    /// Input-referred opamp offset, volts.
    off: Vec<f64>,
    /// DAC step.
    dacg: Vec<f64>,
    /// Compression knee, volts — `+∞` when compression is disabled.
    knee: Vec<f64>,
    /// Loop-gain product `A0·β` — `+∞` for an ideal (infinite-gain) amp.
    dcb: Vec<f64>,
    /// DSB residual factor (0 disables).
    dsb: Vec<f64>,
    /// Settling phase duration, seconds.
    ts: Vec<f64>,
    /// Settling time constant, seconds.
    tau: Vec<f64>,
    /// Slew rate, volts/second.
    slew: Vec<f64>,
    /// Slew/linear boundary, volts.
    vlin: Vec<f64>,
    /// Linear-settling residual factor.
    decay: Vec<f64>,
    /// Output clamp, volts.
    swing: Vec<f64>,
}

impl AmpConstants {
    /// Empties the gather for a fresh batch.
    pub fn clear(&mut self) {
        self.gain.clear();
        self.off.clear();
        self.dacg.clear();
        self.knee.clear();
        self.dcb.clear();
        self.dsb.clear();
        self.ts.clear();
        self.tau.clear();
        self.slew.clear();
        self.vlin.clear();
        self.decay.clear();
        self.swing.clear();
    }

    /// Appends one plan's constants.
    ///
    /// The two plan-dependent branches of the scalar path are resolved
    /// here into values that make the branch-free expressions exact:
    ///
    /// * no compression (`gain_knee_v` non-finite or ≤ 0) gathers
    ///   `knee = +∞`, and `1 + (ideal/∞)² = 1.0` exactly;
    /// * an ideal amp (`dc_gain = +∞`) gathers `dcb = +∞`, and
    ///   `1/(1 + compression/∞) = 1.0` exactly.
    pub fn push(&mut self, p: &MdacPlan) {
        self.gain.push(p.gain);
        self.off.push(p.input_offset_v);
        self.dacg.push(p.dac_gain);
        let knee = p.gain_knee_v;
        self.knee.push(if knee.is_finite() && knee > 0.0 {
            knee
        } else {
            f64::INFINITY
        });
        self.dcb.push(p.dc_gain * p.beta);
        self.dsb.push(p.dsb_decay);
        self.ts.push(p.settle.settle_time_s);
        self.tau.push(p.settle.tau_s);
        self.slew.push(p.settle.slew_rate_v_per_s);
        self.vlin.push(p.settle.v_lin);
        self.decay.push(p.settle.decay);
        self.swing.push(p.settle.output_swing_v);
    }

    /// Amplifies one lane stripe in place: for each lane `l`,
    /// `x[l] ← amplify(x[l])` using the constants gathered at
    /// `base + l`, with `prev[l]` the settling memory (updated like
    /// `Mdac::prev_output_v`). `dac` carries the decisions as exact
    /// small-integer floats (`f64::from(dac_level)`).
    ///
    /// Bit-identical per lane to [`MdacPlan::amplify`] on the plan the
    /// constants were gathered from — asserted over randomized plans,
    /// including the branch corners, by this module's tests.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree or `base + x.len()`
    /// overruns the gathered constants.
    pub fn amplify_lanes(
        &self,
        base: usize,
        x: &mut [f64],
        dac: &[f64],
        vref: &[f64],
        noise_v: &[f64],
        prev: &mut [f64],
    ) {
        // The default x86-64 target caps the autovectorizer at SSE2
        // (2-wide f64). Re-instantiating the same loop under AVX2
        // widens it to 4 without changing a bit: every operation in
        // the kernel (add/mul/div/abs/max/min and the exp polynomial)
        // is IEEE-exact, and Rust never enables FMA contraction, so
        // wider registers produce identical results faster.
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by runtime feature detection.
            unsafe { self.amplify_lanes_avx2(base, x, dac, vref, noise_v, prev) };
            return;
        }
        self.amplify_lanes_impl(base, x, dac, vref, noise_v, prev);
    }

    /// AVX2 re-instantiation of [`Self::amplify_lanes_impl`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn amplify_lanes_avx2(
        &self,
        base: usize,
        x: &mut [f64],
        dac: &[f64],
        vref: &[f64],
        noise_v: &[f64],
        prev: &mut [f64],
    ) {
        self.amplify_lanes_impl(base, x, dac, vref, noise_v, prev);
    }

    /// Portable body of [`Self::amplify_lanes`]; `inline(always)` so
    /// the feature-gated wrappers re-instantiate it under their own
    /// target features.
    #[inline(always)]
    fn amplify_lanes_impl(
        &self,
        base: usize,
        x: &mut [f64],
        dac: &[f64],
        vref: &[f64],
        noise_v: &[f64],
        prev: &mut [f64],
    ) {
        let n = x.len();
        let dac = &dac[..n];
        let vref = &vref[..n];
        let noise_v = &noise_v[..n];
        let prev = &mut prev[..n];
        let gain = &self.gain[base..][..n];
        let off = &self.off[base..][..n];
        let dacg = &self.dacg[base..][..n];
        let knee = &self.knee[base..][..n];
        let dcb = &self.dcb[base..][..n];
        let dsb = &self.dsb[base..][..n];
        let ts = &self.ts[base..][..n];
        let tau = &self.tau[base..][..n];
        let slew = &self.slew[base..][..n];
        let vlin = &self.vlin[base..][..n];
        let decay = &self.decay[base..][..n];
        let swing = &self.swing[base..][..n];
        for l in 0..n {
            let ideal = gain[l] * (x[l] + off[l]) - dac[l] * dacg[l] * vref[l];
            let compression = 1.0 + (ideal / knee[l]).powi(2);
            let factor = 1.0 / (1.0 + compression / dcb[l]);
            let target = ideal * factor;
            let initial = prev[l];
            // SettlePlan::settle, inlined over the flat fields. The
            // clamps are spelled max/min because `f64::clamp` carries a
            // `min <= max` assertion whose per-element panic edge
            // blocks if-conversion (and so vectorization) of the whole
            // loop; for the non-NaN values this kernel sees the two
            // forms are bit-identical.
            let sw = swing[l];
            let tc = target.max(-sw).min(sw);
            let dv = tc - initial;
            let dv_abs = dv.abs();
            let sign = dv.signum();
            let t_slew = (dv_abs - vlin[l]) / slew[l];
            let remaining = (ts[l] - t_slew).max(0.0).min(ts[l]);
            let tail = adc_analog::stripe::exp_nonpos(-remaining / tau[l]);
            let lin = tc - dv * decay[l];
            let rail = initial + sign * slew[l] * ts[l];
            let slew_v = tc - sign * vlin[l] * tail;
            let seg = if dv_abs <= vlin[l] {
                lin
            } else if t_slew >= ts[l] {
                rail
            } else {
                slew_v
            };
            let settled = if ts[l] > 0.0 { seg } else { initial };
            let settled = settled.max(-sw).min(sw);
            let dsb_error = if dsb[l] > 0.0 {
                (target - initial) * dsb[l]
            } else {
                0.0
            };
            let out = settled - dsb_error + noise_v[l];
            prev[l] = out;
            x[l] = out;
        }
    }
}

/// One stage's residue amplifier.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Mdac {
    /// Fabricated C1 (the capacitor the DSB switches to the reference),
    /// farads.
    pub c1_f: f64,
    /// Fabricated C2 (the feedback capacitor), farads.
    pub c2_f: f64,
    /// Feedback factor during amplification.
    pub beta: f64,
    /// The residue amplifier at its operating point.
    pub opamp: OpAmp,
    /// Time constant of the DSB reference switches charging C1, seconds.
    /// Unlike the opamp's τ (whose bias scales with conversion rate), this
    /// is *fixed* — the mechanism that ends the paper's flat-performance
    /// range above ≈140 MS/s. Zero disables it.
    pub dsb_tau_s: f64,
    /// Previous held output (settling starts from here).
    prev_output_v: f64,
}

impl Mdac {
    /// Creates an MDAC.
    ///
    /// # Panics
    ///
    /// Panics if capacitances are non-positive or `beta` is outside
    /// `(0, 1]`.
    pub fn new(c1_f: f64, c2_f: f64, beta: f64, opamp: OpAmp) -> Self {
        assert!(c1_f > 0.0 && c2_f > 0.0, "capacitances must be positive");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0, 1]");
        Self {
            c1_f,
            c2_f,
            beta,
            opamp,
            dsb_tau_s: 0.0,
            prev_output_v: 0.0,
        }
    }

    /// Sets the DSB reference-switch time constant.
    pub fn with_dsb_tau(mut self, dsb_tau_s: f64) -> Self {
        assert!(dsb_tau_s >= 0.0, "time constant must be non-negative");
        self.dsb_tau_s = dsb_tau_s;
        self
    }

    /// The stage's actual interstage gain `(C1 + C2)/C2` (ideally 2).
    pub fn gain(&self) -> f64 {
        (self.c1_f + self.c2_f) / self.c2_f
    }

    /// The DAC step `C1/C2` (ideally 1).
    pub fn dac_gain(&self) -> f64 {
        self.c1_f / self.c2_f
    }

    /// The residue an ideal-in-time amplifier would produce (before
    /// settling/noise), including capacitor mismatch and finite opamp
    /// gain.
    pub fn target_residue_v(&self, v_in: f64, dac_level: i8, v_ref_eff: f64) -> f64 {
        let ideal = self.gain() * (v_in + self.opamp.input_offset_v)
            - f64::from(dac_level) * self.dac_gain() * v_ref_eff;
        ideal * self.opamp.gain_error_factor_at(self.beta, ideal)
    }

    /// Runs one amplification phase.
    ///
    /// * `v_in` — the held stage input;
    /// * `dac_level` — the ADSC decision d ∈ {−1, 0, +1};
    /// * `v_ref_eff` — the effective reference for this event (droop and
    ///   noise applied upstream);
    /// * `settle_time_s` — the timing budget's settle time;
    /// * `noise` — for the sampled opamp noise.
    ///
    /// Returns the residue handed to the next stage.
    pub fn amplify(
        &mut self,
        v_in: f64,
        dac_level: i8,
        v_ref_eff: f64,
        settle_time_s: f64,
        noise: &mut NoiseSource,
    ) -> f64 {
        let target = self.target_residue_v(v_in, dac_level, v_ref_eff);
        let settled = self
            .opamp
            .settle(target, self.prev_output_v, settle_time_s, self.beta);
        // The DSB's reference switches form a second, rate-independent
        // pole: its residual error adds to the opamp's.
        let dsb_error = if self.dsb_tau_s > 0.0 {
            (target - self.prev_output_v) * (-settle_time_s / self.dsb_tau_s).exp()
        } else {
            0.0
        };
        let out = settled - dsb_error + self.opamp.sample_noise(self.beta, noise);
        self.prev_output_v = out;
        out
    }

    /// Resets the settling memory (between measurement records).
    pub fn reset(&mut self) {
        self.prev_output_v = 0.0;
    }

    /// Precomputes this MDAC's per-sample constants for one settle time.
    pub fn plan(&self, settle_time_s: f64) -> MdacPlan {
        MdacPlan {
            gain: self.gain(),
            dac_gain: self.dac_gain(),
            input_offset_v: self.opamp.input_offset_v,
            dc_gain: self.opamp.spec.dc_gain,
            beta: self.beta,
            gain_knee_v: self.opamp.spec.gain_knee_v,
            settle: self.opamp.settle_plan(settle_time_s, self.beta),
            dsb_decay: if self.dsb_tau_s > 0.0 {
                (-settle_time_s / self.dsb_tau_s).exp()
            } else {
                0.0
            },
            noise_rms_v: self.opamp.sampled_noise_rms_v(self.beta),
        }
    }

    /// Planned amplification phase: the same deterministic model as
    /// [`Mdac::amplify`], but with every operating-point constant taken
    /// from `plan` and the sampled output noise supplied by the caller
    /// (`noise_v`) so several independent Gaussian sources can be merged
    /// into one draw upstream.
    pub fn amplify_planned(
        &mut self,
        plan: &MdacPlan,
        v_in: f64,
        dac_level: i8,
        v_ref_eff: f64,
        noise_v: f64,
    ) -> f64 {
        plan.amplify(v_in, dac_level, v_ref_eff, noise_v, &mut self.prev_output_v)
    }

    /// The MDAC's settling memory (the held previous output), for the
    /// lane kernel's gather/scatter of per-stage state into flat arrays.
    pub fn prev_output_v(&self) -> f64 {
        self.prev_output_v
    }

    /// Restores the settling memory scattered back by the lane kernel.
    pub fn set_prev_output_v(&mut self, v: f64) {
        self.prev_output_v = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_analog::opamp::OpAmpSpec;

    fn ideal_mdac() -> Mdac {
        let amp = OpAmp::new(OpAmpSpec::ideal(), 1e-3, 1e-12);
        Mdac::new(2e-12, 2e-12, 0.5, amp)
    }

    fn quiet() -> NoiseSource {
        NoiseSource::from_seed(0)
    }

    #[test]
    fn ideal_residue_is_2vin_minus_dvref() {
        let mut m = ideal_mdac();
        let mut n = quiet();
        let r = m.amplify(0.3, 1, 1.0, 1e-6, &mut n);
        assert!((r - (0.6 - 1.0)).abs() < 1e-12);
        let r = m.amplify(-0.2, -1, 1.0, 1e-6, &mut n);
        assert!((r - (-0.4 + 1.0)).abs() < 1e-12);
        let r = m.amplify(0.1, 0, 1.0, 1e-6, &mut n);
        assert!((r - 0.2).abs() < 1e-12);
    }

    #[test]
    fn capacitor_mismatch_changes_gain_and_dac_step() {
        let amp = OpAmp::new(OpAmpSpec::ideal(), 1e-3, 1e-12);
        // C1 0.5 % high.
        let m = Mdac::new(2.01e-12, 2e-12, 0.5, amp);
        assert!((m.gain() - 2.005).abs() < 1e-12);
        assert!((m.dac_gain() - 1.005).abs() < 1e-12);
    }

    #[test]
    fn finite_gain_shrinks_residue() {
        let spec = OpAmpSpec {
            dc_gain: 1000.0,
            ..OpAmpSpec::ideal()
        };
        let amp = OpAmp::new(spec, 1e-3, 1e-12);
        let mut m = Mdac::new(2e-12, 2e-12, 0.5, amp);
        let mut n = quiet();
        let r = m.amplify(0.4, 0, 1.0, 1e-3, &mut n);
        let expected = 0.8 / (1.0 + 1.0 / (1000.0 * 0.5));
        assert!((r - expected).abs() < 1e-9, "r {r} vs {expected}");
    }

    #[test]
    fn short_settle_time_leaves_memory_of_previous_output() {
        let spec = OpAmpSpec::miller_two_stage();
        let amp = OpAmp::new(spec, 1e-4, 4e-12);
        let mut m = Mdac::new(2e-12, 2e-12, 0.45, amp);
        let mut n = quiet();
        // Converge to +0.8 fully...
        let _ = m.amplify(0.4, 0, 1.0, 1e-3, &mut n);
        // ...then give a new target almost no time: output barely moves.
        let r = m.amplify(-0.4, 0, 1.0, 10e-12, &mut n);
        assert!(r > 0.5, "residue should still be near +0.8, got {r}");
        m.reset();
        let r = m.amplify(-0.4, 0, 1.0, 10e-12, &mut n);
        assert!(r.abs() < 0.2, "after reset settles from 0, got {r}");
    }

    #[test]
    fn residue_clips_at_opamp_swing() {
        let spec = OpAmpSpec {
            output_swing_v: 1.3,
            ..OpAmpSpec::ideal()
        };
        let amp = OpAmp::new(spec, 1e-3, 1e-12);
        let mut m = Mdac::new(2e-12, 2e-12, 0.5, amp);
        let mut n = quiet();
        // 2·0.9 − (−1) = 2.8 V target: clips at 1.3 V.
        let r = m.amplify(0.9, -1, 1.0, 1e-3, &mut n);
        assert_eq!(r, 1.3);
    }

    #[test]
    fn planned_amplify_matches_amplify_bit_for_bit() {
        // Non-ideal spec with mismatch, offset, DSB pole and noise: the
        // planned path must reproduce the reference path exactly when
        // fed the same noise draws.
        let spec = OpAmpSpec::miller_two_stage();
        let amp = OpAmp::new(spec, 1e-4, 4e-12).with_offset(1.2e-3);
        let mdac = || Mdac::new(2.01e-12, 2e-12, 0.45, amp).with_dsb_tau(0.2e-9);
        let (mut reference, mut planned) = (mdac(), mdac());
        let settle = 4.0e-9;
        let plan = planned.plan(settle);
        let mut n_ref = NoiseSource::from_seed(3);
        let mut n_plan = NoiseSource::from_seed(3);
        for i in 0..64usize {
            let v = 0.4 * ((i * 37 % 64) as f64 / 32.0 - 1.0);
            let d = [-1i8, 0, 1][i % 3];
            let a = reference.amplify(v, d, 1.0, settle, &mut n_ref);
            let noise_v = n_plan.gaussian(0.0, plan.noise_rms_v);
            let b = planned.amplify_planned(&plan, v, d, 1.0, noise_v);
            assert_eq!(a.to_bits(), b.to_bits(), "divergence at step {i}");
        }
    }

    #[test]
    fn reference_error_scales_dac_term_only() {
        let mut m = ideal_mdac();
        let mut n = quiet();
        let nominal = m.amplify(0.3, 1, 1.0, 1e-6, &mut n);
        m.reset();
        let drooped = m.amplify(0.3, 1, 0.999, 1e-6, &mut n);
        assert!((drooped - nominal - 0.001).abs() < 1e-12);
        m.reset();
        // d = 0: reference does not enter at all.
        let a = m.amplify(0.3, 0, 1.0, 1e-6, &mut n);
        m.reset();
        let b = m.amplify(0.3, 0, 0.9, 1e-6, &mut n);
        assert_eq!(a, b);
    }

    #[test]
    fn soa_kernel_matches_planned_amplify_bit_for_bit() {
        // Randomized plans spanning every branch of the scalar path:
        // finite/infinite dc gain, finite/non-finite/non-positive knee,
        // DSB on/off, zero-duration settling, and inputs landing in the
        // linear, slewing, railed, and clipped segments.
        use adc_analog::opamp::SettlePlan;
        let mut rng = NoiseSource::from_seed(9);
        let mut uni = |lo: f64, hi: f64| rng.uniform(lo, hi);
        let mut plans = Vec::new();
        let mut soa = AmpConstants::default();
        for i in 0..256usize {
            let tau = uni(0.2e-9, 1.5e-9);
            let slew = uni(2e8, 4e9);
            let ts = if i % 7 == 3 { 0.0 } else { uni(1e-9, 6e-9) };
            let plan = MdacPlan {
                gain: uni(1.8, 2.2),
                dac_gain: uni(0.9, 1.1),
                input_offset_v: uni(-5e-3, 5e-3),
                dc_gain: match i % 3 {
                    0 => f64::INFINITY,
                    _ => uni(200.0, 5e4),
                },
                beta: uni(0.4, 0.6),
                gain_knee_v: match i % 5 {
                    0 => f64::INFINITY,
                    1 => -1.0,
                    2 => 0.0,
                    _ => uni(0.4, 1.5),
                },
                settle: SettlePlan {
                    settle_time_s: ts,
                    tau_s: tau,
                    slew_rate_v_per_s: slew,
                    v_lin: slew * tau,
                    decay: if ts > 0.0 { (-ts / tau).exp() } else { 0.0 },
                    output_swing_v: uni(0.9, 1.3),
                },
                dsb_decay: if i % 2 == 0 { 0.0 } else { uni(1e-4, 0.2) },
                noise_rms_v: 0.0,
            };
            soa.push(&plan);
            plans.push(plan);
        }
        let n = plans.len();
        let mut prev_scalar = vec![0.0f64; n];
        let mut prev_soa = vec![0.0f64; n];
        let mut x = vec![0.0f64; n];
        let mut dac = vec![0.0f64; n];
        let mut dac_i = vec![0i8; n];
        let mut vref = vec![0.0f64; n];
        let mut noise_v = vec![0.0f64; n];
        for round in 0..64usize {
            for l in 0..n {
                x[l] = uni(-2.5, 2.5);
                let d = [-1i8, 0, 1][(l + round) % 3];
                dac_i[l] = d;
                dac[l] = f64::from(d);
                vref[l] = uni(0.95, 1.0);
                noise_v[l] = uni(-2e-4, 2e-4);
            }
            let mut want = x.clone();
            for l in 0..n {
                want[l] =
                    plans[l].amplify(x[l], dac_i[l], vref[l], noise_v[l], &mut prev_scalar[l]);
            }
            soa.amplify_lanes(0, &mut x, &dac, &vref, &noise_v, &mut prev_soa);
            for l in 0..n {
                assert_eq!(
                    x[l].to_bits(),
                    want[l].to_bits(),
                    "lane {l} round {round} diverged: soa {} vs scalar {}",
                    x[l],
                    want[l]
                );
                assert_eq!(prev_soa[l].to_bits(), prev_scalar[l].to_bits());
            }
        }
    }
}
