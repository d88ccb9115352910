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

/// A die's [`MdacPlan`]s gathered field-major at a fixed lane width
/// `W`, stage 1 in lane 0, with the branch-free amplify the record
/// kernel runs for every stage of a tick in one pass.
///
/// [`MdacPlan::amplify`] reads ~20 plan constants behind one `&self` and
/// branches on plan-dependent conditions. Gathered into one `[f64; W]`
/// per field, the identical arithmetic becomes `W/4` independent AVX2
/// vectors per operation. [`MdacLanes::amplify`] is written one
/// operation at a time across all lanes, so those vectors' dependency
/// chains interleave instead of running one block after another. Two
/// conditions are *pre-resolved* into the gathered values so the scalar
/// path's branches vanish without changing a bit (see
/// [`MdacLanes::gather`]); the remaining `if`s select between
/// already-computed values, which is exactly the shape LLVM
/// if-converts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MdacLanes<const W: usize> {
    /// Interstage gain.
    gain: [f64; W],
    /// Input-referred opamp offset, volts.
    off: [f64; W],
    /// DAC step.
    dacg: [f64; W],
    /// Compression knee, volts — `+∞` when compression is disabled.
    knee: [f64; W],
    /// Loop-gain product `A0·β` — `+∞` for an ideal (infinite-gain) amp.
    dcb: [f64; W],
    /// DSB residual factor (0 disables).
    dsb: [f64; W],
    /// Settling phase duration, seconds.
    ts: [f64; W],
    /// Settling time constant, seconds.
    tau: [f64; W],
    /// Slew rate, volts/second.
    slew: [f64; W],
    /// Slew/linear boundary, volts.
    vlin: [f64; W],
    /// Linear-settling residual factor.
    decay: [f64; W],
    /// Output clamp, volts.
    swing: [f64; W],
}

impl<const W: usize> MdacLanes<W> {
    /// Gathers one plan per lane, the first in lane 0. Lanes past the
    /// last plan repeat it; the record kernel never marks them active.
    ///
    /// The two plan-dependent branches of the scalar path are resolved
    /// here into values that make the branch-free expressions exact:
    ///
    /// * no compression (`gain_knee_v` non-finite or ≤ 0) gathers
    ///   `knee = +∞`, and `1 + (ideal/∞)² = 1.0` exactly;
    /// * an ideal amp (`dc_gain = +∞`) gathers `dcb = +∞`, and
    ///   `1/(1 + compression/∞) = 1.0` exactly.
    ///
    /// # Panics
    ///
    /// Panics if there are no plans or more than `W`.
    pub fn gather<'a>(plans: impl IntoIterator<Item = &'a MdacPlan>) -> Self {
        let mut lanes = Self {
            gain: [0.0; W],
            off: [0.0; W],
            dacg: [0.0; W],
            knee: [0.0; W],
            dcb: [0.0; W],
            dsb: [0.0; W],
            ts: [0.0; W],
            tau: [0.0; W],
            slew: [0.0; W],
            vlin: [0.0; W],
            decay: [0.0; W],
            swing: [0.0; W],
        };
        let mut last = None;
        let mut n = 0;
        for p in plans {
            assert!(n < W, "more than {W} plans for {W} lanes");
            lanes.load(n, p);
            last = Some(p);
            n += 1;
        }
        let last = last.expect("at least one plan");
        for l in n..W {
            lanes.load(l, last);
        }
        lanes
    }

    fn load(&mut self, l: usize, p: &MdacPlan) {
        self.gain[l] = p.gain;
        self.off[l] = p.input_offset_v;
        self.dacg[l] = p.dac_gain;
        let knee = p.gain_knee_v;
        self.knee[l] = if knee.is_finite() && knee > 0.0 {
            knee
        } else {
            f64::INFINITY
        };
        self.dcb[l] = p.dc_gain * p.beta;
        self.dsb[l] = p.dsb_decay;
        self.ts[l] = p.settle.settle_time_s;
        self.tau[l] = p.settle.tau_s;
        self.slew[l] = p.settle.slew_rate_v_per_s;
        self.vlin[l] = p.settle.v_lin;
        self.decay[l] = p.settle.decay;
        self.swing[l] = p.settle.output_swing_v;
    }

    /// Amplifies every active lane in place: `x[l] ← amplify(x[l])` on
    /// lane `l`'s plan, with `prev[l]` its settling memory (updated like
    /// `Mdac::prev_output_v`). `dac` carries the decisions as exact
    /// small-integer floats (`f64::from(dac_level)`). Lanes not `active`
    /// keep both `x` and `prev`.
    ///
    /// Bit-identical per active lane to [`MdacPlan::amplify`] on the
    /// plan the lane was gathered from — asserted over randomized plans,
    /// including the branch corners, by this module's tests.
    #[inline(always)]
    pub fn amplify(
        &self,
        active: &[bool; W],
        x: &mut [f64; W],
        dac: &[f64; W],
        vref: &[f64; W],
        noise_v: &[f64; W],
        prev: &mut [f64; W],
    ) {
        use std::array::from_fn;
        let ideal: [f64; W] =
            from_fn(|l| self.gain[l] * (x[l] + self.off[l]) - dac[l] * self.dacg[l] * vref[l]);
        let compression: [f64; W] = from_fn(|l| 1.0 + (ideal[l] / self.knee[l]).powi(2));
        let factor: [f64; W] = from_fn(|l| 1.0 / (1.0 + compression[l] / self.dcb[l]));
        let target: [f64; W] = from_fn(|l| ideal[l] * factor[l]);
        // SettlePlan::settle, over the flat fields. The clamps are
        // spelled max/min because `f64::clamp` carries a `min <= max`
        // assertion whose panic edge blocks if-conversion; for the
        // non-NaN values this kernel sees the two forms are
        // bit-identical.
        let tc: [f64; W] = from_fn(|l| target[l].max(-self.swing[l]).min(self.swing[l]));
        let dv: [f64; W] = from_fn(|l| tc[l] - prev[l]);
        let dv_abs: [f64; W] = from_fn(|l| dv[l].abs());
        let sign: [f64; W] = from_fn(|l| dv[l].signum());
        let t_slew: [f64; W] = from_fn(|l| (dv_abs[l] - self.vlin[l]) / self.slew[l]);
        let remaining: [f64; W] = from_fn(|l| (self.ts[l] - t_slew[l]).max(0.0).min(self.ts[l]));
        let tail: [f64; W] =
            from_fn(|l| adc_analog::stripe::exp_nonpos(-remaining[l] / self.tau[l]));
        let lin: [f64; W] = from_fn(|l| tc[l] - dv[l] * self.decay[l]);
        let rail: [f64; W] = from_fn(|l| prev[l] + sign[l] * self.slew[l] * self.ts[l]);
        let slew_v: [f64; W] = from_fn(|l| tc[l] - sign[l] * self.vlin[l] * tail[l]);
        let seg: [f64; W] = from_fn(|l| {
            if dv_abs[l] <= self.vlin[l] {
                lin[l]
            } else if t_slew[l] >= self.ts[l] {
                rail[l]
            } else {
                slew_v[l]
            }
        });
        let settled: [f64; W] = from_fn(|l| if self.ts[l] > 0.0 { seg[l] } else { prev[l] });
        let settled: [f64; W] = from_fn(|l| settled[l].max(-self.swing[l]).min(self.swing[l]));
        let dsb_error: [f64; W] = from_fn(|l| {
            if self.dsb[l] > 0.0 {
                (target[l] - prev[l]) * self.dsb[l]
            } else {
                0.0
            }
        });
        let out: [f64; W] = from_fn(|l| settled[l] - dsb_error[l] + noise_v[l]);
        *prev = from_fn(|l| if active[l] { out[l] } else { prev[l] });
        *x = from_fn(|l| if active[l] { out[l] } else { x[l] });
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

    /// Randomized plans spanning every branch of the scalar path:
    /// finite/infinite dc gain, finite/non-finite/non-positive knee, DSB
    /// on/off, zero-duration settling.
    fn random_plans(rng: &mut NoiseSource, count: usize) -> Vec<MdacPlan> {
        use adc_analog::opamp::SettlePlan;
        let mut uni = |lo: f64, hi: f64| rng.uniform(lo, hi);
        (0..count)
            .map(|i| {
                let tau = uni(0.2e-9, 1.5e-9);
                let slew = uni(2e8, 4e9);
                let ts = if i % 7 == 3 { 0.0 } else { uni(1e-9, 6e-9) };
                MdacPlan {
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
                }
            })
            .collect()
    }

    /// Runs `plans` (at most `W`) through the fixed-width kernel and
    /// through [`MdacPlan::amplify`] lane by lane, with inputs landing in
    /// the linear, slewing, railed and clipped segments, under the masks
    /// the record kernel uses: fill (lanes `0..=t` active), steady, and
    /// drain (lanes `lo..` active), plus lanes past the last plan.
    fn lanes_match_scalar<const W: usize>(plans: &[MdacPlan], rng: &mut NoiseSource) {
        let n = plans.len();
        let lanes = MdacLanes::<W>::gather(plans);
        let mut prev_scalar = [0.0f64; W];
        let mut prev_lanes = [0.0f64; W];
        for round in 0..64usize {
            let (lo, hi) = match round % 4 {
                0 => (0, round % n),
                1 => (round % n, n - 1),
                _ => (0, n - 1),
            };
            let active: [bool; W] = std::array::from_fn(|l| (lo..=hi).contains(&l));
            let mut x = [0.0f64; W];
            let mut dac = [0.0f64; W];
            let mut dac_i = [0i8; W];
            let mut vref = [0.0f64; W];
            let mut noise_v = [0.0f64; W];
            for l in 0..W {
                x[l] = rng.uniform(-2.5, 2.5);
                dac_i[l] = [-1i8, 0, 1][(l + round) % 3];
                dac[l] = f64::from(dac_i[l]);
                vref[l] = rng.uniform(0.95, 1.0);
                noise_v[l] = rng.uniform(-2e-4, 2e-4);
            }
            let mut want = x;
            for l in lo..=hi {
                want[l] =
                    plans[l].amplify(x[l], dac_i[l], vref[l], noise_v[l], &mut prev_scalar[l]);
            }
            let prev_before = prev_lanes;
            lanes.amplify(&active, &mut x, &dac, &vref, &noise_v, &mut prev_lanes);
            for l in 0..W {
                if active[l] {
                    assert_eq!(
                        x[l].to_bits(),
                        want[l].to_bits(),
                        "W {W}, lane {l}, round {round}: lanes {} vs scalar {}",
                        x[l],
                        want[l]
                    );
                    assert_eq!(prev_lanes[l].to_bits(), prev_scalar[l].to_bits());
                } else {
                    // Masked lanes keep their state bit for bit.
                    assert_eq!(x[l].to_bits(), want[l].to_bits(), "W {W}, masked lane {l}");
                    assert_eq!(prev_lanes[l].to_bits(), prev_before[l].to_bits());
                }
            }
        }
    }

    #[test]
    fn soa_kernel_matches_planned_amplify_bit_for_bit() {
        let mut rng = NoiseSource::from_seed(9);
        let plans = random_plans(&mut rng, 256);
        // Every width, full and partly filled (padding lanes repeat the
        // last plan and stay masked).
        for group in plans.chunks(16) {
            lanes_match_scalar::<16>(group, &mut rng);
            lanes_match_scalar::<16>(&group[..14], &mut rng);
            lanes_match_scalar::<12>(&group[..12], &mut rng);
            lanes_match_scalar::<12>(&group[..9], &mut rng);
            lanes_match_scalar::<8>(&group[..8], &mut rng);
            lanes_match_scalar::<8>(&group[..5], &mut rng);
            lanes_match_scalar::<4>(&group[..4], &mut rng);
            lanes_match_scalar::<4>(&group[..1], &mut rng);
        }
    }
}
