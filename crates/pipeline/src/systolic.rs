//! The systolic record kernel: a die converts records the way the silicon
//! pipelines them.
//!
//! In the paper's Fig. 1 chain every stage works on a different sample:
//! while stage 1 samples input *k*, stage 2 amplifies *k−1*, and so on
//! down the ten stages. Converting each sample through all stages before
//! starting the next turns that into one serial floating-point chain —
//! droop, decision, settling exponential and divide, ten times over —
//! that the core cannot overlap. This kernel restores the hardware's
//! schedule. For each chunk of `CHUNK` samples it:
//!
//! 1. pre-draws the chunk's deviates in one flat pass from the die's
//!    [`SampleNoise`](adc_analog::stripe::SampleNoise) stream
//!    ([`standard_normal_fill`]), `2 + stages` per sample in the
//!    order the per-sample path consumes them: jitter, front end, then
//!    one merged draw per stage;
//! 2. runs the front end serially over the chunk (sampling
//!    instant, waveform, input-switch tracking, front noise, ripple);
//! 3. advances the stages as a wavefront: tick *t* evaluates stage *s*
//!    on sample *t − s* for every active stage at once. Droop, decision
//!    and reference/sigma select run in one stage loop, then the
//!    residues go through [`AmpConstants::amplify_lanes`] with **stages
//!    as lanes**, and the last-stage output feeds the flash.
//!
//! Every record runs here, through [`PipelineAdc::convert_waveform_into`].
//! Dies share nothing, so N dies convert N records one after another.
//!
//! # Why the schedule is exact
//!
//! A stage depends on the previous stage for the same sample (its input)
//! and on itself for the previous sample (settling memory, comparator
//! hysteresis, comparator noise). The wavefront preserves both orders, so
//! only streams shared *between* stages could tell the schedules apart.
//! There are none: each comparator draws from its own stream
//! ([`adc_analog::comparator`]), and the sample stream's draws are
//! unconditional — every slot is consumed whatever its sigma, a zero
//! sigma contributing an exact `0.0` — so the chunk's deviates are a
//! fixed function of the stream position and can be drawn up front.
//! Every code is therefore bit-identical to converting the same samples
//! one at a time through `PipelineAdc::convert_one` (a property test
//! below pins this). Scratch memory is O(`CHUNK` × stages), independent
//! of the record length.

use adc_analog::stripe::standard_normal_fill;

use crate::converter::{PipelineAdc, Waveform, WARMUP_SAMPLES};
use crate::correction;
use crate::mdac::AmpConstants;
use crate::subconverter::StageDecision;

/// Samples per chunk: the unit of pre-drawn deviates and of exact-grid
/// waveform evaluation, so sources with a recurrence override of
/// [`Waveform::fill_with_slope`] re-anchor at chunk starts.
pub(crate) const CHUNK: usize = 256;

/// Every `TRACE_EVERY`-th wavefront tick of a record emits a
/// `pipeline-tick` span (value: active stages) and, when the tick
/// completes a sample, a `flash` span. The tick counter runs across
/// chunks (a chunk of `len` samples takes `len + stages − 1` ticks), so
/// the sampled ticks drift through fill, steady and drain ticks in
/// proportion to how often each occurs. Subsampling by tick index, not
/// by time, keeps the trace deterministic and small.
pub(crate) const TRACE_EVERY: usize = 512;

/// Reusable chunk buffers of the record kernel.
#[derive(Debug, Clone, Default)]
pub(crate) struct Systolic {
    /// The chunk's deviates: `z[j·(2 + stages) + slot]`.
    z: Vec<f64>,
    /// Exact-grid waveform values and slopes of the chunk.
    values: Vec<f64>,
    slopes: Vec<f64>,
    /// Held stage-1 input of each chunk sample, after the front end.
    front: Vec<f64>,
    /// Stage-1 ADSC aperture-skew error of each chunk sample.
    adsc_err: Vec<f64>,
    /// Stage decisions: `[j·stages + s]`.
    decisions: Vec<StageDecision>,
    /// Flash code of each chunk sample.
    flash: Vec<u8>,
    /// The value in flight at each stage's input (output after amplify).
    pipe: Vec<f64>,
    /// DAC level of the current tick, as an exact `f64`.
    dac: Vec<f64>,
    /// Effective reference of the current tick.
    vref: Vec<f64>,
    /// Merged noise draw of the current tick.
    noise_v: Vec<f64>,
    /// MDAC settling memory, gathered for the record.
    prev: Vec<f64>,
    /// The die's amplify constants, gathered for the record.
    amp: AmpConstants,
}

impl Systolic {
    /// Converts `n_samples` (plus the warm-up) of `waveform` on `die`,
    /// appending the post-warm-up codes to `out` (see the module docs).
    pub(crate) fn convert<W: Waveform + ?Sized>(
        &mut self,
        die: &mut PipelineAdc,
        waveform: &W,
        n_samples: usize,
        out: &mut Vec<u16>,
    ) {
        die.ensure_plans();
        let stages = die.stages.len();
        self.values.resize(CHUNK, 0.0);
        self.slopes.resize(CHUNK, 0.0);
        self.front.resize(CHUNK, 0.0);
        self.adsc_err.resize(CHUNK, 0.0);
        self.flash.resize(CHUNK, 0);
        self.z.resize(CHUNK * (2 + stages), 0.0);
        self.decisions
            .resize(CHUNK * stages, StageDecision { dac_level: 0 });
        for buf in [
            &mut self.pipe,
            &mut self.dac,
            &mut self.vref,
            &mut self.noise_v,
        ] {
            buf.resize(stages, 0.0);
        }
        self.prev.clear();
        self.amp.clear();
        for (stage, plan) in die.stages.iter().zip(&die.plans) {
            self.prev.push(stage.mdac.prev_output_v());
            self.amp.push(&plan.mdac);
        }

        let total = n_samples + WARMUP_SAMPLES;
        let mut first = 0;
        let mut tick = 0;
        while first < total {
            let len = CHUNK.min(total - first);
            self.front_end(die, waveform, first, len);
            tick = self.wavefront(die, len, tick);
            for j in 0..len {
                if first + j >= WARMUP_SAMPLES {
                    let code = correction::assemble_code(
                        &self.decisions[j * stages..(j + 1) * stages],
                        self.flash[j],
                    );
                    out.push(code as u16);
                }
            }
            die.last_flash_code = self.flash[len - 1];
            first += len;
        }

        for (stage, &v) in die.stages.iter_mut().zip(&self.prev) {
            stage.mdac.set_prev_output_v(v);
        }
    }

    /// Steps (1) and (2): the chunk's deviates, then the front end over
    /// record samples `first..first + len`.
    fn front_end<W: Waveform + ?Sized>(
        &mut self,
        die: &mut PipelineAdc,
        waveform: &W,
        first: usize,
        len: usize,
    ) {
        let draws = 2 + die.stages.len();
        let period = die.timing.period_s;
        let z = &mut self.z[..len * draws];
        let mut state = die.sample_noise.state();
        standard_normal_fill(&mut state, z);
        die.sample_noise.set_state(state);

        // Without jitter the sampling instants form the exact grid
        // `k·period`, evaluated chunk-wise through the source's fill.
        let jitter_sigma = die.config.jitter.sigma_s;
        let jittered = jitter_sigma > 0.0;
        let values = &mut self.values[..len];
        let slopes = &mut self.slopes[..len];
        if !jittered {
            waveform.fill_with_slope(first, period, values, slopes);
        }
        for j in 0..len {
            let zj = &z[j * draws..][..2];
            let (v, dvdt) = if jittered {
                let t = (first + j) as f64 * period + (0.0 + jitter_sigma * zj[0]);
                waveform.sample_at(t)
            } else {
                (values[j], slopes[j])
            };
            let tracked = die.front_end.track(v, dvdt, period);
            let mut x = tracked + (0.0 + die.front_noise_rms_v * zj[1]);
            die.front_end.commit_held_v(x);
            // adc-lint: allow(float-eq) reason="feature gate: ripple injection is configured exactly 0.0 when disabled"
            if die.ripple_referred_v != 0.0 {
                let t = die.sample_count as f64 * period;
                x += die.ripple_referred_v
                    * (2.0 * std::f64::consts::PI * die.config.supply_ripple_hz * t).sin();
            }
            die.sample_count += 1;
            self.front[j] = x;
            self.adsc_err[j] = die.adsc_skew_s * dvdt;
        }
    }

    /// Step (3): tick `t` runs stage `s` on sample `t − s`. `tick` is the
    /// record's running tick count before this chunk; returns it after.
    fn wavefront(&mut self, die: &mut PipelineAdc, len: usize, tick: usize) -> usize {
        let stages = die.stages.len();
        let draws = 2 + stages;
        let tracing = adc_trace::enabled();
        let ticks = len + stages - 1;
        for t in 0..ticks {
            let lo = t.saturating_sub(len - 1);
            let hi = t.min(stages - 1);
            if t < len {
                self.pipe[0] = self.front[t];
            }
            let traced = tracing && (tick + t).is_multiple_of(TRACE_EVERY);
            {
                let _tick =
                    traced.then(|| adc_trace::span_with("pipeline-tick", (hi + 1 - lo) as u64));
                for s in lo..=hi {
                    let j = t - s;
                    let plan = &die.plans[s];
                    // Hold-phase leakage droop, then the ADSC decision
                    // (stage 1 samples through the skewed ADSC path).
                    let mut x = self.pipe[s];
                    x -= plan.droop_k * x * x * x;
                    let adsc_error = if s == 0 { self.adsc_err[j] } else { 0.0 };
                    let decision = die.stages[s].adsc.decide(x + adsc_error);
                    self.pipe[s] = x;
                    self.dac[s] = f64::from(decision.dac_level);
                    self.decisions[j * stages + s] = decision;
                    let (v_ref_eff, sigma) = if decision.dac_level == 0 {
                        (plan.vref_d0, plan.sigma_d0)
                    } else {
                        (plan.vref_d1, plan.sigma_d1)
                    };
                    self.vref[s] = v_ref_eff;
                    self.noise_v[s] = 0.0 + sigma * self.z[j * draws + 2 + s];
                }
                let active = lo..hi + 1;
                self.amp.amplify_lanes(
                    lo,
                    &mut self.pipe[active.clone()],
                    &self.dac[active.clone()],
                    &self.vref[active.clone()],
                    &self.noise_v[active.clone()],
                    &mut self.prev[active],
                );
            }
            if hi == stages - 1 {
                let _flash = traced.then(|| adc_trace::span("flash"));
                self.flash[t + 1 - stages] = die.flash.decide(self.pipe[hi]);
            }
            // Each residue moves on to the next stage's input.
            self.pipe.copy_within(0..stages - 1, 1);
        }
        tick + ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdcConfig;
    use proptest::prelude::*;

    /// The reference schedule: every sample through every stage before
    /// the next, via the per-sample path, drawing the jitter slot first.
    fn per_sample_record(adc: &mut PipelineAdc, wave: &dyn Waveform, n: usize) -> Vec<u16> {
        let period = adc.timing().period_s;
        let sigma = adc.config().jitter.sigma_s.max(0.0);
        (0..n + WARMUP_SAMPLES)
            .map(|k| {
                let t = k as f64 * period + (0.0 + sigma * adc.sample_noise.standard_normal());
                let (v, dvdt) = wave.sample_at(t);
                adc.convert_one(v, dvdt)
            })
            .skip(WARMUP_SAMPLES)
            .collect()
    }

    fn tone(t: f64) -> f64 {
        0.93 * (2.0 * std::f64::consts::PI * 13.1e6 * t).sin()
    }

    /// A die with every per-sample noise source at stress levels:
    /// comparator noise and a wide metastable window make marginal and
    /// metastable draws fire often.
    fn stressed(jitter: bool, ripple: bool, stage_count: usize, cmp_noise_v: f64) -> AdcConfig {
        let mut cfg = AdcConfig::nominal_110ms();
        cfg.stage_count = stage_count;
        if !jitter {
            cfg.jitter.sigma_s = 0.0;
        }
        if ripple {
            cfg.supply_ripple_v = 50e-3;
            cfg.supply_ripple_hz = 5.02e6;
            cfg.psrr_db = 40.0;
        }
        cfg.comparator.noise_rms_v = cmp_noise_v;
        cfg.comparator.metastable_window_v = 2.0 * cmp_noise_v;
        cfg
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The systolic record equals a per-sample `convert_one` loop at
        /// the same seed, bit for bit — including a continuation record
        /// (settling memory, comparator and sample streams carry over).
        #[test]
        fn systolic_record_equals_per_sample_loop(
            seed in 0u64..1_000_000,
            flags in 0u8..4,
            stage_count in 1usize..=14,
            cmp_noise_mv in 0.0f64..5.0,
            fault in 0usize..4,
            len_pick in 0usize..7,
        ) {
            let (jitter, ripple) = (flags & 1 == 1, flags & 2 == 2);
            let cfg = stressed(jitter, ripple, stage_count, cmp_noise_mv * 1e-3);
            let mut systolic = PipelineAdc::build(cfg, seed).unwrap();
            // Fault injection through `stage_mut` (plans rebuild lazily).
            let victim = seed as usize % stage_count;
            match fault {
                1 => systolic.stage_mut(victim).adsc.set_high_offset_v(0.15),
                2 => systolic.stage_mut(victim).leak_cubic_a_per_v3 = 1e-4,
                3 => systolic.stage_mut(victim).mdac.dsb_tau_s = 0.4e-9,
                _ => {}
            }
            let mut reference = systolic.clone();
            // 0 and 1 samples; records ending one short of, on, and one
            // past a chunk boundary (warm-up included); CHUNK ± 1.
            let w = WARMUP_SAMPLES;
            let n = [0, 1, CHUNK - 1 - w, CHUNK - w, CHUNK + 1 - w, CHUNK - 1, CHUNK + 1][len_pick];
            for round in 0..2 {
                let got = systolic.convert_waveform(&tone, n);
                let want = per_sample_record(&mut reference, &tone, n);
                prop_assert!(got == want, "record {} diverged", round);
                // Every carried state matches too, not just the codes:
                // settling memories, comparator hysteresis and streams,
                // tracking memory, the sample stream, the sample counter.
                prop_assert!(systolic.stages() == reference.stages(), "stage state, record {}", round);
                prop_assert!(systolic.flash == reference.flash, "flash state, record {}", round);
                prop_assert!(systolic.front_end == reference.front_end, "front end, record {}", round);
                prop_assert_eq!(systolic.sample_noise, reference.sample_noise);
                prop_assert_eq!(systolic.sample_count, reference.sample_count);
            }
        }
    }

    #[test]
    fn long_records_span_chunks_exactly() {
        // Several full chunks plus a ragged tail, on the paper's nominal
        // die with and without jitter.
        for jitter in [true, false] {
            let cfg = stressed(jitter, false, 10, 0.5e-3);
            let mut systolic = PipelineAdc::build(cfg, 99).unwrap();
            let mut reference = systolic.clone();
            let n = 3 * CHUNK + 77;
            assert_eq!(
                systolic.convert_waveform(&tone, n),
                per_sample_record(&mut reference, &tone, n),
                "jitter {jitter}"
            );
        }
    }

    #[test]
    fn the_ideal_converter_stays_exact() {
        // Zero sigmas consume their draws but contribute exact zeros: an
        // ideal die converts code-centre DC levels exactly, record after
        // record, like a bare quantizer.
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 3).unwrap();
        for i in (-2000..2000).step_by(37) {
            let v = (f64::from(i) + 0.5) / 2048.0;
            let codes = adc.convert_waveform(&move |_t: f64| v, CHUNK + 3);
            let expected = (i + 2048) as u16;
            assert!(codes.iter().all(|&c| c == expected), "v = {v}: {codes:?}");
        }
    }
}
