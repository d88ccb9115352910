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
//!    [`SampleNoise`](adc_analog::stripe::SampleNoise) stream, one block of
//!    `draw_slots` (`2 + stages`, rounded up to even) per sample in the
//!    order the per-sample path consumes them: jitter, front end, one
//!    merged draw per stage, then the pad slot of an odd stage count;
//! 2. forms the chunk's sampling instants (grid point plus aperture
//!    jitter), evaluates the waveform at all of them in one
//!    [`Waveform::fill_at`] call, then runs the front end serially over
//!    the chunk (input-switch tracking, front noise, ripple);
//! 3. advances the stages as a wavefront: tick *t* evaluates stage *s*
//!    on sample *t − s* for every active stage at once, in one pass
//!    over a fixed lane width `W` (the stage count rounded up to a
//!    multiple of 4), **stages as lanes**: droop, both ADSC comparators
//!    ([`AdscLanes`]), the DSB reference/sigma select, the amplify
//!    ([`MdacLanes`]) and a masked write-back that leaves fill, drain
//!    and padding lanes untouched; the last stage's output feeds the
//!    flash.
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

use crate::converter::{draw_slots, PipelineAdc, Waveform, WARMUP_SAMPLES};
use crate::correction;
use crate::mdac::MdacLanes;
use crate::subconverter::{AdscLanes, FlashBackend, StageDecision};

/// Samples per chunk: the unit of pre-drawn deviates and of batched
/// waveform evaluation ([`Waveform::fill_at`]).
pub(crate) const CHUNK: usize = 256;

/// Every `TRACE_EVERY`-th wavefront tick of a record emits a
/// `pipeline-tick` span (value: active stages) and, when the tick
/// completes a sample, a `flash` span. The tick counter runs across
/// chunks (a chunk of `len` samples takes `len + stages − 1` ticks), so
/// the sampled ticks drift through fill, steady and drain ticks in
/// proportion to how often each occurs. Subsampling by tick index, not
/// by time, keeps the trace deterministic and small.
pub(crate) const TRACE_EVERY: usize = 512;

/// Widest lane set: `build` accepts at most 14 stages.
const MAX_LANES: usize = 16;

/// The instantiation of the tick that runs a record, chosen once per
/// record.
#[derive(Debug, Clone, Copy)]
enum Isa {
    /// The portable body (SSE2 on x86-64).
    Portable,
    /// The same body re-instantiated under AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Portable
    }
}

/// Reusable chunk buffers of the record kernel.
#[derive(Debug, Clone, Default)]
pub(crate) struct Systolic {
    /// The chunk's deviates, `W` samples of zero padding on either side
    /// so every lane of every tick reads in bounds:
    /// `z[(W + j)·slots + slot]`, `slots` being [`draw_slots`].
    z: Vec<f64>,
    /// Sampling instants of the chunk, and the waveform's values and
    /// slopes there.
    times: Vec<f64>,
    values: Vec<f64>,
    slopes: Vec<f64>,
    /// Held stage-1 input of each chunk sample, after the front end
    /// (`W` samples past the chunk for drain ticks).
    front: Vec<f64>,
    /// Stage-1 ADSC aperture-skew error of each chunk sample (padded
    /// like `front`).
    adsc_err: Vec<f64>,
    /// Stage decisions, tick-major: `[t·W + s]` is stage `s` on sample
    /// `t − s`.
    decisions: Vec<StageDecision>,
    /// Flash code of each chunk sample.
    flash: Vec<u8>,
}

impl Systolic {
    /// Converts `n_samples` (plus the warm-up) of `waveform` on `die`,
    /// appending the post-warm-up codes to `out` (see the module docs).
    pub(crate) fn convert<Wf: Waveform + ?Sized>(
        &mut self,
        die: &mut PipelineAdc,
        waveform: &Wf,
        n_samples: usize,
        out: &mut Vec<u16>,
    ) {
        self.convert_on(Isa::detect(), die, waveform, n_samples, out);
    }

    /// [`Self::convert`] on a given instantiation of the tick.
    fn convert_on<Wf: Waveform + ?Sized>(
        &mut self,
        isa: Isa,
        die: &mut PipelineAdc,
        waveform: &Wf,
        n_samples: usize,
        out: &mut Vec<u16>,
    ) {
        die.ensure_plans();
        let mut lanes = gather(die);
        let width = lanes.width();
        let stages = die.stages.len();
        let slots = draw_slots(stages);
        self.times.resize(CHUNK, 0.0);
        self.values.resize(CHUNK, 0.0);
        self.slopes.resize(CHUNK, 0.0);
        self.flash.resize(CHUNK, 0);
        self.front.resize(CHUNK + width, 0.0);
        self.adsc_err.resize(CHUNK + width, 0.0);
        self.z.resize((CHUNK + 2 * width) * slots, 0.0);
        self.decisions
            .resize((CHUNK + width) * width, StageDecision { dac_level: 0 });

        let total = n_samples + WARMUP_SAMPLES;
        let mut first = 0;
        let mut tick = 0;
        while first < total {
            let len = CHUNK.min(total - first);
            self.front_end(die, waveform, first, len, width * slots);
            tick = lanes.ticks(isa, self, &mut die.flash, stages, len, tick);
            for j in 0..len {
                if first + j >= WARMUP_SAMPLES {
                    // Sample j's decisions lie on a diagonal of the
                    // tick-major buffer: stage s at tick j + s.
                    let diagonal = self.decisions[j * width..].iter().step_by(width + 1);
                    let code = correction::assemble_code_from(
                        diagonal.take(stages).copied(),
                        self.flash[j],
                    );
                    out.push(code as u16);
                }
            }
            die.last_flash_code = self.flash[len - 1];
            first += len;
        }
        lanes.scatter(die);
    }

    /// Steps (1) and (2): the chunk's deviates, then the front end over
    /// record samples `first..first + len`. The deviates land `pad`
    /// slots into `z`.
    fn front_end<Wf: Waveform + ?Sized>(
        &mut self,
        die: &mut PipelineAdc,
        waveform: &Wf,
        first: usize,
        len: usize,
        pad: usize,
    ) {
        let slots = draw_slots(die.stages.len());
        let period = die.timing.period_s;
        let z = &mut self.z[pad..][..len * slots];
        die.sample_noise.fill(z);

        // Grid point plus aperture jitter; with jitter off the offset
        // is an exact `0.0` and the instants are the exact grid.
        let jitter_sigma = die.config.jitter.sigma_s;
        let times = &mut self.times[..len];
        for (j, t) in times.iter_mut().enumerate() {
            *t = (first + j) as f64 * period + (0.0 + jitter_sigma * z[j * slots]);
        }
        let values = &mut self.values[..len];
        let slopes = &mut self.slopes[..len];
        waveform.fill_at(times, values, slopes);
        for (j, (&v, &dvdt)) in values.iter().zip(slopes.iter()).enumerate() {
            let tracked = die.front_end.track(v, dvdt, period);
            let mut x = tracked + (0.0 + die.front_noise_rms_v * z[j * slots + 1]);
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
}

/// The stage lanes of one record at their lane width, behind a vtable.
///
/// A record is generic over its waveform. Called through this trait,
/// the tick stays out of that monomorphization: it compiles once per
/// width, in this crate, instead of once per waveform type and calling
/// crate — which grew a serving binary's code by ~0.6 MB and its peak
/// RSS with it.
trait StageTicks {
    /// The lane width `W`.
    fn width(&self) -> usize;
    /// Runs one chunk's ticks (step 3) on the record's instantiation.
    fn ticks(
        &mut self,
        isa: Isa,
        bufs: &mut Systolic,
        flash: &mut FlashBackend,
        stages: usize,
        len: usize,
        tick: usize,
    ) -> usize;
    /// Writes the carried state back to the die.
    fn scatter(&self, die: &mut PipelineAdc);
}

/// Gathers `die`'s stages at the narrowest width that holds them:
/// the stage count rounded up to a multiple of 4.
fn gather(die: &PipelineAdc) -> Box<dyn StageTicks> {
    match die.stages.len().div_ceil(4) {
        1 => Box::new(StageLanes::<4>::gather(die)),
        2 => Box::new(StageLanes::<8>::gather(die)),
        3 => Box::new(StageLanes::<12>::gather(die)),
        _ => Box::new(StageLanes::<MAX_LANES>::gather(die)),
    }
}

/// A die's stages gathered into `W` lanes for one record, stage 1 in
/// lane 0: every per-stage constant and carried state word the tick
/// reads. Lanes past the last stage repeat it and are never active.
struct StageLanes<const W: usize> {
    /// Hold-phase droop factor (`StagePlan::droop_k`).
    droop_k: [f64; W],
    /// DSB reference and merged noise sigma for d = 0 and |d| = 1.
    vref_d0: [f64; W],
    vref_d1: [f64; W],
    sigma_d0: [f64; W],
    sigma_d1: [f64; W],
    /// Both ADSC comparators of every stage.
    adsc: AdscLanes<W>,
    /// The amplify constants.
    mdac: MdacLanes<W>,
    /// MDAC settling memories.
    prev: [f64; W],
}

impl<const W: usize> StageLanes<W> {
    fn gather(die: &PipelineAdc) -> Self {
        let stages = die.stages.len();
        let plan = |l: usize| &die.plans[l.min(stages - 1)];
        let stage = |l: usize| &die.stages[l.min(stages - 1)];
        Self {
            droop_k: std::array::from_fn(|l| plan(l).droop_k),
            vref_d0: std::array::from_fn(|l| plan(l).vref_d0),
            vref_d1: std::array::from_fn(|l| plan(l).vref_d1),
            sigma_d0: std::array::from_fn(|l| plan(l).sigma_d0),
            sigma_d1: std::array::from_fn(|l| plan(l).sigma_d1),
            adsc: AdscLanes::gather(die.stages.iter().map(|s| &s.adsc)),
            mdac: MdacLanes::gather(die.plans.iter().map(|p| &p.mdac)),
            prev: std::array::from_fn(|l| stage(l).mdac.prev_output_v()),
        }
    }

    /// AVX2 re-instantiation of [`Self::wavefront`]. Every operation of
    /// the tick is IEEE-exact and Rust never contracts to FMA, so it is
    /// bit-identical to the portable (SSE2) instantiation.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn wavefront_avx2(
        &mut self,
        bufs: &mut Systolic,
        flash: &mut FlashBackend,
        stages: usize,
        len: usize,
        tick: usize,
    ) -> usize {
        self.wavefront(bufs, flash, stages, len, tick)
    }

    /// Step (3): tick `t` runs stage `s` on sample `t − s`, every lane
    /// in one pass. `tick` is the record's running tick count before
    /// this chunk; returns it after. `inline(always)` so the
    /// feature-gated wrapper re-instantiates it.
    #[inline(always)]
    fn wavefront(
        &mut self,
        bufs: &mut Systolic,
        flash: &mut FlashBackend,
        stages: usize,
        len: usize,
        tick: usize,
    ) -> usize {
        let slots = draw_slots(stages);
        // Lane l's merged draw at tick t sits at `t·slots + noise_at[l]`
        // (sample t − l, slot 2 + l, behind `W` samples of padding).
        let noise_at: [usize; W] = std::array::from_fn(|l| W * slots + 2 + l - l * slots);
        let tracing = adc_trace::enabled();
        let ticks = len + stages - 1;
        let mut x = [0.0f64; W];
        for t in 0..ticks {
            let lo = t.saturating_sub(len - 1);
            let hi = t.min(stages - 1);
            let traced = tracing && (tick + t).is_multiple_of(TRACE_EVERY);
            {
                let _tick =
                    traced.then(|| adc_trace::span_with("pipeline-tick", (hi + 1 - lo) as u64));
                let active: [bool; W] = std::array::from_fn(|l| lo <= l && l <= hi);
                x[0] = bufs.front[t];
                // Hold-phase leakage droop, then the ADSC decision
                // (stage 1 samples through the skewed ADSC path).
                x = std::array::from_fn(|l| x[l] - self.droop_k[l] * x[l] * x[l] * x[l]);
                let err = bufs.adsc_err[t];
                let v_in: [f64; W] = std::array::from_fn(|l| x[l] + if l == 0 { err } else { 0.0 });
                let level = self.adsc.decide(&active, &v_in);
                // The DSB selects the reference and the merged sigma.
                let dac: [f64; W] = std::array::from_fn(|l| f64::from(level[l]));
                let vref: [f64; W] = std::array::from_fn(|l| {
                    if level[l] == 0 {
                        self.vref_d0[l]
                    } else {
                        self.vref_d1[l]
                    }
                });
                let sigma: [f64; W] = std::array::from_fn(|l| {
                    if level[l] == 0 {
                        self.sigma_d0[l]
                    } else {
                        self.sigma_d1[l]
                    }
                });
                let z = &bufs.z[t * slots..];
                let noise_v: [f64; W] = std::array::from_fn(|l| 0.0 + sigma[l] * z[noise_at[l]]);
                self.mdac
                    .amplify(&active, &mut x, &dac, &vref, &noise_v, &mut self.prev);
                let decisions = &mut bufs.decisions[t * W..][..W];
                for (d, &dac_level) in decisions.iter_mut().zip(&level) {
                    d.dac_level = dac_level;
                }
            }
            if hi == stages - 1 {
                let _flash = traced.then(|| adc_trace::span("flash"));
                bufs.flash[t + 1 - stages] = flash.decide(x[hi]);
            }
            // Each residue moves on to the next stage's input.
            x = std::array::from_fn(|l| if l == 0 { 0.0 } else { x[l - 1] });
        }
        tick + ticks
    }
}

impl<const W: usize> StageTicks for StageLanes<W> {
    fn width(&self) -> usize {
        W
    }

    fn ticks(
        &mut self,
        isa: Isa,
        bufs: &mut Systolic,
        flash: &mut FlashBackend,
        stages: usize,
        len: usize,
        tick: usize,
    ) -> usize {
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::Avx2` is only constructed by `Isa::detect`
            // after runtime detection of AVX2.
            Isa::Avx2 => unsafe { self.wavefront_avx2(bufs, flash, stages, len, tick) },
            Isa::Portable => self.wavefront(bufs, flash, stages, len, tick),
        }
    }

    fn scatter(&self, die: &mut PipelineAdc) {
        self.adsc
            .scatter(die.stages.iter_mut().map(|s| &mut s.adsc));
        for (stage, &v) in die.stages.iter_mut().zip(&self.prev) {
            stage.mdac.set_prev_output_v(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdcConfig;
    use proptest::prelude::*;

    /// The reference schedule: every sample through every stage before
    /// the next, via the per-sample path. The sampling instant needs the
    /// jitter slot of the block `convert_one` is about to draw, so it
    /// peeks that block on a copy of the stream.
    fn per_sample_record(adc: &mut PipelineAdc, wave: &dyn Waveform, n: usize) -> Vec<u16> {
        let period = adc.timing().period_s;
        let sigma = adc.config().jitter.sigma_s;
        let mut block = vec![0.0; draw_slots(adc.stages().len())];
        (0..n + WARMUP_SAMPLES)
            .map(|k| {
                let mut peek = adc.sample_noise;
                peek.fill(&mut block);
                let t = k as f64 * period + (0.0 + sigma * block[0]);
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
    fn portable_tick_matches_the_dispatched_tick() {
        // On an AVX2 host no record runs the portable (SSE2)
        // instantiation of the tick; drive its body directly on the same
        // die and record, under stress noise, at every stage count.
        for stage_count in 1..=14 {
            let (jitter, ripple) = (stage_count % 2 == 1, stage_count % 3 == 0);
            let cfg = stressed(jitter, ripple, stage_count, 3e-3);
            let mut dispatched = PipelineAdc::build(cfg, 40 + stage_count as u64).unwrap();
            let mut portable = dispatched.clone();
            let mut systolic = Systolic::default();
            let n = CHUNK + 37;
            for round in 0..2 {
                let want = dispatched.convert_waveform(&tone, n);
                let mut got = Vec::new();
                systolic.convert_on(Isa::Portable, &mut portable, &tone, n, &mut got);
                assert!(got == want, "{stage_count} stages, record {round}");
                assert!(portable.stages() == dispatched.stages(), "stage state");
                assert!(portable.flash == dispatched.flash, "flash state");
                assert_eq!(portable.sample_noise, dispatched.sample_noise);
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
