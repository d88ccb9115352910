//! The complete pipeline ADC: fabrication, conversion, and introspection.
//!
//! [`PipelineAdc::build`] "fabricates" one die from an [`AdcConfig`] and a
//! seed: it draws every Monte-Carlo quantity (capacitor spread and
//! mismatch, comparator offsets, mirror errors, reference errors), derives
//! each stage's electrical operating point from the bias network — the
//! paper's SC generator makes those operating points track conversion rate
//! and capacitor corner — and assembles the 10-stage + 2-bit-flash chain
//! of the paper's Fig. 1.
//!
//! Conversion is sample-accurate: the input waveform is evaluated at
//! jittered sampling instants, tracked through the nonlinear input switch,
//! resolved stage by stage with settling memory, and aligned/corrected
//! into 12-bit codes. Records run through the systolic kernel of
//! [`crate::systolic`], which advances the stages as a wavefront the way
//! the silicon pipelines them; single held conversions run
//! `PipelineAdc::convert_one` stage by stage, with identical results.

use adc_analog::bandgap::{Bandgap, ReferenceBuffer};
use adc_analog::capacitor::{Capacitor, CapacitorSpec};
use adc_analog::noise::NoiseSource;
use adc_analog::opamp::{OpAmp, OpAmpSpec};
use adc_analog::stripe::{splitmix64, SampleNoise};
use adc_analog::switch::{SamplingNetwork, SwitchModel};
use adc_bias::generator::{BiasScheme, FixedBiasGenerator, ScBiasGenerator};
use adc_bias::mirror::{BiasNetwork, MirrorBankSpec};
use adc_bias::power::{PowerModel, PowerReading};

use crate::clocking::TimingBudget;
use crate::config::{AdcConfig, BiasKind, FrontEndKind, ReferenceQuality};
use crate::correction;
use crate::electrical;
use crate::error::BuildAdcError;
use crate::mdac::Mdac;
use crate::stage::PipelineStage;
use crate::subconverter::{Adsc, FlashBackend, StageDecision};
use crate::systolic::Systolic;

/// Input capacitance presented by the flash backend to the last stage.
const FLASH_INPUT_CAP_F: f64 = 0.2e-12;

/// Conversions run before a record starts, so settling and tracking
/// memory reach steady state.
pub(crate) const WARMUP_SAMPLES: usize = 16;

/// Most stages [`PipelineAdc::build`] accepts.
const MAX_STAGES: usize = 14;

/// Widest per-conversion deviate block: [`draw_slots`] at
/// [`MAX_STAGES`].
const MAX_SLOTS: usize = 2 + MAX_STAGES;

/// Deviates one conversion consumes from the die's sample stream:
/// jitter, front end, one merged draw per stage, rounded up to even so
/// every conversion's block is whole Box–Muller pairs (the pad slot of
/// an odd stage count is drawn and never read).
pub(crate) fn draw_slots(stages: usize) -> usize {
    (2 + stages).next_multiple_of(2)
}

/// A continuous-time input signal the converter can sample.
///
/// Implemented by the source models in `adc-testbench`; any `Fn(f64) ->
/// f64` closure also works:
///
/// ```
/// use adc_pipeline::converter::Waveform;
/// let ramp = |t: f64| 1e6 * t;
/// assert_eq!(ramp.value(2e-6), 2.0);
/// assert!((Waveform::slope(&ramp, 0.0) - 1e6).abs() / 1e6 < 1e-3);
/// ```
pub trait Waveform {
    /// Signal value at absolute time `t_s` (seconds), volts.
    fn value(&self, t_s: f64) -> f64;

    /// Signal slope at `t_s`, volts/second. The default is a central
    /// difference; implementers with analytic derivatives should override.
    fn slope(&self, t_s: f64) -> f64 {
        let dt = 1e-12;
        (self.value(t_s + dt) - self.value(t_s - dt)) / (2.0 * dt)
    }

    /// Value and slope at one instant. Sources whose value and slope
    /// share work (e.g. a sine's phase argument) should override this to
    /// compute it once; the results must be bit-identical to separate
    /// [`Waveform::value`]/[`Waveform::slope`] calls.
    fn sample_at(&self, t_s: f64) -> (f64, f64) {
        (self.value(t_s), self.slope(t_s))
    }

    /// Evaluates the waveform at the instants `times`, writing
    /// `values[k]` and `slopes[k]` for `times[k]`. The record kernel
    /// samples each chunk this way: the instants are the chunk's grid
    /// points plus their aperture-jitter offsets (exactly the grid when
    /// jitter is off).
    ///
    /// The default is a loop of [`Waveform::sample_at`], so a source
    /// that does not override it samples records bit for bit as its
    /// `sample_at` does. Sources with a batch-friendly form (a sine's
    /// phase in turns, through polynomial kernels) may override with a
    /// faster scheme; deviations from `sample_at` at the same instants
    /// must stay negligible against the simulation's noise floors
    /// (≲1e-11 absolute on the value), and the override must return the
    /// same bits in every build (debug or release, any instruction-set
    /// clone), since served, traced and in-process records are compared
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `times`, `values` and `slopes` differ in length.
    fn fill_at(&self, times: &[f64], values: &mut [f64], slopes: &mut [f64]) {
        assert!(times.len() == values.len() && times.len() == slopes.len());
        for ((&t, v), s) in times.iter().zip(values.iter_mut()).zip(slopes.iter_mut()) {
            (*v, *s) = self.sample_at(t);
        }
    }
}

impl<F: Fn(f64) -> f64> Waveform for F {
    fn value(&self, t_s: f64) -> f64 {
        self(t_s)
    }
}

/// Per-stage constants hoisted out of the conversion inner loop.
///
/// Everything here is a pure function of the fabricated stage, the
/// timing budget, and the reference buffer — none of it changes between
/// samples, so the conversion paths read it instead of
/// re-deriving settling exponentials and noise sigmas 110 M times a
/// second. Rebuilt lazily whenever [`PipelineAdc::stage_mut`] hands out
/// mutable stage access (fault injection may change any constant).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagePlan {
    /// Hold-phase droop factor: `leak_cubic · t_hold / C_sample`, so the
    /// droop is `droop_k · v³`.
    pub(crate) droop_k: f64,
    /// Effective reference when the DAC level is 0 (no droop, the
    /// reference noise cannot reach the output).
    pub(crate) vref_d0: f64,
    /// Effective reference when |DAC level| is 1 (code-dependent droop).
    pub(crate) vref_d1: f64,
    /// The MDAC's own per-sample constants.
    pub(crate) mdac: crate::mdac::MdacPlan,
    /// Merged output-referred noise sigma when the DAC level is 0:
    /// opamp sampled noise ⊕ next stage's kT/C.
    pub(crate) sigma_d0: f64,
    /// Merged output-referred noise sigma when |DAC level| is 1: the
    /// `d0` terms ⊕ the reference noise scaled by the DAC gain.
    pub(crate) sigma_d1: f64,
}

/// One fabricated, operating pipeline ADC.
#[derive(Debug, Clone)]
pub struct PipelineAdc {
    pub(crate) config: AdcConfig,
    pub(crate) timing: TimingBudget,
    pub(crate) front_end: SamplingNetwork,
    pub(crate) stages: Vec<PipelineStage>,
    pub(crate) flash: FlashBackend,
    reference: ReferenceBuffer,
    power: PowerModel,
    /// The hot-path noise stream: jitter, front-end, and merged
    /// per-stage draws during conversion (see [`adc_analog::stripe`]).
    /// Comparators draw from their own streams.
    pub(crate) sample_noise: SampleNoise,
    /// Combined auxiliary + flicker input-referred noise at this rate
    /// (includes a dedicated SHA's noise when configured).
    aux_noise_rms_v: f64,
    /// ADSC-path aperture skew of the SHA-less front end, seconds.
    pub(crate) adsc_skew_s: f64,
    /// Input-referred supply-ripple amplitude (ripple/PSRR), volts.
    pub(crate) ripple_referred_v: f64,
    /// Conversion counter (phases the supply ripple).
    pub(crate) sample_count: u64,
    scratch_decisions: Vec<StageDecision>,
    pub(crate) last_flash_code: u8,
    /// Hoisted per-stage conversion constants (see [`StagePlan`]).
    pub(crate) plans: Vec<StagePlan>,
    /// Merged front-end noise sigma: front kT/C ⊕ auxiliary/flicker.
    pub(crate) front_noise_rms_v: f64,
    /// Set when [`PipelineAdc::stage_mut`] may have invalidated `plans`.
    plans_dirty: bool,
    /// Reusable chunk buffers of the systolic record kernel.
    systolic: Systolic,
}

/// The raw digital output of one conversion, before error correction —
/// what an on-chip calibration engine observes.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RawConversion {
    /// Per-stage DAC levels d ∈ {−1, 0, +1}, stage 1 first.
    pub dac_levels: Vec<i8>,
    /// The 2-bit flash code.
    pub flash_code: u8,
    /// The error-corrected output code (for comparison).
    pub code: u16,
}

impl PipelineAdc {
    /// Fabricates one die.
    ///
    /// The same `(config, seed)` pair always produces the same die and the
    /// same conversion results.
    ///
    /// # Errors
    ///
    /// Returns [`BuildAdcError`] when the configuration is unbuildable:
    /// no stages, non-positive rate or reference, or a clocking scheme
    /// that leaves no settling time at the requested rate.
    pub fn build(config: AdcConfig, seed: u64) -> Result<Self, BuildAdcError> {
        if config.stage_count == 0 || config.stage_count > MAX_STAGES {
            return Err(BuildAdcError::NoStages);
        }
        if config.f_cr_hz.is_nan() || config.f_cr_hz <= 0.0 {
            return Err(BuildAdcError::InvalidRate(config.f_cr_hz));
        }
        if config.v_ref_v.is_nan() || config.v_ref_v <= 0.0 {
            return Err(BuildAdcError::InvalidReference(config.v_ref_v));
        }
        let timing = TimingBudget::at(config.f_cr_hz, config.clocking, config.logic_delay_s);
        if timing.settle_time_s <= 0.0 {
            return Err(BuildAdcError::NoSettlingTime {
                f_cr_hz: config.f_cr_hz,
                settle_time_s: timing.settle_time_s,
            });
        }

        let mut root = NoiseSource::from_seed(seed);
        let mut fab = root.fork();
        let mut runtime = root.fork();
        // The per-sample hot-path stream; derived *after* the fab and
        // runtime forks so existing dies fabricate bit-identically.
        let sample_noise = SampleNoise::from_seed(root.fork_seed());
        // Opamp offsets draw from their own derived stream so extending
        // the model does not re-roll every other Monte-Carlo quantity of
        // an existing die.
        let mut offset_fab =
            NoiseSource::from_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11));
        let corner = config.conditions.corner;

        // One die-wide absolute capacitance factor, shared by the stage
        // capacitors *and* the bias capacitor C_B — this shared fate is
        // what the SC bias generator exploits.
        let die_cap_factor = config.c_sample_stage1.draw_die_factor(&mut fab) * corner.cap_factor();

        // Fabricate per-stage sampling capacitors (C1, C2 halves).
        let factors = config.scaling.factors(config.stage_count);
        let mut halves = Vec::with_capacity(config.stage_count);
        for &factor in &factors {
            let half_spec = CapacitorSpec::new(
                config.c_sample_stage1.nominal_f * factor / 2.0,
                0.0, // absolute spread applied via die_cap_factor
                config.c_sample_stage1.matching_sigma_rel,
            );
            let c1 = half_spec.fabricate(die_cap_factor, &mut fab);
            let c2 = half_spec.fabricate(die_cap_factor, &mut fab);
            halves.push((c1, c2));
        }

        // Band-gap and bias network.
        let bandgap = match config.reference {
            ReferenceQuality::Ideal => Bandgap::ideal(config.v_bias_v),
            ReferenceQuality::Decoupled => Bandgap::fabricate(config.v_bias_v, &mut fab),
        };
        let v_bias_actual = bandgap.output_v(config.conditions.temp_c, config.conditions.vdd_v);
        let c_b = config.bias_c_b.fabricate(die_cap_factor, &mut fab);
        let scheme = match config.bias_kind {
            BiasKind::Switched => {
                let gen = ScBiasGenerator::new(c_b, v_bias_actual);
                let gen = match config.reference {
                    ReferenceQuality::Ideal => gen,
                    ReferenceQuality::Decoupled => gen.with_realistic_loop(&mut fab),
                };
                BiasScheme::Switched(gen)
            }
            BiasKind::Fixed {
                design_rate_hz,
                margin,
            } => BiasScheme::Fixed(FixedBiasGenerator::sized_for(
                config.bias_c_b.nominal_f,
                config.v_bias_v,
                design_rate_hz,
                margin,
            )),
        };
        let mirror_spec = MirrorBankSpec::new(
            factors
                .iter()
                .map(|&f| config.mirror_base_ratio * f)
                .collect(),
            config.mirror_mismatch_sigma,
        );
        let bias = BiasNetwork::new(scheme, mirror_spec.fabricate(&mut fab));
        let stage_currents = bias.stage_currents_a(config.f_cr_hz);

        // Per-stage electrical operating points and sub-blocks. Corner
        // and temperature shift gm at fixed current (mobility ∝ T^-1.5);
        // both fold into an effective V_ov.
        let t_kelvin = config.conditions.temp_c + 273.15;
        let mobility_factor = (300.15 / t_kelvin).powf(1.5);
        let opamp_spec = OpAmpSpec {
            v_ov_v: config.opamp.v_ov_v / (corner.gm_factor() * mobility_factor),
            ..config.opamp
        };
        let mut stages = Vec::with_capacity(config.stage_count);
        for i in 0..config.stage_count {
            let (c1, c2) = halves[i];
            let c_total = c1.value_f + c2.value_f;
            let c_next = if i + 1 < config.stage_count {
                let (n1, n2) = halves[i + 1];
                n1.value_f + n2.value_f
            } else {
                FLASH_INPUT_CAP_F
            };
            let c_load = electrical::stage_load_f(c_total, c_next, config.parasitic_load_f);
            let beta =
                electrical::stage_beta(c1.value_f, c2.value_f, config.beta_parasitic_fraction);
            let opamp = OpAmp::new(opamp_spec, stage_currents[i], c_load)
                .with_offset(offset_fab.gaussian(0.0, opamp_spec.offset_sigma_v));
            stages.push(PipelineStage {
                index: i,
                c_sample: Capacitor {
                    value_f: c_total,
                    nominal_f: config.c_sample_stage1.nominal_f * factors[i],
                },
                adsc: Adsc::fabricate(&config.comparator, config.v_ref_v, &mut fab),
                mdac: Mdac::new(c1.value_f, c2.value_f, beta, opamp)
                    .with_dsb_tau(config.dsb_switch_tau_s),
                samples_own_input: i > 0 && config.thermal_noise,
                leak_cubic_a_per_v3: config.leak_cubic_a_per_v3,
            });
        }
        let mut flash = FlashBackend::fabricate(&config.comparator, config.v_ref_v, &mut fab);
        // Per-comparator decision-noise streams, seeded in comparator
        // order (stage 1 upper/lower, ..., then the flash) from the
        // runtime fork; fabrication never sees these draws.
        let mut comparator_seeds = runtime.next_u64();
        for comparator in stages
            .iter_mut()
            .flat_map(|s| s.adsc.comparators_mut())
            .chain(flash.comparators_mut())
        {
            comparator.seed_stream(splitmix64(&mut comparator_seeds));
        }

        // Front-end sampling network with the configured switch topology.
        let mut switch = SwitchModel::nominal(config.input_switch);
        switch.r_on_ohm *= corner.r_on_factor() / mobility_factor;
        let (c1, c2) = halves[0];
        let mut front_end = SamplingNetwork::new(
            switch,
            c1.value_f + c2.value_f,
            timing.track_fraction().max(1e-3),
        );
        if !config.thermal_noise {
            front_end = front_end.without_ktc_noise();
        }

        let reference = match config.reference {
            ReferenceQuality::Ideal => ReferenceBuffer::ideal(config.v_ref_v),
            ReferenceQuality::Decoupled => ReferenceBuffer::decoupled(config.v_ref_v, &mut fab),
        };

        // The front-end architecture sets extra noise/power and the
        // ADSC-path aperture skew.
        let (adsc_skew_s, sha_noise_v, sha_power_w) = match config.front_end {
            FrontEndKind::ShaLess {
                adsc_aperture_skew_s,
            } => (adsc_aperture_skew_s, 0.0, 0.0),
            FrontEndKind::DedicatedSha {
                extra_noise_rms_v,
                extra_power_w,
            } => (0.0, extra_noise_rms_v, extra_power_w),
        };

        let power = PowerModel::new(
            config.conditions.vdd_v,
            bias,
            config.opamp_current_factor,
            config.fixed_power.with_front_end_sha(sha_power_w),
        );

        let flicker = config.flicker_noise_coeff / config.f_cr_hz.sqrt();
        let aux_noise_rms_v =
            (config.aux_noise_rms_v.powi(2) + flicker.powi(2) + sha_noise_v * sha_noise_v).sqrt();

        let ripple_referred_v = config.supply_ripple_v * 10f64.powf(-config.psrr_db / 20.0);
        Ok(Self {
            config,
            timing,
            front_end,
            stages,
            flash,
            reference,
            power,
            sample_noise,
            aux_noise_rms_v,
            adsc_skew_s,
            ripple_referred_v,
            sample_count: 0,
            scratch_decisions: Vec::new(),
            last_flash_code: 0,
            plans: Vec::new(),
            front_noise_rms_v: 0.0,
            plans_dirty: true,
            systolic: Systolic::default(),
        })
    }

    /// The configuration this die was fabricated from.
    pub fn config(&self) -> &AdcConfig {
        &self.config
    }

    /// The per-phase timing budget at the operating rate.
    pub fn timing(&self) -> TimingBudget {
        self.timing
    }

    /// Power decomposition at the operating rate (the Fig. 4 quantity).
    pub fn power_reading(&self) -> PowerReading {
        self.power.reading(self.config.f_cr_hz)
    }

    /// Total power at the operating rate, watts.
    pub fn power_w(&self) -> f64 {
        self.power_reading().total_w
    }

    /// The underlying power model (for external sweeps).
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Converts the analog value corresponding to a code (code-centre
    /// reconstruction).
    pub fn reconstruct_v(&self, code: u16) -> f64 {
        (f64::from(code) + 0.5) * self.config.lsb_v() - self.config.v_ref_v
    }

    /// Clears all inter-sample state (settling and tracking memory).
    /// Records taken after a reset are statistically independent but
    /// still seed-deterministic.
    pub fn reset(&mut self) {
        self.front_end.reset();
        for s in &mut self.stages {
            s.reset();
        }
        self.sample_count = 0;
    }

    /// Converts one already-sampled value (no jitter, no tracking
    /// distortion from slope). Prefer [`Self::convert_waveform`] for
    /// dynamic measurements.
    pub fn convert_held(&mut self, v: f64) -> u16 {
        self.convert_one(v, 0.0)
    }

    /// Converts one held value and returns the *raw* per-stage decisions
    /// and flash code alongside the corrected output code — the data a
    /// digital calibration engine taps (see [`crate::calibration`]).
    pub fn convert_held_raw(&mut self, v: f64) -> RawConversion {
        let mut raw = RawConversion::default();
        self.convert_held_raw_into(v, &mut raw);
        raw
    }

    /// Allocation-free variant of [`Self::convert_held_raw`]: reuses
    /// `out`'s `dac_levels` buffer across calls, so calibration loops
    /// observing millions of conversions do not allocate per sample.
    pub fn convert_held_raw_into(&mut self, v: f64, out: &mut RawConversion) {
        out.code = self.convert_one(v, 0.0);
        out.dac_levels.clear();
        out.dac_levels
            .extend(self.scratch_decisions.iter().map(|d| d.dac_level));
        out.flash_code = self.last_flash_code;
    }

    /// Samples and converts `n_samples` points of a continuous waveform
    /// at the configured conversion rate, starting at `t = 0`.
    ///
    /// The record excludes `WARMUP_SAMPLES` (16) leading conversions so
    /// settling and tracking memory are in steady state — measurement
    /// records are therefore stationary.
    pub fn convert_waveform<W: Waveform + ?Sized>(
        &mut self,
        waveform: &W,
        n_samples: usize,
    ) -> Vec<u16> {
        let mut out = Vec::new();
        self.convert_waveform_into(waveform, n_samples, &mut out);
        out
    }

    /// Like [`Self::convert_waveform`], appending into a caller-owned
    /// buffer (cleared first) so repeated captures reuse one allocation.
    ///
    /// The record runs through the systolic kernel ([`crate::systolic`]):
    /// per chunk of samples, one flat pre-draw of the chunk's deviates,
    /// one [`Waveform::fill_at`] call at the chunk's jittered instants
    /// (the exact grid `k·period` when jitter is off), a serial
    /// front-end pass, then the stages as a wavefront. Codes are
    /// bit-identical to converting the samples one at a time through
    /// `sample_at`; sources that override `fill_at` with polynomial
    /// kernels may contribute ulp-scale waveform deviations (see the
    /// trait docs).
    pub fn convert_waveform_into<W: Waveform + ?Sized>(
        &mut self,
        waveform: &W,
        n_samples: usize,
        out: &mut Vec<u16>,
    ) {
        let _trace_record = adc_trace::span_with("record", n_samples as u64);
        out.clear();
        out.reserve(n_samples);
        let mut systolic = std::mem::take(&mut self.systolic);
        systolic.convert(self, waveform, n_samples, out);
        self.systolic = systolic;
    }

    /// Mutable access to a stage, for fault-injection experiments.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn stage_mut(&mut self, index: usize) -> &mut PipelineStage {
        // Any stage constant may change behind this borrow; rebuild the
        // hoisted plans lazily on the next conversion.
        self.plans_dirty = true;
        &mut self.stages[index]
    }

    /// The stages, for inspection.
    pub fn stages(&self) -> &[PipelineStage] {
        &self.stages
    }

    /// The combined auxiliary input-referred noise at this operating
    /// point (config aux + flicker + any dedicated-SHA noise), volts RMS.
    pub fn aux_noise_rms_v(&self) -> f64 {
        self.aux_noise_rms_v
    }

    /// Rebuilds the hoisted plans if fault injection may have changed a
    /// stage constant — the record kernel calls this once per record,
    /// mirroring the per-sample check [`PipelineAdc::convert_one`]
    /// performs.
    pub(crate) fn ensure_plans(&mut self) {
        if self.plans_dirty {
            self.rebuild_plans();
        }
    }

    /// Rebuilds the hoisted per-stage conversion constants.
    ///
    /// Independent noise sources that enter the same circuit node sum in
    /// power, so each stage's opamp output noise, the *next* stage's
    /// kT/C sampling noise, and (when the DSB selects a reference) the
    /// DAC-gain-scaled reference noise merge into one Gaussian draw with
    /// sigma `√(σ_amp² + σ_ktc² [+ (G_dac·σ_ref)²])` — a third of the
    /// per-sample draws of the unmerged path, with the same statistics.
    fn rebuild_plans(&mut self) {
        let hold_time = self.timing.period_s / 2.0;
        let settle = self.timing.settle_time_s;
        let r = self.reference;
        let vref_d0 = r.v_ref_v * (1.0 + r.static_error_rel);
        let vref_d1 = r.v_ref_v * (1.0 + r.static_error_rel - r.droop_rel);
        let mut plans = Vec::with_capacity(self.stages.len());
        for (i, stage) in self.stages.iter().enumerate() {
            let mdac = stage.mdac.plan(settle);
            let next_ktc = self
                .stages
                .get(i + 1)
                .filter(|next| next.samples_own_input)
                .map_or(0.0, |next| next.c_sample.ktc_rms_v());
            let base = mdac.noise_rms_v * mdac.noise_rms_v + next_ktc * next_ktc;
            let ref_sigma = mdac.dac_gain * r.noise_rms_v;
            plans.push(StagePlan {
                droop_k: stage.leak_cubic_a_per_v3 * hold_time / stage.c_sample.value_f,
                vref_d0,
                vref_d1,
                mdac,
                sigma_d0: base.sqrt(),
                sigma_d1: (base + ref_sigma * ref_sigma).sqrt(),
            });
        }
        self.plans = plans;
        let front_ktc = self.front_end.ktc_sigma_v();
        self.front_noise_rms_v =
            (front_ktc * front_ktc + self.aux_noise_rms_v * self.aux_noise_rms_v).sqrt();
        self.plans_dirty = false;
    }

    /// Runs the full conversion of one sampled instant, stage by stage.
    ///
    /// This is the planned per-sample path the held conversions use:
    /// settling exponentials, effective references, droop factors, and
    /// merged noise sigmas all come from [`StagePlan`]s. Its draw
    /// schedule is fixed: one block of [`draw_slots`] deviates per
    /// conversion — jitter, front end, one per stage, and a pad slot
    /// when the stage count is odd — drawn through one
    /// [`SampleNoise::fill`], each slot consumed whatever its sigma (a
    /// zero sigma contributes an exact `0.0`, so the ideal converter
    /// stays exact). A held conversion has no sampling instant, so it
    /// consumes and ignores the jitter slot. The record kernel consumes
    /// the same blocks, a chunk at a time, which is what makes its codes
    /// equal a loop of these calls.
    pub(crate) fn convert_one(&mut self, v: f64, dvdt: f64) -> u16 {
        if self.plans_dirty {
            self.rebuild_plans();
        }
        let mut block = [0.0f64; MAX_SLOTS];
        let z = &mut block[..draw_slots(self.stages.len())];
        self.sample_noise.fill(z);
        let period = self.timing.period_s;
        // Front end: deterministic tracking, then front kT/C and the
        // auxiliary/flicker noise merged into one draw.
        let tracked = self.front_end.track(v, dvdt, period);
        let mut x = tracked + (0.0 + self.front_noise_rms_v * z[1]);
        self.front_end.commit_held_v(x);
        // Finite PSRR couples supply ripple into the signal path.
        // adc-lint: allow(float-eq) reason="feature gate: ripple injection is configured exactly 0.0 when disabled"
        if self.ripple_referred_v != 0.0 {
            let t = self.sample_count as f64 * period;
            x += self.ripple_referred_v
                * (2.0 * std::f64::consts::PI * self.config.supply_ripple_hz * t).sin();
        }
        self.sample_count += 1;

        // SHA-less front end: the stage-1 ADSC samples through its own
        // path, skewed from the main sampling instant.
        let stage1_adsc_error = self.adsc_skew_s * dvdt;
        self.scratch_decisions.clear();
        let stage_z = &z[2..];
        for (s, (stage, plan)) in self.stages.iter_mut().zip(&self.plans).enumerate() {
            let adsc_error = if s == 0 { stage1_adsc_error } else { 0.0 };
            // Hold-phase leakage droop (cubic => distortion at low rates).
            x -= plan.droop_k * x * x * x;
            let decision = stage.adsc.decide(x + adsc_error);
            // The DSB selects the reference; droop depends on the DAC
            // level, and with d = 0 the reference noise cannot reach the
            // output (its sigma merges out of `sigma_d0`).
            let (v_ref_eff, sigma) = if decision.dac_level == 0 {
                (plan.vref_d0, plan.sigma_d0)
            } else {
                (plan.vref_d1, plan.sigma_d1)
            };
            let noise_v = 0.0 + sigma * stage_z[s];
            x = stage
                .mdac
                .amplify_planned(&plan.mdac, x, decision.dac_level, v_ref_eff, noise_v);
            self.scratch_decisions.push(decision);
        }
        let flash_code = self.flash.decide(x);
        self.last_flash_code = flash_code;
        correction::assemble_code(&self.scratch_decisions, flash_code) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdcConfig;

    #[test]
    fn ideal_converter_is_a_perfect_quantizer() {
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).unwrap();
        for i in -1000..1000 {
            let v = (i as f64 + 0.5) / 1000.0 * 0.999;
            let code = adc.convert_held(v);
            let expected = ((v * 2048.0).floor() + 2048.0) as u16;
            assert_eq!(code, expected, "v = {v}");
        }
    }

    #[test]
    fn ideal_converter_reconstruction_error_is_below_one_lsb() {
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).unwrap();
        let lsb = adc.config().lsb_v();
        for i in -500..500 {
            let v = i as f64 / 500.0 * 0.99;
            let code = adc.convert_held(v);
            let err = (adc.reconstruct_v(code) - v).abs();
            assert!(err <= 0.5 * lsb + 1e-12, "err {err} at v {v}");
        }
    }

    #[test]
    fn rails_clamp_out_of_range_inputs() {
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).unwrap();
        assert_eq!(adc.convert_held(1.5), 4095);
        assert_eq!(adc.convert_held(-1.5), 0);
    }

    #[test]
    fn same_seed_same_codes() {
        let cfg = AdcConfig::nominal_110ms();
        let mut a = PipelineAdc::build(cfg.clone(), 42).unwrap();
        let mut b = PipelineAdc::build(cfg, 42).unwrap();
        let wave = |t: f64| 0.9 * (2.0 * std::f64::consts::PI * 10e6 * t).sin();
        assert_eq!(
            a.convert_waveform(&wave, 256),
            b.convert_waveform(&wave, 256)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = AdcConfig::nominal_110ms();
        let mut a = PipelineAdc::build(cfg.clone(), 1).unwrap();
        let mut b = PipelineAdc::build(cfg, 2).unwrap();
        let wave = |t: f64| 0.9 * (2.0 * std::f64::consts::PI * 10e6 * t).sin();
        assert_ne!(
            a.convert_waveform(&wave, 256),
            b.convert_waveform(&wave, 256)
        );
    }

    #[test]
    fn build_rejects_bad_configs() {
        let mut cfg = AdcConfig::nominal_110ms();
        cfg.stage_count = 0;
        assert!(matches!(
            PipelineAdc::build(cfg, 1),
            Err(BuildAdcError::NoStages)
        ));

        let mut cfg = AdcConfig::nominal_110ms();
        cfg.f_cr_hz = -5.0;
        assert!(matches!(
            PipelineAdc::build(cfg, 1),
            Err(BuildAdcError::InvalidRate(_))
        ));

        let mut cfg = AdcConfig::nominal_110ms();
        cfg.v_ref_v = 0.0;
        assert!(matches!(
            PipelineAdc::build(cfg, 1),
            Err(BuildAdcError::InvalidReference(_))
        ));

        // 600 MS/s with 1 ns logic delay: half period < delay.
        let mut cfg = AdcConfig::nominal_110ms();
        cfg.f_cr_hz = 600e6;
        assert!(matches!(
            PipelineAdc::build(cfg, 1),
            Err(BuildAdcError::NoSettlingTime { .. })
        ));
    }

    #[test]
    fn power_matches_paper_at_nominal() {
        let adc = PipelineAdc::build(AdcConfig::nominal_110ms(), 7).unwrap();
        let p = adc.power_w();
        // 97 mW ± the Monte-Carlo spread of one die.
        assert!((p - 97e-3).abs() < 8e-3, "power {} mW", p * 1e3);
    }

    #[test]
    fn nominal_converter_tracks_a_slow_ramp_monotonically_within_noise() {
        let mut adc = PipelineAdc::build(AdcConfig::nominal_110ms(), 3).unwrap();
        let mut last = 0u16;
        let mut backsteps = 0;
        for i in 0..4000 {
            let v = -0.98 + 1.96 * i as f64 / 4000.0;
            let code = adc.convert_held(v);
            if code + 4 < last {
                backsteps += 1; // allow noise-level non-monotonicity
            }
            last = code;
        }
        assert_eq!(backsteps, 0);
    }

    #[test]
    fn waveform_record_has_requested_length() {
        let mut adc = PipelineAdc::build(AdcConfig::nominal_110ms(), 5).unwrap();
        let wave = |t: f64| 0.5 * (2.0 * std::f64::consts::PI * 5e6 * t).sin();
        assert_eq!(adc.convert_waveform(&wave, 1024).len(), 1024);
    }

    #[test]
    fn closure_waveform_slope_is_numeric() {
        let w = |t: f64| 3.0 * t;
        assert!((Waveform::slope(&w, 1.0) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn dedicated_sha_adds_its_power() {
        use crate::config::FrontEndKind;
        let base = PipelineAdc::build(AdcConfig::nominal_110ms(), 7).unwrap();
        let cfg = AdcConfig {
            front_end: FrontEndKind::conventional_sha(),
            ..AdcConfig::nominal_110ms()
        };
        let with_sha = PipelineAdc::build(cfg, 7).unwrap();
        assert!((with_sha.power_w() - base.power_w() - 18e-3).abs() < 1e-9);
    }

    #[test]
    fn adsc_aperture_skew_is_absorbed_by_redundancy() {
        use crate::config::FrontEndKind;
        // An otherwise-ideal converter with a huge 50 ps skew still
        // quantizes a fast ramp exactly: the skewed *decision* is wrong
        // by skew·dv/dt, but the residue stays in the correctable range.
        let cfg = AdcConfig {
            front_end: FrontEndKind::ShaLess {
                adsc_aperture_skew_s: 50e-12,
            },
            ..AdcConfig::ideal(110e6)
        };
        let mut adc = PipelineAdc::build(cfg, 1).unwrap();
        // 100 MHz full-scale sine: dv/dt up to 6.3e8 V/s -> ADSC error
        // up to 31 mV, well within V_REF/4.
        let wave = |t: f64| 0.99 * (2.0 * std::f64::consts::PI * 100.13e6 * t).sin();
        let codes = adc.convert_waveform(&wave, 512);
        // Compare against the zero-skew ideal on the same waveform.
        let cfg0 = AdcConfig::ideal(110e6);
        let mut adc0 = PipelineAdc::build(cfg0, 1).unwrap();
        let codes0 = adc0.convert_waveform(&wave, 512);
        let max_diff = codes
            .iter()
            .zip(&codes0)
            .map(|(&a, &b)| (i32::from(a) - i32::from(b)).abs())
            .max()
            .unwrap();
        assert!(max_diff <= 1, "max code diff {max_diff}");
    }

    #[test]
    fn supply_ripple_appears_at_the_predicted_level() {
        // 10 mV ripple at ~5 MHz with 60 dB PSRR: a −66 dBFS spur
        // (10 mV/1000 → 10 µV... referred: 10e-3·10^-3 = 10 µV →
        // 20·log10(10e-6/1) = −100?? choose 40 dB PSRR for a visible
        // spur: 10 mV/100 = 100 µV → spur −80 dBFS → above the noise
        // floor per bin.
        let n = 4096;
        let ripple_bin = 187; // coherent ripple: 187 cycles in 4096
        let cfg = AdcConfig {
            supply_ripple_v: 50e-3,
            supply_ripple_hz: 110e6 * ripple_bin as f64 / n as f64,
            psrr_db: 40.0,
            ..AdcConfig::nominal_110ms()
        };
        let mut adc = PipelineAdc::build(cfg, 7).unwrap();
        let (f_in, _) = adc_spectral::window::coherent_frequency(110e6, n, 10e6);
        let tone = move |t: f64| 0.9 * (2.0 * std::f64::consts::PI * f_in * t).sin();
        // Skip warmup alignment: the ripple is periodic over the record
        // only if coherent — warmup shifts phase but not the bin.
        let codes = adc.convert_waveform(&tone, n);
        let rec: Vec<f64> = codes.iter().map(|&c| adc.reconstruct_v(c)).collect();
        let ps = adc_spectral::fft::power_spectrum_one_sided(&rec).unwrap();
        // Expected spur power: (50 mV / 10^(40/20))² / 2 = (0.5 mV)²/2.
        let expected = (0.5e-3f64).powi(2) / 2.0;
        assert!(
            ps[ripple_bin] > expected / 3.0 && ps[ripple_bin] < expected * 3.0,
            "ripple spur {} vs expected {expected}",
            ps[ripple_bin]
        );
        // A clean-supply die shows no such spur.
        let mut clean = PipelineAdc::build(AdcConfig::nominal_110ms(), 7).unwrap();
        let codes = clean.convert_waveform(&tone, n);
        let rec: Vec<f64> = codes.iter().map(|&c| clean.reconstruct_v(c)).collect();
        let ps_clean = adc_spectral::fft::power_spectrum_one_sided(&rec).unwrap();
        assert!(ps_clean[ripple_bin] < expected / 10.0);
    }

    /// Replicates the pre-plan conversion loop (per-stage
    /// `process_with_adsc_error`, per-event `effective_v`) so the hoisted
    /// planned path can be checked against it.
    fn unplanned_convert_one(
        adc: &mut PipelineAdc,
        noise: &mut NoiseSource,
        v: f64,
        dvdt: f64,
    ) -> u16 {
        let period = adc.timing.period_s;
        let mut x = adc.front_end.sample(v, dvdt, period, noise);
        x += noise.gaussian(0.0, adc.aux_noise_rms_v);
        if adc.ripple_referred_v != 0.0 {
            let t = adc.sample_count as f64 * period;
            x += adc.ripple_referred_v
                * (2.0 * std::f64::consts::PI * adc.config.supply_ripple_hz * t).sin();
        }
        adc.sample_count += 1;
        let hold_time = period / 2.0;
        let stage1_adsc_error = adc.adsc_skew_s * dvdt;
        adc.scratch_decisions.clear();
        for stage in &mut adc.stages {
            let adsc_error = if stage.index == 0 {
                stage1_adsc_error
            } else {
                0.0
            };
            let (decision, residue) = stage.process_with_adsc_error(
                x,
                adsc_error,
                &adc.reference,
                adc.timing.settle_time_s,
                hold_time,
                noise,
            );
            adc.scratch_decisions.push(decision);
            x = residue;
        }
        let flash_code = adc.flash.decide(x);
        correction::assemble_code(&adc.scratch_decisions, flash_code) as u16
    }

    #[test]
    fn planned_path_matches_stage_processing_when_noise_is_silent() {
        // Every runtime noise sigma forced to zero, every *static*
        // non-ideality kept: capacitor mismatch, comparator offsets,
        // opamp offsets and finite gain, settling memory, DSB error,
        // reference static error and droop, leakage droop. With no draws
        // in either path, the planned conversion must be bit-exact
        // against the per-stage reference loop.
        let mut cfg = AdcConfig::nominal_110ms();
        cfg.thermal_noise = false;
        cfg.aux_noise_rms_v = 0.0;
        cfg.flicker_noise_coeff = 0.0;
        cfg.comparator.noise_rms_v = 0.0;
        cfg.comparator.metastable_window_v = 0.0;
        cfg.jitter.sigma_s = 0.0;
        // The opamp's sampled kT/C-like noise is independent of the
        // `thermal_noise` switch; with hot-path draws on their own
        // SplitMix64 stream it must be silenced explicitly or the two
        // loops draw different (non-zero) values.
        cfg.opamp.noise_excess_factor = 0.0;
        cfg.leak_cubic_a_per_v3 = 1e-6;
        let mut planned = PipelineAdc::build(cfg, 21).unwrap();
        planned.reference.noise_rms_v = 0.0;
        let mut reference = planned.clone();
        let mut silent = NoiseSource::from_seed(21);
        for i in 0..512 {
            let v = -0.95 + 1.9 * f64::from(i) / 512.0;
            assert_eq!(
                planned.convert_one(v, 0.0),
                unplanned_convert_one(&mut reference, &mut silent, v, 0.0),
                "planned path diverged at v = {v}"
            );
        }
    }

    #[test]
    fn convert_waveform_into_is_bit_identical_with_jitter_enabled() {
        let cfg = AdcConfig::nominal_110ms();
        let wave = |t: f64| 0.9 * (2.0 * std::f64::consts::PI * 10e6 * t).sin();
        let mut a = PipelineAdc::build(cfg.clone(), 7).unwrap();
        let mut b = PipelineAdc::build(cfg, 7).unwrap();
        let direct = a.convert_waveform(&wave, 256);
        let mut reused = vec![9999u16; 3]; // stale contents must be cleared
        b.convert_waveform_into(&wave, 256, &mut reused);
        assert_eq!(direct, reused);
    }

    #[test]
    fn convert_held_raw_into_reuses_the_buffer() {
        let mut adc = PipelineAdc::build(AdcConfig::nominal_110ms(), 11).unwrap();
        let owned = adc.convert_held_raw(0.25);
        let mut adc2 = PipelineAdc::build(AdcConfig::nominal_110ms(), 11).unwrap();
        let mut raw = RawConversion {
            dac_levels: vec![7; 32], // stale contents must be cleared
            ..RawConversion::default()
        };
        adc2.convert_held_raw_into(0.25, &mut raw);
        assert_eq!(owned, raw);
    }

    #[test]
    fn stage_mut_invalidates_the_hoisted_plans() {
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).unwrap();
        let before = adc.convert_held(0.3);
        // A huge leakage coefficient changes the droop plan; a stale
        // plan would keep converting perfectly.
        adc.stage_mut(0).leak_cubic_a_per_v3 = 1e-3;
        let after = adc.convert_held(0.3);
        assert_ne!(before, after);
    }

    #[test]
    fn hot_die_settles_slower_but_still_works() {
        use adc_analog::process::OperatingConditions;
        let cfg = AdcConfig {
            conditions: OperatingConditions {
                temp_c: 125.0,
                ..OperatingConditions::nominal()
            },
            ..AdcConfig::nominal_110ms()
        };
        let mut adc = PipelineAdc::build(cfg, 7).unwrap();
        // Mid-scale conversion still lands mid-scale.
        let mean: f64 = (0..64)
            .map(|_| f64::from(adc.convert_held(0.0)))
            .sum::<f64>()
            / 64.0;
        assert!((mean - 2047.5).abs() < 16.0, "mean {mean}");
    }
}
