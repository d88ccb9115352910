//! Lane batches: N independent dies converting one record each.
//!
//! A [`LaneBatch`] carries N dies (Monte-Carlo variants, interleaved
//! channels, fault-injected mutants, or just separate records of one
//! design) through one call. Each die converts its record in turn
//! through the systolic record kernel ([`crate::systolic`]), which
//! already keeps a die's active stages busy as one wavefront.
//!
//! # Bit-exactness
//!
//! Dies in a batch share no state: each keeps its own plans, settling
//! memories, sample-noise stream, and per-comparator decision streams.
//! Each lane's record is therefore bit-identical to converting that
//! waveform alone at the same seed — asserted by this module's tests and
//! by the `determinism` integration suite. See DESIGN.md §16 and §18.

use crate::config::AdcConfig;
use crate::converter::{PipelineAdc, Waveform};
use crate::error::BuildAdcError;

/// Why a set of dies cannot form a [`LaneBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneError {
    /// A batch needs at least one lane.
    Empty,
    /// Lanes must agree on stage count: a batch holds dies of one
    /// pipeline design (configs may otherwise differ freely).
    MismatchedStageCount {
        /// Index of the offending lane.
        lane: usize,
        /// Stage count of lane 0.
        expected: usize,
        /// Stage count of the offending lane.
        got: usize,
    },
}

impl std::fmt::Display for LaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "a lane batch needs at least one lane"),
            Self::MismatchedStageCount {
                lane,
                expected,
                got,
            } => write!(
                f,
                "lane {lane} has {got} stages, lane 0 has {expected}: \
                 a lane batch needs a uniform stage count"
            ),
        }
    }
}

impl std::error::Error for LaneError {}

/// N fabricated dies converting one record each (see the module docs).
///
/// ```
/// use adc_pipeline::config::AdcConfig;
/// use adc_pipeline::lanes::LaneBatch;
///
/// # fn main() -> Result<(), adc_pipeline::error::BuildAdcError> {
/// // Four Monte-Carlo die variants of the paper's nominal design.
/// let mut batch = LaneBatch::build(&AdcConfig::nominal_110ms(), &[1, 2, 3, 4])?;
/// let tone = |t: f64| 0.9 * (2.0 * std::f64::consts::PI * 10.07e6 * t).sin();
/// let records = batch.convert_waveform(&tone, 256);
/// assert_eq!(records.len(), 4);
/// assert!(records.iter().all(|r| r.len() == 256));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneBatch {
    lanes: Vec<PipelineAdc>,
}

impl LaneBatch {
    /// Assembles a batch from already-fabricated dies (Monte-Carlo
    /// variants, interleave channels, fault-injected mutants, ...).
    ///
    /// # Errors
    ///
    /// [`LaneError::Empty`] for an empty set and
    /// [`LaneError::MismatchedStageCount`] when the dies disagree on
    /// pipeline depth.
    pub fn from_adcs(lanes: Vec<PipelineAdc>) -> Result<Self, LaneError> {
        let stage_count = lanes.first().ok_or(LaneError::Empty)?.stages.len();
        for (lane, adc) in lanes.iter().enumerate() {
            if adc.stages.len() != stage_count {
                return Err(LaneError::MismatchedStageCount {
                    lane,
                    expected: stage_count,
                    got: adc.stages.len(),
                });
            }
        }
        Ok(Self { lanes })
    }

    /// Fabricates one die per seed from a shared configuration — the
    /// Monte-Carlo shape: same design, different process draws.
    ///
    /// # Errors
    ///
    /// Propagates the first seed's [`BuildAdcError`] (the config itself
    /// is unbuildable, or `seeds` is empty — surfaced as
    /// [`BuildAdcError::NoStages`] would never be, so an empty seed set
    /// panics instead).
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty.
    pub fn build(config: &AdcConfig, seeds: &[u64]) -> Result<Self, BuildAdcError> {
        assert!(!seeds.is_empty(), "need at least one lane seed");
        let lanes = seeds
            .iter()
            .map(|&seed| PipelineAdc::build(config.clone(), seed))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_adcs(lanes).expect("uniform config implies uniform stage count"))
    }

    /// The number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when the batch has no lanes (never constructible via the
    /// public constructors; kept for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The lanes, for inspection (power readings, configs).
    pub fn lanes(&self) -> &[PipelineAdc] {
        &self.lanes
    }

    /// Disassembles the batch back into its dies. Settling and noise
    /// state carry over exactly: converting scalar-ly on a returned die
    /// continues bit-identically from where the batch left off.
    pub fn into_lanes(self) -> Vec<PipelineAdc> {
        self.lanes
    }

    /// Clears every lane's inter-sample state (settling/tracking memory,
    /// sample counter), as [`PipelineAdc::reset`] does per die.
    pub fn reset(&mut self) {
        for lane in &mut self.lanes {
            lane.reset();
        }
    }

    /// Converts `n_samples` of one shared waveform on every lane (the
    /// Monte-Carlo case), returning one record per lane.
    pub fn convert_waveform(&mut self, waveform: &dyn Waveform, n_samples: usize) -> Vec<Vec<u16>> {
        let mut out = vec![Vec::new(); self.lanes.len()];
        self.convert_waveform_into(waveform, n_samples, &mut out);
        out
    }

    /// Like [`Self::convert_waveform`], into caller-owned buffers
    /// (cleared first) so repeated captures reuse the allocations.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from the lane count.
    pub fn convert_waveform_into(
        &mut self,
        waveform: &dyn Waveform,
        n_samples: usize,
        out: &mut [Vec<u16>],
    ) {
        let waveforms: Vec<&dyn Waveform> = vec![waveform; self.lanes.len()];
        self.convert_waveforms_into(&waveforms, n_samples, out);
    }

    /// Converts `n_samples` of a *per-lane* waveform set (interleaved
    /// channels see phase-shifted views; sweep points see different
    /// stimuli), returning one record per lane.
    ///
    /// # Panics
    ///
    /// Panics when `waveforms.len()` differs from the lane count.
    pub fn convert_waveforms(
        &mut self,
        waveforms: &[&dyn Waveform],
        n_samples: usize,
    ) -> Vec<Vec<u16>> {
        let mut out = vec![Vec::new(); self.lanes.len()];
        self.convert_waveforms_into(waveforms, n_samples, &mut out);
        out
    }

    /// Converts one record per lane, each through
    /// [`PipelineAdc::convert_waveform_into`] on that lane.
    ///
    /// # Panics
    ///
    /// Panics when `waveforms.len()` or `out.len()` differs from the
    /// lane count.
    pub fn convert_waveforms_into(
        &mut self,
        waveforms: &[&dyn Waveform],
        n_samples: usize,
        out: &mut [Vec<u16>],
    ) {
        let n = self.lanes.len();
        assert_eq!(waveforms.len(), n, "one waveform per lane");
        assert_eq!(out.len(), n, "one output record per lane");
        let _trace = adc_trace::span_with("lane_record", (n_samples * n) as u64);
        for ((lane, waveform), rec) in self.lanes.iter_mut().zip(waveforms).zip(out) {
            lane.convert_waveform_into(*waveform, n_samples, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdcConfig;

    fn tone(t: f64) -> f64 {
        0.9 * (2.0 * std::f64::consts::PI * 10.3e6 * t).sin()
    }

    fn scalar_record(config: &AdcConfig, seed: u64, wave: &dyn Waveform, n: usize) -> Vec<u16> {
        let mut adc = PipelineAdc::build(config.clone(), seed).expect("config builds");
        let mut out = Vec::new();
        adc.convert_waveform_into(wave, n, &mut out);
        out
    }

    #[test]
    fn lanes_match_scalar_with_jitter_enabled() {
        let config = AdcConfig::nominal_110ms();
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut batch = LaneBatch::build(&config, &seeds).unwrap();
        let records = batch.convert_waveform(&tone, 512);
        for (l, &seed) in seeds.iter().enumerate() {
            assert_eq!(
                records[l],
                scalar_record(&config, seed, &tone, 512),
                "lane {l} (seed {seed}) diverged from the scalar path"
            );
        }
    }

    #[test]
    fn lanes_match_scalar_on_the_exact_grid_path() {
        let mut config = AdcConfig::nominal_110ms();
        config.jitter.sigma_s = 0.0;
        let seeds = [11u64, 12, 13, 14];
        let mut batch = LaneBatch::build(&config, &seeds).unwrap();
        let records = batch.convert_waveform(&tone, 256);
        for (l, &seed) in seeds.iter().enumerate() {
            assert_eq!(
                records[l],
                scalar_record(&config, seed, &tone, 256),
                "grid lane {l} diverged"
            );
        }
    }

    #[test]
    fn lanes_match_scalar_with_ripple_and_per_lane_waveforms() {
        let config = AdcConfig {
            supply_ripple_v: 50e-3,
            supply_ripple_hz: 5.02e6,
            psrr_db: 40.0,
            ..AdcConfig::nominal_110ms()
        };
        let seeds = [3u64, 9];
        let tone2 = |t: f64| 0.7 * (2.0 * std::f64::consts::PI * 31.7e6 * t).sin();
        let mut batch = LaneBatch::build(&config, &seeds).unwrap();
        let waves: [&dyn Waveform; 2] = [&tone, &tone2];
        let records = batch.convert_waveforms(&waves, 200);
        assert_eq!(records[0], scalar_record(&config, 3, &tone, 200));
        assert_eq!(records[1], scalar_record(&config, 9, &tone2, 200));
    }

    #[test]
    fn a_single_lane_batch_is_the_scalar_path() {
        let config = AdcConfig::nominal_110ms();
        let mut batch = LaneBatch::build(&config, &[42]).unwrap();
        let records = batch.convert_waveform(&tone, 128);
        assert_eq!(records[0], scalar_record(&config, 42, &tone, 128));
    }

    #[test]
    fn lanes_stay_valid_scalar_converters_after_a_batch() {
        // Settling memory, noise-stream position, and sample counters
        // must scatter back exactly: a die pulled out of a batch
        // continues bit-identically to one that converted scalar-ly all
        // along.
        let config = AdcConfig::nominal_110ms();
        let mut batch = LaneBatch::build(&config, &[5, 6]).unwrap();
        let first = batch.convert_waveform(&tone, 96);
        let mut lanes = batch.into_lanes();
        let continued = lanes[0].convert_waveform(&tone, 64);

        let mut scalar = PipelineAdc::build(config.clone(), 5).unwrap();
        let mut out = Vec::new();
        scalar.convert_waveform_into(&tone, 96, &mut out);
        assert_eq!(first[0], out);
        assert_eq!(
            continued,
            scalar.convert_waveform(&tone, 64),
            "post-batch scalar continuation diverged"
        );
    }

    #[test]
    fn from_adcs_rejects_empty_and_mismatched_depths() {
        assert_eq!(
            LaneBatch::from_adcs(Vec::new()).unwrap_err(),
            LaneError::Empty
        );
        let a = PipelineAdc::build(AdcConfig::nominal_110ms(), 1).unwrap();
        let mut short = AdcConfig::nominal_110ms();
        short.stage_count = 8;
        let b = PipelineAdc::build(short, 2).unwrap();
        let err = LaneBatch::from_adcs(vec![a, b]).unwrap_err();
        assert_eq!(
            err,
            LaneError::MismatchedStageCount {
                lane: 1,
                expected: 10,
                got: 8
            }
        );
        assert!(err.to_string().contains("uniform stage count"));
    }

    #[test]
    fn reset_restores_statistical_independence_like_scalar_reset() {
        let config = AdcConfig::nominal_110ms();
        let mut batch = LaneBatch::build(&config, &[7]).unwrap();
        let first = batch.convert_waveform(&tone, 64);
        batch.reset();
        let second = batch.convert_waveform(&tone, 64);

        let mut scalar = PipelineAdc::build(config, 7).unwrap();
        let s_first = scalar.convert_waveform(&tone, 64);
        scalar.reset();
        let s_second = scalar.convert_waveform(&tone, 64);
        assert_eq!(first[0], s_first);
        assert_eq!(second[0], s_second);
    }
}
