//! Sub-converters: the per-stage 1.5-bit ADSC and the 2-bit flash backend.
//!
//! Each pipeline stage contains an Analog-to-Digital Sub-Converter (ADSC)
//! with two comparators at ±V_REF/4, resolving the stage input into one of
//! three decisions d ∈ {−1, 0, +1}. The half-bit of redundancy means a
//! comparator can be wrong by up to V_REF/4 before the stage residue
//! leaves the correctable range — this is why the paper can use small,
//! offset-prone dynamic comparators.
//!
//! The chain ends in a 2-bit flash (three comparators at −V_REF/2, 0,
//! +V_REF/2) that resolves the final residue.

use adc_analog::comparator::{Comparator, ComparatorLanes, ComparatorSpec};
use adc_analog::noise::NoiseSource;

/// A 1.5-bit stage decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct StageDecision {
    /// DAC level d ∈ {−1, 0, +1} applied by the Decoder and Switching
    /// Block (DSB).
    pub dac_level: i8,
}

impl StageDecision {
    /// The stage's raw digital output b ∈ {0, 1, 2} (`d + 1`).
    pub fn bits(&self) -> u8 {
        (self.dac_level + 1) as u8
    }
}

/// The 1.5-bit Analog-to-Digital Sub-Converter of one stage.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Adsc {
    high: Comparator,
    low: Comparator,
}

impl Adsc {
    /// Fabricates an ADSC with thresholds at ±`v_ref_v`/4 and offsets
    /// drawn from `spec`.
    pub fn fabricate(spec: &ComparatorSpec, v_ref_v: f64, noise: &mut NoiseSource) -> Self {
        Self {
            high: spec.fabricate(v_ref_v / 4.0, noise),
            low: spec.fabricate(-v_ref_v / 4.0, noise),
        }
    }

    /// An ideal ADSC.
    pub fn ideal(v_ref_v: f64) -> Self {
        Self::fabricate(
            &ComparatorSpec::ideal(),
            v_ref_v,
            &mut NoiseSource::from_seed(0),
        )
    }

    /// Resolves the sampled stage input into a decision.
    pub fn decide(&mut self, v_in: f64) -> StageDecision {
        let above = self.high.decide(v_in);
        let below = !self.low.decide(v_in);
        let dac_level = match (above, below) {
            (true, _) => 1,
            (_, true) => -1,
            _ => 0,
        };
        StageDecision { dac_level }
    }

    /// The two comparators, upper first (for seeding their streams).
    pub fn comparators_mut(&mut self) -> [&mut Comparator; 2] {
        [&mut self.high, &mut self.low]
    }

    /// Injects a static offset on the upper comparator (fault injection).
    pub fn set_high_offset_v(&mut self, offset_v: f64) {
        self.high.set_offset_v(offset_v);
    }

    /// Injects a static offset on the lower comparator (fault injection).
    pub fn set_low_offset_v(&mut self, offset_v: f64) {
        self.low.set_offset_v(offset_v);
    }
}

/// The ADSCs of up to `W` stages gathered into lanes, stage 1 in lane
/// 0: the record kernel decides every stage of a tick in one pass.
///
/// Each lane's decision equals [`Adsc::decide`] on that stage bit for
/// bit, comparator streams and hysteresis included (see
/// [`ComparatorLanes`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdscLanes<const W: usize> {
    high: ComparatorLanes<W>,
    low: ComparatorLanes<W>,
}

impl<const W: usize> AdscLanes<W> {
    /// Gathers the ADSCs into lanes, first in lane 0.
    ///
    /// # Panics
    ///
    /// Panics if there are no ADSCs or more than `W`.
    pub fn gather<'a>(adscs: impl Iterator<Item = &'a Adsc> + Clone) -> Self {
        Self {
            high: ComparatorLanes::gather(adscs.clone().map(|a| &a.high)),
            low: ComparatorLanes::gather(adscs.map(|a| &a.low)),
        }
    }

    /// Writes the comparators' carried state back, in gather order.
    pub fn scatter<'a>(&self, adscs: impl IntoIterator<Item = &'a mut Adsc>) {
        for (l, adsc) in adscs.into_iter().enumerate() {
            self.high.scatter_lane(l, &mut adsc.high);
            self.low.scatter_lane(l, &mut adsc.low);
        }
    }

    /// The DAC level d ∈ {−1, 0, +1} of every active lane (inactive
    /// lanes keep their state; their level is meaningless).
    #[inline(always)]
    pub fn decide(&mut self, active: &[bool; W], v_in: &[f64; W]) -> [i8; W] {
        let above = self.high.decide(active, v_in);
        let not_below = self.low.decide(active, v_in);
        std::array::from_fn(|l| {
            if above[l] {
                1
            } else if not_below[l] {
                0
            } else {
                -1
            }
        })
    }
}

/// The 2-bit flash backend.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlashBackend {
    comparators: Vec<Comparator>,
}

impl FlashBackend {
    /// Fabricates the flash with thresholds at −V_REF/2, 0, +V_REF/2.
    pub fn fabricate(spec: &ComparatorSpec, v_ref_v: f64, noise: &mut NoiseSource) -> Self {
        let thresholds = [-v_ref_v / 2.0, 0.0, v_ref_v / 2.0];
        Self {
            comparators: thresholds
                .iter()
                .map(|&t| spec.fabricate(t, noise))
                .collect(),
        }
    }

    /// An ideal flash.
    pub fn ideal(v_ref_v: f64) -> Self {
        Self::fabricate(
            &ComparatorSpec::ideal(),
            v_ref_v,
            &mut NoiseSource::from_seed(0),
        )
    }

    /// The comparators, lowest threshold first (for seeding streams).
    pub fn comparators_mut(&mut self) -> &mut [Comparator] {
        &mut self.comparators
    }

    /// Resolves the final residue into a 2-bit code (0..=3), via a
    /// thermometer-to-binary conversion that tolerates bubbles (a single
    /// out-of-order comparator does not produce a wild code).
    pub fn decide(&mut self, v_in: f64) -> u8 {
        let mut count = 0u8;
        for c in &mut self.comparators {
            if c.decide(v_in) {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_adsc_thresholds_are_quarter_ref() {
        let mut a = Adsc::ideal(1.0);
        assert_eq!(a.decide(0.3).dac_level, 1);
        assert_eq!(a.decide(0.2).dac_level, 0);
        assert_eq!(a.decide(0.0).dac_level, 0);
        assert_eq!(a.decide(-0.2).dac_level, 0);
        assert_eq!(a.decide(-0.3).dac_level, -1);
    }

    #[test]
    fn decision_bits_are_offset_binary() {
        assert_eq!(StageDecision { dac_level: -1 }.bits(), 0);
        assert_eq!(StageDecision { dac_level: 0 }.bits(), 1);
        assert_eq!(StageDecision { dac_level: 1 }.bits(), 2);
    }

    #[test]
    fn offset_moves_decision_boundary_only_locally() {
        let mut a = Adsc::ideal(1.0);
        a.set_high_offset_v(0.1); // upper threshold now at 0.35
        assert_eq!(a.decide(0.3).dac_level, 0); // was 1
        assert_eq!(a.decide(0.4).dac_level, 1);
        assert_eq!(a.decide(-0.3).dac_level, -1); // unaffected
    }

    #[test]
    fn ideal_flash_counts_thermometer() {
        let mut f = FlashBackend::ideal(1.0);
        assert_eq!(f.decide(-0.8), 0);
        assert_eq!(f.decide(-0.3), 1);
        assert_eq!(f.decide(0.3), 2);
        assert_eq!(f.decide(0.8), 3);
    }

    #[test]
    fn flash_boundaries_are_half_ref() {
        let mut f = FlashBackend::ideal(1.0);
        assert_eq!(f.decide(-0.5001), 0);
        assert_eq!(f.decide(-0.4999), 1);
        assert_eq!(f.decide(0.4999), 2);
        assert_eq!(f.decide(0.5001), 3);
    }

    #[test]
    fn fabricated_adsc_offsets_stay_within_redundancy_budget() {
        // With 10 mV sigma, offsets are essentially always far below the
        // V_REF/4 = 250 mV correction range.
        let spec = ComparatorSpec::dynamic_latch();
        let mut n = NoiseSource::from_seed(99);
        for _ in 0..1000 {
            let a = Adsc::fabricate(&spec, 1.0, &mut n);
            // Access via behaviour: a decision at ±(Vref/4 ± 6σ) must be
            // unambiguous.
            let mut a = a;
            assert_eq!(a.decide(0.4).dac_level, 1);
            assert_eq!(a.decide(-0.4).dac_level, -1);
            assert_eq!(a.decide(0.0).dac_level, 0);
        }
    }
}
