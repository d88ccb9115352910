//! Latched comparator model for the ADSC and the flash backend.
//!
//! The pipeline's sub-converters are built from dynamic latched comparators.
//! The behaviorally relevant imperfections are:
//!
//! * **static offset** — a per-device random threshold shift drawn at
//!   "fabrication" time. The 1.5-bit architecture tolerates offsets up to
//!   ±V_REF/4 thanks to the half-bit redundancy, which is why the paper can
//!   use small, low-power comparators;
//! * **input-referred noise** — a fresh Gaussian error per decision;
//! * **hysteresis** — a small dependence of the threshold on the previous
//!   decision, typical of regenerative latches without reset;
//! * **metastability** — inputs within a vanishing window of the threshold
//!   resolve to an arbitrary value. Modelled as a window in which the
//!   decision is taken from the noise stream.
//!
//! Each comparator owns its decision-noise stream: a single SplitMix64
//! word advanced by [`standard_normal_step`], seeded per comparator by
//! the die that owns it ([`Comparator::seed_stream`]). Only that
//! comparator ever draws from it, in the order of its own decisions, so
//! a converter may evaluate different comparators in any interleaving
//! (stage by stage for one sample, or a wavefront of stages over
//! several samples) and every decision stays bit-identical.
//!
//! [`ComparatorLanes`] is the same comparator gathered `W` to a bank,
//! one per lane, for the record kernel's stage lanes: a branch-free
//! pass decides every lane, and the rare marginal lane falls back to
//! the body [`Comparator::decide`] runs, on its own stream.

use crate::noise::NoiseSource;
use crate::stripe::{splitmix64, standard_normal_step};

/// Statistical description of a comparator design.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComparatorSpec {
    /// One-sigma static offset in volts.
    pub offset_sigma_v: f64,
    /// RMS input-referred noise per decision, volts.
    pub noise_rms_v: f64,
    /// Hysteresis half-width in volts (threshold moves by ±this toward the
    /// previous decision).
    pub hysteresis_v: f64,
    /// Metastability window half-width in volts.
    pub metastable_window_v: f64,
}

impl ComparatorSpec {
    /// A perfectly ideal comparator.
    pub fn ideal() -> Self {
        Self {
            offset_sigma_v: 0.0,
            noise_rms_v: 0.0,
            hysteresis_v: 0.0,
            metastable_window_v: 0.0,
        }
    }

    /// A typical small dynamic latch in 0.18 µm: ~10 mV offset sigma,
    /// ~0.5 mV noise, negligible hysteresis and metastability window.
    pub fn dynamic_latch() -> Self {
        Self {
            offset_sigma_v: 10e-3,
            noise_rms_v: 0.5e-3,
            hysteresis_v: 0.1e-3,
            metastable_window_v: 1e-9,
        }
    }

    /// The overdrive beyond which a noise draw cannot flip a decision:
    /// `8σ` outside the metastability window (see [`Comparator::decide`]).
    fn margin_v(&self) -> f64 {
        8.0 * self.noise_rms_v + self.metastable_window_v
    }

    /// Fabricates one comparator instance, drawing its static offset.
    /// The decision-noise stream starts at state 0; owners seed it with
    /// [`Comparator::seed_stream`] so fabrication draws stay untouched.
    pub fn fabricate(&self, threshold_v: f64, noise: &mut NoiseSource) -> Comparator {
        Comparator {
            threshold_v,
            offset_v: noise.gaussian(0.0, self.offset_sigma_v),
            spec: *self,
            last_decision: false,
            stream: 0,
        }
    }
}

impl Default for ComparatorSpec {
    fn default() -> Self {
        Self::dynamic_latch()
    }
}

/// A fabricated comparator with a concrete offset.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Comparator {
    threshold_v: f64,
    offset_v: f64,
    spec: ComparatorSpec,
    last_decision: bool,
    /// The private decision-noise stream (one SplitMix64 state word).
    stream: u64,
}

impl Comparator {
    /// An ideal comparator at the given threshold.
    pub fn ideal(threshold_v: f64) -> Self {
        ComparatorSpec::ideal().fabricate(threshold_v, &mut NoiseSource::from_seed(0))
    }

    /// The design threshold (without offset), volts.
    pub fn threshold_v(&self) -> f64 {
        self.threshold_v
    }

    /// The fabricated static offset, volts.
    pub fn offset_v(&self) -> f64 {
        self.offset_v
    }

    /// Overrides the static offset (used by fault-injection tests).
    pub fn set_offset_v(&mut self, offset_v: f64) {
        self.offset_v = offset_v;
    }

    /// Restarts the decision-noise stream at `seed`.
    pub fn seed_stream(&mut self, seed: u64) {
        self.stream = seed;
    }

    /// Makes one clocked decision: is `input_v` above the (noisy, offset,
    /// hysteretic) threshold?
    pub fn decide(&mut self, input_v: f64) -> bool {
        let hysteresis = if self.last_decision {
            -self.spec.hysteresis_v
        } else {
            self.spec.hysteresis_v
        };
        let effective_threshold = self.threshold_v + self.offset_v + hysteresis;
        let decision = resolve(
            input_v - effective_threshold,
            self.spec.margin_v(),
            self.spec.noise_rms_v,
            self.spec.metastable_window_v,
            &mut self.stream,
        );
        self.last_decision = decision;
        decision
    }
}

/// One decision from its deterministic overdrive: the body shared by
/// [`Comparator::decide`] and the exact path of [`ComparatorLanes`].
///
/// Hot-path draw skip: when the deterministic overdrive sits more than
/// `margin_v` (8σ outside the metastability window) from zero, a noise
/// draw cannot flip the outcome (P < 1e-15, far below the converter's
/// noise floor), so the stream is left untouched. In a 1.5-bit pipeline
/// the vast majority of decisions are overwhelming. The skip is safe for
/// any evaluation order because the stream is private.
fn resolve(deterministic: f64, margin_v: f64, sigma: f64, window_v: f64, stream: &mut u64) -> bool {
    if deterministic.abs() > margin_v {
        deterministic > 0.0
    } else {
        let overdrive = deterministic + sigma * standard_normal_step(stream);
        if overdrive.abs() < window_v {
            // Inside the metastable window the latch resolves
            // arbitrarily: one fair coin from the stream's top bit.
            splitmix64(stream) >> 63 == 1
        } else {
            overdrive > 0.0
        }
    }
}

/// `W` comparators gathered field-major, one per lane: the record
/// kernel's view of every stage's upper (or lower) ADSC comparator.
///
/// [`ComparatorLanes::decide`] is [`Comparator::decide`] for all lanes
/// at once. The overwhelming case — overdrive beyond `8σ + window` — is
/// a branch-free compare per lane. A lane inside that margin (rare)
/// takes the exact path through the same body as `Comparator::decide`,
/// drawing from its own stream, so every decision, stream word and
/// hysteresis state is bit-identical to deciding the comparators one by
/// one. Both hysteretic thresholds are gathered with `decide`'s
/// association, `(threshold + offset) ± hysteresis`.
///
/// Lanes past the last gathered comparator repeat it; a caller never
/// marks them active, so they neither draw nor change.
#[derive(Debug, Clone, Copy)]
pub struct ComparatorLanes<const W: usize> {
    /// Effective threshold after a low decision: `(t + offset) + h`.
    after_low_v: [f64; W],
    /// Effective threshold after a high decision: `(t + offset) + (−h)`.
    after_high_v: [f64; W],
    /// Draw-skip margin, `8σ + window`.
    margin_v: [f64; W],
    /// Input-referred noise sigma.
    sigma: [f64; W],
    /// Metastability window half-width.
    window_v: [f64; W],
    /// Previous decision (the hysteresis state).
    last: [bool; W],
    /// Private decision-noise streams.
    stream: [u64; W],
}

impl<const W: usize> ComparatorLanes<W> {
    /// Gathers comparators into lanes, first comparator in lane 0.
    ///
    /// # Panics
    ///
    /// Panics if there are no comparators or more than `W`.
    pub fn gather<'a>(comparators: impl IntoIterator<Item = &'a Comparator>) -> Self {
        let mut lanes = Self {
            after_low_v: [0.0; W],
            after_high_v: [0.0; W],
            margin_v: [0.0; W],
            sigma: [0.0; W],
            window_v: [0.0; W],
            last: [false; W],
            stream: [0; W],
        };
        let mut last = None;
        let mut n = 0;
        for c in comparators {
            assert!(n < W, "more than {W} comparators for {W} lanes");
            lanes.load(n, c);
            last = Some(c);
            n += 1;
        }
        let last = last.expect("at least one comparator");
        for l in n..W {
            lanes.load(l, last);
        }
        lanes
    }

    fn load(&mut self, l: usize, c: &Comparator) {
        let base = c.threshold_v + c.offset_v;
        self.after_low_v[l] = base + c.spec.hysteresis_v;
        self.after_high_v[l] = base + -c.spec.hysteresis_v;
        self.margin_v[l] = c.spec.margin_v();
        self.sigma[l] = c.spec.noise_rms_v;
        self.window_v[l] = c.spec.metastable_window_v;
        self.last[l] = c.last_decision;
        self.stream[l] = c.stream;
    }

    /// Writes lane `l`'s carried state — hysteresis and stream — back to
    /// the comparator it was gathered from.
    pub fn scatter_lane(&self, l: usize, comparator: &mut Comparator) {
        comparator.last_decision = self.last[l];
        comparator.stream = self.stream[l];
    }

    /// Decides every lane on `input_v`: lane `l` is
    /// `Comparator::decide(input_v[l])` of its comparator. Lanes not
    /// `active` keep their state and draw nothing; their result is
    /// meaningless.
    #[inline(always)]
    pub fn decide(&mut self, active: &[bool; W], input_v: &[f64; W]) -> [bool; W] {
        let mut deterministic = [0.0f64; W];
        let mut decision = [false; W];
        let mut marginal = [false; W];
        let mut any_marginal = false;
        for l in 0..W {
            let threshold = if self.last[l] {
                self.after_high_v[l]
            } else {
                self.after_low_v[l]
            };
            deterministic[l] = input_v[l] - threshold;
            decision[l] = deterministic[l] > 0.0;
            // NaN counts as marginal, as in `resolve`.
            let certain = deterministic[l].abs() > self.margin_v[l];
            marginal[l] = active[l] & !certain;
            any_marginal |= marginal[l];
        }
        if any_marginal {
            for l in 0..W {
                if marginal[l] {
                    decision[l] = resolve(
                        deterministic[l],
                        self.margin_v[l],
                        self.sigma[l],
                        self.window_v[l],
                        &mut self.stream[l],
                    );
                }
            }
        }
        for l in 0..W {
            if active[l] {
                self.last[l] = decision[l];
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_comparator_is_exact() {
        let mut c = Comparator::ideal(0.25);
        assert!(c.decide(0.2501));
        assert!(!c.decide(0.2499));
    }

    #[test]
    fn offset_shifts_threshold() {
        let mut c = Comparator::ideal(0.0);
        c.set_offset_v(0.05);
        assert!(!c.decide(0.04));
        assert!(c.decide(0.06));
    }

    #[test]
    fn offset_statistics_follow_spec() {
        let spec = ComparatorSpec {
            offset_sigma_v: 10e-3,
            ..ComparatorSpec::ideal()
        };
        let mut n = NoiseSource::from_seed(3);
        let count = 20_000;
        let var: f64 = (0..count)
            .map(|_| spec.fabricate(0.0, &mut n).offset_v().powi(2))
            .sum::<f64>()
            / count as f64;
        assert!((var.sqrt() - 10e-3).abs() < 0.5e-3);
    }

    #[test]
    fn noise_makes_marginal_decisions_random() {
        let spec = ComparatorSpec {
            noise_rms_v: 1e-3,
            ..ComparatorSpec::ideal()
        };
        let mut c = spec.fabricate(0.0, &mut NoiseSource::from_seed(4));
        c.seed_stream(4);
        let highs = (0..1000).filter(|_| c.decide(0.0)).count();
        // Exactly at threshold with noise: roughly half the decisions high.
        assert!((300..700).contains(&highs), "highs {highs}");
    }

    /// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf fit
    /// (|error| < 1.5e-7, far below the Monte-Carlo tolerance here).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-z * z).exp();
        if x >= 0.0 {
            0.5 * (1.0 + erf)
        } else {
            0.5 * (1.0 - erf)
        }
    }

    #[test]
    fn flip_rate_at_threshold_plus_delta_is_phi_of_delta_over_sigma() {
        // The decision-noise model in distribution: held at threshold +
        // δ, the comparator reads high with probability Φ(δ/σ). Checked
        // at several overdrives against a 5σ binomial band, on several
        // stream seeds.
        let sigma = 1e-3;
        let spec = ComparatorSpec {
            noise_rms_v: sigma,
            ..ComparatorSpec::ideal()
        };
        let trials = 40_000usize;
        for (seed, delta_over_sigma) in [(1u64, 0.0), (2, 0.5), (3, -1.0), (4, 1.5), (5, -2.5)] {
            let mut c = spec.fabricate(0.0, &mut NoiseSource::from_seed(seed));
            c.seed_stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let highs = (0..trials)
                .filter(|_| c.decide(delta_over_sigma * sigma))
                .count();
            let p = phi(delta_over_sigma);
            let rate = highs as f64 / trials as f64;
            let se = (p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (rate - p).abs() <= 5.0 * se,
                "δ/σ = {delta_over_sigma}: flip rate {rate:.4} vs Φ = {p:.4} (±{:.4})",
                5.0 * se
            );
        }
    }

    #[test]
    fn metastable_window_resolves_as_a_fair_coin() {
        let spec = ComparatorSpec {
            metastable_window_v: 1e-3,
            ..ComparatorSpec::ideal()
        };
        let mut c = spec.fabricate(0.0, &mut NoiseSource::from_seed(6));
        c.seed_stream(6);
        let trials = 40_000;
        let highs = (0..trials).filter(|_| c.decide(1e-4)).count();
        let rate = highs as f64 / trials as f64;
        assert!(
            (rate - 0.5).abs() < 5.0 * (0.25 / trials as f64).sqrt(),
            "rate {rate}"
        );
    }

    #[test]
    fn hysteresis_favors_previous_decision() {
        let spec = ComparatorSpec {
            hysteresis_v: 5e-3,
            ..ComparatorSpec::ideal()
        };
        let mut c = spec.fabricate(0.0, &mut NoiseSource::from_seed(5));
        // Drive high first; a small negative input then still reads high
        // because the threshold moved down.
        assert!(c.decide(0.1));
        assert!(c.decide(-0.003));
        // Drive low firmly; the same small input now reads low.
        assert!(!c.decide(-0.1));
        assert!(!c.decide(0.003));
    }

    #[test]
    fn overwhelming_overdrive_skips_the_noise_draw() {
        let spec = ComparatorSpec::dynamic_latch();
        let mut c = spec.fabricate(0.0, &mut NoiseSource::from_seed(9));
        c.seed_stream(9);
        let untouched = c.clone();
        // Overdrives far beyond 8σ decide without consuming the stream.
        assert!(c.decide(0.5));
        assert!(!c.decide(-0.5));
        assert_eq!(
            c.stream, untouched.stream,
            "certain decisions must leave the stream untouched"
        );
    }

    /// Drives `n` comparators one by one and gathered `W` to a bank with
    /// the same inputs and random activity masks; returns how many
    /// reference decisions drew noise and how many flipped the coin.
    fn lanes_track_comparators<const W: usize>(n: usize, seed: u64) -> (usize, usize) {
        // Stress noise and a metastable window wider than σ, with inputs
        // within a few margins of each threshold: the marginal and the
        // coin-flip paths both fire often.
        let spec = ComparatorSpec {
            offset_sigma_v: 10e-3,
            noise_rms_v: 2e-3,
            hysteresis_v: 0.5e-3,
            metastable_window_v: 3e-3,
        };
        let mut fab = NoiseSource::from_seed(seed);
        let mut reference: Vec<Comparator> = (0..n)
            .map(|i| {
                let mut c = spec.fabricate(0.1 * i as f64 - 0.4, &mut fab);
                c.seed_stream(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                c
            })
            .collect();
        let mut lanes = ComparatorLanes::<W>::gather(&reference);
        let mut rng = seed;
        let (mut drew, mut coins) = (0, 0);
        for step in 0..4000 {
            let active: [bool; W] =
                std::array::from_fn(|l| l < n && !splitmix64(&mut rng).is_multiple_of(4));
            let input: [f64; W] = std::array::from_fn(|l| {
                let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                0.1 * l.min(n - 1) as f64 - 0.4 + 0.06 * (u - 0.5)
            });
            let got = lanes.decide(&active, &input);
            for l in (0..n).filter(|&l| active[l]) {
                let before = reference[l].stream;
                let want = reference[l].decide(input[l]);
                assert_eq!(got[l], want, "W {W}, lane {l}, step {step}");
                if reference[l].stream != before {
                    drew += 1;
                    let mut two = before;
                    splitmix64(&mut two);
                    splitmix64(&mut two);
                    coins += usize::from(reference[l].stream != two);
                }
            }
        }
        // Scattered back, every hysteresis state and stream word matches.
        let mut scattered: Vec<Comparator> = reference.clone();
        for (l, c) in scattered.iter_mut().enumerate() {
            c.last_decision = !c.last_decision;
            c.stream ^= 1;
            lanes.scatter_lane(l, c);
        }
        assert_eq!(scattered, reference, "W {W}: carried state");
        (drew, coins)
    }

    #[test]
    fn gathered_lanes_match_comparators_bit_for_bit() {
        let (mut drew, mut coins) = (0, 0);
        for (seed, n) in [(1u64, 1usize), (2, 3), (3, 4)] {
            let (d, c) = lanes_track_comparators::<4>(n, seed);
            (drew, coins) = (drew + d, coins + c);
        }
        for (seed, n) in [(4u64, 5usize), (5, 8)] {
            let (d, c) = lanes_track_comparators::<8>(n, seed);
            (drew, coins) = (drew + d, coins + c);
        }
        for (seed, n) in [(6u64, 10usize), (7, 12)] {
            let (d, c) = lanes_track_comparators::<12>(n, seed);
            (drew, coins) = (drew + d, coins + c);
        }
        for (seed, n) in [(8u64, 14usize), (9, 16)] {
            let (d, c) = lanes_track_comparators::<16>(n, seed);
            (drew, coins) = (drew + d, coins + c);
        }
        assert!(drew > 10_000, "only {drew} marginal decisions");
        assert!(coins > 1_000, "only {coins} metastable coin flips");
    }

    #[test]
    fn decisions_are_reproducible_for_same_seed() {
        let spec = ComparatorSpec::dynamic_latch();
        let run = |seed| {
            let mut c = spec.fabricate(0.1, &mut NoiseSource::from_seed(seed));
            c.seed_stream(seed);
            (0..64)
                .map(|i| c.decide((i as f64 / 64.0) - 0.5))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }
}
