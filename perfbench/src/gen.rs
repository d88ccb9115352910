//! Workload inputs, derived from the command-line seed alone.
//!
//! Everything the program under test receives — die seeds, presets,
//! waveforms, record lengths, tone frequencies — and every arrival
//! instant comes from one SplitMix64 stream per purpose, forked from
//! the workload seed. The same seed gives the same schedule and the
//! same requests; the program sees only the generated requests.

use std::time::Duration;

use adc_server::{ConfigOverrides, DigitizeRequest, Preset, WaveformSpec};

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `purpose` under workload seed `seed`; distinct
    /// purposes give independent streams.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let salt = purpose.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        Self(seed ^ salt)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Largest shift of an arrival from its slot, in gaps.
const JITTER: f64 = 0.4;

/// `count` arrival offsets at `rate_hz`: one per `1 / rate_hz` slot,
/// each shifted by a seeded jitter of up to ±[`JITTER`] gaps, so
/// neighbours can come as close as a fifth of a gap but never swap.
///
/// Poisson arrivals would model independent users more closely, but
/// their clumps vary so much from seed to seed that a p99 over a
/// thousand requests measures the clumps; bounded jitter keeps the
/// schedule irregular and the tail a property of the server.
pub fn arrivals(rng: &mut Rng, rate_hz: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| {
            let slot = i as f64 + 0.5 + rng.range(-JITTER, JITTER);
            Duration::from_secs_f64(slot / rate_hz)
        })
        .collect()
}

/// Which request mix a serving workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 2048-sample `Nominal110` tones of one shape, a fresh die each.
    Tone,
    /// 16–64-sample DC, ramp and tone requests over all presets, dies
    /// drawn from a small pool, every tone frequency distinct: the
    /// source of the DC and ramp requests `serve_tone` checks.
    Tiny,
}

/// Samples per `Mix::Tone` request.
pub const TONE_SAMPLES: u32 = 2048;

/// Samples per `Mix::Tiny` tone request.
pub const TINY_TONE_SAMPLES: u32 = 64;

/// Dies in the `Mix::Tiny` pool.
pub const TINY_DIE_POOL: usize = 8;

const PRESETS: [Preset; 3] = [Preset::Nominal110, Preset::Ideal, Preset::Sibling220];

/// An endless, seeded request source for one serving workload.
#[derive(Debug, Clone)]
pub struct Requests {
    mix: Mix,
    rng: Rng,
    issued: u64,
    seed_base: u64,
    tone_hz: f64,
    die_pool: Vec<u64>,
}

impl Requests {
    /// The request stream of `mix` under workload seed `seed`.
    pub fn new(mix: Mix, seed: u64) -> Self {
        let mut rng = Rng::new(seed, "requests");
        // Die seeds count up from a seeded base: every tone request
        // fabricates a die no other request in the run uses.
        let seed_base = rng.next_u64() >> 20;
        let tone_hz = rng.range(2e6, 20e6);
        let die_pool = (0..TINY_DIE_POOL).map(|_| rng.next_u64() >> 20).collect();
        Self {
            mix,
            rng,
            issued: 0,
            seed_base,
            tone_hz,
            die_pool,
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<DigitizeRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }

    fn next_request(&mut self) -> DigitizeRequest {
        let index = self.issued;
        self.issued += 1;
        match self.mix {
            Mix::Tone => DigitizeRequest::tone(self.seed_base + index, self.tone_hz, TONE_SAMPLES),
            Mix::Tiny => self.tiny(index),
        }
    }

    fn tiny(&mut self, index: u64) -> DigitizeRequest {
        let rng = &mut self.rng;
        let preset = PRESETS[rng.below(PRESETS.len())];
        let v_ref = adc_server::preset_config(preset).v_ref_v;
        let (waveform, n_samples) = match rng.below(3) {
            0 => (
                WaveformSpec::Dc {
                    level_v: rng.range(-0.9, 0.9) * v_ref,
                },
                16 + rng.below(49) as u32,
            ),
            1 => {
                let a = rng.range(0.5, 0.95) * v_ref;
                let (from_v, to_v) = if rng.below(2) == 0 { (-a, a) } else { (a, -a) };
                (
                    WaveformSpec::Ramp { from_v, to_v },
                    16 + rng.below(49) as u32,
                )
            }
            _ => {
                // Tone records must be a power of two whose spectrum has
                // an odd bin at least 8 bins from DC and Nyquist: 64 is
                // the shortest. The frequency grid steps by the request
                // index plus a seeded sub-kilohertz offset, so no two
                // tones in flight together share a frequency and
                // nothing coalesces.
                let step = (index % 40_000) as f64 * 1_000.0;
                let f_target_hz = 1e6 + step + rng.range(0.0, 1_000.0);
                (WaveformSpec::Tone { f_target_hz }, TINY_TONE_SAMPLES)
            }
        };
        DigitizeRequest {
            preset,
            seed: self.die_pool[rng.below(self.die_pool.len())],
            overrides: ConfigOverrides::default(),
            waveform,
            n_samples,
            batch_size: 0,
            deadline_ms: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_reproduces_its_schedule_and_requests() {
        for mix in [Mix::Tone, Mix::Tiny] {
            let mut a = Requests::new(mix, 42);
            let mut b = Requests::new(mix, 42);
            assert_eq!(a.take(500), b.take(500));
            assert_eq!(
                arrivals(&mut Rng::new(42, "low"), 1000.0, 2000),
                arrivals(&mut Rng::new(42, "low"), 1000.0, 2000)
            );
        }
    }

    #[test]
    fn another_seed_changes_them() {
        let a = Requests::new(Mix::Tiny, 1).take(50);
        let b = Requests::new(Mix::Tiny, 2).take(50);
        assert_ne!(a, b);
        assert_ne!(
            arrivals(&mut Rng::new(1, "low"), 100.0, 100),
            arrivals(&mut Rng::new(2, "low"), 100.0, 100)
        );
    }

    #[test]
    fn arrivals_hold_the_requested_rate() {
        let t = arrivals(&mut Rng::new(7, "rate"), 500.0, 10_000);
        let rate = t.len() as f64 / t.last().expect("arrivals").as_secs_f64();
        assert!((rate - 500.0).abs() < 1.0, "rate {rate}");
        let gap = Duration::from_secs_f64((1.0 - 2.0 * JITTER) / 500.0);
        assert!(t.windows(2).all(|w| w[1] - w[0] >= gap));
    }

    #[test]
    fn tone_requests_share_a_shape_and_never_a_die() {
        let reqs = Requests::new(Mix::Tone, 9).take(300);
        let mut seeds: Vec<u64> = reqs.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), reqs.len());
        assert!(reqs.iter().all(|r| r.waveform == reqs[0].waveform
            && r.n_samples == TONE_SAMPLES
            && r.preset == Preset::Nominal110));
    }

    #[test]
    fn tiny_requests_cover_the_mix_and_reuse_a_small_die_pool() {
        let reqs = Requests::new(Mix::Tiny, 9).take(3000);
        let mut tones: Vec<u64> = Vec::new();
        let mut dies: Vec<u64> = reqs.iter().map(|r| r.seed).collect();
        dies.sort_unstable();
        dies.dedup();
        assert!(dies.len() <= TINY_DIE_POOL);
        for r in &reqs {
            assert!((16..=64).contains(&r.n_samples));
            if let WaveformSpec::Tone { f_target_hz } = r.waveform {
                assert_eq!(r.n_samples, TINY_TONE_SAMPLES);
                tones.push(f_target_hz.to_bits());
            }
        }
        let n_tones = tones.len();
        tones.sort_unstable();
        tones.dedup();
        assert_eq!(tones.len(), n_tones, "tone frequencies repeat");
        for preset in PRESETS {
            assert!(reqs.iter().any(|r| r.preset == preset));
        }
        assert!(reqs
            .iter()
            .any(|r| matches!(r.waveform, WaveformSpec::Dc { .. })));
        assert!(reqs
            .iter()
            .any(|r| matches!(r.waveform, WaveformSpec::Ramp { .. })));
    }
}
