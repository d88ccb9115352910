//! Sweep harnesses: the parameterised measurement campaigns behind the
//! paper's Figs. 4, 5 and 6.
//!
//! Every sweep fans its points out through the `adc-runtime` campaign
//! engine: each point is an independent job (its own fabricated die /
//! measurement session), so results are bit-identical whatever the
//! [`RunPolicy`] thread count, and a slow point cannot serialise the
//! rest of the figure.

use adc_bias::power::PowerReading;
use adc_pipeline::config::AdcConfig;
use adc_pipeline::converter::PipelineAdc;
use adc_pipeline::error::BuildAdcError;

use adc_runtime::CacheCodec;

use crate::policy::RunPolicy;
use crate::session::MeasurementSession;

/// One dynamic sweep point.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DynamicPoint {
    /// The swept variable, hertz (conversion rate or input frequency,
    /// depending on the sweep).
    pub x_hz: f64,
    /// Measured SNR, dB.
    pub snr_db: f64,
    /// Measured SNDR, dB.
    pub sndr_db: f64,
    /// Measured SFDR, dB.
    pub sfdr_db: f64,
    /// Effective number of bits.
    pub enob: f64,
}

impl CacheCodec for DynamicPoint {
    fn encode(&self) -> String {
        (
            self.x_hz,
            self.snr_db,
            self.sndr_db,
            self.sfdr_db,
            self.enob,
        )
            .encode()
    }
    fn decode(line: &str) -> Option<Self> {
        let (x_hz, snr_db, sndr_db, sfdr_db, enob) = CacheCodec::decode(line)?;
        Some(Self {
            x_hz,
            snr_db,
            sndr_db,
            sfdr_db,
            enob,
        })
    }
}

/// A configured sweep campaign over one die.
///
/// ```
/// use adc_testbench::SweepRunner;
/// # fn main() -> Result<(), adc_pipeline::error::BuildAdcError> {
/// let runner = SweepRunner { record_len: 2048, ..SweepRunner::nominal() };
/// let points = runner.rate_sweep(&[40e6, 110e6], 10e6)?;
/// assert!(points[1].sndr_db > 62.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    /// Base configuration (the swept field is overridden per point).
    pub config: AdcConfig,
    /// Fabrication seed.
    pub seed: u64,
    /// FFT record length per point.
    pub record_len: usize,
    /// Stimulus amplitude, volts peak.
    pub amplitude_v: f64,
    /// Execution policy (threads, observers) for the campaigns.
    pub policy: RunPolicy,
}

impl SweepRunner {
    /// A runner over the golden nominal die with the paper's record
    /// settings.
    pub fn nominal() -> Self {
        Self::for_config(AdcConfig::nominal_110ms())
    }

    /// A runner over any configuration (golden seed, near-full-scale
    /// stimulus).
    pub fn for_config(config: AdcConfig) -> Self {
        let amplitude_v = 0.995 * config.v_ref_v;
        Self {
            config,
            seed: crate::session::GOLDEN_SEED,
            record_len: 8192,
            amplitude_v,
            policy: RunPolicy::default(),
        }
    }

    fn session_at_rate(&self, f_cr_hz: f64) -> Result<MeasurementSession, BuildAdcError> {
        let config = AdcConfig {
            f_cr_hz,
            ..self.config.clone()
        };
        let mut s = MeasurementSession::new(config, self.seed)?;
        s.record_len = self.record_len;
        s.amplitude_v = self.amplitude_v;
        Ok(s)
    }

    /// Everything besides the swept variable that shapes a result point
    /// — hashed into the campaign name so cache entries from different
    /// setups can never alias.
    fn fingerprint(&self) -> (&AdcConfig, u64, usize, u64) {
        (
            &self.config,
            self.seed,
            self.record_len,
            self.amplitude_v.to_bits(),
        )
    }

    /// Measures one dynamic point on a fresh session (its own noise
    /// realisation — the per-point independence the campaign engine's
    /// determinism contract requires).
    fn measure_point(
        &self,
        f_cr_hz: f64,
        f_in_target_hz: f64,
        x_hz: f64,
    ) -> Result<DynamicPoint, BuildAdcError> {
        let mut s = self.session_at_rate(f_cr_hz)?;
        let m = s.measure_tone(f_in_target_hz);
        Ok(DynamicPoint {
            x_hz,
            snr_db: m.analysis.snr_db,
            sndr_db: m.analysis.sndr_db,
            sfdr_db: m.analysis.sfdr_db,
            enob: m.analysis.enob,
        })
    }

    /// Fig. 5: dynamic metrics versus conversion rate at a fixed input
    /// frequency.
    ///
    /// # Errors
    ///
    /// Returns the first build error (e.g. a rate beyond the clocking
    /// scheme's capability).
    pub fn rate_sweep(
        &self,
        rates_hz: &[f64],
        f_in_target_hz: f64,
    ) -> Result<Vec<DynamicPoint>, BuildAdcError> {
        self.policy.measure_campaign(
            "rate_sweep",
            &(self.fingerprint(), f_in_target_hz),
            self.seed,
            rates_hz.to_vec(),
            |ctx, &f_cr| {
                ctx.record_samples(self.record_len as u64);
                self.measure_point(f_cr, f_in_target_hz, f_cr)
            },
        )
    }

    /// Fig. 6: dynamic metrics versus input frequency at a fixed
    /// conversion rate.
    ///
    /// Each point runs on a fresh session (independent noise
    /// realisation), so points parallelise and the sweep is
    /// bit-identical at any thread count. (The pre-runtime harness
    /// reused one session serially, threading the noise RNG through the
    /// sweep; per-point metrics differ within the noise floor, and the
    /// figure's bands are unchanged.)
    ///
    /// # Errors
    ///
    /// Returns a build error if the base configuration is unbuildable.
    pub fn frequency_sweep(&self, fins_hz: &[f64]) -> Result<Vec<DynamicPoint>, BuildAdcError> {
        self.policy.measure_campaign(
            "frequency_sweep",
            &self.fingerprint(),
            self.seed,
            fins_hz.to_vec(),
            |ctx, &fin| {
                ctx.record_samples(self.record_len as u64);
                self.measure_point(self.config.f_cr_hz, fin, fin)
            },
        )
    }

    /// Fig. 4: power versus conversion rate.
    ///
    /// # Errors
    ///
    /// Returns the first build error.
    pub fn power_sweep(&self, rates_hz: &[f64]) -> Result<Vec<PowerReading>, BuildAdcError> {
        // PowerReading is a foreign type, so it rides the cache as its
        // (f_cr, scaled, fixed, total) tuple.
        let tuples = self.policy.measure_campaign(
            "power_sweep",
            &self.fingerprint(),
            self.seed,
            rates_hz.to_vec(),
            |_ctx, &f_cr| {
                let config = AdcConfig {
                    f_cr_hz: f_cr,
                    ..self.config.clone()
                };
                let r = PipelineAdc::build(config, self.seed)?.power_reading();
                Ok((r.f_cr_hz, r.scaled_w, r.fixed_w, r.total_w))
            },
        )?;
        Ok(tuples
            .into_iter()
            .map(|(f_cr_hz, scaled_w, fixed_w, total_w)| PowerReading {
                f_cr_hz,
                scaled_w,
                fixed_w,
                total_w,
            })
            .collect())
    }

    /// Amplitude sweep at fixed rate and input frequency: SNDR versus
    /// input level (dBFS), the classic dynamic-range characterisation.
    ///
    /// # Errors
    ///
    /// Returns a build error if the base configuration is unbuildable.
    pub fn amplitude_sweep(
        &self,
        f_in_target_hz: f64,
        levels_dbfs: &[f64],
    ) -> Result<Vec<(f64, DynamicPoint)>, BuildAdcError> {
        self.policy.measure_campaign(
            "amplitude_sweep",
            &(self.fingerprint(), f_in_target_hz),
            self.seed,
            levels_dbfs.to_vec(),
            |ctx, &dbfs| {
                ctx.record_samples(self.record_len as u64);
                let mut s = self.session_at_rate(self.config.f_cr_hz)?;
                s.amplitude_v = self.config.v_ref_v * 10f64.powf(dbfs / 20.0);
                let m = s.measure_tone(f_in_target_hz);
                Ok((
                    dbfs,
                    DynamicPoint {
                        x_hz: f_in_target_hz,
                        snr_db: m.analysis.snr_db,
                        sndr_db: m.analysis.sndr_db,
                        sfdr_db: m.analysis.sfdr_db,
                        enob: m.analysis.enob,
                    },
                ))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_runner() -> SweepRunner {
        SweepRunner {
            record_len: 2048,
            ..SweepRunner::nominal()
        }
    }

    #[test]
    fn rate_sweep_is_flat_in_the_paper_band() {
        let r = quick_runner();
        let pts = r.rate_sweep(&[40e6, 80e6, 120e6], 10e6).unwrap();
        assert_eq!(pts.len(), 3);
        for p in &pts {
            assert!(
                p.sndr_db > 62.0,
                "sndr {} at {} MS/s",
                p.sndr_db,
                p.x_hz / 1e6
            );
        }
    }

    #[test]
    fn rate_sweep_collapses_beyond_140ms() {
        let r = quick_runner();
        let pts = r.rate_sweep(&[110e6, 200e6], 10e6).unwrap();
        assert!(pts[1].sndr_db < pts[0].sndr_db - 8.0, "{pts:?}");
    }

    #[test]
    fn frequency_sweep_shows_sfdr_rolloff() {
        let r = quick_runner();
        let pts = r.frequency_sweep(&[10e6, 100e6]).unwrap();
        assert!(pts[1].sfdr_db < pts[0].sfdr_db - 10.0, "{pts:?}");
    }

    #[test]
    fn power_sweep_is_linear() {
        let r = SweepRunner::nominal();
        let pts = r.power_sweep(&[40e6, 80e6]).unwrap();
        let slope1 = pts[0].scaled_w / 40e6;
        let slope2 = pts[1].scaled_w / 80e6;
        assert!((slope1 / slope2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn amplitude_sweep_tracks_level() {
        let r = quick_runner();
        let pts = r.amplitude_sweep(10e6, &[-20.0, -0.5]).unwrap();
        // SNDR improves roughly dB-for-dB with level in the noise-limited
        // region.
        let delta = pts[1].1.sndr_db - pts[0].1.sndr_db;
        assert!((delta - 19.5).abs() < 3.0, "delta {delta}");
    }

    #[test]
    fn sweep_propagates_build_errors() {
        let r = quick_runner();
        assert!(r.rate_sweep(&[600e6], 10e6).is_err());
    }

    #[test]
    fn cached_policy_reuses_points_bit_exactly() {
        use std::sync::Arc;
        let cache = Arc::new(adc_runtime::ResultCache::in_memory());
        let mut r = quick_runner();
        r.policy = RunPolicy::parallel(2).cached(Arc::clone(&cache));
        let first = r.rate_sweep(&[40e6, 80e6], 10e6).unwrap();
        assert_eq!(cache.len(), 2);
        // Growing the sweep recomputes only the new point; old points
        // come back from the cache bit-identical.
        let grown = r.rate_sweep(&[40e6, 80e6, 120e6], 10e6).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(&grown[..2], &first[..]);
        let uncached = quick_runner()
            .rate_sweep(&[40e6, 80e6, 120e6], 10e6)
            .unwrap();
        assert_eq!(grown, uncached, "cache must be invisible in results");
    }

    #[test]
    fn thread_count_is_invisible_in_sweep_results() {
        let mut serial = quick_runner();
        serial.policy = RunPolicy::serial();
        let mut parallel = quick_runner();
        parallel.policy = RunPolicy::parallel(8);
        let rates = [40e6, 80e6, 110e6];
        assert_eq!(
            serial.rate_sweep(&rates, 10e6).unwrap(),
            parallel.rate_sweep(&rates, 10e6).unwrap()
        );
        let fins = [10e6, 40e6, 100e6];
        assert_eq!(
            serial.frequency_sweep(&fins).unwrap(),
            parallel.frequency_sweep(&fins).unwrap()
        );
    }
}
