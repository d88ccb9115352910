//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;

use pipeline_adc::pipeline::correction::assemble_code;
use pipeline_adc::pipeline::subconverter::StageDecision;
use pipeline_adc::pipeline::{AdcConfig, PipelineAdc};
use pipeline_adc::spectral::complex::Complex64;
use pipeline_adc::spectral::fft::{fft_in_place, ifft_in_place};
use pipeline_adc::spectral::window::{alias_bin, coherent_frequency_clear};
use pipeline_adc::testbench::walden_adjusted_fm;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ideal converter is monotone: v1 < v2 ⇒ code(v1) ≤ code(v2).
    #[test]
    fn ideal_converter_is_monotone(a in -0.999f64..0.999, b in -0.999f64..0.999) {
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = adc.convert_held(lo);
        let c_hi = adc.convert_held(hi);
        prop_assert!(c_lo <= c_hi, "codes {c_lo} > {c_hi} for {lo} <= {hi}");
    }

    /// The ideal converter's reconstruction error never exceeds 1/2 LSB.
    #[test]
    fn ideal_converter_quantizes_within_half_lsb(v in -0.999f64..0.999) {
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), 1).unwrap();
        let code = adc.convert_held(v);
        let err = (adc.reconstruct_v(code) - v).abs();
        prop_assert!(err <= adc.config().lsb_v() / 2.0 + 1e-12, "err {err}");
    }

    /// FFT followed by IFFT is the identity (to numerical precision) for
    /// random complex vectors of random power-of-two lengths.
    #[test]
    fn fft_round_trips(
        log_n in 4usize..11,
        seed in 0u64..1000,
    ) {
        let n = 1 << log_n;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut rand = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let orig: Vec<Complex64> = (0..n).map(|_| Complex64::new(rand(), rand())).collect();
        let mut work = orig.clone();
        fft_in_place(&mut work).unwrap();
        ifft_in_place(&mut work).unwrap();
        for (a, b) in orig.iter().zip(&work) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    /// Parseval's theorem holds for random real signals.
    #[test]
    fn parseval_holds_for_random_signals(seed in 0u64..1000) {
        let n = 1024;
        let mut state = seed.wrapping_add(7);
        let signal: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }).collect();
        let time: f64 = signal.iter().map(|x| x * x).sum();
        let spec = pipeline_adc::spectral::fft::fft_real(&signal).unwrap();
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() / time.max(1e-30) < 1e-9);
    }

    /// Correction arithmetic: for any decision vector, the code equals
    /// the weighted sum, stays in range, and is monotone in each digit.
    #[test]
    fn correction_code_is_weighted_sum(
        levels in prop::collection::vec(-1i8..=1, 10),
        flash in 0u8..=3,
    ) {
        let decisions: Vec<StageDecision> =
            levels.iter().map(|&dac_level| StageDecision { dac_level }).collect();
        let code = assemble_code(&decisions, flash);
        let expected: i64 = levels
            .iter()
            .enumerate()
            .map(|(i, &d)| i64::from(d + 1) << (10 - i))
            .sum::<i64>()
            + i64::from(flash);
        prop_assert_eq!(i64::from(code), expected.clamp(0, 4095));
        // Bumping any single digit by one level raises the code.
        for i in 0..10 {
            if levels[i] < 1 {
                let mut bumped = decisions.clone();
                bumped[i] = StageDecision { dac_level: levels[i] + 1 };
                prop_assert!(assemble_code(&bumped, flash) >= code);
            }
        }
    }

    /// Eq. 2 figure of merit is monotone in the right directions.
    #[test]
    fn fom_monotonicity(
        enob in 6.0f64..14.0,
        rate in 1.0f64..500.0,
        area in 0.1f64..30.0,
        power in 1.0f64..1000.0,
    ) {
        let base = walden_adjusted_fm(enob, rate, area, power);
        prop_assert!(walden_adjusted_fm(enob + 0.1, rate, area, power) > base);
        prop_assert!(walden_adjusted_fm(enob, rate * 1.1, area, power) > base);
        prop_assert!(walden_adjusted_fm(enob, rate, area * 1.1, power) < base);
        prop_assert!(walden_adjusted_fm(enob, rate, area, power * 1.1) < base);
    }

    /// The alias-aware coherent frequency chooser always returns an odd
    /// cycle count whose alias clears the exclusion regions.
    #[test]
    fn coherent_frequency_clear_invariants(
        fs_mhz in 1.0f64..300.0,
        target_mhz in 0.5f64..300.0,
        log_n in 8usize..14,
    ) {
        let n = 1 << log_n;
        let (f, m) = coherent_frequency_clear(fs_mhz * 1e6, n, target_mhz * 1e6, 8)
            .expect("records of 256+ samples always place a clear bin");
        prop_assert_eq!(m % 2, 1);
        let b = alias_bin(m, n);
        prop_assert!(b >= 8 && b <= n / 2 - 8, "bin {}", b);
        prop_assert!((f - m as f64 * fs_mhz * 1e6 / n as f64).abs() < 1.0);
    }

    /// Power model linearity: scaled power is exactly proportional to
    /// rate for any rate pair.
    #[test]
    fn power_scales_linearly(f1 in 1.0f64..200.0, f2 in 1.0f64..200.0) {
        let at = |f_mhz: f64| {
            let cfg = AdcConfig { f_cr_hz: f_mhz * 1e6, ..AdcConfig::nominal_110ms() };
            PipelineAdc::build(cfg, 7).map(|adc| adc.power_reading().scaled_w)
        };
        if let (Ok(p1), Ok(p2)) = (at(f1), at(f2)) {
            let r = (p1 / f1) / (p2 / f2);
            prop_assert!((r - 1.0).abs() < 1e-9, "ratio {}", r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fabricated nominal-config die converts a mid-scale DC input to
    /// a mid-scale code (no die is wildly broken).
    #[test]
    fn every_die_centers_midscale(seed in 0u64..500) {
        let mut adc = PipelineAdc::build(AdcConfig::nominal_110ms(), seed).unwrap();
        let mean: f64 = (0..64)
            .map(|_| f64::from(adc.convert_held(0.0)))
            .sum::<f64>() / 64.0;
        prop_assert!((mean - 2047.5).abs() < 24.0, "seed {}: mean {}", seed, mean);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The correction adder's weights are exact for any stage count n:
    /// raising stage i's level by one (i from 0) adds exactly 2^(n−i),
    /// and raising the flash code by one adds 1, so valid decisions
    /// never reach the clamp.
    #[test]
    fn correction_weights_are_exact_powers_of_two(
        all_levels in prop::collection::vec(-1i8..=1, 12),
        n in 1usize..=12,
        flash in 0u8..=3,
    ) {
        let levels = &all_levels[..n];
        let decisions: Vec<StageDecision> =
            levels.iter().map(|&dac_level| StageDecision { dac_level }).collect();
        let code = i64::from(assemble_code(&decisions, flash));
        for i in 0..n {
            if levels[i] < 1 {
                let mut bumped = decisions.clone();
                bumped[i].dac_level += 1;
                prop_assert_eq!(
                    i64::from(assemble_code(&bumped, flash)) - code,
                    1i64 << (n - i)
                );
            }
        }
        if flash < 3 {
            prop_assert_eq!(i64::from(assemble_code(&decisions, flash + 1)) - code, 1);
        }
    }

    /// Goertzel matches the FFT on random bins of random signals.
    #[test]
    fn goertzel_matches_fft_bin(seed in 0u64..500, bin in 0usize..512) {
        let n = 1024;
        let mut state = seed.wrapping_add(3);
        let sig: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        }).collect();
        let g = pipeline_adc::spectral::goertzel::goertzel_bin(&sig, bin);
        let f = pipeline_adc::spectral::fft::fft_real(&sig).unwrap()[bin];
        prop_assert!((g.re - f.re).abs() < 1e-7 && (g.im - f.im).abs() < 1e-7);
    }

    /// Sine and ramp histogram tests agree on DNL for random single-code
    /// perturbations of a small converter.
    #[test]
    fn sine_and_ramp_histograms_agree(code in 5usize..27, shift in -0.45f64..0.45) {
        let nc = 32usize;
        let lsb = 2.0 / nc as f64;
        let mut transitions: Vec<f64> =
            (1..nc).map(|c| -1.0 + 2.0 * c as f64 / nc as f64).collect();
        transitions[code] += shift * lsb;
        let quantize = |v: f64| {
            transitions.iter().filter(|&&t| v > t).count() as u32
        };
        let n = 150_000;
        let sine: Vec<u32> = (0..n)
            .map(|i| quantize(1.05 * (0.317_233_091 * i as f64).sin()))
            .collect();
        let ramp: Vec<u32> = (0..n)
            .map(|i| quantize(-1.05 + 2.1 * i as f64 / (n - 1) as f64))
            .collect();
        let s = pipeline_adc::spectral::linearity::sine_histogram(&sine, nc as u32).unwrap();
        let r = pipeline_adc::spectral::linearity::ramp_histogram(&ramp, nc as u32).unwrap();
        // Compare the perturbed code's DNL between the two methods.
        let idx = code - 1; // dnl index of code `code`
        prop_assert!(
            (s.dnl_lsb[idx] - r.dnl_lsb[idx]).abs() < 0.12,
            "sine {} vs ramp {}",
            s.dnl_lsb[idx],
            r.dnl_lsb[idx]
        );
    }

    /// The three-parameter sine fit recovers amplitude and offset for
    /// random clean sines.
    #[test]
    fn sine_fit_recovers_parameters(
        amp in 0.05f64..1.5,
        dc in -0.3f64..0.3,
        freq in 0.01f64..0.45,
    ) {
        let n = 2048;
        let sig: Vec<f64> = (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 + 0.7).sin() + dc)
            .collect();
        let fit = pipeline_adc::spectral::sinefit::fit_known_frequency(&sig, freq).unwrap();
        prop_assert!((fit.amplitude - amp).abs() < 1e-6 * amp.max(1.0));
        prop_assert!((fit.offset - dc).abs() < 1e-6);
    }

    /// Digital calibration weights on an ideal converter are strictly
    /// decreasing stage to stage (radix-2 ordering survives the fit).
    #[test]
    fn calibration_weights_are_radix_ordered(seed in 0u64..20) {
        use pipeline_adc::pipeline::calibration::{calibrate_foreground, training_levels};
        use pipeline_adc::pipeline::{AdcConfig, PipelineAdc};
        let mut adc = PipelineAdc::build(AdcConfig::ideal(110e6), seed).unwrap();
        let w = calibrate_foreground(&mut adc, &training_levels(256, 1.0), 1).unwrap();
        // The front weights are strongly conditioned by 256 levels; the
        // last stages' sub-LSB weights are fit-noise-limited, so check
        // the first seven ratios only.
        for pair in w.stage_weights_v.windows(2).take(7) {
            prop_assert!(pair[0] > pair[1], "weights {:?}", w.stage_weights_v);
        }
    }
}
