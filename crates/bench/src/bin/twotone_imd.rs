//! Extension experiment: two-tone intermodulation of the nominal die.
//!
//! Not a paper figure — the natural companion measurement to Fig. 6: the
//! odd-order input-switch nonlinearity that limits single-tone SFDR at
//! high frequency appears here as IMD3 growing with tone frequency.
//!
//! The centre frequencies run as one campaign under
//! [`adc_bench::campaign_setup`]. Each point fabricates its own
//! golden-seed session (points must be independent to parallelize), so
//! every capture sees the noise stream from a fresh die rather than the
//! continuation of the previous capture's — same die, same statistics,
//! slightly different per-sample noise than the old serial loop.

use adc_spectral::twotone::analyze_two_tone;
use adc_spectral::window::coherent_frequency_clear;
use adc_testbench::report::{db_cell, mhz_cell, TextTable};
use adc_testbench::{MeasurementSession, MultiTone, SineSource, GOLDEN_SEED};

fn main() {
    adc_bench::banner(
        "Extension -- two-tone IMD vs tone frequency",
        "companion to Fig. 6: input-switch nonlinearity as IMD3",
    );

    let reference = MeasurementSession::nominal().expect("nominal builds");
    let n = reference.record_len;
    let f_cr = reference.adc().config().f_cr_hz;
    let base = reference.adc().config().clone();
    drop(reference);

    let centres_mhz = [10.0, 30.0, 50.0, 80.0];

    let (args, policy, _trace) = adc_bench::campaign_setup();
    adc_bench::warn_ignored_peers(&args);
    let points = policy
        .measure_campaign(
            "twotone-imd",
            &(GOLDEN_SEED, &base, n),
            GOLDEN_SEED,
            centres_mhz.to_vec(),
            |_ctx, &centre_mhz| {
                let (f1, m1) = coherent_frequency_clear(f_cr, n, centre_mhz * 1e6 * 0.97, 8)
                    .expect("the IMD record has clear tone bins");
                let (f2, m2) = coherent_frequency_clear(f_cr, n, centre_mhz * 1e6 * 1.03, 8)
                    .expect("the IMD record has clear tone bins");
                let stimulus = MultiTone {
                    tones: vec![SineSource::clean(0.49, f1), SineSource::clean(0.49, f2)],
                };
                let mut session = MeasurementSession::new(base.clone(), GOLDEN_SEED)?;
                let codes = session.adc_mut().convert_waveform(&stimulus, n);
                let record = session.reconstruct(&codes);
                let b1 = adc_spectral::window::alias_bin(m1, n);
                let b2 = adc_spectral::window::alias_bin(m2, n);
                let a = analyze_two_tone(&record, b1, b2).expect("valid record");
                Ok((a.imd2_dbc, a.imd3_dbc))
            },
        )
        .expect("all centre frequencies build");

    let mut table = TextTable::new(["centre (MHz)", "IMD2 (dBc)", "IMD3 (dBc)"]);
    for (&centre_mhz, &(imd2, imd3)) in centres_mhz.iter().zip(&points) {
        table.push_row([mhz_cell(centre_mhz * 1e6), db_cell(imd2), db_cell(imd3)]);
    }
    println!("\n{}", table.render());
    println!("expected: IMD3 worsens toward high centre frequencies, mirroring");
    println!("the Fig. 6 SFDR roll-off; IMD2 stays low (differential circuit).");
}
