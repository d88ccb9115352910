//! Exports the published figure series as CSV (for replotting with
//! external tools). Writes `fig4.csv`, `fig5.csv`, `fig6.csv`, and
//! `fig8.csv` into `./paper_csv/`.

use adc_testbench::experiments;
use adc_testbench::report::TextTable;
use adc_testbench::{DynamicPoint, RunPolicy};

/// The CSV of a dynamic sweep.
fn dynamic_csv(x_header: &str, points: &[DynamicPoint]) -> TextTable {
    let mut t = TextTable::new([x_header, "snr_db", "sndr_db", "sfdr_db"]);
    for p in points {
        t.push_row([
            format!("{}", p.x_hz),
            format!("{}", p.snr_db),
            format!("{}", p.sndr_db),
            format!("{}", p.sfdr_db),
        ]);
    }
    t
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    adc_bench::banner(
        "Export -- figure series as CSV",
        "fig4/fig5/fig6/fig8 data for external replotting",
    );
    let dir = std::path::Path::new("paper_csv");
    std::fs::create_dir_all(dir)?;
    let policy = RunPolicy::default();

    let fig4 = experiments::run_fig4(&policy)?;
    let mut t = TextTable::new(["rate_hz", "power_w"]);
    for r in &fig4.readings {
        t.push_row([format!("{}", r.f_cr_hz), format!("{}", r.total_w)]);
    }
    t.save_csv(dir.join("fig4.csv"))?;

    let fig5 = experiments::run_fig5(&policy)?;
    dynamic_csv("rate_hz", &fig5.points).save_csv(dir.join("fig5.csv"))?;
    let fig6 = experiments::run_fig6(&policy)?;
    dynamic_csv("fin_hz", &fig6.points).save_csv(dir.join("fig6.csv"))?;

    let fig8 = experiments::run_fig8();
    let mut t = TextTable::new(["name", "supply_group", "inv_area_per_mm2", "fm"]);
    for e in &fig8.ranked {
        t.push_row([
            e.name.replace(',', ";"),
            e.supply_group().to_string(),
            format!("{}", e.inverse_area()),
            format!("{}", e.figure_of_merit()),
        ]);
    }
    t.save_csv(dir.join("fig8.csv"))?;

    println!("wrote paper_csv/fig4.csv, fig5.csv, fig6.csv, fig8.csv");
    println!(
        "claim checks: fig4 {} fig5 {} fig6 {} fig8 {}",
        fig4.claims_hold(),
        fig5.claims_hold(),
        fig6.claims_hold(),
        fig8.claims_hold()
    );
    Ok(())
}
