//! End-to-end and per-layer benchmark of the pipeline-ADC system: the
//! `adc-server` serving edge and the figure campaigns.
//!
//! The benchmark drives only public APIs. `BENCHMARK.json` at the
//! repository root declares its workloads and metrics; `NOTES.md`
//! beside this crate says why each workload exists.

pub mod campaign;
pub mod conn;
pub mod gen;
pub mod layers;
pub mod report;
pub mod sched;
pub mod serve;
pub mod stats;

use std::path::{Path, PathBuf};

/// Wall time after which a run gives up: a program that stalls or
/// times out requests must still fail fast, well inside the three
/// minutes a run may take.
pub const RUN_LIMIT: std::time::Duration = std::time::Duration::from_secs(120);

/// Fails once `start` lies more than [`RUN_LIMIT`] in the past.
///
/// # Errors
///
/// The run is over its limit.
pub fn within_limit(start: std::time::Instant) -> Result<(), String> {
    if start.elapsed() > RUN_LIMIT {
        return Err(format!("run exceeded its {} s limit", RUN_LIMIT.as_secs()));
    }
    Ok(())
}

/// Where a run leaves its trace artifacts.
#[derive(Debug, Clone)]
pub struct Output {
    dir: PathBuf,
    stem: String,
}

impl Output {
    /// Artifacts of `workload`, under `.bench_out/` in the working
    /// directory; each traced run replaces the previous run's files.
    pub fn new(workload: &str) -> Self {
        Self {
            dir: PathBuf::from(".bench_out"),
            stem: workload.to_string(),
        }
    }

    /// The artifact directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes the Chrome trace and the layer table, and echoes the
    /// table to stderr.
    ///
    /// # Errors
    ///
    /// The files cannot be written.
    pub fn write_trace(
        &self,
        trace: &adc_trace::Trace,
        table: &layers::Table,
    ) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let write = |ext: &str, body: &str| {
            let path = self.dir.join(format!("{}.{ext}", self.stem));
            std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))
        };
        write("trace.json", &adc_trace::chrome_json(trace))?;
        let rendered = table.render();
        write("layers.txt", &rendered)?;
        eprint!("{rendered}");
        Ok(())
    }
}
