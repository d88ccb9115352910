//! Plain-text reporting: aligned tables and CSV output for the figure
//! regeneration binaries, plus the [`CampaignReporter`] progress
//! observer for `adc-runtime` campaigns.

use std::fmt::Write as _;
use std::sync::Mutex;

use adc_runtime::{CampaignSummary, JobId, JobReport, RunObserver};

/// A [`RunObserver`] that narrates campaign progress as text lines.
///
/// Writes a header when the campaign starts, a progress line at each
/// completed-job milestone (every `stride` jobs, and always the last),
/// and a summary line — jobs/s, samples/s, effective speedup — when it
/// finishes. Output goes to any `Write + Send` sink behind a mutex, so
/// worker threads can report concurrently.
pub struct CampaignReporter<W: std::io::Write + Send> {
    out: Mutex<W>,
    stride: usize,
}

impl<W: std::io::Write + Send> std::fmt::Debug for CampaignReporter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignReporter")
            .field("stride", &self.stride)
            .finish()
    }
}

impl CampaignReporter<std::io::Stderr> {
    /// A reporter on standard error (progress must not pollute the
    /// figure tables on standard out), announcing every 4th job.
    pub fn stderr() -> Self {
        Self::to(std::io::stderr(), 4)
    }
}

impl<W: std::io::Write + Send> CampaignReporter<W> {
    /// A reporter on an arbitrary sink, announcing every `stride`-th
    /// completed job (`stride` is clamped to at least 1).
    pub fn to(out: W, stride: usize) -> Self {
        Self {
            out: Mutex::new(out),
            stride: stride.max(1),
        }
    }

    fn line(&self, text: &str) {
        let mut out = self.out.lock().expect("reporter lock");
        let _ = writeln!(out, "{text}");
    }
}

impl<W: std::io::Write + Send> RunObserver for CampaignReporter<W> {
    fn on_campaign_start(&self, name: &str, jobs: usize, threads: usize) {
        self.line(&format!("[{name}] {jobs} jobs on {threads} threads"));
    }

    fn on_job_finish(&self, id: JobId, report: &JobReport) {
        if let Some(err) = &report.error {
            self.line(&format!("[job {id}] {err}"));
        }
    }

    fn on_progress(&self, done: usize, total: usize) {
        if done.is_multiple_of(self.stride) || done == total {
            self.line(&format!("  {done}/{total} jobs done"));
        }
    }

    fn on_campaign_finish(&self, summary: &CampaignSummary) {
        self.line(&format!(
            "[{}] {}/{} ok in {:.2?} ({:.1} jobs/s, {:.2e} samples/s, {:.1}x speedup)",
            summary.name,
            summary.succeeded,
            summary.jobs,
            summary.wall,
            summary.jobs_per_sec(),
            summary.samples_per_sec(),
            summary.speedup(),
        ));
    }
}

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Writes the CSV rendering to a file (for plotting the figure
    /// series with external tools).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_csv<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.render_csv())
    }

    /// Renders as CSV (no quoting — intended for numeric tables).
    pub fn render_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a decibel value for a table cell.
pub fn db_cell(value_db: f64) -> String {
    if value_db.is_finite() {
        format!("{value_db:.1}")
    } else {
        "-".to_string()
    }
}

/// Formats a frequency in MHz/MS/s for a table cell.
pub fn mhz_cell(value_hz: f64) -> String {
    format!("{:.1}", value_hz / 1e6)
}

/// Formats a power in mW for a table cell.
pub fn mw_cell(value_w: f64) -> String {
    format!("{:.1}", value_w * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_reporter_narrates_runs() {
        use adc_runtime::{Campaign, JobError};
        use std::sync::Arc;

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let reporter = Arc::new(CampaignReporter::to(buf.clone(), 2));
        let run = Campaign::new("narrate", 3)
            .jobs(0u64..4)
            .threads(2)
            .observe(reporter)
            .run(|_, &x| {
                if x == 2 {
                    Err(JobError::Failed("bad point".into()))
                } else {
                    Ok(x)
                }
            });
        assert_eq!(run.values().count(), 3);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("[narrate] 4 jobs on 2 threads"), "{text}");
        assert!(text.contains("bad point"), "{text}");
        assert!(text.contains("4/4 jobs done"), "{text}");
        assert!(text.contains("3/4 ok"), "{text}");
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["rate", "SNDR"]);
        t.push_row(["110.0", "64.2"]);
        t.push_row(["5.0", "63.1"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width (right-aligned columns).
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[2].contains("110.0"));
    }

    #[test]
    fn csv_roundtrip_structure() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["1", "2"]);
        assert_eq!(t.render_csv(), "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_saves_to_disk() {
        let mut t = TextTable::new(["x", "y"]);
        t.push_row(["3", "4"]);
        let path = std::env::temp_dir().join("adc_testbench_report_test.csv");
        t.save_csv(&path).expect("temp dir is writable");
        let back = std::fs::read_to_string(&path).expect("file readable");
        assert_eq!(back, "x,y\n3,4\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn cells_format_units() {
        assert_eq!(db_cell(64.23), "64.2");
        assert_eq!(db_cell(f64::NEG_INFINITY), "-");
        assert_eq!(mhz_cell(110e6), "110.0");
        assert_eq!(mw_cell(0.097), "97.0");
    }
}
