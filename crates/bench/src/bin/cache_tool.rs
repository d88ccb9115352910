//! Point-cache maintenance: inspects and garbage-collects a campaign
//! cache directory (`--cache-dir` / `ADC_CACHE_DIR`, the same knob the
//! campaign binaries use).
//!
//! ```text
//! cache_tool [--cache-dir DIR] [--gc]
//! ```
//!
//! The report lists every `<campaign>.cache` file with its entry count,
//! size, and the [`NUMERICS_EPOCH`] stamped in its header, plus an
//! epoch histogram of the directory. Files written under an older
//! epoch are dead weight — their keys are epoch-salted, so the current
//! code can never hit them — and `--gc` deletes them. Files with no
//! header at all are reported as `legacy`; the header came in at epoch
//! 2, so they hold only keys salted with epoch 2 or earlier, just as
//! dead, and `--gc` deletes them too.
//!
//! Exit status: `0` on success (including an absent directory, which
//! just means there is nothing cached yet), `2` on usage errors.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use adc_bench::cli::default_cache_dir;
use adc_runtime::{parse_epoch_header, NUMERICS_EPOCH};

/// What one `<campaign>.cache` file holds.
#[derive(Debug, PartialEq, Eq)]
struct CacheFile {
    path: PathBuf,
    entries: usize,
    bytes: u64,
    /// Epoch from the header line; `None` for legacy headerless files.
    epoch: Option<u32>,
}

impl CacheFile {
    /// Written under another epoch, or headerless (epoch 2 or
    /// earlier): no entry can hit.
    fn stale(&self) -> bool {
        self.epoch != Some(NUMERICS_EPOCH)
    }
}

/// Reads one cache file's vital signs.
fn inspect(path: &Path) -> std::io::Result<CacheFile> {
    let text = std::fs::read_to_string(path)?;
    let epoch = text.lines().next().and_then(parse_epoch_header);
    let entries = text
        .lines()
        .filter(|l| !l.starts_with('#') && l.contains('\t'))
        .count();
    Ok(CacheFile {
        path: path.to_path_buf(),
        entries,
        bytes: text.len() as u64,
        epoch,
    })
}

/// Scans a cache directory for `.cache` files, sorted by name.
fn scan(dir: &Path) -> std::io::Result<Vec<CacheFile>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "cache") && path.is_file() {
            files.push(inspect(&path)?);
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Buckets files by epoch label (`legacy` for headerless), counting
/// files and entries per bucket.
fn epoch_histogram(files: &[CacheFile]) -> BTreeMap<String, (usize, usize)> {
    let mut hist = BTreeMap::new();
    for f in files {
        let label = match f.epoch {
            Some(e) => format!("epoch {e}"),
            None => "legacy (no header)".to_string(),
        };
        let (count, entries) = hist.entry(label).or_insert((0usize, 0usize));
        *count += 1;
        *entries += f.entries;
    }
    hist
}

struct Options {
    cache_dir: String,
    gc: bool,
}

fn usage() -> String {
    "usage: cache_tool [--cache-dir DIR] [--gc]".to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        cache_dir: default_cache_dir(),
        gc: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => {
                opts.cache_dir = it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("--cache-dir needs a value\n{}", usage()))?;
            }
            "--gc" => opts.gc = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(&opts.cache_dir);
    if opts.cache_dir.is_empty() || !dir.is_dir() {
        println!(
            "cache dir {} does not exist -- nothing cached",
            opts.cache_dir
        );
        return ExitCode::SUCCESS;
    }
    let files = match scan(dir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cache_tool: cannot scan {}: {e}", opts.cache_dir);
            return ExitCode::from(2);
        }
    };

    println!(
        "cache dir {} (current epoch {NUMERICS_EPOCH}):",
        opts.cache_dir
    );
    let mut total_entries = 0usize;
    let mut total_bytes = 0u64;
    for f in &files {
        let name = f.path.file_name().map(|n| n.to_string_lossy().into_owned());
        let epoch = match f.epoch {
            Some(e) if e == NUMERICS_EPOCH => format!("epoch {e}"),
            Some(e) => format!("epoch {e} STALE"),
            None => "legacy".to_string(),
        };
        println!(
            "  {:<40} {:>8} entries {:>10} bytes  {}",
            name.unwrap_or_default(),
            f.entries,
            f.bytes,
            epoch
        );
        total_entries += f.entries;
        total_bytes += f.bytes;
    }
    println!(
        "  {} file(s), {total_entries} entries, {total_bytes} bytes",
        files.len()
    );
    println!("epoch histogram:");
    for (label, (count, entries)) in epoch_histogram(&files) {
        println!("  {label:<20} {count:>4} file(s) {entries:>8} entries");
    }

    let mut removed = 0usize;
    for f in &files {
        if opts.gc && f.stale() {
            match std::fs::remove_file(&f.path) {
                Ok(()) => {
                    println!("gc: removed {}", f.path.display());
                    removed += 1;
                }
                Err(e) => eprintln!("gc: cannot remove {}: {e}", f.path.display()),
            }
        }
    }
    if opts.gc {
        println!("gc: {removed} file(s) removed");
    } else {
        let dead = files.iter().filter(|f| f.stale()).count();
        if dead > 0 {
            println!("{dead} stale or legacy file(s) present; pass --gc to remove");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_runtime::epoch_header;

    fn fixture_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adc_cache_tool_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("fixture dir");
        std::fs::write(
            dir.join("current.cache"),
            format!("{}\n1\tdeadbeef\n2\tfeedface\n", epoch_header()),
        )
        .expect("current");
        std::fs::write(
            dir.join("old.cache"),
            format!("# adc-cache epoch {}\n3\tcafe\n", NUMERICS_EPOCH - 1),
        )
        .expect("old");
        std::fs::write(dir.join("legacy.cache"), "4\tbeef\n").expect("legacy");
        std::fs::write(dir.join("notes.txt"), "not a cache file").expect("other");
        dir
    }

    #[test]
    fn scan_reports_entries_epochs_and_histogram() {
        let dir = fixture_dir("scan");
        let files = scan(&dir).expect("scan");
        assert_eq!(files.len(), 3, "only .cache files count");
        let by_name = |n: &str| {
            files
                .iter()
                .find(|f| f.path.file_name().is_some_and(|p| p == n))
                .expect("file present")
        };
        let current = by_name("current.cache");
        assert_eq!((current.entries, current.epoch), (2, Some(NUMERICS_EPOCH)));
        assert!(!current.stale());
        let old = by_name("old.cache");
        assert!(old.stale() && old.epoch == Some(NUMERICS_EPOCH - 1));
        let legacy = by_name("legacy.cache");
        assert!(legacy.stale() && legacy.epoch.is_none() && legacy.entries == 1);

        let hist = epoch_histogram(&files);
        assert_eq!(hist[&format!("epoch {NUMERICS_EPOCH}")], (1, 2));
        assert_eq!(hist[&format!("epoch {}", NUMERICS_EPOCH - 1)], (1, 1));
        assert_eq!(hist["legacy (no header)"], (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_removes_stale_and_legacy_files_alike() {
        let dir = fixture_dir("gc");
        // Mimic main's gc loop.
        for f in scan(&dir).expect("scan") {
            if f.stale() {
                std::fs::remove_file(&f.path).expect("gc");
            }
        }
        let survivors = scan(&dir).expect("rescan");
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].epoch, Some(NUMERICS_EPOCH));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_parse_and_reject_unknown_flags() {
        let opts =
            parse_options(&["--cache-dir".into(), "/tmp/x".into(), "--gc".into()]).expect("parses");
        assert_eq!(opts.cache_dir, "/tmp/x");
        assert!(opts.gc);
        assert!(parse_options(&["--bogus".into()]).is_err());
        assert!(parse_options(&["--gc-legacy".into()]).is_err());
        assert!(parse_options(&["--cache-dir".into()]).is_err());
    }
}
