//! Content-hash result caching.
//!
//! A campaign job is a pure function of its canonical configuration, so
//! its result can be keyed by a hash of that configuration and reused
//! across runs: re-running a figure binary after editing one sweep point
//! recomputes only that point. Keys are FNV-1a hashes of a canonical
//! serialization ([`canonical_key`] uses the `Debug` rendering, which
//! for the workspace's plain-data config types lists every field in
//! declaration order); values round-trip through the line-oriented
//! [`CacheCodec`], which encodes floats as IEEE-754 bit patterns so a
//! cache hit is *bit-identical* to the computation it replaced.
//!
//! [`ResultCache`] keeps its entries per campaign. On disk each campaign
//! owns one `<campaign>.cache` file, read the first time the campaign is
//! looked up or filled; [`ResultCache::persist`] rewrites that file with
//! the campaign's own entries, and only when the campaign gained one
//! since the file was read or last written.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Version of the workspace's simulation numerics, folded into every
/// cache key.
///
/// A cached result is bit-identical to the computation it replaced
/// *only while the computation itself is unchanged*. Configuration
/// changes are already captured by the config hash, but a kernel
/// change — a refactor that reorders floating-point operations or
/// merges RNG draws — changes results under the *same* config, and a
/// stale cache would silently serve the old numerics. Any PR that
/// changes conversion or spectral numerics (even within documented
/// noise floors) must bump this constant so every persisted entry
/// misses and recomputes.
///
/// History: 1 = original per-stage sequential-draw kernels; 2 = planned
/// kernels (hoisted settling/reference/noise plans with merged
/// per-stage Gaussian draws, batched waveform sampling, planned
/// real-input FFT); 3 = lane-parallel SoA kernels (per-sample hot
/// draws split onto a dedicated SplitMix64 `SampleNoise` stream forked
/// from the die seed, select-form settling tail); 4 = systolic record
/// kernel (per-comparator SplitMix64 decision-noise streams, every
/// per-sample draw slot consumed unconditionally, jitter-free grids
/// evaluated per chunk); 5 = paired Box–Muller deviates (each pair of
/// stream words yields a cosine and a sine deviate, one even-sized
/// block of draws per conversion) and one batched polynomial stimulus
/// evaluation per chunk of jittered instants (`Waveform::fill_at`) —
/// same documented noise model, different realizations.
pub const NUMERICS_EPOCH: u32 = 5;

/// Hashes a job configuration's canonical serialization.
///
/// The canonical form is the `Debug` rendering: for the plain-data
/// configs used in campaigns it is a total, deterministic, field-order
/// serialization, and any change to any field changes the key. Pair it
/// with a campaign-name salt so identical configs in different
/// campaigns do not collide. The [`NUMERICS_EPOCH`] is folded in so a
/// kernel-numerics change invalidates every previously persisted
/// entry.
pub fn canonical_key<C: Debug>(campaign: &str, config: &C) -> u64 {
    let canon = format!("epoch{NUMERICS_EPOCH}\u{1f}{campaign}\u{1f}{config:?}");
    fnv1a(canon.as_bytes())
}

/// The header comment stamped at the top of every persisted cache file,
/// recording which [`NUMERICS_EPOCH`] wrote it. Keys are epoch-salted,
/// so stale-epoch entries can never *hit* — the header exists so cache
/// hygiene tooling (`cache_tool`) can identify and garbage-collect
/// files full of permanently dead entries.
pub fn epoch_header() -> String {
    format!("# adc-cache epoch {NUMERICS_EPOCH}")
}

/// Parses the epoch out of a cache-file header line, if `line` is one.
///
/// Returns `None` for data lines and for headerless files. The header
/// came in at epoch 2, so a headerless file holds only keys salted with
/// epoch 2 or earlier, none of which can hit today.
pub fn parse_epoch_header(line: &str) -> Option<u32> {
    line.strip_prefix("# adc-cache epoch ")
        .and_then(|rest| rest.trim().parse().ok())
}

/// Bit-exact, line-oriented value encoding for cache persistence.
pub trait CacheCodec: Sized {
    /// Encodes the value on one line (no `\n`).
    fn encode(&self) -> String;
    /// Decodes a line produced by [`CacheCodec::encode`].
    fn decode(line: &str) -> Option<Self>;
}

impl CacheCodec for f64 {
    fn encode(&self) -> String {
        format!("{:016x}", self.to_bits())
    }
    fn decode(line: &str) -> Option<Self> {
        u64::from_str_radix(line.trim(), 16)
            .ok()
            .map(f64::from_bits)
    }
}

impl CacheCodec for u64 {
    fn encode(&self) -> String {
        self.to_string()
    }
    fn decode(line: &str) -> Option<Self> {
        line.trim().parse().ok()
    }
}

macro_rules! codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: CacheCodec),+> CacheCodec for ($($name,)+) {
            fn encode(&self) -> String {
                let parts = [$(self.$idx.encode()),+];
                parts.join(",")
            }
            fn decode(line: &str) -> Option<Self> {
                let mut parts = line.split(',');
                let value = ($($name::decode(parts.next()?)?,)+);
                if parts.next().is_some() {
                    return None;
                }
                Some(value)
            }
        }
    };
}

codec_tuple!(A: 0, B: 1);
codec_tuple!(A: 0, B: 1, C: 2);
codec_tuple!(A: 0, B: 1, C: 2, D: 3);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl<T: CacheCodec> CacheCodec for Vec<T> {
    fn encode(&self) -> String {
        self.iter().map(T::encode).collect::<Vec<_>>().join(";")
    }
    fn decode(line: &str) -> Option<Self> {
        if line.is_empty() {
            return Some(Vec::new());
        }
        line.split(';').map(T::decode).collect()
    }
}

/// One campaign's entries, and whether it gained any since its file was
/// last written.
#[derive(Debug, Default)]
struct Entries {
    lines: BTreeMap<u64, String>,
    dirty: bool,
}

/// A content-addressed result store, kept per campaign: in-memory,
/// optionally mirrored to a directory of `<campaign>.cache` files (an
/// epoch header, then `key<TAB>value` lines).
///
/// A campaign's file is read the first time the campaign is looked up
/// or filled, and [`persist`](Self::persist) writes back that
/// campaign's entries alone, and only when it gained one since the file
/// was read or last written, so campaigns sharing a directory never copy
/// each other's entries and an all-hit rerun writes nothing. Backed by
/// `BTreeMap`s, so persistence iterates in key order with no hash-seed
/// dependence: a written cache file is byte-stable.
#[derive(Debug, Default)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    campaigns: Mutex<BTreeMap<String, Entries>>,
}

impl ResultCache {
    /// A process-local cache with no persistence.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A cache mirrored to `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn on_disk<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: Some(dir.as_ref().to_path_buf()),
            campaigns: Mutex::new(BTreeMap::new()),
        })
    }

    /// The campaign's file stem, which also names its entry set: two
    /// campaign names that map to one file share one set.
    fn stem(campaign: &str) -> String {
        campaign
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect()
    }

    fn file(&self, stem: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{stem}.cache")))
    }

    /// Reads a campaign's persisted entries; a missing or unreadable
    /// file, header and comment lines, and malformed rows read as
    /// nothing.
    fn load(&self, stem: &str) -> Entries {
        let mut entries = Entries::default();
        let Some(text) = self
            .file(stem)
            .and_then(|p| std::fs::read_to_string(p).ok())
        else {
            return entries;
        };
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            if let Some((key, value)) = line.split_once('\t') {
                if let Ok(key) = key.parse::<u64>() {
                    entries
                        .lines
                        .entry(key)
                        .or_insert_with(|| value.to_string());
                }
            }
        }
        entries
    }

    /// Acquires the store, recovering from poisoning: a poisoned lock
    /// only means another thread panicked mid-operation, and every
    /// operation here leaves the maps valid, so the data is safe to keep
    /// using. This keeps the cache panic-free by construction.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Entries>> {
        self.campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The campaign's entries in `campaigns`, read from its file if this
    /// is the campaign's first use.
    fn entries<'m>(
        &self,
        campaigns: &'m mut BTreeMap<String, Entries>,
        campaign: &str,
    ) -> &'m mut Entries {
        campaigns
            .entry(Self::stem(campaign))
            .or_insert_with_key(|stem| self.load(stem))
    }

    /// Looks up and decodes the campaign's value under `key`. A line
    /// that does not decode is dropped, so the recomputed value can
    /// take its place.
    pub fn get<T: CacheCodec>(&self, campaign: &str, key: u64) -> Option<T> {
        let mut campaigns = self.lock();
        let entries = self.entries(&mut campaigns, campaign);
        let value = T::decode(entries.lines.get(&key)?);
        if value.is_none() {
            entries.lines.remove(&key);
        }
        value
    }

    /// Looks up the campaign's raw encoded line under `key`.
    ///
    /// The cluster layer moves values between hosts in their encoded
    /// form (the same bytes the codec persists), so cache merges are
    /// bit-exact by construction, with no decode/re-encode round trip.
    pub fn get_line(&self, campaign: &str, key: u64) -> Option<String> {
        let mut campaigns = self.lock();
        self.entries(&mut campaigns, campaign)
            .lines
            .get(&key)
            .cloned()
    }

    /// Stores an encoded line under `key` unless the campaign already
    /// holds one, and returns whether it was stored. Under the
    /// canonical-key contract two writers for one key hold bit-identical
    /// values, so first-writer-wins is a free at-most-once-apply
    /// guarantee.
    pub fn put_line(&self, campaign: &str, key: u64, line: &str) -> bool {
        let mut campaigns = self.lock();
        let entries = self.entries(&mut campaigns, campaign);
        let Entry::Vacant(slot) = entries.lines.entry(key) else {
            return false;
        };
        slot.insert(line.to_string());
        entries.dirty = true;
        true
    }

    /// Number of entries held in memory, over every campaign.
    pub fn len(&self) -> usize {
        self.lock().values().map(|e| e.lines.len()).sum()
    }

    /// `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes the campaign's entries to its file if it gained one since
    /// the file was read or last written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a no-op for in-memory caches.
    pub fn persist(&self, campaign: &str) -> io::Result<()> {
        let stem = Self::stem(campaign);
        let Some(path) = self.file(&stem) else {
            return Ok(());
        };
        let mut campaigns = self.lock();
        let Some(entries) = campaigns.get_mut(&stem).filter(|e| e.dirty) else {
            return Ok(());
        };
        let mut out = epoch_header();
        out.push('\n');
        for (key, value) in &entries.lines {
            out.push_str(&format!("{key}\t{value}\n"));
        }
        std::fs::write(path, out)?;
        entries.dirty = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_key_changes_with_any_field() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Cfg {
            a: f64,
            b: u64,
        }
        let base = canonical_key("camp", &Cfg { a: 1.0, b: 2 });
        assert_eq!(base, canonical_key("camp", &Cfg { a: 1.0, b: 2 }));
        assert_ne!(base, canonical_key("camp", &Cfg { a: 1.5, b: 2 }));
        assert_ne!(base, canonical_key("camp", &Cfg { a: 1.0, b: 3 }));
        assert_ne!(base, canonical_key("other", &Cfg { a: 1.0, b: 2 }));
    }

    #[test]
    fn numerics_epoch_is_folded_into_the_key() {
        let key = canonical_key("camp", &1u64);
        let unsalted = fnv1a("camp\u{1f}1".as_bytes());
        assert_ne!(key, unsalted, "epoch salt must change the key");
        let salted = fnv1a(format!("epoch{NUMERICS_EPOCH}\u{1f}camp\u{1f}1").as_bytes());
        assert_eq!(key, salted);
    }

    #[test]
    fn raw_line_access_is_bit_exact_and_first_writer_wins() {
        let cache = ResultCache::in_memory();
        assert!(cache.put_line("c", 9, &64.25f64.encode()));
        let line = cache.get_line("c", 9).unwrap();
        assert_eq!(f64::decode(&line), Some(64.25));
        assert!(!cache.put_line("c", 9, "ffffffffffffffff"));
        assert_eq!(cache.get::<f64>("c", 9), Some(64.25), "existing entry kept");
        assert_eq!(cache.get_line("other", 9), None, "campaigns are apart");
    }

    #[test]
    fn an_undecodable_line_is_dropped_so_a_recomputed_value_lands() {
        let cache = ResultCache::in_memory();
        cache.put_line("c", 3, "not-hex");
        assert_eq!(cache.get::<f64>("c", 3), None);
        assert!(cache.put_line("c", 3, &2.5f64.encode()));
        assert_eq!(cache.get::<f64>("c", 3), Some(2.5));
    }

    #[test]
    fn persisted_files_carry_an_epoch_header() {
        let dir = std::env::temp_dir().join("adc_runtime_cache_epoch_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::on_disk(&dir).unwrap();
        cache.put_line("hdr_test", 1, &2.0f64.encode());
        cache.persist("hdr_test").unwrap();
        let text = std::fs::read_to_string(dir.join("hdr_test.cache")).unwrap();
        let first = text.lines().next().unwrap();
        assert_eq!(parse_epoch_header(first), Some(NUMERICS_EPOCH));
        assert_eq!(parse_epoch_header("1\tdeadbeef"), None);
        // Reload skips the header and sees the entry.
        let reload = ResultCache::on_disk(&dir).unwrap();
        assert_eq!(reload.get::<f64>("hdr_test", 1), Some(2.0));
        assert_eq!(reload.len(), 1, "header line is not an entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn f64_codec_is_bit_exact() {
        for value in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            64.23456789012345,
        ] {
            let back = f64::decode(&value.encode()).unwrap();
            assert_eq!(back.to_bits(), value.to_bits());
        }
        let nan = f64::decode(&f64::NAN.encode()).unwrap();
        assert!(nan.is_nan());
    }

    #[test]
    fn tuple_and_vec_codecs_round_trip() {
        let point = (1.0f64, 2.5f64, -3.25f64);
        assert_eq!(<(f64, f64, f64)>::decode(&point.encode()), Some(point));
        let series: Vec<(f64, f64)> = vec![(1.0, 2.0), (3.0, 4.0)];
        assert_eq!(
            Vec::<(f64, f64)>::decode(&series.encode()),
            Some(series.clone())
        );
        assert_eq!(Vec::<f64>::decode(""), Some(vec![]));
        assert_eq!(<(f64, f64)>::decode("deadbeef"), None);
    }

    #[test]
    fn memory_cache_stores_and_misses() {
        let cache = ResultCache::in_memory();
        assert!(cache.is_empty());
        assert_eq!(cache.get::<f64>("c", 1), None);
        cache.put_line("c", 1, &64.25f64.encode());
        assert_eq!(cache.get::<f64>("c", 1), Some(64.25));
        assert_eq!(cache.len(), 1);
        assert!(cache.persist("c").is_ok(), "persist is a no-op in memory");
    }

    #[test]
    fn disk_cache_round_trips_across_instances() {
        let dir = std::env::temp_dir().join("adc_runtime_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::on_disk(&dir).unwrap();
            cache.put_line("fig_test", 42, &(1.5f64, 2.5f64).encode());
            cache.persist("fig_test").unwrap();
        }
        {
            let cache = ResultCache::on_disk(&dir).unwrap();
            assert!(cache.is_empty(), "nothing read before first use");
            assert_eq!(cache.get::<(f64, f64)>("fig_test", 42), Some((1.5, 2.5)));
            assert_eq!(cache.get::<(f64, f64)>("other", 42), None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
