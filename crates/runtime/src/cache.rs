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

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

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

/// [`canonical_key`] over a *pre-rendered* canonical form.
///
/// Remote hosts receive job configurations as strings (the wire cannot
/// carry arbitrary `Debug` types), so they need to key the shared cache
/// from the rendered form alone. This hashes exactly the bytes
/// `canonical_key` would hash when `config_debug ==
/// format!("{config:?}")` — the invariant that lets a cluster peer, a
/// local on-disk cache, and an in-process run all address one
/// namespace.
pub fn canonical_key_str(campaign: &str, config_debug: &str) -> u64 {
    let canon = format!("epoch{NUMERICS_EPOCH}\u{1f}{campaign}\u{1f}{config_debug}");
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
/// Returns `None` for data lines and for files predating the header
/// (whose entries may still be current — their keys carry the salt).
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

/// A content-addressed result store: in-memory, optionally mirrored to
/// a directory of `<campaign>.cache` files (`key<TAB>value` lines).
/// Backed by a `BTreeMap`, so persistence iterates in key order with
/// no hash-seed dependence — a written cache file is byte-stable.
#[derive(Debug, Default)]
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem: Mutex<BTreeMap<u64, String>>,
}

impl ResultCache {
    /// Acquires the store, recovering from poisoning: a poisoned lock
    /// only means another thread panicked mid-operation, and every
    /// operation here leaves the map itself valid (single `insert` /
    /// `get` calls), so the data is safe to keep using. This keeps the
    /// cache panic-free by construction — a worker panic can never
    /// cascade into a cache panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, String>> {
        self.mem
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A process-local cache with no persistence.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A cache mirrored to `dir` (created if absent). Each campaign
    /// persists to its own file, loaded lazily on first use.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn on_disk<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: Some(dir.as_ref().to_path_buf()),
            mem: Mutex::new(BTreeMap::new()),
        })
    }

    fn campaign_file(&self, campaign: &str) -> Option<PathBuf> {
        let safe: String = campaign
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.dir.as_ref().map(|d| d.join(format!("{safe}.cache")))
    }

    /// Loads a campaign's persisted entries into memory (idempotent).
    pub fn preload(&self, campaign: &str) {
        let Some(path) = self.campaign_file(campaign) else {
            return;
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let mut mem = self.lock();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((key, value)) = line.split_once('\t') {
                if let Ok(key) = key.parse::<u64>() {
                    mem.entry(key).or_insert_with(|| value.to_string());
                }
            }
        }
    }

    /// Looks up a previously stored value.
    pub fn get<T: CacheCodec>(&self, key: u64) -> Option<T> {
        let mem = self.lock();
        mem.get(&key).and_then(|line| T::decode(line))
    }

    /// Stores a value under `key`.
    pub fn put<T: CacheCodec>(&self, key: u64, value: &T) {
        let mut mem = self.lock();
        mem.insert(key, value.encode());
    }

    /// Looks up the raw encoded line under `key`, without decoding.
    ///
    /// The cluster layer moves values between hosts in their encoded
    /// form (the same bytes the codec persists), so cache merges are
    /// bit-exact by construction — no decode/re-encode round trip.
    pub fn get_line(&self, key: u64) -> Option<String> {
        let mem = self.lock();
        mem.get(&key).cloned()
    }

    /// Stores an already-encoded line under `key`, keeping any existing
    /// entry: under the canonical-key contract two writers for one key
    /// hold bit-identical values, so first-writer-wins is a free
    /// at-most-once-apply guarantee.
    pub fn put_line(&self, key: u64, line: &str) {
        let mut mem = self.lock();
        mem.entry(key).or_insert_with(|| line.to_string());
    }

    /// Number of entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes a campaign's in-memory entries back to its file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a no-op for in-memory caches.
    pub fn persist(&self, campaign: &str) -> io::Result<()> {
        let Some(path) = self.campaign_file(campaign) else {
            return Ok(());
        };
        let mem = self.lock();
        let mut out = epoch_header();
        out.push('\n');
        for (key, value) in mem.iter() {
            out.push_str(&format!("{key}\t{value}\n"));
        }
        std::fs::write(path, out)
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
    fn string_keyed_hash_matches_typed_hash() {
        // u64 Debug renders as plain digits, so a remote host holding
        // only the rendered config computes the same key.
        assert_eq!(canonical_key("mc", &7u64), canonical_key_str("mc", "7"));
        assert_eq!(
            canonical_key("mc", &(1u64, 2.5f64)),
            canonical_key_str("mc", "(1, 2.5)")
        );
        assert_ne!(
            canonical_key_str("mc", "7"),
            canonical_key_str("other", "7")
        );
    }

    #[test]
    fn raw_line_access_is_bit_exact_and_first_writer_wins() {
        let cache = ResultCache::in_memory();
        cache.put(9, &64.25f64);
        let line = cache.get_line(9).unwrap();
        assert_eq!(f64::decode(&line), Some(64.25));
        cache.put_line(9, "ffffffffffffffff");
        assert_eq!(cache.get::<f64>(9), Some(64.25), "existing entry kept");
        cache.put_line(10, &1.5f64.encode());
        assert_eq!(cache.get::<f64>(10), Some(1.5));
    }

    #[test]
    fn persisted_files_carry_an_epoch_header() {
        let dir = std::env::temp_dir().join("adc_runtime_cache_epoch_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::on_disk(&dir).unwrap();
        cache.put(1, &2.0f64);
        cache.persist("hdr_test").unwrap();
        let text = std::fs::read_to_string(dir.join("hdr_test.cache")).unwrap();
        let first = text.lines().next().unwrap();
        assert_eq!(parse_epoch_header(first), Some(NUMERICS_EPOCH));
        assert_eq!(parse_epoch_header("1\tdeadbeef"), None);
        // Reload skips the header and sees the entry.
        let reload = ResultCache::on_disk(&dir).unwrap();
        reload.preload("hdr_test");
        assert_eq!(reload.get::<f64>(1), Some(2.0));
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
        assert_eq!(cache.get::<f64>(1), None);
        cache.put(1, &64.25f64);
        assert_eq!(cache.get::<f64>(1), Some(64.25));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_cache_round_trips_across_instances() {
        let dir = std::env::temp_dir().join("adc_runtime_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::on_disk(&dir).unwrap();
            cache.put(42, &(1.5f64, 2.5f64));
            cache.persist("fig_test").unwrap();
        }
        {
            let cache = ResultCache::on_disk(&dir).unwrap();
            assert_eq!(cache.get::<(f64, f64)>(42), None, "not loaded yet");
            cache.preload("fig_test");
            assert_eq!(cache.get::<(f64, f64)>(42), Some((1.5, 2.5)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
