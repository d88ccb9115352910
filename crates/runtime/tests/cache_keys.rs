//! Golden-key regression pins for [`canonical_key`].
//!
//! Cache keys are FNV-1a hashes of `Debug` renderings. That makes them
//! cheap and total, but it also means an *accidental* change to how a
//! config renders — a field rename, a reorder, a future change to
//! Rust's float `Debug` formatting — silently changes every key. The
//! failure mode is not a crash: every on-disk and remote cache entry
//! quietly misses (wasted fleet-hours), or, far worse, two different
//! configs alias to one rendering and a campaign serves the wrong
//! cached numerics. This table pins the exact u64 outputs for a fixed
//! set of canonical inputs so any such drift fails loudly here first.
//!
//! If this test fails because you *intentionally* changed the key
//! schema (e.g. bumped [`NUMERICS_EPOCH`]), recompute the table and say
//! so in the commit — every cached artifact in every deployment is
//! invalidated at that moment.

use adc_runtime::{canonical_key, NUMERICS_EPOCH};

/// A config that `Debug`-renders as exactly the given text, so a golden
/// row's rendered form is hashed byte for byte as `canonical_key` hashes
/// it.
struct Rendered<'a>(&'a str);

impl std::fmt::Debug for Rendered<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// A stand-in for the workspace's plain-data sweep configs; its `Debug`
/// rendering shape (`Cfg { field: value, .. }`) is part of what the
/// golden values pin.
#[derive(Debug)]
#[allow(dead_code)]
struct Cfg {
    f_cr_hz: f64,
    amplitude_v: f64,
    thermal: bool,
}

/// Golden `(campaign, rendered config, key)` rows, computed at
/// `NUMERICS_EPOCH == 5`. The rendered form is exactly what
/// `format!("{config:?}")` produces for the typed values exercised in
/// [`typed_and_string_keys_match_goldens`].
const GOLDEN: &[(&str, &str, u64)] = &[
    ("monte_carlo", "1", 0xc176a4e9597117fb),
    ("monte_carlo", "7", 0xc176aae95971222d),
    ("fig5-rate", "(110000000.0, 4096)", 0x536c282f23e47c81),
    (
        "sweep",
        "Cfg { f_cr_hz: 110000000.0, amplitude_v: 0.98, thermal: true }",
        0x61a0886c2fc9d6ae,
    ),
    (
        "die-tone-metrics",
        "(0, 10000000.0, 4096, 3)",
        0x04a070e60f2e4a30,
    ),
];

#[test]
fn golden_keys_are_pinned() {
    assert_eq!(
        NUMERICS_EPOCH, 5,
        "epoch changed: recompute the golden table (all caches invalidate)"
    );
    for &(campaign, rendered, key) in GOLDEN {
        assert_eq!(
            canonical_key(campaign, &Rendered(rendered)),
            key,
            "key drift for campaign {campaign:?} config {rendered:?}"
        );
    }
}

/// Each typed config must key exactly as its golden rendered form: the
/// table pins the `Debug` renderings as well as the hash.
#[test]
fn typed_and_string_keys_match_goldens() {
    assert_eq!(canonical_key("monte_carlo", &1u64), GOLDEN[0].2);
    assert_eq!(canonical_key("monte_carlo", &7u64), GOLDEN[1].2);
    assert_eq!(
        canonical_key("fig5-rate", &(110_000_000.0f64, 4096u64)),
        GOLDEN[2].2
    );
    assert_eq!(
        canonical_key(
            "sweep",
            &Cfg {
                f_cr_hz: 110e6,
                amplitude_v: 0.98,
                thermal: true,
            }
        ),
        GOLDEN[3].2
    );
    assert_eq!(
        canonical_key("die-tone-metrics", &(0u64, 10e6, 4096u64, 3u64)),
        GOLDEN[4].2
    );
}

/// No two golden rows alias — a sanity floor under the "aliasing is
/// worse than missing" concern.
#[test]
fn golden_keys_are_distinct() {
    for (i, a) in GOLDEN.iter().enumerate() {
        for b in GOLDEN.iter().skip(i + 1) {
            assert_ne!(a.2, b.2, "{:?} aliases {:?}", (a.0, a.1), (b.0, b.1));
        }
    }
}
