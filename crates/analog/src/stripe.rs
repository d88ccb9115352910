//! The per-sample noise engine: SplitMix64 streams with a polynomial
//! Box–Muller transform, built to be drawn in flat blocks.
//!
//! [`NoiseSource`](crate::noise::NoiseSource) (StdRng + libm Box–Muller)
//! is the right tool for *fabrication*: it runs once per die, and its
//! statistical pedigree is what makes Monte-Carlo process spread
//! trustworthy. It is the wrong tool for the conversion hot path, where
//! the nominal converter consumes ~12 Gaussian draws per sample and each
//! libm `ln`/`sin`/`cos` call is a long serial dependency chain that
//! out-of-order hardware cannot overlap across independent lanes — the
//! draws alone were ~a third of scalar conversion time and pinned the
//! lane-parallel kernel's speedup at ~1×.
//!
//! [`SampleNoise`] replaces the hot-path draws with:
//!
//! * a **SplitMix64** state per die — one add + two xor-multiply mixes
//!   per u64, trivially inlined, with the whole generator state a single
//!   `u64` that a converter can pre-draw from in one flat block per
//!   chunk of samples;
//! * the **paired Box–Muller** transform: words `2k` and `2k+1` give
//!   `u₁, u₂`, and with `r = √(−2 ln u₁)` the pair yields the two
//!   independent deviates `r·cos(2π u₂)` and `r·sin(2π u₂)`, evaluated
//!   with branch-free polynomial `ln`/`sin`/`cos` kernels (no libm
//!   calls, nothing opaque to the autovectorizer). One `ln` and one
//!   `sqrt` serve two deviates, and the sine costs only a quadrant
//!   select, since the cosine kernel already forms both half-angle
//!   polynomials. Consumers ask for whole pairs only
//!   ([`standard_normal_fill`] over an even count), so no half-pair is
//!   ever held between calls and a stream position stays one `u64`.
//!
//! The same generator backs each comparator's private decision-noise
//! stream ([`crate::comparator::Comparator`]), which steps one pair at a
//! time and keeps its cosine half ([`standard_normal_step`]).
//!
//! The polynomial kernels are accurate to ≲1e-9 relative (`ln`) and
//! ≲1e-13 absolute (`sin`, `cos`) — error some 60 dB below the
//! −110 dBFS simulation noise floors they feed — and the moments and
//! correlations of the resulting deviates match independent standard
//! normals to Monte-Carlo precision (see the tests). Realizations differ
//! from the old libm path and from the single-sided transform before the
//! pairing, which is a
//! [`NUMERICS_EPOCH`](../../adc_runtime/cache/constant.NUMERICS_EPOCH.html)
//! bump, not a behavioural change; dies themselves are fabricated from
//! the untouched [`NoiseSource`](crate::noise::NoiseSource) stream and
//! are bit-identical across the switch.

/// Golden-ratio increment of the SplitMix64 sequence.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// 2⁻⁵³, the spacing of the 53-bit uniform grid.
const U53: f64 = 1.0 / (1u64 << 53) as f64;

/// 1.5·2⁵²: added to an integer-valued `f64` of magnitude below 2⁵¹,
/// it leaves that integer, two's complement, in the low mantissa bits
/// (and its own low 12 bits are zero). This is how the kernels below
/// read integer bits out of a float without an `f64 → int` conversion,
/// which AVX2 only has in a form that LLVM splits into scalar code.
const MAGIC: f64 = 6_755_399_441_055_744.0;

/// Converts a stream word's top bits, `m ≤ 2⁵³`, to `f64` exactly.
///
/// `m as f64` would do, but x86-64 has no packed `u64 → f64` below
/// AVX-512, so it lowers the whole fill loop to per-lane scalar code.
/// Both 32-bit halves convert exactly, `hi · 2³²` is exact, and their
/// sum is `m`, which an `f64` holds exactly: the same bits as the cast.
#[inline(always)]
fn exact_f64(m: u64) -> f64 {
    f64::from((m >> 32) as u32) * 4_294_967_296.0 + f64::from(m as u32)
}

/// Advances a SplitMix64 state and returns the next output word.
///
/// This is the reference SplitMix64 finalizer (Steele, Lea & Flood,
/// "Fast splittable pseudorandom number generators"): an odd-gamma
/// Weyl sequence pushed through two xor-multiply avalanche rounds.
/// Exposed as a free function over a bare `&mut u64` so comparators and
/// seed derivations can advance plain state words; [`SampleNoise`] is
/// the owning-struct view of the same sequence.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Natural log of `x` for `x ∈ (0, 1]`, branch-free polynomial kernel.
///
/// Splits `x = m·2ᵉ` by bit manipulation, normalizes the mantissa into
/// `[√2/2, √2)` so the atanh argument `r = (m−1)/(m+1)` stays below
/// 0.1716, and sums the odd atanh series through r¹³. Relative error is
/// below 1e-9 across the full range (dominated by the truncated r¹⁵
/// term), which is ~180 dB down on the deviates it produces.
#[inline]
fn ln_unit(x: f64) -> f64 {
    const LN2: f64 = std::f64::consts::LN_2;
    const SQRT2: f64 = std::f64::consts::SQRT_2;
    let bits = x.to_bits();
    // The exponent stays in i32: packed i32→f64 conversion exists on
    // every x86-64, i64→f64 does not, and a stray widening here is
    // enough to scare the autovectorizer off the whole stripe.
    let e = ((bits >> 52) as i32) - 1023;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Renormalize so m ∈ [√2/2, √2): halve m, carry the octave into e.
    // Branchless — the predicate is a coin flip on random uniforms, so a
    // branch would mispredict half the time and serialize the stripe.
    let hi = i32::from(m >= SQRT2);
    let e = e + hi;
    let m = m * (1.0 - 0.5 * f64::from(hi)); // exact: scales by 1.0 or 0.5
    let r = (m - 1.0) / (m + 1.0);
    // atanh series ln m = 2r·Σ r²ᵏ/(2k+1), summed Estrin-style so the
    // chain depth is ~half of Horner's.
    let r2 = r * r;
    let r4 = r2 * r2;
    let s01 = 1.0 + r2 * (1.0 / 3.0);
    let s23 = 1.0 / 5.0 + r2 * (1.0 / 7.0);
    let s45 = 1.0 / 9.0 + r2 * (1.0 / 11.0);
    let s67 = 1.0 / 13.0;
    let series = (s01 + r4 * s23) + (r4 * r4) * (s45 + r4 * s67);
    f64::from(e) * LN2 + 2.0 * r * series
}

/// `(cos 2πu, sin 2πu)` for `u ∈ [0, 1]`, branch-free polynomial
/// kernel.
///
/// Quadrant-reduces in *turns* (no 2π range-reduction rounding): with
/// `k = round(4u)` the residual angle `φ = 2π(u − k/4)` lies in
/// `[−π/4, π/4]`, where the cosine and sine Taylor polynomials through
/// φ¹⁴/φ¹³ are accurate to ≲1e-13 absolute. Quadrant `k` rotates the
/// pair by `k·π/2`: odd quadrants swap the two polynomials, and the
/// quadrant's bits pick each half's sign. The select is integer masks
/// on the bit patterns, so it is exact and branch-free, and every
/// instantiation (SSE2, AVX2) returns the same bits.
///
/// Public for the other per-sample kernels that evaluate sines in
/// turns (the testbench's tone fill); `inline(always)` so each of their
/// feature-gated clones instantiates it under its own target features.
#[inline(always)]
pub fn sincos_turns(u: f64) -> (f64, f64) {
    const TWO_PI: f64 = std::f64::consts::TAU;
    // k ∈ {0,1,2,3,4}; k=4 aliases quadrant 0 with a negative φ. The
    // argument is non-negative, so truncation *is* floor. `trunc` stays
    // in floating point (one packed round under AVX2), and the
    // quadrant's bits come out of `k + MAGIC` rather than an `as i32`
    // cast.
    let k = (4.0 * u + 0.5).trunc();
    let phi = TWO_PI * (u - 0.25 * k);
    // cos φ and sin φ on |φ| ≤ π/4: Taylor in φ², Estrin-summed so the
    // two chains are short and run concurrently.
    let p2 = phi * phi;
    let p4 = p2 * p2;
    let p8 = p4 * p4;
    let c01 = 1.0 + p2 * (-1.0 / 2.0);
    let c23 = 1.0 / 24.0 + p2 * (-1.0 / 720.0);
    let c45 = 1.0 / 40_320.0 + p2 * (-1.0 / 3_628_800.0);
    let c67 = 1.0 / 479_001_600.0 + p2 * (-1.0 / 87_178_291_200.0);
    let cos_p = (c01 + p4 * c23) + p8 * (c45 + p4 * c67);
    let s01 = 1.0 + p2 * (-1.0 / 6.0);
    let s23 = 1.0 / 120.0 + p2 * (-1.0 / 5_040.0);
    let s45 = 1.0 / 362_880.0 + p2 * (-1.0 / 39_916_800.0);
    let s67 = 1.0 / 6_227_020_800.0;
    let sin_p = phi * ((s01 + p4 * s23) + p8 * (s45 + p4 * s67));
    // Quadrant combine, branchless (on random phases the quadrant is a
    // coin flip, so branches would mispredict half the time):
    //   k:        0      1      2      3
    //   cos:    cos φ  −sin φ −cos φ   sin φ
    //   sin:    sin φ   cos φ −sin φ  −cos φ
    let kb = (k + MAGIC).to_bits();
    let swap = (kb & 1).wrapping_neg();
    let (cb, sb) = (cos_p.to_bits(), sin_p.to_bits());
    let cos_sign = ((kb.wrapping_add(1) >> 1) & 1) << 63;
    let sin_sign = ((kb >> 1) & 1) << 63;
    (
        f64::from_bits(((sb & swap) | (cb & !swap)) ^ cos_sign),
        f64::from_bits(((cb & swap) | (sb & !swap)) ^ sin_sign),
    )
}

/// `x − ⌊x⌋` for `|x| < 2⁵¹`: the fractional part of a phase in turns,
/// in `[0, 1]`, branch-free and exact up to the final subtraction's
/// rounding (which can only carry a tiny negative `x` up to `1.0`, a
/// whole turn that [`sincos_turns`] accepts).
///
/// `⌊x⌋` comes from rounding through `1.5·2⁵²` and stepping down where
/// that rounded up: two IEEE-exact adds and a compare-select that pack
/// on every x86-64, where `f64::floor` is a libm call below SSE4.1.
#[inline(always)]
pub fn frac_turns(x: f64) -> f64 {
    let nearest = (x + MAGIC) - MAGIC;
    let floor = nearest - if nearest > x { 1.0 } else { 0.0 };
    x - floor
}

/// `exp(x)` for `x ≤ 0`, branch-free polynomial kernel.
///
/// Splits `x = (k + r)·ln 2` with `k` an integer and `|r·ln 2| ≤
/// (ln 2)/2 + 1 ulp, evaluates `eʳˡⁿ²` by a Taylor polynomial through
/// degree 13 (Estrin-summed), and applies `2ᵏ` by exponent-bit
/// arithmetic. Relative error is ≲1e-13 across the domain; inputs
/// below −708 are clamped (the true value there, <1e-307, is zero for
/// every model purpose).
///
/// This exists for the settling hot path: the slew-limited branch of
/// the opamp model needs `exp(−t/τ)` of a *data-dependent* duration,
/// and a libm call there is both a serial dependency chain and an
/// autovectorization barrier in the record kernel's amplify loop. Like
/// the `ln`/`cos` kernels, this one is pure arithmetic and packs.
#[inline(always)]
pub fn exp_nonpos(x: f64) -> f64 {
    const LOG2_E: f64 = std::f64::consts::LOG2_E;
    const LN_2: f64 = std::f64::consts::LN_2;
    let x = x.max(-708.0);
    let y = x * LOG2_E;
    // Round to nearest integer below: y ≤ 0, so truncating y − ½ rounds
    // half away from zero — any consistent rounding with |r| ≤ 0.5 + ulp
    // works. `trunc` keeps k in floating point, so no `as i32` cast
    // turns the packed loop into per-lane scalar code.
    let k = (y - 0.5).trunc();
    let r = (y - k) * LN_2;
    // exp(r) on |r| ≲ 0.35: Taylor through r¹³, Estrin-summed.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let e01 = 1.0 + r;
    let e23 = 1.0 / 2.0 + r * (1.0 / 6.0);
    let e45 = 1.0 / 24.0 + r * (1.0 / 120.0);
    let e67 = 1.0 / 720.0 + r * (1.0 / 5_040.0);
    let e89 = 1.0 / 40_320.0 + r * (1.0 / 362_880.0);
    let e1011 = 1.0 / 3_628_800.0 + r * (1.0 / 39_916_800.0);
    let e1213 = 1.0 / 479_001_600.0 + r * (1.0 / 6_227_020_800.0);
    let lo = (e01 + r2 * e23) + r4 * (e45 + r2 * e67);
    let hi = (e89 + r2 * e1011) + r4 * e1213;
    let p = lo + r8 * hi;
    // 2ᵏ: k ≥ −1022 after the clamp, so the biased exponent stays
    // positive and the bit pattern is a normal number. `k + MAGIC`
    // holds k in its low bits; the shift keeps only the low 12 bits of
    // the biased sum, where the magic constant has none.
    let scale = f64::from_bits((k + MAGIC).to_bits().wrapping_add(1023) << 52);
    p * scale
}

/// The paired Box–Muller transform shared by every draw shape (the
/// comparators' pair step and the stream fill), so their deviates are
/// bit-identical by construction.
#[inline(always)]
fn box_muller_pair(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln_unit(u1)).sqrt();
    let (c, s) = sincos_turns(u2);
    (r * c, r * s)
}

/// The uniforms of one pair of stream words: `u₁ ∈ (0, 1]` (offset by
/// one grid step so the log argument is never zero) and `u₂ ∈ [0, 1)`.
#[inline(always)]
fn uniforms(w1: u64, w2: u64) -> (f64, f64) {
    (exact_f64((w1 >> 11) + 1) * U53, exact_f64(w2 >> 11) * U53)
}

/// Advances `state` by one pair of standard-normal draws (two SplitMix64
/// words): `(r·cos 2πu₂, r·sin 2πu₂)` with `r = √(−2 ln u₁)`.
#[inline]
fn standard_normal_pair(state: &mut u64) -> (f64, f64) {
    let w1 = splitmix64(state);
    let w2 = splitmix64(state);
    let (u1, u2) = uniforms(w1, w2);
    box_muller_pair(u1, u2)
}

/// Advances `state` by one pair of words and returns the pair's cosine
/// half, `√(−2 ln u₁)·cos(2π u₂)`.
///
/// A free function over a bare state word for the same reason as
/// [`splitmix64`]: each comparator advances its own bare state word
/// with it, one decision at a time, and never needs the sine half. The
/// cosine half is exactly the deviate of the single-sided transform the
/// comparators used before the pairing, so their decisions did not
/// change with it.
#[inline]
pub fn standard_normal_step(state: &mut u64) -> f64 {
    standard_normal_pair(state).0
}

/// Pairs of words transformed per pass of [`standard_normal_fill`]:
/// small enough to live on the stack and in L1, large enough to
/// amortize the transform loop's constant loads.
const FILL_BLOCK: usize = 64;

/// Fills `out` with standard normals from one stream: `out[2k]` and
/// `out[2k + 1]` are the cosine and sine halves of the `k`-th
/// Box–Muller pair from `state`, which advances by `out.len()` words
/// (rounded up to even: an odd count drops the last sine half) — the
/// record kernel's per-chunk pre-draw.
///
/// Only the scheduling differs from a loop of pairs. SplitMix64 is a
/// Weyl sequence, so word `w` of the stream is the finalizer applied to
/// `state + (w+1)·γ`: every word is computed from its index with no
/// chain through the previous one. Each block of `FILL_BLOCK` pairs
/// generates its uniforms in one pass of independent integer work, then
/// transforms them in one flat branch-free loop with no intervening code
/// to spill its polynomial constants.
pub fn standard_normal_fill(state: &mut u64, out: &mut [f64]) {
    // Same multiversioning discipline as the amplify kernel: the AVX2
    // clone widens the identical IEEE-exact arithmetic from SSE2's
    // 2-wide to 4-wide (no FMA contraction — Rust never enables it),
    // so deviates stay bit-identical.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by runtime feature detection.
        unsafe { standard_normal_fill_avx2(state, out) };
        return;
    }
    standard_normal_fill_impl(state, out);
}

/// AVX2 re-instantiation of [`standard_normal_fill_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn standard_normal_fill_avx2(state: &mut u64, out: &mut [f64]) {
    standard_normal_fill_impl(state, out);
}

/// Portable body of [`standard_normal_fill`]; `inline(always)` so the
/// feature-gated wrapper re-instantiates it under its own target
/// features.
#[inline(always)]
fn standard_normal_fill_impl(state: &mut u64, out: &mut [f64]) {
    // Uniforms in, deviates out: after the transform `a` holds the
    // cosine halves and `b` the sine halves.
    let mut a = [0.0f64; FILL_BLOCK];
    let mut b = [0.0f64; FILL_BLOCK];
    for block in out.chunks_mut(2 * FILL_BLOCK) {
        let n = block.len().div_ceil(2);
        let base = *state;
        for (i, (u1, u2)) in a[..n].iter_mut().zip(&mut b[..n]).enumerate() {
            // Pair i eats words 2i and 2i+1: states base + (2i+1)·γ and
            // base + (2i+2)·γ, each finalized on its own.
            let mut s1 = base.wrapping_add((2 * i as u64).wrapping_mul(GAMMA));
            let mut s2 = s1.wrapping_add(GAMMA);
            (*u1, *u2) = uniforms(splitmix64(&mut s1), splitmix64(&mut s2));
        }
        let mut pairs = block.chunks_exact_mut(2);
        for (pair, (&u1, &u2)) in (&mut pairs).zip(a.iter().zip(&b)) {
            (pair[0], pair[1]) = box_muller_pair(u1, u2);
        }
        if let [last] = pairs.into_remainder() {
            *last = box_muller_pair(a[n - 1], b[n - 1]).0;
        }
        *state = base.wrapping_add((2 * n as u64).wrapping_mul(GAMMA));
    }
}

/// A die's per-sample noise stream: jitter, front-end, and merged
/// per-stage draws all come from here during conversion (fabrication
/// stays on the die's [`NoiseSource`](crate::noise::NoiseSource);
/// comparators draw from their own streams).
///
/// The entire generator state is one `u64`, and the only way to draw is
/// a block fill ([`SampleNoise::fill`]), so the record kernel pre-draws
/// a whole chunk in one flat pass and a held conversion draws its own
/// block the same way.
///
/// ```
/// use adc_analog::stripe::SampleNoise;
/// let (mut a, mut b) = (SampleNoise::from_seed(7), SampleNoise::from_seed(7));
/// let (mut za, mut zb) = ([0.0; 12], [0.0; 12]);
/// a.fill(&mut za);
/// b.fill(&mut zb[..6]);
/// b.fill(&mut zb[6..]);
/// assert_eq!(za, zb);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleNoise {
    state: u64,
}

impl SampleNoise {
    /// Creates a stream from a 64-bit seed (typically
    /// [`NoiseSource::fork_seed`](crate::noise::NoiseSource::fork_seed)
    /// of the die's root source, so dies stay bit-identical while their
    /// sample streams stay die-independent).
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Draws `out.len()` standard normals through
    /// [`standard_normal_fill`]. Fills of even length compose: two
    /// consecutive fills draw exactly what one fill of their combined
    /// length would.
    pub fn fill(&mut self, out: &mut [f64]) {
        standard_normal_fill(&mut self.state, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs for seed 0 from the Steele–Lea–Flood
        // finalizer (cross-checked against the Vigna C implementation).
        let mut s = 0u64;
        let first: Vec<u64> = (0..3).map(|_| splitmix64(&mut s)).collect();
        assert_eq!(
            first,
            vec![
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn ln_kernel_tracks_libm_to_1e9_relative() {
        let mut s = 12345u64;
        for _ in 0..200_000 {
            let u = ((splitmix64(&mut s) >> 11) + 1) as f64 * U53;
            let got = ln_unit(u);
            let want = u.ln();
            let tol = 1e-9 * want.abs().max(1e-12);
            assert!(
                (got - want).abs() <= tol,
                "ln({u:e}): got {got:e}, want {want:e}"
            );
        }
        // Exact anchors.
        assert_eq!(ln_unit(1.0), 0.0);
        assert!((ln_unit(0.5) + std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn sincos_kernel_tracks_libm_to_1e12_absolute() {
        let mut s = 777u64;
        for _ in 0..200_000 {
            let u = (splitmix64(&mut s) >> 11) as f64 * U53;
            let (c, si) = sincos_turns(u);
            let (want_s, want_c) = (std::f64::consts::TAU * u).sin_cos();
            assert!((c - want_c).abs() < 1e-12, "cos(2π·{u}): {c} vs {want_c}");
            assert!((si - want_s).abs() < 1e-12, "sin(2π·{u}): {si} vs {want_s}");
        }
        // Octant boundaries, and u = 1 (a phase reduced to [0, 1]).
        for k in 0..=8 {
            let u = f64::from(k) / 8.0;
            let (c, si) = sincos_turns(u);
            let (want_s, want_c) = (std::f64::consts::TAU * u).sin_cos();
            assert!((c - want_c).abs() < 1e-12, "cos at u = {u}");
            assert!((si - want_s).abs() < 1e-12, "sin at u = {u}");
        }
    }

    #[test]
    fn frac_turns_is_x_minus_floor() {
        let mut s = 99u64;
        let mut xs = vec![0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.5, -2.5, 1e-300, -1e-20];
        for _ in 0..100_000 {
            let u = (splitmix64(&mut s) >> 11) as f64 * U53;
            xs.extend([u, -u, 1e6 * (u - 0.5), 4e14 * (u - 0.5)]);
        }
        for x in xs {
            let f = frac_turns(x);
            // `==`, not bits: −0.0 maps to −0.0 here and to +0.0 via
            // libm, the same angle.
            assert!(f == x - x.floor(), "frac({x:e}) = {f}");
            assert!((0.0..=1.0).contains(&f), "frac({x:e}) = {f}");
        }
    }

    #[test]
    fn exp_kernel_tracks_libm_to_1e13_relative() {
        let mut s = 4242u64;
        for _ in 0..200_000 {
            // Exercise the magnitudes the settle path produces (t/τ up
            // to ~60) plus a deep tail.
            let u = (splitmix64(&mut s) >> 11) as f64 * U53;
            for x in [-60.0 * u, -700.0 * u * u * u] {
                let got = exp_nonpos(x);
                let want = x.exp();
                assert!(
                    (got - want).abs() <= 1e-13 * want,
                    "exp({x:e}): got {got:e}, want {want:e}"
                );
            }
        }
        // Anchors.
        assert_eq!(exp_nonpos(0.0), 1.0);
        assert!((exp_nonpos(-1.0) - (-1.0f64).exp()).abs() < 1e-14);
        // Deeply clamped inputs still return a positive normal number.
        assert!(exp_nonpos(-1e9) > 0.0);
    }

    /// Mean, variance, skew and kurtosis of `z`.
    fn moments(z: impl Iterator<Item = f64>) -> [f64; 4] {
        let (mut m, mut k) = ([0.0; 4], 0.0);
        for x in z {
            m[0] += x;
            m[1] += x * x;
            m[2] += x * x * x;
            m[3] += x * x * x * x;
            k += 1.0;
        }
        m.map(|v| v / k)
    }

    #[test]
    fn each_half_of_the_pair_has_standard_normal_moments() {
        let mut z = vec![0.0; 2_000_000];
        SampleNoise::from_seed(42).fill(&mut z);
        for (half, name) in [(0, "cos"), (1, "sin")] {
            let [m1, m2, m3, m4] = moments(z.iter().skip(half).step_by(2).copied());
            // 10⁶ draws: standard errors 1e-3 (mean), 1.4e-3
            // (variance), 2.4e-3 (skew), 9.8e-3 (kurtosis).
            assert!(m1.abs() < 5e-3, "{name} mean {m1}");
            assert!((m2 - 1.0).abs() < 5e-3, "{name} variance {m2}");
            assert!(m3.abs() < 2e-2, "{name} skew {m3}");
            assert!((m4 - 3.0).abs() < 5e-2, "{name} kurtosis {m4}");
        }
    }

    #[test]
    fn paired_deviates_are_uncorrelated() {
        // For independent standard normals a product has mean 0 and
        // variance 1, so each correlation below is 0 ± 1/√N; the bound
        // is 5/√N. Within a pair the halves share `r`, so this is the
        // check that sharing it correlates nothing.
        let mut z = vec![0.0; 2_000_000];
        SampleNoise::from_seed(4242).fill(&mut z);
        let corr = |pairs: &mut dyn Iterator<Item = (f64, f64)>| {
            let (mut sum, mut n) = (0.0, 0.0);
            for (a, b) in pairs {
                sum += a * b;
                n += 1.0;
            }
            (sum / n, 5.0 / f64::sqrt(n))
        };
        let cases: [(&str, &mut dyn Iterator<Item = (f64, f64)>); 3] = [
            (
                "within a pair",
                &mut z.chunks_exact(2).map(|p| (p[0], p[1])),
            ),
            ("lag 1", &mut z.windows(2).map(|w| (w[0], w[1]))),
            (
                "across pairs",
                &mut z[1..].chunks_exact(2).map(|p| (p[0], p[1])),
            ),
        ];
        for (name, pairs) in cases {
            let (r, bound) = corr(pairs);
            assert!(r.abs() < bound, "{name}: correlation {r} (bound {bound})");
        }
        // The squares of a pair are uncorrelated too (r² = −2 ln u₁
        // is shared, so a dependence would show here first): for
        // independent normals cov(z₀², z₁²) = 0 with standard error
        // √2·√2/√N = 2/√N.
        let n = (z.len() / 2) as f64;
        let cov = z
            .chunks_exact(2)
            .map(|p| (p[0] * p[0] - 1.0) * (p[1] * p[1] - 1.0))
            .sum::<f64>()
            / n;
        assert!(cov.abs() < 10.0 / n.sqrt(), "cov of squares {cov}");
    }

    #[test]
    fn fills_of_even_length_compose() {
        let mut whole = SampleNoise::from_seed(1234);
        let mut parts = whole;
        let mut a = vec![0.0; 300];
        let mut b = vec![0.0; 300];
        whole.fill(&mut a);
        for piece in b.chunks_mut(12) {
            parts.fill(piece);
        }
        assert_eq!(whole, parts, "stream position");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "draw {i}");
        }
    }

    /// The kernels' conversions as they were written before they went
    /// exact: `as i32` for the integer parts and `u64 as f64` for the
    /// uniforms, the arithmetic otherwise unchanged. References for
    /// `exact_conversions_match_the_cast_forms_bit_for_bit`.
    fn exp_nonpos_cast(x: f64) -> f64 {
        let x = x.max(-708.0);
        let y = x * std::f64::consts::LOG2_E;
        let k = (y - 0.5) as i32;
        let r = (y - f64::from(k)) * std::f64::consts::LN_2;
        let r2 = r * r;
        let r4 = r2 * r2;
        let r8 = r4 * r4;
        let e01 = 1.0 + r;
        let e23 = 1.0 / 2.0 + r * (1.0 / 6.0);
        let e45 = 1.0 / 24.0 + r * (1.0 / 120.0);
        let e67 = 1.0 / 720.0 + r * (1.0 / 5_040.0);
        let e89 = 1.0 / 40_320.0 + r * (1.0 / 362_880.0);
        let e1011 = 1.0 / 3_628_800.0 + r * (1.0 / 39_916_800.0);
        let e1213 = 1.0 / 479_001_600.0 + r * (1.0 / 6_227_020_800.0);
        let lo = (e01 + r2 * e23) + r4 * (e45 + r2 * e67);
        let hi = (e89 + r2 * e1011) + r4 * e1213;
        let p = lo + r8 * hi;
        p * f64::from_bits(((1023 + k) as u64) << 52)
    }

    fn sincos_turns_cast(u: f64) -> (f64, f64) {
        let k = (4.0 * u + 0.5) as i32;
        let phi = std::f64::consts::TAU * (u - 0.25 * f64::from(k));
        let p2 = phi * phi;
        let p4 = p2 * p2;
        let p8 = p4 * p4;
        let c01 = 1.0 + p2 * (-1.0 / 2.0);
        let c23 = 1.0 / 24.0 + p2 * (-1.0 / 720.0);
        let c45 = 1.0 / 40_320.0 + p2 * (-1.0 / 3_628_800.0);
        let c67 = 1.0 / 479_001_600.0 + p2 * (-1.0 / 87_178_291_200.0);
        let cos_p = (c01 + p4 * c23) + p8 * (c45 + p4 * c67);
        let s01 = 1.0 + p2 * (-1.0 / 6.0);
        let s23 = 1.0 / 120.0 + p2 * (-1.0 / 5_040.0);
        let s45 = 1.0 / 362_880.0 + p2 * (-1.0 / 39_916_800.0);
        let s67 = 1.0 / 6_227_020_800.0;
        let sin_p = phi * ((s01 + p4 * s23) + p8 * (s45 + p4 * s67));
        // The rotation by k quarter turns, as a match on the cast
        // quadrant.
        match k & 3 {
            0 => (cos_p, sin_p),
            1 => (-sin_p, cos_p),
            2 => (-cos_p, -sin_p),
            _ => (sin_p, -cos_p),
        }
    }

    #[test]
    fn exact_conversions_match_the_cast_forms_bit_for_bit() {
        let mut s = 0x5EED_u64;
        let mut unit = || (splitmix64(&mut s) >> 11) as f64 * U53;

        // exp: the settle path's magnitudes, the clamp and beyond it,
        // signed zeros, subnormal arguments.
        let mut xs = vec![0.0, -0.0, -5e-324, -1e-300, -708.0, -708.5, -1e9, f64::MIN];
        xs.push(f64::NEG_INFINITY);
        for _ in 0..100_000 {
            let u = unit();
            xs.extend([-60.0 * u, -750.0 * u, -u]);
        }
        // Arguments whose `y − 0.5` is an exact integer: the rounding
        // edge of `k`. Scan a few ulps around each `x = (k + ½)·ln 2`.
        let mut edges = 0;
        for k in -1022..0 {
            let x0 = (f64::from(k) + 0.5) / std::f64::consts::LOG2_E;
            for d in -4i64..=4 {
                let x = f64::from_bits((x0.to_bits() as i64 + d) as u64);
                let y = x * std::f64::consts::LOG2_E - 0.5;
                if y.trunc() == y {
                    edges += 1;
                    xs.push(x);
                }
            }
        }
        assert!(edges > 100, "only {edges} exact-integer edges found");
        for x in xs {
            assert_eq!(
                exp_nonpos(x).to_bits(),
                exp_nonpos_cast(x).to_bits(),
                "exp_nonpos({x:e})"
            );
        }

        // sin and cos: every octant boundary u = k/8 (u = 1 included)
        // and its neighbours, plus the uniform grid the draws use.
        let mut us: Vec<f64> = (0..=8)
            .flat_map(|k| {
                let u = f64::from(k) / 8.0;
                [
                    u,
                    f64::from_bits(u.to_bits() + 1),
                    f64::from_bits(u.to_bits().max(1) - 1),
                ]
            })
            .collect();
        us.push(1.0 - U53);
        us.extend((0..100_000).map(|_| unit()));
        for u in us {
            let (c, si) = sincos_turns(u);
            let (want_c, want_s) = sincos_turns_cast(u);
            assert_eq!(c.to_bits(), want_c.to_bits(), "cos half at {u:e}");
            assert_eq!(si.to_bits(), want_s.to_bits(), "sin half at {u:e}");
        }

        // Uniform words: both ends, the 32-bit seam, and 2⁵³ itself
        // (the `+ 1` of the log argument's top word).
        let mut ms = vec![
            0u64,
            1,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            (1 << 53) - 1,
            1 << 53,
        ];
        ms.extend((0..100_000).map(|i| (splitmix64(&mut s) >> 11) + (i & 1)));
        for m in ms {
            assert_eq!(exact_f64(m).to_bits(), (m as f64).to_bits(), "m = {m}");
        }
    }

    #[test]
    fn portable_fill_matches_the_dispatched_fill() {
        // On an AVX2 host the dispatched fill never runs the portable
        // (SSE2) instantiation; call its body directly. 3072 draws are
        // one 256-sample chunk at ten stages; odd counts end in a half
        // pair.
        for count in [0usize, 1, 2, 63, 127, 128, 129, 130, 3072, 3329] {
            let (mut a, mut b) = (
                0x00DD_BA11_u64 ^ count as u64,
                0x00DD_BA11_u64 ^ count as u64,
            );
            let (mut za, mut zb) = (vec![0.0; count], vec![0.0; count]);
            standard_normal_fill(&mut a, &mut za);
            standard_normal_fill_impl(&mut b, &mut zb);
            assert_eq!(a, b, "state after {count} draws");
            for (i, (x, y)) in za.iter().zip(&zb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "draw {i} of {count}");
            }
        }
    }

    #[test]
    fn stream_fill_matches_pair_steps_bit_for_bit() {
        for count in [0usize, 1, 2, 7, 12, 127, 128, 129, 300, 3072] {
            let mut filled = 0xDEAD_BEEF_u64 ^ count as u64;
            let mut scalar = filled;
            let mut z = vec![0.0; count];
            for round in 0..3 {
                standard_normal_fill(&mut filled, &mut z);
                for (k, pair) in z.chunks(2).enumerate() {
                    let (c, s) = standard_normal_pair(&mut scalar);
                    let want = [c, s];
                    for (half, (got, want)) in pair.iter().zip(want).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "pair {k} half {half} of {count}, round {round}"
                        );
                    }
                }
                assert_eq!(filled, scalar, "state diverged ({count} draws)");
            }
        }
    }

    #[test]
    fn the_comparator_step_is_unchanged_by_the_pairing() {
        // `standard_normal_step` is the cosine half of the pair, which
        // is the single-sided deviate the comparators drew before the
        // pairing: these are its first six draws from one seed, recorded
        // from the single-sided kernel.
        const SINGLE_SIDED: [u64; 6] = [
            0x3fe3_8b58_66a0_43d0,
            0xbfe5_c95d_0dcf_373f,
            0x3fe2_61f9_b81e_a953,
            0x3ffd_1e5e_f548_fc5e,
            0xbff6_3e97_2ea9_353a,
            0xbfe1_55c6_4093_c967,
        ];
        let (mut step, mut pair) = (0x00C0_FFEE_u64, 0x00C0_FFEE_u64);
        for want in SINGLE_SIDED {
            let z = standard_normal_step(&mut step);
            assert_eq!(z.to_bits(), want);
            assert_eq!(z.to_bits(), standard_normal_pair(&mut pair).0.to_bits());
        }
        assert_eq!(step, pair);
    }
}
