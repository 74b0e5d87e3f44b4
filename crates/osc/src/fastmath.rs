//! Branchless double-precision `sin` for the compiled coupling kernels.
//!
//! The coupling drift evaluates one `sin` per active edge per step; on the
//! paper's 2116-oscillator King's graph that is ~8200 sins per RHS call,
//! tens of millions per annealing window. `libm`'s `sin` is accurate to
//! <1 ulp but is an opaque call: the edge loop serializes on it and the
//! auto-vectorizer gives up. [`sin_fast`] is a classical Cody–Waite
//! two-step π/2 reduction plus minimax polynomials with the quadrant
//! select done by bit blending — straight-line FP/integer code with no
//! calls, which LLVM vectorizes when applied over a contiguous buffer
//! (see [`sin_slice`]).
//!
//! **No `f64::round` in the reduction.** The workspace builds for
//! baseline x86-64, which is SSE2 only. SSE2 has no `roundsd`
//! (that arrived with SSE4.1), so `y.round()` lowers to an out-of-line
//! libm `round` call — one per element, and a call inside the loop stops
//! it from vectorizing. The quadrant is instead found with the `1.5·2^52`
//! shifter (see [`round_half_away`]), which rounds with two additions
//! and yields the quadrant bits for free. Keep `.round()` (and
//! saturating `as i64` casts) out of [`sin_core`]: on the default target
//! either one puts scalar code back in the hottest loop of the solver.
//! The shifter form is bit-for-bit equal to `y.round()`, so the choice
//! never changes a result.
//!
//! Accuracy: max absolute error < 4e-15 for |x| ≤ 64 (phase differences
//! in this workspace stay within a few tens of radians), growing slowly
//! with |x| as the two-term reduction loses bits (~1e-13 at |x| = 2·10³);
//! inputs with |x| > 2^20 fall back to `f64::sin`. The function is
//! exactly odd (`sin_fast(-x) == -sin_fast(x)` bitwise for nonzero x;
//! `sin_fast(-0.0)` returns `+0.0`), matching the antisymmetry the
//! kernels rely on to visit each undirected edge once.

/// Threshold beyond which the Cody–Waite reduction loses too many bits and
/// the implementation defers to `f64::sin`. Kernel phase differences are
/// O(10) rad, so the branch is never taken in practice (and predicts
/// perfectly when compiled scalar).
const REDUCTION_LIMIT: f64 = 1_048_576.0; // 2^20

/// `1.5·2^52`. For `|a| < 2^51`, `a + SHIFTER` lands in `[2^52, 2^53)`,
/// where the f64 spacing is exactly 1, so the addition rounds `a` to an
/// integer (ties to even) and leaves that integer's low bits in the low
/// mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// `2^51`, the bound below which [`round_half_away`] is exact.
const SHIFTER_LIMIT: f64 = 2_251_799_813_685_248.0;

/// `y.round()` (nearest integer, ties away from zero) without a libm
/// call, bit for bit — including the sign of zero results. Valid for
/// `|y| < 2^51`; [`sin_core`] only sees `|y| ≤ 2^20 · 2/π`.
#[inline(always)]
fn round_half_away(y: f64) -> f64 {
    let a = y.abs();
    // Nearest integer, ties to even; exact because `a` is far below
    // 2^52 and the shifted sum is an integer.
    let t = (a + SHIFTER) - SHIFTER;
    // `a - t` is exact. An exact tie rounded down to even goes up
    // instead, which is the away-from-zero rule on `|y|`.
    let t = if a - t == 0.5 { t + 1.0 } else { t };
    t.copysign(y)
}

/// `y.round()` for every `y`, bit for bit: [`round_half_away`] below
/// `2^51`, an out-of-line libm call for larger, infinite or NaN input.
/// For callers whose range is not bounded by construction, such as the
/// fixed-point noise quantizer.
#[inline(always)]
pub(crate) fn round_half_away_any(y: f64) -> f64 {
    #[cold]
    fn round_libm(y: f64) -> f64 {
        y.round()
    }
    if y.abs() < SHIFTER_LIMIT {
        round_half_away(y)
    } else {
        round_libm(y)
    }
}

/// `q + SHIFTER` as bits, for an integer `q` with `|q| < 2^51`: the sum
/// is exact and its low mantissa bits are `q` in two's complement, so
/// bits 0 and 1 are the quadrant — what `q as i64` would give, without
/// the saturating float-to-int conversion.
#[inline(always)]
fn quadrant_bits(q: f64) -> u64 {
    (q + SHIFTER).to_bits()
}

/// `sin(x)` via branchless Cody–Waite reduction + minimax polynomials.
///
/// Max absolute error < 4e-15 for `|x| ≤ 64` (see module docs for the
/// growth beyond); exactly odd for nonzero x; falls back to `f64::sin`
/// outside the reduction range and for non-finite input.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(|x| <= L)` deliberately catches NaN
pub fn sin_fast(x: f64) -> f64 {
    if !(x.abs() <= REDUCTION_LIMIT) {
        // NaN, infinities and huge arguments take the slow exact path.
        return x.sin();
    }
    sin_core(x)
}

/// The guard-free reduction + polynomial core: straight-line FP/integer
/// code with no branches, so a loop over a contiguous slice vectorizes.
/// Only valid for `|x| ≤` [`REDUCTION_LIMIT`]; callers guard.
#[inline(always)]
// The split π/2 constants intentionally carry more digits than f64 holds
// (Cody–Waite needs the exact rounded-to-nearest values), which trips
// clippy's approx-constant/precision lints.
#[allow(clippy::approx_constant, clippy::excessive_precision)]
fn sin_core(x: f64) -> f64 {
    // Cody–Waite: x = q·π/2 + r with π/2 split into hi + lo parts so the
    // q·hi product is exact for |q| < 2^27.
    const INV_PIO2: f64 = 0.636_619_772_367_581_343_075_535_053_490_057_45; // 2/π
    const PIO2_HI: f64 = 1.570_796_326_794_896_557_998_981_734_272_092_58;
    const PIO2_LO: f64 = 6.123_233_995_736_766_035_868_820_147_292e-17;
    let q = round_half_away(x * INV_PIO2);
    let r = (x - q * PIO2_HI) - q * PIO2_LO;
    let qbits = quadrant_bits(q);
    let r2 = r * r;

    // Minimax sin polynomial on [-π/4, π/4] (coefficients from the classic
    // fdlibm kernel, |err| < 2^-58 relative).
    let sp = -2.505_074_776_285_780_72e-8 + r2 * 1.589_623_015_765_465_68e-10;
    let sp = 2.755_731_362_138_572_45e-6 + r2 * sp;
    let sp = -1.984_126_982_958_953_86e-4 + r2 * sp;
    let sp = 8.333_333_333_322_118_59e-3 + r2 * sp;
    let sp = -1.666_666_666_666_663_07e-1 + r2 * sp;
    let s = r + r * r2 * sp;

    // Minimax cos polynomial on [-π/4, π/4].
    let cp = -1.135_853_652_138_768_17e-11;
    let cp = 2.087_570_084_197_473_17e-9 + r2 * cp;
    let cp = -2.755_731_417_929_673_88e-7 + r2 * cp;
    let cp = 2.480_158_728_885_171_80e-5 + r2 * cp;
    let cp = -1.388_888_888_887_305_64e-3 + r2 * cp;
    let cp = 4.166_666_666_666_659_29e-2 + r2 * cp;
    let c = 1.0 - 0.5 * r2 + r2 * r2 * cp;

    // Quadrant select without branches: odd q takes the cos polynomial,
    // bit 1 of q flips the sign.
    let sel = 0u64.wrapping_sub(qbits & 1);
    let v = f64::from_bits((s.to_bits() & !sel) | (c.to_bits() & sel));
    f64::from_bits(v.to_bits() ^ ((qbits & 2) << 62))
}

/// Applies [`sin_fast`] in place over a slice.
///
/// This is the shape the kernels use: a contiguous buffer of phase
/// differences with no gather/scatter inside the loop. A cheap range
/// scan first decides whether every element can take the branchless
/// [`sin_core`] path — when it can (always, for phase dynamics), the
/// main loop contains no branches and no calls, and LLVM auto-vectorizes
/// it: 2 lanes of f64 on the default SSE2 target (wider only when the
/// build enables AVX). Results are bitwise identical to calling
/// [`sin_fast`] per element either way.
#[inline]
pub fn sin_slice(xs: &mut [f64]) {
    let mut all_in_range = true;
    for &x in xs.iter() {
        // `!(|x| <= L)` also catches NaN.
        all_in_range &= x.abs() <= REDUCTION_LIMIT;
    }
    if all_in_range {
        for x in xs.iter_mut() {
            *x = sin_core(*x);
        }
    } else {
        for x in xs.iter_mut() {
            *x = sin_fast(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_sweep_typical_range() {
        // Kernel arguments are phase differences: a dense sweep of the
        // range they actually occupy plus a wide margin.
        let mut worst = 0.0f64;
        let mut x = -64.0;
        while x < 64.0 {
            let err = (sin_fast(x) - x.sin()).abs();
            worst = worst.max(err);
            x += 0.000_731;
        }
        assert!(worst < 4e-15, "max abs error {worst:e}");
    }

    #[test]
    fn accuracy_sweep_wide_range() {
        let mut worst = 0.0f64;
        let mut x = -2000.0;
        while x < 2000.0 {
            worst = worst.max((sin_fast(x) - x.sin()).abs());
            x += 0.013_7;
        }
        assert!(worst < 5e-13, "max abs error on [-2000, 2000]: {worst:e}");
    }

    #[test]
    fn accuracy_near_reduction_limit() {
        let mut worst = 0.0f64;
        for k in 0..20_000 {
            let x = 1.0e5 + k as f64 * 0.913;
            worst = worst.max((sin_fast(x) - x.sin()).abs());
        }
        assert!(worst < 1e-10, "max abs error near 1e5: {worst:e}");
    }

    #[test]
    fn exactly_odd() {
        let mut x = 0.0001;
        while x < 100.0 {
            assert_eq!(
                sin_fast(-x).to_bits(),
                (-sin_fast(x)).to_bits(),
                "odd symmetry broken at {x}"
            );
            x *= 1.37;
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(sin_fast(0.0).to_bits(), 0.0f64.to_bits());
        // -0.0 collapses to +0.0 through the reduction (documented; the
        // kernels never produce a -0.0 argument from x - x).
        assert_eq!(sin_fast(-0.0), 0.0);
        assert!(sin_fast(f64::NAN).is_nan());
        assert!(sin_fast(f64::INFINITY).is_nan());
        // Beyond the reduction limit: falls back to libm, stays exact.
        let big = 3.9e7;
        assert_eq!(sin_fast(big), big.sin());
    }

    #[test]
    fn quadrant_boundaries() {
        use std::f64::consts::{FRAC_PI_2, PI};
        for k in -8i32..=8 {
            for eps in [-1e-9, 0.0, 1e-9] {
                let x = k as f64 * FRAC_PI_2 + eps;
                assert!(
                    (sin_fast(x) - x.sin()).abs() < 4e-15,
                    "boundary {k}·π/2 + {eps}"
                );
            }
        }
        assert!((sin_fast(PI)).abs() < 1e-15);
    }

    /// Bitwise check of the shifter reduction against the `f64::round` /
    /// `as i64` form it replaced, at one `y = x·2/π`.
    fn assert_reduction_matches(y: f64) {
        let q = round_half_away(y);
        assert_eq!(q.to_bits(), y.round().to_bits(), "round({y:e})");
        let qi = y.round() as i64;
        assert_eq!(quadrant_bits(q) & 3, (qi as u64) & 3, "quadrant({y:e})");
    }

    #[test]
    fn shifter_reduction_matches_f64_round_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const INV_PIO2: f64 = std::f64::consts::FRAC_2_PI;
        // Random arguments over the whole reduction range.
        let mut rng = StdRng::seed_from_u64(0x5e1f);
        for _ in 0..200_000 {
            let x = (rng.gen::<f64>() * 2.0 - 1.0) * REDUCTION_LIMIT;
            assert_reduction_matches(x * INV_PIO2);
            // Small arguments, where the kernels actually live.
            assert_reduction_matches(x * 1e-4 * INV_PIO2);
        }
        // Every exact half-integer tie `x·2/π` can reach, both signs.
        let max_k = (REDUCTION_LIMIT * INV_PIO2) as i64 + 1;
        for k in 0..=max_k {
            let tie = k as f64 + 0.5;
            assert_reduction_matches(tie);
            assert_reduction_matches(-tie);
            // And the neighbours a product can round to.
            assert_reduction_matches(f64::from_bits(tie.to_bits() - 1));
            assert_reduction_matches(f64::from_bits(tie.to_bits() + 1));
        }
        // Signed zeros, subnormals and the largest value below one half.
        for y in [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
        ] {
            assert_reduction_matches(y);
        }
        assert_eq!(sin_fast(f64::from_bits(1)).to_bits(), 1);
    }

    #[test]
    fn slice_matches_scalar() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 0.0137).collect();
        let mut ys = xs.clone();
        sin_slice(&mut ys);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(y.to_bits(), sin_fast(*x).to_bits());
        }
    }
}
