//! Executable operation semantics.
//!
//! The analytic pipeline never runs a loop; the simulator crate
//! (`widening-sim`) does, and it needs a concrete meaning for every
//! [`OpKind`]. The functions here define that meaning **once** so the
//! scalar reference interpreter and the wide-datapath simulator are
//! bitwise comparable: both fold a node's register operands in original
//! in-edge order through [`eval_op`], and both draw loop live-in values
//! and operand-less sources from [`source_value`].
//!
//! Two choices keep differential comparison exact and robust:
//!
//! * every result passes through [`squash`], which bounds magnitudes so
//!   multiplicative recurrences cannot overflow to infinity over long
//!   trips (IEEE arithmetic stays fully deterministic, so equal inputs
//!   give bitwise-equal outputs on both interpreters);
//! * divides guard near-zero denominators with a fixed fallback instead
//!   of producing infinities.
//!
//! [`squash`] is the simulator's hottest arithmetic: on generated
//! corpora about a quarter of its calls are out of range and need the
//! remainder `x % 1e6`. It computes that remainder exactly in integers
//! rather than through libm's `fmod`, a bit-serial loop that costs tens
//! of nanoseconds per call. IEEE `fmod` is exact — its result is always
//! representable — so any exact method returns the same bits, down to
//! the signed zero of an exact multiple.

use crate::op::OpKind;

/// Magnitude bound applied by [`squash`]: `1e6 = 15625 · 2⁶`.
const SQUASH_BOUND: f64 = 1.0e6;

/// The odd factor of [`SQUASH_BOUND`].
const BOUND_ODD: u64 = 15_625;

/// The power of two in [`SQUASH_BOUND`].
const BOUND_TWOS: i32 = 6;

/// An `f64`'s biased exponent field minus this is the exponent `e` of
/// `|x| = m · 2^e`, `m` its 53-bit integer significand.
const EXP_BIAS: i32 = 1075;

/// The largest unbiased significand exponent of a finite `f64`
/// (`f64::MAX = (2⁵³ − 1) · 2⁹⁷¹`).
const MAX_EXP: i32 = 971;

/// `2^j mod 15625` for every `j = e − 6` of an `f64` with `e ≥ 6`
/// (`e ≤` [`MAX_EXP`]).
const POW2_MOD_ODD: [u16; (MAX_EXP - BOUND_TWOS + 1) as usize] = {
    let mut t = [0u16; (MAX_EXP - BOUND_TWOS + 1) as usize];
    let mut p = 1u64;
    let mut j = 0;
    while j < t.len() {
        t[j] = p as u16;
        p = p * 2 % BOUND_ODD;
        j += 1;
    }
    t
};

/// Denominator guard threshold for [`OpKind::FDiv`].
const DIV_GUARD: f64 = 1.0e-6;

/// Bounds `x` to `(-1e6, 1e6)` deterministically; non-finite inputs
/// collapse to `1.0`. Applied to every operation result.
///
/// A finite `x` out of range maps to `x % 1e6` bit for bit, computed
/// exactly in integers. Write `|x| = m · 2^e` with `m` the 53-bit
/// significand; `|x| ≥ 1e6` gives `e ≥ −33`. Since `1e6 = 15625 · 2⁶`:
///
/// * for `e ≥ 6`, `|x| = 64 · m · 2^(e−6)` and the remainder is
///   `64 · ((m mod 15625) · (2^(e−6) mod 15625) mod 15625)`;
/// * for `e < 6`, the remainder is `2^e · (m mod (15625 · 2^k))` with
///   `k = 6 − e ≤ 39`. Splitting `m = q · 2^k + low` (`low < 2^k`) turns
///   that into `2^e · ((q mod 15625) · 2^k + low)`, a remainder by a
///   constant.
///
/// Every intermediate is an integer below 2⁵³, so the conversions are
/// exact, and the result takes the sign of `x`, zero included, as
/// `fmod`'s does.
#[must_use]
#[inline]
pub fn squash(x: f64) -> f64 {
    // In-range values (the overwhelmingly common case) are their own
    // remainder bit for bit. `-0.0` takes this path too, matching
    // `-0.0 % b == -0.0`.
    if x > -SQUASH_BOUND && x < SQUASH_BOUND {
        x
    } else if x.is_finite() {
        bound_remainder(x)
    } else {
        1.0
    }
}

/// `x % 1e6` for finite `|x| ≥ 1e6`, computed as [`squash`] describes.
///
/// Kept out of line: inlined into every executor's unrolled lanes it
/// grew the simulator's code by about 100 KB for no measured speed-up.
#[inline(never)]
fn bound_remainder(x: f64) -> f64 {
    let bits = x.to_bits();
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    let e = ((bits >> 52) & 0x7ff) as i32 - EXP_BIAS;
    let r = if e >= BOUND_TWOS {
        let p = u64::from(POW2_MOD_ODD[(e - BOUND_TWOS) as usize]);
        ((m % BOUND_ODD * p % BOUND_ODD) << BOUND_TWOS) as f64
    } else {
        let k = (BOUND_TWOS - e) as u32;
        let low = m & ((1 << k) - 1);
        let scaled = ((((m >> k) % BOUND_ODD) << k) | low) as f64;
        // 2^e for −33 ≤ e < 6, a normal power of two: the scaling is
        // exact.
        scaled * f64::from_bits(((e + 1023) as u64) << 52)
    };
    r.copysign(x)
}

/// A deterministic pseudo-random source value for `(node, iteration)`:
/// used for loop live-ins (`iteration < 0`) and for value-producing
/// operations with no register operands. Values are small dyadic
/// rationals, exactly representable in an `f64`.
#[must_use]
#[inline]
pub fn source_value(node: u32, iteration: i64) -> f64 {
    let mut h = (u64::from(node) << 32) ^ (iteration as u64) ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    ((h % 4096) as f64 - 2048.0) / 64.0
}

/// The initial content of the memory cell a load of `node` reads at
/// `iteration` (loads and stores use disjoint regions; see the simulator
/// crate for the layout).
#[must_use]
#[inline]
pub fn initial_memory_value(node: u32, iteration: i64) -> f64 {
    source_value(node ^ 0x4D45_4D00, iteration)
}

/// Applies the semantic function of `kind` to register operands
/// `inputs`, folded in operand order. `node` and `iteration` identify
/// the executing instance, for operand-less sources.
///
/// * `FAdd`, `FCopy` and memory kinds fold with `+` (a load's operand
///   sum is added to the loaded cell by the caller; a store's folded
///   value is what it writes);
/// * `FSub` computes `inputs[0] - inputs[1] - …`;
/// * `FMul` folds with `*`;
/// * `FDiv` computes `inputs[0] / (inputs[1] * …)`, guarding near-zero
///   denominators;
/// * `FSqrt` computes `sqrt(|inputs[0] + …|)`.
///
/// With no operands the value is [`source_value`]. Every result is
/// [`squash`]ed.
#[must_use]
#[inline]
pub fn eval_op(kind: OpKind, inputs: &[f64], node: u32, iteration: i64) -> f64 {
    if inputs.is_empty() {
        return squash(source_value(node, iteration));
    }
    let sum = || inputs.iter().copied().fold(0.0_f64, |a, b| a + b);
    let value = match kind {
        OpKind::FAdd | OpKind::FCopy | OpKind::Load | OpKind::Store => sum(),
        OpKind::FSub => inputs[1..].iter().copied().fold(inputs[0], |a, b| a - b),
        OpKind::FMul => inputs.iter().copied().fold(1.0_f64, |a, b| a * b),
        OpKind::FDiv => {
            let denom = inputs[1..].iter().copied().fold(1.0_f64, |a, b| a * b);
            let denom = if denom.abs() < DIV_GUARD { 1.0 } else { denom };
            inputs[0] / denom
        }
        OpKind::FSqrt => sum().abs().sqrt(),
    };
    squash(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The oracle: `squash` with its remainder taken by IEEE `fmod`.
    fn fmod_squash(x: f64) -> f64 {
        if x > -SQUASH_BOUND && x < SQUASH_BOUND {
            x
        } else if x.is_finite() {
            x % SQUASH_BOUND
        } else {
            1.0
        }
    }

    fn assert_matches_fmod(x: f64) {
        assert_eq!(
            squash(x).to_bits(),
            fmod_squash(x).to_bits(),
            "squash({x:e}) [{:#018x}]: {:e} vs fmod {:e}",
            x.to_bits(),
            squash(x),
            fmod_squash(x)
        );
    }

    /// `m · 2^e`, `m < 2⁵³`.
    fn scaled(m: u64, e: i32) -> f64 {
        m as f64 * 2.0f64.powi(e)
    }

    #[test]
    fn squash_bounds_and_handles_non_finite() {
        assert_eq!(squash(3.5), 3.5);
        assert!(squash(1.0e9).abs() < SQUASH_BOUND);
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN] {
            assert_eq!(squash(x).to_bits(), 1.0f64.to_bits(), "{x}");
        }
        let edge = SQUASH_BOUND.next_down();
        for x in [
            0.0,
            -0.0,
            1.5,
            -2048.0 / 64.0,
            edge,
            -edge,
            f64::MIN_POSITIVE,
            -f64::from_bits(1),
        ] {
            assert_eq!(squash(x).to_bits(), x.to_bits(), "{x:e} is in range");
        }
    }

    #[test]
    fn remainder_matches_fmod_on_edge_cases() {
        let mut cases = vec![f64::MAX, f64::MAX.next_down(), SQUASH_BOUND.next_up()];
        // Exact multiples of the bound: a zero with the sign of `x`.
        for k in 1..=4096u64 {
            cases.push(k as f64 * SQUASH_BOUND);
        }
        for j in 0..=900 {
            cases.push(SQUASH_BOUND * 2.0f64.powi(j));
        }
        for j in 6..=22 {
            cases.push(10.0f64.powi(j));
        }
        // Just around 2⁵³ (past it the spacing is 2), 2⁵⁸ (where `e`
        // reaches 6, the case split) and 2⁵⁹ (where `2^(e−6)` is first
        // more than 1).
        for c in [2.0f64.powi(53), 2.0f64.powi(58), 2.0f64.powi(59)] {
            let (mut up, mut down) = (c, c);
            for _ in 0..64 {
                cases.extend([up, down]);
                up = up.next_up();
                down = down.next_down();
            }
        }
        // Significand exponents on both sides of the case split, and the
        // smallest one an out-of-range value can have (`1e6` itself).
        for e in [-33, -32, -1, 0, 4, 5, 6, 7, 8, 52, 53, 970, 971] {
            for m in [
                1 << 52,
                (1 << 52) + 1,
                (1 << 53) - 1,
                1_000_000 << 33,
                0x1B_CDEF_0123_4567,
                (1 << 52) | 15_625,
            ] {
                let x = scaled(m, e);
                if x.is_finite() && x.abs() >= SQUASH_BOUND {
                    cases.push(x);
                }
            }
        }
        for x in cases {
            assert!(x.is_finite() && x.abs() >= SQUASH_BOUND, "{x:e}");
            assert_matches_fmod(x);
            assert_matches_fmod(-x);
        }
        assert_eq!(squash(-SQUASH_BOUND).to_bits(), (-0.0f64).to_bits());
        assert_eq!(squash(2.0 * SQUASH_BOUND).to_bits(), 0.0f64.to_bits());
    }

    /// A value `squash` lets through: what the simulator feeds its
    /// operations.
    fn in_range() -> impl Strategy<Value = f64> {
        prop_oneof![
            -SQUASH_BOUND..SQUASH_BOUND,
            -1.0e3..1.0e3,
            (-2048i64..2048).prop_map(|k| k as f64 / 64.0),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50_000))]

        /// Random finite bit patterns of magnitude at least the bound,
        /// half with the significand exponent `e` below 6 and half with
        /// `e ≥ 6`.
        #[test]
        fn remainder_matches_fmod_on_random_bits(
            (sign, exp, frac) in (
                any::<bool>(),
                prop_oneof![1042u64..1081, 1081u64..2047],
                any::<u64>(),
            )
        ) {
            let x = f64::from_bits(u64::from(sign) << 63 | exp << 52 | frac >> 12);
            prop_assert!(x.is_finite());
            if x.abs() >= SQUASH_BOUND {
                assert_matches_fmod(x);
            }
        }

        /// Sums, differences, quotients and products of two or three
        /// in-range values: the results the simulator squashes.
        #[test]
        fn remainder_matches_fmod_on_simulated_results(
            (a, b, c, shape) in (in_range(), in_range(), in_range(), 0u8..8)
        ) {
            let x = match shape {
                0 => a * b,
                1 => a * b * c,
                2 => a + b,
                3 => a + b + c,
                4 => a * b + c,
                5 => (a - b) * c,
                6 => a / if b.abs() < DIV_GUARD { 1.0 } else { b },
                _ => a * b / if c.abs() < DIV_GUARD { 1.0 } else { c },
            };
            assert_matches_fmod(x);
        }
    }

    #[test]
    fn source_values_are_deterministic_and_bounded() {
        for node in [0u32, 7, 1000] {
            for i in [-3i64, 0, 1, 999] {
                let a = source_value(node, i);
                assert_eq!(a.to_bits(), source_value(node, i).to_bits());
                assert!(a.abs() <= 32.0);
            }
        }
        assert_ne!(
            source_value(1, 5).to_bits(),
            source_value(2, 5).to_bits(),
            "different nodes should draw different streams"
        );
    }

    #[test]
    fn eval_follows_kind_semantics() {
        let node = 3;
        assert_eq!(eval_op(OpKind::FAdd, &[1.0, 2.0, 3.0], node, 0), 6.0);
        assert_eq!(eval_op(OpKind::FSub, &[10.0, 3.0, 2.0], node, 0), 5.0);
        assert_eq!(eval_op(OpKind::FMul, &[2.0, 3.0, 4.0], node, 0), 24.0);
        assert_eq!(eval_op(OpKind::FDiv, &[10.0, 4.0], node, 0), 2.5);
        assert_eq!(eval_op(OpKind::FSqrt, &[9.0], node, 0), 3.0);
        assert_eq!(eval_op(OpKind::FCopy, &[7.0], node, 0), 7.0);
        assert_eq!(eval_op(OpKind::Store, &[1.0, 2.0], node, 0), 3.0);
    }

    #[test]
    fn divide_guards_near_zero_denominators() {
        let v = eval_op(OpKind::FDiv, &[5.0, 0.0], 0, 0);
        assert_eq!(v, 5.0);
        assert!(eval_op(OpKind::FDiv, &[5.0, 1.0e-9], 0, 0).is_finite());
    }

    #[test]
    fn empty_inputs_use_the_source_stream() {
        let v = eval_op(OpKind::FAdd, &[], 4, 17);
        assert_eq!(v.to_bits(), squash(source_value(4, 17)).to_bits());
    }
}
