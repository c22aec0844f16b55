//! Bit-plane (bit-sliced) primitives shared by the word-parallel kernels.
//!
//! A *bit-plane* representation stores up to 64 independent **lanes** (one
//! per bit position of a `u64`) transposed so that plane `k` holds bit `k`
//! of every lane.  All lanes are then processed simultaneously with plain
//! word operations — the ttopt truth-table idiom applied to arithmetic:
//! a ripple-carry addition over `P` planes costs `O(P)` word operations for
//! 64 lanes instead of 64 scalar additions, and per-lane predicates (carry
//! runs, toggled bits, sign flips) fall out as masks that `count_ones` can
//! tally in one instruction.
//!
//! Lane convention: lane `l` of a packed word is bit `l` (`1 << l`).  Packed
//! counters (e.g. triggered depths) use little-endian plane order: plane `k`
//! holds bit `k` of every lane's counter value.

use crate::mac::ACC_BITS;

/// Number of bit planes used for packed per-lane depth counters.  Depths are
/// bounded by the accumulator width, so 5 planes (values `0..32`) suffice.
pub const DEPTH_PLANES: usize = 5;

// The packed counters must be able to represent every triggered depth.
const _: () = assert!(ACC_BITS < (1 << DEPTH_PLANES));

/// Mask selecting the low `lanes` bits (the active lanes of a partially
/// filled word).  `lanes` must be at most 64.
#[inline]
pub fn lane_mask(lanes: usize) -> u64 {
    assert!(lanes <= 64, "at most 64 lanes per word");
    if lanes == 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// Transposes a `u64` viewed as an 8x8 bit matrix: output bit `8*b + i` is
/// input bit `8*i + b` (Hacker's Delight section 7-3).
///
/// Interpreting input byte `i` as lane `i`'s byte, output byte `b` collects
/// bit `b` of all 8 lanes — the 8-lane building block of [`planes_from_i16`].
#[inline]
pub fn transpose8x8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Scatters one transposed 8-lane byte block into the plane array: byte `b`
/// of `transpose8x8(word)` lands in `planes[plane_base + b]` at bit offset
/// `lane_base`.
#[inline]
fn scatter_block(planes: &mut [u64], plane_base: usize, lane_base: usize, word: u64) {
    let t = transpose8x8(word);
    for (b, plane) in planes[plane_base..plane_base + 8].iter_mut().enumerate() {
        *plane |= ((t >> (8 * b)) & 0xFF) << lane_base;
    }
}

/// Packs up to 64 `i16` lane values into 16 bit planes (two's complement;
/// plane 15 is the sign plane).  Lanes beyond `values.len()` are zero.
#[inline]
pub fn planes_from_i16(values: &[i16]) -> [u64; 16] {
    assert!(values.len() <= 64, "at most 64 lanes per word");
    let mut planes = [0u64; 16];
    for (block, chunk) in values.chunks(8).enumerate() {
        let mut lo = 0u64;
        let mut hi = 0u64;
        for (i, &v) in chunk.iter().enumerate() {
            let u = v as u16;
            lo |= u64::from(u & 0xFF) << (8 * i);
            hi |= u64::from(u >> 8) << (8 * i);
        }
        scatter_block(&mut planes, 0, 8 * block, lo);
        scatter_block(&mut planes, 8, 8 * block, hi);
    }
    planes
}

/// Reads back one lane's value from a little-endian plane array (the inverse
/// of [`planes_from_i16`], for any plane count up to 64).
#[inline]
pub fn lane_value(planes: &[u64], lane: usize) -> u64 {
    let mut value = 0u64;
    for (k, &plane) in planes.iter().enumerate() {
        value |= ((plane >> lane) & 1) << k;
    }
    value
}

/// Per-lane `x >= y` over two packed unsigned counters of equal plane count,
/// via the borrow recurrence of a bit-sliced subtraction: the result mask
/// has bit `l` set when lane `l` of `x` is at least lane `l` of `y`.
#[inline]
pub fn lanes_ge(x: &[u64], y: &[u64]) -> u64 {
    debug_assert_eq!(x.len(), y.len());
    let mut borrow = 0u64;
    for (&xk, &yk) in x.iter().zip(y) {
        borrow = (!xk & yk) | (!(xk ^ yk) & borrow);
    }
    !borrow
}

/// Per-lane `counter == value` over a packed unsigned counter: the result
/// mask has bit `l` set when lane `l`'s packed value equals `value`.
/// `value` must be representable in `planes.len()` bits.
#[inline]
pub fn lanes_eq(planes: &[u64], value: u64) -> u64 {
    debug_assert!(planes.len() >= 64 || value < (1u64 << planes.len()));
    let mut mask = !0u64;
    for (k, &plane) in planes.iter().enumerate() {
        mask &= if (value >> k) & 1 == 1 { plane } else { !plane };
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive_transpose8x8(x: u64) -> u64 {
        let mut y = 0u64;
        for i in 0..8 {
            for b in 0..8 {
                if (x >> (8 * i + b)) & 1 == 1 {
                    y |= 1 << (8 * b + i);
                }
            }
        }
        y
    }

    #[test]
    fn transpose_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(0x7245);
        for _ in 0..1000 {
            let x: u64 = rng.gen();
            assert_eq!(transpose8x8(x), naive_transpose8x8(x));
            // A transpose is an involution.
            assert_eq!(transpose8x8(transpose8x8(x)), x);
        }
        assert_eq!(transpose8x8(0), 0);
        assert_eq!(transpose8x8(!0), !0);
    }

    #[test]
    fn plane_packers_round_trip_lane_values() {
        let mut rng = StdRng::seed_from_u64(0x9ACC);
        for lanes in [1usize, 7, 8, 9, 33, 63, 64] {
            let v16: Vec<i16> = (0..lanes).map(|_| rng.gen::<u64>() as i16).collect();
            let p16 = planes_from_i16(&v16);
            for (l, &v) in v16.iter().enumerate() {
                assert_eq!(lane_value(&p16, l) as u16, v as u16, "i16 lane {l}");
            }
            // Unused high lanes stay zero.
            if lanes < 64 {
                assert_eq!(lane_value(&p16, lanes), 0);
            }
        }
    }

    #[test]
    fn lane_comparisons_match_scalar() {
        let mut rng = StdRng::seed_from_u64(0xC09A);
        for _ in 0..200 {
            let xs: Vec<u64> = (0..64).map(|_| rng.gen_range(0..32)).collect();
            let ys: Vec<u64> = (0..64).map(|_| rng.gen_range(0..32)).collect();
            let mut xp = [0u64; DEPTH_PLANES];
            let mut yp = [0u64; DEPTH_PLANES];
            for (l, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                for (k, (xk, yk)) in xp.iter_mut().zip(yp.iter_mut()).enumerate() {
                    *xk |= ((x >> k) & 1) << l;
                    *yk |= ((y >> k) & 1) << l;
                }
            }
            let ge = lanes_ge(&xp, &yp);
            for (l, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
                assert_eq!((ge >> l) & 1 == 1, x >= y, "ge lane {l}");
            }
            let probe = rng.gen_range(0..32);
            let eq = lanes_eq(&xp, probe);
            for (l, &x) in xs.iter().enumerate() {
                assert_eq!((eq >> l) & 1 == 1, x == probe, "eq lane {l}");
            }
        }
    }

    #[test]
    fn lane_mask_widths() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(63), !0 >> 1);
        assert_eq!(lane_mask(64), !0);
    }
}
