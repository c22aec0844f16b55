//! The allocation-free sign-flip scorer.
//!
//! [`crate::sign_flips_for_order`] scores an ordering by replaying the
//! accumulation of every selected output channel and counting the
//! partial-sum sign flips.  [`sign_flips_for_order_with`] is that fold with
//! reusable scratch buffers, so a warm scoring call performs zero heap
//! allocations (`tests/alloc_regression.rs` pins this down).
//!
//! Equivalence with [`crate::sign_flips_for_order_scalar`] — shapes, column
//! subsets, error messages — is asserted in this module and in
//! `tests/proptest_invariants.rs`.

use accel_sim::Matrix;

use crate::error::ReadError;

/// Reusable buffers for [`sign_flips_for_order_with`].
///
/// Once the buffers have grown to the working-set size (first call), every
/// subsequent call with the same or smaller shapes performs zero heap
/// allocations.
#[derive(Debug, Default, Clone)]
pub struct SignFlipScratch {
    /// Bitset used to validate that `order` is a permutation.
    seen: Vec<u64>,
}

impl SignFlipScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Permutation check equivalent to the scalar `validate_order`, but backed
/// by a reusable bitset instead of a fresh `vec![false; len]` per call.
/// Error messages are byte-identical to the scalar path.
fn validate_order_bitset(
    seen: &mut Vec<u64>,
    order: &[usize],
    len: usize,
) -> Result<(), ReadError> {
    if order.len() != len {
        return Err(ReadError::InvalidOrder {
            reason: format!("order length {} != {}", order.len(), len),
        });
    }
    let words = len.div_ceil(64);
    seen.clear();
    seen.resize(words, 0);
    for &i in order {
        if i >= len || seen[i / 64] >> (i % 64) & 1 == 1 {
            return Err(ReadError::InvalidOrder {
                reason: format!("index {i} repeated or out of range"),
            });
        }
        seen[i / 64] |= 1 << (i % 64);
    }
    Ok(())
}

/// Allocation-free [`crate::sign_flips_for_order`]: reuses `scratch` across
/// calls so a warm scoring call performs zero heap allocations (asserted by
/// `tests/alloc_regression.rs`).
///
/// Semantics, results and error messages are identical to
/// [`crate::sign_flips_for_order`] (which simply wraps this function with a
/// fresh scratch).
///
/// # Errors
///
/// Same conditions as [`crate::sign_flips_for_order`].
pub fn sign_flips_for_order_with(
    scratch: &mut SignFlipScratch,
    weights: &Matrix<i8>,
    columns: &[usize],
    order: &[usize],
    activations: Option<&[i8]>,
) -> Result<u64, ReadError> {
    validate_order_bitset(&mut scratch.seen, order, weights.rows())?;
    if let Some(acts) = activations {
        if acts.len() != weights.rows() {
            return Err(ReadError::InvalidOrder {
                reason: format!(
                    "activation length {} != reduction length {}",
                    acts.len(),
                    weights.rows()
                ),
            });
        }
    }
    for &c in columns {
        if c >= weights.cols() {
            return Err(ReadError::InvalidOrder {
                reason: format!("column {c} out of range ({})", weights.cols()),
            });
        }
    }
    let mut total = 0u64;
    // The activation branch is hoisted out of the per-element closure: this
    // function is a cross-crate call boundary, so the Option would
    // otherwise be re-tested once per MAC.
    match activations {
        Some(acts) => {
            for &c in columns {
                let flips = crate::metrics::count_sign_flips(
                    order
                        .iter()
                        .map(|&r| i64::from(weights[(r, c)]) * i64::from(acts[r])),
                );
                total += flips as u64;
            }
        }
        None => {
            for &c in columns {
                let flips = crate::metrics::count_sign_flips(
                    order.iter().map(|&r| i64::from(weights[(r, c)])),
                );
                total += flips as u64;
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{sign_flips_for_order, sign_flips_for_order_scalar};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weights(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix<i8> {
        Matrix::from_fn(rows, cols, |_, _| rng.gen::<u64>() as i8)
    }

    fn random_order(rng: &mut StdRng, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            let j = (rng.gen::<u64>() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    #[test]
    fn sign_flips_match_scalar_across_shapes() {
        let mut rng = StdRng::seed_from_u64(0x51f1);
        let mut scratch = SignFlipScratch::new();
        for &(rows, cols) in &[
            (1usize, 1usize),
            (7, 3),
            (40, 63),
            (16, 64),
            (33, 65),
            (9, 130),
        ] {
            let w = random_weights(&mut rng, rows, cols);
            let order = random_order(&mut rng, rows);
            let columns: Vec<usize> = (0..cols).collect();
            let acts: Vec<i8> = (0..rows).map(|_| rng.gen::<u64>() as i8).collect();
            for activations in [None, Some(acts.as_slice())] {
                let scalar =
                    sign_flips_for_order_scalar(&w, &columns, &order, activations).unwrap();
                let routed = sign_flips_for_order(&w, &columns, &order, activations).unwrap();
                let reused =
                    sign_flips_for_order_with(&mut scratch, &w, &columns, &order, activations)
                        .unwrap();
                assert_eq!(
                    routed,
                    scalar,
                    "{rows}x{cols} acts={}",
                    activations.is_some()
                );
                assert_eq!(reused, scalar);
            }
        }
    }

    #[test]
    fn sign_flips_match_scalar_on_column_subsets() {
        let mut rng = StdRng::seed_from_u64(0xc0de);
        let w = random_weights(&mut rng, 24, 90);
        let order = random_order(&mut rng, 24);
        // Repeated and unsorted column selections are allowed.
        let columns = vec![3usize, 89, 3, 41, 0, 77, 12, 12];
        let scalar = sign_flips_for_order_scalar(&w, &columns, &order, None).unwrap();
        let mut scratch = SignFlipScratch::new();
        assert_eq!(
            sign_flips_for_order_with(&mut scratch, &w, &columns, &order, None).unwrap(),
            scalar
        );
        assert_eq!(
            sign_flips_for_order(&w, &columns, &order, None).unwrap(),
            scalar
        );
    }

    #[test]
    fn errors_match_scalar_errors() {
        let w = Matrix::from_fn(8, 4, |r, c| (((r * 5 + c * 3) % 9) as i8) - 4);
        let good: Vec<usize> = (0..8).collect();
        type Case = (Vec<usize>, Vec<usize>, Option<Vec<i8>>);
        let cases: Vec<Case> = vec![
            (vec![0], vec![0, 1, 2], None),                 // wrong length
            (vec![0], vec![0, 1, 2, 3, 4, 5, 6, 6], None),  // repeated index
            (vec![0], vec![0, 1, 2, 3, 4, 5, 6, 99], None), // out of range
            (vec![9], good.clone(), None),                  // bad column
            (vec![0], good.clone(), Some(vec![1, 2])),      // bad activation len
        ];
        let mut scratch = SignFlipScratch::new();
        for (columns, order, acts) in cases {
            let scalar =
                sign_flips_for_order_scalar(&w, &columns, &order, acts.as_deref()).unwrap_err();
            let routed =
                sign_flips_for_order_with(&mut scratch, &w, &columns, &order, acts.as_deref())
                    .unwrap_err();
            assert_eq!(format!("{routed}"), format!("{scalar}"));
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_state() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = SignFlipScratch::new();
        // A large call followed by a small one: stale bitset contents must
        // not change results.
        let big = random_weights(&mut rng, 50, 70);
        let big_cols: Vec<usize> = (0..70).collect();
        let big_order = random_order(&mut rng, 50);
        sign_flips_for_order_with(&mut scratch, &big, &big_cols, &big_order, None).unwrap();
        let small = random_weights(&mut rng, 4, 3);
        let small_cols: Vec<usize> = (0..3).collect();
        let small_order = random_order(&mut rng, 4);
        let scalar = sign_flips_for_order_scalar(&small, &small_cols, &small_order, None).unwrap();
        assert_eq!(
            sign_flips_for_order_with(&mut scratch, &small, &small_cols, &small_order, None)
                .unwrap(),
            scalar
        );
    }
}
