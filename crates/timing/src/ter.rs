//! The TER → BER conversion of the paper's Eq. (1), and its inverse.

/// Bit error rate of an output activation computed with `n_macs` MAC
/// operations, each failing independently with probability `ter`
/// (the paper's Eq. (1): `BER = 1 - (1 - TER)^N`).
///
/// The computation is carried out in log-space so that very small TERs do
/// not underflow.
///
/// # Example
///
/// ```
/// use timing::ber_from_ter;
///
/// let ber = ber_from_ter(1e-5, 4608);
/// assert!(ber > 0.04 && ber < 0.05);
/// assert_eq!(ber_from_ter(0.0, 1000), 0.0);
/// ```
pub fn ber_from_ter(ter: f64, n_macs: usize) -> f64 {
    if ter <= 0.0 || n_macs == 0 {
        return 0.0;
    }
    if ter >= 1.0 {
        return 1.0;
    }
    // 1 - (1-ter)^n = 1 - exp(n * ln(1-ter)), using ln_1p for accuracy.
    -(n_macs as f64 * (-ter).ln_1p()).exp_m1()
}

/// Inverse of [`ber_from_ter`]: the MAC-level TER that yields the target
/// activation-level BER for outputs of `n_macs` MACs.
///
/// Useful for answering "how much TER reduction do we need before the
/// network-level error rate becomes acceptable".
pub fn ter_for_target_ber(ber: f64, n_macs: usize) -> f64 {
    if ber <= 0.0 || n_macs == 0 {
        return 0.0;
    }
    if ber >= 1.0 {
        return 1.0;
    }
    // ter = 1 - (1-ber)^(1/n)
    -((-ber).ln_1p() / n_macs as f64).exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_limits() {
        assert_eq!(ber_from_ter(0.0, 100), 0.0);
        assert_eq!(ber_from_ter(1e-5, 0), 0.0);
        assert_eq!(ber_from_ter(1.0, 10), 1.0);
        assert_eq!(ber_from_ter(2.0, 10), 1.0);
    }

    #[test]
    fn ber_matches_direct_formula() {
        for &(ter, n) in &[(1e-3f64, 100usize), (1e-5, 4608), (0.2, 7)] {
            let direct = 1.0 - (1.0 - ter).powi(n as i32);
            assert!(
                (ber_from_ter(ter, n) - direct).abs() < 1e-12,
                "ter={ter} n={n}"
            );
        }
    }

    #[test]
    fn ber_is_monotone_in_both_arguments() {
        assert!(ber_from_ter(1e-4, 100) < ber_from_ter(1e-3, 100));
        assert!(ber_from_ter(1e-4, 100) < ber_from_ter(1e-4, 1000));
    }

    #[test]
    fn ter_for_target_ber_inverts() {
        for &(ber, n) in &[(0.1, 1000usize), (0.01, 4608), (0.5, 64)] {
            let ter = ter_for_target_ber(ber, n);
            assert!((ber_from_ter(ter, n) - ber).abs() < 1e-9, "ber={ber} n={n}");
        }
        assert_eq!(ter_for_target_ber(0.0, 100), 0.0);
        assert_eq!(ter_for_target_ber(1.0, 100), 1.0);
    }
}
