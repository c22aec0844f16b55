//! Parametric delay model of the MAC datapath.
//!
//! The model abstracts the synthesized 8x8-multiplier + 24-bit-accumulator
//! datapath of the paper into two delay contributions:
//!
//! * a fixed **multiplier stage** delay (the partial-product reduction tree
//!   is exercised by every non-idle cycle and its depth barely depends on
//!   the operands), and
//! * an **accumulator carry chain** whose exercised length depends on the
//!   operands of the cycle: the deeper the carry/borrow propagation and the
//!   higher the most-significant toggled bit, the longer the triggered path.
//!
//! Static timing analysis (STA) sees the full-width worst case; dynamic
//! timing analysis sees only the path actually triggered by each cycle.
//! The gap between the two — STA input-vector pessimism plus the margin a
//! signoff flow adds for on-chip variation — is captured by
//! [`DelayModel::sta_margin`]: at nominal conditions no dynamically
//! triggered path reaches the clock edge, exactly as in the paper, and PVTA
//! derating erodes the margin until the deepest patterns (partial-sum sign
//! flips) start to fail first.

use accel_sim::{MacCycle, ACC_BITS};

use crate::math::normal_tail;
use crate::pvta::OperatingCondition;

/// Delay model of one MAC processing element.
///
/// All delays are expressed in normalized units where the nominal worst-case
/// datapath delay (multiplier + full-width carry) is `1.0`; the absolute
/// scale cancels out of every error-probability computation.
///
/// # Example
///
/// ```
/// use timing::{DelayModel, OperatingCondition};
///
/// let model = DelayModel::nangate15_like();
/// // At the Ideal corner the deepest possible path still meets timing with
/// // overwhelming probability.
/// let p = model.error_probability_for_depth(timing::delay::MAX_DEPTH, &OperatingCondition::ideal(), 0.0);
/// assert!(p < 1e-6);
/// // A combined aging + 5% VT corner makes the same path marginal.
/// let p = model.error_probability_for_depth(
///     timing::delay::MAX_DEPTH,
///     &OperatingCondition::aging_vt(10.0, 0.05),
///     0.0,
/// );
/// assert!(p > 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    /// Delay of the multiplier stage (normalized units).
    pub multiplier_delay: f64,
    /// Incremental accumulator delay per carry-chain bit (normalized units).
    pub carry_delay_per_bit: f64,
    /// STA pessimism margin: the signoff clock period exceeds the nominal
    /// worst dynamically-triggered path by this fraction.
    pub sta_margin: f64,
    /// Standard deviation of the per-cycle random delay component
    /// (supply/temperature ripple, crosstalk), as a fraction of the
    /// triggered path delay.
    pub sigma_cycle: f64,
    /// Standard deviation of the per-PE process variation, as a fraction of
    /// the triggered path delay.
    pub sigma_process: f64,
}

/// Maximum triggered depth: the full accumulator width.
pub const MAX_DEPTH: u32 = ACC_BITS;

impl DelayModel {
    /// Default model calibrated against the paper's setup (Nangate 15 nm
    /// MAC, commercial 16/14 nm FinFET VT corners): the Ideal corner is
    /// error-free, and the combined 10-year-aging + 5 %-VT corner pushes the
    /// error probability of sign-flip cycles to the 10⁻³–10⁻² range so that
    /// layer TERs land at the 10⁻⁵–10⁻⁴ magnitudes reported in Fig. 8.
    pub fn nangate15_like() -> Self {
        DelayModel {
            multiplier_delay: 0.35,
            carry_delay_per_bit: 0.65 / f64::from(ACC_BITS),
            sta_margin: 0.37,
            sigma_cycle: 0.05,
            sigma_process: 0.05,
        }
    }

    /// Nominal delay of the deepest dynamically triggerable path
    /// (multiplier + full-width carry chain).
    pub fn nominal_critical_path(&self) -> f64 {
        self.path_delay(MAX_DEPTH)
    }

    /// Clock period chosen by static timing analysis at the nominal corner.
    pub fn clock_period(&self) -> f64 {
        self.nominal_critical_path() * (1.0 + self.sta_margin)
    }

    /// Nominal delay of a path with the given triggered depth.
    pub fn path_delay(&self, depth: u32) -> f64 {
        self.multiplier_delay + f64::from(depth.min(MAX_DEPTH)) * self.carry_delay_per_bit
    }

    /// Structural depth triggered by one MAC cycle: the longest carry chain
    /// or, if higher, the most significant toggled accumulator bit (whose
    /// settling requires the carry network to resolve up to that position).
    ///
    /// Delegates to [`MacCycle::triggered_depth`], the single definition the
    /// scalar path and the word-parallel kernels share.
    pub fn triggered_depth(cycle: &MacCycle) -> u32 {
        cycle.triggered_depth()
    }

    /// Combined standard deviation of the random delay components.
    pub fn sigma_total(&self) -> f64 {
        (self.sigma_cycle.powi(2) + self.sigma_process.powi(2)).sqrt()
    }

    /// Probability that a path of the given triggered depth violates timing
    /// under `condition`, for a PE with the given process offset
    /// (`process_offset` is a fractional delay offset, usually a sample of
    /// `N(0, sigma_process)`; pass `0.0` for a typical PE and the model
    /// folds the process sigma into the random component instead).
    pub fn error_probability_for_depth(
        &self,
        depth: u32,
        condition: &OperatingCondition,
        process_offset: f64,
    ) -> f64 {
        if depth == 0 {
            return 0.0;
        }
        let derate = condition.delay_derate() * (1.0 + process_offset);
        let path = self.path_delay(depth) * derate;
        let sigma = if process_offset == 0.0 {
            self.sigma_total() * path
        } else {
            self.sigma_cycle * path
        };
        if sigma <= 0.0 {
            return if path > self.clock_period() { 1.0 } else { 0.0 };
        }
        let slack = self.clock_period() - path;
        normal_tail(slack / sigma)
    }

    /// [`DelayModel::error_probability_for_depth`] at every depth
    /// `0..=MAX_DEPTH` (index = depth), for one PE under `condition`.
    pub fn depth_probabilities(
        &self,
        condition: &OperatingCondition,
        process_offset: f64,
    ) -> [f64; MAX_DEPTH as usize + 1] {
        std::array::from_fn(|depth| {
            self.error_probability_for_depth(depth as u32, condition, process_offset)
        })
    }

    /// Probability that the given MAC cycle violates timing under
    /// `condition`.
    ///
    /// Idle cycles (zero product, no switching) never fail.
    pub fn error_probability(
        &self,
        cycle: &MacCycle,
        condition: &OperatingCondition,
        process_offset: f64,
    ) -> f64 {
        if cycle.is_idle() {
            return 0.0;
        }
        self.error_probability_for_depth(Self::triggered_depth(cycle), condition, process_offset)
    }

    /// The smallest triggered depth whose *deterministic* path delay (no
    /// random component) already exceeds the clock period under `condition`,
    /// or `None` if even the deepest path meets timing deterministically.
    ///
    /// Useful for reasoning about which input patterns are critical at a
    /// given corner.
    pub fn critical_depth(&self, condition: &OperatingCondition) -> Option<u32> {
        let derate = condition.delay_derate();
        (1..=MAX_DEPTH).find(|&d| self.path_delay(d) * derate > self.clock_period())
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        Self::nangate15_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::MacUnit;

    #[test]
    fn clock_period_exceeds_nominal_critical_path() {
        let m = DelayModel::nangate15_like();
        assert!(m.clock_period() > m.nominal_critical_path());
        assert!((m.nominal_critical_path() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn path_delay_monotone_in_depth() {
        let m = DelayModel::nangate15_like();
        let mut prev = 0.0;
        for d in 0..=MAX_DEPTH {
            let p = m.path_delay(d);
            assert!(p > prev);
            prev = p;
        }
        // Depth is clamped to the accumulator width.
        assert_eq!(m.path_delay(100), m.path_delay(MAX_DEPTH));
    }

    #[test]
    fn error_probability_monotone_in_stress() {
        let m = DelayModel::nangate15_like();
        let corners = crate::pvta::paper_conditions();
        let probs: Vec<f64> = corners
            .iter()
            .map(|c| m.error_probability_for_depth(MAX_DEPTH, c, 0.0))
            .collect();
        // Ideal is the most benign corner and the combined aging + 5% VT
        // corner the most stressed; combined corners dominate their
        // VT-only and aging-only components.
        for p in &probs[1..] {
            assert!(*p > probs[0], "probabilities {probs:?}");
        }
        assert!(probs[4] > probs[1] && probs[4] > probs[3]);
        assert!(probs[5] > probs[2] && probs[5] > probs[4]);
        assert!(probs[0] < 1e-6, "Ideal must be essentially error-free");
        assert!(probs[5] > 1e-4, "worst corner must be marginal");
        assert!(probs[5] < 0.5, "worst corner must not fail every cycle");
    }

    #[test]
    fn error_probability_monotone_in_depth() {
        let m = DelayModel::nangate15_like();
        let c = OperatingCondition::aging_vt(10.0, 0.05);
        let shallow = m.error_probability_for_depth(8, &c, 0.0);
        let deep = m.error_probability_for_depth(MAX_DEPTH, &c, 0.0);
        assert!(deep > shallow * 10.0);
        assert_eq!(m.error_probability_for_depth(0, &c, 0.0), 0.0);
    }

    #[test]
    fn process_offset_shifts_probability() {
        let m = DelayModel::nangate15_like();
        let c = OperatingCondition::aging_vt(10.0, 0.05);
        let slow = m.error_probability_for_depth(MAX_DEPTH, &c, 0.05);
        let fast = m.error_probability_for_depth(MAX_DEPTH, &c, -0.05);
        let typical = m.error_probability_for_depth(MAX_DEPTH, &c, 0.0);
        assert!(slow > typical * 0.9);
        assert!(fast < typical);
    }

    #[test]
    fn idle_cycles_never_fail() {
        let m = DelayModel::nangate15_like();
        let mut mac = MacUnit::new();
        mac.load(100);
        let idle = mac.mac(0, 42);
        assert_eq!(
            m.error_probability(&idle, &OperatingCondition::aging_vt(10.0, 0.05), 0.0),
            0.0
        );
    }

    #[test]
    fn sign_flip_cycles_are_the_critical_pattern() {
        let m = DelayModel::nangate15_like();
        let c = OperatingCondition::aging_vt(10.0, 0.05);
        let mut mac = MacUnit::new();
        mac.load(2);
        let flip = mac.mac(-2, 3); // 2 - 6 = -4: sign flip
        let mut mac2 = MacUnit::new();
        mac2.load(1000);
        let benign = mac2.mac(2, 3); // small increment, no flip
        assert!(
            m.error_probability(&flip, &c, 0.0) > 100.0 * m.error_probability(&benign, &c, 0.0)
        );
    }

    #[test]
    fn critical_depth_appears_only_under_stress() {
        let m = DelayModel::nangate15_like();
        assert_eq!(m.critical_depth(&OperatingCondition::ideal()), None);
        // With a large enough derate some depth becomes deterministically
        // critical.
        let extreme = OperatingCondition::aging_vt(10.0, 0.20);
        if let Some(d) = m.critical_depth(&extreme) {
            assert!(d > 0 && d <= MAX_DEPTH);
        }
    }

    #[test]
    fn zero_sigma_becomes_deterministic() {
        let mut m = DelayModel::nangate15_like();
        m.sigma_cycle = 0.0;
        m.sigma_process = 0.0;
        assert_eq!(
            m.error_probability_for_depth(MAX_DEPTH, &OperatingCondition::ideal(), 0.0),
            0.0
        );
        let extreme = OperatingCondition::aging_vt(10.0, 0.25);
        assert_eq!(m.error_probability_for_depth(MAX_DEPTH, &extreme, 0.0), 1.0);
    }
}
