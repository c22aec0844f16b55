//! Dynamic timing analysis: the triggered-depth histogram that turns
//! simulated MAC cycles into timing-error estimates.
//!
//! A cycle's error probability depends only on its triggered path depth
//! and the operating corner, so one [`DepthHistogram`] per simulation pass
//! serves every corner: [`DepthHistogram::ter`] folds it in closed form,
//! and the [`crate::analysis`] engines add Monte-Carlo sampling and per-PE
//! process variation on top of it.

use accel_sim::{bitplane, CycleContext, CycleObserver, DepthWord, DepthWordSink, MacCycle};

use crate::delay::{DelayModel, MAX_DEPTH};
use crate::pvta::OperatingCondition;

/// Histogram of triggered path depths over a simulation.
///
/// Collecting the depth histogram once lets TERs be evaluated for *any*
/// operating condition without re-simulating: the error probability of a
/// cycle depends only on its triggered depth and the corner, so
/// `TER(corner) = Σ_d hist[d] · p(d, corner) / total`.  The figure benches
/// use this to sweep all six paper corners from a single simulation pass per
/// schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthHistogram {
    counts: Vec<u64>,
    sign_flips: u64,
    total: u64,
}

impl DepthHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        DepthHistogram {
            counts: vec![0; (crate::delay::MAX_DEPTH + 1) as usize],
            sign_flips: 0,
            total: 0,
        }
    }

    /// Total number of recorded cycles.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of recorded cycles whose partial sum flipped sign.
    pub fn sign_flips(&self) -> u64 {
        self.sign_flips
    }

    /// Sign-flip rate of the recorded cycles.
    pub fn sign_flip_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sign_flips as f64 / self.total as f64
        }
    }

    /// Cycle count per triggered depth (index = depth).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reassembles a histogram from its observable parts — the inverse of
    /// ([`DepthHistogram::counts`], [`DepthHistogram::sign_flips`],
    /// [`DepthHistogram::total`]), used by wire decoders that ship
    /// histograms between worker processes.  `counts` may be shorter than
    /// the full depth range (missing tail depths count zero); entries beyond
    /// [`crate::delay::MAX_DEPTH`] are rejected.
    ///
    /// Returns `None` when `counts` is longer than the depth range or when
    /// the depth counts sum to more than `total` (a histogram records every
    /// cycle exactly once).
    pub fn from_parts(counts: &[u64], sign_flips: u64, total: u64) -> Option<Self> {
        let mut hist = DepthHistogram::new();
        if counts.len() > hist.counts.len() {
            return None;
        }
        let mut sum = 0u64;
        for (slot, &count) in hist.counts.iter_mut().zip(counts) {
            *slot = count;
            sum = sum.checked_add(count)?;
        }
        if sum != total || sign_flips > total {
            return None;
        }
        hist.sign_flips = sign_flips;
        hist.total = total;
        Some(hist)
    }

    /// Deterministic single-line text encoding of the histogram's
    /// observable parts: `total=<N> flips=<F> counts=<d>:<c>[,...]` with
    /// zero-count depths omitted — the same sparse rendering the pipeline's
    /// unit-result wire protocol ships between worker processes, also used
    /// to persist cached histograms in content-addressed artifact stores.
    ///
    /// [`DepthHistogram::from_wire`] is the exact inverse (the counts are
    /// integers, so the round trip is trivially lossless).
    pub fn to_wire(&self) -> String {
        let mut out = format!("total={} flips={} counts=", self.total, self.sign_flips);
        let mut first = true;
        for (depth, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{depth}:{count}"));
        }
        out
    }

    /// Decodes a [`DepthHistogram::to_wire`] line.  Returns `None` on any
    /// malformed input, including inconsistent totals (the same checks as
    /// [`DepthHistogram::from_parts`]), depths beyond
    /// [`crate::delay::MAX_DEPTH`], and depths that do not strictly ascend
    /// (`to_wire` writes each depth once, in ascending order).
    pub fn from_wire(line: &str) -> Option<DepthHistogram> {
        let mut tokens = line.split_whitespace();
        let total: u64 = tokens.next()?.strip_prefix("total=")?.parse().ok()?;
        let flips: u64 = tokens.next()?.strip_prefix("flips=")?.parse().ok()?;
        // An empty counts list renders as a bare "counts=" token, which
        // `split_whitespace` still yields (the line never ends in a space).
        let counts_value = tokens.next()?.strip_prefix("counts=")?;
        if tokens.next().is_some() {
            return None;
        }
        let mut dense: Vec<u64> = Vec::new();
        if !counts_value.is_empty() {
            for entry in counts_value.split(',') {
                let (depth, count) = entry.split_once(':')?;
                let depth: usize = depth.parse().ok()?;
                let count: u64 = count.parse().ok()?;
                // Checked before the depth sizes the vector: a corrupt
                // store entry or worker reply must decode to `None`, never
                // panic on `depth + 1` or abort on a huge allocation.
                if depth > crate::delay::MAX_DEPTH as usize || depth < dense.len() {
                    return None;
                }
                dense.resize(depth + 1, 0);
                dense[depth] = count;
            }
        }
        DepthHistogram::from_parts(&dense, flips, total)
    }

    /// Expected TER under the given delay model and operating condition at
    /// typical silicon: the histogram folded over
    /// [`DelayModel::depth_probabilities`] at process offset `0.0`.  A
    /// [`crate::CornerTable`] folds every PE of a die through the same sum.
    pub fn ter(&self, delay: &DelayModel, condition: &OperatingCondition) -> f64 {
        self.fold(&delay.depth_probabilities(condition, 0.0))
    }

    /// Expected error rate for per-depth error probabilities `p` (index =
    /// depth): `Σ count · p[depth] / total` over the non-empty depths in
    /// ascending order, or `0.0` for an empty histogram.  Every analytic
    /// TER is this one fold, so the sums keep their order, and their bits,
    /// whoever evaluated `p`.
    pub(crate) fn fold(&self, p: &[f64; MAX_DEPTH as usize + 1]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let expected: f64 = self
            .counts
            .iter()
            .zip(p)
            .filter(|(&count, _)| count > 0)
            .map(|(&count, &p)| count as f64 * p)
            .sum();
        expected / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &DepthHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sign_flips += other.sign_flips;
        self.total += other.total;
    }

    /// Records one cycle's triggered depth and sign flip — the scalar
    /// reference path (also used by the [`CycleObserver::on_cycle`] impl).
    /// Depths beyond the histogram range clamp into the top bucket.
    pub fn record_depth(&mut self, depth: u32, sign_flip: bool) {
        self.total += 1;
        if sign_flip {
            self.sign_flips += 1;
        }
        let idx = (depth as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Packed-lane accumulation: tallies up to 64 lanes of one
    /// [`DepthWord`] at once.  Instead of 64 scalar bucket increments, each
    /// occupied depth is extracted as an equality mask over the packed depth
    /// counter and counted with `count_ones`; lanes at or beyond the top
    /// bucket clamp there, mirroring [`DepthHistogram::record_depth`].
    ///
    /// Because every tally is an integer count, accumulating words in any
    /// order produces exactly the counts of the equivalent
    /// [`DepthHistogram::record_depth`] calls — the byte-identity invariant
    /// the word-parallel simulation path relies on.
    pub fn record_word(&mut self, word: &DepthWord) {
        self.total += u64::from(word.lane_mask.count_ones());
        self.sign_flips += u64::from((word.sign_flips & word.lane_mask).count_ones());
        let top = self.counts.len() - 1;
        let mut remaining = word.lane_mask;
        let mut depth = 0usize;
        while remaining != 0 && depth < top {
            let at_depth = bitplane::lanes_eq(&word.depth_planes, depth as u64) & remaining;
            if at_depth != 0 {
                self.counts[depth] += u64::from(at_depth.count_ones());
                remaining &= !at_depth;
            }
            depth += 1;
        }
        // Everything at or beyond the top depth clamps into the last bucket
        // (for MAC cycles that is exactly depth == ACC_BITS, the sign-flip
        // worst case).
        self.counts[top] += u64::from(remaining.count_ones());
    }
}

impl Default for DepthHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleObserver for DepthHistogram {
    fn on_cycle(&mut self, _ctx: &CycleContext, cycle: &MacCycle) {
        let depth = if cycle.is_idle() {
            0
        } else {
            DelayModel::triggered_depth(cycle)
        };
        self.record_depth(depth, cycle.sign_flip);
    }

    // The histogram is a pure integer tally, so it opts into the
    // word-parallel simulation kernel; the accumulated counts are
    // byte-identical to the scalar path (see `record_word`).
    fn depth_word_sink(&mut self) -> Option<&mut dyn DepthWordSink> {
        Some(self)
    }
}

impl DepthWordSink for DepthHistogram {
    fn on_depth_word(&mut self, word: &DepthWord) {
        self.record_word(word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{ArrayConfig, Dataflow, GemmProblem, Matrix};

    fn demo_problem() -> GemmProblem {
        let w = Matrix::from_fn(64, 4, |r, c| (((r * 13 + c * 7) % 17) as i8) - 8);
        let a = Matrix::from_fn(64, 16, |r, c| ((r * 3 + c) % 6) as i8);
        GemmProblem::new(w, a).unwrap()
    }

    /// The analytic per-cycle fold, kept as the oracle of the histogram
    /// path: the expected error count `Σ p(cycle)` at one condition on
    /// typical silicon, and the part of it from sign-flip cycles.
    struct CycleOracle {
        delay: DelayModel,
        condition: OperatingCondition,
        cycles: u64,
        sign_flips: u64,
        errors: f64,
        sign_flip_errors: f64,
    }

    impl CycleOracle {
        fn ter(&self) -> f64 {
            self.errors / self.cycles as f64
        }

        fn sign_flip_error_fraction(&self) -> f64 {
            self.sign_flip_errors / self.errors
        }
    }

    impl CycleObserver for CycleOracle {
        fn on_cycle(&mut self, _ctx: &CycleContext, cycle: &MacCycle) {
            let p = self.delay.error_probability(cycle, &self.condition, 0.0);
            self.cycles += 1;
            self.errors += p;
            if cycle.sign_flip {
                self.sign_flips += 1;
                self.sign_flip_errors += p;
            }
        }
    }

    fn run(condition: OperatingCondition) -> CycleOracle {
        let mut oracle = CycleOracle {
            delay: DelayModel::nangate15_like(),
            condition,
            cycles: 0,
            sign_flips: 0,
            errors: 0.0,
            sign_flip_errors: 0.0,
        };
        demo_problem()
            .simulate(
                &ArrayConfig::paper_default(),
                Dataflow::OutputStationary,
                &mut oracle,
            )
            .unwrap();
        oracle
    }

    #[test]
    fn stress_increases_ter() {
        let ideal = run(OperatingCondition::ideal());
        let worst = run(OperatingCondition::aging_vt(10.0, 0.05));
        assert_eq!(ideal.cycles, worst.cycles);
        assert!(ideal.ter() < 1e-6);
        assert!(worst.ter() > ideal.ter() * 10.0);
        assert!(worst.ter() < 0.5);
    }

    /// The paper's claim: the partial-sum sign flip is the critical input
    /// pattern, causing most timing errors under stress.
    #[test]
    fn sign_flips_dominate_errors_under_stress() {
        let worst = run(OperatingCondition::aging_vt(10.0, 0.05));
        assert!(worst.sign_flips > 0);
        assert!(
            worst.sign_flip_error_fraction() > 0.5,
            "sign flips should contribute most of the error mass, got {}",
            worst.sign_flip_error_fraction()
        );
    }

    #[test]
    fn depth_histogram_matches_analyzer_ter() {
        let condition = OperatingCondition::aging_vt(10.0, 0.05);
        let mut hist = DepthHistogram::new();
        demo_problem()
            .simulate(
                &ArrayConfig::paper_default(),
                Dataflow::OutputStationary,
                &mut hist,
            )
            .unwrap();
        let oracle = run(condition);
        let from_hist = hist.ter(&DelayModel::nangate15_like(), &condition);
        let from_cycles = oracle.ter();
        assert!(
            (from_hist - from_cycles).abs() <= from_cycles * 1e-9 + 1e-15,
            "{from_hist} vs {from_cycles}"
        );
        assert_eq!(hist.total(), oracle.cycles);
        assert_eq!(hist.sign_flips(), oracle.sign_flips);
    }

    #[test]
    fn depth_histogram_merge_accumulates() {
        let mut a = DepthHistogram::new();
        let mut b = DepthHistogram::new();
        let other = {
            let w = Matrix::from_fn(32, 4, |r, c| (((r * 5 + c * 11) % 15) as i8) - 7);
            let a = Matrix::from_fn(32, 4, |r, c| ((r + c * 5) % 9) as i8);
            GemmProblem::new(w, a).unwrap()
        };
        let array = ArrayConfig::paper_default();
        demo_problem()
            .simulate(&array, Dataflow::OutputStationary, &mut a)
            .unwrap();
        other
            .simulate(&array, Dataflow::OutputStationary, &mut b)
            .unwrap();
        let total = a.total() + b.total();
        a.merge(&b);
        assert_eq!(a.total(), total);
        assert!(a.sign_flip_rate() >= 0.0);
        assert_eq!(
            DepthHistogram::default()
                .ter(&DelayModel::nangate15_like(), &OperatingCondition::ideal()),
            0.0
        );
    }

    /// The histogram accumulated through the word-parallel kernel is
    /// byte-identical to the scalar per-cycle path, for both dataflows (a
    /// `ScalarPath` wrapper forces the scalar route on the same type).
    #[test]
    fn packed_histogram_is_byte_identical_to_scalar_path() {
        use accel_sim::ScalarPath;
        let array = ArrayConfig::paper_default();
        // 5 channels in two column groups.  At 70 pixels (350 outputs) one
        // word straddles the groups and the last holds 30 lanes; at 33
        // pixels (165 outputs) the last word straddles them with 37 lanes.
        for pixels in [70, 33] {
            let w = Matrix::from_fn(48, 5, |r, c| (((r * 13 + c * 7) % 17) as i8) - 8);
            let a = Matrix::from_fn(48, pixels, |r, c| (((r * 3 + c) % 9) as i8) - 2);
            let problem = GemmProblem::new(w, a).unwrap();
            for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
                let mut packed = DepthHistogram::new();
                let mut scalar = ScalarPath(DepthHistogram::new());
                let fast = problem.simulate(&array, dataflow, &mut packed).unwrap();
                let slow = problem.simulate(&array, dataflow, &mut scalar).unwrap();
                assert_eq!(packed, scalar.0, "{dataflow:?} pixels={pixels}");
                assert_eq!(packed.to_wire(), scalar.0.to_wire());
                assert_eq!(fast.outputs, slow.outputs);
                assert_eq!(fast.total_cycles, slow.total_cycles);
                assert_eq!(fast.total_cycles, (48 * 5 * pixels) as u64);
                assert!(packed.total() > 0);
            }
        }
    }

    /// `record_word` equals per-lane `record_depth` calls, including the
    /// top-bucket clamp for out-of-range depths.
    #[test]
    fn packed_record_word_equals_scalar_record_depth() {
        use accel_sim::DepthWord;
        let mut packed = DepthHistogram::new();
        let mut scalar = DepthHistogram::new();
        // 31 exceeds MAX_DEPTH: both paths must clamp into the top bucket.
        let depths: Vec<u32> = (0..40).map(|l| [0u32, 3, 24, 31, 7][l % 5]).collect();
        let mut depth_planes = [0u64; accel_sim::bitplane::DEPTH_PLANES];
        let mut flips = 0u64;
        for (lane, &d) in depths.iter().enumerate() {
            for (k, plane) in depth_planes.iter_mut().enumerate() {
                *plane |= u64::from((d >> k) & 1) << lane;
            }
            if lane % 3 == 0 {
                flips |= 1 << lane;
            }
        }
        let lane_mask = accel_sim::bitplane::lane_mask(depths.len());
        packed.record_word(&DepthWord {
            depth_planes,
            sign_flips: flips,
            lane_mask,
        });
        for (lane, &d) in depths.iter().enumerate() {
            scalar.record_depth(d, lane % 3 == 0);
        }
        assert_eq!(packed, scalar);
        assert_eq!(packed.total(), 40);
    }

    #[test]
    fn depth_histogram_wire_round_trips_exactly() {
        let hist = DepthHistogram::from_parts(&[10, 0, 3, 0, 2], 4, 15).unwrap();
        let wire = hist.to_wire();
        assert_eq!(wire, "total=15 flips=4 counts=0:10,2:3,4:2");
        assert_eq!(DepthHistogram::from_wire(&wire), Some(hist));
        // The empty histogram round-trips through the bare counts token.
        let empty = DepthHistogram::new();
        assert_eq!(empty.to_wire(), "total=0 flips=0 counts=");
        assert_eq!(DepthHistogram::from_wire(&empty.to_wire()), Some(empty));
        // The top bucket is in range.
        let mut top = DepthHistogram::new();
        top.record_depth(crate::delay::MAX_DEPTH, false);
        assert_eq!(DepthHistogram::from_wire(&top.to_wire()), Some(top));
    }

    #[test]
    fn malformed_wire_histograms_are_rejected() {
        for bad in [
            "",
            "total=1 flips=0",                    // missing counts
            "total=1 flips=0 counts=0:2",         // counts exceed total
            "total=2 flips=3 counts=0:2",         // flips exceed total
            "total=x flips=0 counts=",            // bad total
            "total=1 flips=0 counts=0:1 extra=1", // trailing token
            "total=1 flips=0 counts=99999:1",     // depth out of range
            "flips=0 total=1 counts=",            // wrong field order
            // `depth + 1` would wrap to 0.
            "total=1 flips=0 counts=18446744073709551615:1",
            // Sizing the dense counts by this depth would need 800 GB.
            "total=1 flips=0 counts=100000000000:1",
            // A repeated or descending depth would overwrite a count.
            "total=1 flips=0 counts=3:5,3:1",
            "total=2 flips=0 counts=3:1,2:1",
        ] {
            assert!(
                DepthHistogram::from_wire(bad).is_none(),
                "{bad:?} should not decode"
            );
        }
    }
}
