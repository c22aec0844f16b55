//! Dynamic timing analysis: converting simulated MAC cycles into timing
//! errors.
//!
//! The analyzer implements [`accel_sim::CycleObserver`], so it can be plugged
//! directly into a [`accel_sim::GemmProblem`] simulation.  Two analysis modes
//! are provided:
//!
//! * [`AnalysisMode::Analytic`] (default) — every cycle contributes its
//!   closed-form error probability to the expected error count.  This gives
//!   smooth, low-variance TER estimates even at the 1e-7 level without
//!   having to simulate billions of cycles, mirroring how an LVF-based
//!   statistical STA/DTA flow reports failure probabilities.
//! * [`AnalysisMode::MonteCarlo`] — every cycle draws a Bernoulli sample, so
//!   discrete error events (and their locations) can be observed.

use accel_sim::{
    bitplane, ArrayConfig, CycleContext, CycleObserver, DepthWord, DepthWordSink, MacCycle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::analysis::{OperatingCorner, PeOffsets, Variation};
use crate::delay::DelayModel;
use crate::pvta::OperatingCondition;

/// How the analyzer turns per-cycle error probabilities into a TER estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnalysisMode {
    /// Accumulate expected errors analytically (low-variance, deterministic).
    #[default]
    Analytic,
    /// Draw a Bernoulli sample per cycle with the given RNG seed.
    MonteCarlo {
        /// Seed of the per-analyzer random number generator.
        seed: u64,
    },
}

impl AnalysisMode {
    /// Placeholder seed for the analyzer's RNG in analytic mode, where the
    /// generator is constructed but never consumed.  Kept as a named
    /// constant so the "analytic mode has no sampling seed" decision lives
    /// in exactly one documented place.
    pub const ANALYTIC_PLACEHOLDER_SEED: u64 = 0;

    /// The sampling seed of this mode: `Some` for Monte-Carlo, `None` for
    /// analytic mode, which draws no random numbers.
    pub fn seed(&self) -> Option<u64> {
        match self {
            AnalysisMode::Analytic => None,
            AnalysisMode::MonteCarlo { seed } => Some(*seed),
        }
    }
}

/// Summary of a dynamic-timing-analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Corner name the analysis was run at.
    pub condition: &'static str,
    /// Total MAC cycles analyzed.
    pub total_cycles: u64,
    /// Expected (analytic) or observed (Monte-Carlo) number of timing errors.
    pub errors: f64,
    /// Timing error rate: `errors / total_cycles`.
    pub ter: f64,
    /// Number of cycles whose partial-sum sign flipped.
    pub sign_flips: u64,
    /// Sign-flip rate: `sign_flips / total_cycles`.
    pub sign_flip_rate: f64,
    /// Fraction of the expected errors contributed by sign-flip cycles.
    pub sign_flip_error_fraction: f64,
    /// Clock period used (normalized units).
    pub clock_period: f64,
    /// Number of completed output activations observed.
    pub outputs: u64,
}

impl TimingReport {
    /// Activation-level bit error rate implied by this TER for outputs that
    /// accumulate `macs_per_output` MAC operations (the paper's Eq. (1)).
    pub fn ber(&self, macs_per_output: usize) -> f64 {
        crate::ter::ber_from_ter(self.ter, macs_per_output)
    }
}

/// An [`accel_sim::CycleObserver`] that performs dynamic timing analysis.
///
/// # Example
///
/// ```
/// use accel_sim::{ArrayConfig, Dataflow, GemmProblem, Matrix, SimOptions};
/// use timing::{AnalysisMode, DelayModel, DynamicTimingAnalyzer, OperatingCondition};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Matrix::from_fn(32, 4, |r, c| ((r * 3 + c) % 9) as i8 - 4);
/// let a = Matrix::from_fn(32, 4, |r, c| ((r + c) % 5) as i8);
/// let problem = GemmProblem::new(w, a)?;
/// let mut dta = DynamicTimingAnalyzer::new(
///     DelayModel::nangate15_like(),
///     OperatingCondition::aging_vt(10.0, 0.05),
/// );
/// problem.simulate(
///     &ArrayConfig::paper_default(),
///     Dataflow::OutputStationary,
///     &SimOptions::exhaustive(),
///     &mut dta,
/// )?;
/// println!("TER = {:.3e}", dta.report().ter);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicTimingAnalyzer {
    delay: DelayModel,
    condition: OperatingCondition,
    mode: AnalysisMode,
    rng: StdRng,
    /// Per-PE process offsets, when PE-level variation is enabled.
    pe_offsets: Option<(ArrayConfig, Vec<f64>)>,
    total_cycles: u64,
    expected_errors: f64,
    observed_errors: u64,
    sign_flips: u64,
    sign_flip_error_mass: f64,
    outputs: u64,
}

impl DynamicTimingAnalyzer {
    /// Creates an analytic-mode analyzer.
    pub fn new(delay: DelayModel, condition: OperatingCondition) -> Self {
        Self::with_mode(delay, condition, AnalysisMode::Analytic)
    }

    /// Creates an analyzer with an explicit analysis mode.
    pub fn with_mode(delay: DelayModel, condition: OperatingCondition, mode: AnalysisMode) -> Self {
        // Analytic mode never samples; its RNG only exists to keep the
        // struct uniform across modes (see ANALYTIC_PLACEHOLDER_SEED).
        let seed = mode
            .seed()
            .unwrap_or(AnalysisMode::ANALYTIC_PLACEHOLDER_SEED);
        DynamicTimingAnalyzer {
            delay,
            condition,
            mode,
            rng: StdRng::seed_from_u64(seed),
            pe_offsets: None,
            total_cycles: 0,
            expected_errors: 0.0,
            observed_errors: 0,
            sign_flips: 0,
            sign_flip_error_mass: 0.0,
            outputs: 0,
        }
    }

    /// Creates an analyzer for a full [`OperatingCorner`]: the corner's
    /// condition drives the delay derate and a [`Variation::PerPe`] corner
    /// enables per-PE process variation on the given array geometry.
    ///
    /// This is the cycle-level counterpart of the histogram-based
    /// [`crate::TimingAnalysis`] engines — both draw the same per-PE
    /// offsets ([`PeOffsets`]) for the same corner.
    pub fn at_corner(delay: DelayModel, corner: OperatingCorner, mode: AnalysisMode) -> Self {
        let analyzer = Self::with_mode(delay, corner.condition, mode);
        match corner.variation {
            Variation::Typical => analyzer,
            Variation::PerPe { rows, cols, seed } => {
                analyzer.with_process_variation(ArrayConfig::new(rows, cols), seed)
            }
        }
    }

    /// Enables per-PE process variation: each processing element of `array`
    /// receives a fixed Gaussian delay offset drawn with `seed`.
    ///
    /// When enabled, the per-cycle random component only models the cycle-to
    /// -cycle environmental noise; the process component is attributed to
    /// the specific PE that executed the cycle.
    pub fn with_process_variation(mut self, array: ArrayConfig, seed: u64) -> Self {
        let offsets = PeOffsets::draw(array.pe_count(), self.delay.sigma_process, seed);
        self.pe_offsets = Some((array, offsets.as_slice().to_vec()));
        self
    }

    fn process_offset(&self, ctx: &CycleContext) -> f64 {
        match &self.pe_offsets {
            Some((array, offsets)) => {
                let row = ctx.pixel % array.rows();
                let col = ctx.channel % array.cols();
                offsets[row * array.cols() + col]
            }
            None => 0.0,
        }
    }

    /// The operating condition this analyzer evaluates.
    pub fn condition(&self) -> &OperatingCondition {
        &self.condition
    }

    /// The delay model in use.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay
    }

    /// Number of MAC cycles analyzed so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Current timing-error-rate estimate.
    pub fn ter(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let errors = match self.mode {
            AnalysisMode::Analytic => self.expected_errors,
            AnalysisMode::MonteCarlo { .. } => self.observed_errors as f64,
        };
        errors / self.total_cycles as f64
    }

    /// Produces the analysis report.
    pub fn report(&self) -> TimingReport {
        let errors = match self.mode {
            AnalysisMode::Analytic => self.expected_errors,
            AnalysisMode::MonteCarlo { .. } => self.observed_errors as f64,
        };
        let total = self.total_cycles.max(1) as f64;
        TimingReport {
            condition: self.condition.name,
            total_cycles: self.total_cycles,
            errors,
            ter: if self.total_cycles == 0 {
                0.0
            } else {
                errors / total
            },
            sign_flips: self.sign_flips,
            sign_flip_rate: if self.total_cycles == 0 {
                0.0
            } else {
                self.sign_flips as f64 / total
            },
            sign_flip_error_fraction: if self.expected_errors > 0.0 {
                self.sign_flip_error_mass / self.expected_errors
            } else {
                0.0
            },
            clock_period: self.delay.clock_period(),
            outputs: self.outputs,
        }
    }

    /// Resets all counters, keeping the configuration.
    pub fn reset(&mut self) {
        self.total_cycles = 0;
        self.expected_errors = 0.0;
        self.observed_errors = 0;
        self.sign_flips = 0;
        self.sign_flip_error_mass = 0.0;
        self.outputs = 0;
    }
}

impl CycleObserver for DynamicTimingAnalyzer {
    fn on_cycle(&mut self, ctx: &CycleContext, cycle: &MacCycle) {
        self.total_cycles += 1;
        if cycle.sign_flip {
            self.sign_flips += 1;
        }
        let offset = self.process_offset(ctx);
        let p = self.delay.error_probability(cycle, &self.condition, offset);
        self.expected_errors += p;
        if cycle.sign_flip {
            self.sign_flip_error_mass += p;
        }
        if let AnalysisMode::MonteCarlo { .. } = self.mode {
            if p > 0.0 && self.rng.gen::<f64>() < p {
                self.observed_errors += 1;
            }
        }
    }

    fn on_output_done(&mut self, _ctx: &CycleContext, _final_psum: i32) {
        self.outputs += 1;
    }
}

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
    /// malformed input, including inconsistent totals and out-of-range
    /// depths (the same checks as [`DepthHistogram::from_parts`]).
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
                if depth >= dense.len() {
                    dense.resize(depth + 1, 0);
                }
                dense[depth] = count;
            }
        }
        DepthHistogram::from_parts(&dense, flips, total)
    }

    /// Expected TER under the given delay model and operating condition.
    pub fn ter(&self, delay: &DelayModel, condition: &OperatingCondition) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let expected: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(depth, &count)| {
                count as f64 * delay.error_probability_for_depth(depth as u32, condition, 0.0)
            })
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
    use accel_sim::{ArrayConfig, Dataflow, GemmProblem, Matrix, SimOptions};

    fn demo_problem() -> GemmProblem {
        let w = Matrix::from_fn(64, 4, |r, c| (((r * 13 + c * 7) % 17) as i8) - 8);
        let a = Matrix::from_fn(64, 16, |r, c| ((r * 3 + c) % 6) as i8);
        GemmProblem::new(w, a).unwrap()
    }

    fn run(condition: OperatingCondition) -> TimingReport {
        let mut dta = DynamicTimingAnalyzer::new(DelayModel::nangate15_like(), condition);
        demo_problem()
            .simulate(
                &ArrayConfig::paper_default(),
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut dta,
            )
            .unwrap();
        dta.report()
    }

    #[test]
    fn stress_increases_ter() {
        let ideal = run(OperatingCondition::ideal());
        let worst = run(OperatingCondition::aging_vt(10.0, 0.05));
        assert_eq!(ideal.total_cycles, worst.total_cycles);
        assert!(ideal.ter < 1e-6);
        assert!(worst.ter > ideal.ter * 10.0);
        assert!(worst.ter < 0.5);
    }

    #[test]
    fn sign_flips_dominate_errors_under_stress() {
        let worst = run(OperatingCondition::aging_vt(10.0, 0.05));
        assert!(worst.sign_flips > 0);
        assert!(
            worst.sign_flip_error_fraction > 0.5,
            "sign flips should contribute most of the error mass, got {}",
            worst.sign_flip_error_fraction
        );
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_order_of_magnitude() {
        // Use an extreme corner so the Monte-Carlo run sees enough events.
        let condition = OperatingCondition::aging_vt(10.0, 0.10);
        let problem = demo_problem();
        let mut analytic = DynamicTimingAnalyzer::new(DelayModel::nangate15_like(), condition);
        let mut sampled = DynamicTimingAnalyzer::with_mode(
            DelayModel::nangate15_like(),
            condition,
            AnalysisMode::MonteCarlo { seed: 11 },
        );
        let array = ArrayConfig::paper_default();
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut analytic,
            )
            .unwrap();
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut sampled,
            )
            .unwrap();
        let a = analytic.report().ter;
        let s = sampled.report().ter;
        assert!(a > 0.0);
        // Loose agreement: the Monte-Carlo estimate is within 5x of the
        // analytic expectation (small-sample noise).
        assert!(s < a * 5.0 + 1e-3);
        assert!(s > a / 5.0 - 1e-3 || s == 0.0);
    }

    #[test]
    fn process_variation_changes_estimate_slightly() {
        let condition = OperatingCondition::aging_vt(10.0, 0.05);
        let problem = demo_problem();
        let array = ArrayConfig::paper_default();
        let mut plain = DynamicTimingAnalyzer::new(DelayModel::nangate15_like(), condition);
        let mut with_pv = DynamicTimingAnalyzer::new(DelayModel::nangate15_like(), condition)
            .with_process_variation(array, 3);
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut plain,
            )
            .unwrap();
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut with_pv,
            )
            .unwrap();
        let p = plain.report().ter;
        let v = with_pv.report().ter;
        assert!(p > 0.0 && v > 0.0);
        assert!(v < p * 100.0 && v > p / 100.0);
    }

    #[test]
    fn reset_clears_counters() {
        let mut dta = DynamicTimingAnalyzer::new(
            DelayModel::nangate15_like(),
            OperatingCondition::aging_vt(10.0, 0.05),
        );
        demo_problem()
            .simulate(
                &ArrayConfig::paper_default(),
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut dta,
            )
            .unwrap();
        assert!(dta.total_cycles() > 0);
        dta.reset();
        assert_eq!(dta.total_cycles(), 0);
        assert_eq!(dta.ter(), 0.0);
        assert_eq!(dta.report().outputs, 0);
    }

    #[test]
    fn empty_report_is_well_formed() {
        let dta =
            DynamicTimingAnalyzer::new(DelayModel::nangate15_like(), OperatingCondition::ideal());
        let r = dta.report();
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.ter, 0.0);
        assert_eq!(r.sign_flip_rate, 0.0);
    }

    #[test]
    fn report_ber_uses_equation_one() {
        let worst = run(OperatingCondition::aging_vt(10.0, 0.05));
        let ber = worst.ber(1000);
        assert!(ber >= worst.ter);
        assert!(ber <= 1.0);
    }

    #[test]
    fn depth_histogram_matches_analyzer_ter() {
        let problem = demo_problem();
        let array = ArrayConfig::paper_default();
        let delay = DelayModel::nangate15_like();
        let condition = OperatingCondition::aging_vt(10.0, 0.05);
        let mut hist = DepthHistogram::new();
        let mut dta = DynamicTimingAnalyzer::new(delay, condition);
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut hist,
            )
            .unwrap();
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut dta,
            )
            .unwrap();
        let from_hist = hist.ter(&delay, &condition);
        let from_dta = dta.report().ter;
        assert!(
            (from_hist - from_dta).abs() <= from_dta * 1e-9 + 1e-15,
            "{from_hist} vs {from_dta}"
        );
        assert_eq!(hist.total(), dta.report().total_cycles);
        assert_eq!(hist.sign_flips(), dta.report().sign_flips);
    }

    #[test]
    fn depth_histogram_merge_accumulates() {
        let mut a = DepthHistogram::new();
        let mut b = DepthHistogram::new();
        let problem = demo_problem();
        let array = ArrayConfig::paper_default();
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::sampled(4, 1),
                &mut a,
            )
            .unwrap();
        problem
            .simulate(
                &array,
                Dataflow::OutputStationary,
                &SimOptions::sampled(4, 2),
                &mut b,
            )
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
        let problem = {
            // 5 channels x 70 pixels = 350 outputs in two column groups:
            // one word straddles the groups and the last holds 30 lanes.
            let w = Matrix::from_fn(48, 5, |r, c| (((r * 13 + c * 7) % 17) as i8) - 8);
            let a = Matrix::from_fn(48, 70, |r, c| (((r * 3 + c) % 9) as i8) - 2);
            GemmProblem::new(w, a).unwrap()
        };
        let array = ArrayConfig::paper_default();
        for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
            for options in [SimOptions::exhaustive(), SimOptions::sampled(33, 3)] {
                let mut packed = DepthHistogram::new();
                let mut scalar = ScalarPath(DepthHistogram::new());
                let fast = problem
                    .simulate(&array, dataflow, &options, &mut packed)
                    .unwrap();
                let slow = problem
                    .simulate(&array, dataflow, &options, &mut scalar)
                    .unwrap();
                assert_eq!(packed, scalar.0, "{dataflow:?} {options:?}");
                assert_eq!(packed.to_wire(), scalar.0.to_wire());
                assert_eq!(fast.outputs, slow.outputs);
                assert_eq!(fast.total_cycles, slow.total_cycles);
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
        ] {
            assert!(
                DepthHistogram::from_wire(bad).is_none(),
                "{bad:?} should not decode"
            );
        }
    }
}
