//! The unified timing-analysis interface: one vocabulary for *where* a
//! design operates ([`OperatingCorner`]) and one trait for *how* its timing
//! error rate is derived ([`TimingAnalysis`]).
//!
//! Every engine consumes a triggered-depth histogram ([`DepthHistogram`],
//! one simulation pass, reusable across corners) and an
//! [`OperatingCorner`] — an [`OperatingCondition`] plus a [`Variation`]
//! describing the silicon — and produces a [`TerEstimate`] with an optional
//! spread.  [`AnalyticAnalysis`] folds the histogram in closed form,
//! per PE of a specific die when the corner asks for one ([`PeOffsets`]);
//! [`MonteCarloAnalysis`] samples error counts per trial.  The pipeline
//! crate's `ErrorModel` stage builds directly on these engines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delay::DelayModel;
use crate::dta::DepthHistogram;
use crate::pvta::OperatingCondition;

/// Silicon variation component of an [`OperatingCorner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variation {
    /// Typical silicon: the per-PE process sigma is folded into the
    /// per-cycle random delay component (the crate's historical behaviour).
    #[default]
    Typical,
    /// A specific die: each of the `rows x cols` processing elements
    /// receives a fixed Gaussian delay offset drawn with `seed` (stddev
    /// [`DelayModel::sigma_process`]); the per-cycle random component then
    /// only models cycle-to-cycle environmental noise.
    PerPe {
        /// Array rows of the die.
        rows: usize,
        /// Array columns of the die.
        cols: usize,
        /// Seed of the per-PE process-offset draw.
        seed: u64,
    },
}

impl Variation {
    /// Per-PE variation for the given array geometry.
    pub fn per_pe(array: &accel_sim::ArrayConfig, seed: u64) -> Self {
        Variation::PerPe {
            rows: array.rows(),
            cols: array.cols(),
            seed,
        }
    }

    /// One [`Variation::PerPe`] per seed, all on the same array geometry —
    /// the die axis of a corner sweep.
    pub fn dies(array: &accel_sim::ArrayConfig, seeds: impl IntoIterator<Item = u64>) -> Vec<Self> {
        seeds
            .into_iter()
            .map(|seed| Variation::per_pe(array, seed))
            .collect()
    }

    /// Short stable label (`"typical"` / `"pe-var[16x4,seed=3]"`), used in
    /// report `corner` fields and cache fingerprints.
    pub fn label(&self) -> String {
        match self {
            Variation::Typical => "typical".to_string(),
            Variation::PerPe { rows, cols, seed } => {
                format!("pe-var[{rows}x{cols},seed={seed}]")
            }
        }
    }
}

impl std::fmt::Display for Variation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A full operating corner: the environmental condition (voltage,
/// temperature, aging) plus the silicon variation the analysis assumes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OperatingCorner {
    /// Voltage/temperature/aging condition.
    pub condition: OperatingCondition,
    /// Silicon variation model.
    pub variation: Variation,
}

impl OperatingCorner {
    /// A corner at typical silicon (process sigma folded into cycle noise).
    pub fn nominal(condition: OperatingCondition) -> Self {
        OperatingCorner {
            condition,
            variation: Variation::Typical,
        }
    }

    /// A corner on a specific die: per-PE offsets for `array` drawn with
    /// `seed`.
    pub fn per_pe(
        condition: OperatingCondition,
        array: &accel_sim::ArrayConfig,
        seed: u64,
    ) -> Self {
        OperatingCorner {
            condition,
            variation: Variation::per_pe(array, seed),
        }
    }

    /// The full corner grid of a sweep: every variation (die) crossed with
    /// every condition, die-major — all conditions of the first die, then
    /// all conditions of the next.  This is the cell order the pipeline
    /// crate's sweep subsystem evaluates.
    pub fn grid(conditions: &[OperatingCondition], variations: &[Variation]) -> Vec<Self> {
        variations
            .iter()
            .flat_map(|&variation| {
                conditions.iter().map(move |&condition| OperatingCorner {
                    condition,
                    variation,
                })
            })
            .collect()
    }

    /// Stable label: the condition name alone at typical silicon, otherwise
    /// `"<condition>+<variation>"` (e.g. `"Aging&VT-5%+pe-var[16x4,seed=3]"`).
    pub fn label(&self) -> String {
        match self.variation {
            Variation::Typical => self.condition.name.to_string(),
            Variation::PerPe { .. } => {
                format!("{}+{}", self.condition.name, self.variation.label())
            }
        }
    }
}

impl std::fmt::Display for OperatingCorner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Fixed per-PE process delay offsets of one die.
///
/// This is the single place per-PE offsets are drawn, so every evaluation
/// of a die sees the same silicon for the same `(geometry, sigma, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PeOffsets {
    offsets: Vec<f64>,
}

impl PeOffsets {
    /// Draws one fractional delay offset per PE from `N(0, sigma)` using a
    /// Box-Muller transform over an [`StdRng`] seeded with `seed`.
    pub fn draw(pe_count: usize, sigma: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let offsets = (0..pe_count)
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                z * sigma
            })
            .collect();
        PeOffsets { offsets }
    }

    /// The offsets a [`Variation`] implies under `delay`, or `None` at
    /// typical silicon.
    pub fn for_variation(variation: &Variation, delay: &DelayModel) -> Option<Self> {
        match *variation {
            Variation::Typical => None,
            Variation::PerPe { rows, cols, seed } => {
                Some(Self::draw(rows * cols, delay.sigma_process, seed))
            }
        }
    }

    /// The per-PE offsets (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.offsets
    }

    /// Number of PEs.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the die has no PEs.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }
}

/// A timing-error-rate estimate with an optional spread.
///
/// The meaning of `stddev` depends on the producing engine: trial-to-trial
/// spread for Monte-Carlo sampling, PE-to-PE spread for per-PE variation,
/// `None` for a closed-form point estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TerEstimate {
    /// The TER point estimate (mean over trials or PEs where applicable).
    pub ter: f64,
    /// Spread of the estimate, when the engine produces one.
    pub stddev: Option<f64>,
}

impl TerEstimate {
    /// A spread-free point estimate.
    pub fn point(ter: f64) -> Self {
        TerEstimate { ter, stddev: None }
    }

    /// Aggregates per-trial TER samples into a mean and its **sample**
    /// standard deviation (Bessel's `n - 1` correction, not the population
    /// `n` divisor): the trials are a finite sample of the sampling
    /// distribution, so the unbiased variance estimator is the right one.
    /// Fewer than two samples yield a spread of `0.0`; the spread is always
    /// `Some`, marking the estimate as sampled.
    ///
    /// This is the single aggregation every Monte-Carlo path uses —
    /// [`MonteCarloAnalysis::estimate`] feeds it all trials at once, and a
    /// sharded sweep feeds it the concatenation of per-shard
    /// [`MonteCarloAnalysis::trial_ters`] slices, which is how sharded and
    /// unsharded runs stay bit-identical.
    pub fn from_trials(ters: &[f64]) -> Self {
        let mut estimate = mean_and_spread(ters);
        estimate.stddev = Some(estimate.stddev.unwrap_or(0.0));
        estimate
    }
}

/// The common interface of every TER-derivation engine: from a
/// triggered-depth histogram (one simulation pass) to an estimate at any
/// operating corner.
pub trait TimingAnalysis: Send + Sync {
    /// Stable display name of the engine (configuration included).
    fn name(&self) -> String;

    /// Estimates the TER of the recorded cycles at `corner`.
    fn estimate(&self, hist: &DepthHistogram, corner: &OperatingCorner) -> TerEstimate;
}

/// Closed-form analytic engine: every depth bucket contributes its expected
/// error count.
///
/// * At [`Variation::Typical`] this is exactly [`DepthHistogram::ter`].
/// * At [`Variation::PerPe`] the estimate is the population average over the
///   die's PEs — each PE evaluates the histogram with its own process offset
///   (cycles are taken as uniformly spread over the array, which holds for
///   the exhaustive output-stationary sweeps the experiments run) — and
///   `stddev` reports the PE-to-PE spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticAnalysis {
    /// The MAC datapath delay model.
    pub delay: DelayModel,
}

impl AnalyticAnalysis {
    /// Wraps a delay model.
    pub fn new(delay: DelayModel) -> Self {
        AnalyticAnalysis { delay }
    }

    /// Per-PE TERs of `hist` at `condition` for explicit `offsets` (one TER
    /// per PE, offset order preserved).
    pub fn per_pe_ters(
        &self,
        hist: &DepthHistogram,
        condition: &OperatingCondition,
        offsets: &PeOffsets,
    ) -> Vec<f64> {
        offsets
            .as_slice()
            .iter()
            .map(|&offset| histogram_ter_with_offset(hist, &self.delay, condition, offset))
            .collect()
    }
}

impl Default for AnalyticAnalysis {
    fn default() -> Self {
        AnalyticAnalysis::new(DelayModel::nangate15_like())
    }
}

impl TimingAnalysis for AnalyticAnalysis {
    fn name(&self) -> String {
        "analytic".to_string()
    }

    fn estimate(&self, hist: &DepthHistogram, corner: &OperatingCorner) -> TerEstimate {
        match PeOffsets::for_variation(&corner.variation, &self.delay) {
            None => TerEstimate::point(hist.ter(&self.delay, &corner.condition)),
            Some(offsets) => {
                let ters = self.per_pe_ters(hist, &corner.condition, &offsets);
                mean_and_spread(&ters)
            }
        }
    }
}

/// Monte-Carlo engine: draws `trials` independent realizations of the error
/// count implied by the histogram's per-depth probabilities and reports
/// their mean and sample standard deviation.
///
/// Sampling is seeded and fully deterministic: trial `t` uses an [`StdRng`]
/// derived from `seed` and `t` only, so repeated estimates (and serial vs
/// parallel pipeline runs) are byte-identical.  At a [`Variation::PerPe`]
/// corner each depth uses the PE-population-averaged error probability (the
/// histogram does not retain PE identity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloAnalysis {
    /// The MAC datapath delay model.
    pub delay: DelayModel,
    /// Number of independent sampling trials.
    pub trials: u32,
    /// Base RNG seed; trial `t` derives its stream from `(seed, t)`.
    pub seed: u64,
}

impl MonteCarloAnalysis {
    /// Engine with the given trial count and seed.
    pub fn new(delay: DelayModel, trials: u32, seed: u64) -> Self {
        MonteCarloAnalysis {
            delay,
            trials,
            seed,
        }
    }

    /// Per-trial TER samples for the *global* trial indices in `trials` (a
    /// sub-range of `0..self.trials`).  Trial `t` derives its RNG stream
    /// from `(seed, t)` alone, so a trial produces the same sample no matter
    /// which range — or which shard of a sweep — computes it: concatenating
    /// the slices of any partition of `0..self.trials` in index order
    /// reproduces the unsharded sample vector exactly, and
    /// [`TerEstimate::from_trials`] of that vector equals
    /// [`MonteCarloAnalysis::estimate`] bit for bit.
    ///
    /// An empty histogram yields `0.0` for every requested trial.
    pub fn trial_ters(
        &self,
        hist: &DepthHistogram,
        corner: &OperatingCorner,
        trials: std::ops::Range<u32>,
    ) -> Vec<f64> {
        if hist.total() == 0 {
            return vec![0.0; trials.len()];
        }
        let probabilities = self.depth_probabilities(corner);
        let total = hist.total() as f64;
        trials
            .map(|trial| {
                let mut rng = StdRng::seed_from_u64(trial_seed(self.seed, trial));
                let mut errors = 0u64;
                for (depth, &count) in hist.counts().iter().enumerate() {
                    if count > 0 {
                        errors += binomial_sample(&mut rng, count, probabilities[depth]);
                    }
                }
                errors as f64 / total
            })
            .collect()
    }

    fn depth_probabilities(&self, corner: &OperatingCorner) -> Vec<f64> {
        let offsets = PeOffsets::for_variation(&corner.variation, &self.delay);
        (0..=crate::delay::MAX_DEPTH)
            .map(|depth| match &offsets {
                None => self
                    .delay
                    .error_probability_for_depth(depth, &corner.condition, 0.0),
                Some(offsets) if !offsets.is_empty() => {
                    let sum: f64 = offsets
                        .as_slice()
                        .iter()
                        .map(|&o| {
                            self.delay
                                .error_probability_for_depth(depth, &corner.condition, o)
                        })
                        .sum();
                    sum / offsets.len() as f64
                }
                Some(_) => 0.0,
            })
            .collect()
    }
}

impl Default for MonteCarloAnalysis {
    fn default() -> Self {
        MonteCarloAnalysis::new(DelayModel::nangate15_like(), 32, 0)
    }
}

impl TimingAnalysis for MonteCarloAnalysis {
    fn name(&self) -> String {
        format!("monte-carlo[trials={},seed={}]", self.trials, self.seed)
    }

    fn estimate(&self, hist: &DepthHistogram, corner: &OperatingCorner) -> TerEstimate {
        TerEstimate::from_trials(&self.trial_ters(hist, corner, 0..self.trials))
    }
}

/// Mixes the base seed and trial index into one per-trial stream seed
/// (SplitMix64 finalizer).  A plain `seed + trial` would make
/// `(seed, trial+1)` and `(seed+1, trial)` share a stream, so sweeps over
/// nearby base seeds would produce strongly correlated "independent"
/// estimates; the non-linear mix keeps streams distinct across both axes.
fn trial_seed(seed: u64, trial: u32) -> u64 {
    let mut z = seed ^ u64::from(trial).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expected TER of `hist` evaluated with a fixed per-PE process offset.
fn histogram_ter_with_offset(
    hist: &DepthHistogram,
    delay: &DelayModel,
    condition: &OperatingCondition,
    offset: f64,
) -> f64 {
    if hist.total() == 0 {
        return 0.0;
    }
    let expected: f64 = hist
        .counts()
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(depth, &count)| {
            count as f64 * delay.error_probability_for_depth(depth as u32, condition, offset)
        })
        .sum();
    expected / hist.total() as f64
}

/// Mean and **sample** standard deviation (`n - 1` divisor) of a set of
/// TERs (PEs or trials).  See [`TerEstimate::from_trials`] for why sample —
/// not population — stddev is the contract.
fn mean_and_spread(values: &[f64]) -> TerEstimate {
    if values.is_empty() {
        return TerEstimate::point(0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return TerEstimate {
            ter: mean,
            stddev: Some(0.0),
        };
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    TerEstimate {
        ter: mean,
        stddev: Some(var.sqrt()),
    }
}

/// Samples `Binomial(n, p)` by geometric skipping: expected cost `O(n * p)`,
/// which is what makes Monte-Carlo trials over billion-cycle histograms
/// affordable at the paper's 1e-7..1e-3 error probabilities.
fn binomial_sample(rng: &mut StdRng, n: u64, p: f64) -> u64 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // ln(1 - p), always negative here.
    let ln_q = (-p).ln_1p();
    let mut successes = 0u64;
    let mut position = 0u64;
    loop {
        let u: f64 = rng.gen::<f64>();
        if u <= 0.0 {
            // Probability-zero draw; treat as "no further successes".
            break;
        }
        // Failures before the next success are geometric with parameter p.
        let skip = (u.ln() / ln_q).floor();
        if !skip.is_finite() || skip >= (n - position) as f64 {
            break;
        }
        position += skip as u64 + 1;
        successes += 1;
        if position >= n {
            break;
        }
    }
    successes
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{ArrayConfig, Dataflow, GemmProblem, Matrix, SimOptions};

    fn demo_histogram() -> DepthHistogram {
        let w = Matrix::from_fn(64, 4, |r, c| (((r * 13 + c * 7) % 17) as i8) - 8);
        let a = Matrix::from_fn(64, 16, |r, c| ((r * 3 + c) % 6) as i8);
        let mut hist = DepthHistogram::new();
        GemmProblem::new(w, a)
            .unwrap()
            .simulate(
                &ArrayConfig::paper_default(),
                Dataflow::OutputStationary,
                &SimOptions::exhaustive(),
                &mut hist,
            )
            .unwrap();
        hist
    }

    fn stressed() -> OperatingCondition {
        OperatingCondition::aging_vt(10.0, 0.05)
    }

    #[test]
    fn corner_labels_are_stable() {
        let nominal = OperatingCorner::nominal(stressed());
        assert_eq!(nominal.label(), "Aging&VT-5%");
        assert_eq!(nominal.to_string(), nominal.label());
        let die = OperatingCorner::per_pe(stressed(), &ArrayConfig::paper_default(), 3);
        assert_eq!(die.label(), "Aging&VT-5%+pe-var[16x4,seed=3]");
        assert_eq!(Variation::Typical.label(), "typical");
    }

    #[test]
    fn analytic_typical_matches_histogram_ter() {
        let hist = demo_histogram();
        let engine = AnalyticAnalysis::default();
        let estimate = engine.estimate(&hist, &OperatingCorner::nominal(stressed()));
        assert_eq!(estimate.ter, hist.ter(&engine.delay, &stressed()));
        assert_eq!(estimate.stddev, None);
    }

    #[test]
    fn per_pe_population_average_is_near_typical() {
        let hist = demo_histogram();
        let engine = AnalyticAnalysis::default();
        let typical = engine
            .estimate(&hist, &OperatingCorner::nominal(stressed()))
            .ter;
        let die = engine.estimate(
            &hist,
            &OperatingCorner::per_pe(stressed(), &ArrayConfig::paper_default(), 7),
        );
        assert!(die.ter > 0.0);
        // The per-PE population estimate models the same physics with the
        // process sigma attributed per-PE instead of folded per-cycle.
        assert!(die.ter < typical * 10.0 && die.ter > typical / 10.0);
        // A die's PEs genuinely differ.
        assert!(die.stddev.unwrap() > 0.0);
    }

    #[test]
    fn per_pe_ters_depend_on_seed_but_not_on_evaluation_order() {
        let hist = demo_histogram();
        let engine = AnalyticAnalysis::default();
        let offsets_a = PeOffsets::draw(64, engine.delay.sigma_process, 1);
        let offsets_b = PeOffsets::draw(64, engine.delay.sigma_process, 2);
        let ters_a = engine.per_pe_ters(&hist, &stressed(), &offsets_a);
        let ters_b = engine.per_pe_ters(&hist, &stressed(), &offsets_b);
        assert_ne!(ters_a, ters_b);
        // Same seed: identical, element for element.
        let again = engine.per_pe_ters(
            &hist,
            &stressed(),
            &PeOffsets::draw(64, engine.delay.sigma_process, 1),
        );
        assert_eq!(ters_a, again);
    }

    #[test]
    fn monte_carlo_is_deterministic_and_unbiased() {
        let hist = demo_histogram();
        let analytic = AnalyticAnalysis::default()
            .estimate(&hist, &OperatingCorner::nominal(stressed()))
            .ter;
        let engine = MonteCarloAnalysis::new(DelayModel::nangate15_like(), 64, 11);
        let corner = OperatingCorner::nominal(stressed());
        let a = engine.estimate(&hist, &corner);
        let b = engine.estimate(&hist, &corner);
        assert_eq!(a, b, "seeded Monte-Carlo must be reproducible");
        let stddev = a.stddev.unwrap();
        assert!(stddev > 0.0);
        // 64 seeded trials: the mean lands within a few standard errors of
        // the analytic expectation.
        let stderr = stddev / (64f64).sqrt();
        assert!(
            (a.ter - analytic).abs() < 5.0 * stderr + 1e-12,
            "mc {} vs analytic {analytic} (stderr {stderr})",
            a.ter
        );
    }

    #[test]
    fn nearby_base_seeds_use_distinct_trial_streams() {
        // A linear seed+trial scheme would make (seed=0, trial=1) and
        // (seed=1, trial=0) identical and the two estimates nearly equal.
        assert_ne!(trial_seed(0, 1), trial_seed(1, 0));
        let hist = demo_histogram();
        let corner = OperatingCorner::nominal(stressed());
        let a =
            MonteCarloAnalysis::new(DelayModel::nangate15_like(), 32, 0).estimate(&hist, &corner);
        let b =
            MonteCarloAnalysis::new(DelayModel::nangate15_like(), 32, 1).estimate(&hist, &corner);
        assert_ne!(a, b, "adjacent base seeds must not share trial streams");
    }

    #[test]
    fn monte_carlo_handles_degenerate_inputs() {
        let engine = MonteCarloAnalysis::default();
        let corner = OperatingCorner::nominal(stressed());
        let empty = engine.estimate(&DepthHistogram::new(), &corner);
        assert_eq!(empty.ter, 0.0);
        let zero_trials = MonteCarloAnalysis::new(DelayModel::nangate15_like(), 0, 0)
            .estimate(&demo_histogram(), &corner);
        assert_eq!(zero_trials.ter, 0.0);
    }

    #[test]
    fn binomial_sampler_limits_and_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(binomial_sample(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial_sample(&mut rng, 100, 1.0), 100);
        assert_eq!(binomial_sample(&mut rng, 0, 0.5), 0);
        let draws = 400;
        let n = 1000u64;
        let p = 0.01;
        let total: u64 = (0..draws).map(|_| binomial_sample(&mut rng, n, p)).sum();
        let mean = total as f64 / draws as f64;
        // E = 10, sigma ~ 3.1; 400 draws put the sample mean within ~0.5.
        assert!((mean - 10.0).abs() < 1.0, "mean {mean}");
        // No draw may exceed n.
        assert!((0..50).all(|_| binomial_sample(&mut rng, 3, 0.9) <= 3));
    }

    #[test]
    fn pe_offsets_are_deterministic_and_centred() {
        // One seed draws one die: every evaluation of it must see the same
        // offsets.
        let delay = DelayModel::nangate15_like();
        let offsets = PeOffsets::draw(8, delay.sigma_process, 42);
        assert_eq!(offsets.len(), 8);
        assert!(!offsets.is_empty());
        assert_eq!(offsets, PeOffsets::draw(8, delay.sigma_process, 42));
        // Offsets are centred: with sigma 0.05 a gross bias would be a bug.
        let mean: f64 = offsets.as_slice().iter().sum::<f64>() / offsets.len() as f64;
        assert!(mean.abs() < 0.1);
    }

    #[test]
    fn corner_grid_is_die_major() {
        let conditions = [OperatingCondition::ideal(), stressed()];
        let array = ArrayConfig::paper_default();
        let mut variations = vec![Variation::Typical];
        variations.extend(Variation::dies(&array, [1, 2]));
        let grid = OperatingCorner::grid(&conditions, &variations);
        assert_eq!(grid.len(), 6);
        // All conditions of one die before the next die.
        assert_eq!(grid[0].label(), "Ideal");
        assert_eq!(grid[1].label(), "Aging&VT-5%");
        assert_eq!(grid[2].label(), "Ideal+pe-var[16x4,seed=1]");
        assert_eq!(grid[5].label(), "Aging&VT-5%+pe-var[16x4,seed=2]");
        assert!(OperatingCorner::grid(&[], &variations).is_empty());
    }

    #[test]
    fn trial_ters_shard_concatenation_matches_full_run() {
        let hist = demo_histogram();
        let corner = OperatingCorner::nominal(stressed());
        let engine = MonteCarloAnalysis::new(DelayModel::nangate15_like(), 24, 5);
        let full = engine.trial_ters(&hist, &corner, 0..24);
        assert_eq!(full.len(), 24);
        let mut sharded = engine.trial_ters(&hist, &corner, 0..7);
        sharded.extend(engine.trial_ters(&hist, &corner, 7..8));
        sharded.extend(engine.trial_ters(&hist, &corner, 8..24));
        assert_eq!(full, sharded, "trial streams must not depend on the shard");
        assert_eq!(
            engine.estimate(&hist, &corner),
            TerEstimate::from_trials(&full)
        );
    }

    #[test]
    fn from_trials_uses_the_sample_stddev() {
        // Hand-computed three-trial case: mean 0.3; squared deviations
        // 0.04 + 0.01 + 0.01 = 0.06; sample variance 0.06 / 2 = 0.03.
        let estimate = TerEstimate::from_trials(&[0.1, 0.4, 0.4]);
        assert!((estimate.ter - 0.3).abs() < 1e-15);
        let sample = 0.03f64.sqrt();
        let population = 0.02f64.sqrt();
        let stddev = estimate.stddev.unwrap();
        assert!((stddev - sample).abs() < 1e-15, "stddev {stddev}");
        assert!((stddev - population).abs() > 1e-3, "must not be population");
        // Degenerate sample sizes: spread present but zero.
        assert_eq!(
            TerEstimate::from_trials(&[0.5]),
            TerEstimate {
                ter: 0.5,
                stddev: Some(0.0)
            }
        );
        assert_eq!(TerEstimate::from_trials(&[]).stddev, Some(0.0));
    }

    #[test]
    fn engine_names_encode_configuration() {
        assert_eq!(AnalyticAnalysis::default().name(), "analytic");
        assert_eq!(
            MonteCarloAnalysis::new(DelayModel::nangate15_like(), 16, 9).name(),
            "monte-carlo[trials=16,seed=9]"
        );
    }
}
