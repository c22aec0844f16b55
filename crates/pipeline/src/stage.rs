//! The trait-based stages a [`crate::ReadPipeline`] is composed from.
//!
//! * [`ScheduleSource`] — produces a [`ComputeSchedule`] for a layer's
//!   weight matrix (implemented by [`Baseline`], [`read_core::ReadOptimizer`]
//!   and the paper-set [`Algorithm`] enum).
//! * [`ErrorModel`] — turns a triggered-depth histogram into a TER estimate
//!   at an operating condition and a TER into an activation BER.  Three
//!   implementations cover the paper's error-analysis modes:
//!   [`DelayErrorModel`] (closed-form analytic, the default),
//!   [`MonteCarloErrorModel`] (seeded sampling with mean/stddev TER
//!   aggregation) and [`VariationErrorModel`] (per-PE process variation of
//!   one die).  All three delegate to the [`timing::TimingAnalysis`]
//!   engines over one [`timing::DepthHistogram`] per simulation pass.
//! * [`Evaluator`] — measures model accuracy under per-layer BERs
//!   (implemented by [`TopKEvaluator`] wrapping
//!   [`qnn::fault::evaluate_topk`]).
//!
//! Custom heuristics plug in by implementing the same traits.

use accel_sim::{
    ArrayConfig, ComputeSchedule, Dataflow, GemmProblem, Matrix, NullObserver, SimOptions,
};
use dataflow_sim::{run_dataflow, DataflowReport, EngineConfig};
use qnn::fault::{evaluate_topk, Accuracy, FaultConfig, FlipModel};
use qnn::{Dataset, Model};
use read_core::{ClusteringMode, ReadConfig, ReadOptimizer, SortCriterion};
use timing::{
    ber_from_ter, AnalyticAnalysis, DelayModel, DepthHistogram, MonteCarloAnalysis,
    OperatingCondition, OperatingCorner, PeOffsets, TerEstimate, TimingAnalysis, Variation,
};

use crate::error::PipelineError;

/// FNV-1a over a byte stream: the stable fingerprint hash behind every
/// cache key and content-addressed store entry.  Deterministic across runs
/// and processes — on-disk artifact stores ([`crate::DiskStore`]) persist
/// keys derived from it, so the function is part of the store-format
/// contract.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn fingerprint_str(s: &str) -> u64 {
    fnv1a(s.bytes())
}

/// Stage 1: turns a layer's weight matrix into a compute schedule.
pub trait ScheduleSource: Send + Sync {
    /// Stable display name; also used to key experiment rows, so two sources
    /// in one pipeline must not share a name.
    fn name(&self) -> String;

    /// Cache fingerprint: must change whenever the produced schedules could
    /// change (configuration, seed, ...).  The default hashes [`Self::name`],
    /// which is sufficient when the name encodes the full configuration.
    fn fingerprint(&self) -> u64 {
        fingerprint_str(&self.name())
    }

    /// Produces the schedule for a `reduction_len x num_channels` weight
    /// matrix on an array with `array_cols` columns.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Schedule`] when the source rejects the
    /// matrix (e.g. empty weights).
    fn schedule(
        &self,
        weights: &Matrix<i8>,
        array_cols: usize,
    ) -> Result<ComputeSchedule, PipelineError>;
}

/// The unmodified accelerator order: consecutive column tiles, natural
/// reduction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Baseline;

impl ScheduleSource for Baseline {
    fn name(&self) -> String {
        "baseline".to_string()
    }

    fn schedule(
        &self,
        weights: &Matrix<i8>,
        array_cols: usize,
    ) -> Result<ComputeSchedule, PipelineError> {
        Ok(ComputeSchedule::baseline(
            weights.rows(),
            weights.cols(),
            array_cols,
        ))
    }
}

/// The READ optimizer is itself a schedule source: its name and fingerprint
/// encode the full [`ReadConfig`] (criterion, clustering, metric, iteration
/// cap and seed), so differently-seeded optimizers cache independently.
impl ScheduleSource for ReadOptimizer {
    fn name(&self) -> String {
        let c = self.config();
        format!("{}[{}]", c.clustering.name(), c.criterion)
    }

    fn fingerprint(&self) -> u64 {
        // Debug output covers every config field (all are plain data), so
        // any configuration change — including the seed — changes the key.
        fingerprint_str(&format!("{:?}", self.config()))
    }

    fn schedule(
        &self,
        weights: &Matrix<i8>,
        array_cols: usize,
    ) -> Result<ComputeSchedule, PipelineError> {
        Ok(self.optimize(weights, array_cols)?.to_compute_schedule())
    }
}

/// The algorithm configurations compared throughout the paper's evaluation
/// (Figs. 8, 10 and 11), as a ready-made [`ScheduleSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// The unmodified accelerator order.
    Baseline,
    /// Input-channel reordering on consecutive column tiles.
    Reorder(SortCriterion),
    /// Output-channel clustering followed by per-cluster reordering.
    ClusterThenReorder(SortCriterion),
}

impl Algorithm {
    /// The three configurations of Figs. 8, 10 and 11.
    pub fn paper_set() -> [Algorithm; 3] {
        [
            Algorithm::Baseline,
            Algorithm::Reorder(SortCriterion::SignFirst),
            Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
        ]
    }

    /// Display name (inherent mirror of [`ScheduleSource::name`], so
    /// callers need not import the trait).
    pub fn name(&self) -> String {
        ScheduleSource::name(self)
    }

    /// The optimizer configuration this algorithm runs, or `None` for the
    /// baseline.  This is the single place the paper-set configurations are
    /// constructed.
    pub fn read_config(&self) -> Option<ReadConfig> {
        let (criterion, clustering) = match self {
            Algorithm::Baseline => return None,
            Algorithm::Reorder(c) => (*c, ClusteringMode::Direct),
            Algorithm::ClusterThenReorder(c) => (*c, ClusteringMode::ClusterThenReorder),
        };
        Some(ReadConfig {
            criterion,
            clustering,
            ..ReadConfig::default()
        })
    }
}

impl ScheduleSource for Algorithm {
    fn name(&self) -> String {
        match self.read_config() {
            None => Baseline.name(),
            Some(config) => ReadOptimizer::new(config).name(),
        }
    }

    fn fingerprint(&self) -> u64 {
        match self.read_config() {
            None => Baseline.fingerprint(),
            Some(config) => ReadOptimizer::new(config).fingerprint(),
        }
    }

    fn schedule(
        &self,
        weights: &Matrix<i8>,
        array_cols: usize,
    ) -> Result<ComputeSchedule, PipelineError> {
        match self.read_config() {
            None => Baseline.schedule(weights, array_cols),
            Some(config) => ReadOptimizer::new(config).schedule(weights, array_cols),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&ScheduleSource::name(self))
    }
}

/// Stage 2: turns a triggered-depth histogram into error rates.
///
/// The trait is the single seam every TER/BER derivation flows through:
/// analytic, Monte-Carlo and per-PE-variation analysis are all `ErrorModel`
/// implementations, so pipelines (and their reports) swap between them
/// without touching schedule sources, simulation or evaluation.
pub trait ErrorModel: Send + Sync {
    /// Display name of the model.
    fn name(&self) -> String;

    /// Stable configuration fingerprint: must change whenever the estimates
    /// this model produces could change (delay parameters, trial count,
    /// seeds, variation geometry, ...).  Any cache keyed on derived error
    /// rates must include it — the default hashes [`Self::name`], which is
    /// only sufficient when the name encodes the full configuration.
    fn fingerprint(&self) -> u64 {
        fingerprint_str(&self.name())
    }

    /// Full TER estimate (point value plus optional spread) of the recorded
    /// cycles at the given operating condition.
    fn estimate(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> TerEstimate;

    /// Expected MAC-level timing error rate of the recorded cycles at the
    /// given operating condition (the point value of [`Self::estimate`]).
    fn ter(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> f64 {
        self.estimate(hist, condition).ter
    }

    /// Activation-level bit error rate implied by a TER for outputs that
    /// accumulate `macs_per_output` MACs (the paper's Eq. (1)).
    fn ber(&self, ter: f64, macs_per_output: usize) -> f64 {
        ber_from_ter(ter, macs_per_output)
    }

    /// The silicon-variation corner this model evaluates, or `None` at
    /// typical silicon.  Recorded in report rows so a die-specific result is
    /// never mistaken for a population estimate.
    fn corner(&self) -> Option<String> {
        None
    }
}

/// The default error model: the parametric Nangate-15nm-like MAC delay model
/// evaluated over the depth histogram (the expected error count summed over
/// every cycle, reusing one simulation pass for any number of corners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayErrorModel {
    /// The MAC datapath delay model.
    pub delay: DelayModel,
}

impl DelayErrorModel {
    /// Wraps a delay model.
    pub fn new(delay: DelayModel) -> Self {
        DelayErrorModel { delay }
    }
}

impl Default for DelayErrorModel {
    fn default() -> Self {
        DelayErrorModel::new(DelayModel::nangate15_like())
    }
}

impl ErrorModel for DelayErrorModel {
    fn name(&self) -> String {
        "delay-model".to_string()
    }

    fn fingerprint(&self) -> u64 {
        // Debug output covers every delay parameter.
        fingerprint_str(&format!("{self:?}"))
    }

    fn estimate(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> TerEstimate {
        AnalyticAnalysis::new(self.delay).estimate(hist, &OperatingCorner::nominal(*condition))
    }
}

/// Monte-Carlo error model: `trials` seeded sampling realizations of the
/// histogram's error count, aggregated to a mean TER and its **sample**
/// standard deviation (Bessel's `n - 1` correction — see
/// [`TerEstimate::from_trials`] for the contract), surfaced as
/// [`crate::LayerReport::ter_stddev`].
///
/// Estimates are fully deterministic for a fixed `(trials, seed)` — trial
/// `t` derives its RNG stream from `(seed, t)` only — so repeated pipeline
/// runs (serial or parallel) produce byte-identical reports, and a sweep
/// that shards the trial range across work units
/// ([`MonteCarloErrorModel::trial_ters`]) re-aggregates to the exact same
/// estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloErrorModel {
    /// The MAC datapath delay model.
    pub delay: DelayModel,
    /// Number of independent sampling trials per (histogram, condition).
    pub trials: u32,
    /// Base RNG seed.
    pub seed: u64,
}

impl MonteCarloErrorModel {
    /// Model with the default delay model and the given trials/seed.
    pub fn new(trials: u32, seed: u64) -> Self {
        Self::with_delay(DelayModel::nangate15_like(), trials, seed)
    }

    /// Model with an explicit delay model.
    pub fn with_delay(delay: DelayModel, trials: u32, seed: u64) -> Self {
        MonteCarloErrorModel {
            delay,
            trials,
            seed,
        }
    }

    fn engine(&self) -> MonteCarloAnalysis {
        MonteCarloAnalysis::new(self.delay, self.trials, self.seed)
    }

    /// Per-trial TER samples for the global trial indices in `trials` (a
    /// sub-range of `0..self.trials`) — the sharding hook of the sweep
    /// subsystem.  Concatenating the slices of any partition of the full
    /// range in index order and aggregating with
    /// [`TerEstimate::from_trials`] reproduces [`ErrorModel::estimate`] bit
    /// for bit (see [`timing::MonteCarloAnalysis::trial_ters`]).
    pub fn trial_ters(
        &self,
        hist: &DepthHistogram,
        condition: &OperatingCondition,
        trials: std::ops::Range<u32>,
    ) -> Vec<f64> {
        self.engine()
            .trial_ters(hist, &OperatingCorner::nominal(*condition), trials)
    }
}

impl Default for MonteCarloErrorModel {
    fn default() -> Self {
        MonteCarloErrorModel::new(32, 0)
    }
}

impl ErrorModel for MonteCarloErrorModel {
    fn name(&self) -> String {
        self.engine().name()
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_str(&format!("{self:?}"))
    }

    fn estimate(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> TerEstimate {
        self.engine()
            .estimate(hist, &OperatingCorner::nominal(*condition))
    }
}

/// Per-PE process-variation error model: evaluates every condition on one
/// specific die whose PEs carry fixed Gaussian delay offsets (drawn with
/// `seed` at the delay model's `sigma_process`), reporting the PE-population
/// mean TER and the PE-to-PE spread as `ter_stddev`.
///
/// The die identity is recorded in every report row via
/// [`ErrorModel::corner`] (e.g. `"pe-var[16x4,seed=3]"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationErrorModel {
    /// The MAC datapath delay model.
    pub delay: DelayModel,
    /// Array rows of the die.
    pub rows: usize,
    /// Array columns of the die.
    pub cols: usize,
    /// Seed of the per-PE process-offset draw.
    pub seed: u64,
}

impl VariationErrorModel {
    /// Model for the given array geometry with the default delay model.
    pub fn new(array: &ArrayConfig, seed: u64) -> Self {
        Self::with_delay(DelayModel::nangate15_like(), array, seed)
    }

    /// Model with an explicit delay model.
    pub fn with_delay(delay: DelayModel, array: &ArrayConfig, seed: u64) -> Self {
        VariationErrorModel {
            delay,
            rows: array.rows(),
            cols: array.cols(),
            seed,
        }
    }

    fn variation(&self) -> Variation {
        Variation::PerPe {
            rows: self.rows,
            cols: self.cols,
            seed: self.seed,
        }
    }

    /// The die's per-PE offsets (row-major).
    pub fn offsets(&self) -> PeOffsets {
        PeOffsets::draw(self.rows * self.cols, self.delay.sigma_process, self.seed)
    }

    /// Per-PE TERs of `hist` at `condition`, row-major over the array.
    pub fn per_pe_ters(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> Vec<f64> {
        AnalyticAnalysis::new(self.delay).per_pe_ters(hist, condition, &self.offsets())
    }

    /// Per-PE activation BERs (Eq. (1)) of `hist` at `condition` for
    /// outputs accumulating `macs_per_output` MACs.
    pub fn per_pe_bers(
        &self,
        hist: &DepthHistogram,
        condition: &OperatingCondition,
        macs_per_output: usize,
    ) -> Vec<f64> {
        self.per_pe_ters(hist, condition)
            .into_iter()
            .map(|ter| ber_from_ter(ter, macs_per_output))
            .collect()
    }
}

impl ErrorModel for VariationErrorModel {
    fn name(&self) -> String {
        self.variation().label()
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_str(&format!("{self:?}"))
    }

    fn estimate(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> TerEstimate {
        AnalyticAnalysis::new(self.delay).estimate(
            hist,
            &OperatingCorner {
                condition: *condition,
                variation: self.variation(),
            },
        )
    }

    fn corner(&self) -> Option<String> {
        Some(self.variation().label())
    }
}

/// Stage 3: measures accuracy under per-layer BERs.
pub trait Evaluator: Send + Sync {
    /// Display name of the evaluator.
    fn name(&self) -> String;

    /// Stable configuration fingerprint: must change whenever the
    /// accuracies this evaluator produces could change (`k`, flip model,
    /// ...).  Memoized accuracy-unit results are keyed on it — the default
    /// hashes [`Self::name`], which is only sufficient when the name
    /// encodes the full configuration.
    fn fingerprint(&self) -> u64 {
        fingerprint_str(&self.name())
    }

    /// Evaluates `model` on `dataset` with the given per-layer BERs (one per
    /// convolution layer, execution order) and RNG seed.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Eval`] for shape mismatches or an empty
    /// dataset.
    fn evaluate(
        &self,
        model: &Model,
        dataset: &Dataset,
        bers: &[f64],
        seed: u64,
    ) -> Result<Accuracy, PipelineError>;
}

/// The paper's error-injection protocol: flip accumulator bits at the
/// per-layer BER and report top-1 / top-k accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEvaluator {
    /// The `k` of the top-k accuracy figure.
    pub k: usize,
    /// Bit-flip position model.
    pub flip: FlipModel,
}

impl TopKEvaluator {
    /// Evaluator with the paper's default flip model.
    pub fn new(k: usize) -> Self {
        TopKEvaluator {
            k,
            flip: FlipModel::default(),
        }
    }
}

impl Default for TopKEvaluator {
    fn default() -> Self {
        TopKEvaluator::new(3)
    }
}

impl Evaluator for TopKEvaluator {
    fn name(&self) -> String {
        format!("top-{}", self.k)
    }

    fn fingerprint(&self) -> u64 {
        // Debug output covers k and the flip model.
        fingerprint_str(&format!("{self:?}"))
    }

    fn evaluate(
        &self,
        model: &Model,
        dataset: &Dataset,
        bers: &[f64],
        seed: u64,
    ) -> Result<Accuracy, PipelineError> {
        let config = FaultConfig::per_layer(bers.to_vec(), seed).with_flip(self.flip);
        Ok(evaluate_topk(model, dataset, &config, self.k)?)
    }
}

/// Stage 4 (optional): executes a layer's schedule on a timing-aware
/// engine and reports pipeline dynamics (cycles, stalls, buffer pressure).
///
/// This is the event-driven counterpart of the analytic simulation stage:
/// probers never change functional results or error rates, they measure
/// *when* the same MACs happen.  The default implementation is
/// [`EventProber`]; alternative engines (other channel topologies, other
/// latency models) plug in by implementing the same trait.
pub trait DataflowProber: Send + Sync {
    /// Display name of the prober.
    fn name(&self) -> String;

    /// Stable configuration fingerprint: must change whenever the reports
    /// this prober produces could change (channel capacities, latencies,
    /// ...).  Memoized probe-unit results are keyed on it — the default
    /// hashes [`Self::name`], which is only sufficient when the name
    /// encodes the full configuration.
    fn fingerprint(&self) -> u64 {
        fingerprint_str(&self.name())
    }

    /// Probes one layer: executes `schedule` on `problem` under `dataflow`
    /// and returns the timing report.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Sim`] for schedules that do not cover the
    /// problem and [`PipelineError::Probe`] for engine failures.
    fn probe(
        &self,
        problem: &GemmProblem,
        array: &ArrayConfig,
        dataflow: Dataflow,
        schedule: &ComputeSchedule,
        options: &SimOptions,
    ) -> Result<DataflowReport, PipelineError>;
}

/// The default prober: [`dataflow_sim::run_dataflow`] with a fixed
/// [`EngineConfig`], no trace recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventProber {
    /// Channel capacities and hop latency of the simulated fabric.
    pub config: EngineConfig,
}

impl EventProber {
    /// Prober with the given engine configuration.
    pub fn new(config: EngineConfig) -> Self {
        EventProber { config }
    }
}

impl DataflowProber for EventProber {
    fn name(&self) -> String {
        "event-engine".to_string()
    }

    fn fingerprint(&self) -> u64 {
        // Debug output covers every engine knob.
        fingerprint_str(&format!("{self:?}"))
    }

    fn probe(
        &self,
        problem: &GemmProblem,
        array: &ArrayConfig,
        dataflow: Dataflow,
        schedule: &ComputeSchedule,
        options: &SimOptions,
    ) -> Result<DataflowReport, PipelineError> {
        let run = run_dataflow(
            problem,
            array,
            dataflow,
            schedule,
            options,
            &self.config,
            &mut NullObserver,
            None,
        )?;
        Ok(run.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_match_paper_set_conventions() {
        let names: Vec<String> = Algorithm::paper_set()
            .iter()
            .map(ScheduleSource::name)
            .collect();
        assert_eq!(names[0], "baseline");
        assert_eq!(names[1], "reorder[sign_first]");
        assert_eq!(names[2], "cluster-then-reorder[sign_first]");
    }

    #[test]
    fn fingerprints_distinguish_configs() {
        let a = ReadOptimizer::new(ReadConfig::default());
        let b = ReadOptimizer::new(ReadConfig {
            seed: 1,
            ..ReadConfig::default()
        });
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), Baseline.fingerprint());
        // Same config -> same fingerprint.
        assert_eq!(
            a.fingerprint(),
            ReadOptimizer::new(ReadConfig::default()).fingerprint()
        );
    }

    #[test]
    fn baseline_source_matches_compute_schedule_baseline() {
        let weights = Matrix::from_fn(12, 6, |r, c| (r + c) as i8);
        let got = Baseline.schedule(&weights, 4).unwrap();
        assert_eq!(got, ComputeSchedule::baseline(12, 6, 4));
    }

    #[test]
    fn algorithm_sources_produce_valid_schedules() {
        let weights = Matrix::from_fn(24, 8, |r, c| (((r * 5 + c * 3) % 11) as i8) - 5);
        for algorithm in Algorithm::paper_set() {
            let schedule = algorithm.schedule(&weights, 4).unwrap();
            assert!(schedule.validate(24, 8).is_ok(), "{algorithm}");
        }
    }

    fn stress_histogram() -> DepthHistogram {
        use accel_sim::{Dataflow, GemmProblem, SimOptions};
        let w = Matrix::from_fn(48, 4, |r, c| (((r * 11 + c * 3) % 15) as i8) - 7);
        let a = Matrix::from_fn(48, 8, |r, c| ((r + 2 * c) % 5) as i8);
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

    #[test]
    fn error_model_fingerprints_distinguish_configurations() {
        let analytic = DelayErrorModel::default();
        let mc_a = MonteCarloErrorModel::new(32, 0);
        let mc_b = MonteCarloErrorModel::new(32, 1);
        let mc_c = MonteCarloErrorModel::new(64, 0);
        let var_a = VariationErrorModel::new(&ArrayConfig::paper_default(), 0);
        let var_b = VariationErrorModel::new(&ArrayConfig::paper_default(), 1);
        let prints = [
            analytic.fingerprint(),
            mc_a.fingerprint(),
            mc_b.fingerprint(),
            mc_c.fingerprint(),
            var_a.fingerprint(),
            var_b.fingerprint(),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in &prints[i + 1..] {
                assert_ne!(a, b, "fingerprints must distinguish configurations");
            }
        }
        assert_eq!(
            mc_a.fingerprint(),
            MonteCarloErrorModel::new(32, 0).fingerprint()
        );
    }

    #[test]
    fn delay_error_model_estimate_matches_legacy_ter() {
        let hist = stress_histogram();
        let model = DelayErrorModel::default();
        let condition = OperatingCondition::aging_vt(10.0, 0.05);
        let estimate = model.estimate(&hist, &condition);
        assert_eq!(estimate.ter, hist.ter(&model.delay, &condition));
        assert_eq!(estimate.stddev, None);
        assert_eq!(model.ter(&hist, &condition), estimate.ter);
        assert_eq!(model.corner(), None);
    }

    #[test]
    fn monte_carlo_error_model_reports_spread_and_is_reproducible() {
        let hist = stress_histogram();
        let condition = OperatingCondition::aging_vt(10.0, 0.05);
        let model = MonteCarloErrorModel::new(48, 7);
        let a = model.estimate(&hist, &condition);
        let b = model.estimate(&hist, &condition);
        assert_eq!(a, b);
        assert!(a.ter > 0.0);
        assert!(a.stddev.unwrap() > 0.0);
    }

    #[test]
    fn variation_error_model_exposes_per_pe_bers_and_corner() {
        let hist = stress_histogram();
        let condition = OperatingCondition::aging_vt(10.0, 0.05);
        let array = ArrayConfig::paper_default();
        let model = VariationErrorModel::new(&array, 3);
        let estimate = model.estimate(&hist, &condition);
        assert!(estimate.ter > 0.0);
        assert!(estimate.stddev.unwrap() > 0.0, "PEs of a die must differ");
        let bers = model.per_pe_bers(&hist, &condition, 1000);
        assert_eq!(bers.len(), array.pe_count());
        assert!(bers.iter().all(|b| (0.0..=1.0).contains(b)));
        assert_eq!(model.corner().unwrap(), "pe-var[16x4,seed=3]");
        assert_eq!(model.name(), "pe-var[16x4,seed=3]");
    }

    #[test]
    fn event_prober_reports_dynamics_and_fingerprints_its_config() {
        let w = Matrix::from_fn(16, 4, |r, c| (((r * 5 + c * 3) % 11) as i8) - 5);
        let a = Matrix::from_fn(16, 6, |r, c| ((r + 2 * c) % 5) as i8);
        let problem = GemmProblem::new(w, a).unwrap();
        let schedule = ComputeSchedule::baseline(16, 4, 2);
        let prober = EventProber::default();
        let report = prober
            .probe(
                &problem,
                &ArrayConfig::new(4, 2),
                Dataflow::WeightStationary,
                &schedule,
                &SimOptions::exhaustive(),
            )
            .unwrap();
        assert_eq!(report.macs, 16 * 4 * 6);
        assert!(report.peak_psum_buffer > 0);

        let tight = EventProber::new(EngineConfig {
            channel_capacity: 1,
            hop_latency: 2,
        });
        assert_ne!(prober.fingerprint(), tight.fingerprint());
        assert_eq!(prober.fingerprint(), EventProber::default().fingerprint());

        // An under-covering schedule is a simulation-input error.
        let bad = ComputeSchedule::baseline(16, 2, 2);
        let err = prober
            .probe(
                &problem,
                &ArrayConfig::new(4, 2),
                Dataflow::OutputStationary,
                &bad,
                &SimOptions::exhaustive(),
            )
            .unwrap_err();
        assert!(matches!(err, PipelineError::Sim(_)));
    }
}
