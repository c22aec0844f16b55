//! The [`ReadPipeline`]: one composable object for the paper's whole flow —
//! schedule sources × operating conditions × layers, through the simulator
//! and error model, into typed reports.

use std::sync::Arc;

use accel_sim::{ArrayConfig, ComputeSchedule, CycleObserver, Dataflow, Matrix, SimResult};
use qnn::{Dataset, Model};
use read_core::{ReadConfig, ReadOptimizer};
use timing::{DepthHistogram, OperatingCondition};

use crate::cache::{
    weights_fingerprint, ArtifactKind, CacheStats, HistogramArtifact, HistogramCache,
    HistogramCheck, HistogramKey, KeyCheck, ScheduleCache, ScheduleKey, UnitCache,
};
use crate::error::PipelineError;
use crate::executor::{Executor, SerialExecutor, ThreadExecutor};
use crate::plan::{PlanOutput, WorkPlan};
use crate::report::{AccuracyReport, DataflowNetworkReport, NetworkReport};
use crate::stage::{
    fnv1a, DelayErrorModel, ErrorModel, Evaluator, MonteCarloErrorModel, ScheduleSource,
    TopKEvaluator, VariationErrorModel,
};
use crate::store::ArtifactStore;
use crate::sweep::{SweepPlan, SweepReport};
use crate::wire::escape_wire;
use crate::workload::LayerWorkload;

/// The `sim=` field of every plan signature and the tail of every histogram
/// context fingerprint: the Debug text of the simulation options the
/// simulator took before it always covered every output pixel.  Every
/// stored histogram key and every plan signature was made with it, so it
/// stays, byte for byte, to keep warm stores warm.
const SIM_OPTIONS: &str = "SimOptions { max_pixels: None, seed: 12648430 }";

/// Builder for a [`ReadPipeline`].  Obtain with [`ReadPipeline::builder`].
#[derive(Default)]
pub struct ReadPipelineBuilder {
    array: Option<ArrayConfig>,
    dataflow: Option<Dataflow>,
    sources: Vec<Arc<dyn ScheduleSource>>,
    error_model: Option<Arc<dyn ErrorModel>>,
    pe_variation_seed: Option<u64>,
    conditions: Vec<OperatingCondition>,
    evaluator: Option<Arc<dyn Evaluator>>,
    top_k: Option<usize>,
    model: Option<Model>,
    executor: Option<Arc<dyn Executor>>,
    sweep_plan: Option<SweepPlan>,
    store: Option<Arc<dyn ArtifactStore>>,
}

impl ReadPipelineBuilder {
    /// Sets the systolic-array geometry (default:
    /// [`ArrayConfig::paper_default`], 16×4).
    pub fn array(mut self, array: ArrayConfig) -> Self {
        self.array = Some(array);
        self
    }

    /// Sets the dataflow (default: [`Dataflow::OutputStationary`]).
    pub fn dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = Some(dataflow);
        self
    }

    /// Adds a schedule source stage.  Sources run in insertion order and
    /// key the report rows by their [`ScheduleSource::name`].
    pub fn source(mut self, source: impl ScheduleSource + 'static) -> Self {
        self.sources.push(Arc::new(source));
        self
    }

    /// Adds an already-shared schedule source.
    pub fn source_arc(mut self, source: Arc<dyn ScheduleSource>) -> Self {
        self.sources.push(source);
        self
    }

    /// Adds the [`crate::Baseline`] source.
    pub fn baseline(self) -> Self {
        self.source(crate::stage::Baseline)
    }

    /// Adds a READ optimizer source with the given configuration.
    pub fn optimizer(self, config: ReadConfig) -> Self {
        self.source(ReadOptimizer::new(config))
    }

    /// Sets the error-model stage (default: [`DelayErrorModel`] with the
    /// Nangate-15nm-like delay model).
    pub fn error_model(mut self, model: impl ErrorModel + 'static) -> Self {
        self.error_model = Some(Arc::new(model));
        self
    }

    /// Shorthand: a [`MonteCarloErrorModel`] with the default delay model
    /// and the given trials/seed — reports carry `ter_stddev`.
    pub fn monte_carlo(self, trials: u32, seed: u64) -> Self {
        self.error_model(MonteCarloErrorModel::new(trials, seed))
    }

    /// Shorthand: a [`VariationErrorModel`] for this pipeline's array (the
    /// one configured with [`Self::array`], or the paper default) with the
    /// given per-PE offset seed.  Resolved at [`Self::build`] time, so it
    /// composes with `.array(..)` in any order.
    pub fn pe_variation(mut self, seed: u64) -> Self {
        self.pe_variation_seed = Some(seed);
        self
    }

    /// Adds one operating condition.
    pub fn condition(mut self, condition: OperatingCondition) -> Self {
        self.conditions.push(condition);
        self
    }

    /// Adds several operating conditions.
    pub fn conditions(mut self, conditions: impl IntoIterator<Item = OperatingCondition>) -> Self {
        self.conditions.extend(conditions);
        self
    }

    /// Configures the corner/die sweep [`ReadPipeline::run_sweep`] executes.
    /// The plan carries its own conditions (and error models per die), so a
    /// sweep-only pipeline needs no [`Self::condition`] call.
    pub fn sweep(mut self, plan: SweepPlan) -> Self {
        self.sweep_plan = Some(plan);
        self
    }

    /// Sets the evaluator stage (default: [`TopKEvaluator`] with `k = 3`).
    pub fn evaluator(mut self, evaluator: impl Evaluator + 'static) -> Self {
        self.evaluator = Some(Arc::new(evaluator));
        self
    }

    /// Shorthand: a [`TopKEvaluator`] with the given `k`.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Sets the executable model accuracy experiments evaluate.
    pub fn model(mut self, model: Model) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the execution strategy every `run_*` experiment uses (default:
    /// [`SerialExecutor`]).  See [`crate::executor`] for the in-process and
    /// multi-process implementations.
    pub fn executor(mut self, executor: impl Executor + 'static) -> Self {
        self.executor = Some(Arc::new(executor));
        self
    }

    /// Shorthand for a machine-sized [`ThreadExecutor`].
    pub fn parallel(self) -> Self {
        self.executor(ThreadExecutor::machine())
    }

    /// Attaches a content-addressed artifact store the pipeline's caches
    /// persist to and load from: schedules, histograms and memoized unit
    /// results.  Use a [`crate::MemoryStore`] to share artifacts between
    /// pipelines in one process, or a [`crate::DiskStore`] to persist them
    /// across processes and runs — worker processes pointed at the same
    /// store directory stop duplicating optimization and simulation
    /// entirely.  Reports are byte-identical whether an artifact comes from
    /// memory, disk or a fresh computation.
    pub fn store(self, store: impl ArtifactStore + 'static) -> Self {
        self.store_arc(Arc::new(store))
    }

    /// Attaches an already-shared artifact store (see
    /// [`ReadPipelineBuilder::store`]).
    pub fn store_arc(mut self, store: Arc<dyn ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Validates the configuration and builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Builder`] when no schedule source is
    /// configured, when no operating condition is configured (unless a
    /// sweep plan — which carries its own conditions — is), when the sweep
    /// plan is invalid, when two sources share a name, when the array has
    /// no columns, or when `top_k(0)` was requested.
    pub fn build(self) -> Result<ReadPipeline, PipelineError> {
        if self.sources.is_empty() {
            return Err(PipelineError::builder(
                "at least one schedule source is required (use .baseline(), .optimizer(..) or .source(..))",
            ));
        }
        if let Some(plan) = &self.sweep_plan {
            plan.validate()?;
        }
        if self.conditions.is_empty() && self.sweep_plan.is_none() {
            return Err(PipelineError::builder(
                "at least one operating condition is required (use .condition(..) or .sweep(..))",
            ));
        }
        let mut names: Vec<String> = self.sources.iter().map(|s| s.name()).collect();
        names.sort();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(PipelineError::builder(format!(
                "duplicate schedule source name: {:?} (source names key report rows)",
                dup[0]
            )));
        }
        let array = self.array.unwrap_or_else(ArrayConfig::paper_default);
        if array.cols() == 0 || array.rows() == 0 {
            return Err(PipelineError::builder("array must have rows and columns"));
        }
        if self.top_k == Some(0) {
            return Err(PipelineError::builder("top-k requires k >= 1"));
        }
        let evaluator = match (self.evaluator, self.top_k) {
            (Some(e), None) => e,
            (Some(_), Some(_)) => {
                return Err(PipelineError::builder(
                    "set either .evaluator(..) or .top_k(..), not both",
                ))
            }
            (None, k) => Arc::new(TopKEvaluator::new(k.unwrap_or(3))),
        };
        let error_model = match (self.error_model, self.pe_variation_seed) {
            (Some(_), Some(_)) => {
                return Err(PipelineError::builder(
                    "set either .error_model(..)/.monte_carlo(..) or .pe_variation(..), \
                     not both",
                ))
            }
            (Some(model), None) => model,
            (None, Some(seed)) => Arc::new(VariationErrorModel::new(&array, seed)),
            (None, None) => Arc::new(DelayErrorModel::default()),
        };
        Ok(ReadPipeline {
            array,
            dataflow: self.dataflow.unwrap_or(Dataflow::OutputStationary),
            sources: self.sources,
            error_model,
            conditions: self.conditions,
            evaluator,
            model: self.model,
            executor: self.executor.unwrap_or_else(|| Arc::new(SerialExecutor)),
            sweep_plan: self.sweep_plan,
            cache: ScheduleCache::with_store(self.store.clone()),
            hist_cache: HistogramCache::with_store(self.store.clone()),
            unit_cache: UnitCache::with_store(self.store.clone()),
            store: self.store,
        })
    }
}

/// The composed pipeline: schedule sources → simulator → error model →
/// (optionally) fault-injection evaluation, over a set of operating
/// conditions, with seed-keyed schedule and histogram caches and a
/// pluggable [`Executor`] strategy (serial, threaded or worker
/// subprocesses — byte-identical reports either way).
///
/// Every experiment expands into a [`WorkPlan`] first
/// ([`ReadPipeline::plan_ter`] / [`ReadPipeline::plan_sweep`] /
/// [`ReadPipeline::plan_accuracy_for`]); the `run_*` methods are
/// plan-execute-aggregate conveniences over the configured executor.
///
/// # Example
///
/// ```
/// use read_pipeline::{Algorithm, ReadPipeline};
/// use read_pipeline::workload::{vgg16_workloads, WorkloadConfig};
/// use timing::OperatingCondition;
///
/// # fn main() -> Result<(), read_pipeline::PipelineError> {
/// let pipeline = ReadPipeline::builder()
///     .source(Algorithm::Baseline)
///     .source(Algorithm::ClusterThenReorder(Default::default()))
///     .condition(OperatingCondition::aging_vt(10.0, 0.05))
///     .build()?;
/// let config = WorkloadConfig { pixels_per_layer: 1, ..Default::default() };
/// let workloads: Vec<_> = vgg16_workloads(&config).into_iter().take(1).collect();
/// let report = pipeline.run_ter("vgg16-head", &workloads)?;
/// assert_eq!(report.rows.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct ReadPipeline {
    array: ArrayConfig,
    dataflow: Dataflow,
    sources: Vec<Arc<dyn ScheduleSource>>,
    error_model: Arc<dyn ErrorModel>,
    conditions: Vec<OperatingCondition>,
    evaluator: Arc<dyn Evaluator>,
    model: Option<Model>,
    executor: Arc<dyn Executor>,
    sweep_plan: Option<SweepPlan>,
    cache: ScheduleCache,
    hist_cache: HistogramCache,
    unit_cache: UnitCache,
    store: Option<Arc<dyn ArtifactStore>>,
}

impl std::fmt::Debug for ReadPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadPipeline")
            .field("array", &self.array)
            .field("dataflow", &self.dataflow)
            .field(
                "sources",
                &self.sources.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .field("error_model", &self.error_model.name())
            .field(
                "conditions",
                &self.conditions.iter().map(|c| c.name).collect::<Vec<_>>(),
            )
            .field("evaluator", &self.evaluator.name())
            .field("has_model", &self.model.is_some())
            .field("executor", &self.executor.name())
            .field("has_sweep_plan", &self.sweep_plan.is_some())
            .field("store", &self.store.as_ref().map(|s| s.name()))
            .finish_non_exhaustive()
    }
}

impl ReadPipeline {
    /// Starts a builder.
    pub fn builder() -> ReadPipelineBuilder {
        ReadPipelineBuilder::default()
    }

    /// The configured array geometry.
    pub fn array(&self) -> &ArrayConfig {
        &self.array
    }

    /// The configured dataflow.
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// The configured schedule sources, in report order.
    pub fn sources(&self) -> &[Arc<dyn ScheduleSource>] {
        &self.sources
    }

    /// The configured operating conditions, in report order.
    pub fn conditions(&self) -> &[OperatingCondition] {
        &self.conditions
    }

    /// The configured error-model stage.
    pub fn error_model(&self) -> &dyn ErrorModel {
        self.error_model.as_ref()
    }

    /// The configured evaluator stage.
    pub fn evaluator(&self) -> &dyn Evaluator {
        self.evaluator.as_ref()
    }

    /// The configured execution strategy.
    pub fn executor(&self) -> &dyn Executor {
        self.executor.as_ref()
    }

    /// The configured model, when accuracy evaluation is set up.
    pub fn model(&self) -> Option<&Model> {
        self.model.as_ref()
    }

    /// The attached artifact store, when one is configured
    /// ([`ReadPipelineBuilder::store`]).
    pub fn artifact_store(&self) -> Option<&Arc<dyn ArtifactStore>> {
        self.store.as_ref()
    }

    /// The memoized unit-result cache (shared by every [`WorkPlan`] of this
    /// pipeline).
    pub(crate) fn unit_cache(&self) -> &UnitCache {
        &self.unit_cache
    }

    /// Cache-effectiveness counters of all three pipeline caches
    /// (schedules, histograms, memoized unit results) plus the attached
    /// artifact store's counters, when one is configured.
    pub fn cache_stats(&self) -> CacheStats {
        let (hits, misses, collisions, entries) = self.cache.counters();
        let mut stats = CacheStats {
            hits,
            misses,
            collisions,
            entries,
            ..CacheStats::default()
        };
        let (hits, misses, collisions, entries) = self.hist_cache.counters();
        stats.hist_hits = hits;
        stats.hist_misses = misses;
        stats.hist_collisions = collisions;
        stats.hist_entries = entries;
        let (hits, misses, collisions, entries) = self.unit_cache.counters();
        stats.unit_hits = hits;
        stats.unit_misses = misses;
        stats.unit_collisions = collisions;
        stats.unit_entries = entries;
        if let Some(store) = &self.store {
            let store_stats = store.stats();
            stats.disk_hits = store_stats.hits;
            stats.disk_misses = store_stats.misses;
            stats.corrupt_entries = store_stats.corrupt;
            stats.store_writes = store_stats.writes;
        }
        stats
    }

    /// Drops everything the pipeline's in-memory caches hold — schedules,
    /// histograms and memoized unit results — and resets their counters.
    /// An attached artifact store is untouched (its entries still serve
    /// later lookups), so this is the bound on in-process retention: a
    /// long-lived pipeline that has run many large Monte-Carlo sweeps can
    /// release their raw trial samples without losing store-backed reuse.
    pub fn clear_caches(&self) {
        self.cache.clear();
        self.hist_cache.clear();
        self.unit_cache.clear();
    }

    /// Deterministic signature of the pipeline's configured stages — the
    /// pipeline half of every [`WorkPlan`]'s memoization signature.
    pub(crate) fn stage_signature(&self) -> String {
        use std::fmt::Write as _;
        let mut sig = format!(
            "array={}x{} dataflow={:?} sim={SIM_OPTIONS} sources=",
            self.array.rows(),
            self.array.cols(),
            self.dataflow,
        );
        for (i, source) in self.sources.iter().enumerate() {
            if i > 0 {
                sig.push(';');
            }
            let _ = write!(
                sig,
                "{}:{:016x}",
                escape_wire(&source.name()),
                source.fingerprint()
            );
        }
        let _ = write!(
            sig,
            " error={}:{:016x} eval={}:{:016x}",
            escape_wire(&self.error_model.name()),
            self.error_model.fingerprint(),
            escape_wire(&self.evaluator.name()),
            self.evaluator.fingerprint()
        );
        sig
    }

    /// The (cached) schedule `source` produces for `weights` on this
    /// pipeline's array.
    ///
    /// # Errors
    ///
    /// Propagates the source's rejection of the matrix.
    pub fn schedule_for(
        &self,
        weights: &Matrix<i8>,
        source: &dyn ScheduleSource,
    ) -> Result<Arc<ComputeSchedule>, PipelineError> {
        let key = ScheduleKey {
            source: source.fingerprint(),
            weights: weights_fingerprint(weights),
            array_cols: self.array.cols(),
        };
        // Full-key verification data: a fingerprint collision must be
        // detected, never served as a foreign schedule.
        let check = KeyCheck {
            source: source.name(),
            rows: weights.rows(),
            cols: weights.cols(),
        };
        self.cache
            .get_or_compute(key, check, || source.schedule(weights, self.array.cols()))
    }

    /// Simulates `workload` under `source`'s schedule, feeding every cycle
    /// to `observer`.  This is the generic observation hook the specialised
    /// runs (`layer_histogram`, `layer_outputs`, psum traces, ...) build on.
    /// It always simulates — only [`ReadPipeline::layer_histogram`] caches.
    ///
    /// # Errors
    ///
    /// Propagates schedule and simulation failures.
    pub fn observe_layer(
        &self,
        workload: &LayerWorkload,
        source: &dyn ScheduleSource,
        observer: &mut (impl CycleObserver + ?Sized),
    ) -> Result<SimResult, PipelineError> {
        let schedule = self.schedule_for(workload.weights(), source)?;
        Ok(workload.problem()?.simulate_with_schedule(
            &self.array,
            self.dataflow,
            &schedule,
            observer,
        )?)
    }

    /// Fingerprint of the simulation context a cached histogram depends on
    /// (array geometry, dataflow) — combined with the source and workload
    /// fingerprints in the [`HistogramKey`].
    fn sim_context_fingerprint(&self) -> u64 {
        fnv1a(
            format!(
                "{}x{}/{:?}/{SIM_OPTIONS}",
                self.array.rows(),
                self.array.cols(),
                self.dataflow,
            )
            .bytes(),
        )
    }

    /// The full cache key + verification check of `workload`'s histogram
    /// under `source` — shared by the histogram lookup
    /// ([`ReadPipeline::cached_histogram`]) and the serve layer's
    /// content-addressed single-flight identity
    /// ([`ReadPipeline::histogram_check_line`]).
    fn histogram_key_check(
        &self,
        workload: &LayerWorkload,
        source: &dyn ScheduleSource,
    ) -> (HistogramKey, HistogramCheck) {
        let key = HistogramKey {
            source: source.fingerprint(),
            workload: workload.fingerprint(),
            context: self.sim_context_fingerprint(),
        };
        let check = HistogramCheck {
            source: source.name(),
            workload: workload.name().to_string(),
            rows: workload.weights().rows(),
            cols: workload.weights().cols(),
            pixels: workload.activations().cols(),
        };
        (key, check)
    }

    /// The store check line of `workload`'s histogram under `source`: the
    /// complete content identity of the simulation (source and workload
    /// fingerprints, dimensions, simulation context).  Pipelines that would
    /// share this artifact through a common store render identical lines —
    /// the serve layer keys its cross-request single-flight dedup of
    /// histogram work on it (see [`crate::serve`]).
    pub(crate) fn histogram_check_line(
        &self,
        workload: &LayerWorkload,
        source: &dyn ScheduleSource,
    ) -> String {
        let (key, check) = self.histogram_key_check(workload, source);
        HistogramArtifact::check_line(&key, &check)
    }

    /// The one histogram lookup behind [`ReadPipeline::layer_histogram`]
    /// and a [`WorkPlan`]'s units: memory, then store, then simulation.
    pub(crate) fn cached_histogram(
        &self,
        workload: &LayerWorkload,
        source: &dyn ScheduleSource,
    ) -> Result<Arc<DepthHistogram>, PipelineError> {
        let (key, check) = self.histogram_key_check(workload, source);
        self.hist_cache.get_or_compute(key, check, || {
            let mut hist = DepthHistogram::new();
            self.observe_layer(workload, source, &mut hist)?;
            Ok(hist)
        })
    }

    /// Simulates `workload` under `source` and returns the triggered-depth
    /// histogram (from which the TER at any corner follows without
    /// re-simulating).
    ///
    /// Histograms are cached like schedules: the key covers the source
    /// fingerprint, the workload contents and the simulation context — see
    /// [`HistogramCache`] — so a sweep simulates each (workload, source)
    /// pair once and every further corner, die or repeated run reuses it
    /// ([`CacheStats::hist_hits`]).  The key reads the workload's
    /// [`LayerWorkload::fingerprint`], so a lookup hashes no layer bytes.
    ///
    /// # Errors
    ///
    /// Propagates schedule and simulation failures.
    pub fn layer_histogram(
        &self,
        workload: &LayerWorkload,
        source: &dyn ScheduleSource,
    ) -> Result<DepthHistogram, PipelineError> {
        let hist = self.cached_histogram(workload, source)?;
        Ok((*hist).clone())
    }

    /// Simulates `workload` under `source` and returns the layer outputs —
    /// the bit-exactness hook: a schedule must never change them.
    ///
    /// # Errors
    ///
    /// Propagates schedule and simulation failures.
    pub fn layer_outputs(
        &self,
        workload: &LayerWorkload,
        source: &dyn ScheduleSource,
    ) -> Result<Matrix<i32>, PipelineError> {
        let mut obs = accel_sim::NullObserver;
        Ok(self.observe_layer(workload, source, &mut obs)?.outputs)
    }

    /// TER of `workload` under `source` at `condition` (single-cell
    /// convenience over [`ReadPipeline::layer_histogram`]).
    ///
    /// # Errors
    ///
    /// Propagates schedule and simulation failures.
    pub fn layer_ter(
        &self,
        workload: &LayerWorkload,
        source: &dyn ScheduleSource,
        condition: &OperatingCondition,
    ) -> Result<f64, PipelineError> {
        Ok(self
            .error_model
            .ter(&self.layer_histogram(workload, source)?, condition))
    }

    // ---- plan construction ------------------------------------------------

    /// The [`WorkPlan`] of the layer-wise TER experiment
    /// ([`ReadPipeline::run_ter`]): one histogram unit per
    /// (workload, source) pair.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Missing`] on a sweep-only pipeline.
    pub fn plan_ter<'a>(
        &'a self,
        network: &str,
        workloads: &'a [LayerWorkload],
    ) -> Result<WorkPlan<'a>, PipelineError> {
        WorkPlan::ter(self, network, workloads)
    }

    /// The [`WorkPlan`] of the configured corner/die sweep: one histogram
    /// unit per pair (histograms are corner-independent) plus one unit per
    /// Monte-Carlo trial shard per sampling cell.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Missing`] when no sweep plan was configured.
    pub fn plan_sweep<'a>(
        &'a self,
        network: &str,
        workloads: &'a [LayerWorkload],
    ) -> Result<WorkPlan<'a>, PipelineError> {
        let plan = self
            .sweep_plan
            .as_ref()
            .ok_or(PipelineError::Missing { what: "sweep plan" })?;
        WorkPlan::sweep(self, network, workloads, plan)
    }

    /// The [`WorkPlan`] of the accuracy experiment against an
    /// externally-owned model: histogram units per pair plus one unit per
    /// (condition, source) accuracy cell.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Missing`] on a sweep-only pipeline and
    /// [`PipelineError::Input`] when no workload matches a model layer.
    pub fn plan_accuracy_for<'a>(
        &'a self,
        model: &'a Model,
        network: &str,
        dataset: &'a Dataset,
        workloads: &'a [LayerWorkload],
        seeds: u64,
    ) -> Result<WorkPlan<'a>, PipelineError> {
        WorkPlan::accuracy(self, model, network, dataset, workloads, seeds)
    }

    /// The [`WorkPlan`] of the dataflow-probe experiment
    /// ([`ReadPipeline::run_dataflow`]): one probe unit per
    /// (dataflow, workload, source) cell, over every registered
    /// [`Dataflow`] variant.
    ///
    /// # Errors
    ///
    /// See [`ReadPipeline::plan_dataflow_with`].
    pub fn plan_dataflow<'a>(
        &'a self,
        network: &str,
        workloads: &'a [LayerWorkload],
    ) -> Result<WorkPlan<'a>, PipelineError> {
        self.plan_dataflow_with(network, workloads, Dataflow::ALL.to_vec())
    }

    /// The [`WorkPlan`] of a dataflow-probe experiment over an explicit
    /// dataflow list (cells are dataflow-major in the given order).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] when `dataflows` is empty.
    pub fn plan_dataflow_with<'a>(
        &'a self,
        network: &str,
        workloads: &'a [LayerWorkload],
        dataflows: Vec<Dataflow>,
    ) -> Result<WorkPlan<'a>, PipelineError> {
        WorkPlan::dataflow(self, network, workloads, dataflows)
    }

    /// Executes a [`WorkPlan`] on the configured executor and aggregates the
    /// results.  The typed `run_*` methods are conveniences over this.
    ///
    /// # Errors
    ///
    /// Propagates unit, executor and aggregation failures.
    pub fn run_plan(&self, plan: &WorkPlan<'_>) -> Result<PlanOutput, PipelineError> {
        let results = self.executor.execute(plan, 0..plan.len());
        // A run boundary: publish any write-behind store buffer (a
        // RemoteStore batches puts into mput lines) whether the run
        // succeeded or not, so everything computed is visible fleet-wide.
        if let Some(store) = &self.store {
            store.flush();
        }
        plan.aggregate(results?)
    }

    // ---- experiments ------------------------------------------------------

    /// Runs the layer-wise TER experiment (the paper's Figs. 7/8 shape):
    /// every workload under every source, evaluated at every condition from
    /// one simulation pass per (workload, source).
    ///
    /// Rows are ordered layer-major, then source, then condition,
    /// independent of the execution strategy — any [`Executor`] returns a
    /// byte-identical report.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Missing`] on a sweep-only pipeline (one
    /// built without [`ReadPipelineBuilder::condition`] — its conditions
    /// live in the plan, so this experiment has nothing to evaluate at);
    /// otherwise propagates the first failure in (workload, source) order.
    pub fn run_ter(
        &self,
        network: &str,
        workloads: &[LayerWorkload],
    ) -> Result<NetworkReport, PipelineError> {
        let plan = self.plan_ter(network, workloads)?;
        self.run_plan(&plan)?.into_ter()
    }

    /// Runs the dataflow-probe experiment: the event-driven engine
    /// ([`dataflow_sim::run_dataflow`] with the default
    /// [`dataflow_sim::EngineConfig`]) over every registered [`Dataflow`]
    /// for every (workload, source) pair, returning
    /// the dynamic-timing reports — cycles, utilization, per-context stall
    /// breakdown, peak psum-buffer occupancy — the analytic simulator
    /// cannot see.
    ///
    /// Rows are ordered dataflow-major, then layer, then source,
    /// independent of the execution strategy.  Probe units are memoized
    /// through the unit-result cache (and an attached artifact store), so
    /// reruns aggregate without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates schedule and engine failures in cell order.
    pub fn run_dataflow(
        &self,
        network: &str,
        workloads: &[LayerWorkload],
    ) -> Result<DataflowNetworkReport, PipelineError> {
        let plan = self.plan_dataflow(network, workloads)?;
        self.run_plan(&plan)?.into_dataflow()
    }

    /// Runs the configured corner/die sweep ([`ReadPipelineBuilder::sweep`]):
    /// every (die, condition) cell of the plan over every (workload, source)
    /// pair, in one pipeline run.
    ///
    /// The plan — not the pipeline's configured conditions or error model —
    /// decides what each cell evaluates: typical-silicon cells use the
    /// analytic [`DelayErrorModel`] (or [`MonteCarloErrorModel`] under a
    /// trial budget, its trials sharded across work units and re-aggregated
    /// bit-identically), per-PE die cells use [`VariationErrorModel`].
    /// Each cell's rows are byte-identical to the report of an equivalent
    /// single-condition pipeline run with that cell's error model; see
    /// [`crate::sweep`] for the full contract.
    ///
    /// Every cell resolves its schedules through the shared schedule cache
    /// and its histograms through the histogram cache, so the optimizer and
    /// the cycle simulation each run once per (source, layer)
    /// ([`ReadPipeline::cache_stats`]).  Cells, rows and shard aggregation
    /// are all ordered deterministically — any [`Executor`] (including
    /// [`crate::SubprocessExecutor`] worker processes) returns a
    /// byte-identical report.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Missing`] when no sweep plan was configured;
    /// otherwise propagates the first simulation failure in
    /// (cell, workload, source) order.
    pub fn run_sweep(
        &self,
        network: &str,
        workloads: &[LayerWorkload],
    ) -> Result<SweepReport, PipelineError> {
        let plan = self.plan_sweep(network, workloads)?;
        self.run_plan(&plan)?.into_sweep()
    }

    /// Runs the accuracy-under-PVTA experiment (the paper's Figs. 10/11
    /// shape) with the pipeline's configured model.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Missing`] when no model was configured;
    /// otherwise see [`ReadPipeline::run_accuracy_for`].
    pub fn run_accuracy(
        &self,
        network: &str,
        dataset: &Dataset,
        workloads: &[LayerWorkload],
        seeds: u64,
    ) -> Result<AccuracyReport, PipelineError> {
        let model = self
            .model
            .as_ref()
            .ok_or(PipelineError::Missing { what: "model" })?;
        self.run_accuracy_for(model, network, dataset, workloads, seeds)
    }

    /// Runs the accuracy experiment against an externally-owned model.
    ///
    /// Per (source, workload) the layer TER comes from one cached
    /// simulation pass; per condition it is converted to an activation BER
    /// (Eq. (1)), matched to the model's convolution layers by name (layers
    /// without a matching workload receive zero BER), and the dataset is
    /// evaluated under error injection with `seeds` different seeds.
    ///
    /// Points are ordered condition-major, then source, independent of the
    /// execution strategy.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Missing`] on a sweep-only pipeline (see
    /// [`ReadPipeline::run_ter`]); otherwise propagates simulation and
    /// evaluation failures.
    pub fn run_accuracy_for(
        &self,
        model: &Model,
        network: &str,
        dataset: &Dataset,
        workloads: &[LayerWorkload],
        seeds: u64,
    ) -> Result<AccuracyReport, PipelineError> {
        let plan = self.plan_accuracy_for(model, network, dataset, workloads, seeds)?;
        self.run_plan(&plan)?.into_accuracy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::{Algorithm, Baseline};
    use crate::workload::{vgg16_workloads, WorkloadConfig};
    use read_core::SortCriterion;

    fn tiny_workloads(n: usize) -> Vec<LayerWorkload> {
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        vgg16_workloads(&config).into_iter().take(n).collect()
    }

    #[test]
    fn builder_rejects_missing_sources() {
        let err = ReadPipeline::builder()
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Builder { .. }), "{err}");
    }

    #[test]
    fn builder_rejects_missing_conditions() {
        let err = ReadPipeline::builder().baseline().build().unwrap_err();
        assert!(err.to_string().contains("operating condition"));
    }

    #[test]
    fn builder_rejects_duplicate_source_names() {
        let err = ReadPipeline::builder()
            .baseline()
            .source(Baseline)
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn builder_rejects_zero_top_k() {
        let err = ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::ideal())
            .top_k(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("top-k"), "{err}");
    }

    #[test]
    fn builder_rejects_conflicting_error_model_configuration() {
        let err = ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::ideal())
            .monte_carlo(16, 0)
            .pe_variation(1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("pe_variation"), "{err}");
    }

    #[test]
    fn error_model_shorthands_flow_into_reports() {
        let workloads = tiny_workloads(1);
        let condition = OperatingCondition::aging_vt(10.0, 0.05);
        let mc = ReadPipeline::builder()
            .baseline()
            .condition(condition)
            .monte_carlo(16, 5)
            .build()
            .unwrap()
            .run_ter("mc", &workloads)
            .unwrap();
        assert!(mc.rows[0].ter_stddev.is_some());
        assert_eq!(mc.rows[0].corner, None);
        let variation = ReadPipeline::builder()
            .baseline()
            .condition(condition)
            .pe_variation(5)
            .build()
            .unwrap()
            .run_ter("pe", &workloads)
            .unwrap();
        assert!(variation.rows[0].ter_stddev.is_some());
        assert_eq!(
            variation.rows[0].corner.as_deref(),
            Some("pe-var[16x4,seed=5]")
        );
        // The analytic default leaves both optional fields empty.
        let analytic = ReadPipeline::builder()
            .baseline()
            .condition(condition)
            .build()
            .unwrap()
            .run_ter("analytic", &workloads)
            .unwrap();
        assert_eq!(analytic.rows[0].ter_stddev, None);
        assert_eq!(analytic.rows[0].corner, None);
    }

    #[test]
    fn run_ter_shape_and_cache() {
        let pipeline = ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
            .condition(OperatingCondition::ideal())
            .condition(OperatingCondition::aging_vt(10.0, 0.05))
            .build()
            .unwrap();
        let workloads = tiny_workloads(2);
        let report = pipeline.run_ter("tiny", &workloads).unwrap();
        // layers x sources x conditions
        assert_eq!(report.rows.len(), 2 * 2 * 2);
        assert_eq!(report.rows[0].layer, workloads[0].name());
        assert_eq!(report.rows[0].algorithm, "baseline");
        assert_eq!(report.rows[0].condition, "Ideal");
        let first_stats = pipeline.cache_stats();
        assert_eq!(first_stats.misses, 4);
        assert_eq!(first_stats.hist_misses, 4);
        // Re-running hits the histogram cache for every (source, layer)
        // pair — neither the optimizer nor the simulator runs again.
        pipeline.run_ter("tiny", &workloads).unwrap();
        let second_stats = pipeline.cache_stats();
        assert_eq!(second_stats.misses, first_stats.misses);
        assert_eq!(second_stats.hist_misses, first_stats.hist_misses);
        assert!(second_stats.hist_hits >= first_stats.hist_hits + 4);
    }

    #[test]
    fn accuracy_rejects_workloads_matching_no_model_layer() {
        let pipeline = ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap();
        let model = qnn::models::vgg11_cifar_scaled(8, 2, 1).unwrap();
        let dataset = qnn::SyntheticDatasetBuilder::new(2, [3, 8, 8])
            .samples_per_class(1)
            .build()
            .unwrap();
        // ResNet workload names cannot match VGG conv layer names.
        let config = crate::workload::WorkloadConfig {
            pixels_per_layer: 1,
            ..Default::default()
        };
        let workloads: Vec<_> = crate::workload::resnet18_workloads(&config)
            .into_iter()
            .take(1)
            .collect();
        let err = pipeline
            .run_accuracy_for(&model, "mismatch", &dataset, &workloads, 1)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Input { .. }), "{err}");
    }

    #[test]
    fn accuracy_requires_model() {
        let pipeline = ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap();
        let dataset = qnn::SyntheticDatasetBuilder::new(2, [3, 8, 8])
            .samples_per_class(1)
            .build()
            .unwrap();
        let err = pipeline
            .run_accuracy("net", &dataset, &tiny_workloads(1), 1)
            .unwrap_err();
        assert!(matches!(err, PipelineError::Missing { what: "model" }));
    }

    #[test]
    fn run_dataflow_probes_every_dataflow_and_memoizes() {
        let pipeline = ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap();
        let workloads = tiny_workloads(1);
        let report = pipeline.run_dataflow("tiny", &workloads).unwrap();
        // One row per registered dataflow, dataflow-major in registry order.
        assert_eq!(report.rows.len(), Dataflow::ALL.len());
        for (row, df) in report.rows.iter().zip(Dataflow::ALL) {
            assert_eq!(row.report.dataflow, df.name());
            assert_eq!(row.layer, workloads[0].name());
            assert_eq!(row.algorithm, "baseline");
            assert!(row.report.macs > 0);
            assert!(row.report.cycles >= row.report.macs / 16);
        }
        // Output-stationary never spills psums; conv1_1 has 27 reduction
        // rows over a 16-row array, so weight-stationary must.
        let os = report
            .row("output-stationary", workloads[0].name(), "baseline")
            .unwrap();
        assert_eq!(os.report.peak_psum_buffer, 0);
        let ws = report
            .row("weight-stationary", workloads[0].name(), "baseline")
            .unwrap();
        assert!(ws.report.peak_psum_buffer > 0);
        // A rerun aggregates from the memoized unit results.
        let again = pipeline.run_dataflow("tiny", &workloads).unwrap();
        assert_eq!(again.to_json(), report.to_json());
        assert!(pipeline.cache_stats().unit_hits >= Dataflow::ALL.len() as u64);
    }

    #[test]
    fn threaded_executor_matches_serial_reports() {
        let builder = || {
            ReadPipeline::builder()
                .baseline()
                .condition(OperatingCondition::aging_vt(10.0, 0.05))
        };
        let threaded = builder().executor(ThreadExecutor::new(2)).build().unwrap();
        assert_eq!(threaded.executor().name(), "threads[2]");
        let serial = builder().executor(SerialExecutor).build().unwrap();
        let workloads = tiny_workloads(1);
        assert_eq!(
            threaded.run_ter("exec", &workloads).unwrap().to_json(),
            serial.run_ter("exec", &workloads).unwrap().to_json()
        );
        assert_eq!(
            threaded.run_dataflow("exec", &workloads).unwrap().to_json(),
            serial.run_dataflow("exec", &workloads).unwrap().to_json()
        );
    }

    #[test]
    fn shared_memory_store_amortizes_across_pipelines() {
        use crate::store::MemoryStore;
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::new());
        let build = || {
            ReadPipeline::builder()
                .baseline()
                .condition(OperatingCondition::aging_vt(10.0, 0.05))
                .store_arc(Arc::clone(&store))
                .build()
                .unwrap()
        };
        let workloads = tiny_workloads(1);
        let first = build();
        let cold = first.run_ter("stored", &workloads).unwrap();
        let cold_stats = first.cache_stats();
        assert_eq!(cold_stats.misses, 1);
        assert_eq!(cold_stats.hist_misses, 1);
        assert_eq!(cold_stats.store_writes, 2, "schedule + histogram");

        // A second pipeline over the same store computes nothing fresh.
        let second = build();
        let warm = second.run_ter("stored", &workloads).unwrap();
        let warm_stats = second.cache_stats();
        assert_eq!(warm_stats.misses, 0);
        assert_eq!(warm_stats.hist_misses, 0);
        assert!(warm_stats.disk_hits >= 1);
        assert_eq!(cold.to_json(), warm.to_json(), "byte-identical from store");
    }

    #[test]
    fn clear_caches_releases_memory_but_not_the_store() {
        use crate::store::MemoryStore;
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::new());
        let pipeline = ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::aging_vt(10.0, 0.05))
            .store_arc(Arc::clone(&store))
            .build()
            .unwrap();
        let workloads = tiny_workloads(1);
        let report = pipeline.run_ter("clear", &workloads).unwrap();
        assert!(pipeline.cache_stats().entries > 0);

        pipeline.clear_caches();
        let cleared = pipeline.cache_stats();
        assert_eq!(cleared.entries, 0);
        assert_eq!(cleared.hist_entries, 0);
        assert_eq!(cleared.unit_entries, 0);
        assert_eq!(cleared.misses, 0, "counters reset too");

        // The store survives: the rerun recomputes nothing and matches.
        let again = pipeline.run_ter("clear", &workloads).unwrap();
        let stats = pipeline.cache_stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hist_misses, 0);
        assert_eq!(again.to_json(), report.to_json());
    }

    #[test]
    fn store_accessor_and_debug_expose_the_backend() {
        let pipeline = ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::ideal())
            .store(crate::store::MemoryStore::new())
            .build()
            .unwrap();
        assert_eq!(
            pipeline.artifact_store().map(|s| s.name()).as_deref(),
            Some("memory")
        );
        assert!(format!("{pipeline:?}").contains("memory"));
        let bare = ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap();
        assert!(bare.artifact_store().is_none());
    }
}
