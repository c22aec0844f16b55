//! The [`WorkPlan`]: a typed, enumerable description of every unit of work
//! a pipeline run executes, with a deterministic text wire encoding.
//!
//! Every `ReadPipeline::run_*` experiment expands into a flat list of
//! [`WorkUnit`]s before anything executes:
//!
//! * [`WorkUnit::Histogram`] — simulate one (workload, source) pair and
//!   return its triggered-depth histogram.  Histograms are independent of
//!   the operating corner, so a sweep emits one histogram unit per pair
//!   (with `cell = 0`) and every grid cell reuses it.
//! * [`WorkUnit::McShard`] — evaluate one Monte-Carlo trial sub-range of a
//!   sweep cell across every pair.  Trial `t`'s RNG stream depends only on
//!   `(seed, t)`, so any partition of the trial range re-aggregates bit for
//!   bit.
//! * [`WorkUnit::AccuracyPoint`] — evaluate one (condition, source) cell of
//!   an accuracy experiment under error injection.
//! * [`WorkUnit::DataflowProbe`] — run the event-driven dataflow engine on
//!   one (dataflow, workload, source) cell and return its
//!   [`dataflow_sim::DataflowReport`] (cycles, utilization, stall
//!   breakdown, peak buffer occupancy).
//!
//! Units are *position-independent*: a unit's result depends only on the
//! unit identity and the pipeline configuration, never on which worker ran
//! it or in what order.  That is what makes the plan the multi-process
//! sharding seam — [`WorkUnit::encode`] / [`UnitResult::encode`] define a
//! line-oriented wire format (hand-rolled, like the report `to_json()`s,
//! since serde is unavailable offline) that [`crate::SubprocessExecutor`]
//! speaks over worker stdin/stdout and [`WorkPlan::serve`] answers, and the
//! [`Aggregator`] folds any permutation or partition of [`UnitResult`]s
//! back into the exact report a serial in-process run produces.
//!
//! The wire format is a stable contract (pinned by a golden fixture in the
//! integration tests): one unit or result per line, space-separated
//! `key=value` fields in a fixed order, strings escaped with `\s`/`\n`/
//! `\r`/`\\`, floats rendered with Rust's shortest round-trip formatting
//! (exact `f64` round trips).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::ops::Range;
use std::sync::Arc;

use accel_sim::{Dataflow, NullObserver};
use dataflow_sim::{run_dataflow, DataflowReport, EngineConfig};
use qnn::{Dataset, Model};
use timing::{AnalyticAnalysis, DepthHistogram, OperatingCorner, TerEstimate};

use crate::cache::{dataset_fingerprint, model_fingerprint, UnitCheck, UnitKey};
use crate::error::PipelineError;
use crate::pipeline::ReadPipeline;
use crate::report::{
    AccuracyPoint, AccuracyReport, DataflowNetworkReport, DataflowRow, LayerReport, NetworkReport,
};
use crate::stage::fnv1a;
use crate::sweep::{DieModel, SweepCell, SweepPlan, SweepReport, WorstCase};
use crate::wire::{bad_wire, escape_wire, Fields};
use crate::workload::LayerWorkload;

/// One unit of a [`WorkPlan`]: the smallest independently-executable,
/// position-independent piece of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WorkUnit {
    /// Simulate one (workload, source) pair and return its depth histogram.
    /// `pair` indexes workload-major over the pipeline's sources
    /// (`workload = pair / sources`, `source = pair % sources`).  `cell` is
    /// the grid cell the unit was emitted for; histograms are
    /// corner-independent, so plans emit `cell = 0` and every cell shares
    /// the result.
    Histogram {
        /// Grid-cell index (always `0` in emitted plans).
        cell: usize,
        /// (workload, source) pair index.
        pair: usize,
    },
    /// Evaluate the Monte-Carlo trials `trial_range` of sweep cell `cell`
    /// for every pair.
    McShard {
        /// Sweep grid-cell index (die-major, the [`SweepPlan::corners`]
        /// order).
        cell: usize,
        /// Global trial indices this shard evaluates.
        trial_range: Range<u32>,
    },
    /// Evaluate one (condition, source) accuracy cell
    /// (`condition = cell / sources`, `source = cell % sources`).
    AccuracyPoint {
        /// (condition, source) cell index.
        cell: usize,
    },
    /// Run the event-driven dataflow engine on one
    /// (dataflow, workload, source) cell.  Cells are dataflow-major over
    /// the plan's pairs (`dataflow = cell / pairs`, `pair = cell % pairs`).
    DataflowProbe {
        /// (dataflow, workload, source) cell index.
        cell: usize,
    },
}

impl WorkUnit {
    /// The unit's deterministic, single-line wire id.
    pub fn encode(&self) -> String {
        match self {
            WorkUnit::Histogram { cell, pair } => format!("hist cell={cell} pair={pair}"),
            WorkUnit::McShard { cell, trial_range } => {
                format!(
                    "mc cell={cell} trials={}..{}",
                    trial_range.start, trial_range.end
                )
            }
            WorkUnit::AccuracyPoint { cell } => format!("acc cell={cell}"),
            WorkUnit::DataflowProbe { cell } => format!("dflow cell={cell}"),
        }
    }

    /// Decodes a wire id produced by [`WorkUnit::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on any malformed line.
    pub fn decode(line: &str) -> Result<WorkUnit, PipelineError> {
        let mut fields = Fields::new(line, bad_wire);
        let tag = fields.next().ok_or_else(|| bad_wire(line, "empty unit"))?;
        let unit = match tag {
            "hist" => WorkUnit::Histogram {
                cell: fields.parse("cell")?,
                pair: fields.parse("pair")?,
            },
            "mc" => WorkUnit::McShard {
                cell: fields.parse("cell")?,
                trial_range: parse_range(fields.field("trials")?, line)?,
            },
            "acc" => WorkUnit::AccuracyPoint {
                cell: fields.parse("cell")?,
            },
            "dflow" => WorkUnit::DataflowProbe {
                cell: fields.parse("cell")?,
            },
            other => return Err(bad_wire(line, &format!("unknown unit tag {other:?}"))),
        };
        fields.end()?;
        Ok(unit)
    }
}

impl std::fmt::Display for WorkUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.encode())
    }
}

/// The result of one [`WorkUnit`], self-identifying so results can arrive
/// in any order from any worker.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitResult {
    /// A [`WorkUnit::Histogram`] result.
    Histogram {
        /// Grid-cell index of the producing unit.
        cell: usize,
        /// (workload, source) pair index.
        pair: usize,
        /// The simulated triggered-depth histogram.
        hist: DepthHistogram,
    },
    /// A [`WorkUnit::McShard`] result.
    McShard {
        /// Sweep grid-cell index.
        cell: usize,
        /// Global trial indices the shard evaluated.
        trial_range: Range<u32>,
        /// Per-pair trial TER samples (`ters[pair][trial - start]`), in
        /// pair order then trial order.
        ters: Vec<Vec<f64>>,
    },
    /// A [`WorkUnit::AccuracyPoint`] result.
    Accuracy {
        /// (condition, source) cell index.
        cell: usize,
        /// The evaluated accuracy point.
        point: AccuracyPoint,
    },
    /// A [`WorkUnit::DataflowProbe`] result.
    DataflowProbe {
        /// (dataflow, workload, source) cell index.
        cell: usize,
        /// The probed dynamic-timing report.
        report: DataflowReport,
    },
}

impl UnitResult {
    /// The unit this result answers.
    pub fn unit(&self) -> WorkUnit {
        match self {
            UnitResult::Histogram { cell, pair, .. } => WorkUnit::Histogram {
                cell: *cell,
                pair: *pair,
            },
            UnitResult::McShard {
                cell, trial_range, ..
            } => WorkUnit::McShard {
                cell: *cell,
                trial_range: trial_range.clone(),
            },
            UnitResult::Accuracy { cell, .. } => WorkUnit::AccuracyPoint { cell: *cell },
            UnitResult::DataflowProbe { cell, .. } => WorkUnit::DataflowProbe { cell: *cell },
        }
    }

    /// The result's deterministic, single-line wire encoding.
    pub fn encode(&self) -> String {
        match self {
            UnitResult::Histogram { cell, pair, hist } => {
                // The histogram body is the timing crate's wire rendering
                // (`total=.. flips=.. counts=..`), shared with the artifact
                // store so both persist byte-identical payloads.
                format!("hist cell={cell} pair={pair} {}", hist.to_wire())
            }
            UnitResult::McShard {
                cell,
                trial_range,
                ters,
            } => {
                let mut out = format!(
                    "mc cell={cell} trials={}..{} ters=",
                    trial_range.start, trial_range.end
                );
                for (pi, pair_ters) in ters.iter().enumerate() {
                    if pi > 0 {
                        out.push('|');
                    }
                    for (ti, ter) in pair_ters.iter().enumerate() {
                        if ti > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{ter:?}"));
                    }
                }
                out
            }
            UnitResult::Accuracy { cell, point } => format!(
                "acc cell={cell} condition={} algorithm={} top1={:?} topk={:?} k={} mean_ber={:?} seeds={}",
                escape_wire(&point.condition),
                escape_wire(&point.algorithm),
                point.top1,
                point.topk,
                point.k,
                point.mean_ber,
                point.seeds
            ),
            UnitResult::DataflowProbe { cell, report } => {
                // The report body is the dataflow-sim crate's own wire
                // rendering, shared with the artifact store.
                format!("dflow cell={cell} {}", report.to_wire())
            }
        }
    }

    /// Decodes a wire line produced by [`UnitResult::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on any malformed line.
    pub fn decode(line: &str) -> Result<UnitResult, PipelineError> {
        let mut fields = Fields::new(line, bad_wire);
        let tag = fields
            .next()
            .ok_or_else(|| bad_wire(line, "empty result"))?;
        let result = match tag {
            "hist" => {
                let cell = fields.parse("cell")?;
                let pair = fields.parse("pair")?;
                // The remaining tokens are the timing crate's histogram
                // wire rendering, which rejects trailing tokens itself.
                let body: Vec<&str> = fields.by_ref().collect();
                let hist = DepthHistogram::from_wire(&body.join(" "))
                    .ok_or_else(|| bad_wire(line, "malformed or inconsistent histogram"))?;
                UnitResult::Histogram { cell, pair, hist }
            }
            "mc" => {
                let cell = fields.parse("cell")?;
                let trial_range = parse_range(fields.field("trials")?, line)?;
                let ters_value = fields.field("ters")?;
                let ters = if ters_value.is_empty() {
                    Vec::new()
                } else {
                    ters_value
                        .split('|')
                        .map(|group| {
                            if group.is_empty() {
                                return Ok(Vec::new());
                            }
                            group
                                .split(',')
                                .map(|v| v.parse::<f64>().map_err(|_| bad_wire(line, "bad ter")))
                                .collect()
                        })
                        .collect::<Result<Vec<Vec<f64>>, PipelineError>>()?
                };
                UnitResult::McShard {
                    cell,
                    trial_range,
                    ters,
                }
            }
            "acc" => UnitResult::Accuracy {
                cell: fields.parse("cell")?,
                point: AccuracyPoint {
                    condition: fields.text("condition")?,
                    algorithm: fields.text("algorithm")?,
                    top1: fields.parse("top1")?,
                    topk: fields.parse("topk")?,
                    k: fields.parse("k")?,
                    mean_ber: fields.parse("mean_ber")?,
                    seeds: fields.parse("seeds")?,
                },
            },
            "dflow" => {
                let cell = fields.parse("cell")?;
                // The remaining tokens are the dataflow report's wire
                // rendering, which rejects trailing tokens itself.
                let body: Vec<&str> = fields.by_ref().collect();
                let report = DataflowReport::from_wire(&body.join(" "))
                    .ok_or_else(|| bad_wire(line, "malformed dataflow report"))?;
                UnitResult::DataflowProbe { cell, report }
            }
            other => return Err(bad_wire(line, &format!("unknown result tag {other:?}"))),
        };
        fields.end()?;
        Ok(result)
    }
}

fn parse_range(value: &str, line: &str) -> Result<Range<u32>, PipelineError> {
    let (lo, hi) = value
        .split_once("..")
        .ok_or_else(|| bad_wire(line, "range without '..'"))?;
    let lo: u32 = lo.parse().map_err(|_| bad_wire(line, "bad range start"))?;
    let hi: u32 = hi.parse().map_err(|_| bad_wire(line, "bad range end"))?;
    Ok(lo..hi)
}

/// The worker's reply to the driver's `window=<n>` handshake line:
/// `ok window=<m>` granting `n` capped at 1024, or a `!` rejection of a
/// malformed `n`.  `None` when `line` is not a handshake line.  Workers
/// answer units strictly in request order whatever the grant, so it only
/// bounds how far a driver streams ahead.
pub(crate) fn window_reply(line: &str) -> Option<String> {
    let requested = line.strip_prefix("window=")?;
    Some(match requested.parse::<usize>() {
        Ok(n) if n >= 1 => format!("ok window={}", n.min(1024)),
        _ => format!("!bad window line {line:?}"),
    })
}

/// What a [`WorkPlan`] produces when aggregated.
pub(crate) enum PlanKind<'a> {
    /// A layer-wise TER experiment ([`ReadPipeline::run_ter`]).
    Ter,
    /// A corner/die sweep ([`ReadPipeline::run_sweep`]).
    Sweep {
        corners: Vec<OperatingCorner>,
        models: Vec<DieModel>,
    },
    /// An accuracy-under-PVTA experiment ([`ReadPipeline::run_accuracy`]).
    Accuracy {
        model: &'a Model,
        dataset: &'a Dataset,
        conv_names: Vec<String>,
        seeds: u64,
    },
    /// A dataflow-probe experiment ([`ReadPipeline::run_dataflow`]).
    Dataflow { dataflows: Vec<Dataflow> },
}

/// The full content signature of a plan: every stage fingerprint, workload
/// content hash and grid parameter a unit's result can depend on, rendered
/// deterministically.  Two plans with equal signatures produce identical
/// results for identical unit ids — which is exactly the contract the
/// memoized unit-result cache ([`crate::cache::UnitCache`]) keys on.  The
/// network label is deliberately excluded: it names reports, it never
/// changes a unit's result.
fn plan_signature(
    pipeline: &ReadPipeline,
    workloads: &[LayerWorkload],
    kind: &PlanKind<'_>,
) -> String {
    use std::fmt::Write as _;
    let mut sig = pipeline.stage_signature();
    sig.push_str(" workloads=");
    for (i, workload) in workloads.iter().enumerate() {
        if i > 0 {
            sig.push(';');
        }
        let _ = write!(
            sig,
            "{}:{:016x}",
            escape_wire(workload.name()),
            workload.fingerprint()
        );
    }
    match kind {
        PlanKind::Ter => sig.push_str(" kind=ter"),
        PlanKind::Sweep { corners, models } => {
            sig.push_str(" kind=sweep grid=");
            for (i, (corner, model)) in corners.iter().zip(models).enumerate() {
                if i > 0 {
                    sig.push(';');
                }
                let _ = write!(
                    sig,
                    "{:?}|{:016x}",
                    corner,
                    model.as_error_model().fingerprint()
                );
            }
        }
        PlanKind::Accuracy {
            model,
            dataset,
            seeds,
            ..
        } => {
            let _ = write!(
                sig,
                " kind=acc model={:016x} dataset={:016x} seeds={seeds} conds=",
                model_fingerprint(model),
                dataset_fingerprint(dataset)
            );
            for (i, condition) in pipeline.conditions().iter().enumerate() {
                if i > 0 {
                    sig.push(';');
                }
                let _ = write!(sig, "{condition:?}");
            }
        }
        PlanKind::Dataflow { dataflows } => {
            // The engine fingerprint covers the configuration (channel
            // capacities, hop latency), which changes every probe result —
            // the stage signature deliberately excludes it so TER / sweep /
            // accuracy memoization stays undisturbed.  This rendering keys
            // stored probe results: keep its bytes.
            let engine = format!("EventProber {{ config: {:?} }}", EngineConfig::default());
            let _ = write!(
                sig,
                " kind=dflow prober=event-engine:{:016x} dataflows=",
                fnv1a(engine.bytes())
            );
            for (i, dataflow) in dataflows.iter().enumerate() {
                if i > 0 {
                    sig.push(';');
                }
                sig.push_str(dataflow.name());
            }
        }
    }
    sig
}

/// A typed, enumerable description of every unit a pipeline run executes.
///
/// Obtain one with [`ReadPipeline::plan_ter`], [`ReadPipeline::plan_sweep`]
/// or [`ReadPipeline::plan_accuracy_for`];
/// execute it with any [`crate::Executor`]; fold the results back with
/// [`WorkPlan::aggregate`] (or an explicit [`Aggregator`]).  Executing the
/// same plan on any executor — serial, threaded, or worker subprocesses —
/// and aggregating any permutation or partition of the results produces
/// byte-identical reports.
pub struct WorkPlan<'a> {
    pub(crate) pipeline: &'a ReadPipeline,
    pub(crate) workloads: &'a [LayerWorkload],
    network: String,
    kind: PlanKind<'a>,
    units: Vec<WorkUnit>,
    /// Unit → index lookup, so serving and result-matching stay O(1) per
    /// unit instead of scanning the unit list (plans can carry thousands of
    /// Monte-Carlo shards at paper scale).
    unit_index: HashMap<WorkUnit, usize>,
    /// Full content signature of everything a unit result depends on —
    /// stage fingerprints, workload contents, the evaluation grid — used to
    /// key memoized [`UnitResult`]s (see [`WorkPlan::signature`]).
    signature: Arc<str>,
    /// FNV-1a of [`WorkPlan::signature`], the `plan` half of a
    /// [`UnitKey`].
    signature_hash: u64,
}

impl<'a> WorkPlan<'a> {
    fn assemble(
        pipeline: &'a ReadPipeline,
        workloads: &'a [LayerWorkload],
        network: &str,
        kind: PlanKind<'a>,
        units: Vec<WorkUnit>,
    ) -> Self {
        let unit_index = units
            .iter()
            .enumerate()
            .map(|(index, unit)| (unit.clone(), index))
            .collect();
        let signature: Arc<str> = plan_signature(pipeline, workloads, &kind).into();
        let signature_hash = fnv1a(signature.bytes());
        WorkPlan {
            pipeline,
            workloads,
            network: network.to_string(),
            kind,
            units,
            unit_index,
            signature,
            signature_hash,
        }
    }
    pub(crate) fn ter(
        pipeline: &'a ReadPipeline,
        network: &str,
        workloads: &'a [LayerWorkload],
    ) -> Result<Self, PipelineError> {
        if pipeline.conditions().is_empty() {
            return Err(PipelineError::Missing {
                what: "operating conditions",
            });
        }
        let pairs = workloads.len() * pipeline.sources().len();
        let units = (0..pairs)
            .map(|pair| WorkUnit::Histogram { cell: 0, pair })
            .collect();
        Ok(WorkPlan::assemble(
            pipeline,
            workloads,
            network,
            PlanKind::Ter,
            units,
        ))
    }

    pub(crate) fn sweep(
        pipeline: &'a ReadPipeline,
        network: &str,
        workloads: &'a [LayerWorkload],
        plan: &SweepPlan,
    ) -> Result<Self, PipelineError> {
        plan.validate()?;
        // The grid is the single encoding of cell order (die-major); each
        // cell's error model derives from its corner's variation, so the
        // stage can never drift from the grid position.
        let corners = plan.corners(pipeline.array());
        let models: Vec<DieModel> = corners
            .iter()
            .map(|corner| plan.cell_model(corner))
            .collect();
        let pairs = workloads.len() * pipeline.sources().len();
        // Histograms are corner-independent: one unit per pair serves every
        // cell of the grid.  Monte-Carlo cells additionally expand their
        // trial budget into one unit per shard; a shard re-reads the pair
        // histograms through the cache, so the leading histogram units
        // double as its warm-up (a thread that claims a shard while some
        // pair is still mid-simulation may race a duplicate simulation —
        // bounded by the in-flight pair count, deterministic, and accepted
        // by the cache contract).  Analytic and per-PE cells
        // emit no evaluation unit on purpose: their estimates are
        // closed-form sums over the ~25 histogram buckets (× PEs for a
        // die), computed during aggregation from one `CornerTable` per
        // cell, shared by all of its pairs — orders of magnitude cheaper
        // than the simulation/sampling units and far below the
        // per-unit coordination cost of any distributed executor.  The
        // aggregator builds the tables, so a worker that only answers
        // Monte-Carlo shards never does.
        let mut units: Vec<WorkUnit> = (0..pairs)
            .map(|pair| WorkUnit::Histogram { cell: 0, pair })
            .collect();
        for (cell, model) in models.iter().enumerate() {
            if let Some((_, mc)) = model.monte_carlo() {
                units.extend((0..mc.shards()).map(|shard| WorkUnit::McShard {
                    cell,
                    trial_range: mc.shard_range(shard),
                }));
            }
        }
        Ok(WorkPlan::assemble(
            pipeline,
            workloads,
            network,
            PlanKind::Sweep { corners, models },
            units,
        ))
    }

    pub(crate) fn accuracy(
        pipeline: &'a ReadPipeline,
        model: &'a Model,
        network: &str,
        dataset: &'a Dataset,
        workloads: &'a [LayerWorkload],
        seeds: u64,
    ) -> Result<Self, PipelineError> {
        if pipeline.conditions().is_empty() {
            return Err(PipelineError::Missing {
                what: "operating conditions",
            });
        }
        let conv_names: Vec<String> = model
            .conv_layers()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        // BERs are matched to conv layers by name; a workload set from one
        // network evaluated against a model of another would silently inject
        // nothing, so refuse it outright.
        if !workloads.is_empty()
            && !workloads
                .iter()
                .any(|w| conv_names.iter().any(|n| n == w.name()))
        {
            return Err(PipelineError::Input {
                reason: format!(
                    "no workload name matches any convolution layer of the model \
                     (workloads: {:?}..., model layers: {:?}...)",
                    workloads
                        .iter()
                        .map(LayerWorkload::name)
                        .take(3)
                        .collect::<Vec<_>>(),
                    conv_names.iter().take(3).collect::<Vec<_>>(),
                ),
            });
        }
        let pairs = workloads.len() * pipeline.sources().len();
        let cells = pipeline.conditions().len() * pipeline.sources().len();
        // Histogram units warm the shared cache (and give in-process
        // executors per-pair parallelism); each accuracy cell then reuses
        // them — or, in an isolated worker, recomputes them locally.
        let mut units: Vec<WorkUnit> = (0..pairs)
            .map(|pair| WorkUnit::Histogram { cell: 0, pair })
            .collect();
        units.extend((0..cells).map(|cell| WorkUnit::AccuracyPoint { cell }));
        Ok(WorkPlan::assemble(
            pipeline,
            workloads,
            network,
            PlanKind::Accuracy {
                model,
                dataset,
                conv_names,
                seeds,
            },
            units,
        ))
    }

    pub(crate) fn dataflow(
        pipeline: &'a ReadPipeline,
        network: &str,
        workloads: &'a [LayerWorkload],
        dataflows: Vec<Dataflow>,
    ) -> Result<Self, PipelineError> {
        if dataflows.is_empty() {
            return Err(PipelineError::Input {
                reason: "dataflow plan needs at least one dataflow to probe".into(),
            });
        }
        // Probes carry their own dynamics; no operating condition or
        // histogram warm-up is involved.  Cells are dataflow-major so the
        // report groups each dataflow's layers together.
        let pairs = workloads.len() * pipeline.sources().len();
        let units = (0..dataflows.len() * pairs)
            .map(|cell| WorkUnit::DataflowProbe { cell })
            .collect();
        Ok(WorkPlan::assemble(
            pipeline,
            workloads,
            network,
            PlanKind::Dataflow { dataflows },
            units,
        ))
    }

    /// The network / experiment label the aggregated report carries.
    pub fn network(&self) -> &str {
        &self.network
    }

    /// The plan's units, in deterministic emission order (histogram units
    /// pair-ascending first, then Monte-Carlo shards cell-major, then
    /// accuracy cells ascending).
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Number of units in the plan.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the plan has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Number of (workload, source) pairs the plan covers.
    pub fn pairs(&self) -> usize {
        self.workloads.len() * self.pipeline.sources().len()
    }

    /// The index of `unit` in [`WorkPlan::units`], if it belongs to this
    /// plan (O(1)).
    pub fn index_of(&self, unit: &WorkUnit) -> Option<usize> {
        self.unit_index.get(unit).copied()
    }

    fn workload_of(&self, pair: usize) -> &LayerWorkload {
        &self.workloads[pair / self.pipeline.sources().len()]
    }

    fn source_of(&self, pair: usize) -> &dyn crate::stage::ScheduleSource {
        self.pipeline.sources()[pair % self.pipeline.sources().len()].as_ref()
    }

    /// The histogram of `pair`.
    fn pair_histogram(&self, pair: usize) -> Result<Arc<DepthHistogram>, PipelineError> {
        self.pipeline
            .cached_histogram(self.workload_of(pair), self.source_of(pair))
    }

    /// Executes the unit at `index` and returns its self-identifying result.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] for an out-of-range index; otherwise
    /// propagates simulation/evaluation failures.
    pub fn run_unit(&self, index: usize) -> Result<UnitResult, PipelineError> {
        let unit = self
            .units
            .get(index)
            .ok_or_else(|| PipelineError::exec(format!("unit index {index} out of range")))?;
        self.run_unit_spec(unit)
    }

    /// The plan's full content signature: every stage fingerprint, workload
    /// content hash and grid parameter a unit result depends on.  Plans
    /// with equal signatures are interchangeable for unit execution — the
    /// key contract of the memoized unit-result cache.
    pub fn signature(&self) -> &str {
        &self.signature
    }

    /// The serve layer's single-flight identity of `unit`: two in-flight
    /// units with equal flight keys compute the same artifact, so one
    /// computation can be fanned out to both (see [`crate::serve`]).
    ///
    /// Histogram units are keyed on the histogram's full *content* identity
    /// (the store check line: source/workload fingerprints, dimensions,
    /// simulation context) rather than on the plan signature — the result
    /// is grid-independent, so concurrent TER, sweep and accuracy requests
    /// over the same pairs coalesce even though their plan signatures
    /// differ.  Every other unit is keyed on
    /// `(`[`WorkPlan::signature`]`, `[`WorkUnit::encode`]`)`, the memoized
    /// unit-result cache's own key contract.
    pub(crate) fn flight_key(&self, unit: &WorkUnit) -> String {
        match unit {
            WorkUnit::Histogram { pair, .. } => format!(
                "hist {}",
                self.pipeline
                    .histogram_check_line(self.workload_of(*pair), self.source_of(*pair))
            ),
            _ => format!("unit {} {}", self.signature(), unit.encode()),
        }
    }

    /// Executes an explicit unit.  The unit must belong to this plan —
    /// worker processes decode ids from the wire and run them against a
    /// locally-reconstructed plan.
    ///
    /// Monte-Carlo-shard and accuracy units are memoized through the
    /// pipeline's unit-result cache, keyed on
    /// `(`[`WorkPlan::signature`]`, `[`WorkUnit::encode`]`)` — with an
    /// artifact store attached ([`crate::ReadPipelineBuilder::store`]),
    /// reruns across pipelines, workers and processes serve them without
    /// re-executing.  Histogram units are not double-stored: their payload
    /// *is* the histogram, already cached (and persisted) by the histogram
    /// cache inside [`ReadPipeline::layer_histogram`].
    ///
    /// Memoized results live in the pipeline's memory for its lifetime —
    /// that is what makes a same-pipeline rerun free even without a store.
    /// A long-lived pipeline cycling through many large Monte-Carlo sweeps
    /// can release the retained trial samples with
    /// [`ReadPipeline::clear_caches`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the unit is not part of the
    /// plan; otherwise propagates simulation/evaluation failures.
    pub fn run_unit_spec(&self, unit: &WorkUnit) -> Result<UnitResult, PipelineError> {
        if self.index_of(unit).is_none() {
            return Err(PipelineError::exec(format!(
                "unit {:?} is not part of this plan",
                unit.encode()
            )));
        }
        if matches!(unit, WorkUnit::Histogram { .. }) {
            return self.compute_unit(unit);
        }
        let encoded = unit.encode();
        let key = UnitKey {
            plan: self.signature_hash,
            unit: fnv1a(encoded.bytes()),
        };
        let check = UnitCheck {
            plan: Arc::clone(&self.signature),
            unit: encoded,
        };
        let result = self
            .pipeline
            .unit_cache()
            .get_or_compute(key, check, || self.compute_unit(unit))?;
        Ok((*result).clone())
    }

    /// Seeds the pipeline's memoized unit-result cache from its artifact
    /// store in batched round trips, for every cacheable unit of this
    /// plan — on a [`crate::store::RemoteStore`] that is one `mget` per
    /// batch, so a warm rerun (or a warm worker connection) costs
    /// O(batches) store round trips instead of O(units).  Returns how many
    /// unit results were seeded.  A no-op without an attached store;
    /// histogram units are excluded (their payload is the histogram,
    /// cached separately — see [`WorkPlan::run_unit_spec`]).
    pub fn prefetch_units(&self) -> usize {
        if self.pipeline.artifact_store().is_none() {
            return 0;
        }
        let entries: Vec<(UnitKey, UnitCheck)> = self
            .units
            .iter()
            .filter(|unit| !matches!(unit, WorkUnit::Histogram { .. }))
            .map(|unit| {
                let encoded = unit.encode();
                (
                    UnitKey {
                        plan: self.signature_hash,
                        unit: fnv1a(encoded.bytes()),
                    },
                    UnitCheck {
                        plan: Arc::clone(&self.signature),
                        unit: encoded,
                    },
                )
            })
            .collect();
        self.pipeline.unit_cache().prefetch(&entries)
    }

    /// Executes a unit unconditionally (the memoization layer's compute
    /// path).
    fn compute_unit(&self, unit: &WorkUnit) -> Result<UnitResult, PipelineError> {
        match unit {
            WorkUnit::Histogram { cell, pair } => Ok(UnitResult::Histogram {
                cell: *cell,
                pair: *pair,
                hist: (*self.pair_histogram(*pair)?).clone(),
            }),
            WorkUnit::McShard { cell, trial_range } => {
                let PlanKind::Sweep { corners, models } = &self.kind else {
                    return Err(PipelineError::exec("mc unit outside a sweep plan"));
                };
                let condition = &corners[*cell].condition;
                let (mc_model, _) = models[*cell]
                    .monte_carlo()
                    .ok_or_else(|| PipelineError::exec("mc unit on a non-sampling cell"))?;
                let ters = (0..self.pairs())
                    .map(|pair| {
                        let hist = self.pair_histogram(pair)?;
                        Ok(mc_model.trial_ters(&hist, condition, trial_range.clone()))
                    })
                    .collect::<Result<Vec<_>, PipelineError>>()?;
                Ok(UnitResult::McShard {
                    cell: *cell,
                    trial_range: trial_range.clone(),
                    ters,
                })
            }
            WorkUnit::AccuracyPoint { cell } => {
                let PlanKind::Accuracy {
                    model,
                    dataset,
                    conv_names,
                    seeds,
                } = &self.kind
                else {
                    return Err(PipelineError::exec("acc unit outside an accuracy plan"));
                };
                let sources = self.pipeline.sources();
                let condition = &self.pipeline.conditions()[cell / sources.len()];
                let si = cell % sources.len();
                let source = &sources[si];
                let error_model = self.pipeline.error_model();

                // Per-layer BERs for the model, matched by layer name.
                let mut bers = vec![0.0f64; conv_names.len()];
                let mut ber_sum = 0.0;
                let mut ber_count = 0usize;
                for (wi, workload) in self.workloads.iter().enumerate() {
                    let hist = self.pair_histogram(wi * sources.len() + si)?;
                    let ter = error_model.ter(&hist, condition);
                    let ber = error_model.ber(ter, workload.macs_per_output());
                    ber_sum += ber;
                    ber_count += 1;
                    if let Some(idx) = conv_names.iter().position(|n| n == workload.name()) {
                        bers[idx] = ber;
                    }
                }

                let runs = (*seeds).max(1);
                let mut top1 = 0.0;
                let mut topk = 0.0;
                let mut k = 0usize;
                for seed in 0..runs {
                    let acc = self.pipeline.evaluator().evaluate(
                        model,
                        dataset,
                        &bers,
                        seed * 977 + 13,
                    )?;
                    top1 += acc.top1;
                    topk += acc.topk;
                    k = acc.k;
                }
                Ok(UnitResult::Accuracy {
                    cell: *cell,
                    point: AccuracyPoint {
                        condition: condition.name.to_string(),
                        algorithm: source.name(),
                        top1: top1 / runs as f64,
                        topk: topk / runs as f64,
                        k,
                        mean_ber: if ber_count == 0 {
                            0.0
                        } else {
                            ber_sum / ber_count as f64
                        },
                        seeds: runs,
                    },
                })
            }
            WorkUnit::DataflowProbe { cell } => {
                let PlanKind::Dataflow { dataflows } = &self.kind else {
                    return Err(PipelineError::exec("dflow unit outside a dataflow plan"));
                };
                let pairs = self.pairs();
                let dataflow = dataflows[*cell / pairs];
                let pair = *cell % pairs;
                let workload = self.workload_of(pair);
                let source = self.source_of(pair);
                let schedule = self.pipeline.schedule_for(workload.weights(), source)?;
                let run = run_dataflow(
                    &workload.problem()?,
                    self.pipeline.array(),
                    dataflow,
                    &schedule,
                    &EngineConfig::default(),
                    &mut NullObserver,
                    None,
                )?;
                Ok(UnitResult::DataflowProbe {
                    cell: *cell,
                    report: run.report,
                })
            }
        }
    }

    /// Answers the wire protocol on a stream pair: reads one line at a time
    /// from `input` and writes its reply line to `output` (flushing after
    /// each).  This is the whole worker side of
    /// [`crate::SubprocessExecutor`] — a worker process reconstructs the
    /// same pipeline and plan, then calls `serve(stdin, stdout)`.
    ///
    /// A `window=<n>` line gets the same handshake reply a fleet worker
    /// gives (`ok window=<m>`); every other line is a unit id, answered
    /// with its encoded result.  Failures are reported in-band as
    /// `!`-prefixed lines (so the driver can attribute them) and serving
    /// continues with the next line.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error on the streams themselves.
    pub fn serve(&self, input: impl BufRead, output: &mut impl Write) -> std::io::Result<()> {
        for line in input.lines() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let reply = window_reply(line).unwrap_or_else(|| self.answer(line));
            writeln!(output, "{reply}")?;
            output.flush()?;
        }
        Ok(())
    }

    /// The reply to one unit line: the encoded result, or `!<reason>` when
    /// the line does not decode or the unit fails.
    pub(crate) fn answer(&self, line: &str) -> String {
        match WorkUnit::decode(line).and_then(|unit| self.run_unit_spec(&unit)) {
            Ok(result) => result.encode(),
            Err(e) => format!("!{e}"),
        }
    }

    /// Folds unit results — in any order, from any partition of the plan
    /// across executors or workers — into the run's report.  Convenience
    /// over an explicit [`Aggregator`].
    ///
    /// # Errors
    ///
    /// See [`Aggregator::finish`].
    pub fn aggregate(
        &self,
        results: impl IntoIterator<Item = UnitResult>,
    ) -> Result<PlanOutput, PipelineError> {
        let mut agg = Aggregator::new(self);
        for result in results {
            agg.push(result)?;
        }
        agg.finish()
    }
}

impl std::fmt::Debug for WorkPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            PlanKind::Ter => "ter",
            PlanKind::Sweep { .. } => "sweep",
            PlanKind::Accuracy { .. } => "accuracy",
            PlanKind::Dataflow { .. } => "dataflow",
        };
        f.debug_struct("WorkPlan")
            .field("network", &self.network)
            .field("kind", &kind)
            .field("units", &self.units.len())
            .field("pairs", &self.pairs())
            .finish()
    }
}

/// The typed report a [`WorkPlan`] aggregation produces.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOutput {
    /// A [`ReadPipeline::run_ter`]-shaped report.
    Ter(NetworkReport),
    /// A [`ReadPipeline::run_sweep`]-shaped report.
    Sweep(SweepReport),
    /// A [`ReadPipeline::run_accuracy`]-shaped report.
    Accuracy(AccuracyReport),
    /// A [`ReadPipeline::run_dataflow`]-shaped report.
    Dataflow(DataflowNetworkReport),
}

impl PlanOutput {
    /// The network report, if this output is one.
    pub fn into_ter(self) -> Result<NetworkReport, PipelineError> {
        match self {
            PlanOutput::Ter(report) => Ok(report),
            other => Err(PipelineError::exec(format!(
                "expected a TER report, aggregated {other:?}"
            ))),
        }
    }

    /// The sweep report, if this output is one.
    pub fn into_sweep(self) -> Result<SweepReport, PipelineError> {
        match self {
            PlanOutput::Sweep(report) => Ok(report),
            other => Err(PipelineError::exec(format!(
                "expected a sweep report, aggregated {other:?}"
            ))),
        }
    }

    /// The accuracy report, if this output is one.
    pub fn into_accuracy(self) -> Result<AccuracyReport, PipelineError> {
        match self {
            PlanOutput::Accuracy(report) => Ok(report),
            other => Err(PipelineError::exec(format!(
                "expected an accuracy report, aggregated {other:?}"
            ))),
        }
    }

    /// The dataflow report, if this output is one.
    pub fn into_dataflow(self) -> Result<DataflowNetworkReport, PipelineError> {
        match self {
            PlanOutput::Dataflow(report) => Ok(report),
            other => Err(PipelineError::exec(format!(
                "expected a dataflow report, aggregated {other:?}"
            ))),
        }
    }
}

/// Folds [`UnitResult`]s back into the plan's report.
///
/// Results may arrive in **any order** and from **any partition** of the
/// plan across executors, threads or worker processes: every result is
/// self-identifying, Monte-Carlo shards are re-assembled in trial order
/// before the one aggregation ([`TerEstimate::from_trials`]), and rows are
/// emitted in the canonical report order — so the aggregate is byte-
/// identical to a serial in-process run.  Missing, duplicate or overlapping
/// results are detected and rejected rather than silently misfolded.
pub struct Aggregator<'p, 'a> {
    plan: &'p WorkPlan<'a>,
    hists: BTreeMap<usize, DepthHistogram>,
    shards: BTreeMap<usize, Vec<McShardSamples>>,
    points: BTreeMap<usize, AccuracyPoint>,
    probes: BTreeMap<usize, DataflowReport>,
}

/// One Monte-Carlo shard's samples: the trial range plus the per-pair trial
/// TER vectors.
type McShardSamples = (Range<u32>, Vec<Vec<f64>>);

#[cfg(test)]
thread_local! {
    /// `CornerTable`s the sweep aggregation built on this thread, so tests
    /// can count them per cell.
    static CORNER_TABLES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<'p, 'a> Aggregator<'p, 'a> {
    /// An empty aggregator for `plan`.
    pub fn new(plan: &'p WorkPlan<'a>) -> Self {
        Aggregator {
            plan,
            hists: BTreeMap::new(),
            shards: BTreeMap::new(),
            points: BTreeMap::new(),
            probes: BTreeMap::new(),
        }
    }

    /// Adds one result.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] for a result that duplicates one
    /// already folded or does not belong to the plan.
    pub fn push(&mut self, result: UnitResult) -> Result<(), PipelineError> {
        match result {
            UnitResult::Histogram { cell, pair, hist } => {
                if self
                    .plan
                    .index_of(&WorkUnit::Histogram { cell, pair })
                    .is_none()
                {
                    return Err(PipelineError::exec(format!(
                        "histogram result for cell {cell} pair {pair}, which is \
                         not a unit of this plan"
                    )));
                }
                if self.hists.insert(pair, hist).is_some() {
                    return Err(PipelineError::exec(format!(
                        "duplicate histogram result for pair {pair}"
                    )));
                }
            }
            UnitResult::McShard {
                cell,
                trial_range,
                ters,
            } => {
                // A shard must belong to a Monte-Carlo cell of THIS plan —
                // a mislabeled cell would otherwise be dropped silently at
                // finish(), violating the "rejected, never misfolded"
                // contract.
                let is_mc_cell = matches!(
                    &self.plan.kind,
                    PlanKind::Sweep { models, .. }
                        if models.get(cell).is_some_and(|m| m.monte_carlo().is_some())
                );
                if !is_mc_cell {
                    return Err(PipelineError::exec(format!(
                        "mc shard result for cell {cell}, which is not a \
                         Monte-Carlo cell of this plan"
                    )));
                }
                if ters.len() != self.plan.pairs() {
                    return Err(PipelineError::exec(format!(
                        "mc shard for cell {cell} carries {} pair groups, plan has {}",
                        ters.len(),
                        self.plan.pairs()
                    )));
                }
                self.shards
                    .entry(cell)
                    .or_default()
                    .push((trial_range, ters));
            }
            UnitResult::Accuracy { cell, point } => {
                if self
                    .plan
                    .index_of(&WorkUnit::AccuracyPoint { cell })
                    .is_none()
                {
                    return Err(PipelineError::exec(format!(
                        "accuracy result for cell {cell}, which is not part of this plan"
                    )));
                }
                if self.points.insert(cell, point).is_some() {
                    return Err(PipelineError::exec(format!(
                        "duplicate accuracy result for cell {cell}"
                    )));
                }
            }
            UnitResult::DataflowProbe { cell, report } => {
                if self
                    .plan
                    .index_of(&WorkUnit::DataflowProbe { cell })
                    .is_none()
                {
                    return Err(PipelineError::exec(format!(
                        "dataflow result for cell {cell}, which is not part of this plan"
                    )));
                }
                if self.probes.insert(cell, report).is_some() {
                    return Err(PipelineError::exec(format!(
                        "duplicate dataflow result for cell {cell}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Per-pair trial vectors of one Monte-Carlo cell, re-assembled in
    /// global trial order and verified to cover `0..trials` exactly once.
    fn cell_trials(&self, cell: usize, trials: u32) -> Result<Vec<Vec<f64>>, PipelineError> {
        let mut shards: Vec<&McShardSamples> = self
            .shards
            .get(&cell)
            .map(|v| v.iter().collect())
            .unwrap_or_default();
        shards.sort_by_key(|(range, _)| range.start);
        let mut out = vec![Vec::with_capacity(trials as usize); self.plan.pairs()];
        let mut next = 0u32;
        for (range, ters) in shards {
            if range.start != next {
                return Err(PipelineError::exec(format!(
                    "mc cell {cell}: trial range gap or overlap at trial {next} (shard starts at {})",
                    range.start
                )));
            }
            for (pair, pair_ters) in ters.iter().enumerate() {
                if pair_ters.len() != range.len() {
                    return Err(PipelineError::exec(format!(
                        "mc cell {cell} pair {pair}: shard {}..{} carries {} samples",
                        range.start,
                        range.end,
                        pair_ters.len()
                    )));
                }
                out[pair].extend_from_slice(pair_ters);
            }
            next = range.end;
        }
        if next != trials {
            return Err(PipelineError::exec(format!(
                "mc cell {cell}: trials {next}..{trials} missing"
            )));
        }
        Ok(out)
    }

    fn pair_hist(&self, pair: usize) -> Result<&DepthHistogram, PipelineError> {
        self.hists
            .get(&pair)
            .ok_or_else(|| PipelineError::exec(format!("histogram result for pair {pair} missing")))
    }

    /// Builds the canonical row set of one cell from the folded results.
    fn cell_rows(
        &self,
        condition: &timing::OperatingCondition,
        error_model: &dyn crate::stage::ErrorModel,
        estimate_of_pair: impl Fn(usize, &DepthHistogram) -> TerEstimate,
    ) -> Result<Vec<LayerReport>, PipelineError> {
        let plan = self.plan;
        let mut rows = Vec::with_capacity(plan.pairs());
        for pair in 0..plan.pairs() {
            let workload = plan.workload_of(pair);
            let hist = self.pair_hist(pair)?;
            let estimate = estimate_of_pair(pair, hist);
            rows.push(LayerReport {
                layer: workload.name().to_string(),
                algorithm: plan.source_of(pair).name(),
                condition: condition.name.to_string(),
                corner: error_model.corner(),
                ter: estimate.ter,
                ter_stddev: estimate.stddev,
                ber: error_model.ber(estimate.ter, workload.macs_per_output()),
                sign_flip_rate: hist.sign_flip_rate(),
                macs_per_output: workload.macs_per_output(),
                total_cycles: hist.total(),
                sign_flips: hist.sign_flips(),
            });
        }
        Ok(rows)
    }

    /// Folds everything pushed so far into the plan's report.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when results are missing, duplicated
    /// or inconsistent (e.g. a Monte-Carlo trial-range gap).
    pub fn finish(self) -> Result<PlanOutput, PipelineError> {
        let plan = self.plan;
        match &plan.kind {
            PlanKind::Ter => {
                let error_model = plan.pipeline.error_model();
                let mut rows = Vec::with_capacity(plan.pairs() * plan.pipeline.conditions().len());
                for pair in 0..plan.pairs() {
                    let workload = plan.workload_of(pair);
                    let hist = self.pair_hist(pair)?;
                    for condition in plan.pipeline.conditions() {
                        let estimate = error_model.estimate(hist, condition);
                        rows.push(LayerReport {
                            layer: workload.name().to_string(),
                            algorithm: plan.source_of(pair).name(),
                            condition: condition.name.to_string(),
                            corner: error_model.corner(),
                            ter: estimate.ter,
                            ter_stddev: estimate.stddev,
                            ber: error_model.ber(estimate.ter, workload.macs_per_output()),
                            sign_flip_rate: hist.sign_flip_rate(),
                            macs_per_output: workload.macs_per_output(),
                            total_cycles: hist.total(),
                            sign_flips: hist.sign_flips(),
                        });
                    }
                }
                Ok(PlanOutput::Ter(NetworkReport {
                    network: plan.network.clone(),
                    rows,
                }))
            }
            PlanKind::Sweep { corners, models } => {
                let mut report_cells = Vec::with_capacity(corners.len());
                for (ci, corner) in corners.iter().enumerate() {
                    let condition = &corner.condition;
                    let model = &models[ci];
                    let error_model = model.as_error_model();
                    let rows = match model.monte_carlo() {
                        Some((_, mc)) => {
                            // Concatenate the cell's per-shard trial samples
                            // in trial order and reduce once — bit-identical
                            // to the unsharded estimate.
                            let trials = self.cell_trials(ci, mc.trials)?;
                            self.cell_rows(condition, error_model, |pair, _| {
                                TerEstimate::from_trials(&trials[pair])
                            })?
                        }
                        None => {
                            // The cell's stage estimates through a table
                            // of this corner, so sharing one across the
                            // pairs keeps every bit: the die's offsets and
                            // per-depth probabilities are evaluated once
                            // per cell, not once per pair.
                            #[cfg(test)]
                            CORNER_TABLES.with(|tables| tables.set(tables.get() + 1));
                            let table = AnalyticAnalysis::new(model.delay()).table(corner);
                            self.cell_rows(condition, error_model, |_, hist| table.estimate(hist))?
                        }
                    };
                    report_cells.push(SweepCell {
                        die: corner.variation.label(),
                        condition: condition.name.to_string(),
                        error_model: error_model.name(),
                        shards: model.shards(),
                        rows,
                    });
                }

                // Cross-corner summary: the worst row per algorithm, in
                // source order (first occurrence wins ties, so the summary
                // is stable).
                let sources = plan.pipeline.sources();
                let mut worst = Vec::with_capacity(sources.len());
                for source in sources {
                    let name = source.name();
                    let mut best: Option<WorstCase> = None;
                    for cell in &report_cells {
                        for row in cell.rows.iter().filter(|r| r.algorithm == name) {
                            if best.as_ref().map(|b| row.ter > b.ter).unwrap_or(true) {
                                best = Some(WorstCase {
                                    algorithm: name.clone(),
                                    ter: row.ter,
                                    layer: row.layer.clone(),
                                    condition: row.condition.clone(),
                                    die: cell.die.clone(),
                                });
                            }
                        }
                    }
                    worst.extend(best);
                }

                Ok(PlanOutput::Sweep(SweepReport {
                    network: plan.network.clone(),
                    cells: report_cells,
                    worst,
                }))
            }
            PlanKind::Accuracy { .. } => {
                let cells = plan.pipeline.conditions().len() * plan.pipeline.sources().len();
                let mut points = Vec::with_capacity(cells);
                for cell in 0..cells {
                    points.push(self.points.get(&cell).cloned().ok_or_else(|| {
                        PipelineError::exec(format!("accuracy result for cell {cell} missing"))
                    })?);
                }
                Ok(PlanOutput::Accuracy(AccuracyReport {
                    network: plan.network.clone(),
                    points,
                }))
            }
            PlanKind::Dataflow { dataflows } => {
                let cells = dataflows.len() * plan.pairs();
                let mut rows = Vec::with_capacity(cells);
                for cell in 0..cells {
                    let report = self.probes.get(&cell).cloned().ok_or_else(|| {
                        PipelineError::exec(format!("dataflow result for cell {cell} missing"))
                    })?;
                    let pair = cell % plan.pairs();
                    rows.push(DataflowRow {
                        layer: plan.workload_of(pair).name().to_string(),
                        algorithm: plan.source_of(pair).name(),
                        report,
                    });
                }
                Ok(PlanOutput::Dataflow(DataflowNetworkReport {
                    network: plan.network.clone(),
                    rows,
                }))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// UnitLedger
// ---------------------------------------------------------------------------

/// Unit-loss accounting for executors whose workers can die: tracks every
/// unit of a range from *pending*, through *in flight* on some worker, to
/// *completed* or *failed* — with a bounded number of re-dispatch attempts
/// when a worker is lost mid-unit.
///
/// The ledger is pure bookkeeping (no I/O, no threads); the windowed
/// driver of [`crate::SubprocessExecutor`] and [`crate::SocketExecutor`]
/// drives it under a mutex:
///
/// * [`UnitLedger::checkout`] hands the next pending unit to a worker.
/// * [`UnitLedger::complete`] / [`UnitLedger::fail`] settle an in-flight
///   unit — failure here means the unit itself failed *deterministically*
///   (the worker answered with an in-band `!` report), so retrying on
///   another worker would fail identically and the failure is recorded.
/// * [`UnitLedger::lose`] reports that the worker holding a unit died; the
///   unit is re-queued for another worker until its attempt budget is
///   exhausted, at which point it fails.
/// * [`UnitLedger::abandon_pending`] fails everything still queued — the
///   last surviving worker died.
///
/// [`UnitLedger::into_results`] enforces the [`crate::Executor`] contract:
/// all units completed → results in unit order; otherwise the error of the
/// smallest failing unit index, independent of worker timing.  A unit can
/// never be silently omitted — every checkout is settled exactly once.
///
/// For *windowed* (pipelined) dispatch, where one worker holds several
/// units in flight at once, the ledger also tracks per-worker in-flight
/// sets: register a worker with [`UnitLedger::add_worker`], check units
/// out to it with [`UnitLedger::checkout_for`], settle them by slot with
/// [`UnitLedger::complete_for`] / [`UnitLedger::fail_for`], and on worker
/// death requeue *everything* it held with [`UnitLedger::lose_all`] — the
/// same attempt-budget and smallest-failing-index semantics as the
/// one-unit API, applied to the whole window.
#[derive(Debug)]
pub struct UnitLedger {
    /// `(slot, attempt)` queue; attempts start at 1.
    pending: VecDeque<(usize, u32)>,
    results: Vec<Option<UnitResult>>,
    failures: BTreeMap<usize, String>,
    in_flight: usize,
    max_attempts: u32,
    retried: u64,
    lost: u64,
    /// Per-worker in-flight sets for windowed dispatch; entries mirror a
    /// subset of the global `in_flight` count.
    workers: Vec<Vec<(usize, u32)>>,
}

impl UnitLedger {
    /// A ledger over `units` slots, each dispatchable up to `max_attempts`
    /// times (clamped to at least 1).
    pub fn new(units: usize, max_attempts: u32) -> UnitLedger {
        UnitLedger {
            pending: (0..units).map(|slot| (slot, 1)).collect(),
            results: (0..units).map(|_| None).collect(),
            failures: BTreeMap::new(),
            in_flight: 0,
            max_attempts: max_attempts.max(1),
            retried: 0,
            lost: 0,
            workers: Vec::new(),
        }
    }

    /// Registers a worker for windowed dispatch and returns its id, used as
    /// the `worker` argument of the `*_for` methods below.
    pub fn add_worker(&mut self) -> usize {
        self.workers.push(Vec::new());
        self.workers.len() - 1
    }

    /// [`UnitLedger::checkout`] into `worker`'s in-flight set: the unit is
    /// remembered as held by that worker until settled by slot or requeued
    /// wholesale by [`UnitLedger::lose_all`].
    pub fn checkout_for(&mut self, worker: usize) -> Option<(usize, u32)> {
        let job = self.checkout()?;
        self.workers[worker].push(job);
        Some(job)
    }

    /// Units currently checked out to `worker`.
    pub fn in_flight_of(&self, worker: usize) -> usize {
        self.workers[worker].len()
    }

    fn release(&mut self, worker: usize, slot: usize) -> bool {
        let held = &mut self.workers[worker];
        match held.iter().position(|&(s, _)| s == slot) {
            Some(at) => {
                held.swap_remove(at);
                true
            }
            None => false,
        }
    }

    /// Settles `slot` from `worker`'s in-flight set with its result.
    /// Returns `false` (and changes nothing) when the worker does not hold
    /// that slot — the response did not match anything the caller sent, so
    /// the connection should be treated as corrupt instead.
    pub fn complete_for(&mut self, worker: usize, slot: usize, result: UnitResult) -> bool {
        if !self.release(worker, slot) {
            return false;
        }
        self.complete(slot, result);
        true
    }

    /// Settles `slot` from `worker`'s in-flight set as deterministically
    /// failed (see [`UnitLedger::fail`]).  Returns `false` when the worker
    /// does not hold that slot.
    pub fn fail_for(&mut self, worker: usize, slot: usize, reason: impl Into<String>) -> bool {
        if !self.release(worker, slot) {
            return false;
        }
        self.fail(slot, reason);
        true
    }

    /// Reports that `worker` died: every unit in its in-flight set is lost
    /// at once — each is re-queued for a survivor (attempt budget
    /// permitting) or recorded as failed, exactly as [`UnitLedger::lose`]
    /// would one at a time.  Returns `(requeued, held)`: how many units
    /// went back to the pending queue out of how many the worker held.
    pub fn lose_all(&mut self, worker: usize, reason: &str) -> (usize, usize) {
        let held = std::mem::take(&mut self.workers[worker]);
        let total = held.len();
        let mut requeued = 0;
        for (slot, attempt) in held {
            if self.lose(slot, attempt, reason) {
                requeued += 1;
            }
        }
        (requeued, total)
    }

    /// Hands out the next pending `(slot, attempt)`, marking it in flight.
    /// `None` means nothing is pending *right now* — the caller must check
    /// [`UnitLedger::is_settled`] before concluding the plan is done, since
    /// another worker's in-flight unit may yet be lost and re-queued.
    pub fn checkout(&mut self) -> Option<(usize, u32)> {
        let entry = self.pending.pop_front()?;
        self.in_flight += 1;
        Some(entry)
    }

    /// Settles a checked-out slot with its result.  A duplicate completion
    /// (two workers racing the same re-dispatched slot) keeps the first
    /// result — units are deterministic, so both are byte-identical.
    pub fn complete(&mut self, slot: usize, result: UnitResult) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.results[slot].is_none() && !self.failures.contains_key(&slot) {
            self.results[slot] = Some(result);
        }
    }

    /// Settles a checked-out slot as deterministically failed (the worker
    /// computed it and reported an in-band failure): re-dispatching would
    /// fail identically, so the slot is not retried.
    pub fn fail(&mut self, slot: usize, reason: impl Into<String>) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.results[slot].is_none() {
            self.failures.entry(slot).or_insert_with(|| reason.into());
        }
    }

    /// Reports that the worker holding `(slot, attempt)` died before
    /// answering.  Returns `true` when the unit was re-queued for another
    /// worker; `false` when its attempt budget is exhausted and it has been
    /// recorded as failed.
    pub fn lose(&mut self, slot: usize, attempt: u32, reason: &str) -> bool {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.lost += 1;
        if attempt < self.max_attempts {
            self.retried += 1;
            self.pending.push_back((slot, attempt + 1));
            true
        } else {
            self.failures.entry(slot).or_insert_with(|| {
                format!("unit lost {attempt} time(s); attempt budget exhausted: {reason}")
            });
            false
        }
    }

    /// Fails every still-pending unit (no worker left to run them).
    pub fn abandon_pending(&mut self, reason: &str) {
        while let Some((slot, _)) = self.pending.pop_front() {
            self.failures
                .entry(slot)
                .or_insert_with(|| format!("unit abandoned: {reason}"));
        }
    }

    /// Whether every unit has been settled (completed or failed) — nothing
    /// pending, nothing in flight.
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }

    /// Units currently checked out to workers.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total re-dispatches of lost units.
    pub fn retried(&self) -> u64 {
        self.retried
    }

    /// Total worker-loss events observed (each re-queued or failed a unit).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Finishes the ledger: every slot completed → the results in unit
    /// order; otherwise the recorded failure of the *smallest* failing slot
    /// (deterministic regardless of worker timing).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] for the smallest failed slot, or for
    /// the smallest unsettled slot when the ledger was finished early.
    pub fn into_results(self) -> Result<Vec<UnitResult>, PipelineError> {
        if let Some((slot, reason)) = self.failures.into_iter().next() {
            return Err(PipelineError::exec(format!("unit {slot}: {reason}")));
        }
        self.results
            .into_iter()
            .enumerate()
            .map(|(slot, result)| {
                result.ok_or_else(|| PipelineError::exec(format!("unit {slot} was never settled")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::unescape;

    #[test]
    fn unit_ids_round_trip() {
        let units = [
            WorkUnit::Histogram { cell: 0, pair: 7 },
            WorkUnit::McShard {
                cell: 3,
                trial_range: 8..24,
            },
            WorkUnit::AccuracyPoint { cell: 5 },
            WorkUnit::DataflowProbe { cell: 11 },
        ];
        for unit in units {
            let encoded = unit.encode();
            assert_eq!(WorkUnit::decode(&encoded).unwrap(), unit, "{encoded}");
        }
        assert_eq!(
            WorkUnit::Histogram { cell: 0, pair: 7 }.encode(),
            "hist cell=0 pair=7"
        );
        assert_eq!(
            WorkUnit::McShard {
                cell: 3,
                trial_range: 8..24
            }
            .encode(),
            "mc cell=3 trials=8..24"
        );
    }

    #[test]
    fn malformed_unit_ids_are_rejected() {
        for bad in [
            "",
            "zap cell=0",
            "hist cell=0",
            "hist pair=0 cell=0",
            "hist cell=0 pair=1 extra=2",
            "mc cell=1 trials=5",
            "acc cell=x",
            "dflow cell=",
            "dflow cell=0 extra=1",
        ] {
            assert!(WorkUnit::decode(bad).is_err(), "{bad:?} should not decode");
        }
    }

    #[test]
    fn histogram_results_round_trip() {
        let hist = DepthHistogram::from_parts(&[10, 0, 3, 0, 2], 4, 15).unwrap();
        let result = UnitResult::Histogram {
            cell: 0,
            pair: 2,
            hist: hist.clone(),
        };
        let encoded = result.encode();
        assert_eq!(
            encoded,
            "hist cell=0 pair=2 total=15 flips=4 counts=0:10,2:3,4:2"
        );
        assert_eq!(UnitResult::decode(&encoded).unwrap(), result);
        // Inconsistent counts and out-of-range or repeated depths are
        // rejected, not silently accepted.
        for body in [
            "total=2 flips=0 counts=0:10",
            "total=1 flips=0 counts=18446744073709551615:1",
            "total=1 flips=0 counts=100000000000:1",
            "total=1 flips=0 counts=3:5,3:1",
        ] {
            let line = format!("hist cell=0 pair=2 {body}");
            assert!(UnitResult::decode(&line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn mc_results_round_trip_exactly() {
        let result = UnitResult::McShard {
            cell: 1,
            trial_range: 4..7,
            ters: vec![
                vec![1.25e-7, 0.0, 3.5e-4],
                vec![f64::MIN_POSITIVE, 1.0, 0.125],
            ],
        };
        let encoded = result.encode();
        let decoded = UnitResult::decode(&encoded).unwrap();
        // Bit-exact float round trip (shortest round-trip formatting).
        assert_eq!(decoded, result);
        let UnitResult::McShard { ters, .. } = decoded else {
            unreachable!()
        };
        assert_eq!(ters[1][0].to_bits(), f64::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn accuracy_results_round_trip_with_escaping() {
        let result = UnitResult::Accuracy {
            cell: 9,
            point: AccuracyPoint {
                condition: "Aging&VT-5% plus margin".into(),
                algorithm: "cluster\\then reorder".into(),
                top1: 0.75,
                topk: 0.9375,
                k: 3,
                mean_ber: 3.2e-5,
                seeds: 4,
            },
        };
        let encoded = result.encode();
        assert!(!encoded.contains("5% plus"), "spaces must be escaped");
        assert_eq!(UnitResult::decode(&encoded).unwrap(), result);
    }

    #[test]
    fn every_whitespace_kind_escapes_and_round_trips() {
        // The decoder splits on any Unicode whitespace, so tab, NBSP and
        // friends must never appear raw in an encoded field.
        let tricky = "a\tb\u{a0}c\u{2003}d e";
        let escaped = escape_wire(tricky);
        assert!(
            !escaped.chars().any(char::is_whitespace),
            "escaped field must carry no raw whitespace: {escaped:?}"
        );
        assert_eq!(unescape(&escaped, "ctx").unwrap(), tricky);
        let result = UnitResult::Accuracy {
            cell: 0,
            point: AccuracyPoint {
                condition: tricky.into(),
                algorithm: "alg".into(),
                top1: 0.5,
                topk: 0.5,
                k: 1,
                mean_ber: 0.0,
                seeds: 1,
            },
        };
        assert_eq!(UnitResult::decode(&result.encode()).unwrap(), result);
    }

    #[test]
    fn results_identify_their_units() {
        let hist = DepthHistogram::from_parts(&[1], 0, 1).unwrap();
        assert_eq!(
            UnitResult::Histogram {
                cell: 0,
                pair: 3,
                hist
            }
            .unit(),
            WorkUnit::Histogram { cell: 0, pair: 3 }
        );
        assert_eq!(
            UnitResult::McShard {
                cell: 2,
                trial_range: 0..8,
                ters: vec![]
            }
            .unit(),
            WorkUnit::McShard {
                cell: 2,
                trial_range: 0..8
            }
        );
    }

    #[test]
    fn dataflow_results_round_trip() {
        let report = DataflowReport {
            dataflow: "weight-stationary".into(),
            cycles: 240,
            macs: 128,
            outputs: 16,
            stalled: 31,
            peak_psum_buffer: 8,
            contexts: vec![dataflow_sim::ContextReport {
                name: "pe".into(),
                busy: 128,
                stall: 31,
                finish: 240,
            }],
            channels: vec![dataflow_sim::ChannelReport {
                name: "weights".into(),
                capacity: 4,
                peak: 4,
                sends: 128,
            }],
        };
        let result = UnitResult::DataflowProbe { cell: 3, report };
        assert_eq!(result.unit(), WorkUnit::DataflowProbe { cell: 3 });
        let encoded = result.encode();
        assert!(encoded.starts_with("dflow cell=3 df=weight-stationary "));
        assert_eq!(UnitResult::decode(&encoded).unwrap(), result);
        // A truncated report body is rejected, not silently accepted.
        assert!(UnitResult::decode("dflow cell=3 df=weight-stationary cycles=240").is_err());
    }

    #[test]
    fn dataflow_probe_units_report_dynamics_and_reject_under_covering_schedules() {
        use crate::stage::ScheduleSource;
        use accel_sim::{ArrayConfig, ComputeSchedule, Matrix};

        /// Schedules only half of the weight channels.
        struct HalfChannels;
        impl ScheduleSource for HalfChannels {
            fn name(&self) -> String {
                "half-channels".to_string()
            }
            fn schedule(
                &self,
                weights: &Matrix<i8>,
                array_cols: usize,
            ) -> Result<ComputeSchedule, PipelineError> {
                Ok(ComputeSchedule::baseline(
                    weights.rows(),
                    weights.cols() / 2,
                    array_cols,
                ))
            }
        }

        let w = Matrix::from_fn(16, 4, |r, c| (((r * 5 + c * 3) % 11) as i8) - 5);
        let a = Matrix::from_fn(16, 6, |r, c| ((r + 2 * c) % 5) as i8);
        let workloads = [LayerWorkload::from_matrices("probe", w, a).unwrap()];
        let pipeline = ReadPipeline::builder()
            .array(ArrayConfig::new(4, 2))
            .baseline()
            .source(HalfChannels)
            .condition(timing::OperatingCondition::ideal())
            .build()
            .unwrap();
        let dataflows = vec![Dataflow::WeightStationary, Dataflow::OutputStationary];
        let plan = pipeline
            .plan_dataflow_with("probe", &workloads, dataflows)
            .unwrap();
        // Cells are dataflow-major, then (workload, source): cell 0 is the
        // baseline under weight-stationary.
        let UnitResult::DataflowProbe { report, .. } = plan.run_unit(0).unwrap() else {
            panic!("expected a dataflow probe result");
        };
        assert_eq!(report.macs, 16 * 4 * 6);
        assert!(report.peak_psum_buffer > 0);

        // An under-covering schedule (cell 3: output-stationary) is a
        // simulation-input error.
        let err = plan.run_unit(3).unwrap_err();
        assert!(matches!(err, PipelineError::Sim(_)), "{err}");
    }

    #[test]
    fn workloads_hash_once_when_built_and_plans_keep_their_keys() {
        use crate::stage::Algorithm;
        use crate::workload::{vgg16_workloads_prefix, WorkloadConfig, WORKLOAD_HASHES};
        use timing::OperatingCondition;

        let hashes = || WORKLOAD_HASHES.with(|calls| calls.get());
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        let before = hashes();
        let workloads = vgg16_workloads_prefix(&config, 2);
        let built = hashes();
        assert_eq!(built - before, 2, "one hash per workload, when it is built");

        // The fingerprint is FNV-1a over the four dims (little-endian u64),
        // the weight bytes and the activation bytes, and a clone keeps it.
        for workload in &workloads {
            let (weights, activations) = (workload.weights(), workload.activations());
            let mut expected = 0xCBF2_9CE4_8422_2325u64;
            let dims = [
                weights.rows(),
                weights.cols(),
                activations.rows(),
                activations.cols(),
            ];
            let bytes = dims
                .iter()
                .flat_map(|&d| (d as u64).to_le_bytes())
                .chain(weights.as_slice().iter().map(|&w| w as u8))
                .chain(activations.as_slice().iter().map(|&a| a as u8));
            for byte in bytes {
                expected = (expected ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            assert_eq!(workload.fingerprint(), expected);
            assert_eq!(workload.clone().fingerprint(), expected);
        }

        let model = qnn::models::vgg11_cifar_scaled(8, 4, 3).unwrap();
        let dataset = qnn::SyntheticDatasetBuilder::new(4, [3, 16, 16])
            .samples_per_class(1)
            .seed(11)
            .build()
            .unwrap();
        let pipeline = ReadPipeline::builder()
            .baseline()
            .source(Algorithm::ClusterThenReorder(
                read_core::SortCriterion::SignFirst,
            ))
            .condition(OperatingCondition::aging_vt(10.0, 0.05))
            .sweep(
                SweepPlan::new()
                    .condition(OperatingCondition::vt(0.05))
                    .typical()
                    .monte_carlo(16, 3)
                    .trials_per_shard(8),
            )
            .build()
            .unwrap();

        let sweep = pipeline.plan_sweep("hash-once", &workloads).unwrap();
        let accuracy = pipeline
            .plan_accuracy_for(&model, "hash-once", &dataset, &workloads, 1)
            .unwrap();
        let shards = sweep
            .units()
            .iter()
            .filter(|unit| matches!(unit, WorkUnit::McShard { .. }))
            .count();
        assert_eq!(shards, 2);
        for plan in [&sweep, &accuracy] {
            for index in 0..plan.len() {
                plan.run_unit(index).unwrap();
            }
        }

        // Histogram flight keys are the store check lines, and the public
        // lookup finds the histograms the plan's units cached.
        let misses = pipeline.cache_stats().hist_misses;
        for pair in 0..sweep.pairs() {
            let (workload, source) = (sweep.workload_of(pair), sweep.source_of(pair));
            let expected = pipeline.histogram_check_line(workload, source);
            assert_eq!(
                sweep.flight_key(&WorkUnit::Histogram { cell: 0, pair }),
                format!("hist {expected}")
            );
            pipeline.layer_histogram(workload, source).unwrap();
        }
        assert_eq!(pipeline.cache_stats().hist_misses, misses);
        assert_eq!(
            hashes(),
            built,
            "plans, units, flight keys and lookups read the built fingerprint"
        );
    }

    /// Runs every unit of a sweep over the first `layers` VGG-16 layers
    /// and aggregates it, returning the cell count and the corner tables
    /// the aggregation built.  Executing the units must build none.
    fn sweep_corner_tables(sweep: SweepPlan, layers: usize) -> (usize, u64) {
        use crate::workload::{vgg16_workloads_prefix, WorkloadConfig};

        let tables = || CORNER_TABLES.with(|built| built.get());
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        let workloads = vgg16_workloads_prefix(&config, layers);
        let pipeline = ReadPipeline::builder()
            .baseline()
            .condition(timing::OperatingCondition::ideal())
            .sweep(sweep)
            .build()
            .unwrap();
        let plan = pipeline.plan_sweep("corner-tables", &workloads).unwrap();
        let before = tables();
        let results: Vec<UnitResult> = (0..plan.len())
            .map(|index| plan.run_unit(index).unwrap())
            .collect();
        assert_eq!(tables(), before, "units build no corner table");
        let report = plan.aggregate(results).unwrap().into_sweep().unwrap();
        assert!(report.cells.iter().all(|cell| cell.rows.len() == layers));
        (report.cells.len(), tables() - before)
    }

    fn two_condition_sweep() -> SweepPlan {
        use timing::OperatingCondition;
        SweepPlan::new().conditions([
            OperatingCondition::vt(0.05),
            OperatingCondition::aging_vt(10.0, 0.05),
        ])
    }

    #[test]
    fn sweep_aggregation_builds_one_corner_table_per_cell() {
        for layers in [1, 3] {
            let sweep = two_condition_sweep().typical().dies([3, 4]);
            assert_eq!(
                sweep_corner_tables(sweep, layers),
                (6, 6),
                "{layers} workloads"
            );
        }
    }

    #[test]
    fn monte_carlo_sweep_cells_build_no_corner_table() {
        for layers in [1, 3] {
            let sampled = two_condition_sweep().typical().monte_carlo(16, 3);
            assert_eq!(
                sweep_corner_tables(sampled.trials_per_shard(8), layers),
                (2, 0)
            );
            // Only the die cells of a sampled sweep build a table.
            let dies = two_condition_sweep()
                .typical()
                .dies([3, 4])
                .monte_carlo(16, 3);
            assert_eq!(sweep_corner_tables(dies, layers), (6, 4));
        }
    }

    // ---- UnitLedger -------------------------------------------------------

    fn sentinel_result(slot: usize) -> UnitResult {
        UnitResult::McShard {
            cell: slot,
            trial_range: 0..1,
            ters: vec![],
        }
    }

    #[test]
    fn ledger_happy_path_returns_results_in_unit_order() {
        let mut ledger = UnitLedger::new(3, 3);
        // Check units out in a scrambled order (two workers interleaving).
        let a = ledger.checkout().unwrap();
        let b = ledger.checkout().unwrap();
        assert_eq!((a, b), ((0, 1), (1, 1)));
        ledger.complete(b.0, sentinel_result(b.0));
        let c = ledger.checkout().unwrap();
        ledger.complete(c.0, sentinel_result(c.0));
        assert!(!ledger.is_settled(), "slot 0 still in flight");
        ledger.complete(a.0, sentinel_result(a.0));
        assert!(ledger.is_settled());
        assert_eq!(ledger.checkout(), None);
        let results = ledger.into_results().unwrap();
        assert_eq!(results.len(), 3);
        for (slot, result) in results.iter().enumerate() {
            assert_eq!(*result, sentinel_result(slot));
        }
    }

    #[test]
    fn ledger_requeues_lost_units_until_budget_exhausted() {
        let mut ledger = UnitLedger::new(1, 2);
        let (slot, attempt) = ledger.checkout().unwrap();
        assert!(
            ledger.lose(slot, attempt, "worker died"),
            "first loss retries"
        );
        assert_eq!(ledger.retried(), 1);
        assert!(!ledger.is_settled(), "re-queued unit is pending again");
        let (slot, attempt) = ledger.checkout().unwrap();
        assert_eq!(attempt, 2);
        assert!(
            !ledger.lose(slot, attempt, "worker died again"),
            "budget spent"
        );
        assert!(ledger.is_settled());
        assert_eq!(ledger.lost(), 2);
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(err.contains("unit 0"), "{err}");
        assert!(err.contains("budget exhausted"), "{err}");
        assert!(err.contains("worker died again"), "{err}");
    }

    #[test]
    fn ledger_reports_smallest_failing_slot_regardless_of_timing() {
        let mut ledger = UnitLedger::new(3, 1);
        let first = ledger.checkout().unwrap();
        let second = ledger.checkout().unwrap();
        let third = ledger.checkout().unwrap();
        // Failures land in reverse order; the smallest slot's error wins.
        ledger.fail(third.0, "late failure");
        ledger.fail(second.0, "middle failure");
        ledger.complete(first.0, sentinel_result(0));
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(err.contains("unit 1: middle failure"), "{err}");
    }

    #[test]
    fn ledger_abandons_pending_units_when_no_workers_survive() {
        let mut ledger = UnitLedger::new(3, 3);
        let (slot, attempt) = ledger.checkout().unwrap();
        ledger.lose(slot, attempt, "connection reset");
        ledger.abandon_pending("no surviving workers");
        assert!(ledger.is_settled());
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(err.contains("unit 0: unit abandoned"), "{err}");
        assert!(err.contains("no surviving workers"), "{err}");
    }

    #[test]
    fn ledger_keeps_first_result_on_duplicate_completion() {
        let mut ledger = UnitLedger::new(1, 3);
        let (slot, attempt) = ledger.checkout().unwrap();
        // The driver declared this worker dead (liveness timeout) and
        // re-dispatched, but the slow worker's result eventually surfaced
        // too: first settle wins, the duplicate is dropped on the floor.
        assert!(ledger.lose(slot, attempt, "liveness timeout"));
        let (slot2, _) = ledger.checkout().unwrap();
        ledger.complete(slot2, sentinel_result(0));
        ledger.complete(slot, sentinel_result(0));
        assert!(ledger.is_settled());
        assert_eq!(ledger.into_results().unwrap().len(), 1);
    }

    #[test]
    fn ledger_windowed_checkout_tracks_per_worker_sets() {
        let mut ledger = UnitLedger::new(4, 3);
        let w0 = ledger.add_worker();
        let w1 = ledger.add_worker();
        let (a, _) = ledger.checkout_for(w0).unwrap();
        let (b, _) = ledger.checkout_for(w0).unwrap();
        let (c, _) = ledger.checkout_for(w1).unwrap();
        assert_eq!(ledger.in_flight_of(w0), 2);
        assert_eq!(ledger.in_flight_of(w1), 1);
        assert_eq!(ledger.in_flight(), 3);
        // Out-of-order settle within the window.
        assert!(ledger.complete_for(w0, b, sentinel_result(b)));
        assert!(ledger.complete_for(w0, a, sentinel_result(a)));
        // A slot another worker holds (or nobody holds) does not match.
        assert!(!ledger.complete_for(w0, c, sentinel_result(c)));
        assert!(ledger.complete_for(w1, c, sentinel_result(c)));
        let (d, _) = ledger.checkout_for(w1).unwrap();
        assert!(ledger.fail_for(w1, d, "deterministic failure"));
        assert!(ledger.is_settled());
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(
            err.contains(&format!("unit {d}: deterministic failure")),
            "{err}"
        );
    }

    #[test]
    fn ledger_lose_all_requeues_a_dead_workers_window() {
        let mut ledger = UnitLedger::new(3, 2);
        let w0 = ledger.add_worker();
        let w1 = ledger.add_worker();
        for _ in 0..3 {
            ledger.checkout_for(w0).unwrap();
        }
        let (requeued, held) = ledger.lose_all(w0, "worker died");
        assert_eq!((requeued, held), (3, 3));
        assert_eq!(ledger.in_flight_of(w0), 0);
        assert_eq!(ledger.retried(), 3);
        assert!(!ledger.is_settled(), "window went back to pending");
        // The survivor drains the requeued units at attempt 2.
        while let Some((slot, attempt)) = ledger.checkout_for(w1) {
            assert_eq!(attempt, 2);
            assert!(ledger.complete_for(w1, slot, sentinel_result(slot)));
        }
        assert!(ledger.is_settled());
        assert_eq!(ledger.into_results().unwrap().len(), 3);
    }

    #[test]
    fn ledger_lose_all_exhausts_attempt_budgets_per_unit() {
        let mut ledger = UnitLedger::new(2, 2);
        let w0 = ledger.add_worker();
        // Slot 0 burns one attempt first; slot 1 is on its first attempt.
        let (slot, attempt) = ledger.checkout().unwrap();
        assert!(ledger.lose(slot, attempt, "first death"));
        ledger.checkout_for(w0).unwrap();
        ledger.checkout_for(w0).unwrap();
        let (requeued, held) = ledger.lose_all(w0, "second death");
        assert_eq!(held, 2);
        assert_eq!(requeued, 1, "slot 0's budget is spent, slot 1 requeues");
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(err.contains("unit 0"), "{err}");
        assert!(err.contains("budget exhausted"), "{err}");
    }
}
