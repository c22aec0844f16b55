//! The batch workloads: `ter_cold` and `sweep_accuracy`.
//!
//! Every pass builds a fresh pipeline over a [`DiskStore`] through the
//! public `read_pipeline` API, executes its [`WorkPlan`] and compares the
//! report JSON with a serial reference computed during set-up.  The traced
//! pass runs the same plan unit by unit through [`WorkPlan::run_unit`] with
//! the forwarding adapters of [`crate::trace`] installed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use qnn::fit::fit_classifier_head;
use qnn::{models, Dataset, Model, SyntheticDatasetBuilder};
use read_core::SortCriterion;
use read_pipeline::{
    resnet18_workloads, vgg16_workloads, Algorithm, ArtifactStore, CacheStats, DelayErrorModel,
    DiskStore, ErrorModel, Evaluator, Executor, LayerWorkload, PlanOutput, ReadPipeline,
    ScheduleSource, SerialExecutor, SweepPlan, ThreadExecutor, TopKEvaluator, UnitResult, WorkPlan,
    WorkUnit, WorkloadConfig,
};
use timing::{paper_conditions, OperatingCondition};

use crate::trace::{Counters, TracedErrorModel, TracedEvaluator, TracedSource, TracedStore};
use crate::{
    copy_dir, median, ratio, same, sec, secs, tail, Args, Outcome, WorkDir, MIN_PASSES, THREADS,
};

/// Warm reruns per run, in clusters spread over the run (after set-up and
/// after the early cold passes) so that one slow moment of the host does
/// not set them all.  Enough samples that the reported tail is a
/// percentile, not the maximum.
const WARM_CLUSTERS: usize = 3;
const WARM_PER_CLUSTER: usize = 8;

/// Name of the READ source in report rows.
const READ_NAME: &str = "cluster-then-reorder[sign_first]";

/// The paper's headline TER reductions (geometric mean and maximum).
const PAPER_TER_REDUCTION: (f64, f64) = (7.8, 37.9);

fn sources() -> [Algorithm; 2] {
    [
        Algorithm::Baseline,
        Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
    ]
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

enum Kind {
    Ter,
    Sweep(SweepPlan),
    Accuracy { model: Model, dataset: Dataset },
}

/// Where a flow's layer workloads come from.
enum Workloads {
    /// Each pass synthesizes its own, as part of the timed pass.
    PerPass(fn(&WorkloadConfig) -> Vec<LayerWorkload>, WorkloadConfig),
    /// Synthesized once during set-up.
    SetUp(Vec<LayerWorkload>),
}

/// One batch workload: what every pass plans, in order, over one store,
/// and where that store starts.
struct Flow {
    network: &'static str,
    kinds: Vec<Kind>,
    workloads: Workloads,
    /// Store state every pass starts from (`None` = an empty store).  A
    /// pass over a set-up store must neither schedule nor simulate.
    seed_store: Option<PathBuf>,
}

/// How a run executes its units.
enum Drive<'a> {
    Exec(&'a dyn Executor),
    Traced(&'a Arc<Counters>, &'a mut Layers),
}

/// Result of one plan execution.
struct Run {
    /// Host seconds from opening the store to the aggregated report.
    wall: f64,
    /// Host seconds inside `Executor::execute` (or the traced unit loop).
    exec: f64,
    /// The reports of every plan, one per line.
    json: String,
    /// Per plan, in the flow's order.
    stats: Vec<CacheStats>,
    outputs: Vec<PlanOutput>,
}

/// One cold pass.
struct Pass {
    /// Host seconds including synthesis.
    wall: f64,
    synth_ns: u64,
    run: Run,
    /// The workloads the pass synthesized, if it owns synthesis.
    owned: Option<Vec<LayerWorkload>>,
}

/// Per-layer self times of traced runs (nanoseconds) and counts.
#[derive(Default)]
struct Layers {
    synth_ns: u64,
    build_ns: u64,
    open_ns: u64,
    aggregate_ns: u64,
    units_ns: u64,
    simulate_ns: u64,
    cycles: u64,
    mc_ns: u64,
    mc_trials: u64,
    hit_ns: u64,
    other_ns: u64,
    wall_ns: u64,
}

impl Flow {
    fn pipeline(
        &self,
        kind: &Kind,
        counters: Option<&Arc<Counters>>,
        store: Arc<dyn ArtifactStore>,
    ) -> Result<ReadPipeline, String> {
        let mut builder = ReadPipeline::builder();
        for source in sources() {
            let source: Arc<dyn ScheduleSource> = Arc::new(source);
            builder = builder.source_arc(match counters {
                Some(c) => Arc::new(TracedSource {
                    inner: source,
                    counters: Arc::clone(c),
                }),
                None => source,
            });
        }
        let store: Arc<dyn ArtifactStore> = match counters {
            Some(c) => Arc::new(TracedStore {
                inner: store,
                counters: Arc::clone(c),
            }),
            None => store,
        };
        builder = builder.store_arc(store);
        if let Some(c) = counters {
            let model: Arc<dyn ErrorModel> = Arc::new(DelayErrorModel::default());
            let evaluator: Arc<dyn Evaluator> = Arc::new(TopKEvaluator::new(3));
            builder = builder
                .error_model(TracedErrorModel {
                    inner: model,
                    counters: Arc::clone(c),
                })
                .evaluator(TracedEvaluator {
                    inner: evaluator,
                    counters: Arc::clone(c),
                });
        }
        builder = match kind {
            Kind::Ter | Kind::Accuracy { .. } => builder.conditions(paper_conditions()),
            Kind::Sweep(plan) => builder.sweep(plan.clone()),
        };
        builder.build().map_err(err)
    }

    fn plan<'a>(
        &'a self,
        kind: &'a Kind,
        pipeline: &'a ReadPipeline,
        workloads: &'a [LayerWorkload],
    ) -> Result<WorkPlan<'a>, String> {
        match kind {
            Kind::Ter => pipeline.plan_ter(self.network, workloads),
            Kind::Sweep(_) => pipeline.plan_sweep(self.network, workloads),
            // One fault-injection seed: a unit per (corner, source) cell.
            Kind::Accuracy { model, dataset } => {
                pipeline.plan_accuracy_for(model, self.network, dataset, workloads, 1)
            }
        }
        .map_err(err)
    }

    /// The workloads of a run: the pass's own, or the set-up ones.
    fn workloads<'w>(&'w self, owned: &'w Option<Vec<LayerWorkload>>) -> &'w [LayerWorkload] {
        match (&self.workloads, owned) {
            (_, Some(owned)) => owned,
            (Workloads::SetUp(workloads), None) => workloads,
            (Workloads::PerPass(..), None) => panic!("a per-pass flow runs its own workloads"),
        }
    }

    /// Prepares `dir` with the flow's starting store, synthesizes (when the
    /// pass owns synthesis) and runs one cold pass.
    fn pass(&self, dir: &Path, drive: Drive<'_>) -> Result<Pass, String> {
        match &self.seed_store {
            Some(seed) => copy_dir(seed, dir)?,
            None => std::fs::create_dir_all(dir).map_err(err)?,
        }
        let start = Instant::now();
        let owned = match &self.workloads {
            Workloads::PerPass(family, config) => Some(family(config)),
            Workloads::SetUp(_) => None,
        };
        let synth_ns = if owned.is_some() { ns(start) } else { 0 };
        let run = self.run(dir, self.workloads(&owned), drive)?;
        Ok(Pass {
            wall: sec(synth_ns) + run.wall,
            synth_ns,
            run,
            owned,
        })
    }

    /// Opens the store at `dir`, then plans, executes and aggregates each
    /// of the flow's plans once over it.
    fn run(
        &self,
        dir: &Path,
        workloads: &[LayerWorkload],
        mut drive: Drive<'_>,
    ) -> Result<Run, String> {
        let start = Instant::now();
        let store: Arc<dyn ArtifactStore> = Arc::new(DiskStore::new(dir).map_err(err)?);
        let open_ns = ns(start);
        let counters = match &drive {
            Drive::Traced(c, _) => Some(Arc::clone(c)),
            Drive::Exec(_) => None,
        };
        let (mut build_ns, mut aggregate_ns, mut exec) = (0, 0, 0.0);
        let (mut stats, mut outputs) = (Vec::new(), Vec::new());
        for kind in &self.kinds {
            let built = Instant::now();
            let pipeline = self.pipeline(kind, counters.as_ref(), Arc::clone(&store))?;
            let plan = self.plan(kind, &pipeline, workloads)?;
            build_ns += ns(built);
            let executed = Instant::now();
            let results = match &mut drive {
                Drive::Exec(executor) => executor.execute(&plan, 0..plan.len()),
                Drive::Traced(c, layers) => traced_units(&plan, &pipeline, c, layers),
            };
            exec += secs(executed);
            if let Some(store) = pipeline.artifact_store() {
                store.flush();
            }
            let before = counters.as_ref().map(|c| c.snapshot());
            let aggregated = Instant::now();
            outputs.push(plan.aggregate(results.map_err(err)?).map_err(err)?);
            let took = ns(aggregated);
            // Estimates run inside aggregation; they are `timing` time.
            let estimate_ns = match (&counters, before) {
                (Some(c), Some(before)) => c.snapshot().since(&before).estimate_ns,
                _ => 0,
            };
            aggregate_ns += took.saturating_sub(estimate_ns);
            stats.push(pipeline.cache_stats());
        }
        let wall = secs(start);
        if let Drive::Traced(_, layers) = drive {
            layers.open_ns += open_ns;
            layers.build_ns += build_ns;
            layers.aggregate_ns += aggregate_ns;
            layers.wall_ns += (wall * 1e9) as u64;
        }
        let mut json = String::new();
        for output in &outputs {
            json.push_str(&match output {
                PlanOutput::Ter(r) => r.to_json(),
                PlanOutput::Sweep(r) => r.to_json(),
                PlanOutput::Accuracy(r) => r.to_json(),
                PlanOutput::Dataflow(r) => r.to_json(),
            });
            json.push('\n');
        }
        Ok(Run {
            wall,
            exec,
            json,
            stats,
            outputs,
        })
    }
}

/// Runs every unit serially through [`WorkPlan::run_unit`], attributing
/// each unit's time outside the traced seams by what it computed.
fn traced_units(
    plan: &WorkPlan<'_>,
    pipeline: &ReadPipeline,
    counters: &Counters,
    layers: &mut Layers,
) -> Result<Vec<UnitResult>, read_pipeline::PipelineError> {
    let mut results = Vec::with_capacity(plan.len());
    for (index, unit) in plan.units().iter().enumerate() {
        let (seams, stats) = (counters.snapshot(), pipeline.cache_stats());
        let start = Instant::now();
        let result = plan.run_unit(index)?;
        let unit_ns = ns(start);
        let after = pipeline.cache_stats();
        let own = unit_ns.saturating_sub(counters.snapshot().since(&seams).seam_ns());
        layers.units_ns += unit_ns;
        let computed = after.unit_misses > stats.unit_misses;
        match (unit, &result) {
            (WorkUnit::Histogram { .. }, UnitResult::Histogram { hist, .. })
                if after.hist_misses > stats.hist_misses =>
            {
                layers.simulate_ns += own;
                layers.cycles += hist.total();
            }
            (WorkUnit::McShard { trial_range, .. }, _) if computed => {
                layers.mc_ns += own;
                layers.mc_trials += u64::from(trial_range.end - trial_range.start);
            }
            (WorkUnit::AccuracyPoint { .. } | WorkUnit::DataflowProbe { .. }, _) if computed => {
                layers.other_ns += own;
            }
            _ => layers.hit_ns += own,
        }
        results.push(result);
    }
    Ok(results)
}

/// Checks a warm rerun: the reference report, and nothing recomputed or
/// rewritten.
fn check_warm(run: &Run, reference: &str) -> Result<(), String> {
    same("warm report", &run.json, reference)?;
    for s in &run.stats {
        if s.misses != 0 || s.hist_misses != 0 || s.store_writes != 0 {
            return Err(format!(
                "warm rerun recomputed: schedule misses {} histogram misses {} store writes {}",
                s.misses, s.hist_misses, s.store_writes
            ));
        }
    }
    Ok(())
}

/// Checks a pass over a warm set-up store: no schedule or histogram work.
fn check_no_compute(stats: &[CacheStats]) -> Result<(), String> {
    for s in stats {
        if s.misses != 0 || s.hist_misses != 0 {
            return Err(format!(
                "schedule misses {} histogram misses {} (want 0)",
                s.misses, s.hist_misses
            ));
        }
    }
    Ok(())
}

/// The serial (`SerialExecutor`) pass run during set-up.
struct Reference {
    json: String,
    /// Host seconds of the pass, including synthesis.
    wall: f64,
    /// Its store, filled by a cold pass: warm reruns read it.
    dir: PathBuf,
    workloads: Option<Vec<LayerWorkload>>,
}

/// The shape every batch workload shares: set-up, timed passes with warm
/// reruns, and the traced pass.
struct Batch<'a> {
    args: &'a Args,
    flow: Flow,
    work: WorkDir,
    reference: Reference,
    setup_s: f64,
}

impl<'a> Batch<'a> {
    /// Finishes set-up (begun at `started`) with the serial reference pass.
    fn new(args: &'a Args, flow: Flow, work: WorkDir, started: Instant) -> Result<Self, String> {
        let dir = work.fresh("reference");
        let pass = flow.pass(&dir, Drive::Exec(&SerialExecutor))?;
        if flow.seed_store.is_some() {
            check_no_compute(&pass.run.stats)?;
        }
        let setup_s = secs(started);
        eprintln!(
            "set-up {setup_s:.3} s (serial reference {:.3} s)",
            pass.wall
        );
        Ok(Batch {
            args,
            flow,
            work,
            reference: Reference {
                json: pass.run.json,
                wall: pass.wall,
                dir,
                workloads: pass.owned,
            },
            setup_s,
        })
    }

    /// A cold pass must reproduce the reference and, over a warm set-up
    /// store, neither schedule nor simulate.
    fn verify(&self, pass: Pass) -> Result<Pass, String> {
        same("report", &pass.run.json, &self.reference.json)?;
        if self.flow.seed_store.is_some() {
            check_no_compute(&pass.run.stats)?;
        }
        Ok(pass)
    }

    /// One cluster of warm reruns: a fresh pipeline over the reference
    /// pass's store, each checked.
    fn warm_cluster(&self, executor: &dyn Executor, outcome: &mut Outcome, warms: &mut Vec<f64>) {
        let workloads = self.flow.workloads(&self.reference.workloads);
        for _ in 0..WARM_PER_CLUSTER {
            match self
                .flow
                .run(&self.reference.dir, workloads, Drive::Exec(executor))
            {
                Ok(run) => {
                    outcome.check("warm rerun", check_warm(&run, &self.reference.json));
                    warms.push(run.wall);
                }
                Err(e) => outcome.check("warm rerun", Err(e)),
            }
        }
    }

    fn measure(self) -> Result<Outcome, String> {
        if self.args.trace {
            return self.traced();
        }
        let parallel = ThreadExecutor::new(THREADS);
        let mut outcome = Outcome::default();
        let (mut walls, mut warms) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut clusters = 1;
        self.warm_cluster(&parallel, &mut outcome, &mut warms);
        for pass in 0.. {
            let dir = self.work.fresh(&format!("pass{pass}"));
            match self
                .flow
                .pass(&dir, Drive::Exec(&parallel))
                .and_then(|p| self.verify(p))
            {
                Ok(cold) => {
                    eprintln!(
                        "pass {pass}: wall {:.3} s, execute {:.3} s",
                        cold.wall, cold.run.exec
                    );
                    outcome.check("cold pass", Ok(()));
                    walls.push(cold.wall);
                }
                Err(e) => outcome.check("cold pass", Err(e)),
            }
            let _ = std::fs::remove_dir_all(&dir);
            if clusters < WARM_CLUSTERS {
                clusters += 1;
                self.warm_cluster(&parallel, &mut outcome, &mut warms);
            }
            if pass + 1 >= MIN_PASSES && secs(started) >= self.args.seconds {
                break;
            }
        }
        for _ in clusters..WARM_CLUSTERS {
            self.warm_cluster(&parallel, &mut outcome, &mut warms);
        }
        if walls.is_empty() || warms.is_empty() {
            return Err("no pass succeeded".into());
        }
        let (warm_tail, pct) = tail(&warms);
        println!(
            "cold passes {}; warm reruns {}, tail is p{pct:.0}",
            walls.len(),
            warms.len()
        );
        outcome.push("wall_s", median(&walls));
        outcome.push("setup_s", self.setup_s);
        outcome.push("warm_s", median(&warms));
        outcome.push("interactive_p50_ms", median(&warms) * 1e3);
        outcome.push("interactive_tail_ms", warm_tail * 1e3);
        outcome.push("bulk_p50_ms", median(&walls) * 1e3);
        Ok(outcome)
    }

    /// One untraced parallel pass (for executor efficiency) and one traced
    /// serial pass plus traced warm rerun; reports per-layer metrics.
    fn traced(self) -> Result<Outcome, String> {
        let mut outcome = Outcome::default();
        let parallel = ThreadExecutor::new(THREADS);
        let dir = self.work.fresh("untraced");
        let untraced = self
            .flow
            .pass(&dir, Drive::Exec(&parallel))
            .and_then(|p| self.verify(p))?;
        let _ = std::fs::remove_dir_all(&dir);
        outcome.check("untraced pass", Ok(()));

        let counters = Arc::new(Counters::default());
        let mut layers = Layers::default();
        let dir = self.work.fresh("traced");
        let cold = self
            .flow
            .pass(&dir, Drive::Traced(&counters, &mut layers))
            .and_then(|p| self.verify(p))?;
        outcome.check("traced pass", Ok(()));
        layers.synth_ns = cold.synth_ns;
        layers.wall_ns += cold.synth_ns;
        let cold_units_ns = layers.units_ns;
        let warm = self.flow.run(
            &dir,
            self.flow.workloads(&cold.owned),
            Drive::Traced(&counters, &mut layers),
        )?;
        outcome.check("traced warm rerun", check_warm(&warm, &self.reference.json));
        let _ = std::fs::remove_dir_all(&dir);

        let s = counters.snapshot();
        let l = &layers;
        let self_ns = l.synth_ns
            + l.build_ns
            + l.open_ns
            + l.aggregate_ns
            + l.simulate_ns
            + l.mc_ns
            + l.hit_ns
            + l.other_ns
            + s.seam_ns();
        let (geo, max) = cold
            .run
            .outputs
            .iter()
            .find_map(|output| match output {
                PlanOutput::Ter(r) => Some(r.ter_reduction(READ_NAME, "baseline")),
                PlanOutput::Sweep(r) => Some(r.ter_reduction(READ_NAME, "baseline")),
                _ => None,
            })
            .unwrap_or((0.0, 0.0));
        if geo > 0.0 {
            println!(
                "TER reduction READ vs baseline: geo-mean {geo:.2}x, max {max:.2}x \
                 (paper: {:.1}x, {:.1}x; synthetic weights, model unvalidated against \
                 hardware, so no error figure is claimed)",
                PAPER_TER_REDUCTION.0, PAPER_TER_REDUCTION.1
            );
        }
        if l.cycles > 0 {
            println!(
                "simulated cycles {} ({} per source) in {:.3} s host time",
                l.cycles,
                l.cycles / sources().len() as u64,
                sec(l.simulate_ns)
            );
        }
        println!(
            "traced wall {:.3} s (cold {:.3} s + warm {:.3} s); serial reference {:.3} s",
            sec(l.wall_ns),
            cold.wall,
            warm.wall,
            self.reference.wall
        );
        outcome.push("workload.synth_s", sec(l.synth_ns));
        outcome.push("read_core.schedule_s", sec(s.schedule_ns));
        outcome.push("read_core.schedule_calls", s.schedule_calls as f64);
        outcome.push("accel_sim.simulate_s", sec(l.simulate_ns));
        outcome.push("accel_sim.cycles", l.cycles as f64);
        outcome.push(
            "accel_sim.ns_per_cycle",
            ratio(l.simulate_ns as f64, l.cycles as f64),
        );
        outcome.push("timing.mc_shard_s", sec(l.mc_ns));
        outcome.push("timing.mc_trials", l.mc_trials as f64);
        outcome.push("timing.estimate_s", sec(s.estimate_ns));
        outcome.push("qnn.evaluate_s", sec(s.evaluate_ns));
        outcome.push("qnn.evaluate_calls", s.evaluate_calls as f64);
        outcome.push("plan.build_s", sec(l.build_ns));
        outcome.push("plan.aggregate_s", sec(l.aggregate_ns));
        outcome.push("cache.hit_unit_s", sec(l.hit_ns));
        outcome.push("executor.other_s", sec(l.other_ns));
        outcome.push(
            "executor.efficiency",
            ratio(sec(cold_units_ns), THREADS as f64 * untraced.run.exec),
        );
        outcome.push("store.load_s", sec(s.load_ns + l.open_ns));
        outcome.push("store.put_s", sec(s.put_ns));
        outcome.push("store.loads", s.loads as f64);
        outcome.push("store.puts", s.puts as f64);
        outcome.push("store.hit_ratio", ratio(s.load_hits as f64, s.loads as f64));
        outcome.push("trace.wall_s", sec(l.wall_ns));
        outcome.push("trace.overhead_s", cold.wall - self.reference.wall);
        outcome.push("trace.coverage", ratio(self_ns as f64, l.wall_ns as f64));
        outcome.push("model.ter_reduction_geo", geo);
        outcome.push("model.ter_reduction_max", max);
        Ok(outcome)
    }
}

/// ResNet-18 layer-wise TER from an empty store, then warm reruns.
pub fn ter_cold(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let config = WorkloadConfig {
        seed: args.seed,
        ..WorkloadConfig::default()
    };
    let flow = Flow {
        network: "resnet18",
        kinds: vec![Kind::Ter],
        workloads: Workloads::PerPass(resnet18_workloads, config),
        seed_store: None,
    };
    Batch::new(args, flow, WorkDir::new("ter_cold")?, started)?.measure()
}

/// VGG-16 workloads plus a store holding their schedules and histograms.
fn vgg16_setup(args: &Args, work: &WorkDir) -> Result<(Workloads, PathBuf), String> {
    let config = WorkloadConfig {
        seed: args.seed,
        ..WorkloadConfig::default()
    };
    let workloads = vgg16_workloads(&config);
    let seed_store = work.fresh("seed");
    let mut builder = ReadPipeline::builder()
        .store(DiskStore::new(&seed_store).map_err(err)?)
        .executor(ThreadExecutor::new(THREADS))
        .condition(OperatingCondition::ideal());
    for source in sources() {
        builder = builder.source(source);
    }
    builder
        .build()
        .map_err(err)?
        .run_ter("vgg16", &workloads)
        .map_err(err)?;
    Ok((Workloads::SetUp(workloads), seed_store))
}

/// The Fig. 9 corner sweep, then TER → BER → accuracy on the scaled VGG-16,
/// both over warm VGG-16 histograms.
///
/// Accuracy is not a workload of its own: the naive `qnn` convolution is
/// the part of the flows most sensitive to a shared host (see
/// `perfbench/README.md`), so it rides on the sweep's pass, with one unit
/// per (corner, source) cell so that two threads share it evenly.
pub fn sweep_accuracy(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let work = WorkDir::new("sweep_accuracy")?;
    let (workloads, seed_store) = vgg16_setup(args, &work)?;
    let sweep = SweepPlan::new()
        .conditions(paper_conditions())
        .typical()
        .dies([3, 4])
        .monte_carlo(256, 0xF169)
        .trials_per_shard(16);
    let mut model = models::vgg16_cifar_scaled(16, 10, 99).map_err(err)?;
    let dataset = SyntheticDatasetBuilder::new(10, [3, 32, 32])
        .samples_per_class(1)
        .noise(28.0)
        .seed(5)
        .build()
        .map_err(err)?;
    fit_classifier_head(&mut model, &dataset).map_err(err)?;
    let flow = Flow {
        network: "vgg16",
        kinds: vec![Kind::Sweep(sweep), Kind::Accuracy { model, dataset }],
        workloads,
        seed_store: Some(seed_store),
    };
    Batch::new(args, flow, work, started)?.measure()
}
