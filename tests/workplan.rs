//! Integration tests of the WorkPlan/Executor layer: the wire encoding is
//! pinned by a golden fixture, any partition and permutation of unit
//! results re-aggregates byte-identically, the serve loop answers the wire
//! protocol, and — the acceptance criterion — a sweep executed across
//! worker *processes* renders byte-identically to the serial in-process
//! run.
//!
//! The worker side of the subprocess tests is this very test binary:
//! re-invoked with `--exact shard_worker_entry` and the
//! `READ_WORKPLAN_WORKER` environment variable set, the entry test
//! reconstructs the same pipeline and plan and serves stdin/stdout.  The
//! driver skips what a worker prints before its handshake reply, such as
//! the libtest harness banner, so the protocol runs cleanly inside the
//! harness.

use std::io::{BufReader, Cursor};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use read_repro::prelude::*;

// ---- shared fixture -----------------------------------------------------

fn tiny_workloads(n: usize) -> Vec<LayerWorkload> {
    let config = WorkloadConfig {
        pixels_per_layer: 1,
        ..WorkloadConfig::default()
    };
    vgg16_workloads(&config).into_iter().take(n).collect()
}

/// The experiment the subprocess driver and its workers both reconstruct.
fn worker_sweep_plan() -> SweepPlan {
    SweepPlan::new()
        .conditions([
            OperatingCondition::vt(0.05),
            OperatingCondition::aging_vt(10.0, 0.05),
        ])
        .typical()
        .die(5)
        .monte_carlo(24, 11)
        .trials_per_shard(7)
}

fn worker_builder() -> ReadPipelineBuilder {
    ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .sweep(worker_sweep_plan())
}

const WORKER_NETWORK: &str = "workplan-subprocess";
const WORKER_ENV: &str = "READ_WORKPLAN_WORKER";
/// A marker path: the first worker to create it crashes mid-stream.
const WORKER_MARKER_ENV: &str = "READ_WORKPLAN_WORKER_MARKER";
/// An exit code the worker exits with after serving its whole session.
const WORKER_EXIT_ENV: &str = "READ_WORKPLAN_WORKER_EXIT";

/// Worker entry point: a no-op under a normal `cargo test` run; the wire
/// server when the driver re-invokes this binary with `READ_WORKPLAN_WORKER`
/// set.  Two optional faults: with `READ_WORKPLAN_WORKER_MARKER` set, the
/// first worker to create the marker file crashes after one unit and the
/// others start serving 1 s late, so the crashed one had a full window;
/// with `READ_WORKPLAN_WORKER_EXIT` set, the worker serves every unit and
/// then exits with that code.
#[test]
fn shard_worker_entry() {
    if std::env::var(WORKER_ENV).is_err() {
        return;
    }
    let pipeline = worker_builder().build().expect("worker pipeline");
    let workloads = tiny_workloads(2);
    let plan = pipeline
        .plan_sweep(WORKER_NETWORK, &workloads)
        .expect("worker plan");
    let mut stdout = std::io::stdout().lock();
    // The libtest banner (`test shard_worker_entry ... `) has no trailing
    // newline; emit one so the first protocol line starts a fresh line.
    use std::io::Write as _;
    writeln!(stdout).expect("stdout newline");
    if let Ok(marker) = std::env::var(WORKER_MARKER_ENV) {
        let first = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(marker)
            .is_ok();
        if first {
            serve_one_unit_then_crash(&plan, &mut stdout);
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
    plan.serve(BufReader::new(std::io::stdin()), &mut stdout)
        .expect("serve stdio");
    if let Ok(code) = std::env::var(WORKER_EXIT_ENV) {
        std::process::exit(code.parse().expect("exit code"));
    }
}

/// Serves the `window=` handshake and one unit from stdin, then writes a
/// diagnostic to stderr and exits 7 mid-stream, as a crashed worker would.
fn serve_one_unit_then_crash(plan: &WorkPlan<'_>, stdout: &mut impl std::io::Write) -> ! {
    use std::io::{BufRead as _, Write as _};
    // One line at a time: the driver sends units only after the handshake
    // reply.
    for line in BufReader::new(std::io::stdin()).lines().take(2) {
        let line = line.expect("stdin line");
        plan.serve(Cursor::new(line), &mut *stdout)
            .expect("serve stdio");
    }
    // Write stderr directly (as `plan.serve` does for stdout): `eprintln!`
    // would be captured by the libtest harness and never reach the driver.
    let mut stderr = std::io::stderr().lock();
    writeln!(stderr, "injected fault: worker abandoning its stream").expect("stderr line");
    stderr.flush().expect("flush stderr");
    std::process::exit(7);
}

// ---- the acceptance criterion -------------------------------------------

/// A sweep executed via `SubprocessExecutor` with two worker processes
/// produces a `SweepReport::to_json()` byte-identical to the same plan run
/// on `SerialExecutor`.
#[test]
fn subprocess_sweep_is_byte_identical_to_serial() {
    let workloads = tiny_workloads(2);
    let serial = worker_builder()
        .executor(SerialExecutor)
        .build()
        .unwrap()
        .run_sweep(WORKER_NETWORK, &workloads)
        .unwrap();

    let exe = std::env::current_exe().expect("test binary path");
    let subprocess = SubprocessExecutor::new(exe)
        .args(["shard_worker_entry", "--exact", "--quiet"])
        .env(WORKER_ENV, "1")
        .workers(2);
    assert_eq!(subprocess.worker_count(), 2);
    let distributed = worker_builder()
        .executor(subprocess)
        .build()
        .unwrap()
        .run_sweep(WORKER_NETWORK, &workloads)
        .unwrap();

    assert_eq!(serial, distributed);
    assert_eq!(
        serial.to_json().into_bytes(),
        distributed.to_json().into_bytes(),
        "two worker processes must re-aggregate to the serial bytes"
    );
}

// ---- golden wire-encoding snapshot --------------------------------------

/// The units and results whose encodings the fixture pins.
fn wire_examples() -> (Vec<WorkUnit>, Vec<UnitResult>) {
    let units = vec![
        WorkUnit::Histogram { cell: 0, pair: 7 },
        WorkUnit::McShard {
            cell: 3,
            trial_range: 8..24,
        },
        WorkUnit::AccuracyPoint { cell: 5 },
        WorkUnit::DataflowProbe { cell: 4 },
    ];
    let results = vec![
        UnitResult::Histogram {
            cell: 0,
            pair: 2,
            hist: DepthHistogram::from_parts(&[10, 0, 3, 0, 2], 4, 15).unwrap(),
        },
        UnitResult::McShard {
            cell: 1,
            trial_range: 4..7,
            ters: vec![
                vec![1.25e-7, 0.0, 3.5e-4],
                vec![2.220446049250313e-16, 1.0, 0.125],
            ],
        },
        UnitResult::Accuracy {
            cell: 9,
            point: AccuracyPoint {
                condition: "Aging&VT-5% margin".into(),
                algorithm: "cluster-then-reorder[sign_first]".into(),
                top1: 0.75,
                topk: 0.9375,
                k: 3,
                mean_ber: 3.2e-5,
                seeds: 4,
            },
        },
        UnitResult::DataflowProbe {
            cell: 4,
            report: DataflowReport {
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
            },
        },
    ];
    (units, results)
}

/// The unit-id/unit-result wire encoding is a stable contract: every line
/// of `tests/fixtures/work_units.txt` must match the current encoder byte
/// for byte, and decode back to the same value.
#[test]
fn wire_encoding_matches_the_golden_fixture() {
    let (units, results) = wire_examples();
    let rendered: Vec<String> = units
        .iter()
        .map(WorkUnit::encode)
        .chain(results.iter().map(UnitResult::encode))
        .collect();
    let actual = rendered.join("\n");
    let expected = include_str!("fixtures/work_units.txt")
        .trim_end_matches('\n')
        .to_string();
    assert_eq!(
        actual, expected,
        "\n--- wire-encoding fixture mismatch; actual encoding: ---\n{actual}\n---"
    );

    // Every fixture line decodes back to the exact original value.
    let lines: Vec<&str> = expected.lines().collect();
    for (unit, line) in units.iter().zip(&lines[..units.len()]) {
        assert_eq!(&WorkUnit::decode(line).unwrap(), unit, "{line}");
    }
    for (result, line) in results.iter().zip(&lines[units.len()..]) {
        assert_eq!(&UnitResult::decode(line).unwrap(), result, "{line}");
    }
}

// ---- plan signatures -----------------------------------------------------

/// Stage part of every pinned signature: the paper array, the default
/// dataflow and simulation options, the default error model and evaluator.
const STAGES: &str = "array=16x4 dataflow=OutputStationary \
    sim=SimOptions { max_pixels: None, seed: 12648430 } sources=baseline:f37ca99ea5888162";
const STAGE_MODELS: &str = "error=delay-model:87824bee7f4df69b eval=top-3:58d8b3576f3f84c1";
const VT5: &str = "OperatingCondition { name: \"VT-5%\", vt_fluctuation: 0.05, \
    aging_years: 0.0, vt_delay_sensitivity: 2.0, aging_model: AgingModel { k: 0.04, n: 0.16 } }";

/// A plan signature keys every memoized unit result in a persisted store,
/// so a change that moves one turns those stores cold, and a change that
/// should move one but does not serves stale results.  One small plan of
/// each kind, byte for byte.
#[test]
fn plan_signatures_are_pinned() {
    let workloads = tiny_workloads(2);
    let conv1_1 = "workloads=conv1_1:314b8bf56f8934f0";

    let ter = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
        .build()
        .unwrap();
    let plan = ter.plan_ter("pin", &workloads[..1]).unwrap();
    assert_eq!(
        plan.signature(),
        format!(
            "{STAGES};cluster-then-reorder[sign_first]:b7656d64038c3c86 {STAGE_MODELS} \
             {conv1_1} kind=ter"
        )
    );

    let sweep = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .sweep(
            SweepPlan::new()
                .condition(OperatingCondition::vt(0.05))
                .typical()
                .die(5)
                .monte_carlo(24, 11)
                .trials_per_shard(8),
        )
        .build()
        .unwrap();
    let plan = sweep.plan_sweep("pin", &workloads[..1]).unwrap();
    assert_eq!(
        plan.signature(),
        format!(
            "{STAGES} {STAGE_MODELS} {conv1_1} kind=sweep \
             grid=OperatingCorner {{ condition: {VT5}, variation: Typical }}|d3d66c52e527dfb2;\
             OperatingCorner {{ condition: {VT5}, variation: PerPe {{ rows: 16, cols: 4, seed: 5 }} }}\
             |55a1a540aeaaec2a"
        )
    );

    let model = qnn::models::vgg11_cifar_scaled(8, 4, 3).unwrap();
    let dataset = SyntheticDatasetBuilder::new(4, [3, 16, 16])
        .samples_per_class(1)
        .seed(11)
        .build()
        .unwrap();
    let accuracy = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
        .build()
        .unwrap();
    let plan = accuracy
        .plan_accuracy_for(&model, "pin", &dataset, &workloads, 2)
        .unwrap();
    assert_eq!(
        plan.signature(),
        format!(
            "{STAGES} {STAGE_MODELS} {conv1_1};conv1_2:fc44a28bf4a409bc kind=acc \
             model=a9ef1b1b71d23cb8 dataset=ab7cd6c9f6f2dc7b seeds=2 \
             conds=OperatingCondition {{ name: \"Aging&VT-5%\", vt_fluctuation: 0.05, \
             aging_years: 10.0, vt_delay_sensitivity: 2.0, \
             aging_model: AgingModel {{ k: 0.04, n: 0.16 }} }}"
        )
    );

    let dataflow = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .condition(OperatingCondition::ideal())
        .build()
        .unwrap();
    let plan = dataflow.plan_dataflow("pin", &workloads[..1]).unwrap();
    assert_eq!(
        plan.signature(),
        format!(
            "{STAGES} {STAGE_MODELS} {conv1_1} kind=dflow prober=event-engine:db9026709df9390e \
             dataflows=output-stationary;weight-stationary"
        )
    );
}

// ---- partition/permutation invariance (property test) --------------------

/// Deterministic case generator over the workspace's seeded RNG shim.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(StdRng::seed_from_u64(seed))
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0.gen_range(lo..hi)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i + 1));
        }
    }
}

/// Any partition of a plan's unit range across executors, with the combined
/// results arbitrarily permuted before aggregation, re-aggregates to a
/// report byte-identical to the serial full-range run.
#[test]
fn any_partition_and_permutation_reaggregates_byte_identically() {
    let workloads = tiny_workloads(2);
    let pipeline = worker_builder().build().unwrap();
    let plan = pipeline.plan_sweep("partition", &workloads).unwrap();
    // 4 histogram pairs + 2 Monte-Carlo cells x 4 shards.
    assert_eq!(plan.units().len(), 4 + 2 * 4);
    let reference = pipeline
        .run_plan(&plan)
        .unwrap()
        .into_sweep()
        .unwrap()
        .to_json();

    let executors: [&dyn Executor; 2] = [&SerialExecutor, &ThreadExecutor { threads: 2 }];
    let mut gen = Gen::new(0x9A27);
    for case in 0..8 {
        // Random partition of 0..len into contiguous chunks, each executed
        // by a randomly-chosen executor.
        let mut results = Vec::new();
        let mut lo = 0usize;
        while lo < plan.len() {
            let hi = gen.range(lo + 1, plan.len() + 2).min(plan.len());
            let executor = executors[gen.range(0, executors.len())];
            results.extend(executor.execute(&plan, lo..hi).unwrap());
            lo = hi;
        }
        // Arbitrary permutation of all results before aggregation.
        gen.shuffle(&mut results);
        let report = plan.aggregate(results).unwrap().into_sweep().unwrap();
        assert_eq!(report.to_json(), reference, "case {case}");
    }
}

/// TER and accuracy plans run through the thread executor aggregate to the
/// serial bytes too (the sweep case is covered above).
#[test]
fn ter_plan_is_executor_invariant() {
    let workloads = tiny_workloads(2);
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .conditions(paper_conditions())
        .build()
        .unwrap();
    let plan = pipeline.plan_ter("exec-invariant", &workloads).unwrap();
    assert_eq!(plan.units().len(), 4, "one histogram unit per pair");
    let serial = SerialExecutor.execute(&plan, 0..plan.len()).unwrap();
    let threaded = ThreadExecutor::machine()
        .execute(&plan, 0..plan.len())
        .unwrap();
    let a = plan.aggregate(serial).unwrap().into_ter().unwrap();
    let b = plan.aggregate(threaded).unwrap().into_ter().unwrap();
    assert_eq!(a.to_json().into_bytes(), b.to_json().into_bytes());
    // And the pipeline's own run_ter is the same plan-execute-aggregate.
    assert_eq!(
        pipeline
            .run_ter("exec-invariant", &workloads)
            .unwrap()
            .to_json(),
        a.to_json()
    );
}

/// A dataflow-probe plan executes on any executor — including worker
/// subprocesses speaking the wire protocol — and re-aggregates to the
/// serial bytes; with a shared artifact store, a second pipeline aggregates
/// the memoized probe results without running the event engine at all.
#[test]
fn dataflow_plan_is_executor_invariant_and_store_memoized() {
    let workloads = tiny_workloads(2);
    let build = || {
        ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
            .sweep(worker_sweep_plan())
    };
    let pipeline = build().build().unwrap();
    let plan = pipeline.plan_dataflow(WORKER_NETWORK, &workloads).unwrap();
    assert_eq!(
        plan.units().len(),
        2 * 4,
        "one probe per (dataflow, workload, source) cell"
    );
    let reference = pipeline
        .run_plan(&plan)
        .unwrap()
        .into_dataflow()
        .unwrap()
        .to_json();

    // Threads and worker subprocesses re-aggregate byte-identically.  The
    // worker entry reconstructs a *sweep* plan, but probe units memoize on
    // the plan signature + unit id, and `serve` answers any decodable unit
    // of its own plan — so drive the workers through an explicitly
    // reconstructed dataflow plan instead.
    let threaded = ThreadExecutor::new(2)
        .execute(&plan, 0..plan.len())
        .unwrap();
    let report = plan.aggregate(threaded).unwrap().into_dataflow().unwrap();
    assert_eq!(report.to_json(), reference);

    // A shared store hands the second pipeline every probe result: zero
    // fresh unit computations, byte-identical report.
    let store: std::sync::Arc<dyn ArtifactStore> = std::sync::Arc::new(MemoryStore::new());
    let first = build()
        .store_arc(std::sync::Arc::clone(&store))
        .build()
        .unwrap();
    let cold = first.run_dataflow("stored", &workloads).unwrap();
    assert!(first.cache_stats().unit_misses >= 8);
    let second = build()
        .store_arc(std::sync::Arc::clone(&store))
        .build()
        .unwrap();
    let warm = second.run_dataflow("stored", &workloads).unwrap();
    let warm_stats = second.cache_stats();
    assert_eq!(
        warm_stats.unit_misses, 0,
        "all probes answered by the store"
    );
    assert!(warm_stats.disk_hits >= 8);
    assert_eq!(cold.to_json(), warm.to_json());
}

/// The serve loop answers dataflow-probe units over the wire like any other
/// unit kind: encoded results decode and aggregate to the serial report.
#[test]
fn serve_answers_dataflow_probe_units() {
    let workloads = tiny_workloads(1);
    let pipeline = worker_builder().build().unwrap();
    let plan = pipeline.plan_dataflow("serve-dflow", &workloads).unwrap();
    let mut request = String::new();
    for unit in plan.units() {
        request.push_str(&unit.encode());
        request.push('\n');
    }
    let mut response = Vec::new();
    plan.serve(Cursor::new(request), &mut response).unwrap();
    let results: Vec<UnitResult> = String::from_utf8(response)
        .unwrap()
        .lines()
        .map(|line| UnitResult::decode(line).unwrap())
        .collect();
    assert_eq!(results.len(), plan.units().len());
    let report = plan.aggregate(results).unwrap().into_dataflow().unwrap();
    let reference = pipeline.run_dataflow("serve-dflow", &workloads).unwrap();
    assert_eq!(report.to_json(), reference.to_json());
}

// ---- the serve loop ------------------------------------------------------

/// `WorkPlan::serve` answers encoded unit ids with encoded results that
/// aggregate to the serial report; unknown ids are answered in-band with a
/// `!` failure line.
#[test]
fn serve_answers_the_wire_protocol_in_memory() {
    let workloads = tiny_workloads(1);
    let pipeline = worker_builder().build().unwrap();
    let plan = pipeline.plan_sweep("serve", &workloads).unwrap();

    // The window handshake (the grant is capped at 1024), every unit, plus
    // junk the server must answer with '!'.
    let mut request = String::from("window=4096\n");
    for unit in plan.units() {
        request.push_str(&unit.encode());
        request.push('\n');
    }
    request.push_str("hist cell=0 pair=999\n"); // not part of the plan
    request.push_str("window=0\n"); // not a window
    request.push('\n'); // blank lines are skipped

    let mut response = Vec::new();
    plan.serve(Cursor::new(request), &mut response).unwrap();
    let response = String::from_utf8(response).unwrap();

    let mut lines = response.lines();
    assert_eq!(lines.next(), Some("ok window=1024"));
    let mut results = Vec::new();
    let mut failures = 0;
    for line in lines {
        if line.starts_with('!') {
            failures += 1;
            continue;
        }
        results.push(UnitResult::decode(line).unwrap());
    }
    assert_eq!(
        failures, 2,
        "the out-of-plan unit and the bad window line are refused in-band"
    );
    assert_eq!(results.len(), plan.units().len());
    let report = plan.aggregate(results).unwrap().into_sweep().unwrap();
    let reference = pipeline.run_sweep("serve", &workloads).unwrap();
    assert_eq!(report.to_json(), reference.to_json());
}

// ---- aggregation strictness ---------------------------------------------

/// Missing, duplicate and gapped results are detected rather than misfolded.
#[test]
fn aggregator_rejects_missing_duplicate_and_gapped_results() {
    let workloads = tiny_workloads(1);
    let pipeline = worker_builder().build().unwrap();
    let plan = pipeline.plan_sweep("strict", &workloads).unwrap();
    let results = SerialExecutor.execute(&plan, 0..plan.len()).unwrap();

    // Missing: drop the last Monte-Carlo shard.
    let missing: Vec<UnitResult> = results[..results.len() - 1].to_vec();
    let err = plan.aggregate(missing).unwrap_err();
    assert!(matches!(err, PipelineError::Exec { .. }), "{err}");

    // Duplicate: push a histogram result twice.
    let mut duplicated = results.clone();
    duplicated.push(results[0].clone());
    let err = plan.aggregate(duplicated).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");

    // A shard labeled with a non-Monte-Carlo cell (the grid is die-major,
    // so cell 2 is the per-PE die at the first condition) is refused at
    // push, never silently dropped.
    let mut mislabeled = results.clone();
    mislabeled.push(UnitResult::McShard {
        cell: 2,
        trial_range: 0..1,
        ters: vec![vec![0.0]; plan.pairs()],
    });
    let err = plan.aggregate(mislabeled).unwrap_err();
    assert!(err.to_string().contains("not a"), "{err}");

    // An accuracy result has no place in a sweep plan at all.
    let mut foreign = results.clone();
    foreign.push(UnitResult::Accuracy {
        cell: 0,
        point: AccuracyPoint {
            condition: "Ideal".into(),
            algorithm: "baseline".into(),
            top1: 1.0,
            topk: 1.0,
            k: 3,
            mean_ber: 0.0,
            seeds: 1,
        },
    });
    let err = plan.aggregate(foreign).unwrap_err();
    assert!(err.to_string().contains("not part"), "{err}");

    // A wrong-kind output conversion is refused.
    let output = plan.aggregate(results).unwrap();
    assert!(output.into_ter().is_err());
}

// ---- failure paths: worker death and flaky transport ---------------------

const WORKER_DIE_ENV: &str = "READ_WORKPLAN_WORKER_DIE";

/// Worker entry point for the death regression: serves exactly one unit,
/// then writes a diagnostic to stderr and exits 7 mid-stream, as a crashed
/// worker would.  A no-op under a normal `cargo test` run.
#[test]
fn dying_worker_entry() {
    if std::env::var(WORKER_DIE_ENV).is_err() {
        return;
    }
    let pipeline = worker_builder().build().expect("worker pipeline");
    let workloads = tiny_workloads(2);
    let plan = pipeline
        .plan_sweep(WORKER_NETWORK, &workloads)
        .expect("worker plan");
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout).expect("stdout newline");
    serve_one_unit_then_crash(&plan, &mut stdout);
}

/// Regression (failure-path sweep): a worker process that exits mid-stream
/// surfaces as a `PipelineError` carrying its exit status and captured
/// stderr — not a panic, a hang, or a silently short report.
#[test]
fn worker_death_mid_stream_surfaces_status_and_stderr() {
    let workloads = tiny_workloads(2);
    let exe = std::env::current_exe().expect("test binary path");
    let subprocess = SubprocessExecutor::new(exe)
        .args(["dying_worker_entry", "--exact", "--quiet"])
        .env(WORKER_DIE_ENV, "1")
        .workers(1);
    let err = worker_builder()
        .executor(subprocess)
        .build()
        .unwrap()
        .run_sweep(WORKER_NETWORK, &workloads)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("worker exited with") && msg.contains("7"),
        "error must carry the worker's exit status: {msg}"
    );
    assert!(
        msg.contains("injected fault: worker abandoning its stream"),
        "error must carry the worker's stderr: {msg}"
    );
}

/// A worker process that crashes mid-stream with a full window in flight
/// loses its units to the surviving worker, not the run: the report is
/// byte-identical to serial, and the death and the retries are counted.
#[test]
fn subprocess_worker_death_requeues_onto_the_survivor() {
    let workloads = tiny_workloads(2);
    let serial = worker_builder()
        .executor(SerialExecutor)
        .build()
        .unwrap()
        .run_sweep(WORKER_NETWORK, &workloads)
        .unwrap();

    let marker =
        std::env::temp_dir().join(format!("read-workplan-crash-marker-{}", std::process::id()));
    let _ = std::fs::remove_file(&marker);
    let exe = std::env::current_exe().expect("test binary path");
    let subprocess = SubprocessExecutor::new(exe)
        .args(["shard_worker_entry", "--exact", "--quiet"])
        .env(WORKER_ENV, "1")
        .env(WORKER_MARKER_ENV, marker.display().to_string())
        .workers(2);
    let stats = subprocess.stats();
    let distributed = worker_builder()
        .executor(subprocess)
        .build()
        .unwrap()
        .run_sweep(WORKER_NETWORK, &workloads);
    let _ = std::fs::remove_file(&marker);
    let distributed = distributed.unwrap();

    assert_eq!(
        serial.to_json().into_bytes(),
        distributed.to_json().into_bytes(),
        "a crashed worker's units must re-aggregate to the serial bytes"
    );
    assert!(
        stats.worker_deaths() >= 1,
        "the crashed worker must be counted"
    );
    assert!(
        stats.retried_units() >= 1,
        "its in-flight units must have been retried on the survivor"
    );
}

/// A worker that answers every unit it took and then exits non-zero fails
/// the run with that status: the exit status is how in-worker asserts
/// report.
#[test]
fn subprocess_worker_exiting_nonzero_after_its_session_fails_the_run() {
    let workloads = tiny_workloads(2);
    let exe = std::env::current_exe().expect("test binary path");
    let subprocess = SubprocessExecutor::new(exe)
        .args(["shard_worker_entry", "--exact", "--quiet"])
        .env(WORKER_ENV, "1")
        .env(WORKER_EXIT_ENV, "3")
        .workers(2);
    let err = worker_builder()
        .executor(subprocess)
        .build()
        .unwrap()
        .run_sweep(WORKER_NETWORK, &workloads)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("worker exited with exit status: 3"),
        "error must carry the worker's exit status: {msg}"
    );
}

/// `FlakyExecutor` as a transport-fault model: pure reordering still
/// aggregates byte-identically to serial (over threads and over worker
/// processes), while any dropped or duplicated result makes aggregation
/// fail loudly — a perturbed run can never produce a silently wrong
/// report.
#[test]
fn flaky_transport_reaggregates_or_fails_loudly() {
    let workloads = tiny_workloads(2);
    let pipeline = worker_builder().build().unwrap();
    let plan = pipeline.plan_sweep(WORKER_NETWORK, &workloads).unwrap();
    let reference = pipeline
        .run_plan(&plan)
        .unwrap()
        .into_sweep()
        .unwrap()
        .to_json();

    // Reorder-only over an in-process pool and over worker processes.
    let exe = std::env::current_exe().expect("test binary path");
    let subprocess = SubprocessExecutor::new(exe)
        .args(["shard_worker_entry", "--exact", "--quiet"])
        .env(WORKER_ENV, "1")
        .workers(2);
    let shuffled: Vec<Box<dyn Executor>> = vec![
        Box::new(FlakyExecutor::new(ThreadExecutor::new(2), 5).shuffle(true)),
        Box::new(FlakyExecutor::new(subprocess, 6).shuffle(true)),
    ];
    for executor in &shuffled {
        let results = executor.execute(&plan, 0..plan.len()).unwrap();
        let report = plan.aggregate(results).unwrap().into_sweep().unwrap();
        assert_eq!(report.to_json(), reference, "{}", executor.name());
    }

    // Lossy transport: every perturbed run must be *rejected*, and every
    // clean run must still match the reference bytes.
    let mut perturbed = 0;
    for seed in 0..24u64 {
        let flaky = FlakyExecutor::new(SerialExecutor, seed)
            .drop_per_mille(120)
            .duplicate_per_mille(120)
            .shuffle(true);
        let results = flaky.execute(&plan, 0..plan.len()).unwrap();
        let lossy = flaky.dropped() > 0 || flaky.duplicated() > 0;
        match plan.aggregate(results) {
            Ok(output) => {
                assert!(!lossy, "seed {seed}: a lossy result set must not aggregate");
                assert_eq!(output.into_sweep().unwrap().to_json(), reference);
            }
            Err(err) => {
                assert!(lossy, "seed {seed}: a clean result set was rejected: {err}");
                perturbed += 1;
            }
        }
    }
    assert!(perturbed > 0, "injection rates never perturbed a run");
}
