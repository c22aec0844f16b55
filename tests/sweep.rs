//! Integration tests of the corner/die sweep subsystem: the sharded sweep
//! is byte-identical to the equivalent sequence of single-corner unsharded
//! pipeline runs, the schedule cache is reused across cells, and sweeps are
//! deterministic across execution modes.
//!
//! Executor-invariance is asserted against the `Executor` strategies
//! (`SerialExecutor` / `ThreadExecutor`).

use read_repro::prelude::*;

fn tiny_workloads(n: usize) -> Vec<LayerWorkload> {
    let config = WorkloadConfig {
        pixels_per_layer: 1,
        ..WorkloadConfig::default()
    };
    vgg16_workloads(&config).into_iter().take(n).collect()
}

fn sweep_sources() -> [Algorithm; 2] {
    [
        Algorithm::Baseline,
        Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
    ]
}

fn sweep_pipeline(plan: SweepPlan, executor: impl Executor + 'static) -> ReadPipeline {
    ReadPipeline::builder()
        .source(sweep_sources()[0])
        .source(sweep_sources()[1])
        .sweep(plan)
        .executor(executor)
        .build()
        .unwrap()
}

// ---- the acceptance criterion -------------------------------------------

/// A sharded Monte-Carlo sweep must reproduce, cell for cell and byte for
/// byte, what a sequence of standalone single-condition unsharded pipeline
/// runs produces: same `LayerReport` values, same `to_json()` bytes.
#[test]
fn sharded_sweep_is_byte_identical_to_single_corner_unsharded_runs() {
    let workloads = tiny_workloads(2);
    let conditions = [
        OperatingCondition::vt(0.05),
        OperatingCondition::aging_vt(10.0, 0.05),
    ];
    let dies = [2u64, 5];
    let (trials, seed) = (24u32, 11u64);

    // The sweep: 2 conditions x (typical + 2 dies) = 6 cells, the typical
    // cells' 24 trials split into 7-trial shards (4 shards, uneven tail).
    let plan = SweepPlan::new()
        .conditions(conditions)
        .typical()
        .dies(dies)
        .monte_carlo(trials, seed)
        .trials_per_shard(7);
    let sweep = sweep_pipeline(plan, SerialExecutor)
        .run_sweep("sweep", &workloads)
        .unwrap();
    assert_eq!(sweep.cells.len(), 6);

    // The equivalent sequence of single-corner unsharded runs, in the same
    // die-major cell order.
    for (ci, cell) in sweep.cells.iter().enumerate() {
        let condition = conditions[ci % conditions.len()];
        let mut builder = ReadPipeline::builder()
            .source(sweep_sources()[0])
            .source(sweep_sources()[1])
            .condition(condition);
        builder = match ci / conditions.len() {
            0 => builder.monte_carlo(trials, seed), // unsharded
            die => builder.pe_variation(dies[die - 1]),
        };
        let single = builder
            .build()
            .unwrap()
            .run_ter("sweep", &workloads)
            .unwrap();
        assert_eq!(
            cell.rows, single.rows,
            "cell {ci} ({}/{})",
            cell.die, cell.condition
        );
        assert_eq!(
            cell.as_network_report("sweep").to_json().into_bytes(),
            single.to_json().into_bytes(),
            "cell {ci} must render byte-identically to the standalone run"
        );
    }

    // Monte-Carlo cells really were sharded; per-PE cells were not.
    assert!(sweep.cells[..2].iter().all(|c| c.shards == 4));
    assert!(sweep.cells[2..].iter().all(|c| c.shards == 1));
}

/// Changing only the shard layout never changes the report bytes.
#[test]
fn shard_layout_does_not_change_the_report() {
    let workloads = tiny_workloads(1);
    let base = SweepPlan::new()
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
        .monte_carlo(20, 3);
    let unsharded = sweep_pipeline(base.clone(), SerialExecutor)
        .run_sweep("shards", &workloads)
        .unwrap();
    for per_shard in [1u32, 3, 7, 20, 64] {
        let sharded = sweep_pipeline(base.clone().trials_per_shard(per_shard), SerialExecutor)
            .run_sweep("shards", &workloads)
            .unwrap();
        // Rows and their rendering are identical; only the recorded shard
        // count differs.
        for (a, b) in unsharded.cells.iter().zip(&sharded.cells) {
            assert_eq!(a.rows, b.rows, "trials_per_shard={per_shard}");
        }
        assert_eq!(
            unsharded.worst, sharded.worst,
            "trials_per_shard={per_shard}"
        );
    }
}

/// Serial and parallel sweeps produce byte-identical reports.
#[test]
fn parallel_sweep_equals_serial_sweep() {
    let workloads = tiny_workloads(2);
    let plan = SweepPlan::new()
        .conditions([
            OperatingCondition::ideal(),
            OperatingCondition::aging_vt(10.0, 0.05),
        ])
        .typical()
        .die(9)
        .monte_carlo(16, 2)
        .trials_per_shard(5);
    let serial = sweep_pipeline(plan.clone(), SerialExecutor)
        .run_sweep("exec", &workloads)
        .unwrap();
    let parallel = sweep_pipeline(plan, ThreadExecutor::machine())
        .run_sweep("exec", &workloads)
        .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(
        serial.to_json().into_bytes(),
        parallel.to_json().into_bytes()
    );
}

// ---- schedule/histogram-cache reuse across cells -------------------------

/// A sweep optimizes *and simulates* each (source, layer) pair exactly once
/// — histograms are corner-independent, so the whole grid reuses one
/// simulation pass per pair — and distinct-dimension workloads never
/// collide.
#[test]
fn sweep_reuses_the_schedule_and_histogram_caches_across_cells() {
    // Two workloads with distinct dimensions (64->64 vs 128->128 channels).
    let all = vgg16_workloads(&WorkloadConfig {
        pixels_per_layer: 1,
        ..WorkloadConfig::default()
    });
    let workloads: Vec<LayerWorkload> = all
        .into_iter()
        .filter(|w| ["conv1_2", "conv2_3"].contains(&w.name()))
        .collect();
    assert_eq!(workloads.len(), 2);
    assert_ne!(
        (workloads[0].weights().rows(), workloads[0].weights().cols()),
        (workloads[1].weights().rows(), workloads[1].weights().cols()),
        "the two layers must have distinct dimensions"
    );

    let plan = SweepPlan::new()
        .conditions([
            OperatingCondition::ideal(),
            OperatingCondition::vt(0.05),
            OperatingCondition::aging_vt(10.0, 0.05),
        ])
        .typical()
        .die(1)
        .monte_carlo(8, 0);
    let pipeline = sweep_pipeline(plan, SerialExecutor);
    let pairs = 2 * 2; // workloads x sources
    let mc_cells = 3; // typical-die cells carry the Monte-Carlo budget

    pipeline.run_sweep("cache", &workloads).unwrap();
    let stats = pipeline.cache_stats();
    // One optimization and one simulation pass per (source, layer) group —
    // regardless of the 6-cell grid — with zero collisions and exactly one
    // entry per group in each cache.
    assert_eq!(stats.misses, pairs as u64);
    assert_eq!(stats.collisions, 0);
    assert_eq!(stats.entries, pairs);
    assert_eq!(stats.hist_misses, pairs as u64);
    assert_eq!(stats.hist_collisions, 0);
    assert_eq!(stats.hist_entries, pairs);
    // Monte-Carlo shard units re-read every pair's histogram from the cache.
    assert_eq!(stats.hist_hits, (mc_cells * pairs) as u64);
    // Each Monte-Carlo cell's single shard was executed fresh and memoized.
    assert_eq!(stats.unit_misses, mc_cells as u64);
    assert_eq!(stats.unit_hits, 0);
    assert_eq!(stats.unit_entries, mc_cells);

    // A second sweep on the same pipeline computes nothing fresh: histogram
    // units hit the histogram cache, and the Monte-Carlo shards are served
    // whole from the unit cache (so they no longer even re-read the
    // per-pair histograms).
    pipeline.run_sweep("cache", &workloads).unwrap();
    let again = pipeline.cache_stats();
    assert_eq!(again.misses, stats.misses);
    assert_eq!(again.hist_misses, stats.hist_misses);
    assert_eq!(again.unit_misses, stats.unit_misses);
    assert_eq!(again.hist_hits, stats.hist_hits + pairs as u64);
    assert_eq!(again.unit_hits, mc_cells as u64);
    assert_eq!(again.collisions, 0);
    assert_eq!(again.hist_collisions, 0);
    assert_eq!(again.unit_collisions, 0);
}

// ---- plan plumbing ------------------------------------------------------

#[test]
fn run_sweep_requires_a_configured_plan() {
    let pipeline = ReadPipeline::builder()
        .baseline()
        .condition(OperatingCondition::ideal())
        .build()
        .unwrap();
    let err = pipeline.run_sweep("none", &tiny_workloads(1)).unwrap_err();
    assert!(
        matches!(err, PipelineError::Missing { what: "sweep plan" }),
        "{err}"
    );
    // The same pipeline with a plan configured runs it.
    let report = ReadPipeline::builder()
        .baseline()
        .condition(OperatingCondition::ideal())
        .sweep(SweepPlan::new().condition(OperatingCondition::ideal()))
        .build()
        .unwrap()
        .run_sweep("adhoc", &tiny_workloads(1))
        .unwrap();
    assert_eq!(report.cells.len(), 1);
    assert_eq!(report.cells[0].error_model, "delay-model");
}

#[test]
fn sweep_only_pipelines_build_without_conditions() {
    let plan = SweepPlan::new().conditions(paper_conditions()).dies([1]);
    let pipeline = ReadPipeline::builder()
        .baseline()
        .sweep(plan)
        .build()
        .unwrap();
    let report = pipeline
        .run_sweep("no-conditions", &tiny_workloads(1))
        .unwrap();
    assert_eq!(report.cells.len(), 6);
    assert!(report
        .cells
        .iter()
        .all(|c| c.die == "pe-var[16x4,seed=1]" && c.error_model == "pe-var[16x4,seed=1]"));
    // An invalid plan is rejected at build time.
    let err = ReadPipeline::builder()
        .baseline()
        .sweep(SweepPlan::new())
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("sweep plan"), "{err}");
}

/// A sweep-only pipeline has no conditions of its own: the single-condition
/// experiments must refuse to run rather than return an empty report.
#[test]
fn sweep_only_pipelines_reject_condition_experiments() {
    let plan = SweepPlan::new().condition(OperatingCondition::ideal());
    let pipeline = ReadPipeline::builder()
        .baseline()
        .sweep(plan)
        .build()
        .unwrap();
    let workloads = tiny_workloads(1);
    let err = pipeline.run_ter("no-conditions", &workloads).unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::Missing {
                what: "operating conditions"
            }
        ),
        "{err}"
    );
    let dataset = read_repro::qnn::SyntheticDatasetBuilder::new(2, [3, 8, 8])
        .samples_per_class(1)
        .build()
        .unwrap();
    let model = read_repro::qnn::models::vgg11_cifar_scaled(8, 2, 1).unwrap();
    let err = pipeline
        .run_accuracy_for(&model, "no-conditions", &dataset, &workloads, 1)
        .unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::Missing {
                what: "operating conditions"
            }
        ),
        "{err}"
    );
    // The sweep itself still runs.
    assert_eq!(pipeline.run_sweep("ok", &workloads).unwrap().cells.len(), 1);
}

#[test]
fn sweep_summary_and_curves_read_off_the_grid() {
    let workloads = tiny_workloads(1);
    let plan = SweepPlan::new().conditions(paper_conditions());
    let sweep = sweep_pipeline(plan, SerialExecutor)
        .run_sweep("summary", &workloads)
        .unwrap();

    // Worst case per algorithm, in source order: the stressed corner wins.
    assert_eq!(sweep.worst.len(), 2);
    assert_eq!(sweep.worst[0].algorithm, "baseline");
    assert_eq!(sweep.worst[0].condition, "Aging&VT-5%");
    assert!(sweep.worst[0].ter >= sweep.worst[1].ter);
    assert_eq!(
        sweep.worst_case("baseline").unwrap().ter,
        sweep.worst[0].ter
    );

    // The TER-vs-corner curve is monotone from Ideal to the worst corner
    // for the monotone paper conditions.
    let curve: Vec<f64> = sweep
        .ter_curve(workloads[0].name(), "baseline")
        .map(|(_, ter)| ter)
        .collect();
    assert_eq!(curve.len(), 6);
    assert!(curve[5] >= curve[0]);
    assert_eq!(curve[5], sweep.worst[0].ter);

    // Cell lookup is (die, condition)-keyed.
    let cell = sweep.cell("typical", "Aging&VT-5%").unwrap();
    assert_eq!(cell.rows.len(), 2);
    assert!(sweep.cell("typical", "nope").is_none());
}
