//! Multi-process sweep driver: run a corner/die sweep through
//! `SubprocessExecutor` with two worker processes sharing an on-disk
//! artifact store, and assert that the resulting `SweepReport` JSON is
//! byte-identical to the serial in-process run.
//!
//! The binary is its own worker: re-invoked with `--worker` it reconstructs
//! the identical pipeline and plan, then answers the unit-id/unit-result
//! wire protocol on stdin/stdout (`WorkPlan::serve`).  That is the whole
//! pattern a real distribution backend needs — workers only ever see unit
//! ids, and the driver's aggregator folds their self-identifying results
//! back in canonical order.
//!
//! The shared `DiskStore` closes the cold-worker gap: the driver's serial
//! run warms the store, so neither worker optimizes a single schedule or
//! simulates a single histogram — each worker asserts that itself via
//! `CacheStats` before exiting.
//!
//! Run with: `cargo run --release --example shard_worker`

use std::io::{self, BufReader};
use std::path::PathBuf;

use read_repro::prelude::*;

/// The experiment both the driver and every worker reconstruct: identical
/// configuration ⇒ identical plans ⇒ interchangeable unit results (and
/// identical artifact-store keys).
fn workloads() -> Vec<LayerWorkload> {
    let config = WorkloadConfig {
        pixels_per_layer: 1,
        ..WorkloadConfig::default()
    };
    vgg16_workloads(&config)
        .into_iter()
        .filter(|w| ["conv1_2", "conv3_5"].contains(&w.name()))
        .collect()
}

fn sweep_plan() -> SweepPlan {
    SweepPlan::new()
        .conditions([
            OperatingCondition::vt(0.05),
            OperatingCondition::aging_vt(10.0, 0.05),
        ])
        .typical()
        .die(3)
        .monte_carlo(32, 7)
        .trials_per_shard(8)
}

fn builder() -> ReadPipelineBuilder {
    ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .sweep(sweep_plan())
}

const NETWORK: &str = "vgg16-sharded";
/// Environment variable carrying the shared store directory to workers.
const STORE_DIR_ENV: &str = "READ_SHARD_STORE_DIR";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().any(|a| a == "--worker") {
        return worker();
    }
    driver()
}

/// Worker mode: serve the wire protocol over the shared store until the
/// driver closes stdin, then prove the store made this worker's caches
/// warm from the first unit on.
fn worker() -> Result<(), Box<dyn std::error::Error>> {
    let store_dir = std::env::var(STORE_DIR_ENV)?;
    let pipeline = builder().store(DiskStore::new(store_dir)?).build()?;
    let workloads = workloads();
    let plan = pipeline.plan_sweep(NETWORK, &workloads)?;
    plan.serve(BufReader::new(io::stdin()), &mut io::stdout())?;
    // The driver warmed the store: this worker must have computed nothing
    // fresh — the duplicated-optimization-across-workers gap is closed.
    let stats = pipeline.cache_stats();
    assert_eq!(
        stats.misses, 0,
        "worker optimized a schedule despite the store"
    );
    assert_eq!(
        stats.hist_misses, 0,
        "worker simulated a histogram despite the store"
    );
    assert_eq!(
        stats.unit_misses, 0,
        "worker executed a unit fresh despite the store"
    );
    Ok(())
}

/// Driver mode: serial run warming the shared store, then the same plan
/// across two worker processes pointed at it.
fn driver() -> Result<(), Box<dyn std::error::Error>> {
    let workloads = workloads();
    let store_dir: PathBuf =
        std::env::temp_dir().join(format!("read-shard-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let serial_pipeline = builder()
        .executor(SerialExecutor)
        .store(DiskStore::new(&store_dir)?)
        .build()?;
    let serial = serial_pipeline.run_sweep(NETWORK, &workloads)?;
    let serial_stats = serial_pipeline.cache_stats();
    println!(
        "serial warm-up: {} optimizations, {} simulations, {} store writes -> {}",
        serial_stats.misses,
        serial_stats.hist_misses,
        serial_stats.store_writes,
        store_dir.display(),
    );

    let workers = 2;
    let distributed_pipeline = builder()
        .executor(
            SubprocessExecutor::new(std::env::current_exe()?)
                .arg("--worker")
                .env(STORE_DIR_ENV, store_dir.display().to_string())
                .workers(workers),
        )
        .store(DiskStore::new(&store_dir)?)
        .build()?;
    let plan = distributed_pipeline.plan_sweep(NETWORK, &workloads)?;
    println!(
        "plan: {} units over {} pairs ({} cells), executor {}",
        plan.units().len(),
        plan.pairs(),
        sweep_plan().cell_count(),
        distributed_pipeline.executor().name(),
    );
    let distributed = distributed_pipeline.run_plan(&plan)?.into_sweep()?;

    let serial_json = serial.to_json();
    let distributed_json = distributed.to_json();
    assert_eq!(
        serial_json, distributed_json,
        "a sweep distributed across {workers} worker processes must render \
         byte-identically to the serial run"
    );

    println!(
        "{} cells x {} rows re-aggregated byte-identically across {workers} worker \
         processes, each serving purely from the shared store",
        distributed.cells.len(),
        distributed.cells[0].rows.len(),
    );
    for w in &distributed.worst {
        println!(
            "  worst {:<34} TER {:.3e}  ({} @ {} on {})",
            w.algorithm, w.ter, w.layer, w.condition, w.die
        );
    }
    println!("report: {} bytes of identical JSON", distributed_json.len());
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}
