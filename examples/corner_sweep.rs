//! Corner/die sweep: evaluate baseline vs READ across the full grid of
//! PVTA corners × silicon dies in ONE pipeline run — typical silicon gets
//! a sharded Monte-Carlo trial budget, specific dies get per-PE variation —
//! and read the cross-corner worst case off the typed `SweepReport`.
//!
//! Run with: `cargo run --release --example corner_sweep`
//!
//! Set `READ_STORE_DIR=<dir>` to attach a persistent on-disk artifact
//! store: the first run writes every schedule, histogram and unit result
//! (plus the report JSON for comparison); any further run over the same
//! directory asserts that it performed **zero** optimizer and simulator
//! invocations and produced byte-identical JSON — the CI cold/warm smoke
//! step runs the example twice exactly this way.

use read_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = WorkloadConfig {
        pixels_per_layer: 2,
        ..WorkloadConfig::default()
    };
    let workloads: Vec<_> = vgg16_workloads(&config)
        .into_iter()
        .filter(|w| ["conv1_2", "conv4_8"].contains(&w.name()))
        .collect();

    // The grid: all six paper corners × (typical silicon + two dies), with
    // 48 Monte-Carlo trials per typical cell, sharded 12 trials per work
    // unit.  Sharding changes the work-unit layout only — the report is
    // byte-identical to an unsharded run.
    let plan = SweepPlan::new()
        .conditions(paper_conditions())
        .typical()
        .dies([3, 4])
        .monte_carlo(48, 7)
        .trials_per_shard(12);

    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);
    let mut builder = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .sweep(plan)
        .parallel();

    // Optional persistent artifact store (the cold/warm smoke contract).
    let store_dir = std::env::var_os("READ_STORE_DIR").map(std::path::PathBuf::from);
    let report_path = store_dir.as_ref().map(|dir| dir.join("report.json"));
    let warm = report_path.as_ref().is_some_and(|p| p.exists());
    if let Some(dir) = &store_dir {
        builder = builder.store(DiskStore::new(dir)?);
        println!(
            "artifact store: {} ({})",
            dir.display(),
            if warm { "warm" } else { "cold" }
        );
    }

    let pipeline = builder.build()?;
    let sweep = pipeline.run_sweep("vgg16-sweep", &workloads)?;

    println!(
        "{} cells (3 dies x 6 corners), {} rows total",
        sweep.cells.len(),
        sweep.cells.iter().map(|c| c.rows.len()).sum::<usize>()
    );
    println!();
    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>10}  error model",
        "die", "corner", "base TER", "READ TER", "reduction"
    );
    for cell in &sweep.cells {
        let base = cell
            .rows
            .iter()
            .filter(|r| r.algorithm == "baseline")
            .map(|r| r.ter)
            .fold(0.0f64, f64::max);
        let opt = cell
            .rows
            .iter()
            .filter(|r| r.algorithm != "baseline")
            .map(|r| r.ter)
            .fold(0.0f64, f64::max);
        let reduction = if opt > 0.0 { base / opt } else { f64::INFINITY };
        println!(
            "{:<22} {:<12} {:>12.3e} {:>12.3e} {:>9.1}x  {}",
            cell.die, cell.condition, base, opt, reduction, cell.error_model
        );
    }

    println!();
    println!("cross-corner worst case per algorithm:");
    for w in &sweep.worst {
        println!(
            "  {:<28} TER {:.3e}  ({} @ {} on {})",
            w.algorithm, w.ter, w.layer, w.condition, w.die
        );
    }

    // One optimization per (source, layer); every other cell hit the cache.
    let stats = pipeline.cache_stats();
    println!();
    println!(
        "schedule cache: {} optimizations, {} hits, {} collisions",
        stats.misses, stats.hits, stats.collisions
    );
    println!("cache stats: {}", stats.to_json());

    // The cold/warm smoke contract: against a warm store the whole sweep is
    // pure aggregation — zero optimizer and zero simulator invocations —
    // and the JSON is byte-identical to the cold run's.
    if let Some(path) = &report_path {
        let json = sweep.to_json();
        if warm {
            assert_eq!(
                stats.misses, 0,
                "warm store run must perform zero schedule optimizations"
            );
            assert_eq!(
                stats.hist_misses, 0,
                "warm store run must perform zero histogram simulations"
            );
            assert_eq!(
                stats.unit_misses, 0,
                "warm store run must execute zero work units fresh"
            );
            assert_eq!(stats.corrupt_entries, 0);
            let cold_json = std::fs::read_to_string(path)?;
            assert_eq!(
                json, cold_json,
                "warm-run JSON must be byte-identical to the cold run"
            );
            println!("warm run: zero fresh computations, byte-identical JSON — OK");
        } else {
            std::fs::write(path, &json)?;
            println!("cold run: report JSON recorded at {}", path.display());
        }
    }

    let (geo, max) = sweep.ter_reduction(&read.name(), "baseline");
    println!("READ reduction across the whole grid: geo-mean {geo:.1}x (max {max:.1}x)");
    Ok(())
}
