//! Corner/die sweep table (Fig. 9-style): worst-layer TER of every
//! algorithm at every (die, condition) cell of the sweep grid, plus the
//! cross-corner worst-case summary — the claim the paper's evaluation rests
//! on is that READ's reduction holds *across* corners and process
//! variation, not at one cherry-picked point.
//!
//! The sweep runs as one pipeline pass: schedules are optimized once per
//! (algorithm, layer) and reused by every cell, and the Monte-Carlo trial
//! budget of the typical-silicon cells is sharded across work units
//! (byte-identical to an unsharded run).

use accel_sim::ArrayConfig;
use read_bench::experiments::corner_sweep;
use read_bench::report;
use read_pipeline::{vgg16_workloads, Algorithm, SweepPlan, WorkloadConfig};
use timing::paper_conditions;

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 2,
        ..WorkloadConfig::default()
    };
    // A representative cross-section of VGG-16: early, middle and late.
    let workloads: Vec<_> = vgg16_workloads(&config)
        .into_iter()
        .filter(|w| ["conv1_2", "conv3_6", "conv5_11"].contains(&w.name()))
        .collect();
    let algorithms = Algorithm::paper_set();
    let array = ArrayConfig::paper_default();

    // Typical silicon (Monte-Carlo, 64 trials split into 16-trial shards)
    // plus two specific dies, across all six paper corners.
    let plan = SweepPlan::new()
        .conditions(paper_conditions())
        .typical()
        .dies([3, 4])
        .monte_carlo(64, 0xF168)
        .trials_per_shard(16);
    let sweep = corner_sweep(&algorithms, &array, plan, &workloads);

    report::section(
        "Corner/die sweep: worst-layer TER per cell (VGG-16 cross-section, 16x4 array)",
    );
    let rows: Vec<Vec<String>> = sweep
        .cells
        .iter()
        .map(|cell| {
            let mut cells_out = vec![cell.die.clone(), cell.condition.clone()];
            for algorithm in &algorithms {
                let worst = cell
                    .rows
                    .iter()
                    .filter(|r| r.algorithm == algorithm.name())
                    .map(|r| r.ter)
                    .fold(0.0f64, f64::max);
                cells_out.push(report::sci(worst));
            }
            cells_out.push(format!("{}", cell.shards));
            cells_out
        })
        .collect();
    report::table(
        &[
            "die",
            "corner",
            "baseline",
            "reorder",
            "cluster-then-reorder",
            "shards",
        ],
        &rows,
    );

    report::section("Cross-corner summary");
    let summary: Vec<Vec<String>> = sweep
        .worst
        .iter()
        .map(|w| {
            vec![
                w.algorithm.clone(),
                report::sci(w.ter),
                w.layer.clone(),
                w.condition.clone(),
                w.die.clone(),
            ]
        })
        .collect();
    report::table(
        &["algorithm", "worst TER", "layer", "corner", "die"],
        &summary,
    );
    let (geo, max) = sweep.ter_reduction(&algorithms[2].name(), "baseline");
    println!();
    println!(
        "cluster-then-reorder TER reduction across all {} cells: geo-mean {geo:.1}x (max {max:.1}x)",
        sweep.cells.len()
    );
}
