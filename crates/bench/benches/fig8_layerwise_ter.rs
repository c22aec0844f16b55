//! Fig. 8: layer-wise timing error rate of VGG-16 and ResNet-18 under
//! baseline, reorder and cluster-then-reorder schedules, at the
//! 10-year-aging + 5 %-VT corner — plus the headline average and maximum
//! TER-reduction factors (paper: 4.9x for reorder, 7.8x average and up to
//! 37.9x for cluster-then-reorder).

use accel_sim::ArrayConfig;
use read_bench::experiments::{figure_pipeline_with_model, layerwise_ter};
use read_bench::report;
use read_pipeline::{
    resnet18_workloads, vgg16_workloads, Algorithm, MonteCarloErrorModel, WorkloadConfig,
};
use timing::{DelayModel, OperatingCondition};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 4,
        ..WorkloadConfig::default()
    };
    let array = ArrayConfig::paper_default();
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);
    let algorithms = Algorithm::paper_set();

    for (network, workloads) in [
        ("VGG-16", vgg16_workloads(&config)),
        ("ResNet-18", resnet18_workloads(&config)),
    ] {
        let ter = layerwise_ter(&workloads, &algorithms, &array, &delay, &condition);
        let rows = &ter.rows;
        report::section(&format!(
            "Fig. 8: layer-wise TER, {network} (aging 10y + 5% VT, 16x4 output-stationary array)"
        ));
        let mut printed = Vec::new();
        for workload in &workloads {
            let mut cells = vec![workload.name().to_string()];
            for algorithm in &algorithms {
                let row = rows
                    .iter()
                    .find(|r| r.layer == workload.name() && r.algorithm == algorithm.name())
                    .expect("row exists");
                cells.push(report::sci(row.ter));
            }
            // Per-layer reduction of the best algorithm.
            let base = rows
                .iter()
                .find(|r| r.layer == workload.name() && r.algorithm == "baseline")
                .expect("baseline row");
            let best = rows
                .iter()
                .filter(|r| r.layer == workload.name() && r.algorithm != "baseline")
                .map(|r| r.ter)
                .fold(f64::INFINITY, f64::min);
            cells.push(if best > 0.0 {
                format!("{:.1}x", base.ter / best)
            } else {
                "inf".to_string()
            });
            printed.push(cells);
        }
        report::table(
            &[
                "layer",
                "baseline",
                "reorder",
                "cluster-then-reorder",
                "best reduction",
            ],
            &printed,
        );

        let (reorder_avg, reorder_max) = ter.ter_reduction(&algorithms[1].name(), "baseline");
        let (cluster_avg, cluster_max) = ter.ter_reduction(&algorithms[2].name(), "baseline");
        println!();
        println!(
            "{network}: reorder reduction avg {reorder_avg:.1}x (max {reorder_max:.1}x); \
             cluster-then-reorder reduction avg {cluster_avg:.1}x (max {cluster_max:.1}x)"
        );
        println!(
            "(paper averages across both networks: reorder 4.9x, cluster-then-reorder 7.8x, max 37.9x)"
        );
    }

    // Monte-Carlo cross-check: the sampled TER (mean ± stddev over seeded
    // trials) brackets the analytic estimate on a representative layer —
    // the same schedule/simulation path, only the error-model stage swaps.
    let workloads: Vec<_> = vgg16_workloads(&config).into_iter().take(3).collect();
    let analytic = layerwise_ter(&workloads, &[algorithms[0]], &array, &delay, &condition).rows;
    let mc_pipeline = figure_pipeline_with_model(
        &[algorithms[0]],
        &array,
        MonteCarloErrorModel::with_delay(delay, 32, 0xF168),
        &[condition],
    );
    let sampled = mc_pipeline
        .run_ter("layerwise-ter", &workloads)
        .expect("generated workloads always simulate")
        .rows;
    report::section("Monte-Carlo validation of the analytic TER (baseline schedule, 32 trials)");
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .zip(analytic.iter().zip(&sampled))
        .map(|(w, (a, s))| {
            vec![
                w.name().to_string(),
                report::sci(a.ter),
                report::sci(s.ter),
                report::sci(s.ter_stddev.unwrap_or(0.0)),
            ]
        })
        .collect();
    report::table(
        &["layer", "analytic TER", "MC mean TER", "MC stddev"],
        &rows,
    );
}
