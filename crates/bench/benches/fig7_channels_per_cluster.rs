//! Fig. 7: TER with different reordering algorithms as a function of the
//! number of channels per cluster (the array column count Ac).
//!
//! The paper sweeps 4, 8, 16 and 32 channels per cluster on one layer at the
//! 10-year-aging + 5 %-VT corner: reordering becomes less effective as more
//! output channels share one order, and cluster-then-reorder recovers most
//! of the loss.

use accel_sim::ArrayConfig;
use read_bench::experiments::layer_report;
use read_bench::report;
use read_core::SortCriterion;
use read_pipeline::{vgg16_workloads, Algorithm, WorkloadConfig};
use timing::{DelayModel, OperatingCondition};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 6,
        ..WorkloadConfig::default()
    };
    // A 256->256 VGG-16 layer: wide enough to form 32-channel clusters.
    let workload = vgg16_workloads(&config)
        .into_iter()
        .find(|w| w.name() == "conv3_6")
        .expect("vgg16 plan contains conv3_6");
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);

    let algorithms = [
        Algorithm::Baseline,
        Algorithm::Reorder(SortCriterion::SignFirst),
        Algorithm::Reorder(SortCriterion::MagFirst),
        Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
    ];

    report::section(&format!(
        "Fig. 7: TER vs channels per cluster ({} at {})",
        workload.name(),
        condition
    ));
    let mut rows = Vec::new();
    for channels_per_cluster in [4usize, 8, 16, 32] {
        let array = ArrayConfig::new(16, channels_per_cluster);
        let mut cells = vec![channels_per_cluster.to_string()];
        for algorithm in algorithms {
            let hist = layer_report(&workload, algorithm, &array);
            cells.push(report::sci(hist.ter(&delay, &condition)));
        }
        rows.push(cells);
    }
    report::table(
        &[
            "channels/cluster",
            "baseline",
            "reorder: sign-first",
            "reorder: mag-first",
            "cluster-then-reorder",
        ],
        &rows,
    );
    println!();
    println!("(paper: all reordering variants sit well below the baseline; sign_first beats");
    println!(" mag_first; cluster-then-reorder is best and degrades most gracefully as Ac grows)");
}
