//! Ablation: clustering metric — the paper's sign-difference (Manhattan on
//! weight signs) against Euclidean distance on the raw weight values.

use accel_sim::ArrayConfig;
use read_bench::report;
use read_core::{ClusteringMode, DistanceMetric, ReadConfig, SortCriterion};
use read_pipeline::{vgg16_workloads, DelayErrorModel, ReadPipeline, WorkloadConfig};
use timing::{DelayModel, OperatingCondition};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 4,
        ..WorkloadConfig::default()
    };
    let array = ArrayConfig::paper_default();
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);
    let workloads = vgg16_workloads(&config);

    report::section("Ablation: clustering metric (cluster-then-reorder, aging 10y + 5% VT)");
    let mut rows = Vec::new();
    for (label, metric) in [
        ("sign difference (paper)", DistanceMetric::SignManhattan),
        ("euclidean on values", DistanceMetric::Euclidean),
    ] {
        let pipeline = ReadPipeline::builder()
            .array(array)
            .error_model(DelayErrorModel::new(delay))
            .condition(condition)
            .optimizer(ReadConfig {
                criterion: SortCriterion::SignFirst,
                clustering: ClusteringMode::ClusterThenReorder,
                metric,
                ..ReadConfig::default()
            })
            .parallel()
            .build()
            .expect("valid pipeline");
        let net = pipeline
            .run_ter("cluster-metric", &workloads)
            .expect("simulates");
        let mut log_ter = 0.0;
        let mut n = 0usize;
        for row in &net.rows {
            if row.ter > 0.0 {
                log_ter += row.ter.ln();
                n += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            report::sci((log_ter / n.max(1) as f64).exp()),
        ]);
    }
    report::table(
        &["clustering metric", "geo-mean TER over VGG-16 layers"],
        &rows,
    );
    println!();
    println!("(expected: the sign-difference metric matches or beats Euclidean — only the sign");
    println!(" pattern matters for the reorder quality, magnitudes just add noise)");
}
