//! Ablation: the non-negative-activation assumption.
//!
//! READ's optimality argument relies on post-ReLU (non-negative)
//! activations: the sign of every product is then the sign of its weight.
//! This bench re-runs the layer experiment with signed activations (as after
//! a layer without ReLU, or with symmetric quantization of raw inputs) to
//! show how much of the benefit survives.

use accel_sim::{ArrayConfig, Matrix};
use read_bench::experiments::figure_pipeline;
use read_bench::report;
use read_core::SortCriterion;
use read_pipeline::{vgg16_workloads, Algorithm, LayerWorkload, WorkloadConfig};
use timing::{DelayModel, OperatingCondition};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 4,
        ..WorkloadConfig::default()
    };
    let array = ArrayConfig::paper_default();
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);
    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);
    let pipeline = figure_pipeline(&[Algorithm::Baseline, read], &array, &delay, &[condition]);

    report::section("Ablation: ReLU (non-negative) vs signed activations (aging 10y + 5% VT)");
    let mut rows = Vec::new();
    for (label, make_signed) in [("non-negative (post-ReLU)", false), ("signed", true)] {
        let mut log_reduction = 0.0;
        let mut n = 0usize;
        for (i, workload) in vgg16_workloads(&config).iter().enumerate() {
            let workload = if make_signed {
                // Flip the sign of half the activation entries
                // deterministically to emulate a signed input distribution
                // with the same magnitudes.
                let activations = workload.activations();
                let signed = Matrix::from_fn(activations.rows(), activations.cols(), |r, c| {
                    let v = activations[(r, c)];
                    if (r * 31 + c * 17 + i) % 2 == 0 {
                        v
                    } else {
                        v.saturating_neg()
                    }
                });
                LayerWorkload::from_matrices(workload.name(), workload.weights().clone(), signed)
                    .expect("the signed activations keep the layer's dimensions")
            } else {
                workload.clone()
            };
            let base = pipeline
                .layer_ter(&workload, &Algorithm::Baseline, &condition)
                .expect("simulates");
            let opt = pipeline
                .layer_ter(&workload, &read, &condition)
                .expect("simulates");
            if base > 0.0 && opt > 0.0 {
                log_reduction += (base / opt).ln();
                n += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.1}x", (log_reduction / n.max(1) as f64).exp()),
        ]);
    }
    report::table(
        &[
            "activation distribution",
            "geo-mean TER reduction (READ vs baseline)",
        ],
        &rows,
    );
    println!();
    println!("(expected: the reduction shrinks substantially with signed activations — the");
    println!(" weight-sign heuristic no longer controls the product signs)");
}
