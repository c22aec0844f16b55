//! Fig. 9: the accumulation of the partial sum on one MAC unit during
//! several consecutive convolutions, in the original and the reordered
//! sequence.
//!
//! With the READ ordering the partial sum rises monotonically and then
//! falls, so the sign flips at most once per output; the original order
//! repeatedly crosses zero.

use accel_sim::{ArrayConfig, PsumTraceRecorder, TeeObserver};
use read_bench::experiments::figure_pipeline;
use read_bench::report;
use read_core::SortCriterion;
use read_pipeline::{vgg16_workloads, Algorithm, WorkloadConfig};
use timing::{DelayModel, OperatingCondition};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 3,
        ..WorkloadConfig::default()
    };
    let workload = vgg16_workloads(&config)
        .into_iter()
        .find(|w| w.name == "conv2_3")
        .expect("vgg16 plan contains conv2_3");
    let array = ArrayConfig::paper_default();
    let algorithms = [
        Algorithm::Baseline,
        Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
    ];
    let pipeline = figure_pipeline(
        &algorithms,
        &array,
        &DelayModel::nangate15_like(),
        &[OperatingCondition::ideal()],
    );

    report::section(&format!(
        "Fig. 9: PSUM accumulation on one MAC while computing 3 outputs ({})",
        workload.name
    ));
    for algorithm in algorithms {
        // Record the PSUM series of output channel 0 over all three pixels.
        let mut tee = TeeObserver::new(
            PsumTraceRecorder::for_channel(0),
            accel_sim::SignFlipStats::new(),
        );
        pipeline
            .observe_layer(&workload, &algorithm, &mut tee)
            .expect("workload simulates");
        let trace = tee.first.trace();
        let flips = tee.first.sign_flip_count();
        println!();
        println!(
            "{} — {} recorded cycles, {} sign flips on this MAC",
            algorithm,
            trace.len(),
            flips
        );
        // Print a compact sparkline-style series: min/max per bucket of the
        // normalized PSUM.
        let buckets = 24usize;
        let max_abs = trace.iter().map(|v| v.unsigned_abs()).max().unwrap_or(1) as f64;
        let per = trace.len().div_ceil(buckets).max(1);
        let mut cells = Vec::new();
        for chunk in trace.chunks(per) {
            let lo = *chunk.iter().min().unwrap() as f64 / max_abs;
            let hi = *chunk.iter().max().unwrap() as f64 / max_abs;
            cells.push(vec![format!("{lo:+.2}"), format!("{hi:+.2}")]);
        }
        let rows: Vec<Vec<String>> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| vec![format!("{}", i * per), c[0].clone(), c[1].clone()])
            .collect();
        report::table(&["cycle", "psum min (norm.)", "psum max (norm.)"], &rows);
    }
    println!();
    println!("(paper: the reordered sequence rises then falls; sign flips drop to ~1 per output)");
}
