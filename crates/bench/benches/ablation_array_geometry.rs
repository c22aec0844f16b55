//! Ablation: array geometry — how the TER reduction scales with the number
//! of array columns (output channels per pass) and, for the
//! weight-stationary dataflow, the number of rows (reduction tile height).

use accel_sim::{ArrayConfig, Dataflow};
use read_bench::report;
use read_core::SortCriterion;
use read_pipeline::{vgg16_workloads, Algorithm, DelayErrorModel, ReadPipeline, WorkloadConfig};
use timing::{DelayModel, OperatingCondition};

fn ters_for(
    workload: &read_pipeline::LayerWorkload,
    array: &ArrayConfig,
    dataflow: Dataflow,
    delay: &DelayModel,
    condition: &OperatingCondition,
) -> (f64, f64) {
    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);
    let pipeline = ReadPipeline::builder()
        .array(*array)
        .dataflow(dataflow)
        .error_model(DelayErrorModel::new(*delay))
        .condition(*condition)
        .source(Algorithm::Baseline)
        .source(read)
        .build()
        .expect("valid pipeline");
    let base = pipeline
        .layer_ter(workload, &Algorithm::Baseline, condition)
        .expect("simulates");
    let opt = pipeline
        .layer_ter(workload, &read, condition)
        .expect("simulates");
    (base, opt)
}

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 4,
        ..WorkloadConfig::default()
    };
    let workload = vgg16_workloads(&config)
        .into_iter()
        .find(|w| w.name() == "conv4_8")
        .expect("vgg16 plan contains conv4_8");
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);

    report::section(&format!(
        "Ablation: TER reduction vs array columns ({}, output-stationary)",
        workload.name()
    ));
    let mut rows = Vec::new();
    for cols in [2usize, 4, 8, 16, 32] {
        let array = ArrayConfig::new(16, cols);
        let (base, opt) = ters_for(
            &workload,
            &array,
            Dataflow::OutputStationary,
            &delay,
            &condition,
        );
        rows.push(vec![
            format!("16x{cols}"),
            report::sci(base),
            report::sci(opt),
            format!("{:.1}x", base / opt.max(1e-300)),
        ]);
    }
    report::table(&["array", "baseline TER", "READ TER", "reduction"], &rows);

    report::section("Ablation: weight-stationary dataflow, rows sweep (reduction tile height)");
    let mut rows = Vec::new();
    for array_rows in [4usize, 16, 64] {
        let array = ArrayConfig::new(array_rows, 4);
        let (base, opt) = ters_for(
            &workload,
            &array,
            Dataflow::WeightStationary,
            &delay,
            &condition,
        );
        rows.push(vec![
            format!("{array_rows}x4"),
            report::sci(base),
            report::sci(opt),
            format!("{:.1}x", base / opt.max(1e-300)),
        ]);
    }
    report::table(&["array", "baseline TER", "READ TER", "reduction"], &rows);
    println!();
    println!("(expected: the reduction shrinks as more output channels share one order, and the");
    println!(
        " weight-stationary dataflow benefits less because partial sums round-trip the buffer)"
    );
}
