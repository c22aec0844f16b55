//! Fig. 2: the sign-flip rate of the partial sum and the timing error rate
//! are strongly correlated.
//!
//! The paper collects (sign-flip rate, TER) points from different MAC units
//! running different convolution layers with different dataflows.  This
//! bench sweeps VGG-16 and ResNet-18 layers, both dataflows, and both the
//! baseline and reordered schedules to span a wide range of sign-flip
//! rates, then reports the Pearson correlation of log(SFR) vs log(TER).

use accel_sim::{ArrayConfig, Dataflow};
use read_bench::report;
use read_core::SortCriterion;
use read_pipeline::{
    resnet18_workloads, vgg16_workloads, Algorithm, DelayErrorModel, ReadPipeline, WorkloadConfig,
};
use timing::math::pearson_correlation;
use timing::{DelayModel, OperatingCondition};

fn main() {
    let config = WorkloadConfig {
        pixels_per_layer: 2,
        ..WorkloadConfig::default()
    };
    let array = ArrayConfig::paper_default();
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);

    let mut workloads = vgg16_workloads(&config);
    workloads.extend(resnet18_workloads(&config).into_iter().step_by(2));

    let mut points: Vec<(String, f64, f64)> = Vec::new();
    for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
        let pipeline = ReadPipeline::builder()
            .array(array)
            .dataflow(dataflow)
            .error_model(DelayErrorModel::new(delay))
            .condition(condition)
            .source(Algorithm::Baseline)
            .source(Algorithm::Reorder(SortCriterion::SignFirst))
            .parallel()
            .build()
            .expect("valid pipeline");
        let net = pipeline
            .run_ter("fig2", &workloads)
            .expect("workloads simulate");
        for row in &net.rows {
            if row.sign_flip_rate > 0.0 && row.ter > 0.0 {
                points.push((
                    format!("{} / {} / {}", row.layer, dataflow, row.algorithm),
                    row.sign_flip_rate,
                    row.ter,
                ));
            }
        }
    }

    report::section("Fig. 2: sign-flip rate vs timing error rate (aging 10y + 5% VT)");
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(name, sfr, ter)| vec![name.clone(), report::sci(*sfr), report::sci(*ter)])
        .collect();
    report::table(
        &["layer / dataflow / schedule", "sign-flip rate", "TER"],
        &rows,
    );

    let xs: Vec<f64> = points.iter().map(|(_, s, _)| s.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|(_, _, t)| t.ln()).collect();
    let r = pearson_correlation(&xs, &ys).unwrap_or(0.0);
    println!();
    println!(
        "Pearson correlation of log(sign-flip rate) vs log(TER): r = {r:.3} over {} points",
        points.len()
    );
    println!("(paper: strong positive correlation — Fig. 2 scatter hugs a line)");
}
