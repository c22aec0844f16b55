//! Cross-crate integration tests: the full READ pipeline from a network
//! layer, through the optimizer, onto the simulated array, into the timing
//! model and the error-injection accuracy evaluation — all driven through
//! the unified `ReadPipeline` API.

use qnn::init::{synthetic_activations, WeightInit};
use qnn::models;
use read_repro::prelude::*;

fn synthetic_layer(reduction: usize, channels: usize, pixels: usize, seed: u64) -> LayerWorkload {
    let mut init = WeightInit::new(seed);
    let weights = Matrix::from_fn(reduction, channels, |_, _| init.weight(reduction));
    let acts = synthetic_activations(reduction * pixels, 0.45, seed + 1);
    let activations = Matrix::from_fn(reduction, pixels, |r, p| acts[r * pixels + p]);
    LayerWorkload::from_matrices("synthetic", weights, activations).expect("consistent matrices")
}

fn read_algorithm() -> Algorithm {
    Algorithm::ClusterThenReorder(SortCriterion::SignFirst)
}

fn paper_pipeline() -> ReadPipeline {
    ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read_algorithm())
        .conditions(paper_conditions())
        .build()
        .expect("valid pipeline")
}

#[test]
fn read_schedule_preserves_layer_outputs_bit_exactly() {
    let workload = synthetic_layer(288, 32, 6, 1);
    let pipeline = paper_pipeline();
    let baseline = pipeline
        .layer_outputs(&workload, &Algorithm::Baseline)
        .unwrap();
    let optimized = pipeline
        .layer_outputs(&workload, &read_algorithm())
        .unwrap();
    assert_eq!(baseline, optimized);
    assert_eq!(
        baseline,
        workload.problem().unwrap().reference_output().unwrap()
    );
}

#[test]
fn read_reduces_ter_under_stress_and_never_hurts_at_nominal() {
    let workload = synthetic_layer(576, 16, 4, 3);
    let pipeline = paper_pipeline();

    let stressed = OperatingCondition::aging_vt(10.0, 0.05);
    let base = pipeline
        .layer_ter(&workload, &Algorithm::Baseline, &stressed)
        .unwrap();
    let read = pipeline
        .layer_ter(&workload, &read_algorithm(), &stressed)
        .unwrap();
    assert!(base > 0.0);
    assert!(
        read < base / 2.0,
        "READ should reduce TER by well over 2x, got {read} vs {base}"
    );

    // The sign-flip rate (schedule property) drops too.
    let base_hist = pipeline
        .layer_histogram(&workload, &Algorithm::Baseline)
        .unwrap();
    let read_hist = pipeline
        .layer_histogram(&workload, &read_algorithm())
        .unwrap();
    assert!(read_hist.sign_flip_rate() < base_hist.sign_flip_rate());

    let ideal = OperatingCondition::ideal();
    let base_ideal = pipeline
        .layer_ter(&workload, &Algorithm::Baseline, &ideal)
        .unwrap();
    let read_ideal = pipeline
        .layer_ter(&workload, &read_algorithm(), &ideal)
        .unwrap();
    assert!(read_ideal <= base_ideal * 1.01 + 1e-12);
}

#[test]
fn ter_ordering_follows_pvta_stress_for_both_schedules() {
    let workload = synthetic_layer(288, 8, 3, 9);
    let pipeline = paper_pipeline();
    let report = pipeline
        .run_ter("pvta-ordering", std::slice::from_ref(&workload))
        .unwrap();
    for algorithm in ["baseline", &read_algorithm().name()] {
        let ters: Vec<f64> = report
            .rows
            .iter()
            .filter(|r| r.algorithm == algorithm)
            .map(|r| r.ter)
            .collect();
        assert_eq!(ters.len(), 6, "one row per paper corner");
        // Ideal is the most benign corner; the combined aging + 5% corner is
        // the worst.
        assert!(ters[0] <= ters.iter().cloned().fold(f64::INFINITY, f64::min) + 1e-18);
        assert!((ters[5] - ters.iter().cloned().fold(0.0, f64::max)).abs() < 1e-18);
    }
}

#[test]
fn vgg_layer_matrices_flow_through_the_whole_stack() {
    // Take the real VGG-16 layer shapes, build the weight matrix from the
    // executable model's conv layer, optimize, and verify the LUT describes
    // exactly the schedule the simulator executes.
    let model = models::vgg16_cifar_scaled(16, 10, 5).unwrap();
    let conv = model.conv_layers()[4];
    let weights = conv.weight_matrix();
    let schedule = ReadOptimizer::new(ReadConfig::default())
        .optimize(&weights, 4)
        .unwrap();
    let lut = schedule.lut().unwrap();
    assert_eq!(lut.num_clusters(), schedule.clusters().len());
    for (ci, cluster) in schedule.clusters().iter().enumerate() {
        for (pos, &row) in cluster.order.iter().enumerate() {
            assert_eq!(lut.lookup(ci, pos), Some(row));
        }
    }
    // The same optimizer used as a pipeline schedule source produces exactly
    // the schedule the LUT describes.
    let optimizer = ReadOptimizer::new(ReadConfig::default());
    let from_source = ScheduleSource::schedule(&optimizer, &weights, 4).unwrap();
    assert_eq!(from_source, schedule.to_compute_schedule());
    assert!(from_source.validate(weights.rows(), weights.cols()).is_ok());
}

#[test]
fn ber_formula_connects_layer_ter_to_activation_error_rate() {
    let workload = synthetic_layer(1152, 8, 2, 21);
    let pipeline = paper_pipeline();
    let report = pipeline
        .run_ter("ber-formula", std::slice::from_ref(&workload))
        .unwrap();
    let row = report
        .rows
        .iter()
        .find(|r| r.algorithm == "baseline" && r.condition == "Aging&VT-5%")
        .expect("worst-corner baseline row");
    assert!(row.ber >= row.ter);
    assert!(row.ber <= 1.0);
    assert!((ber_from_ter(row.ter, row.macs_per_output) - row.ber).abs() < 1e-15);
    assert_eq!(row.macs_per_output, 1152);
}

#[test]
fn baseline_layer_schedule_matches_compute_schedule_baseline() {
    let schedule = LayerSchedule::baseline(32, 12, 4);
    let compute = schedule.to_compute_schedule();
    let direct = ComputeSchedule::baseline(32, 12, 4);
    assert_eq!(
        compute.output_channel_order(),
        direct.output_channel_order()
    );
    assert_eq!(compute.groups().len(), direct.groups().len());
    // The pipeline's Baseline source produces the same schedule.
    let weights = Matrix::from_fn(32, 12, |r, c| ((r * 3 + c) % 7) as i8 - 3);
    let from_source = ScheduleSource::schedule(&Baseline, &weights, 4).unwrap();
    assert_eq!(from_source, direct);
}
