//! Integration tests of the unified error-analysis layer: every TER/BER
//! derivation flows through the `ErrorModel` stage, covering the analytic,
//! Monte-Carlo and per-PE-variation models — convergence, permutation
//! stability, and byte-identical seed-stable reports.
//!
//! Executor-invariance is asserted against the `Executor` strategies.

use read_repro::prelude::*;

fn tiny_workloads(n: usize) -> Vec<LayerWorkload> {
    let config = WorkloadConfig {
        pixels_per_layer: 1,
        ..WorkloadConfig::default()
    };
    vgg16_workloads(&config).into_iter().take(n).collect()
}

fn worst_corner() -> OperatingCondition {
    OperatingCondition::aging_vt(10.0, 0.05)
}

fn baseline_histogram(workload: &LayerWorkload) -> DepthHistogram {
    ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .condition(worst_corner())
        .build()
        .unwrap()
        .layer_histogram(workload, &Algorithm::Baseline)
        .unwrap()
}

// ---- Monte-Carlo convergence --------------------------------------------

#[test]
fn monte_carlo_ter_converges_to_the_analytic_ter_as_trials_grow() {
    let workload = &tiny_workloads(1)[0];
    let hist = baseline_histogram(workload);
    let condition = worst_corner();
    let analytic = DelayErrorModel::default().ter(&hist, &condition);
    assert!(analytic > 0.0);

    // Seeded, hence deterministic: each estimate's distance from the
    // analytic expectation stays within a few standard errors, and the
    // standard-error bound itself tightens as trials grow.
    let mut previous_bound = f64::INFINITY;
    for trials in [8u32, 64, 512] {
        let estimate = MonteCarloErrorModel::new(trials, 0xC0FFEE).estimate(&hist, &condition);
        let stddev = estimate.stddev.expect("Monte-Carlo estimates carry spread");
        let bound = 5.0 * stddev / f64::from(trials).sqrt() + analytic * 0.05;
        assert!(
            (estimate.ter - analytic).abs() <= bound,
            "trials={trials}: |{} - {analytic}| > {bound}",
            estimate.ter
        );
        assert!(
            bound <= previous_bound,
            "the error bound must tighten with more trials"
        );
        previous_bound = bound;
    }

    // At 512 trials the relative error is small outright.
    let tight = MonteCarloErrorModel::new(512, 0xC0FFEE).estimate(&hist, &condition);
    assert!(
        (tight.ter - analytic).abs() <= analytic * 0.25,
        "512-trial mean {} strays from analytic {analytic}",
        tight.ter
    );
}

/// `ter_stddev` is the **sample** standard deviation of the trial TERs
/// (Bessel's `n - 1` correction), as `TerEstimate::from_trials` documents —
/// asserted numerically against a hand-computed three-trial case.
#[test]
fn monte_carlo_ter_stddev_is_the_sample_stddev_of_the_trials() {
    // Hand-computed: trials [0.1, 0.4, 0.4] have mean 0.3, squared
    // deviations 0.04 + 0.01 + 0.01 = 0.06, sample variance 0.06/2 = 0.03.
    // The population divisor (n = 3) would give 0.02.
    let hand = TerEstimate::from_trials(&[0.1, 0.4, 0.4]);
    assert!((hand.ter - 0.3).abs() < 1e-15);
    assert!((hand.stddev.unwrap() - 0.03f64.sqrt()).abs() < 1e-15);
    assert!(
        (hand.stddev.unwrap() - 0.02f64.sqrt()).abs() > 1e-3,
        "the spread must not be the population stddev"
    );

    // The pipeline's Monte-Carlo model aggregates its own trials the same
    // way: a 3-trial estimate equals the hand aggregation of its 3 trial
    // samples, bit for bit.
    let hist = baseline_histogram(&tiny_workloads(1)[0]);
    let condition = worst_corner();
    let model = MonteCarloErrorModel::new(3, 0xABCD);
    let trials = model.trial_ters(&hist, &condition, 0..3);
    assert_eq!(trials.len(), 3);
    let estimate = model.estimate(&hist, &condition);
    assert_eq!(estimate, TerEstimate::from_trials(&trials));
    // Recompute the sample stddev by hand from the raw trials.
    let mean = trials.iter().sum::<f64>() / 3.0;
    let sample_var = trials.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / 2.0;
    assert!((estimate.ter - mean).abs() < 1e-18);
    assert!((estimate.stddev.unwrap() - sample_var.sqrt()).abs() < 1e-18);
}

// ---- per-PE variation stability -----------------------------------------

#[test]
fn per_pe_bers_are_permutation_stable_and_seed_deterministic() {
    let workloads = tiny_workloads(2);
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .condition(worst_corner())
        .build()
        .unwrap();
    // Two histograms merged in either order describe the same cycles.
    let hist_a = pipeline
        .layer_histogram(&workloads[0], &Algorithm::Baseline)
        .unwrap();
    let hist_b = pipeline
        .layer_histogram(&workloads[1], &Algorithm::Baseline)
        .unwrap();
    let mut ab = hist_a.clone();
    ab.merge(&hist_b);
    let mut ba = hist_b.clone();
    ba.merge(&hist_a);

    let model = VariationErrorModel::new(pipeline.array(), 3);
    let condition = worst_corner();
    let bers_ab = model.per_pe_bers(&ab, &condition, 1000);
    let bers_ba = model.per_pe_bers(&ba, &condition, 1000);
    assert_eq!(
        bers_ab, bers_ba,
        "per-PE BERs must not depend on histogram accumulation order"
    );
    assert_eq!(bers_ab.len(), pipeline.array().pe_count());
    // A die's PEs genuinely differ, but all BERs stay physical.
    let min = bers_ab.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = bers_ab.iter().cloned().fold(0.0, f64::max);
    assert!(max > min);
    assert!(min >= 0.0 && max <= 1.0);

    // Same seed -> same die; different seed -> different die.
    assert_eq!(
        bers_ab,
        VariationErrorModel::new(pipeline.array(), 3).per_pe_bers(&ab, &condition, 1000)
    );
    assert_ne!(
        bers_ab,
        VariationErrorModel::new(pipeline.array(), 4).per_pe_bers(&ab, &condition, 1000)
    );
}

// ---- deterministic, seed-stable reports (acceptance criterion) ----------

#[test]
fn monte_carlo_pipeline_reports_are_byte_identical_across_runs() {
    let workloads = tiny_workloads(2);
    let run = |executor: ThreadExecutor| {
        ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
            .conditions(paper_conditions())
            .monte_carlo(24, 11)
            .executor(executor)
            .build()
            .unwrap()
            .run_ter("mc-determinism", &workloads)
            .unwrap()
    };
    let first = run(ThreadExecutor::new(1));
    let second = run(ThreadExecutor::new(1));
    let parallel = run(ThreadExecutor::machine());
    assert_eq!(first, second);
    assert_eq!(first.to_json().into_bytes(), second.to_json().into_bytes());
    assert_eq!(
        first.to_json().into_bytes(),
        parallel.to_json().into_bytes()
    );
    assert!(first.to_json().contains("\"ter_stddev\":"));
}

#[test]
fn variation_pipeline_reports_are_byte_identical_and_carry_the_corner() {
    let workloads = tiny_workloads(2);
    let run = || {
        ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
            .condition(worst_corner())
            .pe_variation(3)
            .parallel()
            .build()
            .unwrap()
            .run_ter("pe-var-determinism", &workloads)
            .unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second);
    assert_eq!(first.to_json().into_bytes(), second.to_json().into_bytes());
    assert!(first
        .rows
        .iter()
        .all(|r| r.corner.as_deref() == Some("pe-var[16x4,seed=3]")));
    assert!(first
        .to_json()
        .contains("\"corner\":\"pe-var[16x4,seed=3]\""));
}

// ---- the error-model stage is the seam --------------------------------

#[test]
fn all_three_error_models_agree_on_the_physics() {
    // The three models describe the same datapath: at a stressed corner
    // their point estimates for the same histogram agree within an order of
    // magnitude, and READ's schedule reduces all three.
    let workload = &tiny_workloads(1)[0];
    let condition = worst_corner();
    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);

    let models: [Box<dyn ErrorModel>; 3] = [
        Box::new(DelayErrorModel::default()),
        Box::new(MonteCarloErrorModel::new(64, 1)),
        Box::new(VariationErrorModel::new(&ArrayConfig::paper_default(), 1)),
    ];
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .condition(condition)
        .build()
        .unwrap();
    let base_hist = pipeline
        .layer_histogram(workload, &Algorithm::Baseline)
        .unwrap();
    let read_hist = pipeline.layer_histogram(workload, &read).unwrap();

    let analytic_base = models[0].ter(&base_hist, &condition);
    for model in &models {
        let base = model.ter(&base_hist, &condition);
        let optimized = model.ter(&read_hist, &condition);
        assert!(base > 0.0, "{}", model.name());
        assert!(
            base < analytic_base * 10.0 && base > analytic_base / 10.0,
            "{}: {base} vs analytic {analytic_base}",
            model.name()
        );
        assert!(
            optimized < base,
            "{}: READ must reduce the TER ({optimized} vs {base})",
            model.name()
        );
    }
}
