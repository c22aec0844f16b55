//! Experiment runners shared by the figure benches — thin adapters over the
//! unified [`read_pipeline::ReadPipeline`] API.
//!
//! The schedule construction, simulation, caching and parallel fan-out all
//! live in `read-pipeline`; this module only fixes the figure benches'
//! pipeline shapes.

use accel_sim::ArrayConfig;
use qnn::{Dataset, Model};
use read_pipeline::{
    AccuracyReport, Algorithm, DelayErrorModel, ErrorModel, LayerWorkload, NetworkReport,
    PipelineError, ReadPipeline, SweepPlan, SweepReport, ThreadExecutor, TopKEvaluator,
};
use timing::{DelayModel, DepthHistogram, OperatingCondition};

/// Builds the standard figure pipeline: the given algorithms as schedule
/// sources, the analytic error model over the given delay model, the given
/// corners, parallel per-layer execution.
///
/// # Panics
///
/// Panics if the combination is invalid (e.g. duplicate algorithm names),
/// which indicates a bug in the bench harness rather than a recoverable
/// condition.
pub fn figure_pipeline(
    algorithms: &[Algorithm],
    array: &ArrayConfig,
    delay: &DelayModel,
    conditions: &[OperatingCondition],
) -> ReadPipeline {
    figure_pipeline_with_model(algorithms, array, DelayErrorModel::new(*delay), conditions)
}

/// Like [`figure_pipeline`], but with an explicit [`ErrorModel`] stage —
/// the seam the Monte-Carlo and per-PE-variation figure variants plug into.
///
/// # Panics
///
/// Panics if the combination is invalid (e.g. duplicate algorithm names),
/// which indicates a bug in the bench harness rather than a recoverable
/// condition.
pub fn figure_pipeline_with_model(
    algorithms: &[Algorithm],
    array: &ArrayConfig,
    error_model: impl ErrorModel + 'static,
    conditions: &[OperatingCondition],
) -> ReadPipeline {
    let mut builder = ReadPipeline::builder()
        .array(*array)
        .error_model(error_model)
        .conditions(conditions.iter().copied())
        .parallel();
    for &algorithm in algorithms {
        builder = builder.source(algorithm);
    }
    builder
        .build()
        .expect("figure pipeline configuration is valid")
}

/// Runs a corner/die sweep over the given algorithms: the plan's (die,
/// condition) grid, parallel execution, shared schedule cache across cells.
///
/// # Panics
///
/// Panics if the combination is invalid (duplicate algorithm names, empty
/// plan), which indicates a bug in the bench harness rather than a
/// recoverable condition.
pub fn corner_sweep(
    algorithms: &[Algorithm],
    array: &ArrayConfig,
    plan: SweepPlan,
    workloads: &[LayerWorkload],
) -> SweepReport {
    let mut builder = ReadPipeline::builder()
        .array(*array)
        .sweep(plan)
        .executor(ThreadExecutor::machine());
    for &algorithm in algorithms {
        builder = builder.source(algorithm);
    }
    builder
        .build()
        .expect("sweep pipeline configuration is valid")
        .run_sweep("corner-sweep", workloads)
        .expect("generated workloads always simulate")
}

/// Simulates one layer under one algorithm and returns the triggered-depth
/// histogram (from which the TER at any corner can be computed).
///
/// # Panics
///
/// Panics if the simulation rejects the generated workload, which indicates
/// a bug in the harness rather than a recoverable condition.
pub fn layer_report(
    workload: &LayerWorkload,
    algorithm: Algorithm,
    array: &ArrayConfig,
) -> DepthHistogram {
    let pipeline = figure_pipeline(
        &[algorithm],
        array,
        &DelayModel::nangate15_like(),
        &[OperatingCondition::ideal()],
    );
    pipeline
        .layer_histogram(workload, &algorithm)
        .expect("generated workloads always simulate")
}

/// Runs the layer-wise TER experiment: every workload under every algorithm
/// at the given corner (the paper's Fig. 8 uses 10-year aging + 5 % VT).
///
/// # Panics
///
/// Panics if the simulation rejects the generated workloads, which indicates
/// a bug in the harness rather than a recoverable condition.
pub fn layerwise_ter(
    workloads: &[LayerWorkload],
    algorithms: &[Algorithm],
    array: &ArrayConfig,
    delay: &DelayModel,
    condition: &OperatingCondition,
) -> NetworkReport {
    figure_pipeline(algorithms, array, delay, &[*condition])
        .run_ter("layerwise-ter", workloads)
        .expect("generated workloads always simulate")
}

/// Runs the accuracy-under-PVTA experiment for one model.
///
/// For every (corner, algorithm) pair the per-layer TERs of the *full-size*
/// workloads are converted to BERs via Eq. (1), matched to the scaled
/// executable model's convolution layers by name, and the dataset is
/// evaluated under error injection with `seeds` different seeds.
///
/// # Errors
///
/// Propagates simulation and evaluation errors (e.g. shape mismatches
/// between the model and the workloads).
#[allow(clippy::too_many_arguments)]
pub fn accuracy_sweep(
    model: &Model,
    dataset: &Dataset,
    workloads: &[LayerWorkload],
    algorithms: &[Algorithm],
    conditions: &[OperatingCondition],
    array: &ArrayConfig,
    delay: &DelayModel,
    seeds: u64,
    top_k: usize,
) -> Result<AccuracyReport, PipelineError> {
    let mut builder = ReadPipeline::builder()
        .array(*array)
        .error_model(DelayErrorModel::new(*delay))
        .conditions(conditions.iter().copied())
        .evaluator(TopKEvaluator::new(top_k))
        .parallel();
    for &algorithm in algorithms {
        builder = builder.source(algorithm);
    }
    builder
        .build()
        .expect("sweep pipeline configuration is valid")
        .run_accuracy_for(model, "accuracy-sweep", dataset, workloads, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use read_core::SortCriterion;
    use read_pipeline::{vgg16_workloads, MonteCarloErrorModel, WorkloadConfig};

    fn tiny_workloads() -> Vec<LayerWorkload> {
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        // Only the two smallest layers to keep the test fast.
        vgg16_workloads(&config).into_iter().take(2).collect()
    }

    #[test]
    fn algorithm_names_are_distinct() {
        let names: Vec<String> = Algorithm::paper_set().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.iter().all(|n| !n.is_empty()));
        assert_ne!(names[0], names[1]);
        assert_ne!(names[1], names[2]);
    }

    #[test]
    fn reordering_reduces_ter_in_layerwise_experiment() {
        let workloads = tiny_workloads();
        let report = layerwise_ter(
            &workloads,
            &Algorithm::paper_set(),
            &ArrayConfig::paper_default(),
            &DelayModel::nangate15_like(),
            &OperatingCondition::aging_vt(10.0, 0.05),
        );
        assert_eq!(report.rows.len(), workloads.len() * 3);
        let (geo, max) = report.ter_reduction(
            &Algorithm::Reorder(SortCriterion::SignFirst).name(),
            "baseline",
        );
        assert!(geo > 1.0, "reorder should reduce TER, got {geo}x");
        assert!(max >= geo);
    }

    #[test]
    fn histograms_reused_across_conditions_are_consistent() {
        let workloads = tiny_workloads();
        let hist = layer_report(
            &workloads[0],
            Algorithm::Baseline,
            &ArrayConfig::paper_default(),
        );
        let delay = DelayModel::nangate15_like();
        let ideal = hist.ter(&delay, &OperatingCondition::ideal());
        let worst = hist.ter(&delay, &OperatingCondition::aging_vt(10.0, 0.05));
        assert!(worst > ideal);
    }

    #[test]
    fn monte_carlo_figure_pipeline_reports_spread() {
        let workloads = tiny_workloads();
        let pipeline = figure_pipeline_with_model(
            &[Algorithm::Baseline],
            &ArrayConfig::paper_default(),
            MonteCarloErrorModel::new(16, 3),
            &[OperatingCondition::aging_vt(10.0, 0.05)],
        );
        let rows = pipeline.run_ter("layerwise-ter", &workloads).unwrap().rows;
        assert_eq!(rows.len(), workloads.len());
        assert!(rows.iter().all(|r| r.ter_stddev.is_some()));
        // Analytic rows carry no spread.
        let analytic = layerwise_ter(
            &workloads,
            &[Algorithm::Baseline],
            &ArrayConfig::paper_default(),
            &DelayModel::nangate15_like(),
            &OperatingCondition::aging_vt(10.0, 0.05),
        );
        assert!(analytic.rows.iter().all(|r| r.ter_stddev.is_none()));
    }
}
