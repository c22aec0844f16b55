//! # read-repro — READ: Reliability-Enhanced Accelerator Dataflow Optimization
//!
//! Workspace facade crate: re-exports the substrate crates of the READ
//! reproduction so that examples and downstream users can depend on a single
//! crate.
//!
//! * [`read_pipeline`] — **start here**: the unified [`ReadPipeline`]
//!   builder that composes the whole flow from trait-based stages
//!   (`ScheduleSource` → simulator → `ErrorModel` → `Evaluator`), expands
//!   every run into a typed `WorkPlan` of position-independent work units,
//!   and executes it on a pluggable `Executor` (serial, scoped threads, or
//!   worker subprocesses) with schedule and histogram caching.
//! * [`read_core`] — the READ optimizer (input-channel reordering,
//!   output-channel clustering, schedules, LUT hardware model).
//! * [`accel_sim`] — cycle-level systolic-array simulator (MAC datapath,
//!   dataflows, conv→GEMM lowering).
//! * [`dataflow_sim`] — event-driven dataflow engine: contexts with local
//!   clocks exchanging typed tokens over bounded channels, with Chrome-
//!   trace recording and dynamic-timing reports (stalls, utilization,
//!   buffer occupancy).
//! * [`timing`] — dynamic timing analysis, PVTA variation corners and
//!   timing-error-rate estimation.
//! * [`qnn`] — quantized (int8) CNN inference substrate with a VGG/ResNet
//!   model zoo, synthetic datasets, and fault-injection evaluation.
//!
//! # Quickstart
//!
//! Build a pipeline once, then run the paper's experiments against it:
//!
//! ```
//! use read_repro::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's comparison set (baseline vs reorder vs
//! // cluster-then-reorder) on the 16x4 output-stationary array, evaluated
//! // at the worst corner, with parallel per-layer execution.
//! let pipeline = ReadPipeline::builder()
//!     .source(Algorithm::Baseline)
//!     .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
//!     .condition(OperatingCondition::aging_vt(10.0, 0.05))
//!     .parallel()
//!     .build()?;
//!
//! // One small synthetic VGG-16 layer.
//! let config = WorkloadConfig { pixels_per_layer: 1, ..Default::default() };
//! let workloads: Vec<_> = vgg16_workloads(&config).into_iter().take(1).collect();
//!
//! // Layer-wise TER (the Fig. 8 experiment shape).
//! let report = pipeline.run_ter("vgg16", &workloads)?;
//! let (geo, _max) = report.ter_reduction("cluster-then-reorder[sign_first]", "baseline");
//! assert!(geo > 1.0, "READ reduces the timing error rate");
//!
//! // Changing the order never changes the layer's outputs.
//! let base = pipeline.layer_outputs(&workloads[0], &Algorithm::Baseline)?;
//! let read = pipeline.layer_outputs(
//!     &workloads[0],
//!     &Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
//! )?;
//! assert_eq!(base, read);
//! # Ok(())
//! # }
//! ```
//!
//! The lower-level crates remain fully usable for custom flows; the
//! [`prelude`] exports the common items from all of them.

#![forbid(unsafe_code)]

pub use accel_sim;
pub use dataflow_sim;
pub use qnn;
pub use read_core;
pub use read_pipeline;
pub use timing;

#[doc(inline)]
pub use read_pipeline::ReadPipeline;

/// Commonly used items from all substrate crates.
pub mod prelude {
    pub use accel_sim::{
        im2col, weights_to_matrix, ArrayConfig, ColumnGroup, ComputeSchedule, ConvShape,
        CycleObserver, Dataflow, GemmProblem, MacUnit, Matrix, NullObserver, PsumTraceRecorder,
        SignFlipStats, SimOptions, SimResult,
    };
    pub use dataflow_sim::{
        run_dataflow, DataflowReport, DataflowRun, EngineConfig, EventError, TraceRecorder,
    };
    pub use qnn::{
        fault::{evaluate, evaluate_topk},
        Accuracy, Dataset, FaultConfig, FlipModel, Model, QuantParams, SyntheticDatasetBuilder,
        Tensor,
    };
    pub use read_core::{
        ClusterSchedule, ClusteringMode, LayerSchedule, ReadConfig, ReadOptimizer, SortCriterion,
    };
    pub use read_pipeline::*;
    pub use timing::{
        ber_from_ter, paper_conditions, AnalyticAnalysis, DelayModel, DepthHistogram,
        MonteCarloAnalysis, OperatingCondition, OperatingCorner, PeOffsets, TerEstimate,
        TimingAnalysis, Variation,
    };
}
