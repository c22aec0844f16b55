//! Event-driven dataflow simulation for the READ reproduction.
//!
//! The analytic simulator in [`accel_sim`] executes a schedule as a nested
//! loop and assumes every MAC issues back to back; it cannot see pipeline
//! dynamics — stalls, backpressure, or buffer sizing.  This crate adds a
//! second, independent engine in the style of DAM-like simulators: the
//! array is modelled as a set of **contexts** (operand feeders, the PE
//! array, the psum spill buffer, the output accumulator) that each own a
//! **local clock** and exchange typed tokens (activations, weights, psums)
//! over **bounded channels** with blocking send/recv semantics.  Stalls and
//! backpressure *emerge* from channel occupancy instead of being assumed
//! away.
//!
//! Both [`accel_sim::Dataflow`] mappings are implemented:
//!
//! * **Output-stationary** — the PE context performs each output's whole
//!   reduction locally and emits the finished psum to the accumulator.
//! * **Weight-stationary** — the reduction is tiled into row-tiles of the
//!   array; between tiles each output's partial sum is **spilled to and
//!   reloaded from an explicit psum-buffer context**, so WS buffer traffic
//!   (and its capacity-induced stalls) is first-class.
//!
//! The engine drives the existing [`accel_sim::CycleObserver`] seam: every
//! MAC cycle is fed through `on_cycle`/`on_output_done` exactly as the
//! analytic path does, so `timing::DepthHistogram` and any other cycle
//! observer consume it unchanged.  Because the
//! program lowered onto the contexts performs the **same MAC multiset in
//! the same per-output order** as [`GemmProblem::simulate_with_schedule`]
//! (WS psums round-trip through the idempotent `MacUnit::load`), any
//! order-insensitive observer tally — the depth histogram in particular —
//! is **byte-identical** to the analytic engine's, property-tested in the
//! workspace test suite.
//!
//! On top of the engine:
//!
//! * [`TraceRecorder`] + [`TraceRecorder::to_chrome_json`] — a std-only
//!   Chrome-trace-format (JSON) writer: one track per context, complete
//!   events for compute/stall/drain phases, counter events for channel
//!   occupancy.  Open the file in `chrome://tracing` or Perfetto.
//! * [`DataflowReport`] — a typed report (cycles, utilization, stall
//!   breakdown per context, peak buffer occupancy) with a deterministic
//!   [`DataflowReport::to_json`] and an exact wire round trip
//!   ([`DataflowReport::to_wire`]/[`DataflowReport::from_wire`]) so probe
//!   results memoize through the pipeline's artifact store.
//!
//! # Example
//!
//! ```
//! use accel_sim::{ArrayConfig, ComputeSchedule, Dataflow, GemmProblem, Matrix, NullObserver, SimOptions};
//! use dataflow_sim::{run_dataflow, EngineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = Matrix::from_fn(6, 2, |r, c| (r as i8) - 3 + c as i8);
//! let a = Matrix::from_fn(6, 5, |r, c| ((r + c) % 3) as i8);
//! let problem = GemmProblem::new(w, a)?;
//! let schedule = ComputeSchedule::baseline(6, 2, 2);
//! let run = run_dataflow(
//!     &problem,
//!     &ArrayConfig::new(4, 2),
//!     Dataflow::WeightStationary,
//!     &schedule,
//!     &SimOptions::exhaustive(),
//!     &EngineConfig::default(),
//!     &mut NullObserver,
//!     None,
//! )?;
//! assert_eq!(run.outputs, problem.reference_output()?);
//! assert!(run.report.peak_psum_buffer > 0, "WS spills between row tiles");
//! # Ok(())
//! # }
//! ```
//!
//! [`GemmProblem::simulate_with_schedule`]: accel_sim::GemmProblem::simulate_with_schedule

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod json;
mod report;
mod trace;

pub use engine::{run_dataflow, DataflowRun, EngineConfig, EventError};
pub use report::{ChannelReport, ContextReport, DataflowReport};
pub use trace::TraceRecorder;
