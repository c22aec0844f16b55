//! Cycle-level simulator for 2-D spatial (systolic-array) DNN accelerators.
//!
//! This crate provides the hardware substrate used by the READ reproduction:
//! an exact-integer model of the multiply-accumulate (MAC) datapath used by
//! TPU-style accelerators (8-bit operands, 24-bit accumulator), the
//! output-stationary and weight-stationary dataflows that map a convolution
//! onto a rectangular processing-element (PE) array, and the per-cycle traces
//! (partial-sum values, carry-chain activity, sign flips) that the timing
//! model consumes.
//!
//! The simulator is *functional + micro-architectural*: it computes the exact
//! arithmetic result of every MAC operation and, for every cycle, the
//! structural information (carry-propagation length, toggled bits, sign flip
//! of the partial sum) that determines which timing paths are triggered.  It
//! deliberately does not model wiring, clock distribution or memory timing —
//! those are not input-pattern dependent and are irrelevant to the READ
//! mechanism.
//!
//! # Example
//!
//! Map a small 1x1 convolution onto a 4x2 output-stationary array and count
//! partial-sum sign flips:
//!
//! ```
//! use accel_sim::{ArrayConfig, ConvShape, Dataflow, GemmProblem, Matrix, SignFlipStats};
//!
//! # fn main() -> Result<(), accel_sim::SimError> {
//! let shape = ConvShape::pointwise(1, 8, 4, 4, 4); // N=1, C=8, H=W=4, K=4
//! let weights = Matrix::from_fn(8, 4, |r, c| ((r * 3 + c * 7) % 5) as i8 - 2);
//! let acts = Matrix::from_fn(8, 16, |r, c| ((r + c) % 4) as i8);
//! let problem = GemmProblem::new(weights, acts)?;
//! let array = ArrayConfig::new(4, 2);
//! let mut stats = SignFlipStats::default();
//! problem.simulate(&array, Dataflow::OutputStationary, &mut stats)?;
//! assert_eq!(stats.total_macs, 8 * 16 * 4);
//! # let _ = shape;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bitplane;
pub mod conv;
pub mod dataflow;
pub mod error;
pub mod gemm;
pub mod kernels;
pub mod mac;
pub mod matrix;
pub mod schedule;
pub mod trace;

pub use array::ArrayConfig;
pub use conv::{im2col, weights_to_matrix, ConvShape};
pub use dataflow::Dataflow;
pub use error::SimError;
pub use gemm::{GemmProblem, SimResult};
pub use mac::{carry_chain_length, MacCycle, MacUnit, ACC_BITS};
pub use matrix::Matrix;
pub use schedule::{ColumnGroup, ComputeSchedule};
pub use trace::{
    CycleContext, CycleObserver, DepthWord, DepthWordSink, NullObserver, PsumTraceRecorder,
    ScalarPath, SignFlipStats, TeeObserver,
};
