//! READ: Reliability-Enhanced Accelerator Dataflow optimization.
//!
//! This crate implements the paper's contribution: a post-training dataflow
//! optimization that reduces the *critical input patterns* (partial-sum sign
//! flips) of a spatial DNN accelerator by choosing the order in which the
//! multiply-accumulate operations of a convolution are performed.
//!
//! The optimization has three pieces:
//!
//! * **Input-channel reordering** ([`reorder`]) — Algorithm 1 of the paper:
//!   sort the input channels of a weight sub-matrix so that non-negative
//!   weights are computed first (`sign_first`) or so that the running sum
//!   stays positive as long as possible (`mag_first`).  With non-negative
//!   (post-ReLU) activations this makes the partial sum rise monotonically
//!   and then fall, so the sign flips at most once per output.
//! * **Output-channel clustering** ([`cluster`]) — group output channels
//!   with similar weight-sign patterns before segmenting the weight matrix
//!   onto the array columns, so that one shared channel order suits every
//!   column of a group (Problem 2, solved with balanced k-means under the
//!   sign-difference metric).
//! * **Schedules and hardware support** ([`optimizer`], [`lut`],
//!   [`schedule`]) — the cluster-then-reorder pipeline that produces a
//!   [`LayerSchedule`], the IFMAP address-LUT model that realizes the
//!   activation reordering in hardware, and the cross-layer propagation of
//!   output-channel orders.
//!
//! Changing the computation order never changes the convolution result; the
//! crate's tests and the property tests assert this invariant throughout.
//!
//! # Example
//!
//! ```
//! use accel_sim::Matrix;
//! use read_core::{ClusteringMode, ReadConfig, ReadOptimizer, SortCriterion};
//!
//! # fn main() -> Result<(), read_core::ReadError> {
//! // A 64-input-channel x 16-output-channel weight matrix.
//! let weights = Matrix::from_fn(64, 16, |r, c| (((r * 23 + c * 7) % 13) as i8) - 6);
//! let optimizer = ReadOptimizer::new(ReadConfig {
//!     criterion: SortCriterion::SignFirst,
//!     clustering: ClusteringMode::ClusterThenReorder,
//!     ..ReadConfig::default()
//! });
//! // Map onto an array with 4 columns: 4 clusters of 4 output channels.
//! let schedule = optimizer.optimize(&weights, 4)?;
//! assert_eq!(schedule.clusters().len(), 4);
//! // The schedule can drive the cycle-level simulator directly.
//! let compute = schedule.to_compute_schedule();
//! assert!(compute.validate(64, 16).is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod kernels;
pub mod lut;
pub mod metrics;
pub mod optimizer;
pub mod related_work;
pub mod reorder;
pub mod schedule;

pub use cluster::{
    cluster_sign_difference, sign_difference, BalancedKMeans, ClusterResult, DistanceMetric,
};
pub use error::ReadError;
pub use kernels::{sign_flips_for_order_with, SignFlipScratch};
pub use lut::AddressLut;
pub use metrics::{
    channel_stats, count_sign_flips, nonneg_quantile_profile, nonneg_ratio_in_top,
    sign_flips_for_order, sign_flips_for_order_scalar, weight_is_nonneg, WeightColumnStats,
};
pub use optimizer::{ClusterSchedule, ClusteringMode, LayerSchedule, ReadConfig, ReadOptimizer};
pub use related_work::{technique_comparison, Technique};
pub use reorder::{sort_input_channels, SortCriterion};
pub use schedule::{
    expand_channel_order_to_rows, permute_input_channels, LayerDescriptor, NetworkScheduler,
    ScheduledLayer,
};
