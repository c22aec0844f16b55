//! Experiment harness for the READ reproduction.
//!
//! The benches under `benches/` regenerate every table and figure of the
//! paper's evaluation section; this library holds the shared machinery:
//! the figure pipelines and experiment runners over
//! [`read_pipeline::ReadPipeline`], plain-text table printing, and the A/B
//! timing harness of the throughput benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod experiments;
pub mod report;
