//! Timing-error modelling for MAC datapaths under PVTA variations.
//!
//! The READ paper evaluates timing errors with a commercial dynamic-timing
//! -analysis flow (PrimeTime STA on a synthesized Nangate-15nm MAC,
//! SiliconSmart LVF libraries at voltage/temperature corners, and an NBTI
//! aging model).  This crate rebuilds that flow as a behavioural model:
//!
//! * [`delay::DelayModel`] — a parametric delay model of the MAC datapath:
//!   a fixed multiplier stage plus an accumulator whose delay grows with the
//!   carry-propagation depth actually exercised by each cycle's operands.
//! * [`pvta::OperatingCondition`] — the voltage/temperature/aging corners
//!   used in the paper (Ideal, VT-3 %, VT-5 %, Aging-10y, and combinations),
//!   mapped to delay derating factors.
//! * [`dta::DepthHistogram`] — an [`accel_sim::CycleObserver`] that records
//!   the carry depth each simulated MAC cycle triggers.  A cycle's error
//!   probability depends only on that depth and the corner — the triggered
//!   path delay against the clock period chosen by static timing analysis
//!   — so one histogram yields the timing error rate (TER) at every corner.
//! * [`analysis`] — the unified [`TimingAnalysis`] interface: analytic,
//!   Monte-Carlo and per-PE-variation TER derivation from one triggered
//!   -depth histogram, at an [`OperatingCorner`] (condition + silicon
//!   [`Variation`]).  This is the seam the pipeline crate's `ErrorModel`
//!   stage builds on.
//! * [`ter`] — the paper's Eq. (1) conversion from MAC-level TER to
//!   activation-level BER, and its inverse.
//!
//! The model is calibrated so that the *mechanism* matches the paper: the
//! partial-sum sign flip is the critical input pattern, nominal conditions
//! are error-free, and increasing PVTA stress moves the deepest triggered
//! paths past the clock edge first.
//!
//! # Example
//!
//! ```
//! use accel_sim::{ArrayConfig, Dataflow, GemmProblem, Matrix, SimOptions};
//! use timing::{DelayModel, DepthHistogram, OperatingCondition};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let weights = Matrix::from_fn(64, 4, |r, c| ((r * 17 + c * 5) % 13) as i8 - 6);
//! let acts = Matrix::from_fn(64, 8, |r, c| ((r + 3 * c) % 7) as i8);
//! let problem = GemmProblem::new(weights, acts)?;
//!
//! // One simulation pass records the triggered depths...
//! let mut hist = DepthHistogram::new();
//! problem.simulate(
//!     &ArrayConfig::paper_default(),
//!     Dataflow::OutputStationary,
//!     &SimOptions::exhaustive(),
//!     &mut hist,
//! )?;
//! // ...and yields the TER at any corner without simulating again.
//! let delay = DelayModel::nangate15_like();
//! let ideal = hist.ter(&delay, &OperatingCondition::ideal());
//! let stressed = hist.ter(&delay, &OperatingCondition::aging_vt(10.0, 0.05));
//! assert!(ideal <= stressed && stressed <= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod delay;
pub mod dta;
pub mod math;
pub mod pvta;
pub mod ter;

pub use analysis::{
    AnalyticAnalysis, MonteCarloAnalysis, OperatingCorner, PeOffsets, TerEstimate, TimingAnalysis,
    Variation,
};
pub use delay::DelayModel;
pub use dta::DepthHistogram;
pub use pvta::{paper_conditions, AgingModel, OperatingCondition, PAPER_CONDITIONS};
pub use ter::{ber_from_ter, ter_for_target_ber};
