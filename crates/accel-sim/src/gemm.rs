//! The GEMM problem a layer lowers to, and its execution on the PE array
//! under a chosen dataflow and compute schedule.

use std::sync::Arc;

use crate::array::ArrayConfig;
use crate::dataflow::Dataflow;
use crate::error::SimError;
use crate::mac::MacUnit;
use crate::matrix::Matrix;
use crate::schedule::ComputeSchedule;
use crate::trace::{CycleContext, CycleObserver};

/// Result of executing a GEMM on the array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Output matrix (`K x M`).
    pub outputs: Matrix<i32>,
    /// Total number of MAC cycles issued.
    pub total_cycles: u64,
}

/// A layer lowered to the `out[k][m] = Σ_r W[r][k] * A[r][m]` GEMM form.
///
/// `W` is the `R x K` weight matrix (reduction rows x output channels) and
/// `A` the `R x M` activation matrix (reduction rows x output pixels).
/// The problem shares both matrices with whoever else holds them (a layer
/// workload simulated many times builds each problem without a copy).
///
/// # Example
///
/// ```
/// use accel_sim::{ArrayConfig, ComputeSchedule, Dataflow, GemmProblem, Matrix, SignFlipStats};
///
/// # fn main() -> Result<(), accel_sim::SimError> {
/// let w = Matrix::from_fn(6, 2, |r, c| (r as i8) - 3 + c as i8);
/// let a = Matrix::from_fn(6, 5, |r, c| ((r + c) % 3) as i8);
/// let problem = GemmProblem::new(w, a)?;
/// let mut stats = SignFlipStats::new();
/// let array = ArrayConfig::new(4, 2);
/// let result = problem.simulate(&array, Dataflow::OutputStationary, &mut stats)?;
/// assert_eq!(result.outputs, problem.reference_output()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmProblem {
    weights: Arc<Matrix<i8>>,
    activations: Arc<Matrix<i8>>,
}

impl GemmProblem {
    /// Creates a GEMM problem from a weight matrix (`R x K`) and an
    /// activation matrix (`R x M`), owned or shared.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DimensionMismatch`] if the reduction dimensions
    /// differ, [`SimError::EmptyDimension`] if any dimension is zero, or
    /// [`SimError::TooLarge`] for a reduction longer than `u32::MAX` rows
    /// (a [`ColumnGroup`](crate::ColumnGroup) row order holds `u32`s).
    pub fn new(
        weights: impl Into<Arc<Matrix<i8>>>,
        activations: impl Into<Arc<Matrix<i8>>>,
    ) -> Result<Self, SimError> {
        let (weights, activations) = (weights.into(), activations.into());
        Self::check(&weights, &activations)?;
        Ok(GemmProblem {
            weights,
            activations,
        })
    }

    /// Checks, without taking the matrices, that a weight matrix and an
    /// activation matrix form a GEMM problem: [`GemmProblem::new`] accepts
    /// exactly the pairs this accepts.
    ///
    /// # Errors
    ///
    /// The errors of [`GemmProblem::new`].
    pub fn check(weights: &Matrix<i8>, activations: &Matrix<i8>) -> Result<(), SimError> {
        if weights.rows() != activations.rows() {
            return Err(SimError::DimensionMismatch {
                what: "reduction length",
                left: weights.rows(),
                right: activations.rows(),
            });
        }
        if weights.rows() == 0 {
            return Err(SimError::EmptyDimension {
                what: "reduction length",
            });
        }
        if u32::try_from(weights.rows()).is_err() {
            return Err(SimError::TooLarge {
                what: "reduction length",
                len: weights.rows(),
                max: u32::MAX as usize,
            });
        }
        if weights.cols() == 0 {
            return Err(SimError::EmptyDimension {
                what: "output channels",
            });
        }
        if activations.cols() == 0 {
            return Err(SimError::EmptyDimension {
                what: "output pixels",
            });
        }
        Ok(())
    }

    /// The weight matrix (`R x K`).
    pub fn weights(&self) -> &Matrix<i8> {
        &self.weights
    }

    /// The activation matrix (`R x M`).
    pub fn activations(&self) -> &Matrix<i8> {
        &self.activations
    }

    /// Length of the reduction dimension `R`.
    pub fn reduction_len(&self) -> usize {
        self.weights.rows()
    }

    /// Number of output channels `K`.
    pub fn num_channels(&self) -> usize {
        self.weights.cols()
    }

    /// Number of output pixels `M`.
    pub fn num_pixels(&self) -> usize {
        self.activations.cols()
    }

    /// The order-independent reference output, computed directly.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the underlying matrices (cannot
    /// occur for a validated problem).
    pub fn reference_output(&self) -> Result<Matrix<i32>, SimError> {
        self.weights.gemm_reference(&self.activations)
    }

    /// Executes the GEMM with the baseline schedule for the given array.
    ///
    /// # Errors
    ///
    /// See [`GemmProblem::simulate_with_schedule`].
    pub fn simulate<O: CycleObserver + ?Sized>(
        &self,
        array: &ArrayConfig,
        dataflow: Dataflow,
        observer: &mut O,
    ) -> Result<SimResult, SimError> {
        let schedule =
            ComputeSchedule::baseline(self.reduction_len(), self.num_channels(), array.cols());
        self.simulate_with_schedule(array, dataflow, &schedule, observer)
    }

    /// Executes the GEMM under an explicit compute schedule (e.g. one
    /// produced by the READ optimizer) over every output pixel, streaming
    /// every MAC cycle to the observer.
    ///
    /// The functional result is independent of the schedule; only the cycle
    /// statistics change.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSchedule`] if the schedule does not cover
    /// the problem's channels or reorders a non-existent row.
    pub fn simulate_with_schedule<O: CycleObserver + ?Sized>(
        &self,
        array: &ArrayConfig,
        dataflow: Dataflow,
        schedule: &ComputeSchedule,
        observer: &mut O,
    ) -> Result<SimResult, SimError> {
        schedule.validate(self.reduction_len(), self.num_channels())?;
        let mut outputs = Matrix::zeros(self.num_channels(), self.num_pixels());
        let mut total_cycles = 0u64;

        // Observers that only need depth/sign statistics opt into the
        // word-parallel kernel (64 outputs per reduction step, drawn from
        // any groups, channels and pixels).  Both
        // dataflows perform the same per-output additions in the same order
        // (weight-stationary tiling only interleaves outputs and round-trips
        // psums through the idempotent `MacUnit::load`), so the cycle
        // multiset — and hence any order-insensitive tally — is identical to
        // the scalar path below, for either dataflow.
        let packed = match observer.depth_word_sink() {
            Some(sink) => {
                crate::kernels::run_depth_words(
                    &self.weights,
                    &self.activations,
                    schedule,
                    sink,
                    &mut outputs,
                    &mut total_cycles,
                );
                true
            }
            None => false,
        };
        if packed {
            return Ok(SimResult {
                outputs,
                total_cycles,
            });
        }

        match dataflow {
            Dataflow::OutputStationary => {
                self.run_output_stationary(schedule, observer, &mut outputs, &mut total_cycles);
            }
            Dataflow::WeightStationary => {
                self.run_weight_stationary(
                    array,
                    schedule,
                    observer,
                    &mut outputs,
                    &mut total_cycles,
                );
            }
        }

        Ok(SimResult {
            outputs,
            total_cycles,
        })
    }

    fn run_output_stationary<O: CycleObserver + ?Sized>(
        &self,
        schedule: &ComputeSchedule,
        observer: &mut O,
        outputs: &mut Matrix<i32>,
        total_cycles: &mut u64,
    ) {
        for (gi, group) in schedule.groups().iter().enumerate() {
            for pixel in 0..self.num_pixels() {
                for &channel in &group.columns {
                    let mut mac = MacUnit::new();
                    let mut ctx = CycleContext {
                        group: gi,
                        channel,
                        pixel,
                        step: 0,
                        reduction_index: 0,
                    };
                    for (step, &r) in group.row_order.iter().enumerate() {
                        let r = r as usize;
                        ctx.step = step;
                        ctx.reduction_index = r;
                        let cycle =
                            mac.mac(self.weights[(r, channel)], self.activations[(r, pixel)]);
                        observer.on_cycle(&ctx, &cycle);
                        *total_cycles += 1;
                    }
                    outputs[(channel, pixel)] = mac.psum();
                    observer.on_output_done(&ctx, mac.psum());
                }
            }
        }
    }

    fn run_weight_stationary<O: CycleObserver + ?Sized>(
        &self,
        array: &ArrayConfig,
        schedule: &ComputeSchedule,
        observer: &mut O,
        outputs: &mut Matrix<i32>,
        total_cycles: &mut u64,
    ) {
        // Weight-stationary: the reduction dimension is tiled into groups of
        // `array.rows()` weights that are pinned onto the array.  For every
        // tile, all pixels stream through before the next tile is loaded, so
        // one output's accumulation is interleaved with the other outputs
        // and its partial value round-trips through the accumulation buffer.
        for (gi, group) in schedule.groups().iter().enumerate() {
            let mut psums: Vec<Vec<i32>> = vec![vec![0i32; self.num_pixels()]; group.columns.len()];
            for (tile_no, tile) in group.row_order.chunks(array.rows()).enumerate() {
                for pixel in 0..self.num_pixels() {
                    for (ci, &channel) in group.columns.iter().enumerate() {
                        let mut mac = MacUnit::new();
                        mac.load(psums[ci][pixel]);
                        let mut ctx = CycleContext {
                            group: gi,
                            channel,
                            pixel,
                            step: 0,
                            reduction_index: 0,
                        };
                        for (i, &r) in tile.iter().enumerate() {
                            let r = r as usize;
                            ctx.step = tile_no * array.rows() + i;
                            ctx.reduction_index = r;
                            let cycle =
                                mac.mac(self.weights[(r, channel)], self.activations[(r, pixel)]);
                            observer.on_cycle(&ctx, &cycle);
                            *total_cycles += 1;
                        }
                        psums[ci][pixel] = mac.psum();
                        let is_last_tile = (tile_no + 1) * array.rows() >= group.row_order.len();
                        if is_last_tile {
                            outputs[(channel, pixel)] = mac.psum();
                            observer.on_output_done(&ctx, mac.psum());
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ColumnGroup;
    use crate::trace::{NullObserver, SignFlipStats};

    fn test_problem(r: usize, k: usize, m: usize) -> GemmProblem {
        let w = Matrix::from_fn(r, k, |i, j| (((i * 7 + j * 13) % 15) as i8) - 7);
        let a = Matrix::from_fn(r, m, |i, j| ((i * 5 + j * 3) % 8) as i8);
        GemmProblem::new(w, a).unwrap()
    }

    #[test]
    fn constructor_validates_dimensions() {
        let w = Matrix::<i8>::zeros(4, 2);
        let a = Matrix::<i8>::zeros(5, 3);
        assert!(GemmProblem::new(w, a).is_err());
        let w = Matrix::<i8>::zeros(0, 2);
        let a = Matrix::<i8>::zeros(0, 3);
        assert!(GemmProblem::new(w, a).is_err());
        // A reduction whose row indices would not fit a `u32` row order is
        // refused before the empty columns (so nothing is allocated).
        let too_long = u32::MAX as usize + 1;
        let empty = Matrix::<i8>::zeros(too_long, 0);
        assert_eq!(
            GemmProblem::check(&empty, &empty),
            Err(SimError::TooLarge {
                what: "reduction length",
                len: too_long,
                max: u32::MAX as usize,
            })
        );
    }

    #[test]
    fn output_stationary_matches_reference() {
        let p = test_problem(20, 6, 9);
        let mut obs = NullObserver;
        let res = p
            .simulate(
                &ArrayConfig::new(4, 2),
                Dataflow::OutputStationary,
                &mut obs,
            )
            .unwrap();
        assert_eq!(res.outputs, p.reference_output().unwrap());
        assert_eq!(res.total_cycles, 20 * 6 * 9);
    }

    #[test]
    fn weight_stationary_matches_reference() {
        let p = test_problem(20, 6, 9);
        let mut obs = NullObserver;
        let res = p
            .simulate(
                &ArrayConfig::new(4, 2),
                Dataflow::WeightStationary,
                &mut obs,
            )
            .unwrap();
        assert_eq!(res.outputs, p.reference_output().unwrap());
        assert_eq!(res.total_cycles, 20 * 6 * 9);
    }

    #[test]
    fn reordered_schedule_preserves_outputs() {
        let p = test_problem(16, 4, 5);
        // Reverse reduction order, reversed channel grouping.
        let schedule = ComputeSchedule::new(vec![
            ColumnGroup {
                columns: vec![3, 1],
                row_order: (0..16).rev().collect(),
            },
            ColumnGroup {
                columns: vec![0, 2],
                row_order: (0..16).collect(),
            },
        ]);
        let mut obs = NullObserver;
        let res = p
            .simulate_with_schedule(
                &ArrayConfig::new(4, 2),
                Dataflow::OutputStationary,
                &schedule,
                &mut obs,
            )
            .unwrap();
        assert_eq!(res.outputs, p.reference_output().unwrap());
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let p = test_problem(8, 4, 3);
        let schedule = ComputeSchedule::new(vec![ColumnGroup::with_identity_order(vec![0, 1], 8)]);
        let mut obs = NullObserver;
        assert!(p
            .simulate_with_schedule(
                &ArrayConfig::new(4, 2),
                Dataflow::OutputStationary,
                &schedule,
                &mut obs,
            )
            .is_err());
    }

    #[test]
    fn observer_sees_output_done_per_output() {
        let p = test_problem(8, 3, 4);
        let mut stats = SignFlipStats::new();
        p.simulate(
            &ArrayConfig::new(2, 2),
            Dataflow::OutputStationary,
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.outputs, 3 * 4);
    }

    #[test]
    fn weight_stationary_differs_in_stats_not_results() {
        let p = test_problem(32, 4, 6);
        let mut os_stats = SignFlipStats::new();
        let mut ws_stats = SignFlipStats::new();
        let array = ArrayConfig::new(8, 2);
        let os = p
            .simulate(&array, Dataflow::OutputStationary, &mut os_stats)
            .unwrap();
        let ws = p
            .simulate(&array, Dataflow::WeightStationary, &mut ws_stats)
            .unwrap();
        assert_eq!(os.outputs, ws.outputs);
        assert_eq!(os_stats.total_macs, ws_stats.total_macs);
        assert_eq!(os_stats.outputs, ws_stats.outputs);
    }
}
