//! The READ optimization pipeline: (optionally) cluster the output channels,
//! then reorder the input channels of every cluster, and emit a layer
//! schedule that drives the accelerator.

use accel_sim::{ColumnGroup, ComputeSchedule, Matrix, SimError};

use crate::cluster::{BalancedKMeans, DistanceMetric};
use crate::error::ReadError;
use crate::kernels::{sign_flips_for_order_with, SignFlipScratch};
use crate::lut::AddressLut;
use crate::reorder::{sort_input_channels, SortCriterion};

/// How output channels are grouped before reordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ClusteringMode {
    /// Keep the baseline consecutive segmentation of output channels
    /// (the paper's plain "Reorder" configuration).
    Direct,
    /// Cluster output channels by weight-sign similarity before segmenting
    /// (the paper's "Cluster-then-Reorder" configuration, its best result).
    #[default]
    ClusterThenReorder,
}

impl ClusteringMode {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ClusteringMode::Direct => "reorder",
            ClusteringMode::ClusterThenReorder => "cluster-then-reorder",
        }
    }
}

/// Configuration of the READ optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadConfig {
    /// Input-channel sorting criterion (Algorithm 1).
    pub criterion: SortCriterion,
    /// Output-channel grouping mode.
    pub clustering: ClusteringMode,
    /// Distance metric used when clustering.
    pub metric: DistanceMetric,
    /// Iteration cap for the balanced k-means clustering.
    pub max_cluster_iterations: usize,
    /// Seed for clustering initialisation (and the `Random` criterion).
    pub seed: u64,
}

impl Default for ReadConfig {
    fn default() -> Self {
        ReadConfig {
            criterion: SortCriterion::SignFirst,
            clustering: ClusteringMode::ClusterThenReorder,
            metric: DistanceMetric::SignManhattan,
            max_cluster_iterations: 30,
            seed: 0x5EED,
        }
    }
}

/// One cluster of a [`LayerSchedule`]: the output channels it contains and
/// the shared input-channel order used to compute them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClusterSchedule {
    /// Output-channel indices in this cluster.
    pub columns: Vec<usize>,
    /// Input-channel (reduction-row) visiting order shared by the cluster.
    pub order: Vec<usize>,
}

/// The complete computing schedule of one layer produced by READ.
///
/// A schedule never changes the layer's numerical result — it only fixes the
/// grouping of output channels and the order in which the reduction is
/// accumulated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerSchedule {
    clusters: Vec<ClusterSchedule>,
    reduction_len: usize,
    num_channels: usize,
}

impl LayerSchedule {
    /// The baseline schedule of an unmodified accelerator: consecutive
    /// groups of `cols_per_group` output channels, natural reduction order.
    pub fn baseline(reduction_len: usize, num_channels: usize, cols_per_group: usize) -> Self {
        let cols_per_group = cols_per_group.max(1);
        let clusters = (0..num_channels)
            .collect::<Vec<_>>()
            .chunks(cols_per_group)
            .map(|chunk| ClusterSchedule {
                columns: chunk.to_vec(),
                order: (0..reduction_len).collect(),
            })
            .collect();
        LayerSchedule {
            clusters,
            reduction_len,
            num_channels,
        }
    }

    /// Creates a schedule from explicit clusters.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::InvalidOrder`] if the clusters do not form a
    /// consistent schedule (wrong order lengths, duplicate or missing
    /// channels).
    pub fn new(
        clusters: Vec<ClusterSchedule>,
        reduction_len: usize,
        num_channels: usize,
    ) -> Result<Self, ReadError> {
        let schedule = LayerSchedule {
            clusters,
            reduction_len,
            num_channels,
        };
        schedule
            .try_compute_schedule()
            .and_then(|compute| compute.validate(reduction_len, num_channels))
            .map_err(|e| ReadError::InvalidOrder {
                reason: e.to_string(),
            })?;
        Ok(schedule)
    }

    /// The clusters of this schedule.
    pub fn clusters(&self) -> &[ClusterSchedule] {
        &self.clusters
    }

    /// Length of the reduction dimension this schedule was built for.
    pub fn reduction_len(&self) -> usize {
        self.reduction_len
    }

    /// Number of output channels this schedule covers.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// The order in which output channels are produced (concatenation of the
    /// cluster column lists) — the order the next layer must account for.
    pub fn output_channel_order(&self) -> Vec<usize> {
        self.clusters
            .iter()
            .flat_map(|c| c.columns.iter().copied())
            .collect()
    }

    /// Converts the schedule into the simulator's [`ComputeSchedule`], whose
    /// row orders hold `u32` indices.
    ///
    /// # Panics
    ///
    /// If a row index exceeds `u32::MAX`: [`LayerSchedule::new`] refuses
    /// such a schedule, and the others cover a reduction no
    /// [`accel_sim::GemmProblem`] accepts.
    pub fn to_compute_schedule(&self) -> ComputeSchedule {
        self.try_compute_schedule()
            .expect("row indices of a layer schedule fit u32")
    }

    fn try_compute_schedule(&self) -> Result<ComputeSchedule, SimError> {
        self.clusters
            .iter()
            .map(|c| ColumnGroup::new(c.columns.clone(), &c.order))
            .collect::<Result<_, _>>()
            .map(ComputeSchedule::new)
    }

    /// Builds the IFMAP address LUT realizing this schedule in hardware.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::EmptyWeights`] for a schedule without clusters.
    pub fn lut(&self) -> Result<AddressLut, ReadError> {
        AddressLut::from_orders(self.clusters.iter().map(|c| c.order.clone()).collect())
    }

    /// Total partial-sum sign flips of this schedule on the given weight
    /// matrix (unit activations unless `activations` is provided) — the
    /// optimizer's objective.
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::InvalidOrder`] if the schedule does not match
    /// the matrix dimensions.
    pub fn total_sign_flips(
        &self,
        weights: &Matrix<i8>,
        activations: Option<&[i8]>,
    ) -> Result<u64, ReadError> {
        // One scratch serves every cluster: after the first cluster the
        // scoring loop is allocation-free (see tests/alloc_regression.rs).
        let mut scratch = SignFlipScratch::new();
        let mut total = 0;
        for cluster in &self.clusters {
            total += sign_flips_for_order_with(
                &mut scratch,
                weights,
                &cluster.columns,
                &cluster.order,
                activations,
            )?;
        }
        Ok(total)
    }
}

/// The READ optimizer: produces a [`LayerSchedule`] for a weight matrix.
///
/// # Example
///
/// ```
/// use accel_sim::Matrix;
/// use read_core::{ReadConfig, ReadOptimizer};
///
/// # fn main() -> Result<(), read_core::ReadError> {
/// let weights = Matrix::from_fn(32, 8, |r, c| (((r * 5 + c * 11) % 17) as i8) - 8);
/// let schedule = ReadOptimizer::new(ReadConfig::default()).optimize(&weights, 4)?;
/// let baseline = read_core::LayerSchedule::baseline(32, 8, 4);
/// assert!(
///     schedule.total_sign_flips(&weights, None)? <= baseline.total_sign_flips(&weights, None)?
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReadOptimizer {
    config: ReadConfig,
}

impl ReadOptimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: ReadConfig) -> Self {
        ReadOptimizer { config }
    }

    /// The optimizer's configuration.
    pub fn config(&self) -> &ReadConfig {
        &self.config
    }

    /// Optimizes the computing schedule of a `C x K` weight matrix for an
    /// array that processes `cols_per_group` output channels simultaneously
    /// (the array column count `Ac`).
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::EmptyWeights`] for an empty matrix and
    /// [`ReadError::InvalidGrouping`] when `cols_per_group` is zero.
    pub fn optimize(
        &self,
        weights: &Matrix<i8>,
        cols_per_group: usize,
    ) -> Result<LayerSchedule, ReadError> {
        if weights.is_empty() {
            return Err(ReadError::EmptyWeights);
        }
        if cols_per_group == 0 {
            return Err(ReadError::InvalidGrouping {
                reason: "columns per group must be non-zero".into(),
            });
        }
        let groups: Vec<Vec<usize>> = match self.config.clustering {
            ClusteringMode::Direct => (0..weights.cols())
                .collect::<Vec<_>>()
                .chunks(cols_per_group)
                .map(<[usize]>::to_vec)
                .collect(),
            ClusteringMode::ClusterThenReorder => {
                BalancedKMeans::new(cols_per_group, self.config.metric)
                    .with_max_iterations(self.config.max_cluster_iterations)
                    .with_seed(self.config.seed)
                    .run(weights)?
                    .clusters
            }
        };
        let clusters = groups
            .into_iter()
            .map(|columns| {
                let order = sort_input_channels(weights, &columns, self.config.criterion)?;
                Ok(ClusterSchedule { columns, order })
            })
            .collect::<Result<Vec<_>, ReadError>>()?;
        Ok(LayerSchedule {
            clusters,
            reduction_len: weights.rows(),
            num_channels: weights.cols(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{ArrayConfig, Dataflow, GemmProblem, NullObserver};

    fn demo_weights(rows: usize, cols: usize, seed: u64) -> Matrix<i8> {
        Matrix::from_fn(rows, cols, |r, c| {
            let x = (r as u64 * 31 + c as u64 * 17 + seed)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .rotate_left(13);
            ((x % 23) as i8) - 11
        })
    }

    #[test]
    fn baseline_schedule_is_identity() {
        let s = LayerSchedule::baseline(16, 10, 4);
        assert_eq!(s.clusters().len(), 3);
        assert_eq!(s.output_channel_order(), (0..10).collect::<Vec<_>>());
        assert_eq!(s.clusters()[0].order, (0..16).collect::<Vec<_>>());
        assert!(s.to_compute_schedule().validate(16, 10).is_ok());
    }

    #[test]
    fn optimizer_reduces_sign_flips_in_both_modes() {
        let w = demo_weights(96, 16, 1);
        let baseline = LayerSchedule::baseline(96, 16, 4);
        let base_flips = baseline.total_sign_flips(&w, None).unwrap();
        for clustering in [ClusteringMode::Direct, ClusteringMode::ClusterThenReorder] {
            let schedule = ReadOptimizer::new(ReadConfig {
                clustering,
                ..ReadConfig::default()
            })
            .optimize(&w, 4)
            .unwrap();
            let flips = schedule.total_sign_flips(&w, None).unwrap();
            assert!(
                flips < base_flips,
                "{}: {flips} >= {base_flips}",
                clustering.name()
            );
        }
    }

    #[test]
    fn cluster_then_reorder_is_at_least_as_good_as_direct() {
        // Averaged over several matrices the clustered variant must not be
        // worse; on sign-structured weights it is strictly better.
        let mut direct_total = 0u64;
        let mut clustered_total = 0u64;
        for seed in 0..5 {
            let w = demo_weights(64, 32, seed);
            let direct = ReadOptimizer::new(ReadConfig {
                clustering: ClusteringMode::Direct,
                ..ReadConfig::default()
            })
            .optimize(&w, 8)
            .unwrap();
            let clustered = ReadOptimizer::new(ReadConfig {
                clustering: ClusteringMode::ClusterThenReorder,
                ..ReadConfig::default()
            })
            .optimize(&w, 8)
            .unwrap();
            direct_total += direct.total_sign_flips(&w, None).unwrap();
            clustered_total += clustered.total_sign_flips(&w, None).unwrap();
        }
        assert!(
            clustered_total <= direct_total + direct_total / 10,
            "clustered {clustered_total} vs direct {direct_total}"
        );
    }

    #[test]
    fn schedule_preserves_gemm_result() {
        let w = demo_weights(48, 8, 3);
        let a = Matrix::from_fn(48, 10, |r, c| ((r * 3 + c) % 6) as i8);
        let problem = GemmProblem::new(w.clone(), a).unwrap();
        let schedule = ReadOptimizer::new(ReadConfig::default())
            .optimize(&w, 4)
            .unwrap();
        let mut obs = NullObserver;
        let optimized = problem
            .simulate_with_schedule(
                &ArrayConfig::new(4, 4),
                Dataflow::OutputStationary,
                &schedule.to_compute_schedule(),
                &mut obs,
            )
            .unwrap();
        assert_eq!(optimized.outputs, problem.reference_output().unwrap());
    }

    #[test]
    fn schedule_lut_matches_cluster_orders() {
        let w = demo_weights(32, 8, 5);
        let schedule = ReadOptimizer::new(ReadConfig::default())
            .optimize(&w, 4)
            .unwrap();
        let lut = schedule.lut().unwrap();
        assert_eq!(lut.num_clusters(), schedule.clusters().len());
        for (ci, cluster) in schedule.clusters().iter().enumerate() {
            assert_eq!(lut.order(ci).unwrap(), cluster.order.as_slice());
        }
    }

    #[test]
    fn explicit_schedule_validation() {
        let good = LayerSchedule::new(
            vec![
                ClusterSchedule {
                    columns: vec![0, 1],
                    order: vec![1, 0],
                },
                ClusterSchedule {
                    columns: vec![2],
                    order: vec![0, 1],
                },
            ],
            2,
            3,
        );
        assert!(good.is_ok());
        let bad = LayerSchedule::new(
            vec![ClusterSchedule {
                columns: vec![0, 0],
                order: vec![0, 1],
            }],
            2,
            1,
        );
        assert!(bad.is_err());
        // A row index the simulator's `u32` orders cannot hold is refused,
        // not truncated.
        let beyond_u32 = LayerSchedule::new(
            vec![ClusterSchedule {
                columns: vec![0],
                order: vec![0, u32::MAX as usize + 1],
            }],
            2,
            1,
        );
        assert!(matches!(beyond_u32, Err(ReadError::InvalidOrder { .. })));
    }

    /// The simulator's schedule of a cluster-then-reorder result keeps every
    /// cluster's columns and order, and survives its wire text unchanged.
    #[test]
    fn cluster_then_reorder_schedule_round_trips_through_the_wire() {
        let w = demo_weights(200, 16, 7);
        let layer = ReadOptimizer::new(ReadConfig::default())
            .optimize(&w, 4)
            .unwrap();
        let compute = layer.to_compute_schedule();
        for (group, cluster) in compute.groups().iter().zip(layer.clusters()) {
            assert_eq!(group.columns, cluster.columns);
            assert!(group
                .row_order
                .iter()
                .map(|&r| r as usize)
                .eq(cluster.order.iter().copied()));
        }
        assert_eq!(
            ComputeSchedule::from_wire(&compute.to_wire()),
            Some(compute)
        );
    }

    #[test]
    fn optimizer_rejects_invalid_inputs() {
        let w = demo_weights(8, 4, 0);
        let opt = ReadOptimizer::new(ReadConfig::default());
        assert!(opt.optimize(&w, 0).is_err());
        assert!(opt.optimize(&Matrix::<i8>::zeros(0, 0), 4).is_err());
    }

    #[test]
    fn config_accessors_and_names() {
        let opt = ReadOptimizer::default();
        assert_eq!(opt.config().clustering, ClusteringMode::ClusterThenReorder);
        assert_eq!(ClusteringMode::Direct.name(), "reorder");
        assert_eq!(
            ClusteringMode::ClusterThenReorder.name(),
            "cluster-then-reorder"
        );
    }

    #[test]
    fn larger_groups_reduce_less() {
        // With more columns per group a single shared order must compromise
        // across more channels, so the residual sign flips grow (Fig. 7).
        let w = demo_weights(128, 32, 9);
        let flips_per_group_size: Vec<u64> = [4usize, 16, 32]
            .iter()
            .map(|&g| {
                ReadOptimizer::new(ReadConfig {
                    clustering: ClusteringMode::Direct,
                    ..ReadConfig::default()
                })
                .optimize(&w, g)
                .unwrap()
                .total_sign_flips(&w, None)
                .unwrap()
            })
            .collect();
        assert!(flips_per_group_size[0] <= flips_per_group_size[1]);
        assert!(flips_per_group_size[1] <= flips_per_group_size[2]);
    }
}
