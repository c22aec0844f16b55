//! Synthetic layer workloads: the paper's network layers realised with
//! synthetic trained weights and post-ReLU activations.
//!
//! (Moved here from `read-bench` so that every pipeline consumer — benches,
//! examples, tests — shares one workload vocabulary.)

use std::sync::Arc;

use accel_sim::{ConvShape, GemmProblem, Matrix};
use qnn::init::{synthetic_activations, WeightInit};
use qnn::models;

use crate::stage::fnv1a;

/// How a layer workload is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Number of output pixels (activation-matrix columns) to generate per
    /// layer.  TER is a rate, so a modest sample is sufficient; the paper's
    /// full layers would be billions of MACs.
    pub pixels_per_layer: usize,
    /// Fraction of zero activations (post-ReLU sparsity).
    pub activation_sparsity: f64,
    /// Weight sparsity (fraction of exactly-zero weights).
    pub weight_sparsity: f64,
    /// Cross-channel correlation of the weights in `[0, 1]`: trained
    /// convolution filters fall into families with similar sign patterns,
    /// which is exactly the structure output-channel clustering exploits.
    /// `0.0` makes every output channel independent; values around `0.5`
    /// mimic trained layers.
    pub channel_correlation: f64,
    /// Number of filter families the correlated component is drawn from.
    pub filter_families: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            pixels_per_layer: 4,
            activation_sparsity: 0.45,
            weight_sparsity: 0.05,
            channel_correlation: 0.55,
            filter_families: 8,
            seed: 0xBE9C4,
        }
    }
}

/// One convolution layer lowered to the GEMM form the simulator consumes.
///
/// The fields are private so that the content [`LayerWorkload::fingerprint`],
/// hashed once when the workload is built, always describes the matrices it
/// is stored beside.  The matrices are shared: a clone of the workload and
/// every [`LayerWorkload::problem`] hold them without a copy.
#[derive(Debug, Clone)]
pub struct LayerWorkload {
    name: String,
    shape: ConvShape,
    weights: Arc<Matrix<i8>>,
    activations: Arc<Matrix<i8>>,
    fingerprint: u64,
}

#[cfg(test)]
thread_local! {
    /// Calls of [`content_fingerprint`] made on this thread, so tests can
    /// count how often a code path hashes workload contents.
    pub(crate) static WORKLOAD_HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// FNV-1a over the weight and activation matrices: their four dimensions
/// as little-endian `u64`s, then the weight bytes, then the activation
/// bytes.  Histogram keys and plan signatures persist this value, so the
/// byte stream is part of the store-format contract.
fn content_fingerprint(weights: &Matrix<i8>, activations: &Matrix<i8>) -> u64 {
    #[cfg(test)]
    WORKLOAD_HASHES.with(|calls| calls.set(calls.get() + 1));
    let dims = [
        weights.rows() as u64,
        weights.cols() as u64,
        activations.rows() as u64,
        activations.cols() as u64,
    ];
    let bytes = dims
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .chain(weights.as_slice().iter().map(|&w| w as u8))
        .chain(activations.as_slice().iter().map(|&a| a as u8));
    fnv1a(bytes)
}

impl LayerWorkload {
    /// Wraps raw weight/activation matrices as a workload (a pointwise
    /// convolution shape is synthesized, so `macs_per_output` equals the
    /// reduction length).
    ///
    /// # Errors
    ///
    /// Returns [`accel_sim::SimError`] when the matrices are empty or their
    /// reduction dimensions disagree.
    pub fn from_matrices(
        name: &str,
        weights: Matrix<i8>,
        activations: Matrix<i8>,
    ) -> Result<Self, accel_sim::SimError> {
        // Validate consistency the same way the simulator will.
        GemmProblem::check(&weights, &activations)?;
        let shape = ConvShape::pointwise(
            1,
            weights.rows(),
            1,
            activations.cols().max(1),
            weights.cols(),
        );
        Ok(LayerWorkload {
            fingerprint: content_fingerprint(&weights, &activations),
            name: name.to_string(),
            shape,
            weights: Arc::new(weights),
            activations: Arc::new(activations),
        })
    }

    /// Builds a workload for one layer shape.
    pub fn generate(name: &str, shape: ConvShape, config: &WorkloadConfig, index: usize) -> Self {
        let reduction = shape.reduction_len();
        let rho = config.channel_correlation.clamp(0.0, 1.0);
        let families = config.filter_families.max(1);
        let mut proto_init =
            WeightInit::new(config.seed.wrapping_add(index as u64 * 7919)).with_sparsity(0.0);
        // Shared "filter family" component: channels of the same family have
        // correlated sign patterns, as trained filters do.
        let prototypes = Matrix::from_fn(reduction, families, |_, _| proto_init.weight(reduction));
        let mut init = WeightInit::new(config.seed.wrapping_add(index as u64 * 7919 + 1))
            .with_sparsity(config.weight_sparsity);
        let weights = Matrix::from_fn(reduction, shape.k, |r, k| {
            let idio = f64::from(init.weight(reduction));
            if idio == 0.0 {
                // Preserve the configured exact-zero sparsity.
                return 0;
            }
            let proto = f64::from(prototypes[(r, k % families)]);
            let mixed = rho.sqrt() * proto + (1.0 - rho).sqrt() * idio;
            mixed.round().clamp(-127.0, 127.0) as i8
        });
        let acts = synthetic_activations(
            reduction * config.pixels_per_layer,
            config.activation_sparsity,
            config.seed.wrapping_add(0x5A17 + index as u64),
        );
        let activations = Matrix::from_fn(reduction, config.pixels_per_layer, |r, p| {
            acts[r * config.pixels_per_layer + p]
        });
        LayerWorkload {
            fingerprint: content_fingerprint(&weights, &activations),
            name: name.to_string(),
            shape,
            weights: Arc::new(weights),
            activations: Arc::new(activations),
        }
    }

    /// Layer name (e.g. `"conv3_2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Full-size convolution shape of the layer.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Weight matrix (`reduction_len x K`).
    pub fn weights(&self) -> &Matrix<i8> {
        &self.weights
    }

    /// Activation matrix (`reduction_len x pixels`).
    pub fn activations(&self) -> &Matrix<i8> {
        &self.activations
    }

    /// Content fingerprint: FNV-1a over the weight and activation matrices
    /// (dimensions and bytes), hashed once when the workload was built.
    /// It covers contents, not the name or the convolution shape; it is
    /// the workload half of every histogram key and plan signature.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The GEMM problem of this workload, sharing its matrices: building
    /// one copies and allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`accel_sim::SimError`] when the matrices do not form a
    /// GEMM, e.g. a workload generated with zero pixels per layer.
    pub fn problem(&self) -> Result<GemmProblem, accel_sim::SimError> {
        GemmProblem::new(Arc::clone(&self.weights), Arc::clone(&self.activations))
    }

    /// MAC operations per output activation (the `N` of Eq. (1)).
    pub fn macs_per_output(&self) -> usize {
        self.shape.macs_per_output()
    }
}

fn generate_prefix(
    shapes: Vec<(String, ConvShape)>,
    base_index: usize,
    config: &WorkloadConfig,
    take: usize,
) -> Vec<LayerWorkload> {
    let take = if take == 0 { shapes.len() } else { take };
    shapes
        .into_iter()
        .take(take)
        .enumerate()
        .map(|(i, (name, shape))| LayerWorkload::generate(&name, shape, config, base_index + i))
        .collect()
}

/// Workloads for every convolution layer of VGG-16 on CIFAR-sized inputs.
pub fn vgg16_workloads(config: &WorkloadConfig) -> Vec<LayerWorkload> {
    vgg16_workloads_prefix(config, 0)
}

/// The first `take` layers of [`vgg16_workloads`] (0 = all) without
/// generating the rest.  Deep-layer weight synthesis dominates generation
/// cost, so a layer-prefix consumer — e.g. an interactive serve request —
/// should never pay for conv5 it will not simulate.  Each generated layer
/// is identical to its [`vgg16_workloads`] counterpart (per-layer seeds
/// derive from the layer index alone).
pub fn vgg16_workloads_prefix(config: &WorkloadConfig, take: usize) -> Vec<LayerWorkload> {
    generate_prefix(models::vgg16_cifar_conv_shapes(), 0, config, take)
}

/// Workloads for every main-path convolution layer of ResNet-18 on
/// CIFAR-sized inputs.
pub fn resnet18_workloads(config: &WorkloadConfig) -> Vec<LayerWorkload> {
    resnet18_workloads_prefix(config, 0)
}

/// The first `take` layers of [`resnet18_workloads`] (0 = all); see
/// [`vgg16_workloads_prefix`].
pub fn resnet18_workloads_prefix(config: &WorkloadConfig, take: usize) -> Vec<LayerWorkload> {
    generate_prefix(models::resnet18_cifar_conv_shapes(), 100, config, take)
}

/// Workloads for every main-path convolution layer of ResNet-34 on
/// ImageNet-sized inputs.
pub fn resnet34_workloads(config: &WorkloadConfig) -> Vec<LayerWorkload> {
    resnet34_workloads_prefix(config, 0)
}

/// The first `take` layers of [`resnet34_workloads`] (0 = all); see
/// [`vgg16_workloads_prefix`].
pub fn resnet34_workloads_prefix(config: &WorkloadConfig, take: usize) -> Vec<LayerWorkload> {
    generate_prefix(models::resnet34_imagenet_conv_shapes(), 200, config, take)
}

#[cfg(test)]
mod prefix_tests {
    use super::*;

    #[test]
    fn prefix_generation_matches_truncated_full_generation() {
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        let full = vgg16_workloads(&config);
        let prefix = vgg16_workloads_prefix(&config, 2);
        assert_eq!(prefix.len(), 2);
        for (p, f) in prefix.iter().zip(&full) {
            assert_eq!(p.name(), f.name());
            assert_eq!(p.weights(), f.weights());
            assert_eq!(p.activations(), f.activations());
        }
        // take = 0 and an oversized take both mean "all layers".
        assert_eq!(vgg16_workloads_prefix(&config, 0).len(), full.len());
        assert_eq!(vgg16_workloads_prefix(&config, 999).len(), full.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_workloads_cover_all_layers() {
        let config = WorkloadConfig {
            pixels_per_layer: 2,
            ..WorkloadConfig::default()
        };
        let w = vgg16_workloads(&config);
        assert_eq!(w.len(), 13);
        for layer in &w {
            assert_eq!(layer.weights().rows(), layer.shape().reduction_len());
            assert_eq!(layer.activations().cols(), 2);
            assert!(layer.activations().as_slice().iter().all(|&a| a >= 0));
        }
    }

    #[test]
    fn resnet_workloads_have_expected_counts() {
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        assert_eq!(resnet18_workloads(&config).len(), 17);
        assert_eq!(resnet34_workloads(&config).len(), 33);
    }

    #[test]
    fn workload_problem_is_consistent() {
        let config = WorkloadConfig {
            pixels_per_layer: 3,
            ..WorkloadConfig::default()
        };
        let layer = &vgg16_workloads(&config)[1];
        let p = layer.problem().unwrap();
        assert_eq!(p.reduction_len(), layer.shape().reduction_len());
        assert_eq!(p.num_pixels(), 3);
        assert_eq!(layer.macs_per_output(), layer.shape().reduction_len());
    }

    #[test]
    fn from_matrices_rejects_what_gemm_problem_new_rejects() {
        use accel_sim::SimError;
        let m = |rows, cols| Matrix::from_fn(rows, cols, |r, c| (r + c) as i8);
        let cases = [
            (
                m(4, 2),
                m(3, 5),
                SimError::DimensionMismatch {
                    what: "reduction length",
                    left: 4,
                    right: 3,
                },
            ),
            (
                m(0, 2),
                m(0, 5),
                SimError::EmptyDimension {
                    what: "reduction length",
                },
            ),
            (
                m(4, 0),
                m(4, 5),
                SimError::EmptyDimension {
                    what: "output channels",
                },
            ),
            (
                m(4, 2),
                m(4, 0),
                SimError::EmptyDimension {
                    what: "output pixels",
                },
            ),
        ];
        for (weights, activations, expected) in cases {
            let built = LayerWorkload::from_matrices("bad", weights.clone(), activations.clone());
            assert_eq!(built.unwrap_err(), expected);
            assert_eq!(
                GemmProblem::new(weights, activations).unwrap_err(),
                expected
            );
        }
        let layer = LayerWorkload::from_matrices("ok", m(4, 2), m(4, 5)).unwrap();
        assert_eq!(layer.problem().unwrap().num_pixels(), 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let config = WorkloadConfig::default();
        let a = vgg16_workloads(&config);
        let b = vgg16_workloads(&config);
        assert_eq!(a[3].weights(), b[3].weights());
        assert_eq!(a[3].activations(), b[3].activations());
    }
}
