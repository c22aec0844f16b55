//! Output-channel clustering (Problem 2 of the paper).
//!
//! Before segmenting the weight matrix onto the array columns, output
//! channels with similar weight-sign patterns are grouped together so that
//! one shared input-channel order suits every column of the group.  The
//! paper solves this hard-balanced clustering problem with balanced k-means
//! on the weight sign matrix under the Manhattan (sign-difference) metric;
//! this module implements that algorithm plus a Euclidean-on-values variant
//! used by the ablation benches.
//!
//! Under the sign metric the clustering runs on packed sign bits: each
//! channel is `⌈R/64⌉` words with bit `r` set when `W[r, c] >= 0`, each
//! centroid is its cluster's per-row member counts, and the distance of a
//! channel to a centroid of a power-of-two member count (every centroid at
//! the paper's 4 columns when `K % 4 == 0`) is a handful of popcounts that
//! equal the f64 fold bit for bit.  Other member counts fold the count-derived
//! means in f64 in row order, exactly as the f64 path does, and the
//! Euclidean metric stays on f64 feature vectors.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use accel_sim::Matrix;

use crate::error::ReadError;
use crate::metrics::weight_is_nonneg;

/// Distance metric used for clustering output channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum DistanceMetric {
    /// Manhattan distance between weight *sign* vectors — the paper's
    /// sign-difference `SD(x, y) = Σ |sign(x_i) − sign(y_i)|`.
    #[default]
    SignManhattan,
    /// Euclidean distance between the raw weight values (ablation).
    Euclidean,
}

impl DistanceMetric {
    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            DistanceMetric::SignManhattan => "sign-manhattan",
            DistanceMetric::Euclidean => "euclidean",
        }
    }
}

/// Sign difference between two weight vectors (the paper's `SD`): the number
/// of positions where one weight is non-negative and the other negative.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Example
///
/// ```
/// use read_core::cluster::sign_difference;
///
/// assert_eq!(sign_difference(&[1, -2, 3], &[1, 2, -3]), 2);
/// assert_eq!(sign_difference(&[1, -2], &[5, -7]), 0);
/// ```
pub fn sign_difference(x: &[i8], y: &[i8]) -> usize {
    assert_eq!(x.len(), y.len(), "sign difference requires equal lengths");
    x.iter()
        .zip(y)
        .filter(|(a, b)| weight_is_nonneg(**a) != weight_is_nonneg(**b))
        .count()
}

/// Total pairwise sign difference inside one cluster of output channels
/// (`SD(W_Ti)` in the paper's Problem 2).
pub fn cluster_sign_difference(weights: &Matrix<i8>, cluster: &[usize]) -> usize {
    let mut total = 0;
    for (i, &a) in cluster.iter().enumerate() {
        let col_a = weights.column(a);
        for &b in &cluster[i + 1..] {
            let col_b = weights.column(b);
            total += sign_difference(&col_a, &col_b);
        }
    }
    total
}

/// Result of a balanced clustering run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// The clusters: each entry lists the output-channel indices assigned to
    /// that cluster in ascending order, clusters sorted by their first
    /// channel.  All have `cluster_size` channels except, when the channel
    /// count `K` is not divisible, `n_clusters·cluster_size − K` clusters
    /// (at most `n_clusters`) one channel short; the sort puts those
    /// anywhere in the list.
    pub clusters: Vec<Vec<usize>>,
    /// Number of iterations executed before convergence (or the cap).
    pub iterations: usize,
    /// Objective value (total within-cluster sign difference) after each
    /// iteration, for convergence plots such as Fig. 5(d).
    pub cost_history: Vec<f64>,
    /// Cluster assignments after each iteration (same layout as
    /// [`ClusterResult::clusters`]), so per-iteration quality metrics can be
    /// recomputed.
    pub history: Vec<Vec<Vec<usize>>>,
}

impl ClusterResult {
    /// The final objective value (total within-cluster sign difference).
    pub fn final_cost(&self) -> f64 {
        self.cost_history.last().copied().unwrap_or(0.0)
    }
}

/// Balanced k-means clustering of output channels.
///
/// Every cluster receives exactly `cluster_size` channels (the array column
/// count `Ac`) when the channel count `K` is a multiple of it.  Otherwise
/// the first `n_clusters·cluster_size − K` centroids (at most all of them)
/// get one slot fewer, so the short clusters are the ones those centroids
/// collect, wherever the final sort by first channel puts them.
/// Assignment is greedy-balanced: all (channel, centroid) distances are
/// sorted and consumed in ascending order, skipping full clusters, which
/// guarantees the hard balance constraint of Problem 2.
///
/// # Example
///
/// ```
/// use accel_sim::Matrix;
/// use read_core::{BalancedKMeans, DistanceMetric};
///
/// # fn main() -> Result<(), read_core::ReadError> {
/// let weights = Matrix::from_fn(16, 8, |r, c| if (r + c) % 2 == 0 { 3i8 } else { -3 });
/// let result = BalancedKMeans::new(2, DistanceMetric::SignManhattan)
///     .with_seed(7)
///     .run(&weights)?;
/// assert_eq!(result.clusters.len(), 4);
/// for cluster in &result.clusters {
///     assert_eq!(cluster.len(), 2);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancedKMeans {
    cluster_size: usize,
    metric: DistanceMetric,
    max_iterations: usize,
    seed: u64,
}

impl BalancedKMeans {
    /// Creates a clusterer producing clusters of `cluster_size` channels.
    pub fn new(cluster_size: usize, metric: DistanceMetric) -> Self {
        BalancedKMeans {
            cluster_size,
            metric,
            max_iterations: 30,
            seed: 0x5EED,
        }
    }

    /// Sets the iteration cap (default 30, as in the paper's convergence
    /// plot).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the RNG seed used for centroid initialisation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured cluster size.
    pub fn cluster_size(&self) -> usize {
        self.cluster_size
    }

    /// Runs the clustering on a `C x K` weight matrix (reduction rows x
    /// output channels).
    ///
    /// # Errors
    ///
    /// Returns [`ReadError::EmptyWeights`] for an empty matrix and
    /// [`ReadError::InvalidGrouping`] if the cluster size is zero.
    pub fn run(&self, weights: &Matrix<i8>) -> Result<ClusterResult, ReadError> {
        if weights.is_empty() {
            return Err(ReadError::EmptyWeights);
        }
        if self.cluster_size == 0 {
            return Err(ReadError::InvalidGrouping {
                reason: "cluster size must be non-zero".into(),
            });
        }
        Ok(self.run_with(weights, self.metric == DistanceMetric::SignManhattan))
    }

    /// The clustering loop.  `packed` runs the sign metric on packed sign
    /// bits ([`CountCentroid`]); otherwise either metric runs on f64 feature
    /// vectors, the reference the packed path is tested against.
    fn run_with(&self, weights: &Matrix<i8>, packed: bool) -> ClusterResult {
        let k = weights.cols();
        let n_clusters = k.div_ceil(self.cluster_size);
        let signs = SignBits::new(weights);

        // Initialise centroids from a random sample of channels
        // (n_clusters = ceil(k / size) <= k, so the sample always exists).
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut channel_ids: Vec<usize> = (0..k).collect();
        channel_ids.shuffle(&mut rng);
        let seeds = &channel_ids[..n_clusters];
        let mut centroids = if packed {
            Centroids::Counts(
                seeds
                    .iter()
                    .map(|&c| CountCentroid::of(&signs, &[c]))
                    .collect(),
            )
        } else {
            let features: Vec<Vec<f64>> = (0..k).map(|c| self.feature_vector(weights, c)).collect();
            let means = seeds.iter().map(|&c| features[c].clone()).collect();
            Centroids::Features { features, means }
        };

        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut cost_history = Vec::new();
        let mut history = Vec::new();
        let mut iterations = 0;

        for _ in 0..self.max_iterations.max(1) {
            iterations += 1;
            let new_clusters =
                self.balanced_assign(self.distances(&centroids, &signs), k, n_clusters);
            let cost: f64 = new_clusters
                .iter()
                .map(|cluster| signs.cluster_cost(cluster) as f64)
                .sum();
            cost_history.push(cost);
            history.push(new_clusters.clone());
            let converged = new_clusters == clusters;
            clusters = new_clusters;
            if converged {
                break;
            }
            // Update centroids to the mean feature of each cluster.
            match &mut centroids {
                Centroids::Counts(counts) => {
                    for (centroid, cluster) in counts.iter_mut().zip(&clusters) {
                        *centroid = CountCentroid::of(&signs, cluster);
                    }
                }
                Centroids::Features { features, means } => {
                    for (mean, cluster) in means.iter_mut().zip(&clusters) {
                        mean.fill(0.0);
                        for &ch in cluster {
                            for (m, f) in mean.iter_mut().zip(&features[ch]) {
                                *m += f;
                            }
                        }
                        for m in mean.iter_mut() {
                            *m /= cluster.len() as f64;
                        }
                    }
                }
            }
        }

        ClusterResult {
            clusters,
            iterations,
            cost_history,
            history,
        }
    }

    fn feature_vector(&self, weights: &Matrix<i8>, channel: usize) -> Vec<f64> {
        let col = weights.column(channel);
        match self.metric {
            DistanceMetric::SignManhattan => col
                .iter()
                .map(|&w| if weight_is_nonneg(w) { 1.0 } else { 0.0 })
                .collect(),
            DistanceMetric::Euclidean => col.iter().map(|&w| f64::from(w)).collect(),
        }
    }

    fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        match self.metric {
            DistanceMetric::SignManhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
            DistanceMetric::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt(),
        }
    }

    /// Every (distance, channel, centroid) triple, channel-major.
    fn distances(&self, centroids: &Centroids, signs: &SignBits) -> Vec<(f64, usize, usize)> {
        match centroids {
            Centroids::Counts(counts) => {
                // Centroid-major, so one centroid's per-row terms stay in
                // cache while every channel's packed signs stream past.
                let n = counts.len();
                let mut dist = vec![0.0; signs.ones.len() * n];
                for (ci, centroid) in counts.iter().enumerate() {
                    centroid.distances(signs, |ch, d| dist[ch * n + ci] = d);
                }
                let mut triples = Vec::with_capacity(dist.len());
                for (ch, row) in dist.chunks_exact(n).enumerate() {
                    triples.extend(row.iter().enumerate().map(|(ci, &d)| (d, ch, ci)));
                }
                triples
            }
            Centroids::Features { features, means } => {
                let mut triples = Vec::with_capacity(features.len() * means.len());
                for (ch, feat) in features.iter().enumerate() {
                    for (ci, mean) in means.iter().enumerate() {
                        triples.push((self.distance(feat, mean), ch, ci));
                    }
                }
                triples
            }
        }
    }

    fn balanced_assign(
        &self,
        mut triples: Vec<(f64, usize, usize)>,
        k: usize,
        n_clusters: usize,
    ) -> Vec<Vec<usize>> {
        // Greedy balanced assignment: consume (distance, channel, cluster)
        // triples in ascending distance order (ties in channel-major order),
        // skipping channels already placed and clusters already full.
        triples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); n_clusters];
        let mut assigned = vec![false; k];
        let mut remaining = k;
        // Cluster capacities: all `cluster_size`, except the leftover slots
        // are spread so the total equals k.
        let full_capacity = self.cluster_size;
        let mut capacities = vec![full_capacity; n_clusters];
        let overflow = n_clusters * full_capacity - k;
        for cap in capacities.iter_mut().take(overflow) {
            *cap -= 1;
        }
        for (_, ch, ci) in triples {
            if remaining == 0 {
                break;
            }
            if assigned[ch] || clusters[ci].len() >= capacities[ci] {
                continue;
            }
            clusters[ci].push(ch);
            assigned[ch] = true;
            remaining -= 1;
        }
        // Keep deterministic, readable output: channels within a cluster in
        // ascending index order, clusters sorted by their first channel.
        for cluster in &mut clusters {
            cluster.sort_unstable();
        }
        clusters.retain(|c| !c.is_empty());
        clusters.sort_by_key(|c| c[0]);
        clusters
    }
}

/// Centroids of one clustering run.
enum Centroids {
    /// Sign metric on packed sign bits.
    Counts(Vec<CountCentroid>),
    /// Either metric on f64 feature vectors: one feature vector per channel
    /// and one mean per centroid.
    Features {
        features: Vec<Vec<f64>>,
        means: Vec<Vec<f64>>,
    },
}

/// Weight signs packed 64 reduction rows per word: bit `r % 64` of word
/// `r / 64` of channel `c` is set when `W[r, c] >= 0`.
struct SignBits {
    rows: usize,
    words: usize,
    bits: Vec<u64>,
    /// Per-channel count of set bits.
    ones: Vec<u64>,
}

impl SignBits {
    fn new(weights: &Matrix<i8>) -> Self {
        let words = weights.rows().div_ceil(64);
        let mut bits = vec![0u64; weights.cols() * words];
        for r in 0..weights.rows() {
            for (c, &w) in weights.row(r).iter().enumerate() {
                bits[c * words + r / 64] |= u64::from(weight_is_nonneg(w)) << (r % 64);
            }
        }
        let ones = bits
            .chunks_exact(words)
            .map(|channel| channel.iter().map(|w| u64::from(w.count_ones())).sum())
            .collect();
        SignBits {
            rows: weights.rows(),
            words,
            bits,
            ones,
        }
    }

    fn channel(&self, c: usize) -> &[u64] {
        &self.bits[c * self.words..(c + 1) * self.words]
    }

    /// [`cluster_sign_difference`] on the packed bits: `Σ popcnt(a ^ b)`
    /// over the cluster's channel pairs.
    fn cluster_cost(&self, cluster: &[usize]) -> u64 {
        let mut total = 0;
        for (i, &a) in cluster.iter().enumerate() {
            for &b in &cluster[i + 1..] {
                total += self
                    .channel(a)
                    .iter()
                    .zip(self.channel(b))
                    .map(|(x, y)| u64::from((x ^ y).count_ones()))
                    .sum::<u64>();
            }
        }
        total
    }
}

/// A sign-metric centroid: the per-row member counts `S_r` of a cluster of
/// `n` channels, whose mean sign vector is `S_r / n`.
struct CountCentroid {
    n: u64,
    /// `Σ_r S_r`.
    total: u64,
    /// Bit planes of the counts: words `k·W..(k+1)·W` hold bit `k` of
    /// every `S_r`, in the row layout of [`SignBits`].
    planes: Vec<u64>,
    /// Per row, the f64 terms `|x_r − S_r/n|` for `x_r = 0` and `x_r = 1`,
    /// kept only when `n` is not a power of two.
    terms: Option<Vec<[f64; 2]>>,
}

impl CountCentroid {
    /// The centroid of the given member channels.
    fn of(signs: &SignBits, members: &[usize]) -> Self {
        let n = members.len() as u64;
        let words = signs.words;
        let depth = (u64::BITS - n.leading_zeros()) as usize;
        let mut planes = vec![0u64; depth * words];
        for &member in members {
            // Bit-sliced increment of every row's counter by the member's
            // sign bit.
            for (w, &bits) in signs.channel(member).iter().enumerate() {
                let mut carry = bits;
                for plane in planes[w..].iter_mut().step_by(words) {
                    let next = *plane & carry;
                    *plane ^= carry;
                    carry = next;
                }
            }
        }
        let terms = (!n.is_power_of_two()).then(|| {
            (0..signs.rows)
                .map(|r| {
                    let count: u64 = planes
                        .chunks_exact(words)
                        .enumerate()
                        .map(|(k, plane)| ((plane[r / 64] >> (r % 64)) & 1) << k)
                        .sum();
                    let mean = count as f64 / n as f64;
                    [(0.0 - mean).abs(), (1.0 - mean).abs()]
                })
                .collect()
        });
        CountCentroid {
            n,
            total: members.iter().map(|&m| signs.ones[m]).sum(),
            planes,
            terms,
        }
    }

    /// The sign-Manhattan distance `Σ_r |x_r − S_r / n|` from every
    /// channel `x` to this centroid, passed to `emit(channel, distance)`,
    /// each equal bit for bit to the f64 fold over `r` in order.
    fn distances(&self, signs: &SignBits, mut emit: impl FnMut(usize, f64)) {
        let k = signs.ones.len();
        match &self.terms {
            // Four channels' folds run interleaved so their independent add
            // chains overlap; each still adds its terms in row order.  The
            // zero start is the fold's identity here: every term is `>= +0`.
            Some(terms) => {
                for base in (0..k).step_by(4) {
                    let x: [&[u64]; 4] =
                        std::array::from_fn(|l| signs.channel((base + l).min(k - 1)));
                    let mut acc = [0.0f64; 4];
                    for (r, term) in terms.iter().enumerate() {
                        for (a, x) in acc.iter_mut().zip(&x) {
                            *a += term[((x[r / 64] >> (r % 64)) & 1) as usize];
                        }
                    }
                    for (l, &d) in acc.iter().enumerate().take(k - base) {
                        emit(base + l, d);
                    }
                }
            }
            // With `n` a power of two every term `|x_r − S_r/n|` and every
            // partial sum of the fold is a multiple of `1/n` far inside
            // f64's exact range, so the fold equals the integer
            // `Σ_r |n·x_r − S_r| = ΣS + n·|x| − 2·Σ_r x_r·S_r` over `n`,
            // where `Σ_r x_r·S_r = Σ_k 2^k·popcnt(x & S_k)`.
            None => {
                for (ch, &ones) in signs.ones.iter().enumerate() {
                    let x = signs.channel(ch);
                    let dot: u64 = self
                        .planes
                        .chunks_exact(x.len())
                        .enumerate()
                        .map(|(k, plane)| {
                            let hits: u64 = x
                                .iter()
                                .zip(plane)
                                .map(|(a, b)| u64::from((a & b).count_ones()))
                                .sum();
                            hits << k
                        })
                        .sum();
                    let distance = (self.total + self.n * ones - 2 * dot) as f64 / self.n as f64;
                    emit(ch, distance);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example_matrix() -> Matrix<i8> {
        // Section IV-C example: clustering {0,2} and {1,3} minimizes the
        // sign difference.
        Matrix::from_vec(
            4,
            4,
            vec![
                4, -5, 5, -1, //
                -10, 3, -2, 2, //
                9, -2, 3, -1, //
                -2, 3, -6, 3,
            ],
        )
        .unwrap()
    }

    #[test]
    fn sign_difference_basics() {
        assert_eq!(sign_difference(&[], &[]), 0);
        assert_eq!(sign_difference(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(sign_difference(&[-1, -2], &[1, 2]), 2);
        assert_eq!(sign_difference(&[0, -1], &[1, -5]), 0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn sign_difference_length_mismatch_panics() {
        let _ = sign_difference(&[1], &[1, 2]);
    }

    #[test]
    fn paper_example_clusters_matching_signs() {
        let w = paper_example_matrix();
        let result = BalancedKMeans::new(2, DistanceMetric::SignManhattan)
            .with_seed(1)
            .run(&w)
            .unwrap();
        assert_eq!(result.clusters.len(), 2);
        // Channels 0 and 2 have identical sign patterns (+,-,+,-), channels
        // 1 and 3 the opposite; the optimal balanced clustering pairs them.
        let mut clusters = result.clusters.clone();
        clusters.sort();
        assert_eq!(clusters, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(result.final_cost(), 0.0);
    }

    /// The packed sign-bit clustering reproduces the f64 path's whole
    /// result — clusters, iterations, cost and assignment history — at
    /// cluster sizes 1–9, with channel counts that leave short clusters of
    /// non-power-of-two size, reduction lengths that end mid-word, tie-heavy
    /// sign patterns and several seeds.
    #[test]
    fn packed_kmeans_matches_f64_path() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC1A5);
        for size in 1..=9 {
            for seed in 0..4u64 {
                let rows = [5, 64, 130, 200][seed as usize];
                let k = size * rng.gen_range(2..6usize) + [0, 1, size / 2, size - 1][seed as usize];
                // Seed 0 repeats three exact sign patterns, so many
                // channels tie on every distance and the greedy assignment
                // depends on the tie order; the others flip 10% of signs.
                let patterns = if seed == 0 { 3 } else { k };
                let bases: Vec<u64> = (0..patterns).map(|_| rng.gen()).collect();
                let w = Matrix::from_fn(rows, k, |r, c| {
                    let flip = seed != 0 && rng.gen_range(0..10) == 0;
                    let nonneg = (bases[c % patterns] >> (r % 64)) & 1 == 1;
                    let magnitude = rng.gen_range(1..100) as i8;
                    if nonneg != flip {
                        magnitude
                    } else {
                        -magnitude
                    }
                });
                let kmeans =
                    BalancedKMeans::new(size, DistanceMetric::SignManhattan).with_seed(seed);
                let packed = kmeans.run(&w).unwrap();
                let reference = kmeans.run_with(&w, false);
                assert_eq!(
                    packed, reference,
                    "size {size} seed {seed} k {k} rows {rows}"
                );
                // The packed cost is the paper's SD objective.
                for (clusters, &cost) in packed.history.iter().zip(&packed.cost_history) {
                    let sd: usize = clusters
                        .iter()
                        .map(|c| cluster_sign_difference(&w, c))
                        .sum();
                    assert_eq!(cost, sd as f64, "size {size} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn clusters_are_balanced_and_disjoint() {
        let w = Matrix::from_fn(32, 23, |r, c| (((r * 7 + c * 13) % 11) as i8) - 5);
        let size = 4;
        let result = BalancedKMeans::new(size, DistanceMetric::SignManhattan)
            .with_seed(9)
            .run(&w)
            .unwrap();
        let mut seen = [false; 23];
        for cluster in &result.clusters {
            assert!(cluster.len() <= size);
            for &c in cluster {
                assert!(!seen[c], "channel {c} assigned twice");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every channel must be covered");
        // 23 channels in clusters of 4 -> 6 clusters, exactly one of them
        // (24 - 23) a channel short.
        let mut sizes: Vec<usize> = result.clusters.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn clustering_reduces_objective_vs_consecutive_grouping() {
        let w = Matrix::from_fn(64, 16, |r, c| {
            // Two families of sign patterns interleaved across channels.
            let sign = if (r + c) % 2 == 0 { 1 } else { -1 };
            (sign * (1 + ((r * c) % 5) as i32)) as i8
        });
        let size = 4;
        let consecutive: Vec<Vec<usize>> = (0..4).map(|g| (g * 4..(g + 1) * 4).collect()).collect();
        let consecutive_cost: usize = consecutive
            .iter()
            .map(|c| cluster_sign_difference(&w, c))
            .sum();
        let result = BalancedKMeans::new(size, DistanceMetric::SignManhattan)
            .with_seed(3)
            .run(&w)
            .unwrap();
        let clustered_cost: usize = result
            .clusters
            .iter()
            .map(|c| cluster_sign_difference(&w, c))
            .sum();
        assert!(
            clustered_cost <= consecutive_cost,
            "clustered {clustered_cost} vs consecutive {consecutive_cost}"
        );
        assert!(clustered_cost == 0);
    }

    #[test]
    fn cost_history_is_recorded_and_bounded_by_iterations() {
        let w = Matrix::from_fn(24, 12, |r, c| (((r * 3 + c * 5) % 13) as i8) - 6);
        let result = BalancedKMeans::new(4, DistanceMetric::SignManhattan)
            .with_max_iterations(10)
            .run(&w)
            .unwrap();
        assert_eq!(result.cost_history.len(), result.iterations);
        assert_eq!(result.history.len(), result.iterations);
        assert!(result.iterations <= 10);
        // The final cost never exceeds the initial cost.
        assert!(result.final_cost() <= result.cost_history[0] + 1e-9);
    }

    #[test]
    fn euclidean_metric_also_produces_balanced_clusters() {
        let w = Matrix::from_fn(16, 8, |r, c| (((r + c * 3) % 9) as i8) - 4);
        let result = BalancedKMeans::new(2, DistanceMetric::Euclidean)
            .run(&w)
            .unwrap();
        assert_eq!(result.clusters.len(), 4);
        assert!(result.clusters.iter().all(|c| c.len() == 2));
        assert_eq!(DistanceMetric::Euclidean.name(), "euclidean");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let w = Matrix::from_fn(4, 4, |_, _| 1i8);
        assert!(BalancedKMeans::new(0, DistanceMetric::SignManhattan)
            .run(&w)
            .is_err());
        let empty = Matrix::<i8>::zeros(0, 0);
        assert!(BalancedKMeans::new(2, DistanceMetric::SignManhattan)
            .run(&empty)
            .is_err());
    }

    #[test]
    fn single_cluster_when_size_covers_all_channels() {
        let w = Matrix::from_fn(8, 3, |r, c| ((r + c) % 3) as i8 - 1);
        let result = BalancedKMeans::new(8, DistanceMetric::SignManhattan)
            .run(&w)
            .unwrap();
        assert_eq!(result.clusters.len(), 1);
        assert_eq!(result.clusters[0], vec![0, 1, 2]);
    }
}
