//! Property-based tests of the core invariants the READ reproduction relies
//! on: order-independence of the arithmetic, optimality of the reorder for a
//! single output channel, balance of the clustering, monotonicity of the
//! error models, and round-tripping of the hardware LUT.
//!
//! `proptest` is not available offline, so this uses a small deterministic
//! case generator over the workspace's seeded RNG (the `rand` shim) —
//! every case set is fixed across runs, which also makes failures
//! trivially reproducible.

use accel_sim::{
    bitplane, carry_chain_length, ArrayConfig, ColumnGroup, ComputeSchedule, Dataflow, DepthWord,
    GemmProblem, MacUnit, Matrix, NullObserver, ScalarPath, ACC_BITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use read_core::{
    count_sign_flips, sign_flips_for_order, sign_flips_for_order_scalar, sign_flips_for_order_with,
    sort_input_channels, AddressLut, BalancedKMeans, ClusteringMode, DistanceMetric, ReadConfig,
    ReadOptimizer, SignFlipScratch, SortCriterion,
};
use read_pipeline::{SweepPlan, SweepReport};
use timing::{
    ber_from_ter, ter_for_target_ber, DelayModel, DepthHistogram, MonteCarloAnalysis,
    OperatingCondition, OperatingCorner, TerEstimate,
};

/// Deterministic case generator: convenience draws over the shared shim RNG.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(StdRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.gen()
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0.gen_range(lo..hi)
    }

    fn i8(&mut self) -> i8 {
        self.next_u64() as i8
    }

    fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        self.0.gen_range(lo..hi)
    }

    fn weight_matrix(&mut self, max_rows: usize, max_cols: usize) -> Matrix<i8> {
        let rows = self.range(1, max_rows + 1);
        let cols = self.range(1, max_cols + 1);
        Matrix::from_fn(rows, cols, |_, _| self.i8())
    }
}

const CASES: usize = 64;

/// The MAC unit's 24-bit accumulation matches wide integer arithmetic as
/// long as the true sum stays inside the 24-bit range.
#[test]
fn mac_accumulation_matches_wide_arithmetic() {
    let mut gen = Gen::new(0xA11CE);
    let mut checked = 0;
    while checked < CASES {
        let n = gen.range(1, 64);
        let pairs: Vec<(i8, i8)> = (0..n).map(|_| (gen.i8(), gen.i8())).collect();
        let wide: i64 = pairs
            .iter()
            .map(|(w, a)| i64::from(*w) * i64::from(*a))
            .sum();
        if wide.abs() >= (1 << 23) {
            continue; // outside the accumulator's representable range
        }
        checked += 1;
        let mut mac = MacUnit::new();
        for (w, a) in &pairs {
            mac.mac(*w, *a);
        }
        assert_eq!(i64::from(mac.psum()), wide);
    }
}

/// The carry-chain length never exceeds the accumulator width.
#[test]
fn carry_chain_is_bounded() {
    let mut gen = Gen::new(0xCA44);
    for _ in 0..4096 {
        let a = gen.next_u64() as u32;
        let b = gen.next_u64() as u32;
        assert!(carry_chain_length(a, b) <= ACC_BITS);
    }
}

/// Any reordering produced by any criterion is a permutation, and the
/// simulated outputs are bit-identical to the baseline (compute
/// correctness of Section IV-A).
#[test]
fn reordering_preserves_gemm_results() {
    let pipeline = read_pipeline::ReadPipeline::builder()
        .array(ArrayConfig::new(4, 3))
        .optimizer(ReadConfig {
            criterion: SortCriterion::SignFirst,
            clustering: ClusteringMode::ClusterThenReorder,
            ..ReadConfig::default()
        })
        .condition(OperatingCondition::ideal())
        .build()
        .unwrap();
    let optimizer = ReadOptimizer::new(ReadConfig {
        criterion: SortCriterion::SignFirst,
        clustering: ClusteringMode::ClusterThenReorder,
        ..ReadConfig::default()
    });
    let mut gen = Gen::new(0x6E44);
    for case in 0..CASES {
        let weights = gen.weight_matrix(24, 8);
        let activations = Matrix::from_fn(weights.rows(), 3, |_, _| (gen.range(0, 100)) as i8);
        let workload = read_pipeline::LayerWorkload::from_matrices(
            &format!("case{case}"),
            weights,
            activations,
        )
        .unwrap();
        let reference = workload.problem().unwrap().reference_output().unwrap();
        let optimized = pipeline.layer_outputs(&workload, &optimizer).unwrap();
        assert_eq!(optimized, reference);
    }
}

/// Both dataflows compute the same result for any operands.
#[test]
fn dataflows_agree() {
    let mut gen = Gen::new(0xDA7A);
    for _ in 0..CASES {
        let weights = gen.weight_matrix(16, 6);
        let activations = Matrix::from_fn(weights.rows(), 4, |r, c| ((r * 7 + c * 3) % 100) as i8);
        let problem = GemmProblem::new(weights, activations).unwrap();
        let array = ArrayConfig::new(4, 2);
        let mut obs = NullObserver;
        let os = problem
            .simulate(&array, Dataflow::OutputStationary, &mut obs)
            .unwrap();
        let ws = problem
            .simulate(&array, Dataflow::WeightStationary, &mut obs)
            .unwrap();
        assert_eq!(os.outputs, ws.outputs);
    }
}

/// For a single output channel and non-negative activations the sign_first
/// order achieves the provable minimum number of sign flips (0 for a
/// non-negative result, 1 for a negative result) and never exceeds the
/// natural order.
#[test]
fn sign_first_is_optimal_for_single_channel() {
    let mut gen = Gen::new(0x516F);
    for _ in 0..CASES {
        let len = gen.range(1, 64);
        let column: Vec<i8> = (0..len).map(|_| gen.i8()).collect();
        let weights = Matrix::from_vec(column.len(), 1, column.clone()).unwrap();
        let order = sort_input_channels(&weights, &[0], SortCriterion::SignFirst).unwrap();
        let flips = sign_flips_for_order(&weights, &[0], &order, None).unwrap();
        let total: i64 = column.iter().map(|&w| i64::from(w)).sum();
        assert_eq!(flips, u64::from(total < 0));
        let natural: Vec<usize> = (0..column.len()).collect();
        let baseline = sign_flips_for_order(&weights, &[0], &natural, None).unwrap();
        assert!(flips <= baseline);
    }
}

/// Accumulating the products in any order leaves the final sum unchanged,
/// and the sign-flip counter accepts both orders.
#[test]
fn sign_flip_counter_is_order_sum_invariant() {
    let mut gen = Gen::new(0x0DD5);
    for _ in 0..CASES {
        let len = gen.range(0, 40);
        let addends: Vec<i64> = (0..len).map(|_| gen.range(0, 2000) as i64 - 1000).collect();
        let forward_sum: i64 = addends.iter().sum();
        let mut reversed = addends.clone();
        reversed.reverse();
        let reversed_sum: i64 = reversed.iter().sum();
        assert_eq!(forward_sum, reversed_sum);
        let _ = count_sign_flips(addends.iter().copied());
        let _ = count_sign_flips(reversed);
    }
}

/// The routed ordering scorer is bit-exact with the scalar reference for
/// random matrices, column subsets and activation vectors, with one scratch
/// reused across every case.
#[test]
fn order_scorer_matches_scalar_reference() {
    let mut gen = Gen::new(0x5C04E);
    let mut scratch = SignFlipScratch::new();
    for _ in 0..CASES {
        let w = gen.weight_matrix(48, 100);
        let mut order: Vec<usize> = (0..w.rows()).collect();
        for i in (1..order.len()).rev() {
            let j = gen.range(0, i + 1);
            order.swap(i, j);
        }
        let columns: Vec<usize> = (0..gen.range(1, w.cols() + 1))
            .map(|_| gen.range(0, w.cols()))
            .collect();
        let acts: Vec<i8> = (0..w.rows()).map(|_| gen.i8()).collect();
        for activations in [None, Some(acts.as_slice())] {
            let scalar = sign_flips_for_order_scalar(&w, &columns, &order, activations).unwrap();
            let routed =
                sign_flips_for_order_with(&mut scratch, &w, &columns, &order, activations).unwrap();
            assert_eq!(routed, scalar);
        }
    }
}

/// Packed (word-at-a-time) depth-histogram accumulation is byte-identical
/// to recording every lane scalarly, for arbitrary lane counts including
/// widths not divisible by 64 and depths in the top-bucket clamp region.
#[test]
fn packed_histogram_accumulation_matches_scalar() {
    let mut gen = Gen::new(0x4157);
    for _ in 0..CASES {
        let lanes = gen.range(1, 65);
        let mut packed = DepthHistogram::new();
        let mut scalar = DepthHistogram::new();
        for _ in 0..gen.range(1, 8) {
            let mut depth_planes = [0u64; bitplane::DEPTH_PLANES];
            let mut sign_flips = 0u64;
            let mut depths = vec![0u32; lanes];
            for (l, depth) in depths.iter_mut().enumerate() {
                let d = gen.range(0, 32) as u32; // 5-bit range, clamp region included
                *depth = d;
                for (k, plane) in depth_planes.iter_mut().enumerate() {
                    if d >> k & 1 == 1 {
                        *plane |= 1 << l;
                    }
                }
                if gen.next_u64() & 1 == 1 {
                    sign_flips |= 1 << l;
                }
            }
            let word = DepthWord {
                depth_planes,
                sign_flips,
                lane_mask: bitplane::lane_mask(lanes),
            };
            packed.record_word(&word);
            for (l, &d) in depths.iter().enumerate() {
                scalar.record_depth(d, sign_flips >> l & 1 == 1);
            }
        }
        assert_eq!(packed, scalar, "lanes={lanes}");
    }
}

/// The word-parallel simulation kernel (64 `(group, channel, pixel)`
/// outputs per word) fills the same depth histogram, outputs and cycle
/// count as the scalar MAC path, for random schedules of several groups
/// with their own row orders and uneven widths, pixel counts around the
/// word width and both dataflows.
#[test]
fn packed_simulation_matches_scalar_on_random_schedules() {
    let mut gen = Gen::new(0x5C4E);
    for case in 0..CASES {
        let weights = gen.weight_matrix(48, 10);
        let (r, k) = (weights.rows(), weights.cols());
        let m = [1, 3, 4, 5, 17, 64, 65, 70][case % 8];
        let activations = Matrix::from_fn(r, m, |_, _| gen.i8());
        let problem = GemmProblem::new(weights, activations).unwrap();
        // Channels in random order, cut into groups of 1 to 5 columns, each
        // group with its own random row order.
        let mut channels: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            channels.swap(i, gen.range(0, i + 1));
        }
        let mut groups = Vec::new();
        let mut rest = channels.as_slice();
        while !rest.is_empty() {
            let width = gen.range(1, 6).min(rest.len());
            let mut row_order: Vec<u32> = (0..r as u32).collect();
            for i in (1..r).rev() {
                row_order.swap(i, gen.range(0, i + 1));
            }
            groups.push(ColumnGroup {
                columns: rest[..width].to_vec(),
                row_order: row_order.into(),
            });
            rest = &rest[width..];
        }
        let schedule = ComputeSchedule::new(groups);
        // Every pixel count meets both dataflows.
        let dataflow = Dataflow::ALL[(case / 8) % 2];
        let array = ArrayConfig::new(4, 2);
        let mut packed = DepthHistogram::new();
        let mut scalar = ScalarPath(DepthHistogram::new());
        let fast = problem
            .simulate_with_schedule(&array, dataflow, &schedule, &mut packed)
            .unwrap();
        let slow = problem
            .simulate_with_schedule(&array, dataflow, &schedule, &mut scalar)
            .unwrap();
        assert_eq!(
            packed, scalar.0,
            "case {case}: m={m} r={r} k={k} {dataflow:?}"
        );
        assert_eq!(fast, slow, "case {case}");
        assert_eq!(fast.total_cycles, (r * k * m) as u64, "case {case}");
        assert_eq!(packed.total(), (r * k * m) as u64);
    }
}

/// Balanced clustering always partitions the channel set into disjoint
/// clusters no larger than the requested size.
#[test]
fn clustering_is_a_balanced_partition() {
    let mut gen = Gen::new(0xC105);
    for _ in 0..CASES {
        let weights = gen.weight_matrix(16, 24);
        let size = gen.range(1, 6);
        let result = BalancedKMeans::new(size, DistanceMetric::SignManhattan)
            .run(&weights)
            .unwrap();
        let mut seen = vec![false; weights.cols()];
        for cluster in &result.clusters {
            assert!(cluster.len() <= size);
            for &c in cluster {
                assert!(!seen[c]);
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}

/// With one output channel per pass (the provable case of Section IV-A) the
/// READ optimizer never increases the sign-flip objective relative to the
/// baseline schedule; with wider groups the schedule must still be valid and
/// cover every channel.
#[test]
fn optimizer_never_increases_sign_flips() {
    let mut gen = Gen::new(0x0071);
    for _ in 0..CASES {
        let weights = gen.weight_matrix(32, 12);
        let cols = gen.range(1, 5);
        let baseline = read_core::LayerSchedule::baseline(weights.rows(), weights.cols(), cols);
        let optimized = ReadOptimizer::new(ReadConfig {
            clustering: ClusteringMode::Direct,
            ..ReadConfig::default()
        })
        .optimize(&weights, cols)
        .unwrap();
        assert!(optimized
            .to_compute_schedule()
            .validate(weights.rows(), weights.cols())
            .is_ok());
        if cols == 1 {
            let base = baseline.total_sign_flips(&weights, None).unwrap();
            let opt = optimized.total_sign_flips(&weights, None).unwrap();
            assert!(opt <= base);
        }
    }
}

/// Eq. (1) is monotone in both arguments and inverts cleanly.
#[test]
fn ber_is_monotone_and_invertible() {
    let mut gen = Gen::new(0xBE12);
    for _ in 0..CASES {
        // Log-uniform TER in [1e-9, 1e-2).
        let ter = 10f64.powf(gen.f64_range(-9.0, -2.0));
        let n = gen.range(1, 10_000);
        let ber = ber_from_ter(ter, n);
        assert!(ber >= ter * 0.99);
        assert!(ber <= 1.0);
        assert!(ber_from_ter(ter * 2.0, n) >= ber);
        assert!(ber_from_ter(ter, n + 1) >= ber);
        // The inversion loses precision once the BER saturates toward 1, so
        // only check the round trip away from saturation.
        if ber < 0.99 {
            let back = ter_for_target_ber(ber, n);
            assert!((back - ter).abs() <= ter * 1e-6 + 1e-15);
        }
    }
}

/// The timing model's error probability is monotone in triggered depth and
/// in PVTA stress, and is a probability.
#[test]
fn error_probability_is_a_monotone_probability() {
    let mut gen = Gen::new(0xE4A0);
    for _ in 0..CASES {
        let depth = gen.range(1, 25) as u32;
        let vt = gen.f64_range(0.0, 0.08);
        let delay = DelayModel::nangate15_like();
        let condition = OperatingCondition::vt(vt);
        let p = delay.error_probability_for_depth(depth, &condition, 0.0);
        assert!((0.0..=1.0).contains(&p));
        if depth < 24 {
            assert!(delay.error_probability_for_depth(depth + 1, &condition, 0.0) >= p);
        }
        let harsher = OperatingCondition::vt(vt + 0.01);
        assert!(delay.error_probability_for_depth(depth, &harsher, 0.0) >= p);
    }
}

/// The address LUT reproduces every cluster order exactly.
#[test]
fn lut_round_trips_orders() {
    let mut gen = Gen::new(0x1007);
    for _ in 0..CASES {
        let weights = gen.weight_matrix(24, 16);
        let cols = gen.range(1, 5);
        let schedule = ReadOptimizer::new(ReadConfig::default())
            .optimize(&weights, cols)
            .unwrap();
        let lut = AddressLut::from_orders(
            schedule
                .clusters()
                .iter()
                .map(|c| c.order.clone())
                .collect(),
        )
        .unwrap();
        for (ci, cluster) in schedule.clusters().iter().enumerate() {
            let got: Vec<usize> = (0..cluster.order.len())
                .map(|i| lut.lookup(ci, i).unwrap())
                .collect();
            assert_eq!(&got, &cluster.order);
        }
        assert!(lut.size_bytes() > 0);
    }
}

/// Sharded Monte-Carlo aggregation equals the unsharded estimate for any
/// partition of the trial range: trial streams depend on the global trial
/// index alone, and concatenating the per-shard samples in index order
/// reproduces the full sample vector (and hence the estimate) exactly.
#[test]
fn sharded_mc_aggregation_equals_unsharded_for_arbitrary_splits() {
    let mut hist = DepthHistogram::new();
    {
        let weights = Matrix::from_fn(48, 4, |r, c| (((r * 11 + c * 3) % 15) as i8) - 7);
        let activations = Matrix::from_fn(48, 4, |r, c| ((r + 2 * c) % 5) as i8);
        GemmProblem::new(weights, activations)
            .unwrap()
            .simulate(
                &ArrayConfig::paper_default(),
                Dataflow::OutputStationary,
                &mut hist,
            )
            .unwrap();
    }
    let corner = OperatingCorner::nominal(OperatingCondition::aging_vt(10.0, 0.05));
    let mut gen = Gen::new(0x5AAD);
    for _ in 0..24 {
        let trials = gen.range(1, 48) as u32;
        let engine = MonteCarloAnalysis::new(DelayModel::nangate15_like(), trials, gen.next_u64());
        let full = engine.trial_ters(&hist, &corner, 0..trials);

        // An arbitrary partition: random cut points over the trial range.
        let mut sharded = Vec::new();
        let mut lo = 0u32;
        while lo < trials {
            let hi = gen
                .range(lo as usize + 1, trials as usize + 2)
                .min(trials as usize) as u32;
            sharded.extend(engine.trial_ters(&hist, &corner, lo..hi));
            lo = hi;
        }
        assert_eq!(full, sharded, "trials={trials}");
        assert_eq!(
            engine.estimate(&hist, &corner),
            TerEstimate::from_trials(&sharded)
        );
    }
}

/// Tiny sweep fixture shared by the sweep property tests: one layer, one
/// source, serial execution.
fn run_tiny_sweep(plan: SweepPlan) -> SweepReport {
    let config = read_pipeline::WorkloadConfig {
        pixels_per_layer: 1,
        ..Default::default()
    };
    let workloads: Vec<_> = read_pipeline::vgg16_workloads(&config)
        .into_iter()
        .take(1)
        .collect();
    read_pipeline::ReadPipeline::builder()
        .baseline()
        .sweep(plan)
        .build()
        .unwrap()
        .run_sweep("prop", &workloads)
        .unwrap()
}

/// A sweep's per-cell rows do not depend on the shard layout: any
/// `trials_per_shard` yields the same rows as the unsharded run.
#[test]
fn sweep_rows_are_invariant_under_arbitrary_shard_sizes() {
    let mut gen = Gen::new(0x57A2);
    let base = SweepPlan::new()
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
        .monte_carlo(30, 0xFEED);
    let unsharded = run_tiny_sweep(base.clone());
    for _ in 0..6 {
        let per_shard = gen.range(1, 40) as u32;
        let sharded = run_tiny_sweep(base.clone().trials_per_shard(per_shard));
        assert_eq!(
            unsharded.cells[0].rows, sharded.cells[0].rows,
            "trials_per_shard={per_shard}"
        );
        assert_eq!(unsharded.worst, sharded.worst);
    }
}

/// Reordering the plan's conditions and dies permutes the sweep's cells but
/// never changes any cell's content: cells are keyed by (die, condition)
/// and each is derived independently of its grid position.
#[test]
fn sweep_cells_are_permutation_invariant_under_plan_reordering() {
    let mut gen = Gen::new(0xD1CE);
    let conditions = [
        OperatingCondition::ideal(),
        OperatingCondition::vt(0.05),
        OperatingCondition::aging_vt(10.0, 0.05),
    ];
    let die_seeds = [1u64, 2];
    let reference = run_tiny_sweep(
        SweepPlan::new()
            .conditions(conditions)
            .typical()
            .dies(die_seeds)
            .monte_carlo(12, 5),
    );
    for _ in 0..4 {
        // A random permutation of both axes (Fisher-Yates over the shim RNG).
        let mut cond_order: Vec<usize> = (0..conditions.len()).collect();
        let mut die_order: Vec<usize> = (0..3).collect(); // typical + 2 dies
        for i in (1..cond_order.len()).rev() {
            cond_order.swap(i, gen.range(0, i + 1));
        }
        for i in (1..die_order.len()).rev() {
            die_order.swap(i, gen.range(0, i + 1));
        }
        let mut plan = SweepPlan::new().monte_carlo(12, 5);
        for &ci in &cond_order {
            plan = plan.condition(conditions[ci]);
        }
        for &di in &die_order {
            plan = match di {
                0 => plan.typical(),
                di => plan.die(die_seeds[di - 1]),
            };
        }
        let permuted = run_tiny_sweep(plan);
        assert_eq!(permuted.cells.len(), reference.cells.len());
        for cell in &reference.cells {
            let twin = permuted
                .cell(&cell.die, &cell.condition)
                .unwrap_or_else(|| panic!("cell ({}, {}) missing", cell.die, cell.condition));
            assert_eq!(cell, twin, "({}, {})", cell.die, cell.condition);
        }
        // The cross-corner worst case is position-independent too.
        assert_eq!(reference.worst, permuted.worst);
    }
}

/// Simulated sign-flip statistics match the analytic per-column count when
/// the activations are all ones (the optimizer's surrogate).
#[test]
fn simulator_and_analytic_sign_flips_agree_on_unit_activations() {
    let mut gen = Gen::new(0x51F1);
    for _ in 0..32 {
        let weights = gen.weight_matrix(20, 6);
        let activations = Matrix::from_fn(weights.rows(), 1, |_, _| 1i8);
        let problem = GemmProblem::new(weights.clone(), activations).unwrap();
        let mut stats = accel_sim::SignFlipStats::new();
        let all_cols: Vec<usize> = (0..weights.cols()).collect();
        problem
            .simulate(
                &ArrayConfig::new(2, weights.cols().max(1)),
                Dataflow::OutputStationary,
                &mut stats,
            )
            .unwrap();
        let natural: Vec<usize> = (0..weights.rows()).collect();
        let analytic = sign_flips_for_order(&weights, &all_cols, &natural, None).unwrap();
        assert_eq!(stats.sign_flips, analytic);
    }
}
