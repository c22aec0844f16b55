//! Micro-benchmarks of the computational kernels: the word-parallel
//! (bit-sliced) kernels against their scalar references, plus input-channel
//! reordering, balanced clustering, the cycle-level MAC simulation, and the
//! end-to-end pipeline (serial vs parallel, cold vs warm schedule cache).
//!
//! These measure the cost of deploying READ (an offline, per-layer
//! optimization) and of the harness itself; they are not paper figures.
//! Criterion is not available offline, so this uses a small built-in
//! timing harness (median of repeated timed runs after warmup).
//!
//! The kernel A/B section ([`read_bench::ab`]) times each kernel against
//! the scalar reference it replaced *in the same run* and verifies
//! byte-identical results while doing so.  Pass `--json <path>` to
//! additionally write the measurements as a machine-readable record (the
//! committed `BENCH_<pr>.json` perf trajectory), and `--kernels-only` to
//! skip the legacy macro benches.

use std::hint::black_box;
use std::time::Instant;

use accel_sim::{
    bitplane, ArrayConfig, Dataflow, DepthWord, GemmProblem, Matrix, NullObserver, ScalarPath,
    SimOptions,
};
use qnn::init::{synthetic_activations, WeightInit};
use read_bench::ab::{emit, time_ab, AbRecord};
use read_bench::experiments::figure_pipeline;
use read_core::{
    sign_flips_for_order_scalar, sign_flips_for_order_with, sort_input_channels, BalancedKMeans,
    ClusteringMode, DistanceMetric, ReadConfig, ReadOptimizer, SignFlipScratch, SortCriterion,
};
use read_pipeline::{vgg16_workloads, Algorithm, WorkloadConfig};
use timing::{DelayModel, DepthHistogram, OperatingCondition};

/// Times `f` (median of `runs` timed executions after one warmup) and
/// prints a criterion-style line.
fn bench(name: &str, runs: usize, mut f: impl FnMut()) {
    f(); // warmup
    let mut samples: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    let (lo, hi) = (samples[0], samples[samples.len() - 1]);
    println!(
        "{name:<48} median {:>10}  [{} .. {}]",
        fmt(median),
        fmt(lo),
        fmt(hi)
    );
}

fn fmt(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.3} us", seconds * 1e6)
    }
}

fn demo_weights(rows: usize, cols: usize) -> Matrix<i8> {
    let mut init = WeightInit::new(1234);
    Matrix::from_fn(rows, cols, |_, _| init.weight(rows))
}

/// Runs the kernel A/B benches, asserting that each packed kernel's results
/// are byte-identical to its scalar reference.
fn run_kernel_benches() -> Vec<AbRecord> {
    let mut records = Vec::new();

    // Sign-flip scoring: the optimizer's objective over a VGG-16-sized
    // layer (1152 reduction rows x 256 output channels).
    let weights = demo_weights(1152, 256);
    let columns: Vec<usize> = (0..weights.cols()).collect();
    let order: Vec<usize> = (0..weights.rows()).rev().collect();
    let elems = (weights.rows() * weights.cols()) as u64;
    let mut scratch = SignFlipScratch::new();
    // The routed scorer (allocation-free, what the optimizer calls) against
    // the allocating scalar reference.
    let (before, after) = time_ab(
        20,
        || {
            black_box(
                sign_flips_for_order_scalar(black_box(&weights), &columns, black_box(&order), None)
                    .expect("scores"),
            );
        },
        || {
            black_box(
                sign_flips_for_order_with(
                    &mut scratch,
                    black_box(&weights),
                    &columns,
                    black_box(&order),
                    None,
                )
                .expect("scores"),
            );
        },
    );
    records.push(AbRecord {
        kernel: "signflip/zero_alloc_unit_1152x256".into(),
        elems,
        before_s: before,
        after_s: after,
    });

    // GEMM depth-histogram simulation: the packed bit-plane psum-depth
    // kernel against the scalar MacUnit path, same problem, same observer
    // semantics (`ScalarPath` pins the scalar route).
    let sim_weights = demo_weights(576, 16);
    let acts = synthetic_activations(576 * 64, 0.45, 7);
    let activations = Matrix::from_fn(576, 64, |r, p| acts[r * 64 + p]);
    let problem = GemmProblem::new(sim_weights, activations).expect("consistent");
    let array = ArrayConfig::paper_default();
    let options = SimOptions::exhaustive();
    let mut scalar_hist = ScalarPath(DepthHistogram::new());
    problem
        .simulate(
            &array,
            Dataflow::OutputStationary,
            &options,
            &mut scalar_hist,
        )
        .expect("simulates");
    let mut packed_hist = DepthHistogram::new();
    problem
        .simulate(
            &array,
            Dataflow::OutputStationary,
            &options,
            &mut packed_hist,
        )
        .expect("simulates");
    assert_eq!(
        packed_hist, scalar_hist.0,
        "packed depth histogram diverged from scalar"
    );
    let (before, after) = time_ab(
        10,
        || {
            let mut obs = ScalarPath(DepthHistogram::new());
            problem
                .simulate(&array, Dataflow::OutputStationary, &options, &mut obs)
                .expect("simulates");
            black_box(&obs);
        },
        || {
            let mut obs = DepthHistogram::new();
            problem
                .simulate(&array, Dataflow::OutputStationary, &options, &mut obs)
                .expect("simulates");
            black_box(&obs);
        },
    );
    records.push(AbRecord {
        kernel: "gemm/depth_histogram_576x16x64".into(),
        elems: (576 * 16 * 64) as u64,
        before_s: before,
        after_s: after,
    });

    // Histogram accumulation: packed word-at-a-time recording against the
    // per-lane scalar path over pre-generated depth words.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let words: Vec<DepthWord> = (0..4096)
        .map(|_| {
            let mut depth_planes = [0u64; bitplane::DEPTH_PLANES];
            for plane in depth_planes.iter_mut() {
                *plane = next();
            }
            DepthWord {
                depth_planes,
                sign_flips: next(),
                lane_mask: !0,
            }
        })
        .collect();
    let lanes: Vec<(u32, bool)> = words
        .iter()
        .flat_map(|w| (0..64).map(move |l| (w.depth(l), w.sign_flip(l))))
        .collect();
    let mut scalar = DepthHistogram::new();
    for &(d, f) in &lanes {
        scalar.record_depth(d, f);
    }
    let mut packed = DepthHistogram::new();
    for w in &words {
        packed.record_word(w);
    }
    assert_eq!(packed, scalar, "packed histogram recording diverged");
    let (before, after) = time_ab(
        30,
        || {
            let mut h = DepthHistogram::new();
            for &(d, f) in black_box(&lanes) {
                h.record_depth(d, f);
            }
            black_box(&h);
        },
        || {
            let mut h = DepthHistogram::new();
            for w in black_box(&words) {
                h.record_word(w);
            }
            black_box(&h);
        },
    );
    records.push(AbRecord {
        kernel: "histogram/record_4096x64".into(),
        elems: lanes.len() as u64,
        before_s: before,
        after_s: after,
    });

    records
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut kernels_only = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json_path = Some(argv.next().expect("--json requires a path")),
            "--kernels-only" => kernels_only = true,
            "--bench" => {} // forwarded by `cargo bench`
            other => eprintln!("ignoring unknown argument: {other}"),
        }
    }

    emit("kernel", &run_kernel_benches(), json_path.as_deref());
    if kernels_only {
        return;
    }

    let weights = demo_weights(1152, 256);
    let cols: Vec<usize> = (0..4).collect();
    bench("reorder/sign_first 1152x4", 20, || {
        black_box(
            sort_input_channels(
                black_box(&weights),
                black_box(&cols),
                SortCriterion::SignFirst,
            )
            .expect("sortable"),
        );
    });

    bench("cluster/balanced_kmeans 256ch into 4s", 10, || {
        black_box(
            BalancedKMeans::new(4, DistanceMetric::SignManhattan)
                .with_max_iterations(10)
                .run(black_box(&weights))
                .expect("clusterable"),
        );
    });

    let opt_weights = demo_weights(576, 128);
    let optimizer = ReadOptimizer::new(ReadConfig {
        criterion: SortCriterion::SignFirst,
        clustering: ClusteringMode::ClusterThenReorder,
        ..ReadConfig::default()
    });
    bench("optimize/cluster_then_reorder 576x128", 10, || {
        black_box(
            optimizer
                .optimize(black_box(&opt_weights), 4)
                .expect("optimizable"),
        );
    });

    let sim_weights = demo_weights(576, 16);
    let acts = synthetic_activations(576 * 8, 0.45, 7);
    let activations = Matrix::from_fn(576, 8, |r, p| acts[r * 8 + p]);
    let problem = GemmProblem::new(sim_weights, activations).expect("consistent");
    let array = ArrayConfig::paper_default();
    bench("simulate/output_stationary 576x16x8", 10, || {
        let mut obs = NullObserver;
        black_box(
            problem
                .simulate(
                    black_box(&array),
                    Dataflow::OutputStationary,
                    &SimOptions::exhaustive(),
                    &mut obs,
                )
                .expect("simulates"),
        );
    });

    // End-to-end pipeline: the Fig. 8 shape over the first VGG-16 layers,
    // serial vs parallel, and warm-cache re-run.
    let config = WorkloadConfig {
        pixels_per_layer: 2,
        ..WorkloadConfig::default()
    };
    let workloads: Vec<_> = vgg16_workloads(&config).into_iter().take(6).collect();
    let delay = DelayModel::nangate15_like();
    let condition = OperatingCondition::aging_vt(10.0, 0.05);
    let algorithms = Algorithm::paper_set();

    let serial = read_pipeline::ReadPipeline::builder()
        .array(array)
        .error_model(read_pipeline::DelayErrorModel::new(delay))
        .condition(condition)
        .source(algorithms[0])
        .source(algorithms[1])
        .source(algorithms[2])
        .build()
        .expect("valid pipeline");
    bench("pipeline/run_ter 6 layers x 3 algos (serial)", 3, || {
        black_box(
            serial
                .run_ter("bench", black_box(&workloads))
                .expect("runs"),
        );
    });

    let parallel = figure_pipeline(&algorithms, &array, &delay, &[condition]);
    bench("pipeline/run_ter 6 layers x 3 algos (parallel)", 3, || {
        black_box(
            parallel
                .run_ter("bench", black_box(&workloads))
                .expect("runs"),
        );
    });
    let stats = parallel.cache_stats();
    println!(
        "schedule cache after parallel runs: {} hits / {} misses / {} entries",
        stats.hits, stats.misses, stats.entries
    );
    // Repeated runs are served from the histogram cache one level up, so
    // schedule hits stay flat while histogram hits grow per iteration.
    println!(
        "histogram cache after parallel runs: {} hits / {} misses / {} entries",
        stats.hist_hits, stats.hist_misses, stats.hist_entries
    );
}
