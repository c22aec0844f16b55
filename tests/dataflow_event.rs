//! Integration tests of the event-driven dataflow engine against the
//! analytic simulator — the tentpole contract: for BOTH dataflows, on ANY
//! schedule and channel configuration, the event engine performs the same
//! MAC multiset in the same per-output order as
//! `GemmProblem::simulate_with_schedule`, so the emitted depth histogram is
//! **byte-identical** and the outputs are bit-exact.  Plus the capacity-1
//! deadlock regression for the weight-stationary spill/reload path.
//!
//! `proptest` is not available offline, so this uses the workspace's
//! deterministic case generator over the seeded RNG shim.

use accel_sim::{ArrayConfig, ComputeSchedule, Dataflow, GemmProblem, Matrix};
use dataflow_sim::{run_dataflow, EngineConfig, EventError, TraceRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use read_core::{ClusteringMode, ReadConfig, ReadOptimizer};
use read_pipeline::ScheduleSource;
use timing::DepthHistogram;

/// Deterministic case generator over the shared shim RNG.
struct Gen(StdRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(StdRng::seed_from_u64(seed))
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        self.0.gen_range(lo..hi)
    }

    fn i8(&mut self) -> i8 {
        self.0.gen::<u64>() as i8
    }
}

/// A random (problem, array, schedule, engine-config) case.  Row counts
/// run well past 64 and are rarely multiples of it, so the analytic path's
/// packed word-parallel kernels see ragged tail words too.
fn random_case(
    gen: &mut Gen,
    case: usize,
) -> (GemmProblem, ArrayConfig, ComputeSchedule, EngineConfig) {
    let rows = gen.range(1, 100);
    let cols = gen.range(1, 10);
    let pixels = gen.range(1, 8);
    let weights = Matrix::from_fn(rows, cols, |_, _| gen.i8());
    let activations = Matrix::from_fn(rows, pixels, |_, _| gen.i8());
    let problem = GemmProblem::new(weights.clone(), activations).expect("consistent matrices");
    let array = ArrayConfig::new(gen.range(1, 7), gen.range(1, 5));
    // Alternate baseline grouping with READ-optimized schedules so the
    // engine is exercised on non-trivial row orders and column clusters.
    let schedule = if case.is_multiple_of(2) {
        ComputeSchedule::baseline(rows, cols, array.cols())
    } else {
        ReadOptimizer::new(ReadConfig {
            clustering: ClusteringMode::ClusterThenReorder,
            ..ReadConfig::default()
        })
        .schedule(&weights, array.cols())
        .expect("optimizer schedule")
    };
    let config = EngineConfig {
        channel_capacity: gen.range(1, 6),
        hop_latency: gen.range(0, 3) as u64,
    };
    (problem, array, schedule, config)
}

const CASES: usize = 48;

/// THE acceptance property: across random shapes (including reduction
/// depths that are not multiples of 64), schedules and channel
/// configurations, the event engine's depth histogram renders to
/// the exact bytes of the analytic engine's, for both dataflows — and the
/// outputs are bit-identical.
#[test]
fn event_histograms_are_byte_identical_to_the_analytic_engine() {
    let mut gen = Gen::new(0xDF10);
    for case in 0..CASES {
        let (problem, array, schedule, config) = random_case(&mut gen, case);
        for dataflow in Dataflow::ALL {
            let mut analytic = DepthHistogram::new();
            let reference = problem
                .simulate_with_schedule(&array, dataflow, &schedule, &mut analytic)
                .expect("analytic run");
            let mut event = DepthHistogram::new();
            let run = run_dataflow(
                &problem, &array, dataflow, &schedule, &config, &mut event, None,
            )
            .expect("event run");
            assert_eq!(
                event.to_wire().into_bytes(),
                analytic.to_wire().into_bytes(),
                "case {case} {dataflow:?} {config:?}: histogram bytes diverged"
            );
            assert_eq!(
                run.outputs, reference.outputs,
                "case {case} {dataflow:?}: outputs diverged"
            );
            assert_eq!(run.report.macs, reference.total_cycles);
            assert_eq!(
                run.report.macs,
                (problem.reduction_len() * problem.num_channels() * problem.num_pixels()) as u64
            );
            assert_eq!(run.report.dataflow, dataflow.name());
        }
    }
}

/// Deadlock regression: capacity-1 channels with the weight-stationary
/// spill/reload round trip through the psum-buffer context must terminate
/// (the PE's per-segment recv/send sequence is exactly paired with the
/// buffer's program), and still match the analytic engine — with or
/// without a trace attached.
#[test]
fn capacity_one_weight_stationary_spill_reload_terminates() {
    let mut gen = Gen::new(0xDEAD10C5);
    for case in 0..12 {
        // Force multiple row tiles so every case spills and reloads.
        let rows = gen.range(20, 80);
        let cols = gen.range(1, 6);
        let pixels = gen.range(1, 5);
        let weights = Matrix::from_fn(rows, cols, |_, _| gen.i8());
        let activations = Matrix::from_fn(rows, pixels, |_, _| gen.i8());
        let problem = GemmProblem::new(weights, activations).unwrap();
        let array = ArrayConfig::new(gen.range(1, 5), gen.range(1, 4));
        let schedule = ComputeSchedule::baseline(rows, cols, array.cols());
        let config = EngineConfig {
            channel_capacity: 1,
            hop_latency: gen.range(0, 4) as u64,
        };
        let mut trace = TraceRecorder::new();
        let run = run_dataflow(
            &problem,
            &array,
            Dataflow::WeightStationary,
            &schedule,
            &config,
            &mut accel_sim::NullObserver,
            Some(&mut trace),
        )
        .unwrap_or_else(|e| panic!("case {case}: capacity-1 WS run failed: {e}"));
        assert_eq!(run.outputs, problem.reference_output().unwrap());
        assert!(
            run.report.peak_psum_buffer > 0,
            "case {case}: multi-tile WS must spill"
        );
        dataflow_sim::json::validate(&trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("case {case}: trace is not valid JSON: {e}"));
    }
}

/// The engine rejects a zero-capacity configuration up front instead of
/// deadlocking on the first send.
#[test]
fn zero_capacity_is_rejected_up_front() {
    let problem = GemmProblem::new(
        Matrix::from_fn(4, 2, |r, c| (r + c) as i8),
        Matrix::from_fn(4, 1, |r, _| r as i8),
    )
    .unwrap();
    let schedule = ComputeSchedule::baseline(4, 2, 2);
    let err = run_dataflow(
        &problem,
        &ArrayConfig::new(4, 2),
        Dataflow::OutputStationary,
        &schedule,
        &EngineConfig {
            channel_capacity: 0,
            hop_latency: 1,
        },
        &mut accel_sim::NullObserver,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, EventError::ZeroCapacity), "{err}");
}
