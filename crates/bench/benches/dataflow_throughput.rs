//! Throughput of the event-driven dataflow engine: MAC events per second
//! against the analytic engine on the same lowered schedule, and the
//! overhead of recording a Chrome trace while simulating.
//!
//! Same harness as `kernel_throughput` ([`read_bench::ab`]): interleaved
//! A/B samples (minimum of repeated timed runs after warmup) with
//! byte-identical-result checks inside the measured pairs, and
//! `--json <path>` to write the committed `BENCH_<pr>.json`
//! perf-trajectory record.
//!
//! Two A/B families, each under both dataflows:
//!
//! * `engine_vs_analytic` — before = `simulate_with_schedule` (closed-form
//!   loop nest), after = `run_dataflow` (contexts + bounded channels).
//!   The "speedup" is the slowdown factor you pay for per-cycle dynamics.
//! * `trace_overhead` — before = event engine without a recorder, after =
//!   with a `TraceRecorder` attached (rendering excluded; that is the
//!   writer's cost, measured separately as `trace_render`).

use std::hint::black_box;

use accel_sim::{ArrayConfig, ComputeSchedule, Dataflow, GemmProblem, Matrix, SimOptions};
use dataflow_sim::{run_dataflow, EngineConfig, TraceRecorder};
use qnn::init::{synthetic_activations, WeightInit};
use read_bench::ab::{emit, time_ab, AbRecord};
use timing::DepthHistogram;

fn main() {
    let mut json_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => json_path = Some(argv.next().expect("--json requires a path")),
            "--bench" => {} // forwarded by `cargo bench`
            other => eprintln!("ignoring unknown argument: {other}"),
        }
    }

    // A VGG-sized reduction (576 rows) over 16 output channels and 8
    // pixels: 73728 MAC events per run, with multiple WS row tiles on the
    // paper-default 16-row array so the spill/reload path is exercised.
    let (rows, cols, pixels) = (576usize, 16usize, 8usize);
    let mut init = WeightInit::new(1234);
    let weights = Matrix::from_fn(rows, cols, |_, _| init.weight(rows));
    let acts = synthetic_activations(rows * pixels, 0.45, 7);
    let activations = Matrix::from_fn(rows, pixels, |r, p| acts[r * pixels + p]);
    let problem = GemmProblem::new(weights, activations).expect("consistent");
    let array = ArrayConfig::paper_default();
    let schedule = ComputeSchedule::baseline(rows, cols, array.cols());
    let options = SimOptions::exhaustive();
    let config = EngineConfig::default();
    let elems = (rows * cols * pixels) as u64;

    let mut records = Vec::new();
    for dataflow in Dataflow::ALL {
        // Byte-identity inside the measured pair: the engine earns its
        // numbers only while producing the analytic path's exact bytes.
        let mut analytic = DepthHistogram::new();
        let reference = problem
            .simulate_with_schedule(&array, dataflow, &schedule, &options, &mut analytic)
            .expect("analytic run");
        let mut event = DepthHistogram::new();
        let run = run_dataflow(
            &problem, &array, dataflow, &schedule, &options, &config, &mut event, None,
        )
        .expect("event run");
        assert_eq!(event.to_wire(), analytic.to_wire(), "histogram diverged");
        assert_eq!(run.outputs, reference.outputs, "outputs diverged");

        let (before, after) = time_ab(
            10,
            || {
                let mut obs = DepthHistogram::new();
                black_box(
                    problem
                        .simulate_with_schedule(
                            black_box(&array),
                            dataflow,
                            black_box(&schedule),
                            &options,
                            &mut obs,
                        )
                        .expect("analytic run"),
                );
            },
            || {
                let mut obs = DepthHistogram::new();
                black_box(
                    run_dataflow(
                        black_box(&problem),
                        &array,
                        dataflow,
                        black_box(&schedule),
                        &options,
                        &config,
                        &mut obs,
                        None,
                    )
                    .expect("event run"),
                );
            },
        );
        records.push(AbRecord {
            kernel: format!("{}/engine_vs_analytic_576x16x8", dataflow.name()),
            elems,
            before_s: before,
            after_s: after,
        });

        let (before, after) = time_ab(
            10,
            || {
                let mut obs = DepthHistogram::new();
                black_box(
                    run_dataflow(
                        black_box(&problem),
                        &array,
                        dataflow,
                        &schedule,
                        &options,
                        &config,
                        &mut obs,
                        None,
                    )
                    .expect("event run"),
                );
            },
            || {
                let mut obs = DepthHistogram::new();
                let mut trace = TraceRecorder::new();
                black_box(
                    run_dataflow(
                        black_box(&problem),
                        &array,
                        dataflow,
                        &schedule,
                        &options,
                        &config,
                        &mut obs,
                        Some(&mut trace),
                    )
                    .expect("event run"),
                );
                black_box(&trace);
            },
        );
        records.push(AbRecord {
            kernel: format!("{}/trace_overhead_576x16x8", dataflow.name()),
            elems,
            before_s: before,
            after_s: after,
        });

        // The writer itself: recording (before) vs recording + rendering
        // the Chrome JSON string (after).
        let (before, after) = time_ab(
            10,
            || {
                let mut obs = DepthHistogram::new();
                let mut trace = TraceRecorder::new();
                run_dataflow(
                    &problem,
                    &array,
                    dataflow,
                    &schedule,
                    &options,
                    &config,
                    &mut obs,
                    Some(&mut trace),
                )
                .expect("event run");
                black_box(&trace);
            },
            || {
                let mut obs = DepthHistogram::new();
                let mut trace = TraceRecorder::new();
                run_dataflow(
                    &problem,
                    &array,
                    dataflow,
                    &schedule,
                    &options,
                    &config,
                    &mut obs,
                    Some(&mut trace),
                )
                .expect("event run");
                black_box(trace.to_chrome_json());
            },
        );
        records.push(AbRecord {
            kernel: format!("{}/trace_render_576x16x8", dataflow.name()),
            elems,
            before_s: before,
            after_s: after,
        });
    }

    emit("dataflow", &records, json_path.as_deref());
}
