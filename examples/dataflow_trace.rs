//! WS vs OS dynamics on a ResNet layer: run the event-driven dataflow
//! engine over a ResNet-18 convolution under both dataflows, print the
//! typed `DataflowNetworkReport`, and write one Chrome-trace JSON file per
//! dataflow (open in `chrome://tracing` or Perfetto to see the stall and
//! spill structure).
//!
//! Run with: `cargo run --release --example dataflow_trace`
//!
//! Traces land in `target/dataflow-traces/` unless `READ_TRACE_DIR` is
//! set.  The example is also the CI "dataflow trace smoke" step: it
//! *asserts* that every written trace parses as JSON and that the
//! output-stationary event run reproduces the analytic engine's depth
//! histogram byte for byte (and both engines' outputs), so a drift between
//! the two timing paths fails the build rather than skewing a plot.

use read_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = WorkloadConfig {
        pixels_per_layer: 2,
        ..WorkloadConfig::default()
    };
    // conv1 of ResNet-18 on CIFAR: 27 rows of reduction against the
    // default 16-row array, so weight-stationary must spill and reload
    // partial sums through the psum-buffer context.
    let workloads = resnet18_workloads_prefix(&config, 1);
    let layer = &workloads[0];

    let read = Algorithm::ClusterThenReorder(SortCriterion::SignFirst);
    let pipeline = ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(read)
        .condition(OperatingCondition::aging_vt(10.0, 0.05))
        .build()?;

    // The pipeline stage: every dataflow x layer x algorithm cell as one
    // memoizable work plan.
    let report = pipeline.run_dataflow("resnet18", &workloads)?;
    println!("{}", report.to_json());
    println!();

    let dir = std::env::var_os("READ_TRACE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/dataflow-traces"));
    std::fs::create_dir_all(&dir)?;

    let problem = layer.problem()?;
    let array = ArrayConfig::new(16, 4);
    let schedule = read.schedule(layer.weights(), array.cols())?;
    let reference = problem.reference_output()?;

    for dataflow in Dataflow::ALL {
        // Analytic path: the closed-form engine's depth histogram.
        let mut analytic = DepthHistogram::new();
        problem.simulate_with_schedule(&array, dataflow, &schedule, &mut analytic)?;

        // Event path: same schedule through contexts and bounded channels,
        // with a Chrome trace attached.
        let mut event = DepthHistogram::new();
        let mut trace = TraceRecorder::new();
        let run = run_dataflow(
            &problem,
            &array,
            dataflow,
            &schedule,
            &EngineConfig::default(),
            &mut event,
            Some(&mut trace),
        )?;

        // The CI contract: identical timing statistics and outputs.
        assert_eq!(
            event.to_wire(),
            analytic.to_wire(),
            "{dataflow:?}: event histogram diverged from the analytic path"
        );
        assert_eq!(run.outputs, reference, "{dataflow:?}: outputs diverged");

        let json = trace.to_chrome_json();
        read_repro::dataflow_sim::json::validate(&json)
            .map_err(|e| format!("{dataflow:?} trace is not valid JSON: {e}"))?;
        let path = dir.join(format!("{}_{}.json", layer.name(), dataflow.name()));
        std::fs::write(&path, &json)?;

        let r = &run.report;
        println!(
            "{:>17}: {} cycles, {} macs, {:.1}% utilization, {} stalled, peak psum buffer {}",
            dataflow.name(),
            r.cycles,
            r.macs,
            100.0 * r.utilization(),
            r.stalled,
            r.peak_psum_buffer,
        );
        println!("{:>19}{}", "trace: ", path.display());
    }

    // The WS round trip through the psum buffer is what the trace shows.
    let ws = report
        .row("weight-stationary", layer.name(), &read.name())
        .expect("WS row present");
    assert!(ws.report.peak_psum_buffer > 0, "multi-tile WS must spill");

    println!("\ndataflow trace smoke: OK");
    Ok(())
}
