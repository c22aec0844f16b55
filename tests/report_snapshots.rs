//! Golden-snapshot tests of every report `to_json()` layout.
//!
//! The field order and rendering of `LayerReport`, `NetworkReport`,
//! `AccuracyReport` and `SweepReport` are a documented, stable contract
//! (consumers parse these strings, and the parallel-equals-serial and
//! sweep-equals-single-run guarantees compare them byte for byte).  Each
//! test renders a hand-constructed report and compares it against a fixture
//! string committed under `tests/fixtures/`, so any field move, rename or
//! formatting change fails CI instead of silently shifting the layout.
//!
//! If a layout change is *intentional*, regenerate the fixture from the
//! mismatch message printed on failure and record the change in the README.

use read_repro::prelude::*;

/// Compares rendered JSON against a committed fixture (trailing newline
/// ignored), printing the actual string on mismatch for regeneration.
fn assert_matches_fixture(actual: &str, fixture: &str, name: &str) {
    let expected = fixture.trim_end_matches('\n');
    assert_eq!(
        actual, expected,
        "\n--- {name} fixture mismatch; actual rendering: ---\n{actual}\n---"
    );
}

/// One `LayerReport` row with every optional field present, in a
/// single-row report: the full row layout.
fn full_layer_row() -> LayerReport {
    LayerReport {
        layer: "conv3_6".into(),
        algorithm: "cluster-then-reorder[sign_first]".into(),
        condition: "Aging&VT-5%".into(),
        corner: Some("pe-var[16x4,seed=3]".into()),
        ter: 1.25e-7,
        ter_stddev: Some(2.5e-8),
        ber: 0.000128,
        sign_flip_rate: 0.0625,
        macs_per_output: 1024,
        total_cycles: 65536,
        sign_flips: 4096,
    }
}

/// A plain row: every optional field absent.
fn plain_layer_row() -> LayerReport {
    LayerReport {
        layer: "conv1_1".into(),
        algorithm: "baseline".into(),
        condition: "Ideal".into(),
        corner: None,
        ter: 0.0,
        ter_stddev: None,
        ber: 0.0,
        sign_flip_rate: 0.25,
        macs_per_output: 27,
        total_cycles: 1728,
        sign_flips: 432,
    }
}

#[test]
fn layer_report_full_row_layout_is_stable() {
    let report = NetworkReport {
        network: "layer-row".into(),
        rows: vec![full_layer_row()],
    };
    assert_matches_fixture(
        &report.to_json(),
        include_str!("fixtures/layer_report_full.json"),
        "layer_report_full",
    );
}

#[test]
fn network_report_layout_is_stable() {
    let report = NetworkReport {
        network: "vgg\"16\"".into(),
        rows: vec![plain_layer_row(), full_layer_row()],
    };
    assert_matches_fixture(
        &report.to_json(),
        include_str!("fixtures/network_report.json"),
        "network_report",
    );
}

#[test]
fn accuracy_report_layout_is_stable() {
    let report = AccuracyReport {
        network: "resnet18".into(),
        points: vec![
            AccuracyPoint {
                condition: "Ideal".into(),
                algorithm: "baseline".into(),
                top1: 0.75,
                topk: 0.9375,
                k: 3,
                mean_ber: 0.0,
                seeds: 3,
            },
            AccuracyPoint {
                condition: "Aging&VT-5%".into(),
                algorithm: "reorder[sign_first]".into(),
                top1: 0.734375,
                topk: 0.921875,
                k: 3,
                mean_ber: 3.2e-5,
                seeds: 3,
            },
        ],
    };
    assert_matches_fixture(
        &report.to_json(),
        include_str!("fixtures/accuracy_report.json"),
        "accuracy_report",
    );
}

#[test]
fn sweep_report_layout_is_stable() {
    let report = SweepReport {
        network: "vgg16-sweep".into(),
        cells: vec![
            SweepCell {
                die: "typical".into(),
                condition: "Ideal".into(),
                error_model: "monte-carlo[trials=48,seed=7]".into(),
                shards: 4,
                rows: vec![plain_layer_row()],
            },
            SweepCell {
                die: "pe-var[16x4,seed=3]".into(),
                condition: "Aging&VT-5%".into(),
                error_model: "pe-var[16x4,seed=3]".into(),
                shards: 1,
                rows: vec![full_layer_row()],
            },
        ],
        worst: vec![WorstCase {
            algorithm: "baseline".into(),
            ter: 9.155e-5,
            layer: "conv1_2".into(),
            condition: "Aging&VT-5%".into(),
            die: "typical".into(),
        }],
    };
    assert_matches_fixture(
        &report.to_json(),
        include_str!("fixtures/sweep_report.json"),
        "sweep_report",
    );
}

/// A hand-constructed dynamic-timing report with every list populated: the
/// full `DataflowReport::to_json()` layout, including the derived
/// utilization fields.
fn full_dataflow_report() -> DataflowReport {
    DataflowReport {
        dataflow: "weight-stationary".into(),
        cycles: 320,
        macs: 240,
        outputs: 16,
        stalled: 41,
        peak_psum_buffer: 8,
        contexts: vec![
            read_repro::dataflow_sim::ContextReport {
                name: "pe".into(),
                busy: 240,
                stall: 41,
                finish: 320,
            },
            read_repro::dataflow_sim::ContextReport {
                name: "psum-buffer".into(),
                busy: 32,
                stall: 0,
                finish: 318,
            },
        ],
        channels: vec![
            read_repro::dataflow_sim::ChannelReport {
                name: "weights".into(),
                capacity: 4,
                peak: 4,
                sends: 240,
            },
            read_repro::dataflow_sim::ChannelReport {
                name: "spill".into(),
                capacity: 4,
                peak: 2,
                sends: 16,
            },
        ],
    }
}

#[test]
fn dataflow_report_layout_is_stable() {
    let json = full_dataflow_report().to_json();
    read_repro::dataflow_sim::json::validate(&json).expect("snapshot is valid JSON");
    assert_matches_fixture(
        &json,
        include_str!("fixtures/dataflow_report.json"),
        "dataflow_report",
    );
}

/// The Chrome-trace rendering of a deterministic engine run is stable byte
/// for byte: the engine has no hidden nondeterminism (no wall clock, no
/// unseeded randomness), so the committed trace doubles as a regression
/// fixture for event timing.
#[test]
fn dataflow_trace_layout_is_stable() {
    let problem = GemmProblem::new(
        Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as i8 - 5),
        Matrix::from_fn(6, 2, |r, c| (r + c) as i8 - 3),
    )
    .unwrap();
    let schedule = ComputeSchedule::baseline(6, 2, 2);
    let mut trace = TraceRecorder::new();
    let run = run_dataflow(
        &problem,
        &ArrayConfig::new(4, 2),
        Dataflow::WeightStationary,
        &schedule,
        &EngineConfig::default(),
        &mut NullObserver,
        Some(&mut trace),
    )
    .unwrap();
    assert_eq!(run.outputs, problem.reference_output().unwrap());
    let json = trace.to_chrome_json();
    read_repro::dataflow_sim::json::validate(&json).expect("trace is valid JSON");
    assert_matches_fixture(
        json.trim_end_matches('\n'),
        include_str!("fixtures/dataflow_trace.json"),
        "dataflow_trace",
    );
}

/// The sweep cell row layout IS the network report row layout: rendering a
/// cell's rows through either path yields the same bytes (the guarantee
/// the sweep-equals-single-run acceptance test builds on).
#[test]
fn sweep_cell_rows_share_the_network_row_layout() {
    let cell = SweepCell {
        die: "typical".into(),
        condition: "Ideal".into(),
        error_model: "delay-model".into(),
        shards: 1,
        rows: vec![plain_layer_row(), full_layer_row()],
    };
    let via_cell = cell.as_network_report("n").to_json();
    let via_network = NetworkReport {
        network: "n".into(),
        rows: cell.rows.clone(),
    }
    .to_json();
    assert_eq!(via_cell.as_bytes(), via_network.as_bytes());
    // And the sweep rendering embeds exactly those row bytes.
    let sweep = SweepReport {
        network: "n".into(),
        cells: vec![cell],
        worst: vec![],
    };
    let json = sweep.to_json();
    let row_body = via_network
        .strip_prefix("{\"network\":\"n\",\"rows\":[")
        .and_then(|s| s.strip_suffix("]}"))
        .unwrap();
    assert!(json.contains(row_body));
}
