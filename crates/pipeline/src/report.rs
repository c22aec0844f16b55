//! Typed pipeline results with a stable, serde-friendly shape.
//!
//! The structs here are plain-old-data with public fields in a documented,
//! stable order; [`NetworkReport::to_json`] / [`AccuracyReport::to_json`]
//! emit that shape deterministically (same input ⇒ byte-identical output),
//! which the parallel-equals-serial tests rely on.  Optional fields
//! ([`LayerReport::corner`], [`LayerReport::ter_stddev`]) are emitted only
//! when present, in their documented position, so a given report value
//! always renders to the same bytes.  When a real serde becomes available
//! the same field layout can be derived.

use dataflow_sim::json::{push_json_f64, push_json_str};

/// One (layer, algorithm, condition) cell of a TER experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name (e.g. `"conv3_2"`).
    pub layer: String,
    /// Schedule-source name (e.g. `"cluster-then-reorder[sign_first]"`).
    pub algorithm: String,
    /// Operating-condition name (e.g. `"Aging&VT-5%"`).
    pub condition: String,
    /// Silicon-variation corner of the producing error model (e.g.
    /// `"pe-var[16x4,seed=3]"`), or `None` at typical silicon.
    pub corner: Option<String>,
    /// MAC-level timing error rate at the condition (the error model's
    /// point estimate: expected value, Monte-Carlo trial mean, or per-PE
    /// population mean).
    pub ter: f64,
    /// Spread of the TER estimate when the error model produces one:
    /// trial-to-trial sample stddev for Monte-Carlo models, PE-to-PE
    /// spread for per-PE variation models, `None` for closed-form analytic
    /// estimates.
    pub ter_stddev: Option<f64>,
    /// Activation-level BER implied by the TER (Eq. (1)).
    pub ber: f64,
    /// Sign-flip rate of the schedule on this layer.
    pub sign_flip_rate: f64,
    /// MAC operations per output activation (the `N` of Eq. (1)).
    pub macs_per_output: usize,
    /// MAC cycles simulated for this cell.
    pub total_cycles: u64,
    /// Sign-flip cycles observed.
    pub sign_flips: u64,
}

/// A full layer-wise TER experiment: every (layer, source, condition) cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkReport {
    /// Network / experiment label.
    pub network: String,
    /// Rows in deterministic order: layer-major, then source, then
    /// condition (the order the pipeline was configured with).
    pub rows: Vec<LayerReport>,
}

impl NetworkReport {
    /// Rows measured at the named condition, in layer-major order.
    ///
    /// Name-keyed: if the pipeline was configured with several conditions
    /// that share a display name (e.g. a sweep of generic
    /// `OperatingCondition::vt(..)` corners, most of which are named
    /// `"VT"`), the rows of all of them are returned interleaved — consume
    /// [`NetworkReport::rows`] positionally in that case.
    pub fn rows_at<'a>(&'a self, condition: &'a str) -> impl Iterator<Item = &'a LayerReport> {
        self.rows.iter().filter(move |r| r.condition == condition)
    }

    /// Geometric-mean and maximum per-layer TER reduction of `algorithm`
    /// relative to `baseline` rows at the same (layer, condition).
    ///
    /// Returns `(1.0, 1.0)` when no comparable pair exists.
    pub fn ter_reduction(&self, algorithm: &str, baseline: &str) -> (f64, f64) {
        let mut log_sum = 0.0;
        let mut count = 0usize;
        let mut max = 0.0f64;
        for row in self.rows.iter().filter(|r| r.algorithm == algorithm) {
            if let Some(base) = self.rows.iter().find(|r| {
                r.layer == row.layer && r.condition == row.condition && r.algorithm == baseline
            }) {
                if row.ter > 0.0 && base.ter > 0.0 {
                    let reduction = base.ter / row.ter;
                    log_sum += reduction.ln();
                    count += 1;
                    max = max.max(reduction);
                }
            }
        }
        if count == 0 {
            (1.0, 1.0)
        } else {
            ((log_sum / count as f64).exp(), max)
        }
    }

    /// Deterministic JSON rendering of the report (stable key order, shortest
    /// round-trip float formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.rows.len() * 192);
        out.push_str("{\"network\":");
        push_json_str(&mut out, &self.network);
        out.push_str(",\"rows\":[");
        push_layer_rows(&mut out, &self.rows);
        out.push_str("]}");
        out
    }
}

/// Renders a slice of [`LayerReport`]s as the body of a JSON array — the
/// single row layout [`NetworkReport::to_json`] and
/// [`crate::SweepReport::to_json`] share, so a sweep cell's rows are
/// byte-identical to the equivalent single-condition run's rows.
pub(crate) fn push_layer_rows(out: &mut String, rows: &[LayerReport]) {
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"layer\":");
        push_json_str(out, &row.layer);
        out.push_str(",\"algorithm\":");
        push_json_str(out, &row.algorithm);
        out.push_str(",\"condition\":");
        push_json_str(out, &row.condition);
        if let Some(corner) = &row.corner {
            out.push_str(",\"corner\":");
            push_json_str(out, corner);
        }
        push_json_f64(out, ",\"ter\":", row.ter);
        if let Some(stddev) = row.ter_stddev {
            push_json_f64(out, ",\"ter_stddev\":", stddev);
        }
        push_json_f64(out, ",\"ber\":", row.ber);
        push_json_f64(out, ",\"sign_flip_rate\":", row.sign_flip_rate);
        out.push_str(",\"macs_per_output\":");
        out.push_str(&row.macs_per_output.to_string());
        out.push_str(",\"total_cycles\":");
        out.push_str(&row.total_cycles.to_string());
        out.push_str(",\"sign_flips\":");
        out.push_str(&row.sign_flips.to_string());
        out.push('}');
    }
}

/// One (condition, algorithm) point of an accuracy experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyPoint {
    /// Operating-condition name.
    pub condition: String,
    /// Schedule-source name.
    pub algorithm: String,
    /// Mean top-1 accuracy over the seeds.
    pub top1: f64,
    /// Mean top-k accuracy over the seeds.
    pub topk: f64,
    /// The `k` of the top-k figure.
    pub k: usize,
    /// Mean per-layer BER used for the injection (for the record).
    pub mean_ber: f64,
    /// Number of injection seeds averaged.
    pub seeds: u64,
}

/// A full accuracy-under-PVTA experiment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccuracyReport {
    /// Network / experiment label.
    pub network: String,
    /// Points in deterministic order: condition-major, then source.
    pub points: Vec<AccuracyPoint>,
}

impl AccuracyReport {
    /// The point for a (condition, algorithm) pair, if present.
    ///
    /// Name-keyed: with several same-named conditions configured (see
    /// [`NetworkReport::rows_at`]) this returns the first match — consume
    /// [`AccuracyReport::points`] positionally in that case.
    pub fn point(&self, condition: &str, algorithm: &str) -> Option<&AccuracyPoint> {
        self.points
            .iter()
            .find(|p| p.condition == condition && p.algorithm == algorithm)
    }

    /// Deterministic JSON rendering of the report.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.points.len() * 160);
        out.push_str("{\"network\":");
        push_json_str(&mut out, &self.network);
        out.push_str(",\"points\":[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"condition\":");
            push_json_str(&mut out, &p.condition);
            out.push_str(",\"algorithm\":");
            push_json_str(&mut out, &p.algorithm);
            push_json_f64(&mut out, ",\"top1\":", p.top1);
            push_json_f64(&mut out, ",\"topk\":", p.topk);
            out.push_str(",\"k\":");
            out.push_str(&p.k.to_string());
            push_json_f64(&mut out, ",\"mean_ber\":", p.mean_ber);
            out.push_str(",\"seeds\":");
            out.push_str(&p.seeds.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// One (dataflow, layer, algorithm) cell of a dataflow-probe experiment:
/// the event-driven engine's dynamic-timing report for that combination.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowRow {
    /// Layer name (e.g. `"conv3_2"`).
    pub layer: String,
    /// Schedule-source name (e.g. `"cluster-then-reorder[sign_first]"`).
    pub algorithm: String,
    /// The probed dynamics: cycles, utilization, stall breakdown per
    /// context, peak buffer occupancy.  Carries the dataflow name.
    pub report: dataflow_sim::DataflowReport,
}

/// A full dataflow-probe experiment: every (dataflow, layer, source) cell,
/// produced by [`crate::ReadPipeline::run_dataflow`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataflowNetworkReport {
    /// Network / experiment label.
    pub network: String,
    /// Rows in deterministic order: dataflow-major, then layer, then
    /// source (the order the pipeline was configured with).
    pub rows: Vec<DataflowRow>,
}

impl DataflowNetworkReport {
    /// The row for a (dataflow, layer, algorithm) triple, if present.
    pub fn row(&self, dataflow: &str, layer: &str, algorithm: &str) -> Option<&DataflowRow> {
        self.rows
            .iter()
            .find(|r| r.report.dataflow == dataflow && r.layer == layer && r.algorithm == algorithm)
    }

    /// Deterministic JSON rendering of the report (stable key order,
    /// shortest round-trip float formatting).  Each row embeds the engine's
    /// own [`dataflow_sim::DataflowReport::to_json`] object under
    /// `"report"`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.rows.len() * 512);
        out.push_str("{\"network\":");
        push_json_str(&mut out, &self.network);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"layer\":");
            push_json_str(&mut out, &row.layer);
            out.push_str(",\"algorithm\":");
            push_json_str(&mut out, &row.algorithm);
            out.push_str(",\"report\":");
            out.push_str(&row.report.to_json());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(layer: &str, algorithm: &str, condition: &str, ter: f64) -> LayerReport {
        LayerReport {
            layer: layer.into(),
            algorithm: algorithm.into(),
            condition: condition.into(),
            corner: None,
            ter,
            ter_stddev: None,
            ber: ter * 2.0,
            sign_flip_rate: 0.25,
            macs_per_output: 64,
            total_cycles: 1024,
            sign_flips: 256,
        }
    }

    #[test]
    fn ter_reduction_is_geometric_mean_and_max() {
        let report = NetworkReport {
            network: "net".into(),
            rows: vec![
                row("a", "baseline", "c", 1e-3),
                row("a", "read", "c", 1e-4),
                row("b", "baseline", "c", 1e-3),
                row("b", "read", "c", 2.5e-5),
            ],
        };
        let (geo, max) = report.ter_reduction("read", "baseline");
        assert!((geo - 20.0).abs() < 1e-9, "geo {geo}");
        assert!((max - 40.0).abs() < 1e-9, "max {max}");
        assert_eq!(report.ter_reduction("missing", "baseline"), (1.0, 1.0));
    }

    #[test]
    fn json_is_deterministic_and_parsable_shape() {
        let report = NetworkReport {
            network: "vgg\"16\"".into(),
            rows: vec![row("a", "baseline", "Ideal", 1.25e-7)],
        };
        let a = report.to_json();
        let b = report.clone().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"network\":\"vgg\\\"16\\\"\",\"rows\":[{"));
        assert!(a.contains("\"ter\":1.25e-7"));
        assert!(a.ends_with("}]}"));
    }

    #[test]
    fn accuracy_report_lookup_and_json() {
        let report = AccuracyReport {
            network: "net".into(),
            points: vec![AccuracyPoint {
                condition: "Ideal".into(),
                algorithm: "baseline".into(),
                top1: 0.75,
                topk: 0.9,
                k: 3,
                mean_ber: 0.0,
                seeds: 3,
            }],
        };
        assert!(report.point("Ideal", "baseline").is_some());
        assert!(report.point("Ideal", "read").is_none());
        let json = report.to_json();
        assert!(json.contains("\"top1\":0.75"));
        assert!(json.contains("\"seeds\":3"));
    }

    #[test]
    fn optional_fields_render_in_stable_positions() {
        let mut with_optional = row("a", "baseline", "Ideal", 1e-6);
        with_optional.corner = Some("pe-var[16x4,seed=3]".into());
        with_optional.ter_stddev = Some(2.5e-7);
        let report = NetworkReport {
            network: "n".into(),
            rows: vec![with_optional],
        };
        let json = report.to_json();
        assert!(json.contains(
            "\"condition\":\"Ideal\",\"corner\":\"pe-var[16x4,seed=3]\",\"ter\":1e-6,\"ter_stddev\":2.5e-7,\"ber\":"
        ));
        assert_eq!(json, report.clone().to_json());
        // Absent optional fields leave no trace.
        let plain = NetworkReport {
            network: "n".into(),
            rows: vec![row("a", "baseline", "Ideal", 1e-6)],
        };
        let plain_json = plain.to_json();
        assert!(!plain_json.contains("corner"));
        assert!(!plain_json.contains("ter_stddev"));
    }

    #[test]
    fn dataflow_report_lookup_and_json() {
        let report = DataflowNetworkReport {
            network: "net".into(),
            rows: vec![DataflowRow {
                layer: "conv1".into(),
                algorithm: "baseline".into(),
                report: dataflow_sim::DataflowReport {
                    dataflow: "output-stationary".into(),
                    cycles: 100,
                    macs: 64,
                    outputs: 8,
                    stalled: 12,
                    peak_psum_buffer: 0,
                    contexts: Vec::new(),
                    channels: Vec::new(),
                },
            }],
        };
        assert!(report
            .row("output-stationary", "conv1", "baseline")
            .is_some());
        assert!(report
            .row("weight-stationary", "conv1", "baseline")
            .is_none());
        let json = report.to_json();
        assert_eq!(json, report.clone().to_json());
        assert!(json.starts_with("{\"network\":\"net\",\"rows\":[{\"layer\":\"conv1\""));
        assert!(json.contains("\"report\":{\n  \"dataflow\": \"output-stationary\""));
        dataflow_sim::json::validate(&json).unwrap();
    }

    #[test]
    fn rows_at_filters_by_condition() {
        let report = NetworkReport {
            network: "n".into(),
            rows: vec![
                row("a", "baseline", "Ideal", 0.0),
                row("a", "baseline", "VT-5%", 1e-5),
            ],
        };
        assert_eq!(report.rows_at("VT-5%").count(), 1);
        assert_eq!(report.rows_at("nope").count(), 0);
    }
}
