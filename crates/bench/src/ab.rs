//! The A/B timing harness of the throughput benches (`kernel_throughput`,
//! `dataflow_throughput`, `fleet_throughput`).
//!
//! Each measurement times a reference side ("before") against a candidate
//! side ("after") in the same run, and `--json <path>` writes the records
//! in the layout of the committed `BENCH_<pr>.json` perf-trajectory files,
//! so successive files stay comparable key for key.

use std::time::Instant;

/// Times an A/B pair with interleaved samples (alternating before/after
/// runs, so frequency drift and scheduler noise hit both sides equally)
/// and returns each side's best observed time in seconds.  Minimum rather
/// than median: for a deterministic workload the fastest run is the
/// least-interfered-with one.  Both sides run once untimed first, as
/// warmup.
pub fn time_ab(runs: usize, mut before: impl FnMut(), mut after: impl FnMut()) -> (f64, f64) {
    before();
    after();
    let mut best_before = f64::INFINITY;
    let mut best_after = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        before();
        best_before = best_before.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        after();
        best_after = best_after.min(start.elapsed().as_secs_f64());
    }
    (best_before, best_after)
}

/// One A/B measurement over `elems` elements (lanes, MAC events or work
/// units) per run.
#[derive(Debug, Clone, PartialEq)]
pub struct AbRecord {
    /// Measurement identifier, including the benchmarked shape.
    pub kernel: String,
    /// Elements processed per run.
    pub elems: u64,
    /// Best observed seconds per run of the reference side.
    pub before_s: f64,
    /// Best observed seconds per run of the candidate side.
    pub after_s: f64,
}

impl AbRecord {
    /// Nanoseconds per element at `seconds` per run.
    pub fn ns_per_elem(&self, seconds: f64) -> f64 {
        seconds * 1e9 / self.elems as f64
    }

    /// Elements per second at `seconds` per run.
    pub fn elems_per_sec(&self, seconds: f64) -> f64 {
        self.elems as f64 / seconds
    }

    /// Before/after time ratio: above 1 means the candidate is faster.
    pub fn speedup(&self) -> f64 {
        self.before_s / self.after_s
    }

    fn side_json(&self, seconds: f64) -> String {
        format!(
            "{{ \"seconds\": {seconds:.9}, \"ns_per_elem\": {:.4}, \"elems_per_sec\": {:.4e} }}",
            self.ns_per_elem(seconds),
            self.elems_per_sec(seconds)
        )
    }
}

/// Renders records as the `BENCH_<pr>.json` perf-trajectory layout.
pub fn to_json(records: &[AbRecord]) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"elems\": {}, \"before\": {}, \"after\": {}, \"speedup\": {:.3} }}{}\n",
            r.kernel,
            r.elems,
            r.side_json(r.before_s),
            r.side_json(r.after_s),
            r.speedup(),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints one line per record, prefixed with the bench's `label`, and
/// writes [`to_json`] to `json_path` when one was given.
///
/// # Panics
///
/// Panics if `json_path` cannot be written.
pub fn emit(label: &str, records: &[AbRecord], json_path: Option<&str>) {
    for r in records {
        println!(
            "{label} {:<44} before {:>12.3} ns/elem ({:.3e} elems/s)  after {:>12.3} ns/elem  speedup {:.2}x",
            r.kernel,
            r.ns_per_elem(r.before_s),
            r.elems_per_sec(r.before_s),
            r.ns_per_elem(r.after_s),
            r.speedup()
        );
    }
    if let Some(path) = json_path {
        std::fs::write(path, to_json(records)).expect("writable --json path");
        println!("wrote {label} records to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_layout_matches_the_committed_records() {
        let records = [
            AbRecord {
                kernel: "a/b_2x2".into(),
                elems: 1000,
                before_s: 2e-3,
                after_s: 1e-3,
            },
            AbRecord {
                kernel: "c".into(),
                elems: 4,
                before_s: 1.0,
                after_s: 4.0,
            },
        ];
        let json = to_json(&records);
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(
            json,
            format!(
                "{{\n  \"profile\": \"{profile}\",\n  \"records\": [\n    \
                 {{ \"kernel\": \"a/b_2x2\", \"elems\": 1000, \
                 \"before\": {{ \"seconds\": 0.002000000, \"ns_per_elem\": 2000.0000, \"elems_per_sec\": 5.0000e5 }}, \
                 \"after\": {{ \"seconds\": 0.001000000, \"ns_per_elem\": 1000.0000, \"elems_per_sec\": 1.0000e6 }}, \
                 \"speedup\": 2.000 }},\n    \
                 {{ \"kernel\": \"c\", \"elems\": 4, \
                 \"before\": {{ \"seconds\": 1.000000000, \"ns_per_elem\": 250000000.0000, \"elems_per_sec\": 4.0000e0 }}, \
                 \"after\": {{ \"seconds\": 4.000000000, \"ns_per_elem\": 1000000000.0000, \"elems_per_sec\": 1.0000e0 }}, \
                 \"speedup\": 0.250 }}\n  ]\n}}\n"
            )
        );
    }
}
