//! End-to-end and per-layer benchmark of the READ reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ter_cold|sweep_accuracy|serve_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times untraced passes for `--seconds` seconds and reports
//! the end-to-end metrics; `--trace 1` adds one traced pass and reports the
//! per-layer metrics.  Every pass checks its output against a reference
//! computed during set-up; a mismatch or error counts as a failed
//! operation.  The last line of standard output is one JSON object.  See
//! `perfbench/README.md` for the workloads and metric definitions.

mod flows;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Executor threads of every parallel pass (the benchmark machine's core
/// count; at most `nproc` threads generate load).
pub const THREADS: usize = 2;

/// Timed passes per run, at least: the host's speed swings from pass to
/// pass (one `ter_cold` run measured 6.6-9.9 s), and the median of three
/// passes rejects one disturbed pass.
pub const MIN_PASSES: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Every end-to-end metric (`--trace 0`), in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("interactive_p50_ms", "ms"),
    ("interactive_tail_ms", "ms"),
    ("bulk_p50_ms", "ms"),
];

/// Every per-layer metric (`--trace 1`).  A layer a workload does not
/// exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.synth_s", "s"),
    ("read_core.schedule_s", "s"),
    ("read_core.schedule_calls", "count"),
    ("accel_sim.simulate_s", "s"),
    ("accel_sim.cycles", "count"),
    ("accel_sim.ns_per_cycle", "ns"),
    ("timing.mc_shard_s", "s"),
    ("timing.mc_trials", "count"),
    ("timing.estimate_s", "s"),
    ("qnn.evaluate_s", "s"),
    ("qnn.evaluate_calls", "count"),
    ("plan.build_s", "s"),
    ("plan.aggregate_s", "s"),
    ("cache.hit_unit_s", "s"),
    ("executor.other_s", "s"),
    ("executor.efficiency", "ratio"),
    ("store.load_s", "s"),
    ("store.put_s", "s"),
    ("store.loads", "count"),
    ("store.puts", "count"),
    ("store.hit_ratio", "ratio"),
    ("serve.server_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.inflight_hits", "count"),
    ("serve.drain_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("model.ter_reduction_geo", "x"),
    ("model.ter_reduction_max", "x"),
];

/// What a workload run reports.  Metric units live in [`END_TO_END`] and
/// [`PER_LAYER`].
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one operation; `Err` (an error or an output mismatch) counts
    /// it as failed and is logged to standard error.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }
}

/// `Ok` when `got` equals the reference, else a short diff description.
pub fn same(what: &str, got: &str, reference: &str) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{what} differs from the reference ({} vs {} bytes)",
            got.len(),
            reference.len()
        ))
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it (the maximum
/// when there are fewer than eleven samples): `(value, percentile)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let i = if n >= 11 { n - 11 } else { n - 1 };
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Nanoseconds to seconds.
pub fn sec(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory path (not created).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too when no other run is using it.
        let _ = std::fs::remove_dir(Path::new(".perfbench_work"));
    }
}

/// Recursively copies a store directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Limits glibc malloc to one arena.  With the default per-thread arenas
/// the peak RSS of a two-thread pass depends on which arena each unit's
/// buffers land in (111–144 MiB between identical `ter_cold` runs); with
/// one arena it repeats within about 2%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes allocator tuning; it runs before this
    // process spawns any thread, and M_ARENA_MAX accepts any positive count.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = match args.workload.as_str() {
        "ter_cold" => flows::ter_cold(&args),
        "sweep_accuracy" => flows::sweep_accuracy(&args),
        "serve_fleet" => serve::serve_fleet(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listed = if args.trace {
        PER_LAYER
    } else {
        outcome.push("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    let mut json = String::from("{");
    json.push_str(&format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ));
    for (i, &(name, unit)) in listed.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a number ({value})");
            return ExitCode::FAILURE;
        }
        println!("{name:<26} {value:>16.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!(
        "operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{json}");
    ExitCode::SUCCESS
}
