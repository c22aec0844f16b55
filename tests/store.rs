//! Integration tests of the content-addressed artifact store: the on-disk
//! entry format is pinned by a golden fixture, version-bumped and corrupt
//! entries read as counted misses, every experiment class (TER, sweep,
//! accuracy) reruns for free against a warm `DiskStore`, racing writers —
//! threads and processes — always leave a decodable store, and — the
//! acceptance criterion — a 2-worker `SubprocessExecutor` sweep over a
//! shared store performs each schedule optimization and each histogram
//! simulation exactly once across ALL processes, with byte-identical
//! reports throughout.
//!
//! The worker/racer side of the subprocess tests is this very test binary,
//! re-invoked with `--exact <entry test>` and an environment variable
//! carrying the store directory (the `tests/workplan.rs` self-exec
//! pattern).

use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use read_repro::prelude::*;

// ---- shared fixture -----------------------------------------------------

fn tiny_workloads(n: usize) -> Vec<LayerWorkload> {
    let config = WorkloadConfig {
        pixels_per_layer: 1,
        ..WorkloadConfig::default()
    };
    vgg16_workloads(&config).into_iter().take(n).collect()
}

/// A unique, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("read-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep experiment the acceptance tests (and their worker processes)
/// all reconstruct: identical configuration ⇒ identical plans ⇒ identical
/// store keys.
fn sweep_plan() -> SweepPlan {
    SweepPlan::new()
        .conditions([
            OperatingCondition::vt(0.05),
            OperatingCondition::aging_vt(10.0, 0.05),
        ])
        .typical()
        .die(5)
        .monte_carlo(16, 11)
        .trials_per_shard(8)
}

fn sweep_builder() -> ReadPipelineBuilder {
    ReadPipeline::builder()
        .source(Algorithm::Baseline)
        .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
        .sweep(sweep_plan())
}

const NETWORK: &str = "store-sweep";
const WORKER_DIR_ENV: &str = "READ_STORE_WORKER_DIR";
const WORKER_EXPECT_WARM_ENV: &str = "READ_STORE_EXPECT_WARM";
const RACE_DIR_ENV: &str = "READ_STORE_RACE_DIR";

// ---- golden on-disk entry format ----------------------------------------

/// The on-disk entry layout (versioned header + check + payload) is a
/// stable contract: a `DiskStore` write must match
/// `tests/fixtures/artifact_entry.txt` byte for byte, at the documented
/// path.
#[test]
fn disk_entry_format_matches_the_golden_fixture() {
    let dir = scratch_dir("golden");
    let store = DiskStore::new(&dir).unwrap();
    store.put(
        "histogram",
        0xFF,
        "source=baseline workload=conv1_1 rows=64 cols=64 pixels=1",
        "total=15 flips=4 counts=0:10,2:3,4:2",
    );
    let path = store.entry_path("histogram", 0xFF).unwrap();
    assert!(
        path.ends_with("histogram/00000000000000ff.entry"),
        "entry path layout is part of the contract: {}",
        path.display()
    );
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        written,
        include_str!("fixtures/artifact_entry.txt"),
        "on-disk entry format drifted from the golden fixture"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The content address of a stored histogram is a stable contract too: a
/// warm store stays warm only while the key bytes (source, workload and
/// simulation-context fingerprints) do not drift.  One `layer_histogram`
/// over a fresh `DiskStore` writes exactly one histogram entry, at this
/// file name, under this check line.
#[test]
fn histogram_store_key_is_pinned() {
    let dir = scratch_dir("hist-key");
    let pipeline = ReadPipeline::builder()
        .baseline()
        .condition(OperatingCondition::ideal())
        .store(DiskStore::new(&dir).unwrap())
        .build()
        .unwrap();
    pipeline
        .layer_histogram(&tiny_workloads(1)[0], &Baseline)
        .unwrap();
    let entries: Vec<PathBuf> = std::fs::read_dir(dir.join("histogram"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    assert_eq!(
        entries[0].file_name().unwrap().to_str().unwrap(),
        "32a06470b8aa14e2.entry"
    );
    let entry = std::fs::read_to_string(&entries[0]).unwrap();
    assert_eq!(
        entry.lines().nth(2).unwrap(),
        "check=source=baseline workload=conv1_1 rows=27 cols=64 pixels=1 \
         source_fp=f37ca99ea5888162 workload_fp=314b8bf56f8934f0 context_fp=e937c8d90c420d39"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-bumped entry is a counted miss, not an error — and the next
/// computation replaces it with a current-version entry.
#[test]
fn bumped_entry_version_reads_as_a_miss_not_an_error() {
    let dir = scratch_dir("version-bump");
    let store = DiskStore::new(&dir).unwrap();
    let check = "source=baseline workload=conv1_1 rows=64 cols=64 pixels=1";
    let payload = "total=15 flips=4 counts=0:10,2:3,4:2";
    let path = store.entry_path("histogram", 0xFF).unwrap();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let bumped = include_str!("fixtures/artifact_entry.txt").replace("v1", "v9");
    std::fs::write(&path, bumped).unwrap();

    assert_eq!(store.load("histogram", 0xFF, check), None);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.corrupt), (0, 1, 1));

    // The recomputed artifact overwrites the stale entry; it then serves.
    store.put("histogram", 0xFF, check, payload);
    assert_eq!(
        store.load("histogram", 0xFF, check).as_deref(),
        Some(payload)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- warm reruns per experiment class ------------------------------------

/// A TER experiment against a warm `DiskStore` performs zero optimizations
/// and zero simulations, with byte-identical JSON — and stores no redundant
/// unit entries (histogram units persist through the histogram artifact
/// class alone).
#[test]
fn ter_rerun_from_disk_is_free_and_byte_identical() {
    let dir = scratch_dir("ter");
    let workloads = tiny_workloads(2);
    let build = || {
        ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
            .conditions([
                OperatingCondition::ideal(),
                OperatingCondition::aging_vt(10.0, 0.05),
            ])
            .store(DiskStore::new(&dir).unwrap())
            .build()
            .unwrap()
    };
    let cold_pipeline = build();
    let cold = cold_pipeline.run_ter("ter-store", &workloads).unwrap();
    let cold_stats = cold_pipeline.cache_stats();
    assert_eq!(cold_stats.misses, 4);
    assert_eq!(cold_stats.hist_misses, 4);
    assert_eq!(cold_stats.store_writes, 8, "4 schedules + 4 histograms");
    assert!(
        !dir.join("unit").exists(),
        "histogram units must not be double-stored as unit results"
    );

    let warm_pipeline = build();
    let warm = warm_pipeline.run_ter("ter-store", &workloads).unwrap();
    let warm_stats = warm_pipeline.cache_stats();
    assert_eq!(warm_stats.misses, 0, "schedules all came from the store");
    assert_eq!(
        warm_stats.hist_misses, 0,
        "histograms all came from the store"
    );
    assert_eq!(warm_stats.corrupt_entries, 0);
    assert_eq!(warm_stats.store_writes, 0);
    assert_eq!(
        cold.to_json().into_bytes(),
        warm.to_json().into_bytes(),
        "reports must be byte-identical whether artifacts come from disk or fresh computation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An accuracy experiment reruns for free too: the memoized accuracy units
/// skip the whole error-injection evaluation.
#[test]
fn accuracy_rerun_from_disk_executes_zero_units_fresh() {
    let dir = scratch_dir("accuracy");
    let mut model = qnn::models::vgg11_cifar_scaled(8, 4, 3).unwrap();
    let dataset = SyntheticDatasetBuilder::new(4, [3, 16, 16])
        .samples_per_class(1)
        .seed(11)
        .build()
        .unwrap();
    qnn::fit::fit_classifier_head(&mut model, &dataset).unwrap();
    let workloads = tiny_workloads(1);
    let build = || {
        ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .condition(OperatingCondition::aging_vt(10.0, 0.05))
            .model(model.clone())
            .store(DiskStore::new(&dir).unwrap())
            .build()
            .unwrap()
    };
    let cold_pipeline = build();
    let cold = cold_pipeline
        .run_accuracy("acc-store", &dataset, &workloads, 2)
        .unwrap();
    let cold_stats = cold_pipeline.cache_stats();
    assert_eq!(cold_stats.unit_misses, 1, "one accuracy cell evaluated");

    let warm_pipeline = build();
    let warm = warm_pipeline
        .run_accuracy("acc-store", &dataset, &workloads, 2)
        .unwrap();
    let warm_stats = warm_pipeline.cache_stats();
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.hist_misses, 0);
    assert_eq!(warm_stats.unit_misses, 0, "the evaluator never ran again");
    assert_eq!(cold.to_json().into_bytes(), warm.to_json().into_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- entries that parse but do not fit their key -------------------------

/// The entry files of one artifact kind, with their contents.
fn entries_of(dir: &Path, kind: &str) -> Vec<(PathBuf, String)> {
    std::fs::read_dir(dir.join(kind))
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let content = std::fs::read_to_string(&path).unwrap();
            (path, content)
        })
        .collect()
}

/// Replaces the payload of an entry file, keeping its header and check
/// line: a well-formed entry under the right key whose payload belongs
/// elsewhere.
fn rewrite_payload(path: &Path, payload: &str) {
    let entry = std::fs::read_to_string(path).unwrap();
    let (head, _) = entry.split_once("\n---\n").unwrap();
    std::fs::write(path, format!("{head}\n---\n{payload}\n")).unwrap();
}

/// A schedule entry under the right key and check line whose payload parses
/// but is no schedule of that layer is a counted miss: the run recomputes
/// the schedule, matches the reference report and rewrites the entry, which
/// then serves a rerun.
#[test]
fn misfit_schedule_entry_is_a_counted_miss() {
    let dir = scratch_dir("misfit-schedule");
    let workloads = tiny_workloads(1);
    let build = || {
        ReadPipeline::builder()
            .baseline()
            .condition(OperatingCondition::aging_vt(10.0, 0.05))
            .store(DiskStore::new(&dir).unwrap())
            .build()
            .unwrap()
    };
    let reference = build().run_ter("misfit", &workloads).unwrap().to_json();
    // Drop the histogram so the next run needs the schedule again.
    std::fs::remove_dir_all(dir.join("histogram")).unwrap();
    let schedules = entries_of(&dir, "schedule");
    assert_eq!(schedules.len(), 1);
    rewrite_payload(&schedules[0].0, "groups=0@0");

    let pipeline = build();
    let report = pipeline.run_ter("misfit", &workloads).unwrap();
    assert_eq!(report.to_json(), reference);
    let stats = pipeline.cache_stats();
    assert_eq!(stats.corrupt_entries, 1);
    assert_eq!(stats.misses, 1, "the schedule was recomputed");

    std::fs::remove_dir_all(dir.join("histogram")).unwrap();
    let rerun = build();
    assert_eq!(
        rerun.run_ter("misfit", &workloads).unwrap().to_json(),
        reference
    );
    let stats = rerun.cache_stats();
    assert_eq!(stats.misses, 0, "served from the rewritten entry");
    assert_eq!(stats.corrupt_entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A unit entry holding the result of another unit (here the Monte-Carlo
/// shard `trials=0..8` holding shard `8..16`'s result) is a counted miss,
/// not a failed aggregation.
#[test]
fn misfit_unit_entry_is_a_counted_miss() {
    let dir = scratch_dir("misfit-unit");
    let workloads = tiny_workloads(1);
    let build = || {
        sweep_builder()
            .store(DiskStore::new(&dir).unwrap())
            .build()
            .unwrap()
    };
    let reference = build().run_sweep(NETWORK, &workloads).unwrap().to_json();
    let units = entries_of(&dir, "unit");
    let find = |unit: &str| {
        let prefix = format!("check=unit={} plan=", unit.replace(' ', r"\\s"));
        units
            .iter()
            .find(|(_, content)| content.lines().any(|l| l.starts_with(&prefix)))
            .unwrap_or_else(|| panic!("no entry for {unit}"))
    };
    let (first, _) = find("mc cell=0 trials=0..8");
    let (_, second) = find("mc cell=0 trials=8..16");
    rewrite_payload(first, second.split_once("\n---\n").unwrap().1.trim_end());

    let pipeline = build();
    let report = pipeline.run_sweep(NETWORK, &workloads).unwrap();
    assert_eq!(report.to_json(), reference);
    let stats = pipeline.cache_stats();
    assert_eq!(stats.corrupt_entries, 1);
    assert_eq!(stats.unit_misses, 1, "only the misfit shard was recomputed");

    let rerun = build();
    assert_eq!(
        rerun.run_sweep(NETWORK, &workloads).unwrap().to_json(),
        reference
    );
    let stats = rerun.cache_stats();
    assert_eq!(stats.unit_misses, 0, "served from the rewritten entry");
    assert_eq!(stats.corrupt_entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- concurrency: racing writers -----------------------------------------

/// Two threads racing the same keys through independent `DiskStore`
/// instances over one directory always leave a fully decodable store and
/// identical downstream reports.
#[test]
fn racing_thread_writers_leave_a_decodable_store() {
    let dir = scratch_dir("thread-race");
    std::fs::create_dir_all(&dir).unwrap();
    let workloads = tiny_workloads(2);
    let build = |dir: &PathBuf| {
        ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .source(Algorithm::ClusterThenReorder(SortCriterion::SignFirst))
            .condition(OperatingCondition::aging_vt(10.0, 0.05))
            .store(DiskStore::new(dir).unwrap())
            .build()
            .unwrap()
    };
    let reference = build(&dir).run_ter("race", &workloads).unwrap().to_json();

    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reports: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let dir = dir.clone();
                let workloads = &workloads;
                scope.spawn(move || build(&dir).run_ter("race", workloads).unwrap().to_json())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for report in &reports {
        assert_eq!(report, &reference, "racing writers never change a report");
    }

    // Whatever interleaving happened, the store is complete and decodable:
    // a fresh pipeline serves everything from it.
    let warm = build(&dir);
    assert_eq!(
        warm.run_ter("race", &workloads).unwrap().to_json(),
        reference
    );
    let stats = warm.cache_stats();
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.hist_misses, 0);
    assert_eq!(stats.corrupt_entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racer entry point: a no-op under a normal `cargo test` run; a full
/// store-backed sweep when re-invoked with `READ_STORE_RACE_DIR` set.
#[test]
fn store_race_worker_entry() {
    let Ok(dir) = std::env::var(RACE_DIR_ENV) else {
        return;
    };
    let pipeline = sweep_builder()
        .store(DiskStore::new(dir).unwrap())
        .build()
        .expect("racer pipeline");
    let workloads = tiny_workloads(2);
    let report = pipeline
        .run_sweep(NETWORK, &workloads)
        .expect("racer sweep");
    assert!(!report.cells.is_empty());
}

/// Two whole *processes* racing the same store directory (the
/// `tests/workplan.rs` self-exec pattern) always leave a decodable store
/// and identical downstream reports.
#[test]
fn racing_process_writers_leave_a_decodable_store() {
    let dir = scratch_dir("process-race");
    std::fs::create_dir_all(&dir).unwrap();
    let workloads = tiny_workloads(2);
    let reference = sweep_builder()
        .build()
        .unwrap()
        .run_sweep(NETWORK, &workloads)
        .unwrap()
        .to_json();

    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        Command::new(&exe)
            .args(["store_race_worker_entry", "--exact", "--quiet"])
            .env(RACE_DIR_ENV, &dir)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn racer process")
    };
    let mut racers = [spawn(), spawn()];
    for racer in &mut racers {
        let status = racer.wait().expect("racer wait");
        assert!(status.success(), "racer process failed: {status}");
    }

    // The raced store serves a fresh pipeline completely: every entry the
    // two processes left behind is decodable.
    let warm = sweep_builder()
        .store(DiskStore::new(&dir).unwrap())
        .build()
        .unwrap();
    assert_eq!(
        warm.run_sweep(NETWORK, &workloads).unwrap().to_json(),
        reference
    );
    let stats = warm.cache_stats();
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.hist_misses, 0);
    assert_eq!(stats.unit_misses, 0);
    assert_eq!(stats.corrupt_entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the acceptance criterion -------------------------------------------

/// Worker entry point for the acceptance test: serves the wire protocol
/// with a shared `DiskStore` attached, then — when the driver marked the
/// store as warm — asserts via `CacheStats` that this process computed
/// *nothing* fresh: zero schedule optimizations, zero histogram
/// simulations, zero fresh unit executions.
#[test]
fn store_shard_worker_entry() {
    let Ok(dir) = std::env::var(WORKER_DIR_ENV) else {
        return;
    };
    let pipeline = sweep_builder()
        .store(DiskStore::new(dir).unwrap())
        .build()
        .expect("worker pipeline");
    let workloads = tiny_workloads(2);
    let plan = pipeline
        .plan_sweep(NETWORK, &workloads)
        .expect("worker plan");
    let mut stdout = std::io::stdout().lock();
    use std::io::Write as _;
    writeln!(stdout).expect("stdout newline");
    plan.serve(BufReader::new(std::io::stdin()), &mut stdout)
        .expect("serve stdio");
    if std::env::var(WORKER_EXPECT_WARM_ENV).is_ok() {
        let stats = pipeline.cache_stats();
        assert_eq!(stats.misses, 0, "warm worker must optimize no schedule");
        assert_eq!(
            stats.hist_misses, 0,
            "warm worker must simulate no histogram"
        );
        assert_eq!(
            stats.unit_misses, 0,
            "warm worker must execute no unit fresh"
        );
        assert_eq!(stats.corrupt_entries, 0);
    }
}

/// The acceptance criterion: a 2-worker `SubprocessExecutor` sweep with a
/// shared `DiskStore` performs each schedule optimization and each
/// (workload, source) histogram simulation exactly once across ALL
/// processes — once in the store-warming run, zero times in either worker
/// (each worker asserts that itself via `CacheStats`) — and a full rerun
/// of the same plan executes zero work units fresh, all runs producing
/// `SweepReport` JSON byte-identical to a cold serial run.
#[test]
fn acceptance_two_worker_sweep_over_a_shared_disk_store() {
    let dir = scratch_dir("acceptance");
    let workloads = tiny_workloads(2);
    let pairs = (workloads.len() * 2) as u64;

    // Cold serial reference, no store involved at all.
    let reference = sweep_builder()
        .build()
        .unwrap()
        .run_sweep(NETWORK, &workloads)
        .unwrap()
        .to_json();

    // Phase 1 — cold store-backed run: each schedule optimization and each
    // histogram simulation happens exactly once, and everything lands in
    // the store.
    let cold_pipeline = sweep_builder()
        .store(DiskStore::new(&dir).unwrap())
        .build()
        .unwrap();
    let cold = cold_pipeline.run_sweep(NETWORK, &workloads).unwrap();
    assert_eq!(cold.to_json(), reference);
    let cold_stats = cold_pipeline.cache_stats();
    assert_eq!(
        cold_stats.misses, pairs,
        "one optimization per (source, layer)"
    );
    assert_eq!(
        cold_stats.hist_misses, pairs,
        "one simulation per (workload, source)"
    );
    assert!(cold_stats.store_writes >= 2 * pairs);

    // Phase 2 — the same sweep across two worker *processes* sharing the
    // store.  Every worker reconstructs the pipeline over the same
    // directory and (asserted inside the worker via CacheStats) computes
    // nothing fresh: across ALL processes, each optimization and each
    // simulation has now happened exactly once.
    let exe = std::env::current_exe().expect("test binary path");
    let subprocess = SubprocessExecutor::new(exe)
        .args(["store_shard_worker_entry", "--exact", "--quiet"])
        .env(WORKER_DIR_ENV, dir.display().to_string())
        .env(WORKER_EXPECT_WARM_ENV, "1")
        .workers(2);
    let distributed_pipeline = sweep_builder()
        .store(DiskStore::new(&dir).unwrap())
        .executor(subprocess)
        .build()
        .unwrap();
    let distributed = distributed_pipeline.run_sweep(NETWORK, &workloads).unwrap();
    assert_eq!(
        distributed.to_json().into_bytes(),
        reference.clone().into_bytes(),
        "two store-sharing worker processes must re-aggregate to the serial bytes"
    );

    // Phase 3 — a full rerun of the same plan in a fresh pipeline executes
    // zero work units fresh: schedules, histograms and memoized unit
    // results all come from the store.
    let rerun_pipeline = sweep_builder()
        .store(DiskStore::new(&dir).unwrap())
        .build()
        .unwrap();
    let rerun = rerun_pipeline.run_sweep(NETWORK, &workloads).unwrap();
    assert_eq!(rerun.to_json(), reference);
    let rerun_stats = rerun_pipeline.cache_stats();
    assert_eq!(rerun_stats.misses, 0);
    assert_eq!(rerun_stats.hist_misses, 0);
    assert_eq!(rerun_stats.unit_misses, 0, "zero work units executed fresh");
    assert_eq!(rerun_stats.corrupt_entries, 0);
    assert!(rerun_stats.disk_hits >= pairs);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- CacheStats JSON golden ----------------------------------------------

/// `CacheStats::to_json` is a stable contract, golden-pinned alongside the
/// report fixtures.
#[test]
fn cache_stats_json_matches_the_golden_fixture() {
    let stats = CacheStats {
        hits: 1,
        misses: 2,
        collisions: 3,
        entries: 4,
        hist_hits: 5,
        hist_misses: 6,
        hist_collisions: 7,
        hist_entries: 8,
        unit_hits: 9,
        unit_misses: 10,
        unit_collisions: 11,
        unit_entries: 12,
        inflight_hits: 13,
        disk_hits: 14,
        disk_misses: 15,
        corrupt_entries: 16,
        store_writes: 17,
    };
    let expected = include_str!("fixtures/cache_stats.json")
        .trim_end_matches('\n')
        .to_string();
    assert_eq!(stats.to_json(), expected);
    // Default stats render all-zero in the same field order.
    assert!(CacheStats::default().to_json().starts_with("{\"hits\":0,"));
    // The wire decoder inverts the rendering exactly.
    assert_eq!(CacheStats::from_json(&stats.to_json()), Ok(stats));
    assert_eq!(
        CacheStats::from_json(&CacheStats::default().to_json()),
        Ok(CacheStats::default())
    );
    assert!(CacheStats::from_json("not json").is_err());
}
