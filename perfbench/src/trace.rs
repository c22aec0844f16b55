//! Forwarding adapters over the pipeline's public stage seams that time
//! every call into a layer from outside the crates.
//!
//! Each adapter forwards `name()` and `fingerprint()` (and every other
//! trait method) unchanged, so plan signatures, cache keys and report bytes
//! of a traced run equal those of an untraced one.  Counters are process
//! wide; the traced pass runs its units serially, so the difference of two
//! [`Counters::snapshot`]s around one unit is exactly that unit's share.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use accel_sim::{ComputeSchedule, Matrix};
use qnn::{Accuracy, Dataset, Model};
use read_pipeline::{
    ArtifactStore, ErrorModel, Evaluator, PipelineError, ScheduleSource, StoreRequest, StoreStats,
};
use timing::{DepthHistogram, OperatingCondition, TerEstimate};

/// Nanoseconds and call counts per traced seam.
#[derive(Debug, Default)]
pub struct Counters {
    schedule: Seam,
    estimate: Seam,
    evaluate: Seam,
    load: Seam,
    put: Seam,
    load_hits: AtomicU64,
}

#[derive(Debug, Default)]
struct Seam {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Seam {
    fn time<T>(&self, calls: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(calls, Relaxed);
        out
    }

    fn get(&self) -> (u64, u64) {
        (self.ns.load(Relaxed), self.calls.load(Relaxed))
    }
}

/// A point-in-time copy of [`Counters`]; subtract two to get a span's share.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    pub schedule_ns: u64,
    pub schedule_calls: u64,
    pub estimate_ns: u64,
    pub estimate_calls: u64,
    pub evaluate_ns: u64,
    pub evaluate_calls: u64,
    pub load_ns: u64,
    pub loads: u64,
    pub load_hits: u64,
    pub put_ns: u64,
    pub puts: u64,
}

impl Snapshot {
    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            schedule_ns: self.schedule_ns - earlier.schedule_ns,
            schedule_calls: self.schedule_calls - earlier.schedule_calls,
            estimate_ns: self.estimate_ns - earlier.estimate_ns,
            estimate_calls: self.estimate_calls - earlier.estimate_calls,
            evaluate_ns: self.evaluate_ns - earlier.evaluate_ns,
            evaluate_calls: self.evaluate_calls - earlier.evaluate_calls,
            load_ns: self.load_ns - earlier.load_ns,
            loads: self.loads - earlier.loads,
            load_hits: self.load_hits - earlier.load_hits,
            put_ns: self.put_ns - earlier.put_ns,
            puts: self.puts - earlier.puts,
        }
    }

    /// Nanoseconds spent in every traced seam.
    pub fn seam_ns(&self) -> u64 {
        self.schedule_ns + self.estimate_ns + self.evaluate_ns + self.load_ns + self.put_ns
    }
}

impl Counters {
    pub fn snapshot(&self) -> Snapshot {
        let (schedule_ns, schedule_calls) = self.schedule.get();
        let (estimate_ns, estimate_calls) = self.estimate.get();
        let (evaluate_ns, evaluate_calls) = self.evaluate.get();
        let (load_ns, loads) = self.load.get();
        let (put_ns, puts) = self.put.get();
        Snapshot {
            schedule_ns,
            schedule_calls,
            estimate_ns,
            estimate_calls,
            evaluate_ns,
            evaluate_calls,
            load_ns,
            loads,
            load_hits: self.load_hits.load(Relaxed),
            put_ns,
            puts,
        }
    }
}

/// Times [`ScheduleSource::schedule`] (the `read_core` optimizer).
pub struct TracedSource {
    pub inner: Arc<dyn ScheduleSource>,
    pub counters: Arc<Counters>,
}

impl ScheduleSource for TracedSource {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn schedule(
        &self,
        weights: &Matrix<i8>,
        array_cols: usize,
    ) -> Result<ComputeSchedule, PipelineError> {
        self.counters
            .schedule
            .time(1, || self.inner.schedule(weights, array_cols))
    }
}

/// Times TER derivation ([`ErrorModel::estimate`] and [`ErrorModel::ter`]).
pub struct TracedErrorModel {
    pub inner: Arc<dyn ErrorModel>,
    pub counters: Arc<Counters>,
}

impl ErrorModel for TracedErrorModel {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn estimate(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> TerEstimate {
        self.counters
            .estimate
            .time(1, || self.inner.estimate(hist, condition))
    }

    fn ter(&self, hist: &DepthHistogram, condition: &OperatingCondition) -> f64 {
        self.counters
            .estimate
            .time(1, || self.inner.ter(hist, condition))
    }

    fn ber(&self, ter: f64, macs_per_output: usize) -> f64 {
        self.inner.ber(ter, macs_per_output)
    }

    fn corner(&self) -> Option<String> {
        self.inner.corner()
    }
}

/// Times fault-injection evaluation ([`Evaluator::evaluate`], `qnn`).
pub struct TracedEvaluator {
    pub inner: Arc<dyn Evaluator>,
    pub counters: Arc<Counters>,
}

impl Evaluator for TracedEvaluator {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn evaluate(
        &self,
        model: &Model,
        dataset: &Dataset,
        bers: &[f64],
        seed: u64,
    ) -> Result<Accuracy, PipelineError> {
        self.counters
            .evaluate
            .time(1, || self.inner.evaluate(model, dataset, bers, seed))
    }
}

/// Times store reads and writes (`load`/`load_many` and `put`/`flush`).
pub struct TracedStore {
    pub inner: Arc<dyn ArtifactStore>,
    pub counters: Arc<Counters>,
}

impl ArtifactStore for TracedStore {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn load(&self, kind: &str, key: u64, check: &str) -> Option<String> {
        let out = self
            .counters
            .load
            .time(1, || self.inner.load(kind, key, check));
        if out.is_some() {
            self.counters.load_hits.fetch_add(1, Relaxed);
        }
        out
    }

    fn put(&self, kind: &str, key: u64, check: &str, payload: &str) {
        self.counters
            .put
            .time(1, || self.inner.put(kind, key, check, payload))
    }

    fn note_corrupt(&self, kind: &str, key: u64) {
        self.inner.note_corrupt(kind, key)
    }

    fn load_many(&self, requests: &[StoreRequest]) -> Vec<Option<String>> {
        let out = self
            .counters
            .load
            .time(requests.len() as u64, || self.inner.load_many(requests));
        let hits = out.iter().filter(|o| o.is_some()).count() as u64;
        self.counters.load_hits.fetch_add(hits, Relaxed);
        out
    }

    fn flush(&self) {
        self.counters.put.time(0, || self.inner.flush())
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
