//! Execution strategies for a [`WorkPlan`]: the [`Executor`] trait and its
//! in-process ([`SerialExecutor`], [`ThreadExecutor`]) and multi-process
//! ([`SubprocessExecutor`]) implementations.
//!
//! An executor receives a plan plus a unit-index range and returns one
//! [`UnitResult`] per unit.  Units are position-independent and results are
//! self-identifying, so *how* the range is executed — one thread, a scoped
//! thread pool, or worker processes speaking the wire protocol over
//! stdin/stdout — never changes what the [`crate::Aggregator`] folds the
//! results into: every executor produces byte-identical reports.  This
//! trait is the seam later distribution backends (machines, job queues)
//! plug into; they only need to return the same results for the same unit
//! ids.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::PipelineError;
use crate::exec::{resolve_threads, run_indexed_threads};
use crate::plan::{UnitLedger, UnitResult, WorkPlan, WorkUnit};

/// A strategy for executing a contiguous range of a [`WorkPlan`]'s units.
pub trait Executor: Send + Sync {
    /// Display name of the strategy (for logs and debugging).
    fn name(&self) -> String;

    /// Executes the units at `range` and returns their results in unit-index
    /// order, one per unit.  On failure the error of the smallest failing
    /// unit index is returned, independent of worker timing.
    ///
    /// # Errors
    ///
    /// Propagates unit failures and executor-level failures
    /// ([`PipelineError::Exec`]: dead workers, undecodable wire traffic,
    /// missing results).
    fn execute(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
    ) -> Result<Vec<UnitResult>, PipelineError>;
}

/// Runs every unit on the calling thread, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn name(&self) -> String {
        "serial".to_string()
    }

    fn execute(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        range.map(|index| plan.run_unit(index)).collect()
    }
}

/// Runs units on scoped worker threads pulling from a shared queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadExecutor {
    /// Worker count; `0` uses the machine's available parallelism.  The
    /// resolved count is clamped to at least one thread and at most one per
    /// unit.
    pub threads: usize,
}

impl ThreadExecutor {
    /// Executor with an explicit worker count (`0` = machine-sized).
    pub fn new(threads: usize) -> Self {
        ThreadExecutor { threads }
    }

    /// Executor sized to the machine's available parallelism.
    pub fn machine() -> Self {
        ThreadExecutor { threads: 0 }
    }
}

impl Executor for ThreadExecutor {
    fn name(&self) -> String {
        match self.threads {
            0 => "threads[machine]".to_string(),
            n => format!("threads[{n}]"),
        }
    }

    fn execute(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let start = range.start;
        run_indexed_threads(
            resolve_threads(self.threads, range.len()),
            range.len(),
            |i| plan.run_unit(start + i),
        )
    }
}

/// Distributes units across worker *processes* speaking the
/// [`crate::plan`] wire protocol: each worker receives unit-id lines on
/// stdin and answers one encoded [`UnitResult`] line per unit on stdout.
///
/// The driver splits the range into one contiguous chunk per worker,
/// spawns every worker, feeds and drains them concurrently, and re-orders
/// the self-identifying results by unit index — so the aggregate is
/// byte-identical to a serial run regardless of worker count or scheduling.
///
/// A worker is any command that reconstructs the same pipeline and plan and
/// calls [`WorkPlan::serve`] on its stdio — see `examples/shard_worker.rs`
/// for the canonical self-spawning driver.  Lines a worker writes that are
/// neither a decodable result nor a `!`-prefixed failure report are ignored
/// (harness chatter); failure reports and missing results abort the run.
#[derive(Debug, Clone)]
pub struct SubprocessExecutor {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
    workers: usize,
}

impl SubprocessExecutor {
    /// Executor spawning `program` as the worker command (2 workers by
    /// default).
    pub fn new(program: impl Into<PathBuf>) -> Self {
        SubprocessExecutor {
            program: program.into(),
            args: Vec::new(),
            envs: Vec::new(),
            workers: 2,
        }
    }

    /// Adds one worker command-line argument.
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Adds several worker command-line arguments.
    pub fn args(mut self, args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.args.extend(args.into_iter().map(Into::into));
        self
    }

    /// Sets an environment variable for every worker process.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Sets the worker-process count (clamped to at least 1 at execution).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The configured worker count.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    fn spawn_worker(&self) -> Result<Child, PipelineError> {
        let mut command = Command::new(&self.program);
        command
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // stderr is not part of the protocol; capture it so a dying
            // worker's panic message can be attached to the driver error
            // (and re-emitted on the driver's stderr on success).
            .stderr(Stdio::piped());
        for (key, value) in &self.envs {
            command.env(key, value);
        }
        command.spawn().map_err(|e| {
            PipelineError::exec(format!(
                "failed to spawn worker {:?}: {e}",
                self.program.display()
            ))
        })
    }

    /// Feeds `units` to one worker and returns its results matched back to
    /// the request order.
    ///
    /// Every exit path — protocol error, worker crash, even a panic in a
    /// driver thread — reaps the child (via [`ChildGuard`]); no path leaves
    /// a zombie.  Protocol errors carry the worker's exit status and its
    /// captured stderr so a mid-stream death is diagnosable from the error
    /// alone.
    fn drive_worker(&self, units: &[WorkUnit]) -> Result<Vec<UnitResult>, PipelineError> {
        let mut guard = ChildGuard::new(self.spawn_worker()?);
        let Some(mut stdin) = guard.child.stdin.take() else {
            return Err(PipelineError::exec("worker stdin was not piped"));
        };
        let Some(stdout) = guard.child.stdout.take() else {
            return Err(PipelineError::exec("worker stdout was not piped"));
        };
        let stderr = guard.child.stderr.take();

        // Feed from a scoped thread while draining on this one, so neither
        // pipe can fill up and deadlock the pair.  stderr is drained on its
        // own thread for the same reason: a chatty worker must not block on
        // a full stderr pipe while the driver waits for stdout.
        let (drained, written, stderr_text) = std::thread::scope(|scope| {
            let writer = scope.spawn(move || -> std::io::Result<()> {
                for unit in units {
                    writeln!(stdin, "{}", unit.encode())?;
                }
                stdin.flush()
                // Dropping stdin closes the pipe: the worker sees EOF and
                // exits its serve loop.
            });
            let stderr_reader = scope.spawn(move || {
                let mut text = String::new();
                if let Some(mut pipe) = stderr {
                    let _ = pipe.read_to_string(&mut text);
                }
                text
            });

            // Unit → request-index lookup: results self-identify, so each
            // line is matched in O(1) rather than scanning the chunk.
            let unit_index: HashMap<&WorkUnit, usize> = units
                .iter()
                .enumerate()
                .map(|(index, unit)| (unit, index))
                .collect();
            let mut results: Vec<Option<UnitResult>> = vec![None; units.len()];
            let drain = |results: &mut Vec<Option<UnitResult>>| -> Result<(), PipelineError> {
                for line in BufReader::new(stdout).lines() {
                    let line = line.map_err(|e| {
                        PipelineError::exec(format!("worker stdout read failed: {e}"))
                    })?;
                    let line = line.trim();
                    if let Some(failure) = line.strip_prefix('!') {
                        return Err(PipelineError::exec(format!(
                            "worker reported failure: {failure}"
                        )));
                    }
                    // Non-protocol chatter (e.g. a test harness banner) is
                    // skipped; only decodable results are collected.
                    let Ok(result) = UnitResult::decode(line) else {
                        continue;
                    };
                    let unit = result.unit();
                    match unit_index.get(&unit).copied() {
                        Some(index) if results[index].is_none() => {
                            results[index] = Some(result);
                        }
                        Some(_) => {
                            return Err(PipelineError::exec(format!(
                                "worker returned unit {:?} twice",
                                unit.encode()
                            )));
                        }
                        None => {
                            return Err(PipelineError::exec(format!(
                                "worker returned unrequested unit {:?}",
                                unit.encode()
                            )));
                        }
                    }
                }
                Ok(())
            };
            let drained = drain(&mut results);
            // If drain aborted early, a *serve-based* worker unblocks on its
            // own (its result writes hit EPIPE and it exits) — but a wedged
            // or foreign worker may never exit, leaving the writer blocked
            // on a full stdin pipe and the stderr reader short of EOF.  Kill
            // the child here so both joins below are guaranteed to return.
            if drained.is_err() {
                let _ = guard.child.kill();
            }
            let written: Result<(), PipelineError> = match writer.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(PipelineError::exec(format!(
                    "worker stdin write failed: {e}"
                ))),
                Err(_) => Err(PipelineError::exec("worker stdin writer thread panicked")),
            };
            let stderr_text = stderr_reader.join().unwrap_or_default();
            (drained.map(|()| results), written, stderr_text)
        });

        let status = guard
            .wait()
            .map_err(|e| PipelineError::exec(format!("worker wait failed: {e}")))?;
        let results = match drained.and_then(|results| written.map(|()| results)) {
            Ok(results) => results,
            Err(e) => {
                return Err(PipelineError::exec(format!(
                    "{e} ({}{})",
                    describe_exit(status),
                    stderr_excerpt(&stderr_text)
                )));
            }
        };
        if !status.success() {
            return Err(PipelineError::exec(format!(
                "{}{}",
                describe_exit(status),
                stderr_excerpt(&stderr_text)
            )));
        }
        // The protocol succeeded: forward the worker's diagnostics to the
        // driver's stderr, preserving the visibility the old
        // `Stdio::inherit` gave worker panics and harness chatter.
        if !stderr_text.is_empty() {
            eprint!("{stderr_text}");
        }
        results
            .into_iter()
            .zip(units)
            .map(|(slot, unit)| {
                slot.ok_or_else(|| {
                    PipelineError::exec(format!(
                        "worker returned no result for unit {:?}",
                        unit.encode()
                    ))
                })
            })
            .collect()
    }
}

/// Reaps a worker process on every exit path: dropping the guard without
/// calling [`ChildGuard::wait`] kills the child and waits on it, so early
/// returns and panics in the driver cannot leak zombies.
struct ChildGuard {
    child: Child,
    reaped: bool,
}

impl ChildGuard {
    fn new(child: Child) -> Self {
        ChildGuard {
            child,
            reaped: false,
        }
    }

    /// Waits for the child to exit and disarms the drop-side kill.
    fn wait(&mut self) -> std::io::Result<ExitStatus> {
        let status = self.child.wait();
        if status.is_ok() {
            self.reaped = true;
        }
        status
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Human-readable exit summary: "worker exited with exit status: 7" or, for
/// a still-running (killed) worker, the signal form the platform reports.
fn describe_exit(status: ExitStatus) -> String {
    format!("worker exited with {status}")
}

/// Bounded stderr attachment for error messages (the full stream could be
/// megabytes of harness output; errors stay greppable).
fn stderr_excerpt(text: &str) -> String {
    const CAP: usize = 4096;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return String::new();
    }
    let mut excerpt = trimmed.to_string();
    if excerpt.len() > CAP {
        let mut cut = CAP;
        while !excerpt.is_char_boundary(cut) {
            cut -= 1;
        }
        excerpt.truncate(cut);
        excerpt.push_str("… [truncated]");
    }
    format!("; worker stderr: {excerpt}")
}

impl Executor for SubprocessExecutor {
    fn name(&self) -> String {
        format!(
            "subprocess[{}x {}]",
            self.workers.max(1),
            self.program.display()
        )
    }

    fn execute(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let units: Vec<WorkUnit> = range
            .map(|index| {
                plan.units()
                    .get(index)
                    .cloned()
                    .ok_or_else(|| PipelineError::exec(format!("unit index {index} out of range")))
            })
            .collect::<Result<_, _>>()?;
        if units.is_empty() {
            return Ok(Vec::new());
        }
        let workers = self.workers.max(1).min(units.len());
        let per_chunk = units.len().div_ceil(workers);
        let chunks: Vec<&[WorkUnit]> = units.chunks(per_chunk).collect();
        // One driver thread per worker process; chunk order is preserved, so
        // the concatenation is in unit-index order.
        let chunk_results = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| scope.spawn(move || self.drive_worker(chunk)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker driver thread"))
                .collect::<Vec<_>>()
        });
        let mut out = Vec::with_capacity(units.len());
        for chunk in chunk_results {
            out.extend(chunk?);
        }
        Ok(out)
    }
}

/// Observed fleet behavior of a [`SocketExecutor`], shared across clones of
/// the executor (counters accumulate over every `execute` call).
///
/// These are diagnostics, not part of the result contract: a run that
/// reports deaths and retries still aggregates byte-identically to a serial
/// run, because lost units are re-executed and results self-identify.
#[derive(Debug, Default)]
pub struct FleetStats {
    worker_deaths: AtomicU64,
    failed_connects: AtomicU64,
    retried_units: AtomicU64,
    completed_units: AtomicU64,
    inflight_peak: AtomicU64,
    requeued_inflight: AtomicU64,
}

impl FleetStats {
    /// Workers that died mid-stream (EOF, io error, liveness timeout, or a
    /// malformed/mismatched response) after a successful handshake.
    pub fn worker_deaths(&self) -> u64 {
        self.worker_deaths.load(Ordering::Relaxed)
    }

    /// Worker addresses that never completed the connect + handshake.
    pub fn failed_connects(&self) -> u64 {
        self.failed_connects.load(Ordering::Relaxed)
    }

    /// Units re-queued for another worker after their first worker died.
    pub fn retried_units(&self) -> u64 {
        self.retried_units.load(Ordering::Relaxed)
    }

    /// Unit results successfully collected from remote workers.
    pub fn completed_units(&self) -> u64 {
        self.completed_units.load(Ordering::Relaxed)
    }

    /// The largest in-flight window observed on any single worker: 1 under
    /// lock-step dispatch, up to [`SocketExecutor::window`] when pipelining
    /// actually filled the wire.
    pub fn inflight_peak(&self) -> u64 {
        self.inflight_peak.load(Ordering::Relaxed)
    }

    /// In-flight units swept back to the pending queue by worker deaths —
    /// under windowed dispatch one death can requeue a whole window, and
    /// this counter makes that recovery observable (it counts only the
    /// requeued units; budget-exhausted losses fail the run instead).
    pub fn requeued_inflight(&self) -> u64 {
        self.requeued_inflight.load(Ordering::Relaxed)
    }

    fn observe_inflight(&self, depth: u64) {
        self.inflight_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// The counters as a deterministic JSON object (keys in declaration
    /// order, one per line) — the layout is golden-pinned in
    /// `tests/fixtures/fleet_stats.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str("{\n");
        let fields = [
            ("worker_deaths", self.worker_deaths()),
            ("failed_connects", self.failed_connects()),
            ("retried_units", self.retried_units()),
            ("completed_units", self.completed_units()),
            ("inflight_peak", self.inflight_peak()),
            ("requeued_inflight", self.requeued_inflight()),
        ];
        for (i, (key, value)) in fields.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(key);
            out.push_str("\": ");
            out.push_str(&value.to_string());
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

/// How a connect + handshake attempt against one worker address ended.
enum ConnectOutcome {
    /// Connected and the worker accepted the pipeline spec; the `usize` is
    /// the negotiated in-flight window (1 = lock-step peer).
    Ready(BufReader<TcpStream>, usize),
    /// The worker is unreachable or died during the handshake; its share of
    /// the plan is redistributed to surviving workers.
    Down(String),
    /// The worker *answered* and rejected the spec — a configuration error
    /// that retrying on other workers cannot fix.
    Rejected(String),
}

/// How the optional `window=<n>` pre-spec negotiation ended.
enum WindowOutcome {
    /// The worker understands the streamed protocol and answered
    /// `ok window=<m>`; pipeline at `min(requested, m)`.
    Negotiated(BufReader<TcpStream>, usize),
    /// The worker rejected (or closed on) the unknown line — an old
    /// lock-step peer.  Reconnect fresh and drive it at window 1.
    LockStep,
    /// The connection itself failed.
    Down(String),
}

/// How one response read from a live worker ended.
enum Exchange {
    /// The worker answered with a self-identifying unit result.
    Completed(UnitResult),
    /// The worker reported an in-band (`!`-prefixed) unit failure — a
    /// deterministic error every worker would reproduce, so it is recorded,
    /// not retried.  Workers answer in request order, so it belongs to the
    /// oldest in-flight unit.
    UnitFailed(String),
    /// The connection died (EOF, io error, liveness timeout, or an
    /// undecodable response); every in-flight unit is lost.
    Death(String),
}

/// Shared driver state for one [`SocketExecutor::execute`] call: the unit
/// ledger, worker liveness, and the first fatal (non-retryable) error.
struct FleetShared {
    ledger: Mutex<UnitLedger>,
    work_cv: Condvar,
    live_workers: Mutex<usize>,
    fatal: Mutex<Option<String>>,
}

impl FleetShared {
    fn new(units: usize, max_attempts: u32, workers: usize) -> Self {
        let mut ledger = UnitLedger::new(units, max_attempts);
        for _ in 0..workers {
            // Worker id i belongs to the driver thread of address i.
            ledger.add_worker();
        }
        FleetShared {
            ledger: Mutex::new(ledger),
            work_cv: Condvar::new(),
            live_workers: Mutex::new(workers),
            fatal: Mutex::new(None),
        }
    }

    fn lock_ledger(&self) -> std::sync::MutexGuard<'_, UnitLedger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fatal_set(&self) -> bool {
        self.fatal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    fn set_fatal(&self, reason: String) {
        let mut fatal = self.fatal.lock().unwrap_or_else(|e| e.into_inner());
        fatal.get_or_insert(reason);
        drop(fatal);
        self.work_cv.notify_all();
    }

    /// Blocks until a unit is available, the plan is settled, a fatal error
    /// is recorded, or the deadline expires.  Returns the checked-out
    /// `(slot, attempt)` or `None` when this worker should stop.
    ///
    /// Workers must *not* exit on a momentarily-empty queue: another
    /// worker's in-flight unit may yet be lost and re-queued, and this
    /// worker may be the only survivor able to run it.
    fn next_job(&self, worker: usize, deadline: Option<Instant>) -> Option<(usize, u32)> {
        let mut ledger = self.lock_ledger();
        loop {
            if self.fatal_set() {
                return None;
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    drop(ledger);
                    self.set_fatal("request timed out while units were outstanding".to_string());
                    return None;
                }
            }
            if let Some(job) = ledger.checkout_for(worker) {
                return Some(job);
            }
            if ledger.is_settled() {
                // Wake any other waiters so they observe settledness too.
                self.work_cv.notify_all();
                return None;
            }
            // Bounded wait so the deadline (and fatal flags set without the
            // ledger lock held) are re-checked promptly.
            let (guard, _) = self
                .work_cv
                .wait_timeout(ledger, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            ledger = guard;
        }
    }

    /// Non-blocking [`FleetShared::next_job`]: tops up a worker's window
    /// when more work is pending *right now*, without waiting for other
    /// workers' in-flight units to be lost and re-queued — the worker
    /// already has units in flight to keep it busy.
    fn try_job(&self, worker: usize) -> Option<(usize, u32)> {
        if self.fatal_set() {
            return None;
        }
        self.lock_ledger().checkout_for(worker)
    }

    /// Settles `slot` from `worker`'s window; `false` means the worker
    /// never held that slot (a protocol violation — treat the connection
    /// as corrupt).
    fn complete(&self, worker: usize, slot: usize, result: UnitResult) -> bool {
        let matched = self.lock_ledger().complete_for(worker, slot, result);
        self.work_cv.notify_all();
        matched
    }

    fn fail(&self, worker: usize, slot: usize, reason: String) -> bool {
        let matched = self.lock_ledger().fail_for(worker, slot, reason);
        self.work_cv.notify_all();
        matched
    }

    /// Requeues (or budget-fails) every unit in `worker`'s window; returns
    /// `(requeued, held)` counts.
    fn lose_all(&self, worker: usize, reason: &str) -> (usize, usize) {
        let counts = self.lock_ledger().lose_all(worker, reason);
        self.work_cv.notify_all();
        counts
    }

    /// Removes one worker from the live set; when the last worker is gone,
    /// all still-pending units are abandoned so the run fails loudly rather
    /// than hanging.
    fn worker_down(&self, reason: &str) {
        let mut live = self.live_workers.lock().unwrap_or_else(|e| e.into_inner());
        *live = live.saturating_sub(1);
        let none_left = *live == 0;
        drop(live);
        if none_left {
            self.lock_ledger()
                .abandon_pending(&format!("no live workers remain; last error: {reason}"));
        }
        self.work_cv.notify_all();
    }
}

/// Distributes units across worker *machines*: connects to N TCP addresses
/// (each served by a `read-worker` process), streams encoded [`WorkUnit`]
/// lines, and collects self-identifying [`UnitResult`] lines.
///
/// Unlike the local executors, remote workers can die mid-stream — the
/// driver detects EOF, io errors, liveness timeouts, and malformed or
/// mismatched responses, and re-queues the lost unit for a surviving worker
/// (up to [`SocketExecutor::max_attempts`] attempts per unit).  Because
/// results self-identify and the [`crate::Aggregator`] accepts any
/// partition/permutation, a run that survives worker deaths aggregates
/// byte-identically to [`SerialExecutor`].
///
/// Wire session, per worker (line-delimited, same unit grammar as
/// [`WorkPlan::serve`]):
///
/// ```text
/// driver → worker   window=<n>                (only when window > 1)
/// worker → driver   ok window=<m>             (old peers "!"/close → window 1)
/// driver → worker   <pipeline spec line>      (a ServeRequest encoding)
/// worker → driver   ok units=<n>              (or "!<reason>" = rejected)
/// driver → worker   <unit line>               (up to the window streamed ahead)
/// worker → driver   <unit-result line>        (or "!<reason>" = unit failed)
/// ```
///
/// Dispatch is *windowed*: the driver streams up to
/// [`SocketExecutor::window`] unit lines per worker before awaiting
/// results, hiding the per-message network latency that a lock-step
/// exchange pays on every unit.  Loss accounting stays exact — the ledger
/// tracks each worker's in-flight *set*, results self-identify and are
/// matched against that set out of order, and a dead connection requeues
/// precisely the units it still held.  Old lock-step workers that do not
/// understand the `window=` line are driven at window 1, byte-identically
/// to before.
#[derive(Debug, Clone)]
pub struct SocketExecutor {
    spec: String,
    workers: Vec<String>,
    connect_timeout: Duration,
    liveness_timeout: Duration,
    max_attempts: u32,
    window: usize,
    stats: Arc<FleetStats>,
}

impl SocketExecutor {
    /// Executor shipping `spec` (a pipeline spec line each worker rebuilds
    /// its plan from) to `workers` (TCP `host:port` addresses).
    pub fn new(
        spec: impl Into<String>,
        workers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        SocketExecutor {
            spec: spec.into(),
            workers: workers.into_iter().map(Into::into).collect(),
            connect_timeout: Duration::from_secs(5),
            liveness_timeout: Duration::from_secs(120),
            max_attempts: 3,
            window: 8,
            stats: Arc::new(FleetStats::default()),
        }
    }

    /// Sets the per-address TCP connect timeout (default 5s).
    #[must_use]
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the per-response liveness timeout (default 120s): a worker that
    /// goes silent longer than this while a unit is outstanding is declared
    /// dead and its unit re-queued.
    #[must_use]
    pub fn liveness_timeout(mut self, timeout: Duration) -> Self {
        self.liveness_timeout = timeout;
        self
    }

    /// Sets the per-unit attempt budget (default 3, clamped to ≥ 1): a unit
    /// lost this many times fails the run instead of being re-queued.
    #[must_use]
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the per-worker in-flight window (default 8, clamped to ≥ 1):
    /// how many unit lines are streamed ahead of results on one
    /// connection.  1 restores the lock-step exchange; the negotiated
    /// window is further capped by what the worker answers in the
    /// `window=` handshake.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// The worker addresses this executor fans out to.
    pub fn worker_addrs(&self) -> &[String] {
        &self.workers
    }

    /// Shared fleet diagnostics (deaths, retries); clones of this executor
    /// accumulate into the same counters.
    pub fn stats(&self) -> Arc<FleetStats> {
        Arc::clone(&self.stats)
    }

    /// [`Executor::execute`] with an optional wall-clock deadline: when it
    /// expires the run fails with a "timed out" error instead of waiting
    /// for stragglers.  Deadline granularity is bounded by the liveness
    /// timeout (a worker blocked in a read notices on its next wake).
    ///
    /// # Errors
    ///
    /// Unit failures (smallest failing index wins), spec rejection by a
    /// worker, all workers dead with units outstanding, attempt budget
    /// exhaustion, or deadline expiry.
    pub fn execute_with_deadline(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
        deadline: Option<Instant>,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let units: Vec<WorkUnit> = range
            .map(|index| {
                plan.units()
                    .get(index)
                    .cloned()
                    .ok_or_else(|| PipelineError::exec(format!("unit index {index} out of range")))
            })
            .collect::<Result<_, _>>()?;
        if units.is_empty() {
            return Ok(Vec::new());
        }
        if self.workers.is_empty() {
            return Err(PipelineError::exec(
                "socket executor has no worker addresses",
            ));
        }
        let shared = FleetShared::new(units.len(), self.max_attempts, self.workers.len());
        std::thread::scope(|scope| {
            for (worker, addr) in self.workers.iter().enumerate() {
                let shared = &shared;
                let units = &units;
                scope.spawn(move || self.drive_fleet_worker(worker, addr, units, shared, deadline));
            }
        });
        let fatal = shared.fatal.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(reason) = fatal {
            return Err(PipelineError::exec(reason));
        }
        let results = shared
            .ledger
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_results()?;
        self.stats
            .completed_units
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        Ok(results)
    }

    /// One driver thread's session against one worker address: connect,
    /// handshake (window negotiation + spec), then windowed unit streaming
    /// until the plan settles or the connection dies.
    ///
    /// The driver keeps its window full — blocking for work only when
    /// nothing is in flight — and matches each response against its
    /// in-flight set: results self-identify, in-band `!` failures belong
    /// to the oldest outstanding unit (workers answer in request order).
    /// On death every unit still in flight is requeued at once.
    fn drive_fleet_worker(
        &self,
        worker: usize,
        addr: &str,
        units: &[WorkUnit],
        shared: &FleetShared,
        deadline: Option<Instant>,
    ) {
        let (mut reader, window) = match self.connect_worker(addr) {
            ConnectOutcome::Ready(reader, window) => (reader, window.max(1)),
            ConnectOutcome::Down(reason) => {
                self.stats.failed_connects.fetch_add(1, Ordering::Relaxed);
                shared.worker_down(&format!("worker {addr}: {reason}"));
                return;
            }
            ConnectOutcome::Rejected(reason) => {
                // A spec the worker refuses is a driver/worker configuration
                // mismatch; no amount of reassignment fixes it.
                shared.set_fatal(format!("worker {addr} rejected pipeline spec: {reason}"));
                shared.worker_down("spec rejected");
                return;
            }
        };
        // Mirror of the ledger's in-flight set for this worker, in send
        // order (front = oldest outstanding unit).
        let mut inflight: VecDeque<(usize, u32)> = VecDeque::new();
        let die = |inflight: &mut VecDeque<(usize, u32)>, reason: String| {
            self.stats.worker_deaths.fetch_add(1, Ordering::Relaxed);
            // Requeue the in-flight window *before* the live-worker
            // decrement: if this was the last worker, the units must
            // already be re-queued (or budget-failed) so `abandon_pending`
            // accounts for them too.
            let reason = format!("worker {addr} died: {reason}");
            let (requeued, _held) = shared.lose_all(worker, &reason);
            inflight.clear();
            self.stats
                .retried_units
                .fetch_add(requeued as u64, Ordering::Relaxed);
            self.stats
                .requeued_inflight
                .fetch_add(requeued as u64, Ordering::Relaxed);
            shared.worker_down(&reason);
        };
        loop {
            // Top up the window.  Block only with an empty window: the
            // queue may be momentarily dry while another worker's units
            // are in flight, and this worker may be the survivor that has
            // to run them if they are lost.
            while inflight.len() < window {
                let job = if inflight.is_empty() {
                    shared.next_job(worker, deadline)
                } else {
                    shared.try_job(worker)
                };
                let Some((slot, attempt)) = job else { break };
                inflight.push_back((slot, attempt));
                let mut stream = reader.get_ref();
                if let Err(e) = writeln!(stream, "{}", units[slot].encode()) {
                    die(&mut inflight, format!("unit send failed: {e}"));
                    return;
                }
            }
            if inflight.is_empty() {
                // Nothing pending, nothing in flight here: settled or fatal.
                return;
            }
            self.stats.observe_inflight(inflight.len() as u64);
            match self.receive(&mut reader) {
                Exchange::Completed(result) => {
                    let Some(at) = inflight
                        .iter()
                        .position(|&(slot, _)| units[slot] == result.unit())
                    else {
                        die(
                            &mut inflight,
                            format!("answered with wrong unit {:?}", result.unit().encode()),
                        );
                        return;
                    };
                    let (slot, _) = inflight.remove(at).expect("position is in range");
                    if !shared.complete(worker, slot, result) {
                        die(&mut inflight, format!("ledger lost track of slot {slot}"));
                        return;
                    }
                }
                Exchange::UnitFailed(reason) => {
                    let (slot, _) = inflight.pop_front().expect("window is non-empty");
                    if !shared.fail(worker, slot, reason) {
                        die(&mut inflight, format!("ledger lost track of slot {slot}"));
                        return;
                    }
                }
                Exchange::Death(reason) => {
                    die(&mut inflight, reason);
                    return;
                }
            }
        }
    }

    /// Connects to one worker address and performs the handshake (window
    /// negotiation, then the pipeline spec).
    fn connect_worker(&self, addr: &str) -> ConnectOutcome {
        let addrs = match addr.to_socket_addrs() {
            Ok(addrs) => addrs,
            Err(e) => return ConnectOutcome::Down(format!("address did not resolve: {e}")),
        };
        let mut last_error = "address resolved to nothing".to_string();
        for sock_addr in addrs {
            match TcpStream::connect_timeout(&sock_addr, self.connect_timeout) {
                Ok(stream) => return self.handshake(stream, &sock_addr),
                Err(e) => last_error = format!("connect failed: {e}"),
            }
        }
        ConnectOutcome::Down(last_error)
    }

    fn prepare(&self, stream: TcpStream) -> Result<BufReader<TcpStream>, String> {
        if let Err(e) = stream.set_read_timeout(Some(self.liveness_timeout)) {
            return Err(format!("set_read_timeout failed: {e}"));
        }
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    fn handshake(&self, stream: TcpStream, sock_addr: &std::net::SocketAddr) -> ConnectOutcome {
        let mut window = self.window.max(1);
        let mut stream = stream;
        if window > 1 {
            match self.negotiate_window(stream) {
                WindowOutcome::Negotiated(reader, peer) => {
                    return self.spec_handshake(reader, window.min(peer.max(1)));
                }
                WindowOutcome::LockStep => {
                    // The old peer closed the connection on the unknown
                    // line; reconnect fresh and drive it lock-step.
                    window = 1;
                    match TcpStream::connect_timeout(sock_addr, self.connect_timeout) {
                        Ok(fresh) => stream = fresh,
                        Err(e) => {
                            return ConnectOutcome::Down(format!(
                                "reconnect for lock-step fallback failed: {e}"
                            ));
                        }
                    }
                }
                WindowOutcome::Down(reason) => return ConnectOutcome::Down(reason),
            }
        }
        let reader = match self.prepare(stream) {
            Ok(reader) => reader,
            Err(reason) => return ConnectOutcome::Down(reason),
        };
        self.spec_handshake(reader, window)
    }

    /// Sends `window=<n>` and classifies the peer: a streamed-protocol
    /// worker answers `ok window=<m>`; an old lock-step worker rejects the
    /// line (`!`-reply and/or close), which is the fallback signal.
    fn negotiate_window(&self, stream: TcpStream) -> WindowOutcome {
        let mut reader = match self.prepare(stream) {
            Ok(reader) => reader,
            Err(reason) => return WindowOutcome::Down(reason),
        };
        if let Err(e) = writeln!(reader.get_ref(), "window={}", self.window) {
            return WindowOutcome::Down(format!("window send failed: {e}"));
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return WindowOutcome::LockStep,
            Ok(_) => {}
            Err(e) => return WindowOutcome::Down(format!("window negotiation read failed: {e}")),
        }
        let line = line.trim();
        if line.starts_with('!') {
            return WindowOutcome::LockStep;
        }
        match line
            .strip_prefix("ok window=")
            .and_then(|m| m.parse::<usize>().ok())
        {
            Some(peer) => WindowOutcome::Negotiated(reader, peer),
            None => WindowOutcome::Down(format!("unexpected window response {line:?}")),
        }
    }

    /// Sends the pipeline spec and awaits acceptance on a prepared
    /// connection.
    fn spec_handshake(&self, mut reader: BufReader<TcpStream>, window: usize) -> ConnectOutcome {
        if let Err(e) = writeln!(reader.get_ref(), "{}", self.spec) {
            return ConnectOutcome::Down(format!("spec send failed: {e}"));
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return ConnectOutcome::Down("connection closed during handshake".to_string()),
            Ok(_) => {}
            Err(e) => return ConnectOutcome::Down(format!("handshake read failed: {e}")),
        }
        let line = line.trim();
        if let Some(reason) = line.strip_prefix('!') {
            return ConnectOutcome::Rejected(reason.to_string());
        }
        if line.starts_with("ok") {
            ConnectOutcome::Ready(reader, window)
        } else {
            ConnectOutcome::Down(format!("unexpected handshake response {line:?}"))
        }
    }

    /// Reads one response line from an established connection.
    fn receive(&self, reader: &mut BufReader<TcpStream>) -> Exchange {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Exchange::Death("connection closed (EOF) mid-stream".to_string()),
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Exchange::Death(format!(
                        "liveness timeout: no response within {:?}",
                        self.liveness_timeout
                    ));
                }
                Err(e) => return Exchange::Death(format!("read failed: {e}")),
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(failure) = trimmed.strip_prefix('!') {
                return Exchange::UnitFailed(format!("worker reported failure: {failure}"));
            }
            // Unlike local subprocess stdout, this connection carries only
            // protocol traffic: an undecodable line means the stream is
            // corrupt and the worker cannot be trusted with further units.
            return match UnitResult::decode(trimmed) {
                Ok(result) => Exchange::Completed(result),
                Err(_) => Exchange::Death(format!("undecodable response line {trimmed:?}")),
            };
        }
    }
}

impl Executor for SocketExecutor {
    fn name(&self) -> String {
        format!("socket[{}x remote]", self.workers.len())
    }

    fn execute(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        self.execute_with_deadline(plan, range, None)
    }
}

/// Deterministic fault-injection wrapper for property tests: perturbs an
/// inner executor's result stream (seeded drops, duplicates, shuffles) to
/// prove the downstream [`crate::Aggregator`] either reproduces the serial
/// bytes exactly (pure reordering) or fails loudly (any loss/duplication) —
/// never silently omits units.
///
/// The perturbation is deterministic in `(seed, range.start)`, so a failure
/// reproduces from the test's seed alone.
#[derive(Debug)]
pub struct FlakyExecutor<E> {
    inner: E,
    seed: u64,
    drop_per_mille: u16,
    duplicate_per_mille: u16,
    shuffle: bool,
    dropped: AtomicU64,
    duplicated: AtomicU64,
}

impl<E> FlakyExecutor<E> {
    /// Wraps `inner` with no perturbations enabled; compose with the
    /// builder methods.
    pub fn new(inner: E, seed: u64) -> Self {
        FlakyExecutor {
            inner,
            seed,
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            shuffle: false,
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        }
    }

    /// Drops each result with probability `per_mille`/1000.
    #[must_use]
    pub fn drop_per_mille(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille.min(1000);
        self
    }

    /// Duplicates each (undropped) result with probability `per_mille`/1000.
    #[must_use]
    pub fn duplicate_per_mille(mut self, per_mille: u16) -> Self {
        self.duplicate_per_mille = per_mille.min(1000);
        self
    }

    /// Shuffles the surviving results (Fisher–Yates on the seeded stream).
    #[must_use]
    pub fn shuffle(mut self, shuffle: bool) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// Results dropped so far (across all `execute` calls).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Results duplicated so far (across all `execute` calls).
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }
}

impl<E: Executor> Executor for FlakyExecutor<E> {
    fn name(&self) -> String {
        format!("flaky[{}]", self.inner.name())
    }

    fn execute(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let mut rng =
            SplitMix64::new(self.seed ^ (range.start as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let results = self.inner.execute(plan, range)?;
        let mut perturbed = Vec::with_capacity(results.len());
        for result in results {
            let roll = rng.next() % 1000;
            if roll < u64::from(self.drop_per_mille) {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if roll < u64::from(self.drop_per_mille) + u64::from(self.duplicate_per_mille) {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                perturbed.push(result.clone());
            }
            perturbed.push(result);
        }
        if self.shuffle {
            // Fisher–Yates over the seeded stream.
            for i in (1..perturbed.len()).rev() {
                let j = (rng.next() % (i as u64 + 1)) as usize;
                perturbed.swap(i, j);
            }
        }
        Ok(perturbed)
    }
}

/// SplitMix64: tiny deterministic PRNG for fault injection (this crate has
/// no rand dependency by design).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_names_are_descriptive() {
        assert_eq!(SerialExecutor.name(), "serial");
        assert_eq!(ThreadExecutor::machine().name(), "threads[machine]");
        assert_eq!(ThreadExecutor::new(4).name(), "threads[4]");
        let sub = SubprocessExecutor::new("/bin/worker").workers(3);
        assert!(sub.name().starts_with("subprocess[3x"));
        assert_eq!(sub.worker_count(), 3);
    }

    #[test]
    fn subprocess_builder_composes() {
        let exec = SubprocessExecutor::new("prog")
            .arg("--worker")
            .args(["a", "b"])
            .env("K", "V")
            .workers(0);
        // Zero workers clamps to one at execution time.
        assert_eq!(exec.worker_count(), 0);
        assert_eq!(exec.args.len(), 3);
        assert_eq!(exec.envs.len(), 1);
    }

    #[test]
    fn socket_executor_builder_composes() {
        let exec = SocketExecutor::new("req v1 ...", ["127.0.0.1:7070", "127.0.0.1:7071"])
            .connect_timeout(Duration::from_millis(10))
            .liveness_timeout(Duration::from_secs(2))
            .max_attempts(0);
        assert_eq!(exec.name(), "socket[2x remote]");
        assert_eq!(exec.worker_addrs().len(), 2);
        // Attempt budget clamps to at least one try.
        assert_eq!(exec.max_attempts, 1);
        assert_eq!(exec.stats().worker_deaths(), 0);
    }

    #[test]
    fn flaky_executor_is_deterministic_in_its_seed() {
        // Two streams from the same seed must agree (failures reproduce).
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = SplitMix64::new(43);
        let mut d = SplitMix64::new(42);
        assert_ne!(
            (0..8).map(|_| c.next()).collect::<Vec<_>>(),
            (0..8).map(|_| d.next()).collect::<Vec<_>>()
        );
        let flaky = FlakyExecutor::new(SerialExecutor, 42)
            .drop_per_mille(100)
            .duplicate_per_mille(100)
            .shuffle(true);
        assert_eq!(flaky.name(), "flaky[serial]");
        assert_eq!(flaky.dropped(), 0);
        assert_eq!(flaky.duplicated(), 0);
    }

    #[test]
    fn stderr_excerpt_is_bounded_and_labeled() {
        assert_eq!(stderr_excerpt("   \n"), "");
        assert_eq!(
            stderr_excerpt("boom\n"),
            "; worker stderr: boom".to_string()
        );
        let long = "x".repeat(10_000);
        let excerpt = stderr_excerpt(&long);
        assert!(excerpt.len() < 5000);
        assert!(excerpt.ends_with("… [truncated]"));
    }
}
