//! Execution strategies for a [`WorkPlan`]: the [`Executor`] trait, its
//! in-process implementations ([`SerialExecutor`], [`ThreadExecutor`]) and
//! its remote ones ([`SubprocessExecutor`] over worker processes' stdio,
//! [`SocketExecutor`] over TCP).
//!
//! An executor receives a plan plus a unit-index range and returns one
//! [`UnitResult`] per unit.  Units are position-independent and results are
//! self-identifying, so *how* the range is executed — one thread, a scoped
//! thread pool, or remote workers speaking the wire protocol — never
//! changes what the [`crate::Aggregator`] folds the results into: every
//! executor produces byte-identical reports.
//!
//! The two remote executors differ only in their transport.  Both run one
//! windowed driver: the same `window=<n>` handshake, the same window of
//! units in flight per worker, and the same rule for a worker that dies —
//! its in-flight units are requeued on the survivors.  Each worker's
//! session owns that worker's window.  The run's other shared state (every
//! unit's progress, the live-worker count and the fatal error) sits behind
//! one lock whose one condition variable is notified after every change,
//! so a session that waits for work wakes on the change itself or at the
//! run's deadline: the driver has no poll.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::PipelineError;
use crate::exec::{lock_ok, resolve_threads, run_indexed_threads, wait_until};
use crate::plan::{UnitResult, WorkPlan, WorkUnit};
use crate::wire;

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

/// Unit lines a remote driver streams ahead of their results on one worker.
const DEFAULT_WINDOW: usize = 8;

/// Dispatches a unit gets before the worker deaths that lose it fail the
/// run.
const DEFAULT_ATTEMPTS: u32 = 3;

/// The error of a run whose deadline passed.
const TIMED_OUT: &str = "request timed out while units were outstanding";

/// Distributes units across worker *processes* speaking the
/// [`crate::plan`] wire protocol: unit lines go down each worker's stdin,
/// one encoded [`UnitResult`] line per unit comes back on its stdout.
///
/// The driver is the windowed one [`SocketExecutor`] runs, with the child's
/// stdio pipes as the transport: each session opens with the `window=<n>`
/// handshake, then streams up to 8 unit lines ahead of their results.  A
/// worker that dies mid-stream — it hangs up, or writes a line that is
/// neither a result nor a `!` failure — loses its in-flight units to the
/// surviving workers, up to 3 attempts per unit.  Results self-identify,
/// so the aggregate is byte-identical to a serial run regardless of worker
/// count, scheduling or deaths.  [`SubprocessExecutor::stats`] counts the
/// deaths and retries.
///
/// A worker is any command that reconstructs the same pipeline and plan and
/// calls [`WorkPlan::serve`] on its stdio — see `examples/shard_worker.rs`
/// for the canonical self-spawning driver.  Lines a worker writes before
/// its handshake reply are skipped (a test harness banner, say).  A dead
/// worker's error carries its exit status and captured stderr, and a
/// worker that exits non-zero after answering every unit it took fails
/// the run.
#[derive(Debug, Clone)]
pub struct SubprocessExecutor {
    program: PathBuf,
    args: Vec<String>,
    envs: Vec<(String, String)>,
    workers: usize,
    stats: Arc<FleetStats>,
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
            stats: Arc::new(FleetStats::default()),
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

    /// Shared fleet diagnostics (deaths, retries); clones of this executor
    /// accumulate into the same counters.
    pub fn stats(&self) -> Arc<FleetStats> {
        Arc::clone(&self.stats)
    }

    fn spawn_worker(&self) -> Result<ChildLink, String> {
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
        let child = command
            .spawn()
            .map_err(|e| format!("failed to spawn worker {:?}: {e}", self.program.display()))?;
        ChildLink::new(child)
    }
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
        let units = range_units(plan, range)?;
        let workers: Vec<String> = (0..self.workers.max(1).min(units.len()))
            .map(|i| format!("#{i}"))
            .collect();
        let config = DriverConfig {
            stats: &self.stats,
            window: DEFAULT_WINDOW,
            spec: None,
            deadline: None,
        };
        drive(config, &units, &workers, |_| self.spawn_worker())
    }
}

/// The units at `range` of `plan`, for a driver that ships them by value.
fn range_units(plan: &WorkPlan<'_>, range: Range<usize>) -> Result<Vec<WorkUnit>, PipelineError> {
    range
        .map(|index| {
            plan.units()
                .get(index)
                .cloned()
                .ok_or_else(|| PipelineError::exec(format!("unit index {index} out of range")))
        })
        .collect()
}

/// A line transport to one remote worker: a child process's stdio pipes
/// ([`ChildLink`]) or a TCP stream ([`TcpLink`]).
trait Link {
    /// Writes one line.
    fn send(&mut self, line: &str) -> std::io::Result<()>;

    /// Reads the next line into `line`; `Ok(0)` means the worker hung up.
    /// A transport that can time out waits no later than `deadline`.  The
    /// error is the reason the read failed.
    fn recv(&mut self, line: &mut String, deadline: Option<Instant>) -> Result<usize, String>;

    /// Closes the link as `end` says.  Returns how the worker process
    /// exited when that is worth reporting: always after an unclean end,
    /// and after [`End::Clean`] only when it exited non-zero.
    fn close(self, end: End) -> Option<String>;
}

/// How a session leaves its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// Every unit the worker took was answered: let it finish.
    Clean,
    /// The worker hung up: reap it.
    HungUp,
    /// The session is abandoned: stop the worker.
    Kill,
}

/// A worker child process: units go down its stdin and replies come up its
/// stdout, while a thread of its own drains stderr so a chatty worker never
/// blocks on a full pipe.
struct ChildLink {
    guard: ChildGuard,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    stderr: JoinHandle<String>,
}

impl ChildLink {
    fn new(child: Child) -> Result<ChildLink, String> {
        // From here on every exit path reaps the child.
        let mut guard = ChildGuard::new(child);
        let child = &mut guard.child;
        let (Some(stdin), Some(stdout), Some(mut stderr)) =
            (child.stdin.take(), child.stdout.take(), child.stderr.take())
        else {
            return Err("worker stdio was not piped".to_string());
        };
        let stderr = std::thread::spawn(move || {
            let mut text = Vec::new();
            let _ = stderr.read_to_end(&mut text);
            String::from_utf8_lossy(&text).into_owned()
        });
        Ok(ChildLink {
            guard,
            stdin,
            stdout: BufReader::new(stdout),
            stderr,
        })
    }
}

impl Link for ChildLink {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.stdin, "{line}")
    }

    fn recv(&mut self, line: &mut String, _deadline: Option<Instant>) -> Result<usize, String> {
        // Pipes get no timeout: a worker process is trusted to make progress
        // or exit.
        self.stdout
            .read_line(line)
            .map_err(|e| format!("read failed: {e}"))
    }

    fn close(mut self, end: End) -> Option<String> {
        // EOF on stdin ends the worker's serve loop.
        drop(self.stdin);
        match end {
            // Read out whatever follows the protocol (a test harness's
            // summary, say) so the worker never writes into a closed pipe.
            End::Clean => {
                let _ = std::io::copy(&mut self.stdout, &mut std::io::sink());
            }
            End::HungUp => {}
            End::Kill => {
                let _ = self.guard.child.kill();
            }
        }
        let status = self.guard.wait();
        let stderr = self.stderr.join().unwrap_or_default();
        match status {
            Ok(status) if end == End::Clean && status.success() => {
                // Forward the worker's diagnostics, preserving the
                // visibility an inherited stderr gives worker panics and
                // harness chatter.
                eprint!("{stderr}");
                None
            }
            Ok(status) => Some(format!(
                "worker exited with {status}{}",
                stderr_excerpt(&stderr)
            )),
            Err(e) => Some(format!("worker wait failed: {e}")),
        }
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

/// A TCP connection to a `read-worker`: every read waits at most the
/// liveness timeout.
struct TcpLink {
    reader: BufReader<TcpStream>,
    liveness: Duration,
}

impl TcpLink {
    fn connect(addr: &str, liveness: Duration) -> Result<TcpLink, String> {
        let stream = wire::connect(addr, liveness).map_err(|e| format!("connect failed: {e}"))?;
        Ok(TcpLink {
            reader: BufReader::new(stream),
            liveness,
        })
    }
}

impl Link for TcpLink {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        writeln!(self.reader.get_ref(), "{line}")
    }

    fn recv(&mut self, line: &mut String, deadline: Option<Instant>) -> Result<usize, String> {
        if let Some(deadline) = deadline {
            // Wake no later than the deadline, however long the liveness
            // timeout is.
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("deadline passed".to_string());
            }
            self.reader
                .get_ref()
                .set_read_timeout(Some(left.min(self.liveness)))
                .map_err(|e| format!("set_read_timeout failed: {e}"))?;
        }
        self.reader.read_line(line).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                format!("liveness timeout: no response within {:?}", self.liveness)
            }
            _ => format!("read failed: {e}"),
        })
    }

    fn close(self, _end: End) -> Option<String> {
        None
    }
}

/// Observed fleet behavior of a [`SocketExecutor`] or a
/// [`SubprocessExecutor`], shared across clones of the executor (counters
/// accumulate over every `execute` call).
///
/// These are diagnostics, not part of the result contract: a run that
/// reports deaths and retries still aggregates byte-identically to a serial
/// run, because lost units are re-executed and results self-identify.
#[derive(Debug, Default)]
pub struct FleetStats {
    worker_deaths: AtomicU64,
    failed_connects: AtomicU64,
    /// In-flight units that worker deaths requeued: both `retried_units`
    /// and `requeued_inflight` read it.
    requeued: AtomicU64,
    completed_units: AtomicU64,
    inflight_peak: AtomicU64,
}

impl FleetStats {
    /// Workers that died mid-stream (EOF, io error, liveness timeout, or a
    /// malformed/mismatched response) after a successful handshake.
    pub fn worker_deaths(&self) -> u64 {
        self.worker_deaths.load(Ordering::Relaxed)
    }

    /// Workers that never completed the connect (or spawn) and handshake.
    pub fn failed_connects(&self) -> u64 {
        self.failed_connects.load(Ordering::Relaxed)
    }

    /// Units re-queued for another worker after the worker holding them
    /// died.  The same count as [`FleetStats::requeued_inflight`]: both
    /// keys count the same requeued units.
    pub fn retried_units(&self) -> u64 {
        self.requeued.load(Ordering::Relaxed)
    }

    /// Unit results successfully collected from remote workers.
    pub fn completed_units(&self) -> u64 {
        self.completed_units.load(Ordering::Relaxed)
    }

    /// The largest in-flight window observed on any single worker: up to
    /// the negotiated window when pipelining actually filled the wire.
    pub fn inflight_peak(&self) -> u64 {
        self.inflight_peak.load(Ordering::Relaxed)
    }

    /// In-flight units swept back to the pending queue by worker deaths —
    /// one death can requeue a whole window, and this counter makes that
    /// recovery observable (it counts only the requeued units;
    /// budget-exhausted losses fail the run instead).  The same count as
    /// [`FleetStats::retried_units`]: both keys count the same requeued
    /// units.
    pub fn requeued_inflight(&self) -> u64 {
        self.requeued.load(Ordering::Relaxed)
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

/// What a remote executor runs the windowed driver with.
struct DriverConfig<'a> {
    stats: &'a FleetStats,
    /// Unit lines streamed ahead of results; a worker may grant fewer.
    window: usize,
    /// The pipeline spec a TCP worker rebuilds its plan from; a child
    /// process starts with its plan.
    spec: Option<&'a str>,
    deadline: Option<Instant>,
}

/// Why a worker session stopped before the plan settled.
enum Stop {
    /// The worker hung up, a read or write failed, or the worker broke the
    /// protocol; `End` says how to leave its link.
    Died(String, End),
    /// The worker answered the handshake with a `!` rejection — a
    /// configuration mismatch that no other worker can fix.
    Rejected(String),
    /// The run's deadline passed while waiting on the worker.
    Expired,
}

/// The windowed driver both remote executors run: one session per worker,
/// all drawing units from one ledger.  Returns the results in unit order.
fn drive<L: Link>(
    config: DriverConfig<'_>,
    units: &[WorkUnit],
    workers: &[String],
    open: impl Fn(&str) -> Result<L, String> + Sync,
) -> Result<Vec<UnitResult>, PipelineError> {
    if units.is_empty() {
        return Ok(Vec::new());
    }
    let shared = FleetShared::new(config, units, workers.len());
    std::thread::scope(|scope| {
        for name in workers {
            let (shared, open) = (&shared, &open);
            scope.spawn(move || match open(name) {
                Ok(link) => shared.session(name, link),
                Err(reason) => shared.failed_connect(&format!("worker {name}: {reason}")),
            });
        }
    });
    shared.into_results()
}

/// A unit checked out of the [`Ledger`]: `(slot, attempt)`, attempts from 1.
type Job = (usize, u32);

/// Shared state of one windowed run.  The ledger, the live-worker count and
/// the fatal error sit behind one lock, and `changed` is notified after
/// every change to them, so a session waiting for work wakes on the change
/// itself or at the deadline: nothing polls.
///
/// The units a worker holds are recorded only in its session's window; a
/// session whose worker dies hands that window back to the ledger, unit by
/// unit.
struct FleetShared<'a> {
    config: DriverConfig<'a>,
    units: &'a [WorkUnit],
    state: Mutex<FleetState>,
    changed: Condvar,
}

/// What [`FleetShared`]'s lock guards.
struct FleetState {
    ledger: Ledger,
    /// Workers not yet lost to a failed connect or a death.
    live: usize,
    /// The first non-retryable error; it ends the run.
    fatal: Option<String>,
}

impl FleetState {
    /// Takes one worker out of the live count; when the last one is gone,
    /// every still-pending unit is abandoned so the run fails loudly rather
    /// than hanging.
    fn worker_down(&mut self, reason: &str) {
        self.live = self.live.saturating_sub(1);
        if self.live == 0 {
            self.ledger
                .abandon_pending(&format!("no live workers remain; last error: {reason}"));
        }
    }
}

impl<'a> FleetShared<'a> {
    fn new(config: DriverConfig<'a>, units: &'a [WorkUnit], workers: usize) -> Self {
        FleetShared {
            config,
            units,
            state: Mutex::new(FleetState {
                ledger: Ledger::new(units.len(), DEFAULT_ATTEMPTS),
                live: workers,
                fatal: None,
            }),
            changed: Condvar::new(),
        }
    }

    /// One worker's session over `link`: the handshake, then windowed unit
    /// streaming until the plan settles, the run fails or the worker dies.
    /// Every way out closes the link.
    fn session<L: Link>(&self, name: &str, mut link: L) {
        let mut window = VecDeque::new();
        let (streamed, stop) = match self.handshake(&mut link) {
            Ok(size) => (true, self.stream(&mut link, size, &mut window)),
            Err(stop) => (false, Err(stop)),
        };
        match stop {
            Ok(()) if self.fatal_set() => {
                link.close(End::Kill);
            }
            Ok(()) => {
                if let Some(exit) = link.close(End::Clean) {
                    self.set_fatal(format!("worker {name} failed after its session: {exit}"));
                }
            }
            Err(Stop::Died(reason, end)) => {
                let reason = match link.close(end) {
                    Some(exit) => format!("{reason} ({exit})"),
                    None => reason,
                };
                if streamed {
                    self.die(window, &format!("worker {name} died: {reason}"));
                } else {
                    self.failed_connect(&format!("worker {name} failed its handshake: {reason}"));
                }
            }
            Err(Stop::Rejected(reason)) => {
                // Fail the run before reaping the worker, so no session
                // takes another unit meanwhile.
                self.set_fatal(format!("worker {name} rejected {reason}"));
                link.close(End::Kill);
            }
            Err(Stop::Expired) => {
                // Not a worker death: nothing is requeued, the run fails.
                link.close(End::Kill);
                self.set_fatal(TIMED_OUT.to_string());
            }
        }
    }

    /// Sends `window=<n>` and waits for the grant, skipping whatever the
    /// worker prints before it (a test harness banner, say); then, for a
    /// TCP worker, sends the pipeline spec and waits for its acceptance.
    /// Returns the negotiated window.
    fn handshake<L: Link>(&self, link: &mut L) -> Result<usize, Stop> {
        let send_failed = |e: std::io::Error| Stop::Died(format!("send failed: {e}"), End::Kill);
        link.send(&format!("window={}", self.config.window))
            .map_err(send_failed)?;
        let granted = loop {
            let line = self.read(link)?;
            if let Some(reason) = line.strip_prefix('!') {
                return Err(Stop::Rejected(format!("the window handshake: {reason}")));
            }
            if let Some(granted) = line.strip_prefix("ok window=") {
                break granted.parse::<usize>().map_err(|_| {
                    Stop::Died(format!("unexpected window response {line:?}"), End::Kill)
                })?;
            }
        };
        if let Some(spec) = self.config.spec {
            link.send(spec).map_err(send_failed)?;
            let line = self.read(link)?;
            if let Some(reason) = line.strip_prefix('!') {
                return Err(Stop::Rejected(format!("pipeline spec: {reason}")));
            }
            if !line.starts_with("ok") {
                return Err(Stop::Died(
                    format!("unexpected handshake response {line:?}"),
                    End::Kill,
                ));
            }
        }
        Ok(self.config.window.min(granted).max(1))
    }

    /// Streams units to one worker, keeping up to `size` of them in
    /// `window` (in send order, front = oldest), and settles each answer in
    /// the ledger.  `Ok` means this worker has nothing left to do: the plan
    /// settled or the run failed.  On a death, `window` holds the units the
    /// worker never answered.
    ///
    /// Answers are matched against the window: results self-identify, and
    /// an in-band `!` failure belongs to the oldest outstanding unit
    /// (workers answer in request order).
    fn stream<L: Link>(
        &self,
        link: &mut L,
        size: usize,
        window: &mut VecDeque<Job>,
    ) -> Result<(), Stop> {
        let died = |reason: String| Stop::Died(reason, End::Kill);
        loop {
            // Top up the window.  Block only with an empty window: the
            // queue may be momentarily dry while another worker's units
            // are in flight, and this worker may be the survivor that has
            // to run them if they are lost.
            while window.len() < size {
                let Some(job) = self.next_job(window.is_empty()) else {
                    break;
                };
                window.push_back(job);
                link.send(&self.units[job.0].encode())
                    .map_err(|e| died(format!("unit send failed: {e}")))?;
            }
            if window.is_empty() {
                return Ok(());
            }
            self.config.stats.observe_inflight(window.len() as u64);
            let line = self.read(link)?;
            if let Some(failure) = line.strip_prefix('!') {
                // Deterministic: every worker would fail the unit the same
                // way, so it is recorded, not retried.
                let (slot, _) = window.pop_front().expect("window is non-empty");
                let reason = format!("worker reported failure: {failure}");
                self.change(|state| state.ledger.fail(slot, reason));
            } else {
                // After the handshake every line is protocol traffic: one
                // that does not decode means the stream is corrupt and the
                // worker cannot be trusted with further units.
                let result = UnitResult::decode(&line)
                    .map_err(|_| died(format!("undecodable response line {line:?}")))?;
                let unit = result.unit();
                let at = window
                    .iter()
                    .position(|&(slot, _)| self.units[slot] == unit)
                    .ok_or_else(|| died(format!("answered with wrong unit {:?}", unit.encode())))?;
                let (slot, _) = window.remove(at).expect("position is in range");
                self.change(|state| state.ledger.complete(slot, result));
            }
        }
    }

    /// The next non-blank line from `link`, trimmed.
    fn read<L: Link>(&self, link: &mut L) -> Result<String, Stop> {
        loop {
            let mut line = String::new();
            match link.recv(&mut line, self.config.deadline) {
                Ok(0) => return Err(Stop::Died("stream closed (EOF)".to_string(), End::HungUp)),
                Ok(_) => {}
                Err(_) if self.expired() => return Err(Stop::Expired),
                Err(reason) => return Err(Stop::Died(reason, End::Kill)),
            }
            line.truncate(line.trim_end().len());
            line.drain(..line.len() - line.trim_start().len());
            if !line.is_empty() {
                return Ok(line);
            }
        }
    }

    fn expired(&self) -> bool {
        self.config
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// Applies one change to the shared state, then wakes every waiting
    /// session to look at it.
    fn change<R>(&self, update: impl FnOnce(&mut FleetState) -> R) -> R {
        let out = update(&mut lock_ok(&self.state));
        self.changed.notify_all();
        out
    }

    fn fatal_set(&self) -> bool {
        lock_ok(&self.state).fatal.is_some()
    }

    fn set_fatal(&self, reason: String) {
        self.change(|state| {
            state.fatal.get_or_insert(reason);
        });
    }

    /// The next unit for a session, or `None` when it should take no more:
    /// the run failed, the plan settled, or, without `block`, nothing is
    /// pending right now.
    ///
    /// With `block` it waits while nothing is pending but units are in
    /// flight: another worker's unit may yet be lost and requeued, and this
    /// worker may be the only survivor able to run it.  A wait that reaches
    /// the deadline fails the run.
    fn next_job(&self, block: bool) -> Option<Job> {
        let mut state = lock_ok(&self.state);
        if block {
            state = wait_until(&self.changed, state, self.config.deadline, |state| {
                state.fatal.is_none()
                    && state.ledger.pending.is_empty()
                    && !state.ledger.is_settled()
            });
        }
        if state.fatal.is_some() {
            return None;
        }
        if block && self.expired() {
            drop(state);
            self.set_fatal(TIMED_OUT.to_string());
            return None;
        }
        state.ledger.checkout()
    }

    /// A worker died mid-stream: every unit left in its `window` is
    /// requeued (or, its attempt budget spent, failed), and the worker
    /// leaves the live count in the same change, so that if it was the
    /// last one, the requeued units are abandoned with the rest.
    fn die(&self, window: VecDeque<Job>, reason: &str) {
        let stats = self.config.stats;
        stats.worker_deaths.fetch_add(1, Ordering::Relaxed);
        let requeued = self.change(|state| {
            let mut requeued = 0;
            for (slot, attempt) in window {
                requeued += u64::from(state.ledger.lose(slot, attempt, reason));
            }
            state.worker_down(reason);
            requeued
        });
        stats.requeued.fetch_add(requeued, Ordering::Relaxed);
    }

    /// A worker never got as far as streaming units; its share of the plan
    /// goes to the others.
    fn failed_connect(&self, reason: &str) {
        self.config
            .stats
            .failed_connects
            .fetch_add(1, Ordering::Relaxed);
        self.change(|state| state.worker_down(reason));
    }

    /// The run's outcome: its fatal error, or every unit's result in unit
    /// order (the smallest failing unit's error otherwise).
    fn into_results(self) -> Result<Vec<UnitResult>, PipelineError> {
        let state = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(reason) = state.fatal {
            return Err(PipelineError::exec(reason));
        }
        let results = state.ledger.into_results()?;
        self.config
            .stats
            .completed_units
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        Ok(results)
    }
}

/// Unit-loss accounting of one windowed run: every unit goes from pending,
/// through in flight, to completed or failed, and a unit whose worker died
/// goes back to pending until its attempt budget is spent.  Pure
/// bookkeeping under [`FleetShared`]'s lock: which worker holds a unit only
/// that worker's session records.  `into_results` enforces the
/// [`Executor`] contract, whatever the workers' timing.
struct Ledger {
    pending: VecDeque<Job>,
    results: Vec<Option<UnitResult>>,
    failures: BTreeMap<usize, String>,
    in_flight: usize,
    max_attempts: u32,
}

impl Ledger {
    /// A ledger over `units` slots, each dispatchable up to `max_attempts`
    /// times (clamped to at least 1).
    fn new(units: usize, max_attempts: u32) -> Ledger {
        Ledger {
            pending: (0..units).map(|slot| (slot, 1)).collect(),
            results: (0..units).map(|_| None).collect(),
            failures: BTreeMap::new(),
            in_flight: 0,
            max_attempts: max_attempts.max(1),
        }
    }

    /// Hands out the next pending unit, marking it in flight.  `None` means
    /// nothing is pending *right now*: an in-flight unit may yet be lost
    /// and re-queued.
    fn checkout(&mut self) -> Option<Job> {
        let entry = self.pending.pop_front()?;
        self.in_flight += 1;
        Some(entry)
    }

    /// Settles a checked-out slot with its result.  A duplicate completion
    /// (two workers racing the same re-dispatched slot) keeps the first
    /// result — units are deterministic, so both are byte-identical.
    fn complete(&mut self, slot: usize, result: UnitResult) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.results[slot].is_none() && !self.failures.contains_key(&slot) {
            self.results[slot] = Some(result);
        }
    }

    /// Settles a checked-out slot as deterministically failed (the worker
    /// computed it and reported an in-band failure): re-dispatching would
    /// fail identically, so the slot is not retried.
    fn fail(&mut self, slot: usize, reason: impl Into<String>) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if self.results[slot].is_none() {
            self.failures.entry(slot).or_insert_with(|| reason.into());
        }
    }

    /// Reports that the worker holding `(slot, attempt)` died before
    /// answering.  Returns `true` when the unit was re-queued for another
    /// worker; `false` when its attempt budget is exhausted and it has been
    /// recorded as failed.
    fn lose(&mut self, slot: usize, attempt: u32, reason: &str) -> bool {
        self.in_flight = self.in_flight.saturating_sub(1);
        if attempt < self.max_attempts {
            self.pending.push_back((slot, attempt + 1));
            true
        } else {
            self.failures.entry(slot).or_insert_with(|| {
                format!("unit lost {attempt} time(s); attempt budget exhausted: {reason}")
            });
            false
        }
    }

    /// Fails every still-pending unit (no worker left to run them).
    fn abandon_pending(&mut self, reason: &str) {
        while let Some((slot, _)) = self.pending.pop_front() {
            self.failures
                .entry(slot)
                .or_insert_with(|| format!("unit abandoned: {reason}"));
        }
    }

    /// Whether every unit has been settled (completed or failed) — nothing
    /// pending, nothing in flight.
    fn is_settled(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }

    /// Every slot completed → the results in unit order; otherwise the
    /// error of the *smallest* failed (or, finished early, unsettled) slot.
    fn into_results(self) -> Result<Vec<UnitResult>, PipelineError> {
        if let Some((slot, reason)) = self.failures.into_iter().next() {
            return Err(PipelineError::exec(format!("unit {slot}: {reason}")));
        }
        self.results
            .into_iter()
            .enumerate()
            .map(|(slot, result)| {
                result.ok_or_else(|| PipelineError::exec(format!("unit {slot} was never settled")))
            })
            .collect()
    }
}

/// Distributes units across worker *machines*: connects to N TCP addresses
/// (each served by a `read-worker` process), streams encoded [`WorkUnit`]
/// lines, and collects self-identifying [`UnitResult`] lines.
///
/// Remote workers can die mid-stream — the driver detects EOF, io errors,
/// liveness timeouts, and malformed or mismatched responses, and re-queues
/// the lost units for a surviving worker (up to 3 attempts per unit).
/// Because results self-identify and the [`crate::Aggregator`] accepts any
/// partition/permutation, a run that survives worker deaths aggregates
/// byte-identically to [`SerialExecutor`].  [`SubprocessExecutor`] runs the
/// same driver over child processes' stdio.  Connecting to one address
/// waits at most 5 s.
///
/// Wire session, per worker (line-delimited, same unit grammar as
/// [`WorkPlan::serve`]):
///
/// ```text
/// driver → worker   window=<n>                (always first, n ≥ 1)
/// worker → driver   ok window=<m>             (or "!<reason>" = rejected)
/// driver → worker   <pipeline spec line>      (a ServeRequest encoding)
/// worker → driver   ok units=<n>              (or "!<reason>" = rejected)
/// driver → worker   <unit line>               (up to the window streamed ahead)
/// worker → driver   <unit-result line>        (or "!<reason>" = unit failed)
/// ```
///
/// Dispatch is *windowed*: the driver streams up to
/// `min(n, m)` unit lines per worker before awaiting results, hiding the
/// per-message network latency that a one-at-a-time exchange pays on every
/// unit.  Loss accounting stays exact — each session tracks its worker's
/// in-flight window, results self-identify and are matched against that
/// window out of order, and a dead connection requeues precisely the units
/// it still held.
#[derive(Debug, Clone)]
pub struct SocketExecutor {
    spec: String,
    workers: Vec<String>,
    liveness_timeout: Duration,
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
            liveness_timeout: Duration::from_secs(120),
            window: DEFAULT_WINDOW,
            stats: Arc::new(FleetStats::default()),
        }
    }

    /// Sets the per-response liveness timeout (default 120s): a worker that
    /// goes silent longer than this while a unit is outstanding is declared
    /// dead and its unit re-queued.
    #[must_use]
    pub fn liveness_timeout(mut self, timeout: Duration) -> Self {
        self.liveness_timeout = timeout;
        self
    }

    /// Sets the per-worker in-flight window (default 8, clamped to ≥ 1):
    /// how many unit lines are streamed ahead of results on one
    /// connection.  1 sends each unit only after the previous answer; the
    /// negotiated window is further capped by what the worker answers in
    /// the `window=` handshake.
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
    /// for stragglers.  Every wait on a worker ends by the deadline, so the
    /// run returns promptly even when the liveness timeout is longer; an
    /// expiry counts no worker death and requeues nothing.
    ///
    /// # Errors
    ///
    /// Unit failures (smallest failing index wins), handshake rejection by
    /// a worker, all workers dead with units outstanding, attempt budget
    /// exhaustion, or deadline expiry.
    pub fn execute_with_deadline(
        &self,
        plan: &WorkPlan<'_>,
        range: Range<usize>,
        deadline: Option<Instant>,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let units = range_units(plan, range)?;
        if self.workers.is_empty() && !units.is_empty() {
            return Err(PipelineError::exec(
                "socket executor has no worker addresses",
            ));
        }
        let config = DriverConfig {
            stats: &self.stats,
            window: self.window,
            spec: Some(&self.spec),
            deadline,
        };
        drive(config, &units, &self.workers, |addr| {
            TcpLink::connect(addr, self.liveness_timeout)
        })
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
    use std::sync::mpsc;

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
            .liveness_timeout(Duration::from_secs(2))
            .window(0);
        assert_eq!(exec.name(), "socket[2x remote]");
        assert_eq!(exec.worker_addrs().len(), 2);
        // The window clamps to at least one unit in flight.
        assert_eq!(exec.window, 1);
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

    // ---- Ledger -----------------------------------------------------------

    fn sentinel_result(slot: usize) -> UnitResult {
        UnitResult::McShard {
            cell: slot,
            trial_range: 0..1,
            ters: vec![],
        }
    }

    #[test]
    fn ledger_happy_path_returns_results_in_unit_order() {
        let mut ledger = Ledger::new(3, 3);
        // Check units out in a scrambled order (two workers interleaving).
        let a = ledger.checkout().unwrap();
        let b = ledger.checkout().unwrap();
        assert_eq!((a, b), ((0, 1), (1, 1)));
        ledger.complete(b.0, sentinel_result(b.0));
        let c = ledger.checkout().unwrap();
        ledger.complete(c.0, sentinel_result(c.0));
        assert!(!ledger.is_settled(), "slot 0 still in flight");
        ledger.complete(a.0, sentinel_result(a.0));
        assert!(ledger.is_settled());
        assert_eq!(ledger.checkout(), None);
        let results = ledger.into_results().unwrap();
        assert_eq!(results.len(), 3);
        for (slot, result) in results.iter().enumerate() {
            assert_eq!(*result, sentinel_result(slot));
        }
    }

    #[test]
    fn ledger_requeues_lost_units_until_budget_exhausted() {
        let mut ledger = Ledger::new(1, 2);
        let (slot, attempt) = ledger.checkout().unwrap();
        assert!(
            ledger.lose(slot, attempt, "worker died"),
            "first loss retries"
        );
        assert!(!ledger.is_settled(), "re-queued unit is pending again");
        let (slot, attempt) = ledger.checkout().unwrap();
        assert_eq!(attempt, 2);
        assert!(
            !ledger.lose(slot, attempt, "worker died again"),
            "budget spent"
        );
        assert!(ledger.is_settled());
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(err.contains("unit 0"), "{err}");
        assert!(err.contains("budget exhausted"), "{err}");
        assert!(err.contains("worker died again"), "{err}");
    }

    #[test]
    fn ledger_reports_smallest_failing_slot_regardless_of_timing() {
        let mut ledger = Ledger::new(3, 1);
        let first = ledger.checkout().unwrap();
        let second = ledger.checkout().unwrap();
        let third = ledger.checkout().unwrap();
        // Failures land in reverse order; the smallest slot's error wins.
        ledger.fail(third.0, "late failure");
        ledger.fail(second.0, "middle failure");
        ledger.complete(first.0, sentinel_result(0));
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(err.contains("unit 1: middle failure"), "{err}");
    }

    #[test]
    fn ledger_abandons_pending_units_when_no_workers_survive() {
        let mut ledger = Ledger::new(3, 3);
        let (slot, attempt) = ledger.checkout().unwrap();
        ledger.lose(slot, attempt, "connection reset");
        ledger.abandon_pending("no surviving workers");
        assert!(ledger.is_settled());
        let err = ledger.into_results().unwrap_err().to_string();
        assert!(err.contains("unit 0: unit abandoned"), "{err}");
        assert!(err.contains("no surviving workers"), "{err}");
    }

    #[test]
    fn ledger_keeps_first_result_on_duplicate_completion() {
        let mut ledger = Ledger::new(1, 3);
        let (slot, attempt) = ledger.checkout().unwrap();
        // The driver declared this worker dead (liveness timeout) and
        // re-dispatched, but the slow worker's result eventually surfaced
        // too: first settle wins, the duplicate is dropped on the floor.
        assert!(ledger.lose(slot, attempt, "liveness timeout"));
        let (slot2, _) = ledger.checkout().unwrap();
        ledger.complete(slot2, sentinel_result(0));
        ledger.complete(slot, sentinel_result(0));
        assert!(ledger.is_settled());
        assert_eq!(ledger.into_results().unwrap().len(), 1);
    }

    // ---- the windowed driver over scripted links --------------------------

    /// One step of a [`Scripted`] worker's replies.
    enum Step {
        /// Reply with this line.
        Line(&'static str),
        /// Tell another script that this worker got here.
        Signal(mpsc::Sender<()>),
        /// Wait (bounded) until another script signals.
        Await(mpsc::Receiver<()>),
        /// Hang up.
        HangUp,
    }

    /// An in-memory worker: `recv` plays `steps` in order and, once they
    /// run out, answers the newest unit it was sent, so the driver matches
    /// results out of send order.  Units are Monte-Carlo shards, answered
    /// with no samples.
    struct Scripted {
        steps: VecDeque<Step>,
        unanswered: VecDeque<WorkUnit>,
        /// Unit lines this worker was sent.
        sent: Arc<AtomicU64>,
        /// Signalled when the driver closes the link.
        on_close: Option<mpsc::Sender<()>>,
    }

    impl Scripted {
        fn new(steps: impl IntoIterator<Item = Step>) -> Scripted {
            Scripted {
                steps: steps.into_iter().collect(),
                unanswered: VecDeque::new(),
                sent: Arc::new(AtomicU64::new(0)),
                on_close: None,
            }
        }
    }

    fn answer(unit: WorkUnit) -> UnitResult {
        let WorkUnit::McShard { cell, trial_range } = unit else {
            panic!("scripted workers run Monte-Carlo shards only");
        };
        UnitResult::McShard {
            cell,
            trial_range,
            ters: vec![],
        }
    }

    impl Link for Scripted {
        fn send(&mut self, line: &str) -> std::io::Result<()> {
            // The `window=` line is the only one that is not a unit.
            if let Ok(unit) = WorkUnit::decode(line) {
                self.sent.fetch_add(1, Ordering::Relaxed);
                self.unanswered.push_back(unit);
            }
            Ok(())
        }

        fn recv(&mut self, line: &mut String, _deadline: Option<Instant>) -> Result<usize, String> {
            loop {
                match self.steps.pop_front() {
                    Some(Step::Line(text)) => line.push_str(text),
                    Some(Step::Signal(done)) => {
                        done.send(()).map_err(|e| e.to_string())?;
                        continue;
                    }
                    Some(Step::Await(go)) => {
                        go.recv_timeout(Duration::from_secs(10))
                            .map_err(|e| e.to_string())?;
                        continue;
                    }
                    Some(Step::HangUp) => return Ok(0),
                    None => {
                        let unit = self.unanswered.pop_back().ok_or("nothing to answer")?;
                        line.push_str(&answer(unit).encode());
                    }
                }
                line.push('\n');
                return Ok(line.len());
            }
        }

        fn close(self, _end: End) -> Option<String> {
            if let Some(closed) = self.on_close {
                let _ = closed.send(());
            }
            None
        }
    }

    fn shards(count: usize) -> Vec<WorkUnit> {
        (0..count)
            .map(|cell| WorkUnit::McShard {
                cell,
                trial_range: 0..4,
            })
            .collect()
    }

    /// Runs the driver with one worker per named script.  The deadline
    /// turns a session that is never woken into a failed run, not a hung
    /// test.
    fn drive_scripted(
        units: &[WorkUnit],
        workers: Vec<(&str, Scripted)>,
        stats: &FleetStats,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let names: Vec<String> = workers.iter().map(|(name, _)| name.to_string()).collect();
        let links = Mutex::new(workers);
        let config = DriverConfig {
            stats,
            window: DEFAULT_WINDOW,
            spec: None,
            deadline: Some(Instant::now() + Duration::from_secs(10)),
        };
        drive(config, units, &names, |name| {
            let mut links = lock_ok(&links);
            let at = links.iter().position(|(script, _)| *script == name);
            Ok(links.swap_remove(at.expect("every worker has a script")).1)
        })
    }

    #[test]
    fn driver_survivor_takes_over_a_dead_workers_whole_window() {
        let units = shards(5);
        let (took_tx, took_rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        // The dying worker takes every unit into its window, then hangs up
        // once the survivor is sending its handshake reply; the survivor
        // replies only after the dying worker took every unit, so nothing
        // is pending when it asks for work.
        let dying = Scripted::new([
            Step::Line("ok window=8"),
            Step::Signal(took_tx),
            Step::Await(ready_rx),
            Step::HangUp,
        ]);
        let survivor = Scripted::new([
            Step::Await(took_rx),
            Step::Signal(ready_tx),
            Step::Line("ok window=8"),
        ]);
        let (died_holding, survivor_ran) = (Arc::clone(&dying.sent), Arc::clone(&survivor.sent));
        let stats = FleetStats::default();
        let results = drive_scripted(
            &units,
            vec![("#dying", dying), ("#survivor", survivor)],
            &stats,
        )
        .unwrap();
        assert_eq!(results, units.into_iter().map(answer).collect::<Vec<_>>());
        assert_eq!(died_holding.load(Ordering::Relaxed), 5);
        assert_eq!(survivor_ran.load(Ordering::Relaxed), 5);
        assert_eq!(stats.worker_deaths(), 1);
        assert_eq!(stats.retried_units(), 5);
        assert_eq!(stats.requeued_inflight(), 5);
        assert_eq!(stats.completed_units(), 5);
        assert_eq!(stats.failed_connects(), 0);
        assert_eq!(stats.inflight_peak(), 5);
    }

    #[test]
    fn driver_kills_a_worker_that_answers_a_unit_outside_its_window() {
        let units = shards(3);
        let (took_tx, took_rx) = mpsc::channel();
        // The liar takes every unit, then answers one it was never sent.
        let liar = Scripted::new([
            Step::Line("ok window=8"),
            Step::Signal(took_tx),
            Step::Line("mc cell=7 trials=0..4 ters="),
        ]);
        let survivor = Scripted::new([Step::Await(took_rx), Step::Line("ok window=8")]);
        let stats = FleetStats::default();
        let results = drive_scripted(
            &units,
            vec![("#liar", liar), ("#survivor", survivor)],
            &stats,
        )
        .unwrap();
        assert_eq!(results, units.into_iter().map(answer).collect::<Vec<_>>());
        assert_eq!(stats.worker_deaths(), 1);
        assert_eq!(stats.retried_units(), 3);
    }

    #[test]
    fn driver_records_an_in_band_unit_failure_without_retrying_it() {
        let units = shards(3);
        // The `!` line fails the oldest unit in the window; the worker then
        // answers the other two and would answer unit 0 if it came again.
        let worker = Scripted::new([Step::Line("ok window=8"), Step::Line("!boom")]);
        let stats = FleetStats::default();
        let err = drive_scripted(&units, vec![("#worker", worker)], &stats).unwrap_err();
        assert_eq!(
            err.to_string(),
            "executor failed: unit 0: worker reported failure: boom"
        );
        assert_eq!(stats.worker_deaths(), 0);
        assert_eq!(stats.retried_units(), 0);
    }

    #[test]
    fn driver_ends_with_a_handshake_rejection_while_units_are_held() {
        let units = shards(6);
        let (took_tx, took_rx) = mpsc::channel();
        let (closed_tx, closed_rx) = mpsc::channel();
        // The holder fills its window of 2, then answers it only once the
        // driver has closed the rejecting worker's link.
        let holder = Scripted::new([
            Step::Line("ok window=2"),
            Step::Signal(took_tx),
            Step::Await(closed_rx),
        ]);
        let mut rejecting = Scripted::new([Step::Await(took_rx), Step::Line("!no such pipeline")]);
        rejecting.on_close = Some(closed_tx);
        let held = Arc::clone(&holder.sent);
        let stats = FleetStats::default();
        let err = drive_scripted(
            &units,
            vec![("#holder", holder), ("#rejecting", rejecting)],
            &stats,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "executor failed: worker #rejecting rejected the window handshake: \
             no such pipeline"
        );
        // The rejection stopped dispatch: the holder finished the window it
        // held and was sent nothing more.
        assert_eq!(held.load(Ordering::Relaxed), 2);
        assert_eq!(stats.worker_deaths(), 0);
        assert_eq!(stats.completed_units(), 0);
    }
}
