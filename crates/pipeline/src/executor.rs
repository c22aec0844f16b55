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
//! windowed driver over a [`UnitLedger`]: the same `window=<n>` handshake,
//! the same window of units in flight per worker, and the same rule for a
//! worker that dies — its in-flight units are requeued on the survivors.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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
            max_attempts: DEFAULT_ATTEMPTS,
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
    fn connect(
        addr: &str,
        connect_timeout: Duration,
        liveness: Duration,
    ) -> Result<TcpLink, String> {
        let addrs = addr
            .to_socket_addrs()
            .map_err(|e| format!("address did not resolve: {e}"))?;
        let mut last_error = "address resolved to nothing".to_string();
        for sock_addr in addrs {
            match TcpStream::connect_timeout(&sock_addr, connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(liveness))
                        .map_err(|e| format!("set_read_timeout failed: {e}"))?;
                    let _ = stream.set_nodelay(true);
                    return Ok(TcpLink {
                        reader: BufReader::new(stream),
                        liveness,
                    });
                }
                Err(e) => last_error = format!("connect failed: {e}"),
            }
        }
        Err(last_error)
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

    /// Workers that never completed the connect (or spawn) and handshake.
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

    /// The largest in-flight window observed on any single worker: up to
    /// the negotiated window when pipelining actually filled the wire.
    pub fn inflight_peak(&self) -> u64 {
        self.inflight_peak.load(Ordering::Relaxed)
    }

    /// In-flight units swept back to the pending queue by worker deaths —
    /// one death can requeue a whole window, and this counter makes that
    /// recovery observable (it counts only the requeued units;
    /// budget-exhausted losses fail the run instead).
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

/// What a remote executor runs the windowed driver with.
struct DriverConfig<'a> {
    stats: &'a FleetStats,
    /// Unit lines streamed ahead of results; a worker may grant fewer.
    window: usize,
    max_attempts: u32,
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
        for (worker, name) in workers.iter().enumerate() {
            let (shared, open) = (&shared, &open);
            scope.spawn(move || match open(name) {
                Ok(link) => shared.session(worker, name, link),
                Err(reason) => shared.failed_connect(&format!("worker {name}: {reason}")),
            });
        }
    });
    shared.into_results()
}

/// Shared state of one windowed run: the unit ledger, worker liveness, and
/// the first fatal (non-retryable) error.
struct FleetShared<'a> {
    config: DriverConfig<'a>,
    units: &'a [WorkUnit],
    ledger: Mutex<UnitLedger>,
    work_cv: Condvar,
    live_workers: Mutex<usize>,
    fatal: Mutex<Option<String>>,
}

impl<'a> FleetShared<'a> {
    fn new(config: DriverConfig<'a>, units: &'a [WorkUnit], workers: usize) -> Self {
        let mut ledger = UnitLedger::new(units.len(), config.max_attempts);
        for _ in 0..workers {
            // Worker id i belongs to the session of worker i.
            ledger.add_worker();
        }
        FleetShared {
            config,
            units,
            ledger: Mutex::new(ledger),
            work_cv: Condvar::new(),
            live_workers: Mutex::new(workers),
            fatal: Mutex::new(None),
        }
    }

    /// One worker's session over `link`: the handshake, then windowed unit
    /// streaming until the plan settles, the run fails or the worker dies.
    /// Every way out closes the link.
    fn session<L: Link>(&self, worker: usize, name: &str, mut link: L) {
        let (streamed, stop) = match self.handshake(&mut link) {
            Ok(window) => (true, self.stream(worker, &mut link, window)),
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
                    self.die(worker, &format!("worker {name} died: {reason}"));
                } else {
                    self.failed_connect(&format!("worker {name} failed its handshake: {reason}"));
                }
            }
            Err(Stop::Rejected(reason)) => {
                link.close(End::Kill);
                self.set_fatal(format!("worker {name} rejected {reason}"));
                self.worker_down("handshake rejected");
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

    /// Streams units to one worker, keeping up to `window` of them in
    /// flight, and settles each answer in the ledger.  `Ok` means this
    /// worker has nothing left to do: the plan settled or the run failed.
    ///
    /// Answers are matched against the in-flight set: results
    /// self-identify, and an in-band `!` failure belongs to the oldest
    /// outstanding unit (workers answer in request order).  A death loses
    /// the whole in-flight set, which [`FleetShared::die`] requeues.
    fn stream<L: Link>(&self, worker: usize, link: &mut L, window: usize) -> Result<(), Stop> {
        let died = |reason: String| Stop::Died(reason, End::Kill);
        // Mirror of the ledger's in-flight set for this worker, in send
        // order (front = oldest outstanding unit).
        let mut inflight: VecDeque<usize> = VecDeque::with_capacity(window);
        loop {
            // Top up the window.  Block only with an empty window: the
            // queue may be momentarily dry while another worker's units
            // are in flight, and this worker may be the survivor that has
            // to run them if they are lost.
            while inflight.len() < window {
                let job = if inflight.is_empty() {
                    self.next_job(worker)
                } else {
                    self.try_job(worker)
                };
                let Some((slot, _attempt)) = job else { break };
                inflight.push_back(slot);
                link.send(&self.units[slot].encode())
                    .map_err(|e| died(format!("unit send failed: {e}")))?;
            }
            if inflight.is_empty() {
                return Ok(());
            }
            self.config.stats.observe_inflight(inflight.len() as u64);
            let line = self.read(link)?;
            let (slot, settled) = if let Some(failure) = line.strip_prefix('!') {
                // Deterministic: every worker would fail the unit the same
                // way, so it is recorded, not retried.
                let slot = inflight.pop_front().expect("window is non-empty");
                let reason = format!("worker reported failure: {failure}");
                (slot, self.fail(worker, slot, reason))
            } else {
                // After the handshake every line is protocol traffic: one
                // that does not decode means the stream is corrupt and the
                // worker cannot be trusted with further units.
                let result = UnitResult::decode(&line)
                    .map_err(|_| died(format!("undecodable response line {line:?}")))?;
                let unit = result.unit();
                let at = inflight
                    .iter()
                    .position(|&slot| self.units[slot] == unit)
                    .ok_or_else(|| died(format!("answered with wrong unit {:?}", unit.encode())))?;
                let slot = inflight.remove(at).expect("position is in range");
                (slot, self.complete(worker, slot, result))
            };
            if !settled {
                return Err(died(format!("ledger lost track of slot {slot}")));
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
    fn next_job(&self, worker: usize) -> Option<(usize, u32)> {
        let mut ledger = self.lock_ledger();
        loop {
            if self.fatal_set() {
                return None;
            }
            if self.expired() {
                drop(ledger);
                self.set_fatal(TIMED_OUT.to_string());
                return None;
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

    /// A worker died mid-stream: requeues (or budget-fails) every unit in
    /// its window, then takes it out of the live set.
    fn die(&self, worker: usize, reason: &str) {
        let stats = self.config.stats;
        stats.worker_deaths.fetch_add(1, Ordering::Relaxed);
        // Requeue the in-flight window *before* the live-worker decrement:
        // if this was the last worker, the units must already be re-queued
        // (or budget-failed) so `abandon_pending` accounts for them too.
        let (requeued, _held) = self.lock_ledger().lose_all(worker, reason);
        self.work_cv.notify_all();
        stats
            .retried_units
            .fetch_add(requeued as u64, Ordering::Relaxed);
        stats
            .requeued_inflight
            .fetch_add(requeued as u64, Ordering::Relaxed);
        self.worker_down(reason);
    }

    /// A worker never got as far as streaming units; its share of the plan
    /// goes to the others.
    fn failed_connect(&self, reason: &str) {
        self.config
            .stats
            .failed_connects
            .fetch_add(1, Ordering::Relaxed);
        self.worker_down(reason);
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

    /// The run's outcome: its fatal error, or every unit's result in unit
    /// order (the smallest failing unit's error otherwise).
    fn into_results(self) -> Result<Vec<UnitResult>, PipelineError> {
        let fatal = self.fatal.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(reason) = fatal {
            return Err(PipelineError::exec(reason));
        }
        let results = self
            .ledger
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .into_results()?;
        self.config
            .stats
            .completed_units
            .fetch_add(results.len() as u64, Ordering::Relaxed);
        Ok(results)
    }
}

/// Distributes units across worker *machines*: connects to N TCP addresses
/// (each served by a `read-worker` process), streams encoded [`WorkUnit`]
/// lines, and collects self-identifying [`UnitResult`] lines.
///
/// Remote workers can die mid-stream — the driver detects EOF, io errors,
/// liveness timeouts, and malformed or mismatched responses, and re-queues
/// the lost units for a surviving worker (up to
/// [`SocketExecutor::max_attempts`] attempts per unit).  Because results
/// self-identify and the [`crate::Aggregator`] accepts any
/// partition/permutation, a run that survives worker deaths aggregates
/// byte-identically to [`SerialExecutor`].  [`SubprocessExecutor`] runs the
/// same driver over child processes' stdio.
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
/// unit.  Loss accounting stays exact — the ledger tracks each worker's
/// in-flight *set*, results self-identify and are matched against that set
/// out of order, and a dead connection requeues precisely the units it
/// still held.
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
            max_attempts: DEFAULT_ATTEMPTS,
            window: DEFAULT_WINDOW,
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
            max_attempts: self.max_attempts,
            spec: Some(&self.spec),
            deadline,
        };
        drive(config, &units, &self.workers, |addr| {
            TcpLink::connect(addr, self.connect_timeout, self.liveness_timeout)
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
