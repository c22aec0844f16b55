//! The discrete-event engine: contexts with local clocks exchanging typed
//! tokens over bounded channels.
//!
//! # Model
//!
//! A run instantiates five contexts, each owning a local cycle counter:
//!
//! * `weight-feeder` / `act-feeder` — stream one operand token per MAC, in
//!   program order;
//! * `pe` — the PE array, folded to a single context that executes the
//!   lowered program (recv operands → MAC → emit psum);
//! * `psum-buffer` — weight-stationary only: holds partial sums spilled
//!   between row-tiles and feeds them back on reload;
//! * `accumulator` — drains finished outputs into the result matrix.
//!
//! Contexts communicate exclusively through bounded channels with blocking
//! send/recv: a send to a full channel stalls the sender until the receiver
//! frees a slot, a recv from an empty channel stalls the receiver until a
//! token is ready (tokens arrive `hop_latency` cycles after being sent).
//! Stalls and backpressure therefore *emerge* from channel occupancy; the
//! engine never schedules them explicitly.
//!
//! # Byte-identity with the analytic engine
//!
//! The schedule is lowered **once** into a linear program of [`Segment`]s
//! whose order is exactly the analytic simulator's loop nest (OS:
//! group→pixel→column; WS: group→tile→pixel→column, with psums spilled and
//! reloaded between tiles).  Every context walks that same program, so the
//! observer sees the same MAC cycles with the same [`CycleContext`]s as
//! [`GemmProblem::simulate_with_schedule`] regardless of channel capacities
//! — which is what makes the depth-histogram byte-identity property hold on
//! *every* configuration, not just stall-free ones.

use std::collections::{HashMap, VecDeque};

use accel_sim::{
    ArrayConfig, ComputeSchedule, CycleContext, CycleObserver, Dataflow, GemmProblem, MacUnit,
    Matrix, SimError,
};

use crate::report::{ChannelReport, ContextReport, DataflowReport};
use crate::trace::TraceRecorder;

/// Tuning knobs for the event engine.
///
/// The debug rendering participates in pipeline fingerprints, so adding a
/// field changes probe cache keys — which is correct, since it changes the
/// simulated timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Token capacity of every bounded channel.  Must be at least 1; the
    /// smaller the capacity, the more backpressure the run exhibits.
    pub channel_capacity: usize,
    /// Cycles a token spends in flight between sender and receiver.
    pub hop_latency: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            channel_capacity: 4,
            hop_latency: 1,
        }
    }
}

/// Why an event-driven run could not complete.
#[derive(Debug)]
pub enum EventError {
    /// [`EngineConfig::channel_capacity`] was zero — no token could ever be
    /// in flight, so every send would block forever.
    ZeroCapacity,
    /// The schedule failed [`ComputeSchedule::validate`] for this problem.
    Sim(SimError),
    /// The dataflow has no lowering onto the event engine (the enum is
    /// `#[non_exhaustive]`, so a newer variant can outpace this crate).
    UnsupportedDataflow {
        /// [`Dataflow::name`] of the unsupported variant.
        name: &'static str,
    },
    /// No context could make progress before the program drained — a
    /// lowering bug, since the generated channel programs are matched
    /// FIFO pairs that cannot cyclically wait.
    Deadlock {
        /// Largest local clock when the engine seized.
        at: u64,
    },
}

impl std::fmt::Display for EventError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventError::ZeroCapacity => {
                write!(f, "channel capacity must be at least 1 token")
            }
            EventError::Sim(e) => write!(f, "{e}"),
            EventError::UnsupportedDataflow { name } => {
                write!(f, "dataflow {name} has no event-engine lowering")
            }
            EventError::Deadlock { at } => {
                write!(f, "event engine deadlocked at cycle {at}")
            }
        }
    }
}

impl std::error::Error for EventError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EventError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for EventError {
    fn from(e: SimError) -> Self {
        EventError::Sim(e)
    }
}

/// What [`run_dataflow`] produced: the functional result plus the timing
/// report.
#[derive(Debug, Clone)]
pub struct DataflowRun {
    /// Output matrix (`K x M`).
    pub outputs: Matrix<i32>,
    /// Cycle/stall/occupancy accounting for the run.
    pub report: DataflowReport,
}

/// Optional trace sink — every recording call is a no-op when absent, so
/// the traced and untraced paths share one code path.
struct Trace<'a>(Option<&'a mut TraceRecorder>);

impl Trace<'_> {
    fn add_track(&mut self, name: &str) -> usize {
        self.0.as_deref_mut().map_or(0, |t| t.add_track(name))
    }
    fn add_counter(&mut self, name: &str) -> usize {
        self.0.as_deref_mut().map_or(0, |t| t.add_counter(name))
    }
    fn compute(&mut self, tid: usize, start: u64, dur: u64) {
        if let Some(t) = self.0.as_deref_mut() {
            t.compute(tid, start, dur);
        }
    }
    fn stall(&mut self, tid: usize, start: u64, dur: u64) {
        if let Some(t) = self.0.as_deref_mut() {
            t.stall(tid, start, dur);
        }
    }
    fn drain(&mut self, tid: usize, start: u64, dur: u64) {
        if let Some(t) = self.0.as_deref_mut() {
            t.drain(tid, start, dur);
        }
    }
    fn counter(&mut self, cid: usize, ts: u64, occupancy: usize) {
        if let Some(t) = self.0.as_deref_mut() {
            t.counter(cid, ts, occupancy);
        }
    }
}

/// A context's local clock plus its busy/stall tally.
struct Clock {
    tid: usize,
    now: u64,
    busy: u64,
    stall: u64,
}

impl Clock {
    fn new(tid: usize) -> Self {
        Clock {
            tid,
            now: 0,
            busy: 0,
            stall: 0,
        }
    }

    /// Spends one productive cycle.
    fn tick(&mut self, trace: &mut Trace<'_>) {
        trace.compute(self.tid, self.now, 1);
        self.busy += 1;
        self.now += 1;
    }

    /// Advances to `to` (if in the future), accounting the gap as stall.
    fn sync(&mut self, to: u64, trace: &mut Trace<'_>) {
        if to > self.now {
            trace.stall(self.tid, self.now, to - self.now);
            self.stall += to - self.now;
            self.now = to;
        }
    }
}

/// A bounded single-producer single-consumer channel of timestamped tokens.
struct Channel<T> {
    cid: usize,
    capacity: usize,
    hop: u64,
    queue: VecDeque<(u64, T)>,
    /// Receiver time of the most recent full→non-full transition: the
    /// moment a blocked sender's slot appeared.
    freed_at: u64,
    peak: usize,
    sends: u64,
}

impl<T> Channel<T> {
    fn new(cid: usize, config: &EngineConfig) -> Self {
        Channel {
            cid,
            capacity: config.channel_capacity,
            hop: config.hop_latency,
            queue: VecDeque::new(),
            freed_at: 0,
            peak: 0,
            sends: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// When the head token becomes receivable, if any.
    fn ready(&self) -> Option<u64> {
        self.queue.front().map(|&(ready, _)| ready)
    }

    fn push(&mut self, sender_now: u64, token: T, trace: &mut Trace<'_>) {
        debug_assert!(!self.is_full());
        self.queue.push_back((sender_now + self.hop, token));
        self.sends += 1;
        self.peak = self.peak.max(self.queue.len());
        trace.counter(self.cid, sender_now, self.queue.len());
    }

    fn pop(&mut self, receiver_now: u64, trace: &mut Trace<'_>) -> T {
        let was_full = self.is_full();
        let (_, token) = self.queue.pop_front().expect("pop on empty channel");
        if was_full {
            self.freed_at = self.freed_at.max(receiver_now);
        }
        trace.counter(self.cid, receiver_now, self.queue.len());
        token
    }
}

/// Blocking-send protocol shared by every sender: on a full channel the
/// caller parks (its `blocked` flag survives across scheduler passes); once
/// space exists, a previously-blocked sender first syncs to the instant the
/// slot appeared — that wait is the backpressure stall.
fn try_send<T>(
    ch: &mut Channel<T>,
    clock: &mut Clock,
    blocked: &mut bool,
    trace: &mut Trace<'_>,
    make: impl FnOnce() -> T,
) -> bool {
    if ch.is_full() {
        *blocked = true;
        return false;
    }
    if std::mem::take(blocked) {
        clock.sync(ch.freed_at, trace);
    }
    ch.push(clock.now, make(), trace);
    true
}

/// How one PE visit of an output begins: from zero, or from a partial sum
/// reloaded out of the psum buffer.
#[derive(Clone, Copy)]
enum SegInit {
    Zero,
    Reload,
}

/// How it ends: the finished output goes to the accumulator, or the partial
/// sum spills to the buffer to wait for the next row-tile.
#[derive(Clone, Copy)]
enum SegFin {
    Output,
    Spill { slot: usize },
}

/// One PE visit of one output: a run of MACs over a slice of a group's
/// `row_order` (the whole reduction for OS; one row-tile for WS).  The
/// segment list is the *program* every context walks in the same order.
struct Segment {
    group: usize,
    channel: usize,
    pixel: usize,
    /// The analytic engine's `step` for this segment's first MAC.
    base_step: usize,
    row_start: usize,
    row_len: usize,
    init: SegInit,
    fin: SegFin,
}

/// The psum-buffer context's program, derived from the same lowering: for
/// each WS segment in order, a reload send (if the segment resumes a
/// partial sum) and a spill recv (if it suspends one).  PE and buffer
/// traverse these as matched FIFO pairs, so the pair cannot deadlock at
/// any channel capacity ≥ 1.
enum BufOp {
    SendReload { slot: usize },
    RecvSpill,
}

fn lower_output_stationary(schedule: &ComputeSchedule, num_pixels: usize) -> Vec<Segment> {
    let mut segments = Vec::new();
    for (gi, group) in schedule.groups().iter().enumerate() {
        for pixel in 0..num_pixels {
            for &channel in &group.columns {
                segments.push(Segment {
                    group: gi,
                    channel,
                    pixel,
                    base_step: 0,
                    row_start: 0,
                    row_len: group.row_order.len(),
                    init: SegInit::Zero,
                    fin: SegFin::Output,
                });
            }
        }
    }
    segments
}

fn lower_weight_stationary(
    schedule: &ComputeSchedule,
    array: &ArrayConfig,
    num_pixels: usize,
) -> (Vec<Segment>, Vec<BufOp>) {
    let mut segments = Vec::new();
    let mut buf_ops = Vec::new();
    for (gi, group) in schedule.groups().iter().enumerate() {
        let tile_rows = array.rows();
        for (tile_no, tile) in group.row_order.chunks(tile_rows).enumerate() {
            let is_last = (tile_no + 1) * tile_rows >= group.row_order.len();
            for pixel in 0..num_pixels {
                for &channel in &group.columns {
                    // One live partial sum per (channel, pixel); channels
                    // belong to exactly one group, so the slot is unique.
                    let slot = channel * num_pixels + pixel;
                    let init = if tile_no == 0 {
                        SegInit::Zero
                    } else {
                        buf_ops.push(BufOp::SendReload { slot });
                        SegInit::Reload
                    };
                    let fin = if is_last {
                        SegFin::Output
                    } else {
                        buf_ops.push(BufOp::RecvSpill);
                        SegFin::Spill { slot }
                    };
                    segments.push(Segment {
                        group: gi,
                        channel,
                        pixel,
                        base_step: tile_no * tile_rows,
                        row_start: tile_no * tile_rows,
                        row_len: tile.len(),
                        init,
                        fin,
                    });
                }
            }
        }
    }
    (segments, buf_ops)
}

/// A finished output en route to the accumulator.  Carries the observer
/// context of its final MAC so `on_output_done` fires with exactly the
/// [`CycleContext`] the analytic engine would use.
struct FinalToken {
    channel: usize,
    pixel: usize,
    value: i32,
    ctx: CycleContext,
}

/// A partial sum spilled to the psum buffer between WS row-tiles.
struct PsumToken {
    slot: usize,
    value: i32,
}

struct Feeder {
    seg: usize,
    row: usize,
    pending: Option<i8>,
    blocked: bool,
    clock: Clock,
}

impl Feeder {
    fn new(tid: usize) -> Self {
        Feeder {
            seg: 0,
            row: 0,
            pending: None,
            blocked: false,
            clock: Clock::new(tid),
        }
    }

    fn done(&self, segments: &[Segment]) -> bool {
        self.seg == segments.len()
    }

    /// Streams one operand token per MAC: reading the operand costs one
    /// cycle, the send is instantaneous (plus hop latency in flight).  The
    /// `pending` slot makes the read cycle happen exactly once even when
    /// the send blocks across scheduler passes.
    fn run(
        &mut self,
        segments: &[Segment],
        schedule: &ComputeSchedule,
        operand: impl Fn(usize, &Segment) -> i8,
        ch: &mut Channel<i8>,
        trace: &mut Trace<'_>,
    ) -> bool {
        let mut progressed = false;
        while self.seg < segments.len() {
            let s = &segments[self.seg];
            if self.pending.is_none() {
                let r = schedule.groups()[s.group].row_order[s.row_start + self.row] as usize;
                self.pending = Some(operand(r, s));
                self.clock.tick(trace);
                progressed = true;
            }
            if ch.is_full() {
                self.blocked = true;
                return progressed;
            }
            if std::mem::take(&mut self.blocked) {
                self.clock.sync(ch.freed_at, trace);
            }
            let token = self.pending.take().expect("pending operand");
            ch.push(self.clock.now, token, trace);
            progressed = true;
            self.row += 1;
            if self.row == s.row_len {
                self.row = 0;
                self.seg += 1;
            }
        }
        progressed
    }
}

enum PeStage {
    Init,
    Mac(usize),
    Fin,
}

struct Pe {
    seg: usize,
    stage: PeStage,
    mac: MacUnit,
    ctx: CycleContext,
    blocked: bool,
    clock: Clock,
    macs: u64,
}

impl Pe {
    fn new(tid: usize) -> Self {
        Pe {
            seg: 0,
            stage: PeStage::Init,
            mac: MacUnit::new(),
            ctx: CycleContext {
                group: 0,
                channel: 0,
                pixel: 0,
                step: 0,
                reduction_index: 0,
            },
            blocked: false,
            clock: Clock::new(tid),
            macs: 0,
        }
    }

    fn done(&self, segments: &[Segment]) -> bool {
        self.seg == segments.len()
    }

    #[allow(clippy::too_many_arguments)]
    fn run<O: CycleObserver + ?Sized>(
        &mut self,
        segments: &[Segment],
        schedule: &ComputeSchedule,
        weights_ch: &mut Channel<i8>,
        acts_ch: &mut Channel<i8>,
        finals_ch: &mut Channel<FinalToken>,
        spill_ch: &mut Channel<PsumToken>,
        reload_ch: &mut Channel<i32>,
        observer: &mut O,
        trace: &mut Trace<'_>,
    ) -> bool {
        let mut progressed = false;
        while self.seg < segments.len() {
            let s = &segments[self.seg];
            match self.stage {
                PeStage::Init => {
                    self.mac = MacUnit::new();
                    if matches!(s.init, SegInit::Reload) {
                        let Some(ready) = reload_ch.ready() else {
                            return progressed;
                        };
                        self.clock.sync(ready, trace);
                        let psum = reload_ch.pop(self.clock.now, trace);
                        self.mac.load(psum);
                    }
                    self.ctx = CycleContext {
                        group: s.group,
                        channel: s.channel,
                        pixel: s.pixel,
                        step: 0,
                        reduction_index: 0,
                    };
                    self.stage = PeStage::Mac(0);
                    progressed = true;
                }
                PeStage::Mac(i) => {
                    let (Some(w_ready), Some(a_ready)) = (weights_ch.ready(), acts_ch.ready())
                    else {
                        return progressed;
                    };
                    self.clock.sync(w_ready.max(a_ready), trace);
                    let w = weights_ch.pop(self.clock.now, trace);
                    let a = acts_ch.pop(self.clock.now, trace);
                    self.ctx.step = s.base_step + i;
                    self.ctx.reduction_index =
                        schedule.groups()[s.group].row_order[s.row_start + i] as usize;
                    let cycle = self.mac.mac(w, a);
                    observer.on_cycle(&self.ctx, &cycle);
                    self.clock.tick(trace);
                    self.macs += 1;
                    self.stage = if i + 1 == s.row_len {
                        PeStage::Fin
                    } else {
                        PeStage::Mac(i + 1)
                    };
                    progressed = true;
                }
                PeStage::Fin => {
                    let value = self.mac.psum();
                    let ctx = self.ctx;
                    let (channel, pixel) = (s.channel, s.pixel);
                    let sent = match s.fin {
                        SegFin::Output => {
                            try_send(finals_ch, &mut self.clock, &mut self.blocked, trace, || {
                                FinalToken {
                                    channel,
                                    pixel,
                                    value,
                                    ctx,
                                }
                            })
                        }
                        SegFin::Spill { slot } => {
                            try_send(spill_ch, &mut self.clock, &mut self.blocked, trace, || {
                                PsumToken { slot, value }
                            })
                        }
                    };
                    if !sent {
                        return progressed;
                    }
                    self.seg += 1;
                    self.stage = PeStage::Init;
                    progressed = true;
                }
            }
        }
        progressed
    }
}

struct PsumBuffer {
    op: usize,
    store: HashMap<usize, i32>,
    peak: usize,
    blocked: bool,
    clock: Clock,
}

impl PsumBuffer {
    fn new(tid: usize) -> Self {
        PsumBuffer {
            op: 0,
            store: HashMap::new(),
            peak: 0,
            blocked: false,
            clock: Clock::new(tid),
        }
    }

    fn done(&self, ops: &[BufOp]) -> bool {
        self.op == ops.len()
    }

    fn run(
        &mut self,
        ops: &[BufOp],
        spill_ch: &mut Channel<PsumToken>,
        reload_ch: &mut Channel<i32>,
        trace: &mut Trace<'_>,
    ) -> bool {
        let mut progressed = false;
        while self.op < ops.len() {
            match ops[self.op] {
                BufOp::SendReload { slot } => {
                    if reload_ch.is_full() {
                        self.blocked = true;
                        return progressed;
                    }
                    if std::mem::take(&mut self.blocked) {
                        self.clock.sync(reload_ch.freed_at, trace);
                    }
                    // The partial sum leaves the buffer when it reloads
                    // into the PE; lowering order guarantees the matching
                    // spill arrived first.
                    let value = self.store.remove(&slot).expect("reload before spill");
                    self.clock.tick(trace);
                    reload_ch.push(self.clock.now, value, trace);
                }
                BufOp::RecvSpill => {
                    let Some(ready) = spill_ch.ready() else {
                        return progressed;
                    };
                    self.clock.sync(ready, trace);
                    let token = spill_ch.pop(self.clock.now, trace);
                    self.store.insert(token.slot, token.value);
                    self.peak = self.peak.max(self.store.len());
                    self.clock.tick(trace);
                }
            }
            self.op += 1;
            progressed = true;
        }
        progressed
    }
}

struct Accumulator {
    received: usize,
    expected: usize,
    clock: Clock,
}

impl Accumulator {
    fn new(tid: usize, expected: usize) -> Self {
        Accumulator {
            received: 0,
            expected,
            clock: Clock::new(tid),
        }
    }

    fn done(&self) -> bool {
        self.received == self.expected
    }

    fn run<O: CycleObserver + ?Sized>(
        &mut self,
        finals_ch: &mut Channel<FinalToken>,
        outputs: &mut Matrix<i32>,
        observer: &mut O,
        trace: &mut Trace<'_>,
    ) -> bool {
        let mut progressed = false;
        while self.received < self.expected {
            let Some(ready) = finals_ch.ready() else {
                return progressed;
            };
            self.clock.sync(ready, trace);
            let token = finals_ch.pop(self.clock.now, trace);
            outputs[(token.channel, token.pixel)] = token.value;
            observer.on_output_done(&token.ctx, token.value);
            self.clock.tick(trace);
            self.received += 1;
            progressed = true;
        }
        progressed
    }
}

/// Executes the GEMM over every output pixel on the event-driven
/// context/channel model and returns the outputs plus a [`DataflowReport`].
///
/// The observer sees exactly the MAC cycles (and `on_output_done` contexts)
/// that [`GemmProblem::simulate_with_schedule`] would deliver for the same
/// arguments — see the module docs for why.  Pass `Some(&mut TraceRecorder)`
/// to additionally record a Chrome-format trace of the run; tracing does not
/// change any simulated quantity.
///
/// # Errors
///
/// * [`EventError::ZeroCapacity`] — `config.channel_capacity == 0`;
/// * [`EventError::Sim`] — the schedule does not cover this problem;
/// * [`EventError::UnsupportedDataflow`] — a [`Dataflow`] variant this crate
///   does not know how to lower;
/// * [`EventError::Deadlock`] — the engine seized (indicates a lowering
///   bug; covered by regression tests at capacity 1).
pub fn run_dataflow<O: CycleObserver + ?Sized>(
    problem: &GemmProblem,
    array: &ArrayConfig,
    dataflow: Dataflow,
    schedule: &ComputeSchedule,
    config: &EngineConfig,
    observer: &mut O,
    trace: Option<&mut TraceRecorder>,
) -> Result<DataflowRun, EventError> {
    if config.channel_capacity == 0 {
        return Err(EventError::ZeroCapacity);
    }
    schedule.validate(problem.reduction_len(), problem.num_channels())?;

    let num_pixels = problem.num_pixels();
    let (segments, buf_ops) = match dataflow {
        Dataflow::OutputStationary => (lower_output_stationary(schedule, num_pixels), Vec::new()),
        Dataflow::WeightStationary => lower_weight_stationary(schedule, array, num_pixels),
        other => {
            return Err(EventError::UnsupportedDataflow { name: other.name() });
        }
    };
    let expected_outputs = segments
        .iter()
        .filter(|s| matches!(s.fin, SegFin::Output))
        .count();

    let mut trace = Trace(trace);
    let tid_wfeed = trace.add_track("weight-feeder");
    let tid_afeed = trace.add_track("act-feeder");
    let tid_pe = trace.add_track("pe");
    let tid_buf = trace.add_track("psum-buffer");
    let tid_acc = trace.add_track("accumulator");

    let mut weights_ch = Channel::<i8>::new(trace.add_counter("weights"), config);
    let mut acts_ch = Channel::<i8>::new(trace.add_counter("acts"), config);
    let mut finals_ch = Channel::<FinalToken>::new(trace.add_counter("finals"), config);
    let mut spill_ch = Channel::<PsumToken>::new(trace.add_counter("spill"), config);
    let mut reload_ch = Channel::<i32>::new(trace.add_counter("reload"), config);

    let mut wfeed = Feeder::new(tid_wfeed);
    let mut afeed = Feeder::new(tid_afeed);
    let mut pe = Pe::new(tid_pe);
    let mut buffer = PsumBuffer::new(tid_buf);
    let mut acc = Accumulator::new(tid_acc, expected_outputs);

    let mut outputs = Matrix::zeros(problem.num_channels(), num_pixels);
    let weights = problem.weights();
    let activations = problem.activations();

    loop {
        let mut progressed = false;
        progressed |= wfeed.run(
            &segments,
            schedule,
            |r, s| weights[(r, s.channel)],
            &mut weights_ch,
            &mut trace,
        );
        progressed |= afeed.run(
            &segments,
            schedule,
            |r, s| activations[(r, s.pixel)],
            &mut acts_ch,
            &mut trace,
        );
        progressed |= pe.run(
            &segments,
            schedule,
            &mut weights_ch,
            &mut acts_ch,
            &mut finals_ch,
            &mut spill_ch,
            &mut reload_ch,
            observer,
            &mut trace,
        );
        progressed |= buffer.run(&buf_ops, &mut spill_ch, &mut reload_ch, &mut trace);
        progressed |= acc.run(&mut finals_ch, &mut outputs, observer, &mut trace);

        let all_done = wfeed.done(&segments)
            && afeed.done(&segments)
            && pe.done(&segments)
            && buffer.done(&buf_ops)
            && acc.done();
        if all_done {
            break;
        }
        if !progressed {
            let at = [
                wfeed.clock.now,
                afeed.clock.now,
                pe.clock.now,
                buffer.clock.now,
                acc.clock.now,
            ]
            .into_iter()
            .max()
            .unwrap_or(0);
            return Err(EventError::Deadlock { at });
        }
    }

    let clocks = [
        &wfeed.clock,
        &afeed.clock,
        &pe.clock,
        &buffer.clock,
        &acc.clock,
    ];
    let makespan = clocks.iter().map(|c| c.now).max().unwrap_or(0);
    let context_names = [
        "weight-feeder",
        "act-feeder",
        "pe",
        "psum-buffer",
        "accumulator",
    ];
    let mut contexts = Vec::with_capacity(clocks.len());
    for (name, clock) in context_names.iter().zip(clocks) {
        trace.drain(clock.tid, clock.now, makespan - clock.now);
        contexts.push(ContextReport {
            name: (*name).to_string(),
            busy: clock.busy,
            stall: clock.stall,
            finish: clock.now,
        });
    }

    let channels = vec![
        channel_report("weights", &weights_ch),
        channel_report("acts", &acts_ch),
        channel_report("finals", &finals_ch),
        channel_report("spill", &spill_ch),
        channel_report("reload", &reload_ch),
    ];

    let report = DataflowReport {
        dataflow: dataflow.name().to_string(),
        cycles: makespan,
        macs: pe.macs,
        outputs: acc.received as u64,
        stalled: contexts.iter().map(|c| c.stall).sum(),
        peak_psum_buffer: buffer.peak as u64,
        contexts,
        channels,
    };

    Ok(DataflowRun { outputs, report })
}

fn channel_report<T>(name: &str, ch: &Channel<T>) -> ChannelReport {
    ChannelReport {
        name: name.to_string(),
        capacity: ch.capacity as u64,
        peak: ch.peak as u64,
        sends: ch.sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{NullObserver, SignFlipStats};

    fn test_problem(r: usize, k: usize, m: usize) -> GemmProblem {
        let w = Matrix::from_fn(r, k, |i, j| (((i * 7 + j * 13) % 15) as i8) - 7);
        let a = Matrix::from_fn(r, m, |i, j| ((i * 5 + j * 3) % 8) as i8);
        GemmProblem::new(w, a).unwrap()
    }

    fn run(
        problem: &GemmProblem,
        array: &ArrayConfig,
        dataflow: Dataflow,
        config: &EngineConfig,
    ) -> DataflowRun {
        let schedule = ComputeSchedule::baseline(
            problem.reduction_len(),
            problem.num_channels(),
            array.cols(),
        );
        run_dataflow(
            problem,
            array,
            dataflow,
            &schedule,
            config,
            &mut NullObserver,
            None,
        )
        .unwrap()
    }

    #[test]
    fn output_stationary_matches_reference() {
        let p = test_problem(20, 6, 9);
        let run = run(
            &p,
            &ArrayConfig::new(4, 2),
            Dataflow::OutputStationary,
            &EngineConfig::default(),
        );
        assert_eq!(run.outputs, p.reference_output().unwrap());
        assert_eq!(run.report.macs, 20 * 6 * 9);
        assert_eq!(run.report.outputs, 6 * 9);
        assert_eq!(run.report.peak_psum_buffer, 0, "OS never spills");
    }

    #[test]
    fn weight_stationary_matches_reference_and_spills() {
        let p = test_problem(20, 6, 9);
        let run = run(
            &p,
            &ArrayConfig::new(4, 2),
            Dataflow::WeightStationary,
            &EngineConfig::default(),
        );
        assert_eq!(run.outputs, p.reference_output().unwrap());
        assert_eq!(run.report.macs, 20 * 6 * 9);
        assert!(run.report.peak_psum_buffer > 0, "WS spills between tiles");
        assert!(run.report.channel("spill").unwrap().sends > 0);
        assert_eq!(
            run.report.channel("spill").unwrap().sends,
            run.report.channel("reload").unwrap().sends
        );
    }

    #[test]
    fn capacity_one_channels_complete_without_deadlock() {
        let p = test_problem(16, 4, 5);
        let config = EngineConfig {
            channel_capacity: 1,
            hop_latency: 1,
        };
        for dataflow in Dataflow::ALL {
            let run = run(&p, &ArrayConfig::new(4, 2), dataflow, &config);
            assert_eq!(run.outputs, p.reference_output().unwrap(), "{dataflow}");
        }
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let p = test_problem(4, 2, 2);
        let schedule = ComputeSchedule::baseline(4, 2, 2);
        let config = EngineConfig {
            channel_capacity: 0,
            hop_latency: 1,
        };
        let err = run_dataflow(
            &p,
            &ArrayConfig::new(2, 2),
            Dataflow::OutputStationary,
            &schedule,
            &config,
            &mut NullObserver,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EventError::ZeroCapacity));
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let p = test_problem(8, 4, 3);
        // Covers only half the channels.
        let schedule = ComputeSchedule::baseline(8, 2, 2);
        let err = run_dataflow(
            &p,
            &ArrayConfig::new(4, 2),
            Dataflow::OutputStationary,
            &schedule,
            &EngineConfig::default(),
            &mut NullObserver,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EventError::Sim(_)));
    }

    #[test]
    fn observer_counts_match_the_analytic_engine() {
        let p = test_problem(24, 4, 7);
        let array = ArrayConfig::new(8, 2);
        let schedule = ComputeSchedule::baseline(24, 4, 2);
        for dataflow in Dataflow::ALL {
            let mut analytic = SignFlipStats::new();
            p.simulate_with_schedule(&array, dataflow, &schedule, &mut analytic)
                .unwrap();
            let mut event = SignFlipStats::new();
            run_dataflow(
                &p,
                &array,
                dataflow,
                &schedule,
                &EngineConfig::default(),
                &mut event,
                None,
            )
            .unwrap();
            assert_eq!(event.total_macs, analytic.total_macs, "{dataflow}");
            assert_eq!(event.outputs, analytic.outputs, "{dataflow}");
            assert_eq!(event.sign_flips, analytic.sign_flips, "{dataflow}");
        }
    }

    #[test]
    fn stalls_emerge_from_tight_channels() {
        let p = test_problem(32, 4, 6);
        let tight = EngineConfig {
            channel_capacity: 1,
            hop_latency: 4,
        };
        let roomy = EngineConfig {
            channel_capacity: 64,
            hop_latency: 1,
        };
        let array = ArrayConfig::new(8, 2);
        let slow = run(&p, &array, Dataflow::WeightStationary, &tight);
        let fast = run(&p, &array, Dataflow::WeightStationary, &roomy);
        assert!(slow.report.cycles > fast.report.cycles);
        assert!(slow.report.stalled > fast.report.stalled);
        // Timing differs, arithmetic does not.
        assert_eq!(slow.outputs, fast.outputs);
        assert_eq!(slow.report.macs, fast.report.macs);
    }

    #[test]
    fn report_utilization_reflects_pe_occupancy() {
        let p = test_problem(16, 2, 4);
        let run = run(
            &p,
            &ArrayConfig::new(4, 2),
            Dataflow::OutputStationary,
            &EngineConfig::default(),
        );
        let util = run.report.utilization();
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
        let pe = run.report.context("pe").unwrap();
        assert_eq!(pe.busy, run.report.macs);
        assert!(pe.finish <= run.report.cycles);
    }
}
