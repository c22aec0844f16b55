//! Chrome-trace-format (JSON) recording of an engine run.
//!
//! The recorder accumulates, per context, a merged sequence of
//! compute/stall intervals (contiguous cycles collapse into one span) plus
//! per-channel occupancy samples, and serializes them as a Chrome Trace
//! Event document: one *track* (pid 1, tid = context index) per context
//! with `"ph": "X"` complete events, and one counter track per channel
//! with `"ph": "C"` events carrying `{"occupancy": n}`.  Open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>; one simulated cycle is
//! rendered as one nanosecond.
//!
//! Use a fresh recorder per engine run — the engine appends tracks and
//! never clears previous content.

/// What a span of a context's local time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    /// Productive work (a MAC, a buffer access, an output write).
    Compute,
    /// Waiting on a channel: empty input, in-flight token, or backpressure.
    Stall,
    /// Idle after the context finished, until the run's makespan.
    Drain,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Stall => "stall",
            SpanKind::Drain => "drain",
        }
    }
}

#[derive(Debug)]
struct Span {
    kind: SpanKind,
    start: u64,
    dur: u64,
}

#[derive(Debug)]
struct Track {
    name: String,
    spans: Vec<Span>,
}

#[derive(Debug)]
struct CounterTrack {
    name: String,
    /// `(timestamp, queue length)` samples in recording order; timestamps
    /// are only loosely ordered because senders and receivers stamp with
    /// their own local clocks.
    samples: Vec<(u64, usize)>,
}

/// Records context activity and channel occupancy during an engine run and
/// renders it as Chrome-trace-format JSON.
///
/// # Example
///
/// ```
/// use accel_sim::{ArrayConfig, ComputeSchedule, Dataflow, GemmProblem, Matrix, NullObserver};
/// use dataflow_sim::{json, run_dataflow, EngineConfig, TraceRecorder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Matrix::from_fn(4, 2, |r, c| (r + c) as i8);
/// let a = Matrix::from_fn(4, 3, |r, c| (r * c % 3) as i8);
/// let problem = GemmProblem::new(w, a)?;
/// let schedule = ComputeSchedule::baseline(4, 2, 2);
/// let mut trace = TraceRecorder::new();
/// run_dataflow(
///     &problem,
///     &ArrayConfig::new(2, 2),
///     Dataflow::OutputStationary,
///     &schedule,
///     &EngineConfig::default(),
///     &mut NullObserver,
///     Some(&mut trace),
/// )?;
/// json::validate(&trace.to_chrome_json()).expect("trace is valid JSON");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct TraceRecorder {
    tracks: Vec<Track>,
    counters: Vec<CounterTrack>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty() && self.counters.is_empty()
    }

    /// Registers a context track and returns its id (`tid` in the trace).
    pub(crate) fn add_track(&mut self, name: &str) -> usize {
        self.tracks.push(Track {
            name: name.to_string(),
            spans: Vec::new(),
        });
        self.tracks.len() - 1
    }

    /// Registers a channel counter track and returns its id.
    pub(crate) fn add_counter(&mut self, name: &str) -> usize {
        self.counters.push(CounterTrack {
            name: format!("chan:{name}"),
            samples: Vec::new(),
        });
        self.counters.len() - 1
    }

    fn span(&mut self, tid: usize, kind: SpanKind, start: u64, dur: u64) {
        if dur == 0 {
            return;
        }
        let spans = &mut self.tracks[tid].spans;
        if let Some(last) = spans.last_mut() {
            if last.kind == kind && last.start + last.dur == start {
                last.dur += dur;
                return;
            }
        }
        spans.push(Span { kind, start, dur });
    }

    /// Records productive cycles `[start, start + dur)` on a track;
    /// contiguous same-kind spans merge into one event.
    pub(crate) fn compute(&mut self, tid: usize, start: u64, dur: u64) {
        self.span(tid, SpanKind::Compute, start, dur);
    }

    /// Records stalled cycles `[start, start + dur)` on a track.
    pub(crate) fn stall(&mut self, tid: usize, start: u64, dur: u64) {
        self.span(tid, SpanKind::Stall, start, dur);
    }

    /// Records the idle tail between a context's finish and the makespan.
    pub(crate) fn drain(&mut self, tid: usize, start: u64, dur: u64) {
        self.span(tid, SpanKind::Drain, start, dur);
    }

    /// Records a channel-occupancy sample (queue length after a send/recv).
    pub(crate) fn counter(&mut self, cid: usize, ts: u64, occupancy: usize) {
        self.counters[cid].samples.push((ts, occupancy));
    }

    /// Serializes the recording as a Chrome Trace Event Format document:
    /// `{"traceEvents": [...], "displayTimeUnit": "ns"}` with one event per
    /// line.  Metadata events name the process and each thread, complete
    /// events (`"ph": "X"`) carry the compute/stall/drain spans, and counter
    /// events (`"ph": "C"`) carry channel occupancy.
    pub fn to_chrome_json(&self) -> String {
        use crate::json::push_json_str;
        use crate::report::push_u64;
        // One output line per event; sizing the buffer up front and pushing
        // fields directly (no per-event `format!`, no per-event escaped-name
        // allocation) keeps rendering linear in the document size — this is
        // the dominant cost of a traced run.
        let events = 1
            + self.tracks.len()
            + self.tracks.iter().map(|t| t.spans.len()).sum::<usize>()
            + self.counters.iter().map(|c| c.samples.len()).sum::<usize>();
        let mut out = String::with_capacity(64 + 100 * events);
        out.push_str("{\"traceEvents\": [\n");
        // The process-name metadata event is always first, so every later
        // event can prefix its separator unconditionally.
        out.push_str(
            "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
             \"args\": {\"name\": \"dataflow-sim\"}}",
        );
        // Escape each track name once; it repeats in every span event.
        let names: Vec<String> = self
            .tracks
            .iter()
            .map(|track| {
                let mut escaped = String::with_capacity(track.name.len() + 2);
                push_json_str(&mut escaped, &track.name);
                escaped
            })
            .collect();
        for (tid, name) in names.iter().enumerate() {
            out.push_str(",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": ");
            push_u64(&mut out, tid as u64);
            out.push_str(", \"name\": \"thread_name\", \"args\": {\"name\": ");
            out.push_str(name);
            out.push_str("}}");
        }
        for (tid, track) in self.tracks.iter().enumerate() {
            for span in &track.spans {
                out.push_str(",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": ");
                push_u64(&mut out, tid as u64);
                out.push_str(", \"name\": \"");
                out.push_str(span.kind.name());
                out.push_str("\", \"cat\": ");
                out.push_str(&names[tid]);
                out.push_str(", \"ts\": ");
                push_u64(&mut out, span.start);
                out.push_str(", \"dur\": ");
                push_u64(&mut out, span.dur);
                out.push('}');
            }
        }
        let mut escaped_name = String::new();
        let mut samples: Vec<(u64, usize)> = Vec::new();
        for counter in &self.counters {
            escaped_name.clear();
            push_json_str(&mut escaped_name, &counter.name);
            samples.clear();
            samples.extend_from_slice(&counter.samples);
            samples.sort_by_key(|&(ts, _)| ts);
            for &(ts, occupancy) in &samples {
                out.push_str(",\n{\"ph\": \"C\", \"pid\": 1, \"name\": ");
                out.push_str(&escaped_name);
                out.push_str(", \"ts\": ");
                push_u64(&mut out, ts);
                out.push_str(", \"args\": {\"occupancy\": ");
                push_u64(&mut out, occupancy as u64);
                out.push_str("}}");
            }
        }
        out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_same_kind_spans_merge() {
        let mut trace = TraceRecorder::new();
        let tid = trace.add_track("pe");
        trace.compute(tid, 0, 1);
        trace.compute(tid, 1, 1);
        trace.stall(tid, 2, 3);
        trace.compute(tid, 5, 1);
        trace.compute(tid, 7, 1); // gap: no merge
        let spans = &trace.tracks[tid].spans;
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].start, spans[0].dur), (0, 2));
        assert_eq!((spans[1].start, spans[1].dur), (2, 3));
        assert_eq!((spans[3].start, spans[3].dur), (7, 1));
    }

    #[test]
    fn zero_duration_spans_are_dropped() {
        let mut trace = TraceRecorder::new();
        let tid = trace.add_track("pe");
        trace.stall(tid, 3, 0);
        assert!(trace.tracks[tid].spans.is_empty());
    }

    #[test]
    fn chrome_json_is_valid_and_names_tracks() {
        let mut trace = TraceRecorder::new();
        let tid = trace.add_track("weight-feeder");
        let cid = trace.add_counter("weights");
        trace.compute(tid, 0, 4);
        trace.drain(tid, 4, 2);
        trace.counter(cid, 1, 1);
        trace.counter(cid, 0, 2); // out of order: sorted at serialization
        let json = trace.to_chrome_json();
        crate::json::validate(&json).expect("chrome trace parses");
        assert!(json.contains("\"displayTimeUnit\": \"ns\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"chan:weights\""));
        let ts0 = json
            .find("\"ts\": 0, \"args\"")
            .expect("sorted counter first");
        let ts1 = json.find("\"ts\": 1, \"args\"").expect("second sample");
        assert!(ts0 < ts1);
    }
}
