//! The typed [`DataflowReport`] an engine run produces, with a
//! deterministic JSON rendering and an exact single-line wire round trip.

use crate::json::{push_json_f64, push_json_str};

/// Per-context accounting: how one context spent its local time.
///
/// All fields are integers so the report round-trips exactly through the
/// wire codec; utilization is derived (see
/// [`ContextReport::utilization`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextReport {
    /// Context name (one of the engine's fixed track names, e.g. `"pe"`).
    pub name: String,
    /// Cycles the context spent doing useful work.
    pub busy: u64,
    /// Cycles the context spent waiting — on an empty channel, a token
    /// still in flight, or a full channel (backpressure).
    pub stall: u64,
    /// The context's local clock when it finished.
    pub finish: u64,
}

impl ContextReport {
    /// Busy fraction of the run's makespan (`0.0` for an empty run).
    pub fn utilization(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.busy as f64 / cycles as f64
        }
    }
}

/// Per-channel accounting: occupancy and traffic of one bounded channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelReport {
    /// Channel name (one of the engine's fixed channel names, e.g.
    /// `"spill"`).
    pub name: String,
    /// Configured capacity (tokens).
    pub capacity: u64,
    /// Peak queue occupancy observed (tokens).
    pub peak: u64,
    /// Total tokens sent through the channel.
    pub sends: u64,
}

/// What one event-driven run measured: makespan, MAC throughput, stall
/// breakdown per context, channel occupancy, and WS psum-buffer pressure.
///
/// Integer-only so that [`DataflowReport::to_wire`] /
/// [`DataflowReport::from_wire`] round-trip exactly; the derived rates
/// ([`DataflowReport::utilization`]) are recomputed from the integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowReport {
    /// Name of the simulated dataflow ([`accel_sim::Dataflow::name`]).
    pub dataflow: String,
    /// Makespan: the largest local clock over all contexts when the run
    /// drained.
    pub cycles: u64,
    /// MAC cycles executed (equals the analytic engine's `total_cycles`).
    pub macs: u64,
    /// Output values produced.
    pub outputs: u64,
    /// Total stall cycles summed over every context.
    pub stalled: u64,
    /// Peak number of live spilled partial sums in the psum-buffer context
    /// (`0` under output-stationary, which never spills).
    pub peak_psum_buffer: u64,
    /// Per-context time accounting, in fixed engine order.
    pub contexts: Vec<ContextReport>,
    /// Per-channel occupancy/traffic accounting, in fixed engine order.
    pub channels: Vec<ChannelReport>,
}

impl DataflowReport {
    /// PE utilization: MAC cycles over makespan (`1.0` = the array never
    /// stalled).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }

    /// The context report named `name`, if present.
    pub fn context(&self, name: &str) -> Option<&ContextReport> {
        self.contexts.iter().find(|c| c.name == name)
    }

    /// The channel report named `name`, if present.
    pub fn channel(&self, name: &str) -> Option<&ChannelReport> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// Deterministic JSON rendering (hand-rolled like every report in the
    /// workspace; field order is a stable, golden-pinned contract).
    pub fn to_json(&self) -> String {
        // Sized for the fixed scaffolding plus one line per context and
        // channel; rendered entirely with push-based writers (no per-field
        // `format!` allocations — this is on the per-run reporting path).
        let mut out =
            String::with_capacity(192 + 96 * self.contexts.len() + 72 * self.channels.len());
        out.push_str("{\n  \"dataflow\": ");
        push_json_str(&mut out, &self.dataflow);
        out.push_str(",\n  \"cycles\": ");
        push_u64(&mut out, self.cycles);
        out.push_str(",\n  \"macs\": ");
        push_u64(&mut out, self.macs);
        out.push_str(",\n  \"outputs\": ");
        push_u64(&mut out, self.outputs);
        out.push_str(",\n  ");
        push_json_f64(&mut out, "\"utilization\": ", self.utilization());
        out.push_str(",\n  \"stalled\": ");
        push_u64(&mut out, self.stalled);
        out.push_str(",\n  \"peak_psum_buffer\": ");
        push_u64(&mut out, self.peak_psum_buffer);
        out.push_str(",\n  \"contexts\": [");
        for (i, ctx) in self.contexts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"name\": ");
            push_json_str(&mut out, &ctx.name);
            out.push_str(", \"busy\": ");
            push_u64(&mut out, ctx.busy);
            out.push_str(", \"stall\": ");
            push_u64(&mut out, ctx.stall);
            out.push_str(", \"finish\": ");
            push_u64(&mut out, ctx.finish);
            out.push_str(", ");
            push_json_f64(&mut out, "\"utilization\": ", ctx.utilization(self.cycles));
            out.push_str(" }");
        }
        out.push_str("\n  ],\n  \"channels\": [");
        for (i, ch) in self.channels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"name\": ");
            push_json_str(&mut out, &ch.name);
            out.push_str(", \"capacity\": ");
            push_u64(&mut out, ch.capacity);
            out.push_str(", \"peak\": ");
            push_u64(&mut out, ch.peak);
            out.push_str(", \"sends\": ");
            push_u64(&mut out, ch.sends);
            out.push_str(" }");
        }
        out.push_str("\n  ]\n}");
        out
    }

    /// Exact single-line wire encoding, in the workspace's space-separated
    /// `key=value` style.  Context and channel names are fixed engine
    /// tokens (no whitespace, no `|`/`:`/`,`), so no escaping is needed;
    /// [`DataflowReport::from_wire`] rejects names that would break the
    /// framing.
    pub fn to_wire(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "df={} cycles={} macs={} outputs={} stalled={} peak_buf={} ctx=",
            self.dataflow,
            self.cycles,
            self.macs,
            self.outputs,
            self.stalled,
            self.peak_psum_buffer
        );
        for (i, ctx) in self.contexts.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            let _ = write!(
                out,
                "{}:{}:{}:{}",
                ctx.name, ctx.busy, ctx.stall, ctx.finish
            );
        }
        out.push_str(" chan=");
        for (i, ch) in self.channels.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            let _ = write!(out, "{}:{}:{}:{}", ch.name, ch.capacity, ch.peak, ch.sends);
        }
        out
    }

    /// Decodes a line produced by [`DataflowReport::to_wire`].  Returns
    /// `None` on any malformed or trailing token (the strict-decode
    /// contract every wire codec in the workspace follows).
    pub fn from_wire(line: &str) -> Option<DataflowReport> {
        let mut tokens = line.split_whitespace();
        let dataflow = wire_field(&mut tokens, "df")?;
        if dataflow.is_empty() || !dataflow.chars().all(name_char) {
            return None;
        }
        let cycles = wire_field(&mut tokens, "cycles")?.parse().ok()?;
        let macs = wire_field(&mut tokens, "macs")?.parse().ok()?;
        let outputs = wire_field(&mut tokens, "outputs")?.parse().ok()?;
        let stalled = wire_field(&mut tokens, "stalled")?.parse().ok()?;
        let peak_psum_buffer = wire_field(&mut tokens, "peak_buf")?.parse().ok()?;
        let ctx_body = wire_field(&mut tokens, "ctx")?;
        let contexts = if ctx_body.is_empty() {
            Vec::new()
        } else {
            ctx_body
                .split('|')
                .map(|entry| {
                    let [name, busy, stall, finish] = four_fields(entry)?;
                    Some(ContextReport {
                        name: name.to_string(),
                        busy: busy.parse().ok()?,
                        stall: stall.parse().ok()?,
                        finish: finish.parse().ok()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?
        };
        let chan_body = wire_field(&mut tokens, "chan")?;
        let channels = if chan_body.is_empty() {
            Vec::new()
        } else {
            chan_body
                .split('|')
                .map(|entry| {
                    let [name, capacity, peak, sends] = four_fields(entry)?;
                    Some(ChannelReport {
                        name: name.to_string(),
                        capacity: capacity.parse().ok()?,
                        peak: peak.parse().ok()?,
                        sends: sends.parse().ok()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?
        };
        if tokens.next().is_some() {
            return None;
        }
        Some(DataflowReport {
            dataflow: dataflow.to_string(),
            cycles,
            macs,
            outputs,
            stalled,
            peak_psum_buffer,
            contexts,
            channels,
        })
    }
}

/// Characters allowed in wire-embedded context/channel/dataflow names.
fn name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_'
}

/// `name:a:b:c` → the four parts, with the name restricted to safe tokens.
fn four_fields(entry: &str) -> Option<[&str; 4]> {
    let mut parts = entry.split(':');
    let name = parts.next()?;
    if name.is_empty() || !name.chars().all(name_char) {
        return None;
    }
    let a = parts.next()?;
    let b = parts.next()?;
    let c = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    Some([name, a, b, c])
}

fn wire_field<'t>(tokens: &mut impl Iterator<Item = &'t str>, key: &str) -> Option<&'t str> {
    tokens
        .next()?
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
}

/// Appends a decimal integer without a `format!` round trip — the trace
/// and report renderers push one of these per field, thousands per
/// document.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // The buffer holds only ASCII digits.
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataflowReport {
        DataflowReport {
            dataflow: "weight-stationary".into(),
            cycles: 96,
            macs: 72,
            outputs: 6,
            stalled: 9,
            peak_psum_buffer: 3,
            contexts: vec![
                ContextReport {
                    name: "pe".into(),
                    busy: 72,
                    stall: 9,
                    finish: 96,
                },
                ContextReport {
                    name: "psum-buffer".into(),
                    busy: 18,
                    stall: 4,
                    finish: 92,
                },
            ],
            channels: vec![
                ChannelReport {
                    name: "weights".into(),
                    capacity: 2,
                    peak: 2,
                    sends: 72,
                },
                ChannelReport {
                    name: "spill".into(),
                    capacity: 1,
                    peak: 1,
                    sends: 18,
                },
            ],
        }
    }

    #[test]
    fn wire_round_trips_exactly() {
        let report = sample();
        let line = report.to_wire();
        assert_eq!(DataflowReport::from_wire(&line), Some(report));
    }

    #[test]
    fn wire_rejects_malformed_lines() {
        let line = sample().to_wire();
        assert!(DataflowReport::from_wire(&format!("{line} extra")).is_none());
        assert!(DataflowReport::from_wire(&line.replace("cycles=", "cycle=")).is_none());
        assert!(DataflowReport::from_wire(&line.replace("pe:", "p e:")).is_none());
        assert!(DataflowReport::from_wire("").is_none());
    }

    #[test]
    fn empty_context_and_channel_lists_round_trip() {
        let report = DataflowReport {
            contexts: Vec::new(),
            channels: Vec::new(),
            ..sample()
        };
        assert_eq!(DataflowReport::from_wire(&report.to_wire()), Some(report));
    }

    #[test]
    fn utilization_derives_from_integers() {
        let report = sample();
        assert!((report.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(report.context("pe").unwrap().utilization(96), 0.75);
        let empty = DataflowReport {
            cycles: 0,
            macs: 0,
            ..sample()
        };
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn json_is_valid_and_carries_every_section() {
        let json = sample().to_json();
        crate::json::validate(&json).expect("report JSON parses");
        for needle in [
            "\"dataflow\": \"weight-stationary\"",
            "\"utilization\": 0.75",
            "\"peak_psum_buffer\": 3",
            "\"name\": \"psum-buffer\"",
            "\"name\": \"spill\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }
}
