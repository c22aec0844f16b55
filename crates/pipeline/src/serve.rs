//! Sweep-as-a-service: a long-running daemon that accepts TER, sweep and
//! accuracy requests over TCP and answers them from one shared cache
//! hierarchy with **in-flight dedup**.
//!
//! A batch pipeline pays the full simulation cost once per process; the
//! serve layer amortizes it across *clients*.  [`ServeServer`] listens on a
//! plain TCP socket speaking the repo's line-delimited text idiom (the same
//! family as the [`WorkUnit`]/[`UnitResult`] worker protocol), expands each
//! request into a [`WorkPlan`], and schedules its units through a
//! daemon-wide `UnitScheduler` where identical in-flight units are
//! computed once and fanned out to every waiting request — *single-flight*
//! layered on top of the existing [`ArtifactStore`] write-through.  The
//! scheduler keeps one slot per running unit: joiners wait on that slot
//! alone, and its leader retires the key before publishing the outcome, so
//! a later request for the same unit is served by the store:
//!
//! ```text
//! client ──req──▶ daemon ──▶ single-flight scheduler ──▶ executor pool
//!                    ▲              │ coalesce                │
//!                    └──report──────┴──────── shared ArtifactStore
//! ```
//!
//! * **Dedup key** — histogram units use the content-addressed artifact
//!   check line (grid-independent, so a TER request coalesces with the
//!   histogram phase of a concurrent sweep); all other units use
//!   `(plan signature, unit id)`.
//! * **Exactly-once** — each request runs its histogram units first, then
//!   the rest; by the time a Monte-Carlo shard or accuracy point needs a
//!   histogram internally, the leader's synchronous store write-through has
//!   published it, so cross-plan overlap never recomputes.
//! * **Priority** — a two-level admission gate: `interactive` units preempt
//!   `bulk` ones at unit granularity (bulk acquisition blocks while any
//!   interactive unit is waiting for a slot).
//! * **Workload memo** — the workload set of every request that ran at
//!   interactive priority is kept, under a byte cap, so a repeated probe
//!   plans against it instead of synthesizing it again.
//! * **Accounting** — every response carries a per-request [`CacheStats`]
//!   whose `inflight_hits` counts units served by joining another request's
//!   computation.
//!
//! Use [`ServeClient`] from Rust, or speak the protocol directly (see the
//! repo README for the wire grammar).  [`ServeServer::spawn`] +
//! [`ServeClient::shutdown`] give an in-process daemon for tests.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qnn::fit::fit_classifier_head;
use qnn::{models, Dataset, Model, SyntheticDatasetBuilder};
use read_core::SortCriterion;
use timing::{DepthHistogram, OperatingCondition};

use crate::cache::CacheStats;
use crate::error::PipelineError;
use crate::exec::{lock_ok, resolve_threads, run_indexed_threads, wait_until};
use crate::executor::SocketExecutor;
use crate::pipeline::ReadPipeline;
use crate::plan::{window_reply, UnitResult, WorkPlan, WorkUnit};
use crate::stage::Algorithm;
use crate::store::{ArtifactStore, MemoryStore};
use crate::sweep::SweepPlan;
use crate::wire::{
    self, escape_wire, io_err, unescape, Conn, Daemon, Fields, Flow, Handler, LineServer,
};
use crate::workload::{
    resnet18_workloads_prefix, resnet34_workloads_prefix, vgg16_workloads_prefix, LayerWorkload,
    WorkloadConfig,
};

fn bad_request(line: &str, why: &str) -> PipelineError {
    PipelineError::Input {
        reason: format!("bad request line {line:?}: {why}"),
    }
}

// ---------------------------------------------------------------------------
// Protocol vocabulary
// ---------------------------------------------------------------------------

/// Sentinel for [`ServeRequest::timeout_ms`] requesting an explicitly
/// unbounded request (wire spelling: `timeout_ms=none`).
///
/// `timeout_ms=0` means "use the server's default timeout", so without this
/// sentinel a client could never *opt out* of a server default.
pub const NO_TIMEOUT: u64 = u64::MAX;

// Upper bounds on the request sizes that drive an allocation before any
// work is admitted: workload synthesis, the sweep grid, the Monte-Carlo
// budget, the accuracy dataset and its evaluation seeds.  No layer of the
// paper's CIFAR networks has more than 32x32 output pixels.
const MAX_PIXELS: u64 = 1024;
const MAX_CORNERS: u64 = 64;
const MAX_DIES: u64 = 64;
const MAX_MC_TRIALS: u64 = 4096;
const MAX_ACC_SAMPLES: u64 = 1024;
const MAX_ACC_SEEDS: u64 = 64;

/// Admission class of a request: interactive units preempt bulk ones at the
/// daemon's scheduling gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: may claim executor slots ahead of queued bulk
    /// units.
    Interactive,
    /// Throughput work: yields slots whenever an interactive unit waits.
    Bulk,
}

impl Priority {
    /// Wire name (`interactive` / `bulk`).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Bulk => "bulk",
        }
    }

    fn parse(s: &str, line: &str) -> Result<Option<Priority>, PipelineError> {
        match s {
            "auto" => Ok(None),
            "interactive" => Ok(Some(Priority::Interactive)),
            "bulk" => Ok(Some(Priority::Bulk)),
            other => Err(bad_request(line, &format!("unknown priority {other:?}"))),
        }
    }
}

/// Which experiment a [`ServeRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Layer-wise TER table ([`ReadPipeline::run_ter`]).
    Ter,
    /// Corner/die sweep ([`ReadPipeline::run_sweep`]).
    Sweep,
    /// Fault-injection accuracy ([`ReadPipeline::run_accuracy_for`]).
    Accuracy,
}

impl RequestKind {
    /// Wire name (`ter` / `sweep` / `acc`).
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Ter => "ter",
            RequestKind::Sweep => "sweep",
            RequestKind::Accuracy => "acc",
        }
    }

    fn parse(s: &str, line: &str) -> Result<RequestKind, PipelineError> {
        [RequestKind::Ter, RequestKind::Sweep, RequestKind::Accuracy]
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| bad_request(line, &format!("unknown kind {s:?}")))
    }
}

/// Which workload family the request simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// VGG-16 conv layers.
    Vgg16,
    /// ResNet-18 conv layers.
    Resnet18,
    /// ResNet-34 conv layers.
    Resnet34,
}

impl ModelFamily {
    /// Wire name (`vgg16` / `resnet18` / `resnet34`).
    pub fn as_str(self) -> &'static str {
        match self {
            ModelFamily::Vgg16 => "vgg16",
            ModelFamily::Resnet18 => "resnet18",
            ModelFamily::Resnet34 => "resnet34",
        }
    }

    fn parse(s: &str, line: &str) -> Result<ModelFamily, PipelineError> {
        [
            ModelFamily::Vgg16,
            ModelFamily::Resnet18,
            ModelFamily::Resnet34,
        ]
        .into_iter()
        .find(|family| family.as_str() == s)
        .ok_or_else(|| bad_request(line, &format!("unknown family {s:?}")))
    }

    /// Generates only the requested layer prefix — interactive requests
    /// must not pay deep-layer weight synthesis for layers they never
    /// simulate.
    fn workloads(self, config: &WorkloadConfig, take: usize) -> Vec<LayerWorkload> {
        match self {
            ModelFamily::Vgg16 => vgg16_workloads_prefix(config, take),
            ModelFamily::Resnet18 => resnet18_workloads_prefix(config, take),
            ModelFamily::Resnet34 => resnet34_workloads_prefix(config, take),
        }
    }
}

/// One schedule source from the paper's comparison set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSpec {
    /// Unoptimized row-major schedule.
    Baseline,
    /// Input-channel reordering only.
    Reorder,
    /// Full READ flow: cluster then reorder (sign-first).
    Read,
}

impl SourceSpec {
    /// Wire name (`baseline` / `reorder` / `read`).
    pub fn as_str(self) -> &'static str {
        match self {
            SourceSpec::Baseline => "baseline",
            SourceSpec::Reorder => "reorder",
            SourceSpec::Read => "read",
        }
    }

    fn parse(s: &str, line: &str) -> Result<SourceSpec, PipelineError> {
        [SourceSpec::Baseline, SourceSpec::Reorder, SourceSpec::Read]
            .into_iter()
            .find(|source| source.as_str() == s)
            .ok_or_else(|| bad_request(line, &format!("unknown source {s:?}")))
    }

    fn algorithm(self) -> Algorithm {
        match self {
            SourceSpec::Baseline => Algorithm::Baseline,
            SourceSpec::Reorder => Algorithm::Reorder(SortCriterion::SignFirst),
            SourceSpec::Read => Algorithm::ClusterThenReorder(SortCriterion::SignFirst),
        }
    }
}

/// One PVTA operating corner, wire-encodable.
///
/// `aging_years == 0` and `vt_fluctuation == 0` is the ideal corner; the
/// other combinations resolve through the [`OperatingCondition`]
/// constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerSpec {
    /// Device age in years (0 = fresh silicon).
    pub aging_years: f64,
    /// Voltage/temperature fluctuation fraction (0 = nominal).
    pub vt_fluctuation: f64,
}

impl CornerSpec {
    /// The ideal (fresh, nominal) corner.
    pub fn ideal() -> CornerSpec {
        CornerSpec {
            aging_years: 0.0,
            vt_fluctuation: 0.0,
        }
    }

    /// The paper's stress corner: `aging_vt(years, fluctuation)`.
    pub fn aging_vt(years: f64, fluctuation: f64) -> CornerSpec {
        CornerSpec {
            aging_years: years,
            vt_fluctuation: fluctuation,
        }
    }

    /// Wire encoding: `ideal`, `vt:<f>`, `aging:<y>` or `agingvt:<y>:<f>`.
    pub fn encode(&self) -> String {
        match (self.aging_years > 0.0, self.vt_fluctuation > 0.0) {
            (false, false) => "ideal".to_string(),
            (false, true) => format!("vt:{}", self.vt_fluctuation),
            (true, false) => format!("aging:{}", self.aging_years),
            (true, true) => format!("agingvt:{}:{}", self.aging_years, self.vt_fluctuation),
        }
    }

    /// Decodes the encoding produced by [`CornerSpec::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on an unknown tag or malformed
    /// number.
    pub fn decode(s: &str, line: &str) -> Result<CornerSpec, PipelineError> {
        let at = Fields::new(line, bad_request);
        let mut parts = s.split(':');
        let tag = parts.next().unwrap_or("");
        let mut num = |what: &str| -> Result<f64, PipelineError> {
            let raw = parts
                .next()
                .ok_or_else(|| bad_request(line, &format!("corner {s:?} is missing {what}")))?;
            let value: f64 = at.value(raw, &format!("corner {what}"))?;
            if !value.is_finite() || value < 0.0 {
                return Err(bad_request(
                    line,
                    &format!("corner {s:?}: {what} out of range"),
                ));
            }
            Ok(value)
        };
        let corner = match tag {
            "ideal" => CornerSpec::ideal(),
            "vt" => CornerSpec {
                aging_years: 0.0,
                vt_fluctuation: num("fluctuation")?,
            },
            "aging" => CornerSpec {
                aging_years: num("years")?,
                vt_fluctuation: 0.0,
            },
            "agingvt" => CornerSpec {
                aging_years: num("years")?,
                vt_fluctuation: num("fluctuation")?,
            },
            other => return Err(bad_request(line, &format!("unknown corner tag {other:?}"))),
        };
        match parts.next() {
            None => Ok(corner),
            Some(extra) => Err(bad_request(
                line,
                &format!("corner {s:?}: trailing field {extra:?}"),
            )),
        }
    }

    /// Resolves the spec into an [`OperatingCondition`] with the paper's
    /// canonical names.
    pub fn resolve(&self) -> OperatingCondition {
        match (self.aging_years > 0.0, self.vt_fluctuation > 0.0) {
            (false, false) => OperatingCondition::ideal(),
            (false, true) => OperatingCondition::vt(self.vt_fluctuation),
            (true, false) => OperatingCondition::aging(self.aging_years),
            (true, true) => OperatingCondition::aging_vt(self.aging_years, self.vt_fluctuation),
        }
    }
}

/// Monte-Carlo budget of a sweep request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McSpec {
    /// Total trials per sampling cell.
    pub trials: u32,
    /// Base RNG seed.
    pub seed: u64,
    /// Trials per [`WorkUnit::McShard`] (0 = one shard).
    pub trials_per_shard: u32,
}

/// Accuracy-experiment parameters (scaled VGG-16 on a synthetic dataset —
/// the repo's standard fault-injection rig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracySpec {
    /// Channel-width divisor of the scaled model.
    pub width_div: usize,
    /// Number of classes (model head and dataset).
    pub classes: usize,
    /// Weight-initialization seed of the model.
    pub model_seed: u64,
    /// Samples per class in the synthetic dataset.
    pub samples_per_class: usize,
    /// Dataset noise amplitude.
    pub noise: f64,
    /// Dataset RNG seed.
    pub data_seed: u64,
    /// Fault-injection seeds per accuracy point.
    pub seeds: u64,
    /// Fit the classifier head before evaluating.
    pub fit: bool,
}

impl Default for AccuracySpec {
    fn default() -> AccuracySpec {
        AccuracySpec {
            width_div: 16,
            classes: 4,
            model_seed: 9,
            samples_per_class: 2,
            noise: 24.0,
            data_seed: 5,
            seeds: 2,
            fit: false,
        }
    }
}

impl McSpec {
    fn encode(&self) -> String {
        format!("{}:{}:{}", self.trials, self.seed, self.trials_per_shard)
    }

    fn decode(s: &str, at: &Fields<'_>) -> Result<McSpec, PipelineError> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(at.bad("mc wants <trials>:<seed>:<per_shard>"));
        }
        Ok(McSpec {
            trials: at.value(parts[0], "mc trials")?,
            seed: at.value(parts[1], "mc seed")?,
            trials_per_shard: at.value(parts[2], "mc per_shard")?,
        })
    }
}

impl AccuracySpec {
    fn encode(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}:{}:{}",
            self.width_div,
            self.classes,
            self.model_seed,
            self.samples_per_class,
            self.noise,
            self.data_seed,
            self.seeds,
            u8::from(self.fit)
        )
    }

    fn decode(s: &str, at: &Fields<'_>) -> Result<AccuracySpec, PipelineError> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 8 {
            return Err(at.bad(
                "acc wants <wdiv>:<classes>:<mseed>:<samples>:<noise>:<dseed>:<seeds>:<fit>",
            ));
        }
        let noise: f64 = at.value(parts[4], "acc noise")?;
        if !noise.is_finite() || noise < 0.0 {
            return Err(at.bad("acc: noise out of range"));
        }
        let fit = match parts[7] {
            "0" => false,
            "1" => true,
            other => return Err(at.bad(&format!("acc: bad fit flag {other:?}"))),
        };
        Ok(AccuracySpec {
            width_div: at.value(parts[0], "acc wdiv")?,
            classes: at.value(parts[1], "acc classes")?,
            model_seed: at.value(parts[2], "acc mseed")?,
            samples_per_class: at.value(parts[3], "acc samples")?,
            noise,
            data_seed: at.value(parts[5], "acc dseed")?,
            seeds: at.value(parts[6], "acc seeds")?,
            fit,
        })
    }
}

// ---------------------------------------------------------------------------
// ServeRequest
// ---------------------------------------------------------------------------

/// One experiment request, wire-encodable as a single `req v1 ...` line.
///
/// Build with [`ServeRequest::ter`], [`ServeRequest::sweep`] or
/// [`ServeRequest::accuracy`] and adjust the public fields, then send it
/// through a [`ServeClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Experiment kind.
    pub kind: RequestKind,
    /// Network label carried into the report (any string; wire-escaped).
    pub network: String,
    /// Workload family to simulate.
    pub family: ModelFamily,
    /// Number of leading family layers to keep (0 = all).
    pub layers: usize,
    /// Pixels (GEMM columns) per layer workload.
    pub pixels: usize,
    /// Workload generator seed.
    pub workload_seed: u64,
    /// Schedule sources to compare (at least one).
    pub sources: Vec<SourceSpec>,
    /// Operating corners (TER/accuracy: report rows; sweep: grid columns).
    pub corners: Vec<CornerSpec>,
    /// Sweep only: include the typical (no-variation) die.
    pub typical: bool,
    /// Sweep only: per-die variation seeds.
    pub dies: Vec<u64>,
    /// Sweep only: Monte-Carlo budget.
    pub mc: Option<McSpec>,
    /// Accuracy only: model/dataset/evaluation parameters.
    pub accuracy: Option<AccuracySpec>,
    /// Admission class; `None` lets the daemon choose by unit count.
    pub priority: Option<Priority>,
    /// Per-request timeout in milliseconds.  `0` means "use the server's
    /// default timeout" ([`ServerConfig::default_timeout_ms`]); the
    /// [`NO_TIMEOUT`] sentinel (wire: `timeout_ms=none`) explicitly
    /// requests an unbounded run even when the server has a default.
    pub timeout_ms: u64,
}

impl ServeRequest {
    fn base(kind: RequestKind, network: &str) -> ServeRequest {
        ServeRequest {
            kind,
            network: network.to_string(),
            family: ModelFamily::Vgg16,
            layers: 2,
            pixels: 2,
            workload_seed: WorkloadConfig::default().seed,
            sources: vec![SourceSpec::Baseline, SourceSpec::Read],
            corners: vec![CornerSpec::aging_vt(10.0, 0.05)],
            typical: false,
            dies: Vec::new(),
            mc: None,
            accuracy: None,
            priority: None,
            timeout_ms: 0,
        }
    }

    /// A small layer-wise TER request (two VGG-16 layers, baseline vs READ
    /// at the stress corner).
    pub fn ter(network: &str) -> ServeRequest {
        ServeRequest::base(RequestKind::Ter, network)
    }

    /// A small corner/die sweep request (typical die, stress corner).
    pub fn sweep(network: &str) -> ServeRequest {
        ServeRequest {
            typical: true,
            ..ServeRequest::base(RequestKind::Sweep, network)
        }
    }

    /// A small fault-injection accuracy request (default [`AccuracySpec`]).
    pub fn accuracy(network: &str) -> ServeRequest {
        ServeRequest {
            accuracy: Some(AccuracySpec::default()),
            ..ServeRequest::base(RequestKind::Accuracy, network)
        }
    }

    /// The request's single-line wire encoding (`req v1 ...`).
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "req v1 kind={} net={} family={} layers={} pixels={} wseed={}",
            self.kind.as_str(),
            escape_wire(&self.network),
            self.family.as_str(),
            self.layers,
            self.pixels,
            self.workload_seed
        );
        let sources: Vec<&str> = self.sources.iter().map(|s| s.as_str()).collect();
        let _ = write!(out, " sources={}", sources.join(","));
        let corners: Vec<String> = self.corners.iter().map(|c| c.encode()).collect();
        let _ = write!(out, " corners={}", corners.join(","));
        if self.typical {
            out.push_str(" typical=1");
        }
        if !self.dies.is_empty() {
            let dies: Vec<String> = self.dies.iter().map(|d| d.to_string()).collect();
            let _ = write!(out, " dies={}", dies.join(","));
        }
        if let Some(mc) = &self.mc {
            let _ = write!(out, " mc={}", mc.encode());
        }
        if let Some(acc) = &self.accuracy {
            let _ = write!(out, " acc={}", acc.encode());
        }
        let priority = match self.priority {
            None => "auto",
            Some(p) => p.as_str(),
        };
        let _ = write!(out, " priority={priority}");
        if self.timeout_ms == NO_TIMEOUT {
            out.push_str(" timeout_ms=none");
        } else {
            let _ = write!(out, " timeout_ms={}", self.timeout_ms);
        }
        out
    }

    /// Decodes a `req v1 ...` line produced by [`ServeRequest::encode`] (or
    /// typed by hand).  Field order after the prefix is free; unknown keys
    /// are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on any malformed or invalid field.
    pub fn decode(line: &str) -> Result<ServeRequest, PipelineError> {
        let mut fields = Fields::new(line, bad_request);
        if fields.next() != Some("req") || fields.next() != Some("v1") {
            return Err(bad_request(line, "expected `req v1` prefix"));
        }
        let mut kind = None;
        let mut request = ServeRequest {
            layers: 0,
            pixels: WorkloadConfig::default().pixels_per_layer,
            sources: Vec::new(),
            corners: Vec::new(),
            ..ServeRequest::base(RequestKind::Ter, "")
        };
        for (key, value) in fields.pairs()? {
            match key {
                "kind" => kind = Some(RequestKind::parse(value, line)?),
                "net" => request.network = unescape(value, line)?,
                "family" => request.family = ModelFamily::parse(value, line)?,
                "layers" => request.layers = fields.value(value, "layers")?,
                "pixels" => request.pixels = fields.value(value, "pixels")?,
                "wseed" => request.workload_seed = fields.value(value, "wseed")?,
                "sources" => {
                    for s in value.split(',').filter(|s| !s.is_empty()) {
                        request.sources.push(SourceSpec::parse(s, line)?);
                    }
                }
                "corners" => {
                    for c in value.split(',').filter(|c| !c.is_empty()) {
                        request.corners.push(CornerSpec::decode(c, line)?);
                    }
                }
                "typical" => {
                    request.typical = match value {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(bad_request(line, &format!("bad typical flag {other:?}")))
                        }
                    }
                }
                "dies" => {
                    for d in value.split(',').filter(|d| !d.is_empty()) {
                        request.dies.push(fields.value(d, "die seed")?);
                    }
                }
                "mc" => request.mc = Some(McSpec::decode(value, &fields)?),
                "acc" => request.accuracy = Some(AccuracySpec::decode(value, &fields)?),
                "priority" => request.priority = Priority::parse(value, line)?,
                "timeout_ms" => {
                    request.timeout_ms = if value == "none" {
                        NO_TIMEOUT
                    } else {
                        fields.value(value, "timeout_ms")?
                    }
                }
                other => return Err(bad_request(line, &format!("unknown field {other:?}"))),
            }
        }
        request.kind = kind.ok_or_else(|| bad_request(line, "missing kind"))?;
        request.validate().map_err(|e| match e {
            PipelineError::Input { reason } => bad_request(line, &reason),
            other => other,
        })?;
        Ok(request)
    }

    /// Checks cross-field consistency (which fields each kind allows) and
    /// bounds every size that drives an allocation before work starts:
    /// `pixels` <= 1024, at most 64 corners and 64 dies, `mc` trials
    /// <= 4096, `acc` classes x samples <= 1024 and `acc` seeds <= 64.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] describing the first violation.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let input = |reason: &str| PipelineError::Input {
            reason: reason.to_string(),
        };
        if self.sources.is_empty() {
            return Err(input("at least one source is required"));
        }
        if self.corners.is_empty() {
            return Err(input("at least one corner is required"));
        }
        if self.pixels == 0 {
            return Err(input("pixels must be >= 1"));
        }
        let acc = self.accuracy.as_ref();
        let bounds = [
            ("pixels", self.pixels as u64, MAX_PIXELS),
            ("corners", self.corners.len() as u64, MAX_CORNERS),
            ("dies", self.dies.len() as u64, MAX_DIES),
            (
                "mc trials",
                self.mc.map_or(0, |mc| u64::from(mc.trials)),
                MAX_MC_TRIALS,
            ),
            (
                "acc classes x samples",
                acc.map_or(0, |a| {
                    (a.classes as u64).saturating_mul(a.samples_per_class as u64)
                }),
                MAX_ACC_SAMPLES,
            ),
            ("acc seeds", acc.map_or(0, |a| a.seeds), MAX_ACC_SEEDS),
        ];
        for (field, value, max) in bounds {
            if value > max {
                return Err(input(&format!("{field} must be <= {max}, got {value}")));
            }
        }
        match self.kind {
            RequestKind::Ter => {
                if self.typical || !self.dies.is_empty() || self.mc.is_some() {
                    return Err(input("typical/dies/mc are sweep-only fields"));
                }
                if self.accuracy.is_some() {
                    return Err(input("acc is an accuracy-only field"));
                }
            }
            RequestKind::Sweep => {
                if !self.typical && self.dies.is_empty() {
                    return Err(input("sweep wants typical=1 or at least one die"));
                }
                if self.accuracy.is_some() {
                    return Err(input("acc is an accuracy-only field"));
                }
            }
            RequestKind::Accuracy => {
                if self.typical || !self.dies.is_empty() || self.mc.is_some() {
                    return Err(input("typical/dies/mc are sweep-only fields"));
                }
                let acc = self
                    .accuracy
                    .as_ref()
                    .ok_or_else(|| input("acc is required"))?;
                if self.family != ModelFamily::Vgg16 {
                    return Err(input("accuracy requests support family=vgg16 only"));
                }
                if acc.width_div == 0 || acc.classes < 2 || acc.samples_per_class == 0 {
                    return Err(input("acc wants wdiv>=1, classes>=2, samples>=1"));
                }
                if acc.seeds == 0 {
                    return Err(input("acc wants seeds>=1"));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Single-flight scheduler
// ---------------------------------------------------------------------------

/// Payload fanned out from a completed flight.  Histogram flights carry the
/// bare histogram (the flight key is content-addressed across plans, so the
/// joiner re-wraps it with *its own* cell/pair indices); every other unit is
/// plan-specific and fans out verbatim.
#[derive(Clone)]
enum FlightValue {
    Unit(UnitResult),
    Hist(DepthHistogram),
}

/// How a flight ended, as its joiners see it.
#[derive(Clone)]
enum Outcome {
    Value(FlightValue),
    /// The leader's computation failed.  Errors fan out as strings
    /// ([`PipelineError`] is not `Clone`).
    Failed(String),
    /// The leader's gate wait timed out before it computed: its joiners go
    /// back to the flight map, and one of them leads.
    Abandoned,
}

/// One running computation of a flight key.  Its leader publishes the
/// outcome once; every joiner holds the flight's `Arc` and waits on it
/// alone.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Outcome>>,
    published: Condvar,
}

impl Flight {
    fn publish(&self, outcome: Outcome) {
        *lock_ok(&self.outcome) = Some(outcome);
        self.published.notify_all();
    }

    /// Waits for the leader's outcome until `deadline`.
    fn wait(&self, deadline: Option<Instant>) -> Result<Outcome, PipelineError> {
        let outcome = lock_ok(&self.outcome);
        wait_until(&self.published, outcome, deadline, |outcome| {
            outcome.is_none()
        })
        .clone()
        .ok_or_else(|| timed_out("waiting on an in-flight unit"))
    }
}

struct GateState {
    active: usize,
    interactive_waiting: usize,
}

/// RAII executor-pool slot; releasing wakes both gate queues.
struct GatePermit<'s> {
    sched: &'s UnitScheduler,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut gate = lock_ok(&self.sched.gate);
        gate.active -= 1;
        self.sched.gate_cv.notify_all();
    }
}

fn timed_out(what: &str) -> PipelineError {
    PipelineError::exec(format!("request timed out {what}"))
}

/// Daemon-wide unit scheduler: a bounded executor pool (`slots` concurrent
/// unit computations) with two-level priority admission and single-flight
/// dedup of identical in-flight units.
pub(crate) struct UnitScheduler {
    slots: usize,
    gate: Mutex<GateState>,
    gate_cv: Condvar,
    /// One slot per running flight key; its leader removes the key before
    /// publishing.
    flights: Mutex<HashMap<String, Arc<Flight>>>,
}

impl UnitScheduler {
    pub(crate) fn new(slots: usize) -> UnitScheduler {
        UnitScheduler {
            slots: slots.max(1),
            gate: Mutex::new(GateState {
                active: 0,
                interactive_waiting: 0,
            }),
            gate_cv: Condvar::new(),
            flights: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Claims one executor slot, blocking until admitted or `deadline`.
    /// Bulk acquisition additionally blocks while any interactive unit is
    /// waiting — that is the whole preemption mechanism: at unit
    /// granularity, freed slots go to interactive work first.
    fn acquire(
        &self,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<GatePermit<'_>, PipelineError> {
        let interactive = priority == Priority::Interactive;
        let blocked = |gate: &mut GateState| {
            gate.active >= self.slots || (!interactive && gate.interactive_waiting > 0)
        };
        let mut gate = lock_ok(&self.gate);
        gate.interactive_waiting += usize::from(interactive);
        gate = wait_until(&self.gate_cv, gate, deadline, blocked);
        gate.interactive_waiting -= usize::from(interactive);
        // Deadline first, even when a slot is free: an already-expired
        // request must not claim a slot and begin a computation its client
        // has given up on.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.gate_cv.notify_all();
            return Err(timed_out("waiting for an executor slot"));
        }
        gate.active += 1;
        Ok(GatePermit { sched: self })
    }

    /// Runs one work unit with single-flight dedup: the first request to
    /// need a given flight key computes it (leader); concurrent requests
    /// join its flight and receive a clone of the value, counting an
    /// in-flight hit in their own `inflight_hits`.
    pub(crate) fn run_unit(
        &self,
        plan: &WorkPlan<'_>,
        unit: &WorkUnit,
        priority: Priority,
        deadline: Option<Instant>,
        inflight_hits: &AtomicU64,
    ) -> Result<UnitResult, PipelineError> {
        let key = plan.flight_key(unit);
        loop {
            let (flight, leads) = match lock_ok(&self.flights).entry(key.clone()) {
                Entry::Occupied(running) => (Arc::clone(running.get()), false),
                Entry::Vacant(free) => (Arc::clone(free.insert(Arc::default())), true),
            };
            if leads {
                return self.lead(&key, &flight, plan, unit, priority, deadline);
            }
            match flight.wait(deadline)? {
                Outcome::Value(value) => {
                    inflight_hits.fetch_add(1, Ordering::Relaxed);
                    return adapt_flight_value(value, unit);
                }
                Outcome::Failed(msg) => {
                    return Err(PipelineError::exec(format!(
                        "in-flight leader failed: {msg}"
                    )))
                }
                Outcome::Abandoned => continue,
            }
        }
    }

    /// Leader path: claim a slot, compute, retire the key, publish.
    fn lead(
        &self,
        key: &str,
        flight: &Flight,
        plan: &WorkPlan<'_>,
        unit: &WorkUnit,
        priority: Priority,
        deadline: Option<Instant>,
    ) -> Result<UnitResult, PipelineError> {
        let (result, outcome) = match self.acquire(priority, deadline) {
            Err(e) => (Err(e), Outcome::Abandoned),
            Ok(_permit) => {
                let result = plan.run_unit_spec(unit);
                let outcome = match &result {
                    Ok(unit_result) => Outcome::Value(flight_value_of(unit_result, unit)),
                    Err(e) => Outcome::Failed(e.to_string()),
                };
                (result, outcome)
            }
        };
        // Retire the key before publishing, so a joiner that retries after
        // `Abandoned` never re-finds this spent flight.  `run_unit_spec`
        // has already written the artifact through to the store, so a
        // request arriving from now on leads and is served from there.
        lock_ok(&self.flights).remove(key);
        flight.publish(outcome);
        result
    }

    /// Runs all of a plan's units through the pool in two phases — every
    /// histogram unit first, then the rest.  The barrier guarantees
    /// exactly-once across overlapping plans: when a Monte-Carlo shard or
    /// accuracy point later needs a histogram *internally*, the leader's
    /// synchronous cache/store write-through has already published it.
    pub(crate) fn run_plan_units(
        &self,
        plan: &WorkPlan<'_>,
        priority: Priority,
        deadline: Option<Instant>,
        inflight_hits: &AtomicU64,
    ) -> Result<Vec<UnitResult>, PipelineError> {
        let units = plan.units();
        let mut results: Vec<Option<UnitResult>> = Vec::new();
        results.resize_with(units.len(), || None);
        let hist: Vec<usize> = (0..units.len())
            .filter(|&i| matches!(units[i], WorkUnit::Histogram { .. }))
            .collect();
        let rest: Vec<usize> = (0..units.len())
            .filter(|&i| !matches!(units[i], WorkUnit::Histogram { .. }))
            .collect();
        for phase in [hist, rest] {
            if phase.is_empty() {
                continue;
            }
            let threads = resolve_threads(self.slots.min(phase.len()), phase.len());
            let phase_results = run_indexed_threads(threads, phase.len(), |i| {
                // Check the deadline *between* units, not only inside gate
                // and flight waits: a leader that just finished a large unit
                // must not start the next one after its client's timeout —
                // previously a request's compute was unbounded once
                // admitted.
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(timed_out("between units"));
                    }
                }
                self.run_unit(plan, &units[phase[i]], priority, deadline, inflight_hits)
            })?;
            for (&slot, result) in phase.iter().zip(phase_results) {
                results[slot] = Some(result);
            }
        }
        Ok(results.into_iter().flatten().collect())
    }
}

fn flight_value_of(result: &UnitResult, unit: &WorkUnit) -> FlightValue {
    match (result, unit) {
        (UnitResult::Histogram { hist, .. }, WorkUnit::Histogram { .. }) => {
            FlightValue::Hist(hist.clone())
        }
        _ => FlightValue::Unit(result.clone()),
    }
}

fn adapt_flight_value(value: FlightValue, unit: &WorkUnit) -> Result<UnitResult, PipelineError> {
    match (value, unit) {
        (FlightValue::Hist(hist), WorkUnit::Histogram { cell, pair }) => {
            Ok(UnitResult::Histogram {
                cell: *cell,
                pair: *pair,
                hist,
            })
        }
        (FlightValue::Unit(result), _) => Ok(result),
        (FlightValue::Hist(_), _) => Err(PipelineError::exec(
            "flight key mismatch: histogram payload for a non-histogram unit",
        )),
    }
}

// ---------------------------------------------------------------------------
// Workload memo
// ---------------------------------------------------------------------------

/// Cap on the weight and activation bytes one daemon's [`WorkloadMemo`]
/// retains: about 200 of `serve_fleet`'s two-layer ResNet-18 probe sets
/// (41 KB each), or two eight-layer VGG-16 prefixes.
const WORKLOAD_MEMO_BYTES: usize = 8 << 20;

/// Every request field [`ModelFamily::workloads`] reads: requests with equal
/// keys synthesize byte-identical workload sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WorkloadKey {
    family: ModelFamily,
    layers: usize,
    pixels: usize,
    seed: u64,
}

impl WorkloadKey {
    fn of(request: &ServeRequest) -> WorkloadKey {
        WorkloadKey {
            family: request.family,
            layers: request.layers,
            pixels: request.pixels,
            seed: request.workload_seed,
        }
    }

    fn synthesize(&self) -> Result<Arc<[LayerWorkload]>, PipelineError> {
        let config = WorkloadConfig {
            pixels_per_layer: self.pixels,
            seed: self.seed,
            ..WorkloadConfig::default()
        };
        let workloads = self.family.workloads(&config, self.layers);
        if workloads.is_empty() {
            return Err(PipelineError::Input {
                reason: "request selects zero workloads".to_string(),
            });
        }
        Ok(workloads.into())
    }
}

/// The workload sets of a daemon's interactive requests, so a repeated
/// probe plans against the set an earlier one built instead of
/// synthesizing it again.  It holds at most `cap` weight and activation
/// bytes and evicts the least recently used set first.
struct WorkloadMemo {
    cap: usize,
    state: Mutex<MemoState>,
}

#[derive(Default)]
struct MemoState {
    sets: HashMap<WorkloadKey, MemoEntry>,
    /// Every key by the tick of its last use, least recent first.
    by_use: BTreeMap<u64, WorkloadKey>,
    bytes: usize,
    tick: u64,
}

struct MemoEntry {
    set: Arc<[LayerWorkload]>,
    bytes: usize,
    used: u64,
}

impl WorkloadMemo {
    fn new(cap: usize) -> WorkloadMemo {
        WorkloadMemo {
            cap,
            state: Mutex::default(),
        }
    }

    /// The set retained under `key`, which becomes the most recently used.
    fn get(&self, key: &WorkloadKey) -> Option<Arc<[LayerWorkload]>> {
        let mut guard = lock_ok(&self.state);
        let state = &mut *guard;
        let entry = state.sets.get_mut(key)?;
        state.by_use.remove(&entry.used);
        state.tick += 1;
        entry.used = state.tick;
        state.by_use.insert(entry.used, *key);
        Some(Arc::clone(&entry.set))
    }

    /// Retains `set` under `key` as the most recently used set, evicting
    /// the least recently used ones until the memo fits its cap.  A set
    /// larger than the cap is not retained.
    fn retain(&self, key: WorkloadKey, set: Arc<[LayerWorkload]>) {
        let bytes = set
            .iter()
            .map(|w| w.weights().as_slice().len() + w.activations().as_slice().len())
            .sum();
        if bytes > self.cap {
            return;
        }
        let mut guard = lock_ok(&self.state);
        let state = &mut *guard;
        state.tick += 1;
        let used = state.tick;
        state.by_use.insert(used, key);
        state.bytes += bytes;
        if let Some(old) = state.sets.insert(key, MemoEntry { set, bytes, used }) {
            state.by_use.remove(&old.used);
            state.bytes -= old.bytes;
        }
        while state.bytes > self.cap {
            let Some((_, oldest)) = state.by_use.pop_first() else {
                break;
            };
            if let Some(evicted) = state.sets.remove(&oldest) {
                state.bytes -= evicted.bytes;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

/// Everything a request's plan borrows, owned for the connection's
/// lifetime: [`WorkPlan`] is deliberately non-`'static` (it borrows the
/// pipeline and workloads), so each request builds a fresh pipeline that
/// *shares the daemon's artifact store* — per-request cache counters,
/// daemon-wide reuse.
struct RequestJob {
    request: ServeRequest,
    pipeline: ReadPipeline,
    workloads: Arc<[LayerWorkload]>,
    model: Option<Model>,
    dataset: Option<Dataset>,
}

/// The server-side outcome of one request.
struct JobOutcome {
    kind: RequestKind,
    units: usize,
    priority: Priority,
    report_json: String,
    stats: CacheStats,
}

impl RequestJob {
    /// Builds the job over a workload set synthesized for it alone.
    fn build(
        request: ServeRequest,
        store: Arc<dyn ArtifactStore>,
    ) -> Result<RequestJob, PipelineError> {
        let workloads = WorkloadKey::of(&request).synthesize()?;
        RequestJob::with_workloads(request, store, workloads)
    }

    /// Builds the job over `workloads`, the set `request` selects.
    fn with_workloads(
        request: ServeRequest,
        store: Arc<dyn ArtifactStore>,
        workloads: Arc<[LayerWorkload]>,
    ) -> Result<RequestJob, PipelineError> {
        let mut builder = ReadPipeline::builder().store_arc(store);
        for source in &request.sources {
            builder = builder.source(source.algorithm());
        }
        let conditions: Vec<OperatingCondition> =
            request.corners.iter().map(|c| c.resolve()).collect();
        let mut model = None;
        let mut dataset = None;
        match request.kind {
            RequestKind::Ter => builder = builder.conditions(conditions),
            RequestKind::Sweep => {
                let mut plan = SweepPlan::new().conditions(conditions);
                if request.typical {
                    plan = plan.typical();
                }
                plan = plan.dies(request.dies.iter().copied());
                if let Some(mc) = &request.mc {
                    plan = plan.monte_carlo(mc.trials, mc.seed);
                    if mc.trials_per_shard > 0 {
                        plan = plan.trials_per_shard(mc.trials_per_shard);
                    }
                }
                builder = builder.sweep(plan);
            }
            RequestKind::Accuracy => {
                let acc = request.accuracy.as_ref().ok_or(PipelineError::Missing {
                    what: "accuracy spec",
                })?;
                let mut m = models::vgg16_cifar_scaled(acc.width_div, acc.classes, acc.model_seed)?;
                let d = SyntheticDatasetBuilder::new(acc.classes, [3, 32, 32])
                    .samples_per_class(acc.samples_per_class)
                    .noise(acc.noise)
                    .seed(acc.data_seed)
                    .build()?;
                if acc.fit {
                    fit_classifier_head(&mut m, &d)?;
                }
                model = Some(m);
                dataset = Some(d);
                builder = builder.conditions(conditions);
            }
        }
        Ok(RequestJob {
            request,
            pipeline: builder.build()?,
            workloads,
            model,
            dataset,
        })
    }

    /// Expands this request's [`WorkPlan`] (borrowing the job's pipeline
    /// and workloads).  Also the worker-side entry point: a `read-worker`
    /// rebuilds the same plan from the same spec line, so unit encodings
    /// match the driver's byte-for-byte.
    pub(crate) fn plan(&self) -> Result<WorkPlan<'_>, PipelineError> {
        let request = &self.request;
        match request.kind {
            RequestKind::Ter => self.pipeline.plan_ter(&request.network, &self.workloads),
            RequestKind::Sweep => self.pipeline.plan_sweep(&request.network, &self.workloads),
            RequestKind::Accuracy => {
                let model = self
                    .model
                    .as_ref()
                    .ok_or(PipelineError::Missing { what: "model" })?;
                let dataset = self
                    .dataset
                    .as_ref()
                    .ok_or(PipelineError::Missing { what: "dataset" })?;
                let seeds = self.request.accuracy.as_ref().map_or(1, |a| a.seeds);
                self.pipeline.plan_accuracy_for(
                    model,
                    &request.network,
                    dataset,
                    &self.workloads,
                    seeds,
                )
            }
        }
    }

    /// Expands the plan, schedules its units through the daemon pool (or a
    /// worker fleet, for bulk requests when one is configured) and
    /// aggregates the report, returning per-request cache statistics.
    fn run(&self, daemon: &ServeDaemon) -> Result<JobOutcome, PipelineError> {
        let store_before = daemon.store.stats();
        let request = &self.request;
        let plan = self.plan()?;
        let units = plan.len();
        let priority = request
            .priority
            .unwrap_or(if units <= INTERACTIVE_MAX_UNITS {
                Priority::Interactive
            } else {
                Priority::Bulk
            });
        // `0` = server default, `NO_TIMEOUT` = explicitly unbounded (which
        // also overrides a server default), anything else = explicit bound.
        let timeout_ms = match request.timeout_ms {
            0 => daemon.default_timeout_ms,
            ms => ms,
        };
        let deadline = (timeout_ms > 0 && timeout_ms != NO_TIMEOUT)
            .then(|| Instant::now() + Duration::from_millis(timeout_ms));
        let inflight = AtomicU64::new(0);
        let results = if !daemon.fleet.is_empty() && priority == Priority::Bulk {
            // Bulk work ships to the worker fleet (interactive requests stay
            // local: connection + handshake latency would dominate them).
            // A fleet-level failure falls back to the local pool so a dead
            // fleet degrades to PR-6 behavior instead of failing requests.
            let executor = SocketExecutor::new(request.encode(), daemon.fleet.iter().cloned());
            match executor.execute_with_deadline(&plan, 0..plan.len(), deadline) {
                Ok(results) => results,
                Err(_) => daemon
                    .sched
                    .run_plan_units(&plan, priority, deadline, &inflight)?,
            }
        } else {
            daemon
                .sched
                .run_plan_units(&plan, priority, deadline, &inflight)?
        };
        let output = plan.aggregate(results)?;
        let report_json = match request.kind {
            RequestKind::Ter => output.into_ter()?.to_json(),
            RequestKind::Sweep => output.into_sweep()?.to_json(),
            RequestKind::Accuracy => output.into_accuracy()?.to_json(),
        };
        // Per-request view: the pipeline (and its caches) are request-local,
        // but the store is daemon-wide — report its activity as a delta over
        // the request (approximate under concurrency, exact when serial).
        let mut stats = self.pipeline.cache_stats();
        let store_after = daemon.store.stats();
        stats.disk_hits = store_after.hits.saturating_sub(store_before.hits);
        stats.disk_misses = store_after.misses.saturating_sub(store_before.misses);
        stats.corrupt_entries = store_after.corrupt.saturating_sub(store_before.corrupt);
        stats.store_writes = store_after.writes.saturating_sub(store_before.writes);
        stats.inflight_hits = inflight.load(Ordering::Relaxed);
        Ok(JobOutcome {
            kind: request.kind,
            units,
            priority,
            report_json,
            stats,
        })
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// `priority=auto` requests with at most this many units run as
/// interactive.
const INTERACTIVE_MAX_UNITS: usize = 8;

/// Daemon configuration for [`ServeServer::bind`].
#[derive(Default)]
pub struct ServerConfig {
    /// Executor-pool width (concurrent unit computations daemon-wide);
    /// 0 = available parallelism.
    pub slots: usize,
    /// Shared artifact store; `None` = a fresh in-memory store.
    pub store: Option<Arc<dyn ArtifactStore>>,
    /// Default per-request timeout in milliseconds (0 = none; a request can
    /// opt out of a non-zero default with [`NO_TIMEOUT`]).
    pub default_timeout_ms: u64,
    /// Worker-fleet addresses (`host:port` of `read-worker` processes).
    /// When non-empty, bulk requests route their whole plan through a
    /// [`SocketExecutor`] over these workers instead of the local pool,
    /// falling back locally if the fleet fails.
    pub fleet: Vec<String>,
}

/// The serve protocol's state: the daemon-wide scheduler, store and
/// workload memo.
struct ServeDaemon {
    sched: UnitScheduler,
    store: Arc<dyn ArtifactStore>,
    workloads: WorkloadMemo,
    default_timeout_ms: u64,
    fleet: Vec<String>,
    next_id: AtomicU64,
}

/// The sweep-as-a-service daemon: accepts line-delimited requests over TCP
/// and serves them from one shared store with single-flight unit dedup.
///
/// One connection handler thread per client; every request's units flow
/// through the daemon-wide `UnitScheduler`.  `shutdown` (the in-band
/// control command) stops the daemon: connections waiting for their next
/// line are closed at once, and a request already being computed finishes
/// and is answered before [`ServeServer::run`] returns.
pub struct ServeServer(LineServer<ServeDaemon>);

impl ServeServer {
    /// Binds the daemon to `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// test port).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the socket cannot be bound.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<ServeServer, PipelineError> {
        let slots = resolve_threads(config.slots, usize::MAX);
        let store = config
            .store
            .unwrap_or_else(|| Arc::new(MemoryStore::new()) as Arc<dyn ArtifactStore>);
        let daemon = ServeDaemon {
            sched: UnitScheduler::new(slots),
            store,
            workloads: WorkloadMemo::new(WORKLOAD_MEMO_BYTES),
            default_timeout_ms: config.default_timeout_ms,
            fleet: config.fleet,
            next_id: AtomicU64::new(1),
        };
        LineServer::bind(addr, daemon).map(ServeServer)
    }

    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Executor-pool width the daemon resolved from its configuration.
    pub fn slots(&self) -> usize {
        self.0.handler().sched.slots()
    }

    /// Serves connections until a `shutdown` command arrives, then stops
    /// as described on [`ServeServer`] and returns once every connection
    /// has closed.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on a fatal accept error.
    pub fn run(self) -> Result<(), PipelineError> {
        self.0.run()
    }

    /// Binds and runs the daemon on a background thread — the in-process
    /// form used by tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeServer::bind`] failures.
    pub fn spawn(addr: &str, config: ServerConfig) -> Result<ServeHandle, PipelineError> {
        let server = ServeServer::bind(addr, config)?;
        Ok(ServeHandle(Daemon::spawn(server.local_addr(), move || {
            server.run()
        })))
    }
}

/// Handle to a daemon spawned with [`ServeServer::spawn`].
pub struct ServeHandle(Daemon);

impl ServeHandle {
    /// The daemon's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// A client connected to this daemon.
    pub fn client(&self) -> ServeClient {
        ServeClient::new(self.0.addr)
    }

    /// Waits for the daemon to exit (send `shutdown` first, or this blocks
    /// until the server thread ends).
    ///
    /// # Errors
    ///
    /// Propagates the server's exit result; a panicked server thread
    /// surfaces as [`PipelineError::Exec`].
    pub fn join(self) -> Result<(), PipelineError> {
        self.0.join()
    }
}

impl Handler for ServeDaemon {
    fn serve(&self, conn: &mut Conn<'_>) {
        conn.answer_lines(|line, out| self.dispatch(line, out));
    }
}

impl ServeDaemon {
    /// Answers one protocol line.
    fn dispatch(&self, line: &str, writer: &mut impl Write) -> Flow {
        match line.split_whitespace().next() {
            Some("ping") => {
                let _ = writeln!(writer, "ok pong\n.");
            }
            Some("stats") => {
                let stats = store_level_stats(&self.store);
                let _ = writeln!(
                    writer,
                    "ok stats\nstats {}\n.",
                    escape_wire(&stats.to_json())
                );
            }
            Some("shutdown") => {
                let _ = writeln!(writer, "ok shutdown\n.");
                return Flow::Stop;
            }
            Some("req") => {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let outcome = ServeRequest::decode(line).and_then(|request| self.answer(request));
                match outcome {
                    Ok(outcome) => {
                        let latency_us = started.elapsed().as_micros();
                        let _ = writeln!(
                            writer,
                            "ok id={id} kind={} units={} priority={} latency_us={latency_us}",
                            outcome.kind.as_str(),
                            outcome.units,
                            outcome.priority.as_str()
                        );
                        let _ = writeln!(writer, "report {}", escape_wire(&outcome.report_json));
                        let _ =
                            writeln!(writer, "stats {}\n.", escape_wire(&outcome.stats.to_json()));
                    }
                    Err(e) => {
                        let _ =
                            writeln!(writer, "err id={id} msg={}\n.", escape_wire(&e.to_string()));
                    }
                }
            }
            _ => {
                let _ = writeln!(writer, "err id=0 msg={}\n.", escape_wire("unknown command"));
            }
        }
        Flow::Continue
    }

    /// Runs one request over the memo's workload set for its key, or over
    /// one synthesized for it, which the memo retains when the request ran
    /// at interactive priority.
    fn answer(&self, request: ServeRequest) -> Result<JobOutcome, PipelineError> {
        let key = WorkloadKey::of(&request);
        let (workloads, memoized) = match self.workloads.get(&key) {
            Some(set) => (set, true),
            None => (key.synthesize()?, false),
        };
        let job =
            RequestJob::with_workloads(request, Arc::clone(&self.store), Arc::clone(&workloads))?;
        let outcome = job.run(self)?;
        if !memoized && outcome.priority == Priority::Interactive {
            self.workloads.retain(key, workloads);
        }
        Ok(outcome)
    }
}

/// Daemon-level stats: only the shared store is daemon-wide (pipeline
/// caches are per-request), so the `stats` command reports store counters
/// in the standard [`CacheStats`] shape.
fn store_level_stats(store: &Arc<dyn ArtifactStore>) -> CacheStats {
    let s = store.stats();
    CacheStats {
        disk_hits: s.hits,
        disk_misses: s.misses,
        corrupt_entries: s.corrupt,
        store_writes: s.writes,
        ..CacheStats::default()
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// One served response: report JSON plus the request's cache statistics.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// Server-assigned request id.
    pub id: u64,
    /// Experiment kind the server ran.
    pub kind: RequestKind,
    /// Number of work units the request expanded into.
    pub units: usize,
    /// Admission class the request actually ran at.
    pub priority: Priority,
    /// Server-side latency (decode → report).
    pub latency: Duration,
    /// The report's canonical JSON (byte-identical to an in-process run).
    pub report_json: String,
    /// Per-request cache statistics, including `inflight_hits`.
    pub stats: CacheStats,
}

/// Blocking client for a [`ServeServer`]: one TCP connection per call.
#[derive(Debug, Clone)]
pub struct ServeClient {
    addr: SocketAddr,
}

impl ServeClient {
    /// A client for the daemon at `addr`.
    pub fn new(addr: SocketAddr) -> ServeClient {
        ServeClient { addr }
    }

    /// Resolves `addr` (e.g. `127.0.0.1:7341`) and returns a client.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on an unparsable address.
    pub fn connect(addr: &str) -> Result<ServeClient, PipelineError> {
        let addr: SocketAddr = addr.parse().map_err(|_| PipelineError::Input {
            reason: format!("bad server address {addr:?}"),
        })?;
        Ok(ServeClient { addr })
    }

    fn round_trip(&self, line: &str) -> Result<Vec<String>, PipelineError> {
        let stream =
            wire::connect(self.addr, Duration::from_secs(600)).map_err(|e| io_err("connect", e))?;
        writeln!(&stream, "{line}").map_err(|e| io_err("send", e))?;
        let reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for read in reader.lines() {
            let read = read.map_err(|e| io_err("receive", e))?;
            if read == "." {
                return Ok(lines);
            }
            lines.push(read);
        }
        Err(PipelineError::exec("connection closed before terminator"))
    }

    fn expect_ok<'l>(lines: &'l [String], what: &str) -> Result<&'l str, PipelineError> {
        let first = lines
            .first()
            .ok_or_else(|| PipelineError::exec(format!("{what}: empty response")))?;
        if let Some(rest) = first.strip_prefix("ok") {
            return Ok(rest.trim_start());
        }
        if let Some(rest) = first.strip_prefix("err ") {
            let msg = rest
                .split_whitespace()
                .find_map(|t| t.strip_prefix("msg="))
                .map(|m| unescape(m, rest).unwrap_or_else(|_| m.to_string()))
                .unwrap_or_else(|| rest.to_string());
            return Err(PipelineError::exec(format!("server error: {msg}")));
        }
        Err(PipelineError::exec(format!(
            "{what}: unexpected response line {first:?}"
        )))
    }

    /// Liveness check (`ping` → `ok pong`).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure or an
    /// unexpected response.
    pub fn ping(&self) -> Result<(), PipelineError> {
        let lines = self.round_trip("ping")?;
        let rest = Self::expect_ok(&lines, "ping")?;
        if rest == "pong" {
            Ok(())
        } else {
            Err(PipelineError::exec(format!("ping: unexpected {rest:?}")))
        }
    }

    /// Daemon-level store statistics ([`CacheStats`] with only the store
    /// fields populated).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport or protocol failure.
    pub fn stats(&self) -> Result<CacheStats, PipelineError> {
        let lines = self.round_trip("stats")?;
        Self::expect_ok(&lines, "stats")?;
        Self::tagged_stats(&lines)
    }

    /// Asks the daemon to stop (see [`ServeServer`] for what stopping
    /// waits for).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure.
    pub fn shutdown(&self) -> Result<(), PipelineError> {
        let lines = self.round_trip("shutdown")?;
        Self::expect_ok(&lines, "shutdown").map(|_| ())
    }

    /// Sends one request and blocks until its report arrives.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Input`] on a request the server rejects
    /// and [`PipelineError::Exec`] on transport/serve failures (including
    /// per-request timeouts).
    pub fn request(&self, request: &ServeRequest) -> Result<ServeReply, PipelineError> {
        request.validate()?;
        let lines = self.round_trip(&request.encode())?;
        let header = Self::expect_ok(&lines, "request")?;
        let mut fields = Fields::new(header, bad_request);
        let id = fields.parse("id")?;
        let kind = RequestKind::parse(fields.field("kind")?, header)?;
        let units = fields.parse("units")?;
        let priority = Priority::parse(fields.field("priority")?, header)?
            .ok_or_else(|| PipelineError::exec("response is missing priority"))?;
        let latency_us = fields.parse("latency_us")?;
        Ok(ServeReply {
            id,
            kind,
            units,
            priority,
            latency: Duration::from_micros(latency_us),
            report_json: Self::tagged(&lines, "report")?,
            stats: Self::tagged_stats(&lines)?,
        })
    }

    /// The unescaped payload of the response line `<tag> <payload>`.
    fn tagged(lines: &[String], tag: &str) -> Result<String, PipelineError> {
        let payload = lines
            .iter()
            .find_map(|l| l.strip_prefix(tag)?.strip_prefix(' '))
            .ok_or_else(|| PipelineError::exec(format!("response is missing the {tag} line")))?;
        unescape(payload, payload)
    }

    fn tagged_stats(lines: &[String]) -> Result<CacheStats, PipelineError> {
        CacheStats::from_json(&Self::tagged(lines, "stats")?).map_err(PipelineError::exec)
    }
}

// ---------------------------------------------------------------------------
// Worker server (fleet side)
// ---------------------------------------------------------------------------

/// Configuration for a [`WorkerServer`].
#[derive(Default)]
pub struct WorkerConfig {
    /// Shared artifact store (typically a
    /// [`crate::store::RemoteStore`] so the whole fleet shares one warm
    /// namespace); `None` = a fresh in-memory store.
    pub store: Option<Arc<dyn ArtifactStore>>,
    /// Fault injection for tests and smoke runs: after serving this many
    /// units the worker drops its connection mid-stream (no reply) and
    /// [`WorkerServer::run`] returns an error, as a crashed worker process
    /// would.
    pub die_after_units: Option<u64>,
}

/// The worker protocol's state, shared by every driver connection.
struct WorkerDaemon {
    store: Arc<dyn ArtifactStore>,
    die_after_units: Option<u64>,
    served: AtomicU64,
    died: AtomicBool,
}

/// The fleet worker daemon: the remote analog of handing
/// [`WorkPlan::serve`] a pipe pair.  Each driver session opens with the
/// `window=<n>` handshake, answered by the same reply [`WorkPlan::serve`]
/// gives, then a `req v1` pipeline spec line; the worker rebuilds the same
/// [`WorkPlan`] the driver holds (same spec → same unit encodings) and
/// answers unit lines with unit-result lines until EOF.
///
/// Per-connection wire session (driver side documented on
/// [`SocketExecutor`]):
///
/// ```text
/// ← window=<n>              (the driver's first line)
/// → ok window=<m>           (m = n clamped to [1, 1024])
/// ← <req v1 spec line>      (or: ping / shutdown)
/// → ok units=<n>            (or "!<reason>" = spec rejected)
/// ← <unit line>             (drivers may stream several ahead)
/// → <unit-result line>      (or "!<reason>" = unit failed)
/// ```
///
/// Units are answered strictly in request order, one reply per unit line,
/// so a pipelining driver can attribute in-band `!` failures to its oldest
/// outstanding unit.
///
/// On `shutdown` the worker stops: idle connections close at once, and an
/// open driver session ends at its next unit boundary — the driver sees
/// EOF and requeues its in-flight window on the surviving workers.
pub struct WorkerServer(LineServer<WorkerDaemon>);

impl WorkerServer {
    /// Binds a worker to `addr` (e.g. `127.0.0.1:0` for an ephemeral test
    /// port).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the socket cannot be bound.
    pub fn bind(addr: &str, config: WorkerConfig) -> Result<WorkerServer, PipelineError> {
        let store = config
            .store
            .unwrap_or_else(|| Arc::new(MemoryStore::new()) as Arc<dyn ArtifactStore>);
        let daemon = WorkerDaemon {
            store,
            die_after_units: config.die_after_units,
            served: AtomicU64::new(0),
            died: AtomicBool::new(false),
        };
        LineServer::bind(addr, daemon).map(WorkerServer)
    }

    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Serves driver connections until `shutdown` arrives — or until the
    /// injected death triggers, which also stops the worker — and returns
    /// once every connection has closed.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on a fatal accept error, and — by
    /// design — after an injected [`WorkerConfig::die_after_units`] death,
    /// so a worker *binary* exits non-zero exactly like a crashed process.
    pub fn run(self) -> Result<(), PipelineError> {
        self.0.run()?;
        let worker = self.0.handler();
        if worker.died.load(Ordering::SeqCst) {
            return Err(PipelineError::exec(format!(
                "worker died (injected) after {} served units",
                worker.served.load(Ordering::Relaxed)
            )));
        }
        Ok(())
    }

    /// Binds and runs the worker on a background thread — the in-process
    /// form used by tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkerServer::bind`] failures.
    pub fn spawn(addr: &str, config: WorkerConfig) -> Result<WorkerHandle, PipelineError> {
        let server = WorkerServer::bind(addr, config)?;
        Ok(WorkerHandle(Daemon::spawn(
            server.local_addr(),
            move || server.run(),
        )))
    }

    /// Asks the worker at `addr` to stop (see [`WorkerServer`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure or an
    /// unexpected response.
    pub fn shutdown_at(addr: &str) -> Result<(), PipelineError> {
        let stream =
            wire::connect(addr, Duration::from_secs(30)).map_err(|e| io_err("connect", e))?;
        let mut reader = BufReader::new(stream);
        writeln!(reader.get_ref(), "shutdown").map_err(|e| io_err("send", e))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| io_err("receive", e))?;
        if line.trim() == "ok shutdown" {
            Ok(())
        } else {
            Err(PipelineError::exec(format!(
                "worker shutdown: unexpected response {:?}",
                line.trim()
            )))
        }
    }
}

/// Handle to a worker spawned with [`WorkerServer::spawn`].
pub struct WorkerHandle(Daemon);

impl WorkerHandle {
    /// The worker's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// Waits for the worker to exit and returns its run result (an `Err`
    /// for an injected death — the in-process analog of a non-zero exit).
    ///
    /// # Errors
    ///
    /// Propagates the worker's exit result; a panicked worker thread
    /// surfaces as [`PipelineError::Exec`].
    pub fn join(self) -> Result<(), PipelineError> {
        self.0.join()
    }
}

impl Handler for WorkerDaemon {
    fn serve(&self, conn: &mut Conn<'_>) {
        // Control / handshake phase: answer pings until a spec line arrives.
        let job = loop {
            let Some(line) = conn.next_line() else {
                return;
            };
            if line == "ping" {
                let _ = writeln!(conn.out, "ok pong");
                continue;
            }
            if line == "shutdown" {
                let _ = writeln!(conn.out, "ok shutdown");
                return conn.stop();
            }
            if let Some(reply) = window_reply(&line) {
                let _ = writeln!(conn.out, "{reply}");
                if reply.starts_with('!') {
                    return;
                }
                continue;
            }
            let spec = ServeRequest::decode(&line)
                .and_then(|request| RequestJob::build(request, Arc::clone(&self.store)));
            match spec {
                Ok(job) => break job,
                Err(e) => {
                    let _ = writeln!(conn.out, "!{e}");
                    return;
                }
            }
        };
        let plan = match job.plan() {
            Ok(plan) => plan,
            Err(e) => {
                let _ = writeln!(conn.out, "!{e}");
                return;
            }
        };
        // Batched store warm-up: seed the plan's unit-result cache with one
        // mget round trip (per batch) instead of a per-unit get during the
        // stream — the O(batches) warm-rerun path.
        plan.prefetch_units();
        let _ = writeln!(conn.out, "ok units={}", plan.len());
        conn.answer_lines(|line, out| self.unit(&plan, line, out));
        // Session over (or died): publish this connection's buffered
        // write-behind puts so other fleet members (and warm reruns) see
        // them.
        self.store.flush();
    }
}

impl WorkerDaemon {
    /// The unit phase of a session: essentially [`WorkPlan::serve`] over
    /// the socket, with the optional injected death for fault testing.
    fn unit(&self, plan: &WorkPlan<'_>, line: &str, out: &mut impl Write) -> Flow {
        if let Some(limit) = self.die_after_units {
            if self.served.load(Ordering::Relaxed) >= limit
                && !self.died.swap(true, Ordering::SeqCst)
            {
                // Injected mid-stream death: drop the connection without
                // answering the outstanding unit, and stop the whole worker
                // (run() will report the death) — exactly what a crashed
                // process looks like to the driver.
                return Flow::Stop;
            }
        }
        let _ = writeln!(out, "{}", plan.answer(line));
        self.served.fetch_add(1, Ordering::Relaxed);
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Executor as _, SerialExecutor};
    use std::net::TcpStream;
    use std::sync::mpsc;

    // ---- protocol ---------------------------------------------------------

    #[test]
    fn request_encode_decode_round_trips() {
        let mut sweep = ServeRequest::sweep("vgg16 demo");
        sweep.dies = vec![3, 4];
        sweep.mc = Some(McSpec {
            trials: 48,
            seed: 7,
            trials_per_shard: 12,
        });
        sweep.corners = vec![
            CornerSpec::ideal(),
            CornerSpec {
                aging_years: 0.0,
                vt_fluctuation: 0.05,
            },
            CornerSpec {
                aging_years: 10.0,
                vt_fluctuation: 0.0,
            },
            CornerSpec::aging_vt(10.0, 0.05),
        ];
        sweep.priority = Some(Priority::Bulk);
        sweep.timeout_ms = 2500;
        let mut acc = ServeRequest::accuracy("acc run");
        acc.accuracy = Some(AccuracySpec {
            fit: true,
            ..AccuracySpec::default()
        });
        for request in [ServeRequest::ter("plain ter"), sweep, acc] {
            let line = request.encode();
            let decoded = ServeRequest::decode(&line).expect(&line);
            assert_eq!(decoded, request, "round trip of {line}");
        }
    }

    #[test]
    fn request_decode_rejects_malformed_lines() {
        for line in [
            "nope",
            "req v2 kind=ter",
            "req v1",
            "req v1 kind=warp sources=baseline corners=ideal",
            "req v1 kind=ter sources=baseline corners=ideal bogus=1",
            "req v1 kind=ter sources=baseline corners=warp:1",
            "req v1 kind=ter sources= corners=ideal",
            "req v1 kind=ter sources=baseline corners=ideal layers=x",
            "req v1 kind=sweep sources=baseline corners=ideal",
            "req v1 kind=acc sources=baseline corners=ideal",
            "req v1 kind=ter sources=baseline corners=ideal mc=1:2:3",
        ] {
            assert!(
                ServeRequest::decode(line).is_err(),
                "should reject {line:?}"
            );
        }
    }

    /// Each size bound admits a value at the bound and rejects one above
    /// it with an `Input` error naming the field.
    #[test]
    fn request_sizes_are_bounded() {
        let ter = "req v1 kind=ter sources=baseline corners=ideal";
        let sweep = "req v1 kind=sweep sources=baseline corners=ideal typical=1";
        let acc = "req v1 kind=acc sources=baseline corners=ideal";
        let corners = |n: usize| vec!["ideal"; n].join(",");
        let dies = |n: u64| (0..n).map(|d| d.to_string()).collect::<Vec<_>>().join(",");
        let cases = [
            (
                "pixels",
                format!("{ter} pixels=1024"),
                format!("{ter} pixels=1025"),
            ),
            (
                "corners",
                format!("req v1 kind=ter sources=baseline corners={}", corners(64)),
                format!("req v1 kind=ter sources=baseline corners={}", corners(65)),
            ),
            (
                "dies",
                format!("{sweep} dies={}", dies(64)),
                format!("{sweep} dies={}", dies(65)),
            ),
            (
                "mc trials",
                format!("{sweep} mc=4096:1:0"),
                format!("{sweep} mc=4097:1:0"),
            ),
            (
                "acc classes x samples",
                format!("{acc} acc=16:4:9:256:24:5:2:0"),
                format!("{acc} acc=16:4:9:257:24:5:2:0"),
            ),
            (
                "acc seeds",
                format!("{acc} acc=16:4:9:2:24:5:64:0"),
                format!("{acc} acc=16:4:9:2:24:5:65:0"),
            ),
        ];
        for (field, at, above) in cases {
            ServeRequest::decode(&at).unwrap_or_else(|e| panic!("{field} at its bound: {e}"));
            match ServeRequest::decode(&above) {
                Err(PipelineError::Input { reason }) => {
                    assert!(reason.contains(&format!("{field} must be <=")), "{reason}")
                }
                other => panic!("{field} above its bound: {other:?}"),
            }
        }
    }

    #[test]
    fn corner_spec_resolves_to_paper_conditions() {
        assert_eq!(CornerSpec::ideal().resolve().name, "Ideal");
        assert_eq!(
            CornerSpec::aging_vt(10.0, 0.05).resolve().name,
            OperatingCondition::aging_vt(10.0, 0.05).name
        );
        let vt = CornerSpec::decode("vt:0.03", "t").unwrap();
        assert_eq!(vt.resolve().name, OperatingCondition::vt(0.03).name);
    }

    // ---- gate -------------------------------------------------------------

    #[test]
    fn interactive_acquisition_preempts_queued_bulk() {
        let sched = Arc::new(UnitScheduler::new(1));
        let holder = sched.acquire(Priority::Bulk, None).unwrap();
        let (tx, rx) = mpsc::channel::<&'static str>();

        let bulk = {
            let sched = Arc::clone(&sched);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let permit = sched.acquire(Priority::Bulk, None).unwrap();
                tx.send("bulk").unwrap();
                drop(permit);
            })
        };
        // Give the bulk waiter time to park, then queue an interactive one.
        std::thread::sleep(Duration::from_millis(50));
        let interactive = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                let permit = sched.acquire(Priority::Interactive, None).unwrap();
                tx.send("interactive").unwrap();
                drop(permit);
            })
        };
        // Release the slot only once the interactive request is queued at
        // the gate; otherwise the bulk waiter could take it first.
        let give_up = Instant::now() + Duration::from_secs(10);
        while lock_ok(&sched.gate).interactive_waiting != 1 {
            assert!(
                Instant::now() < give_up,
                "the interactive request never queued"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(holder);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "interactive"
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), "bulk");
        interactive.join().unwrap();
        bulk.join().unwrap();
    }

    #[test]
    fn gate_acquisition_times_out_when_slots_are_held() {
        let sched = UnitScheduler::new(1);
        let _holder = sched.acquire(Priority::Bulk, None).unwrap();
        let deadline = Some(Instant::now() + Duration::from_millis(30));
        let Err(err) = sched.acquire(Priority::Interactive, deadline) else {
            panic!("acquire should time out while the only slot is held");
        };
        assert!(err.to_string().contains("timed out"), "{err}");
        // The timed-out interactive waiter must not leave the gate counting
        // it, or bulk work would starve forever.
        assert_eq!(lock_ok(&sched.gate).interactive_waiting, 0);
    }

    // ---- single-flight ----------------------------------------------------

    fn tiny_plan_fixture() -> (ReadPipeline, Vec<LayerWorkload>) {
        let pipeline = ReadPipeline::builder()
            .source(Algorithm::Baseline)
            .condition(OperatingCondition::ideal())
            .build()
            .unwrap();
        let config = WorkloadConfig {
            pixels_per_layer: 1,
            ..WorkloadConfig::default()
        };
        let workloads = vgg16_workloads_prefix(&config, 1);
        (pipeline, workloads)
    }

    /// Waits until `key`'s flight in `sched` is held by `holders` `Arc`s
    /// (the map's own included).
    fn wait_for_holders(sched: &UnitScheduler, key: &str, holders: usize) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while lock_ok(&sched.flights).get(key).map(Arc::strong_count) != Some(holders) {
            assert!(
                Instant::now() < give_up,
                "flight never reached {holders} holders"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn joining_a_published_flight_counts_an_inflight_hit() {
        let (pipeline, workloads) = tiny_plan_fixture();
        let plan = pipeline.plan_ter("vgg16", &workloads).unwrap();
        let unit = plan.units()[0].clone();
        let sched = UnitScheduler::new(1);
        let key = plan.flight_key(&unit);

        // Act as the leader by hand: open the flight, wait until a real
        // request has joined it, then retire the key and publish a sentinel
        // histogram.  The joiner must re-wrap it with its own indices and
        // count an in-flight hit instead of computing.
        let flight = Arc::new(Flight::default());
        lock_ok(&sched.flights).insert(key.clone(), Arc::clone(&flight));
        let sentinel = DepthHistogram::new();
        let (result, joined_hits) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let inflight = AtomicU64::new(0);
                let result = sched.run_unit(&plan, &unit, Priority::Interactive, None, &inflight);
                (result, inflight.load(Ordering::Relaxed))
            });
            // The map, this thread and the joiner.
            wait_for_holders(&sched, &key, 3);
            lock_ok(&sched.flights).remove(&key);
            flight.publish(Outcome::Value(FlightValue::Hist(sentinel.clone())));
            handle.join().unwrap()
        });
        let WorkUnit::Histogram { cell, pair } = unit else {
            panic!("expected a histogram unit");
        };
        assert_eq!(
            result.unwrap(),
            UnitResult::Histogram {
                cell,
                pair,
                hist: sentinel
            }
        );
        assert_eq!(joined_hits, 1);
        assert!(lock_ok(&sched.flights).is_empty());
    }

    #[test]
    fn a_joiner_of_an_abandoned_flight_leads_it_again() {
        let (pipeline, workloads) = tiny_plan_fixture();
        let plan = pipeline.plan_ter("vgg16", &workloads).unwrap();
        let unit = plan.units()[0].clone();
        let expected = plan.run_unit_spec(&unit).unwrap();
        let sched = UnitScheduler::new(1);
        let key = plan.flight_key(&unit);

        // The only slot is held, so the leader's gate wait can only end at
        // its deadline.  Holding the gate's lock keeps the leader from
        // reaching that wait, and so from abandoning, until the joiner has
        // joined its flight.
        let holder = sched.acquire(Priority::Bulk, None).unwrap();
        let gate = lock_ok(&sched.gate);
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        let (led, joined, joined_hits) = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                let inflight = AtomicU64::new(0);
                sched.run_unit(&plan, &unit, Priority::Interactive, deadline, &inflight)
            });
            // The map and the leader.
            wait_for_holders(&sched, &key, 2);
            let joiner = scope.spawn(|| {
                let inflight = AtomicU64::new(0);
                let result = sched.run_unit(&plan, &unit, Priority::Interactive, None, &inflight);
                (result, inflight.load(Ordering::Relaxed))
            });
            // The map, the leader and the joiner.
            wait_for_holders(&sched, &key, 3);
            drop(gate);
            let led = leader.join().unwrap();
            // The joiner retried and now leads, waiting for the slot.
            drop(holder);
            let (joined, joined_hits) = joiner.join().unwrap();
            (led, joined, joined_hits)
        });
        let err = led.unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
        assert_eq!(joined.unwrap(), expected);
        assert_eq!(joined_hits, 0, "the retry computed, it joined nothing");
        assert!(lock_ok(&sched.flights).is_empty());
    }

    #[test]
    fn run_plan_units_matches_direct_execution() {
        let (pipeline, workloads) = tiny_plan_fixture();
        let plan = pipeline.plan_ter("vgg16", &workloads).unwrap();
        let sched = UnitScheduler::new(2);
        let inflight = AtomicU64::new(0);
        let results = sched
            .run_plan_units(&plan, Priority::Interactive, None, &inflight)
            .unwrap();
        assert_eq!(results.len(), plan.len());
        let report = plan.aggregate(results).unwrap().into_ter().unwrap();
        let direct = pipeline.run_ter("vgg16", &workloads).unwrap();
        assert_eq!(report.to_json(), direct.to_json());
        assert_eq!(inflight.load(Ordering::Relaxed), 0);
    }

    // ---- end-to-end -------------------------------------------------------

    #[test]
    fn daemon_serves_ping_request_and_shuts_down() {
        let handle = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = handle.client();
        client.ping().unwrap();

        let mut request = ServeRequest::ter("serve-e2e");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        let reply = client.request(&request).unwrap();
        assert_eq!(reply.kind, RequestKind::Ter);
        assert_eq!(reply.priority, Priority::Interactive);
        assert_eq!(reply.units, 1);
        assert!(
            reply.report_json.contains("serve-e2e"),
            "{}",
            reply.report_json
        );
        assert_eq!(reply.stats.hist_misses, 1);
        assert_eq!(reply.stats.inflight_hits, 0);

        // A repeat of the same request is served from the daemon store:
        // zero fresh histogram computations.
        let warm = client.request(&request).unwrap();
        assert_eq!(warm.report_json, reply.report_json);
        assert_eq!(warm.stats.hist_misses, 0);
        assert!(warm.stats.disk_hits > 0);

        let daemon_stats = client.stats().unwrap();
        assert!(daemon_stats.store_writes > 0);

        let bad = client.request(&ServeRequest {
            sources: Vec::new(),
            ..ServeRequest::ter("bad")
        });
        assert!(bad.is_err());

        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    // ---- workload memo ----------------------------------------------------

    /// The report a serial in-process pipeline gives for the TER `request`.
    fn serial_ter_report(request: &ServeRequest) -> String {
        let config = WorkloadConfig {
            pixels_per_layer: request.pixels,
            seed: request.workload_seed,
            ..WorkloadConfig::default()
        };
        let workloads = request.family.workloads(&config, request.layers);
        let mut builder = ReadPipeline::builder().executor(SerialExecutor);
        for source in &request.sources {
            builder = builder.source(source.algorithm());
        }
        builder
            .conditions(request.corners.iter().map(CornerSpec::resolve))
            .build()
            .unwrap()
            .run_ter(&request.network, &workloads)
            .unwrap()
            .to_json()
    }

    /// Sends `request` through the daemon's line dispatch on this thread
    /// and returns the reply's header line and report JSON.
    fn dispatch_request(daemon: &ServeDaemon, request: &ServeRequest) -> (String, String) {
        let mut out = Vec::new();
        daemon.dispatch(&request.encode(), &mut out);
        let reply = String::from_utf8(out).unwrap();
        let mut lines = reply.lines();
        let header = lines.next().unwrap_or_default().to_string();
        let report = lines
            .next()
            .and_then(|line| line.strip_prefix("report "))
            .unwrap_or_else(|| panic!("no report in {reply:?}"));
        (header, unescape(report, &reply).unwrap())
    }

    #[test]
    fn a_repeated_interactive_probe_is_synthesized_once() {
        let server = ServeServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let daemon = server.0.handler();
        let request = ServeRequest::ter("memo-repeat");
        let reference = serial_ter_report(&request);
        // Synthesis hashes each layer once, as it builds it.
        let hashes = || crate::workload::WORKLOAD_HASHES.with(std::cell::Cell::get);
        let before = hashes();
        for _ in 0..3 {
            let (header, report) = dispatch_request(daemon, &request);
            assert!(header.contains("priority=interactive"), "{header}");
            assert_eq!(report, reference);
        }
        assert_eq!(hashes() - before, request.layers as u64);
    }

    #[test]
    fn probes_differing_in_one_workload_field_each_get_their_own_set() {
        let server = ServeServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let daemon = server.0.handler();
        let base = ServeRequest::ter("memo-fields");
        let base_report = serial_ter_report(&base);
        assert_eq!(dispatch_request(daemon, &base).1, base_report);
        let mut variants = vec![base.clone(); 4];
        variants[0].workload_seed += 1;
        variants[1].pixels += 1;
        variants[2].layers += 1;
        variants[3].family = ModelFamily::Resnet18;
        for request in &variants {
            let reference = serial_ter_report(request);
            assert_ne!(reference, base_report, "{request:?}");
            let (header, report) = dispatch_request(daemon, request);
            assert!(header.contains("priority=interactive"), "{header}");
            assert_eq!(report, reference, "{request:?}");
        }
        assert_eq!(lock_ok(&daemon.workloads.state).sets.len(), 5);
    }

    #[test]
    fn a_bulk_request_leaves_the_workload_memo_empty() {
        let server = ServeServer::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let daemon = server.0.handler();
        let mut request = ServeRequest::ter("memo-bulk");
        request.priority = Some(Priority::Bulk);
        let (header, report) = dispatch_request(daemon, &request);
        assert!(header.contains("priority=bulk"), "{header}");
        assert_eq!(report, serial_ter_report(&request));
        assert!(lock_ok(&daemon.workloads.state).sets.is_empty());
    }

    #[test]
    fn workload_memo_evicts_the_least_recently_used_set_first() {
        // One layer of `rows` weight bytes and `rows` activation bytes.
        let set = |rows: usize| -> Arc<[LayerWorkload]> {
            let ones = || accel_sim::Matrix::from_fn(rows, 1, |_, _| 1i8);
            vec![LayerWorkload::from_matrices("memo", ones(), ones()).unwrap()].into()
        };
        let key = |seed| WorkloadKey {
            family: ModelFamily::Vgg16,
            layers: 1,
            pixels: 1,
            seed,
        };
        let held = |memo: &WorkloadMemo| {
            let state = lock_ok(&memo.state);
            let mut seeds: Vec<u64> = state.sets.keys().map(|key| key.seed).collect();
            seeds.sort_unstable();
            (seeds, state.bytes)
        };
        let memo = WorkloadMemo::new(30);
        for seed in 0..3 {
            memo.retain(key(seed), set(5));
        }
        assert!(memo.get(&key(0)).is_some());
        memo.retain(key(3), set(5));
        assert_eq!(held(&memo), (vec![0, 2, 3], 30));
        // Larger than the cap: not retained, and nothing is evicted for it.
        memo.retain(key(4), set(16));
        assert_eq!(held(&memo), (vec![0, 2, 3], 30));
        // Twice the size of the others: the two least recently used go.
        memo.retain(key(5), set(10));
        assert_eq!(held(&memo), (vec![3, 5], 30));
        // Retained again: replaced in place, counted once.
        memo.retain(key(5), set(10));
        assert_eq!(held(&memo), (vec![3, 5], 30));
    }

    // ---- deadline pins ----------------------------------------------------

    #[test]
    fn expired_deadline_never_claims_a_free_slot() {
        // Bug pin: `acquire` used to check the deadline only while blocked,
        // so an already-expired request with a free slot started computing
        // anyway.
        let sched = UnitScheduler::new(4);
        let expired = Some(Instant::now() - Duration::from_millis(1));
        let err = sched
            .acquire(Priority::Interactive, expired)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
        // The aborted acquisition left the gate untouched.
        let gate = lock_ok(&sched.gate);
        assert_eq!(gate.active, 0);
        assert_eq!(gate.interactive_waiting, 0);
    }

    #[test]
    fn deadline_is_checked_between_units() {
        // Bug pin: once admitted, a leader used to run every remaining unit
        // with no deadline check between them.
        let (pipeline, workloads) = tiny_plan_fixture();
        let plan = pipeline.plan_ter("vgg16", &workloads).unwrap();
        let sched = UnitScheduler::new(1);
        let inflight = AtomicU64::new(0);
        let expired = Some(Instant::now() - Duration::from_millis(1));
        let err = sched
            .run_plan_units(&plan, Priority::Interactive, expired, &inflight)
            .unwrap_err();
        assert!(err.to_string().contains("timed out"), "{err}");
    }

    #[test]
    fn no_timeout_sentinel_round_trips_and_disables_the_server_default() {
        let mut request = ServeRequest::ter("no-timeout");
        request.timeout_ms = NO_TIMEOUT;
        let encoded = request.encode();
        assert!(encoded.contains("timeout_ms=none"), "{encoded}");
        let decoded = ServeRequest::decode(&encoded).unwrap();
        assert_eq!(decoded.timeout_ms, NO_TIMEOUT);
        assert_eq!(decoded, request);

        // End-to-end: a server whose default timeout already expired still
        // serves a NO_TIMEOUT request (0 would have inherited the default
        // and timed out between units).
        let handle = ServeServer::spawn(
            "127.0.0.1:0",
            ServerConfig {
                default_timeout_ms: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let client = handle.client();
        let mut request = ServeRequest::ter("no-timeout");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        request.timeout_ms = NO_TIMEOUT;
        let reply = client.request(&request).unwrap();
        assert_eq!(reply.units, 1);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    // ---- worker server ----------------------------------------------------

    #[test]
    fn worker_rejects_a_bad_spec_in_band() {
        let handle = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(reader.get_ref(), "req v1 kind=nonsense").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with('!'), "{line}");
        WorkerServer::shutdown_at(&handle.addr().to_string()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn worker_serves_a_plan_over_the_socket_protocol() {
        let handle = WorkerServer::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();

        let mut request = ServeRequest::ter("worker-e2e");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        // Driver side: the same spec expands to the same plan.
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::new());
        let job = RequestJob::build(request.clone(), store).unwrap();
        let plan = job.plan().unwrap();
        let serial = SerialExecutor.execute(&plan, 0..plan.len()).unwrap();

        let executor = SocketExecutor::new(request.encode(), [handle.addr().to_string()]);
        let remote = executor.execute(&plan, 0..plan.len()).unwrap();
        assert_eq!(remote, serial);
        assert_eq!(executor.stats().worker_deaths(), 0);
        assert_eq!(executor.stats().completed_units(), plan.len() as u64);

        WorkerServer::shutdown_at(&handle.addr().to_string()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn request_timeout_surfaces_as_a_server_error() {
        let handle = ServeServer::spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        let client = handle.client();
        // Saturate the only flight key path cheaply: a deadline in the past
        // cannot admit any unit.
        let mut request = ServeRequest::ter("deadline");
        request.layers = 1;
        request.pixels = 1;
        request.sources = vec![SourceSpec::Baseline];
        request.corners = vec![CornerSpec::ideal()];
        request.timeout_ms = 1;
        // The request may still succeed when the unit finishes within 1ms of
        // admission; accept either a timeout error or success, but a timeout
        // must be a clean protocol error, not a hang.
        match client.request(&request) {
            Ok(reply) => assert_eq!(reply.units, 1),
            Err(e) => assert!(e.to_string().contains("timed out"), "{e}"),
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}
