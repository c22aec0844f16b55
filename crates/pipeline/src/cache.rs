//! Fingerprint-keyed artifact caches: schedules, layer histograms, and
//! memoized work-unit results.
//!
//! Optimizing a layer is the expensive part of a sweep (balanced k-means
//! plus per-cluster sorting), and experiment grids revisit the same
//! (source, layer, array) corner many times — e.g. every operating condition
//! of an accuracy sweep, or repeated runs over seeds.  The schedule cache
//! keys on the source fingerprint (which includes
//! [`read_core::ReadConfig::seed`]), a fingerprint of the weight matrix, and
//! the array column count, so a repeated corner reuses its schedule while
//! any configuration change recomputes it.  The histogram cache is keyed the
//! same way — source fingerprint plus a fingerprint of the full workload and
//! the simulation context (array geometry, dataflow, options) — and
//! amortizes the cycle simulation the same way the schedule cache amortizes
//! the optimization.  The unit cache memoizes whole
//! [`crate::UnitResult`]s keyed on the unit's wire id plus a full signature
//! of every stage fingerprint the result depends on, so a rerun of any
//! [`crate::WorkPlan`] is pure aggregation.
//!
//! All three run on the same machinery: a [`VerifiedCache`] over an
//! [`ArtifactKind`] codec, with an optional content-addressed
//! [`ArtifactStore`] behind it ([`crate::MemoryStore`] for cross-pipeline
//! sharing in one process, [`crate::DiskStore`] for persistence across
//! processes and runs — see [`crate::store`]).  Artifacts decode bit-exactly,
//! so reports are byte-identical whether an entry came from memory, disk or
//! a fresh computation.
//!
//! Because the fingerprints are 64-bit hashes, every entry also stores a
//! verification check (names + dimensions) that lookups verify — a hash
//! collision that differs in either is detected and bypassed rather than
//! served (see [`CacheStats::collisions`]).  The check deliberately stops
//! there: a collision between equal-dimension contents, or between
//! same-named sources with different configs, would additionally need the
//! 64-bit content/config hashes to collide (probability ~2^-64 per pair)
//! and is accepted as residual risk.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use accel_sim::{ComputeSchedule, Matrix};
use qnn::{Dataset, Model};
use timing::DepthHistogram;

use crate::error::PipelineError;
use crate::plan::UnitResult;
use crate::stage::fnv1a;
use crate::store::{ArtifactStore, StoreRequest};
use crate::wire::escape_wire;

/// Cache key: (source fingerprint, weights fingerprint, array columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleKey {
    /// [`crate::ScheduleSource::fingerprint`] of the producing source.
    pub source: u64,
    /// Fingerprint of the weight matrix (dimensions + contents).
    pub weights: u64,
    /// Array columns the schedule was built for.
    pub array_cols: usize,
}

/// Full-key verification data stored beside every cache entry.
///
/// The `source`/`weights` components of a [`ScheduleKey`] are 64-bit FNV-1a
/// hashes, so two distinct (source, layer) pairs can — however improbably —
/// collide.  Serving a colliding entry would silently hand a layer the
/// wrong schedule; storing the source name and the weight dimensions makes
/// such a collision *detectable*: a lookup whose check disagrees with the
/// stored one bypasses the cache (counted in [`CacheStats::collisions`])
/// instead of returning a foreign schedule.  Collisions that agree on name
/// and dimensions but differ only in weight contents or source
/// configuration are not caught by the check — they require a simultaneous
/// 64-bit content/config hash collision and are accepted as residual risk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCheck {
    /// [`crate::ScheduleSource::name`] of the producing source.
    pub source: String,
    /// Weight-matrix rows (reduction length).
    pub rows: usize,
    /// Weight-matrix columns (output channels).
    pub cols: usize,
}

/// Histogram-cache key: (source fingerprint, workload fingerprint,
/// simulation-context fingerprint).
///
/// A triggered-depth histogram depends on the schedule (determined by the
/// source and the weights), the activations, and the simulation context —
/// the array geometry, the dataflow and the simulation options — but *not*
/// on the operating corner, which is applied after the fact by the error
/// model.  The key therefore covers exactly those inputs, so one cached
/// histogram serves every corner, die and trial budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramKey {
    /// [`crate::ScheduleSource::fingerprint`] of the producing source.
    pub source: u64,
    /// Fingerprint of the full workload (weights + activations, dims and
    /// contents) — see [`crate::LayerWorkload::fingerprint`].
    pub workload: u64,
    /// Fingerprint of the simulation context (array geometry, dataflow,
    /// simulation options).
    pub context: u64,
}

/// Full-key verification data of a histogram-cache entry (the
/// [`KeyCheck`] analogue: names + dimensions behind the 64-bit hashes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramCheck {
    /// [`crate::ScheduleSource::name`] of the producing source.
    pub source: String,
    /// [`crate::LayerWorkload`] name.
    pub workload: String,
    /// Weight-matrix rows (reduction length).
    pub rows: usize,
    /// Weight-matrix columns (output channels).
    pub cols: usize,
    /// Activation-matrix columns (pixels).
    pub pixels: usize,
}

/// Unit-result cache key: (plan-signature fingerprint, unit-id
/// fingerprint).  The signature covers every stage fingerprint the unit's
/// result depends on — see [`crate::WorkPlan`]'s signature construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// FNV-1a of the plan's full signature string.
    pub plan: u64,
    /// FNV-1a of the unit's wire id ([`crate::WorkUnit::encode`]).
    pub unit: u64,
}

/// Full-key verification data of a unit-result cache entry: the complete
/// signature and unit id behind the [`UnitKey`] hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitCheck {
    /// The plan's full signature (stage fingerprints, workloads, grid) —
    /// shared, since every unit of a plan carries the same signature and
    /// plans can hold thousands of Monte-Carlo shards.
    pub plan: Arc<str>,
    /// The unit's wire id.
    pub unit: String,
}

/// Fingerprint of a weight matrix: FNV-1a over its dimensions and bytes.
pub fn weights_fingerprint(weights: &Matrix<i8>) -> u64 {
    let dims = [weights.rows() as u64, weights.cols() as u64];
    let bytes = dims
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .chain(weights.as_slice().iter().map(|&w| w as u8));
    fnv1a(bytes)
}

/// Fingerprint of an executable model: FNV-1a over the architecture (layer
/// sequence), every convolution's configuration, weights and bias, and the
/// classifier — anything that can change a forward pass.  Used to key
/// memoized accuracy-unit results.
pub fn model_fingerprint(model: &Model) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    let push_str = |bytes: &mut Vec<u8>, s: &str| {
        bytes.extend((s.len() as u64).to_le_bytes());
        bytes.extend(s.bytes());
    };
    push_str(&mut bytes, model.name());
    bytes.extend((model.num_classes() as u64).to_le_bytes());
    // Layer-sequence tags, so two architectures sharing conv layers but
    // differing in pooling/residual structure fingerprint differently.
    for layer in model.layers() {
        let tag: &str = match layer {
            qnn::LayerKind::Conv { relu, .. } => {
                if *relu {
                    "conv+relu"
                } else {
                    "conv"
                }
            }
            qnn::LayerKind::MaxPool2 => "maxpool2",
            qnn::LayerKind::GlobalAvgPool => "gap",
            qnn::LayerKind::Residual(_) => "residual",
            qnn::LayerKind::Classifier(_) => "classifier",
            _ => "other",
        };
        push_str(&mut bytes, tag);
    }
    for conv in model.conv_layers() {
        push_str(&mut bytes, conv.name());
        for dim in [
            conv.in_channels(),
            conv.out_channels(),
            conv.kernel(),
            conv.stride(),
            conv.padding(),
        ] {
            bytes.extend((dim as u64).to_le_bytes());
        }
        bytes.extend(conv.out_scale().to_bits().to_le_bytes());
        bytes.extend(conv.weights().iter().map(|&w| w as u8));
        for &b in conv.bias() {
            bytes.extend(b.to_le_bytes());
        }
    }
    let classifier = model.classifier();
    bytes.extend((classifier.in_features() as u64).to_le_bytes());
    bytes.extend((classifier.out_features() as u64).to_le_bytes());
    bytes.extend(classifier.weights().iter().map(|&w| w as u8));
    for &b in classifier.bias() {
        bytes.extend(b.to_le_bytes());
    }
    fnv1a(bytes)
}

/// Fingerprint of a dataset: FNV-1a over every image's shape and contents
/// plus the labels.  Used to key memoized accuracy-unit results.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend((dataset.num_classes() as u64).to_le_bytes());
    for (image, label) in dataset.iter() {
        for dim in image.shape() {
            bytes.extend((dim as u64).to_le_bytes());
        }
        bytes.extend(image.as_slice().iter().map(|&v| v as u8));
        bytes.extend((label as u64).to_le_bytes());
    }
    fnv1a(bytes)
}

/// Cache effectiveness counters of a pipeline's caches and its artifact
/// store.
///
/// The `misses` counters count *fresh computations* — a lookup served by
/// the store (a `disk_hit`) is neither a hit nor a miss of the in-memory
/// layer, so "`misses` unchanged" is exactly "the optimizer/simulator/
/// evaluator did not run again", whether the artifact came from memory or
/// from a shared store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Schedule lookups served from the in-memory cache.
    pub hits: u64,
    /// Schedule lookups that had to compute a schedule.
    pub misses: u64,
    /// Schedule lookups whose hash key matched a cached entry but whose
    /// full key ([`KeyCheck`]) did not — a fingerprint collision, served by
    /// a fresh computation instead of the cached schedule.
    pub collisions: u64,
    /// Schedules currently cached in memory.
    pub entries: usize,
    /// Histogram lookups served from the in-memory cache (a simulation pass
    /// saved).
    pub hist_hits: u64,
    /// Histogram lookups that had to simulate.
    pub hist_misses: u64,
    /// Histogram lookups whose hash key collided (see
    /// [`CacheStats::collisions`]) — served by a fresh simulation.
    pub hist_collisions: u64,
    /// Histograms currently cached in memory.
    pub hist_entries: usize,
    /// Work-unit results served from the in-memory cache.
    pub unit_hits: u64,
    /// Work-unit results that had to execute fresh.
    pub unit_misses: u64,
    /// Work-unit lookups whose hash key collided — executed fresh.
    pub unit_collisions: u64,
    /// Work-unit results currently cached in memory.
    pub unit_entries: usize,
    /// Work-unit results served by joining an identical *in-flight*
    /// computation instead of starting one — the serve layer's single-flight
    /// dedup (see [`crate::serve`]).  Always zero for a plain pipeline: only
    /// a daemon coalescing concurrent requests produces in-flight joins.
    pub inflight_hits: u64,
    /// Lookups (all artifact kinds) served from the configured
    /// [`ArtifactStore`].
    pub disk_hits: u64,
    /// Store lookups that found nothing servable.
    pub disk_misses: u64,
    /// Store entries that failed to parse or decode — read as misses and
    /// rewritten, never propagated as errors.
    pub corrupt_entries: u64,
    /// Artifacts written to the store.
    pub store_writes: u64,
}

impl CacheStats {
    /// Deterministic JSON rendering (stable key order, all counters),
    /// golden-pinned by `tests/fixtures/cache_stats.json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"collisions\":{},\"entries\":{},\
             \"hist_hits\":{},\"hist_misses\":{},\"hist_collisions\":{},\"hist_entries\":{},\
             \"unit_hits\":{},\"unit_misses\":{},\"unit_collisions\":{},\"unit_entries\":{},\
             \"inflight_hits\":{},\
             \"disk_hits\":{},\"disk_misses\":{},\"corrupt_entries\":{},\"store_writes\":{}}}",
            self.hits,
            self.misses,
            self.collisions,
            self.entries,
            self.hist_hits,
            self.hist_misses,
            self.hist_collisions,
            self.hist_entries,
            self.unit_hits,
            self.unit_misses,
            self.unit_collisions,
            self.unit_entries,
            self.inflight_hits,
            self.disk_hits,
            self.disk_misses,
            self.corrupt_entries,
            self.store_writes,
        )
    }

    /// Parses the flat-object JSON produced by [`CacheStats::to_json`]
    /// (unknown keys are ignored, absent keys stay zero) — the decoder the
    /// serve protocol uses to carry per-request stats over the wire.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed key/value pair.
    pub fn from_json(json: &str) -> Result<CacheStats, String> {
        let body = json
            .trim()
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| format!("cache stats JSON is not an object: {json:?}"))?;
        let mut stats = CacheStats::default();
        if body.trim().is_empty() {
            return Ok(stats);
        }
        for pair in body.split(',') {
            let (key, value) = pair
                .split_once(':')
                .ok_or_else(|| format!("malformed cache stats pair {pair:?}"))?;
            let key = key.trim().trim_matches('"');
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|e| format!("bad cache stats value for {key:?}: {e}"))?;
            match key {
                "hits" => stats.hits = value,
                "misses" => stats.misses = value,
                "collisions" => stats.collisions = value,
                "entries" => stats.entries = value as usize,
                "hist_hits" => stats.hist_hits = value,
                "hist_misses" => stats.hist_misses = value,
                "hist_collisions" => stats.hist_collisions = value,
                "hist_entries" => stats.hist_entries = value as usize,
                "unit_hits" => stats.unit_hits = value,
                "unit_misses" => stats.unit_misses = value,
                "unit_collisions" => stats.unit_collisions = value,
                "unit_entries" => stats.unit_entries = value as usize,
                "inflight_hits" => stats.inflight_hits = value,
                "disk_hits" => stats.disk_hits = value,
                "disk_misses" => stats.disk_misses = value,
                "corrupt_entries" => stats.corrupt_entries = value,
                "store_writes" => stats.store_writes = value,
                _ => {}
            }
        }
        Ok(stats)
    }
}

/// One cacheable artifact class: how its keys hash, how its full key
/// renders into a store check line, and how its values encode to and from
/// the store's text payloads.
///
/// The three built-in kinds cover schedules, histograms and unit results;
/// custom pipelines can define further kinds and run them through the same
/// [`VerifiedCache`] + [`ArtifactStore`] machinery.
pub trait ArtifactKind {
    /// Store namespace of the kind (the entry subdirectory on disk).
    const KIND: &'static str;
    /// The 64-bit-fingerprint key type.
    type Key: Eq + Hash + Copy;
    /// The full-key verification data behind the hashes.
    type Check: Eq + Clone;
    /// The cached value type.
    type Value;

    /// Collapses a key into the store's 64-bit content address.
    fn key_id(key: &Self::Key) -> u64;
    /// Renders the full key — the verification data AND every component of
    /// `key` the 64-bit [`ArtifactKind::key_id`] collapses — as a
    /// single-line check (free-text fields must be escaped; see
    /// [`crate::WorkUnit::encode`]'s escaping rules).  Including the key
    /// components matters for *shared* stores: two pipelines whose distinct
    /// keys collide in `key_id` must disagree on the check line, so the
    /// foreign entry reads as a miss rather than a verified hit.
    fn check_line(key: &Self::Key, check: &Self::Check) -> String;
    /// Encodes a value as a store payload (must round-trip exactly through
    /// [`ArtifactKind::decode`]).
    fn encode(value: &Self::Value) -> String;
    /// Decodes a store payload found under `check`; `None` marks the entry
    /// corrupt (a counted miss, recomputed and rewritten).  That includes a
    /// payload that parses but does not fit `check`, which a healthy store
    /// never holds.
    fn decode(payload: &str, check: &Self::Check) -> Option<Self::Value>;
}

/// The schedule artifact class ([`ScheduleKey`] → [`ComputeSchedule`]).
#[derive(Debug)]
pub struct ScheduleArtifact;

impl ArtifactKind for ScheduleArtifact {
    const KIND: &'static str = "schedule";
    type Key = ScheduleKey;
    type Check = KeyCheck;
    type Value = ComputeSchedule;

    fn key_id(key: &Self::Key) -> u64 {
        fnv1a(
            key.source
                .to_le_bytes()
                .into_iter()
                .chain(key.weights.to_le_bytes())
                .chain((key.array_cols as u64).to_le_bytes()),
        )
    }

    fn check_line(key: &Self::Key, check: &Self::Check) -> String {
        format!(
            "source={} rows={} cols={} array_cols={} source_fp={:016x} weights_fp={:016x}",
            escape_wire(&check.source),
            check.rows,
            check.cols,
            key.array_cols,
            key.source,
            key.weights
        )
    }

    fn encode(value: &Self::Value) -> String {
        value.to_wire()
    }

    fn decode(payload: &str, check: &Self::Check) -> Option<Self::Value> {
        ComputeSchedule::from_wire(payload)
            .filter(|schedule| schedule.validate(check.rows, check.cols).is_ok())
    }
}

/// The histogram artifact class ([`HistogramKey`] → [`DepthHistogram`]).
#[derive(Debug)]
pub struct HistogramArtifact;

impl ArtifactKind for HistogramArtifact {
    const KIND: &'static str = "histogram";
    type Key = HistogramKey;
    type Check = HistogramCheck;
    type Value = DepthHistogram;

    fn key_id(key: &Self::Key) -> u64 {
        fnv1a(
            key.source
                .to_le_bytes()
                .into_iter()
                .chain(key.workload.to_le_bytes())
                .chain(key.context.to_le_bytes()),
        )
    }

    fn check_line(key: &Self::Key, check: &Self::Check) -> String {
        format!(
            "source={} workload={} rows={} cols={} pixels={} \
             source_fp={:016x} workload_fp={:016x} context_fp={:016x}",
            escape_wire(&check.source),
            escape_wire(&check.workload),
            check.rows,
            check.cols,
            check.pixels,
            key.source,
            key.workload,
            key.context
        )
    }

    fn encode(value: &Self::Value) -> String {
        value.to_wire()
    }

    fn decode(payload: &str, _check: &Self::Check) -> Option<Self::Value> {
        DepthHistogram::from_wire(payload)
    }
}

/// The memoized work-unit-result artifact class ([`UnitKey`] →
/// [`UnitResult`]).
#[derive(Debug)]
pub struct UnitArtifact;

impl ArtifactKind for UnitArtifact {
    const KIND: &'static str = "unit";
    type Key = UnitKey;
    type Check = UnitCheck;
    type Value = UnitResult;

    fn key_id(key: &Self::Key) -> u64 {
        fnv1a(
            key.plan
                .to_le_bytes()
                .into_iter()
                .chain(key.unit.to_le_bytes()),
        )
    }

    fn check_line(_key: &Self::Key, check: &Self::Check) -> String {
        // The check already carries the complete key preimages (the full
        // signature and unit id the UnitKey hashes collapse), so a key_id
        // collision between distinct units always disagrees here.
        format!(
            "unit={} plan={}",
            escape_wire(&check.unit),
            escape_wire(&check.plan)
        )
    }

    fn encode(value: &Self::Value) -> String {
        value.encode()
    }

    fn decode(payload: &str, check: &Self::Check) -> Option<Self::Value> {
        UnitResult::decode(payload)
            .ok()
            .filter(|result| result.unit().encode() == check.unit)
    }
}

/// The in-memory layer of a [`VerifiedCache`]: full key + shared value,
/// keyed by the 64-bit-fingerprint key.
type CheckedMap<A> = HashMap<
    <A as ArtifactKind>::Key,
    (<A as ArtifactKind>::Check, Arc<<A as ArtifactKind>::Value>),
>;

/// A thread-safe verified cache over one [`ArtifactKind`]: an in-memory
/// full-key-checked map (today's per-pipeline behavior) layered on an
/// optional content-addressed [`ArtifactStore`] for sharing across
/// pipelines, workers and processes.
///
/// Lookup order: memory, then store, then compute (counted in `misses`) —
/// with every fresh computation written through to the store.  Collision
/// verification applies at both layers: a fingerprint collision is
/// detected via the stored full key and served by a fresh computation,
/// never by a foreign artifact.
pub struct VerifiedCache<A: ArtifactKind> {
    map: Mutex<CheckedMap<A>>,
    store: Option<Arc<dyn ArtifactStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    collisions: AtomicU64,
}

impl<A: ArtifactKind> std::fmt::Debug for VerifiedCache<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedCache")
            .field("kind", &A::KIND)
            .field("store", &self.store.as_ref().map(|s| s.name()))
            .finish_non_exhaustive()
    }
}

impl<A: ArtifactKind> Default for VerifiedCache<A> {
    fn default() -> Self {
        Self::with_store(None)
    }
}

impl<A: ArtifactKind> VerifiedCache<A> {
    /// An empty cache with no backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache over an optional backing store.
    pub fn with_store(store: Option<Arc<dyn ArtifactStore>>) -> Self {
        VerifiedCache {
            map: Mutex::new(HashMap::new()),
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, or computes, caches and returns
    /// it.  `check` is the full key verified against the stored entry: a
    /// hash collision is detected rather than served, and its lookup
    /// computes a fresh value without touching the cache.
    ///
    /// The compute closure runs outside the cache lock, so concurrent
    /// lookups of *different* keys never serialize on a slow computation;
    /// two racing computations of the same key are deterministic and
    /// idempotent, and the first insert wins.
    ///
    /// # Errors
    ///
    /// Propagates the compute closure's error without caching anything.
    pub fn get_or_compute(
        &self,
        key: A::Key,
        check: A::Check,
        compute: impl FnOnce() -> Result<A::Value, PipelineError>,
    ) -> Result<Arc<A::Value>, PipelineError> {
        // Look up under the lock, but release it before any compute() call
        // (the if-let guard temporary would otherwise live to the end of the
        // branch and serialize unrelated lookups on a slow computation).
        let cached = {
            let map = self.map.lock().expect("cache lock");
            map.get(&key)
                .map(|(stored, found)| (*stored == check, Arc::clone(found)))
        };
        match cached {
            Some((true, found)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(found);
            }
            Some((false, _)) => {
                // Fingerprint collision: the 64-bit hashes matched but the
                // full keys differ.  Serve a fresh computation and leave the
                // cached entry alone (overwriting would just thrash both
                // parties).
                self.collisions.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::new(compute()?));
            }
            None => {}
        }

        // Memory miss: try the backing store before computing.  A store hit
        // is neither a memory hit nor a miss — `misses` stays the count of
        // fresh computations; the store's own counters record the rest.
        if let Some(store) = &self.store {
            let id = A::key_id(&key);
            if let Some(payload) = store.load(A::KIND, id, &A::check_line(&key, &check)) {
                match A::decode(&payload, &check) {
                    Some(value) => return Ok(self.admit(key, check, Arc::new(value), false)),
                    None => store.note_corrupt(A::KIND, id),
                }
            }
        }

        let computed = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(self.admit(key, check, computed, true))
    }

    /// Seeds the memory layer from the backing store in batched round
    /// trips: every entry not already in memory is looked up through
    /// [`ArtifactStore::load_many`] (one `mget` per batch on a
    /// [`crate::store::RemoteStore`] — O(batches) instead of O(entries))
    /// and the decoded hits are admitted, so the following
    /// [`VerifiedCache::get_or_compute`] calls are plain memory hits.
    /// Returns how many entries were admitted.  A no-op without a store.
    ///
    /// Purely an optimization: misses and payloads that do not decode to
    /// a value fitting their key (noted corrupt, as in the un-prefetched
    /// path) are computed on demand exactly as before, so results are
    /// byte-identical either way.
    pub fn prefetch(&self, entries: &[(A::Key, A::Check)]) -> usize {
        let Some(store) = &self.store else { return 0 };
        let wanted: Vec<&(A::Key, A::Check)> = {
            let map = self.map.lock().expect("cache lock");
            entries
                .iter()
                .filter(|(key, _)| !map.contains_key(key))
                .collect()
        };
        if wanted.is_empty() {
            return 0;
        }
        let requests: Vec<StoreRequest> = wanted
            .iter()
            .map(|(key, check)| StoreRequest {
                kind: A::KIND.to_string(),
                key: A::key_id(key),
                check: A::check_line(key, check),
            })
            .collect();
        let mut admitted = 0;
        for ((key, check), payload) in wanted.iter().zip(store.load_many(&requests)) {
            let Some(payload) = payload else { continue };
            match A::decode(&payload, check) {
                Some(value) => {
                    self.admit(*key, check.clone(), Arc::new(value), false);
                    admitted += 1;
                }
                None => store.note_corrupt(A::KIND, A::key_id(key)),
            }
        }
        admitted
    }

    /// Inserts a value into the memory layer (first insert wins; a racing
    /// colliding full key is counted and bypassed) and — for freshly
    /// computed values that won the insert — writes it through to the
    /// store.
    fn admit(
        &self,
        key: A::Key,
        check: A::Check,
        value: Arc<A::Value>,
        write_through: bool,
    ) -> Arc<A::Value> {
        let admitted = {
            let mut map = self.map.lock().expect("cache lock");
            let entry = map
                .entry(key)
                .or_insert_with(|| (check.clone(), Arc::clone(&value)));
            if entry.0 == check {
                Some(Arc::clone(&entry.1))
            } else {
                None
            }
        };
        match admitted {
            Some(entry) => {
                if write_through {
                    if let Some(store) = &self.store {
                        store.put(
                            A::KIND,
                            A::key_id(&key),
                            &A::check_line(&key, &check),
                            &A::encode(&entry),
                        );
                    }
                }
                entry
            }
            None => {
                // A racing thread inserted a colliding full key first.
                self.collisions.fetch_add(1, Ordering::Relaxed);
                value
            }
        }
    }

    /// Current counters: (hits, misses, collisions, entries).
    pub fn counters(&self) -> (u64, u64, u64, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.collisions.load(Ordering::Relaxed),
            self.map.lock().expect("cache lock").len(),
        )
    }

    /// Drops every cached value and resets the counters.  The backing
    /// store (and its counters) is untouched.
    pub fn clear(&self) {
        self.map.lock().expect("cache lock").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.collisions.store(0, Ordering::Relaxed);
    }
}

/// A thread-safe schedule cache.
pub type ScheduleCache = VerifiedCache<ScheduleArtifact>;

/// A thread-safe triggered-depth-histogram cache.
///
/// Keyed like the schedule cache ([`HistogramKey`]), it amortizes the cycle
/// simulation across the corners, dies and repeated runs of a sweep: the
/// histogram of a (workload, source) pair is corner-independent, so one
/// simulation pass serves the whole grid.
pub type HistogramCache = VerifiedCache<HistogramArtifact>;

/// A thread-safe memoized work-unit-result cache.
///
/// Histogram units flow through the [`HistogramCache`] instead (their
/// payload *is* the histogram); this cache memoizes the remaining unit
/// classes — Monte-Carlo shards and accuracy points — so a rerun of any
/// [`crate::WorkPlan`] executes zero units fresh.
pub type UnitCache = VerifiedCache<UnitArtifact>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{DiskStore, MemoryStore};
    use crate::workload::LayerWorkload;

    fn key(n: u64) -> ScheduleKey {
        ScheduleKey {
            source: n,
            weights: 7,
            array_cols: 4,
        }
    }

    fn check(source: &str) -> KeyCheck {
        KeyCheck {
            source: source.to_string(),
            rows: 8,
            cols: 4,
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ScheduleCache::new();
        let make = || Ok(ComputeSchedule::baseline(8, 4, 2));
        let a = cache.get_or_compute(key(1), check("a"), make).unwrap();
        let b = cache.get_or_compute(key(1), check("a"), make).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let (hits, misses, collisions, entries) = cache.counters();
        assert_eq!((hits, misses, entries), (1, 1, 1));
        assert_eq!(collisions, 0);
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let cache = ScheduleCache::new();
        cache
            .get_or_compute(key(1), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 2))
            })
            .unwrap();
        cache
            .get_or_compute(key(2), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 4))
            })
            .unwrap();
        let (_, misses, _, entries) = cache.counters();
        assert_eq!(entries, 2);
        assert_eq!(misses, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ScheduleCache::new();
        let err = cache.get_or_compute(key(3), check("a"), || Err(PipelineError::builder("nope")));
        assert!(err.is_err());
        assert_eq!(cache.counters().3, 0);
        // A later successful compute still works.
        cache
            .get_or_compute(key(3), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 2))
            })
            .unwrap();
        assert_eq!(cache.counters().3, 1);
    }

    #[test]
    fn fingerprint_collisions_are_detected_not_served() {
        let cache = ScheduleCache::new();
        // Same 64-bit key, different full keys: a simulated FNV collision.
        let first = cache
            .get_or_compute(key(1), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 2))
            })
            .unwrap();
        let collided = cache
            .get_or_compute(key(1), check("b"), || {
                Ok(ComputeSchedule::baseline(8, 4, 4))
            })
            .unwrap();
        // The colliding lookup got its own fresh schedule, not the cached one.
        assert!(!Arc::ptr_eq(&first, &collided));
        assert_eq!(*collided, ComputeSchedule::baseline(8, 4, 4));
        let (_, _, collisions, entries) = cache.counters();
        assert_eq!(collisions, 1);
        assert_eq!(entries, 1, "collisions never overwrite the entry");
        // The original full key still hits.
        cache
            .get_or_compute(key(1), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 2))
            })
            .unwrap();
        assert_eq!(cache.counters().0, 1);
    }

    #[test]
    fn weights_fingerprint_sees_dims_and_values() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i8);
        let b = Matrix::from_fn(2, 8, |r, c| (r * 8 + c) as i8);
        let c = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as i8 + 1);
        assert_ne!(weights_fingerprint(&a), weights_fingerprint(&b));
        assert_ne!(weights_fingerprint(&a), weights_fingerprint(&c));
        assert_eq!(weights_fingerprint(&a), weights_fingerprint(&a.clone()));
    }

    #[test]
    fn workload_fingerprint_sees_weights_and_activations() {
        let weights = Matrix::from_fn(6, 3, |r, c| (r + c) as i8);
        let acts_a = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as i8);
        let acts_b = Matrix::from_fn(6, 2, |r, c| (r * 2 + c) as i8 + 1);
        let a = LayerWorkload::from_matrices("l", weights.clone(), acts_a.clone()).unwrap();
        let b = LayerWorkload::from_matrices("l", weights, acts_b).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let again = LayerWorkload::from_matrices("renamed", a.weights().clone(), acts_a).unwrap();
        // The fingerprint covers contents, not the display name (the name is
        // verified by the HistogramCheck instead).
        assert_eq!(a.fingerprint(), again.fingerprint());
    }

    #[test]
    fn model_and_dataset_fingerprints_see_contents() {
        let model_a = qnn::models::vgg11_cifar_scaled(8, 2, 1).unwrap();
        let model_b = qnn::models::vgg11_cifar_scaled(8, 2, 2).unwrap();
        assert_ne!(model_fingerprint(&model_a), model_fingerprint(&model_b));
        assert_eq!(
            model_fingerprint(&model_a),
            model_fingerprint(&qnn::models::vgg11_cifar_scaled(8, 2, 1).unwrap())
        );
        let data_a = qnn::SyntheticDatasetBuilder::new(2, [3, 8, 8])
            .samples_per_class(1)
            .seed(1)
            .build()
            .unwrap();
        let data_b = qnn::SyntheticDatasetBuilder::new(2, [3, 8, 8])
            .samples_per_class(1)
            .seed(2)
            .build()
            .unwrap();
        assert_ne!(dataset_fingerprint(&data_a), dataset_fingerprint(&data_b));
        assert_eq!(dataset_fingerprint(&data_a), dataset_fingerprint(&data_a));
    }

    #[test]
    fn histogram_cache_hits_and_detects_collisions() {
        let cache = HistogramCache::new();
        let key = HistogramKey {
            source: 1,
            workload: 2,
            context: 3,
        };
        let check_a = HistogramCheck {
            source: "a".into(),
            workload: "conv1".into(),
            rows: 8,
            cols: 4,
            pixels: 1,
        };
        let mut check_b = check_a.clone();
        check_b.workload = "conv2".into();
        let make = || Ok(DepthHistogram::from_parts(&[3, 1], 1, 4).unwrap());
        let first = cache.get_or_compute(key, check_a.clone(), make).unwrap();
        let again = cache.get_or_compute(key, check_a, make).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let collided = cache.get_or_compute(key, check_b, make).unwrap();
        assert!(!Arc::ptr_eq(&first, &collided));
        let (hits, misses, collisions, entries) = cache.counters();
        assert_eq!((hits, misses, collisions, entries), (1, 1, 1, 1));
    }

    #[test]
    fn clear_resets_everything() {
        let cache = ScheduleCache::new();
        cache
            .get_or_compute(key(1), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 2))
            })
            .unwrap();
        cache
            .get_or_compute(key(1), check("b"), || {
                Ok(ComputeSchedule::baseline(8, 4, 4))
            })
            .unwrap();
        cache.clear();
        assert_eq!(cache.counters(), (0, 0, 0, 0));
    }

    #[test]
    fn store_backed_cache_serves_across_instances_without_recompute() {
        let store: Arc<dyn ArtifactStore> = Arc::new(MemoryStore::new());
        let first = ScheduleCache::with_store(Some(Arc::clone(&store)));
        first
            .get_or_compute(key(1), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 2))
            })
            .unwrap();
        assert_eq!(first.counters().1, 1);
        assert_eq!(store.stats().writes, 1);

        // A second cache over the same store: no fresh computation at all.
        let second = ScheduleCache::with_store(Some(Arc::clone(&store)));
        let served = second
            .get_or_compute(key(1), check("a"), || {
                panic!("must be served from the store")
            })
            .unwrap();
        assert_eq!(*served, ComputeSchedule::baseline(8, 4, 2));
        let (hits, misses, ..) = second.counters();
        assert_eq!((hits, misses), (0, 0), "store hit, not a miss");
        assert_eq!(store.stats().hits, 1);
        // The store-served value is admitted to memory: a further lookup is
        // a plain memory hit.
        second
            .get_or_compute(key(1), check("a"), || panic!("must be served from memory"))
            .unwrap();
        assert_eq!(second.counters().0, 1);
    }

    /// Undecodable payloads, and payloads that parse but do not fit their
    /// key, are counted misses: recomputed and rewritten.  The schedule
    /// cases go through the lookup path (the last two are no schedule of
    /// the keyed `8 x 4` layer), the unit case (another unit's result)
    /// through the prefetch path.
    #[test]
    fn corrupt_store_payloads_recompute_and_rewrite() {
        let fits = ComputeSchedule::baseline(8, 4, 2);
        let misfits = [
            "not a schedule".to_string(),
            "groups=0@0".to_string(),
            ComputeSchedule::baseline(8, 2, 2).to_wire(),
        ];
        for payload in misfits {
            let store = Arc::new(MemoryStore::new());
            store.put(
                "schedule",
                ScheduleArtifact::key_id(&key(9)),
                &ScheduleArtifact::check_line(&key(9), &check("a")),
                &payload,
            );
            let cache =
                ScheduleCache::with_store(Some(Arc::clone(&store) as Arc<dyn ArtifactStore>));
            let value = cache
                .get_or_compute(key(9), check("a"), || Ok(fits.clone()))
                .unwrap();
            assert_eq!(*value, fits, "{payload}");
            assert_eq!(cache.counters().1, 1, "corrupt payload → fresh compute");
            assert_eq!(store.stats().corrupt, 1, "{payload}");
            // The recomputed artifact was rewritten: a fresh cache now loads it.
            let fresh =
                ScheduleCache::with_store(Some(Arc::clone(&store) as Arc<dyn ArtifactStore>));
            fresh
                .get_or_compute(key(9), check("a"), || panic!("rewritten entry expected"))
                .unwrap();
        }

        let store = Arc::new(MemoryStore::new());
        let ukey = UnitKey { plan: 5, unit: 6 };
        let ucheck = UnitCheck {
            plan: "sig".into(),
            unit: "mc cell=0 trials=0..2".into(),
        };
        let other = UnitResult::McShard {
            cell: 0,
            trial_range: 2..4,
            ters: vec![vec![0.5, 0.25]],
        };
        store.put(
            UnitArtifact::KIND,
            UnitArtifact::key_id(&ukey),
            &UnitArtifact::check_line(&ukey, &ucheck),
            &other.encode(),
        );
        let ours = UnitResult::McShard {
            cell: 0,
            trial_range: 0..2,
            ters: vec![vec![0.125, 0.0]],
        };
        let cache = UnitCache::with_store(Some(Arc::clone(&store) as Arc<dyn ArtifactStore>));
        assert_eq!(cache.prefetch(&[(ukey, ucheck.clone())]), 0);
        assert_eq!(store.stats().corrupt, 1);
        let value = cache
            .get_or_compute(ukey, ucheck.clone(), || Ok(ours.clone()))
            .unwrap();
        assert_eq!(*value, ours);
        let fresh = UnitCache::with_store(Some(Arc::clone(&store) as Arc<dyn ArtifactStore>));
        assert_eq!(fresh.prefetch(&[(ukey, ucheck)]), 1, "rewritten entry");
    }

    #[test]
    fn out_of_range_histogram_payloads_recompute_and_rewrite() {
        let store = Arc::new(MemoryStore::new());
        let hkey = HistogramKey {
            source: 1,
            workload: 2,
            context: 3,
        };
        let hcheck = HistogramCheck {
            source: "a".into(),
            workload: "conv1".into(),
            rows: 8,
            cols: 4,
            pixels: 1,
        };
        // A depth that would size an 800 GB vector if decoded naively.
        store.put(
            HistogramArtifact::KIND,
            HistogramArtifact::key_id(&hkey),
            &HistogramArtifact::check_line(&hkey, &hcheck),
            "total=1 flips=0 counts=100000000000:1",
        );
        let cache = HistogramCache::with_store(Some(Arc::clone(&store) as Arc<dyn ArtifactStore>));
        let computed = DepthHistogram::from_parts(&[3, 1], 1, 4).unwrap();
        let value = cache
            .get_or_compute(hkey, hcheck.clone(), || Ok(computed.clone()))
            .unwrap();
        assert_eq!(*value, computed);
        assert_eq!(cache.counters().1, 1, "corrupt payload → fresh compute");
        assert_eq!(store.stats().corrupt, 1);
        let fresh = HistogramCache::with_store(Some(Arc::clone(&store) as Arc<dyn ArtifactStore>));
        fresh
            .get_or_compute(hkey, hcheck, || panic!("rewritten entry expected"))
            .unwrap();
    }

    #[test]
    fn disk_backed_cache_round_trips_all_three_kinds() {
        let dir = std::env::temp_dir().join(format!("read-cache-kinds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store: Arc<dyn ArtifactStore> = Arc::new(DiskStore::new(&dir).unwrap());

        let schedules = ScheduleCache::with_store(Some(Arc::clone(&store)));
        let schedule = schedules
            .get_or_compute(key(1), check("a"), || {
                Ok(ComputeSchedule::baseline(8, 4, 2))
            })
            .unwrap();

        let hists = HistogramCache::with_store(Some(Arc::clone(&store)));
        let hkey = HistogramKey {
            source: 1,
            workload: 2,
            context: 3,
        };
        let hcheck = HistogramCheck {
            source: "a".into(),
            workload: "conv1".into(),
            rows: 8,
            cols: 4,
            pixels: 1,
        };
        let hist = hists
            .get_or_compute(hkey, hcheck.clone(), || {
                Ok(DepthHistogram::from_parts(&[3, 1], 1, 4).unwrap())
            })
            .unwrap();

        let units = UnitCache::with_store(Some(Arc::clone(&store)));
        let ukey = UnitKey { plan: 5, unit: 6 };
        let ucheck = UnitCheck {
            plan: "sig".into(),
            unit: "mc cell=0 trials=0..2".into(),
        };
        let unit = units
            .get_or_compute(ukey, ucheck.clone(), || {
                Ok(UnitResult::McShard {
                    cell: 0,
                    trial_range: 0..2,
                    ters: vec![vec![0.5, 0.25]],
                })
            })
            .unwrap();

        // Fresh caches over the same directory serve every kind bit-exactly
        // without recomputing.
        let store2: Arc<dyn ArtifactStore> = Arc::new(DiskStore::new(&dir).unwrap());
        let s2 = ScheduleCache::with_store(Some(Arc::clone(&store2)));
        assert_eq!(
            *s2.get_or_compute(key(1), check("a"), || panic!("persisted"))
                .unwrap(),
            *schedule
        );
        let h2 = HistogramCache::with_store(Some(Arc::clone(&store2)));
        assert_eq!(
            *h2.get_or_compute(hkey, hcheck, || panic!("persisted"))
                .unwrap(),
            *hist
        );
        let u2 = UnitCache::with_store(Some(Arc::clone(&store2)));
        assert_eq!(
            *u2.get_or_compute(ukey, ucheck, || panic!("persisted"))
                .unwrap(),
            *unit
        );
        assert_eq!(store2.stats().hits, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Check lines must disagree between keys that collide in `key_id` but
    /// differ in any key component — the shared-store analogue of the
    /// in-memory collision verification (array width for schedules, the
    /// simulation context for histograms).
    #[test]
    fn check_lines_cover_every_key_component() {
        let base = key(1);
        let narrower = ScheduleKey {
            array_cols: 8,
            ..base
        };
        assert_ne!(
            ScheduleArtifact::check_line(&base, &check("a")),
            ScheduleArtifact::check_line(&narrower, &check("a")),
            "array width must be part of the schedule check line"
        );
        let hkey = HistogramKey {
            source: 1,
            workload: 2,
            context: 3,
        };
        let other_context = HistogramKey { context: 4, ..hkey };
        let hcheck = HistogramCheck {
            source: "a".into(),
            workload: "conv1".into(),
            rows: 8,
            cols: 4,
            pixels: 1,
        };
        assert_ne!(
            HistogramArtifact::check_line(&hkey, &hcheck),
            HistogramArtifact::check_line(&other_context, &hcheck),
            "the simulation context must be part of the histogram check line"
        );
    }
}
