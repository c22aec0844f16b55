//! Content-addressed artifact stores: the persistence layer behind the
//! pipeline caches.
//!
//! A pipeline produces three classes of expensive, fully deterministic
//! artifacts — optimized schedules, simulated depth histograms, and
//! memoized work-unit results.  Each is identified by a 64-bit content
//! fingerprint plus a human-readable full-key *check line* (the
//! [`crate::cache`] machinery verifies the check behind the hash, so a
//! fingerprint collision is detected rather than served).  An
//! [`ArtifactStore`] holds the text-encoded payloads behind those keys:
//!
//! * [`MemoryStore`] — a process-local map.  Attach one store to several
//!   pipelines ([`crate::ReadPipelineBuilder::store_arc`]) and they share
//!   schedules, histograms and unit results without recomputing.
//! * [`DiskStore`] — an on-disk, versioned, concurrency-safe directory of
//!   fingerprint-keyed entries.  Writes go to a unique temporary file and
//!   are published with an atomic rename, so concurrent writers (threads
//!   *or* processes) always leave a decodable entry; corrupt or
//!   version-mismatched entries, and payloads that do not fit their key,
//!   read as misses (counted in [`StoreStats::corrupt`]) and are rewritten
//!   by the next computation.
//!   Point worker processes ([`crate::SubprocessExecutor`],
//!   [`crate::WorkPlan::serve`]) at a shared directory and optimization and
//!   simulation stop being duplicated across processes and runs entirely.
//!
//! Reports are byte-identical whether an artifact came from memory, disk or
//! a fresh computation: every payload codec round-trips exactly (integer
//! counts, shortest-round-trip floats).
//!
//! # On-disk entry format
//!
//! One entry per file, `<root>/<kind>/<key as 16 hex digits>.entry`:
//!
//! ```text
//! read-artifact v1
//! kind=<artifact kind>
//! check=<full-key check line>
//! ---
//! <payload>
//! ```
//!
//! The format is a stable contract pinned by the
//! `tests/fixtures/artifact_entry.txt` golden fixture; bumping
//! [`ENTRY_VERSION`] makes every existing entry read as a (counted) miss,
//! never an error.

use std::collections::HashMap;
use std::fmt::Debug;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::error::PipelineError;
use crate::wire::{self, bad_wire, escape_wire, Conn, Daemon, Fields, Flow, Handler, LineServer};

/// Version tag of the on-disk entry format.  Stored in every entry header;
/// entries carrying any other version read as misses and are counted in
/// [`StoreStats::corrupt`], so a format change invalidates old store
/// directories without erroring on them.
pub const ENTRY_VERSION: &str = "v1";

const ENTRY_MAGIC: &str = "read-artifact";

/// Effectiveness counters of an [`ArtifactStore`], across all artifact
/// kinds.  Surfaced per pipeline as the `disk_*`/`store_*` fields of
/// [`crate::CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from the store (a computation saved).  [`DiskStore`]
    /// also counts *late* hits here: a `put` that found a racing writer's
    /// identical entry already published keeps that entry (first writer
    /// wins) and counts the redundant write it saved as a hit.
    pub hits: u64,
    /// Lookups the store could not serve (absent key or mismatched check).
    pub misses: u64,
    /// Entries that failed to parse or decode — version mismatches,
    /// truncated writes, garbage payloads.  Each also counts as a miss and
    /// is recomputed and rewritten rather than propagated as an error.
    pub corrupt: u64,
    /// Entries written to the store.
    pub writes: u64,
    /// Orphaned temporary files swept when the store was opened — the
    /// residue of writers that crashed between tmp-write and rename.
    /// Always zero for [`MemoryStore`]; [`DiskStore::new`] removes and
    /// counts them so a long-lived store directory cannot accumulate them
    /// forever.
    pub stale_tmp: u64,
}

/// A content-addressed, concurrency-safe store of text-encoded artifacts.
///
/// Keys are `(kind, 64-bit fingerprint)` pairs; every entry additionally
/// carries the full-key `check` line it was stored under, and a lookup
/// whose check disagrees is a miss (a fingerprint collision, detected
/// rather than served — the same contract as the in-memory caches).
///
/// Implementations must be safe under concurrent `load`/`put` from several
/// threads *and* — for persistent backends — several processes: a racing
/// `put` of the same key may publish either writer's entry (artifacts are
/// deterministic, so both encode the same value), but a reader must never
/// observe a torn entry.
pub trait ArtifactStore: Send + Sync {
    /// Display name of the backend (for logs and debugging).
    fn name(&self) -> String;

    /// Returns the payload stored under `(kind, key)` when its check line
    /// matches `check`, counting a hit; otherwise counts a miss (plus
    /// [`StoreStats::corrupt`] for undecodable entries) and returns `None`.
    fn load(&self, kind: &str, key: u64, check: &str) -> Option<String>;

    /// Stores `payload` under `(kind, key)` with the given check line,
    /// replacing any previous entry.  Best-effort: an I/O failure leaves
    /// the store unchanged (and uncounted) rather than failing the
    /// computation that produced the artifact.
    fn put(&self, kind: &str, key: u64, check: &str, payload: &str);

    /// Reports that the payload `load` returned for `(kind, key)` failed to
    /// decode: evicts the entry so the next computation rewrites it, and
    /// reclassifies the hit `load` counted as a corrupt miss — so
    /// [`StoreStats::hits`] stays "computations actually saved".
    fn note_corrupt(&self, kind: &str, key: u64);

    /// Batched lookup: one [`ArtifactStore::load`] answer per request, in
    /// request order.  The default implementation loops over `load`;
    /// remote backends override it to answer the whole batch in one round
    /// trip ([`RemoteStore`]'s `mget`), which is what makes warm-rerun
    /// prefetches O(batches) instead of O(units).
    fn load_many(&self, requests: &[StoreRequest]) -> Vec<Option<String>> {
        requests
            .iter()
            .map(|r| self.load(&r.kind, r.key, &r.check))
            .collect()
    }

    /// Publishes any buffered writes (a write-behind backend's `mput`);
    /// call at run boundaries.  Default: no-op — `put` is immediate for
    /// the local backends.
    fn flush(&self) {}

    /// Current counters.
    fn stats(&self) -> StoreStats;
}

/// One lookup of an [`ArtifactStore::load_many`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRequest {
    /// Artifact kind (the `kind` argument of [`ArtifactStore::load`]).
    pub kind: String,
    /// 64-bit content fingerprint.
    pub key: u64,
    /// Full-key check line the entry must match.
    pub check: String,
}

#[derive(Debug, Default)]
struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    stale_tmp: AtomicU64,
}

impl StoreCounters {
    /// The [`ArtifactStore::note_corrupt`] accounting: the load that
    /// returned the undecodable payload counted a hit, which was wrong in
    /// hindsight — take it back and count a corrupt miss instead.
    fn reclassify_hit_as_corrupt(&self) {
        let _ = self
            .hits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                Some(h.saturating_sub(1))
            });
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            stale_tmp: self.stale_tmp.load(Ordering::Relaxed),
        }
    }
}

/// A process-local [`ArtifactStore`]: today's in-memory caching behavior,
/// made shareable — attach one `MemoryStore` to several pipelines via
/// [`crate::ReadPipelineBuilder::store_arc`] and they stop duplicating
/// optimization and simulation against each other.
#[derive(Debug, Default)]
pub struct MemoryStore {
    entries: Mutex<HashMap<(String, u64), (String, String)>>,
    counters: StoreCounters,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries currently stored (all kinds).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("store lock").len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ArtifactStore for MemoryStore {
    fn name(&self) -> String {
        "memory".to_string()
    }

    fn load(&self, kind: &str, key: u64, check: &str) -> Option<String> {
        let entries = self.entries.lock().expect("store lock");
        match entries.get(&(kind.to_string(), key)) {
            Some((stored_check, payload)) if stored_check == check => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload.clone())
            }
            _ => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, kind: &str, key: u64, check: &str, payload: &str) {
        self.entries.lock().expect("store lock").insert(
            (kind.to_string(), key),
            (check.to_string(), payload.to_string()),
        );
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
    }

    fn note_corrupt(&self, kind: &str, key: u64) {
        self.entries
            .lock()
            .expect("store lock")
            .remove(&(kind.to_string(), key));
        self.counters.reclassify_hit_as_corrupt();
    }

    fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }
}

/// An on-disk [`ArtifactStore`]: one versioned entry file per artifact
/// under `<root>/<kind>/`, published with atomic tmp-file + rename writes.
///
/// Safe to share between threads and between *processes* (workers pointed
/// at the same directory): a reader sees either a complete previous entry
/// or a complete new one, never a torn write.  Unparseable and
/// version-mismatched entries read as misses — counted in
/// [`StoreStats::corrupt`] — and are replaced by the next computation, so a
/// stale or damaged store directory degrades to a cold cache instead of an
/// error.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    counters: StoreCounters,
}

/// Process-global sequence for temp-file names.  Deliberately NOT
/// per-instance: several `DiskStore`s over one directory in one process
/// (one per pipeline is the normal usage) share the same pid, so a
/// per-instance counter would let two of them derive the same tmp name and
/// stomp each other's half-written file — exactly the torn write the
/// tmp+rename scheme exists to rule out.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl DiskStore {
    /// Opens (creating if necessary) the store rooted at `root`, sweeping
    /// any orphaned `.tmp` files a crashed writer left behind (counted in
    /// [`StoreStats::stale_tmp`]).
    ///
    /// The sweep races benignly with live writers in other processes: a
    /// swept-mid-write tmp file makes that writer's publish fail, which
    /// `put` already absorbs as a best-effort no-op — the artifact is
    /// simply recomputed and rewritten by the next user.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the directory cannot be
    /// created.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, PipelineError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| {
            PipelineError::exec(format!(
                "failed to create artifact store {:?}: {e}",
                root.display()
            ))
        })?;
        let store = DiskStore {
            root,
            counters: StoreCounters::default(),
        };
        let swept = store.sweep_stale_tmp();
        store.counters.stale_tmp.store(swept, Ordering::Relaxed);
        Ok(store)
    }

    /// Removes every `*.tmp` file under the store's kind directories and
    /// returns how many were deleted.
    fn sweep_stale_tmp(&self) -> u64 {
        let mut swept = 0;
        let Ok(kinds) = fs::read_dir(&self.root) else {
            return 0;
        };
        for kind in kinds.flatten() {
            let dir = kind.path();
            if !dir.is_dir() {
                continue;
            }
            let Ok(entries) = fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|x| x == "tmp") && fs::remove_file(&path).is_ok() {
                    swept += 1;
                }
            }
        }
        swept
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry path of `(kind, key)` — exposed for tests pinning the
    /// on-disk layout.  `None` unless `kind` is a plain name (non-empty
    /// ASCII letters, digits, `_` or `-`): kinds arrive over the store
    /// daemon's wire, and any other spelling could name a path outside the
    /// root.  A store never touches the filesystem for such a kind: it
    /// loads as a counted miss and is never written or deleted.
    pub fn entry_path(&self, kind: &str, key: u64) -> Option<PathBuf> {
        let plain = !kind.is_empty()
            && kind
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
        plain.then(|| self.root.join(kind).join(format!("{key:016x}.entry")))
    }
}

impl ArtifactStore for DiskStore {
    fn name(&self) -> String {
        format!("disk[{}]", self.root.display())
    }

    fn load(&self, kind: &str, key: u64, check: &str) -> Option<String> {
        let content = match self.entry_path(kind, key).map(fs::read_to_string) {
            Some(Ok(content)) => content,
            _ => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_entry(&content) {
            Some((entry_kind, entry_check, payload)) if entry_kind == kind => {
                if entry_check == escape_check(check) {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    Some(payload.to_string())
                } else {
                    // A fingerprint collision with a foreign full key: the
                    // entry is healthy, it just is not ours.
                    self.counters.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
            _ => {
                // Version mismatch, truncated write, or garbage: a counted
                // miss, never an error.  The entry is left in place; the
                // recomputed artifact's put() replaces it atomically.
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, kind: &str, key: u64, check: &str, payload: &str) {
        let Some(path) = self.entry_path(kind, key) else {
            return;
        };
        let Some(dir) = path.parent() else { return };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        // Unique tmp name per (process, write): concurrent writers never
        // stomp each other's half-written file, and the rename publishes a
        // complete entry atomically.
        let tmp = dir.join(format!(
            ".{key:016x}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Every exit from here on — error, late hit, even a panic in the
        // entry codec — removes the tmp file unless the rename consumed it;
        // only a crash of the whole process can strand one, and those are
        // swept (and counted) by the next [`DiskStore::new`] over this root.
        let guard = TmpGuard { path: &tmp };
        let written = fs::File::create(&tmp).and_then(|file| {
            let mut out = BufWriter::new(file);
            write_entry(&mut out, kind, check, payload)?;
            out.flush()
        });
        if written.is_err() {
            return;
        }
        // First-writer-wins: a racing writer (thread or process) may have
        // published this artifact while we computed and encoded ours.  The
        // values are deterministic, so renaming over theirs would only burn
        // a redundant write — re-check immediately before the rename and,
        // when a healthy matching entry already exists, keep it and count a
        // late hit instead of a write.
        if let Ok(content) = fs::read_to_string(&path) {
            if let Some((entry_kind, entry_check, _)) = parse_entry(&content) {
                if entry_kind == kind && entry_check == escape_check(check) {
                    self.counters.hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        if fs::rename(&tmp, &path).is_ok() {
            guard.disarm();
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_corrupt(&self, kind: &str, key: u64) {
        let Some(path) = self.entry_path(kind, key) else {
            return;
        };
        let _ = fs::remove_file(path);
        self.counters.reclassify_hit_as_corrupt();
    }

    fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }
}

/// Removes a pending tmp file on every exit path of [`DiskStore::put`]
/// except the successful rename (which consumes the file).  `disarm` after
/// the rename; dropping armed — early return, error, panic — deletes it.
struct TmpGuard<'p> {
    path: &'p Path,
}

impl TmpGuard<'_> {
    fn disarm(self) {
        std::mem::forget(self);
    }
}

impl Drop for TmpGuard<'_> {
    fn drop(&mut self) {
        let _ = fs::remove_file(self.path);
    }
}

/// Minimal injective escaping that keeps a check line on one line (the
/// entry header is line-oriented).  Check lines come pre-escaped by the
/// artifact kinds for their free-text fields; this guards the framing.
fn escape_check(check: &str) -> String {
    check
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Writes a complete entry file — the byte layout pinned by the
/// `tests/fixtures/artifact_entry.txt` golden fixture — passing the payload
/// through rather than copying it into one string with the header.  Behind
/// a [`BufWriter`], an entry smaller than its buffer leaves in one write.
fn write_entry(out: &mut impl Write, kind: &str, check: &str, payload: &str) -> io::Result<()> {
    write!(
        out,
        "{ENTRY_MAGIC} {ENTRY_VERSION}\nkind={kind}\ncheck={}\n---\n",
        escape_check(check)
    )?;
    out.write_all(payload.as_bytes())?;
    out.write_all(b"\n")
}

/// Parses an entry file into `(kind, escaped check, payload)`; `None` for
/// anything that is not a well-formed current-version entry.
fn parse_entry(content: &str) -> Option<(&str, &str, &str)> {
    let rest = content.strip_prefix(ENTRY_MAGIC)?;
    let rest = rest.strip_prefix(' ')?;
    let (version, rest) = rest.split_once('\n')?;
    if version != ENTRY_VERSION {
        return None;
    }
    let rest = rest.strip_prefix("kind=")?;
    let (kind, rest) = rest.split_once('\n')?;
    let rest = rest.strip_prefix("check=")?;
    let (check, rest) = rest.split_once('\n')?;
    let payload = rest.strip_prefix("---\n")?;
    let payload = payload.strip_suffix('\n')?;
    Some((kind, check, payload))
}

// ---------------------------------------------------------------------------
// Remote store: a line-delimited TCP protocol over any ArtifactStore
// ---------------------------------------------------------------------------

/// An [`ArtifactStore`] served by a remote [`StoreServer`] over TCP: the
/// shared artifact namespace of a worker fleet.  Cold workers pointed at a
/// warm store daemon recompute nothing, and every worker's write-through
/// publishes fleet-wide — the multi-machine form of the shared
/// [`DiskStore`] directory.
///
/// The client holds one lazily-established connection (reconnecting once
/// per operation on a broken pipe) and keeps its own [`StoreStats`]: a
/// transport failure degrades the lookup to a counted miss — the store
/// contract is best-effort, so a dead daemon slows a fleet down but never
/// fails it.
///
/// I/O is *batched*: `put` appends to a write-behind buffer that is
/// published as one `mput` line when 32 puts or 64 KiB of check and
/// payload bytes have accumulated (and on
/// [`ArtifactStore::flush`] — called at run boundaries and when a worker
/// session ends), and [`ArtifactStore::load_many`] answers a whole
/// batch with one `mget` line.  Reads are read-your-writes: a `load`
/// checks the unflushed buffer first, so buffering is invisible to the
/// writing process; other clients observe the writes after the flush.
#[derive(Debug)]
pub struct RemoteStore {
    addr: String,
    conn: Mutex<Option<BufReader<TcpStream>>>,
    counters: StoreCounters,
    buffer: Mutex<Vec<BufferedPut>>,
}

#[derive(Debug)]
struct BufferedPut {
    kind: String,
    key: u64,
    check: String,
    payload: String,
}

/// Decodes the `kind= key= check= [payload=]` entries of a daemon request
/// line: one for `get`/`put`, `count=<n>` then `n` for `mget`/`mput`.
/// Every field is one escaped token, so position is identity.
fn decode_entries(
    line: &str,
    with_payload: bool,
) -> Result<Vec<(StoreRequest, String)>, PipelineError> {
    let mut fields = Fields::new(line, bad_wire);
    let batch = matches!(fields.next(), Some("mget" | "mput"));
    let count = if batch { fields.parse("count")? } else { 1 };
    let entries = (0..count)
        .map(|_| {
            let request = StoreRequest {
                kind: fields.text("kind")?,
                key: fields.hex("key")?,
                check: fields.text("check")?,
            };
            match with_payload {
                true => Ok((request, fields.text("payload")?)),
                false => Ok((request, String::new())),
            }
        })
        .collect::<Result<Vec<_>, PipelineError>>()?;
    fields.end()?;
    Ok(entries)
}

/// Entries per `mget` line: bounds the line and its reply without changing
/// observable behavior.
const BATCH_CHUNK: usize = 64;

/// Buffered puts a [`RemoteStore`] publishes as one `mput` line.
const WRITE_BEHIND: usize = 32;

/// Buffered check and payload bytes a [`RemoteStore`] publishes at,
/// whatever the count: bounds each `mput` line.
const WRITE_BEHIND_BYTES: usize = 64 * 1024;

/// Read and write timeout of one [`RemoteStore`] round trip.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl RemoteStore {
    /// A client for the store daemon at `addr` (e.g. `127.0.0.1:7431`).
    /// Does not connect until first use; use [`RemoteStore::connect`] to
    /// fail fast on an unreachable daemon.
    pub fn new(addr: impl Into<String>) -> RemoteStore {
        RemoteStore {
            addr: addr.into(),
            conn: Mutex::new(None),
            counters: StoreCounters::default(),
            buffer: Mutex::new(Vec::new()),
        }
    }

    /// A client for the daemon at `addr`, validated with a `ping` round
    /// trip.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the daemon is unreachable or
    /// answers the ping with anything but `ok pong`.
    pub fn connect(addr: impl Into<String>) -> Result<RemoteStore, PipelineError> {
        let store = RemoteStore::new(addr);
        store.ping()?;
        Ok(store)
    }

    /// The daemon address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn open_connection(&self) -> std::io::Result<BufReader<TcpStream>> {
        let stream = wire::connect(&*self.addr, IO_TIMEOUT)?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(BufReader::new(stream))
    }

    fn try_round_trip(
        conn: &mut Option<BufReader<TcpStream>>,
        line: &str,
    ) -> std::io::Result<String> {
        let reader = conn.as_mut().expect("caller ensures a connection");
        writeln!(reader.get_ref(), "{line}")?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "store daemon closed the connection",
            ));
        }
        // Trim in place: a hit's reply carries its whole payload, and
        // `unescape` makes the only copy of it.
        response.truncate(response.trim_end().len());
        let leading = response.len() - response.trim_start().len();
        response.drain(..leading);
        Ok(response)
    }

    /// One request/response exchange, transparently reconnecting once — a
    /// daemon restart between operations otherwise turns the first use of
    /// the stale connection into a spurious miss.
    fn round_trip(&self, line: &str) -> Result<String, PipelineError> {
        let mut conn = self.conn.lock().unwrap_or_else(|p| p.into_inner());
        let mut failure = String::new();
        for _ in 0..2 {
            if conn.is_none() {
                match self.open_connection() {
                    Ok(fresh) => *conn = Some(fresh),
                    Err(e) => {
                        failure = format!("connect failed: {e}");
                        continue;
                    }
                }
            }
            match Self::try_round_trip(&mut conn, line) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    *conn = None;
                    failure = e.to_string();
                }
            }
        }
        Err(PipelineError::exec(format!(
            "remote store {}: {failure}",
            self.addr
        )))
    }

    /// Liveness check against the daemon.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure or an
    /// unexpected response.
    pub fn ping(&self) -> Result<(), PipelineError> {
        match self.round_trip("ping")?.as_str() {
            "ok pong" => Ok(()),
            other => Err(PipelineError::exec(format!(
                "remote store {}: unexpected ping response {other:?}",
                self.addr
            ))),
        }
    }

    /// The *daemon's* aggregate counters (every client's traffic), as
    /// opposed to [`ArtifactStore::stats`] which reports this client's own
    /// view.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport or protocol failure.
    pub fn daemon_stats(&self) -> Result<StoreStats, PipelineError> {
        let response = self.round_trip("stats")?;
        let mut fields = Fields::new(&response, bad_wire);
        if fields.next() != Some("stats") {
            return Err(PipelineError::exec(format!(
                "remote store {}: unexpected stats response {response:?}",
                self.addr
            )));
        }
        Ok(StoreStats {
            hits: fields.parse("hits")?,
            misses: fields.parse("misses")?,
            corrupt: fields.parse("corrupt")?,
            writes: fields.parse("writes")?,
            stale_tmp: fields.parse("stale_tmp")?,
        })
    }

    /// Flushes buffered writes, then asks the daemon to stop (see
    /// [`StoreServer`] for what stopping waits for).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] on transport failure.
    pub fn shutdown_daemon(&self) -> Result<(), PipelineError> {
        self.flush();
        let response = self.round_trip("shutdown")?;
        if response == "ok shutdown" {
            Ok(())
        } else {
            Err(PipelineError::exec(format!(
                "remote store {}: unexpected shutdown response {response:?}",
                self.addr
            )))
        }
    }

    /// Publishes `pending` (at most one full write-behind buffer) as one
    /// `mput` line.  Best-effort like `put`: a failed batch is dropped
    /// (uncounted) and its artifacts are recomputed by whoever needs them
    /// next.
    fn publish(&self, pending: Vec<BufferedPut>) {
        let mut line = format!("mput count={}", pending.len());
        for entry in &pending {
            line.push_str(&format!(
                " kind={} key={:016x} check={} payload={}",
                escape_wire(&entry.kind),
                entry.key,
                escape_wire(&entry.check),
                escape_wire(&entry.payload)
            ));
        }
        let expected = format!("ok count={}", pending.len());
        if matches!(self.round_trip(&line).as_deref(), Ok(r) if r == expected) {
            self.counters
                .writes
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
        }
    }

    /// Serves `(kind, key, check)` from the unflushed write-behind buffer
    /// (read-your-writes), newest entry first.
    fn buffered(&self, kind: &str, key: u64, check: &str) -> Option<String> {
        let buffer = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
        buffer
            .iter()
            .rev()
            .find(|e| e.key == key && e.kind == kind && e.check == check)
            .map(|e| e.payload.clone())
    }

    /// Parses an `mres count=<n> {hit payload=<esc> | miss}×n` response.
    fn parse_mres(response: &str, expect: usize) -> Option<Vec<Option<String>>> {
        let mut fields = Fields::new(response, bad_wire);
        if fields.next()? != "mres" || fields.parse::<usize>("count").ok()? != expect {
            return None;
        }
        let mut out = Vec::with_capacity(expect);
        for _ in 0..expect {
            out.push(match fields.next()? {
                "miss" => None,
                "hit" => Some(fields.text("payload").ok()?),
                _ => return None,
            });
        }
        fields.end().ok().map(|()| out)
    }
}

impl Drop for RemoteStore {
    fn drop(&mut self) {
        // Last-chance publish of buffered writes; run boundaries should
        // already have flushed.
        let pending = std::mem::take(self.buffer.get_mut().unwrap_or_else(|p| p.into_inner()));
        if !pending.is_empty() {
            self.publish(pending);
        }
    }
}

impl ArtifactStore for RemoteStore {
    fn name(&self) -> String {
        format!("remote[{}]", self.addr)
    }

    fn load(&self, kind: &str, key: u64, check: &str) -> Option<String> {
        if let Some(payload) = self.buffered(kind, key, check) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Some(payload);
        }
        let line = format!(
            "get kind={} key={key:016x} check={}",
            escape_wire(kind),
            escape_wire(check)
        );
        let response = match self.round_trip(&line) {
            Ok(response) => response,
            Err(_) => {
                // Transport failure degrades to a miss: the artifact is
                // recomputed, never an error.
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if response == "miss" {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut fields = Fields::new(&response, bad_wire);
        let payload = match fields.next() {
            Some("hit") => fields.text("payload").ok(),
            _ => None,
        };
        match payload {
            Some(payload) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                // A garbled response is treated like a corrupt entry.
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, kind: &str, key: u64, check: &str, payload: &str) {
        let full = {
            let mut buffer = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
            buffer.push(BufferedPut {
                kind: kind.to_string(),
                key,
                check: check.to_string(),
                payload: payload.to_string(),
            });
            let bytes: usize = buffer.iter().map(|e| e.check.len() + e.payload.len()).sum();
            (buffer.len() >= WRITE_BEHIND || bytes >= WRITE_BEHIND_BYTES)
                .then(|| std::mem::take(&mut *buffer))
        };
        if let Some(pending) = full {
            self.publish(pending);
        }
    }

    fn note_corrupt(&self, kind: &str, key: u64) {
        {
            // Evict unflushed buffered writes too — the payload failed to
            // decode, so read-your-writes must not re-serve it.
            let mut buffer = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
            buffer.retain(|e| !(e.key == key && e.kind == kind));
        }
        let line = format!("corrupt kind={} key={key:016x}", escape_wire(kind));
        let _ = self.round_trip(&line);
        self.counters.reclassify_hit_as_corrupt();
    }

    fn load_many(&self, requests: &[StoreRequest]) -> Vec<Option<String>> {
        // Read-your-writes first; the rest in `mget` batches.
        let mut answers: Vec<Option<String>> = requests
            .iter()
            .map(|r| self.buffered(&r.kind, r.key, &r.check))
            .collect();
        let unresolved: Vec<usize> = (0..requests.len())
            .filter(|&i| answers[i].is_none())
            .collect();
        for chunk in unresolved.chunks(BATCH_CHUNK) {
            let mut line = format!("mget count={}", chunk.len());
            for &i in chunk {
                let r = &requests[i];
                line.push_str(&format!(
                    " kind={} key={:016x} check={}",
                    escape_wire(&r.kind),
                    r.key,
                    escape_wire(&r.check)
                ));
            }
            // A transport/protocol failure leaves the whole chunk as
            // counted misses, same as a single get.
            let batch = self
                .round_trip(&line)
                .ok()
                .and_then(|response| Self::parse_mres(&response, chunk.len()));
            if let Some(batch) = batch {
                for (&i, answer) in chunk.iter().zip(batch) {
                    answers[i] = answer;
                }
            }
        }
        for answer in &answers {
            let counter = if answer.is_some() {
                &self.counters.hits
            } else {
                &self.counters.misses
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        answers
    }

    fn flush(&self) {
        let pending = {
            let mut buffer = self.buffer.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *buffer)
        };
        if !pending.is_empty() {
            self.publish(pending);
        }
    }

    fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }
}

/// The store daemon: serves the remote-store wire protocol over TCP,
/// backed by any [`ArtifactStore`] (typically a [`DiskStore`], making the
/// fleet's shared namespace persistent).  One handler thread per
/// connection; the in-band `shutdown` command stops it: connections waiting
/// for their next line are closed at once, and a connection in the middle
/// of a line finishes that line and its reply first.
///
/// Wire grammar (one request line, one response line; free-text fields use
/// the repo's `\s`/`\n` wire escaping, fields come in the order shown):
///
/// ```text
/// ping                                                   → ok pong
/// get kind=<esc> key=<16 hex> check=<esc>                → hit payload=<esc> | miss
/// put kind=<esc> key=<16 hex> check=<esc> payload=<esc>  → ok
/// mget count=<n> {kind=<esc> key=<16 hex> check=<esc>}×n → mres count=<n> {hit payload=<esc> | miss}×n
/// mput count=<n> {kind=<esc> key=<16 hex> check=<esc> payload=<esc>}×n
///                                                        → ok count=<n>
/// corrupt kind=<esc> key=<16 hex>                        → ok
/// stats                                                  → stats hits=N misses=N corrupt=N writes=N stale_tmp=N
/// shutdown                                               → ok shutdown
/// anything else                                          → err msg=<esc>
/// ```
///
/// The batched `mget`/`mput` lines answer (or publish) `n` entries in one
/// round trip.  [`RemoteStore`] speaks the client side.
pub struct StoreServer(LineServer<StoreDaemon>);

struct StoreDaemon {
    store: Arc<dyn ArtifactStore>,
}

impl StoreServer {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Exec`] when the socket cannot be bound.
    pub fn bind(addr: &str, store: Arc<dyn ArtifactStore>) -> Result<StoreServer, PipelineError> {
        LineServer::bind(addr, StoreDaemon { store }).map(StoreServer)
    }

    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Serves connections until a `shutdown` command arrives, then stops
    /// as described on [`StoreServer`].
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
    /// Propagates [`StoreServer::bind`] failures.
    pub fn spawn(addr: &str, store: Arc<dyn ArtifactStore>) -> Result<StoreHandle, PipelineError> {
        let server = StoreServer::bind(addr, store)?;
        Ok(StoreHandle(Daemon::spawn(server.local_addr(), move || {
            server.run()
        })))
    }
}

impl Handler for StoreDaemon {
    fn serve(&self, conn: &mut Conn<'_>) {
        conn.answer_lines(|line, out| self.dispatch(line, out));
    }
}

impl StoreDaemon {
    /// Answers one protocol line.
    fn dispatch(&self, line: &str, writer: &mut impl Write) -> Flow {
        let reply_err = |writer: &mut dyn Write, msg: &str| {
            let _ = writeln!(writer, "err msg={}", escape_wire(msg));
        };
        match line.split_whitespace().next() {
            Some("ping") => {
                let _ = writeln!(writer, "ok pong");
            }
            Some("stats") => {
                let s = self.store.stats();
                let _ = writeln!(
                    writer,
                    "stats hits={} misses={} corrupt={} writes={} stale_tmp={}",
                    s.hits, s.misses, s.corrupt, s.writes, s.stale_tmp
                );
            }
            Some("shutdown") => {
                let _ = writeln!(writer, "ok shutdown");
                return Flow::Stop;
            }
            Some("get") => match decode_entries(line, false).as_deref() {
                Ok([(r, _)]) => match self.store.load(&r.kind, r.key, &r.check) {
                    Some(payload) => {
                        let _ = writeln!(writer, "hit payload={}", escape_wire(&payload));
                    }
                    None => {
                        let _ = writeln!(writer, "miss");
                    }
                },
                _ => reply_err(writer, &format!("malformed get {line:?}")),
            },
            Some("put") => match decode_entries(line, true).as_deref() {
                Ok([(r, payload)]) => {
                    self.store.put(&r.kind, r.key, &r.check, payload);
                    let _ = writeln!(writer, "ok");
                }
                _ => reply_err(writer, &format!("malformed put {line:?}")),
            },
            Some("mget") => match decode_entries(line, false) {
                Ok(entries) => {
                    let requests: Vec<StoreRequest> = entries.into_iter().map(|(r, _)| r).collect();
                    let answers = self.store.load_many(&requests);
                    let mut response = format!("mres count={}", answers.len());
                    for answer in answers {
                        match answer {
                            Some(payload) => {
                                response.push_str(" hit payload=");
                                response.push_str(&escape_wire(&payload));
                            }
                            None => response.push_str(" miss"),
                        }
                    }
                    let _ = writeln!(writer, "{response}");
                }
                Err(_) => reply_err(writer, &format!("malformed mget {line:?}")),
            },
            Some("mput") => match decode_entries(line, true) {
                Ok(entries) => {
                    let count = entries.len();
                    for (r, payload) in entries {
                        self.store.put(&r.kind, r.key, &r.check, &payload);
                    }
                    let _ = writeln!(writer, "ok count={count}");
                }
                Err(_) => reply_err(writer, &format!("malformed mput {line:?}")),
            },
            Some("corrupt") => {
                let mut fields = Fields::new(line, bad_wire);
                fields.next();
                let decoded = (fields.text("kind"), fields.hex("key"), fields.end());
                match decoded {
                    (Ok(kind), Ok(key), Ok(())) => {
                        self.store.note_corrupt(&kind, key);
                        let _ = writeln!(writer, "ok");
                    }
                    _ => reply_err(writer, &format!("malformed corrupt {line:?}")),
                }
            }
            _ => reply_err(writer, "unknown command"),
        }
        Flow::Continue
    }
}

/// Handle to a daemon spawned with [`StoreServer::spawn`].
pub struct StoreHandle(Daemon);

impl StoreHandle {
    /// The daemon's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr
    }

    /// A [`RemoteStore`] client connected to this daemon.
    pub fn client(&self) -> RemoteStore {
        RemoteStore::new(self.0.addr.to_string())
    }

    /// Waits for the daemon to exit (send `shutdown` first — e.g.
    /// [`RemoteStore::shutdown_daemon`] — or this blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the server's exit result; a panicked server thread
    /// surfaces as [`PipelineError::Exec`].
    pub fn join(self) -> Result<(), PipelineError> {
        self.0.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "read-store-test-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        assert_eq!(store.load("schedule", 7, "check-a"), None);
        store.put("schedule", 7, "check-a", "groups=0@0");
        assert_eq!(
            store.load("schedule", 7, "check-a").as_deref(),
            Some("groups=0@0")
        );
        // A mismatched check is a miss, not the foreign payload.
        assert_eq!(store.load("schedule", 7, "check-b"), None);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 2,
                corrupt: 0,
                writes: 1,
                stale_tmp: 0
            }
        );
        store.note_corrupt("schedule", 7);
        assert!(store.is_empty());
        // The hit that preceded note_corrupt is reclassified: hits count
        // computations actually saved, the bad load becomes a corrupt miss.
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 0,
                misses: 3,
                corrupt: 1,
                writes: 1,
                stale_tmp: 0
            }
        );
    }

    #[test]
    fn disk_store_round_trips_and_persists() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::new(&dir).unwrap();
        assert!(store.name().starts_with("disk["));
        store.put("histogram", 0xABCD, "src rows=4", "total=0 flips=0 counts=");
        assert_eq!(
            store.load("histogram", 0xABCD, "src rows=4").as_deref(),
            Some("total=0 flips=0 counts=")
        );
        assert_eq!(store.load("histogram", 0xABCD, "other"), None);
        assert_eq!(store.load("histogram", 0x1234, "src rows=4"), None);

        // A second store instance over the same directory sees the entry —
        // the cross-process persistence contract.
        let reopened = DiskStore::new(&dir).unwrap();
        assert_eq!(
            reopened.load("histogram", 0xABCD, "src rows=4").as_deref(),
            Some("total=0 flips=0 counts=")
        );
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 2,
                corrupt: 0,
                writes: 1,
                stale_tmp: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_and_garbage_read_as_counted_misses() {
        let dir = temp_dir("versions");
        let store = DiskStore::new(&dir).unwrap();
        let path = store.entry_path("schedule", 5).unwrap();
        fs::create_dir_all(path.parent().unwrap()).unwrap();

        // A future-versioned entry: miss + corrupt, never an error.
        fs::write(
            &path,
            "read-artifact v2\nkind=schedule\ncheck=c\n---\npayload\n",
        )
        .unwrap();
        assert_eq!(store.load("schedule", 5, "c"), None);
        assert_eq!(store.stats().corrupt, 1);

        // Garbage: same.
        fs::write(&path, "not an entry at all").unwrap();
        assert_eq!(store.load("schedule", 5, "c"), None);
        assert_eq!(store.stats().corrupt, 2);

        // A put() replaces the damaged entry and the next load hits.
        store.put("schedule", 5, "c", "groups=");
        assert_eq!(store.load("schedule", 5, "c").as_deref(), Some("groups="));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_identical_put_counts_a_late_hit_not_a_write() {
        let dir = temp_dir("late-hit");
        let store = DiskStore::new(&dir).unwrap();
        store.put("unit", 9, "check", "payload");
        // The "losing" writer of a same-artifact race: the entry is already
        // published, so the second put keeps it and counts a late hit.
        store.put("unit", 9, "check", "payload");
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 0,
                corrupt: 0,
                writes: 1,
                stale_tmp: 0
            }
        );
        // A *different* full key under the same fingerprint is not a late
        // hit — the entry genuinely changes, so the rename goes through.
        store.put("unit", 9, "other-check", "other-payload");
        assert_eq!(store.stats().writes, 2);
        assert_eq!(store.stats().hits, 1);
        assert_eq!(
            store.load("unit", 9, "other-check").as_deref(),
            Some("other-payload")
        );
        // No stray tmp files survive the late-hit path.
        let stray: Vec<_> = fs::read_dir(dir.join("unit"))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(stray.is_empty(), "late-hit put must clean its tmp file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_survive_multiline_payloads_and_tricky_checks() {
        let dir = temp_dir("payloads");
        let store = DiskStore::new(&dir).unwrap();
        let check = "line\nbreak \\ and spaces";
        let payload = "first line\nsecond line";
        store.put("unit", 1, check, payload);
        assert_eq!(store.load("unit", 1, check).as_deref(), Some(payload));
        assert_eq!(store.load("unit", 1, "line\nbreak"), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_a_store_sweeps_and_counts_stale_tmp_files() {
        let dir = temp_dir("stale-tmp");
        {
            let store = DiskStore::new(&dir).unwrap();
            store.put("unit", 1, "check", "payload");
            assert_eq!(store.stats().stale_tmp, 0, "fresh store has no orphans");
        }
        // Simulate two writers that crashed between tmp-write and rename.
        let kind_dir = dir.join("unit");
        fs::write(kind_dir.join(".dead1.tmp"), "half an entry").unwrap();
        fs::write(kind_dir.join(".dead2.tmp"), "").unwrap();

        let reopened = DiskStore::new(&dir).unwrap();
        assert_eq!(reopened.stats().stale_tmp, 2);
        assert!(!kind_dir.join(".dead1.tmp").exists());
        assert!(!kind_dir.join(".dead2.tmp").exists());
        // Healthy entries are untouched by the sweep.
        assert_eq!(
            reopened.load("unit", 1, "check").as_deref(),
            Some("payload")
        );
        // A third open finds nothing left to sweep.
        assert_eq!(DiskStore::new(&dir).unwrap().stats().stale_tmp, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remote_store_round_trips_through_a_daemon() {
        let dir = temp_dir("remote");
        let disk = Arc::new(DiskStore::new(&dir).unwrap()) as Arc<dyn ArtifactStore>;
        let handle = StoreServer::spawn("127.0.0.1:0", Arc::clone(&disk)).unwrap();
        let remote = RemoteStore::connect(handle.addr().to_string()).unwrap();
        assert!(remote.name().starts_with("remote["));

        assert_eq!(remote.load("unit", 7, "check a"), None);
        remote.put("unit", 7, "check a", "payload with\nnewline and spaces");
        // Served read-your-writes from the unflushed write-behind buffer.
        assert_eq!(
            remote.load("unit", 7, "check a").as_deref(),
            Some("payload with\nnewline and spaces")
        );
        // Mismatched check is a miss, exactly like the local backends.
        assert_eq!(remote.load("unit", 7, "check b"), None);
        // Empty payloads survive the wire framing.
        remote.put("unit", 8, "c", "");
        assert_eq!(remote.load("unit", 8, "c").as_deref(), Some(""));

        // Writes count when the buffer publishes (one mput round trip).
        assert_eq!(remote.stats().writes, 0, "buffered, not yet published");
        remote.flush();

        // Client-side counters reflect this client's traffic...
        assert_eq!(
            remote.stats(),
            StoreStats {
                hits: 2,
                misses: 2,
                corrupt: 0,
                writes: 2,
                stale_tmp: 0
            }
        );
        // ...daemon stats reflect the backing store's.
        let daemon = remote.daemon_stats().unwrap();
        assert_eq!(daemon, disk.stats());
        assert_eq!(daemon.writes, 2);

        // note_corrupt evicts daemon-side; the next load misses.
        remote.note_corrupt("unit", 7);
        assert_eq!(remote.load("unit", 7, "check a"), None);

        // A second client sees the first client's entries: the shared
        // namespace contract.
        let second = handle.client();
        assert_eq!(second.load("unit", 8, "c").as_deref(), Some(""));

        remote.shutdown_daemon().unwrap();
        handle.join().unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remote_store_batches_load_many_across_chunks() {
        let backing = Arc::new(MemoryStore::new());
        let handle = StoreServer::spawn(
            "127.0.0.1:0",
            Arc::clone(&backing) as Arc<dyn ArtifactStore>,
        )
        .unwrap();
        let remote = handle.client();

        // Enough entries to span more than one BATCH_CHUNK `mget` line (the
        // puts go out as `mput` lines of at most WRITE_BEHIND entries).
        let total = BATCH_CHUNK + 9;
        for i in 0..total as u64 {
            remote.put("unit", i, "check", &format!("payload {i}"));
        }
        remote.flush();
        assert_eq!(backing.len(), total);
        assert_eq!(remote.stats().writes as usize, total);

        // A mixed batch: present keys with the right check hit, wrong
        // checks and absent keys miss, positionally.
        let requests: Vec<StoreRequest> = (0..total as u64 + 4)
            .map(|i| StoreRequest {
                kind: "unit".to_string(),
                key: i,
                check: if i % 2 == 0 { "check" } else { "wrong" }.to_string(),
            })
            .collect();
        let answers = remote.load_many(&requests);
        assert_eq!(answers.len(), requests.len());
        let mut hits = 0u64;
        for (i, answer) in answers.iter().enumerate() {
            if i < total && i % 2 == 0 {
                assert_eq!(answer.as_deref(), Some(format!("payload {i}").as_str()));
                hits += 1;
            } else {
                assert!(answer.is_none(), "entry {i} must miss");
            }
        }
        let stats = remote.stats();
        assert_eq!(stats.hits, hits);
        assert_eq!(stats.misses, requests.len() as u64 - hits);

        remote.shutdown_daemon().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn load_many_serves_buffered_writes_without_a_daemon() {
        // Bind-then-drop guarantees a dead port: only the write-behind
        // buffer can answer, everything else degrades to counted misses.
        let dead_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let remote = RemoteStore::new(&dead_addr);
        remote.put("unit", 1, "c", "from the buffer");
        let answers = remote.load_many(&[
            StoreRequest {
                kind: "unit".to_string(),
                key: 1,
                check: "c".to_string(),
            },
            StoreRequest {
                kind: "unit".to_string(),
                key: 2,
                check: "c".to_string(),
            },
        ]);
        assert_eq!(answers[0].as_deref(), Some("from the buffer"));
        assert_eq!(answers[1], None);
        assert_eq!(remote.stats().hits, 1);
        assert_eq!(remote.stats().misses, 1);
    }

    #[test]
    fn write_behind_publishes_at_capacity_and_on_drop() {
        // (payload of every put, puts that fill the buffer): the count
        // trigger, then the byte trigger (3 x 30,000 bytes >= 64 KiB).
        let cases = [
            ("payload".to_string(), WRITE_BEHIND),
            ("x".repeat(30_000), 3),
        ];
        for (payload, puts) in cases {
            let backing = Arc::new(MemoryStore::new());
            let handle = StoreServer::spawn(
                "127.0.0.1:0",
                Arc::clone(&backing) as Arc<dyn ArtifactStore>,
            )
            .unwrap();
            let capacity = puts as u64;
            {
                let remote = handle.client();
                for key in 1..capacity {
                    remote.put("unit", key, "c", &payload);
                }
                assert_eq!(backing.len(), 0, "below capacity: buffered");
                remote.put("unit", capacity, "c", &payload);
                assert_eq!(
                    backing.len(),
                    puts,
                    "capacity reached: one mput publishes the whole buffer"
                );
                remote.put("unit", capacity + 1, "c", "tail");
                assert_eq!(backing.len(), puts, "tail write buffered again");
                assert_eq!(remote.stats().writes, capacity);
                // Dropping the client publishes the leftover buffer.
            }
            assert_eq!(backing.len(), puts + 1);
            handle.client().shutdown_daemon().unwrap();
            handle.join().unwrap();
        }
    }

    #[test]
    fn kept_open_round_trips_are_not_paced_by_delayed_acks() {
        // Bug pin: with Nagle on, a request's newline (a segment of its
        // own) waited for the daemon's delayed ACK, about 44 ms per round
        // trip on the client's kept-open connection.
        let handle = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new()) as _).unwrap();
        let remote = handle.client();
        let forty_loads = |key| {
            let start = Instant::now();
            for _ in 0..40 {
                remote.load("unit", key, "c");
            }
            start.elapsed()
        };
        let misses = forty_loads(1);
        assert!(misses < Duration::from_secs(1), "40 misses took {misses:?}");
        // 100,000 bytes in 4-byte characters: the unoptimized test build
        // escapes and splits per character, and the stall is per round trip.
        remote.put("unit", 2, "c", &"\u{1f980}".repeat(25_000));
        remote.flush();
        let hits = forty_loads(2);
        assert!(hits < Duration::from_secs(1), "40 hits took {hits:?}");
        let stats = remote.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (40, 40, 1));
        remote.shutdown_daemon().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn store_daemon_answers_batched_wire_lines_positionally() {
        let handle = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new()) as _).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |line: &str| {
            writeln!(&stream, "{line}").unwrap();
            (&stream).flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response.trim_end_matches('\n').to_string()
        };
        assert_eq!(
            ask(
                "mput count=2 kind=unit key=0000000000000001 check=c payload=one\\stwo \
                 kind=unit key=0000000000000002 check=c payload="
            ),
            "ok count=2"
        );
        // Answers come back positionally: hit, miss, hit-with-empty-payload.
        assert_eq!(
            ask("mget count=3 kind=unit key=0000000000000001 check=c \
                 kind=unit key=0000000000000003 check=c \
                 kind=unit key=0000000000000002 check=c"),
            "mres count=3 hit payload=one\\stwo miss hit payload="
        );
        // Truncated batches, trailing tokens and bad keys are rejected
        // in-band; the connection survives.
        assert!(ask("mget count=2 kind=unit key=0000000000000001 check=c").starts_with("err msg="));
        assert!(
            ask("mget count=1 kind=unit key=0000000000000001 check=c extra=1")
                .starts_with("err msg=")
        );
        assert!(ask("mput count=1 kind=unit key=zz check=c payload=p").starts_with("err msg="));
        assert_eq!(ask("ping"), "ok pong");
        assert_eq!(ask("shutdown"), "ok shutdown");
        handle.join().unwrap();
    }

    #[test]
    fn remote_store_degrades_to_misses_when_daemon_is_unreachable() {
        // Bind-then-drop guarantees a dead port.
        let dead_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        assert!(RemoteStore::connect(&dead_addr).is_err(), "ping must fail");
        let remote = RemoteStore::new(&dead_addr);
        assert_eq!(remote.load("unit", 1, "c"), None);
        remote.put("unit", 1, "c", "p");
        remote.flush();
        assert_eq!(remote.stats().misses, 1);
        assert_eq!(remote.stats().writes, 0, "failed put is uncounted");
    }

    #[test]
    fn store_daemon_keeps_wire_kinds_inside_the_disk_root() {
        // Bug pin: a wire kind was joined onto the root as is, so a relative
        // or absolute path wrote, served and deleted entries outside it.
        let base = temp_dir("kind-escape");
        let absolute = base.join("absolute");
        let store = Arc::new(DiskStore::new(base.join("root")).unwrap());
        let handle =
            StoreServer::spawn("127.0.0.1:0", Arc::clone(&store) as Arc<dyn ArtifactStore>)
                .unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |line: &str| {
            writeln!(&stream, "{line}").unwrap();
            (&stream).flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response.trim().to_string()
        };
        for kind in ["../escaped".to_string(), absolute.display().to_string()] {
            let kind = escape_wire(&kind);
            let put = format!("put kind={kind} key=0000000000000001 check=c payload=p");
            assert_eq!(ask(&put), "ok");
            let get = format!("get kind={kind} key=0000000000000001 check=c");
            assert_eq!(ask(&get), "miss", "{kind}");
            assert_eq!(
                ask(&format!("corrupt kind={kind} key=0000000000000001")),
                "ok"
            );
        }
        assert!(!base.join("escaped").exists());
        assert!(!absolute.exists());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.corrupt), (0, 2, 0));
        assert_eq!(stats.writes, 0, "a rejected kind is never written");

        for kind in ["schedule", "histogram", "unit"] {
            let put = format!("put kind={kind} key=0000000000000001 check=c payload=p");
            assert_eq!(ask(&put), "ok");
            let get = format!("get kind={kind} key=0000000000000001 check=c");
            assert_eq!(ask(&get), "hit payload=p", "{kind}");
        }
        assert_eq!(store.stats().writes, 3);
        assert_eq!(ask("shutdown"), "ok shutdown");
        handle.join().unwrap();
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn store_daemon_rejects_malformed_lines_in_band() {
        let handle = StoreServer::spawn("127.0.0.1:0", Arc::new(MemoryStore::new()) as _).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |line: &str| {
            writeln!(&stream, "{line}").unwrap();
            (&stream).flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response.trim().to_string()
        };
        assert!(ask("get kind=unit").starts_with("err msg="));
        assert!(ask("put kind=unit key=zz check=c payload=p").starts_with("err msg="));
        assert!(ask("warp").starts_with("err msg="));
        // The connection survives protocol errors.
        assert_eq!(ask("ping"), "ok pong");
        assert_eq!(ask("shutdown"), "ok shutdown");
        handle.join().unwrap();
    }

    #[test]
    fn entry_render_and_parse_invert() {
        let mut rendered = Vec::new();
        write_entry(&mut rendered, "histogram", "a b", "total=0 flips=0 counts=").unwrap();
        let rendered = String::from_utf8(rendered).unwrap();
        let (kind, check, payload) = parse_entry(&rendered).unwrap();
        assert_eq!(kind, "histogram");
        assert_eq!(check, "a b");
        assert_eq!(payload, "total=0 flips=0 counts=");
        assert!(parse_entry("").is_none());
        assert!(parse_entry("read-artifact v1\nkind=x\n").is_none());
    }
}
