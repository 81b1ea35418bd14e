//! Deterministic cross-process tracing and the flight recorder.
//!
//! The coordinator/worker substrate (plp-fed) and the batched ANN
//! serving pipeline both span several processes and several pipeline
//! stages; flat per-process counters cannot follow one federated round
//! across the pipe or attribute a slow query to its probe/re-rank
//! stage. This module adds spans without giving up the workspace's
//! bit-identity contract:
//!
//! * **Deterministic IDs.** Trace and span ids are pure functions of
//!   quantities the run already determines — `(run_seed, step)` for
//!   training, the engine's query sequence number for serving — chained
//!   through the same SplitMix64 finalizer ([`mix64`]) the counter-based
//!   noise streams use. No wall clock, no `rand`: enabling tracing
//!   cannot consume randomness or reorder any RNG stream, so traced and
//!   untraced runs produce bit-identical parameters, ledgers and ε.
//! * **Flight recorder.** A bounded ring buffer ([`FlightRecorder`])
//!   retains the last N *completed* spans per process. Writers never
//!   block: a slot is claimed with an atomic ticket and written through
//!   `Mutex::try_lock`; the only possible contention (a dump reading the
//!   slot, or a writer a full lap ahead) drops the record and counts it
//!   instead of waiting. On fault events — worker drop, straggler
//!   deadline, `Diverged` stop, injected worker exit — the recorder dumps to
//!   JSONL so the seconds before the fault are reconstructable.
//! * **Perfetto export.** [`stitch_chrome_trace`] merges the JSONL dumps
//!   of the coordinator and its workers into a single Chrome-trace-event
//!   JSON (loadable in Perfetto / `chrome://tracing`), re-parenting
//!   worker spans under the coordinator spans whose deterministic ids
//!   they carry and aligning each worker's clock to its parent span.
//!
//! Timestamps are microseconds since the per-process [`Tracer`] epoch;
//! they are *display* data only and never feed back into training or
//! serving. Ids are rendered as fixed-width hex strings in JSON because
//! consumers that read numbers as `f64` would corrupt ids above 2^53.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

/// Domain constant separating per-step training traces.
pub const DOMAIN_TRAIN_STEP: u64 = 0x706c_705f_7374_6570; // "plp_step"
/// Domain constant separating federated-round traces (standalone
/// executor use; under the trainer the step trace id is inherited).
pub const DOMAIN_FED_ROUND: u64 = 0x706c_705f_726f_756e; // "plp_roun"
/// Domain constant separating per-query serving traces.
pub const DOMAIN_SERVE_QUERY: u64 = 0x706c_705f_7175_6572; // "plp_quer"

/// SplitMix64 finalizer — the same mixing function as
/// `plp_linalg::sample::mix64` (duplicated here so `plp-obs` stays
/// dependency-light; pinned equal by a cross-crate test in `plp-fed`).
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a span name: turns the name into a derivation domain so
/// sibling spans of different kinds get unrelated ids.
#[must_use]
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Never return the reserved id 0 ("no parent") from a derivation.
fn nonzero(id: u64) -> u64 {
    if id == 0 {
        1
    } else {
        id
    }
}

/// Deterministic trace id: `mix64(mix64(mix64(root) ^ domain) ^ index)`
/// — the exact chain shape of `plp_linalg::sample::stream_seed`, with
/// `root` a seed the run already owns (`run_seed`, a query-sequence
/// root) and `index` the step / query number. Never 0.
#[must_use]
pub fn derive_trace_id(root: u64, domain: u64, index: u64) -> u64 {
    nonzero(mix64(mix64(mix64(root) ^ domain) ^ index))
}

/// Deterministic span id within `trace_id`: the span's `name` is hashed
/// into the domain and `index` distinguishes repeats (step, attempt,
/// bucket index, batch index). Never 0.
#[must_use]
pub fn derive_span_id(trace_id: u64, name: &str, index: u64) -> u64 {
    nonzero(mix64(mix64(trace_id ^ fnv1a64(name)) ^ index))
}

/// Renders an id as the fixed-width hex string used in every JSON form.
#[must_use]
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a [`hex_id`]-formatted id back to a `u64`.
#[must_use]
pub fn parse_hex_id(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The parent/child context propagated across the fed process boundary
/// (16 little-endian bytes in the frame header: trace id then parent
/// span id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span on both sides of the pipe belongs to.
    pub trace_id: u64,
    /// The sender-side span the receiver parents its spans under.
    pub parent_span: u64,
}

impl TraceContext {
    /// Wire size of an encoded context.
    pub const WIRE_BYTES: usize = 16;

    /// Encodes as 16 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; Self::WIRE_BYTES] {
        let mut out = [0u8; Self::WIRE_BYTES];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..].copy_from_slice(&self.parent_span.to_le_bytes());
        out
    }

    /// Decodes from the 16-byte wire form.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; Self::WIRE_BYTES]) -> Self {
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        a.copy_from_slice(&bytes[..8]);
        b.copy_from_slice(&bytes[8..]);
        TraceContext {
            trace_id: u64::from_le_bytes(a),
            parent_span: u64::from_le_bytes(b),
        }
    }
}

/// What a [`SpanRecord`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A duration span (`ts_us` + `dur_us`).
    Span,
    /// A point event (`dur_us == 0`).
    Instant,
}

/// Up to two `(name, value)` integer arguments carried by a record; an
/// empty name marks an unused slot.
pub type SpanArgs = [(&'static str, u64); 2];

/// The empty argument list.
pub const NO_ARGS: SpanArgs = [("", 0), ("", 0)];

/// One completed span or instant event, as retained by the flight
/// recorder. `Copy`, fixed-size, and built from `&'static str` names so
/// recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// The trace this record belongs to.
    pub trace_id: u64,
    /// This record's own id (0 for instants without identity).
    pub span_id: u64,
    /// Parent span id; 0 = root.
    pub parent_id: u64,
    /// Span name (static: "fed_round", "local_sgd", …).
    pub name: &'static str,
    /// Category ("train", "fed", "serve") — becomes the Chrome `cat`.
    pub cat: &'static str,
    /// Span vs instant.
    pub kind: RecordKind,
    /// Start, µs since the recording tracer's epoch.
    pub ts_us: u64,
    /// Duration in µs (0 for instants).
    pub dur_us: u64,
    /// Integer arguments (step, slot, attempt, …).
    pub args: SpanArgs,
}

/// Bounded ring buffer of the last N completed records.
///
/// Writers claim a slot with an atomic ticket, then `try_lock` it; the
/// lock is only ever contended by a dump in progress or a writer a full
/// lap ahead, in which case the record is dropped (counted) rather than
/// blocking the hot path.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(u64, SpanRecord)>>>,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` (≥ 1) records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records claimed so far (including overwritten and dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records dropped to slot contention.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Stores `rec`, overwriting the oldest record once full. Never
    /// blocks.
    pub fn record(&self, rec: SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (ticket % self.slots.len() as u64) as usize;
        match self.slots[idx].try_lock() {
            Ok(mut slot) => *slot = Some((ticket, rec)),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The retained records in recording order (oldest first).
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut kept: Vec<(u64, SpanRecord)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            if let Ok(guard) = slot.lock() {
                if let Some(entry) = *guard {
                    kept.push(entry);
                }
            }
        }
        kept.sort_by_key(|(ticket, _)| *ticket);
        kept.into_iter().map(|(_, rec)| rec).collect()
    }
}

/// Completed records a [`Tracer`]'s flight recorder retains.
const RECORDER_CAPACITY: usize = 4096;

/// Configuration for a per-process [`Tracer`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Process label in dumps and the stitched trace ("coordinator",
    /// "worker", "serve", …).
    pub process: String,
    /// Where [`Tracer::dump_on_fault`] writes, if anywhere.
    pub dump_path: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            process: "main".to_string(),
            dump_path: None,
        }
    }
}

impl TraceConfig {
    /// A tracer config with the given process label and defaults
    /// elsewhere.
    #[must_use]
    pub fn named(process: &str) -> Self {
        TraceConfig {
            process: process.to_string(),
            ..TraceConfig::default()
        }
    }

    /// Sets the fault-dump path.
    #[must_use]
    pub fn dump_to(mut self, path: PathBuf) -> Self {
        self.dump_path = Some(path);
        self
    }
}

/// Per-process tracing state: an epoch for timestamps plus the flight
/// recorder. Shared via `Arc` by everything in the process that records.
#[derive(Debug)]
pub struct Tracer {
    process: String,
    pid: u32,
    epoch: Instant,
    pub(crate) recorder: FlightRecorder,
    dump_path: Option<PathBuf>,
    fault_dumps: AtomicU64,
}

impl Tracer {
    /// A tracer with a fresh epoch and an empty recorder.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            process: cfg.process,
            pid: std::process::id(),
            epoch: Instant::now(),
            recorder: FlightRecorder::new(RECORDER_CAPACITY),
            dump_path: cfg.dump_path,
            fault_dumps: AtomicU64::new(0),
        }
    }

    /// `t` on this tracer's clock: microseconds since its epoch.
    pub(crate) fn us_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Records a point event.
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        trace_id: u64,
        parent_id: u64,
        args: SpanArgs,
    ) {
        self.recorder.record(SpanRecord {
            trace_id,
            span_id: 0,
            parent_id,
            name,
            cat,
            kind: RecordKind::Instant,
            ts_us: self.us_at(Instant::now()),
            dur_us: 0,
            args,
        });
    }

    /// The retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.recorder.snapshot()
    }

    /// The configured fault-dump path.
    #[must_use]
    pub fn dump_path(&self) -> Option<&Path> {
        self.dump_path.as_deref()
    }

    /// Fault dumps attempted so far.
    #[must_use]
    pub fn fault_dumps(&self) -> u64 {
        self.fault_dumps.load(Ordering::Relaxed)
    }

    /// Writes the recorder state as JSONL to `path` (truncating: a dump
    /// is a complete snapshot, the latest fault wins). The first line is
    /// a `"record":"meta"` header carrying the process label, pid,
    /// `reason` and drop counters; each following line is one record.
    ///
    /// # Errors
    /// Any `std::io::Error` from creating or writing the file.
    pub fn dump_to(&self, path: &Path, reason: &str) -> io::Result<usize> {
        let records = self.snapshot();
        let mut out = String::new();
        let meta = serde_json::json!({
            "record": "meta",
            "process": self.process,
            "pid": self.pid,
            "reason": reason,
            "recorded": self.recorder.recorded(),
            "dropped": self.recorder.dropped(),
        });
        out.push_str(&meta.to_string());
        out.push('\n');
        for rec in &records {
            out.push_str(&record_json(self.pid, &self.process, rec).to_string());
            out.push('\n');
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()?;
        Ok(records.len())
    }

    /// Dumps to the configured path on a fault event; errors are
    /// swallowed (tracing must never crash the instrumented process) and
    /// the attempt is counted. A no-op without a configured path.
    pub fn dump_on_fault(&self, reason: &str) {
        if let Some(path) = &self.dump_path {
            self.fault_dumps.fetch_add(1, Ordering::Relaxed);
            let _ = self.dump_to(path, reason);
        }
    }
}

fn record_json(pid: u32, process: &str, rec: &SpanRecord) -> Value {
    let mut args = serde::Map::new();
    for (name, value) in rec.args {
        if !name.is_empty() {
            args.insert(name.to_string(), Value::UInt(value));
        }
    }
    serde_json::json!({
        "record": match rec.kind {
            RecordKind::Span => "span",
            RecordKind::Instant => "instant",
        },
        "process": process,
        "pid": pid,
        "name": rec.name,
        "cat": rec.cat,
        "trace_id": hex_id(rec.trace_id),
        "span_id": hex_id(rec.span_id),
        "parent_id": hex_id(rec.parent_id),
        "ts_us": rec.ts_us,
        "dur_us": rec.dur_us,
        "args": Value::Object(args),
    })
}

/// One record parsed back from a dump (owned strings: the `&'static`
/// discipline only applies at recording time).
#[derive(Debug, Clone, PartialEq)]
pub struct DumpRecord {
    /// Span vs instant.
    pub kind: RecordKind,
    /// Span name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Trace id.
    pub trace_id: u64,
    /// Span id (0 for instants).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Start, µs since the dumping process's epoch.
    pub ts_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Named integer arguments.
    pub args: Vec<(String, u64)>,
}

/// A parsed flight-recorder dump: one process's retained records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDump {
    /// Process label from the meta line.
    pub process: String,
    /// Pid from the meta line.
    pub pid: u64,
    /// Why the dump was taken.
    pub reason: String,
    /// Records in recording order.
    pub records: Vec<DumpRecord>,
    /// Lines skipped because they did not parse (a torn final line from
    /// a killed process is expected and tolerated).
    pub skipped_lines: usize,
}

fn get_str(obj: &serde::Map, key: &str) -> Option<String> {
    match obj.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(obj: &serde::Map, key: &str) -> Option<u64> {
    match obj.get(key) {
        Some(Value::UInt(v)) => Some(*v),
        Some(Value::Int(v)) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

fn get_id(obj: &serde::Map, key: &str) -> Option<u64> {
    match obj.get(key) {
        Some(Value::Str(s)) => parse_hex_id(s),
        _ => None,
    }
}

/// Parses the JSONL text of one flight-recorder dump.
///
/// Unparseable or incomplete lines are skipped and counted
/// ([`TraceDump::skipped_lines`]) — the dump may have been written by a
/// process killed mid-write.
///
/// # Errors
/// If the first line is not a valid `"record":"meta"` header (the dump
/// is unusable without its process identity).
pub fn parse_dump_jsonl(text: &str) -> Result<TraceDump, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let meta_line = lines.next().ok_or_else(|| "empty dump".to_string())?;
    let meta: Value =
        serde_json::from_str(meta_line).map_err(|e| format!("bad meta line: {e:?}"))?;
    let meta = meta.as_object().ok_or("meta line is not an object")?;
    if get_str(meta, "record").as_deref() != Some("meta") {
        return Err("first line is not a meta record".to_string());
    }
    let process = get_str(meta, "process").ok_or("meta missing process")?;
    let pid = get_u64(meta, "pid").ok_or("meta missing pid")?;
    let reason = get_str(meta, "reason").unwrap_or_default();

    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in lines {
        let Ok(value) = serde_json::from_str::<Value>(line) else {
            skipped += 1;
            continue;
        };
        let Some(rec) = parse_record(&value) else {
            skipped += 1;
            continue;
        };
        records.push(rec);
    }
    Ok(TraceDump {
        process,
        pid,
        reason,
        records,
        skipped_lines: skipped,
    })
}

fn parse_record(value: &Value) -> Option<DumpRecord> {
    let obj = value.as_object()?;
    let kind = match get_str(obj, "record")?.as_str() {
        "span" => RecordKind::Span,
        "instant" => RecordKind::Instant,
        _ => return None,
    };
    let mut args = Vec::new();
    if let Some(Value::Object(map)) = obj.get("args") {
        for (k, v) in map.iter() {
            match v {
                Value::UInt(n) => args.push((k.clone(), *n)),
                Value::Int(n) if *n >= 0 => args.push((k.clone(), *n as u64)),
                _ => {}
            }
        }
    }
    Some(DumpRecord {
        kind,
        name: get_str(obj, "name")?,
        cat: get_str(obj, "cat")?,
        trace_id: get_id(obj, "trace_id")?,
        span_id: get_id(obj, "span_id")?,
        parent_id: get_id(obj, "parent_id")?,
        ts_us: get_u64(obj, "ts_us")?,
        dur_us: get_u64(obj, "dur_us")?,
        args,
    })
}

/// Loads the dumps a stitch takes, anchor first. A single directory
/// expands to its `trace_coordinator.jsonl` followed by every
/// `trace_worker_*.jsonl` in file-name order (the order a directory
/// listing comes back in is the filesystem's business); any other input
/// is a list of dump files, the first being the anchor.
///
/// # Errors
/// A message naming the path when a file cannot be read, a dump has no
/// usable meta line, or a directory holds no dump at all.
pub fn load_dumps<P: AsRef<Path>>(inputs: &[P]) -> Result<Vec<TraceDump>, String> {
    let files: Vec<PathBuf> = match inputs {
        [dir] if dir.as_ref().is_dir() => {
            let dir = dir.as_ref();
            let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut names: Vec<String> = listing
                .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
                .filter(|n| {
                    n == "trace_coordinator.jsonl"
                        || (n.starts_with("trace_worker_") && n.ends_with(".jsonl"))
                })
                .collect();
            if names.is_empty() {
                return Err(format!("{}: no trace_*.jsonl dumps found", dir.display()));
            }
            // `trace_coordinator` sorts before every `trace_worker_*`.
            names.sort();
            names.into_iter().map(|n| dir.join(n)).collect()
        }
        files => files.iter().map(|f| f.as_ref().to_path_buf()).collect(),
    };
    let load = |path: &PathBuf| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_dump_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    files.iter().map(load).collect()
}

/// Stitches per-process flight-recorder dumps into one Chrome-trace-event
/// JSON string (an object with a `traceEvents` array — loadable in
/// Perfetto and `chrome://tracing`).
///
/// `dumps[0]` is the clock anchor (by convention the coordinator). Every
/// other process's timestamps are offset so that its earliest span whose
/// `parent_id` lives in the anchor process starts where that parent
/// starts; processes with no cross-process parent are aligned on minimum
/// timestamps. Cross-process parent/child edges additionally get Chrome
/// flow events (`ph: "s"` / `"f"`) keyed by the deterministic span id,
/// so Perfetto draws the arrow across the pipe.
#[must_use]
pub fn stitch_chrome_trace(dumps: &[TraceDump]) -> String {
    // Span ids owned by the anchor process, with their start times.
    let anchor_spans: std::collections::BTreeMap<u64, u64> = dumps
        .first()
        .map(|d| {
            d.records
                .iter()
                .filter(|r| r.span_id != 0)
                .map(|r| (r.span_id, r.ts_us))
                .collect()
        })
        .unwrap_or_default();
    let anchor_min = dumps
        .first()
        .and_then(|d| d.records.iter().map(|r| r.ts_us).min())
        .unwrap_or(0);

    let mut events: Vec<Value> = Vec::new();
    let mut offsets: Vec<i64> = Vec::with_capacity(dumps.len());
    for (i, dump) in dumps.iter().enumerate() {
        let offset = if i == 0 {
            0
        } else {
            let linked = dump
                .records
                .iter()
                .filter_map(|r| anchor_spans.get(&r.parent_id).map(|p| (*p, r.ts_us)))
                .min_by_key(|(_, child_ts)| *child_ts);
            match linked {
                Some((parent_ts, child_ts)) => parent_ts as i64 - child_ts as i64,
                None => {
                    let child_min = dump.records.iter().map(|r| r.ts_us).min().unwrap_or(0);
                    anchor_min as i64 - child_min as i64
                }
            }
        };
        offsets.push(offset);
        events.push(serde_json::json!({
            "ph": "M",
            "name": "process_name",
            "pid": dump.pid,
            "tid": 0,
            "args": {"name": dump.process},
        }));
        events.push(serde_json::json!({
            "ph": "M",
            "name": "process_sort_index",
            "pid": dump.pid,
            "tid": 0,
            "args": {"sort_index": i as u64},
        }));
    }

    for (dump, offset) in dumps.iter().zip(&offsets) {
        for rec in &dump.records {
            let ts = (rec.ts_us as i64 + offset).max(0) as u64;
            let mut args = serde::Map::new();
            args.insert("trace_id".to_string(), Value::Str(hex_id(rec.trace_id)));
            args.insert("span_id".to_string(), Value::Str(hex_id(rec.span_id)));
            args.insert("parent_id".to_string(), Value::Str(hex_id(rec.parent_id)));
            for (k, v) in &rec.args {
                args.insert(k.clone(), Value::UInt(*v));
            }
            match rec.kind {
                RecordKind::Span => events.push(serde_json::json!({
                    "ph": "X",
                    "name": rec.name,
                    "cat": rec.cat,
                    "pid": dump.pid,
                    "tid": 1,
                    "ts": ts,
                    "dur": rec.dur_us,
                    "args": Value::Object(args),
                })),
                RecordKind::Instant => events.push(serde_json::json!({
                    "ph": "i",
                    "s": "p",
                    "name": rec.name,
                    "cat": rec.cat,
                    "pid": dump.pid,
                    "tid": 1,
                    "ts": ts,
                    "args": Value::Object(args),
                })),
            }
            // Cross-process parent edge → flow arrow from the anchor's
            // parent span to this record's start.
            if dump.pid != dumps[0].pid {
                if let Some(parent_ts) = anchor_spans.get(&rec.parent_id) {
                    let id = hex_id(rec.parent_id);
                    events.push(serde_json::json!({
                        "ph": "s",
                        "id": id,
                        "name": "fed_pipe",
                        "cat": "flow",
                        "pid": dumps[0].pid,
                        "tid": 1,
                        "ts": *parent_ts,
                    }));
                    events.push(serde_json::json!({
                        "ph": "f",
                        "bp": "e",
                        "id": hex_id(rec.parent_id),
                        "name": "fed_pipe",
                        "cat": "flow",
                        "pid": dump.pid,
                        "tid": 1,
                        "ts": ts,
                    }));
                }
            }
        }
    }

    serde_json::json!({
        "traceEvents": Value::Array(events),
        "displayTimeUnit": "ms",
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_domain_separated() {
        let a = derive_trace_id(42, DOMAIN_TRAIN_STEP, 7);
        let b = derive_trace_id(42, DOMAIN_TRAIN_STEP, 7);
        assert_eq!(a, b, "same inputs, same id");
        assert_ne!(a, derive_trace_id(42, DOMAIN_TRAIN_STEP, 8));
        assert_ne!(a, derive_trace_id(43, DOMAIN_TRAIN_STEP, 7));
        assert_ne!(a, derive_trace_id(42, DOMAIN_SERVE_QUERY, 7));
        assert_ne!(a, 0, "0 is reserved for 'no parent'");

        let s = derive_span_id(a, "local_sgd", 3);
        assert_eq!(s, derive_span_id(a, "local_sgd", 3));
        assert_ne!(s, derive_span_id(a, "noise", 3));
        assert_ne!(s, derive_span_id(a, "local_sgd", 4));
        assert_ne!(s, 0);
    }

    #[test]
    fn hex_ids_round_trip() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex_id(&hex_id(id)), Some(id));
        }
        assert_eq!(parse_hex_id("xyz"), None);
        assert_eq!(parse_hex_id("123"), None, "ids are fixed-width");
    }

    #[test]
    fn trace_context_round_trips_through_wire_bytes() {
        let ctx = TraceContext {
            trace_id: 0x0123_4567_89ab_cdef,
            parent_span: u64::MAX,
        };
        assert_eq!(TraceContext::from_bytes(&ctx.to_bytes()), ctx);
    }

    fn rec(name: &'static str, ts: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: ts + 10,
            parent_id: 0,
            name,
            cat: "test",
            kind: RecordKind::Span,
            ts_us: ts,
            dur_us: 5,
            args: NO_ARGS,
        }
    }

    #[test]
    fn flight_recorder_retains_last_n_in_order() {
        let ring = FlightRecorder::new(4);
        for i in 0..10u64 {
            ring.record(rec("r", i));
        }
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 4);
        let ts: Vec<u64> = kept.iter().map(|r| r.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "last N, oldest first");
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn flight_recorder_is_safe_under_concurrent_writers() {
        let ring = FlightRecorder::new(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        ring.record(rec("w", t * 10_000 + i));
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), 4000);
        let kept = ring.snapshot();
        // Every retained record is one that was actually written, and
        // drops (if any) are accounted for.
        assert!(kept.len() <= 64);
        assert!(kept.len() as u64 + ring.dropped() >= 64 || ring.recorded() < 64);
    }

    #[test]
    fn dump_and_parse_round_trip_including_torn_final_line() {
        let dir = std::env::temp_dir().join(format!("plp_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump_roundtrip.jsonl");

        let tracer = Tracer::new(TraceConfig::named("coordinator").dump_to(path.clone()));
        let tid = derive_trace_id(9, DOMAIN_FED_ROUND, 1);
        tracer.recorder.record(SpanRecord {
            trace_id: tid,
            span_id: derive_span_id(tid, "fed_round", 1),
            name: "fed_round",
            cat: "fed",
            args: [("step", 1), ("", 0)],
            ..rec("", 10)
        });
        tracer.instant("fed_straggler", "fed", tid, 0, [("slot", 2), ("", 0)]);
        tracer.dump_on_fault("test_fault");
        assert_eq!(tracer.fault_dumps(), 1);

        // Simulate a torn final line from a killed process.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"record\":\"span\",\"name\":\"tor").unwrap();
        }

        let text = std::fs::read_to_string(&path).unwrap();
        let dump = parse_dump_jsonl(&text).unwrap();
        assert_eq!(dump.process, "coordinator");
        assert_eq!(dump.reason, "test_fault");
        assert_eq!(dump.skipped_lines, 1, "torn line skipped, not fatal");
        assert_eq!(dump.records.len(), 2);
        assert_eq!(dump.records[0].name, "fed_round");
        assert_eq!(dump.records[0].args, vec![("step".to_string(), 1)]);
        assert_eq!(dump.records[0].trace_id, tid);
        assert_eq!(dump.records[1].kind, RecordKind::Instant);
        assert_eq!(dump.records[1].name, "fed_straggler");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stitch_aligns_worker_clock_and_emits_flow_edges() {
        let tid = derive_trace_id(5, DOMAIN_FED_ROUND, 2);
        let parent = derive_span_id(tid, "fed_send", 0);
        let coord = TraceDump {
            process: "coordinator".into(),
            pid: 100,
            reason: "drill".into(),
            records: vec![DumpRecord {
                kind: RecordKind::Span,
                name: "fed_send".into(),
                cat: "fed".into(),
                trace_id: tid,
                span_id: parent,
                parent_id: 0,
                ts_us: 1000,
                dur_us: 50,
                args: vec![],
            }],
            skipped_lines: 0,
        };
        let worker = TraceDump {
            process: "worker".into(),
            pid: 200,
            reason: "exit".into(),
            records: vec![DumpRecord {
                kind: RecordKind::Span,
                name: "fed_worker_round".into(),
                cat: "fed".into(),
                trace_id: tid,
                span_id: derive_span_id(tid, "fed_worker_round", 0),
                parent_id: parent,
                ts_us: 77, // worker epoch differs wildly from coordinator's
                dur_us: 30,
                args: vec![("step".into(), 2)],
            }],
            skipped_lines: 0,
        };
        let stitched = stitch_chrome_trace(&[coord, worker]);
        let value: Value = serde_json::from_str(&stitched).unwrap();
        let obj = value.as_object().unwrap();
        let Some(Value::Array(events)) = obj.get("traceEvents") else {
            panic!("traceEvents missing: {stitched}");
        };
        // Two process_name + two sort_index metas, two X spans, one s/f
        // flow pair.
        assert_eq!(events.len(), 8, "{stitched}");
        let mut saw_flow_start = false;
        let mut saw_flow_finish = false;
        for ev in events {
            let ev = ev.as_object().unwrap();
            match ev.get("ph") {
                Some(Value::Str(ph))
                    if ph == "X" && get_str(ev, "name").as_deref() == Some("fed_worker_round") =>
                {
                    // Worker clock aligned to the parent span start.
                    assert_eq!(get_u64(ev, "ts"), Some(1000), "{stitched}");
                    assert_eq!(get_u64(ev, "pid"), Some(200));
                }
                Some(Value::Str(ph)) if ph == "s" => saw_flow_start = true,
                Some(Value::Str(ph)) if ph == "f" => saw_flow_finish = true,
                _ => {}
            }
        }
        assert!(saw_flow_start && saw_flow_finish, "{stitched}");
    }

    #[test]
    fn stitch_without_cross_links_aligns_minimums() {
        let mk = |process: &str, pid: u64, ts: u64| TraceDump {
            process: process.into(),
            pid,
            reason: String::new(),
            records: vec![DumpRecord {
                kind: RecordKind::Span,
                name: "solo".into(),
                cat: "t".into(),
                trace_id: 1,
                span_id: 2,
                parent_id: 0,
                ts_us: ts,
                dur_us: 1,
                args: vec![],
            }],
            skipped_lines: 0,
        };
        let stitched = stitch_chrome_trace(&[mk("a", 1, 500), mk("b", 2, 9000)]);
        let value: Value = serde_json::from_str(&stitched).unwrap();
        let Some(Value::Array(events)) = value.as_object().unwrap().get("traceEvents") else {
            panic!();
        };
        for ev in events {
            let ev = ev.as_object().unwrap();
            if let Some(Value::Str(ph)) = ev.get("ph") {
                if ph == "X" {
                    assert_eq!(get_u64(ev, "ts"), Some(500), "min-aligned");
                }
            }
        }
    }

    #[test]
    fn load_dumps_puts_the_coordinator_first_and_sorts_the_workers() {
        let dir = std::env::temp_dir().join(format!("plp_trace_load_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_dumps(&[&dir]).unwrap_err().contains("no trace_"));
        for (file, process) in [
            ("trace_worker_9.jsonl", "w9"),
            ("trace_coordinator.jsonl", "coordinator"),
            ("trace_worker_10.jsonl", "w10"),
            ("unrelated.jsonl", "other"),
        ] {
            Tracer::new(TraceConfig::named(process))
                .dump_to(&dir.join(file), "test")
                .unwrap();
        }
        let order = |dumps: Vec<TraceDump>| -> Vec<String> {
            dumps.into_iter().map(|d| d.process).collect()
        };
        // File-name order, whatever order the directory lists them in.
        let from_dir = load_dumps(&[&dir]).unwrap();
        assert_eq!(order(from_dir), ["coordinator", "w10", "w9"]);
        // Explicit files keep the order given; the first is the anchor.
        let files = [
            dir.join("unrelated.jsonl"),
            dir.join("trace_worker_9.jsonl"),
        ];
        assert_eq!(order(load_dumps(&files).unwrap()), ["other", "w9"]);

        std::fs::write(dir.join("trace_worker_11.jsonl"), "not a dump\n").unwrap();
        let err = load_dumps(&[&dir]).unwrap_err();
        assert!(err.contains("trace_worker_11.jsonl"), "{err}");
        let err = load_dumps(&[dir.join("absent.jsonl")]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
