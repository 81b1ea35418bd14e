//! Deterministic tracing and the flight recorder.
//!
//! Training and the batched ANN serving pipeline are fixed pipelines of
//! named stages; flat counters cannot follow one training step through its
//! buckets or attribute a slow query to its probe/re-rank stage. This
//! module adds spans without giving up the workspace's bit-identity
//! contract:
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
//!   instead of waiting. On a fault event — a `Diverged` stop — the
//!   recorder dumps to JSONL so the seconds before the fault are
//!   reconstructable.
//! * **Perfetto export.** [`stitch_chrome_trace`] merges one or more
//!   JSONL dumps into a single Chrome-trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`), each dump's clock aligned to the
//!   first's on their minimum timestamps.
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
/// Domain constant separating per-query serving traces.
pub const DOMAIN_SERVE_QUERY: u64 = 0x706c_705f_7175_6572; // "plp_quer"

/// SplitMix64 finalizer — the same mixing function as
/// `plp_linalg::sample::mix64` (duplicated here so `plp-obs` stays
/// dependency-light; pinned equal by `tests/artifacts.rs` at the
/// workspace root).
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

/// The context a span's children open their spans under: the trace they
/// all belong to and the span they parent under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span of the unit of work belongs to.
    pub trace_id: u64,
    /// The span the children parent under.
    pub parent_span: u64,
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
    /// Span name (static: "step", "local_sgd", …).
    pub name: &'static str,
    /// Category ("train", "serve") — becomes the Chrome `cat`.
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
    /// Process label in dumps and the stitched trace ("train", "serve",
    /// …).
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
    let mut args = serde_json::Map::new();
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
    /// a killed process is expected and tolerated) or held a record whose
    /// end, `ts_us + dur_us`, does not fit in `i64`.
    pub skipped_lines: usize,
}

fn get_str(obj: &serde_json::Map, key: &str) -> Option<String> {
    match obj.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(obj: &serde_json::Map, key: &str) -> Option<u64> {
    match obj.get(key) {
        Some(Value::UInt(v)) => Some(*v),
        Some(Value::Int(v)) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

fn get_id(obj: &serde_json::Map, key: &str) -> Option<u64> {
    match obj.get(key) {
        Some(Value::Str(s)) => parse_hex_id(s),
        _ => None,
    }
}

/// Parses the JSONL text of one flight-recorder dump.
///
/// Unparseable or incomplete lines are skipped and counted
/// ([`TraceDump::skipped_lines`]) — the dump may have been written by a
/// process killed mid-write — and so is a record whose end,
/// `ts_us + dur_us`, does not fit in `i64`: a dump is a file from outside
/// the program, and no clock this process keeps gets that far.
///
/// # Errors
/// If the first line is not a valid `"record":"meta"` header (the dump
/// is unusable without its process identity).
pub fn parse_dump_jsonl(text: &str) -> Result<TraceDump, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let meta_line = lines.next().ok_or_else(|| "empty dump".to_string())?;
    let meta: Value = serde_json::from_str(meta_line).map_err(|e| format!("bad meta line: {e}"))?;
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
        let Ok(value) = serde_json::from_str(line) else {
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
    let ts_us = get_u64(obj, "ts_us")?;
    let dur_us = get_u64(obj, "dur_us")?;
    // The record must end within `i64` (see `parse_dump_jsonl`).
    i64::try_from(ts_us.checked_add(dur_us)?).ok()?;
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
        ts_us,
        dur_us,
        args,
    })
}

/// Loads the dumps a stitch takes, in the order given; the first is the
/// clock anchor.
///
/// # Errors
/// A message naming the path when a file cannot be read or a dump has no
/// usable meta line.
pub fn load_dumps<P: AsRef<Path>>(files: &[P]) -> Result<Vec<TraceDump>, String> {
    let load = |path: &P| {
        let path = path.as_ref();
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
/// `dumps[0]` is the clock anchor: every dump's timestamps are shifted so
/// that its earliest record starts where the anchor's earliest does, and
/// the gaps within a dump are kept. A parsed record ends within `i64`
/// ([`parse_dump_jsonl`]), so a shifted start never exceeds `u64`.
#[must_use]
pub fn stitch_chrome_trace(dumps: &[TraceDump]) -> String {
    let min_ts = |d: &TraceDump| d.records.iter().map(|r| r.ts_us).min().unwrap_or(0);
    let anchor_min = dumps.first().map_or(0, min_ts);

    let mut events: Vec<Value> = Vec::new();
    for (i, dump) in dumps.iter().enumerate() {
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

    for dump in dumps {
        let dump_min = min_ts(dump);
        for rec in &dump.records {
            let ts = anchor_min + (rec.ts_us - dump_min);
            let mut args = serde_json::Map::new();
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

        let tracer = Tracer::new(TraceConfig::named("train").dump_to(path.clone()));
        let tid = derive_trace_id(9, DOMAIN_TRAIN_STEP, 1);
        tracer.recorder.record(SpanRecord {
            trace_id: tid,
            span_id: derive_span_id(tid, "step", 1),
            name: "step",
            cat: "train",
            args: [("step", 1), ("", 0)],
            ..rec("", 10)
        });
        tracer.instant("skipped", "train", tid, 0, [("bucket", 2), ("", 0)]);
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
        assert_eq!(dump.process, "train");
        assert_eq!(dump.reason, "test_fault");
        assert_eq!(dump.skipped_lines, 1, "torn line skipped, not fatal");
        assert_eq!(dump.records.len(), 2);
        assert_eq!(dump.records[0].name, "step");
        assert_eq!(dump.records[0].args, vec![("step".to_string(), 1)]);
        assert_eq!(dump.records[0].trace_id, tid);
        assert_eq!(dump.records[1].kind, RecordKind::Instant);
        assert_eq!(dump.records[1].name, "skipped");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The JSONL text of a dump of `process` holding one span per
    /// `(ts_us, dur_us)`.
    fn dump_text(process: &str, spans: &[(u64, u64)]) -> String {
        let meta = serde_json::json!({
            "record": "meta",
            "process": process,
            "pid": 1,
            "reason": "test",
        });
        let mut text = format!("{meta}\n");
        for (i, &(ts_us, dur_us)) in spans.iter().enumerate() {
            let span = SpanRecord {
                span_id: 100 + i as u64,
                ts_us,
                dur_us,
                ..rec("s", 0)
            };
            text.push_str(&format!("{}\n", record_json(1, process, &span)));
        }
        text
    }

    /// The `(pid, ts)` of every event of a stitched trace but the metas, in
    /// order.
    fn span_starts(stitched: &str) -> Vec<(u64, u64)> {
        let value: Value = serde_json::from_str(stitched).unwrap();
        let Some(Value::Array(events)) = value.as_object().unwrap().get("traceEvents") else {
            panic!("traceEvents missing: {stitched}");
        };
        events
            .iter()
            .map(|ev| ev.as_object().unwrap())
            .filter(|ev| get_str(ev, "ph").as_deref() != Some("M"))
            .map(|ev| (get_u64(ev, "pid").unwrap(), get_u64(ev, "ts").unwrap()))
            .collect()
    }

    #[test]
    fn stitch_aligns_every_dump_on_its_minimum() {
        let dump = |process: &str, pid: u64, spans: &[(u64, u64)]| TraceDump {
            pid,
            ..parse_dump_jsonl(&dump_text(process, spans)).unwrap()
        };
        let stitched = stitch_chrome_trace(&[
            dump("a", 1, &[(500, 1), (520, 1)]),
            dump("b", 2, &[(9000, 1), (9003, 1)]),
            dump("c", 3, &[(40, 1)]),
        ]);
        // The anchor keeps its clock; every other dump starts where it
        // does and keeps its own gaps. Besides the metas there are the five
        // spans and nothing else.
        assert_eq!(
            span_starts(&stitched),
            [(1, 500), (1, 520), (2, 500), (2, 503), (3, 500)]
        );
    }

    #[test]
    fn a_record_that_ends_past_i64_is_skipped_and_the_stitch_cannot_overflow() {
        let top = i64::MAX as u64;
        let parse = |spans: &[(u64, u64)]| parse_dump_jsonl(&dump_text("d", spans)).unwrap();
        let late = parse(&[(top, 0), (top - 5, 5), (top, 1)]);
        assert_eq!(late.skipped_lines, 1, "2^63 − 1 + 1 is past i64");
        assert_eq!(late.records.len(), 2);
        let past = parse(&[(top + 1, 0), (u64::MAX, 1)]);
        assert_eq!(past.skipped_lines, 2);
        assert!(past.records.is_empty());
        let early = parse(&[(0, 3), (top, 0)]);
        assert_eq!(early.skipped_lines, 0);
        // Minima 2^63 − 6 and 0: the widest shifts either way.
        let stitched = stitch_chrome_trace(&[late.clone(), past, early.clone()]);
        let want = [(1, top), (1, top - 5), (1, top - 5), (1, 2 * top - 5)];
        assert_eq!(span_starts(&stitched), want);
        let stitched = stitch_chrome_trace(&[early, late]);
        assert_eq!(span_starts(&stitched), [(1, 0), (1, top), (1, 5), (1, 0)]);
    }

    #[test]
    fn load_dumps_keeps_the_order_given_and_names_what_it_cannot_use() {
        let dir = std::env::temp_dir().join(format!("plp_trace_load_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for (file, process) in [("b.jsonl", "b"), ("a.jsonl", "a")] {
            Tracer::new(TraceConfig::named(process))
                .dump_to(&dir.join(file), "test")
                .unwrap();
        }
        let order = |dumps: Vec<TraceDump>| -> Vec<String> {
            dumps.into_iter().map(|d| d.process).collect()
        };
        let files = [dir.join("b.jsonl"), dir.join("a.jsonl")];
        assert_eq!(order(load_dumps(&files).unwrap()), ["b", "a"]);

        std::fs::write(dir.join("junk.jsonl"), "not a dump\n").unwrap();
        let err = load_dumps(&[dir.join("a.jsonl"), dir.join("junk.jsonl")]).unwrap_err();
        assert!(err.contains("junk.jsonl"), "{err}");
        let err = load_dumps(&[dir.join("absent.jsonl")]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        // A directory is not a dump.
        let err = load_dumps(&[&dir]).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
