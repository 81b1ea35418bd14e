//! Harness-side spans. The traced run wraps every call into a layer in a
//! span (name, start, end, the span that caused it, and the wave or step it
//! belongs to), keeps them in memory, and writes them out once the
//! measurement is over as Chrome-trace JSON (`chrome://tracing`, Perfetto).
//! Nothing here lives inside the program under test: spans inside the
//! program are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One completed span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span marks (`wave`, `queue_wait`, `serve_call`,
    /// `local_sgd`, `publish`, …).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// 1-based id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Wave or step the span belongs to; spans of one request share it.
    pub group: u64,
    /// Thread lane in the rendered trace (0 = dispatcher / trainer,
    /// 1 = publisher).
    pub lane: u32,
}

/// An in-memory span log with one epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose epoch is now, with room for `capacity` spans so
    /// that recording does not reallocate inside a measured phase.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_epoch(Instant::now(), capacity)
    }

    /// An empty log recording against another log's epoch — what a second
    /// thread uses so that its spans can be [`SpanLog::absorb`]ed later.
    pub fn with_epoch(epoch: Instant, capacity: usize) -> Self {
        SpanLog {
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id (usable as a `parent`).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        u32::try_from(self.spans.len()).expect("fewer than 2^32 spans")
    }

    /// Records `[start, end]` by wall-clock instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        group: u64,
        lane: u32,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            group,
            lane,
        })
    }

    /// Opens a span whose end is not known yet (a root that must exist
    /// before its children name it as parent); finish it with
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, group: u64, lane: u32) -> u32 {
        self.record(name, start, start, 0, group, lane)
    }

    /// Sets the end of a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Appends another log's spans (recorded against the same epoch by a
    /// second thread), re-basing their parent ids.
    pub fn absorb(&mut self, other: Vec<Span>) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// The epoch, for a second thread that records against it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Gives the spans up, to be absorbed by the log that owns the epoch.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Total duration and total *self* time per span name, in seconds,
    /// sorted by name. A span's self time is its duration minus the part
    /// of that interval its direct children cover (children of one parent
    /// do not overlap here: each is a sequential call).
    pub fn totals(&self) -> Vec<(&'static str, f64, f64)> {
        let mut child_cover = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                let p = &self.spans[s.parent as usize - 1];
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                child_cover[s.parent as usize - 1] += hi.saturating_sub(lo);
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> =
            std::collections::BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(child_cover) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_default();
            e.0 += dur;
            e.1 += dur.saturating_sub(cover);
        }
        by_name
            .into_iter()
            .map(|(n, (d, s))| (n, d as f64 / 1e9, s as f64 / 1e9))
            .collect()
    }

    /// Self time of every span called `name`, in seconds.
    pub fn self_time(&self, name: &str) -> f64 {
        self.totals()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, _, s)| s)
    }

    /// Writes the log as a Chrome-trace JSON array of complete (`X`)
    /// events; timestamps in microseconds with nanosecond fractions.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_chrome_trace(&self, path: &Path, process: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"plp_benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent,
                s.group
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            group: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut log = SpanLog::with_capacity(4);
        let wave = log.push(span("wave", 0, 1_000, 0));
        log.push(span("queue_wait", 0, 300, wave));
        log.push(span("serve_call", 300, 900, wave));
        let totals = log.totals();
        assert_eq!(totals.len(), 3);
        assert!((log.self_time("wave") - 100e-9).abs() < 1e-15);
        assert!((log.self_time("serve_call") - 600e-9).abs() < 1e-15);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = SpanLog::with_capacity(4);
        a.push(span("wave", 0, 10, 0));
        let mut b = SpanLog::with_capacity(4);
        let root = b.push(span("publish", 0, 10, 0));
        b.push(span("write", 0, 5, root));
        a.absorb(b.into_spans());
        assert_eq!(a.spans()[2].parent, 2);
        assert_eq!(a.spans()[1].parent, 0);
    }

    #[test]
    fn chrome_trace_is_parseable_json() {
        let mut log = SpanLog::with_capacity(2);
        let w = log.push(span("wave", 5, 2_005, 0));
        log.push(span("serve_call", 10, 2_000, w));
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-tmp")
            .join(format!("trace_{}", std::process::id()));
        let path = dir.join("t.trace.json");
        log.write_chrome_trace(&path, "test").expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        match parsed {
            serde_json::Value::Array(events) => assert_eq!(events.len(), 3),
            other => panic!("expected array, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
