//! The structured JSONL event sink.
//!
//! Each event is one JSON object on its own line, written with a single
//! `write_all` call (line + trailing newline together) to an append-mode
//! file — the same "whole record or nothing" discipline as the atomic
//! artifact writer, scaled down to log lines. A process killed between
//! events therefore leaves a log whose every line parses; at worst the
//! final line is torn, which a line-by-line reader skips.
//!
//! An in-memory variant backs tests and short-lived tooling that wants to
//! inspect the event stream without touching the filesystem.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Where emitted event lines go.
#[derive(Debug)]
pub enum EventSink {
    /// Append-mode file at `path`; one `write_all` per event line.
    File {
        /// The open log file.
        file: File,
        /// Where the log lives (for diagnostics).
        path: PathBuf,
    },
    /// In-memory capture (tests, tooling).
    Memory(Vec<String>),
}

impl EventSink {
    /// Opens (creating if needed) an append-mode JSONL file at `path`.
    ///
    /// # Errors
    /// Any `std::io::Error` from opening the file.
    pub fn file(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventSink::File {
            file,
            path: path.to_path_buf(),
        })
    }

    /// An in-memory sink capturing every line.
    pub fn memory() -> Self {
        EventSink::Memory(Vec::new())
    }

    /// Appends one event line (the trailing newline is added here, so
    /// `line` must not contain one). File sinks issue a single
    /// `write_all` and flush before returning.
    ///
    /// # Errors
    /// Any `std::io::Error` from the underlying write.
    pub fn append_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "one event per line");
        match self {
            EventSink::File { file, .. } => {
                let mut record = String::with_capacity(line.len() + 1);
                record.push_str(line);
                record.push('\n');
                file.write_all(record.as_bytes())?;
                file.flush()
            }
            EventSink::Memory(lines) => {
                lines.push(line.to_string());
                Ok(())
            }
        }
    }

    /// The captured lines of a memory sink (`None` for a file sink).
    pub fn lines(&self) -> Option<&[String]> {
        match self {
            EventSink::Memory(lines) => Some(lines),
            EventSink::File { .. } => None,
        }
    }

    /// The path of a file sink (`None` for a memory sink).
    pub fn path(&self) -> Option<&Path> {
        match self {
            EventSink::File { path, .. } => Some(path),
            EventSink::Memory(_) => None,
        }
    }
}

/// Replays a JSONL event log written by [`EventSink`], returning the
/// parsed events plus the count of skipped lines.
///
/// The sink's crash discipline guarantees every *completed* line parses;
/// a process killed mid-`write_all` can leave at most a torn final line.
/// Replay therefore parses line by line and skips (but counts) anything
/// that fails — a reader must never die on the artifact of a crash it is
/// investigating.
///
/// # Errors
/// Any `std::io::Error` from reading the file.
pub fn replay_jsonl(path: &Path) -> io::Result<(Vec<serde_json::Value>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match serde_json::from_str(line) {
            Ok(v) if v.as_object().is_some() => events.push(v),
            _ => skipped += 1,
        }
    }
    Ok((events, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plp_obs_{}_{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("events.jsonl")
    }

    #[test]
    fn memory_sink_captures_lines_in_order() {
        let mut sink = EventSink::memory();
        sink.append_line("{\"a\":1}").unwrap();
        sink.append_line("{\"b\":2}").unwrap();
        assert_eq!(sink.lines().unwrap(), &["{\"a\":1}", "{\"b\":2}"]);
        assert!(sink.path().is_none());
    }

    #[test]
    fn file_sink_appends_parseable_lines() {
        let path = scratch("file_sink");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = EventSink::file(&path).unwrap();
            sink.append_line("{\"kind\":\"one\"}").unwrap();
        }
        {
            // Reopening appends instead of truncating (resume semantics).
            let mut sink = EventSink::file(&path).unwrap();
            sink.append_line("{\"kind\":\"two\"}").unwrap();
            assert_eq!(sink.path(), Some(path.as_path()));
            assert!(sink.lines().is_none());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v.as_object().is_some(), "every line is a JSON object");
        }
    }

    #[test]
    fn torn_final_line_is_skipped_on_replay() {
        let path = scratch("torn_line");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = EventSink::file(&path).unwrap();
            sink.append_line("{\"kind\":\"one\",\"seq\":0}").unwrap();
            sink.append_line("{\"kind\":\"two\",\"seq\":1}").unwrap();
        }
        // A process killed mid-`write_all` leaves a prefix of the final
        // record with no trailing newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"kind\":\"three\",\"se").unwrap();
        }
        let (events, skipped) = replay_jsonl(&path).unwrap();
        assert_eq!(events.len(), 2, "completed lines survive");
        assert_eq!(skipped, 1, "the torn line is skipped, not fatal");
        for (i, event) in events.iter().enumerate() {
            let obj = event.as_object().unwrap();
            assert_eq!(
                obj.get("seq").and_then(serde_json::Value::as_f64),
                Some(i as f64)
            );
        }

        // Resume semantics: a sink reopened over the torn tail appends
        // after it; the torn line stays torn (exactly one skip) and the
        // new record parses.
        {
            let mut sink = EventSink::file(&path).unwrap();
            sink.append_line("{\"kind\":\"four\",\"seq\":2}").unwrap();
        }
        let (events, skipped) = replay_jsonl(&path).unwrap();
        // The torn prefix and the appended record share a physical line,
        // so both are lost to the torn write — but nothing after parses
        // wrong and nothing panics.
        assert_eq!(skipped, 1);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn concurrent_sinks_on_one_file_never_interleave_records() {
        let path = scratch("concurrent_sinks");
        let _ = std::fs::remove_file(&path);
        const WRITERS: usize = 4;
        const LINES: usize = 250;
        // Each record is long enough that interleaved partial writes
        // would be obvious, and each carries its writer id.
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = path.clone();
                scope.spawn(move || {
                    let mut sink = EventSink::file(&path).unwrap();
                    let pad = "x".repeat(64 + w);
                    for i in 0..LINES {
                        let line = format!("{{\"writer\":{w},\"i\":{i},\"pad\":\"{pad}\"}}");
                        sink.append_line(&line).unwrap();
                    }
                });
            }
        });
        let (events, skipped) = replay_jsonl(&path).unwrap();
        assert_eq!(skipped, 0, "no torn or interleaved records");
        assert_eq!(events.len(), WRITERS * LINES);
        // Every writer's every record arrived intact and in per-writer
        // order (O_APPEND + one write_all per record).
        let mut next = [0usize; WRITERS];
        for event in &events {
            let obj = event.as_object().unwrap();
            let w = obj
                .get("writer")
                .and_then(serde_json::Value::as_f64)
                .unwrap() as usize;
            let i = obj.get("i").and_then(serde_json::Value::as_f64).unwrap() as usize;
            assert_eq!(i, next[w], "writer {w} records in order");
            next[w] += 1;
        }
        assert_eq!(next, [LINES; WRITERS]);
    }
}
