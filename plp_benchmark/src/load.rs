//! The load generator for the `serve_*` workloads.
//!
//! **Open loop.** One dispatcher thread owns a precomputed arrival
//! schedule. Whenever it is free it takes every arrival already due (up to
//! `max_wave`), makes *one* call into the engine, and stamps each query's
//! latency from the time it was **due**, not from the time it was sent — so
//! a stall charges every query that queued behind it (no coordinated
//! omission). Independent users make an open loop; that is the deployment
//! the paper describes.
//!
//! **Closed loop.** Back-to-back fixed-size waves with no think time, used
//! only to find the saturation throughput.

use std::time::{Duration, Instant};

use plp_serve::{Query, ServeError};

use crate::trace::SpanLog;

/// What the dispatcher calls: `BatchEngine::serve` (generation 0) or
/// `HotSwapServer::serve_pinned`.
pub type ServeFn<'a> = dyn Fn(&[Query]) -> Result<(u64, Vec<Vec<usize>>), ServeError> + 'a;

/// Below this distance from the due time the dispatcher spins instead of
/// sleeping: `thread::sleep` overshoots by tens of microseconds, which is
/// the same order as a cached query's service time.
const SPIN_BELOW: Duration = Duration::from_micros(250);

/// Blocks until `deadline` (sleep for the bulk, spin for the tail).
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > SPIN_BELOW {
            std::thread::sleep(left - SPIN_BELOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One served answer kept for the correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kept {
    /// Position of the query in the phase's stream.
    pub index: usize,
    /// Generation that answered.
    pub generation: u64,
    /// The answer.
    pub result: Vec<usize>,
}

/// One dispatched wave (open loop: traced runs only; closed loop: always).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    /// Queries in the wave.
    pub len: usize,
    /// Seconds the engine call took.
    pub service_s: f64,
}

/// What one phase of load observed.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Phase label (`warmup`, `r1`, `r2`, `saturation`).
    pub name: &'static str,
    /// Queries sent.
    pub sent: usize,
    /// Queries answered.
    pub succeeded: usize,
    /// Queries the engine refused or failed.
    pub failed: usize,
    /// `(due time in ns from phase start, latency from due time in ms)` of
    /// every answered query, in arrival order.
    pub latency: Vec<(u64, f64)>,
    /// Wall time of the phase in seconds.
    pub elapsed_s: f64,
    /// Answers kept for verification (every `keep_every`-th query).
    pub kept: Vec<Kept>,
    /// First completion time of every generation seen, in order of
    /// appearance.
    pub first_answer: Vec<(u64, Instant)>,
    /// Traced only: due → dispatch wait of every query, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Every wave (open loop: traced only).
    pub waves: Vec<Wave>,
    /// Traced only: how late an idle dispatcher woke for an arrival, ms.
    pub wake_late_ms: Vec<f64>,
    /// Traced only: most arrivals found due at one dispatch.
    pub backlog_max: usize,
    /// Traced only: seconds the dispatcher spent waiting for the next
    /// arrival.
    pub idle_s: f64,
    /// When the phase started; due times count from here.
    pub started: Option<Instant>,
}

/// Shared knobs of a phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseOpts {
    /// Phase label.
    pub name: &'static str,
    /// Most queries handed to one engine call.
    pub max_wave: usize,
    /// Keep every n-th answer for verification (0 keeps none).
    pub keep_every: usize,
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

fn note_generation(first_answer: &mut Vec<(u64, Instant)>, generation: u64, done: Instant) {
    if !first_answer.iter().any(|&(g, _)| g == generation) {
        first_answer.push((generation, done));
    }
}

fn keep_answers(
    kept: &mut Vec<Kept>,
    keep_every: usize,
    first: usize,
    generation: u64,
    results: Vec<Vec<usize>>,
) {
    if keep_every == 0 {
        return;
    }
    for (offset, result) in results.into_iter().enumerate() {
        if (first + offset).is_multiple_of(keep_every) {
            kept.push(Kept {
                index: first + offset,
                generation,
                result,
            });
        }
    }
}

/// Runs one open-loop phase: `queries[i]` is due at `due_ns[i]` after the
/// phase starts. With `spans` set (the traced run) every wave is recorded
/// as `wave → queue_wait, serve_call`, plus the queue and wave statistics.
///
/// # Panics
/// If `due_ns` and `queries` differ in length.
pub fn open_loop(
    serve: &ServeFn<'_>,
    queries: &[Query],
    due_ns: &[u64],
    opts: PhaseOpts,
    mut spans: Option<&mut SpanLog>,
) -> PhaseOutcome {
    assert_eq!(queries.len(), due_ns.len(), "one due time per query");
    let n = queries.len();
    let traced = spans.is_some();
    let mut out = PhaseOutcome {
        name: opts.name,
        sent: n,
        latency: Vec::with_capacity(n),
        queue_wait_ms: Vec::with_capacity(if traced { n } else { 0 }),
        waves: Vec::with_capacity(if traced { n } else { 0 }),
        ..PhaseOutcome::default()
    };
    let t0 = Instant::now();
    out.started = Some(t0);
    let mut next = 0usize;
    let mut wave_id = 0u64;
    while next < n {
        let due = t0 + Duration::from_nanos(due_ns[next]);
        let mut now = Instant::now();
        if now < due {
            let idle_from = now;
            wait_until(due);
            now = Instant::now();
            if traced {
                out.wake_late_ms.push((now - due).as_secs_f64() * 1e3);
                out.idle_s += (now - idle_from).as_secs_f64();
            }
        }
        let now_ns = ns_since(t0, now);
        let mut end = next + 1;
        while end < n && end - next < opts.max_wave && due_ns[end] <= now_ns {
            end += 1;
        }
        if traced {
            let backlog = due_ns[next..].partition_point(|&d| d <= now_ns);
            out.backlog_max = out.backlog_max.max(backlog);
        }
        let answer = serve(&queries[next..end]);
        let done = Instant::now();
        let done_ns = ns_since(t0, done);
        match answer {
            Ok((generation, results)) => {
                out.succeeded += end - next;
                for &d in &due_ns[next..end] {
                    out.latency
                        .push((d, done_ns.saturating_sub(d) as f64 / 1e6));
                }
                note_generation(&mut out.first_answer, generation, done);
                keep_answers(&mut out.kept, opts.keep_every, next, generation, results);
            }
            Err(_) => out.failed += end - next,
        }
        if let Some(log) = spans.as_deref_mut() {
            for &d in &due_ns[next..end] {
                out.queue_wait_ms
                    .push(now_ns.saturating_sub(d) as f64 / 1e6);
            }
            out.waves.push(Wave {
                len: end - next,
                service_s: (done - now).as_secs_f64(),
            });
            let first_due = t0 + Duration::from_nanos(due_ns[next]);
            let wave = log.record("wave", first_due, done, 0, wave_id, 0);
            log.record("queue_wait", first_due, now, wave, wave_id, 0);
            log.record("serve_call", now, done, wave, wave_id, 0);
        }
        wave_id += 1;
        next = end;
    }
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out
}

/// Runs back-to-back `wave`-query waves over `queries` (cycling) for
/// `secs` seconds and reports what was answered.
pub fn closed_loop(
    serve: &ServeFn<'_>,
    queries: &[Query],
    wave: usize,
    secs: f64,
    opts: PhaseOpts,
    mut spans: Option<&mut SpanLog>,
) -> PhaseOutcome {
    let mut out = PhaseOutcome {
        name: opts.name,
        ..PhaseOutcome::default()
    };
    let wave = wave.min(queries.len()).max(1);
    let t0 = Instant::now();
    out.started = Some(t0);
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut first = 0usize;
    let mut wave_id = 0u64;
    loop {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        if first + wave > queries.len() {
            first = 0;
        }
        let answer = serve(&queries[first..first + wave]);
        let done = Instant::now();
        out.sent += wave;
        match answer {
            Ok((generation, results)) => {
                out.succeeded += wave;
                note_generation(&mut out.first_answer, generation, done);
                keep_answers(&mut out.kept, opts.keep_every, first, generation, results);
            }
            Err(_) => out.failed += wave,
        }
        out.waves.push(Wave {
            len: wave,
            service_s: (done - start).as_secs_f64(),
        });
        if let Some(log) = spans.as_deref_mut() {
            let w = log.record("wave", start, done, 0, wave_id, 0);
            log.record("serve_call", start, done, w, wave_id, 0);
        }
        wave_id += 1;
        first += wave;
    }
    out.elapsed_s = t0.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn echo_queries(n: usize) -> Vec<Query> {
        (0..n).map(|i| Query::new(vec![i], 1)).collect()
    }

    #[test]
    fn a_stall_charges_every_query_queued_behind_it() {
        // Ten arrivals 1 ms apart; the first call stalls 30 ms. Timed from
        // send time the nine later queries would look fast; timed from due
        // time each carries the part of the stall it sat through.
        let queries = echo_queries(10);
        let due: Vec<u64> = (0..10).map(|i| i * 1_000_000).collect();
        let calls = Cell::new(0usize);
        let serve = |qs: &[Query]| {
            if calls.get() == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
            calls.set(calls.get() + 1);
            Ok((0u64, qs.iter().map(|q| q.recent.clone()).collect()))
        };
        let out = open_loop(
            &serve,
            &queries,
            &due,
            PhaseOpts {
                name: "t",
                max_wave: 256,
                keep_every: 1,
            },
            None,
        );
        assert_eq!((out.sent, out.succeeded, out.failed), (10, 10, 0));
        assert_eq!(calls.get(), 2, "the backlog is taken as one wave");
        assert!(out.latency[0].1 >= 30.0);
        assert!(
            out.latency[1].1 >= 28.0,
            "queued query pays the stall: {}",
            out.latency[1].1
        );
        assert_eq!(out.kept.len(), 10);
        assert_eq!(out.kept[3].result, vec![3]);
    }

    #[test]
    fn failures_are_counted_not_timed() {
        let queries = echo_queries(4);
        let due = vec![0, 0, 0, 0];
        let serve = |_: &[Query]| {
            Err(ServeError::BadConfig {
                name: "x",
                expected: "y",
            })
        };
        let out = open_loop(
            &serve,
            &queries,
            &due,
            PhaseOpts {
                name: "t",
                max_wave: 2,
                keep_every: 0,
            },
            None,
        );
        assert_eq!((out.sent, out.succeeded, out.failed), (4, 0, 4));
        assert!(out.latency.is_empty());
    }

    #[test]
    fn traced_phase_records_wave_queue_and_call_spans() {
        let queries = echo_queries(3);
        let due = vec![0, 0, 0];
        let serve = |qs: &[Query]| Ok((7u64, vec![Vec::new(); qs.len()]));
        let mut log = SpanLog::with_capacity(16);
        let out = open_loop(
            &serve,
            &queries,
            &due,
            PhaseOpts {
                name: "t",
                max_wave: 256,
                keep_every: 0,
            },
            Some(&mut log),
        );
        assert_eq!(out.waves.len(), 1);
        assert_eq!(out.waves[0].len, 3);
        assert_eq!(out.queue_wait_ms.len(), 3);
        assert_eq!(out.first_answer[0].0, 7);
        let names: Vec<_> = log.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["wave", "queue_wait", "serve_call"]);
        assert_eq!(log.spans()[1].parent, 1);
    }

    #[test]
    fn closed_loop_cycles_until_the_deadline() {
        let queries = echo_queries(10);
        let serve = |qs: &[Query]| Ok((0u64, vec![Vec::new(); qs.len()]));
        let out = closed_loop(
            &serve,
            &queries,
            4,
            0.02,
            PhaseOpts {
                name: "sat",
                max_wave: 4,
                keep_every: 0,
            },
            None,
        );
        assert!(out.succeeded > 0 && out.succeeded.is_multiple_of(4));
        assert!(out.elapsed_s >= 0.02);
    }
}
