//! The coordinator: a [`BucketExecutor`] that fans each step's buckets out
//! to worker *processes* and reduces their replies in fixed order.
//!
//! # Bit-identity argument
//!
//! The training loop around this executor (sampling, grouping, noise, the
//! server update, accounting, checkpointing) is byte-for-byte the same
//! code the single-process trainer runs — the executor seam replaces only
//! lines 7–8 of Algorithm 1. A bucket's update is a pure function of
//! `(θ_t, bucket, step_seed, global index)`, and replies are reduced
//! sorted by global index, so *where* and *when* a bucket is computed —
//! which worker, which retry, after how many respawns — cannot change the
//! aggregate's bits. The only event that changes the trained bits is a
//! *permanent* drop (retries exhausted), which reuses the trainer's
//! DP-safe skipped-bucket semantics: the bucket contributes 0 ≤ ωC to the
//! Gaussian sum (never increases sensitivity), σ is unchanged, the RDP
//! charge is unchanged, and the averaging denominator stays the fixed
//! `q·W/λ`. A dropped worker can therefore never weaken the privacy
//! guarantee — only the utility of that one step.
//!
//! # Failure handling
//!
//! Per-slot deadlines with exponential stretch, bounded retries with
//! exponential backoff, and respawn-with-fresh-incarnation are all driven
//! by the pure [`RetryPolicy`] state machine (see [`crate::retry`] for
//! the diagram). Corrupted reply frames are detected by CRC and
//! re-requested over the same pipe (framing stays aligned); dead pipes
//! respawn the worker. Stale replies — from a superseded attempt or a
//! previous incarnation — are recognised by their `(incarnation, step,
//! attempt)` keys and ignored, which also de-duplicates replayed frames.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use plp_core::config::Hyperparameters;
use plp_core::faults::FaultInjector;
use plp_core::plp::{BucketExecutor, BucketUpdate};
use plp_core::CoreError;
use plp_data::grouping::Bucket;
use plp_model::params::ModelParams;
use plp_obs::trace::{derive_trace_id, TraceContext, DOMAIN_FED_ROUND};
use plp_obs::{Observer, PhaseSet};
use serde_json::json;

use crate::error::FedError;
use crate::frame::{read_frame_event, write_frame, write_frame_traced, FrameEvent};
use crate::phase;
use crate::protocol::{
    RoundReply, RoundRequest, Setup, MSG_REPLY, MSG_ROUND, MSG_SETUP, MSG_SHUTDOWN,
    PROTOCOL_VERSION,
};
use crate::retry::RetryPolicy;
use crate::worker::{TRACE_DIR_ENV, WORKER_ENV};

/// Static configuration of a coordinator.
#[derive(Debug, Clone)]
pub struct FedConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Worker executable. The coordinator sets [`WORKER_ENV`] when
    /// spawning, so this may be the dedicated `plp_fed_worker` binary or
    /// any binary that calls [`crate::worker::maybe_run_worker`] first.
    pub worker_program: PathBuf,
    /// Extra arguments passed to the worker program.
    pub worker_args: Vec<String>,
    /// Deadline/retry/backoff policy.
    pub retry: RetryPolicy,
}

impl FedConfig {
    /// Config spawning `workers` copies of the *current executable* as
    /// workers — the pattern for binaries that call `maybe_run_worker()`.
    ///
    /// # Errors
    /// Propagates the failure to resolve the current executable path.
    pub fn with_current_exe(workers: usize) -> std::io::Result<Self> {
        Ok(FedConfig {
            workers,
            worker_program: std::env::current_exe()?,
            worker_args: Vec::new(),
            retry: RetryPolicy::default(),
        })
    }
}

/// What a reader thread tells the coordinator about one worker's pipe.
enum WorkerEvent {
    /// A CRC-clean frame arrived.
    Frame {
        slot: usize,
        incarnation: u64,
        kind: u8,
        payload: Vec<u8>,
    },
    /// A frame failed its CRC; the pipe is still aligned.
    Corrupt { slot: usize, incarnation: u64 },
    /// The pipe closed (worker exited or was killed).
    Closed { slot: usize, incarnation: u64 },
}

struct WorkerHandle {
    child: Child,
    stdin: ChildStdin,
    incarnation: u64,
}

/// A slot's in-flight round assignment.
struct Pending {
    /// `(global index, bucket)` pairs this slot owns for the step.
    assignments: Vec<(u64, Bucket)>,
    /// The attempt number the expected reply must echo.
    attempt: u64,
    /// Failures so far this round (re-requests, respawns, stragglers).
    retries: u32,
    /// When this attempt is declared a straggler.
    deadline: Instant,
}

/// What every dispatch of one round shares: the step's identity and θ_t,
/// where to report, and the `fed_round` span the sends parent under.
struct Round<'a> {
    step: u64,
    step_seed: u64,
    theta: &'a ModelParams,
    obs: &'a Observer,
    phases: &'a PhaseSet,
    /// `None` when the round is not traced.
    ctx: Option<TraceContext>,
}

/// Round statistics, reported through the observer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Reply re-requests after CRC failures.
    pub corrupt_frames: u64,
    /// Byte-identical duplicate replies discarded.
    pub duplicates: u64,
    /// Stale replies (superseded attempt or dead incarnation) discarded.
    pub stale: u64,
    /// Deadline expiries.
    pub stragglers: u64,
    /// Worker processes respawned.
    pub respawns: u64,
    /// Buckets dropped because a slot exhausted its retry budget.
    pub dropped_buckets: u64,
}

/// The multi-process executor. Workers are spawned lazily on the first
/// step and live across steps; [`Drop`] shuts them down.
pub struct FedExecutor {
    cfg: FedConfig,
    workers: Vec<Option<WorkerHandle>>,
    events_tx: Sender<WorkerEvent>,
    events_rx: Receiver<WorkerEvent>,
    /// Coordinator-wide monotone spawn counter: every (re)spawn gets a
    /// fresh incarnation, which keys worker-level fault decisions and
    /// invalidates replies from dead processes.
    next_incarnation: u64,
    /// Coordinator-wide monotone send counter: every round (re)send gets
    /// a fresh attempt, which keys reply-frame fault decisions and
    /// invalidates superseded replies.
    next_attempt: u64,
    /// The setup workers were spawned with (slot and incarnation zeroed),
    /// to detect drift.
    active_setup: Option<Setup>,
    /// Directory workers dump their flight recorders into, exported as
    /// [`TRACE_DIR_ENV`] at spawn. Resolved per step from the observer's
    /// tracer; deliberately *not* part of the setup drift check, so
    /// toggling tracing never tears a fleet down.
    trace_dir: Option<PathBuf>,
    /// Cumulative stats across all steps (drill assertions read these).
    pub total_stats: RoundStats,
}

impl FedExecutor {
    /// Creates an executor; no processes are spawned until the first
    /// step executes.
    ///
    /// # Errors
    /// [`CoreError::BadConfig`] if `workers` is zero.
    pub fn new(cfg: FedConfig) -> Result<Self, CoreError> {
        if cfg.workers == 0 {
            return Err(CoreError::BadConfig {
                name: "workers",
                expected: ">= 1",
            });
        }
        let (events_tx, events_rx) = channel();
        let workers = (0..cfg.workers).map(|_| None).collect();
        Ok(FedExecutor {
            cfg,
            workers,
            events_tx,
            events_rx,
            next_incarnation: 0,
            next_attempt: 0,
            active_setup: None,
            trace_dir: None,
            total_stats: RoundStats::default(),
        })
    }

    fn spawn_worker(&mut self, slot: usize, template: &Setup) -> Result<(), FedError> {
        self.next_incarnation += 1;
        let incarnation = self.next_incarnation;
        let mut command = Command::new(&self.cfg.worker_program);
        command
            .args(&self.cfg.worker_args)
            .env(WORKER_ENV, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(dir) = &self.trace_dir {
            command.env(TRACE_DIR_ENV, dir);
        }
        let mut child = command.spawn()?;
        let mut stdin = child.stdin.take().ok_or_else(|| FedError::Protocol {
            what: "spawned worker has no stdin".into(),
        })?;
        let stdout = child.stdout.take().ok_or_else(|| FedError::Protocol {
            what: "spawned worker has no stdout".into(),
        })?;

        // One reader thread per incarnation. It owns the stdout pipe and
        // feeds the shared event channel until the pipe closes; events
        // from dead incarnations are filtered out by the coordinator.
        let tx = self.events_tx.clone();
        std::thread::spawn(move || {
            let mut stdout = stdout;
            loop {
                match read_frame_event(&mut stdout) {
                    // Replies never carry trace context (the worker's
                    // spans live in its own flight recorder), so any ctx
                    // here is ignored rather than trusted.
                    FrameEvent::Frame { kind, payload, .. } => {
                        if tx
                            .send(WorkerEvent::Frame {
                                slot,
                                incarnation,
                                kind,
                                payload,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    FrameEvent::Corrupt { .. } => {
                        if tx.send(WorkerEvent::Corrupt { slot, incarnation }).is_err() {
                            return;
                        }
                    }
                    FrameEvent::Closed => {
                        let _ = tx.send(WorkerEvent::Closed { slot, incarnation });
                        return;
                    }
                }
            }
        });

        // Per-worker setup: identical hp/plan, distinct slot/incarnation.
        let setup = Setup {
            slot,
            incarnation,
            ..template.clone()
        };
        write_frame(&mut stdin, MSG_SETUP, &setup.encode())?;
        self.workers[slot] = Some(WorkerHandle {
            child,
            stdin,
            incarnation,
        });
        Ok(())
    }

    fn kill_worker(&mut self, slot: usize) {
        if let Some(mut h) = self.workers[slot].take() {
            let _ = h.child.kill();
            let _ = h.child.wait();
        }
    }

    /// Spawns (or re-spawns) every missing worker with the given setup;
    /// tears the fleet down first if the run configuration changed.
    fn ensure_workers(
        &mut self,
        hp: &Hyperparameters,
        faults: &FaultInjector,
    ) -> Result<(), FedError> {
        let template = Setup {
            protocol_version: PROTOCOL_VERSION,
            slot: 0,
            incarnation: 0,
            hp: hp.clone(),
            plan: faults.plan(),
        };
        if self.active_setup.as_ref() != Some(&template) {
            for slot in 0..self.cfg.workers {
                self.kill_worker(slot);
            }
            self.active_setup = Some(template.clone());
        }
        for slot in 0..self.cfg.workers {
            if self.workers[slot].is_none() {
                self.spawn_worker(slot, &template)?;
            }
        }
        Ok(())
    }

    /// Sends one round request to a slot, consuming a fresh attempt
    /// number. Pipe errors surface so the caller can route them through
    /// the retry machinery. When the round is traced, the frame carries
    /// the context of this send's `fed_send` span, so worker-side spans
    /// stitch under the exact dispatch that caused them — retries
    /// included.
    fn send_round(
        &mut self,
        slot: usize,
        round: &Round<'_>,
        assignments: &[(u64, Bucket)],
    ) -> Result<u64, FedError> {
        self.next_attempt += 1;
        let attempt = self.next_attempt;
        let req = RoundRequest {
            step: round.step,
            step_seed: round.step_seed,
            attempt,
            params: round.theta.clone(),
            assignments: assignments.to_vec(),
        };
        let t_send = round
            .phases
            .start(phase::FED_SEND, round.ctx, attempt)
            .arg("slot", slot as u64)
            .arg("attempt", attempt);
        let handle = self.workers[slot]
            .as_mut()
            .ok_or_else(|| FedError::Protocol {
                what: format!("send_round to empty slot {slot}"),
            })?;
        write_frame_traced(
            &mut handle.stdin,
            MSG_ROUND,
            t_send.context(),
            &req.encode(),
        )?;
        Ok(attempt)
    }

    /// Handles one slot failure (straggler, dead pipe, poisoned frames):
    /// either re-dispatches within the retry budget — with backoff and a
    /// respawn if the process is gone — or drops the slot's buckets into
    /// the DP-safe skipped set.
    ///
    /// Returns the buckets dropped (empty when the retry was dispatched).
    fn retry_or_drop(
        &mut self,
        slot: usize,
        pending: &mut BTreeMap<usize, Pending>,
        round: &Round<'_>,
        needs_respawn: bool,
        stats: &mut RoundStats,
    ) -> Result<Vec<(u64, Bucket)>, FedError> {
        let (step, obs) = (round.step, round.obs);
        let Some(mut p) = pending.remove(&slot) else {
            return Ok(Vec::new());
        };
        loop {
            if !self.cfg.retry.may_retry(p.retries) {
                // Retry budget exhausted: permanent drop. DP-safe by the
                // skipped-bucket argument (see module docs) — the step's
                // noise, RDP charge and denominator are all unchanged.
                self.kill_worker(slot);
                stats.dropped_buckets += p.assignments.len() as u64;
                obs.emit(
                    "fed_worker_dropped",
                    json!({
                        "step": step,
                        "slot": slot,
                        "buckets": p.assignments.len(),
                        "retries": p.retries,
                    }),
                );
                // A permanent drop is a fault worth a post-mortem: keep
                // the trace that led up to it.
                if let Some(tracer) = obs.tracer() {
                    tracer.dump_on_fault("fed_worker_dropped");
                }
                return Ok(p.assignments);
            }
            p.retries += 1;
            stats.respawns += u64::from(needs_respawn);
            std::thread::sleep(Duration::from_millis(
                self.cfg.retry.backoff_for(p.retries - 1),
            ));
            if needs_respawn || self.workers[slot].is_none() {
                self.kill_worker(slot);
                let template = self
                    .active_setup
                    .clone()
                    .ok_or_else(|| FedError::Protocol {
                        what: "retry before setup".into(),
                    })?;
                self.spawn_worker(slot, &template)?;
                obs.emit(
                    "fed_worker_respawned",
                    json!({ "step": step, "slot": slot, "retries": p.retries }),
                );
            }
            match self.send_round(slot, round, &p.assignments) {
                Ok(attempt) => {
                    p.attempt = attempt;
                    p.deadline = Instant::now()
                        + Duration::from_millis(self.cfg.retry.deadline_for(p.retries));
                    pending.insert(slot, p);
                    return Ok(Vec::new());
                }
                Err(FedError::Io(_)) => {
                    // The replacement died before accepting the round
                    // (or the original pipe broke mid-write): loop and
                    // spend another retry on a fresh process.
                    self.kill_worker(slot);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl BucketExecutor for FedExecutor {
    fn execute_step(
        &mut self,
        theta: &ModelParams,
        buckets: &[Bucket],
        hp: &Hyperparameters,
        step_seed: u64,
        step: u64,
        faults: &FaultInjector,
        obs: &Observer,
    ) -> Result<(Vec<BucketUpdate>, usize), CoreError> {
        if buckets.is_empty() {
            return Ok((Vec::new(), 0));
        }
        // Resolve tracing once per round; workers spawned this round
        // inherit the dump directory so their flight recorders land next
        // to the coordinator's.
        let tracer = obs.tracer();
        self.trace_dir = tracer
            .as_ref()
            .and_then(|t| t.dump_path()?.parent().map(Path::to_path_buf));
        // The round parents under the training loop's scope when one is
        // published (the step's `local_sgd` span); a standalone executor
        // derives its trace id from `(step_seed, step)` — deterministic
        // either way, so coordinator and stitcher agree on every id.
        let parent = obs.trace_scope().unwrap_or(TraceContext {
            trace_id: derive_trace_id(step_seed, DOMAIN_FED_ROUND, step),
            parent_span: 0,
        });
        let phases = PhaseSet::resolve(obs, &phase::TABLE);
        let t_round = phases
            .start(phase::FED_ROUND, Some(parent), step)
            .arg("step", step)
            .arg("buckets", buckets.len() as u64);
        let round = Round {
            step,
            step_seed,
            theta,
            obs,
            phases: &phases,
            ctx: t_round.context(),
        };

        self.ensure_workers(hp, faults)?;

        // Round-robin partition by global index. The partition shape is
        // irrelevant to the result: replies are keyed and re-sorted by
        // global index before aggregation.
        let mut per_slot: Vec<Vec<(u64, Bucket)>> = vec![Vec::new(); self.cfg.workers];
        for (i, bucket) in buckets.iter().enumerate() {
            per_slot[i % self.cfg.workers].push((i as u64, bucket.clone()));
        }

        let mut stats = RoundStats::default();
        let mut pending: BTreeMap<usize, Pending> = BTreeMap::new();
        let mut updates: Vec<BucketUpdate> = Vec::with_capacity(buckets.len());
        let mut skipped = 0usize;

        for (slot, assignments) in per_slot.into_iter().enumerate() {
            if assignments.is_empty() {
                continue;
            }
            match self.send_round(slot, &round, &assignments) {
                Ok(attempt) => {
                    pending.insert(
                        slot,
                        Pending {
                            assignments,
                            attempt,
                            retries: 0,
                            deadline: Instant::now()
                                + Duration::from_millis(self.cfg.retry.deadline_for(0)),
                        },
                    );
                }
                Err(FedError::Io(_)) => {
                    // Worker died idle between rounds: route through the
                    // retry machinery immediately.
                    pending.insert(
                        slot,
                        Pending {
                            assignments,
                            attempt: 0,
                            retries: 0,
                            deadline: Instant::now(),
                        },
                    );
                    let dropped =
                        self.retry_or_drop(slot, &mut pending, &round, true, &mut stats)?;
                    skipped += dropped.len();
                }
                Err(e) => return Err(e.into()),
            }
        }

        while !pending.is_empty() {
            // Stragglers first: any slot past its deadline is killed,
            // backed off, respawned and re-sent (or dropped).
            let now = Instant::now();
            let expired: Vec<usize> = pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&s, _)| s)
                .collect();
            let mut any_expired = false;
            for slot in expired {
                any_expired = true;
                stats.stragglers += 1;
                obs.emit("fed_straggler", json!({ "step": step, "slot": slot }));
                let at = [("step", step), ("slot", slot as u64)];
                phases.instant("fed_straggler", round.ctx, at);
                if let Some(t) = &tracer {
                    t.dump_on_fault("fed_straggler");
                }
                self.kill_worker(slot);
                let dropped = self.retry_or_drop(slot, &mut pending, &round, true, &mut stats)?;
                skipped += dropped.len();
            }
            if any_expired || pending.is_empty() {
                continue;
            }

            let nearest = pending
                .values()
                .map(|p| p.deadline)
                .min()
                .expect("pending is non-empty");
            let timeout = nearest.saturating_duration_since(Instant::now());
            let event = match self.events_rx.recv_timeout(timeout) {
                Ok(e) => e,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CoreError::Io {
                        message: "fed event channel disconnected".into(),
                    })
                }
            };
            match event {
                WorkerEvent::Frame {
                    slot,
                    incarnation,
                    kind,
                    payload,
                } => {
                    let live = self.workers[slot]
                        .as_ref()
                        .is_some_and(|h| h.incarnation == incarnation);
                    if !live || kind != MSG_REPLY {
                        stats.stale += 1;
                        continue;
                    }
                    let reply = match RoundReply::decode(&payload) {
                        Ok(r) => r,
                        Err(_) => {
                            // CRC-clean but undecodable: treat like a
                            // garbled frame and re-request.
                            stats.corrupt_frames += 1;
                            obs.emit(
                                "fed_corrupt_frame",
                                json!({ "step": step, "slot": slot, "kind": "undecodable" }),
                            );
                            let dropped =
                                self.retry_or_drop(slot, &mut pending, &round, false, &mut stats)?;
                            skipped += dropped.len();
                            continue;
                        }
                    };
                    let Some(p) = pending.get(&slot) else {
                        // Reply for a slot already settled this round: a
                        // duplicate retransmit.
                        stats.duplicates += 1;
                        continue;
                    };
                    if reply.step != step || reply.attempt != p.attempt {
                        // A superseded attempt finally answered (e.g. a
                        // straggler that woke up after its replacement).
                        stats.stale += 1;
                        continue;
                    }
                    let p = pending.remove(&slot).expect("checked above");
                    if reply.results.len() != p.assignments.len() {
                        return Err(CoreError::Io {
                            message: format!(
                                "worker {slot} answered {} results for {} assignments",
                                reply.results.len(),
                                p.assignments.len()
                            ),
                        });
                    }
                    for (index, result) in reply.results {
                        match result {
                            Some(wire) => updates.push(wire.into_update(index as usize)),
                            None => skipped += 1,
                        }
                    }
                }
                WorkerEvent::Corrupt { slot, incarnation } => {
                    let live = self.workers[slot]
                        .as_ref()
                        .is_some_and(|h| h.incarnation == incarnation);
                    if !live {
                        stats.stale += 1;
                        continue;
                    }
                    stats.corrupt_frames += 1;
                    obs.emit(
                        "fed_corrupt_frame",
                        json!({ "step": step, "slot": slot, "kind": "crc" }),
                    );
                    // The pipe is still aligned: re-request on the same
                    // process, fresh attempt number.
                    let dropped =
                        self.retry_or_drop(slot, &mut pending, &round, false, &mut stats)?;
                    skipped += dropped.len();
                }
                WorkerEvent::Closed { slot, incarnation } => {
                    let live = self.workers[slot]
                        .as_ref()
                        .is_some_and(|h| h.incarnation == incarnation);
                    if !live {
                        continue;
                    }
                    self.kill_worker(slot);
                    if pending.contains_key(&slot) {
                        let dropped =
                            self.retry_or_drop(slot, &mut pending, &round, true, &mut stats)?;
                        skipped += dropped.len();
                    }
                }
            }
        }

        // Fixed reduction order: ascending global bucket index, exactly
        // like the in-process executor.
        updates.sort_by_key(|u| u.index);
        drop(t_round);

        obs.counter("plp_fed_rounds_total").inc();
        obs.counter("plp_fed_corrupt_frames_total")
            .add(stats.corrupt_frames);
        obs.counter("plp_fed_duplicate_replies_total")
            .add(stats.duplicates);
        obs.counter("plp_fed_stragglers_total")
            .add(stats.stragglers);
        obs.counter("plp_fed_respawns_total").add(stats.respawns);
        obs.counter("plp_fed_dropped_buckets_total")
            .add(stats.dropped_buckets);
        if stats != RoundStats::default() {
            obs.emit(
                "fed_round_recovered",
                json!({
                    "step": step,
                    "corrupt_frames": stats.corrupt_frames,
                    "duplicates": stats.duplicates,
                    "stale": stats.stale,
                    "stragglers": stats.stragglers,
                    "respawns": stats.respawns,
                    "dropped_buckets": stats.dropped_buckets,
                }),
            );
        }
        self.total_stats.corrupt_frames += stats.corrupt_frames;
        self.total_stats.duplicates += stats.duplicates;
        self.total_stats.stale += stats.stale;
        self.total_stats.stragglers += stats.stragglers;
        self.total_stats.respawns += stats.respawns;
        self.total_stats.dropped_buckets += stats.dropped_buckets;

        Ok((updates, skipped))
    }
}

impl Drop for FedExecutor {
    fn drop(&mut self) {
        // Broadcast the shutdown first so every worker winds down
        // concurrently...
        for slot in 0..self.workers.len() {
            if let Some(h) = self.workers[slot].as_mut() {
                let _ = write_frame(&mut h.stdin, MSG_SHUTDOWN, &[]);
                let _ = h.stdin.flush();
            }
        }
        // ...then grant a short grace period before the hard kill: a
        // clean exit lets the worker write its flight-recorder dump. A
        // stalled worker ignores the request and eats the full grace —
        // the deadline keeps shutdown bounded either way.
        let deadline = Instant::now() + Duration::from_millis(500);
        for slot in 0..self.workers.len() {
            if let Some(h) = self.workers[slot].as_mut() {
                while Instant::now() < deadline {
                    if matches!(h.child.try_wait(), Ok(Some(_))) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            self.kill_worker(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_is_rejected() {
        let cfg = FedConfig {
            workers: 0,
            worker_program: PathBuf::from("/does/not/matter"),
            worker_args: vec![],
            retry: RetryPolicy::default(),
        };
        assert!(matches!(
            FedExecutor::new(cfg),
            Err(CoreError::BadConfig {
                name: "workers",
                ..
            })
        ));
    }

    #[test]
    fn empty_steps_never_touch_workers() {
        // A nonexistent worker program would fail any spawn; an empty
        // bucket list must short-circuit before that.
        let cfg = FedConfig {
            workers: 2,
            worker_program: PathBuf::from("/nonexistent/worker/binary"),
            worker_args: vec![],
            retry: RetryPolicy::default(),
        };
        let mut exec = FedExecutor::new(cfg).unwrap();
        let theta = ModelParams::zeros(4, 2);
        let hp = Hyperparameters::default();
        let (updates, skipped) = exec
            .execute_step(
                &theta,
                &[],
                &hp,
                1,
                1,
                &FaultInjector::default(),
                &Observer::disabled(),
            )
            .unwrap();
        assert!(updates.is_empty());
        assert_eq!(skipped, 0);
    }
}
