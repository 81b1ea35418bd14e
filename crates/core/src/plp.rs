//! Algorithm 1: `TrainPrivateLocationEmbedding` — Private Location
//! Prediction with user-level differential privacy.
//!
//! Each step: Poisson-sample users (line 5), group into buckets of λ
//! (line 6), compute a clipped local-SGD delta per bucket (lines 7–8 /
//! 15–22), sum and perturb with `N(0, σ²C²I)` (line 9), average by the
//! fixed denominator `q·W/λ` — the *expected* bucket count, see
//! [`fixed_denominator`] — and update the model (line 10), then track the
//! step in the privacy ledger (line 11) and stop once the moments
//! accountant reaches ε (lines 12–13).
//!
//! Differences from the paper's pseudo-code, all behaviour-preserving:
//! * The budget check *peeks* at the ε a step would cost before running it,
//!   so the released model never exceeds the budget (the pseudo-code runs
//!   the step and returns θ_{t−1}; peeking returns the same parameters
//!   without paying for a discarded step).
//! * Bucket updates may run on several worker threads; every bucket derives
//!   its own RNG from the step seed and the deltas are summed in bucket
//!   order as they finish, so the result is bit-identical to the
//!   sequential execution.
//!
//! # Crash safety and degraded modes
//!
//! The loop steps a [`TrainingCheckpoint`] beside the moments accountant:
//! all per-step randomness derives from `(run_seed, step)`, so a run
//! resumed from a checkpoint is bit-identical to one that never crashed.
//! With a [`CheckpointPolicy`] installed, the trainer starts from the
//! policy's file when it holds this run (see [`train_plp_with_executor`])
//! and atomically persists the run there every `every` steps; ε is always
//! recomputed from the restored privacy ledger, never trusted from a cached
//! value.
//!
//! Buckets whose delta comes back non-finite, or whose worker panics, are
//! dropped from the Gaussian sum *before* noising. Each clipped bucket
//! contributes at most `C` to the sum, so dropping one (contributing 0
//! instead) never increases the query's sensitivity — the step's DP
//! accounting is unchanged, and the denominator stays the fixed `q·W/λ`
//! regardless. A step in which every bucket is poisoned stops
//! training with [`StopReason::Diverged`] after accounting the aborted
//! step conservatively (the step is paid for but its update discarded).

use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Condvar, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use plp_data::dataset::TokenizedDataset;
use plp_data::frame::write_atomic;
use plp_data::grouping::{group_data, Bucket, GroupingStrategy::Random};
use plp_data::sampling::sample_users;
use plp_linalg::sample::mix64;
use plp_model::clip::clip_per_layer;
use plp_model::journal::{CowParams, RowDelta, RowJournal, RowSum};
use plp_model::metrics::evaluate_hit_rate_threaded;
use plp_model::optimizer::ServerAdam;
use plp_model::params::ModelParams;
use plp_model::train::{train_on_tokens, TrainScratch};
use plp_obs::trace::{derive_trace_id, TraceContext, DOMAIN_TRAIN_STEP};
use plp_obs::{Counter, Gauge, Observer, PhaseSet};
use plp_privacy::accountant::MomentsAccountant;
use plp_privacy::mechanism::GaussianMechanism;
use plp_privacy::PrivacyLedger;
use serde_json::json;

use crate::checkpoint::{
    config_fingerprint, decode_checkpoint, encode_checkpoint, sealed_fingerprint,
    TrainingCheckpoint,
};
use crate::config::Hyperparameters;
use crate::error::CoreError;
use crate::faults::FaultInjector;
use crate::noise::{perturb_scale_and_step, step_noise_seed};
use crate::telemetry::{RunSummary, StepTelemetry, StopReason};

/// Result of a private training run.
#[derive(Debug, Clone)]
pub struct PlpOutcome {
    /// The trained (and DP-protected) model parameters.
    pub params: ModelParams,
    /// Per-step observations (resumed runs report only their own steps).
    pub telemetry: Vec<StepTelemetry>,
    /// Run summary (steps, ε spent, stop reason).
    pub summary: RunSummary,
    /// The auditable privacy ledger.
    pub ledger: PrivacyLedger,
}

/// Where and how often to persist checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (overwritten atomically on every save).
    pub path: PathBuf,
    /// Save after every `every` completed steps (0 disables periodic
    /// saves; a final checkpoint is still written when training stops).
    pub every: u64,
}

/// Knobs of a resumable training run beyond the hyper-parameters.
#[derive(Debug, Clone, Default)]
pub struct TrainOptions {
    /// Fault injector (inert by default).
    pub faults: FaultInjector,
    /// Checkpointing policy; `None` disables persistence. A run with a
    /// policy also starts from its file ([`train_plp_with_executor`]).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Stop with [`StopReason::Interrupted`] after this many *total*
    /// completed steps — a deterministic stand-in for `kill -9` in crash
    /// tests. No final checkpoint is written (a killed process would not
    /// have written one either); only periodic saves survive.
    pub halt_after: Option<u64>,
    /// Observability context: the phases of [`phase::TABLE`] (histograms,
    /// and spans once a tracer is attached), privacy-budget gauges
    /// (`plp_epsilon_spent` / `plp_epsilon_budget` / `plp_delta`),
    /// step/fault counters and the JSONL event stream. Inert by default,
    /// and never able to change what the trainer computes — only what it
    /// reports.
    pub observer: Observer,
}

/// The training phase table — the one place these names are spelled.
/// Each is one interval of Algorithm 1's per-step pipeline; the guard's
/// index is the step, except inside a bucket, where it is the bucket's
/// position in the step's bucket list.
pub mod phase {
    plp_obs::phase_table! {
        /// `plp_train_phase_ms{phase=…}` and the `train` trace category.
        TABLE = "plp_train_phase_ms", "train";
        /// One whole step; the root span of the step's trace.
        STEP = trace_only "step";
        /// Line 5: Poisson user sampling.
        SAMPLE = timed "sample";
        /// Line 6: data grouping.
        GROUP = timed "group";
        /// Lines 7–8 for the whole step: the executor's fan-out over every
        /// bucket.
        LOCAL_SGD = trace_only "local_sgd";
        /// Lines 15–21 for one bucket: local SGD from θ_t, inside a worker.
        BUCKET_SGD = timed "bucket_sgd";
        /// Line 22 for one bucket: per-layer clipping of its delta.
        CLIP = timed "clip";
        /// Lines 9–10 after the sum: the noise, the fixed-denominator scale
        /// and the server optimiser step, as one pass over θ.
        SERVER_UPDATE = timed "server_update";
        /// Line 11: the moments accountant's step.
        ACCOUNTANT = timed "accountant";
        /// A validation pass (every `eval_every` steps).
        EVAL = timed "eval";
        /// A checkpoint write (periodic, and the final one outside any step).
        CHECKPOINT = timed "checkpoint";
    }
}

/// The fixed denominator `q·W/λ` of the averaging estimator (Algorithm 1,
/// line 10): the *expected* number of buckets a step forms, which — unlike
/// the realised `|H_t|` — does not depend on the Poisson draw.
///
/// Using the expectation keeps the estimator's scale constant across
/// steps, so the degenerate step in which the sampler selects zero users
/// (or zero buckets survive) is still divided by the same `q·W/λ`, still
/// pays its RDP cost in the ledger, and never divides by zero: only a
/// population of `W = 0` users makes the expectation vanish, and that case
/// degenerates to a denominator of 1 (the update is pure noise either
/// way).
pub fn fixed_denominator(sampling_prob: f64, num_users: usize, lambda: usize) -> f64 {
    let expected = sampling_prob * num_users as f64 / lambda.max(1) as f64;
    if expected > 0.0 {
        expected
    } else {
        1.0
    }
}

/// The RNG driving step `step` (step 0 is parameter initialization).
/// Deriving from `(run_seed, step)` rather than one sequential stream is
/// what makes resumption bit-identical: step `k` draws the same variates
/// whether or not steps `1..k` ran in this process.
fn step_rng(run_seed: u64, step: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(run_seed ^ mix64(step)))
}

/// One bucket's contribution to the Gaussian sum query.
///
/// Public so any [`BucketExecutor`] — a timing wrapper, a test fake — can
/// build, inspect or pass on updates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketUpdate {
    /// The bucket's position in the step's bucket list. Updates are
    /// aggregated in ascending index order, which is what makes the
    /// floating-point sum independent of who computed each bucket.
    pub index: usize,
    /// The clipped local-SGD delta Φ − θ.
    pub grad: RowDelta,
    /// Mean local training loss over the bucket's pairs (telemetry only).
    pub mean_loss: f64,
    /// Whether per-layer clipping actually rescaled the delta.
    pub clipped: bool,
}

/// Per-worker reusable buffers for the bucket hot path: the copy-on-write
/// row journal that replaces the per-bucket `θ.clone()` and the local-SGD
/// training scratch. The journal's arenas leave with each delta and come
/// back once the delta has been summed, so a warm worker allocates nothing.
#[derive(Default)]
struct BucketScratch {
    journal: RowJournal,
    train: TrainScratch,
}

/// What the in-process executor keeps between the steps of one run: one
/// [`BucketScratch`] per worker and the buffers of the deltas already
/// summed. The training loop owns one per run and lends it to every
/// [`BucketExecutor::execute_step_into`] call; buffers carry capacity,
/// never values, so what a step computes does not depend on it.
#[derive(Default)]
pub struct StepScratch {
    workers: Vec<BucketScratch>,
    spent: Vec<RowDelta>,
}

/// Per-step context shared by every bucket worker: the step identity and
/// seed, the fault injector, what the workers record into (thread-safe,
/// and unable to influence a bucket's RNG or result) and the span the
/// buckets' spans parent under (when the step is traced).
struct BucketCtx<'a> {
    step: u64,
    step_seed: u64,
    faults: &'a FaultInjector,
    phases: &'a PhaseSet,
    pairs: &'a Counter,
    trace: Option<TraceContext>,
}

/// `ModelUpdateFromBucket` (Algorithm 1, lines 15–22): local SGD from θ_t,
/// delta extraction and per-layer clipping.
///
/// Φ is never materialised as a dense clone of θ: local SGD runs on a
/// [`CowParams`] overlay whose [`RowJournal`] copies only the rows the
/// bucket touches, and the sparse delta Φ − θ is the journal's own arena
/// with θ subtracted in place — bit-identical to the dense
/// clone-and-subtract it replaced (see the journal's determinism tests),
/// at O(touched rows) instead of O(L·dim) per bucket.
fn model_update_from_bucket(
    theta: &ModelParams,
    bucket: &Bucket,
    hp: &Hyperparameters,
    index: usize,
    ctx: &BucketCtx<'_>,
    scratch: &mut BucketScratch,
) -> Result<BucketUpdate, CoreError> {
    let mut rng =
        StdRng::seed_from_u64(ctx.step_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let phases = ctx.phases;
    let BucketScratch { journal, train } = scratch;
    // A previous bucket on this worker may have panicked mid-update and
    // left stale Φ rows in the overlay; the next bucket must start clean.
    journal.reset();
    // Every token is the target of at most 2·window pairs. A pair touches
    // its target's embedding row and its context's row, and each batch
    // adds its neg shared negatives: W′ rows ≤ distinct contexts +
    // batches·neg.
    let vocab = theta.vocab_size();
    let tokens = bucket.tokens.len();
    let batches = (tokens * 2 * hp.context_window).div_ceil(hp.batch_size.max(1));
    let context_rows = tokens + batches * hp.negative_samples;
    journal.reserve(vocab.min(tokens), vocab.min(context_rows), theta.dim());
    let sgd = phases.start(phase::BUCKET_SGD, ctx.trace, index as u64);
    let stats = {
        let mut phi = CowParams::new(theta, journal);
        train_on_tokens(&mut rng, &mut phi, &bucket.tokens, &hp.local_sgd(), train)?
    };
    drop(sgd);
    ctx.pairs.add(stats.pairs as u64);
    let mut grad = journal.take_delta(theta);
    let clip = phases.start(phase::CLIP, ctx.trace, index as u64);
    let report = clip_per_layer(&mut grad, hp.clip_norm)?;
    drop(clip);
    Ok(BucketUpdate {
        index,
        grad,
        mean_loss: stats.mean_loss,
        clipped: report.any_clipped(),
    })
}

/// Computes one bucket update behind a panic barrier. Returns `Ok(None)`
/// when the bucket must be dropped from the Gaussian sum: its worker
/// panicked or its clipped delta is non-finite. Dropping is DP-safe (the
/// bucket contributes 0 ≤ C instead of its delta), so training proceeds.
/// Systematic errors (bad config, shape mismatches) still propagate.
fn guarded_bucket_update(
    theta: &ModelParams,
    bucket: &Bucket,
    hp: &Hyperparameters,
    index: usize,
    ctx: &BucketCtx<'_>,
    scratch: &mut BucketScratch,
) -> Result<Option<BucketUpdate>, CoreError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if ctx.faults.panic_bucket(ctx.step, index) {
            panic!("injected bucket-worker fault");
        }
        let mut update = model_update_from_bucket(theta, bucket, hp, index, ctx, scratch);
        if let Ok(u) = &mut update {
            if ctx.faults.poison_delta(ctx.step, index) {
                u.grad.add_bias(0, f64::NAN);
            }
        }
        update
    }));
    match outcome {
        Err(_) => Ok(None),
        Ok(Err(e)) => Err(e),
        Ok(Ok(u)) if !u.grad.all_finite() => Ok(None),
        Ok(Ok(u)) => Ok(Some(u)),
    }
}

/// What [`BucketExecutor::execute_step_into`] feeds: one surviving update
/// at a time, in ascending bucket index. The sink may keep the update by
/// taking it (`std::mem::take`); whatever it leaves behind is the
/// executor's to reuse as the buffers of a later bucket.
pub type UpdateSink<'a> = dyn FnMut(&mut BucketUpdate) -> Result<(), CoreError> + 'a;

/// A finished bucket as a worker posts it: dropped (`Ok(None)`), an update
/// or the systematic error that aborts the step.
type BucketResult = Result<Option<BucketUpdate>, CoreError>;

/// The hand-off between the bucket workers and the reducing thread of one
/// step. Workers claim bucket indices in order and post results; the
/// reducer consumes them strictly in index order. A claim is refused while
/// `window` buckets are claimed but not yet reduced, which bounds how many
/// deltas a step holds at once no matter how slow the reducer is.
struct RunAhead {
    /// How many buckets may be claimed and not yet reduced.
    window: usize,
    state: Mutex<RunAheadState>,
    /// Workers wait here for the window to open (or the step to stop).
    room: Condvar,
    /// The reducer waits here for the next bucket in order.
    arrived: Condvar,
}

struct RunAheadState {
    /// The next unclaimed bucket.
    claimed: usize,
    /// How many buckets the reducer is done with — the index it needs next.
    reduced: usize,
    /// Posted results; bucket `i` sits in slot `i % window`. Claims never
    /// run `window` ahead of `reduced`, so live buckets never share a slot.
    ready: Vec<Option<BucketResult>>,
    /// Buffers of deltas already summed, for the next claimed buckets.
    spent: Vec<RowDelta>,
    /// Set when the reducer leaves, normally or not: claim nothing more.
    stop: bool,
}

#[cfg(test)]
thread_local! {
    /// The most buckets the steps reduced on this thread ever had claimed
    /// but not reduced.
    static RUN_AHEAD_HIGH_WATER: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Nothing that can panic runs under the run-ahead lock: bucket work sits
/// behind its own barrier and the sink runs with the lock released.
const NEVER_POISONED: &str = "no thread panics holding the run-ahead lock";

impl RunAhead {
    fn new(window: usize, spent: Vec<RowDelta>) -> Self {
        RunAhead {
            window,
            state: Mutex::new(RunAheadState {
                claimed: 0,
                reduced: 0,
                ready: (0..window).map(|_| None).collect(),
                spent,
                stop: false,
            }),
            room: Condvar::new(),
            arrived: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RunAheadState> {
        self.state.lock().expect(NEVER_POISONED)
    }

    /// Worker side: the next bucket of `total` to compute and, if one is
    /// back, the buffers of a spent delta. `None` once every bucket is
    /// claimed or the step stopped.
    fn claim(&self, total: usize) -> Option<(usize, Option<RowDelta>)> {
        let over = |st: &RunAheadState| st.stop || st.claimed == total;
        let mut st = self
            .room
            .wait_while(self.lock(), |st| {
                !over(st) && st.claimed >= st.reduced + self.window
            })
            .expect(NEVER_POISONED);
        if over(&st) {
            return None;
        }
        st.claimed += 1;
        Some((st.claimed - 1, st.spent.pop()))
    }

    /// Worker side: bucket `index` is finished.
    fn post(&self, index: usize, result: BucketResult) {
        self.lock().ready[index % self.window] = Some(result);
        self.arrived.notify_one();
    }

    /// Reducer side: blocks until bucket `index` has been posted.
    fn take(&self, index: usize) -> BucketResult {
        let slot = index % self.window;
        let mut st = self
            .arrived
            .wait_while(self.lock(), |st| st.ready[slot].is_none())
            .expect(NEVER_POISONED);
        st.ready[slot].take().expect("waited for it")
    }

    /// Reducer side: the bucket just taken is summed (or was dropped);
    /// opens the window by one and hands back its buffers, if any.
    fn reduced(&self, spent: Option<RowDelta>) {
        let mut st = self.lock();
        #[cfg(test)]
        RUN_AHEAD_HIGH_WATER.with(|h| h.set(h.get().max(st.claimed - st.reduced)));
        st.reduced += 1;
        st.spent.extend(spent);
        self.room.notify_all();
    }

    /// The spent buffers, once every worker is gone.
    fn into_spent(self) -> Vec<RowDelta> {
        let st = (self.state.into_inner()).unwrap_or_else(std::sync::PoisonError::into_inner);
        st.spent
    }
}

/// Releases every waiting worker when the reducer leaves — by finishing,
/// by returning an error or by unwinding out of the sink — so the scope's
/// join can never wait on a worker that waits on the reducer.
struct StopOnDrop<'a>(&'a RunAhead);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        // A flag set is valid whatever a poisoning panic left behind.
        let mut st = (self.0.state.lock()).unwrap_or_else(std::sync::PoisonError::into_inner);
        st.stop = true;
        self.0.room.notify_all();
    }
}

/// Lines 7–9 as an ordered streaming reduction: computes every bucket's
/// update, on `hp.threads` workers if more than one, and feeds the
/// survivors to `sink` in ascending bucket index as they finish. Returns
/// the number of dropped (poisoned) buckets.
///
/// With several workers the calling thread is the reducer. Workers take
/// the next unclaimed bucket whenever they are free, so which worker
/// computes which bucket varies from run to run; what `sink` sees does not,
/// because each update is a pure function of `(θ, bucket, step_seed,
/// index)` and updates are consumed strictly in index order. At most
/// `threads + 1` buckets are claimed and not yet reduced: one in every
/// worker's hands plus one finished and waiting, enough that no worker
/// idles behind a reducer that keeps up, and a bound on the deltas alive
/// behind one that does not. It is a function of the thread count alone —
/// nothing a wider window buys shows up once the reducer keeps up.
#[allow(clippy::too_many_arguments)]
fn stream_bucket_updates(
    theta: &ModelParams,
    buckets: &[Bucket],
    hp: &Hyperparameters,
    step_seed: u64,
    step: u64,
    faults: &FaultInjector,
    obs: &Observer,
    scratch: &mut StepScratch,
    sink: &mut UpdateSink<'_>,
) -> Result<usize, CoreError> {
    let ctx = BucketCtx {
        step,
        step_seed,
        faults,
        phases: &PhaseSet::resolve(obs, &phase::TABLE),
        pairs: &obs.counter("plp_train_pairs_total"),
        // Published by the training loop around this call: the step's
        // `local_sgd` span, under which every bucket's spans parent.
        trace: obs.trace_scope(),
    };
    let threads = hp.effective_threads().min(buckets.len().max(1));
    if scratch.workers.len() < threads {
        scratch.workers.resize_with(threads, BucketScratch::default);
    }
    let mut skipped = 0usize;
    if threads <= 1 {
        let worker = &mut scratch.workers[0];
        for (i, b) in buckets.iter().enumerate() {
            match guarded_bucket_update(theta, b, hp, i, &ctx, worker)? {
                Some(mut update) => {
                    sink(&mut update)?;
                    worker.journal.recycle(update.grad);
                }
                None => skipped += 1,
            }
        }
        return Ok(skipped);
    }

    let run_ahead = RunAhead::new(threads + 1, std::mem::take(&mut scratch.spent));
    let result = std::thread::scope(|scope| {
        for worker in scratch.workers.iter_mut().take(threads) {
            let (run_ahead, ctx) = (&run_ahead, &ctx);
            scope.spawn(move || {
                while let Some((i, spent)) = run_ahead.claim(buckets.len()) {
                    if let Some(spent) = spent {
                        worker.journal.recycle(spent);
                    }
                    let result = guarded_bucket_update(theta, &buckets[i], hp, i, ctx, worker);
                    run_ahead.post(i, result);
                }
            });
        }
        let _release_workers = StopOnDrop(&run_ahead);
        for i in 0..buckets.len() {
            let spent = match run_ahead.take(i)? {
                Some(mut update) => {
                    sink(&mut update)?;
                    Some(update.grad)
                }
                None => {
                    skipped += 1;
                    None
                }
            };
            run_ahead.reduced(spent);
        }
        Ok(skipped)
    });
    scratch.spent = run_ahead.into_spent();
    result
}

/// The seam between the training loop and whoever computes bucket updates.
///
/// [`train_plp_with_executor`] owns everything *around* the buckets —
/// sampling, grouping, noise, the server update, accounting and
/// checkpointing — and delegates only lines 7–8 of Algorithm 1 through this
/// trait. An executor must produce, for the given `(θ, buckets, step_seed,
/// step)`, the surviving updates in ascending bucket index plus the number
/// of dropped buckets; because each bucket's result is a pure function of
/// `(θ, bucket, step_seed, index)`, any executor that computes the same
/// buckets yields a bit-identical training trajectory. Dropping extra
/// buckets is DP-safe but changes the trained bits, exactly like a
/// poisoned bucket.
///
/// [`LocalExecutor`] is the implementation the trainers use. The others
/// wrap or stand in for it: the benchmark harness's timing executor, and
/// test fakes that feed the loop updates it did not compute.
pub trait BucketExecutor {
    /// Computes the surviving bucket updates for one step, all at once.
    ///
    /// # Errors
    /// Systematic failures (config, shape) propagate and abort training.
    #[allow(clippy::too_many_arguments)]
    fn execute_step(
        &mut self,
        theta: &ModelParams,
        buckets: &[Bucket],
        hp: &Hyperparameters,
        step_seed: u64,
        step: u64,
        faults: &FaultInjector,
        obs: &Observer,
    ) -> Result<(Vec<BucketUpdate>, usize), CoreError>;

    /// The form the training loop calls: hands each surviving update to
    /// `sink` in ascending bucket index and returns the number of dropped
    /// buckets. The default collects [`BucketExecutor::execute_step`] and
    /// feeds it through; an executor that can produce updates one at a
    /// time overrides it so a step never holds all of them. `scratch` is
    /// the loop's, the same one at every step of a run, for an executor
    /// that computes in this process to keep its buffers in.
    ///
    /// # Errors
    /// As [`BucketExecutor::execute_step`], plus the first error `sink`
    /// returns; updates past it are not delivered.
    #[allow(clippy::too_many_arguments)]
    fn execute_step_into(
        &mut self,
        theta: &ModelParams,
        buckets: &[Bucket],
        hp: &Hyperparameters,
        step_seed: u64,
        step: u64,
        faults: &FaultInjector,
        obs: &Observer,
        _scratch: &mut StepScratch,
        sink: &mut UpdateSink<'_>,
    ) -> Result<usize, CoreError> {
        let (updates, skipped) =
            self.execute_step(theta, buckets, hp, step_seed, step, faults, obs)?;
        for mut update in updates {
            sink(&mut update)?;
        }
        Ok(skipped)
    }
}

/// The executor the trainers use: buckets run on `hp.threads` worker
/// threads. This is the reference implementation every other executor must
/// match bit-for-bit.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalExecutor;

impl BucketExecutor for LocalExecutor {
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
        let mut updates = Vec::with_capacity(buckets.len());
        let skipped = stream_bucket_updates(
            theta,
            buckets,
            hp,
            step_seed,
            step,
            faults,
            obs,
            &mut StepScratch::default(),
            &mut |update| {
                updates.push(std::mem::take(update));
                Ok(())
            },
        )?;
        Ok((updates, skipped))
    }

    fn execute_step_into(
        &mut self,
        theta: &ModelParams,
        buckets: &[Bucket],
        hp: &Hyperparameters,
        step_seed: u64,
        step: u64,
        faults: &FaultInjector,
        obs: &Observer,
        scratch: &mut StepScratch,
        sink: &mut UpdateSink<'_>,
    ) -> Result<usize, CoreError> {
        stream_bucket_updates(
            theta, buckets, hp, step_seed, step, faults, obs, scratch, sink,
        )
    }
}

/// Where a run starts — the one place that decides it (the policy is
/// spelled out on [`train_plp_with_executor`]): the run in the checkpoint
/// policy's file when that file holds this very run, otherwise a fresh run
/// at step 0. A resumed accountant is rebuilt from the restored ledger —
/// the ledger, not any cached number, is the source of truth for ε.
fn start(
    run_seed: u64,
    train: &TokenizedDataset,
    hp: &Hyperparameters,
    opts: &TrainOptions,
) -> Result<(TrainingCheckpoint, MomentsAccountant), CoreError> {
    let fingerprint = config_fingerprint(hp, train.vocab_size);
    let image = match opts.checkpoint.as_ref().map(|p| std::fs::read(&p.path)) {
        Some(Ok(image)) => Some(image),
        Some(Err(e)) if e.kind() != ErrorKind::NotFound => {
            return Err(CoreError::Io {
                message: e.to_string(),
            })
        }
        _ => None,
    };
    // Judged before the content, which another scheme may lay out
    // differently: another run's file is refused, never discarded.
    if image
        .as_deref()
        .and_then(sealed_fingerprint)
        .is_some_and(|f| f != fingerprint)
    {
        return Err(CoreError::CheckpointMismatch {
            what: "hyperparameters, vocabulary, RNG scheme or kernel scheme differ from the checkpointed run",
        });
    }
    match image.map(decode_checkpoint) {
        Some(Ok((run, ledger))) => {
            // `max_steps` is inside the fingerprint, so no honest checkpoint
            // is past it — and the accountant replays one composition per
            // claimed step, so an absurd claim must stop before it.
            let refusal = [
                (
                    run.params.vocab_size() != train.vocab_size
                        || run.params.dim() != hp.embedding_dim,
                    "parameter shape",
                ),
                (
                    run.run_seed != run_seed,
                    "run seed differs from the checkpointed run",
                ),
                (
                    run.step > hp.max_steps as u64,
                    "checkpoint step exceeds max_steps",
                ),
            ];
            if let Some(&(_, what)) = refusal.iter().find(|(refused, _)| *refused) {
                return Err(CoreError::CheckpointMismatch { what });
            }
            let accountant = MomentsAccountant::from_ledger(hp.budget.delta, ledger)?;
            opts.observer.emit(
                "checkpoint_resumed",
                json!({ "step": run.step, "run_seed": run.run_seed }),
            );
            return Ok((run, accountant));
        }
        // A torn or damaged save: start over. Every variate derives from
        // `(run_seed, step)`, so the restarted run retraces the lost steps
        // with the same draws (DESIGN §8.3) and the first save replaces it.
        Some(Err(CoreError::CheckpointCorrupt(e))) => {
            opts.observer
                .emit("checkpoint_discarded", json!({ "reason": e.kind() }));
        }
        Some(Err(e)) => return Err(e),
        None => {}
    }
    let params = ModelParams::init(
        &mut step_rng(run_seed, 0),
        train.vocab_size,
        hp.embedding_dim,
    )?;
    let server = ServerAdam::new(&params, hp.server_learning_rate)?;
    let run = TrainingCheckpoint {
        fingerprint,
        run_seed,
        step: 0,
        params,
        server,
    };
    Ok((run, MomentsAccountant::new(hp.budget.delta)?))
}

/// Serializes `run` and its ledger where they lie and atomically persists
/// the image, routing the bytes through the fault injector (which may
/// simulate a torn or bit-flipped write).
fn persist(
    run: &TrainingCheckpoint,
    ledger: &PrivacyLedger,
    policy: &CheckpointPolicy,
    faults: &FaultInjector,
) -> Result<(), CoreError> {
    let image = encode_checkpoint(run, ledger);
    let (image, _corrupted) = faults.corrupt_checkpoint_bytes(run.step, image);
    write_atomic(&policy.path, &image).map_err(|e| CoreError::Io {
        message: e.to_string(),
    })
}

/// Trains a skip-gram model on `train` under user-level (ε, δ)-DP.
///
/// `validation` (held-out users) is only consulted when
/// `hp.eval_every > 0`, to record HR@10 telemetry; it never influences
/// training.
///
/// # Errors
/// Propagates configuration, data, model and privacy errors. A model is
/// always returned on `Ok`, even if zero steps fit in the budget.
pub fn train_plp<R: Rng + ?Sized>(
    rng: &mut R,
    train: &TokenizedDataset,
    validation: Option<&TokenizedDataset>,
    hp: &Hyperparameters,
) -> Result<PlpOutcome, CoreError> {
    let run_seed: u64 = rng.random();
    train_plp_resumable(run_seed, train, validation, hp, &TrainOptions::default())
}

/// [`train_plp`] with an explicit run seed plus checkpointing and fault
/// injection. The same `run_seed` always produces the same run, crash or
/// no crash.
///
/// # Errors
/// As [`train_plp_with_executor`].
pub fn train_plp_resumable(
    run_seed: u64,
    train: &TokenizedDataset,
    validation: Option<&TokenizedDataset>,
    hp: &Hyperparameters,
    opts: &TrainOptions,
) -> Result<PlpOutcome, CoreError> {
    train_plp_with_executor(run_seed, train, validation, hp, opts, &mut LocalExecutor)
}

/// Per-step privacy-budget burn telemetry: ε after the step, the step's
/// marginal ε (the burn rate), and the active RDP order, as both gauges
/// and a `privacy_burn` event. Reads the same accountant that feeds
/// [`RunSummary::epsilon_spent`], so the final event is bit-identical to
/// the summary.
fn emit_privacy_burn(
    obs: &Observer,
    g_burn: &Gauge,
    g_order: &Gauge,
    step: u64,
    prev_eps: &mut f64,
    accountant: &MomentsAccountant,
) -> Result<(), CoreError> {
    let eps = accountant.epsilon()?;
    let order = accountant.optimal_order()?;
    let burn = eps - *prev_eps;
    *prev_eps = eps;
    g_burn.set(burn);
    g_order.set(order as f64);
    obs.emit(
        "privacy_burn",
        json!({
            "step": step,
            "epsilon_spent": eps,
            "epsilon_step": burn,
            "rdp_order": order,
        }),
    );
    Ok(())
}

/// [`train_plp_resumable`] with an explicit [`BucketExecutor`] — the entry
/// point distributed trainers build on. With [`LocalExecutor`] this *is*
/// `train_plp_resumable`.
///
/// With a [`CheckpointPolicy`], the run starts where its file says:
/// * no file: a fresh run at step 0;
/// * a checkpoint of this run — same fingerprint and run seed, at most
///   `max_steps` steps — resumes bit-identically to the uninterrupted run
///   and emits `checkpoint_resumed`; telemetry covers only the steps run
///   after it, so a finished run's checkpoint trains none and returns the
///   same outcome;
/// * a sealed file of another fingerprint is refused before its content is
///   decoded (below), so a checkpoint of an older scheme is never taken
///   for a damaged one;
/// * a damaged file is discarded: the run starts at step 0, emits
///   `checkpoint_discarded` with the container's `kind()` tag, and
///   overwrites the file at its first save — bit-identical too, as every
///   variate derives from `(run_seed, step)`.
///
/// # Errors
/// Configuration, data, model, privacy and executor errors propagate. A
/// model is always returned on `Ok`, even if zero steps fit in the budget.
/// [`CoreError::CheckpointMismatch`], with the file left untouched, when
/// the policy's file holds another run: other hyper-parameters or
/// vocabulary, another shape or run seed, or more than `max_steps` steps.
/// [`CoreError::Io`] when the file cannot be read or a save fails.
pub fn train_plp_with_executor(
    run_seed: u64,
    train: &TokenizedDataset,
    validation: Option<&TokenizedDataset>,
    hp: &Hyperparameters,
    opts: &TrainOptions,
    executor: &mut dyn BucketExecutor,
) -> Result<PlpOutcome, CoreError> {
    hp.validate()?;
    if train.vocab_size < 2 {
        return Err(CoreError::BadConfig {
            name: "train.vocab_size",
            expected: ">= 2",
        });
    }
    // The run between steps and, beside it, the accountant holding its
    // ledger: what a save encodes, read where they lie.
    let (mut state, mut accountant) = start(run_seed, train, hp, opts)?;
    let num_users = train.num_users();
    // The Gaussian sum query's mechanism: noise std σ·C.
    let mechanism = GaussianMechanism::new(hp.noise_multiplier, hp.clip_norm)?;
    // Fixed-denominator estimator scale: constant for the whole run, paid
    // even by steps whose Poisson draw comes back empty.
    let denom = fixed_denominator(hp.sampling_prob, num_users, hp.grouping_factor);

    let mut telemetry = Vec::new();
    let run_start = std::time::Instant::now();
    let mut stop_reason = StopReason::MaxSteps;
    // The Gaussian sum's rows (only those a bucket touched) and the
    // executor's buffers: one of each for the whole run.
    let mut sum = RowSum::new(state.params.vocab_size(), state.params.dim());
    let mut scratch = StepScratch::default();

    // Observability: resolve every handle once, outside the step loop.
    // Disabled observers hand back disconnected no-op handles, so the hot
    // loop pays only a branch per phase. None of this touches the RNG
    // stream — instrumentation must never change the trained model.
    let obs = &opts.observer;
    let phases = PhaseSet::resolve(obs, &phase::TABLE);
    let g_eps_spent = obs.gauge("plp_epsilon_spent");
    let g_eps_budget = obs.gauge("plp_epsilon_budget");
    let g_delta = obs.gauge("plp_delta");
    let g_step = obs.gauge("plp_train_step");
    let g_burn = obs.gauge("plp_privacy_epsilon_burn_rate");
    let g_order = obs.gauge("plp_privacy_rdp_order");
    let c_steps = obs.counter("plp_train_steps_total");
    let c_skipped = obs.counter("plp_train_skipped_buckets_total");
    let mut prev_eps = accountant.epsilon()?;
    g_eps_budget.set(hp.budget.epsilon);
    g_delta.set(hp.budget.delta);
    g_step.set(state.step as f64);
    obs.emit(
        "run_start",
        json!({
            "start_step": state.step,
            "max_steps": hp.max_steps,
            "epsilon_budget": hp.budget.epsilon,
            "delta": hp.budget.delta,
            "num_users": num_users,
        }),
    );

    while state.step < hp.max_steps as u64 {
        // Peek: would this step overshoot the budget?
        let eps_next =
            accountant.epsilon_after_hypothetical_step(hp.sampling_prob, hp.noise_multiplier)?;
        if eps_next >= hp.budget.epsilon {
            stop_reason = StopReason::BudgetExhausted;
            break;
        }
        let step = state.step + 1;
        let step_start = std::time::Instant::now();
        let mut rng = step_rng(state.run_seed, step);

        // Every span id of the step is a pure function of `(run_seed,
        // step)` via the same mix64 discipline as the noise streams —
        // never the clock, never `rand` — so attaching a tracer cannot
        // perturb a single trained bit. `in_step` is `None` untraced.
        let root = TraceContext {
            trace_id: derive_trace_id(state.run_seed, DOMAIN_TRAIN_STEP, step),
            parent_span: 0,
        };
        let t_step = phases
            .start(phase::STEP, Some(root), step)
            .arg("step", step);
        let in_step = t_step.context();

        // Line 5: Poisson user sampling.
        let t_sample = phases.start(phase::SAMPLE, in_step, step);
        let sampled = sample_users(&mut rng, num_users, hp.sampling_prob)?;
        drop(t_sample);
        // Line 6: data grouping.
        let t_group = phases.start(phase::GROUP, in_step, step);
        let buckets = group_data(&mut rng, &sampled, train, hp.grouping_factor, Random)?;
        drop(t_group);

        // Lines 7-9, 15-22: per-bucket clipped deltas, each behind a panic
        // barrier; poisoned buckets are dropped (DP-safe, see module docs)
        // and the survivors are summed in bucket order as they arrive, so
        // a delta lives only until it has been added.
        // The local_sgd span is published as the trace *scope* so the
        // executor can parent its bucket spans under it: the step_seed is
        // drawn after sampling, so an executor could not re-derive this
        // step's trace id on its own.
        let step_seed: u64 = rng.random();
        let t_local = phases
            .start(phase::LOCAL_SGD, in_step, step)
            .arg("buckets", buckets.len() as u64);
        obs.set_trace_scope(t_local.context());
        sum.clear();
        let (mut survivors, mut clipped, mut loss_sum) = (0usize, 0usize, 0.0f64);
        let skipped = executor.execute_step_into(
            &state.params,
            &buckets,
            hp,
            step_seed,
            step,
            &opts.faults,
            obs,
            &mut scratch,
            &mut |update| {
                sum.add(&update.grad)?;
                survivors += 1;
                clipped += usize::from(update.clipped);
                loss_sum += update.mean_loss;
                Ok(())
            },
        )?;
        obs.set_trace_scope(None);
        drop(t_local);

        // Every formed bucket was poisoned: no signal survives, so the
        // update would be pure noise. The step skips noise, server update,
        // eval and checkpoint, but is accounted and recorded like any other
        // (it is paid for even though its update is discarded — never
        // under-reports ε); then the run stops.
        let diverged = !buckets.is_empty() && survivors == 0 && skipped > 0;
        if !diverged {
            // Lines 9–10: perturb the sum over the *whole* parameter vector,
            // average it and step the model, one row at a time in one pass
            // over θ. Counter-based per-row noise streams (see
            // `crate::noise`): seeded from `(run_seed, step)` and fanned over
            // `hp.threads` workers, bit-identical for every thread count. The
            // average divides by the expected bucket count q·W/λ — never the
            // realised (sample-dependent) |H_t|.
            let t_server = phases.start(phase::SERVER_UPDATE, in_step, step);
            perturb_scale_and_step(
                &mut state.server,
                &mut state.params,
                &sum,
                &mechanism,
                step_noise_seed(state.run_seed, step),
                1.0 / denom,
                hp.effective_threads(),
            )?;
            drop(t_server);
        }

        // Line 11: ledger tracking at the step's (q, σ).
        let t_acct = phases.start(phase::ACCOUNTANT, in_step, step);
        accountant.step(hp.sampling_prob, hp.noise_multiplier)?;
        drop(t_acct);
        emit_privacy_burn(obs, &g_burn, &g_order, step, &mut prev_eps, &accountant)?;
        state.step = step;

        let validation_hr10 = match validation {
            Some(v)
                if !diverged && hp.eval_every > 0 && step.is_multiple_of(hp.eval_every as u64) =>
            {
                let _t_eval = phases.start(phase::EVAL, in_step, step);
                // θ is validated where it lies (no deployed copy): the
                // leave-one-out trials fan out over `hp.threads` workers
                // and the ordered integer-count reduction makes the metric
                // identical for any thread count.
                let hr =
                    evaluate_hit_rate_threaded(&state.params, v, &[10], hp.effective_threads())?;
                Some(hr[0].rate())
            }
            _ => None,
        };

        telemetry.push(StepTelemetry {
            step,
            sampled_users: sampled.len(),
            buckets: buckets.len(),
            skipped_buckets: skipped,
            mean_local_loss: if survivors == 0 {
                0.0
            } else {
                loss_sum / survivors as f64
            },
            clip_fraction: if survivors == 0 {
                0.0
            } else {
                clipped as f64 / survivors as f64
            },
            epsilon_spent: accountant.epsilon()?,
            wall_ms: step_start.elapsed().as_secs_f64() * 1e3,
            validation_hr10,
        });
        c_steps.inc();
        g_step.set(step as f64);
        g_eps_spent.set(accountant.epsilon()?);
        if skipped > 0 {
            c_skipped.add(skipped as u64);
            obs.emit(
                "skipped_buckets",
                json!({ "step": step, "skipped": skipped, "buckets": buckets.len() }),
            );
        }
        if let Some(t) = telemetry.last() {
            obs.emit("step", json!(t));
        }
        if diverged {
            stop_reason = StopReason::Diverged;
            // A Diverged stop is a fault event: keep the flight recorder.
            if let Some(t) = obs.tracer() {
                t.dump_on_fault("diverged");
            }
            break;
        }

        if let Some(policy) = &opts.checkpoint {
            if policy.every > 0 && step.is_multiple_of(policy.every) {
                let t_ckpt = phases.start(phase::CHECKPOINT, in_step, step);
                persist(&state, accountant.ledger(), policy, &opts.faults)?;
                drop(t_ckpt);
                obs.emit("checkpoint_saved", json!({ "step": step }));
            }
        }
        drop(t_step);
        if opts.halt_after.is_some_and(|k| step >= k) {
            stop_reason = StopReason::Interrupted;
            break;
        }
    }

    // Final save so a finished (or diverged) run restores to its terminal
    // state. An interrupted run deliberately skips this: it simulates a
    // killed process, which would only have its periodic saves on disk.
    if stop_reason != StopReason::Interrupted {
        if let Some(policy) = &opts.checkpoint {
            // Outside any step, so outside any trace: series only.
            let t_ckpt = phases.start(phase::CHECKPOINT, None, state.step);
            persist(&state, accountant.ledger(), policy, &opts.faults)?;
            drop(t_ckpt);
            obs.emit("checkpoint_saved", json!({ "step": state.step }));
        }
    }

    let summary = RunSummary {
        steps: accountant.steps(),
        epsilon_spent: accountant.epsilon()?,
        delta: hp.budget.delta,
        total_wall_ms: run_start.elapsed().as_secs_f64() * 1e3,
        stop_reason,
    };
    // Terminal metric state: the ε gauge must match the summary exactly
    // (same accountant read feeds both), and the stop reason is counted so
    // dashboards can alert on Diverged/Interrupted runs.
    obs.counter_with("plp_train_stop_total", "reason", stop_reason.name())
        .inc();
    g_eps_spent.set(summary.epsilon_spent);
    obs.emit("run_end", json!(summary));
    Ok(PlpOutcome {
        params: state.params,
        telemetry,
        summary,
        ledger: accountant.ledger().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::load_checkpoint;
    use crate::experiment::{ExperimentConfig, PreparedData};
    use crate::faults::FaultPlan;
    use plp_data::checkin::UserId;
    use plp_data::dataset::UserSequences;
    use plp_privacy::PrivacyBudget;

    /// A tiny corpus with two token communities, enough users for sampling.
    fn tiny_dataset(num_users: usize) -> TokenizedDataset {
        let users = (0..num_users)
            .map(|i| {
                let base = if i % 2 == 0 { 0 } else { 8 };
                UserSequences::new(
                    UserId(i as u32),
                    vec![(0..12).map(|t| base + (t + i) % 6).collect()],
                )
            })
            .collect();
        TokenizedDataset {
            users,
            vocab_size: 16,
        }
    }

    fn fast_hp() -> Hyperparameters {
        Hyperparameters {
            embedding_dim: 8,
            negative_samples: 4,
            sampling_prob: 0.3,
            grouping_factor: 2,
            max_steps: 5,
            budget: PrivacyBudget {
                epsilon: 50.0,
                delta: 1e-3,
            },
            ..Hyperparameters::default()
        }
    }

    /// An empty scratch directory: whatever an earlier process with the
    /// same pid left there is removed first, so no test resumes a stale run.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plp_{}_{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Options that checkpoint to `path` every `every` steps — and so also
    /// start from it.
    fn checkpointed(path: &std::path::Path, every: u64) -> TrainOptions {
        TrainOptions {
            checkpoint: Some(CheckpointPolicy {
                path: path.to_path_buf(),
                every,
            }),
            ..TrainOptions::default()
        }
    }

    /// Parameters, ledger and ε agree to the bit.
    fn assert_same_run(got: &PlpOutcome, want: &PlpOutcome) {
        assert_eq!(got.params, want.params, "parameters must be bit-identical");
        assert_eq!(got.ledger, want.ledger);
        assert_eq!(
            got.summary.epsilon_spent.to_bits(),
            want.summary.epsilon_spent.to_bits(),
            "ε recomputed from the restored ledger must match exactly"
        );
        assert_eq!(got.summary.steps, want.summary.steps);
    }

    /// The `kind` of every event the observer captured, in order.
    fn event_kinds(obs: &Observer) -> Vec<String> {
        obs.captured_events()
            .iter()
            .map(|line| {
                let v: serde_json::Value = serde_json::from_str(line).unwrap();
                match &v.as_object().unwrap()["kind"] {
                    serde_json::Value::Str(kind) => kind.clone(),
                    other => panic!("kind must be a string, got {other:?}"),
                }
            })
            .collect()
    }

    #[test]
    fn runs_and_respects_max_steps() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = tiny_dataset(30);
        let out = train_plp(&mut rng, &ds, None, &fast_hp()).unwrap();
        assert_eq!(out.summary.steps, 5);
        assert_eq!(out.summary.stop_reason, StopReason::MaxSteps);
        assert_eq!(out.telemetry.len(), 5);
        assert!(out.params.all_finite());
        assert_eq!(out.ledger.total_steps(), 5);
        assert!(out.summary.epsilon_spent > 0.0);
        assert!(out.telemetry.iter().all(|t| t.skipped_buckets == 0));
    }

    #[test]
    fn budget_stop_never_exceeds_epsilon() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = tiny_dataset(30);
        let mut hp = fast_hp();
        hp.budget = PrivacyBudget {
            epsilon: 2.0,
            delta: 1e-3,
        };
        hp.sampling_prob = 0.2;
        hp.noise_multiplier = 1.5;
        hp.max_steps = 10_000;
        let out = train_plp(&mut rng, &ds, None, &hp).unwrap();
        assert_eq!(out.summary.stop_reason, StopReason::BudgetExhausted);
        assert!(
            out.summary.epsilon_spent < 2.0,
            "eps {}",
            out.summary.epsilon_spent
        );
        assert!(out.summary.steps > 0);
        // The ledger independently verifies the spend.
        let replay = out.ledger.epsilon(1e-3).unwrap();
        assert!((replay - out.summary.epsilon_spent).abs() < 1e-9);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let ds = tiny_dataset(20);
        let hp = fast_hp();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            train_plp(&mut rng, &ds, None, &hp).unwrap().params
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = tiny_dataset(24);
        let val = tiny_dataset(4);
        let mut hp = fast_hp();
        hp.eval_every = 2;
        // Trained pairs and the threaded validation fan-out are reduced in
        // a fixed order too, so they must agree across thread counts.
        let run = |threads| {
            let mut hp = hp.clone();
            hp.threads = threads;
            let opts = TrainOptions {
                observer: Observer::new("threads"),
                ..TrainOptions::default()
            };
            let out = train_plp_resumable(5, &ds, Some(&val), &hp, &opts).unwrap();
            let pairs = opts.observer.counter("plp_train_pairs_total").get();
            let hr10: Vec<Option<f64>> = out.telemetry.iter().map(|t| t.validation_hr10).collect();
            (out.params, pairs, hr10)
        };
        let (seq_params, seq_pairs, seq_hr10) = run(1);
        let (par_params, par_pairs, par_hr10) = run(4);
        assert_eq!(seq_params, par_params, "threading must not change results");
        assert!(seq_pairs > 0, "the run trained on pairs");
        assert_eq!(seq_pairs, par_pairs);
        assert!(seq_hr10.iter().any(Option::is_some));
        assert_eq!(seq_hr10, par_hr10);
    }

    #[test]
    fn telemetry_epsilon_is_monotone() {
        let mut rng = StdRng::seed_from_u64(6);
        let ds = tiny_dataset(20);
        let out = train_plp(&mut rng, &ds, None, &fast_hp()).unwrap();
        for w in out.telemetry.windows(2) {
            assert!(w[1].epsilon_spent > w[0].epsilon_spent);
        }
    }

    #[test]
    fn eval_telemetry_present_when_requested() {
        let mut rng = StdRng::seed_from_u64(8);
        let ds = tiny_dataset(30);
        let val = tiny_dataset(4);
        let mut hp = fast_hp();
        hp.eval_every = 2;
        let out = train_plp(&mut rng, &ds, Some(&val), &hp).unwrap();
        let evals: Vec<_> = out
            .telemetry
            .iter()
            .filter(|t| t.validation_hr10.is_some())
            .collect();
        assert_eq!(evals.len(), 2, "steps 2 and 4");
    }

    #[test]
    fn rejects_degenerate_vocab_and_config() {
        let mut rng = StdRng::seed_from_u64(9);
        let bad = TokenizedDataset {
            users: vec![],
            vocab_size: 1,
        };
        assert!(train_plp(&mut rng, &bad, None, &fast_hp()).is_err());
        let ds = tiny_dataset(10);
        let mut hp = fast_hp();
        hp.grouping_factor = 0;
        assert!(train_plp(&mut rng, &ds, None, &hp).is_err());
    }

    #[test]
    fn fixed_denominator_is_expected_bucket_count() {
        // q·W/λ, independent of any realised sample.
        assert!((fixed_denominator(0.1, 1000, 5) - 20.0).abs() < 1e-12);
        assert!((fixed_denominator(0.06, 4602, 6) - 46.02).abs() < 1e-12);
        assert!((fixed_denominator(1.0, 7, 1) - 7.0).abs() < 1e-12);
        // Sub-unit expectations are *not* clamped: the estimator stays
        // q·W/λ even when fewer than one bucket is expected per step.
        assert!((fixed_denominator(0.01, 10, 1) - 0.1).abs() < 1e-12);
        // Only a zero expectation (empty population) degenerates, to 1 —
        // never to a division by zero.
        assert_eq!(fixed_denominator(0.3, 0, 2), 1.0);
        assert_eq!(fixed_denominator(0.3, 10, 0), 3.0, "λ floor of 1");
        assert!(fixed_denominator(0.5, usize::MAX >> 12, 1).is_finite());
    }

    #[test]
    fn empty_sample_steps_pay_rdp_and_keep_denominator_fixed() {
        // q so small that (seeded) steps routinely sample zero users: every
        // such step must still appear in the ledger at full cost, produce a
        // finite (noise-only) update scaled by the same fixed q·W/λ, and
        // never divide by zero.
        let ds = tiny_dataset(5);
        let mut hp = fast_hp();
        hp.sampling_prob = 0.01;
        hp.max_steps = 4;
        let out = train_plp_resumable(13, &ds, None, &hp, &TrainOptions::default()).unwrap();
        assert_eq!(out.summary.steps, 4);
        assert_eq!(out.ledger.total_steps(), 4, "empty steps are accounted");
        assert!(out.params.all_finite());
        let empty_steps = out
            .telemetry
            .iter()
            .filter(|t| t.sampled_users == 0)
            .count();
        assert!(
            empty_steps > 0,
            "q = 0.01 over 5 users must leave some steps empty (seeded)"
        );
        for w in out.telemetry.windows(2) {
            assert!(
                w[1].epsilon_spent > w[0].epsilon_spent,
                "every step, empty or not, spends budget"
            );
        }
        // The noise-only update went through: parameters moved away from
        // their init even on a run whose steps were all-empty.
        let mut all_empty_hp = hp.clone();
        all_empty_hp.sampling_prob = 1e-9;
        let moved =
            train_plp_resumable(13, &ds, None, &all_empty_hp, &TrainOptions::default()).unwrap();
        let init =
            ModelParams::init(&mut step_rng(13, 0), ds.vocab_size, hp.embedding_dim).unwrap();
        assert_ne!(moved.params, init, "noise-only steps still update θ");
        assert!(moved.params.all_finite());
    }

    #[test]
    fn empty_population_still_consumes_budget() {
        // Zero users: every step is an empty Gaussian sum query (pure
        // noise) but the mechanism still runs and must be accounted.
        let mut rng = StdRng::seed_from_u64(10);
        let ds = TokenizedDataset {
            users: vec![],
            vocab_size: 4,
        };
        let out = train_plp(&mut rng, &ds, None, &fast_hp()).unwrap();
        assert_eq!(out.summary.steps, 5);
        assert!(out.summary.epsilon_spent > 0.0);
        assert!(out.telemetry.iter().all(|t| t.buckets == 0));
    }

    #[test]
    fn killed_and_resumed_run_is_bit_identical() {
        let ds = tiny_dataset(24);
        let hp = fast_hp();
        let dir = scratch_dir("kill_resume");
        let path = dir.join("run.plpc");
        let seed = 42u64;

        // Uninterrupted reference run.
        let full = train_plp_resumable(seed, &ds, None, &hp, &TrainOptions::default()).unwrap();
        assert_eq!(full.summary.stop_reason, StopReason::MaxSteps);

        // Same run, checkpointed every 2 steps and "killed" after step 3:
        // the newest surviving checkpoint is from step 2, so the second
        // call with the same policy must re-execute step 3 and still land
        // on identical bits.
        let opts = checkpointed(&path, 2);
        let crash_opts = TrainOptions {
            halt_after: Some(3),
            ..opts.clone()
        };
        let interrupted = train_plp_resumable(seed, &ds, None, &hp, &crash_opts).unwrap();
        assert_eq!(interrupted.summary.stop_reason, StopReason::Interrupted);
        assert_eq!(interrupted.summary.steps, 3);

        let (ckpt, _) = load_checkpoint(&path).unwrap();
        assert_eq!(ckpt.step, 2, "kill at 3 leaves the step-2 checkpoint");
        let resumed = train_plp_resumable(seed, &ds, None, &hp, &opts).unwrap();

        assert_same_run(&resumed, &full);
        assert_eq!(
            resumed.telemetry.len(),
            3,
            "resumed run re-executes steps 3..=5"
        );
    }

    #[test]
    fn resume_at_different_thread_count_is_bit_identical() {
        // The counter-based noise streams and element-wise server updates
        // make the whole trajectory thread-count invariant, and the config
        // fingerprint normalises `threads` out — so a run checkpointed at
        // one thread count may resume at another on identical bits.
        let ds = tiny_dataset(24);
        let dir = scratch_dir("thread_resume");
        let path = dir.join("run.plpc");
        let seed = 77u64;

        // Uninterrupted reference run at threads=4.
        let mut hp4 = fast_hp();
        hp4.threads = 4;
        let full = train_plp_resumable(seed, &ds, None, &hp4, &TrainOptions::default()).unwrap();
        assert_eq!(full.summary.stop_reason, StopReason::MaxSteps);

        // Crash a single-threaded run mid-training...
        let mut hp1 = fast_hp();
        hp1.threads = 1;
        let opts = checkpointed(&path, 2);
        let crash_opts = TrainOptions {
            halt_after: Some(3),
            ..opts.clone()
        };
        let interrupted = train_plp_resumable(seed, &ds, None, &hp1, &crash_opts).unwrap();
        assert_eq!(interrupted.summary.stop_reason, StopReason::Interrupted);

        // ...and resume it at threads=4.
        assert_eq!(load_checkpoint(&path).unwrap().0.step, 2);
        let resumed = train_plp_resumable(seed, &ds, None, &hp4, &opts).unwrap();
        assert_same_run(&resumed, &full);
    }

    #[test]
    fn resume_refuses_mismatched_config() {
        let ds = tiny_dataset(20);
        let hp = fast_hp();
        let path = scratch_dir("mismatch").join("run.plpc");
        let opts = checkpointed(&path, 2);
        let crash_opts = TrainOptions {
            halt_after: Some(2),
            ..opts.clone()
        };
        train_plp_resumable(3, &ds, None, &hp, &crash_opts).unwrap();
        let saved = std::fs::read(&path).unwrap();

        // Another configuration, and the same configuration under another
        // run seed: both are another run, refused before a step is taken,
        // and the file they were refused on is left as it was.
        let mut other = hp.clone();
        other.noise_multiplier += 0.5;
        for (seed, config, what) in [(3, &other, "hyperparameters"), (4, &hp, "run seed")] {
            let err = train_plp_resumable(seed, &ds, None, config, &opts);
            assert!(
                matches!(err, Err(CoreError::CheckpointMismatch { what: w }) if w.contains(what)),
                "a foreign {what} must be refused, got {err:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), saved, "{what}");
        }
    }

    #[test]
    fn resume_refuses_a_checkpoint_of_another_rng_scheme() {
        // The same run saved under RNG and kernel scheme 2, then under
        // kernel scheme 2 alone: its remaining steps would replay under
        // other noise or other negatives, so it is refused by name and the
        // file is left as it was.
        use crate::checkpoint::{KERNEL_SCHEME_VERSION, RNG_SCHEME_VERSION};
        let ds = tiny_dataset(20);
        let hp = fast_hp();
        let path = scratch_dir("scheme").join("run.plpc");
        let opts = checkpointed(&path, 2);
        let crash_opts = TrainOptions {
            halt_after: Some(2),
            ..opts.clone()
        };
        train_plp_resumable(5, &ds, None, &hp, &crash_opts).unwrap();
        let (mut run, ledger) = load_checkpoint(&path).unwrap();
        let fingerprint = |tail: [u64; 3]| {
            let canonical = Hyperparameters {
                threads: 1,
                ..hp.clone()
            };
            let words = canonical.to_words().into_iter().chain(tail);
            let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
            plp_data::frame::fnv1a64(&bytes)
        };
        let vocab = ds.vocab_size as u64;
        assert_eq!(
            fingerprint([vocab, RNG_SCHEME_VERSION, KERNEL_SCHEME_VERSION]),
            run.fingerprint,
            "the test fingerprints like the trainer"
        );
        for (tail, scheme) in [
            ([vocab, 2, 2], "RNG scheme"),
            ([vocab, 3, 2], "kernel scheme"),
        ] {
            run.fingerprint = fingerprint(tail);
            let image = encode_checkpoint(&run, &ledger);
            std::fs::write(&path, &image).unwrap();

            let err = train_plp_resumable(5, &ds, None, &hp, &opts);
            assert!(
                matches!(err, Err(CoreError::CheckpointMismatch { what }) if what.contains(scheme)),
                "a checkpoint of another {scheme} must be refused, got {err:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), image, "{scheme}");
        }
    }

    #[test]
    fn a_checkpoint_of_kernel_scheme_two_is_refused_untouched() {
        // The paper defaults' fingerprint under kernel scheme 2, when every
        // pair drew its own negatives. The layout is the same, so such a
        // file decodes — and is refused on its fingerprint rather than
        // resumed onto the shared-negative trajectory.
        let ds = TokenizedDataset {
            vocab_size: 600,
            ..tiny_dataset(20)
        };
        let hp = Hyperparameters::default();
        let canonical = Hyperparameters {
            threads: 1,
            ..hp.clone()
        };
        // Such files were written while `to_words` still carried ω = 1 and
        // the `Random` grouping tag after λ: seventeen words.
        let mut words = canonical.to_words().to_vec();
        words.splice(9..9, [1, 0]);
        words.extend([600, crate::checkpoint::RNG_SCHEME_VERSION, 2]);
        let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
        assert_eq!(plp_data::frame::fnv1a64(&bytes), 0xfb13_9d40_2882_600a);
        let params = ModelParams::zeros(600, hp.embedding_dim);
        let run = TrainingCheckpoint {
            fingerprint: 0xfb13_9d40_2882_600a,
            run_seed: 9,
            step: 3,
            server: ServerAdam::new(&params, hp.server_learning_rate).unwrap(),
            params,
        };
        let mut ledger = PrivacyLedger::new();
        for _ in 0..3 {
            ledger.track(hp.sampling_prob, hp.noise_multiplier).unwrap();
        }
        let image = encode_checkpoint(&run, &ledger);
        let path = scratch_dir("kernel2").join("run.plpc");
        std::fs::write(&path, &image).unwrap();

        let err = train_plp_resumable(9, &ds, None, &hp, &checkpointed(&path, 2));
        assert!(
            matches!(err, Err(CoreError::CheckpointMismatch { what }) if what.contains("kernel scheme")),
            "got {err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), image);
    }

    #[test]
    fn a_checkpoint_under_a_retired_word_encoding_is_refused_untouched() {
        // The default configuration's fingerprint while `to_words` still
        // carried a loss tag and a server-optimiser tag (nineteen words),
        // and then the split factor and the grouping tag (seventeen). The
        // checkpoint layout is the same, so such a file decodes — and is
        // refused on its fingerprint rather than discarded as damaged.
        let ds = TokenizedDataset {
            vocab_size: 600,
            ..tiny_dataset(20)
        };
        let hp = Hyperparameters::default();
        for (fingerprint, words) in [
            (0x4950_2aa4_4d64_081b, "nineteen"),
            (0x1a0e_6449_3371_aa2b, "seventeen"),
        ] {
            let params = ModelParams::zeros(600, hp.embedding_dim);
            let run = TrainingCheckpoint {
                fingerprint,
                run_seed: 9,
                step: 0,
                server: ServerAdam::new(&params, hp.server_learning_rate).unwrap(),
                params,
            };
            let image = encode_checkpoint(&run, &PrivacyLedger::new());
            let path = scratch_dir(words).join("run.plpc");
            std::fs::write(&path, &image).unwrap();

            let err = train_plp_resumable(9, &ds, None, &hp, &checkpointed(&path, 2));
            assert!(
                matches!(err, Err(CoreError::CheckpointMismatch { what }) if what.contains("hyperparameters")),
                "{words} words: got {err:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), image, "{words} words");
        }
    }

    #[test]
    fn finished_checkpoint_trains_no_further_steps() {
        let ds = tiny_dataset(20);
        let hp = fast_hp();
        let opts = checkpointed(&scratch_dir("finished").join("run.plpc"), 2);
        let first = train_plp_resumable(8, &ds, None, &hp, &opts).unwrap();
        assert_eq!(first.summary.stop_reason, StopReason::MaxSteps);
        let again = train_plp_resumable(8, &ds, None, &hp, &opts).unwrap();
        assert_same_run(&again, &first);
        assert_eq!(again.summary.stop_reason, StopReason::MaxSteps);
        assert!(again.telemetry.is_empty(), "no step runs twice");
    }

    #[test]
    fn injected_faults_skip_buckets_without_breaking_dp() {
        let ds = tiny_dataset(30);
        let hp = fast_hp();
        let faults = FaultInjector::with_plan(FaultPlan {
            nan_delta_rate: 0.3,
            panic_rate: 0.2,
            ..FaultPlan::quiet(99)
        });
        let opts = TrainOptions {
            faults,
            ..TrainOptions::default()
        };
        let out = train_plp_resumable(7, &ds, None, &hp, &opts).unwrap();
        let skipped: usize = out.telemetry.iter().map(|t| t.skipped_buckets).sum();
        assert!(skipped > 0, "at these rates some buckets must be poisoned");
        assert!(
            out.params.all_finite(),
            "poisoned deltas must never reach the model"
        );
        assert_eq!(
            out.summary.stop_reason,
            StopReason::MaxSteps,
            "dropped buckets degrade a step, they do not end the run"
        );
        assert!(out.summary.epsilon_spent < hp.budget.epsilon);
        // Dropping buckets never skips accounting: every executed step is
        // in the ledger.
        assert_eq!(out.ledger.total_steps(), out.summary.steps);
    }

    #[test]
    fn fully_poisoned_step_stops_with_diverged() {
        let ds = tiny_dataset(30);
        let hp = fast_hp();
        let faults = FaultInjector::with_plan(FaultPlan {
            nan_delta_rate: 1.0,
            ..FaultPlan::quiet(1)
        });
        let opts = TrainOptions {
            faults,
            observer: Observer::with_memory_sink("diverged"),
            ..TrainOptions::default()
        };
        let out = train_plp_resumable(11, &ds, None, &hp, &opts).unwrap();
        assert_eq!(out.summary.stop_reason, StopReason::Diverged);
        assert_eq!(out.summary.steps, 1, "stops after the first poisoned step");
        assert_eq!(
            out.ledger.total_steps(),
            1,
            "the aborted step is still accounted"
        );
        let t = &out.telemetry[0];
        assert!(t.skipped_buckets > 0 && t.skipped_buckets == t.buckets);

        // The step ends like any other: one accountant step, its telemetry
        // row, counters, gauges and events — and nothing after it.
        let mut one_step = MomentsAccountant::new(hp.budget.delta).unwrap();
        one_step
            .step(hp.sampling_prob, hp.noise_multiplier)
            .unwrap();
        let eps = one_step.epsilon().unwrap();
        assert_eq!(out.telemetry.len(), 1);
        assert_eq!(
            (t.step, t.sampled_users, t.buckets, t.skipped_buckets),
            (1, 9, 5, 5)
        );
        assert_eq!((t.mean_local_loss, t.clip_fraction), (0.0, 0.0));
        assert_eq!(t.validation_hr10, None);
        assert_eq!(t.epsilon_spent.to_bits(), eps.to_bits());
        assert_eq!(out.summary.epsilon_spent.to_bits(), eps.to_bits());
        let obs = &opts.observer;
        assert_eq!(
            obs.gauge("plp_epsilon_spent").get().to_bits(),
            eps.to_bits()
        );
        assert_eq!(obs.gauge("plp_train_step").get(), 1.0);
        assert_eq!(obs.counter("plp_train_steps_total").get(), 1);
        assert_eq!(
            obs.counter("plp_train_skipped_buckets_total").get(),
            t.skipped_buckets as u64
        );
        assert_eq!(
            event_kinds(obs),
            [
                "run_start",
                "privacy_burn",
                "skipped_buckets",
                "step",
                "run_end"
            ]
        );
    }

    #[test]
    fn corrupted_checkpoint_write_is_detected_on_load() {
        let ds = tiny_dataset(20);
        let hp = fast_hp();
        let path = scratch_dir("corrupt_write").join("run.plpc");
        let opts = checkpointed(&path, 1);
        let torn = TrainOptions {
            faults: FaultInjector::with_plan(FaultPlan {
                truncate_write_rate: 1.0,
                ..FaultPlan::quiet(4)
            }),
            ..opts.clone()
        };
        train_plp_resumable(5, &ds, None, &hp, &torn).unwrap();
        let err = load_checkpoint(&path);
        assert!(
            matches!(err, Err(CoreError::CheckpointCorrupt { .. })),
            "a torn write must fail integrity checks, got {err:?}"
        );

        // The next call with the same policy discards the torn file, starts
        // over on the uncheckpointed run's bits and replaces the file.
        let restarted = TrainOptions {
            observer: Observer::with_memory_sink("restart"),
            ..opts
        };
        let out = train_plp_resumable(5, &ds, None, &hp, &restarted).unwrap();
        let plain = train_plp_resumable(5, &ds, None, &hp, &TrainOptions::default()).unwrap();
        assert_same_run(&out, &plain);
        assert_eq!(out.telemetry.len(), hp.max_steps, "started at step 0");
        assert_eq!(
            event_kinds(&restarted.observer)[..2],
            ["checkpoint_discarded", "run_start"]
        );
        let discarded = &restarted.observer.captured_events()[0];
        assert!(discarded.contains("truncated_"), "{discarded}");
        assert_eq!(load_checkpoint(&path).unwrap().0.step, out.summary.steps);
    }

    #[test]
    fn instrumentation_never_changes_the_trained_model() {
        let ds = tiny_dataset(24);
        let hp = fast_hp();
        let plain = train_plp_resumable(21, &ds, None, &hp, &TrainOptions::default()).unwrap();
        let opts = TrainOptions {
            observer: Observer::with_memory_sink("instrumented"),
            ..TrainOptions::default()
        };
        let observed = train_plp_resumable(21, &ds, None, &hp, &opts).unwrap();
        assert_eq!(
            plain.params, observed.params,
            "an enabled observer must be invisible to the math"
        );
        assert_eq!(plain.telemetry.len(), observed.telemetry.len());
        assert!(!opts.observer.captured_events().is_empty());
    }

    #[test]
    fn observer_emits_parseable_run_events_in_order() {
        let ds = tiny_dataset(24);
        let hp = fast_hp();
        let opts = TrainOptions {
            observer: Observer::with_memory_sink("events"),
            ..TrainOptions::default()
        };
        let out = train_plp_resumable(9, &ds, None, &hp, &opts).unwrap();

        let events = opts.observer.captured_events();
        let mut kinds = Vec::new();
        for (i, line) in events.iter().enumerate() {
            let v: serde_json::Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("line {i} is not valid JSON: {e:?}"));
            let obj = v.as_object().unwrap();
            assert_eq!(
                obj.get("seq").and_then(serde_json::Value::as_f64),
                Some(i as f64),
                "event sequence numbers must be gapless"
            );
            let serde_json::Value::Str(kind) = &obj["kind"] else {
                panic!("kind must be a string")
            };
            kinds.push(kind.clone());
        }
        assert_eq!(kinds.first().map(String::as_str), Some("run_start"));
        assert_eq!(kinds.last().map(String::as_str), Some("run_end"));
        assert_eq!(
            kinds.iter().filter(|k| *k == "step").count() as u64,
            out.summary.steps,
            "one step event per executed step"
        );

        // The run_end payload carries the summary, ε included.
        let last: serde_json::Value = serde_json::from_str(events.last().unwrap()).unwrap();
        let eps = last.as_object().unwrap()["payload"].as_object().unwrap()["epsilon_spent"]
            .as_f64()
            .unwrap();
        assert_eq!(eps.to_bits(), out.summary.epsilon_spent.to_bits());
    }

    #[test]
    fn epsilon_gauge_matches_summary_exactly_and_renders() {
        let ds = tiny_dataset(24);
        let val = tiny_dataset(4);
        // Validation and checkpoints on, so every phase of the table runs.
        let mut hp = fast_hp();
        hp.eval_every = 2;
        let opts = TrainOptions {
            observer: Observer::new("gauges"),
            ..checkpointed(&scratch_dir("gauges").join("run.plpc"), 2)
        };
        let out = train_plp_resumable(13, &ds, Some(&val), &hp, &opts).unwrap();

        let obs = &opts.observer;
        assert_eq!(
            obs.gauge("plp_epsilon_spent").get().to_bits(),
            out.summary.epsilon_spent.to_bits(),
            "terminal ε gauge must be bit-identical to the run summary"
        );
        assert_eq!(
            obs.gauge("plp_epsilon_budget").get().to_bits(),
            hp.budget.epsilon.to_bits()
        );
        assert_eq!(
            obs.gauge("plp_delta").get().to_bits(),
            hp.budget.delta.to_bits()
        );
        assert_eq!(
            obs.counter("plp_train_steps_total").get(),
            out.summary.steps
        );

        // Every phase that declares a series has recorded into it; a
        // trace-only phase has none.
        let text = obs.render_prometheus();
        for p in phase::TABLE.phases {
            let count = format!("{}_count{{phase=\"{}\"}} ", phase::TABLE.family, p.name);
            let recorded = text
                .lines()
                .filter_map(|line| line.strip_prefix(&count))
                .any(|n| n != "0");
            assert_eq!(recorded, p.series, "{} in:\n{text}", p.name);
        }
    }

    #[test]
    fn injected_faults_surface_as_events_and_counters() {
        let ds = tiny_dataset(30);
        let hp = fast_hp();
        let faults = FaultInjector::with_plan(FaultPlan {
            nan_delta_rate: 0.3,
            panic_rate: 0.2,
            ..FaultPlan::quiet(99)
        });
        let opts = TrainOptions {
            faults,
            observer: Observer::with_memory_sink("faults"),
            ..TrainOptions::default()
        };
        let out = train_plp_resumable(7, &ds, None, &hp, &opts).unwrap();
        let skipped: u64 = out.telemetry.iter().map(|t| t.skipped_buckets as u64).sum();
        assert!(skipped > 0, "this seeded plan must poison some buckets");
        assert_eq!(
            opts.observer
                .counter("plp_train_skipped_buckets_total")
                .get(),
            skipped,
            "the counter must agree with telemetry"
        );
        let fault_events = opts
            .observer
            .captured_events()
            .iter()
            .filter(|l| {
                let v: serde_json::Value = serde_json::from_str(l).unwrap();
                v.as_object().unwrap().get("kind")
                    == Some(&serde_json::Value::Str("skipped_buckets".into()))
            })
            .count();
        assert!(fault_events > 0, "skipped buckets must emit events");
    }

    #[test]
    fn stop_reasons_are_counted_by_label() {
        let ds = tiny_dataset(30);
        let hp = fast_hp();

        // Interrupted: driver halt.
        let halted = TrainOptions {
            halt_after: Some(2),
            observer: Observer::new("halt"),
            ..TrainOptions::default()
        };
        let out = train_plp_resumable(3, &ds, None, &hp, &halted).unwrap();
        assert_eq!(out.summary.stop_reason, StopReason::Interrupted);
        assert_eq!(
            halted
                .observer
                .counter_with("plp_train_stop_total", "reason", "interrupted")
                .get(),
            1
        );

        // Diverged: every bucket poisoned.
        let poisoned = TrainOptions {
            faults: FaultInjector::with_plan(FaultPlan {
                nan_delta_rate: 1.0,
                ..FaultPlan::quiet(1)
            }),
            observer: Observer::with_memory_sink("poison"),
            ..TrainOptions::default()
        };
        let out = train_plp_resumable(11, &ds, None, &hp, &poisoned).unwrap();
        assert_eq!(out.summary.stop_reason, StopReason::Diverged);
        assert_eq!(
            poisoned
                .observer
                .counter_with("plp_train_stop_total", "reason", "diverged")
                .get(),
            1
        );
        let text = poisoned.observer.render_prometheus();
        assert!(
            text.contains("plp_train_stop_total{reason=\"diverged\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn resumed_run_appends_to_the_same_event_log() {
        let ds = tiny_dataset(24);
        let hp = fast_hp();
        let dir = scratch_dir("obs_resume");
        let opts = checkpointed(&dir.join("run.plpc"), 2);
        let log = dir.join("events.jsonl");

        let crash_opts = TrainOptions {
            halt_after: Some(3),
            observer: Observer::with_jsonl_file("crash", &log).unwrap(),
            ..opts.clone()
        };
        train_plp_resumable(42, &ds, None, &hp, &crash_opts).unwrap();

        let resume_opts = TrainOptions {
            observer: Observer::with_jsonl_file("resume", &log).unwrap(),
            ..opts
        };
        train_plp_resumable(42, &ds, None, &hp, &resume_opts).unwrap();

        let text = std::fs::read_to_string(&log).unwrap();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("every line parses");
            let serde_json::Value::Str(kind) = &v.as_object().unwrap()["kind"] else {
                panic!("kind must be a string")
            };
            kinds.push(kind.clone());
        }
        assert_eq!(
            kinds.iter().filter(|k| *k == "run_start").count(),
            2,
            "both the crashed and the resumed run log run_start"
        );
        assert_eq!(
            kinds.iter().filter(|k| *k == "checkpoint_resumed").count(),
            1
        );
        assert!(kinds.iter().any(|k| k == "checkpoint_saved"));
    }

    #[test]
    fn privacy_burn_events_track_the_accountant_exactly() {
        let ds = tiny_dataset(24);
        let hp = fast_hp();
        let opts = TrainOptions {
            observer: Observer::with_memory_sink("burn"),
            ..TrainOptions::default()
        };
        let out = train_plp_resumable(11, &ds, None, &hp, &opts).unwrap();

        let mut burns = Vec::new();
        for line in opts.observer.captured_events() {
            let v: serde_json::Value = serde_json::from_str(&line).unwrap();
            let obj = v.as_object().unwrap().clone();
            if matches!(&obj["kind"], serde_json::Value::Str(k) if k == "privacy_burn") {
                burns.push(obj["payload"].as_object().unwrap().clone());
            }
        }
        assert_eq!(
            burns.len() as u64,
            out.summary.steps,
            "one privacy_burn event per accounted step"
        );
        let last = burns.last().unwrap();
        assert_eq!(
            last["epsilon_spent"].as_f64().unwrap().to_bits(),
            out.summary.epsilon_spent.to_bits(),
            "the final burn event must agree with the run summary bit-for-bit"
        );
        assert!(last["rdp_order"].as_f64().unwrap() >= 1.0);

        // The burn events partition the total spend: per-step deltas sum
        // back to the final ε (up to float addition error), and every
        // delta is positive.
        let mut acc = 0.0;
        for b in &burns {
            let d = b["epsilon_step"].as_f64().unwrap();
            assert!(d > 0.0, "every private step burns budget");
            acc += d;
        }
        assert!((acc - out.summary.epsilon_spent).abs() < 1e-9);

        // The gauge holds the last step's burn rate.
        assert_eq!(
            opts.observer
                .gauge("plp_privacy_epsilon_burn_rate")
                .get()
                .to_bits(),
            last["epsilon_step"].as_f64().unwrap().to_bits()
        );
    }

    /// θ and `n` buckets of uneven length over its vocabulary.
    fn step_inputs(n: usize) -> (ModelParams, Vec<Bucket>) {
        let theta = ModelParams::init(&mut StdRng::seed_from_u64(3), 16, 8).unwrap();
        let buckets = (0..n)
            .map(|b| Bucket {
                user_indices: vec![b],
                tokens: (0..6 + 5 * (b % 4)).map(|t| (t * 7 + b * 3) % 16).collect(),
            })
            .collect();
        (theta, buckets)
    }

    /// The default adapter: an executor that only has `execute_step`.
    struct CollectOnly;

    impl BucketExecutor for CollectOnly {
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
            LocalExecutor.execute_step(theta, buckets, hp, step_seed, step, faults, obs)
        }
    }

    const STREAM_SEED: u64 = 0xB0C4;
    const STREAM_STEP: u64 = 3;

    fn hp_with_threads(threads: usize) -> Hyperparameters {
        Hyperparameters {
            threads,
            ..fast_hp()
        }
    }

    /// How many pairs each bucket trains on: what it adds to the
    /// observer's pair counter when its SGD is done.
    fn pairs_per_bucket(buckets: &[Bucket]) -> Vec<u64> {
        let window = fast_hp().context_window;
        buckets
            .iter()
            .map(|b| plp_data::window::pairs_from_sequence(&b.tokens, window).len() as u64)
            .collect()
    }

    /// Blocks until the observer's pair counter reaches `pairs`; returns
    /// what it read.
    fn await_pairs(obs: &Observer, pairs: u64) -> u64 {
        let counter = obs.counter("plp_train_pairs_total");
        while counter.get() < pairs {
            std::thread::yield_now();
        }
        counter.get()
    }

    /// One step through `execute_step_into`, every update copied out of
    /// the sink, which also checks that indices strictly ascend.
    fn stream_step(
        executor: &mut dyn BucketExecutor,
        theta: &ModelParams,
        buckets: &[Bucket],
        threads: usize,
        faults: &FaultInjector,
    ) -> (Vec<BucketUpdate>, usize) {
        let hp = hp_with_threads(threads);
        let mut seen: Vec<BucketUpdate> = Vec::new();
        let skipped = executor
            .execute_step_into(
                theta,
                buckets,
                &hp,
                STREAM_SEED,
                STREAM_STEP,
                faults,
                &Observer::disabled(),
                &mut StepScratch::default(),
                &mut |update| {
                    assert!(seen.last().is_none_or(|last| last.index < update.index));
                    seen.push(update.clone());
                    Ok(())
                },
            )
            .unwrap();
        (seen, skipped)
    }

    /// `==` on updates plus the bits `==` cannot see (`-0.0`, NaN).
    fn assert_bit_equal(got: &[BucketUpdate], want: &[BucketUpdate], what: &str) {
        assert_eq!(got, want, "{what}");
        let bits = |u: &BucketUpdate| -> Vec<(usize, Vec<u64>)> {
            [&u.grad.embedding, &u.grad.context, &u.grad.bias]
                .into_iter()
                .flat_map(|t| t.rows())
                .map(|(r, v)| (r, v.iter().map(|x| x.to_bits()).collect()))
                .chain([(u.index, vec![u.mean_loss.to_bits()])])
                .collect()
        };
        for (g, w) in got.iter().zip(want) {
            assert_eq!(bits(g), bits(w), "{what}, bucket {}", w.index);
        }
    }

    #[test]
    fn streaming_native_adapter_and_sequential_agree_bit_for_bit() {
        let plans = [
            FaultPlan::quiet(1),
            FaultPlan {
                panic_rate: 0.3,
                ..FaultPlan::quiet(5)
            },
            FaultPlan {
                nan_delta_rate: 0.3,
                ..FaultPlan::quiet(6)
            },
            FaultPlan {
                nan_delta_rate: 0.25,
                panic_rate: 0.25,
                ..FaultPlan::quiet(7)
            },
        ];
        let mut dropped = 0;
        for n in [0, 1, 2, 3, 8, 17] {
            let (theta, buckets) = step_inputs(n);
            for plan in plans {
                let faults = FaultInjector::with_plan(plan);
                let (want, want_skipped) =
                    stream_step(&mut LocalExecutor, &theta, &buckets, 1, &faults);
                assert_eq!(want.len() + want_skipped, n);
                dropped += want_skipped;
                for threads in [1, 2, 3, 7] {
                    let what = format!("{n} buckets, {threads} threads, plan {}", plan.seed);
                    let (native, skipped) =
                        stream_step(&mut LocalExecutor, &theta, &buckets, threads, &faults);
                    assert_eq!(skipped, want_skipped, "{what}");
                    assert_bit_equal(&native, &want, &what);
                    let (adapted, skipped) =
                        stream_step(&mut CollectOnly, &theta, &buckets, threads, &faults);
                    assert_eq!(skipped, want_skipped, "{what}");
                    assert_bit_equal(&adapted, &want, &what);
                }
            }
        }
        assert!(dropped > 0, "these plans must drop some buckets");
    }

    /// An executor whose every step replies with one bucket holding
    /// `delta`, whatever it was asked: an update the loop did not compute
    /// and must not trust.
    struct Replies(RowDelta);

    impl BucketExecutor for Replies {
        fn execute_step(
            &mut self,
            _theta: &ModelParams,
            _buckets: &[Bucket],
            _hp: &Hyperparameters,
            _step_seed: u64,
            _step: u64,
            _faults: &FaultInjector,
            _obs: &Observer,
        ) -> Result<(Vec<BucketUpdate>, usize), CoreError> {
            let update = BucketUpdate {
                grad: self.0.clone(),
                ..BucketUpdate::default()
            };
            Ok((vec![update], 0))
        }
    }

    #[test]
    fn a_reply_that_does_not_fit_the_model_ends_the_run_typed() {
        use plp_model::params::ParamsViewMut;
        use plp_model::ModelError;
        let data = tiny_dataset(8);
        let hp = fast_hp();
        let (vocab, dim) = (data.vocab_size, hp.embedding_dim);
        // The delta of a `vocab × dim` model whose listed rows moved by 0.5.
        let delta = |vocab: usize, dim: usize, embedding: &[usize], context: &[usize]| {
            let base = ModelParams::zeros(vocab, dim);
            let mut journal = RowJournal::new();
            let mut phi = CowParams::new(&base, &mut journal);
            for &r in embedding {
                phi.embedding_row_mut(r).fill(0.5);
            }
            for &r in context {
                phi.context_row_mut(r).fill(0.5);
            }
            journal.take_delta(&base)
        };
        // Each holds a row that fits before the one that does not, so a
        // sum that wrote before it checked would have something to show.
        let past_vocab = delta(vocab + 1, dim, &[1, vocab], &[]);
        let too_wide = RowDelta {
            context: delta(vocab, dim + 1, &[], &[2]).context,
            ..delta(vocab, dim, &[1], &[])
        };
        let run = |delta: RowDelta| {
            train_plp_with_executor(
                7,
                &data,
                None,
                &hp,
                &TrainOptions::default(),
                &mut Replies(delta),
            )
        };
        let err = run(past_vocab).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Model(ModelError::TokenOutOfRange { token, vocab: v })
                    if token == vocab && v == vocab
            ),
            "{err:?}"
        );
        let err = run(too_wide).unwrap_err();
        assert!(
            matches!(err, CoreError::Model(ModelError::ShapeMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn streaming_a_fully_poisoned_step_never_reaches_the_sink() {
        let (theta, buckets) = step_inputs(8);
        for (nan_delta_rate, panic_rate) in [(1.0, 0.0), (0.0, 1.0)] {
            let faults = FaultInjector::with_plan(FaultPlan {
                nan_delta_rate,
                panic_rate,
                ..FaultPlan::quiet(2)
            });
            for threads in [1, 2, 3, 7] {
                let (seen, skipped) =
                    stream_step(&mut LocalExecutor, &theta, &buckets, threads, &faults);
                assert!(seen.is_empty(), "nothing may be added to the sum");
                assert_eq!(skipped, 8);
            }
        }
    }

    #[test]
    fn streaming_a_failing_sink_stops_the_step_without_hanging() {
        let (theta, buckets) = step_inputs(17);
        for threads in [1, 2, 3, 7] {
            let hp = hp_with_threads(threads);
            let mut delivered = Vec::new();
            let err = LocalExecutor.execute_step_into(
                &theta,
                &buckets,
                &hp,
                STREAM_SEED,
                STREAM_STEP,
                &FaultInjector::default(),
                &Observer::disabled(),
                &mut StepScratch::default(),
                &mut |update| {
                    delivered.push(update.index);
                    if update.index == 4 {
                        return Err(CoreError::BadConfig {
                            name: "sink",
                            expected: "to be left alone",
                        });
                    }
                    Ok(())
                },
            );
            assert!(
                matches!(err, Err(CoreError::BadConfig { name: "sink", .. })),
                "{err:?}"
            );
            assert_eq!(delivered, [0, 1, 2, 3, 4], "nothing past the error");
        }
    }

    #[test]
    fn streaming_a_slow_sink_bounds_the_run_ahead_at_threads_plus_one() {
        let n = 17;
        let (theta, buckets) = step_inputs(n);
        let pairs = pairs_per_bucket(&buckets);
        for threads in [2, 3, 7] {
            let hp = hp_with_threads(threads);
            let window = threads + 1;
            let obs = Observer::new("run_ahead");
            RUN_AHEAD_HIGH_WATER.with(|h| h.set(0));
            let skipped = LocalExecutor
                .execute_step_into(
                    &theta,
                    &buckets,
                    &hp,
                    STREAM_SEED,
                    STREAM_STEP,
                    &FaultInjector::default(),
                    &obs,
                    &mut StepScratch::default(),
                    // The slowest sink there is: it does not return before
                    // every bucket the window lets the workers claim has
                    // finished its SGD — and sees that none past it has.
                    &mut |update| {
                        let upto = n.min(update.index + window);
                        let allowed: u64 = pairs[..upto].iter().sum();
                        assert_eq!(await_pairs(&obs, allowed), allowed, "ran past {upto}");
                        Ok(())
                    },
                )
                .unwrap();
            assert_eq!(skipped, 0);
            assert_eq!(
                RUN_AHEAD_HIGH_WATER.with(std::cell::Cell::get),
                window,
                "{threads} threads: the window is used in full and never exceeded"
            );
        }
    }

    #[test]
    fn streaming_a_failing_bucket_releases_workers_waiting_for_room() {
        // Bucket 2 fails systematically (a token outside the vocabulary)
        // while the sink still sits on bucket 0, so every other worker has
        // run into the closed window by the time the error is reached.
        let (theta, mut buckets) = step_inputs(17);
        buckets[2].tokens[3] = theta.vocab_size();
        let pairs = pairs_per_bucket(&buckets);
        for threads in [1, 2, 3, 7] {
            let hp = hp_with_threads(threads);
            let obs = Observer::new("failing_bucket");
            let mut delivered = Vec::new();
            let err = LocalExecutor.execute_step_into(
                &theta,
                &buckets,
                &hp,
                STREAM_SEED,
                STREAM_STEP,
                &FaultInjector::default(),
                &obs,
                &mut StepScratch::default(),
                &mut |update| {
                    if threads > 1 && update.index == 0 {
                        // Buckets 0 and 1 are done; 2 trains no pair.
                        await_pairs(&obs, pairs[..2].iter().sum());
                    }
                    delivered.push(update.index);
                    Ok(())
                },
            );
            assert!(
                matches!(
                    err,
                    Err(CoreError::Model(
                        plp_model::ModelError::TokenOutOfRange { .. }
                    ))
                ),
                "{err:?}"
            );
            assert_eq!(delivered, [0, 1], "buckets before the failure are summed");
        }
    }

    #[test]
    fn tracing_is_invisible_to_the_trained_bits_and_deterministic() {
        use plp_obs::trace::{derive_span_id, TraceConfig};

        let ds = tiny_dataset(24);
        let val = tiny_dataset(4);
        // Validation and checkpoints on, so every phase of the table runs.
        let mut hp = fast_hp();
        hp.eval_every = 2;
        let plain =
            train_plp_resumable(33, &ds, Some(&val), &hp, &TrainOptions::default()).unwrap();

        for threads in [1, 3] {
            hp.threads = threads;
            let opts = TrainOptions {
                observer: Observer::new("traced"),
                ..checkpointed(&scratch_dir("traced").join("run.plpc"), 2)
            };
            let tracer = opts
                .observer
                .attach_tracer(TraceConfig::named("trainer"))
                .unwrap();
            let traced = train_plp_resumable(33, &ds, Some(&val), &hp, &opts).unwrap();

            assert_eq!(
                plain.params, traced.params,
                "an attached tracer must be invisible to the math"
            );
            assert_eq!(
                plain.summary.epsilon_spent.to_bits(),
                traced.summary.epsilon_spent.to_bits()
            );
            assert_eq!(plain.ledger, traced.ledger);

            // Span ids are pure functions of (run_seed, step, name, index):
            // recompute step 2's — the step that also evaluates and
            // checkpoints — for every row of the table.
            let spans = tracer.snapshot();
            let tid = derive_trace_id(33, DOMAIN_TRAIN_STEP, 2);
            let id_of = |p: plp_obs::Phase, index| derive_span_id(tid, p.name, index);
            for &p in phase::TABLE.phases {
                let in_bucket = p == phase::BUCKET_SGD || p == phase::CLIP;
                let (index, parent) = if p == phase::STEP {
                    (2, 0)
                } else if in_bucket {
                    (0, id_of(phase::LOCAL_SGD, 2))
                } else {
                    (2, id_of(phase::STEP, 2))
                };
                assert!(
                    spans.iter().any(|s| s.name == p.name
                        && s.cat == phase::TABLE.cat
                        && s.trace_id == tid
                        && s.span_id == id_of(p, index)
                        && s.parent_id == parent),
                    "missing span {} of step 2 (threads={threads})",
                    p.name
                );
            }
            let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span_id).collect();
            for s in &spans {
                assert!(
                    s.parent_id == 0 || ids.contains(&s.parent_id),
                    "span {} has a dangling parent",
                    s.name
                );
            }
            assert_eq!(
                spans.iter().filter(|s| s.name == phase::STEP.name).count() as u64,
                traced.summary.steps,
                "one step span per executed step"
            );
        }
    }

    #[test]
    fn one_member_moves_a_clipped_bucket_by_at_most_c_alone_and_2c_grouped() {
        // Removing user u from bucket b moves the Gaussian sum by
        // clip(Δ_b) − clip(Δ_{b∖u}). At λ = 1, b∖u is empty and adds
        // nothing, so the move is ‖clip(Δ_u)‖ ≤ C. At λ ≥ 2 both terms
        // stay, and the triangle inequality bounds the move by 2C, not by
        // the C of §4.2 Case 1 (ROADMAP item 19). Both sides use the same
        // step seed and bucket index, as a step would, and the buckets are
        // the trainer's own grouping of every user; C is small enough that
        // every bucket clips.
        let prep = PreparedData::generate(&ExperimentConfig::small(19)).unwrap();
        let hp = Hyperparameters {
            clip_norm: 0.005,
            ..Hyperparameters::default()
        };
        let mut rng = StdRng::seed_from_u64(19);
        let theta = ModelParams::init(&mut rng, prep.vocab_size(), hp.embedding_dim).unwrap();
        let obs = Observer::disabled();
        let ctx = BucketCtx {
            step: 1,
            step_seed: 0x19A,
            faults: &FaultInjector::default(),
            phases: &PhaseSet::resolve(&obs, &phase::TABLE),
            pairs: &obs.counter("plp_train_pairs_total"),
            trace: None,
        };
        let mut scratch = BucketScratch::default();
        let mut clipped_delta = |members: Vec<usize>, index: usize| {
            let tokens: Vec<usize> = members
                .iter()
                .flat_map(|&m| prep.train.users[m].tokens())
                .map(|&t| t as usize)
                .collect();
            if tokens.is_empty() {
                return RowDelta::default();
            }
            let bucket = Bucket {
                user_indices: members,
                tokens,
            };
            model_update_from_bucket(&theta, &bucket, &hp, index, &ctx, &mut scratch)
                .unwrap()
                .grad
        };
        let everyone: Vec<usize> = (0..prep.train.num_users()).collect();
        for lambda in [1, 2, 4] {
            let bound = if lambda == 1 { 1.0 } else { 2.0 } * hp.clip_norm;
            let mut largest = 0.0f64;
            let mut rng = StdRng::seed_from_u64(2);
            let buckets = group_data(&mut rng, &everyone, &prep.train, lambda, Random).unwrap();
            for (index, bucket) in buckets.into_iter().enumerate().take(20) {
                let with_u = clipped_delta(bucket.user_indices.clone(), index);
                for &u in &bucket.user_indices {
                    let rest = bucket.user_indices.iter().copied().filter(|&m| m != u);
                    let mut without_u = clipped_delta(rest.collect(), index);
                    without_u.scale_per_tensor(-1.0, -1.0, -1.0);
                    let mut moved = ModelParams::zeros(theta.vocab_size(), theta.dim());
                    with_u.accumulate_into(&mut moved).unwrap();
                    without_u.accumulate_into(&mut moved).unwrap();
                    let distance = moved.global_norm();
                    assert!(
                        distance <= bound + 1e-12,
                        "λ = {lambda}, bucket {index}, user {u}: moved {distance} > {bound}"
                    );
                    largest = largest.max(distance / hp.clip_norm);
                }
            }
            println!("λ = {lambda}: largest ‖clip(Δ_b) − clip(Δ_b∖u)‖ = {largest:.3} C");
        }
    }

    /// The local executor, plus the tokens of the buckets a step handed it
    /// and a [`RowSum`] of the updates it returned: the very updates the
    /// loop sums, in the same order.
    struct Counting {
        tokens: usize,
        sum: RowSum,
    }

    impl BucketExecutor for Counting {
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
            self.tokens += buckets.iter().map(Bucket::len).sum::<usize>();
            let (updates, skipped) =
                LocalExecutor.execute_step(theta, buckets, hp, step_seed, step, faults, obs)?;
            for update in &updates {
                self.sum.add(&update.grad)?;
            }
            Ok((updates, skipped))
        }
    }

    #[test]
    fn work_counters_at_the_train_grouped_shape() {
        // One private step of `ExperimentConfig::medium(42)` at the paper's
        // hyper-parameters (q = 0.06, λ = 4): the users it sampled, the
        // buckets and tokens it grouped them into, the SGNS pairs it trained
        // on and the W, W′ and B′ rows its Gaussian sum holds, pinned
        // exactly. Each is a pure function of the seed, so less work shows
        // as a count where a timing would not resolve.
        let prep = PreparedData::generate(&ExperimentConfig::medium(42)).unwrap();
        let hp = Hyperparameters {
            max_steps: 1,
            ..Hyperparameters::default()
        };
        assert_eq!((hp.sampling_prob, hp.grouping_factor), (0.06, 4));
        let opts = TrainOptions {
            observer: Observer::new("counters"),
            ..TrainOptions::default()
        };
        let mut counting = Counting {
            tokens: 0,
            sum: RowSum::new(prep.vocab_size(), hp.embedding_dim),
        };
        let out =
            train_plp_with_executor(42, &prep.train, None, &hp, &opts, &mut counting).unwrap();
        let step = &out.telemetry[0];
        let (w, w_prime, b_prime) = counting.sum.tensor_rows();
        let got = [
            step.sampled_users,
            step.buckets,
            counting.tokens,
            opts.observer.counter("plp_train_pairs_total").get() as usize,
            w,
            w_prime,
            b_prime,
        ];
        println!(
            "train_grouped, one step (sampled users, buckets, bucket tokens, SGNS pairs, \
             RowSum rows W, W', B'): {got:?}"
        );
        assert_eq!(got, [69, 18, 7_126, 28_396, 580, 600, 600]);
    }

    #[test]
    fn work_counters_at_the_train_wide_shape() {
        // The same counts for one step at `train_wide`'s shape: 30 000
        // locations asked for, 1 500 users, 400 000 check-ins, q = 0.008,
        // λ = 2, dim 50. At this vocabulary a step's W′ rows — the
        // buckets' distinct contexts plus one shared negative set per
        // batch — are a small share of the rows, so a change to how many
        // negatives a batch draws moves W′ where at `train_grouped`'s 600
        // locations it saturates.
        let mut config = ExperimentConfig::medium(42);
        config.generator.num_locations = 30_000;
        config.generator.num_users = 1_500;
        config.generator.target_checkins = 400_000;
        let prep = PreparedData::generate(&config).unwrap();
        let hp = Hyperparameters {
            embedding_dim: 50,
            sampling_prob: 0.008,
            grouping_factor: 2,
            max_steps: 1,
            ..Hyperparameters::default()
        };
        let opts = TrainOptions {
            observer: Observer::new("counters"),
            ..TrainOptions::default()
        };
        let mut counting = Counting {
            tokens: 0,
            sum: RowSum::new(prep.vocab_size(), hp.embedding_dim),
        };
        let out =
            train_plp_with_executor(42, &prep.train, None, &hp, &opts, &mut counting).unwrap();
        let step = &out.telemetry[0];
        let (w, w_prime, b_prime) = counting.sum.tensor_rows();
        let got = [
            prep.vocab_size(),
            step.sampled_users,
            step.buckets,
            counting.tokens,
            opts.observer.counter("plp_train_pairs_total").get() as usize,
            w,
            w_prime,
            b_prime,
        ];
        println!(
            "train_wide, one step (vocabulary, sampled users, buckets, bucket tokens, SGNS \
             pairs, RowSum rows W, W', B'): {got:?}"
        );
        assert_eq!(got, [22_840, 12, 6, 3_839, 15_320, 1_809, 7_852, 7_852]);
    }
}
