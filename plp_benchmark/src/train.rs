//! The two training workloads: Algorithm 1 through `plp-core`'s public
//! trainer, once where per-bucket local SGD is nearly all of the wall
//! (`train_grouped`) and once where the O(vocab) phases — noise, server
//! Adam, the dense evaluation scan — are about half of it (`train_wide`).
//!
//! The untraced run calls `train_plp_resumable` and reads everything it
//! reports from the returned outcome. The traced run first makes that same
//! call (what training returns must not depend on tracing), then passes a
//! [`TimedExecutor`] to `train_plp_with_executor` (a span around every
//! step's bucket fan-out), enables the program's own `Observer` + tracer,
//! and afterwards *replays* each remaining layer's public function on the
//! run's real shapes to price it per call.

use std::time::Instant;

use plp_core::config::Hyperparameters;
use plp_core::experiment::{hit_rate_at_10, ExperimentConfig, PreparedData};
use plp_core::faults::FaultInjector;
use plp_core::noise::perturb_and_scale_threaded;
use plp_core::plp::{
    fixed_denominator, train_plp_resumable, train_plp_with_executor, BucketExecutor, BucketUpdate,
    LocalExecutor, PlpOutcome, TrainOptions,
};
use plp_core::telemetry::{StepTelemetry, StopReason};
use plp_core::CoreError;
use plp_data::generator::SyntheticGenerator;
use plp_data::grouping::{group_data, Bucket, GroupingStrategy};
use plp_data::sampling::sample_users;
use plp_model::metrics::evaluate_hit_rate_threaded;
use plp_model::optimizer::ServerAdam;
use plp_model::params::ModelParams;
use plp_model::Recommender;
use plp_obs::{Observer, TraceConfig};
use plp_privacy::{GaussianMechanism, MomentsAccountant, PrivacyBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host;
use crate::inputs::{derive, Digest, Domain};
use crate::kernels::{self, secs_per_call};
use crate::report::{artifact_dir, PhaseRow, Report};
use crate::spec::{paper, TrainSpec, NOMINAL_SECONDS};
use crate::stats::median;
use crate::trace::SpanLog;
use crate::{timed_setups, RunArgs};

/// Time budget of one replayed layer.
const REPLAY_BUDGET: std::time::Duration = std::time::Duration::from_millis(250);

fn experiment_config(spec: &TrainSpec, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::medium(derive(seed, Domain::World, 0));
    if spec.locations > 0 {
        config.generator.num_locations = spec.locations;
        config.generator.num_users = spec.users;
        config.generator.target_checkins = spec.checkins;
    }
    config
}

fn hyperparameters(spec: &TrainSpec, steps: usize) -> Hyperparameters {
    Hyperparameters {
        embedding_dim: paper::DIM,
        negative_samples: paper::NEG,
        sampling_prob: spec.sampling_prob,
        noise_multiplier: paper::SIGMA,
        clip_norm: paper::CLIP,
        grouping_factor: spec.grouping_factor,
        budget: PrivacyBudget {
            epsilon: paper::EPSILON_BUDGET,
            delta: paper::DELTA,
        },
        max_steps: steps,
        eval_every: spec.eval_every,
        threads: host::nproc().min(2),
        ..Hyperparameters::default()
    }
}

/// A [`BucketExecutor`] that times the in-process executor from outside:
/// one `local_sgd` span per step, plus the bucket count and the last
/// step's updates (the replay needs a real θ-shaped aggregate).
struct TimedExecutor<'a> {
    log: &'a mut SpanLog,
    root: u32,
    last_step: u64,
    buckets: u64,
    last_updates: Vec<BucketUpdate>,
}

impl BucketExecutor for TimedExecutor<'_> {
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
        let start = Instant::now();
        let out = LocalExecutor.execute_step(theta, buckets, hp, step_seed, step, faults, obs);
        self.log
            .record("local_sgd", start, Instant::now(), self.root, step, 0);
        self.buckets += buckets.len() as u64;
        if step == self.last_step {
            if let Ok((updates, _)) = &out {
                self.last_updates = updates.clone();
            }
        }
        out
    }
}

/// Digest of everything training returned that must not depend on
/// tracing: parameters, ledger and ε, bit for bit.
fn outcome_digest(outcome: &PlpOutcome) -> String {
    let mut d = Digest::default();
    d.floats(outcome.params.embedding.as_slice());
    d.floats(outcome.params.context.as_slice());
    d.floats(&outcome.params.bias);
    for e in outcome.ledger.entries() {
        d.floats(&[e.q, e.noise_multiplier]);
        d.word(e.steps);
    }
    d.floats(&[outcome.summary.epsilon_spent]);
    format!("{:016x}", d.value())
}

/// Steps per second in the fastest block of `eval_every` consecutive steps
/// (every block holds one validation pass), read from the per-step wall
/// times the trainer reports. See `ops_per_s` in `spec::FAMILY` for why
/// the fastest.
fn fastest_block_rate(telemetry: &[StepTelemetry], eval_every: usize) -> f64 {
    telemetry
        .chunks_exact(eval_every)
        .map(|block| eval_every as f64 / block.iter().map(|t| t.wall_ms / 1e3).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Runs a training workload and reports it.
///
/// # Panics
/// On any error from the program under test: a benchmark input on which
/// an operation fails is a defect of the benchmark.
pub fn run(workload: &'static str, spec: &TrainSpec, args: &RunArgs) -> Report {
    let mut report = Report::new(workload, args.traced, args.seed, args.seconds);
    let config = experiment_config(spec, args.seed);

    // Set-up: generate the check-in world, then filter / split / tokenise —
    // the two calls `PreparedData::generate` makes, kept apart so the
    // generator can be priced on its own.
    let mut generate_s = Vec::new();
    let (setup_s, prep) = timed_setups(|| {
        let start = Instant::now();
        let raw = SyntheticGenerator::generate_with_seed(config.generator.clone(), config.seed)
            .expect("generator config is valid");
        generate_s.push(start.elapsed().as_secs_f64());
        PreparedData::from_checkins(&raw, &config).expect("prepare data")
    });

    let steps = ((spec.steps as u64 * args.seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS)
        .max(spec.eval_every as u64) as usize;
    let hp = hyperparameters(spec, steps);
    let run_seed = derive(args.seed, Domain::Run, 0);

    let train_untraced = || {
        let opts = TrainOptions::default();
        train_plp_resumable(run_seed, &prep.train, Some(&prep.validation), &hp, &opts)
            .expect("training run")
    };
    // A traced run first makes the same call untraced, in this process:
    // what training returns must not depend on tracing, and the two rates
    // side by side are the tracing overhead.
    let reference = args.traced.then(|| {
        let untraced = train_untraced();
        (
            outcome_digest(&untraced),
            fastest_block_rate(&untraced.telemetry, spec.eval_every),
        )
    });

    let mut log = SpanLog::with_capacity(if args.traced { steps + 1 } else { 0 });
    let observer = if args.traced {
        let o = Observer::new("plp_benchmark");
        o.attach_tracer(TraceConfig::named(workload));
        o
    } else {
        Observer::disabled()
    };

    // ---- the measured window: one training call ----
    let call_start = Instant::now();
    let (outcome, timed) = if args.traced {
        let opts = TrainOptions {
            observer: observer.clone(),
            ..TrainOptions::default()
        };
        let root = log.open("train_call", call_start, 0, 0);
        let mut exec = TimedExecutor {
            log: &mut log,
            root,
            last_step: steps as u64,
            buckets: 0,
            last_updates: Vec::new(),
        };
        let outcome = train_plp_with_executor(
            run_seed,
            &prep.train,
            Some(&prep.validation),
            &hp,
            &opts,
            &mut exec,
        )
        .expect("training run");
        let timed = (exec.buckets, std::mem::take(&mut exec.last_updates));
        log.close(root, Instant::now());
        (outcome, Some(timed))
    } else {
        (train_untraced(), None)
    };
    let wall_s = call_start.elapsed().as_secs_f64();

    // ---- end-to-end figures, all read from what the trainer returned ----
    let done = outcome.summary.steps;
    let steps_per_s = done as f64 / wall_s;
    let evals = outcome
        .telemetry
        .iter()
        .filter(|t| t.validation_hr10.is_some())
        .count();
    let hr10 = hit_rate_at_10(&outcome.params, &prep.test).expect("evaluate test users");
    let degraded = outcome
        .telemetry
        .iter()
        .filter(|t| t.skipped_buckets > 0)
        .count() as u64;
    report.attempted = steps as u64;
    report.failed = (steps as u64).saturating_sub(done) + degraded;
    report.phases.push(PhaseRow {
        name: "train".to_string(),
        sent: steps as u64,
        succeeded: done - degraded.min(done),
        failed: report.failed,
        samples: outcome.telemetry.len() as u64,
    });

    let fastest_rate = fastest_block_rate(&outcome.telemetry, spec.eval_every);
    report.set("setup_s", setup_s);
    report.set("ops_per_s", fastest_rate);
    report.set("steps_per_s", steps_per_s);
    report.set("epsilon_spent", outcome.summary.epsilon_spent);
    report.set("hr10", hr10);
    report.set("failed_frac", report.failed as f64 / steps as f64);

    report.note("vocab", prep.vocab_size());
    report.note("train_users", prep.train.num_users());
    report.note("validation_users", prep.validation.num_users());
    report.note("train_tokens", prep.train.total_tokens());
    report.note("steps", done);
    report.note("evals", evals);
    report.note("threads", hp.effective_threads());
    report.note("sampling_prob", hp.sampling_prob);
    report.note("grouping_factor", hp.grouping_factor);
    let digest = outcome_digest(&outcome);
    report.note("result_digest", digest.clone());

    // ---- correctness ----
    report.check(
        "ran the fixed step count and stopped for that reason",
        done == steps as u64 && outcome.summary.stop_reason == StopReason::MaxSteps,
        format!(
            "{done}/{steps} steps, stop {:?}",
            outcome.summary.stop_reason
        ),
    );
    report.check(
        "no bucket was dropped",
        degraded == 0,
        format!("{degraded} steps dropped a bucket"),
    );
    report.check(
        "returned parameters are finite",
        outcome.params.all_finite(),
        format!("{} parameters", outcome.params.num_params()),
    );
    let ledger_eps = outcome
        .ledger
        .epsilon(paper::DELTA)
        .expect("ledger epsilon");
    // The accountant composes step by step and the ledger in one product,
    // so the two agree to rounding, not to the bit.
    report.check(
        "reported epsilon agrees with the epsilon recomputed from the ledger",
        (ledger_eps - outcome.summary.epsilon_spent).abs() <= 1e-9 * ledger_eps.abs()
            && outcome.ledger.total_steps() == done,
        format!(
            "summary {} ledger {ledger_eps} over {} ledger steps",
            outcome.summary.epsilon_spent,
            outcome.ledger.total_steps()
        ),
    );
    let evals_due = steps / spec.eval_every;
    report.check(
        "validation HR@10 was evaluated on schedule",
        evals == evals_due,
        format!("{evals} of {evals_due} evaluations"),
    );
    if steps == spec.steps {
        // The frozen figures are for the nominal step count only.
        report.check(
            "epsilon does not exceed the seed commit's for these (q, sigma, steps)",
            outcome.summary.epsilon_spent <= spec.epsilon_ceiling * (1.0 + 1e-3),
            format!(
                "epsilon {} ceiling {}",
                outcome.summary.epsilon_spent, spec.epsilon_ceiling
            ),
        );
        report.check(
            "the returned model has learned: test HR@10 is over its floor",
            hr10 >= spec.hr10_floor,
            format!("hr10 {hr10} floor {}", spec.hr10_floor),
        );
    }

    if let (Some((buckets, last_updates)), Some((untraced_digest, untraced_rate))) =
        (timed, reference)
    {
        report.check(
            "parameters, ledger and epsilon are bit-identical to the untraced call",
            untraced_digest == digest,
            format!("untraced {untraced_digest} traced {digest}"),
        );
        report.set("obs.overhead_frac", 1.0 - fastest_rate / untraced_rate);
        report.set("data.generate_s", median(&generate_s));
        report.set("privacy.steps", outcome.ledger.total_steps() as f64);
        replay(
            &mut report,
            &log,
            &prep,
            &hp,
            &outcome,
            &last_updates,
            &observer,
            Attribution {
                wall_s,
                steps: done,
                evals: evals as u64,
                buckets,
            },
        );
        kernels::measure(&outcome.params.embedding, &mut report);
        log.write_chrome_trace(
            &artifact_dir().join(format!("{workload}.trace.json")),
            workload,
        )
        .expect("write trace");
    }
    report.set("peak_rss_mb", host::peak_rss_mb());
    report
}

/// What the replay needs to turn per-call prices into shares of the run.
struct Attribution {
    wall_s: f64,
    steps: u64,
    evals: u64,
    buckets: u64,
}

/// Prices every layer the [`TimedExecutor`] cannot see by calling its
/// public function on this run's shapes, then states where the wall went
/// and how much of it nothing accounts for.
#[allow(clippy::too_many_arguments)]
fn replay(
    report: &mut Report,
    log: &SpanLog,
    prep: &PreparedData,
    hp: &Hyperparameters,
    outcome: &PlpOutcome,
    last_updates: &[BucketUpdate],
    observer: &Observer,
    run: Attribution,
) {
    let threads = hp.effective_threads();
    let users = prep.train.num_users();
    let steps = run.steps.max(1) as f64;

    let mut rng = StdRng::seed_from_u64(0x5EED);
    let sample_group_s = secs_per_call(REPLAY_BUDGET / 2, || {
        let sampled = sample_users(&mut rng, users, hp.sampling_prob).expect("valid q");
        let buckets = group_data(
            &mut rng,
            &sampled,
            &prep.train,
            hp.grouping_factor,
            GroupingStrategy::Random,
        )
        .expect("valid grouping");
        std::hint::black_box(buckets);
    });

    let mechanism = GaussianMechanism::new(hp.noise_multiplier, hp.clip_norm).expect("mechanism");
    let scale = 1.0 / fixed_denominator(hp.sampling_prob, users, hp.grouping_factor);
    let (vocab, dim) = (outcome.params.vocab_size(), outcome.params.dim());
    let mut aggregate = ModelParams::zeros(vocab, dim);
    let mut noise_seed = 0u64;
    let noise_s = secs_per_call(REPLAY_BUDGET, || {
        aggregate = ModelParams::zeros(vocab, dim);
        for u in last_updates {
            u.grad.accumulate_into(&mut aggregate).expect("same shape");
        }
        noise_seed += 1;
        perturb_and_scale_threaded(&mut aggregate, &mechanism, noise_seed, scale, threads);
    });

    let mut params = outcome.params.clone();
    let mut adam = ServerAdam::new(&params, 0.01).expect("adam");
    let server_s = secs_per_call(REPLAY_BUDGET, || {
        adam.step_threaded(&mut params, &aggregate, threads)
            .expect("server step");
    });

    let eval_s = secs_per_call(REPLAY_BUDGET, || {
        let rec = Recommender::new(&outcome.params);
        let hr = evaluate_hit_rate_threaded(&rec, &prep.validation, &[10], threads)
            .expect("evaluate validation users");
        std::hint::black_box(hr);
    });

    let mut accountant = MomentsAccountant::new(paper::DELTA).expect("accountant");
    let accountant_s = secs_per_call(REPLAY_BUDGET / 4, || {
        accountant
            .step(hp.sampling_prob, hp.noise_multiplier)
            .expect("accountant step");
        std::hint::black_box(accountant.epsilon().expect("epsilon"));
    });

    let local_s = log.self_time("local_sgd");
    let pairs = observer.counter("plp_train_pairs_total").get();
    report.set("data.sample_group_us_per_step", sample_group_s * 1e6);
    report.set("model.local_sgd.ms_per_step", local_s / steps * 1e3);
    report.set("model.local_sgd.pairs_per_s", pairs as f64 / local_s);
    report.set(
        "model.local_sgd.us_per_bucket",
        local_s / run.buckets.max(1) as f64 * 1e6,
    );
    report.set("model.local_sgd.share", local_s / run.wall_s);
    report.set("model.server_update.ms_per_step", server_s * 1e3);
    report.set("model.eval.ms_per_eval", eval_s * 1e3);
    report.set("privacy.accountant_us_per_step", accountant_s * 1e6);
    report.set("core.noise.ms_per_step", noise_s * 1e3);
    let dense_s = steps * (noise_s + server_s) + run.evals as f64 * eval_s;
    report.set("core.dense_share", dense_s / run.wall_s);
    let attributed = local_s + dense_s + steps * (sample_group_s + accountant_s);
    report.set(
        "core.train.unattributed_frac",
        (run.wall_s - attributed) / run.wall_s,
    );
    report.note("local_sgd_pairs", pairs);
    report.note("buckets", run.buckets);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_block_is_the_quickest_run_of_eval_every_steps() {
        let step = |wall_ms| StepTelemetry {
            step: 0,
            sampled_users: 0,
            buckets: 0,
            skipped_buckets: 0,
            mean_local_loss: 0.0,
            clip_fraction: 0.0,
            epsilon_spent: 0.0,
            wall_ms,
            validation_hr10: None,
        };
        // Blocks of two steps taking 0.5 s and 0.25 s; the odd step at the
        // end belongs to no block.
        let telemetry = [
            step(300.0),
            step(200.0),
            step(100.0),
            step(150.0),
            step(1.0),
        ];
        assert_eq!(fastest_block_rate(&telemetry, 2), 8.0);
    }
}
