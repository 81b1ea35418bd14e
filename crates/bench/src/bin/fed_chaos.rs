//! Federated chaos drill: multi-process training under injected worker
//! faults, held to the bit-identity bar.
//!
//! Usage:
//!   `cargo run --release -p plp-bench --bin fed_chaos`           # full drills
//!   `cargo run --release -p plp-bench --bin fed_chaos -- --smoke` # CI gate
//!
//! The binary is its own worker fleet: the coordinator re-executes this
//! executable with `PLP_FED_WORKER=1`, so `main` hands off to the worker
//! loop before any drill code runs. Exits non-zero if any drill fails.

use std::process::ExitCode;

use plp_bench::runner::Scale;
use plp_core::checkpoint::load_checkpoint;
use plp_core::experiment::PreparedData;
use plp_core::faults::{FaultInjector, FaultPlan};
use plp_core::plp::{
    resume_plp_with_executor, train_plp_resumable, train_plp_with_executor, CheckpointPolicy,
    PlpOutcome, TrainOptions,
};
use plp_core::CoreError;
use plp_fed::phase::{FED_SEND, FED_WORKER_ROUND};
use plp_fed::{FedConfig, FedExecutor, RetryPolicy};
use plp_obs::trace::{load_dumps, stitch_chrome_trace, TraceConfig};
use plp_obs::Observer;
use plp_privacy::PrivacyBudget;

fn check(name: &str, ok: bool, detail: &str) -> bool {
    println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn fed_exec(workers: usize, retry: RetryPolicy) -> FedExecutor {
    let mut cfg = FedConfig::with_current_exe(workers).expect("resolve current exe");
    cfg.retry = retry;
    FedExecutor::new(cfg).expect("construct executor")
}

fn bit_identical(a: &PlpOutcome, b: &PlpOutcome) -> bool {
    a.params == b.params
        && a.ledger == b.ledger
        && a.summary.epsilon_spent.to_bits() == b.summary.epsilon_spent.to_bits()
        && a.summary.steps == b.summary.steps
}

fn main() -> ExitCode {
    // If the coordinator spawned us, this never returns.
    plp_fed::maybe_run_worker();

    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = Scale::Bench;
    let prep = PreparedData::generate(&scale.experiment_config(42)).expect("prepare data");
    let mut hp = scale.hyperparameters();
    hp.grouping_factor = 4;
    hp.sampling_prob = 0.3;
    hp.max_steps = if smoke { 3 } else { 6 };
    hp.noise_multiplier = 2.5;
    hp.budget = PrivacyBudget::new(8.0, 2e-4).expect("budget");
    let seed = 11u64;
    let mut all_ok = true;

    let reference = train_plp_resumable(seed, &prep.train, None, &hp, &TrainOptions::default())
        .expect("single-process reference run");

    // Drill 1: fault-free multi-process run must be bit-identical to the
    // single-process reference — the executor seam changes nothing.
    println!("== drill 1: fault-free fan-out ==");
    let workers = if smoke { 2 } else { 3 };
    let mut exec = fed_exec(workers, RetryPolicy::default());
    let fed = train_plp_with_executor(
        seed,
        &prep.train,
        None,
        &hp,
        &TrainOptions::default(),
        &mut exec,
    )
    .expect("fed run");
    all_ok &= check(
        "fan-out-identity",
        bit_identical(&fed, &reference),
        &format!(
            "{workers} workers, ε={:.6} vs reference ε={:.6}",
            fed.summary.epsilon_spent, reference.summary.epsilon_spent
        ),
    );

    // Drill 2: stalls past the deadline, mid-round exits, garbled and
    // duplicated reply frames — with retry budget to spare, recovery must
    // reproduce the fault-free bits exactly.
    println!("== drill 2: stalls, kills, garbled and duplicated frames ==");
    let plan = FaultPlan {
        worker_stall_rate: 0.2,
        worker_stall_ms: 3_000,
        worker_exit_rate: 0.2,
        corrupt_frame_rate: if smoke { 0.0 } else { 0.2 },
        duplicate_reply_rate: if smoke { 0.0 } else { 0.3 },
        ..FaultPlan::quiet(99)
    };
    let retry = RetryPolicy {
        deadline_ms: 400,
        max_retries: 8,
        backoff_ms: 10,
    };
    let chaos_opts = TrainOptions {
        faults: FaultInjector::with_plan(plan),
        ..TrainOptions::default()
    };
    let mut exec = fed_exec(2, retry);
    let chaotic = train_plp_with_executor(seed, &prep.train, None, &hp, &chaos_opts, &mut exec)
        .expect("chaotic fed run");
    let stats = exec.total_stats;
    all_ok &= check(
        "faults-fired",
        stats.stragglers + stats.respawns + stats.corrupt_frames + stats.duplicates > 0,
        &format!(
            "stragglers={} respawns={} corrupt={} duplicates={}",
            stats.stragglers, stats.respawns, stats.corrupt_frames, stats.duplicates
        ),
    );
    all_ok &= check(
        "recovery-identity",
        stats.dropped_buckets == 0 && bit_identical(&chaotic, &reference),
        &format!(
            "recovered run ε={:.6}, {} buckets dropped",
            chaotic.summary.epsilon_spent, stats.dropped_buckets
        ),
    );

    // Drill 3: coordinator crash. Halt the fed run mid-flight (fleet and
    // all), restore the ordinary v2 checkpoint on a new coordinator with
    // new workers, and demand the uninterrupted reference bits.
    println!("== drill 3: coordinator crash and resume ==");
    let dir = std::env::temp_dir().join(format!("plp_fed_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt_path = dir.join("coord.plpc");
    let halted_opts = TrainOptions {
        checkpoint: Some(CheckpointPolicy {
            path: ckpt_path.clone(),
            every: 1,
        }),
        halt_after: Some(hp.max_steps as u64 / 2),
        ..TrainOptions::default()
    };
    {
        let mut exec = fed_exec(2, RetryPolicy::default());
        train_plp_with_executor(seed, &prep.train, None, &hp, &halted_opts, &mut exec)
            .expect("halted fed run");
    }
    let ckpt = load_checkpoint(&ckpt_path).expect("load coordinator checkpoint");
    let mut exec = fed_exec(2, RetryPolicy::default());
    let resumed = resume_plp_with_executor(
        ckpt,
        &prep.train,
        None,
        &hp,
        &TrainOptions::default(),
        &mut exec,
    )
    .expect("resumed fed run");
    all_ok &= check(
        "crash-resume-identity",
        bit_identical(&resumed, &reference),
        &format!(
            "resumed ε={:.6} over {} steps on a fresh fleet",
            resumed.summary.epsilon_spent, resumed.summary.steps
        ),
    );
    std::fs::remove_dir_all(&dir).ok();

    if !smoke {
        // Drill 4: retry budget of zero and workers that always die: every
        // bucket is dropped. The DP-equivalent local reference poisons
        // every delta, so both runs skip everything — and the DP-safe
        // skipped-bucket semantics must make them bit-identical.
        println!("== drill 4: retries exhausted, DP-safe drops ==");
        let fed_opts = TrainOptions {
            faults: FaultInjector::with_plan(FaultPlan {
                worker_exit_rate: 1.0,
                ..FaultPlan::quiet(5)
            }),
            ..TrainOptions::default()
        };
        let local_opts = TrainOptions {
            faults: FaultInjector::with_plan(FaultPlan {
                nan_delta_rate: 1.0,
                ..FaultPlan::quiet(5)
            }),
            ..TrainOptions::default()
        };
        let retry = RetryPolicy {
            deadline_ms: 2_000,
            max_retries: 0,
            backoff_ms: 1,
        };
        let mut exec = fed_exec(2, retry);
        let dropped = train_plp_with_executor(seed, &prep.train, None, &hp, &fed_opts, &mut exec)
            .expect("all-dropped fed run");
        let skip_all = train_plp_resumable(seed, &prep.train, None, &hp, &local_opts)
            .expect("all-skipped local run");
        let n_dropped = exec.total_stats.dropped_buckets;
        all_ok &= check(
            "dp-safe-drops",
            n_dropped > 0 && dropped.params.all_finite() && bit_identical(&dropped, &skip_all),
            &format!(
                "{n_dropped} buckets dropped; ε={:.6} matches the all-skipped run, σ and \
                 ledger untouched",
                dropped.summary.epsilon_spent
            ),
        );

        // Drill 5: a worker binary that is not a worker at all — the
        // coordinator must fail cleanly, not hang or corrupt state.
        println!("== drill 5: worker that speaks no protocol ==");
        let cfg = FedConfig {
            workers: 1,
            worker_program: std::path::PathBuf::from("/bin/true"),
            worker_args: Vec::new(),
            retry: RetryPolicy {
                deadline_ms: 500,
                max_retries: 1,
                backoff_ms: 1,
            },
        };
        let mut exec = FedExecutor::new(cfg).expect("construct executor");
        let outcome = train_plp_with_executor(
            seed,
            &prep.train,
            None,
            &hp,
            &TrainOptions::default(),
            &mut exec,
        );
        let survived = match &outcome {
            // Either every step degrades to all-skipped (workers always
            // dead) or the trainer surfaces a clean error; both are
            // acceptable — hanging or panicking is not.
            Ok(out) => out.params.all_finite(),
            Err(CoreError::Io { .. }) => true,
            Err(_) => false,
        };
        all_ok &= check(
            "hostile-worker",
            survived,
            &format!(
                "coordinator stayed sane: {}",
                match &outcome {
                    Ok(_) => format!(
                        "degraded run finished, {} buckets dropped",
                        exec.total_stats.dropped_buckets
                    ),
                    Err(e) => format!("clean error: {e}"),
                }
            ),
        );
    }

    // Drill 6 (runs in smoke too): tracing across the pipe. A traced
    // fed run must (a) stay bit-identical to the untraced reference,
    // and (b) leave flight-recorder dumps from the coordinator and every
    // worker that stitch into one Perfetto/Chrome trace with worker
    // round spans parented under coordinator send spans.
    println!("== drill 6: deterministic tracing across the pipe ==");
    let trace_out = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--trace-out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "target/BENCH_fed_trace.json".to_string())
    };
    // Raw dumps land in a stable dir (not a temp dir) so operators and CI
    // can re-stitch them with `dp-nextloc trace-stitch` after the run.
    let trace_dir = std::path::PathBuf::from("target/fed_trace_dumps");
    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::create_dir_all(&trace_dir).expect("trace dir");
    let traced_opts = TrainOptions {
        observer: Observer::new("fed-chaos"),
        ..TrainOptions::default()
    };
    let tracer = traced_opts
        .observer
        .attach_tracer(
            TraceConfig::named("coordinator").dump_to(trace_dir.join("trace_coordinator.jsonl")),
        )
        .expect("attach tracer");
    let traced = {
        let mut exec = fed_exec(2, RetryPolicy::default());
        train_plp_with_executor(seed, &prep.train, None, &hp, &traced_opts, &mut exec)
            .expect("traced fed run")
        // exec drops here: workers get the shutdown, dump, and exit.
    };
    all_ok &= check(
        "tracing-invisibility",
        bit_identical(&traced, &reference),
        &format!(
            "traced ε={:.6} vs untraced ε={:.6} — params/ledger/ε must not move",
            traced.summary.epsilon_spent, reference.summary.epsilon_spent
        ),
    );
    tracer
        .dump_to(
            tracer.dump_path().expect("configured above"),
            "drill_complete",
        )
        .expect("coordinator dump");

    let dumps = load_dumps(&[&trace_dir]).expect("load the dumps");
    let processes: std::collections::BTreeSet<(String, u64)> =
        dumps.iter().map(|d| (d.process.clone(), d.pid)).collect();
    all_ok &= check(
        "trace-processes",
        processes.len() >= 3,
        &format!(
            "flight recorders from {} processes (need coordinator + 2 workers)",
            processes.len()
        ),
    );
    let send_spans: std::collections::BTreeSet<u64> = dumps[0]
        .records
        .iter()
        .filter(|r| r.name == FED_SEND.name)
        .map(|r| r.span_id)
        .collect();
    let cross_parented = dumps[1..].iter().any(|d| {
        d.records
            .iter()
            .any(|r| r.name == FED_WORKER_ROUND.name && send_spans.contains(&r.parent_id))
    });
    all_ok &= check(
        "trace-cross-pipe-parenting",
        cross_parented,
        &format!(
            "{} coordinator send spans; worker rounds parented under them across the pipe",
            send_spans.len()
        ),
    );

    let stitched = stitch_chrome_trace(&dumps);
    if let Some(parent) = std::path::Path::new(&trace_out).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&trace_out, &stitched).expect("write stitched trace");
    all_ok &= check(
        "trace-stitched",
        stitched.contains("\"traceEvents\"") && stitched.contains("fed_pipe"),
        &format!("stitched Perfetto JSON with flow events written to {trace_out}"),
    );
    println!(
        "fed_chaos: raw flight-recorder dumps kept in {}",
        trace_dir.display()
    );

    if all_ok {
        println!("fed_chaos: all drills passed");
        ExitCode::SUCCESS
    } else {
        println!("fed_chaos: FAILURES above");
        ExitCode::FAILURE
    }
}
