//! Crash-safety smoke drill: kill-and-resume determinism, fault-injected
//! training and torn-checkpoint detection, all at bench scale.
//!
//! Usage: `cargo run --release -p plp-bench --bin chaos`
//!
//! Exits non-zero if any drill fails, so it can gate CI.

use std::path::PathBuf;
use std::process::ExitCode;

use plp_bench::runner::Scale;
use plp_core::checkpoint::load_checkpoint;
use plp_core::experiment::PreparedData;
use plp_core::faults::{FaultInjector, FaultPlan};
use plp_core::plp::{train_plp_resumable, CheckpointPolicy, PlpOutcome, TrainOptions};
use plp_core::telemetry::StopReason;
use plp_core::CoreError;
use plp_obs::Observer;
use plp_privacy::PrivacyBudget;

/// A checkpoint path no earlier process left a file at: a run given it
/// starts from that file, so a stale one would be resumed.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plp_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

fn checkpointed(path: &std::path::Path, every: u64) -> TrainOptions {
    TrainOptions {
        checkpoint: Some(CheckpointPolicy {
            path: path.to_path_buf(),
            every,
        }),
        ..TrainOptions::default()
    }
}

fn bit_identical(a: &PlpOutcome, b: &PlpOutcome) -> bool {
    a.params == b.params
        && a.ledger == b.ledger
        && a.summary.epsilon_spent.to_bits() == b.summary.epsilon_spent.to_bits()
}

/// Injected bucket panics are part of the drill; keep the default hook
/// for everything else so real bugs still print a backtrace.
fn silence_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected bucket-worker fault"));
        if !injected {
            previous(info);
        }
    }));
}

fn check(name: &str, ok: bool, detail: &str) -> bool {
    println!("{} {name}: {detail}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn main() -> ExitCode {
    silence_injected_panics();
    let scale = Scale::Bench;
    let prep = PreparedData::generate(&scale.experiment_config(42)).expect("prepare data");
    let mut hp = scale.hyperparameters();
    hp.grouping_factor = 4;
    hp.max_steps = 6;
    hp.noise_multiplier = 2.5;
    hp.budget = PrivacyBudget::new(8.0, 2e-4).expect("budget");
    let seed = 7u64;
    let mut all_ok = true;

    // Drill 1: kill after step 3, run again with the same policy — which
    // resumes from the step-2 checkpoint — and demand bit-identical
    // parameters, ledger and ε.
    println!("== drill 1: kill -9 and resume ==");
    let reference = train_plp_resumable(seed, &prep.train, None, &hp, &TrainOptions::default())
        .expect("reference run");
    let path = scratch("kill.plpc");
    let policy = checkpointed(&path, 2);
    let crash = TrainOptions {
        halt_after: Some(3),
        ..policy.clone()
    };
    let interrupted =
        train_plp_resumable(seed, &prep.train, None, &hp, &crash).expect("interrupted run");
    all_ok &= check(
        "interrupt",
        interrupted.summary.stop_reason == StopReason::Interrupted
            && interrupted.summary.steps == 3,
        &format!(
            "halted at step {} ({:?})",
            interrupted.summary.steps, interrupted.summary.stop_reason
        ),
    );
    let (ckpt, _) = load_checkpoint(&path).expect("load checkpoint");
    all_ok &= check(
        "checkpoint",
        ckpt.step == 2,
        &format!("newest surviving save is step {}", ckpt.step),
    );
    let resumed = train_plp_resumable(seed, &prep.train, None, &hp, &policy).expect("resumed run");
    all_ok &= check(
        "bit-identity",
        bit_identical(&resumed, &reference),
        &format!(
            "resumed ε={:.6} vs reference ε={:.6} over {} steps",
            resumed.summary.epsilon_spent, reference.summary.epsilon_spent, resumed.summary.steps
        ),
    );

    // Drill 2: poisoned buckets and panicking workers must be dropped
    // without breaking the run or the privacy accounting. A higher
    // sampling rate forms enough buckets per step that the run survives
    // the faults instead of diverging.
    println!("== drill 2: poisoned buckets and panicking workers ==");
    let mut degraded_hp = hp.clone();
    degraded_hp.sampling_prob = 0.3;
    let faulty = TrainOptions {
        faults: FaultInjector::with_plan(FaultPlan {
            nan_delta_rate: 0.25,
            panic_rate: 0.15,
            ..FaultPlan::quiet(99)
        }),
        ..TrainOptions::default()
    };
    let degraded =
        train_plp_resumable(seed, &prep.train, None, &degraded_hp, &faulty).expect("degraded run");
    let skipped: usize = degraded.telemetry.iter().map(|t| t.skipped_buckets).sum();
    all_ok &= check(
        "degraded-mode",
        skipped > 0
            && degraded.params.all_finite()
            && degraded.summary.stop_reason == StopReason::MaxSteps,
        &format!(
            "{skipped} buckets dropped across {} steps, finished with {:?}",
            degraded.summary.steps, degraded.summary.stop_reason
        ),
    );
    all_ok &= check(
        "dp-accounting",
        degraded.summary.epsilon_spent < degraded_hp.budget.epsilon
            && degraded.ledger.total_steps() == degraded.summary.steps,
        &format!(
            "ε={:.4} ≤ budget {:.4}, every step in the ledger",
            degraded.summary.epsilon_spent, degraded_hp.budget.epsilon
        ),
    );

    // Drill 3: a torn checkpoint write must be caught by the integrity
    // checks, and the next run with the same policy must discard the torn
    // file and start over — on the reference bits, since every variate
    // derives from `(run_seed, step)`.
    println!("== drill 3: torn checkpoint write ==");
    let torn_path = scratch("torn.plpc");
    let torn = TrainOptions {
        faults: FaultInjector::with_plan(FaultPlan {
            truncate_write_rate: 1.0,
            ..FaultPlan::quiet(4)
        }),
        ..checkpointed(&torn_path, 1)
    };
    train_plp_resumable(seed, &prep.train, None, &hp, &torn).expect("torn run");
    let detected = matches!(
        load_checkpoint(&torn_path),
        Err(CoreError::CheckpointCorrupt { .. })
    );
    all_ok &= check(
        "torn-write",
        detected,
        "CRC/structure checks rejected the torn file",
    );
    let restart = TrainOptions {
        observer: Observer::with_memory_sink("chaos"),
        ..checkpointed(&torn_path, 0)
    };
    let recovered = train_plp_resumable(seed, &prep.train, None, &hp, &restart);
    let discarded = restart.observer.captured_events().first().cloned();
    all_ok &= check(
        "auto-restart",
        recovered
            .as_ref()
            .is_ok_and(|r| r.telemetry.len() == hp.max_steps && bit_identical(r, &reference))
            && discarded
                .as_deref()
                .is_some_and(|e| e.contains("checkpoint_discarded")),
        &format!("trainer restarted from scratch on the reference bits after {discarded:?}"),
    );

    if all_ok {
        println!("chaos: all drills passed");
        ExitCode::SUCCESS
    } else {
        println!("chaos: FAILURES above");
        ExitCode::FAILURE
    }
}
