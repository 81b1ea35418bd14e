//! End-to-end coordinator/worker tests against the real worker binary.
//!
//! Every test spawns actual `plp_fed_worker` processes (via the
//! `CARGO_BIN_EXE_` path Cargo exports to integration tests) and holds the
//! distributed run to the tentpole invariant: **bit-identical** parameters,
//! RDP ledger and ε versus the single-process trainer — through worker
//! faults, respawns, and coordinator crash/resume.

use std::path::PathBuf;

use plp_core::faults::{FaultInjector, FaultPlan};
use plp_core::plp::CheckpointPolicy;
use plp_core::telemetry::StopReason;
use plp_core::{
    train_plp_resumable, train_plp_with_executor, CoreError, Hyperparameters, TrainOptions,
};
use plp_data::checkin::UserId;
use plp_data::dataset::{TokenizedDataset, UserSequences};
use plp_fed::phase::{FED_BUCKET, FED_ROUND, FED_SEND, FED_WORKER_ROUND};
use plp_fed::{FedConfig, FedExecutor, RetryPolicy};
use plp_obs::trace::{load_dumps, stitch_chrome_trace, TraceConfig};
use plp_obs::Observer;
use plp_privacy::PrivacyBudget;

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_plp_fed_worker"))
}

fn fed_config(workers: usize, retry: RetryPolicy) -> FedConfig {
    FedConfig {
        workers,
        worker_program: worker_exe(),
        retry,
    }
}

/// Same corpus shape as the core trainer tests: two token communities,
/// enough users for Poisson sampling to form several buckets per step.
fn tiny_dataset(num_users: usize) -> TokenizedDataset {
    let users = (0..num_users)
        .map(|i| {
            let base = if i % 2 == 0 { 0 } else { 8 };
            UserSequences {
                user: UserId(i as u32),
                sessions: vec![(0..12).map(|t| base + (t + i) % 6).collect()],
            }
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
        max_steps: 4,
        budget: PrivacyBudget {
            epsilon: 50.0,
            delta: 1e-3,
        },
        ..Hyperparameters::default()
    }
}

/// An empty scratch directory: whatever an earlier process with the same
/// pid left there is removed first, so no test resumes a stale run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plp_fed_{}_{}", name, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fed_run_is_bit_identical_to_single_process() {
    let ds = tiny_dataset(30);
    let hp = fast_hp();
    let local = train_plp_resumable(41, &ds, None, &hp, &TrainOptions::default()).unwrap();

    for workers in [1, 3] {
        let mut exec = FedExecutor::new(fed_config(workers, RetryPolicy::default())).unwrap();
        let fed = train_plp_with_executor(41, &ds, None, &hp, &TrainOptions::default(), &mut exec)
            .unwrap();
        assert_eq!(
            fed.params, local.params,
            "{workers}-worker parameters diverged from single-process"
        );
        assert_eq!(fed.ledger, local.ledger, "{workers}-worker ledger diverged");
        assert_eq!(
            fed.summary.epsilon_spent.to_bits(),
            local.summary.epsilon_spent.to_bits(),
            "{workers}-worker ε diverged"
        );
        assert_eq!(fed.summary.steps, local.summary.steps);
        assert_eq!(fed.summary.stop_reason, local.summary.stop_reason);
    }
}

#[test]
fn fed_recovers_from_injected_worker_faults_bit_identically() {
    let ds = tiny_dataset(30);
    let hp = fast_hp();
    let reference = train_plp_resumable(42, &ds, None, &hp, &TrainOptions::default()).unwrap();

    // Every worker-level fault class at once, at rates high enough that
    // several fire over 4 steps × 2 workers. Stalls exceed the deadline so
    // they surface as stragglers; a generous retry budget means recovery
    // must always succeed, so the result must match the fault-free
    // single-process run bit for bit.
    let plan = FaultPlan {
        seed: 7,
        worker_stall_rate: 0.2,
        worker_stall_ms: 3_000,
        worker_exit_rate: 0.2,
        corrupt_frame_rate: 0.2,
        duplicate_reply_rate: 0.3,
        ..FaultPlan::quiet(0)
    };
    let retry = RetryPolicy {
        deadline_ms: 400,
        max_retries: 8,
        backoff_ms: 10,
    };
    let opts = TrainOptions {
        faults: FaultInjector::try_with_plan(plan).unwrap(),
        ..TrainOptions::default()
    };
    let mut exec = FedExecutor::new(fed_config(2, retry)).unwrap();
    let fed = train_plp_with_executor(42, &ds, None, &hp, &opts, &mut exec).unwrap();

    let stats = exec.total_stats;
    assert!(
        stats.stragglers + stats.respawns + stats.corrupt_frames + stats.duplicates > 0,
        "the test proved nothing: no injected fault fired ({stats:?})"
    );
    assert_eq!(stats.dropped_buckets, 0, "recovery should never drop here");
    assert_eq!(fed.params, reference.params, "recovery changed the bits");
    assert_eq!(fed.ledger, reference.ledger);
    assert_eq!(
        fed.summary.epsilon_spent.to_bits(),
        reference.summary.epsilon_spent.to_bits()
    );
    assert_eq!(fed.summary.steps, reference.summary.steps);
}

#[test]
fn exhausted_retries_drop_buckets_with_dp_safe_semantics() {
    let ds = tiny_dataset(30);
    let hp = fast_hp();

    // Fed run where every worker exits every round and there is no retry
    // budget: all buckets are dropped. The DP-equivalent local reference
    // is a run where every delta is poisoned non-finite — both reduce to
    // "every bucket skipped", and the skipped-bucket semantics (fixed
    // q·W/λ denominator, unchanged σ and RDP charge) make the two runs
    // bit-identical in parameters, ledger and ε.
    let drop_all = FaultPlan {
        seed: 9,
        worker_exit_rate: 1.0,
        ..FaultPlan::quiet(0)
    };
    let skip_all = FaultPlan {
        seed: 9,
        nan_delta_rate: 1.0,
        ..FaultPlan::quiet(0)
    };
    let retry = RetryPolicy {
        deadline_ms: 2_000,
        max_retries: 0,
        backoff_ms: 1,
    };
    let fed_opts = TrainOptions {
        faults: FaultInjector::try_with_plan(drop_all).unwrap(),
        ..TrainOptions::default()
    };
    let local_opts = TrainOptions {
        faults: FaultInjector::try_with_plan(skip_all).unwrap(),
        ..TrainOptions::default()
    };
    let mut exec = FedExecutor::new(fed_config(2, retry)).unwrap();
    let fed = train_plp_with_executor(43, &ds, None, &hp, &fed_opts, &mut exec).unwrap();
    let local = train_plp_resumable(43, &ds, None, &hp, &local_opts).unwrap();

    assert!(exec.total_stats.dropped_buckets > 0, "nothing was dropped");
    assert_eq!(fed.params, local.params);
    assert_eq!(fed.ledger, local.ledger);
    assert_eq!(
        fed.summary.epsilon_spent.to_bits(),
        local.summary.epsilon_spent.to_bits()
    );
    assert!(fed.params.all_finite());
    let fed_skips: Vec<usize> = fed.telemetry.iter().map(|t| t.skipped_buckets).collect();
    let local_skips: Vec<usize> = local.telemetry.iter().map(|t| t.skipped_buckets).collect();
    assert_eq!(fed_skips, local_skips, "drops must account as skips");
    assert!(fed_skips.iter().sum::<usize>() > 0);
}

#[test]
fn a_worker_that_speaks_no_protocol_fails_cleanly() {
    // A worker program that exits at once without reading a frame: the
    // coordinator must neither hang nor panic nor hand back a broken model.
    // Which of the two clean ends it reaches depends on whether the setup
    // write meets the closed pipe, so both are accepted.
    let cfg = FedConfig {
        workers: 1,
        worker_program: PathBuf::from("/bin/true"),
        retry: RetryPolicy {
            deadline_ms: 500,
            max_retries: 1,
            backoff_ms: 1,
        },
    };
    let mut exec = FedExecutor::new(cfg).unwrap();
    let ds = tiny_dataset(30);
    let opts = TrainOptions::default();
    match train_plp_with_executor(46, &ds, None, &fast_hp(), &opts, &mut exec) {
        // Every bucket of the first step is dropped, that step is still
        // accounted, and the run stops on it.
        Ok(out) => {
            assert!(out.params.all_finite());
            assert_eq!(out.summary.stop_reason, StopReason::Diverged);
            assert_eq!(out.ledger.total_steps(), out.summary.steps);
            let buckets: usize = out.telemetry.iter().map(|t| t.buckets).sum();
            assert_eq!(exec.total_stats.dropped_buckets, buckets as u64);
        }
        Err(e) => assert!(matches!(e, CoreError::Io { .. }), "{e:?}"),
    }
}

/// The acceptance test for cross-process tracing: a traced 2-worker
/// federated run must stay bit-identical to the untraced single-process
/// reference, and the coordinator + worker flight-recorder dumps must
/// stitch into one Chrome/Perfetto trace in which worker round spans are
/// parented under coordinator send spans across the pipe.
#[test]
fn traced_fed_round_stitches_into_one_perfetto_trace_without_moving_bits() {
    let ds = tiny_dataset(30);
    let hp = fast_hp();
    let reference = train_plp_resumable(45, &ds, None, &hp, &TrainOptions::default()).unwrap();

    let dir = scratch_dir("trace");
    let opts = TrainOptions {
        observer: Observer::new("fed-trace-test"),
        ..TrainOptions::default()
    };
    let tracer = opts
        .observer
        .attach_tracer(
            TraceConfig::named("coordinator").dump_to(dir.join("trace_coordinator.jsonl")),
        )
        .unwrap();
    let traced = {
        let mut exec = FedExecutor::new(fed_config(2, RetryPolicy::default())).unwrap();
        train_plp_with_executor(45, &ds, None, &hp, &opts, &mut exec).unwrap()
        // The executor drops here; its shutdown grace period lets both
        // workers flush their clean-exit flight-recorder dumps.
    };

    // Tracing must be invisible to the training bits.
    assert_eq!(traced.params, reference.params, "tracing moved the params");
    assert_eq!(traced.ledger, reference.ledger, "tracing moved the ledger");
    assert_eq!(
        traced.summary.epsilon_spent.to_bits(),
        reference.summary.epsilon_spent.to_bits(),
        "tracing moved ε"
    );
    assert_eq!(traced.summary.steps, reference.summary.steps);

    // Coordinator dump first: it is the stitch anchor.
    tracer
        .dump_to(tracer.dump_path().unwrap(), "test_complete")
        .unwrap();
    let dumps = load_dumps(&[&dir]).unwrap();
    assert!(
        dumps.len() >= 3,
        "need coordinator + 2 worker dumps, found {}",
        dumps.len()
    );
    let pids: std::collections::BTreeSet<u64> = dumps.iter().map(|d| d.pid).collect();
    assert_eq!(
        pids.len(),
        dumps.len(),
        "each dump must come from its own process"
    );

    // One full round covered: the coordinator recorded a fed_round span and
    // a fed_send per worker dispatch; every worker parented its round span
    // under the matching fed_send span id — across the process boundary.
    let coord = &dumps[0];
    assert_eq!(coord.process, "coordinator");
    assert!(coord.records.iter().any(|r| r.name == FED_ROUND.name));
    let round_series = format!(
        "{}_count{{phase=\"{}\"}} {}",
        plp_fed::phase::TABLE.family,
        FED_ROUND.name,
        traced.summary.steps
    );
    let metrics = opts.observer.render_prometheus();
    assert!(metrics.contains(&round_series), "{metrics}");
    let send_spans: std::collections::BTreeSet<u64> = coord
        .records
        .iter()
        .filter(|r| r.name == FED_SEND.name)
        .map(|r| r.span_id)
        .collect();
    assert!(
        !send_spans.is_empty(),
        "coordinator recorded no fed_send spans"
    );
    for worker in &dumps[1..] {
        let rounds: Vec<_> = worker
            .records
            .iter()
            .filter(|r| r.name == FED_WORKER_ROUND.name)
            .collect();
        assert!(
            !rounds.is_empty(),
            "worker {} recorded no round spans",
            worker.pid
        );
        assert!(
            rounds.iter().all(|r| send_spans.contains(&r.parent_id)),
            "worker {} round spans not parented under coordinator sends",
            worker.pid
        );
        assert!(
            worker.records.iter().any(|r| r.name == FED_BUCKET.name),
            "worker {} recorded no bucket spans",
            worker.pid
        );
    }

    // The stitched export is one Chrome/Perfetto JSON with flow events
    // joining the coordinator sends to the worker rounds.
    let stitched = stitch_chrome_trace(&dumps);
    assert!(stitched.contains("\"traceEvents\""));
    assert!(
        stitched.contains("fed_pipe"),
        "missing cross-pipe flow events"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coordinator_crash_resumes_bit_identically_with_fresh_workers() {
    let ds = tiny_dataset(30);
    let hp = fast_hp();
    let reference = train_plp_resumable(44, &ds, None, &hp, &TrainOptions::default()).unwrap();

    let dir = scratch_dir("resume");
    let policy = TrainOptions {
        checkpoint: Some(CheckpointPolicy {
            path: dir.join("fed.plpc"),
            every: 1,
        }),
        ..TrainOptions::default()
    };
    let halted_opts = TrainOptions {
        halt_after: Some(2),
        ..policy.clone()
    };
    // "Coordinator crash": the halted run's executor (and its worker
    // fleet) is dropped with the run mid-flight.
    {
        let mut exec = FedExecutor::new(fed_config(2, RetryPolicy::default())).unwrap();
        let halted = train_plp_with_executor(44, &ds, None, &hp, &halted_opts, &mut exec).unwrap();
        assert_eq!(halted.summary.steps, 2);
    }

    // A brand-new coordinator, called with the same policy, starts from the
    // ordinary checkpoint and finishes the run on a brand-new worker fleet.
    let mut exec = FedExecutor::new(fed_config(2, RetryPolicy::default())).unwrap();
    let resumed = train_plp_with_executor(44, &ds, None, &hp, &policy, &mut exec).unwrap();
    assert_eq!(resumed.telemetry.len(), 2, "steps 3 and 4 only");

    assert_eq!(resumed.params, reference.params, "resume changed the bits");
    assert_eq!(resumed.ledger, reference.ledger);
    assert_eq!(
        resumed.summary.epsilon_spent.to_bits(),
        reference.summary.epsilon_spent.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}
