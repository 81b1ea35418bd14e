//! The worker side of the federated round protocol.
//!
//! A worker is a child process wired to the coordinator by its stdin
//! (requests) and stdout (replies). It holds no state beyond the session
//! setup: every round ships the full θ_t, so workers are *stateless
//! between rounds* — killing one loses nothing but in-flight work, which
//! the coordinator re-requests elsewhere. Combined with bucket results
//! being pure functions of `(θ, bucket, step_seed, index)`, this is what
//! makes retry and respawn invisible in the trained bits.
//!
//! The worker also *hosts* the injected worker-level faults of
//! [`plp_core::faults::FaultPlan`]: stalls (sleep before replying), exits
//! (die mid-round without replying), reply-frame corruption (flip a byte
//! after the CRC was computed) and duplicate replies. All decisions are
//! drawn from the plan shipped in the session setup, keyed exactly as the
//! coordinator expects, so drills replay identically at any worker count.

use std::io::{Read, Write};
use std::path::PathBuf;

use plp_core::faults::FaultInjector;
use plp_core::plp::BucketRunner;
use plp_obs::trace::{TraceConfig, TraceContext};
use plp_obs::{Observer, PhaseSet};

use crate::frame::{encode_frame, read_frame_event, FrameEvent};
use crate::phase;
use crate::protocol::{
    RoundReply, RoundRequest, Setup, WireUpdate, MSG_REPLY, MSG_ROUND, MSG_SETUP, MSG_SHUTDOWN,
    PROTOCOL_VERSION,
};

/// Environment variable that re-routes a binary into [`worker_main`].
/// Coordinators set it when spawning, so any binary that calls
/// [`maybe_run_worker`] first thing in `main` can serve as its own worker
/// executable.
pub const WORKER_ENV: &str = "PLP_FED_WORKER";

/// Environment variable naming the directory worker flight recorders
/// dump into. The coordinator sets it when spawning iff its own tracer
/// has a dump directory; each worker writes
/// `trace_worker_<pid>.jsonl` there at session end and on fault exits.
pub const TRACE_DIR_ENV: &str = "PLP_FED_TRACE_DIR";

/// Worker exit codes (coordinator-side diagnostics; any non-zero exit is
/// handled the same way — respawn or drop).
pub mod exit_code {
    /// Clean shutdown (coordinator request or closed stdin).
    pub const CLEAN: i32 = 0;
    /// A coordinator→worker frame failed its CRC or framing.
    pub const BAD_FRAME: i32 = 10;
    /// A message violated the protocol (unknown kind, round before setup).
    pub const PROTOCOL: i32 = 11;
    /// A payload failed to decode.
    pub const DECODE: i32 = 12;
    /// A systemic training error (bad config, shape mismatch).
    pub const TRAIN: i32 = 13;
    /// The coordinator speaks a different protocol version.
    pub const VERSION: i32 = 14;
    /// An injected mid-round exit fault fired.
    pub const INJECTED_EXIT: i32 = 17;
}

/// If [`WORKER_ENV`] is set to `1`, runs the worker loop on
/// stdin/stdout and exits the process; otherwise returns immediately.
/// Call this at the top of `main` in any binary used as a worker command.
pub fn maybe_run_worker() {
    if std::env::var(WORKER_ENV).as_deref() == Ok("1") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let code = worker_main(&mut stdin.lock(), &mut stdout.lock());
        std::process::exit(code);
    }
}

/// The observer a spawned worker runs under: traced iff the coordinator
/// exported [`TRACE_DIR_ENV`], inert otherwise — so tracing is decided
/// by exactly one knob on the coordinator side.
fn observer_from_env() -> Observer {
    match std::env::var(TRACE_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => {
            let obs = Observer::new("fed_worker");
            let pid = std::process::id();
            obs.attach_tracer(TraceConfig {
                process: format!("worker-{pid}"),
                capacity: 4096,
                dump_path: Some(PathBuf::from(dir).join(format!("trace_worker_{pid}.jsonl"))),
            });
            obs
        }
        _ => Observer::disabled(),
    }
}

struct WorkerState {
    setup: Setup,
    faults: FaultInjector,
    runner: BucketRunner,
}

/// Runs the worker loop over explicit streams until the coordinator hangs
/// up, returning the process exit code. Testable without a real process
/// boundary by handing it in-memory buffers. Tracing is enabled iff the
/// coordinator exported [`TRACE_DIR_ENV`].
pub fn worker_main(input: &mut impl Read, output: &mut impl Write) -> i32 {
    worker_main_with_observer(input, output, &observer_from_env())
}

/// [`worker_main`] under an explicit observer (tests and embedders hand
/// in a traced or memory-sink observer directly). The flight recorder,
/// if attached, is dumped before returning so a session's trace survives
/// the process.
pub fn worker_main_with_observer(
    input: &mut impl Read,
    output: &mut impl Write,
    obs: &Observer,
) -> i32 {
    silence_injected_panics();
    let code = worker_loop(input, output, obs);
    if let Some(tracer) = obs.tracer() {
        tracer.dump_on_fault(if code == exit_code::CLEAN {
            "worker_session_end"
        } else {
            "worker_error_exit"
        });
    }
    code
}

fn worker_loop(input: &mut impl Read, output: &mut impl Write, obs: &Observer) -> i32 {
    let phases = PhaseSet::resolve(obs, &phase::TABLE);
    let mut state: Option<WorkerState> = None;
    loop {
        match read_frame_event(input) {
            FrameEvent::Closed => return exit_code::CLEAN,
            FrameEvent::Corrupt { what } => {
                eprintln!("plp-fed worker: corrupt request frame: {what}");
                return exit_code::BAD_FRAME;
            }
            FrameEvent::Frame { kind, ctx, payload } => match kind {
                MSG_SHUTDOWN => return exit_code::CLEAN,
                MSG_SETUP => match Setup::decode(&payload) {
                    Ok(setup) => {
                        if setup.protocol_version != PROTOCOL_VERSION {
                            eprintln!(
                                "plp-fed worker: protocol version {} != {}",
                                setup.protocol_version, PROTOCOL_VERSION
                            );
                            return exit_code::VERSION;
                        }
                        let faults = match setup.plan {
                            Some(plan) => match FaultInjector::try_with_plan(plan) {
                                Ok(f) => f,
                                Err(e) => {
                                    eprintln!("plp-fed worker: bad fault plan: {e}");
                                    return exit_code::DECODE;
                                }
                            },
                            None => FaultInjector::default(),
                        };
                        state = Some(WorkerState {
                            setup,
                            faults,
                            runner: BucketRunner::new(obs),
                        });
                    }
                    Err(e) => {
                        eprintln!("plp-fed worker: {e}");
                        return exit_code::DECODE;
                    }
                },
                MSG_ROUND => {
                    let Some(st) = state.as_mut() else {
                        eprintln!("plp-fed worker: round before setup");
                        return exit_code::PROTOCOL;
                    };
                    match handle_round(st, ctx, &payload, output, obs, &phases) {
                        Ok(()) => {}
                        Err(code) => return code,
                    }
                }
                other => {
                    eprintln!("plp-fed worker: unknown message kind {other}");
                    return exit_code::PROTOCOL;
                }
            },
        }
    }
}

fn handle_round(
    st: &mut WorkerState,
    ctx: Option<TraceContext>,
    payload: &[u8],
    output: &mut impl Write,
    obs: &Observer,
    phases: &PhaseSet,
) -> Result<(), i32> {
    let req = RoundRequest::decode(payload).map_err(|e| {
        eprintln!("plp-fed worker: {e}");
        exit_code::DECODE
    })?;
    let incarnation = st.setup.incarnation;

    // Injected mid-round death: disappear without a reply, like a real
    // OOM-kill. Keyed on (step, incarnation), so the respawned worker
    // draws a fresh decision and recovery converges. The flight recorder
    // is dumped first — a chaos-drill kill is exactly the moment the
    // trace is worth keeping.
    if st.faults.exit_worker(req.step, incarnation) {
        let at = [("step", req.step), ("incarnation", incarnation)];
        phases.instant("fed_injected_exit", ctx, at);
        if let Some(t) = obs.tracer() {
            t.dump_on_fault("injected_exit");
        }
        std::process::exit(exit_code::INJECTED_EXIT);
    }

    // The worker-side round span parents under the coordinator's send
    // span via the frame-header context (no context, no spans); its id is
    // a pure function of (trace_id, attempt), so the coordinator-side
    // stitcher can predict it without a return channel.
    let t_round = phases
        .start(phase::FED_WORKER_ROUND, ctx, req.attempt)
        .arg("step", req.step)
        .arg("incarnation", incarnation);

    let mut results = Vec::with_capacity(req.assignments.len());
    for (index, bucket) in &req.assignments {
        let t_bucket = phases
            .start(phase::FED_BUCKET, t_round.context(), *index)
            .arg("bucket", *index);
        let update = st
            .runner
            .run_bucket(
                &req.params,
                bucket,
                &st.setup.hp,
                req.step,
                req.step_seed,
                *index as usize,
                &st.faults,
                t_bucket.context(),
            )
            .map_err(|e| {
                eprintln!("plp-fed worker: bucket {index} failed: {e}");
                exit_code::TRAIN
            })?;
        results.push((*index, update.map(WireUpdate::from)));
    }

    // Injected straggler: the work is done, the reply just takes its
    // time. The coordinator's deadline machinery decides whether to wait
    // it out or kill and reassign.
    if let Some(ms) = st.faults.stall_worker(req.step, incarnation) {
        phases.instant("fed_stall", ctx, [("step", req.step), ("stall_ms", ms)]);
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    drop(t_round);

    let reply = RoundReply {
        step: req.step,
        attempt: req.attempt,
        results,
    }
    .encode();

    // Injected pipe garbling: flip one byte *after* the CRC footer was
    // computed, past the length prefix so the stream stays aligned and
    // the coordinator can detect-and-re-request. Keyed on (step,
    // attempt): the re-requested reply draws a fresh decision.
    let mut frame = encode_frame(MSG_REPLY, &reply);
    if let Some(h) = st.faults.corrupt_reply_frame(req.step, req.attempt) {
        let span = frame.len() - 4;
        let offset = 4 + (h as usize % span);
        frame[offset] ^= 0x40;
    }
    let duplicate = st.faults.duplicate_reply(req.step, req.attempt);

    let send = |output: &mut dyn Write, bytes: &[u8]| -> Result<(), i32> {
        output.write_all(bytes).map_err(|_| exit_code::CLEAN)?;
        output.flush().map_err(|_| exit_code::CLEAN)
    };
    send(output, &frame)?;
    if duplicate {
        // A retransmit bug: the same bytes twice. The coordinator must
        // de-duplicate by (step, attempt).
        send(output, &frame)?;
    }
    Ok(())
}

/// Injected bucket panics are expected during drills; keep the default
/// hook for everything else so real bugs still print a backtrace.
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

#[cfg(test)]
mod tests {
    use super::*;
    use plp_core::config::Hyperparameters;
    use plp_core::faults::FaultPlan;
    use plp_data::grouping::Bucket;
    use plp_model::params::ModelParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_setup(plan: Option<FaultPlan>) -> Setup {
        Setup {
            protocol_version: PROTOCOL_VERSION,
            slot: 0,
            incarnation: 1,
            hp: Hyperparameters {
                embedding_dim: 4,
                negative_samples: 2,
                max_steps: 2,
                ..Hyperparameters::default()
            },
            plan,
        }
    }

    fn tiny_round(step: u64, attempt: u64) -> RoundRequest {
        let mut rng = StdRng::seed_from_u64(3);
        RoundRequest {
            step,
            step_seed: 99,
            attempt,
            params: ModelParams::init(&mut rng, 8, 4).unwrap(),
            assignments: vec![(
                2,
                Bucket {
                    user_indices: vec![0],
                    tokens: vec![1, 2, 3, 4, 2, 1],
                },
            )],
        }
    }

    fn run_session(frames: &[(u8, Vec<u8>)]) -> (i32, Vec<u8>) {
        let mut input = Vec::new();
        for (kind, payload) in frames {
            input.extend_from_slice(&encode_frame(*kind, payload));
        }
        let mut cursor = std::io::Cursor::new(input);
        let mut output = Vec::new();
        let code = worker_main(&mut cursor, &mut output);
        (code, output)
    }

    #[test]
    fn worker_computes_a_round_and_exits_cleanly() {
        let setup = tiny_setup(None).encode();
        let round = tiny_round(1, 5).encode();
        let (code, output) = run_session(&[
            (MSG_SETUP, setup),
            (MSG_ROUND, round),
            (MSG_SHUTDOWN, vec![]),
        ]);
        assert_eq!(code, exit_code::CLEAN);
        let mut cur = std::io::Cursor::new(output);
        let FrameEvent::Frame { kind, payload, .. } = read_frame_event(&mut cur) else {
            panic!("expected one reply frame");
        };
        assert_eq!(kind, MSG_REPLY);
        let reply = RoundReply::decode(&payload).unwrap();
        assert_eq!(reply.step, 1);
        assert_eq!(reply.attempt, 5);
        assert_eq!(reply.results.len(), 1);
        assert_eq!(reply.results[0].0, 2);
        assert!(
            reply.results[0].1.is_some(),
            "healthy bucket returns a delta"
        );
        assert_eq!(read_frame_event(&mut cur), FrameEvent::Closed);
    }

    #[test]
    fn worker_reply_matches_in_process_runner_bitwise() {
        let setup = tiny_setup(None);
        let round = tiny_round(1, 0);
        let (code, output) =
            run_session(&[(MSG_SETUP, setup.encode()), (MSG_ROUND, round.encode())]);
        assert_eq!(code, exit_code::CLEAN);
        let mut cur = std::io::Cursor::new(output);
        let FrameEvent::Frame { payload, .. } = read_frame_event(&mut cur) else {
            panic!("expected a reply frame");
        };
        let reply = RoundReply::decode(&payload).unwrap();
        let wire = reply.results[0].1.clone().unwrap();

        let mut runner = BucketRunner::new(&Observer::disabled());
        let local = runner
            .run_bucket(
                &round.params,
                &round.assignments[0].1,
                &setup.hp,
                round.step,
                round.step_seed,
                2,
                &FaultInjector::default(),
                None,
            )
            .unwrap()
            .unwrap();
        assert_eq!(
            wire.into_update(2),
            local,
            "a bucket's result must be identical across the process boundary"
        );
    }

    #[test]
    fn corrupt_and_duplicate_reply_faults_show_on_the_wire() {
        let plan = FaultPlan {
            corrupt_frame_rate: 1.0,
            ..FaultPlan::quiet(5)
        };
        let (code, output) = run_session(&[
            (MSG_SETUP, tiny_setup(Some(plan)).encode()),
            (MSG_ROUND, tiny_round(1, 0).encode()),
        ]);
        assert_eq!(code, exit_code::CLEAN);
        let mut cur = std::io::Cursor::new(output);
        assert!(
            matches!(read_frame_event(&mut cur), FrameEvent::Corrupt { .. }),
            "a corrupt-frame fault must fail the coordinator's CRC check"
        );

        let plan = FaultPlan {
            duplicate_reply_rate: 1.0,
            ..FaultPlan::quiet(5)
        };
        let (code, output) = run_session(&[
            (MSG_SETUP, tiny_setup(Some(plan)).encode()),
            (MSG_ROUND, tiny_round(1, 0).encode()),
        ]);
        assert_eq!(code, exit_code::CLEAN);
        let mut cur = std::io::Cursor::new(output);
        let first = read_frame_event(&mut cur);
        let second = read_frame_event(&mut cur);
        assert_eq!(first, second, "the duplicate is a byte-exact retransmit");
        assert!(matches!(first, FrameEvent::Frame { .. }));
    }

    #[test]
    fn protocol_violations_exit_with_distinct_codes() {
        let (code, _) = run_session(&[(MSG_ROUND, tiny_round(1, 0).encode())]);
        assert_eq!(code, exit_code::PROTOCOL, "round before setup");
        // 0x7f: unknown but without the KIND_TRACED flag bit (a flagged
        // unknown kind is indistinguishable from a traced message to a
        // newer peer, and encode_frame refuses to build one).
        let (code, _) = run_session(&[(0x7f, vec![])]);
        assert_eq!(code, exit_code::PROTOCOL, "unknown kind");
        let (code, _) = run_session(&[(MSG_SETUP, b"junk".to_vec())]);
        assert_eq!(code, exit_code::DECODE, "bad setup payload");
        let setup = tiny_setup(None).encode();
        let (code, _) = run_session(&[(MSG_SETUP, setup), (MSG_ROUND, vec![1, 2])]);
        assert_eq!(code, exit_code::DECODE, "bad round payload");
    }

    #[test]
    fn protocol_version_mismatch_is_rejected_cleanly() {
        // The JSON-setup version 2 and any later version alike.
        for version in [2, PROTOCOL_VERSION + 1] {
            let mut setup = tiny_setup(None);
            setup.protocol_version = version;
            let (code, output) = run_session(&[
                (MSG_SETUP, setup.encode()),
                (MSG_ROUND, tiny_round(1, 0).encode()),
            ]);
            assert_eq!(code, exit_code::VERSION, "version {version}");
            assert!(output.is_empty(), "no reply from a version-rejected worker");
        }
    }

    #[test]
    fn traced_round_parents_worker_spans_under_the_wire_context() {
        use crate::frame::encode_frame_traced;
        use plp_obs::trace::{derive_trace_id, DOMAIN_FED_ROUND};

        let ctx = TraceContext {
            trace_id: derive_trace_id(42, DOMAIN_FED_ROUND, 1),
            parent_span: 0x1234_5678_9abc_def0,
        };
        let mut input = Vec::new();
        input.extend_from_slice(&encode_frame(MSG_SETUP, &tiny_setup(None).encode()));
        input.extend_from_slice(&encode_frame_traced(
            MSG_ROUND,
            Some(ctx),
            &tiny_round(1, 3).encode(),
        ));
        input.extend_from_slice(&encode_frame(MSG_SHUTDOWN, &[]));

        let obs = Observer::new("fed_worker_test");
        let tracer = obs
            .attach_tracer(TraceConfig::named("worker-test"))
            .unwrap();
        let mut cursor = std::io::Cursor::new(input);
        let mut output = Vec::new();
        let code = worker_main_with_observer(&mut cursor, &mut output, &obs);
        assert_eq!(code, exit_code::CLEAN);

        // Every id is a pure function of what crossed the pipe — (trace
        // id, attempt 3, bucket 2) — and every parent is on record: the
        // round under the wire context, the bucket under the round, the
        // trainer's per-bucket phases under the bucket.
        use plp_core::plp::phase::{BUCKET_SGD, CLIP};
        use plp_obs::trace::derive_span_id;
        let spans = tracer.snapshot();
        let id_of = |p: plp_obs::Phase, index| derive_span_id(ctx.trace_id, p.name, index);
        let round_id = id_of(phase::FED_WORKER_ROUND, 3);
        let bucket_id = id_of(phase::FED_BUCKET, 2);
        let expected = [
            (phase::FED_WORKER_ROUND, round_id, ctx.parent_span),
            (phase::FED_BUCKET, bucket_id, round_id),
            (BUCKET_SGD, id_of(BUCKET_SGD, 2), bucket_id),
            (CLIP, id_of(CLIP, 2), bucket_id),
        ];
        assert_eq!(spans.len(), expected.len(), "{spans:?}");
        for (p, span_id, parent_id) in expected {
            let recorded = spans.iter().any(|s| {
                (s.name, s.trace_id, s.span_id, s.parent_id)
                    == (p.name, ctx.trace_id, span_id, parent_id)
            });
            assert!(recorded, "missing span {} in {spans:?}", p.name);
        }
        // The rest of the fed table is the coordinator's.
        let worker_side = [phase::FED_WORKER_ROUND, phase::FED_BUCKET];
        for p in phase::TABLE.phases {
            assert_eq!(
                spans.iter().any(|s| s.name == p.name),
                worker_side.contains(p),
                "{}",
                p.name
            );
        }

        // An untraced round frame must still be answered — and record no
        // spans at all.
        let before = tracer.snapshot().len();
        let mut input2 = Vec::new();
        input2.extend_from_slice(&encode_frame(MSG_SETUP, &tiny_setup(None).encode()));
        input2.extend_from_slice(&encode_frame(MSG_ROUND, &tiny_round(2, 0).encode()));
        let mut cursor2 = std::io::Cursor::new(input2);
        let mut output2 = Vec::new();
        assert_eq!(
            worker_main_with_observer(&mut cursor2, &mut output2, &obs),
            exit_code::CLEAN
        );
        assert!(!output2.is_empty(), "untraced round still gets a reply");
        assert_eq!(
            tracer.snapshot().len(),
            before,
            "no wire context means no spans"
        );
    }
}
