//! Fault-tolerant multi-process federated training.
//!
//! `plp-fed` runs the paper's federated-averaging loop across worker
//! *processes*: a coordinator implements the trainer's
//! [`BucketExecutor`](plp_core::BucketExecutor) seam, fans each step's
//! sampled buckets out to N workers over length-prefixed, CRC-guarded
//! pipes, and reduces the per-bucket deltas in fixed order. Because the
//! loop around the seam is the very same code the single-process trainer
//! runs and bucket updates are pure functions of `(θ, bucket, step_seed,
//! index)`, the distributed run is **bit-identical** — parameters, RDP
//! ledger and ε — to `train_plp` on one process.
//!
//! Robustness is the point, not an afterthought:
//!
//! - per-round worker deadlines with straggler kills ([`retry`]),
//! - bounded retry/respawn with exponential backoff,
//! - CRC-rejected garbled frames re-requested over the still-aligned
//!   pipe ([`frame`]),
//! - duplicate and stale replies de-duplicated by
//!   `(incarnation, step, attempt)` keys,
//! - workers that exhaust their retry budget dropped into the trainer's
//!   DP-safe skipped-bucket semantics — fixed `q·W/λ` denominator,
//!   unchanged σ and RDP charge ([`coordinator`]),
//! - coordinator crash recovery via the ordinary training checkpoint
//!   (resume with a `FedExecutor` and the run continues bit-exact).
//!
//! Worker-level fault injection (stalls, mid-round exits, corrupted and
//! duplicated reply frames) lives in `plp_core::faults` and is hosted by
//! [`worker`]; the `fed_chaos` drill binary in `plp-bench` proves the
//! recovery paths end-to-end.

pub mod coordinator;
pub mod error;
pub mod frame;
pub mod phase;
pub mod protocol;
pub mod retry;
pub mod worker;

pub use coordinator::{FedConfig, FedExecutor, RoundStats};
pub use error::FedError;
pub use frame::{
    encode_frame, encode_frame_traced, read_frame_event, write_frame, write_frame_traced,
    FrameEvent, KIND_TRACED,
};
pub use protocol::PROTOCOL_VERSION;
pub use retry::RetryPolicy;
pub use worker::{
    maybe_run_worker, worker_main, worker_main_with_observer, TRACE_DIR_ENV, WORKER_ENV,
};

#[cfg(test)]
mod trace_determinism {
    /// `plp_obs::trace::mix64` is a deliberate copy of
    /// `plp_linalg::sample::mix64` (`plp-obs` must not depend on the math
    /// stack). This pins the two implementations to each other so trace
    /// ids keep following the run's counter discipline.
    #[test]
    fn obs_mix64_matches_linalg_mix64() {
        for x in [0u64, 1, 42, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            assert_eq!(plp_obs::trace::mix64(x), plp_linalg::sample::mix64(x));
        }
    }
}
