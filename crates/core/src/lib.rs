//! Private Location Prediction (PLP) — the paper's contribution.
//!
//! This crate implements Algorithm 1 of *Differentially-Private
//! Next-Location Prediction with Neural Networks* (EDBT 2020) end to end:
//!
//! 1. Poisson-sample users with rate `q` ([`plp_data::sampling`]),
//! 2. group the sampled users into buckets of λ ([`plp_data::grouping`]),
//! 3. compute one local-SGD model delta per bucket
//!    ([`plp_model::train`]), clipped per layer to total norm `C`
//!    ([`plp_model::clip`]),
//! 4. sum the clipped deltas and add Gaussian noise `N(0, σ²ω²C²I)` over
//!    the *entire* flattened parameter vector,
//! 5. average by the fixed denominator `q·W/λ` (the expected bucket
//!    count; see [`plp::fixed_denominator`]) and apply a server-side
//!    (DP-)Adam step ([`plp_model::optimizer`]),
//! 6. track `(q, σ)` in the privacy ledger and stop when the moments
//!    accountant reports ε reaching the budget
//!    ([`plp_privacy::accountant`]).
//!
//! Three trainers are exposed:
//! * [`plp::train_plp`] — the full algorithm (grouping factor λ ≥ 1),
//! * [`dpsgd::train_dpsgd`] — the user-level DP-SGD baseline of
//!   McMahan et al. (one clipped delta per *user*, i.e. λ = 1),
//! * [`nonprivate::train_nonprivate`] — the noise-free skip-gram upper
//!   bound (Figures 5 and 6).
//!
//! [`experiment`] wires dataset generation → preprocessing → splitting →
//! training → HR@k evaluation into one reproducible harness used by every
//! figure bench. [`attacks`] evaluates the membership-inference threat the
//! paper's DP guarantee is meant to blunt.
//!
//! Training is crash-safe: the loop steps a
//! [`checkpoint::TrainingCheckpoint`], which [`checkpoint`] turns into an
//! image of the one artifact container (`plp_data::frame`: checksummed,
//! written atomically); a run given a [`plp::CheckpointPolicy`] starts from
//! that file when it holds the same run and resumes bit-identically (ε
//! recomputed from the restored ledger); and [`faults`] provides the
//! deterministic fault injector used by the robustness tests.
//!
//! Training is also observable: pass a `plp_obs::Observer` in
//! [`plp::TrainOptions`] to get per-phase latency histograms
//! (`plp_train_phase_ms{phase=…}` for every stage of Algorithm 1),
//! privacy-budget gauges (`plp_epsilon_spent`, bit-identical to
//! [`telemetry::RunSummary::epsilon_spent`] at run end), stop-reason and
//! skipped-bucket counters, and a JSONL event stream (`run_start`,
//! `step`, `skipped_buckets`, `checkpoint_saved`, `checkpoint_resumed`,
//! `checkpoint_discarded`, `run_end`). The default observer is inert, and
//! an enabled one never changes what training computes.

pub mod attacks;
pub mod checkpoint;
pub mod config;
pub mod dpsgd;
pub mod error;
pub mod experiment;
pub mod faults;
pub mod noise;
pub mod nonprivate;
pub mod plp;
pub mod telemetry;

pub use config::Hyperparameters;
pub use error::CoreError;
pub use plp::{
    train_plp, train_plp_resumable, train_plp_with_executor, BucketExecutor, BucketRunner,
    BucketUpdate, CheckpointPolicy, LocalExecutor, PlpOutcome, StepScratch, TrainOptions,
    UpdateSink,
};
