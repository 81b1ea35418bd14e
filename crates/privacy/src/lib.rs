//! Differential-privacy machinery for Private Location Prediction.
//!
//! Implements everything the paper's Algorithm 1 needs on the privacy side:
//!
//! * [`budget`] — the (ε, δ) privacy budget type and validation,
//! * [`mechanism`] — the Gaussian mechanism (Dwork et al., Theorem 2.1 of the
//!   paper),
//! * [`rdp`] — Rényi-DP / log-moment bounds of the *subsampled* Gaussian
//!   mechanism at integer orders — i.e. the moments accountant of Abadi
//!   et al. (2016), the accounting method the paper uses ([2, 37, 54]),
//! * [`accountant`] — the privacy ledger of Algorithm 1 (lines 3, 11–12):
//!   per-step `(q, σ)` records composed into a cumulative ε(δ),
//! * [`planner`] — inverse queries: calibrate σ for a target budget, or the
//!   number of steps a budget affords (used to set up Figures 7, 8 and 11).

pub mod accountant;
pub mod budget;
pub mod error;
pub mod mechanism;
pub mod planner;
pub mod rdp;

pub use accountant::{LedgerEntry, MomentsAccountant, PrivacyLedger};
pub use budget::PrivacyBudget;
pub use error::PrivacyError;
pub use mechanism::GaussianMechanism;
pub use rdp::RdpCurve;
