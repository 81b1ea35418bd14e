//! Shared harness for regenerating the paper's figures.
//!
//! Every figure of the evaluation (§5) is driven by the same pipeline:
//! prepare a seeded synthetic-Tokyo dataset, train one or more of
//! {non-private, DP-SGD, PLP} under a parameter sweep, and print the
//! figure's series as aligned text plus machine-readable JSON.
//!
//! Two scales are supported everywhere:
//! * `Scale::Bench` — small data, so the unit tests and
//!   `figures run --all --scale bench` terminate in seconds,
//! * `Scale::Figure` — the medium profile behind the numbers recorded in
//!   EXPERIMENTS.md.
//!
//! [`figures::EXPERIMENTS`] is the table of experiments; the `figures`
//! binary is a loop over it.

mod custom;
pub mod figures;
pub mod runner;

pub use runner::{Scale, SweepPoint};
