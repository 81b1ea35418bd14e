//! Dense linear algebra, random sampling and numeric kernels for the PLP
//! (Private Location Prediction) workspace.
//!
//! This crate is the numeric foundation of the EDBT 2020 reproduction. It
//! deliberately implements only what the skip-gram / DP-SGD stack needs, in
//! plain safe Rust over `f64` slices:
//!
//! * [`ops`] — vector kernels (dot, axpy, norms, cosine, norm clipping),
//! * [`matrix`] — a row-major dense [`Matrix`](matrix::Matrix) used for the
//!   embedding and context tensors,
//! * [`topk`] — partial selection of the `k` best-scoring indices,
//! * [`ivf`] — a deterministic IVF coarse-quantiser index for sublinear
//!   top-k over the embedding rows (exact re-rank of probed cells),
//! * [`par`] — the one scoped fan-out, with the caller as part 0,
//! * [`sample`] — hand-written samplers (standard normal via Box–Muller,
//!   bounded Zipf, Poisson subsampling) so that no distribution crate beyond
//!   `rand` is required,
//! * [`stats`] — running moments, percentiles and the paired *t*-test used by
//!   the paper's significance claim (§5.2).
//!
//! Everything is deterministic given a seeded RNG, which the higher layers
//! rely on for reproducible experiments.

pub mod error;
pub mod ivf;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod sample;
pub mod stats;
pub mod topk;

pub use error::LinalgError;
pub use matrix::Matrix;
