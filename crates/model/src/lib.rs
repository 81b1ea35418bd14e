//! The skip-gram negative-sampling (SGNS) location-embedding model.
//!
//! Implements the neural network of the paper's Figure 2: a one-hidden-layer
//! skip-gram with parameters θ = {W, W′, B′} — an `L × dim` embedding
//! matrix, an `L × dim` context matrix and an `L`-vector of output biases —
//! trained with a *uniform* sampled-softmax loss (§3.2; uniform because a
//! frequency-weighted proposal would leak the private location popularity).
//!
//! Modules:
//! * [`params`] — the three tensors, initialisation, snapshots,
//! * [`negative`] — uniform (private) and unigram (non-private ablation)
//!   negative samplers,
//! * [`loss`] — sampled-softmax and sigmoid-SGNS forward/backward with
//!   hand-derived gradients (verified against finite differences),
//! * [`grad`] — the per-batch gradient, a log of touches replayed row by row,
//! * [`journal`] — the copy-on-write row journal behind the clone-free
//!   bucket-delta path, and the flat row-sparse delta its arenas become,
//! * [`clip`] — per-layer ℓ2 clipping (McMahan & Andrew: each tensor to
//!   `C/√|θ|`),
//! * [`train`] — mini-batch local SGD over a token array (Algorithm 1,
//!   lines 15–22, minus the clipping performed by the caller),
//! * [`optimizer`] — server-side SGD and (DP-)Adam over noisy aggregates,
//! * [`recommender`] — the deployment path of §3.3: `F(ζ)` profiles and
//!   cosine top-k recommendation,
//! * [`metrics`] — leave-one-out Hit-Rate@k evaluation and baselines,
//! * [`markov`] — the (DP-)Markov-chain baselines of the related work (§6),
//! * [`plps`] — model artifacts over the one PLPS container
//!   (`plp_data::frame`): the mmap-able embedding-only deployment bundle of
//!   §3.3 for zero-copy serving and hot-swap publishing, the
//!   full-parameter model the CLI saves, and the tensor sections of
//!   checkpoints and federated θ-blobs.

pub mod clip;
pub mod error;
pub mod grad;
pub mod journal;
pub mod loss;
pub mod markov;
pub mod metrics;
pub mod negative;
pub mod optimizer;
pub mod params;
pub mod plps;
pub mod recommender;
pub mod train;

pub use error::{ModelError, SnapshotError};
pub use loss::Loss;
pub use negative::NegativeSampler;
pub use params::{ModelParams, ParamsView, ParamsViewMut};
pub use recommender::Recommender;
