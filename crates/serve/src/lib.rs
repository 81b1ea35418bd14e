//! Batched next-POI recommendation serving (the §3.3 deployment path at
//! production scale).
//!
//! Training produces one artifact — the row-normalised embedding matrix
//! wrapped in [`plp_model::Recommender`] — and the paper's end product is
//! answering `(recent-history, k, exclude)` queries against it. This
//! crate turns that frozen artifact into a high-throughput serving
//! engine:
//!
//! * [`engine::BatchEngine`] — a query micro-batcher that groups incoming
//!   requests and scores each batch with **one** blocked matrix–matrix
//!   kernel ([`plp_linalg::matrix::matmul_block_into`]) instead of a
//!   `matvec` per query,
//! * per-worker scratch buffers (profile rows, score rows, the top-k
//!   heap) pooled across calls, so the steady state performs no scoring
//!   allocations,
//! * [`cache::LruCache`] — an LRU result cache keyed by the normalised
//!   `(recent, k, exclude)` query with hit/miss counters,
//! * optional sublinear scoring — [`engine::AnnConfig`] builds a
//!   deterministic IVF coarse-quantiser index
//!   ([`plp_linalg::ivf::IvfIndex`]) at construction, and workers then
//!   score per-query shortlists (the `nprobe` best cells, re-ranked with
//!   the exact cosine kernel) instead of all `vocab` rows; `nprobe =
//!   cells` is bit-identical to the exhaustive scan,
//! * zero-downtime hot-swap — [`swap::HotSwapServer`] pins an
//!   `Arc<`[`swap::ModelGeneration`]`>` per batch while a
//!   [`swap::GenerationWatcher`] follows an atomically-renamed `CURRENT`
//!   pointer over mmap-able PLPS bundles, validating (CRCs + finiteness)
//!   and index-building each new generation off the query path before
//!   swapping it under live traffic; cache keys carry the generation id,
//!   so results never leak across a swap,
//! * serving telemetry — QPS, p50/p95/p99 latency, cache hits and misses
//!   — reported as [`engine::ServeTelemetry`], with per-query
//!   latencies held in a bounded `plp_obs` log-linear histogram
//!   (O(buckets) memory, not O(queries)) and the phases of
//!   [`engine::phase::TABLE`] timed once each — histograms exported in
//!   Prometheus text format via the engine's [`plp_obs::Observer`],
//!   spans once a tracer is attached to it.
//!
//! The batched path is **bit-identical** to the sequential
//! [`plp_model::Recommender`] calls: profiles accumulate in the same
//! order, the blocked kernel computes each inner product in `matvec`
//! order, and exclusion/top-k share the sequential path's code. The
//! engine tests assert this for every batch shape, and every `serve_*`
//! workload of `plp_benchmark/` re-checks it on the answers it serves.

pub mod cache;
pub mod engine;
pub mod error;
pub mod query;
pub mod swap;

pub use cache::LruCache;
pub use engine::{AnnConfig, BatchEngine, ServeConfig, ServeTelemetry};
pub use error::ServeError;
pub use query::{Query, QueryKey};
pub use swap::{
    publish_generation, GenerationWatcher, HotSwapServer, ModelGeneration, SwapOutcome,
    WatcherHandle,
};
