//! The batch serving engine: micro-batching, worker scratch pooling,
//! result caching and telemetry.
//!
//! A [`BatchEngine`] wraps a frozen [`Recommender`] and answers slices of
//! [`Query`]s. Cache misses are grouped into batches of at most
//! `max_batch` queries; each batch stacks its profiles into one matrix
//! and scores every profile against the whole vocabulary with a single
//! blocked matrix–matrix kernel. Batches are striped by
//! `batch_index % workers`, one part of `plp_linalg::par::fan_out` per
//! stripe: stripe 0 is scored on the calling thread and only the further
//! stripes of a multi-batch call get a scoped thread, so a call whose
//! misses fit one batch spawns nothing. Results are reassembled by
//! original query position, so neither the worker count nor the batch
//! size can change what a query returns — only how fast it returns.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use plp_linalg::ivf::{IvfBuildParams, IvfIndex, IvfQuant, IvfScratch};
use plp_linalg::matrix::matmul_block_into;
use plp_linalg::par::fan_out;
use plp_linalg::topk::{top_k_with_scores_into, TopKScratch};
use plp_model::recommender::mask_excluded;
use plp_model::{ModelError, Recommender};
use plp_obs::trace::{derive_span_id, derive_trace_id, fnv1a64, TraceContext, DOMAIN_SERVE_QUERY};
use plp_obs::{Counter, HistogramHandle, Observer, PhaseSet};

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::query::{Query, QueryKey};

/// ANN serving knobs: when set on [`ServeConfig::ann`], the engine builds
/// a deterministic IVF index over the embedding rows at construction and
/// batch workers score per-query *shortlists* (the members of the
/// `nprobe` best cells, re-ranked with the exact cosine kernel) instead
/// of all `vocab` rows. With `nprobe >= cells` results are bit-identical
/// to the exhaustive engine; below that, results are approximate but
/// deterministic — fixed by `(embedding, cells, seed, nprobe)`, never by
/// worker count or batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnConfig {
    /// Coarse-quantiser cells (k-means clusters); must be `>= 1` and at
    /// most the vocabulary size.
    pub cells: usize,
    /// Cells probed per query, in `[1, cells]`. Larger probes raise
    /// recall and cost; `nprobe == cells` reproduces the exhaustive scan.
    pub nprobe: usize,
    /// Lloyd iterations of the index build.
    pub kmeans_iters: usize,
    /// Rows used to train the centroids (`0` = all rows); the final
    /// assignment always covers the full vocabulary.
    pub kmeans_sample: usize,
    /// Seed of the k-means initialisation.
    pub seed: u64,
    /// Threads used for the one-off index build (bit-identical at any
    /// value; affects construction latency only).
    pub build_threads: usize,
    /// Score probed members with the int8 coarse pass first and re-rank
    /// only the error-bounded shortlist with the exact f64 kernel. Results
    /// are bit-identical to the unquantized engine at every `nprobe` (the
    /// shortlist provably contains the exact top-k of the probed cells);
    /// only the per-query cost changes.
    pub quantized: bool,
    /// Quantized shortlist floor, as a multiple of each query's `k`
    /// (`shortlist >= overfetch · k` by approximate score). Must be `>= 1`
    /// when `quantized` is set; ignored otherwise. Larger values trade
    /// re-rank work for a safety margin beyond the error-bound keep set.
    pub overfetch: usize,
}

impl Default for AnnConfig {
    fn default() -> Self {
        AnnConfig {
            cells: 256,
            nprobe: 16,
            kmeans_iters: 4,
            kmeans_sample: 0,
            seed: 0xA55_C0DE,
            build_threads: 4,
            quantized: false,
            overfetch: 4,
        }
    }
}

/// Tuning knobs of a [`BatchEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest number of cache-missing queries scored by one kernel call.
    pub max_batch: usize,
    /// Stripes a call's batches are scored on concurrently: the calling
    /// thread plus up to `workers − 1` scoped threads.
    pub workers: usize,
    /// Result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Optional IVF approximate-scoring configuration; `None` keeps the
    /// exhaustive dense scan.
    pub ann: Option<AnnConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            workers: 4,
            cache_capacity: 4096,
            ann: None,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::BadConfig {
                name: "max_batch",
                expected: ">= 1",
            });
        }
        if self.workers == 0 {
            return Err(ServeError::BadConfig {
                name: "workers",
                expected: ">= 1",
            });
        }
        if let Some(ann) = &self.ann {
            if ann.cells == 0 {
                return Err(ServeError::BadConfig {
                    name: "ann.cells",
                    expected: ">= 1",
                });
            }
            if ann.nprobe == 0 || ann.nprobe > ann.cells {
                return Err(ServeError::BadConfig {
                    name: "ann.nprobe",
                    expected: "in [1, cells]",
                });
            }
            if ann.kmeans_iters == 0 {
                return Err(ServeError::BadConfig {
                    name: "ann.kmeans_iters",
                    expected: ">= 1",
                });
            }
            if ann.build_threads == 0 {
                return Err(ServeError::BadConfig {
                    name: "ann.build_threads",
                    expected: ">= 1",
                });
            }
            if ann.quantized && ann.overfetch == 0 {
                return Err(ServeError::BadConfig {
                    name: "ann.overfetch",
                    expected: ">= 1 when quantized",
                });
            }
        }
        Ok(())
    }
}

/// Per-worker reusable buffers: stacked profile rows, dense score rows
/// (exhaustive path) or the IVF shortlist buffers (ANN path), plus the
/// top-k selection heap. All buffers start empty and are sized lazily to
/// what a batch actually scores — at a million-location vocabulary the
/// old eager `max_batch × vocab` reservation was ~512 MB *per worker*
/// before the first query arrived, and the ANN path never needs dense
/// rows at all. Grow-only, pooled across `serve` calls, so the steady
/// state still performs no scoring allocations.
#[derive(Default)]
struct Scratch {
    /// `rows × dim` stacked profile rows of the current batch.
    profiles: Vec<f64>,
    /// `rows × vocab` stacked score rows (exhaustive path only).
    scores: Vec<f64>,
    topk: TopKScratch,
    ranked: Vec<(usize, f64)>,
    ivf: IvfScratch,
}

/// Grows `buf` to at least `len` (grow-only, values overwritten by the
/// caller); never shrinks, so pooled scratch reaches a high-water mark
/// and stays allocation-free from then on.
fn ensure(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Mutable serving state behind one lock: the result cache and the scalar
/// telemetry accumulators. Per-query latencies live in a bounded
/// log-linear histogram on the engine's [`Observer`], so telemetry memory
/// is O(histogram buckets), not O(queries served).
struct EngineState {
    /// Never consulted when [`ServeConfig::cache_capacity`] is 0: no key is
    /// built, nothing is looked up or stored, every query counts as a miss.
    cache: LruCache<QueryKey, Vec<usize>>,
    queries: u64,
    cache_hits: u64,
    batches: u64,
    wall_ms: f64,
}

/// What a [`BatchEngine`] observed over its lifetime, from
/// [`BatchEngine::telemetry`]: load, latency percentiles and cache
/// effectiveness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeTelemetry {
    /// Recommendation queries answered (cache hits included).
    pub queries: u64,
    /// Scoring batches executed (cache hits never form a batch).
    pub batches: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that had to be scored.
    pub cache_misses: u64,
    /// Queries per **second** of engine wall time
    /// (`queries / (wall_ms / 1000)`); `0.0` before any traffic.
    pub qps: f64,
    /// Median per-query latency, in **milliseconds**. Derived from a
    /// bounded log-linear histogram, so it carries that histogram's
    /// ≤ one-bucket-width quantile error.
    pub p50_ms: f64,
    /// 95th-percentile per-query latency, in **milliseconds** (same
    /// histogram-derived error bound as `p50_ms`).
    pub p95_ms: f64,
    /// 99th-percentile per-query latency, in **milliseconds** (same
    /// histogram-derived error bound as `p50_ms`).
    pub p99_ms: f64,
    /// Total wall-clock time spent inside `serve` calls, in
    /// **milliseconds**.
    pub wall_ms: f64,
}

/// The engine's counters, resolved once at construction like the phases.
struct Counters {
    queries: Counter,
    batches: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    /// Threads spawned by [`BatchEngine::score_misses`]: `stripes − 1` per
    /// call, so 0 for as long as every call fits one batch.
    worker_spawns: Counter,
}

/// The serving phase table — the one place these names are spelled.
/// Batch-level phases carry the sequence number of the batch's first
/// query as their index (and parent under that query's root span);
/// per-query phases carry their own.
pub mod phase {
    plp_obs::phase_table! {
        /// `plp_serve_phase_ms{phase=…}` and the `serve` trace category.
        TABLE = "plp_serve_phase_ms", "serve";
        /// One query, serve call start → call end; the root of its trace.
        SERVE_QUERY = trace_only "serve_query";
        /// The hit-check critical section of one serve call (index: the
        /// call's first query).
        CACHE_LOOKUP = timed "cache_lookup";
        /// A batch of misses admitted by its call → it starts scoring.
        QUEUE_WAIT = timed "queue_wait";
        /// Stacking the batch's profile rows. Trace-only: a series would add
        /// a record and two clock reads per batch to the untraced path.
        BATCH_ASSEMBLY = trace_only "batch_assembly";
        /// Dense path: the blocked kernel over all `vocab` rows.
        BATCH_MATMUL = timed "batch_matmul";
        /// Dense path: exclusion mask + top-k selection for the batch.
        TOP_K = timed "top_k";
        /// IVF path: probe + re-rank of every query of the batch.
        IVF_SEARCH = timed "ivf_search";
        /// IVF path, one query: the coarse probe (child of `ivf_search`).
        IVF_PROBE = trace_only "ivf_probe";
        /// IVF path, one query: the exact re-rank of the probed cells, after
        /// the int8 coarse pass when quantized (child of `ivf_search`).
        RE_RANK = trace_only "re_rank";
    }
}

/// One batch's scored output: the original query positions with their
/// ranked locations, and the batch's wall time.
struct BatchResult {
    ranked: Vec<(usize, Vec<usize>)>,
    elapsed_ms: f64,
}

/// A multi-threaded, cached, micro-batching recommendation engine over a
/// frozen [`Recommender`]. See the crate docs for the architecture.
pub struct BatchEngine {
    rec: Recommender,
    cfg: ServeConfig,
    /// The IVF coarse quantiser, built once at construction when
    /// [`ServeConfig::ann`] is set.
    index: Option<IvfIndex>,
    /// The packed int8 rows of the index's posting lists, built once at
    /// construction when [`AnnConfig::quantized`] is set.
    quant: Option<IvfQuant>,
    obs: Observer,
    /// `plp_serve_query_latency_ms`, the engine's own telemetry store.
    latency: HistogramHandle,
    /// [`phase::TABLE`], resolved once at construction so the serve path
    /// does no registry lookups — a tracer must be attached by then.
    phases: PhaseSet,
    counters: Counters,
    /// Root of every per-query trace id: `fnv1a64(run_id)`, mixed with
    /// the query sequence number. Deterministic given the observer.
    trace_root: u64,
    /// Monotone query sequence; each serve call claims a contiguous
    /// range so concurrent calls never share a trace id.
    trace_seq: AtomicU64,
    state: Mutex<EngineState>,
    scratch_pool: Mutex<Vec<Scratch>>,
    /// Model generation stamped into every cache key. Engines outside the
    /// hot-swap path use 0; [`crate::swap::HotSwapServer`] builds one
    /// engine per published generation so cached results can never cross
    /// a swap boundary.
    generation: u64,
}

impl BatchEngine {
    /// Wraps `rec` with the given configuration and a private metrics
    /// registry (run id `"serve"`).
    ///
    /// # Errors
    /// `BadConfig` when `max_batch` or `workers` is zero.
    pub fn new(rec: Recommender, cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::with_observer(rec, cfg, Observer::new("serve"))
    }

    /// Wraps `rec` recording metrics into `obs` — pass a shared observer
    /// to co-locate serving metrics with training metrics in one registry
    /// / JSONL log. A *disabled* observer is replaced by a private enabled
    /// one: the latency histogram doubles as the engine's own telemetry
    /// store, so the engine always keeps one.
    ///
    /// # Errors
    /// `BadConfig` when `max_batch`, `workers` or an ANN knob is out of
    /// domain; a `Linalg` error when the index build rejects the
    /// configuration against this vocabulary (e.g. more cells than
    /// locations).
    pub fn with_observer(
        rec: Recommender,
        cfg: ServeConfig,
        obs: Observer,
    ) -> Result<Self, ServeError> {
        Self::with_observer_for_generation(rec, cfg, obs, 0)
    }

    /// As [`Self::with_observer`], additionally stamping `generation` into
    /// every cache key (see [`crate::query::Query::key_for_generation`]).
    /// The hot-swap server uses this so that results cached under one
    /// model generation are unreachable from the next.
    ///
    /// # Errors
    /// As [`Self::with_observer`].
    pub fn with_observer_for_generation(
        rec: Recommender,
        cfg: ServeConfig,
        obs: Observer,
        generation: u64,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        let index = match &cfg.ann {
            Some(ann) => Some(IvfIndex::build(
                rec.embedding(),
                &IvfBuildParams {
                    cells: ann.cells,
                    iters: ann.kmeans_iters,
                    sample: ann.kmeans_sample,
                    seed: ann.seed,
                    threads: ann.build_threads,
                },
            )?),
            None => None,
        };
        let quant = match (&cfg.ann, &index) {
            (Some(ann), Some(index)) if ann.quantized => {
                Some(IvfQuant::build(rec.embedding(), index)?)
            }
            _ => None,
        };
        let obs = if obs.is_enabled() {
            obs
        } else {
            Observer::new("serve")
        };
        let latency = obs.histogram("plp_serve_query_latency_ms");
        let phases = PhaseSet::resolve(&obs, &phase::TABLE);
        let counters = Counters {
            queries: obs.counter("plp_serve_queries_total"),
            batches: obs.counter("plp_serve_batches_total"),
            cache_hits: obs.counter("plp_serve_cache_hits_total"),
            cache_misses: obs.counter("plp_serve_cache_misses_total"),
            worker_spawns: obs.counter("plp_serve_worker_spawns_total"),
        };
        let trace_root = fnv1a64(obs.run_id().unwrap_or("serve"));
        Ok(BatchEngine {
            rec,
            cfg,
            index,
            quant,
            obs,
            latency,
            phases,
            counters,
            trace_root,
            trace_seq: AtomicU64::new(0),
            state: Mutex::new(EngineState {
                cache: LruCache::new(cfg.cache_capacity),
                queries: 0,
                cache_hits: 0,
                batches: 0,
                wall_ms: 0.0,
            }),
            scratch_pool: Mutex::new(Vec::new()),
            generation,
        })
    }

    /// The wrapped recommender.
    pub fn recommender(&self) -> &Recommender {
        &self.rec
    }

    /// The model generation this engine serves (0 outside hot-swap).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The engine configuration.
    pub fn config(&self) -> ServeConfig {
        self.cfg
    }

    /// The IVF index, when the engine was configured with
    /// [`ServeConfig::ann`].
    pub fn ann_index(&self) -> Option<&IvfIndex> {
        self.index.as_ref()
    }

    /// The packed int8 posting-list rows, when [`AnnConfig::quantized`]
    /// is set.
    pub fn ann_quant(&self) -> Option<&IvfQuant> {
        self.quant.as_ref()
    }

    /// The observer this engine records into (always enabled).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Answers every query, in order. Each result is the query's top-`k`
    /// locations, identical to what
    /// `Recommender::recommend_excluding_into` would return for it.
    ///
    /// # Errors
    /// `BadQuery` (with the offending position) when any query has an
    /// empty history or an out-of-vocabulary token; the whole call is
    /// rejected before any scoring.
    pub fn serve(&self, queries: &[Query]) -> Result<Vec<Vec<usize>>, ServeError> {
        let call_start = Instant::now();
        self.validate_queries(queries)?;

        // Claim this call's contiguous query-sequence range. Each query
        // gets trace id `derive_trace_id(fnv1a64(run_id), QUERY, seq)` —
        // deterministic given the arrival order, never the clock.
        let trace_base = self.phases.traced().then(|| {
            self.trace_seq
                .fetch_add(queries.len() as u64, Ordering::Relaxed)
        });

        // Phase 1: cache lookups (single short critical section).
        let lookup_start = Instant::now();
        let t_lookup = self.phases.since(
            phase::CACHE_LOOKUP,
            trace_base.map(|base| self.query_ctx(base)),
            trace_base.unwrap_or(0),
            lookup_start,
        );
        let mut results: Vec<Option<Vec<usize>>> = vec![None; queries.len()];
        let caching = self.cfg.cache_capacity > 0;
        let mut keys: Vec<QueryKey> = Vec::new();
        let mut misses: Vec<usize> = Vec::new();
        if !caching {
            misses.extend(0..queries.len());
        } else {
            keys.extend(
                queries
                    .iter()
                    .map(|q| q.key_for_generation(self.generation)),
            );
            let mut state = self.state.lock().expect("serve state poisoned");
            for (i, key) in keys.iter().enumerate() {
                match state.cache.get(key) {
                    Some(hit) => results[i] = Some(hit.clone()),
                    None => misses.push(i),
                }
            }
        }
        let lookup_ms = ms_since(lookup_start);
        drop(
            t_lookup
                .arg("queries", queries.len() as u64)
                .arg("misses", misses.len() as u64),
        );

        // Phase 2: score the misses in batches, striped across workers.
        let batch_results = self.score_misses(queries, &misses, call_start, trace_base)?;

        // Phase 3: reassemble, fill the cache, record telemetry. Per-query
        // latency is the query's batch wall time (scored) or the lookup
        // time (cache hit), recorded into the bounded histogram.
        let num_batches = batch_results.len() as u64;
        let hits = (queries.len() - misses.len()) as u64;
        let mut state = self.state.lock().expect("serve state poisoned");
        for br in &batch_results {
            self.latency.record_n(br.elapsed_ms, br.ranked.len() as u64);
        }
        for br in batch_results {
            for (qi, ranked) in br.ranked {
                if caching {
                    state.cache.put(keys[qi].clone(), ranked.clone());
                }
                results[qi] = Some(ranked);
            }
        }
        if hits > 0 {
            self.latency.record_n(lookup_ms, hits);
        }
        state.queries += queries.len() as u64;
        state.cache_hits += hits;
        state.batches += num_batches;
        state.wall_ms += ms_since(call_start);
        drop(state);
        self.counters.queries.add(queries.len() as u64);
        self.counters.batches.add(num_batches);
        self.counters.cache_hits.add(hits);
        self.counters.cache_misses.add(misses.len() as u64);

        // Per-query root spans, closed at call end. `misses` is sorted
        // ascending (it was built by a forward scan), so a binary search
        // tells hit from miss.
        if let Some(base) = trace_base {
            for (i, q) in queries.iter().enumerate() {
                let seq = base + i as u64;
                let root = TraceContext {
                    parent_span: 0,
                    ..self.query_ctx(seq)
                };
                drop(
                    self.phases
                        .since(phase::SERVE_QUERY, Some(root), seq, call_start)
                        .arg("k", q.k as u64)
                        .arg("cache_hit", u64::from(misses.binary_search(&i).is_err())),
                );
            }
        }

        Ok(results
            .into_iter()
            .map(|r| r.expect("every query answered by cache or a batch"))
            .collect())
    }

    /// A snapshot of lifetime serving telemetry. Latency percentiles come
    /// from the bounded log-linear histogram (≤ one-bucket-width error),
    /// so this is O(histogram buckets) in time and memory regardless of
    /// how many queries the engine has answered — and needs no sort, so
    /// there is nothing to panic on.
    pub fn telemetry(&self) -> ServeTelemetry {
        let state = self.state.lock().expect("serve state poisoned");
        let latencies = self.latency.snapshot();
        let pct = |q: f64| latencies.quantile(q).unwrap_or(0.0);
        let qps = if state.wall_ms > 0.0 {
            state.queries as f64 / (state.wall_ms / 1000.0)
        } else {
            0.0
        };
        ServeTelemetry {
            queries: state.queries,
            batches: state.batches,
            cache_hits: state.cache_hits,
            cache_misses: state.queries - state.cache_hits,
            qps,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            wall_ms: state.wall_ms,
        }
    }

    /// The context the phases of query number `seq` open their guards
    /// under: the query's trace id with its root span as parent. A pure
    /// function of `(run_id, seq)`, so any consumer of the dump can
    /// recompute the ids.
    fn query_ctx(&self, seq: u64) -> TraceContext {
        let trace_id = derive_trace_id(self.trace_root, DOMAIN_SERVE_QUERY, seq);
        TraceContext {
            trace_id,
            parent_span: derive_span_id(trace_id, phase::SERVE_QUERY.name, seq),
        }
    }

    fn validate_queries(&self, queries: &[Query]) -> Result<(), ServeError> {
        let vocab = self.rec.vocab_size();
        for (index, q) in queries.iter().enumerate() {
            if q.recent.is_empty() {
                return Err(ServeError::BadQuery {
                    index,
                    source: ModelError::BadConfig {
                        name: "recent",
                        expected: "non-empty",
                    },
                });
            }
            if let Some(&token) = q.recent.iter().find(|&&t| t >= vocab) {
                return Err(ServeError::BadQuery {
                    index,
                    source: ModelError::TokenOutOfRange { token, vocab },
                });
            }
        }
        Ok(())
    }

    /// Scores `misses` (positions into `queries`) in batches of at most
    /// `max_batch`, batch `b` on stripe `b % stripes` where `stripes =
    /// min(workers, batches)`; the result lists the stripes' batches stripe
    /// by stripe. The stripes are the parts of one [`fan_out`]: stripe 0
    /// runs on the calling thread, so a one-batch call — the common one —
    /// forks nothing. `enqueued_at` is when the serve call admitted these
    /// misses; the gap until a batch actually starts scoring is its
    /// `queue_wait` phase.
    fn score_misses(
        &self,
        queries: &[Query],
        misses: &[usize],
        enqueued_at: Instant,
        trace_base: Option<u64>,
    ) -> Result<Vec<BatchResult>, ServeError> {
        if misses.is_empty() {
            return Ok(Vec::new());
        }
        let batches: Vec<&[usize]> = misses.chunks(self.cfg.max_batch).collect();
        let stripes = self.cfg.workers.min(batches.len());
        self.counters.worker_spawns.add(stripes as u64 - 1);
        let outcome = fan_out((0..stripes).collect(), |stripe| {
            let mut scratch = self.take_scratch();
            let produced: Result<Vec<BatchResult>, ServeError> = batches
                .iter()
                .skip(stripe)
                .step_by(stripes)
                .map(|batch| {
                    self.score_batch(queries, batch, &mut scratch, enqueued_at, trace_base)
                })
                .collect();
            self.return_scratch(scratch);
            produced
        });
        let mut out = Vec::with_capacity(batches.len());
        for stripe_result in outcome {
            out.extend(stripe_result?);
        }
        Ok(out)
    }

    /// Scores one batch. Both paths stack the batch's profiles first;
    /// then the exhaustive path runs the blocked kernel over all `vocab`
    /// rows while the ANN path searches the IVF shortlist per query. The
    /// exhaustive path reuses the sequential path's kernels in the
    /// sequential path's order, keeping it bit-identical to
    /// `Recommender::recommend_excluding_into`; the ANN path is exact over the
    /// probed cells and equals the exhaustive path when `nprobe = cells`.
    fn score_batch(
        &self,
        queries: &[Query],
        batch: &[usize],
        scratch: &mut Scratch,
        enqueued_at: Instant,
        trace_base: Option<u64>,
    ) -> Result<BatchResult, ServeError> {
        let start = Instant::now();
        let dim = self.rec.dim();
        let rows = batch.len();
        let phases = &self.phases;

        // Every span id in the dump is recomputable: see [`phase`] for
        // which sequence number each phase carries.
        let base = trace_base.unwrap_or(0);
        let first = base + batch[0] as u64;
        let ctx = trace_base.map(|_| self.query_ctx(first));
        drop(
            phases
                .since(phase::QUEUE_WAIT, ctx, first, enqueued_at)
                .arg("rows", rows as u64),
        );

        let t_assembly = phases
            .start(phase::BATCH_ASSEMBLY, ctx, first)
            .arg("rows", rows as u64);
        ensure(&mut scratch.profiles, rows * dim);
        for (slot, &qi) in batch.iter().enumerate() {
            self.rec.profile_into(
                &queries[qi].recent,
                &mut scratch.profiles[slot * dim..(slot + 1) * dim],
            )?;
        }
        drop(t_assembly);

        let mut ranked = Vec::with_capacity(rows);
        if let Some(index) = &self.index {
            let ann = self.cfg.ann.expect("index implies ann config");
            let t_search = phases
                .start(phase::IVF_SEARCH, ctx, first)
                .arg("rows", rows as u64);
            let in_search = t_search.context();
            for (slot, &qi) in batch.iter().enumerate() {
                let q = &queries[qi];
                let seq = base + qi as u64;
                let profile = &scratch.profiles[slot * dim..(slot + 1) * dim];
                // The two IVF stages, timed apart: the probe, then the
                // exact or int8 re-rank — the same composition as
                // `Recommender::recommend_indexed_into` (or its quantized
                // form), so both paths give the same answers.
                let t_probe = phases
                    .start(phase::IVF_PROBE, in_search, seq)
                    .arg("nprobe", ann.nprobe as u64);
                index.probe_cells(profile, ann.nprobe, &mut scratch.ivf)?;
                drop(t_probe);
                let t_rerank = phases
                    .start(phase::RE_RANK, in_search, seq)
                    .arg("k", q.k as u64)
                    .arg("quant", u64::from(self.quant.is_some()));
                if let Some(quant) = &self.quant {
                    index.rerank_probed_quantized(
                        quant,
                        self.rec.embedding(),
                        profile,
                        q.k,
                        ann.overfetch,
                        &q.exclude,
                        &mut scratch.ivf,
                        &mut scratch.ranked,
                    )?;
                } else {
                    index.rerank_probed(
                        self.rec.embedding(),
                        profile,
                        q.k,
                        &q.exclude,
                        &mut scratch.ivf,
                        &mut scratch.ranked,
                    );
                }
                drop(t_rerank);
                ranked.push((qi, scratch.ranked.iter().map(|&(i, _)| i).collect()));
            }
        } else {
            let vocab = self.rec.vocab_size();
            ensure(&mut scratch.scores, rows * vocab);
            let t_matmul = phases
                .start(phase::BATCH_MATMUL, ctx, first)
                .arg("rows", rows as u64)
                .arg("vocab", vocab as u64);
            matmul_block_into(
                &scratch.profiles[..rows * dim],
                rows,
                dim,
                self.rec.embedding(),
                &mut scratch.scores[..rows * vocab],
            )?;
            drop(t_matmul);
            let _t_topk = phases
                .start(phase::TOP_K, ctx, first)
                .arg("rows", rows as u64);
            for (slot, &qi) in batch.iter().enumerate() {
                let q = &queries[qi];
                let row = &mut scratch.scores[slot * vocab..(slot + 1) * vocab];
                mask_excluded(row, &q.exclude);
                top_k_with_scores_into(row, q.k, &mut scratch.topk, &mut scratch.ranked);
                ranked.push((qi, scratch.ranked.iter().map(|&(i, _)| i).collect()));
            }
        }
        Ok(BatchResult {
            ranked,
            elapsed_ms: ms_since(start),
        })
    }

    fn take_scratch(&self) -> Scratch {
        self.scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    fn return_scratch(&self, scratch: Scratch) {
        self.scratch_pool
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_core::experiment::{ExperimentConfig, PreparedData};
    use plp_core::plp::{train_plp_resumable, TrainOptions};
    use plp_core::Hyperparameters;
    use plp_linalg::Matrix;
    use rand::{RngExt, SeedableRng};

    fn random_recommender(vocab: usize, dim: usize, seed: u64) -> Recommender {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Matrix::zeros(vocab, dim);
        for r in 0..vocab {
            for c in 0..dim {
                m.set(r, c, rng.random::<f64>() * 2.0 - 1.0);
            }
        }
        Recommender::from_embedding(m).unwrap()
    }

    fn mixed_queries(vocab: usize, n: usize, seed: u64) -> Vec<Query> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let hist_len = rng.random_range(1usize..6);
                let recent: Vec<usize> =
                    (0..hist_len).map(|_| rng.random_range(0..vocab)).collect();
                let k = rng.random_range(0usize..12);
                let exclude = if rng.random_bool(0.5) {
                    recent.clone()
                } else {
                    Vec::new()
                };
                Query::with_exclusions(recent, k, exclude)
            })
            .collect()
    }

    fn sequential(rec: &Recommender, q: &Query) -> Vec<usize> {
        let mut scratch = plp_model::recommender::RecommendScratch::new();
        rec.recommend_excluding_into(&q.recent, q.k, &q.exclude, &mut scratch)
            .unwrap()
    }

    /// `engine`'s answer to one query.
    fn answer_one(engine: &BatchEngine, q: Query) -> Vec<usize> {
        engine.serve(&[q]).unwrap().remove(0)
    }

    /// The sequential `Recommender` answers on the scoring path `engine`
    /// runs: the dense scan, or its index (and int8 pack) at its `nprobe`.
    fn sequential_on(engine: &BatchEngine, queries: &[Query]) -> Vec<Vec<usize>> {
        let rec = engine.recommender();
        let mut scratch = plp_model::recommender::RecommendScratch::new();
        let mut answer = |q: &Query| match (engine.config().ann, engine.ann_index()) {
            (Some(ann), Some(index)) => match engine.ann_quant() {
                Some(quant) => rec
                    .recommend_indexed_quantized_into(
                        index,
                        quant,
                        &q.recent,
                        q.k,
                        &q.exclude,
                        ann.nprobe,
                        ann.overfetch,
                        &mut scratch,
                    )
                    .map(|(ranked, _)| ranked),
                None => rec.recommend_indexed_into(
                    index,
                    &q.recent,
                    q.k,
                    &q.exclude,
                    ann.nprobe,
                    &mut scratch,
                ),
            },
            _ => rec.recommend_excluding_into(&q.recent, q.k, &q.exclude, &mut scratch),
        };
        queries.iter().map(|q| answer(q).unwrap()).collect()
    }

    fn worker_spawns(engine: &BatchEngine) -> u64 {
        engine
            .observer()
            .counter("plp_serve_worker_spawns_total")
            .get()
    }

    /// Every batch/worker shape the identity tests sweep: workers {1, 2, 3}
    /// × `max_batch` {1, 32}, plus ragged shapes.
    const SHAPES: [(usize, usize); 11] = [
        (1, 1),
        (1, 2),
        (1, 3),
        (32, 1),
        (32, 2),
        (32, 3),
        (4, 1),
        (4, 3),
        (64, 2),
        (7, 5),
        (64, 5),
    ];

    /// Serves `queries` through a cache-less `cfg` engine twice — whole, so
    /// batches are striped across the caller and scoped threads, and in
    /// `max_batch`-sized calls, each scored inline — and checks both
    /// against the sequential reference and the spawn counter against the
    /// stripe count. Returns the reference answers.
    fn assert_striped_and_inline_match_sequential(
        rec: &Recommender,
        cfg: ServeConfig,
        queries: &[Query],
    ) -> Vec<Vec<usize>> {
        assert_eq!(cfg.cache_capacity, 0, "every query must be scored");
        let engine = BatchEngine::new(rec.clone(), cfg).unwrap();
        let expected = sequential_on(&engine, queries);
        assert_eq!(
            engine.serve(queries).unwrap(),
            expected,
            "striped ({cfg:?})"
        );
        let batches = queries.len().div_ceil(cfg.max_batch);
        let spawned = cfg.workers.min(batches) as u64 - 1;
        assert_eq!(worker_spawns(&engine), spawned, "{cfg:?}");
        let inline: Vec<Vec<usize>> = queries
            .chunks(cfg.max_batch)
            .flat_map(|call| engine.serve(call).unwrap())
            .collect();
        assert_eq!(inline, expected, "inline ({cfg:?})");
        assert_eq!(
            worker_spawns(&engine),
            spawned,
            "one-batch calls fork nothing"
        );
        expected
    }

    #[test]
    fn batched_matches_sequential_for_every_shape() {
        let rec = random_recommender(53, 7, 11);
        let queries = mixed_queries(53, 40, 12);
        let reference: Vec<Vec<usize>> = queries.iter().map(|q| sequential(&rec, q)).collect();
        for (max_batch, workers) in SHAPES {
            let cfg = ServeConfig {
                max_batch,
                workers,
                cache_capacity: 0,
                ann: None,
            };
            let expected = assert_striped_and_inline_match_sequential(&rec, cfg, &queries);
            assert_eq!(expected, reference);
        }
    }

    #[test]
    fn an_engine_shares_its_recommenders_embedding_and_outlives_it() {
        let rec = random_recommender(31, 5, 13);
        let queries = mixed_queries(31, 10, 14);
        let expected: Vec<Vec<usize>> = queries.iter().map(|q| sequential(&rec, q)).collect();
        let engine = BatchEngine::new(rec.clone(), ServeConfig::default()).unwrap();
        assert_eq!(
            engine.recommender().embedding().as_slice().as_ptr(),
            rec.embedding().as_slice().as_ptr(),
            "the engine reads the caller's matrix, not a copy"
        );
        drop(rec);
        assert_eq!(engine.serve(&queries).unwrap(), expected);
    }

    #[test]
    fn cache_off_consults_no_cache_and_counts_every_query_a_miss() {
        let rec = random_recommender(31, 5, 15);
        let queries = mixed_queries(31, 10, 16);
        let cfg = ServeConfig {
            max_batch: 4,
            workers: 2,
            cache_capacity: 0,
            ann: None,
        };
        let engine = BatchEngine::new(rec.clone(), cfg).unwrap();
        let cached = BatchEngine::new(
            rec,
            ServeConfig {
                cache_capacity: 64,
                ..cfg
            },
        )
        .unwrap();
        let expected = sequential_on(&engine, &queries);
        for _ in 0..2 {
            assert_eq!(engine.serve(&queries).unwrap(), expected);
            assert_eq!(cached.serve(&queries).unwrap(), expected);
        }
        // The repeated pass is scored again without a single lookup, and
        // counted as misses where the harness reads them: the telemetry
        // and the registry.
        assert_eq!(engine.state.lock().unwrap().cache.misses(), 0);
        let t = engine.telemetry();
        assert_eq!(
            (t.queries, t.batches, t.cache_hits, t.cache_misses),
            (20, 6, 0, 20)
        );
        let t = cached.telemetry();
        assert_eq!(
            (t.queries, t.batches, t.cache_hits, t.cache_misses),
            (20, 3, 10, 10)
        );
        for (name, want) in [
            ("plp_serve_queries_total", 20),
            ("plp_serve_batches_total", 6),
            ("plp_serve_cache_hits_total", 0),
            ("plp_serve_cache_misses_total", 20),
        ] {
            assert_eq!(engine.observer().counter(name).get(), want, "{name}");
        }
    }

    /// An engine of each scoring kind (dense, IVF, int8) under `cfg`'s
    /// shape and cache.
    fn engine_of_each_kind(rec: &Recommender, cfg: ServeConfig) -> [BatchEngine; 3] {
        [None, ann_cfg(8, 3).ann, quant_cfg(8, 3).ann]
            .map(|ann| BatchEngine::new(rec.clone(), ServeConfig { ann, ..cfg }).unwrap())
    }

    #[test]
    fn worker_spawns_count_the_stripes_beyond_the_callers() {
        let rec = random_recommender(61, 6, 17);
        let queries = mixed_queries(61, 40, 18);
        let shape = ServeConfig {
            max_batch: 4,
            workers: 3,
            cache_capacity: 8,
            ann: None,
        };
        // One-batch calls, hits and misses mixed: nothing is ever forked.
        for engine in engine_of_each_kind(&rec, shape) {
            for call in 0..1000 {
                let from = call % 37;
                engine.serve(&queries[from..from + 1 + call % 4]).unwrap();
            }
            let t = engine.telemetry();
            assert!(t.cache_hits > 0 && t.cache_misses > 0, "{t:?}");
            assert_eq!(worker_spawns(&engine), 0, "{:?}", engine.config());
        }
        // Multi-batch calls: one thread per stripe beyond the caller's.
        let uncached = ServeConfig {
            cache_capacity: 0,
            ..shape
        };
        for engine in engine_of_each_kind(&rec, uncached) {
            let mut expected = 0;
            for n in [1, 4, 5, 8, 9, 12, 40] {
                engine.serve(&queries[..n]).unwrap();
                expected += 3.min(n.div_ceil(4)) as u64 - 1;
                assert_eq!(worker_spawns(&engine), expected, "after a {n}-query call");
            }
        }
    }

    #[test]
    fn a_scoring_error_on_any_stripe_returns_its_scratch() {
        // `serve` validates first, so a scoring error is a bug by
        // construction; drive `score_misses` directly with a token only
        // `profile_into` will catch.
        let rec = random_recommender(12, 3, 19);
        let cfg = ServeConfig {
            max_batch: 1,
            workers: 2,
            cache_capacity: 0,
            ann: None,
        };
        let engine = BatchEngine::new(rec, cfg).unwrap();
        engine
            .scratch_pool
            .lock()
            .unwrap()
            .extend([Scratch::default(), Scratch::default()]);
        let want = ServeError::Model(ModelError::TokenOutOfRange {
            token: 99,
            vocab: 12,
        });
        // Batch b runs on stripe b % 2: position 0 and 2 on the caller's,
        // 1 on the spawned one; a single miss is scored inline.
        for (bad_at, misses) in [(0, 0..4), (2, 0..4), (1, 0..4), (3, 3..4)] {
            let mut queries = mixed_queries(12, 4, 20);
            queries[bad_at] = Query::new(vec![99], 3);
            let misses: Vec<usize> = misses.collect();
            let got = engine
                .score_misses(&queries, &misses, Instant::now(), None)
                .err();
            assert_eq!(got.as_ref(), Some(&want), "bad query at {bad_at}");
            assert_eq!(
                engine.scratch_pool.lock().unwrap().len(),
                2,
                "both scratches back in the pool (bad query at {bad_at})"
            );
        }
    }

    #[test]
    fn cache_answers_second_pass() {
        let rec = random_recommender(31, 5, 3);
        let queries = mixed_queries(31, 10, 4);
        let engine = BatchEngine::new(rec, ServeConfig::default()).unwrap();
        let first = engine.serve(&queries).unwrap();
        let second = engine.serve(&queries).unwrap();
        assert_eq!(first, second);
        let t = engine.telemetry();
        assert_eq!(t.queries, 20);
        assert_eq!(t.cache_hits, 10, "entire second pass served from cache");
        assert_eq!(t.cache_misses, 10);
    }

    #[test]
    fn cache_respects_exclusions_in_the_key() {
        let rec = random_recommender(20, 4, 5);
        let engine = BatchEngine::new(rec.clone(), ServeConfig::default()).unwrap();
        let plain = Query::new(vec![1, 2], 5);
        let excl = Query::with_exclusions(vec![1, 2], 5, vec![plain_first(&rec)]);
        let a = answer_one(&engine, plain);
        let b = answer_one(&engine, excl.clone());
        assert_ne!(a, b, "exclusion must not be served from the plain entry");
        assert_eq!(b, sequential(&rec, &excl));
    }

    fn plain_first(rec: &Recommender) -> usize {
        rec.recommend(&[1, 2], 1).unwrap()[0]
    }

    #[test]
    fn bad_queries_are_rejected_with_their_position() {
        let rec = random_recommender(10, 3, 6);
        let engine = BatchEngine::new(rec, ServeConfig::default()).unwrap();
        let queries = vec![Query::new(vec![1], 3), Query::new(vec![], 3)];
        match engine.serve(&queries) {
            Err(ServeError::BadQuery { index: 1, .. }) => {}
            other => panic!("expected BadQuery at 1, got {other:?}"),
        }
        let queries = vec![Query::new(vec![1], 3), Query::new(vec![2, 99], 3)];
        match engine.serve(&queries) {
            Err(ServeError::BadQuery {
                index: 1,
                source: ModelError::TokenOutOfRange { token: 99, .. },
            }) => {}
            other => panic!("expected TokenOutOfRange at 1, got {other:?}"),
        }
        assert_eq!(
            engine.telemetry().queries,
            0,
            "rejected calls record nothing"
        );
    }

    #[test]
    fn k_zero_and_k_beyond_vocab() {
        let rec = random_recommender(6, 3, 7);
        let engine = BatchEngine::new(rec.clone(), ServeConfig::default()).unwrap();
        assert!(answer_one(&engine, Query::new(vec![0], 0)).is_empty());
        let all = answer_one(&engine, Query::new(vec![0], 100));
        assert_eq!(all.len(), 6);
        assert_eq!(all, rec.recommend(&[0], 100).unwrap());
    }

    #[test]
    fn telemetry_counts_batches_and_latencies() {
        let rec = random_recommender(17, 4, 8);
        let queries = mixed_queries(17, 5, 9);
        let engine = BatchEngine::new(
            rec,
            ServeConfig {
                max_batch: 2,
                workers: 2,
                cache_capacity: 0,
                ann: None,
            },
        )
        .unwrap();
        engine.serve(&queries).unwrap();
        let t = engine.telemetry();
        assert_eq!(t.queries, 5);
        assert_eq!(t.batches, 3, "5 queries at max_batch 2 → 3 batches");
        assert_eq!(t.cache_misses, 5);
        assert!(t.wall_ms > 0.0);
        assert!(t.qps > 0.0);
        assert!(t.p50_ms <= t.p95_ms && t.p95_ms <= t.p99_ms);
    }

    #[test]
    fn scratch_pool_is_reused_across_calls() {
        let rec = random_recommender(12, 3, 10);
        let engine = BatchEngine::new(
            rec,
            ServeConfig {
                max_batch: 4,
                workers: 2,
                cache_capacity: 0,
                ann: None,
            },
        )
        .unwrap();
        let queries = mixed_queries(12, 8, 11);
        engine.serve(&queries).unwrap();
        let pooled_after_first = engine.scratch_pool.lock().unwrap().len();
        assert!(pooled_after_first >= 1);
        engine.serve(&queries).unwrap();
        let pooled_after_second = engine.scratch_pool.lock().unwrap().len();
        assert_eq!(
            pooled_after_first, pooled_after_second,
            "steady state reuses pooled scratch instead of growing the pool"
        );
    }

    /// Whether `p` runs on the dense (`ann == false`) or the IVF path.
    fn runs_on(p: plp_obs::Phase, ann: bool) -> bool {
        let dense_only = [phase::BATCH_MATMUL, phase::TOP_K];
        let ivf_only = [phase::IVF_SEARCH, phase::IVF_PROBE, phase::RE_RANK];
        !(if ann {
            dense_only.contains(&p)
        } else {
            ivf_only.contains(&p)
        })
    }

    /// Every phase of the table that runs on this path and declares a
    /// series has recorded into it; no other phase has.
    fn assert_series_follow_the_table(prometheus: &str, ann: bool) {
        for &p in phase::TABLE.phases {
            let count = format!("{}_count{{phase=\"{}\"}} ", phase::TABLE.family, p.name);
            let recorded = prometheus
                .lines()
                .filter_map(|line| line.strip_prefix(&count))
                .any(|n| n != "0");
            assert_eq!(
                recorded,
                p.series && runs_on(p, ann),
                "{} (ann={ann}) in:\n{prometheus}",
                p.name
            );
        }
    }

    #[test]
    fn instrumentation_keeps_results_bit_identical() {
        let rec = random_recommender(41, 6, 21);
        let queries = mixed_queries(41, 30, 22);
        let expected: Vec<Vec<usize>> = queries.iter().map(|q| sequential(&rec, q)).collect();
        let obs = Observer::with_memory_sink("serve-test");

        // A private training run reports into the same observer first, as
        // in a process that trains and then serves: both stacks must land
        // in one registry without disturbing each other.
        let prep = PreparedData::generate(&ExperimentConfig::small(23)).unwrap();
        let hp = Hyperparameters {
            embedding_dim: 6,
            negative_samples: 4,
            max_steps: 3,
            ..Hyperparameters::default()
        };
        let opts = TrainOptions {
            observer: obs.clone(),
            ..TrainOptions::default()
        };
        let trained = train_plp_resumable(23, &prep.train, None, &hp, &opts).unwrap();

        let engine = BatchEngine::with_observer(
            rec,
            ServeConfig {
                max_batch: 4,
                workers: 3,
                cache_capacity: 8,
                ann: None,
            },
            obs.clone(),
        )
        .unwrap();
        let got = engine.serve(&queries).unwrap();
        assert_eq!(got, expected, "observer must not change what is served");

        let text = obs.render_prometheus();
        assert_series_follow_the_table(&text, false);
        assert!(text.contains("plp_serve_queries_total 30"), "{text}");
        let train = plp_core::plp::phase::TABLE.family;
        let bucket_sgd = plp_core::plp::phase::BUCKET_SGD.name;
        assert!(
            text.contains(&format!("{train}_bucket{{phase=\"{bucket_sgd}\"")),
            "missing training phases in:\n{text}"
        );
        for gauge in ["plp_epsilon_spent", "plp_epsilon_budget"] {
            assert!(text.contains(gauge), "missing {gauge} in:\n{text}");
        }
        assert_eq!(
            obs.gauge("plp_epsilon_spent").get().to_bits(),
            trained.summary.epsilon_spent.to_bits(),
            "serving must leave the training gauges alone"
        );
    }

    #[test]
    fn latency_telemetry_is_bounded_by_histogram_buckets() {
        let rec = random_recommender(19, 4, 30);
        let engine = BatchEngine::new(
            rec,
            ServeConfig {
                max_batch: 8,
                workers: 2,
                cache_capacity: 16,
                ann: None,
            },
        )
        .unwrap();
        // Several passes, mixing fresh scoring and cache hits.
        for pass in 0..6 {
            let queries = mixed_queries(19, 25, 31 + (pass % 2));
            engine.serve(&queries).unwrap();
        }
        let t = engine.telemetry();
        assert_eq!(t.queries, 150);
        // One latency observation per query, held in a fixed-layout
        // histogram rather than a per-query Vec.
        let snapshot = engine
            .observer()
            .registry()
            .unwrap()
            .histogram("plp_serve_query_latency_ms")
            .snapshot();
        assert_eq!(snapshot.count(), 150);
        assert_eq!(
            snapshot.bucket_counts().len(),
            plp_obs::hist::NUM_BUCKETS,
            "telemetry storage is O(buckets), independent of query count"
        );
        assert!(t.p50_ms <= t.p95_ms && t.p95_ms <= t.p99_ms);
    }

    #[test]
    fn disabled_observer_is_upgraded_to_private_one() {
        let rec = random_recommender(9, 3, 40);
        let engine =
            BatchEngine::with_observer(rec, ServeConfig::default(), Observer::disabled()).unwrap();
        assert!(engine.observer().is_enabled());
        answer_one(&engine, Query::new(vec![1], 3));
        let t = engine.telemetry();
        assert_eq!(t.queries, 1);
        assert!(t.p99_ms >= 0.0);
    }

    #[test]
    fn config_is_validated() {
        let rec = random_recommender(4, 2, 1);
        let bad_batch = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            BatchEngine::new(rec.clone(), bad_batch),
            Err(ServeError::BadConfig {
                name: "max_batch",
                ..
            })
        ));
        let bad_workers = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            BatchEngine::new(rec, bad_workers),
            Err(ServeError::BadConfig {
                name: "workers",
                ..
            })
        ));
    }

    fn ann_cfg(cells: usize, nprobe: usize) -> ServeConfig {
        ServeConfig {
            max_batch: 4,
            workers: 2,
            cache_capacity: 0,
            ann: Some(AnnConfig {
                cells,
                nprobe,
                ..AnnConfig::default()
            }),
        }
    }

    #[test]
    fn ann_full_probe_is_bit_identical_to_dense_engine() {
        let rec = random_recommender(61, 6, 50);
        let queries = mixed_queries(61, 40, 51);
        let dense = BatchEngine::new(
            rec.clone(),
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let expected = dense.serve(&queries).unwrap();
        for workers in [1, 3] {
            let engine = BatchEngine::new(
                rec.clone(),
                ServeConfig {
                    workers,
                    ..ann_cfg(8, 8)
                },
            )
            .unwrap();
            let got = engine.serve(&queries).unwrap();
            assert_eq!(
                got, expected,
                "nprobe = cells must reproduce the dense engine (workers={workers})"
            );
        }
    }

    #[test]
    fn ann_results_are_worker_and_batch_invariant() {
        let rec = random_recommender(61, 6, 52);
        let queries = mixed_queries(61, 40, 53);
        // IVF and int8, striped and inline, against the sequential
        // indexed `Recommender` calls: fixed by (embedding, ann config),
        // never by the shape.
        let mut reference = None;
        for ann in [ann_cfg(8, 2), quant_cfg(8, 2)] {
            for (max_batch, workers) in SHAPES {
                let cfg = ServeConfig {
                    max_batch,
                    workers,
                    ..ann
                };
                let expected = assert_striped_and_inline_match_sequential(&rec, cfg, &queries);
                assert_eq!(reference.get_or_insert_with(|| expected.clone()), &expected);
            }
        }
    }

    fn quant_cfg(cells: usize, nprobe: usize) -> ServeConfig {
        let mut cfg = ann_cfg(cells, nprobe);
        let ann = cfg.ann.as_mut().unwrap();
        ann.quantized = true;
        ann.overfetch = 2;
        cfg
    }

    #[test]
    fn quantized_full_probe_is_bit_identical_to_dense_engine() {
        let rec = random_recommender(61, 6, 70);
        let queries = mixed_queries(61, 40, 71);
        let dense = BatchEngine::new(
            rec.clone(),
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let expected = dense.serve(&queries).unwrap();
        for workers in [1, 3] {
            let engine = BatchEngine::new(
                rec.clone(),
                ServeConfig {
                    workers,
                    ..quant_cfg(8, 8)
                },
            )
            .unwrap();
            let got = engine.serve(&queries).unwrap();
            assert_eq!(
                got, expected,
                "quantized nprobe = cells must reproduce the dense engine (workers={workers})"
            );
        }
    }

    #[test]
    fn quantized_matches_unquantized_at_every_probe_width() {
        // The int8 coarse pass is a pure shortlist: at any nprobe the
        // engine must return exactly what the unquantized ANN engine
        // returns, worker count and batch size notwithstanding.
        let rec = random_recommender(61, 6, 72);
        let queries = mixed_queries(61, 40, 73);
        for nprobe in [1, 3, 8] {
            let reference = BatchEngine::new(rec.clone(), ann_cfg(8, nprobe))
                .unwrap()
                .serve(&queries)
                .unwrap();
            for (max_batch, workers) in [(1, 1), (7, 3)] {
                let engine = BatchEngine::new(
                    rec.clone(),
                    ServeConfig {
                        max_batch,
                        workers,
                        ..quant_cfg(8, nprobe)
                    },
                )
                .unwrap();
                assert_eq!(
                    engine.serve(&queries).unwrap(),
                    reference,
                    "quantized must equal exact ANN (nprobe={nprobe}, max_batch={max_batch}, workers={workers})"
                );
            }
        }
    }

    #[test]
    fn quantized_engine_exposes_pack_and_validates_overfetch() {
        let rec = random_recommender(20, 4, 74);
        let engine = BatchEngine::new(rec.clone(), quant_cfg(4, 2)).unwrap();
        let quant = engine.ann_quant().expect("quantized config packs rows");
        assert_eq!(quant.dim(), 4);
        assert!(quant.payload_bytes() >= 20 * 4);
        let plain = BatchEngine::new(rec.clone(), ann_cfg(4, 2)).unwrap();
        assert!(plain.ann_quant().is_none());
        let mut bad = quant_cfg(4, 2);
        bad.ann.as_mut().unwrap().overfetch = 0;
        assert!(matches!(
            BatchEngine::new(rec, bad),
            Err(ServeError::BadConfig {
                name: "ann.overfetch",
                ..
            })
        ));
    }

    #[test]
    fn ann_config_is_validated() {
        let rec = random_recommender(10, 3, 54);
        for (cfg, knob) in [
            (ann_cfg(0, 1), "ann.cells"),
            (ann_cfg(4, 0), "ann.nprobe"),
            (ann_cfg(4, 5), "ann.nprobe"),
        ] {
            assert!(
                matches!(
                    BatchEngine::new(rec.clone(), cfg),
                    Err(ServeError::BadConfig { name, .. }) if name == knob
                ),
                "expected BadConfig for {knob}"
            );
        }
        let mut bad_iters = ann_cfg(4, 2);
        bad_iters.ann.as_mut().unwrap().kmeans_iters = 0;
        assert!(BatchEngine::new(rec.clone(), bad_iters).is_err());
        let mut bad_threads = ann_cfg(4, 2);
        bad_threads.ann.as_mut().unwrap().build_threads = 0;
        assert!(BatchEngine::new(rec.clone(), bad_threads).is_err());
        // More cells than locations is rejected by the index build.
        assert!(matches!(
            BatchEngine::new(rec, ann_cfg(11, 1)),
            Err(ServeError::Linalg(_))
        ));
    }

    #[test]
    fn scratch_is_sized_lazily_to_what_was_scored() {
        // Satellite regression: the old Scratch eagerly reserved
        // max_batch × vocab score rows per worker at construction — at
        // vocab 10⁶ and max_batch 64 that is ~512 MB per worker before
        // the first query. Scratch must now grow to the scored batch.
        let vocab = 12;
        let rec = random_recommender(vocab, 3, 55);
        let engine = BatchEngine::new(
            rec,
            ServeConfig {
                max_batch: 64,
                workers: 1,
                cache_capacity: 0,
                ann: None,
            },
        )
        .unwrap();
        let queries = mixed_queries(vocab, 3, 56);
        engine.serve(&queries).unwrap();
        let pool = engine.scratch_pool.lock().unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(
            pool[0].scores.len(),
            3 * vocab,
            "score scratch sized to the largest batch actually scored, not max_batch"
        );
    }

    #[test]
    fn tracing_keeps_results_bit_identical_and_covers_every_stage() {
        use plp_obs::trace::TraceConfig;

        let rec = random_recommender(61, 6, 60);
        let queries = mixed_queries(61, 20, 61);
        let ivf = AnnConfig {
            cells: 8,
            nprobe: 3,
            ..AnnConfig::default()
        };
        let quantized = AnnConfig {
            quantized: true,
            overfetch: 2,
            ..ivf
        };

        // A `max_batch` of 32 or more holds the whole 20-query call in one
        // batch, so those shapes trace the inline path.
        for (ann, (max_batch, workers)) in [None, Some(ivf), Some(quantized)]
            .into_iter()
            .flat_map(|ann| SHAPES.map(|shape| (ann, shape)))
        {
            let cfg = ServeConfig {
                max_batch,
                workers,
                cache_capacity: 8,
                ann,
            };
            let untraced = BatchEngine::new(rec.clone(), cfg).unwrap();
            let expected = untraced.serve(&queries).unwrap();
            assert_eq!(expected, sequential_on(&untraced, &queries));

            let obs = Observer::new("serve-traced");
            let tracer = obs.attach_tracer(TraceConfig::named("serve")).unwrap();
            let engine = BatchEngine::with_observer(rec.clone(), cfg, obs.clone()).unwrap();
            let got = engine.serve(&queries).unwrap();
            assert_eq!(got, expected, "a tracer must not change what is served");
            // Second pass: all cache hits, still identical.
            assert_eq!(engine.serve(&queries).unwrap(), expected);
            assert_series_follow_the_table(&obs.render_prometheus(), ann.is_some());

            // Every phase of this path shows up as a span whose id is the
            // recomputed pure function of the query sequence: the first
            // call's first query is number 0, first of its batch, and a
            // miss.
            let spans = tracer.snapshot();
            let tid = engine.query_ctx(0).trace_id;
            for &p in phase::TABLE.phases {
                let recorded = spans.iter().any(|s| {
                    s.name == p.name
                        && s.cat == phase::TABLE.cat
                        && s.trace_id == tid
                        && s.span_id == derive_span_id(tid, p.name, 0)
                });
                assert_eq!(recorded, runs_on(p, ann.is_some()), "{} ({cfg:?})", p.name);
            }
            assert_eq!(
                spans
                    .iter()
                    .filter(|s| s.name == phase::SERVE_QUERY.name)
                    .count(),
                2 * queries.len(),
                "one root span per query per call"
            );
            // Nothing floats free: a root has no parent, the per-query IVF
            // stages parent under their batch's search span, every other
            // phase under a query root.
            let ids_named = |name: &str| -> std::collections::BTreeSet<u64> {
                let named = spans.iter().filter(|s| s.name == name);
                named.map(|s| s.span_id).collect()
            };
            let roots = ids_named(phase::SERVE_QUERY.name);
            let searches = ids_named(phase::IVF_SEARCH.name);
            for s in &spans {
                let per_query_stage = [phase::IVF_PROBE.name, phase::RE_RANK.name];
                let parented = if s.name == phase::SERVE_QUERY.name {
                    s.parent_id == 0
                } else if per_query_stage.contains(&s.name) {
                    searches.contains(&s.parent_id)
                } else {
                    roots.contains(&s.parent_id)
                };
                assert!(parented, "span {} has a dangling parent", s.name);
            }
        }
    }

    #[test]
    fn ann_scratch_never_allocates_dense_score_rows() {
        let rec = random_recommender(40, 4, 57);
        let engine = BatchEngine::new(rec, ann_cfg(5, 2)).unwrap();
        assert_eq!(engine.ann_index().unwrap().cells(), 5);
        let queries = mixed_queries(40, 12, 58);
        engine.serve(&queries).unwrap();
        let pool = engine.scratch_pool.lock().unwrap();
        assert!(!pool.is_empty());
        for scratch in pool.iter() {
            assert!(
                scratch.scores.is_empty(),
                "ANN workers score shortlists; the vocab-wide dense rows must never exist"
            );
        }
    }
}
