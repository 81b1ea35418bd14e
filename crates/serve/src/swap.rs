//! Zero-downtime hot-swap serving over PLPS model generations.
//!
//! A training/publishing process drops `gen-<id>.plps` deployment bundles
//! ([`plp_model::plps::write_deployable`]) into a directory and atomically
//! renames a one-line `CURRENT` pointer file at it ([`publish_generation`]).
//! On the serving side a [`GenerationWatcher`] polls the pointer, and for
//! every new generation it:
//!
//! 1. opens the bundle zero-copy ([`plp_model::plps::PlpsSnapshot::open`] —
//!    mmap with an owned-read fallback),
//! 2. validates it off the query path (header + body CRCs + finiteness
//!    sweep) — a corrupt or torn candidate is *rejected* with a typed
//!    reason and the old generation keeps serving,
//! 3. builds the next generation's full serving state (IVF index, int8
//!    quantisation, fresh generation-keyed cache) in the watcher thread,
//! 4. swaps an `Arc<ModelGeneration>` into the [`HotSwapServer`] under a
//!    write lock held for the duration of one pointer store.
//!
//! Queries pin their generation: [`HotSwapServer::serve_pinned`] clones the
//! current `Arc` *before* scoring, so in-flight batches complete on the
//! generation they started on — a swap never drops or tears a batch, it
//! only changes which generation the *next* batch pins. Cached results
//! cannot leak across generations because every cache key carries the
//! generation id ([`crate::query::Query::key_for_generation`]) and each
//! generation owns a fresh cache.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plp_linalg::Matrix;
use plp_model::plps::{self, PlpsSnapshot};
use plp_model::ModelError;
use plp_obs::Observer;

use crate::engine::{BatchEngine, ServeConfig};
use crate::error::ServeError;
use crate::query::Query;

/// Name of the pointer file naming the live generation inside a publish
/// directory.
pub const CURRENT_POINTER: &str = "CURRENT";

/// Canonical file name of a generation bundle: zero-padded so that
/// lexicographic order is generation order.
pub fn generation_file_name(generation: u64) -> String {
    format!("gen-{generation:020}.plps")
}

/// Publishes a deployment bundle: writes `gen-<id>.plps` and *then* the
/// `CURRENT` pointer at it, each through [`plps::write_atomic`]. Readers
/// therefore always observe either the old complete generation or the new
/// complete one — never a torn file, because a pointed-to bundle is
/// complete before the pointer moves and is never rewritten in place.
///
/// Pass the already-normalised serving embedding
/// ([`plp_model::Recommender::embedding`]); its bytes are written verbatim
/// so mapped readers are bit-identical to the publisher.
///
/// # Errors
/// [`ServeError::Model`] wrapping an I/O failure.
pub fn publish_generation(
    dir: &Path,
    embedding: &Matrix,
    generation: u64,
) -> Result<PathBuf, ServeError> {
    let name = generation_file_name(generation);
    let bundle = dir.join(&name);
    plps::write_deployable(&bundle, embedding, generation)?;
    plps::write_atomic(&dir.join(CURRENT_POINTER), name.as_bytes()).map_err(|e| {
        ServeError::Model(ModelError::Io {
            message: e.to_string(),
        })
    })?;
    Ok(bundle)
}

/// Reads the `CURRENT` pointer of a publish directory.
///
/// Returns `Ok(None)` when no pointer has been published yet.
///
/// # Errors
/// [`ServeError::Model`] wrapping an I/O failure other than the pointer
/// being absent.
pub fn read_current(dir: &Path) -> Result<Option<PathBuf>, ServeError> {
    let pointer = dir.join(CURRENT_POINTER);
    match fs::read_to_string(&pointer) {
        Ok(name) => {
            let name = name.trim();
            if name.is_empty() {
                Ok(None)
            } else {
                Ok(Some(dir.join(name)))
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ServeError::Model(ModelError::Io {
            message: format!("{}: {e}", pointer.display()),
        })),
    }
}

/// One fully-built serving generation: the engine (recommender + IVF/quant
/// index + generation-keyed cache) plus provenance.
pub struct ModelGeneration {
    engine: BatchEngine,
    mapped: bool,
    path: PathBuf,
}

impl ModelGeneration {
    /// Loads and fully validates the bundle at `path`, then builds the
    /// serving engine for it (index construction happens here, off the
    /// query path). The snapshot is `validate()`d — body CRCs and a
    /// finiteness sweep — before any of its bytes reach an engine.
    ///
    /// # Errors
    /// [`ServeError::Model`] on open/validation failure (typed
    /// [`plp_model::SnapshotError`] inside for corrupt files), or any
    /// engine-construction error for this config.
    pub fn load(path: &Path, cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::load_with_observer(path, cfg, Observer::disabled())
    }

    /// As [`Self::load`], recording the generation engine's metrics into
    /// `obs`.
    ///
    /// # Errors
    /// As [`Self::load`].
    pub fn load_with_observer(
        path: &Path,
        cfg: ServeConfig,
        obs: Observer,
    ) -> Result<Self, ServeError> {
        let snap = PlpsSnapshot::open(path)?;
        snap.validate()?;
        let mapped = snap.is_mapped();
        let rec = snap.recommender()?;
        let engine = BatchEngine::with_observer_for_generation(rec, cfg, obs, snap.generation())?;
        Ok(ModelGeneration {
            engine,
            mapped,
            path: path.to_path_buf(),
        })
    }

    /// The generation id (stamped from the bundle header).
    pub fn id(&self) -> u64 {
        self.engine.generation()
    }

    /// `true` when the generation's embedding is served straight off a
    /// memory mapping (zero-copy).
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// The bundle file this generation was loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The serving engine of this generation.
    pub fn engine(&self) -> &BatchEngine {
        &self.engine
    }
}

/// The live-traffic face of hot-swap serving: holds the current
/// [`ModelGeneration`] behind an `RwLock<Arc<_>>`. Queries clone the `Arc`
/// (one read-lock acquisition, no allocation) and score outside the lock,
/// so a concurrent swap neither blocks in-flight batches nor is blocked by
/// them beyond the pointer store itself.
pub struct HotSwapServer {
    current: RwLock<Arc<ModelGeneration>>,
}

impl HotSwapServer {
    /// Starts serving on `initial`.
    pub fn new(initial: ModelGeneration) -> Self {
        HotSwapServer {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current generation, pinned: the returned `Arc` keeps the whole
    /// generation (mapping included) alive even if a swap retires it.
    pub fn current(&self) -> Arc<ModelGeneration> {
        Arc::clone(&self.current.read().expect("generation lock poisoned"))
    }

    /// The id of the currently-serving generation.
    pub fn generation(&self) -> u64 {
        self.current().id()
    }

    /// Answers a batch on the current generation, returning the id of the
    /// generation that actually answered alongside the results. The
    /// generation is pinned before scoring, so every result in the batch
    /// comes from that one generation even if a swap lands mid-batch.
    ///
    /// # Errors
    /// As [`BatchEngine::serve`].
    pub fn serve_pinned(&self, queries: &[Query]) -> Result<(u64, Vec<Vec<usize>>), ServeError> {
        let generation = self.current();
        let results = generation.engine().serve(queries)?;
        Ok((generation.id(), results))
    }

    /// Atomically replaces the serving generation, returning the id of the
    /// one it retired. In-flight batches holding the old `Arc` finish on
    /// it; its resources (cache, index, mapping) free once the last pin
    /// drops.
    pub fn swap(&self, next: ModelGeneration) -> u64 {
        let next = Arc::new(next);
        let mut slot = self.current.write().expect("generation lock poisoned");
        let old = slot.id();
        *slot = next;
        old
    }
}

/// The outcome of one watcher poll.
#[derive(Debug, Clone, PartialEq)]
pub enum SwapOutcome {
    /// No `CURRENT` pointer exists yet.
    NoPointer,
    /// The pointer names the generation already being served.
    Unchanged,
    /// A new generation was validated, built and swapped in.
    Swapped {
        /// Retired generation id.
        from: u64,
        /// Now-serving generation id.
        to: u64,
        /// Whether the new generation serves off a memory mapping.
        mapped: bool,
        /// Wall-clock milliseconds spent validating the candidate and
        /// building its engine (off the query path).
        build_ms: f64,
    },
    /// The candidate failed validation or loading; the previous generation
    /// keeps serving.
    Rejected {
        /// File the candidate was read from (as named by the pointer).
        file: String,
        /// Machine-readable reason class (e.g. `bad_crc`, `truncated_body`,
        /// `io`, `non_finite` — [`plp_model::SnapshotError::kind`] for
        /// snapshot damage).
        kind: String,
        /// Human-readable reason.
        reason: String,
    },
}

/// Classifies a candidate-load failure into the machine-readable reason
/// reported on [`SwapOutcome::Rejected`].
fn reject_kind(err: &ServeError) -> &'static str {
    match err {
        ServeError::Model(ModelError::Snapshot(e)) => e.kind(),
        ServeError::Model(ModelError::Io { .. }) => "io",
        ServeError::Model(ModelError::NonFinite { .. }) => "non_finite",
        ServeError::Model(_) => "model",
        _ => "other",
    }
}

/// Polls a publish directory's `CURRENT` pointer and hot-swaps a
/// [`HotSwapServer`] onto each new generation after validating and
/// building it off the query path. Corrupt, torn or truncated candidates
/// are rejected (typed) and the old generation keeps serving.
pub struct GenerationWatcher {
    dir: PathBuf,
    cfg: ServeConfig,
    server: Arc<HotSwapServer>,
    obs: Observer,
}

impl GenerationWatcher {
    /// A watcher over `dir` building generations with `cfg`, swapping
    /// `server`, reporting swap/reject events and counters into `obs`.
    pub fn new(dir: &Path, cfg: ServeConfig, server: Arc<HotSwapServer>, obs: Observer) -> Self {
        GenerationWatcher {
            dir: dir.to_path_buf(),
            cfg,
            server,
            obs,
        }
    }

    /// One poll: read the pointer, and if it names a generation other than
    /// the serving one, validate + build + swap. Never panics on damaged
    /// input; every failure becomes [`SwapOutcome::Rejected`].
    pub fn poll_once(&self) -> SwapOutcome {
        let candidate = match read_current(&self.dir) {
            Ok(Some(path)) => path,
            Ok(None) => return SwapOutcome::NoPointer,
            Err(e) => {
                return self.reject(CURRENT_POINTER.to_string(), &e);
            }
        };
        let file = candidate
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| candidate.display().to_string());
        // Cheap pre-check: an O(header) open is enough to read the id and
        // skip rebuilding the generation we already serve.
        let start = Instant::now();
        match PlpsSnapshot::open(&candidate) {
            Ok(snap) if snap.generation() == self.server.generation() => {
                return SwapOutcome::Unchanged;
            }
            Ok(_) => {}
            Err(e) => return self.reject(file, &ServeError::Model(e)),
        }
        match ModelGeneration::load(&candidate, self.cfg) {
            Ok(next) => {
                let build_ms = start.elapsed().as_secs_f64() * 1e3;
                let to = next.id();
                let mapped = next.is_mapped();
                let from = self.server.swap(next);
                self.obs.counter("plp_serve_swaps_total").inc();
                self.obs.gauge("plp_serve_generation").set(to as f64);
                self.obs.emit(
                    "serve_generation_swapped",
                    serde_json::json!({
                        "from": from,
                        "to": to,
                        "file": file,
                        "mapped": mapped,
                        "build_ms": build_ms,
                    }),
                );
                SwapOutcome::Swapped {
                    from,
                    to,
                    mapped,
                    build_ms,
                }
            }
            Err(e) => self.reject(file, &e),
        }
    }

    fn reject(&self, file: String, err: &ServeError) -> SwapOutcome {
        let kind = reject_kind(err).to_string();
        let reason = err.to_string();
        self.obs.counter("plp_serve_rejects_total").inc();
        self.obs.emit(
            "serve_generation_rejected",
            serde_json::json!({
                "file": file,
                "kind": kind,
                "reason": reason,
            }),
        );
        SwapOutcome::Rejected { file, kind, reason }
    }

    /// Moves the watcher onto a background thread polling every
    /// `interval`. Stop (and get the watcher back) via
    /// [`WatcherHandle::stop`].
    pub fn spawn(self, interval: Duration) -> WatcherHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("plp-gen-watcher".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    self.poll_once();
                    std::thread::sleep(interval);
                }
                self
            })
            .expect("spawn generation watcher");
        WatcherHandle { stop, join }
    }
}

/// Handle to a spawned [`GenerationWatcher`] thread.
pub struct WatcherHandle {
    stop: Arc<AtomicBool>,
    join: JoinHandle<GenerationWatcher>,
}

impl WatcherHandle {
    /// Signals the watcher thread to exit and joins it, returning the
    /// watcher for further synchronous polls.
    pub fn stop(self) -> GenerationWatcher {
        self.stop.store(true, Ordering::Relaxed);
        self.join.join().expect("generation watcher panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnnConfig;
    use plp_model::recommender::RecommendScratch;
    use plp_model::{ModelParams, Recommender};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::Barrier;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plp_swap_test_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recommender(vocab: usize, dim: usize, seed: u64) -> Recommender {
        let mut rng = StdRng::seed_from_u64(seed);
        Recommender::new(&ModelParams::init(&mut rng, vocab, dim).unwrap())
    }

    /// `n` queries of one to four recent tokens for the top 8; every
    /// second one excludes its own history.
    fn queries(vocab: usize, n: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let len = rng.random_range(1usize..=4);
                let recent: Vec<usize> = (0..len).map(|_| rng.random_range(0..vocab)).collect();
                let exclude = if i % 2 == 0 { vec![] } else { recent.clone() };
                Query::with_exclusions(recent, 8, exclude)
            })
            .collect()
    }

    /// The recommender's own answers, one query at a time.
    fn sequential_reference(rec: &Recommender, queries: &[Query]) -> Vec<Vec<usize>> {
        let mut scratch = RecommendScratch::new();
        queries
            .iter()
            .map(|q| {
                rec.recommend_excluding_into(&q.recent, q.k, &q.exclude, &mut scratch)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn a_loaded_generation_serves_like_a_fresh_engine_on_every_path() {
        // Dense, partial-probe IVF, full-probe IVF and int8 IVF: a
        // generation served off the published bundle's mapping answers
        // exactly as an engine built over the publisher's recommender.
        let vocab = 400;
        let rec = recommender(vocab, 12, 0x5AFE);
        let dir = tmp_dir("identity");
        let path = publish_generation(&dir, rec.embedding(), 1).unwrap();
        let ivf = AnnConfig {
            cells: 8,
            nprobe: 3,
            kmeans_iters: 4,
            kmeans_sample: vocab,
            seed: 0x5AFE ^ 0x1F,
            build_threads: 2,
            quantized: false,
            overfetch: 4,
        };
        let full_probe = AnnConfig {
            nprobe: ivf.cells,
            ..ivf
        };
        let int8 = AnnConfig {
            quantized: true,
            ..ivf
        };
        let qs = queries(vocab, 96, 0xA);
        for ann in [None, Some(ivf), Some(full_probe), Some(int8)] {
            let cfg = ServeConfig {
                max_batch: 16,
                workers: 2,
                cache_capacity: 128,
                ann,
            };
            let loaded = ModelGeneration::load(&path, cfg).unwrap();
            assert!(loaded.is_mapped(), "{ann:?}: a bundle on disk is mapped");
            let fresh = BatchEngine::new(rec.clone(), cfg).unwrap();
            assert_eq!(
                loaded.engine().serve(&qs).unwrap(),
                fresh.serve(&qs).unwrap(),
                "{ann:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swaps_under_concurrent_queries_answer_from_one_generation() {
        // Ten generations published and swapped in while two threads keep
        // querying: no wave errors, and every wave equals the sequential
        // answers of the one generation that served it.
        let (swaps, vocab) = (10u64, 300);
        let dir = tmp_dir("hammer");
        let cfg = ServeConfig {
            max_batch: 16,
            workers: 2,
            cache_capacity: 256,
            ann: None,
        };
        let qs = queries(vocab, 48, 7);
        let recs: Vec<Recommender> = (1..=swaps + 1)
            .map(|g| recommender(vocab, 8, 0x100 + g))
            .collect();
        let expected: Vec<_> = recs.iter().map(|r| sequential_reference(r, &qs)).collect();
        publish_generation(&dir, recs[0].embedding(), 1).unwrap();
        let server = Arc::new(HotSwapServer::new(
            ModelGeneration::load(&dir.join(generation_file_name(1)), cfg).unwrap(),
        ));
        let watcher = GenerationWatcher::new(&dir, cfg, Arc::clone(&server), Observer::disabled());

        // One wave as (errored, wrong) counts.
        let wave = || match server.serve_pinned(&qs) {
            Ok((gen, got)) => (0, usize::from(expected.get(gen as usize - 1) != Some(&got))),
            Err(_) => (1, 0),
        };
        let started = Barrier::new(3);
        let done = AtomicBool::new(false);
        let (outcomes, waves) = std::thread::scope(|s| {
            let hammers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        // Every thread has a wave in before the first swap.
                        let mut tally = wave();
                        started.wait();
                        while !done.load(Ordering::Relaxed) {
                            let (errored, wrong) = wave();
                            tally = (tally.0 + errored, tally.1 + wrong);
                        }
                        tally
                    })
                })
                .collect();
            started.wait();
            // Nothing on this thread may panic before `done` is set, or
            // the query threads would never stop.
            let outcomes: Vec<_> = (2..=swaps + 1)
                .map(|g| {
                    publish_generation(&dir, recs[g as usize - 1].embedding(), g)
                        .map(|_| watcher.poll_once())
                })
                .collect();
            done.store(true, Ordering::Relaxed);
            let waves: Vec<_> = hammers.into_iter().map(|h| h.join().unwrap()).collect();
            (outcomes, waves)
        });

        for (g, outcome) in (2..).zip(&outcomes) {
            assert!(
                matches!(outcome, Ok(SwapOutcome::Swapped { to, .. }) if *to == g),
                "generation {g}: {outcome:?}"
            );
        }
        assert_eq!(waves, [(0, 0), (0, 0)], "(errored, wrong) waves per thread");
        let fresh = BatchEngine::new(recs[swaps as usize].clone(), cfg).unwrap();
        assert_eq!(
            server.serve_pinned(&qs).unwrap(),
            (swaps + 1, fresh.serve(&qs).unwrap())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            workers: 2,
            cache_capacity: 64,
            ann: None,
        }
    }

    #[test]
    fn publish_then_watch_swaps_and_pins() {
        let dir = tmp_dir("swap");
        let rec0 = recommender(12, 4, 1);
        let rec1 = recommender(12, 4, 2);
        publish_generation(&dir, rec0.embedding(), 1).unwrap();

        let initial = ModelGeneration::load(&read_current(&dir).unwrap().unwrap(), cfg()).unwrap();
        assert_eq!(initial.id(), 1);
        let server = Arc::new(HotSwapServer::new(initial));
        let watcher =
            GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), Observer::disabled());
        assert_eq!(watcher.poll_once(), SwapOutcome::Unchanged);

        let queries = vec![Query::new(vec![0, 3], 4), Query::new(vec![5], 3)];
        let (gen, before) = server.serve_pinned(&queries).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(before[0], rec0.recommend(&[0, 3], 4).unwrap());

        publish_generation(&dir, rec1.embedding(), 2).unwrap();
        match watcher.poll_once() {
            SwapOutcome::Swapped {
                from, to, build_ms, ..
            } => {
                assert_eq!((from, to), (1, 2));
                assert!(build_ms >= 0.0);
            }
            other => panic!("expected swap, got {other:?}"),
        }
        let (gen, after) = server.serve_pinned(&queries).unwrap();
        assert_eq!(gen, 2);
        assert_eq!(after[0], rec1.recommend(&[0, 3], 4).unwrap());
        assert_eq!(after[1], rec1.recommend(&[5], 3).unwrap());
    }

    #[test]
    fn in_flight_pin_survives_swap() {
        let dir = tmp_dir("pin");
        let rec0 = recommender(10, 3, 3);
        let rec1 = recommender(10, 3, 4);
        publish_generation(&dir, rec0.embedding(), 5).unwrap();
        let server = Arc::new(HotSwapServer::new(
            ModelGeneration::load(&dir.join(generation_file_name(5)), cfg()).unwrap(),
        ));
        // Pin generation 5, then swap to 6 "mid-batch".
        let pinned = server.current();
        publish_generation(&dir, rec1.embedding(), 6).unwrap();
        let watcher =
            GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), Observer::disabled());
        assert!(matches!(watcher.poll_once(), SwapOutcome::Swapped { .. }));
        // The pinned engine still answers with the old generation's model.
        let q = vec![Query::new(vec![2, 7], 3)];
        let old = pinned.engine().serve(&q).unwrap();
        assert_eq!(old[0], rec0.recommend(&[2, 7], 3).unwrap());
        assert_eq!(pinned.id(), 5);
        assert_eq!(server.generation(), 6);
    }

    /// A server on generation `id` of `rec`, loaded from its bundle in
    /// `dir` — written, not published, so no `CURRENT` pointer names it.
    fn serving(dir: &Path, rec: &Recommender, id: u64) -> Arc<HotSwapServer> {
        let bundle = dir.join(generation_file_name(id));
        plps::write_deployable(&bundle, rec.embedding(), id).unwrap();
        Arc::new(HotSwapServer::new(
            ModelGeneration::load(&bundle, cfg()).unwrap(),
        ))
    }

    #[test]
    fn missing_pointer_and_missing_target_are_safe() {
        let dir = tmp_dir("missing");
        let server = serving(&dir, &recommender(8, 3, 5), 0);
        let watcher =
            GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), Observer::disabled());
        // A publisher killed while writing the next bundle leaves a
        // half-written tmp file beside it and the pointer untouched.
        let stray = format!("{}.tmp", generation_file_name(1));
        fs::write(dir.join(stray), [0u8; 999]).unwrap();
        assert_eq!(watcher.poll_once(), SwapOutcome::NoPointer);
        fs::write(dir.join(CURRENT_POINTER), generation_file_name(0)).unwrap();
        assert_eq!(watcher.poll_once(), SwapOutcome::Unchanged);
        // Pointer names a file that does not exist (torn publish).
        fs::write(dir.join(CURRENT_POINTER), "gen-nope.plps").unwrap();
        match watcher.poll_once() {
            SwapOutcome::Rejected { kind, .. } => assert_eq!(kind, "io"),
            other => panic!("expected reject, got {other:?}"),
        }
        assert_eq!(server.generation(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_candidate_is_rejected_with_typed_kind_and_old_gen_serves() {
        let dir = tmp_dir("corrupt");
        let rec0 = recommender(9, 4, 6);
        let rec1 = recommender(9, 4, 7);
        publish_generation(&dir, rec0.embedding(), 1).unwrap();
        let server = Arc::new(HotSwapServer::new(
            ModelGeneration::load(&dir.join(generation_file_name(1)), cfg()).unwrap(),
        ));
        let obs = Observer::new("swap-test");
        let watcher = GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), obs.clone());

        // Publish gen 2, then flip a body bit (the pointer already moved,
        // simulating corruption of the published file itself).
        let path = publish_generation(&dir, rec1.embedding(), 2).unwrap();
        let mut raw = fs::read(&path).unwrap();
        let at = raw.len() - 5;
        raw[at] ^= 0x20;
        fs::write(&path, &raw).unwrap();
        match watcher.poll_once() {
            SwapOutcome::Rejected { kind, file, .. } => {
                assert_eq!(kind, "bad_crc");
                assert_eq!(file, generation_file_name(2));
            }
            other => panic!("expected reject, got {other:?}"),
        }
        // Still serving generation 1, bit-identically.
        let (gen, res) = server.serve_pinned(&[Query::new(vec![1], 3)]).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(res[0], rec0.recommend(&[1], 3).unwrap());

        // Repair the file: the same watcher then swaps onto it.
        plps::write_deployable(&path, rec1.embedding(), 2).unwrap();
        assert!(matches!(watcher.poll_once(), SwapOutcome::Swapped { .. }));
        assert_eq!(server.generation(), 2);
    }

    #[test]
    fn truncated_candidate_is_rejected_typed() {
        let dir = tmp_dir("trunc");
        let rec = recommender(9, 4, 8);
        let server = serving(&dir, &recommender(9, 4, 9), 0);
        let watcher =
            GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), Observer::disabled());
        let path = publish_generation(&dir, rec.embedding(), 3).unwrap();
        let raw = fs::read(&path).unwrap();
        // Cut inside the body: the table points past EOF.
        fs::write(&path, &raw[..raw.len() - 16]).unwrap();
        match watcher.poll_once() {
            SwapOutcome::Rejected { kind, .. } => assert_eq!(kind, "truncated_body"),
            other => panic!("expected reject, got {other:?}"),
        }
        // Cut inside the header block itself.
        fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        match watcher.poll_once() {
            SwapOutcome::Rejected { kind, .. } => assert_eq!(kind, "truncated_header"),
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn spawned_watcher_swaps_in_background() {
        let dir = tmp_dir("spawn");
        let rec0 = recommender(11, 3, 10);
        let rec1 = recommender(11, 3, 11);
        publish_generation(&dir, rec0.embedding(), 1).unwrap();
        let server = Arc::new(HotSwapServer::new(
            ModelGeneration::load(&dir.join(generation_file_name(1)), cfg()).unwrap(),
        ));
        let watcher =
            GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), Observer::disabled());
        let handle = watcher.spawn(Duration::from_millis(2));
        publish_generation(&dir, rec1.embedding(), 2).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.generation() != 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let watcher = handle.stop();
        assert_eq!(server.generation(), 2);
        assert_eq!(watcher.poll_once(), SwapOutcome::Unchanged);
    }

    #[test]
    fn cache_is_generation_scoped() {
        // Same query, two generations with different models: the cache
        // must not replay generation 1's answer after the swap.
        let dir = tmp_dir("cachegen");
        let rec0 = recommender(10, 4, 12);
        let rec1 = recommender(10, 4, 13);
        publish_generation(&dir, rec0.embedding(), 1).unwrap();
        let server = Arc::new(HotSwapServer::new(
            ModelGeneration::load(&dir.join(generation_file_name(1)), cfg()).unwrap(),
        ));
        let q = vec![Query::new(vec![4, 2], 5)];
        // Serve twice so the result is definitely cached on gen 1.
        server.serve_pinned(&q).unwrap();
        let (_, first) = server.serve_pinned(&q).unwrap();
        assert_eq!(first[0], rec0.recommend(&[4, 2], 5).unwrap());
        publish_generation(&dir, rec1.embedding(), 2).unwrap();
        let watcher =
            GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), Observer::disabled());
        assert!(matches!(watcher.poll_once(), SwapOutcome::Swapped { .. }));
        let (gen, second) = server.serve_pinned(&q).unwrap();
        assert_eq!(gen, 2);
        assert_eq!(second[0], rec1.recommend(&[4, 2], 5).unwrap());
    }
}

#[cfg(test)]
mod corruption_props {
    //! Satellite 3: whatever damage a candidate file carries — truncation,
    //! bit flips, torn pointer targets — the watcher must never swap onto
    //! it and must keep serving the old generation bit-identically.

    use super::*;
    use plp_model::{ModelParams, Recommender};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> ServeConfig {
        ServeConfig {
            max_batch: 4,
            workers: 1,
            cache_capacity: 16,
            ann: None,
        }
    }

    fn fixture(tag: &str) -> (PathBuf, Recommender, Arc<HotSwapServer>, GenerationWatcher) {
        let dir = std::env::temp_dir().join(format!("plp_swap_prop_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let rec = Recommender::new(&ModelParams::init(&mut rng, 8, 3).unwrap());
        publish_generation(&dir, rec.embedding(), 1).unwrap();
        let server = Arc::new(HotSwapServer::new(
            ModelGeneration::load(&dir.join(generation_file_name(1)), cfg()).unwrap(),
        ));
        let watcher =
            GenerationWatcher::new(&dir, cfg(), Arc::clone(&server), Observer::disabled());
        (dir, rec, server, watcher)
    }

    fn assert_still_serving_gen1(server: &HotSwapServer, rec: &Recommender) {
        let (gen, res) = server.serve_pinned(&[Query::new(vec![2, 5], 4)]).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(res[0], rec.recommend(&[2, 5], 4).unwrap());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn truncated_candidates_never_swap(cut_frac in 0usize..1000) {
            let (dir, rec, server, watcher) = fixture("trunc");
            let mut rng = StdRng::seed_from_u64(7);
            let next = Recommender::new(&ModelParams::init(&mut rng, 8, 3).unwrap());
            let path = publish_generation(&dir, next.embedding(), 2).unwrap();
            let raw = fs::read(&path).unwrap();
            let cut = cut_frac * raw.len() / 1000;
            prop_assert!(cut < raw.len());
            fs::write(&path, &raw[..cut]).unwrap();
            let outcome = watcher.poll_once();
            prop_assert!(
                matches!(outcome, SwapOutcome::Rejected { .. }),
                "truncation at {cut} must reject, got {outcome:?}"
            );
            prop_assert_eq!(server.generation(), 1);
            assert_still_serving_gen1(&server, &rec);
        }

        #[test]
        fn bit_flipped_candidates_never_swap(at_frac in 0usize..1000, bit in 0usize..8) {
            let (dir, rec, server, watcher) = fixture("flip");
            let mut rng = StdRng::seed_from_u64(8);
            let next = Recommender::new(&ModelParams::init(&mut rng, 8, 3).unwrap());
            let path = publish_generation(&dir, next.embedding(), 2).unwrap();
            let mut raw = fs::read(&path).unwrap();
            let at = at_frac * raw.len() / 1000;
            prop_assert!(at < raw.len());
            raw[at] ^= 1 << bit;
            fs::write(&path, &raw).unwrap();
            let outcome = watcher.poll_once();
            match outcome {
                SwapOutcome::Rejected { .. } => {
                    prop_assert_eq!(server.generation(), 1);
                    assert_still_serving_gen1(&server, &rec);
                }
                // A flip of an unread pad byte inside the header block
                // cannot survive: the header CRC covers all of it. Body
                // flips fail the body CRC. So rejection is the only
                // acceptable outcome.
                other => prop_assert!(false, "bit flip must reject, got {other:?}"),
            }
        }

        #[test]
        fn torn_pointer_targets_never_swap(len_frac in 0usize..1000) {
            // A writer killed mid-publish can leave a pointer at a file
            // that is absent or garbage; the watcher must reject and keep
            // serving.
            let (dir, rec, server, watcher) = fixture("torn");
            let garbage = vec![0xABu8; len_frac * 4096 / 1000];
            fs::write(dir.join("gen-torn.plps"), &garbage).unwrap();
            fs::write(dir.join(CURRENT_POINTER), "gen-torn.plps").unwrap();
            let outcome = watcher.poll_once();
            prop_assert!(
                matches!(outcome, SwapOutcome::Rejected { .. }),
                "torn target must reject, got {outcome:?}"
            );
            prop_assert_eq!(server.generation(), 1);
            assert_still_serving_gen1(&server, &rec);
        }
    }
}
