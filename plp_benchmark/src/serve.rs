//! The three serving workloads. All share one load shape (see `load`):
//! a discarded warm-up, an open loop at the light rate `r1`, an open loop
//! at the working rate `r2`, then closed-loop saturation. They differ in
//! what the engine must do per query — dense scan behind a cache
//! (`serve_paper`), quantized IVF with no cache (`serve_city`), f64 IVF
//! behind the hot-swap server while generations are published beside the
//! traffic (`serve_swap`).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plp_data::generator::{GeneratorConfig, SyntheticGenerator};
use plp_linalg::ivf::{IvfBuildParams, IvfIndex, IvfQuant, IvfScratch};
use plp_mmap::Mmap;
use plp_model::plps::{self, PlpsSnapshot};
use plp_model::recommender::RecommendScratch;
use plp_model::Recommender;
use plp_obs::{Observer, TraceConfig};
use plp_serve::swap::generation_file_name;
use plp_serve::{
    publish_generation, AnnConfig, BatchEngine, GenerationWatcher, HotSwapServer, LruCache,
    ModelGeneration, Query, QueryKey, ServeConfig, SwapOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host;
use crate::inputs::{self, derive, Domain, Popularity};
use crate::kernels::{self, secs_per_call};
use crate::load::{closed_loop, open_loop, Kept, PhaseOpts, PhaseOutcome, ServeFn};
use crate::report::{artifact_dir, metric_in, untraced_reference, PhaseRow, Report};
use crate::spec::{
    ServeSpec, KMEANS_ITERS, KMEANS_SAMPLE, MAX_BATCH, MAX_WAVE, NPROBE, OVERFETCH, RECALL_SAMPLE,
    ROUNDS, SATURATION_WAVE, SLO_MS, SWAP_CLUSTERS, SWAP_LOCATIONS, SWAP_WINDOW_MS, WARMUP_SECS,
};
use crate::stats::{median, percentile_sorted, sort};
use crate::trace::{Span, SpanLog};
use crate::{timed_setups, RunArgs};

/// Seed of the IVF k-means initialisation: a constant of the engine
/// configuration, not an input.
const ANN_SEED: u64 = 0xA55_C0DE;
/// `k` values the contexts cycle through where the cache is on.
const KS_MIXED: [usize; 3] = [5, 10, 20];
/// A percentile needs this many samples in its window before it is
/// reported: ten beyond a p99.
const MIN_TAIL_SAMPLES: usize = 1_000;
/// Time budget of one replayed layer.
const REPLAY_BUDGET: Duration = Duration::from_millis(120);

/// Which of the three workloads is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense scan, cache on.
    Paper,
    /// Quantized IVF, cache off.
    City,
    /// f64 IVF behind the hot-swap server.
    Swap,
}

fn generator_config(kind: Kind) -> GeneratorConfig {
    match kind {
        Kind::Paper => GeneratorConfig::default(),
        Kind::City => GeneratorConfig::city(),
        Kind::Swap => GeneratorConfig {
            num_locations: SWAP_LOCATIONS,
            num_clusters: SWAP_CLUSTERS,
            ..GeneratorConfig::city()
        },
    }
}

fn ivf_params(spec: &ServeSpec) -> IvfBuildParams {
    IvfBuildParams {
        cells: spec.cells,
        iters: KMEANS_ITERS,
        sample: KMEANS_SAMPLE,
        seed: ANN_SEED,
        threads: host::nproc().min(2),
    }
}

fn serve_config(spec: &ServeSpec) -> ServeConfig {
    let p = ivf_params(spec);
    ServeConfig {
        max_batch: MAX_BATCH,
        workers: spec.workers.min(host::nproc()),
        cache_capacity: spec.cache_capacity,
        ann: (spec.cells > 0).then_some(AnnConfig {
            cells: p.cells,
            nprobe: NPROBE,
            kmeans_iters: p.iters,
            kmeans_sample: p.sample,
            seed: p.seed,
            build_threads: p.threads,
            quantized: spec.quantized,
            overfetch: OVERFETCH,
        }),
    }
}

/// What answers queries.
enum Target {
    Engine(Box<BatchEngine>),
    Swap(Arc<HotSwapServer>),
}

/// Everything one set-up produces.
struct Built {
    world: SyntheticGenerator,
    /// The model of generation 1 (the only one outside `serve_swap`).
    rec: Recommender,
    target: Target,
}

/// One complete set-up: world, embedding, and the serving target — engine
/// with its index, or first bundle + loaded generation + server.
fn build(kind: Kind, spec: &ServeSpec, seed: u64, obs: &Observer, publish_dir: &Path) -> Built {
    let mut rng = StdRng::seed_from_u64(derive(seed, Domain::World, 0));
    let world = SyntheticGenerator::new(&mut rng, generator_config(kind)).expect("world");
    let rec = model_of_generation(&world, spec, seed, 1);
    let cfg = serve_config(spec);
    let target = match kind {
        Kind::Paper | Kind::City => Target::Engine(Box::new(
            BatchEngine::with_observer(rec.clone(), cfg, obs.clone()).expect("engine"),
        )),
        Kind::Swap => {
            let _ = std::fs::remove_dir_all(publish_dir);
            std::fs::create_dir_all(publish_dir).expect("create publish directory");
            let bundle = publish_generation(publish_dir, rec.embedding(), 1).expect("publish");
            let first =
                ModelGeneration::load_with_observer(&bundle, cfg, obs.clone()).expect("load");
            Target::Swap(Arc::new(HotSwapServer::new(first)))
        }
    };
    Built { world, rec, target }
}

/// The model published as generation `g`: same city, fresh embedding.
fn model_of_generation(
    world: &SyntheticGenerator,
    spec: &ServeSpec,
    seed: u64,
    g: u64,
) -> Recommender {
    let embedding = inputs::city_embedding(world, spec.dim, derive(seed, Domain::Embedding, g));
    Recommender::from_embedding(embedding).expect("finite embedding")
}

/// A phase's inputs: the queries in arrival order, their due times, and
/// which context each one is.
struct PhaseInputs {
    queries: Vec<Query>,
    due_ns: Vec<u64>,
    order: Vec<u32>,
}

fn open_phase_inputs(
    contexts: &[Query],
    popularity: Popularity,
    rate_qps: f64,
    secs: f64,
    seed: u64,
    index: u64,
) -> PhaseInputs {
    let due_ns = inputs::poisson_schedule(rate_qps, secs, derive(seed, Domain::Schedule, index));
    let order = inputs::stream(
        contexts.len(),
        due_ns.len(),
        popularity,
        derive(seed, Domain::Stream, index),
    );
    let queries = order
        .iter()
        .map(|&i| contexts[i as usize].clone())
        .collect();
    PhaseInputs {
        queries,
        due_ns,
        order,
    }
}

/// The sequential `Recommender` answer on the scoring path the engine
/// uses — the reference every served answer must equal bit for bit.
struct Reference<'a> {
    rec: &'a Recommender,
    index: Option<&'a IvfIndex>,
    quant: Option<&'a IvfQuant>,
    scratch: RecommendScratch,
}

impl<'a> Reference<'a> {
    fn new(rec: &'a Recommender, index: Option<&'a IvfIndex>, quant: Option<&'a IvfQuant>) -> Self {
        Reference {
            rec,
            index,
            quant,
            scratch: RecommendScratch::new(),
        }
    }

    fn answer(&mut self, q: &Query, k: usize) -> Vec<usize> {
        match (self.index, self.quant) {
            (Some(index), Some(quant)) => {
                self.rec
                    .recommend_indexed_quantized_into(
                        index,
                        quant,
                        &q.recent,
                        k,
                        &q.exclude,
                        NPROBE,
                        OVERFETCH,
                        &mut self.scratch,
                    )
                    .expect("reference query")
                    .0
            }
            (Some(index), None) => self
                .rec
                .recommend_indexed_into(index, &q.recent, k, &q.exclude, NPROBE, &mut self.scratch)
                .expect("reference query"),
            (None, _) => self.exhaustive(q, k),
        }
    }

    fn exhaustive(&mut self, q: &Query, k: usize) -> Vec<usize> {
        self.rec
            .recommend_excluding_into(&q.recent, k, &q.exclude, &mut self.scratch)
            .expect("reference query")
    }
}

/// Mean recall@10 of the scoring path against the exhaustive scan over the
/// first [`RECALL_SAMPLE`] contexts.
fn recall_at_10(reference: &mut Reference<'_>, contexts: &[Query]) -> (f64, usize) {
    let sample = &contexts[..contexts.len().min(RECALL_SAMPLE)];
    let mut total = 0.0;
    for q in sample {
        let exact = reference.exhaustive(q, 10);
        let got = reference.answer(q, 10);
        total += exact.iter().filter(|t| got.contains(t)).count() as f64 / exact.len() as f64;
    }
    (total / sample.len() as f64, sample.len())
}

/// One publish + swap as the publisher thread saw it.
#[derive(Debug, Clone)]
struct SwapRecord {
    generation: u64,
    publish_start: Instant,
    publish_ms: f64,
    poll_ms: f64,
    swapped: bool,
    rejected: bool,
}

/// The publisher thread: one `publish_generation` + `poll_once` per second
/// (first at half a second, so a swap never sits on a window boundary),
/// until every generation is out or the dispatcher is done. A publisher
/// that has fallen behind on a slow host does not catch up in a burst: a
/// swap starts no sooner than half a second after the last one ended, or a
/// generation could be replaced before a query reached it.
fn publisher(
    dir: &Path,
    watcher: &GenerationWatcher,
    models: &[Recommender],
    stop: &AtomicBool,
    epoch: Instant,
    traced: bool,
) -> (Vec<SwapRecord>, Vec<Span>) {
    let mut log = SpanLog::with_epoch(epoch, if traced { 3 * models.len() } else { 0 });
    let mut records = Vec::with_capacity(models.len());
    let start = Instant::now();
    let mut earliest = start;
    for (i, model) in models.iter().enumerate() {
        let at = (start + Duration::from_secs_f64(i as f64 + 0.5)).max(earliest);
        loop {
            if stop.load(Ordering::Relaxed) {
                return (records, log.into_spans());
            }
            if Instant::now() >= at {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let generation = i as u64 + 2;
        let publish_start = Instant::now();
        let published = publish_generation(dir, model.embedding(), generation);
        let polled_from = Instant::now();
        let outcome = watcher.poll_once();
        let end = Instant::now();
        if traced {
            let root = log.record("swap", publish_start, end, 0, generation, 1);
            log.record("publish", publish_start, polled_from, root, generation, 1);
            log.record("poll", polled_from, end, root, generation, 1);
        }
        records.push(SwapRecord {
            generation,
            publish_start,
            publish_ms: (polled_from - publish_start).as_secs_f64() * 1e3,
            poll_ms: (end - polled_from).as_secs_f64() * 1e3,
            swapped: published.is_ok()
                && matches!(outcome, SwapOutcome::Swapped { to, .. } if to == generation),
            rejected: matches!(outcome, SwapOutcome::Rejected { .. }),
        });
        earliest = end + Duration::from_millis(500);
    }
    (records, log.into_spans())
}

fn p(sorted: &[f64], q: f64) -> f64 {
    percentile_sorted(sorted, q)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    sort(&mut v);
    v
}

/// Latencies of a phase, pooled over its rounds and sorted.
fn pooled_latency(rounds: &[PhaseOutcome]) -> Vec<f64> {
    sorted(
        rounds
            .iter()
            .flat_map(|r| r.latency.iter().map(|&(_, l)| l))
            .collect(),
    )
}

/// p99 from due time of every round that holds enough samples for one;
/// the phase's figure is the median of these, so a stall that spoils one
/// round moves one vote and not the figure.
fn round_p99s(rounds: &[PhaseOutcome]) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| r.latency.len() >= MIN_TAIL_SAMPLES)
        .map(|r| p(&pooled_latency(std::slice::from_ref(r)), 0.99))
        .collect()
}

fn total(rounds: &[PhaseOutcome], field: impl Fn(&PhaseOutcome) -> usize) -> usize {
    rounds.iter().map(field).sum()
}

fn phase_row(name: &str, rounds: &[PhaseOutcome]) -> PhaseRow {
    PhaseRow {
        name: name.to_string(),
        sent: total(rounds, |r| r.sent) as u64,
        succeeded: total(rounds, |r| r.succeeded) as u64,
        failed: total(rounds, |r| r.failed) as u64,
        samples: total(rounds, |r| r.latency.len().max(r.waves.len())) as u64,
    }
}

/// What the measured window observed: one outcome per phase per round.
#[derive(Default)]
struct Measured {
    r1: Vec<PhaseOutcome>,
    r2: Vec<PhaseOutcome>,
    saturation: Vec<PhaseOutcome>,
}

impl Measured {
    fn all(&self) -> impl Iterator<Item = &PhaseOutcome> {
        self.r1.iter().chain(&self.r2).chain(&self.saturation)
    }
}

/// Runs a serving workload and reports it.
///
/// # Panics
/// On any error from the program under test outside the measured calls: a
/// benchmark input on which set-up fails is a defect of the benchmark.
#[allow(clippy::too_many_lines)]
pub fn run(workload: &'static str, kind: Kind, spec: &ServeSpec, args: &RunArgs) -> Report {
    let mut report = Report::new(workload, args.traced, args.seed, args.seconds);
    let cfg = serve_config(spec);
    let obs = Observer::new("plp_benchmark");
    if args.traced {
        obs.attach_tracer(TraceConfig::named(workload));
    }
    let publish_dir = artifact_dir().join(format!("{workload}.publish.{}", std::process::id()));

    let (setup_s, Built { world, rec, target }) =
        timed_setups(|| build(kind, spec, args.seed, &obs, &publish_dir));

    // ---- inputs: contexts, then one stream + schedule per phase and round ----
    let ks: &[usize] = if kind == Kind::City { &[10] } else { &KS_MIXED };
    let contexts = inputs::contexts(
        &world,
        spec.contexts,
        ks,
        derive(args.seed, Domain::Contexts, 0),
    );
    let popularity = spec.zipf.map_or(Popularity::Uniform, Popularity::Zipf);
    let [r1_s, r2_s, sat_s] = spec
        .shares
        .map(|share| share * args.seconds as f64 / ROUNDS as f64);
    let phase = |rate: f64, secs: f64, index: usize| {
        open_phase_inputs(&contexts, popularity, rate, secs, args.seed, index as u64)
    };
    let rounds_of = |rate: f64, secs: f64, base: usize| -> Vec<PhaseInputs> {
        if secs > 0.0 {
            (0..ROUNDS)
                .map(|round| phase(rate, secs, base + round))
                .collect()
        } else {
            Vec::new()
        }
    };
    let warm = phase(spec.r2_qps, WARMUP_SECS, 0);
    let r1_in = rounds_of(spec.r1_qps, r1_s, 100);
    let r2_in = rounds_of(spec.r2_qps, r2_s, 200);
    // The saturation stream is long enough that even a much faster engine
    // does not wrap around and meet its own cache entries again.
    let sat_in = rounds_of(60_000.0, sat_s, 300);

    // `serve_swap` only: the generations to publish, one per second.
    let swaps = if kind == Kind::Swap { args.seconds } else { 0 };
    let models: Vec<Recommender> = (0..swaps)
        .map(|i| model_of_generation(&world, spec, args.seed, i + 2))
        .collect();

    let serve_engine;
    let serve_swap;
    let serve: &ServeFn<'_> = match &target {
        Target::Engine(engine) => {
            serve_engine = move |qs: &[Query]| engine.serve(qs).map(|r| (0u64, r));
            &serve_engine
        }
        Target::Swap(server) => {
            serve_swap = move |qs: &[Query]| server.serve_pinned(qs);
            &serve_swap
        }
    };

    // ---- the measured window: ROUNDS x (r1, r2, saturation) ----
    let queries_in = |inputs: &[PhaseInputs]| inputs.iter().map(|i| i.queries.len()).sum::<usize>();
    let spans_wanted =
        queries_in(&r1_in) + queries_in(&r2_in) + queries_in(&sat_in) / SATURATION_WAVE;
    let mut log = SpanLog::with_capacity(if args.traced { 3 * spans_wanted } else { 0 });
    let opts = |name, keep_every| PhaseOpts {
        name,
        max_wave: MAX_WAVE,
        keep_every,
    };
    open_loop(serve, &warm.queries, &warm.due_ns, opts("warmup", 0), None);
    let telemetry = || match &target {
        Target::Engine(engine) => Some(engine.telemetry()),
        Target::Swap(_) => None,
    };
    let before = telemetry();
    let keep_r2 = if kind == Kind::Swap { 1 } else { 8 };
    let measure = |log: &mut SpanLog| {
        let mut m = Measured::default();
        for (round, r2_input) in r2_in.iter().enumerate() {
            if let Some(input) = r1_in.get(round) {
                let spans = args.traced.then_some(&mut *log);
                m.r1.push(open_loop(
                    serve,
                    &input.queries,
                    &input.due_ns,
                    opts("r1", 8),
                    spans,
                ));
            }
            let spans = args.traced.then_some(&mut *log);
            m.r2.push(open_loop(
                serve,
                &r2_input.queries,
                &r2_input.due_ns,
                opts("r2", keep_r2),
                spans,
            ));
            if let Some(input) = sat_in.get(round) {
                let spans = args.traced.then_some(&mut *log);
                m.saturation.push(closed_loop(
                    serve,
                    &input.queries,
                    SATURATION_WAVE,
                    sat_s,
                    opts("saturation", SATURATION_WAVE),
                    spans,
                ));
            }
        }
        m
    };
    let (m, swap_records) = if let Target::Swap(server) = &target {
        let watcher = GenerationWatcher::new(&publish_dir, cfg, Arc::clone(server), obs.clone());
        let stop = AtomicBool::new(false);
        let epoch = log.epoch();
        std::thread::scope(|scope| {
            let publishing = scope
                .spawn(|| publisher(&publish_dir, &watcher, &models, &stop, epoch, args.traced));
            let m = measure(&mut log);
            stop.store(true, Ordering::Relaxed);
            let (records, publisher_spans) = publishing.join().expect("publisher thread");
            log.absorb(publisher_spans);
            (m, records)
        })
    } else {
        (measure(&mut log), Vec::new())
    };
    let after = telemetry();

    // ---- end-to-end figures ----
    for (name, rounds) in [("r1", &m.r1), ("r2", &m.r2), ("saturation", &m.saturation)] {
        if !rounds.is_empty() {
            report.phases.push(phase_row(name, rounds));
        }
    }
    report.attempted = m.all().map(|p| p.sent as u64).sum();
    let refused: u64 = m.all().map(|p| p.failed as u64).sum();

    let r2_latency = pooled_latency(&m.r2);
    let r2_p99s = round_p99s(&m.r2);
    let (r2_p50, r2_p99) = (p(&r2_latency, 0.5), median(&r2_p99s));
    report.set("setup_s", setup_s);
    report.set("lat_p50_ms.r2", r2_p50);
    report.set("lat_p99_ms.r2", r2_p99);
    if !m.r1.is_empty() {
        // Pooled over the rounds: one round at r1 holds too few samples
        // for a p99 of its own.
        let r1_latency = pooled_latency(&m.r1);
        report.set("lat_p50_ms.r1", p(&r1_latency, 0.5));
        report.set("lat_p99_ms.r1", p(&r1_latency, 0.99));
    }
    // Queries answered over the wall of each saturation round, stalls and
    // failed waves included; the median round is the capacity, the fastest
    // the figure the host touched least (see `ops_per_s` in `spec::FAMILY`).
    let round_qps: Vec<f64> = m
        .saturation
        .iter()
        .map(|r| r.succeeded as f64 / r.elapsed_s)
        .collect();
    if round_qps.is_empty() {
        // `serve_swap` has no saturation phase, so its throughput is the
        // goodput of the open loop: it falls only when the server cannot
        // keep up with the offered rate or refuses queries.
        let answered = total(&m.r2, |r| r.succeeded) as f64;
        report.set(
            "ops_per_s",
            answered / m.r2.iter().map(|r| r.elapsed_s).sum::<f64>(),
        );
    } else {
        report.set("capacity_qps", median(&round_qps));
        report.set("ops_per_s", round_qps.iter().copied().fold(0.0, f64::max));
    }

    // ---- correctness: served answers against the sequential reference ----
    let mut torn = 0u64;
    let mut checked = 0u64;
    let mut recall = None;
    match &target {
        Target::Engine(engine) => {
            let mut reference = Reference::new(&rec, engine.ann_index(), engine.ann_quant());
            let blocks =
                m.r1.iter()
                    .zip(&r1_in)
                    .chain(m.r2.iter().zip(&r2_in))
                    .chain(m.saturation.iter().zip(&sat_in));
            for (outcome, input) in blocks {
                for Kept { index, result, .. } in &outcome.kept {
                    let q = &input.queries[*index];
                    checked += 1;
                    torn += u64::from(reference.answer(q, q.k) != *result);
                }
            }
            if spec.cells > 0 {
                recall = Some(recall_at_10(&mut reference, &contexts));
            }
        }
        Target::Swap(_) => {
            // Every (generation, results) pair against that generation's
            // own sequential reference; repeated (generation, context)
            // pairs are looked up, not recomputed.
            let mut by_generation: HashMap<u64, Vec<(u32, &Kept)>> = HashMap::new();
            for (outcome, input) in m.r2.iter().zip(&r2_in) {
                for kept in &outcome.kept {
                    by_generation
                        .entry(kept.generation)
                        .or_default()
                        .push((input.order[kept.index], kept));
                }
            }
            let params = ivf_params(spec);
            for (&generation, answers) in &by_generation {
                let model = match generation {
                    0 => None,
                    1 => Some(&rec),
                    g => models.get(g as usize - 2),
                };
                let Some(model) = model else {
                    torn += answers.len() as u64;
                    continue;
                };
                let index = model.build_index(&params).expect("reference index");
                let mut reference = Reference::new(model, Some(&index), None);
                let mut memo: HashMap<u32, Vec<usize>> = HashMap::new();
                for &(context, kept) in answers {
                    let q = &contexts[context as usize];
                    let want = memo
                        .entry(context)
                        .or_insert_with(|| reference.answer(q, q.k));
                    checked += 1;
                    torn += u64::from(*want != kept.result);
                }
                if generation == 1 {
                    recall = Some(recall_at_10(&mut reference, &contexts));
                }
            }
        }
    }
    report.failed = refused + torn;
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.check(
        "no query was refused or failed",
        refused == 0,
        format!("{refused} of {} failed", report.attempted),
    );
    report.check(
        "served answers equal the sequential Recommender reference bit for bit",
        torn == 0 && checked > 0,
        format!("{checked} answers checked, {torn} differ"),
    );
    if let Some((recall, sample)) = recall {
        report.set("recall_at_10", recall);
        report.note("recall_sample", sample);
        report.check(
            "recall@10 against the exhaustive scan is over its floor",
            recall >= spec.recall_floor,
            format!(
                "recall {recall} on {sample} queries, floor {}",
                spec.recall_floor
            ),
        );
    }
    report.check(
        "every tail percentile has at least ten samples beyond it",
        r2_p99s.len() == ROUNDS,
        format!(
            "{} of {ROUNDS} rounds hold >= {MIN_TAIL_SAMPLES} samples at r2",
            r2_p99s.len()
        ),
    );

    if kind == Kind::Swap {
        let swapped: Vec<&SwapRecord> = swap_records.iter().filter(|s| s.swapped).collect();
        let rejected = swap_records.iter().filter(|s| s.rejected).count();
        let first_answer_ms: Vec<(u64, f64)> = swapped
            .iter()
            .filter_map(|s| {
                let at = m.r2.iter().find_map(|round| {
                    round
                        .first_answer
                        .iter()
                        .find(|(g, _)| *g == s.generation)
                        .map(|&(_, at)| at)
                })?;
                let ms = at.saturating_duration_since(s.publish_start).as_secs_f64() * 1e3;
                Some((s.generation, ms))
            })
            .collect();
        report.set(
            "swap_first_answer_ms",
            median(
                &first_answer_ms
                    .iter()
                    .map(|&(_, ms)| ms)
                    .collect::<Vec<_>>(),
            ),
        );
        report.note("swaps_planned", swaps);
        report.note("swaps_started", swap_records.len());
        report.note("swaps_completed", swapped.len());
        report.note("swaps_answered", first_answer_ms.len());
        // How many swaps fit the window is the host's speed, not the
        // program's correctness (15 of 15 at the seed commit).
        report.check(
            "every swap the publisher started completed, none rejected",
            !swapped.is_empty() && swapped.len() == swap_records.len() && rejected == 0,
            format!(
                "{} of {} started swapped, {rejected} rejected, {swaps} planned",
                swapped.len(),
                swap_records.len()
            ),
        );
        // The last swap may complete as the dispatcher sends its last query.
        let unanswered: Vec<u64> = swapped
            .iter()
            .map(|s| s.generation)
            .filter(|g| !first_answer_ms.iter().any(|(answered, _)| answered == g))
            .collect();
        report.check(
            "every completed swap but at most the last answered a query",
            unanswered.is_empty() || unanswered == [swapped[swapped.len() - 1].generation],
            format!(
                "{} of {} generations seen",
                first_answer_ms.len(),
                swapped.len()
            ),
        );
    }

    report.note("vocab", rec.vocab_size());
    report.note("dim", rec.dim());
    report.note("contexts", contexts.len());
    report.note("workers", cfg.workers);
    report.note("rounds", ROUNDS);
    report.note("r1_qps", spec.r1_qps);
    report.note("r2_qps", spec.r2_qps);
    report.note("slo_ms", SLO_MS);

    if args.traced {
        // Tracing overhead: throughput lost against the untraced run this
        // build made of the same seed and window, where there is one.
        let untraced = untraced_reference(workload, args.seed, args.seconds)
            .and_then(|r| metric_in(&r, "ops_per_s"));
        let traced = report.metrics["ops_per_s"];
        report.set(
            "obs.overhead_frac",
            untraced.map_or(0.0, |u| 1.0 - traced / u),
        );
        report.note(
            "obs_overhead_reference",
            if untraced.is_some() {
                "untraced run of this build"
            } else {
                "none"
            }
            .to_string(),
        );
        queue_metrics(&mut report, &m);
        if let (Some(before), Some(after)) = (before, after) {
            let hits = (after.cache_hits - before.cache_hits) as f64;
            let misses = (after.cache_misses - before.cache_misses) as f64;
            let waves: usize = m.all().map(|p| p.waves.len()).sum();
            report.set("serve.cache.hit_rate", hits / (hits + misses).max(1.0));
            report.set(
                "serve.batches_per_wave",
                (after.batches - before.batches) as f64 / waves.max(1) as f64,
            );
        }
        if kind == Kind::Swap {
            swap_metrics(&mut report, &m.r2, &swap_records, torn);
        }
        replay(
            &mut report,
            kind,
            spec,
            &rec,
            &target,
            &contexts,
            &publish_dir,
        );
        kernels::measure(rec.embedding(), &mut report);
        log.write_chrome_trace(
            &artifact_dir().join(format!("{workload}.trace.json")),
            workload,
        )
        .expect("write trace");
    }
    drop(target);
    let _ = std::fs::remove_dir_all(&publish_dir);
    report.set("peak_rss_mb", host::peak_rss_mb());
    report
}

/// The harness's own queue, and how the dispatcher's time divides.
fn queue_metrics(report: &mut Report, m: &Measured) {
    let pooled = |rounds: &[PhaseOutcome], field: fn(&PhaseOutcome) -> &Vec<f64>| {
        sorted(
            rounds
                .iter()
                .flat_map(|r| field(r).iter().copied())
                .collect(),
        )
    };
    let wave_size = |rounds: &[PhaseOutcome]| {
        total(rounds, |r| r.sent) as f64 / total(rounds, |r| r.waves.len()).max(1) as f64
    };
    if !m.r1.is_empty() {
        let w = pooled(&m.r1, |r| &r.queue_wait_ms);
        report.set("harness.queue_wait_p50_ms.r1", p(&w, 0.5));
        report.set("harness.queue_wait_p99_ms.r1", p(&w, 0.99));
        report.set("serve.wave_size_mean.r1", wave_size(&m.r1));
    }
    let w = pooled(&m.r2, |r| &r.queue_wait_ms);
    report.set("harness.queue_wait_p50_ms.r2", p(&w, 0.5));
    report.set("harness.queue_wait_p99_ms.r2", p(&w, 0.99));
    report.set("serve.wave_size_mean.r2", wave_size(&m.r2));
    let service = |r: &PhaseOutcome| r.waves.iter().map(|w| w.service_s).sum::<f64>();
    let r2_elapsed: f64 = m.r2.iter().map(|r| r.elapsed_s).sum();
    report.set(
        "serve.busy_frac.r2",
        m.r2.iter().map(service).sum::<f64>() / r2_elapsed,
    );
    let late = sorted(
        m.all()
            .flat_map(|p| p.wake_late_ms.iter().copied())
            .collect(),
    );
    report.set("harness.gen_lag_ms_p99", p(&late, 0.99));
    report.set(
        "harness.backlog_max",
        m.all().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
    );
    let r2_sent = total(&m.r2, |r| r.sent);
    let missed =
        m.r2.iter()
            .map(|r| r.latency.iter().filter(|&&(_, l)| l > SLO_MS).count() + r.failed)
            .sum::<usize>();
    report.set(
        "harness.slo_miss_frac.r2",
        missed as f64 / r2_sent.max(1) as f64,
    );
    report.set(
        "harness.sent",
        m.all().map(|p| p.sent).sum::<usize>() as f64,
    );
    report.set(
        "harness.failed",
        m.all().map(|p| p.failed).sum::<usize>() as f64,
    );
    // The dispatcher is in an engine call, waiting for an arrival, or in
    // the harness's own bookkeeping; the last is what nothing accounts for.
    let wall: f64 = m.all().map(|p| p.elapsed_s).sum();
    let accounted: f64 = m.all().map(|p| p.idle_s + service(p)).sum();
    report.set("serve.unattributed_frac", (wall - accounted) / wall);
}

/// Swap-side figures: what the publisher paid, and what live queries paid
/// inside and outside the 100 ms after each publish.
fn swap_metrics(report: &mut Report, r2: &[PhaseOutcome], swaps: &[SwapRecord], torn: u64) {
    let done: Vec<&SwapRecord> = swaps.iter().filter(|s| s.swapped).collect();
    report.set(
        "swap.publish_ms",
        median(&done.iter().map(|s| s.publish_ms).collect::<Vec<_>>()),
    );
    report.set(
        "swap.poll_ms",
        median(&done.iter().map(|s| s.poll_ms).collect::<Vec<_>>()),
    );
    report.set("swap.count", done.len() as f64);
    report.set(
        "swap.rejected",
        swaps.iter().filter(|s| s.rejected).count() as f64,
    );
    report.set("swap.torn", torn as f64);
    let window = Duration::from_secs_f64(SWAP_WINDOW_MS / 1e3);
    let (mut inside, mut outside) = (Vec::new(), Vec::new());
    for round in r2 {
        let started = round.started.expect("phase ran");
        for &(due_ns, latency) in &round.latency {
            let due = started + Duration::from_nanos(due_ns);
            let in_window = swaps
                .iter()
                .any(|s| due >= s.publish_start && due < s.publish_start + window);
            if in_window {
                inside.push(latency);
            } else {
                outside.push(latency);
            }
        }
    }
    report.note("swap_window_samples", inside.len());
    report.set("swap.window_p99_ms", p(&sorted(inside), 0.99));
    report.set("swap.steady_p99_ms", p(&sorted(outside), 0.99));
}

/// Replays the query stream through the serving layers one at a time, so
/// each has a price per query that does not depend on the others.
fn replay(
    report: &mut Report,
    kind: Kind,
    spec: &ServeSpec,
    rec: &Recommender,
    target: &Target,
    contexts: &[Query],
    scratch_dir: &Path,
) {
    let sample = &contexts[..contexts.len().min(2_048)];
    let dim = rec.dim();
    let mut cursor = 0usize;
    let mut next = || {
        cursor = (cursor + 1) % sample.len();
        &sample[cursor]
    };

    let mut profile = vec![0.0; dim];
    let t = secs_per_call(REPLAY_BUDGET, || {
        rec.profile_into(&next().recent, &mut profile)
            .expect("profile");
        std::hint::black_box(&mut profile);
    });
    report.set("model.profile_ns_per_query", t * 1e9);

    let mut scratch = RecommendScratch::new();
    let t = secs_per_call(REPLAY_BUDGET, || {
        let q = next();
        let got = rec.recommend_excluding_into(&q.recent, q.k, &q.exclude, &mut scratch);
        std::hint::black_box(got.expect("recommend"));
    });
    report.set("model.recommend_us_per_query", t * 1e6);

    if spec.cells > 0 {
        ivf_replay(report, spec, rec, sample);
    }

    // The engine's fixed cost per call: a cached query where there is a
    // cache, an empty call where there is none (neither scores anything).
    let current;
    let engine: &BatchEngine = match target {
        Target::Engine(engine) => engine,
        Target::Swap(server) => {
            current = server.current();
            current.engine()
        }
    };
    let one: &[Query] = if spec.cache_capacity > 0 {
        &sample[..1]
    } else {
        &[]
    };
    let t = secs_per_call(REPLAY_BUDGET, || {
        std::hint::black_box(engine.serve(one).expect("serve"));
    });
    report.set("serve.call_fixed_us", t * 1e6);

    cache_replay(report, sample);
    bundle_replay(report, kind, spec, rec, scratch_dir);
}

/// IVF build, probe and both re-rank flavours, per query and per
/// candidate, on the workload's own embedding.
fn ivf_replay(report: &mut Report, spec: &ServeSpec, rec: &Recommender, sample: &[Query]) {
    let start = Instant::now();
    let index = rec.build_index(&ivf_params(spec)).expect("index");
    let quant = rec.build_quantized(&index).expect("quant");
    report.set("ivf.build_s", start.elapsed().as_secs_f64());

    let dim = rec.dim();
    let profiles: Vec<Vec<f64>> = sample
        .iter()
        .map(|q| {
            let mut p = vec![0.0; dim];
            rec.profile_into(&q.recent, &mut p).expect("profile");
            p
        })
        .collect();
    let mut scratch = IvfScratch::new();
    let mut ranked = Vec::new();
    let mut cursor = 0usize;

    let t = secs_per_call(REPLAY_BUDGET, || {
        cursor = (cursor + 1) % sample.len();
        index
            .probe_cells(&profiles[cursor], NPROBE, &mut scratch)
            .expect("probe");
    });
    report.set("ivf.probe_us_per_query", t * 1e6);

    // Candidate counts are exact and come from the int8 pass's own stats;
    // both re-rank flavours see the same probed cells.
    let (mut candidates, mut shortlisted) = (0u64, 0u64);
    for (q, profile) in sample.iter().zip(&profiles) {
        index
            .probe_cells(profile, NPROBE, &mut scratch)
            .expect("probe");
        let stats = index
            .rerank_probed_quantized(
                &quant,
                rec.embedding(),
                profile,
                q.k,
                OVERFETCH,
                &q.exclude,
                &mut scratch,
                &mut ranked,
            )
            .expect("quantized re-rank");
        candidates += stats.candidates as u64;
        shortlisted += stats.shortlisted as u64;
    }
    let per_query = candidates as f64 / sample.len() as f64;
    report.set("ivf.candidates_per_query", per_query);
    report.set(
        "ivf.shortlist_ratio",
        shortlisted as f64 / candidates.max(1) as f64,
    );

    // Probe once per call so each re-rank starts from a probed scratch;
    // the probe's own price is subtracted.
    let probe_s = t;
    let t = secs_per_call(REPLAY_BUDGET, || {
        cursor = (cursor + 1) % sample.len();
        let (q, profile) = (&sample[cursor], &profiles[cursor]);
        index
            .probe_cells(profile, NPROBE, &mut scratch)
            .expect("probe");
        index.rerank_probed(
            rec.embedding(),
            profile,
            q.k,
            &q.exclude,
            &mut scratch,
            &mut ranked,
        );
    });
    report.set(
        "ivf.rerank_ns_per_candidate",
        (t - probe_s).max(0.0) / per_query * 1e9,
    );
    let t = secs_per_call(REPLAY_BUDGET, || {
        cursor = (cursor + 1) % sample.len();
        let (q, profile) = (&sample[cursor], &profiles[cursor]);
        index
            .probe_cells(profile, NPROBE, &mut scratch)
            .expect("probe");
        index
            .rerank_probed_quantized(
                &quant,
                rec.embedding(),
                profile,
                q.k,
                OVERFETCH,
                &q.exclude,
                &mut scratch,
                &mut ranked,
            )
            .expect("quantized re-rank");
    });
    report.set(
        "ivf.rerank_q_ns_per_candidate",
        (t - probe_s).max(0.0) / per_query * 1e9,
    );
}

/// `LruCache` alone: a hit and an evicting insert.
fn cache_replay(report: &mut Report, sample: &[Query]) {
    let capacity = 4_096usize.min(sample.len() / 2).max(1);
    let keys: Vec<QueryKey> = sample.iter().map(Query::key).collect();
    let value: Vec<usize> = (0..10).collect();
    let mut cache: LruCache<QueryKey, Vec<usize>> = LruCache::new(capacity);
    for key in &keys[..capacity] {
        cache.put(key.clone(), value.clone());
    }
    let mut cursor = 0usize;
    let t = secs_per_call(REPLAY_BUDGET / 2, || {
        cursor = (cursor + 1) % capacity;
        std::hint::black_box(cache.get(&keys[cursor]));
    });
    report.set("serve.cache.get_ns", t * 1e9);
    // Cycling through twice the capacity makes every insert evict.
    let t = secs_per_call(REPLAY_BUDGET / 2, || {
        cursor = (cursor + 1) % keys.len();
        cache.put(keys[cursor].clone(), value.clone());
    });
    report.set("serve.cache.put_ns", t * 1e9);
}

/// The bundle path a swap walks: write, O(header) open, validate, map, and
/// — uncontended, unlike inside the run — the full `ModelGeneration::load`.
fn bundle_replay(
    report: &mut Report,
    kind: Kind,
    spec: &ServeSpec,
    rec: &Recommender,
    scratch_dir: &Path,
) {
    let dir: PathBuf = scratch_dir.with_extension("replay");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create replay directory");
    let bundle = dir.join(generation_file_name(1));
    let budget = REPLAY_BUDGET / 2;
    let t = secs_per_call(budget, || {
        plps::write_deployable(&bundle, rec.embedding(), 1).expect("write bundle");
    });
    report.set("plps.write_ms", t * 1e3);
    let t = secs_per_call(budget, || {
        std::hint::black_box(PlpsSnapshot::open(&bundle).expect("open bundle"));
    });
    report.set("plps.open_ms", t * 1e3);
    let snapshot = PlpsSnapshot::open(&bundle).expect("open bundle");
    report.set("mmap.mapped", f64::from(u8::from(snapshot.is_mapped())));
    let t = secs_per_call(budget, || {
        snapshot.validate().expect("validate bundle");
    });
    report.set("plps.validate_ms", t * 1e3);
    let t = secs_per_call(budget, || {
        std::hint::black_box(Mmap::map(&bundle).expect("map bundle"));
    });
    report.set("mmap.open_us", t * 1e6);
    if kind == Kind::Swap {
        let cfg = serve_config(spec);
        let t = secs_per_call(budget, || {
            std::hint::black_box(ModelGeneration::load(&bundle, cfg).expect("load generation"));
        });
        report.set("swap.load_build_ms", t * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
