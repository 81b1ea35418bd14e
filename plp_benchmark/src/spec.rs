//! The frozen definition of the benchmark: the five workloads with their
//! calibrated constants, and every metric by name, unit, direction and
//! bound. `BENCHMARK.json` and the README tables are transcriptions of this
//! file (a test keeps `BENCHMARK.json` honest); later changes are judged by
//! these names, so nothing here may move in a change that claims a gain.

/// The five workloads, in the order a full set runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "train_grouped",
        why: "Algorithm 1 at paper hyper-parameters on 1200 users/600 POIs: per-bucket local SGD is >=85% of wall, so SGNS, journal and kernel work shows and O(vocab) work does not",
    },
    Workload {
        name: "train_wide",
        why: "same trainer, few buckets over a 24k-row model: noise, server Adam and the dense eval scan are about half of wall, so a local-SGD gain must not move it and an O(vocab) gain must",
    },
    Workload {
        name: "serve_paper",
        why: "the paper's deployment: dense cosine scan over 5069 POIs behind an LRU cache a fifth the size of a Zipf working set; exercises matmul, top-k, cache and per-call cost, bypasses IVF",
    },
    Workload {
        name: "serve_city",
        why: "100k-POI city, int8-quantized IVF, cache off, uniform distinct contexts: every query is a miss, so probe, coarse pass and re-rank do all the work and the cache and dense kernel none",
    },
    Workload {
        name: "serve_swap",
        why: "f64 IVF behind the hot-swap server while a second thread publishes a generation every second: bundle write, validation, index build and cache invalidation compete with live queries",
    },
];

/// One workload's name and reason for existing.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// The measured window the constants below were calibrated for. Other
/// `--seconds` values scale phase lengths and step counts in proportion.
pub const NOMINAL_SECONDS: u64 = 15;

// ---------------------------------------------------------------- training

/// Calibrated constants of a training workload (frozen on the seed commit
/// on a 2-core Xeon @ 2.1 GHz so that the fixed step count fills about
/// [`NOMINAL_SECONDS`]).
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Generator override: POIs asked for (0 keeps the medium profile).
    pub locations: usize,
    /// Generator override: users.
    pub users: usize,
    /// Generator override: check-ins.
    pub checkins: usize,
    /// Poisson sampling rate `q`.
    pub sampling_prob: f64,
    /// Grouping factor λ.
    pub grouping_factor: usize,
    /// Private steps per nominal window.
    pub steps: usize,
    /// Validation HR@10 every this many steps.
    pub eval_every: usize,
    /// ε at δ = 2e-4 after `steps` steps, as the seed commit's accountant
    /// reports it. A run that spends more than the issue's bound of 0.1 %
    /// over it is incorrect: ε depends on `(q, σ, steps)` alone, so only an
    /// accountant change can move it.
    pub epsilon_ceiling: f64,
    /// Lowest test HR@10 a nominal run may return and still be correct:
    /// the lowest seen over sixty seeds at the seed commit (0.142 and
    /// 0.030) less the issue's bound of 0.02, and not under 0.02. HR@10 is
    /// an exact function of the seed, so the driver holds it through this
    /// floor rather than through a bound on a median.
    pub hr10_floor: f64,
}

/// `train_grouped`: `ExperimentConfig::medium`, paper hyper-parameters.
pub const TRAIN_GROUPED: TrainSpec = TrainSpec {
    locations: 0,
    users: 0,
    checkins: 0,
    sampling_prob: 0.06,
    grouping_factor: 4,
    steps: 150,
    eval_every: 10,
    epsilon_ceiling: 1.399_908_733_827_886_4,
    hr10_floor: 0.12,
};

/// `train_wide`: 30 000 POIs asked for (about 24.5k survive the paper's
/// sparsity filter), ~12 sampled users per step.
pub const TRAIN_WIDE: TrainSpec = TrainSpec {
    locations: 30_000,
    users: 1_500,
    checkins: 400_000,
    sampling_prob: 0.008,
    grouping_factor: 2,
    steps: 50,
    eval_every: 10,
    epsilon_ceiling: 0.164_794_477_593_484_67,
    hr10_floor: 0.02,
};

/// Paper hyper-parameters shared by both training workloads (§5.1).
pub mod paper {
    /// Embedding dimension.
    pub const DIM: usize = 50;
    /// Negative samples.
    pub const NEG: usize = 16;
    /// Noise multiplier σ.
    pub const SIGMA: f64 = 2.5;
    /// Clipping norm C.
    pub const CLIP: f64 = 0.5;
    /// δ of the guarantee.
    pub const DELTA: f64 = 2e-4;
    /// ε budget: large enough never to bind inside the fixed step count.
    pub const EPSILON_BUDGET: f64 = 1e6;
}

// ----------------------------------------------------------------- serving

/// Calibrated constants of a serving workload. Rates are frozen at about
/// 7 % (`r1`) and 40 % (`r2`) of the seed commit's saturation throughput on
/// the calibration host, so `r1` sees waves of about one query and `r2`
/// natural micro-batching with a dispatcher that is busy well under half
/// the time.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Embedding dimension.
    pub dim: usize,
    /// Engine workers.
    pub workers: usize,
    /// Result-cache entries (0 = off).
    pub cache_capacity: usize,
    /// IVF cells (0 = dense scan).
    pub cells: usize,
    /// Int8 coarse pass in front of the exact re-rank.
    pub quantized: bool,
    /// Distinct query contexts.
    pub contexts: usize,
    /// Zipf exponent of context popularity; `None` draws uniformly.
    pub zipf: Option<f64>,
    /// Light-load rate in queries/s (0 = phase absent).
    pub r1_qps: f64,
    /// Working-load rate in queries/s.
    pub r2_qps: f64,
    /// Shares of the measured window given to `r1`, `r2` and closed-loop
    /// saturation.
    pub shares: [f64; 3],
    /// Lowest recall@10 against the exhaustive scan a run may report and
    /// still be correct: the lowest seen over sixty seeds at the seed
    /// commit (0.998) less the issue's bound of 0.002 (IVF workloads; 0
    /// for the dense scan).
    pub recall_floor: f64,
}

/// Engine micro-batch limit, all serving workloads.
pub const MAX_BATCH: usize = 32;
/// Cells probed per query, all IVF workloads.
pub const NPROBE: usize = 8;
/// Shortlist floor of the int8 pass as a multiple of `k`.
pub const OVERFETCH: usize = 4;
/// Rows the IVF centroids are trained on.
pub const KMEANS_SAMPLE: usize = 25_000;
/// Lloyd iterations of the IVF build.
pub const KMEANS_ITERS: usize = 4;
/// Most arrivals one dispatch may take.
pub const MAX_WAVE: usize = 256;
/// Queries per closed-loop saturation wave.
pub const SATURATION_WAVE: usize = 64;
/// The measured window of a serving workload is cut into this many rounds
/// of (`r1`, `r2`, saturation), so every phase samples the whole window and
/// not one stretch of it: on a shared host a slow spell lasts seconds, and a
/// phase measured in one block would sit inside it or outside it by luck.
pub const ROUNDS: usize = 10;
/// Warm-up before the measured window, seconds (discarded).
pub const WARMUP_SECS: f64 = 1.0;
/// Latency limit on the reported tail percentile, ms. A failed query
/// misses it by definition.
pub const SLO_MS: f64 = 5.0;
/// Queries of the fixed recall sample.
pub const RECALL_SAMPLE: usize = 512;
/// A latency due within this long after a publish starts belongs to the
/// swap window, ms.
pub const SWAP_WINDOW_MS: f64 = 100.0;

/// `serve_paper`: `GeneratorConfig::default()` (5 069 POIs), dense.
pub const SERVE_PAPER: ServeSpec = ServeSpec {
    dim: 50,
    workers: 2,
    cache_capacity: 4096,
    cells: 0,
    quantized: false,
    contexts: 200_000,
    zipf: Some(1.0),
    r1_qps: 1_000.0,
    r2_qps: 6_000.0,
    shares: [0.2, 0.5, 0.3],
    recall_floor: 0.0,
};

/// `serve_city`: `GeneratorConfig::city()` (100 000 POIs), quantized IVF.
pub const SERVE_CITY: ServeSpec = ServeSpec {
    dim: 32,
    workers: 2,
    cache_capacity: 0,
    cells: 512,
    quantized: true,
    contexts: 200_000,
    zipf: None,
    r1_qps: 1_000.0,
    r2_qps: 6_000.0,
    shares: [0.2, 0.5, 0.3],
    recall_floor: 0.996,
};

/// `serve_swap`: a 10 000-POI city, f64 IVF, one worker, one swap a
/// second for the whole window at `r2`; no `r1` and no saturation phase.
pub const SERVE_SWAP: ServeSpec = ServeSpec {
    dim: 32,
    workers: 1,
    cache_capacity: 4096,
    cells: 128,
    quantized: false,
    contexts: 20_000,
    zipf: Some(1.0),
    r1_qps: 0.0,
    r2_qps: 3_000.0,
    shares: [0.0, 1.0, 0.0],
    recall_floor: 0.996,
};

/// POIs of the `serve_swap` city.
pub const SWAP_LOCATIONS: usize = 10_000;
/// Neighbourhood clusters of the `serve_swap` city.
pub const SWAP_CLUSTERS: usize = 100;

// ----------------------------------------------------------------- metrics

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a median may worsen before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the baseline median.
    Rel(f64),
    /// Absolute distance in the metric's unit.
    Abs(f64),
}

/// A bounded metric.
#[derive(Debug, Clone, Copy)]
pub struct Bounded {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
}

/// The end-to-end metrics the driver bounds. Its contract wants every one
/// of them printed by every workload from a real measurement, never 0, and
/// refuses the benchmark if a metric's spread over ten runs with ten seeds
/// exceeds its bound, which may be at most 25 %. On a shared 2-vCPU guest
/// no timing of the measured window meets that, `ops_per_s` below included
/// (README, "What this host can reproduce"), so the timings live in
/// [`FAMILY`] and are bounded by `compare`; the exact figures among those
/// (epsilon, HR@10, recall, failures) reach the driver through `correct`,
/// which the frozen ceilings and floors above decide.
pub const END_TO_END: [Bounded; 2] = [
    // fastest of at least four set-ups in the run (see `timed_setups`):
    // data/world generation, embedding, index build, first bundle. The
    // contract asks for this metric by name and for the largest bound, so
    // the issue's 15 %-or-demote does not apply to it.
    Bounded {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
    },
    // VmHWM of the workload's process. The issue's 10 % is too tight for
    // ten seeds: the peak follows the generated data (176-216 MB on
    // train_wide), and the spread over ten seeds reached 9.2 %.
    Bounded {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Rel(0.15),
    },
];

/// The paper-facing end-to-end figures, each defined only on the workloads
/// listed. The driver contract cannot carry per-workload metrics, so these
/// are printed by every run of their workloads, listed as per-layer metrics
/// in `BENCHMARK.json`, and bounded by `plp_benchmark compare`.
pub const FAMILY: [Bounded; 12] = [
    // operations failed or refused / attempted (all workloads)
    Bounded {
        name: "failed_frac",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Abs(0.0),
    },
    // Operations per second in the fastest block of the measured window
    // (all workloads): private steps in the fastest block of `eval_every`
    // consecutive steps, one validation pass included (train_*); queries in
    // the fastest closed-loop saturation round (serve_paper, serve_city).
    // The host's neighbours only ever take throughput away, so the fastest
    // block is the measurement they touched least; slower code slows every
    // block, the fastest too. It is the steadiest throughput this host
    // gives (spread 5-15 % in a quiet hour, 13-43 % in a busy one) and not
    // one of the issue's metrics, hence the bound. serve_swap has no
    // saturation phase: there it is the open loop's goodput, which falls
    // only when the server cannot keep up with the offered rate or
    // refuses queries.
    Bounded {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Rel(0.25),
    },
    // private steps / wall of the training call, eval and accounting included
    // (train_*)
    Bounded {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Rel(0.05),
    },
    // epsilon at delta 2e-4 after the fixed step count (train_*)
    Bounded {
        name: "epsilon_spent",
        unit: "eps",
        better: Better::Lower,
        bound: Bound::Rel(0.001),
    },
    // test HR@10 of the returned parameters (train_*)
    Bounded {
        name: "hr10",
        unit: "ratio",
        better: Better::Higher,
        bound: Bound::Abs(0.02),
    },
    // queries answered / wall of a closed-loop saturation round, median over
    // the rounds (serve_paper, serve_city)
    Bounded {
        name: "capacity_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Rel(0.05),
    },
    // median latency from due time at r1 (serve_paper, serve_city)
    Bounded {
        name: "lat_p50_ms.r1",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Rel(0.10),
    },
    // p99 from due time at r1, rounds pooled (serve_paper, serve_city)
    Bounded {
        name: "lat_p99_ms.r1",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Rel(0.15),
    },
    // median latency from due time at r2 (serve_*)
    Bounded {
        name: "lat_p50_ms.r2",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Rel(0.10),
    },
    // p99 from due time at r2, median over the rounds (serve_*)
    Bounded {
        name: "lat_p99_ms.r2",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Rel(0.15),
    },
    // mean recall against the exhaustive scan on a fixed 512-query sample
    // (serve_city, serve_swap)
    Bounded {
        name: "recall_at_10",
        unit: "ratio",
        better: Better::Higher,
        bound: Bound::Abs(0.002),
    },
    // median over swaps: publish_generation start to the first query answered
    // by the new generation (serve_swap)
    Bounded {
        name: "swap_first_answer_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Rel(0.15),
    },
];

/// A per-layer metric: no bound, only a direction.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics of the traced run, grouped by the crate they
/// time. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Layer; 59] = [
    // plp-data
    lower("data.generate_s", "s"),
    lower("data.sample_group_us_per_step", "us"),
    // plp-linalg kernels, at the workload's dim, streaming over vocab x dim
    higher("linalg.memcpy_gbps", "GB/s"),
    higher("linalg.dot_gbps", "GB/s"),
    higher("linalg.axpy_gbps", "GB/s"),
    higher("linalg.matmul_block_gflops", "GFLOP/s"),
    higher("linalg.gauss_mvals_per_s", "M/s"),
    lower("linalg.topk_ns_per_row", "ns"),
    // plp-linalg::ivf
    lower("ivf.build_s", "s"),
    lower("ivf.probe_us_per_query", "us"),
    lower("ivf.rerank_ns_per_candidate", "ns"),
    lower("ivf.rerank_q_ns_per_candidate", "ns"),
    lower("ivf.candidates_per_query", "count"),
    lower("ivf.shortlist_ratio", "ratio"),
    // plp-model, training side
    lower("model.local_sgd.ms_per_step", "ms"),
    higher("model.local_sgd.pairs_per_s", "1/s"),
    lower("model.local_sgd.us_per_bucket", "us"),
    higher("model.local_sgd.share", "ratio"),
    lower("model.server_update.ms_per_step", "ms"),
    lower("model.eval.ms_per_eval", "ms"),
    // plp-model, serving side
    lower("model.profile_ns_per_query", "ns"),
    lower("model.recommend_us_per_query", "us"),
    lower("plps.write_ms", "ms"),
    lower("plps.open_ms", "ms"),
    lower("plps.validate_ms", "ms"),
    // plp-privacy
    lower("privacy.accountant_us_per_step", "us"),
    higher("privacy.steps", "count"),
    // plp-core
    lower("core.noise.ms_per_step", "ms"),
    lower("core.dense_share", "ratio"),
    lower("core.train.unattributed_frac", "ratio"),
    // plp-serve
    lower("serve.call_fixed_us", "us"),
    lower("serve.busy_frac.r2", "ratio"),
    higher("serve.wave_size_mean.r1", "count"),
    higher("serve.wave_size_mean.r2", "count"),
    lower("serve.batches_per_wave", "count"),
    higher("serve.cache.hit_rate", "ratio"),
    lower("serve.cache.get_ns", "ns"),
    lower("serve.cache.put_ns", "ns"),
    lower("serve.unattributed_frac", "ratio"),
    // plp-serve::swap and plp-mmap
    lower("swap.publish_ms", "ms"),
    lower("swap.load_build_ms", "ms"),
    lower("swap.poll_ms", "ms"),
    lower("swap.window_p99_ms", "ms"),
    lower("swap.steady_p99_ms", "ms"),
    higher("swap.count", "count"),
    lower("swap.rejected", "count"),
    lower("swap.torn", "count"),
    lower("mmap.open_us", "us"),
    higher("mmap.mapped", "count"),
    // the harness's own queue
    lower("harness.queue_wait_p50_ms.r1", "ms"),
    lower("harness.queue_wait_p99_ms.r1", "ms"),
    lower("harness.queue_wait_p50_ms.r2", "ms"),
    lower("harness.queue_wait_p99_ms.r2", "ms"),
    lower("harness.backlog_max", "count"),
    lower("harness.gen_lag_ms_p99", "ms"),
    lower("harness.slo_miss_frac.r2", "ratio"),
    higher("harness.sent", "count"),
    lower("harness.failed", "count"),
    // plp-obs
    lower("obs.overhead_frac", "ratio"),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// `BENCHMARK.json` as this file defines it. `run_seconds` and `command`
/// are part of the frozen definition too.
pub fn manifest() -> serde_json::Value {
    use serde_json::json;
    let bound = |b: Bound| match b {
        Bound::Rel(r) | Bound::Abs(r) => r,
    };
    let mut per_layer: Vec<serde_json::Value> = FAMILY
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.word()}))
        .collect();
    per_layer.extend(
        PER_LAYER
            .iter()
            .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.word()})),
    );
    json!({
        "command": ["bash", "plp_benchmark/run.sh"],
        "paths": ["plp_benchmark"],
        "run_seconds": NOMINAL_SECONDS,
        "workloads": WORKLOADS.iter().map(|w| json!({"name": w.name, "why": w.why})).collect::<Vec<_>>(),
        "end_to_end": END_TO_END.iter().map(|m| json!({
            "name": m.name, "unit": m.unit, "better": m.better.word(), "bound": bound(m.bound),
        })).collect::<Vec<_>>(),
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(matches!(m.bound, Bound::Rel(b) if b > 0.0 && b <= 0.25));
        }
        for (name, unit) in FAMILY
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        assert!(FAMILY.len() + PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .map(|m| match m.bound {
                Bound::Rel(b) | Bound::Abs(b) => b,
            })
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Bound::Rel(largest),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` at the repository root is a transcription of this
    /// file; if it exists (it does not in a bare copy of this directory)
    /// it must say the same thing.
    #[test]
    fn benchmark_json_matches_this_file() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let on_disk: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(on_disk, manifest());
    }
}
