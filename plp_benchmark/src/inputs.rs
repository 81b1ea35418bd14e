//! Everything a workload feeds the program, derived from `--seed` alone:
//! sub-seeds, serving-shaped embeddings, query contexts, query streams and
//! Poisson arrival schedules. The program only ever receives these
//! generated inputs; the same seed reproduces them byte for byte (pinned by
//! the digest tests at the bottom).

use std::collections::HashSet;

use plp_data::generator::SyntheticGenerator;
use plp_linalg::sample::{mix64, stream_seed, GaussianStream, Zipf};
use plp_linalg::Matrix;
use plp_serve::Query;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Purposes a sub-seed is derived for. One master seed fans out into
/// independent streams so that, say, lengthening a phase cannot shift the
/// world that gets generated.
#[derive(Debug, Clone, Copy)]
pub enum Domain {
    /// World / dataset generation.
    World = 1,
    /// Training run seed (parameter init, sampling, noise).
    Run = 2,
    /// Embedding rows of the serving model.
    Embedding = 3,
    /// Query contexts.
    Contexts = 4,
    /// Order in which contexts are requested.
    Stream = 5,
    /// Arrival times.
    Schedule = 6,
}

/// The sub-seed of `domain` (and an index within it) under `seed`.
pub fn derive(seed: u64, domain: Domain, index: u64) -> u64 {
    mix64(mix64(seed ^ 0x504C_505F_4245_4E43) ^ mix64((domain as u64) << 32 | index))
}

/// A serving-shaped embedding over a generated city: every neighbourhood
/// cluster gets a random direction, every POI its cluster's direction plus
/// jitter, rows unit-normalised. Skip-gram training produces this shape
/// (co-visited POIs end up close), and it is what gives the IVF coarse
/// quantiser real cells to find; a uniformly random matrix would make
/// every probe equally bad and the ANN workloads meaningless.
pub fn city_embedding(world: &SyntheticGenerator, dim: usize, seed: u64) -> Matrix {
    const CLUSTER: u64 = 0xC1;
    const POI: u64 = 0xB0;
    let pois = world.pois().len();
    let clusters = cluster_members(world).len();
    let mut dirs = vec![0.0; clusters * dim];
    for (c, dir) in dirs.chunks_exact_mut(dim).enumerate() {
        GaussianStream::new(stream_seed(seed, CLUSTER, c as u64)).fill(dir);
    }
    let mut m = Matrix::zeros(pois, dim);
    let mut jitter = vec![0.0; dim];
    for p in 0..pois {
        let c = world.cluster_of(p).expect("every poi has a cluster");
        GaussianStream::new(stream_seed(seed, POI, p as u64)).fill(&mut jitter);
        for (d, slot) in m.row_mut(p).iter_mut().enumerate() {
            *slot = dirs[c * dim + d] + 0.25 * jitter[d];
        }
    }
    m.normalize_rows();
    m
}

/// POI ids per cluster, in POI order.
pub fn cluster_members(world: &SyntheticGenerator) -> Vec<Vec<usize>> {
    let mut members: Vec<Vec<usize>> = Vec::new();
    for p in 0..world.pois().len() {
        let c = world.cluster_of(p).expect("every poi has a cluster");
        if c >= members.len() {
            members.resize(c + 1, Vec::new());
        }
        members[c].push(p);
    }
    members
}

/// `n` *distinct* query contexts `(recent, k, exclude)`: a recent history
/// of 2–5 POIs from one cluster (a user moving inside a neighbourhood),
/// `k` cycling through `ks`, and every second context excluding the POIs
/// just visited — the deployment pattern of the paper's §3.3.
///
/// # Panics
/// If the world is too small to hold `n` distinct contexts.
pub fn contexts(world: &SyntheticGenerator, n: usize, ks: &[usize], seed: u64) -> Vec<Query> {
    let members: Vec<Vec<usize>> = cluster_members(world)
        .into_iter()
        .filter(|m| !m.is_empty())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        attempts += 1;
        assert!(
            attempts < 64 * n.max(16),
            "world too small for {n} distinct contexts"
        );
        let cluster = &members[rng.random_range(0..members.len())];
        let len = rng.random_range(2usize..=5);
        let recent: Vec<usize> = (0..len)
            .map(|_| cluster[rng.random_range(0..cluster.len())])
            .collect();
        let i = out.len();
        let k = ks[(i / 2) % ks.len()];
        let q = if i % 2 == 0 {
            Query::new(recent, k)
        } else {
            let exclude = recent.clone();
            Query::with_exclusions(recent, k, exclude)
        };
        if seen.insert(q.key()) {
            out.push(q);
        }
    }
    out
}

/// How the request stream picks among the contexts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Zipf with this exponent over context rank: a few hot contexts, a
    /// long tail — the regime in which a result cache earns its keep.
    Zipf(f64),
    /// Every context equally likely: no reuse to speak of.
    Uniform,
}

/// `len` context indices in request order.
pub fn stream(contexts: usize, len: usize, popularity: Popularity, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    match popularity {
        Popularity::Zipf(s) => {
            let zipf = Zipf::new(contexts, s).expect("contexts > 0 and finite exponent");
            (0..len).map(|_| zipf.sample(&mut rng) as u32).collect()
        }
        Popularity::Uniform => (0..len)
            .map(|_| rng.random_range(0..contexts) as u32)
            .collect(),
    }
}

/// Poisson arrivals at `rate_qps` over `secs` seconds: ascending due times
/// in nanoseconds from the phase start (exponential gaps, so bursts and
/// lulls occur as they do with independent users).
pub fn poisson_schedule(rate_qps: f64, secs: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = secs * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate_qps * secs * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate_qps * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// FNV-1a over 64-bit words — the digest used to pin inputs and to compare
/// trained parameters between the untraced and the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a slice of floats in, bit for bit.
    pub fn floats(&mut self, v: &[f64]) {
        for x in v {
            self.word(x.to_bits());
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_data::generator::GeneratorConfig;

    fn small_world(seed: u64) -> SyntheticGenerator {
        let mut rng = StdRng::seed_from_u64(derive(seed, Domain::World, 0));
        let cfg = GeneratorConfig {
            num_locations: 2_000,
            num_clusters: 20,
            ..GeneratorConfig::city()
        };
        SyntheticGenerator::new(&mut rng, cfg).expect("world")
    }

    fn schedule_digest(seed: u64) -> u64 {
        let mut d = Digest::default();
        for t in poisson_schedule(6_000.0, 2.0, derive(seed, Domain::Schedule, 1)) {
            d.word(t);
        }
        d.value()
    }

    /// Folds queries in (lengths included, so boundaries matter).
    fn fold_queries(d: &mut Digest, qs: &[Query]) {
        for q in qs {
            d.word(q.recent.len() as u64);
            q.recent.iter().for_each(|&t| d.word(t as u64));
            d.word(q.k as u64);
            d.word(q.exclude.len() as u64);
            q.exclude.iter().for_each(|&t| d.word(t as u64));
        }
    }

    fn stream_digest(seed: u64) -> u64 {
        let world = small_world(seed);
        let ctx = contexts(&world, 500, &[5, 10, 20], derive(seed, Domain::Contexts, 0));
        let order = stream(
            ctx.len(),
            4_000,
            Popularity::Zipf(1.0),
            derive(seed, Domain::Stream, 0),
        );
        let mut d = Digest::default();
        fold_queries(&mut d, &ctx);
        order.iter().for_each(|&i| d.word(u64::from(i)));
        d.value()
    }

    /// The pinned digests: if either changes, every recorded number in the
    /// trajectory was measured on different inputs than today's.
    #[test]
    fn seed_42_inputs_are_pinned() {
        assert_eq!(
            format!("{:#018x}", schedule_digest(42)),
            "0x988f855cf4cb8e46",
            "arrival schedule"
        );
        assert_eq!(
            format!("{:#018x}", stream_digest(42)),
            "0x4b2e2d8cbb0a5570",
            "query stream"
        );
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(schedule_digest(42), schedule_digest(43));
        assert_ne!(stream_digest(42), stream_digest(43));
    }

    #[test]
    fn schedule_has_the_asked_rate_and_order() {
        let s = poisson_schedule(5_000.0, 4.0, 7);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "ascending");
        let rate = s.len() as f64 / 4.0;
        assert!((rate - 5_000.0).abs() < 150.0, "rate {rate}");
        assert!(*s.last().expect("non-empty") < 4_000_000_000);
    }

    #[test]
    fn contexts_are_distinct_and_alternate() {
        let world = small_world(1);
        let ctx = contexts(&world, 300, &[5, 10, 20], 9);
        let keys: HashSet<_> = ctx.iter().map(Query::key).collect();
        assert_eq!(keys.len(), 300);
        assert!(ctx[0].exclude.is_empty() && !ctx[1].exclude.is_empty());
        assert_eq!((ctx[0].k, ctx[2].k, ctx[4].k, ctx[6].k), (5, 10, 20, 5));
    }
}
