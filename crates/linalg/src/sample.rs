//! Random samplers implemented from first principles.
//!
//! The workspace is restricted to the `rand` crate (no `rand_distr`), so the
//! distributions the paper needs are implemented here:
//!
//! * [`NormalSampler`] — standard Gaussian via the Box–Muller transform
//!   over a caller's RNG, used by the synthetic check-in generator,
//! * [`GaussianStream`] — a deterministic *counter-based* Gaussian stream:
//!   seeded per (step, domain, row), so noise for any row of a parameter
//!   matrix can be generated independently on any worker thread and still
//!   come out bit-identical to a sequential pass,
//! * [`Zipf`] — bounded Zipf via an inverse-CDF table, used by the synthetic
//!   check-in generator (location popularity follows Zipf's law, paper §4.1),
//! * [`poisson_subsample`] — independent Bernoulli(q) selection over an index
//!   range, the user-sampling step of Algorithm 1 (line 5).
//!
//! # Stream contract
//!
//! Box–Muller produces Gaussians in pairs, so every sampler here carries a
//! cached *spare* variate. That makes a sampler a **stream**: consecutive
//! draws from one sampler are one coupled sequence, and the spare must never
//! leak across logically independent streams (training phases, steps, rows,
//! slices). Two ways to honour the contract:
//!
//! * call [`NormalSampler::reset`] at every stream boundary, or
//! * use a fresh, independently seeded sampler per stream — which is exactly
//!   what [`GaussianStream`] does for per-row noise.
//!
//! Discarding a spare at a stream boundary does not bias anything: every
//! emitted variate is exactly N(0, 1) whether or not its pair twin is used.

use rand::{Rng, RngExt};

use crate::ops;

/// SplitMix64 finalizer: a cheap, high-quality bijective mixer used to
/// derive independent seeds (per step, per stream, per row) from a base
/// seed by domain separation.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of stream `index` within `domain` under a per-step
/// `noise_seed`: chained [`mix64`] applications, so two streams collide only
/// if their `(domain, index)` pairs do.
#[inline]
pub fn stream_seed(noise_seed: u64, domain: u64, index: u64) -> u64 {
    mix64(mix64(mix64(noise_seed) ^ domain) ^ index)
}

/// Standard-normal sampler using the Box–Muller transform with a cached
/// spare variate.
///
/// Box–Muller produces two independent N(0, 1) values per two uniforms; the
/// second is cached so consecutive calls cost one transform each on average.
///
/// One `NormalSampler` instance is one **stream** (see the module docs):
/// reuse it only for draws that belong to the same logical stream, and call
/// [`NormalSampler::reset`] at stream boundaries so a cached spare cannot
/// couple independent phases.
#[derive(Debug, Default, Clone)]
pub struct NormalSampler {
    spare: Option<f64>,
}

impl NormalSampler {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        NormalSampler { spare: None }
    }

    /// Drops the cached Box–Muller spare, ending the current stream.
    ///
    /// After a reset the next draw depends only on the RNG state, exactly
    /// as for a freshly constructed sampler — call this at every stream
    /// boundary (new phase, new step, new slice) so a spare generated in
    /// one stream can never be emitted into another.
    pub fn reset(&mut self) {
        self.spare = None;
    }

    /// Draws one standard-normal variate.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // u1 in (0, 1]: guard against ln(0).
        let mut u1: f64 = rng.random();
        while u1 <= f64::MIN_POSITIVE {
            u1 = rng.random();
        }
        let u2: f64 = rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Draws one N(0, sigma²) variate.
    pub fn sample_scaled<R: Rng + ?Sized>(&mut self, rng: &mut R, sigma: f64) -> f64 {
        sigma * self.sample(rng)
    }
}

/// A self-contained, counter-seeded standard-normal stream.
///
/// The generator is SplitMix64 (a 64-bit counter advanced by the golden-ratio
/// increment and passed through [`mix64`]'s finalizer) feeding Box–Muller.
/// Every stream owns its full state — counter *and* Box–Muller spare — so a
/// stream's output depends only on its seed, never on which thread runs it or
/// what other streams ran before it. Seeding one stream per parameter row via
/// [`stream_seed`] therefore makes noise generation partition-invariant:
/// any split of the rows across workers produces bit-identical output.
#[derive(Debug, Clone)]
pub struct GaussianStream {
    state: u64,
    spare: Option<f64>,
}

impl GaussianStream {
    /// Creates a stream whose entire future output is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        GaussianStream {
            state: seed,
            spare: None,
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 bits of precision — the same conversion the
    /// workspace `rand` stub uses, so stream and RNG-backed samplers share
    /// one uniform-to-float convention.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws one standard-normal variate (Box–Muller, cached spare).
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // u1 in (0, 1]: guard against ln(0), as in `NormalSampler`.
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fills `out` with independent N(0, 1) variates.
    pub fn fill(&mut self, out: &mut [f64]) {
        for o in out {
            *o = self.sample();
        }
    }
}

/// Adds independent N(0, sigma²) noise to `data`, treated as consecutive
/// rows of length `row_len` (the final row may be shorter), with one
/// [`GaussianStream`] per row seeded by
/// `stream_seed(noise_seed, domain, first_row + k)`.
///
/// Because each row's noise comes from its own stream, the result for a row
/// depends only on `(noise_seed, domain, absolute row index)`: callers may
/// split a matrix into arbitrary contiguous row ranges (passing each range's
/// `first_row`) and process the ranges on any threads in any order, and the
/// combined output is bit-identical to one sequential pass over the whole
/// matrix. An odd `row_len` simply discards each row-stream's final spare,
/// which leaves every emitted variate exactly N(0, 1).
///
/// `scratch` must hold at least `row_len` elements (one row of standard
/// normals); the noise is applied through the unrolled [`ops::axpy_unchecked`]
/// kernel as `row += sigma * scratch`.
pub fn perturb_rows(
    noise_seed: u64,
    domain: u64,
    sigma: f64,
    row_len: usize,
    first_row: u64,
    data: &mut [f64],
    scratch: &mut [f64],
) {
    assert!(row_len > 0, "perturb_rows requires row_len > 0");
    assert!(
        scratch.len() >= row_len,
        "perturb_rows scratch shorter than row_len"
    );
    for (k, row) in data.chunks_mut(row_len).enumerate() {
        let mut stream = GaussianStream::new(stream_seed(noise_seed, domain, first_row + k as u64));
        let s = &mut scratch[..row.len()];
        stream.fill(s);
        ops::axpy_unchecked(sigma, s, row);
    }
}

/// Bounded Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank = k) ∝ 1 / (k + 1)^s`.
///
/// Sampling is O(log n) via binary search over a precomputed CDF table,
/// which is exact (up to floating-point rounding) and fast enough for the
/// generator's ~10⁶ draws.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `s`.
    ///
    /// Returns `None` if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Option<Self> {
        if n == 0 || !s.is_finite() || s < 0.0 {
            return None;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("n > 0");
        for c in &mut cdf {
            *c /= total;
        }
        Some(Zipf { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` iff the support is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of rank `k`, or `0.0` out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draws a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // partition_point returns the first index whose CDF value >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Poisson (independent Bernoulli) subsampling: returns the indices in
/// `0..n` that pass an independent Bernoulli(`q`) trial each.
///
/// This is exactly the user-sampling step of the paper's Algorithm 1: the
/// returned sample has size `q * n` only in expectation, which the moments
/// accountant's privacy-amplification analysis requires.
pub fn poisson_subsample<R: Rng + ?Sized>(rng: &mut R, n: usize, q: f64) -> Vec<usize> {
    let q = q.clamp(0.0, 1.0);
    (0..n).filter(|_| rng.random::<f64>() < q).collect()
}

/// Draws `k` distinct values from `0..n` excluding `forbidden`, by rejection.
///
/// Used for uniform negative sampling: the paper draws `neg` negatives
/// uniformly (a frequency-weighted proposal would leak the private location
/// popularity distribution, §3.2). Rejection is cheap because
/// `k + 1 ≪ n` in all realistic configurations; when `k >= n - 1` the
/// function returns every value except `forbidden`.
pub fn sample_distinct_excluding<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    forbidden: usize,
) -> Vec<usize> {
    let mut picked = Vec::with_capacity(k);
    sample_distinct_excluding_into(rng, n, k, forbidden, &mut picked);
    picked
}

/// [`sample_distinct_excluding`] into a caller-provided buffer, so the
/// negative-sampling inner loop can reuse one candidate vector across calls.
/// `out` is cleared first; it retains its capacity, so steady-state calls are
/// allocation-free. Draws the same RNG sequence as the allocating wrapper.
pub fn sample_distinct_excluding_into<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    k: usize,
    forbidden: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    let avail = if forbidden < n { n - 1 } else { n };
    if k >= avail {
        out.extend((0..n).filter(|&i| i != forbidden));
        return;
    }
    while out.len() < k {
        let c = rng.random_range(0..n);
        if c != forbidden && !out.contains(&c) {
            out.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = NormalSampler::new();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| s.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_sampler_scaled_variance() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut s = NormalSampler::new();
        let n = 100_000;
        let sigma = 2.5;
        let var = (0..n)
            .map(|_| s.sample_scaled(&mut rng, sigma))
            .map(|x| x * x)
            .sum::<f64>()
            / n as f64;
        assert!((var - sigma * sigma).abs() < 0.15, "var {var}");
    }

    #[test]
    fn normal_sampler_reset_ends_the_stream() {
        // Drawing one variate caches a Box–Muller spare; without a reset the
        // next draw emits that spare instead of consuming fresh RNG state.
        // `reset` must make the next draw identical to a fresh sampler's.
        let mut warm_rng = StdRng::seed_from_u64(31);
        let mut warm = NormalSampler::new();
        let _ = warm.sample(&mut warm_rng);

        let mut leaky = warm.clone();
        let mut leaky_rng = warm_rng.clone();
        let leaked = leaky.sample(&mut leaky_rng);

        let mut fresh_rng = warm_rng.clone();
        warm.reset();
        let after_reset = warm.sample(&mut warm_rng);

        let mut fresh = NormalSampler::new();
        let fresh_next = fresh.sample(&mut fresh_rng);

        assert_eq!(
            after_reset.to_bits(),
            fresh_next.to_bits(),
            "after reset the sampler must behave like a fresh one"
        );
        assert_ne!(
            leaked.to_bits(),
            after_reset.to_bits(),
            "without reset the cached spare leaks into the next stream"
        );
    }

    #[test]
    fn gaussian_stream_is_deterministic_and_seed_sensitive() {
        let mut a = GaussianStream::new(42);
        let mut b = GaussianStream::new(42);
        let mut c = GaussianStream::new(43);
        let xs: Vec<u64> = (0..64).map(|_| a.sample().to_bits()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.sample().to_bits()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.sample().to_bits()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        assert_ne!(xs, zs, "different seed, different stream");
    }

    #[test]
    fn gaussian_stream_moments() {
        let mut s = GaussianStream::new(7);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| s.sample()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn stream_seed_separates_domains_and_indices() {
        let base = 0xDEAD_BEEF;
        assert_ne!(stream_seed(base, 0, 5), stream_seed(base, 1, 5));
        assert_ne!(stream_seed(base, 0, 5), stream_seed(base, 0, 6));
        assert_ne!(stream_seed(base, 0, 5), stream_seed(base ^ 1, 0, 5));
    }

    #[test]
    fn perturb_rows_is_partition_invariant() {
        // One sequential pass over all rows vs. the same matrix split into
        // contiguous row ranges: bit-identical output is the whole point of
        // per-row streams.
        let row_len = 7;
        let rows = 12;
        let base: Vec<f64> = (0..rows * row_len).map(|i| i as f64 * 0.25).collect();
        let sigma = 1.75;
        let seed = 0xABCD_EF01_2345_6789;
        let domain = 3;

        let mut want = base.clone();
        let mut scratch = vec![0.0; row_len];
        perturb_rows(seed, domain, sigma, row_len, 0, &mut want, &mut scratch);

        for split in [1, 3, 5, 8, 11] {
            let mut got = base.clone();
            let (lo, hi) = got.split_at_mut(split * row_len);
            perturb_rows(seed, domain, sigma, row_len, 0, lo, &mut scratch);
            perturb_rows(seed, domain, sigma, row_len, split as u64, hi, &mut scratch);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "split at row {split} changed bits");
        }
    }

    #[test]
    fn perturb_rows_handles_short_final_row() {
        // 3 full rows of 4 plus a trailing row of 2 (the bias tail case).
        let mut v = vec![0.0; 14];
        let mut scratch = vec![0.0; 4];
        perturb_rows(99, 2, 1.0, 4, 10, &mut v, &mut scratch);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!(v.iter().any(|&x| x != 0.0));
        // The tail row must match the head of the same stream's full row.
        let mut full = vec![0.0; 4];
        let mut stream = GaussianStream::new(stream_seed(99, 2, 13));
        stream.fill(&mut full);
        assert_eq!(v[12].to_bits(), full[0].to_bits());
        assert_eq!(v[13].to_bits(), full[1].to_bits());
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_decreasing() {
        let z = Zipf::new(100, 1.0).unwrap();
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-15);
        }
        assert_eq!(z.pmf(100), 0.0);
    }

    #[test]
    fn zipf_empirical_head_mass_matches_pmf() {
        let z = Zipf::new(50, 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mut count0 = 0usize;
        for _ in 0..n {
            if z.sample(&mut rng) == 0 {
                count0 += 1;
            }
        }
        let emp = count0 as f64 / n as f64;
        assert!((emp - z.pmf(0)).abs() < 0.01, "emp {emp} pmf {}", z.pmf(0));
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(10, -1.0).is_none());
        assert!(Zipf::new(10, f64::NAN).is_none());
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn poisson_subsample_expectation_and_edges() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = 10_000;
        let q = 0.06;
        let sizes: Vec<usize> = (0..50)
            .map(|_| poisson_subsample(&mut rng, n, q).len())
            .collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            (mean - q * n as f64).abs() < 40.0,
            "mean sample size {mean}"
        );
        assert!(poisson_subsample(&mut rng, n, 0.0).is_empty());
        assert_eq!(poisson_subsample(&mut rng, n, 1.0).len(), n);
        assert_eq!(poisson_subsample(&mut rng, n, 2.0).len(), n, "q is clamped");
    }

    #[test]
    fn distinct_excluding_respects_contract() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let s = sample_distinct_excluding(&mut rng, 20, 5, 3);
            assert_eq!(s.len(), 5);
            assert!(!s.contains(&3));
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "values are distinct");
        }
    }

    #[test]
    fn distinct_excluding_into_matches_wrapper() {
        let mut a = StdRng::seed_from_u64(23);
        let mut b = StdRng::seed_from_u64(23);
        let mut buf = vec![99, 98];
        for _ in 0..20 {
            let want = sample_distinct_excluding(&mut a, 30, 6, 4);
            sample_distinct_excluding_into(&mut b, 30, 6, 4, &mut buf);
            assert_eq!(buf, want, "same RNG sequence, same picks");
        }
        sample_distinct_excluding_into(&mut b, 3, 10, 1, &mut buf);
        assert_eq!(buf, vec![0, 2], "saturation clears previous contents");
    }

    #[test]
    fn distinct_excluding_saturates_to_full_complement() {
        let mut rng = StdRng::seed_from_u64(19);
        let s = sample_distinct_excluding(&mut rng, 5, 10, 2);
        assert_eq!(s, vec![0, 1, 3, 4]);
        let t = sample_distinct_excluding(&mut rng, 5, 4, 2);
        assert_eq!(t.len(), 4);
    }
}
