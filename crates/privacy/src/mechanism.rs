//! The output-perturbation mechanism.
//!
//! [`GaussianMechanism`] is the noise source of Algorithm 1 (line 9): the
//! clipped bucket gradients are summed and perturbed with
//! `N(0, σ²C²I)`.

use plp_linalg::sample;

use crate::error::PrivacyError;

/// The Gaussian mechanism of (ε, δ)-differential privacy.
///
/// Adds `N(0, (noise_multiplier · sensitivity)²)` noise per coordinate.
/// Following DP-SGD convention, the *noise multiplier* σ and the ℓ2
/// *sensitivity* C are kept separate so the accountant can reason about σ
/// alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMechanism {
    noise_multiplier: f64,
    sensitivity: f64,
}

impl GaussianMechanism {
    /// Creates a mechanism with noise multiplier `sigma` and ℓ2 sensitivity
    /// `sensitivity`.
    ///
    /// # Errors
    /// Both parameters must be finite and positive.
    pub fn new(sigma: f64, sensitivity: f64) -> Result<Self, PrivacyError> {
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "sigma",
                value: sigma,
                expected: "finite and > 0",
            });
        }
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "sensitivity",
                value: sensitivity,
                expected: "finite and > 0",
            });
        }
        Ok(GaussianMechanism {
            noise_multiplier: sigma,
            sensitivity,
        })
    }

    /// The per-coordinate noise standard deviation `σ · C`.
    pub fn noise_std(&self) -> f64 {
        self.noise_multiplier * self.sensitivity
    }

    /// Adds `N(0, (σC)²)` noise to `data` — consecutive rows of length
    /// `row_len`, the first of which has absolute index `first_row` within
    /// `domain` — using one counter-seeded Gaussian stream per row (see
    /// `plp_linalg::sample::perturb_rows`).
    ///
    /// Because every row's noise depends only on
    /// `(noise_seed, domain, row index)`, callers may partition a parameter
    /// matrix into arbitrary contiguous row ranges and perturb the ranges on
    /// any threads in any order: the output is bit-identical to a sequential
    /// pass. Takes `&self` — no sampler state is shared between rows, calls,
    /// or threads. `scratch` must hold at least `row_len` elements.
    pub fn perturb_rows(
        &self,
        noise_seed: u64,
        domain: u64,
        row_len: usize,
        first_row: u64,
        data: &mut [f64],
        scratch: &mut [f64],
    ) {
        sample::perturb_rows(
            noise_seed,
            domain,
            self.noise_std(),
            row_len,
            first_row,
            data,
            scratch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_rejects_bad_params() {
        assert!(GaussianMechanism::new(0.0, 1.0).is_err());
        assert!(GaussianMechanism::new(1.0, 0.0).is_err());
        assert!(GaussianMechanism::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn gaussian_noise_has_requested_std() {
        // Centred on the input with variance (σC)², through the row path
        // training takes; rows shorter than the slab exercise many streams.
        let m = GaussianMechanism::new(2.0, 0.5).unwrap();
        let mut v = vec![3.0; 100_000];
        let mut scratch = vec![0.0; 50];
        m.perturb_rows(5, 0, 50, 0, &mut v, &mut scratch);
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let expected = m.noise_std() * m.noise_std();
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!(
            (var - expected).abs() < 0.05 * expected,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn gaussian_perturbs_every_coordinate() {
        let m = GaussianMechanism::new(1.0, 1.0).unwrap();
        let mut v = vec![0.0; 64];
        let mut scratch = vec![0.0; 16];
        m.perturb_rows(6, 2, 16, 0, &mut v, &mut scratch);
        assert!(v.iter().all(|&x| x != 0.0), "zeros must also receive noise");
    }

    #[test]
    fn perturb_rows_is_partition_invariant_and_scaled() {
        let m = GaussianMechanism::new(2.0, 0.5).unwrap();
        let row_len = 5;
        let rows = 8;
        let base = vec![1.0; rows * row_len];
        let mut scratch = vec![0.0; row_len];

        let mut want = base.clone();
        m.perturb_rows(77, 1, row_len, 0, &mut want, &mut scratch);

        // Split into three ranges, perturbed out of order.
        let mut got = base.clone();
        let (head, rest) = got.split_at_mut(2 * row_len);
        let (mid, tail) = rest.split_at_mut(3 * row_len);
        m.perturb_rows(77, 1, row_len, 5, tail, &mut scratch);
        m.perturb_rows(77, 1, row_len, 0, head, &mut scratch);
        m.perturb_rows(77, 1, row_len, 2, mid, &mut scratch);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()));

        // Noise std is σ·C: check the empirical variance on a larger slab.
        let mut big = vec![0.0; 100_000];
        let mut s = vec![0.0; 64];
        m.perturb_rows(123, 0, 64, 0, &mut big, &mut s);
        let var = big.iter().map(|x| x * x).sum::<f64>() / big.len() as f64;
        let expected = m.noise_std() * m.noise_std();
        assert!(
            (var - expected).abs() < 0.05 * expected,
            "var {var} vs {expected}"
        );
    }

    /// 1 010 000 unit-σ draws through the training path on zeros: 10 000
    /// rows of 64 and 10 000 rows of 37, so 20 000 row streams and both
    /// parities of `row_len` are pooled.
    fn pooled_noise() -> Vec<f64> {
        let m = GaussianMechanism::new(1.0, 1.0).unwrap();
        let mut pooled = Vec::with_capacity(10_000 * (64 + 37));
        let mut scratch = vec![0.0; 64];
        for (domain, row_len) in [(0, 64), (1, 37)] {
            let mut slab = vec![0.0; 10_000 * row_len];
            m.perturb_rows(0xD157, domain, row_len, 0, &mut slab, &mut scratch);
            pooled.extend(slab);
        }
        pooled
    }

    /// Φ by Abramowitz–Stegun 7.1.26 (|error| ≤ 1.5·10⁻⁷ on erf).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z);
        let a = [
            0.254_829_592,
            -0.284_496_736,
            1.421_413_741,
            -1.453_152_027,
            1.061_405_429,
        ];
        let poly = t * a.iter().rev().fold(0.0, |acc, c| c + t * acc);
        let upper = 0.5 * poly * (-z * z).exp();
        if x < 0.0 {
            upper
        } else {
            1.0 - upper
        }
    }

    #[test]
    fn distribution_passes_kolmogorov_smirnov_against_phi() {
        let mut xs = pooled_noise();
        xs.sort_by(f64::total_cmp);
        let n = xs.len() as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (phi(x) - i as f64 / n).max((i + 1) as f64 / n - phi(x)))
            .fold(0.0, f64::max);
        // 1.95 / √n is the KS statistic's 0.1 % critical value.
        assert!(d < 1.95 / n.sqrt(), "D = {d}");
    }

    #[test]
    fn distribution_has_the_first_four_moments() {
        let xs = pooled_noise();
        let n = xs.len() as f64;
        // E[x^k] under N(0, 1), and the variance of one draw's x^k.
        let moments = [(1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.0, 15.0), (4, 3.0, 96.0)];
        for (k, want, var) in moments {
            let got = xs.iter().map(|x| x.powi(k)).sum::<f64>() / n;
            let se = f64::sqrt(var / n);
            assert!(
                (got - want).abs() < 5.0 * se,
                "E[x^{k}] = {got}, want {want} ± {se}"
            );
        }
    }

    #[test]
    fn distribution_has_the_tail_mass_beyond_r_and_4_5() {
        let xs = pooled_noise();
        let n = xs.len() as f64;
        // R is where the ziggurat's base strip hands over to its tail
        // method; each side is counted, so a tail with one sign fails too.
        for cut in [3.654_152_885_361_009, 4.5] {
            let p = phi(-cut);
            let sd = (n * p * (1.0 - p)).sqrt();
            for side in [-1.0, 1.0] {
                let count = xs.iter().filter(|&&x| side * x > cut).count() as f64;
                assert!(
                    (count - n * p).abs() < 5.0 * sd,
                    "{side} · x > {cut}: {count} draws, want {} ± {sd}",
                    n * p
                );
            }
        }
    }
}
