//! Per-step user sampling (Algorithm 1, line 5).
//!
//! "Given a sampling probability q = m/N, each element of the user set is
//! subjected to an independent Bernoulli trial … the size of the sampled set
//! is equal to m only in expectation. This is a necessary step in correctly
//! accounting for the privacy loss via the moments accountant."

use rand::Rng;

use plp_linalg::sample::poisson_subsample;

use crate::error::DataError;

/// Poisson-samples user indices `0..num_users` with probability `q` each.
///
/// # Errors
/// `q` must lie in `[0, 1]`.
pub fn sample_users<R: Rng + ?Sized>(
    rng: &mut R,
    num_users: usize,
    q: f64,
) -> Result<Vec<usize>, DataError> {
    if !(0.0..=1.0).contains(&q) || !q.is_finite() {
        return Err(DataError::BadConfig {
            name: "q",
            expected: "in [0, 1]",
        });
    }
    Ok(poisson_subsample(rng, num_users, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_size_matches_expectation() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 4602;
        let q = 0.06;
        let mut total = 0usize;
        let reps = 200;
        for _ in 0..reps {
            total += sample_users(&mut rng, n, q).unwrap().len();
        }
        let mean = total as f64 / reps as f64;
        let expected = q * n as f64;
        assert!(
            (mean - expected).abs() < 0.05 * expected,
            "{mean} vs {expected}"
        );
    }

    #[test]
    fn sample_sizes_vary_across_steps() {
        // Poisson sampling gives a *random* sample size — a fixed-size
        // sampler would invalidate the accountant's amplification bound.
        let mut rng = StdRng::seed_from_u64(22);
        let sizes: Vec<usize> = (0..20)
            .map(|_| sample_users(&mut rng, 1000, 0.1).unwrap().len())
            .collect();
        let distinct: std::collections::HashSet<_> = sizes.iter().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn indices_are_valid_sorted_and_unique() {
        let mut rng = StdRng::seed_from_u64(23);
        let s = sample_users(&mut rng, 100, 0.5).unwrap();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn rejects_bad_q() {
        let mut rng = StdRng::seed_from_u64(24);
        assert!(sample_users(&mut rng, 10, -0.1).is_err());
        assert!(sample_users(&mut rng, 10, 1.5).is_err());
        assert!(sample_users(&mut rng, 10, f64::NAN).is_err());
    }

    #[test]
    fn empty_population_yields_empty_sample() {
        let mut rng = StdRng::seed_from_u64(25);
        assert!(sample_users(&mut rng, 0, 0.5).unwrap().is_empty());
    }
}
