//! The user-level DP-SGD baseline (§5.2).
//!
//! "We evaluate our proposed Private Location Prediction (PLP) approach in
//! comparison with DP-SGD [2], … adapted to work on user-partitioned data,
//! so that it guarantees user-level privacy" — i.e. the McMahan et al.
//! federated-averaging formulation: one clipped model delta per *user*,
//! which is exactly Algorithm 1 with a grouping factor of λ = 1.
//!
//! Keeping it as a thin wrapper (rather than a fork of the training loop)
//! guarantees that every accuracy difference measured between PLP and
//! DP-SGD is attributable to data grouping alone.

use rand::Rng;

use plp_data::dataset::TokenizedDataset;

use crate::config::Hyperparameters;
use crate::error::CoreError;
use crate::plp::{train_plp, PlpOutcome};

/// The λ = 1 configuration [`train_dpsgd`] actually runs: `hp` with the
/// grouping factor forced to one user per bucket. Exposed so resumable
/// drivers can checkpoint the baseline through the same code path.
pub fn baseline_hyperparameters(hp: &Hyperparameters) -> Hyperparameters {
    let mut baseline = hp.clone();
    baseline.grouping_factor = 1;
    baseline
}

/// Trains the user-level DP-SGD baseline: Algorithm 1 with λ = 1
/// (one clipped, noised delta per sampled user).
///
/// The `grouping_factor` field of `hp` is ignored and forced to `1`.
///
/// # Errors
/// Same contract as [`train_plp`].
pub fn train_dpsgd<R: Rng + ?Sized>(
    rng: &mut R,
    train: &TokenizedDataset,
    validation: Option<&TokenizedDataset>,
    hp: &Hyperparameters,
) -> Result<PlpOutcome, CoreError> {
    train_plp(rng, train, validation, &baseline_hyperparameters(hp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_data::checkin::UserId;
    use plp_data::dataset::UserSequences;
    use plp_privacy::PrivacyBudget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(num_users: usize) -> TokenizedDataset {
        let users = (0..num_users)
            .map(|i| {
                UserSequences::new(
                    UserId(i as u32),
                    vec![(0..10).map(|t| (t + i) % 8).collect()],
                )
            })
            .collect();
        TokenizedDataset {
            users,
            vocab_size: 8,
        }
    }

    fn hp() -> Hyperparameters {
        Hyperparameters {
            embedding_dim: 6,
            negative_samples: 3,
            sampling_prob: 0.4,
            grouping_factor: 4, // must be overridden to 1
            max_steps: 3,
            budget: PrivacyBudget {
                epsilon: 100.0,
                delta: 1e-3,
            },
            ..Hyperparameters::default()
        }
    }

    #[test]
    fn baseline_uses_one_user_per_bucket() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = train_dpsgd(&mut rng, &dataset(20), None, &hp()).unwrap();
        for t in &out.telemetry {
            assert_eq!(
                t.buckets, t.sampled_users,
                "lambda = 1 means |H| = |sample|"
            );
        }
    }

    #[test]
    fn baseline_matches_plp_with_lambda_one() {
        let ds = dataset(16);
        let mut plp_hp = hp();
        plp_hp.grouping_factor = 1;
        let mut rng1 = StdRng::seed_from_u64(3);
        let a = crate::plp::train_plp(&mut rng1, &ds, None, &plp_hp).unwrap();
        let mut rng2 = StdRng::seed_from_u64(3);
        let b = train_dpsgd(&mut rng2, &ds, None, &hp()).unwrap();
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn baseline_consumes_budget_identically_to_plp() {
        // Grouping does not change the privacy accounting: same q, sigma,
        // steps => same epsilon.
        let ds = dataset(16);
        let mut rng1 = StdRng::seed_from_u64(5);
        let base = train_dpsgd(&mut rng1, &ds, None, &hp()).unwrap();
        let mut rng2 = StdRng::seed_from_u64(6);
        let mut plp_hp = hp();
        plp_hp.grouping_factor = 4;
        let plp = crate::plp::train_plp(&mut rng2, &ds, None, &plp_hp).unwrap();
        assert!((base.summary.epsilon_spent - plp.summary.epsilon_spent).abs() < 1e-12);
    }
}
