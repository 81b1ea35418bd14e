//! Membership-inference evaluation.
//!
//! The paper motivates DP training with the membership-inference threat
//! (§1: "an adversary who has access to the model … can learn whether the
//! target's data was used to train the model" [25, 52]). This module
//! implements the standard *loss-threshold* attack (Yeom et al. 2018):
//! members of the training set tend to incur lower model loss than
//! non-members, so the attacker thresholds the per-user loss. We report the
//! attack's AUC — 0.5 means the attacker learns nothing, which is what DP
//! training should (approximately) enforce and what the integration tests
//! assert.

use rand::Rng;

use plp_data::dataset::TokenizedDataset;
use plp_model::params::ModelParams;
use plp_model::train::validation_loss;

use crate::config::Hyperparameters;
use crate::error::CoreError;

/// Outcome of a loss-threshold membership-inference attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipReport {
    /// Area under the ROC curve of the attacker (0.5 = no leakage; 1.0 =
    /// perfect membership recovery).
    pub auc: f64,
    /// Membership advantage `2·AUC − 1` (Yeom et al.).
    pub advantage: f64,
    /// Mean per-user loss over training members.
    pub member_mean_loss: f64,
    /// Mean per-user loss over non-members.
    pub nonmember_mean_loss: f64,
    /// Number of member users scored.
    pub members: usize,
    /// Number of non-member users scored.
    pub nonmembers: usize,
}

/// Per-user mean skip-gram loss under `params` (the attacker's score).
///
/// # Errors
/// Propagates model errors.
pub fn per_user_losses<R: Rng + ?Sized>(
    rng: &mut R,
    params: &ModelParams,
    data: &TokenizedDataset,
    hp: &Hyperparameters,
) -> Result<Vec<f64>, CoreError> {
    let local = hp.local_sgd();
    let mut out = Vec::with_capacity(data.num_users());
    // Each user's history widened into one reused buffer.
    let mut tokens = Vec::new();
    for u in data.users.iter().filter(|u| u.num_tokens() >= 2) {
        tokens.clear();
        tokens.extend(u.tokens().iter().map(|&t| t as usize));
        out.push(validation_loss(rng, params, &tokens, &local)?);
    }
    Ok(out)
}

/// AUC of separating `member_scores` (expected *lower*) from
/// `nonmember_scores` via the Mann–Whitney U statistic: the probability
/// that a random member scores below a random non-member (ties count ½).
pub fn auc_lower_is_member(member_scores: &[f64], nonmember_scores: &[f64]) -> f64 {
    if member_scores.is_empty() || nonmember_scores.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0;
    for &m in member_scores {
        for &n in nonmember_scores {
            if m < n {
                wins += 1.0;
            } else if m == n {
                wins += 0.5;
            }
        }
    }
    wins / (member_scores.len() * nonmember_scores.len()) as f64
}

/// Runs the loss-threshold membership-inference attack against a trained
/// model.
///
/// `members` should be (a sample of) the training users; `nonmembers` the
/// held-out users. Both are scored with fresh uniform negatives.
///
/// # Errors
/// Propagates model errors.
pub fn loss_threshold_attack<R: Rng + ?Sized>(
    rng: &mut R,
    params: &ModelParams,
    members: &TokenizedDataset,
    nonmembers: &TokenizedDataset,
    hp: &Hyperparameters,
) -> Result<MembershipReport, CoreError> {
    let member_losses = per_user_losses(rng, params, members, hp)?;
    let nonmember_losses = per_user_losses(rng, params, nonmembers, hp)?;
    let auc = auc_lower_is_member(&member_losses, &nonmember_losses);
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Ok(MembershipReport {
        auc,
        advantage: 2.0 * auc - 1.0,
        member_mean_loss: mean(&member_losses),
        nonmember_mean_loss: mean(&nonmember_losses),
        members: member_losses.len(),
        nonmembers: nonmember_losses.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_data::checkin::UserId;
    use plp_data::dataset::UserSequences;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn auc_of_separated_distributions_is_one() {
        let members = [0.1, 0.2, 0.3];
        let nonmembers = [1.0, 2.0];
        assert_eq!(auc_lower_is_member(&members, &nonmembers), 1.0);
        assert_eq!(auc_lower_is_member(&nonmembers, &members), 0.0);
    }

    #[test]
    fn auc_of_identical_distributions_is_half() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(auc_lower_is_member(&a, &a), 0.5);
        assert_eq!(auc_lower_is_member(&[], &a), 0.5);
        assert_eq!(auc_lower_is_member(&a, &[]), 0.5);
    }

    #[test]
    fn attack_runs_end_to_end_on_untrained_model() {
        let make = |base: usize, n: usize| TokenizedDataset {
            users: (0..n)
                .map(|i| {
                    UserSequences::new(
                        UserId(i as u32),
                        vec![(0..10).map(|t| (base + t + i) % 12).collect()],
                    )
                })
                .collect(),
            vocab_size: 12,
        };
        let members = make(0, 8);
        let nonmembers = make(3, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let params = ModelParams::init(&mut rng, 12, 6).unwrap();
        let hp = Hyperparameters {
            embedding_dim: 6,
            negative_samples: 3,
            ..Hyperparameters::default()
        };
        let r = loss_threshold_attack(&mut rng, &params, &members, &nonmembers, &hp).unwrap();
        assert_eq!(r.members, 8);
        assert_eq!(r.nonmembers, 6);
        // An untrained model leaks (almost) nothing.
        assert!((r.auc - 0.5).abs() < 0.25, "auc {}", r.auc);
        assert!((r.advantage - (2.0 * r.auc - 1.0)).abs() < 1e-12);
        assert!(r.member_mean_loss > 0.0 && r.nonmember_mean_loss > 0.0);
    }

    #[test]
    fn short_histories_are_skipped() {
        let ds = TokenizedDataset {
            users: vec![UserSequences::new(UserId(0), vec![vec![1]])],
            vocab_size: 4,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let params = ModelParams::init(&mut rng, 4, 3).unwrap();
        let hp = Hyperparameters {
            embedding_dim: 3,
            negative_samples: 2,
            ..Hyperparameters::default()
        };
        let losses = per_user_losses(&mut rng, &params, &ds, &hp).unwrap();
        assert!(losses.is_empty());
    }
}
