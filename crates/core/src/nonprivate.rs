//! The non-private skip-gram trainer — the accuracy upper bound of
//! Figures 5 and 6.
//!
//! Standard epoch-based SGD: every epoch visits every user (in a shuffled
//! order) and runs mini-batch SGD over the user's token array. No clipping,
//! no noise, no sampling — this is the "non-private learning approach using
//! SGD" baseline of §5.2, whose best HR@10 the paper reports as 29.5%.

use rand::seq::SliceRandom;
use rand::Rng;

use plp_data::dataset::TokenizedDataset;
use plp_model::metrics::{evaluate_hit_rate_threaded, HitRate};
use plp_model::negative::NegativeSampler;
use plp_model::params::ModelParams;
use plp_model::train::{train_on_tokens, validation_loss, TrainScratch};

use crate::config::Hyperparameters;
use crate::error::CoreError;

/// Configuration of a non-private run.
#[derive(Debug, Clone, PartialEq)]
pub struct NonPrivateConfig {
    /// Data epochs to run (the paper plots up to 250).
    pub epochs: usize,
    /// Evaluate HR@k every this many epochs (0 = only at the end).
    pub eval_every: usize,
    /// Cutoffs to evaluate (paper: 5, 10, 20).
    pub ks: Vec<usize>,
    /// Negative sampler (uniform by default; unigram allowed here because
    /// the non-private setting has no leakage constraint).
    pub unigram_negatives: bool,
    /// Linearly decay the learning rate to 10% of its initial value over
    /// the configured epochs (word2vec-style; prevents the late-epoch
    /// degradation a constant rate causes).
    pub lr_decay: bool,
}

impl Default for NonPrivateConfig {
    fn default() -> Self {
        NonPrivateConfig {
            epochs: 20,
            eval_every: 0,
            ks: vec![5, 10, 20],
            unigram_negatives: false,
            lr_decay: true,
        }
    }
}

/// Telemetry of one non-private epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTelemetry {
    /// 1-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation HR@k (one entry per configured k), when evaluated.
    pub validation: Option<Vec<HitRate>>,
}

/// Result of a non-private run.
#[derive(Debug, Clone)]
pub struct NonPrivateOutcome {
    /// Trained parameters.
    pub params: ModelParams,
    /// Per-epoch telemetry.
    pub telemetry: Vec<EpochTelemetry>,
}

/// Trains without privacy for `cfg.epochs` epochs.
///
/// Uses the skip-gram hyper-parameters of `hp` (dim, window, batch, neg,
/// learning rate); the privacy fields of `hp` are ignored.
///
/// # Errors
/// Propagates configuration, data and model errors.
pub fn train_nonprivate<R: Rng + ?Sized>(
    rng: &mut R,
    train: &TokenizedDataset,
    validation: Option<&TokenizedDataset>,
    hp: &Hyperparameters,
    cfg: &NonPrivateConfig,
) -> Result<NonPrivateOutcome, CoreError> {
    hp.validate()?;
    if cfg.epochs == 0 {
        return Err(CoreError::BadConfig {
            name: "epochs",
            expected: ">= 1",
        });
    }
    if train.vocab_size < 2 {
        return Err(CoreError::BadConfig {
            name: "train.vocab_size",
            expected: ">= 2",
        });
    }
    let sampler = if cfg.unigram_negatives {
        let counts = plp_model::metrics::token_counts(train);
        NegativeSampler::unigram(&counts, 0.75)?
    } else {
        NegativeSampler::Uniform
    };
    let mut params = ModelParams::init(rng, train.vocab_size, hp.embedding_dim)?;
    let base_local = hp.local_sgd();
    let mut order: Vec<usize> = (0..train.num_users()).collect();
    let mut telemetry = Vec::with_capacity(cfg.epochs);
    let mut scratch = TrainScratch::new();

    for epoch in 1..=cfg.epochs {
        let mut local = base_local;
        if cfg.lr_decay && cfg.epochs > 1 {
            // Linear decay from 100% to 10% of the initial rate.
            let progress = (epoch - 1) as f64 / (cfg.epochs - 1) as f64;
            local.learning_rate = base_local.learning_rate * (1.0 - 0.9 * progress);
        }
        order.shuffle(rng);
        let mut loss_sum = 0.0;
        let mut pair_count = 0usize;
        for &u in &order {
            let tokens = train.users[u].flattened();
            let stats = train_on_tokens(rng, &mut params, &tokens, &local, &sampler, &mut scratch)?;
            loss_sum += stats.mean_loss * stats.pairs as f64;
            pair_count += stats.pairs;
        }
        let evaluate = match (validation, cfg.eval_every) {
            (Some(_), 0) => epoch == cfg.epochs,
            (Some(_), n) => epoch % n == 0 || epoch == cfg.epochs,
            (None, _) => false,
        };
        let validation_hr = if evaluate {
            let v = validation.expect("checked above");
            Some(evaluate_hit_rate_threaded(
                &params,
                v,
                &cfg.ks,
                hp.effective_threads(),
            )?)
        } else {
            None
        };
        telemetry.push(EpochTelemetry {
            epoch,
            train_loss: if pair_count == 0 {
                0.0
            } else {
                loss_sum / pair_count as f64
            },
            validation: validation_hr,
        });
    }
    Ok(NonPrivateOutcome { params, telemetry })
}

/// Mean validation loss of the model over held-out users (Figure 6's loss
/// curve on the validation side).
///
/// # Errors
/// Propagates model errors.
pub fn heldout_loss<R: Rng + ?Sized>(
    rng: &mut R,
    params: &ModelParams,
    data: &TokenizedDataset,
    hp: &Hyperparameters,
) -> Result<f64, CoreError> {
    let local = hp.local_sgd();
    let mut total = 0.0;
    let mut n = 0usize;
    for u in &data.users {
        let tokens = u.flattened();
        if tokens.len() < 2 {
            continue;
        }
        total += validation_loss(rng, params, &tokens, &local, &NegativeSampler::Uniform)?;
        n += 1;
    }
    Ok(if n == 0 { 0.0 } else { total / n as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_data::checkin::UserId;
    use plp_data::dataset::UserSequences;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Strongly-structured corpus: token communities {0..5} and {8..13}.
    fn dataset(num_users: usize) -> TokenizedDataset {
        let users = (0..num_users)
            .map(|i| {
                let base = if i % 2 == 0 { 0 } else { 8 };
                UserSequences {
                    user: UserId(i as u32),
                    sessions: vec![(0..20).map(|t| base + (t + i) % 6).collect()],
                }
            })
            .collect();
        TokenizedDataset {
            users,
            vocab_size: 16,
        }
    }

    fn hp() -> Hyperparameters {
        Hyperparameters {
            embedding_dim: 12,
            negative_samples: 5,
            learning_rate: 0.08,
            ..Hyperparameters::default()
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut rng = StdRng::seed_from_u64(1);
        let out = train_nonprivate(
            &mut rng,
            &dataset(20),
            None,
            &hp(),
            &NonPrivateConfig {
                epochs: 8,
                ..NonPrivateConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.telemetry.len(), 8);
        let first = out.telemetry.first().unwrap().train_loss;
        let last = out.telemetry.last().unwrap().train_loss;
        assert!(last < first, "loss {last} !< {first}");
    }

    #[test]
    fn learned_model_beats_random_guessing() {
        let mut rng = StdRng::seed_from_u64(2);
        let train = dataset(30);
        let test = dataset(6);
        let out = train_nonprivate(
            &mut rng,
            &train,
            Some(&test),
            &hp(),
            &NonPrivateConfig {
                epochs: 12,
                ..NonPrivateConfig::default()
            },
        )
        .unwrap();
        let hr = out.telemetry.last().unwrap().validation.as_ref().unwrap();
        let hr5 = hr[0].rate();
        let random = plp_model::metrics::random_baseline(5, 16);
        assert!(hr5 > 2.0 * random, "hr5 {hr5} vs random {random}");
    }

    #[test]
    fn eval_every_controls_cadence() {
        let mut rng = StdRng::seed_from_u64(3);
        let out = train_nonprivate(
            &mut rng,
            &dataset(10),
            Some(&dataset(2)),
            &hp(),
            &NonPrivateConfig {
                epochs: 5,
                eval_every: 2,
                ..NonPrivateConfig::default()
            },
        )
        .unwrap();
        let evaluated: Vec<usize> = out
            .telemetry
            .iter()
            .filter(|t| t.validation.is_some())
            .map(|t| t.epoch)
            .collect();
        assert_eq!(
            evaluated,
            vec![2, 4, 5],
            "every 2 epochs plus the final one"
        );
    }

    #[test]
    fn unigram_negatives_also_learn() {
        let mut rng = StdRng::seed_from_u64(4);
        let out = train_nonprivate(
            &mut rng,
            &dataset(16),
            None,
            &hp(),
            &NonPrivateConfig {
                epochs: 4,
                unigram_negatives: true,
                ..NonPrivateConfig::default()
            },
        )
        .unwrap();
        assert!(out.params.all_finite());
        let first = out.telemetry.first().unwrap().train_loss;
        let last = out.telemetry.last().unwrap().train_loss;
        assert!(last < first);
    }

    #[test]
    fn heldout_loss_is_finite_and_positive() {
        let mut rng = StdRng::seed_from_u64(5);
        let train = dataset(10);
        let out = train_nonprivate(
            &mut rng,
            &train,
            None,
            &hp(),
            &NonPrivateConfig {
                epochs: 2,
                ..NonPrivateConfig::default()
            },
        )
        .unwrap();
        let l = heldout_loss(&mut rng, &out.params, &dataset(3), &hp()).unwrap();
        assert!(l.is_finite() && l > 0.0);
        let empty = TokenizedDataset {
            users: vec![],
            vocab_size: 16,
        };
        assert_eq!(
            heldout_loss(&mut rng, &out.params, &empty, &hp()).unwrap(),
            0.0
        );
    }

    #[test]
    fn rejects_zero_epochs() {
        let mut rng = StdRng::seed_from_u64(6);
        let r = train_nonprivate(
            &mut rng,
            &dataset(4),
            None,
            &hp(),
            &NonPrivateConfig {
                epochs: 0,
                ..NonPrivateConfig::default()
            },
        );
        assert!(r.is_err());
    }
}
