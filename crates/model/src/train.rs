//! Local mini-batch SGD over a token array — the inner loop of
//! `ModelUpdateFromBucket` (Algorithm 1, lines 15–22).
//!
//! The caller clones θ_t into a working copy Φ, runs one pass of batched
//! SGD over the bucket's token array, and turns `Φ − θ_t` into a sparse
//! delta (clipping is the caller's job; this module only trains).

use rand::{seq::SliceRandom, Rng};

use crate::error::ModelError;
use crate::grad::BatchGrad;
use crate::loss::{example_loss, forward_backward, Loss};
use crate::negative::NegativeSampler;
use crate::params::{ParamsView, ParamsViewMut};

use plp_data::window::{pairs_from_sequence_into, Pair};

/// Hyper-parameters of a local SGD pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSgdConfig {
    /// Learning rate η.
    pub learning_rate: f64,
    /// Batch size β (paper default 32).
    pub batch_size: usize,
    /// Symmetric context window `win` (paper default 2).
    pub window: usize,
    /// Negatives per positive `neg` (paper default 16).
    pub negatives: usize,
    /// The training objective.
    pub loss: Loss,
}

impl LocalSgdConfig {
    /// Validates the parameter domains.
    ///
    /// # Errors
    /// Returns [`ModelError::BadConfig`] naming the first bad field.
    pub fn validate(&self) -> Result<(), ModelError> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(ModelError::BadConfig {
                name: "learning_rate",
                expected: "finite and > 0",
            });
        }
        if self.batch_size == 0 {
            return Err(ModelError::BadConfig {
                name: "batch_size",
                expected: ">= 1",
            });
        }
        if self.window == 0 {
            return Err(ModelError::BadConfig {
                name: "window",
                expected: ">= 1",
            });
        }
        if self.negatives == 0 {
            return Err(ModelError::BadConfig {
                name: "negatives",
                expected: ">= 1",
            });
        }
        Ok(())
    }
}

/// Outcome of a local SGD pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean per-example loss across all pairs.
    pub mean_loss: f64,
    /// Number of (target, context) pairs trained on.
    pub pairs: usize,
    /// Number of batches executed.
    pub batches: usize,
}

/// Reusable buffers for [`train_on_tokens`]: the pair list, the
/// negative-sample candidates and the per-batch gradient log. Every buffer
/// is cleared at its point of use and retains capacity, so a worker that
/// reuses one `TrainScratch` across buckets stops allocating once each has
/// grown to its bucket-working-set size (counted in
/// `tests/alloc_count.rs`).
///
/// Scratch contents never influence results: training with a warm scratch
/// is bit-identical to training with a fresh one.
#[derive(Debug, Default)]
pub struct TrainScratch {
    pairs: Vec<Pair>,
    negatives: Vec<usize>,
    batch: BatchGrad,
}

impl TrainScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TrainScratch::default()
    }
}

/// Runs one pass of mini-batch SGD over `tokens`, mutating `params` in
/// place: for each batch `b`, `Φ ← Φ − η · (1/|b|) Σ ∇J` (Algorithm 1,
/// line 19). Gradients within a batch are all evaluated at the same Φ.
/// `params` may be a dense [`crate::params::ModelParams`] or the
/// copy-on-write overlay ([`crate::journal::CowParams`]) of the clone-free
/// bucket-delta path.
///
/// # Errors
/// Propagates configuration, token-range and non-finite errors; on error
/// `params` may be partially updated and should be discarded by the caller.
pub fn train_on_tokens<R: Rng + ?Sized, P: ParamsViewMut + ?Sized>(
    rng: &mut R,
    params: &mut P,
    tokens: &[usize],
    config: &LocalSgdConfig,
    sampler: &NegativeSampler,
    scratch: &mut TrainScratch,
) -> Result<TrainStats, ModelError> {
    config.validate()?;
    let vocab = params.vocab_size();
    let TrainScratch {
        pairs,
        negatives,
        batch: grad,
    } = scratch;

    // Same draw sequence as the paper's `generateBatches`: window, then one
    // shuffle, then fixed-size chunks (`validate` guarantees batch_size ≥ 1).
    pairs_from_sequence_into(tokens, config.window, pairs);
    pairs.shuffle(rng);

    let mut total_loss = 0.0;
    for batch in pairs.chunks(config.batch_size) {
        let scale = 1.0 / batch.len() as f64;
        grad.clear();
        for &(target, context) in batch {
            sampler.sample_into(rng, vocab, config.negatives, context, negatives)?;
            total_loss +=
                forward_backward(params, config.loss, target, context, negatives, scale, grad)?;
        }
        grad.apply_to(params, -config.learning_rate)?;
    }

    Ok(TrainStats {
        mean_loss: if pairs.is_empty() {
            0.0
        } else {
            total_loss / pairs.len() as f64
        },
        pairs: pairs.len(),
        batches: pairs.len().div_ceil(config.batch_size),
    })
}

/// Mean validation loss of `(target, context)` pairs drawn from `tokens`
/// under the model, using fresh negatives (no parameter updates).
///
/// # Errors
/// Propagates token-range errors.
pub fn validation_loss<R: Rng + ?Sized, P: ParamsView + ?Sized>(
    rng: &mut R,
    params: &P,
    tokens: &[usize],
    config: &LocalSgdConfig,
    sampler: &NegativeSampler,
) -> Result<f64, ModelError> {
    config.validate()?;
    let vocab = params.vocab_size();
    let pairs = plp_data::window::pairs_from_sequence(tokens, config.window);
    if pairs.is_empty() {
        return Ok(0.0);
    }
    let mut negatives = Vec::new();
    let mut sink = BatchGrad::new();
    let mut total = 0.0;
    for &(target, context) in &pairs {
        sampler.sample_into(rng, vocab, config.negatives, context, &mut negatives)?;
        total += example_loss(params, config.loss, target, context, &negatives, &mut sink)?;
    }
    Ok(total / pairs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> LocalSgdConfig {
        LocalSgdConfig {
            learning_rate: 0.1,
            batch_size: 8,
            window: 2,
            negatives: 4,
            loss: Loss::SampledSoftmax,
        }
    }

    /// A toy corpus where tokens co-occur in two disjoint communities.
    fn corpus() -> Vec<usize> {
        let mut t = Vec::new();
        for _ in 0..30 {
            t.extend_from_slice(&[0, 1, 2, 3]);
            t.extend_from_slice(&[10, 11, 12, 13]);
        }
        t
    }

    /// `train_on_tokens` with a scratch of its own.
    fn train(
        rng: &mut StdRng,
        params: &mut ModelParams,
        tokens: &[usize],
        cfg: &LocalSgdConfig,
    ) -> Result<TrainStats, ModelError> {
        let sampler = NegativeSampler::Uniform;
        train_on_tokens(rng, params, tokens, cfg, &sampler, &mut TrainScratch::new())
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ModelParams::init(&mut rng, 20, 8).unwrap();
        let cfg = config();
        let sampler = NegativeSampler::Uniform;
        let tokens = corpus();
        let before = validation_loss(&mut rng, &params, &tokens, &cfg, &sampler).unwrap();
        for _ in 0..5 {
            train(&mut rng, &mut params, &tokens, &cfg).unwrap();
        }
        let after = validation_loss(&mut rng, &params, &tokens, &cfg, &sampler).unwrap();
        assert!(after < before, "loss {after} !< {before}");
        assert!(params.all_finite());
    }

    #[test]
    fn stats_account_for_all_pairs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = ModelParams::init(&mut rng, 20, 4).unwrap();
        let before = params.clone();
        let tokens = corpus();
        let cfg = config();
        let stats = train(&mut rng, &mut params, &tokens, &cfg).unwrap();
        let expected = plp_data::window::pairs_from_sequence(&tokens, cfg.window).len();
        assert_eq!(stats.pairs, expected);
        assert_eq!(stats.batches, expected.div_ceil(cfg.batch_size));
        assert!(stats.mean_loss > 0.0);
        // Every distinct token is a target, and only targets' rows of W move.
        for t in 0..20 {
            let moved = params.embedding.row(t) != before.embedding.row(t);
            assert_eq!(moved, tokens.contains(&t), "W[{t}]");
        }
    }

    #[test]
    fn empty_tokens_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ModelParams::init(&mut rng, 10, 4).unwrap();
        let before = params.clone();
        let stats = train(&mut rng, &mut params, &[], &config()).unwrap();
        assert_eq!((stats.pairs, stats.batches), (0, 0));
        assert_eq!(stats.mean_loss, 0.0);
        assert_eq!(params, before);
        let v =
            validation_loss(&mut rng, &params, &[], &config(), &NegativeSampler::Uniform).unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn config_validation() {
        let mut c = config();
        c.learning_rate = 0.0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.batch_size = 0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.window = 0;
        assert!(c.validate().is_err());
        let mut c = config();
        c.negatives = 0;
        assert!(c.validate().is_err());
        assert!(config().validate().is_ok());
    }

    #[test]
    fn out_of_range_tokens_are_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = ModelParams::init(&mut rng, 5, 4).unwrap();
        let r = train(&mut rng, &mut params, &[1, 99, 2], &config());
        assert!(matches!(
            r,
            Err(ModelError::TokenOutOfRange { token: 99, .. })
        ));
    }

    #[test]
    fn a_non_finite_batch_gradient_is_reported() {
        // u = 0 keeps every logit and the loss finite while ∂J/∂u =
        // −½w + ½w + ½w + ½w + ½w overflows at w = f64::MAX.
        let mut params = ModelParams::zeros(20, 4);
        params.context.map_inplace(|_| f64::MAX);
        let cfg = LocalSgdConfig {
            loss: Loss::Sgns,
            ..config()
        };
        let r = train(&mut StdRng::seed_from_u64(5), &mut params, &corpus(), &cfg);
        assert!(matches!(
            r,
            Err(ModelError::NonFinite {
                at: "batch gradient"
            })
        ));
    }

    #[test]
    fn training_is_seed_deterministic() {
        let tokens = corpus();
        let cfg = config();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = ModelParams::init(&mut rng, 20, 4).unwrap();
            train(&mut rng, &mut p, &tokens, &cfg).unwrap();
            p
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn pooled_training_is_bit_identical_to_unpooled_reference() {
        // Re-run the exact batch loop of `train_on_tokens` with the same
        // RNG draw sequence, but turn each batch's record into a dense
        // gradient by applying every touch the moment it was issued. The
        // replay reorders only *where* each row's touches are summed,
        // never their per-row order, so the trained parameters must agree
        // bit for bit.
        let tokens = corpus();
        let sampler = NegativeSampler::Uniform;
        for loss in [Loss::SampledSoftmax, Loss::Sgns] {
            let cfg = LocalSgdConfig { loss, ..config() };

            let mut rng = StdRng::seed_from_u64(7);
            let mut reference = ModelParams::init(&mut rng, 20, 8).unwrap();
            let mut pairs = plp_data::window::pairs_from_sequence(&tokens, cfg.window);
            pairs.shuffle(&mut rng);
            let mut log = BatchGrad::new();
            let mut negatives = Vec::new();
            for batch in pairs.chunks(cfg.batch_size) {
                let scale = 1.0 / batch.len() as f64;
                log.clear();
                for &(target, context) in batch {
                    sampler
                        .sample_into(&mut rng, 20, cfg.negatives, context, &mut negatives)
                        .unwrap();
                    forward_backward(
                        &reference, cfg.loss, target, context, &negatives, scale, &mut log,
                    )
                    .unwrap();
                }
                let grad = crate::grad::tests::dense_reference(&log, 20);
                let lr = -cfg.learning_rate;
                reference.embedding.axpy(lr, &grad.embedding).unwrap();
                reference.context.axpy(lr, &grad.context).unwrap();
                plp_linalg::ops::axpy_unchecked(lr, &grad.bias, &mut reference.bias);
            }

            let mut rng = StdRng::seed_from_u64(7);
            let mut replayed = ModelParams::init(&mut rng, 20, 8).unwrap();
            train(&mut rng, &mut replayed, &tokens, &cfg).unwrap();

            assert_eq!(replayed, reference, "{loss:?}: replayed != reference");
        }
    }

    #[test]
    fn warm_scratch_is_bit_identical_to_a_fresh_one() {
        let tokens = corpus();
        let cfg = config();
        let run = |scratch: &mut TrainScratch| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut p = ModelParams::init(&mut rng, 20, 4).unwrap();
            let sampler = NegativeSampler::Uniform;
            train_on_tokens(&mut rng, &mut p, &tokens, &cfg, &sampler, scratch).unwrap();
            p
        };
        let mut scratch = TrainScratch::new();
        let cold = run(&mut scratch);
        // A different pass in between leaves longer buffers behind.
        let longer: Vec<usize> = tokens.iter().chain(&tokens).copied().collect();
        let wider = LocalSgdConfig {
            batch_size: 32,
            ..cfg
        };
        let mut p = ModelParams::zeros(20, 6);
        let mut rng = StdRng::seed_from_u64(8);
        let sampler = NegativeSampler::Uniform;
        train_on_tokens(&mut rng, &mut p, &longer, &wider, &sampler, &mut scratch).unwrap();
        assert_eq!(
            cold,
            run(&mut scratch),
            "scratch state must not influence results"
        );
    }
}
