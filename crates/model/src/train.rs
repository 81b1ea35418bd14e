//! Local mini-batch SGD over a token array — the inner loop of
//! `ModelUpdateFromBucket` (Algorithm 1, lines 15–22).
//!
//! The caller clones θ_t into a working copy Φ, runs one pass of batched
//! SGD over the bucket's token array, and turns `Φ − θ_t` into a sparse
//! delta (clipping is the caller's job; this module only trains).

use std::collections::BTreeSet;

use rand::{seq::SliceRandom, Rng};

use crate::error::ModelError;
use crate::grad::SparseGrad;
use crate::loss::{forward_backward, Loss, Scratch};
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

/// Rows touched during a local pass, for sparse-delta extraction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TouchedRows {
    /// Embedding rows updated.
    pub embedding: BTreeSet<usize>,
    /// Context rows updated.
    pub context: BTreeSet<usize>,
    /// Bias entries updated.
    pub bias: BTreeSet<usize>,
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
    /// Which parameter rows were updated.
    pub touched: TouchedRows,
}

/// Reusable buffers for [`train_on_tokens_with_scratch`]: the pair list,
/// the per-batch gradient (with its row pool), the forward/backward
/// scratch, and the negative-sample candidates. Every buffer is cleared at
/// its point of use and retains capacity, so a worker that reuses one
/// `TrainScratch` across buckets stops allocating *buffers* once each has
/// grown to its bucket-working-set size. What it keeps allocating is the
/// per-batch gradient's map nodes — [`SparseGrad::recycle`] pools row
/// buffers, not `BTreeMap` nodes — about 180 allocations a batch at the
/// paper's settings (counted in `tests/alloc_count.rs`).
///
/// Scratch contents never influence results: training with a warm scratch
/// is bit-identical to training with a fresh one.
#[derive(Debug, Default)]
pub struct TrainScratch {
    pairs: Vec<Pair>,
    grad: SparseGrad,
    scratch: Scratch,
    negatives: Vec<usize>,
}

impl TrainScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TrainScratch::default()
    }

    /// Number of pooled gradient-row buffers available for reuse (a
    /// diagnostic hook for buffer-reuse tests).
    pub fn grad_pool_len(&self) -> usize {
        self.grad.pool_len()
    }
}

/// Runs one pass of mini-batch SGD over `tokens`, mutating `params` in
/// place: for each batch `b`, `Φ ← Φ − η · (1/|b|) Σ ∇J` (Algorithm 1,
/// line 19). Gradients within a batch are all evaluated at the same Φ.
///
/// Allocating convenience wrapper over [`train_on_tokens_with_scratch`];
/// both draw the same RNG sequence and produce bit-identical parameters.
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
) -> Result<TrainStats, ModelError> {
    let mut scratch = TrainScratch::new();
    let mut touched = TouchedRows::default();
    let stats = train_on_tokens_with_scratch(
        rng,
        params,
        tokens,
        config,
        sampler,
        &mut scratch,
        Some(&mut touched),
    )?;
    Ok(TrainStats { touched, ..stats })
}

/// The scratch-reusing core of [`train_on_tokens`]. `params` may be a dense
/// [`crate::params::ModelParams`] or the copy-on-write overlay
/// ([`crate::journal::CowParams`]) of the clone-free bucket-delta path.
///
/// `touched` is an optional out-parameter: pass `Some` to record which rows
/// were updated (the clone-and-diff delta path needs it), `None` to skip
/// the bookkeeping entirely (the row journal already knows its touched
/// rows). The returned stats carry an empty `touched` set; the wrapper
/// fills it in.
///
/// # Errors
/// Same contract as [`train_on_tokens`].
pub fn train_on_tokens_with_scratch<R: Rng + ?Sized, P: ParamsViewMut + ?Sized>(
    rng: &mut R,
    params: &mut P,
    tokens: &[usize],
    config: &LocalSgdConfig,
    sampler: &NegativeSampler,
    scratch: &mut TrainScratch,
    mut touched: Option<&mut TouchedRows>,
) -> Result<TrainStats, ModelError> {
    config.validate()?;
    let vocab = params.vocab_size();
    let dim = params.dim();
    let TrainScratch {
        pairs,
        grad,
        scratch: fb_scratch,
        negatives,
    } = scratch;

    // Same draw sequence as the paper's `generateBatches`: window, then one
    // shuffle, then fixed-size chunks (`validate` guarantees batch_size ≥ 1).
    pairs_from_sequence_into(tokens, config.window, pairs);
    pairs.shuffle(rng);

    let mut total_loss = 0.0;
    let mut trained_pairs = 0usize;
    let mut batches = 0usize;
    for batch in pairs.chunks(config.batch_size) {
        let scale = 1.0 / batch.len() as f64;
        grad.recycle();
        // Journal-pooled accumulation: the loss defers its context/bias
        // touches and the flush below replays them grouped by row, walking
        // each gradient row contiguously instead of chasing the map once
        // per candidate. Bit-identical to immediate accumulation (every
        // pair evaluates at the same Φ and per-row order is preserved);
        // see `SparseGrad::flush_pooled_batch`.
        grad.begin_pooled_batch(dim);
        for &(target, context) in batch {
            sampler.sample_into(rng, vocab, config.negatives, context, negatives)?;
            let l = forward_backward(
                params,
                config.loss,
                target,
                context,
                negatives,
                scale,
                grad,
                fb_scratch,
            )?;
            total_loss += l;
            trained_pairs += 1;
        }
        grad.flush_pooled_batch();
        if !grad.all_finite() {
            return Err(ModelError::NonFinite {
                at: "batch gradient",
            });
        }
        if let Some(t) = touched.as_deref_mut() {
            t.embedding.extend(grad.embedding.keys().copied());
            t.context.extend(grad.context.keys().copied());
            t.bias.extend(grad.bias.keys().copied());
        }
        grad.apply_to(params, -config.learning_rate)?;
        batches += 1;
    }

    Ok(TrainStats {
        mean_loss: if trained_pairs == 0 {
            0.0
        } else {
            total_loss / trained_pairs as f64
        },
        pairs: trained_pairs,
        batches,
        touched: TouchedRows::default(),
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
    let mut scratch = Scratch::new();
    let pairs = plp_data::window::pairs_from_sequence(tokens, config.window);
    if pairs.is_empty() {
        return Ok(0.0);
    }
    let mut total = 0.0;
    for (target, context) in &pairs {
        let negatives = sampler.sample(rng, vocab, config.negatives, *context)?;
        total += crate::loss::example_loss(
            params,
            config.loss,
            *target,
            *context,
            &negatives,
            &mut scratch,
        )?;
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

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ModelParams::init(&mut rng, 20, 8).unwrap();
        let cfg = config();
        let sampler = NegativeSampler::Uniform;
        let tokens = corpus();
        let before = validation_loss(&mut rng, &params, &tokens, &cfg, &sampler).unwrap();
        for _ in 0..5 {
            train_on_tokens(&mut rng, &mut params, &tokens, &cfg, &sampler).unwrap();
        }
        let after = validation_loss(&mut rng, &params, &tokens, &cfg, &sampler).unwrap();
        assert!(after < before, "loss {after} !< {before}");
        assert!(params.all_finite());
    }

    #[test]
    fn stats_account_for_all_pairs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = ModelParams::init(&mut rng, 20, 4).unwrap();
        let tokens = corpus();
        let cfg = config();
        let stats = train_on_tokens(
            &mut rng,
            &mut params,
            &tokens,
            &cfg,
            &NegativeSampler::Uniform,
        )
        .unwrap();
        let expected = plp_data::window::pairs_from_sequence(&tokens, cfg.window).len();
        assert_eq!(stats.pairs, expected);
        assert_eq!(stats.batches, expected.div_ceil(cfg.batch_size));
        assert!(stats.mean_loss > 0.0);
        // Touched rows include every distinct token as a target.
        for t in [0usize, 1, 2, 3, 10, 11, 12, 13] {
            assert!(stats.touched.embedding.contains(&t));
        }
    }

    #[test]
    fn empty_tokens_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ModelParams::init(&mut rng, 10, 4).unwrap();
        let before = params.clone();
        let stats = train_on_tokens(
            &mut rng,
            &mut params,
            &[],
            &config(),
            &NegativeSampler::Uniform,
        )
        .unwrap();
        assert_eq!(stats.pairs, 0);
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
        let r = train_on_tokens(
            &mut rng,
            &mut params,
            &[1, 99, 2],
            &config(),
            &NegativeSampler::Uniform,
        );
        assert!(r.is_err());
    }

    #[test]
    fn training_is_seed_deterministic() {
        let tokens = corpus();
        let cfg = config();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = ModelParams::init(&mut rng, 20, 4).unwrap();
            train_on_tokens(&mut rng, &mut p, &tokens, &cfg, &NegativeSampler::Uniform).unwrap();
            p
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn pooled_training_is_bit_identical_to_unpooled_reference() {
        // Re-run the exact batch loop of `train_on_tokens_with_scratch`
        // with immediate (unpooled) accumulation and the same RNG draw
        // sequence. The journal-pooled walk reorders only *where* each
        // row's touches are applied, never their per-row order, so the
        // trained parameters must agree bit for bit.
        let tokens = corpus();
        let sampler = NegativeSampler::Uniform;
        for loss in [Loss::SampledSoftmax, Loss::Sgns] {
            let cfg = LocalSgdConfig { loss, ..config() };

            let mut rng = StdRng::seed_from_u64(7);
            let mut reference = ModelParams::init(&mut rng, 20, 8).unwrap();
            let mut pairs = plp_data::window::pairs_from_sequence(&tokens, cfg.window);
            pairs.shuffle(&mut rng);
            let mut grad = SparseGrad::new();
            let mut fb = Scratch::new();
            let mut negatives = Vec::new();
            for batch in pairs.chunks(cfg.batch_size) {
                let scale = 1.0 / batch.len() as f64;
                grad.recycle();
                for &(target, context) in batch {
                    sampler
                        .sample_into(&mut rng, 20, cfg.negatives, context, &mut negatives)
                        .unwrap();
                    forward_backward(
                        &reference, cfg.loss, target, context, &negatives, scale, &mut grad,
                        &mut fb,
                    )
                    .unwrap();
                }
                grad.apply_to(&mut reference, -cfg.learning_rate).unwrap();
            }

            let mut rng = StdRng::seed_from_u64(7);
            let mut pooled = ModelParams::init(&mut rng, 20, 8).unwrap();
            train_on_tokens_with_scratch(
                &mut rng,
                &mut pooled,
                &tokens,
                &cfg,
                &sampler,
                &mut TrainScratch::new(),
                None,
            )
            .unwrap();

            assert_eq!(pooled, reference, "{loss:?}: pooled != unpooled");
        }
    }

    #[test]
    fn warm_scratch_is_bit_identical_and_reuses_buffers() {
        let tokens = corpus();
        let cfg = config();
        let mut scratch = TrainScratch::new();

        let run = |scratch: &mut TrainScratch| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut p = ModelParams::init(&mut rng, 20, 4).unwrap();
            train_on_tokens_with_scratch(
                &mut rng,
                &mut p,
                &tokens,
                &cfg,
                &NegativeSampler::Uniform,
                scratch,
                None,
            )
            .unwrap();
            p
        };

        let cold = run(&mut scratch);
        let pool_after_first = scratch.grad_pool_len();
        let warm = run(&mut scratch);
        assert_eq!(cold, warm, "scratch state must not influence results");
        assert_eq!(
            scratch.grad_pool_len(),
            pool_after_first,
            "identical passes reuse pooled rows instead of growing the pool"
        );

        // And the scratch path matches the allocating wrapper bit for bit.
        let mut rng = StdRng::seed_from_u64(7);
        let mut p = ModelParams::init(&mut rng, 20, 4).unwrap();
        let stats =
            train_on_tokens(&mut rng, &mut p, &tokens, &cfg, &NegativeSampler::Uniform).unwrap();
        assert_eq!(p, warm);
        assert!(stats.pairs > 0);
    }
}
