//! Local mini-batch SGD over a token array — the inner loop of
//! `ModelUpdateFromBucket` (Algorithm 1, lines 15–22).
//!
//! The caller clones θ_t into a working copy Φ, runs one pass of batched
//! SGD over the bucket's token array, and turns `Φ − θ_t` into a sparse
//! delta (clipping is the caller's job; this module only trains).
//!
//! Each batch draws one uniform negative set S and every pair of the batch
//! scores against it, as TensorFlow's `sampled_softmax_loss` samples its
//! classes per batch ([`crate::loss`]). A batch's gradient therefore lands
//! in at most `neg + batch` rows of `W′`, and a bucket's in at most its
//! distinct contexts plus `batches · neg`.

use rand::{seq::SliceRandom, Rng};

use crate::error::ModelError;
use crate::grad::BatchGrad;
use crate::loss::forward_backward;
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
    /// Negatives per batch `neg`, shared by the batch's pairs (paper
    /// default 16).
    pub negatives: usize,
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

/// Negatives are drawn uniformly from the vocabulary ("a sampled softmax
/// function with a uniform sampling distribution", §3.2 — a
/// frequency-weighted proposal would leak location popularity) and a
/// pair's own context is masked out of them, so a pair needs at least one
/// other token.
fn check_negatives_exist(vocab: usize) -> Result<(), ModelError> {
    if vocab < 2 {
        return Err(ModelError::BadConfig {
            name: "vocab",
            expected: ">= 2",
        });
    }
    Ok(())
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

/// Reusable buffers for [`train_on_tokens`]: the pair list, the batch's
/// shared negative set and the per-batch gradient log. Every buffer
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
    shared: Vec<usize>,
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
    scratch: &mut TrainScratch,
) -> Result<TrainStats, ModelError> {
    config.validate()?;
    let vocab = params.vocab_size();
    let TrainScratch {
        pairs,
        shared,
        batch: grad,
    } = scratch;

    // Same draw sequence as the paper's `generateBatches`: window, then one
    // shuffle, then fixed-size chunks (`validate` guarantees batch_size ≥ 1).
    pairs_from_sequence_into(tokens, config.window, pairs);
    pairs.shuffle(rng);
    if !pairs.is_empty() {
        check_negatives_exist(vocab)?;
    }

    let mut total_loss = 0.0;
    for batch in pairs.chunks(config.batch_size) {
        let scale = 1.0 / batch.len() as f64;
        grad.clear();
        total_loss += sampled_softmax(rng, &*params, batch, config, scale, shared, grad)?;
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

/// Draws a batch's one negative set S — `neg` distinct tokens, uniform over
/// the whole vocabulary, nothing forbidden (all of it when `neg ≥ vocab`) —
/// into `shared` and records the sampled softmax of every pair in `batch`
/// against it, each pair's gradient scaled by `scale`. Returns the summed
/// loss. This is the one place negatives are drawn.
fn sampled_softmax<R: Rng + ?Sized, P: ParamsView + ?Sized>(
    rng: &mut R,
    params: &P,
    batch: &[Pair],
    config: &LocalSgdConfig,
    scale: f64,
    shared: &mut Vec<usize>,
    grad: &mut BatchGrad,
) -> Result<f64, ModelError> {
    plp_linalg::sample::sample_distinct_excluding_into(
        rng,
        params.vocab_size(),
        config.negatives,
        usize::MAX,
        shared,
    );
    forward_backward(params, batch, shared, scale, grad)
}

/// Mean validation loss of `(target, context)` pairs drawn from `tokens`
/// under the model, the pairs taken `batch_size` at a time in window
/// order, each batch against a fresh shared negative set — the objective
/// [`train_on_tokens`] descends (no parameter updates).
///
/// # Errors
/// Propagates token-range errors.
pub fn validation_loss<R: Rng + ?Sized, P: ParamsView + ?Sized>(
    rng: &mut R,
    params: &P,
    tokens: &[usize],
    config: &LocalSgdConfig,
) -> Result<f64, ModelError> {
    config.validate()?;
    let vocab = params.vocab_size();
    let pairs = plp_data::window::pairs_from_sequence(tokens, config.window);
    if pairs.is_empty() {
        return Ok(0.0);
    }
    check_negatives_exist(vocab)?;
    let mut shared = Vec::new();
    let mut sink = BatchGrad::new();
    let mut total = 0.0;
    for batch in pairs.chunks(config.batch_size) {
        sink.clear();
        total += sampled_softmax(rng, params, batch, config, 0.0, &mut shared, &mut sink)?;
    }
    Ok(total / pairs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use plp_linalg::sample::sample_distinct_excluding_into;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config() -> LocalSgdConfig {
        LocalSgdConfig {
            learning_rate: 0.1,
            batch_size: 8,
            window: 2,
            negatives: 4,
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
        train_on_tokens(rng, params, tokens, cfg, &mut TrainScratch::new())
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ModelParams::init(&mut rng, 20, 8).unwrap();
        let cfg = config();
        let tokens = corpus();
        let before = validation_loss(&mut rng, &params, &tokens, &cfg).unwrap();
        for _ in 0..5 {
            train(&mut rng, &mut params, &tokens, &cfg).unwrap();
        }
        let after = validation_loss(&mut rng, &params, &tokens, &cfg).unwrap();
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
        let v = validation_loss(&mut rng, &params, &[], &config()).unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn a_vocabulary_without_negatives_is_refused() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ModelParams::init(&mut rng, 1, 4).unwrap();
        let vocab = |e: ModelError| matches!(e, ModelError::BadConfig { name: "vocab", .. });
        let r = train(&mut rng, &mut params, &[0, 0, 0], &config());
        assert!(vocab(r.unwrap_err()));
        let r = validation_loss(&mut rng, &params, &[0, 0], &config());
        assert!(vocab(r.unwrap_err()));
        // No pair, no negative to draw.
        assert!(train(&mut rng, &mut params, &[0], &config()).is_ok());
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
        // u = 0 keeps every logit at 0 and the loss at ln 5, so p = 1/5 per
        // candidate. A context row of −MAX then contributes (1 − p)·MAX to
        // ∂J/∂u and every negative row of +MAX another p·MAX: a prefix with
        // two more off-corpus negatives than corpus ones passes MAX.
        let tokens = corpus();
        let mut params = ModelParams::zeros(40, 4);
        for r in 0..40 {
            let w = if tokens.contains(&r) {
                -f64::MAX
            } else {
                f64::MAX
            };
            params.context.row_mut(r).fill(w);
        }
        let r = train(
            &mut StdRng::seed_from_u64(5),
            &mut params,
            &tokens,
            &config(),
        );
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
        let cfg = config();

        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = ModelParams::init(&mut rng, 20, 8).unwrap();
        let mut pairs = plp_data::window::pairs_from_sequence(&tokens, cfg.window);
        pairs.shuffle(&mut rng);
        let mut log = BatchGrad::new();
        let mut negatives = Vec::new();
        for batch in pairs.chunks(cfg.batch_size) {
            let scale = 1.0 / batch.len() as f64;
            log.clear();
            sample_distinct_excluding_into(&mut rng, 20, cfg.negatives, usize::MAX, &mut negatives);
            forward_backward(&reference, batch, &negatives, scale, &mut log).unwrap();
            let grad = crate::grad::tests::dense_reference(&log, 20);
            let lr = -cfg.learning_rate;
            reference.embedding.axpy(lr, &grad.embedding).unwrap();
            reference.context.axpy(lr, &grad.context).unwrap();
            plp_linalg::ops::axpy_unchecked(lr, &grad.bias, &mut reference.bias);
        }

        let mut rng = StdRng::seed_from_u64(7);
        let mut replayed = ModelParams::init(&mut rng, 20, 8).unwrap();
        train(&mut rng, &mut replayed, &tokens, &cfg).unwrap();

        assert_eq!(replayed, reference, "replayed != reference");
    }

    #[test]
    fn warm_scratch_is_bit_identical_to_a_fresh_one() {
        let tokens = corpus();
        let cfg = config();
        let run = |scratch: &mut TrainScratch| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut p = ModelParams::init(&mut rng, 20, 4).unwrap();
            train_on_tokens(&mut rng, &mut p, &tokens, &cfg, scratch).unwrap();
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
        train_on_tokens(&mut rng, &mut p, &longer, &wider, &mut scratch).unwrap();
        assert_eq!(
            cold,
            run(&mut scratch),
            "scratch state must not influence results"
        );
    }
}
