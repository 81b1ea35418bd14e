//! The sampled-softmax loss with hand-derived gradients.
//!
//! A batch of (target, context) pairs shares one negative set `S`, drawn
//! uniformly from the vocabulary — TensorFlow's `sampled_softmax_loss`
//! draws its `num_sampled` classes once per batch. For the pair `(x, y)`
//! let `u = W[x]` and candidates `c₀ = y, c₁.. =` the members of `S` other
//! than `y`, in order: a pair whose own context was drawn into `S` (an
//! accidental hit) sees `|S| − 1` negatives, as with TensorFlow's
//! `remove_accidental_hits=True`. With logits `sⱼ = u · W′[cⱼ] + B′[cⱼ]`
//! and the paper's *uniform* proposal the log-correction term is a
//! constant across candidates and cancels inside the softmax:
//! `p = softmax(s)`, `J = −log p₀`, and
//!
//! ```text
//! ∂J/∂W′[cⱼ] = (pⱼ − [j = 0]) · u
//! ∂J/∂B′[cⱼ] =  pⱼ − [j = 0]
//! ∂J/∂W[x]   =  Σⱼ (pⱼ − [j = 0]) · W′[cⱼ]
//! ```
//!
//! The negatives' dot products `u · W′[s]` of the whole batch are one
//! block product ([`BatchGrad::score_shared`]); every element has the bits
//! of a per-pair [`ops::dot_unchecked`]. The gradients are verified
//! against central finite differences in the test module.

use plp_data::window::Pair;
use plp_linalg::ops;

use crate::error::ModelError;
use crate::grad::BatchGrad;
use crate::params::ParamsView;

pub(crate) fn check_token(t: usize, vocab: usize) -> Result<(), ModelError> {
    if t >= vocab {
        return Err(ModelError::TokenOutOfRange { token: t, vocab });
    }
    Ok(())
}

/// Computes the loss of every pair of a batch against the shared
/// `negatives` and records `scale · ∇J` of each in `grad`: one copy of `u`
/// and one touch of the target's embedding row per pair, then per pair
/// one touch per candidate (issued positive first, then the negatives in
/// order, the pair's own context skipped). Returns the sum of the pairs'
/// losses.
///
/// Every pair is evaluated at the same parameters. Duplicates among
/// `negatives` are tolerated mathematically but reduce the effective
/// sample size. Generic over [`ParamsView`], so the same pass runs against
/// dense parameters and the copy-on-write bucket overlay without code or
/// numerical divergence.
///
/// # Errors
/// Tokens must be within the vocabulary.
pub fn forward_backward<P: ParamsView + ?Sized>(
    params: &P,
    pairs: &[Pair],
    negatives: &[usize],
    scale: f64,
    grad: &mut BatchGrad,
) -> Result<f64, ModelError> {
    let vocab = params.vocab_size();
    for &(target, context) in pairs {
        check_token(target, vocab)?;
        check_token(context, vocab)?;
    }
    for &n in negatives {
        check_token(n, vocab)?;
    }
    if pairs.is_empty() {
        return Ok(0.0);
    }

    let first = grad.examples();
    for &(target, _) in pairs {
        grad.begin_example(target, scale, params.embedding_row(target));
    }
    grad.score_shared(params, first, negatives)?;

    let mut total = 0.0;
    for (i, &(target, context)) in pairs.iter().enumerate() {
        let slot = first + i as u32;
        let u = params.embedding_row(target);
        let candidates = std::iter::once(context)
            .chain(negatives.iter().copied().filter(move |&n| n != context));
        let scores = &grad.scores[i * negatives.len()..][..negatives.len()];
        grad.logits.clear();
        grad.logits
            .push(ops::dot_unchecked(u, params.context_row(context)) + params.bias_at(context));
        for (&n, &dot) in negatives.iter().zip(scores) {
            if n != context {
                grad.logits.push(dot + params.bias_at(n));
            }
        }
        grad.probs.resize(grad.logits.len(), 0.0);
        ops::softmax_into(&grad.logits, &mut grad.probs)?;
        // -log p0, guarded against p0 underflow.
        let loss_value = -(grad.probs[0].max(f64::MIN_POSITIVE)).ln();
        for (j, c) in candidates.enumerate() {
            let p = grad.probs[j];
            let coef = if j == 0 { p - 1.0 } else { p };
            // ∂J/∂W′[c] += coef · u ; ∂J/∂B′[c] += coef.
            grad.touch_context(c, scale * coef, slot);
            // grad_u += coef · W′[c].
            ops::axpy(coef, params.context_row(c), grad.grad_u_mut(slot))?;
        }
        if !loss_value.is_finite() {
            return Err(ModelError::NonFinite { at: "example loss" });
        }
        total += loss_value;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use plp_linalg::sample::sample_distinct_excluding_into;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn setup() -> (ModelParams, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut p = ModelParams::init(&mut rng, 12, 5).unwrap();
        // Give context/bias non-zero values so gradients flow everywhere.
        p.context.map_inplace(|_| 0.1);
        for (i, b) in p.bias.iter_mut().enumerate() {
            *b = 0.01 * i as f64;
        }
        let mut rng2 = StdRng::seed_from_u64(13);
        p.context
            .map_inplace(|x| x + 0.05 * (rng2.random::<f64>() - 0.5));
        (p, vec![3, 7, 9])
    }

    /// The summed loss of a batch; nothing is applied.
    fn loss(params: &ModelParams, pairs: &[Pair], negs: &[usize]) -> f64 {
        forward_backward(params, pairs, negs, 0.0, &mut BatchGrad::new()).unwrap()
    }

    /// The gradient of a batch's summed loss, read by applying its record
    /// to zeros.
    fn gradient(params: &ModelParams, pairs: &[Pair], negs: &[usize]) -> ModelParams {
        let mut log = BatchGrad::new();
        forward_backward(params, pairs, negs, 1.0, &mut log).unwrap();
        let mut grad = ModelParams::zeros(params.vocab_size(), params.dim());
        log.apply_to(&mut grad, 1.0).unwrap();
        grad
    }

    /// Central finite differences of every coordinate of θ — touched or
    /// not — against the recorded gradient.
    fn assert_matches_finite_differences(params: &ModelParams, pairs: &[Pair], negs: &[usize]) {
        let grad = gradient(params, pairs, negs);
        let eps = 1e-6;
        let numeric = |nudge: &dyn Fn(&mut ModelParams, f64)| {
            let mut plus = params.clone();
            nudge(&mut plus, eps);
            let mut minus = params.clone();
            nudge(&mut minus, -eps);
            (loss(&plus, pairs, negs) - loss(&minus, pairs, negs)) / (2.0 * eps)
        };
        let close = |num: f64, ana: f64, what: String| {
            assert!(
                (num - ana).abs() < 1e-5,
                "{what}: {num} vs {ana} ({pairs:?}, S = {negs:?})"
            );
        };
        for r in 0..params.vocab_size() {
            for d in 0..params.dim() {
                let num = numeric(&|p, e| p.embedding.row_mut(r)[d] += e);
                close(num, grad.embedding.row(r)[d], format!("dW[{r}][{d}]"));
                let num = numeric(&|p, e| p.context.row_mut(r)[d] += e);
                close(num, grad.context.row(r)[d], format!("dW'[{r}][{d}]"));
            }
            let num = numeric(&|p, e| p.bias[r] += e);
            close(num, grad.bias[r], format!("dB'[{r}]"));
        }
    }

    #[test]
    fn sampled_softmax_gradients_match_finite_differences() {
        let (params, negs) = setup();
        // One pair.
        assert_matches_finite_differences(&params, &[(1, 5)], &negs);
        // Pair 0's context was drawn into S: masked for it, a negative for
        // pair 1.
        let hit = [3, 5, 9];
        assert_matches_finite_differences(&params, &[(1, 5), (2, 6)], &hit);
        // Two pairs with the same context, one of them also a target.
        assert_matches_finite_differences(&params, &[(1, 5), (4, 5), (5, 1)], &negs);
        // `vocab ≤ neg`: S is the whole vocabulary, so every pair's context
        // is an accidental hit.
        let mut all = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        sample_distinct_excluding_into(&mut rng, 12, 16, usize::MAX, &mut all);
        assert_eq!(all, (0..12).collect::<Vec<_>>());
        assert_matches_finite_differences(&params, &[(1, 5), (2, 5), (3, 8)], &all);
    }

    #[test]
    fn an_accidental_hit_is_masked_for_its_own_pair_only() {
        // The batch loss is the per-pair losses, each against S without its
        // own context, summed in batch order.
        let (params, _) = setup();
        let hit = [3, 5, 9];
        let batch = loss(&params, &[(1, 5), (2, 6)], &hit);
        let alone = 0.0 + loss(&params, &[(1, 5)], &[3, 9]) + loss(&params, &[(2, 6)], &hit);
        assert_eq!(batch.to_bits(), alone.to_bits());
        // Pair 0 touches W′[5] once, as its positive, and B′[5] with
        // p₀ − 1 < 0; pair 1 touches it as a negative.
        let solo = gradient(&params, &[(1, 5)], &hit);
        assert!(solo.bias[5] < 0.0);
        let masked = gradient(&params, &[(1, 5)], &[3, 9]);
        assert_eq!(solo, masked);
    }

    #[test]
    fn block_logits_are_per_pair_dots_bit_for_bit() {
        // Ragged batches around the 16-row tile, shared sets around the
        // 64-column tile, widths off the eight-lane kernel.
        let mut rng = StdRng::seed_from_u64(21);
        for dim in [3, 13, 50] {
            let params = ModelParams::init(&mut rng, 90, dim).unwrap();
            for batch in [1, 5, 16, 17, 33] {
                for k in [1, 16, 65] {
                    let pairs: Vec<Pair> = (0..batch)
                        .map(|_| (rng.random_range(0..90), rng.random_range(0..90)))
                        .collect();
                    let mut negs = Vec::new();
                    sample_distinct_excluding_into(&mut rng, 90, k, usize::MAX, &mut negs);
                    let mut log = BatchGrad::new();
                    forward_backward(&params, &pairs, &negs, 1.0, &mut log).unwrap();
                    assert_eq!(log.scores.len(), batch * k);
                    for (i, &(target, _)) in pairs.iter().enumerate() {
                        for (j, &n) in negs.iter().enumerate() {
                            let want = ops::dot_unchecked(
                                params.embedding.row(target),
                                params.context.row(n),
                            );
                            let got = log.scores[i * k + j];
                            assert_eq!(got.to_bits(), want.to_bits(), "dim {dim} [{i}, {j}]");
                        }
                    }
                    // The last pair's logits, as a per-pair pass builds them.
                    let (target, context) = pairs[batch - 1];
                    let u = params.embedding.row(target);
                    let logit =
                        |c: usize| ops::dot_unchecked(u, params.context.row(c)) + params.bias[c];
                    let want: Vec<u64> = std::iter::once(context)
                        .chain(negs.iter().copied().filter(|&n| n != context))
                        .map(|c| logit(c).to_bits())
                        .collect();
                    let got: Vec<u64> = log.logits.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "dim {dim}, batch {batch}, |S| {k}");
                }
            }
        }
    }

    #[test]
    fn loss_is_positive_and_decreases_after_a_step() {
        let (mut params, negs) = setup();
        let pairs = [(1, 5), (2, 6)];
        let before = loss(&params, &pairs, &negs);
        assert!(before > 0.0);
        // One SGD step on this batch.
        let mut log = BatchGrad::new();
        forward_backward(&params, &pairs, &negs, 1.0, &mut log).unwrap();
        log.apply_to(&mut params, -0.5).unwrap();
        let after = loss(&params, &pairs, &negs);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn only_candidate_rows_are_touched() {
        // W rows: the targets. W′ rows and biases: the contexts and S,
        // at most |S| + batch of them.
        let (params, _) = setup();
        let pairs = [(1, 5), (2, 6), (8, 5)];
        let negs = [3, 5, 9];
        let grad = gradient(&params, &pairs, &negs);
        let zero = vec![0.0; params.dim()];
        for r in 0..params.vocab_size() {
            let target = pairs.iter().any(|&(t, _)| t == r);
            let candidate = pairs.iter().any(|&(_, c)| c == r) || negs.contains(&r);
            assert_eq!(grad.embedding.row(r) != zero, target, "W[{r}]");
            assert_eq!(grad.context.row(r) != zero, candidate, "W'[{r}]");
            assert_eq!(grad.bias[r] != 0.0, candidate, "B'[{r}]");
        }
    }

    #[test]
    fn softmax_bias_gradients_sum_to_zero() {
        // Σⱼ (pⱼ − tⱼ) = 0 per pair: the bias gradients over candidates
        // cancel, accidental hits included.
        let (params, negs) = setup();
        let grad = gradient(&params, &[(2, 6), (4, 7)], &negs);
        let total: f64 = grad.bias.iter().sum();
        assert!(total.abs() < 1e-12, "bias grads sum to {total}");
    }

    #[test]
    fn rejects_out_of_range_tokens() {
        let (params, _) = setup();
        let mut log = BatchGrad::new();
        for (pairs, negs) in [([(99, 5)], [1]), ([(1, 99)], [1]), ([(1, 5)], [99])] {
            let r = forward_backward(&params, &pairs, &negs, 1.0, &mut log);
            assert!(
                matches!(r, Err(ModelError::TokenOutOfRange { token: 99, .. })),
                "{pairs:?} {negs:?}"
            );
        }
    }
}
