//! The sampled-softmax loss with hand-derived gradients.
//!
//! For a (target `x`, context `y`) pair with negatives `n₁..n_neg`, let
//! `u = W[x]` and candidates `c₀ = y, c₁..c_neg = negatives`, with logits
//! `sⱼ = u · W′[cⱼ] + B′[cⱼ]`. With the paper's *uniform* proposal the
//! log-correction term is a constant across candidates and cancels inside
//! the softmax: `p = softmax(s)`, `J = −log p₀`, and
//!
//! ```text
//! ∂J/∂W′[cⱼ] = (pⱼ − [j = 0]) · u
//! ∂J/∂B′[cⱼ] =  pⱼ − [j = 0]
//! ∂J/∂W[x]   =  Σⱼ (pⱼ − [j = 0]) · W′[cⱼ]
//! ```
//!
//! The gradients are verified against central finite differences in the
//! test module.

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

/// Computes the loss of one example and records `scale · ∇J` in `grad`:
/// one copy of `u`, one touch per candidate (issued positive first, then
/// the negatives in order) and one touch of the target's embedding row.
/// Returns the example loss.
///
/// `negatives` must not contain `context` (the sampler guarantees this);
/// duplicates among negatives are tolerated mathematically but reduce the
/// effective sample size.
///
/// Generic over [`ParamsView`], so the same pass runs against dense
/// parameters and the copy-on-write bucket overlay without code or
/// numerical divergence.
///
/// # Errors
/// Tokens must be within the vocabulary.
pub fn forward_backward<P: ParamsView + ?Sized>(
    params: &P,
    target: usize,
    context: usize,
    negatives: &[usize],
    scale: f64,
    grad: &mut BatchGrad,
) -> Result<f64, ModelError> {
    let vocab = params.vocab_size();
    check_token(target, vocab)?;
    check_token(context, vocab)?;
    for &n in negatives {
        check_token(n, vocab)?;
    }

    let u = params.embedding_row(target);
    let slot = grad.begin_example(target, scale, u);
    let k = negatives.len() + 1;

    grad.logits.clear();
    grad.logits.reserve(k);
    grad.logits
        .push(ops::dot_unchecked(u, params.context_row(context)) + params.bias_at(context));
    for &n in negatives {
        grad.logits
            .push(ops::dot_unchecked(u, params.context_row(n)) + params.bias_at(n));
    }
    grad.probs.resize(k, 0.0);
    ops::softmax_into(&grad.logits, &mut grad.probs)?;
    // -log p0, guarded against p0 underflow.
    let loss_value = -(grad.probs[0].max(f64::MIN_POSITIVE)).ln();
    for j in 0..k {
        let p = grad.probs[j];
        let coef = if j == 0 { p - 1.0 } else { p };
        let c = if j == 0 { context } else { negatives[j - 1] };
        // ∂J/∂W′[c] += coef · u ; ∂J/∂B′[c] += coef.
        grad.touch_context(c, scale * coef, slot);
        // grad_u += coef · W′[c].
        ops::axpy(coef, params.context_row(c), grad.grad_u_mut())?;
    }

    if !loss_value.is_finite() {
        return Err(ModelError::NonFinite { at: "example loss" });
    }
    Ok(loss_value)
}

/// Loss of one example (validation). `scratch` is cleared first and holds
/// a record nobody applies.
///
/// # Errors
/// Tokens must be within the vocabulary.
pub fn example_loss<P: ParamsView + ?Sized>(
    params: &P,
    target: usize,
    context: usize,
    negatives: &[usize],
    scratch: &mut BatchGrad,
) -> Result<f64, ModelError> {
    scratch.clear();
    forward_backward(params, target, context, negatives, 0.0, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
            .map_inplace(|x| x + 0.05 * (rand::RngExt::random::<f64>(&mut rng2) - 0.5));
        (p, vec![3, 7, 9])
    }

    /// The gradient of one example, read by applying its record to zeros.
    fn gradient(
        params: &ModelParams,
        (target, context): (usize, usize),
        negs: &[usize],
    ) -> ModelParams {
        let mut log = BatchGrad::new();
        forward_backward(params, target, context, negs, 1.0, &mut log).unwrap();
        let mut grad = ModelParams::zeros(params.vocab_size(), params.dim());
        log.apply_to(&mut grad, 1.0).unwrap();
        grad
    }

    #[test]
    fn sampled_softmax_gradients_match_finite_differences() {
        // Central finite differences of every touched coordinate.
        let (params, negs) = setup();
        let target = 1usize;
        let context = 5usize;
        let grad = gradient(&params, (target, context), &negs);

        let eps = 1e-6;
        let f = |p: &ModelParams| {
            example_loss(p, target, context, &negs, &mut BatchGrad::new()).unwrap()
        };
        // Embedding row of the target.
        for d in 0..params.dim() {
            let mut plus = params.clone();
            plus.embedding.row_mut(target)[d] += eps;
            let mut minus = params.clone();
            minus.embedding.row_mut(target)[d] -= eps;
            let num = (f(&plus) - f(&minus)) / (2.0 * eps);
            let ana = grad.embedding.row(target)[d];
            assert!(
                (num - ana).abs() < 1e-5,
                "dW[{target}][{d}]: {num} vs {ana}"
            );
        }
        // Context rows and biases of all candidates.
        for &c in [context].iter().chain(&negs) {
            for d in 0..params.dim() {
                let mut plus = params.clone();
                plus.context.row_mut(c)[d] += eps;
                let mut minus = params.clone();
                minus.context.row_mut(c)[d] -= eps;
                let num = (f(&plus) - f(&minus)) / (2.0 * eps);
                let ana = grad.context.row(c)[d];
                assert!((num - ana).abs() < 1e-5, "dW'[{c}][{d}]: {num} vs {ana}");
            }
            let mut plus = params.clone();
            plus.bias[c] += eps;
            let mut minus = params.clone();
            minus.bias[c] -= eps;
            let num = (f(&plus) - f(&minus)) / (2.0 * eps);
            let ana = grad.bias[c];
            assert!((num - ana).abs() < 1e-5, "dB'[{c}]: {num} vs {ana}");
        }
    }

    #[test]
    fn loss_is_positive_and_decreases_after_a_step() {
        let (mut params, negs) = setup();
        let mut log = BatchGrad::new();
        let before = example_loss(&params, 1, 5, &negs, &mut log).unwrap();
        assert!(before > 0.0);
        // One SGD step on this single example.
        log.clear();
        forward_backward(&params, 1, 5, &negs, 1.0, &mut log).unwrap();
        log.apply_to(&mut params, -0.5).unwrap();
        let after = example_loss(&params, 1, 5, &negs, &mut log).unwrap();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn only_candidate_rows_are_touched() {
        let (params, negs) = setup();
        let grad = gradient(&params, (1, 5), &negs);
        let zero = vec![0.0; params.dim()];
        for r in 0..params.vocab_size() {
            let candidate = r == 5 || negs.contains(&r);
            assert_eq!(grad.embedding.row(r) != zero, r == 1, "W[{r}]");
            assert_eq!(grad.context.row(r) != zero, candidate, "W'[{r}]");
            assert_eq!(grad.bias[r] != 0.0, candidate, "B'[{r}]");
        }
    }

    #[test]
    fn softmax_bias_gradients_sum_to_zero() {
        // Σⱼ (pⱼ − tⱼ) = 0: the bias gradients over candidates cancel.
        let (params, negs) = setup();
        let grad = gradient(&params, (2, 6), &negs);
        let total: f64 = grad.bias.iter().sum();
        assert!(total.abs() < 1e-12, "bias grads sum to {total}");
    }

    #[test]
    fn rejects_out_of_range_tokens() {
        let (params, _) = setup();
        let mut log = BatchGrad::new();
        let r = forward_backward(&params, 99, 5, &[1], 1.0, &mut log);
        assert!(matches!(
            r,
            Err(ModelError::TokenOutOfRange { token: 99, .. })
        ));
        let r = example_loss(&params, 1, 99, &[1], &mut log);
        assert!(matches!(
            r,
            Err(ModelError::TokenOutOfRange { token: 99, .. })
        ));
        let r = example_loss(&params, 1, 5, &[99], &mut log);
        assert!(matches!(
            r,
            Err(ModelError::TokenOutOfRange { token: 99, .. })
        ));
    }
}
