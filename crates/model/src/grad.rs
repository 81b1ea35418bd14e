//! The per-batch gradient, kept as a log of touches.
//!
//! Negative sampling guarantees that each training example touches only
//! `neg + 1` rows of `W′`/`B′` and one row of `W` (§3.2: "during
//! back-propagation, only neg + 1 vectors in W or W′ are updated instead of
//! entire matrices"), so a batch gradient is sparse in rows. It is never
//! stored as rows: the loss records what each example touches, and
//! [`BatchGrad::apply_to`] replays the records into the parameters one
//! distinct row at a time. (A bucket's delta `g_h = Φ − θ_t` is sparse the
//! same way and *is* stored: the row journal's arena,
//! [`crate::journal::RowDelta`].)

use plp_linalg::ops;

use crate::error::ModelError;
use crate::loss::check_token;
use crate::params::ParamsViewMut;

/// One recorded touch: `tensor[row] += coef · slots[slot]`.
#[derive(Debug, Clone, Copy)]
struct Touch {
    /// `(row << 32) | seq`, `seq` being the touch's position in its list.
    /// Sorting on this single key is a stable sort by row, so a row's
    /// touches stay in the order they were issued.
    key: u64,
    /// Already includes the batch scale. For a context touch it is also
    /// what the bias entry receives.
    coef: f64,
    /// Which example's vector the touch multiplies.
    slot: u32,
}

impl Touch {
    fn row(&self) -> usize {
        (self.key >> 32) as usize
    }
}

fn push_touch(list: &mut Vec<Touch>, row: usize, coef: f64, slot: u32) {
    assert!(
        row <= u32::MAX as usize && list.len() < u32::MAX as usize,
        "row and seq must fit the packed sort key"
    );
    list.push(Touch {
        key: ((row as u64) << 32) | list.len() as u64,
        coef,
        slot,
    });
}

/// The gradient of one batch as [`crate::loss::forward_backward`] records
/// it, and the buffers the pass works in.
///
/// Per example the log holds a copy of the target's embedding row `u`, the
/// example's `∂J/∂u`, one touch of the target's row of `W` and one touch
/// per candidate of `W′` (which `B′` shares). Every example of a batch is
/// evaluated at the same Φ, so nothing has to be summed until the batch is
/// applied.
///
/// The one order that is contractual is **per-row issue order**: each row
/// receives `0 + c₁·v₁ + c₂·v₂ + …` in the order its touches were recorded,
/// then `row += α · sum`. Which row is summed first is not observable.
///
/// Every buffer is cleared at its point of use and keeps its capacity; the
/// contents left by an earlier batch never influence a later one.
#[derive(Debug, Default)]
pub struct BatchGrad {
    /// Width of one slot (the model dimension); set by the first example.
    dim: usize,
    /// Touches of `W`, multiplying `grad_u`.
    embedding: Vec<Touch>,
    /// Touches of `W′` and `B′`, multiplying `u`.
    context: Vec<Touch>,
    /// One copy of the target's embedding row per example.
    u: Vec<f64>,
    /// One `∂J/∂u` per example, accumulated in place by the loss.
    grad_u: Vec<f64>,
    /// The one row `apply_to` sums a distinct row's touches into.
    sum: Vec<f64>,
    /// Candidate logits of the example in flight.
    pub(crate) logits: Vec<f64>,
    /// Candidate probabilities of the example in flight.
    pub(crate) probs: Vec<f64>,
}

impl BatchGrad {
    /// An empty log; buffers grow on first use.
    pub fn new() -> Self {
        BatchGrad::default()
    }

    /// Forgets every recorded touch.
    pub fn clear(&mut self) {
        self.embedding.clear();
        self.context.clear();
        self.u.clear();
        self.grad_u.clear();
    }

    /// Opens an example: copies its target row `u`, zeroes its `∂J/∂u` and
    /// records `W[target] += coef · ∂J/∂u`. Returns the example's slot.
    pub(crate) fn begin_example(&mut self, target: usize, coef: f64, u: &[f64]) -> u32 {
        if self.embedding.is_empty() {
            self.dim = u.len();
        }
        assert_eq!(u.len(), self.dim, "one batch, one row width");
        let slot = self.embedding.len() as u32;
        push_touch(&mut self.embedding, target, coef, slot);
        self.u.extend_from_slice(u);
        self.grad_u.resize(self.grad_u.len() + self.dim, 0.0);
        slot
    }

    /// Records `W′[row] += coef · u` and `B′[row] += coef` for the example
    /// in `slot`.
    pub(crate) fn touch_context(&mut self, row: usize, coef: f64, slot: u32) {
        push_touch(&mut self.context, row, coef, slot);
    }

    /// `∂J/∂u` of the example opened last.
    pub(crate) fn grad_u_mut(&mut self) -> &mut [f64] {
        let start = self.grad_u.len() - self.dim;
        &mut self.grad_u[start..]
    }

    /// Applies `params += alpha · gradient` to any parameter view — a dense
    /// [`crate::params::ModelParams`] or a copy-on-write overlay: all
    /// embedding rows, then all context rows, then all biases, each tensor
    /// in ascending row order. The log keeps its records, so applying it
    /// again adds the same gradient again.
    ///
    /// # Errors
    /// [`ModelError::ShapeMismatch`] if the rows were recorded at another
    /// width, [`ModelError::TokenOutOfRange`] if one lies beyond the
    /// parameters, and [`ModelError::NonFinite`] when a row's sum is not
    /// finite — reported when that row is reached, so earlier rows have
    /// been applied and `params` should be discarded.
    pub fn apply_to<P: ParamsViewMut + ?Sized>(
        &mut self,
        params: &mut P,
        alpha: f64,
    ) -> Result<(), ModelError> {
        if self.embedding.is_empty() {
            return Ok(());
        }
        if self.dim != params.dim() {
            return Err(ModelError::ShapeMismatch {
                what: "batch gradient row width",
            });
        }
        let vocab = params.vocab_size();
        self.embedding.sort_unstable_by_key(|t| t.key);
        self.context.sort_unstable_by_key(|t| t.key);
        self.sum.resize(self.dim, 0.0);
        let sum = &mut self.sum[..];
        // One run per distinct row.
        let same_row = |a: &Touch, b: &Touch| a.row() == b.row();
        for run in self.embedding.chunk_by(same_row) {
            let row = run[0].row();
            check_token(row, vocab)?;
            sum_run(run, &self.grad_u, sum)?;
            ops::axpy_unchecked(alpha, sum, params.embedding_row_mut(row));
        }
        for run in self.context.chunk_by(same_row) {
            let row = run[0].row();
            check_token(row, vocab)?;
            sum_run(run, &self.u, sum)?;
            ops::axpy_unchecked(alpha, sum, params.context_row_mut(row));
        }
        for run in self.context.chunk_by(same_row) {
            let b = run.iter().fold(0.0, |b, t| b + t.coef);
            if !b.is_finite() {
                return Err(NON_FINITE);
            }
            *params.bias_at_mut(run[0].row()) += alpha * b;
        }
        Ok(())
    }
}

const NON_FINITE: ModelError = ModelError::NonFinite {
    at: "batch gradient",
};

/// `sum = 0 + c₁·v₁ + c₂·v₂ + …` over one row's touches, in issue order.
fn sum_run(run: &[Touch], slots: &[f64], sum: &mut [f64]) -> Result<(), ModelError> {
    let dim = sum.len();
    sum.fill(0.0);
    for t in run {
        ops::axpy_unchecked(t.coef, &slots[t.slot as usize * dim..][..dim], sum);
    }
    if !ops::all_finite(sum) {
        return Err(NON_FINITE);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::params::ModelParams;

    /// The reference the replay is checked against: every touch applied to
    /// dense zeros in the order it was issued.
    pub(crate) fn dense_reference(log: &BatchGrad, vocab: usize) -> ModelParams {
        let dim = log.dim;
        let mut g = ModelParams::zeros(vocab, dim);
        let issued = |list: &[Touch]| {
            let mut list = list.to_vec();
            list.sort_unstable_by_key(|t| t.key as u32);
            list
        };
        for t in issued(&log.embedding) {
            let v = &log.grad_u[t.slot as usize * dim..][..dim];
            ops::axpy_unchecked(t.coef, v, g.embedding.row_mut(t.row()));
        }
        for t in issued(&log.context) {
            let v = &log.u[t.slot as usize * dim..][..dim];
            ops::axpy_unchecked(t.coef, v, g.context.row_mut(t.row()));
            g.bias[t.row()] += t.coef;
        }
        g
    }

    #[test]
    fn pooled_flush_is_bit_identical_to_immediate_accumulation() {
        // Interleaved touches across rows, rows repeated within and across
        // examples, two examples sharing a target, awkward magnitudes: the
        // replayed log must match issue-order accumulation bit for bit.
        let dim = 5;
        let row = |s: usize, shift: f64| -> Vec<f64> {
            (0..dim)
                .map(|d| 0.1 * (s * dim + d) as f64 - shift)
                .collect()
        };
        // (target, coef, u, ∂J/∂u) per example; targets 4 and 9 repeat.
        let examples: Vec<_> = [(4usize, 0.25), (9, 1.0e-7), (4, 3.0), (9, -7.75e2)]
            .iter()
            .enumerate()
            .map(|(s, &(target, coef))| (target, coef, row(s, 0.7), row(s, 1.3e-3)))
            .collect();
        // (example, row, coef) in issue order, rows out of order and repeated.
        let touches = [
            (0usize, 7usize, 0.25),
            (0, 2, -1.5e-3),
            (1, 7, 3.0),
            (1, 1, 0.125),
            (2, 2, 7.75e2),
            (2, 7, -0.015625),
            (3, 1, 1.0e-7),
            (3, 7, 0.5),
        ];
        let mut log = BatchGrad::new();
        for (s, (target, coef, u, grad_u)) in examples.iter().enumerate() {
            let slot = log.begin_example(*target, *coef, u);
            log.grad_u_mut().copy_from_slice(grad_u);
            for &(_, row, coef) in touches.iter().filter(|t| t.0 == s) {
                log.touch_context(row, coef, slot);
            }
        }
        let want = dense_reference(&log, 10);
        let mut got = ModelParams::zeros(10, dim);
        log.apply_to(&mut got, 1.0).unwrap();

        let bits = |p: &ModelParams| -> Vec<u64> {
            let all = p.embedding.as_slice().iter().chain(p.context.as_slice());
            all.chain(&p.bias).map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&got), bits(&want));
        // Applying again adds the same gradient again; a cleared log adds
        // nothing.
        log.apply_to(&mut got, -1.0).unwrap();
        assert_eq!(got, ModelParams::zeros(10, dim));
        log.clear();
        log.apply_to(&mut got, 1.0).unwrap();
        assert_eq!(got, ModelParams::zeros(10, dim));
    }

    #[test]
    fn apply_scales_by_alpha() {
        let mut p = ModelParams::zeros(4, 2);
        let mut g = BatchGrad::new();
        let slot = g.begin_example(1, 1.0, &[-1.0, 0.5]);
        g.grad_u_mut().copy_from_slice(&[1.0, 2.0]);
        g.touch_context(3, 7.0, slot);
        g.apply_to(&mut p, 2.0).unwrap();
        assert_eq!(p.embedding.row(1), &[2.0, 4.0]);
        assert_eq!(p.context.row(3), &[-14.0, 7.0]);
        assert_eq!(p.bias[3], 14.0);
    }

    #[test]
    fn apply_rejects_bad_shapes() {
        let mut p = ModelParams::zeros(2, 2);
        let mut g = BatchGrad::new();
        g.begin_example(5, 1.0, &[1.0, 1.0]);
        assert!(matches!(
            g.apply_to(&mut p, 1.0),
            Err(ModelError::TokenOutOfRange { token: 5, vocab: 2 })
        ));
        let mut g = BatchGrad::new();
        g.begin_example(0, 1.0, &[1.0, 1.0, 1.0]);
        assert!(matches!(
            g.apply_to(&mut p, 1.0),
            Err(ModelError::ShapeMismatch { .. })
        ));
        let mut g = BatchGrad::new();
        let slot = g.begin_example(0, 1.0, &[1.0, 1.0]);
        g.touch_context(9, 1.0, slot);
        assert!(matches!(
            g.apply_to(&mut p, 1.0),
            Err(ModelError::TokenOutOfRange { token: 9, vocab: 2 })
        ));
    }

    #[test]
    fn finiteness_detection() {
        let mut p = ModelParams::zeros(2, 1);
        let mut g = BatchGrad::new();
        let slot = g.begin_example(0, 1.0, &[1.0]);
        g.touch_context(1, 0.5, slot);
        g.apply_to(&mut p, 1.0).unwrap();
        g.touch_context(1, f64::INFINITY, slot);
        assert!(matches!(
            g.apply_to(&mut p, 1.0),
            Err(ModelError::NonFinite {
                at: "batch gradient"
            })
        ));
    }
}
