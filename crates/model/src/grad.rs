//! The sparse per-batch gradient accumulator.
//!
//! Negative sampling guarantees that each training example touches only
//! `neg + 1` rows of `W′`/`B′` and one row of `W` (§3.2: "during
//! back-propagation, only neg + 1 vectors in W or W′ are updated instead of
//! entire matrices"), so a batch gradient is sparse in rows. (A bucket's
//! delta `g_h = Φ − θ_t` is sparse the same way but is not stored here:
//! it is the row journal's arena, [`crate::journal::RowDelta`].)

use std::collections::BTreeMap;

use plp_linalg::ops;

use crate::error::ModelError;
use crate::params::ParamsViewMut;

/// Pops a recycled buffer from `pool` (or allocates one) and zero-fills it
/// to `len`: once the pool is warm, taking a row performs no heap
/// allocation.
fn pooled_zeroed(pool: &mut Vec<Vec<f64>>, len: usize) -> Vec<f64> {
    match pool.pop() {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0; len],
    }
}

/// One deferred context-row touch of the journal-pooled batch walk: the
/// candidate row, its position in the original accumulation sequence, the
/// pre-scaled coefficient, and which pooled `u`-row slot it multiplies.
#[derive(Debug, Clone, Copy)]
struct DeferredTouch {
    /// `(row << 32) | seq`. Sorting on this single key is equivalent to a
    /// stable sort by row — `seq` increments per push, so ties within a row
    /// keep their original accumulation order, which is what makes the
    /// pooled flush bit-identical to immediate accumulation.
    key: u64,
    /// Coefficient applied to both the context row (`coef · u`) and the
    /// bias entry (`+ coef`); already includes the batch scale.
    coef: f64,
    /// Index of the pooled target-embedding row in `u_slots`.
    slot: u32,
}

/// A row-sparse batch gradient with the same logical shape as
/// [`crate::params::ModelParams`].
///
/// Rows live in `BTreeMap`s so iteration is deterministic — a `HashMap`'s
/// per-instance hash seed would make bit-identical reruns impossible.
///
/// A private pool recycles row buffers across [`SparseGrad::recycle`]
/// cycles, so a gradient reused across batches stops allocating rows once
/// it has seen its working set (its map nodes are still allocated per
/// batch). The pool is invisible to `Clone`/`PartialEq`: it only affects
/// capacity, never values.
///
/// # Pooled batch accumulation
///
/// The SGNS inner loop touches `neg + 1` context rows per pair in pair
/// order, which chases the gradient map (and the embedding table behind
/// it) all over memory. [`SparseGrad::begin_pooled_batch`] switches the
/// gradient into a deferred mode: the loss records each touch as a
/// `(row, seq, coef, u-slot)` tuple plus one copy of the pair's target row,
/// and [`SparseGrad::flush_pooled_batch`] sorts the records by
/// `(row, seq)` and walks each row's touches contiguously — one map entry
/// per distinct row instead of one per touch. Because every pair in a batch
/// evaluates at the same Φ and the per-row accumulation sequence is
/// preserved exactly, the flushed gradient is bit-identical to immediate
/// accumulation (asserted in the tests).
#[derive(Debug, Default)]
pub struct SparseGrad {
    /// Touched rows of the embedding matrix `W`.
    pub embedding: BTreeMap<usize, Vec<f64>>,
    /// Touched rows of the context matrix `W′`.
    pub context: BTreeMap<usize, Vec<f64>>,
    /// Touched entries of the bias vector `B′`.
    pub bias: BTreeMap<usize, f64>,
    /// Recycled row buffers, fed by `recycle` and drained by `add_*_row`.
    pool: Vec<Vec<f64>>,
    /// Deferred context/bias touches of the current pooled batch.
    pending: Vec<DeferredTouch>,
    /// Pooled copies of target-embedding rows, `u_dim` values per slot.
    u_slots: Vec<f64>,
    /// Row width of `u_slots` (the model dimension).
    u_dim: usize,
    /// Whether the gradient is currently in pooled (deferring) mode.
    pooled: bool,
}

impl Clone for SparseGrad {
    fn clone(&self) -> Self {
        SparseGrad {
            embedding: self.embedding.clone(),
            context: self.context.clone(),
            bias: self.bias.clone(),
            pool: Vec::new(),
            pending: Vec::new(),
            u_slots: Vec::new(),
            u_dim: 0,
            pooled: false,
        }
    }
}

impl PartialEq for SparseGrad {
    fn eq(&self, other: &Self) -> bool {
        self.embedding == other.embedding
            && self.context == other.context
            && self.bias == other.bias
    }
}

impl SparseGrad {
    /// An empty gradient.
    pub fn new() -> Self {
        SparseGrad::default()
    }

    /// `true` iff nothing has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.embedding.is_empty() && self.context.is_empty() && self.bias.is_empty()
    }

    /// Number of touched rows across all tensors.
    pub fn touched_rows(&self) -> usize {
        self.embedding.len() + self.context.len() + self.bias.len()
    }

    /// Empties the gradient, moving its row buffers into the internal pool
    /// for reuse by later `add_*_row` calls. Equivalent to clearing, except
    /// that the next fill of the same working set allocates map nodes only,
    /// not rows.
    pub fn recycle(&mut self) {
        while let Some((_, v)) = self.embedding.pop_first() {
            self.pool.push(v);
        }
        while let Some((_, v)) = self.context.pop_first() {
            self.pool.push(v);
        }
        self.bias.clear();
    }

    /// Number of pooled row buffers currently available for reuse (a
    /// diagnostic hook for buffer-reuse tests).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Adds `alpha * v` into embedding row `row`.
    pub fn add_embedding_row(&mut self, row: usize, alpha: f64, v: &[f64]) {
        let Self {
            embedding, pool, ..
        } = self;
        let e = embedding
            .entry(row)
            .or_insert_with(|| pooled_zeroed(pool, v.len()));
        ops::axpy_unchecked(alpha, v, e);
    }

    /// Adds `alpha * v` into context row `row`.
    pub fn add_context_row(&mut self, row: usize, alpha: f64, v: &[f64]) {
        let Self { context, pool, .. } = self;
        let e = context
            .entry(row)
            .or_insert_with(|| pooled_zeroed(pool, v.len()));
        ops::axpy_unchecked(alpha, v, e);
    }

    /// Adds `alpha` into bias entry `row`.
    pub fn add_bias(&mut self, row: usize, alpha: f64) {
        *self.bias.entry(row).or_insert(0.0) += alpha;
    }

    /// Enters pooled mode for one batch: subsequent touches pushed through
    /// [`SparseGrad::push_u_slot`] / [`SparseGrad::defer_context_touch`]
    /// are buffered instead of applied, until
    /// [`SparseGrad::flush_pooled_batch`] drains them. `dim` is the model
    /// dimension (the width of each pooled `u` row).
    pub fn begin_pooled_batch(&mut self, dim: usize) {
        self.pending.clear();
        self.u_slots.clear();
        self.u_dim = dim;
        self.pooled = true;
    }

    /// `true` while the gradient defers context/bias touches (between
    /// [`SparseGrad::begin_pooled_batch`] and
    /// [`SparseGrad::flush_pooled_batch`]).
    pub fn pooled_mode(&self) -> bool {
        self.pooled
    }

    /// Copies one target-embedding row into the batch pool and returns its
    /// slot index for later [`SparseGrad::defer_context_touch`] calls.
    /// Only meaningful in pooled mode.
    pub fn push_u_slot(&mut self, u: &[f64]) -> u32 {
        debug_assert!(self.pooled, "push_u_slot outside a pooled batch");
        debug_assert_eq!(u.len(), self.u_dim, "u row width vs pooled dim");
        let slot = (self.u_slots.len() / self.u_dim.max(1)) as u32;
        self.u_slots.extend_from_slice(u);
        slot
    }

    /// Defers `context[row] += alpha · u_slots[slot]` and
    /// `bias[row] += alpha` until the flush. Only meaningful in pooled
    /// mode.
    pub fn defer_context_touch(&mut self, row: usize, alpha: f64, slot: u32) {
        debug_assert!(self.pooled, "defer_context_touch outside a pooled batch");
        debug_assert!(row < (1usize << 32), "row must fit the packed sort key");
        debug_assert!(self.pending.len() < u32::MAX as usize, "seq overflow");
        self.pending.push(DeferredTouch {
            key: ((row as u64) << 32) | self.pending.len() as u64,
            coef: alpha,
            slot,
        });
    }

    /// Applies every deferred touch of the current pooled batch and leaves
    /// pooled mode. Records are sorted by their packed `(row, seq)` key —
    /// `seq` is unique, so the unstable sort is a stable sort by row — and
    /// each row's touches are applied contiguously in their original
    /// accumulation order. One map entry per distinct row (for both the
    /// context row and the bias entry) replaces one per touch, and the
    /// grouped walk keeps the gradient row hot in cache while the pooled
    /// `u` copies stream past it. Bit-identical to immediate accumulation
    /// because per-row floating-point order is exactly preserved.
    pub fn flush_pooled_batch(&mut self) {
        let Self {
            context,
            bias,
            pool,
            pending,
            u_slots,
            u_dim,
            pooled,
            ..
        } = self;
        *pooled = false;
        pending.sort_unstable_by_key(|t| t.key);
        let dim = *u_dim;
        let mut i = 0;
        while i < pending.len() {
            let row = (pending[i].key >> 32) as usize;
            let e = context
                .entry(row)
                .or_insert_with(|| pooled_zeroed(pool, dim));
            let b = bias.entry(row).or_insert(0.0);
            while i < pending.len() && (pending[i].key >> 32) as usize == row {
                let t = pending[i];
                let u = &u_slots[t.slot as usize * dim..(t.slot as usize + 1) * dim];
                ops::axpy_unchecked(t.coef, u, e);
                *b += t.coef;
                i += 1;
            }
        }
        pending.clear();
        u_slots.clear();
    }

    /// `true` iff all stored values are finite.
    pub fn all_finite(&self) -> bool {
        self.embedding.values().all(|v| ops::all_finite(v))
            && self.context.values().all(|v| ops::all_finite(v))
            && self.bias.values().all(|b| b.is_finite())
    }

    /// Applies `params += alpha * self` to any parameter view — a dense
    /// [`ModelParams`] or a copy-on-write overlay.
    ///
    /// # Errors
    /// Returns [`ModelError::TokenOutOfRange`] if a stored row exceeds the
    /// parameter shape, or [`ModelError::ShapeMismatch`] on a row-width
    /// mismatch.
    pub fn apply_to<P: ParamsViewMut + ?Sized>(
        &self,
        params: &mut P,
        alpha: f64,
    ) -> Result<(), ModelError> {
        let vocab = params.vocab_size();
        let dim = params.dim();
        for (&r, v) in &self.embedding {
            if r >= vocab {
                return Err(ModelError::TokenOutOfRange { token: r, vocab });
            }
            if v.len() != dim {
                return Err(ModelError::ShapeMismatch {
                    what: "embedding row width",
                });
            }
            ops::axpy(alpha, v, params.embedding_row_mut(r))?;
        }
        for (&r, v) in &self.context {
            if r >= vocab {
                return Err(ModelError::TokenOutOfRange { token: r, vocab });
            }
            if v.len() != dim {
                return Err(ModelError::ShapeMismatch {
                    what: "context row width",
                });
            }
            ops::axpy(alpha, v, params.context_row_mut(r))?;
        }
        for (&r, &b) in &self.bias {
            if r >= vocab {
                return Err(ModelError::TokenOutOfRange { token: r, vocab });
            }
            *params.bias_at_mut(r) += alpha * b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;

    #[test]
    fn rows_accumulate_in_place() {
        let mut g = SparseGrad::new();
        assert!(g.is_empty());
        g.add_embedding_row(0, 1.0, &[3.0, 0.0]);
        g.add_embedding_row(0, 1.0, &[0.0, 4.0]);
        g.add_context_row(2, 2.0, &[1.0, 1.0]);
        g.add_bias(1, -2.0);
        assert_eq!(g.embedding[&0], vec![3.0, 4.0]);
        assert_eq!(g.context[&2], vec![2.0, 2.0]);
        assert_eq!(g.bias[&1], -2.0);
        assert_eq!(g.touched_rows(), 3);
        assert!(!g.is_empty());
        assert!(g.all_finite());
    }

    #[test]
    fn apply_to_params() {
        let mut p = ModelParams::zeros(4, 2);
        let mut g = SparseGrad::new();
        g.add_embedding_row(1, 1.0, &[1.0, 2.0]);
        g.add_context_row(3, 1.0, &[-1.0, 0.5]);
        g.add_bias(0, 7.0);
        g.apply_to(&mut p, 2.0).unwrap();
        assert_eq!(p.embedding.row(1), &[2.0, 4.0]);
        assert_eq!(p.context.row(3), &[-2.0, 1.0]);
        assert_eq!(p.bias[0], 14.0);
    }

    #[test]
    fn apply_rejects_bad_shapes() {
        let mut p = ModelParams::zeros(2, 2);
        let mut g = SparseGrad::new();
        g.add_embedding_row(5, 1.0, &[1.0, 1.0]);
        assert!(matches!(
            g.apply_to(&mut p, 1.0),
            Err(ModelError::TokenOutOfRange { .. })
        ));
        let mut g = SparseGrad::new();
        g.add_embedding_row(0, 1.0, &[1.0, 1.0, 1.0]);
        assert!(matches!(
            g.apply_to(&mut p, 1.0),
            Err(ModelError::ShapeMismatch { .. })
        ));
        let mut g = SparseGrad::new();
        g.add_bias(9, 1.0);
        assert!(g.apply_to(&mut p, 1.0).is_err());
    }

    #[test]
    fn finiteness_detection() {
        let mut g = SparseGrad::new();
        g.add_embedding_row(0, 1.0, &[1.0]);
        assert!(g.all_finite());
        g.add_bias(0, f64::INFINITY);
        assert!(!g.all_finite());
    }

    #[test]
    fn recycle_pools_rows_for_reuse() {
        let mut g = SparseGrad::new();
        g.add_embedding_row(0, 1.0, &[1.0, 2.0]);
        g.add_context_row(1, 1.0, &[3.0, 4.0]);
        g.add_bias(2, 5.0);
        g.recycle();
        assert!(g.is_empty());
        assert_eq!(g.pool_len(), 2);
        g.add_embedding_row(7, 1.0, &[9.0, 8.0]);
        assert_eq!(g.pool_len(), 1, "row buffer came from the pool");
        assert_eq!(g.embedding[&7], vec![9.0, 8.0], "pooled rows are zeroed");
    }

    #[test]
    fn pooled_flush_is_bit_identical_to_immediate_accumulation() {
        // Interleaved touches across rows, duplicate rows within and across
        // "pairs", and awkward magnitudes: the flushed pooled gradient must
        // match immediate accumulation bit for bit because each row's
        // floating-point accumulation order is preserved exactly.
        let dim = 5;
        let u_rows: Vec<Vec<f64>> = (0..4)
            .map(|s| (0..dim).map(|d| 0.1 * (s * dim + d) as f64 - 0.7).collect())
            .collect();
        // (u-slot, row, coef) in issue order, rows deliberately out of order
        // and repeated.
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

        let mut immediate = SparseGrad::new();
        for &(s, row, coef) in &touches {
            immediate.add_context_row(row, coef, &u_rows[s]);
            immediate.add_bias(row, coef);
        }

        let mut pooled = SparseGrad::new();
        pooled.begin_pooled_batch(dim);
        let slots: Vec<u32> = u_rows.iter().map(|u| pooled.push_u_slot(u)).collect();
        for &(s, row, coef) in &touches {
            pooled.defer_context_touch(row, coef, slots[s]);
        }
        pooled.flush_pooled_batch();
        assert!(!pooled.pooled_mode(), "flush leaves pooled mode");

        assert_eq!(immediate.context.len(), pooled.context.len());
        for (row, want) in &immediate.context {
            let got = &pooled.context[row];
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "context row {row}");
            }
        }
        assert_eq!(immediate.bias.len(), pooled.bias.len());
        for (row, want) in &immediate.bias {
            assert_eq!(pooled.bias[row].to_bits(), want.to_bits(), "bias {row}");
        }
    }

    #[test]
    fn pool_is_invisible_to_clone_and_eq() {
        let mut warm = SparseGrad::new();
        warm.add_embedding_row(0, 1.0, &[1.0]);
        warm.recycle();
        warm.add_embedding_row(0, 1.0, &[1.0]);
        let mut cold = SparseGrad::new();
        cold.add_embedding_row(0, 1.0, &[1.0]);
        assert_eq!(warm, cold, "pool state must not affect equality");
        assert_eq!(warm.clone(), warm);
        assert_eq!(warm.clone().pool_len(), 0, "clones start with a cold pool");
    }
}
