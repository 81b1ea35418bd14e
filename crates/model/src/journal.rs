//! Copy-on-write row journal and the flat bucket delta it turns into.
//!
//! Algorithm 1 (lines 15–22) computes each sampled user-bucket's update as
//! `Φ − θ_t`, where Φ starts from the current global parameters θ_t and is
//! trained locally. A naive implementation clones all of θ_t — O(L·dim)
//! per bucket — even though negative sampling guarantees local SGD touches
//! only `neg + 1` rows per example (§3.2), and a batch whose pairs share
//! one negative set at most `neg + batch`. [`RowJournal`] + [`CowParams`]
//! replace the clone with an overlay: reads fall through to the immutable
//! base θ_t, and the *first mutable touch* of a row copies it to the end of
//! a per-tensor arena. After training, the arena holds exactly the touched
//! rows at their Φ values, so [`RowJournal::take_delta`] subtracts θ_t in
//! place and hands the arena out as the [`RowDelta`] — no dense clone, no
//! dense subtraction, no per-row buffer, and (when spent deltas are
//! [`RowJournal::recycle`]d) no allocation in steady state.
//!
//! A step sums its buckets' deltas into a [`RowSum`]: the same overlay —
//! slot table plus arena — holding only the rows some bucket touched, so
//! the sum is never θ-shaped.

use plp_linalg::ops;

use crate::error::ModelError;
use crate::params::{ModelParams, ParamsView, ParamsViewMut, Row, BIAS_CHUNK};

/// The touched rows of one tensor of a [`RowDelta`]: a flat arena of
/// `dim`-wide rows plus an index of `(row, slot)` pairs in strictly
/// ascending row order. Slot `s` lives at `values[s·dim .. (s+1)·dim]`;
/// a slot the index does not name (a journalled row whose delta came out
/// all-zero) is dead and holds zeros. Everything that consumes a delta —
/// norms, the Gaussian sum, the federated codec — walks the index, so the
/// row order a consumer sees never depends on the order rows were touched.
#[derive(Debug, Clone, Default)]
pub struct DeltaRows {
    dim: usize,
    values: Vec<f64>,
    index: Vec<(u32, u32)>,
}

impl DeltaRows {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` iff no row is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The stored `(row, values)` pairs in ascending row order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        self.index
            .iter()
            .map(|&(r, s)| (r as usize, self.slot(s as usize)))
    }

    /// Appends a row. This is how a delta is rebuilt from outside the
    /// journal (the federated decoder), so it refuses anything that would
    /// break the index instead of trusting its caller.
    ///
    /// # Errors
    /// [`ModelError::ShapeMismatch`] unless `row` is above every stored row
    /// and `values` is non-empty and as wide as the arena's rows;
    /// [`ModelError::TokenOutOfRange`] if `row` does not fit the index.
    pub fn push_row(&mut self, row: usize, values: &[f64]) -> Result<(), ModelError> {
        let Ok(r) = u32::try_from(row) else {
            return Err(ModelError::TokenOutOfRange {
                token: row,
                vocab: u32::MAX as usize,
            });
        };
        if self.index.last().is_some_and(|&(last, _)| last >= r) {
            return Err(ModelError::ShapeMismatch {
                what: "delta rows must be strictly ascending",
            });
        }
        if values.is_empty() || (!self.values.is_empty() && values.len() != self.dim) {
            return Err(ModelError::ShapeMismatch {
                what: "delta row width",
            });
        }
        self.append(r, values);
        Ok(())
    }

    /// Copies `values` into the next free slot and indexes it under `row`.
    /// Unchecked: the journal appends in touch order and sorts on sealing.
    fn append(&mut self, row: u32, values: &[f64]) -> usize {
        let slot = self.next_slot(row, values.len());
        self.values.extend_from_slice(values);
        slot
    }

    /// [`DeltaRows::append`] of a `width`-wide row of zeros.
    fn append_zeros(&mut self, row: u32, width: usize) -> usize {
        let slot = self.next_slot(row, width);
        self.values.resize(self.values.len() + width, 0.0);
        slot
    }

    /// Indexes the slot the next `width`-wide row will fill under `row`.
    fn next_slot(&mut self, row: u32, width: usize) -> usize {
        if self.values.is_empty() {
            self.dim = width;
        }
        debug_assert_eq!(width, self.dim, "row width vs arena dim");
        let slot = self.values.len() / self.dim.max(1);
        let s = u32::try_from(slot).expect("< 2^32 rows in a delta");
        self.index.push((row, s));
        slot
    }

    #[inline]
    fn slot(&self, s: usize) -> &[f64] {
        &self.values[s * self.dim..(s + 1) * self.dim]
    }

    #[inline]
    fn slot_mut(&mut self, s: usize) -> &mut [f64] {
        &mut self.values[s * self.dim..(s + 1) * self.dim]
    }

    fn clear(&mut self) {
        self.values.clear();
        self.index.clear();
    }

    /// `Σ ‖row‖²` over the index: ascending rows, one fixed-order
    /// [`ops::l2_norm_sq`] per row — the summation order clipping has
    /// always had, which a flat pass over the arena would not reproduce.
    fn norm_sq(&self) -> f64 {
        self.rows().map(|(_, v)| ops::l2_norm_sq(v)).sum::<f64>()
    }

    /// Refuses a delta that does not fit a `vocab × width` tensor. The
    /// index ascends, so its last row is its largest.
    fn check_fits(&self, vocab: usize, width: usize, what: &'static str) -> Result<(), ModelError> {
        let Some(&(last, _)) = self.index.last() else {
            return Ok(());
        };
        if last as usize >= vocab {
            return Err(ModelError::TokenOutOfRange {
                token: last as usize,
                vocab,
            });
        }
        if self.dim != width {
            return Err(ModelError::ShapeMismatch { what });
        }
        Ok(())
    }
}

/// Equality is over the indexed rows: slot order and dead slots — where a
/// row happens to sit in the arena — are layout, not content.
impl PartialEq for DeltaRows {
    fn eq(&self, other: &Self) -> bool {
        self.rows().eq(other.rows())
    }
}

/// One bucket's model delta `Φ − θ_t`, row-sparse, with the same logical
/// shape as [`ModelParams`] (the bias vector is a tensor of 1-wide rows).
///
/// Produced by [`RowJournal::take_delta`] — the journal's own arenas,
/// handed out — or rebuilt row by row with [`DeltaRows::push_row`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowDelta {
    /// Touched rows of the embedding matrix `W`.
    pub embedding: DeltaRows,
    /// Touched rows of the context matrix `W′`.
    pub context: DeltaRows,
    /// Touched entries of the bias vector `B′`, as 1-wide rows.
    pub bias: DeltaRows,
}

impl RowDelta {
    /// `true` iff no row is stored in any tensor.
    pub fn is_empty(&self) -> bool {
        self.touched_rows() == 0
    }

    /// Number of stored rows across all three tensors.
    pub fn touched_rows(&self) -> usize {
        self.embedding.len() + self.context.len() + self.bias.len()
    }

    /// Per-tensor ℓ2 norms `(‖gW‖, ‖gW′‖, ‖gB′‖)`.
    pub fn tensor_norms(&self) -> (f64, f64, f64) {
        (
            self.embedding.norm_sq().sqrt(),
            self.context.norm_sq().sqrt(),
            self.bias.norm_sq().sqrt(),
        )
    }

    /// ℓ2 norm of the whole flattened delta.
    pub fn global_norm(&self) -> f64 {
        let (e, c, b) = self.tensor_norms();
        (e * e + c * c + b * b).sqrt()
    }

    /// Scales the three tensors independently (per-layer clipping applies
    /// a different factor to each). Element-wise, so one pass per arena;
    /// dead slots hold zeros and stay zero.
    pub fn scale_per_tensor(&mut self, fe: f64, fc: f64, fb: f64) {
        ops::scale(fe, &mut self.embedding.values);
        ops::scale(fc, &mut self.context.values);
        ops::scale(fb, &mut self.bias.values);
    }

    /// `true` iff all stored values are finite.
    pub fn all_finite(&self) -> bool {
        ops::all_finite(&self.embedding.values)
            && ops::all_finite(&self.context.values)
            && ops::all_finite(&self.bias.values)
    }

    /// Adds `alpha` into bias entry `row`, storing the entry if it is not
    /// there yet (fault injection poisons a delta through this).
    pub fn add_bias(&mut self, row: usize, alpha: f64) {
        let bias = &mut self.bias;
        let r = u32::try_from(row).expect("row < 2^32");
        match bias.index.binary_search_by_key(&r, |&(r, _)| r) {
            Ok(i) => bias.values[bias.index[i].1 as usize] += alpha,
            Err(i) => {
                bias.append(r, &[alpha]);
                let entry = bias.index.pop().expect("just appended");
                bias.index.insert(i, entry);
            }
        }
    }

    /// Accumulates into a dense parameter-shaped buffer: `dense += self`,
    /// one row at a time in ascending row order.
    ///
    /// # Errors
    /// [`ModelError::TokenOutOfRange`] if a stored row exceeds the
    /// parameter shape, [`ModelError::ShapeMismatch`] on a row-width
    /// mismatch; `dense` is untouched in both cases.
    pub fn accumulate_into(&self, dense: &mut ModelParams) -> Result<(), ModelError> {
        self.check_fits(dense.vocab_size(), dense.dim())?;
        for (r, v) in self.embedding.rows() {
            ops::axpy_unchecked(1.0, v, dense.embedding.row_mut(r));
        }
        for (r, v) in self.context.rows() {
            ops::axpy_unchecked(1.0, v, dense.context.row_mut(r));
        }
        for (r, v) in self.bias.rows() {
            dense.bias[r] += v[0];
        }
        Ok(())
    }

    /// Refuses a delta that does not fit a `vocab`-row model of width
    /// `dim`.
    fn check_fits(&self, vocab: usize, dim: usize) -> Result<(), ModelError> {
        self.embedding
            .check_fits(vocab, dim, "embedding row width")?;
        self.context.check_fits(vocab, dim, "context row width")?;
        self.bias.check_fits(vocab, 1, "bias entry width")
    }

    fn clear(&mut self) {
        self.embedding.clear();
        self.context.clear();
        self.bias.clear();
    }
}

/// One tensor's overlay: `slots[row]` holds `slot + 1` (0 = untouched) in
/// front of the arena the rows are copied into, so every read and write on
/// the SGNS hot path is one table lookup and one slice of a flat buffer.
/// `slots` grows lazily to the highest touched row and is surgically
/// zeroed when the arena leaves — O(touched), never O(vocab) — so a
/// journal reused across buckets keeps its table warm. Until it is sealed
/// the arena's index is in touch order (`index[s].1 == s`).
#[derive(Debug, Default)]
struct RowOverlay {
    slots: Vec<u32>,
    arena: DeltaRows,
}

impl RowOverlay {
    #[inline]
    fn get(&self, r: usize) -> Option<&[f64]> {
        match self.slots.get(r) {
            Some(&s) if s != 0 => Some(self.arena.slot((s - 1) as usize)),
            _ => None,
        }
    }

    /// The journalled copy of row `r`, first copied from `base()` if this
    /// is the row's first touch.
    #[inline]
    fn get_mut_or_copy<'b>(&mut self, r: usize, base: impl FnOnce() -> &'b [f64]) -> &mut [f64] {
        if self.slots.len() <= r {
            self.slots.resize(r + 1, 0);
        }
        let slot = match self.slots[r] {
            0 => {
                let row = u32::try_from(r).expect("row < 2^32");
                let slot = self.arena.append(row, base());
                self.slots[r] = slot as u32 + 1;
                slot
            }
            s => (s - 1) as usize,
        };
        self.arena.slot_mut(slot)
    }

    /// `row r += v`. A first-touched row is zero-filled and then added to,
    /// so it holds the bits of a zeroed dense accumulator (`0.0 + x`, which
    /// turns `−0.0` into `0.0`).
    fn add(&mut self, r: usize, v: &[f64]) {
        let slot = match self.slots[r] {
            0 => {
                let row = u32::try_from(r).expect("row < 2^32");
                let slot = self.arena.append_zeros(row, v.len());
                self.slots[r] = slot as u32 + 1;
                slot
            }
            s => (s - 1) as usize,
        };
        ops::axpy_unchecked(1.0, v, self.arena.slot_mut(slot));
    }

    /// Forgets every touched row, keeping the buffers.
    fn reset(&mut self) {
        for &(r, _) in &self.arena.index {
            self.slots[r as usize] = 0;
        }
        self.arena.clear();
    }

    /// Turns the arena from Φ rows into the delta: subtracts the base row
    /// from every slot in place (`x + (−1)·y` is IEEE-identical to
    /// `x − y`), drops all-zero rows from the index and sorts what is left
    /// by row. Clears the touched slots on the way.
    fn seal<'b>(&mut self, base_row: impl Fn(usize) -> &'b [f64]) {
        let DeltaRows { dim, values, index } = &mut self.arena;
        let at = |s: u32| s as usize * *dim..(s as usize + 1) * *dim;
        for &(r, s) in index.iter() {
            self.slots[r as usize] = 0;
            ops::axpy_unchecked(-1.0, base_row(r as usize), &mut values[at(s)]);
        }
        index.retain(|&(_, s)| values[at(s)].iter().any(|&x| x != 0.0));
        index.sort_unstable();
    }
}

/// The overlay of touched rows: embedding/context rows and bias entries
/// that have been mutably touched through a [`CowParams`] view, holding
/// their current (local Φ) values. [`RowJournal::take_delta`] gives the
/// three arenas away; [`RowJournal::recycle`] takes a spent delta's
/// buffers back, so a worker that reuses one journal across buckets stops
/// allocating once the buffers in circulation cover its working set.
#[derive(Debug, Default)]
pub struct RowJournal {
    embedding: RowOverlay,
    context: RowOverlay,
    bias: RowOverlay,
}

impl RowJournal {
    /// An empty journal; its buffers grow on first use.
    pub fn new() -> Self {
        RowJournal::default()
    }

    /// Number of journalled rows/entries across all three tensors.
    pub fn touched_rows(&self) -> usize {
        self.embedding.arena.len() + self.context.arena.len() + self.bias.arena.len()
    }

    /// `true` iff no row has been touched since the last
    /// [`RowJournal::take_delta`] or [`RowJournal::reset`].
    pub fn is_clean(&self) -> bool {
        self.touched_rows() == 0
    }

    /// Makes room in a clean journal for a bucket that touches at most
    /// this many rows, so arenas that start empty are allocated once
    /// rather than grown by doubling — every doubling leaves its
    /// predecessor behind as a hole in the allocator's heap, measured at
    /// ~20 MB of resident memory on a 23k-row model. Nothing happens to
    /// buffers that are already large enough.
    pub fn reserve(&mut self, embedding_rows: usize, context_rows: usize, dim: usize) {
        for (overlay, rows, width) in [
            (&mut self.embedding, embedding_rows, dim),
            (&mut self.context, context_rows, dim),
            (&mut self.bias, context_rows, 1),
        ] {
            overlay.arena.values.reserve_exact(rows * width);
            overlay.arena.index.reserve_exact(rows);
        }
    }

    /// Discards all journalled state without producing a delta, keeping
    /// the buffers. This is the recovery path after a failed or panicked
    /// bucket: the next bucket must start from a clean overlay, or stale Φ
    /// rows would leak into its view of θ.
    pub fn reset(&mut self) {
        self.embedding.reset();
        self.context.reset();
        self.bias.reset();
    }

    /// Turns the journal into the sparse bucket delta `Φ − θ`, leaving the
    /// journal clean and without arena buffers until a spent delta is
    /// [`RowJournal::recycle`]d (or the next touches grow new ones).
    ///
    /// `base` must be the same θ the [`CowParams`] view was built over.
    /// Each touched row becomes `Φ[r] − θ[r]`, exactly what a dense
    /// clone-and-subtract computes, and rows whose delta is exactly zero
    /// everywhere are left out of the delta's index rather than stored.
    pub fn take_delta(&mut self, base: &ModelParams) -> RowDelta {
        self.embedding.seal(|r| base.embedding.row(r));
        self.context.seal(|r| base.context.row(r));
        self.bias.seal(|r| std::slice::from_ref(&base.bias[r]));
        RowDelta {
            embedding: std::mem::take(&mut self.embedding.arena),
            context: std::mem::take(&mut self.context.arena),
            bias: std::mem::take(&mut self.bias.arena),
        }
    }

    /// Hands a spent delta's buffers back: the next bucket's rows are
    /// copied into them instead of into newly grown ones. Any delta will
    /// do — buffers carry capacity, never values. A journal that is not
    /// clean keeps the arenas it has and lets `spent` go.
    pub fn recycle(&mut self, mut spent: RowDelta) {
        if self.is_clean() {
            spent.clear();
            self.embedding.arena = spent.embedding;
            self.context.arena = spent.context;
            self.bias.arena = spent.bias;
        }
    }
}

/// The sum of one step's bucket deltas (Algorithm 1, line 9, before the
/// noise), row-sparse: the rows no bucket touched are not stored and read
/// as zeros. Three [`RowOverlay`]s, like the journal's, whose slot tables
/// and arenas are reserved once to the vocabulary — a step's sum never
/// grows by doubling, and the arena pages a step does not reach are never
/// made resident.
///
/// Every stored row holds the bits a zeroed θ-shaped accumulator would:
/// deltas are added in the order [`RowSum::add`] is called — the bucket
/// order of the step — one [`ops::axpy_unchecked`]`(1.0, …)` per row, into
/// a slot zero-filled at its first touch.
#[derive(Debug)]
pub struct RowSum {
    dim: usize,
    embedding: RowOverlay,
    context: RowOverlay,
    bias: RowOverlay,
}

impl RowSum {
    /// An empty sum for a `vocab`-row model of width `dim`.
    pub fn new(vocab: usize, dim: usize) -> Self {
        let overlay = |width: usize| RowOverlay {
            slots: vec![0; vocab],
            arena: DeltaRows {
                dim: width,
                values: Vec::with_capacity(vocab * width),
                index: Vec::with_capacity(vocab),
            },
        };
        RowSum {
            dim,
            embedding: overlay(dim),
            context: overlay(dim),
            bias: overlay(1),
        }
    }

    /// Vocabulary size of the model the sum is for.
    pub fn vocab_size(&self) -> usize {
        self.bias.slots.len()
    }

    /// Row width of the model the sum is for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows/entries stored across all three tensors.
    pub fn touched_rows(&self) -> usize {
        self.embedding.arena.len() + self.context.arena.len() + self.bias.arena.len()
    }

    /// `sum += delta`, one row at a time in ascending row order.
    ///
    /// # Errors
    /// The same refusals as [`RowDelta::accumulate_into`]:
    /// [`ModelError::TokenOutOfRange`] if a stored row lies past the
    /// vocabulary, [`ModelError::ShapeMismatch`] on a row-width mismatch.
    /// Both are raised before anything is added, so the sum is untouched.
    pub fn add(&mut self, delta: &RowDelta) -> Result<(), ModelError> {
        delta.check_fits(self.vocab_size(), self.dim)?;
        for (overlay, rows) in [
            (&mut self.embedding, &delta.embedding),
            (&mut self.context, &delta.context),
            (&mut self.bias, &delta.bias),
        ] {
            for (r, v) in rows.rows() {
                overlay.add(r, v);
            }
        }
        Ok(())
    }

    /// Writes row `row` of the sum into `out` (as wide as the row), zeros
    /// where no delta touched it.
    pub fn copy_row(&self, row: Row, out: &mut [f64]) {
        let copy = |overlay: &RowOverlay, r: usize, out: &mut [f64]| match overlay.get(r) {
            Some(v) => out.copy_from_slice(v),
            None => out.fill(0.0),
        };
        match row {
            Row::Embedding(r) => copy(&self.embedding, r, out),
            Row::Context(r) => copy(&self.context, r, out),
            Row::Bias(c) => {
                for (j, x) in out.iter_mut().enumerate() {
                    copy(&self.bias, c * BIAS_CHUNK + j, std::slice::from_mut(x));
                }
            }
        }
    }

    /// Forgets every stored row in O(touched), keeping the buffers.
    pub fn clear(&mut self) {
        self.embedding.reset();
        self.context.reset();
        self.bias.reset();
    }
}

/// A copy-on-write view over base parameters θ: a [`ParamsView`] /
/// [`ParamsViewMut`] whose reads fall through to `base` until a row is
/// mutably touched, at which point the row is copied into the journal
/// and all further access (read or write) goes to the journalled copy.
///
/// Training through this view is bit-identical to training a dense clone of
/// `base`: every read sees the same values, every write lands on a
/// faithful copy of the row it would have landed on.
#[derive(Debug)]
pub struct CowParams<'a> {
    base: &'a ModelParams,
    journal: &'a mut RowJournal,
}

impl<'a> CowParams<'a> {
    /// Wraps `base` with `journal` as the mutation overlay.
    ///
    /// The journal is expected to be clean (typically freshly
    /// [`RowJournal::reset`] or drained by [`RowJournal::take_delta`]);
    /// stale entries from a *different* base would shadow `base`'s rows.
    pub fn new(base: &'a ModelParams, journal: &'a mut RowJournal) -> Self {
        CowParams { base, journal }
    }

    /// The wrapped base parameters.
    pub fn base(&self) -> &ModelParams {
        self.base
    }
}

impl ParamsView for CowParams<'_> {
    fn vocab_size(&self) -> usize {
        self.base.vocab_size()
    }

    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn embedding_row(&self, r: usize) -> &[f64] {
        self.journal
            .embedding
            .get(r)
            .unwrap_or_else(|| self.base.embedding.row(r))
    }

    fn context_row(&self, r: usize) -> &[f64] {
        self.journal
            .context
            .get(r)
            .unwrap_or_else(|| self.base.context.row(r))
    }

    fn bias_at(&self, r: usize) -> f64 {
        match self.journal.bias.get(r) {
            Some(b) => b[0],
            None => self.base.bias[r],
        }
    }
}

impl ParamsViewMut for CowParams<'_> {
    fn embedding_row_mut(&mut self, r: usize) -> &mut [f64] {
        let base = self.base;
        self.journal
            .embedding
            .get_mut_or_copy(r, || base.embedding.row(r))
    }

    fn context_row_mut(&mut self, r: usize) -> &mut [f64] {
        let base = self.base;
        self.journal
            .context
            .get_mut_or_copy(r, || base.context.row(r))
    }

    fn bias_at_mut(&mut self, r: usize) -> &mut f64 {
        let base = self.base;
        let b = self
            .journal
            .bias
            .get_mut_or_copy(r, || std::slice::from_ref(&base.bias[r]));
        &mut b[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_on_tokens, LocalSgdConfig, TrainScratch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base_params() -> ModelParams {
        let mut rng = StdRng::seed_from_u64(41);
        let mut p = ModelParams::init(&mut rng, 12, 6).unwrap();
        p.context.map_inplace(|x| x + 0.25);
        for (i, b) in p.bias.iter_mut().enumerate() {
            *b = 0.1 * i as f64;
        }
        p
    }

    #[test]
    fn reads_fall_through_until_first_write() {
        let base = base_params();
        let mut journal = RowJournal::new();
        let mut cow = CowParams::new(&base, &mut journal);
        assert_eq!(cow.vocab_size(), 12);
        assert_eq!(cow.dim(), 6);
        assert_eq!(cow.embedding_row(3), base.embedding.row(3));
        assert_eq!(cow.context_row(5), base.context.row(5));
        assert_eq!(cow.bias_at(2), base.bias[2]);

        cow.embedding_row_mut(3)[0] = 99.0;
        *cow.bias_at_mut(2) += 1.0;
        assert_eq!(cow.embedding_row(3)[0], 99.0, "reads see the overlay");
        assert_eq!(cow.embedding_row(3)[1], base.embedding.row(3)[1]);
        assert_eq!(cow.bias_at(2), base.bias[2] + 1.0);
        assert_eq!(base.embedding.row(3)[0], base.embedding.get(3, 0));
        assert_eq!(journal.touched_rows(), 2);
    }

    /// The dense reference the journal replaced: `after − before` over the
    /// (ascending) rows the caller names, unchanged rows dropped.
    fn clone_and_diff(
        before: &ModelParams,
        after: &ModelParams,
        embedding: impl IntoIterator<Item = usize>,
        context: impl IntoIterator<Item = usize>,
        bias: impl IntoIterator<Item = usize>,
    ) -> RowDelta {
        fn push_diff(t: &mut DeltaRows, r: usize, after: &[f64], before: &[f64]) {
            let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            if d.iter().any(|&x| x != 0.0) {
                t.push_row(r, &d).unwrap();
            }
        }
        let mut g = RowDelta::default();
        for r in embedding {
            push_diff(
                &mut g.embedding,
                r,
                after.embedding.row(r),
                before.embedding.row(r),
            );
        }
        for r in context {
            push_diff(
                &mut g.context,
                r,
                after.context.row(r),
                before.context.row(r),
            );
        }
        for r in bias {
            push_diff(&mut g.bias, r, &after.bias[r..=r], &before.bias[r..=r]);
        }
        g
    }

    /// Bit-level equality (`==` would let `-0.0` pass for `0.0`).
    fn assert_same_bits(got: &RowDelta, want: &RowDelta) {
        assert_eq!(got, want);
        let bits = |t: &DeltaRows| -> Vec<(usize, Vec<u64>)> {
            t.rows()
                .map(|(r, v)| (r, v.iter().map(|x| x.to_bits()).collect()))
                .collect()
        };
        assert_eq!(bits(&got.embedding), bits(&want.embedding));
        assert_eq!(bits(&got.context), bits(&want.context));
        assert_eq!(bits(&got.bias), bits(&want.bias));
    }

    #[test]
    fn take_delta_matches_from_delta_on_a_cloned_copy() {
        let base = base_params();

        // Reference path: dense clone, mutate, diff.
        let mut phi = base.clone();
        phi.embedding.row_mut(1)[2] += 0.5;
        phi.context.row_mut(4)[0] -= 0.25;
        phi.bias[7] += 2.0;
        // Touch-but-don't-change row 9: must be dropped from the delta.
        phi.embedding.row_mut(9)[0] += 0.0;
        let want = clone_and_diff(&base, &phi, [1usize, 9], [4usize], [7usize]);

        // Journal path: same mutations through the overlay, rows touched
        // in descending order so the arena's slot order is not row order.
        let mut journal = RowJournal::new();
        let mut cow = CowParams::new(&base, &mut journal);
        cow.embedding_row_mut(9)[0] += 0.0;
        cow.embedding_row_mut(1)[2] += 0.5;
        cow.context_row_mut(4)[0] -= 0.25;
        *cow.bias_at_mut(7) += 2.0;
        let got = journal.take_delta(&base);

        assert_same_bits(&got, &want);
        assert_eq!(got.touched_rows(), 3, "the all-zero row is not indexed");
        assert!(journal.is_clean(), "take_delta drains the journal");

        // Applying the delta to θ reproduces Φ.
        let mut rebuilt = base.clone();
        got.accumulate_into(&mut rebuilt).unwrap();
        assert_eq!(rebuilt, phi);
    }

    #[test]
    fn journaled_training_is_bit_identical_to_cloned_training() {
        let base = base_params();
        let tokens: Vec<usize> = (0..48).map(|i| (i * 5) % 12).collect();
        let cfg = LocalSgdConfig {
            learning_rate: 0.05,
            batch_size: 8,
            window: 2,
            negatives: 3,
        };

        // Reference: the historical clone-and-diff path.
        let mut phi = base.clone();
        let mut rng = StdRng::seed_from_u64(77);
        let mut scratch = TrainScratch::new();
        train_on_tokens(&mut rng, &mut phi, &tokens, &cfg, &mut scratch).unwrap();
        let want = clone_and_diff(&base, &phi, 0..12, 0..12, 0..12);

        // Clone-free: same training through the overlay, same RNG seed —
        // twice over one journal, the second bucket on recycled buffers.
        let mut journal = RowJournal::new();
        for _ in 0..2 {
            let mut cow = CowParams::new(&base, &mut journal);
            let mut rng = StdRng::seed_from_u64(77);
            train_on_tokens(&mut rng, &mut cow, &tokens, &cfg, &mut scratch).unwrap();
            let got = journal.take_delta(&base);
            assert!(!got.is_empty());
            assert_same_bits(&got, &want);
            journal.recycle(got);
        }
    }

    #[test]
    fn push_row_refuses_what_would_break_the_index() {
        let mut t = DeltaRows::default();
        t.push_row(3, &[1.0, 2.0]).unwrap();
        assert!(t.push_row(3, &[1.0, 2.0]).is_err(), "duplicate row");
        assert!(t.push_row(2, &[1.0, 2.0]).is_err(), "descending row");
        assert!(t.push_row(4, &[1.0]).is_err(), "narrower row");
        assert!(t.push_row(4, &[]).is_err(), "empty row");
        assert!(t.push_row(usize::MAX, &[1.0, 2.0]).is_err(), "row over u32");
        t.push_row(4, &[3.0, 4.0]).unwrap();
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows, [(3, &[1.0, 2.0][..]), (4, &[3.0, 4.0][..])]);
    }

    #[test]
    fn norms_scaling_poisoning_and_shape_checks() {
        let mut g = RowDelta::default();
        g.embedding.push_row(0, &[3.0, 4.0]).unwrap();
        g.context.push_row(2, &[2.0, 2.0]).unwrap();
        g.bias.push_row(1, &[-2.0]).unwrap();
        let (e, c, b) = g.tensor_norms();
        assert!((e - 5.0).abs() < 1e-12);
        assert!((c - 8.0f64.sqrt()).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
        assert!((g.global_norm() - (25.0 + 8.0 + 4.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(g.touched_rows(), 3);
        g.scale_per_tensor(2.0, 1.0, 0.5);
        assert_eq!(g.embedding.rows().next(), Some((0, &[6.0, 8.0][..])));
        assert_eq!(g.bias.rows().next(), Some((1, &[-1.0][..])));

        let mut dense = ModelParams::zeros(3, 2);
        g.accumulate_into(&mut dense).unwrap();
        assert_eq!(dense.embedding.row(0), &[6.0, 8.0]);
        assert_eq!(dense.context.row(2), &[2.0, 2.0]);
        assert_eq!(dense.bias, [0.0, -1.0, 0.0]);
        // A row past the vocabulary or of the wrong width is refused
        // before anything is added.
        let untouched = ModelParams::zeros(2, 2);
        let mut small = untouched.clone();
        assert!(matches!(
            g.accumulate_into(&mut small),
            Err(ModelError::TokenOutOfRange { token: 2, vocab: 2 })
        ));
        let mut wide = ModelParams::zeros(3, 3);
        assert!(matches!(
            g.accumulate_into(&mut wide),
            Err(ModelError::ShapeMismatch { .. })
        ));
        assert_eq!(small, untouched);

        // Poisoning adds into an entry that is there and stores one that
        // is not, keeping the index ascending.
        assert!(g.all_finite());
        g.add_bias(1, 0.25);
        g.add_bias(0, f64::NAN);
        assert!(!g.all_finite());
        let rows: Vec<usize> = g.bias.rows().map(|(r, _)| r).collect();
        assert_eq!(rows, [0, 1]);
        assert_eq!(g.bias.rows().nth(1), Some((1, &[-0.75][..])));
    }

    /// Every row of the sum, read out as bits.
    fn read_all(sum: &RowSum) -> Vec<Vec<u64>> {
        let (vocab, dim) = (sum.vocab_size(), sum.dim());
        let rows = (0..vocab).flat_map(|r| [(Row::Embedding(r), dim), (Row::Context(r), dim)]);
        let chunks = (0..vocab.div_ceil(BIAS_CHUNK))
            .map(|c| (Row::Bias(c), (vocab - c * BIAS_CHUNK).min(BIAS_CHUNK)));
        rows.chain(chunks)
            .map(|(row, width)| {
                let mut out = vec![f64::NAN; width];
                sum.copy_row(row, &mut out);
                out.iter().map(|x| x.to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn row_sum_refuses_what_does_not_fit_before_it_writes() {
        let mut sum = RowSum::new(4, 2);
        let mut fine = RowDelta::default();
        fine.context.push_row(1, &[1.0, 2.0]).unwrap();
        sum.add(&fine).unwrap();
        let before = read_all(&sum);

        // Rows that fit come first, so a refusal after any write would show.
        let mut past = RowDelta::default();
        past.embedding.push_row(0, &[5.0, 5.0]).unwrap();
        past.embedding.push_row(4, &[5.0, 5.0]).unwrap();
        let mut wide = RowDelta::default();
        wide.embedding.push_row(0, &[5.0, 5.0]).unwrap();
        wide.context.push_row(2, &[5.0, 5.0, 5.0]).unwrap();
        let mut wide_bias = RowDelta::default();
        wide_bias.bias.push_row(0, &[5.0, 5.0]).unwrap();
        assert!(matches!(
            sum.add(&past),
            Err(ModelError::TokenOutOfRange { token: 4, vocab: 4 })
        ));
        for bad in [&wide, &wide_bias] {
            assert!(matches!(
                sum.add(bad),
                Err(ModelError::ShapeMismatch { .. })
            ));
        }
        assert_eq!(read_all(&sum), before);
        assert_eq!(sum.touched_rows(), 1);
    }

    #[test]
    fn reset_recovers_a_dirty_journal() {
        let base = base_params();
        let mut journal = RowJournal::new();
        let mut cow = CowParams::new(&base, &mut journal);
        cow.embedding_row_mut(0)[0] = 5.0;
        cow.context_row_mut(1)[1] = 6.0;
        *cow.bias_at_mut(2) = 7.0;
        assert!(!journal.is_clean());
        journal.reset();
        assert!(journal.is_clean());
        // A fresh view over the same journal sees pristine base values.
        let cow = CowParams::new(&base, &mut journal);
        assert_eq!(cow.embedding_row(0), base.embedding.row(0));
        assert_eq!(cow.bias_at(2), base.bias[2]);
    }
}
