//! The model tensors θ = {W, W′, B′} of Figure 2.

use rand::{Rng, RngExt};

use plp_linalg::{ops, Matrix};

use crate::error::ModelError;

/// Number of tensors in θ; per-layer clipping divides the clip budget by
/// `√NUM_TENSORS` (paper §4.1: "θ₀ = {W, W′, B′}, hence |θ| = 3, so we clip
/// the ℓ2-norm of each tensor to C/√3").
pub const NUM_TENSORS: usize = 3;

/// The bias vector is cut into pseudo-rows of this many entries, so that
/// the row-wise passes over θ walk it like the matrices. Part of the noise
/// trajectory: each pseudo-row draws from its own stream, so changing this
/// changes which stream each bias entry draws from (covered by the
/// checkpoint RNG-scheme version).
pub const BIAS_CHUNK: usize = 64;

/// One row of θ, as the row-wise passes address it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// Row `r` of the embedding matrix `W`.
    Embedding(usize),
    /// Row `r` of the context matrix `W′`.
    Context(usize),
    /// Bias pseudo-row `c`: entries `c·BIAS_CHUNK` up to the next multiple
    /// of [`BIAS_CHUNK`] or the end of the vocabulary, whichever is first.
    Bias(usize),
}

/// Skip-gram parameters: embedding matrix `W` (`L × dim`), context matrix
/// `W′` (`L × dim`, stored row-major by location like `W`), and the output
/// bias vector `B′` (`L`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// The input embedding matrix `W`.
    pub embedding: Matrix,
    /// The output/context matrix `W′`.
    pub context: Matrix,
    /// The output bias vector `B′`.
    pub bias: Vec<f64>,
}

impl ModelParams {
    /// word2vec-style initialisation: `W` uniform in
    /// `[-0.5/dim, 0.5/dim]`, `W′` and `B′` zero.
    ///
    /// # Errors
    /// `vocab_size` and `dim` must be ≥ 1.
    pub fn init<R: Rng + ?Sized>(
        rng: &mut R,
        vocab_size: usize,
        dim: usize,
    ) -> Result<Self, ModelError> {
        if vocab_size == 0 {
            return Err(ModelError::BadConfig {
                name: "vocab_size",
                expected: ">= 1",
            });
        }
        if dim == 0 {
            return Err(ModelError::BadConfig {
                name: "dim",
                expected: ">= 1",
            });
        }
        let half = 0.5 / dim as f64;
        let embedding = Matrix::from_fn(vocab_size, dim, |_, _| {
            rng.random::<f64>() * 2.0 * half - half
        });
        Ok(ModelParams {
            embedding,
            context: Matrix::zeros(vocab_size, dim),
            bias: vec![0.0; vocab_size],
        })
    }

    /// All-zero parameters of the given shape (useful for accumulators).
    pub fn zeros(vocab_size: usize, dim: usize) -> Self {
        ModelParams {
            embedding: Matrix::zeros(vocab_size, dim),
            context: Matrix::zeros(vocab_size, dim),
            bias: vec![0.0; vocab_size],
        }
    }

    /// Vocabulary size `L`.
    pub fn vocab_size(&self) -> usize {
        self.embedding.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.embedding.cols()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.embedding.len() + self.context.len() + self.bias.len()
    }

    /// `true` iff `other` has identical shape.
    pub fn same_shape(&self, other: &ModelParams) -> bool {
        self.vocab_size() == other.vocab_size() && self.dim() == other.dim()
    }

    /// ℓ2 norm of the *whole* flattened parameter vector.
    pub fn global_norm(&self) -> f64 {
        let e = self.embedding.frobenius_norm();
        let c = self.context.frobenius_norm();
        let b = ops::l2_norm(&self.bias);
        (e * e + c * c + b * b).sqrt()
    }

    /// Per-tensor ℓ2 norms `(‖W‖, ‖W′‖, ‖B′‖)`.
    pub fn tensor_norms(&self) -> (f64, f64, f64) {
        (
            self.embedding.frobenius_norm(),
            self.context.frobenius_norm(),
            ops::l2_norm(&self.bias),
        )
    }

    /// `true` iff every parameter is finite.
    pub fn all_finite(&self) -> bool {
        self.embedding.all_finite() && self.context.all_finite() && ops::all_finite(&self.bias)
    }

    /// Row `row` of θ: a `dim`-wide row of `W` or `W′`, or a bias
    /// pseudo-row of at most [`BIAS_CHUNK`] entries.
    ///
    /// # Panics
    /// If the row lies outside the vocabulary.
    pub fn row(&self, row: Row) -> &[f64] {
        match row {
            Row::Embedding(r) => self.embedding.row(r),
            Row::Context(r) => self.context.row(r),
            Row::Bias(c) => {
                let start = c * BIAS_CHUNK;
                &self.bias[start..(start + BIAS_CHUNK).min(self.bias.len())]
            }
        }
    }

    /// θ cut at vocabulary rows into at most `parts` blocks, each walked
    /// as its rows: `W`'s, then `W′`'s, then `B′`'s pseudo-rows, every one
    /// with its [`Row`]. The unit the row-wise θ-sized passes — the noise
    /// and the server update — fan out over. A block's length is a
    /// multiple of [`BIAS_CHUNK`], so a bias pseudo-row never straddles two
    /// blocks, and block `b` of one θ-shaped value holds the same rows as
    /// block `b` of any other.
    ///
    /// # Panics
    /// `dim` must be ≥ 1 (as [`ModelParams::init`] guarantees).
    pub fn row_parts_mut(
        &mut self,
        parts: usize,
    ) -> impl Iterator<Item = impl Iterator<Item = (Row, &mut [f64])>> {
        let dim = self.dim();
        let ModelParams {
            embedding,
            context,
            bias,
        } = self;
        row_blocks(
            [embedding.as_mut_slice(), context.as_mut_slice(), bias],
            dim,
            parts,
        )
    }

    /// A copy of the embedding matrix with rows normalised to unit length —
    /// what gets deployed to devices (§3.2: "the embedded vectors are
    /// normalized to unit length"; §3.3 footnote: "only the embedding matrix
    /// is deployed").
    pub fn deployable_embedding(&self) -> Matrix {
        self.embedding.normalized_rows()
    }
}

/// The cut behind [`ModelParams::row_parts_mut`], over any three tensors
/// laid out like θ's — `W` and `W′` of `dim`-wide rows, then `B′` of one
/// entry per row — so every θ-shaped value of any element type (Adam's f32
/// moments too) is cut at the same vocabulary rows.
///
/// # Panics
/// `dim` must be ≥ 1.
pub(crate) fn row_blocks<T>(
    [embedding, context, bias]: [&mut [T]; 3],
    dim: usize,
    parts: usize,
) -> impl Iterator<Item = impl Iterator<Item = (Row, &mut [T])>> {
    assert!(dim >= 1, "row parts need dim >= 1");
    let rows = bias
        .len()
        .div_ceil(parts.max(1))
        .max(1)
        .next_multiple_of(BIAS_CHUNK);
    embedding
        .chunks_mut(rows * dim)
        .zip(context.chunks_mut(rows * dim))
        .zip(bias.chunks_mut(rows))
        .enumerate()
        .map(move |(b, ((w, c), bias))| {
            let first = b * rows;
            tensor_rows(w, dim, Row::Embedding, first)
                .chain(tensor_rows(c, dim, Row::Context, first))
                .chain(tensor_rows(bias, BIAS_CHUNK, Row::Bias, first / BIAS_CHUNK))
        })
}

/// `data` cut into rows of `width`, the first of which is row `first`.
fn tensor_rows<T>(
    data: &mut [T],
    width: usize,
    row: fn(usize) -> Row,
    first: usize,
) -> impl Iterator<Item = (Row, &mut [T])> {
    data.chunks_mut(width)
        .enumerate()
        .map(move |(k, values)| (row(first + k), values))
}

/// Read access to the three model tensors by row, abstracting over *where*
/// the rows live: a dense [`ModelParams`], or a copy-on-write overlay
/// ([`crate::journal::CowParams`]) that materialises rows lazily so the
/// per-bucket delta path never clones the full parameter set.
///
/// Out-of-range rows panic (mirroring `Matrix::row`); bounds are the
/// caller's contract, exactly as with the dense accessors.
pub trait ParamsView {
    /// Vocabulary size `L`.
    fn vocab_size(&self) -> usize;
    /// Embedding dimension.
    fn dim(&self) -> usize;
    /// Row `r` of the input embedding matrix `W`.
    fn embedding_row(&self, r: usize) -> &[f64];
    /// Row `r` of the output/context matrix `W′`.
    fn context_row(&self, r: usize) -> &[f64];
    /// Element `r` of the output bias vector `B′`.
    fn bias_at(&self, r: usize) -> f64;
}

/// Mutable row access on top of [`ParamsView`]. For a copy-on-write view,
/// the first mutable touch of a row snapshots it into the overlay; dense
/// parameters hand out their storage directly.
pub trait ParamsViewMut: ParamsView {
    /// Mutable row `r` of `W`.
    fn embedding_row_mut(&mut self, r: usize) -> &mut [f64];
    /// Mutable row `r` of `W′`.
    fn context_row_mut(&mut self, r: usize) -> &mut [f64];
    /// Mutable element `r` of `B′`.
    fn bias_at_mut(&mut self, r: usize) -> &mut f64;
}

impl ParamsView for ModelParams {
    fn vocab_size(&self) -> usize {
        ModelParams::vocab_size(self)
    }

    fn dim(&self) -> usize {
        ModelParams::dim(self)
    }

    fn embedding_row(&self, r: usize) -> &[f64] {
        self.embedding.row(r)
    }

    fn context_row(&self, r: usize) -> &[f64] {
        self.context.row(r)
    }

    fn bias_at(&self, r: usize) -> f64 {
        self.bias[r]
    }
}

impl ParamsViewMut for ModelParams {
    fn embedding_row_mut(&mut self, r: usize) -> &mut [f64] {
        self.embedding.row_mut(r)
    }

    fn context_row_mut(&mut self, r: usize) -> &mut [f64] {
        self.context.row_mut(r)
    }

    fn bias_at_mut(&mut self, r: usize) -> &mut f64 {
        &mut self.bias[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn init_shapes_and_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = ModelParams::init(&mut rng, 100, 16).unwrap();
        assert_eq!(p.vocab_size(), 100);
        assert_eq!(p.dim(), 16);
        assert_eq!(p.num_params(), 100 * 16 * 2 + 100);
        let half = 0.5 / 16.0;
        assert!(p.embedding.as_slice().iter().all(|&x| x.abs() <= half));
        assert!(p.context.as_slice().iter().all(|&x| x == 0.0));
        assert!(p.bias.iter().all(|&x| x == 0.0));
        assert!(p.all_finite());
    }

    #[test]
    fn init_rejects_degenerate_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(ModelParams::init(&mut rng, 0, 8).is_err());
        assert!(ModelParams::init(&mut rng, 8, 0).is_err());
    }

    #[test]
    fn norms() {
        let mut a = ModelParams::zeros(3, 2);
        a.embedding.set(0, 0, 6.0);
        a.bias[1] = 8.0;
        assert!((a.global_norm() - 10.0).abs() < 1e-12);
        let (we, wc, wb) = a.tensor_norms();
        assert_eq!(we, 6.0);
        assert_eq!(wc, 0.0);
        assert_eq!(wb, 8.0);
    }

    #[test]
    fn row_parts_cut_every_tensor_at_the_same_rows() {
        // 130 rows over 2 parts: blocks of 128 and 2 rows, bias
        // pseudo-rows 0, 1 and then 2, the short last one.
        let (vocab, dim) = (130, 3);
        let mut p = ModelParams::zeros(vocab, dim);
        let mut seen = Vec::new();
        for (b, rows) in p.row_parts_mut(2).enumerate() {
            for (row, values) in rows {
                let width = match row {
                    Row::Bias(c) => (vocab - c * BIAS_CHUNK).min(BIAS_CHUNK),
                    _ => dim,
                };
                assert_eq!(values.len(), width, "{row:?}");
                values.fill(b as f64 + 1.0);
                seen.push(row);
            }
        }
        // Each block walks its own W rows, then W′ rows, then B′ chunks.
        let block = |rows: std::ops::Range<usize>, chunks: std::ops::Range<usize>| {
            (rows.clone().map(Row::Embedding))
                .chain(rows.map(Row::Context))
                .chain(chunks.map(Row::Bias))
        };
        let want: Vec<Row> = block(0..128, 0..2).chain(block(128..130, 2..3)).collect();
        assert_eq!(seen, want);
        for r in 0..vocab {
            let b = if r < 128 { 1.0 } else { 2.0 };
            for row in [Row::Embedding(r), Row::Context(r)] {
                assert!(p.row(row).iter().all(|&x| x == b), "{row:?}");
            }
            assert_eq!(p.bias[r], b);
        }
        assert_eq!(p.row(Row::Bias(2)), &[2.0, 2.0]);
        assert_eq!(p.row_parts_mut(0).count(), 1, "zero parts means one");
        assert_eq!(p.row_parts_mut(7).count(), 3, "blocks of 64 rows, not 19");
        assert_eq!(ModelParams::zeros(0, 2).row_parts_mut(4).count(), 0);
    }

    #[test]
    fn deployable_embedding_has_unit_rows() {
        let mut p = ModelParams::zeros(2, 2);
        p.embedding.set(0, 0, 3.0);
        p.embedding.set(0, 1, 4.0);
        let d = p.deployable_embedding();
        assert!((plp_linalg::ops::l2_norm(d.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(d.row(1), &[0.0, 0.0]);
        // Original untouched.
        assert_eq!(p.embedding.get(0, 0), 3.0);
    }

    #[test]
    fn finiteness_detection() {
        let mut p = ModelParams::zeros(2, 2);
        assert!(p.all_finite());
        p.context.set(1, 1, f64::NAN);
        assert!(!p.all_finite());
    }
}
