//! The model tensors θ = {W, W′, B′} of Figure 2.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use plp_linalg::{ops, Matrix};

use crate::error::ModelError;

/// Number of tensors in θ; per-layer clipping divides the clip budget by
/// `√NUM_TENSORS` (paper §4.1: "θ₀ = {W, W′, B′}, hence |θ| = 3, so we clip
/// the ℓ2-norm of each tensor to C/√3").
pub const NUM_TENSORS: usize = 3;

/// Skip-gram parameters: embedding matrix `W` (`L × dim`), context matrix
/// `W′` (`L × dim`, stored row-major by location like `W`), and the output
/// bias vector `B′` (`L`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// θ cut at vocabulary rows into blocks of `rows` rows (the last
    /// shorter): block `b` is `[W, W′, B′]` restricted to rows
    /// `b·rows .. (b+1)·rows`. The unit the element-wise θ-sized passes —
    /// noise and server update — fan out over: block `b` of one θ-shaped
    /// value lines up with block `b` of any other.
    ///
    /// # Panics
    /// `dim` must be ≥ 1 (as [`ModelParams::init`] guarantees).
    pub fn row_blocks_mut(&mut self, rows: usize) -> impl Iterator<Item = [&mut [f64]; 3]> {
        let (rows, dim) = (rows.max(1), self.dim());
        assert!(dim >= 1, "row blocks need dim >= 1");
        let ModelParams {
            embedding,
            context,
            bias,
        } = self;
        embedding
            .as_mut_slice()
            .chunks_mut(rows * dim)
            .zip(context.as_mut_slice().chunks_mut(rows * dim))
            .zip(bias.chunks_mut(rows))
            .map(|((w, c), b)| [w, c, b])
    }

    /// [`ModelParams::row_blocks_mut`], read-only.
    ///
    /// # Panics
    /// `dim` must be ≥ 1.
    pub fn row_blocks(&self, rows: usize) -> impl Iterator<Item = [&[f64]; 3]> {
        let (rows, dim) = (rows.max(1), self.dim());
        assert!(dim >= 1, "row blocks need dim >= 1");
        self.embedding
            .as_slice()
            .chunks(rows * dim)
            .zip(self.context.as_slice().chunks(rows * dim))
            .zip(self.bias.chunks(rows))
            .map(|((w, c), b)| [w, c, b])
    }

    /// A copy of the embedding matrix with rows normalised to unit length —
    /// what gets deployed to devices (§3.2: "the embedded vectors are
    /// normalized to unit length"; §3.3 footnote: "only the embedding matrix
    /// is deployed").
    pub fn deployable_embedding(&self) -> Matrix {
        self.embedding.normalized_rows()
    }
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
    fn row_blocks_cut_every_tensor_at_the_same_rows() {
        let mut p = ModelParams::zeros(5, 3);
        for (b, [w, c, bias]) in p.row_blocks_mut(2).enumerate() {
            let rows = if b < 2 { 2 } else { 1 };
            assert_eq!((w.len(), c.len(), bias.len()), (rows * 3, rows * 3, rows));
            w.fill(b as f64);
            c.fill(b as f64);
            bias.fill(b as f64);
        }
        for r in 0..5 {
            let b = (r / 2) as f64;
            assert!(p
                .embedding
                .row(r)
                .iter()
                .chain(p.context.row(r))
                .all(|&x| x == b));
            assert_eq!(p.bias[r], b);
        }
        let read: Vec<[&[f64]; 3]> = p.row_blocks(2).collect();
        assert_eq!(read.len(), 3);
        assert_eq!(read[2], [&[2.0; 3][..], &[2.0; 3][..], &[2.0][..]]);
        assert_eq!(p.row_blocks(0).count(), 5, "zero rows per block means one");
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

    #[test]
    fn serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = ModelParams::init(&mut rng, 5, 3).unwrap();
        let s = serde_json::to_string(&p).unwrap();
        let back: ModelParams = serde_json::from_str(&s).unwrap();
        assert!(p.same_shape(&back));
    }
}
