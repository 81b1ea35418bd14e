//! Row-major dense matrix used for the model tensors.
//!
//! The skip-gram model stores `W` (embedding) and `W'` (context) as
//! `L × dim` matrices whose *rows* are the per-location vectors; almost all
//! access is row-wise, which is why the layout is row-major and the API is
//! row-centric.
//!
//! A matrix is backed either by an owned `Vec<f64>` (training, decoding) or
//! by a read-only [`MappedSlice`] view into an mmapped PLPS snapshot
//! (zero-copy serving). Read access is uniform through [`Matrix::as_slice`];
//! any mutation promotes a mapped matrix to owned storage first
//! (copy-on-write), so the mutable API is unchanged and mapped pages are
//! never written through.

use plp_mmap::MappedSlice;

use crate::error::LinalgError;
use crate::ops;

/// Backing storage for the row-major element buffer.
#[derive(Clone)]
enum Data {
    /// Heap-owned, mutable buffer.
    Owned(Vec<f64>),
    /// Read-only window into a shared memory-mapped snapshot.
    Mapped(MappedSlice),
}

impl Data {
    #[inline]
    fn as_slice(&self) -> &[f64] {
        match self {
            Data::Owned(v) => v,
            Data::Mapped(m) => m.as_slice(),
        }
    }
}

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Data,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: Data::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::BadBuffer {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: Data::Owned(data),
        })
    }

    /// Wraps a read-only mapped view as a matrix **without copying**: the
    /// elements stay in the mmapped snapshot pages and every kernel works
    /// off the `&[f64]` view. Mutating methods transparently promote to an
    /// owned copy first.
    ///
    /// # Errors
    /// Returns [`LinalgError::BadBuffer`] if `view.len() != rows * cols`.
    pub fn from_mapped(rows: usize, cols: usize, view: MappedSlice) -> Result<Self, LinalgError> {
        if view.len() != rows * cols {
            return Err(LinalgError::BadBuffer {
                rows,
                cols,
                len: view.len(),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: Data::Mapped(view),
        })
    }

    /// `true` when the matrix is still backed by a mapped snapshot view
    /// (no mutation has promoted it to owned storage).
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, Data::Mapped(_))
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix {
            rows,
            cols,
            data: Data::Owned(data),
        }
    }

    /// Mutable access to the owned buffer, promoting a mapped matrix to an
    /// owned copy first (copy-on-write).
    fn data_mut(&mut self) -> &mut Vec<f64> {
        if let Data::Mapped(view) = &self.data {
            self.data = Data::Owned(view.as_slice().to_vec());
        }
        match &mut self.data {
            Data::Owned(v) => v,
            Data::Mapped(_) => unreachable!("mapped backing promoted above"),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` iff the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows` (row indices are internal, validated at the
    /// vocabulary layer; an out-of-range row here is a programming error).
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data.as_slice()[start..start + self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        let cols = self.cols;
        &mut self.data_mut()[start..start + cols]
    }

    /// The underlying row-major buffer (owned or mapped — the read path is
    /// uniform).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable access to the underlying row-major buffer; promotes a mapped
    /// matrix to an owned copy.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data_mut()
    }

    /// Element access `(r, c)`; panics when out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data.as_slice()[r * self.cols + c]
    }

    /// Element assignment `(r, c)`; panics when out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        let idx = r * self.cols + c;
        self.data_mut()[idx] = v;
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data_mut().fill(v);
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Frobenius norm (the ℓ2 norm of the flattened matrix).
    pub fn frobenius_norm(&self) -> f64 {
        ops::l2_norm(self.as_slice())
    }

    /// `self += alpha * other`, element-wise.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<(), LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matrix axpy",
                left: self.len(),
                right: other.len(),
            });
        }
        ops::axpy(alpha, other.as_slice(), self.data_mut())
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: self.cols,
                right: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| ops::dot_unchecked(self.row(r), x))
            .collect())
    }

    /// Blocked matrix product against a transposed right-hand side:
    /// `out[i][j] = self.row(i) · rhs.row(j)`, i.e. `self · rhsᵀ`.
    ///
    /// Both operands are row-major with rows as the per-item vectors (the
    /// layout of every tensor in this workspace), so `A · Bᵀ` is the
    /// natural batched form of [`Matrix::matvec`]: scoring a batch of
    /// query profiles against every embedding row is one call instead of
    /// one `matvec` per query. Iteration is tiled over the rows of both
    /// operands for cache locality, while each inner product runs over the
    /// shared dimension in the same sequential order as `matvec` — so
    /// every output element is **bit-identical** to the per-query path.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols != rhs.cols`.
    pub fn matmul_block(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        matmul_block_into(
            self.as_slice(),
            self.rows,
            self.cols,
            rhs,
            out.as_mut_slice(),
        )?;
        Ok(out)
    }

    /// Normalises every row to unit ℓ2 length (zero rows are left as-is).
    ///
    /// The paper normalises the embedding matrix before deployment so that
    /// cosine similarity equals the dot product (§3.2).
    pub fn normalize_rows(&mut self) {
        for r in 0..self.rows {
            ops::normalize(self.row_mut(r));
        }
    }

    /// Returns a copy with all rows normalised to unit length.
    pub fn normalized_rows(&self) -> Matrix {
        let mut m = self.clone();
        m.normalize_rows();
        m
    }

    /// `true` iff every element is finite.
    pub fn all_finite(&self) -> bool {
        ops::all_finite(self.as_slice())
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix; it owns no allocation.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("mapped", &self.is_mapped())
            .field("data", &self.as_slice())
            .finish()
    }
}

impl PartialEq for Matrix {
    /// Shape plus element equality; a mapped matrix equals an owned one
    /// with the same contents (backing is a storage detail).
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.as_slice() == other.as_slice()
    }
}

/// Row-block tile over the left operand of [`matmul_block_into`].
const MATMUL_BLOCK_ROWS: usize = 16;
/// Row-block tile over the right operand of [`matmul_block_into`].
const MATMUL_BLOCK_COLS: usize = 64;

/// The raw-buffer form of [`Matrix::matmul_block`], for callers that reuse
/// scratch storage: `a` holds `a_rows` row-major rows of `a_cols` elements
/// (a prefix of a larger buffer is fine as long as the lengths check out),
/// and `out` receives `a_rows × rhs.rows()` scores.
///
/// Tiling reorders only *which* output element is computed when; each
/// element's inner product runs [`ops::dot_unchecked`]'s eight-lane
/// micro-kernel with its fixed reduction order over the shared dimension,
/// so results are bit-identical to a per-row [`Matrix::matvec`] (which uses
/// the same kernel) regardless of tile shape or thread count.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if `a_cols != rhs.cols()`, and
/// [`LinalgError::BadBuffer`] if `a` is shorter than `a_rows * a_cols` or
/// `out` shorter than `a_rows * rhs.rows()`.
pub fn matmul_block_into(
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    rhs: &Matrix,
    out: &mut [f64],
) -> Result<(), LinalgError> {
    if a_cols != rhs.cols {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_block",
            left: a_cols,
            right: rhs.cols,
        });
    }
    if a.len() < a_rows * a_cols {
        return Err(LinalgError::BadBuffer {
            rows: a_rows,
            cols: a_cols,
            len: a.len(),
        });
    }
    let b_rows = rhs.rows;
    if out.len() < a_rows * b_rows {
        return Err(LinalgError::BadBuffer {
            rows: a_rows,
            cols: b_rows,
            len: out.len(),
        });
    }
    for ib in (0..a_rows).step_by(MATMUL_BLOCK_ROWS) {
        let i_end = (ib + MATMUL_BLOCK_ROWS).min(a_rows);
        for jb in (0..b_rows).step_by(MATMUL_BLOCK_COLS) {
            let j_end = (jb + MATMUL_BLOCK_COLS).min(b_rows);
            for i in ib..i_end {
                let a_row = &a[i * a_cols..(i + 1) * a_cols];
                let out_row = &mut out[i * b_rows..(i + 1) * b_rows];
                for (j, out_cell) in out_row.iter_mut().enumerate().take(j_end).skip(jb) {
                    *out_cell = ops::dot_unchecked(a_row, rhs.row(j));
                }
            }
        }
    }
    Ok(())
}

/// Left-hand vectors per call of [`dot_tile_f32`].
pub(crate) const TILE_ROWS: usize = 4;
/// Right-hand vectors per call of [`dot_tile_f32`].
pub(crate) const TILE_COLS: usize = 8;

/// The free-order f32 counterpart of [`matmul_block_into`]: all
/// `TILE_ROWS × TILE_COLS` dot products of one register tile.
///
/// Both operands are interleaved by coordinate — `rows[d * TILE_ROWS + r]`
/// and `panel[d * TILE_COLS + j]` are coordinate `d` of left vector `r` and
/// right vector `j` — so the accumulators run *across* right-hand vectors:
/// eight 4-wide f32 registers, one broadcast load per left vector shared by
/// all eight columns, no horizontal reduction. Nothing is promised about
/// the reduction order or the bits of the result; its callers, `ivf`'s
/// assignment filter and centroid Gram matrix, use the scores to choose
/// what the fixed-order f64 kernel re-scores, never as scores.
///
/// Always inlined: with two callers the compiler otherwise emits a call
/// that returns the tile through memory, which costs the filter's hot
/// loop about 5 %.
#[inline(always)]
pub(crate) fn dot_tile_f32(rows: &[f32], panel: &[f32]) -> [[f32; TILE_COLS]; TILE_ROWS] {
    let mut acc = [[0.0_f32; TILE_COLS]; TILE_ROWS];
    for (x, p) in rows
        .chunks_exact(TILE_ROWS)
        .zip(panel.chunks_exact(TILE_COLS))
    {
        // Fixed-size views: the two inner loops unroll completely and the
        // eight columns of each row become two vector multiply-adds.
        let x: &[f32; TILE_ROWS] = x.try_into().expect("chunks_exact(TILE_ROWS)");
        let p: &[f32; TILE_COLS] = p.try_into().expect("chunks_exact(TILE_COLS)");
        for r in 0..TILE_ROWS {
            for j in 0..TILE_COLS {
                acc[r][j] += x[r] * p[j];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn from_vec_validates_buffer() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::BadBuffer { .. })
        ));
    }

    #[test]
    fn row_access_is_row_major() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(1, 2), 6.0);
    }

    #[test]
    fn from_fn_evaluates_positions() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, -1.0]).unwrap();
        let y = m.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![7.0, -1.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn axpy_and_frobenius() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.get(0, 0), 6.0);
        assert_eq!(a.frobenius_norm(), 10.0);
        let wrong = Matrix::zeros(1, 2);
        assert!(a.axpy(1.0, &wrong).is_err());
    }

    #[test]
    fn normalize_rows_gives_unit_rows_and_keeps_zero_rows() {
        let mut m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]).unwrap();
        m.normalize_rows();
        assert!((crate::ops::l2_norm(m.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn matmul_block_is_bitwise_matvec_per_row() {
        // Sizes straddle both tile boundaries (16 and 64).
        for (b, l, d) in [(1, 3, 2), (5, 70, 7), (17, 64, 3), (33, 130, 5)] {
            let queries = Matrix::from_fn(b, d, |r, c| ((r * 31 + c * 17) % 13) as f64 - 6.0);
            let emb = Matrix::from_fn(l, d, |r, c| ((r * 7 + c * 5) % 11) as f64 * 0.25 - 1.0);
            let out = queries.matmul_block(&emb).unwrap();
            assert_eq!(out.rows(), b);
            assert_eq!(out.cols(), l);
            for r in 0..b {
                let reference = emb.matvec(queries.row(r)).unwrap();
                for (j, expected) in reference.iter().enumerate() {
                    assert_eq!(
                        out.get(r, j).to_bits(),
                        expected.to_bits(),
                        "row {r} col {j} must be bit-identical to matvec"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_tile_f32_scores_every_pair_of_the_interleaved_tile() {
        let dim = 37;
        let left = Matrix::from_fn(TILE_ROWS, dim, |r, d| ((r * 7 + d * 3) % 11) as f64 - 5.0);
        let right = Matrix::from_fn(TILE_COLS, dim, |j, d| ((j * 5 + d) % 13) as f64 * 0.5 - 3.0);
        let interleave = |m: &Matrix| -> Vec<f32> {
            (0..dim * m.rows())
                .map(|i| m.get(i % m.rows(), i / m.rows()) as f32)
                .collect()
        };
        let scores = dot_tile_f32(&interleave(&left), &interleave(&right));
        for (r, lane) in scores.iter().enumerate() {
            for (j, &got) in lane.iter().enumerate() {
                // Small half-integers: every product and sum is exact in f32.
                assert_eq!(
                    f64::from(got),
                    ops::dot_unchecked(left.row(r), right.row(j))
                );
            }
        }
    }

    #[test]
    fn matmul_block_validates_shapes_and_buffers() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            a.matmul_block(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let rhs = Matrix::zeros(4, 3);
        let mut out = vec![0.0; 7]; // needs 2 * 4 = 8
        assert!(matches!(
            matmul_block_into(a.as_slice(), 2, 3, &rhs, &mut out),
            Err(LinalgError::BadBuffer { .. })
        ));
        let mut full = vec![0.0; 8];
        assert!(matches!(
            matmul_block_into(&a.as_slice()[..5], 2, 3, &rhs, &mut full),
            Err(LinalgError::BadBuffer { .. })
        ));
    }

    #[test]
    fn matmul_block_into_accepts_prefix_of_larger_scratch() {
        // A serving worker sizes scratch for max_batch and scores smaller
        // final batches through the same buffers.
        let emb = Matrix::from_fn(5, 2, |r, c| (r + c) as f64);
        let profiles = vec![1.0, 2.0, 0.5, -1.0, 9.0, 9.0]; // 2 used rows + slack
        let mut scores = vec![f64::NAN; 3 * 5]; // oversized on purpose
        matmul_block_into(&profiles, 2, 2, &emb, &mut scores).unwrap();
        let r0 = emb.matvec(&[1.0, 2.0]).unwrap();
        let r1 = emb.matvec(&[0.5, -1.0]).unwrap();
        assert_eq!(&scores[..5], r0.as_slice());
        assert_eq!(&scores[5..10], r1.as_slice());
        assert!(scores[10..].iter().all(|x| x.is_nan()), "slack untouched");
    }

    /// Writes `values` to a temp file and maps them back as a view.
    fn mapped_view(name: &str, values: &[f64]) -> (std::path::PathBuf, MappedSlice) {
        use std::io::Write;
        let path =
            std::env::temp_dir().join(format!("plp_linalg_test_{}_{name}", std::process::id()));
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        let map = std::sync::Arc::new(plp_mmap::Mmap::map(&path).unwrap());
        let view = MappedSlice::new(map, 0, values.len()).unwrap();
        (path, view)
    }

    #[test]
    fn mapped_matrix_reads_bit_identical_to_owned() {
        let values = [1.0, -2.5, 3.25, 0.5, 1e-12, -9.75];
        let (path, view) = mapped_view("read", &values);
        let mapped = Matrix::from_mapped(2, 3, view).unwrap();
        let owned = Matrix::from_vec(2, 3, values.to_vec()).unwrap();
        assert!(mapped.is_mapped());
        assert!(!owned.is_mapped());
        assert_eq!(mapped, owned);
        for (a, b) in mapped.as_slice().iter().zip(owned.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Kernels run straight off the view.
        let x = [1.0, 2.0, 3.0];
        let ym = mapped.matvec(&x).unwrap();
        let yo = owned.matvec(&x).unwrap();
        assert_eq!(ym, yo);
        let pm = mapped.matmul_block(&owned).unwrap();
        let po = owned.matmul_block(&owned).unwrap();
        assert_eq!(pm, po);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutation_promotes_mapped_to_owned_copy() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let (path, view) = mapped_view("cow", &values);
        let mut m = Matrix::from_mapped(2, 2, view.clone()).unwrap();
        assert!(m.is_mapped());
        m.set(0, 0, 42.0);
        assert!(!m.is_mapped(), "mutation must promote to owned");
        assert_eq!(m.get(0, 0), 42.0);
        // The mapping itself is untouched.
        assert_eq!(view.as_slice()[0], 1.0);
        // Other mutators promote too.
        let mut n = Matrix::from_mapped(2, 2, view.clone()).unwrap();
        n.normalize_rows();
        assert!(!n.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_mapped_validates_length() {
        let (path, view) = mapped_view("len", &[1.0, 2.0, 3.0]);
        assert!(matches!(
            Matrix::from_mapped(2, 2, view),
            Err(LinalgError::BadBuffer { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn map_inplace_and_fill() {
        let mut m = Matrix::zeros(2, 2);
        m.fill(2.0);
        m.map_inplace(|x| x * x);
        assert!(m.as_slice().iter().all(|&x| x == 4.0));
        assert!(m.all_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.all_finite());
    }
}
