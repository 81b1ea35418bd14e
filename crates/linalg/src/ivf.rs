//! Deterministic IVF (inverted-file) index for sublinear cosine top-k.
//!
//! The recommender's model-utilisation step ranks every location by the
//! dot product of a query profile against the unit-normalised embedding
//! rows (paper §3.3). That exhaustive scan is O(L·dim) per query — fine at
//! the paper's L ≈ 5k, a wall at a production vocabulary of 10⁵–10⁷. This
//! module trades it for a two-stage search:
//!
//! 1. **coarse quantiser** — the rows are partitioned into `cells` by a
//!    seeded *spherical k-means* (assignment by maximal dot product,
//!    centroids renormalised each iteration, so the geometry matches the
//!    cosine scoring it serves);
//! 2. **exact re-rank** — a query scores the `cells` centroids, probes the
//!    `nprobe` best, and re-scores every row of the probed cells with the
//!    *same* [`ops::dot_unchecked`] kernel the exhaustive path uses, then
//!    selects through the same top-k heap ([`topk::top_k_indexed_into`]).
//!
//! Shortlisted rows therefore carry their real cosine scores and inherit
//! the NaN-exclusion contract unchanged; the approximation is only in
//! *which* rows are considered, never in how a considered row is scored or
//! ranked.
//!
//! # Determinism contract
//!
//! Like the PR 4/5 kernels, everything here is bit-identical across thread
//! counts:
//!
//! * **build** — each row's cell is the one a full scan of the centroids
//!   with the fixed-reduction-order dot kernel picks, a pure function of
//!   the row and the centroids (see "The assignment pass" below for how
//!   that is had without the full scan), so the assignment pass can be
//!   split across any number of threads; centroid updates then accumulate
//!   sequentially in ascending row order. Initial centroids come from
//!   [`sample::mix64`] counters on the build seed. Same
//!   `(embedding, params)` → same index, bit for bit, at any `threads` and
//!   on any machine.
//! * **search** — candidate scores are exact dot products, and the final
//!   selection's "(score desc, index asc)" order is strict over distinct
//!   rows, so the result depends only on the candidate *set*. With
//!   `nprobe == cells` the candidate set is every row and the search is
//!   bit-identical to the exhaustive scan.
//!
//! # The assignment pass: filter, then verify
//!
//! Assigning a row means finding the cell `w` with the maximal
//! `S_j = ops::dot_unchecked(row, centroid_j)`, lowest id among equals.
//! Scanning every cell with that kernel would be nearly all of a build's
//! time, so the pass has the shape [`IvfQuant`] has at query time — a cheap
//! bounded pass, then an exact re-rank:
//!
//! 1. **filter** — a tile of rows is scored against f32 panels of the
//!    centroids by `matrix::dot_tile_f32`, in whatever reduction order is
//!    fastest. Each row is first scaled by the power of two `s` that puts
//!    its largest `|coordinate|` in `[1, 2)`; call the f32 score of cell
//!    `j` `A_j`.
//! 2. **verify** — every cell with `A_j ≥ max A − 2·slack` is re-scored
//!    with `ops::dot_unchecked` in ascending cell order under strict `>`.
//!
//! If `|A_j − s·S_j| ≤ slack` for every cell, then `w` survives the filter
//! (`A_w ≥ s·S_w − slack ≥ s·S_j − slack ≥ A_j − 2·slack` for every `j`,
//! the arg-max of `A` included), and among the survivors the verify step
//! is the full scan's own comparison, so it returns `w` — ties to the
//! lower id and all. The filter only chooses *which* cells are verified:
//! its bits, and therefore its reduction order, the thread count and the
//! machine's vector width, cannot reach the index.
//!
//! **The bound.** `slack = κ(dim)·‖s·row‖₂·max_j‖centroid_j‖₂` with
//! `κ(dim) = (2·dim + 8)·2⁻²⁴`. Write `u = 2⁻²⁴`, `n = dim`, `x̂ = s·row`,
//! `X = ‖x̂‖₂ ≥ 1`, `C = max_j‖c_j‖₂`, and assume the *window*
//! `n ≤ 2¹⁶`, every centroid finite with `2⁻⁶⁰ ≤ max|c_ij| < 2⁶¹` (so
//! `X·C ≥ 2⁻⁶⁰`), and `2⁻⁹⁰⁰ ≤ max|row_i| < 2⁹⁰¹`. Nothing overflows in
//! the window: f32 products are below `2⁶³` and their partial sums below
//! `2⁷⁹`; the f64 kernel's partial sums stay below `2⁹⁸⁰`.
//!
//! * *input rounding* — `x̃_i = x̂_i(1+δ) + η` with `|δ| ≤ u` and `|η| ≤ 2⁻¹⁴⁹`
//!   (the f64 scaling and the f32 conversion can each land in a subnormal
//!   range), likewise `c̃_i`; by Cauchy–Schwarz
//!   `|Σx̃c̃ − Σx̂c| ≤ (2u + u²)·X·C + n·2⁻⁸⁷`.
//! * *accumulation* — `n` products and at most `n` additions, each rounded
//!   once, in any order or grouping:
//!   `|A − Σx̃c̃| ≤ γₙ·Σ|x̃c̃| + n·2⁻¹⁴⁹` with `γₙ = nu/(1 − nu) ≤ 1.004·nu`
//!   and `Σ|x̃c̃| ≤ (1+u)²·X·C + n·2⁻⁸⁷` (products can underflow, by at
//!   most `2⁻¹⁴⁹` each; sums in the subnormal range are exact).
//! * *the decider* — `dot_unchecked` rounds each term at most `n` times
//!   in f64: `s·|S − row·c| ≤ 1.001·n·2⁻⁵³·X·C + n·2⁻¹⁷⁴`.
//!
//! The absolute (underflow) terms sum to under `n·2⁻⁸⁶ ≤ (nu/4)·X·C`, so
//! `|A − s·S| ≤ (1.26·n + 2.01)·u·X·C`, which `κ(dim)·X·C` exceeds by a
//! factor over 1.5 — room that also covers the handful of f64 roundings in
//! evaluating the slack and the threshold themselves.
//!
//! **Outside the window** the bound is not claimed and the exact scan
//! decides: per row for zero, subnormal or astronomically large rows, for
//! the whole pass when the centroids are all zero (every `dim == 0`
//! build), non-finite or out of range. Scaling each row is what makes the
//! row window nearly everything; k-means centroids are unit vectors, so
//! theirs needs no scaling.

use crate::error::LinalgError;
use crate::matrix::{dot_tile_f32, Matrix, TILE_COLS, TILE_ROWS};
use crate::sample::mix64;
use crate::topk::{top_k_indexed_into, top_k_with_scores_into, TopKScratch};
use crate::{ops, par};

/// Build-time knobs of an [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfBuildParams {
    /// Number of coarse-quantiser cells (k-means clusters). Must be in
    /// `[1, rows]`.
    pub cells: usize,
    /// Lloyd iterations of the spherical k-means.
    pub iters: usize,
    /// Rows used to *train* the centroids: `0` trains on every row, any
    /// other value trains on an evenly-strided sample of (at least) that
    /// many rows. The final assignment always covers every row.
    pub sample: usize,
    /// Seed for the initial centroid choice (mixed through [`mix64`]).
    pub seed: u64,
    /// Threads for the assignment passes. Any value produces the same
    /// index bit-for-bit; this only changes build latency.
    pub threads: usize,
}

impl Default for IvfBuildParams {
    fn default() -> Self {
        IvfBuildParams {
            cells: 256,
            iters: 4,
            sample: 0,
            seed: 0xA55_C0DE,
            threads: 1,
        }
    }
}

/// Reusable buffers for [`IvfIndex::probe_cells`] and its re-ranks, so
/// serving workers run the probe + re-rank without allocating in steady
/// state.
#[derive(Debug, Default)]
pub struct IvfScratch {
    centroid_scores: Vec<f64>,
    probes: Vec<(usize, f64)>,
    topk: TopKScratch,
    candidate_ids: Vec<usize>,
    candidate_scores: Vec<f64>,
    exclude_sorted: Vec<usize>,
    q_profile: Vec<i8>,
    coarse_ids: Vec<usize>,
    coarse_approx: Vec<f64>,
    coarse_lb: Vec<f64>,
    coarse_ub: Vec<f64>,
    quant_sel: Vec<(usize, f64)>,
}

impl IvfScratch {
    /// Empty scratch; buffers grow on first use and are retained.
    pub fn new() -> Self {
        IvfScratch::default()
    }
}

/// A coarse-quantiser index over the rows of an embedding matrix: unit
/// centroids plus, per cell, the ascending list of member row ids. The
/// index does not own the embedding — searches take it as an argument and
/// validate its shape, so one frozen matrix can back both the exhaustive
/// and the indexed path.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    /// `cells × dim` unit-normalised centroids.
    centroids: Matrix,
    /// Member row ids per cell, each list ascending.
    lists: Vec<Vec<u32>>,
    /// Row count of the matrix the index was built over.
    rows: usize,
}

impl IvfIndex {
    /// Builds the index over `embedding`'s rows with spherical k-means.
    /// See the module docs for the determinism contract.
    ///
    /// # Errors
    /// `InvalidArgument` when `rows` exceeds `u32::MAX` (posting lists hold
    /// `u32` row ids), `cells` is not in `[1, rows]`, `iters` or `threads`
    /// is zero; `NonFinite` when the embedding contains a
    /// non-finite value (a corrupt matrix must fail at build, not skew
    /// centroids silently).
    pub fn build(embedding: &Matrix, params: &IvfBuildParams) -> Result<Self, LinalgError> {
        Self::build_with(embedding, params, assign_rows)
    }

    /// [`IvfIndex::build`] over a given assignment pass (the signature of
    /// [`assign_rows`]), so the tests can drive the same build with the
    /// exact scan and demand an equal index.
    fn build_with(
        embedding: &Matrix,
        params: &IvfBuildParams,
        assign: impl Fn(&Matrix, &Matrix, &[usize], &mut [u32], usize) -> u64,
    ) -> Result<Self, LinalgError> {
        let rows = embedding.rows();
        // Posting lists store row ids as `u32`; refuse what they cannot
        // hold before anything `rows`-sized is allocated.
        if u32::try_from(rows).is_err() {
            return Err(LinalgError::InvalidArgument {
                what: "ivf rows must fit in u32",
            });
        }
        if params.cells == 0 || params.cells > rows {
            return Err(LinalgError::InvalidArgument {
                what: "ivf cells must be in [1, rows]",
            });
        }
        if params.iters == 0 {
            return Err(LinalgError::InvalidArgument {
                what: "ivf iters must be >= 1",
            });
        }
        if params.threads == 0 {
            return Err(LinalgError::InvalidArgument {
                what: "ivf threads must be >= 1",
            });
        }
        if !embedding.all_finite() {
            return Err(LinalgError::NonFinite { op: "ivf build" });
        }
        let dim = embedding.cols();
        let cells = params.cells;

        // Training subset: evenly strided over the row space (ids are not
        // geography — upstream layouts scatter similar rows), clamped so
        // there is at least one training row per cell.
        let train: Vec<usize> = if params.sample == 0 || params.sample >= rows {
            (0..rows).collect()
        } else {
            let want = params.sample.max(cells).min(rows);
            (0..want)
                .map(|i| ((i as u128 * rows as u128) / want as u128) as usize)
                .collect()
        };

        // Initial centroids: `cells` distinct training rows chosen by a
        // counter-mixed hash of the seed (deterministic, no RNG state).
        let mut centroids = Matrix::zeros(cells, dim);
        {
            let mut taken = vec![false; train.len()];
            for c in 0..cells {
                let mut at = (mix64(params.seed ^ c as u64) % train.len() as u64) as usize;
                while taken[at] {
                    at = (at + 1) % train.len();
                }
                taken[at] = true;
                centroids
                    .row_mut(c)
                    .copy_from_slice(embedding.row(train[at]));
                ops::normalize(centroids.row_mut(c));
            }
        }

        // Lloyd iterations: threaded assignment (each row independent),
        // sequential centroid update in ascending row order.
        let mut cell_of = vec![0u32; train.len()];
        let mut sums = Matrix::zeros(cells, dim);
        for _ in 0..params.iters {
            assign(embedding, &centroids, &train, &mut cell_of, params.threads);
            sums.fill(0.0);
            let mut counts = vec![0u64; cells];
            for (slot, &row_id) in train.iter().enumerate() {
                let c = cell_of[slot] as usize;
                ops::axpy_unchecked(1.0, embedding.row(row_id), sums.row_mut(c));
                counts[c] += 1;
            }
            for (c, &count) in counts.iter().enumerate() {
                // Empty cells keep their previous centroid rather than
                // collapsing to zero and swallowing every later tie.
                if count > 0 {
                    centroids.row_mut(c).copy_from_slice(sums.row(c));
                    ops::normalize(centroids.row_mut(c));
                }
            }
        }

        // Final assignment covers every row; lists stay ascending because
        // rows are appended in index order.
        let all: Vec<usize> = (0..rows).collect();
        let mut final_assign = vec![0u32; rows];
        assign(
            embedding,
            &centroids,
            &all,
            &mut final_assign,
            params.threads,
        );
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); cells];
        for (row_id, &c) in final_assign.iter().enumerate() {
            lists[c as usize].push(row_id as u32);
        }

        Ok(IvfIndex {
            centroids,
            lists,
            rows,
        })
    }

    /// Number of coarse cells.
    pub fn cells(&self) -> usize {
        self.centroids.rows()
    }

    /// Embedding dimension the index was built for.
    pub fn dim(&self) -> usize {
        self.centroids.cols()
    }

    /// Row count of the matrix the index was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Member row ids of cell `c`, ascending.
    ///
    /// # Panics
    /// Panics if `c >= cells` (cell ids come from this index).
    pub fn list(&self, c: usize) -> &[u32] {
        &self.lists[c]
    }

    /// Stage 1 of an approximate top-`k` search: ranks centroids against
    /// `profile` and selects the top-`nprobe` cells into the scratch
    /// probe list (ties by lower cell id, like every selection in this
    /// workspace). Stage 2 is [`IvfIndex::rerank_probed`] or
    /// [`IvfIndex::rerank_probed_quantized`]; callers time the two apart.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `profile` is not `dim`-long,
    /// [`LinalgError::InvalidArgument`] if `nprobe == 0`.
    pub fn probe_cells(
        &self,
        profile: &[f64],
        nprobe: usize,
        scratch: &mut IvfScratch,
    ) -> Result<(), LinalgError> {
        if profile.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "ivf search profile",
                left: profile.len(),
                right: self.dim(),
            });
        }
        if nprobe == 0 {
            return Err(LinalgError::InvalidArgument {
                what: "ivf nprobe must be >= 1",
            });
        }
        let nprobe = nprobe.min(self.cells());
        scratch.centroid_scores.resize(self.cells(), 0.0);
        for (c, score) in scratch.centroid_scores.iter_mut().enumerate() {
            *score = ops::dot_unchecked(profile, self.centroids.row(c));
        }
        top_k_with_scores_into(
            &scratch.centroid_scores,
            nprobe,
            &mut scratch.topk,
            &mut scratch.probes,
        );
        Ok(())
    }

    /// Stage 2 of an approximate top-`k` search: gathers the members of
    /// the cells selected by [`IvfIndex::probe_cells`] and exactly re-ranks
    /// them with the fixed-reduction-order dot kernel, masking excluded
    /// rows `NaN` (the shared exclusion sentinel) and selecting through the
    /// shared top-k heap. `out` receives `(row, score)` pairs, best first,
    /// with the scores the exhaustive scan computes for those rows; with
    /// every cell probed the result equals the exhaustive scan exactly.
    /// Requires a prior `probe_cells` on the same scratch and `embedding`
    /// of the build shape (the caller checks it: this pass is unchecked).
    pub fn rerank_probed(
        &self,
        embedding: &Matrix,
        profile: &[f64],
        k: usize,
        exclude: &[usize],
        scratch: &mut IvfScratch,
        out: &mut Vec<(usize, f64)>,
    ) {
        scratch.exclude_sorted.clear();
        scratch.exclude_sorted.extend_from_slice(exclude);
        scratch.exclude_sorted.sort_unstable();
        scratch.exclude_sorted.dedup();
        scratch.candidate_ids.clear();
        scratch.candidate_scores.clear();
        for &(cell, _) in &scratch.probes {
            for &row_id in &self.lists[cell] {
                let row_id = row_id as usize;
                let score = if scratch.exclude_sorted.binary_search(&row_id).is_ok() {
                    f64::NAN
                } else {
                    ops::dot_unchecked(profile, embedding.row(row_id))
                };
                scratch.candidate_ids.push(row_id);
                scratch.candidate_scores.push(score);
            }
        }
        top_k_indexed_into(
            &scratch.candidate_ids,
            &scratch.candidate_scores,
            k,
            &mut scratch.topk,
            out,
        );
    }

    /// Quantized variant of [`IvfIndex::rerank_probed`]: an int8 coarse
    /// pass over the probed cells' packed rows (see [`IvfQuant`]) selects a
    /// shortlist, and only the shortlist is re-scored with the exact f64
    /// kernel and ranked through the shared top-k heap. `overfetch` floors
    /// the shortlist at `overfetch · k` rows by approximate score (clamped
    /// to ≥ 1×); independent of the floor, every row whose error-bound
    /// interval overlaps the k-th best lower bound is kept, which is what
    /// guarantees the shortlist contains the exact top-k — so at
    /// `nprobe == cells` the result is bit-identical to the dense scan.
    ///
    /// Requires a prior [`IvfIndex::probe_cells`] on the same scratch.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `quant` or `embedding` does not
    /// match this index's build shape.
    #[allow(clippy::too_many_arguments)]
    pub fn rerank_probed_quantized(
        &self,
        quant: &IvfQuant,
        embedding: &Matrix,
        profile: &[f64],
        k: usize,
        overfetch: usize,
        exclude: &[usize],
        scratch: &mut IvfScratch,
        out: &mut Vec<(usize, f64)>,
    ) -> Result<QuantRerankStats, LinalgError> {
        if quant.dim != self.dim()
            || quant.offsets.len() != self.cells() + 1
            || quant.scales.len() != self.rows
        {
            return Err(LinalgError::ShapeMismatch {
                op: "ivf quantized rerank",
                left: quant.scales.len(),
                right: self.rows,
            });
        }
        if embedding.rows() != self.rows || embedding.cols() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "ivf search embedding",
                left: embedding.rows(),
                right: self.rows,
            });
        }
        if k == 0 {
            out.clear();
            return Ok(QuantRerankStats::default());
        }

        scratch.exclude_sorted.clear();
        scratch.exclude_sorted.extend_from_slice(exclude);
        scratch.exclude_sorted.sort_unstable();
        scratch.exclude_sorted.dedup();

        // Coarse pass: integer dots against the packed i8 rows, plus the
        // per-candidate error interval [approx − bound, approx + bound]
        // from the Cauchy–Schwarz split (see [`IvfQuant`]): the query-side
        // residual `‖x − x̂‖₂` is measured against the just-quantized
        // profile, not worst-cased. `1e-9` relative inflation swallows the
        // handful of f64 roundings in evaluating the bound itself; the
        // bound is ~1e-2 of the score scale, so the slack is irrelevant
        // for the shortlist size.
        let dim = quant.dim;
        let s_query = quantize_query(profile, &mut scratch.q_profile);
        let mut l2q_sq = 0.0_f64;
        let mut residq_sq = 0.0_f64;
        for (&x, &qv) in profile.iter().zip(&scratch.q_profile) {
            l2q_sq += x * x;
            let e = x - s_query * f64::from(qv);
            residq_sq += e * e;
        }
        let l2_query = l2q_sq.sqrt() * (1.0 + 1e-12);
        let resid_query = residq_sq.sqrt() * (1.0 + 1e-12);
        scratch.coarse_ids.clear();
        scratch.coarse_approx.clear();
        scratch.coarse_lb.clear();
        scratch.coarse_ub.clear();
        for &(cell, _) in &scratch.probes {
            let base = quant.offsets[cell];
            for (member, &row_id) in self.lists[cell].iter().enumerate() {
                let row_id = row_id as usize;
                if scratch.exclude_sorted.binary_search(&row_id).is_ok() {
                    continue;
                }
                let at = base + member;
                let qrow = &quant.qdata[at * dim..(at + 1) * dim];
                let qdot = dot_i8(&scratch.q_profile, qrow);
                let s_row = quant.scales[at];
                let approx = (s_query * s_row) * f64::from(qdot);
                let bound = (l2_query * quant.resid_l2[at]
                    + resid_query * quant.row_l2[at]
                    + 1e-15 * approx.abs())
                    * (1.0 + 1e-9);
                scratch.coarse_ids.push(row_id);
                scratch.coarse_approx.push(approx);
                scratch.coarse_lb.push(approx - bound);
                scratch.coarse_ub.push(approx + bound);
            }
        }

        // k-th best lower bound: any candidate whose upper bound cannot
        // reach it is provably outside the exact top-k.
        top_k_with_scores_into(
            &scratch.coarse_lb,
            k,
            &mut scratch.topk,
            &mut scratch.quant_sel,
        );
        let t_bound = scratch
            .quant_sel
            .last()
            .map_or(f64::NEG_INFINITY, |&(_, s)| s);
        // Over-fetch floor: the (overfetch · k)-th best approximate score.
        let want = overfetch.max(1).saturating_mul(k);
        let t_fetch = if want >= scratch.coarse_ids.len() {
            f64::NEG_INFINITY
        } else {
            top_k_with_scores_into(
                &scratch.coarse_approx,
                want,
                &mut scratch.topk,
                &mut scratch.quant_sel,
            );
            scratch
                .quant_sel
                .last()
                .map_or(f64::NEG_INFINITY, |&(_, s)| s)
        };

        // Exact re-rank of the shortlist with the same fixed-order kernel
        // and heap as the unquantized path.
        scratch.candidate_ids.clear();
        scratch.candidate_scores.clear();
        for i in 0..scratch.coarse_ids.len() {
            if scratch.coarse_ub[i] >= t_bound || scratch.coarse_approx[i] >= t_fetch {
                let row_id = scratch.coarse_ids[i];
                scratch.candidate_ids.push(row_id);
                scratch
                    .candidate_scores
                    .push(ops::dot_unchecked(profile, embedding.row(row_id)));
            }
        }
        top_k_indexed_into(
            &scratch.candidate_ids,
            &scratch.candidate_scores,
            k,
            &mut scratch.topk,
            out,
        );
        Ok(QuantRerankStats {
            candidates: scratch.coarse_ids.len(),
            shortlisted: scratch.candidate_ids.len(),
        })
    }
}

/// Size of the shortlist the quantized coarse pass handed to the exact
/// re-rank, for bench reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantRerankStats {
    /// Candidate rows gathered from the probed cells (after exclusions).
    pub candidates: usize,
    /// Rows that survived the int8 coarse filter into the exact re-rank.
    pub shortlisted: usize,
}

/// Int8-quantized mirror of an [`IvfIndex`]'s posting lists: every member
/// row is stored as `dim` signed bytes under a per-row symmetric scale
/// (`value ≈ q · scale`, `scale = max|row| / 127`), packed cell-major in
/// posting-list order so the coarse scan streams contiguously.
///
/// The coarse pass scores candidates with an i32-accumulated integer dot
/// product — an 8× smaller memory walk than the f64 rows — and keeps every
/// row whose score *could* reach the top-k under a per-row error bound.
/// With `x` the query, `x̂`/`ŷ` the dequantized query/row, splitting the
/// error as `x·y − x̂·ŷ = x·(y − ŷ) + (x − x̂)·ŷ` and applying
/// Cauchy–Schwarz to each term gives
///
/// ```text
/// |x·y − x̂·ŷ| ≤ ‖x‖₂·‖y − ŷ‖₂ + ‖x − x̂‖₂·‖ŷ‖₂
/// ```
///
/// where the row-side residual `‖y − ŷ‖₂` is *measured* at build time
/// (typically ~0.6× of the worst-case ℓ1 bound) and the query-side
/// residual is measured per search, so the interval tracks the real
/// quantization error instead of its worst case. A candidate whose upper
/// bound falls below the k-th best lower bound provably cannot belong to
/// the exact top-k. The survivors (at least the requested over-fetch,
/// `overfetch · k` by approximate score) are handed to the *same* exact
/// f64 re-rank the unquantized path uses, which makes the final ranking
/// bit-identical to the dense scan whenever every cell is probed — the
/// shortlist is a superset of the true top-k by the bound above, and exact
/// re-scoring of a superset selects identically.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfQuant {
    /// Quantized rows, `dim` bytes per member, packed cell-major in
    /// posting-list order.
    qdata: Vec<i8>,
    /// Per-member dequantization scale, same packing as `qdata`.
    scales: Vec<f64>,
    /// Per-member `‖ŷ‖₂` (ℓ2 norm of the dequantized row), inflated by
    /// `1 + 1e-12` to dominate the accumulation rounding.
    row_l2: Vec<f64>,
    /// Per-member `‖y − ŷ‖₂` (measured quantization residual), inflated
    /// by `1 + 1e-12`.
    resid_l2: Vec<f64>,
    /// Start offset (in members) of each cell's packed block.
    offsets: Vec<usize>,
    /// Embedding dimension.
    dim: usize,
}

impl IvfQuant {
    /// Quantizes every posting-list member of `index` from `embedding`.
    ///
    /// # Errors
    /// `ShapeMismatch` when `embedding` does not match the index's build
    /// shape; `NonFinite` when the embedding contains a non-finite value.
    pub fn build(embedding: &Matrix, index: &IvfIndex) -> Result<Self, LinalgError> {
        if embedding.rows() != index.rows() || embedding.cols() != index.dim() {
            return Err(LinalgError::ShapeMismatch {
                op: "ivf quantize embedding",
                left: embedding.rows(),
                right: index.rows(),
            });
        }
        if !embedding.all_finite() {
            return Err(LinalgError::NonFinite { op: "ivf quantize" });
        }
        let dim = index.dim();
        let members: usize = (0..index.cells()).map(|c| index.list(c).len()).sum();
        let mut q = IvfQuant {
            qdata: Vec::with_capacity(members * dim),
            scales: Vec::with_capacity(members),
            row_l2: Vec::with_capacity(members),
            resid_l2: Vec::with_capacity(members),
            offsets: Vec::with_capacity(index.cells() + 1),
            dim,
        };
        for c in 0..index.cells() {
            q.offsets.push(q.scales.len());
            for &row_id in index.list(c) {
                let row = embedding.row(row_id as usize);
                let max_abs = row.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
                let scale = max_abs / 127.0;
                let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
                let mut deq_sq = 0.0_f64;
                let mut resid_sq = 0.0_f64;
                for &x in row {
                    let v = (x * inv).round().clamp(-127.0, 127.0) as i8;
                    q.qdata.push(v);
                    let deq = f64::from(v) * scale;
                    deq_sq += deq * deq;
                    let e = x - deq;
                    resid_sq += e * e;
                }
                q.scales.push(scale);
                q.row_l2.push(deq_sq.sqrt() * (1.0 + 1e-12));
                q.resid_l2.push(resid_sq.sqrt() * (1.0 + 1e-12));
            }
        }
        q.offsets.push(q.scales.len());
        Ok(q)
    }

    /// Embedding dimension the quantized rows were built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes of quantized row payload (for bench reporting: the coarse
    /// scan walks this instead of `members · dim · 8` bytes of f64).
    pub fn payload_bytes(&self) -> usize {
        self.qdata.len()
    }
}

/// Quantizes a query profile to i8 under its own symmetric scale.
/// Returns the scale (0.0 for an all-zero profile, making every
/// approximate score and bound collapse to 0 — matching the exact scores).
fn quantize_query(profile: &[f64], out: &mut Vec<i8>) -> f64 {
    let max_abs = profile.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
    let scale = max_abs / 127.0;
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    out.clear();
    out.extend(
        profile
            .iter()
            .map(|&x| (x * inv).round().clamp(-127.0, 127.0) as i8),
    );
    scale
}

/// i32-accumulated integer dot product of two `dim`-length i8 rows. With
/// |q| ≤ 127 the per-element product is ≤ 16129 (fits i16, which lets the
/// compiler use widening-multiply vector forms), so dimensions into the
/// hundreds of thousands stay far from i32 overflow. Eight independent
/// lanes keep the loop free of a serial accumulator chain; integer
/// addition is associative, so the lane split cannot change the result.
#[inline]
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0i32; 8];
    let ac = a.chunks_exact(8);
    let bc = b.chunks_exact(8);
    let (ar, br) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        for (lane, (&x, &y)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
            *lane += i32::from(i16::from(x) * i16::from(y));
        }
    }
    let mut s: i32 = lanes.iter().sum();
    for (&x, &y) in ar.iter().zip(br) {
        s += i32::from(x) * i32::from(y);
    }
    s
}

/// Writes each row's nearest-centroid cell (maximal [`ops::dot_unchecked`]
/// score, ties to the lower cell id) into `out`, split across `threads`
/// contiguous chunks, and returns how many `(row, cell)` pairs the exact
/// kernel scored — the work the filter exists to avoid, read by the tests.
///
/// Every row's answer is the one a full scan of the cells with the
/// fixed-order f64 kernel picks (module docs, "The assignment pass"), so
/// it is a pure function of `(row, centroids)`: the partition cannot
/// change any assignment and `threads` affects latency only.
///
/// Rows must be finite ([`IvfIndex::build`] checks the embedding).
fn assign_rows(
    embedding: &Matrix,
    centroids: &Matrix,
    ids: &[usize],
    out: &mut [u32],
    threads: usize,
) -> u64 {
    debug_assert_eq!(ids.len(), out.len());
    let panels = CentroidPanels::new(centroids);
    let panels = panels.as_ref();
    let chunk = ids.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<_> = ids.chunks(chunk).zip(out.chunks_mut(chunk)).collect();
    par::fan_out(parts, |(ids, out)| {
        assign_chunk(embedding, centroids, panels, ids, out)
    })
    .into_iter()
    .sum()
}

// The window the filter's bound is proved in (module docs). Magnitudes are
// biased f64 exponents of a largest `|coordinate|`; exponent 0 — zero and
// subnormal — is outside both ranges.
/// Largest dimension: `dim · 2⁻²⁴ ≤ 2⁻⁸`.
const FILTER_MAX_DIM: usize = 1 << 16;
/// Centroids: `2⁻⁶⁰ ≤ max|c_ij| < 2⁶¹`.
const FILTER_CENTROID_EXPONENTS: std::ops::RangeInclusive<u64> = 1023 - 60..=1023 + 60;
/// A row: `2⁻⁹⁰⁰ ≤ max|row_i| < 2⁹⁰¹`.
const FILTER_ROW_EXPONENTS: std::ops::RangeInclusive<u64> = 1023 - 900..=1023 + 900;

/// Biased f64 exponent of the largest `|value|` in a finite slice.
fn max_exponent(v: &[f64]) -> u64 {
    ops::linf_norm(v).to_bits() >> 52
}

/// f32 mirror of the centroids in the layout [`dot_tile_f32`] reads, built
/// once per assignment pass and shared by its threads.
struct CentroidPanels {
    /// One `dim × TILE_COLS` panel per `TILE_COLS` cells, coordinates
    /// interleaved `[d][j]`. Lanes past the last cell repeat the last
    /// cell: a padded lane's score is a real cell's score, so it can
    /// never raise a row's running maximum, and it is never a candidate.
    data: Vec<f32>,
    /// `κ(dim) · max‖centroid‖₂`: a row's slack per unit of its norm.
    slack_per_norm: f64,
}

impl CentroidPanels {
    /// `None` when the centroids are outside the window the bound is
    /// proved for; the pass then scans exactly.
    fn new(centroids: &Matrix) -> Option<Self> {
        let (cells, dim) = (centroids.rows(), centroids.cols());
        if dim > FILTER_MAX_DIM
            || !centroids.all_finite()
            || !FILTER_CENTROID_EXPONENTS.contains(&max_exponent(centroids.as_slice()))
        {
            return None;
        }
        let padded = cells.next_multiple_of(TILE_COLS);
        let mut data = vec![0.0_f32; padded * dim];
        let mut max_norm_sq = 0.0_f64;
        for lane in 0..padded {
            let centroid = centroids.row(lane.min(cells - 1));
            max_norm_sq = max_norm_sq.max(ops::l2_norm_sq(centroid));
            let at = (lane / TILE_COLS) * dim * TILE_COLS + lane % TILE_COLS;
            for (d, &x) in centroid.iter().enumerate() {
                data[at + d * TILE_COLS] = x as f32;
            }
        }
        // κ(dim) = (2·dim + 8)·2⁻²⁴ of the module docs; f32::EPSILON is 2⁻²³.
        let kappa = (dim + 4) as f64 * f64::from(f32::EPSILON);
        Some(CentroidPanels {
            data,
            slack_per_norm: kappa * max_norm_sq.sqrt(),
        })
    }
}

/// Scales `row` by the power of two that puts its largest `|coordinate|`
/// in `[1, 2)`, writes it as f32 into lane `r` of the interleaved `tile`
/// and returns the ℓ2 norm of the scaled row — or `None`, writing nothing,
/// when the row is outside [`FILTER_ROW_EXPONENTS`].
fn load_scaled(row: &[f64], tile: &mut [f32], r: usize) -> Option<f64> {
    let exponent = max_exponent(row);
    if !FILTER_ROW_EXPONENTS.contains(&exponent) {
        return None;
    }
    let scale = f64::from_bits((2046 - exponent) << 52);
    let mut norm_sq = 0.0_f64;
    for (slot, &x) in tile[r..].iter_mut().step_by(TILE_ROWS).zip(row) {
        let scaled = x * scale;
        norm_sq += scaled * scaled;
        *slot = scaled as f32;
    }
    Some(norm_sq.sqrt())
}

/// One thread's share of [`assign_rows`]: filter a tile of rows against
/// every centroid panel, then verify each row's surviving cells exactly.
fn assign_chunk(
    embedding: &Matrix,
    centroids: &Matrix,
    panels: Option<&CentroidPanels>,
    ids: &[usize],
    out: &mut [u32],
) -> u64 {
    let (cells, dim) = (centroids.rows(), centroids.cols());
    let Some(panels) = panels else {
        for (slot, &row_id) in out.iter_mut().zip(ids) {
            *slot = nearest_cell(embedding.row(row_id), centroids, 0..cells);
        }
        return (ids.len() * cells) as u64;
    };
    let mut verified = 0u64;
    let padded = cells.next_multiple_of(TILE_COLS);
    let mut tile = vec![0.0_f32; dim * TILE_ROWS];
    let mut approx = vec![0.0_f32; TILE_ROWS * padded];
    let mut norms = [None; TILE_ROWS];
    for (tile_ids, tile_out) in ids.chunks(TILE_ROWS).zip(out.chunks_mut(TILE_ROWS)) {
        for (r, &row_id) in tile_ids.iter().enumerate() {
            norms[r] = load_scaled(embedding.row(row_id), &mut tile, r);
        }
        let mut tops = [[f32::NEG_INFINITY; TILE_COLS]; TILE_ROWS];
        for (b, panel) in panels.data.chunks_exact(dim * TILE_COLS).enumerate() {
            let scores = dot_tile_f32(&tile, panel);
            for (r, lane) in scores.iter().enumerate() {
                approx[r * padded + b * TILE_COLS..][..TILE_COLS].copy_from_slice(lane);
                for (t, &a) in tops[r].iter_mut().zip(lane) {
                    *t = t.max(a);
                }
            }
        }
        for (r, (&row_id, slot)) in tile_ids.iter().zip(tile_out).enumerate() {
            let row = embedding.row(row_id);
            let Some(norm) = norms[r] else {
                verified += cells as u64;
                *slot = nearest_cell(row, centroids, 0..cells);
                continue;
            };
            let approx = &approx[r * padded..][..cells];
            let top = tops[r].iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let floor = f64::from(top) - 2.0 * (panels.slack_per_norm * norm);
            let survivors = approx
                .iter()
                .enumerate()
                .filter(|&(_, &a)| f64::from(a) >= floor)
                .map(|(c, _)| c)
                .inspect(|_| verified += 1);
            *slot = nearest_cell(row, centroids, survivors);
        }
    }
    verified
}

/// The decider of the assignment pass: the cell among `candidates`
/// (ascending) with the maximal fixed-order f64 score, strict `>` so ties
/// keep the lower cell id. Over `0..cells` this is the exact scan.
fn nearest_cell(row: &[f64], centroids: &Matrix, candidates: impl Iterator<Item = usize>) -> u32 {
    let mut best = 0u32;
    let mut best_score = f64::NEG_INFINITY;
    for c in candidates {
        let score = ops::dot_unchecked(row, centroids.row(c));
        if score > best_score {
            best_score = score;
            best = c as u32;
        }
    }
    best
}

/// The test oracle: [`assign_rows`] as the exact scan of every cell.
#[cfg(test)]
fn assign_rows_exact(
    embedding: &Matrix,
    centroids: &Matrix,
    ids: &[usize],
    out: &mut [u32],
    _threads: usize,
) -> u64 {
    assign_chunk(embedding, centroids, None, ids, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Random unit-normalised embedding, the shape every caller feeds in.
    fn random_embedding(rows: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::from_fn(rows, dim, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        m.normalize_rows();
        m
    }

    /// Two tight clusters along +x and +y so cell structure is predictable.
    fn clustered_embedding(per_cluster: usize) -> Matrix {
        let mut m = Matrix::zeros(2 * per_cluster, 2);
        for i in 0..per_cluster {
            m.set(i, 0, 1.0);
            m.set(i, 1, 0.01 * i as f64);
            m.set(per_cluster + i, 1, 1.0);
            m.set(per_cluster + i, 0, 0.01 * i as f64);
        }
        m.normalize_rows();
        m
    }

    fn exhaustive(
        embedding: &Matrix,
        profile: &[f64],
        k: usize,
        exclude: &[usize],
    ) -> Vec<(usize, f64)> {
        let mut scores = embedding.matvec(profile).unwrap();
        for &e in exclude {
            if e < scores.len() {
                scores[e] = f64::NAN;
            }
        }
        crate::topk::top_k_with_scores(&scores, k)
    }

    #[test]
    fn build_validates_params() {
        let emb = random_embedding(10, 3, 1);
        let bad = |p: IvfBuildParams| IvfIndex::build(&emb, &p).is_err();
        assert!(bad(IvfBuildParams {
            cells: 0,
            ..Default::default()
        }));
        assert!(bad(IvfBuildParams {
            cells: 11,
            ..Default::default()
        }));
        assert!(bad(IvfBuildParams {
            cells: 4,
            iters: 0,
            ..Default::default()
        }));
        assert!(bad(IvfBuildParams {
            cells: 4,
            threads: 0,
            ..Default::default()
        }));
        let mut poisoned = emb.clone();
        poisoned.set(3, 1, f64::NAN);
        assert!(matches!(
            IvfIndex::build(
                &poisoned,
                &IvfBuildParams {
                    cells: 4,
                    ..Default::default()
                }
            ),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn build_refuses_more_rows_than_u32_row_ids_before_allocating() {
        // Zero columns: the matrix itself holds nothing, so the only way
        // this test can run out of memory is a `rows`-sized allocation in
        // `build` ahead of the check.
        let huge = Matrix::zeros(u32::MAX as usize + 2, 0);
        assert!(matches!(
            IvfIndex::build(&huge, &IvfBuildParams::default()),
            Err(LinalgError::InvalidArgument {
                what: "ivf rows must fit in u32"
            })
        ));
    }

    /// Runs the filter-and-verify pass and the exact scan over every row
    /// at several thread counts, demands equal assignments, and returns
    /// the exactly-scored cells per row.
    fn assert_assignment_is_the_exact_scan(embedding: &Matrix, centroids: &Matrix) -> f64 {
        let ids: Vec<usize> = (0..embedding.rows()).collect();
        let mut want = vec![0u32; ids.len()];
        assign_rows_exact(embedding, centroids, &ids, &mut want, 1);
        let mut verified = 0;
        for threads in [1, 2, 3, 7] {
            let mut got = vec![u32::MAX; ids.len()];
            verified = assign_rows(embedding, centroids, &ids, &mut got, threads);
            assert_eq!(got, want, "threads={threads}");
        }
        verified as f64 / ids.len() as f64
    }

    #[test]
    fn exact_ties_between_duplicate_centroids_keep_the_lower_cell() {
        // Cells 1, 4 and 9 are the same vector, and so are many rows: the
        // filter scores them identically, so only the verify order can
        // break the tie. Eleven cells and 37 rows also leave a ragged last
        // panel and a ragged last tile.
        let mut centroids = random_embedding(11, 5, 21);
        let dup = centroids.row(1).to_vec();
        centroids.row_mut(4).copy_from_slice(&dup);
        centroids.row_mut(9).copy_from_slice(&dup);
        let mut emb = random_embedding(37, 5, 22);
        for r in (0..37).step_by(3) {
            emb.row_mut(r).copy_from_slice(&dup);
        }
        assert_assignment_is_the_exact_scan(&emb, &centroids);
        let mut out = vec![0u32; 37];
        assign_rows(&emb, &centroids, &(0..37).collect::<Vec<_>>(), &mut out, 1);
        assert!(out.iter().step_by(3).all(|&c| c == 1), "{out:?}");
    }

    #[test]
    fn centroids_one_ulp_apart_are_decided_by_the_exact_kernel() {
        // f32 cannot tell these cells apart; whichever the f64 kernel
        // prefers (or ties to the lower id) must come out.
        let base = random_embedding(1, 16, 23);
        let mut centroids = Matrix::zeros(9, 16);
        for c in 0..9 {
            centroids.row_mut(c).copy_from_slice(base.row(0));
            let x = centroids.get(c, c);
            // Nudge one coordinate by −4..=4 ulps, in no particular order.
            let ulps = (c as i64 * 5) % 9 - 4;
            centroids.set(c, c, f64::from_bits((x.to_bits() as i64 + ulps) as u64));
        }
        let emb = random_embedding(50, 16, 24);
        let per_row = assert_assignment_is_the_exact_scan(&emb, &centroids);
        assert_eq!(per_row, 9.0, "every near-tie goes to the exact kernel");
    }

    #[test]
    fn near_ties_around_f32_resolution_are_decided_by_the_exact_kernel() {
        // Four directions, six cells each, the six differing by relative
        // 1e-9 … 1e-7 per coordinate: clear in f64, at or under what f32
        // resolves, so the filter's own ranking within a group is noise
        // and a slack that is too tight picks a wrong cell.
        let bases = random_embedding(4, 24, 29);
        let mut rng = StdRng::seed_from_u64(30);
        let centroids = Matrix::from_fn(24, 24, |c, d| {
            let wobble = 10f64.powi(-9 + (c % 6 / 2) as i32) * (rng.random::<f64>() - 0.5);
            bases.get(c / 6, d) * (1.0 + wobble)
        });
        let emb = random_embedding(400, 24, 31);
        let per_row = assert_assignment_is_the_exact_scan(&emb, &centroids);
        assert!(per_row >= 2.0, "{per_row}: the near-ties must reach verify");
    }

    #[test]
    fn rows_of_any_magnitude_are_assigned_like_the_exact_scan() {
        let centroids = random_embedding(19, 12, 25);
        let mut emb = random_embedding(242, 12, 26);
        for r in 0..emb.rows() {
            // 2^k for k = −600, −595, …, 600: through the window, past
            // both of its ends, and across f32's whole exponent range.
            ops::scale(2f64.powi(r as i32 * 5 - 600), emb.row_mut(r));
        }
        // Zero rows of both signs, a subnormal row, the largest finite row.
        emb.row_mut(0).fill(0.0);
        emb.row_mut(1).fill(-0.0);
        emb.row_mut(2).fill(f64::MIN_POSITIVE / 8.0);
        emb.row_mut(3).fill(f64::MAX);
        assert_assignment_is_the_exact_scan(&emb, &centroids);

        // The same rows through a whole build: centroids now overflow or
        // vanish, so passes fall outside the centroid window too.
        for cells in [1, 19] {
            let params = IvfBuildParams {
                cells,
                iters: 3,
                threads: 2,
                ..Default::default()
            };
            assert_eq!(
                IvfIndex::build(&emb, &params).unwrap(),
                IvfIndex::build_with(&emb, &params, assign_rows_exact).unwrap()
            );
        }
    }

    #[test]
    fn mixed_magnitude_rows_whose_small_elements_underflow_f32_stay_exact() {
        // Each coordinate is O(1) times one of these scales: after the
        // per-row scaling the small ones are f32-subnormal or flush to
        // zero, so the filter sees a different vector than the decider.
        let scales = [1.0, 1e-20, 1e-42, 1e-46, 1e-60, 1e-300];
        let mut rng = StdRng::seed_from_u64(27);
        let mut mixed = |rows: usize, dim: usize| {
            Matrix::from_fn(rows, dim, |_, _| {
                (rng.random::<f64>() * 2.0 - 1.0) * scales[rng.random_range(0..scales.len())]
            })
        };
        let emb = mixed(200, 7);
        assert_assignment_is_the_exact_scan(&emb, &mixed(13, 7));
        // Centroids that only the flushed coordinates tell apart.
        let mut centroids = Matrix::zeros(3, 7);
        centroids.set(0, 0, 1.0);
        centroids.set(1, 0, 1.0);
        centroids.set(1, 6, 1.0);
        centroids.set(2, 0, 1.0);
        centroids.set(2, 6, -1.0);
        let mut tails = Matrix::zeros(4, 7);
        for (r, tail) in [1e-60, -1e-60, 1e-10, 0.0].into_iter().enumerate() {
            tails.set(r, 0, 1.0);
            tails.set(r, 6, tail);
        }
        assert_assignment_is_the_exact_scan(&tails, &centroids);
    }

    #[test]
    fn zero_dimensional_rows_all_land_in_cell_zero() {
        let emb = Matrix::zeros(9, 0);
        let params = IvfBuildParams {
            cells: 3,
            threads: 2,
            ..Default::default()
        };
        let idx = IvfIndex::build(&emb, &params).unwrap();
        assert_eq!(
            idx,
            IvfIndex::build_with(&emb, &params, assign_rows_exact).unwrap()
        );
        assert_eq!(idx.list(0).len(), 9);
    }

    #[test]
    fn the_filter_leaves_about_one_cell_per_row_to_verify() {
        // The guard that the filter stays a filter: on a clustered
        // embedding nearly every row has one clear winner, so a mean over
        // 1.05 exactly-scored cells per row means the slack was loosened
        // or rows are falling back to the full scan (which counts `cells`
        // per row).
        let mut rng = StdRng::seed_from_u64(28);
        let centres = Matrix::from_fn(100, 32, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let mut emb = Matrix::from_fn(20_000, 32, |r, c| {
            centres.get(r % 100, c) + 0.25 * (rng.random::<f64>() * 2.0 - 1.0)
        });
        emb.normalize_rows();
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 128,
                iters: 2,
                sample: 4_000,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let ids: Vec<usize> = (0..emb.rows()).collect();
        let mut cell_of = vec![0u32; ids.len()];
        let verified = assign_rows(&emb, &idx.centroids, &ids, &mut cell_of, 2);
        for (row_id, &c) in cell_of.iter().enumerate() {
            assert!(idx.list(c as usize).binary_search(&(row_id as u32)).is_ok());
        }
        let per_row = verified as f64 / ids.len() as f64;
        assert!((1.0..=1.05).contains(&per_row), "{per_row} cells per row");
    }

    #[test]
    fn every_row_lands_in_exactly_one_cell() {
        let emb = random_embedding(57, 4, 2);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 7,
                ..Default::default()
            },
        )
        .unwrap();
        let mut seen = vec![0u32; 57];
        for c in 0..idx.cells() {
            let list = idx.list(c);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "lists ascending");
            for &r in list {
                seen[r as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "partition of the rows");
        assert_eq!(idx.rows(), 57);
        assert_eq!(idx.dim(), 4);
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let emb = random_embedding(83, 5, 3);
        let reference = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 9,
                iters: 5,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        for threads in [2, 3, 4, 8] {
            let idx = IvfIndex::build(
                &emb,
                &IvfBuildParams {
                    cells: 9,
                    iters: 5,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(
                idx, reference,
                "threads={threads} must not change the index"
            );
        }
    }

    #[test]
    fn sampled_training_still_partitions_all_rows() {
        let emb = random_embedding(120, 4, 4);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 8,
                sample: 30,
                ..Default::default()
            },
        )
        .unwrap();
        let total: usize = (0..idx.cells()).map(|c| idx.list(c).len()).sum();
        assert_eq!(total, 120, "final assignment covers every row");
    }

    #[test]
    fn full_probe_matches_exhaustive_scan_bitwise() {
        let emb = random_embedding(71, 6, 5);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let profile: Vec<f64> = (0..6).map(|_| rng.random::<f64>() - 0.5).collect();
            let k = rng.random_range(0usize..12);
            let exclude: Vec<usize> = (0..rng.random_range(0usize..5))
                .map(|_| rng.random_range(0..80))
                .collect();
            idx.probe_cells(&profile, idx.cells(), &mut scratch)
                .unwrap();
            idx.rerank_probed(&emb, &profile, k, &exclude, &mut scratch, &mut out);
            let expected = exhaustive(&emb, &profile, k, &exclude);
            assert_eq!(out.len(), expected.len());
            for (got, want) in out.iter().zip(&expected) {
                assert_eq!(got.0, want.0);
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "scores bit-identical");
            }
        }
    }

    #[test]
    fn probing_a_cluster_finds_its_members() {
        let emb = clustered_embedding(20);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        // A query along +x with one probe must return only x-cluster rows.
        idx.probe_cells(&[1.0, 0.0], 1, &mut scratch).unwrap();
        idx.rerank_probed(&emb, &[1.0, 0.0], 5, &[], &mut scratch, &mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&(r, _)| r < 20), "{out:?}");
        // Exclusion inside the shortlist is honoured.
        let banned: Vec<usize> = out.iter().map(|&(r, _)| r).collect();
        idx.rerank_probed(&emb, &[1.0, 0.0], 5, &banned, &mut scratch, &mut out);
        assert!(out.iter().all(|&(r, _)| !banned.contains(&r)));
    }

    #[test]
    fn duplicate_scores_straddling_the_cell_cutoff_keep_index_ties() {
        // Rows 0 and 21 are exact duplicates placed in different clusters'
        // index ranges; with both cells probed the tie must break to the
        // lower row id, exactly as the dense scan does.
        let mut emb = clustered_embedding(20);
        let dup: Vec<f64> = emb.row(0).to_vec();
        emb.row_mut(21).copy_from_slice(&dup);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        idx.probe_cells(&dup, idx.cells(), &mut scratch).unwrap();
        idx.rerank_probed(&emb, &dup, 2, &[], &mut scratch, &mut out);
        let expected = exhaustive(&emb, &dup, 2, &[]);
        assert_eq!(out, expected);
        assert_eq!(out[0].0, 0, "tie breaks to the lower row id");
        assert_eq!(out[1].0, 21);
    }

    #[test]
    fn search_validates_shapes_and_nprobe() {
        let emb = random_embedding(12, 3, 7);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        assert!(idx.probe_cells(&[0.0; 4], 1, &mut scratch).is_err());
        assert!(idx.probe_cells(&[0.0; 3], 0, &mut scratch).is_err());
        // nprobe beyond cells clamps instead of failing.
        idx.probe_cells(&[0.0; 3], 99, &mut scratch).unwrap();
        // The checked re-rank refuses an embedding of another shape.
        let quant = IvfQuant::build(&emb, &idx).unwrap();
        let wrong_rows = random_embedding(13, 3, 8);
        assert!(idx
            .rerank_probed_quantized(
                &quant,
                &wrong_rows,
                &[0.0; 3],
                2,
                4,
                &[],
                &mut scratch,
                &mut out
            )
            .is_err());
    }

    #[test]
    fn quantized_round_trip_error_is_within_half_scale_per_row() {
        let emb = random_embedding(40, 8, 9);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let quant = IvfQuant::build(&emb, &idx).unwrap();
        assert_eq!(quant.dim(), 8);
        assert!(quant.payload_bytes() >= 40 * 8);
        let mut at = 0usize;
        for c in 0..idx.cells() {
            for &row_id in idx.list(c) {
                let row = emb.row(row_id as usize);
                let scale = quant.scales[at];
                let max_abs = row.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                assert_eq!(scale.to_bits(), (max_abs / 127.0).to_bits());
                let q = &quant.qdata[at * 8..(at + 1) * 8];
                let mut deq_sq = 0.0f64;
                let mut resid_sq = 0.0f64;
                for (x, &qv) in row.iter().zip(q) {
                    // Symmetric rounding: each coordinate lands within
                    // half a quantisation step of its f64 value.
                    let deq = f64::from(qv) * scale;
                    assert!((x - deq).abs() <= 0.5 * scale + 1e-12);
                    deq_sq += deq * deq;
                    let e = x - deq;
                    resid_sq += e * e;
                }
                // Stored norms replay the build's accumulation order, so
                // they are pinned bit-for-bit, inflation included.
                assert_eq!(
                    quant.row_l2[at].to_bits(),
                    (deq_sq.sqrt() * (1.0 + 1e-12)).to_bits()
                );
                assert_eq!(
                    quant.resid_l2[at].to_bits(),
                    (resid_sq.sqrt() * (1.0 + 1e-12)).to_bits()
                );
                at += 1;
            }
        }
        assert_eq!(at, 40, "every row is packed exactly once");
    }

    #[test]
    fn quant_build_validates_embedding_shape() {
        let emb = random_embedding(20, 4, 10);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(IvfQuant::build(&random_embedding(21, 4, 11), &idx).is_err());
        assert!(IvfQuant::build(&random_embedding(20, 5, 11), &idx).is_err());
        let mut poisoned = emb.clone();
        poisoned.set(2, 1, f64::INFINITY);
        assert!(IvfQuant::build(&poisoned, &idx).is_err());
        let other = IvfIndex::build(
            &random_embedding(20, 4, 12),
            &IvfBuildParams {
                cells: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let quant = IvfQuant::build(&emb, &idx).unwrap();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        other.probe_cells(&[0.0; 4], 1, &mut scratch).unwrap();
        assert!(other
            .rerank_probed_quantized(&quant, &emb, &[0.0; 4], 2, 4, &[], &mut scratch, &mut out)
            .is_err());
    }

    #[test]
    fn quantized_search_matches_exact_rerank_at_any_probe_width() {
        // The error-bound shortlist provably contains the exact top-k of
        // the probed candidate set, so the quantized search must be
        // bit-identical to the unquantized one at *every* nprobe, not
        // just at full probe.
        let emb = random_embedding(71, 6, 5);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 6,
                ..Default::default()
            },
        )
        .unwrap();
        let quant = IvfQuant::build(&emb, &idx).unwrap();
        let mut scratch = IvfScratch::new();
        let (mut exact, mut quantized) = (Vec::new(), Vec::new());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let profile: Vec<f64> = (0..6).map(|_| rng.random::<f64>() - 0.5).collect();
            let k = rng.random_range(0usize..12);
            let nprobe = rng.random_range(1usize..=6);
            let overfetch = rng.random_range(1usize..5);
            let exclude: Vec<usize> = (0..rng.random_range(0usize..5))
                .map(|_| rng.random_range(0..80))
                .collect();
            // One probe feeds both re-ranks: they see the same cells.
            idx.probe_cells(&profile, nprobe, &mut scratch).unwrap();
            idx.rerank_probed(&emb, &profile, k, &exclude, &mut scratch, &mut exact);
            let stats = idx
                .rerank_probed_quantized(
                    &quant,
                    &emb,
                    &profile,
                    k,
                    overfetch,
                    &exclude,
                    &mut scratch,
                    &mut quantized,
                )
                .unwrap();
            assert_eq!(quantized.len(), exact.len());
            for (got, want) in quantized.iter().zip(&exact) {
                assert_eq!(got.0, want.0);
                assert_eq!(got.1.to_bits(), want.1.to_bits(), "scores bit-identical");
            }
            assert!(stats.shortlisted <= stats.candidates);
            if k > 0 {
                assert!(stats.shortlisted >= exact.len());
            }
        }
    }

    #[test]
    fn quantized_recall_at_10_on_city_profiles_is_high() {
        // City-like geometry: two dense districts of near-duplicate
        // locations. Quantized shortlist + exact re-rank must keep
        // recall@10 vs the dense scan at >= 0.99 even with narrow probes.
        let emb = clustered_embedding(60);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let quant = IvfQuant::build(&emb, &idx).unwrap();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(17);
        let (mut hits, mut total) = (0usize, 0usize);
        for _ in 0..50 {
            let angle = rng.random::<f64>() * std::f64::consts::FRAC_PI_2;
            let profile = [angle.cos(), angle.sin()];
            idx.probe_cells(&profile, idx.cells(), &mut scratch)
                .unwrap();
            idx.rerank_probed_quantized(&quant, &emb, &profile, 10, 3, &[], &mut scratch, &mut out)
                .unwrap();
            let expected = exhaustive(&emb, &profile, 10, &[]);
            let want: Vec<usize> = expected.iter().map(|&(r, _)| r).collect();
            hits += out.iter().filter(|&&(r, _)| want.contains(&r)).count();
            total += want.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.99, "recall@10 {recall} below floor");
    }

    #[test]
    fn quantized_shortlist_is_a_strict_subset_on_easy_queries() {
        // The speedup claim rests on the coarse pass actually pruning:
        // on well-separated clusters with a decisive query, the exact
        // re-rank must touch far fewer rows than the probed candidates.
        let emb = clustered_embedding(200);
        let idx = IvfIndex::build(
            &emb,
            &IvfBuildParams {
                cells: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let quant = IvfQuant::build(&emb, &idx).unwrap();
        let mut scratch = IvfScratch::new();
        let mut out = Vec::new();
        idx.probe_cells(&[1.0, 0.0], idx.cells(), &mut scratch)
            .unwrap();
        let stats = idx
            .rerank_probed_quantized(
                &quant,
                &emb,
                &[1.0, 0.0],
                10,
                2,
                &[],
                &mut scratch,
                &mut out,
            )
            .unwrap();
        assert_eq!(stats.candidates, 400);
        assert!(
            stats.shortlisted < stats.candidates / 2,
            "coarse pass pruned only {} of {} candidates",
            stats.candidates - stats.shortlisted,
            stats.candidates
        );
        assert_eq!(out, exhaustive(&emb, &[1.0, 0.0], 10, &[]));
    }
}

#[cfg(test)]
mod determinism_props {
    //! Property tests pinning the module's two contracts: thread-count
    //! invariance of the build and exhaustive equivalence at full probe.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn embedding_from(values: &[f64], rows: usize, dim: usize) -> Matrix {
        let mut m = Matrix::from_fn(rows, dim, |r, c| values[(r * dim + c) % values.len()]);
        m.normalize_rows();
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn build_is_thread_invariant(
            values in vec(-1.0f64..1.0, 8..64),
            rows in 4usize..40,
            dim in 1usize..6,
            cells in 1usize..5,
            seed in 0u64..1000,
            threads in 2usize..8,
        ) {
            let cells = cells.min(rows);
            let emb = embedding_from(&values, rows, dim);
            let base = IvfBuildParams { cells, iters: 3, sample: 0, seed, threads: 1 };
            let sequential = IvfIndex::build(&emb, &base).unwrap();
            let threaded = IvfIndex::build(&emb, &IvfBuildParams { threads, ..base }).unwrap();
            prop_assert_eq!(&threaded, &sequential);
            // And rebuilding with the same seed reproduces the index.
            let again = IvfIndex::build(&emb, &base).unwrap();
            prop_assert_eq!(&again, &sequential);
        }

        #[test]
        fn build_equals_the_exact_scan_build(
            values in vec(-1.0f64..1.0, 8..64),
            rows in 1usize..300,
            dim in 1usize..40,
            cells in 1usize..300,
            sampled in 0usize..2,
            seed in 0u64..1000,
            threads in 0usize..4,
        ) {
            // `values` cycles, so shapes whose row length divides its
            // length are full of duplicate rows — exact ties included.
            let cells = cells.min(rows);
            let emb = embedding_from(&values, rows, dim);
            let params = IvfBuildParams {
                cells,
                iters: 3,
                sample: sampled * rows.div_ceil(3),
                seed,
                threads: [1, 2, 3, 7][threads],
            };
            let filtered = IvfIndex::build(&emb, &params).unwrap();
            let exact = IvfIndex::build_with(&emb, &params, assign_rows_exact).unwrap();
            prop_assert_eq!(&filtered, &exact);
        }

        #[test]
        fn full_probe_equals_dense_topk(
            values in vec(-1.0f64..1.0, 8..64),
            rows in 4usize..40,
            dim in 1usize..6,
            cells in 1usize..5,
            k in 0usize..12,
            exclude in vec(0usize..48, 0..6),
            pseed in 0u64..1000,
        ) {
            let cells = cells.min(rows);
            let emb = embedding_from(&values, rows, dim);
            let idx = IvfIndex::build(&emb, &IvfBuildParams {
                cells, iters: 2, sample: 0, seed: 7, threads: 2,
            }).unwrap();
            let profile: Vec<f64> = (0..dim)
                .map(|i| (mix64(pseed ^ i as u64) % 2000) as f64 / 1000.0 - 1.0)
                .collect();
            let mut scratch = IvfScratch::new();
            let mut out = Vec::new();
            idx.probe_cells(&profile, cells, &mut scratch).unwrap();
            idx.rerank_probed(&emb, &profile, k, &exclude, &mut scratch, &mut out);
            let mut scores = emb.matvec(&profile).unwrap();
            for &e in &exclude {
                if e < scores.len() {
                    scores[e] = f64::NAN;
                }
            }
            let expected = crate::topk::top_k_with_scores(&scores, k);
            prop_assert_eq!(out.len(), expected.len());
            for (got, want) in out.iter().zip(&expected) {
                prop_assert_eq!(got.0, want.0);
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
            }
        }

        #[test]
        fn quantized_full_probe_equals_dense_topk(
            values in vec(-1.0f64..1.0, 8..64),
            rows in 4usize..40,
            dim in 1usize..6,
            cells in 1usize..5,
            k in 0usize..12,
            overfetch in 1usize..5,
            exclude in vec(0usize..48, 0..6),
            pseed in 0u64..1000,
        ) {
            // The int8 coarse pass must never change the answer when every
            // cell is probed: the error-bound shortlist contains the exact
            // top-k, and the re-rank reuses the dense kernel and heap.
            let cells = cells.min(rows);
            let emb = embedding_from(&values, rows, dim);
            let idx = IvfIndex::build(&emb, &IvfBuildParams {
                cells, iters: 2, sample: 0, seed: 7, threads: 2,
            }).unwrap();
            let quant = IvfQuant::build(&emb, &idx).unwrap();
            let profile: Vec<f64> = (0..dim)
                .map(|i| (mix64(pseed ^ i as u64) % 2000) as f64 / 1000.0 - 1.0)
                .collect();
            let mut scratch = IvfScratch::new();
            let mut out = Vec::new();
            idx.probe_cells(&profile, cells, &mut scratch).unwrap();
            idx.rerank_probed_quantized(
                &quant, &emb, &profile, k, overfetch, &exclude, &mut scratch, &mut out,
            ).unwrap();
            let mut scores = emb.matvec(&profile).unwrap();
            for &e in &exclude {
                if e < scores.len() {
                    scores[e] = f64::NAN;
                }
            }
            let expected = crate::topk::top_k_with_scores(&scores, k);
            prop_assert_eq!(out.len(), expected.len());
            for (got, want) in out.iter().zip(&expected) {
                prop_assert_eq!(got.0, want.0);
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
            }
        }

        #[test]
        fn search_results_are_identical_across_build_threads(
            values in vec(-1.0f64..1.0, 8..64),
            rows in 6usize..40,
            dim in 2usize..6,
            nprobe in 1usize..4,
        ) {
            let emb = embedding_from(&values, rows, dim);
            let cells = 4.min(rows);
            let params = IvfBuildParams { cells, iters: 3, sample: 0, seed: 11, threads: 1 };
            let a = IvfIndex::build(&emb, &params).unwrap();
            let b = IvfIndex::build(&emb, &IvfBuildParams { threads: 4, ..params }).unwrap();
            let profile: Vec<f64> = (0..dim).map(|i| 0.3 * (i as f64 + 1.0)).collect();
            let mut scratch = IvfScratch::new();
            let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
            a.probe_cells(&profile, nprobe, &mut scratch).unwrap();
            a.rerank_probed(&emb, &profile, 5, &[], &mut scratch, &mut out_a);
            b.probe_cells(&profile, nprobe, &mut scratch).unwrap();
            b.rerank_probed(&emb, &profile, 5, &[], &mut scratch, &mut out_b);
            prop_assert_eq!(out_a, out_b);
        }
    }
}
