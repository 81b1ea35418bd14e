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
//!   the row and the centroids (see "The assignment pass" and "Lloyd
//!   passes after the first" below for how that is had without the full
//!   scan), so the assignment pass can be
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
//!
//! # Lloyd passes after the first: the cone certificate
//!
//! From the second Lloyd pass on, a training row has a *candidate*: its
//! cell `a` from the pass before, which is usually its cell again. One
//! exact `S_a = dot_unchecked(row, c_a)` and the centroid Gram matrix then
//! name every cell that could still score `≥ S_a`. Only those cells — the
//! *cone*, `a` among them — are re-scored, with `S_a` reused for `a`, and
//! the highest score wins, the lowest cell among equal scores: the full
//! scan's rule, in whatever order the cone is walked. The final pass does
//! the same for the training rows; the rows outside the training sample
//! have no candidate and are filtered.
//!
//! **Why the cone holds the answer.** Write `x` for the row, `θ_j` for
//! `∠(x, c_j)`, `θ_aj` for `∠(c_a, c_j)`, `C⁺ ≥ max_j‖c_j‖₂`, `X⁺ ≥ ‖x‖₂`,
//! and `ε` for the decider's bound above (`|S_j − x·c_j| ≤ ε` for every
//! `j`). Take any `ρ` with `0 < ρ < (S_a − ε)/(‖x‖₂·C⁺)`. Then
//! `cos θ_a ≥ (S_a − ε)/(‖x‖₂·‖c_a‖₂) > ρ`, so `θ_a < φ = arccos ρ`, and by
//! the spherical triangle inequality `θ_j ≥ θ_aj − θ_a`. A cell with
//! `cos θ_aj ≤ 2ρ² − 1 = cos 2φ` therefore has `θ_j > φ`, so
//! `x·c_j ≤ ‖x‖₂·C⁺·ρ < S_a − ε`, and its computed score is `S_j < S_a`:
//! it can be neither the maximum nor tied with it. Every cell with
//! `S_j ≥ S_a` — the full scan's winner and every cell tied with it — is in
//! the cone, so the cone's highest score, lowest cell among equals, is the
//! full scan's answer.
//!
//! **The certificate in floating point.** With `u = 2⁻⁵³` and `n = dim`:
//!
//! * `ρ = (S_a − 2ε_k)/(X⁺·C⁺)` with `ε_k = (n + 2)·u·X⁺·C⁺`, i.e.
//!   `ρ = S_a/(X⁺·C⁺) − 2(n + 2)·u`. The decider's `ε` is at most
//!   `1.01·n·u·X⁺·C⁺` (its underflow term is negligible inside the cone's
//!   row window `2⁻⁶⁰⁰ ≤ ‖x‖₂² ≤ 2⁶⁰⁰`), so the computed `ρ` stays below
//!   `(S_a − ε)/(‖x‖₂·C⁺)` by more than `(n + 2)·u`, room for the three
//!   roundings of its evaluation (under `3.1·u`). `X⁺·C⁺` is the computed
//!   `√(ops::l2_norm_sq(x))` times `(1 + (n + 4)·u)·C⁺`, rounded once, and
//!   `(n + 4)·u` is above the norm's error of at most `(n/2 + 2)·u` plus
//!   that rounding. If `ρ ≤ 0` the row is filtered.
//! * The *cone's centroid window*: a centroid with `|‖c‖₂² − 1| ≤ 2⁻³⁰` as
//!   computed has `‖c‖₂` in `[1 − 2⁻²⁹, 1 + 2⁻²⁹]`, so `C⁺ = 1 + 2⁻²⁹`
//!   bounds every cell a cone may drop, and between two such centroids
//!   `|cos θ_aj − c_a·c_j| ≤ 1.01·2⁻²⁸`. A centroid outside it — a zero or
//!   unnormalised one — gets `+∞` for its row and column of the Gram
//!   matrix: it is in every cone, and a row whose candidate it is has a
//!   cone of every cell.
//! * `G̃_aj` is the Gram entry in f32, by `dot_tile_f32` over the panels
//!   the filter reads. The filter's bound above, applied to two centroids
//!   (unit vectors meet its window without scaling), gives
//!   `|G̃_aj − c_a·c_j| ≤ κ(dim)·C⁺² = η`.
//! * Cell `j` is kept iff `G̃_aj ≥ 2ρ² − 1 − η − μ` with `μ = 2⁻²⁶`, which
//!   covers the `1.01·2⁻²⁸` between `c_a·c_j` and the cosine and the f64
//!   rounding of the floor (under `2⁻⁵⁰`). The comparison is made in f32
//!   against the floor rounded down, which keeps a superset. A dropped
//!   cell has `cos θ_aj < 2ρ² − 1`, as the argument needs.
//!
//! **When the cone is not used.** A row is filtered when it has no
//! candidate, lies outside the cone's row window, has `ρ ≤ 0`, or its cone
//! holds more than `limit = max(cells / 8, 4)` cells: past that share,
//! re-scoring it costs about what the filter does. Each cell keeps only the
//! `limit + 1` largest entries of its Gram row, largest first, so the cone
//! is a prefix of that list and entry `limit` alone says whether it is too
//! wide — before any exact dot product beyond `S_a`. A build
//! stops handing rows their candidates once a pass certified fewer than
//! one hinted row in four — an unclustered embedding's cones span the cell
//! set — so such a build pays for the attempt in one pass. Neither rule
//! can change a cell: every row's answer is the full scan's either way.
//! Both thresholds are set by measured cost (`CONE_MAX_SHARE`,
//! `CONE_MIN_YIELD`). Each thread's contiguous chunk certifies what it
//! can and filters the rest together, a block of rows at a time, so a
//! pass is still one fan-out.

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
        Self::build_counted(embedding, params).map(|(index, _)| index)
    }

    /// [`IvfIndex::build`], also returning what each assignment pass did
    /// (the Lloyd passes in order, then the final pass), for the tests that
    /// hold the filter and the cone to their jobs.
    fn build_counted(
        embedding: &Matrix,
        params: &IvfBuildParams,
    ) -> Result<(Self, Vec<PassWork>), LinalgError> {
        validate_build(embedding, params)?;
        let train = training_rows(embedding.rows(), params);
        let mut centroids = initial_centroids(embedding, &train, params);

        // Lloyd iterations: threaded assignment (each row independent),
        // sequential centroid update in ascending row order. From the
        // second pass on, each row's cell from the pass before is its
        // candidate for the cone certificate — until a pass in which the
        // cone certified too few rows to pay for itself.
        let mut work = Vec::with_capacity(params.iters + 1);
        let mut cell_of = vec![NO_HINT; train.len()];
        let mut hints = true;
        for _ in 0..params.iters {
            if !hints {
                cell_of.fill(NO_HINT);
            }
            let pass = assign_rows(embedding, &centroids, &train, &mut cell_of, params.threads);
            hints &= pass.cone_pays();
            work.push(pass);
            update_centroids(embedding, &train, &cell_of, &mut centroids);
        }

        // Final assignment covers every row; the training rows start from
        // their last Lloyd cell, the rest from nothing.
        let all: Vec<usize> = (0..embedding.rows()).collect();
        let mut final_assign = vec![NO_HINT; all.len()];
        if hints {
            for (&row_id, &c) in train.iter().zip(&cell_of) {
                final_assign[row_id] = c;
            }
        }
        work.push(assign_rows(
            embedding,
            &centroids,
            &all,
            &mut final_assign,
            params.threads,
        ));
        Ok((Self::from_assignment(centroids, &final_assign), work))
    }

    /// The test oracle: the same Lloyd loop with every row assigned by the
    /// exact scan of every cell — no filter, no cone, no candidates.
    #[cfg(test)]
    fn build_reference(embedding: &Matrix, params: &IvfBuildParams) -> Result<Self, LinalgError> {
        validate_build(embedding, params)?;
        let train = training_rows(embedding.rows(), params);
        let mut centroids = initial_centroids(embedding, &train, params);
        let exact = |centroids: &Matrix, row_id: usize| {
            nearest_cell(embedding.row(row_id), centroids, 0..centroids.rows())
        };
        let mut cell_of = vec![0u32; train.len()];
        for _ in 0..params.iters {
            for (slot, &row_id) in cell_of.iter_mut().zip(&train) {
                *slot = exact(&centroids, row_id);
            }
            update_centroids(embedding, &train, &cell_of, &mut centroids);
        }
        let final_assign: Vec<u32> = (0..embedding.rows())
            .map(|row_id| exact(&centroids, row_id))
            .collect();
        Ok(Self::from_assignment(centroids, &final_assign))
    }

    /// The index of a final assignment: lists stay ascending because rows
    /// are appended in index order.
    fn from_assignment(centroids: Matrix, cell_of: &[u32]) -> Self {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); centroids.rows()];
        for (row_id, &c) in cell_of.iter().enumerate() {
            lists[c as usize].push(row_id as u32);
        }
        IvfIndex {
            centroids,
            lists,
            rows: cell_of.len(),
        }
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
        scratch.q_profile.resize(profile.len(), 0);
        let s_query = quantize_row(profile, &mut scratch.q_profile);
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
        // Each row's packed slot is its cell's block start plus its rank in
        // the cell's list; rows are then quantized in row order, so the
        // embedding is read front to back and only the writes scatter.
        let dim = index.dim();
        let mut offsets = Vec::with_capacity(index.cells() + 1);
        let mut slot_of = vec![0usize; index.rows()];
        let mut members = 0;
        for c in 0..index.cells() {
            offsets.push(members);
            for &row_id in index.list(c) {
                slot_of[row_id as usize] = members;
                members += 1;
            }
        }
        offsets.push(members);
        let mut q = IvfQuant {
            qdata: vec![0; members * dim],
            scales: vec![0.0; members],
            row_l2: vec![0.0; members],
            resid_l2: vec![0.0; members],
            offsets,
            dim,
        };
        for (row_id, &at) in slot_of.iter().enumerate() {
            let row = embedding.row(row_id);
            let qrow = &mut q.qdata[at * dim..][..dim];
            let scale = quantize_row(row, qrow);
            let mut deq_sq = 0.0_f64;
            let mut resid_sq = 0.0_f64;
            for (&x, &v) in row.iter().zip(qrow.iter()) {
                let deq = f64::from(v) * scale;
                deq_sq += deq * deq;
                let e = x - deq;
                resid_sq += e * e;
            }
            q.scales[at] = scale;
            q.row_l2[at] = deq_sq.sqrt() * (1.0 + 1e-12);
            q.resid_l2[at] = resid_sq.sqrt() * (1.0 + 1e-12);
        }
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

/// Quantizes `x` to i8 under its own symmetric scale `max|x| / 127` into
/// `out` (round to nearest, clamped to ±127) and returns the scale — 0.0
/// for an all-zero `x`, which makes every approximate score and bound it
/// enters collapse to 0, matching the exact scores. Query profiles and
/// packed rows go through this one quantiser.
fn quantize_row(x: &[f64], out: &mut [i8]) -> f64 {
    let scale = ops::linf_norm(x) / 127.0;
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    for (slot, &v) in out.iter_mut().zip(x) {
        *slot = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
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

/// The checks of [`IvfIndex::build`], made before anything `rows`-sized is
/// allocated.
fn validate_build(embedding: &Matrix, params: &IvfBuildParams) -> Result<(), LinalgError> {
    let rows = embedding.rows();
    // Posting lists store row ids as `u32`.
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
    Ok(())
}

/// The rows that train the centroids: evenly strided over the row space
/// (ids are not geography — upstream layouts scatter similar rows),
/// clamped so there is at least one training row per cell.
fn training_rows(rows: usize, params: &IvfBuildParams) -> Vec<usize> {
    if params.sample == 0 || params.sample >= rows {
        (0..rows).collect()
    } else {
        let want = params.sample.max(params.cells).min(rows);
        (0..want)
            .map(|i| ((i as u128 * rows as u128) / want as u128) as usize)
            .collect()
    }
}

/// `cells` distinct training rows, normalised, chosen by a counter-mixed
/// hash of the seed (deterministic, no RNG state).
fn initial_centroids(embedding: &Matrix, train: &[usize], params: &IvfBuildParams) -> Matrix {
    let mut centroids = Matrix::zeros(params.cells, embedding.cols());
    let mut taken = vec![false; train.len()];
    for c in 0..params.cells {
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
    centroids
}

/// One Lloyd update: each cell's centroid becomes the normalised sum of its
/// members, accumulated in ascending row order. Empty cells keep their
/// previous centroid rather than collapsing to zero and swallowing every
/// later tie.
fn update_centroids(embedding: &Matrix, train: &[usize], cell_of: &[u32], centroids: &mut Matrix) {
    let mut sums = Matrix::zeros(centroids.rows(), centroids.cols());
    let mut counts = vec![0u64; centroids.rows()];
    for (&row_id, &c) in train.iter().zip(cell_of) {
        let c = c as usize;
        ops::axpy_unchecked(1.0, embedding.row(row_id), sums.row_mut(c));
        counts[c] += 1;
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0 {
            centroids.row_mut(c).copy_from_slice(sums.row(c));
            ops::normalize(centroids.row_mut(c));
        }
    }
}

/// A row's entry in [`assign_rows`]'s `out` when it has no cell from an
/// earlier pass to try first.
const NO_HINT: u32 = u32::MAX;

/// What one assignment pass did, summed over its parts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PassWork {
    /// Rows assigned.
    rows: u64,
    /// Rows that came with a cell from an earlier pass.
    hinted: u64,
    /// Rows that scanned every cell — the filter, or outside its window
    /// the exact scan — rather than being certified by the cone.
    scanned: u64,
    /// `(row, cell)` pairs the exact kernel scored.
    exact: u64,
}

impl PassWork {
    /// Whether later passes should keep handing rows their cells from
    /// the pass before: yes after a pass without candidates, and after one
    /// in which the cone certified at least one hinted row in
    /// [`CONE_MIN_YIELD`]; once no, no for the rest of the build. An
    /// unclustered embedding, whose cones are as wide as the cell set,
    /// pays for the cone's attempt in one pass only.
    fn cone_pays(&self) -> bool {
        let certified = self.rows - self.scanned;
        self.hinted == 0 || certified * CONE_MIN_YIELD >= self.hinted
    }
}

impl std::ops::Add for PassWork {
    type Output = PassWork;
    fn add(self, other: PassWork) -> PassWork {
        PassWork {
            rows: self.rows + other.rows,
            hinted: self.hinted + other.hinted,
            scanned: self.scanned + other.scanned,
            exact: self.exact + other.exact,
        }
    }
}

/// Writes each row's nearest-centroid cell (maximal [`ops::dot_unchecked`]
/// score, ties to the lower cell id) into `out`, split across `threads`
/// contiguous chunks, and returns what the pass did. On entry `out[i]` is
/// row `ids[i]`'s cell from an earlier pass, or [`NO_HINT`]: a hinted row
/// tries the cone certificate first, every other row is filtered and
/// verified (module docs).
///
/// Every row's answer is the one a full scan of the cells with the
/// fixed-order f64 kernel picks, whatever its hint, so it is a pure
/// function of `(row, centroids)`: the partition cannot change any
/// assignment and `threads` affects latency only.
///
/// Rows must be finite ([`IvfIndex::build`] checks the embedding).
fn assign_rows(
    embedding: &Matrix,
    centroids: &Matrix,
    ids: &[usize],
    out: &mut [u32],
    threads: usize,
) -> PassWork {
    debug_assert_eq!(ids.len(), out.len());
    let panels = CentroidPanels::new(centroids);
    let cone = match &panels {
        Some(panels) if out.iter().any(|&hint| hint != NO_HINT) => {
            Some(Cone::new(centroids, panels))
        }
        _ => None,
    };
    let chunk = ids.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<_> = ids.chunks(chunk).zip(out.chunks_mut(chunk)).collect();
    par::fan_out(parts, |(ids, out)| {
        assign_chunk(
            embedding,
            centroids,
            panels.as_ref(),
            cone.as_ref(),
            ids,
            out,
        )
    })
    .into_iter()
    .fold(PassWork::default(), |sum, part| sum + part)
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
        Some(CentroidPanels {
            data,
            slack_per_norm: kappa(dim) * max_norm_sq.sqrt(),
        })
    }
}

/// κ(dim) = (2·dim + 8)·2⁻²⁴ of the module docs; f32::EPSILON is 2⁻²³.
fn kappa(dim: usize) -> f64 {
    (dim + 4) as f64 * f64::from(f32::EPSILON)
}

/// The cone's centroid window: a cone drops only centroids with
/// `|‖c‖₂² − 1| ≤ 2⁻³⁰`.
const CONE_UNIT_TOLERANCE: f64 = 1.0 / (1u64 << 30) as f64;
/// `C⁺`: every centroid in the window has `‖c‖₂ ≤ 1 + 2⁻²⁹`.
const CONE_C_PLUS: f64 = 1.0 + 2.0 * CONE_UNIT_TOLERANCE;
/// `μ`: the gap between `G_aj` and `cos∠(c_a, c_j)` inside the window,
/// plus the rounding of the threshold's own evaluation.
const CONE_MU: f64 = 16.0 * CONE_UNIT_TOLERANCE;
/// The cone's row window: `2⁻⁶⁰⁰ ≤ ‖row‖₂² ≤ 2⁶⁰⁰`, so no square
/// overflows and underflow is below every bound's resolution.
const CONE_NORM_SQ: std::ops::RangeInclusive<f64> =
    f64::from_bits((1023 - 600) << 52)..=f64::from_bits((1023 + 600) << 52);
/// A cone larger than `cells / CONE_MAX_SHARE` cells is not certified.
/// Re-scoring a cone costs one exact dot product per cell, 16–33 ns at
/// `dim` 32–50, against 0.9–2.6 µs for filtering the row at 64–512 cells
/// (one thread of a 2-vCPU x86-64 guest), so the break-even cone is
/// `cells/5` to `cells/3`; at `cells/8` a certified row costs at most
/// about half what the filter does.
const CONE_MAX_SHARE: usize = 8;

/// A build keeps handing rows their candidates while the cone certifies
/// at least one hinted row in `CONE_MIN_YIELD`. On Gaussian rows (64 and
/// 256 cells, same guest) a failed attempt plus the pass's share of the
/// Gram matrix cost 95–110 ns per row, and a certified row saves
/// 0.7–0.95 µs, so the cone breaks even at one row in eight to eleven;
/// one in four keeps it only where it clearly pays. Without this rule an
/// unclustered embedding pays the attempt in every pass, about a tenth
/// of its build.
const CONE_MIN_YIELD: u64 = 4;

/// The centroid Gram matrix and the constants of the cone certificate
/// (module docs, "Lloyd passes after the first"), built once per pass that
/// has candidates and shared by its threads.
struct Cone {
    /// Per cell `a`, the `width` largest `(G̃_aj, j)` of row `a` of the
    /// f32 Gram matrix, largest first, at `a · width`.
    top: Vec<(f32, u32)>,
    /// Entries kept per cell: `limit + 1`, or every cell if that is fewer.
    width: usize,
    /// The largest cone re-scored exactly.
    limit: usize,
    /// `η + μ`: what the f32 Gram entry may fall short of `cos∠(c_a, c_j)`
    /// by, plus the threshold's rounding.
    margin: f64,
    /// `2ε_k`, per unit of `X⁺·C⁺`.
    two_eps: f64,
    /// `X⁺·C⁺ = ‖row‖₂ (computed) · norm_plus`: `X⁺` bounds the real
    /// norm, `C⁺` every centroid's.
    norm_plus: f64,
}

impl Cone {
    /// The Gram matrix of `centroids`, four rows at a time against the
    /// filter's panels, each row cut to its largest entries.
    fn new(centroids: &Matrix, panels: &CentroidPanels) -> Self {
        let (cells, dim) = (centroids.rows(), centroids.cols());
        let limit = (cells / CONE_MAX_SHARE).max(4);
        let width = (limit + 1).min(cells);
        // A centroid outside the unit window is in every cone, and its own
        // cone is every cell, so a row whose candidate it is gets filtered
        // (or, at `limit` cells or fewer, exactly scanned).
        let in_window: Vec<bool> = (0..cells)
            .map(|c| (ops::l2_norm_sq(centroids.row(c)) - 1.0).abs() <= CONE_UNIT_TOLERANCE)
            .collect();
        let largest_first = |x: &(f32, u32), y: &(f32, u32)| y.0.total_cmp(&x.0);
        let stride = cells.next_multiple_of(TILE_COLS);
        let mut block = vec![0.0_f32; TILE_ROWS * stride];
        let mut tile = vec![0.0_f32; dim * TILE_ROWS];
        let mut entries = Vec::with_capacity(cells);
        let mut top = Vec::with_capacity(cells * width);
        for first in (0..cells).step_by(TILE_ROWS) {
            for r in 0..TILE_ROWS {
                let centroid = centroids.row((first + r).min(cells - 1));
                for (slot, &x) in tile[r..].iter_mut().step_by(TILE_ROWS).zip(centroid) {
                    *slot = x as f32;
                }
            }
            for (b, panel) in panels.data.chunks_exact(dim * TILE_COLS).enumerate() {
                for (r, lane) in dot_tile_f32(&tile, panel).iter().enumerate() {
                    block[r * stride + b * TILE_COLS..][..TILE_COLS].copy_from_slice(lane);
                }
            }
            for (a, gram) in (first..cells.min(first + TILE_ROWS)).zip(block.chunks(stride)) {
                entries.clear();
                entries.extend((0..cells).map(|j| {
                    let g = if in_window[a] && in_window[j] {
                        gram[j]
                    } else {
                        f32::INFINITY
                    };
                    (g, j as u32)
                }));
                if width < cells {
                    entries.select_nth_unstable_by(width - 1, largest_first);
                }
                entries[..width].sort_unstable_by(largest_first);
                top.extend_from_slice(&entries[..width]);
            }
        }
        let unit = f64::EPSILON / 2.0;
        Cone {
            top,
            width,
            limit,
            margin: kappa(dim) * CONE_C_PLUS * CONE_C_PLUS + CONE_MU,
            two_eps: 2.0 * (dim + 2) as f64 * unit,
            norm_plus: (1.0 + (dim + 4) as f64 * unit) * CONE_C_PLUS,
        }
    }

    /// The row's cell if the cone around its candidate `a` certifies it:
    /// the exact scan's answer, by re-scoring only the cells that could
    /// still beat `a`. `None` — the row is filtered — when the row is
    /// outside the cone's window, `ρ ≤ 0`, or the cone is too wide.
    fn certify(
        &self,
        row: &[f64],
        a: usize,
        centroids: &Matrix,
        work: &mut PassWork,
    ) -> Option<u32> {
        let norm_sq = ops::l2_norm_sq(row);
        if !CONE_NORM_SQ.contains(&norm_sq) {
            return None;
        }
        let s_a = ops::dot_unchecked(row, centroids.row(a));
        work.exact += 1;
        let rho = s_a / (norm_sq.sqrt() * self.norm_plus) - self.two_eps;
        if rho <= 0.0 {
            return None;
        }
        // Compared in f32 against the floor rounded down, which keeps a
        // superset of the cells `G̃_aj ≥ floor` keeps.
        let floor = 2.0 * rho * rho - 1.0 - self.margin;
        let floor = match floor as f32 {
            f if f64::from(f) > floor => f.next_down(),
            f => f,
        };
        // The cone is a prefix of the sorted entries; it is too wide when
        // the entry past `limit` reaches the floor.
        let top = &self.top[a * self.width..][..self.width];
        if top.get(self.limit).is_some_and(|&(g, _)| g >= floor) {
            return None;
        }
        let mut best = (0u32, f64::NEG_INFINITY);
        for &(_, c) in top.iter().take_while(|&&(g, _)| g >= floor) {
            let score = if c as usize == a {
                s_a
            } else {
                work.exact += 1;
                ops::dot_unchecked(row, centroids.row(c as usize))
            };
            // The highest score, the lowest cell among equals: the full
            // scan's answer, in whatever order the cone is walked.
            if score > best.1 || (score == best.1 && c < best.0) {
                best = (c, score);
            }
        }
        Some(best.0)
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

/// One thread's share of [`assign_rows`]: each hinted row tries the cone;
/// the rest are filtered against every centroid panel and verified
/// exactly.
fn assign_chunk(
    embedding: &Matrix,
    centroids: &Matrix,
    panels: Option<&CentroidPanels>,
    cone: Option<&Cone>,
    ids: &[usize],
    out: &mut [u32],
) -> PassWork {
    let cells = centroids.rows();
    let mut work = PassWork {
        rows: ids.len() as u64,
        hinted: out.iter().filter(|&&hint| hint != NO_HINT).count() as u64,
        ..PassWork::default()
    };
    let Some(panels) = panels else {
        for (slot, &row_id) in out.iter_mut().zip(ids) {
            *slot = nearest_cell(embedding.row(row_id), centroids, 0..cells);
        }
        work.scanned = work.rows;
        work.exact = work.rows * cells as u64;
        return work;
    };
    let Some(cone) = cone else {
        filter_and_verify(embedding, centroids, panels, ids, out, &mut work);
        return work;
    };
    // The rows the cone does not certify are filtered together, a block
    // at a time, then written back to their places.
    let (mut rest, mut rest_ids, mut rest_out) = (Vec::new(), Vec::new(), Vec::new());
    for (ids, out) in ids.chunks(REST_BLOCK).zip(out.chunks_mut(REST_BLOCK)) {
        rest.clear();
        rest_ids.clear();
        for (at, (slot, &row_id)) in out.iter_mut().zip(ids).enumerate() {
            let certified = match *slot {
                NO_HINT => None,
                a => cone.certify(embedding.row(row_id), a as usize, centroids, &mut work),
            };
            match certified {
                Some(cell) => *slot = cell,
                None => {
                    rest.push(at);
                    rest_ids.push(row_id);
                }
            }
        }
        rest_out.resize(rest.len(), NO_HINT);
        filter_and_verify(
            embedding,
            centroids,
            panels,
            &rest_ids,
            &mut rest_out,
            &mut work,
        );
        for (&at, &cell) in rest.iter().zip(&rest_out) {
            out[at] = cell;
        }
    }
    work
}

/// Rows per block in which [`assign_chunk`] gathers the rows the cone
/// leaves to the filter: the gathered lists stay small, and a block pays
/// one ragged tile.
const REST_BLOCK: usize = 1024;

/// Assigns every row of `ids` into `out` by the filter and the exact
/// verify, [`TILE_ROWS`] rows at a time.
fn filter_and_verify(
    embedding: &Matrix,
    centroids: &Matrix,
    panels: &CentroidPanels,
    ids: &[usize],
    out: &mut [u32],
    work: &mut PassWork,
) {
    let (cells, dim) = (centroids.rows(), centroids.cols());
    let mut exact = 0u64;
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
                exact += cells as u64;
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
                .inspect(|_| exact += 1);
            *slot = nearest_cell(row, centroids, survivors);
        }
    }
    work.scanned += ids.len() as u64;
    work.exact += exact;
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

    /// Every row's cell by the exact scan of every cell.
    fn exact_cells(embedding: &Matrix, centroids: &Matrix) -> Vec<u32> {
        (0..embedding.rows())
            .map(|r| nearest_cell(embedding.row(r), centroids, 0..centroids.rows()))
            .collect()
    }

    /// Runs the assignment pass over every row at several thread counts —
    /// with no candidates, and with each row's exact cell shifted by every
    /// offset up to 16 as its candidate, so small cell counts see every
    /// candidate — demands the exact scan's cells every time, and returns
    /// the exactly-scored cells per row of the pass without candidates.
    fn assert_assignment_is_the_exact_scan(embedding: &Matrix, centroids: &Matrix) -> f64 {
        let ids: Vec<usize> = (0..embedding.rows()).collect();
        let cells = centroids.rows();
        let want = exact_cells(embedding, centroids);
        let mut per_row = 0.0;
        for shift in std::iter::once(None).chain((0..cells.min(16)).map(Some)) {
            let hints: Vec<u32> = match shift {
                None => vec![NO_HINT; ids.len()],
                Some(k) => want
                    .iter()
                    .map(|&c| ((c as usize + k) % cells) as u32)
                    .collect(),
            };
            for threads in [1, 2, 3, 7] {
                let mut got = hints.clone();
                let work = assign_rows(embedding, centroids, &ids, &mut got, threads);
                assert_eq!(got, want, "threads={threads} shift={shift:?}");
                if shift.is_none() {
                    per_row = work.exact as f64 / ids.len() as f64;
                }
            }
        }
        per_row
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
        // A duplicate row whose candidate is a higher duplicate cell: the
        // cone holds all three and must re-score them in id order.
        for hint in [NO_HINT, 4, 9] {
            let mut out = vec![hint; 37];
            let work = assign_rows(&emb, &centroids, &(0..37).collect::<Vec<_>>(), &mut out, 1);
            assert!(out.iter().step_by(3).all(|&c| c == 1), "{out:?}");
            if hint != NO_HINT {
                assert!(work.scanned < 37, "the cone certified no row");
            }
        }
    }

    #[test]
    fn rows_equidistant_from_two_cells_keep_the_lower_for_every_candidate() {
        // Axis cells and rows on their bisectors: `e_i + e_j` scores
        // exactly the same against cells i and j, and the f32 Gram of
        // axis vectors is exact, so nothing but the certificate's own
        // margins keeps the lower cell in the cone.
        let dim = 6;
        let centroids = Matrix::from_fn(2 * dim, dim, |c, d| {
            if c % dim == d {
                if c < dim {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.0
            }
        });
        let mut rows = Vec::new();
        for i in 0..dim {
            for j in 0..dim {
                for sign in [1.0, -1.0] {
                    let mut row = vec![0.0; dim];
                    row[i] += 1.0;
                    row[j] += sign;
                    rows.extend(row);
                }
            }
        }
        let emb = Matrix::from_vec(rows.len() / dim, dim, rows).unwrap();
        assert_assignment_is_the_exact_scan(&emb, &centroids);
    }

    #[test]
    fn the_kernel_error_term_alone_keeps_a_tied_lower_cell() {
        // Cells 0 and 1 are two axes and every row `(t, t, 0, 0)` scores
        // exactly `t` against both, so the scan keeps cell 0. From
        // candidate 1 the tie sits on the cone's edge: cos∠(c_1, c_0) = 0
        // = 2·cos²45° − 1. With the Gram margin and the norm inflation
        // zeroed, only 2ε_k holds ρ under 1/√2 against the rounding of
        // ‖x‖ and the division, and so keeps cell 0 in the cone.
        let centroids = Matrix::from_fn(2, 4, |c, d| f64::from(u8::from(c == d)));
        let mut cone = Cone::new(&centroids, &CentroidPanels::new(&centroids).unwrap());
        cone.margin = 0.0;
        cone.norm_plus = 1.0;
        let mut work = PassWork::default();
        for k in 1..=2_000 {
            let t = f64::from(k) / 7.0;
            let row = [t, t, 0.0, 0.0];
            assert_eq!(
                cone.certify(&row, 1, &centroids, &mut work),
                Some(0),
                "row {row:?}"
            );
        }
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
                IvfIndex::build_reference(&emb, &params).unwrap()
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
        assert_eq!(idx, IvfIndex::build_reference(&emb, &params).unwrap());
        assert_eq!(idx.list(0).len(), 9);
    }

    /// 20 000 rows in 32 dimensions around 100 centres, jitter 0.25: the
    /// shape of the serving workloads' city, small.
    fn clustered_fixture() -> Matrix {
        let mut rng = StdRng::seed_from_u64(28);
        let centres = Matrix::from_fn(100, 32, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let mut emb = Matrix::from_fn(20_000, 32, |r, c| {
            centres.get(r % 100, c) + 0.25 * (rng.random::<f64>() * 2.0 - 1.0)
        });
        emb.normalize_rows();
        emb
    }

    #[test]
    fn the_filter_leaves_about_one_cell_per_row_to_verify() {
        // The guard that the filter stays a filter: on a clustered
        // embedding nearly every row has one clear winner, so a mean over
        // 1.05 exactly-scored cells per row means the slack was loosened
        // or rows are falling back to the full scan (which counts `cells`
        // per row).
        let emb = clustered_fixture();
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
        let mut cell_of = vec![NO_HINT; ids.len()];
        let work = assign_rows(&emb, &idx.centroids, &ids, &mut cell_of, 2);
        for (row_id, &c) in cell_of.iter().enumerate() {
            assert!(idx.list(c as usize).binary_search(&(row_id as u32)).is_ok());
        }
        assert_eq!(work.scanned, ids.len() as u64, "no candidates, no cone");
        let per_row = work.exact as f64 / ids.len() as f64;
        assert!((1.0..=1.05).contains(&per_row), "{per_row} cells per row");
    }

    #[test]
    fn the_cone_spares_most_hinted_rows_the_filter() {
        // The guard that the cone stays a certificate worth its Gram
        // matrix: on the clustered fixture, under a fifth of the rows
        // that carry their last cell fall back to the full filter, in
        // every Lloyd pass after the first and in the final pass. The
        // rows outside the sample have no candidate and are all filtered.
        let emb = clustered_fixture();
        let params = IvfBuildParams {
            cells: 128,
            iters: 4,
            sample: 4_000,
            threads: 2,
            ..Default::default()
        };
        let (idx, work) = IvfIndex::build_counted(&emb, &params).unwrap();
        assert_eq!(idx, IvfIndex::build_reference(&emb, &params).unwrap());
        assert_eq!(work.len(), 5);
        assert_eq!((work[0].hinted, work[0].scanned), (0, 4_000));
        for (pass, w) in work.iter().enumerate().skip(1) {
            assert_eq!(w.hinted, 4_000, "pass {pass}");
            let fallbacks = w.scanned - (w.rows - w.hinted);
            assert!(
                (fallbacks as f64) < 0.2 * w.hinted as f64,
                "pass {pass}: {fallbacks} of {} hinted rows filtered",
                w.hinted
            );
        }

        // Unclustered rows: the second pass tries the cone on every row and
        // it certifies almost none, so no later pass — the final one
        // included — hands out candidates, and the build is still the
        // reference build.
        let mut rows = vec![0.0; 3_000 * 32];
        crate::sample::GaussianStream::new(29).fill(&mut rows);
        let mut gaussian = Matrix::from_vec(3_000, 32, rows).unwrap();
        gaussian.normalize_rows();
        let params = IvfBuildParams {
            cells: 64,
            iters: 3,
            threads: 2,
            ..Default::default()
        };
        let (idx, work) = IvfIndex::build_counted(&gaussian, &params).unwrap();
        assert_eq!(idx, IvfIndex::build_reference(&gaussian, &params).unwrap());
        let hinted: Vec<u64> = work.iter().map(|w| w.hinted).collect();
        assert_eq!(hinted, [0, 3_000, 0, 0], "{work:?}");
        assert!(!work[1].cone_pays(), "{work:?}");
        assert!(
            work.iter().all(|w| w.scanned * 20 > w.rows * 19),
            "{work:?}"
        );
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
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn embedding_from(values: &[f64], rows: usize, dim: usize) -> Matrix {
        let mut m = Matrix::from_fn(rows, dim, |r, c| values[(r * dim + c) % values.len()]);
        m.normalize_rows();
        m
    }

    /// The shapes that strain the assignment pass, by `shape`:
    /// 0. `values` cycled — wherever `dim` divides the cycle, duplicate
    ///    rows and exact ties;
    /// 1. split clusters — one to eight clusters, tight (jitter 10⁻³) or
    ///    loose (0.1), so most cells split a cluster with their neighbours;
    /// 2. duplicate rows — one to five distinct rows, so the initial
    ///    centroids repeat (`G = 1` ties);
    /// 3. rows `e_i ± e_j`, each equidistant from the axis directions it
    ///    sits between, the axes themselves and zero rows;
    /// 4. shape 1 with every fourth row zero, subnormal, under the
    ///    filter's window, or past either end of the cone's (rows past
    ///    the filter's upper end overflow the centroid they join to zero,
    ///    which `rows_of_any_magnitude_are_assigned_like_the_exact_scan`
    ///    covers).
    fn adversarial_embedding(
        shape: usize,
        values: &[f64],
        rows: usize,
        dim: usize,
        seed: u64,
    ) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let direction = |rng: &mut StdRng| {
            let mut v: Vec<f64> = (0..dim).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            ops::normalize(&mut v);
            v
        };
        match shape {
            0 => embedding_from(values, rows, dim),
            2 => {
                let distinct = 1 + (seed % 5) as usize;
                let bases: Vec<Vec<f64>> = (0..distinct).map(|_| direction(&mut rng)).collect();
                Matrix::from_fn(rows, dim, |r, d| bases[r % distinct][d])
            }
            3 => Matrix::from_fn(rows, dim, |r, d| {
                let (i, j) = (r % dim, (r / dim) % dim);
                let sign = if (r / (dim * dim)).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                };
                let axis = if r.is_multiple_of(7) { 0.0 } else { sign };
                f64::from(u8::from(d == i)) + axis * f64::from(u8::from(d == j))
            }),
            _ => {
                let clusters = 1 + (seed % 8) as usize;
                let jitter = if (seed / 8).is_multiple_of(2) {
                    1e-3
                } else {
                    0.1
                };
                let bases: Vec<Vec<f64>> = (0..clusters).map(|_| direction(&mut rng)).collect();
                let mut m = Matrix::from_fn(rows, dim, |r, d| bases[r % clusters][d]);
                for r in 0..rows {
                    let v = direction(&mut rng);
                    ops::axpy_unchecked(jitter, &v, m.row_mut(r));
                }
                m.normalize_rows();
                if shape == 4 {
                    let scales = [
                        0.0,
                        f64::MIN_POSITIVE / 64.0,
                        2f64.powi(-950),
                        2f64.powi(-400),
                        2f64.powi(400),
                        2f64.powi(500),
                    ];
                    for r in (0..rows).step_by(4) {
                        ops::scale(scales[rng.random_range(0..scales.len())], m.row_mut(r));
                    }
                }
                m
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn build_equals_the_reference_build(
            values in vec(-1.0f64..1.0, 8..64),
            shape in 0usize..5,
            rows in 1usize..300,
            dim in 1usize..41,
            cells in 1usize..300,
            iters in 1usize..5,
            sampled in 0usize..3,
            seed in 0u64..1000,
        ) {
            let cells = cells.min(rows);
            let emb = adversarial_embedding(shape, &values, rows, dim, seed);
            let params = IvfBuildParams {
                cells,
                iters,
                // Every row, a third of them, or more than there are.
                sample: [0, rows.div_ceil(3), rows + 5][sampled],
                seed,
                threads: 1,
            };
            let reference = IvfIndex::build_reference(&emb, &params).unwrap();
            for threads in [1, 2, 3, 7] {
                let built = IvfIndex::build(&emb, &IvfBuildParams { threads, ..params }).unwrap();
                prop_assert_eq!(&built, &reference);
            }
        }
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
