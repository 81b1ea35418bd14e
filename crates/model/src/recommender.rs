//! Model utilisation (§3.3): turning the trained embedding matrix into
//! next-location recommendations.
//!
//! "For each location check-in lᵢ ∈ ζ, the embedding vectors w(lᵢ) are
//! extracted … the average of elements across dimensions of the stacked
//! vectors is computed to produce a representation F(ζ) of the recent
//! check-ins of the user. Finally, cosine similarity scores are computed as
//! the dot-product of the vector F(ζ) to the embedding vector of each
//! location … We rank all locations by their scores and select the top-K
//! locations as the potential recommendations."

use std::sync::Arc;

use plp_linalg::ivf::{IvfBuildParams, IvfIndex, IvfQuant, IvfScratch, QuantRerankStats};
use plp_linalg::matrix::matmul_block_into;
use plp_linalg::topk::TopKScratch;
use plp_linalg::{ops, topk, Matrix};

use crate::error::ModelError;
use crate::params::ModelParams;

/// Reusable buffers for the sequential recommendation path: the profile
/// `F(ζ)`, the dense score vector, and top-k selection storage. Buffers
/// grow on first use and are retained, so steady-state calls through
/// [`Recommender::recommend_excluding_into`] are allocation-free.
#[derive(Debug, Default)]
pub struct RecommendScratch {
    profile: Vec<f64>,
    scores: Vec<f64>,
    topk: TopKScratch,
    ranked: Vec<(usize, f64)>,
    ivf: IvfScratch,
}

impl RecommendScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        RecommendScratch::default()
    }
}

/// A deployed recommender: the unit-normalised embedding matrix (the only
/// tensor shipped to devices — §3.3 footnote 1).
///
/// The matrix is frozen once a constructor returns, so it is held behind
/// an `Arc`: a clone is one reference count, and a reference model, the
/// serving engine built from its clone and a hot-swap generation all read
/// the same bytes. Equality still compares contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommender {
    embedding: Arc<Matrix>,
}

impl Recommender {
    /// Builds a recommender from trained parameters (normalises rows; dot
    /// product thereafter equals cosine similarity).
    pub fn new(params: &ModelParams) -> Self {
        Recommender::from_prenormalized(params.deployable_embedding())
    }

    /// Builds a recommender from a raw embedding matrix, normalising its
    /// rows in place (a mapped matrix is promoted to an owned copy first).
    ///
    /// # Errors
    /// Rejects non-finite embeddings with [`ModelError::NonFinite`]. A NaN
    /// row would otherwise vanish silently from every result (top-k skips
    /// NaN scores), so a corrupt matrix must fail here, at load, not
    /// quietly at serve.
    pub fn from_embedding(mut embedding: Matrix) -> Result<Self, ModelError> {
        if !embedding.all_finite() {
            return Err(ModelError::NonFinite { at: "embedding" });
        }
        embedding.normalize_rows();
        Ok(Recommender::from_prenormalized(embedding))
    }

    /// Wraps an embedding whose rows are **already** unit-normalised —
    /// e.g. a PLPS deployment bundle written from a deployed
    /// [`Recommender::embedding`] and flagged normalised — without copying
    /// or re-normalising, so a mapped matrix stays zero-copy end to end.
    ///
    /// Contract: the caller has established finiteness (the PLPS open path
    /// does this via `validate`/CRC verification before trusting a
    /// candidate generation). Rows that are not actually unit-length would
    /// degrade ranking quality but remain deterministic; non-finite values
    /// would drop rows from top-k, which is why untrusted bytes must go
    /// through [`Recommender::from_embedding`] or PLPS validation instead.
    pub fn from_prenormalized(embedding: Matrix) -> Self {
        Recommender {
            embedding: Arc::new(embedding),
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.embedding.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.embedding.cols()
    }

    /// The frozen, row-normalised embedding matrix — the serving artifact.
    /// Batch scorers use it to run one matrix–matrix product over many
    /// profiles instead of a `matvec` per query.
    pub fn embedding(&self) -> &Matrix {
        &self.embedding
    }

    /// The profile `F(ζ)`: the mean of the embedding rows of the recent
    /// check-ins.
    ///
    /// # Errors
    /// `recent` must be non-empty and all tokens in range.
    pub fn profile(&self, recent: &[usize]) -> Result<Vec<f64>, ModelError> {
        let mut acc = vec![0.0; self.dim()];
        self.profile_into(recent, &mut acc)?;
        Ok(acc)
    }

    /// [`Recommender::profile`] into a caller-provided buffer of length
    /// [`Recommender::dim`], so serving workers can reuse scratch rows.
    /// The accumulation order is identical to `profile`, making the two
    /// bit-identical.
    ///
    /// # Errors
    /// `recent` must be non-empty, all tokens in range, and `out` exactly
    /// `dim` long.
    pub fn profile_into(&self, recent: &[usize], out: &mut [f64]) -> Result<(), ModelError> {
        if recent.is_empty() {
            return Err(ModelError::BadConfig {
                name: "recent",
                expected: "non-empty",
            });
        }
        if out.len() != self.dim() {
            return Err(ModelError::ShapeMismatch {
                what: "profile buffer vs embedding dim",
            });
        }
        out.fill(0.0);
        for &t in recent {
            if t >= self.vocab_size() {
                return Err(ModelError::TokenOutOfRange {
                    token: t,
                    vocab: self.vocab_size(),
                });
            }
            ops::axpy(1.0, self.embedding.row(t), out)?;
        }
        ops::scale(1.0 / recent.len() as f64, out);
        Ok(())
    }

    /// Cosine-proportional scores of every location against `profile`
    /// (rows are unit-length, so the dot product ranks identically to
    /// cosine).
    pub fn scores(&self, profile: &[f64]) -> Result<Vec<f64>, ModelError> {
        if profile.len() != self.dim() {
            return Err(ModelError::ShapeMismatch {
                what: "profile vs embedding dim",
            });
        }
        Ok(self.embedding.matvec(profile)?)
    }

    /// [`Recommender::scores`] into a caller-provided buffer of length
    /// [`Recommender::vocab_size`]. Runs the same blocked micro-kernel as
    /// `Matrix::matvec` (both route every inner product through the fixed
    /// eight-lane reduction), so the two paths are bit-identical.
    ///
    /// # Errors
    /// `profile` must be `dim` long and `out` `vocab_size` long.
    pub fn scores_into(&self, profile: &[f64], out: &mut [f64]) -> Result<(), ModelError> {
        if profile.len() != self.dim() {
            return Err(ModelError::ShapeMismatch {
                what: "profile vs embedding dim",
            });
        }
        if out.len() != self.vocab_size() {
            return Err(ModelError::ShapeMismatch {
                what: "score buffer vs vocab size",
            });
        }
        matmul_block_into(profile, 1, self.dim(), &self.embedding, out)?;
        Ok(())
    }

    /// Top-`k` recommended locations for the recent check-ins `ζ`.
    ///
    /// # Errors
    /// Propagates profile errors.
    pub fn recommend(&self, recent: &[usize], k: usize) -> Result<Vec<usize>, ModelError> {
        let mut scratch = RecommendScratch::new();
        self.recommend_excluding_into(recent, k, &[], &mut scratch)
    }

    /// Top-`k` recommendations excluding the given locations (e.g. the ones
    /// just visited).
    ///
    /// Excluded locations are marked `NaN` — the selection's explicit
    /// "unrankable" sentinel — not `-∞`: an infinite score is still a
    /// *score* (and ranks accordingly), whereas an excluded location must
    /// never appear no matter how large `k` is. Out-of-range exclusions
    /// are ignored.
    ///
    /// # Errors
    /// Propagates profile errors.
    pub fn recommend_excluding(
        &self,
        recent: &[usize],
        k: usize,
        exclude: &[usize],
    ) -> Result<Vec<usize>, ModelError> {
        let mut scratch = RecommendScratch::new();
        self.recommend_excluding_into(recent, k, exclude, &mut scratch)
    }

    /// [`Recommender::recommend_excluding`] with caller-owned scratch:
    /// profile, score and selection buffers are reused across calls, so
    /// repeated queries (the leave-one-out evaluation loop, serving
    /// workers) stay allocation-free in steady state. Results are
    /// bit-identical to the allocating wrappers, which route through this
    /// method.
    ///
    /// # Errors
    /// Propagates profile errors.
    pub fn recommend_excluding_into(
        &self,
        recent: &[usize],
        k: usize,
        exclude: &[usize],
        scratch: &mut RecommendScratch,
    ) -> Result<Vec<usize>, ModelError> {
        scratch.profile.resize(self.dim(), 0.0);
        self.profile_into(recent, &mut scratch.profile)?;
        scratch.scores.resize(self.vocab_size(), 0.0);
        self.scores_into(&scratch.profile, &mut scratch.scores)?;
        mask_excluded(&mut scratch.scores, exclude);
        topk::top_k_with_scores_into(&scratch.scores, k, &mut scratch.topk, &mut scratch.ranked);
        Ok(scratch.ranked.iter().map(|&(i, _)| i).collect())
    }

    /// Builds an IVF coarse-quantiser index over this recommender's frozen
    /// embedding rows, for use with
    /// [`Recommender::recommend_indexed_into`]. The index is bit-identical
    /// across build thread counts (see `plp_linalg::ivf`).
    ///
    /// # Errors
    /// Propagates `InvalidArgument` for bad params (e.g. more cells than
    /// locations).
    pub fn build_index(&self, params: &IvfBuildParams) -> Result<IvfIndex, ModelError> {
        Ok(IvfIndex::build(&self.embedding, params)?)
    }

    /// Approximate top-`k` via an IVF index built by
    /// [`Recommender::build_index`]: probes the `nprobe` best cells and
    /// re-scores their members with the exact cosine kernel, so every
    /// returned location carries the same score the exhaustive path would
    /// compute and exclusion keeps the NaN-sentinel semantics. With
    /// `nprobe >= index.cells()` the result equals
    /// [`Recommender::recommend_excluding_into`] exactly.
    ///
    /// # Errors
    /// Propagates profile errors and index shape mismatches (an index built
    /// over a different embedding is rejected).
    pub fn recommend_indexed_into(
        &self,
        index: &IvfIndex,
        recent: &[usize],
        k: usize,
        exclude: &[usize],
        nprobe: usize,
        scratch: &mut RecommendScratch,
    ) -> Result<Vec<usize>, ModelError> {
        scratch.profile.resize(self.dim(), 0.0);
        self.profile_into(recent, &mut scratch.profile)?;
        index.search_into(
            &self.embedding,
            &scratch.profile,
            k,
            nprobe,
            exclude,
            &mut scratch.ivf,
            &mut scratch.ranked,
        )?;
        Ok(scratch.ranked.iter().map(|&(i, _)| i).collect())
    }

    /// Packs this recommender's embedding rows into the int8 coarse-scoring
    /// layout for `index`, for use with
    /// [`Recommender::recommend_indexed_quantized_into`]. Deterministic:
    /// the packed bytes are a pure function of the embedding and the index.
    ///
    /// # Errors
    /// Propagates shape mismatches (an index built over a different
    /// embedding is rejected).
    pub fn build_quantized(&self, index: &IvfIndex) -> Result<IvfQuant, ModelError> {
        Ok(IvfQuant::build(&self.embedding, index)?)
    }

    /// [`Recommender::recommend_indexed_into`] through the int8 coarse
    /// pass: probed members are scored in i32 first and only the
    /// error-bounded shortlist is re-scored with the exact cosine kernel.
    /// For any `nprobe` the result is bit-identical to the unquantized
    /// indexed path, and with `nprobe >= index.cells()` it equals
    /// [`Recommender::recommend_excluding_into`] exactly.
    ///
    /// # Errors
    /// Propagates profile errors and index/quant shape mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn recommend_indexed_quantized_into(
        &self,
        index: &IvfIndex,
        quant: &IvfQuant,
        recent: &[usize],
        k: usize,
        exclude: &[usize],
        nprobe: usize,
        overfetch: usize,
        scratch: &mut RecommendScratch,
    ) -> Result<(Vec<usize>, QuantRerankStats), ModelError> {
        scratch.profile.resize(self.dim(), 0.0);
        self.profile_into(recent, &mut scratch.profile)?;
        let stats = index.search_quantized_into(
            quant,
            &self.embedding,
            &scratch.profile,
            k,
            nprobe,
            overfetch,
            exclude,
            &mut scratch.ivf,
            &mut scratch.ranked,
        )?;
        Ok((scratch.ranked.iter().map(|&(i, _)| i).collect(), stats))
    }
}

/// Marks every in-range excluded index `NaN` so the top-k selection skips
/// it. Shared by the sequential path above and the batched serving path
/// (`plp-serve`), which must stay bit-identical.
pub fn mask_excluded(scores: &mut [f64], exclude: &[usize]) {
    for &e in exclude {
        if e < scores.len() {
            scores[e] = f64::NAN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An embedding with two well-separated clusters: tokens 0–2 along +x,
    /// tokens 3–5 along +y.
    fn clustered() -> Recommender {
        let mut m = Matrix::zeros(6, 2);
        for t in 0..3 {
            m.set(t, 0, 1.0);
            m.set(t, 1, 0.05 * t as f64);
        }
        for t in 3..6 {
            m.set(t, 1, 1.0);
            m.set(t, 0, 0.05 * (t - 3) as f64);
        }
        Recommender::from_embedding(m).unwrap()
    }

    #[test]
    fn recommends_within_cluster() {
        let r = clustered();
        let top = r.recommend(&[0, 1], 3).unwrap();
        assert!(
            top.contains(&0) && top.contains(&1) && top.contains(&2),
            "{top:?}"
        );
        let top_y = r.recommend(&[3, 4], 3).unwrap();
        assert!(top_y.contains(&5), "{top_y:?}");
    }

    #[test]
    fn profile_is_mean_of_rows() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        let r = Recommender::from_embedding(m).unwrap();
        let p = r.profile(&[0, 1]).unwrap();
        assert_eq!(p, vec![0.5, 0.5]);
    }

    #[test]
    fn excluding_removes_visited() {
        let r = clustered();
        let top = r.recommend_excluding(&[0, 1], 2, &[0, 1]).unwrap();
        assert!(!top.contains(&0) && !top.contains(&1));
        assert!(top.contains(&2));
        // Out-of-range exclusions are ignored.
        let same = r.recommend_excluding(&[0, 1], 2, &[999]).unwrap();
        assert_eq!(same, r.recommend(&[0, 1], 2).unwrap());
    }

    #[test]
    fn exclusion_holds_even_when_k_exceeds_candidates() {
        // Regression: exclusion must behave as removal, not as a -∞ score
        // that a large k could still dredge up.
        let r = clustered();
        let top = r.recommend_excluding(&[0, 1], 6, &[0, 1]).unwrap();
        assert_eq!(top.len(), 4, "6 locations minus 2 excluded");
        assert!(!top.contains(&0) && !top.contains(&1), "{top:?}");
    }

    #[test]
    fn profile_into_matches_profile_and_validates() {
        let r = clustered();
        let p = r.profile(&[0, 3, 4]).unwrap();
        let mut buf = vec![7.0; r.dim()];
        r.profile_into(&[0, 3, 4], &mut buf).unwrap();
        assert_eq!(p, buf, "shared path must be bit-identical");
        let mut wrong = vec![0.0; r.dim() + 1];
        assert!(r.profile_into(&[0], &mut wrong).is_err());
        assert!(r.profile_into(&[], &mut buf).is_err());
        assert!(r.profile_into(&[99], &mut buf).is_err());
    }

    #[test]
    fn mask_excluded_marks_nan_and_ignores_out_of_range() {
        let mut s = vec![0.1, 0.2, 0.3];
        mask_excluded(&mut s, &[1, 9]);
        assert!(s[1].is_nan());
        assert_eq!(s[0], 0.1);
        assert_eq!(s[2], 0.3);
    }

    #[test]
    fn validates_inputs() {
        let r = clustered();
        assert!(r.profile(&[]).is_err());
        assert!(r.profile(&[99]).is_err());
        assert!(r.scores(&[1.0]).is_err());
        assert_eq!(r.vocab_size(), 6);
        assert_eq!(r.dim(), 2);
    }

    #[test]
    fn from_embedding_rejects_non_finite() {
        let mut m = Matrix::zeros(3, 2);
        m.set(1, 0, f64::NAN);
        assert!(matches!(
            Recommender::from_embedding(m),
            Err(ModelError::NonFinite { .. })
        ));
        let mut inf = Matrix::zeros(3, 2);
        inf.set(2, 1, f64::INFINITY);
        assert!(Recommender::from_embedding(inf).is_err());
    }

    #[test]
    fn from_embedding_normalises_owned_and_mapped_inputs_identically() {
        // Unnormalised rows, a zero row included, read back through a
        // mapped bundle: the copy-on-write promotion must give the same
        // bits as normalising an owned matrix, and an owned result.
        let raw = Matrix::from_fn(7, 3, |r, c| (r as f64 - 3.0) * (c as f64 + 0.5));
        let want = raw.normalized_rows();
        let path =
            std::env::temp_dir().join(format!("plp_rec_from_mapped_{}.plps", std::process::id()));
        crate::plps::write_deployable(&path, &raw, 1).unwrap();
        let mapped = crate::plps::PlpsSnapshot::open_mapped(&path)
            .unwrap()
            .embedding()
            .unwrap();
        assert!(mapped.is_mapped());
        for input in [raw, mapped] {
            let rec = Recommender::from_embedding(input).unwrap();
            assert!(!rec.embedding().is_mapped());
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(rec.embedding()), bits(&want));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clone_shares_the_embedding_and_equality_compares_contents() {
        let raw = Matrix::from_fn(7, 3, |r, c| (r as f64 - 3.0) * (c as f64 + 0.5));
        let path = std::env::temp_dir().join(format!("plp_rec_shared_{}.plps", std::process::id()));
        crate::plps::write_deployable(&path, &raw.normalized_rows(), 1).unwrap();
        let mapped = crate::plps::PlpsSnapshot::open_mapped(&path)
            .unwrap()
            .embedding()
            .unwrap();
        assert!(mapped.is_mapped());
        let owned = Recommender::from_embedding(raw.clone()).unwrap();
        let mapped = Recommender::from_prenormalized(mapped);
        let at = |r: &Recommender| r.embedding().as_slice().as_ptr();
        for rec in [&owned, &mapped] {
            let copy = rec.clone();
            assert_eq!(at(&copy), at(rec), "a clone allocates no matrix");
            assert_eq!(copy.embedding().is_mapped(), rec.embedding().is_mapped());
            assert_eq!(&copy, rec);
        }
        assert!(mapped.embedding().is_mapped() && !owned.embedding().is_mapped());

        // Equality is by contents, not by allocation.
        let rebuilt = Recommender::from_embedding(raw).unwrap();
        assert_ne!(at(&rebuilt), at(&owned));
        assert_eq!(rebuilt, owned);
        assert_eq!(mapped, owned, "a mapped and an owned copy of one matrix");
        assert_ne!(clustered(), owned);

        // A clone outlives the recommender it was cloned from.
        let copy = owned.clone();
        let want = owned.recommend(&[0, 3], 4).unwrap();
        drop(owned);
        assert_eq!(copy.recommend(&[0, 3], 4).unwrap(), want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn indexed_full_probe_matches_exhaustive_recommendations() {
        let r = clustered();
        let index = r
            .build_index(&IvfBuildParams {
                cells: 2,
                ..Default::default()
            })
            .unwrap();
        let mut scratch = RecommendScratch::new();
        for (recent, exclude) in [
            (vec![0usize, 1], vec![]),
            (vec![3, 4], vec![3usize, 4]),
            (vec![0, 5], vec![999]),
        ] {
            let dense = r
                .recommend_excluding_into(&recent, 4, &exclude, &mut scratch)
                .unwrap();
            let indexed = r
                .recommend_indexed_into(&index, &recent, 4, &exclude, index.cells(), &mut scratch)
                .unwrap();
            assert_eq!(indexed, dense, "full probe must equal exhaustive");
        }
    }

    #[test]
    fn quantized_indexed_full_probe_matches_exhaustive_recommendations() {
        let r = clustered();
        let index = r
            .build_index(&IvfBuildParams {
                cells: 2,
                ..Default::default()
            })
            .unwrap();
        let quant = r.build_quantized(&index).unwrap();
        let mut scratch = RecommendScratch::new();
        for (recent, exclude) in [
            (vec![0usize, 1], vec![]),
            (vec![3, 4], vec![3usize, 4]),
            (vec![0, 5], vec![999]),
        ] {
            let dense = r
                .recommend_excluding_into(&recent, 4, &exclude, &mut scratch)
                .unwrap();
            let (quantized, stats) = r
                .recommend_indexed_quantized_into(
                    &index,
                    &quant,
                    &recent,
                    4,
                    &exclude,
                    index.cells(),
                    2,
                    &mut scratch,
                )
                .unwrap();
            assert_eq!(
                quantized, dense,
                "quantized full probe must equal exhaustive"
            );
            assert!(stats.shortlisted <= stats.candidates);
        }
        // A quant pack from a different index shape is rejected.
        let other = Recommender::from_embedding(Matrix::zeros(4, 2)).unwrap();
        let foreign_index = other
            .build_index(&IvfBuildParams {
                cells: 2,
                ..Default::default()
            })
            .unwrap();
        let foreign = other.build_quantized(&foreign_index).unwrap();
        assert!(r
            .recommend_indexed_quantized_into(&index, &foreign, &[0], 2, &[], 1, 2, &mut scratch)
            .is_err());
    }

    #[test]
    fn indexed_narrow_probe_stays_in_cluster() {
        let r = clustered();
        let index = r
            .build_index(&IvfBuildParams {
                cells: 2,
                ..Default::default()
            })
            .unwrap();
        let mut scratch = RecommendScratch::new();
        let top = r
            .recommend_indexed_into(&index, &[0, 1], 2, &[], 1, &mut scratch)
            .unwrap();
        assert!(top.iter().all(|&t| t < 3), "x-cluster only: {top:?}");
    }

    #[test]
    fn indexed_path_rejects_foreign_index() {
        let r = clustered();
        let other = Recommender::from_embedding(Matrix::zeros(4, 2)).unwrap();
        let index = other
            .build_index(&IvfBuildParams {
                cells: 2,
                ..Default::default()
            })
            .unwrap();
        let mut scratch = RecommendScratch::new();
        assert!(r
            .recommend_indexed_into(&index, &[0], 2, &[], 1, &mut scratch)
            .is_err());
    }

    #[test]
    fn new_normalises_the_params_embedding() {
        let mut params = ModelParams::zeros(2, 2);
        params.embedding.set(0, 0, 10.0);
        params.embedding.set(1, 0, 0.1);
        let r = Recommender::new(&params);
        // Both rows now unit length: scores against x-axis both 1.
        let s = r.scores(&[1.0, 0.0]).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
    }
}
