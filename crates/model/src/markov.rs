//! Markov-chain next-location baselines (related work, §6).
//!
//! "MC-based methods utilize a per-user transition matrix comprised of
//! location-location transition probabilities computed from the historical
//! record of check-ins [62]" and "private location recommendation over
//! Markov Chains is studied in [63]: aggregate counts … are published as
//! differentially private statistics."
//!
//! Two recommenders are provided:
//!
//! * [`MarkovRecommender`] — a global order-1 transition model with a
//!   popularity fallback (the classical non-neural baseline),
//! * [`DpMarkovRecommender`] — the same model trained under **user-level
//!   ε-DP** by bounding each user's total contribution to the count matrix
//!   and perturbing every cell with Laplace noise calibrated to that bound
//!   (the Zhang–Ghinita–Chow style of private statistics release).
//!
//! Both produce a ranking for a recent-check-in sequence via the
//! [`RankLocations`] trait, so `plp_model::metrics` evaluates them with the
//! same leave-one-out HR@k harness as the skip-gram recommender.

use rand::Rng;

use plp_data::dataset::TokenizedDataset;
use plp_linalg::{ops, topk};

use crate::error::ModelError;
use crate::metrics::rank_count_hits;
use crate::params::ModelParams;

/// Anything that can rank all locations given recent check-ins.
pub trait RankLocations {
    /// Returns the top-`k` location tokens for the recent sequence,
    /// best first.
    ///
    /// # Errors
    /// Implementations reject empty inputs or out-of-range tokens.
    fn top_k(&self, recent: &[usize], k: usize) -> Result<Vec<usize>, ModelError>;

    /// Hits per cutoff in `ks` over the strided subset
    /// `{i : i ≡ offset (mod stride)}` of leave-one-out `trials`
    /// (`(input, target)` pairs): a trial hits `k` iff its target is among
    /// `top_k(input, k)`. This is the work one evaluation worker does
    /// (`metrics::evaluate_hit_rate_threaded`); the strided partition
    /// matches the training loop's worker assignment.
    ///
    /// The default ranks every trial. A ranker that can decide membership
    /// without materialising the ranking overrides it, and must return the
    /// same counts and the same first error.
    ///
    /// # Errors
    /// The first failing trial's error, in trial order.
    fn hit_counts(
        &self,
        trials: &[(&[usize], usize)],
        ks: &[usize],
        offset: usize,
        stride: usize,
    ) -> Result<Vec<usize>, ModelError> {
        let max_k = ks.iter().copied().max().unwrap_or(0);
        let mut hits = vec![0usize; ks.len()];
        for (input, target) in trials.iter().skip(offset).step_by(stride.max(1)) {
            let top = self.top_k(input, max_k)?;
            for (h, &k) in hits.iter_mut().zip(ks) {
                if top.iter().take(k).any(|t| t == target) {
                    *h += 1;
                }
            }
        }
        Ok(hits)
    }
}

impl RankLocations for crate::recommender::Recommender {
    fn top_k(&self, recent: &[usize], k: usize) -> Result<Vec<usize>, ModelError> {
        self.recommend(recent, k)
    }

    /// Rank counting over the frozen rows, which are unit length already:
    /// loading one is a copy.
    fn hit_counts(
        &self,
        trials: &[(&[usize], usize)],
        ks: &[usize],
        offset: usize,
        stride: usize,
    ) -> Result<Vec<usize>, ModelError> {
        let load = |row: &[f64], unit: &mut [f64]| unit.copy_from_slice(row);
        rank_count_hits(self.embedding(), load, trials, ks, offset, stride)
    }
}

/// Trained parameters rank as the [`Recommender`](crate::Recommender)
/// deployed from them would — `Recommender::new(self)` — so a trainer can
/// validate θ where it lies instead of deploying a normalised copy of it
/// first.
impl RankLocations for ModelParams {
    fn top_k(&self, recent: &[usize], k: usize) -> Result<Vec<usize>, ModelError> {
        crate::Recommender::new(self).recommend(recent, k)
    }

    /// Rank counting over θ's own embedding rows: loading one is a copy
    /// scaled to unit length, the bits `Matrix::normalize_rows` would have
    /// left in a deployed copy.
    fn hit_counts(
        &self,
        trials: &[(&[usize], usize)],
        ks: &[usize],
        offset: usize,
        stride: usize,
    ) -> Result<Vec<usize>, ModelError> {
        let load = |row: &[f64], unit: &mut [f64]| {
            unit.copy_from_slice(row);
            ops::normalize(unit);
        };
        rank_count_hits(&self.embedding, load, trials, ks, offset, stride)
    }
}

/// Dense order-1 transition counts with a global popularity fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovRecommender {
    vocab: usize,
    /// `counts[a][b]`: transitions a → b (possibly noisy, hence `f64`).
    counts: Vec<Vec<f64>>,
    /// Global visit counts (fallback when a row is empty).
    popularity: Vec<f64>,
}

impl MarkovRecommender {
    /// Fits the transition model on within-session consecutive pairs.
    ///
    /// # Errors
    /// The dataset must have a non-empty vocabulary.
    pub fn fit(data: &TokenizedDataset) -> Result<Self, ModelError> {
        if data.vocab_size == 0 {
            return Err(ModelError::BadConfig {
                name: "vocab_size",
                expected: ">= 1",
            });
        }
        let vocab = data.vocab_size;
        let mut counts = vec![vec![0.0; vocab]; vocab];
        let mut popularity = vec![0.0; vocab];
        for u in &data.users {
            for s in &u.sessions {
                for &t in s {
                    if t >= vocab {
                        return Err(ModelError::TokenOutOfRange { token: t, vocab });
                    }
                    popularity[t] += 1.0;
                }
                for w in s.windows(2) {
                    counts[w[0]][w[1]] += 1.0;
                }
            }
        }
        Ok(MarkovRecommender {
            vocab,
            counts,
            popularity,
        })
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// The (possibly noisy) transition count a → b.
    pub fn count(&self, a: usize, b: usize) -> Option<f64> {
        self.counts.get(a).and_then(|r| r.get(b)).copied()
    }

    fn scores_for(&self, recent: &[usize]) -> Result<Vec<f64>, ModelError> {
        let last = *recent.last().ok_or(ModelError::BadConfig {
            name: "recent",
            expected: "non-empty",
        })?;
        if last >= self.vocab {
            return Err(ModelError::TokenOutOfRange {
                token: last,
                vocab: self.vocab,
            });
        }
        let row = &self.counts[last];
        let total: f64 = row.iter().map(|&c| c.max(0.0)).sum();
        if total > 0.0 {
            Ok(row.clone())
        } else {
            // Cold row: fall back to popularity.
            Ok(self.popularity.clone())
        }
    }
}

impl RankLocations for MarkovRecommender {
    fn top_k(&self, recent: &[usize], k: usize) -> Result<Vec<usize>, ModelError> {
        let scores = self.scores_for(recent)?;
        Ok(topk::top_k_indices(&scores, k))
    }
}

/// User-level ε-DP release of the Markov statistics.
///
/// Each user contributes at most `per_user_cap` transition increments and
/// `per_user_cap` popularity increments (excess pairs are dropped,
/// earliest first), bounding the ℓ1 sensitivity of the joint release to
/// `2 · per_user_cap`; every cell then receives Laplace(2·cap/ε) noise.
#[derive(Debug, Clone, PartialEq)]
pub struct DpMarkovRecommender {
    inner: MarkovRecommender,
    epsilon: f64,
    per_user_cap: usize,
}

impl DpMarkovRecommender {
    /// Fits the DP model.
    ///
    /// # Errors
    /// `epsilon` must be positive and finite, `per_user_cap >= 1`, and the
    /// dataset must have a non-empty vocabulary.
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        data: &TokenizedDataset,
        epsilon: f64,
        per_user_cap: usize,
    ) -> Result<Self, ModelError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(ModelError::BadConfig {
                name: "epsilon",
                expected: "finite and > 0",
            });
        }
        if per_user_cap == 0 {
            return Err(ModelError::BadConfig {
                name: "per_user_cap",
                expected: ">= 1",
            });
        }
        if data.vocab_size == 0 {
            return Err(ModelError::BadConfig {
                name: "vocab_size",
                expected: ">= 1",
            });
        }
        let vocab = data.vocab_size;
        let mut counts = vec![vec![0.0; vocab]; vocab];
        let mut popularity = vec![0.0; vocab];
        for u in &data.users {
            let mut trans_left = per_user_cap;
            let mut pop_left = per_user_cap;
            for s in &u.sessions {
                for &t in s {
                    if t >= vocab {
                        return Err(ModelError::TokenOutOfRange { token: t, vocab });
                    }
                    if pop_left > 0 {
                        popularity[t] += 1.0;
                        pop_left -= 1;
                    }
                }
                for w in s.windows(2) {
                    if trans_left > 0 {
                        counts[w[0]][w[1]] += 1.0;
                        trans_left -= 1;
                    }
                }
            }
        }
        // Joint release: transitions + popularity, sensitivity 2·cap.
        let b = 2.0 * per_user_cap as f64 / epsilon;
        for row in &mut counts {
            for c in row.iter_mut() {
                *c += laplace_sample(rng, b);
            }
        }
        for p in &mut popularity {
            *p += laplace_sample(rng, b);
        }
        Ok(DpMarkovRecommender {
            inner: MarkovRecommender {
                vocab,
                counts,
                popularity,
            },
            epsilon,
            per_user_cap,
        })
    }

    /// The ε of the release.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The per-user contribution bound.
    pub fn per_user_cap(&self) -> usize {
        self.per_user_cap
    }

    /// Access to the (noisy) underlying statistics.
    pub fn statistics(&self) -> &MarkovRecommender {
        &self.inner
    }
}

impl RankLocations for DpMarkovRecommender {
    fn top_k(&self, recent: &[usize], k: usize) -> Result<Vec<usize>, ModelError> {
        // Noisy rows never sum to exactly zero, so rank the noisy row
        // directly (no fallback; the fallback condition would itself leak).
        let last = *recent.last().ok_or(ModelError::BadConfig {
            name: "recent",
            expected: "non-empty",
        })?;
        if last >= self.inner.vocab {
            return Err(ModelError::TokenOutOfRange {
                token: last,
                vocab: self.inner.vocab,
            });
        }
        Ok(topk::top_k_indices(&self.inner.counts[last], k))
    }
}

/// Draws one Laplace(0, b) variate by inverse-CDF sampling.
fn laplace_sample<R: Rng + ?Sized>(rng: &mut R, b: f64) -> f64 {
    let u: f64 = rand::RngExt::random::<f64>(rng) - 0.5;
    -b * u.signum() * (1.0_f64 - 2.0 * u.abs()).max(f64::MIN_POSITIVE).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_data::checkin::UserId;
    use plp_data::dataset::UserSequences;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Deterministic cycles: 0 -> 1 -> 2 -> 0 and 5 -> 6 -> 5.
    fn data() -> TokenizedDataset {
        let users = (0..10)
            .map(|i| UserSequences {
                user: UserId(i as u32),
                sessions: vec![
                    vec![0, 1, 2, 0, 1, 2, 0],
                    if i % 2 == 0 {
                        vec![5, 6, 5, 6]
                    } else {
                        vec![5, 6]
                    },
                ],
            })
            .collect();
        TokenizedDataset {
            users,
            vocab_size: 8,
        }
    }

    #[test]
    fn markov_learns_deterministic_transitions() {
        let m = MarkovRecommender::fit(&data()).unwrap();
        assert_eq!(m.vocab_size(), 8);
        assert_eq!(m.top_k(&[0], 1).unwrap(), vec![1]);
        assert_eq!(m.top_k(&[1], 1).unwrap(), vec![2]);
        assert_eq!(m.top_k(&[2], 1).unwrap(), vec![0]);
        assert_eq!(
            m.top_k(&[9, 5], 1).unwrap(),
            vec![6],
            "only the last token matters"
        );
        assert!(m.count(0, 1).unwrap() > 0.0);
        assert_eq!(m.count(0, 5).unwrap(), 0.0);
        assert_eq!(m.count(99, 0), None);
    }

    #[test]
    fn markov_cold_row_falls_back_to_popularity() {
        let m = MarkovRecommender::fit(&data()).unwrap();
        // Token 7 never appears: its row is empty -> popularity ranking,
        // where 0/1/2 dominate.
        let top = m.top_k(&[7], 3).unwrap();
        assert!(top.contains(&0) && top.contains(&1));
    }

    #[test]
    fn markov_rejects_bad_inputs() {
        let m = MarkovRecommender::fit(&data()).unwrap();
        assert!(m.top_k(&[], 3).is_err());
        assert!(m.top_k(&[99], 3).is_err());
        let empty = TokenizedDataset {
            users: vec![],
            vocab_size: 0,
        };
        assert!(MarkovRecommender::fit(&empty).is_err());
        let bad = TokenizedDataset {
            users: vec![UserSequences {
                user: UserId(0),
                sessions: vec![vec![9]],
            }],
            vocab_size: 4,
        };
        assert!(MarkovRecommender::fit(&bad).is_err());
    }

    #[test]
    fn transitions_do_not_cross_session_boundaries() {
        let ds = TokenizedDataset {
            users: vec![UserSequences {
                user: UserId(0),
                sessions: vec![vec![0, 1], vec![2, 3]],
            }],
            vocab_size: 4,
        };
        let m = MarkovRecommender::fit(&ds).unwrap();
        assert_eq!(m.count(1, 2).unwrap(), 0.0);
        assert_eq!(m.count(0, 1).unwrap(), 1.0);
        assert_eq!(m.count(2, 3).unwrap(), 1.0);
    }

    #[test]
    fn dp_markov_with_large_epsilon_matches_plain_ranking() {
        let ds = data();
        let mut rng = StdRng::seed_from_u64(3);
        let dp = DpMarkovRecommender::fit(&mut rng, &ds, 1e6, 100).unwrap();
        assert_eq!(dp.epsilon(), 1e6);
        assert_eq!(dp.per_user_cap(), 100);
        // Noise is ~2e-4: the strong transitions survive.
        assert_eq!(dp.top_k(&[0], 1).unwrap(), vec![1]);
        assert_eq!(dp.top_k(&[1], 1).unwrap(), vec![2]);
    }

    #[test]
    fn dp_markov_with_tiny_epsilon_destroys_structure() {
        let ds = data();
        let mut rng = StdRng::seed_from_u64(5);
        let dp = DpMarkovRecommender::fit(&mut rng, &ds, 1e-3, 10).unwrap();
        // With noise scale 2*10/0.001 = 20000, the true counts (~20) are
        // irrelevant; the argmax is essentially random. Check over many
        // rows that it is not systematically correct.
        let mut correct = 0;
        for _ in 0..20 {
            if dp.top_k(&[0], 1).unwrap() == vec![1] {
                correct += 1;
            }
        }
        // The ranking is deterministic post-noise; it may be right by luck
        // but the *counts* must be noise-dominated.
        let c = dp.statistics().count(0, 1).unwrap().abs();
        assert!(c > 100.0 || correct <= 20, "noise must dominate: count {c}");
    }

    #[test]
    fn per_user_cap_bounds_contribution() {
        // One hyperactive user cannot push a transition above the cap.
        let users = vec![UserSequences {
            user: UserId(0),
            sessions: vec![(0..100).map(|i| i % 2).collect()],
        }];
        let ds = TokenizedDataset {
            users,
            vocab_size: 2,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let dp = DpMarkovRecommender::fit(&mut rng, &ds, 1e9, 3).unwrap();
        // True capped count is at most 3; noise at eps=1e9 is negligible.
        let c01 = dp.statistics().count(0, 1).unwrap();
        let c10 = dp.statistics().count(1, 0).unwrap();
        assert!(c01 + c10 <= 3.0 + 1e-3, "capped total {}", c01 + c10);
    }

    #[test]
    fn dp_markov_validates_parameters() {
        let ds = data();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(DpMarkovRecommender::fit(&mut rng, &ds, 0.0, 5).is_err());
        assert!(DpMarkovRecommender::fit(&mut rng, &ds, f64::NAN, 5).is_err());
        assert!(DpMarkovRecommender::fit(&mut rng, &ds, 1.0, 0).is_err());
        let dp = DpMarkovRecommender::fit(&mut rng, &ds, 1.0, 5).unwrap();
        assert!(dp.top_k(&[], 3).is_err());
        assert!(dp.top_k(&[99], 3).is_err());
    }

    #[test]
    fn rank_trait_unifies_with_embedding_recommender() {
        // Both implementations are callable through the same trait object.
        fn takes_ranker(r: &dyn RankLocations) -> Vec<usize> {
            r.top_k(&[0], 2).unwrap()
        }
        let m = MarkovRecommender::fit(&data()).unwrap();
        assert_eq!(takes_ranker(&m)[0], 1);
    }
}
