//! Leave-one-out Hit-Rate@k evaluation (§5.1).
//!
//! "Given a time-ordered user check-in sequence, recommendation models
//! utilize the first (t−1) location visits as an input and predict the t-th
//! location … HR@k is a recall-based metric, measuring whether the test
//! location is in the top-k locations of the recommendation list."
//!
//! One trial per test trajectory (session): input = all but the last visit,
//! target = the last visit. A popularity baseline and the analytic random
//! baseline are provided for calibration.

use serde::{Deserialize, Serialize};

use plp_data::dataset::TokenizedDataset;
use plp_linalg::topk;

use crate::error::ModelError;
use crate::markov::RankLocations;

/// Hit-rate at one cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HitRate {
    /// The cutoff k.
    pub k: usize,
    /// Trials where the target was in the top-k.
    pub hits: usize,
    /// Total trials.
    pub trials: usize,
}

impl HitRate {
    /// `hits / trials`, `0.0` with no trials.
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }
}

/// Extracts leave-one-out trials from the held-out users: for every session
/// with at least two visits, `(input = all but last, target = last)`.
///
/// Inputs borrow directly from the dataset's sessions — no per-trial copy.
pub fn leave_one_out_trials(test: &TokenizedDataset) -> Vec<(&[usize], usize)> {
    let mut trials = Vec::new();
    for u in &test.users {
        for s in &u.sessions {
            if s.len() >= 2 {
                trials.push((&s[..s.len() - 1], s[s.len() - 1]));
            }
        }
    }
    trials
}

/// Counts hits per cutoff over the strided trial subset
/// `{i : i ≡ offset (mod stride)}` — the shared work kernel of the
/// sequential and threaded evaluators. The strided partition matches the
/// training loop's worker assignment, and since per-`k` hit counts are
/// integers, any recombination of the per-worker partials is exact.
fn hit_counts<R: RankLocations + ?Sized>(
    recommender: &R,
    trials: &[(&[usize], usize)],
    ks: &[usize],
    max_k: usize,
    offset: usize,
    stride: usize,
) -> Result<Vec<usize>, ModelError> {
    let mut hits = vec![0usize; ks.len()];
    for (input, target) in trials.iter().skip(offset).step_by(stride.max(1)) {
        let top = recommender.top_k(input, max_k)?;
        for (i, &k) in ks.iter().enumerate() {
            if top.iter().take(k).any(|&t| t == *target) {
                hits[i] += 1;
            }
        }
    }
    Ok(hits)
}

/// Evaluates HR@k for every `k` in `ks` over the held-out users.
///
/// Works with any ranker — the skip-gram [`crate::Recommender`], the
/// Markov baselines, or anything else implementing
/// [`RankLocations`](crate::markov::RankLocations).
///
/// # Errors
/// Propagates token-range errors from the recommender.
pub fn evaluate_hit_rate<R: RankLocations + ?Sized>(
    recommender: &R,
    test: &TokenizedDataset,
    ks: &[usize],
) -> Result<Vec<HitRate>, ModelError> {
    let trials = leave_one_out_trials(test);
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let hits = hit_counts(recommender, &trials, ks, max_k, 0, 1)?;
    Ok(assemble(ks, hits, trials.len()))
}

/// [`evaluate_hit_rate`] parallelised over trials with `threads` workers.
///
/// Worker `w` evaluates trials `{i : i ≡ w (mod threads)}` and the partial
/// per-`k` hit counts are reduced in worker order. Hit counts are integer
/// sums, so the result is *identical* to the sequential evaluator for every
/// thread count — the companion regression test pins threads=1 against
/// threads=4. `threads ≤ 1` (or fewer trials than workers would need)
/// falls back to the sequential path without spawning.
///
/// # Errors
/// Propagates token-range errors from the recommender; the first failing
/// worker (in worker order) wins.
pub fn evaluate_hit_rate_threaded<R: RankLocations + Sync + ?Sized>(
    recommender: &R,
    test: &TokenizedDataset,
    ks: &[usize],
    threads: usize,
) -> Result<Vec<HitRate>, ModelError> {
    let trials = leave_one_out_trials(test);
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let workers = threads.max(1).min(trials.len().max(1));
    if workers <= 1 {
        let hits = hit_counts(recommender, &trials, ks, max_k, 0, 1)?;
        return Ok(assemble(ks, hits, trials.len()));
    }
    let partials: Vec<Result<Vec<usize>, ModelError>> = std::thread::scope(|scope| {
        let trials = &trials;
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || hit_counts(recommender, trials, ks, max_k, w, workers)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("eval worker panicked"))
            .collect()
    });
    // Deterministic ordered reduction: worker 0 first, then 1, … (exact for
    // integer counts, and the order every future float reduction must keep).
    let mut hits = vec![0usize; ks.len()];
    for partial in partials {
        for (total, h) in hits.iter_mut().zip(partial?) {
            *total += h;
        }
    }
    Ok(assemble(ks, hits, trials.len()))
}

fn assemble(ks: &[usize], hits: Vec<usize>, trials: usize) -> Vec<HitRate> {
    ks.iter()
        .zip(hits)
        .map(|(&k, h)| HitRate { k, hits: h, trials })
        .collect()
}

/// HR@k of a popularity recommender that always returns the globally
/// most-visited locations (counts indexed by token).
pub fn popularity_hit_rate(
    train_counts: &[usize],
    test: &TokenizedDataset,
    ks: &[usize],
) -> Vec<HitRate> {
    let trials = leave_one_out_trials(test);
    let scores: Vec<f64> = train_counts.iter().map(|&c| c as f64).collect();
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let top = topk::top_k_indices(&scores, max_k);
    let mut hits = vec![0usize; ks.len()];
    for (_, target) in &trials {
        for (i, &k) in ks.iter().enumerate() {
            if top.iter().take(k).any(|&t| t == *target) {
                hits[i] += 1;
            }
        }
    }
    ks.iter()
        .zip(hits)
        .map(|(&k, h)| HitRate {
            k,
            hits: h,
            trials: trials.len(),
        })
        .collect()
}

/// The expected HR@k of uniformly random guessing: `k / L`.
pub fn random_baseline(k: usize, vocab_size: usize) -> f64 {
    if vocab_size == 0 {
        0.0
    } else {
        (k.min(vocab_size)) as f64 / vocab_size as f64
    }
}

/// Per-token visit counts of a tokenized dataset (the popularity profile a
/// non-private baseline would use).
pub fn token_counts(data: &TokenizedDataset) -> Vec<usize> {
    let mut counts = vec![0usize; data.vocab_size];
    for u in &data.users {
        for s in &u.sessions {
            for &t in s {
                if t < counts.len() {
                    counts[t] += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_data::checkin::UserId;
    use plp_data::dataset::UserSequences;
    use plp_linalg::Matrix;

    use crate::recommender::Recommender;

    fn test_set(sessions: Vec<Vec<usize>>) -> TokenizedDataset {
        TokenizedDataset {
            users: vec![UserSequences {
                user: UserId(0),
                sessions,
            }],
            vocab_size: 6,
        }
    }

    fn perfect_recommender() -> Recommender {
        // Identity-ish embedding: token i points along axis i (dim 6).
        let m = Matrix::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 });
        Recommender::from_embedding(m).unwrap()
    }

    #[test]
    fn trials_skip_short_sessions() {
        let ds = test_set(vec![vec![1], vec![1, 2], vec![3, 4, 5]]);
        let t = leave_one_out_trials(&ds);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0], (&[1][..], 2));
        assert_eq!(t[1], (&[3, 4][..], 5));
    }

    #[test]
    fn hit_rate_with_self_predicting_embedding() {
        // Session [2, 2]: the input token 2 is most similar to target 2.
        let ds = test_set(vec![vec![2, 2], vec![3, 3]]);
        let r = perfect_recommender();
        let hr = evaluate_hit_rate(&r, &ds, &[1, 3]).unwrap();
        assert_eq!(hr[0].k, 1);
        assert_eq!(hr[0].hits, 2);
        assert_eq!(hr[0].trials, 2);
        assert_eq!(hr[0].rate(), 1.0);
        assert_eq!(hr[1].rate(), 1.0);
    }

    #[test]
    fn hit_rate_zero_when_target_is_orthogonal() {
        // Input 0, target 5: orthogonal axes, and 4 other tokens tie at 0;
        // with k = 1 the top slot goes to token 0 itself (score 1).
        let ds = test_set(vec![vec![0, 5]]);
        let r = perfect_recommender();
        let hr = evaluate_hit_rate(&r, &ds, &[1]).unwrap();
        assert_eq!(hr[0].hits, 0);
    }

    #[test]
    fn empty_test_set_reports_zero_trials() {
        let ds = test_set(vec![]);
        let r = perfect_recommender();
        let hr = evaluate_hit_rate(&r, &ds, &[5]).unwrap();
        assert_eq!(hr[0].trials, 0);
        assert_eq!(hr[0].rate(), 0.0);
    }

    #[test]
    fn popularity_baseline_hits_popular_targets() {
        let counts = vec![100, 50, 10, 5, 1, 0];
        let ds = test_set(vec![vec![3, 0], vec![3, 5]]);
        let hr = popularity_hit_rate(&counts, &ds, &[1, 6]);
        // k=1: top location is 0; first trial's target is 0 => 1 hit.
        assert_eq!(hr[0].hits, 1);
        // k=6: everything is in the list.
        assert_eq!(hr[1].hits, 2);
    }

    #[test]
    fn random_baseline_formula() {
        assert!((random_baseline(10, 5069) - 10.0 / 5069.0).abs() < 1e-15);
        assert_eq!(random_baseline(10, 5), 1.0);
        assert_eq!(random_baseline(10, 0), 0.0);
    }

    #[test]
    fn token_counts_accumulate() {
        let ds = test_set(vec![vec![1, 1, 2], vec![2]]);
        let c = token_counts(&ds);
        assert_eq!(c, vec![0, 2, 2, 0, 0, 0]);
    }

    #[test]
    fn threaded_eval_is_identical_across_thread_counts() {
        // Regression for the deterministic ordered reduction: threads=1 and
        // threads=4 must report identical metrics, and both must match the
        // sequential evaluator.
        let sessions: Vec<Vec<usize>> = (0..23)
            .map(|i| vec![i % 6, (i + 1) % 6, (i * 3 + 2) % 6])
            .collect();
        let ds = test_set(sessions);
        let r = perfect_recommender();
        let ks = [1usize, 3, 5];
        let sequential = evaluate_hit_rate(&r, &ds, &ks).unwrap();
        let one = evaluate_hit_rate_threaded(&r, &ds, &ks, 1).unwrap();
        let four = evaluate_hit_rate_threaded(&r, &ds, &ks, 4).unwrap();
        let many = evaluate_hit_rate_threaded(&r, &ds, &ks, 64).unwrap();
        assert_eq!(one, sequential);
        assert_eq!(four, sequential);
        assert_eq!(many, sequential, "more workers than trials still exact");
    }

    #[test]
    fn threaded_eval_propagates_worker_errors() {
        // Token 9 is out of range for the dim-6 recommender: every worker
        // partition contains failing trials and the error must surface.
        let ds = TokenizedDataset {
            users: vec![UserSequences {
                user: UserId(0),
                sessions: vec![vec![9, 1], vec![9, 2], vec![9, 3]],
            }],
            vocab_size: 10,
        };
        let r = perfect_recommender();
        assert!(evaluate_hit_rate_threaded(&r, &ds, &[1], 2).is_err());
    }
}
