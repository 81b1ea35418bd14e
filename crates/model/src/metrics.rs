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
//!
//! A ranker answers through `RankLocations::hit_counts`. The trait's
//! default is the definition — rank, then look the target up — and the
//! skip-gram rankers (a deployed [`crate::Recommender`], or trained
//! [`crate::ModelParams`] as they are) override it with `rank_count_hits`:
//! the target is in the top k iff fewer than k rows beat it, so they count
//! and never rank.

use serde::Serialize;

use plp_data::dataset::TokenizedDataset;
use plp_linalg::matrix::matmul_block_into;
use plp_linalg::par::fan_out;
use plp_linalg::{ops, topk, Matrix};

use crate::error::ModelError;
use crate::markov::RankLocations;

/// Hit-rate at one cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
/// Inputs borrow directly from the dataset's sessions — no per-trial copy —
/// and the list is sized before it is filled, so it is one allocation
/// however many trials there are.
pub fn leave_one_out_trials(test: &TokenizedDataset) -> Vec<(&[usize], usize)> {
    let sessions = || {
        test.users
            .iter()
            .flat_map(|u| &u.sessions)
            .filter(|s| s.len() >= 2)
    };
    let mut trials = Vec::with_capacity(sessions().count());
    trials.extend(sessions().map(|s| (&s[..s.len() - 1], s[s.len() - 1])));
    trials
}

/// Most trials whose profiles a worker holds at a time. The vocabulary is
/// streamed from memory, and raw rows are scaled to unit length, once per
/// chunk; at this length both are a few percent of the scoring.
const CHUNK_TRIALS: usize = 256;
/// Most vocabulary rows loaded into the scratch panel at a time: at
/// dimension 50 that is 25 KB, which stays in L1 while every live profile
/// of the chunk is scored against it.
const PANEL_ROWS: usize = 64;
/// Neither the chunk's profiles nor the panel outgrow this share of the
/// embedding they are scored against: a pass over a small model is cheap
/// and needs no long chunk to pay for it, so a small model gets small
/// scratch.
const SCRATCH_SHARE: usize = 16;
/// Profiles scored against the panel per `matmul_block_into` call.
const BLOCK_TRIALS: usize = 16;

/// A trial still being counted; `live[i]` goes with profile slot `i`.
#[derive(Clone, Copy)]
struct LiveTrial {
    target: usize,
    /// The target's own score; never NaN.
    score: f64,
    /// Rows found so far that beat the target.
    beaten_by: usize,
}

/// What one worker needs to count ranks, sized by the model and by the
/// constants above — never by the number of trials — and allocated once
/// per [`rank_count_hits`] call.
struct RankScratch {
    /// One unit row: a profile's input rows and the target row pass through.
    unit: Vec<f64>,
    /// `chunk × dim` profiles `F(ζ)`.
    profiles: Vec<f64>,
    /// At most `chunk` trials.
    live: Vec<LiveTrial>,
    /// `panel × dim` unit rows.
    panel: Matrix,
    /// `block × panel` scores.
    scores: Vec<f64>,
}

impl RankScratch {
    fn new(chunk: usize, panel: usize, dim: usize) -> Self {
        RankScratch {
            unit: vec![0.0; dim],
            profiles: vec![0.0; chunk * dim],
            live: Vec::with_capacity(chunk),
            panel: Matrix::zeros(panel, dim),
            scores: vec![0.0; BLOCK_TRIALS * panel],
        }
    }
}

/// `Recommender::profile_into` over rows that `load_unit` makes unit
/// length on their way in: same checks, same errors, same accumulation
/// order, hence the same bits.
fn unit_profile_into(
    embedding: &Matrix,
    load_unit: &impl Fn(&[f64], &mut [f64]),
    recent: &[usize],
    unit: &mut [f64],
    out: &mut [f64],
) -> Result<(), ModelError> {
    if recent.is_empty() {
        return Err(ModelError::BadConfig {
            name: "recent",
            expected: "non-empty",
        });
    }
    out.fill(0.0);
    for &t in recent {
        if t >= embedding.rows() {
            return Err(ModelError::TokenOutOfRange {
                token: t,
                vocab: embedding.rows(),
            });
        }
        load_unit(embedding.row(t), unit);
        ops::axpy_unchecked(1.0, unit, out);
    }
    ops::scale(1.0 / recent.len() as f64, out);
    Ok(())
}

/// HR@k without a ranking: hits per cutoff over the strided trial subset
/// `{i : i ≡ offset (mod stride)}`, for a ranker that scores location `j`
/// as `F(ζ) · unit(row j)` — the skip-gram recommender, deployed
/// (`load_unit` copies a row) or still in training (`load_unit` copies and
/// normalises it). It is the body of both `RankLocations::hit_counts`
/// overrides.
///
/// The target is among the top `k` iff fewer than `k` locations come
/// before it in `plp_linalg::topk`'s order — score descending, row id
/// ascending, NaN scores unrankable. So a row *beats* target `t` iff
/// `score > score(t)`, or `score == score(t)` with a lower id; a NaN
/// score beats nothing; a target whose own score is NaN, or that is no
/// row at all, is never listed. Counting the rows that beat the target
/// answers every cutoff at once, and a trial already beaten by the largest
/// cutoff's worth of rows has missed them all and is counted no further.
///
/// Trials are taken a chunk at a time. The vocabulary is walked in panels:
/// a panel's unit rows are loaded into scratch once per chunk and every
/// live profile of the chunk is scored against them, a block per kernel
/// call. Each score is `ops::dot_unchecked(profile, unit row)` — the
/// operands and the fixed-order kernel of `Recommender::scores_into` — so
/// the counts equal the ranking's, bit for bit, whatever the chunking.
pub(crate) fn rank_count_hits(
    embedding: &Matrix,
    load_unit: impl Fn(&[f64], &mut [f64]),
    trials: &[(&[usize], usize)],
    ks: &[usize],
    offset: usize,
    stride: usize,
) -> Result<Vec<usize>, ModelError> {
    let (vocab, dim) = (embedding.rows(), embedding.cols());
    let max_k = ks.iter().copied().max().unwrap_or(0);
    let mut hits = vec![0usize; ks.len()];
    let mut mine = trials.iter().skip(offset).step_by(stride.max(1));
    let share = vocab.div_ceil(SCRATCH_SHARE).max(1);
    let chunk = CHUNK_TRIALS.min(share).min(mine.len());
    let panel = PANEL_ROWS.min(share);
    let mut s = RankScratch::new(chunk, panel, dim);
    while mine.len() > 0 {
        s.live.clear();
        for &(input, target) in mine.by_ref().take(chunk) {
            let slot = s.live.len();
            let profile = &mut s.profiles[slot * dim..(slot + 1) * dim];
            unit_profile_into(embedding, &load_unit, input, &mut s.unit, profile)?;
            if target < vocab {
                load_unit(embedding.row(target), &mut s.unit);
                let score = ops::dot_unchecked(profile, &s.unit);
                if !score.is_nan() {
                    s.live.push(LiveTrial {
                        target,
                        score,
                        beaten_by: 0,
                    });
                }
            }
        }
        for lo in (0..vocab).step_by(panel) {
            // A trial that `max_k` rows beat leaves; the last one takes
            // its slot.
            let mut i = 0;
            while i < s.live.len() {
                if s.live[i].beaten_by >= max_k {
                    s.live.swap_remove(i);
                    let last = s.live.len();
                    s.profiles
                        .copy_within(last * dim..(last + 1) * dim, i * dim);
                } else {
                    i += 1;
                }
            }
            if s.live.is_empty() {
                break;
            }
            // A short last panel leaves stale rows behind it; their scores
            // are computed and not read.
            let rows = panel.min(vocab - lo);
            for r in 0..rows {
                load_unit(embedding.row(lo + r), s.panel.row_mut(r));
            }
            for (b, block) in s.live.chunks_mut(BLOCK_TRIALS).enumerate() {
                let profiles = &s.profiles[b * BLOCK_TRIALS * dim..][..block.len() * dim];
                matmul_block_into(profiles, block.len(), dim, &s.panel, &mut s.scores)?;
                for (trial, scores) in block.iter_mut().zip(s.scores.chunks_exact(panel)) {
                    // Rows below the target win ties; rows from it on do
                    // not (its own score equals `trial.score`).
                    let (below, from) =
                        scores[..rows].split_at(trial.target.clamp(lo, lo + rows) - lo);
                    let t = trial.score;
                    trial.beaten_by += below.iter().filter(|&&x| x >= t).count()
                        + from.iter().filter(|&&x| x > t).count();
                }
            }
        }
        for trial in &s.live {
            for (h, &k) in hits.iter_mut().zip(ks) {
                *h += usize::from(trial.beaten_by < k);
            }
        }
    }
    Ok(hits)
}

/// Evaluates HR@k for every `k` in `ks` over the held-out users, on the
/// calling thread: [`evaluate_hit_rate_threaded`] with one worker.
///
/// Works with any ranker — the skip-gram [`crate::Recommender`], trained
/// [`crate::ModelParams`] not yet deployed, the Markov baselines, or
/// anything else implementing
/// [`RankLocations`](crate::markov::RankLocations).
///
/// # Errors
/// Propagates token-range errors from the recommender.
pub fn evaluate_hit_rate<R: RankLocations + Sync + ?Sized>(
    recommender: &R,
    test: &TokenizedDataset,
    ks: &[usize],
) -> Result<Vec<HitRate>, ModelError> {
    evaluate_hit_rate_threaded(recommender, test, ks, 1)
}

/// HR@k for every `k` in `ks` over the held-out users, the leave-one-out
/// trials fanned over `threads` workers.
///
/// Worker `w` counts the hits of trials `{i : i ≡ w (mod threads)}`
/// ([`RankLocations::hit_counts`]) and the partial per-`k` counts are
/// reduced in worker order. Hit counts are integer sums, so the result is
/// *identical* for every thread count — the companion regression test pins
/// threads=1 against threads=4. Worker 0 is the calling thread
/// ([`fan_out`]), so one worker (or a single trial) spawns nothing.
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
    let workers = threads.max(1).min(trials.len().max(1));
    let partials = fan_out((0..workers).collect(), |w| {
        recommender.hit_counts(&trials, ks, w, workers)
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
    assemble(ks, hits, trials.len())
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use crate::params::ModelParams;
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
    /// The definition: a ranker with nothing but `top_k`, so its hits are
    /// counted by `RankLocations::hit_counts`' default — rank every trial,
    /// look the target up in the list.
    struct ByRanking<'a>(&'a Recommender);

    impl RankLocations for ByRanking<'_> {
        fn top_k(&self, recent: &[usize], k: usize) -> Result<Vec<usize>, ModelError> {
            self.0.top_k(recent, k)
        }
    }

    /// Raw parameters built to make ranks collide: rows are copies of a few
    /// prototypes over `{−1, −0.0, 0, 0.5, 1, 2}` — exact duplicates at ids
    /// on both sides of any target, mutually orthogonal ones (scores of
    /// exactly zero, summed from zeros of both signs) — or rescaled copies
    /// (unit rows that may differ in the last bit), with all-zero rows that
    /// `ops::normalize` leaves unnormalised and, if asked, the odd NaN row
    /// (a NaN target score; a NaN profile).
    fn colliding_params(rng: &mut StdRng, vocab: usize, dim: usize, nan_rows: bool) -> ModelParams {
        const VALUES: [f64; 6] = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0];
        let protos: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..dim).map(|_| VALUES[rng.random_range(0..6)]).collect())
            .collect();
        let mut params = ModelParams::zeros(vocab, dim);
        for r in 0..vocab {
            let row = params.embedding.row_mut(r);
            match rng.random_range(0..20) {
                0 | 1 => {}
                2 if nan_rows => row[0] = f64::NAN,
                kind => {
                    let scale = [1.0, 1.0, 3.0][kind % 3];
                    let proto = &protos[rng.random_range(0..protos.len())];
                    for (x, p) in row.iter_mut().zip(proto) {
                        *x = scale * p;
                    }
                }
            }
        }
        params
    }

    /// One session per user, inputs in range; one target in ten is not a
    /// row of the vocabulary.
    fn random_trials(rng: &mut StdRng, vocab: usize, trials: usize) -> TokenizedDataset {
        let sessions = (0..trials)
            .map(|_| {
                let mut s: Vec<usize> = (0..rng.random_range(1..5))
                    .map(|_| rng.random_range(0..vocab))
                    .collect();
                s.push(if rng.random_range(0..10) == 0 {
                    vocab + 3
                } else {
                    rng.random_range(0..vocab)
                });
                s
            })
            .collect();
        TokenizedDataset {
            users: vec![UserSequences {
                user: UserId(0),
                sessions,
            }],
            vocab_size: vocab,
        }
    }

    proptest! {
        /// Rank counting ≡ the top-k definition, from θ's own rows and from
        /// a deployed copy, for every cutoff and worker count. At these
        /// sizes a panel and a chunk are 1 to 10 long (a sixteenth of the
        /// vocabulary), so a run crosses many of both, with and without a
        /// ragged last panel; trial counts go from none, through fewer
        /// than the workers, to hundreds.
        #[test]
        fn rank_counting_is_the_top_k_definition(
            vocab in prop_oneof![Just(1usize), Just(7), Just(63), Just(64), Just(101), Just(128), Just(150)],
            dim in 1usize..11,
            trials in prop_oneof![0usize..8, 0usize..8, 200usize..700],
            nan_rows in prop_oneof![Just(false), Just(false), Just(true)],
            seed in 0u64..1_000_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = colliding_params(&mut rng, vocab, dim, nan_rows);
            let ds = random_trials(&mut rng, vocab, trials);
            let deployed = Recommender::new(&params);
            // With a cutoff past the vocabulary every trial is counted to
            // the end; with small ones most leave their chunk early.
            for ks in [&[1, 10, vocab, vocab + 5, 0][..], &[3, 1], &[0]] {
                let want = evaluate_hit_rate(&ByRanking(&deployed), &ds, ks).unwrap();
                prop_assert_eq!(want[0].trials, trials);
                for threads in [1, 2, 3, 7] {
                    let counted = evaluate_hit_rate_threaded(&deployed, &ds, ks, threads).unwrap();
                    prop_assert!(counted == want, "deployed, threads={threads}: {counted:?} != {want:?}");
                    let raw = evaluate_hit_rate_threaded(&params, &ds, ks, threads).unwrap();
                    prop_assert!(raw == want, "raw θ, threads={threads}: {raw:?} != {want:?}");
                }
            }
        }
    }

    #[test]
    fn full_length_chunks_and_panels_count_as_the_definition_does() {
        // The smallest vocabulary that gets CHUNK_TRIALS-long chunks and
        // PANEL_ROWS-long panels, plus a ragged last panel of 37 rows; 700
        // trials are three chunks on one worker and two on each of two.
        let vocab = SCRATCH_SHARE * CHUNK_TRIALS + 37;
        let mut rng = StdRng::seed_from_u64(11);
        let params = colliding_params(&mut rng, vocab, 3, false);
        let ds = random_trials(&mut rng, vocab, 700);
        let deployed = Recommender::new(&params);
        for ks in [&[1, 10][..], &[vocab + 5]] {
            let want = evaluate_hit_rate(&ByRanking(&deployed), &ds, ks).unwrap();
            for threads in [1, 2] {
                assert_eq!(
                    evaluate_hit_rate_threaded(&deployed, &ds, ks, threads).unwrap(),
                    want
                );
                assert_eq!(
                    evaluate_hit_rate_threaded(&params, &ds, ks, threads).unwrap(),
                    want
                );
            }
        }
    }

    #[test]
    fn a_tie_is_broken_by_row_id_on_both_sides_of_the_target() {
        // Five identical rows and an orthogonal one: every score against
        // input 0 is exactly 1 but row 5's, so the target's rank is its id.
        let m = Matrix::from_fn(6, 2, |r, c| if (r == 5) == (c == 1) { 3.0 } else { 0.0 });
        let mut params = ModelParams::zeros(6, 2);
        params.embedding = m;
        for target in 0..5 {
            let ds = test_set(vec![vec![0, target]]);
            let hr = evaluate_hit_rate(&params, &ds, &[target, target + 1]).unwrap();
            assert_eq!((hr[0].hits, hr[1].hits), (0, 1), "target {target}");
            let deployed = Recommender::new(&params);
            assert_eq!(
                evaluate_hit_rate(&deployed, &ds, &[target, target + 1]).unwrap(),
                hr
            );
        }
        // The orthogonal row scores 0 and comes last whatever its id.
        let ds = test_set(vec![vec![0, 5]]);
        let hr = evaluate_hit_rate(&params, &ds, &[5, 6]).unwrap();
        assert_eq!((hr[0].hits, hr[1].hits), (0, 1));
    }

    #[test]
    fn a_nan_target_score_never_hits_and_a_nan_row_beats_nothing() {
        let mut m = Matrix::from_fn(4, 2, |_, _| 1.0);
        m.set(2, 0, f64::NAN);
        let rec = Recommender::from_prenormalized(m.clone());
        let mut params = ModelParams::zeros(4, 2);
        params.embedding = m;
        // Target 2 scores NaN: not listed even when k covers everything.
        // Target 3 ties with rows 0 and 1, which have lower ids, and the
        // NaN row between them does not count.
        let ds = test_set(vec![vec![0, 2], vec![0, 3]]);
        for hr in [
            evaluate_hit_rate(&rec, &ds, &[2, 3, 9]).unwrap(),
            evaluate_hit_rate(&params, &ds, &[2, 3, 9]).unwrap(),
            evaluate_hit_rate(&ByRanking(&rec), &ds, &[2, 3, 9]).unwrap(),
        ] {
            assert_eq!([hr[0].hits, hr[1].hits, hr[2].hits], [0, 1, 1]);
        }
    }

    #[test]
    fn the_first_error_in_worker_order_surfaces_from_either_path() {
        // Trial 3 reads token 900 and trial 4 token 901. One worker meets
        // trial 3 first; of two, worker 0 holds trials {0, 2, 4} and its
        // error wins over worker 1's, which holds trial 3.
        let mut sessions: Vec<Vec<usize>> = (0..6).map(|i| vec![i, (i + 1) % 6]).collect();
        sessions[3] = vec![1, 900, 2];
        sessions[4] = vec![901, 2];
        let ds = test_set(sessions);
        let rec = perfect_recommender();
        let mut params = ModelParams::zeros(6, 6);
        params.embedding = rec.embedding().clone();
        for (threads, token) in [(1, 900), (2, 901), (3, 900)] {
            let errors = [
                evaluate_hit_rate_threaded(&rec, &ds, &[1], threads).unwrap_err(),
                evaluate_hit_rate_threaded(&params, &ds, &[1], threads).unwrap_err(),
                evaluate_hit_rate_threaded(&ByRanking(&rec), &ds, &[1], threads).unwrap_err(),
            ];
            for e in errors {
                assert!(
                    matches!(e, ModelError::TokenOutOfRange { token: t, vocab: 6 } if t == token),
                    "threads={threads}: {e:?}"
                );
            }
        }
    }
}
