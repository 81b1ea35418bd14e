//! How often the bucket hot path and an evaluation allocate, and how much
//! at once — counted, not argued.
//!
//! The whole binary runs behind a counting allocator, so it holds exactly
//! one test function: the count is process-wide and a second test running
//! beside it would be counted too. Run it optimised
//! (`cargo test --release -p plp-model --test alloc_count -- --nocapture`):
//! it prints the figures DESIGN.md quotes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use plp_data::checkin::UserId;
use plp_data::dataset::{TokenizedDataset, UserSequences};
use plp_mmap::CountingAllocator;
use plp_model::clip::clip_per_layer;
use plp_model::journal::{CowParams, RowJournal};
use plp_model::metrics::evaluate_hit_rate_threaded;
use plp_model::train::{train_on_tokens, LocalSgdConfig, TrainScratch};
use plp_model::{Loss, ModelParams, NegativeSampler, ParamsViewMut, Recommender};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATOR.allocations();
    let out = f();
    (out, ALLOCATOR.allocations() - before)
}

#[test]
fn hot_paths_allocate_by_shape_and_never_by_volume() {
    a_warm_worker_allocates_nothing();
    an_evaluation_allocates_per_worker_and_never_per_trial_or_per_theta();
}

/// Validation of raw θ at vocab 20 000 × dim 50: the number of allocations
/// is a function of the worker count alone, and none of them is anywhere
/// near the size of the embedding.
fn an_evaluation_allocates_per_worker_and_never_per_trial_or_per_theta() {
    let (vocab, dim) = (20_000, 50);
    let theta = ModelParams::init(&mut StdRng::seed_from_u64(1), vocab, dim).unwrap();
    let theta_bytes = (vocab * dim * 8) as u64;
    let mut rng = StdRng::seed_from_u64(6);
    let mut held_out = |trials: usize| TokenizedDataset {
        users: (0..trials)
            .map(|u| UserSequences {
                user: UserId(u as u32),
                sessions: vec![(0..5).map(|_| rng.random_range(0..vocab)).collect()],
            })
            .collect(),
        vocab_size: vocab,
    };
    let (few, many) = (held_out(64), held_out(2_048));

    // The counter sees a θ-sized request when there is one: deploying a
    // normalised copy, which evaluation used to start with.
    ALLOCATOR.reset_largest();
    drop(Recommender::new(&theta));
    assert!(ALLOCATOR.largest_request() >= theta_bytes);

    for threads in [1, 2] {
        let eval = |split: &TokenizedDataset| {
            evaluate_hit_rate_threaded(&theta, split, &[10], threads).unwrap()[0].trials
        };
        eval(&many);
        ALLOCATOR.reset_largest();
        let (trials_few, allocations_few) = counted(|| eval(&few));
        let (trials_many, allocations_many) = counted(|| eval(&many));
        let largest = ALLOCATOR.largest_request();
        println!(
            "evaluation, warm, {threads} worker(s): {allocations_few} allocations for \
             {trials_few} trials, {allocations_many} for {trials_many}; largest request \
             {largest} bytes (θ's embedding is {theta_bytes})"
        );
        assert_eq!((trials_few, trials_many), (64, 2_048));
        assert_eq!(
            allocations_few, allocations_many,
            "allocations must not depend on the number of trials"
        );
        assert!(
            largest < theta_bytes,
            "{largest} bytes in one request; θ's embedding is {theta_bytes}"
        );
    }
}

fn a_warm_worker_allocates_nothing() {
    let (vocab, dim) = (20_000, 50);
    let theta = ModelParams::init(&mut StdRng::seed_from_u64(1), vocab, dim).unwrap();
    let mut aggregate = ModelParams::zeros(vocab, dim);
    let mut journal = RowJournal::new();

    // The delta path on its own: first touches → take_delta → clip →
    // accumulate → buffers returned.
    let mut delta_path = |rows: usize| {
        let mut phi = CowParams::new(&theta, &mut journal);
        for i in 0..rows {
            let r = (i * 7919) % vocab;
            phi.embedding_row_mut(r)[0] += 1.0;
            phi.context_row_mut(r)[1] -= 1.0;
            *phi.bias_at_mut(r) += 0.5;
        }
        let mut delta = journal.take_delta(&theta);
        assert_eq!(delta.touched_rows(), 3 * rows);
        clip_per_layer(&mut delta, 0.5).unwrap();
        delta.accumulate_into(&mut aggregate).unwrap();
        journal.recycle(delta);
    };
    delta_path(10_000);
    let ((), few) = counted(|| delta_path(100));
    let ((), many) = counted(|| delta_path(10_000));
    println!("delta path, warm: {few} allocations for 100 rows, {many} for 10 000");
    assert_eq!(few, many, "allocations must not depend on rows touched");
    assert_eq!(many, 0, "a warm delta path has nothing left to allocate");

    // A whole bucket at the paper's settings: 401 tokens are 1 598 pairs,
    // 50 batches of 32, each pair with 16 negatives out of 20 000 rows —
    // nearly every touch is a first touch. Half the tokens are half the
    // batches.
    let cfg = LocalSgdConfig {
        learning_rate: 0.06,
        batch_size: 32,
        window: 2,
        negatives: 16,
        loss: Loss::SampledSoftmax,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let tokens: Vec<usize> = (0..401).map(|_| rng.random_range(0..vocab)).collect();
    let mut scratch = TrainScratch::new();
    let mut bucket = |seed: u64, tokens: &[usize]| {
        let touches = tokens.len() * 2 * cfg.window * (cfg.negatives + 1);
        journal.reset();
        journal.reserve(tokens.len(), vocab.min(touches), dim);
        let stats = train_on_tokens(
            &mut StdRng::seed_from_u64(seed),
            &mut CowParams::new(&theta, &mut journal),
            tokens,
            &cfg,
            &NegativeSampler::Uniform,
            &mut scratch,
        )
        .unwrap();
        let mut delta = journal.take_delta(&theta);
        let rows = delta.touched_rows();
        clip_per_layer(&mut delta, 0.5).unwrap();
        delta.accumulate_into(&mut aggregate).unwrap();
        journal.recycle(delta);
        (stats.batches, rows)
    };
    bucket(3, &tokens);
    bucket(4, &tokens);
    let ((batches_half, _), half) = counted(|| bucket(5, &tokens[..201]));
    let ((batches, rows), whole) = counted(|| bucket(5, &tokens));
    println!(
        "whole bucket, warm: {half} allocations over {batches_half} batches, {whole} over \
         {batches} batches and {rows} delta rows"
    );
    assert_eq!((batches_half, batches), (25, 50));
    assert!(rows > 20_000, "the bucket must be wide: {rows} rows");
    assert_eq!(half, whole, "allocations must not depend on batches run");
    assert_eq!(whole, 0, "a warm bucket has nothing left to allocate");
}
