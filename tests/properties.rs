//! Property-based tests of the system's core invariants (proptest).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dp_nextloc::data::checkin::UserId;
use dp_nextloc::data::dataset::{TokenizedDataset, UserSequences};
use dp_nextloc::data::grouping::{
    group_data, group_data_split, realized_split_factor, GroupingStrategy,
};
use dp_nextloc::linalg::ops;
use dp_nextloc::model::clip::clip_per_layer;
use dp_nextloc::model::grad::BatchGrad;
use dp_nextloc::model::journal::RowDelta;
use dp_nextloc::model::loss::forward_backward;
use dp_nextloc::model::params::ModelParams;
use dp_nextloc::privacy::planner::epsilon_for_steps;
use dp_nextloc::privacy::rdp::RdpCurve;

fn dataset(num_users: usize, tokens_per_user: usize, vocab: usize) -> TokenizedDataset {
    let users = (0..num_users)
        .map(|i| UserSequences {
            user: UserId(i as u32),
            sessions: vec![(0..tokens_per_user).map(|t| (t * 7 + i) % vocab).collect()],
        })
        .collect();
    TokenizedDataset {
        users,
        vocab_size: vocab,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random grouping partitions the sampled users exactly (ω = 1).
    #[test]
    fn grouping_is_a_partition(
        num_users in 1usize..40,
        lambda in 1usize..8,
        seed in 0u64..1000,
        strategy in prop_oneof![
            Just(GroupingStrategy::Random),
            Just(GroupingStrategy::EqualFrequency)
        ],
    ) {
        let ds = dataset(num_users, 5, 20);
        let sampled: Vec<usize> = (0..num_users).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let buckets = group_data(&mut rng, &sampled, &ds, lambda, strategy).unwrap();
        let mut all: Vec<usize> =
            buckets.iter().flat_map(|b| b.user_indices.iter().copied()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, sampled);
        prop_assert_eq!(realized_split_factor(&buckets), 1);
        // No bucket exceeds lambda members.
        prop_assert!(buckets.iter().all(|b| b.user_indices.len() <= lambda));
        // Token conservation.
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        prop_assert_eq!(total, num_users * 5);
    }

    /// Splitting with ω never exceeds the declared split factor and
    /// conserves every token.
    #[test]
    fn split_grouping_respects_omega(
        num_users in 4usize..30,
        omega in 1usize..4,
        seed in 0u64..500,
    ) {
        let ds = dataset(num_users, 8, 20);
        let sampled: Vec<usize> = (0..num_users).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // lambda = 1 guarantees enough buckets for any omega <= 4.
        match group_data_split(&mut rng, &sampled, &ds, 1, omega) {
            Ok(buckets) => {
                prop_assert!(realized_split_factor(&buckets) <= omega);
                let total: usize = buckets.iter().map(|b| b.len()).sum();
                prop_assert_eq!(total, num_users * 8);
            }
            Err(_) => prop_assert!(omega > num_users, "only fails with too few buckets"),
        }
    }

    /// Per-layer clipping always bounds the global norm by C and never
    /// *increases* any tensor's norm.
    #[test]
    fn clipping_contract(
        rows in 1usize..20,
        scale in 0.001f64..100.0,
        clip in 0.01f64..5.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = dp_nextloc::linalg::sample::NormalSampler::new();
        let mut g = RowDelta::default();
        for r in 0..rows {
            let mut v: Vec<f64> = (0..8).map(|_| sampler.sample_scaled(&mut rng, scale)).collect();
            g.embedding.push_row(r, &v).unwrap();
            v.iter_mut().for_each(|x| *x *= 0.5);
            g.context.push_row(r, &v).unwrap();
            g.bias.push_row(r, &[scale]).unwrap();
        }
        let before = g.tensor_norms();
        clip_per_layer(&mut g, clip).unwrap();
        let after = g.tensor_norms();
        prop_assert!(g.global_norm() <= clip + 1e-9);
        prop_assert!(after.0 <= before.0 + 1e-12);
        prop_assert!(after.1 <= before.1 + 1e-12);
        prop_assert!(after.2 <= before.2 + 1e-12);
    }

    /// The accountant's epsilon is monotone in steps, q and 1/sigma.
    #[test]
    fn accountant_monotonicity(
        q in 0.01f64..0.5,
        sigma in 0.8f64..5.0,
        steps in 1u64..200,
    ) {
        let delta = 1e-5;
        let e = epsilon_for_steps(q, sigma, steps, delta).unwrap();
        let e_more_steps = epsilon_for_steps(q, sigma, steps + 50, delta).unwrap();
        let e_more_q = epsilon_for_steps((q + 0.2).min(1.0), sigma, steps, delta).unwrap();
        let e_more_sigma = epsilon_for_steps(q, sigma + 1.0, steps, delta).unwrap();
        prop_assert!(e > 0.0);
        prop_assert!(e_more_steps > e);
        prop_assert!(e_more_q >= e);
        prop_assert!(e_more_sigma < e);
    }

    /// RDP composition is exactly additive.
    #[test]
    fn rdp_composition_additivity(
        q in 0.01f64..0.3,
        sigma in 1.0f64..4.0,
        a in 1u64..50,
        b in 1u64..50,
    ) {
        let step = RdpCurve::subsampled_gaussian_step(q, sigma, 32).unwrap();
        let mut left = RdpCurve::zero(32).unwrap();
        left.compose_steps(&step, a).unwrap();
        left.compose_steps(&step, b).unwrap();
        let mut right = RdpCurve::zero(32).unwrap();
        right.compose_steps(&step, a + b).unwrap();
        for l in 1..=32 {
            let x = left.log_moment(l).unwrap();
            let y = right.log_moment(l).unwrap();
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// The skip-gram loss is finite and its gradient rows stay within the
    /// candidate set, for arbitrary valid tokens.
    #[test]
    fn loss_gradient_support(
        target in 0usize..30,
        context in 0usize..30,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = ModelParams::init(&mut rng, 30, 6).unwrap();
        let negatives: Vec<usize> =
            (0..5).map(|i| (context + i + 1) % 30).filter(|&n| n != context).collect();
        let mut log = BatchGrad::new();
        let l = forward_backward(&params, &[(target, context)], &negatives, 1.0, &mut log).unwrap();
        prop_assert!(l.is_finite() && l >= 0.0);
        // Read the gradient by applying the record to zeros.
        let mut grad = ModelParams::zeros(30, 6);
        log.apply_to(&mut grad, 1.0).unwrap();
        prop_assert!(grad.all_finite());
        let zero = [0.0; 6];
        for r in 0..30 {
            let candidate = r == context || negatives.contains(&r);
            prop_assert!(r == target || grad.embedding.row(r) == zero);
            prop_assert!(candidate || (grad.context.row(r) == zero && grad.bias[r] == 0.0));
        }
    }

    /// Softmax output is always a probability distribution.
    #[test]
    fn softmax_simplex(logits in prop::collection::vec(-50.0f64..50.0, 1..40)) {
        let mut out = vec![0.0; logits.len()];
        ops::softmax_into(&logits, &mut out).unwrap();
        let sum: f64 = out.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Norm clipping of plain vectors is a projection: applying it twice
    /// equals applying it once.
    #[test]
    fn vector_clip_is_idempotent(
        v in prop::collection::vec(-10.0f64..10.0, 1..30),
        c in 0.01f64..10.0,
    ) {
        let mut once = v.clone();
        ops::clip_to_norm(&mut once, c).unwrap();
        let mut twice = once.clone();
        ops::clip_to_norm(&mut twice, c).unwrap();
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-12);
        }
        prop_assert!(ops::l2_norm(&once) <= c + 1e-9);
    }
}
