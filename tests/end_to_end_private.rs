//! End-to-end: the private training loop (Algorithm 1) through the public
//! API — budget enforcement, ledger auditability, determinism, and the
//! DP-SGD baseline equivalence.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dp_nextloc::core::config::Hyperparameters;
use dp_nextloc::core::dpsgd::train_dpsgd;
use dp_nextloc::core::experiment::{evaluate, ExperimentConfig, PreparedData};
use dp_nextloc::core::plp::train_plp;
use dp_nextloc::core::telemetry::StopReason;
use dp_nextloc::privacy::PrivacyBudget;

fn tiny() -> ExperimentConfig {
    let mut c = ExperimentConfig::small(55);
    c.generator.num_users = 120;
    c.generator.num_locations = 100;
    c.generator.target_checkins = 5_000;
    c.generator.num_clusters = 5;
    c.validation_users = 10;
    c.test_users = 10;
    c
}

fn fast_hp() -> Hyperparameters {
    Hyperparameters {
        embedding_dim: 12,
        negative_samples: 4,
        sampling_prob: 0.1,
        grouping_factor: 4,
        max_steps: 6,
        budget: PrivacyBudget {
            epsilon: 100.0,
            delta: 2e-4,
        },
        ..Hyperparameters::default()
    }
}

#[test]
fn plp_trains_within_budget_and_ledger_replays() {
    let prep = PreparedData::generate(&tiny()).unwrap();
    let mut hp = fast_hp();
    hp.budget = PrivacyBudget {
        epsilon: 1.2,
        delta: 2e-4,
    };
    hp.max_steps = 10_000;
    let mut rng = StdRng::seed_from_u64(9);
    let out = train_plp(&mut rng, &prep.train, None, &hp).unwrap();

    assert_eq!(out.summary.stop_reason, StopReason::BudgetExhausted);
    assert!(out.summary.epsilon_spent < hp.budget.epsilon);
    assert!(out.summary.steps > 0);
    // Independent replay from the auditable ledger.
    let replayed = out.ledger.epsilon(hp.budget.delta).unwrap();
    assert!((replayed - out.summary.epsilon_spent).abs() < 1e-9);
    assert_eq!(out.ledger.total_steps(), out.summary.steps);
    assert!(out.params.all_finite());
    // The model evaluates cleanly on held-out users.
    let hr = evaluate(&out.params, &prep.test, &[5, 10]).unwrap();
    assert!(hr.iter().all(|h| (0.0..=1.0).contains(&h.rate())));
}

#[test]
fn full_private_pipeline_is_deterministic() {
    let prep = PreparedData::generate(&tiny()).unwrap();
    let hp = fast_hp();
    let run = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        train_plp(&mut rng, &prep.train, None, &hp).unwrap()
    };
    let a = run(31);
    let b = run(31);
    assert_eq!(a.params, b.params);
    assert_eq!(a.summary.steps, b.summary.steps);
    let c = run(32);
    assert_ne!(a.params, c.params, "different seeds must diverge");
}

#[test]
fn dpsgd_baseline_is_plp_with_lambda_one() {
    let prep = PreparedData::generate(&tiny()).unwrap();
    let hp = fast_hp();
    let mut rng = StdRng::seed_from_u64(13);
    let base = train_dpsgd(&mut rng, &prep.train, None, &hp).unwrap();
    let mut hp1 = hp.clone();
    hp1.grouping_factor = 1;
    let mut rng = StdRng::seed_from_u64(13);
    let plp1 = train_plp(&mut rng, &prep.train, None, &hp1).unwrap();
    assert_eq!(base.params, plp1.params);
}

#[test]
fn grouping_factor_reduces_buckets_proportionally() {
    let prep = PreparedData::generate(&tiny()).unwrap();
    let mut hp = fast_hp();
    hp.sampling_prob = 0.5;
    let mut rng = StdRng::seed_from_u64(17);
    let out = train_plp(&mut rng, &prep.train, None, &hp).unwrap();
    for t in &out.telemetry {
        assert_eq!(t.buckets, t.sampled_users.div_ceil(hp.grouping_factor));
    }
}

#[test]
fn privacy_accounting_is_independent_of_grouping() {
    // Same (q, sigma, steps) => same epsilon regardless of lambda: grouping
    // is free privacy-wise, which is the paper's core selling point.
    let prep = PreparedData::generate(&tiny()).unwrap();
    let mut eps = Vec::new();
    for lambda in [1usize, 3, 6] {
        let mut hp = fast_hp();
        hp.grouping_factor = lambda;
        let mut rng = StdRng::seed_from_u64(23);
        let out = train_plp(&mut rng, &prep.train, None, &hp).unwrap();
        eps.push(out.summary.epsilon_spent);
    }
    assert!((eps[0] - eps[1]).abs() < 1e-12);
    assert!((eps[1] - eps[2]).abs() < 1e-12);
}
