//! Quickstart: train a differentially-private next-location model on a
//! synthetic check-in dataset and ask it for recommendations.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;

use dp_nextloc::core::config::Hyperparameters;
use dp_nextloc::core::experiment::{evaluate, ExperimentConfig, PreparedData};
use dp_nextloc::core::plp::train_plp;
use dp_nextloc::model::Recommender;
use dp_nextloc::privacy::PrivacyBudget;

fn main() {
    // 1. Data: a synthetic Foursquare-Tokyo-like dataset (the real export
    //    is not redistributable; see DESIGN.md). Everything is seeded.
    let config = ExperimentConfig::small(42);
    let prep = PreparedData::generate(&config).expect("data generation");
    println!(
        "dataset: {} users / {} locations / {} check-ins",
        prep.stats.num_users, prep.stats.num_locations, prep.stats.num_checkins
    );

    // 2. Hyper-parameters: the paper's defaults, with a small budget so the
    //    example finishes in seconds. delta < 1/N as the paper requires.
    let hp = Hyperparameters {
        embedding_dim: 32,
        budget: PrivacyBudget::new(1.0, 2e-4).expect("valid budget"),
        grouping_factor: 4,
        sampling_prob: 0.06,
        noise_multiplier: 2.5,
        max_steps: 40,
        ..Hyperparameters::default()
    };

    // 3. Train under user-level (epsilon, delta)-DP (Algorithm 1).
    let mut rng = StdRng::seed_from_u64(7);
    let outcome = train_plp(&mut rng, &prep.train, None, &hp).expect("training");
    println!(
        "trained {} private steps, spent epsilon = {:.3} (budget {}), stop: {:?}",
        outcome.summary.steps,
        outcome.summary.epsilon_spent,
        hp.budget.epsilon,
        outcome.summary.stop_reason
    );

    // 4. Evaluate leave-one-out Hit-Rate on held-out users.
    let hr = evaluate(&outcome.params, &prep.test, &[5, 10, 20]).expect("evaluation");
    for h in &hr {
        println!(
            "HR@{:<2} = {:.4}  ({} / {} trials)",
            h.k,
            h.rate(),
            h.hits,
            h.trials
        );
    }

    // 5. Deploy: only the (normalised) embedding matrix ships to devices.
    let recommender = Recommender::new(&outcome.params);
    let recent = prep.test.users[0]
        .sessions()
        .next()
        .expect("a test session");
    let input: Vec<usize> = recent[..recent.len().saturating_sub(1).max(1)]
        .iter()
        .map(|&t| t as usize)
        .collect();
    let top = recommender.recommend(&input, 5).expect("recommendation");
    println!("recent check-ins (tokens): {input:?}");
    println!("top-5 next-location suggestions (tokens): {top:?}");

    // The privacy ledger is the auditable artifact shipped with the model.
    println!(
        "ledger: {} entries, {} steps, independently-recomputed epsilon = {:.3}",
        outcome.ledger.entries().len(),
        outcome.ledger.total_steps(),
        outcome.ledger.epsilon(hp.budget.delta).expect("replay")
    );
}
