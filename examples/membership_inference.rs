//! Membership inference: the attack DP training is meant to blunt.
//!
//! §1 of the paper motivates user-level DP with membership-inference
//! attacks [25, 52]: an adversary holding the model can tell whether a
//! target's data was used in training. This example runs the standard
//! loss-threshold attack against (a) a non-private skip-gram and (b) a
//! PLP model trained under a finite (ε, δ) budget, and compares the
//! attacker's AUC.
//!
//! Run with: `cargo run --release --example membership_inference`

use rand::rngs::StdRng;
use rand::SeedableRng;

use dp_nextloc::core::attacks::loss_threshold_attack;
use dp_nextloc::core::config::Hyperparameters;
use dp_nextloc::core::experiment::{ExperimentConfig, PreparedData};
use dp_nextloc::core::nonprivate::{train_nonprivate, NonPrivateConfig};
use dp_nextloc::core::plp::train_plp;
use dp_nextloc::privacy::PrivacyBudget;

fn main() {
    let prep = PreparedData::generate(&ExperimentConfig::small(321)).expect("data");
    println!(
        "dataset: {} train users, {} held-out users\n",
        prep.train.num_users(),
        prep.test.num_users()
    );

    let hp = Hyperparameters {
        embedding_dim: 24,
        negative_samples: 8,
        budget: PrivacyBudget::new(2.0, 2e-4).expect("budget"),
        max_steps: 60,
        ..Hyperparameters::default()
    };

    // (a) Non-private model: trained to convergence, it memorises more.
    let mut rng = StdRng::seed_from_u64(1);
    let np = train_nonprivate(
        &mut rng,
        &prep.train,
        None,
        &hp,
        &NonPrivateConfig {
            epochs: 15,
            ..NonPrivateConfig::default()
        },
    )
    .expect("non-private training");

    // (b) PLP model under a finite budget.
    let mut rng = StdRng::seed_from_u64(1);
    let plp = train_plp(&mut rng, &prep.train, None, &hp).expect("private training");
    println!(
        "PLP spent eps = {:.3} over {} steps\n",
        plp.summary.epsilon_spent, plp.summary.steps
    );

    // Attack both. Members = training users; non-members = held-out users.
    let mut rng = StdRng::seed_from_u64(2);
    let attack_np = loss_threshold_attack(&mut rng, &np.params, &prep.train, &prep.test, &hp)
        .expect("attack (non-private)");
    let mut rng = StdRng::seed_from_u64(2);
    let attack_plp = loss_threshold_attack(&mut rng, &plp.params, &prep.train, &prep.test, &hp)
        .expect("attack (PLP)");

    println!("loss-threshold membership inference (AUC 0.5 = no leakage):");
    println!(
        "  non-private: AUC {:.3} (advantage {:+.3}); member loss {:.3} vs non-member {:.3}",
        attack_np.auc,
        attack_np.advantage,
        attack_np.member_mean_loss,
        attack_np.nonmember_mean_loss
    );
    println!(
        "  PLP (eps=2): AUC {:.3} (advantage {:+.3}); member loss {:.3} vs non-member {:.3}",
        attack_plp.auc,
        attack_plp.advantage,
        attack_plp.member_mean_loss,
        attack_plp.nonmember_mean_loss
    );
    println!(
        "\nDP bound check: the private model's advantage should sit near 0 \
         (and certainly below e^eps - 1 over trivial baselines)."
    );
}
