//! Privacy-budget planning with the moments accountant.
//!
//! Answers the questions a practitioner asks before training (§5.1, §5.3):
//! how many steps does a budget afford, what noise scale do I need, and
//! how much tighter is the moments accountant than classical composition?
//!
//! Run with: `cargo run --release --example privacy_budget_planning`

use dp_nextloc::privacy::accountant::MomentsAccountant;
use dp_nextloc::privacy::planner::{calibrate_noise, epsilon_for_steps, max_steps};
use dp_nextloc::privacy::PrivacyBudget;

fn main() {
    let delta = PrivacyBudget::paper_delta(); // 2e-4 < 1/4602

    // 1. Steps afforded by a budget at the paper's settings.
    println!("steps afforded by (eps, delta={delta}) at the paper's settings:");
    println!(
        "{:<8} {:<8} {:>8} {:>8} {:>8} {:>8}",
        "q", "sigma", "eps=1", "eps=2", "eps=3", "eps=4"
    );
    for (q, sigma) in [(0.06, 1.5), (0.06, 2.5), (0.10, 1.5), (0.10, 2.5)] {
        let row: Vec<u64> = [1.0, 2.0, 3.0, 4.0]
            .iter()
            .map(|&e| max_steps(q, sigma, PrivacyBudget::new(e, delta).unwrap()).unwrap())
            .collect();
        println!(
            "{:<8} {:<8} {:>8} {:>8} {:>8} {:>8}",
            q, sigma, row[0], row[1], row[2], row[3]
        );
    }

    // 2. Calibrating sigma for a target step count.
    let budget = PrivacyBudget::new(2.0, delta).unwrap();
    for steps in [100u64, 300, 1000] {
        let sigma = calibrate_noise(0.06, steps, budget, 50.0, 1e-4).unwrap();
        println!("to run {steps} steps at q=0.06 within eps=2: sigma >= {sigma:.3}");
    }

    // 3. The moments accountant vs classical composition for T steps.
    let q = 0.06;
    let sigma = 2.5;
    let steps = 300u64;
    let eps_ma = epsilon_for_steps(q, sigma, steps, delta).unwrap();
    // Per-step classical Gaussian mechanism cost (Theorem 2.1 inverted),
    // amplified linearly by q for the naive estimate.
    let eps_step = (2.0 * (1.25f64 / delta).ln()).sqrt() / sigma * q;
    // k mechanisms that are each ε₀-DP compose to k·ε₀ (naive), or to
    // ε₀·√(2k·ln(1/δ′)) + k·ε₀·(e^{ε₀} − 1) for a slack δ′ (advanced,
    // Dwork–Rothblum–Vadhan); here δ′ = δ/2.
    let k = steps as f64;
    let eps_naive = k * eps_step;
    let slack = delta / 2.0;
    let eps_adv =
        eps_step * (2.0 * k * (1.0 / slack).ln()).sqrt() + k * eps_step * eps_step.exp_m1();
    println!("\ncomposing {steps} subsampled-Gaussian steps (q={q}, sigma={sigma}):");
    println!("  naive composition:    eps ~ {eps_naive:.2}");
    println!("  advanced composition: eps ~ {eps_adv:.2}");
    println!("  moments accountant:   eps = {eps_ma:.2}");

    // 4. Live tracking during (simulated) training, as Algorithm 1 does.
    let mut acc = MomentsAccountant::new(delta).unwrap();
    let budget = PrivacyBudget::new(1.0, delta).unwrap();
    let mut step = 0u64;
    loop {
        let peek = acc.epsilon_after_hypothetical_step(q, sigma).unwrap();
        if peek >= budget.epsilon {
            break;
        }
        acc.step(q, sigma).unwrap();
        step += 1;
        if step.is_multiple_of(20) {
            println!("after {step} steps: eps = {:.4}", acc.epsilon().unwrap());
        }
    }
    println!(
        "stopped before step {} — next step would reach eps {:.4} >= budget {}",
        step + 1,
        acc.epsilon_after_hypothetical_step(q, sigma).unwrap(),
        budget.epsilon
    );
}
