//! Sweep builders: one function per paper figure.
//!
//! Each builder returns the list of [`SweepPoint`]s whose evaluation
//! regenerates the figure's series. The builders only *describe* the sweep;
//! `runner::run_point` executes it, and the `fig*` binaries drive the
//! execution at the chosen scale.

use plp_core::config::Hyperparameters;
use plp_privacy::PrivacyBudget;

use crate::runner::{Scale, SweepPoint};

fn budget(eps: f64) -> PrivacyBudget {
    PrivacyBudget {
        epsilon: eps,
        delta: 2e-4,
    }
}

fn plp_point(label: &str, x: f64, hp: Hyperparameters, lambda: usize) -> SweepPoint {
    let mut hp = hp;
    hp.grouping_factor = lambda;
    SweepPoint {
        method: format!("{label} λ={lambda}"),
        x,
        hp,
        dpsgd: false,
    }
}

fn dpsgd_point(x: f64, hp: Hyperparameters) -> SweepPoint {
    SweepPoint {
        method: "DP-SGD".to_string(),
        x,
        hp,
        dpsgd: true,
    }
}

/// Figure 7: HR@10 vs privacy budget ε ∈ {0.5, 1, 2, 3, 4} for PLP (λ = 6,
/// λ = 4) and DP-SGD, at σ = 1.5 and q ∈ {0.06, 0.10}.
pub fn fig07(scale: Scale, q: f64) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &eps in &[0.5, 1.0, 2.0, 3.0, 4.0] {
        let mut hp = scale.hyperparameters();
        hp.sampling_prob = q;
        hp.noise_multiplier = 1.5;
        hp.budget = budget(eps);
        points.push(plp_point("PLP", eps, hp.clone(), 6));
        points.push(plp_point("PLP", eps, hp.clone(), 4));
        points.push(dpsgd_point(eps, hp));
    }
    points
}

/// Figure 8: HR@10 vs sampling ratio q ∈ {0.04 .. 0.12} at ε = 2 for PLP
/// (λ = 6, λ = 4) and DP-SGD (σ = paper default 2.5).
pub fn fig08(scale: Scale) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &q in &[0.04, 0.06, 0.08, 0.10, 0.12] {
        let mut hp = scale.hyperparameters();
        hp.sampling_prob = q;
        hp.noise_multiplier = 2.5;
        hp.budget = budget(2.0);
        points.push(plp_point("PLP", q, hp.clone(), 6));
        points.push(plp_point("PLP", q, hp.clone(), 4));
        points.push(dpsgd_point(q, hp));
    }
    points
}

/// Figure 9: runtime-improvement factor of PLP over DP-SGD vs λ ∈ {2..6},
/// for (q, σ) ∈ {0.06, 0.10} × {1.5, 2.5}. Returns (label, q, σ, λ) tuples;
/// the harness measures wall-clock at a fixed number of steps and reports
/// `t(DP-SGD)/t(PLP λ)`.
pub fn fig09_settings() -> Vec<(String, f64, f64, usize)> {
    let mut out = Vec::new();
    for &(q, sigma) in &[(0.06, 1.5), (0.06, 2.5), (0.10, 1.5), (0.10, 2.5)] {
        for lambda in 2..=6usize {
            out.push((format!("q={q}, σ={sigma}"), q, sigma, lambda));
        }
    }
    out
}

/// Figure 10: HR@10 vs grouping factor λ ∈ {1..6} at ε = 2, C = 0.5, for
/// (q, σ) ∈ {0.06, 0.10} × {2, 3}.
pub fn fig10(scale: Scale) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &(q, sigma) in &[(0.06, 2.0), (0.06, 3.0), (0.10, 2.0), (0.10, 3.0)] {
        for lambda in 1..=6usize {
            let mut hp = scale.hyperparameters();
            hp.sampling_prob = q;
            hp.noise_multiplier = sigma;
            hp.budget = budget(2.0);
            hp.grouping_factor = lambda;
            points.push(SweepPoint {
                method: format!("q={q}, σ={sigma}"),
                x: lambda as f64,
                hp,
                dpsgd: false,
            });
        }
    }
    points
}

/// Figure 11: HR@10 vs noise scale σ ∈ {1.0 .. 3.0} for
/// (q, ε) ∈ {0.06, 0.10} × {2, 4}, λ = 4.
pub fn fig11(scale: Scale) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &(q, eps) in &[(0.06, 2.0), (0.06, 4.0), (0.10, 2.0), (0.10, 4.0)] {
        for &sigma in &[1.0, 1.5, 2.0, 2.5, 3.0] {
            let mut hp = scale.hyperparameters();
            hp.sampling_prob = q;
            hp.noise_multiplier = sigma;
            hp.budget = budget(eps);
            points.push(SweepPoint {
                method: format!("q={q}, ε={eps}"),
                x: sigma,
                hp,
                dpsgd: false,
            });
        }
    }
    points
}

/// Figure 12: HR@10 vs clipping norm C for (q, λ) ∈ {0.06, 0.10} × {4, 6}
/// at ε = 2, σ = 2.5.
pub fn fig12(scale: Scale) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &(q, lambda) in &[(0.06, 4usize), (0.06, 6), (0.10, 4), (0.10, 6)] {
        for &c in &[0.1, 0.3, 0.5, 0.7, 1.0] {
            let mut hp = scale.hyperparameters();
            hp.sampling_prob = q;
            hp.noise_multiplier = 2.5;
            hp.clip_norm = c;
            hp.budget = budget(2.0);
            hp.grouping_factor = lambda;
            points.push(SweepPoint {
                method: format!("q={q}, λ={lambda}"),
                x: c,
                hp,
                dpsgd: false,
            });
        }
    }
    points
}

/// Figure 13: HR@10 vs negatives neg ∈ {4, 8, 16, 32, 64} for
/// (q, C) ∈ {0.06, 0.10} × {0.3, 0.5}, λ = 4, ε = 2, σ = 2.5.
pub fn fig13(scale: Scale) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &(q, c) in &[(0.06, 0.5), (0.06, 0.3), (0.10, 0.5), (0.10, 0.3)] {
        for &neg in &[4usize, 8, 16, 32, 64] {
            let mut hp = scale.hyperparameters();
            hp.sampling_prob = q;
            hp.noise_multiplier = 2.5;
            hp.clip_norm = c;
            hp.budget = budget(2.0);
            hp.negative_samples = neg;
            points.push(SweepPoint {
                method: format!("q={q}, C={c}"),
                x: neg as f64,
                hp,
                dpsgd: false,
            });
        }
    }
    points
}

/// §4.2 ablation: split factor ω ∈ {1, 2} with correctly scaled noise,
/// at ε = 2, σ = 2.5, λ = 1 (mirroring the paper's experiment, which split
/// "a user's data to exactly two random buckets").
pub fn ablation_omega(scale: Scale) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for omega in [1usize, 2] {
        let mut hp = scale.hyperparameters();
        hp.split_factor = omega;
        hp.grouping_factor = 1;
        hp.budget = budget(2.0);
        points.push(SweepPoint {
            method: format!("ω={omega}"),
            x: omega as f64,
            hp,
            dpsgd: false,
        });
    }
    points
}

/// §4.1 ablation: random vs equal-frequency grouping at the default
/// configuration (the paper found no significant difference).
pub fn ablation_grouping(scale: Scale) -> Vec<SweepPoint> {
    use plp_core::config::GroupingStrategyConfig;
    let mut points = Vec::new();
    for (label, strategy) in [
        ("random", GroupingStrategyConfig::Random),
        ("equal-frequency", GroupingStrategyConfig::EqualFrequency),
    ] {
        let mut hp = scale.hyperparameters();
        hp.grouping_strategy = strategy;
        hp.budget = budget(2.0);
        points.push(SweepPoint {
            method: label.to_string(),
            x: 0.0,
            hp,
            dpsgd: false,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_covers_methods_and_epsilons() {
        let pts = fig07(Scale::Bench, 0.06);
        assert_eq!(pts.len(), 15);
        assert!(pts.iter().all(|p| p.hp.validate().is_ok()));
        assert_eq!(pts.iter().filter(|p| p.dpsgd).count(), 5);
        let eps: Vec<f64> = pts.iter().map(|p| p.x).collect();
        assert!(eps.contains(&0.5) && eps.contains(&4.0));
    }

    #[test]
    fn fig08_varies_q_only() {
        let pts = fig08(Scale::Bench);
        assert_eq!(pts.len(), 15);
        for p in &pts {
            assert_eq!(p.hp.budget.epsilon, 2.0);
            assert_eq!(p.hp.sampling_prob, p.x);
        }
    }

    #[test]
    fn fig09_settings_cover_grid() {
        let s = fig09_settings();
        assert_eq!(s.len(), 4 * 5);
        assert!(s.iter().all(|(_, q, sigma, l)| {
            (*q == 0.06 || *q == 0.10) && (*sigma == 1.5 || *sigma == 2.5) && (2..=6).contains(l)
        }));
    }

    #[test]
    fn fig10_lambda_matches_x() {
        let pts = fig10(Scale::Bench);
        assert_eq!(pts.len(), 24);
        for p in &pts {
            assert_eq!(p.hp.grouping_factor as f64, p.x);
        }
    }

    #[test]
    fn fig11_sigma_matches_x() {
        let pts = fig11(Scale::Bench);
        assert_eq!(pts.len(), 20);
        for p in &pts {
            assert_eq!(p.hp.noise_multiplier, p.x);
        }
    }

    #[test]
    fn fig12_clip_matches_x() {
        let pts = fig12(Scale::Bench);
        assert_eq!(pts.len(), 20);
        for p in &pts {
            assert_eq!(p.hp.clip_norm, p.x);
        }
    }

    #[test]
    fn fig13_neg_matches_x() {
        let pts = fig13(Scale::Bench);
        assert_eq!(pts.len(), 20);
        for p in &pts {
            assert_eq!(p.hp.negative_samples as f64, p.x);
        }
    }

    #[test]
    fn ablations_are_well_formed() {
        let o = ablation_omega(Scale::Bench);
        assert_eq!(o.len(), 2);
        assert_eq!(o[1].hp.split_factor, 2);
        let g = ablation_grouping(Scale::Bench);
        assert_eq!(g.len(), 2);
        assert!(g.iter().all(|p| p.hp.validate().is_ok()));
    }
}
