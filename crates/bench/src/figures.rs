//! The experiment table and the sweep builders behind it.
//!
//! [`EXPERIMENTS`] has one row per experiment of the evaluation; the
//! `figures` binary is a loop over it, and adding a figure is adding a row.
//! A row is either a sweep — builders returning the [`SweepPoint`]s whose
//! evaluation regenerates the figure's series, which only *describe* the
//! sweep and leave execution to `runner::drive_sweep` — or one of the
//! custom experiments in `crate::custom`.

use plp_core::config::Hyperparameters;
use plp_core::experiment::PreparedData;
use plp_core::CoreError;
use plp_privacy::PrivacyBudget;

use self::Run::{Custom, Sweep};
use crate::custom;
use crate::runner::{drive_sweep, Panel, Scale, SweepPoint};

/// What one `figures run` was asked for, `--seeds` already defaulted from
/// the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Experiment scale (`--scale bench|figure`).
    pub scale: Scale,
    /// Master seed (`--seed N`).
    pub seed: u64,
    /// Repetitions pooled per point, or pairs of a paired test (`--seeds N`).
    pub seeds: usize,
}

impl Options {
    /// The seeded city at this scale.
    pub(crate) fn prepare(&self) -> Result<PreparedData, CoreError> {
        PreparedData::generate(&self.scale.experiment_config(self.seed))
    }
}

/// One table of a sweep row: its label, what it adds to the master seed,
/// and the builder of its points.
type PanelSpec = (&'static str, u64, fn(Scale) -> Vec<SweepPoint>);

/// How a row of [`EXPERIMENTS`] runs.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// A parameter sweep: each panel is driven by `drive_sweep` under the
    /// row's description.
    Sweep(&'static [PanelSpec]),
    /// Anything else.
    Custom(fn(&Options) -> Result<(), CoreError>),
}

/// One experiment of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// What `figures run` takes and `results/<name>.txt` is named after.
    pub name: &'static str,
    /// One line for the usage text, and the header of a sweep's tables.
    pub description: &'static str,
    /// `--seeds` when it is not given.
    pub default_seeds: usize,
    run: Run,
}

impl Experiment {
    /// The panels of a sweep row at `scale` (none for a custom row).
    fn panels(&self, scale: Scale) -> Vec<Panel> {
        let Run::Sweep(specs) = self.run else {
            return Vec::new();
        };
        let panel = |&(figure, seed_offset, points): &PanelSpec| Panel {
            figure,
            description: self.description,
            seed_offset,
            points: points(scale),
        };
        specs.iter().map(panel).collect()
    }

    /// Runs the experiment, printing its tables to stdout.
    ///
    /// # Errors
    /// Propagates the first pipeline error.
    pub fn run(&self, opts: &Options) -> Result<(), CoreError> {
        if let Run::Custom(f) = self.run {
            return f(opts);
        }
        let prep = opts.prepare()?;
        for panel in self.panels(opts.scale) {
            drive_sweep(&panel, &prep, opts.seed, opts.seeds)?;
        }
        Ok(())
    }
}

const fn row(
    name: &'static str,
    description: &'static str,
    default_seeds: usize,
    run: Run,
) -> Experiment {
    Experiment {
        name,
        description,
        default_seeds,
        run,
    }
}

/// Every experiment `figures run` knows, in `--all` order: the quick sanity
/// run, the paper's figures, the ablations, the baselines and the tests,
/// and last the slowest.
#[rustfmt::skip] // one row a line
pub const EXPERIMENTS: &[Experiment] = &[
    row("smoke", "step budgets, a short non-private run, PLP vs DP-SGD, baselines", 1, Custom(custom::smoke)),
    row("fig05_hparam_grid", "non-private validation HR@k vs one of dim, win, b, neg", 1, Custom(custom::fig05)),
    row("fig06_nonprivate_training", "non-private loss and validation/test HR@k over epochs", 1, Custom(custom::fig06)),
    row("fig07_plp_vs_dpsgd_eps", "HR@10 vs privacy budget eps (sigma=1.5)", 1,
        Sweep(&[("fig07(q=0.06)", 60, |s| fig07(s, 0.06)), ("fig07(q=0.1)", 100, |s| fig07(s, 0.10))])),
    row("fig08_vary_q", "HR@10 vs sampling probability q (eps=2)", 1, Sweep(&[("fig08", 0, fig08)])),
    row("fig09_runtime_vs_lambda", "wall-clock factor of PLP over DP-SGD vs lambda", 1, Custom(custom::fig09)),
    row("fig10_vary_lambda", "HR@10 vs grouping factor lambda (eps=2, C=0.5)", 1, Sweep(&[("fig10", 0, fig10)])),
    row("fig11_vary_sigma", "HR@10 vs noise scale sigma (lambda=4)", 1, Sweep(&[("fig11", 0, fig11)])),
    row("fig12_vary_clip", "HR@10 vs clipping norm C (eps=2, sigma=2.5)", 1, Sweep(&[("fig12", 0, fig12)])),
    row("fig13_vary_neg", "HR@10 vs negative samples neg (eps=2, sigma=2.5)", 1, Sweep(&[("fig13", 0, fig13)])),
    row("baseline_markov", "popularity, Markov, DP-Markov and skip-gram under one harness", 1, Custom(custom::baseline_markov)),
    row("ttest_plp_vs_dpsgd", "paired t-test, PLP (lambda=4) vs DP-SGD at eps=2", 5, Custom(custom::ttest)),
    row("ttest_plp_vs_dpsgd_eps3", "the same test at eps=3 under a 700-step cap", 3, Custom(custom::ttest_eps3)),
    row("probe", "clip fraction and loss of DP-SGD and PLP at eps=3, sigma=2.5", 1, Custom(custom::probe)),
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

pub(crate) fn budget(epsilon: f64) -> PrivacyBudget {
    PrivacyBudget {
        epsilon,
        delta: 2e-4,
    }
}

/// A PLP point at budget `eps`: the scale's hyper-parameters as `set` edits
/// them.
fn point(
    scale: Scale,
    method: String,
    x: f64,
    eps: f64,
    set: impl FnOnce(&mut Hyperparameters),
) -> SweepPoint {
    let mut hp = scale.hyperparameters();
    hp.budget = budget(eps);
    set(&mut hp);
    SweepPoint {
        method,
        x,
        hp,
        dpsgd: false,
    }
}

/// PLP (λ = 6), PLP (λ = 4) and DP-SGD at one x of Figures 7 and 8.
fn method_triple(scale: Scale, x: f64, eps: f64, q: f64, sigma: f64) -> [SweepPoint; 3] {
    let common = |hp: &mut Hyperparameters| {
        hp.sampling_prob = q;
        hp.noise_multiplier = sigma;
    };
    let plp = |lambda: usize| {
        point(scale, format!("PLP λ={lambda}"), x, eps, |hp| {
            common(hp);
            hp.grouping_factor = lambda;
        })
    };
    let mut dpsgd = point(scale, "DP-SGD".to_string(), x, eps, common);
    dpsgd.dpsgd = true;
    [plp(6), plp(4), dpsgd]
}

/// Figure 7: HR@10 vs privacy budget ε ∈ {0.5, 1, 2, 3, 4} for PLP (λ = 6,
/// λ = 4) and DP-SGD, at σ = 1.5 and q ∈ {0.06, 0.10}.
pub fn fig07(scale: Scale, q: f64) -> Vec<SweepPoint> {
    let epsilons = [0.5, 1.0, 2.0, 3.0, 4.0];
    let triples = epsilons.map(|eps| method_triple(scale, eps, eps, q, 1.5));
    triples.into_iter().flatten().collect()
}

/// Figure 8: HR@10 vs sampling ratio q ∈ {0.04 .. 0.12} at ε = 2 for PLP
/// (λ = 6, λ = 4) and DP-SGD (σ = paper default 2.5).
pub fn fig08(scale: Scale) -> Vec<SweepPoint> {
    let ratios = [0.04, 0.06, 0.08, 0.10, 0.12];
    let triples = ratios.map(|q| method_triple(scale, q, 2.0, q, 2.5));
    triples.into_iter().flatten().collect()
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
            let method = format!("q={q}, σ={sigma}");
            points.push(point(scale, method, lambda as f64, 2.0, |hp| {
                hp.sampling_prob = q;
                hp.noise_multiplier = sigma;
                hp.grouping_factor = lambda;
            }));
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
            points.push(point(scale, format!("q={q}, ε={eps}"), sigma, eps, |hp| {
                hp.sampling_prob = q;
                hp.noise_multiplier = sigma;
            }));
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
            points.push(point(scale, format!("q={q}, λ={lambda}"), c, 2.0, |hp| {
                hp.sampling_prob = q;
                hp.noise_multiplier = 2.5;
                hp.clip_norm = c;
                hp.grouping_factor = lambda;
            }));
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
            let method = format!("q={q}, C={c}");
            points.push(point(scale, method, neg as f64, 2.0, |hp| {
                hp.sampling_prob = q;
                hp.noise_multiplier = 2.5;
                hp.clip_norm = c;
                hp.negative_samples = neg;
            }));
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_unique_and_every_sweep_row_is_runnable_at_both_scales() {
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert!(names.iter().all(|n| find(n).is_some_and(|e| e.name == *n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert!(find("fig99_nothing").is_none());

        for e in EXPERIMENTS {
            assert!(e.default_seeds >= 1, "{}", e.name);
            for scale in [Scale::Bench, Scale::Figure] {
                let panels = e.panels(scale);
                assert_eq!(panels.is_empty(), matches!(e.run, Run::Custom(_)));
                for panel in &panels {
                    assert!(!panel.points.is_empty(), "{}", panel.figure);
                    for p in &panel.points {
                        assert_eq!(p.hp.validate(), Ok(()), "{} {}", panel.figure, p.method);
                    }
                }
            }
        }
        // Figure 7's two q panels keep their labels and draw apart.
        let fig07 = find("fig07_plp_vs_dpsgd_eps").unwrap().panels(Scale::Bench);
        let labels: Vec<_> = fig07.iter().map(|p| (p.figure, p.seed_offset)).collect();
        assert_eq!(labels, [("fig07(q=0.06)", 60), ("fig07(q=0.1)", 100)]);
    }

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
}
