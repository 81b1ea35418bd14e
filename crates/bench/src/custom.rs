//! The experiments that are not a `SweepPoint` sweep: the non-private
//! figures (5, 6), the runtime figure (9), the related-work baselines, the
//! paired t-test, the calibration probe and the smoke run. Each is the
//! `Run::Custom` function of its row in [`crate::figures::EXPERIMENTS`].

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use plp_core::dpsgd::train_dpsgd;
use plp_core::experiment::{evaluate, hit_rate_at_10, PreparedData};
use plp_core::nonprivate::{train_nonprivate, NonPrivateConfig, NonPrivateOutcome};
use plp_core::plp::train_plp;
use plp_core::{CoreError, Hyperparameters};
use plp_data::dataset::TokenizedDataset;
use plp_linalg::stats::paired_t_test;
use plp_model::markov::{DpMarkovRecommender, MarkovRecommender, RankLocations};
use plp_model::metrics::{
    evaluate_hit_rate_threaded, popularity_hit_rate, random_baseline, token_counts, HitRate,
};
use plp_model::params::ModelParams;
use plp_privacy::planner::max_steps;

use crate::figures::{budget, fig09_settings, Options};
use crate::runner::{print_header, print_record, run_nonprivate, run_point, Scale, SweepPoint};

const KS: [usize; 3] = [5, 10, 20];

/// HR@5, HR@10, HR@20 of an evaluation at [`KS`].
fn rates(hr: &[HitRate]) -> [f64; 3] {
    [hr[0].rate(), hr[1].rate(), hr[2].rate()]
}

/// HR@{5,10,20} of a ranker — a baseline, or trained parameters as they
/// are — over a split, on the run's worker count.
fn hit_rates<R: RankLocations + Sync + ?Sized>(
    ranker: &R,
    split: &TokenizedDataset,
    hp: &Hyperparameters,
) -> Result<[f64; 3], CoreError> {
    let hr = evaluate_hit_rate_threaded(ranker, split, &KS, hp.effective_threads())?;
    Ok(rates(&hr))
}

/// `N users, L locations, M check-ins`, for a `dataset:` line.
fn city(prep: &PreparedData) -> String {
    let s = &prep.stats;
    format!(
        "{} users, {} locations, {} check-ins",
        s.num_users, s.num_locations, s.num_checkins
    )
}

fn print_json_rows(figure: &str, rows: Vec<serde_json::Value>) {
    println!(
        "JSON {}",
        serde_json::json!({"figure": figure, "rows": rows})
    );
}

fn nonprivate(
    prep: &PreparedData,
    validation: bool,
    hp: &Hyperparameters,
    cfg: NonPrivateConfig,
    seed: u64,
) -> Result<NonPrivateOutcome, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let validation = validation.then_some(&prep.validation);
    train_nonprivate(&mut rng, &prep.train, validation, hp, &cfg)
}

/// Figure 5: validation HR@{5,10,20} of the non-private model while one of
/// {dim, win, b, neg} moves around the defaults.
pub(crate) fn fig05(opts: &Options) -> Result<(), CoreError> {
    type Panel = (&'static str, [usize; 5], fn(&mut Hyperparameters, usize));
    const PANELS: [Panel; 4] = [
        ("dim", [25, 50, 75, 100, 125], |hp, v| hp.embedding_dim = v),
        ("win", [1, 2, 3, 4, 5], |hp, v| hp.context_window = v),
        ("batch", [16, 32, 64, 128, 256], |hp, v| hp.batch_size = v),
        ("neg", [4, 8, 16, 32, 64], |hp, v| hp.negative_samples = v),
    ];
    let prep = opts.prepare()?;
    let epochs = match opts.scale {
        Scale::Bench => 2,
        Scale::Figure => 10,
    };
    let base = opts.scale.hyperparameters();
    println!("== fig05: non-private hyperparameter grid (validation HR) ==");
    println!("dataset: {}; {epochs} epochs per point", city(&prep));
    println!("panel         value     HR@5    HR@10    HR@20");

    let mut json_rows = Vec::new();
    for (seed, (panel, values, set)) in (opts.seed + 1..).zip(PANELS) {
        for value in values {
            let mut hp = base.clone();
            set(&mut hp, value);
            let cfg = NonPrivateConfig {
                epochs,
                ..NonPrivateConfig::default()
            };
            let out = nonprivate(&prep, false, &hp, cfg, seed)?;
            let [h5, h10, h20] = hit_rates(&out.params, &prep.validation, &hp)?;
            println!("{panel:<10} {value:>8} {h5:>8.4} {h10:>8.4} {h20:>8.4}");
            json_rows.push(serde_json::json!({
                "panel": panel, "value": value, "hr5": h5, "hr10": h10, "hr20": h20,
            }));
        }
    }
    print_json_rows("fig05", json_rows);
    Ok(())
}

/// Figure 6: non-private training loss plus validation HR@{5,10,20} over
/// data epochs, and the final model's test HR.
pub(crate) fn fig06(opts: &Options) -> Result<(), CoreError> {
    let prep = opts.prepare()?;
    let (epochs, eval_every) = match opts.scale {
        Scale::Bench => (4, 2),
        Scale::Figure => (40, 4),
    };
    println!("== fig06: non-private training curves ==");
    println!("dataset: {}", city(&prep));
    println!(" epoch       loss     vHR@5    vHR@10    vHR@20     tHR@5    tHR@10    tHR@20");

    let cfg = NonPrivateConfig {
        epochs,
        eval_every,
        ..NonPrivateConfig::default()
    };
    let hp = opts.scale.hyperparameters();
    let out = nonprivate(&prep, true, &hp, cfg, opts.seed)?;

    let mut json_rows = Vec::new();
    for t in &out.telemetry {
        let (epoch, loss) = (t.epoch, t.train_loss);
        if let Some(v) = &t.validation {
            // Test-side evaluation happens only for the final model, below.
            let [v5, v10, v20] = rates(v);
            println!(
                "{epoch:>6} {loss:>10.4} {v5:>9.4} {v10:>9.4} {v20:>9.4} {0:>9} {0:>9} {0:>9}",
                "-"
            );
            json_rows.push(serde_json::json!({
                "epoch": epoch, "loss": loss, "vhr5": v5, "vhr10": v10, "vhr20": v20,
            }));
        } else {
            println!("{epoch:>6} {loss:>10.4}");
            json_rows.push(serde_json::json!({"epoch": epoch, "loss": loss}));
        }
    }

    let [t5, t10, t20] = hit_rates(&out.params, &prep.test, &hp)?;
    println!(
        "final test: HR@5 {t5:.4}  HR@10 {t10:.4}  HR@20 {t20:.4} (paper's non-private ceiling: 29.5% HR@10 on real Foursquare Tokyo)"
    );
    println!(
        "JSON {}",
        serde_json::json!({
            "figure": "fig06", "rows": json_rows,
            "final_test": {"hr5": t5, "hr10": t10, "hr20": t20},
        })
    );
    Ok(())
}

/// Figure 9: wall-clock of DP-SGD over wall-clock of PLP(λ) at a *fixed*
/// number of steps (the paper runs to the budget; the per-step ratio is
/// what the figure measures — "these results are consistently observed
/// even with a different number of total iterations").
pub(crate) fn fig09(opts: &Options) -> Result<(), CoreError> {
    let prep = opts.prepare()?;
    let steps = match opts.scale {
        Scale::Bench => 3,
        Scale::Figure => 25,
    };
    println!("== fig09: runtime improvement factor of PLP over DP-SGD ==");
    println!(
        "dataset: {} users, {} check-ins; {} steps per measurement",
        prep.stats.num_users, prep.stats.num_checkins, steps
    );
    println!("setting               λ     dpsgd_ms       plp_ms   factor");

    let mut hp = opts.scale.hyperparameters();
    hp.max_steps = steps;
    hp.budget = budget(1e9); // step-capped runs

    // The DP-SGD reference is measured once per (q, sigma) setting.
    let mut rows = Vec::new();
    let mut dpsgd_ms = HashMap::new();
    for (label, q, sigma, lambda) in fig09_settings() {
        let mut h = hp.clone();
        h.sampling_prob = q;
        h.noise_multiplier = sigma;
        let base_ms = match dpsgd_ms.get(&label) {
            Some(&ms) => ms,
            None => {
                let mut rng = StdRng::seed_from_u64(opts.seed);
                let ms = train_dpsgd(&mut rng, &prep.train, None, &h)?
                    .summary
                    .total_wall_ms;
                dpsgd_ms.insert(label.clone(), ms);
                ms
            }
        };
        h.grouping_factor = lambda;
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let plp_ms = train_plp(&mut rng, &prep.train, None, &h)?
            .summary
            .total_wall_ms;
        let factor = base_ms / plp_ms;
        println!("{label:<18} {lambda:>4} {base_ms:>12.0} {plp_ms:>12.0} {factor:>8.2}");
        rows.push(serde_json::json!({
            "setting": label, "lambda": lambda,
            "dpsgd_ms": base_ms, "plp_ms": plp_ms, "factor": factor,
        }));
    }
    print_json_rows("fig09", rows);
    Ok(())
}

/// Related-work baselines (§6) under the same leave-one-out HR@k harness:
/// popularity, order-1 Markov, user-level DP-Markov (perturbed capped
/// counts, as in Zhang et al. \[63\]) and the skip-gram models.
pub(crate) fn baseline_markov(opts: &Options) -> Result<(), CoreError> {
    let prep = opts.prepare()?;
    println!("== baseline comparison (HR@{{5,10,20}} on held-out users) ==");
    println!("dataset: {}", city(&prep));
    println!("method                                 HR@5    HR@10    HR@20");

    let mut rows = Vec::new();
    let mut print_row = |name: &str, [h5, h10, h20]: [f64; 3]| {
        println!("{name:<34} {h5:>8.4} {h10:>8.4} {h20:>8.4}");
        rows.push(serde_json::json!({"method": name, "hr5": h5, "hr10": h10, "hr20": h20}));
    };

    let pop = popularity_hit_rate(&token_counts(&prep.train), &prep.test, &KS);
    print_row("popularity", rates(&pop));
    let mut hp = opts.scale.hyperparameters();
    let markov = MarkovRecommender::fit(&prep.train)?;
    print_row("markov (non-private)", hit_rates(&markov, &prep.test, &hp)?);

    // DP-Markov at eps in {1, 2, 4}, per-user cap 20.
    for eps in [1.0, 2.0, 4.0] {
        let mut rng = StdRng::seed_from_u64(opts.seed + 13);
        let dp = DpMarkovRecommender::fit(&mut rng, &prep.train, eps, 20)?;
        let name = format!("dp-markov (eps={eps}, cap=20)");
        print_row(&name, hit_rates(&dp, &prep.test, &hp)?);
    }

    // Skip-gram: non-private + PLP at eps=2.
    let epochs = match opts.scale {
        Scale::Bench => 4,
        Scale::Figure => 20,
    };
    let cfg = NonPrivateConfig {
        epochs,
        ..NonPrivateConfig::default()
    };
    let np = nonprivate(&prep, false, &hp, cfg, opts.seed + 29)?;
    let name = format!("skip-gram (non-private, {epochs} ep)");
    print_row(&name, hit_rates(&np.params, &prep.test, &hp)?);

    hp.budget = budget(2.0);
    let mut rng = StdRng::seed_from_u64(opts.seed + 31);
    let plp = train_plp(&mut rng, &prep.train, None, &hp)?;
    let name = format!("PLP skip-gram (eps=2, λ={})", hp.grouping_factor);
    print_row(&name, hit_rates(&plp.params, &prep.test, &hp)?);

    print_json_rows("baseline_markov", rows);
    Ok(())
}

/// §5.2 significance claim at the default operating point, ε = 2.
pub(crate) fn ttest(opts: &Options) -> Result<(), CoreError> {
    paired_ttest(opts, 2.0, None)
}

/// The same test where the grouping gain has enough steps to rise above
/// the noise floor: ε = 3 and a 700-step cap (see EXPERIMENTS.md).
pub(crate) fn ttest_eps3(opts: &Options) -> Result<(), CoreError> {
    paired_ttest(opts, 3.0, Some(700))
}

/// PLP (λ = 4) against DP-SGD over `opts.seeds` matched seeds: the paired
/// two-sided t-test on HR@10.
fn paired_ttest(opts: &Options, eps: f64, step_cap: Option<usize>) -> Result<(), CoreError> {
    let reps = opts.seeds;
    if reps < 2 {
        return Err(CoreError::BadConfig {
            name: "--seeds",
            expected: "at least 2 for a paired test",
        });
    }
    let prep = opts.prepare()?;
    let mut hp = opts.scale.hyperparameters();
    if let Some(steps) = step_cap {
        hp.max_steps = steps;
    }
    hp.budget = budget(eps);
    hp.grouping_factor = 4;

    println!("== paired t-test: PLP (λ=4) vs DP-SGD at eps={eps} over {reps} seeds ==");
    println!("  seed        PLP     DP-SGD");
    let mut plp_scores = Vec::new();
    let mut dpsgd_scores = Vec::new();
    for seed in (opts.seed + 100..).take(reps) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plp = train_plp(&mut rng, &prep.train, None, &hp)?;
        let p = hit_rate_at_10(&plp.params, &prep.test)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let base = train_dpsgd(&mut rng, &prep.train, None, &hp)?;
        let d = hit_rate_at_10(&base.params, &prep.test)?;
        println!("{seed:>6} {p:>10.4} {d:>10.4}");
        plp_scores.push(p);
        dpsgd_scores.push(d);
    }
    match paired_t_test(&plp_scores, &dpsgd_scores) {
        Some(t) => {
            println!(
                "t = {:.3}, df = {}, two-sided p = {:.5}, mean improvement = {:+.4}",
                t.t_statistic, t.degrees_of_freedom, t.p_value, t.mean_difference
            );
            println!(
                "JSON {}",
                serde_json::json!({
                    "figure": "ttest", "t": t.t_statistic, "p": t.p_value,
                    "mean_diff": t.mean_difference,
                    "plp": plp_scores, "dpsgd": dpsgd_scores,
                })
            );
        }
        None => println!("degenerate inputs (identical scores); no test statistic"),
    }
    Ok(())
}

/// Calibration probe: DP-SGD and PLP (λ ∈ {2, 4, 5, 6}) with clip-fraction
/// and loss telemetry at the operating point EXPERIMENTS.md records —
/// ε = 3, σ = 2.5, a 600-location city, server Adam at 0.06, dim 50, at
/// most 2 000 steps. `--seed` picks the city; the model and run seeds are
/// fixed.
pub(crate) fn probe(opts: &Options) -> Result<(), CoreError> {
    const EPS: f64 = 3.0;
    const SIGMA: f64 = 2.5;
    const LOCATIONS: usize = 600;
    const SERVER_LR: f64 = 0.06;
    const DIM: usize = 50;
    const STEP_CAP: usize = 2000;

    let mut cfg = opts.scale.experiment_config(opts.seed);
    cfg.generator.num_locations = LOCATIONS;
    cfg.generator.num_clusters = (LOCATIONS / 60).max(4);
    let prep = PreparedData::generate(&cfg)?;
    let density = prep.stats.density * 100.0;
    println!("dataset: {}, density {density:.4}%", city(&prep));
    let pop = popularity_hit_rate(&token_counts(&prep.train), &prep.test, &[10]);
    // The untrained model's floor.
    let mut rng0 = StdRng::seed_from_u64(7);
    let init = ModelParams::init(&mut rng0, prep.vocab_size(), DIM)?;
    let init_hr = evaluate(&init, &prep.test, &[10])?[0].rate();
    println!(
        "popularity HR@10 {:.4} | init HR@10 {:.4} | eps={EPS} sigma={SIGMA} lr={SERVER_LR} dim={DIM}",
        pop[0].rate(),
        init_hr
    );

    let mut hp = opts.scale.hyperparameters();
    hp.embedding_dim = DIM;
    hp.budget = budget(EPS);
    hp.noise_multiplier = SIGMA;
    hp.server_learning_rate = SERVER_LR;
    hp.max_steps = STEP_CAP;

    for lambda in [1usize, 2, 4, 5, 6] {
        hp.grouping_factor = lambda;
        let mut rng = StdRng::seed_from_u64(100 + lambda as u64);
        let start = std::time::Instant::now();
        let out = if lambda == 1 {
            train_dpsgd(&mut rng, &prep.train, None, &hp)?
        } else {
            train_plp(&mut rng, &prep.train, None, &hp)?
        };
        let hr = evaluate(&out.params, &prep.test, &[10])?;
        let mean_clip: f64 = out.telemetry.iter().map(|t| t.clip_fraction).sum::<f64>()
            / out.telemetry.len().max(1) as f64;
        let loss_at = |t: Option<&plp_core::telemetry::StepTelemetry>| {
            t.map(|t| t.mean_local_loss).unwrap_or(0.0)
        };
        println!(
            "lambda={lambda}: HR@10 {:.4} steps {} eps {:.3} clip-frac {:.3} loss {:.3}->{:.3} wall {:.1}s",
            hr[0].rate(),
            out.summary.steps,
            out.summary.epsilon_spent,
            mean_clip,
            loss_at(out.telemetry.first()),
            loss_at(out.telemetry.last()),
            start.elapsed().as_secs_f64()
        );
    }
    Ok(())
}

/// End-to-end smoke run: the step budgets the paper's (q, σ, ε) afford, a
/// short non-private run and a PLP vs DP-SGD comparison, with the
/// popularity and random baselines for calibration. `--seed` picks the
/// city; the run seeds are fixed.
pub(crate) fn smoke(opts: &Options) -> Result<(), CoreError> {
    println!("== step budgets (moments accountant) ==");
    for (q, sigma) in [(0.06, 1.5), (0.06, 2.5), (0.10, 1.5), (0.10, 2.5)] {
        for eps in [0.5, 1.0, 2.0, 3.0, 4.0] {
            let steps = max_steps(q, sigma, budget(eps))?;
            println!("q={q:<5} sigma={sigma:<4} eps={eps:<4} -> max steps {steps}");
        }
    }

    let prep = opts.prepare()?;
    let description = format!("sanity comparison at {} scale", opts.scale.name());
    print_header("smoke", &description, &prep);

    let mut hp = opts.scale.hyperparameters();
    print_record(&run_nonprivate(&prep, &hp, 8, 1)?);

    hp.grouping_factor = 4;
    hp.max_steps = 60;
    hp.noise_multiplier = 2.5;
    hp.budget = budget(4.0);
    for (method, dpsgd) in [("PLP λ=4", false), ("DP-SGD", true)] {
        let point = SweepPoint {
            method: method.into(),
            x: 0.0,
            hp: hp.clone(),
            dpsgd,
        };
        print_record(&run_point(&prep, &point, 2)?);
    }

    let pop = popularity_hit_rate(&token_counts(&prep.train), &prep.test, &KS);
    let [p5, p10, p20] = rates(&pop);
    println!("popularity baseline: HR@5 {p5:.4} HR@10 {p10:.4} HR@20 {p20:.4}");
    println!(
        "random baseline:     HR@10 {:.4}",
        random_baseline(10, prep.vocab_size())
    );
    Ok(())
}
