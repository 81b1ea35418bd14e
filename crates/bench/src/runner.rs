//! Experiment runner shared by the `figures` binary and the drills.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use plp_core::checkpoint::load_checkpoint;
use plp_core::config::Hyperparameters;
use plp_core::dpsgd::baseline_hyperparameters;
use plp_core::experiment::{evaluate, EvalRecord, ExperimentConfig, PreparedData};
use plp_core::nonprivate::{train_nonprivate, NonPrivateConfig};
use plp_core::plp::{resume_plp, train_plp_resumable, CheckpointPolicy, TrainOptions};
use plp_core::CoreError;

/// Experiment scale: trade fidelity for wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny data + few steps: the drills, `smoke` and the unit tests.
    Bench,
    /// The medium synthetic profile behind the numbers in EXPERIMENTS.md.
    Figure,
}

impl Scale {
    /// The value `--scale` takes and headers print.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Figure => "figure",
        }
    }

    /// The data-preparation config for this scale.
    pub fn experiment_config(self, seed: u64) -> ExperimentConfig {
        match self {
            Scale::Bench => {
                let mut c = ExperimentConfig::small(seed);
                c.generator.num_users = 200;
                c.generator.num_locations = 150;
                c.generator.target_checkins = 8_000;
                c.generator.num_clusters = 8;
                c.validation_users = 20;
                c.test_users = 20;
                c
            }
            Scale::Figure => ExperimentConfig::medium(seed),
        }
    }

    /// A step cap keeping sweeps tractable at this scale; the budget stop
    /// of Algorithm 1 still applies first whenever it binds.
    pub fn max_steps(self) -> usize {
        match self {
            Scale::Bench => 10,
            Scale::Figure => 350,
        }
    }

    /// Hyper-parameters scaled to this profile (paper defaults otherwise).
    pub fn hyperparameters(self) -> Hyperparameters {
        let mut hp = Hyperparameters {
            max_steps: self.max_steps(),
            ..Hyperparameters::default()
        };
        if self == Scale::Bench {
            hp.embedding_dim = 16;
            hp.negative_samples = 8;
        }
        hp
    }
}

/// One point of a parameter sweep: a method label, an x value and the
/// hyper-parameters to run with.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Series label, e.g. `"PLP λ=6"`.
    pub method: String,
    /// The x-axis value of the figure.
    pub x: f64,
    /// Hyper-parameters for this point.
    pub hp: Hyperparameters,
    /// `true` to run the DP-SGD baseline (forces λ = 1).
    pub dpsgd: bool,
}

/// One printed table of a sweep: the points behind one header and one
/// `JSON` line. A figure with several sub-plots (Figure 7) is several
/// panels.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Label in the header, the `JSON` payload and checkpoint file names.
    pub figure: &'static str,
    /// What the table shows, for the header.
    pub description: &'static str,
    /// Added to the master seed, so panels of one figure draw apart.
    pub seed_offset: u64,
    /// The sweep, in print order.
    pub points: Vec<SweepPoint>,
}

/// Crash-safety knobs for [`run_point`] and [`drive_sweep`]: periodic
/// checkpointing and automatic resume. The default is the classic
/// fire-and-forget run.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    /// Checkpoint file (single points) or directory (sweeps, one file per
    /// point/rep). `None` disables persistence and resume.
    pub checkpoint_path: Option<PathBuf>,
    /// Save a checkpoint every this many steps (0: only at run end).
    pub checkpoint_every: u64,
}

impl RunControl {
    /// Periodic checkpointing to `path` every `every` steps.
    pub fn checkpointed(path: PathBuf, every: u64) -> Self {
        RunControl {
            checkpoint_path: Some(path),
            checkpoint_every: every,
        }
    }
}

/// Trains one sweep point and evaluates HR@{5,10,20} on the test users.
/// When the control's checkpoint file holds a valid checkpoint of this
/// exact configuration, training resumes from it (bit-identical to an
/// uninterrupted run); a corrupt or torn file is discarded and the run
/// restarts from scratch.
///
/// # Errors
/// Propagates pipeline errors, including [`CoreError::CheckpointMismatch`]
/// when an existing checkpoint belongs to a *different* configuration —
/// silently restarting would mask an experiment-setup bug.
pub fn run_point(
    prep: &PreparedData,
    point: &SweepPoint,
    seed: u64,
    control: &RunControl,
) -> Result<EvalRecord, CoreError> {
    let hp = if point.dpsgd {
        baseline_hyperparameters(&point.hp)
    } else {
        point.hp.clone()
    };
    // The first draw of the seeded stream is exactly the run seed the
    // non-resumable `train_plp` would derive, so results stay comparable.
    let run_seed: u64 = StdRng::seed_from_u64(seed).random();
    let opts = TrainOptions {
        checkpoint: control
            .checkpoint_path
            .clone()
            .map(|path| CheckpointPolicy {
                path,
                every: control.checkpoint_every,
            }),
        ..TrainOptions::default()
    };
    let resumable = opts
        .checkpoint
        .as_ref()
        .filter(|p| p.path.exists())
        .map(|p| &p.path);
    let outcome = match resumable.map(|path| load_checkpoint(path)) {
        Some(Ok(ckpt)) => resume_plp(ckpt, &prep.train, None, &hp, &opts)?,
        Some(Err(CoreError::CheckpointCorrupt { .. })) => {
            // A torn write from a previous crash: integrity checks caught
            // it, so start over rather than trust damaged state.
            train_plp_resumable(run_seed, &prep.train, None, &hp, &opts)?
        }
        Some(Err(e)) => return Err(e),
        None => train_plp_resumable(run_seed, &prep.train, None, &hp, &opts)?,
    };
    let hit_rates = evaluate(&outcome.params, &prep.test, &[5, 10, 20])?;
    Ok(EvalRecord {
        method: point.method.clone(),
        x: point.x,
        hit_rates,
        epsilon_spent: outcome.summary.epsilon_spent,
        steps: outcome.summary.steps,
        wall_ms: outcome.summary.total_wall_ms,
    })
}

/// Trains the non-private reference and evaluates it (Figures 5/6 and the
/// 29.5% ceiling quoted in §5.2).
///
/// # Errors
/// Propagates pipeline errors.
pub fn run_nonprivate(
    prep: &PreparedData,
    hp: &Hyperparameters,
    epochs: usize,
    seed: u64,
) -> Result<EvalRecord, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = NonPrivateConfig {
        epochs,
        ..NonPrivateConfig::default()
    };
    let start = std::time::Instant::now();
    let out = train_nonprivate(&mut rng, &prep.train, None, hp, &cfg)?;
    let hit_rates = evaluate(&out.params, &prep.test, &[5, 10, 20])?;
    Ok(EvalRecord {
        method: "non-private".to_string(),
        x: epochs as f64,
        hit_rates,
        epsilon_spent: f64::INFINITY,
        steps: epochs as u64,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Prints a figure header.
pub fn print_header(figure: &str, description: &str, prep: &PreparedData) {
    println!("== {figure}: {description} ==");
    println!(
        "dataset: {} users, {} locations, {} check-ins (density {:.4}%)",
        prep.stats.num_users,
        prep.stats.num_locations,
        prep.stats.num_checkins,
        prep.stats.density * 100.0
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "method", "x", "HR@5", "HR@10", "HR@20", "eps", "steps", "wall_ms"
    );
}

/// Prints one record row.
pub fn print_record(r: &EvalRecord) {
    println!(
        "{:<16} {:>8.3} {:>8.4} {:>8.4} {:>8.4} {:>8.3} {:>9} {:>10.0}",
        r.method,
        r.x,
        r.hit_rates[0].rate(),
        r.hit_rates[1].rate(),
        r.hit_rates[2].rate(),
        r.epsilon_spent,
        r.steps,
        r.wall_ms
    );
}

/// Dumps the collected records as one JSON line (for EXPERIMENTS.md and
/// downstream plotting).
pub fn print_json(figure: &str, records: &[EvalRecord]) {
    let payload = serde_json::json!({ "figure": figure, "records": records });
    println!("JSON {payload}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_scale_is_small_and_fast() {
        let c = Scale::Bench.experiment_config(1);
        assert!(c.generator.num_users <= 300);
        assert!(Scale::Bench.max_steps() <= 20);
        let hp = Scale::Bench.hyperparameters();
        assert!(hp.embedding_dim < 50);
        assert!(hp.validate().is_ok());
    }

    #[test]
    fn figure_scale_uses_paper_hyperparameters() {
        let hp = Scale::Figure.hyperparameters();
        assert_eq!(hp.embedding_dim, 50);
        assert_eq!(hp.negative_samples, 16);
        assert!(hp.validate().is_ok());
    }

    #[test]
    fn run_point_produces_a_complete_record() {
        let prep = PreparedData::generate(&Scale::Bench.experiment_config(3)).unwrap();
        let mut hp = Scale::Bench.hyperparameters();
        hp.max_steps = 2;
        let point = SweepPoint {
            method: "PLP λ=2".into(),
            x: 2.0,
            hp,
            dpsgd: false,
        };
        let r = run_point(&prep, &point, 11, &RunControl::default()).unwrap();
        assert_eq!(r.hit_rates.len(), 3);
        assert_eq!(r.steps, 2);
        assert!(r.epsilon_spent > 0.0);
        print_header("test", "smoke", &prep);
        print_record(&r);
        print_json("test", &[r]);
    }
}

/// Runs every point of `panel` (repeating `seeds` times with consecutive
/// seeds and pooling hits/trials), printing rows as they complete, and
/// returns the pooled records. When the control names a checkpoint
/// *directory*, every (point, rep) run checkpoints to its own file in it,
/// so a rerun resumes each finished point instead of retraining.
///
/// # Errors
/// Propagates the first pipeline error (already-printed rows are lost
/// unless checkpointed), plus [`CoreError::Io`] when the checkpoint
/// directory cannot be created.
pub fn drive_sweep(
    panel: &Panel,
    prep: &PreparedData,
    seed: u64,
    seeds: usize,
    control: &RunControl,
) -> Result<Vec<EvalRecord>, CoreError> {
    if let Some(dir) = &control.checkpoint_path {
        std::fs::create_dir_all(dir).map_err(|e| CoreError::Io {
            message: e.to_string(),
        })?;
    }
    let figure = panel.figure;
    let base_seed = seed.wrapping_add(panel.seed_offset);
    print_header(figure, panel.description, prep);
    let mut records = Vec::with_capacity(panel.points.len());
    for (i, point) in panel.points.iter().enumerate() {
        let mut pooled: Option<EvalRecord> = None;
        for rep in 0..seeds.max(1) {
            let seed = base_seed
                .wrapping_add(1000 + i as u64)
                .wrapping_add(rep as u64 * 7_919);
            let point_control = RunControl {
                checkpoint_path: control
                    .checkpoint_path
                    .as_ref()
                    .map(|dir| dir.join(format!("{figure}-p{i}-r{rep}.plpc"))),
                checkpoint_every: control.checkpoint_every,
            };
            let r = run_point(prep, point, seed, &point_control)?;
            pooled = Some(match pooled.take() {
                None => r,
                Some(mut acc) => {
                    for (a, b) in acc.hit_rates.iter_mut().zip(&r.hit_rates) {
                        a.hits += b.hits;
                        a.trials += b.trials;
                    }
                    acc.epsilon_spent = acc.epsilon_spent.max(r.epsilon_spent);
                    acc.wall_ms += r.wall_ms;
                    acc
                }
            });
        }
        // seeds.max(1) >= 1 reps always ran, so pooled is set.
        if let Some(r) = pooled {
            print_record(&r);
            records.push(r);
        }
    }
    print_json(figure, &records);
    Ok(records)
}

#[cfg(test)]
mod drive_tests {
    use super::*;

    fn one_point_panel(figure: &'static str, max_steps: usize) -> Panel {
        let mut hp = Scale::Bench.hyperparameters();
        hp.max_steps = max_steps;
        Panel {
            figure,
            description: "test",
            seed_offset: 0,
            points: vec![SweepPoint {
                method: "PLP λ=2".into(),
                x: 0.0,
                hp,
                dpsgd: false,
            }],
        }
    }

    #[test]
    fn sweep_checkpoints_and_reruns_resume() {
        let prep = PreparedData::generate(&Scale::Bench.experiment_config(6)).unwrap();
        let panel = one_point_panel("t2", 2);
        let dir = std::env::temp_dir().join(format!("plp_sweep_ckpt_{}", std::process::id()));
        let control = RunControl::checkpointed(dir.clone(), 1);
        let first = drive_sweep(&panel, &prep, 1, 1, &control).unwrap();
        assert!(
            dir.join("t2-p0-r0.plpc").exists(),
            "sweep must leave a checkpoint"
        );
        // A rerun resumes the finished run from its checkpoint and lands
        // on the same record without retraining.
        let second = drive_sweep(&panel, &prep, 1, 1, &control).unwrap();
        assert_eq!(first[0].steps, second[0].steps);
        assert_eq!(first[0].hit_rates[0].hits, second[0].hit_rates[0].hits);
        assert_eq!(
            first[0].epsilon_spent.to_bits(),
            second[0].epsilon_spent.to_bits(),
            "resumed ε comes from the same ledger"
        );
    }

    #[test]
    fn drive_sweep_pools_seeds() {
        let prep = PreparedData::generate(&Scale::Bench.experiment_config(5)).unwrap();
        let panel = one_point_panel("t", 1);
        let control = RunControl::default();
        let recs = drive_sweep(&panel, &prep, 1, 2, &control).unwrap();
        assert_eq!(recs.len(), 1);
        let single = run_point(&prep, &panel.points[0], 1001, &control).unwrap();
        assert_eq!(recs[0].hit_rates[0].trials, 2 * single.hit_rates[0].trials);
    }
}
