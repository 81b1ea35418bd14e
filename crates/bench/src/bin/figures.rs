//! Every experiment of the evaluation behind one command: the paper's
//! figures, the ablations, the baselines, the paired t-tests, the
//! calibration probe and the smoke run are the rows of
//! `plp_bench::figures::EXPERIMENTS`, and this binary is a loop over them.
//!
//! Usage: `cargo run --release -p plp-bench --bin figures -- list`, or
//! `… -- run <name>… | --all [--scale bench|figure] [--seed N] [--seeds N]`.
//! Tables go to stdout (`> results/<name>.txt`), progress and errors to
//! stderr. Exit code 0 on success, 1 when an experiment fails, 2 on a
//! usage error.

use std::process::ExitCode;

use plp_bench::figures::{find, Experiment, Options, EXPERIMENTS};
use plp_bench::runner::Scale;

/// What the command line asked for.
#[derive(Debug)]
enum Command {
    List,
    Run {
        experiments: Vec<&'static Experiment>,
        scale: Scale,
        seed: u64,
        /// `None` leaves each row its own default.
        seeds: Option<usize>,
    },
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("list") => match args.next() {
            None => Ok(Command::List),
            Some(extra) => Err(format!("list takes no argument, got {extra}")),
        },
        Some("run") => parse_run(args),
        Some(other) => Err(format!("unknown command {other}")),
        None => Err("no command".to_string()),
    }
}

fn parse_run(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut experiments = Vec::new();
    let mut all = false;
    let (mut scale, mut seed, mut seeds) = (Scale::Figure, 42, None);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} takes a value"));
        match arg.as_str() {
            "--all" => all = true,
            "--scale" => {
                let v = value()?;
                scale = [Scale::Bench, Scale::Figure]
                    .into_iter()
                    .find(|s| s.name() == v)
                    .ok_or(format!("bad --scale value {v}"))?;
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
            }
            "--seeds" => {
                let v = value()?;
                seeds = match v.parse() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => return Err(format!("bad --seeds value {v}")),
                };
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => experiments.push(find(name).ok_or(format!("unknown experiment {name}"))?),
        }
    }
    if all != experiments.is_empty() {
        return Err("run takes experiment names or --all".to_string());
    }
    if all {
        experiments.extend(EXPERIMENTS);
    }
    Ok(Command::Run {
        experiments,
        scale,
        seed,
        seeds,
    })
}

fn usage() -> String {
    let mut text = String::from(
        "usage: figures list\n       \
         figures run <name>… | --all [--scale bench|figure] [--seed N] [--seeds N]\n\n\
         defaults: --scale figure --seed 42 --seeds 1 (or as listed)\n\nexperiments:\n",
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<28} {}", e.name, e.description));
        if e.default_seeds != 1 {
            text.push_str(&format!(" [--seeds {}]", e.default_seeds));
        }
        text.push('\n');
    }
    text
}

fn main() -> ExitCode {
    let command = match parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(problem) => {
            eprintln!("figures: {problem}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        Command::List => EXPERIMENTS.iter().for_each(|e| println!("{}", e.name)),
        Command::Run {
            experiments,
            scale,
            seed,
            seeds,
        } => {
            for e in experiments {
                let opts = Options {
                    scale,
                    seed,
                    seeds: seeds.unwrap_or(e.default_seeds),
                };
                eprintln!(
                    "figures: running {} --scale {} --seed {seed} --seeds {}",
                    e.name,
                    scale.name(),
                    opts.seeds
                );
                if let Err(error) = e.run(&opts) {
                    eprintln!("figures: {} failed: {error}", e.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Result<Command, String> {
        parse(line.iter().map(|s| s.to_string()))
    }

    /// The names, scale, seed and `--seeds` of a line that must parse to `run`.
    fn run_args(line: &[&str]) -> (Vec<&'static str>, Scale, u64, Option<usize>) {
        match args(line) {
            Ok(Command::Run {
                experiments,
                scale,
                seed,
                seeds,
            }) => (
                experiments.iter().map(|e| e.name).collect(),
                scale,
                seed,
                seeds,
            ),
            other => panic!("{line:?} parsed to {other:?}"),
        }
    }

    #[test]
    fn parses_all_flags() {
        let defaults = (vec!["smoke"], Scale::Figure, 42, None);
        assert_eq!(run_args(&["run", "smoke"]), defaults);
        let line = "run --scale bench fig08_vary_q --seed 7 probe --seeds 3";
        let line: Vec<&str> = line.split(' ').collect();
        let all_flags = (vec!["fig08_vary_q", "probe"], Scale::Bench, 7, Some(3));
        assert_eq!(run_args(&line), all_flags);
        let table: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(run_args(&["run", "--all"]).0, table);
        assert!(matches!(args(&["list"]), Ok(Command::List)));
    }

    /// `--seeds 1` used to be indistinguishable from "not given", so the
    /// t-test silently ran its default five repetitions (what it does with
    /// one is in `tests/figures_cli.rs`).
    #[test]
    fn an_explicit_seeds_is_kept_as_typed_and_the_row_default_fills_only_a_gap() {
        let ttest = find("ttest_plp_vs_dpsgd").unwrap();
        assert_eq!(ttest.default_seeds, 5);
        assert_eq!(run_args(&["run", ttest.name]).3, None);
        assert_eq!(run_args(&["run", ttest.name, "--seeds", "1"]).3, Some(1));
    }

    #[test]
    fn usage_errors() {
        for line in [
            "",
            "frobnicate",
            "list smoke",
            "run",
            "run fig99_nothing",
            "run smoke --frobnicate",
            "run smoke --seeds 0",
            "run smoke --seeds",
            "run smoke --seed x",
            "run smoke --scale paper",
            "run --all smoke",
        ] {
            let words: Vec<&str> = line.split_whitespace().collect();
            assert!(args(&words).is_err(), "`{line}` must be a usage error");
        }
        let text = usage();
        assert!(EXPERIMENTS.iter().all(|e| text.contains(e.name)));
    }
}
