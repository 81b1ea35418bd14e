//! `dp-nextloc` — command-line front end for the PLP system.
//!
//! Subcommands:
//!
//! * `generate`  — synthesise a check-in dataset and write a binary snapshot,
//! * `stats`     — print dataset statistics (§5.1 profile),
//! * `train`     — train `plp` | `dpsgd` | `nonprivate` and save its serving
//!   bundle (plus the auditable privacy ledger for the private methods),
//! * `evaluate`  — leave-one-out HR@k of a saved bundle on held-out users,
//! * `recommend` — top-k next locations for a token sequence,
//! * `budget`    — moments-accountant planning (steps afforded / ε of a plan),
//! * `trace-stitch` — merge flight-recorder dumps into one Chrome/Perfetto
//!   trace.
//!
//! Run `dp-nextloc <subcommand> --help` for flags.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use plp_core::config::Hyperparameters;
use plp_core::dpsgd::train_dpsgd;
use plp_core::experiment::{evaluate, ExperimentConfig, PreparedData};
use plp_core::nonprivate::{train_nonprivate, NonPrivateConfig};
use plp_core::plp::train_plp;
use plp_data::frame::write_atomic;
use plp_data::generator::{GeneratorConfig, SyntheticGenerator};
use plp_data::io as data_io;
use plp_data::stats::dataset_stats;
use plp_model::metrics::evaluate_hit_rate;
use plp_model::plps::{self, PlpsSnapshot};
use plp_model::Recommender;
use plp_obs::trace::{load_dumps, stitch_chrome_trace};
use plp_privacy::planner::{epsilon_for_steps, max_steps};
use plp_privacy::PrivacyBudget;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd == "trace-stitch" {
        return ExitCode::from(trace_stitch(rest));
    }
    match run(cmd, rest) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Dispatches one subcommand; `--help` / `-h` anywhere after a known
/// subcommand prints the usage instead of running it.
fn run(cmd: &str, rest: &[String]) -> Result<(), String> {
    let handler: fn(&[String]) -> Result<(), String> = match cmd {
        "generate" => cmd_generate,
        "stats" => cmd_stats,
        "train" => cmd_train,
        "evaluate" => cmd_evaluate,
        "recommend" => cmd_recommend,
        "budget" => cmd_budget,
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => return Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    handler(rest)
}

const USAGE: &str = "dp-nextloc — differentially-private next-location prediction (EDBT 2020)

USAGE:
  dp-nextloc generate  --out data.bin [--profile small|medium|paper] [--seed N] [--csv out.csv]
  dp-nextloc stats     --data data.bin
  dp-nextloc train     --data data.bin --out bundle.plps [--method plp|dpsgd|nonprivate]
                       [--eps F] [--delta F] [--sigma F] [--q F] [--lambda N] [--clip F]
                       [--dim N] [--neg N] [--win N] [--batch N] [--lr F] [--max-steps N]
                       [--epochs N] [--seed N] [--holdout N] [--ledger ledger.json]
  dp-nextloc evaluate  --data data.bin --model bundle.plps [--k 5,10,20] [--seed N]
                       [--holdout N]
  dp-nextloc recommend --model bundle.plps --recent 12,87,40 [--k 10]
  dp-nextloc budget    --q F --sigma F (--eps F | --steps N) [--delta F]
  dp-nextloc trace-stitch --out stitched.json DUMP.jsonl...
  dp-nextloc <subcommand> --help";

/// Minimal `--flag value` parser; every flag takes exactly one value and
/// must be one of the subcommand's space-separated `allowed` names, so a
/// mistyped privacy flag is an error instead of a silent default.
fn parse_flags(args: &[String], allowed: &str) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let flag = &args[i];
        if !flag.starts_with("--") {
            return Err(format!("expected a --flag, found `{flag}`"));
        }
        let name = flag.trim_start_matches("--");
        if !allowed.split(' ').any(|a| a == name) {
            return Err(format!(
                "unknown flag `{flag}` (expected one of: --{})",
                allowed.replace(' ', ", --")
            ));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag `{flag}` is missing its value"))?;
        out.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(out)
}

fn req<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn opt_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value `{v}` for --{name}")),
    }
}

fn profile(name: &str) -> Result<GeneratorConfig, String> {
    match name {
        "small" => Ok(GeneratorConfig::small()),
        "medium" => Ok(GeneratorConfig::medium()),
        "paper" => Ok(GeneratorConfig::default()),
        other => Err(format!("unknown profile `{other}` (small|medium|paper)")),
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "out profile seed csv")?;
    let out = PathBuf::from(req(&flags, "out")?);
    let seed: u64 = opt_parse(&flags, "seed", 42)?;
    let config = profile(flags.get("profile").map(String::as_str).unwrap_or("medium"))?;
    let ds = SyntheticGenerator::generate_with_seed(config, seed).map_err(|e| e.to_string())?;
    data_io::save_binary(&ds, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} check-ins / {} users / {} POIs to {}",
        ds.num_checkins(),
        ds.num_users(),
        ds.pois.len(),
        out.display()
    );
    if let Some(csv) = flags.get("csv") {
        std::fs::write(csv, data_io::checkins_to_csv(&ds)).map_err(|e| e.to_string())?;
        println!("wrote CSV export to {csv}");
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "data")?;
    let ds = data_io::load_binary(Path::new(req(&flags, "data")?)).map_err(|e| e.to_string())?;
    let s = dataset_stats(&ds);
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!(s)).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn prepare(flags: &HashMap<String, String>) -> Result<PreparedData, String> {
    let ds = data_io::load_binary(Path::new(req(flags, "data")?)).map_err(|e| e.to_string())?;
    let seed: u64 = opt_parse(flags, "seed", 42)?;
    let holdout = opt_parse(flags, "holdout", 100usize)?.min(ds.num_users() / 3);
    let mut cfg = ExperimentConfig::paper_scale(seed);
    cfg.validation_users = holdout;
    cfg.test_users = holdout;
    PreparedData::from_checkins(&ds, &cfg).map_err(|e| e.to_string())
}

fn hyperparameters(flags: &HashMap<String, String>) -> Result<Hyperparameters, String> {
    let mut hp = Hyperparameters::default();
    hp.embedding_dim = opt_parse(flags, "dim", hp.embedding_dim)?;
    hp.negative_samples = opt_parse(flags, "neg", hp.negative_samples)?;
    hp.context_window = opt_parse(flags, "win", hp.context_window)?;
    hp.batch_size = opt_parse(flags, "batch", hp.batch_size)?;
    hp.learning_rate = opt_parse(flags, "lr", hp.learning_rate)?;
    hp.sampling_prob = opt_parse(flags, "q", hp.sampling_prob)?;
    hp.noise_multiplier = opt_parse(flags, "sigma", hp.noise_multiplier)?;
    hp.clip_norm = opt_parse(flags, "clip", hp.clip_norm)?;
    hp.grouping_factor = opt_parse(flags, "lambda", hp.grouping_factor)?;
    hp.max_steps = opt_parse(flags, "max-steps", hp.max_steps)?;
    let eps = opt_parse(flags, "eps", hp.budget.epsilon)?;
    let delta = opt_parse(flags, "delta", hp.budget.delta)?;
    hp.budget = PrivacyBudget::new(eps, delta).map_err(|e| e.to_string())?;
    hp.validate().map_err(|e| e.to_string())?;
    Ok(hp)
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    // Its own flags, then `prepare`'s, then `hyperparameters`'.
    let flags = parse_flags(
        args,
        "data out method epochs ledger seed holdout \
         dim neg win batch lr q sigma clip lambda max-steps eps delta",
    )?;
    let out = PathBuf::from(req(&flags, "out")?);
    let method = flags.get("method").map(String::as_str).unwrap_or("plp");
    let seed: u64 = opt_parse(&flags, "seed", 42)?;
    let prep = prepare(&flags)?;
    let hp = hyperparameters(&flags)?;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));

    let (params, ledger) = match method {
        "plp" | "dpsgd" => {
            let outcome = if method == "plp" {
                train_plp(&mut rng, &prep.train, None, &hp).map_err(|e| e.to_string())?
            } else {
                train_dpsgd(&mut rng, &prep.train, None, &hp).map_err(|e| e.to_string())?
            };
            println!(
                "{method}: {} steps, eps spent {:.4} (budget {}), stop {:?}",
                outcome.summary.steps,
                outcome.summary.epsilon_spent,
                hp.budget.epsilon,
                outcome.summary.stop_reason
            );
            (outcome.params, Some(outcome.ledger))
        }
        "nonprivate" => {
            let epochs = opt_parse(&flags, "epochs", 20usize)?;
            let outcome = train_nonprivate(
                &mut rng,
                &prep.train,
                None,
                &hp,
                &NonPrivateConfig {
                    epochs,
                    ..NonPrivateConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            println!(
                "nonprivate: {} epochs, final loss {:.4}",
                epochs,
                outcome
                    .telemetry
                    .last()
                    .map(|t| t.train_loss)
                    .unwrap_or(0.0)
            );
            (outcome.params, None)
        }
        other => return Err(format!("unknown method `{other}` (plp|dpsgd|nonprivate)")),
    };

    plps::write_deployable(&out, &params.deployable_embedding(), 0).map_err(|e| e.to_string())?;
    println!("model saved to {}", out.display());
    if let (Some(ledger), Some(path)) = (&ledger, flags.get("ledger")) {
        let json =
            serde_json::to_string_pretty(&serde_json::json!(ledger)).map_err(|e| e.to_string())?;
        write_atomic(Path::new(path), json.as_bytes()).map_err(|e| e.to_string())?;
        println!("privacy ledger written to {path}");
    }
    // Quick quality readout on the held-out users.
    let hr = evaluate(&params, &prep.test, &[5, 10, 20]).map_err(|e| e.to_string())?;
    for h in &hr {
        println!("test HR@{:<2} = {:.4}", h.k, h.rate());
    }
    Ok(())
}

/// Opens a `train --out` bundle as a server does: mapped where it can be,
/// refused unless its checksums, finiteness and normalised flag all hold.
fn load_model(flags: &HashMap<String, String>) -> Result<Recommender, String> {
    let path = Path::new(req(flags, "model")?);
    let read = || {
        let snapshot = PlpsSnapshot::open(path)?;
        snapshot.validate()?;
        snapshot.recommender()
    };
    read().map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_evaluate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "data model k seed holdout")?;
    let rec = load_model(&flags)?;
    let prep = prepare(&flags)?;
    let ks: Vec<usize> = flags
        .get("k")
        .map(String::as_str)
        .unwrap_or("5,10,20")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad k `{s}`")))
        .collect::<Result<_, _>>()?;
    let hr = evaluate_hit_rate(&rec, &prep.test, &ks).map_err(|e| e.to_string())?;
    for h in &hr {
        println!("HR@{:<3} = {:.4}  ({}/{})", h.k, h.rate(), h.hits, h.trials);
    }
    Ok(())
}

fn cmd_recommend(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "model recent k")?;
    let rec = load_model(&flags)?;
    let recent: Vec<usize> = req(&flags, "recent")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad token `{s}`")))
        .collect::<Result<_, _>>()?;
    let k: usize = opt_parse(&flags, "k", 10)?;
    let top = rec.recommend(&recent, k).map_err(|e| e.to_string())?;
    println!("recent: {recent:?}");
    println!("top-{k}: {top:?}");
    Ok(())
}

fn cmd_budget(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, "q sigma eps steps delta")?;
    let q: f64 = req(&flags, "q")?
        .parse()
        .map_err(|_| "bad --q".to_string())?;
    let sigma: f64 = req(&flags, "sigma")?
        .parse()
        .map_err(|_| "bad --sigma".to_string())?;
    let delta: f64 = opt_parse(&flags, "delta", 2e-4)?;
    match (flags.get("eps"), flags.get("steps")) {
        (Some(eps), None) => {
            let eps: f64 = eps.parse().map_err(|_| "bad --eps".to_string())?;
            let budget = PrivacyBudget::new(eps, delta).map_err(|e| e.to_string())?;
            let steps = max_steps(q, sigma, budget).map_err(|e| e.to_string())?;
            println!("(eps={eps}, delta={delta}) affords {steps} steps at q={q}, sigma={sigma}");
        }
        (None, Some(steps)) => {
            let steps: u64 = steps.parse().map_err(|_| "bad --steps".to_string())?;
            let eps = epsilon_for_steps(q, sigma, steps, delta).map_err(|e| e.to_string())?;
            println!("{steps} steps at q={q}, sigma={sigma} cost eps={eps:.4} (delta={delta})");
        }
        _ => return Err("provide exactly one of --eps or --steps".to_string()),
    }
    Ok(())
}

/// `trace-stitch --out FILE DUMP…`: stitches flight-recorder dumps
/// (`plp_obs::trace`) into one Chrome-trace JSON, each aligned to the
/// first on their minimum timestamps. Returns the exit code: 0 stitched,
/// 1 an unusable dump or an unwritable output, 2 misuse.
fn trace_stitch(args: &[String]) -> u8 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    let [flag, out, inputs @ ..] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    if flag != "--out" || inputs.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    let stitched = load_dumps(inputs).and_then(|dumps| {
        for d in &dumps {
            let torn = match d.skipped_lines {
                0 => String::new(),
                n => format!(" ({n} torn lines skipped)"),
            };
            let (process, pid, reason, records) = (&d.process, d.pid, &d.reason, d.records.len());
            println!("  {process} pid={pid} reason={reason:?}: {records} records{torn}");
        }
        write_atomic(Path::new(out), stitch_chrome_trace(&dumps).as_bytes())
            .map_err(|e| format!("{out}: {e}"))?;
        Ok(dumps.len())
    });
    match stitched {
        Ok(processes) => {
            println!("trace-stitch: wrote {out} — {processes} processes");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(v: &[(&str, &str)]) -> HashMap<String, String> {
        v.iter()
            .map(|(k, x)| (k.to_string(), x.to_string()))
            .collect()
    }

    #[test]
    fn parse_flags_accepts_pairs_and_rejects_stragglers() {
        let args: Vec<String> = ["--out", "x.bin", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args, "out seed").unwrap();
        assert_eq!(f["out"], "x.bin");
        assert_eq!(f["seed"], "7");
        let bad: Vec<String> = ["--out"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&bad, "out").is_err());
        let bad: Vec<String> = ["out", "x"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&bad, "out").is_err());
    }

    #[test]
    fn unknown_flags_fail_closed_and_help_succeeds_on_every_subcommand() {
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        for sub in "generate stats train evaluate recommend budget".split(' ') {
            run(sub, &s(&["--help"])).unwrap();
            // A typo of a privacy flag must never fall back to the default.
            let err = run(sub, &s(&["--sigm", "9"])).unwrap_err();
            assert!(err.contains("`--sigm`"), "{sub}: {err}");
        }
        let err = run("budget", &s(&["--q", "0.06", "--lamda", "9"])).unwrap_err();
        assert!(err.contains("`--lamda`"), "{err}");
        assert!(run("frobnicate", &s(&["--help"])).is_err());
    }

    #[test]
    fn opt_parse_defaults_and_errors() {
        let f = flags(&[("dim", "32")]);
        assert_eq!(opt_parse(&f, "dim", 50usize).unwrap(), 32);
        assert_eq!(opt_parse(&f, "neg", 16usize).unwrap(), 16);
        let bad = flags(&[("dim", "abc")]);
        assert!(opt_parse(&bad, "dim", 50usize).is_err());
    }

    #[test]
    fn hyperparameters_from_flags() {
        let f = flags(&[("eps", "3.0"), ("lambda", "6"), ("sigma", "1.5")]);
        let hp = hyperparameters(&f).unwrap();
        assert_eq!(hp.budget.epsilon, 3.0);
        assert_eq!(hp.grouping_factor, 6);
        assert_eq!(hp.noise_multiplier, 1.5);
        // Invalid combos are rejected by validation.
        let f = flags(&[("q", "2.0")]);
        assert!(hyperparameters(&f).is_err());
    }

    #[test]
    fn profile_names() {
        assert!(profile("small").is_ok());
        assert!(profile("medium").is_ok());
        assert!(profile("paper").is_ok());
        assert!(profile("huge").is_err());
    }

    #[test]
    fn generate_stats_train_evaluate_recommend_round_trip() {
        let dir = std::env::temp_dir().join("dp_nextloc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.bin");
        let model = dir.join("model.plps");
        let ledger = dir.join("ledger.json");

        // generate a tiny custom dataset by writing it directly (the small
        // profile is too big for a unit test).
        let cfg = GeneratorConfig {
            num_users: 80,
            num_locations: 60,
            target_checkins: 2500,
            num_clusters: 4,
            ..GeneratorConfig::default()
        };
        let ds = SyntheticGenerator::generate_with_seed(cfg, 1).unwrap();
        data_io::save_binary(&ds, &data).unwrap();

        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        cmd_stats(&s(&["--data", data.to_str().unwrap()])).unwrap();
        cmd_train(&s(&[
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--ledger",
            ledger.to_str().unwrap(),
            "--method",
            "plp",
            "--dim",
            "8",
            "--neg",
            "4",
            "--q",
            "0.2",
            "--max-steps",
            "2",
            "--eps",
            "50",
            "--delta",
            "0.005",
            "--holdout",
            "8",
        ]))
        .unwrap();
        assert!(model.exists());
        assert!(ledger.exists());
        // The model file is a serving bundle: it passes the checks
        // `ModelGeneration::load` applies.
        let bundle = PlpsSnapshot::open(&model).unwrap();
        bundle.validate().unwrap();
        assert!(bundle.recommender().unwrap().vocab_size() > 0);
        cmd_evaluate(&s(&[
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--holdout",
            "8",
            "--k",
            "5,10",
        ]))
        .unwrap();
        cmd_recommend(&s(&[
            "--model",
            model.to_str().unwrap(),
            "--recent",
            "1,2,3",
            "--k",
            "5",
        ]))
        .unwrap();
        cmd_budget(&s(&["--q", "0.06", "--sigma", "2.5", "--eps", "2.0"])).unwrap();
        cmd_budget(&s(&["--q", "0.06", "--sigma", "2.5", "--steps", "100"])).unwrap();
        assert!(cmd_budget(&s(&["--q", "0.06", "--sigma", "2.5"])).is_err());

        // Every output went through the atomic writer, and one flipped bit
        // in the model or the dataset is refused with its typed reason.
        for file in [&data, &model, &ledger] {
            let tmp = format!("{}.tmp", file.display());
            assert!(!Path::new(&tmp).exists(), "{tmp} lingers");
        }
        let flip_last_byte = |path: &Path| {
            let mut raw = std::fs::read(path).unwrap();
            *raw.last_mut().unwrap() ^= 0x04;
            std::fs::write(path, raw).unwrap();
        };
        flip_last_byte(&model);
        let recommend = ["--model", model.to_str().unwrap(), "--recent", "1"];
        let err = cmd_recommend(&s(&recommend)).unwrap_err();
        assert!(
            err.contains("bad_crc") && err.contains("model.plps"),
            "{err}"
        );
        // A full-θ image is no serving bundle: refused, typed, not a panic.
        let params = plp_model::ModelParams::zeros(4, 2);
        let sections = plps::param_sections(&params, plps::KIND_EMBEDDING);
        write_atomic(&model, &plp_data::frame::encode(&sections, 0, 0)).unwrap();
        let err = cmd_recommend(&s(&recommend)).unwrap_err();
        assert!(err.contains("not flagged normalised"), "{err}");
        flip_last_byte(&data);
        let err = cmd_stats(&s(&["--data", data.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("bad_crc"), "{err}");
    }

    #[test]
    fn trace_stitch_exit_codes_and_output() {
        use plp_obs::{TraceConfig, Tracer};

        let dir = std::env::temp_dir().join(format!("dp_nextloc_stitch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        let out = dir.join("stitched.json");
        let (train, serve) = (dir.join("train.jsonl"), dir.join("serve.jsonl"));
        for (path, process) in [(&train, "train"), (&serve, "serve")] {
            let tracer = Tracer::new(TraceConfig::named(process));
            tracer.instant("mark", "test", 1, 0, [("n", 1), ("", 0)]);
            tracer.dump_to(path, "test").unwrap();
        }
        let [out_arg, train_arg, serve_arg, dir_arg] =
            [&out, &train, &serve, &dir].map(|p| p.to_str().unwrap());

        // Misuse: exit 2, nothing written.
        assert_eq!(trace_stitch(&s(&[])), 2);
        assert_eq!(trace_stitch(&s(&["--out", out_arg])), 2);
        assert_eq!(trace_stitch(&s(&["--in", out_arg, train_arg])), 2);
        assert_eq!(trace_stitch(&s(&["--help"])), 0);
        // No usable dump: exit 1. A directory is not a dump.
        assert_eq!(trace_stitch(&s(&["--out", out_arg, dir_arg])), 1);
        let junk = dir.join("junk.jsonl");
        std::fs::write(&junk, "not a dump\n").unwrap();
        let junk_args = ["--out", out_arg, train_arg, junk.to_str().unwrap()];
        assert_eq!(trace_stitch(&s(&junk_args)), 1);
        assert!(!out.exists());

        // Dump files: exit 0 and the library stitcher's bytes.
        assert_eq!(
            trace_stitch(&s(&["--out", out_arg, train_arg, serve_arg])),
            0
        );
        let dumps = load_dumps(&[&train, &serve]).unwrap();
        let stitched = std::fs::read_to_string(&out).unwrap();
        assert_eq!(stitched, stitch_chrome_trace(&dumps));

        // A line nested a million deep is refused by the parser's depth
        // limit and skipped like a torn line; the stack is never at risk.
        let deep = dir.join("deep.jsonl");
        let mut text = std::fs::read_to_string(&serve).unwrap();
        text.push_str(&"[".repeat(1_000_000));
        text.push_str(&"]".repeat(1_000_000));
        text.push('\n');
        std::fs::write(&deep, text).unwrap();
        let deep_args = ["--out", out_arg, train_arg, deep.to_str().unwrap()];
        assert_eq!(trace_stitch(&s(&deep_args)), 0);
        assert_eq!(load_dumps(&[&deep]).unwrap()[0].skipped_lines, 1);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), stitched);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_method_is_rejected() {
        let dir = std::env::temp_dir().join("dp_nextloc_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.bin");
        let cfg = GeneratorConfig {
            num_users: 40,
            num_locations: 30,
            target_checkins: 900,
            num_clusters: 3,
            ..GeneratorConfig::default()
        };
        let ds = SyntheticGenerator::generate_with_seed(cfg, 2).unwrap();
        data_io::save_binary(&ds, &data).unwrap();
        let s = |v: &[&str]| -> Vec<String> { v.iter().map(|x| x.to_string()).collect() };
        let r = cmd_train(&s(&[
            "--data",
            data.to_str().unwrap(),
            "--out",
            dir.join("m.plps").to_str().unwrap(),
            "--method",
            "magic",
            "--holdout",
            "5",
        ]));
        assert!(r.is_err());
    }
}
