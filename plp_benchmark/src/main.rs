//! Command line of the benchmark.
//!
//! ```text
//! plp_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out set.jsonl]
//! plp_benchmark compare A.jsonl B.jsonl
//! plp_benchmark manifest
//! ```
//!
//! The first form runs one workload in this process (so `peak_rss_mb` is
//! that workload's), prints every metric by name with its unit, and ends
//! with the driver contract's one-line JSON. It exits 0 only when every
//! correctness check held; the result line's `correct` says the same.

use std::path::PathBuf;
use std::process::ExitCode;

use plp_benchmark::{compare, run_workload, spec, RunArgs};

const USAGE: &str = "usage:
  plp_benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <set.jsonl>]
  plp_benchmark compare <A.jsonl> <B.jsonl>
  plp_benchmark manifest";

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value_of(args, flag) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{flag}: cannot read {text:?}")),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let name = value_of(args, "--workload").ok_or(USAGE)?;
    let known = || {
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    if spec::workload(name).is_none() {
        return Err(format!("unknown workload {name:?}; one of: {}", known()));
    }
    let seconds: u64 = parsed(args, "--seconds", spec::NOMINAL_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds: {seconds} is outside 1..=60"));
    }
    let run_args = RunArgs {
        seed: parsed(args, "--seed", 42)?,
        seconds,
        traced: match parsed::<u8>(args, "--trace", 0)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace: {other} is neither 0 nor 1")),
        },
        set_file: value_of(args, "--out").map(PathBuf::from),
    };
    let report = run_workload(name, &run_args).expect("workload name was checked");
    report.print_human();
    report
        .save(run_args.set_file.as_deref())
        .map_err(|e| format!("cannot save the report: {e}"))?;
    println!("{}", report.contract_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::read_set(a.as_ref())
                .and_then(|a| Ok((a, compare::read_set(b.as_ref())?)))
                .map(|(a, b)| ExitCode::from(compare::print(&compare::compare(&a, &b)))),
            _ => Err(USAGE.to_string()),
        },
        Some("manifest") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&spec::manifest()).expect("manifest serialises")
            );
            Ok(ExitCode::SUCCESS)
        }
        _ => run(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(64)
    })
}
