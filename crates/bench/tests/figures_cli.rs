//! The `figures` binary from the outside: what `list` prints and which
//! exit code each kind of failure gets.

use std::process::{Command, Output};

use plp_bench::figures::EXPERIMENTS;

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

#[test]
fn list_prints_the_table_names_one_a_line() {
    let out = figures(&["list"]);
    assert!(out.status.success());
    let printed = String::from_utf8(out.stdout).unwrap();
    let table: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(printed.lines().collect::<Vec<_>>(), table);
}

#[test]
fn usage_errors_exit_2_with_usage_and_a_refused_run_exits_1() {
    for line in [
        &["run", "fig99_nothing"][..],
        &["run", "smoke", "--frobnicate"],
        &["run", "smoke", "--seeds", "0"],
    ] {
        let out = figures(line);
        assert_eq!(out.status.code(), Some(2), "{line:?}");
        assert!(out.stdout.is_empty(), "{line:?} must not start running");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("usage: figures list"), "{line:?}: {stderr}");
    }
    // A paired test asked for one repetition is refused before any work.
    let out = figures(&["run", "ttest_plp_vs_dpsgd", "--seeds", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--seeds must be at least 2"), "{stderr}");
}
