//! `plp_benchmark`: one harness, five workloads, end-to-end and per-layer
//! numbers for PLP training, serving and hot-swap. See `README.md` for the
//! workloads, the metrics and how to run, compare and open a trace; see
//! `spec.rs` for the frozen definition every later change is judged by.
//!
//! The harness drives only public functions of the repository's crates and
//! changes none of their code. An untraced run yields the end-to-end
//! metrics; a traced run of the same workload records harness-side spans
//! around each call into a layer and yields the per-layer metrics.

pub mod compare;
pub mod host;
pub mod inputs;
pub mod kernels;
pub mod load;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod train;

use std::path::PathBuf;

/// What one run was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// Master seed; every input derives from it and nothing else.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Set file to append the full report to, for `compare`.
    pub set_file: Option<PathBuf>,
}

/// Times a workload's set-up and returns the fastest time with the last
/// set-up's product. The set-up is made at least four times, and until
/// three seconds have gone into it (at most 40 times). It is the same
/// deterministic work every time, and on a shared host a neighbour can only
/// add time to it, never take any away, so the fastest of the repetitions
/// is the figure a second set of runs reproduces: over a dozen runs the
/// median of the set-ups moved by 20 % with the host's cold start and busy
/// spells, the fastest by 1–5 %. Work moved into set-up still shows, in
/// every repetition. Each product is dropped before the next is built, so
/// repeating does not raise the peak resident set.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut product = None;
    while times.len() < 4 || (times.iter().sum::<f64>() < 3.0 && times.len() < 40) {
        drop(product.take());
        let start = std::time::Instant::now();
        product = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    (fastest, product.expect("at least four set-ups"))
}

/// Runs one workload by name; `None` for a name `spec` does not define.
pub fn run_workload(name: &str, args: &RunArgs) -> Option<report::Report> {
    use serve::Kind;
    Some(match spec::workload(name)?.name {
        n @ "train_grouped" => train::run(n, &spec::TRAIN_GROUPED, args),
        n @ "train_wide" => train::run(n, &spec::TRAIN_WIDE, args),
        n @ "serve_paper" => serve::run(n, Kind::Paper, &spec::SERVE_PAPER, args),
        n @ "serve_city" => serve::run(n, Kind::City, &spec::SERVE_CITY, args),
        n @ "serve_swap" => serve::run(n, Kind::Swap, &spec::SERVE_SWAP, args),
        other => unreachable!("workload {other} is listed in spec::WORKLOADS but has no runner"),
    })
}
