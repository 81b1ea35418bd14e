#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the one-container, no-crossbeam /
# one-fan-out, four-binaries, no-deployed-copy and no-map-in-the-SGNS-loop
# grep gates, build, the full test suite (and the vectorised kernels', the
# fan-out's, the server update's, the noise pass's, the batch-gradient
# replay's, the rank-counting evaluator's, the streaming reduction's and the
# serving engine's identity tests again in release mode, with the allocation
# counts of a warm bucket and of an evaluation),
# every experiment of the `figures` table at bench scale, the
# chaos drills, a re-stitch of the fed_chaos trace dumps through the CLI
# and a correctness smoke of the benchmark harness. This is the only CI definition — .github/workflows/ci.yml just
# calls it. It needs cargo, git, coreutils and awk — no Python, no network (all
# dependencies are vendored in compat/). Nothing here judges a timing:
# every step is gated on its exit code.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== artifact-container gate (one atomic writer, one writer magic) =="
# Every artifact goes through plp_data::frame: a second `fn write_atomic`
# or a format magic outside that file means a codec has been forked again.
writers=$(git grep -n 'fn write_atomic' -- crates src | wc -l)
magics=$(git grep -nE 'b"PLP[A-Z]"' -- crates src || true)
stray=$(grep -v '^crates/data/src/frame.rs:' <<<"$magics" || true)
if [ "$writers" -ne 1 ] || [ -n "$stray" ] || [ "$(grep -c 'b"PLPS"' <<<"$magics")" -ne 1 ]; then
  echo "expected one fn write_atomic (found $writers) and magics only in crates/data/src/frame.rs:"
  echo "$magics"
  exit 1
fi

echo "== threading gate (one fan-out, std threads only) =="
# Every fan-out (serving stripes, the noise pass, the server update, the
# threaded evaluator, k-means assignment) is `plp_linalg::par::fan_out`;
# outside test modules only it and the training step's run-ahead reduction,
# whose caller is the reducer rather than a worker, open a
# `std::thread::scope`. Only the Cargo.toml edges the harness's lock file
# pins may still name crossbeam.
if git grep -n crossbeam -- crates src ':!*Cargo.toml'; then
  echo "no source file under crates/ or src/ may name crossbeam"
  exit 1
fi
scopes=$(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' | while read -r f; do
  awk -v f="$f" '/^mod tests/ { exit } /std::thread::scope/ { print f ":" FNR }' "$f"
done | grep -vE '^crates/(linalg/src/par|core/src/plp)\.rs:' || true)
if [ -n "$scopes" ]; then
  echo "std::thread::scope outside crates/linalg/src/par.rs and crates/core/src/plp.rs (use par::fan_out):"
  echo "$scopes"
  exit 1
fi

echo "== experiment-binary gate (one figures binary, three drills) =="
# An experiment is a row of plp_bench::figures::EXPERIMENTS, not a file: a
# fifth binary means the per-figure forks are coming back.
bins=$(ls crates/bench/src/bin | sort | tr '\n' ' ')
if [ "$bins" != "chaos.rs fed_chaos.rs figures.rs swap_chaos.rs " ]; then
  echo "crates/bench/src/bin must hold exactly chaos.rs fed_chaos.rs figures.rs swap_chaos.rs, found: $bins"
  exit 1
fi

echo "== validation gate (the trainers evaluate θ where it lies) =="
# `Recommender::new` is a normalised copy of the whole embedding; a trainer
# that validates through one pays a θ-sized allocation per evaluation.
if git grep -n 'Recommender::new' -- crates/core/src/plp.rs crates/core/src/nonprivate.rs; then
  echo "crates/core/src/plp.rs and nonprivate.rs must evaluate ModelParams directly, not a Recommender::new copy"
  exit 1
fi

echo "== sparse-row gate (the SGNS loop holds no map) =="
# The per-batch gradient is a touch log replayed into the parameters; a
# map here means a second sparse-row type beside journal::DeltaRows is back.
if git grep -nE 'BTreeMap|BTreeSet' -- crates/model/src/grad.rs crates/model/src/loss.rs crates/model/src/train.rs; then
  echo "crates/model/src/{grad,loss,train}.rs must not use BTreeMap or BTreeSet"
  exit 1
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (root package, tier-1) =="
cargo test -q

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== release-mode kernels against their references =="
# The suites above run unoptimised; the IVF assignment filter and the
# table-driven CRC ship auto-vectorised and unrolled, and so do the
# evaluator's comparison counts and the `axpy` the batch gradient is
# replayed with, so their identity tests also run against the code the
# optimiser actually produces — as do the fan-out's and the two θ-sized
# passes it splits (the server update and the noise), against one part.
cargo test --release -q -p plp-linalg ivf
cargo test --release -q -p plp-linalg par
cargo test --release -q -p plp-model optimizer
cargo test --release -q -p plp-core noise
cargo test --release -q -p plp-data crc32
cargo test --release -q -p plp-model metrics
cargo test --release -q -p plp-model grad
cargo test --release -q -p plp-model train

echo "== release-mode streaming reduction and allocation count =="
# Same reason: the ordered reduction's identity, fault and run-ahead-bound
# tests race real worker threads, and how often a warm bucket or an
# evaluation allocates is a property of the optimised code (the test prints
# the figures DESIGN.md §11.2 and §11.3 quote).
cargo test --release -q -p plp-core streaming
# The engine's inline ≡ striped ≡ sequential sweeps, its spawn counts and
# its error-path scratch return race the caller against scoped threads.
cargo test --release -q -p plp-serve engine
cargo test --release -q -p plp-model --test alloc_count -- --nocapture

echo "== figures (every experiment of the table, bench scale) =="
# Seconds each; gated on the exit code, which is non-zero when any
# experiment reports a pipeline error.
cargo run --release -p plp-bench --bin figures -- run --all --scale bench >/dev/null

echo "== chaos drill (crash-safety smoke) =="
cargo run --release -p plp-bench --bin chaos

echo "== swap_chaos drill (hot-swap serving: torn writers, corrupt candidates, hammer) =="
cargo run --release -p plp-bench --bin swap_chaos -- --smoke

echo "== fed_chaos drill (multi-process federated smoke + traced round) =="
cargo run --release -p plp-bench --bin fed_chaos -- --smoke \
  --trace-out target/BENCH_fed_trace.json

echo "== trace-stitch (the CLI over the fed_chaos dumps) =="
# One loader, one stitcher: the same dumps in the same order must give
# the file fed_chaos wrote, byte for byte.
cargo run --release --bin dp-nextloc -- trace-stitch \
  --out target/BENCH_fed_trace_cli.json target/fed_trace_dumps
cmp target/BENCH_fed_trace.json target/BENCH_fed_trace_cli.json

echo "== plp_benchmark unit tests =="
cargo test --offline -q --manifest-path plp_benchmark/Cargo.toml

echo "== plp_benchmark smoke (correctness checks of every workload, traced) =="
# One short traced run per workload: served answers against the
# sequential reference, recall floors, traced == untraced training bits.
# run.sh exits non-zero when any check prints FAIL. Four seconds is the
# shortest window in which every serving round still holds the 1000
# answers the harness's tail-percentile check asks for.
for workload in train_grouped train_wide serve_paper serve_city serve_swap; do
  bash plp_benchmark/run.sh --workload "$workload" --seconds 4 --trace 1
done

echo "CI checks passed."
