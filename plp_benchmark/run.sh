#!/usr/bin/env bash
# The single entry of the benchmark. Run it from the repository root.
#
#   bash plp_benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds --release, then runs that one workload (the form BENCHMARK.json names)
#   bash plp_benchmark/run.sh compare A.jsonl B.jsonl
#       builds, then compares two sets of runs
#   bash plp_benchmark/run.sh
#       builds, then runs all five workloads untraced and then traced, one
#       process each. PLP_SEED (default 42) picks the inputs, PLP_REPEAT
#       (default 1) repeats the untraced pass, PLP_OUT names a set file the
#       reports are appended to for `compare`.
#
# The build is offline and goes to $CARGO_TARGET_DIR, or to
# plp_benchmark/target when that is unset.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/plp_benchmark"

if [ $# -gt 0 ]; then
    exec "$bin" "$@"
fi

seed="${PLP_SEED:-42}"
out=()
if [ -n "${PLP_OUT:-}" ]; then
    out=(--out "$PLP_OUT")
fi
workloads=(train_grouped train_wide serve_paper serve_city serve_swap)
status=0
for _ in $(seq 1 "${PLP_REPEAT:-1}"); do
    for workload in "${workloads[@]}"; do
        "$bin" --workload "$workload" --seed "$seed" --trace 0 "${out[@]}" || status=1
    done
done
# The traced pass comes second: it reads the untraced reports of the same
# seed for the tracing overhead and the bit-identity of what training returned.
for workload in "${workloads[@]}"; do
    "$bin" --workload "$workload" --seed "$seed" --trace 1 "${out[@]}" || status=1
done
exit "$status"
