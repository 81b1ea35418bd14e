#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the one-container, no-crossbeam-bytes-or-serde /
# one-fan-out, one-figures-binary, no-deployed-copy, one-pass private step,
# f32-Adam-moments, no-map-in-the-SGNS-loop, one-negative-draw-per-batch and retired-names
# (one start, one objective, one proposal, one server
# optimiser, one model file, one serving entry point per operation, one
# training process, one way to form a bucket, one token array per user)
# grep gates, build, the full
# test suite in the dev profile and again in release mode (with the
# allocation counts of a warm bucket, of an evaluation and of data
# preparation, the work counters of an IVF build and of a private step, the
# generated-data digests and the user-block partition test, printed), every experiment of the `figures` table at bench
# scale and a correctness smoke of the benchmark harness. The crash-safety
# and hot-swap fault tests run inside the test suite. This is the
# only CI definition — .github/workflows/ci.yml just calls it. It needs cargo, git, coreutils and awk — no Python, no network (all
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
# Every fan-out (serving stripes, the private step's fused noise and server
# update, the threaded evaluator, k-means assignment, the generator's POI
# mapping and data preparation's user blocks) is
# `plp_linalg::par::fan_out`;
# outside test modules only it and the training step's run-ahead reduction,
# whose caller is the reducer rather than a worker, open a
# `std::thread::scope`. No file under crates/ or src/, manifests included,
# names crossbeam, the bytes crate, serde_derive or a `serde::` path: JSON is
# the one serde_json crate, and its `ToJson` impls are written by hand.
if git grep -nE 'crossbeam|\bbytes::|serde_derive|\bserde::' -- crates src; then
  echo "no file under crates/ or src/ may name crossbeam, the bytes crate, serde_derive or serde::"
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

echo "== experiment-binary gate (one figures binary) =="
# An experiment is a row of plp_bench::figures::EXPERIMENTS and a fault
# scenario is a test of the crate it exercises, not a file: a second
# binary means the per-figure forks or the drills are coming back.
bins=$(ls crates/bench/src/bin | tr '\n' ' ')
if [ "$bins" != "figures.rs " ]; then
  echo "crates/bench/src/bin must hold exactly figures.rs, found: $bins"
  exit 1
fi

echo "== validation gate (the trainers evaluate θ where it lies) =="
# `Recommender::new` is a normalised copy of the whole embedding; a trainer
# that validates through one pays a θ-sized allocation per evaluation.
if git grep -n 'Recommender::new' -- crates/core/src/plp.rs crates/core/src/nonprivate.rs; then
  echo "crates/core/src/plp.rs and nonprivate.rs must evaluate ModelParams directly, not a Recommender::new copy"
  exit 1
fi

echo "== one-pass gate (the private step holds no θ-shaped buffer) =="
# A step sums its bucket deltas into a row-sparse `journal::RowSum`, and
# `noise::perturb_scale_and_step` noises, scales and applies it in one pass
# over θ. A zeroed parameter-shaped buffer, a dense accumulate or the
# separate noise pass in the training loop means the θ-shaped aggregate is
# back.
dense=$(awk '/^mod tests/ { exit } /ModelParams::zeros|accumulate_into|perturb_and_scale_threaded/ { print FILENAME ":" FNR ": " $0 }' crates/core/src/plp.rs)
if [ -n "$dense" ]; then
  echo "crates/core/src/plp.rs must sum into a RowSum and step with perturb_scale_and_step:"
  echo "$dense"
  exit 1
fi

echo "== f32-moment gate (Adam's moments stay two f32 per θ element) =="
# `optimizer::Moments` keeps m and v as f32 arenas cut like θ. A
# `ModelParams::zeros` or a `ModelParams` field in the optimiser outside its
# tests means an f64 moment — twice the bytes — is back.
wide=$(awk '/^mod tests/ { exit } /ModelParams::zeros|^ *(pub )?[a-z_]+: ModelParams,/ { print FILENAME ":" FNR ": " $0 }' crates/model/src/optimizer.rs)
if [ -n "$wide" ]; then
  echo "crates/model/src/optimizer.rs must keep Adam's moments in optimizer::Moments (f32):"
  echo "$wide"
  exit 1
fi

echo "== sparse-row gate (the SGNS loop holds no map) =="
# The per-batch gradient is a touch log replayed into the parameters; a
# map here means a second sparse-row type beside journal::DeltaRows is back.
if git grep -nE 'BTreeMap|BTreeSet' -- crates/model/src/grad.rs crates/model/src/loss.rs crates/model/src/train.rs; then
  echo "crates/model/src/{grad,loss,train}.rs must not use BTreeMap or BTreeSet"
  exit 1
fi

echo "== one-draw gate (one negative set per batch) =="
# Local SGD draws one uniform negative set per batch, shared by its pairs,
# in one helper that training and validation both call. A second call site
# of the sampler in train.rs means the per-pair draw is back.
draws=$(awk '/^mod tests/ { exit } /sample_distinct_excluding_into/ { n++ } END { print n + 0 }' crates/model/src/train.rs)
if [ "$draws" -ne 1 ]; then
  echo "crates/model/src/train.rs must name sample_distinct_excluding_into exactly once outside mod tests (found $draws)"
  exit 1
fi

echo "== retired-names gate (one start, one objective, one proposal, one server optimiser, one model file, one training process, one way to form a bucket, one token array per user) =="
# The trainer's checkpoint policy decides where a run starts and the loop
# steps the very state a save encodes; a resume entry point, a caller-side
# resume switch or a second state type means both are being forked again.
# The IVF search twins compose the probe and re-rank stages callers already
# make. The paper trains one configuration — a sampled softmax over uniform
# negatives under DP-Adam — so a loss enum, a negative-sampler type, a
# server-optimiser choice, Adam's β/ε knobs, the non-private trainer's
# switches or a worker's argument list are alternatives coming back.
# `train --out` writes the serving bundle, and the serving API keeps one
# method per operation: a full-θ model file, an allocating twin, or a
# single-query or test-only entry point is a second way back in.
# Training runs in one process behind the trainer's executor seam: a
# federated executor or its configuration, a bucket runner for another
# process, a worker stall, exit or garbled-reply fault, or a trace domain
# for rounds is the process fleet coming back. The example computes the
# classical composition bounds it prints. Data preparation is one pass over
# a flat table, `preprocess::prepare`: a session cutter, a tokeniser over a
# copied dataset or a split of cloned datasets is a second path back in.
# The generator writes each user's history in place and regroups nothing:
# `from_checkins` in generator.rs is the flat check-in vector and its regroup
# coming back (the CSV and snapshot loaders keep them).
# The IVF build's test oracle is `build_reference`, its own Lloyd loop over
# the exact scan: a seam that drives the real build with another
# assignment pass shares the very loop the oracle should check.
# λ is the one grouping knob: a split factor ω, its grouping and its
# check, equal-frequency packing or their ablation rows are a second way
# to form a bucket, one whose sensitivity the ledger does not charge.
# (The bracketed last letters, as in
# `ps | grep [n]ame`, keep a grep for these names over scripts/ from
# finding this line.)
if git grep -nwE 'resume_plp|resume_plp_with_executor|RunControl|ServerState|TrainerState|search_into|search_quantized_into|NegativeSampler|ServerSgd|ServerOptimizer|Sgns|with_betas|unigram_negatives|lr_decay|sigmoid_and_ln_sigmoid(_neg)?|worker_args|write_params|serve_one|quant_totals|from_engine|cache_hit_rate|recommend_excluding|with_current_ex[e]|maybe_run_worke[r]|privacy::compositio[n]|sessioniz[e]|from_datase[t]|holdout_spli[t]|build_wit[h]|FedExecuto[r]|FedConfi[g]|BucketRunne[r]|stall_worke[r]|exit_worke[r]|corrupt_reply_fram[e]|DOMAIN_FED_ROUN[D]|split_facto[r]|group_data_spli[t]|realized_split_facto[r]|EqualFrequenc[y]|ablation_omeg[a]|ablation_grouping_strateg[y]' -- crates src tests examples; then
  echo "these names are gone: call the trainer again with the same CheckpointPolicy, probe_cells + rerank_probed*, the one objective, sampler and server optimiser, plps::write_deployable, recommend_excluding_into / serve, the trainer's LocalExecutor in one process, the example's own composition bounds, preprocess::prepare (the one pass from check-ins to sessions), IvfIndex::build_reference (the IVF build's exact oracle) or group_data's λ random users per bucket"
  exit 1
fi

if git grep -n 'from_checkins' -- crates/data/src/generator.rs; then
  echo "crates/data/src/generator.rs must write histories in place, not regroup a flat vector with from_checkins"
  exit 1
fi

# A user's sessions are one token array and its session ends
# (`dataset::UserSequences`); a vector per session in the type or in
# preparation is the allocation per session coming back.
if git grep -nF 'Vec<Vec<usize>>' -- crates/data/src/dataset.rs crates/data/src/preprocess.rs; then
  echo "crates/data/src/{dataset,preprocess}.rs must keep sessions as one token array per user, not Vec<Vec<usize>>"
  exit 1
fi

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (root package, tier-1) =="
cargo test -q

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== cargo test --release --workspace =="
# The suites above run at the dev profile's opt-level 1; every test runs
# once more against the code that ships (opt-level 3, thin LTO): the
# auto-vectorised kernels, the threaded passes and the ordered reductions
# that race real threads.
cargo test --release --workspace -q
# How often a warm bucket, an evaluation or data preparation allocates is a
# property of the optimised code; the tests print the figures DESIGN.md
# §11.2, §11.3 and §5.5 quote.
cargo test --release -q -p plp-model --test alloc_count -- --nocapture
cargo test --release -q -p plp-core --test alloc_count -- --nocapture
# What each pass of an IVF build at the serve_city shape does — rows
# filtered, exact dots, descent attempts — pinned exactly and printed
# (DESIGN.md §14.2): less work is shown by a count, not a timing.
cargo test --release -q -p plp-linalg --lib work_counters_at_the_serve_city_shape -- --nocapture
# The same for one private step at the train_grouped shape: users sampled,
# buckets, bucket tokens, SGNS pairs and the row sum's W, W′ and B′ rows.
cargo test --release -q -p plp-core --lib work_counters_at_the_train_grouped_shape -- --nocapture
# And at the train_wide shape, whose W′ rows do not saturate the vocabulary,
# so a change to the negatives a batch draws shows in the pin.
cargo test --release -q -p plp-core --lib work_counters_at_the_train_wide_shape -- --nocapture
# The raw generated datasets and worlds, pinned by digest, and the user-block
# cut of generation and preparation, which must not show in a byte of either.
cargo test --release -q --test pipeline_roundtrip generated_data_matches -- --nocapture
cargo test --release -q -p plp-data --lib blocks_do_not_show -- --nocapture

echo "== figures (every experiment of the table, bench scale) =="
# Seconds each; gated on the exit code, which is non-zero when any
# experiment reports a pipeline error.
cargo run --release -p plp-bench --bin figures -- run --all --scale bench >/dev/null

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
