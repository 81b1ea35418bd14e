//! The docs may cite performance only as `workload:metric` names that
//! `BENCHMARK.json` declares, may not mention the retired bench reports
//! and tools, the retired model / checkpoint formats or the per-figure
//! binaries and their knobs, and DESIGN.md numbers its sections without a
//! hole. Reads files only.

use std::fs;
use std::path::Path;

use serde_json::Value;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];
const RETIRED: [&str; 14] = [
    "BENCH_train.json",
    "BENCH_serve.json",
    "BENCH_obs.json",
    "bench_guard",
    "trace_stitch.py",
    "cargo bench",
    ".plpm",
    "plp-model::snapshot",
    "PLPC, version",
    "run_figures.sh",
    // `--bin fig05…` / `--bin fig13…`; `--bin figures` is the one binary.
    "--bin fig0",
    "--bin fig1",
    "TTEST_EPS",
    "geoind",
];

/// The `name` strings of the objects in `manifest[key]`.
fn names(manifest: &Value, key: &str) -> Vec<String> {
    let Value::Array(items) = &manifest.as_object().expect("object")[key] else {
        panic!("BENCHMARK.json `{key}` is not an array");
    };
    let name = |item: &Value| match &item.as_object().expect("object")["name"] {
        Value::Str(name) => name.clone(),
        other => panic!("a `{key}` entry is named {other:?}"),
    };
    items.iter().map(name).collect()
}

#[test]
fn docs_cite_only_declared_metrics_and_no_retired_report() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
    };
    let manifest: Value = serde_json::from_str(&read("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names(&manifest, "workloads");
    let mut metrics = names(&manifest, "end_to_end");
    metrics.extend(names(&manifest, "per_layer"));
    assert_eq!(workloads.len(), 5, "the benchmark has five workloads");

    let mut problems = Vec::new();
    let mut cited = 0;
    for doc in DOCS {
        let text = read(doc);
        for retired in RETIRED {
            if text.contains(retired) {
                problems.push(format!("{doc} mentions retired `{retired}`"));
            }
        }
        for workload in &workloads {
            let opener = format!("`{workload}:");
            for cite in text.split(&opener).skip(1) {
                let metric = cite.split('`').next().unwrap_or(cite);
                cited += 1;
                if !metrics.iter().any(|m| m == metric) {
                    problems.push(format!(
                        "{doc} cites `{workload}:{metric}`, not a BENCHMARK.json metric"
                    ));
                }
            }
        }
    }
    let sections: Vec<usize> = read("DESIGN.md")
        .lines()
        .filter_map(|line| line.strip_prefix("## ")?.split_once(". ")?.0.parse().ok())
        .collect();
    if sections.is_empty() || !sections.iter().copied().eq(1..=sections.len()) {
        problems.push(format!(
            "DESIGN.md `## N.` headings are not 1, 2, 3, …: {sections:?}"
        ));
    }
    assert!(cited > 0, "the scan found no `workload:metric` citation");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
