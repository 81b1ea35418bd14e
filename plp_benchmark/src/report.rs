//! One run's report: every metric by name, the phases with their
//! sent/succeeded/failed counts, the correctness checks, and provenance.
//! The same structure is printed for a human, appended to a set file for
//! `compare`, and reduced to the driver contract's one-line JSON.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use crate::host;
use crate::spec::{END_TO_END, FAMILY, PER_LAYER};

/// Version of the report layout; `compare` refuses files of another one.
pub const SCHEMA: u64 = 1;

/// One named correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or digests that show it.
    pub detail: String,
}

/// Counts of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label.
    pub name: String,
    /// Operations sent.
    pub sent: u64,
    /// Operations that succeeded.
    pub succeeded: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Timing samples behind the phase's percentiles.
    pub samples: u64,
}

/// The report of one run of one workload.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Metric values by name; units and directions come from `spec`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Phase counts.
    pub phases: Vec<PhaseRow>,
    /// Correctness checks; the run is correct iff all hold.
    pub checks: Vec<Check>,
    /// Realised sizes (vocab, users, steps, …) and frozen constants used.
    pub realised: BTreeMap<&'static str, Value>,
    /// Operations attempted (steps or queries).
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
}

/// The unit of a metric defined in `spec`.
///
/// # Panics
/// On a name `spec` does not define — a report must not invent metrics.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(FAMILY.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or_else(|| panic!("metric {name} is not defined in spec.rs"))
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool, seed: u64, seconds: u64) -> Self {
        Report {
            workload,
            traced,
            seed,
            seconds,
            metrics: BTreeMap::new(),
            phases: Vec::new(),
            checks: Vec::new(),
            realised: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records a metric (the name must exist in `spec`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        let _ = unit_of(name);
        self.metrics.insert(name, value);
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Records a realised size or constant.
    pub fn note(&mut self, name: &'static str, value: impl Into<NoteValue>) {
        self.realised.insert(name, value.into().0);
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The full report as JSON.
    pub fn to_json(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(&k, &v)| (k.to_string(), json!({"value": v, "unit": unit_of(k)})))
            .collect();
        json!({
            "schema": SCHEMA,
            "workload": self.workload,
            "traced": self.traced,
            "seed": self.seed,
            "seconds": self.seconds,
            "host": host::fingerprint(),
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
            "phases": self.phases.iter().map(|p| json!({
                "name": p.name.clone(), "sent": p.sent, "succeeded": p.succeeded,
                "failed": p.failed, "samples": p.samples,
            })).collect::<Vec<_>>(),
            "checks": self.checks.iter().map(|c| json!({
                "name": c.name.clone(), "ok": c.ok, "detail": c.detail.clone(),
            })).collect::<Vec<_>>(),
            "realised": Value::Object(
                self.realised.iter().map(|(&k, v)| (k.to_string(), v.clone())).collect()
            ),
        })
    }

    /// Prints every metric by name with its unit, the phases and the
    /// checks, for a reader.
    pub fn print_human(&self) {
        println!(
            "== {} ({}, seed {}, {} s)",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.seconds
        );
        for p in &self.phases {
            println!(
                "phase {:<11} sent {:>8} succeeded {:>8} failed {:>4} samples {:>8}",
                p.name, p.sent, p.succeeded, p.failed, p.samples
            );
        }
        for (name, value) in &self.metrics {
            println!("{name:<36} {value:>16.6} {}", unit_of(name));
        }
        for (name, value) in &self.realised {
            println!("{name:<36} {value}");
        }
        for c in &self.checks {
            println!(
                "{} {} ({})",
                if c.ok { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
    }

    /// The driver contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every end-to-end metric
    /// (untraced run) or every per-layer metric (traced run). A per-layer
    /// metric that does not apply to this workload reads 0.
    pub fn contract_line(&self) -> String {
        let names: Vec<&'static str> = if self.traced {
            FAMILY
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.name))
                .collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|&n| {
                let v = self.metrics.get(n).copied().unwrap_or(0.0);
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json!(v),
                    unit_of(n)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Writes the full report where later commands find it: the latest
    /// report of this workload and mode under the artifact directory, and,
    /// when `set_file` is given, one more line of that set.
    ///
    /// # Errors
    /// Any I/O error.
    pub fn save(&self, set_file: Option<&Path>) -> std::io::Result<()> {
        let text = serde_json::to_string(&self.to_json()).expect("report serialises");
        let dir = artifact_dir();
        std::fs::create_dir_all(&dir)?;
        std::fs::write(latest_path(self.workload, self.traced), &text)?;
        if let Some(path) = set_file {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(f, "{text}")?;
        }
        Ok(())
    }
}

/// A value [`Report::note`] accepts.
pub struct NoteValue(Value);

impl From<usize> for NoteValue {
    fn from(v: usize) -> Self {
        NoteValue(json!(v))
    }
}
impl From<u64> for NoteValue {
    fn from(v: u64) -> Self {
        NoteValue(json!(v))
    }
}
impl From<f64> for NoteValue {
    fn from(v: f64) -> Self {
        NoteValue(json!(v))
    }
}
impl From<String> for NoteValue {
    fn from(v: String) -> Self {
        NoteValue(json!(v))
    }
}

/// Where traces, latest reports and the hot-swap publish directory go:
/// `plp_benchmark/target/plp_benchmark` seen from the repository root, or
/// `target/plp_benchmark` when run from inside this directory.
pub fn artifact_dir() -> PathBuf {
    if Path::new("plp_benchmark/Cargo.toml").exists() {
        PathBuf::from("plp_benchmark/target/plp_benchmark")
    } else {
        PathBuf::from("target/plp_benchmark")
    }
}

/// Path of the latest report of a workload in one mode.
pub fn latest_path(workload: &str, traced: bool) -> PathBuf {
    artifact_dir().join(format!(
        "{workload}.{}.json",
        if traced { "traced" } else { "untraced" }
    ))
}

/// The latest untraced report of `workload` if this very build made it
/// with the same seed and window — the reference a traced serving run
/// takes its tracing overhead against.
pub fn untraced_reference(workload: &str, seed: u64, seconds: u64) -> Option<Value> {
    let text = std::fs::read_to_string(latest_path(workload, false)).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    let o = v.as_object()?;
    let same = o.get("seed")?.as_f64()? == seed as f64
        && o.get("seconds")?.as_f64()? == seconds as f64
        && o.get("schema")?.as_f64()? == SCHEMA as f64
        && o.get("host")?.as_object()?.get("binary")? == &Value::Str(host::binary_digest());
    same.then_some(v)
}

/// A metric's value inside a parsed report.
pub fn metric_in(report: &Value, name: &str) -> Option<f64> {
    report
        .as_object()?
        .get("metrics")?
        .as_object()?
        .get(name)?
        .as_object()?
        .get("value")?
        .as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("serve_paper", false, 1, 10);
        for m in END_TO_END {
            r.set(m.name, 1.25);
        }
        r.set("capacity_qps", 9.0);
        r.attempted = 10;
        r.check("x", true, String::new());
        let v: Value = serde_json::from_str(&r.contract_line()).expect("valid json");
        let o = v.as_object().expect("object");
        let keys: Vec<&str> = o.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = o["metrics"].as_object().expect("metrics object");
        assert_eq!(metrics.len(), END_TO_END.len(), "family metrics stay out");
        assert_eq!(metric_in(&v, "setup_s"), Some(1.25));
    }

    #[test]
    fn traced_line_lists_every_per_layer_metric_zero_when_absent() {
        let mut r = Report::new("train_wide", true, 1, 10);
        r.set("core.noise.ms_per_step", 3.5);
        let v: Value = serde_json::from_str(&r.contract_line()).expect("valid json");
        let metrics = v.as_object().expect("object")["metrics"]
            .as_object()
            .expect("metrics");
        assert_eq!(metrics.len(), FAMILY.len() + PER_LAYER.len());
        assert_eq!(metric_in(&v, "core.noise.ms_per_step"), Some(3.5));
        assert_eq!(metric_in(&v, "serve.cache.hit_rate"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not defined in spec.rs")]
    fn undefined_metric_names_are_refused() {
        Report::new("serve_paper", false, 1, 10).set("made.up", 1.0);
    }
}
