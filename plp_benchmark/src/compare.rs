//! `plp_benchmark compare A B`: are two sets of runs the same, better or
//! worse? One row per (workload, end-to-end metric) with both medians, the
//! delta, the bound and a verdict. This is the rule "two sets of runs of
//! the same code agree" is checked with, and the rule every later change
//! is held to: no `regressed` row, and no `unresolved` row passed off as
//! unchanged.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::report::{metric_in, SCHEMA};
use crate::spec::{Better, Bound, Bounded, END_TO_END, FAMILY, WORKLOADS};
use crate::stats::{median, quartiles};

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot be told apart at this bound — not the same as unchanged.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Runs in A and B.
    pub runs: (usize, usize),
    /// Median of A and of B.
    pub medians: (f64, f64),
    /// How much worse B is than A, in the bound's terms (share of A's
    /// median, or absolute); negative when B is better.
    pub worse_by: f64,
    /// Run-to-run spread in the bound's terms (inter-quartile distance,
    /// as a share of the median for relative bounds).
    pub spread: f64,
    /// The bound.
    pub bound: Bound,
    /// The verdict.
    pub verdict: Verdict,
}

/// Values of one metric on one workload, keyed by seed.
type BySeed = BTreeMap<u64, Vec<f64>>;

/// Reads a set file: one untraced report per line (traced reports and
/// blank lines are skipped).
///
/// # Errors
/// A message naming the file and line on unreadable or malformed input.
pub fn read_set(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let o = v
            .as_object()
            .ok_or_else(|| format!("{}:{}: not a report", path.display(), i + 1))?;
        if o.get("schema").and_then(Value::as_f64) != Some(SCHEMA as f64) {
            return Err(format!(
                "{}:{}: report schema is not {SCHEMA}",
                path.display(),
                i + 1
            ));
        }
        if o.get("traced") == Some(&Value::Bool(false)) {
            out.push(v);
        }
    }
    Ok(out)
}

fn collect(set: &[Value], workload: &str, metric: &str) -> BySeed {
    let mut by_seed = BySeed::new();
    for report in set {
        let Some(o) = report.as_object() else {
            continue;
        };
        if o.get("workload") != Some(&Value::Str(workload.to_string())) {
            continue;
        }
        let seed = o.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if let Some(v) = metric_in(report, metric) {
            by_seed.entry(seed).or_default().push(v);
        }
    }
    by_seed
}

/// Inter-quartile distance of the run-to-run noise. Where a seed was run
/// more than once the distance is taken within each seed (the median of
/// those), so that inputs differing by seed do not count as noise;
/// otherwise across all runs.
fn noise_iqr(by_seed: &BySeed) -> f64 {
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |q| q[2] - q[0]);
    let within: Vec<f64> = by_seed
        .values()
        .filter(|v| v.len() >= 2)
        .map(|v| iqr(v))
        .collect();
    if within.is_empty() {
        iqr(&by_seed.values().flatten().copied().collect::<Vec<_>>())
    } else {
        median(&within)
    }
}

fn judge(workload: &'static str, m: &Bounded, a: &BySeed, b: &BySeed) -> Row {
    let all = |s: &BySeed| s.values().flatten().copied().collect::<Vec<f64>>();
    let (va, vb) = (all(a), all(b));
    let (ma, mb) = (median(&va), median(&vb));
    let raw_worse = match m.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let raw_spread = noise_iqr(a).max(noise_iqr(b));
    let (worse_by, spread, limit) = match m.bound {
        Bound::Rel(r) if ma != 0.0 => (raw_worse / ma.abs(), raw_spread / ma.abs(), r),
        Bound::Rel(r) => (raw_worse, raw_spread, r),
        Bound::Abs(x) => (raw_worse, raw_spread, x),
    };
    // One run a side gives no spread at all: a difference beyond the bound
    // can then not be told from noise, so it is unresolved, not regressed.
    let spread_known = va.len() >= 2 && vb.len() >= 2;
    let verdict = if spread > limit || (worse_by > limit && !spread_known) {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        workload,
        metric: m.name,
        runs: (va.len(), vb.len()),
        medians: (ma, mb),
        worse_by,
        spread,
        bound: m.bound,
        verdict,
    }
}

/// Compares two sets: one row for every (workload, end-to-end metric) both
/// sets measured.
pub fn compare(a: &[Value], b: &[Value]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END.iter().chain(FAMILY.iter()) {
            let (sa, sb) = (collect(a, w.name, m.name), collect(b, w.name, m.name));
            if !sa.is_empty() && !sb.is_empty() {
                rows.push(judge(w.name, m, &sa, &sb));
            }
        }
    }
    rows
}

/// Prints the rows as a table and returns the process exit code: 0 when
/// every row is `ok`, 1 when any regressed, 2 when none regressed but some
/// are unresolved, 3 when there was nothing to compare.
pub fn print(rows: &[Row]) -> u8 {
    println!(
        "{:<14} {:<22} {:>5} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "runs", "median A", "median B", "worse by", "spread", "bound"
    );
    for r in rows {
        let (bound, pct) = match r.bound {
            Bound::Rel(x) => (x, true),
            Bound::Abs(x) => (x, false),
        };
        let show = |x: f64| {
            if pct {
                format!("{:+.2}%", x * 100.0)
            } else {
                format!("{x:+.4}")
            }
        };
        println!(
            "{:<14} {:<22} {:>2}/{:<2} {:>14.6} {:>14.6} {:>9} {:>8} {:>8}  {}",
            r.workload,
            r.metric,
            r.runs.0,
            r.runs.1,
            r.medians.0,
            r.medians.1,
            show(r.worse_by),
            show(r.spread),
            show(bound),
            r.verdict.word()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
    println!(
        "{} rows: {} ok, {regressed} regressed, {unresolved} unresolved",
        rows.len(),
        count(Verdict::Ok)
    );
    match (rows.is_empty(), regressed, unresolved) {
        (true, _, _) => 3,
        (_, 1.., _) => 1,
        (_, 0, 1..) => 2,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn report(workload: &str, seed: u64, metric: &str, value: f64) -> Value {
        let mut metrics = BTreeMap::new();
        metrics.insert(metric.to_string(), json!({"value": value, "unit": "x"}));
        json!({
            "schema": SCHEMA, "workload": workload, "traced": false, "seed": seed,
            "metrics": Value::Object(metrics),
        })
    }

    fn set(workload: &str, metric: &str, values: &[f64]) -> Vec<Value> {
        values
            .iter()
            .map(|&v| report(workload, 42, metric, v))
            .collect()
    }

    fn verdict_of(a: &[f64], b: &[f64], metric: &str) -> Verdict {
        let rows = compare(&set("serve_city", metric, a), &set("serve_city", metric, b));
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn steady_sets_within_the_bound_are_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        // lower is better, bound 10 %: 3 % worse is fine.
        assert_eq!(verdict_of(&a, &b, "lat_p50_ms.r2"), Verdict::Ok);
        // higher is better, bound 5 %: B is 3 % better.
        assert_eq!(verdict_of(&a, &b, "capacity_qps"), Verdict::Ok);
    }

    #[test]
    fn a_median_worse_than_the_bound_regresses() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(verdict_of(&a, &b, "capacity_qps"), Verdict::Regressed);
        assert_eq!(verdict_of(&b, &a, "lat_p50_ms.r2"), Verdict::Regressed);
        assert_eq!(
            print(&compare(
                &set("serve_city", "lat_p50_ms.r2", &b),
                &set("serve_city", "lat_p50_ms.r2", &a)
            )),
            1
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let b = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(verdict_of(&a, &b, "capacity_qps"), Verdict::Unresolved);
    }

    #[test]
    fn seeds_are_not_noise_when_each_was_run_twice() {
        // hr10 differs a lot between seeds but repeats exactly within one.
        let mut a = Vec::new();
        for (seed, v) in [(1, 0.20), (2, 0.30), (3, 0.40)] {
            a.push(report("train_grouped", seed, "hr10", v));
            a.push(report("train_grouped", seed, "hr10", v));
        }
        let rows = compare(&a, &a);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].spread, 0.0);
    }

    #[test]
    fn one_run_a_side_cannot_regress() {
        assert_eq!(
            verdict_of(&[100.0], &[80.0], "capacity_qps"),
            Verdict::Unresolved
        );
        assert_eq!(verdict_of(&[100.0], &[99.0], "capacity_qps"), Verdict::Ok);
    }

    #[test]
    fn absolute_zero_bound_flags_any_new_failure() {
        assert_eq!(
            verdict_of(&[0.0, 0.0], &[0.0, 0.0], "failed_frac"),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(&[0.0, 0.0], &[0.01, 0.01], "failed_frac"),
            Verdict::Regressed
        );
    }
}
