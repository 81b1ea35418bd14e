//! Training and serving telemetry: per-step observations, run summaries
//! and the serving-layer counters reported by `plp-serve`.

use serde::Serialize;

/// What one private step observed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StepTelemetry {
    /// 1-based step index.
    pub step: u64,
    /// Users drawn by the Poisson sampler.
    pub sampled_users: usize,
    /// Buckets formed (`|H|`).
    pub buckets: usize,
    /// Buckets dropped from the Gaussian sum this step (non-finite delta
    /// or a panicking bucket worker). Dropping never increases the query's
    /// sensitivity, so the step's DP accounting is unaffected.
    pub skipped_buckets: usize,
    /// Mean local training loss across buckets.
    pub mean_local_loss: f64,
    /// Fraction of buckets whose delta hit the clip bound.
    pub clip_fraction: f64,
    /// Cumulative ε after this step.
    pub epsilon_spent: f64,
    /// Wall-clock time of the step in milliseconds.
    pub wall_ms: f64,
    /// Validation HR@10 measured at this step, if evaluation ran.
    pub validation_hr10: Option<f64>,
}

/// Summary of a finished private training run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSummary {
    /// Private steps actually executed.
    pub steps: u64,
    /// ε spent at the stopping point.
    pub epsilon_spent: f64,
    /// δ of the guarantee.
    pub delta: f64,
    /// Total wall-clock milliseconds spent in the training loop.
    pub total_wall_ms: f64,
    /// Why training stopped.
    pub stop_reason: StopReason,
}

/// Why a private training loop terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StopReason {
    /// The moments accountant hit the ε budget (Algorithm 1, line 12).
    BudgetExhausted,
    /// The configured `max_steps` cap was reached first.
    MaxSteps,
    /// Every bucket of a step was poisoned (non-finite delta or panicked
    /// worker): training cannot make progress and stops after accounting
    /// the aborted step conservatively.
    Diverged,
    /// The run was halted by its driver (e.g. a crash drill or scheduling
    /// preemption) before any other stop condition; it can be resumed from
    /// the latest checkpoint.
    Interrupted,
}

impl StopReason {
    /// Stable snake_case label used as the `reason` metric label on
    /// `plp_train_stop_total` and in log lines.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::BudgetExhausted => "budget_exhausted",
            StopReason::MaxSteps => "max_steps",
            StopReason::Diverged => "diverged",
            StopReason::Interrupted => "interrupted",
        }
    }
}

/// What a batch-serving engine observed over its lifetime: load, latency
/// percentiles and cache effectiveness (the serving counterpart of
/// [`StepTelemetry`], reported by the `plp-serve` engine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeTelemetry {
    /// Recommendation queries answered (cache hits included).
    pub queries: u64,
    /// Scoring batches executed (cache hits never form a batch).
    pub batches: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that had to be scored.
    pub cache_misses: u64,
    /// Queries per **second** of engine wall time
    /// (`queries / (wall_ms / 1000)`); `0.0` before any traffic.
    pub qps: f64,
    /// Median per-query latency, in **milliseconds**. Derived from a
    /// bounded log-linear histogram, so it carries that histogram's
    /// ≤ one-bucket-width quantile error.
    pub p50_ms: f64,
    /// 95th-percentile per-query latency, in **milliseconds** (same
    /// histogram-derived error bound as `p50_ms`).
    pub p95_ms: f64,
    /// 99th-percentile per-query latency, in **milliseconds** (same
    /// histogram-derived error bound as `p50_ms`).
    pub p99_ms: f64,
    /// Total wall-clock time spent inside `serve` calls, in
    /// **milliseconds**.
    pub wall_ms: f64,
}

impl ServeTelemetry {
    /// Fraction of queries answered from the cache; `0.0` before any
    /// traffic.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_telemetry_hit_rate() {
        let t = ServeTelemetry {
            queries: 100,
            batches: 4,
            cache_hits: 25,
            cache_misses: 75,
            qps: 1_000.0,
            p50_ms: 0.5,
            p95_ms: 1.5,
            p99_ms: 2.0,
            wall_ms: 100.0,
        };
        assert!((t.cache_hit_rate() - 0.25).abs() < 1e-12);
        let empty = ServeTelemetry {
            queries: 0,
            cache_hits: 0,
            cache_misses: 0,
            batches: 0,
            qps: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            wall_ms: 0.0,
        };
        assert_eq!(empty.cache_hit_rate(), 0.0);
    }

    #[test]
    fn events_print_every_field_by_name() {
        let t = StepTelemetry {
            step: 3,
            sampled_users: 12,
            buckets: 3,
            skipped_buckets: 1,
            mean_local_loss: 2.5,
            clip_fraction: 1.0,
            epsilon_spent: 0.4,
            wall_ms: 12.5,
            validation_hr10: None,
        };
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            "{\"buckets\":3,\"clip_fraction\":1.0,\"epsilon_spent\":0.4,\
             \"mean_local_loss\":2.5,\"sampled_users\":12,\"skipped_buckets\":1,\
             \"step\":3,\"validation_hr10\":null,\"wall_ms\":12.5}"
        );
        let r = RunSummary {
            steps: 100,
            epsilon_spent: 1.99,
            delta: 2e-4,
            total_wall_ms: 1234.0,
            stop_reason: StopReason::BudgetExhausted,
        };
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            "{\"delta\":0.0002,\"epsilon_spent\":1.99,\"steps\":100,\
             \"stop_reason\":\"BudgetExhausted\",\"total_wall_ms\":1234.0}"
        );
    }
}
