//! Training telemetry: per-step observations and run summaries.

use serde_json::{json, ToJson, Value};

/// What one private step observed.
#[derive(Debug, Clone, Copy, PartialEq)]
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

impl ToJson for StepTelemetry {
    fn to_json(&self) -> Value {
        json!({
            "step": self.step,
            "sampled_users": self.sampled_users,
            "buckets": self.buckets,
            "skipped_buckets": self.skipped_buckets,
            "mean_local_loss": self.mean_local_loss,
            "clip_fraction": self.clip_fraction,
            "epsilon_spent": self.epsilon_spent,
            "wall_ms": self.wall_ms,
            "validation_hr10": self.validation_hr10,
        })
    }
}

/// Summary of a finished private training run.
#[derive(Debug, Clone, PartialEq)]
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

impl ToJson for RunSummary {
    fn to_json(&self) -> Value {
        json!({
            "steps": self.steps,
            "epsilon_spent": self.epsilon_spent,
            "delta": self.delta,
            "total_wall_ms": self.total_wall_ms,
            "stop_reason": self.stop_reason,
        })
    }
}

/// Why a private training loop terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The moments accountant hit the ε budget (Algorithm 1, line 12).
    BudgetExhausted,
    /// The configured `max_steps` cap was reached first.
    MaxSteps,
    /// Every bucket of a step was poisoned (non-finite delta or panicked
    /// worker): training cannot make progress and stops after accounting
    /// the aborted step conservatively.
    Diverged,
    /// The run was halted by its driver (e.g. a crash test or scheduling
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

impl ToJson for StopReason {
    /// The variant's name, e.g. `"BudgetExhausted"`.
    fn to_json(&self) -> Value {
        json!(format!("{self:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            serde_json::to_string(&serde_json::json!(t)).unwrap(),
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
            serde_json::to_string(&serde_json::json!(r)).unwrap(),
            "{\"delta\":0.0002,\"epsilon_spent\":1.99,\"steps\":100,\
             \"stop_reason\":\"BudgetExhausted\",\"total_wall_ms\":1234.0}"
        );
    }

    #[test]
    fn stop_reasons_print_as_their_variant_names() {
        let printed: Vec<String> = [
            StopReason::BudgetExhausted,
            StopReason::MaxSteps,
            StopReason::Diverged,
            StopReason::Interrupted,
        ]
        .iter()
        .map(|r| serde_json::to_string(&serde_json::json!(r)).unwrap())
        .collect();
        assert_eq!(
            printed,
            [
                "\"BudgetExhausted\"",
                "\"MaxSteps\"",
                "\"Diverged\"",
                "\"Interrupted\""
            ]
        );
    }
}
