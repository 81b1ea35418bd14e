//! The privacy ledger and moments accountant of Algorithm 1.
//!
//! Algorithm 1 keeps "a privacy ledger … to keep track of the privacy budget
//! spent in each iteration by recording the values of σ and C" (lines 3, 11)
//! and stops training once `cumulative_budget_spent() ≥ ε` (line 12). Here
//! the ledger stores `(q, σ, steps)` sample entries (the clipping norm C does
//! not enter the accountant — it scales the noise, not the privacy), and the
//! [`MomentsAccountant`] folds them into an [`RdpCurve`] to answer ε(δ)
//! queries at any point in training.

use serde::Serialize;

use crate::budget::PrivacyBudget;
use crate::error::PrivacyError;
use crate::rdp::{RdpCurve, DEFAULT_MAX_MOMENT_ORDER};

/// One ledger record: `steps` executions of a subsampled Gaussian mechanism
/// with sampling rate `q` and (effective) noise multiplier
/// `noise_multiplier`.
///
/// When a user's data may be split across ω buckets, the *effective* noise
/// multiplier for accounting is `σ/ω` (equivalently: sensitivity grows to
/// ωC while the noise std stays σC — see paper §4.2 Case 2); callers encode
/// that in `noise_multiplier` before tracking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LedgerEntry {
    /// Poisson sampling rate of the step(s).
    pub q: f64,
    /// Effective noise multiplier of the step(s).
    pub noise_multiplier: f64,
    /// How many consecutive steps used these parameters.
    pub steps: u64,
}

/// An append-only record of every private step taken.
///
/// The ledger is the auditable artifact: serialising it alongside a released
/// model lets anyone recompute the (ε, δ) guarantee.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PrivacyLedger {
    entries: Vec<LedgerEntry>,
}

impl PrivacyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        PrivacyLedger {
            entries: Vec::new(),
        }
    }

    /// Records one step with sampling rate `q` and effective noise
    /// multiplier `sigma`. Consecutive steps with identical parameters are
    /// coalesced into a single entry.
    ///
    /// # Errors
    /// `q` must lie in `[0, 1]`; `sigma` must be finite and positive.
    pub fn track(&mut self, q: f64, sigma: f64) -> Result<(), PrivacyError> {
        if !(0.0..=1.0).contains(&q) || !q.is_finite() {
            return Err(PrivacyError::InvalidParameter {
                name: "q",
                value: q,
                expected: "in [0, 1]",
            });
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "sigma",
                value: sigma,
                expected: "finite and > 0",
            });
        }
        if let Some(last) = self.entries.last_mut() {
            if last.q == q && last.noise_multiplier == sigma {
                last.steps += 1;
                return Ok(());
            }
        }
        self.entries.push(LedgerEntry {
            q,
            noise_multiplier: sigma,
            steps: 1,
        });
        Ok(())
    }

    /// Rebuilds a ledger from previously recorded entries (e.g. restored
    /// from a training checkpoint), re-validating every record.
    ///
    /// # Errors
    /// Each entry must satisfy the [`PrivacyLedger::track`] domain and
    /// cover at least one step, and the step counts — words an attacker
    /// controls in a re-sealed checkpoint — must not overflow their sum
    /// ([`PrivacyLedger::total_steps`]).
    pub fn from_entries(entries: Vec<LedgerEntry>) -> Result<Self, PrivacyError> {
        let mut ledger = PrivacyLedger::new();
        let mut total = 0u64;
        for e in &entries {
            if e.steps == 0 {
                return Err(PrivacyError::InvalidParameter {
                    name: "steps",
                    value: 0.0,
                    expected: ">= 1 in every ledger entry",
                });
            }
            total = total
                .checked_add(e.steps)
                .ok_or(PrivacyError::InvalidParameter {
                    name: "steps",
                    value: e.steps as f64,
                    expected: "a ledger total that fits in u64",
                })?;
            // Reuse track()'s parameter validation on the first step; the
            // remaining steps of the entry are identical.
            ledger.track(e.q, e.noise_multiplier)?;
            if let Some(last) = ledger.entries.last_mut() {
                last.steps = last.steps - 1 + e.steps;
            }
        }
        Ok(ledger)
    }

    /// All recorded entries, in order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Total number of private steps recorded.
    pub fn total_steps(&self) -> u64 {
        self.entries.iter().map(|e| e.steps).sum()
    }

    /// `true` iff no steps have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuilds the composed RDP curve from the ledger.
    ///
    /// # Errors
    /// Propagates parameter errors from curve construction.
    pub fn rdp_curve(&self, max_order: usize) -> Result<RdpCurve, PrivacyError> {
        let mut total = RdpCurve::zero(max_order)?;
        for e in &self.entries {
            let step = RdpCurve::subsampled_gaussian_step(e.q, e.noise_multiplier, max_order)?;
            total.compose_steps(&step, e.steps)?;
        }
        Ok(total)
    }

    /// The cumulative ε(δ) implied by the ledger — the paper's
    /// `cumulative_budget_spent()`. An empty ledger has spent ε = 0.
    ///
    /// # Errors
    /// `delta` must lie in `(0, 1)`.
    pub fn epsilon(&self, delta: f64) -> Result<f64, PrivacyError> {
        if self.is_empty() {
            if !(delta > 0.0 && delta < 1.0) {
                return Err(PrivacyError::InvalidParameter {
                    name: "delta",
                    value: delta,
                    expected: "in (0, 1)",
                });
            }
            return Ok(0.0);
        }
        self.rdp_curve(DEFAULT_MAX_MOMENT_ORDER)?.epsilon(delta)
    }
}

/// Incremental moments accountant: the fast path used inside the training
/// loop, caching the per-step curve so identical consecutive steps cost one
/// vector addition each.
#[derive(Debug, Clone)]
pub struct MomentsAccountant {
    delta: f64,
    max_order: usize,
    total: RdpCurve,
    steps: u64,
    cached_step: Option<(f64, f64, RdpCurve)>,
    ledger: PrivacyLedger,
}

impl MomentsAccountant {
    /// Creates an accountant for a fixed `delta` over the default order
    /// grid.
    ///
    /// # Errors
    /// `delta` must lie in `(0, 1)`.
    pub fn new(delta: f64) -> Result<Self, PrivacyError> {
        Self::with_max_order(delta, DEFAULT_MAX_MOMENT_ORDER)
    }

    /// Creates an accountant over a custom order grid `1..=max_order`.
    ///
    /// # Errors
    /// `delta` must lie in `(0, 1)` and `max_order >= 1`.
    pub fn with_max_order(delta: f64, max_order: usize) -> Result<Self, PrivacyError> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(PrivacyError::InvalidParameter {
                name: "delta",
                value: delta,
                expected: "in (0, 1)",
            });
        }
        Ok(MomentsAccountant {
            delta,
            max_order,
            total: RdpCurve::zero(max_order)?,
            steps: 0,
            cached_step: None,
            ledger: PrivacyLedger::new(),
        })
    }

    /// Restores an accountant from an auditable ledger — the resume path
    /// of a crash-safe trainer. The ledger is the source of truth: the
    /// composed RDP curve (and hence ε) is recomputed from its entries by
    /// replaying them step by step, which is bit-identical to having
    /// accounted the same steps incrementally.
    ///
    /// # Errors
    /// Same δ domain as [`MomentsAccountant::new`]; propagates parameter
    /// errors from curve reconstruction.
    pub fn from_ledger(delta: f64, ledger: PrivacyLedger) -> Result<Self, PrivacyError> {
        let mut acc = Self::new(delta)?;
        for e in ledger.entries() {
            // One compose per step (not one scaled compose per entry) so a
            // restored accountant's floating-point state exactly matches an
            // uninterrupted run's.
            acc.refresh_step_curve(e.q, e.noise_multiplier)?;
            let (_, _, curve) = acc.cached_step.as_ref().expect("cache just refreshed");
            for _ in 0..e.steps {
                acc.total.compose(curve)?;
            }
            acc.steps += e.steps;
        }
        acc.ledger = ledger;
        Ok(acc)
    }

    /// The δ this accountant reports ε for.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of private steps accounted so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The underlying auditable ledger.
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// Ensures `cached_step` holds the per-step RDP curve for `(q, sigma)`.
    ///
    /// Recomputing the subsampled-Gaussian log-moments is O(max_order²)
    /// log-space work; a training loop calls the accountant with the same
    /// `(q, σ)` every step, so after the first step both the budget peek and
    /// the step itself reduce to O(max_order) vector passes over the cached
    /// curve — no recompute and no clone.
    fn refresh_step_curve(&mut self, q: f64, sigma: f64) -> Result<(), PrivacyError> {
        if matches!(&self.cached_step, Some((cq, cs, _)) if *cq == q && *cs == sigma) {
            return Ok(());
        }
        let curve = RdpCurve::subsampled_gaussian_step(q, sigma, self.max_order)?;
        self.cached_step = Some((q, sigma, curve));
        Ok(())
    }

    /// Accounts one subsampled-Gaussian step.
    ///
    /// # Errors
    /// `q` must lie in `[0, 1]`; `sigma` must be finite and positive.
    pub fn step(&mut self, q: f64, sigma: f64) -> Result<(), PrivacyError> {
        self.refresh_step_curve(q, sigma)?;
        let (_, _, curve) = self.cached_step.as_ref().expect("cache just refreshed");
        self.total.compose(curve)?;
        self.steps += 1;
        self.ledger.track(q, sigma)?;
        Ok(())
    }

    /// The cumulative privacy cost ε at the accountant's δ; `0` before any
    /// step.
    pub fn epsilon(&self) -> Result<f64, PrivacyError> {
        if self.steps == 0 {
            return Ok(0.0);
        }
        self.total.epsilon(self.delta)
    }

    /// The RDP order at which the cumulative ε is achieved — the active
    /// constraint of the moments bound, useful burn-rate telemetry (a
    /// shifting order means the dominant regime changed).
    ///
    /// # Errors
    /// Propagates the curve's ε evaluation errors; requires at least one
    /// accounted step.
    pub fn optimal_order(&self) -> Result<usize, PrivacyError> {
        self.total.optimal_order(self.delta)
    }

    /// ε after a *hypothetical* additional step — lets a trainer decide
    /// whether the next step would overshoot the budget before taking it.
    ///
    /// Clone-free: evaluated via [`RdpCurve::epsilon_composed_with`], which
    /// is bit-identical to materialising the composed curve.
    ///
    /// # Errors
    /// Same parameter requirements as [`MomentsAccountant::step`].
    pub fn epsilon_after_hypothetical_step(
        &mut self,
        q: f64,
        sigma: f64,
    ) -> Result<f64, PrivacyError> {
        self.refresh_step_curve(q, sigma)?;
        let (_, _, curve) = self.cached_step.as_ref().expect("cache just refreshed");
        self.total.epsilon_composed_with(curve, self.delta)
    }

    /// Returns an error if the accumulated ε has reached `budget.epsilon`
    /// (Algorithm 1, line 12). The budget's δ must match the accountant's.
    ///
    /// # Errors
    /// [`PrivacyError::BudgetExhausted`] when spent ε ≥ budget, or
    /// [`PrivacyError::InvalidParameter`] on a δ mismatch.
    pub fn check_budget(&self, budget: PrivacyBudget) -> Result<(), PrivacyError> {
        if budget.delta != self.delta {
            return Err(PrivacyError::InvalidParameter {
                name: "delta",
                value: budget.delta,
                expected: "equal to the accountant's delta",
            });
        }
        let spent = self.epsilon()?;
        if spent >= budget.epsilon {
            return Err(PrivacyError::BudgetExhausted {
                spent,
                budget: budget.epsilon,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_coalesces_identical_steps() {
        let mut l = PrivacyLedger::new();
        for _ in 0..5 {
            l.track(0.06, 2.5).unwrap();
        }
        l.track(0.10, 2.5).unwrap();
        assert_eq!(l.entries().len(), 2);
        assert_eq!(l.entries()[0].steps, 5);
        assert_eq!(l.total_steps(), 6);
    }

    #[test]
    fn ledger_validates_parameters() {
        let mut l = PrivacyLedger::new();
        assert!(l.track(-0.1, 1.0).is_err());
        assert!(l.track(1.1, 1.0).is_err());
        assert!(l.track(0.5, 0.0).is_err());
        assert!(l.track(0.5, f64::NAN).is_err());
        assert!(l.is_empty());
    }

    #[test]
    fn empty_ledger_spends_nothing() {
        let l = PrivacyLedger::new();
        assert_eq!(l.epsilon(1e-5).unwrap(), 0.0);
        assert!(l.epsilon(0.0).is_err());
    }

    #[test]
    fn accountant_matches_ledger_replay() {
        let mut acc = MomentsAccountant::with_max_order(2e-4, 128).unwrap();
        for _ in 0..50 {
            acc.step(0.06, 2.5).unwrap();
        }
        for _ in 0..20 {
            acc.step(0.10, 1.5).unwrap();
        }
        let eps_inc = acc.epsilon().unwrap();
        let replay = acc.ledger().rdp_curve(128).unwrap().epsilon(2e-4).unwrap();
        assert!((eps_inc - replay).abs() < 1e-9, "{eps_inc} vs {replay}");
        assert_eq!(acc.steps(), 70);
    }

    #[test]
    fn epsilon_is_zero_before_any_step() {
        let acc = MomentsAccountant::new(1e-5).unwrap();
        assert_eq!(acc.epsilon().unwrap(), 0.0);
    }

    #[test]
    fn hypothetical_step_does_not_mutate() {
        let mut acc = MomentsAccountant::new(2e-4).unwrap();
        acc.step(0.06, 2.5).unwrap();
        let before = acc.epsilon().unwrap();
        let peek = acc.epsilon_after_hypothetical_step(0.06, 2.5).unwrap();
        assert!(peek > before);
        assert_eq!(acc.epsilon().unwrap(), before);
        assert_eq!(acc.steps(), 1);
        // Taking the real step lands exactly on the peeked value.
        acc.step(0.06, 2.5).unwrap();
        assert!((acc.epsilon().unwrap() - peek).abs() < 1e-12);
    }

    #[test]
    fn cached_fast_path_matches_uncached_reference_over_500_steps() {
        // The accountant memoises the per-(q, σ) step curve; the reference
        // below recomputes it from scratch every step and materialises the
        // hypothetical composition. Both the budget peek and the post-step ε
        // must agree bit-for-bit on every one of 500 steps, across a (q, σ)
        // change that invalidates the cache mid-run.
        let delta = 2e-4;
        let max_order = 64; // smaller grid keeps the uncached reference fast
        let mut acc = MomentsAccountant::with_max_order(delta, max_order).unwrap();
        let mut ref_total = RdpCurve::zero(max_order).unwrap();
        for step in 0..500u64 {
            let (q, sigma) = if step < 250 { (0.06, 2.5) } else { (0.10, 1.5) };

            let ref_curve = RdpCurve::subsampled_gaussian_step(q, sigma, max_order).unwrap();
            let ref_peek = {
                let mut peek = ref_total.clone();
                peek.compose(&ref_curve).unwrap();
                peek.epsilon(delta).unwrap()
            };
            let peek = acc.epsilon_after_hypothetical_step(q, sigma).unwrap();
            assert_eq!(peek.to_bits(), ref_peek.to_bits(), "peek at step {step}");

            acc.step(q, sigma).unwrap();
            ref_total.compose(&ref_curve).unwrap();
            assert_eq!(
                acc.epsilon().unwrap().to_bits(),
                ref_total.epsilon(delta).unwrap().to_bits(),
                "epsilon at step {step}"
            );
        }
        assert_eq!(acc.steps(), 500);
    }

    #[test]
    fn check_budget_trips_when_exhausted() {
        let mut acc = MomentsAccountant::new(2e-4).unwrap();
        let budget = PrivacyBudget::new(0.8, 2e-4).unwrap();
        let mut tripped = false;
        for _ in 0..10_000 {
            acc.step(0.10, 1.0).unwrap();
            if acc.check_budget(budget).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "a tiny budget must eventually be exhausted");
        let err = acc.check_budget(budget).unwrap_err();
        assert!(matches!(err, PrivacyError::BudgetExhausted { .. }));
    }

    #[test]
    fn check_budget_rejects_delta_mismatch() {
        let acc = MomentsAccountant::new(2e-4).unwrap();
        let budget = PrivacyBudget::new(1.0, 1e-5).unwrap();
        assert!(acc.check_budget(budget).is_err());
    }

    #[test]
    fn accountant_rejects_bad_delta() {
        assert!(MomentsAccountant::new(0.0).is_err());
        assert!(MomentsAccountant::new(1.0).is_err());
        assert!(MomentsAccountant::with_max_order(1e-5, 0).is_err());
    }

    #[test]
    fn ledger_prints_its_rows() {
        // The `--ledger` file: the rows anyone can recompute (ε, δ) from.
        let mut l = PrivacyLedger::new();
        l.track(0.06, 2.5).unwrap();
        l.track(0.06, 2.5).unwrap();
        assert_eq!(
            serde_json::to_string(&l).unwrap(),
            "{\"entries\":[{\"noise_multiplier\":2.5,\"q\":0.06,\"steps\":2}]}"
        );
    }

    #[test]
    fn from_entries_validates_and_round_trips() {
        let mut l = PrivacyLedger::new();
        for _ in 0..7 {
            l.track(0.06, 2.5).unwrap();
        }
        l.track(0.1, 1.5).unwrap();
        let rebuilt = PrivacyLedger::from_entries(l.entries().to_vec()).unwrap();
        assert_eq!(rebuilt, l);
        assert!(PrivacyLedger::from_entries(vec![LedgerEntry {
            q: 2.0,
            noise_multiplier: 1.0,
            steps: 1
        }])
        .is_err());
        assert!(PrivacyLedger::from_entries(vec![LedgerEntry {
            q: 0.1,
            noise_multiplier: 1.0,
            steps: 0
        }])
        .is_err());
        // Step counts whose sum overflows, coalesced into one entry or not.
        let half = |q| LedgerEntry {
            q,
            noise_multiplier: 1.0,
            steps: 1 << 63,
        };
        assert!(PrivacyLedger::from_entries(vec![half(0.1), half(0.1)]).is_err());
        assert!(PrivacyLedger::from_entries(vec![half(0.1), half(0.2)]).is_err());
        let alone = PrivacyLedger::from_entries(vec![half(0.1)]).unwrap();
        assert_eq!(alone.total_steps(), 1 << 63);
    }

    #[test]
    fn restored_accountant_is_bit_identical() {
        let mut live = MomentsAccountant::new(2e-4).unwrap();
        for _ in 0..40 {
            live.step(0.06, 2.5).unwrap();
        }
        for _ in 0..10 {
            live.step(0.08, 1.5).unwrap();
        }
        let restored = MomentsAccountant::from_ledger(2e-4, live.ledger().clone()).unwrap();
        assert_eq!(restored.steps(), live.steps());
        assert_eq!(restored.ledger(), live.ledger());
        // Bitwise equality, not approximate: resume must not drift.
        assert_eq!(
            restored.epsilon().unwrap().to_bits(),
            live.epsilon().unwrap().to_bits()
        );
        // Continuing both accountants stays bit-identical.
        let mut live2 = live.clone();
        let mut restored2 = restored.clone();
        live2.step(0.06, 2.5).unwrap();
        restored2.step(0.06, 2.5).unwrap();
        assert_eq!(
            restored2.epsilon().unwrap().to_bits(),
            live2.epsilon().unwrap().to_bits()
        );
    }

    #[test]
    fn omega_two_accounting_costs_more() {
        // Splitting a user across omega=2 buckets halves the effective noise
        // multiplier; the resulting epsilon must be strictly larger.
        let mut one = MomentsAccountant::new(2e-4).unwrap();
        let mut two = MomentsAccountant::new(2e-4).unwrap();
        for _ in 0..100 {
            one.step(0.06, 2.5).unwrap();
            two.step(0.06, 2.5 / 2.0).unwrap();
        }
        assert!(two.epsilon().unwrap() > one.epsilon().unwrap());
    }
}
