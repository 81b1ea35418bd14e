//! Deterministic fault injection for crash-safety and robustness tests.
//!
//! A [`FaultInjector`] is compiled into the trainer unconditionally and is
//! inert by default — every decision method returns "no fault" until a
//! [`FaultPlan`] is installed. Decisions are pure functions of
//! `(plan seed, fault kind, step, index)`, so a faulty run is exactly
//! reproducible: re-running with the same plan poisons the same buckets
//! and corrupts the same checkpoint writes, no matter how buckets are
//! partitioned across threads (see the purity property tests).

use crate::error::CoreError;

/// Which faults to inject, and how often.
///
/// All rates are probabilities in `[0, 1]` evaluated independently per
/// decision point (per bucket for delta/panic faults, per checkpoint write
/// for storage faults). Install a plan with
/// [`FaultInjector::try_with_plan`], which validates every rate up front.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's deterministic decision stream.
    pub seed: u64,
    /// Probability a bucket's clipped delta is poisoned with `NaN`.
    pub nan_delta_rate: f64,
    /// Probability a bucket worker panics mid-update.
    pub panic_rate: f64,
    /// Probability a checkpoint write is truncated (crash mid-write).
    pub truncate_write_rate: f64,
    /// Probability a checkpoint write has one bit flipped (silent
    /// corruption).
    pub bitflip_write_rate: f64,
}

impl FaultPlan {
    /// A plan with every rate zero — equivalent to no plan at all.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            nan_delta_rate: 0.0,
            panic_rate: 0.0,
            truncate_write_rate: 0.0,
            bitflip_write_rate: 0.0,
        }
    }

    /// Every `(name, value)` rate field, for validation and diagnostics.
    fn rates(&self) -> [(&'static str, f64); 4] {
        [
            ("nan_delta_rate", self.nan_delta_rate),
            ("panic_rate", self.panic_rate),
            ("truncate_write_rate", self.truncate_write_rate),
            ("bitflip_write_rate", self.bitflip_write_rate),
        ]
    }

    /// Validates that every rate is finite and in `[0, 1]`.
    ///
    /// A NaN rate would make every Bernoulli comparison false (silently
    /// inert), and a rate above 1 or below 0 misrepresents what the plan
    /// exercises — both are configuration bugs, caught at install time.
    ///
    /// # Errors
    /// [`CoreError::BadConfig`] naming the first out-of-domain rate.
    pub fn validate(&self) -> Result<(), CoreError> {
        for (name, rate) in self.rates() {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(CoreError::BadConfig {
                    name,
                    expected: "a finite probability in [0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// How a checkpoint write should be corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteFault {
    /// Keep only the first `keep` bytes.
    Truncate {
        /// Bytes surviving the simulated crash.
        keep: usize,
    },
    /// Flip one bit at byte `at`.
    BitFlip {
        /// Byte offset of the flipped bit.
        at: usize,
    },
}

/// Injects (or, by default, does not inject) deterministic faults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultInjector {
    plan: Option<FaultPlan>,
}

/// SplitMix64 finalizer: a high-quality 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-fault-kind domain separators.
const KIND_NAN: u64 = 1;
const KIND_PANIC: u64 = 2;
const KIND_TRUNCATE: u64 = 3;
const KIND_BITFLIP: u64 = 4;

impl FaultInjector {
    /// An injector following `plan`.
    ///
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate`]; use
    /// [`FaultInjector::try_with_plan`] to handle invalid plans as a typed
    /// error instead.
    pub fn with_plan(plan: FaultPlan) -> Self {
        FaultInjector::try_with_plan(plan).expect("invalid FaultPlan")
    }

    /// An injector following `plan`, validating it at install time.
    ///
    /// # Errors
    /// [`CoreError::BadConfig`] naming the first rate that is not a finite
    /// probability in `[0, 1]`.
    pub fn try_with_plan(plan: FaultPlan) -> Result<Self, CoreError> {
        plan.validate()?;
        Ok(FaultInjector { plan: Some(plan) })
    }

    /// Deterministic Bernoulli draw for one decision point; also returns
    /// the raw hash so callers can derive fault parameters from it.
    fn draw(&self, kind: u64, step: u64, index: u64, rate: f64) -> Option<u64> {
        let plan = self.plan?;
        if rate <= 0.0 {
            return None;
        }
        let h = mix(plan.seed ^ mix(kind ^ mix(step) ^ mix(index).rotate_left(17)));
        // Map the top 53 bits to [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        (u < rate).then_some(mix(h))
    }

    /// Should bucket `index` of `step` get a `NaN`-poisoned delta?
    pub(crate) fn poison_delta(&self, step: u64, index: usize) -> bool {
        let rate = self.plan.map_or(0.0, |p| p.nan_delta_rate);
        self.draw(KIND_NAN, step, index as u64, rate).is_some()
    }

    /// Should the worker computing bucket `index` of `step` panic?
    pub(crate) fn panic_bucket(&self, step: u64, index: usize) -> bool {
        let rate = self.plan.map_or(0.0, |p| p.panic_rate);
        self.draw(KIND_PANIC, step, index as u64, rate).is_some()
    }

    /// How (if at all) the checkpoint written after `step` should be
    /// corrupted. Truncation wins when both faults fire.
    fn checkpoint_write_fault(&self, step: u64, len: usize) -> Option<WriteFault> {
        if len == 0 {
            return None;
        }
        let trunc_rate = self.plan.map_or(0.0, |p| p.truncate_write_rate);
        if let Some(h) = self.draw(KIND_TRUNCATE, step, 0, trunc_rate) {
            return Some(WriteFault::Truncate {
                keep: (h as usize) % len,
            });
        }
        let flip_rate = self.plan.map_or(0.0, |p| p.bitflip_write_rate);
        if let Some(h) = self.draw(KIND_BITFLIP, step, 0, flip_rate) {
            return Some(WriteFault::BitFlip {
                at: (h as usize) % len,
            });
        }
        None
    }

    /// Applies [`FaultInjector::checkpoint_write_fault`] to a serialized
    /// checkpoint, returning the (possibly corrupted) bytes to write and
    /// whether a fault fired.
    pub(crate) fn corrupt_checkpoint_bytes(
        &self,
        step: u64,
        mut bytes: Vec<u8>,
    ) -> (Vec<u8>, bool) {
        match self.checkpoint_write_fault(step, bytes.len()) {
            None => (bytes, false),
            Some(WriteFault::Truncate { keep }) => {
                bytes.truncate(keep);
                (bytes, true)
            }
            Some(WriteFault::BitFlip { at }) => {
                bytes[at] ^= 1 << (at % 8);
                (bytes, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_by_default_and_when_rates_are_zero() {
        for quiet in [
            FaultInjector::default(),
            FaultInjector::with_plan(FaultPlan::quiet(5)),
        ] {
            for step in 0..50 {
                for b in 0..8 {
                    assert!(!quiet.poison_delta(step, b));
                    assert!(!quiet.panic_bucket(step, b));
                }
                assert!(quiet.checkpoint_write_fault(step, 1024).is_none());
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            nan_delta_rate: 0.3,
            panic_rate: 0.3,
            ..FaultPlan::quiet(7)
        };
        let a = FaultInjector::with_plan(plan);
        let b = FaultInjector::with_plan(plan);
        let c = FaultInjector::with_plan(FaultPlan { seed: 8, ..plan });
        let decisions = |inj: &FaultInjector| -> Vec<bool> {
            (0..200)
                .map(|i| inj.poison_delta(i / 10, (i % 10) as usize))
                .collect()
        };
        assert_eq!(decisions(&a), decisions(&b));
        assert_ne!(
            decisions(&a),
            decisions(&c),
            "seed must steer the fault stream"
        );
        let fired = decisions(&a).iter().filter(|&&x| x).count();
        assert!(
            (20..100).contains(&fired),
            "rate 0.3 of 200 draws, got {fired}"
        );
    }

    #[test]
    fn nan_and_panic_streams_are_independent() {
        let plan = FaultPlan {
            nan_delta_rate: 0.5,
            panic_rate: 0.5,
            ..FaultPlan::quiet(3)
        };
        let inj = FaultInjector::with_plan(plan);
        let nan: Vec<bool> = (0..128).map(|i| inj.poison_delta(1, i)).collect();
        let panic: Vec<bool> = (0..128).map(|i| inj.panic_bucket(1, i)).collect();
        assert_ne!(nan, panic, "kinds must not share one decision stream");
    }

    #[test]
    fn install_time_validation_rejects_bad_rates() {
        let bad_values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.1];
        type Setter = fn(&mut FaultPlan, f64);
        let setters: [(&str, Setter); 4] = [
            ("nan_delta_rate", |p, v| p.nan_delta_rate = v),
            ("panic_rate", |p, v| p.panic_rate = v),
            ("truncate_write_rate", |p, v| p.truncate_write_rate = v),
            ("bitflip_write_rate", |p, v| p.bitflip_write_rate = v),
        ];
        for (name, set) in setters {
            for v in bad_values {
                let mut plan = FaultPlan::quiet(1);
                set(&mut plan, v);
                match FaultInjector::try_with_plan(plan) {
                    Err(crate::error::CoreError::BadConfig { name: got, .. }) => {
                        assert_eq!(got, name, "wrong field blamed for {v}");
                    }
                    other => panic!("{name}={v} must be rejected, got {other:?}"),
                }
            }
        }
        // Boundary values are legal, and a valid plan installs.
        let mut plan = FaultPlan::quiet(1);
        plan.nan_delta_rate = 1.0;
        plan.panic_rate = 0.0;
        assert!(FaultInjector::try_with_plan(plan).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid FaultPlan")]
    fn with_plan_panics_on_invalid_rates() {
        let _ = FaultInjector::with_plan(FaultPlan {
            panic_rate: f64::NAN,
            ..FaultPlan::quiet(2)
        });
    }

    #[test]
    fn write_faults_stay_in_bounds() {
        let plan = FaultPlan {
            truncate_write_rate: 0.5,
            bitflip_write_rate: 0.5,
            ..FaultPlan::quiet(11)
        };
        let inj = FaultInjector::with_plan(plan);
        let mut fired = 0;
        for step in 0..100 {
            let payload = vec![0xABu8; 257];
            let (out, corrupted) = inj.corrupt_checkpoint_bytes(step, payload.clone());
            if corrupted {
                fired += 1;
                assert!(out.len() < payload.len() || out.iter().zip(&payload).any(|(a, b)| a != b));
            } else {
                assert_eq!(out, payload);
            }
        }
        assert!(fired > 20, "write faults should fire often at these rates");
        assert!(
            inj.checkpoint_write_fault(1, 0).is_none(),
            "empty write has no fault"
        );
    }
}

#[cfg(test)]
mod purity_props {
    //! Property tests: every injector decision is a pure function of
    //! `(plan seed, fault kind, step, index)`. Purity is what makes fault
    //! schedules replayable across runs *and* invariant to how work is
    //! partitioned across worker threads — a bucket keeps its fault no
    //! matter which worker (or how many workers) ends up computing it.

    use super::*;
    use proptest::prelude::*;

    fn plan_from(seed: u64, a: f64, b: f64, c: f64) -> FaultPlan {
        FaultPlan {
            nan_delta_rate: a,
            panic_rate: b,
            truncate_write_rate: c,
            bitflip_write_rate: a,
            ..FaultPlan::quiet(seed)
        }
    }

    /// Every decision the injector can make for one `(step, index)` point:
    /// the two bucket faults, and the write fault of a checkpoint
    /// `index + 1` bytes long (truncate or bit flip).
    fn decisions_at(
        inj: &FaultInjector,
        step: u64,
        index: u64,
    ) -> (bool, bool, Option<WriteFault>) {
        (
            inj.poison_delta(step, index as usize),
            inj.panic_bucket(step, index as usize),
            inj.checkpoint_write_fault(step, index as usize + 1),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn same_plan_replays_identical_schedules(
            seed in 0u64..u64::MAX,
            ra in 0.0f64..=1.0,
            rb in 0.0f64..=1.0,
            rc in 0.0f64..=1.0,
            step in 0u64..1000,
            index in 0u64..256,
        ) {
            let plan = plan_from(seed, ra, rb, rc);
            let a = FaultInjector::try_with_plan(plan).unwrap();
            let b = FaultInjector::try_with_plan(plan).unwrap();
            // Two independent injectors agree, and repeated queries of one
            // injector agree with themselves (no hidden mutable state).
            prop_assert_eq!(decisions_at(&a, step, index), decisions_at(&b, step, index));
            prop_assert_eq!(decisions_at(&a, step, index), decisions_at(&a, step, index));
        }

        #[test]
        fn schedules_are_invariant_to_worker_partitioning(
            seed in 0u64..u64::MAX,
            ra in 0.0f64..=1.0,
            rb in 0.0f64..=1.0,
            rc in 0.0f64..=1.0,
            step in 0u64..100,
            workers in 1usize..8,
        ) {
            let inj = FaultInjector::try_with_plan(plan_from(seed, ra, rb, rc)).unwrap();
            // Reference schedule: evaluate 64 decision points in order.
            let reference: Vec<_> =
                (0..64).map(|i| decisions_at(&inj, step, i)).collect();
            // Partitioned schedule: each "worker" evaluates only its strided
            // share, interleaved worker-by-worker (a different call order and
            // grouping than the reference). The union must match exactly.
            let mut partitioned = vec![None; 64];
            for w in 0..workers {
                for i in (0..64u64).filter(|i| *i as usize % workers == w) {
                    partitioned[i as usize] = Some(decisions_at(&inj, step, i));
                }
            }
            for (i, got) in partitioned.into_iter().enumerate() {
                prop_assert_eq!(got.unwrap(), reference[i]);
            }
        }

        #[test]
        fn distinct_seeds_or_steps_decorrelate(
            seed in 0u64..u64::MAX - 1,
            step in 0u64..1000,
        ) {
            let plan = FaultPlan {
                nan_delta_rate: 0.5,
                ..FaultPlan::quiet(seed)
            };
            let a = FaultInjector::try_with_plan(plan).unwrap();
            let b = FaultInjector::try_with_plan(FaultPlan { seed: seed + 1, ..plan }).unwrap();
            let at = |inj: &FaultInjector, s: u64| -> Vec<bool> {
                (0..256).map(|i| inj.poison_delta(s, i)).collect()
            };
            // Not a hard guarantee per draw, but over 256 draws two streams
            // colliding bit-for-bit would indicate a broken mix.
            prop_assert!(at(&a, step) != at(&b, step), "seed must steer the stream");
            prop_assert!(at(&a, step) != at(&a, step + 1), "step must steer the stream");
        }
    }
}
