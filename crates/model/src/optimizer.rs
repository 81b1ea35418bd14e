//! Server-side optimisers applied to the (noisy) aggregated model delta.
//!
//! Algorithm 1, line 10 updates the model with the noisy average of bucket
//! deltas: `θ_{t+1} = θ_t + ĝ_t`. The paper trains with Adam "implemented
//! in a differentially private manner by tracking an exponential moving
//! average of the noisy gradient and the squared noisy gradient"
//! (Gylberth et al. 2017, §5.1) — since ĝ_t is already differentially
//! private, any post-processing (including Adam's moment tracking) is
//! privacy-free.

use serde::{Deserialize, Serialize};

use plp_linalg::ops;
use plp_linalg::par::fan_out;

use crate::error::ModelError;
use crate::params::ModelParams;

/// Plain averaging server update: `θ ← θ + lr · ĝ` (lr = 1 reproduces
/// Algorithm 1 literally).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerSgd {
    /// Server learning rate applied to the aggregated delta.
    pub learning_rate: f64,
}

impl ServerSgd {
    /// Creates a validated server-SGD updater.
    ///
    /// # Errors
    /// `learning_rate` must be finite and positive.
    pub fn new(learning_rate: f64) -> Result<Self, ModelError> {
        if !(learning_rate.is_finite() && learning_rate > 0.0) {
            return Err(ModelError::BadConfig {
                name: "learning_rate",
                expected: "finite and > 0",
            });
        }
        Ok(ServerSgd { learning_rate })
    }

    /// Applies `params += lr · update`, one block of vocabulary rows per
    /// part of `threads` ([`fan_out`]). The update is per-element, so the
    /// result is bit-identical for every thread count.
    ///
    /// # Errors
    /// Shapes must match and the result must stay finite.
    pub fn step_threaded(
        &self,
        params: &mut ModelParams,
        update: &ModelParams,
        threads: usize,
    ) -> Result<(), ModelError> {
        if !params.same_shape(update) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerSgd step",
            });
        }
        let lr = self.learning_rate;
        let rows = params.vocab_size().div_ceil(threads.max(1));
        let blocks: Vec<_> = params
            .row_blocks_mut(rows)
            .zip(update.row_blocks(rows))
            .collect();
        fan_out(blocks, |(ys, xs)| {
            for (y, x) in ys.into_iter().zip(xs) {
                ops::axpy_unchecked(lr, x, y);
            }
        });
        if !params.all_finite() {
            return Err(ModelError::NonFinite {
                at: "parameters after server sgd",
            });
        }
        Ok(())
    }
}

/// DP-Adam: Adam moments tracked over the noisy aggregated update.
///
/// The update direction ĝ plays the role of the (negated) gradient, so the
/// step is `θ += lr · m̂ / (√v̂ + ε)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerAdam {
    /// Step size α.
    pub learning_rate: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Numerical-stability constant ε.
    pub eps: f64,
    t: u64,
    m: ModelParams,
    v: ModelParams,
}

impl ServerAdam {
    /// Creates an Adam state matching the shape of `template`.
    ///
    /// # Errors
    /// Standard Adam domain checks (`lr > 0`, betas in `[0, 1)`, `eps > 0`).
    pub fn new(template: &ModelParams, learning_rate: f64) -> Result<Self, ModelError> {
        Self::with_betas(template, learning_rate, 0.9, 0.999, 1e-8)
    }

    /// Fully parameterised constructor.
    ///
    /// # Errors
    /// Standard Adam domain checks.
    pub fn with_betas(
        template: &ModelParams,
        learning_rate: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
    ) -> Result<Self, ModelError> {
        if !(learning_rate.is_finite() && learning_rate > 0.0) {
            return Err(ModelError::BadConfig {
                name: "learning_rate",
                expected: "finite and > 0",
            });
        }
        if !(0.0..1.0).contains(&beta1) || !(0.0..1.0).contains(&beta2) {
            return Err(ModelError::BadConfig {
                name: "beta1/beta2",
                expected: "in [0, 1)",
            });
        }
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ModelError::BadConfig {
                name: "eps",
                expected: "finite and > 0",
            });
        }
        Ok(ServerAdam {
            learning_rate,
            beta1,
            beta2,
            eps,
            t: 0,
            m: ModelParams::zeros(template.vocab_size(), template.dim()),
            v: ModelParams::zeros(template.vocab_size(), template.dim()),
        })
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The internal optimiser state `(t, m, v)`, for checkpointing.
    pub fn state(&self) -> (u64, &ModelParams, &ModelParams) {
        (self.t, &self.m, &self.v)
    }

    /// Reconstructs an Adam state restored from a checkpoint.
    ///
    /// # Errors
    /// Same domain checks as [`ServerAdam::with_betas`], plus `m` and `v`
    /// must share one shape.
    pub fn from_state(
        learning_rate: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        t: u64,
        m: ModelParams,
        v: ModelParams,
    ) -> Result<Self, ModelError> {
        let mut adam = Self::with_betas(&m, learning_rate, beta1, beta2, eps)?;
        if !m.same_shape(&v) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerAdam m/v state",
            });
        }
        if !(m.all_finite() && v.all_finite()) {
            return Err(ModelError::NonFinite {
                at: "restored adam moments",
            });
        }
        adam.t = t;
        adam.m = m;
        adam.v = v;
        Ok(adam)
    }

    /// Applies one Adam step with `update` as the (noisy) direction, one
    /// block of vocabulary rows per part of `threads` ([`fan_out`]). The
    /// recurrence is per-element, so parameters and moments are
    /// bit-identical for every thread count.
    ///
    /// # Errors
    /// Shapes must match; the result must stay finite.
    pub fn step_threaded(
        &mut self,
        params: &mut ModelParams,
        update: &ModelParams,
        threads: usize,
    ) -> Result<(), ModelError> {
        if !params.same_shape(update) || !params.same_shape(&self.m) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerAdam step",
            });
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.learning_rate, self.beta1, self.beta2, self.eps);
        let rows = params.vocab_size().div_ceil(threads.max(1));
        let blocks: Vec<_> = params
            .row_blocks_mut(rows)
            .zip(self.m.row_blocks_mut(rows))
            .zip(self.v.row_blocks_mut(rows))
            .zip(update.row_blocks(rows))
            .collect();
        fan_out(blocks, |(((ps, ms), vs), us)| {
            for (((p, m), v), u) in ps.into_iter().zip(ms).zip(vs).zip(us) {
                for i in 0..p.len() {
                    m[i] = b1 * m[i] + (1.0 - b1) * u[i];
                    v[i] = b2 * v[i] + (1.0 - b2) * u[i] * u[i];
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    p[i] += lr * mhat / (vhat.sqrt() + eps);
                }
            }
        });
        if !params.all_finite() {
            return Err(ModelError::NonFinite {
                at: "parameters after adam step",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn delta(vocab: usize, dim: usize, value: f64) -> ModelParams {
        let mut d = ModelParams::zeros(vocab, dim);
        d.embedding.fill(value);
        d.bias.fill(value);
        d
    }

    #[test]
    fn sgd_applies_scaled_delta() {
        let mut p = ModelParams::zeros(2, 2);
        let u = delta(2, 2, 1.0);
        ServerSgd::new(0.5)
            .unwrap()
            .step_threaded(&mut p, &u, 1)
            .unwrap();
        assert!(p.embedding.as_slice().iter().all(|&x| x == 0.5));
        assert!(p.bias.iter().all(|&x| x == 0.5));
    }

    #[test]
    fn sgd_rejects_bad_lr_and_shapes() {
        assert!(ServerSgd::new(0.0).is_err());
        assert!(ServerSgd::new(f64::NAN).is_err());
        let mut p = ModelParams::zeros(2, 2);
        let wrong = ModelParams::zeros(3, 2);
        assert!(ServerSgd::new(1.0)
            .unwrap()
            .step_threaded(&mut p, &wrong, 1)
            .is_err());
    }

    #[test]
    fn sgd_detects_nan_poisoning() {
        let mut p = ModelParams::zeros(1, 1);
        let mut u = ModelParams::zeros(1, 1);
        u.bias[0] = f64::NAN;
        assert!(matches!(
            ServerSgd::new(1.0).unwrap().step_threaded(&mut p, &u, 1),
            Err(ModelError::NonFinite { .. })
        ));
    }

    #[test]
    fn adam_first_step_moves_by_about_lr() {
        // With bias correction, the first Adam step is ≈ lr · sign(u).
        let mut p = ModelParams::zeros(2, 2);
        let mut adam = ServerAdam::new(&p, 0.01).unwrap();
        let u = delta(2, 2, 0.5);
        adam.step_threaded(&mut p, &u, 1).unwrap();
        assert_eq!(adam.steps(), 1);
        let x = p.embedding.get(0, 0);
        assert!((x - 0.01).abs() < 1e-6, "first step {x}");
    }

    #[test]
    fn adam_accelerates_in_consistent_direction() {
        let mut p = ModelParams::zeros(1, 1);
        let mut adam = ServerAdam::new(&p, 0.1).unwrap();
        let u = delta(1, 1, 1.0);
        for _ in 0..50 {
            adam.step_threaded(&mut p, &u, 1).unwrap();
        }
        // 50 steps of ~0.1 each in a constant direction.
        let x = p.embedding.get(0, 0);
        assert!(x > 3.0, "travelled {x}");
        assert!(p.all_finite());
    }

    #[test]
    fn adam_zero_update_keeps_params() {
        let mut p = delta(2, 2, 1.0);
        let mut adam = ServerAdam::new(&p, 0.1).unwrap();
        let zero = ModelParams::zeros(2, 2);
        adam.step_threaded(&mut p, &zero, 1).unwrap();
        // m and v stay zero, so the step is exactly zero.
        assert!(p.embedding.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn adam_state_round_trip_continues_identically() {
        let mut p = ModelParams::zeros(2, 3);
        let mut adam = ServerAdam::new(&p, 0.05).unwrap();
        let u = delta(2, 3, 0.25);
        for _ in 0..5 {
            adam.step_threaded(&mut p, &u, 1).unwrap();
        }
        let (t, m, v) = adam.state();
        let mut restored = ServerAdam::from_state(
            adam.learning_rate,
            adam.beta1,
            adam.beta2,
            adam.eps,
            t,
            m.clone(),
            v.clone(),
        )
        .unwrap();
        let mut p2 = p.clone();
        adam.step_threaded(&mut p, &u, 1).unwrap();
        restored.step_threaded(&mut p2, &u, 1).unwrap();
        assert_eq!(p, p2, "restored optimizer must continue bit-identically");
        assert_eq!(adam.steps(), restored.steps());
    }

    fn ragged_delta(vocab: usize, dim: usize) -> ModelParams {
        // Non-uniform values so a chunking bug cannot hide behind symmetry.
        let mut d = ModelParams::zeros(vocab, dim);
        for (i, x) in d.embedding.as_mut_slice().iter_mut().enumerate() {
            *x = (i as f64 * 0.37).sin();
        }
        for (i, x) in d.context.as_mut_slice().iter_mut().enumerate() {
            *x = (i as f64 * 0.11).cos();
        }
        for (i, x) in d.bias.iter_mut().enumerate() {
            *x = i as f64 * 0.01 - 0.3;
        }
        d
    }

    /// `steps` SGD and Adam steps over `threads` workers from a ragged
    /// start: the parameters after each optimiser, and Adam's `(t, m, v)`.
    fn run_both(
        vocab: usize,
        dim: usize,
        threads: usize,
        steps: usize,
    ) -> (ModelParams, ModelParams, ServerAdam) {
        let u = ragged_delta(vocab, dim);
        let sgd = ServerSgd::new(0.7).unwrap();
        let mut by_sgd = ragged_delta(vocab, dim);
        let mut by_adam = ModelParams::zeros(vocab, dim);
        let mut adam = ServerAdam::new(&by_adam, 0.05).unwrap();
        for _ in 0..steps {
            sgd.step_threaded(&mut by_sgd, &u, threads).unwrap();
            adam.step_threaded(&mut by_adam, &u, threads).unwrap();
        }
        (by_sgd, by_adam, adam)
    }

    #[test]
    fn step_threaded_is_bit_identical_across_thread_counts() {
        // Multi-step: any drift in (t, m, v) state would compound.
        let (want_sgd, want_adam, want) = run_both(13, 5, 1, 6);
        for threads in [2usize, 4, 8] {
            let (sgd, params, adam) = run_both(13, 5, threads, 6);
            assert_eq!(sgd, want_sgd, "sgd params, threads={threads}");
            assert_eq!(params, want_adam, "adam params, threads={threads}");
            assert_eq!(
                adam.state(),
                want.state(),
                "adam (t, m, v), threads={threads}"
            );
        }
    }

    proptest! {
        /// Any row-block split of any shape reproduces the one-part bits.
        #[test]
        fn server_step_is_partition_invariant(
            vocab in 1usize..200,
            dim in 1usize..12,
            threads in 2usize..9,
        ) {
            let (want_sgd, want_adam, want) = run_both(vocab, dim, 1, 3);
            let (sgd, params, adam) = run_both(vocab, dim, threads, 3);
            prop_assert_eq!(sgd, want_sgd);
            prop_assert_eq!(params, want_adam);
            prop_assert_eq!(adam.state(), want.state());
        }
    }

    #[test]
    fn step_threaded_validates_like_sequential() {
        let mut p = ModelParams::zeros(2, 2);
        let wrong = ModelParams::zeros(3, 2);
        let sgd = ServerSgd::new(1.0).unwrap();
        assert!(sgd.step_threaded(&mut p, &wrong, 4).is_err());
        let mut adam = ServerAdam::new(&p, 0.1).unwrap();
        assert!(adam.step_threaded(&mut p, &wrong, 4).is_err());
        assert_eq!(adam.steps(), 0, "failed step must not be counted");
        let mut u = ModelParams::zeros(2, 2);
        u.bias[0] = f64::NAN;
        assert!(matches!(
            sgd.step_threaded(&mut p, &u, 4),
            Err(ModelError::NonFinite { .. })
        ));
    }

    #[test]
    fn adam_from_state_rejects_bad_state() {
        let m = ModelParams::zeros(2, 2);
        let v = ModelParams::zeros(3, 2);
        assert!(ServerAdam::from_state(0.1, 0.9, 0.999, 1e-8, 1, m.clone(), v).is_err());
        let mut bad = ModelParams::zeros(2, 2);
        bad.bias[0] = f64::INFINITY;
        assert!(ServerAdam::from_state(0.1, 0.9, 0.999, 1e-8, 1, m, bad).is_err());
    }

    #[test]
    fn adam_validates_parameters() {
        let p = ModelParams::zeros(1, 1);
        assert!(ServerAdam::with_betas(&p, 0.0, 0.9, 0.999, 1e-8).is_err());
        assert!(ServerAdam::with_betas(&p, 0.1, 1.0, 0.999, 1e-8).is_err());
        assert!(ServerAdam::with_betas(&p, 0.1, 0.9, -0.1, 1e-8).is_err());
        assert!(ServerAdam::with_betas(&p, 0.1, 0.9, 0.999, 0.0).is_err());
        let mut adam = ServerAdam::new(&p, 0.1).unwrap();
        let mut p2 = ModelParams::zeros(2, 1);
        let u2 = ModelParams::zeros(2, 1);
        assert!(
            adam.step_threaded(&mut p2, &u2, 1).is_err(),
            "shape mismatch with state"
        );
    }
}
