//! The server-side optimiser applied to the (noisy) aggregated model delta.
//!
//! Algorithm 1, line 10 updates the model with the noisy average of bucket
//! deltas: `θ_{t+1} = θ_t + ĝ_t`. The paper trains with Adam "implemented
//! in a differentially private manner by tracking an exponential moving
//! average of the noisy gradient and the squared noisy gradient"
//! (Gylberth et al. 2017, §5.1) — since ĝ_t is already differentially
//! private, any post-processing (including Adam's moment tracking) is
//! privacy-free.
//!
//! The recurrence is fed one row at a time ([`ServerAdam::step_rows`]): a
//! fill writes each row's update into a one-row buffer and the recurrence
//! runs over it at once, so the private step's noisy average never exists
//! as a θ-shaped value — its noise is drawn row by row where Adam consumes
//! it (`plp_core::noise::perturb_scale_and_step`), one pass over θ, `m`
//! and `v`. [`ServerAdam::step_threaded`], which takes a θ-shaped update,
//! is the case whose fill copies a row.

use plp_linalg::ops;
use plp_linalg::par::fan_out;

use crate::error::ModelError;
use crate::params::{ModelParams, Row, BIAS_CHUNK};

/// DP-Adam: Adam moments tracked over the noisy aggregated update.
///
/// The update direction ĝ plays the role of the (negated) gradient, so the
/// step is `θ += lr · m̂ / (√v̂ + ε)`, with Adam's standard β₁, β₂ and ε.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerAdam {
    /// Step size α.
    pub learning_rate: f64,
    t: u64,
    m: ModelParams,
    v: ModelParams,
}

impl ServerAdam {
    /// First-moment decay β₁.
    pub const BETA1: f64 = 0.9;
    /// Second-moment decay β₂.
    pub const BETA2: f64 = 0.999;
    /// Numerical-stability constant ε.
    pub const EPS: f64 = 1e-8;

    /// Creates an Adam state matching the shape of `template`.
    ///
    /// # Errors
    /// `learning_rate` must be finite and positive.
    pub fn new(template: &ModelParams, learning_rate: f64) -> Result<Self, ModelError> {
        if !(learning_rate.is_finite() && learning_rate > 0.0) {
            return Err(ModelError::BadConfig {
                name: "learning_rate",
                expected: "finite and > 0",
            });
        }
        Ok(ServerAdam {
            learning_rate,
            t: 0,
            m: ModelParams::zeros(template.vocab_size(), template.dim()),
            v: ModelParams::zeros(template.vocab_size(), template.dim()),
        })
    }

    /// The internal optimiser state `(t, m, v)` — steps taken and the two
    /// moment estimates — for checkpointing.
    pub fn state(&self) -> (u64, &ModelParams, &ModelParams) {
        (self.t, &self.m, &self.v)
    }

    /// Reconstructs an Adam state restored from a checkpoint.
    ///
    /// # Errors
    /// Same domain check as [`ServerAdam::new`], plus `m` and `v` must
    /// share one shape and be finite.
    pub fn from_state(
        learning_rate: f64,
        t: u64,
        m: ModelParams,
        v: ModelParams,
    ) -> Result<Self, ModelError> {
        let mut adam = Self::new(&m, learning_rate)?;
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

    /// Applies one Adam step with `update` as the (noisy) direction: the
    /// copy-fill case of [`ServerAdam::step_rows`], each row of the update
    /// copied out of `update`.
    ///
    /// # Errors
    /// Shapes must match; the result must stay finite.
    pub fn step_threaded(
        &mut self,
        params: &mut ModelParams,
        update: &ModelParams,
        threads: usize,
    ) -> Result<(), ModelError> {
        if !params.same_shape(update) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerAdam step",
            });
        }
        self.step_rows(params, threads, || {
            |row, u: &mut [f64]| u.copy_from_slice(update.row(row))
        })
    }

    /// Applies one Adam step whose update direction is written one row at
    /// a time: every part of [`ModelParams::row_parts_mut`]`(threads)`
    /// ([`fan_out`]) makes its own filler with `fill`, which writes each
    /// [`Row`]'s update into a buffer of one row, and the recurrence runs
    /// over that row at once. No θ-shaped update ever exists, and θ, `m`
    /// and `v` are each walked once. The recurrence is per-element, so
    /// parameters and moments are bit-identical for every thread count as
    /// long as what `fill` writes for a row does not depend on the part.
    ///
    /// # Errors
    /// `params` must have the moments' shape; the result must stay finite.
    /// A failed shape check leaves everything untouched.
    pub fn step_rows<F: FnMut(Row, &mut [f64])>(
        &mut self,
        params: &mut ModelParams,
        threads: usize,
        fill: impl Fn() -> F + Sync,
    ) -> Result<(), ModelError> {
        if !params.same_shape(&self.m) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerAdam step",
            });
        }
        self.t += 1;
        let (lr, b1, b2, eps) = (self.learning_rate, Self::BETA1, Self::BETA2, Self::EPS);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let width = params.dim().max(BIAS_CHUNK);
        let parts: Vec<_> = params
            .row_parts_mut(threads)
            .zip(self.m.row_parts_mut(threads))
            .zip(self.v.row_parts_mut(threads))
            .collect();
        let finite = fan_out(parts, |((ps, ms), vs)| {
            let mut fill = fill();
            let mut update = vec![0.0; width];
            let mut finite = true;
            for (((row, p), (_, m)), (_, v)) in ps.zip(ms).zip(vs) {
                let u = &mut update[..p.len()];
                fill(row, u);
                for i in 0..p.len() {
                    m[i] = b1 * m[i] + (1.0 - b1) * u[i];
                    v[i] = b2 * v[i] + (1.0 - b2) * u[i] * u[i];
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    p[i] += lr * mhat / (vhat.sqrt() + eps);
                }
                finite &= ops::all_finite(p);
            }
            finite
        });
        if !finite.into_iter().all(|f| f) {
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
    fn adam_first_step_moves_by_about_lr() {
        // With bias correction, the first Adam step is ≈ lr · sign(u).
        let mut p = ModelParams::zeros(2, 2);
        let mut adam = ServerAdam::new(&p, 0.01).unwrap();
        let u = delta(2, 2, 0.5);
        adam.step_threaded(&mut p, &u, 1).unwrap();
        assert_eq!(adam.state().0, 1);
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
        let mut restored =
            ServerAdam::from_state(adam.learning_rate, t, m.clone(), v.clone()).unwrap();
        let mut p2 = p.clone();
        adam.step_threaded(&mut p, &u, 1).unwrap();
        restored.step_threaded(&mut p2, &u, 1).unwrap();
        assert_eq!(p, p2, "restored optimizer must continue bit-identically");
        assert_eq!(adam.state().0, restored.state().0);
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

    /// `steps` Adam steps over `threads` workers from a ragged update: the
    /// parameters, and Adam's `(t, m, v)`.
    fn run(vocab: usize, dim: usize, threads: usize, steps: usize) -> (ModelParams, ServerAdam) {
        let u = ragged_delta(vocab, dim);
        let mut params = ModelParams::zeros(vocab, dim);
        let mut adam = ServerAdam::new(&params, 0.05).unwrap();
        for _ in 0..steps {
            adam.step_threaded(&mut params, &u, threads).unwrap();
        }
        (params, adam)
    }

    #[test]
    fn step_threaded_is_bit_identical_across_thread_counts() {
        // Multi-step: any drift in (t, m, v) state would compound.
        let (want_params, want) = run(13, 5, 1, 6);
        for threads in [2usize, 4, 8] {
            let (params, adam) = run(13, 5, threads, 6);
            assert_eq!(params, want_params, "params, threads={threads}");
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
            let (want_params, want) = run(vocab, dim, 1, 3);
            let (params, adam) = run(vocab, dim, threads, 3);
            prop_assert_eq!(params, want_params);
            prop_assert_eq!(adam.state(), want.state());
        }
    }

    #[test]
    fn step_threaded_rejects_bad_shapes_and_nan_poisoning() {
        let mut p = ModelParams::zeros(2, 2);
        let wrong = ModelParams::zeros(3, 2);
        let mut adam = ServerAdam::new(&p, 0.1).unwrap();
        assert!(adam.step_threaded(&mut p, &wrong, 4).is_err());
        assert_eq!(adam.state().0, 0, "failed step must not be counted");
        let mut u = ModelParams::zeros(2, 2);
        u.bias[0] = f64::NAN;
        assert!(matches!(
            adam.step_threaded(&mut p, &u, 4),
            Err(ModelError::NonFinite { .. })
        ));
    }

    #[test]
    fn adam_from_state_rejects_bad_state() {
        let m = ModelParams::zeros(2, 2);
        let v = ModelParams::zeros(3, 2);
        assert!(ServerAdam::from_state(0.1, 1, m.clone(), v).is_err());
        let mut bad = ModelParams::zeros(2, 2);
        bad.bias[0] = f64::INFINITY;
        assert!(ServerAdam::from_state(0.1, 1, m.clone(), bad).is_err());
        assert!(ServerAdam::from_state(0.0, 1, m.clone(), m).is_err());
    }

    #[test]
    fn adam_validates_parameters() {
        let p = ModelParams::zeros(1, 1);
        assert!(ServerAdam::new(&p, 0.0).is_err());
        assert!(ServerAdam::new(&p, f64::NAN).is_err());
        let mut adam = ServerAdam::new(&p, 0.1).unwrap();
        let mut p2 = ModelParams::zeros(2, 1);
        let u2 = ModelParams::zeros(2, 1);
        assert!(
            adam.step_threaded(&mut p2, &u2, 1).is_err(),
            "shape mismatch with state"
        );
    }
}
