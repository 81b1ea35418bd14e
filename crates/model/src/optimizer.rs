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

use crate::error::ModelError;
use crate::params::ModelParams;

/// One chunk of an Adam update: `(params, m, v, update)` slices of equal
/// length.
type AdamJob<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [f64], &'a [f64]);

/// The element-wise Adam recurrence over one slab chunk. Shared by the
/// sequential and threaded steps so the two paths cannot drift: the update
/// is per-element, so any chunking of the slabs produces bit-identical
/// parameters.
#[allow(clippy::too_many_arguments)]
fn adam_apply(
    p: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    u: &[f64],
    b1: f64,
    b2: f64,
    bc1: f64,
    bc2: f64,
    lr: f64,
    eps: f64,
) {
    for i in 0..p.len() {
        m[i] = b1 * m[i] + (1.0 - b1) * u[i];
        v[i] = b2 * v[i] + (1.0 - b2) * u[i] * u[i];
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        p[i] += lr * mhat / (vhat.sqrt() + eps);
    }
}

/// Splits `(y, x)` into up to `parts` equal-length chunk pairs.
fn push_chunks2<'a>(
    y: &'a mut [f64],
    x: &'a [f64],
    parts: usize,
    out: &mut Vec<(&'a mut [f64], &'a [f64])>,
) {
    let chunk = y.len().div_ceil(parts.max(1)).max(1);
    for (yc, xc) in y.chunks_mut(chunk).zip(x.chunks(chunk)) {
        out.push((yc, xc));
    }
}

/// Splits an Adam slab quadruple into up to `parts` aligned chunk jobs.
fn push_chunks4<'a>(
    p: &'a mut [f64],
    m: &'a mut [f64],
    v: &'a mut [f64],
    u: &'a [f64],
    parts: usize,
    out: &mut Vec<AdamJob<'a>>,
) {
    let chunk = p.len().div_ceil(parts.max(1)).max(1);
    let iter = p
        .chunks_mut(chunk)
        .zip(m.chunks_mut(chunk))
        .zip(v.chunks_mut(chunk))
        .zip(u.chunks(chunk));
    for (((pc, mc), vc), uc) in iter {
        out.push((pc, mc, vc, uc));
    }
}

/// Runs `f` over every job, fanning the jobs round-robin across `threads`
/// scoped workers (sequentially when `threads ≤ 1` or there is at
/// most one job). The jobs are element-wise and disjoint, so execution
/// order cannot affect the result.
fn run_chunk_jobs<J: Send, F: Fn(J) + Sync>(threads: usize, jobs: Vec<J>, f: F) {
    if threads <= 1 || jobs.len() <= 1 {
        for j in jobs {
            f(j);
        }
        return;
    }
    let workers = threads.min(jobs.len());
    let mut buckets: Vec<Vec<J>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, j) in jobs.into_iter().enumerate() {
        buckets[i % workers].push(j);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    for j in bucket {
                        f(j);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("server update worker panicked");
        }
    });
}

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

    /// Applies `params += lr · update`.
    ///
    /// # Errors
    /// Shapes must match and the result must stay finite.
    pub fn step(&self, params: &mut ModelParams, update: &ModelParams) -> Result<(), ModelError> {
        params.axpy(self.learning_rate, update)?;
        if !params.all_finite() {
            return Err(ModelError::NonFinite {
                at: "parameters after server sgd",
            });
        }
        Ok(())
    }

    /// [`ServerSgd::step`] with the element-wise axpy fanned over `threads`
    /// workers. The update is per-element, so the result is bit-identical
    /// to the sequential step for every thread count; `threads ≤ 1` falls
    /// back to the sequential path without spawning.
    ///
    /// # Errors
    /// Shapes must match and the result must stay finite.
    pub fn step_threaded(
        &self,
        params: &mut ModelParams,
        update: &ModelParams,
        threads: usize,
    ) -> Result<(), ModelError> {
        if threads <= 1 {
            return self.step(params, update);
        }
        if !params.same_shape(update) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerSgd step",
            });
        }
        let lr = self.learning_rate;
        let mut jobs: Vec<(&mut [f64], &[f64])> = Vec::new();
        push_chunks2(
            params.embedding.as_mut_slice(),
            update.embedding.as_slice(),
            threads,
            &mut jobs,
        );
        push_chunks2(
            params.context.as_mut_slice(),
            update.context.as_slice(),
            threads,
            &mut jobs,
        );
        push_chunks2(&mut params.bias, &update.bias, threads, &mut jobs);
        run_chunk_jobs(threads, jobs, |(y, x)| ops::axpy_unchecked(lr, x, y));
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

    /// Applies one Adam step with `update` as the (noisy) direction.
    ///
    /// # Errors
    /// Shapes must match; the result must stay finite.
    pub fn step(
        &mut self,
        params: &mut ModelParams,
        update: &ModelParams,
    ) -> Result<(), ModelError> {
        if !params.same_shape(update) || !params.same_shape(&self.m) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerAdam step",
            });
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let lr = self.learning_rate;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);

        adam_apply(
            params.embedding.as_mut_slice(),
            self.m.embedding.as_mut_slice(),
            self.v.embedding.as_mut_slice(),
            update.embedding.as_slice(),
            b1,
            b2,
            bc1,
            bc2,
            lr,
            eps,
        );
        adam_apply(
            params.context.as_mut_slice(),
            self.m.context.as_mut_slice(),
            self.v.context.as_mut_slice(),
            update.context.as_slice(),
            b1,
            b2,
            bc1,
            bc2,
            lr,
            eps,
        );
        adam_apply(
            &mut params.bias,
            &mut self.m.bias,
            &mut self.v.bias,
            &update.bias,
            b1,
            b2,
            bc1,
            bc2,
            lr,
            eps,
        );

        if !params.all_finite() {
            return Err(ModelError::NonFinite {
                at: "parameters after adam step",
            });
        }
        Ok(())
    }

    /// [`ServerAdam::step`] with the element-wise recurrence fanned over
    /// `threads` workers via the shared [`adam_apply`] kernel, so the
    /// sequential and threaded paths run the exact same per-element float
    /// operations and the result is bit-identical for every thread count.
    /// `threads ≤ 1` falls back to the sequential step without spawning.
    ///
    /// # Errors
    /// Shapes must match; the result must stay finite.
    pub fn step_threaded(
        &mut self,
        params: &mut ModelParams,
        update: &ModelParams,
        threads: usize,
    ) -> Result<(), ModelError> {
        if threads <= 1 {
            return self.step(params, update);
        }
        if !params.same_shape(update) || !params.same_shape(&self.m) {
            return Err(ModelError::ShapeMismatch {
                what: "ServerAdam step",
            });
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let lr = self.learning_rate;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);

        let mut jobs: Vec<AdamJob> = Vec::new();
        push_chunks4(
            params.embedding.as_mut_slice(),
            self.m.embedding.as_mut_slice(),
            self.v.embedding.as_mut_slice(),
            update.embedding.as_slice(),
            threads,
            &mut jobs,
        );
        push_chunks4(
            params.context.as_mut_slice(),
            self.m.context.as_mut_slice(),
            self.v.context.as_mut_slice(),
            update.context.as_slice(),
            threads,
            &mut jobs,
        );
        push_chunks4(
            &mut params.bias,
            &mut self.m.bias,
            &mut self.v.bias,
            &update.bias,
            threads,
            &mut jobs,
        );
        run_chunk_jobs(threads, jobs, |(p, m, v, u)| {
            adam_apply(p, m, v, u, b1, b2, bc1, bc2, lr, eps)
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
        ServerSgd::new(0.5).unwrap().step(&mut p, &u).unwrap();
        assert!(p.embedding.as_slice().iter().all(|&x| x == 0.5));
        assert!(p.bias.iter().all(|&x| x == 0.5));
    }

    #[test]
    fn sgd_rejects_bad_lr_and_shapes() {
        assert!(ServerSgd::new(0.0).is_err());
        assert!(ServerSgd::new(f64::NAN).is_err());
        let mut p = ModelParams::zeros(2, 2);
        let wrong = ModelParams::zeros(3, 2);
        assert!(ServerSgd::new(1.0).unwrap().step(&mut p, &wrong).is_err());
    }

    #[test]
    fn sgd_detects_nan_poisoning() {
        let mut p = ModelParams::zeros(1, 1);
        let mut u = ModelParams::zeros(1, 1);
        u.bias[0] = f64::NAN;
        assert!(matches!(
            ServerSgd::new(1.0).unwrap().step(&mut p, &u),
            Err(ModelError::NonFinite { .. })
        ));
    }

    #[test]
    fn adam_first_step_moves_by_about_lr() {
        // With bias correction, the first Adam step is ≈ lr · sign(u).
        let mut p = ModelParams::zeros(2, 2);
        let mut adam = ServerAdam::new(&p, 0.01).unwrap();
        let u = delta(2, 2, 0.5);
        adam.step(&mut p, &u).unwrap();
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
            adam.step(&mut p, &u).unwrap();
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
        adam.step(&mut p, &zero).unwrap();
        // m and v stay zero, so the step is exactly zero.
        assert!(p.embedding.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn adam_state_round_trip_continues_identically() {
        let mut p = ModelParams::zeros(2, 3);
        let mut adam = ServerAdam::new(&p, 0.05).unwrap();
        let u = delta(2, 3, 0.25);
        for _ in 0..5 {
            adam.step(&mut p, &u).unwrap();
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
        adam.step(&mut p, &u).unwrap();
        restored.step(&mut p2, &u).unwrap();
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

    #[test]
    fn sgd_step_threaded_is_bit_identical_across_thread_counts() {
        let sgd = ServerSgd::new(0.7).unwrap();
        let u = ragged_delta(13, 5);
        let mut want = ragged_delta(13, 5);
        sgd.step(&mut want, &u).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let mut got = ragged_delta(13, 5);
            sgd.step_threaded(&mut got, &u, threads).unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn adam_step_threaded_is_bit_identical_across_thread_counts() {
        // Multi-step: any drift in (t, m, v) state would compound.
        let u = ragged_delta(13, 5);
        let mut ref_params = ModelParams::zeros(13, 5);
        let mut ref_adam = ServerAdam::new(&ref_params, 0.05).unwrap();
        for _ in 0..6 {
            ref_adam.step(&mut ref_params, &u).unwrap();
        }
        for threads in [1usize, 2, 4, 8] {
            let mut p = ModelParams::zeros(13, 5);
            let mut adam = ServerAdam::new(&p, 0.05).unwrap();
            for _ in 0..6 {
                adam.step_threaded(&mut p, &u, threads).unwrap();
            }
            assert_eq!(p, ref_params, "params, threads={threads}");
            assert_eq!(adam.steps(), ref_adam.steps());
            let (_, m, v) = adam.state();
            let (_, rm, rv) = ref_adam.state();
            assert_eq!(m, rm, "m state, threads={threads}");
            assert_eq!(v, rv, "v state, threads={threads}");
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
            adam.step(&mut p2, &u2).is_err(),
            "shape mismatch with state"
        );
    }
}
