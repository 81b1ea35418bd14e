//! The server-side optimiser applied to the (noisy) aggregated model delta.
//!
//! Algorithm 1, line 10 updates the model with the noisy average of bucket
//! deltas: `θ_{t+1} = θ_t + ĝ_t`. The paper trains with Adam "implemented
//! in a differentially private manner by tracking an exponential moving
//! average of the noisy gradient and the squared noisy gradient"
//! (Gylberth et al. 2017, §5.1) — since ĝ_t is already differentially
//! private, any post-processing (including Adam's moment tracking) is
//! privacy-free. That is also why the moments may be kept in f32, as
//! TensorFlow's Adam keeps its slots ([`Moments`]): their precision can
//! move trained bits, never ε.
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
use crate::params::{row_blocks, ModelParams, Row, BIAS_CHUNK};

/// Adam's first and second moment estimates `m` and `v`, one f32 per θ
/// element each: 8 bytes an element where θ takes 8 for itself. Each is
/// one arena in θ's order — `W`, then `W′`, then `B′` — cut for the
/// server step at the vocabulary rows [`ModelParams::row_parts_mut`] cuts
/// θ at (`params::row_blocks`).
#[derive(Debug, Clone, PartialEq)]
pub struct Moments {
    vocab: usize,
    dim: usize,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Moments {
    /// Zero moments for θ of `vocab` rows of width `dim`.
    fn zeros(vocab: usize, dim: usize) -> Self {
        let len = (2 * dim + 1) * vocab;
        Moments {
            vocab,
            dim,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Moments for θ of `vocab` rows of width `dim` from their arenas, each
    /// in θ's order: `W`, `W′`, then `B′`.
    ///
    /// # Errors
    /// [`ModelError::ShapeMismatch`] unless both hold `(2·dim + 1)·vocab`
    /// values and `dim` ≥ 1.
    pub fn from_arenas(
        vocab: usize,
        dim: usize,
        m: Vec<f32>,
        v: Vec<f32>,
    ) -> Result<Self, ModelError> {
        let len = (2 * dim + 1) * vocab;
        if dim == 0 || m.len() != len || v.len() != len {
            return Err(ModelError::ShapeMismatch {
                what: "Adam moment arenas",
            });
        }
        Ok(Moments { vocab, dim, m, v })
    }

    /// `true` iff the moments are for θ of `params`' shape.
    fn fits(&self, params: &ModelParams) -> bool {
        (self.vocab, self.dim) == (params.vocab_size(), params.dim())
    }

    /// `m`'s `W`, `W′` and `B′`, then `v`'s.
    pub fn tensors(&self) -> [&[f32]; 6] {
        let (w, c) = (self.vocab * self.dim, 2 * self.vocab * self.dim);
        let [m, v] = [&self.m, &self.v];
        [&m[..w], &m[w..c], &m[c..], &v[..w], &v[w..c], &v[c..]]
    }

    /// Both moments cut like [`ModelParams::row_parts_mut`]`(parts)`, each
    /// row as its `(m, v)` slices: row `k` of block `b` here is row `k` of
    /// block `b` of θ.
    fn row_parts_mut(
        &mut self,
        parts: usize,
    ) -> impl Iterator<Item = impl Iterator<Item = (&mut [f32], &mut [f32])>> {
        let dim = self.dim;
        let [m, v] = [&mut self.m, &mut self.v].map(|arena| {
            let (embedding, rest) = arena.split_at_mut(self.vocab * dim);
            let (context, bias) = rest.split_at_mut(self.vocab * dim);
            [embedding, context, bias]
        });
        row_blocks(m, dim, parts)
            .zip(row_blocks(v, dim, parts))
            .map(|(ms, vs)| ms.zip(vs).map(|((_, m), (_, v))| (m, v)))
    }
}

/// DP-Adam: Adam moments tracked over the noisy aggregated update.
///
/// The update direction ĝ plays the role of the (negated) gradient, so the
/// step is `θ += lr · m̂ / (√v̂ + ε)`, with Adam's standard β₁, β₂ and ε.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerAdam {
    /// Step size α.
    pub learning_rate: f64,
    t: u64,
    moments: Moments,
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
        Ok(ServerAdam {
            learning_rate: checked_rate(learning_rate)?,
            t: 0,
            moments: Moments::zeros(template.vocab_size(), template.dim()),
        })
    }

    /// The internal optimiser state `(t, moments)` — steps taken and the
    /// two moment estimates — for checkpointing.
    pub fn state(&self) -> (u64, &Moments) {
        (self.t, &self.moments)
    }

    /// Reconstructs an Adam state restored from a checkpoint.
    ///
    /// # Errors
    /// Same domain check as [`ServerAdam::new`], plus the moments must be
    /// finite.
    pub fn from_state(learning_rate: f64, t: u64, moments: Moments) -> Result<Self, ModelError> {
        if !moments.m.iter().chain(&moments.v).all(|x| x.is_finite()) {
            return Err(ModelError::NonFinite {
                at: "restored adam moments",
            });
        }
        Ok(ServerAdam {
            learning_rate: checked_rate(learning_rate)?,
            t,
            moments,
        })
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
    /// and `v` are each walked once. The recurrence loads each moment from
    /// f32, computes in f64 and rounds once on store; θ moves by the
    /// unrounded f64 values. It is per-element, so parameters and moments
    /// are bit-identical for every thread count as long as what `fill`
    /// writes for a row does not depend on the part.
    ///
    /// # Errors
    /// `params` must have the moments' shape; the parameters and the
    /// stored moments must stay finite. A failed shape check leaves
    /// everything untouched.
    pub fn step_rows<F: FnMut(Row, &mut [f64])>(
        &mut self,
        params: &mut ModelParams,
        threads: usize,
        fill: impl Fn() -> F + Sync,
    ) -> Result<(), ModelError> {
        if !self.moments.fits(params) {
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
            .zip(self.moments.row_parts_mut(threads))
            .collect();
        let finite = fan_out(parts, |(ps, moments)| {
            let mut fill = fill();
            let mut update = vec![0.0; width];
            let mut finite = true;
            for ((row, p), (m, v)) in ps.zip(moments) {
                let u = &mut update[..p.len()];
                fill(row, u);
                let mut stored = true;
                let moments = m.iter_mut().zip(v.iter_mut());
                for ((p, &u), (m, v)) in p.iter_mut().zip(&*u).zip(moments) {
                    let mi = b1 * f64::from(*m) + (1.0 - b1) * u;
                    let vi = b2 * f64::from(*v) + (1.0 - b2) * u * u;
                    (*m, *v) = (mi as f32, vi as f32);
                    stored &= m.is_finite() & v.is_finite();
                    let mhat = mi / bc1;
                    let vhat = vi / bc2;
                    *p += lr * mhat / (vhat.sqrt() + eps);
                }
                finite &= stored && ops::all_finite(p);
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

/// `learning_rate` if it is a valid step size: finite and positive.
fn checked_rate(learning_rate: f64) -> Result<f64, ModelError> {
    if learning_rate.is_finite() && learning_rate > 0.0 {
        Ok(learning_rate)
    } else {
        Err(ModelError::BadConfig {
            name: "learning_rate",
            expected: "finite and > 0",
        })
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
        let (t, moments) = adam.state();
        let mut restored = ServerAdam::from_state(adam.learning_rate, t, moments.clone()).unwrap();
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
    fn a_step_whose_moments_overflow_f32_is_refused() {
        // 1e30 is an f64 like any other, but its square times 1 − β₂ is
        // past f32's range: θ would stay finite while `v` stored infinity.
        let mut p = ModelParams::zeros(2, 2);
        let mut adam = ServerAdam::new(&p, 0.1).unwrap();
        let mut u = ModelParams::zeros(2, 2);
        u.context.set(1, 0, 1e30);
        assert!(matches!(
            adam.step_threaded(&mut p, &u, 1),
            Err(ModelError::NonFinite { .. })
        ));
        assert!(p.all_finite());
    }

    #[test]
    fn adam_from_state_rejects_bad_state() {
        let zeros = |len| vec![0.0f32; len];
        assert!(Moments::from_arenas(2, 2, zeros(10), zeros(10)).is_ok());
        assert!(Moments::from_arenas(2, 2, zeros(10), zeros(15)).is_err());
        assert!(Moments::from_arenas(3, 2, zeros(10), zeros(10)).is_err());
        assert!(Moments::from_arenas(2, 0, zeros(2), zeros(2)).is_err());
        let mut bad = zeros(10);
        bad[9] = f32::INFINITY;
        let poisoned = Moments::from_arenas(2, 2, zeros(10), bad).unwrap();
        assert!(ServerAdam::from_state(0.1, 1, poisoned).is_err());
        assert!(ServerAdam::from_state(0.0, 1, Moments::zeros(2, 2)).is_err());
    }

    #[test]
    fn moments_take_two_f32_per_theta_element() {
        // `train_wide`'s shape: 23 270 locations survive the filter.
        let template = ModelParams::zeros(23_270, 50);
        let adam = ServerAdam::new(&template, 0.01).unwrap();
        let Moments { m, v, .. } = &adam.state().1;
        assert_eq!(m.len() + v.len(), 2 * template.num_params());
        let bytes = (m.capacity() + v.capacity()) * std::mem::size_of::<f32>();
        assert_eq!(bytes, 8 * template.num_params());
    }

    #[test]
    fn moment_tensors_are_cut_like_theta() {
        // The row parts of the moments line up with θ's, ragged last bias
        // chunk included, and `tensors` reads the arenas back by tensor.
        let (vocab, dim) = (130, 3);
        let mut p = ModelParams::zeros(vocab, dim);
        let mut moments = Moments::zeros(vocab, dim);
        for (ps, ms) in p.row_parts_mut(2).zip(moments.row_parts_mut(2)) {
            let mut ms = ms;
            for (k, (_, p)) in ps.enumerate() {
                let (m, v) = ms.next().unwrap();
                assert_eq!((m.len(), v.len()), (p.len(), p.len()));
                p.fill(k as f64);
                m.fill(k as f32);
                v.fill(-(k as f32));
            }
            assert!(ms.next().is_none());
        }
        let [mw, mc, mb, vw, vc, vb] = moments.tensors();
        let wide = |t: &[f32]| t.iter().map(|&x| f64::from(x)).collect::<Vec<_>>();
        assert_eq!(wide(mw), p.embedding.as_slice());
        assert_eq!(wide(mc), p.context.as_slice());
        assert_eq!(wide(mb), p.bias);
        let negated = |t: &[f32]| t.iter().map(|&x| -f64::from(x)).collect::<Vec<_>>();
        assert_eq!(negated(vw), p.embedding.as_slice());
        assert_eq!(negated(vc), p.context.as_slice());
        assert_eq!(negated(vb), p.bias);
    }

    #[test]
    fn f32_moments_track_the_f64_recurrence() {
        // 300 seeded steps whose updates mix tiny (1e-12), unit and large
        // (1e6) magnitudes and flip sign at random, against the recurrence
        // with f64 moments written out here. The moments' rounding (a
        // relative 2⁻²⁴ per store, decaying with β) may move an element by
        // at most 1e-6 of the path it has travelled, `Σ_t |Δθ_t|`, plus
        // 1e-12; the worst element here is at ≈ 1.2e-7.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let (vocab, dim, steps, lr) = (70, 3, 300, 0.01);
        let mut rng = StdRng::seed_from_u64(45);
        let mut params = ModelParams::zeros(vocab, dim);
        let mut adam = ServerAdam::new(&params, lr).unwrap();
        let n = params.num_params();
        let (mut theta, mut m, mut v) = (vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]);
        let mut path = vec![0.0f64; n];
        let mut u = ModelParams::zeros(vocab, dim);
        for t in 1..=steps {
            let mut draw = |x: &mut f64| {
                let scale = [1e-12, 1.0, 1e6][rng.random_range(0..3usize)];
                let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
                *x = sign * scale * rng.random_range(0.5..1.5);
            };
            u.embedding.as_mut_slice().iter_mut().for_each(&mut draw);
            u.context.as_mut_slice().iter_mut().for_each(&mut draw);
            u.bias.iter_mut().for_each(&mut draw);
            adam.step_threaded(&mut params, &u, 2).unwrap();
            let (b1, b2) = (ServerAdam::BETA1, ServerAdam::BETA2);
            let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
            let flat = [u.embedding.as_slice(), u.context.as_slice(), &u.bias];
            for (i, &g) in flat.into_iter().flatten().enumerate() {
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let step = lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + ServerAdam::EPS);
                theta[i] += step;
                path[i] += step.abs();
            }
        }
        let got = [
            params.embedding.as_slice(),
            params.context.as_slice(),
            &params.bias,
        ];
        let mut worst = 0.0f64;
        for (i, &x) in got.into_iter().flatten().enumerate() {
            let error = (x - theta[i]).abs();
            assert!(
                error <= 1e-6 * path[i] + 1e-12,
                "element {i}: {x} vs {}",
                theta[i]
            );
            worst = worst.max(error / path[i]);
        }
        assert!(worst > 0.0, "the f32 store must round somewhere");
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
