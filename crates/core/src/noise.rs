//! Counter-based, thread-invariant noise for Algorithm 1's Gaussian sum
//! query (line 9).
//!
//! The sequential trainer drew the whole `N(0, σ²C²I)` perturbation from
//! one RNG stream, which forced the noise phase onto a single thread: the
//! k-th variate depended on the k−1 draws before it. Here the noise is
//! *counter-based* instead: each step derives a 64-bit noise seed from
//! `(run_seed, step)`, and every parameter row — embedding row i, context
//! row i, bias chunk j — gets its own `GaussianStream` seeded from
//! `(noise_seed, domain, row index)`. A row's noise depends only on those
//! three values, so any partition of the rows across worker threads
//! produces bit-identical output, and resume at a different thread count
//! stays on the same trajectory.
//!
//! Per-row seeding does not change the mechanism: every coordinate still
//! receives an independent N(0, σ²C²) draw (streams are independent
//! across rows and i.i.d. within a row), so the sensitivity analysis and
//! the moments accounting are exactly those of the sequential sampler.
//!
//! Because a row's noise depends on nothing but its index, it is drawn
//! where the row is used: [`perturb_scale_and_step`] writes each row's
//! noisy, scaled update into a one-row buffer that DP-Adam applies at
//! once, so a private step makes one pass over θ and never holds a
//! θ-shaped aggregate. [`perturb_and_scale_threaded`] is the same noise
//! add over a θ-shaped value, kept for the noise pins and for pricing the
//! noise on its own.

use plp_linalg::ops;
use plp_linalg::par::fan_out;
use plp_linalg::sample::mix64;
use plp_model::journal::RowSum;
use plp_model::optimizer::ServerAdam;
use plp_model::params::{ModelParams, Row, BIAS_CHUNK};
use plp_model::ModelError;
use plp_privacy::mechanism::GaussianMechanism;

/// Stream domain of the embedding matrix `W`.
pub const DOMAIN_EMBEDDING: u64 = 0;
/// Stream domain of the context matrix `W′`.
pub const DOMAIN_CONTEXT: u64 = 1;
/// Stream domain of the bias vector `B′`.
pub const DOMAIN_BIAS: u64 = 2;

/// Domain-separation salt for [`step_noise_seed`], keeping the noise seed
/// disjoint from the `step_rng` seed derivation (`mix64(run_seed ^
/// mix64(step))`) that drives sampling and grouping.
const NOISE_SEED_SALT: u64 = 0x4E4F_4953_4553_4544; // "NOISESED"

/// The 64-bit noise seed of `step` under `run_seed`. Depends only on the
/// pair, so step `k`'s noise is the same whether or not steps `1..k` ran in
/// this process — the resume contract extended to the noise phase.
pub fn step_noise_seed(run_seed: u64, step: u64) -> u64 {
    mix64(run_seed ^ NOISE_SEED_SALT ^ mix64(step))
}

/// Lines 9–10 of Algorithm 1 after the sum, as one pass over θ, `m` and
/// `v`: [`ServerAdam::step_rows`] with a fill that takes each row of `sum`
/// (zeros where no bucket touched the row), adds the row's noise from its
/// own counter stream, scales it by `scale_by` (the fixed-denominator
/// average) and hands it to the recurrence. Bit-identical to summing into
/// a zeroed θ-shaped aggregate with [`plp_model::journal::RowDelta::accumulate_into`],
/// then [`perturb_and_scale_threaded`] and [`ServerAdam::step_threaded`],
/// for every `threads` value.
///
/// # Errors
/// `sum` must be for `params`' shape (checked before anything is
/// touched); otherwise as [`ServerAdam::step_rows`].
pub fn perturb_scale_and_step(
    server: &mut ServerAdam,
    params: &mut ModelParams,
    sum: &RowSum,
    mechanism: &GaussianMechanism,
    noise_seed: u64,
    scale_by: f64,
    threads: usize,
) -> Result<(), ModelError> {
    if (sum.vocab_size(), sum.dim()) != (params.vocab_size(), params.dim()) {
        return Err(ModelError::ShapeMismatch {
            what: "row sum vs parameters",
        });
    }
    let width = params.dim().max(BIAS_CHUNK);
    server.step_rows(params, threads, || {
        let mut scratch = vec![0.0; width];
        move |row, update: &mut [f64]| {
            sum.copy_row(row, update);
            perturb_and_scale_row(mechanism, noise_seed, scale_by, row, update, &mut scratch);
        }
    })
}

/// Perturbs `aggregate` with the mechanism's `N(0, (σC)²I)` noise and then
/// scales it by `scale_by` (the fixed-denominator average), one part of
/// [`ModelParams::row_parts_mut`] per thread ([`fan_out`]). The training
/// loop fuses this pass into the server update
/// ([`perturb_scale_and_step`]); this θ-shaped form is what the noise is
/// pinned and priced by.
///
/// Bit-identical for every `threads` value: each row's noise comes from its
/// own counter-seeded stream (see the module docs) and both the noise add
/// and the scale are element-wise, so neither the partition nor the
/// execution order can change a single bit.
pub fn perturb_and_scale_threaded(
    aggregate: &mut ModelParams,
    mechanism: &GaussianMechanism,
    noise_seed: u64,
    scale_by: f64,
    threads: usize,
) {
    let width = aggregate.dim().max(BIAS_CHUNK);
    let parts: Vec<_> = aggregate.row_parts_mut(threads).collect();
    fan_out(parts, |rows| {
        let mut scratch = vec![0.0; width];
        for (row, data) in rows {
            perturb_and_scale_row(mechanism, noise_seed, scale_by, row, data, &mut scratch);
        }
    });
}

/// Adds row `row`'s noise to `data` from the row's own stream, then
/// multiplies by `scale_by`: the one noise add behind both the fused step
/// and [`perturb_and_scale_threaded`].
fn perturb_and_scale_row(
    mechanism: &GaussianMechanism,
    noise_seed: u64,
    scale_by: f64,
    row: Row,
    data: &mut [f64],
    scratch: &mut [f64],
) {
    let (domain, index) = match row {
        Row::Embedding(r) => (DOMAIN_EMBEDDING, r),
        Row::Context(r) => (DOMAIN_CONTEXT, r),
        Row::Bias(c) => (DOMAIN_BIAS, c),
    };
    mechanism.perturb_rows(noise_seed, domain, data.len(), index as u64, data, scratch);
    ops::scale(scale_by, data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::RNG_SCHEME_VERSION;
    use plp_data::frame::fnv1a64;
    use plp_linalg::sample::{stream_seed, GaussianStream};
    use plp_model::journal::{CowParams, RowDelta, RowJournal};
    use plp_model::ParamsViewMut;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn ragged(vocab: usize, dim: usize) -> ModelParams {
        let mut p = ModelParams::zeros(vocab, dim);
        for (i, x) in p.embedding.as_mut_slice().iter_mut().enumerate() {
            *x = (i as f64 * 0.31).sin();
        }
        for (i, x) in p.context.as_mut_slice().iter_mut().enumerate() {
            *x = (i as f64 * 0.17).cos();
        }
        for (i, x) in p.bias.iter_mut().enumerate() {
            *x = i as f64 * 0.02 - 1.0;
        }
        p
    }

    /// Sequential reference: one `perturb_rows` call per whole tensor slab,
    /// then the scale — no partitioning at all.
    fn sequential_reference(
        base: &ModelParams,
        mechanism: &GaussianMechanism,
        noise_seed: u64,
        scale_by: f64,
    ) -> ModelParams {
        let mut p = base.clone();
        let dim = p.dim();
        let mut scratch = vec![0.0; dim.max(BIAS_CHUNK)];
        mechanism.perturb_rows(
            noise_seed,
            DOMAIN_EMBEDDING,
            dim,
            0,
            p.embedding.as_mut_slice(),
            &mut scratch,
        );
        mechanism.perturb_rows(
            noise_seed,
            DOMAIN_CONTEXT,
            dim,
            0,
            p.context.as_mut_slice(),
            &mut scratch,
        );
        mechanism.perturb_rows(
            noise_seed,
            DOMAIN_BIAS,
            BIAS_CHUNK,
            0,
            &mut p.bias,
            &mut scratch,
        );
        ops::scale(scale_by, p.embedding.as_mut_slice());
        ops::scale(scale_by, p.context.as_mut_slice());
        ops::scale(scale_by, &mut p.bias);
        p
    }

    fn bits_equal(a: &ModelParams, b: &ModelParams) -> bool {
        let eq = |x: &[f64], y: &[f64]| x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits());
        eq(a.embedding.as_slice(), b.embedding.as_slice())
            && eq(a.context.as_slice(), b.context.as_slice())
            && eq(&a.bias, &b.bias)
    }

    #[test]
    fn threaded_noise_matches_sequential_reference() {
        let base = ragged(137, 9); // vocab not divisible by BIAS_CHUNK
        let mechanism = GaussianMechanism::new(1.1, 0.75).unwrap();
        let seed = step_noise_seed(0xFEED, 17);
        let want = sequential_reference(&base, &mechanism, seed, 0.125);
        for threads in [1usize, 2, 4, 8] {
            let mut got = base.clone();
            perturb_and_scale_threaded(&mut got, &mechanism, seed, 0.125, threads);
            assert!(bits_equal(&got, &want), "threads={threads}");
        }
    }

    /// The noise bits of each RNG scheme, as `(RNG_SCHEME_VERSION,
    /// noise_digest())`. Changing the bits means bumping the version and
    /// adding its row; a row is never edited.
    const NOISE_DIGESTS: [(u64, u64); 2] = [(2, 0xb239_2f79_f3a6_2553), (3, 0xdcb0_45b9_d497_4cd3)];

    /// `fnv1a64` over the first 4 096 draws of four row streams of one step
    /// and one threaded perturb-and-scale of zeros, every float as its LE
    /// bits.
    fn noise_digest() -> u64 {
        let seed = step_noise_seed(0x5EED, 7);
        let mut bytes = Vec::new();
        let mut push = |xs: &[f64]| bytes.extend(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        let mut draws = vec![0.0; 4096];
        let rows = [
            (DOMAIN_EMBEDDING, 0),
            (DOMAIN_EMBEDDING, 22_000),
            (DOMAIN_CONTEXT, 1),
            (DOMAIN_BIAS, 3),
        ];
        for (domain, row) in rows {
            GaussianStream::new(stream_seed(seed, domain, row)).fill(&mut draws);
            push(&draws);
        }
        let mut p = ModelParams::zeros(137, 9);
        let mechanism = GaussianMechanism::new(1.1, 0.75).unwrap();
        perturb_and_scale_threaded(&mut p, &mechanism, seed, 0.125, 3);
        push(p.embedding.as_slice());
        push(p.context.as_slice());
        push(&p.bias);
        fnv1a64(&bytes)
    }

    #[test]
    fn noise_bits_are_pinned_to_the_rng_scheme() {
        let pinned = NOISE_DIGESTS
            .iter()
            .find(|(scheme, _)| *scheme == RNG_SCHEME_VERSION)
            .map(|(_, digest)| format!("{digest:#018x}"));
        assert_eq!(
            pinned,
            Some(format!("{:#018x}", noise_digest())),
            "the noise stream changed: bump RNG_SCHEME_VERSION and add its row"
        );
    }

    #[test]
    fn step_noise_seed_is_disjoint_across_steps_and_seeds() {
        assert_ne!(step_noise_seed(1, 1), step_noise_seed(1, 2));
        assert_ne!(step_noise_seed(1, 1), step_noise_seed(2, 1));
        // Distinct from the sampling/grouping RNG seed of the same step.
        assert_ne!(step_noise_seed(1, 1), mix64(1 ^ mix64(1)));
    }

    proptest! {
        /// Partition invariance over arbitrary shapes and thread counts —
        /// any row-range split must reproduce the sequential bits.
        #[test]
        fn noise_is_partition_invariant(
            vocab in 1usize..200,
            dim in 1usize..12,
            threads in 1usize..9,
            seed in 0u64..1_000_000_000,
        ) {
            let base = ragged(vocab, dim);
            let mechanism = GaussianMechanism::new(2.0, 0.5).unwrap();
            let want = sequential_reference(&base, &mechanism, seed, 0.25);
            let mut got = base.clone();
            perturb_and_scale_threaded(&mut got, &mechanism, seed, 0.25, threads);
            prop_assert!(bits_equal(&got, &want), "threads={threads}");
        }
    }

    /// A value a clipped delta may hold, the awkward ones often: `−0.0`
    /// (which a zeroed accumulator turns into `0.0`) and subnormals.
    fn awkward(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..5usize) {
            0 => -0.0,
            1 => f64::MIN_POSITIVE / rng.random_range(2.0..1e6),
            2 => -f64::MIN_POSITIVE / 3.0,
            _ => rng.random_range(-2.0..2.0),
        }
    }

    /// One bucket's delta as the journal builds it: rows touched in random
    /// order (so the arena's slot order is not row order), half of them
    /// from a few hot rows every bucket shares, possibly none at all.
    fn bucket_delta(rng: &mut StdRng, zeros: &ModelParams, journal: &mut RowJournal) -> RowDelta {
        let (vocab, dim) = (zeros.vocab_size(), zeros.dim());
        let mut phi = CowParams::new(zeros, journal);
        for _ in 0..rng.random_range(0..40usize) {
            let r = if rng.random_bool(0.5) {
                rng.random_range(0..vocab.min(4))
            } else {
                rng.random_range(0..vocab)
            };
            match rng.random_range(0..3usize) {
                0 => phi.embedding_row_mut(r)[rng.random_range(0..dim)] = awkward(rng),
                1 => phi.context_row_mut(r).fill(awkward(rng)),
                _ => *phi.bias_at_mut(r) = awkward(rng),
            }
        }
        journal.take_delta(zeros)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row sum plus the fused step is bit-identical to the passes
        /// it replaced — a zeroed θ-shaped aggregate, `accumulate_into`,
        /// `perturb_and_scale_threaded`, `step_threaded` — over θ, `m`,
        /// `v` and `t`, step after step. A step's replies are its buckets:
        /// `None` is a dropped one. As in the training loop, a step whose
        /// every bucket was dropped makes no server update and must leave
        /// θ, `m`, `v` and `t` as they were, while a step that formed no
        /// bucket at all is pure noise.
        #[test]
        fn the_one_pass_equals_the_dense_passes(
            vocab in 1usize..300,
            dim in 1usize..6,
            steps in 1usize..5,
            threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(7)],
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mechanism = GaussianMechanism::new(1.3, 0.7).unwrap();
            let zeros = ModelParams::zeros(vocab, dim);
            let mut journal = RowJournal::new();
            let mut dense = (ragged(vocab, dim), ServerAdam::new(&zeros, 0.05).unwrap());
            let mut fused = dense.clone();
            let mut sum = RowSum::new(vocab, dim);
            for step in 0..steps as u64 {
                let replies: Vec<Option<RowDelta>> = (0..rng.random_range(0..5usize))
                    .map(|_| {
                        let delta = bucket_delta(&mut rng, &zeros, &mut journal);
                        rng.random_bool(0.8).then_some(delta)
                    })
                    .collect();
                let mut aggregate = ModelParams::zeros(vocab, dim);
                sum.clear();
                for delta in replies.iter().flatten() {
                    delta.accumulate_into(&mut aggregate).unwrap();
                    sum.add(delta).unwrap();
                }
                // The sum holds the aggregate's bits, row by row — `−0.0`
                // included, which the noise add would otherwise hide.
                let mut row_bits = |row: Row| {
                    let want = aggregate.row(row);
                    let mut got = vec![1.0; want.len()];
                    sum.copy_row(row, &mut got);
                    got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
                };
                let rows = (0..vocab).flat_map(|r| [Row::Embedding(r), Row::Context(r)]);
                let chunks = (0..vocab.div_ceil(BIAS_CHUNK)).map(Row::Bias);
                prop_assert!(rows.chain(chunks).all(&mut row_bits), "the sum, step {step}");
                let before = fused.clone();
                let noise_seed = step_noise_seed(seed, step);
                if replies.is_empty() || replies.iter().any(Option::is_some) {
                    perturb_and_scale_threaded(&mut aggregate, &mechanism, noise_seed, 0.25, threads);
                    dense.1.step_threaded(&mut dense.0, &aggregate, threads).unwrap();
                    let (params, server) = (&mut fused.0, &mut fused.1);
                    perturb_scale_and_step(server, params, &sum, &mechanism, noise_seed, 0.25, threads)
                        .unwrap();
                } else {
                    prop_assert!(bits_equal(&fused.0, &before.0));
                    prop_assert_eq!(fused.1.state().0, before.1.state().0);
                }
                let ((t, moments), (dt, dense_moments)) = (fused.1.state(), dense.1.state());
                prop_assert!(bits_equal(&fused.0, &dense.0), "θ, step {step}");
                prop_assert!(
                    moments.tensors().into_iter().zip(dense_moments.tensors()).all(|(x, y)| {
                        x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
                    }),
                    "m, v, step {step}"
                );
                prop_assert_eq!(t, dt);
            }
        }
    }

    #[test]
    fn the_fused_step_refuses_a_sum_of_another_shape() {
        let mechanism = GaussianMechanism::new(1.0, 1.0).unwrap();
        let mut params = ragged(10, 3);
        let mut server = ServerAdam::new(&params, 0.1).unwrap();
        for sum in [RowSum::new(11, 3), RowSum::new(10, 4)] {
            let err = perturb_scale_and_step(&mut server, &mut params, &sum, &mechanism, 1, 1.0, 2);
            assert!(matches!(err, Err(ModelError::ShapeMismatch { .. })));
            assert_eq!(server.state().0, 0, "a refused step is not counted");
        }
    }
}
