//! Counter-based, thread-invariant noise for Algorithm 1's Gaussian sum
//! query (line 9).
//!
//! The sequential trainer drew the whole `N(0, σ²C²ω²I)` perturbation from
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
//! receives an independent N(0, σ²C²ω²) draw (streams are independent
//! across rows and i.i.d. within a row), so the sensitivity analysis and
//! the moments accounting are exactly those of the sequential sampler.

use plp_linalg::ops;
use plp_linalg::par::fan_out;
use plp_linalg::sample::mix64;
use plp_model::params::ModelParams;
use plp_privacy::mechanism::GaussianMechanism;

/// Stream domain of the embedding matrix `W`.
pub const DOMAIN_EMBEDDING: u64 = 0;
/// Stream domain of the context matrix `W′`.
pub const DOMAIN_CONTEXT: u64 = 1;
/// Stream domain of the bias vector `B′`.
pub const DOMAIN_BIAS: u64 = 2;

/// The bias vector is chunked into pseudo-rows of this many elements so it
/// partitions across workers like the matrices do. Part of the noise
/// trajectory: changing it changes which stream each bias element draws
/// from (covered by the checkpoint RNG-scheme version).
pub const BIAS_CHUNK: usize = 64;

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

/// Perturbs `aggregate` with the mechanism's `N(0, (σC)²I)` noise and then
/// scales it by `scale_by` (the fixed-denominator average), one block of
/// vocabulary rows per part of `threads` ([`fan_out`]).
///
/// Bit-identical for every `threads` value: each row's noise comes from its
/// own counter-seeded stream (see the module docs) and both the noise add
/// and the scale are element-wise, so neither the partition nor the
/// execution order can change a single bit. Blocks hold whole bias
/// pseudo-rows, so every block starts a stream of each domain.
pub fn perturb_and_scale_threaded(
    aggregate: &mut ModelParams,
    mechanism: &GaussianMechanism,
    noise_seed: u64,
    scale_by: f64,
    threads: usize,
) {
    let dim = aggregate.dim();
    let rows = aggregate
        .vocab_size()
        .div_ceil(threads.max(1))
        .next_multiple_of(BIAS_CHUNK);
    let blocks: Vec<_> = aggregate.row_blocks_mut(rows).enumerate().collect();
    fan_out(blocks, |(b, tensors)| {
        let first = (b * rows) as u64;
        let streams = [
            (DOMAIN_EMBEDDING, dim, first),
            (DOMAIN_CONTEXT, dim, first),
            (DOMAIN_BIAS, BIAS_CHUNK, first / BIAS_CHUNK as u64),
        ];
        let mut scratch = vec![0.0; dim.max(BIAS_CHUNK)];
        for (data, (domain, row_len, first_row)) in tensors.into_iter().zip(streams) {
            mechanism.perturb_rows(noise_seed, domain, row_len, first_row, data, &mut scratch);
            ops::scale(scale_by, data);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
}
