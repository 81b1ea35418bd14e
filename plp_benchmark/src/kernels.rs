//! `plp-linalg` kernel rates at a workload's own shape, stated against what
//! the machine can do: bytes/s beside a measured memcpy ceiling, flop/s for
//! the blocked matmul. Bytes and flops are *computed* from the array sizes
//! (cache misses are not counted), and the arrays are the workload's real
//! `vocab × dim`, so a small model is timed in cache — as it runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use plp_linalg::matrix::matmul_block_into;
use plp_linalg::ops::{axpy_unchecked, dot_unchecked};
use plp_linalg::sample::GaussianStream;
use plp_linalg::topk::{top_k_with_scores_into, TopKScratch};
use plp_linalg::Matrix;

use crate::report::Report;

/// Time budget of one micro-measurement.
const BUDGET: Duration = Duration::from_millis(60);

/// The memcpy ceiling streams arrays this large (bytes each): four times a
/// 16 MB last-level cache, so it measures memory, not cache.
const MEMCPY_BYTES: usize = 64 << 20;

/// Seconds per call of `f`: one untimed warm call, then calls until the
/// budget is spent (at least three).
pub fn secs_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < budget {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// Times the kernels over `embedding` (the workload's `vocab × dim`
/// matrix) and records the `linalg.*` metrics.
pub fn measure(embedding: &Matrix, report: &mut Report) {
    let (vocab, dim) = (embedding.rows(), embedding.cols());
    let matrix_bytes = (vocab * dim * 8) as f64;

    let src = vec![1.0f64; MEMCPY_BYTES / 8];
    let mut dst = vec![0.0f64; MEMCPY_BYTES / 8];
    let t = secs_per_call(BUDGET, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    report.set("linalg.memcpy_gbps", 2.0 * MEMCPY_BYTES as f64 / t / 1e9);
    drop((src, dst));

    let probe: Vec<f64> = embedding.row(0).to_vec();
    let t = secs_per_call(BUDGET, || {
        let mut acc = 0.0;
        for r in 0..vocab {
            acc += dot_unchecked(black_box(&probe), embedding.row(r));
        }
        black_box(acc);
    });
    report.set("linalg.dot_gbps", matrix_bytes / t / 1e9);

    let mut target = embedding.as_slice().to_vec();
    let t = secs_per_call(BUDGET, || {
        for row in target.chunks_exact_mut(dim) {
            axpy_unchecked(black_box(1e-9), &probe, row);
        }
        black_box(&mut target);
    });
    report.set("linalg.axpy_gbps", 2.0 * matrix_bytes / t / 1e9);
    drop(target);

    let rows = 32usize;
    let a: Vec<f64> = (0..rows)
        .flat_map(|r| embedding.row(r % vocab).to_vec())
        .collect();
    let mut scores = vec![0.0f64; rows * vocab];
    let t = secs_per_call(BUDGET, || {
        matmul_block_into(black_box(&a), rows, dim, embedding, &mut scores)
            .expect("shapes agree by construction");
        black_box(&mut scores);
    });
    report.set(
        "linalg.matmul_block_gflops",
        2.0 * (rows * dim * vocab) as f64 / t / 1e9,
    );

    let mut topk = TopKScratch::new();
    let mut ranked = Vec::new();
    let t = secs_per_call(BUDGET, || {
        top_k_with_scores_into(black_box(&scores[..vocab]), 10, &mut topk, &mut ranked);
        black_box(&ranked);
    });
    report.set("linalg.topk_ns_per_row", t * 1e9);
    drop(scores);

    let mut noise = vec![0.0f64; (vocab * dim).min(1 << 20)];
    let mut seed = 0u64;
    let t = secs_per_call(BUDGET, || {
        seed += 1;
        GaussianStream::new(seed).fill(&mut noise);
        black_box(&mut noise);
    });
    report.set("linalg.gauss_mvals_per_s", noise.len() as f64 / t / 1e6);
}
