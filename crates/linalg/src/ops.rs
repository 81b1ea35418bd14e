//! Vector kernels over `f64` slices.
//!
//! These are the hot-path primitives of skip-gram training: dot products
//! between embedding rows, `axpy` accumulation of gradients, ℓ2 norms and the
//! norm clipping at the heart of DP-SGD (Abadi et al. 2016, eq. in §3.1 of
//! the paper's Algorithm 1, line 21).
//!
//! # Determinism contract
//!
//! The reduction kernels ([`dot_unchecked`], [`l2_norm_sq`]) run eight
//! independent accumulator lanes over `chunks_exact(8)` — two 4-wide vector
//! registers' worth, so the loop-carried add latency chain splits in two —
//! and combine them in the *fixed* order
//! `(((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail`, where
//! `tail` sums the `len % 8` remainder sequentially. Element-wise kernels
//! ([`axpy`], [`scale`], [`sub_into`]) have no cross-element reduction at
//! all. The result therefore depends only on the input values — never on
//! thread count, batch shape, or call site — which is what keeps the
//! bit-identical checkpoint/resume and serve-vs-sequential invariants
//! holding while still letting the compiler auto-vectorise the eight-lane
//! main loop into f64 vector pairs.
//!
//! The lane count (and thus the reduction order) is versioned on disk:
//! `plp-core`'s `KERNEL_SCHEME_VERSION` is folded into the checkpoint config
//! fingerprint, so checkpoints trained under the old four-lane order are
//! rejected with a restart-from-scratch error instead of silently resuming
//! onto a different bit stream.

use crate::error::LinalgError;

/// Unroll width of the multi-accumulator kernels. Changing this changes the
/// floating-point reduction order and thus the bit pattern of every trained
/// model; treat it as part of the on-disk format (see `KERNEL_SCHEME_VERSION`
/// in `plp-core`, which must be bumped in lock-step).
const LANES: usize = 8;

/// Dot product of two equal-length slices.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64, LinalgError> {
    if a.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "dot",
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(dot_unchecked(a, b))
}

/// Dot product without a shape check; panics in debug builds on mismatch.
///
/// Eight-lane multi-accumulator loop with the fixed reduction order
/// `(((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail` (see the
/// module docs): deterministic, and independent of everything but the input
/// values. Eight lanes are two 4-wide f64 vectors, which halves the
/// loop-carried dependency on the accumulator adds.
#[inline]
pub fn dot_unchecked(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let main = n - n % LANES;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64);
    let (mut s4, mut s5, mut s6, mut s7) = (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64);
    for (ca, cb) in a[..main]
        .chunks_exact(LANES)
        .zip(b[..main].chunks_exact(LANES))
    {
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
        s4 += ca[4] * cb[4];
        s5 += ca[5] * cb[5];
        s6 += ca[6] * cb[6];
        s7 += ca[7] * cb[7];
    }
    let mut tail = 0.0_f64;
    for (x, y) in a[main..n].iter().zip(&b[main..n]) {
        tail += x * y;
    }
    (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail
}

/// `y += alpha * x` without a shape check; panics in debug builds on
/// mismatch. Element-wise (no reduction), unrolled eight wide (two f64
/// vector pairs) for auto-vectorisation; each `y[i]` sees exactly
/// `y[i] + alpha * x[i]`.
#[inline]
pub fn axpy_unchecked(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let main = n - n % LANES;
    for (cy, cx) in y[..main]
        .chunks_exact_mut(LANES)
        .zip(x[..main].chunks_exact(LANES))
    {
        cy[0] += alpha * cx[0];
        cy[1] += alpha * cx[1];
        cy[2] += alpha * cx[2];
        cy[3] += alpha * cx[3];
        cy[4] += alpha * cx[4];
        cy[5] += alpha * cx[5];
        cy[6] += alpha * cx[6];
        cy[7] += alpha * cx[7];
    }
    for (yi, xi) in y[main..n].iter_mut().zip(&x[main..n]) {
        *yi += alpha * xi;
    }
}

/// `y += alpha * x` (the BLAS `axpy` kernel).
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if the lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
    if x.len() != y.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "axpy",
            left: x.len(),
            right: y.len(),
        });
    }
    axpy_unchecked(alpha, x, y);
    Ok(())
}

/// `y *= alpha` in place. Element-wise, unrolled eight wide.
pub fn scale(alpha: f64, y: &mut [f64]) {
    let n = y.len();
    let main = n - n % LANES;
    for cy in y[..main].chunks_exact_mut(LANES) {
        cy[0] *= alpha;
        cy[1] *= alpha;
        cy[2] *= alpha;
        cy[3] *= alpha;
        cy[4] *= alpha;
        cy[5] *= alpha;
        cy[6] *= alpha;
        cy[7] *= alpha;
    }
    for yi in &mut y[main..] {
        *yi *= alpha;
    }
}

/// Element-wise `out = a - b` into a caller-provided buffer, so hot delta
/// paths can reuse scratch rows instead of allocating per call.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if any of the lengths differ.
pub fn sub_into(a: &[f64], b: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
    if a.len() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "sub",
            left: a.len(),
            right: b.len(),
        });
    }
    if out.len() != a.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "sub",
            left: a.len(),
            right: out.len(),
        });
    }
    let n = a.len();
    let main = n - n % LANES;
    for ((co, ca), cb) in out[..main]
        .chunks_exact_mut(LANES)
        .zip(a[..main].chunks_exact(LANES))
        .zip(b[..main].chunks_exact(LANES))
    {
        co[0] = ca[0] - cb[0];
        co[1] = ca[1] - cb[1];
        co[2] = ca[2] - cb[2];
        co[3] = ca[3] - cb[3];
        co[4] = ca[4] - cb[4];
        co[5] = ca[5] - cb[5];
        co[6] = ca[6] - cb[6];
        co[7] = ca[7] - cb[7];
    }
    for ((o, x), y) in out[main..].iter_mut().zip(&a[main..]).zip(&b[main..]) {
        *o = x - y;
    }
    Ok(())
}

/// Element-wise `a - b` into a fresh vector (thin wrapper over [`sub_into`]).
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if the lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let mut out = vec![0.0; a.len().min(b.len())];
    sub_into(a, b, &mut out)?;
    Ok(out)
}

/// Squared ℓ2 norm.
///
/// Same eight-lane accumulator structure and fixed reduction order as
/// [`dot_unchecked`] (see the module docs).
#[inline]
pub fn l2_norm_sq(v: &[f64]) -> f64 {
    let n = v.len();
    let main = n - n % LANES;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64);
    let (mut s4, mut s5, mut s6, mut s7) = (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64);
    for c in v[..main].chunks_exact(LANES) {
        s0 += c[0] * c[0];
        s1 += c[1] * c[1];
        s2 += c[2] * c[2];
        s3 += c[3] * c[3];
        s4 += c[4] * c[4];
        s5 += c[5] * c[5];
        s6 += c[6] * c[6];
        s7 += c[7] * c[7];
    }
    let mut tail = 0.0_f64;
    for x in &v[main..] {
        tail += x * x;
    }
    (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail
}

/// ℓ2 (Euclidean) norm.
#[inline]
pub fn l2_norm(v: &[f64]) -> f64 {
    l2_norm_sq(v).sqrt()
}

/// ℓ∞ norm (maximum absolute value); `0.0` for the empty slice.
#[inline]
pub fn linf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Scales `v` in place to unit ℓ2 length.
///
/// Vectors with norm below `f64::EPSILON` are left untouched (normalising a
/// zero embedding row is a no-op rather than a NaN factory).
pub fn normalize(v: &mut [f64]) {
    let n = l2_norm(v);
    if n > f64::EPSILON {
        scale(1.0 / n, v);
    }
}

/// Clips `v` in place so that its ℓ2 norm is at most `max_norm`, i.e. the
/// DP-SGD projection `v ← v / max(1, ‖v‖₂ / C)`.
///
/// Returns the norm *before* clipping so callers can log clipping rates.
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] if `max_norm` is not a positive
/// finite number, and [`LinalgError::NonFinite`] if `v` contains a
/// non-finite entry (a poisoned gradient must not silently enter the
/// Gaussian sum query).
pub fn clip_to_norm(v: &mut [f64], max_norm: f64) -> Result<f64, LinalgError> {
    if !(max_norm.is_finite() && max_norm > 0.0) {
        return Err(LinalgError::InvalidArgument {
            what: "max_norm must be finite and > 0",
        });
    }
    let n = l2_norm(v);
    if !n.is_finite() {
        return Err(LinalgError::NonFinite { op: "clip_to_norm" });
    }
    if n > max_norm {
        scale(max_norm / n, v);
    }
    Ok(n)
}

/// Cosine similarity between two vectors; `0.0` if either has zero norm.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if the lengths differ.
pub fn cosine(a: &[f64], b: &[f64]) -> Result<f64, LinalgError> {
    let d = dot(a, b)?;
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        return Ok(0.0);
    }
    Ok(d / (na * nb))
}

/// Arithmetic mean of the slice; `0.0` for the empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Numerically-stable softmax over `logits`, written into `out`.
///
/// Uses the max-shift trick so that large logits do not overflow `exp`.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if lengths differ and
/// [`LinalgError::InvalidArgument`] for empty input.
pub fn softmax_into(logits: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
    if logits.is_empty() {
        return Err(LinalgError::InvalidArgument {
            what: "softmax of empty slice",
        });
    }
    if logits.len() != out.len() {
        return Err(LinalgError::ShapeMismatch {
            op: "softmax_into",
            left: logits.len(),
            right: out.len(),
        });
    }
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits) {
        let e = (l - max).exp();
        *o = e;
        sum += e;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
    Ok(())
}

/// Numerically-stable `log(sum(exp(xs)))`.
///
/// Returns `f64::NEG_INFINITY` for an empty slice (the log of an empty sum).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    let s: f64 = xs.iter().map(|x| (x - max).exp()).sum();
    max + s.ln()
}

/// Returns `true` iff every element of `v` is finite.
pub fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
    }

    #[test]
    fn dot_rejects_mismatched_lengths() {
        assert!(matches!(
            dot(&[1.0], &[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch { op: "dot", .. })
        ));
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y).unwrap();
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norms_match_known_values() {
        let v = [3.0, 4.0];
        assert_eq!(l2_norm(&v), 5.0);
        assert_eq!(l2_norm_sq(&v), 25.0);
        assert_eq!(linf_norm(&[-7.0, 2.0]), 7.0);
        assert_eq!(linf_norm(&[]), 0.0);
    }

    #[test]
    fn normalize_makes_unit_length() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn clip_shrinks_large_vectors_only() {
        let mut v = vec![3.0, 4.0];
        let before = clip_to_norm(&mut v, 1.0).unwrap();
        assert_eq!(before, 5.0);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-12);

        let mut small = vec![0.1, 0.1];
        let n = l2_norm(&small);
        clip_to_norm(&mut small, 1.0).unwrap();
        assert!(
            (l2_norm(&small) - n).abs() < 1e-12,
            "small vectors untouched"
        );
    }

    #[test]
    fn clip_rejects_bad_bound_and_nan() {
        let mut v = vec![1.0];
        assert!(clip_to_norm(&mut v, 0.0).is_err());
        assert!(clip_to_norm(&mut v, f64::NAN).is_err());
        let mut bad = vec![f64::NAN];
        assert!(matches!(
            clip_to_norm(&mut bad, 1.0),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 3.0]).unwrap().abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn softmax_is_a_distribution_and_order_preserving() {
        let logits = [1.0, 2.0, 3.0];
        let mut p = [0.0; 3];
        softmax_into(&logits, &mut p).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn softmax_survives_huge_logits() {
        let logits = [1000.0, 1000.0];
        let mut p = [0.0; 2];
        softmax_into(&logits, &mut p).unwrap();
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_inputs() {
        let xs = [0.1, 0.2, 0.3];
        let naive: f64 = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn mean_and_finiteness() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::INFINITY]));
    }

    #[test]
    fn sub_into_matches_sub_and_validates() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [0.5, 0.25, 0.125, 4.0, -1.0];
        let mut out = vec![9.0; 5];
        sub_into(&a, &b, &mut out).unwrap();
        assert_eq!(out, sub(&a, &b).unwrap());
        assert_eq!(out, vec![0.5, 1.75, 2.875, 0.0, 6.0]);
        let mut short = vec![0.0; 4];
        assert!(sub_into(&a, &b, &mut short).is_err());
        assert!(sub_into(&a, &b[..4], &mut out).is_err());
        assert!(sub(&[1.0], &[1.0, 2.0]).is_err());
    }
}

/// Property tests pinning the unrolled kernels, bit for bit, to naive
/// reference implementations that spell out the same fixed lane structure
/// and reduction order. If a refactor ever changes the order (and thus the
/// result bits of every trained model), these fail rather than letting the
/// change slip through as "just float noise".
#[cfg(test)]
mod reduction_order_props {
    use super::*;
    use proptest::prelude::*;

    /// Reference dot product: eight scalar lanes filled round-robin over the
    /// unrolled prefix, a sequential tail, combined as
    /// `(((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) + tail`.
    fn dot_reference(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let main = n - n % 8;
        let mut lanes = [0.0_f64; 8];
        for i in 0..main {
            lanes[i % 8] += a[i] * b[i];
        }
        let mut tail = 0.0_f64;
        for (x, y) in a[main..].iter().zip(&b[main..]) {
            tail += x * y;
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    fn l2_reference(v: &[f64]) -> f64 {
        let n = v.len();
        let main = n - n % 8;
        let mut lanes = [0.0_f64; 8];
        for (i, &x) in v[..main].iter().enumerate() {
            lanes[i % 8] += x * x;
        }
        let mut tail = 0.0_f64;
        for &x in &v[main..] {
            tail += x * x;
        }
        (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
            + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
            + tail
    }

    /// Deterministic pseudo-random values spanning magnitudes and signs,
    /// derived from a seed so every length in 0..128 gets distinct data.
    fn values(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                let mag = 10f64.powi((state % 7) as i32 - 3);
                (unit - 0.5) * mag
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dot_unchecked_is_bitwise_reference(seed in 0u64..1_000_000) {
            for len in 0..128usize {
                let a = values(seed, len);
                let b = values(seed ^ 0xDEAD_BEEF, len);
                let got = dot_unchecked(&a, &b);
                let want = dot_reference(&a, &b);
                prop_assert!(got.to_bits() == want.to_bits(), "dot len={}", len);
            }
        }

        #[test]
        fn l2_norm_sq_is_bitwise_reference(seed in 0u64..1_000_000) {
            for len in 0..128usize {
                let v = values(seed, len);
                prop_assert!(
                    l2_norm_sq(&v).to_bits() == l2_reference(&v).to_bits(),
                    "l2 len={}", len
                );
            }
        }

        #[test]
        fn axpy_is_bitwise_elementwise(seed in 0u64..1_000_000, alpha in -4.0f64..4.0) {
            for len in 0..128usize {
                let x = values(seed, len);
                let mut y = values(seed ^ 0x5A5A, len);
                let want: Vec<f64> = y.iter().zip(&x).map(|(yi, xi)| yi + alpha * xi).collect();
                axpy_unchecked(alpha, &x, &mut y);
                for (g, w) in y.iter().zip(&want) {
                    prop_assert!(g.to_bits() == w.to_bits(), "axpy len={}", len);
                }
            }
        }

        #[test]
        fn scale_and_sub_are_bitwise_elementwise(seed in 0u64..1_000_000, alpha in -4.0f64..4.0) {
            for len in 0..128usize {
                let a = values(seed, len);
                let b = values(seed ^ 0xC0FFEE, len);

                let mut scaled = a.clone();
                scale(alpha, &mut scaled);
                for (g, x) in scaled.iter().zip(&a) {
                    prop_assert!(g.to_bits() == (x * alpha).to_bits(), "scale len={}", len);
                }

                let mut diff = vec![0.0; len];
                sub_into(&a, &b, &mut diff).unwrap();
                for ((g, x), y) in diff.iter().zip(&a).zip(&b) {
                    prop_assert!(g.to_bits() == (x - y).to_bits(), "sub len={}", len);
                }
            }
        }
    }
}
