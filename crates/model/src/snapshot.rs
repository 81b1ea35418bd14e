//! Compact binary full-parameter snapshots (`PLPM`): θ = {W, W′, B′} in a
//! versioned little-endian format, the payload of checkpoints and
//! federated frames. The embedding-only deployment artifact of §3.3
//! (footnote 1) is the mmap-able `PLPS` bundle in [`crate::plps`].

use std::fs;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use plp_linalg::Matrix;

use crate::error::{ModelError, SnapshotError};
use crate::params::ModelParams;

const MAGIC_FULL: &[u8; 4] = b"PLPM";
const VERSION: u8 = 1;

fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u32_le(m.rows() as u32);
    buf.put_u32_le(m.cols() as u32);
    for &x in m.as_slice() {
        buf.put_f64_le(x);
    }
}

/// Drains `len` little-endian f64 values from the cursor in one bulk copy
/// plus 8-byte chunk conversion, instead of `len` cursor round-trips. The
/// caller has already verified `data.remaining() >= len * 8`.
fn get_f64s(data: &mut Bytes, len: usize) -> Vec<f64> {
    let mut raw = vec![0u8; len * 8];
    data.copy_to_slice(&mut raw);
    raw.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact yields 8-byte chunks")))
        .collect()
}

fn get_matrix(data: &mut Bytes) -> Result<Matrix, SnapshotError> {
    if data.remaining() < 8 {
        return Err(SnapshotError::TruncatedHeader {
            what: "matrix dims",
        });
    }
    let rows = data.get_u32_le() as usize;
    let cols = data.get_u32_le() as usize;
    let len = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(8).map(|_| n))
        .ok_or(SnapshotError::OverCeiling {
            what: "matrix dims overflow",
        })?;
    // Shared frame ceiling: a garbled dimension pair claiming a tensor
    // beyond MAX_FRAME_BYTES is rejected before any allocation.
    if plp_data::frame::checked_frame_len((len as u64).saturating_mul(8)).is_none() {
        return Err(SnapshotError::OverCeiling { what: "matrix" });
    }
    if data.remaining() < len * 8 {
        return Err(SnapshotError::TruncatedBody { what: "matrix" });
    }
    Matrix::from_vec(rows, cols, get_f64s(data, len)).map_err(|_| SnapshotError::Inconsistent {
        what: "matrix buffer",
    })
}

/// Encodes a full-parameter snapshot.
pub fn encode_params(params: &ModelParams) -> Bytes {
    let mut buf = BytesMut::with_capacity(21 + params.num_params() * 8 + 16);
    buf.put_slice(MAGIC_FULL);
    buf.put_u8(VERSION);
    put_matrix(&mut buf, &params.embedding);
    put_matrix(&mut buf, &params.context);
    buf.put_u32_le(params.bias.len() as u32);
    for &b in &params.bias {
        buf.put_f64_le(b);
    }
    buf.freeze()
}

/// Decodes a full-parameter snapshot.
///
/// # Errors
/// Returns [`ModelError::Snapshot`] with a typed [`SnapshotError`] on
/// truncation, magic/version mismatch or inconsistent tensor shapes.
pub fn decode_params(mut data: Bytes) -> Result<ModelParams, ModelError> {
    if data.remaining() < 5 {
        return Err(SnapshotError::TruncatedHeader {
            what: "snapshot header",
        }
        .into());
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC_FULL {
        return Err(SnapshotError::BadMagic.into());
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(SnapshotError::BadVersion {
            got: u32::from(version),
        }
        .into());
    }
    let embedding = get_matrix(&mut data)?;
    let context = get_matrix(&mut data)?;
    if data.remaining() < 4 {
        return Err(SnapshotError::TruncatedHeader {
            what: "bias length",
        }
        .into());
    }
    let blen = data.get_u32_le() as usize;
    if plp_data::frame::checked_frame_len((blen as u64).saturating_mul(8)).is_none() {
        return Err(SnapshotError::OverCeiling { what: "bias" }.into());
    }
    if data.remaining() < blen * 8 {
        return Err(SnapshotError::TruncatedBody { what: "bias" }.into());
    }
    let bias = get_f64s(&mut data, blen);
    if embedding.rows() != context.rows()
        || embedding.cols() != context.cols()
        || bias.len() != embedding.rows()
    {
        return Err(SnapshotError::Inconsistent {
            what: "snapshot tensor shapes",
        }
        .into());
    }
    Ok(ModelParams {
        embedding,
        context,
        bias,
    })
}

/// Writes a full snapshot to disk.
///
/// # Errors
/// Returns [`ModelError::Io`] on filesystem failures.
pub fn save_params(params: &ModelParams, path: &Path) -> Result<(), ModelError> {
    fs::write(path, encode_params(params)).map_err(|e| ModelError::Io {
        message: e.to_string(),
    })
}

/// Reads a full snapshot from disk.
///
/// # Errors
/// Returns [`ModelError::Io`] on filesystem failures and
/// [`ModelError::Snapshot`] on a malformed snapshot.
pub fn load_params(path: &Path) -> Result<ModelParams, ModelError> {
    let data = fs::read(path).map_err(|e| ModelError::Io {
        message: e.to_string(),
    })?;
    decode_params(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> ModelParams {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = ModelParams::init(&mut rng, 7, 4).unwrap();
        p.context.map_inplace(|_| 0.25);
        p.bias[2] = -1.5;
        p
    }

    #[test]
    fn full_snapshot_round_trip() {
        let p = params();
        let bytes = encode_params(&p);
        let back = decode_params(bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn corruption_is_detected() {
        let p = params();
        let bytes = encode_params(&p);
        assert!(decode_params(bytes.slice(..3)).is_err());
        assert!(decode_params(bytes.slice(..bytes.len() - 8)).is_err());
        let mut raw = bytes.to_vec();
        raw[0] = b'X';
        assert!(decode_params(Bytes::from(raw)).is_err());
        let mut raw = bytes.to_vec();
        raw[4] = 77;
        assert!(decode_params(Bytes::from(raw)).is_err());
    }

    #[test]
    fn oversized_dim_claims_hit_the_frame_ceiling() {
        let p = params();
        let bytes = encode_params(&p);
        // Rewrite the embedding dims to claim a ~2^31-element matrix whose
        // byte size clears MAX_FRAME_BYTES without overflowing usize.
        let mut raw = bytes.to_vec();
        raw[5..9].copy_from_slice(&0x0001_0000u32.to_le_bytes());
        raw[9..13].copy_from_slice(&0x0001_0000u32.to_le_bytes());
        let err = decode_params(Bytes::from(raw)).unwrap_err();
        assert!(
            matches!(
                err,
                ModelError::Snapshot(SnapshotError::OverCeiling { what: "matrix" })
            ),
            "got: {err:?}"
        );
    }

    #[test]
    fn decode_errors_are_typed() {
        let p = params();
        let bytes = encode_params(&p);
        assert_eq!(
            decode_params(bytes.slice(..3)).unwrap_err(),
            SnapshotError::TruncatedHeader {
                what: "snapshot header"
            }
            .into()
        );
        assert_eq!(
            decode_params(bytes.slice(..bytes.len() - 8)).unwrap_err(),
            SnapshotError::TruncatedBody { what: "bias" }.into()
        );
        let mut raw = bytes.to_vec();
        raw[0] = b'X';
        assert_eq!(
            decode_params(Bytes::from(raw)).unwrap_err(),
            SnapshotError::BadMagic.into()
        );
        let mut raw = bytes.to_vec();
        raw[4] = 77;
        assert_eq!(
            decode_params(Bytes::from(raw)).unwrap_err(),
            SnapshotError::BadVersion { got: 77 }.into()
        );
        // Truncation inside the embedding body is attributed to the matrix.
        assert_eq!(
            decode_params(bytes.slice(..20)).unwrap_err(),
            SnapshotError::TruncatedBody { what: "matrix" }.into()
        );
    }

    #[test]
    fn file_round_trip() {
        let p = params();
        let dir = std::env::temp_dir().join("plp_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.plpm");
        save_params(&p, &path).unwrap();
        assert_eq!(load_params(&path).unwrap(), p);
        assert!(load_params(&dir.join("missing.plpm")).is_err());
    }
}

#[cfg(test)]
mod corruption_props {
    //! Property tests: no damaged buffer may ever panic the decoders —
    //! corruption must surface as `ModelError`, because checkpoints and
    //! federated frames cross process and machine boundaries.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_params(vocab: usize, dim: usize) -> ModelParams {
        let mut rng = StdRng::seed_from_u64((vocab * 31 + dim) as u64);
        ModelParams::init(&mut rng, vocab, dim).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn truncated_snapshots_error_not_panic(
            vocab in 2usize..9,
            dim in 1usize..5,
            cut_frac in 0usize..1000,
        ) {
            let bytes = encode_params(&sample_params(vocab, dim));
            let cut = cut_frac * bytes.len() / 1000;
            prop_assert!(cut < bytes.len());
            prop_assert!(decode_params(bytes.slice(..cut)).is_err());
        }

        #[test]
        fn bit_flips_never_panic(
            vocab in 2usize..9,
            dim in 1usize..5,
            at_frac in 0usize..1000,
            bit in 0usize..8,
        ) {
            let bytes = encode_params(&sample_params(vocab, dim));
            let mut raw = bytes.to_vec();
            let at = at_frac * raw.len() / 1000;
            raw[at] ^= 1 << bit;
            // A flip in the payload may still decode (the format carries
            // no integrity footer — the PLPC checkpoint layer adds one);
            // the property is that decoding never panics, and header
            // damage is always rejected.
            let result = decode_params(Bytes::from(raw));
            if at < 5 {
                prop_assert!(result.is_err(), "magic/version damage must be rejected");
            }
        }

        #[test]
        fn random_garbage_is_rejected(data in vec(0u32..256u32, 0usize..96)) {
            let bytes: Vec<u8> = data.iter().map(|&x| x as u8).collect();
            if !bytes.starts_with(MAGIC_FULL) {
                prop_assert!(decode_params(Bytes::from(bytes)).is_err());
            }
        }

        #[test]
        fn swapped_dims_or_oversized_claims_are_rejected(
            vocab in 2usize..9,
            dim in 1usize..5,
            claimed in 0u32..10_000u32,
        ) {
            // Rewrite the claimed embedding row count; unless it happens
            // to match the real shape, decode must fail cleanly (shape
            // consistency or truncation), never over-read.
            let bytes = encode_params(&sample_params(vocab, dim));
            let mut raw = bytes.to_vec();
            raw[5..9].copy_from_slice(&claimed.to_le_bytes());
            let result = decode_params(Bytes::from(raw));
            if claimed as usize != vocab {
                prop_assert!(result.is_err());
            }
        }
    }
}
