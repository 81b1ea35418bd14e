//! Model artifacts over the PLPS container: the serving bundle of §3.3
//! (the one model file: what `dp-nextloc train --out` writes and a
//! generation watcher loads), and the tensor sections of checkpoints and
//! federated θ-blobs.
//!
//! The byte layout, its checksums and the atomic writer live in
//! [`plp_data::frame`]; this module adds what is particular to tensors. A
//! body is little-endian f64 at an offset that is a multiple of 4096, and
//! `mmap` returns page-aligned bases, so on a little-endian 64-bit host a
//! [`plp_mmap::MappedSlice`] over a body is directly usable as `&[f64]` —
//! zero decode, zero copy, page cache shared across processes. On
//! big-endian or non-Unix hosts [`PlpsSnapshot::open`] falls back to an
//! owned read + bulk decode that is asserted bit-identical by the test
//! suite.
//!
//! Opening checks the header only; the generation watcher runs
//! [`PlpsSnapshot::validate`] on every candidate before swapping traffic
//! onto it, and publishers write files atomically, so a file named by the
//! `CURRENT` pointer is never truncated or rewritten in place.

use std::fs;
use std::path::Path;
use std::sync::Arc;

use plp_data::frame::{self, Header, Section, Words};
use plp_linalg::Matrix;
use plp_mmap::{MappedSlice, Mmap};

use crate::error::{ModelError, SnapshotError};
use crate::params::ModelParams;
use crate::recommender::Recommender;

// `plp-serve` publishes its `CURRENT` pointer through the same writer and
// has no `plp-data` edge of its own.
pub use plp_data::frame::write_atomic;

/// Flag bit 0: every tensor row is unit-ℓ2-normalised (a deployment bundle
/// written from a [`Recommender`]); the zero-copy serve path requires it.
const FLAG_NORMALIZED: u16 = 1;

/// Section kind: the embedding matrix `W`. A parameter triple occupies
/// three consecutive kinds from its base — embedding, context matrix `W'`,
/// output bias `B'` (an `L × 1` body) — and θ's base is this one.
pub const KIND_EMBEDDING: u16 = 0;

/// Raw bytes of a snapshot: a shared mapping or an owned buffer.
#[derive(Debug, Clone)]
enum Source {
    Mapped(Arc<Mmap>),
    Owned(Arc<Vec<u8>>),
}

impl Source {
    fn bytes(&self) -> &[u8] {
        match self {
            Source::Mapped(m) => m.as_bytes(),
            Source::Owned(v) => v,
        }
    }
}

/// An opened PLPS image: validated header plus the raw bytes, either
/// memory-mapped (zero-copy) or owned (in-memory images, fallback /
/// big-endian hosts).
#[derive(Debug, Clone)]
pub struct PlpsSnapshot {
    header: Header,
    source: Source,
}

impl PlpsSnapshot {
    /// Opens a snapshot by mmapping it — tensor accessors then return
    /// matrices whose storage *is* the mapped file.
    ///
    /// # Errors
    /// [`ModelError::Io`] if the file cannot be opened or mapped (including
    /// non-Unix hosts), [`ModelError::Snapshot`] on a malformed header.
    pub(crate) fn open_mapped(path: &Path) -> Result<Self, ModelError> {
        let map = Mmap::map(path).map_err(|e| ModelError::Io {
            message: format!("mmap {}: {e}", path.display()),
        })?;
        Ok(PlpsSnapshot {
            header: frame::parse(map.as_bytes())?,
            source: Source::Mapped(Arc::new(map)),
        })
    }

    /// Opens a snapshot by reading it into an owned buffer (the fallback
    /// path; tensor accessors bulk-decode on access).
    ///
    /// # Errors
    /// [`ModelError::Io`] on read failure, [`ModelError::Snapshot`] on a
    /// malformed header.
    pub(crate) fn open_owned(path: &Path) -> Result<Self, ModelError> {
        let bytes = fs::read(path).map_err(|e| ModelError::Io {
            message: format!("read {}: {e}", path.display()),
        })?;
        Self::from_bytes(bytes)
    }

    /// Opens an in-memory image (a federated θ-blob, a checkpoint read for
    /// resume).
    ///
    /// # Errors
    /// [`ModelError::Snapshot`] on a malformed header.
    pub fn from_bytes(image: Vec<u8>) -> Result<Self, ModelError> {
        Ok(PlpsSnapshot {
            header: frame::parse(&image)?,
            source: Source::Owned(Arc::new(image)),
        })
    }

    /// Opens a snapshot zero-copy where possible: maps the file, and reads
    /// it into an owned buffer when mapping is unavailable. A malformed
    /// file is rejected identically on both paths (same header
    /// validation), so the fallback never masks corruption.
    ///
    /// # Errors
    /// [`ModelError::Io`] on read failure, [`ModelError::Snapshot`] on a
    /// malformed header.
    pub fn open(path: &Path) -> Result<Self, ModelError> {
        match Self::open_mapped(path) {
            Ok(s) => Ok(s),
            // Header/CRC damage is definitive — don't reopen, report it.
            Err(e @ ModelError::Snapshot(_)) => Err(e),
            Err(_) => Self::open_owned(path),
        }
    }

    /// The generation id stamped in the header.
    pub fn generation(&self) -> u64 {
        self.header.generation
    }

    /// `true` when backed by a live memory mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.source, Source::Mapped(_))
    }

    /// Verifies every section body against its stored CRC-32 and the
    /// padding between bodies for zeros, which opening (O(header)) skips.
    ///
    /// # Errors
    /// [`SnapshotError::BadCrc`] or [`SnapshotError::Inconsistent`].
    pub fn verify_bodies(&self) -> Result<(), ModelError> {
        Ok(self.header.verify(self.source.bytes())?)
    }

    /// Full validation of an all-tensor image (bundle or θ-blob): body
    /// CRCs plus a finiteness sweep over every section. This
    /// is what stands between an untrusted `gen-*.plps` file and live
    /// traffic.
    ///
    /// # Errors
    /// [`ModelError::Snapshot`] on CRC mismatch, [`ModelError::NonFinite`]
    /// if any element is NaN/∞.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.verify_bodies()?;
        for s in &self.header.sections {
            if !self.matrix_at(s)?.all_finite() {
                return Err(ModelError::NonFinite { at: "PLPS tensor" });
            }
        }
        Ok(())
    }

    /// Materialises the tensor at `s` — as a mapped view when the source is
    /// mapped (zero-copy), otherwise by bulk-decoding the owned bytes.
    fn matrix_at(&self, s: &Section) -> Result<Matrix, ModelError> {
        if let Source::Mapped(map) = &self.source {
            // A big-endian host cannot view the body in place and decodes
            // the mapped bytes like owned ones.
            if let Ok(view) = MappedSlice::new(Arc::clone(map), s.offset, s.rows * s.cols) {
                return Ok(Matrix::from_mapped(s.rows, s.cols, view)?);
            }
        }
        let word = |c: &[u8]| f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        let body = s.body(self.source.bytes());
        Ok(Matrix::from_vec(
            s.rows,
            s.cols,
            body.chunks_exact(8).map(word).collect(),
        )?)
    }

    fn matrix(&self, kind: u16) -> Result<Matrix, ModelError> {
        self.matrix_at(self.header.section(kind)?)
    }

    /// The embedding tensor.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] when the image has none.
    pub fn embedding(&self) -> Result<Matrix, ModelError> {
        self.matrix(KIND_EMBEDDING)
    }

    /// Reassembles the parameter triple whose embedding has kind `base`
    /// (see [`param_sections`]).
    ///
    /// # Errors
    /// Missing tensors or mismatched shapes yield
    /// [`SnapshotError::Inconsistent`].
    pub fn params_at(&self, base: u16) -> Result<ModelParams, ModelError> {
        let embedding = self.matrix(base)?;
        let context = self.matrix(base + 1)?;
        let bias = self.matrix(base + 2)?;
        if embedding.rows() != context.rows()
            || embedding.cols() != context.cols()
            || (bias.rows(), bias.cols()) != (embedding.rows(), 1)
        {
            return Err(SnapshotError::Inconsistent {
                what: "parameter tensor shapes disagree",
            }
            .into());
        }
        Ok(ModelParams {
            embedding,
            context,
            bias: bias.as_slice().to_vec(),
        })
    }

    /// The model parameters θ of an image whose sections are
    /// [`param_sections`] at [`KIND_EMBEDDING`] (a federated θ-blob).
    ///
    /// # Errors
    /// As [`Self::params_at`].
    pub fn params(&self) -> Result<ModelParams, ModelError> {
        self.params_at(KIND_EMBEDDING)
    }

    /// The body of a non-tensor section as `u64` words, `cols` to a row.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] when the section is absent or not
    /// `cols` wide.
    pub fn words(&self, kind: u16, cols: usize) -> Result<Vec<u64>, ModelError> {
        Ok(self.header.words(self.source.bytes(), kind, cols)?)
    }

    /// Builds the serving recommender straight over the stored embedding —
    /// zero-copy when mapped. Requires the normalised flag, header bit 0 (the
    /// rows were normalised by the publisher); validation of the bytes
    /// themselves is the caller's job via [`Self::validate`], which the
    /// generation watcher performs before any candidate reaches traffic.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] when the bundle is not flagged
    /// normalised.
    pub fn recommender(&self) -> Result<Recommender, ModelError> {
        if self.header.flags & FLAG_NORMALIZED == 0 {
            return Err(SnapshotError::Inconsistent {
                what: "bundle not flagged normalised",
            }
            .into());
        }
        Ok(Recommender::from_prenormalized(self.embedding()?))
    }
}

/// The three tensor sections of a parameter triple, kinds `base`,
/// `base + 1`, `base + 2`; [`PlpsSnapshot::params_at`] reads them back.
pub fn param_sections(params: &ModelParams, base: u16) -> [(u16, usize, Words<'_>); 3] {
    let dim = params.embedding.cols();
    [
        (base, dim, Words::F64(params.embedding.as_slice())),
        (base + 1, dim, Words::F64(params.context.as_slice())),
        (base + 2, 1, Words::F64(&params.bias)),
    ]
}

/// Writes a serving deployment bundle — the one model file, which
/// `dp-nextloc train --out` writes too: the (already unit-normalised)
/// embedding only, flagged as normalised (header bit 0). Pass
/// [`Recommender::embedding`] (or [`ModelParams::deployable_embedding`]) —
/// the bytes are written verbatim, so a mapped reader serves bit-identical
/// scores to the publishing process.
///
/// # Errors
/// [`ModelError::Io`] on filesystem failures.
pub fn write_deployable(
    path: &Path,
    embedding: &Matrix,
    generation: u64,
) -> Result<(), ModelError> {
    let tensor = (
        KIND_EMBEDDING,
        embedding.cols(),
        Words::F64(embedding.as_slice()),
    );
    let image = frame::encode(&[tensor], generation, FLAG_NORMALIZED);
    write_atomic(path, &image).map_err(|e| ModelError::Io {
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("plp_plps_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn params(vocab: usize, dim: usize) -> ModelParams {
        let mut rng = StdRng::seed_from_u64(11);
        let mut p = ModelParams::init(&mut rng, vocab, dim).unwrap();
        p.bias[vocab / 2] = -0.75;
        p
    }

    #[test]
    fn deployable_round_trip_mapped_and_owned_bit_identical() {
        let p = params(9, 5);
        let rec = Recommender::new(&p);
        let path = tmp("deploy.plps");
        write_deployable(&path, rec.embedding(), 42).unwrap();

        let mapped = PlpsSnapshot::open_mapped(&path).unwrap();
        let owned = PlpsSnapshot::open_owned(&path).unwrap();
        assert!(mapped.is_mapped());
        assert!(!owned.is_mapped());
        for s in [&mapped, &owned] {
            assert_eq!(s.generation(), 42);
            s.validate().unwrap();
        }
        let em = mapped.embedding().unwrap();
        let eo = owned.embedding().unwrap();
        assert!(em.is_mapped());
        assert!(!eo.is_mapped());
        assert_eq!(em.as_slice().len(), rec.embedding().as_slice().len());
        for ((a, b), c) in em
            .as_slice()
            .iter()
            .zip(eo.as_slice())
            .zip(rec.embedding().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
        // The zero-copy recommender path works off both sources.
        let rm = mapped.recommender().unwrap();
        let ro = owned.recommender().unwrap();
        let top_m = rm.recommend(&[1, 3], 4).unwrap();
        let top_o = ro.recommend(&[1, 3], 4).unwrap();
        let top_ref = rec.recommend(&[1, 3], 4).unwrap();
        assert_eq!(top_m, top_ref);
        assert_eq!(top_o, top_ref);
    }

    #[test]
    fn full_params_round_trip() {
        let p = params(7, 4);
        let image = frame::encode(&param_sections(&p, KIND_EMBEDDING), 7, 0);
        let snap = PlpsSnapshot::from_bytes(image).unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.params().unwrap(), p);
        // A θ image is not a deployment bundle.
        assert!(matches!(
            snap.recommender().unwrap_err(),
            ModelError::Snapshot(SnapshotError::Inconsistent { .. })
        ));
    }

    #[test]
    fn damage_is_rejected_identically_mapped_and_owned() {
        let p = params(6, 3);
        let path = tmp("damage.plps");
        write_deployable(&path, Recommender::new(&p).embedding(), 3).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let kinds = |bytes: &[u8], name: &str| {
            let path = tmp(name);
            std::fs::write(&path, bytes).unwrap();
            let open = [
                PlpsSnapshot::open_mapped(&path),
                PlpsSnapshot::open_owned(&path),
                PlpsSnapshot::open(&path),
            ];
            open.map(|r| match r.and_then(|s| s.validate()) {
                Err(ModelError::Snapshot(e)) => e.kind(),
                other => panic!("{name}: expected a snapshot error, got {other:?}"),
            })
        };
        let mut raw = pristine.clone();
        raw[6] ^= 0xFF;
        assert_eq!(kinds(&raw, "crc.plps"), ["bad_crc"; 3]);
        assert_eq!(
            kinds(&pristine[..pristine.len() - 8], "truncbody.plps"),
            ["truncated_body"; 3]
        );
        // Opening stays O(header): body damage surfaces at verification.
        let mut raw = pristine.clone();
        raw[pristine.len() - 5] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();
        let opened = PlpsSnapshot::open(&path).unwrap();
        assert!(matches!(
            opened.verify_bodies().unwrap_err(),
            ModelError::Snapshot(SnapshotError::BadCrc { .. })
        ));
        // A corrupt header must not be retried on the owned path as if the
        // mmap itself had failed; a missing file is an I/O error.
        assert_eq!(kinds(&[0u8; 8192], "zeros.plps"), ["bad_magic"; 3]);
        assert!(matches!(
            PlpsSnapshot::open(&tmp("missing.plps")).unwrap_err(),
            ModelError::Io { .. }
        ));
    }
}
