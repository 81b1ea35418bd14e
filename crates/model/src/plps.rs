//! PLPS v2: the page-aligned, mmap-able model snapshot layout.
//!
//! The PLPM codec ([`crate::snapshot`]) streams every f64
//! through a cursor into owned buffers — fine for training checkpoints, but
//! a serving fleet wants many processes sharing one read-only model
//! generation and swapping to the next without a restart. PLPS lays tensors
//! out so a mapped file *is* the in-memory representation:
//!
//! ```text
//! offset   size  field
//! 0        4     magic  "PLPS"
//! 4        2     version (little-endian u16) = 1
//! 6        2     flags   (bit 0: rows are unit-normalised)
//! 8        8     generation id (u64)
//! 16       4     tensor count (u32, ≤ 127)
//! 20       32×n  tensor table: kind u16 · pad u16 · rows u64 · cols u64
//!                              · byte offset u64 · body CRC-32 u32
//! 4092     4     header CRC-32 over bytes [0, 4092)
//! 4096     …     tensor bodies: contiguous little-endian f64, each body
//!                starting at a 4096-byte-aligned offset
//! ```
//!
//! Alignment/endianness contract: bodies are little-endian f64 at offsets
//! that are multiples of 4096, and `mmap` returns page-aligned bases, so on
//! a little-endian 64-bit host a [`plp_mmap::MappedSlice`] over a body is
//! directly usable as `&[f64]` — zero decode, zero copy, page cache shared
//! across processes. On big-endian or non-Unix hosts [`PlpsSnapshot::open`]
//! falls back to an owned read + bulk decode that is asserted bit-identical
//! by the test suite.
//!
//! Integrity is two-level so that *opening* stays O(header): the header CRC
//! is always verified, while per-tensor body CRCs are verified by
//! [`PlpsSnapshot::verify_bodies`] — the generation watcher runs it (plus a
//! finiteness sweep) on every candidate before swapping traffic onto it,
//! and publishers write files atomically (tmp + `rename(2)`), so a file
//! named by the `CURRENT` pointer is never truncated or rewritten in place.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use plp_data::frame::{checked_frame_len, crc32};
use plp_linalg::Matrix;
use plp_mmap::{MappedSlice, Mmap};

use crate::error::{ModelError, SnapshotError};
use crate::params::ModelParams;
use crate::recommender::Recommender;

/// Magic bytes opening every PLPS file.
pub const MAGIC: &[u8; 4] = b"PLPS";
/// Current layout version.
pub const VERSION: u16 = 1;
/// Bodies (and the header block) start at multiples of this.
pub const PAGE_ALIGN: usize = 4096;
/// Flag bit 0: every tensor row is unit-ℓ2-normalised (a deployment bundle
/// written from a [`Recommender`]); the zero-copy serve path requires it.
pub const FLAG_NORMALIZED: u16 = 1;

/// Tensor kind: the embedding matrix `W`.
pub const KIND_EMBEDDING: u16 = 0;
/// Tensor kind: the context matrix `W'`.
pub const KIND_CONTEXT: u16 = 1;
/// Tensor kind: the output bias vector `B'` (stored as an `L × 1` body).
pub const KIND_BIAS: u16 = 2;

const HEADER_CRC_OFFSET: usize = PAGE_ALIGN - 4;
const TABLE_OFFSET: usize = 20;
const ENTRY_BYTES: usize = 32;
/// Upper bound on tensors per file, fixed by the header block size.
pub const MAX_TENSORS: usize = (HEADER_CRC_OFFSET - TABLE_OFFSET) / ENTRY_BYTES;

/// One parsed tensor-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    kind: u16,
    rows: usize,
    cols: usize,
    offset: usize,
    crc: u32,
}

impl Entry {
    fn elems(&self) -> usize {
        self.rows * self.cols
    }

    fn byte_len(&self) -> usize {
        self.elems() * 8
    }
}

fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(bytes[at..at + 2].try_into().expect("2-byte slice"))
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// Parses and validates the fixed header block (magic, version, header CRC,
/// table bounds and alignment) against the total file length. Body CRCs are
/// *not* checked here — see [`PlpsSnapshot::verify_bodies`].
fn parse_header(bytes: &[u8]) -> Result<(u64, u16, Vec<Entry>), SnapshotError> {
    if bytes.len() < PAGE_ALIGN {
        return Err(SnapshotError::TruncatedHeader {
            what: "PLPS header block",
        });
    }
    if &bytes[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = read_u16(bytes, 4);
    if version != VERSION {
        return Err(SnapshotError::BadVersion {
            got: u32::from(version),
        });
    }
    let stored_crc = read_u32(bytes, HEADER_CRC_OFFSET);
    if crc32(&bytes[..HEADER_CRC_OFFSET]) != stored_crc {
        return Err(SnapshotError::BadCrc {
            what: "PLPS header",
        });
    }
    let flags = read_u16(bytes, 6);
    let generation = read_u64(bytes, 8);
    let count = read_u32(bytes, 16) as usize;
    if count > MAX_TENSORS {
        return Err(SnapshotError::Inconsistent {
            what: "tensor count over table capacity",
        });
    }
    let mut entries = Vec::with_capacity(count);
    for i in 0..count {
        let at = TABLE_OFFSET + i * ENTRY_BYTES;
        let kind = read_u16(bytes, at);
        let rows = read_u64(bytes, at + 4);
        let cols = read_u64(bytes, at + 12);
        let offset = read_u64(bytes, at + 20);
        let crc = read_u32(bytes, at + 28);
        let rows = checked_frame_len(rows).ok_or(SnapshotError::OverCeiling {
            what: "tensor rows",
        })?;
        let cols = checked_frame_len(cols).ok_or(SnapshotError::OverCeiling {
            what: "tensor cols",
        })?;
        let byte_len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| checked_frame_len(n as u64))
            .ok_or(SnapshotError::OverCeiling {
                what: "tensor body",
            })?;
        let offset = usize::try_from(offset).map_err(|_| SnapshotError::OverCeiling {
            what: "tensor offset",
        })?;
        if offset < PAGE_ALIGN || offset % PAGE_ALIGN != 0 {
            return Err(SnapshotError::Inconsistent {
                what: "tensor body offset not page-aligned",
            });
        }
        let end = offset
            .checked_add(byte_len)
            .ok_or(SnapshotError::OverCeiling { what: "tensor end" })?;
        if end > bytes.len() {
            return Err(SnapshotError::TruncatedBody {
                what: "tensor body past end of file",
            });
        }
        entries.push(Entry {
            kind,
            rows,
            cols,
            offset,
            crc,
        });
    }
    Ok((generation, flags, entries))
}

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

/// An opened PLPS snapshot: validated header plus the raw bytes, either
/// memory-mapped (zero-copy) or owned (fallback / big-endian hosts).
#[derive(Debug, Clone)]
pub struct PlpsSnapshot {
    generation: u64,
    flags: u16,
    entries: Vec<Entry>,
    source: Source,
}

impl PlpsSnapshot {
    /// Opens a snapshot by mmapping it — tensor accessors then return
    /// matrices whose storage *is* the mapped file.
    ///
    /// # Errors
    /// [`ModelError::Io`] if the file cannot be opened or mapped (including
    /// non-Unix hosts), [`ModelError::Snapshot`] on a malformed header.
    pub fn open_mapped(path: &Path) -> Result<Self, ModelError> {
        let map = Mmap::map(path).map_err(|e| ModelError::Io {
            message: format!("mmap {}: {e}", path.display()),
        })?;
        let (generation, flags, entries) = parse_header(map.as_bytes())?;
        Ok(PlpsSnapshot {
            generation,
            flags,
            entries,
            source: Source::Mapped(Arc::new(map)),
        })
    }

    /// Opens a snapshot by reading it into an owned buffer (the fallback
    /// path; tensor accessors bulk-decode on access).
    ///
    /// # Errors
    /// [`ModelError::Io`] on read failure, [`ModelError::Snapshot`] on a
    /// malformed header.
    pub fn open_owned(path: &Path) -> Result<Self, ModelError> {
        let bytes = fs::read(path).map_err(|e| ModelError::Io {
            message: format!("read {}: {e}", path.display()),
        })?;
        let (generation, flags, entries) = parse_header(&bytes)?;
        Ok(PlpsSnapshot {
            generation,
            flags,
            entries,
            source: Source::Owned(Arc::new(bytes)),
        })
    }

    /// Opens a snapshot zero-copy where possible: tries [`Self::open_mapped`]
    /// and falls back to [`Self::open_owned`] when mapping is unavailable.
    /// A malformed file is rejected identically on both paths (same header
    /// validation), so the fallback never masks corruption.
    ///
    /// # Errors
    /// As [`Self::open_owned`].
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
        self.generation
    }

    /// Header flags ([`FLAG_NORMALIZED`] etc.).
    pub fn flags(&self) -> u16 {
        self.flags
    }

    /// `true` when backed by a live memory mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.source, Source::Mapped(_))
    }

    /// Number of tensors in the file.
    pub fn tensor_count(&self) -> usize {
        self.entries.len()
    }

    /// Verifies every tensor body against its stored CRC-32. Opening only
    /// checks the header (keeping mapped opens O(header)); the generation
    /// watcher runs this on every candidate before swapping onto it.
    ///
    /// # Errors
    /// [`SnapshotError::BadCrc`] naming the tensor body that failed.
    pub fn verify_bodies(&self) -> Result<(), ModelError> {
        let bytes = self.source.bytes();
        for e in &self.entries {
            let body = &bytes[e.offset..e.offset + e.byte_len()];
            if crc32(body) != e.crc {
                let what = match e.kind {
                    KIND_EMBEDDING => "embedding body",
                    KIND_CONTEXT => "context body",
                    KIND_BIAS => "bias body",
                    _ => "tensor body",
                };
                return Err(SnapshotError::BadCrc { what }.into());
            }
        }
        Ok(())
    }

    /// Full candidate validation: body CRCs plus a finiteness sweep over
    /// every tensor. This is what stands between an untrusted `gen-*.plps`
    /// file and live traffic.
    ///
    /// # Errors
    /// [`ModelError::Snapshot`] on CRC mismatch, [`ModelError::NonFinite`]
    /// if any element is NaN/∞.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.verify_bodies()?;
        for e in &self.entries {
            let m = self.matrix_at(e)?;
            if !m.all_finite() {
                return Err(ModelError::NonFinite { at: "PLPS tensor" });
            }
        }
        Ok(())
    }

    fn entry(&self, kind: u16) -> Result<&Entry, ModelError> {
        self.entries.iter().find(|e| e.kind == kind).ok_or_else(|| {
            SnapshotError::Inconsistent {
                what: "requested tensor kind absent",
            }
            .into()
        })
    }

    /// Materialises the tensor at `e` — as a mapped view when the source is
    /// mapped (zero-copy), otherwise by bulk-decoding the owned bytes.
    fn matrix_at(&self, e: &Entry) -> Result<Matrix, ModelError> {
        match &self.source {
            Source::Mapped(map) => {
                match MappedSlice::new(Arc::clone(map), e.offset, e.elems()) {
                    Ok(view) => Matrix::from_mapped(e.rows, e.cols, view).map_err(ModelError::from),
                    // Big-endian host or (impossibly, given parse_header)
                    // out-of-range view: decode the mapped bytes as owned.
                    Err(_) => decode_body(self.source.bytes(), e),
                }
            }
            Source::Owned(bytes) => decode_body(bytes, e),
        }
    }

    /// The tensor of the given kind as a matrix.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] when the kind is absent.
    pub fn matrix(&self, kind: u16) -> Result<Matrix, ModelError> {
        self.matrix_at(self.entry(kind)?)
    }

    /// The embedding tensor.
    ///
    /// # Errors
    /// As [`Self::matrix`].
    pub fn embedding(&self) -> Result<Matrix, ModelError> {
        self.matrix(KIND_EMBEDDING)
    }

    /// The bias vector (`L × 1` tensor).
    ///
    /// # Errors
    /// As [`Self::matrix`].
    pub fn bias(&self) -> Result<Vec<f64>, ModelError> {
        let e = self.entry(KIND_BIAS)?;
        if e.cols != 1 {
            return Err(SnapshotError::Inconsistent {
                what: "bias tensor not a column vector",
            }
            .into());
        }
        Ok(self.matrix_at(e)?.as_slice().to_vec())
    }

    /// Reassembles full model parameters from a [`write_params`] snapshot.
    ///
    /// # Errors
    /// Missing tensors or mismatched shapes yield
    /// [`SnapshotError::Inconsistent`].
    pub fn params(&self) -> Result<ModelParams, ModelError> {
        let embedding = self.embedding()?;
        let context = self.matrix(KIND_CONTEXT)?;
        let bias = self.bias()?;
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

    /// Builds the serving recommender straight over the stored embedding —
    /// zero-copy when mapped. Requires the [`FLAG_NORMALIZED`] flag (the
    /// rows were normalised by the publisher); validation of the bytes
    /// themselves is the caller's job via [`Self::validate`], which the
    /// generation watcher performs before any candidate reaches traffic.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] when the bundle is not flagged
    /// normalised.
    pub fn recommender(&self) -> Result<Recommender, ModelError> {
        if self.flags & FLAG_NORMALIZED == 0 {
            return Err(SnapshotError::Inconsistent {
                what: "bundle not flagged normalised",
            }
            .into());
        }
        Ok(Recommender::from_prenormalized(self.embedding()?))
    }
}

/// Bulk-decodes a tensor body from raw bytes into an owned matrix.
fn decode_body(bytes: &[u8], e: &Entry) -> Result<Matrix, ModelError> {
    let body = &bytes[e.offset..e.offset + e.byte_len()];
    let mut v = Vec::with_capacity(e.elems());
    v.extend(
        body.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
    );
    Matrix::from_vec(e.rows, e.cols, v).map_err(ModelError::from)
}

/// Encodes tensors into a complete PLPS byte image.
fn encode(tensors: &[(u16, usize, usize, &[f64])], generation: u64, flags: u16) -> Vec<u8> {
    assert!(tensors.len() <= MAX_TENSORS, "tensor table overflow");
    let mut total = PAGE_ALIGN;
    let mut offsets = Vec::with_capacity(tensors.len());
    for &(_, rows, cols, data) in tensors {
        debug_assert_eq!(rows * cols, data.len());
        offsets.push(total);
        // Next body starts at the next page boundary after this one.
        let body = data.len() * 8;
        total += body.div_ceil(PAGE_ALIGN) * PAGE_ALIGN;
    }
    // The file ends right after the last body — no tail padding.
    let file_len = match tensors.last() {
        Some(&(_, _, _, data)) => offsets[tensors.len() - 1] + data.len() * 8,
        None => PAGE_ALIGN,
    };
    let mut out = vec![0u8; file_len.max(PAGE_ALIGN)];
    out[0..4].copy_from_slice(MAGIC);
    out[4..6].copy_from_slice(&VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&flags.to_le_bytes());
    out[8..16].copy_from_slice(&generation.to_le_bytes());
    out[16..20].copy_from_slice(&(tensors.len() as u32).to_le_bytes());
    for (i, &(kind, rows, cols, data)) in tensors.iter().enumerate() {
        let offset = offsets[i];
        let body_len = data.len() * 8;
        {
            let body = &mut out[offset..offset + body_len];
            for (dst, x) in body.chunks_exact_mut(8).zip(data) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
        }
        let crc = crc32(&out[offset..offset + body_len]);
        let at = TABLE_OFFSET + i * ENTRY_BYTES;
        out[at..at + 2].copy_from_slice(&kind.to_le_bytes());
        out[at + 4..at + 12].copy_from_slice(&(rows as u64).to_le_bytes());
        out[at + 12..at + 20].copy_from_slice(&(cols as u64).to_le_bytes());
        out[at + 20..at + 28].copy_from_slice(&(offset as u64).to_le_bytes());
        out[at + 28..at + 32].copy_from_slice(&crc.to_le_bytes());
    }
    let header_crc = crc32(&out[..HEADER_CRC_OFFSET]);
    out[HEADER_CRC_OFFSET..PAGE_ALIGN].copy_from_slice(&header_crc.to_le_bytes());
    out
}

/// Atomically writes `bytes` to `path`: tmp file in the same directory,
/// fsync, rename over the target, best-effort directory fsync. Readers
/// therefore only ever observe a complete old file or a complete new one.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ModelError> {
    let io_err = |e: std::io::Error| ModelError::Io {
        message: format!("{}: {e}", path.display()),
    };
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(bytes).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Writes a serving deployment bundle: the (already unit-normalised)
/// embedding only, flagged [`FLAG_NORMALIZED`]. Pass
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
    let image = encode(
        &[(
            KIND_EMBEDDING,
            embedding.rows(),
            embedding.cols(),
            embedding.as_slice(),
        )],
        generation,
        FLAG_NORMALIZED,
    );
    write_atomic(path, &image)
}

/// Writes a full-parameter PLPS snapshot (server-side use; not flagged
/// normalised).
///
/// # Errors
/// [`ModelError::Io`] on filesystem failures.
pub fn write_params(path: &Path, params: &ModelParams, generation: u64) -> Result<(), ModelError> {
    let image = encode(
        &[
            (
                KIND_EMBEDDING,
                params.embedding.rows(),
                params.embedding.cols(),
                params.embedding.as_slice(),
            ),
            (
                KIND_CONTEXT,
                params.context.rows(),
                params.context.cols(),
                params.context.as_slice(),
            ),
            (KIND_BIAS, params.bias.len(), 1, params.bias.as_slice()),
        ],
        generation,
        0,
    );
    write_atomic(path, &image)
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
            assert_eq!(s.flags() & FLAG_NORMALIZED, FLAG_NORMALIZED);
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
        let path = tmp("full.plps");
        write_params(&path, &p, 7).unwrap();
        let snap = PlpsSnapshot::open(&path).unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.tensor_count(), 3);
        let back = snap.params().unwrap();
        assert_eq!(back, p);
        // A full snapshot is not a deployment bundle.
        assert!(matches!(
            snap.recommender().unwrap_err(),
            ModelError::Snapshot(SnapshotError::Inconsistent { .. })
        ));
    }

    #[test]
    fn bodies_are_page_aligned() {
        let p = params(13, 3);
        let path = tmp("aligned.plps");
        write_params(&path, &p, 1).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let snap = PlpsSnapshot::open_owned(&path).unwrap();
        for e in &snap.entries {
            assert_eq!(e.offset % PAGE_ALIGN, 0);
            assert!(e.offset >= PAGE_ALIGN);
            assert!(e.offset + e.byte_len() <= bytes.len());
        }
        // File ends exactly at the last body's end.
        let last = snap.entries.iter().map(|e| e.offset + e.byte_len()).max();
        assert_eq!(Some(bytes.len()), last);
    }

    #[test]
    fn header_damage_is_rejected_with_typed_errors() {
        let p = params(6, 3);
        let path = tmp("damage.plps");
        write_deployable(&path, Recommender::new(&p).embedding(), 3).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let reopen = |bytes: &[u8], name: &str| {
            let path = tmp(name);
            std::fs::write(&path, bytes).unwrap();
            (
                PlpsSnapshot::open_mapped(&path),
                PlpsSnapshot::open_owned(&path),
            )
        };

        // Bad magic.
        let mut raw = pristine.clone();
        raw[0] = b'X';
        let (m, o) = reopen(&raw, "magic.plps");
        for r in [m, o] {
            assert!(matches!(
                r.unwrap_err(),
                ModelError::Snapshot(SnapshotError::BadMagic)
            ));
        }

        // Bad version.
        let mut raw = pristine.clone();
        raw[4] = 99;
        let (m, o) = reopen(&raw, "version.plps");
        for r in [m, o] {
            assert!(matches!(
                r.unwrap_err(),
                ModelError::Snapshot(SnapshotError::BadVersion { got: 99 })
            ));
        }

        // Flipped flags byte breaks the header CRC.
        let mut raw = pristine.clone();
        raw[6] ^= 0xFF;
        let (m, o) = reopen(&raw, "crc.plps");
        for r in [m, o] {
            assert!(matches!(
                r.unwrap_err(),
                ModelError::Snapshot(SnapshotError::BadCrc { .. })
            ));
        }

        // Truncated header block.
        let (m, o) = reopen(&pristine[..100], "short.plps");
        for r in [m, o] {
            assert!(matches!(
                r.unwrap_err(),
                ModelError::Snapshot(SnapshotError::TruncatedHeader { .. })
            ));
        }

        // Truncated body: header parses, the table points past EOF.
        let (m, o) = reopen(&pristine[..PAGE_ALIGN + 8], "truncbody.plps");
        for r in [m, o] {
            assert!(matches!(
                r.unwrap_err(),
                ModelError::Snapshot(SnapshotError::TruncatedBody { .. })
            ));
        }
    }

    #[test]
    fn body_corruption_caught_by_verify_not_open() {
        let p = params(8, 4);
        let path = tmp("bodyflip.plps");
        write_deployable(&path, Recommender::new(&p).embedding(), 5).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        // Flip one bit inside the first body f64.
        let flip = PAGE_ALIGN + 3;
        raw[flip] ^= 0x10;
        let path2 = tmp("bodyflip2.plps");
        std::fs::write(&path2, &raw).unwrap();
        let snap = PlpsSnapshot::open(&path2).unwrap(); // header still fine
        let err = snap.verify_bodies().unwrap_err();
        assert!(matches!(
            err,
            ModelError::Snapshot(SnapshotError::BadCrc {
                what: "embedding body"
            })
        ));
        assert!(snap.validate().is_err());
    }

    #[test]
    fn nan_smuggled_with_fixed_crc_fails_validate() {
        let p = params(5, 3);
        let path = tmp("nan.plps");
        write_deployable(&path, Recommender::new(&p).embedding(), 6).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[PAGE_ALIGN..PAGE_ALIGN + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        // Re-stamp the body CRC so only the finiteness sweep can catch it.
        let body_len = raw.len() - PAGE_ALIGN;
        let crc = crc32(&raw[PAGE_ALIGN..PAGE_ALIGN + body_len]);
        raw[TABLE_OFFSET + 28..TABLE_OFFSET + 32].copy_from_slice(&crc.to_le_bytes());
        let header_crc = crc32(&raw[..HEADER_CRC_OFFSET]);
        raw[HEADER_CRC_OFFSET..PAGE_ALIGN].copy_from_slice(&header_crc.to_le_bytes());
        let path2 = tmp("nan2.plps");
        std::fs::write(&path2, &raw).unwrap();
        let snap = PlpsSnapshot::open(&path2).unwrap();
        snap.verify_bodies().unwrap();
        assert!(matches!(
            snap.validate().unwrap_err(),
            ModelError::NonFinite { .. }
        ));
    }

    #[test]
    fn open_falls_back_to_owned_only_for_io_failures() {
        // A corrupt header must NOT be retried on the owned path as if the
        // mmap itself had failed.
        let path = tmp("fallback.plps");
        std::fs::write(&path, vec![0u8; 2 * PAGE_ALIGN]).unwrap();
        assert!(matches!(
            PlpsSnapshot::open(&path).unwrap_err(),
            ModelError::Snapshot(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            PlpsSnapshot::open(&tmp("missing.plps")).unwrap_err(),
            ModelError::Io { .. }
        ));
    }
}

#[cfg(test)]
mod corruption_props {
    //! Property tests: arbitrary truncation or bit damage must always
    //! surface as a typed error (or, for payload bits under a re-stamped
    //! CRC, be caught by `validate`) — never a panic, never a silent
    //! acceptance of damaged tensor bytes.

    use super::*;
    use crate::recommender::Recommender;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bundle_bytes(vocab: usize, dim: usize, generation: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(vocab as u64 * 131 + dim as u64);
        let p = ModelParams::init(&mut rng, vocab, dim).unwrap();
        encode(
            &[(
                KIND_EMBEDDING,
                vocab,
                dim,
                Recommender::new(&p).embedding().as_slice(),
            )],
            generation,
            FLAG_NORMALIZED,
        )
    }

    fn open_both(bytes: &[u8], name: u64) -> Vec<Result<PlpsSnapshot, ModelError>> {
        let path =
            std::env::temp_dir().join(format!("plp_plps_prop_{}_{name}.plps", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        let out = vec![
            PlpsSnapshot::open_mapped(&path),
            PlpsSnapshot::open_owned(&path),
        ];
        std::fs::remove_file(&path).ok();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn truncation_never_panics_and_never_validates(
            vocab in 2usize..9,
            dim in 1usize..5,
            cut_frac in 0usize..1000,
        ) {
            let bytes = bundle_bytes(vocab, dim, 1);
            let cut = cut_frac * bytes.len() / 1000;
            prop_assert!(cut < bytes.len());
            for r in open_both(&bytes[..cut], cut as u64) {
                match r {
                    // A cut inside the final page can leave whole tensors
                    // intact only if it lands exactly at the body end —
                    // but then it's not a truncation of the body, and
                    // validate() may legitimately pass. Anything else must
                    // fail either open or validate.
                    Ok(snap) => {
                        let end = snap.entries.iter().map(|e| e.offset + e.byte_len()).max();
                        prop_assert_eq!(end, Some(cut));
                    }
                    Err(ModelError::Snapshot(_)) | Err(ModelError::Io { .. }) => {}
                    Err(other) => prop_assert!(false, "unexpected error {other:?}"),
                }
            }
        }

        #[test]
        fn header_bit_flips_are_rejected(
            vocab in 2usize..9,
            dim in 1usize..5,
            at in 0usize..PAGE_ALIGN,
            bit in 0usize..8,
        ) {
            let mut bytes = bundle_bytes(vocab, dim, 2);
            bytes[at] ^= 1 << bit;
            for r in open_both(&bytes, (at * 8 + bit) as u64) {
                prop_assert!(
                    matches!(r, Err(ModelError::Snapshot(_))),
                    "flipped header byte {at} must reject, got {r:?}"
                );
            }
        }

        #[test]
        fn body_bit_flips_fail_crc_verification(
            vocab in 2usize..9,
            dim in 1usize..5,
            at_frac in 0usize..1000,
            bit in 0usize..8,
        ) {
            let mut bytes = bundle_bytes(vocab, dim, 3);
            let body_len = bytes.len() - PAGE_ALIGN;
            let at = PAGE_ALIGN + at_frac * body_len / 1000;
            bytes[at] ^= 1 << bit;
            for r in open_both(&bytes, (at * 8 + bit) as u64) {
                // Header untouched: open succeeds, verification must not.
                let snap = r.unwrap();
                prop_assert!(matches!(
                    snap.verify_bodies(),
                    Err(ModelError::Snapshot(SnapshotError::BadCrc { .. }))
                ));
            }
        }
    }
}
