//! The artifact container and the shared frame discipline.
//!
//! Everything the workspace persists or ships as a blob — the serving
//! bundle, the one model file (`plp-model::plps`), the training
//! checkpoint (`plp-core::checkpoint`) and the dataset ([`crate::io`]) —
//! is one image layout, built by [`encode`] and read by [`parse`]:
//!
//! ```text
//! offset   size  field
//! 0        4     magic  "PLPS"
//! 4        2     version (little-endian u16) = 1
//! 6        2     flags   (meaning belongs to the artifact kind)
//! 8        8     generation id (u64)
//! 16       4     section count (u32, ≤ 127)
//! 20       32×n  section table: kind u16 · pad u16 · rows u64 · cols u64
//!                               · byte offset u64 · body CRC-32 u32
//! 4092     4     header CRC-32 over bytes [0, 4092)
//! 4096     …     section bodies: rows × cols little-endian 8-byte words
//!                (f64 or u64), each body starting at the next multiple
//!                of 4096 after the previous one; the image ends with the
//!                last body
//! ```
//!
//! Every byte is accounted for: the header block by its CRC, each body by
//! the CRC in its table entry, and the zero padding between bodies by
//! [`Header::verify`]. [`parse`] is O(header) — it never touches a body —
//! so a mapped bundle opens in microseconds; whoever is about to trust the
//! bodies runs [`Header::verify`] first.
//!
//! Two rules hold for every length read from untrusted bytes:
//!
//! 1. **No unbounded allocation from a length prefix.** A garbled length
//!    fails with an explicit oversize error *before* any allocation;
//!    [`MAX_FRAME_BYTES`] is the single shared ceiling.
//! 2. **Integrity before trust.** Bytes read back from storage are
//!    covered by a [`crc32`] checked before any field is decoded.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Hard ceiling on any single length-prefixed allocation (1 GiB).
///
/// Far above any legitimate payload this workspace produces (the largest
/// is a full-parameter checkpoint of a 10⁷-location model, ≈ 100 MB), yet
/// small enough that a corrupted length prefix fails fast with a typed
/// error instead of attempting an absurd allocation and aborting.
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// Checks a claimed payload length against [`MAX_FRAME_BYTES`].
///
/// Returns the length as `usize` when acceptable; `None` when the claim
/// exceeds the ceiling (or does not fit in `usize`). Callers convert
/// `None` into their own typed error naming the decoder.
fn checked_frame_len(claimed: u64) -> Option<usize> {
    let len = usize::try_from(claimed).ok()?;
    (len <= MAX_FRAME_BYTES).then_some(len)
}

/// CRC-32 (IEEE 802.3, reflected) over `data`.
///
/// The one CRC of the workspace: artifact headers and section bodies share
/// this exact polynomial.
///
/// Slice-by-8: eight bytes per step through eight 256-entry tables, where
/// `CRC_TABLES[k][b]` is the register after byte `b` and `k` zero bytes.
fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][usize::from(w[4])]
            ^ CRC_TABLES[2][usize::from(w[5])]
            ^ CRC_TABLES[1][usize::from(w[6])]
            ^ CRC_TABLES[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// FNV-1a 64 over `data`: the workspace's content digest (configuration
/// fingerprints, golden-byte pins), independent of the [`crc32`] the
/// formats themselves carry.
pub fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One step of the reflected CRC-32 register over the low bit.
const fn crc32_shift(crc: u32) -> u32 {
    if crc & 1 == 1 {
        (crc >> 1) ^ 0xEDB8_8320
    } else {
        crc >> 1
    }
}

const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = crc32_shift(crc);
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
};

const MAGIC: &[u8; 4] = b"PLPS";
const VERSION: u16 = 1;
/// The header block is this long and every body starts at a multiple of it.
const PAGE_ALIGN: usize = 4096;
const HEADER_CRC_OFFSET: usize = PAGE_ALIGN - 4;
const TABLE_OFFSET: usize = 20;
const ENTRY_BYTES: usize = 32;
const MAX_SECTIONS: usize = (HEADER_CRC_OFFSET - TABLE_OFFSET) / ENTRY_BYTES;

/// Magics of the three formats this container replaced, each with what to
/// do about a file that still opens with it.
const LEGACY: [(&str, &str); 3] = [
    ("PLPM", "pre-PLPS model file: retrain and save it again"),
    ("PLPC", "pre-PLPS checkpoint: restart the run from scratch"),
    ("PLPD", "pre-PLPS dataset: run `generate` again"),
];

/// Why an artifact image was refused. Each variant names a distinct
/// failure so callers (the generation watcher, the CLI, the auto-resuming
/// runner) can report *why* without parsing a message.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The magic bytes are not the container's.
    BadMagic,
    /// The bytes open with the magic of a retired format.
    LegacyFormat {
        /// The magic found.
        magic: &'static str,
        /// What the file was and how to replace it.
        remedy: &'static str,
    },
    /// The layout version is not supported by this build.
    BadVersion {
        /// The version the image claimed.
        got: u32,
    },
    /// The image ended inside the fixed-size header block.
    TruncatedHeader,
    /// The image ended inside a section body.
    TruncatedBody,
    /// A CRC-32 integrity check failed.
    BadCrc {
        /// Which checksummed region failed.
        what: &'static str,
    },
    /// A claimed section size exceeds [`MAX_FRAME_BYTES`] — rejected
    /// before any allocation.
    OverCeiling {
        /// Which field made the oversized claim.
        what: &'static str,
    },
    /// Checksums hold but the content contradicts itself: a section off
    /// the page-aligned sequence, non-zero padding, a missing or
    /// mis-shaped section, a ledger that disagrees with the step count,
    /// and the like.
    Inconsistent {
        /// Description of the inconsistency.
        what: &'static str,
    },
}

impl SnapshotError {
    /// Stable machine-readable tag, e.g. for the watcher's
    /// `serve_generation_rejected` events.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::BadMagic => "bad_magic",
            SnapshotError::LegacyFormat { .. } => "legacy_format",
            SnapshotError::BadVersion { .. } => "bad_version",
            SnapshotError::TruncatedHeader => "truncated_header",
            SnapshotError::TruncatedBody => "truncated_body",
            SnapshotError::BadCrc { .. } => "bad_crc",
            SnapshotError::OverCeiling { .. } => "over_ceiling",
            SnapshotError::Inconsistent { .. } => "inconsistent",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.kind())?;
        match self {
            SnapshotError::BadMagic => f.write_str("not a PLPS artifact"),
            SnapshotError::LegacyFormat { magic, remedy } => write!(f, "`{magic}` is a {remedy}"),
            SnapshotError::BadVersion { got } => write!(f, "unsupported PLPS version {got}"),
            SnapshotError::TruncatedHeader => f.write_str("image ends inside the header block"),
            SnapshotError::TruncatedBody => f.write_str("image ends inside a section body"),
            SnapshotError::BadCrc { what } => write!(f, "CRC mismatch over the {what}"),
            SnapshotError::OverCeiling { what } => {
                write!(f, "{what} claims more than the frame ceiling")
            }
            SnapshotError::Inconsistent { what } => f.write_str(what),
        }
    }
}

impl std::error::Error for SnapshotError {}

pub(crate) fn inconsistent(what: &'static str) -> SnapshotError {
    SnapshotError::Inconsistent { what }
}

/// A section body handed to [`encode`]: 8-byte words, borrowed as they
/// are so a 100 MB embedding is copied once, into the image.
#[derive(Debug, Clone, Copy)]
pub enum Words<'a> {
    /// Little-endian `f64` words (a tensor).
    F64(&'a [f64]),
    /// `f32` values, each written as the `f64` word it widens to exactly
    /// (a tensor kept in f32, stored without a second layout).
    F32(&'a [f32]),
    /// Little-endian `u64` words (ids, counters, bit patterns).
    U64(&'a [u64]),
}

impl Words<'_> {
    fn len(&self) -> usize {
        match self {
            Words::F64(w) => w.len(),
            Words::F32(w) => w.len(),
            Words::U64(w) => w.len(),
        }
    }

    fn write_le(&self, body: &mut [u8]) {
        let chunks = body.chunks_exact_mut(8);
        match self {
            Words::F64(w) => chunks
                .zip(*w)
                .for_each(|(c, x)| c.copy_from_slice(&x.to_le_bytes())),
            Words::F32(w) => chunks
                .zip(*w)
                .for_each(|(c, &x)| c.copy_from_slice(&f64::from(x).to_le_bytes())),
            Words::U64(w) => chunks
                .zip(*w)
                .for_each(|(c, x)| c.copy_from_slice(&x.to_le_bytes())),
        }
    }
}

/// Encodes `(kind, cols, words)` sections into a complete image; each
/// section has `words.len() / cols` rows. Kinds must be distinct.
///
/// # Panics
/// If there are more than 127 sections or a body is not a whole number of
/// rows — both are bugs in the calling encoder, not input conditions.
pub fn encode(sections: &[(u16, usize, Words<'_>)], generation: u64, flags: u16) -> Vec<u8> {
    assert!(sections.len() <= MAX_SECTIONS, "section table overflow");
    let mut offsets = Vec::with_capacity(sections.len());
    let (mut next, mut end) = (PAGE_ALIGN, PAGE_ALIGN);
    for (_, _, words) in sections {
        offsets.push(next);
        end = next + words.len() * 8;
        next = end.next_multiple_of(PAGE_ALIGN);
    }
    // The image ends right after the last body — no tail padding.
    let mut out = vec![0u8; end];
    out[0..4].copy_from_slice(MAGIC);
    out[4..6].copy_from_slice(&VERSION.to_le_bytes());
    out[6..8].copy_from_slice(&flags.to_le_bytes());
    out[8..16].copy_from_slice(&generation.to_le_bytes());
    out[16..20].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    for (i, ((kind, cols, words), &offset)) in sections.iter().zip(&offsets).enumerate() {
        let rows = words.len().checked_div(*cols).unwrap_or(0);
        assert_eq!(rows * cols, words.len(), "section body is not rows × cols");
        let body = offset..offset + words.len() * 8;
        words.write_le(&mut out[body.clone()]);
        let crc = crc32(&out[body]);
        let at = TABLE_OFFSET + i * ENTRY_BYTES;
        out[at..at + 2].copy_from_slice(&kind.to_le_bytes());
        out[at + 4..at + 12].copy_from_slice(&(rows as u64).to_le_bytes());
        out[at + 12..at + 20].copy_from_slice(&(*cols as u64).to_le_bytes());
        out[at + 20..at + 28].copy_from_slice(&(offset as u64).to_le_bytes());
        out[at + 28..at + 32].copy_from_slice(&crc.to_le_bytes());
    }
    let header_crc = crc32(&out[..HEADER_CRC_OFFSET]);
    out[HEADER_CRC_OFFSET..PAGE_ALIGN].copy_from_slice(&header_crc.to_le_bytes());
    out
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// What the section holds; the artifact kind assigns the numbers.
    pub kind: u16,
    /// Rows of the body.
    pub rows: usize,
    /// 8-byte words per row.
    pub cols: usize,
    /// Byte offset of the body in the image (a multiple of 4096).
    pub offset: usize,
    crc: u32,
}

impl Section {
    /// The section's body within `image`, the bytes its header was
    /// [`parse`]d from.
    pub fn body<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.offset..self.end()]
    }

    fn end(&self) -> usize {
        self.offset + self.rows * self.cols * 8
    }
}

/// The validated header block of an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// The generation id stamped by the writer.
    pub generation: u64,
    /// Header flags; their meaning belongs to the artifact kind.
    pub flags: u16,
    /// The section table, in body order.
    pub sections: Vec<Section>,
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

/// Parses and validates the header block of `image` — magic, version,
/// header CRC, and a section table whose bodies sit exactly where
/// [`encode`] puts them and end exactly where the image ends. O(header):
/// no body byte is read; see [`Header::verify`].
///
/// # Errors
/// A typed [`SnapshotError`] for every way the block can be wrong.
pub fn parse(image: &[u8]) -> Result<Header, SnapshotError> {
    let legacy = LEGACY.iter().find(|(m, _)| image.starts_with(m.as_bytes()));
    if let Some(&(magic, remedy)) = legacy {
        return Err(SnapshotError::LegacyFormat { magic, remedy });
    }
    if image.len() < PAGE_ALIGN {
        return Err(SnapshotError::TruncatedHeader);
    }
    if &image[0..4] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = read_u16(image, 4);
    if version != VERSION {
        return Err(SnapshotError::BadVersion {
            got: u32::from(version),
        });
    }
    if crc32(&image[..HEADER_CRC_OFFSET]) != read_u32(image, HEADER_CRC_OFFSET) {
        return Err(SnapshotError::BadCrc { what: "header" });
    }
    let count = read_u32(image, 16) as usize;
    if count > MAX_SECTIONS {
        return Err(inconsistent("section count over table capacity"));
    }
    let over = |what| SnapshotError::OverCeiling { what };
    let mut sections: Vec<Section> = Vec::with_capacity(count);
    let (mut next, mut end) = (PAGE_ALIGN, PAGE_ALIGN);
    for i in 0..count {
        let at = TABLE_OFFSET + i * ENTRY_BYTES;
        let kind = read_u16(image, at);
        let rows = checked_frame_len(read_u64(image, at + 4)).ok_or(over("section rows"))?;
        let cols = checked_frame_len(read_u64(image, at + 12)).ok_or(over("section cols"))?;
        let byte_len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(8))
            .and_then(|n| checked_frame_len(n as u64))
            .ok_or(over("section body"))?;
        if sections.iter().any(|s| s.kind == kind) {
            return Err(inconsistent("duplicate section kind"));
        }
        if read_u64(image, at + 20) != next as u64 {
            return Err(inconsistent("section body off the page-aligned sequence"));
        }
        end = next.checked_add(byte_len).ok_or(over("section end"))?;
        if end > image.len() {
            return Err(SnapshotError::TruncatedBody);
        }
        sections.push(Section {
            kind,
            rows,
            cols,
            offset: next,
            crc: read_u32(image, at + 28),
        });
        next = end
            .checked_next_multiple_of(PAGE_ALIGN)
            .ok_or(over("section end"))?;
    }
    if image.len() != end {
        return Err(inconsistent("bytes after the last section"));
    }
    Ok(Header {
        generation: read_u64(image, 8),
        flags: read_u16(image, 6),
        sections,
    })
}

impl Header {
    /// Checks every body of `image` (the bytes this header was parsed
    /// from) against its CRC-32 and the padding between bodies for zeros —
    /// with the header CRC, that covers every byte of the image.
    ///
    /// # Errors
    /// [`SnapshotError::BadCrc`] or [`SnapshotError::Inconsistent`].
    pub fn verify(&self, image: &[u8]) -> Result<(), SnapshotError> {
        let mut prev_end = PAGE_ALIGN;
        for s in &self.sections {
            if image[prev_end..s.offset].iter().any(|&b| b != 0) {
                return Err(inconsistent("non-zero padding between sections"));
            }
            if crc32(s.body(image)) != s.crc {
                return Err(SnapshotError::BadCrc {
                    what: "section body",
                });
            }
            prev_end = s.end();
        }
        Ok(())
    }

    /// The section of the given kind.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] when the image has none — it is
    /// some other kind of artifact.
    pub fn section(&self, kind: u16) -> Result<&Section, SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.kind == kind)
            .ok_or(inconsistent(
                "a section this artifact kind requires is absent",
            ))
    }

    /// The body of section `kind` as `u64` words, `cols` to a row.
    ///
    /// # Errors
    /// [`SnapshotError::Inconsistent`] when the section is absent or its
    /// rows are not `cols` wide.
    pub fn words(&self, image: &[u8], kind: u16, cols: usize) -> Result<Vec<u64>, SnapshotError> {
        let s = self.section(kind)?;
        if s.cols != cols {
            return Err(inconsistent("section row width"));
        }
        let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        Ok(s.body(image).chunks_exact(8).map(word).collect())
    }
}

/// Atomically replaces `path` with `bytes`: write `<path>.tmp` beside it,
/// fsync, rename over the target, best-effort directory fsync. A reader —
/// or a crash — sees the complete old file or the complete new one, never
/// a torn one. The only file writer of the artifact layer.
///
/// # Errors
/// The failing filesystem call's error, prefixed with `path`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp).map_err(named)?;
        f.write_all(bytes).map_err(named)?;
        f.sync_all().map_err(named)?;
    }
    fs::rename(&tmp, path).map_err(named)?;
    // Persisting the rename itself needs a directory fsync; not every
    // platform can open a directory, so this part is best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The definition: one register shift per bit, no tables.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = crc32_shift(crc);
            }
        }
        !crc
    }

    #[test]
    fn frame_len_ceiling_is_enforced() {
        assert_eq!(checked_frame_len(0), Some(0));
        assert_eq!(checked_frame_len(1024), Some(1024));
        assert_eq!(
            checked_frame_len(MAX_FRAME_BYTES as u64),
            Some(MAX_FRAME_BYTES)
        );
        assert_eq!(checked_frame_len(MAX_FRAME_BYTES as u64 + 1), None);
        assert_eq!(checked_frame_len(u64::MAX), None);
    }

    /// A tensor over a page long, a short word section, an empty one and a
    /// tail: padding after the first three bodies.
    fn image(seed: u64) -> Vec<u8> {
        let tensor: Vec<f64> = (0..700).map(|i| (i + seed) as f64 * 0.25 - 9.0).collect();
        let words: Vec<u64> = (0..6).map(|i| seed.rotate_left(i) ^ u64::from(i)).collect();
        encode(
            &[
                (0, 7, Words::F64(&tensor)),
                (16, 3, Words::U64(&words)),
                (17, 2, Words::U64(&[])),
                (40, 1, Words::U64(&[seed])),
            ],
            seed,
            1,
        )
    }

    fn open(image: &[u8]) -> Result<Header, SnapshotError> {
        let header = parse(image)?;
        header.verify(image)?;
        Ok(header)
    }

    /// Re-stamps the header CRC after `tamper`, so only the check behind
    /// it can refuse the image.
    fn resealed(seed: u64, tamper: impl FnOnce(&mut Vec<u8>)) -> Result<Header, SnapshotError> {
        let mut raw = image(seed);
        tamper(&mut raw);
        let crc = crc32(&raw[..HEADER_CRC_OFFSET]);
        raw[HEADER_CRC_OFFSET..PAGE_ALIGN].copy_from_slice(&crc.to_le_bytes());
        open(&raw)
    }

    #[test]
    fn layout_is_page_aligned_and_round_trips_every_word_type() {
        let raw = image(5);
        let header = open(&raw).unwrap();
        assert_eq!((header.generation, header.flags), (5, 1));
        let offsets: Vec<usize> = header.sections.iter().map(|s| s.offset).collect();
        assert_eq!(offsets, [4096, 12288, 16384, 16384]);
        assert_eq!(raw.len(), 16384 + 8, "the image ends with the last body");
        let shape = |kind| header.section(kind).map(|s| (s.rows, s.cols));
        assert_eq!(shape(0), Ok((100, 7)));
        assert_eq!(shape(17), Ok((0, 2)));
        assert_eq!(header.words(&raw, 40, 1), Ok(vec![5]));
        assert_eq!(header.words(&raw, 16, 3).unwrap().len(), 6);
        // f64 words are their bit patterns: one image either way.
        let floats = [0.5, -0.0, f64::MAX];
        let bits = floats.map(f64::to_bits);
        assert_eq!(
            encode(&[(9, 3, Words::F64(&floats))], 0, 0),
            encode(&[(9, 3, Words::U64(&bits))], 0, 0)
        );
        // f32 values are written as the f64 words they widen to.
        let narrow = [0.5f32, -0.0, f32::MAX];
        let wide = narrow.map(f64::from);
        assert_eq!(
            encode(&[(9, 3, Words::F32(&narrow))], 0, 0),
            encode(&[(9, 3, Words::F64(&wide))], 0, 0)
        );
        assert_eq!(encode(&[], 3, 0).len(), PAGE_ALIGN);
        assert!(open(&encode(&[], 3, 0)).unwrap().sections.is_empty());
    }

    #[test]
    fn every_refusal_is_typed_and_tagged() {
        let raw = image(2);
        let kind = |bytes: &[u8]| open(bytes).unwrap_err().kind();
        let patched = |at: usize, byte: u8| {
            let mut raw = raw.clone();
            raw[at] = byte;
            raw
        };
        assert_eq!(kind(&patched(0, b'X')), "bad_magic");
        assert_eq!(kind(&patched(4, 99)), "bad_version");
        assert_eq!(kind(&patched(6, 0xFF)), "bad_crc");
        assert_eq!(kind(&patched(3000, 1)), "bad_crc", "unused header bytes");
        assert_eq!(kind(&patched(4100, 0xAA)), "bad_crc");
        assert_eq!(kind(&raw[..100]), "truncated_header");
        assert_eq!(kind(&raw[..PAGE_ALIGN + 8]), "truncated_body");
        assert_eq!(kind(&[&raw[..], &[0u8][..]].concat()), "inconsistent");
        let padding = 4096 + 700 * 8 + 1;
        assert_eq!(
            open(&patched(padding, 1)),
            Err(inconsistent("non-zero padding between sections"))
        );
        let header = open(&raw).unwrap();
        for (kind, cols) in [(1, 7), (0, 3)] {
            let err = header.words(&raw, kind, cols).unwrap_err();
            assert_eq!(err.kind(), "inconsistent", "{err}");
        }
        let err = SnapshotError::BadCrc { what: "header" };
        assert!(err.to_string().starts_with("bad_crc: "), "{err}");
    }

    #[test]
    fn resealed_table_damage_is_refused_before_any_allocation() {
        let rows_of = |i: usize| TABLE_OFFSET + i * ENTRY_BYTES + 4;
        // ~2^62 words: survives usize conversion, so only the ceiling
        // stands between the claim and a monster allocation.
        for claim in [u64::MAX >> 8, 1 << 40, (MAX_FRAME_BYTES / 8 / 7) as u64 + 1] {
            let err = resealed(1, |raw| {
                raw[rows_of(0)..rows_of(0) + 8].copy_from_slice(&claim.to_le_bytes());
            });
            assert_eq!(err.unwrap_err().kind(), "over_ceiling", "rows = {claim}");
        }
        let duplicate = resealed(1, |raw| raw[TABLE_OFFSET + ENTRY_BYTES] = 0);
        assert_eq!(duplicate, Err(inconsistent("duplicate section kind")));
        let moved = resealed(1, |raw| raw[rows_of(1) + 16 + 1] += 0x10);
        assert_eq!(
            moved,
            Err(inconsistent("section body off the page-aligned sequence"))
        );
        let too_many = resealed(1, |raw| raw[16] = 128);
        assert_eq!(too_many.unwrap_err().kind(), "inconsistent");
        // A row count the file cannot hold reads as truncation.
        let short = resealed(1, |raw| raw[rows_of(3)] = 2);
        assert_eq!(short.unwrap_err().kind(), "truncated_body");
    }

    #[test]
    fn atomic_writes_replace_whole_files_and_leave_no_temp() {
        let dir = std::env::temp_dir().join(format!("plp_frame_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (model, data) = (dir.join("a.plps"), dir.join("a.bin"));
        // The temp name appends, so siblings that differ only in their
        // extension never share one.
        fs::write(dir.join("a.tmp"), b"bystander").unwrap();
        write_atomic(&model, b"first").unwrap();
        write_atomic(&data, b"other").unwrap();
        write_atomic(&model, b"second").unwrap();
        assert_eq!(fs::read(&model).unwrap(), b"second");
        assert_eq!(fs::read(&data).unwrap(), b"other");
        assert_eq!(fs::read(dir.join("a.tmp")).unwrap(), b"bystander");
        assert!(
            !dir.join("a.plps.tmp").exists() && !dir.join("a.bin.tmp").exists(),
            "temp file must not linger"
        );
        let err = write_atomic(&dir.join("no/such/dir/x"), b"").unwrap_err();
        assert!(err.to_string().contains("no/such/dir/x"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn crc32_tables_match_the_bitwise_definition(
            data in vec(0u32..256u32, 8usize..4104),
        ) {
            // Every start alignment 0..8 of every length 0..4096: the word
            // loop, its tail, and each split between them.
            let bytes: Vec<u8> = data.iter().map(|&x| x as u8).collect();
            for start in 0..8 {
                let tail = &bytes[start..];
                prop_assert_eq!(crc32(tail), crc32_bitwise(tail));
            }
            let short = &bytes[..bytes.len() % 17];
            prop_assert_eq!(crc32(short), crc32_bitwise(short));
        }

        #[test]
        fn random_garbage_is_rejected(data in vec(0u32..256u32, 0usize..6000)) {
            let bytes: Vec<u8> = data.iter().map(|&x| x as u8).collect();
            prop_assert!(open(&bytes).is_err());
        }
    }
}
