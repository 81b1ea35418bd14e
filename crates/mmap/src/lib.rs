//! Read-only memory-mapped files for zero-copy model snapshot loading.
//!
//! This crate is deliberately tiny and is the **only** crate in the
//! workspace that contains `unsafe` code (everything else forbids it at the
//! workspace level). It exposes two types for mapping:
//!
//! - [`Mmap`]: a read-only, private mapping of a whole file, created through
//!   a two-symbol `extern "C"` shim (`mmap`/`munmap`) so no external crate
//!   is needed. On non-Unix targets [`Mmap::map`] returns an error and
//!   callers fall back to reading the file into an owned buffer — the PLPS
//!   reader asserts the two paths bit-identical.
//! - [`MappedSlice`]: a checked `&[f64]` view into an `Arc<Mmap>`. The
//!   constructor validates bounds, 8-byte alignment, and that the target is
//!   little-endian (PLPS bodies are little-endian f64, so on a big-endian
//!   host a mapped view would reinterpret bytes incorrectly; such hosts must
//!   use the owned decode path instead).
//!
//! Safety argument, concentrated here so dependents stay `forbid(unsafe)`:
//! the mapping is `PROT_READ` + `MAP_PRIVATE`, so the kernel guarantees the
//! pages are immutable through this mapping; `MappedSlice` holds an
//! `Arc<Mmap>` so the mapping outlives every view; alignment and bounds are
//! validated eagerly at construction. A file truncated by another process
//! after mapping could still fault — the snapshot publishing protocol never
//! truncates live generation files (writers publish via `rename(2)`), which
//! is documented as part of the PLPS contract in DESIGN.md §16.
//!
//! It also holds [`CountingAllocator`], because a `GlobalAlloc` can only be
//! written with `unsafe impl`: a pass-through to the system allocator that
//! counts calls and remembers the largest request, for test binaries that
//! assert how often, and how much at once, a path allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator with a call counter and a high-water mark of the
/// request size in front. A test binary installs one as its
/// `#[global_allocator]` and reads [`CountingAllocator::allocations`] and
/// [`CountingAllocator::largest_request`] around the code it measures;
/// both are process-wide, so such a binary runs its measurements from one
/// test function.
#[derive(Debug, Default)]
pub struct CountingAllocator {
    allocations: AtomicU64,
    largest: AtomicU64,
}

impl CountingAllocator {
    /// A counter at zero.
    pub const fn new() -> Self {
        CountingAllocator {
            allocations: AtomicU64::new(0),
            largest: AtomicU64::new(0),
        }
    }

    /// Counts one call that asked for `bytes`.
    fn record(&self, bytes: usize) {
        // Relaxed: statistics, they publish no other data.
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.largest.fetch_max(bytes as u64, Ordering::Relaxed);
    }

    /// Calls so far that obtained or resized a block (`alloc`,
    /// `alloc_zeroed`, `realloc`); frees are not counted.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// The most bytes any one of those calls asked for (for `realloc`, the
    /// new size) since the start or the last
    /// [`CountingAllocator::reset_largest`].
    pub fn largest_request(&self) -> u64 {
        self.largest.load(Ordering::Relaxed)
    }

    /// Forgets the largest request, so the next reading covers only what
    /// follows.
    pub fn reset_largest(&self) {
        self.largest.store(0, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are
// atomics and touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.record(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`; both are passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(unix)]
mod sys {
    //! The two-symbol libc shim. Constants match Linux and the BSDs for the
    //! flags we use (`PROT_READ = 1`, `MAP_PRIVATE = 2`).
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    /// `MAP_FAILED` is `(void *)-1`.
    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only, privately mapped view of an entire file.
///
/// Dereferences to `&[u8]`. Unmapped on drop. Cheap to share through an
/// [`Arc`]; [`MappedSlice`] does exactly that.
pub struct Mmap {
    /// Base address of the mapping; dangling (and never passed to
    /// `munmap`) when `len == 0`.
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime, so
// shared references to it are valid from any thread, and the raw pointer is
// only freed in `Drop` when the last owner goes away.
unsafe impl Send for Mmap {}
// SAFETY: see above — no interior mutability, the pages never change.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `path` read-only in its entirety.
    ///
    /// # Errors
    /// Any I/O error opening or stat-ing the file, a failed `mmap(2)`, or —
    /// on non-Unix targets — an `Unsupported` error so callers can fall back
    /// to an owned read (`std::fs::read`).
    pub fn map(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        Self::map_file(&file, len)
    }

    #[cfg(unix)]
    fn map_file(file: &File, len: usize) -> io::Result<Self> {
        use std::os::fd::AsRawFd;

        if len == 0 {
            // mmap(2) rejects zero-length mappings; model an empty file as
            // an empty slice with a dangling, never-unmapped base pointer.
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        // SAFETY: fd is a valid open file descriptor for the duration of
        // the call, `len` is the file's current size, and we request a
        // read-only private mapping at a kernel-chosen address.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[cfg(not(unix))]
    fn map_file(_file: &File, _len: usize) -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "mmap is only available on unix targets; use the owned read fallback",
        ))
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `ptr` points at `len` readable, immutable bytes for the
        // lifetime of `self` (empty case uses a dangling-but-aligned pointer
        // with len 0, which `from_raw_parts` permits).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of mapped bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: `ptr`/`len` came from a successful mmap with exactly
            // this length and have not been unmapped before.
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

/// Why a `&[f64]` view could not be built over a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// The requested byte range does not lie within the mapping.
    OutOfBounds,
    /// The view's base address is not 8-byte aligned.
    Misaligned,
    /// The target is big-endian; little-endian f64 bodies cannot be
    /// reinterpreted in place there.
    BigEndianHost,
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::OutOfBounds => f.write_str("mapped view out of bounds"),
            ViewError::Misaligned => f.write_str("mapped view not 8-byte aligned"),
            ViewError::BigEndianHost => {
                f.write_str("little-endian mapped view unsupported on big-endian host")
            }
        }
    }
}

impl std::error::Error for ViewError {}

/// A validated, cheaply clonable `&[f64]` window into a shared [`Mmap`].
///
/// Holding the `Arc<Mmap>` keeps the mapping alive for as long as any view
/// exists, so [`MappedSlice::as_slice`] can safely hand out `&[f64]` tied to
/// `&self`.
#[derive(Clone)]
pub struct MappedSlice {
    map: Arc<Mmap>,
    /// Byte offset of the first element inside the mapping.
    byte_offset: usize,
    /// Number of `f64` elements.
    len: usize,
}

impl MappedSlice {
    /// Builds a view of `len` f64 values starting `byte_offset` bytes into
    /// the mapping.
    ///
    /// # Errors
    /// [`ViewError::OutOfBounds`] if the byte range exceeds the mapping,
    /// [`ViewError::Misaligned`] if the base address is not 8-byte aligned
    /// (mmap bases are page-aligned, so any offset that is a multiple of 8
    /// is fine), and [`ViewError::BigEndianHost`] on big-endian targets.
    pub fn new(map: Arc<Mmap>, byte_offset: usize, len: usize) -> Result<Self, ViewError> {
        if cfg!(target_endian = "big") {
            return Err(ViewError::BigEndianHost);
        }
        let byte_len = len
            .checked_mul(std::mem::size_of::<f64>())
            .ok_or(ViewError::OutOfBounds)?;
        let end = byte_offset
            .checked_add(byte_len)
            .ok_or(ViewError::OutOfBounds)?;
        if end > map.len() {
            return Err(ViewError::OutOfBounds);
        }
        let base = map.as_bytes().as_ptr() as usize + byte_offset;
        if !base.is_multiple_of(std::mem::align_of::<f64>()) {
            return Err(ViewError::Misaligned);
        }
        Ok(MappedSlice {
            map,
            byte_offset,
            len,
        })
    }

    /// The elements, reinterpreted in place — no copy.
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: the constructor proved the byte range is in bounds and
        // 8-byte aligned on a little-endian host; the mapping is immutable
        // and outlives `self` via the Arc. Every f64 bit pattern is a valid
        // value (NaNs included), so reinterpretation cannot produce UB.
        unsafe {
            std::slice::from_raw_parts(
                self.map.as_bytes().as_ptr().add(self.byte_offset) as *const f64,
                self.len,
            )
        }
    }

    /// Number of `f64` elements in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for MappedSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedSlice")
            .field("byte_offset", &self.byte_offset)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("plp_mmap_test_{}_{name}", std::process::id()))
    }

    #[test]
    fn counting_allocator_counts_calls_and_keeps_the_largest_request() {
        let counting = CountingAllocator::new();
        let small = Layout::from_size_align(64, 8).unwrap();
        let grown = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: every block is freed once, with the layout it last had.
        unsafe {
            let p = counting.alloc(small);
            let p = counting.realloc(p, small, grown.size());
            counting.dealloc(p, grown);
            let z = counting.alloc_zeroed(small);
            counting.dealloc(z, small);
        }
        assert_eq!(counting.allocations(), 3, "frees are not counted");
        assert_eq!(
            counting.largest_request(),
            4096,
            "a realloc asks its new size"
        );
        counting.reset_largest();
        assert_eq!(counting.largest_request(), 0);
        assert_eq!(counting.allocations(), 3, "the call count is not reset");
    }

    #[test]
    fn map_matches_owned_read() {
        let path = temp_path("roundtrip");
        let payload: Vec<u8> = (0..=255u8).cycle().take(12345).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();

        let map = Mmap::map(&path).expect("mmap should succeed on unix CI");
        assert_eq!(map.as_bytes(), payload.as_slice());
        assert_eq!(&map[..4], &payload[..4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let map = Mmap::map(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_bytes(), &[] as &[u8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_slice_reads_f64_bit_identical() {
        let path = temp_path("f64s");
        let values = [1.5f64, -2.25, f64::MIN_POSITIVE, 1e300, -0.0];
        let mut bytes = vec![0u8; 16]; // an aligned 16-byte prefix
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();

        let map = Arc::new(Mmap::map(&path).unwrap());
        let view = MappedSlice::new(map, 16, values.len()).unwrap();
        let got = view.as_slice();
        assert_eq!(got.len(), values.len());
        for (a, b) in got.iter().zip(values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn view_bounds_and_alignment_are_enforced() {
        let path = temp_path("bounds");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&[0u8; 64])
            .unwrap();
        let map = Arc::new(Mmap::map(&path).unwrap());

        assert_eq!(
            MappedSlice::new(map.clone(), 0, 9).unwrap_err(),
            ViewError::OutOfBounds
        );
        assert_eq!(
            MappedSlice::new(map.clone(), 4, 1).unwrap_err(),
            ViewError::Misaligned
        );
        assert!(MappedSlice::new(map.clone(), 56, 1).is_ok());
        assert_eq!(
            MappedSlice::new(map, 64, 1).unwrap_err(),
            ViewError::OutOfBounds
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clones_share_the_mapping() {
        let path = temp_path("clone");
        let bytes: Vec<u8> = 7f64.to_le_bytes().to_vec();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&bytes)
            .unwrap();
        let view = MappedSlice::new(Arc::new(Mmap::map(&path).unwrap()), 0, 1).unwrap();
        let clone = view.clone();
        drop(view);
        assert_eq!(clone.as_slice(), &[7.0]);
        std::fs::remove_file(&path).ok();
    }
}
