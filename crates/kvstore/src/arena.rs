//! The shared-memory arena.
//!
//! Models the 1,908 MB CPU/GPU shared region of the paper's APU: one
//! flat byte range both processors read and write. Because the threaded
//! executor lets stages on different (simulated) processors touch the
//! arena concurrently — and eviction can recycle an object while a stale
//! reader still holds its location — all accesses are relaxed atomics.
//! Racy readers observe stale-but-initialized data (which the `KC`
//! key-comparison step or the store's recycle-generation check then
//! rejects), never undefined behaviour.
//!
//! **Memory model.** The arena is an array of `AtomicU64` words and every
//! access goes through that one atomic width — no byte is ever reached
//! through a racing access of another size. Byte-granular operations
//! map onto words:
//!
//! * whole words inside a range are plain relaxed loads/stores (8 bytes
//!   per atomic instead of 1);
//! * a write covering only some lanes of a word is a compare-exchange
//!   on that word, so bytes outside the range — possibly a flag byte
//!   another thread is updating — are preserved exactly;
//! * flag-byte read-modify-writes ([`Arena::fetch_or_u8`],
//!   [`Arena::fetch_and_u8`]) are lane-masked `fetch_or`/`fetch_and` on
//!   the word, keeping their exactly-one-winner semantics.
//!
//! **Backing.** On 64-bit Linux the words live in an anonymous private
//! `mmap` (lazily zero-filled by the kernel, `munmap`ed on drop), so
//! building a large store neither touches every page up front nor
//! depends on the allocator's mmap threshold; elsewhere a zeroed boxed
//! slice stands in.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per arena word.
const WORD: usize = 8;

/// Mask selecting the low `n` lanes (bytes) of a word.
#[inline]
fn lane_mask(n: usize) -> u64 {
    if n >= WORD {
        !0
    } else {
        (1u64 << (8 * n)) - 1
    }
}

/// Pack up to 8 bytes little-endian into the low lanes of a word.
#[inline]
fn pack(bytes: &[u8]) -> u64 {
    let mut w = [0u8; WORD];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// A fixed-capacity byte arena with interior mutability.
pub struct Arena {
    words: backing::Words,
    capacity: usize,
}

impl Arena {
    /// Allocate a zeroed arena of `capacity` bytes.
    #[must_use]
    pub fn new(capacity: usize) -> Arena {
        Arena {
            words: backing::Words::zeroed(capacity.div_ceil(WORD)),
            capacity,
        }
    }

    /// Arena capacity in bytes.
    #[must_use]
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn word(&self, idx: usize) -> &AtomicU64 {
        &self.words.as_slice()[idx]
    }

    #[inline]
    fn load(&self, idx: usize) -> u64 {
        self.word(idx).load(Ordering::Relaxed)
    }

    /// Bounds check for the byte range `offset..offset+len`.
    #[inline]
    fn check(&self, offset: usize, len: usize) -> usize {
        match offset.checked_add(len) {
            Some(end) if end <= self.capacity => end,
            _ => panic!(
                "arena access {offset}+{len} out of bounds (capacity {})",
                self.capacity
            ),
        }
    }

    /// Replace `bytes.len()` lanes of word `idx`, starting at `lane`,
    /// leaving every other lane exactly as a concurrent writer left it.
    #[inline]
    fn store_lanes(&self, idx: usize, lane: usize, bytes: &[u8]) {
        let w = self.word(idx);
        if lane == 0 && bytes.len() == WORD {
            w.store(pack(bytes), Ordering::Relaxed);
            return;
        }
        let shift = 8 * lane;
        let mask = lane_mask(bytes.len()) << shift;
        let val = pack(bytes) << shift;
        let mut cur = w.load(Ordering::Relaxed);
        loop {
            let next = (cur & !mask) | val;
            if next == cur {
                return;
            }
            match w.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Read `n <= 8` bytes at `offset` as a little-endian integer (one
    /// word load, two when the range straddles a word boundary).
    #[inline]
    fn read_lanes(&self, offset: usize, n: usize) -> u64 {
        self.check(offset, n);
        let (idx, lane) = (offset / WORD, offset % WORD);
        let mut v = self.load(idx) >> (8 * lane);
        if lane + n > WORD {
            v |= self.load(idx + 1) << (8 * (WORD - lane));
        }
        v & lane_mask(n)
    }

    /// Copy `src` into the arena at `offset`.
    ///
    /// # Panics
    /// Panics if the range exceeds the arena.
    pub fn write(&self, offset: usize, src: &[u8]) {
        self.check(offset, src.len());
        if src.is_empty() {
            return;
        }
        let (mut idx, lane) = (offset / WORD, offset % WORD);
        let mut rest = src;
        if lane != 0 || rest.len() < WORD {
            let take = (WORD - lane).min(rest.len());
            self.store_lanes(idx, lane, &rest[..take]);
            rest = &rest[take..];
            idx += 1;
        }
        let mut chunks = rest.chunks_exact(WORD);
        for chunk in &mut chunks {
            self.word(idx).store(pack(chunk), Ordering::Relaxed);
            idx += 1;
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            self.store_lanes(idx, 0, tail);
        }
    }

    /// Copy `len` bytes at `offset` into `dst` (appended).
    ///
    /// # Panics
    /// Panics if the range exceeds the arena.
    pub fn read_into(&self, offset: usize, len: usize, dst: &mut Vec<u8>) {
        let end = self.check(offset, len);
        dst.reserve(len);
        let mut pos = offset;
        let lane = pos % WORD;
        if lane != 0 && pos < end {
            let take = (WORD - lane).min(end - pos);
            dst.extend_from_slice(&self.load(pos / WORD).to_le_bytes()[lane..lane + take]);
            pos += take;
        }
        let whole = (end - pos) / WORD;
        let start = dst.len();
        // SAFETY: `reserve(len)` above left room for `len` bytes, the
        // head took `pos - offset` of them, and `whole * WORD <= end -
        // pos` is what remains; each word is written exactly once with
        // an unaligned store before `set_len` exposes it.
        unsafe {
            let out = dst.as_mut_ptr().add(start);
            for i in 0..whole {
                let w = self.load(pos / WORD + i);
                out.add(i * WORD).cast::<u64>().write_unaligned(w.to_le());
            }
            dst.set_len(start + whole * WORD);
        }
        pos += whole * WORD;
        if pos < end {
            dst.extend_from_slice(&self.load(pos / WORD).to_le_bytes()[..end - pos]);
        }
    }

    /// Read `len` bytes at `offset` into a fresh vector.
    #[must_use]
    pub fn read_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        self.read_into(offset, len, &mut v);
        v
    }

    /// Compare the bytes at `offset..offset+other.len()` with `other`.
    #[must_use]
    pub fn bytes_equal(&self, offset: usize, other: &[u8]) -> bool {
        match offset.checked_add(other.len()) {
            Some(end) if end <= self.capacity => {}
            _ => return false,
        }
        let (mut idx, lane) = (offset / WORD, offset % WORD);
        let mut rest = other;
        if lane != 0 && !rest.is_empty() {
            let take = (WORD - lane).min(rest.len());
            let have = (self.load(idx) >> (8 * lane)) & lane_mask(take);
            if have != pack(&rest[..take]) {
                return false;
            }
            rest = &rest[take..];
            idx += 1;
        }
        let mut chunks = rest.chunks_exact(WORD);
        for chunk in &mut chunks {
            if self.load(idx) != pack(chunk) {
                return false;
            }
            idx += 1;
        }
        let tail = chunks.remainder();
        tail.is_empty() || self.load(idx) & lane_mask(tail.len()) == pack(tail)
    }

    /// Read a little-endian `u64`.
    #[must_use]
    #[inline]
    pub fn read_u64(&self, offset: usize) -> u64 {
        self.read_lanes(offset, 8)
    }

    /// Write a little-endian `u64` (one word store when aligned).
    #[inline]
    pub fn write_u64(&self, offset: usize, v: u64) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Read a little-endian `u16`.
    #[must_use]
    #[inline]
    pub fn read_u16(&self, offset: usize) -> u16 {
        self.read_lanes(offset, 2) as u16
    }

    /// Write a little-endian `u16`.
    pub fn write_u16(&self, offset: usize, v: u16) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Read a little-endian `u32`.
    #[must_use]
    #[inline]
    pub fn read_u32(&self, offset: usize) -> u32 {
        self.read_lanes(offset, 4) as u32
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&self, offset: usize, v: u32) {
        self.write(offset, &v.to_le_bytes());
    }

    /// Read one byte.
    #[must_use]
    #[inline]
    pub fn read_u8(&self, offset: usize) -> u8 {
        self.read_lanes(offset, 1) as u8
    }

    /// Write one byte.
    pub fn write_u8(&self, offset: usize, v: u8) {
        self.write(offset, &[v]);
    }

    /// Raw address of the byte at `offset`, for software-prefetch hints
    /// ahead of a batched probe pass. Out-of-range offsets return the
    /// arena base — the caller only ever feeds the result to a prefetch
    /// instruction, which never faults and never dereferences.
    #[must_use]
    pub fn byte_ptr(&self, offset: usize) -> *const u8 {
        let clamped = if offset < self.capacity { offset } else { 0 };
        self.words
            .as_slice()
            .as_ptr()
            .cast::<u8>()
            .wrapping_add(clamped)
    }

    /// Word index and lane shift of the byte at `offset`.
    #[inline]
    fn byte_lane(&self, offset: usize) -> (usize, usize) {
        self.check(offset, 1);
        (offset / WORD, 8 * (offset % WORD))
    }

    /// Atomically OR `mask` into the byte at `offset`, returning the
    /// previous value. Used for flag bits (e.g. the CLOCK referenced
    /// bit) that must not resurrect concurrently-cleared state.
    pub fn fetch_or_u8(&self, offset: usize, mask: u8) -> u8 {
        let (idx, shift) = self.byte_lane(offset);
        let prev = self
            .word(idx)
            .fetch_or(u64::from(mask) << shift, Ordering::Relaxed);
        (prev >> shift) as u8
    }

    /// Atomically AND `mask` into the byte at `offset`, returning the
    /// previous value. Clearing the live bit this way is the slot-
    /// ownership handoff: exactly one of a racing free/evict/expire
    /// observes the bit set and wins the slot.
    pub fn fetch_and_u8(&self, offset: usize, mask: u8) -> u8 {
        let (idx, shift) = self.byte_lane(offset);
        let keep = !(u64::from(!mask) << shift);
        let prev = self.word(idx).fetch_and(keep, Ordering::Relaxed);
        (prev >> shift) as u8
    }

    /// Increment the `u32` at `offset` by `add`, returning the previous
    /// value (best-effort, relaxed; used for frequency counters whose
    /// exactness is not load-bearing — a racing increment may be lost).
    pub fn fetch_add_u32(&self, offset: usize, add: u32) -> u32 {
        let cur = self.read_u32(offset);
        self.write_u32(offset, cur.wrapping_add(add));
        cur
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod backing {
    //! Anonymous-`mmap` word storage, bound through `extern "C"` against
    //! the C library std already links.

    use std::alloc::Layout;
    use std::ptr::NonNull;
    use std::sync::atomic::AtomicU64;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;

    /// `len` zero-initialised words in a private anonymous mapping.
    pub(super) struct Words {
        ptr: NonNull<AtomicU64>,
        len: usize,
    }

    // SAFETY: the mapping is owned exclusively by this value and only
    // ever accessed through `&[AtomicU64]`, which is `Send + Sync`.
    unsafe impl Send for Words {}
    // SAFETY: see `Send`.
    unsafe impl Sync for Words {}

    impl Words {
        pub(super) fn zeroed(len: usize) -> Words {
            if len == 0 {
                return Words {
                    ptr: NonNull::dangling(),
                    len: 0,
                };
            }
            let layout = Layout::array::<AtomicU64>(len).expect("arena size overflows");
            // SAFETY: a fresh private anonymous mapping aliases nothing;
            // the kernel zero-fills it lazily, page by page.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    layout.size(),
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // MAP_FAILED is (void*)-1; mappings are page aligned, which
            // satisfies AtomicU64's alignment.
            if p as isize == -1 {
                std::alloc::handle_alloc_error(layout);
            }
            Words {
                ptr: NonNull::new(p.cast::<AtomicU64>()).expect("mmap returned null"),
                len,
            }
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[AtomicU64] {
            // SAFETY: `ptr` is a live, aligned mapping of `len` words
            // (or dangling with `len == 0`); all-zero bits are a valid
            // `AtomicU64`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Words {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: unmaps exactly the region `zeroed` mapped; no
                // borrow of it outlives `self`.
                unsafe {
                    munmap(self.ptr.as_ptr().cast::<u8>(), self.len * 8);
                }
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod backing {
    //! Portable fallback: a zeroed boxed slice of words.

    use std::sync::atomic::AtomicU64;

    pub(super) struct Words(Box<[AtomicU64]>);

    impl Words {
        pub(super) fn zeroed(len: usize) -> Words {
            Words((0..len).map(|_| AtomicU64::new(0)).collect())
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[AtomicU64] {
            &self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let a = Arena::new(128);
        a.write(10, b"hello world");
        assert_eq!(a.read_vec(10, 11), b"hello world");
        assert!(a.bytes_equal(10, b"hello world"));
        assert!(!a.bytes_equal(10, b"hello_world"));
    }

    #[test]
    fn ints_round_trip() {
        let a = Arena::new(64);
        a.write_u16(0, 0xBEEF);
        a.write_u32(2, 0xDEAD_BEEF);
        a.write_u8(6, 7);
        assert_eq!(a.read_u16(0), 0xBEEF);
        assert_eq!(a.read_u32(2), 0xDEAD_BEEF);
        assert_eq!(a.read_u8(6), 7);
        // Straddling a word boundary, and a full unaligned word.
        a.write_u32(14, 0x0102_0304);
        assert_eq!(a.read_u32(14), 0x0102_0304);
        a.write_u64(21, 0x1122_3344_5566_7788);
        assert_eq!(a.read_u64(21), 0x1122_3344_5566_7788);
        assert_eq!(a.read_u8(6), 7, "neighbouring lanes untouched");
    }

    #[test]
    fn unaligned_ranges_match_a_byte_model() {
        // Every (offset, len) over a few words, against a plain Vec.
        let a = Arena::new(61); // not a word multiple
        let mut model = vec![0u8; 61];
        let mut fill = 1u8;
        for off in 0..61 {
            for len in 0..=(61 - off).min(27) {
                let src: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                fill = fill.wrapping_add(37);
                a.write(off, &src);
                model[off..off + len].copy_from_slice(&src);
                assert_eq!(a.read_vec(0, 61), model, "after write {off}+{len}");
                assert!(a.bytes_equal(off, &src));
                if len > 0 {
                    let mut wrong = src.clone();
                    wrong[len - 1] ^= 0x80;
                    assert!(!a.bytes_equal(off, &wrong));
                }
            }
        }
        let mut appended = b"prefix".to_vec();
        a.read_into(3, 40, &mut appended);
        assert_eq!(&appended[..6], b"prefix");
        assert_eq!(&appended[6..], &model[3..43]);
    }

    #[test]
    fn bytes_equal_rejects_out_of_range() {
        let a = Arena::new(8);
        assert!(!a.bytes_equal(6, b"abc"));
        assert!(!a.bytes_equal(usize::MAX, b"a"));
    }

    #[test]
    fn fetch_or_and_round_trip() {
        let a = Arena::new(8);
        assert_eq!(a.fetch_or_u8(0, 0b10), 0);
        assert_eq!(a.read_u8(0), 0b10);
        assert_eq!(a.fetch_and_u8(0, !0b10), 0b10);
        assert_eq!(a.read_u8(0), 0);
        // Lane-masked: the RMW leaves the rest of the word alone.
        a.write(0, b"ABCDEFGH");
        assert_eq!(a.fetch_or_u8(3, 0x20), b'D');
        assert_eq!(a.fetch_and_u8(5, !0x02), b'F');
        assert_eq!(a.read_vec(0, 8), b"ABCdEDGH");
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = Arena::new(8);
        a.write_u32(0, 41);
        assert_eq!(a.fetch_add_u32(0, 1), 41);
        assert_eq!(a.read_u32(0), 42);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        Arena::new(4).write(2, b"toolong");
    }

    #[test]
    fn concurrent_disjoint_writes_are_safe() {
        use std::sync::Arc;
        let a = Arc::new(Arena::new(4096));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let base = t * 1024;
                    for i in 0..1024 {
                        a.write_u8(base + i, (i % 251) as u8);
                    }
                    for i in 0..1024 {
                        assert_eq!(a.read_u8(base + i), (i % 251) as u8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn partial_writes_preserve_concurrent_flag_rmws() {
        // One thread rewrites lanes 0..3 and 4..8 of a word while another
        // toggles a flag bit in lane 3: a read-modify-write that
        // clobbered lane 3 would lose toggles and break the parity.
        use std::sync::Arc;
        let a = Arc::new(Arena::new(8));
        let writer = {
            let a = Arc::clone(&a);
            std::thread::spawn(move || {
                for i in 0..50_000u32 {
                    a.write(0, &(i as u16).to_le_bytes());
                    a.write(4, &i.to_le_bytes());
                }
            })
        };
        let mut sets = 0u32;
        for _ in 0..50_000 {
            if a.fetch_or_u8(3, 1) & 1 == 0 {
                sets += 1;
            }
            assert_eq!(a.fetch_and_u8(3, !1) & 1, 1, "the flag bit was clobbered");
        }
        writer.join().unwrap();
        assert_eq!(sets, 50_000);
        assert_eq!(a.read_u8(3), 0);
    }
}
