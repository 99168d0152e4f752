//! Cost-model audit of the shim: which constructors allocate and which
//! conversions keep the caller's buffer instead of copying it.
//!
//! A counting global allocator tallies allocations made by the *current
//! thread* only (a const-initialised thread-local counter), so the
//! harness's sibling test threads cannot perturb a measurement.

use bytes::{BufMut, Bytes, BytesMut};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`, adding only a
// thread-local counter bump — allocation behaviour is unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations `f` performs on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

#[test]
fn new_and_from_static_do_not_allocate() {
    let (n, b) = allocs_in(|| {
        let empty = Bytes::new();
        let empty2 = Bytes::default();
        let lit = Bytes::from_static(b"static payload");
        let from_str = Bytes::from("also static");
        let sub = lit.slice(7..);
        let copy = sub.clone();
        drop((empty, empty2, from_str, copy));
        sub
    });
    assert_eq!(
        n, 0,
        "empty/static views and their slices must not allocate"
    );
    assert_eq!(&b[..], b"payload");
    // An empty Vec converts to the allocation-free empty view.
    let (n, e) = allocs_in(|| Bytes::from(Vec::new()));
    assert_eq!(n, 0);
    assert!(e.is_empty());
}

#[test]
fn freeze_keeps_the_buffer_pointer() {
    let mut m = BytesMut::with_capacity(64);
    m.put_slice(b"frame bytes that must not move");
    let ptr = m.as_ptr();
    let (n, frozen) = allocs_in(|| m.freeze());
    assert_eq!(
        frozen.as_ptr(),
        ptr,
        "freeze must move the buffer, not copy it"
    );
    assert!(n <= 1, "freeze may only box the refcount ({n} allocations)");
    // Slices and clones of the frozen buffer alias it without allocating.
    let (n, tail) = allocs_in(|| frozen.slice(6..).clone());
    assert_eq!(n, 0);
    assert_eq!(tail.as_ptr(), ptr.wrapping_add(6));
    assert_eq!(&tail[..], b"bytes that must not move");

    let v = b"vector contents".to_vec();
    let ptr = v.as_ptr();
    let b = Bytes::from(v);
    assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> must not copy");
    let s = String::from("string contents");
    let ptr = s.as_ptr();
    assert_eq!(Bytes::from(s).as_ptr(), ptr, "From<String> must not copy");
}

#[test]
fn views_outlive_their_parent() {
    let sub = {
        let parent = Bytes::from(b"parent buffer".to_vec());
        parent.slice(7..)
    };
    assert_eq!(&sub[..], b"buffer");
    let moved = std::thread::spawn(move || sub.to_vec()).join().unwrap();
    assert_eq!(moved, b"buffer");
}
