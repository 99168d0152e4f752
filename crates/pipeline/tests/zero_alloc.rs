//! Steady-state allocation audit of the serve pass.
//!
//! A counting global allocator measures how many heap allocations the
//! fused serve pass ([`tasks::serve`]) performs for a 512-query GET
//! batch. The old path allocated at least one `Vec` per query in `RD`
//! plus one `Bytes` conversion per response in `WR` (≥ 1024
//! allocations per 512-query batch); the arena-staged path is allowed
//! only batch-level overhead — the batch's state vectors,
//! staging-buffer growth doublings, the single arena freeze and the
//! response vector — far below one per query.

use dido_model::Query;
use dido_pipeline::{tasks, EngineConfig, KvEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`, adding only a relaxed
// counter bump — allocation behaviour is unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One `#[test]` only: the counter is process-global and must not see a
/// concurrent sibling test's allocations.
#[test]
fn serve_pass_does_not_allocate_per_query() {
    let n = 512usize;
    let engine = KvEngine::new(EngineConfig::new(8 << 20, 1 << 20, 256 * 1024));
    for i in 0..n {
        engine.execute(&Query::set(format!("za-{i:04}"), vec![b'v'; 64]));
    }
    let gets: Vec<Query> = (0..n).map(|i| Query::get(format!("za-{i:04}"))).collect();

    // Measured batch. The query vector is built before counting starts:
    // it is the caller's input, not work the serve pass does.
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let responses = tasks::serve(&engine, gets);
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    // Every GET produced a real response out of the shared arena.
    assert_eq!(responses.len(), n);
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(&r.value[..], &[b'v'; 64][..], "response {i}");
    }

    // Batch-level overhead only: the old per-query path needed ≥ 2n
    // allocations here; the serve pass must stay far under one per
    // query. (14 measured for n = 512: the state vectors, the staging
    // buffer's growth doublings, the freeze's refcount box and the
    // response vector.)
    assert!(
        allocs <= (n as u64) / 32,
        "the serve pass over {n} GETs performed {allocs} allocations — \
         the hot path is allocating per query again"
    );
    assert!(allocs > 0, "the single arena freeze must be visible");
}
