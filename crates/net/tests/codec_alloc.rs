//! Steady-state allocation audit of the text codecs.
//!
//! A counting global allocator tallies the allocations the *current
//! thread* makes (a const-initialised thread-local counter, so libtest's
//! other threads cannot perturb it) while RESP `GET`/`SET`/`SET … EX`
//! and memcached `get`/`set` requests are decoded and their replies
//! encoded, over and over, into reused buffers — exactly what a
//! dispatcher does per request once its scratch vectors are warm. Keys
//! and values are zero-copy slices of the request, headers are parsed
//! from the byte slice in place, reply lengths go through an integer
//! writer, and empty `Bytes` never allocate: the whole cycle must make
//! zero allocations per command.

use bytes::{Bytes, BytesMut};
use dido_model::{Query, Response};
use dido_net::{decode_request, encode_reply_into, ProtocolKind};
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

const ROUNDS: u64 = 1_000;

/// Decode `request` and encode its reply `ROUNDS` times into reused
/// buffers (after one warm-up round sizes them); returns allocations per
/// command and the last reply. `answer` builds the engine's response
/// inside the measured loop: constructing it must not allocate either.
fn audit(kind: ProtocolKind, request: &[u8], answer: fn() -> Response) -> (f64, Vec<u8>) {
    let payload = Bytes::copy_from_slice(request);
    let mut queries: Vec<Query> = Vec::with_capacity(8);
    let mut wire = BytesMut::with_capacity(4096);
    let mut run = || {
        queries.clear();
        wire.clear();
        let meta = decode_request(kind, &payload, 0, &mut queries);
        assert!(
            !meta.is_parse_error(),
            "{:?} must decode",
            String::from_utf8_lossy(request)
        );
        encode_reply_into(&mut wire, &meta, &[answer()]);
    };
    run(); // warm-up
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ROUNDS {
        run();
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs as f64 / ROUNDS as f64, wire.to_vec())
}

fn hit() -> Response {
    // In the server a hit's value is a slice of the batch's frozen
    // staging buffer; a static view costs the same (no allocation).
    Response::hit(Bytes::from_static(b"value-bytes-0123456789"))
}

fn miss() -> Response {
    Response::not_found()
}

fn stored() -> Response {
    Response::ok()
}

/// `(name, protocol, request, engine answer, expected reply)`.
type Case = (
    &'static str,
    ProtocolKind,
    &'static [u8],
    fn() -> Response,
    &'static [u8],
);

#[test]
fn text_codecs_make_no_allocation_per_command() {
    let cases: [Case; 7] = [
        (
            "RESP GET hit",
            ProtocolKind::Resp,
            b"*2\r\n$3\r\nGET\r\n$12\r\nkey:00001234\r\n",
            hit,
            b"$22\r\nvalue-bytes-0123456789\r\n",
        ),
        (
            "RESP GET miss",
            ProtocolKind::Resp,
            b"*2\r\n$3\r\nget\r\n$12\r\nkey:00001234\r\n",
            miss,
            b"$-1\r\n",
        ),
        (
            "RESP SET",
            ProtocolKind::Resp,
            b"*3\r\n$3\r\nSET\r\n$12\r\nkey:00001234\r\n$5\r\nhello\r\n",
            stored,
            b"+OK\r\n",
        ),
        (
            "RESP SET EX",
            ProtocolKind::Resp,
            b"*5\r\n$3\r\nSET\r\n$12\r\nkey:00001234\r\n$5\r\nhello\r\n$2\r\nEX\r\n$1\r\n5\r\n",
            stored,
            b"+OK\r\n",
        ),
        (
            "memcached get hit",
            ProtocolKind::Memcached,
            b"get key:00001234\r\n",
            hit,
            b"VALUE key:00001234 0 22\r\nvalue-bytes-0123456789\r\nEND\r\n",
        ),
        (
            "memcached get miss",
            ProtocolKind::Memcached,
            b"get key:00001234\r\n",
            miss,
            b"END\r\n",
        ),
        (
            "memcached set",
            ProtocolKind::Memcached,
            b"set key:00001234 7 30 5\r\nhello\r\n",
            stored,
            b"STORED\r\n",
        ),
    ];
    for (name, kind, request, answer, expect) in cases {
        let (per_command, wire) = audit(kind, request, answer);
        assert_eq!(wire, expect, "{name}: reply bytes");
        assert_eq!(
            per_command, 0.0,
            "{name}: {per_command} allocations per decode+encode cycle"
        );
    }
}
