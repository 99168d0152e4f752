//! Word-wide reads racing slot recycling.
//!
//! A writer keeps freeing one object and reallocating its slot for a
//! new key whose value is a different fill byte, while readers run the
//! engine's read protocol: snapshot the recycle generation, validate the
//! location with `probe`, copy the value with `read_value`, then
//! recheck the generation (falling back to a key recompare when it
//! moved). Word-granular copies can interleave two values word by word;
//! the protocol must turn every such copy into a miss, never into a
//! value mixing bytes of two objects.

use dido_kvstore::{ObjectStore, ProbeOutcome};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const VALUE_LEN: usize = 203; // odd: the value starts and ends mid-word

fn key_of(version: u64) -> Vec<u8> {
    format!("key-{version:010}").into_bytes()
}

fn fill_of(version: u64) -> u8 {
    (version % 251) as u8
}

#[test]
fn read_value_under_recycling_is_whole_or_miss() {
    let store = Arc::new(ObjectStore::new(1 << 16));
    let first = store
        .allocate(&key_of(0), &[fill_of(0); VALUE_LEN])
        .unwrap();
    // (loc, version) of the current object, published for the readers.
    let current = Arc::new(AtomicU64::new(0));
    let loc = first.loc;
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (store, current, stop) = (Arc::clone(&store), Arc::clone(&current), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut version = 0u64;
            while !stop.load(Ordering::Relaxed) && version < 200_000 {
                assert!(store.free(loc));
                version += 1;
                let out = store
                    .allocate(&key_of(version), &[fill_of(version); VALUE_LEN])
                    .unwrap();
                assert_eq!(out.loc, loc, "LIFO free list recycles the same slot");
                current.store(version, Ordering::Release);
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (store, current, stop) =
                (Arc::clone(&store), Arc::clone(&current), Arc::clone(&stop));
            std::thread::spawn(move || {
                let (mut whole, mut misses) = (0u64, 0u64);
                let mut buf = Vec::with_capacity(VALUE_LEN);
                while !stop.load(Ordering::Relaxed) {
                    let version = current.load(Ordering::Acquire);
                    let key = key_of(version);
                    let gen = store.recycle_gen();
                    if store.probe(loc, &key, 0) != ProbeOutcome::Hit {
                        misses += 1;
                        continue;
                    }
                    buf.clear();
                    store.read_value(loc, &mut buf);
                    if store.recycle_gen_validate() != gen && !store.key_matches(loc, &key) {
                        misses += 1;
                        continue;
                    }
                    assert_eq!(buf.len(), VALUE_LEN);
                    assert!(
                        buf.iter().all(|&b| b == fill_of(version)),
                        "accepted value of key v{version} mixes bytes of two objects"
                    );
                    whole += 1;
                }
                (whole, misses)
            })
        })
        .collect();

    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let mut whole = 0;
    for r in readers {
        whole += r.join().unwrap().0;
    }
    assert!(whole > 0, "readers must observe some whole values");
}
