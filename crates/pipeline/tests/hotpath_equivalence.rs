//! The wavefront-vectorized task pipeline, run as the fused serve pass
//! ([`tasks::serve`]), must be observationally identical to the scalar
//! reference path on a recorded workload.
//!
//! The oracle is [`KvEngine::execute`], which still walks the original
//! per-query path (scalar `IndexTable::search`, per-query
//! `Vec`-allocated value read) — exactly the hot path the batched
//! arena-staged tasks replaced. Running the same recorded query
//! sequence through both and comparing responses byte-for-byte proves
//! the staging arena and the batched probes changed the memory layout,
//! not the semantics.

use dido_model::{Query, Response};
use dido_pipeline::{tasks, EngineConfig, KvEngine};

/// Deterministic splitmix64 stream so the "recorded" workload is
/// reproducible without a file.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn engine() -> KvEngine {
    // Store far larger than the working set: no eviction, so query
    // interleaving is the only ordering concern (handled below by
    // keeping keys distinct within a batch).
    KvEngine::new(EngineConfig::new(8 << 20, 64 * 1024, 16 * 1024))
}

#[test]
fn vectorized_tasks_match_scalar_execute_on_recorded_workload() {
    let vectorized = engine();
    let oracle = engine();
    let mut rng = Rng(0xD1D0_2024);

    let keyspace = 1500u64;
    let rounds = 10;
    let batch_size = 700usize;

    for round in 0..rounds {
        // Distinct keys per batch: the staged pipeline reorders work by
        // task (all MMs before all searches), so a batch must not carry
        // two operations on the same key. A shuffled draw without
        // replacement keeps batches mixed but conflict-free.
        let mut ids: Vec<u64> = (0..keyspace).collect();
        for i in (1..ids.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        let queries: Vec<Query> = ids[..batch_size]
            .iter()
            .map(|&id| {
                let key = format!("rec-{id:05}");
                match rng.next() % 10 {
                    // 40% SET with varying value sizes (including empty),
                    // 10% DELETE, 50% GET. Early rounds skew SET-heavy via
                    // the GETs/DELETEs missing until keys exist — which is
                    // itself a case worth recording (miss responses).
                    0..=3 => {
                        let vlen = (rng.next() % 300) as usize;
                        let fill = b'a' + (round as u8 % 26);
                        Query::set(key, vec![fill; vlen])
                    }
                    4 => Query::delete(key),
                    _ => Query::get(key),
                }
            })
            .collect();

        let vec_responses = tasks::serve(&vectorized, queries.clone());
        let oracle_responses: Vec<Response> = queries.iter().map(|q| oracle.execute(q)).collect();
        for (i, (v, o)) in vec_responses.iter().zip(&oracle_responses).enumerate() {
            assert_eq!(
                v, o,
                "round {round} query {i} diverged: vectorized {v:?} vs scalar {o:?}"
            );
        }
    }

    // Both engines must also agree on final contents and stay clean.
    assert!(vectorized.verify_integrity().is_clean());
    assert!(oracle.verify_integrity().is_clean());
    assert_eq!(vectorized.index.len(), oracle.index.len());
    assert_eq!(
        vectorized.store.live_objects(),
        oracle.store.live_objects()
    );
}

#[test]
fn responses_are_zero_copy_slices_of_one_arena() {
    let e = engine();
    let n = 200usize;
    for i in 0..n {
        e.execute(&Query::set(format!("z-{i:03}"), vec![b'v'; 100]));
    }
    let gets: Vec<Query> = (0..n).map(|i| Query::get(format!("z-{i:03}"))).collect();
    let responses = tasks::serve(&e, gets);

    // RD stages values in query order into one buffer; after WR freezes
    // it, every response value must be a back-to-back window of the same
    // allocation — the zero-copy invariant (no per-query buffer).
    let mut expected_next: Option<usize> = None;
    for (i, r) in responses.iter().enumerate() {
        assert_eq!(&r.value[..], &[b'v'; 100][..], "response {i}");
        let ptr = r.value.as_ptr() as usize;
        if let Some(next) = expected_next {
            assert_eq!(
                ptr, next,
                "response {i} is not contiguous with its predecessor — \
                 values are no longer slices of one staging arena"
            );
        }
        expected_next = Some(ptr + r.value.len());
    }
}
