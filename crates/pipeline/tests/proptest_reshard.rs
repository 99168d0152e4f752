//! Property tests for live resharding: for arbitrary key/value sets and
//! arbitrary old/new shard counts, a resize must preserve every live
//! key-value pair, leave each key in exactly its newly-routed shard, and
//! keep the aggregate `op_counts` accounting intact (the retired donor
//! counters fold into the baseline).

use dido_model::{Query, ResponseStatus};
use dido_pipeline::{route_of, EngineConfig, ShardedEngine};
use proptest::prelude::*;
use std::collections::HashMap;

fn cfg(store_bytes: usize) -> EngineConfig {
    EngineConfig::new(store_bytes, 64 << 10, 16 << 10)
}

fn key(id: u32) -> Vec<u8> {
    format!("reshard-key-{id}").into_bytes()
}

fn value(id: u32, rev: u32) -> Vec<u8> {
    format!("value-{id}-rev{rev}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resharding_preserves_every_live_pair_and_op_accounting(
        sets in collection::vec((0u32..200, 0u32..4), 1..250),
        delete_ids in collection::vec(0u32..200, 0..30),
        old_n in 1usize..5,
        new_n in 1usize..5,
    ) {
        // Size each shard so nothing is ever evicted: keys and values
        // are tiny, and both topologies get the same total capacity.
        let s = ShardedEngine::new(old_n, cfg((1 << 20) / old_n));

        // Apply the SETs (later revisions overwrite), then the DELETEs;
        // `live` is the reference model of what must survive.
        let mut live: HashMap<u32, u32> = HashMap::new();
        for &(id, rev) in &sets {
            s.execute(&Query::set(key(id), value(id, rev)));
            live.insert(id, rev);
        }
        for &id in &delete_ids {
            let removed = s.execute(&Query::delete(key(id))).status == ResponseStatus::Ok;
            prop_assert_eq!(removed, live.remove(&id).is_some());
        }
        // Run a batch through the pipelines so op counters are nonzero
        // and the accounting check is meaningful.
        let gets: Vec<Query> = live.keys().map(|&id| Query::get(key(id))).collect();
        if !gets.is_empty() {
            let _ = s.serve_batch(gets);
        }
        let counts_before = s.op_counts();

        if old_n == new_n {
            prop_assert!(s.resize_blocking(new_n, cfg((1 << 20) / new_n)).is_err());
        } else {
            s.resize_blocking(new_n, cfg((1 << 20) / new_n)).unwrap();
        }

        // Migration itself runs no pipeline tasks, so the aggregate
        // totals (current shards + retired baseline) must be unchanged.
        prop_assert_eq!(counts_before, s.op_counts());
        prop_assert_eq!(s.shard_count(), new_n);
        prop_assert_eq!(s.migrate_dropped(), 0);

        // Every live pair survives with its latest revision, routed to
        // exactly one shard.
        for (&id, &rev) in &live {
            let r = s.execute(&Query::get(key(id)));
            prop_assert_eq!(r.status, ResponseStatus::Ok, "key {} lost in resize", id);
            prop_assert_eq!(&r.value[..], &value(id, rev)[..]);
            let owner = route_of(&key(id), s.shard_count());
            for shard in 0..s.shard_count() {
                prop_assert_eq!(
                    s.shard(shard).has_key(&key(id)),
                    shard == owner,
                    "key {} present outside its routed shard", id
                );
            }
        }
        // Deleted keys stay deleted.
        for &id in &delete_ids {
            if !live.contains_key(&id) {
                prop_assert_eq!(
                    s.execute(&Query::get(key(id))).status,
                    ResponseStatus::NotFound,
                    "deleted key {} resurrected by resize", id
                );
            }
        }
    }

    #[test]
    fn chained_resizes_preserve_content(
        ids in collection::vec(0u32..500, 1..120),
        steps in collection::vec(1usize..6, 1..4),
    ) {
        let s = ShardedEngine::new(2, cfg(1 << 19));
        for &id in &ids {
            s.execute(&Query::set(key(id), value(id, 0)));
        }
        for &n in &steps {
            match s.resize_blocking(n, cfg((1 << 20) / n)) {
                Ok(()) => prop_assert_eq!(s.shard_count(), n),
                // Only a same-count request may fail.
                Err(e) => prop_assert_eq!(n, s.shard_count(), "unexpected error {:?}", e),
            }
        }
        for &id in &ids {
            let r = s.execute(&Query::get(key(id)));
            prop_assert_eq!(r.status, ResponseStatus::Ok, "key {} lost", id);
            prop_assert_eq!(&r.value[..], &value(id, 0)[..]);
        }
    }
}
