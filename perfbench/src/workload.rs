//! The benchmark's workloads and their pre-generated request pools.
//!
//! Every request a run sends is generated from the seed before the
//! server starts: each connection cycles through its own pool of
//! wire-ready requests, and each request carries the expected outcome
//! of its queries for the verifier.

use crate::verify::{Op, Proto, ValueTable};
use bytes::{Bytes, BytesMut};
use dido_kvstore::HEADER_SIZE;
use dido_model::{Query, QueryOp};
use dido_net::encode_queries_wire_into;
use dido_workload::{
    key_bytes, value_bytes, Dataset, KeyDistribution, TtlChurnGen, WorkloadGen, WorkloadSpec,
};
use std::time::Duration;

/// Client connections, one client thread each.
pub const CONNS: usize = 2;

/// SET TTLs of `resp_ttl_churn`, seconds; `0` never expires.
pub const TTL_LADDER: [u32; 4] = [1, 2, 5, 0];

/// Queries per preload frame.
const PRELOAD_FRAME_QUERIES: usize = 64;

/// Preload frames each connection keeps in flight.
pub const PRELOAD_WINDOW: usize = 8;

/// One workload: traffic shape, store size and run phases.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Wire protocol.
    pub proto: Proto,
    /// Object-store size, MB.
    pub store_mb: usize,
    /// Queries per request (dido frames; RESP commands carry one).
    pub queries_per_request: usize,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// GET share of queries; the rest are SETs.
    pub get_ratio: f64,
    /// Preload the store to capacity over the wire during set-up.
    pub preload: bool,
    /// Closed-loop traffic before the measured window.
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Requests per connection in the cycled pool.
    pub pool_requests: usize,
    /// Latency samples reserved per connection and measured second.
    pub samples_per_sec: usize,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "read_zipf",
        proto: Proto::Dido,
        store_mb: 64,
        queries_per_request: 16,
        window: 8,
        get_ratio: 0.95,
        preload: true,
        warmup: Duration::from_secs(2),
        setup_repeats: 5,
        pool_requests: 1 << 16,
        samples_per_sec: 200_000,
    },
    WorkloadDef {
        name: "rpc_1q",
        proto: Proto::Dido,
        store_mb: 64,
        queries_per_request: 1,
        window: 1,
        get_ratio: 0.95,
        preload: true,
        warmup: Duration::from_secs(2),
        setup_repeats: 5,
        pool_requests: 1 << 16,
        samples_per_sec: 100_000,
    },
    WorkloadDef {
        name: "resp_ttl_churn",
        proto: Proto::Resp,
        store_mb: 16,
        queries_per_request: 1,
        window: 128,
        get_ratio: 0.8,
        preload: false,
        // The longest finite TTL rung (5 s) cycles before measuring.
        warmup: Duration::from_secs(6),
        setup_repeats: 31,
        pool_requests: 1 << 18,
        samples_per_sec: 500_000,
    },
];

/// The workload named `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Key id embedded in the first eight bytes of a `key_bytes` key.
fn key_id(key: &[u8]) -> u32 {
    let id = u64::from_le_bytes(key[..8].try_into().expect("keys embed an 8-byte id"));
    u32::try_from(id).expect("key ids fit in u32")
}

impl WorkloadDef {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::new(Dataset::K16, self.get_ratio, KeyDistribution::YCSB_ZIPF)
    }

    fn store_bytes(&self) -> u64 {
        (self.store_mb as u64) << 20
    }

    /// Distinct keys: as many K16 objects as the store holds, or for the
    /// churn workload 4× as many mixed-size keys as the store holds.
    #[must_use]
    pub fn n_keys(&self) -> u64 {
        match self.proto {
            Proto::Dido => self.spec().keyspace_size(self.store_bytes(), HEADER_SIZE),
            Proto::Resp => {
                let mean_class: u64 = Dataset::ALL
                    .iter()
                    .map(|d| {
                        (HEADER_SIZE + d.key_size() + d.value_size())
                            .max(32)
                            .next_power_of_two() as u64
                    })
                    .sum::<u64>()
                    / Dataset::ALL.len() as u64;
                4 * self.store_bytes() / mean_class
            }
        }
    }

    /// The dataset (key and value size) of key `id`.
    #[must_use]
    pub fn dataset_of(&self, id: u64) -> Dataset {
        match self.proto {
            Proto::Dido => Dataset::K16,
            Proto::Resp => TtlChurnGen::dataset_for(id),
        }
    }

    /// Canonical values of every key, for the verifier.
    #[must_use]
    pub fn values(&self) -> ValueTable {
        ValueTable::build(self.n_keys(), |id| self.dataset_of(id))
    }

    /// One cycled request pool per connection, generated from `seed`.
    #[must_use]
    pub fn pools(&self, seed: u64) -> Vec<Pool> {
        (0..CONNS as u64)
            .map(|c| {
                let conn_seed = seed ^ (c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match self.proto {
                    Proto::Dido => {
                        let mut g = WorkloadGen::new(self.spec(), self.n_keys(), conn_seed);
                        Pool::dido(
                            (0..self.pool_requests).map(|_| g.batch(self.queries_per_request)),
                        )
                    }
                    Proto::Resp => {
                        let mut g =
                            TtlChurnGen::new(self.spec(), self.n_keys(), conn_seed, &TTL_LADDER);
                        Pool::resp((0..self.pool_requests).map(|_| g.next_query()))
                    }
                }
            })
            .collect()
    }

    /// One preload pool per connection: SETs of every key id, split
    /// evenly across connections. Empty when the workload starts empty.
    #[must_use]
    pub fn preload_pools(&self) -> Vec<Pool> {
        if !self.preload {
            return Vec::new();
        }
        let n = self.n_keys();
        let per_conn = n.div_ceil(CONNS as u64);
        (0..CONNS as u64)
            .map(|c| {
                let ids: Vec<u64> = (c * per_conn..((c + 1) * per_conn).min(n)).collect();
                Pool::dido(ids.chunks(PRELOAD_FRAME_QUERIES).map(|chunk| {
                    chunk
                        .iter()
                        .map(|&id| {
                            let ds = self.dataset_of(id);
                            Query::set(key_bytes(ds, id), value_bytes(ds, id))
                        })
                        .collect()
                }))
            })
            .collect()
    }
}

/// Wire-ready requests in send order, with each request's expected
/// query outcomes.
#[derive(Debug)]
pub struct Pool {
    wire: Bytes,
    /// `wire_ends[i]` is where request `i` ends in `wire`.
    wire_ends: Vec<usize>,
    ops: Vec<Op>,
    /// `op_ends[i]` is where request `i`'s ops end in `ops`.
    op_ends: Vec<usize>,
}

impl Pool {
    fn push_ops(&mut self, queries: &[Query]) {
        for q in queries {
            self.ops.push(match q.op {
                QueryOp::Get => Op::Get(key_id(&q.key)),
                QueryOp::Set => Op::Set,
                QueryOp::Delete => unreachable!("workloads send no DELETEs"),
            });
        }
        self.op_ends.push(self.ops.len());
    }

    fn empty() -> Pool {
        Pool {
            wire: Bytes::new(),
            wire_ends: Vec::new(),
            ops: Vec::new(),
            op_ends: Vec::new(),
        }
    }

    /// A pool of dido frames, one per query batch.
    pub fn dido(batches: impl Iterator<Item = Vec<Query>>) -> Pool {
        let mut pool = Pool::empty();
        let mut wire = BytesMut::new();
        for batch in batches {
            encode_queries_wire_into(&mut wire, &batch);
            pool.wire_ends.push(wire.len());
            pool.push_ops(&batch);
        }
        pool.wire = wire.freeze();
        pool
    }

    /// A pool of RESP2 commands: `GET key`, `SET key value [EX ttl]`.
    pub fn resp(queries: impl Iterator<Item = Query>) -> Pool {
        let mut pool = Pool::empty();
        let mut wire = BytesMut::new();
        let bulk = |wire: &mut BytesMut, arg: &[u8]| {
            wire.extend_from_slice(format!("${}\r\n", arg.len()).as_bytes());
            wire.extend_from_slice(arg);
            wire.extend_from_slice(b"\r\n");
        };
        for q in queries {
            match q.op {
                QueryOp::Get => {
                    wire.extend_from_slice(b"*2\r\n");
                    bulk(&mut wire, b"GET");
                    bulk(&mut wire, &q.key);
                }
                QueryOp::Set => {
                    wire.extend_from_slice(if q.ttl > 0 { b"*5\r\n" } else { b"*3\r\n" });
                    bulk(&mut wire, b"SET");
                    bulk(&mut wire, &q.key);
                    bulk(&mut wire, &q.value);
                    if q.ttl > 0 {
                        bulk(&mut wire, b"EX");
                        bulk(&mut wire, q.ttl.to_string().as_bytes());
                    }
                }
                QueryOp::Delete => unreachable!("workloads send no DELETEs"),
            }
            pool.wire_ends.push(wire.len());
            pool.push_ops(std::slice::from_ref(&q));
        }
        pool.wire = wire.freeze();
        pool
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wire_ends.len()
    }

    /// Whether the pool holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wire_ends.is_empty()
    }

    fn start(ends: &[usize], i: usize) -> usize {
        if i == 0 {
            0
        } else {
            ends[i - 1]
        }
    }

    /// Wire bytes of requests `first..first + count` (no wrap-around).
    #[must_use]
    pub fn wire(&self, first: usize, count: usize) -> &[u8] {
        &self.wire[Pool::start(&self.wire_ends, first)..self.wire_ends[first + count - 1]]
    }

    /// Expected outcomes of request `i`'s queries.
    #[must_use]
    pub fn ops(&self, i: usize) -> &[Op] {
        &self.ops[Pool::start(&self.op_ends, i)..self.op_ends[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dido_net::{carve_one, decode_request, Carve, ProtocolKind};

    fn def(name: &str) -> &'static WorkloadDef {
        find(name).expect("known workload")
    }

    #[test]
    fn key_spaces_match_the_store_sizes() {
        assert_eq!(def("read_zipf").n_keys(), 524_288);
        assert_eq!(def("rpc_1q").n_keys(), 524_288);
        // 16 MB over a mean slab class of 688 B, times four.
        assert_eq!(def("resp_ttl_churn").n_keys(), 4 * (16 << 20) / 688);
    }

    #[test]
    fn dido_pool_decodes_to_its_expected_ops() {
        let d = def("read_zipf");
        let mut g = WorkloadGen::new(d.spec(), 1000, 7);
        let pool = Pool::dido((0..5).map(|_| g.batch(d.queries_per_request)));
        assert_eq!(pool.len(), 5);
        for i in 0..5 {
            let wire = Bytes::copy_from_slice(pool.wire(i, 1));
            let Carve::Request { total, skip } = carve_one(ProtocolKind::Dido, &wire).unwrap()
            else {
                panic!("incomplete frame");
            };
            assert_eq!(total, wire.len());
            let mut out = Vec::new();
            decode_request(ProtocolKind::Dido, &wire.slice(skip..total), 0, &mut out);
            assert_eq!(out.len(), pool.ops(i).len());
            for (q, op) in out.iter().zip(pool.ops(i)) {
                match op {
                    Op::Get(id) => assert_eq!(*id, key_id(&q.key)),
                    Op::Set => assert_eq!(q.op, QueryOp::Set),
                }
            }
        }
        assert_eq!(pool.wire(0, 5).len(), pool.wire.len());
    }

    #[test]
    fn resp_pool_decodes_with_ttls() {
        let d = def("resp_ttl_churn");
        let mut g = TtlChurnGen::new(d.spec(), 500, 3, &TTL_LADDER);
        let queries: Vec<Query> = (0..400).map(|_| g.next_query()).collect();
        let pool = Pool::resp(queries.iter().cloned());
        let mut ttls = std::collections::BTreeSet::new();
        for (i, q) in queries.iter().enumerate() {
            let wire = Bytes::copy_from_slice(pool.wire(i, 1));
            assert_eq!(
                carve_one(ProtocolKind::Resp, &wire).unwrap(),
                Carve::Request {
                    total: wire.len(),
                    skip: 0
                }
            );
            let mut out = Vec::new();
            decode_request(ProtocolKind::Resp, &wire, 0, &mut out);
            assert_eq!(out, vec![q.clone()]);
            if q.op == QueryOp::Set {
                ttls.insert(q.ttl);
            }
        }
        let ladder: std::collections::BTreeSet<u32> = TTL_LADDER.into_iter().collect();
        assert_eq!(ttls, ladder, "every TTL rung is drawn");
    }

    #[test]
    fn pools_repeat_per_seed() {
        let d = def("rpc_1q");
        let small = WorkloadDef {
            pool_requests: 64,
            ..*d
        };
        let a = small.pools(11);
        let b = small.pools(11);
        let c = small.pools(12);
        assert_eq!(a[0].wire, b[0].wire);
        assert_ne!(a[0].wire, a[1].wire, "connections draw different streams");
        assert_ne!(a[0].wire, c[0].wire);
    }

    #[test]
    fn preload_covers_every_key_once() {
        let d = WorkloadDef {
            store_mb: 1,
            ..*def("read_zipf")
        };
        let pools = d.preload_pools();
        let sets: usize = pools.iter().map(|p| p.ops.len()).sum();
        assert_eq!(sets as u64, d.n_keys());
        assert!(pools.iter().all(|p| p.ops.iter().all(|op| *op == Op::Set)));
    }
}
