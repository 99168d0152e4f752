//! Striped (per-dispatcher) workload accumulators for the concurrent
//! serving path.
//!
//! The sequential profiler owns a `&mut WorkloadProfiler` and folds each
//! batch in-line; with N dispatchers calling `process_batch(&self)`
//! concurrently that would serialize the data plane on profiling. Instead
//! each dispatcher lane owns a *stripe* of monotonic counters (one
//! relaxed `fetch_add` per counter per batch — the per-query work stays
//! in thread-local sums) and the control plane folds all stripes on read.
//! Folds are cumulative, so the controller diffs consecutive folds to get
//! an interval profile; nothing is ever reset, which is what makes the
//! scheme lossless under concurrency (the stress tests assert exact
//! totals).
//!
//! Key-frequency sampling for the Zipf skew estimate keeps the exact
//! sequential algorithm (sample 1-in-`skew_sample_rate`, estimate every
//! `skew_window` samples), but runs it per stripe under an uncontended
//! per-lane mutex; completed windows publish to one shared atomic cell,
//! last writer wins. With a single lane the published sequence is
//! bit-identical to `WorkloadProfiler::observe_queries`.

use crate::profiler::ProfilerConfig;
use dido_cost_model::estimate_skew;
use dido_hashtable::hash64;
use dido_kvstore::ClassStats;
use dido_model::{Query, QueryOp, WorkloadStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Memory-plane snapshot published by the control plane: cumulative
/// expiry counters plus per-size-class occupancy gauges. Like the skew
/// cell this folds by last value — the controller publishes a fresh
/// snapshot each sweep tick and readers see the most recent one; the
/// data plane never touches it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryFold {
    /// Objects expired in-band on the lookup path (cumulative).
    pub expired_lazy: u64,
    /// Objects freed by whole-segment reclamation (cumulative).
    pub expired_proactive: u64,
    /// TTL segments reclaimed as a unit (cumulative).
    pub segments_reclaimed: u64,
    /// Sealed TTL segments awaiting expiry (gauge).
    pub sealed_segments: u64,
    /// Per-class occupancy / free-slot / fragmentation gauges.
    pub classes: Vec<ClassStats>,
}

/// One dispatcher lane's counters. Fields are cumulative and only ever
/// added to (relaxed ordering is enough: folds happen-after the batch
/// via the caller's own synchronization, and exactness only needs
/// atomicity of each add).
#[derive(Debug, Default)]
struct Stripe {
    batches: AtomicU64,
    queries: AtomicU64,
    gets: AtomicU64,
    deletes: AtomicU64,
    key_bytes: AtomicU64,
    set_value_bytes: AtomicU64,
    hits: AtomicU64,
    hit_value_bytes: AtomicU64,
    busy_ns: AtomicU64,
    skew: Mutex<SkewWindow>,
}

/// Per-lane key-frequency sampling state (the sequential profiler's
/// window algorithm, verbatim).
#[derive(Debug, Default)]
struct SkewWindow {
    freqs: HashMap<u64, u32>,
    window_seen: usize,
    sample_tick: usize,
}

/// A cumulative fold of every stripe, taken at one instant.
///
/// Subtract two folds ([`StatsFold::delta`]) to profile the interval
/// between them; convert a delta to [`WorkloadStats`] with
/// [`StatsFold::workload_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsFold {
    /// Batches served.
    pub batches: u64,
    /// Queries observed.
    pub queries: u64,
    /// GET queries observed.
    pub gets: u64,
    /// DELETE queries observed.
    pub deletes: u64,
    /// Total key bytes across all queries.
    pub key_bytes: u64,
    /// Total value bytes across SET queries.
    pub set_value_bytes: u64,
    /// GET queries that resolved to an object.
    pub hits: u64,
    /// Total value bytes returned by those hits.
    pub hit_value_bytes: u64,
    /// Time spent serving batches, ns, as the owning system measures
    /// it: wall time on the serving core, virtual time on the simulator.
    pub busy_ns: u64,
}

impl StatsFold {
    /// Counters accumulated since `earlier` (which must be an older fold
    /// of the same [`StripedStats`]; counters are monotonic).
    #[must_use]
    pub fn delta(&self, earlier: &StatsFold) -> StatsFold {
        StatsFold {
            batches: self.batches - earlier.batches,
            queries: self.queries - earlier.queries,
            gets: self.gets - earlier.gets,
            deletes: self.deletes - earlier.deletes,
            key_bytes: self.key_bytes - earlier.key_bytes,
            set_value_bytes: self.set_value_bytes - earlier.set_value_bytes,
            hits: self.hits - earlier.hits,
            hit_value_bytes: self.hit_value_bytes - earlier.hit_value_bytes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    /// The interval profile as [`WorkloadStats`], mirroring the
    /// simulator's per-batch accounting: `avg_value_size` weights SET
    /// payloads against resolved-GET payloads (the executor's GET-hit
    /// correction), `zipf_skew` is supplied by the caller from the skew
    /// cell, and `batch_size` is the interval's query count.
    #[must_use]
    pub fn workload_stats(&self, zipf_skew: f64) -> WorkloadStats {
        let n = self.queries as f64;
        let sets = self.queries - self.gets - self.deletes;
        let value_weight = sets + self.hits;
        WorkloadStats {
            get_ratio: if self.queries == 0 { 0.0 } else { self.gets as f64 / n },
            delete_ratio: if self.queries == 0 { 0.0 } else { self.deletes as f64 / n },
            avg_key_size: if self.queries == 0 { 0.0 } else { self.key_bytes as f64 / n },
            avg_value_size: if value_weight == 0 {
                0.0
            } else {
                (self.set_value_bytes + self.hit_value_bytes) as f64 / value_weight as f64
            },
            zipf_skew,
            batch_size: self.queries as usize,
        }
    }
}

/// Striped workload accumulators: one counter stripe per dispatcher
/// lane, one shared skew estimate.
#[derive(Debug)]
pub struct StripedStats {
    cfg: ProfilerConfig,
    stripes: Vec<Stripe>,
    /// Latest completed-window skew estimate, as `f64` bits.
    skew_bits: AtomicU64,
    /// Latest memory-plane snapshot (last writer wins).
    memory: Mutex<MemoryFold>,
}

impl StripedStats {
    /// Accumulators with `lanes` stripes (at least one).
    #[must_use]
    pub fn new(lanes: usize, cfg: ProfilerConfig) -> StripedStats {
        StripedStats {
            cfg,
            stripes: (0..lanes.max(1)).map(|_| Stripe::default()).collect(),
            skew_bits: AtomicU64::new(0f64.to_bits()),
            memory: Mutex::new(MemoryFold::default()),
        }
    }

    /// Number of stripes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.stripes.len()
    }

    /// Observe one batch on `lane` (wrapped into range): fold the batch
    /// counters in and advance the lane's frequency-sampling window.
    /// `n_keys` is the live key count used when a window completes.
    pub fn observe(&self, lane: usize, queries: &[Query], n_keys: u64) {
        let stripe = &self.stripes[lane % self.stripes.len()];
        let mut gets = 0u64;
        let mut deletes = 0u64;
        let mut key_bytes = 0u64;
        let mut set_value_bytes = 0u64;
        for q in queries {
            key_bytes += q.key.len() as u64;
            match q.op {
                QueryOp::Get => gets += 1,
                QueryOp::Delete => deletes += 1,
                QueryOp::Set => set_value_bytes += q.value.len() as u64,
            }
        }
        stripe.queries.fetch_add(queries.len() as u64, Ordering::Relaxed);
        stripe.gets.fetch_add(gets, Ordering::Relaxed);
        stripe.deletes.fetch_add(deletes, Ordering::Relaxed);
        stripe.key_bytes.fetch_add(key_bytes, Ordering::Relaxed);
        stripe.set_value_bytes.fetch_add(set_value_bytes, Ordering::Relaxed);

        let mut w = stripe.skew.lock();
        for q in queries {
            w.sample_tick += 1;
            if !w.sample_tick.is_multiple_of(self.cfg.skew_sample_rate) {
                continue;
            }
            *w.freqs.entry(hash64(&q.key)).or_insert(0) += 1;
            w.window_seen += 1;
            if w.window_seen >= self.cfg.skew_window {
                let freqs: Vec<u32> = w.freqs.values().copied().collect();
                let skew = estimate_skew(&freqs, n_keys.max(1));
                self.skew_bits.store(skew.to_bits(), Ordering::Relaxed);
                w.freqs.clear();
                w.window_seen = 0;
            }
        }
    }

    /// Fold a served batch's GET-hit outcome and serving time into
    /// `lane`'s stripe.
    pub fn record_batch(&self, lane: usize, hits: u64, hit_value_bytes: u64, busy_ns: u64) {
        let stripe = &self.stripes[lane % self.stripes.len()];
        stripe.batches.fetch_add(1, Ordering::Relaxed);
        stripe.hits.fetch_add(hits, Ordering::Relaxed);
        stripe.hit_value_bytes.fetch_add(hit_value_bytes, Ordering::Relaxed);
        stripe.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
    }

    /// Latest completed-window skew estimate (0 until a window fills).
    #[must_use]
    pub fn skew(&self) -> f64 {
        f64::from_bits(self.skew_bits.load(Ordering::Relaxed))
    }

    /// Publish a fresh memory-plane snapshot (controller sweep tick).
    pub fn publish_memory(&self, fold: MemoryFold) {
        *self.memory.lock() = fold;
    }

    /// The most recently published memory-plane snapshot.
    #[must_use]
    pub fn memory(&self) -> MemoryFold {
        self.memory.lock().clone()
    }

    /// Cumulative fold across all stripes.
    #[must_use]
    pub fn fold(&self) -> StatsFold {
        let mut f = StatsFold::default();
        for s in &self.stripes {
            f.batches += s.batches.load(Ordering::Relaxed);
            f.queries += s.queries.load(Ordering::Relaxed);
            f.gets += s.gets.load(Ordering::Relaxed);
            f.deletes += s.deletes.load(Ordering::Relaxed);
            f.key_bytes += s.key_bytes.load(Ordering::Relaxed);
            f.set_value_bytes += s.set_value_bytes.load(Ordering::Relaxed);
            f.hits += s.hits.load(Ordering::Relaxed);
            f.hit_value_bytes += s.hit_value_bytes.load(Ordering::Relaxed);
            f.busy_ns += s.busy_ns.load(Ordering::Relaxed);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::WorkloadProfiler;
    use dido_workload::{WorkloadGen, WorkloadSpec};

    #[test]
    fn fold_matches_batch_counters() {
        let s = StripedStats::new(2, ProfilerConfig::default());
        let spec = WorkloadSpec::from_label("K16-G95-U").unwrap();
        let mut g = WorkloadGen::new(spec, 10_000, 1);
        let a = g.batch(1000);
        let b = g.batch(500);
        s.observe(0, &a, 10_000);
        s.observe(1, &b, 10_000);
        s.record_batch(1, 42, 42 * 64, 1_000);
        let f = s.fold();
        assert_eq!(f.batches, 1);
        assert_eq!(f.busy_ns, 1_000);
        assert_eq!(f.queries, 1500);
        let gets = a.iter().chain(&b).filter(|q| q.op == QueryOp::Get).count() as u64;
        assert_eq!(f.gets, gets);
        assert_eq!(f.hits, 42);
        let d = f.delta(&f);
        assert_eq!(d, StatsFold::default());
    }

    #[test]
    fn single_lane_skew_matches_sequential_profiler() {
        let cfg = ProfilerConfig {
            skew_window: 2_048,
            skew_sample_rate: 2,
            ..ProfilerConfig::default()
        };
        let s = StripedStats::new(1, cfg);
        let mut p = WorkloadProfiler::new(cfg);
        let spec = WorkloadSpec::from_label("K8-G100-S").unwrap();
        let mut g = WorkloadGen::new(spec, 50_000, 7);
        for _ in 0..6 {
            let batch = g.batch(4_096);
            s.observe(0, &batch, 50_000);
            p.observe_queries(&batch, 50_000);
            assert_eq!(s.skew().to_bits(), p.skew().to_bits());
        }
        assert!(s.skew() > 0.5, "Zipf stream must register skew");
    }

    #[test]
    fn delta_stats_mirror_the_interval() {
        let s = StripedStats::new(1, ProfilerConfig::default());
        let spec = WorkloadSpec::from_label("K16-G50-U").unwrap();
        let mut g = WorkloadGen::new(spec, 10_000, 3);
        s.observe(0, &g.batch(2000), 10_000);
        let before = s.fold();
        let batch = g.batch(1000);
        s.observe(0, &batch, 10_000);
        let stats = s.fold().delta(&before).workload_stats(0.25);
        assert_eq!(stats.batch_size, 1000);
        let gets = batch.iter().filter(|q| q.op == QueryOp::Get).count();
        assert!((stats.get_ratio - gets as f64 / 1000.0).abs() < 1e-12);
        assert!((stats.zipf_skew - 0.25).abs() < 1e-12);
        assert!(stats.avg_key_size > 0.0);
    }
}
