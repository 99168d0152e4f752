//! Hot-path regression harness: seed scalar pipeline vs the
//! wavefront-vectorized zero-allocation path.
//!
//! The scalar reference below is a line-for-line replica of the task
//! bodies as they stood before the vectorization PR: per-query
//! [`IndexTable::search`](dido_hashtable::IndexTable::search), a
//! per-query `Vec::with_capacity` staging buffer in `RD`, and a
//! per-response `Bytes::from` copy in `WR`. The vectorized side runs
//! the real [`dido_pipeline::tasks`] — batched probes with software
//! prefetch, one staging arena per batch, zero-copy response slices.
//! Both sides carry the same [`ResourceUsage`] accounting and cache
//! filter traffic, so the measured delta isolates the memory-layout
//! change.
//!
//! Results are reported as ops/sec per (workload mix × batch size) cell
//! and serialized by [`HotpathReport::to_json`] for `BENCH_hotpath.json`.

use dido_apu_sim::HwSpec;
use dido_hashtable::{key_hash, Candidates};
use dido_kvstore::{EvictedObject, HEADER_SIZE};
use dido_model::costs::{self, lines_for};
use dido_model::{
    PipelineConfig, Processor, Query, QueryOp, ResourceUsage, Response, TaskKind, TaskSet,
};
use dido_pipeline::{preloaded_engine, tasks, Batch, KvEngine, StageCtx, TestbedOptions};
use dido_workload::{Dataset, KeyDistribution, WorkloadSpec};
use std::time::Instant;

/// Speedup the vectorized path must reach over the scalar reference on
/// the GET-heavy 8192-query cell (the PR's acceptance bar).
pub const ACCEPT_THRESHOLD: f64 = 1.3;

/// Batch sizes measured per mix; 64 matches the probe wavefront /
/// steal-tag granularity, 8192 is the paper's standard batch.
pub const BATCH_SIZES: [usize; 3] = [64, 512, 8192];

/// A workload mix measured by the harness.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Stable name used in the JSON report (`get_heavy`, ...).
    pub name: &'static str,
    /// Fraction of GETs; the remainder are SETs.
    pub get_ratio: f64,
}

/// The three mixes of the harness: pure GET, SET-dominated, and the
/// paper's standard 95/5 read-mostly mix.
pub const MIXES: [Mix; 3] = [
    Mix {
        name: "get_heavy",
        get_ratio: 1.0,
    },
    Mix {
        name: "set_heavy",
        get_ratio: 0.05,
    },
    Mix {
        name: "mixed_95_5",
        get_ratio: 0.95,
    },
];

/// Harness knobs (store size, measurement volume, workload seed).
#[derive(Debug, Clone, Copy)]
pub struct HotpathOptions {
    /// Smoke mode: tiny store and few iterations, for CI.
    pub quick: bool,
    /// Workload generator seed.
    pub seed: u64,
    /// Object-store bytes per engine.
    pub store_bytes: usize,
    /// Queries measured per cell and path (split into batches).
    pub target_queries: usize,
}

impl Default for HotpathOptions {
    fn default() -> HotpathOptions {
        HotpathOptions {
            quick: false,
            seed: 0xD1D0,
            store_bytes: 48 << 20,
            target_queries: 1 << 18,
        }
    }
}

impl HotpathOptions {
    /// CI smoke configuration: small store, just enough iterations to
    /// exercise every cell.
    #[must_use]
    pub fn quick() -> HotpathOptions {
        HotpathOptions {
            quick: true,
            store_bytes: 8 << 20,
            target_queries: 1 << 14,
            ..HotpathOptions::default()
        }
    }
}

/// One (mix × batch size) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Mix name (`get_heavy`, `set_heavy`, `mixed_95_5`).
    pub mix: &'static str,
    /// Queries per batch.
    pub batch_size: usize,
    /// Scalar reference throughput, million ops/sec.
    pub scalar_mops: f64,
    /// Vectorized path throughput, million ops/sec.
    pub vectorized_mops: f64,
}

impl Cell {
    /// Vectorized-over-scalar throughput ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.scalar_mops > 0.0 {
            self.vectorized_mops / self.scalar_mops
        } else {
            0.0
        }
    }
}

/// Full harness output: every cell plus the run configuration.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Options the run used.
    pub opts: HotpathOptions,
    /// One entry per mix × batch size, in `MIXES` × `BATCH_SIZES` order.
    pub cells: Vec<Cell>,
}

impl HotpathReport {
    /// Look up one cell's speedup.
    #[must_use]
    pub fn speedup(&self, mix: &str, batch_size: usize) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.mix == mix && c.batch_size == batch_size)
            .map(Cell::speedup)
    }

    /// The acceptance measurement: GET-heavy at the largest batch.
    #[must_use]
    pub fn acceptance_speedup(&self) -> f64 {
        self.speedup("get_heavy", BATCH_SIZES[2]).unwrap_or(0.0)
    }

    /// Serialize as JSON (hand-rolled; the build has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"bench\": \"hotpath\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!(
            "  \"store_mb\": {},\n",
            self.opts.store_bytes >> 20
        ));
        s.push_str(&format!(
            "  \"batch_sizes\": [{}, {}, {}],\n",
            BATCH_SIZES[0], BATCH_SIZES[1], BATCH_SIZES[2]
        ));
        let acc = self.acceptance_speedup();
        s.push_str("  \"acceptance\": {\n");
        s.push_str(&format!(
            "    \"metric\": \"get_heavy@{} vectorized/scalar\",\n",
            BATCH_SIZES[2]
        ));
        s.push_str(&format!("    \"threshold\": {ACCEPT_THRESHOLD},\n"));
        s.push_str(&format!("    \"speedup\": {acc:.3},\n"));
        s.push_str(&format!("    \"pass\": {}\n", acc >= ACCEPT_THRESHOLD));
        s.push_str("  },\n");
        s.push_str("  \"mixes\": [\n");
        for (mi, mix) in MIXES.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", mix.name));
            s.push_str(&format!("      \"get_ratio\": {},\n", mix.get_ratio));
            s.push_str("      \"cells\": [\n");
            let cells: Vec<&Cell> = self.cells.iter().filter(|c| c.mix == mix.name).collect();
            for (ci, c) in cells.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"batch_size\": {}, \"scalar_mops\": {:.3}, \
                     \"vectorized_mops\": {:.3}, \"speedup\": {:.3}}}{}\n",
                    c.batch_size,
                    c.scalar_mops,
                    c.vectorized_mops,
                    c.speedup(),
                    if ci + 1 < cells.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if mi + 1 < MIXES.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Per-query scratch of the scalar reference path — the fields
/// `Batch`'s `QueryState` carried before the arena rewrite, including
/// the per-query `staged: Option<Vec<u8>>` buffer this PR removed.
#[derive(Default)]
struct ScalarState {
    candidates: Candidates,
    new_loc: Option<u64>,
    evicted: Option<EvictedObject>,
    loc: Option<u64>,
    staged: Option<Vec<u8>>,
    response: Option<Response>,
}

/// Run one batch through the seed scalar pipeline (MM → IN → KC → RD →
/// WR, one query at a time) and return its responses.
///
/// This replicates the pre-vectorization task bodies exactly — same
/// stage order, same `ResourceUsage` formulas, same cache-filter
/// traffic — so it is the honest "before" side of the comparison. (The
/// engine op counters are `pub(crate)` to the pipeline crate and are
/// not bumped here; that slightly favors this scalar side.)
pub fn run_scalar_batch(ctx: StageCtx, engine: &KvEngine, queries: &[Query]) -> Vec<Response> {
    let n = queries.len();
    let mut state: Vec<ScalarState> = Vec::with_capacity(n);
    state.resize_with(n, ScalarState::default);
    let mut usage = ResourceUsage::ZERO;

    // MM: allocate (evicting if needed) for every SET.
    for (q, st) in queries.iter().zip(state.iter_mut()) {
        if q.op != QueryOp::Set {
            continue;
        }
        usage += ResourceUsage::new(costs::MM_INSNS_PER_ALLOC, costs::MM_MEM_PER_ALLOC, 0);
        match engine.store.allocate(&q.key, &q.value) {
            Ok(out) => {
                if out.evicted.is_some() {
                    usage +=
                        ResourceUsage::new(costs::MM_INSNS_PER_EVICT, costs::MM_MEM_PER_EVICT, 0);
                }
                let obj_lines = lines_for(q.key.len() + q.value.len(), ctx.cache_line);
                usage += ResourceUsage::new(obj_lines * costs::INSNS_PER_LINE, 0, obj_lines)
                    .with_bytes((q.key.len() + q.value.len()) as u64);
                if let Some(ev) = &out.evicted {
                    engine.cache_invalidate(ev.loc);
                }
                st.new_loc = Some(out.loc);
                st.evicted = out.evicted;
            }
            Err(_) => st.response = Some(Response::error()),
        }
    }

    // IN-Insert: one scalar upsert per SET.
    for (q, st) in queries.iter().zip(state.iter_mut()) {
        if q.op != QueryOp::Set {
            continue;
        }
        let Some(new_loc) = st.new_loc else { continue };
        let kh = key_hash(&q.key);
        let (res, u) = engine.index.upsert(kh, new_loc);
        usage += u;
        match res {
            Ok(_replaced) => st.response = Some(Response::ok()),
            Err(_) => {
                engine.store.free(new_loc);
                st.response = Some(Response::error());
            }
        }
    }

    // IN-Delete: eviction cleanup plus explicit DELETEs.
    for (q, st) in queries.iter().zip(state.iter_mut()) {
        if let Some(ev) = st.evicted.take() {
            let kh = key_hash(&ev.key);
            let (_, u) = engine.index.delete(kh, ev.loc);
            usage += u;
        }
        if q.op != QueryOp::Delete {
            continue;
        }
        let kh = key_hash(&q.key);
        let (cands, u) = engine.index.search(kh);
        usage += u;
        let mut response = Response::not_found();
        for &loc in cands.as_slice() {
            let key_lines = lines_for(q.key.len(), ctx.cache_line);
            usage += ResourceUsage::new(
                costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE,
                1,
                key_lines.saturating_sub(1),
            );
            if engine.store.key_matches(loc, &q.key) {
                let (removed, du) = engine.index.delete(kh, loc);
                usage += du;
                if removed {
                    engine.store.free(loc);
                    engine.cache_invalidate(loc);
                    response = Response::ok();
                }
                break;
            }
        }
        st.response = Some(response);
    }

    // IN-Search: one scalar probe per GET.
    for (q, st) in queries.iter().zip(state.iter_mut()) {
        if q.op != QueryOp::Get {
            continue;
        }
        let kh = key_hash(&q.key);
        let (cands, u) = engine.index.search(kh);
        usage += u;
        st.candidates = cands;
    }

    // KC: candidate key comparison + hot-set filter traffic.
    let epoch = engine.sample_epoch();
    for (q, st) in queries.iter().zip(state.iter_mut()) {
        if q.op != QueryOp::Get {
            continue;
        }
        let key_lines = lines_for(q.key.len(), ctx.cache_line);
        let mut resolved = None;
        for &loc in st.candidates.as_slice() {
            let (klen, vlen) = engine.store.object_lens(loc);
            let obj_bytes = (HEADER_SIZE + klen + vlen) as u64;
            let cache_hit = engine.cache_access(ctx.processor, loc, obj_bytes);
            usage += if cache_hit {
                ResourceUsage::new(
                    costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE,
                    0,
                    key_lines,
                )
            } else {
                ResourceUsage::new(
                    costs::KC_INSNS_PER_CANDIDATE + key_lines * costs::INSNS_PER_LINE,
                    1,
                    key_lines.saturating_sub(1),
                )
            };
            if engine.store.key_matches(loc, &q.key) {
                resolved = Some(loc);
                engine.store.touch(loc, epoch);
                break;
            }
        }
        st.loc = resolved;
        if resolved.is_none() {
            st.response = Some(Response::not_found());
        }
    }

    // RD: per-query `Vec` staging — the allocation the arena removed.
    for (q, st) in queries.iter().zip(state.iter_mut()) {
        let Some(loc) = st.loc else { continue };
        if q.op != QueryOp::Get {
            continue;
        }
        let (klen, vlen) = engine.store.object_lens(loc);
        let val_lines = lines_for(vlen, ctx.cache_line);
        let obj_bytes = (HEADER_SIZE + klen + vlen) as u64;
        let warm = engine.cache_access(ctx.processor, loc, obj_bytes);
        usage += if warm {
            ResourceUsage::new(val_lines * costs::INSNS_PER_LINE, 0, val_lines)
        } else {
            ResourceUsage::new(
                val_lines * costs::INSNS_PER_LINE,
                1,
                val_lines.saturating_sub(1),
            )
        }
        .with_bytes(vlen as u64);
        let mut staged = Vec::with_capacity(vlen);
        engine.store.read_value(loc, &mut staged);
        st.staged = Some(staged);
        usage += ResourceUsage::new(val_lines * costs::INSNS_PER_LINE, 0, val_lines);
    }

    // WR: `Bytes::from(staged)` — the per-response copy the arena
    // slices removed.
    let rd_same_stage = ctx.stage_tasks.contains(TaskKind::Rd);
    for (q, st) in queries.iter().zip(state.iter_mut()) {
        if st.response.is_some() {
            continue;
        }
        usage += ResourceUsage::new(costs::WR_INSNS_PER_QUERY, 0, 1);
        match q.op {
            QueryOp::Get => match st.staged.take() {
                Some(staged) => {
                    let val_lines = lines_for(staged.len(), ctx.cache_line);
                    if !rd_same_stage {
                        usage +=
                            ResourceUsage::new(val_lines * costs::INSNS_PER_LINE, 0, val_lines);
                    }
                    st.response = Some(Response::hit(bytes::Bytes::from(staged)));
                }
                None => st.response = Some(Response::not_found()),
            },
            QueryOp::Set | QueryOp::Delete => st.response = Some(Response::error()),
        }
    }

    std::hint::black_box(usage);
    state
        .into_iter()
        .map(|st| st.response.unwrap_or_else(Response::error))
        .collect()
}

/// Run one batch through the real wavefront-vectorized tasks (the
/// "after" side) and return its responses.
pub fn run_vectorized_batch(
    ctx: StageCtx,
    engine: &KvEngine,
    queries: Vec<Query>,
    config: PipelineConfig,
) -> Vec<Response> {
    let mut batch = Batch::new(queries, config);
    let n = batch.len();
    let usage = ctx.price(|a| {
        tasks::run_mm(a, engine, &mut batch, 0..n);
        tasks::run_index_insert(a, engine, &mut batch, 0..n);
        tasks::run_index_delete(a, engine, &mut batch, 0..n);
        tasks::run_index_search(a, engine, &mut batch, 0..n);
        tasks::run_kc(a, engine, &mut batch, 0..n);
        tasks::run_rd(a, engine, &mut batch, 0..n);
        tasks::run_wr(a, &mut batch, 0..n);
    });
    std::hint::black_box(usage);
    batch.take_responses()
}

/// Single-stage context both paths run under: everything on the CPU in
/// one stage (the layout-neutral configuration — no inter-stage copy on
/// either side).
#[must_use]
pub fn all_on_cpu_ctx() -> StageCtx {
    StageCtx::new(Processor::Cpu, TaskSet::from_tasks(&TaskKind::ALL), 64)
}

fn measure_cell(mix: Mix, batch_size: usize, opts: &HotpathOptions) -> Cell {
    let spec = WorkloadSpec::new(Dataset::K16, mix.get_ratio, KeyDistribution::YCSB_ZIPF);
    let hw = HwSpec::kaveri_apu();
    let topts = TestbedOptions {
        store_bytes: opts.store_bytes,
        seed: opts.seed,
        ..TestbedOptions::default()
    };
    // Twin engines preloaded identically; each side replays the same
    // recorded batches, so SET-driven evictions stay in lockstep.
    let (scalar_engine, mut generator) = preloaded_engine(spec, &hw, topts);
    let (vector_engine, _) = preloaded_engine(spec, &hw, topts);
    let ctx = all_on_cpu_ctx();
    let config = PipelineConfig::mega_kv();

    let iters = (opts.target_queries / batch_size).max(2);
    let batches: Vec<Vec<Query>> = (0..iters).map(|_| generator.batch(batch_size)).collect();
    let warmup = generator.batch(batch_size);

    std::hint::black_box(run_scalar_batch(ctx, &scalar_engine, &warmup));
    let start = Instant::now();
    for b in &batches {
        std::hint::black_box(run_scalar_batch(ctx, &scalar_engine, b));
    }
    let scalar_elapsed = start.elapsed();

    // Clone outside the timed region; `Batch::new` consumes the queries.
    let vector_batches: Vec<Vec<Query>> = batches.clone();
    std::hint::black_box(run_vectorized_batch(ctx, &vector_engine, warmup, config));
    let start = Instant::now();
    for qs in vector_batches {
        std::hint::black_box(run_vectorized_batch(ctx, &vector_engine, qs, config));
    }
    let vector_elapsed = start.elapsed();

    let total = (iters * batch_size) as f64;
    Cell {
        mix: mix.name,
        batch_size,
        scalar_mops: total / scalar_elapsed.as_secs_f64() / 1e6,
        vectorized_mops: total / vector_elapsed.as_secs_f64() / 1e6,
    }
}

/// Run the full mix × batch-size matrix and collect a report.
/// `progress` receives each finished cell (for live printing).
pub fn run_hotpath(opts: &HotpathOptions, mut progress: impl FnMut(&Cell)) -> HotpathReport {
    let mut cells = Vec::with_capacity(MIXES.len() * BATCH_SIZES.len());
    for mix in MIXES {
        for batch_size in BATCH_SIZES {
            let cell = measure_cell(mix, batch_size, opts);
            progress(&cell);
            cells.push(cell);
        }
    }
    HotpathReport { opts: *opts, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference and the vectorized tasks must agree
    /// response-for-response on the same recorded stream — otherwise
    /// the benchmark compares different semantics.
    #[test]
    fn scalar_reference_matches_vectorized_path() {
        let spec = WorkloadSpec::new(Dataset::K16, 0.9, KeyDistribution::YCSB_ZIPF);
        let hw = HwSpec::kaveri_apu();
        let topts = TestbedOptions {
            store_bytes: 1 << 20,
            seed: 7,
            ..TestbedOptions::default()
        };
        let (scalar_engine, mut generator) = preloaded_engine(spec, &hw, topts);
        let (vector_engine, _) = preloaded_engine(spec, &hw, topts);
        let ctx = all_on_cpu_ctx();
        for round in 0..4 {
            let queries = generator.batch(300);
            let scalar = run_scalar_batch(ctx, &scalar_engine, &queries);
            let vector =
                run_vectorized_batch(ctx, &vector_engine, queries, PipelineConfig::mega_kv());
            assert_eq!(scalar.len(), vector.len());
            for (i, (s, v)) in scalar.iter().zip(&vector).enumerate() {
                assert_eq!(s, v, "round {round} query {i}");
            }
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = HotpathReport {
            opts: HotpathOptions::quick(),
            cells: MIXES
                .iter()
                .flat_map(|m| {
                    BATCH_SIZES.map(|b| Cell {
                        mix: m.name,
                        batch_size: b,
                        scalar_mops: 1.0,
                        vectorized_mops: 1.5,
                    })
                })
                .collect(),
        };
        let json = report.to_json();
        assert_eq!(json.matches("\"batch_size\"").count(), 9);
        assert_eq!(json.matches("\"name\"").count(), 3);
        assert!(json.contains("\"speedup\": 1.500"));
        assert!(json.contains("\"pass\": true"));
        assert_eq!(report.acceptance_speedup(), 1.5);
        // Balanced braces/brackets — cheap well-formedness check in a
        // build without a JSON parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
