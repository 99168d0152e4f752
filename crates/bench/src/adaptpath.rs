//! Adaptive serving-core harness: legacy single-lock node vs the
//! concurrent [`ServingCore`] behind the real batched TCP front-end,
//! under a shifting workload.
//!
//! Both sides serve the same pre-encoded client streams — the Figure
//! 20/21 alternation (K8-G50-U ↔ K16-G95-S) with §II-C interest spikes
//! overlaid on the first phase — through [`KvServer`] in batched
//! dispatch mode at 1, 2 and 4 dispatchers. They differ only in the
//! serving architecture behind the handler:
//!
//! * `locked` — the seed server's architecture: one [`DidoSystem`]
//!   behind a global mutex. Every frame takes the lock and runs the
//!   full simulator data path (query re-encode → RX frames → parse →
//!   execute → response encode → TX → parse back) with profiling and
//!   inline cost-model re-planning on the critical path, serializing
//!   all dispatchers.
//! * `concurrent` — the refactored core: dispatchers call
//!   [`ServingCore::process_batch`] directly, which serves inline on
//!   the calling thread through the fused serve pass, stripes its
//!   profiling into per-lane atomics, and leaves the cost model to a
//!   background controller thread.
//!
//! The acceptance metric is the concurrent/locked throughput ratio at
//! 4 dispatchers (mean over repeats' best runs). The harness also
//! measures *time-to-readapt*: after the client stream flips phase,
//! how long until the node's adaption counter moves. Results serialize
//! via [`AdaptReport::to_json`] for `BENCH_adaptpath.json`.

use bytes::{Bytes, BytesMut};
use dido::{DidoOptions, DidoSystem, ServingCore};
use dido_net::{encode_queries_wire_into, BatchConfig, DispatchMode, KvClient, KvServer};
use dido_pipeline::TestbedOptions;
use dido_workload::{SpikeGen, WorkloadGen, WorkloadSpec};
use parking_lot::Mutex;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::netpath::{drive_client, percentile_us};

/// Required concurrent/locked throughput ratio at 4 dispatchers.
pub const ACCEPT_THRESHOLD: f64 = 1.8;

/// Dispatcher counts measured per mode.
pub const DISPATCHERS: [usize; 3] = [1, 2, 4];

/// The two serving architectures, as named in the JSON report.
pub const MODES: [&str; 2] = ["locked", "concurrent"];

/// The alternation pair from Figures 20/21.
const PHASE_A: &str = "K8-G50-U";
const PHASE_B: &str = "K16-G95-S";

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdaptpathOptions {
    /// Smoke mode: few frames per cell, for CI.
    pub quick: bool,
    /// Workload generator seed.
    pub seed: u64,
    /// Object-store bytes for the server node.
    pub store_bytes: usize,
    /// Total frames measured per cell (split across connections).
    pub target_frames: usize,
    /// Queries per request frame.
    pub frame_queries: usize,
    /// Concurrent client connections (fixed across cells so only the
    /// dispatcher count varies).
    pub connections: usize,
    /// In-flight frames per connection (pipelining depth).
    pub window: usize,
    /// Batched-mode drain window, microseconds.
    pub max_batch_delay_us: u64,
    /// Workload phase flips every this many frames of a connection's
    /// stream.
    pub shift_every_frames: usize,
    /// Background controller cadence for the concurrent mode.
    pub controller_period_us: u64,
    /// Measurement attempts per cell; the best throughput run is kept,
    /// with modes interleaved inside each attempt round.
    pub repeats: usize,
}

impl Default for AdaptpathOptions {
    fn default() -> AdaptpathOptions {
        AdaptpathOptions {
            quick: false,
            seed: 0xD1D0,
            store_bytes: 8 << 20,
            target_frames: 2048,
            frame_queries: 64,
            connections: 8,
            window: 8,
            max_batch_delay_us: 200,
            shift_every_frames: 64,
            controller_period_us: 2_000,
            repeats: 3,
        }
    }
}

impl AdaptpathOptions {
    /// CI smoke configuration: just enough traffic to exercise every
    /// cell and trip at least one phase shift.
    #[must_use]
    pub fn quick() -> AdaptpathOptions {
        AdaptpathOptions {
            quick: true,
            store_bytes: 2 << 20,
            target_frames: 256,
            connections: 4,
            shift_every_frames: 16,
            repeats: 1,
            ..AdaptpathOptions::default()
        }
    }

    fn frames_per_conn(&self) -> usize {
        (self.target_frames / self.connections.max(1)).max(self.window * 2)
    }

    fn dido_options(&self) -> DidoOptions {
        DidoOptions {
            testbed: TestbedOptions {
                store_bytes: self.store_bytes,
                seed: self.seed,
                ..TestbedOptions::default()
            },
            ..DidoOptions::default()
        }
    }
}

/// One (mode × dispatchers) measurement.
#[derive(Debug, Clone, Copy)]
pub struct AdaptCell {
    /// Serving architecture (`locked` or `concurrent`).
    pub mode: &'static str,
    /// Batched dispatcher threads.
    pub dispatchers: usize,
    /// End-to-end throughput, queries/sec.
    pub throughput_qps: f64,
    /// Median frame latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile frame latency, microseconds.
    pub p99_us: f64,
    /// Pipeline adaptions the node performed during the run.
    pub adaptions: u64,
}

/// Time-to-readapt after a workload phase flip, per mode.
#[derive(Debug, Clone, Copy)]
pub struct ReadaptProbe {
    /// Serving architecture.
    pub mode: &'static str,
    /// Milliseconds from the first post-shift frame to the adaption
    /// counter moving (negative means it never moved in time).
    pub readapt_ms: f64,
    /// Whether an adaption landed before the probe's timeout.
    pub adapted: bool,
}

/// Full harness output.
#[derive(Debug, Clone)]
pub struct AdaptReport {
    /// Options the run used.
    pub opts: AdaptpathOptions,
    /// Cells in `DISPATCHERS` × `MODES` order.
    pub cells: Vec<AdaptCell>,
    /// One readapt probe per mode.
    pub readapt: Vec<ReadaptProbe>,
}

impl AdaptReport {
    /// Look up one cell.
    #[must_use]
    pub fn cell(&self, mode: &str, dispatchers: usize) -> Option<&AdaptCell> {
        self.cells
            .iter()
            .find(|c| c.mode == mode && c.dispatchers == dispatchers)
    }

    /// Concurrent-over-locked throughput ratio at `dispatchers`.
    #[must_use]
    pub fn speedup(&self, dispatchers: usize) -> Option<f64> {
        let locked = self.cell("locked", dispatchers)?;
        let conc = self.cell("concurrent", dispatchers)?;
        if locked.throughput_qps > 0.0 {
            Some(conc.throughput_qps / locked.throughput_qps)
        } else {
            None
        }
    }

    /// The acceptance measurement: speedup at 4 dispatchers.
    #[must_use]
    pub fn acceptance_speedup(&self) -> f64 {
        self.speedup(4).unwrap_or(0.0)
    }

    /// Whether the concurrent core re-adapted: every concurrent cell
    /// saw at least one adaption and the readapt probe fired.
    #[must_use]
    pub fn readapt_pass(&self) -> bool {
        let cells_adapted = self
            .cells
            .iter()
            .filter(|c| c.mode == "concurrent")
            .all(|c| c.adaptions > 0);
        let probe = self
            .readapt
            .iter()
            .find(|p| p.mode == "concurrent")
            .is_some_and(|p| p.adapted);
        cells_adapted && probe
    }

    /// Serialize as JSON (hand-rolled; the build has no serde_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"bench\": \"adaptpath\",\n");
        s.push_str(&format!("  \"quick\": {},\n", self.opts.quick));
        s.push_str(&format!("  \"seed\": {},\n", self.opts.seed));
        s.push_str(&format!("  \"connections\": {},\n", self.opts.connections));
        s.push_str(&format!(
            "  \"frame_queries\": {},\n",
            self.opts.frame_queries
        ));
        s.push_str(&format!(
            "  \"shift_every_frames\": {},\n",
            self.opts.shift_every_frames
        ));
        s.push_str(&format!("  \"repeats\": {},\n", self.opts.repeats));
        let acc = self.acceptance_speedup();
        let readapt_ok = self.readapt_pass();
        s.push_str("  \"acceptance\": {\n");
        s.push_str(
            "    \"metric\": \"concurrent/locked throughput at 4 batched \
             dispatchers on the shifting workload\",\n",
        );
        s.push_str("    \"baseline\": \"global-mutex DidoSystem (seed server architecture)\",\n");
        s.push_str(&format!("    \"threshold\": {ACCEPT_THRESHOLD},\n"));
        s.push_str(&format!("    \"speedup\": {acc:.3},\n"));
        s.push_str(&format!(
            "    \"throughput_pass\": {},\n",
            acc >= ACCEPT_THRESHOLD
        ));
        s.push_str(&format!("    \"readapt_pass\": {readapt_ok},\n"));
        s.push_str(&format!(
            "    \"pass\": {}\n",
            acc >= ACCEPT_THRESHOLD && readapt_ok
        ));
        s.push_str("  },\n");
        s.push_str("  \"readapt\": [\n");
        for (i, p) in self.readapt.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"mode\": \"{}\", \"readapt_ms\": {:.3}, \"adapted\": {}}}{}\n",
                p.mode,
                p.readapt_ms,
                p.adapted,
                if i + 1 < self.readapt.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"mode\": \"{}\", \"dispatchers\": {}, \
                 \"throughput_qps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"adaptions\": {}}}{}\n",
                c.mode,
                c.dispatchers,
                c.throughput_qps,
                c.p50_us,
                c.p99_us,
                c.adaptions,
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn spec(label: &str) -> WorkloadSpec {
    WorkloadSpec::from_label(label).expect("valid workload label")
}

/// Pre-encode each connection's frame stream: phases alternate every
/// `shift_every_frames` frames between the two workloads, and the back
/// half of every phase-A interval carries a hot-set spike.
fn build_streams(opts: &AdaptpathOptions, n_keys: u64) -> Vec<Vec<Bytes>> {
    let shift = opts.shift_every_frames.max(1);
    (0..opts.connections)
        .map(|conn| {
            let conn_seed = opts.seed ^ ((conn as u64 + 1) << 17);
            let gen_a = WorkloadGen::new(spec(PHASE_A), n_keys, conn_seed);
            let mut gen_a = SpikeGen::new(gen_a, 64.min(n_keys).max(1), 0.5, conn_seed ^ 0x5717);
            let mut gen_b = WorkloadGen::new(spec(PHASE_B), n_keys, conn_seed + 1);
            (0..opts.frames_per_conn())
                .map(|f| {
                    let phase_b = (f / shift) % 2 == 1;
                    let queries = if phase_b {
                        gen_b.batch(opts.frame_queries)
                    } else {
                        gen_a.set_active(f % shift >= shift / 2);
                        gen_a.batch(opts.frame_queries)
                    };
                    let mut wire = BytesMut::new();
                    encode_queries_wire_into(&mut wire, &queries);
                    wire.freeze()
                })
                .collect()
        })
        .collect()
}

/// A running node of either architecture: a started handler plus an
/// adaption probe, with any background machinery kept alive until drop.
struct Node {
    handler: Box<dyn Fn(usize, Vec<dido_model::Query>) -> Vec<dido_model::Response> + Send + Sync>,
    adaptions: Box<dyn Fn() -> u64 + Send + Sync>,
    _controller: Option<dido::ControllerHandle>,
}

fn build_node(opts: &AdaptpathOptions, mode: &str) -> Node {
    let dopts = opts.dido_options();
    match mode {
        "locked" => {
            // The seed server's architecture: one node, one global lock,
            // the full simulator data path per frame.
            let dido = Arc::new(Mutex::new(DidoSystem::preloaded(spec(PHASE_A), dopts)));
            let probe = Arc::clone(&dido);
            Node {
                handler: Box::new(move |_lane, queries| {
                    let dido = dido.lock();
                    dido.process_batch(queries).1
                }),
                adaptions: Box::new(move || probe.lock().adaptions() as u64),
                _controller: None,
            }
        }
        _ => {
            let lanes = DISPATCHERS.into_iter().max().unwrap_or(1);
            let (core, _) = ServingCore::preloaded(spec(PHASE_A), 1, lanes, dopts);
            let core = Arc::new(core);
            let controller = ServingCore::spawn_controller(
                Arc::clone(&core),
                Duration::from_micros(opts.controller_period_us),
            );
            let probe = Arc::clone(&core);
            Node {
                handler: Box::new(move |lane, queries| core.process_batch(lane, queries)),
                adaptions: Box::new(move || probe.adaptions() as u64),
                _controller: Some(controller),
            }
        }
    }
}

/// Measure one cell: a fresh node of `mode` behind a batched server
/// with `dispatchers` dispatcher threads, all clients pipelining their
/// pre-encoded shifting streams to completion.
pub fn run_cell(
    opts: &AdaptpathOptions,
    mode: &'static str,
    dispatchers: usize,
    streams: &Arc<Vec<Vec<Bytes>>>,
) -> AdaptCell {
    let node = build_node(opts, mode);
    let handler = node.handler;
    let dispatch = DispatchMode::Batched(BatchConfig {
        max_batch_delay: Duration::from_micros(opts.max_batch_delay_us),
        dispatchers,
        ..BatchConfig::default()
    });
    let server = KvServer::start_with("127.0.0.1:0", dispatch, handler).expect("bind server");
    let addr = server.addr();

    let barrier = Arc::new(Barrier::new(opts.connections + 1));
    let clients: Vec<_> = (0..opts.connections)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let streams = Arc::clone(streams);
            let window = opts.window;
            std::thread::spawn(move || {
                barrier.wait();
                drive_client(addr, &streams[i], window).expect("client I/O")
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    let mut latencies: Vec<Duration> = Vec::new();
    for c in clients {
        latencies.extend(c.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    server.shutdown();
    let adaptions = (node.adaptions)();

    latencies.sort_unstable();
    let total_queries = (latencies.len() * opts.frame_queries) as f64;
    AdaptCell {
        mode,
        dispatchers,
        throughput_qps: total_queries / elapsed.as_secs_f64(),
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        adaptions,
    }
}

/// Time-to-readapt probe: warm the node on phase-A traffic until its
/// adaption counter goes quiet, flip the stream to phase B, and time
/// how long until the counter moves again.
pub fn measure_readapt(opts: &AdaptpathOptions, mode: &'static str) -> ReadaptProbe {
    let node = build_node(opts, mode);
    let handler = node.handler;
    let server = KvServer::start_with(
        "127.0.0.1:0",
        DispatchMode::Batched(BatchConfig {
            max_batch_delay: Duration::from_micros(opts.max_batch_delay_us),
            dispatchers: 1,
            ..BatchConfig::default()
        }),
        handler,
    )
    .expect("bind server");
    let mut client = KvClient::connect(server.addr()).expect("connect");

    let dopts = opts.dido_options();
    let n_keys = spec(PHASE_A)
        .keyspace_size(dopts.testbed.store_bytes as u64, dido_kvstore::HEADER_SIZE)
        .max(1);
    let mut gen_a = WorkloadGen::new(spec(PHASE_A), n_keys, opts.seed ^ 0xABCD);
    let mut gen_b = WorkloadGen::new(spec(PHASE_B), n_keys, opts.seed ^ 0xDCBA);

    // Warm-up: phase A until the adaption counter stays put for a few
    // consecutive batches (the initial profile itself can adapt).
    let warmup_frames = if opts.quick { 32 } else { 128 };
    let mut quiet = 0;
    let mut last = (node.adaptions)();
    for _ in 0..warmup_frames {
        client
            .request(&gen_a.batch(opts.frame_queries))
            .expect("warmup request");
        let now = (node.adaptions)();
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
        if quiet >= 8 {
            break;
        }
    }

    // Shift: phase B until the counter moves (or the frame budget runs
    // out — the probe then reports failure rather than hanging).
    let baseline = (node.adaptions)();
    let budget = if opts.quick { 256 } else { 2048 };
    let t0 = Instant::now();
    let mut adapted = false;
    for _ in 0..budget {
        client
            .request(&gen_b.batch(opts.frame_queries))
            .expect("shift request");
        if (node.adaptions)() > baseline {
            adapted = true;
            break;
        }
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    ReadaptProbe {
        mode,
        readapt_ms: if adapted { elapsed_ms } else { -1.0 },
        adapted,
    }
}

/// Run the full dispatchers × modes matrix plus the readapt probes.
/// `progress` receives each finished cell (for live printing).
///
/// Cells are measured [`AdaptpathOptions::repeats`] times with the two
/// modes interleaved, keeping the best-throughput run per mode — on a
/// shared host, best-of-N with interleaving keeps background noise from
/// masquerading as an architecture difference.
pub fn run_adaptpath(opts: &AdaptpathOptions, mut progress: impl FnMut(&AdaptCell)) -> AdaptReport {
    let dopts = opts.dido_options();
    let n_keys = spec(PHASE_A)
        .keyspace_size(dopts.testbed.store_bytes as u64, dido_kvstore::HEADER_SIZE)
        .max(1);
    let streams = Arc::new(build_streams(opts, n_keys));
    let mut cells = Vec::with_capacity(DISPATCHERS.len() * MODES.len());
    for dispatchers in DISPATCHERS {
        let mut best: [Option<AdaptCell>; 2] = [None, None];
        for _ in 0..opts.repeats.max(1) {
            for (i, mode) in MODES.iter().enumerate() {
                let cell = run_cell(opts, mode, dispatchers, &streams);
                if best[i].is_none_or(|b| cell.throughput_qps > b.throughput_qps) {
                    best[i] = Some(cell);
                }
            }
        }
        for cell in best.into_iter().flatten() {
            progress(&cell);
            cells.push(cell);
        }
    }
    let readapt = MODES.map(|mode| measure_readapt(opts, mode)).to_vec();
    AdaptReport {
        opts: *opts,
        cells,
        readapt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny cell per mode over a live loopback server.
    #[test]
    fn smoke_cell_both_modes() {
        let opts = AdaptpathOptions {
            store_bytes: 1 << 20,
            target_frames: 16,
            frame_queries: 8,
            connections: 2,
            window: 4,
            shift_every_frames: 2,
            ..AdaptpathOptions::quick()
        };
        let n_keys = spec(PHASE_A)
            .keyspace_size(opts.store_bytes as u64, dido_kvstore::HEADER_SIZE)
            .max(1);
        let streams = Arc::new(build_streams(&opts, n_keys));
        for mode in MODES {
            let cell = run_cell(&opts, mode, 2, &streams);
            assert_eq!(cell.dispatchers, 2);
            assert!(cell.throughput_qps > 0.0, "{mode}: no traffic measured");
            assert!(cell.p99_us >= cell.p50_us, "{mode}: percentiles inverted");
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let cells: Vec<AdaptCell> = DISPATCHERS
            .iter()
            .flat_map(|&d| {
                MODES.iter().map(move |&mode| AdaptCell {
                    mode,
                    dispatchers: d,
                    // Concurrent gets 2x so acceptance passes.
                    throughput_qps: if mode == "concurrent" { 2e5 } else { 1e5 },
                    p50_us: 80.0,
                    p99_us: 200.0,
                    adaptions: if mode == "concurrent" { 3 } else { 2 },
                })
            })
            .collect();
        let report = AdaptReport {
            opts: AdaptpathOptions::quick(),
            cells,
            readapt: vec![
                ReadaptProbe {
                    mode: "locked",
                    readapt_ms: 4.0,
                    adapted: true,
                },
                ReadaptProbe {
                    mode: "concurrent",
                    readapt_ms: 6.5,
                    adapted: true,
                },
            ],
        };
        assert!((report.acceptance_speedup() - 2.0).abs() < 1e-9);
        assert!(report.readapt_pass());
        let json = report.to_json();
        assert!(json.contains("\"throughput_pass\": true"));
        assert!(json.contains("\"readapt_pass\": true"));
        assert!(json.contains("\"pass\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn readapt_pass_requires_concurrent_adaptions() {
        let mk = |mode: &'static str, adaptions: u64| AdaptCell {
            mode,
            dispatchers: 4,
            throughput_qps: 1e5,
            p50_us: 1.0,
            p99_us: 2.0,
            adaptions,
        };
        let probe = |adapted| ReadaptProbe {
            mode: "concurrent",
            readapt_ms: if adapted { 1.0 } else { -1.0 },
            adapted,
        };
        let ok = AdaptReport {
            opts: AdaptpathOptions::quick(),
            cells: vec![mk("concurrent", 1)],
            readapt: vec![probe(true)],
        };
        assert!(ok.readapt_pass());
        let never_adapted = AdaptReport {
            opts: AdaptpathOptions::quick(),
            cells: vec![mk("concurrent", 0)],
            readapt: vec![probe(true)],
        };
        assert!(!never_adapted.readapt_pass());
        let probe_timed_out = AdaptReport {
            opts: AdaptpathOptions::quick(),
            cells: vec![mk("concurrent", 1)],
            readapt: vec![probe(false)],
        };
        assert!(!probe_timed_out.readapt_pass());
    }
}
