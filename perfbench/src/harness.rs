//! One benchmark run: server set-up, measured windows, and the metrics
//! they yield.

use crate::client::{drive, measuring, Conn, DriveReport, Record, Until, STOP, WARM};
use crate::procstat::{rss_bytes, CpuSample, Group, CLIENT_PREFIX};
use crate::spans::{touched_vec, ClientSpan, HandlerLog, HandlerSpan};
use crate::verify::{Proto, Tally, ValueTable};
use crate::workload::{Pool, WorkloadDef, CONNS, PRELOAD_WINDOW};
use dido::{ControllerHandle, DidoOptions, ServingCore};
use dido_kvstore::ExpiryStats;
use dido_net::{BatchConfig, DispatchMode, KvServer, NetStatsSnapshot, ProtocolKind};
use dido_pipeline::{OpCounts, TestbedOptions};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cadence of the adaptation controller, as `dido-server` runs it.
const CONTROLLER_PERIOD: Duration = Duration::from_millis(5);

/// Latency budget handed to the serving core, as `dido-server`'s
/// default `--latency-us 1000`.
const LATENCY_BUDGET_NS: f64 = 1_000_000.0;

/// Measured windows are cut into slices of this length; throughput,
/// latency percentiles and CPU per query are medians over the quiet
/// slices (see [`Window::quiet_slices`]), so host steal moves only the
/// slices it hits. RSS and store gauges are sampled at every
/// slice boundary.
pub const SLICE: Duration = Duration::from_millis(250);

/// Quantile of the slices' host steal shares at or below which a slice
/// counts as quiet.
pub const QUIET_QUANTILE: f64 = 0.25;

/// Slices per measured second.
pub const SLICES_PER_SEC: usize = 4;

/// Warm-up before the traced window: the server is already warm, the
/// clients only refill their windows.
pub const TRACED_WARMUP: Duration = Duration::from_millis(500);

/// The server under test and the core it serves from.
pub struct Server {
    core: Arc<ServingCore>,
    controller: ControllerHandle,
    kv: KvServer,
}

impl Server {
    /// Start the server as `dido-server --batched` does: one shard, one
    /// lane, a 1000 µs budget, the controller at 5 ms, and the default
    /// batched dispatch on the default I/O backend. The handler times
    /// each `process_batch` call into `log` while the log is on.
    pub fn start(def: &WorkloadDef, log: Arc<HandlerLog>) -> std::io::Result<Server> {
        let core = Arc::new(ServingCore::new(
            1,
            1,
            DidoOptions {
                testbed: TestbedOptions {
                    store_bytes: def.store_mb << 20,
                    ..TestbedOptions::default()
                },
                latency_budget_ns: LATENCY_BUDGET_NS,
                ..DidoOptions::default()
            },
        ));
        let controller = ServingCore::spawn_controller(Arc::clone(&core), CONTROLLER_PERIOD);
        let handler_core = Arc::clone(&core);
        let proto = match def.proto {
            Proto::Dido => ProtocolKind::Dido,
            Proto::Resp => ProtocolKind::Resp,
        };
        let kv = KvServer::start_multi(
            &[("127.0.0.1:0", proto)],
            DispatchMode::Batched(BatchConfig::default()),
            move |lane, queries| {
                if !log.is_on() {
                    return handler_core.process_batch(lane, queries);
                }
                let n = queries.len();
                let start = Instant::now();
                let responses = handler_core.process_batch(lane, queries);
                log.record(lane, n, start, Instant::now());
                responses
            },
        )?;
        Ok(Server {
            core,
            controller,
            kv,
        })
    }

    /// Stop the server, then the controller, joining every thread.
    pub fn shutdown(self) {
        self.kv.shutdown();
        self.controller.stop();
    }

    /// Cumulative server statistics.
    #[must_use]
    pub fn net(&self) -> NetStatsSnapshot {
        self.kv.stats().snapshot()
    }

    /// The active pipeline configuration of every shard.
    #[must_use]
    pub fn configs(&self) -> Vec<dido_model::PipelineConfig> {
        self.core.configs()
    }

    /// The listener's address.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.kv.addr()
    }
}

/// Server counters that mean a request was lost or refused: each one
/// counts as a failed request.
#[must_use]
pub fn server_failures(net: &NetStatsSnapshot) -> u64 {
    net.dropped_frames
        + net.bad_frames
        + net.proto_parse_errors.iter().sum::<u64>()
        + net.sd_pending_dropped
        + net.sd_stall_retired
}

/// Counter state at one window boundary.
#[derive(Debug, Clone)]
pub struct Snap {
    /// When the snapshot was taken.
    pub at: Instant,
    /// `ServerStats`.
    pub net: NetStatsSnapshot,
    /// `ShardedEngine::op_counts`.
    pub ops: OpCounts,
    /// `ShardedEngine::expiry_stats`.
    pub expiry: ExpiryStats,
    /// `ServingCore::metrics().model_runs`.
    pub model_runs: u64,
    /// `ServingCore::metrics().adaptions`.
    pub adaptions: u64,
    /// `ServingCore::metrics().sweeps`.
    pub sweeps: u64,
    /// Thread CPU and host steal.
    pub cpu: CpuSample,
}

impl Snap {
    fn take(server: &Server) -> Snap {
        let engine = server.core.engine();
        let metrics = server.core.metrics();
        Snap {
            at: Instant::now(),
            net: server.net(),
            ops: engine.op_counts(),
            expiry: engine.expiry_stats(),
            model_runs: metrics.model_runs,
            adaptions: metrics.adaptions,
            sweeps: metrics.sweeps,
            cpu: CpuSample::take(),
        }
    }
}

/// One [`SLICE`] of a measured window.
#[derive(Debug)]
pub struct Slice {
    /// Wall time of the slice, seconds.
    pub wall_s: f64,
    /// Queries answered in the slice.
    pub queries: u64,
    /// CPU seconds the server's threads spent in the slice.
    pub server_cpu_s: f64,
    /// Host steal time over the slice's wall time and CPUs.
    pub steal_share: f64,
    /// Send-to-reply latency of the slice's requests, ns, sorted.
    pub latencies_ns: Vec<u32>,
}

impl Slice {
    /// Queries answered per second.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        ratio(self.queries as f64, self.wall_s)
    }
}

/// One measured window.
#[derive(Debug)]
pub struct Window {
    /// Counters at the start of the window and at the end of each slice.
    pub snaps: Vec<Snap>,
    /// The window's slices.
    pub slices: Vec<Slice>,
    /// Requests answered while measuring, all connections.
    pub measured: Tally,
    /// Every request of the window's drives, warm-up and drain included.
    pub all: Tally,
    /// Send-to-reply latency of every recorded request, ns, sorted.
    pub latencies_ns: Vec<u32>,
    /// Client spans per connection (traced windows only).
    pub client_spans: Vec<Vec<ClientSpan>>,
    /// Handler spans (traced windows only).
    pub handler_spans: Vec<HandlerSpan>,
    /// Replies or calls not recorded because a buffer was full.
    pub unrecorded: u64,
    /// Peak RSS sampled during the window, bytes.
    pub rss_peak: u64,
    /// Mean of Σ live bytes / store bytes over the window's samples.
    pub live_bytes_share: f64,
    /// Mean of Σ frag bytes / Σ (live + frag bytes) over the samples.
    pub frag_share: f64,
    /// Connection errors, one line each.
    pub errors: Vec<String>,
}

impl Window {
    /// Counters when measuring began.
    #[must_use]
    pub fn before(&self) -> &Snap {
        &self.snaps[0]
    }

    /// Counters when measuring ended (before the drain).
    #[must_use]
    pub fn after(&self) -> &Snap {
        self.snaps.last().expect("a window has boundary snapshots")
    }

    /// Measured wall time, seconds.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        (self.after().at - self.before().at).as_secs_f64()
    }

    /// Host steal time over the window's wall time and CPUs.
    #[must_use]
    pub fn steal_share(&self) -> f64 {
        ratio(
            self.after().cpu.steal_secs_since(&self.before().cpu),
            self.wall_s() * nproc(),
        )
    }

    /// The slices the slice medians use: those whose host steal share
    /// is at most the first quartile of the slices' steal shares. On a
    /// quiet host that is nearly every slice; on a disturbed one, the
    /// least disturbed quarter.
    #[must_use]
    pub fn quiet_slices(&self) -> Vec<&Slice> {
        let mut steal: Vec<f64> = self.slices.iter().map(|s| s.steal_share).collect();
        steal.sort_by(f64::total_cmp);
        let limit = percentile(&steal, QUIET_QUANTILE);
        self.slices
            .iter()
            .filter(|s| s.steal_share <= limit)
            .collect()
    }

    /// Median of `f` over the [quiet slices](Window::quiet_slices).
    #[must_use]
    pub fn slice_median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.quiet_slices().into_iter().map(f).collect::<Vec<_>>())
    }

    /// Median over the slices of queries answered per second.
    #[must_use]
    pub fn throughput_qps(&self) -> f64 {
        self.slice_median(Slice::throughput_qps)
    }
}

/// Connect every client and preload the store over the wire.
pub fn connect_and_preload(
    server: &Server,
    def: &WorkloadDef,
    preload: &[Pool],
    values: &ValueTable,
    base: Instant,
) -> std::io::Result<(Vec<Conn>, Tally, Vec<String>)> {
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(server.addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    if !preload.is_empty() {
        let reports: Vec<DriveReport> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(preload)
                .map(|(conn, pool)| {
                    s.spawn(move || {
                        drive(
                            conn,
                            def.proto,
                            pool,
                            values,
                            PRELOAD_WINDOW,
                            Until::PoolEnd,
                            base,
                            Record::Latency(Vec::new()),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("preload thread panicked"))
                .collect()
        });
        for r in reports {
            tally += r.all;
            errors.extend(r.error);
        }
    }
    Ok((conns, tally, errors))
}

/// Run the clients for `warmup`, then measure for `seconds` cut into
/// slices, then stop and drain. With `log` given, handler spans are
/// recorded while measuring and the clients record spans instead of
/// latencies.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    server: &Server,
    def: &WorkloadDef,
    conns: &mut [Conn],
    pools: &[Pool],
    values: &ValueTable,
    warmup: Duration,
    seconds: u64,
    records: Vec<Record>,
    log: Option<&HandlerLog>,
    base: Instant,
) -> Window {
    let phase = AtomicU32::new(WARM);
    let store_bytes = (def.store_mb << 20) as f64;
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(pools)
            .zip(records)
            .enumerate()
            .map(|(c, ((conn, pool), record))| {
                let phase = &phase;
                std::thread::Builder::new()
                    .name(format!("{CLIENT_PREFIX}{c}"))
                    .spawn_scoped(s, move || {
                        drive(
                            conn,
                            def.proto,
                            pool,
                            values,
                            def.window,
                            Until::Stopped(phase),
                            base,
                            record,
                        )
                    })
                    .expect("spawn client thread")
            })
            .collect();
        std::thread::sleep(warmup);
        if let Some(log) = log {
            log.set_on(true);
        }
        phase.store(measuring(0), Ordering::Relaxed);
        let mut snaps = vec![Snap::take(server)];
        let start = snaps[0].at;
        let (mut rss_peak, mut live, mut frag) = (0u64, 0.0, 0.0);
        let n_slices = seconds as usize * SLICES_PER_SEC;
        for slice in 0..n_slices {
            let end = start + SLICE * (slice as u32 + 1);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            // Snapshot before STOP: the client threads exit soon after
            // it, and their CPU times leave /proc with them.
            snaps.push(Snap::take(server));
            if slice + 1 < n_slices {
                phase.store(measuring(slice + 1), Ordering::Relaxed);
            } else {
                phase.store(STOP, Ordering::Relaxed);
                if let Some(log) = log {
                    log.set_on(false);
                }
            }
            rss_peak = rss_peak.max(rss_bytes());
            let classes = server.core.engine().class_stats();
            let live_bytes: usize = classes.iter().map(|c| c.live_bytes).sum();
            let frag_bytes: usize = classes.iter().map(|c| c.frag_bytes).sum();
            live += live_bytes as f64 / store_bytes;
            frag += ratio(frag_bytes as f64, (live_bytes + frag_bytes) as f64);
        }
        let reports: Vec<DriveReport> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let mut slices: Vec<Slice> = snaps
            .windows(2)
            .map(|w| Slice {
                wall_s: (w[1].at - w[0].at).as_secs_f64(),
                queries: 0,
                server_cpu_s: w[1].cpu.server_secs_since(&w[0].cpu),
                steal_share: ratio(
                    w[1].cpu.steal_secs_since(&w[0].cpu),
                    (w[1].at - w[0].at).as_secs_f64() * nproc(),
                ),
                latencies_ns: Vec::new(),
            })
            .collect();
        let mut window = Window {
            snaps,
            slices: Vec::new(),
            measured: Tally::default(),
            all: Tally::default(),
            latencies_ns: Vec::new(),
            client_spans: Vec::new(),
            handler_spans: log.map(HandlerLog::spans).unwrap_or_default(),
            unrecorded: log.map_or(0, HandlerLog::dropped),
            rss_peak,
            live_bytes_share: live / n_slices as f64,
            frag_share: frag / n_slices as f64,
            errors: Vec::new(),
        };
        for r in reports {
            window.measured += r.measured;
            window.all += r.all;
            window.unrecorded += r.unrecorded;
            window.errors.extend(r.error);
            let mut from = 0;
            for (slice, counts) in slices.iter_mut().zip(&r.slices) {
                slice.queries += counts.queries;
                slice
                    .latencies_ns
                    .extend((from..counts.samples_end).map(|i| r.record.latency_ns(i)));
                from = counts.samples_end;
            }
            window
                .latencies_ns
                .extend((0..r.record.len()).map(|i| r.record.latency_ns(i)));
            if let Record::Spans(v) = r.record {
                window.client_spans.push(v);
            }
        }
        for slice in &mut slices {
            slice.latencies_ns.sort_unstable();
        }
        window.slices = slices;
        window.latencies_ns.sort_unstable();
        window
    })
}

/// Latency sample buffers for one untraced window.
#[must_use]
pub fn latency_records(def: &WorkloadDef, seconds: u64) -> Vec<Record> {
    (0..CONNS)
        .map(|_| Record::Latency(touched_vec(def.samples_per_sec * seconds as usize)))
        .collect()
}

/// Span buffers for a traced window, sized from the untraced window's
/// request count with headroom.
#[must_use]
pub fn span_records(untraced: &Window) -> Vec<Record> {
    let per_conn = (untraced.measured.requests as usize * 3 / 2) / CONNS + 10_000;
    (0..CONNS)
        .map(|_| Record::Spans(touched_vec(per_conn)))
        .collect()
}

/// CPUs this process may run on.
fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1, usize::from) as f64
}

/// Nearest-rank percentile of sorted samples (`q` in 0..=1).
#[must_use]
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into()
}

/// Median of unsorted values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced window. Throughput, latency
/// percentiles and CPU per query are medians over the window's quiet
/// slices.
#[must_use]
pub fn end_to_end(w: &Window, setup_s: f64, rss_base: u64) -> Vec<Metric> {
    vec![
        m("throughput_qps", w.throughput_qps(), "q/s"),
        m(
            "latency_p50_us",
            w.slice_median(|s| percentile(&s.latencies_ns, 0.50)) / 1e3,
            "us",
        ),
        m(
            "latency_p99_us",
            w.slice_median(|s| percentile(&s.latencies_ns, 0.99)) / 1e3,
            "us",
        ),
        m(
            "server_cpu_us_per_query",
            w.slice_median(|s| ratio(s.server_cpu_s * 1e6, s.queries as f64)),
            "us",
        ),
        m(
            "get_hit_ratio",
            ratio(w.measured.hits as f64, w.measured.gets as f64),
            "ratio",
        ),
        m("setup_s", setup_s, "s"),
        m(
            "server_rss_mb",
            w.rss_peak.saturating_sub(rss_base) as f64 / f64::from(1 << 20),
            "MB",
        ),
    ]
}

/// The per-layer metrics of a traced window; `untraced_qps` prices the
/// tracing overhead, `run` is the whole run's request tally.
#[must_use]
pub fn per_layer(server: &Server, w: &Window, untraced_qps: f64, run: &Tally) -> Vec<Metric> {
    let (b, a) = (w.before(), w.after());
    let wall = w.wall_s();
    let q = w.measured.queries as f64;
    let sets = w.measured.sets as f64;
    let cpu_ns = |g: Group| a.cpu.secs_since(&b.cpu, g) * 1e9;
    let dispatches = (a.net.dispatches - b.net.dispatches) as f64;
    let span_ns: u64 = w.handler_spans.iter().map(HandlerSpan::duration_ns).sum();
    let span_queries: u64 = w.handler_spans.iter().map(|s| u64::from(s.queries)).sum();
    let mut calls_ns: Vec<u64> = w
        .handler_spans
        .iter()
        .map(HandlerSpan::duration_ns)
        .collect();
    calls_ns.sort_unstable();
    let calls_us: Vec<f64> = calls_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let mean_latency_ns = ratio(
        w.latencies_ns.iter().map(|&l| f64::from(l)).sum(),
        w.latencies_ns.len() as f64,
    );
    let lazy = (a.ops.expired_lazy - b.ops.expired_lazy) as f64;
    let proactive = (a.expiry.expired_proactive - b.expiry.expired_proactive) as f64;
    let buf_hits = (a.net.sd_buf_hits - b.net.sd_buf_hits) as f64;
    let buf_misses = (a.net.sd_buf_misses - b.net.sd_buf_misses) as f64;
    let engines = server.core.engine().primary_engines();
    let mean_over_shards = |f: &dyn Fn(&dido_pipeline::KvEngine) -> f64| {
        ratio(engines.iter().map(|e| f(e)).sum(), engines.len() as f64)
    };
    vec![
        m(
            "reactor.cpu_ns_per_query",
            ratio(cpu_ns(Group::Reactor), q),
            "ns/query",
        ),
        m(
            "reactor.wakeups_per_kquery",
            ratio(
                (a.net.reactor_wakeups - b.net.reactor_wakeups) as f64 * 1e3,
                q,
            ),
            "1/kquery",
        ),
        m(
            "io.syscalls_per_query",
            ratio((a.net.ring_enters - b.net.ring_enters) as f64, q),
            "1/query",
        ),
        m(
            "dispatch.cpu_ns_per_query",
            ratio(cpu_ns(Group::Dispatch), q),
            "ns/query",
        ),
        m(
            "dispatch.frames_per_batch",
            ratio(
                (a.net.dispatched_frames - b.net.dispatched_frames) as f64,
                dispatches,
            ),
            "frames/batch",
        ),
        m(
            "dispatch.queries_per_batch",
            ratio(
                (a.net.dispatched_queries - b.net.dispatched_queries) as f64,
                dispatches,
            ),
            "queries/batch",
        ),
        m(
            "dispatch.delayed_share",
            ratio(
                (a.net.delayed_dispatches - b.net.delayed_dispatches) as f64,
                dispatches,
            ),
            "ratio",
        ),
        m(
            "dispatch.ring_depth_max",
            a.net.ring_depth_max as f64,
            "frames",
        ),
        m(
            "serving.ns_per_query",
            ratio(span_ns as f64, span_queries as f64),
            "ns/query",
        ),
        m("serving.call_p50_us", percentile(&calls_us, 0.50), "us"),
        m("serving.call_p99_us", percentile(&calls_us, 0.99), "us"),
        m(
            "serving.busy_share",
            ratio(span_ns as f64 / 1e9, wall),
            "ratio",
        ),
        m(
            "serving.dispatch_cpu_share",
            ratio(span_ns as f64, cpu_ns(Group::Dispatch)),
            "ratio",
        ),
        m(
            "serving.outside_us",
            (mean_latency_ns - ratio(span_ns as f64, w.handler_spans.len() as f64)) / 1e3,
            "us",
        ),
        m(
            "index.insert_buckets_mean",
            mean_over_shards(&|e| e.index.avg_insert_buckets()),
            "buckets",
        ),
        m(
            "index.delete_buckets_mean",
            mean_over_shards(&|e| e.index.avg_delete_buckets()),
            "buckets",
        ),
        m(
            "index.deletes_per_set",
            ratio((a.ops.index_deletes - b.ops.index_deletes) as f64, sets),
            "1/set",
        ),
        m(
            "mm.allocs_per_set",
            ratio((a.ops.mm_allocs - b.ops.mm_allocs) as f64, sets),
            "1/set",
        ),
        m(
            "mm.expired_lazy_per_kquery",
            ratio(lazy * 1e3, q),
            "1/kquery",
        ),
        m(
            "mm.expired_proactive_per_kquery",
            ratio(proactive * 1e3, q),
            "1/kquery",
        ),
        m(
            "mm.proactive_share",
            ratio(proactive, lazy + proactive),
            "ratio",
        ),
        m(
            "mm.segments_reclaimed_per_s",
            ratio(
                (a.expiry.segments_reclaimed - b.expiry.segments_reclaimed) as f64,
                wall,
            ),
            "1/s",
        ),
        m("mm.live_bytes_share", w.live_bytes_share, "ratio"),
        m("mm.frag_share", w.frag_share, "ratio"),
        m(
            "sd.cpu_ns_per_query",
            ratio(cpu_ns(Group::Sd), q),
            "ns/query",
        ),
        m(
            "sd.buf_hit_rate",
            ratio(buf_hits, buf_hits + buf_misses),
            "ratio",
        ),
        m(
            "sd.writable_parks",
            (a.net.sd_writable_parks - b.net.sd_writable_parks) as f64,
            "count",
        ),
        m(
            "controller.cpu_share",
            ratio(cpu_ns(Group::Controller) / 1e9, wall),
            "ratio",
        ),
        m(
            "controller.model_runs",
            (a.model_runs - b.model_runs) as f64,
            "count",
        ),
        m(
            "controller.adaptions",
            (a.adaptions - b.adaptions) as f64,
            "count",
        ),
        m("controller.sweeps", (a.sweeps - b.sweeps) as f64, "count"),
        m(
            "client.cpu_share",
            ratio(cpu_ns(Group::Client) / 1e9, wall),
            "ratio",
        ),
        m(
            "client.latency_p999_us",
            percentile(&w.latencies_ns, 0.999) / 1e3,
            "us",
        ),
        m(
            "client.latency_samples",
            w.latencies_ns.len() as f64,
            "count",
        ),
        m("host.steal_share", w.steal_share(), "ratio"),
        m(
            "trace.overhead_share",
            ratio(untraced_qps - w.throughput_qps(), untraced_qps),
            "ratio",
        ),
        m("error_share", run.error_share(), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn window_of(steal_and_queries: &[(f64, u64)]) -> Window {
        Window {
            snaps: Vec::new(),
            slices: steal_and_queries
                .iter()
                .map(|&(steal_share, queries)| Slice {
                    wall_s: 1.0,
                    queries,
                    server_cpu_s: 0.0,
                    steal_share,
                    latencies_ns: Vec::new(),
                })
                .collect(),
            measured: Tally::default(),
            all: Tally::default(),
            latencies_ns: Vec::new(),
            client_spans: Vec::new(),
            handler_spans: Vec::new(),
            unrecorded: 0,
            rss_peak: 0,
            live_bytes_share: 0.0,
            frag_share: 0.0,
            errors: Vec::new(),
        }
    }

    #[test]
    fn slice_medians_use_the_least_stolen_quarter() {
        let w = window_of(&[
            (0.3, 10),
            (0.0, 100),
            (0.1, 20),
            (0.0, 90),
            (0.5, 30),
            (0.2, 40),
            (0.4, 50),
            (0.6, 60),
        ]);
        assert_eq!(w.quiet_slices().len(), 2);
        assert_eq!(w.throughput_qps(), 95.0);
        // With no steal at all, every slice counts.
        let quiet = window_of(&[(0.0, 1), (0.0, 2), (0.0, 3), (0.0, 4), (0.0, 5)]);
        assert_eq!(quiet.quiet_slices().len(), 5);
        assert_eq!(quiet.throughput_qps(), 3.0);
    }

    #[test]
    fn server_side_losses_count_as_failures() {
        let mut net = NetStatsSnapshot::default();
        assert_eq!(server_failures(&net), 0);
        net.dropped_frames = 1;
        net.bad_frames = 2;
        net.proto_parse_errors[ProtocolKind::Resp.index()] = 3;
        net.sd_pending_dropped = 4;
        net.sd_stall_retired = 5;
        assert_eq!(server_failures(&net), 15);
    }
}
