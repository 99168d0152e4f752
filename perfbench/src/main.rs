//! `perfbench` — benchmark the batched DIDO server end to end.
//!
//! ```text
//! perfbench --workload read_zipf|rpc_1q|resp_ttl_churn --seed N
//!           --seconds S --trace 0|1 [--spans-dir DIR]
//! ```
//!
//! Prints the run's context and every metric by name and unit, then,
//! as the last line, one JSON object: the end-to-end metrics of the
//! untraced window with `--trace 0`, or with `--trace 1` the per-layer
//! metrics of a second, traced window. Exits non-zero on a usage error
//! or when the run cannot complete.

use perfbench::harness::{
    connect_and_preload, end_to_end, latency_records, measure, median, per_layer, percentile,
    ratio, server_failures, span_records, Metric, Server, Slice, SLICE, TRACED_WARMUP,
};
use perfbench::procstat::{release_free_heap, rss_bytes};
use perfbench::spans::{write_spans, HandlerLog};
use perfbench::verify::Tally;
use perfbench::workload::{find, CONNS, WORKLOADS};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A run that has not finished by then is abandoned.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Handler spans reserved per measured second.
const HANDLER_SPANS_PER_SEC: usize = 40_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--spans-dir DIR]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans_dir = PathBuf::from(".bench_build/perfbench-spans");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| (1..=60).contains(&s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--spans-dir" => spans_dir = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs an integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs 1..=60")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        spans_dir,
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<34} {:>16.4} {}", x.name, x.value, x.unit);
    }
}

fn result_json(correct: bool, run: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.requests.max(1),
        run.failed,
        body.join(", ")
    )
}

fn main() {
    let args = parse_args();
    let Some(def) = find(&args.workload) else {
        usage(&format!("unknown workload {}", args.workload));
    };
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        eprintln!("perfbench: run exceeded {RUN_DEADLINE:?}; abandoning it");
        std::process::exit(3);
    });
    let base = Instant::now();

    // Everything the clients send, and every buffer they record into,
    // exists before the first server starts, and before the RSS
    // baseline.
    let values = def.values();
    let pools = def.pools(args.seed);
    let preload = def.preload_pools();
    let latency_bufs = latency_records(def, args.seconds);
    let log = Arc::new(HandlerLog::new(
        base,
        HANDLER_SPANS_PER_SEC * args.seconds as usize,
    ));

    let mut run = Tally::default();
    let mut errors: Vec<String> = Vec::new();
    let set_up = |run: &mut Tally, errors: &mut Vec<String>| {
        let t = Instant::now();
        let server = Server::start(def, Arc::clone(&log)).unwrap_or_else(|e| {
            eprintln!("perfbench: server start failed: {e}");
            std::process::exit(1);
        });
        let (conns, preloaded, preload_errors) =
            connect_and_preload(&server, def, &preload, &values, base).unwrap_or_else(|e| {
                eprintln!("perfbench: connect failed: {e}");
                std::process::exit(1);
            });
        *run += preloaded;
        errors.extend(preload_errors);
        (server, conns, t.elapsed().as_secs_f64())
    };
    let mut setup_secs = Vec::with_capacity(def.setup_repeats);
    for _ in 1..def.setup_repeats {
        // Each set-up faults in fresh pages, as a new process would.
        release_free_heap();
        let (other, other_conns, secs) = set_up(&mut run, &mut errors);
        setup_secs.push(secs);
        run.failed += server_failures(&other.net());
        drop(other_conns);
        other.shutdown();
    }
    // The last set-up is the measured server. Memory the others freed
    // goes back to the OS before the RSS baseline, so it counts on
    // neither side.
    release_free_heap();
    let rss_base = rss_bytes();
    let (server, mut conns, last) = set_up(&mut run, &mut errors);
    setup_secs.push(last);
    let setup_s = median(&setup_secs);

    let untraced = measure(
        &server,
        def,
        &mut conns,
        &pools,
        &values,
        def.warmup,
        args.seconds,
        latency_bufs,
        None,
        base,
    );
    run += untraced.all;
    errors.extend(untraced.errors.iter().cloned());
    let traced = args.trace.then(|| {
        let records = span_records(&untraced);
        measure(
            &server,
            def,
            &mut conns,
            &pools,
            &values,
            TRACED_WARMUP,
            args.seconds,
            records,
            Some(&log),
            base,
        )
    });
    if let Some(t) = &traced {
        run += t.all;
        errors.extend(t.errors.iter().cloned());
    }
    let net = server.net();
    run.failed += server_failures(&net);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        def.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "context: io_backend={} reactors={} sd_writers={} dispatchers=1 nproc={} conns={} \
         window={}x{} store_mb={} keys={}",
        dido_net::IoBackend::name_of(net.io_backend),
        net.reactor_threads,
        net.sd_writer_threads,
        std::thread::available_parallelism().map_or(1, usize::from),
        CONNS,
        def.window,
        def.queries_per_request,
        def.store_mb,
        def.n_keys(),
    );
    println!(
        "setup: {} runs, median {setup_s:.4} s ({})",
        setup_secs.len(),
        setup_secs
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (shard, config) in server.configs().iter().enumerate() {
        println!("pipeline: shard {shard} {config}");
    }
    let e2e = end_to_end(&untraced, setup_s, rss_base);
    print_metrics("end-to-end (untraced window):", &e2e);
    let whole = &untraced.latencies_ns;
    println!(
        "  whole window: {:.1} q/s, host steal share {:.3}, latency samples {}, p50 {:.1} us, \
         p99 {:.1} us, p99.9 {:.1} us",
        ratio(untraced.measured.queries as f64, untraced.wall_s()),
        untraced.steal_share(),
        whole.len(),
        percentile(whole, 0.50) / 1e3,
        percentile(whole, 0.99) / 1e3,
        percentile(whole, 0.999) / 1e3,
    );
    let quartiles = |f: &dyn Fn(&Slice) -> f64| {
        let mut v: Vec<f64> = untraced.slices.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        [0.0, 0.25, 0.5, 0.75, 1.0]
            .map(|q| format!("{:.1}", percentile(&v, q)))
            .join(" / ")
    };
    println!(
        "  {} of {} slices of {:?} at or below the first-quartile slice steal share; over all slices, \
         min / q1 / median / q3 / max:",
        untraced.quiet_slices().len(),
        untraced.slices.len(),
        SLICE
    );
    println!("    q/s      {}", quartiles(&Slice::throughput_qps));
    println!(
        "    p50 us   {}",
        quartiles(&|s| percentile(&s.latencies_ns, 0.5) / 1e3)
    );
    println!(
        "    p99 us   {}",
        quartiles(&|s| percentile(&s.latencies_ns, 0.99) / 1e3)
    );
    println!("    steal %  {}", quartiles(&|s| s.steal_share * 100.0));
    println!(
        "  error_share {:.6} ({} of {} requests failed)",
        run.error_share(),
        run.failed,
        run.requests,
    );
    let unrecorded = untraced.unrecorded + traced.as_ref().map_or(0, |t| t.unrecorded);
    if unrecorded > 0 {
        println!("warning: {unrecorded} samples or spans did not fit their buffers");
    }
    for e in &errors {
        println!("error: {e}");
    }
    let metrics = match &traced {
        None => e2e,
        Some(t) => {
            let layers = per_layer(&server, t, untraced.throughput_qps(), &run);
            print_metrics("per-layer (traced window):", &layers);
            if let Err(e) =
                write_spans(&args.spans_dir, def.name, &t.handler_spans, &t.client_spans)
            {
                println!(
                    "warning: spans not written to {}: {e}",
                    args.spans_dir.display()
                );
            } else {
                println!(
                    "spans: {} handler, {} client, in {}",
                    t.handler_spans.len(),
                    t.client_spans.iter().map(Vec::len).sum::<usize>(),
                    args.spans_dir.display()
                );
            }
            layers
        }
    };
    drop(conns);
    server.shutdown();
    let correct = run.failed == 0 && errors.is_empty();
    println!("{}", result_json(correct, &run, &metrics));
}
