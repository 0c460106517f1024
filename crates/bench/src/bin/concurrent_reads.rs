//! Reader latency under a concurrent writer — the payoff benchmark for
//! the snapshot engine core.
//!
//! Phase 1: `READERS` threads fire pinned-snapshot queries at one shared
//! engine with no writer. Phase 2: the same readers run again while one
//! writer thread toggles a hub edge through `Engine::apply_edits`
//! (rebuilding graph + CL-tree and publishing a fresh snapshot each
//! time), pausing between edits like an interactive editor would. Since
//! readers never take a lock an edit holds, the only slowdown phase 2
//! may show is the writer's own CPU use — the per-request p99 must stay
//! within 2× of the writer-free run.
//!
//! Emits one JSON line per phase plus a summary, and writes the whole
//! report (stamped with host CPUs, args and git revision) to
//! `BENCH_concurrent_reads.json` unless `--smoke` is given.
//!
//! Usage: `concurrent_reads [vertices] [reads_per_reader] [--smoke]`
//! (defaults 10000, 40).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cx_bench::{hub_vertex, provenance_line, workload};
use cx_explorer::{CancelToken, Engine, QuerySpec};

const READERS: usize = 8;
/// The writer's pause between edits: long enough that on a single-core
/// host the readers keep a large majority of the CPU (an interactive
/// editor, not a bulk loader).
const WRITER_PAUSE_MS: u64 = 20;

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Runs the reader fleet to completion; returns every per-request wall
/// latency in milliseconds, sorted ascending.
fn reader_latencies(engine: &Arc<Engine>, spec: &QuerySpec, reads: usize) -> Vec<f64> {
    let handles: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(engine);
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut times = Vec::with_capacity(reads);
                for _ in 0..reads {
                    let start = Instant::now();
                    let snap = engine.snapshot(None).expect("graph registered");
                    let out = engine
                        .search_snapshot_cancellable(&snap, "acq", &spec, &CancelToken::none())
                        .expect("search");
                    std::hint::black_box(out);
                    times.push(start.elapsed().as_secs_f64() * 1e3);
                }
                times
            })
        })
        .collect();
    let mut all: Vec<f64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    all.sort_by(f64::total_cmp);
    all
}

fn phase_line(phase: &str, lat: &[f64], edits: usize) -> String {
    format!(
        "{{\"phase\":\"{phase}\",\"readers\":{READERS},\"requests\":{},\"edits\":{edits},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3}}}",
        lat.len(),
        percentile(lat, 0.50),
        percentile(lat, 0.99),
        lat[lat.len() - 1],
    )
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(10_000);
    let reads: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(40);

    let (g, _) = workload(n, 7);
    let hub = hub_vertex(&g);
    let buddy = g.neighbors(hub)[0];
    let label = g.label(hub).to_owned();
    let engine = Arc::new(Engine::with_graph("dblp", g));
    engine.set_cache_capacity(0); // measure the search, not the cache
    let spec = QuerySpec::by_label(label).k(4);

    // Phase 1: readers only.
    let without = reader_latencies(&engine, &spec, reads);

    // Phase 2: readers plus one part-time writer toggling (hub, buddy).
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut edits = 0usize;
            // Always run remove/add in pairs so the graph ends unchanged.
            while !stop.load(Ordering::SeqCst) {
                engine.apply_edits(None, &[], &[(hub, buddy)]).expect("remove");
                engine.apply_edits(None, &[(hub, buddy)], &[]).expect("add back");
                edits += 2;
                std::thread::sleep(std::time::Duration::from_millis(WRITER_PAUSE_MS));
            }
            edits
        })
    };
    let with = reader_latencies(&engine, &spec, reads);
    stop.store(true, Ordering::SeqCst);
    let edits = writer.join().unwrap();

    let ratio = percentile(&with, 0.99) / percentile(&without, 0.99).max(1e-9);
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut report = String::new();
    report.push_str(&phase_line("no_writer", &without, 0));
    report.push('\n');
    report.push_str(&phase_line("with_writer", &with, edits));
    report.push('\n');
    report.push_str(&format!(
        "{{\"vertices\":{n},\"host_cpus\":{cpus},\"p99_ratio_with_vs_without\":{ratio:.3},\"within_2x\":{}}}\n",
        ratio <= 2.0
    ));
    print!("{report}");
    if smoke {
        println!("(smoke run: BENCH_concurrent_reads.json not written)");
    } else {
        report.push_str(&provenance_line());
        report.push('\n');
        std::fs::write("BENCH_concurrent_reads.json", &report).expect("write report");
    }

    assert!(
        ratio <= 2.0,
        "reader p99 degraded {ratio:.2}x under a concurrent writer (bound: 2x)"
    );
}
