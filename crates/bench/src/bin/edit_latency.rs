//! Edit latency: the payoff benchmark for the incremental write path.
//!
//! Measures edit wall time on DBLP-like graphs, for a single-edge toggle
//! and a 16-edge batch, in two modes:
//!
//! * **incremental**: `Engine::apply_edits` — CSR patch + warm
//!   `DynamicCore` core maintenance + subcore-scoped CL-tree repair;
//! * **full**: the post-edit graph rebuilt from scratch — `GraphBuilder`
//!   over the coalesced edge set, then `ClTree::build`, the construction
//!   the `incremental_vs_scratch` oracle checks the write path against.
//!
//! Edits always run in remove/re-add pairs so the graph ends every round
//! unchanged and the two modes measure identical work items. Emits one
//! JSON line per (size, mode, batch) configuration plus a speedup
//! summary per size, writes the report (stamped with host CPUs, args and
//! git revision) to `BENCH_edit_latency.json` unless `--smoke` is given,
//! and asserts the single-edge speedup bound on the largest size.
//!
//! Usage: `edit_latency [sizes] [rounds] [min_speedup] [--smoke]`
//! (defaults `10000,100000`, 20, 1.0 — CI smoke-runs a small size with a
//! modest bound; the committed report uses the defaults).

use std::collections::HashSet;
use std::time::Instant;

use cx_bench::{hub_vertex, provenance_line, workload};
use cx_cltree::ClTree;
use cx_explorer::Engine;
use cx_graph::{AttributedGraph, VertexId};

const BATCH: usize = 16;

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Picks `BATCH` edges spread across the graph (every `m/BATCH`-th edge),
/// so a batch touches many subcores rather than one hub neighbourhood.
fn batch_edges(g: &AttributedGraph) -> Vec<(VertexId, VertexId)> {
    let m = g.edge_count();
    let stride = (m / BATCH).max(1);
    g.edges().step_by(stride).take(BATCH).collect()
}

/// Times `rounds` remove/re-add pairs of `edges` through one engine's
/// incremental write path; returns every per-call latency in
/// microseconds, sorted ascending.
fn measure_incremental(
    g: &AttributedGraph,
    edges: &[(VertexId, VertexId)],
    rounds: usize,
) -> Vec<f64> {
    let engine = Engine::with_graph("dblp", g.clone());
    // Warm-up pair: seeds the writer's DynamicCore cache and faults in
    // whatever the path allocates lazily.
    engine.apply_edits(None, &[], edges).expect("warm-up remove");
    engine.apply_edits(None, edges, &[]).expect("warm-up re-add");
    time_pairs(edges, rounds, |add, remove| {
        engine.apply_edits(None, add, remove).expect("edit");
    })
}

/// Times `rounds` remove/re-add pairs of `edges` as from-scratch
/// rebuilds: each call coalesces the edit into the current edge set,
/// rebuilds the graph with `GraphBuilder` and indexes it with
/// `ClTree::build`.
fn measure_full(g: &AttributedGraph, edges: &[(VertexId, VertexId)], rounds: usize) -> Vec<f64> {
    let norm = |&(u, v): &(VertexId, VertexId)| if u < v { (u, v) } else { (v, u) };
    let mut current: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut rebuild = |add: &[(VertexId, VertexId)], remove: &[(VertexId, VertexId)]| {
        let removed: HashSet<_> = remove.iter().map(norm).collect();
        current.retain(|e| !removed.contains(e));
        current.extend(add.iter().map(norm));
        let graph = cx_check::rebuild_with_edges(g, &current);
        std::hint::black_box(ClTree::build(&graph));
    };
    rebuild(&[], edges);
    rebuild(edges, &[]);
    time_pairs(edges, rounds, rebuild)
}

/// Runs `rounds` (remove, re-add) pairs of `edges` through `apply`,
/// timing each call; returns the latencies in microseconds, sorted.
fn time_pairs(
    edges: &[(VertexId, VertexId)],
    rounds: usize,
    mut apply: impl FnMut(&[(VertexId, VertexId)], &[(VertexId, VertexId)]),
) -> Vec<f64> {
    let mut times = Vec::with_capacity(rounds * 2);
    for _ in 0..rounds {
        for (add, remove) in [(&[][..], edges), (edges, &[][..])] {
            let start = Instant::now();
            apply(add, remove);
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    times.sort_by(f64::total_cmp);
    times
}

fn config_line(n: usize, mode: &str, batch: usize, lat: &[f64]) -> String {
    format!(
        "{{\"vertices\":{n},\"mode\":\"{mode}\",\"batch\":{batch},\"calls\":{},\"p50_us\":{:.1},\"p99_us\":{:.1},\"max_us\":{:.1}}}",
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
    let sizes: Vec<usize> = args
        .first()
        .map(|a| a.split(',').filter_map(|p| p.parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![10_000, 100_000]);
    let rounds: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(20);
    let min_speedup: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(1.0);

    let mut report = String::new();
    let mut last_speedup = f64::INFINITY;
    for &n in &sizes {
        let (g, _) = workload(n, 7);
        let hub = hub_vertex(&g);
        let single = vec![(hub, g.neighbors(hub)[0])];
        let batch = batch_edges(&g);
        let mut p50 = std::collections::HashMap::new();
        for mode in ["incremental", "full"] {
            for (kind, edges) in [("single", &single), ("batch", &batch)] {
                let lat = match mode {
                    "incremental" => measure_incremental(&g, edges, rounds),
                    _ => measure_full(&g, edges, rounds),
                };
                let line = config_line(n, mode, edges.len(), &lat);
                println!("{line}");
                report.push_str(&line);
                report.push('\n');
                p50.insert((mode, kind), percentile(&lat, 0.50));
            }
        }
        let single_speedup = p50[&("full", "single")] / p50[&("incremental", "single")].max(1e-9);
        let batch_speedup = p50[&("full", "batch")] / p50[&("incremental", "batch")].max(1e-9);
        let line = format!(
            "{{\"vertices\":{n},\"edges\":{},\"single_edge_speedup\":{single_speedup:.1},\"batch16_speedup\":{batch_speedup:.1}}}",
            g.edge_count()
        );
        println!("{line}");
        report.push_str(&line);
        report.push('\n');
        last_speedup = single_speedup;
    }
    if smoke {
        println!("(smoke run: BENCH_edit_latency.json not written)");
    } else {
        report.push_str(&provenance_line());
        report.push('\n');
        std::fs::write("BENCH_edit_latency.json", &report).expect("write report");
    }

    assert!(
        last_speedup >= min_speedup,
        "single-edge incremental speedup {last_speedup:.1}x at the largest size \
         is below the {min_speedup}x bound"
    );
}
