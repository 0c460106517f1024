#![warn(missing_docs)]

//! # cx-bench — shared workload helpers for the experiment harness
//!
//! Every table and figure of the paper is regenerated by a binary in
//! `src/bin/` (human-readable tables, see EXPERIMENTS.md for the index)
//! and timed by the std-timer benches in `benches/` (see [`timer`]).
//! This library holds the common workload construction so every
//! experiment runs on the same graphs.

use cx_graph::{AttributedGraph, VertexId};

pub use cx_datagen::{dblp_like, DblpParams};

/// The standard experiment workload: a DBLP-like graph with `n` authors,
/// seeded deterministically. Returns the graph and planted areas.
pub fn workload(n: usize, seed: u64) -> (AttributedGraph, Vec<usize>) {
    dblp_like(&DblpParams::scaled(n, seed))
}

/// The highest-degree vertex — the "Jim Gray" of the synthetic graph
/// (queries in the paper target renowned, i.e. well-connected, authors).
pub fn hub_vertex(g: &AttributedGraph) -> VertexId {
    g.vertices().max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0))).expect("non-empty graph")
}

/// The highest-degree vertex of one planted area.
pub fn hub_of_area(g: &AttributedGraph, areas: &[usize], area: usize) -> Option<VertexId> {
    g.vertices()
        .filter(|v| areas.get(v.index()) == Some(&area))
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0)))
}

/// The `count` highest-degree vertices, ties broken by id — a stable set
/// of "renowned author" queries.
pub fn top_hubs(g: &AttributedGraph, count: usize) -> Vec<VertexId> {
    let mut vs: Vec<VertexId> = g.vertices().collect();
    vs.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
    vs.truncate(count);
    vs
}

/// A counting wrapper over the system allocator, used by the perf bench
/// binaries to verify the hot path's steady-state zero-allocation
/// contract and to record per-phase allocation counts in bench JSON.
///
/// Opt in per binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// then bracket a measured region with [`alloc_counter::counted`].
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// Forwards to [`System`], counting every `alloc`/`alloc_zeroed`/
    /// `realloc` call and the bytes it requested. `dealloc` is free.
    pub struct CountingAllocator;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Heap allocations counted so far (process-wide).
    pub fn allocs() -> u64 {
        ALLOCS.load(Relaxed)
    }

    /// Heap bytes requested so far (process-wide).
    pub fn bytes() -> u64 {
        BYTES.load(Relaxed)
    }

    /// Runs `f`, returning `(result, allocation count, bytes requested)`
    /// for the allocations performed during the call.
    pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
        let (a0, b0) = (allocs(), bytes());
        let out = f();
        (out, allocs() - a0, bytes() - b0)
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or when the proc file is
/// unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Provenance line for a committed bench record: host CPU count, the
/// command-line arguments and the git revision (`git describe --always
/// --dirty`, or `"unknown"` outside a checkout), as one JSON object.
pub fn provenance_line() -> String {
    use cx_server::Json;
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rev = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    Json::obj([
        ("host_cpus", Json::num(cpus as f64)),
        ("args", Json::arr(std::env::args().skip(1).map(Json::str))),
        ("git_rev", Json::str(rev)),
    ])
    .to_string()
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.0}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Times a closure, returning (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A dependency-free stand-in for the Criterion harness: warm-up, a
/// fixed number of timed samples, median/min reporting. The `benches/`
/// entry points (all `harness = false`) drive this directly, so timing
/// works in the offline build without any external crate.
pub mod timer {
    use std::time::{Duration, Instant};

    /// One named group of related measurements (mirrors Criterion's
    /// `benchmark_group` so the bench sources read the same).
    pub struct Group {
        name: String,
        samples: usize,
    }

    impl Group {
        /// A group with the default 10 samples per benchmark.
        pub fn new(name: impl Into<String>) -> Self {
            Self { name: name.into(), samples: 10 }
        }

        /// Sets the number of timed samples per benchmark.
        pub fn sample_size(&mut self, n: usize) -> &mut Self {
            self.samples = n.max(1);
            self
        }

        /// Runs `f` once for warm-up, then `samples` timed iterations,
        /// and prints `group/id  median  (min)`.
        pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
            let (median, min) = measure(self.samples, &mut f);
            println!(
                "{:<44} median {:>10}  min {:>10}",
                format!("{}/{id}", self.name),
                super::fmt_duration(median),
                super::fmt_duration(min),
            );
        }
    }

    /// Times `samples` runs of `f` (after one warm-up run); returns
    /// `(median, min)`. Results pass through [`std::hint::black_box`] so
    /// the optimiser cannot discard the computation.
    pub fn measure<R>(samples: usize, f: &mut impl FnMut() -> R) -> (Duration, Duration) {
        std::hint::black_box(f());
        let mut times: Vec<Duration> = (0..samples.max(1))
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort();
        (times[times.len() / 2], times[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_sized() {
        let (g1, a1) = workload(500, 1);
        let (g2, _) = workload(500, 1);
        assert_eq!(g1.vertex_count(), 500);
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(a1.len(), 500);
    }

    #[test]
    fn hubs_are_high_degree() {
        let (g, areas) = workload(400, 2);
        let hub = hub_vertex(&g);
        assert_eq!(g.degree(hub), g.max_degree());
        let area_hub = hub_of_area(&g, &areas, 0).unwrap();
        assert_eq!(areas[area_hub.index()], 0);
        let tops = top_hubs(&g, 5);
        assert_eq!(tops.len(), 5);
        assert_eq!(tops[0], hub);
        assert!(g.degree(tops[0]) >= g.degree(tops[4]));
    }

    #[test]
    fn duration_formatting() {
        use std::time::Duration;
        assert!(fmt_duration(Duration::from_micros(500)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }

    #[test]
    fn timed_returns_result() {
        let (x, d) = timed(|| 41 + 1);
        assert_eq!(x, 42);
        assert!(d.as_nanos() > 0);
    }
}
