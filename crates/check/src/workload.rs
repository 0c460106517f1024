//! Seeded graph/query matrices — the reproducible workloads the oracles
//! sweep.
//!
//! A *graph case* is a named, seeded [`cx_datagen`] graph; a *query case*
//! is one (vertex, k, keyword-selection) combination against it. Both are
//! pure functions of their seeds, so a CI failure message like
//! `dblp-200/s7 q=author-63 k=2` reproduces exactly on any machine.

use std::collections::HashSet;

use cx_datagen::{dblp_like, DblpParams};
use cx_graph::{AttributedGraph, KeywordId, VertexId};
use cx_par::rng::Rng64;

/// One named, seeded workload graph.
pub struct GraphCase {
    /// Stable display name, e.g. `dblp-200/s7` or `figure5`.
    pub name: String,
    /// The generated graph.
    pub graph: AttributedGraph,
}

/// One generated query against a workload graph.
#[derive(Debug, Clone)]
pub struct QueryCase {
    /// The query vertex.
    pub q: VertexId,
    /// Minimum internal degree.
    pub k: u32,
    /// Explicit keyword selection (empty = the ACQ default `S = W(q)`).
    pub keywords: Vec<KeywordId>,
}

impl QueryCase {
    /// Short reproducer string for failure messages.
    pub fn describe(&self, g: &AttributedGraph) -> String {
        format!(
            "q={} ({:?}) k={} |S|={}",
            g.label(self.q),
            self.q,
            self.k,
            if self.keywords.is_empty() { g.keywords(self.q).len() } else { self.keywords.len() }
        )
    }
}

/// DBLP-like parameters sized for correctness sweeps: smaller per-author
/// keyword sets than the benchmark preset, so the exponential `Basic`
/// baseline stays cheap enough to participate in every differential.
pub fn check_params(authors: usize, seed: u64) -> DblpParams {
    DblpParams {
        authors,
        areas: (authors / 60).clamp(2, 16),
        keywords_per_author: 6,
        vocab_per_area: 24,
        seed,
        ..DblpParams::default()
    }
}

/// The seed matrix: the Figure 5 fixture plus one DBLP-like graph per
/// (size, seed) pair. Sizes are author counts.
pub fn graph_matrix(sizes: &[usize], seeds: &[u64]) -> Vec<GraphCase> {
    let mut out = vec![GraphCase {
        name: "figure5".into(),
        graph: cx_datagen::figure5_graph(),
    }];
    for &n in sizes {
        for &seed in seeds {
            let (graph, _areas) = dblp_like(&check_params(n, seed));
            out.push(GraphCase { name: format!("dblp-{n}/s{seed}"), graph });
        }
    }
    out
}

/// Generates `count` query cases against `g`, seeded: a mix of hub
/// vertices (well-connected "renowned authors", what the paper queries),
/// uniform random vertices, and low-degree periphery; `k` sweeps 1..=4;
/// every third query pins an explicit keyword subset of `W(q)` (including
/// occasionally a keyword `q` does not carry, which ACQ must ignore).
pub fn query_workload(g: &AttributedGraph, count: usize, seed: u64) -> Vec<QueryCase> {
    let n = g.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = Rng64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let q = match i % 3 {
            // Hubs: one of the 10 best-connected vertices.
            0 => by_degree[(rng.next_u64() as usize) % by_degree.len().min(10)],
            // Uniform random.
            1 => VertexId((rng.next_u64() % n as u64) as u32),
            // Periphery: one of the 25% lowest-degree vertices.
            _ => {
                let tail = (n / 4).max(1);
                by_degree[n - 1 - (rng.next_u64() as usize) % tail]
            }
        };
        let k = 1 + (rng.next_u64() % 4) as u32;
        let mut keywords = Vec::new();
        if i % 3 == 2 {
            // Explicit subset of W(q) (possibly empty), sometimes salted
            // with a keyword from elsewhere in the vocabulary.
            for &w in g.keywords(q) {
                if rng.next_u64() % 2 == 0 {
                    keywords.push(w);
                }
            }
            if g.keyword_count() > 0 && rng.next_u64() % 4 == 0 {
                keywords.push(KeywordId((rng.next_u64() % g.keyword_count() as u64) as u32));
            }
        }
        out.push(QueryCase { q, k, keywords });
    }
    out
}

/// One step of a seeded edit script: a small batch of inserts and
/// deletes applied through a single `apply_edits` call.
#[derive(Debug, Clone, Default)]
pub struct EditStep {
    /// Edges to insert (normalized `u < v`).
    pub add: Vec<(VertexId, VertexId)>,
    /// Edges to delete (normalized `u < v`).
    pub remove: Vec<(VertexId, VertexId)>,
}

/// Generates a seeded, always-valid edit script against `g`: `steps`
/// batches of 1–3 edits each, ~40% deletes of currently-present edges and
/// the rest inserts of currently-absent pairs, with an occasional
/// structural no-op (re-adding an edge that already exists) thrown in.
/// The generator tracks the evolving edge set, so every delete targets an
/// existing edge and every insert a missing one — the interleavings that
/// exercise the incremental write path rather than its error handling.
pub fn edit_script(g: &AttributedGraph, steps: usize, seed: u64) -> Vec<EditStep> {
    let n = g.vertex_count() as u64;
    if n < 2 {
        return Vec::new();
    }
    let mut present: Vec<(VertexId, VertexId)> = g.edges().collect();
    let mut in_graph: HashSet<(VertexId, VertexId)> = present.iter().copied().collect();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xED17_5C21_9B0D_4E63);
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        let batch = 1 + (rng.next_u64() % 3) as usize;
        let mut step = EditStep::default();
        let mut added_this_step: HashSet<(VertexId, VertexId)> = HashSet::new();
        for _ in 0..batch {
            if !present.is_empty() && rng.next_u64() % 5 < 2 {
                // Delete an edge present before this step (not one the
                // same batch adds — `apply_edits` coalesces with add-wins
                // semantics, which would turn the pair into a no-op).
                for _ in 0..8 {
                    let idx = (rng.next_u64() as usize) % present.len();
                    if added_this_step.contains(&present[idx]) {
                        continue;
                    }
                    let e = present.swap_remove(idx);
                    in_graph.remove(&e);
                    step.remove.push(e);
                    break;
                }
            } else {
                for _ in 0..8 {
                    let u = VertexId((rng.next_u64() % n) as u32);
                    let v = VertexId((rng.next_u64() % n) as u32);
                    if u == v {
                        continue;
                    }
                    let e = if u < v { (u, v) } else { (v, u) };
                    if in_graph.contains(&e) {
                        continue;
                    }
                    in_graph.insert(e);
                    present.push(e);
                    added_this_step.insert(e);
                    step.add.push(e);
                    break;
                }
            }
        }
        // Occasionally re-add an existing edge: a structural no-op the
        // incremental path must coalesce away.
        if i % 7 == 3 && !present.is_empty() {
            step.add.push(present[(rng.next_u64() as usize) % present.len()]);
        }
        out.push(step);
    }
    out
}

/// A named graph with an edit script built to drive one case of the
/// edit-local CL-tree repair, and a vertex to query after every step.
pub struct EditCase {
    /// Stable display name, e.g. `repair/bridge-split`.
    pub name: String,
    /// The graph before the script.
    pub graph: AttributedGraph,
    /// The edits, applied one step at a time.
    pub script: Vec<EditStep>,
    /// The query vertex for the per-step community check.
    pub query: VertexId,
}

/// Seeded edit scripts that force each case of the edit-local repair
/// (see `cx_cltree::update`):
///
/// * `bridge-split` — two 5-cores joined by one edge; removing it splits
///   the component at every level 1..5, re-adding merges it back;
/// * `drop-cascade` — two 3-cores on a cycle of degree-2 vertices; cutting
///   the cycle drops all of them to core 1 and disconnects the 2-core
///   component, re-closing it raises them back;
/// * `rise-merge` — a vertex on the cycle gains a third edge into the
///   3-cores, rises to core 3 and merges the two sibling 3-cores;
/// * `hub-batch` — 16-edge batches mixing adds and removes around one
///   hub of a generated graph;
/// * `hub-script` — single edges and 16-edge batches at the top hubs of a
///   graph of the benchmark's shape (`DblpParams::paper_scale` at 2,000
///   authors), mirroring its edit mix.
///
/// Hubs are taken below the top core level; scripts that do reach it
/// still run, through the rebuild fallback.
pub fn local_repair_cases(seed: u64) -> Vec<EditCase> {
    let v = VertexId;
    let step = |add: &[(u32, u32)], remove: &[(u32, u32)]| EditStep {
        add: add.iter().map(|&(a, b)| (v(a), v(b))).collect(),
        remove: remove.iter().map(|&(a, b)| (v(a), v(b))).collect(),
    };
    let clique = |base: u32, size: u32| -> Vec<(u32, u32)> {
        (0..size).flat_map(|i| ((i + 1)..size).map(move |j| (base + i, base + j))).collect()
    };
    // Each small graph also holds a separate K8 (vertices n..n+8): a
    // 7-core above every edited level, so the repair runs edit-locally
    // instead of falling back to a rebuild when nothing survives above L.
    let build = |n: u32, edges: &[(u32, u32)]| {
        let mut b = cx_graph::GraphBuilder::new();
        for i in 0..n + 8 {
            b.add_vertex(&format!("v{i}"), &[&format!("k{}", i % 3), &format!("m{}", i % 5)]);
        }
        for (x, y) in edges.iter().copied().chain(clique(n, 8)) {
            b.add_edge(v(x), v(y));
        }
        b.build()
    };

    // Two K6 joined by the bridge 5–6, a tail 0–12–13, an isolated 14.
    let mut edges = clique(0, 6);
    edges.extend(clique(6, 6));
    edges.extend([(5, 6), (0, 12), (12, 13)]);
    let bridge = EditCase {
        name: "repair/bridge-split".into(),
        graph: build(15, &edges),
        script: vec![
            step(&[], &[(5, 6)]),
            step(&[(5, 6)], &[]),
            step(&[(4, 7), (13, 14)], &[(5, 6)]),
            step(&[(5, 6)], &[(4, 7), (13, 14)]),
            step(&[], &[(5, 6), (0, 12)]),
            step(&[(0, 12), (5, 6)], &[]),
        ],
        query: v(0),
    };

    // K4s 0..3 and 4..7 on the cycle 3–8–9–4 … 7–10–0; 11 isolated.
    let mut edges = clique(0, 4);
    edges.extend(clique(4, 4));
    edges.extend([(3, 8), (8, 9), (9, 4), (7, 10), (10, 0)]);
    let cascade = EditCase {
        name: "repair/drop-cascade".into(),
        graph: build(12, &edges),
        script: vec![
            step(&[], &[(8, 9)]),
            step(&[(8, 9)], &[]),
            step(&[(11, 8)], &[(10, 0)]),
            step(&[(10, 0)], &[(11, 8), (9, 4)]),
            step(&[(9, 4)], &[]),
        ],
        query: v(8),
    };

    // K4s 0..3 and 4..7; 8 joins 0 and 4, 9 closes the cycle 7–9–3.
    let mut edges = clique(0, 4);
    edges.extend(clique(4, 4));
    edges.extend([(8, 0), (8, 4), (7, 9), (9, 3)]);
    let rise = EditCase {
        name: "repair/rise-merge".into(),
        graph: build(10, &edges),
        script: vec![
            step(&[(8, 1)], &[]),
            step(&[], &[(8, 1)]),
            step(&[(8, 1), (8, 5)], &[]),
            step(&[], &[(8, 0), (8, 4)]),
            step(&[(8, 0), (8, 4)], &[(8, 1), (8, 5)]),
        ],
        query: v(8),
    };

    let (hub_graph, _) = dblp_like(&check_params(300, seed));
    let hub_batch = hub_case("repair/hub-batch", hub_graph, 1, 4, 1, seed);
    let (bench_graph, _) =
        dblp_like(&DblpParams { authors: 2_000, ..DblpParams::paper_scale(seed) });
    let hub_script = hub_case("repair/hub-script", bench_graph, 50, 30, 5, seed);
    vec![bridge, cascade, rise, hub_batch, hub_script]
}

/// `steps` edits at the `hubs` highest-degree vertices below the top
/// core level (an edit reaching the top level is rebuilt, not repaired):
/// every `batch_every`-th step a 16-edge batch, the others one edge. An
/// edge either removes one of the hub's edges or adds a
/// friend-of-a-friend co-authorship, half and half.
fn hub_case(
    name: &str,
    graph: AttributedGraph,
    hubs: usize,
    steps: usize,
    batch_every: usize,
    seed: u64,
) -> EditCase {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x4B0B_5C21);
    let cores = cx_kcore::CoreDecomposition::compute(&graph);
    let mut by_degree: Vec<VertexId> =
        graph.vertices().filter(|&u| cores.core(u) < cores.max_core()).collect();
    by_degree.sort_by_key(|&u| (std::cmp::Reverse(graph.degree(u)), u.0));
    by_degree.truncate(hubs.max(1));
    let mut g = graph.clone();
    let mut script = Vec::with_capacity(steps);
    for i in 0..steps {
        let edges = if i % batch_every == batch_every - 1 { 16 } else { 1 };
        let mut step = EditStep::default();
        for _ in 0..edges {
            let u = by_degree[(rng.next_u64() % by_degree.len() as u64) as usize];
            let nbrs = g.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            let w = nbrs[(rng.next_u64() % nbrs.len() as u64) as usize];
            if rng.next_u64() % 2 == 0 {
                step.remove.push((u, w));
                continue;
            }
            let second = g.neighbors(w);
            let x = second[(rng.next_u64() % second.len() as u64) as usize];
            if x != u && !g.has_edge(u, x) {
                step.add.push((u, x));
            }
        }
        let delta = g.edge_delta(&step.add, &step.remove).expect("script endpoints exist");
        g = g.apply_delta(&delta);
        script.push(step);
    }
    EditCase { name: name.into(), graph, script, query: by_degree[0] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_deterministic() {
        let a = graph_matrix(&[80], &[7]);
        let b = graph_matrix(&[80], &[7]);
        assert_eq!(a.len(), 2); // figure5 + dblp-80/s7
        assert_eq!(a[1].name, "dblp-80/s7");
        assert_eq!(a[1].graph.vertex_count(), b[1].graph.vertex_count());
        assert_eq!(a[1].graph.edge_count(), b[1].graph.edge_count());
        let ea: Vec<_> = a[1].graph.edges().collect();
        let eb: Vec<_> = b[1].graph.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn workload_is_deterministic_and_in_bounds() {
        let g = cx_datagen::figure5_graph();
        let w1 = query_workload(&g, 12, 3);
        let w2 = query_workload(&g, 12, 3);
        assert_eq!(w1.len(), 12);
        for (a, b) in w1.iter().zip(&w2) {
            assert_eq!(a.q, b.q);
            assert_eq!(a.k, b.k);
            assert_eq!(a.keywords, b.keywords);
            assert!(g.contains(a.q));
            assert!((1..=4).contains(&a.k));
        }
        // Different seeds give different workloads.
        let w3 = query_workload(&g, 12, 4);
        assert!(w1.iter().zip(&w3).any(|(a, b)| a.q != b.q || a.k != b.k));
    }

    #[test]
    fn edit_scripts_are_deterministic_and_valid() {
        let g = cx_datagen::figure5_graph();
        let s1 = edit_script(&g, 30, 9);
        let s2 = edit_script(&g, 30, 9);
        assert_eq!(s1.len(), 30);
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.add, b.add);
            assert_eq!(a.remove, b.remove);
        }
        assert!(s1.iter().zip(edit_script(&g, 30, 10)).any(|(a, b)| a.add != b.add));
        // Replaying the script through the real delta layer never errors:
        // every step is valid against the graph state it was generated for.
        let mut cur = g.clone();
        let mut deletes = 0;
        for step in &s1 {
            let delta = cur.edge_delta(&step.add, &step.remove).unwrap();
            deletes += delta.removed.len();
            cur = cur.apply_delta(&delta);
        }
        assert!(deletes > 0, "script never deleted anything");
    }

    #[test]
    fn check_params_keep_basic_feasible() {
        let p = check_params(120, 1);
        assert!(p.keywords_per_author <= 8, "Basic is 2^|S|; keep S small");
        let (g, _) = dblp_like(&p);
        assert_eq!(g.vertex_count(), 120);
    }
}
