//! Experiment E2 — regenerates the Figure 6(a) "Community Statistics"
//! table: Method / Communities / Vertices / Edges / Degree (plus CPJ, CMF
//! and latency), for Global, Local, CODICIL and ACQ on the DBLP-like
//! workload with a hub-author query and degree ≥ 4.
//!
//! Paper values (authors' DBLP sample, q = Jim Gray, degree ≥ 4):
//!   Global   1 community   305 vertices  763 edges  5.0 degree
//!   Local    1 community    50 vertices  160 edges  6.4 degree
//!   CODICIL  1 community    41 vertices   72 edges  3.5 degree
//!   ACQ      3 communities  39 vertices  102 edges  5.2 degree
//!
//! The absolute numbers depend on the (private) dataset; the shape to
//! check is: Global ≫ Local ≥ CODICIL ≈ ACQ in size, ACQ possibly >1
//! community, ACQ best on CPJ/CMF.

use cx_bench::{hub_vertex, workload};
use cx_explorer::{CancelToken, Engine, QuerySpec};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4000);
    let k: u32 = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(4);
    let (g, _) = workload(n, 42);
    println!(
        "Figure 6(a) reproduction — DBLP-like graph: {} vertices, {} edges; k = {k}",
        g.vertex_count(),
        g.edge_count()
    );
    let q = hub_vertex(&g);
    let label = g.label(q).to_owned();
    println!("query vertex: {label} (degree {})\n", g.degree(q));

    let engine = Engine::with_graph("dblp", g);
    let spec = QuerySpec::by_label(label).k(k);
    let report = engine
        .compare(None, &["global", "local", "codicil", "acq"], &spec, &CancelToken::none())
        .expect("comparison failed");
    println!("{}", report.table());
    println!("Paper (for shape comparison):");
    println!("{:<14} {:>11} {:>9} {:>8} {:>7}", "Method", "Communities", "Vertices", "Edges", "Degree");
    println!("{:<14} {:>11} {:>9} {:>8} {:>7}", "global", 1, 305, 763, 5.0);
    println!("{:<14} {:>11} {:>9} {:>8} {:>7}", "local", 1, 50, 160, 6.4);
    println!("{:<14} {:>11} {:>9} {:>8} {:>7}", "codicil", 1, 41, 72, 3.5);
    println!("{:<14} {:>11} {:>9} {:>8} {:>7}", "acq", 3, 39, 102, 5.2);
}
