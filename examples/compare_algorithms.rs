//! The Analysis tab (Figure 6): run Global, Local, CODICIL and ACQ on the
//! same hub query, print the statistics table, the CPJ/CMF bar charts and
//! the cross-method similarity matrix.
//!
//! Run with: `cargo run --release --example compare_algorithms [n_authors] [k]`

use c_explorer::prelude::*;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4_000);
    let k: u32 = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(4);
    let (graph, _) = dblp_like(&DblpParams::scaled(n, 42));
    println!("graph: {}", cx_graph::GraphStats::compute(&graph));

    let hub = graph.vertices().max_by_key(|&v| graph.degree(v)).unwrap();
    let label = graph.label(hub).to_owned();
    println!("query: {label} (degree {}), k = {k}\n", graph.degree(hub));

    let engine = Engine::with_graph("dblp", graph);
    let spec = QuerySpec::by_label(label).k(k);
    let methods = ["global", "local", "codicil", "acq"];
    let report =
        engine.compare(None, &methods, &spec, &CancelToken::none()).expect("compare failed");

    println!("Community statistics (the Figure 6(a) table):");
    println!("{}", report.table());
    println!("{}", report.quality_charts());

    println!("\nSimilarity analysis (best-match F1 between result sets):");
    print!("{:<10}", "");
    for m in &methods {
        print!("{m:>10}");
    }
    println!();
    for (i, m) in methods.iter().enumerate() {
        print!("{m:<10}");
        for j in 0..methods.len() {
            print!("{:>10.3}", report.similarity[i][j]);
        }
        println!();
    }
}
