//! Quickstart: the paper's Figure 5 worked example, end to end.
//!
//! Builds the exact example graph from the paper, indexes it with a
//! CL-tree, runs the ACQ query `q = A, k = 2, S = {w, x, y}`, and prints
//! the community the paper derives by hand: `{A, C, D}` sharing `{x, y}`.
//!
//! Run with: `cargo run --example quickstart`

use c_explorer::prelude::*;

fn main() {
    // The attributed graph of Figure 5(a): 10 vertices, 11 edges, keyword
    // sets over {w, x, y, z}.
    let graph = cx_datagen::figure5_graph();
    println!("graph: {}", cx_graph::GraphStats::compute(&graph));

    // Index it (the engine builds the CL-tree at upload time).
    let engine = Engine::with_graph("figure5", graph);

    // The worked example from Section 3.2.
    let query = QuerySpec::by_label("A").k(2).with_keywords(["w", "x", "y"]);
    let communities = engine.search("acq", &query).expect("query failed");

    let snap = engine.snapshot(None).unwrap();
    let g = &*snap.graph;
    println!("\nACQ(q=A, k=2, S={{w,x,y}}) returned {} community:", communities.len());
    for c in &communities {
        let members: Vec<&str> = c.vertices().iter().map(|&v| g.label(v)).collect();
        let mut theme = c.theme(g);
        theme.sort();
        println!("  members: {members:?}  shared keywords: {theme:?}");
        assert_eq!(members, ["A", "C", "D"], "paper example must hold");
        assert_eq!(theme, ["x", "y"], "paper example must hold");
    }

    // Compare against the other algorithms on the same query.
    let report = engine
        .compare(
            None,
            &["global", "local", "acq"],
            &QuerySpec::by_label("A").k(2),
            &CancelToken::none(),
        )
        .expect("compare failed");
    println!("\n{}", report.table());

    // And render the community to SVG, as the UI's save button would.
    let a = g.vertex_by_label("A").unwrap();
    let scene = engine
        .display(None, &communities[0], LayoutAlgorithm::default_force(), Some(a))
        .expect("layout failed")
        .titled("ACQ community of A (k=2)");
    let path = std::env::temp_dir().join("cx_quickstart.svg");
    std::fs::write(&path, scene.to_svg()).expect("write svg");
    println!("community rendered to {}", path.display());
}
