//! The Figure 4 plug-in API in action: implement a third-party community
//! search algorithm, register it, and watch it appear in search and the
//! comparison analysis next to the built-ins — the paper's promise that
//! "a user can also plug in her own CR solution … through a simple API".
//!
//! The toy algorithm here is a two-hop ego community: q, its neighbours,
//! and any second-hop vertex connected to ≥ 3 first-hop members — simple,
//! but a complete working example of the extension contract.
//!
//! Run with: `cargo run --release --example plugin`

use std::collections::HashMap;

use c_explorer::prelude::*;
use cx_explorer::{CsAlgorithm, GraphContext};

/// The third-party algorithm: a density-filtered 2-hop ego network.
struct EgoCommunity {
    /// Minimum first-hop connections a second-hop vertex needs.
    anchors: usize,
}

impl CsAlgorithm for EgoCommunity {
    fn name(&self) -> &str {
        "ego2"
    }

    fn search(&self, ctx: &GraphContext<'_>, qs: &[VertexId], _spec: &QuerySpec) -> Vec<Community> {
        let Some(&q) = qs.first() else { return Vec::new() };
        let g = ctx.graph;
        let mut members = vec![q];
        members.extend_from_slice(g.neighbors(q));
        // Second hop: vertices touching several first-hop members.
        let mut touch: HashMap<VertexId, usize> = HashMap::new();
        for &u in g.neighbors(q) {
            for &v in g.neighbors(u) {
                if v != q && !g.neighbors(q).contains(&v) {
                    *touch.entry(v).or_insert(0) += 1;
                }
            }
        }
        members.extend(touch.into_iter().filter(|&(_, c)| c >= self.anchors).map(|(v, _)| v));
        vec![Community::structural(members)]
    }
}

fn main() {
    let (graph, _) = dblp_like(&DblpParams::scaled(4_000, 42));
    let hub = graph.vertices().max_by_key(|&v| graph.degree(v)).unwrap();
    let label = graph.label(hub).to_owned();

    let mut engine = Engine::with_graph("dblp", graph);

    // One line to install the plug-in…
    engine.register_cs(Box::new(EgoCommunity { anchors: 3 }));
    println!("registered CS algorithms: {:?}\n", engine.cs_names());

    // …and it behaves like any built-in: searchable…
    let spec = QuerySpec::by_label(label).k(4);
    let mine = engine.search("ego2", &spec).expect("plugin search failed");
    println!("ego2 found a community of {} members", mine[0].len());

    // …and comparable against the built-ins in the Analysis view.
    let report = engine
        .compare(None, &["global", "local", "acq", "ego2"], &spec, &CancelToken::none())
        .expect("comparison failed");
    println!("\n{}", report.table());
    println!("{}", report.quality_charts());
}
