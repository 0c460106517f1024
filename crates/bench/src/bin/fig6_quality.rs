//! Experiment E3 — the Figure 6(a) CPJ/CMF bar charts: quality of the
//! communities retrieved by each method, averaged over several hub-author
//! queries. Expected shape (from the ACQ paper's evaluation, which the
//! demo visualises): ACQ highest on both metrics, Global lowest.

use cx_bench::{top_hubs, workload};
use cx_explorer::{CancelToken, Engine, QuerySpec};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4000);
    let k: u32 = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(4);
    let queries: usize = std::env::args().nth(3).and_then(|a| a.parse().ok()).unwrap_or(5);
    let (g, _) = workload(n, 42);
    println!(
        "Figure 6(a) quality bars — {} vertices, {} edges; k = {k}; {queries} hub queries\n",
        g.vertex_count(),
        g.edge_count()
    );
    let hubs = top_hubs(&g, queries);
    let labels: Vec<String> = hubs.iter().map(|&v| g.label(v).to_owned()).collect();
    let engine = Engine::with_graph("dblp", g);

    let methods = ["global", "local", "codicil", "acq"];
    let mut cpj_avg = vec![0.0f64; methods.len()];
    let mut cmf_avg = vec![0.0f64; methods.len()];
    for label in &labels {
        let spec = QuerySpec::by_label(label.clone()).k(k);
        let report =
            engine.compare(None, &methods, &spec, &CancelToken::none()).expect("compare failed");
        for (i, row) in report.rows.iter().enumerate() {
            cpj_avg[i] += row.cpj / labels.len() as f64;
            cmf_avg[i] += row.cmf / labels.len() as f64;
        }
    }

    let cpj_data: Vec<(&str, f64)> =
        methods.iter().zip(&cpj_avg).map(|(&m, &v)| (m, v)).collect();
    let cmf_data: Vec<(&str, f64)> =
        methods.iter().zip(&cmf_avg).map(|(&m, &v)| (m, v)).collect();
    println!("CPJ (community pairwise Jaccard — higher is better)");
    println!("{}\n", cx_metrics::bar_chart(&cpj_data, 40));
    println!("CMF (community member frequency — higher is better)");
    println!("{}\n", cx_metrics::bar_chart(&cmf_data, 40));
    println!("Expected shape: ACQ highest on both; Global lowest (its huge");
    println!("k-core mixes many topics, diluting keyword cohesion).");
}
