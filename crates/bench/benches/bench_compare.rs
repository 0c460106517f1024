//! Bench for E2/E3: the full comparison-analysis pipeline (methods +
//! statistics + CPJ/CMF + similarity matrix) — what one click of the
//! Analysis tab's "Compare" button costs. Uses the std-timer harness in
//! `cx_bench::timer`.

use cx_bench::{hub_vertex, timer::Group, workload};
use cx_explorer::{CancelToken, Engine, QuerySpec};

fn main() {
    let (g, _) = workload(4_000, 42);
    let hub = hub_vertex(&g);
    let label = g.label(hub).to_owned();
    let engine = Engine::with_graph("dblp", g);
    let spec = QuerySpec::by_label(label).k(4);

    let mut group = Group::new("comparison_analysis");
    group.sample_size(10);
    group.bench("search_methods_only", || {
        let none = CancelToken::none();
        engine.compare(None, &["global", "local", "acq"], &spec, &none).expect("compare failed")
    });
    group.bench("with_codicil", || {
        engine
            .compare(None, &["global", "local", "codicil", "acq"], &spec, &CancelToken::none())
            .expect("compare failed")
    });
}
