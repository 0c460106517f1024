//! The answer check: a seeded sample of served `search` answers must equal
//! the in-process `cx_acq::acq` answer on the same graph generation,
//! compared as canonical member sets.

use std::collections::BTreeMap;
use std::sync::Arc;

use cx_acq::{AcqOptions, AcqStrategy};
use cx_cltree::ClTree;
use cx_graph::{Community, VertexId};
use cx_par::rng::Rng64;

use crate::load::CheckSample;
use crate::workload::{Bench, PAGE};

/// At most this many graph generations are rebuilt per run (one CL-tree
/// build each); samples at other generations are skipped.
pub const MAX_GENERATIONS: usize = 10;

/// Outcome of the answer check.
#[derive(Default)]
pub struct Report {
    pub checked: usize,
    /// One line per served answer that differs from the in-process one.
    pub mismatches: Vec<String>,
}

/// Re-computes the sampled answers in-process; a sample whose served
/// generation the edit list cannot produce is a mismatch too.
pub fn answers(bench: &Bench, samples: &[CheckSample]) -> Report {
    let (inputs, edits) = (&bench.inputs, &bench.edits);
    let mut by_gen: BTreeMap<u64, Vec<&CheckSample>> = BTreeMap::new();
    for s in samples {
        by_gen.entry(s.served.generation).or_default().push(s);
    }
    let mut gens: Vec<u64> = by_gen.keys().copied().collect();
    if gens.len() > MAX_GENERATIONS {
        let mut rng = Rng64::seed_from_u64(bench.seed ^ 0xc0ec);
        for i in 0..MAX_GENERATIONS {
            let j = rng.gen_range(i..gens.len());
            gens.swap(i, j);
        }
        gens.truncate(MAX_GENERATIONS);
        gens.sort_unstable();
    }
    let mut graph = Arc::clone(&inputs.graph);
    let mut applied = 0usize;
    let mut report = Report::default();
    for gen in gens {
        let Some(want) = gen
            .checked_sub(inputs.base_generation)
            .map(|n| n as usize)
            .filter(|&n| n <= edits.len())
        else {
            report.mismatches.push(format!(
                "served generation {gen} is not one the edit list produces"
            ));
            continue;
        };
        while applied < want {
            graph = Arc::new(graph.apply_delta(&edits[applied].delta));
            applied += 1;
        }
        let tree = ClTree::build(&graph);
        for s in &by_gen[&gen] {
            let q = &s.query;
            let keywords = q
                .keywords
                .iter()
                .filter_map(|k| graph.interner().get(k))
                .collect();
            let opts = AcqOptions::with_k(q.k).keywords(keywords);
            let expected = cx_check::canonicalize(
                cx_acq::acq(&graph, &tree, q.vertex, &opts, AcqStrategy::Dec).communities,
            );
            let served = cx_check::canonicalize(
                s.served
                    .page
                    .iter()
                    .map(|m| Community::new(m.iter().map(|&v| VertexId(v)).collect(), Vec::new()))
                    .collect(),
            );
            let members =
                |cs: &[Community]| cs.iter().map(|c| c.vertices().to_vec()).collect::<Vec<_>>();
            let (exp, got) = (members(&expected), members(&served));
            let same = if s.served.total <= PAGE {
                exp == got
            } else {
                got.iter().all(|m| exp.contains(m))
            };
            report.checked += 1;
            if s.served.total != expected.len() || !same {
                report.mismatches.push(format!(
                    "search {} k={} keywords={:?} at generation {gen}: served {} communities {:?}, in-process acq gives {} {:?}",
                    q.name,
                    q.k,
                    q.keywords,
                    s.served.total,
                    got.iter().take(3).collect::<Vec<_>>(),
                    expected.len(),
                    exp.iter().take(3).collect::<Vec<_>>()
                ));
            }
        }
    }
    report
}
