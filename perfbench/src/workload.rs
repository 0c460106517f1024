//! Workload definitions, seeded inputs and the request model.
//!
//! The DBLP-like graph and its profile records are the dataset, fixed by
//! [`GRAPH_SEED`], and so is the edit list; `--seed` draws each
//! connection's UI sessions. The offered rates and mix shares are constants
//! here and are restated in the `why` of each workload in
//! `BENCHMARK.json`, which `main` checks before it runs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cx_cltree::ClTree;
use cx_datagen::{dblp_like, generate_profiles, DblpParams};
use cx_explorer::{Engine, Profile};
use cx_graph::{AttributedGraph, EdgeDelta, VertexId};
use cx_par::rng::Rng64;

/// One named load shape.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also printed into the run record).
    pub why: &'static str,
    /// Authors in the generated graph.
    pub authors: usize,
    /// Offered read rate in requests/s, summed over the read connections.
    pub read_rate: f64,
    /// Keep-alive connections carrying UI sessions.
    pub read_conns: usize,
    /// Open-loop writer rate in edits/s, on a connection of its own (0:
    /// none).
    pub edit_rate: f64,
    /// Serial edits sent between the read rounds; `edit_p50_ms` and
    /// `edit_p95_ms` come from these and the writer's edits.
    pub edit_probe: usize,
    /// Shares of `--seconds` spent in the open loop and the closed loop;
    /// the rest, if any, is left to the serial edits.
    pub open_share: f64,
    pub closed_share: f64,
    /// Requests replayed in-process by the traced run.
    pub replay_requests: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "browse_100k",
        why: "UI session reads on a 100k-author graph at a rate where transport, routing, JSON, \
              snapshot pin, cache and the obs metric lock carry a large share of each request",
        authors: 100_000,
        read_rate: 125.0,
        read_conns: 2,
        edit_rate: 0.0,
        edit_probe: 200,
        open_share: 0.8,
        closed_share: 0.2,
        replay_requests: 1200,
    },
    Workload {
        name: "edit_100k",
        why: "the browse_100k reads beside an open-loop writer on a connection of its own: \
              every publish appends to the WAL, repairs the indexes and purges the query cache",
        authors: 100_000,
        read_rate: 120.0,
        read_conns: 1,
        edit_rate: 2.0,
        edit_probe: 140,
        open_share: 0.8,
        closed_share: 0.2,
        replay_requests: 900,
    },
];

/// Query degrees a session picks from (only those ≤ the author's core).
pub const K_CHOICES: [u32; 3] = [3, 4, 5];
/// Share of searches that carry 1–3 selected keywords.
pub const KEYWORD_SHARE: f64 = 1.0 / 3.0;
/// Chance that a session ends with a hierarchy level view.
pub const HIERARCHY_SHARE: f64 = 0.25;
/// Mean requests per session: six steps plus the occasional level view.
pub const REQUESTS_PER_SESSION: f64 = 6.0 + HIERARCHY_SHARE;
/// Zipf exponent over the degree rank of eligible authors.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Edits go to authors drawn uniformly from this many top-degree hubs:
/// hub neighbourhoods, spread over enough of them that a run's edit cost
/// does not hinge on a few authors.
pub const EDIT_HUBS: usize = 2_000;
/// One edit in this many is a 16-edge batch (the rest are single edges).
pub const BATCH_EVERY: usize = 5;
pub const BATCH_EDGES: usize = 16;
/// Communities per search response page (the server default).
pub const PAGE: usize = 20;
/// Name-box suggestions requested per keystroke.
pub const SUGGEST_LIMIT: usize = 8;
/// The registry name the prepared store holds the graph under.
pub const GRAPH: &str = "main";

/// Everything a run derives from its workload and seed.
pub struct Bench {
    pub workload: &'static Workload,
    pub seed: u64,
    pub inputs: Inputs,
    pub plan: Plan,
    pub edits: Vec<Edit>,
}

/// Seed of the generated graph. The graph is the dataset, as DBLP is in
/// the paper, and stays the same for every run; `--seed` draws the
/// sessions. With a graph per seed, its hub structure alone
/// moved the search p99 by half between seeds.
pub const GRAPH_SEED: u64 = 42;

/// The graph generator family at `authors` vertices.
pub fn params(authors: usize, seed: u64) -> DblpParams {
    DblpParams {
        authors,
        ..DblpParams::paper_scale(seed)
    }
}

/// The seeded inputs shared by the load generator, the answer check and
/// the traced replay.
pub struct Inputs {
    pub graph: Arc<AttributedGraph>,
    /// The CL-tree index of the base graph.
    pub tree: Arc<ClTree>,
    /// Generation of the graph in the prepared store.
    pub base_generation: u64,
    /// Core number per vertex.
    pub core: Vec<u32>,
    /// Planted research area per vertex.
    pub area: Vec<usize>,
    /// Query authors: core ≥ min(K_CHOICES) in an even-numbered area, by
    /// degree descending then id.
    pub readers: Ranked,
    /// Edited authors: the [`EDIT_HUBS`] highest-degree authors of the
    /// odd-numbered areas.
    pub writers: Vec<VertexId>,
    pub max_level: u32,
}

/// Authors ranked by degree, drawn Zipf-by-rank.
pub struct Ranked {
    pub authors: Vec<VertexId>,
    /// Cumulative Zipf probability of each rank.
    cdf: Vec<f64>,
}

impl Ranked {
    fn new(g: &AttributedGraph, mut authors: Vec<VertexId>) -> Result<Ranked, String> {
        if authors.is_empty() {
            return Err("no author to draw from".into());
        }
        authors.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v.0));
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..authors.len())
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Ok(Ranked { authors, cdf })
    }

    /// The author at cumulative probability `u` in [0, 1).
    fn at(&self, u: f64) -> VertexId {
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.authors.len() - 1);
        self.authors[rank]
    }

    /// `count` authors, one from each of `count` equal slices of the Zipf
    /// distribution in seeded order: every run asks hubs and the long tail
    /// in the same proportions, and the seed decides which authors and
    /// when.
    fn stratified(&self, rng: &mut Rng64, count: usize) -> Vec<VertexId> {
        let mut slices: Vec<usize> = (0..count).collect();
        for i in (1..count).rev() {
            slices.swap(i, rng.gen_range(0..=i));
        }
        slices
            .into_iter()
            .map(|s| self.at((s as f64 + rng.gen::<f64>()) / count as f64))
            .collect()
    }
}

/// Whether edits may touch `v`: reads and writes live in disjoint areas
/// (see [`answer_fits`]).
fn writable(inputs: &Inputs, v: VertexId) -> bool {
    inputs.area[v.index()] % 2 == 1
}

/// Generates the graph and returns the inputs with the directory of a
/// compacted durable store holding it, with a profile for every author.
/// The store is built once per program version under `cache` (keyed by
/// the source digest) and only ever copied afterwards.
pub fn prepare(w: &Workload, cache: &Path) -> Result<(Inputs, PathBuf), String> {
    let (graph, areas) = dblp_like(&params(w.authors, GRAPH_SEED));
    let name = format!("store-{}-{}", w.authors, crate::stats::source_digest());
    let (dir, marker) = (cache.join(&name), cache.join(format!("{name}.generation")));
    let base_generation = match std::fs::read_to_string(&marker)
        .ok()
        .and_then(|s| s.trim().parse().ok())
    {
        Some(generation) if dir.is_dir() => generation,
        _ => {
            let tmp = cache.join(format!("{name}.tmp"));
            for stale in [&tmp, &dir] {
                let _ = std::fs::remove_dir_all(stale);
            }
            let generation = write_store(&graph, &areas, &tmp)?;
            std::fs::rename(&tmp, &dir).map_err(|e| e.to_string())?;
            std::fs::write(&marker, generation.to_string()).map_err(|e| e.to_string())?;
            generation
        }
    };
    let graph = Arc::new(graph);
    let tree = Arc::new(ClTree::build(&graph));
    let core = tree.core_numbers().to_vec();
    let min_k = K_CHOICES[0];
    let readers = graph
        .vertices()
        .filter(|v| core[v.index()] >= min_k && areas[v.index()] % 2 == 0)
        .collect();
    let mut writers: Vec<VertexId> = graph
        .vertices()
        .filter(|v| areas[v.index()] % 2 == 1)
        .collect();
    writers.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v.0));
    writers.truncate(EDIT_HUBS);
    let inputs = Inputs {
        readers: Ranked::new(&graph, readers)?,
        writers,
        area: areas,
        base_generation,
        max_level: tree.max_core(),
        tree,
        graph,
        core,
    };
    Ok((inputs, dir))
}

/// Writes `graph` and its profiles into a compacted store at `dir`;
/// returns the graph's generation there.
fn write_store(graph: &AttributedGraph, areas: &[usize], dir: &Path) -> Result<u64, String> {
    let profiles = generate_profiles(graph, areas, usize::MAX);
    let engine = Engine::open_durable(dir).map_err(|e| format!("create store: {e}"))?;
    engine
        .try_add_graph(GRAPH, graph.clone())
        .map_err(|e| format!("add graph: {e}"))?;
    engine
        .set_profiles(
            Some(GRAPH),
            profiles.into_iter().map(|p| {
                let profile = Profile {
                    name: p.name,
                    areas: p.areas,
                    institutes: p.institutes,
                    interests: p.interests,
                };
                (p.vertex, profile)
            }),
        )
        .map_err(|e| format!("set profiles: {e}"))?;
    engine
        .compact_store()
        .map_err(|e| format!("compact store: {e}"))?;
    let snap = engine.snapshot(Some(GRAPH)).map_err(|e| e.to_string())?;
    Ok(snap.generation)
}

/// One ACQ query as the UI sends it.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    pub name: String,
    pub vertex: VertexId,
    pub k: u32,
    pub keywords: Vec<String>,
}

impl Query {
    fn params(&self) -> String {
        let mut s = format!("name={}&k={}", self.name, self.k);
        if !self.keywords.is_empty() {
            s.push_str("&keywords=");
            s.push_str(&self.keywords.join(","));
        }
        s
    }
}

/// One edge edit, with the state the server must report after it.
#[derive(Clone, Debug)]
pub struct Edit {
    pub add: Vec<(u32, u32)>,
    pub remove: Vec<(u32, u32)>,
    /// The effective delta against the graph it applies to.
    pub delta: EdgeDelta,
    /// Edge count after the edit.
    pub edges_after: usize,
}

impl Edit {
    pub fn body(&self) -> String {
        let pairs = |es: &[(u32, u32)]| {
            es.iter()
                .map(|(u, v)| format!("[{u},{v}]"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"add\":[{}],\"remove\":[{}]}}",
            pairs(&self.add),
            pairs(&self.remove)
        )
    }
}

/// The request kinds, in reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Suggest,
    Search,
    Svg,
    Profile,
    Hierarchy,
    Edit,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Suggest,
        Kind::Search,
        Kind::Svg,
        Kind::Profile,
        Kind::Hierarchy,
        Kind::Edit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Suggest => "suggest",
            Kind::Search => "search",
            Kind::Svg => "svg",
            Kind::Profile => "profile",
            Kind::Hierarchy => "hierarchy",
            Kind::Edit => "edit",
        }
    }
}

/// One request of the benchmark.
#[derive(Clone, Debug)]
pub enum Req {
    Suggest {
        q: String,
    },
    Search(Query),
    /// SVG drawing of community `index` of a search answer.
    Svg {
        query: Query,
        index: usize,
    },
    Profile {
        id: u32,
    },
    /// JSON level view of the summary hierarchy.
    Level {
        level: u32,
    },
    /// SVG level view of the summary hierarchy.
    LevelSvg {
        level: u32,
    },
    /// Index into the edit list.
    Edit(usize),
}

impl Req {
    pub fn kind(&self) -> Kind {
        match self {
            Req::Suggest { .. } => Kind::Suggest,
            Req::Search(_) => Kind::Search,
            Req::Svg { .. } => Kind::Svg,
            Req::Profile { .. } => Kind::Profile,
            Req::Level { .. } | Req::LevelSvg { .. } => Kind::Hierarchy,
            Req::Edit(_) => Kind::Edit,
        }
    }

    pub fn target(&self) -> String {
        match self {
            Req::Suggest { q } => format!("/api/v1/suggest?q={q}&limit={SUGGEST_LIMIT}"),
            Req::Search(q) => format!("/api/v1/search?{}&algo=acq", q.params()),
            Req::Svg { query, index } => {
                format!("/api/v1/svg?{}&algo=acq&index={index}", query.params())
            }
            Req::Profile { id } => format!("/api/v1/profile?id={id}"),
            Req::Level { level } => format!("/api/v1/hierarchy?level={level}&limit=50"),
            Req::LevelSvg { level } => format!("/api/v1/svg?level={level}&max_nodes=200"),
            Req::Edit(_) => "/api/v1/edit".to_owned(),
        }
    }

    /// The server-side request (edits carry their JSON body).
    pub fn to_request(&self, edits: &[Edit]) -> cx_server::Request {
        match self {
            Req::Edit(i) => cx_server::Request::post("/api/v1/edit", edits[*i].body()),
            _ => cx_server::Request::get(&self.target()),
        }
    }
}

/// What a session learns from a served search answer.
#[derive(Clone, Debug, Default)]
pub struct Served {
    pub total: usize,
    /// Member ids of the first page, community by community.
    pub page: Vec<Vec<u32>>,
    pub generation: u64,
}

/// Largest answer (members summed over its communities) a planned query
/// may have. The search route runs CPJ analysis and a force layout over
/// the answer, both quadratic in its size and without a deadline check:
/// ~0.4 s at 1,000 members, minutes at the 65k-member answers some broad
/// queries return. Such queries are left out of the timed mix; each run
/// reports how many draws were.
pub const MAX_ANSWER_MEMBERS: usize = 100;
/// Candidate queries drawn per planned slot before a session is dropped.
const CANDIDATES: usize = 16;

/// One planned session: an author and two accepted queries on them.
#[derive(Clone, Debug)]
pub struct Planned {
    pub first: Query,
    pub second: Query,
}

/// Every connection's planned sessions.
pub struct Plan {
    pub sessions: Vec<Vec<Planned>>,
    /// Candidate queries whose answer size was computed.
    pub drawn: usize,
    /// Of those, how many [`answer_fits`] rejected.
    pub oversized: usize,
}

fn draw_query(inputs: &Inputs, rng: &mut Rng64, author: VertexId) -> Query {
    let g = &inputs.graph;
    let core = inputs.core[author.index()];
    let ks: Vec<u32> = K_CHOICES.iter().copied().filter(|&k| k <= core).collect();
    let k = ks[rng.gen_range(0..ks.len())];
    let mut keywords = Vec::new();
    let own = g.keyword_names(g.keywords(author));
    if !own.is_empty() && rng.gen_bool(KEYWORD_SHARE) {
        let want = rng.gen_range(1..=3usize).min(own.len());
        while keywords.len() < want {
            let w = &own[rng.gen_range(0..own.len())];
            if !keywords.contains(w) {
                keywords.push(w.clone());
            }
        }
    }
    Query {
        name: g.label(author).to_owned(),
        vertex: author,
        k,
        keywords,
    }
}

/// Whether a query may be planned: its in-process ACQ answer on the base
/// graph has at most [`MAX_ANSWER_MEMBERS`] members, and every community
/// shares a keyword of the author's own area. Such an answer is made of
/// even-area authors only and cannot change while edits stay in odd areas,
/// so an edit can never turn it into one of the huge answers above (a
/// fallback to the whole connected k-core, or a community sharing only
/// generic terms).
fn answer_fits(inputs: &Inputs, q: &Query) -> bool {
    let g = &inputs.graph;
    let keywords = q
        .keywords
        .iter()
        .filter_map(|k| g.interner().get(k))
        .collect();
    let opts = cx_acq::AcqOptions::with_k(q.k).keywords(keywords);
    let answer = cx_acq::acq(g, &inputs.tree, q.vertex, &opts, cx_acq::AcqStrategy::Dec);
    let members: usize = answer.communities.iter().map(|c| c.len()).sum();
    let own = format!("area{}:", inputs.area[q.vertex.index()]);
    members <= MAX_ANSWER_MEMBERS
        && answer.communities.iter().all(|c| {
            c.shared_keywords()
                .iter()
                .any(|&w| g.interner().name(w).is_some_and(|n| n.starts_with(&own)))
        })
}

/// Plans `per_conn` sessions per connection. Each session draws a
/// Zipf-by-degree-rank author and candidate queries on them (k from
/// [`K_CHOICES`] up to the author's core number, a third with 1–3 of the
/// author's keywords); the first candidate that [`answer_fits`] is kept,
/// and the refining second query must differ from the first. Candidates
/// are judged in parallel rounds and memoized, so the plan depends on the
/// seed only.
pub fn plan(inputs: &Inputs, seed: u64, conns: usize, per_conn: usize) -> Plan {
    struct Draft {
        conn: usize,
        first: Vec<Query>,
        second: Vec<Query>,
        chosen: (Option<usize>, Option<usize>),
    }
    let mut drafts = Vec::with_capacity(conns * per_conn);
    for conn in 0..conns {
        let mut rng =
            Rng64::seed_from_u64(seed ^ (0x91a9_0000 + conn as u64).wrapping_mul(0x9e37_79b9));
        for author in inputs.readers.stratified(&mut rng, per_conn) {
            let first = (0..CANDIDATES)
                .map(|_| draw_query(inputs, &mut rng, author))
                .collect();
            let second = (0..CANDIDATES)
                .map(|_| draw_query(inputs, &mut rng, author))
                .collect();
            drafts.push(Draft {
                conn,
                first,
                second,
                chosen: (None, None),
            });
        }
    }
    let mut fits: HashMap<(String, u32, Vec<String>), bool> = HashMap::new();
    let key = |q: &Query| (q.name.clone(), q.k, q.keywords.clone());
    let (mut drawn, mut oversized) = (0usize, 0usize);
    for round in 0..CANDIDATES {
        let mut need: Vec<&Query> = Vec::new();
        for d in &drafts {
            for (slot, cands) in [(d.chosen.0, &d.first), (d.chosen.1, &d.second)] {
                if slot.is_none() && !fits.contains_key(&key(&cands[round])) {
                    need.push(&cands[round]);
                }
            }
        }
        need.sort_by_key(|q| key(q));
        need.dedup_by_key(|q| key(q));
        let half = need.len().div_ceil(2);
        let verdicts: Vec<bool> = std::thread::scope(|s| {
            let parts: Vec<_> = need
                .chunks(half.max(1))
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|q| answer_fits(inputs, q))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|p| p.join().expect("planner thread"))
                .collect()
        });
        for (q, ok) in need.iter().zip(verdicts) {
            fits.insert(key(q), ok);
        }
        let fits = |q: &Query| fits[&key(q)];
        for d in &mut drafts {
            if d.chosen.0.is_none() {
                drawn += 1;
                oversized += usize::from(!fits(&d.first[round]));
                if fits(&d.first[round]) {
                    d.chosen.0 = Some(round);
                }
            }
            if d.chosen.1.is_none() {
                drawn += 1;
                oversized += usize::from(!fits(&d.second[round]));
                if let Some(f) = d.chosen.0 {
                    d.chosen.1 =
                        (0..=round).find(|&j| fits(&d.second[j]) && d.second[j] != d.first[f]);
                }
            }
        }
    }
    let mut sessions = vec![Vec::new(); conns];
    for d in drafts {
        if let (Some(f), Some(s)) = d.chosen {
            sessions[d.conn].push(Planned {
                first: d.first[f].clone(),
                second: d.second[s].clone(),
            });
        }
    }
    Plan {
        sessions,
        drawn,
        oversized,
    }
}

/// One user's UI session stream over planned sessions: type a name,
/// search, draw a community, open a member's profile, refine the query,
/// draw again, and now and then look at a level of the summary hierarchy.
/// Which community to draw and whose profile to open depend on the served
/// answer, exactly as a browser's would. The plan repeats if exhausted.
pub struct Session<'a> {
    inputs: &'a Inputs,
    planned: &'a [Planned],
    rng: Rng64,
    step: u8,
    turn: usize,
    last: Served,
}

impl<'a> Session<'a> {
    pub fn new(inputs: &'a Inputs, plan: &'a Plan, seed: u64, conn: usize) -> Self {
        let rng =
            Rng64::seed_from_u64(seed ^ (0x5e55_1000 + conn as u64).wrapping_mul(0x9e37_79b9));
        Session {
            inputs,
            planned: &plan.sessions[conn],
            rng,
            step: 0,
            turn: 0,
            last: Served::default(),
        }
    }

    /// Feeds back the answer to the last search this session sent.
    pub fn observe(&mut self, served: Served) {
        self.last = served;
    }

    fn current(&self) -> &'a Planned {
        &self.planned[self.turn % self.planned.len()]
    }

    fn draw(&mut self, query: Query) -> Req {
        if self.last.total == 0 {
            // Nothing to draw: the user glances at the hierarchy instead.
            return Req::LevelSvg {
                level: self.level(),
            };
        }
        let index = self.rng.gen_range(0..self.last.total);
        Req::Svg { query, index }
    }

    fn level(&mut self) -> u32 {
        self.rng.gen_range(1..=self.inputs.max_level.clamp(1, 4))
    }

    pub fn next(&mut self) -> Req {
        loop {
            let step = self.step;
            self.step = (self.step + 1) % 7;
            let p = self.current();
            match step {
                0 => {
                    let label = &p.first.name;
                    let q = if label.len() > 8 {
                        &label[..label.len() - 1]
                    } else {
                        label
                    };
                    return Req::Suggest { q: q.to_owned() };
                }
                1 => return Req::Search(p.first.clone()),
                2 => return self.draw(p.first.clone()),
                3 => {
                    let members: Vec<u32> = self.last.page.iter().flatten().copied().collect();
                    let id = if members.is_empty() {
                        p.first.vertex.0
                    } else {
                        members[self.rng.gen_range(0..members.len())]
                    };
                    return Req::Profile { id };
                }
                4 => return Req::Search(p.second.clone()),
                5 => return self.draw(p.second.clone()),
                _ => {
                    self.turn += 1;
                    if self.rng.gen_bool(HIERARCHY_SHARE) {
                        let level = self.level();
                        return if self.rng.gen_bool(0.5) {
                            Req::Level { level }
                        } else {
                            Req::LevelSvg { level }
                        };
                    }
                }
            }
        }
    }
}

/// The edit list: `count` edits biased toward hub neighbourhoods in the
/// odd-numbered areas. A single-edge edit either adds a friend-of-a-friend
/// co-authorship to one of the [`EDIT_HUBS`] or removes one of its edges,
/// both endpoints in those areas; every [`BATCH_EVERY`]th edit does that
/// for [`BATCH_EDGES`] hubs at once. Each edit's effective delta and
/// resulting edge count are computed against the evolving graph, so the
/// check knows what the server must answer.
///
/// The list is drawn from a fixed seed and is the same in every run: one
/// edit's cost varies tenfold with the hub it touches, and lists drawn per
/// seed moved the edit median by up to a third between seeds.
pub fn edit_list(inputs: &Inputs, count: usize) -> Vec<Edit> {
    let mut rng = Rng64::seed_from_u64(GRAPH_SEED ^ 0x9b0b_e000);
    let mut g = Arc::clone(&inputs.graph);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let edges = if i % BATCH_EVERY == BATCH_EVERY - 1 {
            BATCH_EDGES
        } else {
            1
        };
        let (mut add, mut remove) = (Vec::new(), Vec::new());
        for _ in 0..edges {
            let u = inputs.writers[rng.gen_range(0..inputs.writers.len())];
            let nbrs: Vec<VertexId> = g
                .neighbors(u)
                .iter()
                .copied()
                .filter(|&v| writable(inputs, v))
                .collect();
            if nbrs.is_empty() {
                continue;
            }
            let w = nbrs[rng.gen_range(0..nbrs.len())];
            if rng.gen_bool(0.5) {
                remove.push((u.0, w.0));
                continue;
            }
            for _ in 0..8 {
                let second = g.neighbors(w);
                let x = second[rng.gen_range(0..second.len())];
                if x != u && writable(inputs, x) && !g.has_edge(u, x) {
                    add.push((u.0, x.0));
                    break;
                }
            }
        }
        let pairs = |es: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
            es.iter()
                .map(|&(u, v)| (VertexId(u), VertexId(v)))
                .collect()
        };
        let delta = g
            .edge_delta(&pairs(&add), &pairs(&remove))
            .expect("edit endpoints exist");
        g = Arc::new(g.apply_delta(&delta));
        out.push(Edit {
            add,
            remove,
            delta,
            edges_after: g.edge_count(),
        });
    }
    out
}
