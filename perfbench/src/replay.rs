//! The traced run: the workload's seeded request sequence replayed
//! in-process against four engines booted from the same prepared store.
//!
//! * `handle` — the real `Server::handle`, cx-obs enabled (the default);
//! * `handle_obs_off` — the same with cx-obs switched off at run time;
//! * `layers` — the route handler re-played layer by layer through each
//!   crate's public entry points, in the handler's order, untraced;
//! * `layers_traced` — the same with a span around every layer call.
//!
//! Each request runs on all four, in rotating order, so drift on the host
//! hits every variant alike. Spans live in memory and are written out at
//! the end. A span's self time is its duration minus its children's.
//! Counts and the timings of calls the engine makes internally (the ACQ
//! query behind a search miss, the CSR patch and WAL append behind an
//! edit) are measured by repeating the call right after the request,
//! outside its span tree ("shadow" spans).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cx_acq::{AcqOptions, AcqStrategy};
use cx_explorer::{Engine, GraphSnapshot, QuerySpec};
use cx_graph::{AttributedGraph, Community, VertexId};
use cx_layout::LayoutAlgorithm;
use cx_server::json::{escape_into, number_into};
use cx_server::{Json, Request, Response, Server};

use crate::load::{verify, Reply};
use crate::stats::{mean, percentile};
use crate::workload::{Bench, Inputs, Kind, Plan, Req, Session, Workload, GRAPH};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub req: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Measured after the request, outside its span tree.
    pub shadow: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; with `on == false` every call is a plain
/// function call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u32,
    /// Index of the span that closed last.
    last_closed: Option<u32>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        let spans = Vec::with_capacity(if on { 1 << 16 } else { 0 });
        Tracer {
            on,
            epoch: Instant::now(),
            spans,
            stack: Vec::new(),
            req: 0,
            last_closed: None,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start_ns,
            end_ns: start_ns,
            shadow: false,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.ns(Instant::now());
        self.last_closed = Some(idx);
        out
    }

    fn shadow(&mut self, name: &'static str, parent: Option<u32>, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            req: self.req,
            parent,
            start_ns,
            end_ns,
            shadow: true,
        });
    }

    fn last_closed(&self) -> Option<u32> {
        self.last_closed
    }

    /// Spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for sp in &self.spans {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"shadow\":{}}}\n",
                sp.req,
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.end_ns as f64 / 1e3,
                sp.shadow
            ));
        }
        s
    }
}

/// What the traced variant hands to its shadow measurements.
#[derive(Default)]
struct After {
    search: Option<(Arc<GraphSnapshot>, QuerySpec, VertexId, Option<u32>)>,
}

type Handled = Result<Response, String>;

fn param_u32(req: &Request, name: &str, default: u32) -> u32 {
    req.param_as::<u32>(name, default)
}

fn spec_from(req: &Request) -> Result<QuerySpec, String> {
    let name = req.param("name").ok_or("missing name")?;
    let mut spec = QuerySpec::by_label(name).k(param_u32(req, "k", 1));
    if let Some(kws) = req.param("keywords") {
        spec = spec.with_keywords(kws.split(',').filter(|s| !s.is_empty()));
    }
    Ok(spec)
}

fn envelope(data: Json, request_id: &str, t0: Instant) -> Response {
    Response::json(&Json::obj([
        ("ok", Json::Bool(true)),
        ("data", data),
        ("error", Json::Null),
        ("request_id", Json::str(request_id)),
        ("elapsed_ms", Json::num(t0.elapsed().as_secs_f64() * 1e3)),
    ]))
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn members_raw(g: &AttributedGraph, c: &Community) -> String {
    let mut buf = String::from("[");
    for (i, &v) in c.vertices().iter().enumerate() {
        buf.push_str(if i == 0 { "{\"id\":" } else { ",{\"id\":" });
        number_into(&mut buf, v.0 as f64);
        buf.push_str(",\"label\":");
        escape_into(&mut buf, g.label(v));
        buf.push('}');
    }
    buf.push(']');
    buf
}

fn theme_raw(g: &AttributedGraph, c: &Community) -> String {
    let mut buf = String::from("[");
    for (i, name) in c
        .shared_keywords()
        .iter()
        .filter_map(|&w| g.interner().name(w))
        .enumerate()
    {
        if i > 0 {
            buf.push(',');
        }
        escape_into(&mut buf, name);
    }
    buf.push(']');
    buf
}

/// The hierarchy of a pinned snapshot, timing its lazy build.
fn hierarchy(tr: &mut Tracer, snap: &GraphSnapshot) -> Arc<cx_explorer::Hierarchy> {
    match snap.hierarchy_cached() {
        Some(h) => h,
        None => tr.span("cltree.hierarchy_build", |_| snap.hierarchy()),
    }
}

fn search(tr: &mut Tracer, e: &Engine, req: &Request, after: &mut After) -> Result<Json, String> {
    let spec = spec_from(req)?;
    let algo = req.param("algo").unwrap_or("acq");
    let limit = req.param_as::<usize>("limit", 20).clamp(1, 100);
    let offset = req.param_as::<usize>("offset", 0);
    let snap = tr
        .span("explorer.snapshot_pin", |_| e.snapshot(None))
        .map_err(err)?;
    let token = cx_par::task::CancelToken::with_timeout(Duration::from_millis(30_000));
    let communities = tr
        .span("explorer.search", |_| {
            e.search_snapshot_cancellable(&snap, algo, &spec, &token)
        })
        .map_err(err)?;
    let search_span = tr.last_closed();
    let q = tr
        .span("explorer.resolve", |_| spec.resolve(&snap.graph))
        .map_err(err)?[0];
    let analysis = tr
        .span("metrics.analyze", |_| {
            e.analyze_snapshot(&snap, &communities, q)
        })
        .map_err(err)?;
    let g = &*snap.graph;
    let mut list = Vec::new();
    for c in communities.iter().skip(offset).take(limit) {
        let scene = tr.span("layout.scene", |_| {
            e.display_snapshot(&snap, c, LayoutAlgorithm::default_force(), Some(q))
        });
        let scene_json = tr.span("layout.serialize", |_| scene.to_json());
        list.push(Json::obj([
            ("size", Json::num(c.len() as f64)),
            ("edges", Json::num(c.internal_edge_count(g) as f64)),
            ("avg_degree", Json::num(c.average_internal_degree(g))),
            ("theme", Json::Raw(theme_raw(g, c))),
            ("members", Json::Raw(members_raw(g, c))),
            ("scene", Json::parse(&scene_json).unwrap_or(Json::Null)),
        ]));
    }
    let data = Json::obj([
        (
            "query",
            Json::obj([
                ("vertex", Json::num(q.0 as f64)),
                ("label", Json::str(g.label(q))),
                ("k", Json::num(spec.k as f64)),
                ("algo", Json::str(algo)),
            ]),
        ),
        ("generation", Json::num(snap.generation as f64)),
        ("communities", Json::arr(list)),
        ("total_communities", Json::num(communities.len() as f64)),
        ("limit", Json::num(limit as f64)),
        ("offset", Json::num(offset as f64)),
        ("cpj", Json::num(analysis.cpj)),
        ("cmf", Json::num(analysis.cmf)),
        (
            "query_keywords",
            Json::arr(g.keyword_names(g.keywords(q)).into_iter().map(Json::str)),
        ),
    ]);
    after.search = Some((snap, spec, q, search_span));
    Ok(data)
}

fn svg(tr: &mut Tracer, e: &Engine, req: &Request) -> Result<Response, String> {
    if let Some(level) = req.param("level") {
        let level: u32 = level.parse().map_err(err)?;
        let max_nodes = req.param_as::<usize>("max_nodes", 400).clamp(2, 1000);
        let snap = tr
            .span("explorer.snapshot_pin", |_| e.snapshot(None))
            .map_err(err)?;
        hierarchy(tr, &snap);
        let scene = tr.span("explorer.hierarchy_scene", |_| {
            e.hierarchy_level_scene(&snap, level, max_nodes)
        });
        let body = tr.span("layout.svg", |_| scene.to_svg());
        return Ok(Response::svg(body));
    }
    let spec = spec_from(req)?;
    let algo = req.param("algo").unwrap_or("acq");
    let index = req.param_as::<usize>("index", 0);
    let snap = tr
        .span("explorer.snapshot_pin", |_| e.snapshot(None))
        .map_err(err)?;
    let token = cx_par::task::CancelToken::with_timeout(Duration::from_millis(30_000));
    let communities = tr
        .span("explorer.search", |_| {
            e.search_snapshot_cancellable(&snap, algo, &spec, &token)
        })
        .map_err(err)?;
    let c = communities
        .get(index)
        .ok_or("community index out of range")?;
    let q = tr
        .span("explorer.resolve", |_| spec.resolve(&snap.graph))
        .map_err(err)?[0];
    let scene = tr.span("layout.scene", |_| {
        e.display_snapshot(&snap, c, LayoutAlgorithm::default_force(), Some(q))
    });
    let title = format!(
        "Method: {algo} — community {} of {}",
        index + 1,
        communities.len()
    );
    let body = tr.span("layout.svg", |_| scene.titled(title).to_svg());
    Ok(Response::svg(body))
}

fn level_view(tr: &mut Tracer, e: &Engine, req: &Request) -> Result<Json, String> {
    let snap = tr
        .span("explorer.snapshot_pin", |_| e.snapshot(None))
        .map_err(err)?;
    let h = hierarchy(tr, &snap);
    let g = &*snap.graph;
    let limit = req.param_as::<usize>("limit", 200).clamp(2, 1000);
    let level = param_u32(req, "level", 0);
    let nodes = tr.span("cltree.level_nodes", |_| h.level_nodes(level));
    let total = nodes.len();
    let shown: Vec<_> = nodes.into_iter().take(limit).collect();
    let supernode = |id: cx_explorer::NodeId| {
        let s = h.stats(id);
        let avg = if s.subtree_vertices > 0 {
            s.sum_degree as f64 / s.subtree_vertices as f64
        } else {
            0.0
        };
        Json::obj([
            ("id", Json::num(id.0 as f64)),
            ("level", Json::num(s.level as f64)),
            ("residents", Json::num(s.residents as f64)),
            ("vertices", Json::num(s.subtree_vertices as f64)),
            ("edges", Json::num(s.subtree_edges as f64)),
            ("avg_degree", Json::num(avg)),
            ("max_degree", Json::num(s.max_degree as f64)),
            (
                "keywords",
                Json::arr(s.top_keywords.iter().filter_map(|&(w, c)| {
                    Some(Json::obj([
                        ("keyword", Json::str(g.interner().name(w)?.to_owned())),
                        ("count", Json::num(c as f64)),
                    ]))
                })),
            ),
        ])
    };
    Ok(Json::obj([
        ("level", Json::num(level as f64)),
        ("max_level", Json::num(h.max_level() as f64)),
        ("total", Json::num(total as f64)),
        ("truncated", Json::Bool(shown.len() < total)),
        ("nodes", Json::arr(shown.iter().map(|&id| supernode(id)))),
    ]))
}

fn suggest(tr: &mut Tracer, e: &Engine, req: &Request) -> Result<Json, String> {
    let q = req.param("q").unwrap_or("");
    let limit = req.param_as::<usize>("limit", 8).clamp(1, 100);
    let offset = req.param_as::<usize>("offset", 0);
    let snap = tr
        .span("explorer.snapshot_pin", |_| e.snapshot(None))
        .map_err(err)?;
    let g = &*snap.graph;
    let (hits, _total) = tr.span("graph.label_search", |_| {
        g.search_label_top(q, offset + limit)
    });
    Ok(Json::arr(hits.into_iter().skip(offset).map(|v| {
        Json::obj([
            ("id", Json::num(v.0 as f64)),
            ("label", Json::str(g.label(v).to_owned())),
            ("degree", Json::num(g.degree(v) as f64)),
        ])
    })))
}

fn profile(tr: &mut Tracer, e: &Engine, req: &Request) -> Result<Json, String> {
    let id = req
        .param("id")
        .and_then(|s| s.parse::<u32>().ok())
        .ok_or("id must be an integer")?;
    let p = tr
        .span("explorer.profile", |_| e.profile(None, VertexId(id)))
        .map_err(err)?
        .ok_or("no profile")?;
    Ok(Json::obj([
        ("name", Json::str(p.name.clone())),
        ("areas", Json::arr(p.areas.iter().cloned().map(Json::str))),
        (
            "institutes",
            Json::arr(p.institutes.iter().cloned().map(Json::str)),
        ),
        (
            "interests",
            Json::arr(p.interests.iter().cloned().map(Json::str)),
        ),
    ]))
}

fn edit(tr: &mut Tracer, e: &Engine, req: &Request) -> Result<Json, String> {
    let body = std::str::from_utf8(&req.body).map_err(err)?;
    let v = Json::parse(body).map_err(err)?;
    let pairs = |key: &str| -> Vec<(VertexId, VertexId)> {
        v.get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| {
                let xs = p.as_array()?;
                Some((
                    VertexId(xs.first()?.as_f64()? as u32),
                    VertexId(xs.get(1)?.as_f64()? as u32),
                ))
            })
            .collect()
    };
    let (add, remove) = (pairs("add"), pairs("remove"));
    tr.span("explorer.edit_apply", |_| {
        e.apply_edits(None, &add, &remove)
    })
    .map_err(err)?;
    let snap = tr
        .span("explorer.snapshot_pin", |_| e.snapshot(None))
        .map_err(err)?;
    Ok(Json::obj([
        ("ok", Json::Bool(true)),
        ("vertices", Json::num(snap.graph.vertex_count() as f64)),
        ("edges", Json::num(snap.graph.edge_count() as f64)),
        ("generation", Json::num(snap.generation as f64)),
    ]))
}

/// The route span name the chokepoint opens for `req`.
fn route_label(req: &Req) -> &'static str {
    match req {
        Req::Suggest { .. } => "route.suggest",
        Req::Search(_) => "route.search",
        Req::Svg { .. } | Req::LevelSvg { .. } => "route.svg",
        Req::Profile { .. } => "route.profile",
        Req::Level { .. } => "route.hierarchy",
        Req::Edit(_) => "route.edit",
    }
}

/// `Server::handle` re-played layer by layer: the cx-obs request
/// bookkeeping the route chokepoint does, the endpoint's layer calls, the
/// v1 envelope, and the post-request compaction check for writes.
fn layers(
    tr: &mut Tracer,
    e: &Arc<Engine>,
    req: &Req,
    request: &Request,
    after: &mut After,
) -> Handled {
    tr.span("server.handle", |tr| {
        let label = route_label(req);
        let t0 = Instant::now();
        let (request_id, trace, http_span, route_span) = tr.span("obs.request", |_| {
            let id = cx_obs::trace::next_request_id();
            let trace = cx_obs::trace::begin_request(&id);
            let http_span = cx_obs::span("http.request");
            let route_span = cx_obs::span(label);
            (id, trace, http_span, route_span)
        });
        let t_route = Instant::now();
        let result = match req {
            Req::Search(_) => search(tr, e, request, after).map(|d| envelope(d, &request_id, t0)),
            Req::Svg { .. } | Req::LevelSvg { .. } => svg(tr, e, request),
            Req::Level { .. } => level_view(tr, e, request).map(|d| envelope(d, &request_id, t0)),
            Req::Suggest { .. } => suggest(tr, e, request).map(|d| envelope(d, &request_id, t0)),
            Req::Profile { .. } => profile(tr, e, request).map(|d| envelope(d, &request_id, t0)),
            Req::Edit(_) => edit(tr, e, request).map(|d| envelope(d, &request_id, t0)),
        };
        let mut resp = tr.span("obs.request", |_| {
            drop(route_span);
            cx_obs::metrics::observe_us(
                &format!(
                    "cx_route_duration_us{{endpoint=\"{}\"}}",
                    &label["route.".len()..]
                ),
                t_route.elapsed().as_micros() as u64,
            );
            drop(http_span);
            drop(trace);
            let resp = result?;
            cx_obs::metrics::inc("cx_http_requests_total{class=\"2xx\"}");
            cx_obs::metrics::add("cx_http_bytes_in_total", request.body.len() as u64);
            cx_obs::metrics::add("cx_http_bytes_out_total", resp.body.len() as u64);
            cx_obs::metrics::observe_us(
                "cx_http_request_duration_us",
                t0.elapsed().as_micros() as u64,
            );
            Ok::<_, String>(resp)
        })?;
        resp.headers.push(("X-Request-Id".into(), request_id));
        if request.method == "POST" {
            tr.span("explorer.compact_check", |_| {
                e.maybe_compact_in_background()
            });
        }
        Ok(resp)
    })
}

/// The four engines a replay runs each request on.
struct Variants {
    handle: Server,
    handle_obs_off: Server,
    layers: Arc<Engine>,
    layers_traced: Arc<Engine>,
}

/// Wall time per variant, in total and by request kind.
#[derive(Default, Clone)]
struct Totals {
    handle: Duration,
    handle_obs_off: Duration,
    layers: Duration,
    by_kind: BTreeMap<Kind, [Duration; 4]>,
}

/// Setup-layer timings taken on fresh copies of the prepared store.
pub struct SetupLayers {
    pub store_open_ms: f64,
    pub kcore_ms: f64,
    pub cltree_ms: f64,
}

pub fn setup_layers(inputs: &Inputs, prepared: &Path, work: &Path) -> Result<SetupLayers, String> {
    let (mut open, mut kcore, mut cltree) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..3 {
        let dir = work.join(format!("open-{i}"));
        crate::copy_dir(prepared, &dir)?;
        let t = Instant::now();
        let opened = cx_store::Store::open(&dir).map_err(err)?;
        open.push(t.elapsed().as_secs_f64() * 1e3);
        drop(opened);
        std::fs::remove_dir_all(&dir).map_err(err)?;
        let t = Instant::now();
        let cd = cx_kcore::CoreDecomposition::compute(&inputs.graph);
        kcore.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let tree = cx_cltree::ClTree::build_with_cores(&inputs.graph, cd.core_numbers());
        cltree.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(tree);
    }
    Ok(SetupLayers {
        store_open_ms: crate::stats::median(&open),
        kcore_ms: crate::stats::median(&kcore),
        cltree_ms: crate::stats::median(&cltree),
    })
}

/// The replayed request order: each read connection's session stream and
/// the writer's edits, merged by due time exactly as the load generator
/// schedules them; for workloads without a writer, `probe` serial edits
/// follow the reads.
struct Schedule<'a> {
    sessions: Vec<Session<'a>>,
    issued: Vec<u64>,
    conn_rate: f64,
    read_rate: f64,
    edit_rate: f64,
    edits_issued: usize,
}

impl<'a> Schedule<'a> {
    fn new(w: &Workload, inputs: &'a Inputs, plan: &'a Plan, seed: u64) -> Self {
        Schedule {
            sessions: (0..w.read_conns)
                .map(|c| Session::new(inputs, plan, seed, c))
                .collect(),
            issued: vec![0; w.read_conns],
            conn_rate: w.read_rate / w.read_conns as f64,
            read_rate: w.read_rate,
            edit_rate: w.edit_rate,
            edits_issued: 0,
        }
    }

    /// Next request and the session that issued it (None for the writer).
    fn next(&mut self) -> (Req, Option<usize>) {
        let (mut best, mut best_due) = (None, f64::INFINITY);
        for (c, &i) in self.issued.iter().enumerate() {
            let due = c as f64 / self.read_rate + i as f64 / self.conn_rate;
            if due < best_due {
                (best, best_due) = (Some(c), due);
            }
        }
        if self.edit_rate > 0.0 && (self.edits_issued as f64 / self.edit_rate) <= best_due {
            self.edits_issued += 1;
            return (Req::Edit(self.edits_issued - 1), None);
        }
        let c = best.expect("at least one session");
        self.issued[c] += 1;
        (self.sessions[c].next(), Some(c))
    }
}

/// Everything the traced run reports.
pub struct LayerReport {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub info: Vec<String>,
    pub spans_jsonl: String,
    pub errors: Vec<String>,
    pub requests: usize,
}

/// Replays the first `replay_requests` requests of the workload, then
/// `probe_edits` serial edits, on the four variants; returns the per-layer
/// metrics and the spans.
pub fn run(
    bench: &Bench,
    prepared: &Path,
    work: &Path,
    probe_edits: usize,
) -> Result<LayerReport, String> {
    let Bench {
        workload: w,
        seed,
        inputs,
        plan,
        edits,
    } = bench;
    let (seed, edits) = (*seed, edits.as_slice());
    // Each engine is opened on its own thread, all four alive at once, so
    // each decodes into a fresh allocator arena as a newly started server
    // process does. Opened one after another on one thread, later engines
    // scatter their 100k label strings into freed holes, and the label
    // scan behind `suggest` ran 1.6x slower on them than on the first.
    let names = [
        "replay-handle",
        "replay-obs-off",
        "replay-layers",
        "replay-traced",
    ];
    let barrier = std::sync::Barrier::new(names.len());
    let opened: Vec<Result<Engine, String>> = std::thread::scope(|s| {
        let threads: Vec<_> = names
            .iter()
            .map(|name| {
                let barrier = &barrier;
                s.spawn(move || {
                    let dir = work.join(name);
                    let engine = crate::copy_dir(prepared, &dir)
                        .and_then(|()| Engine::open_durable(&dir).map_err(err));
                    barrier.wait();
                    engine
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("engine open thread"))
            .collect()
    });
    let mut opened = opened.into_iter();
    let mut next = || opened.next().expect("four engines");
    let v = Variants {
        handle: Server::new(next()?),
        handle_obs_off: Server::new(next()?),
        layers: Arc::new(next()?),
        layers_traced: Arc::new(next()?),
    };
    let append_dir = work.join("append-shadow");
    let (shadow_store, _) = cx_store::Store::open(&append_dir).map_err(err)?;

    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let mut totals = Totals::default();
    let mut errors = Vec::new();
    let mut schedule = Schedule::new(w, inputs, plan, seed);
    let cache0 = v.layers_traced.cache_stats();
    let wal0 = v.layers_traced.store().map_or(0, |s| s.wal_bytes());
    let (mut acq_ms, mut candidates, mut communities) = (Vec::new(), 0usize, 0usize);
    let (mut apply_delta_us, mut append_us) = (Vec::new(), Vec::new());
    let mut edits_replayed = 0usize;
    let total = w.replay_requests + probe_edits;
    for i in 0..total {
        let (req, session) = if i < w.replay_requests {
            schedule.next()
        } else {
            schedule.edits_issued += 1;
            (Req::Edit(schedule.edits_issued - 1), None)
        };
        if let Req::Edit(j) = req {
            if j >= edits.len() {
                return Err(format!("replay needs more than {} edits", edits.len()));
            }
            edits_replayed += 1;
        }
        let request = req.to_request(edits);
        traced.req = i as u32;
        let mut reference = None;
        for turn in 0..4 {
            match (i + turn) % 4 {
                0 => {
                    cx_obs::set_enabled(true);
                    let t = Instant::now();
                    let r = v.handle.handle(&request);
                    totals.handle += t.elapsed();
                    totals.by_kind.entry(req.kind()).or_default()[0] += t.elapsed();
                    reference = Some(Reply::from(r));
                }
                1 => {
                    cx_obs::set_enabled(false);
                    let t = Instant::now();
                    let r = v.handle_obs_off.handle(&request);
                    totals.handle_obs_off += t.elapsed();
                    totals.by_kind.entry(req.kind()).or_default()[1] += t.elapsed();
                    cx_obs::set_enabled(true);
                    if let Err(e) = verify(inputs, edits, &req, &Reply::from(r)) {
                        errors.push(format!("handle, cx-obs off: {e}"));
                    }
                }
                2 => {
                    let t = Instant::now();
                    let r = layers(&mut plain, &v.layers, &req, &request, &mut After::default());
                    totals.layers += t.elapsed();
                    totals.by_kind.entry(req.kind()).or_default()[2] += t.elapsed();
                    if let Err(e) = r.and_then(|r| verify(inputs, edits, &req, &Reply::from(r))) {
                        errors.push(format!("layers: {e}"));
                    }
                }
                _ => {
                    let e = &v.layers_traced;
                    let hits0 = e.cache_stats().hits;
                    // Shadow measurements of an edit run before it, on the
                    // graph it applies to, and release that graph first.
                    if let Req::Edit(j) = req {
                        let before = Arc::clone(&e.snapshot(None).map_err(err)?.graph);
                        let delta = edits[j].delta.clone();
                        let t = Instant::now();
                        let patched = before.apply_delta(&delta);
                        let end = Instant::now();
                        drop((patched, before));
                        traced.shadow("graph.apply_delta", None, t, end);
                        apply_delta_us.push((end - t).as_secs_f64() * 1e6);
                        let record = cx_store::Record::Edit {
                            name: GRAPH.to_owned(),
                            generation: inputs.base_generation + j as u64 + 1,
                            delta,
                        };
                        let t = Instant::now();
                        shadow_store.append(&record).map_err(err)?;
                        let end = Instant::now();
                        traced.shadow("store.append", None, t, end);
                        append_us.push((end - t).as_secs_f64() * 1e6);
                    }
                    let mut after = After::default();
                    let t = Instant::now();
                    let r = layers(&mut traced, e, &req, &request, &mut after);
                    totals.by_kind.entry(req.kind()).or_default()[3] += t.elapsed();
                    if let Err(e) = r.and_then(|r| verify(inputs, edits, &req, &Reply::from(r))) {
                        errors.push(format!("layers, traced: {e}"));
                    }
                    // Shadow measurements, outside the request's span tree.
                    if let Some((snap, spec, q, span)) = after.search.take() {
                        if e.cache_stats().hits == hits0 {
                            let opts = AcqOptions::with_k(spec.k)
                                .keywords(spec.resolve_keywords(&snap.graph));
                            let t = Instant::now();
                            let res =
                                cx_acq::acq(&snap.graph, &snap.tree, q, &opts, AcqStrategy::Dec);
                            let end = Instant::now();
                            traced.shadow("acq.query", span, t, end);
                            acq_ms.push((end - t).as_secs_f64() * 1e3);
                            candidates += res.candidates_verified;
                            communities += res.communities.len();
                        }
                    }
                }
            }
        }
        let reference = reference.expect("handle ran");
        match verify(inputs, edits, &req, &reference) {
            Ok(verdict) => {
                if let (Some(c), Some(served)) = (session, verdict.served) {
                    schedule.sessions[c].observe(served);
                }
            }
            Err(e) => errors.push(format!("handle: {e}")),
        }
    }

    // Span accounting. Shadow spans stay out of the sums; an ACQ shadow
    // moves its duration from its search span's self time to `acq.query`.
    let spans = &traced.spans;
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans.iter().filter(|sp| !sp.shadow) {
        if let Some(p) = sp.parent {
            child_ns[p as usize] += sp.dur_ns();
        }
    }
    let self_ns: Vec<u64> = spans
        .iter()
        .zip(&child_ns)
        .map(|(sp, c)| sp.dur_ns().saturating_sub(*c))
        .collect();
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut traced_ns, mut self_sum_ns) = (0u64, 0u64);
    let mut route_self_us = Vec::new();
    let mut search_self_us = Vec::new();
    for (i, sp) in spans.iter().enumerate() {
        by_name
            .entry(sp.name)
            .or_default()
            .push(sp.dur_ns() as f64 / 1e3);
        if sp.shadow {
            if let (true, Some(p)) = (sp.name == "acq.query", sp.parent) {
                let moved = sp.dur_ns().min(self_ns[p as usize]) as f64 / 1e3;
                *self_by_name.entry(sp.name).or_default() += moved;
                *self_by_name.entry(spans[p as usize].name).or_default() -= moved;
                search_self_us.push(self_ns[p as usize] as f64 / 1e3 - moved);
            }
            continue;
        }
        self_sum_ns += self_ns[i];
        *self_by_name.entry(sp.name).or_default() += self_ns[i] as f64 / 1e3;
        if sp.parent.is_none() {
            traced_ns += sp.dur_ns();
            route_self_us.push(self_ns[i] as f64 / 1e3);
        }
    }
    let us = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let mut edit_ms: Vec<f64> = us("explorer.edit_apply").iter().map(|x| x / 1e3).collect();
    let mut hier_ms: Vec<f64> = us("cltree.hierarchy_build")
        .iter()
        .map(|x| x / 1e3)
        .collect();
    if hier_ms.is_empty() {
        let snap = v.layers_traced.snapshot(None).map_err(err)?;
        let t = Instant::now();
        std::hint::black_box(cx_cltree::Hierarchy::build(&snap.graph, &snap.tree));
        hier_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let cache1 = v.layers_traced.cache_stats();
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    let wal1 = v.layers_traced.store().map_or(0, |s| s.wal_bytes());
    let handle_ns = totals.handle.as_nanos() as f64;
    let (cpj_ms, cpj_pairs, cpj_members) = cpj_global();

    let mut info = vec![
        format!(
            "replay: {total} requests ({edits_replayed} edits) on 4 engines; Server::handle {:.3} s with cx-obs on, {:.3} s off; layers {:.3} s untraced, {:.3} s traced",
            totals.handle.as_secs_f64(),
            totals.handle_obs_off.as_secs_f64(),
            totals.layers.as_secs_f64(),
            traced_ns as f64 / 1e9
        ),
        format!("replay: query cache {hits} hits / {} lookups (capacity {})", hits + misses, cache1.capacity),
        format!("replay: CPJ over the Global community (k=4) of the hub query on the {}-author graph: {cpj_members} members", CPJ_AUTHORS),
    ];
    for (kind, [h, off, l, t]) in &totals.by_kind {
        info.push(format!(
            "replay {:<9} Server::handle {:>8.1} ms, cx-obs off {:>8.1} ms, layers {:>8.1} ms, traced {:>8.1} ms",
            kind.name(),
            h.as_secs_f64() * 1e3,
            off.as_secs_f64() * 1e3,
            l.as_secs_f64() * 1e3,
            t.as_secs_f64() * 1e3
        ));
    }
    let mut self_rows: Vec<_> = self_by_name.iter().collect();
    self_rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, total_us) in self_rows {
        info.push(format!(
            "self time {name:<26} {:>10.1} ms total, {:>5.1}% of Server::handle",
            total_us / 1e3,
            100.0 * total_us * 1e3 / handle_ns
        ));
    }
    let p = |xs: &mut Vec<f64>, q: f64| percentile(xs, q);
    let mut acq = acq_ms.clone();
    let mut append = append_us.clone();
    let metrics = vec![
        ("server.route_self_us", "us", mean(&route_self_us)),
        (
            "explorer.snapshot_pin_us",
            "us",
            mean(&us("explorer.snapshot_pin")),
        ),
        ("explorer.search_self_us", "us", mean(&search_self_us)),
        (
            "explorer.cache_hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("explorer.edit_apply_p50_ms", "ms", p(&mut edit_ms, 0.50)),
        ("explorer.edit_apply_p95_ms", "ms", p(&mut edit_ms, 0.95)),
        (
            "explorer.hierarchy_scene_us",
            "us",
            mean(&us("explorer.hierarchy_scene")),
        ),
        ("acq.query_p50_ms", "ms", p(&mut acq, 0.50)),
        ("acq.query_p99_ms", "ms", p(&mut acq, 0.99)),
        (
            "acq.candidates_verified",
            "count",
            candidates as f64 / acq_ms.len().max(1) as f64,
        ),
        (
            "acq.communities_per_candidate",
            "ratio",
            communities as f64 / candidates.max(1) as f64,
        ),
        ("metrics.analyze_us", "us", mean(&us("metrics.analyze"))),
        ("layout.scene_us", "us", mean(&us("layout.scene"))),
        (
            "graph.label_search_ms",
            "ms",
            mean(&us("graph.label_search")) / 1e3,
        ),
        ("graph.apply_delta_us", "us", mean(&apply_delta_us)),
        ("cltree.hierarchy_build_ms", "ms", mean(&hier_ms)),
        ("store.append_p50_us", "us", p(&mut append, 0.50)),
        ("store.append_p99_us", "us", p(&mut append, 0.99)),
        (
            "store.wal_bytes_per_edit",
            "B",
            (wal1 - wal0) as f64 / edits_replayed.max(1) as f64,
        ),
        (
            "obs.overhead_pct",
            "%",
            100.0 * (totals.handle.as_secs_f64() - totals.handle_obs_off.as_secs_f64())
                / totals.handle_obs_off.as_secs_f64(),
        ),
        ("metrics.cpj_global_ms", "ms", cpj_ms),
        ("metrics.cpj_pairs", "count", cpj_pairs),
        (
            "trace.unattributed_pct",
            "%",
            100.0 * (handle_ns - self_sum_ns as f64).abs() / handle_ns,
        ),
        (
            "trace.overhead_pct",
            "%",
            100.0 * (traced_ns as f64 - totals.layers.as_nanos() as f64)
                / totals.layers.as_nanos() as f64,
        ),
    ];
    Ok(LayerReport {
        metrics,
        info,
        spans_jsonl: traced.to_jsonl(),
        errors,
        requests: total,
    })
}

/// Authors in the graph the CPJ defect is measured on: one CPJ call over
/// the Global community of the 100k graph's hub query takes ~47 s on a
/// 2-CPU host (26,569 members, quadratic in them), too long for a run.
pub const CPJ_AUTHORS: usize = 8_000;

/// `cx_metrics::cpj` over the Global community (k = 4) of the hub query,
/// on the same generator family at [`CPJ_AUTHORS`] authors: returns
/// (ms, member pairs, members).
fn cpj_global() -> (f64, f64, usize) {
    let (g, _) = cx_datagen::dblp_like(&crate::workload::params(
        CPJ_AUTHORS,
        crate::workload::GRAPH_SEED,
    ));
    let hub = g
        .vertices()
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v.0)))
        .expect("non-empty graph");
    let Some(c) = cx_algos::Global.fixed_k(&g, hub, 4) else {
        return (0.0, 0.0, 0);
    };
    let n = c.len();
    let t = Instant::now();
    std::hint::black_box(cx_metrics::cpj(&g, std::slice::from_ref(&c)));
    (
        t.elapsed().as_secs_f64() * 1e3,
        (n * n.saturating_sub(1) / 2) as f64,
        n,
    )
}
