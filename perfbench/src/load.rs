//! The load generator: keep-alive HTTP connections driven open-loop at a
//! fixed offered rate (latency timed from each request's due time), then
//! closed-loop, with every response checked as it arrives.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cx_par::rng::Rng64;
use cx_server::Json;

use crate::workload::{
    Bench, Edit, Inputs, Kind, Query, Req, Served, Session, PAGE, SUGGEST_LIMIT,
};

/// Share of served search answers re-computed in-process by the check.
pub const CHECK_SHARE: f64 = 1.0 / 8.0;

/// One HTTP response as the client saw it.
pub struct Reply {
    pub status: u16,
    pub content_type: String,
    pub body: Vec<u8>,
}

impl From<cx_server::Response> for Reply {
    fn from(r: cx_server::Response) -> Self {
        Reply {
            status: r.status,
            content_type: r.content_type,
            body: r.body,
        }
    }
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            writer,
        })
    }

    pub fn get(&mut self, target: &str) -> std::io::Result<Reply> {
        self.exchange(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    pub fn send(&mut self, req: &Req, edits: &[Edit]) -> std::io::Result<Reply> {
        match req {
            Req::Edit(i) => {
                let body = edits[*i].body();
                let head = format!(
                    "POST /api/v1/edit HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                self.exchange(head.as_bytes())
            }
            _ => self.get(&req.target()),
        }
    }

    fn exchange(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.writer.write_all(request)?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_owned());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut len, mut content_type) = (0usize, String::new());
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        len = value.trim().parse().map_err(|_| bad("bad length"))?
                    }
                    "content-type" => content_type = value.trim().to_owned(),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            content_type,
            body,
        })
    }
}

/// What the check learned from a correct response.
#[derive(Default)]
pub struct Verdict {
    /// A search answer, for the session and the answer check.
    pub served: Option<Served>,
    /// The v1 envelope's server-side `elapsed_ms`.
    pub elapsed_ms: Option<f64>,
}

/// Checks one response: it must be a 200 whose v1 envelope reads
/// `ok:true` and echoes its query (SVG bodies must be SVG drawings of
/// what was asked); an edit must report the generation and edge count the
/// edit list predicts.
pub fn verify(
    inputs: &Inputs,
    edits: &[Edit],
    req: &Req,
    reply: &Reply,
) -> Result<Verdict, String> {
    let text = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8".to_owned())?;
    let short = || text.chars().take(160).collect::<String>();
    if reply.status != 200 {
        return Err(format!(
            "{} → status {}: {}",
            req.target(),
            reply.status,
            short()
        ));
    }
    if let Req::Svg { .. } | Req::LevelSvg { .. } = req {
        let want = match req {
            Req::Svg { index, .. } => format!("community {} of", index + 1),
            _ => "Hierarchy level".to_owned(),
        };
        if !reply.content_type.starts_with("image/svg+xml")
            || !text.starts_with("<svg")
            || !text.contains(&want)
        {
            return Err(format!("{} → not the asked SVG: {}", req.target(), short()));
        }
        return Ok(Verdict::default());
    }
    let v =
        Json::parse(text).map_err(|e| format!("{} → bad JSON ({e}): {}", req.target(), short()))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} → ok is not true: {}", req.target(), short()));
    }
    let elapsed_ms = v.get("elapsed_ms").and_then(Json::as_f64);
    let data = v
        .get("data")
        .ok_or_else(|| format!("{} → no data", req.target()))?;
    let num = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64);
    let echo = |what: &str| format!("{} → does not echo its {what}: {}", req.target(), short());
    let g = &inputs.graph;
    let mut served = None;
    match req {
        Req::Suggest { q } => {
            let hits = data.as_array().ok_or_else(|| echo("suggestions"))?;
            let needle = q.to_lowercase();
            let all_match = hits.iter().all(|h| {
                h.get("label")
                    .and_then(Json::as_str)
                    .is_some_and(|l| l.to_lowercase().contains(&needle))
            });
            if hits.is_empty() || hits.len() > SUGGEST_LIMIT || !all_match {
                return Err(echo("name prefix"));
            }
        }
        Req::Search(q) => {
            let query = data.get("query").ok_or_else(|| echo("query"))?;
            if query.get("label").and_then(Json::as_str) != Some(q.name.as_str())
                || num(query, "k") != Some(q.k as f64)
                || query.get("algo").and_then(Json::as_str) != Some("acq")
            {
                return Err(echo("query"));
            }
            served = Some(served_answer(data).ok_or_else(|| echo("communities"))?);
        }
        Req::Profile { id } => {
            let label = g.label(cx_graph::VertexId(*id));
            if data.get("name").and_then(Json::as_str) != Some(label) {
                return Err(echo("author"));
            }
        }
        Req::Level { level } => {
            if num(data, "level") != Some(*level as f64)
                || data.get("nodes").and_then(Json::as_array).is_none()
            {
                return Err(echo("level"));
            }
        }
        Req::Edit(i) => {
            let want_gen = inputs.base_generation + *i as u64 + 1;
            if num(data, "generation") != Some(want_gen as f64)
                || num(data, "edges") != Some(edits[*i].edges_after as f64)
            {
                return Err(format!(
                    "edit {i} → want generation {want_gen} with {} edges: {}",
                    edits[*i].edges_after,
                    short()
                ));
            }
        }
        Req::Svg { .. } | Req::LevelSvg { .. } => unreachable!("handled above"),
    }
    Ok(Verdict { served, elapsed_ms })
}

/// The part of a search answer a session and the check use.
fn served_answer(data: &Json) -> Option<Served> {
    let total = data.get("total_communities").and_then(Json::as_f64)? as usize;
    let generation = data.get("generation").and_then(Json::as_f64)? as u64;
    let mut page = Vec::new();
    for c in data.get("communities").and_then(Json::as_array)? {
        let members = c.get("members").and_then(Json::as_array)?;
        page.push(
            members
                .iter()
                .filter_map(|m| m.get("id").and_then(Json::as_f64))
                .map(|x| x as u32)
                .collect(),
        );
    }
    (page.len() == total.min(PAGE)).then_some(Served {
        total,
        page,
        generation,
    })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Open,
    Closed,
    /// Serial edits between the read rounds.
    Probe,
}

/// One request's measurements.
pub struct Sample {
    pub kind: Kind,
    pub phase: Phase,
    /// From the due time (open loop) or the send time, to the last byte.
    pub latency_ms: f64,
    /// How late the generator sent it (open loop).
    pub late_ms: f64,
    /// Client send-to-receive time minus the server's `elapsed_ms`.
    pub wire_ms: Option<f64>,
    pub bytes: usize,
    pub ok: bool,
    /// Completion time since the load started.
    pub done_s: f64,
}

/// A served search answer kept for the in-process check.
pub struct CheckSample {
    pub query: Query,
    pub served: Served,
}

#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub checks: Vec<CheckSample>,
    pub errors: Vec<String>,
    /// Every answered search query, for the query-set size.
    pub searches: Vec<Query>,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.checks.extend(other.checks);
        self.errors.extend(other.errors);
        self.searches.extend(other.searches);
    }

    /// Distinct (author, k, keywords) search queries answered.
    pub fn distinct_searches(&self) -> usize {
        let mut keys: Vec<_> = self
            .searches
            .iter()
            .map(|q| (&q.name, q.k, &q.keywords))
            .collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }
}

/// Per-thread recorder.
struct Recorder<'a> {
    inputs: &'a Inputs,
    edits: &'a [Edit],
    check_rng: Rng64,
    out: Outcome,
}

impl<'a> Recorder<'a> {
    fn new(inputs: &'a Inputs, edits: &'a [Edit], seed: u64, tag: u64) -> Self {
        let check_rng = Rng64::seed_from_u64(seed ^ 0xc4ec_0000 ^ tag);
        Recorder {
            inputs,
            edits,
            check_rng,
            out: Outcome::default(),
        }
    }

    /// Sends `req`, checks the reply and records the sample; returns the
    /// served search answer, if any.
    fn exchange(
        &mut self,
        conn: &mut Option<Conn>,
        port: u16,
        req: &Req,
        phase: Phase,
        due: Instant,
        t0: Instant,
    ) -> Option<Served> {
        let sent = Instant::now();
        let result = match conn {
            Some(c) => c.send(req, self.edits),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no connection",
            )),
        };
        let done = Instant::now();
        let service_ms = (done - sent).as_secs_f64() * 1e3;
        let mut sample = Sample {
            kind: req.kind(),
            phase,
            latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
            wire_ms: None,
            bytes: 0,
            ok: false,
            done_s: (done - t0).as_secs_f64(),
        };
        let mut served = None;
        match result {
            Ok(reply) => {
                sample.bytes = reply.body.len();
                match verify(self.inputs, self.edits, req, &reply) {
                    Ok(v) => {
                        sample.ok = true;
                        sample.wire_ms = v.elapsed_ms.map(|e| service_ms - e);
                        served = v.served;
                    }
                    Err(e) => self.out.errors.push(e),
                }
            }
            Err(e) => {
                self.out
                    .errors
                    .push(format!("{} → transport error: {e}", req.target()));
                *conn = Conn::connect(port).ok();
            }
        }
        if let (Req::Search(q), Some(s)) = (req, &served) {
            self.out.searches.push(q.clone());
            if self.check_rng.gen_bool(CHECK_SHARE) {
                self.out.checks.push(CheckSample {
                    query: q.clone(),
                    served: s.clone(),
                });
            }
        }
        self.out.samples.push(sample);
        served
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Runs the read sessions (open loop for `open`, then closed loop for
/// `closed`), one thread and one keep-alive connection per stream. When
/// the workload has a writer, it sends its edits open-loop at their own
/// fixed rate on a connection and thread of its own.
pub fn run(
    port: u16,
    bench: &Bench,
    streams: &mut Streams,
    open: Duration,
    closed: Duration,
) -> Outcome {
    let Bench {
        workload: w,
        seed,
        inputs,
        edits,
        ..
    } = bench;
    let (inputs, edits) = (inputs, edits.as_slice());
    // Each block draws its own check sample.
    streams.blocks += 1;
    let seed = *seed ^ streams.blocks.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // A whole number of edits per block, so the writer's share of the edit
    // list is known before the run.
    let quota = writer_quota(w.edit_rate, open + closed);
    let first_edit = streams.next_edit;
    if first_edit + quota > edits.len() {
        let mut outcome = Outcome::default();
        outcome
            .errors
            .push(format!("edit list exhausted after {} edits", edits.len()));
        return outcome;
    }
    streams.next_edit += quota;
    // Connections are set up before the clock starts.
    let start = Instant::now() + Duration::from_millis(200);
    let open_end = start + open;
    let end = open_end + closed;
    let conn_rate = w.read_rate / w.read_conns as f64;
    let mut outcome = Outcome::default();
    std::thread::scope(|s| {
        let writer = (quota > 0).then(|| {
            s.spawn(move || {
                let mut rec = Recorder::new(inputs, edits, seed, u64::MAX);
                let mut conn = Conn::connect(port).ok();
                for i in 0..quota {
                    let due = start + Duration::from_secs_f64(i as f64 / w.edit_rate);
                    sleep_until(due);
                    let phase = if due < open_end {
                        Phase::Open
                    } else {
                        Phase::Closed
                    };
                    let req = Req::Edit(first_edit + i);
                    rec.exchange(&mut conn, port, &req, phase, due, start);
                }
                rec.out
            })
        });
        let readers: Vec<_> = streams
            .sessions
            .iter_mut()
            .enumerate()
            .map(|(c, session)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(inputs, edits, seed, c as u64);
                    let mut conn = Conn::connect(port).ok();
                    let offset = c as f64 / w.read_rate;
                    for i in 0u64.. {
                        let due = start + Duration::from_secs_f64(offset + i as f64 / conn_rate);
                        if due >= open_end {
                            break;
                        }
                        sleep_until(due);
                        let req = session.next();
                        if let Some(served) =
                            rec.exchange(&mut conn, port, &req, Phase::Open, due, start)
                        {
                            session.observe(served);
                        }
                    }
                    sleep_until(open_end);
                    while Instant::now() < end {
                        let req = session.next();
                        let now = Instant::now();
                        if let Some(served) =
                            rec.exchange(&mut conn, port, &req, Phase::Closed, now, start)
                        {
                            session.observe(served);
                        }
                    }
                    rec.out
                })
            })
            .collect();
        for t in readers.into_iter().chain(writer) {
            outcome.merge(t.join().expect("load thread"));
        }
    });
    outcome
}

/// Edits the open-loop writer sends at `rate` in a block of `len`.
pub fn writer_quota(rate: f64, len: Duration) -> usize {
    (rate * len.as_secs_f64()).floor() as usize
}

/// What a run carries from block to block: each read connection's session
/// stream and the next unsent edit.
pub struct Streams<'a> {
    pub sessions: Vec<Session<'a>>,
    pub next_edit: usize,
    blocks: u64,
}

impl<'a> Streams<'a> {
    pub fn new(bench: &'a Bench) -> Self {
        let sessions = (0..bench.workload.read_conns)
            .map(|c| Session::new(&bench.inputs, &bench.plan, bench.seed, c))
            .collect();
        Streams {
            sessions,
            next_edit: 0,
            blocks: 0,
        }
    }
}

/// Sends the next `count` edits one after another on one connection.
pub fn probe_edits(port: u16, bench: &Bench, streams: &mut Streams, count: usize) -> Outcome {
    let mut rec = Recorder::new(&bench.inputs, &bench.edits, bench.seed, 0x9b);
    let mut conn = Conn::connect(port).ok();
    let t0 = Instant::now();
    let first = streams.next_edit;
    streams.next_edit = (first + count).min(bench.edits.len());
    if streams.next_edit < first + count {
        rec.out.errors.push(format!(
            "edit list exhausted after {} edits",
            streams.next_edit
        ));
    }
    for j in first..streams.next_edit {
        let now = Instant::now();
        rec.exchange(&mut conn, port, &Req::Edit(j), Phase::Probe, now, t0);
    }
    rec.out
}
