//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Generates the workload's inputs from the seed, writes them into a
//! compacted durable store, boots the real server from fresh copies of it
//! in a child process, drives it over keep-alive HTTP and checks every
//! answer. `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! open loop once more for the transport numbers and then replays the
//! request sequence in-process for the per-layer ones. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A record with provenance goes to `--out` (default `.perfbench/out`);
//! spans of a traced run go beside it. Exit code 1 on any failed check.

mod check;
mod load;
mod replay;
mod server;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cx_server::Json;

use crate::load::{Outcome, Phase};
use crate::server::ServerProc;
use crate::stats::{mean, median, percentile};
use crate::workload::{Kind, Workload, WORKLOADS};

/// Server boots per end-to-end run; `setup_s` is their median.
const SETUP_BOOTS: usize = 3;
/// Rounds an end-to-end run is split into: each is a block of reads
/// followed by a share of the serial edits.
const ROUNDS: usize = 10;
/// Serial edits the traced run replays after the reads.
const REPLAY_PROBE_EDITS: usize = 30;
/// Samples a p99 needs to be reported without a warning.
const P99_SAMPLES: usize = 1000;
/// Samples a p95 needs.
const P95_SAMPLES: usize = 200;
/// Share of `Server::handle` time the traced layers must account for.
const MAX_UNATTRIBUTED_PCT: f64 = 10.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let usage =
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let name = get("--workload").ok_or(usage)?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {names:?}")
    })?;
    let seed = get("--seed")
        .ok_or(usage)?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("--seconds")
        .ok_or(usage)?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    let out = get("--out").map_or_else(|| PathBuf::from(".perfbench/out"), PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The offered load, as `BENCHMARK.json` must state it in the workload's
/// `why`.
fn offered(w: &Workload) -> String {
    if w.edit_rate > 0.0 {
        format!("{} req/s + {} edits/s", w.read_rate, w.edit_rate)
    } else {
        format!("{} req/s", w.read_rate)
    }
}

/// Refuses to run when `BENCHMARK.json` no longer states this workload's
/// offered load, so the committed file and the generator cannot drift.
fn check_benchmark_json(w: &Workload) -> Result<(), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let why = doc
        .get("workloads")
        .and_then(Json::as_array)
        .and_then(|ws| {
            ws.iter()
                .find(|x| x.get("name").and_then(Json::as_str) == Some(w.name))
        })
        .and_then(|x| x.get("why"))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json has no workload {}", w.name))?;
    let want = offered(w);
    if why.contains(&want) {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json: the why of {} must state its offered load {want:?}",
            w.name
        ))
    }
}

/// Copies a store directory tree.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("{}: {e}", target.display()))?;
        }
    }
    Ok(())
}

/// A scratch directory removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Latencies of the selected samples; a failed request counts as missing
/// every latency limit.
fn latencies(out: &Outcome, pick: impl Fn(Kind, Phase) -> bool) -> Vec<f64> {
    out.samples
        .iter()
        .filter(|s| pick(s.kind, s.phase))
        .map(|s| if s.ok { s.latency_ms } else { f64::INFINITY })
        .collect()
}

/// Per-kind lines for the record.
fn describe(out: &Outcome, info: &mut Vec<String>) {
    for kind in Kind::ALL {
        let mut lat: Vec<f64> = latencies(out, |k, _| k == kind);
        if lat.is_empty() {
            continue;
        }
        let bytes: Vec<f64> = out
            .samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.bytes as f64)
            .collect();
        info.push(format!(
            "{:<9} n={:<6} p50 {:>8.3} ms  p99 {:>8.3} ms  max {:>8.3} ms  {:>7.0} B/response",
            kind.name(),
            lat.len(),
            percentile(&mut lat, 0.5),
            percentile(&mut lat, 0.99),
            percentile(&mut lat, 1.0),
            mean(&bytes)
        ));
    }
    let mut late: Vec<f64> = out
        .samples
        .iter()
        .filter(|s| s.phase == Phase::Open)
        .map(|s| s.late_ms)
        .collect();
    info.push(format!(
        "generator lateness (open loop): p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        percentile(&mut late, 0.5),
        percentile(&mut late, 0.99),
        percentile(&mut late, 1.0)
    ));
    info.push(format!(
        "distinct search queries: {} (query cache capacity {})",
        out.distinct_searches(),
        cx_explorer::cache::DEFAULT_CAPACITY
    ));
}

/// `cx_http_shed_total` from the server's `/metrics`.
fn shed_total(port: u16) -> Result<f64, String> {
    let reply = load::Conn::connect(port)
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&reply.body);
    Ok(text
        .lines()
        .find_map(|l| l.strip_prefix("cx_http_shed_total ")?.trim().parse().ok())
        .unwrap_or(0.0))
}

fn json_escape(s: &str) -> String {
    let mut out = String::new();
    cx_server::json::escape_into(&mut out, s);
    out
}

/// Environment switches that change the program's behaviour; the benchmark
/// measures the default configuration, here and in the server process.
const PROGRAM_ENV: [&str; 7] = [
    "CX_FSYNC",
    "CX_OBS",
    "CX_THREADS",
    "CX_INCREMENTAL",
    "CX_PRUNE",
    "CX_AUTH_TOKEN",
    "CX_STORE_DIR",
];

fn main() {
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        let store = argv
            .iter()
            .position(|a| a == "--store")
            .and_then(|i| argv.get(i + 1));
        let result = match store {
            Some(dir) => server::serve_main(Path::new(dir)),
            None => Err("usage: perfbench serve --store <dir>".into()),
        };
        if let Err(e) = result {
            eprintln!("perfbench serve: {e}");
            std::process::exit(2);
        }
        return;
    }
    match run(&argv) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let w = args.workload;
    check_benchmark_json(w)?;
    if !Path::new("crates").is_dir() {
        return Err("run from the repository root".into());
    }
    let work = WorkDir(PathBuf::from(format!(
        ".perfbench/work-{}",
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    let t = Instant::now();
    let (inputs, prepared) = workload::prepare(w, Path::new(".perfbench/cache"))?;
    let open = Duration::from_secs_f64(args.seconds * w.open_share);
    let closed = Duration::from_secs_f64(args.seconds * w.closed_share);
    let writer_edits = if args.trace {
        load::writer_quota(w.edit_rate, open)
    } else {
        ROUNDS * load::writer_quota(w.edit_rate, open / ROUNDS as u32 + closed / ROUNDS as u32)
    };
    let edits = workload::edit_list(&inputs, writer_edits + w.edit_probe);
    let per_conn =
        (args.seconds * w.read_rate / w.read_conns as f64 / workload::REQUESTS_PER_SESSION).ceil()
            as usize
            + 8;
    let plan = workload::plan(&inputs, args.seed, w.read_conns, per_conn);
    let prep_s = t.elapsed().as_secs_f64();
    let bench = workload::Bench {
        workload: w,
        seed: args.seed,
        inputs,
        plan,
        edits,
    };
    let (inputs, plan, edits) = (&bench.inputs, &bench.plan, &bench.edits);

    let mut info = vec![
        format!("workload {}: {}", w.name, w.why),
        format!(
            "inputs: seed {}, {} authors, {} edges, {} query authors (even areas), {} edited hubs (odd areas), {} edits prepared, prep {prep_s:.2} s (untimed)",
            args.seed,
            inputs.graph.vertex_count(),
            inputs.graph.edge_count(),
            inputs.readers.authors.len(),
            inputs.writers.len(),
            edits.len()
        ),
        format!(
            "plan: {} sessions; {} of {} drawn queries ({:.1}%) left out: answer over {} members or not tied to the author's area (quadratic analyze and layout, see why)",
            plan.sessions.iter().map(Vec::len).sum::<usize>(),
            plan.oversized,
            plan.drawn,
            100.0 * plan.oversized as f64 / plan.drawn.max(1) as f64,
            workload::MAX_ANSWER_MEMBERS
        ),
        format!(
            "load: open loop {} on {} read connection(s){} for {:.0}% of {} s, closed loop for {:.0}%; session mix ≈ 16% suggest, 32% search, 32% svg, 16% profile, 4% hierarchy",
            offered(w),
            w.read_conns,
            if w.edit_rate > 0.0 { " and a writer connection" } else { "" },
            w.open_share * 100.0,
            args.seconds,
            w.closed_share * 100.0
        ),
    ];
    let mut errors: Vec<String> = Vec::new();
    let (metrics, outcome) = if args.trace {
        traced(
            &bench,
            &args,
            &prepared,
            &work.0,
            open,
            &mut info,
            &mut errors,
        )?
    } else {
        end_to_end(&bench, &prepared, &work.0, open, closed, &mut info)?
    };

    let answers = check::answers(&bench, &outcome.checks);
    info.push(format!(
        "answer check: {} of {} sampled served search answers equal in-process cx_acq::acq",
        answers.checked - answers.mismatches.len(),
        answers.checked
    ));
    errors.extend(
        answers
            .mismatches
            .iter()
            .map(|m| format!("answer check: {m}")),
    );
    errors.extend(outcome.errors.iter().cloned());
    // A wrong answer is a failed response.
    let attempted = outcome.samples.len();
    let failed = outcome.samples.iter().filter(|s| !s.ok).count() + answers.mismatches.len();
    let correct = errors.is_empty() && failed == 0;
    info.push(format!(
        "error_rate: {failed} failed or wrong / {attempted} attempted"
    ));
    for e in errors.iter().take(10) {
        info.push(format!("error: {e}"));
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = stats::git_rev();
    let provenance = format!(
        "{{\"host_cpus\":{cpus},\"git_rev\":{},\"source_digest\":\"{}\",\"args\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        rev.as_deref().map_or("null".to_owned(), json_escape),
        stats::source_digest(),
        json_escape(&argv.join(" ")),
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &info {
        println!("{line}");
    }
    println!("provenance {provenance}");
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics_json.join(",")
    );
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let record = format!(
        "{{\"provenance\":{provenance},\"why\":{},\"info\":[{}],\"result\":{result}}}\n",
        json_escape(w.why),
        info.iter()
            .map(|l| json_escape(l))
            .collect::<Vec<_>>()
            .join(",")
    );
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).map_err(|e| e.to_string())?;
    println!("{result}");
    Ok(correct)
}

/// The end-to-end run: setup boots, the read blocks and the serial edits
/// against the server process; returns the end-to-end metrics.
fn end_to_end(
    bench: &workload::Bench,
    prepared: &Path,
    work: &Path,
    open: Duration,
    closed: Duration,
    info: &mut Vec<String>,
) -> Result<(Vec<Metric>, Outcome), String> {
    let w = bench.workload;
    let mut setups = Vec::new();
    let mut serving = None;
    for i in 0..SETUP_BOOTS {
        let dir = work.join(format!("boot-{i}"));
        copy_dir(prepared, &dir)?;
        let proc = ServerProc::boot(&dir)?;
        setups.push(proc.setup_s);
        if i + 1 < SETUP_BOOTS {
            proc.stop()?;
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        } else {
            serving = Some(proc);
        }
    }
    let proc = serving.expect("at least one boot");
    let ticks0 = stats::cpu_ticks();
    let mut streams = load::Streams::new(bench);
    // Reads and serial edits alternate in rounds, so every metric samples
    // the whole run rather than one stretch of it.
    let mut blocks = Vec::with_capacity(ROUNDS);
    let mut probes = Outcome::default();
    for r in 0..ROUNDS {
        blocks.push(load::run(
            proc.port,
            bench,
            &mut streams,
            open / ROUNDS as u32,
            closed / ROUNDS as u32,
        ));
        let count = w.edit_probe * (r + 1) / ROUNDS - w.edit_probe * r / ROUNDS;
        probes.merge(load::probe_edits(proc.port, bench, &mut streams, count));
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, stats::cpu_ticks()) {
        info.push(format!(
            "host: {:.2}% of CPU time stolen by other guests during the load",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    let rss = proc
        .peak_rss_mb()
        .ok_or("cannot read the server's peak RSS")?;
    proc.stop()?;

    // Search latency and throughput are taken per round and the median
    // round is reported: other tenants of a shared host slow stretches of
    // a run, which moves a few rounds rather than the result. The edit
    // percentiles pool all rounds, as one round holds too few edits.
    let closed_s = closed.as_secs_f64() / ROUNDS as f64;
    let closed_end = open.as_secs_f64() / ROUNDS as f64 + closed_s;
    let searches = |b: &Outcome| latencies(b, |k, p| k == Kind::Search && p == Phase::Open);
    let per_round = |q: f64| -> f64 {
        let values: Vec<f64> = blocks
            .iter()
            .map(|b| percentile(&mut searches(b), q))
            .collect();
        median(&values)
    };
    let throughputs: Vec<f64> = blocks
        .iter()
        .map(|b| {
            let done = b.samples.iter();
            done.filter(|s| s.phase == Phase::Closed && s.ok && s.done_s <= closed_end)
                .count() as f64
                / closed_s
        })
        .collect();
    let (search_p50, search_p95) = (per_round(0.50), per_round(0.95));
    let mut outcome = Outcome::default();
    blocks.into_iter().for_each(|b| outcome.merge(b));
    let mut pooled = searches(&outcome);
    outcome.merge(probes);
    let mut edit = latencies(&outcome, |k, _| k == Kind::Edit);
    info.push(format!(
        "search, open loop, all rounds pooled: n={} p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
        pooled.len(),
        percentile(&mut pooled, 0.50),
        percentile(&mut pooled, 0.95),
        percentile(&mut pooled, 0.99)
    ));
    for (what, n, need) in [
        ("search", pooled.len(), P99_SAMPLES),
        ("edit", edit.len(), P95_SAMPLES),
    ] {
        if n < need {
            info.push(format!(
                "warning: {n} {what} samples, fewer than the {need} its tail percentile needs"
            ));
        }
    }
    info.push(format!("setup: {} boots, {:?} s", setups.len(), setups));
    describe(&outcome, info);
    let metrics = vec![
        metric("setup_s", "s", median(&setups)),
        metric("search_p50_ms", "ms", search_p50),
        metric("search_p95_ms", "ms", search_p95),
        metric("edit_p50_ms", "ms", percentile(&mut edit, 0.50)),
        metric("edit_p95_ms", "ms", percentile(&mut edit, 0.95)),
        metric("throughput_rps", "1/s", median(&throughputs)),
        metric("peak_rss_mb", "MiB", rss),
    ];
    Ok((metrics, outcome))
}

/// The traced run: the open loop once more for the transport numbers, then
/// the in-process replay; returns the per-layer metrics.
fn traced(
    bench: &workload::Bench,
    args: &Args,
    prepared: &Path,
    work: &Path,
    open: Duration,
    info: &mut Vec<String>,
    errors: &mut Vec<String>,
) -> Result<(Vec<Metric>, Outcome), String> {
    let w = bench.workload;
    let dir = work.join("boot-0");
    copy_dir(prepared, &dir)?;
    let proc = ServerProc::boot(&dir)?;
    let shed0 = shed_total(proc.port)?;
    let outcome = load::run(
        proc.port,
        bench,
        &mut load::Streams::new(bench),
        open,
        Duration::ZERO,
    );
    let shed1 = shed_total(proc.port)?;
    proc.stop()?;
    describe(&outcome, info);
    let mut wire: Vec<f64> = outcome.samples.iter().filter_map(|s| s.wire_ms).collect();
    let bytes: Vec<f64> = outcome.samples.iter().map(|s| s.bytes as f64).collect();
    let mut metrics = vec![
        metric("server.wire_p50_ms", "ms", percentile(&mut wire, 0.50)),
        metric("server.wire_p99_ms", "ms", percentile(&mut wire, 0.99)),
        metric("server.response_bytes", "B", mean(&bytes)),
        metric("server.shed_total", "count", shed1 - shed0),
    ];
    let setup = replay::setup_layers(&bench.inputs, prepared, work)?;
    let probe = REPLAY_PROBE_EDITS.min(w.edit_probe);
    let report = replay::run(bench, prepared, work, probe)?;
    metrics.extend([
        metric("kcore.decompose_ms", "ms", setup.kcore_ms),
        metric("cltree.build_ms", "ms", setup.cltree_ms),
        metric("store.open_ms", "ms", setup.store_open_ms),
    ]);
    metrics.extend(report.metrics.iter().map(|&(n, u, v)| metric(n, u, v)));
    info.extend(report.info);
    let unattributed = metrics
        .iter()
        .find(|m| m.name == "trace.unattributed_pct")
        .map_or(0.0, |m| m.value);
    if unattributed > MAX_UNATTRIBUTED_PCT {
        info.push(format!(
            "warning: the traced layers leave {unattributed:.1}% of Server::handle time unattributed (limit {MAX_UNATTRIBUTED_PCT}%)"
        ));
    }
    errors.extend(report.errors);
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let spans = args
        .out
        .join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    std::fs::write(&spans, &report.spans_jsonl).map_err(|e| e.to_string())?;
    info.push(format!(
        "spans: {} requests traced, written to {}",
        report.requests,
        spans.display()
    ));
    Ok((metrics, outcome))
}

/// JSON has no infinity: a failed request's latency prints as 1e9 ms.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        1e9
    }
}
