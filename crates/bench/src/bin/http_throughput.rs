//! Transport benchmark for the poll(2) event loop: sustained keep-alive
//! throughput, shed behaviour at 2× overload, and the deadline
//! acceptance probe.
//!
//! Phase 1 (keepalive): `conns` client threads each hold one keep-alive
//! connection and fire `reqs_per_conn` cheap `/api/v1/stats` /
//! `/api/v1/search` requests back-to-back. Reports sustained req/s and
//! per-request p50/p99; every response must be a 200 and no connection
//! may be reset.
//!
//! Phase 2 (overload): the same fleet fires expensive `/api/v1/detect`
//! requests at a server whose admission budget is half the fleet size —
//! a sustained 2× overload. Every response must be a 200 or a typed
//! `overloaded` 503 with `Retry-After`; the shed rate must be nonzero
//! (the loop refuses work instead of queueing without bound) and, again,
//! zero resets.
//!
//! Phase 3 (deadline probe): `detect` with `timeout_ms=50` against a
//! `probe_vertices`-vertex graph (default 100k) must come back as a
//! typed `deadline_exceeded` 408 — and come back *promptly*, which is
//! the whole point of cooperative cancellation.
//!
//! Emits one JSON line per phase plus a summary, and writes the whole
//! report (stamped with host CPUs, args and git revision) to
//! `BENCH_http_throughput.json` unless `--smoke` is given.
//!
//! Usage: `http_throughput [vertices] [conns] [reqs_per_conn] [probe_vertices] [--smoke]`
//! (defaults 5000, 64, 30, 100000).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cx_bench::{provenance_line, workload};
use cx_explorer::Engine;
use cx_server::{Server, ServerConfig};

/// One keep-alive client connection.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(port: u16) -> std::io::Result<Self> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one GET and reads one Content-Length-framed response;
    /// returns (status, headers, body).
    fn get(&mut self, target: &str) -> std::io::Result<(u16, String, String)> {
        write!(self.stream, "GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
        let mut raw = Vec::with_capacity(512);
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            match self.stream.read(&mut byte)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                _ => raw.push(byte[0]),
            }
        }
        let head = String::from_utf8_lossy(&raw).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned)
            })
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        Ok((status, head, String::from_utf8_lossy(&body).to_string()))
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

struct PhaseOutcome {
    latencies_ms: Vec<f64>,
    statuses: Vec<u16>,
    resets: usize,
    wall: Duration,
}

/// Runs `conns` clients, each firing its target list in order over one
/// keep-alive connection, all released together by a barrier.
fn run_fleet(port: u16, conns: usize, targets: Arc<Vec<String>>) -> PhaseOutcome {
    let barrier = Arc::new(Barrier::new(conns + 1));
    let handles: Vec<_> = (0..conns)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || {
                let mut client = Client::connect(port).expect("connect");
                barrier.wait();
                let mut lat = Vec::with_capacity(targets.len());
                let mut statuses = Vec::with_capacity(targets.len());
                let mut resets = 0usize;
                for t in targets.iter() {
                    let t0 = Instant::now();
                    match client.get(t) {
                        Ok((status, _, _)) => {
                            lat.push(t0.elapsed().as_secs_f64() * 1e3);
                            statuses.push(status);
                        }
                        Err(_) => {
                            resets += 1;
                            // The connection is dead; reconnect to keep
                            // the fleet at strength (still counted).
                            if let Ok(c) = Client::connect(port) {
                                client = c;
                            }
                        }
                    }
                }
                (lat, statuses, resets)
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let mut out = PhaseOutcome {
        latencies_ms: Vec::new(),
        statuses: Vec::new(),
        resets: 0,
        wall: Duration::ZERO,
    };
    for h in handles {
        let (lat, statuses, resets) = h.join().expect("client thread");
        out.latencies_ms.extend(lat);
        out.statuses.extend(statuses);
        out.resets += resets;
    }
    out.wall = t0.elapsed();
    out.latencies_ms.sort_by(f64::total_cmp);
    out
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let arg = |i: usize, d: usize| -> usize {
        args.get(i).and_then(|a| a.parse().ok()).unwrap_or(d)
    };
    let n = arg(0, 5_000);
    let conns = arg(1, 64).max(2);
    let reqs_per_conn = arg(2, 30).max(1);
    let probe_n = arg(3, 100_000);
    let mut report = String::new();

    // Phase 1: sustained keep-alive throughput on cheap endpoints.
    let (g, _) = workload(n, 7);
    let label = g.label(cx_bench::hub_vertex(&g)).to_owned();
    let server = Server::new(Engine::with_graph("dblp", g));
    let handle = server
        .serve_background_with(ServerConfig {
            workers: 4,
            max_inflight: 4 * conns, // never shed in this phase
            ..ServerConfig::default()
        })
        .expect("bind");
    let targets: Vec<String> = (0..reqs_per_conn)
        .map(|i| {
            if i % 2 == 0 {
                "/api/v1/stats".to_owned()
            } else {
                format!("/api/v1/search?name={label}&k=4&algo=acq&limit=1")
            }
        })
        .collect();
    let p1 = run_fleet(handle.port(), conns, Arc::new(targets));
    let non_200 = p1.statuses.iter().filter(|s| **s != 200).count();
    let req_per_s = p1.statuses.len() as f64 / p1.wall.as_secs_f64().max(1e-9);
    report.push_str(&format!(
        "{{\"phase\":\"keepalive\",\"conns\":{conns},\"requests\":{},\"req_per_s\":{:.0},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"non_200\":{non_200},\"resets\":{}}}\n",
        p1.statuses.len(),
        req_per_s,
        percentile(&p1.latencies_ms, 0.50),
        percentile(&p1.latencies_ms, 0.99),
        p1.resets,
    ));
    drop(handle);
    assert_eq!(non_200, 0, "keepalive phase must be all 200s");
    assert_eq!(p1.resets, 0, "keepalive phase must not reset any connection");

    // Phase 2: 2× overload — admission budget of half the fleet, every
    // client firing whole-graph detection.
    let (g, _) = workload(n, 7);
    let server = Server::new(Engine::with_graph("dblp", g));
    let max_inflight = (conns / 2).max(1);
    let handle = server
        .serve_background_with(ServerConfig {
            workers: 4,
            max_inflight,
            ..ServerConfig::default()
        })
        .expect("bind");
    let rounds = 3usize;
    let targets: Vec<String> =
        (0..rounds).map(|_| "/api/v1/detect?algo=louvain".to_owned()).collect();
    let p2 = run_fleet(handle.port(), conns, Arc::new(targets));
    let ok = p2.statuses.iter().filter(|s| **s == 200).count();
    let shed = p2.statuses.iter().filter(|s| **s == 503).count();
    let other = p2.statuses.len() - ok - shed;
    let shed_rate = shed as f64 / p2.statuses.len().max(1) as f64;
    report.push_str(&format!(
        "{{\"phase\":\"overload\",\"conns\":{conns},\"max_inflight\":{max_inflight},\"requests\":{},\"ok\":{ok},\"shed\":{shed},\"shed_rate\":{shed_rate:.3},\"other_status\":{other},\"resets\":{}}}\n",
        p2.statuses.len(),
        p2.resets,
    ));
    drop(handle);
    assert_eq!(other, 0, "overload phase: every response is a 200 or a typed 503");
    assert_eq!(p2.resets, 0, "overload phase must shed, not reset");
    assert!(shed > 0, "2x overload must shed at least one request");
    assert!(ok > 0, "2x overload must still serve admitted requests");

    // Phase 3: the deadline acceptance probe — detect with timeout_ms=50
    // on the big graph is refused by deadline, promptly and typed.
    let (g, _) = workload(probe_n, 7);
    let server = Server::new(Engine::with_graph("dblp", g));
    let handle = server.serve_background().expect("bind");
    let mut client = Client::connect(handle.port()).expect("connect");
    let t0 = Instant::now();
    let (status, _, body) =
        client.get("/api/v1/detect?algo=louvain&timeout_ms=50").expect("probe response");
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let code = cx_server::Json::parse(&body)
        .ok()
        .and_then(|v| {
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(cx_server::Json::as_str)
                .map(str::to_owned)
        })
        .unwrap_or_default();
    report.push_str(&format!(
        "{{\"phase\":\"deadline_probe\",\"vertices\":{probe_n},\"timeout_ms\":50,\"status\":{status},\"code\":\"{code}\",\"elapsed_ms\":{elapsed_ms:.1}}}\n",
    ));
    assert_eq!(status, 408, "probe: detect must hit the 50ms deadline: {body}");
    assert_eq!(code, "deadline_exceeded", "probe: typed code: {body}");

    report.push_str("{\"zero_resets\":true,\"probe_deadline_exceeded\":true}\n");
    print!("{report}");
    if smoke {
        println!("(smoke run: BENCH_http_throughput.json not written)");
    } else {
        report.push_str(&provenance_line());
        report.push('\n');
        std::fs::write("BENCH_http_throughput.json", &report).expect("write report");
    }
}
