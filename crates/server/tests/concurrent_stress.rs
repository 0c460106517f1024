//! Snapshot-consistency stress test over the real HTTP stack: eight
//! reader threads hammer `/api/v1/stats` and `/api/v1/search` while one
//! writer thread toggles a K4 edge through `/api/v1/edit`.
//!
//! Every response carries the generation of the snapshot it was computed
//! against, and on the fig5 fixture the generation *determines* the
//! content: the writer alternates remove/add of edge (0,1) starting from
//! generation 1 (edge present), so odd generations have 11 edges and a
//! k=3 community of size 4, and even generations have 10 edges and no
//! k=3 community. Each reader asserts:
//!
//! * every response is internally consistent with exactly one published
//!   snapshot (content matches the generation's world, never a blend);
//! * the generation it observes never goes backwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cx_explorer::Engine;
use cx_server::{Json, Server};

const READERS: usize = 8;
const READS_PER_READER: usize = 65;
const EDITS: usize = 30;

fn http_get(port: u16, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n").unwrap();
    read_response(stream)
}

fn http_post(port: u16, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    read_response(stream)
}

fn read_response(mut stream: TcpStream) -> (u16, String) {
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, body)
}

/// Unwraps a v1 envelope, asserting success, and returns the data member.
fn data_of(status: u16, body: &str) -> Json {
    assert_eq!(status, 200, "{body}");
    let v = Json::parse(body).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{body}");
    v.get("data").cloned().unwrap()
}

#[test]
fn readers_see_single_published_snapshots_while_writer_edits() {
    let server = Server::new(Engine::with_graph("fig5", cx_datagen::figure5_graph()));
    let handle = server.serve_background().unwrap();
    let port = handle.port();
    let writer_done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                let mut requests = 0usize;
                for j in 0..READS_PER_READER {
                    let gen;
                    if (i + j) % 2 == 0 {
                        let (status, body) = http_get(port, "/api/v1/stats");
                        let d = data_of(status, &body);
                        gen = d.get("generation").and_then(Json::as_f64).unwrap() as u64;
                        let edges = d.get("edges").and_then(Json::as_f64).unwrap() as u64;
                        let expected = if gen % 2 == 1 { 11 } else { 10 };
                        assert_eq!(
                            edges, expected,
                            "generation {gen} must publish exactly {expected} edges"
                        );
                    } else {
                        let (status, body) =
                            http_get(port, "/api/v1/search?name=A&k=3&algo=acq");
                        let d = data_of(status, &body);
                        gen = d.get("generation").and_then(Json::as_f64).unwrap() as u64;
                        let comms = d.get("communities").and_then(Json::as_array).unwrap();
                        if gen % 2 == 1 {
                            assert_eq!(comms.len(), 1, "odd generation: K4 is intact");
                            assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(4.0));
                        } else {
                            assert!(comms.is_empty(), "even generation: K4 edge removed");
                        }
                    }
                    assert!(
                        gen >= last_gen,
                        "reader {i} saw generation go backwards: {last_gen} -> {gen}"
                    );
                    last_gen = gen;
                    requests += 1;
                }
                requests
            })
        })
        .collect();

    let writer = {
        let done = Arc::clone(&writer_done);
        std::thread::spawn(move || {
            let mut last_gen = 1u64;
            let mut requests = 0usize;
            for i in 0..EDITS {
                let body = if i % 2 == 0 {
                    r#"{"remove":[[0,1]]}"#
                } else {
                    r#"{"add":[[0,1]]}"#
                };
                let (status, resp) = http_post(port, "/api/v1/edit", body);
                let d = data_of(status, &resp);
                let gen = d.get("generation").and_then(Json::as_f64).unwrap() as u64;
                assert!(gen > last_gen, "edit must advance the generation");
                last_gen = gen;
                requests += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            done.store(true, Ordering::SeqCst);
            (last_gen, requests)
        })
    };

    let mut total = 0usize;
    for r in readers {
        total += r.join().unwrap();
    }
    let (final_gen, writes) = writer.join().unwrap();
    total += writes;
    assert!(writer_done.load(Ordering::SeqCst));
    assert!(total >= 500, "stress must push at least 500 requests, did {total}");
    assert_eq!(final_gen, 1 + EDITS as u64, "every edit published exactly one snapshot");

    // The quiesced server reports the writer's last world.
    let (status, body) = http_get(port, "/api/v1/stats");
    let d = data_of(status, &body);
    assert_eq!(d.get("generation").and_then(Json::as_f64), Some((1 + EDITS) as f64));
    assert_eq!(d.get("edges").and_then(Json::as_f64), Some(11.0), "EDITS is even: edge restored");
}

/// Batched search under a concurrent writer: every item of a
/// `search_batch` response must describe the *same* snapshot — the one
/// whose generation the response header reports — even though the writer
/// keeps publishing new generations while the batch executes its members
/// in parallel.
///
/// Same fig5 invariant as above: odd generations have the K4 intact (one
/// k=3 community of size 4), even generations have none. A batch whose
/// items straddled two snapshots would mix the two worlds and trip the
/// per-item asserts.
#[test]
fn batch_items_all_describe_the_reported_generation() {
    const BATCH_READERS: usize = 4;
    const BATCHES_PER_READER: usize = 25;

    let server = Server::new(Engine::with_graph("fig5", cx_datagen::figure5_graph()));
    let handle = server.serve_background().unwrap();
    let port = handle.port();

    let readers: Vec<_> = (0..BATCH_READERS)
        .map(|r| {
            std::thread::spawn(move || {
                let body = r#"{"queries":[
                    {"name":"A","k":3},{"name":"B","k":3},
                    {"name":"A","k":3,"limit":1},{"name":"A","k":3}
                ]}"#;
                let mut last_gen = 0u64;
                for _ in 0..BATCHES_PER_READER {
                    let (status, resp) = http_post(port, "/api/v1/search_batch", body);
                    let d = data_of(status, &resp);
                    let gen = d.get("generation").and_then(Json::as_f64).unwrap() as u64;
                    assert!(gen >= last_gen, "reader {r}: generation went backwards");
                    last_gen = gen;
                    let results = d.get("results").and_then(Json::as_array).unwrap();
                    assert_eq!(results.len(), 4);
                    for item in results {
                        assert_eq!(item.get("ok").and_then(Json::as_bool), Some(true));
                        let comms = item
                            .get("data")
                            .and_then(|d| d.get("communities"))
                            .and_then(Json::as_array)
                            .unwrap();
                        if gen % 2 == 1 {
                            assert_eq!(comms.len(), 1, "gen {gen}: K4 intact for every item");
                            assert_eq!(comms[0].get("size").and_then(Json::as_f64), Some(4.0));
                        } else {
                            assert!(comms.is_empty(), "gen {gen}: K4 edge gone for every item");
                        }
                    }
                }
            })
        })
        .collect();

    let writer = std::thread::spawn(move || {
        for i in 0..EDITS {
            let body =
                if i % 2 == 0 { r#"{"remove":[[0,1]]}"# } else { r#"{"add":[[0,1]]}"# };
            let (status, resp) = http_post(port, "/api/v1/edit", body);
            data_of(status, &resp);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });

    for r in readers {
        r.join().unwrap();
    }
    writer.join().unwrap();
}

/// Engine-level (no HTTP) pinned-reader test against the incremental
/// write path: a writer applies 16-edge bursts to a ~2000-vertex
/// DBLP-like graph while readers pin snapshots mid-stream.
///
/// Bursts alternate remove-all / re-add-all of one fixed edge set, so a
/// published snapshot's generation parity *determines* its exact world:
/// odd generations carry the full graph, even generations the reduced
/// one. Readers assert each pinned snapshot is byte-identical (graph
/// fingerprint and id-independent CL-tree canonical form) to the
/// matching from-scratch world — a torn burst, a stale incremental core
/// number or a miswired tree node would all surface as a divergence.
#[test]
fn pinned_readers_see_whole_bursts_only() {
    use cx_check::{graph_fingerprint, tree_canonical};
    use cx_explorer::{CancelToken, QuerySpec};
    use cx_graph::VertexId;

    const BURSTS: usize = 24;
    const BURST_SIZE: usize = 16;
    const PIN_READERS: usize = 4;
    const PINS_PER_READER: usize = 40;

    let (g, _areas) = cx_datagen::dblp_like(&cx_datagen::DblpParams::scaled(2000, 11));
    let burst: Vec<(VertexId, VertexId)> = g.edges().take(BURST_SIZE).collect();
    let m = g.edge_count();

    // The two worlds the writer alternates between, built from scratch.
    let delta = g.edge_delta(&[], &burst).unwrap();
    let reduced = g.apply_delta(&delta);
    let full_fp = graph_fingerprint(&g);
    let reduced_fp = graph_fingerprint(&reduced);
    let full_tree =
        tree_canonical(&Engine::with_graph("ref", g.clone()).snapshot(None).unwrap().tree);
    let reduced_tree =
        tree_canonical(&Engine::with_graph("ref", reduced).snapshot(None).unwrap().tree);

    let engine = Arc::new(Engine::with_graph("dblp", g));
    let hub = VertexId(0);

    let writer = {
        let engine = Arc::clone(&engine);
        let burst = burst.clone();
        std::thread::spawn(move || {
            for i in 0..BURSTS {
                if i % 2 == 0 {
                    engine.apply_edits(None, &[], &burst).unwrap();
                } else {
                    engine.apply_edits(None, &burst, &[]).unwrap();
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
    };

    let readers: Vec<_> = (0..PIN_READERS)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let full_fp = full_fp.clone();
            let reduced_fp = reduced_fp.clone();
            let full_tree = full_tree.clone();
            let reduced_tree = reduced_tree.clone();
            std::thread::spawn(move || {
                let mut last_gen = 0u64;
                for j in 0..PINS_PER_READER {
                    let snap = engine.snapshot(None).unwrap();
                    let gen = snap.generation;
                    assert!(gen >= last_gen, "reader {r}: generation went backwards");
                    last_gen = gen;
                    // Generation parity determines the world; a snapshot
                    // must never expose a partially-applied burst.
                    let (want_m, want_fp, want_tree) = if gen % 2 == 1 {
                        (m, &full_fp, &full_tree)
                    } else {
                        (m - BURST_SIZE, &reduced_fp, &reduced_tree)
                    };
                    assert_eq!(snap.edge_count(), want_m, "reader {r} gen {gen}: torn burst");
                    // Full structural checks are expensive; sample them.
                    if j % 8 == r % 8 {
                        assert_eq!(&graph_fingerprint(&snap.graph), want_fp, "gen {gen}");
                        assert_eq!(&tree_canonical(&snap.tree), want_tree, "gen {gen}");
                    }
                    // The pinned snapshot keeps answering while newer
                    // generations are published over it.
                    let spec = QuerySpec::by_id(hub).k(2);
                    let res = engine
                        .search_snapshot_cancellable(&snap, "acq", &spec, &CancelToken::none())
                        .unwrap();
                    drop(res);
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    let snap = engine.snapshot(None).unwrap();
    assert_eq!(snap.generation, 1 + BURSTS as u64, "one generation per burst");
    assert_eq!(snap.edge_count(), m, "BURSTS is even: every edge restored");
    assert_eq!(graph_fingerprint(&snap.graph), full_fp);
    assert_eq!(tree_canonical(&snap.tree), full_tree);
}
