//! Cross-host serving equivalence: a request routed across a fleet must
//! be indistinguishable — in result bits *and* in per-host memory
//! traces — from the same request served by one host.

use secemb::GeneratorSpec;
use secemb_router::{Placement, Router, RouterConfig};
use secemb_serve::protocol::{
    decode_client, decode_server_traced, encode_generate, encode_generate_traced, ClientMsg,
    ServerMsg,
};
use secemb_serve::{
    execute_batch, Client, Engine, EngineConfig, RejectReason, Server, TableConfig, TraceCtx,
};
use secemb_tensor::Matrix;
use secemb_trace::check::compare_traces;
use secemb_trace::tracer::record_trace;
use secemb_wire::frame::{read_frame, write_frame, FrameDecoder};
use secemb_wire::json::{self, Value};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Three tables over two techniques: quotas 2/1 over two hosts, so
/// every fleet test inherently spans hosts.
fn specs() -> Vec<GeneratorSpec> {
    vec![
        GeneratorSpec::Scan { rows: 128, dim: 8 },
        GeneratorSpec::Dhe { rows: 96, dim: 8 },
        GeneratorSpec::Scan { rows: 64, dim: 8 },
    ]
}

fn start_backend() -> (Arc<Engine>, Server) {
    let engine = Arc::new(Engine::start(EngineConfig::new(
        specs().into_iter().map(TableConfig::new).collect(),
    )));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
    (engine, server)
}

fn start_router(backends: &[&Server]) -> Router {
    Router::start(RouterConfig {
        bind: "127.0.0.1:0".to_string(),
        backends: backends
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("b{i}"), s.addr().to_string()))
            .collect(),
        gossip_interval: None,
        ..RouterConfig::default()
    })
    .expect("router start")
}

/// Single-table lookups through the router return embeddings
/// bit-identical to a standalone single-host server built from the same
/// table configs, for every table — wherever placement put it.
#[test]
fn routed_lookups_match_single_host_bit_for_bit() {
    let (_e0, s0) = start_backend();
    let (_e1, s1) = start_backend();
    let (_er, reference) = start_backend();
    let router = start_router(&[&s0, &s1]);
    // 3 tables over 2 hosts: both hosts must own at least one.
    assert!(!router.placement().tables_of(0).is_empty());
    assert!(!router.placement().tables_of(1).is_empty());

    let mut via_router = Client::connect(router.addr()).expect("connect router");
    let mut direct = Client::connect(reference.addr()).expect("connect reference");
    for (table, indices) in [
        (0usize, vec![0u64, 127, 3]),
        (1, vec![95, 0]),
        (2, vec![63]),
        (0, vec![7, 7, 7, 7]),
    ] {
        let routed = via_router.generate(table, &indices, None).expect("routed");
        let local = direct.generate(table, &indices, None).expect("direct");
        let (ServerMsg::Embeddings(r, _), ServerMsg::Embeddings(l, _)) = (routed, local) else {
            panic!("table {table}: expected embeddings on both paths");
        };
        assert_eq!(bits(&r), bits(&l), "table {table} indices {indices:?}");
    }

    // The same holds with requests pipelined on one connection and
    // answered in completion order, and for the table inventory.
    let rows = [128u64, 96, 64];
    let pipelined = |client: &mut Client| -> Vec<Vec<u32>> {
        let mut ids = Vec::new();
        for slot in 0..12usize {
            let table = slot % 3;
            let indices: Vec<u64> = (0..3)
                .map(|k| ((slot * 11 + k * 5) as u64) % rows[table])
                .collect();
            ids.push(client.call_async(table, &indices, None).expect("send"));
        }
        let mut out = vec![Vec::new(); ids.len()];
        for _ in 0..ids.len() {
            let (id, msg) = client.drain_next().expect("drain");
            let slot = ids.iter().position(|&i| i == id).expect("known id");
            match msg {
                ServerMsg::Embeddings(m, _) => out[slot] = bits(&m),
                other => panic!("slot {slot}: {other:?}"),
            }
        }
        out
    };
    assert_eq!(pipelined(&mut via_router), pipelined(&mut direct));
    assert_eq!(
        via_router.tables().expect("routed tables").len(),
        direct.tables().expect("direct tables").len()
    );
}

/// A multi-table request whose parts land on different hosts merges
/// back bit-identically to single-host serving, rows in part order, and
/// each backend executed exactly its placement's share of the parts.
#[test]
fn cross_host_fanout_merges_bit_identically_in_part_order() {
    let (e0, s0) = start_backend();
    let (e1, s1) = start_backend();
    let (_er, reference) = start_backend();
    let router = start_router(&[&s0, &s1]);
    let parts: Vec<(usize, Vec<u64>)> = vec![
        (2, vec![1, 2]),
        (0, vec![5]),
        (1, vec![10, 11, 12]),
        (0, vec![0, 127]),
    ];
    let per_host = |host: usize| -> usize {
        parts
            .iter()
            .filter(|(t, _)| router.placement().host_index(*t) == Some(host))
            .count()
    };
    assert!(
        per_host(0) > 0 && per_host(1) > 0,
        "the request must actually span hosts"
    );

    let mut via_router = Client::connect(router.addr()).expect("connect router");
    let mut direct = Client::connect(reference.addr()).expect("connect reference");
    let routed = via_router.generate_multi(&parts, None).expect("routed");
    let local = direct.generate_multi(&parts, None).expect("direct");
    let (ServerMsg::Embeddings(r, _), ServerMsg::Embeddings(l, _)) = (routed, local) else {
        panic!("expected embeddings on both paths");
    };
    assert_eq!(r.rows(), 8, "rows concatenate across all parts");
    assert_eq!(bits(&r), bits(&l), "cross-host merge changed bits");

    // Each backend served one engine request per part placement routed
    // to it — nothing duplicated, nothing leaked to the wrong host.
    assert_eq!(e0.stats().snapshot().completed, per_host(0) as u64);
    assert_eq!(e1.stats().snapshot().completed, per_host(1) as u64);
}

/// The router rejects malformed requests locally — an unknown table or
/// empty index list never crosses the wire to a backend.
#[test]
fn router_admission_rejects_before_the_fleet() {
    let (e0, s0) = start_backend();
    let (e1, s1) = start_backend();
    let router = start_router(&[&s0, &s1]);
    let mut client = Client::connect(router.addr()).expect("connect");
    match client.generate(7, &[1], None).expect("reply") {
        ServerMsg::Rejected(RejectReason::UnknownTable) => {}
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    match client.generate(0, &[], None).expect("reply") {
        ServerMsg::Rejected(RejectReason::BadRequest) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(e0.stats().snapshot().completed, 0);
    assert_eq!(e1.stats().snapshot().completed, 0);
}

/// A client-supplied trace id is echoed back through the router, and an
/// untraced client frame stays untraced — the trace field joins
/// router-side and backend-side spans without breaking old clients.
#[test]
fn trace_ids_survive_the_router_hop() {
    let (_e0, s0) = start_backend();
    let (_e1, s1) = start_backend();
    let router = start_router(&[&s0, &s1]);
    let stream = TcpStream::connect(router.addr()).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);

    write_frame(
        &mut writer,
        &encode_generate_traced(1, 0, &[1, 2], None, Some(TraceCtx::new(0xDEAD_BEEF))),
    )
    .expect("write traced");
    let payload = read_frame(&mut reader).expect("read traced");
    let (id, msg, trace) = decode_server_traced(&payload).expect("decode traced");
    assert_eq!(id, 1);
    assert!(matches!(msg, ServerMsg::Embeddings(..)));
    assert_eq!(trace, Some(0xDEAD_BEEF), "trace id must round-trip");

    write_frame(&mut writer, &encode_generate(2, 0, &[3], None)).expect("write untraced");
    let payload = read_frame(&mut reader).expect("read untraced");
    let (id, msg, trace) = decode_server_traced(&payload).expect("decode untraced");
    assert_eq!(id, 2);
    assert!(matches!(msg, ServerMsg::Embeddings(..)));
    assert_eq!(trace, None, "untraced requests stay untraced");
}

/// STATS and METRICS through the router cover the whole fleet: the
/// merged snapshot names every backend and embeds the placement, and
/// the merged exposition carries the router's own series plus every
/// backend's series labeled `backend="<name>"`.
#[test]
fn merged_stats_and_metrics_cover_the_fleet() {
    let (_e0, s0) = start_backend();
    let (_e1, s1) = start_backend();
    let router = start_router(&[&s0, &s1]);
    let mut client = Client::connect(router.addr()).expect("connect");
    client.generate(0, &[1], None).expect("warm up");

    let stats = client.stats_json().expect("stats");
    let doc = json::parse(&stats).expect("stats parse");
    assert_eq!(doc.get("role").and_then(Value::as_str), Some("router"));
    let backends = doc
        .get("backends")
        .and_then(Value::as_arr)
        .expect("backends array");
    assert_eq!(backends.len(), 2);
    for (i, entry) in backends.iter().enumerate() {
        assert_eq!(
            entry.get("name").and_then(Value::as_str),
            Some(format!("b{i}").as_str())
        );
        assert!(entry.get("stats").is_some(), "backend {i} carries stats");
    }
    let placement = doc.get("placement").expect("placement");
    assert_eq!(
        placement
            .get("hosts")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(2)
    );

    let metrics = client.metrics_text().expect("metrics");
    assert!(
        metrics.contains("secemb_router_backends 2"),
        "router gauge missing:\n{metrics}"
    );
    assert!(
        metrics.contains("secemb_router_requests_total 1"),
        "router counter missing:\n{metrics}"
    );
    assert!(
        metrics.contains("backend=\"b0\"") && metrics.contains("backend=\"b1\""),
        "backend-labeled series missing:\n{metrics}"
    );
}

/// The split a router applies to a mixed request is a pure partition:
/// each host receives its tables' parts verbatim and in part order, so
/// its memory access trace is bit-identical to serving those same parts
/// directly on a single host — routing adds no side channel.
#[test]
fn per_host_access_traces_match_direct_single_host_serving() {
    let hosts = vec!["b0".to_string(), "b1".to_string()];
    let spec = GeneratorSpec::Scan { rows: 128, dim: 8 };
    let placement = Placement::balanced(&hosts, 3);
    let parts: Vec<(usize, Vec<u64>)> = vec![
        (0, vec![1, 2]),
        (1, vec![9]),
        (2, vec![3, 4]),
        (0, vec![63]),
        (1, vec![0]),
    ];
    for host in 0..hosts.len() {
        for &table in &placement.tables_of(host) {
            // What the router forwards for this table: its parts, in
            // original order, indices untouched.
            let share: Vec<Vec<u64>> = parts
                .iter()
                .filter(|(t, _)| *t == table)
                .map(|(_, ix)| ix.clone())
                .collect();
            if share.is_empty() {
                continue;
            }
            let mut routed_gen = spec.build(5);
            let mut direct_gen = spec.build(5);
            let ((), routed) = record_trace(|| {
                execute_batch(routed_gen.as_mut(), &share);
            });
            let ((), direct) = record_trace(|| {
                execute_batch(direct_gen.as_mut(), &share);
            });
            assert!(!routed.is_empty(), "dispatch must touch memory");
            assert_eq!(
                routed, direct,
                "host {host} table {table}: routed trace diverged"
            );
        }
    }
}

/// Obliviousness survives the split: for a scan-backed table, the
/// per-host trace of serving a routed share is identical across
/// different secret index sets of the same shape.
#[test]
fn routed_shares_remain_oblivious() {
    let mut generator = GeneratorSpec::Scan { rows: 128, dim: 8 }.build(3);
    // Same public shape (parts of 2 and 1 queries), different secrets.
    let secrets: Vec<Vec<Vec<u64>>> = vec![
        vec![vec![1, 2], vec![5]],
        vec![vec![127, 0], vec![64]],
        vec![vec![9, 9], vec![9]],
    ];
    let verdict = compare_traces(&secrets, |groups| {
        execute_batch(generator.as_mut(), groups);
    });
    assert!(
        verdict.is_oblivious(),
        "routed share trace diverged at secret {:?}",
        verdict.first_divergence()
    );
}

/// A byte-for-byte relay in front of `upstream` that keeps a copy of
/// everything flowing *to* it: what a router really forwarded. Serves
/// one connection; the handle joins once both directions have closed.
fn tee(upstream: SocketAddr) -> (SocketAddr, Arc<Mutex<Vec<u8>>>, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind tee");
    let addr = listener.local_addr().expect("tee addr");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let copy = Arc::clone(&seen);
    let relay = std::thread::spawn(move || {
        let (mut down, _) = listener.accept().expect("accept router link");
        let mut up = TcpStream::connect(upstream).expect("dial backend");
        let (mut down_w, mut up_r) = (
            down.try_clone().expect("clone"),
            up.try_clone().expect("clone"),
        );
        let back = std::thread::spawn(move || {
            let _ = std::io::copy(&mut up_r, &mut down_w);
            let _ = down_w.shutdown(Shutdown::Both);
        });
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = down.read(&mut buf) {
            copy.lock()
                .expect("tee buffer")
                .extend_from_slice(&buf[..n]);
            if up.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = up.shutdown(Shutdown::Both);
        back.join().expect("return path");
    });
    (addr, seen, relay)
}

/// The lookup frames among the bytes a [`tee`] saw, in wire order.
fn lookups_in(seen: &Mutex<Vec<u8>>) -> Vec<ClientMsg> {
    let mut decoder = FrameDecoder::new();
    decoder.extend(&seen.lock().expect("tee buffer"));
    let mut lookups = Vec::new();
    while let Some(frame) = decoder.next_frame().expect("whole frames") {
        match decode_client(&frame).expect("router speaks the protocol").1 {
            msg @ (ClientMsg::Generate { .. } | ClientMsg::Update { .. }) => lookups.push(msg),
            ClientMsg::GenerateMulti { .. } => panic!("nothing here sends a multi"),
            _ => {}
        }
    }
    lookups
}

/// `Update` then `Generate` through the router — the protected training
/// write path behind the serving tier — is bit-identical to the same
/// pair sent straight at an identically seeded backend; the owning
/// backend receives the pair verbatim (and its peer nothing), so the
/// memory trace it executes is the direct one; and a table without a
/// write path refuses through the router exactly as it does directly.
#[test]
fn routed_update_matches_direct_in_bits_and_in_backend_trace() {
    let specs = || {
        vec![
            GeneratorSpec::Scan { rows: 128, dim: 8 },
            GeneratorSpec::LaOram { rows: 96, dim: 8 },
        ]
    };
    let start = || {
        let configs = specs().into_iter().map(TableConfig::new).collect();
        let engine = Arc::new(Engine::start(EngineConfig::new(configs)));
        Server::start(engine, "127.0.0.1:0").expect("bind backend")
    };
    let (s0, s1, reference) = (start(), start(), start());
    let (t0, seen0, relay0) = tee(s0.addr());
    let (t1, seen1, relay1) = tee(s1.addr());
    let router = Router::start(RouterConfig {
        backends: vec![("b0".into(), t0.to_string()), ("b1".into(), t1.to_string())],
        ..RouterConfig::default()
    })
    .expect("router start");
    let mut via_router = Client::connect(router.addr()).expect("connect router");
    let mut direct = Client::connect(reference.addr()).expect("connect reference");

    let wrote = vec![3u64, 90, 3];
    let deltas = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32 * 0.25 - 1.0);
    let read = vec![3u64, 7, 90];
    let before = direct.generate(1, &read, None).expect("initial rows");
    for client in [&mut via_router, &mut direct] {
        match client
            .update(0, &[1], &Matrix::zeros(1, 8), None)
            .expect("reply")
        {
            ServerMsg::Rejected(RejectReason::UpdateUnsupported) => {}
            other => panic!("a scan table has no write path, got {other:?}"),
        }
    }
    let pair = |client: &mut Client| {
        let updated = client.update(1, &wrote, &deltas, None).expect("update");
        let reread = client.generate(1, &read, None).expect("generate");
        let (ServerMsg::Embeddings(u, _), ServerMsg::Embeddings(g, _)) = (updated, reread) else {
            panic!("expected embeddings for both halves of the pair");
        };
        (bits(&u), bits(&g))
    };
    let routed = pair(&mut via_router);
    assert_eq!(routed, pair(&mut direct), "routed update changed bits");
    let ServerMsg::Embeddings(before, _) = before else {
        panic!("expected the initial rows");
    };
    assert_ne!(routed.1, bits(&before), "the update must be visible");

    // What crossed the wire: the owner got the three lookups verbatim
    // and in order, its peer none of them.
    let owner = router.placement().host_index(1).expect("table 1 placed");
    let scan_owner = router.placement().host_index(0).expect("table 0 placed");
    drop(router);
    for relay in [relay0, relay1] {
        relay.join().expect("tee");
    }
    let sent = [
        ClientMsg::Update {
            table: 1,
            indices: wrote,
            deltas,
            deadline: None,
        },
        ClientMsg::Generate {
            table: 1,
            indices: read,
            deadline: None,
        },
    ];
    let mut forwarded = [lookups_in(&seen0), lookups_in(&seen1)];
    let refused = forwarded[scan_owner].remove(0);
    assert!(matches!(refused, ClientMsg::Update { table: 0, .. }));
    assert_eq!(forwarded[owner], sent);
    assert_eq!(forwarded[1 - owner], []);

    // So the trace the owner executed for the routed pair is the trace
    // of the direct pair: replay both on identically seeded generators.
    let verdict = compare_traces(&[&forwarded[owner][..], &sent[..]], |ops| {
        let mut generator = specs()[1].build(42);
        for op in *ops {
            match op {
                ClientMsg::Update {
                    indices, deltas, ..
                } => {
                    let rows: Vec<_> = deltas.iter_rows().map(Some).collect();
                    generator.generate_window(indices, &rows);
                }
                ClientMsg::Generate { indices, .. } => {
                    generator.generate_batch(indices);
                }
                other => panic!("not a lookup: {other:?}"),
            }
        }
    });
    assert!(
        !verdict.traces()[0].is_empty(),
        "the pair must touch memory"
    );
    assert!(verdict.is_oblivious(), "routed pair's trace diverged");
}
