//! Router resilience: replica failover, probe-based recovery, tolerant
//! startup, half-open backend detection, at-most-once `Update`s and one
//! host per writable table — the guarantees that keep the protected serving tier up when a backend
//! dies, without weakening the trace-equivalence argument. (The redial
//! schedule itself is unit-tested against synthetic time in
//! `src/maint.rs`.)

use secemb::{GeneratorSpec, Technique};
use secemb_router::{Backend, Placement, Router, RouterConfig};
use secemb_serve::protocol::{
    decode_client, encode_generate, encode_table_list, ClientMsg, ServerMsg,
};
use secemb_serve::{
    execute_batch, Client, Engine, EngineConfig, RejectReason, Server, TableConfig,
};
use secemb_tensor::Matrix;
use secemb_trace::tracer::record_trace;
use secemb_wire::frame::{read_frame, write_frame};
use std::io::{BufReader, BufWriter};
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Three tables over two techniques — the same replica set the
/// equivalence suite serves, so every backend can serve every table.
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

/// Fast-trip, fast-probe, fast-reconnect config for deterministic
/// failover tests.
fn resilient_config(backends: Vec<(String, String)>) -> RouterConfig {
    RouterConfig {
        bind: "127.0.0.1:0".to_string(),
        backends,
        health_trip: 1,
        health_probe: Some(Duration::from_millis(20)),
        reconnect_base: Duration::from_millis(10),
        ..RouterConfig::default()
    }
}

fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("secemb_{name} ")))
        .map(|v| v.trim().parse().expect("metric value"))
        .unwrap_or(0.0)
}

/// Polls `cond` until it holds or the deadline passes.
fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Killing a backend mid-traffic fails its tables over to the
/// next-ranked replica with zero client-visible `Internal` rejections
/// once the link death is observed, and the failed-over results stay
/// bit-identical to a single-host reference.
#[test]
fn failover_serves_bit_identically_with_no_internal_rejections() {
    let (_e0, s0) = start_backend();
    let (_e1, s1) = start_backend();
    let (_er, reference) = start_backend();
    let servers = [&s0, &s1];
    let router = Router::start(resilient_config(
        servers
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("b{i}"), s.addr().to_string()))
            .collect(),
    ))
    .expect("router start");

    // Pick the victim: whichever backend owns table 0.
    let victim = router.placement().host_index(0).expect("table 0 placed");
    let victim_name = format!("b{victim}");
    match victim {
        0 => s0.shutdown(),
        _ => s1.shutdown(),
    }
    wait_for("victim link death", Duration::from_secs(5), || {
        router
            .backend_health()
            .iter()
            .any(|(name, up)| name == &victim_name && !up)
    });

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
            panic!("table {table}: expected embeddings on both paths (no Internal rejections)");
        };
        assert_eq!(bits(&r), bits(&l), "failed-over table {table} changed bits");
    }

    // Multi-part fan-out spanning the dead host's tables also survives.
    let parts: Vec<(usize, Vec<u64>)> = vec![(0, vec![5]), (1, vec![10, 11]), (2, vec![1])];
    let routed = via_router.generate_multi(&parts, None).expect("routed");
    let local = direct.generate_multi(&parts, None).expect("direct");
    let (ServerMsg::Embeddings(r, _), ServerMsg::Embeddings(l, _)) = (routed, local) else {
        panic!("expected embeddings on both multi paths");
    };
    assert_eq!(bits(&r), bits(&l), "failed-over multi merge changed bits");

    let metrics = via_router.metrics_text().expect("metrics");
    assert!(
        metric(&metrics, "router_failovers_total") >= 1.0,
        "failovers must be counted:\n{metrics}"
    );
    assert_eq!(
        metric(&metrics, "router_protocol_violations_total"),
        0.0,
        "failover is not a protocol violation"
    );
}

/// The replica that takes over executes the *same* oblivious dispatch
/// as the host that died would have: its access trace for the routed
/// share is bit-identical to direct single-host serving, so failover
/// does not open a side channel.
#[test]
fn failover_host_trace_is_bit_identical_to_single_host() {
    let spec = GeneratorSpec::Scan { rows: 128, dim: 8 };
    // The share the router would forward for one table after failover:
    // same parts, same order, same indices — only the host changed.
    let share: Vec<Vec<u64>> = vec![vec![1, 2], vec![63]];
    let mut failover_gen = spec.build(5);
    let mut direct_gen = spec.build(5);
    let ((), on_failover_host) = record_trace(|| {
        execute_batch(failover_gen.as_mut(), &share);
    });
    let ((), on_single_host) = record_trace(|| {
        execute_batch(direct_gen.as_mut(), &share);
    });
    assert!(!on_failover_host.is_empty(), "dispatch must touch memory");
    assert_eq!(
        on_failover_host, on_single_host,
        "failover host's access trace diverged from single-host serving"
    );
}

/// After the dead backend restarts on its old port, the health probe
/// recovers it — gossiping the fleet's plan *before* re-admission — and
/// traffic for its tables returns to it.
#[test]
fn recovery_returns_traffic_to_the_primary() {
    let (e0, s0) = start_backend();
    let (e1, s1) = start_backend();
    let addrs = [s0.addr(), s1.addr()];
    let router = Router::start(resilient_config(vec![
        ("b0".to_string(), addrs[0].to_string()),
        ("b1".to_string(), addrs[1].to_string()),
    ]))
    .expect("router start");
    let victim = router.placement().host_index(0).expect("table 0 placed");
    let victim_name = format!("b{victim}");
    let (victim_engine, victim_addr) = match victim {
        0 => {
            s0.shutdown();
            (Arc::clone(&e0), addrs[0])
        }
        _ => {
            s1.shutdown();
            (Arc::clone(&e1), addrs[1])
        }
    };
    wait_for("victim link death", Duration::from_secs(5), || {
        router
            .backend_health()
            .iter()
            .any(|(name, up)| name == &victim_name && !up)
    });

    // Failover window: table 0 keeps serving on the survivor.
    let mut client = Client::connect(router.addr()).expect("connect router");
    let reply = client.generate(0, &[1, 2], None).expect("failover reply");
    assert!(
        matches!(reply, ServerMsg::Embeddings(..)),
        "failover window leaked a rejection: {reply:?}"
    );
    // Link death is visible to routing instantly; the *health trip* is
    // the next tick's job. Let it land before restarting, so recovery
    // exercises the full trip → probe → gossip → re-admit machine.
    wait_for("health trip", Duration::from_secs(5), || {
        let metrics = client.metrics_text().expect("metrics");
        metric(&metrics, "router_health_trips_total") >= 1.0
    });

    // Restart the victim on its old port (SO_REUSEADDR makes the port
    // reclaimable immediately) and wait for probe-based recovery.
    let served_before_recovery = victim_engine.stats().snapshot().completed;
    let restarted = Server::start(Arc::clone(&victim_engine), &victim_addr.to_string())
        .expect("rebind victim port");
    assert_eq!(restarted.addr(), victim_addr);
    wait_for("probe recovery", Duration::from_secs(10), || {
        router
            .backend_health()
            .iter()
            .any(|(name, up)| name == &victim_name && *up)
    });

    // Traffic for the victim's table lands on the victim again.
    for _ in 0..3 {
        let reply = client.generate(0, &[4, 5], None).expect("post-recovery");
        assert!(matches!(reply, ServerMsg::Embeddings(..)), "{reply:?}");
    }
    assert!(
        victim_engine.stats().snapshot().completed >= served_before_recovery + 3,
        "recovered primary must serve its tables again"
    );
    let metrics = client.metrics_text().expect("metrics");
    assert!(metric(&metrics, "router_health_trips_total") >= 1.0);
    assert!(metric(&metrics, "router_health_recoveries_total") >= 1.0);
}

/// A backend that is down at startup no longer aborts the router: it
/// starts `Down`, the fleet serves without it, and it joins the serving
/// rotation when its probe first succeeds.
#[test]
fn backend_down_at_startup_joins_when_it_appears() {
    let (_e0, s0) = start_backend();
    // Reserve a port for the late backend by binding and dropping.
    let late_addr = {
        let probe = TcpListener::bind("127.0.0.1:0").expect("reserve port");
        probe.local_addr().expect("reserved addr")
    };
    let router = Router::start(resilient_config(vec![
        ("alive".to_string(), s0.addr().to_string()),
        ("late".to_string(), late_addr.to_string()),
    ]))
    .expect("router must tolerate a down backend at startup");
    assert!(
        router
            .backend_health()
            .iter()
            .any(|(name, up)| name == "late" && !up),
        "late backend must start down"
    );

    // Placement still covers both names; every table serves via the
    // live host in the meantime.
    assert_eq!(router.placement().hosts().len(), 2);
    let mut client = Client::connect(router.addr()).expect("connect router");
    for table in 0..specs().len() {
        let reply = client.generate(table, &[1], None).expect("degraded serve");
        assert!(matches!(reply, ServerMsg::Embeddings(..)), "{reply:?}");
    }

    // Bring the late backend up on the reserved port; reconnect backoff
    // dials it, the handshake verifies its shape, the probe admits it.
    let (late_engine, _late_server) = {
        let engine = Arc::new(Engine::start(EngineConfig::new(
            specs().into_iter().map(TableConfig::new).collect(),
        )));
        let server =
            Server::start(Arc::clone(&engine), &late_addr.to_string()).expect("bind late backend");
        (engine, server)
    };
    wait_for("late backend join", Duration::from_secs(10), || {
        router
            .backend_health()
            .iter()
            .any(|(name, up)| name == "late" && *up)
    });

    // Tables whose primary is the late host route to it now.
    let late_tables: Vec<usize> = (0..specs().len())
        .filter(|&t| router.placement().host_of(t) == Some("late"))
        .collect();
    assert!(
        !late_tables.is_empty(),
        "placement over two hosts must assign the late host work"
    );
    for &table in &late_tables {
        let reply = client.generate(table, &[2], None).expect("late serve");
        assert!(matches!(reply, ServerMsg::Embeddings(..)), "{reply:?}");
    }
    assert!(
        late_engine.stats().snapshot().completed >= late_tables.len() as u64,
        "joined backend must serve its placement share"
    );
}

/// A backend that completes the handshake and then goes silent while
/// requests are in flight is declared dead after the idle timeout: the
/// pending callback fires with `Rejected(Internal)` instead of the
/// reader thread blocking forever on the half-open connection.
#[test]
fn backend_idle_timeout_orphan_rejects_pending_requests() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        // Answer the hello so start connects, then say nothing.
        let payload = read_frame(&mut reader).expect("hello");
        let (id, msg) = decode_client(&payload).expect("decodable hello");
        assert!(matches!(msg, ClientMsg::Hello(_)));
        let inventory = vec![(128u64, 8usize, 100.0f64, "scan".to_string())];
        write_frame(&mut writer, &encode_table_list(id, &inventory)).expect("inventory");
        // Hold the socket open until the test ends.
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut reader, &mut sink);
    });

    let router = Router::start(RouterConfig {
        backends: vec![("silent".to_string(), addr.to_string())],
        backend_idle_timeout: Some(Duration::from_millis(100)),
        ..RouterConfig::default()
    })
    .expect("handshake");
    let backend: &Backend = &router.backends()[0];
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    backend
        .call(
            |id| encode_generate(id, 0, &[1, 2, 3], None),
            Box::new(move |msg, _| {
                let _ = tx.send(msg);
            }),
        )
        .expect("submit");
    let msg = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("idle detection must answer the orphan");
    assert!(
        matches!(msg, ServerMsg::Rejected(RejectReason::Internal)),
        "expected Rejected(Internal), got {msg:?}"
    );
    assert!(
        t0.elapsed() >= Duration::from_millis(90),
        "rejected before the idle window elapsed"
    );
    backend.shutdown();
    silent.join().expect("silent backend thread");
}

/// One look-ahead ORAM table: the only technique with a write path.
fn start_updatable_backend() -> (Arc<Engine>, Server) {
    let spec = GeneratorSpec::LaOram { rows: 96, dim: 8 };
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        spec,
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
    (engine, server)
}

/// `("primary", …)`/`("replica", …)` under the names placement ranks
/// first and second for the lone table 0.
fn ranked_for_table_0(primary: String, replica: String) -> Vec<(String, String)> {
    let names = ["b0".to_string(), "b1".to_string()];
    let first = Placement::balanced(&names, 1)
        .host_index(0)
        .expect("table 0 placed");
    let mut backends = vec![(names[first].clone(), primary)];
    backends.insert(1 - first, (names[1 - first].clone(), replica));
    backends
}

/// At-most-once, the half that must *not* retry: the primary takes the
/// `Update` frame off the wire and dies before answering. The router
/// cannot know whether the delta was applied, so the client is told
/// `Internal` and nothing is replayed — the replica's rows are exactly
/// the untouched reference's.
#[test]
fn update_in_flight_on_a_dying_primary_is_rejected_not_replayed() {
    let (replica_engine, replica) = start_updatable_backend();
    let (_re, reference) = start_updatable_backend();
    // A primary that handshakes like a replica of the same table set,
    // reads one lookup frame, and drops dead.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let primary_addr = listener.local_addr().expect("addr");
    let primary = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        let (id, msg) = decode_client(&read_frame(&mut reader).expect("hello")).expect("hello");
        assert!(matches!(msg, ClientMsg::Hello(_)));
        let label = Technique::LaOram.label().to_string();
        let inventory = vec![(96u64, 8usize, 100.0f64, label)];
        write_frame(&mut writer, &encode_table_list(id, &inventory)).expect("inventory");
        let (_, msg) = decode_client(&read_frame(&mut reader).expect("update")).expect("update");
        msg
    });
    let router = Router::start(RouterConfig {
        backends: ranked_for_table_0(primary_addr.to_string(), replica.addr().to_string()),
        health_probe: None,
        ..RouterConfig::default()
    })
    .expect("router start");

    let mut client = Client::connect(router.addr()).expect("connect router");
    let deltas = Matrix::from_fn(2, 8, |r, c| 1.0 + (r * 8 + c) as f32);
    match client.update(0, &[5, 9], &deltas, None).expect("reply") {
        ServerMsg::Rejected(RejectReason::Internal) => {}
        other => panic!("an update lost in flight must be Internal, got {other:?}"),
    }
    let delivered = primary.join().expect("primary thread");
    assert!(
        matches!(delivered, ClientMsg::Update { table: 0, .. }),
        "the send succeeded: {delivered:?}"
    );

    // Applied zero times on the replica: it never saw a request, and its
    // rows are still the untouched reference's.
    assert_eq!(replica_engine.stats().snapshot().completed, 0);
    let read = |server: &Server| {
        let mut direct = Client::connect(server.addr()).expect("connect");
        match direct.generate(0, &[5, 9], None).expect("read back") {
            ServerMsg::Embeddings(m, _) => bits(&m),
            other => panic!("read back failed: {other:?}"),
        }
    };
    assert_eq!(read(&replica), read(&reference), "the delta was replayed");
}

/// A writable table has one host in the fleet. An `Update` lands on the
/// primary; while the primary is down, reads and `Update`s of the table
/// answer `Internal` instead of failing over to a replica whose copy is a
/// fresh build from the seed; once the primary is back, a routed read
/// returns the seeded row plus the one delta that was answered with
/// embeddings.
#[test]
fn a_written_table_is_served_by_its_primary_alone() {
    let (primary_engine, primary) = start_updatable_backend();
    let (replica_engine, replica) = start_updatable_backend();
    let (_re, reference) = start_updatable_backend();
    let primary_addr = primary.addr();
    let backends = ranked_for_table_0(primary_addr.to_string(), replica.addr().to_string());
    let primary_name = backends
        .iter()
        .find(|(_, addr)| *addr == primary_addr.to_string())
        .map(|(name, _)| name.clone())
        .expect("primary is configured");
    let router = Router::start(resilient_config(backends)).expect("router start");
    let primary_is_up = |up: bool| {
        router
            .backend_health()
            .iter()
            .any(|(name, serving)| *name == primary_name && *serving == up)
    };
    let mut via_router = Client::connect(router.addr()).expect("connect router");
    let deltas = Matrix::from_fn(1, 8, |_, c| 1.0 + c as f32);
    let reply = via_router.update(0, &[5], &deltas, None).expect("routed");
    assert!(matches!(reply, ServerMsg::Embeddings(..)), "{reply:?}");

    primary.shutdown();
    wait_for("primary link death", Duration::from_secs(5), || {
        primary_is_up(false)
    });
    match via_router.update(0, &[5], &deltas, None).expect("routed") {
        ServerMsg::Rejected(RejectReason::Internal) => {}
        other => panic!("an update of a table whose host is down must be Internal: {other:?}"),
    }
    match via_router.generate(0, &[5], None).expect("routed") {
        ServerMsg::Rejected(RejectReason::Internal) => {}
        other => panic!("a read of a table whose host is down must be Internal: {other:?}"),
    }
    match via_router
        .generate_multi(&[(0, vec![5])], None)
        .expect("routed")
    {
        ServerMsg::Rejected(RejectReason::Internal) => {}
        other => panic!("a multi-part read must not fail over either: {other:?}"),
    }

    let _restarted =
        Server::start(Arc::clone(&primary_engine), &primary_addr.to_string()).expect("rebind");
    wait_for("probe recovery", Duration::from_secs(10), || {
        primary_is_up(true)
    });
    let mut direct = Client::connect(reference.addr()).expect("connect reference");
    let once = direct.update(0, &[5], &deltas, None).expect("direct");
    let read = via_router.generate(0, &[5], None).expect("routed");
    let (ServerMsg::Embeddings(want, _), ServerMsg::Embeddings(got, _)) = (once, read) else {
        panic!("the recovered primary must serve the written row");
    };
    assert_eq!(bits(&got), bits(&want), "a write was lost or hidden");
    assert_eq!(replica_engine.stats().snapshot().completed, 0);
}
