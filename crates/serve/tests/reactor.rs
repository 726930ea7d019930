//! End-to-end tests for the connection layer: soak behavior at ≥1024
//! mostly-idle connections with O(workers) threads, responses under
//! interleaved pipelining bit-identical to in-process `Engine` calls,
//! the multi-part worker-death regression, a peer that vanishes with
//! replies in flight, and client-side idle detection.

use secemb::GeneratorSpec;
use secemb_serve::protocol::{encode_generate, ServerMsg};
use secemb_serve::{Client, Engine, EngineConfig, RejectReason, Request, Server, TableConfig};
use secemb_tensor::Matrix;
use secemb_wire::frame::write_frame;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn small_engine(seed: u64) -> Arc<Engine> {
    Arc::new(Engine::start(EngineConfig::new(vec![
        TableConfig {
            spec: GeneratorSpec::Scan { rows: 128, dim: 8 },
            seed,
            queue_capacity: 4096,
            cost_override_ns: None,
        },
        TableConfig {
            spec: GeneratorSpec::Dhe { rows: 96, dim: 8 },
            seed,
            queue_capacity: 4096,
            cost_override_ns: None,
        },
    ])))
}

/// `Threads:` counts the whole process, and the tests of this binary run
/// side by side. The soak holds this exclusively between its two readings,
/// every other test holds it shared for as long as it runs, so no engine,
/// server or helper thread of a sibling starts or exits inside the soak's
/// window — the difference it asserts on is its own server's alone.
static THREADS_QUIET: RwLock<()> = RwLock::new(());

fn may_spawn_threads() -> RwLockReadGuard<'static, ()> {
    // A sibling that failed while holding the lock has nothing to protect.
    THREADS_QUIET.read().unwrap_or_else(|e| e.into_inner())
}

/// This process's thread count, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

const CONNS: usize = 4;
const REQUESTS: usize = 24;

/// The `(table, indices)` request `slot` of connection `conn` sends in
/// the pipelined mix.
fn mix_request(conn: usize, slot: usize) -> (usize, Vec<u64>) {
    let table = (conn + slot) % 2;
    let rows = if table == 0 { 128 } else { 96 };
    let indices = (0..4)
        .map(|k| ((conn * 31 + slot * 7 + k * 13) as u64) % rows)
        .collect();
    (table, indices)
}

/// The oracle: what `engine` answers in-process, no sockets involved.
fn oracle(engine: &Engine, table: usize, indices: Vec<u64>) -> Vec<u32> {
    let response = engine.call(Request::new(table, indices));
    bits(response.embeddings().expect("oracle embeddings"))
}

/// Runs the interleaved pipelined request mix against one server and
/// returns the per-request embedding bits keyed by `(conn, slot)`.
fn pipelined_mix(addr: std::net::SocketAddr) -> HashMap<(usize, usize), Vec<u32>> {
    let mut out = HashMap::new();
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    // Interleave sends round-robin across connections so responses from
    // different requests are in flight together on every socket.
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); CONNS];
    for slot in 0..REQUESTS {
        for (conn, client) in clients.iter_mut().enumerate() {
            let (table, indices) = mix_request(conn, slot);
            ids[conn].push(client.call_async(table, &indices, None).expect("send"));
        }
    }
    for (conn, client) in clients.iter_mut().enumerate() {
        for _ in 0..REQUESTS {
            let (id, msg) = client.drain_next().expect("drain");
            let slot = ids[conn].iter().position(|&i| i == id).expect("known id");
            match msg {
                ServerMsg::Embeddings(m, _) => {
                    out.insert((conn, slot), bits(&m));
                }
                other => panic!("conn {conn} slot {slot}: unexpected {other:?}"),
            }
        }
    }
    out
}

/// The soak criterion: ≥1024 concurrently open, mostly-idle connections
/// served by O(workers) threads — opening them adds no threads at all —
/// while interleaved pipelined traffic through the same reactor stays
/// bit-identical to in-process calls on an engine built from the same
/// seed.
#[test]
fn soak_1024_idle_connections_o1_threads_and_bit_identical_replies() {
    let server = Server::start(small_engine(42), "127.0.0.1:0").expect("bind");
    let reference = small_engine(42);

    let quiet = THREADS_QUIET.write().unwrap_or_else(|e| e.into_inner());
    let before = thread_count();
    let idle: Vec<TcpStream> = (0..1024)
        .map(|i| TcpStream::connect(server.addr()).unwrap_or_else(|e| panic!("conn {i}: {e}")))
        .collect();
    wait_for(|| server.connections() >= 1024, "1024 accepted connections");
    let after = thread_count();
    drop(quiet);
    assert!(
        after <= before + 2,
        "opening 1024 idle connections grew threads {before} -> {after}; \
         the reactor must serve them without per-connection threads"
    );

    // Pipelined traffic interleaved with the idle fleet still held open.
    let via_reactor = pipelined_mix(server.addr());
    let mut expected = HashMap::new();
    for conn in 0..CONNS {
        for slot in 0..REQUESTS {
            let (table, indices) = mix_request(conn, slot);
            expected.insert((conn, slot), oracle(&reference, table, indices));
        }
    }
    assert_eq!(
        via_reactor, expected,
        "served replies differ from the engine"
    );

    drop(idle);
    wait_for(
        || server.connections() == 0,
        "idle fleet reaped after close",
    );
    server.shutdown();
}

/// Regression for the multi-part merge panic: killing the worker that
/// owns one part of a `GenerateMulti` must answer the request with an
/// explicit `Rejected(Internal)` — not hang the client or poison the
/// connection — and the connection must keep serving afterwards.
#[test]
fn multi_part_with_dead_worker_rejects_instead_of_hanging() {
    let _threads = may_spawn_threads();
    let engine = small_engine(7);
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Poison table 1's worker: its next batch (our part) is answered
    // Internal and the worker dies.
    assert!(engine.inject_worker_panic(1));
    let parts = vec![(0usize, vec![1u64, 2, 3]), (1usize, vec![4u64, 5])];
    match client.generate_multi(&parts, None).expect("round trip") {
        ServerMsg::Rejected(RejectReason::Internal) => {}
        other => panic!("expected Rejected(Internal), got {other:?}"),
    }

    // The connection survived the partial failure.
    match client.generate(0, &[9, 10], None).expect("round trip") {
        ServerMsg::Embeddings(m, _) => assert_eq!(m.shape(), (2, 8)),
        other => panic!("healthy table failed: {other:?}"),
    }
    server.shutdown();
}

/// A peer that pipelines a burst and vanishes without reading a byte:
/// its requests still run, their replies are dropped with the dead
/// connection, and nothing else notices — a second connection keeps
/// getting oracle-exact answers, the connection count returns to the
/// survivor, and shutdown releases every handle on the engine.
#[test]
fn peer_vanishing_with_replies_in_flight_harms_nobody() {
    let _threads = may_spawn_threads();
    const BURST: u64 = 48;
    // A scan wide enough that the burst is still queued when the socket
    // goes away.
    let start_engine = || {
        Engine::start(EngineConfig::new(vec![TableConfig {
            spec: GeneratorSpec::Scan {
                rows: 4096,
                dim: 32,
            },
            seed: 11,
            queue_capacity: 4096,
            cost_override_ns: None,
        }]))
    };
    let engine = Arc::new(start_engine());
    let reference = start_engine();
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");

    let mut survivor = Client::connect(server.addr()).expect("connect survivor");
    let check_survivor = |survivor: &mut Client, round: u64| {
        let indices = vec![round, 4095 - round, 17];
        match survivor.generate(0, &indices, None).expect("round trip") {
            ServerMsg::Embeddings(m, _) => {
                assert_eq!(bits(&m), oracle(&reference, 0, indices), "round {round}");
            }
            other => panic!("survivor round {round}: {other:?}"),
        }
    };
    check_survivor(&mut survivor, 0);

    let mut doomed = TcpStream::connect(server.addr()).expect("connect doomed");
    for id in 0..BURST {
        let indices: Vec<u64> = (0..8).map(|k| (id * 8 + k) % 4096).collect();
        write_frame(&mut doomed, &encode_generate(id, 0, &indices, None)).expect("send");
    }
    drop(doomed);

    // Served concurrently with the orphaned burst and after it.
    for round in 1..=8 {
        check_survivor(&mut survivor, round);
    }
    // The dead connection is reaped, and every request the server had
    // read from it still runs to completion: nothing is left wedged in
    // the engine behind a reply that has nowhere to go.
    wait_for(|| server.connections() == 1, "dead connection reaped");
    wait_for(
        || {
            let stats = engine.stats().snapshot();
            stats.accepted == stats.completed
        },
        "orphaned burst to finish",
    );
    assert!(engine.stats().snapshot().completed > 9, "burst never ran");
    check_survivor(&mut survivor, 9);

    server.shutdown();
    assert_eq!(
        Arc::strong_count(&engine),
        1,
        "a connection or reply closure still holds the engine"
    );
}

/// `Client::connect_with` idle detection: a half-open peer (accepts,
/// never answers) surfaces as a timeout error instead of a receive that
/// blocks forever.
#[test]
fn client_idle_timeout_errors_on_silent_peer() {
    let _threads = may_spawn_threads();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.addr_of();
    // Hold accepted sockets open but never respond.
    let hold = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = listener.accept() {
            held.push(s);
        }
    });

    let mut client = Client::connect_with(addr, Some(Duration::from_millis(100))).expect("connect");
    let t0 = Instant::now();
    let err = client
        .generate(0, &[1, 2, 3], None)
        .expect_err("silent peer must error, not block");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "unexpected error kind: {err:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "timeout took {:?}", // far beyond the configured 100ms
        t0.elapsed()
    );
    drop(client);
    drop(hold); // detach; the listener thread dies with the process
}

/// Small helper: `TcpListener::local_addr` with the expect inline, so the
/// silent-peer test reads linearly.
trait AddrOf {
    fn addr_of(&self) -> std::net::SocketAddr;
}

impl AddrOf for TcpListener {
    fn addr_of(&self) -> std::net::SocketAddr {
        self.local_addr().expect("listener addr")
    }
}
