//! One slow backend never stalls the router. A backend that stops
//! answering, or stops reading, costs the lookups bound for other
//! backends nothing: every backend link lives on the reactor, and no
//! path on the reactor thread waits on a backend.

use secemb::GeneratorSpec;
use secemb_router::{Router, RouterConfig};
use secemb_serve::protocol::{
    decode_client, decode_server, encode_generate, encode_stats, encode_table_list, ClientMsg,
    ServerMsg,
};
use secemb_serve::{Client, Engine, EngineConfig, RejectReason, Server, TableConfig};
use secemb_wire::frame::{read_frame, write_frame};
use secemb_wire::json::{self, Value};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const ROWS: [u64; 2] = [64, 96];

/// How long a lookup bound for the live backend may take.
const PROMPT: Duration = Duration::from_millis(50);

fn start_backend() -> (Arc<Engine>, Server) {
    let engine = Arc::new(Engine::start(EngineConfig::new(
        ROWS.iter()
            .map(|&rows| TableConfig::new(GeneratorSpec::Scan { rows, dim: 8 }))
            .collect(),
    )));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
    (engine, server)
}

/// A backend that handshakes like a replica of [`ROWS`], then hands its
/// end of the link to the test, which decides whether it ever reads.
fn scripted_backend() -> (SocketAddr, mpsc::Receiver<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let (id, msg) = decode_client(&read_frame(&mut stream).expect("hello")).expect("hello");
        assert!(matches!(msg, ClientMsg::Hello(_)));
        let inventory: Vec<_> = ROWS.iter().map(|&r| (r, 8, 100.0, "scan".into())).collect();
        write_frame(&mut stream, &encode_table_list(id, &inventory)).expect("inventory");
        let _ = tx.send(stream);
    });
    (addr, rx)
}

/// A router over the live `b0` and the scripted `b1`, which it declares
/// dead after `idle` of silence with requests in flight and does not
/// redial within the test.
fn router_over(b0: SocketAddr, b1: SocketAddr, idle: Option<Duration>) -> Router {
    router_gossiping(b0, b1, idle, None)
}

/// [`router_over`], gossiping every `gossip_interval`.
fn router_gossiping(
    b0: SocketAddr,
    b1: SocketAddr,
    idle: Option<Duration>,
    gossip_interval: Option<Duration>,
) -> Router {
    Router::start(RouterConfig {
        backends: vec![("b0".into(), b0.to_string()), ("b1".into(), b1.to_string())],
        backend_idle_timeout: idle,
        gossip_interval,
        health_probe: None,
        reconnect_base: Duration::from_secs(60),
        ..RouterConfig::default()
    })
    .expect("router start")
}

/// The table placement assigns to `host`.
fn table_on(router: &Router, host: &str) -> usize {
    (0..ROWS.len())
        .find(|&t| router.placement().host_of(t) == Some(host))
        .expect("every host holds a table")
}

/// One lookup on `table`, which must be served within [`PROMPT`].
fn prompt_lookup(client: &mut Client, table: usize) {
    let t0 = Instant::now();
    let reply = client.generate(table, &[1, 2], None).expect("lookup");
    let took = t0.elapsed();
    assert!(matches!(reply, ServerMsg::Embeddings(..)), "{reply:?}");
    assert!(took < PROMPT, "a lookup on the live backend took {took:?}");
}

/// `b1` handshakes, then reads every frame and answers none. A `Stats`
/// scrape in flight on it leaves lookups on `b0` prompt, and the scrape
/// is answered — with an error entry for `b1` — once the idle timeout
/// declares `b1`'s link dead.
#[test]
fn a_silent_backends_scrape_does_not_stall_lookups() {
    let (_engine, b0) = start_backend();
    let (b1_addr, b1_link) = scripted_backend();
    let router = router_over(b0.addr(), b1_addr, Some(Duration::from_millis(200)));
    let b1 = b1_link.recv().expect("b1 handshook");
    let mute = std::thread::spawn(move || {
        let _ = (&b1).read_to_end(&mut Vec::new());
    });
    let live = table_on(&router, "b0");
    let addr = router.addr();

    let scrape = std::thread::spawn(move || {
        let t0 = Instant::now();
        let stats = Client::connect(addr)
            .expect("connect")
            .stats_json()
            .expect("stats");
        (stats, t0.elapsed())
    });
    let mut client = Client::connect_with(addr, Some(Duration::from_secs(5))).expect("connect");
    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(120) {
        prompt_lookup(&mut client, live);
    }
    assert!(!scrape.is_finished(), "the scrape answered before b1 died");

    let (stats, took) = scrape.join().expect("scrape");
    assert!(
        took >= Duration::from_millis(190),
        "answered after {took:?}"
    );
    let stats = json::parse(&stats).expect("valid JSON");
    let backends = stats
        .get("backends")
        .and_then(Value::as_arr)
        .expect("a backends array");
    let entry = |name: &str| {
        backends
            .iter()
            .find(|b| b.get("name").and_then(Value::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no entry for {name}: {backends:?}"))
    };
    assert!(entry("b0").get("stats").is_some(), "{backends:?}");
    assert!(entry("b1").get("error").is_some(), "{backends:?}");
    prompt_lookup(&mut client, live);
    drop(router);
    mute.join().expect("b1 sees the link close");
}

/// `b1` handshakes, then never reads its socket, and is never declared
/// dead. Lookups for its table flood the link until its write queue is
/// full; from then on `call` fails fast, so they fail over to `b0` (which
/// turns them away at admission: their deadline is 1 ns) instead of
/// blocking the reactor. Once the flood has drained, lookups on either
/// table are answered promptly by `b0` while `b1`'s queue stays full.
#[test]
fn a_backend_that_stops_reading_never_blocks_the_reactor() {
    let (_engine, b0) = start_backend();
    let (b1_addr, b1_link) = scripted_backend();
    let router = router_over(b0.addr(), b1_addr, None);
    // Held, never read, and dropped before the router: should the
    // reactor block on it, closing it is what unblocks the teardown.
    let _b1 = b1_link.recv().expect("b1 handshook");
    let (live, deaf) = (table_on(&router, "b0"), table_on(&router, "b1"));

    // 128 KiB frames; the ones that fail over come back turned away.
    let flood = TcpStream::connect(router.addr()).expect("connect");
    let turned_away = Arc::new(AtomicU64::new(0));
    {
        let (mut replies, turned_away) =
            (flood.try_clone().expect("clone"), Arc::clone(&turned_away));
        std::thread::spawn(move || {
            while let Ok(payload) = read_frame(&mut replies) {
                if matches!(
                    decode_server(&payload),
                    Ok((_, ServerMsg::Rejected(RejectReason::DeadlineUnmeetable)))
                ) {
                    turned_away.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    {
        let (mut flood, turned_away) = (flood, Arc::clone(&turned_away));
        let indices: Vec<u64> = (0..16_384).map(|i| i % ROWS[deaf]).collect();
        std::thread::spawn(move || {
            let mut id = 0;
            while turned_away.load(Ordering::Relaxed) < 8 && id < 1024 {
                id += 1;
                let frame = encode_generate(id, deaf, &indices, Some(Duration::from_nanos(1)));
                if write_frame(&mut flood, &frame).is_err() {
                    return;
                }
            }
        });
    }

    // While the flood fills b1's queue, b0's lookups are still served; a
    // blocked reactor would time this client out.
    let mut client =
        Client::connect_with(router.addr(), Some(Duration::from_secs(5))).expect("connect");
    let t0 = Instant::now();
    while turned_away.load(Ordering::Relaxed) < 8 {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "no flood lookup failed over"
        );
        let reply = client.generate(live, &[1, 2], None).expect("lookup");
        assert!(matches!(reply, ServerMsg::Embeddings(..)), "{reply:?}");
    }
    // The flood's frames already on the wire drain through the same
    // failover; then only the full queue is left.
    let mut seen = u64::MAX;
    while seen != turned_away.load(Ordering::Relaxed) {
        seen = turned_away.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(100));
    }
    for _ in 0..20 {
        prompt_lookup(&mut client, live);
        prompt_lookup(&mut client, deaf);
    }
    assert!(router.backends()[1].is_up(), "b1 was never declared dead");
}

/// With gossip on, the maintenance loop's own plan pull is in flight on a
/// silent `b1` from the first round. The loop waits for that round, yet
/// still declares `b1` dead at its idle deadline — not when the pull's
/// 30 s deadline passes — so a lookup routed to `b1` is orphan-rejected
/// about one idle timeout after the round began.
#[test]
fn a_silent_backend_is_declared_dead_on_time_while_gossip_waits_on_it() {
    let idle = Duration::from_millis(200);
    let (_engine, b0) = start_backend();
    let (b1_addr, b1_link) = scripted_backend();
    let t0 = Instant::now();
    let router = router_gossiping(
        b0.addr(),
        b1_addr,
        Some(idle),
        Some(Duration::from_millis(50)),
    );
    let b1 = b1_link.recv().expect("b1 handshook");
    let mute = std::thread::spawn(move || {
        let _ = (&b1).read_to_end(&mut Vec::new());
    });
    let mut client =
        Client::connect_with(router.addr(), Some(Duration::from_secs(10))).expect("connect");
    let reply = client
        .generate(table_on(&router, "b1"), &[1, 2], None)
        .expect("answered");
    let took = t0.elapsed();
    assert_eq!(reply, ServerMsg::Rejected(RejectReason::Internal));
    assert!(
        took < idle * 3,
        "a lookup waited {took:?} on a silent backend"
    );
    assert!(!router.backends()[1].is_up(), "b1 was not declared dead");
    prompt_lookup(&mut client, table_on(&router, "b0"));
    drop(router);
    mute.join().expect("b1 sees the link close");
}

/// The idle clock counts bytes, not frames: `b1` answers a scrape one
/// byte every 25 ms — its reply takes several idle timeouts to arrive —
/// and keeps its link, and the scrape carries its stats.
#[test]
fn a_reply_that_streams_in_slowly_keeps_its_link() {
    let idle = Duration::from_millis(150);
    let (_engine, b0) = start_backend();
    let (b1_addr, b1_link) = scripted_backend();
    let router = router_over(b0.addr(), b1_addr, Some(idle));
    let mut b1 = b1_link.recv().expect("b1 handshook");
    let dribble = std::thread::spawn(move || {
        let (id, msg) = decode_client(&read_frame(&mut b1).expect("scrape")).expect("frame");
        assert_eq!(msg, ClientMsg::Stats);
        let mut framed = Vec::new();
        let json = format!("{{\"pad\":\"{}\"}}", "x".repeat(24));
        write_frame(&mut framed, &encode_stats(id, &json)).expect("frame");
        for byte in framed {
            std::io::Write::write_all(&mut b1, &[byte]).expect("byte");
            std::thread::sleep(Duration::from_millis(25));
        }
        b1
    });
    let t0 = Instant::now();
    let stats = Client::connect(router.addr())
        .expect("connect")
        .stats_json()
        .expect("stats");
    assert!(t0.elapsed() > idle * 4, "the reply was not slow");
    let stats = json::parse(&stats).expect("valid JSON");
    let b1_entry = stats
        .get("backends")
        .and_then(Value::as_arr)
        .and_then(|backends| backends.get(1).cloned())
        .expect("an entry for b1");
    assert!(b1_entry.get("stats").is_some(), "{b1_entry:?}");
    assert!(
        router.backends()[1].is_up(),
        "b1 was declared dead mid-reply"
    );
    drop(dribble.join().expect("b1 answered"));
}
