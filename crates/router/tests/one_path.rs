//! One request path means one behaviour: a `Generate` is a one-part
//! `GenerateMulti`, and a request answers the same whether it reaches a
//! backend directly, through a router over one host, or through a
//! router that splits it over two — and hostile frames get the same
//! treatment at both front doors.

use proptest::prelude::*;
use secemb::GeneratorSpec;
use secemb_router::{Router, RouterConfig};
use secemb_serve::protocol::{
    decode_server_traced, encode_generate, encode_generate_multi, encode_generate_traced,
    encode_tables_request, ServerMsg, MAX_INDICES,
};
use secemb_serve::{
    Client, Engine, EngineConfig, RejectReason, Server, Stage, TableConfig, TraceCtx,
};
use secemb_wire::frame::{read_frame, write_frame};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const ROWS: [u64; 3] = [128, 96, 64];

/// Three tables of one width over two techniques.
fn start_backend() -> (Arc<Engine>, Server) {
    let specs = vec![
        GeneratorSpec::Scan {
            rows: ROWS[0],
            dim: 8,
        },
        GeneratorSpec::Dhe {
            rows: ROWS[1],
            dim: 8,
        },
        GeneratorSpec::Scan {
            rows: ROWS[2],
            dim: 8,
        },
    ];
    let engine = Arc::new(Engine::start(EngineConfig::new(
        specs.into_iter().map(TableConfig::new).collect(),
    )));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
    (engine, server)
}

fn start_router(backends: &[&Server]) -> Router {
    Router::start(RouterConfig {
        backends: backends
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("b{i}"), s.addr().to_string()))
            .collect(),
        ..RouterConfig::default()
    })
    .expect("router start")
}

/// Four identically seeded backends: one served directly, one behind a
/// one-host router, two behind a router that has to split.
struct Fleet {
    engines: Vec<Arc<Engine>>,
    _servers: Vec<Server>,
    routers: Vec<Router>,
    /// direct, routed over one host, routed over two hosts.
    doors: [SocketAddr; 3],
}

fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        let (engines, servers): (Vec<_>, Vec<_>) = (0..4).map(|_| start_backend()).unzip();
        let one_host = start_router(&[&servers[1]]);
        let two_hosts = start_router(&[&servers[2], &servers[3]]);
        assert!((0..2).all(|h| !two_hosts.placement().tables_of(h).is_empty()));
        Fleet {
            doors: [servers[0].addr(), one_host.addr(), two_hosts.addr()],
            engines,
            _servers: servers,
            routers: vec![one_host, two_hosts],
        }
    })
}

/// Sends one raw payload and returns the reply's raw payload.
fn exchange(door: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(door).expect("connect");
    write_frame(&mut stream, payload).expect("send");
    read_frame(&mut stream).expect("reply")
}

/// Everything a reply says except how long its stages took: id, echoed
/// trace id, shape, row bits, stage count on the wire, and the write
/// stage (stamped after encoding, so it must read 0).
#[derive(Debug, PartialEq)]
struct Said {
    id: u64,
    echo: Option<u64>,
    shape: (usize, usize),
    bits: Vec<u32>,
    stages_on_wire: u8,
    write_ns: u64,
}

fn said(reply: &[u8]) -> Said {
    let (id, msg, echo) = decode_server_traced(reply).expect("decodable reply");
    let ServerMsg::Embeddings(m, stages) = msg else {
        panic!("expected embeddings, got {msg:?}");
    };
    Said {
        id,
        echo,
        shape: m.shape(),
        bits: m.as_slice().iter().map(|v| v.to_bits()).collect(),
        // tag, id, rows, cols, then the stage count.
        stages_on_wire: reply[1 + 8 + 4 + 4],
        write_ns: stages.get(Stage::Write),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_request_answers_the_same_at_every_door_and_in_every_frame_kind(
        raw_parts in prop::collection::vec((0usize..3, prop::collection::vec(any::<u64>(), 1..5)), 1..7),
        trace in (0u8..3, any::<u64>(), any::<u64>()),
    ) {
        let parts: Vec<(usize, Vec<u64>)> = raw_parts
            .into_iter()
            .map(|(table, ix)| (table, ix.into_iter().map(|i| i % ROWS[table]).collect()))
            .collect();
        let trace = match trace {
            (0, ..) => None,
            (1, id, _) => Some(TraceCtx::new(id)),
            (_, id, parent) => Some(TraceCtx::with_parent(id, parent)),
        };
        let doors = fleet().doors;

        // Direct ≡ routed over one host ≡ routed over two hosts.
        let multi = encode_generate_multi(7, &parts, None, trace);
        let direct = said(&exchange(doors[0], &multi));
        prop_assert_eq!(direct.echo, trace.map(|t| t.trace_id));
        prop_assert_eq!(direct.shape.0, parts.iter().map(|(_, ix)| ix.len()).sum::<usize>());
        prop_assert_eq!((direct.stages_on_wire, direct.write_ns), (Stage::ALL.len() as u8, 0));
        for door in &doors[1..] {
            prop_assert_eq!(&said(&exchange(*door, &multi)), &direct);
        }

        // A one-part GenerateMulti ≡ the Generate it stands for, at
        // every door.
        let (table, indices) = &parts[0];
        let one_part = encode_generate_multi(7, &parts[..1], None, trace);
        let generate = encode_generate_traced(7, *table, indices, None, trace);
        for door in doors {
            let as_multi = said(&exchange(door, &one_part));
            prop_assert_eq!(&said(&exchange(door, &generate)), &as_multi);
            prop_assert_eq!(as_multi.echo, trace.map(|t| t.trace_id));
            prop_assert_eq!(as_multi.stages_on_wire, Stage::ALL.len() as u8);
        }
    }
}

/// What a front door owes a hostile frame.
#[derive(Debug)]
enum Owed {
    /// The frame cannot be parsed: that connection closes, unanswered.
    Close,
    /// Exactly one `Rejected` with this reason.
    Reject(RejectReason),
}

fn hostile_frames() -> Vec<(&'static str, Vec<u8>, Owed)> {
    let generate = encode_generate(5, 0, &[1, 2, 3], None);
    let with_tail = |n: usize| [generate.clone(), vec![0xAB; n]].concat();
    let mut oversized = generate.clone();
    oversized[21..25].copy_from_slice(&(MAX_INDICES as u32 + 1).to_le_bytes());
    let multi = |parts: &[(usize, Vec<u64>)]| encode_generate_multi(5, parts, None, None);
    vec![
        ("bad tag", vec![99, 5, 0, 0, 0, 0, 0, 0, 0], Owed::Close),
        ("truncated header", vec![1, 5, 0], Owed::Close),
        (
            "truncated indices",
            generate[..generate.len() - 4].to_vec(),
            Owed::Close,
        ),
        ("oversized count", oversized, Owed::Close),
        ("7-byte trace trailer", with_tail(7), Owed::Close),
        ("15-byte trace trailer", with_tail(15), Owed::Close),
        (
            "GenerateMulti of zero parts",
            multi(&[]),
            Owed::Reject(RejectReason::BadRequest),
        ),
        (
            "GenerateMulti with an empty part",
            multi(&[(0, vec![1]), (1, vec![])]),
            Owed::Reject(RejectReason::BadRequest),
        ),
        (
            "GenerateMulti with an unknown table",
            multi(&[(0, vec![1]), (9, vec![2])]),
            Owed::Reject(RejectReason::UnknownTable),
        ),
    ]
}

/// Hostile bytes at either front door cost the sender its own
/// connection or one `Rejected` — never a second reply, a panic, a
/// neighbour's connection, or (at the router) a count against the
/// backends for what was a client's garbage.
#[test]
fn hostile_frames_get_the_same_treatment_at_both_doors() {
    let fleet = fleet();
    let violations = |router: &Router| {
        let registry = router.registry();
        registry.counter("router_protocol_violations_total").get()
    };
    let before: Vec<_> = fleet.routers.iter().map(violations).collect();
    for door in fleet.doors {
        let mut neighbour = Client::connect(door).expect("second connection");
        for (what, frame, owed) in hostile_frames() {
            let mut stream = TcpStream::connect(door).expect("connect");
            // A door that owes a reply and never sends it fails the
            // read below instead of hanging the suite.
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .expect("timeout");
            write_frame(&mut stream, &frame).expect("send");
            // A follow-up on the same connection: whatever comes back
            // before its answer is what the hostile frame was owed. (A
            // door that already hung up may refuse the write.)
            let _ = write_frame(&mut stream, &encode_tables_request(6));
            // Replies come in completion order, so read until both are
            // in, then once more up to a fence request: a second answer
            // to the hostile frame would have to show up before it.
            let mut answers = Vec::new();
            let mut fences = 0;
            while let Ok(payload) = read_frame(&mut stream) {
                let (id, msg, echo) = decode_server_traced(&payload).expect("decodable");
                match id {
                    5 => answers.push((msg, echo)),
                    _ => fences += 1,
                }
                if fences == 1 && answers.len() == 1 {
                    write_frame(&mut stream, &encode_tables_request(8)).expect("fence");
                } else if fences == 2 {
                    break;
                }
            }
            match (owed, answers.as_slice()) {
                (Owed::Close, []) => assert_eq!(fences, 0, "{what} at {door}: still open"),
                (Owed::Reject(want), [(ServerMsg::Rejected(got), None)]) => {
                    assert_eq!(*got, want, "{what} at {door}");
                }
                (owed, got) => panic!("{what} at {door}: owed {owed:?}, got {got:?}"),
            }
            // A second connection keeps being served.
            match neighbour.generate(1, &[4, 5], None).expect("neighbour") {
                ServerMsg::Embeddings(m, _) => assert_eq!(m.shape(), (2, 8)),
                other => panic!("{what} at {door}: neighbour got {other:?}"),
            }
        }
    }
    for engine in &fleet.engines {
        assert!(
            engine.worker_health().iter().all(|alive| *alive),
            "a worker died"
        );
    }
    let after: Vec<_> = fleet.routers.iter().map(violations).collect();
    assert_eq!(before, after, "client-side garbage is not a backend fault");
    for router in &fleet.routers {
        assert!(router.backend_health().iter().all(|(_, up)| *up));
    }
}
