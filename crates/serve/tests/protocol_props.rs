//! Property tests over the wire protocol's trace trailers under
//! incremental framing: however a byte stream is split across `read`
//! calls, the nonblocking `FrameDecoder` must recover exactly the
//! frames the blocking reader sees, and the traced decoders must
//! recover exactly the trace context each frame was encoded with — for
//! every frame type, traced and untraced alike. This is the property
//! the reactor backend leans on: trace ids ride as *trailing* bytes, so
//! any off-by-one in frame reassembly would silently corrupt or drop
//! them rather than fail loudly.
//!
//! Beside it, the hostile counterpart: frames whose count fields promise
//! more than their bytes hold — requests, and the table list a backend
//! answers the router's handshake with — are refused before the decoder
//! reserves a byte for them (the counting allocator is local to this
//! test binary; the library crates forbid `unsafe`).
//!
//! Last, the pinned codec: every frame kind's bytes, encode/decode
//! allocation counts and decode outcomes over a seeded mutation corpus
//! are checked against `golden/protocol.txt` (regenerate it with
//! `SECEMB_BLESS_GOLDEN=1 cargo test -p secemb-serve --test
//! protocol_props golden`), and one hostile-input property covers every
//! frame kind: every truncation point, a `u32::MAX` over every count
//! field, `0xFF` over every byte (the `u8` stage count among them), every
//! tag byte and malformed length prefixes through `FrameDecoder` — no
//! panic, no decode taking more than 4 × its payload + 64 bytes of heap,
//! and nothing accepted with bytes left unread.

#[path = "../../oram/tests/support/counting_alloc.rs"]
mod counting_alloc;

use proptest::prelude::*;
use secemb_serve::protocol::{
    decode_client_traced, decode_server_traced, encode_generate_multi, encode_generate_traced,
    encode_response_traced, encode_stats_request, encode_table_list, encode_traces,
    encode_traces_request, encode_update_traced, MAX_INDICES, MAX_PARTS,
};
use secemb_serve::protocol::{
    encode_hello, encode_metrics, encode_metrics_request, encode_plan, encode_plan_ack,
    encode_plan_pull, encode_plan_push, encode_stats, encode_tables_request, ClientMsg, ServerMsg,
};
use secemb_serve::Stage;
use secemb_serve::{RejectReason, Response, StageBreakdown, TraceCtx};
use secemb_tensor::Matrix;
use secemb_wire::frame::{
    encode_frame_into, read_frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME,
};
use std::io::Cursor;
use std::time::Duration;

/// Which decoder applies to a frame, and the trace context it must
/// recover. Client frames carry a full [`TraceCtx`] trailer; server
/// frames echo at most the bare trace id.
#[derive(Debug, PartialEq)]
enum Expect {
    Client(Option<TraceCtx>),
    Server(Option<u64>),
}

/// Builds one encoded payload of the requested kind plus its expected
/// decode outcome.
fn build_frame(kind: u8, id: u64, trace: Option<TraceCtx>, n_idx: usize) -> (Vec<u8>, Expect) {
    let indices: Vec<u64> = (0..n_idx as u64).map(|i| i * 7 + 1).collect();
    let table = (id % 8) as usize;
    match kind % 8 {
        0 => (
            encode_generate_traced(id, table, &indices, None, trace),
            Expect::Client(trace),
        ),
        1 => {
            let deltas = Matrix::from_vec(n_idx, 2, vec![0.5; n_idx * 2]);
            (
                encode_update_traced(id, table, &indices, &deltas, None, trace),
                Expect::Client(trace),
            )
        }
        2 => (
            encode_generate_multi(id, &[(table, indices)], None, trace),
            Expect::Client(trace),
        ),
        3 => (encode_traces_request(id), Expect::Client(None)),
        4 => (encode_stats_request(id), Expect::Client(None)),
        5 => {
            let response = Response::Embeddings(
                Matrix::from_vec(1, 2, vec![1.0, 2.0]),
                StageBreakdown::default(),
            );
            let echo = trace.map(|t| t.trace_id);
            (
                encode_response_traced(id, &response, echo),
                Expect::Server(echo),
            )
        }
        6 => {
            let reason = RejectReason::ALL[(id % RejectReason::ALL.len() as u64) as usize];
            let echo = trace.map(|t| t.trace_id);
            (
                encode_response_traced(id, &Response::Rejected(reason), echo),
                Expect::Server(echo),
            )
        }
        _ => (
            encode_traces(id, "{\"trace_id\":1,\"span_id\":2}\n"),
            Expect::Server(None),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frames fed to the incremental decoder in arbitrary chunks match
    /// the blocking reader byte-for-byte, and every recovered frame
    /// yields back exactly the trace context it was encoded with.
    #[test]
    fn incremental_decode_recovers_trace_trailers_across_any_split(
        frames in prop::collection::vec((0u8..8, any::<u64>(), (0u8..3, any::<u64>(), any::<u64>()), 1usize..6), 1..9),
        splits in prop::collection::vec(1usize..97, 1..24),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for &(kind, id, (trace_kind, trace_id, parent), n_idx) in &frames {
            let trace = match trace_kind {
                0 => None,
                1 => Some(TraceCtx::new(trace_id)),
                _ => Some(TraceCtx::with_parent(trace_id, parent)),
            };
            let (payload, expect) = build_frame(kind, id, trace, n_idx);
            encode_frame_into(&mut stream, &payload);
            expected.push((payload, expect));
        }

        // The blocking reference: read_frame until a clean close.
        let mut cursor = Cursor::new(stream.clone());
        let mut blocking = Vec::new();
        loop {
            match read_frame(&mut cursor) {
                Ok(payload) => blocking.push(payload),
                Err(FrameError::Closed) => break,
                Err(e) => return Err(TestCaseError::fail(format!("blocking read: {e}"))),
            }
        }

        // The incremental path, split wherever the case says.
        let mut decoder = FrameDecoder::new();
        let mut incremental = Vec::new();
        let mut pos = 0;
        let mut turn = 0;
        while pos < stream.len() {
            let n = splits[turn % splits.len()].min(stream.len() - pos);
            decoder.extend(&stream[pos..pos + n]);
            pos += n;
            turn += 1;
            while let Some(frame) = decoder
                .next_frame()
                .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?
            {
                incremental.push(frame);
            }
        }
        prop_assert!(decoder.is_clean(), "stream must end on a frame boundary");
        prop_assert_eq!(&incremental, &blocking);
        prop_assert_eq!(incremental.len(), expected.len());

        for (frame, (payload, expect)) in incremental.iter().zip(&expected) {
            prop_assert_eq!(frame, payload);
            match expect {
                Expect::Client(trace) => {
                    let (rid, _msg, got) = decode_client_traced(frame)
                        .map_err(|e| TestCaseError::fail(format!("client decode: {e}")))?;
                    prop_assert_eq!(got, *trace, "client trace trailer must round-trip");
                    prop_assert!(frames.iter().any(|f| f.1 == rid));
                }
                Expect::Server(echo) => {
                    let (rid, _msg, got) = decode_server_traced(frame)
                        .map_err(|e| TestCaseError::fail(format!("server decode: {e}")))?;
                    prop_assert_eq!(got, *echo, "server trace echo must round-trip");
                    prop_assert!(frames.iter().any(|f| f.1 == rid));
                }
            }
        }
    }
}

/// Byte offset of the `u32` index count in `Generate` and `Update`
/// frames (after tag, id, table, deadline) and of the part count in a
/// `GenerateMulti` frame (after tag, id, deadline).
const COUNT_AT: usize = 1 + 8 + 4 + 8;
const PART_COUNT_AT: usize = 1 + 8 + 8;

fn with_u32(mut frame: Vec<u8>, at: usize, value: usize) -> Vec<u8> {
    frame[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes());
    frame
}

/// Small frames whose count fields claim the protocol's maxima with
/// nothing behind them: one per frame kind that carries an index list,
/// plus the part-list forms. The number is how many allocations the
/// decoder may make before refusing: none, except the part list of the
/// one part that really is there (sized by the bytes present).
fn overpromising_frames() -> Vec<(&'static str, u64, Vec<u8>)> {
    let empty = Matrix::from_vec(0, 2, Vec::new());
    let multi = |parts: &[(usize, Vec<u64>)]| encode_generate_multi(1, parts, None, None);
    vec![
        (
            "Generate: MAX_INDICES, empty tail",
            0,
            with_u32(
                encode_generate_traced(1, 0, &[], None, None),
                COUNT_AT,
                MAX_INDICES,
            ),
        ),
        (
            "Update: MAX_INDICES, empty tail",
            0,
            with_u32(
                encode_update_traced(1, 0, &[], &empty, None, None),
                COUNT_AT,
                MAX_INDICES,
            ),
        ),
        (
            "GenerateMulti: one part of MAX_INDICES, empty tail",
            1,
            with_u32(multi(&[(0, vec![])]), PART_COUNT_AT + 4 + 4, MAX_INDICES),
        ),
        (
            "GenerateMulti: MAX_PARTS parts, none behind",
            0,
            with_u32(multi(&[]), PART_COUNT_AT, MAX_PARTS),
        ),
        (
            "count past MAX_INDICES",
            0,
            with_u32(
                encode_generate_traced(1, 0, &[7], None, None),
                COUNT_AT,
                MAX_INDICES + 1,
            ),
        ),
        (
            "part count past MAX_PARTS",
            0,
            with_u32(multi(&[]), PART_COUNT_AT, MAX_PARTS + 1),
        ),
    ]
}

#[test]
fn overpromising_counts_are_refused_before_anything_is_reserved() {
    for (what, allowed, frame) in overpromising_frames() {
        assert!(frame.len() < 64, "{what}: the attack is a small frame");
        let mut outcome = None;
        let allocs =
            counting_alloc::allocations_in(|| outcome = Some(decode_client_traced(&frame)));
        assert!(
            outcome.expect("decoded").is_err(),
            "{what}: must not decode"
        );
        assert!(
            allocs <= allowed,
            "{what}: refused only after reserving memory"
        );
    }
}

/// A 13-byte `Tables` reply claiming the decoder's 65 536-entry cap: a
/// compromised backend's handshake answer. Reserving on its say-so would
/// cost the router ≈ 3 MiB.
#[test]
fn overpromising_table_list_is_refused_before_anything_is_reserved() {
    let frame = with_u32(encode_table_list(1, &[]), 1 + 8, 1 << 16);
    assert_eq!(frame.len(), 13);
    let mut outcome = None;
    let allocs = counting_alloc::allocations_in(|| outcome = Some(decode_server_traced(&frame)));
    assert!(outcome.expect("decoded").is_err(), "must not decode");
    assert_eq!(allocs, 0, "refused only after reserving memory");
    // One honest entry still decodes.
    let one = encode_table_list(1, &[(64, 8, 1.0, String::new())]);
    assert!(decode_server_traced(&one).is_ok());
}

#[test]
fn part_counts_share_one_index_budget() {
    // Every part is well-formed and holds its indices; together they
    // carry one index more than a request may.
    let half = vec![0u64; MAX_INDICES / 2];
    let parts = [(0, half.clone()), (1, half), (2, vec![0])];
    let frame = encode_generate_multi(1, &parts, None, None);
    assert!(decode_client_traced(&frame).is_err());
    // One fewer is a legal request.
    let parts = [parts[0].clone(), parts[1].clone()];
    let frame = encode_generate_multi(1, &parts, None, None);
    assert!(decode_client_traced(&frame).is_ok());
}

/// Which decoder a frame belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Side {
    Client,
    Server,
}

type Encoder = Box<dyn Fn() -> Vec<u8>>;

/// Every frame kind — 10 client, 8 server — untraced and with each
/// trailer the kind may carry: `(name, side, encoder)`. Each encoder
/// captures what it encodes, so calling it does nothing but encode.
fn catalogue() -> Vec<(String, Side, Encoder)> {
    let traces = [
        ("", None),
        ("+trace", Some(TraceCtx::new(0xFEED))),
        ("+parent", Some(TraceCtx::with_parent(0xFEED, 0xBEEF))),
    ];
    let ms = |n| Some(Duration::from_millis(n));
    let mut frames: Vec<(String, Side, Encoder)> = Vec::new();
    for (suffix, trace) in traces {
        let deltas = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 1.0);
        let parts = vec![(0usize, vec![1u64, 2]), (3, vec![]), (1, vec![9])];
        frames.extend([
            (
                format!("generate{suffix}"),
                Side::Client,
                Box::new(move || encode_generate_traced(1, 2, &[3, 0, u64::MAX], ms(20), trace))
                    as Encoder,
            ),
            (
                format!("update{suffix}"),
                Side::Client,
                Box::new(move || encode_update_traced(4, 1, &[5, 6], &deltas, ms(8), trace)),
            ),
            (
                format!("generate_multi{suffix}"),
                Side::Client,
                Box::new(move || encode_generate_multi(7, &parts, ms(5), trace)),
            ),
        ]);
    }
    for (suffix, echo) in [("", None), ("+trace", Some(0xFEED))] {
        let mut stages = StageBreakdown::default();
        stages.set(Stage::Queue, 1_234);
        stages.set(Stage::Generate, u64::MAX);
        let rows = Response::Embeddings(Matrix::from_fn(2, 2, |r, c| (r + c) as f32 - 0.5), stages);
        let rejected = Response::Rejected(RejectReason::QueueFull);
        frames.extend([
            (
                format!("embeddings{suffix}"),
                Side::Server,
                Box::new(move || encode_response_traced(9, &rows, echo)) as Encoder,
            ),
            (
                format!("rejected{suffix}"),
                Side::Server,
                Box::new(move || encode_response_traced(11, &rejected, echo)),
            ),
        ]);
    }
    let tables = vec![
        (4096, 64, 1234.5, "DHE".to_string()),
        (512, 16, 88.5, String::new()),
    ];
    let fixed: [(&str, Side, Encoder); 15] = [
        (
            "tables",
            Side::Client,
            Box::new(|| encode_tables_request(4)),
        ),
        ("stats", Side::Client, Box::new(|| encode_stats_request(5))),
        (
            "metrics",
            Side::Client,
            Box::new(|| encode_metrics_request(6)),
        ),
        (
            "traces",
            Side::Client,
            Box::new(|| encode_traces_request(40)),
        ),
        ("plan_pull", Side::Client, Box::new(|| encode_plan_pull(13))),
        (
            "plan_push",
            Side::Client,
            Box::new(|| encode_plan_push(14, "{\"version\":3}")),
        ),
        (
            "hello",
            Side::Client,
            Box::new(|| encode_hello(15, "router")),
        ),
        (
            "tables_resp",
            Side::Server,
            Box::new(move || encode_table_list(3, &tables)),
        ),
        (
            "stats_resp",
            Side::Server,
            Box::new(|| encode_stats(8, "{\"a\":1}")),
        ),
        (
            "metrics_resp",
            Side::Server,
            Box::new(|| encode_metrics(12, "# TYPE secemb_requests_completed_total counter\n")),
        ),
        (
            "plan",
            Side::Server,
            Box::new(|| encode_plan(16, Some("{\"version\":3}"))),
        ),
        (
            "plan_none",
            Side::Server,
            Box::new(|| encode_plan(17, None)),
        ),
        (
            "plan_ack",
            Side::Server,
            Box::new(|| encode_plan_ack(18, true, 12, "")),
        ),
        (
            "plan_ack_err",
            Side::Server,
            Box::new(|| encode_plan_ack(19, false, 0, "bad table count")),
        ),
        (
            "traces_resp",
            Side::Server,
            Box::new(|| encode_traces(41, "{\"trace_id\":1,\"span_id\":2}\n")),
        ),
    ];
    frames.extend(fixed.map(|(name, side, encode)| (name.to_string(), side, encode)));
    frames
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Decodes `frame` as `side` and names what came out by hashing its
/// re-encoding through the public encoders; `None` is `Err`.
fn outcome(side: Side, frame: &[u8]) -> Option<u64> {
    let bytes = match side {
        Side::Client => {
            let (id, msg, trace) = decode_client_traced(frame).ok()?;
            match msg {
                ClientMsg::Generate {
                    table,
                    indices,
                    deadline,
                } => encode_generate_traced(id, table, &indices, deadline, trace),
                ClientMsg::Update {
                    table,
                    indices,
                    deltas,
                    deadline,
                } => encode_update_traced(id, table, &indices, &deltas, deadline, trace),
                ClientMsg::GenerateMulti { parts, deadline } => {
                    encode_generate_multi(id, &parts, deadline, trace)
                }
                ClientMsg::PlanPull => encode_plan_pull(id),
                ClientMsg::PlanPush(json) => encode_plan_push(id, &json),
                ClientMsg::Hello(role) => encode_hello(id, &role),
                ClientMsg::Tables => encode_tables_request(id),
                ClientMsg::Stats => encode_stats_request(id),
                ClientMsg::Metrics => encode_metrics_request(id),
                ClientMsg::Traces => encode_traces_request(id),
            }
        }
        Side::Server => {
            let (id, msg, echo) = decode_server_traced(frame).ok()?;
            match msg {
                ServerMsg::Embeddings(m, stages) => {
                    encode_response_traced(id, &Response::Embeddings(m, stages), echo)
                }
                ServerMsg::Rejected(reason) => {
                    encode_response_traced(id, &Response::Rejected(reason), echo)
                }
                ServerMsg::Tables(tables) => encode_table_list(id, &tables),
                ServerMsg::Stats(json) => encode_stats(id, &json),
                ServerMsg::Metrics(text) => encode_metrics(id, &text),
                ServerMsg::Plan(json) => encode_plan(id, json.as_deref()),
                ServerMsg::PlanAck { ok, epoch, error } => encode_plan_ack(id, ok, epoch, &error),
                ServerMsg::Traces(jsonl) => encode_traces(id, &jsonl),
            }
        }
    };
    Some(fnv(&bytes))
}

/// Whether an accepted frame decodes to the same value with bytes cut
/// off its end: bytes the decoder never looked at.
fn leaves_bytes_unread(side: Side, frame: &[u8], value: u64) -> bool {
    (0..frame.len()).any(|cut| outcome(side, &frame[..cut]) == Some(value))
}

/// A seeded SplitMix64 stream: the corpus must not depend on any
/// library's RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const MUTATIONS: usize = 48;

/// The seeded mutation corpus of one frame: overwritten bytes, cuts,
/// appended tails, 32-bit windows set to `u32::MAX`/0/1/small, dropped
/// bytes.
fn mutations(frame: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SplitMix(seed);
    (0..MUTATIONS)
        .map(|_| {
            let mut f = frame.to_vec();
            match rng.below(5) {
                0 => {
                    let at = rng.below(f.len());
                    f[at] = rng.next() as u8;
                }
                1 => f.truncate(rng.below(f.len())),
                2 => {
                    let n = 1 + rng.below(24);
                    f.extend((0..n).map(|_| rng.next() as u8));
                }
                3 => {
                    let at = rng.below(f.len() - 3);
                    let v = [u32::MAX, 0, 1, rng.next() as u32 % 256][rng.below(4)];
                    f[at..at + 4].copy_from_slice(&v.to_le_bytes());
                }
                _ => {
                    f.remove(rng.below(f.len()));
                }
            }
            f
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One golden line: the frame's bytes, its encode and decode allocation
/// counts, and one outcome per corpus case — `e` (`Err`), `o<hash>`
/// (decoded to this value) or `u<hash>` (decoded to this value with
/// bytes left unread).
struct Golden {
    name: String,
    bytes: String,
    encode_allocs: u64,
    decode_allocs: u64,
    outcomes: Vec<String>,
}

fn record(name: &str, side: Side, encode: &Encoder) -> Golden {
    let mut frame = Vec::new();
    let encode_allocs = counting_alloc::allocations_in(|| frame = encode());
    let decode_allocs = counting_alloc::allocations_in(|| match side {
        Side::Client => drop(decode_client_traced(&frame)),
        Side::Server => drop(decode_server_traced(&frame)),
    });
    let outcomes = mutations(&frame, fnv(name.as_bytes()))
        .iter()
        .map(|case| match outcome(side, case) {
            None => "e".to_string(),
            Some(v) if leaves_bytes_unread(side, case, v) => format!("u{v:016x}"),
            Some(v) => format!("o{v:016x}"),
        })
        .collect();
    Golden {
        name: name.to_string(),
        bytes: hex(&frame),
        encode_allocs,
        decode_allocs,
        outcomes,
    }
}

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/protocol.txt");

/// The recorded lines, in catalogue order; with `SECEMB_BLESS_GOLDEN`
/// set, records the current codec first (once per test binary).
fn golden() -> Vec<Golden> {
    static BLESSED: std::sync::OnceLock<()> = std::sync::OnceLock::new();
    BLESSED.get_or_init(|| {
        if std::env::var_os("SECEMB_BLESS_GOLDEN").is_none() {
            return;
        }
        let mut out = String::from("# name bytes encode_allocs decode_allocs outcomes\n");
        for (name, side, encode) in catalogue() {
            let g = record(&name, side, &encode);
            out += &format!(
                "{} {} {} {} {}\n",
                g.name,
                g.bytes,
                g.encode_allocs,
                g.decode_allocs,
                g.outcomes.join(",")
            );
        }
        std::fs::write(GOLDEN, out).expect("write golden file");
    });
    let text = std::fs::read_to_string(GOLDEN).expect("golden file");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            Golden {
                name: f[0].to_string(),
                bytes: f[1].to_string(),
                encode_allocs: f[2].parse().expect("count"),
                decode_allocs: f[3].parse().expect("count"),
                outcomes: f[4].split(',').map(str::to_string).collect(),
            }
        })
        .collect()
}

#[test]
fn golden_frames_keep_their_bytes_and_allocation_counts() {
    let golden = golden();
    let catalogue = catalogue();
    assert_eq!(golden.len(), catalogue.len(), "one golden line per frame");
    for ((name, side, encode), want) in catalogue.iter().zip(&golden) {
        assert_eq!(*name, want.name);
        let got = record(name, *side, encode);
        assert_eq!(got.bytes, want.bytes, "{name}: bytes moved");
        assert!(
            got.encode_allocs <= want.encode_allocs,
            "{name}: encode allocates {} > {}",
            got.encode_allocs,
            want.encode_allocs
        );
        assert!(
            got.decode_allocs <= want.decode_allocs,
            "{name}: decode allocates {} > {}",
            got.decode_allocs,
            want.decode_allocs
        );
    }
}

/// Runs `check(name, case, recorded, decoded)` over every corpus case.
fn over_corpus(mut check: impl FnMut(&str, &[u8], &str, Option<u64>)) {
    for ((name, side, encode), want) in catalogue().iter().zip(golden()) {
        let frame = encode();
        for (case, recorded) in mutations(&frame, fnv(name.as_bytes()))
            .iter()
            .zip(&want.outcomes)
        {
            check(name, case, recorded, outcome(*side, case));
        }
    }
}

#[test]
fn golden_mutation_corpus_decodes_as_recorded() {
    over_corpus(
        |name, case, recorded, decoded| match recorded.as_bytes()[0] {
            b'e' => assert_eq!(decoded, None, "{name}: {} now decodes", hex(case)),
            b'o' => assert_eq!(
                decoded.map(|v| format!("o{v:016x}")).as_deref(),
                Some(recorded),
                "{name}: {} decodes differently",
                hex(case)
            ),
            _ => {}
        },
    );
}

/// The one deliberate change against the recording: a frame whose
/// decoder stopped short of its end — a trailer that is not one of the
/// kind's lengths, bytes after a control frame's last field — is now
/// refused.
#[test]
fn golden_frames_once_accepted_with_bytes_unread_are_refused() {
    let mut refused = 0;
    over_corpus(|name, case, recorded, decoded| {
        if recorded.starts_with('u') {
            assert_eq!(decoded, None, "{name}: {} still accepted", hex(case));
            refused += 1;
        }
    });
    assert!(refused > 0, "the corpus holds no such frame");
}

/// Decodes `case` with both decoders under the byte counter: nothing
/// panics, neither takes more than 4 × the payload + 64 bytes of heap, and
/// whatever one accepts left no byte unread.
fn survives(what: &str, case: &[u8]) {
    for side in [Side::Client, Side::Server] {
        let bound = 4 * case.len() as u64 + 64;
        let (_, bytes) = counting_alloc::allocated_in(|| match side {
            Side::Client => drop(decode_client_traced(case)),
            Side::Server => drop(decode_server_traced(case)),
        });
        assert!(
            bytes <= bound,
            "{what} as {side:?}: {bytes} B of heap for {} B ({})",
            case.len(),
            hex(case)
        );
        if let Some(value) = outcome(side, case) {
            assert!(
                !leaves_bytes_unread(side, case, value),
                "{what} as {side:?}: accepted with bytes unread ({})",
                hex(case)
            );
        }
    }
}

#[test]
fn hostile_bytes_in_every_frame_kind_are_refused_cheaply() {
    for (name, _, encode) in catalogue() {
        let frame = encode();
        let with = |at: usize, bytes: &[u8]| {
            let mut f = frame.clone();
            f[at..at + bytes.len()].copy_from_slice(bytes);
            f
        };
        for cut in 0..frame.len() {
            survives(&format!("{name} cut at {cut}"), &frame[..cut]);
        }
        // Every count field sits under some 32-bit window.
        for at in 0..=frame.len() - 4 {
            survives(&format!("{name} u32::MAX at {at}"), &with(at, &[0xFF; 4]));
        }
        for at in 0..frame.len() {
            survives(&format!("{name} 0xFF at {at}"), &with(at, &[0xFF]));
        }
        for tag in 0..=u8::MAX {
            survives(&format!("{name} tagged {tag}"), &with(0, &[tag]));
        }
        // Malformed length prefixes: whatever the frame decoder yields
        // must survive the decoders, and a prefix past the cap must fail
        // before anything is reserved for it.
        for prefix in [
            0,
            frame.len() - 1,
            frame.len() + 1,
            DEFAULT_MAX_FRAME,
            DEFAULT_MAX_FRAME + 1,
            u32::MAX as usize,
        ] {
            let mut stream = (prefix as u32).to_le_bytes().to_vec();
            stream.extend_from_slice(&frame);
            let mut decoder = FrameDecoder::new();
            decoder.extend(&stream);
            loop {
                let mut next = None;
                let (_, bytes) = counting_alloc::allocated_in(|| next = Some(decoder.next_frame()));
                assert!(
                    bytes <= stream.len() as u64,
                    "{name} prefix {prefix}: {bytes} B"
                );
                match next.expect("ran") {
                    Ok(Some(payload)) => survives(&format!("{name} prefix {prefix}"), &payload),
                    Ok(None) => break,
                    Err(FrameError::TooLarge { .. }) => {
                        assert!(prefix > DEFAULT_MAX_FRAME, "{name} prefix {prefix}");
                        break;
                    }
                    Err(e) => panic!("{name} prefix {prefix}: {e}"),
                }
            }
        }
    }
}
