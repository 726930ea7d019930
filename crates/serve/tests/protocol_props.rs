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

#[path = "../../oram/tests/support/counting_alloc.rs"]
mod counting_alloc;

use proptest::prelude::*;
use secemb_serve::protocol::{
    decode_client_traced, decode_server_traced, encode_generate_multi, encode_generate_traced,
    encode_response_traced, encode_stats_request, encode_table_list, encode_traces,
    encode_traces_request, encode_update_traced, MAX_INDICES, MAX_PARTS,
};
use secemb_serve::{RejectReason, Response, StageBreakdown, TraceCtx};
use secemb_tensor::Matrix;
use secemb_wire::frame::{encode_frame_into, read_frame, FrameDecoder, FrameError};
use std::io::Cursor;

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
