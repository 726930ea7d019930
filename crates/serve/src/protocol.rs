//! The binary serving protocol.
//!
//! Every message travels as one length-prefixed frame
//! ([`secemb_wire::frame`]); the payload starts with a one-byte tag
//! followed by a `u64` request id. The id is chosen by the client and
//! echoed verbatim in the response, which is what makes *pipelining*
//! possible: a client may have many requests in flight on one
//! connection, and responses may come back out of order (the server's
//! shards finish independently) — the id is the only correlation.
//!
//! Client → server:
//!
//! | tag | payload |
//! |---|---|
//! | 1 `Generate` | `u64` request id, `u32` table, `u64` deadline ns (0 = none), `u32` count, `count × u64` indices |
//! | 2 `Tables` | `u64` request id |
//! | 3 `Stats` | `u64` request id |
//! | 4 `Metrics` | `u64` request id |
//! | 5 `GenerateMulti` | `u64` request id, `u64` deadline ns (0 = none), `u32` part count, then per part: `u32` table, `u32` count, `count × u64` indices |
//! | 6 `PlanPull` | `u64` request id |
//! | 7 `PlanPush` | `u64` request id, string (the [`AllocationPlan`] JSON) |
//! | 8 `Hello` | `u64` request id, string (the peer's role, e.g. `router`); answered with a `Tables` response |
//! | 9 `Update` | `u64` request id, `u32` table, `u64` deadline ns (0 = none), `u32` count, `count × u64` indices, `u32` dim, `count·dim × f32` delta rows; answered with the post-update rows as an `Embeddings` response |
//! | 10 `Traces` | `u64` request id; drains the peer's buffered spans, answered with a `Traces` response |
//!
//! Server → client:
//!
//! | tag | payload |
//! |---|---|
//! | 1 `Embeddings` | `u64` request id, `u32` rows, `u32` cols, `u8` stage count, `count × u64` per-stage ns (lifecycle order, see [`Stage::ALL`]), `rows·cols × f32` |
//! | 2 `Rejected` | `u64` request id, `u8` reason code ([`RejectReason::index`]) |
//! | 3 `Tables` | `u64` request id, `u32` count, then per table: `u64` rows, `u32` dim, `f64` per-query ns, string technique label |
//! | 4 `Stats` | `u64` request id, string (the JSON snapshot, including the active plan's `version`/`epoch` under `"plan"`, the shard `"replicas"`, and the per-stage latency summaries under `"stages"`) |
//! | 5 `Metrics` | `u64` request id, string (Prometheus text exposition of the server's metrics registry) |
//! | 6 `Plan` | `u64` request id, `u8` present flag, string (the active [`AllocationPlan`] JSON when present) |
//! | 7 `PlanAck` | `u64` request id, `u8` ok flag, `u64` swap epoch, string (error text when not ok) |
//! | 8 `Traces` | `u64` request id, string (the peer's drained spans as JSONL, see `secemb-telemetry`) |
//!
//! ## Trace ids
//!
//! `Generate`, `Update`, and `GenerateMulti` requests may carry an
//! optional trailing *trace context*: either a `u64` trace id alone
//! (8 trailing bytes) or a trace id followed by the sender's `u64`
//! *parent span id* (16 trailing bytes) — the span the receiving host
//! should parent its own spans under. `Embeddings` and `Rejected`
//! responses echo the trace id as a trailing `u64` **only when the
//! request carried one**. The trailing placement keeps the extension
//! backward compatible: the request decoders read exactly the fields
//! they know, so an old server ignores a trace context it never echoes,
//! and an old client never receives one. A router stamps each hop of a
//! fanned-out request with the same trace id (plus its fan-out span as
//! the parent) so the per-host spans join into one cross-host timeline.
//!
//! [`AllocationPlan`]: secemb::hybrid::AllocationPlan

use crate::engine::TableInfo;
use crate::request::{RejectReason, Response};
use secemb_telemetry::{Stage, StageBreakdown, TraceCtx};
use secemb_tensor::Matrix;
use secemb_wire::bytes::{ByteReader, ByteWriter, Truncated};
use std::fmt;
use std::time::Duration;

const TAG_GENERATE: u8 = 1;
const TAG_TABLES: u8 = 2;
const TAG_STATS: u8 = 3;
const TAG_METRICS: u8 = 4;
const TAG_GENERATE_MULTI: u8 = 5;
const TAG_PLAN_PULL: u8 = 6;
const TAG_PLAN_PUSH: u8 = 7;
const TAG_HELLO: u8 = 8;
const TAG_UPDATE: u8 = 9;
const TAG_TRACES: u8 = 10;

const TAG_EMBEDDINGS: u8 = 1;
const TAG_REJECTED: u8 = 2;
const TAG_TABLES_RESP: u8 = 3;
const TAG_STATS_RESP: u8 = 4;
const TAG_METRICS_RESP: u8 = 5;
const TAG_PLAN_RESP: u8 = 6;
const TAG_PLAN_ACK: u8 = 7;
const TAG_TRACES_RESP: u8 = 8;

/// Largest part count one `GenerateMulti` message may carry.
pub const MAX_PARTS: usize = 1 << 12;

/// Largest per-stage value count an `Embeddings` frame may carry; newer
/// servers may append stages, older clients ignore the extras.
const MAX_STAGES: usize = 64;

/// Largest index count one `Generate` message may carry; guards the
/// decoder against allocating on a corrupt count field.
pub const MAX_INDICES: usize = 1 << 20;

/// Malformed message payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Payload ended early.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A count/shape field exceeds protocol limits.
    BadField(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "message payload truncated"),
            ProtocolError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtocolError::BadField(name) => write!(f, "field '{name}' out of range"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<Truncated> for ProtocolError {
    fn from(_: Truncated) -> Self {
        ProtocolError::Truncated
    }
}

/// A decoded client message.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Generate embeddings.
    Generate {
        /// Target table id.
        table: usize,
        /// The secret indices.
        indices: Vec<u64>,
        /// Latency budget, if any.
        deadline: Option<Duration>,
    },
    /// Obliviously read-modify-write: add one delta row per index to the
    /// addressed table rows, answered with the post-update rows. Only
    /// update-capable tables (the look-ahead ORAM) accept it.
    Update {
        /// Target table id.
        table: usize,
        /// The secret indices.
        indices: Vec<u64>,
        /// One delta row per index (`indices.len() × dim`).
        deltas: Matrix,
        /// Latency budget, if any.
        deadline: Option<Duration>,
    },
    /// Generate embeddings across several tables in one request; the
    /// reply concatenates the per-part rows in part order.
    GenerateMulti {
        /// `(table id, indices)` per part, in reply order.
        parts: Vec<(usize, Vec<u64>)>,
        /// Latency budget for the whole request, if any.
        deadline: Option<Duration>,
    },
    /// Fetch the active allocation plan, if any.
    PlanPull,
    /// Install an allocation plan (JSON, versioned).
    PlanPush(String),
    /// Identify the peer (role string); answered with `Tables`.
    Hello(String),
    /// List served tables.
    Tables,
    /// Fetch the statistics snapshot.
    Stats,
    /// Fetch the Prometheus-style metrics rendering.
    Metrics,
    /// Drain the peer's buffered spans (answered with `Traces`).
    Traces,
}

/// A decoded server message.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// The generated embeddings and their per-stage latency breakdown.
    Embeddings(Matrix, StageBreakdown),
    /// The request was refused.
    Rejected(RejectReason),
    /// Table metadata: `(rows, dim, per_query_ns, technique label)`.
    Tables(Vec<(u64, usize, f64, String)>),
    /// The JSON statistics snapshot.
    Stats(String),
    /// The Prometheus text exposition of the server's metrics.
    Metrics(String),
    /// The active allocation plan JSON (`None` while still on the
    /// construction-time layout).
    Plan(Option<String>),
    /// Outcome of a `PlanPush`.
    PlanAck {
        /// Whether the plan was applied.
        ok: bool,
        /// The swap epoch after application (0 on failure).
        epoch: u64,
        /// Error text when not ok.
        error: String,
    },
    /// The peer's drained spans as JSONL text.
    Traces(String),
}

/// Appends a trace context as trailing bytes: the trace id, then the
/// parent span id when present.
fn put_trailing_trace(w: &mut ByteWriter, trace: Option<TraceCtx>) {
    if let Some(t) = trace {
        w.put_u64_le(t.trace_id);
        if let Some(parent) = t.parent_span {
            w.put_u64_le(parent);
        }
    }
}

/// Reads the optional trailing trace context: 8 remaining bytes carry a
/// bare trace id, 16 carry trace id + parent span id.
fn take_trailing_trace(r: &mut ByteReader<'_>) -> Result<Option<TraceCtx>, ProtocolError> {
    Ok(match r.remaining() {
        8 => Some(TraceCtx::new(r.get_u64_le()?)),
        16 => Some(TraceCtx::with_parent(r.get_u64_le()?, r.get_u64_le()?)),
        _ => None,
    })
}

/// Reads a `u32` count and that many `u64` indices: the one index-list
/// reader of the request decoders. `budget` is how many indices the
/// frame may still carry. The count is checked against the budget and
/// against the bytes actually left *before* anything is reserved, so a
/// 25-byte frame claiming a million indices costs its sender's peer
/// nothing.
fn take_indices(r: &mut ByteReader<'_>, budget: usize) -> Result<Vec<u64>, ProtocolError> {
    let count = r.get_u32_le()? as usize;
    if count > budget {
        return Err(ProtocolError::BadField("index count"));
    }
    if count > r.remaining() / 8 {
        return Err(ProtocolError::Truncated);
    }
    let mut indices = Vec::with_capacity(count);
    for _ in 0..count {
        indices.push(r.get_u64_le()?);
    }
    Ok(indices)
}

/// Encodes a `Generate` request payload.
pub fn encode_generate(
    request_id: u64,
    table: usize,
    indices: &[u64],
    deadline: Option<Duration>,
) -> Vec<u8> {
    encode_generate_traced(request_id, table, indices, deadline, None)
}

/// Encodes a `Generate` request payload with an optional trace context.
pub fn encode_generate_traced(
    request_id: u64,
    table: usize,
    indices: &[u64],
    deadline: Option<Duration>,
    trace: Option<TraceCtx>,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(41 + indices.len() * 8);
    w.put_u8(TAG_GENERATE);
    w.put_u64_le(request_id);
    w.put_u32_le(table as u32);
    w.put_u64_le(deadline.map_or(0, |d| d.as_nanos() as u64));
    w.put_u32_le(indices.len() as u32);
    for &i in indices {
        w.put_u64_le(i);
    }
    put_trailing_trace(&mut w, trace);
    w.into_vec()
}

/// Encodes an `Update` request payload.
///
/// # Panics
///
/// Panics if `deltas` is not `indices.len() × dim` for some `dim`.
pub fn encode_update(
    request_id: u64,
    table: usize,
    indices: &[u64],
    deltas: &Matrix,
    deadline: Option<Duration>,
) -> Vec<u8> {
    encode_update_traced(request_id, table, indices, deltas, deadline, None)
}

/// Encodes an `Update` request payload with an optional trace context.
///
/// # Panics
///
/// Panics if `deltas` is not `indices.len() × dim` for some `dim`.
pub fn encode_update_traced(
    request_id: u64,
    table: usize,
    indices: &[u64],
    deltas: &Matrix,
    deadline: Option<Duration>,
    trace: Option<TraceCtx>,
) -> Vec<u8> {
    assert_eq!(
        deltas.rows(),
        indices.len(),
        "encode_update: one delta row per index"
    );
    let mut w = ByteWriter::with_capacity(45 + indices.len() * 8 + deltas.len() * 4);
    w.put_u8(TAG_UPDATE);
    w.put_u64_le(request_id);
    w.put_u32_le(table as u32);
    w.put_u64_le(deadline.map_or(0, |d| d.as_nanos() as u64));
    w.put_u32_le(indices.len() as u32);
    for &i in indices {
        w.put_u64_le(i);
    }
    w.put_u32_le(deltas.cols() as u32);
    for &v in deltas.as_slice() {
        w.put_f32_le(v);
    }
    put_trailing_trace(&mut w, trace);
    w.into_vec()
}

/// Encodes a `GenerateMulti` request payload with an optional trace
/// context.
pub fn encode_generate_multi(
    request_id: u64,
    parts: &[(usize, Vec<u64>)],
    deadline: Option<Duration>,
    trace: Option<TraceCtx>,
) -> Vec<u8> {
    let total: usize = parts.iter().map(|(_, ix)| ix.len()).sum();
    let mut w = ByteWriter::with_capacity(37 + parts.len() * 8 + total * 8);
    w.put_u8(TAG_GENERATE_MULTI);
    w.put_u64_le(request_id);
    w.put_u64_le(deadline.map_or(0, |d| d.as_nanos() as u64));
    w.put_u32_le(parts.len() as u32);
    for (table, indices) in parts {
        w.put_u32_le(*table as u32);
        w.put_u32_le(indices.len() as u32);
        for &i in indices {
            w.put_u64_le(i);
        }
    }
    put_trailing_trace(&mut w, trace);
    w.into_vec()
}

/// Encodes a `PlanPull` request payload.
pub fn encode_plan_pull(request_id: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(9);
    w.put_u8(TAG_PLAN_PULL);
    w.put_u64_le(request_id);
    w.into_vec()
}

/// Encodes a `PlanPush` request payload.
pub fn encode_plan_push(request_id: u64, plan_json: &str) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(13 + plan_json.len());
    w.put_u8(TAG_PLAN_PUSH);
    w.put_u64_le(request_id);
    w.put_str(plan_json);
    w.into_vec()
}

/// Encodes a `Hello` request payload.
pub fn encode_hello(request_id: u64, role: &str) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(13 + role.len());
    w.put_u8(TAG_HELLO);
    w.put_u64_le(request_id);
    w.put_str(role);
    w.into_vec()
}

/// Encodes a `Tables` request payload.
pub fn encode_tables_request(request_id: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(9);
    w.put_u8(TAG_TABLES);
    w.put_u64_le(request_id);
    w.into_vec()
}

/// Encodes a `Stats` request payload.
pub fn encode_stats_request(request_id: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(9);
    w.put_u8(TAG_STATS);
    w.put_u64_le(request_id);
    w.into_vec()
}

/// Encodes a `Metrics` request payload.
pub fn encode_metrics_request(request_id: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(9);
    w.put_u8(TAG_METRICS);
    w.put_u64_le(request_id);
    w.into_vec()
}

/// Encodes a `Traces` request payload (drain the peer's span buffer).
pub fn encode_traces_request(request_id: u64) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(9);
    w.put_u8(TAG_TRACES);
    w.put_u64_le(request_id);
    w.into_vec()
}

/// Decodes a client message payload into its request id and message.
///
/// # Errors
///
/// Returns [`ProtocolError`] on a truncated payload, unknown tag, or an
/// index count above [`MAX_INDICES`].
pub fn decode_client(payload: &[u8]) -> Result<(u64, ClientMsg), ProtocolError> {
    decode_client_traced(payload).map(|(id, msg, _)| (id, msg))
}

/// Decodes a client message payload, also returning the optional
/// trailing trace context on `Generate`/`Update`/`GenerateMulti`.
///
/// # Errors
///
/// Same as [`decode_client`].
pub fn decode_client_traced(
    payload: &[u8],
) -> Result<(u64, ClientMsg, Option<TraceCtx>), ProtocolError> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8()?;
    let request_id = r.get_u64_le()?;
    let mut trace = None;
    let msg = match tag {
        TAG_GENERATE => {
            let table = r.get_u32_le()? as usize;
            let deadline_ns = r.get_u64_le()?;
            let indices = take_indices(&mut r, MAX_INDICES)?;
            trace = take_trailing_trace(&mut r)?;
            ClientMsg::Generate {
                table,
                indices,
                deadline: (deadline_ns > 0).then(|| Duration::from_nanos(deadline_ns)),
            }
        }
        TAG_UPDATE => {
            let table = r.get_u32_le()? as usize;
            let deadline_ns = r.get_u64_le()?;
            let indices = take_indices(&mut r, MAX_INDICES)?;
            let count = indices.len();
            let dim = r.get_u32_le()? as usize;
            // Bound the allocation by what the payload can actually hold
            // before trusting count·dim; the trailing trace context may
            // occupy 8 or 16 bytes past the rows.
            let elems = count
                .checked_mul(dim)
                .filter(|&e| {
                    e * 4 == r.remaining()
                        || e * 4 + 8 == r.remaining()
                        || e * 4 + 16 == r.remaining()
                })
                .ok_or(ProtocolError::BadField("delta shape"))?;
            let mut data = Vec::with_capacity(elems);
            for _ in 0..elems {
                data.push(r.get_f32_le()?);
            }
            trace = take_trailing_trace(&mut r)?;
            ClientMsg::Update {
                table,
                indices,
                deltas: Matrix::from_vec(count, dim, data),
                deadline: (deadline_ns > 0).then(|| Duration::from_nanos(deadline_ns)),
            }
        }
        TAG_GENERATE_MULTI => {
            let deadline_ns = r.get_u64_le()?;
            let n_parts = r.get_u32_le()? as usize;
            if n_parts > MAX_PARTS {
                return Err(ProtocolError::BadField("part count"));
            }
            // Every part is at least its 8-byte header.
            if n_parts > r.remaining() / 8 {
                return Err(ProtocolError::Truncated);
            }
            let mut parts = Vec::with_capacity(n_parts);
            let mut budget = MAX_INDICES;
            for _ in 0..n_parts {
                let table = r.get_u32_le()? as usize;
                let indices = take_indices(&mut r, budget)?;
                budget -= indices.len();
                parts.push((table, indices));
            }
            trace = take_trailing_trace(&mut r)?;
            ClientMsg::GenerateMulti {
                parts,
                deadline: (deadline_ns > 0).then(|| Duration::from_nanos(deadline_ns)),
            }
        }
        TAG_PLAN_PULL => ClientMsg::PlanPull,
        TAG_PLAN_PUSH => ClientMsg::PlanPush(r.get_str()?),
        TAG_HELLO => ClientMsg::Hello(r.get_str()?),
        TAG_TABLES => ClientMsg::Tables,
        TAG_STATS => ClientMsg::Stats,
        TAG_METRICS => ClientMsg::Metrics,
        TAG_TRACES => ClientMsg::Traces,
        t => return Err(ProtocolError::BadTag(t)),
    };
    Ok((request_id, msg, trace))
}

/// Encodes an engine [`Response`] as a server message payload.
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    encode_response_traced(request_id, response, None)
}

/// Encodes an engine [`Response`], echoing a trace id when the request
/// carried one. The trace travels as a trailing `u64`, which an old
/// decoder on the `Rejected` path simply ignores; it is only appended
/// when the requester asked for it, so peers that never send trace ids
/// never see one.
pub fn encode_response_traced(
    request_id: u64,
    response: &Response,
    trace_id: Option<u64>,
) -> Vec<u8> {
    match response {
        Response::Embeddings(m, stages) => {
            let n_stages = Stage::ALL.len();
            let mut w = ByteWriter::with_capacity(26 + n_stages * 8 + m.len() * 4);
            w.put_u8(TAG_EMBEDDINGS);
            w.put_u64_le(request_id);
            w.put_u32_le(m.rows() as u32);
            w.put_u32_le(m.cols() as u32);
            w.put_u8(n_stages as u8);
            for (_, ns) in stages.iter() {
                w.put_u64_le(ns);
            }
            for &v in m.as_slice() {
                w.put_f32_le(v);
            }
            if let Some(t) = trace_id {
                w.put_u64_le(t);
            }
            w.into_vec()
        }
        Response::Rejected(reason) => {
            let mut w = ByteWriter::with_capacity(18);
            w.put_u8(TAG_REJECTED);
            w.put_u64_le(request_id);
            w.put_u8(reason.index() as u8);
            if let Some(t) = trace_id {
                w.put_u64_le(t);
            }
            w.into_vec()
        }
    }
}

/// Encodes the `Tables` response payload.
pub fn encode_tables(request_id: u64, tables: &[TableInfo]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(TAG_TABLES_RESP);
    w.put_u64_le(request_id);
    w.put_u32_le(tables.len() as u32);
    for t in tables {
        w.put_u64_le(t.rows);
        w.put_u32_le(t.dim as u32);
        w.put_f64_le(t.per_query_ns);
        w.put_str(t.technique.label());
    }
    w.into_vec()
}

/// Encodes the `Stats` response payload.
pub fn encode_stats(request_id: u64, json: &str) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(13 + json.len());
    w.put_u8(TAG_STATS_RESP);
    w.put_u64_le(request_id);
    w.put_str(json);
    w.into_vec()
}

/// Encodes the `Metrics` response payload.
pub fn encode_metrics(request_id: u64, text: &str) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(13 + text.len());
    w.put_u8(TAG_METRICS_RESP);
    w.put_u64_le(request_id);
    w.put_str(text);
    w.into_vec()
}

/// Encodes a raw `Tables` response from decoded tuples (used by the
/// router, which forwards a backend's inventory without holding
/// engine-side [`TableInfo`] values).
pub fn encode_table_list(request_id: u64, tables: &[(u64, usize, f64, String)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(TAG_TABLES_RESP);
    w.put_u64_le(request_id);
    w.put_u32_le(tables.len() as u32);
    for (rows, dim, per_query_ns, label) in tables {
        w.put_u64_le(*rows);
        w.put_u32_le(*dim as u32);
        w.put_f64_le(*per_query_ns);
        w.put_str(label);
    }
    w.into_vec()
}

/// Encodes the `Plan` response payload.
pub fn encode_plan(request_id: u64, plan_json: Option<&str>) -> Vec<u8> {
    let json = plan_json.unwrap_or("");
    let mut w = ByteWriter::with_capacity(14 + json.len());
    w.put_u8(TAG_PLAN_RESP);
    w.put_u64_le(request_id);
    w.put_u8(u8::from(plan_json.is_some()));
    w.put_str(json);
    w.into_vec()
}

/// Encodes the `PlanAck` response payload.
pub fn encode_plan_ack(request_id: u64, ok: bool, epoch: u64, error: &str) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(22 + error.len());
    w.put_u8(TAG_PLAN_ACK);
    w.put_u64_le(request_id);
    w.put_u8(u8::from(ok));
    w.put_u64_le(epoch);
    w.put_str(error);
    w.into_vec()
}

/// Encodes the `Traces` response payload (the peer's drained spans as
/// JSONL text).
pub fn encode_traces(request_id: u64, jsonl: &str) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(13 + jsonl.len());
    w.put_u8(TAG_TRACES_RESP);
    w.put_u64_le(request_id);
    w.put_str(jsonl);
    w.into_vec()
}

/// Decodes a server message payload into its request id and message.
///
/// # Errors
///
/// Returns [`ProtocolError`] on truncation, an unknown tag, an unknown
/// reject code, or an implausible embedding shape.
pub fn decode_server(payload: &[u8]) -> Result<(u64, ServerMsg), ProtocolError> {
    decode_server_traced(payload).map(|(id, msg, _)| (id, msg))
}

/// Decodes a server message payload, also returning the optional
/// trailing trace id on `Embeddings`/`Rejected`.
///
/// # Errors
///
/// Same as [`decode_server`].
pub fn decode_server_traced(
    payload: &[u8],
) -> Result<(u64, ServerMsg, Option<u64>), ProtocolError> {
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8()?;
    let request_id = r.get_u64_le()?;
    let mut trace_id = None;
    let msg = match tag {
        TAG_EMBEDDINGS => {
            let rows = r.get_u32_le()? as usize;
            let cols = r.get_u32_le()? as usize;
            let n_stages = r.get_u8()? as usize;
            if n_stages > MAX_STAGES {
                return Err(ProtocolError::BadField("stage count"));
            }
            let mut stages = StageBreakdown::default();
            for i in 0..n_stages {
                let ns = r.get_u64_le()?;
                if let Some(&stage) = Stage::ALL.get(i) {
                    stages.set(stage, ns);
                }
            }
            // The payload may end with a trailing 8-byte trace id.
            let elems = rows
                .checked_mul(cols)
                .filter(|&e| e * 4 == r.remaining() || e * 4 + 8 == r.remaining())
                .ok_or(ProtocolError::BadField("embedding shape"))?;
            let mut data = Vec::with_capacity(elems);
            for _ in 0..elems {
                data.push(r.get_f32_le()?);
            }
            if r.remaining() == 8 {
                trace_id = Some(r.get_u64_le()?);
            }
            ServerMsg::Embeddings(Matrix::from_vec(rows, cols, data), stages)
        }
        TAG_REJECTED => {
            let code = r.get_u8()? as usize;
            let reason = *RejectReason::ALL
                .get(code)
                .ok_or(ProtocolError::BadField("reject code"))?;
            if r.remaining() == 8 {
                trace_id = Some(r.get_u64_le()?);
            }
            ServerMsg::Rejected(reason)
        }
        TAG_TABLES_RESP => {
            let count = r.get_u32_le()? as usize;
            if count > 1 << 16 {
                return Err(ProtocolError::BadField("table count"));
            }
            // As in `take_indices`: no reserving past what the bytes can
            // hold (an entry with an empty label encodes to 24).
            if count > r.remaining() / 24 {
                return Err(ProtocolError::Truncated);
            }
            let mut tables = Vec::with_capacity(count);
            for _ in 0..count {
                let rows = r.get_u64_le()?;
                let dim = r.get_u32_le()? as usize;
                let per_query_ns = r.get_f64_le()?;
                let label = r.get_str()?;
                tables.push((rows, dim, per_query_ns, label));
            }
            ServerMsg::Tables(tables)
        }
        TAG_STATS_RESP => ServerMsg::Stats(r.get_str()?),
        TAG_METRICS_RESP => ServerMsg::Metrics(r.get_str()?),
        TAG_PLAN_RESP => {
            let present = r.get_u8()? != 0;
            let json = r.get_str()?;
            ServerMsg::Plan(present.then_some(json))
        }
        TAG_PLAN_ACK => {
            let ok = r.get_u8()? != 0;
            let epoch = r.get_u64_le()?;
            let error = r.get_str()?;
            ServerMsg::PlanAck { ok, epoch, error }
        }
        TAG_TRACES_RESP => ServerMsg::Traces(r.get_str()?),
        t => return Err(ProtocolError::BadTag(t)),
    };
    Ok((request_id, msg, trace_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb::Technique;

    #[test]
    fn generate_round_trips() {
        let payload = encode_generate(77, 3, &[9, 0, u64::MAX], Some(Duration::from_millis(20)));
        let (id, msg) = decode_client(&payload).unwrap();
        assert_eq!(id, 77);
        assert_eq!(
            msg,
            ClientMsg::Generate {
                table: 3,
                indices: vec![9, 0, u64::MAX],
                deadline: Some(Duration::from_millis(20)),
            }
        );
        // deadline 0 means none.
        let (id, msg) = decode_client(&encode_generate(u64::MAX, 0, &[1], None)).unwrap();
        assert_eq!(id, u64::MAX);
        assert!(matches!(msg, ClientMsg::Generate { deadline: None, .. }));
    }

    #[test]
    fn control_messages_round_trip() {
        assert_eq!(
            decode_client(&encode_tables_request(4)).unwrap(),
            (4, ClientMsg::Tables)
        );
        assert_eq!(
            decode_client(&encode_stats_request(5)).unwrap(),
            (5, ClientMsg::Stats)
        );
        assert_eq!(
            decode_client(&encode_metrics_request(6)).unwrap(),
            (6, ClientMsg::Metrics)
        );
    }

    #[test]
    fn responses_round_trip() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 - 1.5);
        let mut stages = StageBreakdown::default();
        stages.set(Stage::Queue, 1_234);
        stages.set(Stage::Generate, u64::MAX);
        let back = decode_server(&encode_response(
            9,
            &Response::Embeddings(m.clone(), stages),
        ))
        .unwrap();
        assert_eq!(back, (9, ServerMsg::Embeddings(m, stages)));

        for reason in RejectReason::ALL {
            let back = decode_server(&encode_response(11, &Response::Rejected(reason))).unwrap();
            assert_eq!(back, (11, ServerMsg::Rejected(reason)));
        }
    }

    #[test]
    fn ids_are_echoed_not_invented() {
        // Distinct ids on otherwise-identical messages stay distinct —
        // the correlation a pipelined client depends on.
        let a = encode_response(1, &Response::Rejected(RejectReason::QueueFull));
        let b = encode_response(2, &Response::Rejected(RejectReason::QueueFull));
        assert_ne!(a, b);
        assert_eq!(decode_server(&a).unwrap().0, 1);
        assert_eq!(decode_server(&b).unwrap().0, 2);
    }

    #[test]
    fn tables_and_stats_round_trip() {
        let info = TableInfo {
            rows: 4096,
            dim: 64,
            technique: Technique::Dhe,
            per_query_ns: 1234.5,
            supports_updates: false,
        };
        let back = decode_server(&encode_tables(3, &[info])).unwrap();
        assert_eq!(
            back,
            (3, ServerMsg::Tables(vec![(4096, 64, 1234.5, "DHE".into())]))
        );

        let back = decode_server(&encode_stats(8, "{\"a\":1}")).unwrap();
        assert_eq!(back, (8, ServerMsg::Stats("{\"a\":1}".into())));

        let text = "# TYPE secemb_requests_completed_total counter\n";
        let back = decode_server(&encode_metrics(12, text)).unwrap();
        assert_eq!(back, (12, ServerMsg::Metrics(text.into())));
    }

    #[test]
    fn malformed_payloads_are_errors() {
        assert_eq!(decode_client(&[]), Err(ProtocolError::Truncated));
        assert_eq!(
            decode_client(&[99, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtocolError::BadTag(99))
        );
        assert_eq!(
            decode_server(&[77, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(ProtocolError::BadTag(77))
        );
        // A tag with a truncated id is Truncated, not BadTag.
        assert_eq!(
            decode_client(&[TAG_TABLES, 0, 0]),
            Err(ProtocolError::Truncated)
        );
        // Generate claiming absurd count (count field sits after tag+id+table+deadline).
        let mut bad = encode_generate(0, 0, &[1], None);
        bad[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_client(&bad).is_err());
        // Embeddings whose declared shape disagrees with the payload
        // (the rows field sits right after the tag and id).
        let mut bad = encode_response(
            0,
            &Response::Embeddings(Matrix::zeros(2, 2), StageBreakdown::default()),
        );
        bad[9..13].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            decode_server(&bad),
            Err(ProtocolError::BadField("embedding shape"))
        );
        // Unknown reject code.
        let mut bad = encode_response(0, &Response::Rejected(RejectReason::QueueFull));
        *bad.last_mut().unwrap() = 200;
        assert_eq!(
            decode_server(&bad),
            Err(ProtocolError::BadField("reject code"))
        );
    }

    #[test]
    fn update_round_trips() {
        let deltas = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5 - 1.0);
        let payload = encode_update(21, 2, &[9, 0, 5], &deltas, Some(Duration::from_millis(8)));
        let (id, msg) = decode_client(&payload).unwrap();
        assert_eq!(id, 21);
        assert_eq!(
            msg,
            ClientMsg::Update {
                table: 2,
                indices: vec![9, 0, 5],
                deltas: deltas.clone(),
                deadline: Some(Duration::from_millis(8)),
            }
        );
        // Traced frames carry the trailing context; untraced ones yield None.
        let traced = encode_update_traced(
            22,
            0,
            &[1],
            &Matrix::zeros(1, 2),
            None,
            Some(TraceCtx::new(0xABCD)),
        );
        let (id, msg, trace) = decode_client_traced(&traced).unwrap();
        assert_eq!((id, trace), (22, Some(TraceCtx::new(0xABCD))));
        assert!(matches!(msg, ClientMsg::Update { deadline: None, .. }));
        assert_eq!(decode_client_traced(&payload).unwrap().2, None);
        // A delta count that disagrees with the payload is rejected (the
        // dim field sits after tag+id+table+deadline+count+indices).
        let mut bad = encode_update(0, 0, &[1], &Matrix::zeros(1, 2), None);
        let dim_at = 1 + 8 + 4 + 8 + 4 + 8;
        bad[dim_at..dim_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_client(&bad),
            Err(ProtocolError::BadField("delta shape"))
        );
    }

    #[test]
    fn generate_multi_round_trips() {
        let parts = vec![(0usize, vec![1u64, 2, 3]), (7, vec![]), (2, vec![u64::MAX])];
        let payload = encode_generate_multi(42, &parts, Some(Duration::from_millis(5)), None);
        let (id, msg, trace) = decode_client_traced(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(trace, None);
        assert_eq!(
            msg,
            ClientMsg::GenerateMulti {
                parts,
                deadline: Some(Duration::from_millis(5)),
            }
        );
    }

    #[test]
    fn trace_ids_ride_as_trailing_u64s() {
        // Request side: traced frames decode with the trace, and the
        // legacy decoder still accepts them (it ignores trailing bytes).
        let traced = encode_generate_traced(5, 1, &[4, 5], None, Some(TraceCtx::new(0xFEED)));
        let (id, msg, trace) = decode_client_traced(&traced).unwrap();
        assert_eq!((id, trace), (5, Some(TraceCtx::new(0xFEED))));
        assert!(matches!(msg, ClientMsg::Generate { .. }));
        assert_eq!(decode_client(&traced).unwrap().0, 5);
        // An untraced frame yields None.
        assert_eq!(
            decode_client_traced(&encode_generate(5, 1, &[4, 5], None))
                .unwrap()
                .2,
            None
        );
        let multi = encode_generate_multi(6, &[(0, vec![1])], None, Some(TraceCtx::new(9)));
        assert_eq!(
            decode_client_traced(&multi).unwrap().2,
            Some(TraceCtx::new(9))
        );

        // Response side: echoed on embeddings and rejections alike.
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let frame = encode_response_traced(
            7,
            &Response::Embeddings(m.clone(), StageBreakdown::default()),
            Some(31),
        );
        let (id, msg, trace) = decode_server_traced(&frame).unwrap();
        assert_eq!((id, trace), (7, Some(31)));
        assert_eq!(msg, ServerMsg::Embeddings(m, StageBreakdown::default()));
        // Untraced decode of a traced frame still sees the embeddings.
        assert!(matches!(
            decode_server(&frame).unwrap().1,
            ServerMsg::Embeddings(..)
        ));
        let frame =
            encode_response_traced(8, &Response::Rejected(RejectReason::QueueFull), Some(99));
        let (_, msg, trace) = decode_server_traced(&frame).unwrap();
        assert_eq!(trace, Some(99));
        assert_eq!(msg, ServerMsg::Rejected(RejectReason::QueueFull));
    }

    #[test]
    fn parent_spans_ride_as_a_16_byte_trailer() {
        // Every traceable request type round-trips the full context.
        let ctx = TraceCtx::with_parent(0xFEED, 0xBEEF);
        let gen = encode_generate_traced(1, 0, &[3, 4], None, Some(ctx));
        assert_eq!(decode_client_traced(&gen).unwrap().2, Some(ctx));
        assert_eq!(decode_client(&gen).unwrap().0, 1);
        let upd = encode_update_traced(2, 0, &[1], &Matrix::zeros(1, 2), None, Some(ctx));
        assert_eq!(decode_client_traced(&upd).unwrap().2, Some(ctx));
        let multi = encode_generate_multi(3, &[(0, vec![1]), (1, vec![2])], None, Some(ctx));
        assert_eq!(decode_client_traced(&multi).unwrap().2, Some(ctx));
        // The 16-byte trailer is exactly 8 bytes longer than the bare id.
        let bare = encode_generate_traced(1, 0, &[3, 4], None, Some(TraceCtx::new(0xFEED)));
        assert_eq!(gen.len(), bare.len() + 8);
    }

    #[test]
    fn traces_frames_round_trip() {
        assert_eq!(
            decode_client(&encode_traces_request(40)).unwrap(),
            (40, ClientMsg::Traces)
        );
        let jsonl = "{\"trace_id\":1,\"span_id\":2}\n";
        assert_eq!(
            decode_server(&encode_traces(41, jsonl)).unwrap(),
            (41, ServerMsg::Traces(jsonl.into()))
        );
        assert_eq!(
            decode_server(&encode_traces(42, "")).unwrap(),
            (42, ServerMsg::Traces(String::new()))
        );
    }

    #[test]
    fn plan_frames_round_trip() {
        assert_eq!(
            decode_client(&encode_plan_pull(13)).unwrap(),
            (13, ClientMsg::PlanPull)
        );
        assert_eq!(
            decode_client(&encode_plan_push(14, "{\"version\":3}")).unwrap(),
            (14, ClientMsg::PlanPush("{\"version\":3}".into()))
        );
        assert_eq!(
            decode_client(&encode_hello(15, "router")).unwrap(),
            (15, ClientMsg::Hello("router".into()))
        );

        assert_eq!(
            decode_server(&encode_plan(16, Some("{\"version\":3}"))).unwrap(),
            (16, ServerMsg::Plan(Some("{\"version\":3}".into())))
        );
        assert_eq!(
            decode_server(&encode_plan(17, None)).unwrap(),
            (17, ServerMsg::Plan(None))
        );
        assert_eq!(
            decode_server(&encode_plan_ack(18, true, 12, "")).unwrap(),
            (
                18,
                ServerMsg::PlanAck {
                    ok: true,
                    epoch: 12,
                    error: String::new(),
                }
            )
        );
        assert_eq!(
            decode_server(&encode_plan_ack(19, false, 0, "bad table count")).unwrap(),
            (
                19,
                ServerMsg::PlanAck {
                    ok: false,
                    epoch: 0,
                    error: "bad table count".into(),
                }
            )
        );
    }

    #[test]
    fn table_list_re_encoding_matches_engine_encoding() {
        let info = TableInfo {
            rows: 512,
            dim: 16,
            technique: Technique::LinearScan,
            per_query_ns: 88.5,
            supports_updates: false,
        };
        let direct = encode_tables(21, &[info]);
        let (_, msg) = decode_server(&direct).unwrap();
        let ServerMsg::Tables(tuples) = msg else {
            panic!("expected tables");
        };
        assert_eq!(encode_table_list(21, &tuples), direct);
    }
}
