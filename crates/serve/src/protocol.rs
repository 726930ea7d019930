//! The binary serving protocol.
//!
//! Every message is one length-prefixed frame ([`secemb_wire::frame`]):
//! a one-byte tag, a `u64` request id, then the fields its encoder's
//! documentation lists in byte order (a string is a `u32` byte length and
//! its UTF-8 bytes). The client picks the id and the response echoes it,
//! which is what makes *pipelining* possible: requests in flight on one
//! connection may be answered out of order.
//!
//! ## Trace ids, the trailer rule and the bounds
//!
//! A lookup (`Generate`, `Update`, `GenerateMulti`) may end with a `u64`
//! trace id, or that and the sender's `u64` parent span id (how a router
//! joins its hops into one timeline); `Embeddings` and `Rejected` echo
//! the trace id when the request carried one. After a message's last
//! field, exactly 0, 8 or 16 bytes may follow a lookup, 0 or 8 an
//! `Embeddings`/`Rejected`, and 0 anything else: no frame is accepted
//! with bytes unread. Every count is checked against the bytes left
//! before anything is reserved ([`ByteReader::get_seq`]); a request
//! carries at most [`MAX_INDICES`] indices in [`MAX_PARTS`] parts, and a
//! lookup whose reply would not fit one frame ([`reply_fits`]) is refused
//! `BadRequest` at either front door.

use crate::request::{RejectReason, Response};
use secemb_telemetry::{Stage, StageBreakdown, TraceCtx};
use secemb_tensor::Matrix;
use secemb_wire::bytes::{ByteReader, ByteWriter, Truncated};
use secemb_wire::frame::DEFAULT_MAX_FRAME;
use std::fmt;
use std::time::Duration;

// The hand-encoded messages' tags; the others are on their encoder's line.
const TAG_UPDATE: u8 = 9;
const TAG_EMBEDDINGS: u8 = 1;
const TAG_REJECTED: u8 = 2;

/// Largest part count one `GenerateMulti` message may carry.
pub const MAX_PARTS: usize = 1 << 12;
/// Largest index count one request may carry, over all its parts.
pub const MAX_INDICES: usize = 1 << 20;

/// Malformed message payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Payload ended early.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A field, or the bytes after the last one, is out of range.
    BadField(&'static str),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed message: {self:?}")
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
    /// Obliviously add one delta row per index to the addressed rows
    /// (update-capable tables only), answered with the updated rows.
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
    /// Generate embeddings across tables; rows come back in part order.
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
    /// The active allocation plan JSON (`None`: the startup layout).
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

/// One wire field: how a value is written and read back (`Owned`: as
/// itself, or a borrowed one as its owned form), and the fewest bytes any
/// value encodes to, which bounds a count of them before reserving.
trait Field {
    type Owned;
    const MIN: usize;
    fn size(&self) -> usize {
        Self::MIN
    }
    fn put(&self, w: &mut ByteWriter);
    fn take(r: &mut ByteReader<'_>) -> Result<Self::Owned, ProtocolError>;
}

/// The wire vocabulary, one type per entry: `[generics] type => decoded
/// type, fewest bytes`, its size when that varies, how it is put, taken.
macro_rules! field {
    ($([$($g:tt)*] $t:ty => $owned:ty, $min:expr; $(size |$s:ident| $size:expr;)?
        put |$w:ident, $v:ident| $put:expr; take |$r:ident| $take:expr;)*) => {$(
        impl<$($g)*> Field for $t {
            type Owned = $owned;
            const MIN: usize = $min;
            $(fn size(&self) -> usize {
                let $s = self;
                $size
            })?
            fn put(&self, $w: &mut ByteWriter) {
                let $v = self;
                $put
            }
            fn take($r: &mut ByteReader<'_>) -> Result<$owned, ProtocolError> {
                Ok($take)
            }
        }
    )*};
}

field! {
    [] u64 => u64, 8; put |w, v| w.put_u64_le(*v); take |r| r.get_u64_le()?;
    [] f64 => f64, 8; put |w, v| w.put_f64_le(*v); take |r| r.get_f64_le()?;
    [] usize => usize, 4; put |w, v| w.put_u32_le(*v as u32); take |r| r.get_u32_le()? as usize;
    [] bool => bool, 1; put |w, v| w.put_u8(u8::from(*v)); take |r| r.get_u8()? != 0;
    [] Option<Duration> => Option<Duration>, 8;
        put |w, v| w.put_u64_le(v.map_or(0, |d| d.as_nanos() as u64));
        take |r| Some(r.get_u64_le()?).filter(|&ns| ns > 0).map(Duration::from_nanos);
    [] RejectReason => RejectReason, 1; put |w, v| w.put_u8(v.index() as u8);
        take |r| *RejectReason::ALL.get(r.get_u8()? as usize)
            .ok_or(ProtocolError::BadField("reject code"))?;
    [] str => String, 4; size |s| 4 + s.len(); put |w, s| w.put_str(s); take |r| r.get_str()?;
    // A `u32` count, then the elements, read through the one bounded reader.
    [T: Field] [T] => Vec<T::Owned>, 4; size |s| s.iter().fold(4, |n, v| n + v.size());
        put |w, s| { s.len().put(w); s.iter().for_each(|v| v.put(w)) };
        take |r| { let count = usize::take(r)?; r.get_seq(count, T::MIN, T::take)? };
    // Borrowed and owned forms encode as what they point at.
    [T: Field + ?Sized] &T => T::Owned, T::MIN; size |s| (**s).size(); put |w, s| (**s).put(w);
        take |r| T::take(r)?;
    [] String => String, 4; size |s| s.as_str().size(); put |w, s| s.as_str().put(w);
        take |r| str::take(r)?;
    [T: Field] Vec<T> => Vec<T::Owned>, 4; size |s| s.as_slice().size();
        put |w, s| s.as_slice().put(w); take |r| <[T]>::take(r)?;
    [] StageBreakdown => StageBreakdown, 1; size |_s| 1 + 8 * Stage::ALL.len();
        put |w, s| { w.put_u8(Stage::ALL.len() as u8); s.ns.iter().for_each(|&n| w.put_u64_le(n)) };
        take |r| take_stages(r)?;
}

/// A message body: its fields in byte order.
macro_rules! tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Field),*> Field for ($($t,)*) {
            type Owned = ($($t::Owned,)*);
            const MIN: usize = 0 $(+ $t::MIN)*;
            fn size(&self) -> usize {
                0 $(+ self.$i.size())*
            }
            fn put(&self, _w: &mut ByteWriter) {
                $(self.$i.put(_w);)*
            }
            fn take(_r: &mut ByteReader<'_>) -> Result<Self::Owned, ProtocolError> {
                Ok(($($t::take(_r)?,)*))
            }
        }
    };
}

tuple!();
tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);
tuple!(A 0, B 1, C 2, D 3);

/// Reads an owned field, its type inferred from where it goes.
fn take<T: Field<Owned = T>>(r: &mut ByteReader<'_>) -> Result<T, ProtocolError> {
    T::take(r)
}

/// Reads a stage list; stages past the ones this build knows land in a
/// spare slot and are dropped.
fn take_stages(r: &mut ByteReader<'_>) -> Result<StageBreakdown, ProtocolError> {
    let (mut stages, mut spare, count) = (StageBreakdown::default(), 0, r.get_u8()?);
    let mut slots = stages.ns.iter_mut();
    // `()` elements: the one bounded reader, with nothing to reserve.
    r.get_seq(count.into(), 8, |r| {
        *slots.next().unwrap_or(&mut spare) = r.get_u64_le()?;
        Ok::<_, ProtocolError>(())
    })?;
    Ok(stages)
}

/// Reads a `rows × cols` `f32` block, its shape given by earlier fields.
fn take_rows(r: &mut ByteReader<'_>, rows: usize, cols: usize) -> Result<Matrix, ProtocolError> {
    let elems = rows.checked_mul(cols).ok_or(ProtocolError::Truncated)?;
    let data = r.get_seq(elems, 4, ByteReader::get_f32_le)?;
    Ok(Matrix::from_vec(rows, cols, data))
}

/// The trailer rule: what follows a message's last field is a trace
/// context of at most `words` `u64`s, and nothing else.
fn trailer(r: &mut ByteReader<'_>, words: usize) -> Result<Option<TraceCtx>, ProtocolError> {
    Ok(match (r.remaining(), words) {
        (0, _) => None,
        (8, 1..) => Some(TraceCtx::new(r.get_u64_le()?)),
        (16, 2..) => Some(TraceCtx::with_parent(r.get_u64_le()?, r.get_u64_le()?)),
        _ => return Err(ProtocolError::BadField("trailer")),
    })
}

/// Encodes one message into an exactly-sized buffer: tag, request id,
/// `fields` in order, an `f32` row block, then the trace trailer.
fn frame(tag: u8, id: u64, fields: impl Field, rows: &[f32], trace: Option<TraceCtx>) -> Vec<u8> {
    let words = trace.map_or([None; 2], |t| [Some(t.trace_id), t.parent_span]);
    let trailer = words.iter().flatten();
    let mut w =
        ByteWriter::with_capacity(9 + fields.size() + 4 * rows.len() + 8 * trailer.clone().count());
    w.put_u8(tag);
    (id, fields).put(&mut w);
    rows.iter().for_each(|&v| w.put_f32_le(v));
    trailer.for_each(|&word| w.put_u64_le(word));
    w.into_vec()
}

/// Whether an `Embeddings` reply of `rows × cols`, header included, fits
/// in the [`DEFAULT_MAX_FRAME`] a peer reads: both doors refuse any other.
pub fn reply_fits(rows: usize, cols: usize) -> bool {
    let header = 9 + (0usize, 0usize, StageBreakdown::default()).size() + 8;
    let block = rows.checked_mul(cols).and_then(|n| n.checked_mul(4));
    block.is_some_and(|block| block <= DEFAULT_MAX_FRAME - header)
}

/// The encoders of messages without a row block, one line of schema
/// each: `TAG = number: name(parameters after the request id) => fields
/// in byte order, trace trailer`.
macro_rules! encoders {
    ($($(#[$doc:meta])* $tag:ident $(= $n:literal)?: $name:ident($($p:ident: $t:ty),*)
        => $fields:expr, $trace:expr;)*) => {$(
        $(const $tag: u8 = $n;)?
        $(#[$doc])*
        pub fn $name(request_id: u64 $(, $p: $t)*) -> Vec<u8> {
            frame($tag, request_id, $fields, &[], $trace)
        }
    )*};
}

encoders! {
    /// `Generate` (tag 1): `u32` table, `u64` deadline ns (0 = none), `u32`
    /// count, `count × u64` indices.
    TAG_GENERATE = 1: encode_generate(table: usize, indices: &[u64], deadline: Option<Duration>)
        => (table, deadline, indices), None;
    /// [`encode_generate`] with an optional trace context.
    TAG_GENERATE: encode_generate_traced(table: usize, indices: &[u64],
        deadline: Option<Duration>, trace: Option<TraceCtx>) => (table, deadline, indices), trace;
    /// `Tables` (tag 2): lists the served tables.
    TAG_TABLES = 2: encode_tables_request() => (), None;
    /// `Stats` (tag 3): fetches the statistics snapshot.
    TAG_STATS = 3: encode_stats_request() => (), None;
    /// `Metrics` (tag 4): fetches the metrics registry's text exposition.
    TAG_METRICS = 4: encode_metrics_request() => (), None;
    /// `GenerateMulti` (tag 5): `u64` deadline ns (0 = none), `u32` part
    /// count, then per part `u32` table, `u32` count, `count × u64` indices.
    TAG_GENERATE_MULTI = 5: encode_generate_multi(parts: &[(usize, Vec<u64>)],
        deadline: Option<Duration>, trace: Option<TraceCtx>) => (deadline, parts), trace;
    /// `PlanPull` (tag 6): fetches the active plan, if any.
    TAG_PLAN_PULL = 6: encode_plan_pull() => (), None;
    /// `PlanPush` (tag 7): string, the plan JSON to install.
    TAG_PLAN_PUSH = 7: encode_plan_push(plan_json: &str) => plan_json, None;
    /// `Hello` (tag 8): string, the peer's role; answered with `Tables`.
    TAG_HELLO = 8: encode_hello(role: &str) => role, None;
    /// `Traces` (tag 10): drains the peer's buffered spans.
    TAG_TRACES = 10: encode_traces_request() => (), None;
    /// `Tables` response (tag 3): `u32` count, then per table `u64` rows,
    /// `u32` dim, `f64` per-query ns, string technique label.
    TAG_TABLES_RESP = 3: encode_table_list(tables: &[(u64, usize, f64, String)]) => tables, None;
    /// `Stats` response (tag 4): string, the JSON snapshot.
    TAG_STATS_RESP = 4: encode_stats(json: &str) => json, None;
    /// `Metrics` response (tag 5): string, the Prometheus text exposition.
    TAG_METRICS_RESP = 5: encode_metrics(text: &str) => text, None;
    /// `Plan` response (tag 6): `u8` present flag, string (the plan JSON).
    TAG_PLAN_RESP = 6: encode_plan(json: Option<&str>)
        => (json.is_some(), json.unwrap_or("")), None;
    /// `PlanAck` response (tag 7): `u8` ok flag, `u64` epoch, string error.
    TAG_PLAN_ACK = 7: encode_plan_ack(ok: bool, epoch: u64, error: &str)
        => (ok, epoch, error), None;
    /// `Traces` response (tag 8): string, the drained spans as JSONL.
    TAG_TRACES_RESP = 8: encode_traces(jsonl: &str) => jsonl, None;
}

/// `Update` (tag 9): `u32` table, `u64` deadline ns (0 = none), `u32`
/// count, `count × u64` indices, `u32` dim, `count·dim × f32` delta rows,
/// then an optional trace context; answered with the updated rows.
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
    assert_eq!(deltas.rows(), indices.len(), "one delta row per index");
    let fields = (table, deadline, indices, deltas.cols());
    frame(TAG_UPDATE, request_id, fields, deltas.as_slice(), trace)
}

/// `Embeddings` (tag 1): `u32` rows, `u32` cols, `u8` stage count, `count
/// × u64` per-stage ns ([`Stage::ALL`] order), `rows·cols × f32`; or
/// `Rejected` (tag 2): `u8` reason code ([`RejectReason::index`]). Either
/// echoes the request's trace id when it carried one.
pub fn encode_response_traced(id: u64, response: &Response, trace_id: Option<u64>) -> Vec<u8> {
    let trace = trace_id.map(TraceCtx::new);
    match response {
        Response::Embeddings(m, stages) => frame(
            TAG_EMBEDDINGS,
            id,
            (m.rows(), m.cols(), stages),
            m.as_slice(),
            trace,
        ),
        Response::Rejected(reason) => frame(TAG_REJECTED, id, reason, &[], trace),
    }
}

/// [`decode_client_traced`] without the trace context.
pub fn decode_client(payload: &[u8]) -> Result<(u64, ClientMsg), ProtocolError> {
    decode_client_traced(payload).map(|(id, msg, _)| (id, msg))
}

/// Decodes a client message payload into its request id, message and the
/// trace context trailing a lookup.
///
/// # Errors
///
/// Returns [`ProtocolError`] on a truncated payload, an unknown tag, a
/// request past [`MAX_INDICES`]/[`MAX_PARTS`], or a tail the trailer rule
/// does not allow.
pub fn decode_client_traced(
    payload: &[u8],
) -> Result<(u64, ClientMsg, Option<TraceCtx>), ProtocolError> {
    use ClientMsg::*;
    let r = &mut ByteReader::new(payload);
    let (tag, request_id) = (r.get_u8()?, r.get_u64_le()?);
    let msg = match tag {
        TAG_GENERATE => take(r).map(|(table, deadline, indices)| Generate {
            table,
            indices,
            deadline,
        })?,
        TAG_UPDATE => {
            let (table, deadline, indices, dim): (_, _, Vec<_>, _) = take(r)?;
            let deltas = take_rows(r, indices.len(), dim)?;
            Update {
                table,
                indices,
                deltas,
                deadline,
            }
        }
        TAG_GENERATE_MULTI => take(r).map(|(deadline, parts)| GenerateMulti { parts, deadline })?,
        TAG_PLAN_PULL => PlanPull,
        TAG_PLAN_PUSH => PlanPush(take(r)?),
        TAG_HELLO => Hello(take(r)?),
        TAG_TABLES => Tables,
        TAG_STATS => Stats,
        TAG_METRICS => Metrics,
        TAG_TRACES => Traces,
        t => return Err(ProtocolError::BadTag(t)),
    };
    // Lookups may carry a trace, and must keep to the request limits.
    let (words, parts, indices) = match &msg {
        Generate { indices: ix, .. } | Update { indices: ix, .. } => (2, 1, ix.len()),
        GenerateMulti { parts, .. } => (2, parts.len(), parts.iter().map(|p| p.1.len()).sum()),
        _ => (0, 0, 0),
    };
    if parts > MAX_PARTS || indices > MAX_INDICES {
        return Err(ProtocolError::BadField("request size"));
    }
    Ok((request_id, msg, trailer(r, words)?))
}

/// [`decode_server_traced`] without the trace id.
pub fn decode_server(payload: &[u8]) -> Result<(u64, ServerMsg), ProtocolError> {
    decode_server_traced(payload).map(|(id, msg, _)| (id, msg))
}

/// Decodes a server message payload into its request id, message and the
/// trace id an `Embeddings` or `Rejected` echoes.
///
/// # Errors
///
/// Returns [`ProtocolError`] on a truncated payload, an unknown tag or
/// reject code, or a tail the trailer rule does not allow.
pub fn decode_server_traced(
    payload: &[u8],
) -> Result<(u64, ServerMsg, Option<u64>), ProtocolError> {
    use ServerMsg::*;
    let r = &mut ByteReader::new(payload);
    let (tag, request_id) = (r.get_u8()?, r.get_u64_le()?);
    let msg = match tag {
        TAG_EMBEDDINGS => {
            let (rows, cols, stages) = take(r)?;
            Embeddings(take_rows(r, rows, cols)?, stages)
        }
        TAG_REJECTED => Rejected(take(r)?),
        TAG_TABLES_RESP => Tables(take(r)?),
        TAG_STATS_RESP => Stats(take(r)?),
        TAG_METRICS_RESP => Metrics(take(r)?),
        TAG_PLAN_RESP => take(r).map(|(present, json)| Plan(bool::then_some(present, json)))?,
        TAG_PLAN_ACK => take(r).map(|(ok, epoch, error)| PlanAck { ok, epoch, error })?,
        TAG_TRACES_RESP => Traces(take(r)?),
        t => return Err(ProtocolError::BadTag(t)),
    };
    let words = usize::from(matches!(msg, Embeddings(..) | Rejected(_)));
    Ok((request_id, msg, trailer(r, words)?.map(|t| t.trace_id)))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let embeddings = Response::Embeddings(m.clone(), stages);
        let back = decode_server(&encode_response_traced(9, &embeddings, None)).unwrap();
        assert_eq!(back, (9, ServerMsg::Embeddings(m, stages)));

        for reason in RejectReason::ALL {
            let frame = encode_response_traced(11, &Response::Rejected(reason), None);
            assert_eq!(
                decode_server(&frame).unwrap(),
                (11, ServerMsg::Rejected(reason))
            );
        }
    }

    #[test]
    fn ids_are_echoed_not_invented() {
        // Distinct ids on otherwise-identical messages stay distinct —
        // the correlation a pipelined client depends on.
        let full = Response::Rejected(RejectReason::QueueFull);
        let a = encode_response_traced(1, &full, None);
        let b = encode_response_traced(2, &full, None);
        assert_ne!(a, b);
        assert_eq!(decode_server(&a).unwrap().0, 1);
        assert_eq!(decode_server(&b).unwrap().0, 2);
    }

    #[test]
    fn tables_and_stats_round_trip() {
        let tables = vec![
            (4096, 64, 1234.5, "DHE".to_string()),
            (8, 2, 0.5, String::new()),
        ];
        let back = decode_server(&encode_table_list(3, &tables)).unwrap();
        assert_eq!(back, (3, ServerMsg::Tables(tables)));

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
        assert_eq!(decode_client(&bad), Err(ProtocolError::Truncated));
        // Embeddings whose declared rows the payload does not hold (the
        // rows field sits right after the tag and id).
        let two_by_two = Response::Embeddings(Matrix::zeros(2, 2), StageBreakdown::default());
        let mut bad = encode_response_traced(0, &two_by_two, None);
        bad[9..13].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_server(&bad), Err(ProtocolError::Truncated));
        // ...and one row fewer than it holds leaves 8 bytes: read as a
        // trace echo, not dropped.
        bad[9..13].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_server_traced(&bad).unwrap().2, Some(0));
        // Unknown reject code.
        let mut bad = encode_response_traced(0, &Response::Rejected(RejectReason::QueueFull), None);
        *bad.last_mut().unwrap() = 200;
        assert_eq!(
            decode_server(&bad),
            Err(ProtocolError::BadField("reject code"))
        );
    }

    #[test]
    fn update_round_trips() {
        let deltas = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5 - 1.0);
        let ms8 = Some(Duration::from_millis(8));
        let payload = encode_update_traced(21, 2, &[9, 0, 5], &deltas, ms8, None);
        let (id, msg, trace) = decode_client_traced(&payload).unwrap();
        assert_eq!((id, trace), (21, None));
        assert_eq!(
            msg,
            ClientMsg::Update {
                table: 2,
                indices: vec![9, 0, 5],
                deltas: deltas.clone(),
                deadline: ms8,
            }
        );
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
        // A delta count that disagrees with the payload is rejected (the
        // dim field sits after tag+id+table+deadline+count+indices).
        let mut bad = encode_update_traced(0, 0, &[1], &Matrix::zeros(1, 2), None, None);
        let dim_at = 1 + 8 + 4 + 8 + 4 + 8;
        bad[dim_at..dim_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_client(&bad), Err(ProtocolError::Truncated));
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
        let traced = encode_generate_traced(5, 1, &[4, 5], None, Some(TraceCtx::new(0xFEED)));
        let (id, msg, trace) = decode_client_traced(&traced).unwrap();
        assert_eq!((id, trace), (5, Some(TraceCtx::new(0xFEED))));
        assert!(matches!(msg, ClientMsg::Generate { .. }));
        assert_eq!(decode_client(&traced).unwrap().0, 5);
        let untraced = encode_generate(5, 1, &[4, 5], None);
        assert_eq!(decode_client_traced(&untraced).unwrap().2, None);
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
        let upd = encode_update_traced(2, 0, &[1], &Matrix::zeros(1, 2), None, Some(ctx));
        assert_eq!(decode_client_traced(&upd).unwrap().2, Some(ctx));
        let multi = encode_generate_multi(3, &[(0, vec![1]), (1, vec![2])], None, Some(ctx));
        assert_eq!(decode_client_traced(&multi).unwrap().2, Some(ctx));
        // The 16-byte trailer is exactly 8 bytes longer than the bare id.
        let bare = encode_generate_traced(1, 0, &[3, 4], None, Some(TraceCtx::new(0xFEED)));
        assert_eq!(gen.len(), bare.len() + 8);
    }

    #[test]
    fn only_the_trailers_a_kind_allows_are_accepted() {
        let tail = |frame: Vec<u8>, n: usize| [frame, vec![0xAB; n]].concat();
        let lookup = encode_generate(1, 0, &[3], None);
        let reply = encode_response_traced(1, &Response::Rejected(RejectReason::QueueFull), None);
        let control = encode_plan_push(1, "{}");
        for n in 0..=24 {
            let client = |f: &Vec<u8>| decode_client_traced(&tail(f.clone(), n)).is_ok();
            let server = |f: &Vec<u8>| decode_server_traced(&tail(f.clone(), n)).is_ok();
            assert_eq!(client(&lookup), matches!(n, 0 | 8 | 16), "lookup + {n}");
            assert_eq!(server(&reply), matches!(n, 0 | 8), "reply + {n}");
            assert_eq!(client(&control), n == 0, "control + {n}");
        }
    }

    #[test]
    fn newer_peers_stages_are_read_and_ignored() {
        // Seven stages on the wire where this build knows six.
        let m = Matrix::from_fn(1, 2, |_, c| c as f32);
        let mut frame = encode_response_traced(
            4,
            &Response::Embeddings(m.clone(), StageBreakdown::default()),
            Some(5),
        );
        let stages_end = 1 + 8 + 4 + 4 + 1 + 8 * Stage::ALL.len();
        frame[17] += 1;
        frame.splice(stages_end..stages_end, 7u64.to_le_bytes());
        let back = decode_server_traced(&frame).unwrap();
        assert_eq!(
            back,
            (
                4,
                ServerMsg::Embeddings(m, StageBreakdown::default()),
                Some(5)
            )
        );
    }

    #[test]
    fn request_limits_hold_over_all_parts() {
        let parts = vec![
            (0, vec![0; MAX_INDICES / 2]),
            (1, vec![0; MAX_INDICES / 2 + 1]),
        ];
        let frame = encode_generate_multi(1, &parts, None, None);
        assert_eq!(
            decode_client(&frame),
            Err(ProtocolError::BadField("request size"))
        );
        let parts = vec![(0, vec![]); MAX_PARTS + 1];
        let frame = encode_generate_multi(1, &parts, None, None);
        assert_eq!(
            decode_client(&frame),
            Err(ProtocolError::BadField("request size"))
        );
    }

    #[test]
    fn replies_are_capped_at_one_frame() {
        // 64 wide: 65 535 rows fit in 16 MiB with the header, 65 536 do not.
        assert!(reply_fits(65_535, 64));
        assert!(!reply_fits(65_536, 64));
        let largest = encode_response_traced(
            0,
            &Response::Embeddings(Matrix::zeros(65_535, 64), StageBreakdown::default()),
            Some(1),
        );
        assert!(largest.len() <= DEFAULT_MAX_FRAME);
        assert!(largest.len() + 64 * 4 > DEFAULT_MAX_FRAME);
        assert!(reply_fits(0, usize::MAX));
        assert!(!reply_fits(usize::MAX, 2));
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
}
