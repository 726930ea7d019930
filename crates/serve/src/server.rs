//! The TCP front end: length-prefixed frames over `std::net`, every
//! connection multiplexed onto one
//! [`FrameReactor`](crate::reactor::FrameReactor) thread (nonblocking
//! sockets, incremental frame decode, completion-ordered write queues) —
//! thread count is O(workers), not O(connections).
//!
//! Replies leave in *completion* order, not arrival order — clients
//! match responses by request id — and every decoded frame goes through
//! [`dispatch_frame`], the one place a wire request becomes an engine
//! request.

use crate::engine::Engine;
use crate::lock_unpoisoned;
use crate::protocol::{
    decode_client_traced, encode_metrics, encode_plan, encode_plan_ack, encode_response_traced,
    encode_stats, encode_tables, encode_traces, ClientMsg,
};
use crate::reactor::{Dispatch, FrameReactor, ReactorConfig, ReplySender};
use crate::request::{RejectReason, Request, Response};
use secemb::hybrid::AllocationPlan;
use secemb_telemetry::{StageBreakdown, TraceCtx};
use secemb_tensor::Matrix;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Everything [`Server::start_opts`] can tune beyond the bind address.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerOptions {
    /// Reap connections idle longer than this. `None`, the default,
    /// never reaps.
    pub conn_idle: Option<Duration>,
}

/// A running TCP server over a shared [`Engine`]: one reactor thread,
/// stopped and joined on shutdown or drop.
pub struct Server {
    reactor: FrameReactor,
}

/// Binds a listener with `SO_REUSEADDR` set, so a restarted server can
/// reclaim its port immediately while connections from the previous
/// incarnation linger in `TIME_WAIT` — the kill-and-restart path a
/// failover smoke test exercises. Resolves `bind` and takes the first
/// address that accepts the reusable bind (IPv6 addresses fall back to
/// a plain bind inside [`mio::net::bind_reusable`]).
///
/// # Errors
///
/// Returns the resolution error, or the last bind error when every
/// resolved address refuses.
pub fn bind_reusable(bind: &str) -> io::Result<TcpListener> {
    let mut last = None;
    for addr in bind.to_socket_addrs()? {
        match mio::net::bind_reusable(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

impl Server {
    /// Binds `bind` (use port 0 for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Returns bind/reactor-setup errors.
    pub fn start(engine: Arc<Engine>, bind: &str) -> io::Result<Server> {
        Self::start_opts(engine, bind, ServerOptions::default())
    }

    /// [`Server::start`] with [`ServerOptions`] (idle-connection
    /// reaping).
    ///
    /// # Errors
    ///
    /// Returns bind/reactor-setup errors.
    pub fn start_opts(
        engine: Arc<Engine>,
        bind: &str,
        options: ServerOptions,
    ) -> io::Result<Server> {
        let listener = bind_reusable(bind)?;
        let stats = engine.stats();
        let config = ReactorConfig {
            registry: Some(engine.metrics()),
            idle_timeout: options.conn_idle,
        };
        let reactor = FrameReactor::start(
            listener,
            Box::new(move |_conn| {
                let engine = Arc::clone(&engine);
                Box::new(move |payload: &[u8], replies: &ReplySender| {
                    dispatch_frame(&engine, payload, replies)
                }) as Dispatch
            }),
            Box::new(move |ns| stats.record_write_ns(ns)),
            config,
        )?;
        Ok(Server { reactor })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Connections currently open.
    pub fn connections(&self) -> u64 {
        self.reactor.connections()
    }

    /// Stops accepting, closes every live connection, and joins the
    /// reactor thread — no detached threads outlive the server.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}

/// Decodes and serves one request frame. Returns `false` when the frame
/// is malformed and the connection should close; every `true` return
/// produces exactly one reply through `replies`, now or on whatever
/// thread completes the request.
pub(crate) fn dispatch_frame(engine: &Arc<Engine>, payload: &[u8], replies: &ReplySender) -> bool {
    match decode_client_traced(payload) {
        Ok((
            id,
            ClientMsg::Generate {
                table,
                indices,
                deadline,
            },
            trace,
        )) => {
            let mut request = Request::new(table, indices);
            request.deadline = deadline;
            request.trace = trace;
            let echo = trace.map(|t| t.trace_id);
            let replies = replies.clone();
            // The engine answers on whatever thread resolves the
            // request; the closure routes it straight to this
            // connection, tagged with the caller's id (and the caller's
            // trace id, when it sent one).
            engine.submit_with(
                request,
                Box::new(move |response| {
                    replies.send(encode_response_traced(id, &response, echo));
                }),
            );
        }
        Ok((
            id,
            ClientMsg::Update {
                table,
                indices,
                deltas,
                deadline,
            },
            trace,
        )) => {
            let mut request = Request::new(table, indices).with_update(deltas);
            request.deadline = deadline;
            request.trace = trace;
            let echo = trace.map(|t| t.trace_id);
            let replies = replies.clone();
            engine.submit_with(
                request,
                Box::new(move |response| {
                    replies.send(encode_response_traced(id, &response, echo));
                }),
            );
        }
        Ok((id, ClientMsg::GenerateMulti { parts, deadline }, trace)) => {
            submit_multi(engine, replies, id, parts, deadline, trace);
        }
        Ok((id, ClientMsg::PlanPull, _)) => {
            let json = engine.active_plan().map(|p| p.to_json());
            replies.send(encode_plan(id, json.as_deref()));
        }
        Ok((id, ClientMsg::PlanPush(json), _)) => {
            let frame = match AllocationPlan::from_json(&json)
                .map_err(|e| e.to_string())
                .and_then(|plan| engine.apply_plan(&plan).map_err(|e| e.to_string()))
            {
                Ok(epoch) => encode_plan_ack(id, true, epoch, ""),
                Err(e) => encode_plan_ack(id, false, 0, &e),
            };
            replies.send(frame);
        }
        // A `Hello` is a registration handshake: the answer is the
        // table inventory, which is all a router needs to bootstrap
        // placement for this backend.
        Ok((id, ClientMsg::Hello(_), _)) | Ok((id, ClientMsg::Tables, _)) => {
            replies.send(encode_tables(id, &engine.tables()));
        }
        Ok((id, ClientMsg::Stats, _)) => {
            let json = engine.stats().snapshot().to_json();
            replies.send(encode_stats(id, &json));
        }
        Ok((id, ClientMsg::Metrics, _)) => {
            let text = engine.render_metrics();
            replies.send(encode_metrics(id, &text));
        }
        Ok((id, ClientMsg::Traces, _)) => {
            // A scrape drains the span buffer: each buffered span is
            // reported exactly once across scrapes.
            replies.send(encode_traces(id, &engine.spans().drain_jsonl()));
        }
        Err(_) => return false,
    }
    true
}

/// Fans a `GenerateMulti` request out to the engine as one request per
/// part, merging the part responses into a single reply once the last
/// part completes. The merge runs on whichever worker thread finishes
/// last; part order (not completion order) decides row order.
fn submit_multi(
    engine: &Arc<Engine>,
    replies: &ReplySender,
    id: u64,
    parts: Vec<(usize, Vec<u64>)>,
    deadline: Option<Duration>,
    trace: Option<TraceCtx>,
) {
    let echo = trace.map(|t| t.trace_id);
    if parts.is_empty() {
        replies.send(encode_response_traced(
            id,
            &Response::Rejected(RejectReason::BadRequest),
            echo,
        ));
        return;
    }
    let n = parts.len();
    let slots: Arc<Mutex<(Vec<Option<Response>>, usize)>> =
        Arc::new(Mutex::new((vec![None; n], n)));
    for (slot, (table, indices)) in parts.into_iter().enumerate() {
        let mut request = Request::new(table, indices);
        request.deadline = deadline;
        request.trace = trace;
        let replies = replies.clone();
        let slots = Arc::clone(&slots);
        engine.submit_with(
            request,
            Box::new(move |response| {
                let mut guard = lock_unpoisoned(&slots);
                guard.0[slot] = Some(response);
                guard.1 -= 1;
                if guard.1 == 0 {
                    // A part worker dying mid-merge must degrade to an
                    // explicit Internal rejection for this request, never
                    // a panic that poisons the whole connection.
                    let parts: Vec<Response> = guard
                        .0
                        .drain(..)
                        .map(|r| r.unwrap_or(Response::Rejected(RejectReason::Internal)))
                        .collect();
                    drop(guard);
                    let merged = merge_part_responses(parts);
                    replies.send(encode_response_traced(id, &merged, echo));
                }
            }),
        );
    }
}

/// Merges per-part responses: the first rejection (in part order)
/// rejects the whole request; otherwise rows concatenate in part order
/// and the stage breakdown takes the per-stage maximum — the parts ran
/// concurrently, so the slowest part bounds each stage's contribution
/// to the end-to-end latency.
fn merge_part_responses(parts: Vec<Response>) -> Response {
    let mut cols = None;
    for part in &parts {
        match part {
            Response::Rejected(reason) => return Response::Rejected(*reason),
            Response::Embeddings(m, _) => {
                if *cols.get_or_insert(m.cols()) != m.cols() {
                    // Tables of different dimension cannot share a reply
                    // matrix; the client grouped incompatible parts.
                    return Response::Rejected(RejectReason::BadRequest);
                }
            }
        }
    }
    let cols = cols.unwrap_or(0);
    let mut rows = 0;
    let mut data = Vec::new();
    let mut stages = StageBreakdown::default();
    for part in &parts {
        if let Response::Embeddings(m, s) = part {
            rows += m.rows();
            data.extend_from_slice(m.as_slice());
            for (i, ns) in s.ns.iter().enumerate() {
                stages.ns[i] = stages.ns[i].max(*ns);
            }
        }
    }
    Response::Embeddings(Matrix::from_vec(rows, cols, data), stages)
}
