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
use crate::gather::{Fill, Gather};
use crate::protocol::{
    decode_client_traced, encode_metrics, encode_plan, encode_plan_ack, encode_response_traced,
    encode_stats, encode_table_list, encode_traces, reply_fits, ClientMsg,
};
use crate::reactor::{Dispatch, FrameReactor, ReactorConfig, ReplySender};
use crate::request::{RejectReason, Request, Response};
use secemb::hybrid::AllocationPlan;
use secemb_telemetry::TraceCtx;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
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
    let Ok((id, msg, trace)) = decode_client_traced(payload) else {
        return false;
    };
    if !lookup_reply_fits(engine, &msg) {
        let echo = trace.map(|t| t.trace_id);
        let refused = Response::Rejected(RejectReason::BadRequest);
        replies.send(encode_response_traced(id, &refused, echo));
        return true;
    }
    // A lookup frame is N ≥ 1 engine requests sharing the frame's
    // deadline and trace context: one per part, in part order.
    let part = |table, indices, update, deadline| Request {
        table,
        indices,
        deadline,
        update,
        trace,
    };
    match msg {
        ClientMsg::Generate {
            table,
            indices,
            deadline,
        } => {
            let request = part(table, indices, None, deadline);
            submit(engine, replies, id, trace, Gather::single(), [request]);
        }
        ClientMsg::Update {
            table,
            indices,
            deltas,
            deadline,
        } => {
            let request = part(table, indices, Some(deltas), deadline);
            submit(engine, replies, id, trace, Gather::single(), [request]);
        }
        ClientMsg::GenerateMulti { parts, deadline } => {
            // One slot per part, each owed its own index count in rows.
            let layout = parts.iter().map(|(_, ix)| ix.len()).enumerate().collect();
            let gather = Gather::new(parts.len(), layout);
            let requests = parts
                .into_iter()
                .map(|(table, indices)| part(table, indices, None, deadline));
            submit(engine, replies, id, trace, gather, requests);
        }
        ClientMsg::PlanPull => {
            let json = engine.active_plan().map(|p| p.to_json());
            replies.send(encode_plan(id, json.as_deref()));
        }
        ClientMsg::PlanPush(json) => {
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
        ClientMsg::Hello(_) | ClientMsg::Tables => {
            let tables: Vec<_> = engine
                .tables()
                .iter()
                .map(|t| (t.rows, t.dim, t.per_query_ns, t.technique.label().into()))
                .collect();
            replies.send(encode_table_list(id, &tables));
        }
        ClientMsg::Stats => {
            let json = engine.stats().snapshot().to_json();
            replies.send(encode_stats(id, &json));
        }
        ClientMsg::Metrics => {
            let text = engine.render_metrics();
            replies.send(encode_metrics(id, &text));
        }
        ClientMsg::Traces => {
            // A scrape drains the span buffer: each buffered span is
            // reported exactly once across scrapes.
            replies.send(encode_traces(id, &engine.spans().drain_jsonl()));
        }
    }
    true
}

/// Whether a lookup frame's reply fits one frame ([`reply_fits`]): all
/// its rows at the widest of its tables. A frame naming an unknown table
/// is the engine's to reject; other messages have no rows.
fn lookup_reply_fits(engine: &Engine, msg: &ClientMsg) -> bool {
    let (rows, cols) = match msg {
        ClientMsg::Generate { table, indices, .. } | ClientMsg::Update { table, indices, .. } => {
            (indices.len(), engine.dim(*table))
        }
        ClientMsg::GenerateMulti { parts, .. } => (
            parts.iter().map(|(_, ix)| ix.len()).sum(),
            parts
                .iter()
                .try_fold(0, |cols, (table, _)| Some(engine.dim(*table)?.max(cols))),
        ),
        _ => return true,
    };
    cols.is_none_or(|cols| reply_fits(rows, cols))
}

/// Hands a lookup frame's engine requests to the engine, one
/// [`Gather`] slot each, and answers the frame once when the last slot
/// is home. The engine resolves a request on whatever thread it likes —
/// this one for an admission rejection, a shard worker otherwise — so
/// the merge runs on whichever finishes last; part order, not
/// completion order, decides row order. The reply goes straight to this
/// connection, tagged with the caller's id (and the caller's trace id,
/// when it sent one).
fn submit(
    engine: &Engine,
    replies: &ReplySender,
    id: u64,
    trace: Option<TraceCtx>,
    gather: Gather,
    requests: impl IntoIterator<Item = Request>,
) {
    let echo = trace.map(|t| t.trace_id);
    let land = |slot: usize| {
        let (replies, gather) = (replies.clone(), gather.clone());
        move |response: Response| {
            if let Fill::Complete(landed) = gather.fill(slot, response) {
                replies.send(encode_response_traced(id, &landed.merge().0, echo));
            }
        }
    };
    let mut slots = 0;
    for request in requests {
        engine.submit_with(request, Box::new(land(slots)));
        slots += 1;
    }
    if slots == 0 {
        // A frame of no parts has nothing to wait for.
        land(0)(Response::Rejected(RejectReason::BadRequest));
    }
}
