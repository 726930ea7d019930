//! A blocking client for the serving protocol, with optional pipelining.
//!
//! Every request carries a client-chosen `request_id`; the server echoes
//! it on the response, which may arrive **out of order** relative to
//! other in-flight requests on the same connection. [`Client`] offers
//! both the classic synchronous calls ([`Client::generate`] etc.) and a
//! pipelined path: [`Client::call_async`] sends without waiting and
//! [`Client::drain_next`] collects whichever response completes next,
//! id-matched. A client is one socket and no thread; open-loop load with
//! many requests in flight goes through [`crate::loadgen`], which puts its
//! connections on a reactor instead.

use crate::protocol::{
    decode_server, encode_generate, encode_generate_multi, encode_metrics_request,
    encode_plan_pull, encode_plan_push, encode_stats_request, encode_tables_request,
    encode_traces_request, encode_update_traced, ServerMsg,
};
use secemb_tensor::Matrix;
use secemb_wire::frame::{encode_frame_into, read_frame, FrameError};
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One TCP connection to a `secemb-serve` server. Synchronous calls and
/// pipelined [`Client::call_async`] submissions may be mixed freely: the
/// client buffers out-of-order arrivals and hands each response back
/// under the id it was sent with.
pub struct Client {
    /// Reads go through the buffer; each frame is written to the stream
    /// underneath in one call.
    stream: BufReader<TcpStream>,
    next_id: u64,
    /// Ids sent via [`Client::call_async`] whose responses have not been
    /// handed to the caller yet.
    outstanding: HashSet<u64>,
    /// Responses that arrived while a synchronous call was waiting for a
    /// different id; drained first by [`Client::drain_next`].
    ready: VecDeque<(u64, ServerMsg)>,
}

/// Description of one served table as reported by the server.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteTable {
    /// Table rows (valid indices are `0..rows`).
    pub rows: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// The server's admission cost estimate, nanoseconds per query.
    pub per_query_ns: f64,
    /// Technique label.
    pub technique: String,
}

fn bad_reply(kind: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply: {kind}"),
    )
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_with(addr, None)
    }

    /// Connects with an optional idle timeout: when set, any receive
    /// that waits longer than `idle_timeout` for the server fails with
    /// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] instead
    /// of blocking forever — so a half-open peer (dead server, dropped
    /// NAT mapping) surfaces as an error rather than a stuck
    /// [`Client::drain_next`]. `None` (the default path) keeps the old
    /// block-forever behavior.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        idle_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(idle_timeout)?;
        Ok(Client {
            stream: BufReader::new(stream),
            next_id: 1,
            outstanding: HashSet::new(),
            ready: VecDeque::new(),
        })
    }

    /// Writes one frame.
    fn send(&self, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::new();
        encode_frame_into(&mut frame, payload);
        self.stream.get_ref().write_all(&frame)
    }

    /// Blocks for the next response frame, whatever request it answers;
    /// a clean server close surfaces as [`io::ErrorKind::UnexpectedEof`].
    fn recv(&mut self) -> io::Result<(u64, ServerMsg)> {
        let payload = read_frame(&mut self.stream).map_err(|e| match e {
            FrameError::Closed => io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"),
            FrameError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        decode_server(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Requests in flight via [`Client::call_async`] whose responses have
    /// not yet been returned by [`Client::drain_next`].
    pub fn pending(&self) -> usize {
        self.outstanding.len() + self.ready.len()
    }

    /// Sends a generate request without waiting for the response,
    /// returning the id that will identify it. Any number may be in
    /// flight; collect them with [`Client::drain_next`].
    ///
    /// # Errors
    ///
    /// Returns transport errors.
    pub fn call_async(
        &mut self,
        table: usize,
        indices: &[u64],
        deadline: Option<Duration>,
    ) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&encode_generate(id, table, indices, deadline))?;
        self.outstanding.insert(id);
        Ok(id)
    }

    /// Returns the next completed pipelined response as `(request_id,
    /// verdict)`, in whatever order the server finished them.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors, or `InvalidData` if called
    /// with nothing pending or the server invents an unknown id.
    pub fn drain_next(&mut self) -> io::Result<(u64, ServerMsg)> {
        if let Some(hit) = self.ready.pop_front() {
            self.outstanding.remove(&hit.0);
            return Ok(hit);
        }
        if self.outstanding.is_empty() {
            return Err(bad_reply("drain_next with nothing in flight"));
        }
        let (id, msg) = self.recv()?;
        if !self.outstanding.remove(&id) {
            return Err(bad_reply("response for an id never sent"));
        }
        match msg {
            msg @ (ServerMsg::Embeddings(..) | ServerMsg::Rejected(_)) => Ok((id, msg)),
            _ => Err(bad_reply("expected embeddings or rejection")),
        }
    }

    /// Sends `payload` and blocks until the response carrying `id`
    /// arrives, parking any pipelined responses that land first.
    fn round_trip(&mut self, id: u64, payload: &[u8]) -> io::Result<ServerMsg> {
        self.send(payload)?;
        loop {
            let (got, msg) = self.recv()?;
            if got == id {
                return Ok(msg);
            }
            if self.outstanding.contains(&got) {
                self.ready.push_back((got, msg));
            } else {
                return Err(bad_reply("response for an id never sent"));
            }
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Requests embeddings for `indices` from `table`.
    ///
    /// Returns the server's verdict: `Embeddings` or `Rejected`.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors; rejections are **not**
    /// errors.
    pub fn generate(
        &mut self,
        table: usize,
        indices: &[u64],
        deadline: Option<Duration>,
    ) -> io::Result<ServerMsg> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_generate(id, table, indices, deadline))? {
            msg @ (ServerMsg::Embeddings(..) | ServerMsg::Rejected(_)) => Ok(msg),
            _ => Err(bad_reply("expected embeddings or rejection")),
        }
    }

    /// Obliviously adds one delta row per index to `table`'s rows (the
    /// protected training write path), returning the post-update rows as
    /// `Embeddings` — or `Rejected` (`UpdateUnsupported` when the table's
    /// generator has no write path).
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors; rejections are **not**
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` is not `indices.len() × dim`.
    pub fn update(
        &mut self,
        table: usize,
        indices: &[u64],
        deltas: &Matrix,
        deadline: Option<Duration>,
    ) -> io::Result<ServerMsg> {
        let id = self.fresh_id();
        let frame = encode_update_traced(id, table, indices, deltas, deadline, None);
        match self.round_trip(id, &frame)? {
            msg @ (ServerMsg::Embeddings(..) | ServerMsg::Rejected(_)) => Ok(msg),
            _ => Err(bad_reply("expected embeddings or rejection")),
        }
    }

    /// Lists the server's tables.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn tables(&mut self) -> io::Result<Vec<RemoteTable>> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_tables_request(id))? {
            ServerMsg::Tables(ts) => Ok(ts
                .into_iter()
                .map(|(rows, dim, per_query_ns, technique)| RemoteTable {
                    rows,
                    dim,
                    per_query_ns,
                    technique,
                })
                .collect()),
            _ => Err(bad_reply("expected table list")),
        }
    }

    /// Fetches the server's statistics snapshot as JSON.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn stats_json(&mut self) -> io::Result<String> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_stats_request(id))? {
            ServerMsg::Stats(json) => Ok(json),
            _ => Err(bad_reply("expected stats")),
        }
    }

    /// Fetches the server's full metrics registry in Prometheus text
    /// exposition format.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn metrics_text(&mut self) -> io::Result<String> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_metrics_request(id))? {
            ServerMsg::Metrics(text) => Ok(text),
            _ => Err(bad_reply("expected metrics")),
        }
    }

    /// Scrapes the peer's span buffer: every span recorded since the
    /// last scrape as JSONL (one span per line, plus one collector meta
    /// line per scraped host). Scraping a router returns the whole
    /// tier's spans — the router appends each backend's drain to its
    /// own.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn traces_jsonl(&mut self) -> io::Result<String> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_traces_request(id))? {
            ServerMsg::Traces(jsonl) => Ok(jsonl),
            _ => Err(bad_reply("expected traces")),
        }
    }

    /// Requests embeddings across several tables in one request; the
    /// reply concatenates the per-part rows in part order.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors; rejections are **not**
    /// errors.
    pub fn generate_multi(
        &mut self,
        parts: &[(usize, Vec<u64>)],
        deadline: Option<Duration>,
    ) -> io::Result<ServerMsg> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_generate_multi(id, parts, deadline, None))? {
            msg @ (ServerMsg::Embeddings(..) | ServerMsg::Rejected(_)) => Ok(msg),
            _ => Err(bad_reply("expected embeddings or rejection")),
        }
    }

    /// Fetches the peer's active allocation plan JSON, if it has applied
    /// one.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors.
    pub fn plan_json(&mut self) -> io::Result<Option<String>> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_plan_pull(id))? {
            ServerMsg::Plan(json) => Ok(json),
            _ => Err(bad_reply("expected plan")),
        }
    }

    /// Pushes an allocation plan (JSON) to the peer, returning the swap
    /// epoch it acked with.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors; a refused plan surfaces as
    /// `InvalidInput` carrying the peer's error text.
    pub fn push_plan(&mut self, plan_json: &str) -> io::Result<u64> {
        let id = self.fresh_id();
        match self.round_trip(id, &encode_plan_push(id, plan_json))? {
            ServerMsg::PlanAck {
                ok: true, epoch, ..
            } => Ok(epoch),
            ServerMsg::PlanAck { error, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, error))
            }
            _ => Err(bad_reply("expected plan ack")),
        }
    }
}
