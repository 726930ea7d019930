//! A pipelined, reconnecting connection to one backend
//! `secemb-serve-server`.
//!
//! The router keeps exactly one TCP connection per backend process and
//! multiplexes every client's traffic over it: each submitted request
//! registers a completion callback under a fresh request id, and a
//! single reader thread per backend dispatches response frames to their
//! callbacks in completion order — the same pipelining discipline the
//! server itself uses, with no per-request threads.
//!
//! A backend is allowed to *die and come back*. When the link drops,
//! every in-flight callback fires with `Rejected(Internal)` (nothing is
//! replayed — a retried `Update` that had already crossed the wire
//! would apply twice), and the link wakes the router's maintenance loop
//! (`maint.rs`), which decides when to dial again. A redial re-runs the
//! `Hello` handshake and refuses a peer whose table inventory no longer
//! matches the fleet's. Between links, [`Backend::call`] fails fast with
//! `NotConnected` so the router can fail the request over to a replica
//! instead of queueing on a corpse.

use crate::lock_unpoisoned;
use crate::maint::Wake;
use secemb_serve::protocol::{
    decode_server, decode_server_traced, encode_hello, encode_metrics_request, encode_plan_pull,
    encode_plan_push, encode_stats_request, encode_traces_request, ServerMsg,
};
use secemb_serve::RejectReason;
use secemb_wire::frame::{read_frame, write_frame, FrameError};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Invoked with the backend's response (and its echoed trace id, when
/// the request carried one) on the backend's reader thread.
pub type ReplyCallback = Box<dyn FnOnce(ServerMsg, Option<u64>) + Send>;

/// How long a synchronous control call (stats, metrics, plan pull/push)
/// waits for the backend before giving up.
const SYNC_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a liveness probe ([`Backend::probe`]) waits — probes run on
/// the maintenance loop, so they must fail fast rather than wedge it.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// How long one dial waits for the TCP connect and for each handshake
/// frame.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// One live connection: the buffered writer plus a raw handle for
/// forcing the reader out of a blocked read.
struct Link {
    writer: BufWriter<TcpStream>,
    stream: TcpStream,
}

/// State shared between the caller-facing [`Backend`] and its reader
/// thread.
struct Shared {
    name: String,
    addr: SocketAddr,
    idle_timeout: Option<Duration>,
    link: Mutex<Option<Link>>,
    /// Whether `link` holds a handshaken connection; read lock-free on
    /// every routing decision.
    up: AtomicBool,
    /// The maintenance loop to wake when the link dies, once a router
    /// owns this backend.
    wake: OnceLock<mpsc::Sender<Wake>>,
    pending: Mutex<HashMap<u64, ReplyCallback>>,
    reader: Mutex<Option<JoinHandle<()>>>,
    /// The inventory the backend reported at its most recent `Hello`
    /// handshake: `(rows, dim, per_query_ns, technique label)` per
    /// table.
    tables: Mutex<Vec<(u64, usize, f64, String)>>,
    /// When set, a reconnect handshake reporting a different
    /// `(rows, dim)` shape is refused — a replica that restarted with
    /// different tables must not silently rejoin the fleet.
    expected_shape: Mutex<Option<Vec<(u64, usize)>>>,
    reconnects: AtomicU64,
    connect_failures: AtomicU64,
    /// Response frames whose id matched nothing pending (duplicate or
    /// stale replies from a misbehaving backend).
    unmatched_replies: AtomicU64,
}

fn from_frame_error(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

fn bad_reply(kind: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected backend reply: {kind}"),
    )
}

fn not_connected(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotConnected,
        format!("backend {name} is down"),
    )
}

impl Shared {
    /// Dials, handshakes, and installs a fresh link, spawning its
    /// reader thread. The previous reader (if any) must already be
    /// joined by the caller.
    fn try_connect(self: &Arc<Self>) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        // Bound the handshake read separately from steady-state: a peer
        // that accepts but never answers `Hello` must not wedge the
        // maintenance loop.
        stream.set_read_timeout(Some(CONNECT_TIMEOUT))?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream.try_clone()?);
        // Handshake before the reader thread exists: the hello's reply
        // is the only frame in flight, so read it inline.
        write_frame(&mut writer, &encode_hello(0, "router"))?;
        let payload = read_frame(&mut reader).map_err(from_frame_error)?;
        let (id, msg) = decode_server(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let tables = match (id, msg) {
            (0, ServerMsg::Tables(tables)) => tables,
            _ => return Err(bad_reply("expected hello inventory")),
        };
        if let Some(expected) = lock_unpoisoned(&self.expected_shape).as_ref() {
            let got: Vec<(u64, usize)> = tables.iter().map(|t| (t.0, t.1)).collect();
            if got != *expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("backend {} rejoined with a different table set", self.name),
                ));
            }
        }
        stream.set_read_timeout(self.idle_timeout)?;
        *lock_unpoisoned(&self.tables) = tables;
        {
            // Install the link and flip `up` under one lock: a
            // concurrent writer-failure teardown must never interleave
            // between them, or `up` could stick with no link.
            let mut link = lock_unpoisoned(&self.link);
            *link = Some(Link { stream, writer });
            self.up.store(true, Ordering::SeqCst);
        }
        match self.spawn_reader(reader) {
            Ok(handle) => {
                *lock_unpoisoned(&self.reader) = Some(handle);
                Ok(())
            }
            Err(e) => {
                // Thread exhaustion: a link nobody reads is useless.
                self.note_link_down();
                Err(e)
            }
        }
    }

    fn spawn_reader(
        self: &Arc<Self>,
        mut reader: BufReader<TcpStream>,
    ) -> io::Result<JoinHandle<()>> {
        let shared = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("secemb-be-{}", self.name))
            .spawn(move || {
                let idle_detection = shared.idle_timeout.is_some();
                loop {
                    let payload = match read_frame(&mut reader) {
                        Ok(p) => p,
                        Err(FrameError::Io(e))
                            if idle_detection
                                && matches!(
                                    e.kind(),
                                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                                ) =>
                        {
                            // Nothing owed: benign idleness, keep
                            // listening. (Responses only exist for
                            // pending ids, so a timeout mid-frame
                            // always has a non-empty pending map and
                            // correctly lands in the dead branch —
                            // the stream cannot silently desync.)
                            if lock_unpoisoned(&shared.pending).is_empty() {
                                continue;
                            }
                            // Requests in flight with no bytes for a
                            // whole idle window: half-open peer.
                            break;
                        }
                        Err(_) => break,
                    };
                    let Ok((id, msg, trace)) = decode_server_traced(&payload) else {
                        break; // protocol desync: unrecoverable
                    };
                    let callback = lock_unpoisoned(&shared.pending).remove(&id);
                    match callback {
                        Some(callback) => callback(msg, trace),
                        // A reply nothing asked for: a duplicate frame
                        // or a stale id from before a reconnect. Count
                        // it and keep the stream alive — the frame
                        // itself parsed fine.
                        None => {
                            shared.unmatched_replies.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                shared.note_link_down();
            })
    }

    /// Tears down the current link (if any), orphan-rejects every
    /// in-flight request and, if a link was up, wakes the maintenance
    /// loop. Called by the reader on exit and by the write path on a
    /// failed send; idempotent.
    fn note_link_down(&self) {
        let was_up = {
            let mut link = lock_unpoisoned(&self.link);
            self.up.store(false, Ordering::SeqCst);
            match link.take() {
                Some(link) => {
                    let _ = link.stream.shutdown(Shutdown::Both);
                    true
                }
                None => false,
            }
        };
        // The connection is gone: answer everything still in flight so
        // no client request hangs on a dead host. Nothing is replayed.
        let orphans: Vec<ReplyCallback> = {
            let mut map = lock_unpoisoned(&self.pending);
            map.drain().map(|(_, cb)| cb).collect()
        };
        for callback in orphans {
            callback(ServerMsg::Rejected(RejectReason::Internal), None);
        }
        if let (true, Some(wake)) = (was_up, self.wake.get()) {
            let _ = wake.send(Wake::LinkDown);
        }
    }
}

/// One pipelined backend connection. Cheap to share (`Arc<Backend>`);
/// writes are serialized by an internal lock and responses fan out from
/// one reader thread. When the link dies it stays down until the
/// router's maintenance loop redials it.
pub struct Backend {
    shared: Arc<Shared>,
    next_id: AtomicU64,
}

impl Backend {
    /// Dials `addr` once, performs the `Hello` handshake (which returns
    /// the backend's table inventory), and starts the reader thread. A
    /// peer that is down is tolerated: the backend starts with its link
    /// down, and under a [`crate::Router`] it joins the fleet when a
    /// redial first succeeds.
    ///
    /// With an `idle_timeout`, a backend that stops responding **while
    /// requests are in flight** for longer than that is declared dead —
    /// the connection closes and every pending callback fires with
    /// `Rejected(Internal)` — instead of the reader thread blocking
    /// forever on a half-open peer. Timeouts with nothing in flight are
    /// benign idleness and keep the connection open. `None` blocks
    /// forever, trusting TCP.
    ///
    /// # Errors
    ///
    /// Returns an error only if `addr` does not resolve (a
    /// configuration problem, not a liveness one).
    pub fn start<A: ToSocketAddrs>(
        name: &str,
        addr: A,
        idle_timeout: Option<Duration>,
    ) -> io::Result<Arc<Backend>> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "backend address resolves to nothing",
            )
        })?;
        let shared = Arc::new(Shared {
            name: name.to_string(),
            addr,
            idle_timeout,
            link: Mutex::new(None),
            up: AtomicBool::new(false),
            wake: OnceLock::new(),
            pending: Mutex::default(),
            reader: Mutex::new(None),
            tables: Mutex::new(Vec::new()),
            expected_shape: Mutex::new(None),
            reconnects: AtomicU64::new(0),
            connect_failures: AtomicU64::new(0),
            unmatched_replies: AtomicU64::new(0),
        });
        if shared.try_connect().is_err() {
            shared.connect_failures.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Arc::new(Backend {
            shared,
            next_id: AtomicU64::new(1),
        }))
    }

    /// Has every later link death wake the maintenance loop behind
    /// `wake`.
    pub(crate) fn wake_on_link_down(&self, wake: mpsc::Sender<Wake>) {
        let _ = self.shared.wake.set(wake);
    }

    /// Joins the dead link's reader — so exactly one reader ever exists
    /// per backend — then dials and handshakes afresh, counting the
    /// outcome as a reconnect or a connect failure.
    pub(crate) fn redial(&self) -> io::Result<()> {
        if let Some(reader) = lock_unpoisoned(&self.shared.reader).take() {
            let _ = reader.join();
        }
        let dialed = self.shared.try_connect();
        let outcome = match dialed {
            Ok(()) => &self.shared.reconnects,
            Err(_) => &self.shared.connect_failures,
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        dialed
    }

    /// The backend's display name (used as the `backend` metric label).
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The inventory reported at the most recent handshake (empty if
    /// the backend has never connected).
    pub fn tables(&self) -> Vec<(u64, usize, f64, String)> {
        lock_unpoisoned(&self.shared.tables).clone()
    }

    /// Pins the `(rows, dim)` shape a reconnect handshake must report;
    /// a peer that restarted with different tables is refused.
    pub fn set_expected_shape(&self, shape: Vec<(u64, usize)>) {
        *lock_unpoisoned(&self.shared.expected_shape) = Some(shape);
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        self.shared.up.load(Ordering::SeqCst)
    }

    /// Successful reconnects (the initial connect does not count).
    pub fn reconnects(&self) -> u64 {
        self.shared.reconnects.load(Ordering::Relaxed)
    }

    /// Failed connect attempts (the initial dial and every redial).
    pub fn connect_failures(&self) -> u64 {
        self.shared.connect_failures.load(Ordering::Relaxed)
    }

    /// Response frames that matched no pending request.
    pub fn unmatched_replies(&self) -> u64 {
        self.shared.unmatched_replies.load(Ordering::Relaxed)
    }

    /// Submits one request: `encode` receives a fresh request id and
    /// returns the frame payload; `callback` fires when the response
    /// arrives (or with `Rejected(Internal)` if the connection dies).
    ///
    /// # Errors
    ///
    /// Returns `NotConnected` immediately when the link is down, or the
    /// transport error from a failed send (which also tears the link
    /// down). On error the callback is dropped without being invoked —
    /// nothing crossed the wire, so the caller may safely retry on a
    /// replica, even for `Update` traffic.
    pub fn call(
        &self,
        encode: impl FnOnce(u64) -> Vec<u8>,
        callback: ReplyCallback,
    ) -> io::Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let payload = encode(id);
        // Register before writing: the response may race the map insert
        // otherwise. On a failed write, take the callback back out.
        lock_unpoisoned(&self.shared.pending).insert(id, callback);
        let result = {
            let mut link = lock_unpoisoned(&self.shared.link);
            match link.as_mut() {
                Some(l) => write_frame(&mut l.writer, &payload),
                None => Err(not_connected(&self.shared.name)),
            }
        };
        if let Err(e) = result {
            lock_unpoisoned(&self.shared.pending).remove(&id);
            if e.kind() != io::ErrorKind::NotConnected {
                // A failed write leaves the stream in an unknown state;
                // kill the link so the reader orphan-rejects and the
                // maintenance loop redials.
                self.shared.note_link_down();
            }
            return Err(e);
        }
        Ok(id)
    }

    fn round_trip_timeout(
        &self,
        encode: impl FnOnce(u64) -> Vec<u8>,
        timeout: Duration,
    ) -> io::Result<ServerMsg> {
        let (tx, rx) = mpsc::channel();
        self.call(
            encode,
            Box::new(move |msg, _| {
                let _ = tx.send(msg);
            }),
        )?;
        rx.recv_timeout(timeout)
            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "backend timed out"))
    }

    fn round_trip(&self, encode: impl FnOnce(u64) -> Vec<u8>) -> io::Result<ServerMsg> {
        self.round_trip_timeout(encode, SYNC_TIMEOUT)
    }

    /// A fast liveness probe: one stats round trip with a short
    /// timeout. Success means the backend answered a real request on
    /// the live link — the signal the router's health machine uses to
    /// flip a backend back to healthy.
    ///
    /// # Errors
    ///
    /// Returns transport/timeout errors or an unexpected reply kind.
    pub fn probe(&self) -> io::Result<()> {
        match self.round_trip_timeout(encode_stats_request, PROBE_TIMEOUT)? {
            ServerMsg::Stats(_) => Ok(()),
            _ => Err(bad_reply("expected stats")),
        }
    }

    /// Fetches the backend's stats snapshot JSON, blocking.
    ///
    /// # Errors
    ///
    /// Returns transport/timeout errors or an unexpected reply kind.
    pub fn stats_json(&self) -> io::Result<String> {
        match self.round_trip(encode_stats_request)? {
            ServerMsg::Stats(json) => Ok(json),
            _ => Err(bad_reply("expected stats")),
        }
    }

    /// Fetches the backend's Prometheus metrics text, blocking.
    ///
    /// # Errors
    ///
    /// Returns transport/timeout errors or an unexpected reply kind.
    pub fn metrics_text(&self) -> io::Result<String> {
        match self.round_trip(encode_metrics_request)? {
            ServerMsg::Metrics(text) => Ok(text),
            _ => Err(bad_reply("expected metrics")),
        }
    }

    /// Fetches the backend's active plan JSON, blocking. `None` means
    /// the backend still serves its construction-time layout.
    ///
    /// # Errors
    ///
    /// Returns transport/timeout errors or an unexpected reply kind.
    pub fn plan_json(&self) -> io::Result<Option<String>> {
        match self.round_trip(encode_plan_pull)? {
            ServerMsg::Plan(json) => Ok(json),
            _ => Err(bad_reply("expected plan")),
        }
    }

    /// Scrapes the backend's span buffer (drains it server-side), blocking.
    /// Returns span JSONL — one span per line plus a collector meta line.
    ///
    /// # Errors
    ///
    /// Returns transport/timeout errors or an unexpected reply kind.
    pub fn traces_jsonl(&self) -> io::Result<String> {
        match self.round_trip(encode_traces_request)? {
            ServerMsg::Traces(jsonl) => Ok(jsonl),
            _ => Err(bad_reply("expected traces")),
        }
    }

    /// Pushes a plan to the backend, blocking for the epoch-tagged ack.
    ///
    /// # Errors
    ///
    /// Returns transport/timeout errors; a refused plan surfaces as
    /// `InvalidInput` carrying the backend's error text.
    pub fn push_plan(&self, plan_json: &str) -> io::Result<u64> {
        match self.round_trip(|id| encode_plan_push(id, plan_json))? {
            ServerMsg::PlanAck {
                ok: true, epoch, ..
            } => Ok(epoch),
            ServerMsg::PlanAck { error, .. } => {
                Err(io::Error::new(io::ErrorKind::InvalidInput, error))
            }
            _ => Err(bad_reply("expected plan ack")),
        }
    }

    /// Closes the connection and joins the reader; everything still in
    /// flight is answered with `Rejected(Internal)`.
    pub fn shutdown(&self) {
        self.shared.note_link_down();
        if let Some(reader) = lock_unpoisoned(&self.shared.reader).take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.shutdown();
    }
}
