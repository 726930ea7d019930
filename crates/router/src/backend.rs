//! A pipelined, reconnecting connection to one backend
//! `secemb-serve-server`.
//!
//! The router keeps exactly one TCP connection per backend process and
//! multiplexes every client's traffic over it: each submitted request
//! registers a completion callback under a fresh request id and queues
//! its frame on the link. The link lives on the router's reactor, which
//! fires each reply's callback in completion order — no thread of the
//! backend's own, and nothing that waits on a backend.
//!
//! A backend is allowed to *die and come back*. When the link drops,
//! every in-flight callback fires with `Rejected(Internal)` (nothing is
//! replayed — a retried `Update` that had already crossed the wire
//! would apply twice), and the router's maintenance loop (`maint.rs`)
//! is woken to redial: a blocking dial and `Hello` handshake on its own
//! thread, refusing a peer whose table inventory no longer matches the
//! fleet's, then an attach to the reactor as a new link generation.
//! Between links, [`Backend::call`] fails fast with `NotConnected` so
//! the router can fail the request over to a replica.
//!
//! Time is the maintenance loop's: `Backend::expire` declares a link
//! silent for `backend_idle_timeout` dead and drops fanned-out control
//! frames past their deadline, so no caller ever waits on a backend.

use crate::lock_unpoisoned;
use crate::maint::Wake;
use secemb_serve::protocol::{decode_server, decode_server_traced, encode_hello, ServerMsg};
use secemb_serve::reactor::{LinkSender, Outbox};
use secemb_serve::RejectReason;
use secemb_wire::frame::{read_frame, write_frame};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Invoked with the backend's response (and its echoed trace id, when
/// the request carried one) on the reactor thread.
pub type ReplyCallback = Box<dyn FnOnce(ServerMsg, Option<u64>) + Send>;

/// How long a fanned-out control frame waits for each backend's reply.
pub(crate) const SYNC_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one dial waits for the TCP connect and for each handshake
/// frame.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// One live connection, as the reactor carries it.
struct Link {
    /// Which dial made this link. A close hook or a reply from an older
    /// link names an older generation and is ignored.
    generation: u64,
    sender: LinkSender,
    /// The requests in flight, by request id: each one's callback, and
    /// the deadline past which it is dropped unanswered, if it has one.
    pending: HashMap<u64, (ReplyCallback, Option<Instant>)>,
    /// When the requests in flight started waiting: the idle clock runs
    /// from this or the last byte read, whichever is later.
    busy_since: Instant,
}

fn invalid(why: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

/// One pipelined backend connection, shared as `Arc<Backend>`. Its link
/// lives on the router's reactor; when the link dies it stays down until
/// the router's maintenance loop redials it.
pub struct Backend {
    name: String,
    addr: SocketAddr,
    /// The reactor each link is attached to.
    outbox: Arc<Outbox>,
    link: Mutex<Option<Link>>,
    /// The maintenance loop to wake when the link dies or a deadline is
    /// set, once a router owns this backend.
    wake: OnceLock<mpsc::Sender<Wake>>,
    /// The inventory the backend reported at its most recent `Hello`
    /// handshake: `(rows, dim, per_query_ns, technique label)` per
    /// table.
    tables: Mutex<Vec<(u64, usize, f64, String)>>,
    /// When set, a reconnect handshake reporting a different
    /// `(rows, dim)` shape is refused — a replica that restarted with
    /// different tables must not silently rejoin the fleet.
    expected_shape: Mutex<Option<Vec<(u64, usize)>>>,
    next_id: AtomicU64,
    generations: AtomicU64,
    reconnects: AtomicU64,
    connect_failures: AtomicU64,
    /// Response frames whose id matched nothing pending (duplicate or
    /// stale replies from a misbehaving backend, or replies past their
    /// deadline).
    unmatched_replies: AtomicU64,
}

impl Backend {
    /// Dials `addr` once, performs the `Hello` handshake (which returns
    /// the backend's table inventory), and attaches the link to the
    /// reactor behind `outbox`. A peer that is down is tolerated: the
    /// backend starts with its link down, and under a [`crate::Router`]
    /// it joins the fleet when a redial first succeeds.
    ///
    /// # Errors
    ///
    /// Returns an error only if `addr` does not resolve (a
    /// configuration problem, not a liveness one).
    pub fn start<A: ToSocketAddrs>(
        name: &str,
        addr: A,
        outbox: Arc<Outbox>,
    ) -> io::Result<Arc<Backend>> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "backend address resolves to nothing",
            )
        })?;
        let backend = Arc::new(Backend {
            name: name.to_string(),
            addr,
            outbox,
            link: Mutex::new(None),
            wake: OnceLock::new(),
            tables: Mutex::new(Vec::new()),
            expected_shape: Mutex::new(None),
            next_id: AtomicU64::new(1),
            generations: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            connect_failures: AtomicU64::new(0),
            unmatched_replies: AtomicU64::new(0),
        });
        if backend.connect().is_err() {
            backend.connect_failures.fetch_add(1, Ordering::Relaxed);
        }
        Ok(backend)
    }

    /// Dials and handshakes, blocking for at most [`CONNECT_TIMEOUT`] per
    /// step, then attaches the stream to the reactor as a fresh link
    /// generation.
    fn connect(self: &Arc<Self>) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        // A peer that accepts but never answers `Hello` must not wedge
        // the maintenance loop.
        stream.set_read_timeout(Some(CONNECT_TIMEOUT))?;
        // Unbuffered: the reply is read to its last byte and no further,
        // because the reactor reads everything after it.
        write_frame(&mut &stream, &encode_hello(0, "router"))?;
        let payload = read_frame(&mut &stream).map_err(invalid)?;
        let Ok((0, ServerMsg::Tables(tables))) = decode_server(&payload) else {
            return Err(invalid("expected the hello inventory"));
        };
        if let Some(expected) = lock_unpoisoned(&self.expected_shape).as_ref() {
            let got: Vec<(u64, usize)> = tables.iter().map(|t| (t.0, t.1)).collect();
            if got != *expected {
                let name = &self.name;
                return Err(invalid(format!(
                    "backend {name} rejoined with a different table set"
                )));
            }
        }
        *lock_unpoisoned(&self.tables) = tables;
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        let (replies, closes) = (Arc::downgrade(self), Arc::downgrade(self));
        // Attach and install under the link lock, which the close hook
        // also takes: a link that dies at once is torn down after it is
        // installed, never before.
        let mut link = lock_unpoisoned(&self.link);
        let sender = self.outbox.attach(
            stream,
            Box::new(move |payload: &[u8], _| {
                let backend = replies.upgrade();
                backend.is_some_and(|b| b.land(generation, payload))
            }),
            Box::new(move || {
                if let Some(b) = closes.upgrade() {
                    b.note_link_down(generation);
                }
            }),
        )?;
        *link = Some(Link {
            generation,
            sender,
            pending: HashMap::new(),
            busy_since: Instant::now(),
        });
        Ok(())
    }

    /// One response frame off link `generation`, on the reactor thread:
    /// fires its request's callback. Returns `false` — closing the link —
    /// when the frame does not decode.
    fn land(&self, generation: u64, payload: &[u8]) -> bool {
        let Ok((id, msg, trace)) = decode_server_traced(payload) else {
            return false; // protocol desync: unrecoverable
        };
        let pending = lock_unpoisoned(&self.link)
            .as_mut()
            .filter(|link| link.generation == generation)
            .and_then(|link| link.pending.remove(&id));
        match pending {
            Some((callback, _)) => callback(msg, trace),
            // A reply nothing asked for: a duplicate frame, a stale id
            // from before a reconnect, or one past its deadline. Count it
            // and keep the stream alive — the frame itself parsed fine.
            None => {
                self.unmatched_replies.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Tears down link `generation` if it is still the current one:
    /// closes it, orphan-rejects every in-flight request and wakes the
    /// maintenance loop. The link's close hook, and the idle check, call
    /// this; a stale generation is ignored.
    pub(crate) fn note_link_down(&self, generation: u64) {
        self.tear_down(|link| link.generation == generation);
    }

    fn tear_down(&self, which: impl FnOnce(&Link) -> bool) {
        let Some(link) = lock_unpoisoned(&self.link).take_if(|link| which(link)) else {
            return;
        };
        link.sender.close();
        // The connection is gone: answer everything still in flight so
        // no client request hangs on a dead host. Nothing is replayed.
        for (callback, _) in link.pending.into_values() {
            callback(ServerMsg::Rejected(RejectReason::Internal), None);
        }
        self.wake();
    }

    fn wake(&self) {
        if let Some(wake) = self.wake.get() {
            let _ = wake.send(Wake::Tick);
        }
    }

    /// The link's clock at `now`: declares it dead when requests are in
    /// flight and no byte has arrived for `idle`, and drops, unanswered,
    /// every request past its deadline. Returns when to look again —
    /// the nearest request deadline, the idle deadline while requests are
    /// in flight, or `now + idle` (a request may start the clock) — or
    /// `None` with the link down.
    pub(crate) fn expire(&self, now: Instant, idle: Option<Duration>) -> Option<Instant> {
        let mut guard = lock_unpoisoned(&self.link);
        let link = guard.as_mut()?;
        let busy = !link.pending.is_empty();
        let heard = link.busy_since.max(link.sender.last_read());
        let idle_at = idle.map(|idle| if busy { heard + idle } else { now + idle });
        if busy && idle_at.is_some_and(|at| at <= now) {
            // Requests in flight and silence for a whole window: a
            // half-open peer.
            let generation = link.generation;
            drop(guard);
            self.note_link_down(generation);
            return None;
        }
        let overdue: Vec<u64> = (link.pending.iter())
            .filter(|(_, (_, deadline))| deadline.is_some_and(|at| at <= now))
            .map(|(&id, _)| id)
            .collect();
        let overdue: Vec<_> = overdue.iter().map(|id| link.pending.remove(id)).collect();
        let deadlines = link.pending.values().filter_map(|(_, deadline)| *deadline);
        let next = deadlines.chain(idle_at).min();
        // Dropped off-lock: a fan-out's last callback answers its caller,
        // which may call this backend again.
        drop(guard);
        drop(overdue);
        next
    }

    /// Has every later link death, and every deadline set, wake the
    /// maintenance loop behind `wake`.
    pub(crate) fn wake_on_link_down(&self, wake: mpsc::Sender<Wake>) {
        let _ = self.wake.set(wake);
    }

    /// Dials and handshakes afresh, counting the outcome as a reconnect
    /// or a connect failure.
    pub(crate) fn redial(self: &Arc<Self>) -> io::Result<()> {
        let dialed = self.connect();
        let outcome = if dialed.is_ok() {
            &self.reconnects
        } else {
            &self.connect_failures
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        dialed
    }

    /// The backend's display name (used as the `backend` metric label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The inventory reported at the most recent handshake (empty if
    /// the backend has never connected).
    pub fn tables(&self) -> Vec<(u64, usize, f64, String)> {
        lock_unpoisoned(&self.tables).clone()
    }

    /// Pins the `(rows, dim)` shape a reconnect handshake must report;
    /// a peer that restarted with different tables is refused.
    pub fn set_expected_shape(&self, shape: Vec<(u64, usize)>) {
        *lock_unpoisoned(&self.expected_shape) = Some(shape);
    }

    /// Whether the link is currently up.
    pub fn is_up(&self) -> bool {
        lock_unpoisoned(&self.link).is_some()
    }

    /// Successful reconnects (the initial connect does not count).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Failed connect attempts (the initial dial and every redial).
    pub fn connect_failures(&self) -> u64 {
        self.connect_failures.load(Ordering::Relaxed)
    }

    /// Response frames that matched no pending request.
    pub fn unmatched_replies(&self) -> u64 {
        self.unmatched_replies.load(Ordering::Relaxed)
    }

    /// Submits one request: `encode` receives a fresh request id and
    /// returns the frame payload; `callback` fires on the reactor thread
    /// when the response arrives (or with `Rejected(Internal)` if the
    /// link dies first). Never blocks: the frame is queued on the link.
    ///
    /// # Errors
    ///
    /// Returns `NotConnected` when the link is down, and `WouldBlock`
    /// when the link's write queue is past
    /// [`WQ_HIGH_WATER`](secemb_serve::reactor::WQ_HIGH_WATER) — the
    /// backend is not reading. On error the callback is dropped without
    /// being invoked: nothing crossed the wire, so the caller may safely
    /// retry on a replica, even for `Update` traffic.
    pub fn call(
        &self,
        encode: impl FnOnce(u64) -> Vec<u8>,
        callback: ReplyCallback,
    ) -> io::Result<u64> {
        self.submit(encode, None, callback)
    }

    /// [`Backend::call`], with the request dropped unanswered — its
    /// callback never invoked — once `deadline` passes.
    fn submit(
        &self,
        encode: impl FnOnce(u64) -> Vec<u8>,
        deadline: Option<Instant>,
        callback: ReplyCallback,
    ) -> io::Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let payload = encode(id);
        let mut guard = lock_unpoisoned(&self.link);
        let Some(link) = guard.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("backend {} is down", self.name),
            ));
        };
        link.sender.send(payload)?;
        // Registered under the lock the reactor takes to match the
        // reply, so the reply cannot overtake its callback.
        if link.pending.is_empty() {
            link.busy_since = Instant::now();
        }
        link.pending.insert(id, (callback, deadline));
        drop(guard);
        if deadline.is_some() {
            self.wake();
        }
        Ok(id)
    }

    /// Closes the link; everything still in flight is answered with
    /// `Rejected(Internal)`.
    pub fn shutdown(&self) {
        self.tear_down(|_| true);
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One backend's reply to a fanned-out frame, or why it has none.
pub(crate) type Reply = Result<ServerMsg, String>;

/// Why a backend's reply is not the kind asked for.
pub(crate) fn failure(reply: Reply) -> String {
    match reply {
        Ok(msg) => format!("unexpected backend reply: {msg:?}"),
        Err(e) => e,
    }
}

/// One fanned-out frame in flight: a reply slot per backend. `done` runs
/// when the last callback holding it lets go — fired, refused at send or
/// dropped at its deadline — so it runs exactly once.
struct Fanout<F: FnOnce(Vec<Reply>)> {
    slots: Vec<Reply>,
    done: Option<F>,
}

impl<F: FnOnce(Vec<Reply>)> Drop for Fanout<F> {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done(std::mem::take(&mut self.slots));
        }
    }
}

/// Sends one frame to each of `backends`, each due within `timeout`,
/// and hands `done` the replies in backend order once every one is
/// home, refused or overdue — on the reactor thread, the maintenance
/// loop, or (nothing sent) the caller's. Nothing here waits.
pub(crate) fn fan_out(
    backends: &[Arc<Backend>],
    timeout: Duration,
    encode: impl Fn(u64) -> Vec<u8>,
    done: impl FnOnce(Vec<Reply>) + Send + 'static,
) {
    let fanout = Arc::new(Mutex::new(Fanout {
        slots: vec![Err("timed out".to_string()); backends.len()],
        done: Some(done),
    }));
    let deadline = Instant::now() + timeout;
    for (slot, backend) in backends.iter().enumerate() {
        let home = Arc::clone(&fanout);
        let fill = move |msg, _| lock_unpoisoned(&home).slots[slot] = Ok(msg);
        if let Err(e) = backend.submit(&encode, Some(deadline), Box::new(fill)) {
            lock_unpoisoned(&fanout).slots[slot] = Err(e.to_string());
        }
    }
}
