//! The connection layer: one reactor thread multiplexing every
//! connection over epoll. It is the only code that accepts client
//! sockets (`run_loop`) and the only code that writes reply frames to
//! them (`flush`), for `secemb-serve` and `secemb-router` alike.
//!
//! [`FrameReactor`] owns a nonblocking listener plus a per-connection
//! state machine: read-accumulate → decode length-prefixed frames with
//! the incremental [`FrameDecoder`] → hand each payload to the
//! connection's [`Dispatch`] → queue encoded replies on a
//! completion-ordered write queue flushed on writability, with
//! backpressure (reading pauses while a connection's write queue is over
//! [`WQ_HIGH_WATER`] bytes). Responses leave in completion order under
//! the caller's request id, and a connection that hits EOF still drains
//! every in-flight reply before closing.
//!
//! Replies can complete on any engine worker thread; they cross into the
//! reactor through the [`Outbox`] (a mutexed staging vector plus the
//! reactor's wakeup fd, which shutdown also uses). Dispatch code talks
//! to a connection only through its [`ReplySender`].
//!
//! The same loop carries *outbound* links — streams this process dialed
//! and handshook, such as a router's backend links — attached through
//! [`Outbox::attach`]. They owe no replies, so the drain rule and the
//! idle sweep skip them.

use mio::{Events, Interest, Poll, Token, Waker};
use secemb_telemetry::{Counter, Histogram, Registry};
use secemb_wire::frame::{encode_frame_into, FrameDecoder};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::lock_unpoisoned;

/// Pause reading a connection once its unflushed replies exceed this.
pub const WQ_HIGH_WATER: usize = 1 << 20;
/// Resume reading once the write queue drains below this.
pub const WQ_LOW_WATER: usize = WQ_HIGH_WATER / 2;
/// Per-connection read budget per readiness event; level-triggered epoll
/// re-fires, so capping a firehose connection keeps its peers serviced.
const READ_BUDGET: usize = 256 * 1024;

const LISTENER: Token = Token(usize::MAX);
const WAKEUP: Token = Token(usize::MAX - 1);

/// Per-connection frame handler: called once per decoded payload with a
/// reply handle; returns `false` to close the connection (malformed
/// frame). Every `true` return must eventually produce exactly one reply
/// through the handle — the reactor counts them to drain in-flight
/// replies after EOF.
pub type Dispatch = Box<dyn FnMut(&[u8], &ReplySender) -> bool + Send>;

/// Builds the [`Dispatch`] for each accepted connection (argument: the
/// reactor's connection id).
pub type ConnFactory = Box<dyn FnMut(usize) -> Dispatch + Send>;

/// Write-stage callback: reply-enqueue → socket-write nanoseconds for
/// each flushed reply frame.
pub type WriteRecorder = Box<dyn Fn(u64) + Send>;

/// An outbound link's close hook: runs once, when the reactor drops it.
pub type CloseHook = Box<dyn FnOnce() + Send>;

/// Optional [`FrameReactor::start`] behavior; the default is no metrics
/// and no idle reaping.
#[derive(Default)]
pub struct ReactorConfig {
    /// Registry for the reactor's event-loop metrics (poll-wait and
    /// dispatch durations, ready-batch sizes, backpressure stalls,
    /// read-budget exhaustions, idle reaps). `None` leaves them inert.
    pub registry: Option<Arc<Registry>>,
    /// Reap connections idle (no bytes read or written) longer than
    /// this. `None` (the default) never reaps — the server waits for
    /// peers to close.
    pub idle_timeout: Option<Duration>,
}

/// The reactor's own observability: what the event loop spends its time
/// on and which safety valves fire. All handles come from one registry
/// (inert when the reactor was started without one), so enabling them
/// cannot change scheduling — recording is a relaxed atomic op.
struct ReactorMetrics {
    /// Time blocked in `epoll_wait` per wakeup.
    poll_wait_ns: Arc<Histogram>,
    /// Time spent servicing one wakeup's readiness events (reads,
    /// dispatches, flushes).
    dispatch_ns: Arc<Histogram>,
    /// Readiness events delivered per wakeup.
    ready_batch: Arc<Histogram>,
    /// Cross-thread replies drained from the outbox per wakeup.
    outbox_drained: Arc<Histogram>,
    /// A connection's unflushed reply queue depth, sampled when worker
    /// replies join it.
    conn_wq_depth: Arc<Histogram>,
    /// Reads paused because a connection's write queue crossed
    /// [`WQ_HIGH_WATER`].
    backpressure_stalls: Arc<Counter>,
    /// Reads cut short by the per-event fairness budget.
    read_budget_exhausted: Arc<Counter>,
    /// Connections closed by the idle sweep.
    idle_reaped: Arc<Counter>,
}

impl ReactorMetrics {
    fn new(registry: Option<&Arc<Registry>>) -> ReactorMetrics {
        let disabled = Registry::disabled();
        let r = registry.map_or(&disabled, Arc::as_ref);
        ReactorMetrics {
            poll_wait_ns: r.histogram("reactor_poll_wait_ns"),
            dispatch_ns: r.histogram("reactor_dispatch_ns"),
            ready_batch: r.histogram("reactor_ready_batch"),
            outbox_drained: r.histogram("reactor_outbox_drained"),
            conn_wq_depth: r.histogram("reactor_conn_wq_depth"),
            backpressure_stalls: r.counter("reactor_backpressure_stalls_total"),
            read_budget_exhausted: r.counter("reactor_read_budget_exhausted_total"),
            idle_reaped: r.counter("reactor_idle_reaped_total"),
        }
    }
}

/// Where a dispatched request's encoded reply goes: the reactor's
/// outbox, tagged with the owning connection id. The outbox stamps the
/// enqueue instant so the write stage can be attributed.
#[derive(Clone)]
pub struct ReplySender {
    outbox: Arc<Outbox>,
    conn: usize,
}

impl ReplySender {
    /// Queues one encoded reply frame for this connection. Never fails:
    /// a closed connection silently drops the frame.
    pub fn send(&self, frame: Vec<u8>) {
        self.outbox
            .stage(Staged::Frame(self.conn, Instant::now(), frame));
    }
}

/// An outbound link's handle: where its frames go, and what the reactor
/// has seen of it.
pub struct LinkSender {
    link: ReplySender,
    state: Arc<LinkState>,
}

/// What the reactor shares with an outbound link's [`LinkSender`].
struct LinkState {
    /// Framed bytes handed over and not yet written to the socket.
    unflushed: AtomicUsize,
    /// When the reactor last read a byte off the link.
    last_read: Mutex<Instant>,
}

impl LinkSender {
    /// Queues one frame payload on the link; never blocks. A link the
    /// reactor already dropped discards it.
    ///
    /// # Errors
    ///
    /// Nothing is queued on `NotConnected` (the reactor has stopped) or
    /// on `WouldBlock` (over [`WQ_HIGH_WATER`] bytes are unflushed — the
    /// peer is not reading).
    pub fn send(&self, payload: Vec<u8>) -> io::Result<()> {
        if self.link.outbox.stopped.load(Ordering::SeqCst) {
            return Err(io::ErrorKind::NotConnected.into());
        }
        if self.state.unflushed.load(Ordering::Relaxed) >= WQ_HIGH_WATER {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let unflushed = &self.state.unflushed;
        unflushed.fetch_add(4 + payload.len(), Ordering::Relaxed);
        self.link.send(payload);
        Ok(())
    }

    /// When the reactor last read a byte off the link (until the first
    /// one, when it was attached).
    pub fn last_read(&self) -> Instant {
        *lock_unpoisoned(&self.state.last_read)
    }

    /// Asks the reactor to drop the link.
    pub fn close(&self) {
        self.link.outbox.stage(Staged::Close(self.link.conn));
    }
}

/// Work crossing into the reactor thread, applied in staging order.
enum Staged {
    /// A frame payload for a connection, with its enqueue instant.
    Frame(usize, Instant, Vec<u8>),
    Attach(usize, Box<Conn>),
    Close(usize),
    Listen(TcpListener, ConnFactory),
}

/// The reactor's shared side: a staging queue for work arriving from
/// other threads — replies, link frames, attaches — which the reactor
/// drains in order once the wakeup fd fires, plus what those threads
/// need to hand it sockets and to stop it.
pub struct Outbox {
    queue: Mutex<Vec<Staged>>,
    waker: Waker,
    /// The reactor's epoll set, so a handed-over socket is registered —
    /// and its error reported — on the thread that hands it over.
    registry: mio::Registry,
    /// Connection ids, shared by accepted and attached connections.
    next_id: AtomicUsize,
    /// Open client connections.
    live_conns: AtomicU64,
    stopped: AtomicBool,
}

impl Outbox {
    /// Hands a connected, handshaken `stream` to the reactor as an
    /// outbound link: `dispatch` receives each frame the peer sends (its
    /// reply handle unused), and `on_close` runs once the link is
    /// dropped — on EOF, an I/O error, a refused frame, `close`, or stop.
    ///
    /// # Errors
    ///
    /// Returns `NotConnected` once the reactor has stopped, and the
    /// stream's nonblocking-mode or registration error; `on_close` then
    /// never runs.
    pub fn attach(
        self: &Arc<Self>,
        stream: TcpStream,
        dispatch: Dispatch,
        on_close: CloseHook,
    ) -> io::Result<LinkSender> {
        if self.stopped.load(Ordering::SeqCst) {
            return Err(io::ErrorKind::NotConnected.into());
        }
        stream.set_nonblocking(true)?;
        let conn = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.registry
            .register(&stream, Token(conn), Interest::READABLE)?;
        let state = Arc::new(LinkState {
            unflushed: AtomicUsize::new(0),
            last_read: Mutex::new(Instant::now()),
        });
        let mut link = Conn::new(stream, dispatch, Some(Arc::clone(&state)));
        link.on_close = Some(on_close);
        self.stage(Staged::Attach(conn, Box::new(link)));
        let link = ReplySender {
            outbox: Arc::clone(self),
            conn,
        };
        Ok(LinkSender { link, state })
    }

    fn stage(&self, item: Staged) {
        let was_empty = {
            let mut q = lock_unpoisoned(&self.queue);
            let was_empty = q.is_empty();
            q.push(item);
            was_empty
        };
        // One wake per drain cycle: while the queue is non-empty the
        // reactor already owes us a drain pass.
        if was_empty {
            let _ = self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<Staged> {
        std::mem::take(&mut *lock_unpoisoned(&self.queue))
    }
}

/// One reply frame in (or partially through) a connection's write queue.
struct PendingWrite {
    bytes: Vec<u8>,
    written: usize,
    enqueued: Instant,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    dispatch: Dispatch,
    wq: std::collections::VecDeque<PendingWrite>,
    wq_bytes: usize,
    /// Frames dispatched (each owes exactly one reply)…
    dispatched: u64,
    /// …and replies enqueued so far; the difference is in-flight work.
    replied: u64,
    /// Reading stopped: EOF seen or dispatch refused a frame. The
    /// connection stays alive until in-flight replies drain.
    closing: bool,
    /// Reading suspended by write-queue backpressure.
    read_paused: bool,
    /// Interest currently registered with epoll (`None` = deregistered).
    registered: Option<Interest>,
    /// Last instant any byte moved on this socket (either direction);
    /// the idle sweep compares against it.
    last_activity: Instant,
    /// `Some` for an outbound link: what it shares with its
    /// [`LinkSender`].
    outbound: Option<Arc<LinkState>>,
    /// An outbound link's close hook, run when the connection drops.
    on_close: Option<CloseHook>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        if let Some(on_close) = self.on_close.take() {
            on_close();
        }
    }
}

impl Conn {
    fn new(stream: TcpStream, dispatch: Dispatch, outbound: Option<Arc<LinkState>>) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            dispatch,
            wq: std::collections::VecDeque::new(),
            wq_bytes: 0,
            dispatched: 0,
            replied: 0,
            closing: false,
            read_paused: false,
            registered: Some(Interest::READABLE),
            last_activity: Instant::now(),
            outbound,
            on_close: None,
        }
    }

    fn desired_interest(&self) -> Option<Interest> {
        let read = !self.closing && !self.read_paused;
        let write = !self.wq.is_empty();
        match (read, write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            // A fully-quiesced closing connection waits off-epoll for
            // its in-flight replies; the outbox wakeup re-arms it.
            (false, false) => None,
        }
    }

    /// Frames `payload` (length prefix + bytes) onto the write queue —
    /// dispatch hands over raw payloads.
    fn enqueue(&mut self, enqueued: Instant, payload: &[u8]) {
        let mut bytes = Vec::with_capacity(4 + payload.len());
        encode_frame_into(&mut bytes, payload);
        self.wq_bytes += bytes.len();
        self.wq.push_back(PendingWrite {
            bytes,
            written: 0,
            enqueued,
        });
        self.replied += 1;
    }

    /// True once a closing connection has nothing left to write and no
    /// reply still in flight; a closing outbound link owes nothing.
    fn drained(&self) -> bool {
        self.closing
            && (self.outbound.is_some() || (self.wq.is_empty() && self.dispatched == self.replied))
    }
}

/// A running reactor: one OS thread serving every connection, accepted
/// or attached. Connection count is O(1) in threads.
pub struct FrameReactor {
    addr: SocketAddr,
    outbox: Arc<Outbox>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl FrameReactor {
    /// [`FrameReactor::spawn`], then [`FrameReactor::listen`]: `factory`
    /// builds each accepted connection's [`Dispatch`];
    /// `on_write_ns` receives each flushed reply's enqueue→write time;
    /// event-loop metrics land in `config.registry`, and
    /// `config.idle_timeout` arms the idle-connection sweep.
    ///
    /// # Errors
    ///
    /// Returns setup errors (epoll creation, registration, spawn).
    pub fn start(
        listener: TcpListener,
        factory: ConnFactory,
        on_write_ns: WriteRecorder,
        config: ReactorConfig,
    ) -> io::Result<FrameReactor> {
        let mut reactor = FrameReactor::spawn(on_write_ns, config)?;
        reactor.addr = reactor.listen(listener, factory)?;
        Ok(reactor)
    }

    /// Starts the reactor thread with no listener: it carries only the
    /// links attached through [`FrameReactor::outbox`] until `listen`.
    ///
    /// # Errors
    ///
    /// Returns setup errors (epoll creation, spawn).
    pub fn spawn(on_write_ns: WriteRecorder, config: ReactorConfig) -> io::Result<FrameReactor> {
        let poll = Poll::new()?;
        let outbox = Arc::new(Outbox {
            queue: Mutex::new(Vec::new()),
            waker: Waker::new(poll.registry(), WAKEUP)?,
            registry: poll.registry().try_clone()?,
            next_id: AtomicUsize::new(0),
            live_conns: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
        });
        let handle = {
            let outbox = Arc::clone(&outbox);
            std::thread::Builder::new()
                .name("secemb-reactor".into())
                .spawn(move || run_loop(poll, &outbox, &on_write_ns, &config))?
        };
        Ok(FrameReactor {
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            outbox,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Hands the reactor its client listener and returns its address.
    ///
    /// # Errors
    ///
    /// Returns the listener's address, nonblocking-mode or registration
    /// error.
    pub fn listen(&self, listener: TcpListener, factory: ConnFactory) -> io::Result<SocketAddr> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let registry = &self.outbox.registry;
        registry.register(&listener, LISTENER, Interest::READABLE)?;
        self.outbox.stage(Staged::Listen(listener, factory));
        Ok(addr)
    }

    /// The bound address of a reactor built by [`FrameReactor::start`]
    /// (resolves ephemeral ports); unspecified after a bare `spawn`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handle outbound links are attached through.
    pub fn outbox(&self) -> Arc<Outbox> {
        Arc::clone(&self.outbox)
    }

    /// Currently-open client connections (for tests and capacity asserts).
    pub fn connections(&self) -> u64 {
        self.outbox.live_conns.load(Ordering::Relaxed)
    }

    /// Stops the reactor thread and closes every connection. Replies
    /// already queued are not flushed — callers quiesce first.
    pub fn shutdown(self) {
        self.stop();
    }

    /// [`FrameReactor::shutdown`] through a shared reference; idempotent.
    /// Links attached afterwards are refused, and their frames too.
    pub fn stop(&self) {
        if self.outbox.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.outbox.waker.wake();
        if let Some(handle) = lock_unpoisoned(&self.handle).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FrameReactor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[allow(clippy::too_many_lines)]
fn run_loop(
    mut poll: Poll,
    outbox: &Arc<Outbox>,
    on_write_ns: &WriteRecorder,
    config: &ReactorConfig,
) {
    let metrics = ReactorMetrics::new(config.registry.as_ref());
    let (stop, live_conns) = (&outbox.stopped, &outbox.live_conns);
    // With reaping armed, epoll must wake even on a silent fleet, so the
    // sweep can run; a quarter of the timeout bounds reap latency to
    // ~1.25× the configured idle time without busy-waking.
    let poll_timeout = config
        .idle_timeout
        .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)));
    let mut last_sweep = Instant::now();

    let mut events = Events::with_capacity(1024);
    let mut listener: Option<(TcpListener, ConnFactory)> = None;
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut dead: Vec<usize> = Vec::new();

    // `stop` is read again before every poll: the `WAKEUP` arm's drain
    // may swallow the shutdown wake that arrived after the read below.
    while !stop.load(Ordering::SeqCst) {
        let wait_start = Instant::now();
        if poll.poll(&mut events, poll_timeout).is_err() {
            // Unrecoverable epoll failure; nothing to serve without it.
            break;
        }
        metrics
            .poll_wait_ns
            .record(wait_start.elapsed().as_nanos() as u64);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let service_start = Instant::now();
        metrics.ready_batch.record(events.iter().count() as u64);

        for event in &events {
            match event.token() {
                LISTENER => {
                    // Registered before it is handed over: until then,
                    // level-triggered epoll simply re-fires.
                    let Some((listener, factory)) = listener.as_mut() else {
                        continue;
                    };
                    // Accept until the backlog is empty; new sockets join
                    // epoll, no thread spawn on this path.
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err()
                                    || stream.set_nodelay(true).is_err()
                                {
                                    continue;
                                }
                                let id = outbox.next_id.fetch_add(1, Ordering::Relaxed);
                                if poll
                                    .registry()
                                    .register(&stream, Token(id), Interest::READABLE)
                                    .is_err()
                                {
                                    continue;
                                }
                                conns.insert(id, Conn::new(stream, factory(id), None));
                                live_conns.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            // Transient (aborted handshake, fd pressure):
                            // the listener stays registered and re-fires.
                            Err(_) => break,
                        }
                    }
                }
                WAKEUP => outbox.waker.drain(),
                Token(id) => {
                    let Some(conn) = conns.get_mut(&id) else {
                        continue; // already removed, or not yet attached
                    };
                    if event.is_readable() && !conn.closing {
                        let outbox_handle = ReplySender {
                            outbox: Arc::clone(outbox),
                            conn: id,
                        };
                        if !read_and_dispatch(conn, &mut read_buf, &outbox_handle, &metrics) {
                            // I/O error beyond EOF: nothing more can be
                            // read *or* written reliably.
                            dead.push(id);
                            continue;
                        }
                    }
                    if event.is_writable() && !flush(conn, on_write_ns) {
                        dead.push(id);
                    }
                }
            }
        }

        // Work from other threads — replies that completed on engine
        // workers, link frames, attaches — joins in staging order.
        let staged = outbox.drain();
        metrics.outbox_drained.record(staged.len() as u64);
        for item in staged {
            match item {
                Staged::Frame(id, t0, frame) => {
                    if let Some(conn) = conns.get_mut(&id) {
                        conn.enqueue(t0, &frame);
                        metrics.conn_wq_depth.record(conn.wq.len() as u64);
                    }
                    // else: the connection died with requests in flight; drop.
                }
                Staged::Attach(id, link) => drop(conns.insert(id, *link)),
                Staged::Close(id) => dead.push(id),
                Staged::Listen(l, factory) => listener = Some((l, factory)),
            }
        }

        // Idle sweep: reap client connections with no socket activity for
        // the configured window and nothing owed in either direction — a
        // mid-frame read buffer or an in-flight reply keeps a slow peer
        // alive; only truly quiescent connections go.
        if let Some(idle) = config.idle_timeout {
            if last_sweep.elapsed() >= idle / 4 {
                last_sweep = Instant::now();
                for (&id, conn) in &conns {
                    if conn.outbound.is_none()
                        && conn.last_activity.elapsed() > idle
                        && conn.wq.is_empty()
                        && conn.dispatched == conn.replied
                        && conn.decoder.is_clean()
                    {
                        dead.push(id);
                        metrics.idle_reaped.inc();
                    }
                }
            }
        }

        // Eager flush (skip a poll round when the socket has room),
        // backpressure bookkeeping, interest reconciliation, reaping.
        for (&id, conn) in &mut conns {
            if !conn.wq.is_empty() && !flush(conn, on_write_ns) {
                dead.push(id);
                continue;
            }
            if conn.read_paused && conn.wq_bytes < WQ_LOW_WATER {
                conn.read_paused = false;
            }
            if conn.drained() {
                dead.push(id);
                continue;
            }
            let desired = conn.desired_interest();
            if desired != conn.registered {
                let ok = match (conn.registered, desired) {
                    (Some(_), Some(interest)) => poll
                        .registry()
                        .reregister(&conn.stream, Token(id), interest)
                        .is_ok(),
                    (None, Some(interest)) => poll
                        .registry()
                        .register(&conn.stream, Token(id), interest)
                        .is_ok(),
                    (Some(_), None) => poll.registry().deregister(&conn.stream).is_ok(),
                    (None, None) => true,
                };
                if ok {
                    conn.registered = desired;
                } else {
                    dead.push(id);
                }
            }
        }

        // Dropping a connection closes it and runs any close hook.
        for id in dead.drain(..) {
            if let Some(conn) = conns.remove(&id) {
                if conn.registered.is_some() {
                    let _ = poll.registry().deregister(&conn.stream);
                }
                if conn.outbound.is_none() {
                    live_conns.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }

        metrics
            .dispatch_ns
            .record(service_start.elapsed().as_nanos() as u64);
    }

    live_conns.store(0, Ordering::Relaxed);
    // Dropping `conns` and whatever is still staged closes every socket
    // (running close hooks); dropping `poll` closes epoll.
    drop(outbox.drain());
}

/// Reads up to the per-event budget, decodes and dispatches complete
/// frames. Returns `false` on a hard I/O error (connection unusable);
/// EOF and protocol errors instead mark the connection closing so queued
/// and in-flight replies still drain.
fn read_and_dispatch(
    conn: &mut Conn,
    buf: &mut [u8],
    replies: &ReplySender,
    metrics: &ReactorMetrics,
) -> bool {
    let mut taken = 0usize;
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                conn.closing = true; // clean EOF: drain in-flight, then close
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                if let Some(outbound) = &conn.outbound {
                    *lock_unpoisoned(&outbound.last_read) = conn.last_activity;
                }
                conn.decoder.extend(&buf[..n]);
                loop {
                    match conn.decoder.next_frame() {
                        Ok(Some(payload)) => {
                            if (conn.dispatch)(&payload, replies) {
                                conn.dispatched += 1;
                            } else {
                                // Malformed frame: unrecoverable framing.
                                conn.closing = true;
                                return true;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Oversized prefix: the stream cannot be
                            // re-synchronized past this point.
                            conn.closing = true;
                            return true;
                        }
                    }
                }
                // An outbound link keeps reading: its replies are what
                // drain the peer, and its writes are bounded at the sender.
                if conn.outbound.is_none() && conn.wq_bytes >= WQ_HIGH_WATER {
                    conn.read_paused = true;
                    metrics.backpressure_stalls.inc();
                    break;
                }
                taken += n;
                if taken >= READ_BUDGET {
                    metrics.read_budget_exhausted.inc();
                    break; // level-triggered epoll re-fires for the rest
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Writes queued frames until the socket blocks or the queue empties,
/// recording each completed reply frame's write stage (an outbound
/// link's frames are not replies). Returns `false` on a write error.
fn flush(conn: &mut Conn, on_write_ns: &WriteRecorder) -> bool {
    while let Some(front) = conn.wq.front_mut() {
        match conn.stream.write(&front.bytes[front.written..]) {
            Ok(n) => {
                conn.last_activity = Instant::now();
                front.written += n;
                conn.wq_bytes -= n;
                if let Some(outbound) = &conn.outbound {
                    outbound.unflushed.fetch_sub(n, Ordering::Relaxed);
                }
                if front.written == front.bytes.len() {
                    if conn.outbound.is_none() {
                        on_write_ns(front.enqueued.elapsed().as_nanos() as u64);
                    }
                    conn.wq.pop_front();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb_wire::frame::{read_frame, write_frame};
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::time::Duration;

    /// Echo reactor: replies to every frame with its payload reversed.
    fn start_echo() -> FrameReactor {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        FrameReactor::start(
            listener,
            Box::new(|_conn| {
                Box::new(|payload: &[u8], replies: &ReplySender| {
                    if payload == b"bad" {
                        return false;
                    }
                    let mut reversed = payload.to_vec();
                    reversed.reverse();
                    // Dispatch hands over the raw payload; the reactor
                    // owns framing and flushing.
                    replies.send(reversed);
                    true
                })
            }),
            Box::new(|_ns| {}),
            ReactorConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn echo_round_trip_and_pipelining() {
        let reactor = start_echo();
        let stream = TcpStream::connect(reactor.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        // Pipeline several frames before reading any reply.
        for msg in [&b"alpha"[..], b"bravo", b"charlie"] {
            write_frame(&mut w, msg).unwrap();
        }
        for msg in [&b"alpha"[..], b"bravo", b"charlie"] {
            let mut want = msg.to_vec();
            want.reverse();
            assert_eq!(read_frame(&mut reader).unwrap(), want);
        }
        reactor.shutdown();
    }

    #[test]
    fn eof_drains_inflight_replies_before_close() {
        let reactor = start_echo();
        let stream = TcpStream::connect(reactor.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        write_frame(&mut w, b"last-words").unwrap();
        // Half-close: no more requests, but the reply must still arrive.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = read_frame(&mut reader).unwrap();
        assert_eq!(reply, b"sdrow-tsal");
        assert!(matches!(
            read_frame(&mut reader),
            Err(secemb_wire::frame::FrameError::Closed)
        ));
        reactor.shutdown();
    }

    #[test]
    fn malformed_frame_closes_connection() {
        let reactor = start_echo();
        let stream = TcpStream::connect(reactor.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        write_frame(&mut w, b"ok").unwrap();
        write_frame(&mut w, b"bad").unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), b"ko");
        assert!(read_frame(&mut reader).is_err());
        reactor.shutdown();
    }

    #[test]
    fn idle_sweep_reaps_quiet_connections_and_counts_them() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let registry = Arc::new(Registry::new());
        let reactor = FrameReactor::start(
            listener,
            Box::new(|_conn| {
                Box::new(|payload: &[u8], replies: &ReplySender| {
                    let mut reversed = payload.to_vec();
                    reversed.reverse();
                    replies.send(reversed);
                    true
                })
            }),
            Box::new(|_ns| {}),
            ReactorConfig {
                registry: Some(Arc::clone(&registry)),
                idle_timeout: Some(Duration::from_millis(80)),
            },
        )
        .unwrap();
        let stream = TcpStream::connect(reactor.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        write_frame(&mut w, b"hi").unwrap();
        assert_eq!(read_frame(&mut reader).unwrap(), b"ih");
        // Go quiet without closing: the sweep must cut us loose.
        let t0 = Instant::now();
        while reactor.connections() > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(reactor.connections(), 0, "idle conn not reaped");
        assert!(
            registry.counter("reactor_idle_reaped_total").get() >= 1,
            "reap not counted"
        );
        // The server closed the socket: the client sees EOF.
        assert!(matches!(
            read_frame(&mut reader),
            Err(secemb_wire::frame::FrameError::Closed)
        ));
        // Event-loop metrics recorded real samples along the way.
        let polls = registry.histogram("reactor_poll_wait_ns").snapshot();
        assert!(polls.count > 0, "poll-wait histogram empty");
        reactor.shutdown();
    }

    #[test]
    fn active_connections_survive_the_idle_sweep() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let reactor = FrameReactor::start(
            listener,
            Box::new(|_conn| {
                Box::new(|payload: &[u8], replies: &ReplySender| {
                    let mut reversed = payload.to_vec();
                    reversed.reverse();
                    replies.send(reversed);
                    true
                })
            }),
            Box::new(|_ns| {}),
            ReactorConfig {
                registry: None,
                idle_timeout: Some(Duration::from_millis(120)),
            },
        )
        .unwrap();
        let stream = TcpStream::connect(reactor.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream.try_clone().unwrap();
        // Keep traffic flowing well past several sweep intervals.
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(500) {
            write_frame(&mut w, b"ping").unwrap();
            assert_eq!(read_frame(&mut reader).unwrap(), b"gnip");
            std::thread::sleep(Duration::from_millis(40));
        }
        assert_eq!(reactor.connections(), 1, "active conn was reaped");
        reactor.shutdown();
    }

    #[test]
    fn connection_count_tracks_opens_and_closes() {
        let reactor = start_echo();
        let held: Vec<TcpStream> = (0..8)
            .map(|_| TcpStream::connect(reactor.addr()).unwrap())
            .collect();
        // Force each connection through the reactor (accept is async).
        for stream in &held {
            let mut w = stream.try_clone().unwrap();
            write_frame(&mut w, b"hi").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            assert_eq!(read_frame(&mut reader).unwrap(), b"ih");
        }
        assert_eq!(reactor.connections(), 8);
        drop(held);
        let t0 = std::time::Instant::now();
        while reactor.connections() > 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reactor.connections(), 0, "closed conns not reaped");
        reactor.shutdown();
    }
}
