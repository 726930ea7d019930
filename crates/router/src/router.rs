//! The router front-end: the unmodified serving protocol on the client
//! side, a pipelined backend fleet behind it.
//!
//! Client connections and backend links run on one serving-layer
//! [`FrameReactor`] — the router has no socket loop of its own — but
//! dispatch resolves against the [`Placement`] instead of a local
//! engine. A lookup frame is N ≥ 1 parts; its parts become one *hop* per
//! serving host (`Generate`/`Update`: one), every hop is sent by
//! `route`, and the replies come home through the serving layer's
//! [`Gather`] and part-order merge — the same pair the server uses for
//! its own parts. `Stats`, `Metrics`, `Traces`
//! and the plan frames fan out to the whole fleet the same way, one slot
//! per backend, and are answered from the last reply home, so a scrape
//! through the router sees every backend and never waits on the reactor
//! thread.
//!
//! Every proxied lookup is stamped with a trace id (the client's, or a
//! router-assigned one), so backend-side stage breakdowns can be joined
//! with the router-side `router_route_ns` / `router_merge_ns`
//! histograms into one cross-host span.
//!
//! A router runs two threads, whatever its fleet size: the reactor, on
//! which every reply callback runs, and the maintenance loop
//! (`maint.rs`) that redials dead links, declares silent ones dead,
//! probes tripped backends and gossips plans.

use crate::backend::{self, failure, Backend, Reply, SYNC_TIMEOUT};
use crate::gossip::{self, acked, newer, pulled, GossipReport};
use crate::maint::{MaintThread, Maintenance};
use crate::placement::Placement;
use secemb_serve::protocol::{
    decode_client_traced, encode_generate_multi, encode_generate_traced, encode_metrics,
    encode_metrics_request, encode_plan, encode_plan_ack, encode_plan_pull, encode_plan_push,
    encode_response_traced, encode_stats, encode_stats_request, encode_table_list, encode_traces,
    encode_traces_request, encode_update_traced, reply_fits, ClientMsg, ServerMsg,
};
use secemb_serve::reactor::{Dispatch, FrameReactor, ReactorConfig};
use secemb_serve::{Fill, Gather, Landed, RejectReason, ReplySender, Response, TraceSettings};
use secemb_telemetry::{Counter, Gauge, Histogram, Registry, SpanCollector, TraceCtx};
use secemb_wire::json::{self, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address (port 0 for ephemeral).
    pub bind: String,
    /// `(name, address)` per backend; the name keys placement and the
    /// `backend` metric label.
    pub backends: Vec<(String, String)>,
    /// Plan-gossip round interval on the maintenance loop; `None`
    /// disables periodic rounds (gossip can still be driven via
    /// [`Router::gossip_now`], and recovery still gossips).
    pub gossip_interval: Option<Duration>,
    /// Where the winning plan's crossovers are persisted (in the
    /// `ProfileArtifact` format) after each gossip round.
    pub profile_out: Option<PathBuf>,
    /// Declare a backend dead when requests are in flight and it sends
    /// nothing for this long — a deadline on the maintenance loop, which
    /// orphan-rejects them all; idleness with nothing in flight is
    /// benign. `None` waits forever (the historical behavior).
    pub backend_idle_timeout: Option<Duration>,
    /// Reap idle *client* connections after this long with no socket
    /// activity; `None` never reaps.
    pub conn_idle: Option<Duration>,
    /// Distributed-tracing settings for the router's own span collector
    /// (host label, head-sampling rate). `None` collects nothing; the
    /// instrumented path still runs with an inert handle.
    pub trace: Option<TraceSettings>,
    /// Consecutive failed replies (`Rejected(Internal)` or send errors)
    /// before a backend's health trips to `Down` and traffic fails over
    /// to the next-ranked replica.
    pub health_trip: u32,
    /// Health-probe interval: every round, backends whose link dropped
    /// are tripped, tripped backends whose link is back are probed, and
    /// on probe success the fleet's newest plan is gossiped to them
    /// *before* they re-admit traffic (no mixed-epoch window). `None`
    /// disables probing — a tripped backend stays tripped.
    pub health_probe: Option<Duration>,
    /// The first redial delay after a backend's link dies. Each failed
    /// dial doubles it, up to 40× this; every delay is jittered into
    /// `[0.5, 1.5)` of itself.
    pub reconnect_base: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            gossip_interval: None,
            profile_out: None,
            backend_idle_timeout: None,
            conn_idle: None,
            trace: None,
            health_trip: 3,
            health_probe: Some(Duration::from_millis(200)),
            reconnect_base: Duration::from_millis(50),
        }
    }
}

/// Router-side telemetry: fan-out shape and per-hop latency, so a
/// cross-host span = router histograms + backend stage breakdowns.
struct RouterMetrics {
    requests_total: Arc<Counter>,
    rejected_local_total: Arc<Counter>,
    fanout_hosts: Arc<Histogram>,
    route_ns: Arc<Histogram>,
    merge_ns: Arc<Histogram>,
    write_ns: Arc<Histogram>,
    gossip_rounds_total: Arc<Counter>,
    gossip_pushes_total: Arc<Counter>,
    plan_version: Arc<Gauge>,
    /// Requests routed to a non-primary replica because the primary was
    /// unhealthy.
    failovers_total: Arc<Counter>,
    health_trips_total: Arc<Counter>,
    health_recoveries_total: Arc<Counter>,
    /// Backend frames that violated the protocol contract (unexpected
    /// kind where embeddings were due, a hop answered twice, a reply
    /// whose rows do not fit its parts) — each degraded to
    /// `Rejected(Internal)` instead of a panic.
    protocol_violations: Arc<Counter>,
}

impl RouterMetrics {
    fn new(registry: &Registry) -> Self {
        RouterMetrics {
            requests_total: registry.counter("router_requests_total"),
            rejected_local_total: registry.counter("router_rejected_local_total"),
            fanout_hosts: registry.histogram("router_fanout_hosts"),
            route_ns: registry.histogram("router_route_ns"),
            merge_ns: registry.histogram("router_merge_ns"),
            write_ns: registry.histogram("router_write_ns"),
            gossip_rounds_total: registry.counter("router_gossip_rounds_total"),
            gossip_pushes_total: registry.counter("router_gossip_pushes_total"),
            plan_version: registry.gauge("router_plan_version"),
            failovers_total: registry.counter("router_failovers_total"),
            health_trips_total: registry.counter("router_health_trips_total"),
            health_recoveries_total: registry.counter("router_health_recoveries_total"),
            protocol_violations: registry.counter("router_protocol_violations_total"),
        }
    }
}

/// Router-side health of one backend: separate from the TCP link state
/// (a backend can be connected yet failing every request), driven by a
/// consecutive-failure trip and a probe-based recovery.
struct HealthState {
    up: AtomicBool,
    consecutive_failures: AtomicU64,
    up_gauge: Arc<Gauge>,
}

pub(crate) struct Inner {
    pub(crate) backends: Vec<Arc<Backend>>,
    placement: Placement,
    /// Per-table ordered failover candidates (rank 0 = the placement's
    /// assignment), precomputed from [`Placement::candidates`].
    candidates: Vec<Vec<usize>>,
    /// Per-backend router-side health, indexed like `backends`.
    health: Vec<HealthState>,
    health_trip: u32,
    /// The fleet's table inventory (identical across backends, verified
    /// at startup): `(rows, dim, per_query_ns, technique label)`.
    inventory: Vec<(u64, usize, f64, String)>,
    pub(crate) registry: Arc<Registry>,
    metrics: RouterMetrics,
    spans: Arc<SpanCollector>,
    profile_out: Option<PathBuf>,
    next_trace: AtomicU64,
    /// Every client connection and backend link. Last, so it drops
    /// after the backends have asked it to close their links.
    pub(crate) reactor: FrameReactor,
}

impl Inner {
    /// Starts one gossip round over the fleet; `done` receives its
    /// report once the round is over, and the gossip series count it.
    pub(crate) fn gossip(self: &Arc<Self>, done: impl FnOnce(GossipReport) + Send + 'static) {
        let inner = Arc::clone(self);
        gossip::round(&self.backends, self.profile_out.clone(), move |report| {
            let metrics = &inner.metrics;
            metrics.gossip_rounds_total.inc();
            metrics.gossip_pushes_total.add(report.pushed.len() as u64);
            if report.winner_version > 0 {
                metrics.plan_version.set(report.winner_version as f64);
            }
            done(report);
        });
    }

    /// Whether backend `host` is currently eligible to serve: its
    /// router-side health is up *and* its TCP link is up.
    pub(crate) fn serving(&self, host: usize) -> bool {
        self.health[host].up.load(Ordering::Relaxed) && self.backends[host].is_up()
    }

    /// The highest-ranked live candidate for `table`, skipping hosts in
    /// `tried` (send attempts that already failed this request). Counts
    /// a failover when the pick is not the primary. `None` means no
    /// replica can serve.
    fn pick_host(&self, table: usize, tried: &[usize]) -> Option<usize> {
        let ranked = self.candidates.get(table)?;
        for (rank, &host) in ranked.iter().enumerate() {
            if tried.contains(&host) || !self.serving(host) {
                continue;
            }
            if rank > 0 {
                self.metrics.failovers_total.inc();
            }
            return Some(host);
        }
        None
    }

    /// Records one failed interaction with `host` (an
    /// `Rejected(Internal)` reply or a failed send); trips the health
    /// state after `health_trip` consecutive failures.
    fn note_failure(&self, host: usize) {
        let h = &self.health[host];
        let fails = h.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if fails >= u64::from(self.health_trip) {
            self.trip(host);
        }
    }

    /// Records one successful reply from `host`.
    fn note_success(&self, host: usize) {
        self.health[host]
            .consecutive_failures
            .store(0, Ordering::Relaxed);
    }

    /// Trips `host` to unhealthy (idempotent).
    pub(crate) fn trip(&self, host: usize) {
        let h = &self.health[host];
        if h.up.swap(false, Ordering::Relaxed) {
            self.metrics.health_trips_total.inc();
            h.up_gauge.set(0.0);
        }
    }

    /// Flips `host` back to healthy after a successful probe
    /// (idempotent).
    pub(crate) fn recover(&self, host: usize) {
        let h = &self.health[host];
        h.consecutive_failures.store(0, Ordering::Relaxed);
        if !h.up.swap(true, Ordering::Relaxed) {
            self.metrics.health_recoveries_total.inc();
            h.up_gauge.set(1.0);
        }
    }
}

impl Inner {
    /// [`Router::start`] up to, not including, the client listener and
    /// the maintenance loop: the reactor, the backends attached to it,
    /// the inventory check and the placement.
    ///
    /// # Errors
    ///
    /// See [`Router::start`].
    pub(crate) fn connect(config: &RouterConfig) -> io::Result<Inner> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let registry = Arc::new(Registry::new());
        let metrics = RouterMetrics::new(&registry);
        let write_ns = Arc::clone(&metrics.write_ns);
        let reactor = FrameReactor::spawn(
            Box::new(move |ns| write_ns.record(ns)),
            ReactorConfig {
                registry: Some(Arc::clone(&registry)),
                idle_timeout: config.conn_idle,
            },
        )?;
        let mut backends = Vec::with_capacity(config.backends.len());
        for (name, addr) in &config.backends {
            backends.push(Backend::start(name, addr.as_str(), reactor.outbox())?);
        }
        let shape = |t: &[(u64, usize, f64, String)]| -> Vec<(u64, usize)> {
            t.iter().map(|(rows, dim, _, _)| (*rows, *dim)).collect()
        };
        // The inventory comes from the first reachable backend; any
        // other reachable backend must agree, and unreachable backends
        // are held to the same shape at their reconnect handshake.
        let Some(reference) = backends.iter().find(|b| b.is_up()) else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no backend reachable at startup",
            ));
        };
        let inventory = reference.tables();
        let reference_name = reference.name().to_string();
        let expected = shape(&inventory);
        for backend in &backends {
            if backend.is_up() && shape(&backend.tables()) != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "backend {} serves a different table set than {}",
                        backend.name(),
                        reference_name,
                    ),
                ));
            }
            backend.set_expected_shape(expected.clone());
        }
        let names: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();
        let placement = Placement::balanced(&names, inventory.len());
        let candidates: Vec<Vec<usize>> = (0..inventory.len())
            .map(|t| {
                placement
                    .candidates(t)
                    .expect("placement is total over 0..tables")
            })
            .collect();
        registry.gauge("router_backends").set(backends.len() as f64);
        registry.gauge("router_tables").set(inventory.len() as f64);
        let health: Vec<HealthState> = backends
            .iter()
            .map(|b| {
                let up = b.is_up();
                let up_gauge = registry.gauge_with("router_backend_up", &[("backend", b.name())]);
                up_gauge.set(if up { 1.0 } else { 0.0 });
                HealthState {
                    up: AtomicBool::new(up),
                    consecutive_failures: AtomicU64::new(0),
                    up_gauge,
                }
            })
            .collect();
        let spans = Arc::new(match &config.trace {
            Some(t) => SpanCollector::with_capacity(&t.host, t.sample_every, t.capacity),
            None => SpanCollector::disabled(),
        });
        Ok(Inner {
            backends,
            placement,
            candidates,
            health,
            health_trip: config.health_trip.max(1),
            inventory,
            registry,
            metrics,
            spans,
            profile_out: config.profile_out.clone(),
            next_trace: AtomicU64::new(1),
            reactor,
        })
    }
}

/// A running router. Dropping (or [`Router::shutdown`]) joins the
/// maintenance loop, then stops the reactor, which closes every client
/// connection and backend link.
pub struct Router {
    inner: Arc<Inner>,
    addr: SocketAddr,
    _maint: MaintThread,
}

impl Router {
    /// Starts the reactor, connects every backend to it (tolerating
    /// peers that are down — they join when a redial succeeds), verifies
    /// the reachable ones serve the same table set, derives the
    /// placement over the *full* configured membership, starts the
    /// maintenance loop, and only then hands the reactor its client
    /// listener, so no client frame is dispatched before the router core
    /// exists.
    ///
    /// # Errors
    ///
    /// Returns bind and thread-spawn errors, `ConnectionRefused` if *no*
    /// backend is reachable at startup (the inventory must come from
    /// somewhere), or `InvalidData` if reachable backends' inventories
    /// disagree (they must be replicas of one table set).
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        let inner = Arc::new(Inner::connect(&config)?);
        let maint = Maintenance::new(Arc::clone(&inner), &config, Instant::now()).spawn()?;
        // SO_REUSEADDR bind: a router restarted onto its old port must
        // not spend a TIME_WAIT minute in EADDRINUSE.
        let listener = secemb_serve::bind_reusable(&config.bind)?;
        let core = Arc::clone(&inner);
        let addr = inner.reactor.listen(
            listener,
            Box::new(move |_conn| {
                let inner = Arc::clone(&core);
                Box::new(move |payload: &[u8], replies: &ReplySender| {
                    dispatch(&inner, payload, replies)
                }) as Dispatch
            }),
        )?;
        Ok(Router {
            inner,
            addr,
            _maint: maint,
        })
    }

    /// Per-backend `(name, serving)` health snapshot — serving means
    /// router-side health *and* the TCP link are both up.
    pub fn backend_health(&self) -> Vec<(String, bool)> {
        self.inner
            .backends
            .iter()
            .enumerate()
            .map(|(h, b)| (b.name().to_string(), self.inner.serving(h)))
            .collect()
    }

    /// The bound client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backends, in configuration order.
    pub fn backends(&self) -> &[Arc<Backend>] {
        &self.inner.backends
    }

    /// The table → host placement the router serves with.
    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// The router's own metrics registry (`router_*` series).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// The router's own span collector (inert unless
    /// [`RouterConfig::trace`] was set).
    pub fn spans(&self) -> Arc<SpanCollector> {
        Arc::clone(&self.inner.spans)
    }

    /// Runs one gossip round and waits for its report (rounds also run
    /// continuously with [`RouterConfig::gossip_interval`]). Per-backend
    /// failures are reported in [`GossipReport::errors`].
    ///
    /// # Errors
    ///
    /// Returns `Interrupted` if the router shuts down first.
    pub fn gossip_now(&self) -> io::Result<GossipReport> {
        let (done, report) = mpsc::channel();
        self.inner.gossip(move |r| drop(done.send(r)));
        report.recv().map_err(|_| io::ErrorKind::Interrupted.into())
    }

    /// Stops accepting, closes every client connection, and joins all
    /// router threads.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// One backend hop of a routed request.
struct Hop {
    /// The serving host resolved at admission.
    host: usize,
    /// The hop's first table, whose candidate list a failed send walks
    /// down (every backend is a full replica, so any live host can
    /// serve the whole hop).
    table: usize,
}

impl Hop {
    /// A hop to `table`'s highest-ranked live candidate.
    fn pick(inner: &Inner, table: usize) -> Result<Hop, RejectReason> {
        let host = inner.pick_host(table, &[]);
        host.map(|host| Hop { host, table })
            .ok_or(RejectReason::Internal)
    }
}

/// Span bookkeeping for one sampled routed request. Span ids are
/// allocated eagerly at admission so each backend hop can be told its
/// parent (`fanout_ids[slot]`) *before* the hop's reply — that forwarded
/// id is what joins the router's timeline to the backends'. Sampling is
/// keyed on the public trace id alone, so none of this branches on
/// tables or indices beyond putting their public counts in attrs.
struct RouteSpans {
    spans: Arc<SpanCollector>,
    /// The request's trace id, under the client's own parent span if
    /// the client is itself traced: the root span's context.
    ctx: TraceCtx,
    root_id: u64,
    /// One eagerly-allocated "fanout" span id per backend hop.
    fanout_ids: Vec<u64>,
    start: Instant,
    queries: u64,
}

impl RouteSpans {
    /// Starts bookkeeping for `hops` hops if `hop_trace` is sampled.
    fn begin(
        inner: &Inner,
        trace: Option<TraceCtx>,
        hop_trace: u64,
        hops: usize,
        queries: u64,
    ) -> Option<RouteSpans> {
        if !inner.spans.sampled(hop_trace) {
            return None;
        }
        let spans = Arc::clone(&inner.spans);
        Some(RouteSpans {
            ctx: TraceCtx {
                trace_id: hop_trace,
                parent_span: trace.and_then(|t| t.parent_span),
            },
            root_id: spans.fresh_span_id(),
            fanout_ids: (0..hops).map(|_| spans.fresh_span_id()).collect(),
            spans,
            start: Instant::now(),
            queries,
        })
    }

    /// The trace context forwarded to hop `slot`'s backend: same trace
    /// id, parented under that hop's fanout span.
    fn forward(&self, slot: usize) -> TraceCtx {
        TraceCtx::with_parent(self.ctx.trace_id, self.fanout_ids[slot])
    }

    /// Records span `span_id`, from the request's start until now.
    fn record(
        &self,
        ctx: TraceCtx,
        span_id: u64,
        name: &'static str,
        attrs: Vec<(&'static str, u64)>,
    ) {
        let now = Instant::now();
        let mut span = self
            .spans
            .span_between(ctx, span_id, "router", name, self.start, now);
        span.attrs = attrs;
        self.spans.record(span);
    }

    /// The context of the root's children.
    fn under_root(&self) -> TraceCtx {
        TraceCtx::with_parent(self.ctx.trace_id, self.root_id)
    }

    /// Records a childless span under the root (`admit`: decode → every
    /// hop sent; `merge`: the reassembly, multi-hop requests only).
    fn record_child(&self, name: &'static str, start: Instant, end: Instant) {
        let (ctx, id) = (self.under_root(), self.spans.fresh_span_id());
        self.spans
            .record(self.spans.span_between(ctx, id, "router", name, start, end));
    }

    /// Records hop `slot`'s fanout span when `host`'s reply lands.
    fn record_fanout(&self, slot: usize, host: usize) {
        let attrs = vec![("host", host as u64)];
        self.record(self.under_root(), self.fanout_ids[slot], "fanout", attrs);
    }

    /// Records the root request span once the reply is on its way.
    fn record_root(&self) {
        let hops = self.fanout_ids.len() as u64;
        let attrs = vec![("queries", self.queries), ("hops", hops)];
        self.record(self.ctx, self.root_id, "request", attrs);
    }
}

/// Maps a backend reply onto the client-facing response. A frame kind
/// that is neither embeddings nor a rejection (e.g. a stats frame where
/// embeddings were due) is a protocol violation: counted and degraded
/// to `Rejected(Internal)` — never a panic on the dispatch path.
fn to_response(msg: ServerMsg, violations: &Counter) -> Response {
    match msg {
        ServerMsg::Embeddings(m, stages) => Response::Embeddings(m, stages),
        ServerMsg::Rejected(reason) => Response::Rejected(reason),
        _ => {
            violations.inc();
            Response::Rejected(RejectReason::Internal)
        }
    }
}

/// Sends one hop to `first` — the host picked for it at admission —
/// walking down `table`'s candidate list while the *send* itself fails.
/// A failed send never put a complete frame on the wire, so retrying on
/// a replica is duplicate-safe even for `Update` traffic (in-flight
/// requests whose link dies after a successful send are rejected, not
/// replayed). Returns whether some replica took the hop.
fn send_with_failover(
    inner: &Inner,
    table: usize,
    first: usize,
    mut send: impl FnMut(usize) -> io::Result<u64>,
) -> bool {
    let mut tried: Vec<usize> = Vec::new();
    let mut next = Some(first);
    while let Some(host) = next {
        if send(host).is_ok() {
            return true;
        }
        inner.note_failure(host);
        tried.push(host);
        next = inner.pick_host(table, &tried);
    }
    false
}

/// One decoded client frame's return address: which router core took
/// it, and where, under which id and trace context, its one reply goes.
#[derive(Clone, Copy)]
struct Frame<'a> {
    inner: &'a Arc<Inner>,
    replies: &'a ReplySender,
    id: u64,
    trace: Option<TraceCtx>,
}

/// One routed request in flight: what its hops' replies complete into.
/// Shared by the hops' reply callbacks.
struct Route {
    inner: Arc<Inner>,
    replies: ReplySender,
    id: u64,
    /// The client's own trace id, echoed only if it sent one.
    echo: Option<u64>,
    t0: Instant,
    spans: Option<RouteSpans>,
    gather: Gather,
}

impl Route {
    /// The one completion. Hop `slot` is answered with `msg` — by
    /// backend `host`, or by the router itself (`None`) when no live
    /// replica could take the hop — and on the last one home the slots
    /// merge in part order and the client is answered exactly once.
    fn land(&self, slot: usize, host: Option<usize>, msg: ServerMsg) {
        let metrics = &self.inner.metrics;
        match host {
            None => metrics.rejected_local_total.inc(),
            Some(host) => {
                if let Some(spans) = &self.spans {
                    spans.record_fanout(slot, host);
                }
                // The health machine: an internal rejection (which is
                // also what a died-mid-flight link orphan-rejects with)
                // counts toward the consecutive-failure trip; anything
                // else — including *legitimate* rejections like
                // `QueueFull` — resets it.
                match msg {
                    ServerMsg::Rejected(RejectReason::Internal) => self.inner.note_failure(host),
                    _ => self.inner.note_success(host),
                }
            }
        }
        let response = to_response(msg, &metrics.protocol_violations);
        let landed = match self.gather.fill(slot, response) {
            Fill::Pending => return,
            Fill::Duplicate => {
                // Two replies for one hop (a link orphan-rejecting a
                // request whose send then failed over): keep the first.
                metrics.protocol_violations.inc();
                return;
            }
            Fill::Complete(landed) => landed,
        };
        metrics.route_ns.record(self.t0.elapsed().as_nanos() as u64);
        let multi_hop = matches!(landed, Landed::Parts(..));
        let m0 = Instant::now();
        let (merged, violated) = landed.merge();
        if violated {
            metrics.protocol_violations.inc();
        }
        if multi_hop {
            let m1 = Instant::now();
            metrics.merge_ns.record((m1 - m0).as_nanos() as u64);
            if let Some(spans) = &self.spans {
                spans.record_child("merge", m0, m1);
            }
        }
        if let Some(spans) = &self.spans {
            spans.record_root();
        }
        self.replies
            .send(encode_response_traced(self.id, &merged, self.echo));
    }
}

/// Sends every hop of an admitted lookup and arranges for the replies
/// to complete into one answer. `gather` has one slot per hop;
/// `encode(slot, request_id, trace)` builds hop `slot`'s frame, once per
/// send attempt.
fn route(
    frame: Frame<'_>,
    queries: u64,
    hops: &[Hop],
    gather: Gather,
    encode: impl Fn(usize, u64, TraceCtx) -> Vec<u8>,
) {
    let Frame {
        inner,
        replies,
        id,
        trace,
    } = frame;
    inner.metrics.fanout_hosts.record(hops.len() as u64);
    let echo = trace.map(|t| t.trace_id);
    // Every hop carries a trace id (the client's, or a router-assigned
    // one), so backend stage breakdowns join the router's histograms.
    let hop_trace = echo.unwrap_or_else(|| inner.next_trace.fetch_add(1, Ordering::Relaxed));
    let route = Arc::new(Route {
        inner: Arc::clone(inner),
        replies: replies.clone(),
        id,
        echo,
        spans: RouteSpans::begin(inner, trace, hop_trace, hops.len(), queries),
        t0: Instant::now(),
        gather,
    });
    for (slot, hop) in hops.iter().enumerate() {
        let forward = route
            .spans
            .as_ref()
            .map_or_else(|| TraceCtx::new(hop_trace), |spans| spans.forward(slot));
        let sent = send_with_failover(inner, hop.table, hop.host, |host| {
            let route = Arc::clone(&route);
            inner.backends[host].call(
                |request_id| encode(slot, request_id, forward),
                Box::new(move |msg, _| route.land(slot, Some(host), msg)),
            )
        });
        if !sent {
            route.land(slot, None, ServerMsg::Rejected(RejectReason::Internal));
        }
    }
    if let Some(spans) = &route.spans {
        spans.record_child("admit", spans.start, Instant::now());
    }
}

/// Placement-aware admission, once per lookup frame: its query count,
/// or why it never crosses the wire to a backend. The first faulty
/// `(table, indices)` part in part order decides, as it would on a
/// backend; then a frame whose reply would not fit one frame
/// ([`reply_fits`]: all its rows at its widest table) is `BadRequest` —
/// forwarded, its reply would break the backend link.
fn admit(
    inner: &Inner,
    parts: impl IntoIterator<Item = (usize, usize)>,
) -> Result<u64, RejectReason> {
    inner.metrics.requests_total.inc();
    let (mut queries, mut cols) = (0, 0);
    for (table, indices) in parts {
        if table >= inner.placement.tables() {
            return Err(RejectReason::UnknownTable);
        }
        if indices == 0 {
            return Err(RejectReason::BadRequest);
        }
        queries += indices;
        cols = cols.max(inner.inventory[table].1);
    }
    // No parts at all is no request.
    if queries == 0 || !reply_fits(queries, cols) {
        return Err(RejectReason::BadRequest);
    }
    Ok(queries as u64)
}

/// A `GenerateMulti` split by serving host.
struct Groups {
    hops: Vec<Hop>,
    /// Per hop, the parts it forwards — verbatim and in part order.
    forwards: Vec<Vec<(usize, Vec<u64>)>>,
    /// `(hop, rows)` per part: the [`Gather`] layout.
    layout: Vec<(usize, usize)>,
}

/// Groups parts by *serving* host — resolved once per table for this
/// request — preserving part order within each group.
fn group_by_host(inner: &Inner, parts: Vec<(usize, Vec<u64>)>) -> Result<Groups, RejectReason> {
    let mut host_of_table: HashMap<usize, usize> = HashMap::new();
    let mut hop_of_host: Vec<Option<usize>> = vec![None; inner.backends.len()];
    let mut groups = Groups {
        hops: Vec::new(),
        forwards: Vec::new(),
        layout: Vec::with_capacity(parts.len()),
    };
    for (table, indices) in parts {
        let host = match host_of_table.entry(table) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => *new.insert(Hop::pick(inner, table)?.host),
        };
        let hop = *hop_of_host[host].get_or_insert_with(|| {
            groups.hops.push(Hop { host, table });
            groups.forwards.push(Vec::new());
            groups.hops.len() - 1
        });
        groups.layout.push((hop, indices.len()));
        groups.forwards[hop].push((table, indices));
    }
    Ok(groups)
}

/// Decodes and answers one client frame. Returns `false` when the frame
/// is malformed and the connection should close; a lookup the router
/// cannot route is rejected here and never crosses the wire.
fn dispatch(inner: &Arc<Inner>, payload: &[u8], replies: &ReplySender) -> bool {
    let Ok((id, msg, trace)) = decode_client_traced(payload) else {
        return false;
    };
    let frame = Frame {
        inner,
        replies,
        id,
        trace,
    };
    if let Err(reason) = serve(frame, msg) {
        inner.metrics.rejected_local_total.inc();
        let echo = trace.map(|t| t.trace_id);
        replies.send(encode_response_traced(
            id,
            &Response::Rejected(reason),
            echo,
        ));
    }
    true
}

/// A lookup frame is admitted once, becomes one hop per serving host —
/// `Generate`/`Update`: one — and goes out through [`route`]; the other
/// frames are answered on the spot.
fn serve(frame: Frame<'_>, msg: ClientMsg) -> Result<(), RejectReason> {
    let Frame {
        inner, replies, id, ..
    } = frame;
    match msg {
        ClientMsg::Generate {
            table,
            indices,
            deadline,
        } => {
            let queries = admit(inner, [(table, indices.len())])?;
            let hops = [Hop::pick(inner, table)?];
            route(frame, queries, &hops, Gather::single(), |_, rid, fwd| {
                encode_generate_traced(rid, table, &indices, deadline, Some(fwd))
            });
        }
        // The delta shape was validated at decode, and the owning
        // backend gates update capability per table.
        ClientMsg::Update {
            table,
            indices,
            deltas,
            deadline,
        } => {
            let queries = admit(inner, [(table, indices.len())])?;
            let hops = [Hop::pick(inner, table)?];
            route(frame, queries, &hops, Gather::single(), |_, rid, fwd| {
                encode_update_traced(rid, table, &indices, &deltas, deadline, Some(fwd))
            });
        }
        ClientMsg::GenerateMulti { parts, deadline } => {
            let queries = admit(inner, parts.iter().map(|(t, ix)| (*t, ix.len())))?;
            let groups = group_by_host(inner, parts)?;
            let (hops, forwards) = (groups.hops, groups.forwards);
            let gather = Gather::new(hops.len(), groups.layout);
            route(frame, queries, &hops, gather, |hop, rid, fwd| {
                encode_generate_multi(rid, &forwards[hop], deadline, Some(fwd))
            });
        }
        ClientMsg::Tables | ClientMsg::Hello(_) => {
            replies.send(encode_table_list(id, &inner.inventory));
        }
        // One scrape covers the tier: the router's own spans first, then
        // every backend's (each drain empties its buffer, so a span is
        // reported exactly once across scrapes). An unreachable backend
        // loses its spans for this scrape only.
        ClientMsg::Traces => {
            let mut jsonl = inner.spans.drain_jsonl();
            fan_out(frame, encode_traces_request, move |_, fleet| {
                for reply in fleet {
                    if let Ok(ServerMsg::Traces(spans)) = reply {
                        jsonl.push_str(&spans);
                    }
                }
                encode_traces(id, &jsonl)
            });
        }
        ClientMsg::Stats => fan_out(frame, encode_stats_request, move |inner, fleet| {
            encode_stats(id, &merged_stats(inner, fleet))
        }),
        ClientMsg::Metrics => fan_out(frame, encode_metrics_request, move |inner, fleet| {
            encode_metrics(id, &merged_metrics(inner, fleet))
        }),
        ClientMsg::PlanPull => fan_out(frame, encode_plan_pull, move |_, fleet| {
            encode_plan(id, best_plan_json(fleet).as_deref())
        }),
        ClientMsg::PlanPush(json) => {
            let encode = |rid| encode_plan_push(rid, &json);
            fan_out(frame, encode, move |inner, fleet| {
                plan_ack(id, inner, fleet)
            });
        }
    }
    Ok(())
}

/// Sends one control frame to every backend and answers the client
/// from the last reply home, or once the rest are [`SYNC_TIMEOUT`]
/// overdue — [`route`] and [`Route::land`] for frames that are merged
/// rather than gathered. `answer` builds the client's reply frame from
/// the router core and the replies in backend order.
fn fan_out(
    frame: Frame<'_>,
    encode: impl Fn(u64) -> Vec<u8>,
    answer: impl FnOnce(&Inner, Vec<Reply>) -> Vec<u8> + Send + 'static,
) {
    let (inner, replies) = (Arc::clone(frame.inner), frame.replies.clone());
    let backends = &frame.inner.backends;
    backend::fan_out(backends, SYNC_TIMEOUT, encode, move |fleet| {
        replies.send(answer(&inner, fleet));
    });
}

/// One stats snapshot covering the whole tier: the router's placement
/// plus every backend's own snapshot (and the plan version each one
/// reports, so convergence is visible in a single scrape).
fn merged_stats(inner: &Inner, fleet: Vec<Reply>) -> String {
    let mut entries = Vec::with_capacity(fleet.len());
    let mut versions = Vec::with_capacity(fleet.len());
    for (backend, reply) in inner.backends.iter().zip(fleet) {
        let name = ("name", Value::Str(backend.name().to_string()));
        match reply {
            Ok(ServerMsg::Stats(json)) => {
                let parsed = json::parse(&json).unwrap_or(Value::Null);
                let version = parsed
                    .get("plan")
                    .and_then(|p| p.get("version"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                versions.push(Value::Num(version as f64));
                entries.push(Value::obj([name, ("stats", parsed)]));
            }
            other => {
                versions.push(Value::Num(0.0));
                entries.push(Value::obj([name, ("error", Value::Str(failure(other)))]));
            }
        }
    }
    Value::obj([
        ("role", Value::Str("router".to_string())),
        ("backends", Value::Arr(entries)),
        ("placement", inner.placement.to_value()),
        ("plan_versions", Value::Arr(versions)),
    ])
    .to_compact()
}

/// One metrics exposition covering the whole tier: the router's own
/// `router_*` series followed by every backend's exposition with a
/// `backend="<name>"` label injected into each sample line.
fn merged_metrics(inner: &Inner, fleet: Vec<Reply>) -> String {
    let mut out = inner.registry.snapshot().render_prometheus("secemb_");
    for (backend, reply) in inner.backends.iter().zip(fleet) {
        match reply {
            Ok(ServerMsg::Metrics(text)) => {
                out.push_str(&inject_backend_label(&text, backend.name()));
            }
            other => {
                let why = failure(other);
                out.push_str(&format!(
                    "# backend {} unreachable: {why}\n",
                    backend.name()
                ));
            }
        }
    }
    out
}

/// Adds `backend="<name>"` to every sample line of a Prometheus text
/// exposition (comment lines pass through).
fn inject_backend_label(text: &str, backend: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            out.push_str(line);
        } else if let Some(brace) = line.find('{') {
            let (head, rest) = line.split_at(brace + 1);
            out.push_str(head);
            let _ = write!(out, "backend=\"{backend}\"");
            if !rest.starts_with('}') {
                out.push(',');
            }
            out.push_str(rest);
        } else if let Some(space) = line.find(' ') {
            let (name, rest) = line.split_at(space);
            let _ = write!(out, "{name}{{backend=\"{backend}\"}}{rest}");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The highest-versioned plan any backend reports, if any — what a
/// `PlanPull` through the router answers with.
fn best_plan_json(fleet: Vec<Reply>) -> Option<String> {
    let plans = fleet.into_iter().filter_map(|reply| pulled(reply).ok()?);
    plans.fold(None, newer).map(|(_, json)| json)
}

/// The ack for a `PlanPush` fanned to the whole fleet: the highest epoch
/// any backend reached, and every backend's error.
fn plan_ack(id: u64, inner: &Inner, fleet: Vec<Reply>) -> Vec<u8> {
    let mut epoch = 0u64;
    let mut errors = Vec::new();
    for (backend, reply) in inner.backends.iter().zip(fleet) {
        match acked(reply) {
            Ok(e) => epoch = epoch.max(e),
            Err(e) => errors.push(format!("{}: {e}", backend.name())),
        }
    }
    encode_plan_ack(id, errors.is_empty(), epoch, &errors.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock_unpoisoned;
    use std::sync::Mutex;

    #[test]
    fn backend_label_injection_covers_every_line_shape() {
        let text =
            "# TYPE secemb_x counter\nsecemb_x 3\nsecemb_y{stage=\"admit\"} 1\nsecemb_z{} 2\n";
        let injected = inject_backend_label(text, "b0");
        assert!(injected.contains("# TYPE secemb_x counter\n"));
        assert!(injected.contains("secemb_x{backend=\"b0\"} 3\n"));
        assert!(injected.contains("secemb_y{backend=\"b0\",stage=\"admit\"} 1\n"));
        assert!(injected.contains("secemb_z{backend=\"b0\"} 2\n"));
    }

    #[test]
    fn unexpected_frame_where_embeddings_were_due_degrades_and_counts() {
        // A backend answers a generate slot with a *stats* frame:
        // to_response must degrade to Rejected(Internal) and count the
        // violation, not panic. (What the degraded slot then does to a
        // multi-part merge is the serving layer's `merge_parts` test.)
        let violations = Registry::new().counter("test_violations");
        let resp = to_response(ServerMsg::Stats("{}".to_string()), &violations);
        assert_eq!(resp, Response::Rejected(RejectReason::Internal));
        assert_eq!(violations.get(), 1);

        // Legitimate replies never count.
        let _ = to_response(ServerMsg::Rejected(RejectReason::QueueFull), &violations);
        let _ = to_response(
            ServerMsg::Embeddings(
                secemb_tensor::Matrix::from_vec(1, 1, vec![0.0]),
                secemb_telemetry::StageBreakdown::default(),
            ),
            &violations,
        );
        assert_eq!(violations.get(), 1);
    }

    /// A two-host router core with no backend links behind it (table 0
    /// on host 0 only, table 1 on host 1 only) and every trace sampled:
    /// enough to drive a [`Route`]'s completion by hand.
    fn linkless_inner() -> Arc<Inner> {
        let names = ["b0".to_string(), "b1".to_string()];
        let registry = Arc::new(Registry::new());
        Arc::new(Inner {
            backends: Vec::new(),
            placement: Placement::balanced(&names, 2),
            candidates: vec![vec![0], vec![1]],
            health: names
                .iter()
                .map(|name| HealthState {
                    up: AtomicBool::new(true),
                    consecutive_failures: AtomicU64::new(0),
                    up_gauge: registry.gauge_with("router_backend_up", &[("backend", name)]),
                })
                .collect(),
            health_trip: 3,
            inventory: Vec::new(),
            metrics: RouterMetrics::new(&registry),
            registry,
            spans: Arc::new(SpanCollector::new("rt", 1)),
            profile_out: None,
            next_trace: AtomicU64::new(1),
            reactor: FrameReactor::spawn(Box::new(|_| {}), ReactorConfig::default())
                .expect("reactor"),
        })
    }

    /// A live reactor connection's reply handle, and the client socket
    /// its frames arrive on.
    fn reply_channel() -> (FrameReactor, ReplySender, std::net::TcpStream) {
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        let reactor = FrameReactor::start(
            secemb_serve::bind_reusable("127.0.0.1:0").expect("bind"),
            Box::new(move |_conn| {
                let tx = lock_unpoisoned(&tx).clone();
                Box::new(move |_payload: &[u8], replies: &ReplySender| {
                    let _ = tx.send(replies.clone());
                    true
                }) as Dispatch
            }),
            Box::new(|_| {}),
            ReactorConfig::default(),
        )
        .expect("reactor");
        let mut client = std::net::TcpStream::connect(reactor.addr()).expect("connect");
        secemb_wire::frame::write_frame(&mut client, b"hand me my reply sender")
            .expect("first frame");
        let replies = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("dispatch ran");
        (reactor, replies, client)
    }

    /// The hop whose failure completes the countdown finds no live
    /// replica. Its `Internal` must go through the one completion like
    /// any reply: an earlier part's `QueueFull` still wins the merge,
    /// `router_route_ns` / the `merge` and root `request` spans are
    /// recorded, and the local rejection is counted.
    #[test]
    fn hop_without_a_replica_completes_through_the_merge() {
        let inner = linkless_inner();
        let (reactor, replies, mut client) = reply_channel();
        let trace = TraceCtx::new(77);
        let route = Route {
            inner: Arc::clone(&inner),
            replies,
            id: 9,
            echo: Some(trace.trace_id),
            t0: Instant::now(),
            spans: RouteSpans::begin(&inner, Some(trace), trace.trace_id, 2, 3),
            gather: Gather::new(2, vec![(0, 2), (1, 1)]),
        };
        route.land(0, Some(0), ServerMsg::Rejected(RejectReason::QueueFull));
        route.land(1, None, ServerMsg::Rejected(RejectReason::Internal));

        let payload = secemb_wire::frame::read_frame(&mut client).expect("exactly one reply");
        assert_eq!(
            secemb_serve::protocol::decode_server_traced(&payload).expect("decodes"),
            (9, ServerMsg::Rejected(RejectReason::QueueFull), Some(77)),
            "first rejection by part order, not the last hop's Internal"
        );
        let m = &inner.metrics;
        assert_eq!(m.rejected_local_total.get(), 1);
        assert_eq!(m.protocol_violations.get(), 0);
        assert_eq!(m.route_ns.snapshot().count, 1);
        assert_eq!(m.merge_ns.snapshot().count, 1);
        let spans = inner.spans.drain();
        let named = |name| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let [root] = named("request")[..] else {
            panic!("a sampled trace needs exactly one root: {spans:?}");
        };
        assert_eq!(root.parent_span, None);
        assert_eq!(named("merge").len(), 1);
        assert_eq!(named("fanout").len(), 1, "only hop 0 reached a backend");
        assert!(spans
            .iter()
            .all(|s| s.span_id == root.span_id || s.parent_span == Some(root.span_id)));
        reactor.shutdown();
    }
}
