//! The router's one maintenance loop: backend redials, health probes,
//! plan gossip and every backend deadline are due dates on a single
//! thread.
//!
//! [`Maintenance::tick`] takes the time as a parameter and returns its
//! next deadline, so tests drive it with synthetic instants and no
//! sleeps; the thread body only waits for that deadline or a [`Wake`].
//! Each tick:
//!
//! - expires what is due on every link: with a `backend_idle_timeout`,
//!   a link is declared dead (orphan-rejecting its requests) when
//!   requests are in flight and no byte has arrived for that long —
//!   idleness with nothing in flight is benign — and a fanned-out
//!   control frame past its deadline is dropped unanswered;
//! - redials every down backend whose deadline has passed. The first
//!   dial after a link loss is `reconnect_base` away; each failed dial
//!   doubles the delay, up to `40 × reconnect_base`. Every delay is
//!   multiplied by a jitter in `[0.5, 1.5)` drawn from a stream keyed on
//!   the backend's name, so a fleet of routers does not stampede a
//!   recovering backend in lockstep;
//! - when the probe interval is due, trips backends whose link dropped
//!   and probes tripped backends whose link is back. On probe success it
//!   gossips the fleet's newest plan to them *before* re-admitting
//!   traffic, so a recovered replica never serves a stale epoch next to
//!   fresh peers;
//! - runs a gossip round when the gossip interval is due;
//! - refreshes the per-backend gauges.
//!
//! Probes and gossip go out through the same asynchronous calls as
//! client traffic; while a tick waits for its own round to finish it
//! keeps expiring deadlines, so a silent backend is declared dead on
//! time whatever the loop is waiting for. Only a dial (connect and
//! `Hello`, each bounded by 2 s) holds the loop.
//!
//! A link death or a new deadline wakes the loop, so with every link up
//! and nothing due an idle router wakes only for its probe and gossip
//! rounds, and once per idle timeout when one is set.

use crate::backend::{fan_out, Backend};
use crate::router::{Inner, RouterConfig};
use secemb_serve::protocol::{encode_stats_request, ServerMsg};
use std::io;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A message to the loop's thread.
pub(crate) enum Wake {
    /// A link died or a deadline was set: time to tick.
    Tick,
    /// The router is shutting down.
    Stop,
}

/// How far out the next deadline lies when nothing is due. A link death
/// or a new deadline wakes the loop anyway, so nothing waits on this.
const PARKED: Duration = Duration::from_secs(3600);

/// The redial delay stops doubling at this multiple of the base.
const BACKOFF_CAP: u32 = 40;

/// How long a liveness probe waits for its reply.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// A recurring deadline.
struct Every {
    period: Duration,
    due: Instant,
}

impl Every {
    /// Whether the deadline has passed at `now`; if so, it re-arms one
    /// period later.
    fn fire(&mut self, now: Instant) -> bool {
        let fired = now >= self.due;
        if fired {
            self.due = now + self.period;
        }
        fired
    }
}

/// One backend's redial schedule.
struct Redial {
    /// `xorshift64*` state of the jitter stream.
    jitter: u64,
    /// The unjittered delay the last armed dial waited.
    delay: Duration,
    /// When the next dial is due; `None` while the link is up.
    due: Option<Instant>,
}

impl Redial {
    fn new(name: &str) -> Redial {
        // FNV-1a over the name, so two backends of one router draw
        // different jitter.
        let mut jitter = 0x5ec3_4b00_7c0f_fee5_u64;
        for b in name.bytes() {
            jitter = (jitter ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Redial {
            jitter: jitter.max(1),
            delay: Duration::ZERO,
            due: None,
        }
    }

    /// Arms the next dial `delay`, jittered, after `now`.
    fn arm(&mut self, now: Instant, delay: Duration) {
        self.delay = delay;
        let mut x = self.jitter;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter = x;
        let unit = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        self.due = Some(now + delay.mul_f64(0.5 + unit));
    }
}

/// The loop's state: what it maintains and when each thing is next due.
pub(crate) struct Maintenance {
    inner: Arc<Inner>,
    /// The first redial delay after a link loss.
    base: Duration,
    /// How long a link with requests in flight may stay silent.
    idle_timeout: Option<Duration>,
    /// Per backend, indexed like `inner.backends`.
    redials: Vec<Redial>,
    probe: Option<Every>,
    gossip: Option<Every>,
}

impl Maintenance {
    /// A loop over `inner`'s backends, timed by `config`, whose probe and
    /// gossip rounds are first due at `start`.
    pub(crate) fn new(inner: Arc<Inner>, config: &RouterConfig, start: Instant) -> Maintenance {
        let every = |period: Option<Duration>| period.map(|period| Every { period, due: start });
        Maintenance {
            redials: inner
                .backends
                .iter()
                .map(|b| Redial::new(b.name()))
                .collect(),
            inner,
            base: config.reconnect_base,
            idle_timeout: config.backend_idle_timeout,
            probe: every(config.health_probe),
            gossip: every(config.gossip_interval),
        }
    }

    /// Runs everything due at `now`; returns the next deadline.
    pub(crate) fn tick(&mut self, now: Instant) -> Instant {
        let next = self.expire(now);
        let inner = &self.inner;
        for (backend, redial) in inner.backends.iter().zip(&mut self.redials) {
            match redial.due {
                _ if backend.is_up() => redial.due = None,
                // The link was just lost, or never came up.
                None => redial.arm(now, self.base),
                Some(due) if due <= now => match backend.redial() {
                    Ok(()) => redial.due = None,
                    Err(_) => redial.arm(now, (redial.delay * 2).min(self.base * BACKOFF_CAP)),
                },
                Some(_) => {}
            }
        }
        if self.probe.as_mut().is_some_and(|probe| probe.fire(now)) {
            self.health_round();
        }
        if self.gossip.as_mut().is_some_and(|gossip| gossip.fire(now)) {
            self.settle(|done| self.inner.gossip(done));
        }
        refresh_gauges(&self.inner);
        let rounds = [&self.probe, &self.gossip].into_iter().flatten();
        let dials = self.redials.iter().filter_map(|redial| redial.due);
        rounds
            .map(|round| round.due)
            .chain(dials)
            .fold(next, Instant::min)
    }

    /// Expires what is due at `now` on every link; returns the nearest
    /// deadline left.
    fn expire(&self, now: Instant) -> Instant {
        self.inner
            .backends
            .iter()
            .filter_map(|backend| backend.expire(now, self.idle_timeout))
            .fold(now + PARKED, Instant::min)
    }

    /// Sets something going with `start` and waits for the value it
    /// hands its completion, expiring deadlines as they come due
    /// meanwhile. What `start` sets going must rest on requests with
    /// deadlines, so expiry alone ends the wait.
    fn settle<T: Send + 'static>(
        &self,
        start: impl FnOnce(Box<dyn FnOnce(T) + Send>),
    ) -> Option<T> {
        let (done, settled) = mpsc::channel();
        start(Box::new(move |value| drop(done.send(value))));
        loop {
            let next = self.expire(Instant::now());
            match settled.recv_timeout(next.saturating_duration_since(Instant::now())) {
                Ok(value) => return Some(value),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    /// Trips backends whose link dropped, and probes tripped backends
    /// whose link is back. If any answers, the fleet's newest plan is
    /// gossiped before they re-admit traffic: each restarted at plan
    /// version 0, so it is stale by construction whenever the fleet
    /// adapted.
    fn health_round(&self) {
        let inner = &self.inner;
        let mut tripped = Vec::new();
        for (host, backend) in inner.backends.iter().enumerate() {
            if !backend.is_up() {
                inner.trip(host);
            } else if !inner.serving(host) {
                tripped.push(host);
            }
        }
        let probed: Vec<Arc<Backend>> = tripped
            .iter()
            .map(|&host| Arc::clone(&inner.backends[host]))
            .collect();
        let replies =
            self.settle(|done| fan_out(&probed, PROBE_TIMEOUT, encode_stats_request, done));
        let answered = tripped.into_iter().zip(replies.unwrap_or_default());
        let back: Vec<usize> = answered
            .filter(|(_, reply)| matches!(reply, Ok(ServerMsg::Stats(_))))
            .map(|(host, _)| host)
            .collect();
        if !back.is_empty() {
            self.settle(|done| inner.gossip(done));
            back.into_iter().for_each(|host| inner.recover(host));
        }
    }

    /// Has every backend's link death wake the loop, then runs the loop
    /// on its own thread until the returned handle drops. A link that
    /// died before its wake was wired is seen by the first tick.
    ///
    /// # Errors
    ///
    /// Returns the error if the thread cannot be spawned.
    pub(crate) fn spawn(mut self) -> io::Result<MaintThread> {
        let (wake, wakes) = mpsc::channel();
        for backend in &self.inner.backends {
            backend.wake_on_link_down(wake.clone());
        }
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name("secemb-rt-maint".into())
            .spawn(move || loop {
                let next = self.tick(Instant::now());
                match wakes.recv_timeout(next.saturating_duration_since(Instant::now())) {
                    Ok(Wake::Tick) | Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Ok(Wake::Stop) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            })?;
        Ok(MaintThread {
            inner,
            wake,
            thread: Some(thread),
        })
    }
}

/// The running loop. Dropping it tells the loop to stop, stops the
/// reactor — which closes every link, so a round the loop is waiting on
/// ends at once, and refuses every later send and attach — then joins
/// the loop.
pub(crate) struct MaintThread {
    inner: Arc<Inner>,
    wake: mpsc::Sender<Wake>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for MaintThread {
    fn drop(&mut self) {
        let _ = self.wake.send(Wake::Stop);
        self.inner.reactor.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn refresh_gauges(inner: &Inner) {
    for b in &inner.backends {
        let gauge = |series| inner.registry.gauge_with(series, &[("backend", b.name())]);
        gauge("router_backend_reconnects").set(b.reconnects() as f64);
        gauge("router_backend_connect_failures").set(b.connect_failures() as f64);
        gauge("router_backend_unmatched_replies").set(b.unmatched_replies() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SYNC_TIMEOUT;
    use secemb::hybrid::{AllocationPlan, PlannedTable};
    use secemb::{GeneratorSpec, Technique};
    use secemb_serve::protocol::{
        decode_client, encode_plan, encode_plan_ack, encode_stats, encode_stats_request,
        encode_table_list, ClientMsg, ServerMsg,
    };
    use secemb_serve::{Client, Engine, EngineConfig, RejectReason, Server, TableConfig};
    use secemb_wire::frame::{read_frame, write_frame};
    use std::io::{BufReader, BufWriter};
    use std::net::{SocketAddr, TcpListener};

    const ROWS: [u64; 2] = [64, 96];
    const BASE: Duration = Duration::from_millis(10);

    fn start_backend(addr: &str) -> (Arc<Engine>, Server) {
        let engine = Arc::new(Engine::start(EngineConfig::new(
            ROWS.iter()
                .map(|&rows| TableConfig::new(GeneratorSpec::Scan { rows, dim: 8 }))
                .collect(),
        )));
        let server = Server::start(Arc::clone(&engine), addr).expect("bind backend");
        (engine, server)
    }

    /// A router core over `backends` (no reactor, no loop thread) and the
    /// loop that maintains it, its rounds first due at `start`.
    fn maintained(
        backends: &[(&str, SocketAddr)],
        health_probe: Option<Duration>,
        gossip_interval: Option<Duration>,
        start: Instant,
    ) -> (Arc<Inner>, Maintenance) {
        let config = RouterConfig {
            backends: backends
                .iter()
                .map(|(name, addr)| (name.to_string(), addr.to_string()))
                .collect(),
            health_probe,
            gossip_interval,
            reconnect_base: BASE,
            ..RouterConfig::default()
        };
        let inner = Arc::new(Inner::connect(&config).expect("one backend is up"));
        let maint = Maintenance::new(Arc::clone(&inner), &config, start);
        (inner, maint)
    }

    /// Against an address nobody listens on, no dial runs before its
    /// deadline, the delays double from the base up to 40× it, each
    /// jittered into `[0.5, 1.5)`, and once the peer appears the next
    /// dial brings the link up and nothing more is scheduled.
    #[test]
    fn redials_wait_for_their_deadline_and_double_up_to_the_cap() {
        let (_engine, live) = start_backend("127.0.0.1:0");
        let dead_addr = {
            let probe = TcpListener::bind("127.0.0.1:0").expect("reserve port");
            probe.local_addr().expect("reserved addr")
        };
        let t0 = Instant::now();
        let backends = [("live", live.addr()), ("dead", dead_addr)];
        let (inner, mut maint) = maintained(&backends, None, None, t0);
        let dead = Arc::clone(&inner.backends[1]);
        let dials = || dead.connect_failures();
        assert_eq!(dials(), 1, "the start-up dial");

        let (mut now, mut due) = (t0, maint.tick(t0));
        assert_eq!(dials(), 1, "a link loss arms a dial, it does not dial");
        let mut delay = BASE;
        for n in 1..=10 {
            let wait = due - now;
            assert!(
                wait >= delay.mul_f64(0.5) && wait < delay.mul_f64(1.5),
                "dial {n} waits {wait:?}: not a jittered {delay:?}"
            );
            assert_eq!(maint.tick(due - Duration::from_nanos(1)), due);
            assert_eq!(dials(), n, "dial {n} ran before its deadline");
            (now, due) = (due, maint.tick(due));
            assert_eq!(dials(), n + 1, "dial {n} did not run at its deadline");
            delay = (delay * 2).min(BASE * 40);
        }

        let (_late_engine, _late) = start_backend(&dead_addr.to_string());
        assert_eq!(maint.tick(due), due + PARKED, "nothing is due once up");
        assert!(dead.is_up());
        assert_eq!((dead.reconnects(), dials()), (1, 11));
        let live = &inner.backends[0];
        assert_eq!(live.connect_failures() + live.reconnects(), 0);
    }

    /// With every link up, the loop is next due at the nearer of its two
    /// rounds, and a round runs when due and not before.
    #[test]
    fn rounds_run_on_their_periods() {
        let (_engine, live) = start_backend("127.0.0.1:0");
        let t0 = Instant::now();
        let (probe, gossip) = (Duration::from_millis(20), Duration::from_millis(50));
        let (inner, mut maint) = maintained(&[("b0", live.addr())], Some(probe), Some(gossip), t0);
        let rounds = inner.registry.counter("router_gossip_rounds_total");
        assert_eq!(maint.tick(t0), t0 + probe, "both rounds run at start");
        assert_eq!(rounds.get(), 1);
        assert_eq!(maint.tick(t0 + probe), t0 + 2 * probe);
        assert_eq!(maint.tick(t0 + 2 * probe), t0 + gossip);
        assert_eq!(rounds.get(), 1, "gossip ran before its period");
        assert_eq!(maint.tick(t0 + gossip), t0 + 3 * probe);
        assert_eq!(rounds.get(), 2);
    }

    /// Everything a scripted backend was asked, in order, and whether the
    /// router counted it as serving when its plan push arrived.
    #[derive(Debug, Default, PartialEq)]
    struct Seen {
        frames: Vec<&'static str>,
        serving_at_push: Option<bool>,
    }

    /// A backend that handshakes like a replica of [`ROWS`], answers
    /// every probe after one stray reply nothing asked for, reports no
    /// plan, and acks a pushed plan after asking the router core sent
    /// down `inner` whether host 1 — itself — is serving.
    fn scripted_backend(inner: mpsc::Receiver<Arc<Inner>>) -> (SocketAddr, JoinHandle<Seen>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            let mut seen = Seen::default();
            while let Ok(payload) = read_frame(&mut reader) {
                let (id, msg) = decode_client(&payload).expect("a router frame");
                let reply = match msg {
                    ClientMsg::Hello(_) => {
                        let inventory: Vec<_> =
                            ROWS.iter().map(|&r| (r, 8, 100.0, "scan".into())).collect();
                        encode_table_list(id, &inventory)
                    }
                    ClientMsg::Stats => {
                        seen.frames.push("probe");
                        write_frame(&mut writer, &encode_stats(u64::MAX, "{}")).expect("stray");
                        encode_stats(id, "{}")
                    }
                    ClientMsg::PlanPull => {
                        seen.frames.push("plan pull");
                        encode_plan(id, None)
                    }
                    ClientMsg::PlanPush(_) => {
                        seen.frames.push("plan push");
                        let inner = inner.recv().expect("router core");
                        seen.serving_at_push = Some(inner.serving(1));
                        encode_plan_ack(id, true, 1, "")
                    }
                    other => panic!("unexpected frame {other:?}"),
                };
                write_frame(&mut writer, &reply).expect("reply");
            }
            seen
        });
        (addr, thread)
    }

    /// A tripped backend whose link is up is probed, gossiped the fleet's
    /// newest plan, and only then re-admitted — all within one tick. The
    /// stray reply it sent before answering the probe is exported.
    #[test]
    fn a_recovered_backend_is_gossiped_before_it_is_readmitted() {
        let (_engine, live) = start_backend("127.0.0.1:0");
        let plan = AllocationPlan {
            version: 3,
            dim: 8,
            batch: 8,
            threads: 1,
            threshold: 1,
            oram_to: 1,
            tables: ROWS
                .iter()
                .map(|&rows| PlannedTable {
                    rows,
                    technique: Technique::Dhe,
                    per_query_ns: 2_000.0,
                })
                .collect(),
        };
        Client::connect(live.addr())
            .expect("connect b0")
            .push_plan(&plan.to_json())
            .expect("b0 adapts");
        let (core, core_rx) = mpsc::channel();
        let (scripted_addr, scripted) = scripted_backend(core_rx);
        let t0 = Instant::now();
        let probe = Duration::from_millis(20);
        let (inner, mut maint) = maintained(
            &[("b0", live.addr()), ("b1", scripted_addr)],
            Some(probe),
            None,
            t0,
        );
        inner.trip(1);
        core.send(Arc::clone(&inner)).expect("hand over the core");

        assert_eq!(maint.tick(t0), t0 + probe);
        assert!(inner.serving(1), "a successful probe re-admits");
        let registry = &inner.registry;
        assert_eq!(registry.counter("router_health_recoveries_total").get(), 1);
        assert_eq!(registry.gauge("router_plan_version").get(), 3.0);
        let unmatched =
            registry.gauge_with("router_backend_unmatched_replies", &[("backend", "b1")]);
        assert_eq!(unmatched.get(), 1.0);

        for backend in &inner.backends {
            backend.shutdown();
        }
        assert_eq!(
            scripted.join().expect("scripted backend"),
            Seen {
                frames: vec!["probe", "plan pull", "plan push"],
                serving_at_push: Some(false),
            }
        );
    }

    /// A backend that handshakes like a replica of [`ROWS`], then reads
    /// everything it is sent and answers nothing.
    fn mute_backend() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let (id, _) = decode_client(&read_frame(&mut stream).expect("hello")).expect("hello");
            let inventory: Vec<_> = ROWS.iter().map(|&r| (r, 8, 100.0, "scan".into())).collect();
            write_frame(&mut stream, &encode_table_list(id, &inventory)).expect("inventory");
            let _ = std::io::Read::read_to_end(&mut stream, &mut Vec::new());
        });
        addr
    }

    /// A router core over one backend that handshakes, then reads
    /// everything and answers nothing; and its loop.
    fn mute(idle: Option<Duration>) -> (Arc<Inner>, Maintenance) {
        let config = RouterConfig {
            backends: vec![("mute".to_string(), mute_backend().to_string())],
            backend_idle_timeout: idle,
            health_probe: None,
            reconnect_base: BASE,
            ..RouterConfig::default()
        };
        let inner = Arc::new(Inner::connect(&config).expect("handshake"));
        let maint = Maintenance::new(Arc::clone(&inner), &config, Instant::now());
        (inner, maint)
    }

    /// With nothing in flight, no silence kills a link, and the loop
    /// wakes once per idle timeout. With a request in flight, the link is
    /// declared dead — its request orphan-rejected — at the tick that
    /// reaches the idle deadline, not one nanosecond earlier, and the
    /// tick before wakes at that deadline.
    #[test]
    fn a_silent_link_is_declared_dead_at_its_idle_deadline() {
        let idle = Duration::from_millis(100);
        let (inner, mut maint) = mute(Some(idle));
        let mute = &inner.backends[0];

        let later = Instant::now() + Duration::from_secs(3600);
        assert_eq!(maint.tick(later), later + idle, "idle wake, nothing due");
        assert!(mute.is_up(), "an idle link is not a dead one");

        let (tx, rx) = mpsc::channel();
        let sent = Instant::now();
        mute.call(
            encode_stats_request,
            Box::new(move |msg, _| {
                let _ = tx.send(msg);
            }),
        )
        .expect("queued");
        let deadline = maint.tick(sent);
        assert!(deadline >= sent + idle && deadline <= Instant::now() + idle);
        assert_eq!(maint.tick(deadline - Duration::from_nanos(1)), deadline);
        assert!(mute.is_up(), "declared dead before its deadline");
        assert!(rx.try_recv().is_err());

        maint.tick(deadline);
        assert!(!mute.is_up(), "still up at its deadline");
        assert_eq!(
            rx.try_recv(),
            Ok(ServerMsg::Rejected(RejectReason::Internal))
        );
    }

    /// Without an idle timeout, a fanned-out control frame a backend
    /// never answers is dropped at its deadline, which is the loop's next
    /// wake: the fan-out completes with a "timed out" slot and nothing is
    /// left pending. The link itself stays up.
    #[test]
    fn an_unanswered_fan_out_times_out_at_its_deadline() {
        let (inner, mut maint) = mute(None);
        let (tx, rx) = mpsc::channel();
        let sent = Instant::now();
        fan_out(
            &inner.backends,
            SYNC_TIMEOUT,
            encode_stats_request,
            move |fleet| {
                let _ = tx.send(fleet);
            },
        );
        let deadline = maint.tick(sent);
        assert!(deadline >= sent + SYNC_TIMEOUT && deadline <= Instant::now() + SYNC_TIMEOUT);
        assert_eq!(maint.tick(deadline - Duration::from_nanos(1)), deadline);
        assert!(rx.try_recv().is_err(), "answered before its deadline");

        let parked = maint.tick(deadline);
        assert_eq!(rx.try_recv(), Ok(vec![Err("timed out".to_string())]));
        assert_eq!(parked, deadline + PARKED, "nothing left pending");
        assert!(inner.backends[0].is_up());
    }
}
