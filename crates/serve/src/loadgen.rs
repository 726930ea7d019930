//! Load generation: one open-loop stream of paced or Poisson arrivals,
//! optionally mixed over several tables, for latency-throughput sweeps
//! (the serving-side analogue of the paper's Fig. 13 SLA curves).
//!
//! The whole schedule is built up front. The calling thread is the only
//! sender: it sends each request at its due time onto a link that one
//! [`FrameReactor`] owns, and the reactor thread files the replies. Every
//! request is timed from when it was *due*, so a stalled server is
//! charged the wait it imposes on each later request, and a sender that
//! falls behind sends its backlog at once instead of dropping it. How
//! late the sender itself ran is reported as [`LoadReport::late`].

use crate::client::Client;
use crate::protocol::{decode_server, encode_generate_traced, encode_update_traced, ServerMsg};
use crate::reactor::{FrameReactor, LinkSender, ReactorConfig};
use crate::request::RejectReason;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::stats::LatencySummary;
use secemb_telemetry::{Stage, StageBreakdown, TraceCtx};
use secemb_tensor::Matrix;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::str::FromStr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the sender waits before retrying a frame that a link refused
/// because the peer is not reading. The wait counts against the request:
/// its latency still runs from its due time.
const SEND_RETRY: Duration = Duration::from_micros(100);

/// How request due times are spaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Fixed inter-request interval (deterministic, zero burstiness) —
    /// a lower bound on queueing pressure at a given offered rate.
    #[default]
    Paced,
    /// Exponential inter-arrival times (an open-loop Poisson process) —
    /// the memoryless arrivals real front-ends see, with bursts that
    /// stress admission control at the same mean rate.
    Poisson,
}

impl Schedule {
    /// Short CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Schedule::Paced => "paced",
            Schedule::Poisson => "poisson",
        }
    }

    /// Due times, as offsets from the run start, of every request that
    /// falls inside `span` at `rate` per second: request `k` at `k/rate`
    /// when paced, after exponential gaps of mean `1/rate` when Poisson.
    fn due_times(self, rate: f64, span: Duration, rng: &mut StdRng) -> Vec<Duration> {
        let mut due = Vec::new();
        let mut t = 0.0;
        while t < span.as_secs_f64() {
            due.push(Duration::from_secs_f64(t));
            t = match self {
                Schedule::Paced => due.len() as f64 / rate,
                // Inverse-CDF sample of Exp(rate): -ln(1-U) / rate.
                Schedule::Poisson => t - (1.0 - rng.gen::<f64>()).ln() / rate,
            };
        }
        due
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paced" => Ok(Schedule::Paced),
            "poisson" => Ok(Schedule::Poisson),
            other => Err(format!("unknown schedule '{other}' (paced|poisson)")),
        }
    }
}

/// One load run's parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server (or router) addresses. Connections are assigned
    /// round-robin across the list, so a multi-entry list spreads the
    /// offered load over a fleet of equivalent front-ends; the table
    /// inventory is probed from the first entry.
    pub addrs: Vec<SocketAddr>,
    /// Connections the schedule is dealt over: request `k` goes out on
    /// connection `k mod connections`.
    pub connections: usize,
    /// Extra connections held open but idle for the whole run. Each
    /// performs one inventory round trip at startup (so the server has
    /// fully admitted it) and then sits silent until the run ends —
    /// modeling the mostly-idle connection fleets long-lived front-ends
    /// keep, which cost a reactor server O(1) threads but a
    /// thread-per-connection server two threads each.
    pub idle_connections: usize,
    /// Tables to query; each request picks one uniformly at random, so a
    /// multi-entry list produces mixed traffic across shards.
    pub tables: Vec<usize>,
    /// Indices per request.
    pub batch: usize,
    /// Offered load, requests/second across all connections.
    pub offered_rps: f64,
    /// Inter-arrival schedule.
    pub schedule: Schedule,
    /// Measurement length.
    pub duration: Duration,
    /// Per-request deadline sent to the server, if any.
    pub deadline: Option<Duration>,
    /// Fraction of requests sent as oblivious updates (read-modify-write
    /// with random small delta rows) instead of plain reads, in `[0, 1]`.
    /// 0.0 is the classic read-only workload; against a table without a
    /// write path the updates come back `UpdateUnsupported` and count as
    /// rejections.
    pub write_frac: f64,
    /// RNG seed for the schedule and for index/table selection.
    pub seed: u64,
    /// When true, the report carries one [`RequestRecord`] per answered
    /// request (completed or rejected) for per-request JSONL export.
    pub record_requests: bool,
    /// When true, every request carries a distributed-trace context with
    /// a sequential public trace id, so a server running
    /// `--trace-sample N` records spans for every N-th request. The trace
    /// id never encodes tables or indices.
    pub trace: bool,
    /// Bucket response outcomes into fixed windows measured from run
    /// start (`None` disables). Feeds [`LoadReport::timeline`] — the
    /// view that makes a mid-run backend kill legible as a bounded dip
    /// rather than an averaged-away blip.
    pub timeline_bucket: Option<Duration>,
    /// Separately tally outcomes landing in the final window of the run
    /// (`None` disables). Feeds [`LoadReport::tail`] — "had the tier
    /// recovered by the end?", the assertion a failover smoke test
    /// needs after killing and restarting a backend.
    pub tail_window: Option<Duration>,
}

/// Response outcomes over one window: completions, ordinary rejections,
/// and `Internal` rejections broken out on their own because they are
/// the client-visible signature of an unhealthy backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Requests answered with embeddings.
    pub ok: u64,
    /// Requests rejected for any reason other than `Internal`
    /// (admission control, deadlines, shutdown — expected behavior).
    pub rejected: u64,
    /// Requests rejected with [`RejectReason::Internal`] — the failure
    /// mode replica failover exists to bound.
    pub internal: u64,
}

impl OutcomeCounts {
    fn note(&mut self, rejected: Option<RejectReason>) {
        match rejected {
            None => self.ok += 1,
            Some(RejectReason::Internal) => self.internal += 1,
            Some(_) => self.rejected += 1,
        }
    }

    /// Grep-able key=value rendering (`ok=12 rejected=0 internal=0`).
    pub fn render(&self) -> String {
        format!(
            "ok={} rejected={} internal={}",
            self.ok, self.rejected, self.internal
        )
    }
}

/// One answered request, as the client observed it. Only present in a
/// [`LoadReport`] when [`LoadConfig::record_requests`] was set.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// Which load connection issued the request.
    pub conn: usize,
    /// Table the request targeted.
    pub table: usize,
    /// Due time to reply, nanoseconds.
    pub latency_ns: u64,
    /// Server-attributed per-stage breakdown; `None` for rejections.
    pub stages: Option<StageBreakdown>,
    /// Whether the round trip met the configured deadline (vacuously true
    /// without one). Meaningless for rejections.
    pub sla_ok: bool,
    /// The server's explicit rejection, if the request was refused.
    pub rejected: Option<RejectReason>,
}

impl RequestRecord {
    /// SLA verdict label: `ok`, `sla_violation` or `rejected`.
    pub fn verdict(&self) -> &'static str {
        if self.rejected.is_some() {
            "rejected"
        } else if self.sla_ok {
            "ok"
        } else {
            "sla_violation"
        }
    }

    /// One compact JSON object (a JSONL line without the newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"conn\":{},\"table\":{},\"latency_ns\":{},\"verdict\":\"{}\",\"reject_reason\":",
            self.conn,
            self.table,
            self.latency_ns,
            self.verdict()
        );
        match self.rejected {
            Some(reason) => out.push_str(&format!("\"{reason}\"")),
            None => out.push_str("null"),
        }
        out.push_str(",\"stages\":");
        match &self.stages {
            Some(stages) => {
                out.push('{');
                for (i, stage) in Stage::ALL.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", stage.label(), stages.get(*stage)));
                }
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Aggregated result of one load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Offered load (echoed from the config).
    pub offered_rps: f64,
    /// Successfully answered requests per second.
    pub achieved_rps: f64,
    /// Requests answered with embeddings.
    pub completed: u64,
    /// Completed requests whose latency still exceeded the deadline —
    /// answered, but in SLA violation. Always 0 when no deadline was set.
    pub deadline_violations: u64,
    /// Requests explicitly rejected, per reason index
    /// ([`RejectReason::ALL`] order).
    pub rejected: [u64; RejectReason::ALL.len()],
    /// Due time to reply, over completed requests.
    pub latency: LatencySummary,
    /// Due time to send, over every request: how late the generator
    /// itself ran. Latency includes it, so a run whose `late` tail
    /// approaches its `latency` tail measured the generator, not the
    /// server.
    pub late: LatencySummary,
    /// Per-request records, in no particular order; empty unless
    /// [`LoadConfig::record_requests`] was set.
    pub records: Vec<RequestRecord>,
    /// Outcome counts per [`LoadConfig::timeline_bucket`] window from
    /// run start; empty when bucketing was disabled. The last bucket
    /// also absorbs responses drained after the offered window closed.
    pub timeline: Vec<OutcomeCounts>,
    /// Outcomes landing in the final [`LoadConfig::tail_window`] of the
    /// run (including the post-run drain); `None` when disabled.
    pub tail: Option<OutcomeCounts>,
}

impl LoadReport {
    /// Total rejections across reasons.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// Fraction of requests rejected.
    pub fn rejected_fraction(&self) -> f64 {
        let total = self.completed + self.total_rejected();
        if total == 0 {
            return 0.0;
        }
        self.total_rejected() as f64 / total as f64
    }

    /// Fraction of requests that missed their SLA: rejected outright or
    /// completed past the deadline. The quantity the adaptive controller
    /// is judged on.
    pub fn sla_miss_fraction(&self) -> f64 {
        let total = self.completed + self.total_rejected();
        if total == 0 {
            return 0.0;
        }
        (self.deadline_violations + self.total_rejected()) as f64 / total as f64
    }
}

/// What a link's dispatch tells the sending thread.
enum Event {
    /// A reply to request `id`, decoded at the instant: the embeddings'
    /// stage breakdown, or the rejection.
    Reply(u64, Instant, Result<StageBreakdown, RejectReason>),
    /// The reactor dropped connection `conn`.
    Closed(usize),
}

/// Dials `addr` and hands the stream to the reactor as connection `conn`,
/// whose replies and close are reported on `events`. A frame that is
/// not a reply to a lookup closes the link.
fn attach(
    reactor: &FrameReactor,
    addr: SocketAddr,
    conn: usize,
    events: &mpsc::Sender<Event>,
) -> io::Result<LinkSender> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let (replies, closes) = (events.clone(), events.clone());
    reactor.outbox().attach(
        stream,
        Box::new(move |payload: &[u8], _| {
            let (id, outcome) = match decode_server(payload) {
                Ok((id, ServerMsg::Embeddings(_, stages))) => (id, Ok(stages)),
                Ok((id, ServerMsg::Rejected(reason))) => (id, Err(reason)),
                _ => return false,
            };
            let _ = replies.send(Event::Reply(id, Instant::now(), outcome));
            true
        }),
        Box::new(move || {
            let _ = closes.send(Event::Closed(conn));
        }),
    )
}

/// The run's accounting: every reply is filed by its request id against
/// the schedule.
struct Ledger<'a> {
    config: &'a LoadConfig,
    run_start: Instant,
    due: &'a [Duration],
    /// `tables[id]`: the table request `id` targeted; one entry per send.
    tables: Vec<usize>,
    answered: Vec<bool>,
    /// Requests sent and not yet answered.
    pending: usize,
    latencies_ns: Vec<f64>,
    deadline_violations: u64,
    rejected: [u64; RejectReason::ALL.len()],
    records: Vec<RequestRecord>,
    timeline: Vec<OutcomeCounts>,
    tail: OutcomeCounts,
}

impl Ledger<'_> {
    /// Notes that request `tables.len()` went out.
    fn note_sent(&mut self, table: usize) {
        self.tables.push(table);
        self.pending += 1;
    }

    /// Files one event.
    ///
    /// # Errors
    ///
    /// Returns `ConnectionAborted` for a link that closes before the run's
    /// last reply (requests sent on it, or due on it, would go
    /// unanswered), and `InvalidData` for a reply to an id never sent or
    /// already answered.
    fn file(&mut self, event: Event) -> io::Result<()> {
        let (id, at, outcome) = match event {
            Event::Reply(id, at, outcome) => (id, at, outcome),
            Event::Closed(conn) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!(
                        "load connection {conn} closed with {} request(s) unanswered",
                        self.pending
                    ),
                ))
            }
        };
        let Some(id) = usize::try_from(id)
            .ok()
            .filter(|&id| id < self.tables.len() && !self.answered[id])
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply for an id never sent or already answered",
            ));
        };
        self.answered[id] = true;
        self.pending -= 1;
        let latency = at.saturating_duration_since(self.run_start + self.due[id]);
        let rejected = outcome.err();
        let stages = outcome.ok();
        let sla_ok = rejected.is_none() && self.config.deadline.is_none_or(|d| latency <= d);
        match rejected {
            None => {
                self.latencies_ns.push(latency.as_nanos() as f64);
                self.deadline_violations += u64::from(!sla_ok);
            }
            Some(reason) => self.rejected[reason.index()] += 1,
        }
        self.tally_windows(at, rejected);
        if self.config.record_requests {
            self.records.push(RequestRecord {
                conn: id % self.config.connections,
                table: self.tables[id],
                latency_ns: latency.as_nanos() as u64,
                stages,
                sla_ok,
                rejected,
            });
        }
        Ok(())
    }

    /// Files one reply into the timeline bucket and tail window tallies
    /// by the instant it landed (no-ops when both knobs are off). Replies
    /// drained after the offered window land in the last bucket.
    fn tally_windows(&mut self, at: Instant, rejected: Option<RejectReason>) {
        let config = self.config;
        if let Some(bucket) = config.timeline_bucket.filter(|b| !b.is_zero()) {
            let cap = (config.duration.as_nanos() / bucket.as_nanos()).max(1) as usize;
            let idx = (at.saturating_duration_since(self.run_start).as_nanos() / bucket.as_nanos())
                as usize;
            let idx = idx.min(cap - 1);
            if self.timeline.len() <= idx {
                self.timeline.resize(idx + 1, OutcomeCounts::default());
            }
            self.timeline[idx].note(rejected);
        }
        if let Some(window) = config.tail_window {
            let run_end = self.run_start + config.duration;
            if run_end.checked_sub(window).is_none_or(|start| at >= start) {
                self.tail.note(rejected);
            }
        }
    }

    fn report(mut self, late_ns: &[f64]) -> LoadReport {
        let config = self.config;
        // Pad to the full run so an all-dead trailing window still shows
        // up as explicit zero buckets rather than a shorter vector.
        if let Some(bucket) = config.timeline_bucket.filter(|b| !b.is_zero()) {
            let cap = (config.duration.as_nanos() / bucket.as_nanos()).max(1) as usize;
            if self.timeline.len() < cap {
                self.timeline.resize(cap, OutcomeCounts::default());
            }
        }
        let completed = self.latencies_ns.len() as u64;
        LoadReport {
            offered_rps: config.offered_rps,
            achieved_rps: completed as f64 / config.duration.as_secs_f64(),
            completed,
            deadline_violations: self.deadline_violations,
            rejected: self.rejected,
            latency: LatencySummary::from_ns(&self.latencies_ns),
            late: LatencySummary::from_ns(late_ns),
            records: self.records,
            timeline: self.timeline,
            tail: config.tail_window.map(|_| self.tail),
        }
    }
}

/// Runs one load test against a running server.
///
/// The run is one open-loop schedule at `offered_rps` (see
/// [`Schedule`]); request `k` carries request id `k` and goes out on
/// connection `k mod connections`, and connections round-robin over
/// [`LoadConfig::addrs`], so the same run drives one server or a fleet of
/// interchangeable front-ends. The calling thread draws and encodes each
/// request ahead of its due time, sleeps to it, and sends; nothing caps
/// the requests in flight, and after the last due time it waits for
/// every reply. Latency runs from the due time to the reply, so a server
/// slower than the schedule shows as latency and rejections while
/// `achieved_rps` saturates at its capacity. The run takes two threads,
/// whatever `connections` is: the caller, and one reactor carrying every
/// load connection.
///
/// # Errors
///
/// Returns connection errors, including a load connection that closes
/// with requests unanswered. Rejections are reported, not errors.
///
/// # Panics
///
/// Panics if `connections`, `batch`, `tables`, `addrs` or `offered_rps`
/// is zero/empty/negative.
pub fn run_load(config: &LoadConfig) -> io::Result<LoadReport> {
    assert!(config.connections > 0, "run_load: zero connections");
    assert!(config.batch > 0, "run_load: zero batch");
    assert!(!config.tables.is_empty(), "run_load: no tables");
    assert!(config.offered_rps > 0.0, "run_load: non-positive rate");
    assert!(!config.addrs.is_empty(), "run_load: no addresses");
    assert!(
        (0.0..=1.0).contains(&config.write_frac),
        "run_load: write_frac outside [0, 1]"
    );
    // shapes[i] = (index domain, dim) of config.tables[i].
    let shapes: Vec<(u64, usize)> = {
        let mut probe = Client::connect(config.addrs[0])?;
        let served = probe.tables()?;
        config
            .tables
            .iter()
            .map(|&id| match served.get(id) {
                Some(t) => Ok((t.rows, t.dim)),
                None => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("server has no table {id} (it serves {})", served.len()),
                )),
            })
            .collect::<io::Result<_>>()?
    };
    // Open the idle fleet before offering load so its admission cost
    // (accept + handshake) is not attributed to measured requests.
    let mut idle: Vec<Client> = Vec::with_capacity(config.idle_connections);
    for i in 0..config.idle_connections {
        let mut client = Client::connect(config.addrs[i % config.addrs.len()])?;
        client.tables()?;
        idle.push(client);
    }

    let reactor = FrameReactor::spawn(Box::new(|_| {}), ReactorConfig::default())?;
    let (events, inbox) = mpsc::channel();
    let links = (0..config.connections)
        .map(|conn| {
            attach(
                &reactor,
                config.addrs[conn % config.addrs.len()],
                conn,
                &events,
            )
        })
        .collect::<io::Result<Vec<_>>>()?;
    drop(events);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let due = config
        .schedule
        .due_times(config.offered_rps, config.duration, &mut rng);
    let mut late_ns = Vec::with_capacity(due.len());
    let mut ledger = Ledger {
        config,
        run_start: Instant::now(),
        due: &due,
        tables: Vec::with_capacity(due.len()),
        answered: vec![false; due.len()],
        pending: 0,
        latencies_ns: Vec::new(),
        deadline_violations: 0,
        rejected: [0; RejectReason::ALL.len()],
        records: Vec::new(),
        timeline: Vec::new(),
        tail: OutcomeCounts::default(),
    };
    for (id, &offset) in due.iter().enumerate() {
        let slot = rng.gen_range(0..config.tables.len());
        let (table, (rows, dim)) = (config.tables[slot], shapes[slot]);
        let indices: Vec<u64> = (0..config.batch).map(|_| rng.gen_range(0..rows)).collect();
        let is_write = config.write_frac > 0.0 && rng.gen::<f64>() < config.write_frac;
        // Gradient-sized deltas: small, zero-mean.
        let deltas = is_write
            .then(|| Matrix::from_fn(config.batch, dim, |_, _| (rng.gen::<f32>() - 0.5) * 1e-3));
        let trace = config.trace.then(|| TraceCtx::new(id as u64 + 1));
        let encode = || match &deltas {
            Some(d) => encode_update_traced(id as u64, table, &indices, d, config.deadline, trace),
            None => encode_generate_traced(id as u64, table, &indices, config.deadline, trace),
        };
        let mut frame = encode();
        // File what has landed meanwhile, then sleep to the due time.
        while let Ok(event) = inbox.try_recv() {
            ledger.file(event)?;
        }
        let due_at = ledger.run_start + offset;
        let ahead = due_at.saturating_duration_since(Instant::now());
        if !ahead.is_zero() {
            std::thread::sleep(ahead);
        }
        ledger.note_sent(table);
        let link = &links[id % config.connections];
        while let Err(e) = link.send(frame) {
            if e.kind() != io::ErrorKind::WouldBlock {
                return Err(e);
            }
            std::thread::sleep(SEND_RETRY);
            frame = encode();
        }
        late_ns.push(due_at.elapsed().as_nanos() as f64);
    }
    while ledger.pending > 0 {
        let event = inbox
            .recv()
            .map_err(|_| io::Error::other("load reactor stopped"))?;
        ledger.file(event)?;
    }
    drop(reactor);
    drop(idle); // held across the whole measured window
    Ok(ledger.report(&late_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parses_and_labels() {
        assert_eq!("paced".parse::<Schedule>().unwrap(), Schedule::Paced);
        assert_eq!("poisson".parse::<Schedule>().unwrap(), Schedule::Poisson);
        assert!("burst".parse::<Schedule>().is_err());
        assert_eq!(Schedule::Poisson.label(), "poisson");
        assert_eq!(Schedule::default(), Schedule::Paced);
    }

    #[test]
    fn due_times_cover_the_span_at_the_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let span = Duration::from_secs(2);
        let paced = Schedule::Paced.due_times(500.0, span, &mut rng);
        assert_eq!(paced.len(), 1000);
        assert_eq!(paced[0], Duration::ZERO);
        let poisson = Schedule::Poisson.due_times(500.0, span, &mut rng);
        assert!(poisson.windows(2).all(|w| w[0] <= w[1]));
        assert!(poisson.last().is_some_and(|&t| t < span));
        assert!((900..1100).contains(&poisson.len()), "{}", poisson.len());
    }

    #[test]
    fn report_fractions() {
        let mut report = LoadReport {
            offered_rps: 100.0,
            achieved_rps: 90.0,
            completed: 90,
            deadline_violations: 6,
            rejected: [4, 0, 0, 0, 0, 0, 0],
            latency: LatencySummary::from_ns(&[]),
            late: LatencySummary::from_ns(&[]),
            records: Vec::new(),
            timeline: Vec::new(),
            tail: None,
        };
        report.rejected[1] = 6;
        assert_eq!(report.total_rejected(), 10);
        assert!((report.rejected_fraction() - 0.1).abs() < 1e-12);
        assert!((report.sla_miss_fraction() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn empty_report_fractions_are_zero() {
        let report = LoadReport {
            offered_rps: 1.0,
            achieved_rps: 0.0,
            completed: 0,
            deadline_violations: 0,
            rejected: [0; RejectReason::ALL.len()],
            latency: LatencySummary::from_ns(&[]),
            late: LatencySummary::from_ns(&[]),
            records: Vec::new(),
            timeline: Vec::new(),
            tail: None,
        };
        assert_eq!(report.rejected_fraction(), 0.0);
        assert_eq!(report.sla_miss_fraction(), 0.0);
    }

    #[test]
    fn outcome_counts_classify_and_render() {
        let mut counts = OutcomeCounts::default();
        counts.note(None);
        counts.note(None);
        counts.note(Some(RejectReason::QueueFull));
        counts.note(Some(RejectReason::Internal));
        assert_eq!(
            counts,
            OutcomeCounts {
                ok: 2,
                rejected: 1,
                internal: 1
            }
        );
        assert_eq!(counts.render(), "ok=2 rejected=1 internal=1");
    }

    #[test]
    fn request_record_verdicts_and_json() {
        let mut stages = StageBreakdown::default();
        stages.set(Stage::Queue, 10);
        stages.set(Stage::Generate, 90);
        let ok = RequestRecord {
            conn: 2,
            table: 1,
            latency_ns: 123,
            stages: Some(stages),
            sla_ok: true,
            rejected: None,
        };
        assert_eq!(ok.verdict(), "ok");
        let json = ok.to_json();
        assert!(json.contains("\"conn\":2"));
        assert!(json.contains("\"latency_ns\":123"));
        assert!(json.contains("\"reject_reason\":null"));
        assert!(json.contains("\"queue\":10"));
        assert!(json.contains("\"generate\":90"));

        let late = RequestRecord {
            sla_ok: false,
            ..ok.clone()
        };
        assert_eq!(late.verdict(), "sla_violation");

        let no = RequestRecord {
            conn: 0,
            table: 0,
            latency_ns: 55,
            stages: None,
            sla_ok: false,
            rejected: Some(RejectReason::QueueFull),
        };
        assert_eq!(no.verdict(), "rejected");
        let json = no.to_json();
        assert!(json.contains("\"verdict\":\"rejected\""));
        assert!(json.contains("\"reject_reason\":\"queue_full\""));
        assert!(json.contains("\"stages\":null"));
    }
}
