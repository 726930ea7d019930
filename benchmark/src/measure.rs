//! The untraced run: set-up, warm-up, open-loop phase, saturation phase,
//! oracle — the source of every end-to-end metric, and of the
//! full-length served-path numbers reported beside them.

use crate::driver::{Conn, Outcome, Pace, PhaseLog, Reply};
use crate::fleet::{Bins, Fleet};
use crate::oracle::{sampled, Oracle};
use crate::report::{iqr, median, percentile, sorted, Metrics, Run, RunResult};
use crate::workloads::{poisson_schedule, Workload, DEADLINE, SAT_WINDOW};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb_serve::protocol::{encode_generate, encode_tables_request, ServerMsg};
use secemb_serve::RejectReason;
use std::time::{Duration, Instant};

/// Shares of `--seconds` given to warm-up and to the open-loop phase;
/// saturation gets the rest. At the suite's 25 s these are the issue's
/// 3 s, 16 s and 6 s.
const WARM_SHARE: f64 = 0.12;
const OPEN_SHARE: f64 = 0.64;
/// Set-ups are repeated until they have taken this share of `--seconds`
/// (on top of it), and at least [`Plan::spawns`] times.
const SETUP_SHARE: f64 = 0.04;
/// A run whose sender was this late at the 99th percentile measured the
/// generator, not the server.
pub const MAX_LATE_P99_US: f64 = 1000.0;
/// An open-loop phase is cut into this many equal windows, whose medians
/// give `client.window_iqr_ms` (4 s windows in the suite's 16 s phase).
const WINDOWS: usize = 4;
/// Rows read back after a read/write run: this many requests of this
/// many indices.
const READBACK_REQUESTS: usize = 16;
const READBACK_INDICES: usize = 16;

/// How long to run and how often to set up.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    /// Fewest fleet start-ups timed for `setup_s` (the last one is the
    /// fleet the run then uses); more are made while they fit in
    /// [`SETUP_SHARE`] of the run.
    pub spawns: usize,
}

/// What the open-loop phase saw, from the client's side.
pub struct OpenStats {
    pub sent: u64,
    pub ok: u64,
    /// Refused by admission control or a passed deadline.
    pub rejected: u64,
    /// Answered, but later than the SLA allows, from the due time.
    pub late: u64,
    /// Unanswered, `Internal` rejects, undecodable or unexpected frames.
    pub failed: u64,
    /// Latency of answered requests from their due time, ms, ascending.
    pub lat_ms: Vec<f64>,
    /// How late each frame left, us, ascending.
    pub send_late_us: Vec<f64>,
    /// Median latency of each of the phase's [`WINDOWS`] (by due time), ms.
    pub window_p50_ms: Vec<f64>,
}

/// Failures in one phase that are the system's fault whatever the
/// deadline: unanswered requests, transport errors, `Internal` rejects
/// and frames that are not a reply.
pub fn phase_failures(log: &PhaseLog) -> u64 {
    let unanswered = (log.sent.len() as u64).saturating_sub(log.replies.len() as u64);
    let bad = log
        .replies
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                Outcome::Unexpected | Outcome::Rejected(RejectReason::Internal)
            )
        })
        .count() as u64;
    unanswered + bad + log.io_errors
}

pub fn open_stats(log: &PhaseLog) -> OpenStats {
    let mut answers: Vec<Option<&Reply>> = vec![None; log.sent.len()];
    for r in &log.replies {
        // A straggler of an earlier phase has a smaller id: no slot.
        let slot = r.id.checked_sub(log.first_id).map(|k| k as usize);
        if let Some(slot) = slot.and_then(|k| answers.get_mut(k)) {
            *slot = Some(r);
        }
    }
    let window = log.send_span.as_secs_f64().max(f64::MIN_POSITIVE) / WINDOWS as f64;
    let mut window_lat = vec![Vec::new(); WINDOWS];
    let mut lat_ms = Vec::with_capacity(log.replies.len());
    let (mut ok, mut rejected, mut late) = (0, 0, 0);
    for (sent, answer) in log.sent.iter().zip(answers) {
        match answer.map(|r| (&r.outcome, r.done)) {
            Some((Outcome::Ok { .. }, done)) => {
                ok += 1;
                let lat = done.saturating_sub(sent.due);
                if lat > DEADLINE {
                    late += 1;
                }
                let ms = lat.as_secs_f64() * 1e3;
                lat_ms.push(ms);
                let w = (sent.due.as_secs_f64() / window) as usize;
                window_lat[w.min(WINDOWS - 1)].push(ms);
            }
            Some((Outcome::Rejected(reason), _)) if *reason != RejectReason::Internal => {
                rejected += 1;
            }
            _ => {}
        }
    }
    OpenStats {
        sent: log.sent.len() as u64,
        ok,
        rejected,
        late,
        failed: phase_failures(log),
        lat_ms: sorted(lat_ms),
        send_late_us: sorted(
            log.sent
                .iter()
                .map(|s| s.sent.saturating_sub(s.due).as_secs_f64() * 1e6)
                .collect(),
        ),
        window_p50_ms: window_lat
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(median)
            .collect(),
    }
}

impl OpenStats {
    pub fn lat_p50_ms(&self) -> f64 {
        percentile(&self.lat_ms, 0.50)
    }

    pub fn lat_p95_ms(&self) -> f64 {
        percentile(&self.lat_ms, 0.95)
    }

    /// Share of requests sent that missed the SLA: rejected, answered
    /// later than the deadline from their due time, or failed.
    pub fn sla_miss_share(&self) -> f64 {
        (self.rejected + self.late + self.failed) as f64 / self.sent.max(1) as f64
    }

    pub fn late_p99_us(&self) -> f64 {
        percentile(&self.send_late_us, 0.99)
    }

    /// The `client.*` validity metrics of the run that produced `self`.
    pub fn client_metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("client.sent", self.sent as f64, "count");
        m.put("client.ok", self.ok as f64, "count");
        m.put("client.rejected", self.rejected as f64, "count");
        m.put("client.failed", self.failed as f64, "count");
        m.put("client.late_p99_us", self.late_p99_us(), "us");
        m.put("client.lat_p50_ms", self.lat_p50_ms(), "ms");
        m.put("client.lat_p95_ms", self.lat_p95_ms(), "ms");
        m.put("client.lat_p99_ms", percentile(&self.lat_ms, 0.99), "ms");
        m.put(
            "client.lat_max_ms",
            self.lat_ms.last().copied().unwrap_or(0.0),
            "ms",
        );
        m.put(
            "client.window_iqr_ms",
            iqr(self.window_p50_ms.clone()),
            "ms",
        );
        m.put("client.sla_miss_share", self.sla_miss_share(), "share");
        m
    }
}

/// Served replies per second of a closed-loop phase.
pub fn sat_rps(log: &PhaseLog) -> f64 {
    let served = log
        .replies
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Ok { .. }) && r.done <= log.send_span)
        .count();
    served as f64 / log.send_span.as_secs_f64().max(f64::MIN_POSITIVE)
}

/// Starts the workload's fleet and times spawn → first `Tables` reply
/// from the front-end.
pub fn timed_setup(bins: &Bins, workload: &Workload) -> Result<(Fleet, Conn, f64), String> {
    let t0 = Instant::now();
    let fleet = Fleet::spawn(bins, workload)?;
    let mut conn = Conn::connect(fleet.front).map_err(|e| format!("connect: {e}"))?;
    match conn.call(&encode_tables_request(0)) {
        Ok(ServerMsg::Tables(tables)) if tables.len() == workload.specs.len() => {
            Ok((fleet, conn, t0.elapsed().as_secs_f64()))
        }
        other => Err(format!("first Tables reply: {other:?}")),
    }
}

pub fn run_untraced(workload: &'static Workload, bins: &Bins, plan: Plan) -> Result<Run, String> {
    let seed = plan.seed;
    // Built before anything is spawned, so the oracle's own work never
    // competes with a measured phase.
    let mut oracle = Oracle::build(workload, seed);

    // A start-up takes 8 to 90 ms here; the cheap ones are repeated
    // more often, so their median is as steady as the dear ones'.
    let setup_budget = plan.seconds * SETUP_SHARE;
    let mut setups = Vec::new();
    let (fleet, mut conn) = loop {
        let (fleet, conn, secs) = timed_setup(bins, workload)?;
        setups.push(secs);
        if setups.len() >= plan.spawns && setups.iter().sum::<f64>() >= setup_budget {
            break (fleet, conn);
        }
    };

    let payload =
        |deadline| move |id| workload.encode(&workload.request(seed, id), id, deadline, None);
    let with_sla = payload(Some(DEADLINE));
    let no_sla = payload(None);
    let secs = |share: f64| Duration::from_secs_f64(plan.seconds * share);

    let warm_due = poisson_schedule(seed, workload.rate, secs(WARM_SHARE));
    let warm = conn.run_phase(0, Pace::Open { due: &warm_due }, &with_sla, &sampled);
    let mut next_id = warm.sent.len() as u64;

    let open_due = poisson_schedule(seed ^ 1, workload.rate, secs(OPEN_SHARE));
    let cpu_before = fleet.cpu_seconds();
    let open = conn.run_phase(next_id, Pace::Open { due: &open_due }, &with_sla, &sampled);
    let cpu_open = fleet.cpu_seconds() - cpu_before;
    next_id += open.sent.len() as u64;

    let sat_span = secs(1.0 - WARM_SHARE - OPEN_SHARE);
    let sat = conn.run_phase(
        next_id,
        Pace::Closed {
            window: SAT_WINDOW,
            span: sat_span,
        },
        &no_sla,
        &sampled,
    );
    next_id += sat.sent.len() as u64;

    for log in [&warm, &open, &sat] {
        oracle.check(log);
    }
    let mut attempted = (warm.sent.len() + open.sent.len() + sat.sent.len()) as u64;
    let mut failed = phase_failures(&warm) + phase_failures(&open) + phase_failures(&sat);
    if oracle.has_shadow() {
        let rows = workload.specs[0].rows();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAC4);
        for k in 0..READBACK_REQUESTS {
            let indices: Vec<u64> = (0..READBACK_INDICES)
                .map(|_| rng.gen_range(0..rows))
                .collect();
            attempted += 1;
            match conn.call(&encode_generate(next_id + k as u64, 0, &indices, None)) {
                Ok(ServerMsg::Embeddings(got, _)) => oracle.check_readback(&indices, &got),
                _ => failed += 1,
            }
        }
    }
    let rss_mib = fleet.rss_hwm_mib();
    drop(conn);
    drop(fleet);

    let stats = open_stats(&open);
    failed += oracle.mismatches;

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(setups), "s");
    metrics.put("rss_mb", rss_mib, "MiB");
    metrics.put(
        "ok_share",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "share",
    );

    // The served-path numbers this host cannot hold to a bound: reported
    // beside the gated ones, under the names the traced run gives them.
    let mut client = stats.client_metrics();
    client.put("client.sat_rps", sat_rps(&sat), "req/s");
    client.put(
        "fleet.cpu_us_per_req",
        cpu_open * 1e6 / stats.ok.max(1) as f64,
        "us",
    );
    client.put("client.sat_sent", sat.sent.len() as f64, "count");
    client.put("client.oracle_checked", oracle.checked as f64, "count");
    client.put(
        "client.oracle_mismatches",
        oracle.mismatches as f64,
        "count",
    );
    client.put(
        "client.fail_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );
    Ok(Run {
        result: RunResult {
            correct: oracle.mismatches == 0 && oracle.checked > 0,
            attempted,
            failed,
            metrics,
        },
        late_p99_us: stats.late_p99_us(),
        client,
    })
}
