//! Server-side observability: request counters, queue depth, batch-size
//! histogram, and registry-backed latency + per-stage histograms.
//!
//! Everything on the hot path is lock-free: counters and histograms are
//! `secemb-telemetry` handles (relaxed atomics), replacing the mutexed
//! latency reservoir the server used to carry. The registry is shared —
//! `ServerStats` pre-registers the serving metrics, and the layers below
//! (ORAM probes, enclave counters, the adapt controller) add their own
//! gauges to the same registry, so one snapshot covers the whole stack.

use crate::lock_unpoisoned;
use crate::request::RejectReason;
use secemb::stats::LatencySummary;
use secemb::Technique;
use secemb_telemetry::{Counter, Histogram, Registry, Stage, StageBreakdown};
use secemb_wire::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histogram buckets: batch size `b` lands in bucket `ceil(log2(b))`,
/// i.e. bucket `k` counts batches with `2^(k-1) < b <= 2^k`.
const HIST_BUCKETS: usize = 16;

fn tech_index(t: Technique) -> usize {
    Technique::ALL
        .iter()
        .position(|&x| x == t)
        .expect("technique is in ALL")
}

/// Lock-free counters shared by every shard worker and front-end thread.
///
/// Counter and histogram state lives in the [`Registry`] (so it shows up
/// in JSONL snapshots and `METRICS` frames); a few exact values the
/// snapshot needs (queue depth, plan version/epoch) are kept as plain
/// atomics and mirrored into gauges by [`ServerStats::publish_gauges`].
#[derive(Debug)]
pub struct ServerStats {
    registry: Arc<Registry>,
    accepted: Arc<Counter>,
    completed: Arc<Counter>,
    rejected: [Arc<Counter>; RejectReason::ALL.len()],
    queries_by_technique: [Arc<Counter>; Technique::ALL.len()],
    latency: Arc<Histogram>,
    stage_hists: [Arc<Histogram>; Stage::ALL.len()],
    swaps_applied: Arc<Counter>,
    worker_deaths: Arc<Counter>,
    batch_hist: [AtomicU64; HIST_BUCKETS],
    queue_depth: AtomicU64,
    plan_version: AtomicU64,
    epoch: AtomicU64,
    /// One entry per shard worker, registered at engine startup; the
    /// batch counter itself stays lock-free on the hot path (workers hold
    /// the `Arc` and only add). The `alive` flag flips on worker death —
    /// rare enough that the mutex never contends.
    worker_batches: Mutex<Vec<WorkerSlot>>,
}

/// Registry entry for one shard worker.
#[derive(Debug)]
struct WorkerSlot {
    table: usize,
    batches: Arc<Counter>,
    alive: bool,
}

impl ServerStats {
    /// Fresh zeroed stats over a private enabled registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Fresh zeroed stats recording into `registry` (which may be
    /// disabled, turning all recording into no-ops).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let rejected = RejectReason::ALL
            .map(|r| registry.counter_with("requests_rejected_total", &[("reason", r.label())]));
        let queries_by_technique = Technique::ALL
            .map(|t| registry.counter_with("queries_total", &[("technique", t.label())]));
        let stage_hists =
            Stage::ALL.map(|s| registry.histogram_with("stage_ns", &[("stage", s.label())]));
        ServerStats {
            accepted: registry.counter("requests_accepted_total"),
            completed: registry.counter("requests_completed_total"),
            rejected,
            queries_by_technique,
            latency: registry.histogram("request_latency_ns"),
            stage_hists,
            swaps_applied: registry.counter("plan_swaps_total"),
            worker_deaths: registry.counter("worker_deaths_total"),
            batch_hist: Default::default(),
            queue_depth: AtomicU64::new(0),
            plan_version: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            worker_batches: Mutex::new(Vec::new()),
            registry,
        }
    }

    /// The registry this server records into. The engine hands it to
    /// ORAM/enclave probes, the adapt controller, and exporters.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Records a request passing admission control.
    pub fn record_accepted(&self, queries: usize) {
        self.accepted.inc();
        self.queue_depth
            .fetch_add(queries as u64, Ordering::Relaxed);
    }

    /// Records a rejection. For post-admission rejections (a stale request
    /// found at dequeue) the queued queries are also released.
    pub fn record_rejected(&self, reason: RejectReason, queued_queries: usize) {
        self.rejected[reason.index()].inc();
        self.queue_depth
            .fetch_sub(queued_queries as u64, Ordering::Relaxed);
    }

    /// Records one dispatched coalesced batch of `queries` total queries.
    pub fn record_batch(&self, queries: usize) {
        let bucket = if queries <= 1 {
            0
        } else {
            (usize::BITS - (queries - 1).leading_zeros()) as usize
        };
        self.batch_hist[bucket.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed request: its technique, query count,
    /// submission-to-reply latency, and per-stage attribution.
    ///
    /// The write stage is excluded here (it has not happened yet when the
    /// worker completes the request) — the reactor reports it via
    /// [`ServerStats::record_write_ns`] once the reply is on the socket.
    pub fn record_completed(
        &self,
        technique: Technique,
        queries: usize,
        latency_ns: f64,
        stages: &StageBreakdown,
    ) {
        self.completed.inc();
        self.queue_depth
            .fetch_sub(queries as u64, Ordering::Relaxed);
        self.queries_by_technique[tech_index(technique)].add(queries as u64);
        self.latency.record(latency_ns as u64);
        for (stage, ns) in stages.iter() {
            if stage != Stage::Write {
                self.stage_hists[stage.index()].record(ns);
            }
        }
    }

    /// Records one reply frame's write stage: reply enqueue to socket
    /// write, on the reactor thread.
    pub fn record_write_ns(&self, ns: u64) {
        self.stage_hists[Stage::Write.index()].record(ns);
    }

    /// Records that a new allocation plan became active.
    pub fn record_plan(&self, version: u64, epoch: u64) {
        self.plan_version.store(version, Ordering::SeqCst);
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Records one shard's generator being exchanged by a plan swap.
    pub fn record_swap_applied(&self, _epoch: u64) {
        self.swaps_applied.inc();
    }

    /// Records one shard worker dying (panicked generator): bumps the
    /// death counter and marks the worker dead in the per-worker table so
    /// snapshots and the stats endpoint report it.
    pub fn record_worker_death(&self, table: usize) {
        self.worker_deaths.inc();
        for slot in lock_unpoisoned(&self.worker_batches).iter_mut() {
            if slot.table == table {
                slot.alive = false;
            }
        }
    }

    /// Registers `table`'s shard worker and returns its dispatched-batch
    /// counter. Called once per shard at engine startup; the worker
    /// increments the returned counter on every batch it dispatches.
    pub fn register_worker(&self, table: usize) -> Arc<Counter> {
        let counter = self
            .registry
            .counter_with("worker_batches_total", &[("table", &table.to_string())]);
        lock_unpoisoned(&self.worker_batches).push(WorkerSlot {
            table,
            batches: Arc::clone(&counter),
            alive: true,
        });
        counter
    }

    /// Queries currently admitted but not yet answered.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Mirrors the atomically-kept values (queue depth, plan
    /// version/epoch) into registry gauges so exporters see
    /// them. Called before every snapshot/render; cheap enough to call
    /// from a periodic exporter too.
    pub fn publish_gauges(&self) {
        self.registry
            .gauge("queue_depth")
            .set(self.queue_depth() as f64);
        self.registry
            .gauge("plan_version")
            .set(self.plan_version.load(Ordering::SeqCst) as f64);
        self.registry
            .gauge("plan_epoch")
            .set(self.epoch.load(Ordering::SeqCst) as f64);
    }

    /// Renders the whole registry (serving metrics plus whatever the
    /// layers below registered) as Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        self.publish_gauges();
        self.registry.snapshot().render_prometheus("secemb_")
    }

    fn summarize(hist: &Histogram) -> LatencySummary {
        let snap = hist.snapshot();
        // The snapshot omits empty buckets, so recover each non-empty
        // bucket's true lower edge from the layout — interpolating from
        // the previous *listed* bucket would widen the interval (and the
        // percentile error) across every empty run.
        let buckets: Vec<(f64, f64, u64)> = snap
            .bounded_buckets()
            .iter()
            .map(|&(lower, upper, c)| (lower as f64, upper as f64, c))
            .collect();
        LatencySummary::from_bucket_bounds(snap.sum as f64, &buckets)
    }

    /// A consistent-enough copy of every counter for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.publish_gauges();
        StatsSnapshot {
            accepted: self.accepted.get(),
            completed: self.completed.get(),
            rejected: RejectReason::ALL
                .iter()
                .map(|r| (*r, self.rejected[r.index()].get()))
                .collect(),
            queries_by_technique: Technique::ALL
                .iter()
                .map(|t| (*t, self.queries_by_technique[tech_index(*t)].get()))
                .collect(),
            batch_hist: self
                .batch_hist
                .iter()
                .enumerate()
                .map(|(k, c)| (1usize << k, c.load(Ordering::Relaxed)))
                .collect(),
            queue_depth: self.queue_depth(),
            plan_version: self.plan_version.load(Ordering::SeqCst),
            epoch: self.epoch.load(Ordering::SeqCst),
            swaps_applied: self.swaps_applied.get(),
            worker_deaths: self.worker_deaths.get(),
            worker_batches: lock_unpoisoned(&self.worker_batches)
                .iter()
                .map(|slot| WorkerBatches {
                    table: slot.table,
                    batches: slot.batches.get(),
                    alive: slot.alive,
                })
                .collect(),
            latency: Self::summarize(&self.latency),
            stages: Stage::ALL.map(|s| (s.label(), Self::summarize(&self.stage_hists[s.index()]))),
        }
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Batches dispatched by one table's shard worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerBatches {
    /// Table id the worker serves.
    pub table: usize,
    /// Coalesced batches this worker has dispatched.
    pub batches: u64,
    /// Whether the worker is still serving (`false` after its generator
    /// panicked and the worker shut down).
    pub alive: bool,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Requests past admission control.
    pub accepted: u64,
    /// Requests answered with embeddings.
    pub completed: u64,
    /// Rejections, per reason.
    pub rejected: Vec<(RejectReason, u64)>,
    /// Completed queries per technique.
    pub queries_by_technique: Vec<(Technique, u64)>,
    /// `(bucket_upper_bound, count)` — dispatched batches with total
    /// query count in `(upper/2, upper]`.
    pub batch_hist: Vec<(usize, u64)>,
    /// Queries admitted but unanswered at snapshot time.
    pub queue_depth: u64,
    /// Version of the active allocation plan (0 = startup allocation).
    pub plan_version: u64,
    /// Epoch of the active allocation (bumped once per applied plan).
    pub epoch: u64,
    /// Generators exchanged by plan swaps, across all epochs.
    pub swaps_applied: u64,
    /// Workers that died to a panicking generator since startup.
    pub worker_deaths: u64,
    /// Batches dispatched per shard worker, one entry per table.
    pub worker_batches: Vec<WorkerBatches>,
    /// Submission-to-reply latency over all completed requests.
    pub latency: LatencySummary,
    /// Per-stage latency distributions, in lifecycle order
    /// (`admit`, `queue`, `batch`, `generate`, `reply`, `write`).
    pub stages: [(&'static str, LatencySummary); Stage::ALL.len()],
}

fn summary_json(s: &LatencySummary) -> Value {
    Value::obj([
        ("count", Value::Num(s.count as f64)),
        ("mean_ns", Value::Num(s.mean_ns)),
        ("p50_ns", Value::Num(s.p50_ns)),
        ("p95_ns", Value::Num(s.p95_ns)),
        ("p99_ns", Value::Num(s.p99_ns)),
        ("max_ns", Value::Num(s.max_ns)),
    ])
}

impl StatsSnapshot {
    /// Total rejections across reasons.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().map(|&(_, c)| c).sum()
    }

    /// Serializes to the stats-endpoint JSON document.
    pub fn to_json(&self) -> String {
        Value::obj([
            ("accepted", Value::Num(self.accepted as f64)),
            ("completed", Value::Num(self.completed as f64)),
            (
                "rejected",
                Value::Obj(
                    self.rejected
                        .iter()
                        .map(|(r, c)| (r.label().to_string(), Value::Num(*c as f64)))
                        .collect(),
                ),
            ),
            (
                "queries_by_technique",
                Value::Obj(
                    self.queries_by_technique
                        .iter()
                        .map(|(t, c)| (t.label().to_string(), Value::Num(*c as f64)))
                        .collect(),
                ),
            ),
            (
                "batch_hist",
                Value::Arr(
                    self.batch_hist
                        .iter()
                        .filter(|&&(_, c)| c > 0)
                        .map(|&(ub, c)| {
                            Value::obj([
                                ("le", Value::Num(ub as f64)),
                                ("count", Value::Num(c as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("queue_depth", Value::Num(self.queue_depth as f64)),
            ("worker_deaths", Value::Num(self.worker_deaths as f64)),
            (
                "worker_batches",
                Value::Arr(
                    self.worker_batches
                        .iter()
                        .map(|w| {
                            Value::obj([
                                ("table", Value::Num(w.table as f64)),
                                ("batches", Value::Num(w.batches as f64)),
                                ("alive", Value::Bool(w.alive)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "plan",
                Value::obj([
                    ("version", Value::Num(self.plan_version as f64)),
                    ("epoch", Value::Num(self.epoch as f64)),
                    ("swaps_applied", Value::Num(self.swaps_applied as f64)),
                ]),
            ),
            ("latency", summary_json(&self.latency)),
            (
                "stages",
                Value::Obj(
                    self.stages
                        .iter()
                        .map(|(label, s)| (label.to_string(), summary_json(s)))
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "accepted={} completed={} rejected={} queue_depth={}",
            self.accepted,
            self.completed,
            self.total_rejected(),
            self.queue_depth
        )?;
        writeln!(f, "latency: {}", self.latency)?;
        let stages: Vec<String> = self
            .stages
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(label, s)| format!("{label}={:.1}us", s.p50_ns / 1e3))
            .collect();
        if !stages.is_empty() {
            writeln!(f, "stage p50: [{}]", stages.join(" "))?;
        }
        let hist: Vec<String> = self
            .batch_hist
            .iter()
            .filter(|&&(_, c)| c > 0)
            .map(|&(ub, c)| format!("<={ub}:{c}"))
            .collect();
        write!(f, "batches: [{}]", hist.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb_wire::json;

    fn stages_with(queue_ns: u64, generate_ns: u64) -> StageBreakdown {
        let mut s = StageBreakdown::default();
        s.set(Stage::Queue, queue_ns);
        s.set(Stage::Generate, generate_ns);
        s
    }

    #[test]
    fn lifecycle_counters_balance() {
        let s = ServerStats::new();
        s.record_accepted(4);
        s.record_accepted(2);
        assert_eq!(s.queue_depth(), 6);
        s.record_completed(Technique::LinearScan, 4, 1000.0, &stages_with(200, 800));
        s.record_rejected(RejectReason::DeadlineExceeded, 2);
        assert_eq!(s.queue_depth(), 0);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.total_rejected(), 1);
        assert_eq!(snap.latency.count, 1);
        let scan_queries = snap
            .queries_by_technique
            .iter()
            .find(|(t, _)| *t == Technique::LinearScan)
            .unwrap()
            .1;
        assert_eq!(scan_queries, 4);
        let queue = snap.stages.iter().find(|(l, _)| *l == "queue").unwrap();
        assert_eq!(queue.1.count, 1);
    }

    #[test]
    fn batch_histogram_buckets() {
        let s = ServerStats::new();
        for q in [1, 2, 3, 4, 5, 64] {
            s.record_batch(q);
        }
        let snap = s.snapshot();
        let count_at = |ub: usize| {
            snap.batch_hist
                .iter()
                .find(|&&(u, _)| u == ub)
                .map_or(0, |&(_, c)| c)
        };
        assert_eq!(count_at(1), 1); // batch 1
        assert_eq!(count_at(2), 1); // batch 2
        assert_eq!(count_at(4), 2); // batches 3, 4
        assert_eq!(count_at(8), 1); // batch 5
        assert_eq!(count_at(64), 1); // batch 64
    }

    #[test]
    fn admission_rejects_do_not_touch_queue_depth() {
        let s = ServerStats::new();
        s.record_rejected(RejectReason::QueueFull, 0);
        assert_eq!(s.queue_depth(), 0);
        assert_eq!(s.snapshot().total_rejected(), 1);
    }

    #[test]
    fn snapshot_json_parses() {
        let s = ServerStats::new();
        s.record_accepted(8);
        s.record_batch(8);
        s.record_completed(
            Technique::Dhe,
            8,
            2_000_000.0,
            &stages_with(1000, 1_999_000),
        );
        s.record_plan(3, 1);
        s.record_swap_applied(1);
        let doc = json::parse(&s.snapshot().to_json()).unwrap();
        assert_eq!(doc.get("completed").unwrap().as_u64(), Some(1));
        let plan = doc.get("plan").unwrap();
        assert_eq!(plan.get("version").unwrap().as_u64(), Some(3));
        assert_eq!(plan.get("epoch").unwrap().as_u64(), Some(1));
        assert_eq!(plan.get("swaps_applied").unwrap().as_u64(), Some(1));
        assert_eq!(
            doc.get("queries_by_technique")
                .unwrap()
                .get("DHE")
                .unwrap()
                .as_u64(),
            Some(8)
        );
        assert!(doc.get("latency").unwrap().get("p99_ns").is_some());
        let stages = doc.get("stages").unwrap();
        assert_eq!(
            stages.get("queue").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
        assert!(s.snapshot().to_string().contains("completed=1"));
    }

    #[test]
    fn worker_registry_tracks_per_table_batches() {
        let s = ServerStats::new();
        let w0 = s.register_worker(0);
        let w1 = s.register_worker(1);
        w0.add(3);
        w1.add(5);
        let snap = s.snapshot();
        assert_eq!(
            snap.worker_batches,
            vec![
                WorkerBatches {
                    table: 0,
                    batches: 3,
                    alive: true
                },
                WorkerBatches {
                    table: 1,
                    batches: 5,
                    alive: true
                },
            ]
        );
        let doc = json::parse(&snap.to_json()).unwrap();
        assert!(doc.get("replicas").is_none());
        let workers = doc.get("worker_batches").unwrap().as_arr().unwrap();
        assert_eq!(workers[1].get("table").unwrap().as_u64(), Some(1));
        assert_eq!(workers[1].get("batches").unwrap().as_u64(), Some(5));

        // A worker death flips its slot and is counted + exported.
        s.record_worker_death(1);
        let snap = s.snapshot();
        assert_eq!(snap.worker_deaths, 1);
        assert!(snap.worker_batches[0].alive && !snap.worker_batches[1].alive);
        let doc = json::parse(&snap.to_json()).unwrap();
        assert_eq!(doc.get("worker_deaths").unwrap().as_u64(), Some(1));
        let workers = doc.get("worker_batches").unwrap().as_arr().unwrap();
        assert_eq!(workers[1].get("alive"), Some(&json::Value::Bool(false)));
    }

    #[test]
    fn latency_percentiles_come_from_histogram_buckets() {
        let s = ServerStats::new();
        for i in 1..=100u64 {
            s.record_completed(
                Technique::LinearScan,
                1,
                (i * 1000) as f64,
                &StageBreakdown::default(),
            );
        }
        let snap = s.snapshot();
        assert_eq!(snap.latency.count, 100);
        // Log-bucketed with in-bucket interpolation: the estimate lands
        // inside the containing bucket, so the error is bounded by the
        // bucket's relative width (12.5%) on either side — not the old
        // upper-bound rule that could only overestimate.
        for (p, exact) in [
            (snap.latency.p50_ns, 50_000.0),
            (snap.latency.p99_ns, 99_000.0),
        ] {
            assert!(
                (p - exact).abs() / exact <= 0.125,
                "p={p} exact={exact} strays outside the bucket width"
            );
        }
    }

    #[test]
    fn prometheus_rendering_includes_serving_metrics() {
        let s = ServerStats::new();
        s.record_accepted(1);
        s.record_completed(Technique::LinearScan, 1, 5000.0, &stages_with(1000, 4000));
        let text = s.render_prometheus();
        assert!(text.contains("secemb_requests_accepted_total 1"));
        assert!(text.contains("secemb_requests_completed_total 1"));
        assert!(text.contains("secemb_stage_ns_count{stage=\"queue\"} 1"));
        assert!(text.contains("secemb_queue_depth 0"));
    }

    #[test]
    fn disabled_registry_turns_recording_off() {
        let s = ServerStats::with_registry(Arc::new(Registry::disabled()));
        s.record_accepted(1);
        s.record_completed(Technique::LinearScan, 1, 5000.0, &stages_with(1000, 4000));
        let snap = s.snapshot();
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.latency.count, 0);
        // Queue depth stays exact even with telemetry off: admission
        // control depends on it.
        s.record_accepted(3);
        assert_eq!(s.queue_depth(), 3);
    }
}
