//! The serving engine: per-table shards, one worker thread each,
//! SLA-aware admission control, and live plan reallocation.
//!
//! Each table is a *shard*: one worker thread drains the shard's job
//! queue and owns the table's one generator (generation takes
//! `&mut self` — ORAM mutates on every access, and an oblivious write
//! must land in the structure every later read consults). A worker
//! blocks for its first job, takes whatever backlog is already queued up
//! to [`BatchPolicy::max_batch`] queries and runs it as one batch: an
//! idle worker dispatches at once, a busy one drains what arrived while
//! it computed — batch composition is a function of arrival times and
//! public shape only. Admission control uses a profiled per-query cost
//! to predict queue delay and sheds load *explicitly*: a request the
//! server cannot serve in time is answered `Rejected`, never silently
//! dropped and never allowed to grow the queue without bound.
//!
//! # Live reallocation
//!
//! The active allocation is *versioned* and *epoch-tagged*, and a swap is
//! a lock, not a protocol. Each shard keeps its generator behind an
//! *epoch gate* (a `RwLock`): the worker holds the gate shared from
//! dispatch through its batch's last reply. A controller (see the
//! `secemb-adapt` crate) builds replacement generators **off** the
//! request path and calls [`Engine::apply_plan`], which takes each gate
//! exclusively, exchanges the generator, flips the admission-control
//! cost estimates in the same critical section and releases it. Every
//! old-epoch batch of a shard has therefore replied before any new-epoch
//! batch starts — responses never mix epochs within a table — and an
//! idle or dead worker costs the swap nothing. A shard whose technique
//! the plan keeps is re-costed, not rebuilt, so its written rows
//! survive. The engine's epoch counter is published after every shard
//! has been exchanged, under one swap lock that totally orders plans.

use crate::batcher::{execute_batch_ops, BatchPolicy};
use crate::lock_unpoisoned;
use crate::request::{RejectReason, Request, Response};
use crate::stats::ServerStats;
use secemb::hybrid::AllocationPlan;
use secemb::{measure_cost, EmbeddingGenerator, GeneratorSpec, Technique};
use secemb_enclave::CostModel;
use secemb_obliv::{cmp, Choice};
use secemb_oram::AccessStats;
use secemb_telemetry::{
    Counter, Gauge, Registry, SpanCollector, SpanRecord, Stage, StageBreakdown, TraceCtx,
    DEFAULT_SPAN_CAPACITY,
};
use secemb_tensor::Matrix;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-shard cap on buffered drift samples; when full, new samples
/// overwrite the oldest (the drift detector only cares about *recent*
/// cost).
const SAMPLE_CAP: usize = 4096;

/// One table the engine serves.
#[derive(Clone, Copy, Debug)]
pub struct TableConfig {
    /// What backs the table.
    pub spec: GeneratorSpec,
    /// Seed for the synthetic weights (same seed ⇒ same table).
    pub seed: u64,
    /// Bounded queue length, in *requests*. Submissions beyond it are
    /// rejected `QueueFull`.
    pub queue_capacity: usize,
    /// Per-query cost override in nanoseconds; when `None` the engine
    /// probes the built generator at startup ([`measure_cost`]).
    pub cost_override_ns: Option<f64>,
}

impl TableConfig {
    /// A table with default seed, queue bound and probed cost.
    pub fn new(spec: GeneratorSpec) -> Self {
        TableConfig {
            spec,
            seed: 42,
            queue_capacity: 1024,
            cost_override_ns: None,
        }
    }
}

/// Engine-wide configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The tables to serve; request `table` ids index this list.
    pub tables: Vec<TableConfig>,
    /// Coalescing policy, shared by every shard.
    pub policy: BatchPolicy,
    /// Batch size of the startup cost probe.
    pub probe_batch: usize,
    /// Repetitions of the startup cost probe.
    pub probe_repeats: usize,
    /// Whether the metrics registry records (default true). With
    /// telemetry off the registry hands out inert handles — the code
    /// path is identical, only the atomic stores are skipped — and
    /// responses still carry their stage breakdowns.
    pub telemetry: bool,
    /// Distributed-trace span collection (default off). When set, the
    /// engine records per-request spans for traced requests whose
    /// public trace id passes the sampling test — never keyed on a
    /// table or index.
    pub tracing: Option<TraceSettings>,
}

/// Span-collection settings for an engine's [`SpanCollector`].
#[derive(Clone, Debug)]
pub struct TraceSettings {
    /// Host label stamped on every span this process emits.
    pub host: String,
    /// Record spans only for trace ids divisible by this (1 keeps
    /// every traced request, 0 none).
    pub sample_every: u64,
    /// Bound on buffered spans between scrapes.
    pub capacity: usize,
}

impl TraceSettings {
    /// Settings with the default span-buffer capacity.
    pub fn new(host: &str, sample_every: u64) -> Self {
        TraceSettings {
            host: host.to_string(),
            sample_every,
            capacity: DEFAULT_SPAN_CAPACITY,
        }
    }
}

impl EngineConfig {
    /// Default engine settings over `tables`.
    pub fn new(tables: Vec<TableConfig>) -> Self {
        EngineConfig {
            tables,
            policy: BatchPolicy::default(),
            probe_batch: 8,
            probe_repeats: 3,
            telemetry: true,
            tracing: None,
        }
    }
}

/// Public metadata of one running shard.
#[derive(Clone, Copy, Debug)]
pub struct TableInfo {
    /// Table rows (index domain).
    pub rows: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Technique actually serving the table (hybrid specs resolved).
    pub technique: Technique,
    /// Per-query cost used for admission, nanoseconds.
    pub per_query_ns: f64,
    /// Whether the serving generator has an oblivious write path
    /// (requests with update payloads are admitted only when true).
    pub supports_updates: bool,
}

/// Error from [`Engine::apply_plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The plan's table count does not match the engine's shard count.
    TableCountMismatch {
        /// Tables in the plan.
        plan: usize,
        /// Shards in the engine.
        engine: usize,
    },
    /// A planned table's row count disagrees with the shard it targets.
    RowsMismatch {
        /// Offending table id.
        table: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TableCountMismatch { plan, engine } => {
                write!(f, "plan covers {plan} tables, engine serves {engine}")
            }
            PlanError::RowsMismatch { table } => {
                write!(f, "plan row count disagrees with shard for table {table}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Where a job's answer goes. A boxed closure rather than a channel so
/// the TCP front end can route replies straight into a connection's
/// writer without a per-request thread or channel hop.
type ReplyFn = Box<dyn FnOnce(Response) + Send + 'static>;

struct Job {
    indices: Vec<u64>,
    /// Delta rows to scatter-add through the oblivious write path
    /// (`indices.len() × dim`, validated at admission).
    update: Option<Matrix>,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// Time spent in validation + admission control before enqueue.
    admit_ns: u64,
    /// The sampled trace context, if this request is being traced. Set
    /// at admission by a test keyed only on the public trace id.
    trace: Option<TraceCtx>,
    reply: ReplyFn,
}

impl Job {
    /// Answers this admitted job `Rejected(reason)` and releases its
    /// queries from the shard's backlog — the one post-admission
    /// rejection site.
    fn reject(self, reason: RejectReason, pending: &AtomicU64, stats: &ServerStats) {
        let n = self.indices.len();
        pending.fetch_sub(n as u64, Ordering::Relaxed);
        stats.record_rejected(reason, n);
        (self.reply)(Response::Rejected(reason));
    }
}

/// A shard's serving state; [`Engine::apply_plan`] exchanges the
/// generator and restarts its baselines.
struct Slot {
    generator: Box<dyn EmbeddingGenerator + Send>,
    /// Probe baselines of `generator`'s cumulative access counters;
    /// restarted with it on a swap.
    acc: ProbeAccumulator,
    /// Test hook: panic inside the next dispatched batch (see
    /// [`Engine::inject_worker_panic`]).
    poisoned: bool,
}

/// A shard's epoch gate around its one slot. The worker holds the gate
/// *shared*, with the slot locked, while a batch runs and replies; a
/// swap holds it *exclusively*, so old- and new-epoch batches of a shard
/// never overlap. The worker is the gate's only reader: the split exists
/// for the writer preference. A waiting swap must stop new batches from
/// starting, or a saturated worker would starve it: std documents no
/// `RwLock` priority policy, but its Linux (futex) implementation turns
/// new readers away while a writer waits, and
/// `swap_under_sustained_load_completes` pins that.
type EpochGate = RwLock<Mutex<Slot>>;

struct Shard {
    tx: mpsc::Sender<Job>,
    /// Jobs sent but not yet dequeued, bounded by
    /// [`TableConfig::queue_capacity`]. A count only (the channel
    /// carries the jobs), so its updates are `Relaxed`.
    queued: Arc<AtomicUsize>,
    gate: Arc<EpochGate>,
    /// Cleared by the worker when its generator panics; admission then
    /// turns the shard's requests away.
    alive: Arc<AtomicBool>,
    pending_queries: Arc<AtomicU64>,
    /// Admission-control cost, f64 bits — updated atomically on swap so
    /// the submit path never takes a lock.
    cost_ns_bits: Arc<AtomicU64>,
    /// Whether the active generator accepts update payloads — checked
    /// lock-free at admission, flipped under the swap lock.
    supports_updates: Arc<AtomicBool>,
    /// Full metadata (infrequent reads; updated under the swap lock).
    info: Arc<Mutex<TableInfo>>,
    /// Recent per-query service-time samples exported to drift detectors.
    samples: Arc<Mutex<SampleRing>>,
    /// Original build parameters, kept so a reallocation can rebuild the
    /// same logical table (same seed ⇒ same weights) under a new spec.
    config: TableConfig,
}

/// Fixed-capacity overwrite-oldest ring for drift samples.
struct SampleRing {
    buf: Vec<f64>,
    next: usize,
    full: bool,
}

impl SampleRing {
    fn new() -> Self {
        SampleRing {
            buf: Vec::with_capacity(SAMPLE_CAP),
            next: 0,
            full: false,
        }
    }

    fn push(&mut self, v: f64) {
        if self.buf.len() < SAMPLE_CAP {
            self.buf.push(v);
        } else {
            self.full = true;
            self.buf[self.next] = v;
        }
        self.next = (self.next + 1) % SAMPLE_CAP;
    }

    /// Removes and returns the buffered samples in arrival order.
    fn drain(&mut self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.buf.len());
        if self.full {
            out.extend_from_slice(&self.buf[self.next..]);
        }
        out.extend_from_slice(&self.buf[..self.next.min(self.buf.len())]);
        self.buf.clear();
        self.next = 0;
        self.full = false;
        out
    }
}

/// A pending reply to one submitted request.
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Response {
        // A dead worker (panicked generator) surfaces as backpressure
        // rather than a client-side hang or panic.
        self.rx
            .recv()
            .unwrap_or(Response::Rejected(RejectReason::QueueFull))
    }
}

/// The in-process serving engine. `Arc<Engine>` is shared freely across
/// client threads; dropping the last handle stops and joins the workers.
pub struct Engine {
    shards: Vec<Shard>,
    stats: Arc<ServerStats>,
    /// Epoch of the active allocation; bumped exactly once per applied
    /// plan, under `swap_lock`, after every shard has been exchanged.
    epoch: AtomicU64,
    /// Version of the most recently applied [`AllocationPlan`] (0 =
    /// startup allocation).
    plan_version: AtomicU64,
    /// Serializes [`Engine::apply_plan`] calls so epochs are totally
    /// ordered.
    swap_lock: Mutex<()>,
    /// The most recently applied plan (`None` until the first
    /// [`Engine::apply_plan`]); served to peers over `PlanPull`.
    active_plan: Mutex<Option<AllocationPlan>>,
    probe_batch: usize,
    probe_repeats: usize,
    /// Per-request span buffer (inert unless `EngineConfig::tracing`
    /// was set).
    spans: Arc<SpanCollector>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Everything a worker thread needs, bundled to keep the spawn site flat.
struct WorkerSetup {
    table: usize,
    rx: mpsc::Receiver<Job>,
    queued: Arc<AtomicUsize>,
    gate: Arc<EpochGate>,
    pending: Arc<AtomicU64>,
    stats: Arc<ServerStats>,
    batches: Arc<Counter>,
    probes: WorkerProbes,
    samples: Arc<Mutex<SampleRing>>,
    policy: BatchPolicy,
    alive: Arc<AtomicBool>,
    spans: Arc<SpanCollector>,
}

/// The per-counter increments between two cumulative [`AccessStats`]
/// observations (modeled enclave events included).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ProbeDelta {
    evictions: u64,
    bucket_reads: u64,
    bucket_writes: u64,
    bytes_moved: u64,
    ocalls: u64,
    epc_page_swaps: u64,
    encrypted_bytes: u64,
}

/// Turns per-generator cumulative [`AccessStats`] into monotone counter
/// increments, and instantaneous stash occupancy into a batch-weighted
/// running mean. Scrape-timing independence lives here: however a scrape
/// interleaves with batches, counters only ever accumulate the same
/// total, and the stash gauge reports the mean over every batch rather
/// than whichever single batch finished last.
#[derive(Default)]
struct ProbeAccumulator {
    last: AccessStats,
    last_enclave: [u64; 3],
    stash_sum: f64,
    stash_batches: u64,
}

impl ProbeAccumulator {
    /// Folds one cumulative observation in, returning the increments
    /// since the previous one.
    fn observe(&mut self, stats: &AccessStats, model: &CostModel) -> ProbeDelta {
        let c = model.counters(stats);
        let delta = ProbeDelta {
            evictions: stats.evictions.saturating_sub(self.last.evictions),
            bucket_reads: stats.bucket_reads.saturating_sub(self.last.bucket_reads),
            bucket_writes: stats.bucket_writes.saturating_sub(self.last.bucket_writes),
            bytes_moved: stats.bytes_moved.saturating_sub(self.last.bytes_moved),
            ocalls: c.ocalls.saturating_sub(self.last_enclave[0]),
            epc_page_swaps: c.epc_page_swaps.saturating_sub(self.last_enclave[1]),
            encrypted_bytes: c.encrypted_bytes.saturating_sub(self.last_enclave[2]),
        };
        self.last = *stats;
        self.last_enclave = [c.ocalls, c.epc_page_swaps, c.encrypted_bytes];
        delta
    }

    /// Folds one batch's stash occupancy in, returning the running mean.
    fn observe_stash(&mut self, occupancy: usize) -> f64 {
        self.stash_sum += occupancy as f64;
        self.stash_batches += 1;
        self.stash_sum / self.stash_batches as f64
    }

    /// Restarts the baselines — the freshly swapped-in generator's
    /// cumulative counters begin at zero again.
    fn reset(&mut self) {
        *self = ProbeAccumulator::default();
    }
}

/// Per-worker metrics for the layers *below* the serving stack: ORAM
/// controller aggregates (stash occupancy, eviction passes, bucket
/// traffic) and modeled enclave event counts derived from the same
/// [`AccessStats`] through a [`CostModel`].
///
/// The event aggregates are **counters** (`oram_evictions_total`, ...):
/// each publish adds the increment since the previous batch, so a scrape
/// between batches sees the running total, not a snapshot of whichever
/// batch happened last. Stash occupancy stays a gauge but publishes the
/// batch-weighted running mean over the current generator's lifetime.
///
/// Everything published here is a whole-batch aggregate over access
/// *shapes* — bucket counts, byte volumes, stash depth — never anything
/// keyed by which embedding index was requested, so exporting it does not
/// re-open the side channel the generators close.
struct WorkerProbes {
    stash: Arc<Gauge>,
    evictions: Arc<Counter>,
    bucket_reads: Arc<Counter>,
    bucket_writes: Arc<Counter>,
    bytes_moved: Arc<Counter>,
    ocalls: Arc<Counter>,
    epc_page_swaps: Arc<Counter>,
    encrypted_bytes: Arc<Counter>,
    cost_model: CostModel,
}

impl WorkerProbes {
    fn new(registry: &Registry, table: usize) -> Self {
        let t = table.to_string();
        let labels = [("table", t.as_str())];
        WorkerProbes {
            stash: registry.gauge_with("oram_stash_occupancy", &labels),
            evictions: registry.counter_with("oram_evictions_total", &labels),
            bucket_reads: registry.counter_with("oram_bucket_reads_total", &labels),
            bucket_writes: registry.counter_with("oram_bucket_writes_total", &labels),
            bytes_moved: registry.counter_with("oram_bytes_moved_total", &labels),
            ocalls: registry.counter_with("enclave_ocalls_total", &labels),
            epc_page_swaps: registry.counter_with("enclave_epc_page_swaps_total", &labels),
            encrypted_bytes: registry.counter_with("enclave_encrypted_bytes_total", &labels),
            cost_model: CostModel::scalable_sgx(),
        }
    }

    /// Publishes this shard's below-serve aggregates as increments over
    /// `acc`, the generator's baselines. Called once per dispatched batch;
    /// a no-op for generators that expose no access statistics (e.g.
    /// linear scan, DHE).
    fn publish(&self, acc: &mut ProbeAccumulator, generator: &dyn EmbeddingGenerator) {
        if let Some(stats) = generator.access_stats() {
            let d = acc.observe(&stats, &self.cost_model);
            self.evictions.add(d.evictions);
            self.bucket_reads.add(d.bucket_reads);
            self.bucket_writes.add(d.bucket_writes);
            self.bytes_moved.add(d.bytes_moved);
            self.ocalls.add(d.ocalls);
            self.epc_page_swaps.add(d.epc_page_swaps);
            self.encrypted_bytes.add(d.encrypted_bytes);
        }
        if let Some(occ) = generator.stash_occupancy() {
            self.stash.set(acc.observe_stash(occ));
        }
    }
}

impl Engine {
    /// Builds every table, probes per-query costs, and starts one worker
    /// thread per shard.
    ///
    /// # Panics
    ///
    /// Panics if `config.tables` is empty or a table has a zero queue
    /// capacity.
    pub fn start(config: EngineConfig) -> Self {
        assert!(!config.tables.is_empty(), "engine with no tables");
        let registry = Arc::new(if config.telemetry {
            Registry::new()
        } else {
            Registry::disabled()
        });
        let stats = Arc::new(ServerStats::with_registry(Arc::clone(&registry)));
        let spans = Arc::new(match &config.tracing {
            Some(t) => SpanCollector::with_capacity(&t.host, t.sample_every, t.capacity),
            None => SpanCollector::disabled(),
        });
        let mut shards = Vec::with_capacity(config.tables.len());
        let mut workers = Vec::with_capacity(config.tables.len());
        for (id, t) in config.tables.iter().enumerate() {
            assert!(t.queue_capacity > 0, "table {id}: zero queue capacity");
            let mut generator = t.spec.build(t.seed);
            let per_query_ns = t.cost_override_ns.unwrap_or_else(|| {
                measure_cost(generator.as_mut(), config.probe_batch, config.probe_repeats)
                    .per_query_ns
            });
            let info = TableInfo {
                rows: t.spec.rows(),
                dim: t.spec.dim(),
                technique: generator.technique(),
                per_query_ns,
                supports_updates: generator.supports_updates(),
            };
            let (tx, rx) = mpsc::channel::<Job>();
            let queued = Arc::new(AtomicUsize::new(0));
            let pending = Arc::new(AtomicU64::new(0));
            let samples = Arc::new(Mutex::new(SampleRing::new()));
            let alive = Arc::new(AtomicBool::new(true));
            let gate: Arc<EpochGate> = Arc::new(RwLock::new(Mutex::new(Slot {
                generator,
                acc: ProbeAccumulator::default(),
                poisoned: false,
            })));
            workers.push(spawn_worker(WorkerSetup {
                table: id,
                rx,
                queued: Arc::clone(&queued),
                gate: Arc::clone(&gate),
                pending: Arc::clone(&pending),
                stats: Arc::clone(&stats),
                batches: stats.register_worker(id),
                probes: WorkerProbes::new(&registry, id),
                samples: Arc::clone(&samples),
                policy: config.policy,
                alive: Arc::clone(&alive),
                spans: Arc::clone(&spans),
            }));
            shards.push(Shard {
                tx,
                queued,
                gate,
                alive,
                pending_queries: pending,
                cost_ns_bits: Arc::new(AtomicU64::new(per_query_ns.to_bits())),
                supports_updates: Arc::new(AtomicBool::new(info.supports_updates)),
                info: Arc::new(Mutex::new(info)),
                samples,
                config: *t,
            });
        }
        Engine {
            shards,
            stats,
            epoch: AtomicU64::new(0),
            plan_version: AtomicU64::new(0),
            swap_lock: Mutex::new(()),
            active_plan: Mutex::new(None),
            probe_batch: config.probe_batch,
            probe_repeats: config.probe_repeats,
            spans,
            workers: Mutex::new(workers),
        }
    }

    /// Metadata for every shard, indexed by table id.
    pub fn tables(&self) -> Vec<TableInfo> {
        self.shards
            .iter()
            .map(|s| *lock_unpoisoned(&s.info))
            .collect()
    }

    /// The embedding width of `table`, if it exists.
    pub(crate) fn dim(&self, table: usize) -> Option<usize> {
        self.shards.get(table).map(|s| s.config.spec.dim())
    }

    /// Liveness of every shard's worker, by table id: `false` once its
    /// generator panicked and the worker turned rejector.
    pub fn worker_health(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|s| s.alive.load(Ordering::SeqCst))
            .collect()
    }

    /// Test hook: makes `table`'s worker panic inside its next
    /// dispatched batch, exercising the worker-death path — the batch's
    /// requests are answered [`RejectReason::Internal`], the death is
    /// recorded in [`ServerStats`], and the shard answers `Internal` from
    /// then on. Returns `false` for an unknown table.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, table: usize) -> bool {
        let Some(shard) = self.shards.get(table) else {
            return false;
        };
        let slot = shard.gate.read().unwrap_or_else(PoisonError::into_inner);
        lock_unpoisoned(&slot).poisoned = true;
        true
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The metrics registry behind [`Engine::stats`]. Inert (records
    /// nothing, snapshots empty) when the engine was started with
    /// `telemetry: false`.
    pub fn metrics(&self) -> Arc<Registry> {
        self.stats.registry()
    }

    /// Renders the full registry in Prometheus text exposition format.
    pub fn render_metrics(&self) -> String {
        self.stats.render_prometheus()
    }

    /// The engine's span collector. Inert (samples nothing, buffers
    /// nothing) when the engine was started without
    /// `EngineConfig::tracing`.
    pub fn spans(&self) -> Arc<SpanCollector> {
        Arc::clone(&self.spans)
    }

    /// The epoch of the active allocation (bumped once per applied plan).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Version of the most recently applied plan (0 before any swap).
    pub fn plan_version(&self) -> u64 {
        self.plan_version.load(Ordering::SeqCst)
    }

    /// Drains the recent per-query service-time samples (nanoseconds,
    /// amortized over coalesced batches) recorded by `table`'s workers —
    /// the feed a drift detector consumes. Returns an empty vector for an
    /// unknown table id.
    pub fn drain_samples(&self, table: usize) -> Vec<f64> {
        self.shards
            .get(table)
            .map_or_else(Vec::new, |s| lock_unpoisoned(&s.samples).drain())
    }

    /// Applies a new allocation plan **live**: builds a replacement
    /// generator for every table whose technique the plan changes (on the
    /// calling thread — never a worker's), then, shard by shard, takes the
    /// shard's epoch gate exclusively and exchanges the generator. The
    /// gate is granted once the batch already running on the shard has
    /// sent its last reply, and no batch starts while it is held, so all
    /// old-epoch batches complete before any new-epoch batch is
    /// dispatched — responses never mix epochs within a table. In-flight
    /// batches finish on the old epoch's generator and no request is
    /// dropped or re-queued; the retired generators are dropped on the
    /// calling thread.
    ///
    /// A table whose technique the plan keeps is not rebuilt: its
    /// generator, and every row written into it, stays in place. A
    /// writable table ([`EmbeddingGenerator::supports_updates`]) stays
    /// whatever the plan asks, with its cost; [`Self::active_plan`] says so.
    ///
    /// Admission-control costs switch to the plan's estimates in the same
    /// critical section; a planned cost `<= 0` (unknown) is probed here on
    /// a freshly built generator before the swap is published, and keeps
    /// the current cost where nothing was built. On return every shard
    /// serves the new plan; an idle or dead worker is swapped where it
    /// sits, not waited on.
    ///
    /// Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the plan does not describe this engine's
    /// tables; the active allocation is untouched on error.
    pub fn apply_plan(&self, plan: &AllocationPlan) -> Result<u64, PlanError> {
        if plan.tables.len() != self.shards.len() {
            return Err(PlanError::TableCountMismatch {
                plan: plan.tables.len(),
                engine: self.shards.len(),
            });
        }
        for (id, (planned, shard)) in plan.tables.iter().zip(&self.shards).enumerate() {
            if planned.rows != shard.config.spec.rows() {
                return Err(PlanError::RowsMismatch { table: id });
            }
        }
        // Held across the builds: which tables need one depends on the
        // techniques the previous plan left in place.
        let _swap = lock_unpoisoned(&self.swap_lock);
        // Build (and if necessary probe) every replacement off the gate —
        // construction can take seconds for large ORAM tables and must
        // not stall serving.
        let mut staged = Vec::with_capacity(self.shards.len());
        // The plan as applied: what `active_plan` reports.
        let mut applied = plan.clone();
        for (planned, shard) in applied.tables.iter_mut().zip(&self.shards) {
            let mut info = *lock_unpoisoned(&shard.info);
            if info.supports_updates && planned.technique != info.technique {
                planned.technique = info.technique;
                planned.per_query_ns = info.per_query_ns;
            }
            let mut replacement = (planned.technique != info.technique).then(|| {
                GeneratorSpec::with_technique(info.rows, info.dim, planned.technique)
                    .build(shard.config.seed)
            });
            if planned.per_query_ns > 0.0 {
                info.per_query_ns = planned.per_query_ns;
            } else if let Some(generator) = replacement.as_mut() {
                info.per_query_ns =
                    measure_cost(generator.as_mut(), self.probe_batch, self.probe_repeats)
                        .per_query_ns;
            }
            if let Some(generator) = &replacement {
                info.technique = generator.technique();
                info.supports_updates = generator.supports_updates();
            }
            staged.push((replacement, info));
        }
        // Outlives the gates below: generators are freed only after
        // serving has resumed.
        let mut retired = Vec::new();
        let epoch = self.epoch.load(Ordering::SeqCst) + 1;
        for (shard, (replacement, info)) in self.shards.iter().zip(staged) {
            let mut gate = shard.gate.write().unwrap_or_else(PoisonError::into_inner);
            if let Some(generator) = replacement {
                let slot = gate.get_mut().unwrap_or_else(PoisonError::into_inner);
                retired.push(std::mem::replace(&mut slot.generator, generator));
                slot.acc.reset();
                self.stats.record_swap_applied(epoch);
            }
            shard
                .cost_ns_bits
                .store(info.per_query_ns.to_bits(), Ordering::SeqCst);
            shard
                .supports_updates
                .store(info.supports_updates, Ordering::SeqCst);
            *lock_unpoisoned(&shard.info) = info;
        }
        // Every old-epoch reply was sent before its shard's gate was
        // granted, so the epoch becomes observable only after them.
        self.epoch.store(epoch, Ordering::SeqCst);
        self.plan_version.store(plan.version, Ordering::SeqCst);
        self.stats.record_plan(plan.version, epoch);
        *lock_unpoisoned(&self.active_plan) = Some(applied);
        Ok(epoch)
    }

    /// The most recently applied plan, if any — what a `PlanPull` peer
    /// (the router's gossip loop) receives.
    pub fn active_plan(&self) -> Option<AllocationPlan> {
        lock_unpoisoned(&self.active_plan).clone()
    }

    /// Validation and admission control, in check order: the shard this
    /// request may be queued on, or why it is turned away before any
    /// queue space is consumed.
    fn admit(&self, request: &Request) -> Result<&Shard, RejectReason> {
        let shard = self
            .shards
            .get(request.table)
            .ok_or(RejectReason::UnknownTable)?;
        let rows = shard.config.spec.rows();
        let n = request.indices.len();
        if n == 0 || any_out_of_range(&request.indices, rows) {
            return Err(RejectReason::BadRequest);
        }
        if let Some(update) = &request.update {
            // An update must address exactly the requested indices at the
            // table's width, and the active generator must have an
            // oblivious write path.
            if update.shape() != (n, shard.config.spec.dim()) {
                return Err(RejectReason::BadRequest);
            }
            if !shard.supports_updates.load(Ordering::SeqCst) {
                return Err(RejectReason::UpdateUnsupported);
            }
        }
        // A shard whose worker has died can serve nothing: fail fast and
        // explicitly instead of queueing work only to reject it.
        if !shard.alive.load(Ordering::SeqCst) {
            return Err(RejectReason::Internal);
        }
        // SLA gate: predicted queue delay + own compute, against the
        // caller's budget. The cost is the *active plan's* estimate,
        // refreshed on every reallocation.
        if let Some(deadline) = request.deadline {
            let per_query_ns = f64::from_bits(shard.cost_ns_bits.load(Ordering::SeqCst));
            let backlog = shard.pending_queries.load(Ordering::Relaxed) + n as u64;
            let estimate_ns = backlog as f64 * per_query_ns;
            if estimate_ns > deadline.as_nanos() as f64 {
                return Err(RejectReason::DeadlineUnmeetable);
            }
        }
        Ok(shard)
    }

    /// Submits a request whose response is delivered by calling `reply`
    /// exactly once, on whatever thread resolves it — immediately on the
    /// submitting thread for admission rejections, or on a shard worker
    /// for served/stale requests. This is the pipelined front end's entry
    /// point: the TCP server passes a closure that encodes the response
    /// with its request id and hands it to the connection's writer.
    pub fn submit_with(&self, request: Request, reply: ReplyFn) {
        let t0 = Instant::now();
        // Admitted requests reserve one job of queue capacity, released
        // when the worker dequeues the job.
        let admitted = self.admit(&request).and_then(|shard| {
            if shard.queued.fetch_add(1, Ordering::Relaxed) < shard.config.queue_capacity {
                Ok(shard)
            } else {
                shard.queued.fetch_sub(1, Ordering::Relaxed);
                Err(RejectReason::QueueFull)
            }
        });
        let shard = match admitted {
            Ok(shard) => shard,
            Err(reason) => {
                self.stats.record_rejected(reason, 0);
                return reply(Response::Rejected(reason));
            }
        };
        let n = request.indices.len();
        let enqueued = Instant::now();
        let job = Job {
            deadline: request.deadline.map(|d| enqueued + d),
            indices: request.indices,
            update: request.update,
            enqueued,
            admit_ns: enqueued.saturating_duration_since(t0).as_nanos() as u64,
            // The sampling decision reads only the wire-level trace id —
            // never the table, the indices, or any other request content.
            trace: request.trace.filter(|t| self.spans.sampled(t.trace_id)),
            reply,
        };
        shard.pending_queries.fetch_add(n as u64, Ordering::Relaxed);
        match shard.tx.send(job) {
            Ok(()) => self.stats.record_accepted(n),
            Err(mpsc::SendError(job)) => {
                shard.queued.fetch_sub(1, Ordering::Relaxed);
                shard.pending_queries.fetch_sub(n as u64, Ordering::Relaxed);
                self.stats.record_rejected(RejectReason::QueueFull, 0);
                (job.reply)(Response::Rejected(RejectReason::QueueFull));
            }
        }
    }

    /// Submits a request, returning immediately with a [`Ticket`].
    /// Admission control may resolve the ticket to `Rejected` without
    /// enqueueing anything.
    pub fn submit(&self, request: Request) -> Ticket {
        let (tx, rx) = mpsc::channel();
        self.submit_with(
            request,
            Box::new(move |response| {
                let _ = tx.send(response);
            }),
        );
        Ticket { rx }
    }

    /// Submits and blocks for the response.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Queries admitted but not yet answered, across all shards.
    pub fn queue_depth(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.pending_queries.load(Ordering::Relaxed))
            .sum()
    }
}

/// Answers `DeadlineExceeded` for every job in `jobs` whose deadline has
/// passed, returning the still-live remainder.
fn shed_stale(jobs: Vec<Job>, pending: &AtomicU64, stats: &ServerStats) -> Vec<Job> {
    let now = Instant::now();
    let (live, stale): (Vec<Job>, Vec<Job>) = jobs
        .into_iter()
        .partition(|j| j.deadline.is_none_or(|d| now <= d));
    for job in stale {
        job.reject(RejectReason::DeadlineExceeded, pending, stats);
    }
    live
}

fn spawn_worker(setup: WorkerSetup) -> JoinHandle<()> {
    let WorkerSetup {
        table,
        rx,
        queued,
        gate,
        pending,
        stats,
        batches,
        probes,
        samples,
        policy,
        alive,
        spans,
    } = setup;
    std::thread::Builder::new()
        .name(format!("secemb-shard-{table}"))
        .spawn(move || loop {
            let Ok(first) = rx.recv() else {
                return; // engine dropped
            };
            // The one batching rule: take what is already queued, never
            // wait for more. An idle worker runs a lone request at once; a
            // busy one finds here whatever arrived while it computed.
            let mut queries = first.indices.len();
            let mut jobs = vec![first];
            while queries < policy.max_batch {
                let Ok(job) = rx.try_recv() else { break };
                queries += job.indices.len();
                jobs.push(job);
            }
            queued.fetch_sub(jobs.len(), Ordering::Relaxed);
            let dequeued = Instant::now();
            // Enter the epoch gate for the whole batch, replies included:
            // a swap waits for it and it waits for a swap, so these jobs
            // run on one epoch's generator and a swap applied before they
            // were admitted is never overtaken by them.
            let gated = gate.read().unwrap_or_else(PoisonError::into_inner);
            let mut guard = lock_unpoisoned(&gated);
            let slot = &mut *guard;
            // Check deadlines *after* entering — the gate can block behind
            // a swap, and a job that expired in that window must be
            // rejected, not executed and counted as served.
            // No swap takes a write path away (`apply_plan` never rebuilds
            // a writable table), so every admitted update has one here.
            let live = shed_stale(jobs, &pending, &stats);
            if live.is_empty() {
                continue;
            }
            let groups: Vec<(&[u64], Option<&Matrix>)> = live
                .iter()
                .map(|j| (j.indices.as_slice(), j.update.as_ref()))
                .collect();
            let total_queries: usize = groups.iter().map(|(ix, _)| ix.len()).sum();
            stats.record_batch(total_queries);
            batches.inc();
            let dispatch = Instant::now();
            // A panicking generator takes down this worker, not the
            // server: the caught batch is answered `Internal`, the worker
            // reports its own death, and admission turns the shard's
            // requests away from then on.
            let outputs = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                if slot.poisoned {
                    panic!("injected worker fault (test hook)");
                }
                execute_batch_ops(slot.generator.as_mut(), &groups)
            })) {
                Ok(outputs) => outputs,
                Err(_) => {
                    alive.store(false, Ordering::SeqCst);
                    stats.record_worker_death(table);
                    for job in live {
                        job.reject(RejectReason::Internal, &pending, &stats);
                    }
                    // Leave the gate: a corpse must not hold up a swap.
                    drop(guard);
                    drop(gated);
                    // New submissions are turned away at admission once
                    // the flag is down, but a job admitted in the race
                    // window would be stranded in the queue forever. Stay
                    // alive as a rejector instead of exiting, so every
                    // admitted job still gets its one explicit answer.
                    while let Ok(job) = rx.recv() {
                        queued.fetch_sub(1, Ordering::Relaxed);
                        job.reject(RejectReason::Internal, &pending, &stats);
                    }
                    return; // engine dropped
                }
            };
            let generated = Instant::now();
            probes.publish(&mut slot.acc, slot.generator.as_ref());
            // Export the amortized service cost of this batch as one
            // drift sample: the same per-query quantity admission control
            // budgets with, measured under live co-location conditions.
            lock_unpoisoned(&samples).push(
                generated.saturating_duration_since(dispatch).as_nanos() as f64
                    / total_queries as f64,
            );
            let batch_jobs = live.len();
            let technique = slot.generator.technique();
            let [dequeued, dispatch, generated] =
                [dequeued, dispatch, generated].map(|t| spans.ns_of(t));
            for (job, out) in live.into_iter().zip(outputs) {
                pending.fetch_sub(job.indices.len() as u64, Ordering::Relaxed);
                // The job's instants on the span clock, written out once:
                // the breakdown is their successive differences and the
                // stage spans the intervals between them, so the stages
                // telescope to the recorded latency and each span's
                // duration equals its `StageBreakdown` entry exactly (the
                // `write` stage is the transport's, recorded by the
                // connection writer).
                let enqueued = spans.ns_of(job.enqueued);
                let marks = [
                    enqueued.saturating_sub(job.admit_ns),
                    enqueued,
                    dequeued,
                    dispatch,
                    generated,
                    spans.now_ns(),
                ];
                let mut stages = StageBreakdown::default();
                for (i, &stage) in Stage::ALL.iter().take(5).enumerate() {
                    stages.set(stage, marks[i + 1].saturating_sub(marks[i]));
                }
                let latency_ns = marks[5].saturating_sub(marks[0]);
                stats.record_completed(technique, job.indices.len(), latency_ns as f64, &stages);
                if let Some(ctx) = job.trace {
                    let root_id = spans.fresh_span_id();
                    spans.record(SpanRecord {
                        trace_id: ctx.trace_id,
                        span_id: root_id,
                        parent_span: ctx.parent_span,
                        host: spans.host().to_string(),
                        component: "server",
                        name: "request",
                        start_ns: marks[0],
                        end_ns: marks[5],
                        attrs: vec![
                            ("table", table as u64),
                            ("queries", job.indices.len() as u64),
                        ],
                    });
                    // One child per measured stage (`write` belongs to
                    // the transport and is emitted by the connection
                    // writer's metrics, not here).
                    for (i, stage) in Stage::ALL.iter().take(5).enumerate() {
                        spans.record(SpanRecord {
                            trace_id: ctx.trace_id,
                            span_id: spans.fresh_span_id(),
                            parent_span: Some(root_id),
                            host: spans.host().to_string(),
                            component: "server",
                            name: stage.label(),
                            start_ns: marks[i],
                            end_ns: marks[i + 1],
                            attrs: Vec::new(),
                        });
                    }
                    // The worker's view of the coalesced batch this job
                    // rode in: which shard ran it and how much company it
                    // had — all size-shaped, public values.
                    spans.record(SpanRecord {
                        trace_id: ctx.trace_id,
                        span_id: spans.fresh_span_id(),
                        parent_span: Some(root_id),
                        host: spans.host().to_string(),
                        component: "worker",
                        name: "batch",
                        start_ns: marks[3],
                        end_ns: marks[4],
                        attrs: vec![
                            ("table", table as u64),
                            ("batch_jobs", batch_jobs as u64),
                            ("batch_queries", total_queries as u64),
                        ],
                    });
                }
                (job.reply)(Response::Embeddings(out, stages));
            }
        })
        .expect("spawn shard worker")
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Disconnect the queues so every worker's recv() returns Err,
        // then wait for them to finish in-flight batches.
        self.shards.clear();
        for handle in lock_unpoisoned(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Whether any of `indices` falls outside a `rows`-row table. The
/// indices are secret, so every one is compared in constant time and the
/// verdicts are folded before anything branches: the work does not depend
/// on where (or whether) a bad index sits. The folded verdict is public —
/// the request is rejected on it.
fn any_out_of_range(indices: &[u64], rows: u64) -> bool {
    let bad = (indices.iter()).fold(Choice::FALSE, |bad, &i| bad | cmp::ge_u64(i, rows));
    bad.to_bool()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb::hybrid::PlannedTable;
    use std::time::Duration;

    fn fast_table() -> TableConfig {
        TableConfig {
            spec: GeneratorSpec::Scan { rows: 64, dim: 8 },
            seed: 7,
            queue_capacity: 64,
            cost_override_ns: Some(1_000.0),
        }
    }

    fn plan_for(engine: &Engine, version: u64, techniques: &[Technique]) -> AllocationPlan {
        let tables = engine
            .tables()
            .iter()
            .zip(techniques)
            .map(|(info, &technique)| PlannedTable {
                rows: info.rows,
                technique,
                per_query_ns: 2_000.0,
            })
            .collect();
        AllocationPlan {
            version,
            dim: 8,
            batch: 8,
            threads: 1,
            threshold: 0,
            oram_to: 0,
            tables,
        }
    }

    #[test]
    fn serves_correct_rows() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let mut reference = GeneratorSpec::Scan { rows: 64, dim: 8 }.build(7);
        let response = engine.call(Request::new(0, vec![3, 63, 0]));
        let out = response.embeddings().expect("accepted");
        assert_eq!(out, &reference.generate_batch(&[3, 63, 0]));
    }

    #[test]
    fn range_check_gives_todays_verdicts_wherever_the_bad_index_sits() {
        let rows = 64;
        let cases: [&[u64]; 5] = [
            &[],
            &[64, 1, 2, 3],
            &[1, 2, 3, u64::MAX],
            &[0, 1, 62, 63],
            &[63],
        ];
        for indices in cases {
            let early_exit = indices.iter().any(|&i| i >= rows);
            assert_eq!(any_out_of_range(indices, rows), early_exit, "{indices:?}");
        }
        // Through admission: an empty request and a bad index first or
        // last are refused alike; in-range indices are served.
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        for indices in [vec![], vec![64, 1, 2], vec![1, 2, 64]] {
            assert_eq!(
                engine.call(Request::new(0, indices)).rejection(),
                Some(RejectReason::BadRequest)
            );
        }
        assert!(engine
            .call(Request::new(0, vec![1, 2, 63]))
            .embeddings()
            .is_some());
    }

    #[test]
    fn unknown_table_and_bad_request() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        assert_eq!(
            engine.call(Request::new(5, vec![1])).rejection(),
            Some(RejectReason::UnknownTable)
        );
        assert_eq!(
            engine.call(Request::new(0, vec![])).rejection(),
            Some(RejectReason::BadRequest)
        );
        assert_eq!(
            engine.call(Request::new(0, vec![64])).rejection(),
            Some(RejectReason::BadRequest)
        );
        // Rejections leave no queued work behind.
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn impossible_deadline_is_rejected_at_admission() {
        let mut table = fast_table();
        table.cost_override_ns = Some(10_000_000.0); // 10ms per query
        let engine = Engine::start(EngineConfig::new(vec![table]));
        let response =
            engine.call(Request::new(0, vec![1, 2, 3]).with_deadline(Duration::from_millis(1)));
        assert_eq!(response.rejection(), Some(RejectReason::DeadlineUnmeetable));
    }

    #[test]
    fn tables_report_metadata() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let info = engine.tables();
        assert_eq!(info.len(), 1);
        assert_eq!(info[0].rows, 64);
        assert_eq!(info[0].dim, 8);
        assert_eq!(info[0].technique, Technique::LinearScan);
        assert_eq!(info[0].per_query_ns, 1_000.0);
    }

    #[test]
    fn probed_cost_is_positive() {
        let mut table = fast_table();
        table.cost_override_ns = None;
        let engine = Engine::start(EngineConfig::new(vec![table]));
        assert!(engine.tables()[0].per_query_ns > 0.0);
    }

    #[test]
    fn apply_plan_swaps_technique_cost_and_epoch() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.plan_version(), 0);

        let plan = plan_for(&engine, 7, &[Technique::Dhe]);
        let epoch = engine.apply_plan(&plan).expect("valid plan");
        assert_eq!(epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.plan_version(), 7);
        let info = &engine.tables()[0];
        assert_eq!(info.technique, Technique::Dhe);
        assert_eq!(info.per_query_ns, 2_000.0);

        // The generator is exchanged before the epoch is published, so
        // the swap is already applied on return.
        assert_eq!(engine.stats().snapshot().swaps_applied, 1);

        // Served output now matches a DHE generator built from the same
        // seed — the swap actually replaced the backend.
        let mut reference = GeneratorSpec::Dhe { rows: 64, dim: 8 }.build(7);
        let out = engine
            .call(Request::new(0, vec![5, 9]))
            .embeddings()
            .expect("served")
            .clone();
        assert_eq!(out, reference.generate_batch(&[5, 9]));
    }

    #[test]
    fn apply_plan_rejects_mismatched_plans() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let empty = AllocationPlan {
            version: 1,
            dim: 8,
            batch: 8,
            threads: 1,
            threshold: 0,
            oram_to: 0,
            tables: vec![],
        };
        assert_eq!(
            engine.apply_plan(&empty),
            Err(PlanError::TableCountMismatch { plan: 0, engine: 1 })
        );
        let mut wrong_rows = plan_for(&engine, 1, &[Technique::Dhe]);
        wrong_rows.tables[0].rows = 65;
        assert_eq!(
            engine.apply_plan(&wrong_rows),
            Err(PlanError::RowsMismatch { table: 0 })
        );
        // Failed plans leave the allocation untouched.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.tables()[0].technique, Technique::LinearScan);
    }

    #[test]
    fn unknown_plan_cost_is_probed_at_apply() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let mut plan = plan_for(&engine, 1, &[Technique::Dhe]);
        plan.tables[0].per_query_ns = -1.0; // unknown: probe at apply
        engine.apply_plan(&plan).expect("valid plan");
        assert!(engine.tables()[0].per_query_ns > 0.0);
    }

    #[test]
    fn workers_export_service_samples() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        for i in 0..8 {
            engine.call(Request::new(0, vec![i]));
        }
        let samples = engine.drain_samples(0);
        assert!(!samples.is_empty(), "completed batches must leave samples");
        assert!(samples.iter().all(|&s| s > 0.0));
        // Draining empties the ring; an unknown table yields nothing.
        assert!(engine.drain_samples(0).is_empty());
        assert!(engine.drain_samples(99).is_empty());
    }

    #[test]
    fn sample_ring_overwrites_oldest() {
        let mut ring = SampleRing::new();
        for i in 0..(SAMPLE_CAP + 3) {
            ring.push(i as f64);
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), SAMPLE_CAP);
        assert_eq!(drained[0], 3.0, "oldest three were overwritten");
        assert_eq!(*drained.last().unwrap(), (SAMPLE_CAP + 2) as f64);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn probe_deltas_are_scrape_timing_independent() {
        let model = CostModel::scalable_sgx();
        let cum = |n: u64| AccessStats {
            accesses: n,
            bucket_reads: 10 * n,
            bucket_writes: 6 * n,
            bytes_moved: 4096 * n,
            evictions: n,
            ..Default::default()
        };
        // One observation after four batches vs an observation (and a
        // scrape reading the counters) after every batch: the counter
        // increments must telescope to the same totals either way.
        let mut coarse = ProbeAccumulator::default();
        let total = coarse.observe(&cum(4), &model);
        let mut fine = ProbeAccumulator::default();
        let mut sum = ProbeDelta::default();
        for n in 1..=4 {
            let d = fine.observe(&cum(n), &model);
            sum.evictions += d.evictions;
            sum.bucket_reads += d.bucket_reads;
            sum.bucket_writes += d.bucket_writes;
            sum.bytes_moved += d.bytes_moved;
            sum.ocalls += d.ocalls;
            sum.epc_page_swaps += d.epc_page_swaps;
            sum.encrypted_bytes += d.encrypted_bytes;
        }
        assert_eq!(sum, total);
        assert!(total.bucket_reads == 40 && total.evictions == 4);
        // The stash gauge is the batch-weighted mean of the sequence, a
        // property of the batches — not of when a scrape happens to read
        // the gauge between them.
        let mut acc = ProbeAccumulator::default();
        assert_eq!(acc.observe_stash(4), 4.0);
        assert_eq!(acc.observe_stash(6), 5.0);
        assert_eq!(acc.observe_stash(5), 5.0);
        // After a swap the baselines restart with the fresh generator:
        // its first cumulative report counts in full, no underflow.
        fine.reset();
        let mut from_zero = ProbeAccumulator::default();
        assert_eq!(
            fine.observe(&cum(2), &model),
            from_zero.observe(&cum(2), &model)
        );
    }

    #[test]
    fn swap_on_an_idle_engine_installs_before_returning() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let plan = plan_for(&engine, 1, &[Technique::Dhe]);
        engine.apply_plan(&plan).expect("valid plan");
        // Nobody had to wake up for the swap to be complete on return.
        assert_eq!(engine.stats().snapshot().swaps_applied, 1);
        let workers = engine.stats().snapshot().worker_batches;
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].batches, 0, "the idle worker never ran");
        // Its first batch serves the new technique's bits.
        let mut reference = GeneratorSpec::Dhe { rows: 64, dim: 8 }.build(7);
        let out = engine.call(Request::new(0, vec![5, 9]));
        assert_eq!(
            out.embeddings().expect("served"),
            &reference.generate_batch(&[5, 9])
        );
    }

    /// The gate's writer-preference check: with the worker saturated, a
    /// waiting swap must stop new batches from starting or it starves.
    #[test]
    fn swap_under_sustained_load_completes() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (engine, stop) = (&engine, &stop);
                s.spawn(move || {
                    // Two requests in flight per submitter: the queue is
                    // never empty while one is being answered.
                    let mut ahead = engine.submit(Request::new(0, vec![t]));
                    while !stop.load(Ordering::SeqCst) {
                        let next = engine.submit(Request::new(0, vec![t, t + 8]));
                        assert!(ahead.wait().embeddings().is_some(), "request dropped");
                        ahead = next;
                    }
                    assert!(ahead.wait().embeddings().is_some(), "request dropped");
                });
            }
            for version in 1..=6 {
                let technique = [Technique::LinearScan, Technique::Dhe][version as usize % 2];
                let t0 = Instant::now();
                let epoch = engine.apply_plan(&plan_for(&engine, version, &[technique]));
                assert_eq!(epoch, Ok(version));
                let took = t0.elapsed();
                assert!(took < Duration::from_secs(5), "swap {version}: {took:?}");
            }
            stop.store(true, Ordering::SeqCst);
        });
        let snapshot = engine.stats().snapshot();
        assert_eq!(snapshot.swaps_applied, 6);
        assert_eq!(snapshot.accepted, snapshot.completed);
        assert_eq!(engine.queue_depth(), 0);
    }

    /// Regression for the panicking-hot-path audit: a worker dying costs
    /// exactly its in-flight batch (answered `Internal`) and is reported
    /// in [`ServerStats`]; its shard then answers `Internal` instead of
    /// hanging, and a swap does not wait on the corpse.
    #[test]
    fn fully_dead_shard_rejects_instead_of_hanging() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        assert!(!engine.inject_worker_panic(5), "unknown table");
        assert!(engine.inject_worker_panic(0));
        let deadline = Instant::now() + Duration::from_secs(30);
        while engine.stats().snapshot().worker_deaths == 0 {
            assert!(Instant::now() < deadline, "poisoned worker never died");
            let _ = engine.call(Request::new(0, vec![1]));
        }
        assert_eq!(engine.worker_health(), vec![false]);
        let snap = engine.stats().snapshot();
        assert_eq!(snap.worker_deaths, 1);
        assert!(
            snap.worker_batches.iter().all(|w| w.table == 0 && !w.alive),
            "snapshot must mark the dead worker"
        );
        // A corpse is not in the gate, so a swap never waits on it.
        let t0 = Instant::now();
        let plan = plan_for(&engine, 1, &[Technique::Dhe]);
        engine
            .apply_plan(&plan)
            .expect("plan applies to a dead shard");
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "swap past a corpse: {took:?}"
        );
        // Every subsequent request resolves — explicitly — rather than
        // queueing into a shard nobody drains.
        for _ in 0..4 {
            assert_eq!(
                engine.call(Request::new(0, vec![1])).rejection(),
                Some(RejectReason::Internal)
            );
        }
        assert_eq!(engine.queue_depth(), 0);
    }

    #[test]
    fn apply_plan_swaps_to_circuit_oram() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let plan = plan_for(&engine, 3, &[Technique::CircuitOram]);
        engine.apply_plan(&plan).expect("valid plan");
        assert_eq!(engine.tables()[0].technique, Technique::CircuitOram);
        let mut reference = GeneratorSpec::CircuitOram { rows: 64, dim: 8 }.build(7);
        let out = engine.call(Request::new(0, vec![3, 63, 0]));
        assert_eq!(
            out.embeddings().expect("served"),
            &reference.generate_batch(&[3, 63, 0])
        );
    }

    #[test]
    fn update_requests_scatter_through_laoram() {
        let table = TableConfig {
            spec: GeneratorSpec::LaOram { rows: 64, dim: 8 },
            seed: 7,
            queue_capacity: 64,
            cost_override_ns: Some(1_000.0),
        };
        let engine = Engine::start(EngineConfig::new(vec![table]));
        assert!(engine.tables()[0].supports_updates);
        let base = engine
            .call(Request::new(0, vec![3, 9]))
            .embeddings()
            .expect("read served")
            .clone();
        let deltas = Matrix::from_fn(2, 8, |r, c| (r + 1) as f32 + c as f32 * 0.25);
        let updated = engine
            .call(Request::new(0, vec![3, 9]).with_update(deltas.clone()))
            .embeddings()
            .expect("update served")
            .clone();
        for r in 0..2 {
            for c in 0..8 {
                assert_eq!(updated.row(r)[c], base.row(r)[c] + deltas.row(r)[c]);
            }
        }
        // The write persisted: a later read sees the updated rows.
        let after = engine
            .call(Request::new(0, vec![3, 9]))
            .embeddings()
            .expect("read served")
            .clone();
        assert_eq!(after, updated);
    }

    /// A plan that keeps a table's technique re-costs the shard and
    /// leaves its generator in place, so rows written before the swap
    /// are still there after it.
    #[test]
    fn swap_keeping_the_technique_keeps_written_rows() {
        let table = TableConfig {
            spec: GeneratorSpec::LaOram { rows: 64, dim: 8 },
            seed: 7,
            queue_capacity: 64,
            cost_override_ns: Some(1_000.0),
        };
        let engine = Engine::start(EngineConfig::new(vec![table]));
        let deltas = Matrix::from_fn(1, 8, |_, c| 1.0 + c as f32);
        let updated = engine
            .call(Request::new(0, vec![3]).with_update(deltas))
            .embeddings()
            .expect("update served")
            .clone();
        let seeded = GeneratorSpec::LaOram { rows: 64, dim: 8 }
            .build(7)
            .generate_batch(&[3]);
        assert_ne!(updated, seeded);
        let plan = plan_for(&engine, 1, &[Technique::LaOram]);
        assert_eq!(engine.apply_plan(&plan), Ok(1));
        let after = engine
            .call(Request::new(0, vec![3]))
            .embeddings()
            .expect("read served")
            .clone();
        assert_eq!(after, updated, "the swap dropped a written row");
        assert_eq!(engine.plan_version(), 1);
        assert_eq!(engine.tables()[0].per_query_ns, 2_000.0, "re-costed");
        assert_eq!(engine.stats().snapshot().swaps_applied, 0, "not rebuilt");
    }

    /// What a look-ahead shard exports must not depend on how many of a
    /// window's indices repeat: two same-seed shards serve windows of
    /// equal size, all-distinct on one and one index repeated on the
    /// other, and every exported counter and gauge must agree.
    #[test]
    fn laoram_exports_do_not_reveal_duplicate_indices() {
        use secemb_telemetry::MetricValue;
        /// Values distributed alike for every index stream but drawn
        /// differently, exempt with their reasons. None: every export is
        /// a fixed function of the window sizes.
        const EXEMPT: [(&str, &str); 0] = [];
        const W: u64 = 8;
        let start = || {
            Engine::start(EngineConfig::new(vec![TableConfig {
                spec: GeneratorSpec::LaOram { rows: 64, dim: 8 },
                seed: 7,
                queue_capacity: 64,
                cost_override_ns: Some(1_000.0),
            }]))
        };
        let (distinct, repeated) = (start(), start());
        for window in 0..6 {
            let fresh: Vec<u64> = (0..W).map(|i| (window * W + i) % 64).collect();
            assert!(distinct.call(Request::new(0, fresh)).embeddings().is_some());
            let same = vec![window; W as usize];
            assert!(repeated.call(Request::new(0, same)).embeddings().is_some());
        }
        let exported = |engine: &Engine| -> Vec<(String, String)> {
            engine
                .metrics()
                .snapshot()
                .entries
                .into_iter()
                .filter(|e| !EXEMPT.iter().any(|&(name, _)| name == e.name))
                .filter_map(|e| match e.value {
                    MetricValue::Counter(v) => Some((e.key(), v.to_string())),
                    MetricValue::Gauge(v) => Some((e.key(), v.to_string())),
                    // Histograms hold timings, which differ run to run.
                    MetricValue::Histogram(_) => None,
                })
                .collect()
        };
        let (a, b) = (exported(&distinct), exported(&repeated));
        assert!(a
            .iter()
            .any(|(key, _)| key.starts_with("oram_bucket_reads_total")));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "an export differs with the duplicate count");
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn updates_rejected_without_a_write_path() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        assert!(!engine.tables()[0].supports_updates);
        let response = engine.call(Request::new(0, vec![1, 2]).with_update(Matrix::zeros(2, 8)));
        assert_eq!(response.rejection(), Some(RejectReason::UpdateUnsupported));
        // A malformed update is a bad request even on a capable table.
        let table = TableConfig {
            spec: GeneratorSpec::LaOram { rows: 64, dim: 8 },
            seed: 7,
            queue_capacity: 64,
            cost_override_ns: Some(1_000.0),
        };
        let engine = Engine::start(EngineConfig::new(vec![table]));
        let response = engine.call(Request::new(0, vec![1, 2]).with_update(Matrix::zeros(1, 8)));
        assert_eq!(response.rejection(), Some(RejectReason::BadRequest));
        // Rejections leave no queued work behind.
        assert_eq!(engine.queue_depth(), 0);
    }

    /// A plan that moves a writable table to another technique leaves
    /// it where it is: the written row is still there after the swap, the
    /// write path stays open, and the applied plan says what runs.
    #[test]
    fn plan_moving_a_writable_table_keeps_its_written_rows() {
        let table = TableConfig {
            spec: GeneratorSpec::LaOram { rows: 64, dim: 8 },
            seed: 7,
            queue_capacity: 64,
            cost_override_ns: Some(1_000.0),
        };
        let engine = Engine::start(EngineConfig::new(vec![table]));
        let deltas = Matrix::from_fn(1, 8, |_, c| 1.0 + c as f32);
        let updated = engine
            .call(Request::new(0, vec![3]).with_update(deltas.clone()))
            .embeddings()
            .expect("update served")
            .clone();
        let plan = plan_for(&engine, 1, &[Technique::Dhe]);
        assert_eq!(engine.apply_plan(&plan), Ok(1));
        let after = engine
            .call(Request::new(0, vec![3]))
            .embeddings()
            .expect("read served")
            .clone();
        assert_eq!(after, updated, "the swap dropped a written row");
        let info = &engine.tables()[0];
        assert!(info.supports_updates);
        assert_eq!(info.technique, Technique::LaOram);
        assert_eq!(info.per_query_ns, 1_000.0, "a DHE cost is not this table's");
        assert_eq!(engine.stats().snapshot().swaps_applied, 0, "not rebuilt");
        let active = engine.active_plan().expect("plan applied");
        assert_eq!(active.tables[0].technique, Technique::LaOram);
        assert_eq!(active.version, 1);
        assert!(engine
            .call(Request::new(0, vec![3]).with_update(deltas))
            .embeddings()
            .is_some());
    }

    #[test]
    fn drop_joins_workers_with_requests_in_flight() {
        let engine = Engine::start(EngineConfig::new(vec![fast_table()]));
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| engine.submit(Request::new(0, vec![i])))
            .collect();
        drop(engine);
        // Every ticket resolves (either served before shutdown or
        // converted to a rejection) — no hangs, no losses.
        for t in tickets {
            let _ = t.wait();
        }
    }
}
