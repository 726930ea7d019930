//! The adaptive control loop: samples → drift → dwell → re-profile →
//! reallocate.
//!
//! One [`AdaptiveController`] watches one [`Engine`]. Every step it
//! drains the per-table service-cost samples the shard workers exported,
//! feeds them to per-table [`DriftDetector`]s, and — when a table's cost
//! has verifiably shifted *and stayed shifted* for the configured dwell
//! window — runs a bounded [`reprofile`] round, derives a fresh
//! versioned [`AllocationPlan`] from the updated crossovers, and applies
//! it to the engine as an atomic epoch-tagged swap. Tables whose
//! technique survives the reallocation keep serving uninterrupted but
//! get re-costed admission control (the drifted cost estimate was the
//! problem); tables whose side of a crossover flipped are rebuilt and
//! hot-swapped between batches. A writable (`laoram`) table is only ever
//! re-costed: its written rows live in its generator alone.
//!
//! Two dampers keep the controller from thrashing under oscillating
//! load, where a naive drift-reactive loop would rebuild generators on
//! every half-cycle:
//!
//! - **Dwell**: a drift verdict only fires after it persists for
//!   [`AdaptConfig::dwell`] ([`DampedTrigger`]); any drift-free
//!   observation resets the clock. Combined with the post-swap
//!   [`AdaptConfig::cooldown`] this bounds the swap rate to one per
//!   `dwell + cooldown` regardless of how the costs oscillate. The
//!   dwell/cooldown state is kept **per table**: a table must itself
//!   sustain drift for the dwell window to fire, and only a fired
//!   table's technique is re-decided — one chronically drifting table
//!   can neither hijack the shared clock nor flip its neighbors.
//! - **Hysteresis**: a table keeps its incumbent technique while its
//!   size stays inside the boundary band widened by
//!   [`AdaptConfig::hysteresis`] — the freshly measured crossover must
//!   clear the band, not merely inch past the table, before the
//!   generator is rebuilt. Re-costing still happens either way.
//!
//! The loop can run synchronously ([`AdaptiveController::step`], used by
//! tests and benchmarks that want deterministic phase boundaries) or on
//! its own background thread ([`AdaptiveController::start`]).
//!
//! Every observation publishes the detector state into the engine's
//! telemetry registry (`adapt_ewma_ns{table}`, `adapt_cusum_up`/`down`,
//! `adapt_drift_ratio`, `adapt_samples_seen`, plus the controller-level
//! `adapt_reallocations_total`, `adapt_threshold_rows`,
//! `adapt_oram_to_rows` and `adapt_last_outcome`), so a `METRICS` scrape
//! or JSONL export of the serving stack shows why — or why not — the
//! controller acted. When [`AdaptConfig::persist_path`] is set, every
//! applied plan's crossovers are also written to a versioned
//! [`ProfileArtifact`], so a restarted
//! server resumes from what this process learned.

use crate::drift::{DriftConfig, DriftDetector};
use crate::persist::ProfileArtifact;
use crate::reprofile::{reprofile, ReprofileConfig};
use secemb::hybrid::{AllocationPlan, Crossovers, PlannedTable};
use secemb::Technique;
use secemb_serve::{CostSource, Engine, TableInfo};
use secemb_telemetry::{Counter, Gauge, Registry};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Controller tuning.
#[derive(Clone, Debug)]
pub struct AdaptConfig {
    /// Step interval in background mode.
    pub poll: Duration,
    /// Minimum gap between reallocations — one plan swap must settle (and
    /// its detectors re-arm on fresh samples) before the next can start.
    pub cooldown: Duration,
    /// How long a drift verdict must persist before a reallocation fires.
    /// A drift-free observation resets the clock, so oscillating costs
    /// whose half-cycle is shorter than the dwell never trigger a swap.
    pub dwell: Duration,
    /// Technique-flip hysteresis band, as a fraction of the boundary: a
    /// table whose size is within `boundary / (1 + h) .. boundary *
    /// (1 + h)` of the crossover it would flip across keeps its incumbent
    /// technique (re-costed, not rebuilt). `0.0` disables damping.
    pub hysteresis: f64,
    /// Per-table drift detector tuning.
    pub drift: DriftConfig,
    /// Re-profiling budget and window.
    pub reprofile: ReprofileConfig,
    /// Execution batch size the crossovers are profiled for.
    pub batch: usize,
    /// Worker thread count the crossovers are profiled for.
    pub threads: usize,
    /// Where applied crossovers are persisted (best-effort, atomic
    /// rename) after each reallocation; `None` disables persistence.
    pub persist_path: Option<PathBuf>,
}

impl AdaptConfig {
    /// Defaults at dimension `dim`: 100 ms poll, 2 s cooldown, 500 ms
    /// dwell, 25 % hysteresis band, no persistence.
    pub fn new(dim: usize) -> Self {
        AdaptConfig {
            poll: Duration::from_millis(100),
            cooldown: Duration::from_secs(2),
            dwell: Duration::from_millis(500),
            hysteresis: 0.25,
            drift: DriftConfig::default(),
            reprofile: ReprofileConfig::new(dim),
            batch: 8,
            threads: 1,
            persist_path: None,
        }
    }
}

/// What one trigger decision concluded (see [`DampedTrigger::decide`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerDecision {
    /// No drift; the dwell clock is reset.
    Idle,
    /// Drift present but not yet sustained for the dwell window.
    Dwelling,
    /// Drift present but the last firing is too recent.
    Cooling,
    /// Sustained drift outside the cooldown: act now.
    Fire,
}

/// The pure dwell + cooldown damper, separated from the controller so
/// its swap-rate bound can be property-tested against a synthetic clock.
///
/// Feed it one drift verdict per observation via
/// [`decide`](Self::decide); it fires at most once per
/// `dwell + cooldown` of elapsed clock, no matter how the verdicts
/// oscillate: a firing starts the cooldown, the cooldown resets the
/// dwell clock, and the dwell must then elapse under *uninterrupted*
/// drift before the next firing.
#[derive(Clone, Copy, Debug)]
pub struct DampedTrigger {
    dwell: Duration,
    cooldown: Duration,
    drift_since: Option<Instant>,
    last_fire: Option<Instant>,
}

impl DampedTrigger {
    /// A trigger with the given dwell and cooldown windows.
    pub fn new(dwell: Duration, cooldown: Duration) -> Self {
        DampedTrigger {
            dwell,
            cooldown,
            drift_since: None,
            last_fire: None,
        }
    }

    /// Records one drift verdict at time `now` (which must not go
    /// backwards across calls) and decides whether to act on it.
    pub fn decide(&mut self, drifted: bool, now: Instant) -> TriggerDecision {
        if !drifted {
            self.drift_since = None;
            return TriggerDecision::Idle;
        }
        if let Some(at) = self.last_fire {
            if now.duration_since(at) < self.cooldown {
                // The detectors may still be digesting the swap itself;
                // dwell credit earned during the cooldown would let the
                // next firing land right at its end, so the clock only
                // starts once the cooldown has fully passed.
                self.drift_since = None;
                return TriggerDecision::Cooling;
            }
        }
        let since = *self.drift_since.get_or_insert(now);
        if now.duration_since(since) < self.dwell {
            return TriggerDecision::Dwelling;
        }
        self.drift_since = None;
        self.last_fire = Some(now);
        TriggerDecision::Fire
    }

    /// Firings so far never exceed `elapsed / (dwell + cooldown) + 1`
    /// (the property `tests/trigger_props.rs` checks); this exposes the
    /// denominator.
    pub fn min_fire_gap(&self) -> Duration {
        self.dwell + self.cooldown
    }

    /// Starts the cooldown window at `now` without recording a firing of
    /// *this* trigger — used when another table's firing swapped the
    /// whole plan, which rebased this table's detector too, so its dwell
    /// credit (earned against the pre-swap baseline) is void.
    pub fn start_cooldown(&mut self, now: Instant) {
        self.last_fire = Some(now);
        self.drift_since = None;
    }
}

/// Algorithm 3's decision with a hysteresis band: the fresh crossovers
/// decide, except that an incumbent technique is kept while the table's
/// size stays inside the incumbent's band stretched by `(1 + band)` on
/// both sides — so a boundary that merely inched past the table does not
/// rebuild its generator, while a boundary that cleared the band does.
fn hysteresis_choice(fresh: Crossovers, incumbent: Technique, rows: u64, band: f64) -> Technique {
    let target = fresh.choose(rows);
    if band <= 0.0 || target == incumbent {
        return target;
    }
    let widen = 1.0 + band;
    let lo = |b: u64| (b as f64 / widen) as u64;
    let hi = |b: u64| (b as f64 * widen).min(u64::MAX as f64) as u64;
    let keep = match incumbent {
        Technique::LinearScan | Technique::IndexLookup => rows < hi(fresh.scan_to),
        Technique::CircuitOram | Technique::PathOram | Technique::LaOram => {
            !fresh.is_two_way() && rows >= lo(fresh.scan_to) && rows < hi(fresh.oram_to)
        }
        Technique::Dhe => rows >= lo(fresh.oram_to),
    };
    if keep {
        incumbent
    } else {
        target
    }
}

/// What one controller step did.
#[derive(Clone, Debug, PartialEq)]
pub enum StepOutcome {
    /// No table shows sustained drift; nothing to do.
    Stable,
    /// Drift detected but not yet sustained for the dwell window.
    Dwelling,
    /// Drift detected, but the previous reallocation is too recent.
    CoolingDown,
    /// A new plan was derived and applied.
    Reallocated {
        /// Version of the applied plan.
        version: u64,
        /// Engine epoch after the swap.
        epoch: u64,
        /// The re-profiled scan boundary the plan encodes.
        threshold: u64,
        /// The re-profiled upper edge of the Circuit-ORAM band
        /// (`== threshold` when the band is empty).
        oram_to: u64,
        /// Whether any table changed technique (false = the reallocation
        /// only refreshed admission-control costs).
        techniques_changed: bool,
    },
    /// The engine refused the derived plan (its tables no longer match);
    /// the controller's own state is unchanged and the next sustained
    /// drift will retry after the cooldown.
    ApplyFailed {
        /// Version of the rejected plan.
        version: u64,
        /// The engine's rejection, rendered.
        error: String,
    },
}

/// Per-table drift gauges exported into the engine's telemetry registry,
/// so one `METRICS` scrape or JSONL snapshot shows the detector state
/// alongside serving latency. Gauges hold whole-table aggregates only —
/// never anything derived from request contents.
struct TableGauges {
    ewma_ns: Arc<Gauge>,
    baseline_ns: Arc<Gauge>,
    cusum_up: Arc<Gauge>,
    cusum_down: Arc<Gauge>,
    drift_ratio: Arc<Gauge>,
    samples_seen: Arc<Gauge>,
}

impl TableGauges {
    fn new(registry: &Registry, table: usize) -> Self {
        let t = table.to_string();
        let labels: [(&str, &str); 1] = [("table", &t)];
        TableGauges {
            ewma_ns: registry.gauge_with("adapt_ewma_ns", &labels),
            baseline_ns: registry.gauge_with("adapt_baseline_ns", &labels),
            cusum_up: registry.gauge_with("adapt_cusum_up", &labels),
            cusum_down: registry.gauge_with("adapt_cusum_down", &labels),
            drift_ratio: registry.gauge_with("adapt_drift_ratio", &labels),
            samples_seen: registry.gauge_with("adapt_samples_seen", &labels),
        }
    }

    fn publish(&self, detector: &DriftDetector) {
        self.ewma_ns.set(detector.ewma_ns());
        self.baseline_ns.set(detector.baseline_ns());
        self.cusum_up.set(detector.cusum_up());
        self.cusum_down.set(detector.cusum_down());
        self.drift_ratio.set(detector.drift_ratio());
        self.samples_seen.set(detector.samples_seen() as f64);
    }
}

/// `adapt_last_outcome` gauge values, one per [`StepOutcome`] variant.
const OUTCOME_STABLE: f64 = 0.0;
const OUTCOME_COOLING: f64 = 1.0;
const OUTCOME_REALLOCATED: f64 = 2.0;
const OUTCOME_DWELLING: f64 = 3.0;
const OUTCOME_APPLY_FAILED: f64 = 4.0;

/// The drift-reacting control loop for one engine.
pub struct AdaptiveController {
    engine: Arc<Engine>,
    config: AdaptConfig,
    detectors: Vec<DriftDetector>,
    crossovers: Crossovers,
    /// One damper per table: a table must *itself* sustain drift for the
    /// dwell window before it can fire. Keying the dwell/cooldown state
    /// by table id keeps one chronically drifting table from hijacking
    /// the shared clock — under a single global trigger, interleaved
    /// verdicts from different tables OR together and can fire a swap no
    /// single table earned.
    triggers: Vec<DampedTrigger>,
    next_version: u64,
    reallocations: u64,
    last_plan: Option<AllocationPlan>,
    table_gauges: Vec<TableGauges>,
    reallocations_total: Arc<Counter>,
    threshold_rows: Arc<Gauge>,
    oram_to_rows: Arc<Gauge>,
    last_outcome: Arc<Gauge>,
}

impl AdaptiveController {
    /// A controller defending `initial_threshold` (the offline profile's
    /// two-way crossover) over `engine`'s tables. Detector baselines
    /// start at the engine's per-query cost estimates, except where a
    /// table's cost is still its prior: that detector learns its baseline
    /// from the table's first served samples ([`DriftDetector::learning`]).
    pub fn new(engine: Arc<Engine>, initial_threshold: u64, config: AdaptConfig) -> Self {
        Self::with_crossovers(engine, Crossovers::two_way(initial_threshold), config)
    }

    /// A controller defending an explicit three-way split — e.g. the
    /// crossovers recovered from a persisted
    /// [`ProfileArtifact`], so a
    /// restarted server resumes from what the previous process learned.
    pub fn with_crossovers(
        engine: Arc<Engine>,
        crossovers: Crossovers,
        config: AdaptConfig,
    ) -> Self {
        let crossovers = crossovers.normalized();
        let detectors: Vec<DriftDetector> = engine
            .tables()
            .iter()
            .map(|t| detector_for(config.drift, t))
            .collect();
        let registry = engine.metrics();
        let table_gauges = (0..detectors.len())
            .map(|table| TableGauges::new(&registry, table))
            .collect();
        let threshold_rows = registry.gauge("adapt_threshold_rows");
        threshold_rows.set(crossovers.scan_to as f64);
        let oram_to_rows = registry.gauge("adapt_oram_to_rows");
        oram_to_rows.set(crossovers.oram_to as f64);
        let triggers = detectors
            .iter()
            .map(|_| DampedTrigger::new(config.dwell, config.cooldown))
            .collect();
        AdaptiveController {
            detectors,
            crossovers,
            triggers,
            next_version: 1,
            reallocations: 0,
            last_plan: None,
            table_gauges,
            reallocations_total: registry.counter("adapt_reallocations_total"),
            threshold_rows,
            oram_to_rows,
            last_outcome: registry.gauge("adapt_last_outcome"),
            config,
            engine,
        }
    }

    /// Resumes plan numbering above a previously persisted version, so a
    /// restarted controller never re-issues a version the engine's
    /// downstream consumers have already seen.
    #[must_use]
    pub fn resuming_from_version(mut self, last_version: u64) -> Self {
        self.next_version = self.next_version.max(last_version + 1);
        self
    }

    /// The scan boundary the active allocation was derived from.
    pub fn threshold(&self) -> u64 {
        self.crossovers.scan_to
    }

    /// The allocation boundaries the controller is defending.
    pub fn crossovers(&self) -> Crossovers {
        self.crossovers
    }

    /// Plans applied so far.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// The most recently applied plan, if any — serialize with
    /// [`AllocationPlan::to_json`] to persist it.
    pub fn last_plan(&self) -> Option<&AllocationPlan> {
        self.last_plan.as_ref()
    }

    /// Drains the engine's per-table service-cost samples into the drift
    /// detectors and publishes the detector state (`adapt_ewma_ns`,
    /// `adapt_cusum_up`/`down`, `adapt_drift_ratio`, ... per table) into
    /// the engine's telemetry registry. Returns whether any table shows
    /// sustained drift.
    ///
    /// [`step`](Self::step) calls this internally; call it directly to
    /// monitor drift passively — e.g. a benchmark that wants detector
    /// readings without ever triggering a reallocation.
    pub fn observe(&mut self) -> bool {
        self.observe_each().into_iter().any(|d| d)
    }

    /// As [`observe`](Self::observe), but returns the per-table drift
    /// verdicts the per-table triggers consume.
    fn observe_each(&mut self) -> Vec<bool> {
        for (table, detector) in self.detectors.iter_mut().enumerate() {
            detector.observe_all(&self.engine.drain_samples(table));
        }
        for (detector, gauges) in self.detectors.iter().zip(&self.table_gauges) {
            gauges.publish(detector);
        }
        self.detectors.iter().map(DriftDetector::drifted).collect()
    }

    /// Runs one control step: drain samples, update detectors, and if
    /// drift has persisted past the dwell window (outside the cooldown)
    /// re-profile and apply a new plan. The re-profiling happens on the
    /// calling thread — in background mode that is the controller
    /// thread, never a worker.
    ///
    /// Each step also records its outcome in the `adapt_last_outcome`
    /// gauge (0 = stable, 1 = cooling down, 2 = reallocated,
    /// 3 = dwelling, 4 = plan rejected by the engine).
    pub fn step(&mut self) -> StepOutcome {
        let verdicts = self.observe_each();
        let now = Instant::now();
        let decisions: Vec<TriggerDecision> = self
            .triggers
            .iter_mut()
            .zip(&verdicts)
            .map(|(trigger, &drifted)| trigger.decide(drifted, now))
            .collect();
        let fired: Vec<bool> = decisions
            .iter()
            .map(|d| *d == TriggerDecision::Fire)
            .collect();
        if fired.iter().any(|&f| f) {
            return self.reallocate(&fired, now);
        }
        if decisions.contains(&TriggerDecision::Dwelling) {
            self.last_outcome.set(OUTCOME_DWELLING);
            return StepOutcome::Dwelling;
        }
        if decisions.contains(&TriggerDecision::Cooling) {
            self.last_outcome.set(OUTCOME_COOLING);
            return StepOutcome::CoolingDown;
        }
        self.last_outcome.set(OUTCOME_STABLE);
        StepOutcome::Stable
    }

    fn reallocate(&mut self, fired: &[bool], now: Instant) -> StepOutcome {
        let report = reprofile(
            &self.config.reprofile,
            self.crossovers,
            self.config.batch,
            self.config.threads,
        );
        let fresh = report.crossovers;
        let infos = self.engine.tables();
        let tables: Vec<PlannedTable> = infos
            .iter()
            .zip(&self.detectors)
            .enumerate()
            .map(|(table, (info, detector))| {
                // Only a table whose own trigger fired may flip its
                // technique; a neighbor that never sustained drift keeps
                // its incumbent (re-costed, not rebuilt) no matter where
                // the re-profiled boundary landed. A writable table never
                // flips: the engine would keep it, and its written rows,
                // where it is.
                let flips = fired.get(table).copied().unwrap_or(false) && !info.supports_updates;
                let technique = if flips {
                    hysteresis_choice(fresh, info.technique, info.rows, self.config.hysteresis)
                } else {
                    info.technique
                };
                PlannedTable {
                    rows: info.rows,
                    technique,
                    // A table keeping its technique keeps serving the same
                    // kernel, so the drift EWMA is the best cost estimate
                    // once the detector has a baseline; a flipped table's
                    // cost is unknown until its freshly built generator has
                    // served, and one still learning keeps what it has.
                    per_query_ns: if technique == info.technique && !detector.is_learning() {
                        detector.ewma_ns()
                    } else {
                        -1.0
                    },
                }
            })
            .collect();
        let plan = AllocationPlan {
            version: self.next_version,
            dim: self.config.reprofile.dim,
            batch: self.config.batch,
            threads: self.config.threads,
            threshold: fresh.scan_to,
            oram_to: fresh.oram_to,
            tables,
        };
        let epoch = match self.engine.apply_plan(&plan) {
            Ok(epoch) => epoch,
            Err(e) => {
                // The engine's tables no longer match the controller's
                // view. Don't panic the control loop: report, leave the
                // controller state untouched, and let the next sustained
                // drift retry (the firing already started the cooldown).
                self.last_outcome.set(OUTCOME_APPLY_FAILED);
                return StepOutcome::ApplyFailed {
                    version: plan.version,
                    error: e.to_string(),
                };
            }
        };
        // Re-arm every detector against the applied plan's costs (a
        // flipped table's detector learns its baseline afresh), and
        // discard samples that straddled the swap. The swap rebased every
        // table's baseline, so every trigger enters its cooldown — dwell
        // credit earned against the pre-swap baseline would fire on stale
        // evidence.
        for trigger in &mut self.triggers {
            trigger.start_cooldown(now);
        }
        let applied = self.engine.tables();
        let techniques_changed = infos
            .iter()
            .zip(&applied)
            .any(|(before, after)| before.technique != after.technique);
        for (info, detector) in applied.iter().zip(&mut self.detectors) {
            *detector = detector_for(self.config.drift, info);
        }
        for table in 0..self.detectors.len() {
            let _ = self.engine.drain_samples(table);
        }
        self.crossovers = fresh;
        self.next_version += 1;
        self.reallocations += 1;
        self.last_plan = Some(plan);
        // Re-publish the (rebased) detector state so exports never show
        // pre-swap CUSUM sums against the post-swap baseline.
        for (detector, gauges) in self.detectors.iter().zip(&self.table_gauges) {
            gauges.publish(detector);
        }
        self.reallocations_total.inc();
        self.threshold_rows.set(fresh.scan_to as f64);
        self.oram_to_rows.set(fresh.oram_to as f64);
        self.last_outcome.set(OUTCOME_REALLOCATED);
        if let Some(path) = &self.config.persist_path {
            // Best-effort: a full disk must not take down the control
            // loop, and the next reallocation rewrites the artifact.
            let _ = ProfileArtifact {
                dim: self.config.reprofile.dim,
                batch: self.config.batch,
                threads: self.config.threads,
                crossovers: fresh,
                plan_version: self.next_version - 1,
            }
            .store(path);
        }
        StepOutcome::Reallocated {
            version: self.next_version - 1,
            epoch,
            threshold: fresh.scan_to,
            oram_to: fresh.oram_to,
            techniques_changed,
        }
    }

    /// Moves the controller to a background thread stepping every
    /// `config.poll`. Stop (and get the controller back for inspection)
    /// with [`ControllerHandle::stop`].
    pub fn start(self) -> ControllerHandle {
        let (stop, stopped) = mpsc::channel::<()>();
        let poll = self.config.poll;
        let thread = std::thread::Builder::new()
            .name("secemb-adapt".into())
            .spawn(move || {
                let mut controller = self;
                // Between steps the thread is parked on the stop channel:
                // one wake-up per poll, and stop() never waits out a sleep.
                loop {
                    controller.step();
                    if stopped.recv_timeout(poll) != Err(mpsc::RecvTimeoutError::Timeout) {
                        return controller;
                    }
                }
            })
            .expect("spawn controller thread");
        ControllerHandle { stop, thread }
    }
}

/// The detector for a table costed as `info` says: against its cost, or
/// learning its baseline while that cost is a prior.
fn detector_for(config: DriftConfig, info: &TableInfo) -> DriftDetector {
    let baseline_ns = info.per_query_ns.max(1.0);
    match info.cost {
        CostSource::Prior => DriftDetector::learning(config, baseline_ns),
        _ => DriftDetector::new(config, baseline_ns),
    }
}

/// A running background controller.
pub struct ControllerHandle {
    /// Dropping (or sending on) this stops the loop.
    stop: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<AdaptiveController>,
}

impl ControllerHandle {
    /// Signals the loop to stop and returns the controller with its final
    /// state (crossovers, reallocation count, last plan).
    ///
    /// # Panics
    ///
    /// Panics if the controller thread itself panicked — its state is
    /// gone, so there is nothing to return.
    pub fn stop(self) -> AdaptiveController {
        drop(self.stop);
        self.thread.join().expect("controller thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb::GeneratorSpec;
    use secemb_serve::{EngineConfig, Request, TableConfig};

    /// An engine whose admission baseline is absurdly low, so real service
    /// costs register as massive upward drift after a handful of batches.
    fn drifting_engine() -> Arc<Engine> {
        Arc::new(Engine::start(EngineConfig::new(vec![TableConfig {
            spec: GeneratorSpec::Scan { rows: 64, dim: 8 },
            seed: 7,
            queue_capacity: 256,
            cost_override_ns: Some(0.001),
        }])))
    }

    fn quick_config() -> AdaptConfig {
        AdaptConfig {
            poll: Duration::from_millis(5),
            cooldown: Duration::ZERO,
            dwell: Duration::ZERO,
            hysteresis: 0.0,
            drift: DriftConfig {
                min_samples: 4,
                ..DriftConfig::default()
            },
            reprofile: ReprofileConfig {
                dim: 8,
                window_factor: 2.0,
                points: 3,
                repeats: 1,
                throttle: Duration::from_micros(100),
                varied_dhe: false,
                oram: false,
            },
            batch: 4,
            threads: 1,
            persist_path: None,
        }
    }

    fn drive(engine: &Engine, requests: u64) {
        for i in 0..requests {
            engine
                .call(Request::new(0, vec![i % 64]))
                .embeddings()
                .expect("served");
        }
    }

    #[test]
    fn no_traffic_is_stable() {
        let engine = drifting_engine();
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, quick_config());
        assert_eq!(c.step(), StepOutcome::Stable);
        assert_eq!(c.reallocations(), 0);
        assert!(c.last_plan().is_none());
    }

    #[test]
    fn drift_triggers_reallocation_and_recosting() {
        let engine = drifting_engine();
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, quick_config());
        drive(&engine, 16);
        let outcome = c.step();
        let StepOutcome::Reallocated {
            version,
            epoch,
            threshold,
            oram_to,
            ..
        } = outcome
        else {
            panic!("expected reallocation, got {outcome:?}");
        };
        assert_eq!(version, 1);
        assert_eq!(epoch, 1);
        assert_eq!(engine.plan_version(), 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(c.threshold(), threshold);
        assert_eq!(c.crossovers().oram_to, oram_to);
        assert_eq!(oram_to, threshold, "two-way probe keeps the band empty");
        // Admission control now budgets with a realistic cost, not the
        // poisoned 0.001 ns baseline.
        assert!(engine.tables()[0].per_query_ns > 1.0);
        let plan = c.last_plan().expect("plan recorded");
        assert_eq!(plan.version, 1);
        assert!(plan.is_monotone());
        // The persisted artifact round-trips.
        assert_eq!(AllocationPlan::from_json(&plan.to_json()).unwrap(), *plan);
    }

    #[test]
    fn cooldown_blocks_back_to_back_swaps() {
        let engine = drifting_engine();
        let mut config = quick_config();
        config.cooldown = Duration::from_secs(3600);
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, config);
        drive(&engine, 16);
        assert!(matches!(c.step(), StepOutcome::Reallocated { .. }));
        // Detectors re-armed; drive fresh drift against the new baseline.
        // Even if it trips, the cooldown must hold the second swap.
        drive(&engine, 16);
        for _ in 0..10 {
            let outcome = c.step();
            assert!(
                outcome == StepOutcome::Stable || outcome == StepOutcome::CoolingDown,
                "cooldown violated: {outcome:?}"
            );
        }
        assert_eq!(c.reallocations(), 1);
    }

    #[test]
    fn dwell_holds_the_first_swap_until_drift_persists() {
        let engine = drifting_engine();
        let mut config = quick_config();
        config.dwell = Duration::from_millis(60);
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, config);
        drive(&engine, 16);
        // Drift is present immediately, but the verdict has no tenure yet.
        assert_eq!(c.step(), StepOutcome::Dwelling);
        assert_eq!(c.reallocations(), 0);
        // Keep the drift alive past the dwell window; the swap then fires.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            drive(&engine, 4);
            match c.step() {
                StepOutcome::Reallocated { .. } => break,
                StepOutcome::Dwelling => {
                    assert!(Instant::now() < deadline, "dwell never released");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("unexpected outcome while dwelling: {other:?}"),
            }
        }
        assert_eq!(c.reallocations(), 1);
    }

    #[test]
    fn trigger_damps_an_oscillating_verdict() {
        let t0 = Instant::now();
        let mut trigger = DampedTrigger::new(Duration::from_millis(100), Duration::ZERO);
        // Drift that flaps every 40 ms never survives a 100 ms dwell.
        for tick in 0..200u64 {
            let drifted = (tick / 4) % 2 == 0;
            let now = t0 + Duration::from_millis(tick * 10);
            assert_ne!(
                trigger.decide(drifted, now),
                TriggerDecision::Fire,
                "fired at tick {tick} under sub-dwell oscillation"
            );
        }
        // Sustained drift fires exactly once per dwell window.
        let mut fires = 0;
        for tick in 200..240u64 {
            let now = t0 + Duration::from_millis(tick * 10);
            if trigger.decide(true, now) == TriggerDecision::Fire {
                fires += 1;
            }
        }
        assert!(
            (3..=4).contains(&fires),
            "400 ms of sustained drift under a 100 ms dwell fired {fires} times"
        );
        assert_eq!(trigger.min_fire_gap(), Duration::from_millis(100));
    }

    /// A drifting writable table is re-costed, never moved: the rows
    /// written into it and its write path survive the reallocation.
    #[test]
    fn reallocation_keeps_a_written_laoram_table() {
        use secemb_tensor::Matrix;
        let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig {
            spec: GeneratorSpec::LaOram { rows: 64, dim: 8 },
            seed: 7,
            queue_capacity: 256,
            cost_override_ns: Some(0.001),
        }])));
        let mut config = quick_config();
        config.hysteresis = AdaptConfig::new(8).hysteresis;
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, config);
        let deltas = Matrix::from_fn(1, 8, |_, col| 1.0 + col as f32);
        let update = || Request::new(0, vec![3]).with_update(deltas.clone());
        let written = engine
            .call(update())
            .embeddings()
            .expect("update served")
            .clone();
        drive(&engine, 16);
        let outcome = c.step();
        assert!(
            matches!(
                outcome,
                StepOutcome::Reallocated {
                    techniques_changed: false,
                    ..
                }
            ),
            "{outcome:?}"
        );
        assert_eq!(engine.tables()[0].technique, Technique::LaOram);
        assert!(engine.tables()[0].per_query_ns > 1.0, "re-costed");
        let read = engine.call(Request::new(0, vec![3]));
        assert_eq!(
            read.embeddings(),
            Some(&written),
            "the written row was lost"
        );
        assert!(engine.call(update()).embeddings().is_some());
    }

    #[test]
    fn hysteresis_keeps_incumbents_near_the_boundary() {
        let fresh = Crossovers {
            scan_to: 100,
            oram_to: 1000,
        };
        let h = 0.25;
        // Inside the widened scan band: incumbent scan survives a
        // boundary that inched below the table...
        assert_eq!(
            hysteresis_choice(fresh, Technique::LinearScan, 110, h),
            Technique::LinearScan
        );
        // ...but not a boundary that cleared the band.
        assert_eq!(
            hysteresis_choice(fresh, Technique::LinearScan, 200, h),
            Technique::CircuitOram
        );
        // Symmetric for DHE above the ORAM boundary.
        assert_eq!(
            hysteresis_choice(fresh, Technique::Dhe, 900, h),
            Technique::Dhe
        );
        assert_eq!(
            hysteresis_choice(fresh, Technique::Dhe, 500, h),
            Technique::CircuitOram
        );
        // An ORAM incumbent holds its widened band on both sides — the
        // look-ahead variant included.
        assert_eq!(
            hysteresis_choice(fresh, Technique::CircuitOram, 90, h),
            Technique::CircuitOram
        );
        assert_eq!(
            hysteresis_choice(fresh, Technique::LaOram, 90, h),
            Technique::LaOram
        );
        assert_eq!(
            hysteresis_choice(fresh, Technique::CircuitOram, 1100, h),
            Technique::CircuitOram
        );
        assert_eq!(
            hysteresis_choice(fresh, Technique::CircuitOram, 60, h),
            Technique::LinearScan
        );
        // A collapsed band evicts an ORAM incumbent regardless.
        let two_way = Crossovers::two_way(100);
        assert_eq!(
            hysteresis_choice(two_way, Technique::CircuitOram, 120, h),
            Technique::Dhe
        );
        // Zero band = pure Algorithm 3.
        assert_eq!(
            hysteresis_choice(fresh, Technique::LinearScan, 110, 0.0),
            Technique::CircuitOram
        );
    }

    #[test]
    fn per_table_triggers_isolate_a_drifting_neighbor() {
        // Table 0's admission baseline is poisoned (drifts instantly);
        // table 1 never sees traffic, so it never drifts. Only table 0's
        // trigger may fire — and the resulting plan must keep table 1's
        // incumbent technique even though pure Algorithm 3 would flip a
        // 4096-row scan to DHE at any plausible re-profiled boundary.
        let engine = Arc::new(Engine::start(EngineConfig::new(vec![
            TableConfig {
                spec: GeneratorSpec::Scan { rows: 64, dim: 8 },
                seed: 7,
                queue_capacity: 256,
                cost_override_ns: Some(0.001),
            },
            TableConfig {
                spec: GeneratorSpec::Scan { rows: 4096, dim: 8 },
                seed: 9,
                queue_capacity: 256,
                cost_override_ns: Some(50_000.0),
            },
        ])));
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, quick_config());
        drive(&engine, 16);
        assert!(matches!(c.step(), StepOutcome::Reallocated { .. }));
        assert_eq!(c.reallocations(), 1);
        let tables = engine.tables();
        assert_eq!(
            tables[1].technique,
            Technique::LinearScan,
            "a quiet neighbor must keep its incumbent technique"
        );
        let plan = c.last_plan().expect("plan recorded");
        assert_eq!(plan.tables[1].technique, Technique::LinearScan);
    }

    #[test]
    fn reallocation_persists_the_crossovers() {
        use crate::persist::ProfileArtifact;
        let path = std::env::temp_dir().join(format!(
            "secemb-adapt-persist-test-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let engine = drifting_engine();
        let mut config = quick_config();
        config.persist_path = Some(path.clone());
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, config);
        drive(&engine, 16);
        assert!(matches!(c.step(), StepOutcome::Reallocated { .. }));
        let artifact = ProfileArtifact::load(&path).expect("artifact written");
        assert_eq!(artifact.crossovers, c.crossovers());
        assert_eq!(artifact.plan_version, 1);
        assert_eq!(artifact.dim, 8);
        // A controller restarted from the artifact resumes, not re-learns.
        let resumed = AdaptiveController::with_crossovers(
            Arc::clone(&engine),
            artifact.crossovers,
            quick_config(),
        )
        .resuming_from_version(artifact.plan_version);
        assert_eq!(resumed.crossovers(), artifact.crossovers);
        assert_eq!(resumed.next_version, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observe_publishes_gauges_without_reallocating() {
        use secemb_telemetry::MetricValue;
        let engine = drifting_engine();
        let mut c = AdaptiveController::new(Arc::clone(&engine), 512, quick_config());
        drive(&engine, 16);
        assert!(c.observe(), "poisoned baseline must register as drift");
        assert_eq!(c.reallocations(), 0, "observe alone never reallocates");
        let snap = engine.metrics().snapshot();
        let gauge = |name: &str, labels: &[(&str, &str)]| match snap.get(name, labels) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: expected gauge, got {other:?}"),
        };
        let table = [("table", "0")];
        assert!(gauge("adapt_ewma_ns", &table) > 1.0);
        assert!(gauge("adapt_drift_ratio", &table) > 1.0);
        assert!(gauge("adapt_cusum_up", &table) > 0.0);
        assert!(gauge("adapt_samples_seen", &table) >= 4.0);
        assert_eq!(gauge("adapt_threshold_rows", &[]), 512.0);
        assert_eq!(gauge("adapt_oram_to_rows", &[]), 512.0);

        // A full step reallocates, rebases the detectors, and records all
        // the controller-level metrics.
        assert!(matches!(c.step(), StepOutcome::Reallocated { .. }));
        let snap = engine.metrics().snapshot();
        let gauge = |name: &str, labels: &[(&str, &str)]| match snap.get(name, labels) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: expected gauge, got {other:?}"),
        };
        match snap.get("adapt_reallocations_total", &[]) {
            Some(MetricValue::Counter(1)) => {}
            other => panic!("reallocations_total: {other:?}"),
        }
        assert_eq!(gauge("adapt_last_outcome", &[]), OUTCOME_REALLOCATED);
        assert_eq!(gauge("adapt_threshold_rows", &[]), c.threshold() as f64);
        assert_eq!(
            gauge("adapt_oram_to_rows", &[]),
            c.crossovers().oram_to as f64
        );
        assert_eq!(gauge("adapt_samples_seen", &table), 0.0, "rebased");
        assert_eq!(gauge("adapt_cusum_up", &table), 0.0, "rebased");
    }

    #[test]
    fn background_loop_reallocates_and_stops() {
        let engine = drifting_engine();
        let c = AdaptiveController::new(Arc::clone(&engine), 512, quick_config());
        let handle = c.start();
        drive(&engine, 16);
        let waited = Instant::now();
        while engine.epoch() == 0 {
            assert!(
                waited.elapsed() < Duration::from_secs(10),
                "background controller never reallocated"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let c = handle.stop();
        assert!(c.reallocations() >= 1);
        assert_eq!(engine.epoch(), c.reallocations());
    }
}
