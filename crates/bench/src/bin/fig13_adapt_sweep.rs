//! Fig. 13 (adaptive view): static vs adaptive serving across a
//! co-location drift event.
//!
//! Two identical serving engines face the same mixed-table Poisson load
//! under a 20 ms SLA, both allocated from the same offline profile: the
//! `Profiler`'s default uniform-DHE estimate of the scan/DHE crossover,
//! with both tables sized below it and therefore scan-served. Mid-run,
//! contending scan workloads are started on the same machine (the
//! Figs. 8/9 neighbour effect). The bandwidth-bound oblivious scan over
//! the larger table inflates badly; the offline plan is now stale. The
//! *static* engine keeps serving on it; the *adaptive* engine runs a
//! `secemb-adapt` controller that detects the drift from live service
//! samples, re-profiles a bounded window around the old threshold under
//! the live conditions — measuring the DHE variant it would actually
//! deploy — and hot-swaps the allocation. The table compares SLA miss
//! fraction (deadline violations + rejections, over all requests) per
//! phase.
//!
//! `--tiny` shrinks tables, rates and durations to a seconds-long smoke
//! run for CI; the numbers it prints are not meaningful measurements.
//!
//! The final `drift gauges:` line emits the adaptive controller's
//! detector state (per-table EWMA/CUSUM/drift-ratio gauges, threshold,
//! reallocation count, last outcome) as one JSON object, scraped from
//! the adaptive engine's telemetry registry.
//!
//! Two further sweep cells follow the drift table:
//!
//! - **Churn A/B**: the same load against two adaptive engines while
//!   the neighbours *oscillate* (on for a half-cycle, off for a
//!   half-cycle). One controller runs undamped (zero dwell, no
//!   hysteresis — the naive drift-reactive loop); the other runs the
//!   production dwell + hysteresis dampers. The record compares
//!   generator rebuilds (swaps) and SLA miss: damping should cut the
//!   swap count to a fraction at equal-or-better miss.
//! - **Three-way cell**: a plan derived from crossovers with a
//!   non-empty Circuit-ORAM band is hot-swapped into a live engine,
//!   landing one table on `CircuitOram` — the third reallocation
//!   target — which then serves.

use secemb::hybrid::{AllocationPlan, Crossovers, Profiler};
use secemb::{GeneratorSpec, Technique};
use secemb_adapt::{AdaptConfig, AdaptiveController};
use secemb_bench::{drift_gauges_json, print_table, SCALE_NOTE};
use secemb_dlrm::colocate::{start_disturbance, Workload};
use secemb_serve::loadgen::{run_load, LoadConfig, LoadReport, Schedule};
use secemb_serve::{Engine, EngineConfig, Request, Server, TableConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 64;
const BATCH: usize = 8;

struct Params {
    profile_sizes: Vec<u64>,
    repeats: usize,
    rate: f64,
    phase_secs: f64,
    noise_workers: usize,
    noise_rows: u64,
    churn_half: Duration,
    churn_cycles: usize,
    churn_rate: f64,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            profile_sizes: vec![64, 256, 1024, 4096],
            repeats: 3,
            rate: 200.0,
            phase_secs: 0.4,
            noise_workers: 2,
            noise_rows: 1 << 14,
            churn_half: Duration::from_millis(450),
            churn_cycles: 4,
            churn_rate: 250.0,
        }
    } else {
        Params {
            profile_sizes: (12..=17).map(|p| 1u64 << p).collect(),
            repeats: 5,
            rate: 1_000.0,
            phase_secs: 2.5,
            noise_workers: 4,
            noise_rows: 1 << 18,
            churn_half: Duration::from_millis(800),
            churn_cycles: 4,
            churn_rate: 400.0,
        }
    }
}

fn start_engine(rows: [u64; 2], threshold: u64) -> Arc<Engine> {
    let tables = rows
        .iter()
        .map(|&rows| TableConfig {
            // Hybrid spec: the clean plan allocates each table by size.
            spec: GeneratorSpec::Hybrid {
                rows,
                dim: DIM,
                threshold,
            },
            seed: 42,
            queue_capacity: 1024,
            cost_override_ns: None,
        })
        .collect();
    Arc::new(Engine::start(EngineConfig::new(tables)))
}

fn drive(addr: SocketAddr, p: &Params, seed: u64) -> LoadReport {
    run_load(&LoadConfig {
        addrs: vec![addr],
        connections: 4,
        idle_connections: 0,
        tables: vec![0, 1],
        batch: 4,
        offered_rps: p.rate,
        schedule: Schedule::Poisson,
        duration: Duration::from_secs_f64(p.phase_secs),
        deadline: Some(Duration::from_millis(20)),
        seed,
        write_frac: 0.0,
        record_requests: false,
        trace: false,
        timeline_bucket: None,
        tail_window: None,
    })
    .expect("load run")
}

/// SLA accounting accumulated across churn half-cycles.
#[derive(Clone, Copy, Default)]
struct Tally {
    completed: u64,
    violations: u64,
    rejected: u64,
}

impl Tally {
    fn add(&mut self, r: &LoadReport) {
        self.completed += r.completed;
        self.violations += r.deadline_violations;
        self.rejected += r.total_rejected();
    }

    fn miss(&self) -> f64 {
        let total = self.completed + self.rejected;
        if total == 0 {
            0.0
        } else {
            (self.violations + self.rejected) as f64 / total as f64
        }
    }
}

/// The churn A/B: identical engines + load under oscillating neighbours,
/// one controller undamped (zero dwell, no hysteresis), one damped. The
/// interesting numbers are the swap counts — the undamped loop rebuilds
/// generators on the half-cycles, the damped one waits out oscillations
/// shorter than its dwell — and the SLA miss each accumulated.
fn churn_ab(p: &Params, rows: [u64; 2], threshold: u64) {
    println!(
        "\nchurn A/B: {} cycles of {:?} noise-on / noise-off, {} contending workers",
        p.churn_cycles, p.churn_half, p.noise_workers
    );
    let engines = [start_engine(rows, threshold), start_engine(rows, threshold)];
    let servers = engines
        .each_ref()
        .map(|e| Server::start(Arc::clone(e), "127.0.0.1:0").expect("bind churn"));

    let mut base = AdaptConfig::new(DIM);
    base.poll = Duration::from_millis(10);
    base.drift.min_samples = 6;
    // A deliberately cheap re-profile, identical for both controllers:
    // the A/B isolates the dampers, so neither side may be rate-limited
    // by probe cost instead of its trigger.
    base.reprofile.points = 3;
    base.reprofile.repeats = 1;
    base.reprofile.throttle = Duration::from_micros(200);
    base.reprofile.varied_dhe = false;
    base.reprofile.oram = false;
    base.batch = BATCH;
    let mut undamped_cfg = base.clone();
    undamped_cfg.dwell = Duration::ZERO;
    undamped_cfg.cooldown = Duration::from_millis(50);
    undamped_cfg.hysteresis = 0.0;
    let mut damped_cfg = base;
    // The dwell outlasts a noise half-cycle plus the detector's decay
    // lag into the quiet phase, so oscillation at this period can never
    // earn a swap; truly sustained drift still can.
    damped_cfg.dwell = p.churn_half.mul_f64(2.5);
    damped_cfg.cooldown = p.churn_half.mul_f64(2.0);
    damped_cfg.hysteresis = 0.25;
    let handles = [
        AdaptiveController::new(Arc::clone(&engines[0]), threshold, undamped_cfg).start(),
        AdaptiveController::new(Arc::clone(&engines[1]), threshold, damped_cfg).start(),
    ];

    let drive_half = |addr: SocketAddr, seed: u64| {
        run_load(&LoadConfig {
            addrs: vec![addr],
            connections: 2,
            idle_connections: 0,
            tables: vec![0, 1],
            batch: 4,
            offered_rps: p.churn_rate,
            schedule: Schedule::Poisson,
            duration: p.churn_half,
            deadline: Some(Duration::from_millis(20)),
            seed,
            write_frac: 0.0,
            record_requests: false,
            trace: false,
            timeline_bucket: None,
            tail_window: None,
        })
        .expect("churn load")
    };
    let mut tallies = [Tally::default(); 2];
    for cycle in 0..p.churn_cycles {
        let noise: Vec<Workload> = (0..p.noise_workers)
            .map(|_| Workload::new(Technique::LinearScan, p.noise_rows, DIM, BATCH))
            .collect();
        // Both engines face the same disturbance at the same time: the
        // half-cycle drives run concurrently, one thread per server.
        for on in [true, false] {
            let disturbance = on.then(|| start_disturbance(&noise));
            let seed = 100 + 2 * cycle as u64 + u64::from(on);
            let reports = std::thread::scope(|scope| {
                servers
                    .each_ref()
                    .map(|server| scope.spawn(move || drive_half(server.addr(), seed)))
                    .map(|h| h.join().expect("churn drive thread"))
            });
            for (tally, report) in tallies.iter_mut().zip(&reports) {
                tally.add(report);
            }
            drop(disturbance);
        }
    }
    let [undamped, damped] = handles.map(|h| h.stop());

    let swaps = [undamped.reallocations(), damped.reallocations()];
    print_table(
        &["controller", "swaps", "SLA miss", "final threshold"],
        &[
            vec![
                "undamped (dwell 0, no hysteresis)".into(),
                swaps[0].to_string(),
                format!("{:.1}%", tallies[0].miss() * 100.0),
                undamped.threshold().to_string(),
            ],
            vec![
                "damped (dwell + hysteresis)".into(),
                swaps[1].to_string(),
                format!("{:.1}%", tallies[1].miss() * 100.0),
                damped.threshold().to_string(),
            ],
        ],
    );
    println!(
        "churn damping: {} swaps -> {} at SLA miss {:.1}% -> {:.1}%",
        swaps[0],
        swaps[1],
        tallies[0].miss() * 100.0,
        tallies[1].miss() * 100.0,
    );
}

/// The three-way sweep cell: crossovers with a non-empty Circuit-ORAM
/// band — the shape a re-profile reports when contention inflates the
/// scan before DHE preprocessing pays off — hot-swapped into a live
/// engine, landing the mid-band table on the third target.
fn three_way_cell(rows: [u64; 2]) {
    let mid = rows[1];
    let crossovers = Crossovers {
        scan_to: (mid / 2).max(rows[0] + 1),
        oram_to: mid.saturating_mul(4),
    };
    let engine = start_engine(rows, crossovers.scan_to);
    let plan = AllocationPlan::derive_three_way(
        1,
        DIM,
        crossovers,
        &rows,
        &[-1.0, -1.0], // probe both costs at apply time
        BATCH,
        1,
    );
    let epoch = engine.apply_plan(&plan).expect("three-way swap");
    let infos = engine.tables();
    let reply = engine
        .call(Request::new(1, vec![0, mid / 2, mid - 1]))
        .embeddings()
        .expect("served on the ORAM band")
        .len();
    println!(
        "\nthree-way cell: crossovers {}..{} (epoch {epoch}) -> table 0 {}, table 1 {} ({} values served)",
        crossovers.scan_to, crossovers.oram_to, infos[0].technique, infos[1].technique, reply
    );
    assert_eq!(
        infos[1].technique,
        Technique::CircuitOram,
        "mid-band table must land on the Circuit-ORAM target"
    );
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let p = params(tiny);
    println!("Fig. 13 (adaptive): static vs adaptive serving across a co-location drift event");
    println!("{SCALE_NOTE}\n");

    // Offline profile (Algorithm 2) under clean conditions: both engines
    // start from the same honest threshold.
    eprintln!("profiling clean scan/DHE crossover...");
    let profiler = Profiler {
        repeats: p.repeats,
        ..Profiler::new(DIM, p.profile_sizes.clone())
    };
    let threshold = profiler.find_threshold(BATCH, 1);
    // Table 0 sits far below the crossover (small enough to stay
    // cache-resident under neighbours); table 1 sits just below it — the
    // placement that goes wrong once contention inflates the
    // bandwidth-bound scan and the live crossover moves past it.
    let rows = [(threshold / 8).max(16), (threshold as f64 * 0.8) as u64];
    println!("clean threshold: {threshold} rows; tables: {rows:?} x {DIM} dim\n");

    let static_engine = start_engine(rows, threshold);
    let adaptive_engine = start_engine(rows, threshold);
    for (name, engine) in [("static", &static_engine), ("adaptive", &adaptive_engine)] {
        for (id, info) in engine.tables().iter().enumerate() {
            println!(
                "{name} table {id}: {} ({:.0} ns/query)",
                info.technique, info.per_query_ns
            );
        }
    }
    let static_server =
        Server::start(Arc::clone(&static_engine), "127.0.0.1:0").expect("bind static");
    let adaptive_server =
        Server::start(Arc::clone(&adaptive_engine), "127.0.0.1:0").expect("bind adaptive");

    let mut adapt_config = AdaptConfig::new(DIM);
    adapt_config.poll = Duration::from_millis(20);
    adapt_config.cooldown = Duration::from_millis(300);
    adapt_config.drift.min_samples = if tiny { 8 } else { 16 };
    adapt_config.reprofile.points = if tiny { 3 } else { 5 };
    adapt_config.reprofile.repeats = p.repeats.min(3);
    adapt_config.batch = BATCH;
    let controller = AdaptiveController::new(Arc::clone(&adaptive_engine), threshold, adapt_config);
    let handle = controller.start();

    let mut rows_out = Vec::new();
    let mut report_phase = |phase: &str, seed: u64| {
        let s = drive(static_server.addr(), &p, seed);
        let a = drive(adaptive_server.addr(), &p, seed);
        rows_out.push(vec![
            phase.to_string(),
            format!("{:.1}%", s.sla_miss_fraction() * 100.0),
            format!("{:.1}%", a.sla_miss_fraction() * 100.0),
            format!("{:.2}", s.latency.p99_ns / 1e6),
            format!("{:.2}", a.latency.p99_ns / 1e6),
            format!("{:.3}", s.late.p99_ns.max(a.late.p99_ns) / 1e6),
        ]);
        (s, a)
    };

    eprintln!("phase 1: clean baseline...");
    report_phase("pre-drift", 1);

    eprintln!(
        "phase 2: starting {} contending scan workloads, letting the controller settle...",
        p.noise_workers
    );
    let noise: Vec<Workload> = (0..p.noise_workers)
        .map(|_| Workload::new(Technique::LinearScan, p.noise_rows, DIM, BATCH))
        .collect();
    let disturbance = start_disturbance(&noise);
    report_phase("drift onset", 2);

    eprintln!("phase 3: post-drift steady state...");
    let (post_static, post_adaptive) = report_phase("post-drift", 3);
    let iters = disturbance.stop();

    print_table(
        &[
            "phase",
            "static miss",
            "adaptive miss",
            "static p99 ms",
            "adaptive p99 ms",
            "late p99 ms",
        ],
        &rows_out,
    );
    println!();

    let mut controller = handle.stop();
    // Flush the final detector state into the adaptive engine's registry
    // so the drift-gauge line reflects end-of-run conditions.
    controller.observe();
    println!(
        "controller: {} reallocation(s), threshold {} -> {}",
        controller.reallocations(),
        threshold,
        controller.threshold()
    );
    if let Some(plan) = controller.last_plan() {
        println!(
            "last plan: version {}, engine epoch {}",
            plan.version,
            adaptive_engine.epoch()
        );
    }
    for (id, info) in adaptive_engine.tables().iter().enumerate() {
        println!(
            "adaptive table {id} now: {} ({:.0} ns/query)",
            info.technique, info.per_query_ns
        );
    }
    println!(
        "disturbance: {} workers, {} total iterations",
        iters.len(),
        iters.iter().sum::<u64>()
    );
    println!(
        "post-drift SLA miss: static {:.1}% vs adaptive {:.1}%",
        post_static.sla_miss_fraction() * 100.0,
        post_adaptive.sla_miss_fraction() * 100.0,
    );
    println!(
        "drift gauges: {}",
        drift_gauges_json(&adaptive_engine.metrics().snapshot()).to_compact()
    );

    eprintln!("phase 4: churn A/B (oscillating neighbours, damped vs undamped)...");
    churn_ab(&p, rows, threshold);
    eprintln!("phase 5: three-way cell (Circuit-ORAM band applied live)...");
    three_way_cell(rows);
}
