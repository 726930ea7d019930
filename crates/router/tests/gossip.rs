//! Versioned plan gossip across replicas: a crossover applied on one
//! backend reaches every peer, each application one epoch-tagged atomic
//! swap, and repeated rounds converge to a fixed point.

use secemb::hybrid::{AllocationPlan, PlannedTable};
use secemb::{GeneratorSpec, Technique};
use secemb_adapt::ProfileArtifact;
use secemb_router::{Router, RouterConfig};
use secemb_serve::{Client, Engine, EngineConfig, Server, TableConfig};
use secemb_wire::json::{self, Value};
use std::sync::Arc;

const ROWS: [u64; 2] = [64, 96];
const DIM: usize = 8;

fn start_backend() -> (Arc<Engine>, Server) {
    let engine = Arc::new(Engine::start(EngineConfig::new(
        ROWS.iter()
            .map(|&rows| TableConfig::new(GeneratorSpec::Scan { rows, dim: DIM }))
            .collect(),
    )));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
    (engine, server)
}

fn start_router(backends: &[&Server], profile_out: Option<std::path::PathBuf>) -> Router {
    Router::start(RouterConfig {
        bind: "127.0.0.1:0".to_string(),
        backends: backends
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("b{i}"), s.addr().to_string()))
            .collect(),
        gossip_interval: None,
        profile_out,
        ..RouterConfig::default()
    })
    .expect("router start")
}

/// An all-DHE plan for the two-table fleet, stamped with `version`.
fn dhe_plan(version: u64) -> AllocationPlan {
    AllocationPlan {
        version,
        dim: DIM,
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
    }
}

fn plan_version(engine: &Engine) -> u64 {
    engine.plan_version()
}

/// A plan applied on one backend reaches its replica through gossip:
/// the round identifies the highest version, pushes exactly to the
/// stale peer, and a second round is a no-op fixed point.
#[test]
fn gossip_spreads_the_newest_plan_and_converges() {
    let (e0, s0) = start_backend();
    let (e1, s1) = start_backend();
    let artifact =
        std::env::temp_dir().join(format!("secemb-router-gossip-{}.json", std::process::id()));
    let router = start_router(&[&s0, &s1], Some(artifact.clone()));

    // Nothing adapted yet: gossip has nothing to spread.
    let report = router.gossip_now().expect("round 0");
    assert_eq!(report.winner_version, 0);
    assert!(report.pushed.is_empty());

    // One backend adapts (here: an operator push stands in for its
    // controller firing a crossover). The fleet is now split.
    let mut operator = Client::connect(s0.addr()).expect("connect b0");
    let epoch = operator
        .push_plan(&dhe_plan(3).to_json())
        .expect("push to b0");
    assert_eq!(epoch, 1);
    assert_eq!(plan_version(&e0), 3);
    assert_eq!(plan_version(&e1), 0);

    // One round heals the split: exactly the stale replica is pushed,
    // and its application is a single epoch-tagged swap.
    let report = router.gossip_now().expect("round 1");
    assert_eq!(report.winner_version, 3);
    assert_eq!(report.pushed, vec!["b1".to_string()]);
    assert_eq!(report.acked, vec![("b1".to_string(), 1)]);
    assert!(report.converged());
    assert_eq!(plan_version(&e0), 3);
    assert_eq!(plan_version(&e1), 3);
    assert_eq!(e0.epoch(), 1, "winner was not re-pushed");
    assert_eq!(e1.epoch(), 1, "one swap, not several");

    // Convergence is a fixed point: the next round pushes nothing.
    let report = router.gossip_now().expect("round 2");
    assert_eq!(report.winner_version, 3);
    assert!(report.pushed.is_empty());
    assert_eq!(e0.epoch(), 1);
    assert_eq!(e1.epoch(), 1);

    // The winner's crossovers were persisted for restart resume.
    let persisted = ProfileArtifact::load(&artifact).expect("artifact");
    assert_eq!(persisted.plan_version, 3);
    assert_eq!(persisted.crossovers.scan_to, 1);
    let _ = std::fs::remove_file(&artifact);
}

/// Plan traffic through the router covers the fleet: `PlanPull` answers
/// with the newest plan any backend holds, and `PlanPush` fans out to
/// every backend, acking with the highest epoch reached.
#[test]
fn plan_frames_through_the_router_cover_every_backend() {
    let (e0, s0) = start_backend();
    let (e1, s1) = start_backend();
    let router = start_router(&[&s0, &s1], None);
    let mut client = Client::connect(router.addr()).expect("connect router");

    assert_eq!(client.plan_json().expect("pull"), None);

    // Split the fleet, then pull through the router: the newest
    // version wins even though one backend is behind.
    Client::connect(s1.addr())
        .expect("connect b1")
        .push_plan(&dhe_plan(5).to_json())
        .expect("push to b1");
    let pulled = client.plan_json().expect("pull").expect("some plan");
    assert_eq!(
        AllocationPlan::from_json(&pulled).expect("parse").version,
        5
    );

    // Push through the router: both backends swap, whatever they held.
    let epoch = client.push_plan(&dhe_plan(6).to_json()).expect("fan out");
    assert_eq!(plan_version(&e0), 6);
    assert_eq!(plan_version(&e1), 6);
    assert_eq!(epoch, 2, "ack carries the highest epoch reached (b1's)");
    assert_eq!(e0.epoch(), 1);
    assert_eq!(e1.epoch(), 2);

    // The merged stats snapshot shows fleet-wide convergence at a
    // glance.
    let stats = client.stats_json().expect("stats");
    let doc = json::parse(&stats).expect("parse stats");
    let versions: Vec<u64> = doc
        .get("plan_versions")
        .and_then(Value::as_arr)
        .expect("plan_versions")
        .iter()
        .map(|v| v.as_u64().expect("integer version"))
        .collect();
    assert_eq!(versions, vec![6, 6]);

    // A plan the engines must refuse (wrong table count) is refused by
    // every backend and surfaces as an error, leaving plans untouched.
    let mut bad = dhe_plan(7);
    bad.tables.pop();
    assert!(client.push_plan(&bad.to_json()).is_err());
    assert_eq!(plan_version(&e0), 6);
    assert_eq!(plan_version(&e1), 6);
}

/// Requests racing a gossiped swap never observe a mixed plan: every
/// response comes from exactly one epoch's generators, and the swap
/// itself is atomic across the backend's tables.
#[test]
fn requests_racing_gossip_see_no_mixed_plan() {
    let (e0, s0) = start_backend();
    let (e1, s1) = start_backend();
    let router = start_router(&[&s0, &s1], None);

    // Drive lookups through the router from a background thread while
    // plans churn through gossip rounds. The first push waits for the
    // driver's first reply, so the swaps always race a live driver.
    let addr = router.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (first_reply, driver_running) = std::sync::mpsc::channel();
    let driver = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("driver connect");
            let mut served = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for table in 0..ROWS.len() {
                    client
                        .generate(table, &[1, 2, 3], None)
                        .expect("driver generate");
                    served += 1;
                    if served == 1 {
                        first_reply.send(()).expect("the test waits for it");
                    }
                }
            }
            served
        })
    };
    driver_running
        .recv()
        .expect("the driver stopped before its first reply");

    let mut operator = Client::connect(s0.addr()).expect("connect b0");
    for version in 1..=4u64 {
        operator
            .push_plan(&dhe_plan(version).to_json())
            .expect("push");
        let report = router.gossip_now().expect("gossip");
        assert_eq!(report.winner_version, version);
        assert!(report.converged(), "errors: {:?}", report.errors);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served = driver.join().expect("driver");
    assert!(served > 0, "the driver must have raced the swaps");

    // Each backend applied each plan exactly once — four atomic swaps,
    // no torn application under load.
    assert_eq!(e0.epoch(), 4);
    assert_eq!(e1.epoch(), 4);
    assert_eq!(plan_version(&e0), 4);
    assert_eq!(plan_version(&e1), 4);
}
