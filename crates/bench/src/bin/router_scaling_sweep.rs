//! Router scaling sweep: the same mixed-table load against 1, 2, and 4
//! backend serving processes behind one `secemb-router`.
//!
//! Each fleet size starts N in-process backends (full replicas of a
//! four-table scan/DHE mix), a router deriving the table → host
//! placement over them, and an open-loop load generator aimed at the
//! router. The report compares achieved throughput and latency tails as
//! the placement spreads tables over more hosts, plus the router's own
//! per-hop overhead (`router_route_ns`) so the proxy cost is visible
//! next to the end-to-end numbers.
//!
//! On a single machine the backends share cores, so this measures the
//! router's fan-out/merge overhead and placement behavior — not true
//! horizontal scaling; EXPERIMENTS.md records it as such.
//!
//! `--tiny` shrinks tables, rates and durations to a seconds-long smoke
//! run for CI; the numbers it prints are not meaningful measurements.

use secemb::GeneratorSpec;
use secemb_bench::{print_table, SCALE_NOTE};
use secemb_router::{Router, RouterConfig};
use secemb_serve::loadgen::{run_load, LoadConfig, Schedule};
use secemb_serve::{Engine, EngineConfig, Server, TableConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    println!("Router scaling: mixed-table load vs fleet size, one router front-end");
    println!("{SCALE_NOTE}\n");

    let (scan_rows, dhe_rows): (u64, u64) = if tiny { (256, 512) } else { (4_096, 1 << 17) };
    let rate = if tiny { 200.0 } else { 1_500.0 };
    let secs = if tiny { 0.3 } else { 2.0 };
    let specs = [
        GeneratorSpec::Scan {
            rows: scan_rows,
            dim: 16,
        },
        GeneratorSpec::Dhe {
            rows: dhe_rows,
            dim: 16,
        },
        GeneratorSpec::Scan {
            rows: scan_rows,
            dim: 16,
        },
        GeneratorSpec::Dhe {
            rows: dhe_rows,
            dim: 16,
        },
    ];

    let mut rows_out = Vec::new();
    for fleet in [1usize, 2, 4] {
        let backends: Vec<(Arc<Engine>, Server)> = (0..fleet)
            .map(|_| {
                let engine = Arc::new(Engine::start(EngineConfig::new(
                    specs.iter().copied().map(TableConfig::new).collect(),
                )));
                let server =
                    Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
                (engine, server)
            })
            .collect();
        let router = Router::start(RouterConfig {
            bind: "127.0.0.1:0".to_string(),
            backends: backends
                .iter()
                .enumerate()
                .map(|(i, (_, s))| (format!("b{i}"), s.addr().to_string()))
                .collect(),
            gossip_interval: Some(Duration::from_millis(200)),
            ..RouterConfig::default()
        })
        .expect("router start");
        let spread: Vec<String> = (0..fleet)
            .map(|h| router.placement().tables_of(h).len().to_string())
            .collect();

        let report = run_load(&LoadConfig {
            addrs: vec![router.addr()],
            connections: 4,
            idle_connections: 0,
            tables: (0..specs.len()).collect(),
            batch: 4,
            offered_rps: rate,
            schedule: Schedule::Poisson,
            duration: Duration::from_secs_f64(secs),
            deadline: Some(Duration::from_millis(20)),
            seed: 1,
            write_frac: 0.0,
            record_requests: false,
            trace: false,
            timeline_bucket: None,
            tail_window: None,
        })
        .expect("load run");

        // The router's own hop cost, from its registry.
        let snapshot = router.registry().snapshot();
        let route_p50_us = match snapshot.get("router_route_ns", &[]) {
            Some(secemb_telemetry::MetricValue::Histogram(h)) => h.quantile(0.50) as f64 / 1e3,
            _ => 0.0,
        };

        rows_out.push(vec![
            format!("{fleet}"),
            format!("{}", spread.join("/")),
            format!("{:.0}", report.offered_rps),
            format!("{:.0}", report.achieved_rps),
            format!("{:.2}", report.latency.p50_ns / 1e6),
            format!("{:.2}", report.latency.p99_ns / 1e6),
            format!("{:.1}%", report.rejected_fraction() * 100.0),
            format!("{route_p50_us:.0}"),
        ]);
        router.shutdown();
    }
    print_table(
        &[
            "backends",
            "tables/host",
            "offered/s",
            "achieved/s",
            "p50 ms",
            "p99 ms",
            "rejected",
            "route p50 us",
        ],
        &rows_out,
    );
}
