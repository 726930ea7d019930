//! Fig. 13 (serving-system view): latency-throughput sweep against the
//! `secemb-serve` TCP server with a 20 ms SLA.
//!
//! Where `fig13_latency_throughput` measures raw co-located generator
//! loops, this binary drives the full serving path — TCP framing,
//! coalescing, admission control — with an open-loop load generator, and
//! reports the p50/p95/p99 latency and rejection rate at each offered
//! rate. The backend is the paper's hybrid: a small scan-served table and
//! a large DHE-served table behind one threshold.
//!
//! Each table runs one shard worker. The load is one open-loop schedule
//! per point, timed from each request's due time; the `late p99` column is how far behind
//! that schedule the generator itself sent.
//!
//! `--tiny` shrinks tables, rates and durations to a seconds-long smoke
//! run for CI; the numbers it prints are not meaningful measurements.
//! `--idle-conns N` parks N silent connections on the server for the
//! whole sweep — the connections-vs-p99 experiment in EXPERIMENTS.md.
//!
//! Telemetry: `--telemetry-out FILE` appends a JSONL registry snapshot
//! after every sweep point; `--no-telemetry` disables the registry for
//! A/B overhead runs (EXPERIMENTS.md records the delta). A passive
//! drift monitor observes the engine's service samples between points —
//! never reallocating — and the final `drift gauges:` line emits its
//! detector state as one JSON object.

use secemb::GeneratorSpec;
use secemb_adapt::{AdaptConfig, AdaptiveController};
use secemb_bench::{drift_gauges_json, print_table, SCALE_NOTE};
use secemb_serve::loadgen::{run_load, LoadConfig, Schedule};
use secemb_serve::{Engine, EngineConfig, Server, TableConfig};
use secemb_telemetry::JsonlExporter;
use std::sync::Arc;
use std::time::Duration;

fn flag_value(name: &str) -> Option<String> {
    let mut it = std::env::args();
    while let Some(arg) = it.next() {
        if arg == name {
            return it.next();
        }
    }
    None
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let telemetry = !std::env::args().any(|a| a == "--no-telemetry");
    let telemetry_out = flag_value("--telemetry-out");
    let idle_conns: usize =
        flag_value("--idle-conns").map_or(0, |v| v.parse().expect("--idle-conns N"));
    println!("Fig. 13 (serving): latency-throughput sweep, hybrid backend, 20 ms SLA");
    println!("idle connections: {idle_conns}");
    if !telemetry {
        println!("telemetry: disabled (overhead A/B run)");
    }
    println!("{SCALE_NOTE}\n");

    let threshold = 100_000;
    let (small_rows, large_rows): (u64, u64) = if tiny { (256, 512) } else { (4_096, 1 << 20) };
    let rates: &[f64] = if tiny {
        &[100.0]
    } else {
        &[250.0, 500.0, 1000.0, 2000.0, 4000.0]
    };
    let secs = if tiny { 0.3 } else { 2.0 };
    let specs = [
        GeneratorSpec::Hybrid {
            rows: small_rows,
            dim: 64,
            threshold,
        },
        GeneratorSpec::Hybrid {
            rows: large_rows,
            dim: 64,
            threshold,
        },
    ];
    let mut config = EngineConfig::new(
        specs
            .iter()
            .map(|&spec| TableConfig {
                spec,
                seed: 42,
                queue_capacity: 1024,
                cost_override_ns: None,
            })
            .collect(),
    );
    config.telemetry = telemetry;

    eprintln!("building tables...");
    let engine = Arc::new(Engine::start(config));
    for (id, info) in engine.tables().iter().enumerate() {
        println!(
            "table {id}: {} rows x {} dim, {} ({:.0} ns/query, {} cost)",
            info.rows,
            info.dim,
            info.technique,
            info.per_query_ns,
            info.cost.label()
        );
    }
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();
    let _exporter = telemetry_out.as_ref().map(|path| {
        let interval = Duration::from_millis(if tiny { 100 } else { 500 });
        match JsonlExporter::start(engine.metrics(), std::path::Path::new(path), interval) {
            Ok(exporter) => {
                eprintln!("telemetry -> {path} every {interval:?}");
                exporter
            }
            Err(e) => {
                eprintln!("telemetry out {path}: {e}");
                std::process::exit(1);
            }
        }
    });
    // A passive drift monitor: observes the engine's live service-cost
    // samples after each sweep point (publishing adapt_* gauges) but
    // never triggers a reallocation — step() is never called.
    let mut monitor = AdaptiveController::new(Arc::clone(&engine), threshold, AdaptConfig::new(64));
    println!();

    for (label, table) in [("table 0 (small)", 0), ("table 1 (large)", 1)] {
        println!("--- {label} ---");
        let mut rows_out = Vec::new();
        for &rate in rates {
            let report = run_load(&LoadConfig {
                addrs: vec![addr],
                connections: 8,
                idle_connections: idle_conns,
                tables: vec![table],
                batch: 4,
                offered_rps: rate,
                schedule: Schedule::Paced,
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
            monitor.observe();
            rows_out.push(vec![
                format!("{rate:.0}"),
                format!("{:.0}", report.achieved_rps),
                format!("{:.2}", report.latency.p50_ns / 1e6),
                format!("{:.2}", report.latency.p95_ns / 1e6),
                format!("{:.2}", report.latency.p99_ns / 1e6),
                format!("{:.1}%", report.rejected_fraction() * 100.0),
                format!("{:.3}", report.late.p99_ns / 1e6),
            ]);
        }
        print_table(
            &[
                "offered/s",
                "achieved/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "rejected",
                "late p99 ms",
            ],
            &rows_out,
        );
        println!();
    }

    // Mixed-table Poisson traffic: both shards at once, bursty arrivals.
    println!("--- mixed tables, poisson arrivals ---");
    let mut rows_out = Vec::new();
    for &rate in rates {
        let report = run_load(&LoadConfig {
            addrs: vec![addr],
            connections: 8,
            idle_connections: idle_conns,
            tables: vec![0, 1],
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
        monitor.observe();
        rows_out.push(vec![
            format!("{rate:.0}"),
            format!("{:.0}", report.achieved_rps),
            format!("{:.2}", report.latency.p99_ns / 1e6),
            format!("{:.1}%", report.rejected_fraction() * 100.0),
            format!("{:.1}%", report.sla_miss_fraction() * 100.0),
            format!("{:.3}", report.late.p99_ns / 1e6),
        ]);
    }
    print_table(
        &[
            "offered/s",
            "achieved/s",
            "p99 ms",
            "rejected",
            "sla miss",
            "late p99 ms",
        ],
        &rows_out,
    );
    println!();

    let snap = engine.stats().snapshot();
    println!("server stats after sweep:\n{snap}");
    println!(
        "drift gauges: {}",
        drift_gauges_json(&engine.metrics().snapshot()).to_compact()
    );
}
