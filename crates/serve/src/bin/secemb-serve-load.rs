//! The `secemb-serve-load` binary: a load generator that sweeps offered
//! rates against a running server and reports the Fig. 13-style
//! latency-throughput curve.
//!
//! ```text
//! secemb-serve-load --addr ADDR | --hosts ADDR,ADDR,...
//!                   [--table N]... [--conns N] [--idle-conns N] [--batch N]
//!                   [--secs S] [--deadline-ms D] [--schedule paced|poisson]
//!                   [--write-frac F] [--rate R]... [--out FILE]
//!                   [--scrape-metrics] [--scrape-stats]
//! ```
//!
//! `--deadline-ms 0` sends no deadline. Each `--rate` adds one sweep
//! point (requests/second). Repeating `--table` mixes traffic uniformly
//! over the listed tables; `--schedule poisson` replaces the fixed pacing
//! with exponential inter-arrival gaps at the same mean rate. Each sweep
//! point is one open-loop schedule dealt round-robin over the `--conns`
//! connections, with nothing capping the requests in flight; latency is
//! timed from each request's due time, and the `late p99` column is how
//! far behind its schedule the generator itself sent (two threads run
//! the load whatever `--conns` is: the sender and one reactor).
//! `--write-frac F` sends fraction F of requests as oblivious updates
//! (read-modify-write with gradient-sized random deltas) — a mixed
//! training/inference schedule over the wire, meaningful against
//! look-ahead ORAM tables;
//! `--idle-conns N` additionally holds N open-but-silent connections for
//! the whole sweep — the mostly-idle fleet the server's reactor holds
//! at O(1) threads. `--hosts` lists
//! several interchangeable front-ends (servers, or `secemb-router`
//! instances); connections round-robin over the list and the inventory
//! probe (plus any post-sweep scrape) uses the first entry. `--out FILE`
//! appends one JSON line per answered request (latency, per-stage
//! breakdown, table, SLA verdict, reject reason); `--scrape-metrics`
//! fetches the Prometheus `METRICS` frame after the sweep and prints it;
//! `--scrape-stats` does the same with the `STATS` snapshot (through a
//! router, the merged fleet view). `--trace` stamps every request with
//! a sequential public trace id so sampled servers emit spans for the
//! run (pair with a server-side `--trace-sample`).
//!
//! `--timeline-secs S` buckets outcomes into S-second windows from run
//! start and prints one grep-able `timeline t=K ok=… rejected=…
//! internal=…` line per bucket — the view that makes a mid-run backend
//! kill legible as a bounded dip. `--tail-secs S` separately tallies
//! the final S seconds and prints `tail ok=… rejected=… internal=…`,
//! the recovery assertion a failover smoke test greps for.

use secemb_serve::loadgen::{run_load, LoadConfig, Schedule};
use secemb_serve::Client;
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    addrs: Vec<SocketAddr>,
    tables: Vec<usize>,
    conns: usize,
    idle_conns: usize,
    batch: usize,
    secs: f64,
    deadline: Option<Duration>,
    schedule: Schedule,
    write_frac: f64,
    rates: Vec<f64>,
    out: Option<PathBuf>,
    scrape_metrics: bool,
    scrape_stats: bool,
    trace: bool,
    timeline: Option<Duration>,
    tail: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: secemb-serve-load --addr ADDR | --hosts ADDR,ADDR,... [--table N]... \
         [--conns N] [--idle-conns N] [--batch N] [--secs S] [--deadline-ms D] \
         [--schedule paced|poisson] [--write-frac F] \
         [--rate R]... [--out FILE] [--scrape-metrics] [--scrape-stats] [--trace] \
         [--timeline-secs S] [--tail-secs S]"
    );
    std::process::exit(2);
}

fn resolve(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| usage())
}

fn parse_args() -> Args {
    let mut args = Args {
        addrs: Vec::new(),
        tables: Vec::new(),
        conns: 8,
        idle_conns: 0,
        batch: 4,
        secs: 2.0,
        deadline: Some(Duration::from_millis(20)),
        schedule: Schedule::Paced,
        write_frac: 0.0,
        rates: Vec::new(),
        out: None,
        scrape_metrics: false,
        scrape_stats: false,
        trace: false,
        timeline: None,
        tail: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => args.addrs.push(resolve(&value())),
            "--hosts" => {
                for host in value().split(',').filter(|h| !h.is_empty()) {
                    args.addrs.push(resolve(host));
                }
            }
            "--table" => args
                .tables
                .push(value().parse().unwrap_or_else(|_| usage())),
            "--conns" => args.conns = value().parse().unwrap_or_else(|_| usage()),
            "--idle-conns" => args.idle_conns = value().parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value().parse().unwrap_or_else(|_| usage()),
            "--secs" => args.secs = value().parse().unwrap_or_else(|_| usage()),
            "--deadline-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--schedule" => args.schedule = value().parse().unwrap_or_else(|_| usage()),
            "--write-frac" => {
                args.write_frac = value().parse().unwrap_or_else(|_| usage());
                if !(0.0..=1.0).contains(&args.write_frac) {
                    usage();
                }
            }
            "--rate" => args.rates.push(value().parse().unwrap_or_else(|_| usage())),
            "--out" => args.out = Some(PathBuf::from(value())),
            "--scrape-metrics" => args.scrape_metrics = true,
            "--scrape-stats" => args.scrape_stats = true,
            "--trace" => args.trace = true,
            "--timeline-secs" => {
                let secs: f64 = value().parse().unwrap_or_else(|_| usage());
                args.timeline = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
            }
            "--tail-secs" => {
                let secs: f64 = value().parse().unwrap_or_else(|_| usage());
                args.tail = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
            }
            _ => usage(),
        }
    }
    if args.addrs.is_empty() {
        usage();
    }
    if args.tables.is_empty() {
        args.tables = vec![0];
    }
    if args.rates.is_empty() {
        args.rates = vec![250.0, 500.0, 1000.0, 2000.0, 4000.0];
    }
    args
}

fn main() {
    let args = parse_args();
    let mut out = args.out.as_ref().map(|path| {
        std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("create {}: {e}", path.display());
            std::process::exit(1);
        })
    });

    let probe = args.addrs[0];
    let tables = match Client::connect(probe).and_then(|mut c| c.tables()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("connect {probe}: {e}");
            std::process::exit(1);
        }
    };
    println!("server {probe} serves {} table(s):", tables.len());
    if args.addrs.len() > 1 {
        let list: Vec<String> = args.addrs.iter().map(SocketAddr::to_string).collect();
        println!(
            "hosts ({} round-robin): {}",
            args.addrs.len(),
            list.join(", ")
        );
    }
    for (id, t) in tables.iter().enumerate() {
        println!(
            "  table {id}: {} rows x {} dim, {} ({:.0} ns/query)",
            t.rows, t.dim, t.technique, t.per_query_ns
        );
    }
    let table_list: Vec<String> = args.tables.iter().map(usize::to_string).collect();
    println!(
        "sweep: table(s) {}, {} schedule, {} conns, batch {}, {}s/point, deadline {}",
        table_list.join(","),
        args.schedule.label(),
        args.conns,
        args.batch,
        args.secs,
        args.deadline
            .map_or("none".to_string(), |d| format!("{}ms", d.as_millis())),
    );
    println!(
        "{:>10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>12}",
        "offered/s", "achieved/s", "p50 ms", "p95 ms", "p99 ms", "rej %", "miss %", "late p99 ms"
    );
    for &rate in &args.rates {
        let report = run_load(&LoadConfig {
            addrs: args.addrs.clone(),
            connections: args.conns,
            idle_connections: args.idle_conns,
            tables: args.tables.clone(),
            batch: args.batch,
            offered_rps: rate,
            schedule: args.schedule,
            duration: Duration::from_secs_f64(args.secs),
            deadline: args.deadline,
            write_frac: args.write_frac,
            seed: 1,
            record_requests: out.is_some(),
            trace: args.trace,
            timeline_bucket: args.timeline,
            tail_window: args.tail,
        });
        match report {
            Ok(r) => {
                println!(
                    "{:>10.0} {:>10.0} {:>9.2} {:>9.2} {:>9.2} {:>7.1}% {:>7.1}% {:>12.3}",
                    r.offered_rps,
                    r.achieved_rps,
                    r.latency.p50_ns / 1e6,
                    r.latency.p95_ns / 1e6,
                    r.latency.p99_ns / 1e6,
                    r.rejected_fraction() * 100.0,
                    r.sla_miss_fraction() * 100.0,
                    r.late.p99_ns / 1e6
                );
                for (t, bucket) in r.timeline.iter().enumerate() {
                    println!("timeline t={t} {}", bucket.render());
                }
                if let Some(tail) = &r.tail {
                    println!("tail {}", tail.render());
                }
                if let Some(file) = out.as_mut() {
                    for record in &r.records {
                        // Stamp each record with its sweep point so one
                        // file covers the whole sweep.
                        let line = record.to_json();
                        let line = format!(
                            "{{\"offered_rps\":{rate},{}",
                            line.strip_prefix('{').expect("record json object")
                        );
                        if writeln!(file, "{line}").is_err() {
                            eprintln!("write records: short write");
                            std::process::exit(1);
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("rate {rate}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.out {
        eprintln!("per-request records -> {}", path.display());
    }
    if args.scrape_metrics {
        match Client::connect(probe).and_then(|mut c| c.metrics_text()) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("scrape metrics: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.scrape_stats {
        match Client::connect(probe).and_then(|mut c| c.stats_json()) {
            Ok(json) => println!("STATS {json}"),
            Err(e) => {
                eprintln!("scrape stats: {e}");
                std::process::exit(1);
            }
        }
    }
}
