//! The `secemb-router` binary: a cross-host front-end over N backend
//! `secemb-serve-server` processes.
//!
//! ```text
//! secemb-router [--bind ADDR] --backend [NAME=]ADDR...
//!               [--gossip-ms N] [--profile-out FILE] [--run-secs N]
//!               [--backend-idle-ms N] [--conn-idle-ms N]
//!               [--trace-sample N] [--trace-host NAME]
//!               [--health-trip N] [--health-probe-ms N]
//!               [--reconnect-base-ms N] [--reconnect-max-ms N]
//!               [--reconnect-budget N]
//! ```
//!
//! Repeat `--backend` once per backend process (`NAME=HOST:PORT`, or
//! bare `HOST:PORT` which names the backend after its address). The
//! router derives a consistent table → host placement from the
//! backends' shared inventory, serves the unmodified `secemb-wire`
//! protocol to clients, and gossips the highest-versioned adaptive plan
//! across the fleet every `--gossip-ms` (0 disables gossip).
//! `--profile-out FILE` persists the winning plan's crossovers in the
//! `ProfileArtifact` format after each round. `--run-secs N` serves for
//! N seconds then exits 0 — the CI smoke-test mode; without it the
//! router runs until killed.
//!
//! Client connections run on the epoll reactor (one thread for every
//! connection). `--backend-idle-ms N` declares a backend dead when
//! requests are in flight and no byte arrives for N ms (default: wait
//! forever); `--conn-idle-ms N` reaps *client* connections idle for N
//! ms (default: never).
//!
//! `--trace-sample N` collects distributed-tracing spans for every
//! N-th trace id (head-sampled on the public trace id alone; 0, the
//! default, disables collection); `--trace-host NAME` sets the host
//! label spans carry (default `router`). Spans are scraped — and
//! drained — through the wire `Traces` frame, which also scrapes every
//! backend, so one `secemb-tracecat --scrape` against the router sees
//! the whole tier.
//!
//! Resilience knobs: `--health-trip N` trips a backend out of the
//! serving rotation after N consecutive internal failures (default 3);
//! `--health-probe-ms N` sets the probe cadence that recovers a
//! tripped backend (0 disables recovery probing). A dropped TCP link
//! redials with jittered exponential backoff between
//! `--reconnect-base-ms` (default 50) and `--reconnect-max-ms`
//! (default 2000); `--reconnect-budget N` gives up after N consecutive
//! failed dials (default 0 = retry forever). Backends that are down at
//! startup no longer abort the router — they join the rotation when
//! their first probe succeeds — but at least one backend must be
//! reachable to learn the table inventory.

use secemb_router::{ReconnectPolicy, Router, RouterConfig};
use secemb_serve::TraceSettings;
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    bind: String,
    backends: Vec<(String, String)>,
    gossip: Option<Duration>,
    profile_out: Option<PathBuf>,
    run_secs: Option<Duration>,
    backend_idle: Option<Duration>,
    conn_idle: Option<Duration>,
    trace_sample: u64,
    trace_host: String,
    health_trip: u32,
    health_probe: Option<Duration>,
    reconnect: ReconnectPolicy,
}

fn usage() -> ! {
    eprintln!(
        "usage: secemb-router [--bind ADDR] --backend [NAME=]ADDR... \
         [--gossip-ms N] [--profile-out FILE] [--run-secs N] \
         [--backend-idle-ms N] [--conn-idle-ms N] \
         [--trace-sample N] [--trace-host NAME] \
         [--health-trip N] [--health-probe-ms N] \
         [--reconnect-base-ms N] [--reconnect-max-ms N] \
         [--reconnect-budget N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        bind: "127.0.0.1:7900".to_string(),
        backends: Vec::new(),
        gossip: Some(Duration::from_millis(500)),
        profile_out: None,
        run_secs: None,
        backend_idle: None,
        conn_idle: None,
        trace_sample: 0,
        trace_host: "router".to_string(),
        health_trip: 3,
        health_probe: Some(Duration::from_millis(200)),
        reconnect: ReconnectPolicy::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--bind" => args.bind = value(),
            "--backend" => {
                let spec = value();
                let (name, addr) = match spec.split_once('=') {
                    Some((name, addr)) => (name.to_string(), addr.to_string()),
                    None => (spec.clone(), spec),
                };
                args.backends.push((name, addr));
            }
            "--gossip-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.gossip = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--profile-out" => args.profile_out = Some(PathBuf::from(value())),
            "--run-secs" => {
                args.run_secs = Some(Duration::from_secs(
                    value().parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--backend-idle-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.backend_idle = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--conn-idle-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.conn_idle = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--trace-sample" => args.trace_sample = value().parse().unwrap_or_else(|_| usage()),
            "--trace-host" => args.trace_host = value(),
            "--health-trip" => args.health_trip = value().parse().unwrap_or_else(|_| usage()),
            "--health-probe-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.health_probe = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--reconnect-base-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.reconnect.base = Duration::from_millis(ms.max(1));
            }
            "--reconnect-max-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                args.reconnect.max = Duration::from_millis(ms.max(1));
            }
            "--reconnect-budget" => {
                args.reconnect.budget = value().parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    if args.backends.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let config = RouterConfig {
        bind: args.bind,
        backends: args.backends,
        gossip_interval: args.gossip,
        profile_out: args.profile_out,
        backend_idle_timeout: args.backend_idle,
        conn_idle: args.conn_idle,
        trace: (args.trace_sample > 0)
            .then(|| TraceSettings::new(&args.trace_host, args.trace_sample)),
        health_trip: args.health_trip,
        health_probe: args.health_probe,
        reconnect: args.reconnect,
        inject_gossip_spawn_failure: false,
    };
    let router = match Router::start(config) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("secemb-router: {e}");
            std::process::exit(1);
        }
    };
    let placement = router.placement();
    println!(
        "secemb-router listening on {} ({} backends, {} tables)",
        router.addr(),
        placement.hosts().len(),
        placement.tables()
    );
    for (h, host) in placement.hosts().iter().enumerate() {
        let tables: Vec<String> = placement
            .tables_of(h)
            .iter()
            .map(usize::to_string)
            .collect();
        println!("  {host}: tables [{}]", tables.join(", "));
    }
    match args.run_secs {
        Some(secs) => {
            std::thread::sleep(secs);
            router.shutdown();
            println!("secemb-router: run-secs elapsed, exiting");
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}
