//! The `secemb-router` binary: a cross-host front-end over N backend
//! `secemb-serve-server` processes.
//!
//! ```text
//! secemb-router [--bind ADDR] --backend [NAME=]ADDR...
//!               [--gossip-ms N] [--profile-out FILE] [--run-secs N]
//!               [--backend-idle-ms N] [--conn-idle-ms N]
//!               [--trace-sample N] [--trace-host NAME]
//!               [--health-trip N] [--health-probe-ms N]
//!               [--reconnect-base-ms N]
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
//! Client connections and backend links run on the epoll reactor (one
//! thread for every socket); redials, health probes, gossip rounds and
//! every backend deadline are due dates on one maintenance thread — a
//! scrape through the router answers within 30 s even if a backend never
//! does. A router runs 2 threads whatever its fleet size.
//! `--backend-idle-ms N` declares a backend
//! dead when requests are in flight and no byte arrives for N ms
//! (default: wait forever); `--conn-idle-ms N` reaps *client*
//! connections idle for N ms (default: never).
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
//! redials with jittered exponential backoff, forever: the first dial
//! waits `--reconnect-base-ms` (default 50), and each failed dial doubles
//! the wait up to 40 times the base (2 s at the default). Backends that
//! are down at startup do not abort the router — they join the rotation
//! when their first probe succeeds — but at least one backend must be
//! reachable to learn the table inventory.

use secemb_router::{Router, RouterConfig};
use secemb_serve::TraceSettings;
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: secemb-router [--bind ADDR] --backend [NAME=]ADDR... \
         [--gossip-ms N] [--profile-out FILE] [--run-secs N] \
         [--backend-idle-ms N] [--conn-idle-ms N] \
         [--trace-sample N] [--trace-host NAME] \
         [--health-trip N] [--health-probe-ms N] \
         [--reconnect-base-ms N]"
    );
    std::process::exit(2);
}

/// The router's configuration, and `--run-secs`.
fn parse_args() -> (RouterConfig, Option<Duration>) {
    let mut config = RouterConfig {
        bind: "127.0.0.1:7900".to_string(),
        gossip_interval: Some(Duration::from_millis(500)),
        ..RouterConfig::default()
    };
    let (mut run_secs, mut trace_sample, mut trace_host) = (None, 0, "router".to_string());
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        // Every flag takes a value.
        let value = it.next().unwrap_or_else(|| usage());
        let number = || -> u64 { value.parse().unwrap_or_else(|_| usage()) };
        // A period of 0 ms turns its feature off.
        let period = || Some(Duration::from_millis(number())).filter(|d| !d.is_zero());
        match flag.as_str() {
            "--bind" => config.bind = value,
            "--backend" => {
                let (name, addr) = value.split_once('=').unwrap_or((&value, &value));
                config.backends.push((name.to_string(), addr.to_string()));
            }
            "--gossip-ms" => config.gossip_interval = period(),
            "--profile-out" => config.profile_out = Some(PathBuf::from(value)),
            "--run-secs" => run_secs = Some(Duration::from_secs(number())),
            "--backend-idle-ms" => config.backend_idle_timeout = period(),
            "--conn-idle-ms" => config.conn_idle = period(),
            "--trace-sample" => trace_sample = number(),
            "--trace-host" => trace_host = value,
            "--health-trip" => config.health_trip = value.parse().unwrap_or_else(|_| usage()),
            "--health-probe-ms" => config.health_probe = period(),
            "--reconnect-base-ms" => {
                config.reconnect_base = Duration::from_millis(number().max(1));
            }
            _ => usage(),
        }
    }
    if config.backends.is_empty() {
        usage();
    }
    config.trace = (trace_sample > 0).then(|| TraceSettings::new(&trace_host, trace_sample));
    (config, run_secs)
}

fn main() {
    let (config, run_secs) = parse_args();
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
    match run_secs {
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
