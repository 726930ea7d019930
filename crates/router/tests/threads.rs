//! A router runs two threads whatever its fleet size: the reactor, which
//! carries every client connection and every backend link, and the
//! maintenance loop. This binary holds a single test, so no sibling
//! test's threads skew the count.

#![cfg(target_os = "linux")]

use secemb::GeneratorSpec;
use secemb_router::{Router, RouterConfig};
use secemb_serve::{Engine, EngineConfig, Server, TableConfig};
use std::sync::Arc;
use std::time::Duration;

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn a_router_over_four_backends_runs_two_threads() {
    let backends: Vec<(Arc<Engine>, Server)> = (0..4)
        .map(|_| {
            let spec = GeneratorSpec::Scan { rows: 64, dim: 8 };
            let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
                spec,
            )])));
            let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind backend");
            (engine, server)
        })
        .collect();
    let before = threads();
    let router = Router::start(RouterConfig {
        backends: backends
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (format!("b{i}"), s.addr().to_string()))
            .collect(),
        gossip_interval: Some(Duration::from_millis(200)),
        health_probe: Some(Duration::from_millis(200)),
        ..RouterConfig::default()
    })
    .expect("router start");
    assert_eq!(
        threads() - before,
        2,
        "the reactor and the maintenance loop, and no thread per backend"
    );
    router.shutdown();
}
