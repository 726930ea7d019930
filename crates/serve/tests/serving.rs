//! End-to-end serving-path tests: batching correctness, obliviousness
//! under coalescing, deadline handling,
//! backpressure, connection pipelining, and server lifecycle.

use secemb::security::{verify_exact_batched, verify_structural};
use secemb::{GeneratorSpec, Technique};
use secemb_serve::protocol::ServerMsg;
use secemb_serve::{
    execute_batch, BatchPolicy, Client, Engine, EngineConfig, Registry, RejectReason, Request,
    Response, Server, ServerStats, SpanCollector, Stage, StageBreakdown, TableConfig, TraceCtx,
    TraceSettings,
};
use secemb_tensor::Matrix;
use secemb_trace::check::compare_traces;
use secemb_trace::tracer::record_trace;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The engine's end-to-end answers are bit-identical to calling the same
/// generator (same spec, same seed) directly, with no serving layer.
#[test]
fn engine_matches_direct_generation() {
    let spec = GeneratorSpec::Scan { rows: 257, dim: 16 };
    let engine = Engine::start(EngineConfig::new(vec![TableConfig {
        spec,
        seed: 42,
        queue_capacity: 64,
        cost_override_ns: None,
    }]));
    let mut reference = spec.build(42);

    for indices in [vec![0u64], vec![256, 0, 131], vec![7, 7, 7, 7]] {
        let response = engine.call(Request::new(0, indices.clone()));
        let served = response.embeddings().expect("request accepted");
        let direct = reference.generate_batch(&indices);
        assert_eq!(bits(served), bits(&direct), "indices {indices:?}");
    }
}

/// Coalescing several requests into one generator dispatch returns rows
/// bit-identical to running each request as its own batch, across
/// techniques (Fig. 12's batching must not change results).
#[test]
fn coalesced_batches_are_byte_identical() {
    let specs = [
        GeneratorSpec::Scan { rows: 64, dim: 8 },
        GeneratorSpec::Dhe { rows: 96, dim: 8 },
        GeneratorSpec::Hybrid {
            rows: 80,
            dim: 8,
            threshold: 1_000_000,
        },
    ];
    let groups: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![5], vec![63, 0, 17, 9]];
    for spec in specs {
        let mut coalesced_gen = spec.build(9);
        let mut direct_gen = spec.build(9);

        let coalesced = execute_batch(coalesced_gen.as_mut(), &groups);
        assert_eq!(coalesced.len(), groups.len());
        for (group, served) in groups.iter().zip(&coalesced) {
            let direct = direct_gen.generate_batch(group);
            assert_eq!(bits(served), bits(&direct), "{spec} group {group:?}");
        }
    }
}

/// Coalescing preserves obliviousness: for a scan-backed table, the memory
/// trace of a coalesced dispatch is identical for different secret index
/// sets of the same shape.
#[test]
fn coalescing_preserves_scan_obliviousness() {
    let mut generator = GeneratorSpec::Scan { rows: 128, dim: 8 }.build(3);
    // Same public shape (2 requests of 2 and 1 queries), different secrets.
    let secrets: Vec<Vec<Vec<u64>>> = vec![
        vec![vec![1, 2], vec![5]],
        vec![vec![127, 0], vec![64]],
        vec![vec![9, 9], vec![9]],
    ];
    let verdict = compare_traces(&secrets, |groups| {
        execute_batch(generator.as_mut(), groups);
    });
    assert!(
        verdict.is_oblivious(),
        "coalesced scan trace diverged at secret {:?}",
        verdict.first_divergence()
    );
    assert!(verdict.is_line_oblivious(64));
}

/// And the converse sanity check: a non-oblivious lookup table *does*
/// diverge under the same harness, so the test above has teeth.
#[test]
fn coalescing_detects_lookup_leak() {
    let mut generator = GeneratorSpec::Lookup { rows: 128, dim: 8 }.build(3);
    let secrets: Vec<Vec<Vec<u64>>> = vec![vec![vec![1, 2]], vec![vec![127, 0]]];
    let verdict = compare_traces(&secrets, |groups| {
        execute_batch(generator.as_mut(), groups);
    });
    assert!(!verdict.is_oblivious());
}

/// Requests that go stale while queued behind slow work are answered with
/// an explicit `Rejected(DeadlineExceeded)` — never silently dropped.
#[test]
fn stale_requests_are_rejected_not_dropped() {
    let mut config = EngineConfig::new(vec![TableConfig {
        spec: GeneratorSpec::Scan {
            rows: 1 << 17,
            dim: 64,
        },
        seed: 1,
        queue_capacity: 64,
        // Claim zero cost so admission control lets everything in; the
        // genuinely slow scans then make queued deadlines expire.
        cost_override_ns: Some(0.0),
    }]);
    config.policy = BatchPolicy { max_batch: 4 };
    let engine = Engine::start(config);

    // Three no-deadline requests occupy the worker for several scans...
    let slow: Vec<_> = (0..3)
        .map(|_| engine.submit(Request::new(0, vec![1, 2, 3, 4])))
        .collect();
    // ...so these queued 1 ms deadlines expire before they are dequeued.
    let urgent: Vec<_> = (0..4)
        .map(|_| engine.submit(Request::new(0, vec![9]).with_deadline(Duration::from_millis(1))))
        .collect();

    let mut completed = 0;
    let mut expired = 0;
    for ticket in slow.into_iter().chain(urgent) {
        match ticket.wait() {
            Response::Embeddings(m, _) => {
                assert_eq!(m.cols(), 64);
                completed += 1;
            }
            Response::Rejected(RejectReason::DeadlineExceeded) => expired += 1,
            Response::Rejected(other) => panic!("unexpected rejection {other}"),
        }
    }
    assert_eq!(completed + expired, 7, "every request must be answered");
    assert!(completed >= 3, "no-deadline requests always complete");
    assert!(expired >= 1, "at least one queued deadline must expire");

    let snap = engine.stats().snapshot();
    assert_eq!(snap.completed + snap.total_rejected(), 7);
}

/// A backlog that builds while the worker is busy rides in one coalesced
/// batch — the regime Fig. 12's batch scaling is about. The followers are
/// submitted once the blocker's batch is dispatched, and the blocker's
/// reply callback holds the worker until all eight (32 queries, under the
/// default `max_batch`) are queued; the slow scan makes that backlog
/// milliseconds old, which must not split it up.
#[test]
fn backlog_behind_a_busy_worker_is_coalesced() {
    let spec = GeneratorSpec::Scan {
        rows: 1 << 17,
        dim: 64,
    };
    let engine = Engine::start(EngineConfig::new(vec![TableConfig {
        spec,
        seed: 1,
        queue_capacity: 64,
        cost_override_ns: Some(0.0),
    }]));
    let batches = || engine.stats().snapshot().worker_batches[0].batches;

    let mut groups: Vec<Vec<u64>> = vec![vec![1, 2, 3, 4]];
    groups.extend((0..8u64).map(|i| vec![i, 1000 + i, (1 << 17) - 1 - i, 7]));

    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let (blocker_tx, blocker_rx) = std::sync::mpsc::channel();
    engine.submit_with(
        Request::new(0, groups[0].clone()),
        Box::new(move |response| {
            let _ = gate_rx.recv();
            let _ = blocker_tx.send(response);
        }),
    );
    while batches() == 0 {
        std::thread::yield_now();
    }
    let followers: Vec<_> = groups[1..]
        .iter()
        .map(|g| engine.submit(Request::new(0, g.clone())))
        .collect();
    gate_tx.send(()).expect("worker waits at the gate");

    let mut responses = vec![blocker_rx.recv().expect("blocker answered")];
    responses.extend(followers.into_iter().map(|t| t.wait()));
    let expected = execute_batch(spec.build(1).as_mut(), &groups);
    for ((response, want), indices) in responses.iter().zip(&expected).zip(&groups) {
        let served = response.embeddings().expect("request served");
        assert_eq!(bits(served), bits(want), "indices {indices:?}");
    }

    assert_eq!(batches(), 2, "the blocker, then its whole backlog at once");
    let hist = engine.stats().snapshot().batch_hist;
    let of_size = |upper: usize| hist.iter().find(|b| b.0 == upper).map(|b| b.1);
    assert_eq!((of_size(4), of_size(32)), (Some(1), Some(1)), "{hist:?}");
}

/// A lone request on an idle engine is dispatched at once: no coalescing
/// window in its `batch` stage, none in the admission estimate.
#[test]
fn lone_request_pays_no_window() {
    let engine = Engine::start(EngineConfig::new(vec![TableConfig {
        spec: GeneratorSpec::Scan { rows: 64, dim: 8 },
        seed: 5,
        queue_capacity: 8,
        cost_override_ns: Some(0.0),
    }]));
    let mut batch_ns: Vec<u64> = (0..50)
        .map(|i| {
            let response = engine.call(Request::new(0, vec![i % 64]));
            response.stages().expect("request served").get(Stage::Batch)
        })
        .collect();
    batch_ns.sort_unstable();
    assert!(
        batch_ns[25] < 100_000,
        "median batch stage of a lone request: {} ns",
        batch_ns[25]
    );

    let tight = Request::new(0, vec![3]).with_deadline(Duration::from_micros(300));
    match engine.call(tight) {
        Response::Embeddings(..) | Response::Rejected(RejectReason::DeadlineExceeded) => {}
        Response::Rejected(other) => panic!("idle engine, zero cost, 300 us budget: {other}"),
    }
}

/// Overload pushes back with `Rejected(QueueFull)` instead of queueing
/// without bound; accepted + rejected accounts for every submission.
#[test]
fn overload_rejects_queue_full() {
    let engine = Engine::start(EngineConfig::new(vec![TableConfig {
        spec: GeneratorSpec::Scan {
            rows: 1 << 16,
            dim: 32,
        },
        seed: 1,
        queue_capacity: 2,
        cost_override_ns: Some(0.0),
    }]));

    let tickets: Vec<_> = (0..20)
        .map(|i| engine.submit(Request::new(0, vec![i as u64])))
        .collect();

    let mut completed = 0;
    let mut shed = 0;
    for ticket in tickets {
        match ticket.wait() {
            Response::Embeddings(..) => completed += 1,
            Response::Rejected(RejectReason::QueueFull) => shed += 1,
            Response::Rejected(other) => panic!("unexpected rejection {other}"),
        }
    }
    assert_eq!(completed + shed, 20, "every request must be answered");
    assert!(shed >= 1, "a 2-deep queue cannot absorb a 20-request burst");
    assert!(completed >= 1);
}

/// Full TCP round trip: served embeddings match direct generation, table
/// metadata is faithful, and the stats endpoint returns parseable JSON.
#[test]
fn tcp_round_trip_matches_direct_generation() {
    let spec = GeneratorSpec::Scan { rows: 128, dim: 8 };
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        spec,
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let tables = client.tables().expect("tables");
    assert_eq!(tables.len(), 1);
    assert_eq!((tables[0].rows, tables[0].dim), (128, 8));
    assert!(tables[0].per_query_ns > 0.0);

    let indices = vec![3u64, 7, 9];
    let (served, stages) = match client.generate(0, &indices, None).expect("generate") {
        secemb_serve::protocol::ServerMsg::Embeddings(m, stages) => (m, stages),
        other => panic!("expected embeddings, got {other:?}"),
    };
    let direct = spec.build(42).generate_batch(&indices);
    assert_eq!(bits(&served), bits(&direct));
    // The per-stage attribution rides on the frame and is non-trivial.
    assert!(stages.total_ns() > 0, "stage breakdown must be populated");

    // Out-of-range index over the wire is an explicit rejection.
    match client.generate(0, &[999], None).expect("generate") {
        secemb_serve::protocol::ServerMsg::Rejected(RejectReason::BadRequest) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }

    let stats = client.stats_json().expect("stats");
    let value = secemb_wire::json::parse(&stats).expect("valid stats JSON");
    assert_eq!(value.get("accepted").and_then(|v| v.as_u64()), Some(1));
    assert!(value.get("latency").is_some());
}

/// `Server::shutdown` joins every connection-handler thread: after it
/// returns, no thread still holds an engine handle, in-flight requests
/// were answered or cleanly closed, and old connections fail fast.
#[test]
fn shutdown_joins_open_connection_handlers() {
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        GeneratorSpec::Scan { rows: 128, dim: 8 },
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    // One settled request and one still in flight when shutdown lands.
    let msg = clients[0].generate(0, &[1, 2], None).expect("served");
    assert!(matches!(msg, ServerMsg::Embeddings(..)));
    let pending_id = clients[1].call_async(0, &[3], None).expect("send");

    server.shutdown();

    // Every handler (and the accept thread) has exited and dropped its
    // engine clone — ours is the only handle left. This is the leak
    // assertion: a detached handler would still hold a strong count.
    assert_eq!(
        Arc::strong_count(&engine),
        1,
        "shutdown left connection-handler threads alive"
    );
    // The in-flight request either completed before the close or the
    // close surfaces as a clean error — never a hang.
    if let Ok((id, _)) = clients[1].drain_next() {
        assert_eq!(id, pending_id);
    }
    // The server side is gone; further calls on old connections error.
    assert!(clients[0].generate(0, &[1], None).is_err());
    // Shutting down is idempotent with respect to the engine: it is
    // still usable in-process after the front end is gone.
    assert!(engine.call(Request::new(0, vec![5])).embeddings().is_some());
}

/// One connection pipelines many requests and gets every response back
/// id-matched, regardless of completion order.
#[test]
fn pipelined_client_matches_responses_by_id() {
    let spec = GeneratorSpec::Scan { rows: 128, dim: 8 };
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        spec,
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let k = 16;
    let mut expected: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..k as u64 {
        let indices = vec![i % 128, (i * 13) % 128, (i * 31) % 128];
        let id = client.call_async(0, &indices, None).expect("send");
        assert!(
            expected.insert(id, indices).is_none(),
            "request ids must be unique"
        );
    }
    assert_eq!(client.pending(), k);
    for _ in 0..k {
        let (id, msg) = client.drain_next().expect("drain");
        let indices = expected
            .remove(&id)
            .expect("response id was never sent (or answered twice)");
        match msg {
            ServerMsg::Embeddings(served, _) => {
                let direct = spec.build(42).generate_batch(&indices);
                assert_eq!(bits(&served), bits(&direct), "id {id} content mismatch");
            }
            other => panic!("expected embeddings for id {id}, got {other:?}"),
        }
    }
    assert!(expected.is_empty());
    assert_eq!(client.pending(), 0);
}

/// A shard serves pipelined TCP traffic bit-identically to a direct
/// build of its generator (same spec and seed), and the stats endpoint
/// reports one worker's batch count per table.
#[test]
fn server_serves_identical_rows_and_reports_worker_batches() {
    let spec = GeneratorSpec::Scan { rows: 128, dim: 8 };
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        spec,
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Enough pipelined traffic that the worker coalesces some of it.
    let mut expected: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..32u64 {
        let indices = vec![i % 128, (i * 7) % 128];
        let id = client.call_async(0, &indices, None).expect("send");
        expected.insert(id, indices);
    }
    while client.pending() > 0 {
        let (id, msg) = client.drain_next().expect("drain");
        let indices = expected.remove(&id).expect("id-matched response");
        let served = match msg {
            ServerMsg::Embeddings(m, _) => m,
            other => panic!("expected embeddings, got {other:?}"),
        };
        let direct = spec.build(42).generate_batch(&indices);
        assert_eq!(bits(&served), bits(&direct));
    }

    let stats = client.stats_json().expect("stats");
    let doc = secemb_wire::json::parse(&stats).expect("valid stats JSON");
    assert!(doc.get("replicas").is_none());
    let workers = doc
        .get("worker_batches")
        .and_then(|v| v.as_arr())
        .expect("worker_batches array");
    assert_eq!(workers.len(), 1, "one entry per table");
    let total_batches: u64 = workers
        .iter()
        .map(|w| w.get("batches").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert!(total_batches >= 1, "served batches must be attributed");
}

/// Obliviousness does not depend on what a generator served before: two
/// same-seed builds, one of which has already served other work (as a
/// router's full-replica backends do), each keep their access trace
/// input-independent — exact trace equality for deterministic protected
/// generators, structural equality for the randomized ORAM controllers.
#[test]
fn per_replica_traces_stay_oblivious() {
    const ROWS: u64 = 256;
    // Candidate secret batches of the same public shape.
    let batched_secrets = [vec![0, 1, 5], vec![255, 128, 9], vec![17, 17, 17]];
    for technique in [
        Technique::LinearScan,
        Technique::Dhe,
        Technique::PathOram,
        Technique::CircuitOram,
    ] {
        let spec = GeneratorSpec::with_technique(ROWS, 8, technique);
        // Two same-seed builds. Desynchronize their private state:
        // replica 1 has already served different work before the probe.
        let mut replicas = [spec.build(5), spec.build(5)];
        replicas[1].generate_batch(&[3, 200, 77]);
        for (r, generator) in replicas.iter_mut().enumerate() {
            match technique {
                Technique::LinearScan | Technique::Dhe => {
                    assert!(
                        verify_exact_batched(generator.as_mut(), &batched_secrets).is_oblivious(),
                        "{technique} replica {r} leaked under batching"
                    );
                }
                _ => {
                    assert!(
                        verify_structural(generator.as_mut(), &[0, 1, 128, 255]),
                        "{technique} replica {r} trace structure varies with the secret"
                    );
                }
            }
        }
    }
}

/// A served request's stage breakdown (admit + queue + batch + generate +
/// reply; `write` belongs to the TCP transport and is zero in-process)
/// sums to the client-measured total latency within 5%. The stages
/// telescope by construction, so the gap is only the submit/ticket hop —
/// negligible once generation does real work.
#[test]
fn stage_breakdown_sums_to_measured_latency() {
    let engine = Engine::start(EngineConfig::new(vec![TableConfig {
        spec: GeneratorSpec::Scan {
            rows: 1 << 15,
            dim: 64,
        },
        seed: 3,
        queue_capacity: 64,
        cost_override_ns: Some(1_000.0),
    }]));
    let mut best_gap = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let response = engine.call(Request::new(0, vec![1, 2, 3, 4]));
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let stages = *response.stages().expect("request served");
        let sum_ns = stages.total_ns() as f64;
        assert!(stages.get(Stage::Generate) > 0, "generation took real time");
        assert!(
            sum_ns <= wall_ns,
            "server-side stages cannot exceed the caller's wall clock"
        );
        best_gap = best_gap.min((wall_ns - sum_ns) / wall_ns);
    }
    assert!(
        best_gap < 0.05,
        "stage sum must come within 5% of measured latency (best gap {:.1}%)",
        best_gap * 100.0
    );
}

/// The security invariant of the telemetry layer: recording metrics does
/// not perturb the protected generators' memory traces. For every
/// protected technique, the trace of a dispatch + full telemetry
/// recording with an **enabled** registry is bit-identical to the same
/// dispatch with a **disabled** one (generator builds are deterministic:
/// same spec + seed ⇒ same trace, including the seeded ORAM randomness).
#[test]
fn telemetry_on_vs_off_traces_are_bit_identical() {
    for technique in [
        Technique::LinearScan,
        Technique::PathOram,
        Technique::CircuitOram,
        Technique::Dhe,
    ] {
        let spec = GeneratorSpec::with_technique(96, 8, technique);
        let groups: Vec<Vec<u64>> = vec![vec![1, 2], vec![95]];
        let run = |enabled: bool| {
            let registry = Arc::new(if enabled {
                Registry::new()
            } else {
                Registry::disabled()
            });
            let stats = ServerStats::with_registry(Arc::clone(&registry));
            // Probe gauges are registered once at engine startup, outside
            // any request; mirror that here.
            let stash = registry.gauge_with("oram_stash_occupancy", &[("table", "0")]);
            let mut generator = spec.build(11);
            let ((), trace) = record_trace(|| {
                let outputs = execute_batch(generator.as_mut(), &groups);
                for out in &outputs {
                    let mut stages = StageBreakdown::default();
                    stages.set(Stage::Generate, 1_000);
                    stats.record_completed(technique, out.rows(), 2_000.0, &stages);
                }
                if let Some(occ) = generator.stash_occupancy() {
                    stash.set(occ as f64);
                }
            });
            trace
        };
        let on = run(true);
        let off = run(false);
        assert!(!on.is_empty(), "{technique}: dispatch must touch memory");
        assert_eq!(
            on, off,
            "{technique}: trace diverged when telemetry was toggled"
        );
    }
}

/// The `METRICS` wire frame returns Prometheus text exposition covering
/// the serving counters, stage histograms, and below-serve gauges.
#[test]
fn metrics_frame_scrapes_over_tcp() {
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        GeneratorSpec::Scan { rows: 128, dim: 8 },
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.generate(0, &[1, 2, 3], None).expect("generate");
    let text = client.metrics_text().expect("metrics");
    assert!(text.contains("secemb_requests_completed_total 1"), "{text}");
    assert!(text.contains("# TYPE secemb_request_latency_ns histogram"));
    assert!(text.contains("secemb_stage_ns_count{stage=\"generate\"} 1"));
    assert!(text.contains("secemb_worker_batches_total"));
    assert!(text.contains("secemb_queue_depth 0"));
}

/// An engine started with telemetry off hands out an inert registry but
/// still serves correctly and still attributes stages on every response.
#[test]
fn disabled_telemetry_still_serves_with_stage_breakdowns() {
    let mut config = EngineConfig::new(vec![TableConfig::new(GeneratorSpec::Scan {
        rows: 64,
        dim: 8,
    })]);
    config.telemetry = false;
    let engine = Engine::start(config);
    assert!(!engine.metrics().is_enabled());
    let response = engine.call(Request::new(0, vec![5, 9]));
    assert!(response.embeddings().is_some());
    assert!(response.stages().expect("stages ride along").total_ns() > 0);
    // Nothing was recorded.
    assert_eq!(engine.stats().snapshot().completed, 0);
    assert!(engine.render_metrics().is_empty());
}

/// The load generator's per-request records account for every answered
/// request, carry server-attributed stage breakdowns on completions, and
/// serialize to parseable JSON.
#[test]
fn loadgen_records_every_answered_request() {
    use secemb_serve::loadgen::{run_load, LoadConfig, Schedule};
    let engine = Arc::new(Engine::start(EngineConfig::new(vec![TableConfig::new(
        GeneratorSpec::Scan { rows: 128, dim: 8 },
    )])));
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let report = run_load(&LoadConfig {
        addrs: vec![server.addr()],
        connections: 2,
        idle_connections: 0,
        tables: vec![0],
        batch: 2,
        offered_rps: 400.0,
        schedule: Schedule::Paced,
        duration: Duration::from_millis(300),
        deadline: None,
        seed: 5,
        write_frac: 0.0,
        record_requests: true,
        trace: false,
        timeline_bucket: None,
        tail_window: None,
    })
    .expect("load run");
    assert!(report.completed > 0, "the run must serve something");
    assert_eq!(
        report.records.len() as u64,
        report.completed + report.total_rejected(),
        "one record per answered request"
    );
    for record in &report.records {
        assert_eq!(record.table, 0);
        assert!(record.latency_ns > 0);
        if record.rejected.is_none() {
            let stages = record.stages.expect("completions carry stages");
            assert!(stages.total_ns() > 0);
            assert!(
                stages.total_ns() <= record.latency_ns,
                "server-side stages fit inside the client round trip"
            );
        }
        secemb_wire::json::parse(&record.to_json()).expect("record JSON parses");
    }
}

/// The load generator times each request from when it was due, so a
/// peer that stops reading is charged to every request due during the
/// stall, not only to those already in flight. The peer answers each
/// frame with one row, except that after its 20th lookup it stops
/// reading for 200 ms, once. At 500 req/s a request due `x` ms into the
/// stall waits about `200 - x` ms, so the 75 due in its first 150 ms
/// each wait at least 50 ms.
#[test]
fn loadgen_charges_a_stall_to_every_request_due_inside_it() {
    use secemb_serve::loadgen::{run_load, LoadConfig, Schedule};
    use secemb_serve::protocol::{
        decode_client, encode_response_traced, encode_table_list, ClientMsg,
    };
    use secemb_wire::frame::{read_frame, write_frame};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Two connections: the inventory probe, then the load connection.
    let peer = std::thread::spawn(move || {
        let row = Response::Embeddings(Matrix::zeros(1, 4), StageBreakdown::default());
        let (mut lookups, mut stalled) = (0, false);
        for _ in 0..2 {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            while let Ok(payload) = read_frame(&mut &stream) {
                let (id, msg) = decode_client(&payload).expect("client frame");
                let reply = match msg {
                    ClientMsg::Tables => {
                        encode_table_list(id, &[(64, 4, 1_000.0, "scan".to_string())])
                    }
                    _ => {
                        lookups += 1;
                        encode_response_traced(id, &row, None)
                    }
                };
                if write_frame(&mut &stream, &reply).is_err() {
                    break;
                }
                if lookups == 20 && !stalled {
                    stalled = true;
                    std::thread::sleep(Duration::from_millis(200));
                }
            }
        }
    });
    let report = run_load(&LoadConfig {
        addrs: vec![addr],
        connections: 1,
        idle_connections: 0,
        tables: vec![0],
        batch: 1,
        offered_rps: 500.0,
        schedule: Schedule::Paced,
        duration: Duration::from_millis(600),
        deadline: None,
        seed: 3,
        write_frac: 0.0,
        record_requests: true,
        trace: false,
        timeline_bucket: None,
        tail_window: None,
    })
    .expect("load run");
    peer.join().expect("peer thread");
    assert_eq!(report.completed, 300, "every scheduled request is sent");
    let charged = report
        .records
        .iter()
        .filter(|r| r.latency_ns >= 50_000_000)
        .count();
    assert!(
        charged >= 60,
        "only {charged} requests were charged >= 50 ms for a 200 ms stall"
    );
}

/// Stage spans and the `StageBreakdown` riding the response are two
/// views of the *same* instants: for a traced request, each stage
/// child span's duration equals the corresponding breakdown entry
/// exactly, bit-for-bit — no re-measurement, no drift. This is what
/// makes tracecat's per-stage attribution trustworthy against the
/// metrics the server already reports.
#[test]
fn stage_spans_agree_exactly_with_the_breakdown() {
    let mut config = EngineConfig::new(vec![TableConfig::new(GeneratorSpec::Scan {
        rows: 128,
        dim: 8,
    })]);
    config.tracing = Some(TraceSettings::new("s0", 1));
    let engine = Engine::start(config);

    let response = engine.call(Request::new(0, vec![3, 9, 17]).with_trace(TraceCtx::new(42)));
    let stages = *response.stages().expect("traced request served");
    let spans = engine.spans().drain();

    // Root request span + one child per measured stage + the worker's
    // batch view (the `write` stage belongs to the transport).
    assert_eq!(spans.len(), 7, "root + 5 stage children + worker batch");
    let root = spans
        .iter()
        .find(|s| s.component == "server" && s.name == "request")
        .expect("root span");
    assert_eq!(root.trace_id, 42);
    assert_eq!(root.parent_span, None);
    assert!(root.attrs.contains(&("queries", 3)));

    for stage in Stage::ALL.iter().take(5) {
        let span = spans
            .iter()
            .find(|s| s.component == "server" && s.name == stage.label())
            .unwrap_or_else(|| panic!("missing stage span {}", stage.label()));
        assert_eq!(
            span.end_ns - span.start_ns,
            stages.get(*stage),
            "span duration for `{}` must equal the breakdown entry exactly",
            stage.label()
        );
        assert_eq!(span.parent_span, Some(root.span_id), "stages nest in root");
        assert_eq!(span.trace_id, 42);
    }
    // Stage spans telescope: each starts where the previous ended, so
    // they tile the root span with no gaps (sum == root duration).
    let stage_sum: u64 = spans
        .iter()
        .filter(|s| s.component == "server" && s.name != "request")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    assert_eq!(stage_sum, root.end_ns - root.start_ns);

    let batch = spans
        .iter()
        .find(|s| s.component == "worker" && s.name == "batch")
        .expect("worker batch span");
    assert_eq!(batch.parent_span, Some(root.span_id));
    assert_eq!(batch.end_ns - batch.start_ns, stages.get(Stage::Generate));
    assert!(batch.attrs.contains(&("batch_queries", 3)));

    // An untraced request through the same engine emits nothing.
    engine.call(Request::new(0, vec![1]));
    assert!(engine.spans().drain().is_empty(), "untraced ⇒ no spans");
}

/// The tracing analogue of `telemetry_on_vs_off_traces_are_bit_identical`:
/// recording spans must not perturb the protected generators' memory
/// traces. For every protected technique, a dispatch plus span recording
/// against an **enabled** collector leaves a memory trace bit-identical
/// to the same dispatch against a **disabled** one — span collection is
/// observationally free at the side-channel level.
#[test]
fn span_collection_on_vs_off_traces_are_bit_identical() {
    for technique in [
        Technique::LinearScan,
        Technique::PathOram,
        Technique::CircuitOram,
        Technique::Dhe,
    ] {
        let spec = GeneratorSpec::with_technique(96, 8, technique);
        let groups: Vec<Vec<u64>> = vec![vec![1, 2], vec![95]];
        let run = |enabled: bool| {
            let spans = if enabled {
                SpanCollector::new("h0", 1)
            } else {
                SpanCollector::disabled()
            };
            let mut generator = spec.build(11);
            let ((), trace) = record_trace(|| {
                let outputs = execute_batch(generator.as_mut(), &groups);
                // Mirror the engine's per-request emission: same calls,
                // same record path, enabled and disabled alike.
                for (i, out) in outputs.iter().enumerate() {
                    let trace_id = i as u64;
                    if spans.sampled(trace_id) {
                        let now = Instant::now();
                        let mut span = spans.span_between(
                            TraceCtx::new(trace_id),
                            spans.fresh_span_id(),
                            "server",
                            "request",
                            now,
                            now,
                        );
                        span.attrs.push(("queries", out.rows() as u64));
                        spans.record(span);
                    }
                }
            });
            (trace, spans.emitted())
        };
        let (on, emitted_on) = run(true);
        let (off, emitted_off) = run(false);
        assert_eq!(emitted_on, 2, "{technique}: enabled collector records");
        assert_eq!(emitted_off, 0, "{technique}: disabled collector is inert");
        assert!(!on.is_empty(), "{technique}: dispatch must touch memory");
        assert_eq!(
            on, off,
            "{technique}: trace diverged when span collection was toggled"
        );
    }
}
