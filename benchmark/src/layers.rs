//! The traced run: the same seeded request stream replayed at each layer
//! boundary from this process, innermost first, every call wrapped in a
//! benchmark-side span — the source of every per-layer metric.
//!
//! | boundary | what is called | parent |
//! |---|---|---|
//! | `kernel` | `scan_copy_row` / the DHE decoder's matmul chain | structure |
//! | `structure` | `CircuitOram::read` / `LookAheadOram::process_window` | generator |
//! | `generator` | `generate_batch` / `generate_window` on `GeneratorSpec::build` | engine |
//! | `engine` | in-process `Engine::submit_with`, on the arrival schedule | server |
//! | `wire` | `protocol::encode_*`/`decode_*` + `FrameDecoder` on the request's real frames | server |
//! | `server` | loopback TCP straight to one backend process | router |
//! | `router` | loopback TCP through the router (routed workloads) | — |
//!
//! Boundaries a workload does not have (no structure under a scan, no
//! router in front of a lone server) are skipped. A layer's self time is
//! its boundary's span minus the next-inner boundary's span for the same
//! request — for a multi-part request, the slowest part — and
//! `server − engine − wire` is what the connection layer costs. The sum
//! of self times, with the connection layer entered at its independently
//! measured idle round trip (`conn.rtt_floor_us`), is reconciled against
//! the client's median latency; the remainder is reported as
//! `trace.unaccounted_share`, not hidden.
//!
//! The spans never enter the program under test: its flags stay the
//! defaults, so server-side span collection is off. "Traced" on the TCP
//! passes means each frame carries a trace id and the client records a
//! span per reply; the untraced pass before it gives the overhead and
//! the `client.*` numbers, and a short closed-loop pass ends the run.

use crate::driver::{wait_until, Conn, Outcome, Pace, PhaseLog};
use crate::fleet::Bins;
use crate::measure::{open_stats, phase_failures, sat_rps, timed_setup, Plan};
use crate::micro::{self, Inner};
use crate::oracle::{sampled, Oracle};
use crate::report::{mean, median, Metrics, Run, RunResult};
use crate::workloads::{poisson_schedule, Req, Workload, DEADLINE, SAT_WINDOW, SERVER_SEED};
use secemb_serve::protocol::{
    decode_client_traced, decode_server, encode_metrics_request, encode_response_traced,
    encode_stats_request, encode_tables_request, ServerMsg,
};
use secemb_serve::{
    Engine, EngineConfig, Request, Response, Stage, StageBreakdown, TableConfig, TraceCtx,
};
use secemb_tensor::Matrix;
use secemb_wire::frame::{encode_frame_into, FrameDecoder};
use secemb_wire::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Share of `--seconds` each scheduled pass (inner, engine, direct,
/// untraced, traced) replays the stream for.
const PASS_SHARE: f64 = 0.16;
/// Share of `--seconds` of the closing saturation phase.
const SAT_SHARE: f64 = 0.08;
/// Share of `--seconds` each pinned microbenchmark may take.
const MICRO_SHARE: f64 = 0.012;
/// `Tables` round trips timed for the connection floor.
const RTT_PROBES: usize = 300;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Boundary {
    Kernel,
    Structure,
    Generator,
    Engine,
    Wire,
    Server,
    Router,
}

impl Boundary {
    fn name(self) -> &'static str {
        match self {
            Boundary::Kernel => "kernel",
            Boundary::Structure => "structure",
            Boundary::Generator => "generator",
            Boundary::Engine => "engine",
            Boundary::Wire => "wire",
            Boundary::Server => "server",
            Boundary::Router => "router",
        }
    }

    /// The boundary whose span caused this one.
    fn parent(self) -> Option<Boundary> {
        match self {
            Boundary::Kernel => Some(Boundary::Structure),
            Boundary::Structure => Some(Boundary::Generator),
            Boundary::Generator => Some(Boundary::Engine),
            Boundary::Engine | Boundary::Wire => Some(Boundary::Server),
            Boundary::Server => Some(Boundary::Router),
            Boundary::Router => None,
        }
    }
}

struct Span {
    boundary: Boundary,
    req: u64,
    part: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Spans held in memory until the run ends.
struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn record(&mut self, boundary: Boundary, req: u64, part: usize, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.list.push(Span {
            boundary,
            req,
            part,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Microseconds per request at `boundary`: the slowest part's span.
    fn per_request(&self, boundary: Boundary) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.list.iter().filter(|s| s.boundary == boundary) {
            let us = (s.end_ns - s.start_ns) as f64 / 1e3;
            let slot = out.entry(s.req).or_insert(0.0f64);
            *slot = slot.max(us);
        }
        out
    }

    /// One JSON object per span: name, start, end, parent, request id.
    /// A span's id is its boundary and request (and part); its parent is
    /// the nearest outer boundary that has a span for the same request.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let id = |b: Boundary, req: u64, part: usize| (b as u64) << 48 | (part as u64) << 40 | req;
        let recorded: BTreeSet<(Boundary, u64)> =
            self.list.iter().map(|s| (s.boundary, s.req)).collect();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.list {
            let mut parent = s.boundary.parent();
            while let Some(p) = parent {
                if recorded.contains(&(p, s.req)) {
                    break;
                }
                parent = p.parent();
            }
            let parent = match parent {
                Some(p) => id(p, s.req, 0).to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"span_id\":{},\"parent\":{parent},\"request_id\":{},\"part\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.boundary.name(),
                id(s.boundary, s.req, s.part),
                s.req,
                s.part,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median over requests of `outer − Σ inner` (µs); requests missing from
/// `outer` are skipped, missing inner spans count as zero.
fn self_time(outer: &BTreeMap<u64, f64>, inner: &[&BTreeMap<u64, f64>]) -> f64 {
    median(
        outer
            .iter()
            .map(|(req, &us)| us - inner.iter().filter_map(|m| m.get(req)).sum::<f64>())
            .collect(),
    )
}

/// Codec cost of one request's real frames, accumulated per operation.
#[derive(Default)]
struct WireCost {
    encode_req_ns: Vec<f64>,
    decode_req_ns: Vec<f64>,
    encode_resp_ns: Vec<f64>,
    decode_resp_ns: Vec<f64>,
    frame_decoder_ns: Vec<f64>,
    req_bytes: Vec<f64>,
    resp_bytes: Vec<f64>,
}

fn timed<R>(sink: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    sink.push(t.elapsed().as_nanos() as f64);
    r
}

impl WireCost {
    /// Encodes and decodes `req` and its reply `rows` the way client and
    /// server do, and feeds both frames through a `FrameDecoder`.
    fn replay(&mut self, workload: &Workload, req: &Req, id: u64, rows: Matrix) {
        let trace = TraceCtx::new(id + 1);
        let request = timed(&mut self.encode_req_ns, || {
            workload.encode(req, id, Some(DEADLINE), Some(trace))
        });
        timed(&mut self.decode_req_ns, || {
            black_box(decode_client_traced(black_box(&request)).expect("own request decodes"))
        });
        let response = Response::Embeddings(rows, StageBreakdown::default());
        let reply = timed(&mut self.encode_resp_ns, || {
            encode_response_traced(id, &response, Some(trace.trace_id))
        });
        timed(&mut self.decode_resp_ns, || {
            black_box(decode_server(black_box(&reply)).expect("own reply decodes"))
        });
        let mut decoder = FrameDecoder::new();
        for payload in [&request, &reply] {
            let mut framed = Vec::new();
            encode_frame_into(&mut framed, payload);
            timed(&mut self.frame_decoder_ns, || {
                decoder.extend(black_box(&framed));
                black_box(decoder.next_frame().expect("own frame decodes"))
            });
        }
        self.req_bytes.push(request.len() as f64);
        self.resp_bytes.push(reply.len() as f64);
    }

    fn metrics(&self, m: &mut Metrics) {
        m.put(
            "wire.encode_req_ns",
            median(self.encode_req_ns.clone()),
            "ns",
        );
        m.put(
            "wire.decode_req_ns",
            median(self.decode_req_ns.clone()),
            "ns",
        );
        m.put(
            "wire.encode_resp_ns",
            median(self.encode_resp_ns.clone()),
            "ns",
        );
        m.put(
            "wire.decode_resp_ns",
            median(self.decode_resp_ns.clone()),
            "ns",
        );
        m.put(
            "wire.frame_decoder_ns_per_frame",
            median(self.frame_decoder_ns.clone()),
            "ns",
        );
        m.put("wire.req_bytes", mean(&self.req_bytes), "B");
        m.put("wire.resp_bytes", mean(&self.resp_bytes), "B");
    }
}

/// Kernel/structure, generator and wire boundaries, replayed in this
/// process on the arrival schedule: each request's inner calls run at its
/// due time, one after the other, so they meet the same idle gaps — cold
/// caches, a sleeping core — as the served path does.
fn inner_pass(workload: &Workload, seed: u64, due: &[Duration], spans: &mut Spans) -> WireCost {
    let specs = workload.specs;
    let mut inners: Vec<Inner> = specs.iter().map(Inner::build).collect();
    let mut generators: Vec<_> = specs.iter().map(|s| s.build(SERVER_SEED)).collect();
    let mut wire = WireCost::default();
    let t0 = Instant::now();
    for (id, &at) in due.iter().enumerate() {
        let id = id as u64;
        let req = workload.request(seed, id);
        let updates: Option<Vec<Option<&[f32]>>> = req
            .deltas
            .as_ref()
            .map(|d| d.iter_rows().map(Some).collect());
        wait_until(t0 + at);
        for (part, (table, _)) in req.parts.iter().enumerate() {
            if let Some((is_kernel, start, end)) = inners[*table].replay(&req, part) {
                let boundary = if is_kernel {
                    Boundary::Kernel
                } else {
                    Boundary::Structure
                };
                spans.record(boundary, id, part, start, end);
            }
        }
        let mut rows = Vec::new();
        for (part, (table, indices)) in req.parts.iter().enumerate() {
            let generator = &mut generators[*table];
            let start = Instant::now();
            let out = match &updates {
                Some(updates) => generator.generate_window(indices, updates),
                None => generator.generate_batch(indices),
            };
            spans.record(Boundary::Generator, id, part, start, Instant::now());
            rows.extend_from_slice(out.as_slice());
        }
        let rows = Matrix::from_vec(req.queries(), specs[0].dim(), rows);
        let start = Instant::now();
        wire.replay(workload, &req, id, rows);
        spans.record(Boundary::Wire, id, 0, start, Instant::now());
    }
    wire
}

/// Engine boundary: an in-process engine with the server's default
/// policy, requests submitted on the arrival schedule, each part's span
/// running from the due time to its reply.
fn engine_pass(workload: &Workload, seed: u64, due: &[Duration], spans: &mut Spans) {
    let tables = workload
        .specs
        .iter()
        .map(|&spec| TableConfig {
            seed: SERVER_SEED,
            ..TableConfig::new(spec)
        })
        .collect();
    let engine = Engine::start(EngineConfig::new(tables));
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let mut submitted = 0usize;
    for (id, &at) in due.iter().enumerate() {
        let req = workload.request(seed, id as u64);
        let requests: Vec<Request> = req
            .parts
            .iter()
            .map(|(table, indices)| {
                let r = Request::new(*table, indices.clone()).with_deadline(DEADLINE);
                match &req.deltas {
                    Some(d) => r.with_update(d.clone()),
                    None => r,
                }
            })
            .collect();
        wait_until(t0 + at);
        for (part, request) in requests.into_iter().enumerate() {
            let tx = tx.clone();
            submitted += 1;
            engine.submit_with(
                request,
                Box::new(move |response| {
                    let _ = tx.send((id as u64, part, Instant::now(), response.rejection()));
                }),
            );
        }
    }
    drop(tx);
    for _ in 0..submitted {
        let Ok((id, part, done, rejection)) = rx.recv_timeout(Duration::from_secs(2)) else {
            break;
        };
        if rejection.is_none() {
            spans.record(Boundary::Engine, id, part, t0 + due[id as usize], done);
        }
    }
}

/// One pass over TCP, ids from 0, open loop with the SLA or closed loop
/// without; with `boundary` set, frames carry a trace id and every
/// served reply becomes a span from its due time to its decode.
fn tcp_pass(
    workload: &'static Workload,
    seed: u64,
    conn: &mut Conn,
    pace: Pace<'_>,
    boundary: Option<Boundary>,
    spans: &mut Spans,
) -> PhaseLog {
    let traced = boundary.is_some();
    let deadline = matches!(pace, Pace::Open { .. }).then_some(DEADLINE);
    let payload = move |id: u64| {
        let trace = traced.then(|| TraceCtx::new(id + 1));
        workload.encode(&workload.request(seed, id), id, deadline, trace)
    };
    let log = conn.run_phase(0, pace, &payload, &sampled);
    if let Some(boundary) = boundary {
        for reply in &log.replies {
            if let (Outcome::Ok { .. }, Some(sent)) =
                (&reply.outcome, log.sent.get(reply.id as usize))
            {
                spans.record(
                    boundary,
                    reply.id,
                    0,
                    log.started + sent.due,
                    log.started + reply.done,
                );
            }
        }
    }
    log
}

/// Mean of each echoed stage (µs) and the median of `client latency −
/// echoed stage sum` (µs) over the served replies of `log`.
fn stage_metrics(log: &PhaseLog, m: &mut Metrics) {
    let mut per_stage = vec![Vec::new(); Stage::ALL.len()];
    let mut residual = Vec::new();
    for reply in &log.replies {
        let (Outcome::Ok { stages, .. }, Some(sent)) =
            (&reply.outcome, log.sent.get(reply.id as usize))
        else {
            continue;
        };
        for (stage, ns) in stages.iter() {
            per_stage[stage.index()].push(ns as f64 / 1e3);
        }
        let client_us = reply.done.saturating_sub(sent.sent).as_secs_f64() * 1e6;
        residual.push(client_us - stages.total_ns() as f64 / 1e3);
    }
    for stage in Stage::ALL {
        m.put(
            &format!("engine.{}_us", stage.label()),
            mean(&per_stage[stage.index()]),
            "us",
        );
    }
    m.put("conn.residual_us", median(residual), "us");
}

/// Median `Tables` round trip (µs): the connection layer with no engine
/// behind it.
fn rtt_floor_us(addr: SocketAddr) -> Result<f64, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut samples = Vec::with_capacity(RTT_PROBES);
    for k in 0..RTT_PROBES {
        let t = Instant::now();
        conn.call(&encode_tables_request(k as u64))
            .map_err(|e| format!("Tables probe: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(samples))
}

/// Queries served and batches dispatched so far, summed over the
/// backends' `STATS` frames.
fn batch_totals(backends: &[SocketAddr]) -> Result<(f64, f64), String> {
    let (mut queries, mut batches) = (0.0, 0.0);
    for &addr in backends {
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let Ok(ServerMsg::Stats(text)) = conn.call(&encode_stats_request(0)) else {
            return Err("no Stats reply".into());
        };
        let doc = json::parse(&text).map_err(|e| format!("STATS json: {e}"))?;
        if let Some(Value::Obj(by_technique)) = doc.get("queries_by_technique") {
            queries += by_technique.values().filter_map(Value::as_f64).sum::<f64>();
        }
        for worker in doc
            .get("worker_batches")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
        {
            batches += worker.get("batches").and_then(Value::as_f64).unwrap_or(0.0);
        }
    }
    Ok((queries, batches))
}

/// The router's own `router_route_ns` median (the upper bound of the
/// histogram bucket holding it, µs) and its failover count, scraped from
/// the `METRICS` frame.
fn router_scrape(front: SocketAddr) -> Result<(f64, f64), String> {
    let mut conn = Conn::connect(front).map_err(|e| format!("connect: {e}"))?;
    let Ok(ServerMsg::Metrics(text)) = conn.call(&encode_metrics_request(0)) else {
        return Err("no Metrics reply".into());
    };
    let value = |line: &str| line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
    let series = |name: &str| {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(value)
    };
    let count = series("secemb_router_route_ns_count").unwrap_or(0.0);
    let p50_ns = text
        .lines()
        .filter(|l| l.starts_with("secemb_router_route_ns_bucket{"))
        .find(|l| value(l).is_some_and(|cumulative| cumulative * 2.0 >= count))
        .and_then(|l| {
            l.split("le=\"")
                .nth(1)?
                .split('"')
                .next()?
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    Ok((
        p50_ns / 1e3,
        series("secemb_router_failovers_total").unwrap_or(0.0),
    ))
}

/// Self times per layer, innermost out, and their reconciliation against
/// the client's median latency `client_p50_us`. Layers a workload does
/// not have contribute empty span sets, hence zero.
fn reconcile(spans: &Spans, rtt_us: f64, client_p50_us: f64, m: &mut Metrics) {
    let at = |b| spans.per_request(b);
    let (kernel, structure, generator) = (
        at(Boundary::Kernel),
        at(Boundary::Structure),
        at(Boundary::Generator),
    );
    let (engine, wire, server, router) = (
        at(Boundary::Engine),
        at(Boundary::Wire),
        at(Boundary::Server),
        at(Boundary::Router),
    );
    let us = |map: &BTreeMap<u64, f64>| median(map.values().copied().collect());
    m.put("engine.inproc_us", us(&engine), "us");
    m.put("engine.overhead_us", us(&engine) - us(&generator), "us");
    let below_generator = if structure.is_empty() {
        &kernel
    } else {
        &structure
    };
    // The connection layer enters at its idle round trip; what it cost
    // beyond that shows in `trace.conn_measured_us` and lands in the
    // unaccounted share.
    let selfs = [
        ("trace.kernel_self_us", us(&kernel)),
        ("trace.structure_self_us", self_time(&structure, &[&kernel])),
        (
            "trace.generator_self_us",
            self_time(&generator, &[below_generator]),
        ),
        ("trace.engine_self_us", self_time(&engine, &[&generator])),
        ("trace.wire_self_us", us(&wire)),
        ("trace.conn_self_us", rtt_us),
        ("router.hop_us", self_time(&router, &[&server])),
    ];
    for (name, value) in selfs {
        m.put(name, value, "us");
    }
    m.put(
        "trace.conn_measured_us",
        self_time(&server, &[&engine, &wire]),
        "us",
    );
    let accounted: f64 = selfs.iter().map(|(_, us)| us).sum();
    m.put(
        "trace.unaccounted_share",
        1.0 - accounted / client_p50_us.max(f64::MIN_POSITIVE),
        "share",
    );
}

pub fn run_traced(
    workload: &'static Workload,
    bins: &Bins,
    plan: Plan,
    spans_path: &Path,
) -> Result<Run, String> {
    let seed = plan.seed;
    let mut m = Metrics::default();
    let mut spans = Spans {
        epoch: Instant::now(),
        list: Vec::new(),
    };

    // Innermost first: pinned kernels and structures, then the stream
    // at the kernel/structure, generator and wire boundaries, then at
    // the in-process engine.
    let budget = Duration::from_secs_f64(plan.seconds * MICRO_SHARE);
    if !workload.lacks("obliv.") {
        micro::obliv(workload, budget, &mut m);
    }
    if !workload.lacks("tensor.") {
        micro::tensor(budget, &mut m);
    }
    if !workload.lacks("oram.") {
        micro::oram(budget, &mut m);
    }
    if !workload.lacks("laoram.") {
        micro::laoram(budget, &mut m);
    }
    micro::core(workload, budget, &mut m);
    let due = poisson_schedule(
        seed,
        workload.rate,
        Duration::from_secs_f64(plan.seconds * PASS_SHARE),
    );
    let wire = inner_pass(workload, seed, &due, &mut spans);
    wire.metrics(&mut m);
    engine_pass(workload, seed, &due, &mut spans);

    // Then the program itself: straight to one backend, and through the
    // router where the workload has one.
    let mut oracle = Oracle::build(workload, seed);
    let (fleet, mut front, _) = timed_setup(bins, workload)?;
    let outermost = if workload.routed {
        Boundary::Router
    } else {
        Boundary::Server
    };
    let open = Pace::Open { due: &due };
    let mut logs = Vec::new();
    if workload.routed {
        let mut direct =
            Conn::connect(fleet.backends[0]).map_err(|e| format!("connect backend: {e}"))?;
        logs.push(tcp_pass(
            workload,
            seed,
            &mut direct,
            open,
            Some(Boundary::Server),
            &mut spans,
        ));
    }
    let rtt_us = rtt_floor_us(fleet.backends[0])?;
    let cpu_before = fleet.cpu_seconds();
    logs.push(tcp_pass(workload, seed, &mut front, open, None, &mut spans));
    let cpu_untraced = fleet.cpu_seconds() - cpu_before;
    logs.push(tcp_pass(
        workload,
        seed,
        &mut front,
        open,
        Some(outermost),
        &mut spans,
    ));
    let saturation = Pace::Closed {
        window: SAT_WINDOW,
        span: Duration::from_secs_f64(plan.seconds * SAT_SHARE),
    };
    // How far the engine coalesces when it is kept busy.
    let (queries_before, batches_before) = batch_totals(&fleet.backends)?;
    let sat = tcp_pass(workload, seed, &mut front, saturation, None, &mut spans);
    let (queries, batches) = batch_totals(&fleet.backends)?;
    let batch_mean = (queries - queries_before) / (batches - batches_before).max(1.0);
    let (route_p50_us, failovers) = if workload.routed {
        router_scrape(fleet.front)?
    } else {
        (0.0, 0.0)
    };
    drop(front);
    drop(fleet);
    let traced = logs.len() - 1;
    let untraced = traced - 1;
    logs.push(sat);
    for log in &logs {
        oracle.check(log);
    }
    // The pass that went straight to a backend: the first one when
    // routed, else the traced front pass itself.
    stage_metrics(&logs[if workload.routed { 0 } else { traced }], &mut m);

    m.put("engine.batch_queries_mean", batch_mean, "count");
    m.put("conn.rtt_floor_us", rtt_us, "us");
    m.put("router.route_p50_us", route_p50_us, "us");
    m.put("router.failovers", failovers, "count");
    // What a client saw, from the untraced pass.
    let stats = open_stats(&logs[untraced]);
    m.extend(stats.client_metrics());
    m.put("client.sat_rps", sat_rps(&logs[traced + 1]), "req/s");
    m.put(
        "fleet.cpu_us_per_req",
        cpu_untraced * 1e6 / stats.ok.max(1) as f64,
        "us",
    );
    let failures: u64 = logs.iter().map(phase_failures).sum::<u64>() + oracle.mismatches;
    let attempted: u64 = logs.iter().map(|l| l.sent.len() as u64).sum();
    m.put(
        "client.fail_share",
        failures as f64 / attempted.max(1) as f64,
        "share",
    );
    let traced_stats = open_stats(&logs[traced]);
    reconcile(&spans, rtt_us, traced_stats.lat_p50_ms() * 1e3, &mut m);
    m.put(
        "trace.overhead_share",
        traced_stats.lat_p50_ms() / stats.lat_p50_ms().max(f64::MIN_POSITIVE) - 1.0,
        "share",
    );
    m.put("trace.spans", spans.list.len() as f64, "count");
    m.0.retain(|(name, ..)| !workload.lacks(name));

    spans
        .write_jsonl(spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let late = stats.late_p99_us().max(traced_stats.late_p99_us());
    Ok(Run {
        client: Metrics::default(),
        result: RunResult {
            correct: oracle.mismatches == 0 && oracle.checked > 0,
            attempted,
            failed: failures,
            metrics: m,
        },
        late_p99_us: late,
    })
}
