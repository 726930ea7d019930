//! `secemb-serve`: a batched, multi-worker embedding-serving subsystem
//! with SLA-aware admission control.
//!
//! The paper evaluates secure embedding generation under production
//! serving constraints — batching (Fig. 12), co-located replicas
//! (Figs. 8/9), and a 20 ms SLA (Fig. 13). This crate is the serving
//! system those experiments imply:
//!
//! - [`Request`]/[`Response`]: a batch of secret indices against one
//!   table, answered with an embedding matrix or an explicit
//!   [`Rejected`](Response::Rejected) — load shedding is never silent.
//! - [`BatchPolicy`]/[`execute_batch`]: arrival-driven coalescing — a
//!   free worker runs whatever is queued, up to a batch-size cap, as a
//!   single generator call per dispatch; it never waits for more.
//! - [`Engine`]: one worker thread per table shard, draining the
//!   shard's queue and owning the table's one generator (built from a
//!   [`secemb::GeneratorSpec`] and seed), so an oblivious write lands in
//!   the structure every later read of that table consults.
//! - Admission control: a profiled per-query cost predicts queue delay;
//!   requests whose deadline cannot be met are rejected *before*
//!   consuming queue space ([`RejectReason::DeadlineUnmeetable`]), full
//!   queues push back ([`RejectReason::QueueFull`]), and requests that
//!   go stale in the queue are answered
//!   [`RejectReason::DeadlineExceeded`].
//! - [`ServerStats`]: per-technique query counts, queue depth,
//!   batch-size histogram and p50/p95/p99 latency — all recorded into a
//!   lock-free `secemb-telemetry` [`Registry`] shared with the layers
//!   below (ORAM stash/eviction gauges, modeled enclave counters), so
//!   one snapshot, JSONL export, or Prometheus `METRICS` frame covers
//!   the whole stack.
//! - Per-stage latency attribution: every served [`Response`] carries a
//!   [`StageBreakdown`] (`admit`/`queue`/`batch`/`generate`/`reply`/
//!   `write` nanoseconds), and each stage feeds its own histogram.
//! - [`Server`]/[`Client`]: a length-prefixed binary protocol over
//!   plain TCP. Every frame carries a client-chosen request id, so one
//!   connection can pipeline many requests and match out-of-order
//!   responses; the server multiplexes every connection onto one
//!   [`FrameReactor`] thread, joined on shutdown. [`loadgen`] drives
//!   paced/Poisson latency-throughput sweeps as one open-loop schedule:
//!   the calling thread sends each request at its due time onto links a
//!   reactor of its own carries, and times it from that due time.
//!
//! Security note: the serving layer never branches on index *values* —
//! only on public quantities (counts, deadlines, table ids) — so the
//! obliviousness of the underlying generators is preserved across
//! coalescing (verified by trace-equivalence tests in
//! `tests/serving.rs`).
//!
//! ```
//! use secemb::GeneratorSpec;
//! use secemb_serve::{Engine, EngineConfig, Request, TableConfig};
//!
//! let engine = Engine::start(EngineConfig::new(vec![TableConfig::new(
//!     GeneratorSpec::Scan { rows: 100, dim: 8 },
//! )]));
//! let response = engine.call(Request::new(0, vec![42, 7]));
//! assert_eq!(response.embeddings().unwrap().shape(), (2, 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod client;
mod engine;
mod gather;
pub mod loadgen;
pub mod protocol;
pub mod reactor;
mod request;
mod server;
mod stats;

/// Locks a mutex, recovering the guard from a poisoned lock.
///
/// Every mutex in this crate guards state that stays consistent across
/// a panicking critical section (registries of `Arc` handles, sample
/// rings, reply outboxes), so a sibling thread's panic must degrade to
/// that thread's death — never cascade into wedging the whole server
/// through poisoned-lock unwraps.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use batcher::{execute_batch, BatchPolicy};
pub use client::{Client, RemoteTable};
pub use engine::{
    CostSource, Engine, EngineConfig, PlanError, TableConfig, TableInfo, Ticket, TraceSettings,
    LEARN_BATCHES,
};
pub use gather::{merge_parts, Fill, Gather, Landed};
pub use reactor::{FrameReactor, ReactorConfig, ReplySender};
pub use request::{RejectReason, Request, Response};
pub use secemb_telemetry::{Registry, SpanCollector, Stage, StageBreakdown, TraceCtx};
pub use server::{bind_reusable, Server, ServerOptions};
pub use stats::{ServerStats, StatsSnapshot, WorkerBatches};
