//! `secemb-tracecat`: the fleet-wide trace joiner.
//!
//! Every tier of the serving stack — router, server front-end, engine
//! workers — emits [`parse::Span`]-shaped records through its
//! `SpanCollector`, either to a JSONL file or over the wire `TRACES`
//! frame. This crate re-assembles those per-host streams into
//! per-request [`join::Timeline`]s: spans from N hosts sharing one
//! public `trace_id`, stitched into a tree by `parent_span` links (the
//! router allocates its fan-out span ids *before* dispatching, and
//! forwards them in the wire trace trailer, so a backend's root span
//! already knows its cross-host parent).
//!
//! On top of the joined timelines it computes the two reports an
//! operator actually wants from a latency regression:
//!
//! - the **critical path** of a single slow request — the chain of
//!   spans that gated its completion, across hosts;
//! - the **p99 attribution table** — where the slowest 1% of requests
//!   spent their time, bucketed by `(host, span name)` using exclusive
//!   (self) time, so a queue on one backend is distinguishable from a
//!   slow merge on the router.
//!
//! # Clock discipline
//!
//! Span records carry two clocks. Durations and self-times always use
//! the per-host monotonic clock (`start_ns`/`end_ns`), which never
//! steps. Cross-host ordering — which child of a fan-out finished last,
//! offsets in a printed timeline — uses the unix-epoch projection
//! (`start_unix_ns`/`end_unix_ns`), which is comparable across hosts up
//! to wall-clock skew. No quantity in a report mixes the two.

#![forbid(unsafe_code)]

pub mod join;
pub mod parse;
pub mod report;

pub use join::{join, Timeline};
pub use parse::{parse_jsonl, CollectorMeta, Parsed, Span};
pub use report::{p99_attribution, slowest, AttributionRow};
