//! Distributed tracing: per-request spans joined fleet-wide.
//!
//! A [`SpanRecord`] names one timed phase of one request's life on one
//! host (router admit, server queue wait, worker batch execution, …).
//! Records from every host carry the same wire-level `trace_id`, so a
//! joiner (`secemb-tracecat`) can re-assemble the cross-host timeline of
//! a single request; `parent_span` links a downstream host's spans under
//! the upstream span that dispatched to it.
//!
//! # Security invariant
//!
//! Span collection follows the same discipline as the metrics registry:
//!
//! - **Sampling is keyed only on the public trace id** (a wire-level
//!   request identifier chosen by the client or router), never on a
//!   table id, an embedding index, or any other secret. Whether a span
//!   is recorded is a function of data the network attacker already
//!   sees.
//! - **Span contents are size-shaped**: stage durations, batch sizes,
//!   table labels — the same quantities [`StageBreakdown`]
//!   already puts on the wire. No secret index ever appears in a span.
//! - **Disabled collection is inert, not absent**: a
//!   [`SpanCollector::disabled`] collector hands out the same API with
//!   every record call a no-op behind one branch, so the instrumented
//!   code path is identical with spans on and off. The serving crate's
//!   trace-equivalence test asserts the protected generators' memory
//!   traces are bit-identical either way.
//!
//! [`StageBreakdown`]: crate::StageBreakdown

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default bound on buffered spans per collector.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// The wire-level trace context a request carries: which distributed
/// trace it belongs to, and (when an upstream tier already opened a span
/// for it) which span the receiving host should parent its own spans
/// under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The fleet-wide trace identifier. Public by construction: it is
    /// assigned by the client or router from a plain counter and rides
    /// the wire in clear framing.
    pub trace_id: u64,
    /// The upstream span to parent this host's root span under, if the
    /// sender opened one.
    pub parent_span: Option<u64>,
}

impl TraceCtx {
    /// A context with no upstream span.
    #[must_use]
    pub fn new(trace_id: u64) -> Self {
        TraceCtx {
            trace_id,
            parent_span: None,
        }
    }

    /// A context parented under an upstream span.
    #[must_use]
    pub fn with_parent(trace_id: u64, parent_span: u64) -> Self {
        TraceCtx {
            trace_id,
            parent_span: Some(parent_span),
        }
    }
}

/// One completed span: a named, timed phase of one traced request on
/// one host.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The fleet-wide trace this span belongs to.
    pub trace_id: u64,
    /// This span's identifier, unique within its host's collector.
    pub span_id: u64,
    /// The span this one nests under: another local span, or (for a
    /// host's root span) the upstream tier's span from [`TraceCtx`].
    pub parent_span: Option<u64>,
    /// Which process emitted the span (the collector's host label).
    pub host: String,
    /// Which subsystem emitted the span (`server`, `worker`, `router`).
    pub component: &'static str,
    /// The phase the span times (a [`Stage`](crate::Stage) label, or a
    /// component-specific name like `request` or `fanout`).
    pub name: &'static str,
    /// Start, nanoseconds on the collector's monotonic clock (see
    /// [`SpanCollector::ns_of`]).
    pub start_ns: u64,
    /// End, same clock as `start_ns`.
    pub end_ns: u64,
    /// Size-shaped attributes (batch sizes, table ids, part counts).
    /// Values are public quantities only — never a secret index.
    pub attrs: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A bounded span buffer with atomic slot reservation: recording
/// reserves a slot with one `fetch_add` and never blocks another
/// recorder (each slot has its own lock, touched by exactly one writer
/// per drain cycle). When the buffer is full, new spans are counted as
/// dropped rather than evicting old ones — a scrape that reads an empty
/// tail knows exactly how much it missed.
///
/// The collector also anchors the clock: every span timestamp is
/// nanoseconds since the collector's construction instant, and
/// [`SpanCollector::unix_ns_of`] maps that monotonic value onto the
/// unix epoch captured at the same moment, so exports carry both a
/// drift-free intra-host clock and a cross-host joinable one.
#[derive(Debug)]
pub struct SpanCollector {
    enabled: bool,
    host: String,
    /// Record spans only for trace ids divisible by this (head
    /// sampling keyed on the public id; 0 disables sampling entirely).
    sample_every: u64,
    slots: Vec<Mutex<Option<SpanRecord>>>,
    next: AtomicUsize,
    next_span_id: AtomicU64,
    emitted: AtomicU64,
    dropped: AtomicU64,
    /// Monotonic anchor: span timestamps are `instant - anchor`.
    anchor: Instant,
    /// The unix-epoch time (nanoseconds) captured at `anchor`.
    anchor_unix_ns: u64,
}

impl SpanCollector {
    /// An enabled collector labeled `host`, keeping every trace whose id
    /// is divisible by `sample_every` (1 keeps everything, 0 nothing).
    #[must_use]
    pub fn new(host: &str, sample_every: u64) -> Self {
        Self::with_capacity(host, sample_every, DEFAULT_SPAN_CAPACITY)
    }

    /// [`SpanCollector::new`] with an explicit span-buffer bound.
    #[must_use]
    pub fn with_capacity(host: &str, sample_every: u64, capacity: usize) -> Self {
        let anchor_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        SpanCollector {
            enabled: true,
            host: host.to_string(),
            sample_every,
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            next_span_id: AtomicU64::new(span_id_salt(host) | 1),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            anchor: Instant::now(),
            anchor_unix_ns,
        }
    }

    /// An inert collector: samples nothing, records nothing, buffers
    /// nothing — but presents the identical API, so instrumented code
    /// is byte-for-byte the same with spans on or off.
    #[must_use]
    pub fn disabled() -> Self {
        SpanCollector {
            enabled: false,
            host: String::new(),
            sample_every: 0,
            slots: Vec::new(),
            next: AtomicUsize::new(0),
            next_span_id: AtomicU64::new(1),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            anchor: Instant::now(),
            anchor_unix_ns: 0,
        }
    }

    /// Whether this collector records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The collector's host label.
    #[must_use]
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Head-sampling decision for one trace, keyed **only** on the
    /// public trace id — never on a table, an index, or any other
    /// request content.
    #[must_use]
    pub fn sampled(&self, trace_id: u64) -> bool {
        self.enabled && self.sample_every != 0 && trace_id.is_multiple_of(self.sample_every)
    }

    /// A fresh span id: a per-collector counter in the low 32 bits under
    /// a hash of the host label in the high 32, so spans minted by
    /// *different* hosts never collide and a cross-host `parent_span`
    /// link resolves unambiguously in the joiner. (Distinct processes
    /// must carry distinct host labels for this to hold — the same rule
    /// that makes their spans distinguishable at all.)
    pub fn fresh_span_id(&self) -> u64 {
        self.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// `instant` on the collector's span clock: nanoseconds since the
    /// collector was built (0 for instants predating it).
    #[must_use]
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.anchor).as_nanos() as u64
    }

    /// The current time on the span clock.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// Maps a span-clock value onto the unix epoch (nanoseconds), using
    /// the wall-clock reading captured at the monotonic anchor.
    #[must_use]
    pub fn unix_ns_of(&self, mono_ns: u64) -> u64 {
        self.anchor_unix_ns.saturating_add(mono_ns)
    }

    /// Buffers one completed span. A full buffer counts the span as
    /// dropped instead of evicting older ones.
    pub fn record(&self, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        *lock_unpoisoned(&self.slots[idx]) = Some(span);
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Spans recorded (buffered) since construction.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Spans lost to a full buffer since construction.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Takes every buffered span, resetting the buffer. Concurrent
    /// recorders are never blocked; a span being written in the same
    /// instant the drain runs may slip to the next drain (or, rarely,
    /// be overwritten) — scrapes are coarse-grained, so the tradeoff
    /// buys an uncontended record path.
    pub fn drain(&self) -> Vec<SpanRecord> {
        if !self.enabled {
            return Vec::new();
        }
        let n = self.next.swap(0, Ordering::Relaxed).min(self.slots.len());
        let mut out = Vec::with_capacity(n);
        for slot in &self.slots[..n] {
            if let Some(span) = lock_unpoisoned(slot).take() {
                out.push(span);
            }
        }
        out
    }

    /// Drains and serializes every buffered span as JSON lines (see
    /// [`SpanCollector::span_to_json`]), ending with one `meta` line
    /// carrying the collector's emit/drop counters.
    pub fn drain_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.drain() {
            out.push_str(&self.span_to_json(&span));
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"meta\":\"span_collector\",\"host\":\"{}\",\"emitted\":{},\"dropped\":{}}}\n",
            escape(&self.host),
            self.emitted(),
            self.dropped()
        ));
        out
    }

    /// One span as a compact JSON object (a JSONL line without the
    /// newline), carrying both clocks: `start_ns`/`end_ns` on the
    /// host-monotonic span clock and `start_unix_ns`/`end_unix_ns` on
    /// the unix epoch for cross-host joins. Written by hand so the u64
    /// timestamps serialize exactly (the workspace JSON `Value` is
    /// f64-backed).
    #[must_use]
    pub fn span_to_json(&self, span: &SpanRecord) -> String {
        let mut out = format!(
            "{{\"trace_id\":{},\"span_id\":{},\"parent_span\":",
            span.trace_id, span.span_id
        );
        match span.parent_span {
            Some(parent) => out.push_str(&parent.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"host\":\"{}\",\"component\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"start_unix_ns\":{},\"end_unix_ns\":{},\"attrs\":{{",
            escape(&span.host),
            escape(span.component),
            escape(span.name),
            span.start_ns,
            span.end_ns,
            self.unix_ns_of(span.start_ns),
            self.unix_ns_of(span.end_ns),
        ));
        for (i, (key, value)) in span.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape(key), value));
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a of the host label, shifted into the top 32 bits of the span-id
/// space. Purely a namespace partition — not secret-dependent (the host
/// label is public deployment configuration).
fn span_id_salt(host: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in host.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash << 32
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SpanCollector {
    /// Builds a span covering `[start, end]` on this collector's clock,
    /// stamped with its host label.
    #[must_use]
    pub fn span_between(
        &self,
        ctx: TraceCtx,
        span_id: u64,
        component: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id,
            parent_span: ctx.parent_span,
            host: self.host.clone(),
            component,
            name,
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end),
            attrs: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_keys_only_on_the_public_trace_id() {
        let collector = SpanCollector::new("h0", 4);
        assert!(collector.sampled(0));
        assert!(collector.sampled(8));
        assert!(!collector.sampled(3));
        let keep_all = SpanCollector::new("h0", 1);
        assert!(keep_all.sampled(7));
        let keep_none = SpanCollector::new("h0", 0);
        assert!(!keep_none.sampled(0));
    }

    #[test]
    fn disabled_collector_is_inert() {
        let collector = SpanCollector::disabled();
        assert!(!collector.is_enabled());
        assert!(!collector.sampled(0));
        collector.record(SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_span: None,
            host: String::new(),
            component: "server",
            name: "request",
            start_ns: 0,
            end_ns: 1,
            attrs: Vec::new(),
        });
        assert_eq!(collector.emitted(), 0);
        assert_eq!(collector.dropped(), 0);
        assert!(collector.drain().is_empty());
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let collector = SpanCollector::with_capacity("h0", 1, 2);
        for i in 0..5 {
            collector.record(SpanRecord {
                trace_id: i,
                span_id: i,
                parent_span: None,
                host: "h0".to_string(),
                component: "server",
                name: "request",
                start_ns: i,
                end_ns: i + 1,
                attrs: Vec::new(),
            });
        }
        assert_eq!(collector.emitted(), 2);
        assert_eq!(collector.dropped(), 3);
        let drained = collector.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].trace_id, 0);
        assert_eq!(drained[1].trace_id, 1);
        // The drain reset the buffer: new spans land again.
        collector.record(SpanRecord {
            trace_id: 9,
            span_id: 9,
            parent_span: None,
            host: "h0".to_string(),
            component: "server",
            name: "request",
            start_ns: 0,
            end_ns: 1,
            attrs: Vec::new(),
        });
        assert_eq!(collector.drain().len(), 1);
    }

    #[test]
    fn json_carries_both_clocks_exactly() {
        let collector = SpanCollector::new("b\"0", 1);
        let span = SpanRecord {
            trace_id: 42,
            span_id: 7,
            parent_span: Some(3),
            host: collector.host().to_string(),
            component: "worker",
            name: "generate",
            start_ns: 1_000,
            end_ns: 2_500,
            attrs: vec![("batch_queries", 16), ("table", 2)],
        };
        let json = collector.span_to_json(&span);
        assert!(json.contains("\"trace_id\":42"));
        assert!(json.contains("\"parent_span\":3"));
        assert!(json.contains("\"host\":\"b\\\"0\""));
        assert!(json.contains("\"start_ns\":1000"));
        assert!(json.contains("\"batch_queries\":16"));
        let expected_unix = collector.unix_ns_of(1_000);
        assert!(json.contains(&format!("\"start_unix_ns\":{expected_unix}")));
        // The unix clock is the monotonic clock shifted by one constant.
        assert_eq!(
            collector.unix_ns_of(2_500) - collector.unix_ns_of(1_000),
            1_500
        );
    }

    #[test]
    fn drain_jsonl_ends_with_meta_line() {
        let collector = SpanCollector::new("h0", 1);
        collector.record(SpanRecord {
            trace_id: 1,
            span_id: 1,
            parent_span: None,
            host: "h0".to_string(),
            component: "server",
            name: "request",
            start_ns: 5,
            end_ns: 9,
            attrs: Vec::new(),
        });
        let text = collector.drain_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trace_id\":1"));
        assert!(lines[1].contains("\"meta\":\"span_collector\""));
        assert!(lines[1].contains("\"emitted\":1"));
    }

    #[test]
    fn span_ids_from_distinct_hosts_never_collide() {
        let router = SpanCollector::new("router", 1);
        let backend = SpanCollector::new("b0", 1);
        let from_router: Vec<u64> = (0..64).map(|_| router.fresh_span_id()).collect();
        let from_backend: Vec<u64> = (0..64).map(|_| backend.fresh_span_id()).collect();
        for id in &from_router {
            assert!(
                !from_backend.contains(id),
                "host-salted id spaces intersected at {id}"
            );
        }
        // Same host label, same salt: a restarted collector re-mints the
        // same ids, which is why labels must be unique per process.
        let again = SpanCollector::new("router", 1);
        assert_eq!(again.fresh_span_id(), from_router[0]);
    }

    #[test]
    fn span_clock_is_monotonic_from_the_anchor() {
        let collector = SpanCollector::new("h0", 1);
        let a = collector.now_ns();
        let b = collector.now_ns();
        assert!(b >= a);
        let span = collector.span_between(
            TraceCtx::new(1),
            collector.fresh_span_id(),
            "server",
            "request",
            Instant::now(),
            Instant::now(),
        );
        assert_eq!(span.host, "h0");
        assert!(span.end_ns >= span.start_ns);
    }
}
