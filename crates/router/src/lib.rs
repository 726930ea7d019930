//! The cross-host serving tier: one router in front of N backend
//! `secemb-serve-server` processes.
//!
//! The single-host stack (PR 1–5) stops at one process: an
//! [`AllocationPlan`](secemb::hybrid::AllocationPlan) lives inside one
//! engine, behind one TCP listener. This crate turns that stack into a
//! horizontally scalable tier without touching clients:
//!
//! - [`Placement`] derives a **consistent
//!   table → host placement** from the served table set, balanced to a
//!   hard ⌈T/N⌉ per-host cap, and moves at most ⌈T/max(N, N′)⌉ tables
//!   when a host joins or leaves.
//! - [`Backend`] holds one **pipelined** connection
//!   per backend process: requests are correlated by id, responses
//!   arrive in completion order, and each response is routed to the
//!   callback registered at submit time. The link lives on the router's
//!   reactor beside the client connections — no thread per backend or
//!   per request. A dead link is redialed by the router's one
//!   maintenance thread, which also keeps every backend deadline
//!   (silent links, overdue control frames) and runs the health probes
//!   and the gossip rounds.
//! - [`Router`] speaks the unmodified `secemb-wire`
//!   protocol to clients, fans each request's per-table lookups out
//!   across hosts, and merges the per-host replies (and STATS/METRICS
//!   frames) into a single response. Per-host traffic is stamped with a
//!   wire-level trace id so router-side and backend-side stage
//!   breakdowns join into one cross-host span.
//! - [`gossip`] keeps the adaptive controllers coherent: the
//!   highest-versioned plan any backend has applied is pushed to every
//!   stale peer, each application an epoch-tagged atomic swap, so no
//!   request ever observes a mixed plan within a batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod gossip;
mod maint;
pub mod placement;
pub mod router;

pub use backend::Backend;
pub use gossip::GossipReport;
pub use placement::Placement;
pub use router::{Router, RouterConfig};

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard if a panicking holder poisoned
/// it — every critical section here leaves the data consistent.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
