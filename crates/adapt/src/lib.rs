//! Closing the profiling loop at runtime: drift detection, background
//! re-profiling, and live hybrid reallocation.
//!
//! The paper's hybrid scheme (§IV-C) profiles the scan/DHE crossover
//! *offline* and allocates techniques by public table size *once*. But
//! the profile is a statement about the machine, and data-center machines
//! change under your feet: co-located neighbours steal cache and memory
//! bandwidth, shifting per-technique costs by integer factors (Figs. 8
//! and 9) and silently invalidating the offline threshold. A hybrid
//! serving under a stale threshold either burns latency scanning tables
//! DHE should own, or sheds load it could have served.
//!
//! This crate adds the online half:
//!
//! - [`drift`] — per-table EWMA + Page-CUSUM detectors over the live
//!   per-query service costs exported by `secemb-serve` workers, compared
//!   against the active plan's baseline.
//! - [`mod@reprofile`] — a bounded, throttled re-entry into the core
//!   [`Profiler`](secemb::hybrid::Profiler): only a log window around the
//!   old threshold is re-measured, with a sleep between grid points so
//!   the probe never competes with the request path for long.
//! - [`controller`] — the loop tying them together: drain samples, detect
//!   drift, re-profile, derive a fresh versioned
//!   [`AllocationPlan`], and apply it to the engine as an atomic
//!   epoch-tagged swap (in-flight batches finish on the old plan; no
//!   request is dropped). Two dampers — a dwell window on the drift
//!   verdict and a hysteresis band on technique flips — keep oscillating
//!   costs from thrashing the allocation, and the decision is three-way:
//!   scan below the crossover, Circuit ORAM on a profiled middle band,
//!   DHE above it.
//! - [`persist`] — a small versioned JSON artifact carrying the applied
//!   crossovers, written after every reallocation and loaded on startup
//!   so a restarted server resumes from what the last process learned.
//!
//! None of this weakens the security argument: the technique chosen for a
//! table depends only on *public* quantities (table size, measured
//! machine-wide costs), never on which indices were queried, and each
//! generator's access-pattern guarantees hold within every epoch.

#![forbid(unsafe_code)]

pub mod controller;
pub mod drift;
pub mod persist;
pub mod reprofile;

pub use controller::{
    AdaptConfig, AdaptiveController, ControllerHandle, DampedTrigger, StepOutcome, TriggerDecision,
};
pub use drift::{DriftConfig, DriftDetector};
pub use persist::{ProfileArtifact, PROFILE_FORMAT};
pub use reprofile::{reprofile, ReprofileConfig, ReprofileReport};

// The plan artifact the controller produces and the engine consumes.
pub use secemb::hybrid::{AllocationPlan, Crossovers, PlannedTable};
