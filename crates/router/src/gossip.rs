//! Versioned plan gossip: cross-host adaptive coordination.
//!
//! Each backend's `AdaptiveController` learns independently; without
//! coordination, a crossover applied on one host leaves its replicas
//! serving a stale allocation. A gossip round pulls every backend's
//! active [`AllocationPlan`], picks the **highest version** (plan
//! versions are monotone per controller, and
//! `resuming_from_version` keeps them monotone across restarts), and
//! pushes that plan to every backend still below it. Each push is an
//! epoch-tagged atomic swap on the receiving engine — all replicas
//! rendezvous on a barrier before any serves the new plan — so no
//! batch ever mixes epochs, and after one convergent round every
//! replica of every table serves the same plan version.
//!
//! The winning plan's crossovers are also persisted in the
//! [`ProfileArtifact`] format, so a restarted backend (pointed at the
//! same artifact path) resumes from the fleet's newest profile instead
//! of its own stale one.

use crate::backend::{failure, fan_out, Backend, Reply, SYNC_TIMEOUT};
use secemb::hybrid::{AllocationPlan, Crossovers};
use secemb_adapt::ProfileArtifact;
use secemb_serve::protocol::{encode_plan_pull, encode_plan_push, ServerMsg};
use std::path::PathBuf;
use std::sync::Arc;

/// What one gossip round did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GossipReport {
    /// The highest plan version seen across the fleet (0 = no backend
    /// has applied a plan yet).
    pub winner_version: u64,
    /// Backends that were behind and received the winning plan.
    pub pushed: Vec<String>,
    /// `(backend, epoch)` acks from the pushed backends.
    pub acked: Vec<(String, u64)>,
    /// Backends that could not be pulled or pushed this round, with the
    /// error text; the next round retries them.
    pub errors: Vec<(String, String)>,
}

impl GossipReport {
    /// Whether every reachable backend now reports the winning version.
    pub fn converged(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A parsed plan and the JSON it came as.
pub(crate) type Plan = (AllocationPlan, String);

/// A backend's reply to a plan pull: its active plan, `None` for its
/// construction-time layout, or why there is neither.
pub(crate) fn pulled(reply: Reply) -> Result<Option<Plan>, String> {
    match reply {
        Ok(ServerMsg::Plan(None)) => Ok(None),
        Ok(ServerMsg::Plan(Some(json))) => match AllocationPlan::from_json(&json) {
            Ok(plan) => Ok(Some((plan, json))),
            Err(e) => Err(e.to_string()),
        },
        other => Err(failure(other)),
    }
}

/// The newer of `best` and `plan`; the first seen wins a tie.
pub(crate) fn newer(best: Option<Plan>, plan: Plan) -> Option<Plan> {
    match best {
        Some(best) if best.0.version >= plan.0.version => Some(best),
        _ => Some(plan),
    }
}

/// A backend's reply to a plan push: the epoch it reached, or why not.
pub(crate) fn acked(reply: Reply) -> Result<u64, String> {
    match reply {
        Ok(ServerMsg::PlanAck {
            ok: true, epoch, ..
        }) => Ok(epoch),
        Ok(ServerMsg::PlanAck { error, .. }) => Err(error),
        other => Err(failure(other)),
    }
}

/// Runs one gossip round over `backends`: pull every active plan, pick
/// the highest version, push it to the stale peers, and (optionally)
/// persist the winner's crossovers at `profile_out`. `done` receives the
/// report once the last push is acked, refused or overdue; per-backend
/// failures land in [`GossipReport::errors`]. Nothing here waits.
pub(crate) fn round(
    backends: &[Arc<Backend>],
    profile_out: Option<PathBuf>,
    done: impl FnOnce(GossipReport) + Send + 'static,
) {
    let fleet = backends.to_vec();
    fan_out(backends, SYNC_TIMEOUT, encode_plan_pull, move |plans| {
        let mut report = GossipReport::default();
        let (mut winner, mut versions) = (None, Vec::with_capacity(fleet.len()));
        for (backend, reply) in fleet.iter().zip(plans) {
            versions.push(match pulled(reply) {
                Ok(plan) => plan.map_or(0, |plan| {
                    let version = plan.0.version;
                    winner = newer(winner.take(), plan);
                    version
                }),
                Err(e) => {
                    report.errors.push((backend.name().to_string(), e));
                    0
                }
            });
        }
        let Some((plan, json)) = winner else {
            return done(report); // nobody has adapted yet: nothing to spread
        };
        report.winner_version = plan.version;
        let stale: Vec<_> = (fleet.into_iter().zip(versions))
            .filter(|(_, version)| *version < plan.version)
            .map(|(backend, _)| backend)
            .collect();
        report.pushed = stale.iter().map(|b| b.name().to_string()).collect();
        let push = |id| encode_plan_push(id, &json);
        fan_out(&stale, SYNC_TIMEOUT, push, move |acks| {
            for (name, ack) in report.pushed.iter().zip(acks) {
                match acked(ack) {
                    Ok(epoch) => report.acked.push((name.clone(), epoch)),
                    Err(e) => report.errors.push((name.clone(), e)),
                }
            }
            if let Some(path) = profile_out {
                // Best-effort, atomic rename underneath — same contract
                // as the controller's own persistence.
                let _ = ProfileArtifact {
                    dim: plan.dim,
                    batch: plan.batch,
                    threads: plan.threads,
                    crossovers: Crossovers {
                        scan_to: plan.threshold,
                        oram_to: plan.oram_to,
                    },
                    plan_version: plan.version,
                }
                .store(&path);
            }
            done(report);
        });
    });
}
