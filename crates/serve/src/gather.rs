//! A request is N ≥ 1 parts that complete into one reply.
//!
//! `Generate` and `Update` are one part; a `GenerateMulti` is one part
//! per `(table, indices)` pair. Whoever serves the request scatters its
//! parts over *slots* — the server one engine request per part, the
//! router one backend hop per serving host — and each slot's reply comes
//! home on whatever thread produced it. [`Gather`] is the countdown that
//! knows when the last one is home; [`merge_parts`] is the rule that
//! turns the slots' replies back into the one reply the client is owed.
//! Both front doors use this pair and nothing else.

use crate::lock_unpoisoned;
use crate::request::{RejectReason, Response};
use secemb_telemetry::StageBreakdown;
use secemb_tensor::Matrix;
use std::sync::{Arc, Mutex};

/// The slots of one in-flight request; cloned into each slot's
/// completion.
///
/// A single slot carries every part in order, so its reply *is* the
/// reply: that case holds no state and allocates nothing.
#[derive(Clone)]
pub struct Gather(Option<Arc<Scatter>>);

struct Scatter {
    /// `(slot, rows)` per part, in part order: which slot's reply
    /// carries the part and how many rows the part is owed. A slot's
    /// reply holds its parts' rows in part order.
    parts: Vec<(usize, usize)>,
    /// Per-slot replies, and how many slots are still out.
    slots: Mutex<(Vec<Option<Response>>, usize)>,
}

/// What one [`Gather::fill`] did.
pub enum Fill<'a> {
    /// Other slots are still out.
    Pending,
    /// The slot was already filled, or does not exist: the first reply
    /// stands and the countdown is untouched.
    Duplicate,
    /// Last one home.
    Complete(Landed<'a>),
}

/// Every slot's reply of a request whose last slot just landed.
pub enum Landed<'a> {
    /// The one slot's reply.
    Whole(Response),
    /// The part layout and one reply per slot, in slot order (`None`: a
    /// slot whose reply was lost on the way).
    Parts(&'a [(usize, usize)], Vec<Option<Response>>),
}

impl Gather {
    /// One slot carrying the whole request.
    pub fn single() -> Gather {
        Gather(None)
    }

    /// `slots` slots over `parts`, where `parts[p]` is `(slot, rows)`
    /// for part `p`. Fewer than two slots is [`Gather::single`].
    pub fn new(slots: usize, parts: Vec<(usize, usize)>) -> Gather {
        if slots < 2 {
            return Gather::single();
        }
        Gather(Some(Arc::new(Scatter {
            parts,
            slots: Mutex::new((vec![None; slots], slots)),
        })))
    }

    /// Records `slot`'s reply.
    pub fn fill(&self, slot: usize, response: Response) -> Fill<'_> {
        let Some(scatter) = &self.0 else {
            return Fill::Complete(Landed::Whole(response));
        };
        let mut guard = lock_unpoisoned(&scatter.slots);
        let (slots, left) = &mut *guard;
        match slots.get_mut(slot) {
            Some(empty @ None) => *empty = Some(response),
            _ => return Fill::Duplicate,
        }
        *left -= 1;
        if *left > 0 {
            return Fill::Pending;
        }
        Fill::Complete(Landed::Parts(&scatter.parts, std::mem::take(slots)))
    }
}

impl Landed<'_> {
    /// The one reply, and whether putting it together met a
    /// [`merge_parts`] violation.
    pub fn merge(self) -> (Response, bool) {
        match self {
            Landed::Whole(response) => (response, false),
            Landed::Parts(parts, replies) => merge_parts(parts, &replies),
        }
    }
}

/// Re-assembles per-slot replies into one part-ordered response;
/// `parts[p]` is `(slot, rows)` for part `p`.
///
/// The first part, in part order, whose slot did not answer with
/// embeddings rejects the whole request with that slot's reason.
/// Otherwise rows concatenate in part order and the stage breakdown
/// takes the per-stage maximum — the slots ran concurrently, so the
/// slowest bounds each stage's share of the end-to-end latency. Tables
/// of different width cannot share a reply matrix: `BadRequest`.
///
/// A reply set that does not fit the layout — a slot that never landed,
/// a slot whose row count is not what its parts are owed — rejects
/// `Internal` and returns `true`, a violation for the caller to count;
/// it never panics.
pub fn merge_parts(parts: &[(usize, usize)], replies: &[Option<Response>]) -> (Response, bool) {
    let violation = (Response::Rejected(RejectReason::Internal), true);
    let mut cols = None;
    let mut owed = vec![0usize; replies.len()];
    for &(slot, rows) in parts {
        match replies.get(slot) {
            Some(Some(Response::Embeddings(m, _))) => {
                if *cols.get_or_insert(m.cols()) != m.cols() {
                    return (Response::Rejected(RejectReason::BadRequest), false);
                }
                owed[slot] += rows;
            }
            Some(Some(Response::Rejected(reason))) => return (Response::Rejected(*reason), false),
            _ => return violation,
        }
    }
    let cols = cols.unwrap_or(0);
    let mut stages = StageBreakdown::default();
    for (reply, owed) in replies.iter().zip(&owed) {
        if let Some(Response::Embeddings(m, s)) = reply {
            if m.rows() != *owed {
                return violation;
            }
            for (merged, ns) in stages.ns.iter_mut().zip(s.ns) {
                *merged = (*merged).max(ns);
            }
        }
    }
    let rows = owed.iter().sum::<usize>();
    let mut data = Vec::with_capacity(rows * cols);
    // `owed` turns into each slot's read cursor.
    owed.fill(0);
    for &(slot, rows) in parts {
        if let Some(Some(Response::Embeddings(m, _))) = replies.get(slot) {
            let take = rows * cols;
            data.extend_from_slice(&m.as_slice()[owed[slot]..owed[slot] + take]);
            owed[slot] += take;
        }
    }
    (
        Response::Embeddings(Matrix::from_vec(rows, cols, data), stages),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(values: &[f32], cols: usize) -> Matrix {
        Matrix::from_vec(values.len() / cols, cols, values.to_vec())
    }

    fn embeddings(values: &[f32], cols: usize, stages: StageBreakdown) -> Option<Response> {
        Some(Response::Embeddings(rows(values, cols), stages))
    }

    #[test]
    fn merge_reassembles_part_order_and_rejects_first() {
        // Parts 0 and 2 in slot 0, part 1 in slot 1: reassembly must
        // interleave the rows back into 0, 1, 2 order.
        let parts = [(0, 1), (1, 1), (0, 1)];
        let mut s_a = StageBreakdown::default();
        s_a.ns[3] = 100;
        let mut s_b = StageBreakdown::default();
        s_b.ns[3] = 40;
        s_b.ns[1] = 7;
        let (merged, violated) = merge_parts(
            &parts,
            &[
                embeddings(&[0.0, 0.0, 2.0, 2.0], 2, s_a),
                embeddings(&[1.0, 1.0], 2, s_b),
            ],
        );
        let Response::Embeddings(m, stages) = merged else {
            panic!("expected embeddings");
        };
        assert_eq!(m.rows(), 3);
        assert_eq!(
            m.as_slice(),
            &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
            "rows must come back in part order, not slot order"
        );
        assert_eq!(stages.ns[3], 100, "stage merge takes the max");
        assert_eq!(stages.ns[1], 7);
        assert!(!violated, "clean merge counts no violations");

        // A rejection wins by earliest part it covers: slot 1 holds
        // part 1, slot 0 holds parts 0 and 2 — slot 0's reason wins,
        // whichever order the slots are in.
        let (merged, violated) = merge_parts(
            &parts,
            &[
                Some(Response::Rejected(RejectReason::QueueFull)),
                Some(Response::Rejected(RejectReason::DeadlineUnmeetable)),
            ],
        );
        assert_eq!(merged, Response::Rejected(RejectReason::QueueFull));
        assert!(!violated, "a rejection is a legitimate reply");
        let (merged, _) = merge_parts(
            &[(1, 1), (0, 1)],
            &[
                Some(Response::Rejected(RejectReason::QueueFull)),
                Some(Response::Rejected(RejectReason::DeadlineUnmeetable)),
            ],
        );
        assert_eq!(merged, Response::Rejected(RejectReason::DeadlineUnmeetable));

        // Tables of different width cannot share a reply matrix.
        let (merged, violated) = merge_parts(
            &[(0, 1), (1, 1)],
            &[
                embeddings(&[0.0, 0.0], 2, StageBreakdown::default()),
                embeddings(&[1.0], 1, StageBreakdown::default()),
            ],
        );
        assert_eq!(merged, Response::Rejected(RejectReason::BadRequest));
        assert!(!violated);
    }

    #[test]
    fn reply_that_does_not_fit_its_parts_degrades_and_counts() {
        // A slot answers with more rows than its parts are owed (a
        // backend answering a different request's shape): reject and
        // count, never slice out of bounds.
        let parts = [(0, 1), (1, 1)];
        let ok = || embeddings(&[0.0, 0.0], 2, StageBreakdown::default());
        let fat = embeddings(&[1.0; 6], 2, StageBreakdown::default());
        let (merged, violated) = merge_parts(&parts, &[ok(), fat]);
        assert_eq!(merged, Response::Rejected(RejectReason::Internal));
        assert!(violated);
        // ...and with fewer.
        let thin = embeddings(&[], 2, StageBreakdown::default());
        let (merged, violated) = merge_parts(&parts, &[ok(), thin]);
        assert_eq!(merged, Response::Rejected(RejectReason::Internal));
        assert!(violated);
    }

    #[test]
    fn duplicate_and_missing_fills_reject_instead_of_panicking() {
        let one = |v: f32| Response::Embeddings(rows(&[v, v], 2), StageBreakdown::default());
        // Two replies land for slot 0: the first stands, the countdown
        // does not move (decrementing twice would complete the request
        // with slot 1 still out), and a slot that does not exist is the
        // same fault.
        let gather = Gather::new(2, vec![(0, 1), (1, 1)]);
        assert!(matches!(gather.fill(0, one(1.0)), Fill::Pending));
        assert!(matches!(gather.fill(0, one(9.0)), Fill::Duplicate));
        assert!(matches!(gather.fill(2, one(9.0)), Fill::Duplicate));
        let Fill::Complete(landed) = gather.fill(1, one(2.0)) else {
            panic!("second slot is the last one home");
        };
        let (merged, violated) = landed.merge();
        assert!(!violated);
        assert_eq!(
            merged.embeddings().map(Matrix::as_slice),
            Some(&[1.0, 1.0, 2.0, 2.0][..])
        );
        // A completed request takes no further fills.
        assert!(matches!(gather.fill(1, one(3.0)), Fill::Duplicate));

        // A slot that never landed (a reply lost on the way) is the dual
        // failure: reject + count, not panic.
        let (merged, violated) = merge_parts(&[(0, 1), (1, 1)], &[Some(one(1.0)), None]);
        assert_eq!(merged, Response::Rejected(RejectReason::Internal));
        assert!(violated);
        // So is a layout naming a slot the reply set does not have.
        let (merged, violated) = merge_parts(&[(0, 1), (5, 1)], &[Some(one(1.0))]);
        assert_eq!(merged, Response::Rejected(RejectReason::Internal));
        assert!(violated);
    }

    #[test]
    fn a_single_slot_passes_its_reply_through() {
        // One slot, whatever the part count: nothing to count down and
        // nothing to copy.
        for gather in [Gather::single(), Gather::new(1, vec![(0, 2), (0, 1)])] {
            let reply = Response::Embeddings(rows(&[1.0, 2.0, 3.0], 1), StageBreakdown::default());
            let data = reply.embeddings().map(|m| m.as_slice().as_ptr());
            let Fill::Complete(landed) = gather.fill(0, reply) else {
                panic!("the only slot is the last one home");
            };
            let (merged, violated) = landed.merge();
            assert!(!violated);
            assert_eq!(
                merged.embeddings().map(|m| m.as_slice().as_ptr()),
                data,
                "the reply must pass through without a row copy"
            );
        }
    }
}
