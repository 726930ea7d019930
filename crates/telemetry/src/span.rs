//! Request-lifecycle stage attribution.

/// The phases a served request passes through.
///
/// Admission (validation + enqueue) happens on the accepting thread;
/// queue/batch/generate/reply on the shard worker; write on the
/// reactor thread (server-side only — in-process callers see a zero
/// write stage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Validation and admission control, up to enqueue.
    Admit,
    /// Waiting in the shard queue until a worker picks the job up.
    Queue,
    /// Batch coalescing: from dequeue until the batch is dispatched.
    Batch,
    /// Oblivious embedding generation for the whole batch.
    Generate,
    /// From generation end until this job's reply callback runs.
    Reply,
    /// Server-side reply serialization queueing and socket flush.
    Write,
}

impl Stage {
    /// All stages, in lifecycle order.
    pub const ALL: [Stage; 6] = [
        Stage::Admit,
        Stage::Queue,
        Stage::Batch,
        Stage::Generate,
        Stage::Reply,
        Stage::Write,
    ];

    /// Stable lowercase label, e.g. for a `stage` metric label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Admit => "admit",
            Stage::Queue => "queue",
            Stage::Batch => "batch",
            Stage::Generate => "generate",
            Stage::Reply => "reply",
            Stage::Write => "write",
        }
    }

    /// Position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stage::Admit => 0,
            Stage::Queue => 1,
            Stage::Batch => 2,
            Stage::Generate => 3,
            Stage::Reply => 4,
            Stage::Write => 5,
        }
    }
}

/// Per-stage nanosecond totals for one request.
///
/// Carried on every `Embeddings` response so clients can attribute
/// end-to-end latency without server-side correlation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Nanoseconds per stage, indexed by [`Stage::index`].
    pub ns: [u64; 6],
}

impl StageBreakdown {
    /// Set one stage's duration.
    pub fn set(&mut self, stage: Stage, ns: u64) {
        self.ns[stage.index()] = ns;
    }

    /// One stage's duration.
    pub fn get(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Sum of all stage durations.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().copied().sum()
    }

    /// Iterate `(stage, ns)` in lifecycle order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL.iter().map(move |&s| (s, self.get(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_indices_are_consistent() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            ["admit", "queue", "batch", "generate", "reply", "write"]
        );
    }

    #[test]
    fn breakdown_set_get_total() {
        let mut b = StageBreakdown::default();
        b.set(Stage::Queue, 100);
        b.set(Stage::Generate, 900);
        assert_eq!(b.get(Stage::Queue), 100);
        assert_eq!(b.get(Stage::Admit), 0);
        assert_eq!(b.total_ns(), 1000);
        assert_eq!(b.iter().count(), 6);
    }
}
