//! Arrival-driven batching: coalescing queued requests into one
//! generator call.
//!
//! Amortizing fixed per-call overheads over a coalesced batch is where the
//! paper's batch-scaling results (Fig. 12) translate into serving
//! throughput — and those results are about requests that pile up *while
//! the generator is busy*. So there is one rule and no timer: a worker
//! blocks for the first queued request, takes whatever else is already
//! queued up to [`BatchPolicy::max_batch`] queries, and runs. An idle
//! worker therefore dispatches a lone request at once; a busy worker
//! finds its backlog waiting and drains it in one call. The coalescing
//! itself is a pure function ([`execute_batch`]) so its correctness and
//! obliviousness can be tested on the caller's thread, outside the worker
//! machinery.

use secemb::EmbeddingGenerator;
use secemb_tensor::Matrix;

/// How much of its backlog a worker coalesces into one generator call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Coalesce at most this many *queries* (summed over requests).
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 64 }
    }
}

/// Runs one coalesced read-only batch: concatenates every group's
/// indices, makes a **single** generator call, and splits the result back
/// into one matrix per group, preserving order. It is
/// `execute_batch_ops` — the function the shard worker runs — with no
/// group carrying updates, so a test that uses it as its reference checks
/// the shipped path.
///
/// Each returned matrix is byte-identical to what a direct
/// `generate_batch` on that group alone would produce, because every
/// generator computes rows independently of their batch neighbours.
///
/// # Panics
///
/// Panics if a group is empty or contains an out-of-range index (the
/// engine validates both at admission).
pub fn execute_batch(generator: &mut dyn EmbeddingGenerator, groups: &[Vec<u64>]) -> Vec<Matrix> {
    let reads: Vec<(&[u64], Option<&Matrix>)> = groups.iter().map(|g| (&g[..], None)).collect();
    execute_batch_ops(generator, &reads)
}

/// Runs one coalesced batch of mixed reads and updates: concatenates
/// every group's indices (and per-index delta rows, where a group carries
/// them) into a **single** `generate_window` call, then splits the result
/// back into one matrix per group.
///
/// This is the look-ahead hand-off: the whole coalesced batch reaches the
/// generator as one future access window, so a window-aware backend (the
/// look-ahead ORAM) prefetches and deduplicates across *all* the groups,
/// and read-only and updating requests travel through the identical code
/// path — a trace observer cannot tell which groups carried gradients.
/// For read-only batches against any other generator
/// `generate_window` is `generate_batch`.
///
/// # Panics
///
/// Panics if a group is empty, an update's row count disagrees with its
/// group's index count, or an update reaches a generator without an
/// oblivious write path (the engine gates all three at admission).
pub fn execute_batch_ops(
    generator: &mut dyn EmbeddingGenerator,
    groups: &[(&[u64], Option<&Matrix>)],
) -> Vec<Matrix> {
    if groups.is_empty() {
        return Vec::new();
    }
    let total: usize = groups.iter().map(|(ix, _)| ix.len()).sum();
    let mut flat = Vec::with_capacity(total);
    let mut updates: Vec<Option<&[f32]>> = Vec::with_capacity(total);
    for &(indices, deltas) in groups {
        assert!(!indices.is_empty(), "execute_batch_ops: empty group");
        flat.extend_from_slice(indices);
        match deltas {
            None => updates.extend(indices.iter().map(|_| None)),
            Some(m) => {
                assert_eq!(
                    m.rows(),
                    indices.len(),
                    "execute_batch_ops: update row count != index count"
                );
                updates.extend(m.iter_rows().map(Some));
            }
        }
    }
    let out = generator.generate_window(&flat, &updates);
    let dim = out.cols();
    let data = out.as_slice();
    let mut result = Vec::with_capacity(groups.len());
    let mut start = 0;
    for (indices, _) in groups {
        let rows = indices.len();
        result.push(Matrix::from_vec(
            rows,
            dim,
            data[start * dim..(start + rows) * dim].to_vec(),
        ));
        start += rows;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb::GeneratorSpec;

    #[test]
    fn default_policy_is_sane() {
        let p = BatchPolicy::default();
        assert!(p.max_batch > 0);
    }

    #[test]
    fn split_matches_direct_per_group() {
        let spec = GeneratorSpec::Scan { rows: 100, dim: 8 };
        let mut coalesced = spec.build(9);
        let mut direct = spec.build(9);
        let groups = vec![vec![5u64, 99], vec![0], vec![41, 41, 7]];
        let outs = execute_batch(coalesced.as_mut(), &groups);
        assert_eq!(outs.len(), 3);
        for (g, m) in groups.iter().zip(&outs) {
            assert_eq!(m, &direct.generate_batch(g));
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let mut g = GeneratorSpec::Scan { rows: 10, dim: 4 }.build(0);
        assert!(execute_batch(g.as_mut(), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_is_a_bug() {
        let mut g = GeneratorSpec::Scan { rows: 10, dim: 4 }.build(0);
        execute_batch(g.as_mut(), &[vec![]]);
    }

    #[test]
    fn read_only_ops_match_execute_batch() {
        let spec = GeneratorSpec::Scan { rows: 100, dim: 8 };
        let mut via_ops = spec.build(9);
        let mut via_batch = spec.build(9);
        let groups = vec![vec![5u64, 99], vec![0], vec![41, 41, 7]];
        let op_groups: Vec<(&[u64], Option<&Matrix>)> =
            groups.iter().map(|g| (g.as_slice(), None)).collect();
        assert_eq!(
            execute_batch_ops(via_ops.as_mut(), &op_groups),
            execute_batch(via_batch.as_mut(), &groups)
        );
    }

    #[test]
    fn mixed_ops_apply_updates_through_laoram() {
        let spec = GeneratorSpec::LaOram { rows: 32, dim: 4 };
        let mut g = spec.build(3);
        let deltas = Matrix::from_fn(2, 4, |_, c| (c as f32) + 1.0);
        let before = g.generate_batch(&[6, 7]);
        let groups: [(&[u64], Option<&Matrix>); 2] = [
            (&[6, 7], Some(&deltas)),
            (&[6], None), // reads in a later group see the update
        ];
        let outs = execute_batch_ops(g.as_mut(), &groups);
        assert_eq!(outs.len(), 2);
        for r in 0..2 {
            for c in 0..4 {
                assert_eq!(outs[0].row(r)[c], before.row(r)[c] + deltas.row(r)[c]);
            }
        }
        assert_eq!(outs[1].row(0), outs[0].row(0));
    }

    #[test]
    #[should_panic(expected = "update row count")]
    fn mismatched_update_shape_is_a_bug() {
        let mut g = GeneratorSpec::LaOram { rows: 16, dim: 4 }.build(0);
        execute_batch_ops(g.as_mut(), &[(&[1, 2], Some(&Matrix::zeros(1, 4)))]);
    }
}
