//! Shared construction helpers: region assignment and initial layout.

use crate::block::DUMMY_ID;
use crate::stash::Stash;
use crate::tree::Tree;
use rand::Rng;
use secemb_trace::tracer::RegionId;

/// Trace region of the bucket tree at recursion depth `depth`.
pub fn tree_region(depth: u32) -> RegionId {
    RegionId(0x100 + 4 * depth)
}

/// Trace region of the stash at recursion depth `depth`.
pub fn stash_region(depth: u32) -> RegionId {
    RegionId(0x100 + 4 * depth + 1)
}

/// Trace region of a flat position map at recursion depth `depth`.
pub fn posmap_region(depth: u32) -> RegionId {
    RegionId(0x100 + 4 * depth + 2)
}

/// A byte count as a tracer event length. Called once per structure at
/// construction, so an oversized region is rejected up front instead of
/// wrapping silently in every event it later emits.
///
/// # Panics
///
/// Panics if `bytes` exceeds `u32::MAX`.
pub(crate) fn trace_len(bytes: u64) -> u32 {
    u32::try_from(bytes).expect("trace event length exceeds u32")
}

/// Assigns each of `n_blocks` blocks a uniform leaf and places it as deep
/// as possible on its own path (falling back to the stash), returning the
/// leaf labels. `fill(id, payload)` writes block `id`'s words straight
/// into its arena slot — no intermediate copy of the block set exists —
/// and is called once per block in id order, so a fill may draw each
/// block's contents from a stream as it goes.
///
/// Runs at construction time, before any secret-dependent request exists,
/// so it is intentionally untraced — a real deployment performs the same
/// one-time oblivious build before serving.
pub fn initial_layout(
    n_blocks: u64,
    tree: &mut Tree,
    stash: &mut Stash,
    rng: &mut impl Rng,
    fill: &mut dyn FnMut(u64, &mut [u32]),
) -> Vec<u64> {
    let leaves = tree.leaves();
    let levels = tree.levels();
    let mut labels = Vec::with_capacity(n_blocks as usize);
    for id in 0..n_blocks {
        let leaf = rng.gen_range(0..leaves);
        labels.push(leaf);
        let home = (0..=levels).rev().find_map(|level| {
            let idx = tree.bucket_index(level, leaf);
            let free = tree.bucket(idx).ids.iter().position(|&i| i == DUMMY_ID)?;
            Some((idx, free))
        });
        let slot = match home {
            Some((idx, free)) => tree.bucket_mut(idx).into_slot(free),
            None => stash.free_slot_untraced(),
        };
        *slot.id = id;
        *slot.leaf = leaf;
        fill(id, slot.data);
    }
    labels
}

/// The `fill` callback for a block set held as one `Vec` per block.
///
/// # Panics
///
/// The returned closure panics if a block's width differs from the slot's.
pub fn fill_from_blocks(blocks: &[Vec<u32>]) -> impl FnMut(u64, &mut [u32]) + '_ {
    |id, dst| {
        let src = &blocks[id as usize];
        assert_eq!(
            src.len(),
            dst.len(),
            "initial_layout: block {id} has wrong width"
        );
        dst.copy_from_slice(src);
    }
}

/// Exhaustively checks tree/stash residency: every block `0..n_blocks`
/// exists exactly once (tree or stash), tree residents sit on the path to
/// their own leaf, and — when the caller can supply the position map's
/// `labels` — every resident's leaf agrees with it. Untraced and linear in
/// the tree: a testing aid, never called on a serving path.
///
/// # Panics
///
/// Panics on any violation.
pub fn check_residency(tree: &Tree, stash: &Stash, n_blocks: u64, labels: Option<&[u64]>) {
    let mut copies = vec![0u32; n_blocks as usize];
    let mut visit = |id: u64, leaf: u64, place: &str| {
        assert!(id < n_blocks, "{place} holds unknown block {id}");
        copies[id as usize] += 1;
        if let Some(labels) = labels {
            assert_eq!(
                labels[id as usize], leaf,
                "block {id} ({place}) leaf disagrees with posmap"
            );
        }
    };
    // Label `j` reaches bucket `j` of every level it has (see `Tree`).
    for level in 0..=tree.levels() {
        for j in 0..tree.leaves().min(1 << level) {
            let idx = tree.bucket_index(level, j);
            for blk in tree.bucket(idx).slots().filter(|blk| !blk.is_dummy()) {
                visit(blk.id, blk.leaf, "tree");
                assert_eq!(
                    tree.bucket_index(level, blk.leaf),
                    idx,
                    "block {} resides off its mapped path",
                    blk.id
                );
            }
        }
    }
    for blk in stash.slots().slots().filter(|blk| !blk.is_dummy()) {
        visit(blk.id, blk.leaf, "stash");
    }
    for (id, &c) in copies.iter().enumerate() {
        assert_eq!(c, 1, "block {id} has {c} copies (must be exactly 1)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OramConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layout_places_every_block() {
        let cfg = OramConfig::path(2);
        let blocks: Vec<Vec<u32>> = (0..50u32).map(|i| vec![i, i + 1]).collect();
        let mut tree = Tree::new(50, &cfg, tree_region(0));
        let mut stash = Stash::new(&cfg, stash_region(0));
        let mut rng = StdRng::seed_from_u64(0);
        let labels = initial_layout(
            50,
            &mut tree,
            &mut stash,
            &mut rng,
            &mut fill_from_blocks(&blocks),
        );
        assert_eq!(labels.len(), 50);
        // Every block exactly once, on its own path or in the stash, with
        // its payload intact.
        check_residency(&tree, &stash, 50, Some(&labels));
        for (id, &leaf) in labels.iter().enumerate() {
            let on_path = (0..=tree.levels())
                .flat_map(|lvl| tree.bucket(tree.bucket_index(lvl, leaf)).slots())
                .chain(stash.slots().slots())
                .find(|b| b.id == id as u64)
                .expect("block lost at setup");
            assert_eq!(on_path.data, blocks[id].as_slice());
        }
    }

    #[test]
    fn initial_layout_fits_the_stash_at_the_rules_fullest() {
        // n = 2^k fills the rule's tree to exactly Z blocks per leaf, its
        // worst case; Circuit ORAM's 10-slot stash is the tightest.
        let cfg = OramConfig::circuit(1);
        let mut worst = 0;
        for k in 10..=20 {
            let n = 1u64 << k;
            let mut tree = Tree::new(n, &cfg, tree_region(0));
            assert_eq!(tree.leaves() * cfg.bucket_size as u64, n);
            let mut stash = Stash::new(&cfg, stash_region(0));
            let mut rng = StdRng::seed_from_u64(k);
            initial_layout(n, &mut tree, &mut stash, &mut rng, &mut |_, _| {});
            assert!(stash.occupancy() <= stash.capacity());
            worst = worst.max(stash.occupancy());
        }
        println!("largest stash after initial placement, n = 2^10..2^20: {worst}");
    }

    #[test]
    #[should_panic(expected = "stash overflow during initial placement")]
    fn initial_layout_overflow_panics() {
        // One bucket of Z = 4 and a 10-slot stash cannot place 15 blocks.
        let cfg = OramConfig::circuit(1);
        let mut tree = Tree::new(1, &cfg, tree_region(0));
        let mut stash = Stash::new(&cfg, stash_region(0));
        let mut rng = StdRng::seed_from_u64(0);
        initial_layout(15, &mut tree, &mut stash, &mut rng, &mut |_, _| {});
    }

    #[test]
    #[should_panic(expected = "has 0 copies")]
    fn residency_check_catches_a_lost_block() {
        let cfg = OramConfig::path(2);
        let tree = Tree::new(4, &cfg, tree_region(0));
        let stash = Stash::new(&cfg, stash_region(0));
        check_residency(&tree, &stash, 4, None);
    }

    #[test]
    fn trace_len_accepts_the_whole_u32_range() {
        assert_eq!(trace_len(u32::MAX as u64), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "trace event length exceeds u32")]
    fn trace_len_rejects_wrap() {
        // A never-recursing position map wraps here at 2^29 labels.
        trace_len((1u64 << 29) * 8);
    }

    #[test]
    fn regions_distinct_across_depths() {
        assert_ne!(tree_region(0), tree_region(1));
        assert_ne!(tree_region(0), stash_region(0));
        assert_ne!(stash_region(0), posmap_region(0));
    }
}
