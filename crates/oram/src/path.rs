//! Path ORAM (Stefanov et al., CCS'13), recursive, stash-hardened.

use crate::block::Slots;
use crate::config::OramConfig;
use crate::posmap::PosMap;
use crate::setup::{
    check_residency, fill_from_blocks, initial_layout, posmap_region, stash_region, tree_region,
};
use crate::stash::Stash;
use crate::stats::AccessStats;
use crate::tree::Tree;
use crate::Oram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Path ORAM instance over `n` fixed-width blocks.
///
/// Per access: the position map is read-and-remapped, the whole path to the
/// old leaf is pulled into the stash (obliviously, slot by slot), the block
/// is served from the stash, and the path is rebuilt greedily deepest-first
/// with one full stash scan per bucket slot. That write-back is the
/// `O(path · Z · stash)` loop that makes Path ORAM the slower of the two
/// controllers in the paper's Fig. 10.
#[derive(Debug)]
pub struct PathOram {
    tree: Tree,
    stash: Stash,
    posmap: PosMap,
    config: OramConfig,
    n_blocks: u64,
    rng: StdRng,
    stats: AccessStats,
    /// The bucket being assembled for write-back (`Z` slots).
    to_write: Slots,
}

impl PathOram {
    /// Builds an ORAM holding `blocks` (block `i` gets id `i`).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, if any block's width differs from
    /// `config.block_words`, or if the config is invalid.
    pub fn new(blocks: &[Vec<u32>], config: OramConfig, rng: StdRng) -> Self {
        Self::from_fn(
            blocks.len() as u64,
            config,
            rng,
            &mut fill_from_blocks(blocks),
        )
    }

    /// Builds an ORAM of `n_blocks` blocks whose contents come from
    /// `fill(id, payload)`, called once per block with the block's own
    /// arena slot — the block set is never materialised a second time.
    /// Draws from `rng` exactly as [`PathOram::new`] does.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero or the config is invalid.
    pub fn from_fn(
        n_blocks: u64,
        config: OramConfig,
        rng: StdRng,
        fill: &mut dyn FnMut(u64, &mut [u32]),
    ) -> Self {
        Self::with_depth(n_blocks, config, rng, 0, fill)
    }

    fn with_depth(
        n_blocks: u64,
        config: OramConfig,
        rng: StdRng,
        depth: u32,
        fill: &mut dyn FnMut(u64, &mut [u32]),
    ) -> Self {
        config.validate();
        let tree = Tree::new(n_blocks, &config, tree_region(depth));
        Self::with_tree(tree, n_blocks, config, rng, depth, fill)
    }

    /// [`Self::with_depth`] over a caller-built `tree`. The stash-tail
    /// harness hands in a tree sized for fewer than `n_blocks` blocks to
    /// measure occupancies above the sizing rule's.
    pub(crate) fn with_tree(
        mut tree: Tree,
        n_blocks: u64,
        config: OramConfig,
        mut rng: StdRng,
        depth: u32,
        fill: &mut dyn FnMut(u64, &mut [u32]),
    ) -> Self {
        assert!(n_blocks > 0, "PathOram: empty block set");
        let mut stash = Stash::new(&config, stash_region(depth));
        let labels = initial_layout(n_blocks, &mut tree, &mut stash, &mut rng, fill);
        let inner_seed: u64 = rng.gen();
        let posmap = PosMap::build(
            labels,
            &config,
            posmap_region(depth),
            &mut |n_inner, fanout, fill_inner| {
                let mut inner_cfg = config;
                inner_cfg.block_words = fanout;
                Box::new(PathOram::with_depth(
                    n_inner,
                    inner_cfg,
                    StdRng::seed_from_u64(inner_seed),
                    depth + 1,
                    fill_inner,
                ))
            },
        );
        PathOram {
            tree,
            stash,
            posmap,
            config,
            n_blocks,
            rng,
            stats: AccessStats::default(),
            to_write: Slots::dummy(config.bucket_size, config.block_words),
        }
    }

    /// Current stash occupancy (public; bounded by the overflow theorem).
    pub fn stash_occupancy(&self) -> usize {
        self.stash.occupancy()
    }

    /// Tree depth (levels below the root).
    pub fn levels(&self) -> u32 {
        self.tree.levels()
    }

    /// Exhaustively checks, between accesses, that every block exists
    /// exactly once — on the path to its own leaf or in the stash — and,
    /// when the position map is flat, that its leaf agrees with the map.
    /// Untraced testing aid, linear in the tree.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn check_invariants(&self) {
        check_residency(
            &self.tree,
            &self.stash,
            self.n_blocks,
            self.posmap.plain_labels(),
        );
    }
}

impl Oram for PathOram {
    fn access_into(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32]), out: &mut [u32]) {
        assert!(id < self.n_blocks, "PathOram: id {id} out of range");
        assert_eq!(
            out.len(),
            self.config.block_words,
            "PathOram: out length != block_words"
        );
        self.stats.accesses += 1;
        let new_leaf = self.rng.gen_range(0..self.tree.leaves());
        let old_leaf = self.posmap.get_and_set(id, new_leaf, &mut self.stats);

        // Read the whole path into the stash, straight from the arena.
        let levels = self.tree.levels();
        for level in 0..=levels {
            let bucket = self
                .tree
                .read_bucket(self.tree.bucket_index(level, old_leaf));
            self.stats.bucket_reads += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
            for block in bucket.slots() {
                // Dummy inserts are no-ops but still scan: constant shape.
                self.stash.insert(block, &mut self.stats);
            }
        }

        // Serve the request from the stash.
        let found = self.stash.find_update(
            id,
            new_leaf,
            &mut |data| {
                mutate(data);
                out.copy_from_slice(data);
            },
            &mut self.stats,
        );
        assert!(found, "PathOram invariant violated: block {id} not found");

        // Greedy deepest-first write-back.
        for level in (0..=levels).rev() {
            for mut slot in self.to_write.all_mut().slots_mut() {
                slot.set_dummy();
                self.stash.extract_eligible(
                    level,
                    |leaf| self.tree.deepest_legal(leaf, old_leaf),
                    slot,
                    &mut self.stats,
                );
            }
            self.tree
                .write_bucket(self.tree.bucket_index(level, old_leaf))
                .copy_from(self.to_write.all());
            self.stats.bucket_writes += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
        }
        self.stats.evictions += 1;
    }

    fn len(&self) -> u64 {
        self.n_blocks
    }

    fn block_words(&self) -> usize {
        self.config.block_words
    }

    fn stats(&self) -> AccessStats {
        let mut s = self.stats;
        s.merge(&self.posmap.inner_stats());
        s
    }

    fn stash_occupancy(&self) -> usize {
        self.stash.occupancy()
    }

    fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
        self.posmap.reset_inner_stats();
    }

    fn memory_bytes(&self) -> u64 {
        self.tree.memory_bytes() + self.stash.memory_bytes() + self.posmap.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn build(n: u32, words: usize, seed: u64) -> PathOram {
        let blocks: Vec<Vec<u32>> = (0..n).map(|i| vec![i; words]).collect();
        PathOram::new(
            &blocks,
            OramConfig::path(words),
            StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn reads_initial_contents() {
        let mut oram = build(40, 4, 1);
        for id in [0u64, 13, 39] {
            assert_eq!(oram.read(id), vec![id as u32; 4]);
        }
    }

    #[test]
    fn random_workload_matches_model() {
        let mut oram = build(64, 2, 2);
        let mut model: HashMap<u64, Vec<u32>> = (0..64).map(|i| (i, vec![i as u32; 2])).collect();
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..400 {
            let id = rng.gen_range(0..64u64);
            if rng.gen_bool(0.5) {
                let val = vec![rng.gen::<u32>(); 2];
                oram.write(id, &val);
                model.insert(id, val);
            } else {
                assert_eq!(&oram.read(id), model.get(&id).unwrap(), "step {step}");
            }
        }
        assert!(oram.stash_occupancy() <= 150);
    }

    #[test]
    fn recursion_exercised() {
        let mut cfg = OramConfig::path(2);
        cfg.recursion_threshold = 8; // force 2+ posmap levels for 200 blocks
        cfg.posmap_fanout = 4;
        let blocks: Vec<Vec<u32>> = (0..200u32).map(|i| vec![i, i * 3]).collect();
        let mut oram = PathOram::new(&blocks, cfg, StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..150 {
            let id = rng.gen_range(0..200u64);
            assert_eq!(oram.read(id)[0], id as u32);
        }
        assert!(
            oram.stats().posmap_accesses > 150,
            "recursive posmap accesses must be counted"
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut oram = build(32, 2, 3);
        oram.read(0);
        let s = oram.stats();
        assert_eq!(s.accesses, 1);
        // Path of levels+1 buckets read and written.
        let expect = (oram.levels() + 1) as u64;
        assert_eq!(s.bucket_reads, expect);
        assert_eq!(s.bucket_writes, expect);
        assert!(s.stash_scans > 0);
        oram.reset_stats();
        assert_eq!(oram.stats(), AccessStats::default());
    }

    #[test]
    fn memory_includes_tree_stash_posmap() {
        let oram = build(32, 4, 4);
        let m = oram.memory_bytes();
        assert!(m > 32 * 16, "must exceed raw data size");
        assert_eq!(
            m,
            oram.tree.memory_bytes() + oram.stash.memory_bytes() + oram.posmap.memory_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        build(8, 2, 0).read(8);
    }

    #[test]
    fn write_then_read_persists_across_many_accesses() {
        let mut oram = build(16, 2, 6);
        oram.write(3, &[7, 8]);
        // Churn other blocks to force evictions.
        for i in 0..16u64 {
            oram.read(i);
        }
        assert_eq!(oram.read(3), vec![7, 8]);
    }
}
