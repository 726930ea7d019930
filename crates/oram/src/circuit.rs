//! Circuit ORAM (Wang, Chan & Shi, CCS'15), recursive.

use crate::block::{Block, DUMMY_ID};
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
use secemb_obliv::Choice;

/// Sentinel for "the stash" in the per-level metadata arrays (levels are
/// `0..=L`, the stash sits conceptually above the root).
const STASH_LEVEL: i64 = -1;

/// A Circuit ORAM instance over `n` fixed-width blocks.
///
/// Per access: the position map is read-and-remapped, the path is scanned
/// and **only the requested block** is lifted into the stash, and two
/// deterministic reverse-lexicographic eviction passes run. Each eviction
/// prepares `deepest`/`target` metadata and then moves blocks down the path
/// in a single sweep with one "held" block — the design that lets Circuit
/// ORAM work with a stash 15× smaller than Path ORAM's and far fewer
/// oblivious stash iterations (§IV-A2).
///
/// Buckets are mutated in place in the tree arena; the only blocks that
/// ever leave it are the three single-block scratch buffers below.
#[derive(Debug)]
pub struct CircuitOram {
    tree: Tree,
    stash: Stash,
    posmap: PosMap,
    config: OramConfig,
    n_blocks: u64,
    rng: StdRng,
    stats: AccessStats,
    /// Reverse-lexicographic eviction counter.
    evict_counter: u64,
    /// The block being served.
    found: Block,
    /// Eviction: the block in flight down the path.
    hold: Block,
    /// Eviction: the block being dropped at the current level.
    to_write: Block,
    /// Eviction metadata, one entry per level.
    deepest: Vec<Option<i64>>,
    target: Vec<Option<i64>>,
    has_empty: Vec<bool>,
}

impl CircuitOram {
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
    /// Draws from `rng` exactly as [`CircuitOram::new`] does.
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
        assert!(n_blocks > 0, "CircuitOram: empty block set");
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
                Box::new(CircuitOram::with_depth(
                    n_inner,
                    inner_cfg,
                    StdRng::seed_from_u64(inner_seed),
                    depth + 1,
                    fill_inner,
                ))
            },
        );
        let path_len = tree.levels() as usize + 1;
        let words = config.block_words;
        CircuitOram {
            tree,
            stash,
            posmap,
            config,
            n_blocks,
            rng,
            stats: AccessStats::default(),
            evict_counter: 0,
            found: Block::dummy(words),
            hold: Block::dummy(words),
            to_write: Block::dummy(words),
            deepest: vec![None; path_len],
            target: vec![None; path_len],
            has_empty: vec![false; path_len],
        }
    }

    /// Current stash occupancy (public).
    pub fn stash_occupancy(&self) -> usize {
        self.stash.occupancy()
    }

    /// Tree depth (levels below the root).
    pub fn levels(&self) -> u32 {
        self.tree.levels()
    }

    /// Exhaustively checks, between accesses, that every block exists
    /// exactly once — on the path to its own leaf or in the stash — at
    /// this level and every position-map recursion level below it that is
    /// flat enough to read. Untraced testing aid, linear in the tree.
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

    /// The access up to its evictions: remap block `id`, lift it off its
    /// path (or out of the stash), let `mutate` edit it, copy it to `out`
    /// and put it back into the stash.
    pub(crate) fn lift(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32]), out: &mut [u32]) {
        assert!(id < self.n_blocks, "CircuitOram: id {id} out of range");
        assert_eq!(
            out.len(),
            self.config.block_words,
            "CircuitOram: out length != block_words"
        );
        self.stats.accesses += 1;
        let new_leaf = self.rng.gen_range(0..self.tree.leaves());
        let old_leaf = self.posmap.get_and_set(id, new_leaf, &mut self.stats);

        // Scan the path, lifting only the requested block out of the
        // buckets where they lie.
        let found = &mut self.found;
        found.id = DUMMY_ID;
        for level in 0..=self.tree.levels() {
            let idx = self.tree.bucket_index(level, old_leaf);
            self.tree.read_bucket(idx);
            self.stats.bucket_reads += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
            for mut b in self.tree.write_bucket(idx).slots_mut() {
                let take = b.ct_is(id);
                found.as_mut().ct_take_from(take, &mut b);
            }
            self.stats.bucket_writes += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
        }
        // The block may instead be waiting in the stash.
        self.stash.extract(id, found.as_mut(), &mut self.stats);
        assert!(
            found.as_ref().ct_is(id).to_bool(),
            "CircuitOram invariant violated: block {id} not found"
        );

        found.leaf = new_leaf;
        mutate(&mut found.data);
        out.copy_from_slice(&found.data);
        self.stash.insert(found.as_ref(), &mut self.stats);
    }

    /// One eviction along the next path of the reverse-lexicographic
    /// schedule ([`Tree::eviction_leaf`]).
    pub(crate) fn evict_next(&mut self) {
        let leaf = self.tree.eviction_leaf(&mut self.evict_counter);
        self.evict(leaf);
    }

    /// One metadata-prepared single-pass eviction along the path to `leaf`.
    fn evict(&mut self, leaf: u64) {
        let CircuitOram {
            tree,
            stash,
            stats,
            hold,
            to_write,
            deepest,
            target,
            has_empty,
            ..
        } = self;
        let levels = tree.levels() as usize;
        let bucket_bytes = tree.bucket_bytes();

        // --- PrepareDeepest, fused with the path read (data + metadata in
        // one transfer): deepest[i] = source level of the deepest block
        // above level i that can legally move to level i or below. Reads
        // only the dense id/leaf arrays.
        deepest.fill(None);
        let mut src: Option<i64> = None;
        let mut goal: i64 = -1;
        if let Some(l) = stash.deepest_level(|l| tree.deepest_legal(l, leaf)) {
            goal = l as i64;
            src = Some(STASH_LEVEL);
        }
        for i in 0..=levels {
            let bucket = tree.read_bucket(tree.bucket_index(i as u32, leaf));
            if goal >= i as i64 {
                deepest[i] = src;
            }
            let mut l: Option<i64> = None;
            let mut empty = false;
            for (&id, &block_leaf) in bucket.ids.iter().zip(bucket.leaves) {
                if id == DUMMY_ID {
                    empty = true;
                } else {
                    l = l.max(Some(tree.deepest_legal(block_leaf, leaf) as i64));
                }
            }
            has_empty[i] = empty;
            if let Some(l) = l {
                if l > goal {
                    goal = l;
                    src = Some(i as i64);
                }
            }
        }
        stats.bucket_reads += (levels + 1) as u64;
        stats.bytes_moved += (levels as u64 + 1) * bucket_bytes;

        // --- PrepareTarget: target[i] = level the block picked up at i
        // will be dropped at.
        target.fill(None);
        let mut target_stash: Option<i64> = None;
        let mut dest: Option<i64> = None;
        let mut src2: Option<i64> = None;
        for i in (0..=levels).rev() {
            if src2 == Some(i as i64) {
                target[i] = dest;
                dest = None;
                src2 = None;
            }
            if ((dest.is_none() && has_empty[i]) || target[i].is_some()) && deepest[i].is_some() {
                src2 = deepest[i];
                dest = Some(i as i64);
            }
        }
        if src2 == Some(STASH_LEVEL) {
            target_stash = dest;
        }

        // --- EvictOnceFast: single root-to-leaf sweep with one held block,
        // each bucket rewritten in place as the sweep passes it.
        debug_assert!(hold.is_dummy() && to_write.is_dummy());
        let mut hold_dest: Option<i64> = None;
        if let Some(d) = target_stash {
            stash.extract_deepest(|l| tree.deepest_legal(l, leaf), hold.as_mut(), stats);
            debug_assert!(!hold.is_dummy(), "target_stash implies an eligible block");
            hold_dest = Some(d);
        }
        for (i, &drop_at) in target.iter().enumerate() {
            if !hold.is_dummy() && hold_dest == Some(i as i64) {
                std::mem::swap(hold, to_write);
                hold_dest = None;
            }
            let idx = tree.bucket_index(i as u32, leaf);
            if drop_at.is_some() {
                // Remove the deepest block of this bucket into the hold.
                let bucket = tree.bucket(idx);
                let mut best: Option<(u32, usize)> = None;
                for (s, (&id, &block_leaf)) in bucket.ids.iter().zip(bucket.leaves).enumerate() {
                    if id == DUMMY_ID {
                        continue;
                    }
                    let d = tree.deepest_legal(block_leaf, leaf);
                    if best.is_none_or(|(bd, _)| d > bd) {
                        best = Some((d, s));
                    }
                }
                let (_, slot) = best.expect("target level must hold a block");
                // Constant-time removal by slot index.
                for (s, mut b) in tree.bucket_mut(idx).slots_mut().enumerate() {
                    let take = Choice::from_bool(s == slot);
                    hold.as_mut().ct_take_from(take, &mut b);
                }
                hold_dest = drop_at;
            }
            let mut bucket = tree.write_bucket(idx);
            if !to_write.is_dummy() {
                let placed = bucket.ct_place(to_write.as_ref());
                assert!(placed.to_bool(), "eviction targeted a full bucket");
                to_write.id = DUMMY_ID;
            }
        }
        debug_assert!(hold.is_dummy(), "held block must be dropped by the leaf");
        stats.bucket_writes += (levels + 1) as u64;
        stats.bytes_moved += (levels as u64 + 1) * bucket_bytes;
        stats.evictions += 1;
    }
}

impl Oram for CircuitOram {
    fn access_into(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32]), out: &mut [u32]) {
        self.lift(id, mutate, out);
        // Two deterministic evictions per access.
        self.evict_next();
        self.evict_next();
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

    fn build(n: u32, words: usize, seed: u64) -> CircuitOram {
        let blocks: Vec<Vec<u32>> = (0..n).map(|i| vec![i; words]).collect();
        CircuitOram::new(
            &blocks,
            OramConfig::circuit(words),
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
            assert!(
                oram.stash_occupancy() <= 10,
                "stash exceeded Circuit ORAM bound at step {step}"
            );
        }
    }

    #[test]
    fn hammering_one_block_keeps_stash_small() {
        let mut oram = build(128, 2, 3);
        for _ in 0..300 {
            oram.read(7);
            assert!(oram.stash_occupancy() <= 10);
        }
    }

    #[test]
    fn recursion_exercised() {
        let mut cfg = OramConfig::circuit(2);
        cfg.recursion_threshold = 8;
        cfg.posmap_fanout = 4;
        let blocks: Vec<Vec<u32>> = (0..200u32).map(|i| vec![i, i * 3]).collect();
        let mut oram = CircuitOram::new(&blocks, cfg, StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..150 {
            let id = rng.gen_range(0..200u64);
            assert_eq!(oram.read(id)[0], id as u32);
        }
        assert!(oram.stats().posmap_accesses > 150);
    }

    #[test]
    fn fewer_stash_slots_scanned_than_path() {
        // The headline efficiency claim: Circuit ORAM performs far fewer
        // oblivious stash-slot visits per access than Path ORAM.
        let mut circuit = build(256, 8, 11);
        let mut path = {
            let blocks: Vec<Vec<u32>> = (0..256u32).map(|i| vec![i; 8]).collect();
            crate::PathOram::new(&blocks, OramConfig::path(8), StdRng::seed_from_u64(11))
        };
        for id in 0..50u64 {
            circuit.read(id % 256);
            path.read(id % 256);
        }
        let c = circuit.stats().stash_slots_scanned;
        let p = path.stats().stash_slots_scanned;
        assert!(
            c * 5 < p,
            "circuit ({c}) should scan far fewer stash slots than path ({p})"
        );
    }

    #[test]
    fn evict_counter_advances() {
        let mut oram = build(32, 2, 0);
        oram.read(0);
        oram.read(1);
        assert_eq!(oram.evict_counter, 4, "two evictions per access");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        build(8, 2, 0).read(8);
    }
}
