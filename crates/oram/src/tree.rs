//! The bucket tree shared by both controllers.

use crate::block::{BucketMut, BucketRef, Slots};
use crate::config::OramConfig;
use crate::setup::trace_len;
use secemb_trace::tracer::{self, RegionId};

/// Leaf count of the tree that holds `n_blocks` real blocks in buckets of
/// `bucket_size` slots: one leaf per `bucket_size` blocks, `⌈n / Z⌉`, so
/// the leaves carry more than `Z − 1` and at most `Z` blocks each on
/// average. The tree over them ([`tree_buckets`]) has 2–3 buckets per
/// leaf, so at most 33–50 % of its slots are occupied.
///
/// The one sizing rule of every tree ORAM in the workspace — Path,
/// Circuit and look-ahead ORAM, and the footprint model of Table VI. It
/// was chosen by measuring stash tails over ≥ 10⁷ seeded accesses per
/// cell at `Z/2` to `2Z` blocks per leaf (crate-internal `stash_tail`
/// tests; the tail table, its exponential fit and the bound are in
/// EXPERIMENTS.md, "Tree sizing"). At `Z` blocks per leaf an access
/// overflows the default stash with probability at most 2⁻³⁰ (Circuit
/// ORAM; Path ORAM 2⁻⁵⁵ — see [`OramConfig`]; look-ahead ORAM 2⁻³⁷ per
/// window of 64), measured on 1 024, 1 000 and 768 leaves. Shorter leaf
/// levels are measured by the CI-sized runs only, to 2⁻¹².
pub fn tree_leaves(n_blocks: u64, bucket_size: usize) -> u64 {
    n_blocks.div_ceil(bucket_size as u64).max(1)
}

/// Bucket count of the tree over `leaves` leaf labels: every level above
/// the leaves is full (`2^L − 1` buckets, `L = ⌈log₂ leaves⌉`) and the
/// leaf level holds one bucket per label. The one formula behind
/// [`Tree::new`] and the footprint model.
pub fn tree_buckets(leaves: u64) -> u64 {
    (1u64 << depth(leaves)) - 1 + leaves
}

/// `⌈log₂ leaves⌉`: the level of the leaf buckets.
fn depth(leaves: u64) -> u32 {
    leaves.next_power_of_two().trailing_zeros()
}

/// A balanced binary tree of buckets, each holding `Z` (possibly dummy)
/// blocks, stored as one flat [`Slots`] arena: bucket `b` is slots
/// `b·Z .. (b+1)·Z`.
///
/// Levels are numbered from the root (level 0) to the leaves (level
/// `L = levels()`). Leaf labels are `0..leaves()`, any count. A label
/// picks its path by its *low* bits: at level `l < L` the path to label
/// `j` passes bucket `2^l − 1 + (j mod 2^l)`, and it ends in leaf bucket
/// `2^L − 1 + j`. So every level above the leaves is full and only the
/// leaf level is short, every path is `L + 1` buckets long, and two
/// labels share exactly the levels up to their lowest differing bit.
///
/// [`Tree::read_bucket`] and [`Tree::write_bucket`] report a whole-bucket
/// access to the tracer under this tree's region id — buckets are always
/// moved in their entirety, exactly like the encrypted bucket transfers
/// of a real controller — and hand back a borrowed view; nothing is
/// copied.
#[derive(Clone, Debug)]
pub struct Tree {
    levels: u32,
    leaves: u64,
    z: usize,
    slots: Slots,
    region: RegionId,
    /// `bucket_bytes()` as a trace event length, validated once.
    bucket_len: u32,
}

impl Tree {
    /// Builds an empty tree for `n_blocks` real blocks, with
    /// [`tree_leaves`] leaves and [`tree_buckets`] buckets: at most 50 %
    /// of its slots will be occupied, where an access overflows the
    /// default stash with probability at most 2⁻³⁰ (measured; see
    /// [`tree_leaves`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.bucket_size` is zero or one bucket's byte size
    /// does not fit a trace event length.
    pub fn new(n_blocks: u64, config: &OramConfig, region: RegionId) -> Self {
        let bucket_len = trace_len(config.bucket_size as u64 * config.block_bytes());
        let leaves = tree_leaves(n_blocks, config.bucket_size);
        let bucket_count = tree_buckets(leaves) as usize;
        Tree {
            levels: depth(leaves),
            leaves,
            z: config.bucket_size,
            slots: Slots::dummy(bucket_count * config.bucket_size, config.block_words),
            region,
            bucket_len,
        }
    }

    /// Leaf label count.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Index of the deepest level (root is level 0); a path has
    /// `levels() + 1` buckets.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Payload words per block.
    pub fn block_words(&self) -> usize {
        self.slots.words()
    }

    /// Blocks per bucket.
    pub fn bucket_size(&self) -> usize {
        self.z
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.slots.len() / self.z
    }

    /// Flat index of the bucket at `level` on the path to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `level > levels()` or `leaf >= leaves()`.
    pub fn bucket_index(&self, level: u32, leaf: u64) -> usize {
        assert!(level <= self.levels, "level out of range");
        assert!(leaf < self.leaves, "leaf out of range");
        // At level L the mask keeps all of `leaf`, which is below 2^L.
        let first = (1u64 << level) - 1;
        (first + (leaf & first)) as usize
    }

    /// The deepest level at which a block mapped to `block_leaf` may reside
    /// on the path to `path_leaf` (0 = root only): the paths share every
    /// level up to the lowest bit in which the labels differ.
    pub fn deepest_legal(&self, block_leaf: u64, path_leaf: u64) -> u32 {
        (block_leaf ^ path_leaf).trailing_zeros().min(self.levels)
    }

    /// The leaf of the next path on the deterministic eviction schedule,
    /// advancing `counter`: labels round-robin, `counter mod leaves()`.
    /// Consecutive labels differ in their lowest bit, so consecutive
    /// eviction paths part right below the root and a bucket at level `l`
    /// is visited every `2^l` evictions (one gap per cycle stretches when
    /// `leaves()` is not a power of two) — Circuit ORAM's
    /// reverse-lexicographic order.
    pub fn eviction_leaf(&self, counter: &mut u64) -> u64 {
        let leaf = *counter % self.leaves;
        *counter += 1;
        leaf
    }

    /// Reports a whole-bucket read of bucket `idx` (see
    /// [`Tree::bucket_index`]) and returns a view of it.
    pub fn read_bucket(&self, idx: usize) -> BucketRef<'_> {
        tracer::read(self.region, self.offset(idx), self.bucket_len);
        self.bucket(idx)
    }

    /// Reports a whole-bucket write of bucket `idx` and returns a view to
    /// mutate it through.
    pub fn write_bucket(&mut self, idx: usize) -> BucketMut<'_> {
        tracer::write(self.region, self.offset(idx), self.bucket_len);
        self.bucket_mut(idx)
    }

    /// Untraced view of bucket `idx`: setup, invariant checks, and
    /// controller work on a bucket whose transfer is already reported.
    pub fn bucket(&self, idx: usize) -> BucketRef<'_> {
        self.slots.view(idx * self.z..(idx + 1) * self.z)
    }

    /// Untraced mutable view of bucket `idx` (see [`Tree::bucket`]).
    pub fn bucket_mut(&mut self, idx: usize) -> BucketMut<'_> {
        self.slots.view_mut(idx * self.z..(idx + 1) * self.z)
    }

    /// Bytes per bucket on the (simulated) wire.
    pub fn bucket_bytes(&self) -> u64 {
        self.bucket_len as u64
    }

    /// Total tree memory in bytes: what the arena really holds.
    pub fn memory_bytes(&self) -> u64 {
        self.slots.memory_bytes()
    }

    fn offset(&self, bucket_idx: usize) -> u64 {
        bucket_idx as u64 * self.bucket_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const Z: u64 = 4;

    fn tree(n: u64) -> Tree {
        Tree::new(n, &OramConfig::path(4), RegionId(2))
    }

    /// `Z` blocks per leaf is the fullest tree the rule builds.
    fn tree_with_leaves(leaves: u64) -> Tree {
        let t = tree(leaves * Z);
        assert_eq!(t.leaves(), leaves);
        t
    }

    #[test]
    fn sizing() {
        for (n, leaves, levels, buckets) in [
            (1u64, 1u64, 0u32, 1u64),
            (2, 1, 0, 1),
            (5, 2, 1, 3),
            (63, 16, 4, 31),
            (64, 16, 4, 31),
            (65, 17, 5, 48),
            (100, 25, 5, 56),
            (1000, 250, 8, 505),
        ] {
            let t = tree(n);
            assert_eq!(
                (t.leaves(), t.levels(), t.bucket_count() as u64),
                (leaves, levels, buckets),
                "n = {n}"
            );
            assert_eq!(t.memory_bytes(), buckets * Z * (16 + 16));
        }
    }

    #[test]
    fn rule_keeps_one_leaf_per_bucket_of_blocks() {
        // More than Z − 1 and at most Z blocks per leaf, and 2–3 buckets
        // per leaf: the fullest tree is 33–50 % occupied.
        for z in [2u64, 3, 4, 5] {
            for n in 1..=4096u64 {
                let leaves = tree_leaves(n, z as usize);
                assert!(n <= leaves * z, "n = {n}, Z = {z}: over Z per leaf");
                assert!(n > (leaves - 1) * z, "n = {n}, Z = {z}: a leaf too many");
                let buckets = tree_buckets(leaves);
                assert!(2 * leaves - 1 <= buckets && buckets < 3 * leaves, "n = {n}");
            }
        }
    }

    /// Every tree the rule builds for 1..=4 096 blocks at `Z` = 2..=5:
    /// each label's path is `L + 1` distinct in-range buckets, the paths
    /// cover the tree, `deepest_legal` is the deepest level two paths
    /// share, and the eviction schedule visits each label once per
    /// `leaves` ticks.
    #[test]
    fn every_tree_the_rule_builds_is_balanced_and_covered() {
        let mut rng = StdRng::seed_from_u64(7);
        for z in 2usize..=5 {
            let cfg = OramConfig {
                bucket_size: z,
                ..OramConfig::path(1)
            };
            // Each n past the first of a leaf count builds the same tree.
            for n in (1..=4096u64).filter(|n| (n - 1) % z as u64 == 0) {
                let t = Tree::new(n, &cfg, RegionId(2));
                let (leaves, levels) = (t.leaves(), t.levels());
                assert_eq!(leaves, tree_leaves(n, z));
                let mut covered = vec![false; t.bucket_count()];
                for leaf in 0..leaves {
                    for level in 0..=levels {
                        let b = t.bucket_index(level, leaf);
                        let first = (1usize << level) - 1;
                        assert!(first <= b && b < 2 * first + 1, "n = {n}, Z = {z}");
                        assert!(b < covered.len(), "n = {n}, Z = {z}: bucket out of range");
                        covered[b] = true;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c),
                    "n = {n}, Z = {z}: a bucket lies on no path"
                );
                // Every pair on small trees, a sample on large ones.
                let pairs: Vec<(u64, u64)> = if leaves <= 32 {
                    (0..leaves)
                        .flat_map(|a| (0..leaves).map(move |b| (a, b)))
                        .collect()
                } else {
                    (0..64)
                        .map(|_| (rng.gen_range(0..leaves), rng.gen_range(0..leaves)))
                        .collect()
                };
                for (a, b) in pairs {
                    let shares = |l: u32| t.bucket_index(l, a) == t.bucket_index(l, b);
                    let deepest = t.deepest_legal(a, b);
                    assert!(
                        (0..=deepest).all(shares) && !(deepest + 1..=levels).any(shares),
                        "n = {n}, Z = {z}: deepest_legal({a}, {b}) = {deepest}"
                    );
                }
                let mut counter = 0;
                for _round in 0..2 {
                    let mut visits = vec![0u32; leaves as usize];
                    for _ in 0..leaves {
                        visits[t.eviction_leaf(&mut counter) as usize] += 1;
                    }
                    assert!(visits.iter().all(|&v| v == 1), "n = {n}, Z = {z}");
                }
            }
        }
    }

    #[test]
    fn bucket_indexing_root_and_leaves() {
        let t = tree_with_leaves(8); // levels = 3
        assert_eq!(t.bucket_index(0, 0), 0);
        assert_eq!(t.bucket_index(0, 7), 0, "root shared by all paths");
        assert_eq!(t.bucket_index(3, 0), 7);
        assert_eq!(t.bucket_index(3, 7), 14);
        // Labels that agree in their low bits share a parent.
        assert_eq!(t.bucket_index(2, 1), t.bucket_index(2, 5));
        assert_ne!(t.bucket_index(2, 0), t.bucket_index(2, 1));
        // A short leaf level: 5 leaves under a full depth-2 spine.
        let t = tree_with_leaves(5);
        assert_eq!((t.levels(), t.bucket_count()), (3, 12));
        assert_eq!(t.bucket_index(3, 4), 11);
        assert_eq!(t.bucket_index(2, 4), t.bucket_index(2, 0));
    }

    #[test]
    fn deepest_legal_levels() {
        let t = tree_with_leaves(8); // levels = 3
        assert_eq!(t.deepest_legal(5, 5), 3);
        assert_eq!(t.deepest_legal(0b001, 0b101), 2);
        assert_eq!(t.deepest_legal(0b110, 0b100), 1);
        assert_eq!(t.deepest_legal(0b000, 0b111), 0);
    }

    #[test]
    fn read_write_round_trip() {
        let mut t = tree_with_leaves(4);
        let root = t.bucket_index(0, 0);
        let slot = t.write_bucket(root).into_slot(0);
        *slot.id = 42;
        *slot.leaf = 1;
        slot.data.copy_from_slice(&[1, 2, 3, 4]);
        let seen = t.read_bucket(t.bucket_index(0, 3)).slot(0);
        assert_eq!(seen.id, 42, "root visible from all paths");
        assert_eq!(seen.data, &[1, 2, 3, 4]);
    }

    #[test]
    fn traces_whole_buckets() {
        let mut t = tree(8);
        let idx = t.bucket_index(1, 0);
        let ((), trace) = secemb_trace::tracer::record_trace(|| {
            t.read_bucket(idx);
            t.write_bucket(idx);
            t.bucket(idx);
            t.bucket_mut(idx);
        });
        assert_eq!(trace.len(), 2, "one read, one write, untraced views silent");
        for e in trace.events() {
            assert_eq!(e.offset, idx as u64 * t.bucket_bytes());
            assert_eq!(e.len as u64, t.bucket_bytes());
        }
    }

    #[test]
    fn memory_bytes_is_what_the_arena_holds() {
        for (n, words) in [(1u64, 1usize), (64, 4), (1000, 64)] {
            let cfg = OramConfig::circuit(words);
            let t = Tree::new(n, &cfg, RegionId(2));
            assert_eq!(t.memory_bytes(), t.slots.memory_bytes());
            assert_eq!(
                t.memory_bytes(),
                t.bucket_count() as u64 * t.bucket_bytes(),
                "modelled footprint must equal the resident arrays"
            );
        }
    }

    #[test]
    #[should_panic(expected = "trace event length exceeds u32")]
    fn rejects_buckets_too_wide_for_a_trace_event() {
        // 4 slots x 1 GiB payload: validated before anything is allocated.
        Tree::new(8, &OramConfig::circuit(1 << 28), RegionId(2));
    }

    #[test]
    #[should_panic(expected = "leaf out of range")]
    fn rejects_bad_leaf() {
        tree(8).bucket_index(0, 100);
    }
}
