//! The bucket tree shared by both controllers.

use crate::block::{BucketMut, BucketRef, Slots};
use crate::config::OramConfig;
use crate::setup::trace_len;
use secemb_trace::tracer::{self, RegionId};

/// Leaf count of the tree that holds `n_blocks` real blocks in buckets of
/// `bucket_size` slots: one leaf per `bucket_size` blocks, rounded up to a
/// power of two, `next_pow2(ceil(n / Z))`. That is more than `Z/2` and at
/// most `Z` blocks per leaf, so the tree's `2·leaves − 1` buckets are
/// 25–50 % occupied.
///
/// The one sizing rule of every tree ORAM in the workspace — Path,
/// Circuit and look-ahead ORAM, and the footprint model of Table VI. It
/// was chosen by measuring stash tails over ≥ 10⁷ seeded accesses per
/// cell at 25–87.5 % occupancy (crate-internal `stash_tail` tests; the
/// tail table, its exponential fit and the bound are in EXPERIMENTS.md,
/// "Tree sizing"). At 50 % occupancy an access overflows the default
/// stash with probability at most 2⁻³⁰ (Circuit ORAM; Path ORAM 2⁻⁵⁵,
/// look-ahead ORAM 2⁻⁶⁷ per window of 64 — see [`OramConfig`]), a bound
/// the same measurement does not reach for Circuit ORAM at 25 %.
pub fn tree_leaves(n_blocks: u64, bucket_size: usize) -> u64 {
    n_blocks.div_ceil(bucket_size as u64).next_power_of_two()
}

/// A complete binary tree of buckets, each holding `Z` (possibly dummy)
/// blocks, stored as one flat [`Slots`] arena: bucket `b` is slots
/// `b·Z .. (b+1)·Z`.
///
/// Levels are numbered from the root (level 0) to the leaves (level
/// `levels`). Leaf labels are `0..leaves`. [`Tree::read_bucket`] and
/// [`Tree::write_bucket`] report a whole-bucket access to the tracer under
/// this tree's region id — buckets are always moved in their entirety,
/// exactly like the encrypted bucket transfers of a real controller — and
/// hand back a borrowed view; nothing is copied.
#[derive(Clone, Debug)]
pub struct Tree {
    levels: u32,
    z: usize,
    slots: Slots,
    region: RegionId,
    /// `bucket_bytes()` as a trace event length, validated once.
    bucket_len: u32,
}

impl Tree {
    /// Builds an empty tree for `n_blocks` real blocks, with
    /// [`tree_leaves`] leaves: at most 50 % of its slots will be occupied,
    /// where an access overflows the default stash with probability at
    /// most 2⁻³⁰ (measured; see [`tree_leaves`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.bucket_size` is zero or one bucket's byte size
    /// does not fit a trace event length.
    pub fn new(n_blocks: u64, config: &OramConfig, region: RegionId) -> Self {
        let bucket_len = trace_len(config.bucket_size as u64 * config.block_bytes());
        let leaves = tree_leaves(n_blocks, config.bucket_size);
        let levels = leaves.trailing_zeros();
        let bucket_count = (2 * leaves - 1) as usize;
        Tree {
            levels,
            z: config.bucket_size,
            slots: Slots::dummy(bucket_count * config.bucket_size, config.block_words),
            region,
            bucket_len,
        }
    }

    /// Leaf count (a power of two).
    pub fn leaves(&self) -> u64 {
        1u64 << self.levels
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
        assert!(leaf < self.leaves(), "leaf out of range");
        ((1u64 << level) - 1 + (leaf >> (self.levels - level))) as usize
    }

    /// The deepest level at which a block mapped to `block_leaf` may reside
    /// on the path to `path_leaf` (0 = root only).
    pub fn deepest_legal(&self, block_leaf: u64, path_leaf: u64) -> u32 {
        let x = block_leaf ^ path_leaf;
        if x == 0 {
            self.levels
        } else {
            let highest_differing = 63 - x.leading_zeros();
            self.levels - 1 - highest_differing
        }
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
        for n in [1u64, 2, 4, 5, 63, 64, 65, 1000] {
            let t = tree(n);
            assert_eq!(t.leaves(), tree_leaves(n, Z as usize), "n = {n}");
            assert_eq!(t.levels(), t.leaves().trailing_zeros());
            assert_eq!(t.bucket_count() as u64, 2 * t.leaves() - 1);
            assert_eq!(t.memory_bytes(), t.bucket_count() as u64 * Z * (16 + 16));
        }
        assert_eq!(tree(1).levels(), 0);
    }

    #[test]
    fn rule_keeps_between_half_a_bucket_and_a_bucket_per_leaf() {
        // More than Z/2 and at most Z blocks per leaf, i.e. (25 %, 50 %]
        // of the slots of 2·leaves buckets.
        for z in [2usize, 3, 4, 5] {
            for n in 1..=4096u64 {
                let leaves = tree_leaves(n, z);
                assert!(leaves.is_power_of_two());
                assert!(n <= leaves * z as u64, "n = {n}, Z = {z}: over Z per leaf");
                assert!(
                    leaves == 1 || 2 * n > leaves * z as u64,
                    "n = {n}, Z = {z}: {leaves} leaves is a level too many"
                );
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
        // Siblings share their parent.
        assert_eq!(t.bucket_index(2, 0), t.bucket_index(2, 1));
        assert_ne!(t.bucket_index(2, 0), t.bucket_index(2, 2));
    }

    #[test]
    fn deepest_legal_levels() {
        let t = tree_with_leaves(8); // levels = 3
        assert_eq!(t.deepest_legal(5, 5), 3);
        assert_eq!(t.deepest_legal(0b100, 0b101), 2);
        assert_eq!(t.deepest_legal(0b110, 0b101), 1);
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
