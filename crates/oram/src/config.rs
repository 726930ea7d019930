//! ORAM configuration.

/// Tunable parameters shared by both controllers.
///
/// The defaults follow the paper's setup (§V-A1): bucket size `Z = 4`,
/// stash 150 (Path) / 10 (Circuit), position-map fan-out 16×, recursion
/// enabled above 2^16 blocks (Path) / 2^12 blocks (Circuit).
///
/// Tree size is not a parameter: [`crate::tree_leaves`] gives every tree
/// one leaf per `Z` blocks and [`crate::tree_buckets`] a balanced tree of
/// 2–3 buckets per leaf, so at most 33–50 % of the slots are occupied. At
/// `Z` blocks per leaf the stash-tail harness bounds the probability that
/// an access overflows the default stash by 2⁻³⁰ for Circuit ORAM and
/// 2⁻⁵⁵ for Path ORAM (trees up to 2²⁴ leaves). That is measured over
/// ≥ 10⁷ accesses on 1 024, 1 000 and 768 leaves, leaf levels 100, 98 and
/// 75 % full. Shorter leaf levels (200 and 160 leaves: 78 and 63 % full)
/// are measured only by the CI-sized runs, to 2⁻¹². The same measurement
/// gives Circuit ORAM only 2⁻²⁸ at half that load (EXPERIMENTS.md, "Tree
/// sizing"). An overflow panics: a block is never dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OramConfig {
    /// Payload words (`u32`) per block. For an embedding table this is the
    /// embedding dimension (one `f32` bit-pattern per word).
    pub block_words: usize,
    /// Blocks per tree bucket (`Z`).
    pub bucket_size: usize,
    /// Stash capacity in blocks.
    pub stash_capacity: usize,
    /// Block count above which the position map becomes its own ORAM.
    pub recursion_threshold: u64,
    /// Leaf labels packed per position-map block (the paper's 16×).
    pub posmap_fanout: usize,
}

impl OramConfig {
    /// Path ORAM defaults for the given payload width.
    pub fn path(block_words: usize) -> Self {
        OramConfig {
            block_words,
            bucket_size: 4,
            stash_capacity: 150,
            recursion_threshold: 1 << 16,
            posmap_fanout: 16,
        }
    }

    /// Circuit ORAM defaults for the given payload width.
    pub fn circuit(block_words: usize) -> Self {
        OramConfig {
            block_words,
            bucket_size: 4,
            stash_capacity: 10,
            recursion_threshold: 1 << 12,
            posmap_fanout: 16,
        }
    }

    /// Bytes per block including `(id, leaf)` metadata.
    pub fn block_bytes(&self) -> u64 {
        self.block_words as u64 * 4 + 16
    }

    /// Validates invariants; called by the controllers.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn validate(&self) {
        assert!(self.block_words > 0, "block_words must be positive");
        assert!(self.bucket_size > 0, "bucket_size must be positive");
        assert!(self.stash_capacity > 0, "stash_capacity must be positive");
        assert!(self.posmap_fanout > 0, "posmap_fanout must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = OramConfig::path(64);
        assert_eq!(p.bucket_size, 4);
        assert_eq!(p.stash_capacity, 150);
        assert_eq!(p.recursion_threshold, 1 << 16);
        let c = OramConfig::circuit(64);
        assert_eq!(c.stash_capacity, 10);
        assert_eq!(c.recursion_threshold, 1 << 12);
        assert_eq!(
            p.stash_capacity / c.stash_capacity,
            15,
            "paper: 15x smaller"
        );
    }

    #[test]
    fn block_bytes_includes_metadata() {
        assert_eq!(OramConfig::path(16).block_bytes(), 16 * 4 + 16);
    }

    #[test]
    #[should_panic(expected = "block_words")]
    fn zero_words_rejected() {
        OramConfig::path(0).validate();
    }
}
