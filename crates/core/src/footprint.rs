//! Analytic model memory footprints (Table VI, Table VIII).
//!
//! Paper-scale tables (10^7 rows and beyond) cannot be materialized in a
//! test environment, so footprints are computed from the same structural
//! formulas the runtime structures use; a test cross-checks the formulas
//! against real instances at small scale.

use crate::DheConfig;
use secemb_oram::{tree_buckets, tree_leaves, OramConfig};

/// Bytes of a plain `n × dim` f32 embedding table.
pub fn table_bytes(rows: u64, dim: usize) -> u64 {
    rows * dim as u64 * 4
}

/// Bytes of a table stored in a tree ORAM with the given configuration,
/// including the bucket tree (with its dummy blocks), the stash, and every
/// recursion level of the position map — the ">3× blow-up" of Table VI.
/// The tree is sized by the controllers' own rule and formula,
/// [`tree_leaves`] and [`tree_buckets`].
pub fn tree_oram_bytes(rows: u64, config: &OramConfig) -> u64 {
    let buckets = tree_buckets(tree_leaves(rows, config.bucket_size));
    let block_bytes = config.block_bytes();
    let tree = buckets * config.bucket_size as u64 * block_bytes;
    let stash = config.stash_capacity as u64 * block_bytes;
    let posmap = if rows <= config.recursion_threshold {
        rows * 8
    } else {
        let mut inner = *config;
        inner.block_words = config.posmap_fanout;
        tree_oram_bytes(rows.div_ceil(config.posmap_fanout as u64), &inner)
    };
    tree + stash + posmap
}

/// Bytes of a DHE generator for the given architecture.
pub fn dhe_bytes(config: &DheConfig) -> u64 {
    config.memory_bytes()
}

/// Footprint of one sparse feature under each storage strategy, at full
/// (paper) scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeatureFootprint {
    /// Plain table.
    pub table: u64,
    /// Table behind tree ORAM (Path and Circuit differ only by stash size,
    /// which the paper calls "negligible"; this uses Circuit's).
    pub tree_oram: u64,
    /// DHE Uniform.
    pub dhe_uniform: u64,
    /// DHE Varied.
    pub dhe_varied: u64,
}

/// Computes every strategy's footprint for a feature with `rows` entries
/// and embedding dimension `dim`.
pub fn feature_footprint(rows: u64, dim: usize) -> FeatureFootprint {
    FeatureFootprint {
        table: table_bytes(rows, dim),
        tree_oram: tree_oram_bytes(rows, &OramConfig::circuit(dim)),
        dhe_uniform: dhe_bytes(&DheConfig::uniform(dim)),
        dhe_varied: dhe_bytes(&DheConfig::varied(dim, rows)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb_tensor::Matrix;

    #[test]
    fn formula_matches_real_oram_instances() {
        for rows in [17u64, 64, 200] {
            let dim = 8;
            let table = Matrix::zeros(rows as usize, dim);
            let real = crate::OramTable::circuit(&table, StdRng::seed_from_u64(0));
            let analytic = tree_oram_bytes(rows, &OramConfig::circuit(dim));
            assert_eq!(
                crate::EmbeddingGenerator::memory_bytes(&real),
                analytic,
                "rows = {rows}"
            );
        }
    }

    #[test]
    fn formula_matches_recursive_oram() {
        let mut cfg = OramConfig::circuit(4);
        cfg.recursion_threshold = 8;
        cfg.posmap_fanout = 4;
        let blocks: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i; 4]).collect();
        let real = secemb_oram::CircuitOram::new(&blocks, cfg, StdRng::seed_from_u64(1));
        assert_eq!(
            secemb_oram::Oram::memory_bytes(&real),
            tree_oram_bytes(100, &cfg)
        );
    }

    #[test]
    fn oram_blows_up_large_tables() {
        // Table VI: the rule gives every Z rows a leaf and the balanced
        // tree 2–3 buckets per leaf, so the tree has 2–3x the table's
        // slots, each a 256 B row plus 16 B of metadata; the stash and the
        // position map add under 0.1x. 4·2^20 rows fill a power-of-two
        // tree (the band's low end) and four rows more start a level
        // (its high end); the paper's 3.3x lies inside.
        let meta = 1.0 + 16.0 / 256.0;
        for rows in [4 << 20, 10_000_000, (4 << 20) + 4] {
            let f = feature_footprint(rows, 64);
            let ratio = f.tree_oram as f64 / f.table as f64;
            assert!(
                (2.0 * meta..3.0 * meta + 0.1).contains(&ratio),
                "{rows} rows: ORAM blow-up {ratio:.2}x"
            );
        }
    }

    #[test]
    fn dhe_is_orders_of_magnitude_smaller() {
        let f = feature_footprint(10_000_000, 64);
        assert!(
            f.table / f.dhe_uniform > 100,
            "DHE should be >100x smaller than a 1e7-row table"
        );
        assert!(f.dhe_varied <= f.dhe_uniform);
    }

    #[test]
    fn varied_shrinks_with_table() {
        let big = feature_footprint(10_000_000, 64).dhe_varied;
        let small = feature_footprint(10_000, 64).dhe_varied;
        assert!(small < big);
    }
}
