//! The stash-tail harness behind [`crate::tree_leaves`].
//!
//! Each cell builds a controller over a tree of `leaves` leaves loaded
//! with a given number of blocks per leaf — `Z/2`, `3Z/4` and the rule's
//! fullest tree, `Z`, bracket the sizing rule, `5Z/4` to `2Z` overfill
//! the tree on purpose — drives seeded uniform accesses, and histograms
//! the stash occupancy:
//!
//! - Circuit ORAM after the lifted block is inserted and after each of
//!   the two evictions. The residual after the second eviction decides
//!   overflow: the next access inserts one block, so the stash (10)
//!   overflows when the residual passes 9.
//! - Path ORAM after the write-back. The path it reads next shares the
//!   stash, so the residual must leave `Z·(levels + 1)` of the 150 slots
//!   free; the bound is stated for trees of up to 2²⁴ leaves (residual
//!   capacity 50).
//!
//! The tail is fitted and turned into a bound as `tail.rs` (shared with
//! `secemb-laoram`'s cells) explains. The CI-sized run (256, 200 and 160
//! leaves) gates every optimised `cargo test`; the full run (768 leaves,
//! the rule's cell and the `11Z/8` to `7Z/4` cells, 10⁸ Circuit and 10⁷
//! Path accesses per cell) is `#[ignore]`d and recorded in
//! EXPERIMENTS.md, "Tree sizing":
//!
//! ```text
//! cargo test --release -p secemb-oram stash_tail -- --ignored --nocapture
//! ```

#[path = "../tests/support/tail.rs"]
mod tail;

use crate::config::OramConfig;
use crate::setup::tree_region;
use crate::tree::Tree;
use crate::{CircuitOram, Oram, PathOram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tail::{
    blocks, run_cells, Cell, Sweep, Tail, CI_LEAVES, CI_TARGET_LOG2, EIGHTHS, FULL_EIGHTHS,
    FULL_TARGET_LOG2,
};

/// The tree of `leaves` leaves (the rule builds it for `Z` blocks per
/// leaf), the block count that loads it to `eighths / 8` times `Z` per
/// leaf, and their share of its slots.
fn tree(leaves: u64, eighths: u64, cfg: &OramConfig) -> (Tree, u64, f64) {
    let z = cfg.bucket_size as u64;
    let t = Tree::new(leaves * z, cfg, tree_region(0));
    assert_eq!(t.leaves(), leaves);
    let n = blocks(leaves, z, eighths);
    let occupancy = n as f64 / (t.bucket_count() as u64 * z) as f64;
    (t, n, occupancy)
}

/// One cell: one-word blocks, and a stash wide enough that an overfull
/// cell measures its tail instead of panicking.
fn circuit_cell(leaves: u64, eighths: u64, accesses: u64) -> Cell {
    let cfg = OramConfig {
        stash_capacity: 128,
        ..OramConfig::circuit(1)
    };
    let (tree, n, occupancy) = tree(leaves, eighths, &cfg);
    let rng = StdRng::seed_from_u64(0xc1c + eighths);
    let mut oram = CircuitOram::with_tree(tree, n, cfg, rng, 0, &mut |_, _| {});
    let mut ids = StdRng::seed_from_u64(!eighths);
    let mut tails = vec![Tail::default(); 3];
    let mut out = [0u32];
    let mut saturated = false;
    for _ in 0..accesses {
        oram.lift(ids.gen_range(0..n), &mut |_| {}, &mut out);
        tails[0].record(oram.stash_occupancy());
        oram.evict_next();
        tails[1].record(oram.stash_occupancy());
        oram.evict_next();
        tails[2].record(oram.stash_occupancy());
        if oram.stash_occupancy() + 1 > cfg.stash_capacity {
            saturated = true;
            break;
        }
    }
    Cell {
        eighths,
        n,
        occupancy,
        tails,
        saturated,
    }
}

fn path_cell(leaves: u64, eighths: u64, accesses: u64) -> Cell {
    let cfg = OramConfig {
        stash_capacity: 200,
        ..OramConfig::path(1)
    };
    let (tree, n, occupancy) = tree(leaves, eighths, &cfg);
    let path_slots = cfg.bucket_size * (tree.levels() as usize + 1);
    let rng = StdRng::seed_from_u64(0x9a7 + eighths);
    let mut oram = PathOram::with_tree(tree, n, cfg, rng, 0, &mut |_, _| {});
    let mut ids = StdRng::seed_from_u64(!eighths);
    let mut tail = Tail::default();
    let mut out = [0u32];
    let mut saturated = false;
    for _ in 0..accesses {
        oram.access_into(ids.gen_range(0..n), &mut |_| {}, &mut out);
        tail.record(oram.stash_occupancy());
        if oram.stash_occupancy() + path_slots > cfg.stash_capacity {
            saturated = true;
            break;
        }
    }
    Cell {
        eighths,
        n,
        occupancy,
        tails: vec![tail],
        saturated,
    }
}

fn circuit_sweep(leaves: u64, cells: &[u64], accesses: u64) -> Sweep {
    Sweep {
        controller: "Circuit ORAM",
        leaves,
        unit: "access",
        points: &["after insert", "after evict 1", "after evict 2"],
        bounded: 2,
        capacity: OramConfig::circuit(1).stash_capacity - 1,
        cells: run_cells(cells, |eighths| circuit_cell(leaves, eighths, accesses)),
    }
}

fn path_sweep(leaves: u64, cells: &[u64], accesses: u64) -> Sweep {
    let cfg = OramConfig::path(1);
    Sweep {
        controller: "Path ORAM",
        leaves,
        unit: "access",
        points: &["after write-back"],
        bounded: 0,
        capacity: cfg.stash_capacity - cfg.bucket_size * (24 + 1),
        cells: run_cells(cells, |eighths| path_cell(leaves, eighths, accesses)),
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "CI-sized: ~25 s optimised, minutes in debug"
)]
fn circuit_stash_tail_ci() {
    for leaves in CI_LEAVES {
        let sweep = circuit_sweep(leaves, &EIGHTHS, 100_000);
        sweep.print();
        sweep.check(CI_TARGET_LOG2);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "CI-sized: ~25 s optimised, minutes in debug"
)]
fn path_stash_tail_ci() {
    for leaves in CI_LEAVES {
        let sweep = path_sweep(leaves, &EIGHTHS, 25_000);
        sweep.print();
        sweep.check(CI_TARGET_LOG2);
    }
}

#[test]
#[ignore = "10⁸ accesses per cell; run in release with --ignored"]
fn circuit_stash_tail_full() {
    let sweep = circuit_sweep(768, &FULL_EIGHTHS, 100_000_000);
    sweep.print();
    sweep.check(FULL_TARGET_LOG2);
}

#[test]
#[ignore = "10⁷ accesses per cell; run in release with --ignored"]
fn path_stash_tail_full() {
    let sweep = path_sweep(768, &FULL_EIGHTHS, 10_000_000);
    sweep.print();
    sweep.check(FULL_TARGET_LOG2);
}
