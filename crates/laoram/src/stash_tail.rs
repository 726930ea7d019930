//! The look-ahead ORAM's cells of the stash-tail harness behind
//! `secemb_oram::tree_leaves` (Path and Circuit ORAM's cells are
//! `secemb-oram`'s own `stash_tail` tests, which explain the cells).
//!
//! Full windows of `W = 64` uniform indices. After each window the harness
//! records the residual the combined evictions leave in the stash, and the
//! window's peak occupancy (right after staging) minus `W` — the quantity
//! `LaStats::stash_high_water − W` maximises. The next window stages up to
//! `W` blocks on top of the residual, so the 128-slot stash overflows when
//! the residual passes `128 − W = 64`; the peak minus `W` never exceeds
//! the residual it started from.
//!
//! ```text
//! cargo test --release -p secemb-laoram stash_tail -- --ignored --nocapture
//! ```

#[path = "../../oram/tests/support/tail.rs"]
mod tail;

use crate::{LaConfig, LookAheadOram, LAORAM_TREE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb_oram::tree::Tree;
use tail::{
    blocks, run_cells, Cell, Sweep, Tail, CI_LEAVES, CI_TARGET_LOG2, EIGHTHS, FULL_EIGHTHS,
    FULL_TARGET_LOG2,
};

fn cell(leaves: u64, eighths: u64, windows: u64) -> Cell {
    let mut config = LaConfig::new(1);
    // Wide enough that an overfull cell measures its tail instead of
    // panicking.
    config.stash_capacity = 256;
    let w = config.max_window;
    let oram_cfg = config.oram_config();
    // The rule builds a tree of `leaves` leaves for `Z` blocks per leaf.
    let z = oram_cfg.bucket_size as u64;
    let tree = Tree::new(leaves * z, &oram_cfg, LAORAM_TREE);
    assert_eq!(tree.leaves(), leaves);
    let slots = tree.bucket_count() as u64 * z;
    let n = blocks(leaves, z, eighths);
    let rng = StdRng::seed_from_u64(0x1a + eighths);
    let mut la = LookAheadOram::with_tree(tree, n, config, rng, &mut |_, _| {});
    let mut ids = StdRng::seed_from_u64(!eighths);
    let mut window = vec![0u64; w];
    let mut tails = vec![Tail::default(); 2];
    let mut saturated = false;
    for _ in 0..windows {
        window.iter_mut().for_each(|id| *id = ids.gen_range(0..n));
        la.stage_window(&window);
        let peak = la.stash.occupancy();
        la.serve_window_with(&mut |_, _| {});
        tails[0].record(la.stash.occupancy());
        tails[1].record(peak.saturating_sub(w));
        if la.stash.occupancy() + w > config.stash_capacity {
            saturated = true;
            break;
        }
    }
    Cell {
        eighths,
        n,
        occupancy: n as f64 / slots as f64,
        tails,
        saturated,
    }
}

fn sweep(leaves: u64, cells: &[u64], windows: u64) -> Sweep {
    let config = LaConfig::new(1);
    Sweep {
        controller: "LAORAM (W = 64)",
        leaves,
        unit: "window",
        points: &["residual", "peak - W"],
        bounded: 0,
        capacity: config.stash_capacity - config.max_window,
        cells: run_cells(cells, |eighths| cell(leaves, eighths, windows)),
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "CI-sized: ~60 s optimised, minutes in debug"
)]
fn laoram_stash_tail_ci() {
    // 2 000 windows of 64 = 1.3·10⁵ accesses per cell.
    for leaves in CI_LEAVES {
        let sweep = sweep(leaves, &EIGHTHS, 2_000);
        sweep.print();
        sweep.check(CI_TARGET_LOG2);
    }
}

#[test]
#[ignore = "10⁷ accesses per cell; run in release with --ignored"]
fn laoram_stash_tail_full() {
    // 156 250 windows of 64 = 10⁷ accesses, on a non-power-of-two tree.
    let sweep = sweep(768, &FULL_EIGHTHS, 156_250);
    sweep.print();
    sweep.check(FULL_TARGET_LOG2);
}
