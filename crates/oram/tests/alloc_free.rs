//! Allocation gate: a steady-state ORAM access performs zero heap
//! allocations, recursion included.
//!
//! The counting allocator is local to the test binary (the library crates
//! forbid `unsafe`).

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb_oram::{CircuitOram, Oram, OramConfig, PathOram};

/// 400 eight-word blocks behind three levels of position-map recursion.
fn recursive(mut cfg: OramConfig) -> (Vec<Vec<u32>>, OramConfig) {
    cfg.recursion_threshold = 8;
    cfg.posmap_fanout = 4;
    ((0..400u32).map(|i| vec![i; 8]).collect(), cfg)
}

fn assert_access_into_is_allocation_free(oram: &mut dyn Oram) {
    let n = oram.len();
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = vec![0u32; oram.block_words()];
    let fresh = vec![9u32; oram.block_words()];
    // Warm-up: nothing is lazily sized, but let every path run once.
    for _ in 0..50 {
        oram.access_into(rng.gen_range(0..n), &mut |_| {}, &mut out);
    }
    let allocs = allocations_in(|| {
        for step in 0..1000 {
            let id = rng.gen_range(0..n);
            if step % 2 == 0 {
                oram.access_into(id, &mut |_| {}, &mut out);
            } else {
                oram.access_into(id, &mut |d| d.copy_from_slice(&fresh), &mut out);
            }
        }
    });
    assert_eq!(allocs, 0, "1000 accesses allocated {allocs} times");
    assert!(
        oram.stats().posmap_accesses > 3 * 1050,
        "recursion must run"
    );
}

#[test]
fn circuit_access_into_never_allocates() {
    let (blocks, cfg) = recursive(OramConfig::circuit(8));
    let mut oram = CircuitOram::new(&blocks, cfg, StdRng::seed_from_u64(1));
    assert_access_into_is_allocation_free(&mut oram);
}

#[test]
fn path_access_into_never_allocates() {
    let (blocks, cfg) = recursive(OramConfig::path(8));
    let mut oram = PathOram::new(&blocks, cfg, StdRng::seed_from_u64(1));
    assert_access_into_is_allocation_free(&mut oram);
}
