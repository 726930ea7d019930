//! Allocation gate: a look-ahead window allocates for its results only —
//! a count that depends on the window size, never on the table size (no
//! per-path, per-bucket or per-block heap traffic).
//!
//! The counting allocator is local to the test binary (the library crates
//! forbid `unsafe`).

#[path = "../../oram/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb_laoram::{LaConfig, LookAheadOram, WindowOp};

const WORDS: usize = 8;
const WINDOW: usize = 16;

/// Allocations of one warmed-up `process_window` of `WINDOW` mixed ops,
/// and of one `stage_window` + `serve_window_with`, over `rows` blocks.
fn window_allocations(rows: u32) -> (u64, u64) {
    let blocks: Vec<Vec<u32>> = (0..rows).map(|i| vec![i; WORDS]).collect();
    let mut la = LookAheadOram::new(&blocks, LaConfig::new(WORDS), StdRng::seed_from_u64(3));
    let mut rng = StdRng::seed_from_u64(11);
    let window = |rng: &mut StdRng| -> Vec<WindowOp> {
        (0..WINDOW)
            .map(|k| {
                let id = rng.gen_range(0..rows as u64);
                match k % 3 {
                    0 => WindowOp::Read(id),
                    1 => WindowOp::Write(id, vec![k as u32; WORDS]),
                    _ => WindowOp::AddF32(id, vec![0.5; WORDS]),
                }
            })
            .collect()
    };
    for _ in 0..20 {
        la.process_window(&window(&mut rng));
    }
    let ops = window(&mut rng);
    let processed = allocations_in(|| {
        std::hint::black_box(la.process_window(&ops));
    });
    let indices: Vec<u64> = ops.iter().map(WindowOp::index).collect();
    let mut sum = 0u64;
    let visited = allocations_in(|| {
        la.stage_window(&indices);
        la.serve_window_with(&mut |_, words| sum += words[0] as u64);
    });
    std::hint::black_box(sum);
    la.check_invariants();
    (processed, visited)
}

#[test]
fn window_allocations_depend_on_the_window_only() {
    let small = window_allocations(1_024);
    let large = window_allocations(16_384);
    assert_eq!(small, large, "allocation count varied with the table size");
    // The index list, the result list, and one row per op.
    assert_eq!(small.0, 2 + WINDOW as u64);
    // The in-place visitor path allocates nothing at all.
    assert_eq!(small.1, 0);
}
