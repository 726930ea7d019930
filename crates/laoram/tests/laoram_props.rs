//! Property-based tests for the look-ahead ORAM: after *arbitrary*
//! interleaved read/write windows the structure must stay consistent —
//! every block readable with its last-written value, every block existing
//! exactly once (no duplicate copies across tree and stash), and every
//! resident leaf agreeing with the position map.

#[path = "../../oram/tests/support/fnv.rs"]
mod fnv;

use fnv::{trace_hash, Fnv};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb_laoram::{LaConfig, LookAheadOram, WindowOp};

const N: u64 = 48;
const WORDS: usize = 3;

/// A windowed workload: each inner vec is one look-ahead window of
/// interleaved reads, overwrites, and float accumulations.
fn windows(n_blocks: u64, max_windows: usize) -> impl Strategy<Value = Vec<Vec<WindowOp>>> {
    let op = prop_oneof![
        (0..n_blocks).prop_map(WindowOp::Read),
        (0..n_blocks, any::<u32>()).prop_map(|(i, v)| WindowOp::Write(i, vec![v; WORDS])),
        (0..n_blocks, -8i32..8).prop_map(|(i, g)| WindowOp::AddF32(i, vec![g as f32; WORDS])),
    ];
    prop::collection::vec(prop::collection::vec(op, 1..12), 0..max_windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn interleaved_windows_keep_posmap_and_stash_consistent(
        seed in any::<u64>(),
        workload in windows(N, 12),
    ) {
        let blocks: Vec<Vec<u32>> = (0..N as u32).map(|i| vec![i; WORDS]).collect();
        let mut la =
            LookAheadOram::new(&blocks, LaConfig::new(WORDS), StdRng::seed_from_u64(seed));
        // Reference model mirroring the window-order semantics.
        let mut model: Vec<Vec<u32>> = blocks.clone();
        for ops in &workload {
            let out = la.process_window(ops);
            for (op, got) in ops.iter().zip(out.iter()) {
                let row = &mut model[op.index() as usize];
                match op {
                    WindowOp::Read(_) => {}
                    WindowOp::Write(_, val) => row.clone_from(val),
                    WindowOp::AddF32(_, delta) => {
                        for (w, g) in row.iter_mut().zip(delta.iter()) {
                            *w = (f32::from_bits(*w) + g).to_bits();
                        }
                    }
                }
                prop_assert_eq!(got, &model[op.index() as usize], "window op result stale");
            }
            // Structural invariants hold between every pair of windows:
            // single copy per block, leaves agree with the posmap. (Panics
            // internally on violation; the stash panics on overflow.)
            la.check_invariants();
        }
        // Every block still readable with its last-written value.
        let final_ops: Vec<WindowOp> = (0..N).map(WindowOp::Read).collect();
        for chunk in final_ops.chunks(64) {
            let out = la.process_window(chunk);
            for (op, got) in chunk.iter().zip(out.iter()) {
                prop_assert_eq!(got, &model[op.index() as usize], "final sweep mismatch");
            }
        }
        prop_assert!(la.la_stats().stash_high_water <= 320);
    }
}

/// Golden trace: the exact tracer event stream, returned payloads and
/// final counters of 40 seeded mixed windows, recorded on the
/// `Vec<Vec<Block>>` implementation before the flat-arena rewrite. Any
/// drift means the algorithm (not just where the bytes live) changed. The
/// trace hash and bucket counts were re-recorded when trees went to one
/// leaf per `Z` blocks (one level fewer), and again when the tree became
/// balanced over exactly ⌈n/Z⌉ leaves (24 instead of 32, so staged paths
/// share more buckets), and when each op became one Circuit ORAM access;
/// the payloads moved none of those times.
#[test]
fn golden_trace_forty_windows() {
    use rand::Rng;
    use secemb_oram::Oram;

    let blocks: Vec<Vec<u32>> = (0..96u32).map(|i| vec![i, !i]).collect();
    let mut la = LookAheadOram::new(&blocks, LaConfig::new(2), StdRng::seed_from_u64(2025));
    let mut rng = StdRng::seed_from_u64(0x5ec_e4b);
    let mut data_hash = Fnv::new();
    let ((), trace) = secemb_trace::tracer::record_trace(|| {
        for _ in 0..40 {
            let w = rng.gen_range(1..=16usize);
            let ops: Vec<WindowOp> = (0..w)
                .map(|_| {
                    let id = rng.gen_range(0..96u64);
                    match rng.gen_range(0..3u32) {
                        0 => WindowOp::Read(id),
                        1 => WindowOp::Write(id, vec![rng.gen(), rng.gen()]),
                        _ => WindowOp::AddF32(id, vec![rng.gen_range(-4..4) as f32; 2]),
                    }
                })
                .collect();
            for row in la.process_window(&ops) {
                for word in row {
                    data_hash.write(&word.to_le_bytes());
                }
            }
        }
    });
    assert_eq!(
        trace_hash(&trace),
        0x1789_3b86_bf1e_7a0c,
        "event stream drifted"
    );
    assert_eq!(
        data_hash.0, 0x7152_8fcb_0f1b_fe0f,
        "returned payloads drifted"
    );
    assert_eq!(
        la.stats(),
        secemb_oram::AccessStats {
            accesses: 345,
            bucket_reads: 6210,
            bucket_writes: 6210,
            stash_scans: 1035,
            stash_slots_scanned: 10_350,
            posmap_accesses: 345,
            bytes_moved: 1_192_320,
            evictions: 690,
        }
    );
    assert_eq!(
        la.la_stats(),
        secemb_laoram::LaStats {
            windows: 40,
            ops: 345,
            prefetch_hits: 0,
            evictions_saved: 0,
            stash_high_water: 0,
        }
    );
}

/// Exact index independence on a short leaf level: 100 blocks, 25 leaves
/// under a depth-5 spine (the soak below runs on 12). Each run warms a
/// same-seed LAORAM (untraced) with one window over its own 24 distinct
/// ids, then runs that window again under the tracer, stage included.
/// The warm-up gave the `i`-th id the RNG's `i`-th fresh leaf in every
/// run, so the traced windows fetch the same paths whichever ids they
/// name.
#[test]
fn window_traces_are_index_independent_on_a_short_leaf_level() {
    let blocks: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i; WORDS]).collect();
    let sets: Vec<Vec<u64>> = (0..4u64)
        .map(|k| (0..24u64).map(|i| (37 * i + 11 * k) % 100).collect())
        .collect();
    let reads = |ids: &[u64]| -> Vec<WindowOp> { ids.iter().map(|&i| WindowOp::Read(i)).collect() };
    // `cold`: run 1 skips its warm-up, so its window fetches the ids'
    // initial leaves — a different history, which must show.
    let verdict = |cold: bool| {
        let mut las: Vec<LookAheadOram> = sets
            .iter()
            .enumerate()
            .map(|(k, ids)| {
                let config = LaConfig::new(WORDS);
                let mut la = LookAheadOram::new(&blocks, config, StdRng::seed_from_u64(9));
                if !(cold && k == 1) {
                    la.process_window(&reads(ids));
                }
                la
            })
            .collect();
        let runs: Vec<usize> = (0..sets.len()).collect();
        secemb_trace::check::compare_traces(&runs, |&k| {
            las[k].process_window(&reads(&sets[k]));
        })
    };
    let warm = verdict(false);
    assert!(
        warm.is_oblivious(),
        "run {:?} diverged",
        warm.first_divergence()
    );
    assert!(!verdict(true).is_oblivious(), "the check is vacuous");
}

/// Soak: 20 000 seeded accesses in mixed windows against a plain model,
/// the stash bound checked after every window and the full structural
/// invariants periodically.
#[test]
fn soak_20k_accesses() {
    use rand::Rng;
    use secemb_oram::Oram;
    use std::collections::HashMap;

    let blocks: Vec<Vec<u32>> = (0..N as u32).map(|i| vec![i; WORDS]).collect();
    let capacity = secemb_oram::OramConfig::circuit(WORDS).stash_capacity;
    let mut la = LookAheadOram::new(&blocks, LaConfig::new(WORDS), StdRng::seed_from_u64(77));
    let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0xdecade);
    let mut served = 0usize;
    let mut window = 0u32;
    while served < 20_000 {
        let w = rng.gen_range(1..=64);
        let mut expect = Vec::with_capacity(w);
        let ops: Vec<WindowOp> = (0..w)
            .map(|_| {
                let id = rng.gen_range(0..N);
                let row = model.entry(id).or_insert_with(|| vec![id as u32; WORDS]);
                let op = match rng.gen_range(0..3u32) {
                    0 => WindowOp::Read(id),
                    1 => {
                        *row = (0..WORDS).map(|_| rng.gen()).collect();
                        WindowOp::Write(id, row.clone())
                    }
                    _ => {
                        let delta = vec![rng.gen_range(-4..4) as f32; WORDS];
                        for (word, g) in row.iter_mut().zip(&delta) {
                            *word = (f32::from_bits(*word) + g).to_bits();
                        }
                        WindowOp::AddF32(id, delta)
                    }
                };
                expect.push(row.clone());
                op
            })
            .collect();
        assert_eq!(la.process_window(&ops), expect, "window {window}");
        assert!(
            la.stash_occupancy() <= capacity,
            "window {window}: stash over capacity"
        );
        if window.is_multiple_of(50) {
            la.check_invariants();
        }
        served += w;
        window += 1;
    }
    la.check_invariants();
    assert!(la.la_stats().stash_high_water <= capacity);
}
