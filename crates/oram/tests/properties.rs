//! Property-based tests: both ORAM controllers must behave exactly like a
//! plain array under arbitrary read/write workloads, keep their stash
//! bounded, and keep their access pattern structurally input-independent.

#[path = "support/fnv.rs"]
mod fnv;

use fnv::{trace_hash, Fnv};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb_oram::{AccessStats, CircuitOram, Oram, OramConfig, PathOram};
use secemb_trace::check::{self, Verdict};
use secemb_trace::tracer::record_trace;

/// A workload step: read or overwrite one block.
#[derive(Clone, Debug)]
enum Op {
    Read(u64),
    Write(u64, u32),
}

fn ops(n_blocks: u64, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..n_blocks).prop_map(Op::Read),
            (0..n_blocks, any::<u32>()).prop_map(|(i, v)| Op::Write(i, v)),
        ],
        0..len,
    )
}

fn check_against_model(oram: &mut dyn Oram, workload: &[Op]) -> Result<(), TestCaseError> {
    let n = oram.len();
    let words = oram.block_words();
    let mut model: Vec<Vec<u32>> = (0..n).map(|i| vec![i as u32; words]).collect();
    for op in workload {
        match *op {
            Op::Read(i) => {
                prop_assert_eq!(&oram.read(i), &model[i as usize]);
            }
            Op::Write(i, v) => {
                let val = vec![v; words];
                oram.write(i, &val);
                model[i as usize] = val;
            }
        }
    }
    // Final full sweep: nothing lost, nothing corrupted.
    for i in 0..n {
        prop_assert_eq!(&oram.read(i), &model[i as usize]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn path_oram_matches_array_semantics(
        seed in any::<u64>(),
        workload in ops(48, 60),
    ) {
        let blocks: Vec<Vec<u32>> = (0..48u32).map(|i| vec![i; 3]).collect();
        let mut oram = PathOram::new(&blocks, OramConfig::path(3), StdRng::seed_from_u64(seed));
        check_against_model(&mut oram, &workload)?;
        prop_assert!(oram.stash_occupancy() <= 150);
    }

    #[test]
    fn circuit_oram_matches_array_semantics(
        seed in any::<u64>(),
        workload in ops(48, 60),
    ) {
        let blocks: Vec<Vec<u32>> = (0..48u32).map(|i| vec![i; 3]).collect();
        let mut oram =
            CircuitOram::new(&blocks, OramConfig::circuit(3), StdRng::seed_from_u64(seed));
        check_against_model(&mut oram, &workload)?;
        prop_assert!(oram.stash_occupancy() <= 10, "stash bound violated");
    }

    #[test]
    fn recursive_posmap_preserves_semantics(
        seed in any::<u64>(),
        workload in ops(100, 40),
    ) {
        let mut cfg = OramConfig::circuit(2);
        cfg.recursion_threshold = 16;
        cfg.posmap_fanout = 4;
        let blocks: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i; 2]).collect();
        let mut oram = CircuitOram::new(&blocks, cfg, StdRng::seed_from_u64(seed));
        check_against_model(&mut oram, &workload)?;
    }

    #[test]
    fn access_trace_structure_is_id_independent(
        seed in any::<u64>(),
        a in 0u64..64,
        b in 0u64..64,
    ) {
        let blocks: Vec<Vec<u32>> = (0..64u32).map(|i| vec![i; 4]).collect();
        let mut oram =
            CircuitOram::new(&blocks, OramConfig::circuit(4), StdRng::seed_from_u64(seed));
        let shape = |oram: &mut CircuitOram, id: u64| {
            let ((), t) = record_trace(|| {
                oram.read(id);
            });
            t.events()
                .iter()
                .map(|e| (e.region.0, e.len, matches!(e.kind, secemb_trace::AccessKind::Read)))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(shape(&mut oram, a), shape(&mut oram, b));
    }

    #[test]
    fn stats_grow_monotonically(
        seed in any::<u64>(),
        reads in 1usize..20,
    ) {
        let blocks: Vec<Vec<u32>> = (0..32u32).map(|i| vec![i; 2]).collect();
        let mut oram = PathOram::new(&blocks, OramConfig::path(2), StdRng::seed_from_u64(seed));
        let mut last = 0u64;
        for i in 0..reads {
            oram.read((i % 32) as u64);
            let s = oram.stats();
            prop_assert_eq!(s.accesses, i as u64 + 1);
            prop_assert!(s.bytes_moved > last);
            last = s.bytes_moved;
        }
    }
}

// ----------------------------------------------------------------------
// Golden trace: the exact tracer event stream and final counters for a
// fixed seed, recorded on the `Vec<Vec<Block>>` implementation before the
// flat-arena rewrite. Any drift means the algorithm (not just where the
// bytes live) changed. The trace hashes and bucket counts were re-recorded
// when trees went to one leaf per `Z` blocks (one level fewer); the trace
// hashes again when the tree became balanced over exactly ⌈n/Z⌉ leaves
// (labels pick their path by their low bits; the path length and so
// every counter stayed). The payload hash moved neither time.
// ----------------------------------------------------------------------

/// Both controllers serve the same request stream, so the payloads they
/// return hash alike.
const GOLDEN_DATA_HASH: u64 = 0xc4a0_c88d_36b9_3405;

/// 300 seeded mixed read/write accesses under the tracer; returns
/// (hash of every event's region/kind/offset/len, hash of every returned
/// payload, final stats).
fn golden_run(oram: &mut dyn Oram) -> (u64, u64, AccessStats) {
    use rand::Rng;
    let n = oram.len();
    let words = oram.block_words();
    let mut rng = StdRng::seed_from_u64(0x5ec_e4b);
    let mut data_hash = Fnv::new();
    let ((), trace) = record_trace(|| {
        for _ in 0..300 {
            let id = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                let val: Vec<u32> = (0..words).map(|_| rng.gen()).collect();
                oram.write(id, &val);
            } else {
                for w in oram.read(id) {
                    data_hash.write(&w.to_le_bytes());
                }
            }
        }
    });
    (trace_hash(&trace), data_hash.0, oram.stats())
}

/// 200 three-word blocks with a tiny recursion threshold so the golden
/// run crosses several position-map levels.
fn golden_config(mut cfg: OramConfig) -> (Vec<Vec<u32>>, OramConfig) {
    cfg.recursion_threshold = 8;
    cfg.posmap_fanout = 4;
    let blocks = (0..200u32).map(|i| vec![i, i ^ 0xa5a5, !i]).collect();
    (blocks, cfg)
}

#[test]
fn golden_trace_circuit() {
    let (blocks, cfg) = golden_config(OramConfig::circuit(3));
    let mut oram = CircuitOram::new(&blocks, cfg, StdRng::seed_from_u64(2025));
    let (trace_hash, data_hash, stats) = golden_run(&mut oram);
    assert_eq!(trace_hash, 0x6a60_4c44_097f_80dd, "event stream drifted");
    assert_eq!(data_hash, GOLDEN_DATA_HASH);
    assert_eq!(
        stats,
        AccessStats {
            accesses: 1200,
            bucket_reads: 14400,
            bucket_writes: 14400,
            stash_scans: 3600,
            stash_slots_scanned: 36000,
            posmap_accesses: 1200,
            bytes_moved: 3_484_800,
            evictions: 2400,
        }
    );
}

#[test]
fn golden_trace_path() {
    let (blocks, cfg) = golden_config(OramConfig::path(3));
    let mut oram = PathOram::new(&blocks, cfg, StdRng::seed_from_u64(2025));
    let (trace_hash, data_hash, stats) = golden_run(&mut oram);
    assert_eq!(trace_hash, 0xb661_8bd5_6e20_b179, "event stream drifted");
    assert_eq!(data_hash, GOLDEN_DATA_HASH);
    assert_eq!(
        stats,
        AccessStats {
            accesses: 1200,
            bucket_reads: 4800,
            bucket_writes: 4800,
            stash_scans: 40800,
            stash_slots_scanned: 6_120_000,
            posmap_accesses: 1200,
            bytes_moved: 1_161_600,
            evictions: 1200,
        }
    );
}

// ----------------------------------------------------------------------
// Soak: a long seeded run against a plain model, with the stash bound
// checked at every step and the full residency invariants periodically.
// ----------------------------------------------------------------------

fn soak<O: Oram>(oram: &mut O, stash_capacity: usize, check_invariants: impl Fn(&O)) {
    use rand::Rng;
    use std::collections::HashMap;
    let n = oram.len();
    let words = oram.block_words();
    let mut model: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0xdecade);
    let mut out = vec![0u32; words];
    for step in 0..20_000u32 {
        let id = rng.gen_range(0..n);
        if rng.gen_bool(0.5) {
            let val: Vec<u32> = (0..words).map(|_| rng.gen()).collect();
            oram.access_into(id, &mut |d| d.copy_from_slice(&val), &mut out);
            assert_eq!(out, val, "step {step}: write must echo the new contents");
            model.insert(id, val);
        } else {
            oram.access_into(id, &mut |_| {}, &mut out);
            let initial = vec![id as u32; words];
            assert_eq!(&out, model.get(&id).unwrap_or(&initial), "step {step}");
        }
        assert!(
            oram.stash_occupancy() <= stash_capacity,
            "step {step}: stash {} over capacity {stash_capacity}",
            oram.stash_occupancy()
        );
        if step.is_multiple_of(500) {
            check_invariants(oram);
        }
    }
    check_invariants(oram);
}

#[test]
fn soak_circuit_20k_accesses() {
    let blocks: Vec<Vec<u32>> = (0..96u32).map(|i| vec![i; 2]).collect();
    let cfg = OramConfig::circuit(2);
    let mut oram = CircuitOram::new(&blocks, cfg, StdRng::seed_from_u64(77));
    soak(&mut oram, cfg.stash_capacity, CircuitOram::check_invariants);
}

#[test]
fn soak_path_20k_accesses() {
    let blocks: Vec<Vec<u32>> = (0..96u32).map(|i| vec![i; 2]).collect();
    let cfg = OramConfig::path(2);
    let mut oram = PathOram::new(&blocks, cfg, StdRng::seed_from_u64(77));
    soak(&mut oram, cfg.stash_capacity, PathOram::check_invariants);
}

// ----------------------------------------------------------------------
// Exact index independence on a short leaf level: 100 blocks, 25 leaves
// under a depth-5 spine (the soaks above run on 24).
// ----------------------------------------------------------------------

/// Four sets of 24 distinct ids out of 100.
fn id_sets() -> Vec<Vec<u64>> {
    (0..4u64)
        .map(|k| (0..24u64).map(|i| (37 * i + 11 * k) % 100).collect())
        .collect()
}

/// Each run warms a same-seed ORAM (untraced) by reading its own id set,
/// then reads the same ids again under the tracer. The warm-up gave the
/// `i`-th id the RNG's `i`-th fresh leaf in every run, so the traced
/// reads fetch the same paths, whichever ids they name: the trace depends
/// on when a block was last touched, never on which block it is.
fn traced_rereads<O: Oram>(build: impl Fn() -> O, reorder: bool) -> Verdict {
    let sets = id_sets();
    let mut orams: Vec<O> = sets
        .iter()
        .map(|ids| {
            let mut oram = build();
            ids.iter().for_each(|&id| drop(oram.read(id)));
            oram
        })
        .collect();
    let runs: Vec<usize> = (0..sets.len()).collect();
    check::compare_traces(&runs, |&k| {
        // Run 1 rereads in another order when asked: a different reuse
        // pattern, which must show.
        let mut ids = sets[k].clone();
        if reorder && k == 1 {
            ids.reverse();
        }
        ids.iter().for_each(|&id| drop(orams[k].read(id)));
    })
}

#[test]
fn traces_are_index_independent_on_a_short_leaf_level() {
    let blocks: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i, !i]).collect();
    let circuit = || CircuitOram::new(&blocks, OramConfig::circuit(2), StdRng::seed_from_u64(9));
    let path = || PathOram::new(&blocks, OramConfig::path(2), StdRng::seed_from_u64(9));
    assert_eq!(circuit().levels(), 5);
    let verdicts = [
        ("Circuit", traced_rereads(circuit, false)),
        ("Path", traced_rereads(path, false)),
    ];
    for (name, verdict) in &verdicts {
        assert!(
            verdict.is_oblivious(),
            "{name} ORAM: run {:?} diverged",
            verdict.first_divergence()
        );
    }
    // Not vacuous: the order of the rereads, which is public, shows.
    assert!(!traced_rereads(circuit, true).is_oblivious());
    assert!(!traced_rereads(path, true).is_oblivious());
}
