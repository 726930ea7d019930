//! Property-based cross-generator tests: every secure storage generator
//! must be extensionally equal to the direct lookup, and DHE must be a
//! pure function of its inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{
    footprint, Dhe, DheConfig, EmbeddingGenerator, GeneratorSpec, IndexLookup, LinearScan,
    OramTable,
};
use secemb_nn::Tape;
use secemb_oram::OramConfig;
use secemb_tensor::Matrix;

#[allow(dead_code)] // `trace_hash` serves the ORAM golden tests
#[path = "../../oram/tests/support/fnv.rs"]
mod fnv;

fn table(rows: usize, dim: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, dim, |r, c| {
        let x = (r * dim + c) as u64 ^ seed;
        (x.wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f32 * 1e-3 - 8.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scan_equals_lookup(
        rows in 1usize..64,
        dim in 1usize..12,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let t = table(rows, dim, seed);
        let indices: Vec<u64> = picks.iter().map(|&p| p % rows as u64).collect();
        let mut lookup = IndexLookup::new(t.clone());
        let mut scan = LinearScan::new(t);
        prop_assert_eq!(
            lookup.generate_batch(&indices),
            scan.generate_batch(&indices)
        );
    }

    #[test]
    fn orams_equal_lookup(
        rows in 2usize..48,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let dim = 4;
        let t = table(rows, dim, seed);
        let indices: Vec<u64> = picks.iter().map(|&p| p % rows as u64).collect();
        let mut lookup = IndexLookup::new(t.clone());
        let expect = lookup.generate_batch(&indices);
        let mut path = OramTable::path(&t, StdRng::seed_from_u64(seed));
        prop_assert_eq!(path.generate_batch(&indices), expect.clone());
        let mut circuit = OramTable::circuit(&t, StdRng::seed_from_u64(seed));
        prop_assert_eq!(circuit.generate_batch(&indices), expect);
    }

    #[test]
    fn dhe_is_a_pure_function(
        k in 1usize..32,
        dim in 1usize..8,
        seed in any::<u64>(),
        ids in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut dhe = Dhe::new(
            DheConfig::new(dim, k, vec![k.max(2)]),
            &mut StdRng::seed_from_u64(seed),
        );
        let a = dhe.generate_batch(&ids);
        let b = dhe.generate_batch(&ids);
        prop_assert_eq!(a.clone(), b);
        // Batch equals singles.
        for (row, &id) in ids.iter().enumerate() {
            prop_assert_eq!(a.row(row).to_vec(), dhe.generate(id));
        }
        prop_assert!(a.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dhe_to_table_round_trips_through_scan(
        seed in any::<u64>(),
        n in 2u64..24,
    ) {
        let dhe = Dhe::new(DheConfig::new(3, 8, vec![8]), &mut StdRng::seed_from_u64(seed));
        let table = dhe.to_table(n);
        let mut scan = LinearScan::new(table);
        for id in 0..n {
            prop_assert_eq!(scan.generate(id), dhe.forward(&[id], &mut Tape::inference()).row(0).to_vec());
        }
    }

    #[test]
    fn footprints_are_monotone_in_table_size(
        small in 2u64..1000,
        extra in 1u64..100_000,
        dim in 1usize..128,
    ) {
        let large = small + extra;
        prop_assert!(footprint::table_bytes(small, dim) < footprint::table_bytes(large, dim));
        let cfg = OramConfig::circuit(dim);
        prop_assert!(
            footprint::tree_oram_bytes(small, &cfg) <= footprint::tree_oram_bytes(large, &cfg)
        );
        // ORAM always costs more than the raw table it protects.
        prop_assert!(
            footprint::tree_oram_bytes(small, &cfg) > footprint::table_bytes(small, dim)
        );
    }

    #[test]
    fn varied_dhe_never_exceeds_uniform(rows in 1u64..20_000_000, dim in 1usize..256) {
        let varied = DheConfig::varied(dim, rows);
        let uniform = DheConfig::uniform(dim);
        prop_assert!(varied.param_count() <= uniform.param_count().max(varied.param_count()));
        prop_assert!(varied.k <= uniform.k.max(varied.k));
        if rows >= 10_000_000 {
            prop_assert_eq!(varied.k, uniform.k);
        }
    }

    #[test]
    fn memory_reporting_is_consistent(
        rows in 2usize..32,
        dim in 1usize..8,
        seed in any::<u64>(),
    ) {
        let t = table(rows, dim, seed);
        let lookup = IndexLookup::new(t.clone());
        let scan = LinearScan::new(t.clone());
        prop_assert_eq!(lookup.memory_bytes(), scan.memory_bytes());
        let oram = OramTable::circuit(&t, StdRng::seed_from_u64(seed));
        prop_assert_eq!(
            EmbeddingGenerator::memory_bytes(&oram),
            footprint::tree_oram_bytes(rows as u64, &OramConfig::circuit(dim))
        );
    }
}

/// The output bits of the served DHE shapes, recorded before the tiled
/// GEMM went in under `Matrix::matmul_transpose_b`: a kernel change that
/// reorders one addition moves these, and with them every checkpoint and
/// `to_table` a trained DHE was exported through.
#[test]
fn dhe_outputs_match_the_recorded_bits() {
    for (spec, golden) in [
        (
            "dhe:10000000x64",
            [
                0x2b4e_7bb6_6837_442e_u64,
                0x8f52_cd18_521b_22f7,
                0x39f5_c243_9368_2bcf,
                0x843a_b40a_20f3_d53d,
            ],
        ),
        (
            "dhe:100000x64",
            [
                0xe34d_44f3_af0f_143c,
                0xf1bd_0901_6637_daa9,
                0x49cc_cafc_3ca1_416e,
                0x5def_0db8_3d12_ce2a,
            ],
        ),
    ] {
        let spec: GeneratorSpec = spec.parse().unwrap();
        let mut dhe = spec.build(42);
        for (batch, want) in [1usize, 8, 16, 64].into_iter().zip(golden) {
            let ids: Vec<u64> = (0..batch as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % spec.rows())
                .collect();
            let mut h = fnv::Fnv::new();
            for v in dhe.generate_batch(&ids).as_slice() {
                h.write(&v.to_bits().to_le_bytes());
            }
            assert_eq!(h.0, want, "{spec} batch {batch}: {:#018x}", h.0);
        }
    }
}
