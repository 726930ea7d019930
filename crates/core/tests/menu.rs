//! The technique menu behind its one constructor: what `GeneratorSpec`
//! builds is pinned bit for bit, and every technique built from the same
//! table serves the same rows.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{footprint, Dhe, DheConfig, GeneratorSpec, IndexLookup, Technique, Weights};
use secemb_oram::OramConfig;
use secemb_tensor::Matrix;
use secemb_trace::tracer::record_trace;

#[path = "../../oram/tests/support/fnv.rs"]
mod fnv;

/// Output bits and tracer event stream of `GeneratorSpec::build(7)` for
/// every technique, recorded while `build` still matched on the
/// technique itself. The benchmark's oracle rebuilds each table from the
/// same RNG draw order (synthetic table first, the same `StdRng` handed
/// on to the ORAM or the DHE), so a reordered draw moves these. The three
/// ORAM traces were re-recorded when trees went to one leaf per `Z`
/// blocks (one level fewer), and again when labels started picking their
/// path by their low bits (the balanced tree: same shape at 16 leaves,
/// buckets numbered differently); their rows moved neither time, and
/// the second time the table was no longer drawn before the tree. The
/// look-ahead ORAM's trace became Circuit ORAM's when each of its ops
/// became one Circuit ORAM access; its rows did not move.
#[test]
fn spec_build_matches_the_recorded_bits() {
    let indices = [0u64, 63, 5, 5, 40];
    for (technique, rows_golden, trace_golden) in [
        (
            Technique::IndexLookup,
            0x99f8_1f09_0e23_71b9_u64,
            0xe512_bd7f_7e14_6b30_u64,
        ),
        (
            Technique::LinearScan,
            0x99f8_1f09_0e23_71b9,
            0x5b9d_e5d9_9049_8520,
        ),
        (
            Technique::PathOram,
            0x99f8_1f09_0e23_71b9,
            0xd498_16a5_cb3a_bf98,
        ),
        (
            Technique::CircuitOram,
            0x99f8_1f09_0e23_71b9,
            0x8434_2a95_e334_18d8,
        ),
        (Technique::Dhe, 0x2c97_e5e6_34ae_2362, 0xe6db_9a76_2c6f_3eb6),
        (
            Technique::LaOram,
            0x99f8_1f09_0e23_71b9,
            0x8434_2a95_e334_18d8,
        ),
    ] {
        let mut generator = GeneratorSpec::with_technique(64, 8, technique).build(7);
        let (out, trace) = record_trace(|| generator.generate_batch(&indices));
        let mut h = fnv::Fnv::new();
        for v in out.as_slice() {
            h.write(&v.to_bits().to_le_bytes());
        }
        let got = (h.0, fnv::trace_hash(&trace));
        assert_eq!(
            got,
            (rows_golden, trace_golden),
            "{technique}: ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every technique, built by the one constructor over the same
    /// weights, serves the rows direct indexing reads and describes
    /// itself consistently.
    #[test]
    fn every_technique_serves_the_same_rows(
        rows in 2usize..40,
        dim in 1usize..8,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u64>(), 1..9),
        threads in 1usize..4,
    ) {
        // The table is a DHE's own output, so the DHE is on the menu too.
        let dhe = Dhe::new(DheConfig::new(dim, 8, vec![8]), &mut StdRng::seed_from_u64(seed))
            .with_domain(rows as u64);
        let table = dhe.to_table(rows as u64);
        let indices: Vec<u64> = picks.iter().map(|&p| p % rows as u64).collect();
        let want = IndexLookup::new(table.clone()).generate_batch_ref(&indices);
        let table_bytes = footprint::table_bytes(rows as u64, dim);
        for technique in Technique::ALL {
            let weights = match technique {
                Technique::Dhe => Weights::Dhe(dhe.clone()),
                _ => Weights::Table(table.clone()),
            };
            let mut generator = technique.build(weights, StdRng::seed_from_u64(seed));
            prop_assert_eq!(generator.technique(), technique);
            prop_assert_eq!(generator.dim(), dim);
            prop_assert_eq!(generator.num_embeddings(), rows as u64);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&generator.generate_batch(&indices)), bits(&want), "{}", technique);
            prop_assert_eq!(
                bits(&generator.generate_batch_threaded(&indices, threads)),
                bits(&want),
                "{} on {} threads", technique, threads
            );
            prop_assert_eq!(generator.generate(indices[0]), want.row(0).to_vec());
            let bytes = generator.memory_bytes();
            match technique {
                Technique::IndexLookup | Technique::LinearScan => prop_assert_eq!(bytes, table_bytes),
                Technique::PathOram => prop_assert_eq!(
                    bytes,
                    footprint::tree_oram_bytes(rows as u64, &OramConfig::path(dim))
                ),
                Technique::CircuitOram => prop_assert_eq!(
                    bytes,
                    footprint::tree_oram_bytes(rows as u64, &OramConfig::circuit(dim))
                ),
                Technique::LaOram => prop_assert!(bytes > table_bytes),
                Technique::Dhe => prop_assert_eq!(bytes, dhe.config().memory_bytes()),
            }
            prop_assert_eq!(generator.supports_updates(), technique == Technique::LaOram);
        }
    }
}
