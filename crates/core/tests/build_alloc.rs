//! Allocation witness for the build path: a tree ORAM built from a spec
//! draws each row straight into its slot, so building it allocates the
//! tree, the stash and the position map — and no copy of the table; a
//! DHE built from a spec allocates its decoder weights and hash
//! coefficients — and no gradient or optimizer moments.
//!
//! The counting allocator is local to this test binary (the library
//! crates forbid `unsafe`).

#[path = "../../oram/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_in;
use secemb::GeneratorSpec;

#[test]
fn spec_build_allocates_no_staging_table() {
    // 20 000 × 16: a 1.25 MiB table, and a Circuit ORAM whose position
    // map recurses once.
    let (rows, dim) = (20_000u64, 16usize);
    for spec in [
        GeneratorSpec::CircuitOram { rows, dim },
        GeneratorSpec::PathOram { rows, dim },
        GeneratorSpec::LaOram { rows, dim },
    ] {
        let mut generator = None;
        let (_, bytes) = allocated_in(|| generator = Some(spec.build(7)));
        let memory = generator.expect("built").memory_bytes();
        // Beyond the structure itself: the leaf labels the layout draws
        // before the position map packs them (8 B per row), and scratch.
        let allowed = memory + 8 * rows + 64 * 1024;
        assert!(
            bytes <= allowed,
            "{spec}: built {memory} B of ORAM with {bytes} B of allocation \
             (allowed {allowed}; a staged table adds {} B)",
            rows * dim as u64 * 4
        );
    }
}

#[test]
fn spec_build_allocates_dhe_weights_only() {
    let dim = 64usize;
    for spec in [
        GeneratorSpec::Dhe {
            rows: 1_048_576,
            dim,
        },
        GeneratorSpec::Dhe {
            rows: 4_194_304,
            dim,
        },
        GeneratorSpec::Dhe {
            rows: 10_000_000,
            dim,
        },
        GeneratorSpec::Hybrid {
            rows: 4_194_304,
            dim,
            threshold: 100_000,
        },
    ] {
        let mut generator = None;
        let (_, bytes) = allocated_in(|| generator = Some(spec.build(7)));
        let generator = generator.expect("built");
        assert_eq!(generator.technique(), secemb::Technique::Dhe, "{spec}");
        let memory = generator.memory_bytes();
        // Beyond the weights: the layer list, its trace lengths, and the
        // boxed generator.
        let allowed = memory + 64 * 1024;
        assert!(
            bytes <= allowed,
            "{spec}: built {memory} B of DHE with {bytes} B of allocation \
             (allowed {allowed}; a gradient and two moments per weight \
             would add three times the weights)"
        );
    }
}
