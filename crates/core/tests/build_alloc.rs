//! Allocation witness for the build path: a tree ORAM built from a spec
//! draws each row straight into its slot, so building it allocates the
//! tree, the stash and the position map — and no copy of the table; a
//! DHE built from a spec allocates its decoder weights and hash
//! coefficients — and no gradient or optimizer moments; and serving a
//! copy of a trained DHE allocates its weights only.
//!
//! The counting allocator is local to this test binary (the library
//! crates forbid `unsafe`).

#[path = "../../oram/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_in;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{Dhe, DheConfig, EmbeddingGenerator, GeneratorSpec, Technique, Weights};
use secemb_nn::{Adam, Grads, Optimizer, Tape};

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

#[test]
fn serving_a_trained_dhe_copies_its_weights_only() {
    let mut trained = Dhe::new(
        DheConfig::varied(64, 4_194_304),
        &mut StdRng::seed_from_u64(1),
    );
    // One training step; the optimizer outlives it with its moments.
    let mut adam = Adam::new(0.01);
    {
        let indices: Vec<u64> = (0..8).map(|i| i * 7919).collect();
        let mut tape = Tape::training();
        let out = trained.forward(&indices, &mut tape);
        let mut grads = Grads::zeros(&mut trained);
        trained.backward(&mut tape, &out, &mut grads);
        adam.step(&mut trained, &grads);
    }
    let mut served = None;
    let (_, bytes) = allocated_in(|| {
        served = Some(Technique::Dhe.build(Weights::Dhe(trained.clone()), StdRng::seed_from_u64(2)))
    });
    let memory = served.expect("built").memory_bytes();
    assert_eq!(memory, trained.memory_bytes());
    // Beyond the weights: the layer list, its trace lengths, and the
    // boxed generator. One batch of activations per layer, a gradient or
    // two moments per weight would each add to it.
    let allowed = memory + 64 * 1024;
    assert!(
        bytes <= allowed,
        "served {memory} B of trained DHE with {bytes} B of allocation (allowed {allowed})"
    );
}
