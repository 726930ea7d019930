//! Security across reallocation: every protected generator's
//! access-pattern guarantee must hold in all three phases of a live swap
//! — before the swap order, *during* it (in-flight work still on the old
//! epoch's generator), and after the new epoch takes over.
//!
//! The serving engine applies swaps on worker threads, but the trace
//! recorder is thread-local, so these tests replay the worker's exact
//! swap discipline on the test thread: serve on the active generator,
//! stage the replacement, keep serving the in-flight batch on the old
//! one, then exchange the box between batches — the same sequence
//! `secemb-serve`'s shard loop performs.

use secemb::security::{verify_exact, verify_exact_batched, verify_structural};
use secemb::{EmbeddingGenerator, GeneratorSpec, Technique};

const ROWS: u64 = 64;
const DIM: usize = 8;
const SEED: u64 = 5;

/// A shard's generator slot, driven the way the worker loop drives it.
struct SwapSlot {
    active: Box<dyn EmbeddingGenerator + Send>,
    staged: Option<Box<dyn EmbeddingGenerator + Send>>,
}

impl SwapSlot {
    fn new(technique: Technique) -> Self {
        SwapSlot {
            active: GeneratorSpec::with_technique(ROWS, DIM, technique).build(SEED),
            staged: None,
        }
    }

    /// The controller's side of apply_plan: build the replacement off the
    /// worker and hand over a swap order.
    fn order_swap(&mut self, technique: Technique) {
        self.staged = Some(GeneratorSpec::with_technique(ROWS, DIM, technique).build(SEED));
    }

    /// The worker's between-batches control poll.
    fn apply_pending(&mut self) {
        if let Some(next) = self.staged.take() {
            self.active = next;
        }
    }
}

/// Different secret indices the attacker might try to distinguish.
fn candidates() -> Vec<u64> {
    vec![0, 1, ROWS / 2, ROWS - 1]
}

/// Asserts the guarantee appropriate to the generator's technique: exact
/// trace equality for the deterministic generators, structural equality
/// for the randomized ORAM controllers.
fn assert_oblivious(generator: &mut dyn EmbeddingGenerator, phase: &str) {
    let technique = generator.technique();
    match technique {
        Technique::LinearScan | Technique::Dhe => {
            assert!(
                verify_exact(generator, &candidates()).is_oblivious(),
                "{technique} leaked ({phase})"
            );
            assert!(
                verify_exact_batched(
                    generator,
                    &[
                        vec![0, 1, 2],
                        vec![ROWS - 1, ROWS - 2, ROWS - 3],
                        vec![7, 7, 7]
                    ],
                )
                .is_oblivious(),
                "{technique} leaked in batched generation ({phase})"
            );
        }
        Technique::PathOram | Technique::CircuitOram | Technique::LaOram => {
            assert!(
                verify_structural(generator, &candidates()),
                "{technique} trace structure varies with the secret ({phase})"
            );
        }
        Technique::IndexLookup => unreachable!("lookup is not a protected generator"),
    }
}

/// Every protected technique, flipped to a different protected technique
/// — each read-only one appears as both the outgoing and the incoming
/// generator, and every edge of the controller's three-way
/// scan/Circuit-ORAM/DHE lattice is walked in both directions (a table
/// crossing the hysteresis band can take any of them live). The writable
/// look-ahead table only ever comes in: a plan never moves a table with a
/// write path away.
const FLIPS: [(Technique, Technique); 10] = [
    (Technique::LinearScan, Technique::Dhe),
    (Technique::Dhe, Technique::LinearScan),
    (Technique::LinearScan, Technique::CircuitOram),
    (Technique::CircuitOram, Technique::LinearScan),
    (Technique::CircuitOram, Technique::Dhe),
    (Technique::Dhe, Technique::CircuitOram),
    (Technique::PathOram, Technique::CircuitOram),
    (Technique::CircuitOram, Technique::PathOram),
    (Technique::CircuitOram, Technique::LaOram),
    (Technique::LinearScan, Technique::LaOram),
];

#[test]
fn trace_equivalence_survives_a_live_reallocation() {
    for (old, new) in FLIPS {
        let mut slot = SwapSlot::new(old);

        // Phase 1 — before: the startup allocation serves.
        assert_oblivious(slot.active.as_mut(), "before swap");

        // Phase 2 — during: the swap is ordered but in-flight batches
        // still run on the old epoch's generator.
        slot.order_swap(new);
        assert_oblivious(slot.active.as_mut(), "during swap, old epoch");
        assert_eq!(
            slot.active.technique(),
            old,
            "in-flight work must stay on the old epoch"
        );

        // Phase 3 — after: the worker exchanges generators between
        // batches; the new epoch serves.
        slot.apply_pending();
        assert_eq!(slot.active.technique(), new);
        assert_oblivious(slot.active.as_mut(), "after swap");
    }
}

#[test]
fn swapped_in_generator_is_deterministic_in_the_seed() {
    // The reallocation rebuilds a table from its original seed: two
    // independent builds of the swapped-in generator must agree, or a
    // swap would silently change the model.
    for technique in [Technique::LinearScan, Technique::Dhe] {
        let spec = GeneratorSpec::with_technique(ROWS, DIM, technique);
        let (mut a, mut b) = (spec.build(SEED), spec.build(SEED));
        assert_eq!(
            a.generate_batch(&[0, 5, 9]),
            b.generate_batch(&[0, 5, 9]),
            "{technique} rebuild differs"
        );
    }
}
