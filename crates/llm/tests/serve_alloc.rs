//! Allocation witness for the training → serving hand-over of a
//! DHE-trained GPT: its token embedder copies the DHE's weights and
//! nothing else, and its serving handle borrows the model (the untied
//! head included) — a model with an untied head never materializes its
//! token table.
//!
//! The counting allocator is local to this test binary (the library
//! crates forbid `unsafe`).

#[path = "../../oram/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_in;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::Technique;
use secemb_llm::{Gpt, GptConfig, GptServing, TokenEmbeddingKind};
use secemb_nn::Adam;

#[test]
fn serving_a_trained_dhe_model_allocates_its_weights_only() {
    let config = GptConfig::tiny(512);
    let kind = TokenEmbeddingKind::Dhe(config.dhe_config());
    let mut gpt = Gpt::new(config, &kind, &mut StdRng::seed_from_u64(1));
    gpt.train_step(&[vec![1, 5, 9, 2, 7, 300]], &mut Adam::new(0.01));
    // Beyond the weights: the layer structs and lists and the boxes.
    let slack = 4 * 1024;

    let mut embedder = None;
    let (_, bytes) = allocated_in(|| embedder = Some(gpt.embedder(Technique::Dhe, 0)));
    let embedder = embedder.expect("built");
    let dhe = embedder.memory_bytes();
    assert!(
        bytes <= dhe + slack,
        "embedder: {dhe} B of DHE built with {bytes} B of allocation"
    );

    let (_, bytes) = allocated_in(|| drop(GptServing::with_embedder(&gpt, embedder)));
    let head = ((config.vocab * config.dim + config.vocab) * 4) as u64;
    assert!(
        bytes <= head + slack,
        "serving handle: a {head} B head with {bytes} B of allocation \
         (a token table adds {} B)",
        config.vocab * config.dim * 4
    );
}
