//! Secure LLM text generation: fine-tune a small GPT with a DHE token
//! embedding, then serve it with the paper's LLM hybrid — DHE for prefill,
//! Circuit ORAM (over the DHE-materialized table) for decode — and show
//! the generated tokens are identical to the non-secure baseline.
//!
//! ```bash
//! cargo run --release --example llm_secure_generation
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{DheConfig, Technique};
use secemb_data::MarkovCorpus;
use secemb_llm::{Gpt, GptConfig, GptServing, KvCache, TokenEmbeddingKind};
use secemb_nn::Adam;
use secemb_obliv::scan::argmax_f32;

fn main() {
    let vocab = 48usize;
    let corpus = MarkovCorpus::new(vocab, 2, 17);
    let config = GptConfig {
        vocab,
        dim: 32,
        heads: 2,
        layers: 2,
        max_seq: 48,
    };
    let kind = TokenEmbeddingKind::Dhe(DheConfig::new(config.dim, 64, vec![64]));
    let mut gpt = Gpt::new(config, &kind, &mut StdRng::seed_from_u64(0));

    // Fine-tune briefly on the corpus.
    let mut opt = Adam::new(3e-3);
    let mut rng = StdRng::seed_from_u64(1);
    print!("fine-tuning DHE-embedded GPT");
    for step in 0..80 {
        let batch: Vec<Vec<usize>> = (0..4)
            .map(|_| corpus.sample_sequence(32, &mut rng))
            .collect();
        gpt.train_step(&batch, &mut opt);
        if step % 20 == 0 {
            print!(".");
        }
    }
    let test: Vec<Vec<usize>> = (0..6)
        .map(|_| corpus.sample_sequence(32, &mut rng))
        .collect();
    println!(" perplexity {:.2} (vocab {vocab})\n", gpt.perplexity(&test));

    let prompt: Vec<usize> = corpus.sample_sequence(12, &mut rng);
    println!("prompt tokens: {prompt:?}");

    // Non-secure reference generation.
    let mut baseline = GptServing::new(&gpt, Technique::IndexLookup, 0);
    let reference = baseline.generate(&prompt, 10);
    println!("baseline  (lookup): {reference:?}");

    // The paper's hybrid: DHE embeds the (multi-token) prefill; then the
    // embedder is swapped to Circuit ORAM for (single-token) decode.
    let mut hybrid = GptServing::new(&gpt, Technique::Dhe, 0);
    let mut cache = KvCache::default();
    let mut logits = hybrid.prefill(&prompt, &mut cache);
    hybrid.set_embedder(gpt.embedder(Technique::CircuitOram, 42));
    let mut generated = Vec::new();
    for _ in 0..10 {
        let next = argmax_f32(logits.row(0)) as usize; // oblivious argmax
        generated.push(next);
        logits = hybrid.decode(next, &mut cache);
    }
    println!("hybrid (DHE/ORAM) : {generated:?}");
    assert_eq!(reference, generated, "the embedder must not change outputs");
    println!("\nidentical outputs; embedding accesses were oblivious end to end.");
}
