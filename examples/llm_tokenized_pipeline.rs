//! The paper's full LLM deployment picture in one program:
//!
//! 1. *Trusted client*: a tokenizer turns text into token ids (§III — the
//!    tokenizer is public; encoding happens on the user's device).
//! 2. *Untrusted server*: a DHE-embedded GPT serves the request. Prefill
//!    and decode route through the [`EmbedderPolicy`] dual representation
//!    (§IV-D), and sampled decoding uses the oblivious top-k.
//! 3. *Trusted client*: ids decode back to text.
//!
//! ```bash
//! cargo run --release --example llm_tokenized_pipeline
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{DheConfig, Technique};
use secemb_data::Tokenizer;
use secemb_llm::{EmbedderPolicy, Gpt, GptConfig, GptServing, KvCache};
use secemb_nn::Adam;
use secemb_obliv::scan::argmax_f32;

const CORPUS: &str = "\
the cache leaks the index and the index is the secret \
the scan hides the index and the oram hides the index \
the hash computes the vector and the vector hides the index \
the model serves the user and the user trusts the model \
the table stores the vector and the scan reads the table \
the prefill uses the hash and the decode uses the oram";

fn main() {
    // --- Trusted client side: build the (public) tokenizer.
    let tokenizer = Tokenizer::train(CORPUS, 48);
    println!("tokenizer: {} words\n", tokenizer.vocab_size());

    // --- Server side: fine-tune a DHE-embedded GPT on the corpus.
    let config = GptConfig {
        vocab: tokenizer.vocab_size(),
        dim: 32,
        heads: 2,
        layers: 2,
        max_seq: 48,
    };
    let kind = secemb_llm::TokenEmbeddingKind::Dhe(DheConfig::new(config.dim, 64, vec![64]));
    let mut gpt = Gpt::new(config, &kind, &mut StdRng::seed_from_u64(0));
    let training_ids = tokenizer.encode(CORPUS);
    let mut opt = Adam::new(3e-3);
    print!("fine-tuning on the corpus");
    for step in 0..150 {
        // Slide fixed windows over the corpus as training sequences.
        let start = (step * 7) % (training_ids.len() - 24);
        let seq = training_ids[start..start + 24].to_vec();
        gpt.train_step(&[seq], &mut opt);
        if step % 50 == 0 {
            print!(".");
        }
    }
    let ppl = gpt.perplexity(&[training_ids[..32].to_vec()]);
    println!(" corpus perplexity {ppl:.2} (vocab {})\n", config.vocab);

    // --- Serve a request through the dual-representation policy.
    let prompt_text = "the cache leaks the";
    let prompt = tokenizer.encode(prompt_text);
    println!("client prompt: {prompt_text:?} -> ids {prompt:?}");

    let policy = EmbedderPolicy::from_model(&gpt, 4, 1);
    println!(
        "policy: batches >= {} tokens -> {}, smaller -> {} (dual memory {} B)",
        policy.batch_threshold(),
        Technique::Dhe,
        Technique::CircuitOram,
        policy.memory_bytes()
    );

    // Greedy continuation, prefill via DHE and decode via ORAM.
    let mut serve = GptServing::new(&gpt, policy.route(prompt.len()), 2);
    let mut cache = KvCache::default();
    let mut logits = serve.prefill(&prompt, &mut cache);
    serve.set_embedder(gpt.embedder(policy.route(1), 3));
    let mut generated = Vec::new();
    for _ in 0..6 {
        let next = argmax_f32(logits.row(0)) as usize;
        generated.push(next);
        logits = serve.decode(next, &mut cache);
    }
    println!(
        "greedy  (ids {generated:?}): {:?}",
        tokenizer.decode(&generated)
    );

    // Sampled continuation with the oblivious top-k.
    let mut sampler = GptServing::new(&gpt, Technique::Dhe, 2);
    let mut rng = StdRng::seed_from_u64(7);
    let sampled = sampler.generate_top_k(&prompt, 6, 3, &mut rng);
    println!(
        "top-k=3 (ids {sampled:?}): {:?}",
        tokenizer.decode(&sampled)
    );
}
