//! The LLM dual-representation policy (§IV-D).
//!
//! Fig. 5 shows the best secure embedder depends on the embedding-
//! generation batch size: DHE wins large batches (prefill), Circuit ORAM
//! can win batch-1 decode. The paper proposes keeping *both*
//! representations — the trained DHE and an ORAM built over the
//! DHE-materialized table — and picking per call from the batch size,
//! which is public (it derives from the request batch, stage, and token
//! counts, none of which the threat model hides).

use crate::serve::embed_tokens;
use crate::Gpt;
use secemb::{EmbeddingGenerator, Technique};
use secemb_tensor::Matrix;

/// Holds both token-embedding representations and routes each embedding
/// batch to the faster one based on a profiled batch-size threshold.
pub struct EmbedderPolicy {
    dhe: Box<dyn EmbeddingGenerator + Send>,
    oram: Box<dyn EmbeddingGenerator + Send>,
    /// Batches of at least this many tokens go to DHE.
    batch_threshold: usize,
    dhe_calls: u64,
    oram_calls: u64,
}

impl std::fmt::Debug for EmbedderPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EmbedderPolicy(threshold {}, dhe {} / oram {} calls)",
            self.batch_threshold, self.dhe_calls, self.oram_calls
        )
    }
}

impl EmbedderPolicy {
    /// Builds the policy from a DHE-trained model: the DHE is reused
    /// directly, the ORAM is built over the materialized token table.
    ///
    /// # Panics
    ///
    /// Panics if `gpt` was not trained with a DHE embedding, or if
    /// `batch_threshold` is zero.
    pub fn from_model(gpt: &Gpt, batch_threshold: usize, seed: u64) -> Self {
        assert!(batch_threshold > 0, "batch_threshold must be positive");
        EmbedderPolicy {
            dhe: gpt.embedder(Technique::Dhe, seed),
            oram: gpt.embedder(Technique::CircuitOram, seed),
            batch_threshold,
            dhe_calls: 0,
            oram_calls: 0,
        }
    }

    /// The profiled batch threshold.
    pub fn batch_threshold(&self) -> usize {
        self.batch_threshold
    }

    /// Which technique a batch of `tokens` tokens would be routed to.
    /// Depends only on the (public) batch size.
    pub fn route(&self, batch: usize) -> Technique {
        if batch >= self.batch_threshold {
            Technique::Dhe
        } else {
            Technique::CircuitOram
        }
    }

    /// Embeds `tokens` through the representation the policy selects.
    pub fn embed(&mut self, tokens: &[usize]) -> Matrix {
        if self.route(tokens.len()) == Technique::Dhe {
            self.dhe_calls += 1;
            embed_tokens(self.dhe.as_mut(), tokens)
        } else {
            self.oram_calls += 1;
            embed_tokens(self.oram.as_mut(), tokens)
        }
    }

    /// `(dhe_calls, oram_calls)` since construction.
    pub fn call_counts(&self) -> (u64, u64) {
        (self.dhe_calls, self.oram_calls)
    }

    /// Total resident bytes of the dual representation — the memory price
    /// of the hybrid, which §IV-D notes "may be high relative to the rest
    /// of the LLM model, especially for smaller language models".
    pub fn memory_bytes(&self) -> u64 {
        self.dhe.memory_bytes() + self.oram.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GptConfig, GptServing, KvCache, TokenEmbeddingKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb::DheConfig;

    fn model() -> Gpt {
        let cfg = GptConfig::tiny(24);
        let kind = TokenEmbeddingKind::Dhe(DheConfig::new(cfg.dim, 16, vec![16]));
        Gpt::new(cfg, &kind, &mut StdRng::seed_from_u64(0))
    }

    #[test]
    fn routes_by_batch_size() {
        let gpt = model();
        let policy = EmbedderPolicy::from_model(&gpt, 4, 1);
        assert_eq!(policy.route(1), Technique::CircuitOram);
        assert_eq!(policy.route(3), Technique::CircuitOram);
        assert_eq!(policy.route(4), Technique::Dhe);
        assert_eq!(policy.route(256), Technique::Dhe);
    }

    #[test]
    fn both_routes_agree_on_values() {
        let gpt = model();
        let mut policy = EmbedderPolicy::from_model(&gpt, 4, 1);
        // Large batch -> DHE; per-token values must match the ORAM'd table
        // (which was materialized FROM the DHE).
        let batch = policy.embed(&[3, 9, 17, 2, 11]);
        let single = policy.embed(&[9]); // routed to ORAM
        assert_eq!(policy.call_counts(), (1, 1));
        for c in 0..batch.cols() {
            assert!(
                (batch.get(1, c) - single.get(0, c)).abs() < 1e-6,
                "dual representations diverged at col {c}"
            );
        }
    }

    #[test]
    fn drives_prefill_and_decode_via_serving() {
        let gpt = model();
        let mut policy = EmbedderPolicy::from_model(&gpt, 2, 1);
        let prompt = [5usize, 1, 8];
        // Reference: plain DHE serving end-to-end.
        let mut reference = GptServing::new(&gpt, Technique::Dhe, 0);
        let expect = reference.generate(&prompt, 4);

        // Policy-driven: DHE prefill (batch 3 >= 2), ORAM decode (batch 1).
        let mut serve = GptServing::new(&gpt, Technique::Dhe, 0);
        let mut cache = KvCache::default();
        let mut logits = serve.prefill(&prompt, &mut cache);
        serve.set_embedder(gpt.embedder(Technique::CircuitOram, 1));
        let mut got = Vec::new();
        for _ in 0..4 {
            let next = secemb_obliv::scan::argmax_f32(logits.row(0)) as usize;
            got.push(next);
            logits = serve.decode(next, &mut cache);
        }
        assert_eq!(expect, got);
        let _ = policy.embed(prompt.as_ref());
    }

    #[test]
    fn memory_accounts_both_representations() {
        let gpt = model();
        let policy = EmbedderPolicy::from_model(&gpt, 4, 1);
        let dhe_only = gpt.embedder(Technique::Dhe, 1).memory_bytes();
        let oram_only = gpt.embedder(Technique::CircuitOram, 1).memory_bytes();
        assert_eq!(policy.memory_bytes(), dhe_only + oram_only);
    }

    #[test]
    #[should_panic(expected = "batch_threshold must be positive")]
    fn zero_threshold_rejected() {
        EmbedderPolicy::from_model(&model(), 0, 1);
    }
}
