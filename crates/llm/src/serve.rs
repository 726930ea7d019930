//! Serving with a prefill/decode split, KV cache, and pluggable secure
//! token embedding.

use crate::model::Gpt;
use crate::GptConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{EmbeddingGenerator, Technique, Weights};
use secemb_nn::{Module, Tape};
use secemb_tensor::{ops, Matrix};

impl Gpt {
    /// Builds the token embedder of the given technique from this trained
    /// model — materializing the token table when a storage
    /// representation is requested (the paper's DHE→table conversion for
    /// the LLM hybrid), reusing the trained DHE otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `Technique::Dhe` is requested from a table-trained model.
    pub fn embedder(&self, technique: Technique, seed: u64) -> Box<dyn EmbeddingGenerator + Send> {
        let weights = match technique {
            Technique::Dhe => Weights::Dhe(
                self.dhe()
                    .expect("Technique::Dhe requires a DHE-trained model")
                    .clone(),
            ),
            _ => Weights::Table(self.token_table()),
        };
        technique.build(weights, StdRng::seed_from_u64(seed))
    }
}

/// Generates embeddings for `tokens` (the embedding-generation batch).
pub(crate) fn embed_tokens(embedder: &mut dyn EmbeddingGenerator, tokens: &[usize]) -> Matrix {
    let ids: Vec<u64> = tokens.iter().map(|&t| t as u64).collect();
    embedder.generate_batch(&ids)
}

/// Per-layer key/value cache for autoregressive decoding.
#[derive(Clone, Debug, Default)]
pub struct KvCache {
    layers: Vec<LayerKv>,
    len: usize,
}

#[derive(Clone, Debug, Default)]
struct LayerKv {
    k: Vec<f32>, // len × dim, row-major
    v: Vec<f32>,
}

impl KvCache {
    /// Cached sequence length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A trained GPT served with secure embedding generation and KV-cached
/// decoding.
///
/// Borrows every transformer weight, the LM head included, from the
/// trained [`Gpt`]; the embedder is owned and swappable, which is how the
/// paper's LLM hybrid serves prefill with DHE and decode with Circuit
/// ORAM from one model.
pub struct GptServing<'a> {
    gpt: &'a Gpt,
    embedder: Box<dyn EmbeddingGenerator + Send>,
}

impl std::fmt::Debug for GptServing<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GptServing({})", self.embedder.technique())
    }
}

impl<'a> GptServing<'a> {
    /// Serves `gpt` with `technique` for token embedding.
    pub fn new(gpt: &'a Gpt, technique: Technique, seed: u64) -> Self {
        Self::with_embedder(gpt, gpt.embedder(technique, seed))
    }

    /// Serves `gpt` with a pre-built embedder.
    pub fn with_embedder(gpt: &'a Gpt, embedder: Box<dyn EmbeddingGenerator + Send>) -> Self {
        GptServing { gpt, embedder }
    }

    /// The model configuration.
    pub fn config(&self) -> &GptConfig {
        self.gpt.config()
    }

    /// The active embedder.
    pub fn embedder(&self) -> &dyn EmbeddingGenerator {
        self.embedder.as_ref()
    }

    /// Swaps the embedder (prefill→decode representation switch).
    pub fn set_embedder(&mut self, embedder: Box<dyn EmbeddingGenerator + Send>) {
        self.embedder = embedder;
    }

    /// Prefill: processes the whole `prompt`, fills `cache`, and returns
    /// the logits of the last position (`1 × vocab`).
    ///
    /// # Panics
    ///
    /// Panics if the prompt is empty, the cache is non-empty, or the
    /// prompt exceeds `max_seq`.
    pub fn prefill(&mut self, prompt: &[usize], cache: &mut KvCache) -> Matrix {
        assert!(!prompt.is_empty(), "empty prompt");
        assert!(cache.is_empty(), "prefill requires a fresh cache");
        let cfg = *self.gpt.config();
        assert!(prompt.len() <= cfg.max_seq, "prompt exceeds max_seq");
        cache.layers = vec![LayerKv::default(); cfg.layers];

        let tok = embed_tokens(self.embedder.as_mut(), prompt);
        let mut x = tok;
        for (r, pos) in (0..prompt.len()).enumerate() {
            for (xv, pv) in x.row_mut(r).iter_mut().zip(self.pos_row(pos)) {
                *xv += pv;
            }
        }
        for (layer, block) in self.gpt.blocks.iter().enumerate() {
            x = self.block_forward(block, &x, &mut cache.layers[layer], cache.len);
        }
        cache.len += prompt.len();
        let xf = self.gpt.ln_f.forward(&x, &mut Tape::inference());
        let last = Matrix::from_vec(1, cfg.dim, xf.row(xf.rows() - 1).to_vec());
        self.gpt.logits(&last, &mut Tape::inference())
    }

    /// Decode: processes one token at the cache's current position and
    /// returns its logits (`1 × vocab`).
    ///
    /// # Panics
    ///
    /// Panics if the cache is empty (prefill first) or full.
    pub fn decode(&mut self, token: usize, cache: &mut KvCache) -> Matrix {
        assert!(!cache.is_empty(), "decode requires a prefilled cache");
        let cfg = *self.gpt.config();
        assert!(cache.len < cfg.max_seq, "context window exhausted");
        let tok = embed_tokens(self.embedder.as_mut(), &[token]);
        let mut x = tok;
        for (xv, pv) in x.row_mut(0).iter_mut().zip(self.pos_row(cache.len)) {
            *xv += pv;
        }
        for (layer, block) in self.gpt.blocks.iter().enumerate() {
            x = self.block_forward(block, &x, &mut cache.layers[layer], cache.len);
        }
        cache.len += 1;
        let xf = self.gpt.ln_f.forward(&x, &mut Tape::inference());
        self.gpt.logits(&xf, &mut Tape::inference())
    }

    /// Greedy generation: prefill `prompt`, then decode `new_tokens`
    /// tokens, selecting each with the **oblivious argmax** (§V-C).
    /// Returns the generated tokens.
    pub fn generate(&mut self, prompt: &[usize], new_tokens: usize) -> Vec<usize> {
        let mut cache = KvCache::default();
        let mut logits = self.prefill(prompt, &mut cache);
        let mut out = Vec::with_capacity(new_tokens);
        for _ in 0..new_tokens {
            let next = secemb_obliv::scan::argmax_f32(logits.row(0)) as usize;
            out.push(next);
            if cache.len() >= self.gpt.config().max_seq {
                break;
            }
            logits = self.decode(next, &mut cache);
        }
        out
    }

    /// Top-k sampled generation with protected selection: candidates come
    /// from the **oblivious top-k** scan, their probabilities are renormed,
    /// and the draw picks among them with constant-time selects — so the
    /// sampling step touches the same memory for every logit vector.
    /// (The paper secures greedy argmax; this extends the construction to
    /// sampled decoding with identical access-pattern guarantees.)
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the vocabulary.
    pub fn generate_top_k(
        &mut self,
        prompt: &[usize],
        new_tokens: usize,
        k: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<usize> {
        let mut cache = KvCache::default();
        let mut logits = self.prefill(prompt, &mut cache);
        let mut out = Vec::with_capacity(new_tokens);
        for _ in 0..new_tokens {
            let next = sample_top_k(logits.row(0), k, rng);
            out.push(next);
            if cache.len() >= self.gpt.config().max_seq {
                break;
            }
            logits = self.decode(next, &mut cache);
        }
        out
    }

    fn pos_row(&self, pos: usize) -> &[f32] {
        self.gpt.pos.table().row(pos)
    }

    /// One block with KV caching. `x` holds `t_new` rows at positions
    /// `past .. past + t_new`.
    fn block_forward(
        &self,
        block: &crate::Block,
        x: &Matrix,
        kv: &mut LayerKv,
        past: usize,
    ) -> Matrix {
        let cfg = self.gpt.config();
        let (heads, dim) = (cfg.heads, cfg.dim);
        let hs = dim / heads;
        let scale = 1.0 / (hs as f32).sqrt();
        let t_new = x.rows();
        let tape = &mut Tape::inference();

        let h = block.ln1().forward(x, tape);
        let attn = block.attention();
        let q = attn.wq().forward(&h, tape);
        let k = attn.wk().forward(&h, tape);
        let v = attn.wv().forward(&h, tape);
        kv.k.extend_from_slice(k.as_slice());
        kv.v.extend_from_slice(v.as_slice());
        let total = past + t_new;

        let mut concat = Matrix::zeros(t_new, dim);
        for head in 0..heads {
            let col0 = head * hs;
            for r in 0..t_new {
                let visible = past + r + 1; // causal horizon for this row
                let qrow = &q.row(r)[col0..col0 + hs];
                let mut scores = vec![f32::NEG_INFINITY; total];
                for (j, s) in scores.iter_mut().enumerate().take(visible) {
                    let krow = &kv.k[j * dim + col0..j * dim + col0 + hs];
                    *s = qrow.iter().zip(krow).map(|(&a, &b)| a * b).sum::<f32>() * scale;
                }
                // softmax over the visible prefix
                let mut sm = Matrix::from_vec(1, visible, scores[..visible].to_vec());
                ops::softmax_rows_inplace(&mut sm);
                let out = &mut concat.row_mut(r)[col0..col0 + hs];
                for (j, &p) in sm.row(0).iter().enumerate() {
                    let vrow = &kv.v[j * dim + col0..j * dim + col0 + hs];
                    for (o, &vv) in out.iter_mut().zip(vrow) {
                        *o += p * vv;
                    }
                }
            }
        }
        let x = x.add(&attn.wo().forward(&concat, tape));
        let f = block
            .feed_forward()
            .forward(&block.ln2().forward(&x, tape), tape);
        x.add(&f)
    }
}

/// Draws one token from the top-`k` of `logits` with data-independent
/// memory accesses: oblivious top-k, softmax over the k candidates, and a
/// constant-time select of the drawn candidate.
fn sample_top_k(logits: &[f32], k: usize, rng: &mut impl rand::Rng) -> usize {
    let candidates = secemb_obliv::scan::top_k_f32(logits, k.min(logits.len()));
    // Candidate probabilities (renormalized softmax over the k values).
    let max = logits[candidates[0] as usize];
    let weights: Vec<f32> = candidates
        .iter()
        .map(|&c| (logits[c as usize] - max).exp())
        .collect();
    let total: f32 = weights.iter().sum();
    let draw: f32 = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
    // Constant-time pick of the first candidate whose cumulative weight
    // passes the draw: every candidate is visited exactly once.
    let mut cumulative = 0.0f32;
    let mut chosen = candidates[0];
    let mut done = secemb_obliv::Choice::FALSE;
    for (&c, &w) in candidates.iter().zip(weights.iter()) {
        cumulative += w;
        let take = secemb_obliv::cmp::gt_f32(cumulative, draw) & !done;
        chosen = secemb_obliv::select::u64(take, c, chosen);
        done = done | take;
    }
    chosen as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gpt, TokenEmbeddingKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb::DheConfig;

    fn table_model() -> Gpt {
        let mut rng = StdRng::seed_from_u64(0);
        Gpt::new(GptConfig::tiny(24), &TokenEmbeddingKind::Table, &mut rng)
    }

    fn dhe_model() -> Gpt {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GptConfig::tiny(24);
        let kind = TokenEmbeddingKind::Dhe(DheConfig::new(cfg.dim, 16, vec![16]));
        Gpt::new(cfg, &kind, &mut rng)
    }

    #[test]
    fn prefill_matches_training_forward() {
        let gpt = table_model();
        let prompt = vec![3usize, 9, 17, 2];
        let train_logits = gpt.forward_sequence(&prompt);
        let mut serve = GptServing::new(&gpt, Technique::IndexLookup, 0);
        let mut cache = KvCache::default();
        let serve_logits = serve.prefill(&prompt, &mut cache);
        let last = train_logits.rows() - 1;
        for c in 0..24 {
            assert!(
                (train_logits.get(last, c) - serve_logits.get(0, c)).abs() < 1e-4,
                "logit {c} diverges"
            );
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn kv_decode_matches_full_recompute() {
        // Decoding token-by-token with the KV cache must give the same
        // logits as re-running the whole prefix each time.
        let gpt = table_model();
        let tokens = [5usize, 1, 8, 20, 11];
        let mut serve = GptServing::new(&gpt, Technique::IndexLookup, 0);
        let mut cache = KvCache::default();
        let mut incremental = vec![serve.prefill(&tokens[..2], &mut cache)];
        for &t in &tokens[2..] {
            incremental.push(serve.decode(t, &mut cache));
        }
        for end in 2..=tokens.len() {
            let mut fresh = KvCache::default();
            let full = serve.prefill(&tokens[..end], &mut fresh);
            let inc = &incremental[end - 2];
            for c in 0..24 {
                assert!(
                    (full.get(0, c) - inc.get(0, c)).abs() < 1e-4,
                    "prefix {end}, logit {c}: {} vs {}",
                    full.get(0, c),
                    inc.get(0, c)
                );
            }
        }
    }

    #[test]
    fn all_embedders_agree_on_logits() {
        let gpt = dhe_model();
        let prompt = vec![2usize, 7, 13];
        let mut reference = None;
        for tech in [
            Technique::IndexLookup,
            Technique::LinearScan,
            Technique::CircuitOram,
            Technique::PathOram,
            Technique::Dhe,
        ] {
            let mut serve = GptServing::new(&gpt, tech, 3);
            let mut cache = KvCache::default();
            let logits = serve.prefill(&prompt, &mut cache);
            match &reference {
                None => reference = Some(logits),
                Some(r) => assert!(
                    r.allclose(&logits, 1e-4),
                    "{tech} diverges from the baseline"
                ),
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_in_vocab() {
        let gpt = table_model();
        let mut serve = GptServing::new(&gpt, Technique::LinearScan, 0);
        let a = serve.generate(&[1, 2, 3], 6);
        let mut serve2 = GptServing::new(&gpt, Technique::IndexLookup, 0);
        let b = serve2.generate(&[1, 2, 3], 6);
        assert_eq!(a, b, "greedy decode must not depend on the embedder");
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|&t| t < 24));
    }

    #[test]
    fn hybrid_prefill_dhe_decode_oram() {
        // §IV-D: DHE for prefill, Circuit ORAM (from the DHE-materialized
        // table) for decode.
        let gpt = dhe_model();
        let mut serve = GptServing::new(&gpt, Technique::Dhe, 0);
        let mut cache = KvCache::default();
        let logits = serve.prefill(&[4, 9, 9, 1], &mut cache);
        let next = secemb_obliv::scan::argmax_f32(logits.row(0)) as usize;
        serve.set_embedder(gpt.embedder(Technique::CircuitOram, 7));
        let l2 = serve.decode(next, &mut cache);
        assert_eq!(l2.shape(), (1, 24));
        assert_eq!(serve.embedder().technique(), Technique::CircuitOram);
    }

    #[test]
    fn embedder_memory_ordering() {
        let gpt = dhe_model();
        let dhe = gpt.embedder(Technique::Dhe, 0).memory_bytes();
        let table = gpt.embedder(Technique::IndexLookup, 0).memory_bytes();
        let oram = gpt.embedder(Technique::CircuitOram, 0).memory_bytes();
        assert!(oram > table, "ORAM adds overhead over the raw table");
        assert!(dhe < oram);
    }

    #[test]
    fn top_k_sampling_stays_in_candidates() {
        let gpt = table_model();
        let mut serve = GptServing::new(&gpt, Technique::LinearScan, 0);
        let mut rng = StdRng::seed_from_u64(42);
        let out = serve.generate_top_k(&[1, 2, 3], 8, 3, &mut rng);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|&t| t < 24));
        // k = 1 degenerates to greedy.
        let mut rng = StdRng::seed_from_u64(0);
        let greedy_like = serve.generate_top_k(&[1, 2, 3], 5, 1, &mut rng);
        let mut serve2 = GptServing::new(&gpt, Technique::LinearScan, 0);
        assert_eq!(greedy_like, serve2.generate(&[1, 2, 3], 5));
    }

    #[test]
    fn sample_top_k_respects_distribution() {
        // With one dominant logit, the winner should be drawn almost always.
        let mut logits = vec![0.0f32; 10];
        logits[4] = 20.0;
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..200)
            .filter(|_| sample_top_k(&logits, 3, &mut rng) == 4)
            .count();
        assert!(hits > 190, "dominant token drawn only {hits}/200");
        // With ties, multiple candidates appear.
        let flat = vec![1.0f32; 6];
        let seen: std::collections::HashSet<usize> =
            (0..100).map(|_| sample_top_k(&flat, 4, &mut rng)).collect();
        assert!(seen.len() > 1, "flat logits should vary");
    }

    #[test]
    #[should_panic(expected = "decode requires a prefilled cache")]
    fn decode_without_prefill_panics() {
        let gpt = table_model();
        let mut serve = GptServing::new(&gpt, Technique::IndexLookup, 0);
        serve.decode(0, &mut KvCache::default());
    }
}
