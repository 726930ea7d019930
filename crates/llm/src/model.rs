//! The trainable GPT.

use crate::blocks::Block;
use rand::Rng;
use secemb::{Dhe, DheConfig};
use secemb_nn::{
    cross_entropy_loss, Embedding, Grads, LayerNorm, Linear, Module, Optimizer, Param, Params, Tape,
};
use secemb_tensor::Matrix;

/// Transformer hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model width.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Block count.
    pub layers: usize,
    /// Maximum (and positional-table) sequence length.
    pub max_seq: usize,
}

impl GptConfig {
    /// GPT-2 medium, the paper's model: vocab 50257, width 1024, 16 heads,
    /// 24 layers. Reference configuration for the latency/footprint
    /// figures; far too large to *train* in this reproduction.
    pub fn gpt2_medium() -> Self {
        GptConfig {
            vocab: 50257,
            dim: 1024,
            heads: 16,
            layers: 24,
            max_seq: 1024,
        }
    }

    /// A tiny configuration for tests and the Fig. 14 fine-tuning run.
    pub fn tiny(vocab: usize) -> Self {
        GptConfig {
            vocab,
            dim: 32,
            heads: 2,
            layers: 2,
            max_seq: 64,
        }
    }

    /// The paper's DHE sizing for LLMs (§VI-A3): 4 FC layers, internal
    /// widths and `k` both `2 × dim`.
    pub fn dhe_config(&self) -> DheConfig {
        DheConfig::new(self.dim, 2 * self.dim, vec![2 * self.dim; 3])
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero or `dim % heads != 0`.
    pub fn validate(&self) {
        assert!(self.vocab > 1, "vocab must exceed 1");
        assert!(self.dim > 0 && self.layers > 0 && self.max_seq > 0);
        assert!(
            self.heads > 0 && self.dim.is_multiple_of(self.heads),
            "dim must divide into heads"
        );
    }
}

/// Token-embedding representation for training.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenEmbeddingKind {
    /// Trainable table with the weight-tied LM head (GPT-2's layout).
    Table,
    /// Trainable DHE with an untied head (no table exists to tie to).
    Dhe(DheConfig),
}

pub(crate) enum LlmEmbedding {
    Table(Embedding),
    Dhe(Dhe),
}

/// A trainable GPT-2-style model.
pub struct Gpt {
    config: GptConfig,
    pub(crate) embedding: LlmEmbedding,
    pub(crate) pos: Embedding,
    pub(crate) blocks: Vec<Block>,
    pub(crate) ln_f: LayerNorm,
    /// `None` = tied to the token table.
    head: Option<Linear>,
}

impl std::fmt::Debug for Gpt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Gpt(vocab {}, dim {}, {} layers, {} head)",
            self.config.vocab,
            self.config.dim,
            self.config.layers,
            if self.head.is_none() {
                "tied"
            } else {
                "untied"
            }
        )
    }
}

impl Gpt {
    /// Builds a model with the given token-embedding representation.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config, or if a DHE kind's `dim` differs from
    /// the model width.
    pub fn new(config: GptConfig, kind: &TokenEmbeddingKind, rng: &mut impl Rng) -> Self {
        config.validate();
        let (embedding, head) = match kind {
            TokenEmbeddingKind::Table => (
                LlmEmbedding::Table(Embedding::new(config.vocab, config.dim, rng)),
                None,
            ),
            TokenEmbeddingKind::Dhe(cfg) => {
                assert_eq!(cfg.dim, config.dim, "DHE dim must match the model width");
                (
                    LlmEmbedding::Dhe(Dhe::new(cfg.clone(), rng).with_domain(config.vocab as u64)),
                    Some(Linear::new(config.dim, config.vocab, rng)),
                )
            }
        };
        Gpt {
            config,
            embedding,
            pos: Embedding::new(config.max_seq, config.dim, rng),
            blocks: (0..config.layers)
                .map(|_| Block::new(config.dim, config.heads, rng))
                .collect(),
            ln_f: LayerNorm::new(config.dim),
            head,
        }
    }

    /// The hyper-parameters.
    pub fn config(&self) -> &GptConfig {
        &self.config
    }

    /// Whether the token embedding is a DHE.
    pub fn is_dhe(&self) -> bool {
        matches!(self.embedding, LlmEmbedding::Dhe(_))
    }

    /// The trained token table, materializing it from the DHE when needed
    /// (the paper's "generating a table for ORAM from the outputs of a
    /// DHE-based embedding layer", §IV-D).
    pub fn token_table(&self) -> Matrix {
        match &self.embedding {
            LlmEmbedding::Table(e) => e.table().clone(),
            LlmEmbedding::Dhe(d) => d.to_table(self.config.vocab as u64),
        }
    }

    /// The trained DHE, when the embedding is DHE-represented.
    pub fn dhe(&self) -> Option<&Dhe> {
        match &self.embedding {
            LlmEmbedding::Dhe(d) => Some(d),
            LlmEmbedding::Table(_) => None,
        }
    }

    /// Forward over one sequence: returns `T × vocab` logits.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty, longer than `max_seq`, or contains
    /// an out-of-vocabulary token.
    pub fn forward_sequence(&self, tokens: &[usize]) -> Matrix {
        self.forward_with(tokens, &mut Tape::inference())
    }

    /// [`Self::forward_sequence`], recording on `tape` what
    /// [`Self::backward`] reads: a DHE embedding's records, every
    /// block's, the final norm's, then the head's (for a tied head, the
    /// final norm's output).
    fn forward_with(&self, tokens: &[usize], tape: &mut Tape) -> Matrix {
        let t = tokens.len();
        assert!(t > 0, "empty sequence");
        assert!(t <= self.config.max_seq, "sequence exceeds max_seq");
        let tok_emb = match &self.embedding {
            LlmEmbedding::Table(e) => e.forward_indices(tokens),
            LlmEmbedding::Dhe(d) => {
                let ids: Vec<u64> = tokens.iter().map(|&x| x as u64).collect();
                d.forward(&ids, tape)
            }
        };
        let positions: Vec<usize> = (0..t).collect();
        let mut x = tok_emb.add(&self.pos.forward_indices(&positions));
        for b in &self.blocks {
            x = b.forward(&x, tape);
        }
        let xf = self.ln_f.forward(&x, tape);
        self.logits(&xf, tape)
    }

    /// The LM head over final-norm outputs `xf`: the untied head, or the
    /// token table when tied. Training and serving both compute logits
    /// here.
    pub(crate) fn logits(&self, xf: &Matrix, tape: &mut Tape) -> Matrix {
        match (&self.head, &self.embedding) {
            (Some(h), _) => h.forward(xf, tape),
            (None, LlmEmbedding::Table(e)) => {
                tape.record(xf);
                xf.matmul_transpose_b(e.table())
            }
            (None, LlmEmbedding::Dhe(_)) => unreachable!("DHE models always have a head"),
        }
    }

    /// Backward from the loss gradient on the logits of `tokens`, in the
    /// reverse order of [`Self::forward_with`], into `grads` (visit
    /// order: embedding, positions, blocks, final norm, untied head).
    fn backward(
        &self,
        tokens: &[usize],
        tape: &mut Tape,
        grad_logits: &Matrix,
        grads: &mut [Matrix],
    ) {
        let head = if self.head.is_some() { 2 } else { 0 };
        let (grads, g_head) = grads.split_at_mut(grads.len() - head);
        let (grads, g_ln_f) = grads.split_at_mut(grads.len() - 2);
        let blocks = Block::PARAM_TENSORS * self.blocks.len();
        let (grads, g_blocks) = grads.split_at_mut(grads.len() - blocks);
        let (g_emb, g_pos) = grads.split_at_mut(grads.len() - 1);
        let d_xf = match &self.head {
            Some(h) => h.backward(tape, grad_logits, g_head),
            None => {
                let LlmEmbedding::Table(e) = &self.embedding else {
                    unreachable!("tied head implies a table");
                };
                // Tied head: logits = xf · Eᵀ, so dE += gradᵀ · xf over
                // every vocab row.
                let xf = tape.pop();
                g_emb[0] += &grad_logits.transpose_a_matmul(&xf);
                grad_logits.matmul(e.table())
            }
        };
        let mut g = self.ln_f.backward(tape, &d_xf, g_ln_f);
        let blocks = self
            .blocks
            .iter()
            .zip(g_blocks.chunks_exact_mut(Block::PARAM_TENSORS));
        for (b, grads) in blocks.rev() {
            g = b.backward(tape, &g, grads);
        }
        // x0 = tok_emb + pos_emb: gradient flows to both.
        let positions: Vec<usize> = (0..tokens.len()).collect();
        self.pos.backward_indices(&positions, &g, &mut g_pos[0]);
        match &self.embedding {
            LlmEmbedding::Table(e) => e.backward_indices(tokens, &g, &mut g_emb[0]),
            LlmEmbedding::Dhe(d) => d.backward(tape, &g, g_emb),
        }
    }

    /// One optimizer step over a batch of sequences (next-token CE),
    /// returning the mean loss in nats.
    ///
    /// # Panics
    ///
    /// Panics if any sequence has fewer than 2 tokens.
    pub fn train_step(&mut self, sequences: &[Vec<usize>], opt: &mut dyn Optimizer) -> f64 {
        let mut grads = Grads::zeros(self);
        let mut tape = Tape::training();
        let mut total = 0.0;
        for seq in sequences {
            assert!(seq.len() >= 2, "need at least 2 tokens for next-token loss");
            let inputs = &seq[..seq.len() - 1];
            let targets = &seq[1..];
            let logits = self.forward_with(inputs, &mut tape);
            let (loss, grad) = cross_entropy_loss(&logits, targets);
            let grad = grad.scale(1.0 / sequences.len() as f32);
            self.backward(inputs, &mut tape, &grad, &mut grads);
            total += loss;
        }
        opt.step(self, &grads);
        total / sequences.len() as f64
    }

    /// Mean next-token cross-entropy (nats) over `sequences`.
    pub fn cross_entropy(&self, sequences: &[Vec<usize>]) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for seq in sequences {
            let inputs = &seq[..seq.len() - 1];
            let targets = &seq[1..];
            let logits = self.forward_sequence(inputs);
            let (loss, _) = cross_entropy_loss(&logits, targets);
            total += loss * targets.len() as f64;
            count += targets.len();
        }
        total / count.max(1) as f64
    }

    /// Perplexity over `sequences`.
    pub fn perplexity(&self, sequences: &[Vec<usize>]) -> f64 {
        self.cross_entropy(sequences).exp()
    }
}

impl Params for Gpt {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match &mut self.embedding {
            LlmEmbedding::Table(e) => e.visit_params(f),
            LlmEmbedding::Dhe(d) => d.visit_params(f),
        }
        self.pos.visit_params(f);
        for b in &mut self.blocks {
            b.visit_params(f);
        }
        self.ln_f.visit_params(f);
        if let Some(h) = &mut self.head {
            h.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb_data::MarkovCorpus;
    use secemb_nn::Adam;

    fn sequences(corpus: &MarkovCorpus, n: usize, len: usize, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| corpus.sample_sequence(len, &mut rng))
            .collect()
    }

    #[test]
    fn logits_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(0);
        let gpt = Gpt::new(GptConfig::tiny(20), &TokenEmbeddingKind::Table, &mut rng);
        let logits = gpt.forward_sequence(&[1, 5, 3]);
        assert_eq!(logits.shape(), (3, 20));
        let again = gpt.forward_sequence(&[1, 5, 3]);
        assert!(logits.allclose(&again, 1e-6));
    }

    #[test]
    fn table_model_learns_markov_structure() {
        let corpus = MarkovCorpus::new(16, 1, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let mut gpt = Gpt::new(GptConfig::tiny(16), &TokenEmbeddingKind::Table, &mut rng);
        let test = sequences(&corpus, 4, 20, 99);
        let before = gpt.perplexity(&test);
        let mut opt = Adam::new(3e-3);
        for step in 0..60 {
            let batch = sequences(&corpus, 4, 20, 1000 + step);
            gpt.train_step(&batch, &mut opt);
        }
        let after = gpt.perplexity(&test);
        assert!(
            after < before * 0.7,
            "perplexity did not drop: {before:.2} -> {after:.2}"
        );
        assert!(after < 16.0, "should beat uniform over vocab");
    }

    #[test]
    fn dhe_model_learns_markov_structure() {
        let corpus = MarkovCorpus::new(16, 1, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let config = GptConfig::tiny(16);
        let kind = TokenEmbeddingKind::Dhe(DheConfig::new(config.dim, 32, vec![32]));
        let mut gpt = Gpt::new(config, &kind, &mut rng);
        assert!(gpt.is_dhe());
        let test = sequences(&corpus, 4, 20, 99);
        let before = gpt.perplexity(&test);
        let mut opt = Adam::new(3e-3);
        for step in 0..60 {
            let batch = sequences(&corpus, 4, 20, 2000 + step);
            gpt.train_step(&batch, &mut opt);
        }
        let after = gpt.perplexity(&test);
        assert!(
            after < before * 0.7,
            "perplexity did not drop: {before:.2} -> {after:.2}"
        );
    }

    #[test]
    fn tied_head_uses_token_table() {
        let mut rng = StdRng::seed_from_u64(3);
        let gpt = Gpt::new(GptConfig::tiny(12), &TokenEmbeddingKind::Table, &mut rng);
        assert!(gpt.head.is_none());
        // Manually verify logits = xf · Eᵀ by checking one entry.
        let mut tape = Tape::training();
        let logits = gpt.forward_with(&[0, 1], &mut tape);
        let table = gpt.token_table();
        let xf = tape.pop(); // a tied head records the final norm's output
        let manual: f32 = xf
            .row(1)
            .iter()
            .zip(table.row(5))
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((logits.get(1, 5) - manual).abs() < 1e-5);
    }

    #[test]
    fn dhe_table_materialization() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = GptConfig::tiny(10);
        let kind = TokenEmbeddingKind::Dhe(DheConfig::new(config.dim, 16, vec![16]));
        let gpt = Gpt::new(config, &kind, &mut rng);
        let table = gpt.token_table();
        assert_eq!(table.shape(), (10, config.dim));
        assert_eq!(
            table.row(3),
            gpt.dhe()
                .unwrap()
                .forward(&[3], &mut Tape::inference())
                .row(0),
            "materialized table must equal DHE outputs"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn long_sequence_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let gpt = Gpt::new(GptConfig::tiny(8), &TokenEmbeddingKind::Table, &mut rng);
        let seq = vec![0usize; 65];
        gpt.forward_sequence(&seq);
    }
}
