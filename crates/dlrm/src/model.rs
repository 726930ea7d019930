//! The trainable DLRM.

use crate::interaction::DotInteraction;
use rand::rngs::StdRng;
use secemb::{Dhe, DheConfig};
use secemb_data::{CriteoSample, CriteoSpec};
use secemb_nn::{
    bce_with_logits_loss, Embedding, Grads, Mlp, Module, Optimizer, Param, Params, Tape,
};
use secemb_tensor::Matrix;

/// How a sparse feature is represented during training.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbeddingKind {
    /// A trainable `n × dim` table (the baseline).
    Table,
    /// A trainable DHE with the given architecture.
    Dhe(DheConfig),
}

impl EmbeddingKind {
    /// The paper's Uniform DHE for dimension `dim`.
    pub fn dhe_uniform(dim: usize) -> Self {
        EmbeddingKind::Dhe(DheConfig::uniform(dim))
    }

    /// The paper's Varied DHE for a table of `rows` rows.
    pub fn dhe_varied(dim: usize, rows: u64) -> Self {
        EmbeddingKind::Dhe(DheConfig::varied(dim, rows))
    }
}

/// One sparse feature's trainable embedding layer.
#[derive(Debug)]
pub enum SparseLayer {
    /// Table representation.
    Table(Embedding),
    /// DHE representation.
    Dhe(Dhe),
}

impl SparseLayer {
    fn forward(&self, indices: &[u64], tape: &mut Tape) -> Matrix {
        match self {
            SparseLayer::Table(e) => e.forward_indices(&as_usize(indices)),
            SparseLayer::Dhe(d) => d.forward(indices, tape),
        }
    }

    fn backward(&self, indices: &[u64], tape: &mut Tape, grad: &Matrix, grads: &mut [Matrix]) {
        match self {
            SparseLayer::Table(e) => e.backward_indices(&as_usize(indices), grad, &mut grads[0]),
            SparseLayer::Dhe(d) => d.backward(tape, grad, grads),
        }
    }

    /// Parameter tensors: the length of this feature's slice of a
    /// [`Grads`].
    fn param_tensors(&self) -> usize {
        match self {
            SparseLayer::Table(_) => 1,
            SparseLayer::Dhe(d) => d.param_tensors(),
        }
    }

    /// Materializes this feature as a plain table over `rows` ids.
    pub fn to_table(&self, rows: u64) -> Matrix {
        match self {
            SparseLayer::Table(e) => e.table().clone(),
            SparseLayer::Dhe(d) => d.to_table(rows),
        }
    }

    /// The trained DHE, when this feature is DHE-represented.
    pub fn as_dhe(&self) -> Option<&Dhe> {
        match self {
            SparseLayer::Dhe(d) => Some(d),
            SparseLayer::Table(_) => None,
        }
    }
}

impl Params for SparseLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            SparseLayer::Table(e) => e.visit_params(f),
            SparseLayer::Dhe(d) => d.visit_params(f),
        }
    }
}

fn as_usize(indices: &[u64]) -> Vec<usize> {
    indices.iter().map(|&i| i as usize).collect()
}

/// Feature `f`'s index of every sample in `batch`.
pub(crate) fn feature_indices(batch: &[CriteoSample], f: usize) -> Vec<u64> {
    batch.iter().map(|s| s.sparse[f]).collect()
}

/// A trainable DLRM: bottom MLP, per-feature embeddings, dot interaction,
/// top MLP, BCE-with-logits objective.
pub struct Dlrm {
    spec: CriteoSpec,
    bottom: Mlp,
    top: Mlp,
    sparse: Vec<SparseLayer>,
}

impl std::fmt::Debug for Dlrm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Dlrm({}, {} sparse features, dim {})",
            self.spec.name,
            self.sparse.len(),
            self.spec.embedding_dim
        )
    }
}

impl Dlrm {
    /// Builds a DLRM whose sparse features all use the same representation
    /// `kind` (Table IV trains all-table and all-DHE models; the hybrid is
    /// derived from the all-DHE one).
    ///
    /// # Panics
    ///
    /// Panics if the spec's bottom MLP does not end at the embedding
    /// dimension.
    pub fn new(spec: CriteoSpec, kind: &EmbeddingKind, rng: &mut StdRng) -> Self {
        let kinds: Vec<EmbeddingKind> = spec.table_sizes.iter().map(|_| kind.clone()).collect();
        Self::with_kinds(spec, &kinds, rng)
    }

    /// Builds a DLRM with a per-feature representation choice. For
    /// `EmbeddingKind::Dhe`, Varied sizing can be passed per feature.
    ///
    /// # Panics
    ///
    /// Panics if `kinds.len()` differs from the sparse feature count, or
    /// the bottom MLP does not end at the embedding dimension.
    pub fn with_kinds(spec: CriteoSpec, kinds: &[EmbeddingKind], rng: &mut StdRng) -> Self {
        assert_eq!(
            kinds.len(),
            spec.table_sizes.len(),
            "one EmbeddingKind per sparse feature"
        );
        assert_eq!(
            *spec.bottom_mlp.last().expect("bottom MLP empty"),
            spec.embedding_dim,
            "bottom MLP must end at the embedding dimension"
        );
        let dim = spec.embedding_dim;
        let bottom = Mlp::new(spec.dense_features, &spec.bottom_mlp, rng);
        let top_in = DotInteraction::output_width(dim, spec.table_sizes.len());
        let top = Mlp::new(top_in, &spec.top_mlp, rng);
        let sparse = spec
            .table_sizes
            .iter()
            .zip(kinds)
            .enumerate()
            .map(|(f, (&rows, kind))| match kind {
                EmbeddingKind::Table => SparseLayer::Table(Embedding::new(rows as usize, dim, rng)),
                EmbeddingKind::Dhe(cfg) => {
                    assert_eq!(cfg.dim, dim, "DHE dim must match the model");
                    // Decorrelate the per-feature hash encoders while keeping
                    // them a pure function of (config, feature index), so a
                    // checkpoint restores into an identical architecture.
                    let cfg = cfg.clone().with_hash_seed(
                        cfg.hash_seed ^ (f as u64).wrapping_mul(0x9E3779B97F4A7C15),
                    );
                    SparseLayer::Dhe(Dhe::new(cfg, rng).with_domain(rows))
                }
            })
            .collect();
        Dlrm {
            spec,
            bottom,
            top,
            sparse,
        }
    }

    /// The model's dataset/architecture spec.
    pub fn spec(&self) -> &CriteoSpec {
        &self.spec
    }

    /// The trained sparse layers.
    pub fn sparse_layers(&self) -> &[SparseLayer] {
        &self.sparse
    }

    /// The bottom MLP (a [`crate::SecureDlrm`] serves a copy of it).
    pub fn bottom(&self) -> &Mlp {
        &self.bottom
    }

    /// The top MLP.
    pub fn top(&self) -> &Mlp {
        &self.top
    }

    /// Forward pass over a batch, returning `batch × 1` CTR logits.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or any sample disagrees with the spec.
    pub fn forward(&self, batch: &[CriteoSample]) -> Matrix {
        self.forward_with(batch, &mut Tape::inference())
    }

    /// [`Self::forward`], recording on `tape` what [`Self::backward`]
    /// reads: the bottom MLP's records, each sparse layer's, the
    /// interaction's input vectors, then the top MLP's.
    fn forward_with(&self, batch: &[CriteoSample], tape: &mut Tape) -> Matrix {
        assert!(!batch.is_empty(), "Dlrm: empty batch");
        let dense = self.dense_matrix(batch);
        let mut vectors = vec![self.bottom.forward(&dense, tape)];
        for (f, layer) in self.sparse.iter().enumerate() {
            vectors.push(layer.forward(&feature_indices(batch, f), tape));
        }
        let interacted = DotInteraction::apply(&vectors);
        for v in vectors {
            tape.push(v);
        }
        self.top.forward(&interacted, tape)
    }

    /// Backward pass from the loss gradient on the logits of `batch`,
    /// in the reverse order of [`Self::forward_with`].
    fn backward(
        &self,
        batch: &[CriteoSample],
        tape: &mut Tape,
        grad_logits: &Matrix,
        grads: &mut [Matrix],
    ) {
        let (g_bottom, grads) = grads.split_at_mut(self.bottom.param_tensors());
        let (g_top, mut g_sparse) = grads.split_at_mut(self.top.param_tensors());
        let d_interacted = self.top.backward(tape, grad_logits, g_top);
        let vectors = tape.pop_many(self.sparse.len() + 1);
        let d_vectors = DotInteraction::backward(&vectors, &d_interacted);
        for (f, (layer, d)) in self.sparse.iter().zip(&d_vectors[1..]).enumerate().rev() {
            // The last feature's gradients end the slice.
            let at = g_sparse.len() - layer.param_tensors();
            let (rest, grads) = std::mem::take(&mut g_sparse).split_at_mut(at);
            g_sparse = rest;
            layer.backward(&feature_indices(batch, f), tape, d, grads);
        }
        self.bottom.backward(tape, &d_vectors[0], g_bottom);
    }

    /// One optimizer step on a batch; returns the BCE loss.
    pub fn train_step(&mut self, batch: &[CriteoSample], opt: &mut dyn Optimizer) -> f64 {
        let mut tape = Tape::training();
        let logits = self.forward_with(batch, &mut tape);
        let labels = Matrix::from_vec(batch.len(), 1, batch.iter().map(|s| s.label).collect());
        let (loss, grad) = bce_with_logits_loss(&logits, &labels);
        let mut grads = Grads::zeros(self);
        self.backward(batch, &mut tape, &grad, &mut grads);
        opt.step(self, &grads);
        loss
    }

    /// Classification accuracy at threshold 0.5 over `samples`.
    pub fn accuracy(&self, samples: &[CriteoSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let logits = self.forward(samples);
        let correct = samples
            .iter()
            .enumerate()
            .filter(|(i, s)| (logits.get(*i, 0) > 0.0) == (s.label > 0.5))
            .count();
        correct as f64 / samples.len() as f64
    }

    fn dense_matrix(&self, batch: &[CriteoSample]) -> Matrix {
        let df = self.spec.dense_features;
        let mut m = Matrix::zeros(batch.len(), df);
        for (b, s) in batch.iter().enumerate() {
            assert_eq!(s.dense.len(), df, "sample dense width");
            assert_eq!(
                s.sparse.len(),
                self.spec.table_sizes.len(),
                "sample sparse width"
            );
            m.row_mut(b).copy_from_slice(&s.dense);
        }
        m
    }
}

impl Params for Dlrm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.bottom.visit_params(f);
        self.top.visit_params(f);
        for s in &mut self.sparse {
            s.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb_data::SyntheticCtr;
    use secemb_nn::Adam;

    fn tiny_spec() -> CriteoSpec {
        let mut s = CriteoSpec::kaggle().scaled(64);
        s.table_sizes.truncate(4);
        s.embedding_dim = 8;
        s.bottom_mlp = vec![16, 8];
        s.top_mlp = vec![16, 1];
        s
    }

    #[test]
    fn forward_shape() {
        let spec = tiny_spec();
        let gen = SyntheticCtr::new(spec.clone(), 0);
        let mut rng = StdRng::seed_from_u64(1);
        let batch = gen.batch(5, &mut rng);
        let model = Dlrm::new(spec, &EmbeddingKind::Table, &mut rng);
        assert_eq!(model.forward(&batch).shape(), (5, 1));
    }

    #[test]
    fn table_model_learns() {
        let spec = tiny_spec();
        let gen = SyntheticCtr::new(spec.clone(), 3);
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = Dlrm::new(spec, &EmbeddingKind::Table, &mut rng);
        let mut opt = Adam::new(0.02);
        let losses: Vec<f64> = (0..160)
            .map(|_| {
                let batch = gen.batch(32, &mut rng);
                model.train_step(&batch, &mut opt)
            })
            .collect();
        let early: f64 = losses[..20].iter().sum::<f64>() / 20.0;
        let late: f64 = losses[140..].iter().sum::<f64>() / 20.0;
        assert!(late < early * 0.97, "loss did not drop: {early} -> {late}");
    }

    #[test]
    fn dhe_model_learns() {
        let spec = tiny_spec();
        let gen = SyntheticCtr::new(spec.clone(), 3);
        let mut rng = StdRng::seed_from_u64(4);
        let kind = EmbeddingKind::Dhe(DheConfig::new(8, 32, vec![32]));
        let mut model = Dlrm::new(spec, &kind, &mut rng);
        let mut opt = Adam::new(0.02);
        let losses: Vec<f64> = (0..300)
            .map(|_| {
                let batch = gen.batch(32, &mut rng);
                model.train_step(&batch, &mut opt)
            })
            .collect();
        // Per-batch BCE is noisy; compare early vs late window means.
        let early: f64 = losses[..30].iter().sum::<f64>() / 30.0;
        let late: f64 = losses[270..].iter().sum::<f64>() / 30.0;
        assert!(late < early * 0.97, "loss did not drop: {early} -> {late}");
    }

    #[test]
    fn accuracy_beats_chance_after_training() {
        let spec = tiny_spec();
        let gen = SyntheticCtr::new(spec.clone(), 7);
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = Dlrm::new(spec, &EmbeddingKind::Table, &mut rng);
        let mut opt = Adam::new(0.02);
        for _ in 0..150 {
            let batch = gen.batch(64, &mut rng);
            model.train_step(&batch, &mut opt);
        }
        let test = gen.batch(500, &mut rng);
        let base_rate = test.iter().map(|s| s.label as f64).sum::<f64>() / test.len() as f64;
        let majority = base_rate.max(1.0 - base_rate);
        let acc = model.accuracy(&test);
        assert!(
            acc > majority + 0.03,
            "accuracy {acc:.3} vs majority {majority:.3}"
        );
    }

    #[test]
    fn mixed_kinds_supported() {
        let spec = tiny_spec();
        let mut rng = StdRng::seed_from_u64(6);
        let kinds = vec![
            EmbeddingKind::Table,
            EmbeddingKind::Dhe(DheConfig::new(8, 16, vec![8])),
            EmbeddingKind::Table,
            EmbeddingKind::Dhe(DheConfig::new(8, 16, vec![8])),
        ];
        let gen = SyntheticCtr::new(spec.clone(), 0);
        let model = Dlrm::with_kinds(spec, &kinds, &mut rng);
        let batch = gen.batch(3, &mut StdRng::seed_from_u64(7));
        assert_eq!(model.forward(&batch).shape(), (3, 1));
        assert!(model.sparse_layers()[1].as_dhe().is_some());
        assert!(model.sparse_layers()[0].as_dhe().is_none());
    }

    #[test]
    #[should_panic(expected = "one EmbeddingKind per sparse feature")]
    fn kind_count_mismatch_panics() {
        let spec = tiny_spec();
        let mut rng = StdRng::seed_from_u64(0);
        Dlrm::with_kinds(spec, &[EmbeddingKind::Table], &mut rng);
    }
}
