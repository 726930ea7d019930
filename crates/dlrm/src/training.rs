//! Protected training: gradient descent on embedding tables that live
//! inside a look-ahead ORAM.
//!
//! Serving hides *which* rows a query reads; training additionally has to
//! hide which rows a gradient step **writes**, or the update trace reveals
//! the training data's sparse features one batch at a time. The look-ahead
//! ORAM's write path closes this: [`ProtectedEmbedding::forward`] reads
//! rows through a [`Technique::LaOram`] table, and
//! [`ProtectedEmbedding::sgd_step`] scatters `-lr · grad` back through its
//! [`EmbeddingGenerator::generate_window`] — the same Circuit ORAM access
//! per row, so an observer cannot distinguish a training step from an
//! inference batch, let alone recover the indices.
//!
//! [`ProtectedDlrm`] assembles the full model: the dense MLPs train in
//! plaintext (their access pattern is a pure function of layer shapes and
//! leaks nothing about inputs), while every sparse feature routes through a
//! `ProtectedEmbedding`. Embedding updates are plain sparse SGD — the
//! standard choice for DLRM sparse parameters — so the loop is numerically
//! a match for training the same model in the clear, which
//! `training::tests` verify against [`Dlrm`] directly.

use crate::{Dlrm, DotInteraction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::{EmbeddingGenerator, Technique, Weights};
use secemb_data::CriteoSample;
use secemb_nn::{bce_with_logits_loss, Mlp, Module, Optimizer, Param};
use secemb_tensor::Matrix;

/// One sparse feature's trainable embedding table, stored and updated
/// inside a look-ahead ORAM.
pub struct ProtectedEmbedding {
    table: Box<dyn EmbeddingGenerator + Send>,
    cached: Option<Vec<u64>>,
}

impl std::fmt::Debug for ProtectedEmbedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProtectedEmbedding({} rows x {})",
            self.rows(),
            self.dim()
        )
    }
}

impl ProtectedEmbedding {
    /// Seals `init` inside a look-ahead ORAM.
    ///
    /// # Panics
    ///
    /// Panics if `init` is empty.
    pub fn new(init: &Matrix, rng: StdRng) -> Self {
        ProtectedEmbedding {
            table: Technique::LaOram.build(Weights::Table(init.clone()), rng),
            cached: None,
        }
    }

    /// Table rows.
    pub fn rows(&self) -> u64 {
        self.table.num_embeddings()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.dim()
    }

    /// Oblivious row gather for the forward pass. The index batch is kept
    /// for the matching [`Self::sgd_step`].
    pub fn forward(&mut self, indices: &[u64]) -> Matrix {
        let out = self.table.generate_batch(indices);
        self.cached = Some(indices.to_vec());
        out
    }

    /// Applies `row[k] -= lr * grad.row(k)` for the indices of the last
    /// [`Self::forward`], through the oblivious write path. Duplicate
    /// indices accumulate sequentially, matching dense scatter semantics.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or if `grad` has the wrong shape.
    pub fn sgd_step(&mut self, grad: &Matrix, lr: f32) {
        let indices = self.cached.take().expect("sgd_step before forward");
        assert_eq!(
            grad.shape(),
            (indices.len(), self.dim()),
            "sgd_step: grad shape mismatch"
        );
        let deltas = grad.map(|g| -lr * g);
        let updates: Vec<Option<&[f32]>> = deltas.iter_rows().map(Some).collect();
        self.table.generate_window(&indices, &updates);
    }

    /// Reads the whole table back out (through the ORAM — every row is a
    /// real oblivious access). Test and checkpoint plumbing, not a fast
    /// path.
    pub fn export(&mut self) -> Matrix {
        let all: Vec<u64> = (0..self.rows()).collect();
        self.table.generate_batch(&all)
    }

    /// Resident bytes of the sealed table.
    pub fn memory_bytes(&self) -> u64 {
        self.table.memory_bytes()
    }
}

/// A DLRM whose sparse features train through look-ahead ORAM.
///
/// Built from an (untrained or pre-trained) [`Dlrm`]; the dense MLPs are
/// taken over as trainable plaintext modules and every sparse layer is
/// materialized into a [`ProtectedEmbedding`]. [`Self::train_step`] runs
/// one BCE step: MLP parameters update through the supplied optimizer,
/// embedding rows through oblivious sparse SGD at `embedding_lr`.
pub struct ProtectedDlrm {
    bottom: Mlp,
    top: Mlp,
    interaction: DotInteraction,
    features: Vec<ProtectedEmbedding>,
    dense_features: usize,
    embedding_lr: f32,
}

impl std::fmt::Debug for ProtectedDlrm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProtectedDlrm({} protected features)",
            self.features.len()
        )
    }
}

impl ProtectedDlrm {
    /// Seals `model`'s sparse tables into look-ahead ORAMs and takes a
    /// trainable copy of its MLPs. `embedding_lr` is the sparse SGD rate.
    ///
    /// # Panics
    ///
    /// Panics if `embedding_lr` is not finite and positive.
    pub fn from_model(model: &Dlrm, embedding_lr: f32, seed: u64) -> Self {
        assert!(
            embedding_lr.is_finite() && embedding_lr > 0.0,
            "ProtectedDlrm: embedding_lr must be positive"
        );
        let spec = model.spec();
        let mut rng = StdRng::seed_from_u64(seed);
        let features = model
            .sparse_layers()
            .iter()
            .zip(&spec.table_sizes)
            .map(|(layer, &rows)| {
                ProtectedEmbedding::new(&layer.to_table(rows), StdRng::seed_from_u64(rng.gen()))
            })
            .collect();
        ProtectedDlrm {
            bottom: model.bottom().clone(),
            top: model.top().clone(),
            interaction: DotInteraction::new(),
            features,
            dense_features: spec.dense_features,
            embedding_lr,
        }
    }

    /// The protected per-feature tables.
    pub fn features(&self) -> &[ProtectedEmbedding] {
        &self.features
    }

    /// Mutable access (for exporting tables after training).
    pub fn features_mut(&mut self) -> &mut [ProtectedEmbedding] {
        &mut self.features
    }

    /// Forward pass, returning `batch × 1` CTR logits. Embedding reads go
    /// through the ORAM and are cached for a following [`Self::train_step`]
    /// — calling `forward` alone (for evaluation) simply overwrites the
    /// cache on the next pass.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sample widths disagree.
    pub fn forward(&mut self, batch: &[CriteoSample]) -> Matrix {
        assert!(!batch.is_empty(), "ProtectedDlrm: empty batch");
        let mut dense = Matrix::zeros(batch.len(), self.dense_features);
        for (b, s) in batch.iter().enumerate() {
            assert_eq!(s.dense.len(), self.dense_features, "sample dense width");
            assert_eq!(s.sparse.len(), self.features.len(), "sample sparse width");
            dense.row_mut(b).copy_from_slice(&s.dense);
        }
        let x = self.bottom.forward(&dense);
        let mut vectors = vec![x];
        for (f, feature) in self.features.iter_mut().enumerate() {
            let indices: Vec<u64> = batch.iter().map(|s| s.sparse[f]).collect();
            vectors.push(feature.forward(&indices));
        }
        let interacted = self.interaction.forward(vectors);
        self.top.forward(&interacted)
    }

    /// One protected training step; returns the BCE loss.
    pub fn train_step(&mut self, batch: &[CriteoSample], opt: &mut dyn Optimizer) -> f64 {
        let logits = self.forward(batch);
        let labels = Matrix::from_vec(batch.len(), 1, batch.iter().map(|s| s.label).collect());
        let (loss, grad) = bce_with_logits_loss(&logits, &labels);
        self.zero_grad();
        let d_interacted = self.top.backward(&grad);
        let mut grads = self.interaction.backward(&d_interacted).into_iter();
        let d_bottom = grads.next().expect("bottom grad");
        self.bottom.backward(&d_bottom);
        let lr = self.embedding_lr;
        for (feature, g) in self.features.iter_mut().zip(grads) {
            feature.sgd_step(&g, lr);
        }
        opt.step(self);
        loss
    }

    /// Classification accuracy at threshold 0.5 over `samples`.
    pub fn accuracy(&mut self, samples: &[CriteoSample]) -> f64 {
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

    /// Resident bytes of the protected model (MLPs + sealed tables).
    pub fn memory_bytes(&self) -> u64 {
        let mut b = self.bottom.clone();
        let mut t = self.top.clone();
        let mlp = (secemb_nn::count_params(&mut b) + secemb_nn::count_params(&mut t)) as u64 * 4;
        mlp + self.features.iter().map(|f| f.memory_bytes()).sum::<u64>()
    }
}

impl Module for ProtectedDlrm {
    fn forward(&mut self, _input: &Matrix) -> Matrix {
        unimplemented!("ProtectedDlrm consumes CriteoSamples; use ProtectedDlrm::forward");
    }

    fn backward(&mut self, _grad_output: &Matrix) -> Matrix {
        unimplemented!("backpropagation runs inside ProtectedDlrm::train_step");
    }

    // Only the dense MLPs are optimizer-visible: embedding rows live inside
    // the ORAM and update through the oblivious scatter path instead.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.bottom.visit_params(f);
        self.top.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmbeddingKind;
    use secemb_data::{CriteoSpec, SyntheticCtr};
    use secemb_nn::Sgd;
    use secemb_trace::check;

    fn tiny_spec() -> CriteoSpec {
        let mut s = CriteoSpec::kaggle().scaled(48);
        s.table_sizes.truncate(3);
        s.embedding_dim = 4;
        s.bottom_mlp = vec![8, 4];
        s.top_mlp = vec![8, 1];
        s
    }

    #[test]
    fn embedding_sgd_matches_plain_update_exactly() {
        let init = Matrix::from_fn(32, 4, |r, c| (r as f32) * 0.25 - c as f32);
        let mut prot = ProtectedEmbedding::new(&init, StdRng::seed_from_u64(1));
        // Unique indices: the oblivious scatter and the plain update are
        // the same float ops in the same order, so equality is bit-exact.
        let indices = [4u64, 19, 7, 30];
        let grad = Matrix::from_fn(4, 4, |r, c| 0.1 * (r as f32 + 1.0) - 0.05 * c as f32);
        let out = prot.forward(&indices);
        for (b, &idx) in indices.iter().enumerate() {
            assert_eq!(out.row(b), init.row(idx as usize));
        }
        prot.sgd_step(&grad, 0.5);
        let mut reference = init.clone();
        for (k, &idx) in indices.iter().enumerate() {
            for (c, w) in reference.row_mut(idx as usize).iter_mut().enumerate() {
                *w += -0.5 * grad.get(k, c);
            }
        }
        let exported = prot.export();
        for r in 0..32 {
            assert_eq!(exported.row(r), reference.row(r), "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "sgd_step before forward")]
    fn sgd_step_requires_forward() {
        let init = Matrix::from_fn(8, 2, |r, _| r as f32);
        let mut prot = ProtectedEmbedding::new(&init, StdRng::seed_from_u64(2));
        prot.sgd_step(&Matrix::zeros(1, 2), 0.1);
    }

    #[test]
    fn protected_training_matches_plaintext_reference() {
        // Train the same model twice from identical weights: once in the
        // clear (Dlrm, all-SGD) and once with every sparse table sealed in
        // a look-ahead ORAM. Losses, final logits, and the tables
        // themselves must agree to float tolerance (the only divergence is
        // f32 summation grouping on duplicate indices).
        let spec = tiny_spec();
        let gen = SyntheticCtr::new(spec.clone(), 11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut reference = Dlrm::new(spec.clone(), &EmbeddingKind::Table, &mut rng);
        let mut protected = ProtectedDlrm::from_model(&reference, 0.05, 13);
        let mut ref_opt = Sgd::new(0.05);
        let mut prot_opt = Sgd::new(0.05);
        let mut data_rng = StdRng::seed_from_u64(14);
        for step in 0..20 {
            let batch = gen.batch(16, &mut data_rng);
            let l_ref = reference.train_step(&batch, &mut ref_opt);
            let l_prot = protected.train_step(&batch, &mut prot_opt);
            assert!(
                (l_ref - l_prot).abs() < 1e-4,
                "step {step}: loss diverged {l_ref} vs {l_prot}"
            );
        }
        let eval = gen.batch(32, &mut data_rng);
        let ref_logits = reference.forward(&eval);
        let prot_logits = protected.forward(&eval);
        assert!(
            ref_logits.allclose(&prot_logits, 1e-3),
            "post-training logits diverged"
        );
        for (f, (layer, &rows)) in reference
            .sparse_layers()
            .iter()
            .zip(&spec.table_sizes)
            .enumerate()
        {
            let plain = layer.to_table(rows);
            let sealed = protected.features_mut()[f].export();
            assert!(sealed.allclose(&plain, 1e-4), "feature {f} table diverged");
        }
    }

    #[test]
    fn protected_training_loss_decreases() {
        // The CI smoke: the model.rs `table_model_learns` configuration,
        // with the sparse tables sealed in look-ahead ORAM and updated
        // through oblivious sparse SGD.
        let mut spec = CriteoSpec::kaggle().scaled(64);
        spec.table_sizes.truncate(4);
        spec.embedding_dim = 8;
        spec.bottom_mlp = vec![16, 8];
        spec.top_mlp = vec![16, 1];
        let gen = SyntheticCtr::new(spec.clone(), 3);
        let mut rng = StdRng::seed_from_u64(21);
        let init = Dlrm::new(spec, &EmbeddingKind::Table, &mut rng);
        // Raw interaction gradients are small, so plain sparse SGD wants a
        // much larger rate than the Adam-driven MLPs.
        let mut model = ProtectedDlrm::from_model(&init, 2.0, 22);
        let mut opt = secemb_nn::Adam::new(0.02);
        let losses: Vec<f64> = (0..160)
            .map(|_| {
                let batch = gen.batch(32, &mut rng);
                model.train_step(&batch, &mut opt)
            })
            .collect();
        let early: f64 = losses[..20].iter().sum::<f64>() / 20.0;
        let late: f64 = losses[140..].iter().sum::<f64>() / 20.0;
        assert!(late < early * 0.97, "loss did not drop: {early} -> {late}");
        // The run exercised the ORAM for real.
        let stats = model.features()[0].table.access_stats().unwrap();
        assert!(stats.accesses > 0);
    }

    #[test]
    fn training_trace_independent_of_batch_content() {
        // A gradient scatter must be bit-identical on the trace to a plain
        // inference window over the same index schedule, whatever values it
        // writes. (Index obliviousness itself is distributional — Path-ORAM
        // style — and is gated by the exact-excluding trace checks in
        // secemb-core's security tests.)
        let init = Matrix::from_fn(24, 4, |r, c| (r + c) as f32 * 0.1);
        let indices = [5u64, 17, 5, 9];
        let variants: [Option<f32>; 3] = [None, Some(0.7), Some(-0.3)];
        let verdict = check::compare_traces(&variants, |g| {
            let mut prot = ProtectedEmbedding::new(&init, StdRng::seed_from_u64(31));
            prot.forward(&indices);
            match g {
                // Pure inference: a second read window.
                None => {
                    prot.forward(&indices);
                }
                // Training: a gradient scatter over the same schedule.
                Some(v) => {
                    let grad = Matrix::full(indices.len(), 4, *v);
                    prot.sgd_step(&grad, 0.1);
                }
            }
        });
        assert!(
            verdict.is_oblivious(),
            "training step leaked batch content (divergence {:?})",
            verdict.first_divergence()
        );
    }
}
