//! The secure serving model: trained MLPs + per-feature secure generators.

use crate::model::feature_indices;
use crate::{Dlrm, DotInteraction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::{EmbeddingGenerator, Technique, Weights};
use secemb_data::CriteoSample;
use secemb_nn::{Mlp, Module, Tape};
use secemb_tensor::Matrix;

/// A trained DLRM served with secure embedding generation.
///
/// Built from a trained [`Dlrm`] plus a per-feature [`Technique`]
/// allocation (from `secemb::hybrid::allocate`). MLP inference uses the
/// branchless ReLU kernel; the interaction and sigmoid are data-oblivious
/// by shape (§V-C), so the end-to-end access pattern hides the sparse
/// inputs whenever every chosen generator is oblivious.
pub struct SecureDlrm {
    bottom: Mlp,
    top: Mlp,
    features: Vec<Box<dyn EmbeddingGenerator + Send>>,
    dense_features: usize,
}

impl std::fmt::Debug for SecureDlrm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecureDlrm({} features)", self.features.len())
    }
}

impl SecureDlrm {
    /// Copies `model`'s weights and equips each sparse feature with the
    /// allocated technique.
    ///
    /// Storage-based techniques materialize the feature's table from the
    /// trained layer (for DHE-trained features this is the paper's
    /// DHE→table conversion); `Technique::Dhe` reuses the trained DHE
    /// directly and therefore requires the feature to have been trained as
    /// DHE.
    ///
    /// # Panics
    ///
    /// Panics if `allocation.len()` differs from the feature count, or if
    /// a table-trained feature is allocated to DHE.
    pub fn from_trained(model: &Dlrm, allocation: &[Technique], seed: u64) -> Self {
        let spec = model.spec();
        assert_eq!(
            allocation.len(),
            spec.table_sizes.len(),
            "one Technique per sparse feature"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let features = model
            .sparse_layers()
            .iter()
            .zip(allocation)
            .zip(&spec.table_sizes)
            .map(|((layer, &tech), &rows)| {
                let weights = match tech {
                    Technique::Dhe => Weights::Dhe(
                        layer
                            .as_dhe()
                            .expect("Technique::Dhe requires a DHE-trained feature")
                            .clone(),
                    ),
                    _ => Weights::Table(layer.to_table(rows)),
                };
                tech.build(weights, StdRng::seed_from_u64(rng.gen()))
            })
            .collect();
        SecureDlrm {
            bottom: model.bottom().clone(),
            top: model.top().clone(),
            features,
            dense_features: spec.dense_features,
        }
    }

    /// The per-feature generators.
    pub fn features(&self) -> &[Box<dyn EmbeddingGenerator + Send>] {
        &self.features
    }

    /// Runs only the embedding layers for `batch`, returning one matrix
    /// per feature — the quantity Fig. 4 and Table VIII time.
    pub fn embed(&mut self, batch: &[CriteoSample]) -> Vec<Matrix> {
        self.features
            .iter_mut()
            .enumerate()
            .map(|(f, gen)| gen.generate_batch(&feature_indices(batch, f)))
            .collect()
    }

    /// End-to-end secure inference, returning `batch × 1` CTR logits.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or sample widths disagree.
    pub fn infer(&mut self, batch: &[CriteoSample]) -> Matrix {
        assert!(!batch.is_empty(), "SecureDlrm: empty batch");
        let mut dense = Matrix::zeros(batch.len(), self.dense_features);
        for (b, s) in batch.iter().enumerate() {
            assert_eq!(s.dense.len(), self.dense_features, "sample dense width");
            dense.row_mut(b).copy_from_slice(&s.dense);
        }
        let mut tape = Tape::inference();
        let mut vectors = vec![self.bottom.forward(&dense, &mut tape)];
        vectors.extend(self.embed(batch));
        let interacted = DotInteraction::apply(&vectors);
        self.top.forward(&interacted, &mut tape)
    }

    /// Click probabilities (sigmoid of the logits).
    pub fn predict_proba(&mut self, batch: &[CriteoSample]) -> Vec<f32> {
        let logits = self.infer(batch);
        logits
            .as_slice()
            .iter()
            .map(|&z| secemb_tensor::ops::sigmoid_scalar(z))
            .collect()
    }

    /// ROC-AUC over `samples` (threshold-free ranking quality).
    pub fn auc(&mut self, samples: &[CriteoSample]) -> f64 {
        if samples.is_empty() {
            return 0.5;
        }
        let probs = self.predict_proba(samples);
        let scored: Vec<(f32, f32)> = probs
            .into_iter()
            .zip(samples.iter().map(|s| s.label))
            .collect();
        crate::metrics::roc_auc(&scored)
    }

    /// Classification accuracy at threshold 0.5.
    pub fn accuracy(&mut self, samples: &[CriteoSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let logits = self.infer(samples);
        let correct = samples
            .iter()
            .enumerate()
            .filter(|(i, s)| (logits.get(*i, 0) > 0.0) == (s.label > 0.5))
            .count();
        correct as f64 / samples.len() as f64
    }

    /// Resident bytes of the whole serving model (MLPs + every feature).
    pub fn memory_bytes(&self) -> u64 {
        let mlp_params = (self.bottom.param_count() + self.top.param_count()) as u64 * 4;
        mlp_params + self.features.iter().map(|f| f.memory_bytes()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmbeddingKind;
    use secemb::DheConfig;
    use secemb_data::{CriteoSpec, SyntheticCtr};

    fn tiny_spec() -> CriteoSpec {
        let mut s = CriteoSpec::kaggle().scaled(48);
        s.table_sizes.truncate(3);
        s.embedding_dim = 4;
        s.bottom_mlp = vec![8, 4];
        s.top_mlp = vec![8, 1];
        s
    }

    fn trained_dhe_model() -> (Dlrm, SyntheticCtr) {
        let spec = tiny_spec();
        let gen = SyntheticCtr::new(spec.clone(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let kind = EmbeddingKind::Dhe(DheConfig::new(4, 8, vec![8]));
        let model = Dlrm::new(spec, &kind, &mut rng);
        (model, gen)
    }

    #[test]
    fn secure_inference_matches_trained_model() {
        let (model, gen) = trained_dhe_model();
        let batch = gen.batch(6, &mut StdRng::seed_from_u64(3));
        let reference = model.forward(&batch);
        // All-DHE serving (same weights) must agree bit-for-bit-ish.
        let alloc = vec![Technique::Dhe; 3];
        let mut secure = SecureDlrm::from_trained(&model, &alloc, 0);
        assert!(reference.allclose(&secure.infer(&batch), 1e-5));
    }

    #[test]
    fn all_techniques_agree() {
        let (model, gen) = trained_dhe_model();
        let batch = gen.batch(4, &mut StdRng::seed_from_u64(4));
        let mut outputs = Vec::new();
        for tech in Technique::ALL {
            let mut secure = SecureDlrm::from_trained(&model, &[tech; 3], 9);
            outputs.push(secure.infer(&batch));
        }
        for (i, o) in outputs.iter().enumerate().skip(1) {
            assert!(
                outputs[0].allclose(o, 1e-4),
                "technique {i} disagrees with baseline"
            );
        }
    }

    #[test]
    fn hybrid_allocation_mixes_generators() {
        let (model, gen) = trained_dhe_model();
        let alloc = vec![Technique::LinearScan, Technique::Dhe, Technique::LinearScan];
        let mut secure = SecureDlrm::from_trained(&model, &alloc, 1);
        assert_eq!(secure.features()[0].technique(), Technique::LinearScan);
        assert_eq!(secure.features()[1].technique(), Technique::Dhe);
        let batch = gen.batch(5, &mut StdRng::seed_from_u64(5));
        let probs = secure.predict_proba(&batch);
        assert_eq!(probs.len(), 5);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn oram_memory_dwarfs_dhe_memory() {
        let (model, _) = trained_dhe_model();
        let oram = SecureDlrm::from_trained(&model, &[Technique::CircuitOram; 3], 0);
        let dhe = SecureDlrm::from_trained(&model, &[Technique::Dhe; 3], 0);
        assert!(oram.memory_bytes() > dhe.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "requires a DHE-trained feature")]
    fn table_model_cannot_serve_dhe() {
        let spec = tiny_spec();
        let mut rng = StdRng::seed_from_u64(0);
        let model = Dlrm::new(spec, &EmbeddingKind::Table, &mut rng);
        SecureDlrm::from_trained(&model, &[Technique::Dhe; 3], 0);
    }

    #[test]
    #[should_panic(expected = "one Technique per sparse feature")]
    fn allocation_length_checked() {
        let (model, _) = trained_dhe_model();
        SecureDlrm::from_trained(&model, &[Technique::Dhe], 0);
    }
}
