//! Allocation witness for the training → serving hand-over: a
//! [`SecureDlrm`] built from a trained DLRM copies the weights it serves
//! — the MLPs and every DHE decoder — and none of the gradients or
//! optimizer moments training left in the model.
//!
//! The counting allocator is local to this test binary (the library
//! crates forbid `unsafe`).

#[path = "../../oram/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_in;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{DheConfig, Technique};
use secemb_data::{CriteoSpec, SyntheticCtr};
use secemb_dlrm::{Dlrm, EmbeddingKind, SecureDlrm};
use secemb_nn::Adam;

#[test]
fn serving_a_trained_model_allocates_its_weights_only() {
    let mut spec = CriteoSpec::kaggle()
        .scaled(1000)
        .with_mlps(vec![64, 16], vec![64, 1]);
    spec.table_sizes.truncate(3);
    let kind = EmbeddingKind::Dhe(DheConfig::new(16, 64, vec![128, 64]));
    let mut model = Dlrm::new(spec.clone(), &kind, &mut StdRng::seed_from_u64(1));
    let batch = SyntheticCtr::new(spec, 2).batch(8, &mut StdRng::seed_from_u64(3));
    model.train_step(&batch, &mut Adam::new(0.01));

    let mut secure = None;
    let (_, bytes) =
        allocated_in(|| secure = Some(SecureDlrm::from_trained(&model, &[Technique::Dhe; 3], 0)));
    let memory = secure.expect("built").memory_bytes();
    // Beyond the weights: the layer structs and lists, the feature list
    // and the boxed generators (≈ 6 KB). A gradient and two moments per
    // weight would add three times the weights.
    let allowed = memory + 16 * 1024;
    assert!(
        bytes <= allowed,
        "served {memory} B of weights with {bytes} B of allocation (allowed {allowed})"
    );
}
