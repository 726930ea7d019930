//! The full Algorithm 2 + 3 pipeline, across crates: train one all-DHE
//! DLRM, profile, allocate per configuration, serve — and confirm the
//! hybrid output equals the trained model's output for every allocation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::hybrid::{allocate, Profiler, ThresholdEntry, ThresholdTable};
use secemb::{DheConfig, Technique};
use secemb_data::{CriteoSpec, SyntheticCtr};
use secemb_dlrm::{Dlrm, EmbeddingKind, SecureDlrm};

fn spec() -> CriteoSpec {
    let mut s = CriteoSpec::kaggle().scaled(256);
    s.table_sizes.truncate(6);
    s.embedding_dim = 8;
    s.bottom_mlp = vec![16, 8];
    s.top_mlp = vec![16, 1];
    s
}

fn all_dhe_model(spec: &CriteoSpec) -> Dlrm {
    let kind = EmbeddingKind::Dhe(DheConfig::new(8, 16, vec![16]));
    Dlrm::new(spec.clone(), &kind, &mut StdRng::seed_from_u64(7))
}

#[test]
fn every_allocation_preserves_model_outputs() {
    let spec = spec();
    let gen = SyntheticCtr::new(spec.clone(), 1);
    let model = all_dhe_model(&spec);
    let batch = gen.batch(5, &mut StdRng::seed_from_u64(2));
    let reference = model.forward(&batch);

    // Sweep thresholds: each induces a different scan/DHE mix.
    for threshold in [0u64, 16, 64, 256, u64::MAX] {
        let alloc: Vec<Technique> = spec
            .table_sizes
            .iter()
            .map(|&n| secemb::hybrid::choose_technique(n, threshold))
            .collect();
        let mut secure = SecureDlrm::from_trained(&model, &alloc, 3);
        let out = secure.infer(&batch);
        assert!(
            reference.allclose(&out, 1e-4),
            "threshold {threshold} changed outputs"
        );
    }
}

#[test]
fn profiled_thresholds_feed_allocation() {
    let spec = spec();
    let profiler = Profiler {
        dim: 8,
        sizes: vec![16, 64, 256, 1024],
        repeats: 2,
        varied_dhe: true,
    };
    let profile = profiler.profile_grid(&[4, 32], &[1]);
    assert_eq!(profile.entries.len(), 2);
    let alloc = allocate(&profile, &spec.table_sizes, 32, 1);
    assert_eq!(alloc.len(), spec.table_sizes.len());
    // Every chosen technique is one of the hybrid's two.
    assert!(alloc
        .iter()
        .all(|t| matches!(t, Technique::LinearScan | Technique::Dhe)));
}

#[test]
fn allocation_is_input_independent() {
    // §V-B: the scheme's security rests on the allocation depending only
    // on public configuration. The API enforces this structurally — the
    // profile and table sizes are the only inputs — but assert the
    // consequence: identical allocations for any request content.
    let profile = ThresholdTable {
        dim: 8,
        entries: vec![ThresholdEntry {
            batch: 32,
            threads: 1,
            threshold: 100,
        }],
    };
    let sizes = [10u64, 100, 1000];
    let a = allocate(&profile, &sizes, 32, 1);
    let b = allocate(&profile, &sizes, 32, 1);
    assert_eq!(a, b);
    assert_eq!(
        a,
        vec![Technique::LinearScan, Technique::Dhe, Technique::Dhe]
    );
}

#[test]
fn profile_json_round_trips_through_disk_format() {
    let profile = ThresholdTable {
        dim: 64,
        entries: vec![
            ThresholdEntry {
                batch: 1,
                threads: 1,
                threshold: 8192,
            },
            ThresholdEntry {
                batch: 128,
                threads: 4,
                threshold: 2048,
            },
        ],
    };
    let json = profile.to_json();
    let back = ThresholdTable::from_json(&json).expect("round trip");
    assert_eq!(profile, back);
    assert_eq!(back.threshold(128, 4), 2048);
}

#[test]
fn dhe_allocation_saves_memory_on_large_tables() {
    let spec = spec();
    let model = all_dhe_model(&spec);
    let build = |threshold: u64| {
        let alloc: Vec<Technique> = spec
            .table_sizes
            .iter()
            .map(|&n| secemb::hybrid::choose_technique(n, threshold))
            .collect();
        SecureDlrm::from_trained(&model, &alloc, 4).memory_bytes()
    };
    let all_scan = build(u64::MAX);
    let all_dhe = build(0);
    assert!(
        all_dhe < all_scan,
        "all-DHE ({all_dhe} B) must undercut all-table/scan ({all_scan} B)"
    );
    // A hybrid sits between: tiny tables may be cheaper as raw tables than
    // as DHEs (exactly why the hybrid exists), so only bounds are asserted.
    let hybrid = build(256);
    assert!(hybrid <= all_scan);
}
