//! The two case-study models under every technique each accepts, pinned
//! bit for bit. The hashes were recorded while DLRM and GPT still reached
//! their generators through per-crate enums; they hold now that both hold
//! the boxed trait object `secemb::Technique::build` returns, so a change
//! to the constructor, or to a generator behind it, that moves a model's
//! output moves one of these.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{DheConfig, Technique};
use secemb_data::{CriteoSpec, SyntheticCtr};
use secemb_dlrm::{Dlrm, EmbeddingKind, SecureDlrm};
use secemb_llm::{EmbedderPolicy, Gpt, GptConfig, GptServing, KvCache, TokenEmbeddingKind};

#[allow(dead_code)] // `trace_hash` serves the ORAM golden tests
#[path = "../crates/oram/tests/support/fnv.rs"]
mod fnv;

fn fnv_f32(values: &[f32]) -> u64 {
    let mut h = fnv::Fnv::new();
    for v in values {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.0
}

fn dhe_gpt() -> Gpt {
    let cfg = GptConfig::tiny(24);
    let kind = TokenEmbeddingKind::Dhe(DheConfig::new(cfg.dim, 16, vec![16]));
    Gpt::new(cfg, &kind, &mut StdRng::seed_from_u64(1))
}

#[test]
fn dlrm_logits_are_pinned_under_every_allocation() {
    let mut spec = CriteoSpec::kaggle().scaled(48);
    spec.table_sizes.truncate(3);
    spec.embedding_dim = 4;
    spec.bottom_mlp = vec![8, 4];
    spec.top_mlp = vec![8, 1];
    let batch = SyntheticCtr::new(spec.clone(), 1).batch(6, &mut StdRng::seed_from_u64(4));
    let kind = EmbeddingKind::Dhe(DheConfig::new(4, 8, vec![8]));
    let model = Dlrm::new(spec, &kind, &mut StdRng::seed_from_u64(2));

    // A DHE-trained model accepts the whole menu: the table techniques
    // serve `Dhe::to_table`, whose rows are the DHE's own output bits.
    const LOGITS: u64 = 0x34ac_f6df_7231_29a8;
    let uniform = Technique::ALL.map(|t| [t; 3]);
    let mixed = [
        [
            Technique::LinearScan,
            Technique::Dhe,
            Technique::CircuitOram,
        ],
        [Technique::LaOram, Technique::PathOram, Technique::Dhe],
    ];
    for allocation in uniform.iter().chain(&mixed) {
        let mut secure = SecureDlrm::from_trained(&model, allocation, 9);
        let got = fnv_f32(secure.infer(&batch).as_slice());
        assert_eq!(got, LOGITS, "{allocation:?}: {got:#018x}");
        for (feature, &technique) in secure.features().iter().zip(allocation) {
            assert_eq!(feature.technique(), technique);
        }
    }
}

#[test]
fn gpt_tokens_are_pinned_under_every_technique() {
    let gpt = dhe_gpt();
    const TOKENS: u64 = 0x621d_8165_6b57_4f5b;
    for technique in Technique::ALL {
        let mut serve = GptServing::new(&gpt, technique, 3);
        let prompt = [2usize, 7, 13];
        let tokens = serve.generate(&prompt, 8);
        // The untrained model's greedy continuation is one repeated
        // token, so also pin the logits over prompt and continuation.
        let logits = serve.prefill(&[&prompt[..], &tokens].concat(), &mut KvCache::default());
        let mut h = fnv::Fnv::new();
        for &t in &tokens {
            h.write(&(t as u64).to_le_bytes());
        }
        let got = h.0 ^ fnv_f32(logits.as_slice());
        assert_eq!(got, TOKENS, "{technique}: {tokens:?} {got:#018x}");
        assert_eq!(serve.embedder().technique(), technique);
    }
}

#[test]
fn policy_rows_are_pinned_on_both_routes() {
    let gpt = dhe_gpt();
    let mut policy = EmbedderPolicy::from_model(&gpt, 4, 1);
    for (tokens, route, golden) in [
        (
            &[3usize, 9, 17, 2, 11][..],
            Technique::Dhe,
            0x7bd8_a770_90e8_b966_u64,
        ),
        (&[9][..], Technique::CircuitOram, 0x2d9c_a5d0_f1fe_b4a4),
        (
            &[23, 0, 9][..],
            Technique::CircuitOram,
            0xea8b_b2db_26be_8e89,
        ),
    ] {
        assert_eq!(policy.route(tokens.len()), route);
        let got = fnv_f32(policy.embed(tokens).as_slice());
        assert_eq!(got, golden, "{tokens:?}: {got:#018x}");
    }
    assert_eq!(policy.call_counts(), (1, 2));
}
