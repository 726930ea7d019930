//! Synthetic weights above the lane threshold: every generator
//! `GeneratorSpec::build` draws through `fill_uniform` or a staged
//! `UniformDraws` stream (a tree ORAM's rows), with its controller's RNG
//! jumped past the table, serves what the same generator built from one
//! `gen_range` draw at a time serves — rows, and for the tree ORAMs the
//! access trace that shows the controller's RNG. The goldens in `menu.rs`
//! and `generators.rs` run at sizes below the threshold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::{Dhe, DheConfig, GeneratorSpec, Weights};
use secemb_nn::Params;
use secemb_tensor::init::FILL_MIN;
use secemb_tensor::Matrix;
use secemb_trace::tracer::record_trace;

#[path = "../../oram/tests/support/fnv.rs"]
mod fnv;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn drawn_tables_equal_a_scalar_drawn_reference() {
    for text in [
        "lookup:16384x64",
        "scan:100003x64",
        "circuit:50257x64",
        "laoram:16384x64",
    ] {
        let spec: GeneratorSpec = text.parse().unwrap();
        let (rows, dim) = (spec.rows(), spec.dim());
        assert!(
            rows * dim as u64 >= FILL_MIN as u64,
            "{text} is below the lanes"
        );
        let mut rng = StdRng::seed_from_u64(42);
        let table = Matrix::from_fn(rows as usize, dim, |_, _| rng.gen_range(-1.0f32..1.0));
        let mut reference = spec.technique().build(Weights::Table(table), rng);
        let mut drawn = spec.build(42);
        // First, last and strided rows; three batches, so a controller
        // drawing from the wrong place shows in its path choices.
        let indices: Vec<u64> = (0..8).map(|i| i * (rows - 1) / 7).collect();
        for batch in 0..3 {
            let (want, want_trace) = record_trace(|| reference.generate_batch(&indices));
            let (got, got_trace) = record_trace(|| drawn.generate_batch(&indices));
            assert_eq!(bits(&got), bits(&want), "{text} batch {batch}: rows");
            assert_eq!(
                fnv::trace_hash(&got_trace),
                fnv::trace_hash(&want_trace),
                "{text} batch {batch}: trace"
            );
        }
    }
}

#[test]
fn a_drawn_dhe_holds_scalar_xavier_draws() {
    let config = DheConfig::varied(64, 10_000_000);
    let mut dhe = Dhe::new(config.clone(), &mut StdRng::seed_from_u64(42));
    // The decoder's layers in order: an `out × in` Xavier weight drawn in
    // row-major order, then a zero bias.
    let mut rng = StdRng::seed_from_u64(42);
    let mut fan_in = config.k;
    let mut widths = config.hidden.iter().chain([&config.dim]);
    let mut fan_out = 0;
    let mut laned = 0;
    let mut visited = 0;
    dhe.visit_params(&mut |param| {
        let got = bits(&param.value);
        if visited % 2 == 0 {
            fan_out = *widths.next().expect("one weight per layer");
            let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
            let want: Vec<u32> = (0..fan_in * fan_out)
                .map(|_| rng.gen_range(-bound..=bound).to_bits())
                .collect();
            assert_eq!(got, want, "layer {}: weights", visited / 2);
            laned += usize::from(want.len() >= FILL_MIN);
        } else {
            assert!(got.iter().all(|&b| b == 0), "layer {}: bias", visited / 2);
            fan_in = fan_out;
        }
        visited += 1;
    });
    assert_eq!(visited, 2 * (config.hidden.len() + 1));
    assert!(laned > 0, "no layer of {config:?} reaches the lanes");
}
