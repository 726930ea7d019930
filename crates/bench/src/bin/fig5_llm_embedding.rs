//! Fig. 5: LLM token-embedding latency vs embedding dimension, for
//! several embedding-generation batch sizes (fixed vocabulary).

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{Dhe, DheConfig, EmbeddingGenerator, LinearScan, OramTable};
use secemb_bench::{
    fmt_ns, median_ns, print_table, synthetic_indices, synthetic_table, SCALE_NOTE,
};
use secemb_nn::Tape;

fn main() {
    // Paper: vocab 50257 (GPT-2), dims 768–8192, batches from 1 (decode)
    // to 256+ (prefill). Scaled: vocab 12800, dims 64–512, batches 1–64.
    let vocab = 12_800u64;
    println!("Fig. 5: LLM embedding latency vs dimension (vocab {vocab}, scaled from 50257)");
    println!("{SCALE_NOTE}\n");

    for &batch in &[1usize, 8, 64] {
        println!("--- embedding batch {batch} (decode=1, prefill=prompt length) ---");
        let indices = synthetic_indices(batch, vocab);
        let mut rows_out = Vec::new();
        for &dim in &[64usize, 128, 256, 512] {
            let table = synthetic_table(vocab as usize, dim);

            let scan = LinearScan::new(table.clone());
            let scan_ns = median_ns(2, || {
                std::hint::black_box(scan.generate_batch_ref(&indices));
            });

            let mut circuit = OramTable::circuit(&table, StdRng::seed_from_u64(dim as u64));
            let circuit_ns = median_ns(2, || {
                std::hint::black_box(circuit.generate_batch(&indices));
            });

            // Paper's LLM DHE sizing: k and hidden widths = 2 x dim, 4 FC.
            let dhe = Dhe::new(
                DheConfig::new(dim, 2 * dim, vec![2 * dim; 3]),
                &mut StdRng::seed_from_u64(7),
            );
            let dhe_ns = median_ns(2, || {
                std::hint::black_box(dhe.forward(&indices, &mut Tape::inference()));
            });

            rows_out.push(vec![
                dim.to_string(),
                fmt_ns(scan_ns),
                fmt_ns(circuit_ns),
                fmt_ns(dhe_ns),
            ]);
        }
        print_table(
            &["dim", "LinearScan", "Circuit ORAM", "DHE (2xdim)"],
            &rows_out,
        );
        println!();
    }
    println!(
        "Expected shape (paper): at batch 1 (decode) Circuit ORAM is competitive\n\
         with or better than DHE; as the batch grows (prefill) DHE's weight reuse\n\
         wins while ORAM scales linearly in batch (sequential accesses)."
    );
}
