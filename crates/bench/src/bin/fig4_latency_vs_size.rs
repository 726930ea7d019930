//! Fig. 4: secure embedding generation latency vs table size, for
//! embedding dimensions 16 and 64 (batch 32, 1 thread).

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{Dhe, DheConfig, EmbeddingGenerator, LinearScan, OramTable};
use secemb_bench::{
    fmt_ns, median_ns, print_table, synthetic_indices, synthetic_table, SCALE_NOTE,
};
use secemb_nn::Tape;

fn main() {
    println!("Fig. 4: latency vs table size (batch 32, 1 thread)");
    println!("{SCALE_NOTE}\n");
    let batch = 32usize;
    let sizes: Vec<u64> = (6..=15).map(|p| 1u64 << p).collect();

    for &dim in &[16usize, 64] {
        println!("--- embedding dim {dim} ---");
        let mut rows_out = Vec::new();
        // DHE latency is size-independent; measure once per variant.
        let uniform = Dhe::new(DheConfig::uniform(dim), &mut StdRng::seed_from_u64(0));
        let idx_any = synthetic_indices(batch, 1_000);
        let dhe_uniform_ns = median_ns(3, || {
            std::hint::black_box(uniform.forward(&idx_any, &mut Tape::inference()));
        });

        for &n in &sizes {
            let table = synthetic_table(n as usize, dim);
            let indices = synthetic_indices(batch, n);

            let scan = LinearScan::new(table.clone());
            let scan_ns = median_ns(3, || {
                std::hint::black_box(scan.generate_batch_ref(&indices));
            });

            let mut path = OramTable::path(&table, StdRng::seed_from_u64(n));
            let path_ns = median_ns(2, || {
                std::hint::black_box(path.generate_batch(&indices));
            });

            let mut circuit = OramTable::circuit(&table, StdRng::seed_from_u64(n));
            let circuit_ns = median_ns(2, || {
                std::hint::black_box(circuit.generate_batch(&indices));
            });

            let varied = Dhe::new(DheConfig::varied(dim, n), &mut StdRng::seed_from_u64(1));
            let varied_ns = median_ns(3, || {
                std::hint::black_box(varied.forward(&indices, &mut Tape::inference()));
            });

            rows_out.push(vec![
                n.to_string(),
                fmt_ns(scan_ns),
                fmt_ns(path_ns),
                fmt_ns(circuit_ns),
                fmt_ns(dhe_uniform_ns),
                fmt_ns(varied_ns),
            ]);
        }
        print_table(
            &[
                "table size",
                "LinearScan",
                "Path ORAM",
                "Circuit ORAM",
                "DHE Uniform",
                "DHE Varied",
            ],
            &rows_out,
        );
        println!();
    }
    println!(
        "Expected shape (paper): scan and ORAM grow with table size, DHE is flat;\n\
         scan wins small tables, DHE wins large ones; Circuit ORAM beats Path ORAM."
    );
}
