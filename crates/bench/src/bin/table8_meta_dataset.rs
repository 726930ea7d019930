//! Table VIII: embedding-generation latency and memory for a DLRM shaped
//! like Meta's 2022 dataset (788 tables, up to 4e7 rows).
//!
//! Latency: like the paper ("we calculate the overall latency by executing
//! few tables at a time"), representative table sizes are measured and the
//! per-size cost is summed over the full 788-table size distribution
//! (interpolating between measured sizes). Memory: analytic at full scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::footprint::{dhe_bytes, table_bytes, tree_oram_bytes};
use secemb::{Dhe, DheConfig, EmbeddingGenerator, IndexLookup, LinearScan, OramTable};
use secemb_bench::{
    fmt_bytes, fmt_ns, median_ns, print_table, synthetic_indices, synthetic_table, LatencyCurve,
    SCALE_NOTE,
};
use secemb_data::meta_table_sizes;
use secemb_nn::Tape;
use secemb_oram::OramConfig;

fn main() {
    println!("Table VIII: Meta-2022-shaped DLRM (788 tables, sizes up to 4e7)");
    println!("{SCALE_NOTE}\n");
    let dim = 64usize;
    let batch = 32usize;
    // Measured grid: up to 32768 rows; larger tables are extrapolated on
    // the measured log-log slope.
    let grid: Vec<u64> = vec![64, 512, 4096, 32768];
    let sizes = meta_table_sizes(788, 40_000_000);

    let lookup_curve = LatencyCurve::measure(
        |n| {
            let mut g = IndexLookup::new(synthetic_table(n as usize, dim));
            let idx = synthetic_indices(batch, n);
            median_ns(3, || {
                std::hint::black_box(g.generate_batch(&idx));
            })
        },
        &grid,
    );
    let scan_curve = LatencyCurve::measure(
        |n| {
            let g = LinearScan::new(synthetic_table(n as usize, dim));
            let idx = synthetic_indices(batch, n);
            median_ns(2, || {
                std::hint::black_box(g.generate_batch_ref(&idx));
            })
        },
        &grid,
    );
    let path_curve = LatencyCurve::measure(
        |n| {
            let mut g =
                OramTable::path(&synthetic_table(n as usize, dim), StdRng::seed_from_u64(n));
            let idx = synthetic_indices(batch, n);
            median_ns(2, || {
                std::hint::black_box(g.generate_batch(&idx));
            })
        },
        &grid,
    );
    let circuit_curve = LatencyCurve::measure(
        |n| {
            let mut g =
                OramTable::circuit(&synthetic_table(n as usize, dim), StdRng::seed_from_u64(n));
            let idx = synthetic_indices(batch, n);
            median_ns(2, || {
                std::hint::black_box(g.generate_batch(&idx));
            })
        },
        &grid,
    );
    let dhe_uniform_ns = {
        let g = Dhe::new(
            DheConfig::new(dim, 256, vec![128, 64]),
            &mut StdRng::seed_from_u64(0),
        );
        let idx = synthetic_indices(batch, 1_000_000);
        median_ns(3, || {
            std::hint::black_box(g.forward(&idx, &mut Tape::inference()));
        })
    };
    let dhe_varied_curve = LatencyCurve::measure(
        |n| {
            let g = Dhe::new(DheConfig::varied(dim, n), &mut StdRng::seed_from_u64(0));
            let idx = synthetic_indices(batch, n);
            median_ns(3, || {
                std::hint::black_box(g.forward(&idx, &mut Tape::inference()));
            })
        },
        &grid,
    );

    let threshold = 512u64;
    let sum = |f: &dyn Fn(u64) -> f64| sizes.iter().map(|&n| f(n)).sum::<f64>();
    let lat_lookup = sum(&|n| lookup_curve.eval(n));
    let lat_scan = sum(&|n| scan_curve.eval(n));
    let lat_path = sum(&|n| path_curve.eval(n));
    let lat_circuit = sum(&|n| circuit_curve.eval(n));
    let lat_dhe_u = 788.0 * dhe_uniform_ns;
    let lat_dhe_v = sum(&|n| dhe_varied_curve.eval(n));
    let lat_hyb_u = sum(&|n| {
        if n < threshold {
            scan_curve.eval(n)
        } else {
            dhe_uniform_ns
        }
    });
    let lat_hyb_v = sum(&|n| {
        if n < threshold {
            scan_curve.eval(n)
        } else {
            dhe_varied_curve.eval(n)
        }
    });

    // Memory, analytic at full scale.
    let mem = |f: &dyn Fn(u64) -> u64| sizes.iter().map(|&n| f(n)).sum::<u64>();
    let mem_table = mem(&|n| table_bytes(n, dim));
    let mem_oram = mem(&|n| tree_oram_bytes(n, &OramConfig::circuit(dim)));
    let mem_dhe_u = mem(&|_| dhe_bytes(&DheConfig::uniform(dim)));
    let mem_dhe_v = mem(&|n| dhe_bytes(&DheConfig::varied(dim, n)));
    let mem_hyb_u = mem(&|n| {
        if n < threshold {
            table_bytes(n, dim)
        } else {
            dhe_bytes(&DheConfig::uniform(dim))
        }
    });
    let mem_hyb_v = mem(&|n| {
        if n < threshold {
            table_bytes(n, dim)
        } else {
            dhe_bytes(&DheConfig::varied(dim, n))
        }
    });

    let rows_out: Vec<Vec<String>> = vec![
        ("Index Lookup (non-secure)", lat_lookup, mem_table),
        ("Linear Scan", lat_scan, mem_table),
        ("Path ORAM", lat_path, mem_oram),
        ("Circuit ORAM", lat_circuit, mem_oram),
        ("DHE Uniform", lat_dhe_u, mem_dhe_u),
        ("DHE Varied", lat_dhe_v, mem_dhe_v),
        ("Hybrid Uniform", lat_hyb_u, mem_hyb_u),
        ("Hybrid Varied", lat_hyb_v, mem_hyb_v),
    ]
    .into_iter()
    .map(|(label, ns, bytes)| {
        vec![
            label.to_string(),
            fmt_ns(ns),
            format!("{:.2}x", lat_circuit / ns),
            fmt_bytes(bytes),
            format!("{:.3}%", 100.0 * bytes as f64 / mem_table as f64),
        ]
    })
    .collect();
    print_table(
        &[
            "Technique",
            "Embedding latency (788 tables)",
            "vs Circuit",
            "Memory",
            "vs table",
        ],
        &rows_out,
    );
    println!(
        "\nPaper's Table VIII: Circuit ORAM 1.35 s; Hybrid Varied 2.40x faster;\n\
         table 910 GB, ORAM 331.8% of it, DHE/hybrid ~0.13-0.22%; hybrid memory\n\
         over 2500x smaller than ORAM. Expect the same ordering and similar\n\
         memory ratios (latency ratios are machine-specific)."
    );
}
