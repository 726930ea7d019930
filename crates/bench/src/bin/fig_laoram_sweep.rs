//! Look-ahead ORAM sweep: batched throughput of the `laoram` table vs
//! Path and Circuit ORAM at an equal security configuration (same table,
//! same Z = 4 tree geometry, same per-access obliviousness guarantee).
//!
//! The `laoram` table runs each window op as one Circuit ORAM access, so
//! its read columns should track the Circuit column; what it adds is the
//! write path. Two workloads are swept: uniform indices, and a hot-row
//! stream (half the accesses over 32 head rows — embedding popularity
//! skew), on which no controller here does less work. A 50 %-write window
//! is priced to show the protected training path costs the same as
//! inference (it is the same trace by construction).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::{EmbeddingGenerator, OramTable, Technique, Weights};
use secemb_bench::{print_table, synthetic_table, SCALE_NOTE};
use std::time::Instant;

const ROWS: usize = 4096;
const DIM: usize = 32;
const QUERIES: usize = 1024;
/// Hot-set workload: half the accesses land on this many head rows.
const HOT_ROWS: u64 = 32;

/// One batch of indices: uniform, or half-drawn from the hot head rows.
fn draw(rng: &mut StdRng, batch: usize, hot: bool) -> Vec<u64> {
    (0..batch)
        .map(|_| {
            if hot && rng.gen_bool(0.5) {
                rng.gen_range(0..HOT_ROWS)
            } else {
                rng.gen_range(0..ROWS as u64)
            }
        })
        .collect()
}

/// Serves `QUERIES` lookups in batches of `batch`, returning ns/query.
fn measure(
    generator: &mut dyn EmbeddingGenerator,
    batch: usize,
    hot: bool,
    write_frac: f64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    // Warm the stash/tree into steady state before timing.
    let warm = draw(&mut rng, batch, hot);
    generator.generate_batch(&warm);
    let delta = [1e-3f32; DIM];
    let started = Instant::now();
    let mut served = 0usize;
    while served < QUERIES {
        let indices = draw(&mut rng, batch, hot);
        if write_frac > 0.0 {
            let writes = (batch as f64 * write_frac) as usize;
            let updates: Vec<Option<&[f32]>> = (0..batch)
                .map(|k| if k < writes { Some(&delta[..]) } else { None })
                .collect();
            generator.generate_window(&indices, &updates);
        } else {
            generator.generate_batch(&indices);
        }
        served += batch;
    }
    started.elapsed().as_nanos() as f64 / served as f64
}

fn main() {
    println!("Look-ahead ORAM vs Path/Circuit ORAM: batched throughput sweep");
    println!("({ROWS} rows x {DIM}, {QUERIES} queries per cell, Z=4 trees)");
    println!("{SCALE_NOTE}\n");
    let table = synthetic_table(ROWS, DIM);
    let laoram =
        || Technique::LaOram.build(Weights::Table(table.clone()), StdRng::seed_from_u64(1));

    let mut rows_out = Vec::new();
    let mut uniform_wins = 0usize;
    let mut hot_wins = 0usize;
    for &batch in &[4usize, 16, 64] {
        let mut path = OramTable::path(&table, StdRng::seed_from_u64(1));
        let path_ns = measure(&mut path, batch, false, 0.0);
        let path_hot_ns = measure(&mut path, batch, true, 0.0);
        let mut circuit = OramTable::circuit(&table, StdRng::seed_from_u64(1));
        let circuit_ns = measure(&mut circuit, batch, false, 0.0);
        let la_ns = measure(laoram().as_mut(), batch, false, 0.0);
        let la_hot_ns = measure(laoram().as_mut(), batch, true, 0.0);
        let mixed_ns = measure(laoram().as_mut(), batch, false, 0.5);
        rows_out.push(vec![
            batch.to_string(),
            format!("{:.1}", path_ns / 1000.0),
            format!("{:.1}", circuit_ns / 1000.0),
            format!("{:.1}", la_ns / 1000.0),
            format!("{:.1}", la_hot_ns / 1000.0),
            format!("{:.1}", mixed_ns / 1000.0),
            format!("{:.2}x", path_ns / la_ns),
            format!("{:.2}x", path_hot_ns / la_hot_ns),
        ]);
        if path_ns / la_ns > 1.0 {
            uniform_wins += 1;
        }
        if path_hot_ns / la_hot_ns > 1.0 {
            hot_wins += 1;
        }
    }
    print_table(
        &[
            "batch",
            "Path us/q",
            "Circuit us/q",
            "LAORAM us/q",
            "LAORAM hot us/q",
            "LAORAM 50%wr us/q",
            "vs Path",
            "vs Path (hot)",
        ],
        &rows_out,
    );
    println!(
        "\nLAORAM serves the coalesced batch as one window of Circuit ORAM\n\
         accesses, so its reads cost what Circuit's do, uniform or hot,\n\
         and a 50%-write window prices the same as reads — the\n\
         protected-training write path is trace-identical by construction.\n\
         Path ORAM's two stash scans per write-back slot over a 150-block\n\
         stash keep it the slowest at every batch size."
    );
    assert_eq!(
        uniform_wins, 3,
        "expected a look-ahead win over Path ORAM at every batch size"
    );
    assert_eq!(
        hot_wins, 3,
        "expected a look-ahead win over Path ORAM on the hot-row stream"
    );
}
