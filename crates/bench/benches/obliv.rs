//! Criterion ablation of the oblivious primitives: scan-copy vs the
//! one-hot matmul formulation, the batch-fused scan kernel vs one scan
//! per index (and its ISA instantiations against each other), and the
//! branchless vs branching ReLU.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use secemb_bench::{synthetic_indices, synthetic_table};
use secemb_obliv::isa::Isa;
use secemb_obliv::{cmp, ct_relu_slice, scan, select};

fn bench_scan_variants(c: &mut Criterion) {
    let dim = 64usize;
    let mut group = c.benchmark_group("ablation_scan_form");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[1024usize, 16384] {
        let table = synthetic_table(n, dim);
        let flat = table.as_slice();
        let mut out = vec![0.0f32; dim];
        group.bench_with_input(BenchmarkId::new("blend_copy", n), &n, |b, _| {
            b.iter(|| scan::scan_copy_row(flat, dim, (n / 2) as u64, &mut out));
        });
        group.bench_with_input(BenchmarkId::new("onehot_matmul", n), &n, |b, _| {
            b.iter(|| scan::onehot_matmul_row(flat, dim, (n / 2) as u64, &mut out));
        });
    }
    group.finish();
}

/// The scan the library had before the fused kernel, kept here as the
/// yardstick: one whole-table pass per index, blending every row into
/// the output row.
fn per_index_reference(table: &[f32], dim: usize, indices: &[u64], out: &mut [f32]) {
    for (&idx, out_row) in indices.iter().zip(out.chunks_exact_mut(dim)) {
        for (row, chunk) in table.chunks_exact(dim).enumerate() {
            select::assign_slice_f32(cmp::eq_u64(row as u64, idx), out_row, chunk);
        }
    }
}

fn bench_scan_batch(c: &mut Criterion) {
    let dim = 64usize;
    let mut group = c.benchmark_group("scan_batch");
    group.sample_size(40);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[4096usize, 16384] {
        let table = synthetic_table(n, dim);
        let flat = table.as_slice();
        for &batch in &[1usize, 8, 64] {
            let indices = synthetic_indices(batch, n as u64);
            let mut out = vec![0.0f32; batch * dim];
            let shape = format!("b{batch}/{n}");
            group.bench_function(BenchmarkId::new("per_index_reference", &shape), |b| {
                b.iter(|| per_index_reference(flat, dim, &indices, &mut out));
            });
            group.bench_function(BenchmarkId::new("fused", &shape), |b| {
                b.iter(|| scan::scan_copy_rows(flat, dim, &indices, &mut out));
            });
        }
    }
    group.finish();
}

/// The shipping rule for an ISA instantiation: it stays only if it beats
/// `baseline` on this row by more than the row's own IQR.
fn bench_scan_isa(c: &mut Criterion) {
    let (n, dim, batch) = (16384usize, 64usize, 8usize);
    let mut group = c.benchmark_group("scan_isa_b8/16384");
    group.sample_size(100);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let table = synthetic_table(n, dim);
    let indices = synthetic_indices(batch, n as u64);
    let mut out = vec![0.0f32; batch * dim];
    for isa in Isa::ALL {
        if !scan::scan_copy_rows_at(isa, table.as_slice(), dim, &indices, &mut out) {
            println!("scan_isa_b8/16384/{isa:?}: host lacks this level");
            continue;
        }
        group.bench_function(format!("{isa:?}"), |b| {
            b.iter(|| scan::scan_copy_rows_at(isa, table.as_slice(), dim, &indices, &mut out));
        });
    }
    group.finish();
}

fn bench_relu(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_relu");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let data: Vec<f32> = (0..65536).map(|i| (i as f32 * 0.37).sin()).collect();
    group.bench_function("ct_relu_branchless", |b| {
        b.iter_batched(
            || data.clone(),
            |mut d| {
                ct_relu_slice(&mut d);
                d
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("relu_branching", |b| {
        b.iter_batched(
            || data.clone(),
            |mut d| {
                for x in &mut d {
                    *x = x.max(0.0);
                }
                d
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_argmax(c: &mut Criterion) {
    // The secure greedy-sampling primitive over GPT-2-sized logits.
    let logits: Vec<f32> = (0..50257)
        .map(|i| ((i * 31) as f32 * 0.001).sin())
        .collect();
    let mut group = c.benchmark_group("oblivious_argmax_vocab50257");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("ct_argmax", |b| b.iter(|| scan::argmax_f32(&logits)));
    group.bench_function("plain_argmax", |b| {
        b.iter(|| {
            logits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scan_variants,
    bench_scan_batch,
    bench_scan_isa,
    bench_relu,
    bench_argmax
);
criterion_main!(benches);
