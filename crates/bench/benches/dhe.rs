//! Criterion ablation of DHE sizing: hash count `k` and decoder widths
//! (the Uniform-vs-Varied design choice of §IV-B1 / Table IV), and the
//! `A·Bᵀ` kernel under the decoder: the tiled GEMM against one dot product
//! per output element, and its ISA instantiations against each other.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::{Dhe, DheConfig};
use secemb_bench::synthetic_indices;
use secemb_nn::Tape;
use secemb_obliv::isa::Isa;
use secemb_tensor::gemm::{dot, gemm_nt_at};
use secemb_tensor::Matrix;

fn bench_k_scaling(c: &mut Criterion) {
    let dim = 64usize;
    let indices = synthetic_indices(32, 1_000_000);
    let mut group = c.benchmark_group("ablation_dhe_k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &k in &[64usize, 256, 1024] {
        let dhe = Dhe::new(
            DheConfig::new(dim, k, vec![k / 2, k / 4]),
            &mut StdRng::seed_from_u64(0),
        );
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| dhe.forward(&indices, &mut Tape::inference()));
        });
    }
    group.finish();
}

fn bench_uniform_vs_varied(c: &mut Criterion) {
    let dim = 64usize;
    let indices = synthetic_indices(32, 1_000_000);
    let mut group = c.benchmark_group("ablation_dhe_sizing");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let uniform = Dhe::new(DheConfig::uniform(dim), &mut StdRng::seed_from_u64(0));
    group.bench_function("uniform_1e7", |b| {
        b.iter(|| uniform.forward(&indices, &mut Tape::inference()))
    });
    for &rows in &[10_000_000u64, 1_000_000, 10_000] {
        let varied = Dhe::new(DheConfig::varied(dim, rows), &mut StdRng::seed_from_u64(0));
        group.bench_with_input(BenchmarkId::new("varied", rows), &rows, |b, _| {
            b.iter(|| varied.forward(&indices, &mut Tape::inference()));
        });
    }
    group.finish();
}

fn bench_batch_parallelism(c: &mut Criterion) {
    // DHE's "superior batch parallelism" (§VI-D2): threads split a batch.
    let dim = 64usize;
    let dhe = Dhe::new(DheConfig::uniform(dim), &mut StdRng::seed_from_u64(0));
    let indices = synthetic_indices(128, 1_000_000);
    let mut group = c.benchmark_group("ablation_dhe_threads");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| dhe.infer_threaded(&indices, t));
        });
    }
    group.finish();
}

/// The three layers of the Uniform decoder as `(in, out)`: the `k × n` of
/// `x · Wᵀ`.
const UNIFORM_LAYERS: [(usize, usize); 3] = [(1024, 512), (512, 256), (256, 64)];

fn operands(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let value = |r: usize, c: usize| ((r * 31 + c * 17) % 101) as f32 * 0.02 - 1.0;
    (Matrix::from_fn(m, k, value), Matrix::from_fn(n, k, value))
}

/// The product the library computed before the tiled kernel, kept here as
/// the yardstick: one eight-lane dot product per output element, so the
/// weights stream once per batch row.
fn per_row_reference(x: &Matrix, w: &Matrix, out: &mut [f32]) {
    for (x_row, out_row) in x.iter_rows().zip(out.chunks_exact_mut(w.rows())) {
        for (o, w_row) in out_row.iter_mut().zip(w.iter_rows()) {
            *o = dot(x_row, w_row);
        }
    }
}

fn bench_gemm_nt(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_nt");
    group.sample_size(40);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &(k, n) in &UNIFORM_LAYERS {
        for &batch in &[1usize, 8, 16, 64] {
            let (x, w) = operands(batch, k, n);
            let mut out = vec![0.0f32; batch * n];
            let shape = format!("b{batch}/{k}x{n}");
            group.bench_function(BenchmarkId::new("per_row_reference", &shape), |b| {
                b.iter(|| per_row_reference(&x, &w, &mut out));
            });
            group.bench_function(BenchmarkId::new("tiled", &shape), |b| {
                b.iter(|| x.matmul_transpose_b(&w));
            });
        }
    }
    group.finish();
}

/// The shipping rule for an ISA instantiation: it stays only if it beats
/// the level below on this row by more than the row's own IQR.
fn bench_gemm_isa(c: &mut Criterion) {
    let (batch, (k, n)) = (16usize, UNIFORM_LAYERS[0]);
    let mut group = c.benchmark_group("gemm_isa_b16");
    group.sample_size(100);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let (x, w) = operands(batch, k, n);
    let mut out = vec![0.0f32; batch * n];
    for isa in Isa::ALL {
        let mut run = || gemm_nt_at(isa, x.as_slice(), w.as_slice(), batch, n, k, &mut out);
        if !run() {
            println!("gemm_isa_b16/{isa:?}: host lacks this level");
            continue;
        }
        group.bench_function(format!("{isa:?}"), |b| b.iter(&mut run));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_k_scaling,
    bench_uniform_vs_varied,
    bench_batch_parallelism,
    bench_gemm_nt,
    bench_gemm_isa
);
criterion_main!(benches);
