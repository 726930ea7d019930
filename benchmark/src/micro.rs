//! Pinned microbenchmarks of the inner layers, called through the same
//! public functions the generators call: `secemb-obliv` scan/select,
//! `secemb-tensor` GEMM/GEMV, `secemb-oram` Circuit/Path accesses,
//! `secemb-laoram` read and write windows, and `secemb` generator
//! build / generate / footprint.
//!
//! Shapes are fixed here, not by the host: the scan runs at the
//! workload's table shape, everything else at the shapes the five
//! workloads serve. Bytes moved are computed from shapes (rows·dim·4),
//! not measured. A family is only run on the workloads whose requests
//! cross its layer (`Workload::lacks`).

use crate::report::{median, Metrics};
use crate::workloads::{plaintext, Req, Shape, Workload, SERVER_SEED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::{DheConfig, GeneratorSpec, Technique};
use secemb_laoram::{LaConfig, LookAheadOram, WindowOp};
use secemb_obliv::{scan, select, Choice};
use secemb_oram::{AccessStats, CircuitOram, Oram, OramConfig, PathOram};
use secemb_tensor::Matrix;
use std::hint::black_box;
use std::time::{Duration, Instant};

const DIM: usize = 64;
/// GPT-2's vocabulary: the shape `oram_circuit` serves.
const ORAM_ROWS: usize = 50_257;
/// The shape `laoram_rw` serves.
const LAORAM_ROWS: usize = 16_384;
/// Window size of the look-ahead microbenchmark (one request's worth).
const LA_WINDOW: usize = 16;

/// Calls `f` until `budget` has passed (at least three times) and
/// returns the median seconds per call.
fn time_calls(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(samples)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

fn blocks(rows: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    (0..rows)
        .map(|_| (0..DIM).map(|_| rng.gen::<u32>()).collect())
        .collect()
}

/// `obliv.*`: one oblivious scan over a table of the workload's largest
/// scan-served shape, and the in-cache constant-time select it is built
/// from.
pub fn obliv(workload: &Workload, budget: Duration, m: &mut Metrics) {
    let rows = workload
        .specs
        .iter()
        .filter(|s| s.technique() == Technique::LinearScan)
        .map(|s| s.rows() as usize)
        .max()
        .expect("a workload with the obliv layer serves a scan");
    let mut rng = StdRng::seed_from_u64(1);
    let table = random_matrix(rows, DIM, &mut rng);
    let mut out = vec![0f32; DIM];
    let secs = time_calls(budget, || {
        scan::scan_copy_row(
            black_box(table.as_slice()),
            DIM,
            black_box(rows as u64 / 2),
            &mut out,
        );
        black_box(&out);
    });
    m.put("obliv.scan_ns_per_row", secs * 1e9 / rows as f64, "ns");
    m.put(
        "obliv.scan_gbps",
        (rows * DIM * 4) as f64 / secs / 1e9,
        "GB/s",
    );
    let src = table.row(0).to_vec();
    const SELECTS: usize = 4096;
    let secs = time_calls(budget, || {
        for k in 0..SELECTS {
            select::assign_slice_f32(
                Choice::from_bool(black_box(k % 2 == 0)),
                &mut out,
                black_box(&src),
            );
        }
        black_box(&out);
    });
    m.put(
        "obliv.select_ns_per_word",
        secs * 1e9 / (SELECTS * DIM) as f64,
        "ns",
    );
}

/// `tensor.*`: the product the DHE decoder's first layer computes,
/// `B×1024 · (512×1024)ᵀ`, at one request (16), a full coalesced batch
/// (64) and a single query (GEMV).
pub fn tensor(budget: Duration, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(2);
    let weight = random_matrix(512, 1024, &mut rng);
    for (name, batch) in [
        ("tensor.matmul_gflops_b16", 16),
        ("tensor.matmul_gflops_b64", 64),
        ("tensor.gemv_gflops", 1),
    ] {
        let x = random_matrix(batch, 1024, &mut rng);
        let secs = time_calls(budget, || {
            black_box(black_box(&x).matmul_transpose_b(black_box(&weight)));
        });
        m.put(
            name,
            (2 * batch * 1024 * 512) as f64 / secs / 1e9,
            "GFLOP/s",
        );
    }
}

fn per_access(stats: AccessStats, count: u64) -> f64 {
    count as f64 / stats.accesses.max(1) as f64
}

/// `oram.*`: Circuit ORAM (gated by `oram_circuit`) and Path ORAM
/// (ungated cover) at the GPT-2 vocabulary shape.
pub fn oram(budget: Duration, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(3);
    let data = blocks(ORAM_ROWS, &mut rng);
    let t = Instant::now();
    let mut circuit = CircuitOram::new(
        &data,
        OramConfig::circuit(DIM),
        StdRng::seed_from_u64(SERVER_SEED),
    );
    m.put("oram.build_s", t.elapsed().as_secs_f64(), "s");
    let mut stash_peak = 0;
    let secs = time_calls(budget, || {
        black_box(circuit.read(rng.gen_range(0..ORAM_ROWS as u64)));
        stash_peak = stash_peak.max(circuit.stash_occupancy());
    });
    m.put("oram.circuit_us_per_access", secs * 1e6, "us");
    let stats = circuit.stats();
    m.put(
        "oram.buckets_per_access",
        stats.buckets_per_access(),
        "count",
    );
    m.put(
        "oram.stash_slots_per_access",
        per_access(stats, stats.stash_slots_scanned),
        "count",
    );
    m.put(
        "oram.posmap_per_access",
        per_access(stats, stats.posmap_accesses),
        "count",
    );
    m.put("oram.stash_peak", stash_peak as f64, "count");
    drop(circuit);
    let mut path = PathOram::new(
        &data,
        OramConfig::path(DIM),
        StdRng::seed_from_u64(SERVER_SEED),
    );
    let secs = time_calls(budget, || {
        black_box(path.read(rng.gen_range(0..ORAM_ROWS as u64)));
    });
    m.put("oram.path_us_per_access", secs * 1e6, "us");
}

/// `laoram.*`: all-read and all-write windows of one request's size,
/// priced separately, plus the look-ahead counters.
pub fn laoram(budget: Duration, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(4);
    let data = blocks(LAORAM_ROWS, &mut rng);
    let mut la = LookAheadOram::new(
        &data,
        LaConfig::new(DIM),
        StdRng::seed_from_u64(SERVER_SEED),
    );
    let delta = vec![0.01f32; DIM];
    for (name, write) in [
        ("laoram.read_us_per_op", false),
        ("laoram.write_us_per_op", true),
    ] {
        let secs = time_calls(budget, || {
            let ops: Vec<WindowOp> = (0..LA_WINDOW)
                .map(|_| {
                    let id = rng.gen_range(0..LAORAM_ROWS as u64);
                    if write {
                        WindowOp::AddF32(id, delta.clone())
                    } else {
                        WindowOp::Read(id)
                    }
                })
                .collect();
            black_box(la.process_window(&ops));
        });
        m.put(name, secs * 1e6 / LA_WINDOW as f64, "us");
    }
    let stats = la.la_stats();
    m.put(
        "laoram.prefetch_hit_share",
        stats.prefetch_hits as f64 / stats.ops.max(1) as f64,
        "share",
    );
    m.put(
        "laoram.evictions_saved_share",
        stats.evictions_saved as f64 / stats.ops.max(1) as f64,
        "share",
    );
    m.put(
        "laoram.stash_high_water",
        stats.stash_high_water as f64,
        "count",
    );
}

/// `core.*`: building the workload's generators, one request's batch
/// and a full coalesced batch through `generate_batch`, the same on its
/// DHE-served tables alone, and the resident model bytes.
pub fn core(workload: &Workload, budget: Duration, m: &mut Metrics) {
    let specs = workload.specs;
    let t = Instant::now();
    let mut generators: Vec<_> = specs.iter().map(|s| s.build(SERVER_SEED)).collect();
    m.put("core.build_s", t.elapsed().as_secs_f64(), "s");
    m.put(
        "core.memory_mb",
        generators.iter().map(|g| g.memory_bytes()).sum::<u64>() as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    let per_request = match workload.shape {
        Shape::Multi { per_part } => per_part,
        Shape::Single { indices, .. } => indices,
    };
    let mut rng = StdRng::seed_from_u64(5);
    for (name, batch) in [
        ("core.gen_us_per_query", per_request),
        ("core.gen_us_per_query_b64", 64),
    ] {
        // Every table once per call, as one request (or one coalesced
        // batch per shard) does.
        let secs = time_calls(budget, || {
            for (g, spec) in generators.iter_mut().zip(specs) {
                let ix: Vec<u64> = (0..batch).map(|_| rng.gen_range(0..spec.rows())).collect();
                black_box(g.generate_batch(&ix));
            }
        });
        m.put(name, secs * 1e6 / (batch * specs.len()) as f64, "us");
    }
    let mut dhe: Vec<_> = generators
        .iter_mut()
        .zip(specs)
        .filter(|(_, spec)| spec.technique() == Technique::Dhe)
        .collect();
    if !dhe.is_empty() {
        let secs = time_calls(budget, || {
            for (g, spec) in dhe.iter_mut() {
                let ix: Vec<u64> = (0..per_request)
                    .map(|_| rng.gen_range(0..spec.rows()))
                    .collect();
                black_box(g.generate_batch(&ix));
            }
        });
        m.put(
            "core.dhe_us_per_query",
            secs * 1e6 / (per_request * dhe.len()) as f64,
            "us",
        );
    }
}

/// What sits below one table's generator, rebuilt from public parts so a
/// request's kernel or structure calls can be replayed on their own.
pub enum Inner {
    /// Linear scan: the kernel is `scan_copy_row` over the plaintext.
    Scan(Matrix),
    /// DHE: the kernel is the decoder's chain of `matmul_transpose_b`.
    Dhe { k: usize, weights: Vec<Matrix> },
    /// Circuit ORAM: the structure call is one `read` per index.
    Circuit(Box<CircuitOram>),
    /// Look-ahead ORAM: the structure call is one `process_window`.
    LookAhead(Box<LookAheadOram>),
    /// Nothing separable below the generator.
    Opaque,
}

fn as_blocks(table: &Matrix) -> Vec<Vec<u32>> {
    table
        .iter_rows()
        .map(|row| row.iter().map(|v| v.to_bits()).collect())
        .collect()
}

impl Inner {
    pub fn build(spec: &GeneratorSpec) -> Inner {
        let rng = StdRng::seed_from_u64(SERVER_SEED);
        match spec.technique() {
            Technique::LinearScan => Inner::Scan(plaintext(spec)),
            Technique::Dhe => {
                let config = DheConfig::varied(spec.dim(), spec.rows());
                let mut rng = rng;
                let mut weights = Vec::new();
                let mut prev = config.k;
                for &width in config.hidden.iter().chain([&config.dim]) {
                    weights.push(random_matrix(width, prev, &mut rng));
                    prev = width;
                }
                Inner::Dhe {
                    k: config.k,
                    weights,
                }
            }
            Technique::CircuitOram => Inner::Circuit(Box::new(CircuitOram::new(
                &as_blocks(&plaintext(spec)),
                OramConfig::circuit(spec.dim()),
                rng,
            ))),
            Technique::LaOram => Inner::LookAhead(Box::new(LookAheadOram::new(
                &as_blocks(&plaintext(spec)),
                LaConfig::new(spec.dim()),
                rng,
            ))),
            Technique::IndexLookup | Technique::PathOram => Inner::Opaque,
        }
    }

    /// Replays what part `part` of `req` costs below the generator and
    /// returns `(is_kernel, start, end)`; `None` when nothing separable
    /// runs there.
    pub fn replay(&mut self, req: &Req, part: usize) -> Option<(bool, Instant, Instant)> {
        let indices = &req.parts[part].1;
        match self {
            Inner::Scan(table) => {
                let dim = table.cols();
                let mut out = vec![0f32; dim];
                let start = Instant::now();
                for &i in indices {
                    scan::scan_copy_row(black_box(table.as_slice()), dim, black_box(i), &mut out);
                    black_box(&out);
                }
                Some((true, start, Instant::now()))
            }
            Inner::Dhe { k, weights } => {
                let mut x = Matrix::from_fn(indices.len(), *k, |r, c| {
                    ((indices[r] as usize + c) % 97) as f32 / 48.5 - 1.0
                });
                let start = Instant::now();
                for w in weights.iter() {
                    x = black_box(&x).matmul_transpose_b(w);
                }
                black_box(&x);
                Some((true, start, Instant::now()))
            }
            Inner::Circuit(oram) => {
                let start = Instant::now();
                for &i in indices {
                    black_box(oram.read(i));
                }
                Some((false, start, Instant::now()))
            }
            Inner::LookAhead(oram) => {
                let ops: Vec<WindowOp> = indices
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| match &req.deltas {
                        Some(d) => WindowOp::AddF32(i, d.row(k).to_vec()),
                        None => WindowOp::Read(i),
                    })
                    .collect();
                let start = Instant::now();
                black_box(oram.process_window(&ops));
                Some((false, start, Instant::now()))
            }
            Inner::Opaque => None,
        }
    }
}
