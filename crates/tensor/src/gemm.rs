//! `C = A·Bᵀ` for row-major `A` (`m × k`) and `B` (`n × k`): the product
//! behind [`crate::Matrix::matmul_transpose_b`], i.e. every `Linear`
//! forward, attention score and logit product in the workspace.
//!
//! Both operands are contiguous along `k` — `B` is a weight matrix in its
//! `out × in` layout — so the kernel reads them where they lie: nothing is
//! packed, copied or cached between calls.
//!
//! **Arithmetic.** Every output element is computed exactly as [`dot`]
//! computes it: eight lane sums running down `k` in chunk order, the lanes
//! added left to right, then the scalar tail; a multiply and an add, never
//! a fused multiply-add. What the kernel changes is only *which* elements
//! are in flight together, so results are bit-equal to [`dot`] at every
//! [`Isa`] level, batch size and row position — a row's value cannot
//! depend on the batch it was coalesced into.
//!
//! **Blocking.** An `MR × NR` tile of outputs keeps its `MR·NR` eight-lane
//! accumulators in registers and loads `MR + NR` vectors per step instead
//! of `2·MR·NR`. Panels of `NR` rows of `B` are the outer loop: a panel
//! (`NR·k` floats, L1-sized for the DHE decoder) meets every row of `A`
//! before the next panel is touched, so a weight row leaves L3 once per
//! call rather than once per batch row.
//!
//! The memory trace is a function of `(m, n, k)` alone.

use secemb_obliv::isa::{Isa, Kernels};
use std::sync::OnceLock;

/// Accumulator lanes per output element. Part of the arithmetic, not a
/// tuning knob: changing it changes the order of additions.
const LANES: usize = 8;

/// Dot product with eight independent accumulator lanes: the arithmetic
/// every kernel instantiation reproduces bit for bit, kept as the
/// reference the tests and benches compare against.
#[doc(hidden)]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / LANES;
    let mut acc = [0.0f32; LANES];
    for c in 0..chunks {
        let ac = &a[c * LANES..(c + 1) * LANES];
        let bc = &b[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] += ac[l] * bc[l];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in chunks * LANES..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// `out = a · bᵀ` with `a: m × k`, `b: n × k`, `out: m × n`, all row-major,
/// through the widest kernel this CPU runs.
///
/// # Panics
///
/// Panics if a slice length disagrees with its shape.
pub(crate) fn gemm_nt(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    static BEST: OnceLock<Kernel> = OnceLock::new();
    let best = *BEST.get_or_init(|| kernel(Isa::best()).expect("the best level is available"));
    run(best, a, b, m, n, k, out);
}

/// [`gemm_nt`] through the kernel compiled for `isa` rather than the best
/// one the CPU offers, so tests and benches can reach every instantiation.
/// Returns `false`, leaving `out` untouched, if this CPU cannot run that
/// level.
#[doc(hidden)]
pub fn gemm_nt_at(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) -> bool {
    match kernel(isa) {
        Some(kernel) => {
            run(kernel, a, b, m, n, k, out);
            true
        }
        None => false,
    }
}

/// One compiled instantiation of [`kernel_body`], called through
/// [`crate::run_kernel`]: `(a, b, m, n, k, out)`.
type Kernel = unsafe fn((&[f32], &[f32], usize, usize, usize, &mut [f32]));

/// The instantiation compiled for `isa` — only if this CPU runs that
/// level, which is what makes calling it sound.
fn kernel(isa: Isa) -> Option<Kernel> {
    isa.pick(&Kernels {
        baseline: kernel_baseline,
        #[cfg(target_arch = "x86_64")]
        avx2: kernel_avx2,
        #[cfg(target_arch = "x86_64")]
        avx512f: kernel_avx512,
    })
}

/// Checks the shapes, then runs `kernel`.
fn run(kernel: Kernel, a: &[f32], b: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nt: a is not m x k");
    assert_eq!(b.len(), n * k, "gemm_nt: b is not n x k");
    assert_eq!(out.len(), m * n, "gemm_nt: out is not m x n");
    crate::run_kernel(kernel, (a, b, m, n, k, out));
}

// The instantiations stay out of line so each is a symbol of its own: CI
// disassembles the wide ones and fails if the compiler stopped vectorising
// them or started fusing the multiply into the add. The tile is what the
// level's register file holds beside the operands in flight: `MR·NR`
// accumulators of eight lanes in sixteen 4-lane registers, sixteen 8-lane
// registers, and thirty-two 16-lane registers (two accumulators each).
// The shapes are the measured best of a sweep (EXPERIMENTS.md, "GEMM
// kernel"); within a level the candidates differ by about a tenth.

#[inline(never)]
fn kernel_baseline((a, b, m, n, k, out): (&[f32], &[f32], usize, usize, usize, &mut [f32])) {
    kernel_body::<2, 2>(a, b, m, n, k, out);
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
fn kernel_avx2((a, b, m, n, k, out): (&[f32], &[f32], usize, usize, usize, &mut [f32])) {
    kernel_body::<2, 4>(a, b, m, n, k, out);
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx512f,avx512vl")]
fn kernel_avx512((a, b, m, n, k, out): (&[f32], &[f32], usize, usize, usize, &mut [f32])) {
    kernel_body::<4, 6>(a, b, m, n, k, out);
}

/// The product itself, written once in safe Rust and compiled once per
/// [`Isa`] level: `b` in panels of `NR` rows (then single rows), each
/// panel against all of `a` before the next is touched.
#[inline(always)]
fn kernel_body<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + NR <= n {
        panel::<MR, NR>(a, b, m, n, k, j, out);
        j += NR;
    }
    while j < n {
        panel::<MR, 1>(a, b, m, n, k, j, out);
        j += 1;
    }
}

/// Rows `j..j + NR` of `b` against `a` in groups of `MR` rows, then single
/// rows — which is all a batch below `MR` gets: `1 × NR` is already ahead
/// of one [`dot`] per element there, the weights arriving in `NR` streams
/// the prefetcher follows (sixteen, it does not).
#[inline(always)]
fn panel<const MR: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    k: usize,
    j: usize,
    out: &mut [f32],
) {
    let b_rows: [&[f32]; NR] = std::array::from_fn(|c| &b[(j + c) * k..][..k]);
    let mut i = 0;
    while i + MR <= m {
        let sums = tile::<MR, NR>(std::array::from_fn(|r| &a[(i + r) * k..][..k]), b_rows);
        for (r, row) in sums.iter().enumerate() {
            out[(i + r) * n + j..][..NR].copy_from_slice(row);
        }
        i += MR;
    }
    while i < m {
        let [row] = tile::<1, NR>([&a[i * k..][..k]], b_rows);
        out[i * n + j..][..NR].copy_from_slice(&row);
        i += 1;
    }
}

/// `MR × NR` dot products at once, each with [`dot`]'s arithmetic. All the
/// rows have the same length.
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(a: [&[f32]; MR], b: [&[f32]; NR]) -> [[f32; NR]; MR] {
    let chunks = b[0].len() / LANES;
    // Every row cut to the same `chunks`, so the loop below indexes
    // without a bounds check.
    let a_body: [&[[f32; LANES]]; MR] =
        std::array::from_fn(|r| &a[r].as_chunks::<LANES>().0[..chunks]);
    let b_body: [&[[f32; LANES]]; NR] =
        std::array::from_fn(|c| &b[c].as_chunks::<LANES>().0[..chunks]);
    let mut acc = [[[0.0f32; LANES]; NR]; MR];
    for c in 0..chunks {
        for r in 0..MR {
            for col in 0..NR {
                acc[r][col] = mul_add(acc[r][col], &a_body[r][c], &b_body[col][c]);
            }
        }
    }
    // The loop's data flow ends here: the accumulators go to the stack
    // once, and the compiler lays the loop out from the loop alone, lanes
    // across a register. Left to see the reduction below, the vectoriser
    // instead puts the same lane of several *outputs* in one register, so
    // that the lane sums become vertical adds, and pays for it in the loop
    // with broadcasts and shuffles (baseline level: 8 instead of 35
    // GFLOP/s). `lane_sum` is out of line for the same reason seen from
    // the other side: inlined, the AVX-512 level collects the strided
    // lanes with `vgatherqps`.
    let acc = std::hint::black_box(acc);
    // Lanes left to right, then the tail in order: per element this is
    // `dot`'s sequence of additions. The tail loop is the outer one so
    // that every index into `sums` is a constant and it stays in
    // registers.
    let mut sums = [[0.0f32; NR]; MR];
    for r in 0..MR {
        for col in 0..NR {
            sums[r][col] = lane_sum(&acc[r][col]);
        }
    }
    for t in chunks * LANES..b[0].len() {
        for r in 0..MR {
            for col in 0..NR {
                sums[r][col] += a[r][t] * b[col][t];
            }
        }
    }
    sums
}

/// The lanes added left to right.
#[inline(never)]
fn lane_sum(lanes: &[f32; LANES]) -> f32 {
    lanes.iter().sum()
}

/// `acc + x·y` lane by lane: one multiply and one add per lane, which the
/// compiler may not fuse.
#[inline(always)]
fn mul_add(acc: [f32; LANES], x: &[f32; LANES], y: &[f32; LANES]) -> [f32; LANES] {
    std::array::from_fn(|l| acc[l] + x[l] * y[l])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "b is not n x k")]
    fn shape_mismatch_is_rejected() {
        gemm_nt(&[0.0; 6], &[0.0; 5], 2, 2, 3, &mut [0.0; 4]);
    }
}
