//! Oblivious whole-table scans: copy-out, max, and argmax.
//!
//! These routines visit *every* element of their input, in an order that
//! is a public function of the (public) input shape alone. They
//! implement:
//!
//! - the paper's **linear scan** embedding generation (§IV-A1, §V-A2), and
//! - the **oblivious argmax** used for greedy LLM decoding (§V-C).

use crate::isa::{Isa, Kernels};
use crate::{cmp, select};
use std::sync::OnceLock;

/// Bytes of table one tile of [`scan_copy_rows`] covers. A tile is read
/// once per index of the batch, so it has to stay cache-resident between
/// those reads. The measured sweep (EXPERIMENTS.md, "Scan kernel") has two
/// plateaus: flat across L2-sized tiles (64 KiB – 512 KiB), and a quarter
/// faster again while the tile sits in L1d (16 KiB – 32 KiB on this host's
/// 48 KiB L1d). 24 KiB is inside the fast plateau and also leaves room
/// beside the tile in a 32 KiB L1d.
pub const TILE_BYTES: usize = 24 * 1024;

/// Rows per tile of a table whose rows are `dim` `f32`s: as many whole
/// rows as fit in [`TILE_BYTES`], at least one. The tiling — and with it
/// the access order of [`scan_copy_rows`] — depends on the row width only.
///
/// # Panics
///
/// Panics if `dim` is zero.
pub fn tile_rows(dim: usize) -> usize {
    assert!(dim > 0, "tile_rows: dim must be positive");
    (TILE_BYTES / 4 / dim).max(1)
}

/// Obliviously copies row `secret_index` of a row-major `table` into `out`:
/// [`scan_copy_rows`] for a batch of one.
///
/// # Panics
///
/// Panics if `table.len()` is not a multiple of `dim`, if `out.len() != dim`,
/// or if `secret_index` is out of range (the range bound `n` is public;
/// a caller-side bug, not a secret leak).
///
/// ```
/// use secemb_obliv::scan;
/// let table = [1.0f32, 2.0, /* row 1 */ 3.0, 4.0, /* row 2 */ 5.0, 6.0];
/// let mut out = [0.0f32; 2];
/// scan::scan_copy_row(&table, 2, 2, &mut out);
/// assert_eq!(out, [5.0, 6.0]);
/// ```
pub fn scan_copy_row(table: &[f32], dim: usize, secret_index: u64, out: &mut [f32]) {
    scan_copy_rows(table, dim, &[secret_index], out);
}

/// Obliviously copies one row of a row-major `table` for each index of a
/// batch: `out` row `b` becomes table row `indices[b]`, bit for bit.
///
/// The scan is tile-major. The table is walked once, in tiles of
/// [`tile_rows`]`(dim)` rows; within a tile every index of the batch, in
/// batch order, reads every row of the tile and ORs `row & mask` into
/// register accumulators (the mask is all-ones on the one matching row —
/// the role `vpblendm` plays in the paper's AVX-512 scan), and the
/// accumulators are merged into `out` once per tile. So the table comes
/// from DRAM once per batch instead of once per index, and which
/// addresses are touched in which order is fixed by `(rows, dim, batch)`:
/// no index decides what is read, only what the masks keep.
///
/// # Panics
///
/// Panics if `dim` is zero, if `table.len()` is not a multiple of `dim`, if
/// `out.len() != indices.len() * dim`, or if any index is out of range (the
/// range bound is public; a caller-side bug, not a secret leak).
///
/// ```
/// use secemb_obliv::scan;
/// let table = [1.0f32, 2.0, /* row 1 */ 3.0, 4.0, /* row 2 */ 5.0, 6.0];
/// let mut out = [0.0f32; 4];
/// scan::scan_copy_rows(&table, 2, &[2, 0], &mut out);
/// assert_eq!(out, [5.0, 6.0, 1.0, 2.0]);
/// ```
pub fn scan_copy_rows(table: &[f32], dim: usize, indices: &[u64], out: &mut [f32]) {
    static BEST: OnceLock<Kernel> = OnceLock::new();
    let best = *BEST.get_or_init(|| kernel(Isa::best()).expect("the best level is available"));
    run(best, table, dim, indices, out);
}

/// [`scan_copy_rows`] through the kernel compiled for `isa` rather than
/// the best one the CPU offers, so tests and benches can reach every
/// instantiation. Returns `false`, leaving `out` untouched, if this CPU
/// cannot run that level.
#[doc(hidden)]
pub fn scan_copy_rows_at(
    isa: Isa,
    table: &[f32],
    dim: usize,
    indices: &[u64],
    out: &mut [f32],
) -> bool {
    match kernel(isa) {
        Some(kernel) => {
            run(kernel, table, dim, indices, out);
            true
        }
        None => false,
    }
}

/// The instantiation of [`kernel_body`] compiled for `isa` — only if this
/// CPU runs that level, which is what makes [`run`] sound.
fn kernel(isa: Isa) -> Option<Kernel> {
    isa.pick(&Kernels {
        baseline: kernel_baseline,
        #[cfg(target_arch = "x86_64")]
        avx2: kernel_avx2,
        #[cfg(target_arch = "x86_64")]
        avx512f: kernel_avx512f,
    })
}

/// One compiled instantiation of [`kernel_body`]. `unsafe` because the
/// `#[target_feature]` ones may only be called on a CPU with that feature;
/// values of this type come from [`kernel`] alone.
type Kernel = unsafe fn(&[f32], usize, &[u64], &mut [f32]);

/// Checks the public shape, then runs `kernel`.
fn run(kernel: Kernel, table: &[f32], dim: usize, indices: &[u64], out: &mut [f32]) {
    assert!(dim > 0, "scan_copy_rows: dim must be positive");
    assert_eq!(
        table.len() % dim,
        0,
        "scan_copy_rows: table not a multiple of dim"
    );
    assert_eq!(
        out.len(),
        indices.len() * dim,
        "scan_copy_rows: out length != batch * dim"
    );
    let n = (table.len() / dim) as u64;
    assert!(
        indices.iter().all(|&idx| idx < n),
        "scan_copy_rows: index out of range"
    );
    // SAFETY: `kernel` came from `scan::kernel`, which hands out a
    // `#[target_feature]` instantiation only after `Isa::available`
    // (`is_x86_feature_detected!`) confirmed that feature on the running
    // CPU (the baseline one needs none). The body is safe Rust, so the CPU
    // feature is the kernel's only precondition.
    #[allow(unsafe_code)]
    unsafe {
        kernel(table, dim, indices, out)
    }
}

// The instantiations stay out of line so each is a symbol of its own: CI
// disassembles the wide ones and fails if the compiler stopped
// vectorising them.

#[inline(never)]
fn kernel_baseline(table: &[f32], dim: usize, indices: &[u64], out: &mut [f32]) {
    kernel_body(table, dim, indices, out);
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
fn kernel_avx2(table: &[f32], dim: usize, indices: &[u64], out: &mut [f32]) {
    kernel_body(table, dim, indices, out);
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn kernel_avx512f(table: &[f32], dim: usize, indices: &[u64], out: &mut [f32]) {
    kernel_body(table, dim, indices, out);
}

/// The scan itself, written once in safe Rust and compiled once per
/// [`Isa`] level: inlined into a `#[target_feature]` wrapper, the fixed-
/// width accumulator loops of [`accumulate`] vectorise to that level's
/// registers.
#[inline(always)]
fn kernel_body(table: &[f32], dim: usize, indices: &[u64], out: &mut [f32]) {
    out.fill(0.0);
    let tile_rows = tile_rows(dim);
    for (tile_no, tile) in table.chunks(tile_rows * dim).enumerate() {
        let first_row = (tile_no * tile_rows) as u64;
        for (&secret_index, out_row) in indices.iter().zip(out.chunks_exact_mut(dim)) {
            // A row is cut into accumulator blocks, widest first: 64
            // words fill the sixteen SSE2 registers exactly (eight AVX2,
            // four AVX-512), the narrower steps cover rows and remainders
            // below that.
            let mut col = 0;
            while col + 64 <= dim {
                accumulate::<64>(tile, dim, col, first_row, secret_index, out_row);
                col += 64;
            }
            while col + 16 <= dim {
                accumulate::<16>(tile, dim, col, first_row, secret_index, out_row);
                col += 16;
            }
            while col + 4 <= dim {
                accumulate::<4>(tile, dim, col, first_row, secret_index, out_row);
                col += 4;
            }
            while col < dim {
                accumulate::<1>(tile, dim, col, first_row, secret_index, out_row);
                col += 1;
            }
        }
    }
}

/// ORs columns `col..col + W` of the tile row numbered `secret_index` (if
/// it is in this tile; nothing otherwise) into the same columns of
/// `out_row`. Every row of the tile is read; the loop over rows has no
/// store.
#[inline(always)]
fn accumulate<const W: usize>(
    tile: &[f32],
    dim: usize,
    col: usize,
    first_row: u64,
    secret_index: u64,
    out_row: &mut [f32],
) {
    let mut acc = [0u32; W];
    for (r, row) in tile.chunks_exact(dim).enumerate() {
        let hit = cmp::eq_u64(first_row + r as u64, secret_index).mask() as u32;
        let words: &[f32; W] = row[col..col + W].try_into().expect("W words");
        for (a, word) in acc.iter_mut().zip(words) {
            *a |= word.to_bits() & hit;
        }
    }
    for (o, a) in out_row[col..col + W].iter_mut().zip(acc) {
        *o = f32::from_bits(o.to_bits() | a);
    }
}

/// Oblivious maximum of a non-empty `f32` slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn max_f32(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "max_f32: empty slice");
    let mut best = xs[0];
    for &x in &xs[1..] {
        let take = cmp::gt_f32(x, best);
        best = select::f32(take, x, best);
    }
    best
}

/// Oblivious argmax of a non-empty `f32` slice.
///
/// Returns the index of the *first* maximal element, computed with a single
/// pass of constant-time compares and selects — the "linear scan that copies
/// the maximum value obliviously using cmov" the paper uses to protect
/// greedy sampling over LLM output logits.
///
/// # Panics
///
/// Panics if `xs` is empty.
///
/// ```
/// use secemb_obliv::scan;
/// assert_eq!(scan::argmax_f32(&[0.1, 0.9, 0.4, 0.9]), 1);
/// ```
pub fn argmax_f32(xs: &[f32]) -> u64 {
    assert!(!xs.is_empty(), "argmax_f32: empty slice");
    let mut best = xs[0];
    let mut best_idx = 0u64;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        let take = cmp::gt_f32(x, best);
        best = select::f32(take, x, best);
        best_idx = select::u64(take, i as u64, best_idx);
    }
    best_idx
}

/// Oblivious top-`k`: indices of the `k` largest elements, in descending
/// value order, computed as `k` oblivious argmax passes with constant-time
/// masking of already-selected positions.
///
/// `O(k·n)` compares/selects, all data-independent — the building block
/// for protected top-k sampling over LLM logits (the paper secures greedy
/// argmax; this extends the same construction to sampled decoding).
///
/// # Panics
///
/// Panics if `xs` is empty or `k == 0` or `k > xs.len()`.
///
/// ```
/// use secemb_obliv::scan;
/// assert_eq!(scan::top_k_f32(&[0.1, 0.9, 0.4, 0.7], 2), vec![1, 3]);
/// ```
pub fn top_k_f32(xs: &[f32], k: usize) -> Vec<u64> {
    assert!(!xs.is_empty(), "top_k_f32: empty slice");
    assert!(k > 0 && k <= xs.len(), "top_k_f32: k out of range");
    let mut masked: Vec<f32> = xs.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let idx = argmax_f32(&masked);
        out.push(idx);
        // Constant-time knockout of the winner: every element is rewritten,
        // the winner to -inf, the rest to themselves.
        for (i, m) in masked.iter_mut().enumerate() {
            let hit = cmp::eq_u64(i as u64, idx);
            *m = select::f32(hit, f32::NEG_INFINITY, *m);
        }
    }
    out
}

/// Oblivious inner product of a one-hot(`secret_index`) vector with a table.
///
/// Mathematically identical to [`scan_copy_row`] but expressed as the
/// multiply-accumulate form used by MPC/HE baselines: `out += onehot[i] *
/// row_i` for every row. Provided for cross-checking and the ablation bench.
///
/// # Panics
///
/// Same conditions as [`scan_copy_row`].
pub fn onehot_matmul_row(table: &[f32], dim: usize, secret_index: u64, out: &mut [f32]) {
    assert!(dim > 0, "onehot_matmul_row: dim must be positive");
    assert_eq!(
        table.len() % dim,
        0,
        "onehot_matmul_row: table not a multiple of dim"
    );
    assert_eq!(out.len(), dim, "onehot_matmul_row: out length != dim");
    let n = (table.len() / dim) as u64;
    assert!(secret_index < n, "onehot_matmul_row: index out of range");
    out.fill(0.0);
    for (row, chunk) in table.chunks_exact(dim).enumerate() {
        let hit = cmp::eq_u64(row as u64, secret_index);
        // one-hot coefficient as a float obtained branchlessly
        let coeff = select::f32(hit, 1.0, 0.0);
        for (o, &v) in out.iter_mut().zip(chunk.iter()) {
            *o += coeff * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize, dim: usize) -> Vec<f32> {
        (0..n * dim).map(|i| i as f32 * 0.5 - 3.0).collect()
    }

    #[test]
    fn copy_row_matches_direct_index() {
        let (n, dim) = (17, 5);
        let t = table(n, dim);
        for idx in 0..n {
            let mut out = vec![0.0f32; dim];
            scan_copy_row(&t, dim, idx as u64, &mut out);
            assert_eq!(&out[..], &t[idx * dim..(idx + 1) * dim]);
        }
    }

    #[test]
    fn copy_rows_batch() {
        let (n, dim) = (9, 3);
        let t = table(n, dim);
        let indices = [8u64, 0, 4, 4];
        let mut out = vec![0.0f32; indices.len() * dim];
        scan_copy_rows(&t, dim, &indices, &mut out);
        for (b, &idx) in indices.iter().enumerate() {
            assert_eq!(
                &out[b * dim..(b + 1) * dim],
                &t[idx as usize * dim..(idx as usize + 1) * dim]
            );
        }
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn copy_row_rejects_oob() {
        let t = table(4, 2);
        let mut out = vec![0.0f32; 2];
        scan_copy_row(&t, 2, 4, &mut out);
    }

    #[test]
    fn max_and_argmax() {
        let xs = [0.5f32, -1.0, 3.25, 3.0, -7.5];
        assert_eq!(max_f32(&xs), 3.25);
        assert_eq!(argmax_f32(&xs), 2);
    }

    #[test]
    fn argmax_first_of_ties() {
        assert_eq!(argmax_f32(&[1.0, 2.0, 2.0, 1.0]), 1);
    }

    #[test]
    fn argmax_single() {
        assert_eq!(argmax_f32(&[42.0]), 0);
        assert_eq!(max_f32(&[42.0]), 42.0);
    }

    #[test]
    fn top_k_descending_and_distinct() {
        let xs = [0.5f32, -1.0, 3.25, 3.0, -7.5, 3.25];
        let top = top_k_f32(&xs, 4);
        assert_eq!(top, vec![2, 5, 3, 0]);
        // k = n returns a permutation.
        let all = top_k_f32(&xs, 6);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn top_1_is_argmax() {
        let xs = [1.0f32, 9.0, 2.0];
        assert_eq!(top_k_f32(&xs, 1), vec![argmax_f32(&xs)]);
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn top_k_rejects_oversized_k() {
        top_k_f32(&[1.0], 2);
    }

    #[test]
    fn onehot_matches_scan() {
        let (n, dim) = (11, 4);
        let t = table(n, dim);
        for idx in [0u64, 5, 10] {
            let mut a = vec![0.0f32; dim];
            let mut b = vec![1.0f32; dim]; // pre-filled: must be overwritten
            scan_copy_row(&t, dim, idx, &mut b);
            onehot_matmul_row(&t, dim, idx, &mut a);
            assert_eq!(a, b);
        }
    }
}
