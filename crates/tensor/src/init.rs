//! Weight initialization, and the one way synthetic weights are drawn:
//! [`fill_uniform`].
//!
//! Every draw is rand's `gen_range(lo..hi)` (24 uniform bits, one multiply
//! and one add) in stream order, so a table or layer is the same bits
//! however it was drawn. Long fills run eight xoshiro streams at once
//! (`rand::rngs::Lanes`): the output is cut into eight contiguous runs,
//! each stream started where drawing one value at a time would reach its
//! run (a polynomial jump). The lane body is safe Rust inlined into one
//! out-of-line instantiation per [`Isa`] level, picked once per process as
//! the scan and GEMM kernels are.

use crate::Matrix;
use rand::rngs::{Jump, Lanes, StdRng, LANES};
use rand::Rng;
use secemb_obliv::isa::{Isa, Kernels};
use std::sync::OnceLock;

/// Fewest draws [`fill_uniform`] and [`UniformDraws`] hand to the lanes;
/// below it, placing the lanes costs about what they save (2¹⁶ draws:
/// 0.099 ms one at a time, 0.087 ms in AVX-512 lanes).
pub const FILL_MIN: usize = 1 << 16;

/// Draws staged at a time by [`UniformDraws`] (16 KiB).
const CHUNK: usize = 4096;

/// Fills `out` with uniform `[lo, hi)` draws from `rng`, each exactly what
/// `rng.gen_range(lo..hi)` would return in turn, and leaves `rng` where
/// those draws would (`lo..=hi` draws the same way).
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn fill_uniform(rng: &mut StdRng, lo: f32, hi: f32, out: &mut [f32]) {
    match best() {
        Some(kernel) if out.len() >= FILL_MIN => fill_with(kernel, rng, lo, hi, out),
        _ => {
            for v in out {
                *v = rng.gen_range(lo..=hi);
            }
        }
    }
}

/// The lanes the dispatched fills run: the widest level's, and none on a
/// CPU without AVX2, where eight lanes in SSE2 registers (no 64-bit
/// rotate) draw 2²⁰ values in 1.92 ms against one stream's 1.65 ms
/// (AVX2 1.19 ms, AVX-512 0.62 ms; EXPERIMENTS.md, "Start-up").
fn best() -> Option<Kernel> {
    static BEST: OnceLock<Option<Kernel>> = OnceLock::new();
    *BEST.get_or_init(|| match Isa::best() {
        Isa::Baseline => None,
        isa => kernel(isa),
    })
}

/// [`fill_uniform`] through the lanes compiled for `isa`, at any length,
/// so tests and benches can reach every instantiation. Returns `false`,
/// leaving `rng` and `out` untouched, if this CPU cannot run that level.
#[doc(hidden)]
pub fn fill_uniform_at(isa: Isa, rng: &mut StdRng, lo: f32, hi: f32, out: &mut [f32]) -> bool {
    match kernel(isa) {
        Some(kernel) => {
            fill_with(kernel, rng, lo, hi, out);
            true
        }
        None => false,
    }
}

/// Eight lanes over `out`'s first `8 · (len / 8)` values; the last lane
/// ends where scalar drawing does, and draws the tail.
fn fill_with(kernel: Kernel, rng: &mut StdRng, lo: f32, hi: f32, out: &mut [f32]) {
    assert!(lo <= hi, "fill_uniform: empty range");
    let lane_len = out.len() / LANES;
    let (body, tail) = out.split_at_mut(lane_len * LANES);
    let mut lanes = Lanes::spaced(rng, lane_len as u64);
    crate::run_kernel(kernel, (&mut lanes, lo, hi, body, None));
    *rng = lanes.lane(LANES - 1);
    for v in tail {
        *v = rng.gen_range(lo..=hi);
    }
}

/// A stream of `total` uniform `[lo, hi)` draws from `rng`, handed out in
/// order a slice at a time and staged 4 096 (16 KiB) at a time — for a
/// consumer that places values one row at a time (a tree ORAM drawing each
/// row into its slot), so the whole table never exists at once. At
/// [`FILL_MIN`] draws or more each chunk is eight lanes of 512, which then
/// jump together to the next chunk with one [`Jump`] computed here; a last
/// partial chunk, or a short stream, is drawn one value at a time.
pub struct UniformDraws {
    /// Where one-at-a-time drawing stands (unused while `lanes` runs).
    rng: StdRng,
    /// The lanes at the next chunk, and the jump from a chunk's lane ends
    /// to the next chunk's lane starts.
    lanes: Option<(Lanes, Jump)>,
    lo: f32,
    hi: f32,
    staged: Vec<f32>,
    next: usize,
    left: u64,
}

impl UniformDraws {
    /// The first `total` draws of `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(rng: StdRng, lo: f32, hi: f32, total: u64) -> Self {
        assert!(lo <= hi, "UniformDraws: empty range");
        let lane = (CHUNK / LANES) as u64;
        let lanes = (total >= FILL_MIN as u64 && best().is_some())
            .then(|| (Lanes::spaced(&rng, lane), Jump::new(CHUNK as u64 - lane)));
        UniformDraws {
            rng,
            lanes,
            lo,
            hi,
            staged: Vec::new(),
            next: 0,
            left: total,
        }
    }

    /// The next draws, as many as `n` or as are staged, whichever is fewer
    /// (at least one while any are left).
    pub fn take(&mut self, n: usize) -> &[f32] {
        if self.next == self.staged.len() {
            self.stage();
        }
        let start = self.next;
        self.next = (start + n).min(self.staged.len());
        &self.staged[start..self.next]
    }

    /// Stages the next chunk.
    fn stage(&mut self) {
        assert!(self.left > 0, "UniformDraws: every draw was taken");
        let n = (CHUNK as u64).min(self.left) as usize;
        self.staged.resize(n, 0.0);
        match &mut self.lanes {
            Some((lanes, jump)) if n == CHUNK => {
                let kernel = best().expect("lanes run only where a kernel was picked");
                crate::run_kernel(
                    kernel,
                    (lanes, self.lo, self.hi, &mut self.staged, Some(&*jump)),
                );
            }
            _ => {
                if let Some((lanes, _)) = self.lanes.take() {
                    self.rng = lanes.lane(0);
                }
                for v in &mut self.staged {
                    *v = self.rng.gen_range(self.lo..=self.hi);
                }
            }
        }
        self.left -= n as u64;
        self.next = 0;
    }
}

/// One compiled instantiation of [`fill_body`], called through
/// [`crate::run_kernel`]: `(lanes, lo, hi, out, then)`.
type Kernel = unsafe fn((&mut Lanes, f32, f32, &mut [f32], Option<&Jump>));

/// The instantiation compiled for `isa` — only if this CPU runs that
/// level, which is what makes calling it sound.
fn kernel(isa: Isa) -> Option<Kernel> {
    isa.pick(&Kernels {
        baseline: fill_baseline,
        #[cfg(target_arch = "x86_64")]
        avx2: fill_avx2,
        #[cfg(target_arch = "x86_64")]
        avx512f: fill_avx512f,
    })
}

// The instantiations stay out of line so each is a symbol of its own: CI
// disassembles the AVX-512 one and fails if the compiler stopped
// vectorising the eight lanes or fused the multiply into the add.

#[inline(never)]
fn fill_baseline((lanes, lo, hi, out, then): (&mut Lanes, f32, f32, &mut [f32], Option<&Jump>)) {
    fill_body(lanes, lo, hi, out, then);
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2")]
fn fill_avx2((lanes, lo, hi, out, then): (&mut Lanes, f32, f32, &mut [f32], Option<&Jump>)) {
    fill_body(lanes, lo, hi, out, then);
}

#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx512f,avx512vl")]
fn fill_avx512f((lanes, lo, hi, out, then): (&mut Lanes, f32, f32, &mut [f32], Option<&Jump>)) {
    fill_body(lanes, lo, hi, out, then);
}

/// Steps the lanes through `out`, then applies `then` to all of them.
#[inline(always)]
fn fill_body(lanes: &mut Lanes, lo: f32, hi: f32, out: &mut [f32], then: Option<&Jump>) {
    lanes.fill_f32(lo, hi, out);
    if let Some(jump) = then {
        lanes.jump(jump);
    }
}

/// Xavier/Glorot uniform initialization: samples from
/// `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
///
/// This is what the DHE decoder and the MLP stacks in the paper's reference
/// implementations use for their dense layers.
#[derive(Clone, Copy, Debug, Default)]
pub struct XavierInit;

impl XavierInit {
    /// Samples a `fan_out × fan_in` weight matrix (rows = output features),
    /// the layout [`crate::Matrix::matmul_transpose_b`] consumes directly,
    /// through [`fill_uniform`].
    pub fn sample(self, fan_out: usize, fan_in: usize, rng: &mut StdRng) -> Matrix {
        let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
        let mut w = Matrix::zeros(fan_out, fan_in);
        fill_uniform(rng, -bound, bound, w.as_mut_slice());
        w
    }
}

/// Samples a matrix with i.i.d. normal entries of the given std deviation
/// (GPT-2 uses `N(0, 0.02)` for most weights).
pub fn normal_init(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        // Box–Muller transform.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0f32..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_bound() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = XavierInit.sample(64, 32, &mut rng);
        let bound = (6.0f32 / 96.0).sqrt();
        assert!(w.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
        assert_eq!(w.shape(), (64, 32));
        // Not all zeros / not constant.
        assert!(w.as_slice().iter().any(|&x| x != w.as_slice()[0]));
    }

    #[test]
    fn normal_has_requested_scale() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = normal_init(100, 100, 0.02, &mut rng);
        let mean = w.mean();
        let var = w
            .as_slice()
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / w.len() as f64;
        assert!(mean.abs() < 1e-3);
        assert!((var.sqrt() - 0.02).abs() < 2e-3, "std {}", var.sqrt());
    }
}
