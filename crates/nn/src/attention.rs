//! Multi-head causal self-attention with a hand-derived backward pass.

use crate::{Linear, Module, Param};
use rand::Rng;
use secemb_tensor::{ops, Matrix};

/// Multi-head causal self-attention over a single sequence.
///
/// Input and output are `T × dim` (one row per position). Batched training
/// runs sequences through separate forward/backward calls, accumulating
/// parameter gradients — numerically identical to a batched implementation
/// and much simpler to audit.
///
/// The causal mask makes position `i` attend only to positions `≤ i`; the
/// mask depends only on the (public) sequence length, matching the paper's
/// observation that attention layers have input-independent data flow
/// (§V-C).
pub struct CausalSelfAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    proj: Linear,
    heads: usize,
    cache: Option<AttnCache>,
}

struct AttnCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head post-softmax attention matrices (T × T).
    probs: Vec<Matrix>,
}

impl CausalSelfAttention {
    /// Creates attention with `heads` heads over model width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim must divide into heads"
        );
        CausalSelfAttention {
            q: Linear::new(dim, dim, rng),
            k: Linear::new(dim, dim, rng),
            v: Linear::new(dim, dim, rng),
            proj: Linear::new(dim, dim, rng),
            heads,
            cache: None,
        }
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.q.in_features()
    }

    /// Head count.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The query projection (for cache-free serving paths).
    pub fn wq(&self) -> &Linear {
        &self.q
    }

    /// The key projection.
    pub fn wk(&self) -> &Linear {
        &self.k
    }

    /// The value projection.
    pub fn wv(&self) -> &Linear {
        &self.v
    }

    /// The output projection.
    pub fn wo(&self) -> &Linear {
        &self.proj
    }

    fn head_slice(m: &Matrix, head: usize, head_size: usize) -> Matrix {
        let mut out = Matrix::zeros(m.rows(), head_size);
        for r in 0..m.rows() {
            let src = &m.row(r)[head * head_size..(head + 1) * head_size];
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    fn write_head(dst: &mut Matrix, src: &Matrix, head: usize, head_size: usize) {
        for r in 0..dst.rows() {
            dst.row_mut(r)[head * head_size..(head + 1) * head_size].copy_from_slice(src.row(r));
        }
    }
}

impl std::fmt::Debug for CausalSelfAttention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CausalSelfAttention(dim={}, heads={})",
            self.dim(),
            self.heads
        )
    }
}

impl Module for CausalSelfAttention {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let t = input.rows();
        let dim = self.dim();
        let hs = dim / self.heads;
        let scale = 1.0 / (hs as f32).sqrt();

        let q = self.q.forward(input);
        let k = self.k.forward(input);
        let v = self.v.forward(input);

        let mut concat = Matrix::zeros(t, dim);
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = Self::head_slice(&q, h, hs);
            let kh = Self::head_slice(&k, h, hs);
            let vh = Self::head_slice(&v, h, hs);
            let mut scores = qh.matmul_transpose_b(&kh).scale(scale);
            for i in 0..t {
                for j in (i + 1)..t {
                    scores.set(i, j, f32::NEG_INFINITY);
                }
            }
            ops::softmax_rows_inplace(&mut scores);
            let out_h = scores.matmul(&vh);
            Self::write_head(&mut concat, &out_h, h, hs);
            probs.push(scores);
        }
        self.cache = Some(AttnCache { q, k, v, probs });
        self.proj.forward(&concat)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let d_concat = self.proj.backward(grad_output);
        let cache = self
            .cache
            .as_ref()
            .expect("CausalSelfAttention::backward before forward");
        let t = d_concat.rows();
        let dim = self.dim();
        let hs = dim / self.heads;
        let scale = 1.0 / (hs as f32).sqrt();

        let mut dq = Matrix::zeros(t, dim);
        let mut dk = Matrix::zeros(t, dim);
        let mut dv = Matrix::zeros(t, dim);
        for h in 0..self.heads {
            let p = &cache.probs[h];
            let qh = Self::head_slice(&cache.q, h, hs);
            let kh = Self::head_slice(&cache.k, h, hs);
            let vh = Self::head_slice(&cache.v, h, hs);
            let d_out_h = Self::head_slice(&d_concat, h, hs);

            // dV_h = Pᵀ · dOut_h ; dP = dOut_h · V_hᵀ
            let dvh = p.transpose_a_matmul(&d_out_h);
            let dp = d_out_h.matmul_transpose_b(&vh);

            // Softmax backward per row: dS = P ⊙ (dP - rowsum(dP ⊙ P)).
            let mut ds = Matrix::zeros(t, t);
            for i in 0..t {
                let mut dot = 0.0f32;
                for j in 0..t {
                    dot += dp.get(i, j) * p.get(i, j);
                }
                for j in 0..t {
                    ds.set(i, j, p.get(i, j) * (dp.get(i, j) - dot));
                }
            }
            let ds = ds.scale(scale);

            let dqh = ds.matmul(&kh);
            let dkh = ds.transpose_a_matmul(&qh);
            Self::write_head(&mut dq, &dqh, h, hs);
            Self::write_head(&mut dk, &dkh, h, hs);
            Self::write_head(&mut dv, &dvh, h, hs);
        }

        let dx_q = self.q.backward(&dq);
        let dx_k = self.k.backward(&dk);
        let dx_v = self.v.backward(&dv);
        dx_q.add(&dx_k).add(&dx_v)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.q.visit_params(f);
        self.k.visit_params(f);
        self.v.visit_params(f);
        self.proj.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_params;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = CausalSelfAttention::new(8, 2, &mut rng);
        let x = Matrix::from_fn(5, 8, |r, c| ((r * 8 + c) as f32).sin() * 0.3);
        let y = attn.forward(&x);
        assert_eq!(y.shape(), (5, 8));
        // 4 Linears of 8x8 + bias 8.
        assert_eq!(count_params(&mut attn), 4 * (64 + 8));
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut attn = CausalSelfAttention::new(4, 1, &mut rng);
        // Output at position 0 must not change when later tokens change.
        let x1 = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1);
        let mut x2 = x1.clone();
        for c in 0..4 {
            x2.set(2, c, 9.0); // perturb the last position only
        }
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        for c in 0..4 {
            assert!((y1.get(0, c) - y2.get(0, c)).abs() < 1e-6);
            assert!((y1.get(1, c) - y2.get(1, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut attn = CausalSelfAttention::new(4, 2, &mut rng);
        let x = Matrix::from_fn(3, 4, |r, c| ((r as f32) - (c as f32)) * 0.2);
        attn.forward(&x);
        let dx = attn.backward(&Matrix::full(3, 4, 1.0));

        let h = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd =
                ((attn.forward(&xp).sum() - attn.forward(&xm).sum()) / (2.0 * h as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 2e-2,
                "dx[{i}] = {} vs fd {fd}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradient_check_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = CausalSelfAttention::new(4, 1, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| ((r * 4 + c) as f32 * 0.17).cos() * 0.4);
        attn.zero_grad();
        attn.forward(&x);
        attn.backward(&Matrix::full(2, 4, 1.0));

        // Collect analytic grads.
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        attn.visit_params(&mut |p| analytic.push(p.grad().unwrap().as_slice().to_vec()));

        // Finite differences on the first element of each parameter.
        let h = 1e-2f32;
        let mut idx = 0;
        let mut results: Vec<(f32, f32)> = Vec::new();
        // Probe each param's element 0 by perturb-and-measure.
        loop {
            let mut found = false;
            let probe = |attn: &mut CausalSelfAttention, delta: f32| -> f64 {
                let mut count = 0;
                attn.visit_params(&mut |p| {
                    if count == idx {
                        let v = p.value.as_slice()[0];
                        p.value.as_mut_slice()[0] = v + delta;
                    }
                    count += 1;
                });
                let out = attn.forward(&x).sum();
                let mut count = 0;
                attn.visit_params(&mut |p| {
                    if count == idx {
                        let v = p.value.as_slice()[0];
                        p.value.as_mut_slice()[0] = v - delta;
                    }
                    count += 1;
                });
                out
            };
            if idx < analytic.len() {
                let plus = probe(&mut attn, h);
                let minus = probe(&mut attn, -h);
                let fd = ((plus - minus) / (2.0 * h as f64)) as f32;
                results.push((analytic[idx][0], fd));
                found = true;
            }
            if !found {
                break;
            }
            idx += 1;
        }
        assert_eq!(results.len(), 8); // 4 weights + 4 biases
        for (i, (a, fd)) in results.iter().enumerate() {
            assert!((a - fd).abs() < 3e-2, "param {i}: analytic {a} vs fd {fd}");
        }
    }
}
