//! Multi-head causal self-attention with a hand-derived backward pass.

use crate::{Linear, Module, Param, Params, Tape};
use rand::rngs::StdRng;
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
///
/// Its forward records, after the projections' own records, every head's
/// post-softmax attention matrix (`T × T`) and then `Q`, `K` and `V`.
pub struct CausalSelfAttention {
    q: Linear,
    k: Linear,
    v: Linear,
    proj: Linear,
    heads: usize,
}

impl CausalSelfAttention {
    /// Creates attention with `heads` heads over model width `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut StdRng) -> Self {
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

    /// The query projection (serving runs it over a KV cache).
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

impl Params for CausalSelfAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.q.visit_params(f);
        self.k.visit_params(f);
        self.v.visit_params(f);
        self.proj.visit_params(f);
    }
}

impl Module for CausalSelfAttention {
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
        let t = input.rows();
        let dim = self.dim();
        let hs = dim / self.heads;
        let scale = 1.0 / (hs as f32).sqrt();

        let q = self.q.forward(input, tape);
        let k = self.k.forward(input, tape);
        let v = self.v.forward(input, tape);

        let mut concat = Matrix::zeros(t, dim);
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
            tape.push(scores);
        }
        tape.push(q);
        tape.push(k);
        tape.push(v);
        self.proj.forward(&concat, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let (gq, grads) = grads.split_at_mut(2);
        let (gk, grads) = grads.split_at_mut(2);
        let (gv, gproj) = grads.split_at_mut(2);
        let d_concat = self.proj.backward(tape, grad_output, gproj);
        let (v, k, q) = (tape.pop(), tape.pop(), tape.pop());
        let probs = tape.pop_many(self.heads);
        let t = d_concat.rows();
        let dim = self.dim();
        let hs = dim / self.heads;
        let scale = 1.0 / (hs as f32).sqrt();

        let mut dq = Matrix::zeros(t, dim);
        let mut dk = Matrix::zeros(t, dim);
        let mut dv = Matrix::zeros(t, dim);
        for (h, p) in probs.iter().enumerate() {
            let qh = Self::head_slice(&q, h, hs);
            let kh = Self::head_slice(&k, h, hs);
            let vh = Self::head_slice(&v, h, hs);
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

        let dx_v = self.v.backward(tape, &dv, gv);
        let dx_k = self.k.backward(tape, &dk, gk);
        let dx_q = self.q.backward(tape, &dq, gq);
        dx_q.add(&dx_k).add(&dx_v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_params, Grads};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(attn: &CausalSelfAttention, x: &Matrix) -> Matrix {
        attn.forward(x, &mut Tape::inference())
    }

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = CausalSelfAttention::new(8, 2, &mut rng);
        let x = Matrix::from_fn(5, 8, |r, c| ((r * 8 + c) as f32).sin() * 0.3);
        let y = run(&attn, &x);
        assert_eq!(y.shape(), (5, 8));
        // 4 Linears of 8x8 + bias 8.
        assert_eq!(count_params(&mut attn), 4 * (64 + 8));
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut rng = StdRng::seed_from_u64(1);
        let attn = CausalSelfAttention::new(4, 1, &mut rng);
        // Output at position 0 must not change when later tokens change.
        let x1 = Matrix::from_fn(3, 4, |r, c| (r + c) as f32 * 0.1);
        let mut x2 = x1.clone();
        for c in 0..4 {
            x2.set(2, c, 9.0); // perturb the last position only
        }
        let y1 = run(&attn, &x1);
        let y2 = run(&attn, &x2);
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
        let mut tape = Tape::training();
        attn.forward(&x, &mut tape);
        let mut grads = Grads::zeros(&mut attn);
        let dx = attn.backward(&mut tape, &Matrix::full(3, 4, 1.0), &mut grads);
        assert!(tape.is_empty());

        let h = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((run(&attn, &xp).sum() - run(&attn, &xm).sum()) / (2.0 * h as f64)) as f32;
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
        let mut tape = Tape::training();
        attn.forward(&x, &mut tape);
        let mut grads = Grads::zeros(&mut attn);
        attn.backward(&mut tape, &Matrix::full(2, 4, 1.0), &mut grads);
        assert_eq!(grads.len(), 8); // 4 weights + 4 biases

        // Finite differences on the first element of each parameter.
        fn nudge(attn: &mut CausalSelfAttention, idx: usize, delta: f32) {
            let mut count = 0;
            attn.visit_params(&mut |p| {
                if count == idx {
                    p.value.as_mut_slice()[0] += delta;
                }
                count += 1;
            });
        }
        let h = 1e-2f32;
        for (idx, analytic) in grads.iter().enumerate() {
            nudge(&mut attn, idx, h);
            let plus = run(&attn, &x).sum();
            nudge(&mut attn, idx, -h);
            nudge(&mut attn, idx, -h);
            let minus = run(&attn, &x).sum();
            nudge(&mut attn, idx, h);
            let fd = ((plus - minus) / (2.0 * h as f64)) as f32;
            let a = analytic.as_slice()[0];
            assert!(
                (a - fd).abs() < 3e-2,
                "param {idx}: analytic {a} vs fd {fd}"
            );
        }
    }
}
