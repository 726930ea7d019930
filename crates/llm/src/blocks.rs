//! Transformer blocks: pre-norm attention + GeLU feed-forward.

use rand::rngs::StdRng;
use secemb_nn::{CausalSelfAttention, Gelu, LayerNorm, Linear, Module, Param, Params, Tape};
use secemb_tensor::Matrix;

/// GPT-2's position-wise feed-forward: `Linear(d→4d) → GeLU → Linear(4d→d)`.
#[derive(Debug)]
pub struct FeedForward {
    up: Linear,
    down: Linear,
}

impl FeedForward {
    /// Creates the feed-forward for model width `dim`.
    pub fn new(dim: usize, rng: &mut StdRng) -> Self {
        FeedForward {
            up: Linear::new(dim, 4 * dim, rng),
            down: Linear::new(4 * dim, dim, rng),
        }
    }
}

impl Params for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.up.visit_params(f);
        self.down.visit_params(f);
    }
}

impl Module for FeedForward {
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
        let h = self.up.forward(input, tape);
        let h = Gelu.forward(&h, tape);
        self.down.forward(&h, tape)
    }

    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let (up, down) = grads.split_at_mut(2);
        let g = self.down.backward(tape, grad_output, down);
        let g = Gelu.backward(tape, &g, &mut []);
        self.up.backward(tape, &g, up)
    }
}

/// One pre-norm transformer block:
/// `x + attn(ln1(x))` then `x + ff(ln2(x))`.
#[derive(Debug)]
pub struct Block {
    ln1: LayerNorm,
    attn: CausalSelfAttention,
    ln2: LayerNorm,
    ff: FeedForward,
}

impl Block {
    /// Parameter tensors per block, in visit order: two for `ln1`, eight
    /// for the attention's four projections, two for `ln2`, four for the
    /// feed-forward.
    pub(crate) const PARAM_TENSORS: usize = 16;

    /// Creates a block for width `dim` with `heads` attention heads.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        Block {
            ln1: LayerNorm::new(dim),
            attn: CausalSelfAttention::new(dim, heads, rng),
            ln2: LayerNorm::new(dim),
            ff: FeedForward::new(dim, rng),
        }
    }

    /// The attention sub-layer (serving needs its projections).
    pub fn attention(&self) -> &CausalSelfAttention {
        &self.attn
    }

    /// First layer norm (before attention).
    pub fn ln1(&self) -> &LayerNorm {
        &self.ln1
    }

    /// Second layer norm (before the feed-forward).
    pub fn ln2(&self) -> &LayerNorm {
        &self.ln2
    }

    /// The feed-forward sub-layer.
    pub fn feed_forward(&self) -> &FeedForward {
        &self.ff
    }
}

impl Params for Block {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.ff.visit_params(f);
    }
}

impl Module for Block {
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
        let a = self.attn.forward(&self.ln1.forward(input, tape), tape);
        let x = input.add(&a);
        let f = self.ff.forward(&self.ln2.forward(&x, tape), tape);
        x.add(&f)
    }

    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let (ln1, grads) = grads.split_at_mut(2);
        let (attn, grads) = grads.split_at_mut(8);
        let (ln2, ff) = grads.split_at_mut(2);
        // x2 = x1 + ff(ln2(x1)): dx1 = g + ln2_back(ff_back(g))
        let g_ff = self.ff.backward(tape, grad_output, ff);
        let g_ln2 = self.ln2.backward(tape, &g_ff, ln2);
        let dx1 = grad_output.add(&g_ln2);
        // x1 = x0 + attn(ln1(x0))
        let g_attn = self.attn.backward(tape, &dx1, attn);
        let g_ln1 = self.ln1.backward(tape, &g_attn, ln1);
        dx1.add(&g_ln1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb_nn::Grads;

    fn run(layer: &dyn Module, x: &Matrix) -> Matrix {
        layer.forward(x, &mut Tape::inference())
    }

    /// Forward on a training tape, then backward from an all-ones
    /// gradient; the tape must end empty.
    fn input_grad(layer: &mut dyn Module, x: &Matrix) -> Matrix {
        let mut tape = Tape::training();
        let y = layer.forward(x, &mut tape);
        let mut grads = Grads::zeros(layer);
        let dx = layer.backward(
            &mut tape,
            &Matrix::full(y.rows(), y.cols(), 1.0),
            &mut grads,
        );
        assert!(tape.is_empty());
        dx
    }

    #[test]
    fn shapes_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = Block::new(8, 2, &mut rng);
        let x = Matrix::from_fn(5, 8, |r, c| ((r * 8 + c) as f32 * 0.3).sin() * 0.2);
        assert_eq!(run(&b, &x).shape(), (5, 8));
        assert_eq!(input_grad(&mut b, &x).shape(), (5, 8));
        assert_eq!(Grads::zeros(&mut b).len(), Block::PARAM_TENSORS);
    }

    #[test]
    fn block_gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = Block::new(4, 1, &mut rng);
        let x = Matrix::from_fn(3, 4, |r, c| ((r + 2 * c) as f32 * 0.21).cos() * 0.3);
        let dx = input_grad(&mut b, &x);
        let h = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((run(&b, &xp).sum() - run(&b, &xm).sum()) / (2.0 * h as f64)) as f32;
            let a = dx.as_slice()[i];
            // Relative tolerance: f32 finite differences lose precision
            // when the residual stream amplifies the objective.
            assert!(
                (a - fd).abs() < 5e-2 + 0.02 * a.abs().max(fd.abs()),
                "dx[{i}] {a} vs {fd}"
            );
        }
    }

    #[test]
    fn feedforward_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ff = FeedForward::new(4, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| (r as f32 - c as f32) * 0.2);
        let dx = input_grad(&mut ff, &x);
        let h = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((run(&ff, &xp).sum() - run(&ff, &xm).sum()) / (2.0 * h as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 2e-2,
                "dx[{i}] {} vs {fd}",
                dx.as_slice()[i]
            );
        }
    }
}
