//! Activation layers.
//!
//! ReLU has no layer of its own: [`crate::Mlp`] applies the branchless
//! `secemb_obliv::ct_relu` kernel in place between its linear layers,
//! in training and serving alike, and masks its backward by the next
//! layer's recorded input (the ReLU's output, positive exactly where its
//! input was).

use crate::{Module, Params, Tape};
use secemb_tensor::{ops, Matrix};

/// GeLU layer (tanh approximation, as in GPT-2). It records its input.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gelu;

impl Params for Gelu {}

impl Module for Gelu {
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
        tape.record(input);
        ops::gelu(input)
    }

    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, _grads: &mut [Matrix]) -> Matrix {
        grad_output.hadamard(&ops::gelu_grad(&tape.pop()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_grad() {
        let x = Matrix::from_vec(1, 5, vec![-2.0, -0.5, 0.1, 0.9, 2.5]);
        let mut tape = Tape::training();
        Gelu.forward(&x, &mut tape);
        let dx = Gelu.backward(&mut tape, &Matrix::full(1, 5, 1.0), &mut []);
        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((ops::gelu(&xp).sum() - ops::gelu(&xm).sum()) / (2.0 * h as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 5e-2,
                "i={i}: {} vs {fd}",
                dx.as_slice()[i]
            );
        }
    }
}
