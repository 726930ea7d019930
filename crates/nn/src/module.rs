//! The [`Params`] and [`Module`] traits.

use crate::{Param, Tape};
use secemb_tensor::Matrix;

/// Something with trainable parameters: what [`crate::Grads`],
/// optimizers and checkpoints walk.
pub trait Params {
    /// Visits every trainable parameter (mutably), always in the same
    /// order — the order gradients, optimizer state and checkpoints are
    /// indexed by.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }
}

/// A differentiable layer over matrices, holding its weights only.
///
/// `forward` records on the caller's [`Tape`] whatever the matching
/// `backward` needs; `backward` pops it, accumulates the parameter
/// gradients into `grads` (this layer's slice of a [`crate::Grads`], in
/// visit order), and returns the gradient for the input. Serving runs
/// the same `forward` on [`Tape::inference`].
pub trait Module: Params {
    /// Computes the layer output for `input`, recording what backward
    /// needs on `tape`.
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix;

    /// Back-propagates `grad_output`, returning the gradient for the input.
    ///
    /// # Panics
    ///
    /// Panics if `tape` does not end with this layer's forward records.
    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix;
}

/// Total number of scalar parameters in a model.
pub fn count_params(model: &mut dyn Params) -> usize {
    let mut n = 0;
    model.visit_params(&mut |p| n += p.len());
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scale {
        w: Param,
    }

    impl Params for Scale {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
    }

    impl Module for Scale {
        fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
            tape.record(input);
            input.scale(self.w.value.get(0, 0))
        }
        fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix {
            let x = tape.pop();
            grads[0] += &Matrix::full(1, 1, grad_output.hadamard(&x).sum() as f32);
            grad_output.scale(self.w.value.get(0, 0))
        }
    }

    #[test]
    fn trait_machinery() {
        let mut s = Scale {
            w: Param::new(Matrix::full(1, 1, 3.0)),
        };
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let mut tape = Tape::training();
        let y = s.forward(&x, &mut tape);
        assert_eq!(y.as_slice(), &[3.0, 6.0]);
        let mut grads = crate::Grads::zeros(&mut s);
        let dx = s.backward(&mut tape, &Matrix::full(1, 2, 1.0), &mut grads);
        assert_eq!(dx.as_slice(), &[3.0, 3.0]);
        assert_eq!(grads[0].get(0, 0), 3.0); // 1*1 + 1*2
        assert!(tape.is_empty());
        assert_eq!(count_params(&mut s), 1);
    }
}
