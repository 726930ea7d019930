//! The [`Module`] trait: forward, backward, parameter traversal.

use crate::Param;
use secemb_tensor::Matrix;

/// A differentiable layer.
///
/// `forward` caches whatever the matching `backward` needs; `backward`
/// consumes the gradient w.r.t. the layer's output, accumulates parameter
/// gradients, and returns the gradient w.r.t. the layer's input. Calling
/// `backward` without a preceding `forward` on the same instance panics.
pub trait Module {
    /// Computes the layer output for `input`, caching state for backward.
    fn forward(&mut self, input: &Matrix) -> Matrix;

    /// Back-propagates `grad_output`, returning the gradient for the input.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Visits every trainable parameter (mutably).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Clears all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Total number of scalar parameters in a module.
pub fn count_params(module: &mut dyn Module) -> usize {
    let mut n = 0;
    module.visit_params(&mut |p| n += p.len());
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Scale {
        w: Param,
        cache: Option<Matrix>,
    }

    impl Module for Scale {
        fn forward(&mut self, input: &Matrix) -> Matrix {
            self.cache = Some(input.clone());
            input.scale(self.w.value.get(0, 0))
        }
        fn backward(&mut self, grad_output: &Matrix) -> Matrix {
            let x = self.cache.as_ref().expect("forward before backward");
            let dw = grad_output.hadamard(x).sum() as f32;
            self.w.accumulate_grad(&Matrix::full(1, 1, dw));
            grad_output.scale(self.w.value.get(0, 0))
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
    }

    #[test]
    fn trait_machinery() {
        let mut s = Scale {
            w: Param::new(Matrix::full(1, 1, 3.0)),
            cache: None,
        };
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let y = s.forward(&x);
        assert_eq!(y.as_slice(), &[3.0, 6.0]);
        let dx = s.backward(&Matrix::full(1, 2, 1.0));
        assert_eq!(dx.as_slice(), &[3.0, 3.0]);
        assert_eq!(s.w.grad().unwrap().get(0, 0), 3.0); // 1*1 + 1*2
        assert_eq!(count_params(&mut s), 1);
        s.zero_grad();
        assert_eq!(s.w.grad().unwrap().get(0, 0), 0.0);
    }
}
