//! Trainable parameters with inline gradient and optimizer state.

use secemb_tensor::Matrix;

/// A trainable tensor: value, accumulated gradient, and optimizer moments.
///
/// The moment buffers live inside the parameter so that optimizers can
/// stay stateless and parameter traversal order never needs to be stable
/// across steps. Only the value is allocated up front: the gradient
/// appears when training first accumulates into it ([`Param::grad_mut`]),
/// the moments when an optimizer first steps it, so a parameter that is
/// only served holds its weights and nothing else.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`), once training has
    /// touched it.
    pub(crate) grad: Option<Matrix>,
    /// First moment (momentum SGD, Adam), once an optimizer has stepped
    /// a gradient.
    pub(crate) m: Option<Matrix>,
    /// Second moment (Adam).
    pub(crate) v: Option<Matrix>,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Matrix) -> Self {
        Param {
            value,
            grad: None,
            m: None,
            v: None,
        }
    }

    /// The accumulated gradient, or `None` if training never touched it
    /// (which an optimizer treats as a zero gradient).
    pub fn grad(&self) -> Option<&Matrix> {
        self.grad.as_ref()
    }

    /// The accumulated gradient, allocated as zeros of the value's shape
    /// on first use.
    pub fn grad_mut(&mut self) -> &mut Matrix {
        let (r, c) = self.value.shape();
        self.grad.get_or_insert_with(|| Matrix::zeros(r, c))
    }

    /// Resets the accumulated gradient to zero (an unallocated gradient
    /// stays unallocated).
    pub fn zero_grad(&mut self) {
        if let Some(grad) = &mut self.grad {
            grad.as_mut_slice().fill(0.0);
        }
    }

    /// Frees the gradient and the optimizer moments, keeping the value —
    /// for a parameter handed from training to serving. Training it again
    /// starts from fresh (zero) moments.
    pub fn release_training_state(&mut self) {
        self.grad = None;
        self.m = None;
        self.v = None;
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Accumulates `delta` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate_grad(&mut self, delta: &Matrix) {
        assert_eq!(self.value.shape(), delta.shape(), "accumulate_grad shape");
        for (g, &d) in (self.grad_mut().as_mut_slice().iter_mut()).zip(delta.as_slice()) {
            *g += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Matrix::full(2, 2, 1.0));
        p.accumulate_grad(&Matrix::full(2, 2, 3.0));
        p.accumulate_grad(&Matrix::full(2, 2, 2.0));
        assert_eq!(p.grad().unwrap().as_slice(), &[5.0; 4]);
        p.zero_grad();
        assert_eq!(p.grad().unwrap().as_slice(), &[0.0; 4]);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn training_state_is_allocated_on_first_use_and_released() {
        let mut p = Param::new(Matrix::full(2, 3, 1.0));
        assert!(p.grad().is_none());
        p.zero_grad();
        assert!(p.grad().is_none(), "zero_grad allocates nothing");
        assert_eq!(p.grad_mut().shape(), (2, 3));
        assert_eq!(p.grad().unwrap().as_slice(), &[0.0; 6]);
        p.release_training_state();
        assert!(p.grad().is_none() && p.m.is_none() && p.v.is_none());
        assert_eq!(p.value.as_slice(), &[1.0; 6]);
    }

    #[test]
    #[should_panic(expected = "accumulate_grad shape")]
    fn shape_mismatch_panics() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        p.accumulate_grad(&Matrix::zeros(1, 2));
    }
}
