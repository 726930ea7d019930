//! Trainable parameters and the gradients a trainer keeps for them.

use crate::Params;
use secemb_tensor::Matrix;

/// A trainable tensor: its value, and nothing else.
///
/// Gradients live in a trainer's [`Grads`] and optimizer moments in the
/// optimizer, so a module that is served holds its weights and nothing
/// more, and a copy of it copies only those.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Matrix) -> Self {
        Param { value }
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// The gradients of a model's parameters, owned by whoever trains it:
/// one matrix per [`Param`], in [`Params::visit_params`] order.
///
/// Each layer's backward accumulates into its own slice of them (a
/// `Linear` takes two: weight, then bias), and an
/// [`crate::Optimizer`] reads them by the same index.
#[derive(Clone, Debug)]
pub struct Grads(Vec<Matrix>);

impl Grads {
    /// Zero gradients shaped like `model`'s parameters.
    pub fn zeros(model: &mut dyn Params) -> Self {
        let mut grads = Vec::new();
        model.visit_params(&mut |p| grads.push(Matrix::zeros(p.value.rows(), p.value.cols())));
        Grads(grads)
    }
}

impl std::ops::Deref for Grads {
    type Target = [Matrix];

    fn deref(&self) -> &[Matrix] {
        &self.0
    }
}

impl std::ops::DerefMut for Grads {
    fn deref_mut(&mut self) -> &mut [Matrix] {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grads_follow_visit_order_and_shapes() {
        let mut layer = Linear::new(3, 2, &mut StdRng::seed_from_u64(0));
        let grads = Grads::zeros(&mut layer);
        let shapes: Vec<_> = grads.iter().map(Matrix::shape).collect();
        assert_eq!(shapes, [(2, 3), (1, 2)]);
        assert!(grads.iter().all(|g| g.as_slice().iter().all(|&v| v == 0.0)));
        assert_eq!(Param::new(Matrix::zeros(2, 2)).len(), 4);
    }
}
