//! A ReLU multi-layer perceptron.

use crate::{Linear, Module, Param, Params, Tape};
use rand::Rng;
use secemb_tensor::{ops, Matrix};

/// A multi-layer perceptron: `Linear → ReLU → … → Linear` (no activation
/// after the last layer).
///
/// The ReLU is the branchless `secemb_obliv::ct_relu` kernel, applied in
/// place, so the one forward is the secure serving path and the training
/// path alike. It equals `max(x, 0)` up to the sign of zero.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP mapping `input` features through `widths` (the last
    /// width is the output size).
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty.
    pub fn new(input: usize, widths: &[usize], rng: &mut impl Rng) -> Self {
        assert!(!widths.is_empty(), "Mlp: need at least one layer");
        let mut layers = Vec::with_capacity(widths.len());
        let mut prev = input;
        for &w in widths {
            layers.push(Linear::new(prev, w, rng));
            prev = w;
        }
        Mlp { layers }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.layers.last().unwrap().out_features()
    }

    /// Scalar parameters across all layers.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Parameter tensors (a weight and a bias per layer): the length of
    /// this MLP's slice of a [`crate::Grads`].
    pub fn param_tensors(&self) -> usize {
        2 * self.layers.len()
    }
}

impl Params for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

impl Module for Mlp {
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
        let mut x = self.layers[0].forward(input, tape);
        for layer in &self.layers[1..] {
            secemb_obliv::ct_relu_slice(x.as_mut_slice());
            x = layer.forward(&x, tape);
        }
        x
    }

    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let mut g = grad_output.clone();
        let layers = self.layers.iter().zip(grads.chunks_exact_mut(2));
        for (i, (layer, grads)) in layers.enumerate().rev() {
            // A hidden layer's recorded input is the ReLU's output, which
            // is positive exactly where the ReLU's input was.
            let mask = (i > 0).then(|| ops::relu_grad_mask(tape.last()));
            g = layer.backward(tape, &g, grads);
            if let Some(mask) = mask {
                g = g.hadamard(&mask);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count_params, Grads};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_records_nothing_for_inference_and_matches_training() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(4, &[8, 8, 2], &mut rng);
        let x = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.4);
        let mut tape = Tape::training();
        let trained = mlp.forward(&x, &mut tape);
        assert_eq!(tape.pop_many(3).len(), 3, "one record per layer");
        assert!(tape.is_empty());
        let mut inference = Tape::inference();
        assert_eq!(trained, mlp.forward(&x, &mut inference));
        assert!(inference.is_empty());
        assert_eq!(mlp.in_features(), 4);
        assert_eq!(mlp.out_features(), 2);
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(3, &[6, 1], &mut rng);
        let x = Matrix::from_fn(2, 3, |r, c| ((r * 3 + c) as f32 * 0.3).cos());
        let mut tape = Tape::training();
        mlp.forward(&x, &mut tape);
        let mut grads = Grads::zeros(&mut mlp);
        let dx = mlp.backward(&mut tape, &Matrix::full(2, 1, 1.0), &mut grads);
        assert!(tape.is_empty());
        let apply = |x: &Matrix| mlp.forward(x, &mut Tape::inference()).sum();
        let h = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((apply(&xp) - apply(&xm)) / (2.0 * h as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 2e-2,
                "dx[{i}] {} vs {fd}",
                dx.as_slice()[i]
            );
        }
        assert_eq!(grads.len(), mlp.param_tensors());
        assert_eq!(count_params(&mut mlp), mlp.param_count());
    }

    #[test]
    fn relu_masks_the_gradient_where_its_input_was_not_positive() {
        // Identity first layer with a bias that pushes two of three units
        // below zero: only the positive unit passes gradient back.
        let first = Linear::from_parts(
            Matrix::eye(3),
            Matrix::from_vec(1, 3, vec![-5.0, 0.5, -5.0]),
        );
        let second = Linear::from_parts(Matrix::full(1, 3, 1.0), Matrix::zeros(1, 1));
        let mut mlp = Mlp {
            layers: vec![first, second],
        };
        let x = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        let mut tape = Tape::training();
        assert_eq!(mlp.forward(&x, &mut tape).as_slice(), &[1.5]);
        let mut grads = Grads::zeros(&mut mlp);
        let dx = mlp.backward(&mut tape, &Matrix::full(1, 1, 1.0), &mut grads);
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn single_layer_is_linear() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(2, &[3], &mut rng);
        let x = Matrix::from_vec(1, 2, vec![-5.0, -6.0]);
        // No ReLU on the only layer: negatives pass through.
        let y = mlp.forward(&x, &mut Tape::inference());
        assert_eq!(y.shape(), (1, 3));
        assert_eq!(y, mlp.layers[0].forward(&x, &mut Tape::inference()));
    }
}
