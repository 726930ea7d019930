//! A concrete ReLU MLP with both training and inference-only paths.

use crate::{Linear, Module, Param, Relu};
use rand::Rng;
use secemb_tensor::Matrix;

/// A multi-layer perceptron: `Linear → ReLU → … → Linear` (no activation
/// after the last layer).
///
/// Unlike [`crate::Sequential`], the layer types are concrete, which gives
/// an immutable [`Mlp::apply`] inference path (no caches) that the secure
/// serving code can call from multiple threads and combine with the
/// branchless `ct_relu` kernel.
#[derive(Clone, Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    relus: Vec<Relu>,
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
        let relus = vec![Relu::new(); layers.len() - 1];
        Mlp { layers, relus }
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

    /// A copy holding the weights only — no gradients, optimizer moments
    /// or forward caches — for serving a trained MLP.
    pub fn frozen(&self) -> Mlp {
        Mlp {
            layers: self.layers.iter().map(Linear::frozen).collect(),
            relus: vec![Relu::new(); self.relus.len()],
        }
    }

    /// Inference without caches, using the *branchless* constant-time ReLU
    /// (`secemb_obliv::ct_relu`) — the secure serving path.
    pub fn apply_secure(&self, x: &Matrix) -> Matrix {
        let mut x = x.clone();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.apply(&x);
            if i + 1 < n {
                secemb_obliv::ct_relu_slice(x.as_mut_slice());
            }
        }
        x
    }

    /// Inference without caches, standard (branching) ReLU.
    pub fn apply(&self, x: &Matrix) -> Matrix {
        let mut x = x.clone();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.apply(&x);
            if i + 1 < n {
                x = secemb_tensor::ops::relu(&x);
            }
        }
        x
    }
}

impl Module for Mlp {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        let n = self.layers.len();
        for i in 0..n {
            x = self.layers[i].forward(&x);
            if i + 1 < n {
                x = self.relus[i].forward(&x);
            }
        }
        x
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let n = self.layers.len();
        let mut g = grad_output.clone();
        for i in (0..n).rev() {
            if i + 1 < n {
                g = self.relus[i].backward(&g);
            }
            g = self.layers[i].backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Optimizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn apply_matches_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(4, &[8, 8, 2], &mut rng);
        let x = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.4);
        let trained_path = mlp.forward(&x);
        assert!(trained_path.allclose(&mlp.apply(&x), 1e-6));
        assert!(trained_path.allclose(&mlp.apply_secure(&x), 1e-6));
        assert_eq!(mlp.in_features(), 4);
        assert_eq!(mlp.out_features(), 2);
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(3, &[6, 1], &mut rng);
        let x = Matrix::from_fn(2, 3, |r, c| ((r * 3 + c) as f32 * 0.3).cos());
        mlp.forward(&x);
        let dx = mlp.backward(&Matrix::full(2, 1, 1.0));
        let h = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((mlp.apply(&xp).sum() - mlp.apply(&xm).sum()) / (2.0 * h as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 2e-2,
                "dx[{i}] {} vs {fd}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn frozen_copy_serves_the_same_weights_without_training_state() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(3, &[5, 2], &mut rng);
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.5 - 1.0);
        mlp.forward(&x);
        mlp.backward(&Matrix::full(2, 2, 1.0));
        crate::Adam::new(0.1).step(&mut mlp);
        let mut frozen = mlp.frozen();
        assert_eq!(frozen.apply_secure(&x), mlp.apply_secure(&x));
        assert_eq!(frozen.param_count(), crate::count_params(&mut mlp));
        frozen.visit_params(&mut |p| assert!(p.grad().is_none() && p.m.is_none()));
    }

    #[test]
    fn single_layer_is_linear() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(2, &[3], &mut rng);
        let x = Matrix::from_vec(1, 2, vec![-5.0, -6.0]);
        // No ReLU on the only layer: negatives pass through.
        let y = mlp.apply_secure(&x);
        assert_eq!(y.shape(), (1, 3));
    }
}
