//! Layer composition ([`Sequential`]) and [`LayerNorm`].

use crate::{Module, Param};
use secemb_tensor::Matrix;

/// A chain of modules applied in order.
///
/// ```
/// use secemb_nn::{Linear, Module, Relu, Sequential};
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut mlp = Sequential::new(vec![
///     Box::new(Linear::new(8, 16, &mut rng)),
///     Box::new(Relu::new()),
///     Box::new(Linear::new(16, 4, &mut rng)),
/// ]);
/// let x = secemb_tensor::Matrix::zeros(2, 8);
/// assert_eq!(mlp.forward(&x).shape(), (2, 4));
/// ```
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Composes `layers` in order.
    pub fn new(layers: Vec<Box<dyn Module>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Module for Sequential {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

/// Per-row layer normalization with learnable scale and shift.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    cache: Option<LnCache>,
}

#[derive(Clone, Debug)]
struct LnCache {
    input: Matrix,
    stats: Vec<(f32, f32)>, // (mean, inv_std) per row
}

impl LayerNorm {
    /// Creates a layer with `gamma = 1`, `beta = 0`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Normalized feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }

    /// Cache-free normalization (serving path).
    pub fn apply(&self, input: &Matrix) -> Matrix {
        secemb_tensor::ops::layer_norm_rows(
            input,
            self.gamma.value.row(0),
            self.beta.value.row(0),
            self.eps,
        )
        .0
    }
}

impl Module for LayerNorm {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let (out, stats) = secemb_tensor::ops::layer_norm_rows(
            input,
            self.gamma.value.row(0),
            self.beta.value.row(0),
            self.eps,
        );
        self.cache = Some(LnCache {
            input: input.clone(),
            stats,
        });
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let cache = self
            .cache
            .as_ref()
            .expect("LayerNorm::backward before forward");
        let d = self.dim();
        let n = d as f32;
        let mut dx = Matrix::zeros(grad_output.rows(), d);
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        for r in 0..grad_output.rows() {
            let (mean, inv_std) = cache.stats[r];
            let x = cache.input.row(r);
            let dy = grad_output.row(r);
            let gamma = self.gamma.value.row(0);
            // x̂ and the two row means needed by the closed-form gradient.
            let mut sum_dyg = 0.0f32;
            let mut sum_dyg_xhat = 0.0f32;
            let mut xhat = vec![0.0f32; d];
            for i in 0..d {
                xhat[i] = (x[i] - mean) * inv_std;
                let dyg = dy[i] * gamma[i];
                sum_dyg += dyg;
                sum_dyg_xhat += dyg * xhat[i];
                dgamma[i] += dy[i] * xhat[i];
                dbeta[i] += dy[i];
            }
            let m1 = sum_dyg / n;
            let m2 = sum_dyg_xhat / n;
            let out = dx.row_mut(r);
            for i in 0..d {
                let dyg = dy[i] * gamma[i];
                out[i] = inv_std * (dyg - m1 - xhat[i] * m2);
            }
        }
        self.gamma.accumulate_grad(&Matrix::from_vec(1, d, dgamma));
        self.beta.accumulate_grad(&Matrix::from_vec(1, d, dbeta));
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_composes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut s = Sequential::new(vec![
            Box::new(Linear::new(3, 5, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(5, 2, &mut rng)),
        ]);
        assert_eq!(s.len(), 3);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.1);
        let y = s.forward(&x);
        assert_eq!(y.shape(), (4, 2));
        let dx = s.backward(&Matrix::full(4, 2, 1.0));
        assert_eq!(dx.shape(), (4, 3));
        assert_eq!(crate::count_params(&mut s), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn layernorm_gradient_check() {
        let mut ln = LayerNorm::new(4);
        // Non-trivial gamma/beta so their gradients are exercised.
        ln.gamma.value = Matrix::from_vec(1, 4, vec![0.5, 1.5, -1.0, 2.0]);
        ln.beta.value = Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.0]);
        let x = Matrix::from_vec(2, 4, vec![0.5, -1.0, 2.0, 0.3, 1.1, 0.0, -0.7, 0.9]);
        ln.forward(&x);
        let dx = ln.backward(&Matrix::full(2, 4, 1.0));

        let objective = |ln: &mut LayerNorm, x: &Matrix| ln.forward(x).sum();
        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd =
                ((objective(&mut ln, &xp) - objective(&mut ln, &xm)) / (2.0 * h as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 2e-2,
                "dx[{i}] = {} vs fd {fd}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn layernorm_param_grads() {
        let mut ln = LayerNorm::new(3);
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 4.0]);
        ln.forward(&x);
        ln.backward(&Matrix::full(1, 3, 1.0));
        // dbeta = sum of dy = 1 each.
        assert_eq!(ln.beta.grad().unwrap().as_slice(), &[1.0, 1.0, 1.0]);
        // dgamma = dy * xhat; xhat sums to ~0.
        let s: f32 = ln.gamma.grad().unwrap().as_slice().iter().sum();
        assert!(s.abs() < 1e-4);
    }
}
