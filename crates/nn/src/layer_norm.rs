//! Per-row layer normalization.

use crate::{Module, Param, Params, Tape};
use secemb_tensor::Matrix;

/// Per-row layer normalization with learnable scale and shift.
///
/// Its forward records the input and each row's `(mean, 1/std)` as a
/// `rows × 2` matrix.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer with `gamma = 1`, `beta = 0`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::new(Matrix::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Normalized feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }
}

impl Params for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

impl Module for LayerNorm {
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
        let (out, stats) = secemb_tensor::ops::layer_norm_rows(
            input,
            self.gamma.value.row(0),
            self.beta.value.row(0),
            self.eps,
        );
        if tape.is_recording() {
            tape.record(input);
            let stats = stats
                .into_iter()
                .flat_map(|(mean, inv_std)| [mean, inv_std]);
            tape.push(Matrix::from_vec(input.rows(), 2, stats.collect()));
        }
        out
    }

    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let stats = tape.pop();
        let input = tape.pop();
        let d = self.dim();
        let n = d as f32;
        let mut dx = Matrix::zeros(grad_output.rows(), d);
        let mut dgamma = vec![0.0f32; d];
        let mut dbeta = vec![0.0f32; d];
        for r in 0..grad_output.rows() {
            let (mean, inv_std) = (stats.get(r, 0), stats.get(r, 1));
            let x = input.row(r);
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
        grads[0] += &Matrix::from_vec(1, d, dgamma);
        grads[1] += &Matrix::from_vec(1, d, dbeta);
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grads;

    #[test]
    fn layernorm_gradient_check() {
        let mut ln = LayerNorm::new(4);
        // Non-trivial gamma/beta so their gradients are exercised.
        ln.gamma.value = Matrix::from_vec(1, 4, vec![0.5, 1.5, -1.0, 2.0]);
        ln.beta.value = Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.0]);
        let x = Matrix::from_vec(2, 4, vec![0.5, -1.0, 2.0, 0.3, 1.1, 0.0, -0.7, 0.9]);
        let mut tape = Tape::training();
        ln.forward(&x, &mut tape);
        let mut grads = Grads::zeros(&mut ln);
        let dx = ln.backward(&mut tape, &Matrix::full(2, 4, 1.0), &mut grads);

        let objective = |ln: &LayerNorm, x: &Matrix| ln.forward(x, &mut Tape::inference()).sum();
        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((objective(&ln, &xp) - objective(&ln, &xm)) / (2.0 * h as f64)) as f32;
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
        let mut tape = Tape::training();
        ln.forward(&x, &mut tape);
        let mut grads = Grads::zeros(&mut ln);
        ln.backward(&mut tape, &Matrix::full(1, 3, 1.0), &mut grads);
        // dbeta = sum of dy = 1 each.
        assert_eq!(grads[1].as_slice(), &[1.0, 1.0, 1.0]);
        // dgamma = dy * xhat; xhat sums to ~0.
        let s: f32 = grads[0].as_slice().iter().sum();
        assert!(s.abs() < 1e-4);
    }
}
