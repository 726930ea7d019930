//! Fully-connected layer.

use crate::{Module, Param, Params, Tape};
use rand::Rng;
use secemb_tensor::{Matrix, XavierInit};

/// An affine layer `y = x·Wᵀ + b` with `W: out × in`.
///
/// The `out × in` weight layout pairs with
/// [`Matrix::matmul_transpose_b`] so the forward pass streams rows of both
/// operands.
#[derive(Clone, Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Param::new(XavierInit.sample(out_features, in_features, rng)),
            bias: Param::new(Matrix::zeros(1, out_features)),
        }
    }

    /// Creates a layer from explicit weights (`out × in`) and bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias` columns differ from weight rows.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(
            bias.cols(),
            weight.rows(),
            "from_parts: bias/weight mismatch"
        );
        assert_eq!(bias.rows(), 1, "from_parts: bias must be 1 x out");
        Linear {
            weight: Param::new(weight),
            bias: Param::new(bias),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.cols()
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.rows()
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Scalar parameters (weights and bias).
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

impl Params for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

impl Module for Linear {
    fn forward(&self, input: &Matrix, tape: &mut Tape) -> Matrix {
        tape.record(input);
        let mut out = input.matmul_transpose_b(&self.weight.value);
        out.add_row_broadcast(self.bias.value.row(0));
        out
    }

    fn backward(&self, tape: &mut Tape, grad_output: &Matrix, grads: &mut [Matrix]) -> Matrix {
        let input = tape.pop();
        // dW = grad_outᵀ · x   (out × in)
        grads[0] += &grad_output.transpose_a_matmul(&input);
        // db = column sums of grad_out
        grads[1] += &Matrix::from_vec(1, grad_output.cols(), grad_output.column_sums());
        // dx = grad_out · W    (batch × in)
        grad_output.matmul(&self.weight.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grads;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(l: &Linear, x: &Matrix) -> Matrix {
        l.forward(x, &mut Tape::inference())
    }

    #[test]
    fn forward_matches_manual() {
        let w = Matrix::from_vec(2, 3, vec![1., 0., 0., 0., 1., 0.]);
        let b = Matrix::from_vec(1, 2, vec![10., 20.]);
        let l = Linear::from_parts(w, b);
        let x = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        assert_eq!(run(&l, &x).as_slice(), &[11., 22.]);
        assert_eq!(l.in_features(), 3);
        assert_eq!(l.out_features(), 2);
    }

    #[test]
    fn gradient_check() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| (r as f32 - c as f32) * 0.3);
        // Scalar objective: sum of outputs.
        let mut tape = Tape::training();
        let y = l.forward(&x, &mut tape);
        let ones = Matrix::full(y.rows(), y.cols(), 1.0);
        let mut grads = Grads::zeros(&mut l);
        let dx = l.backward(&mut tape, &ones, &mut grads);
        assert!(tape.is_empty());

        let h = 1e-3f32;
        // Check dX by finite differences.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let fd = ((run(&l, &xp).sum() - run(&l, &xm).sum()) / (2.0 * h as f64)) as f32;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 1e-2,
                "dx[{i}] {} vs {fd}",
                dx.as_slice()[i]
            );
        }
        // Check dW on a few entries.
        let base_w = l.weight.value.clone();
        for i in [0usize, 5, 11] {
            let mut wp = base_w.clone();
            wp.as_mut_slice()[i] += h;
            let mut wm = base_w.clone();
            wm.as_mut_slice()[i] -= h;
            let lp = Linear::from_parts(wp, l.bias.value.clone());
            let lm = Linear::from_parts(wm, l.bias.value.clone());
            let fd = ((run(&lp, &x).sum() - run(&lm, &x).sum()) / (2.0 * h as f64)) as f32;
            assert!(
                (grads[0].as_slice()[i] - fd).abs() < 1e-2,
                "dW[{i}] {} vs {fd}",
                grads[0].as_slice()[i]
            );
        }
        // Bias grad is the batch size for a sum objective.
        assert!(grads[1].as_slice().iter().all(|&g| (g - 2.0).abs() < 1e-5));
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(2, 2, &mut rng);
        let mut grads = [Matrix::zeros(2, 2), Matrix::zeros(1, 2)];
        l.backward(&mut Tape::training(), &Matrix::zeros(1, 2), &mut grads);
    }
}
