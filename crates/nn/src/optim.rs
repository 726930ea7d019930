//! Optimizers.

use crate::{Grads, Params};
use secemb_tensor::Matrix;

/// An optimization algorithm that updates a model's parameters in place
/// from a trainer's gradients. Whatever state it keeps (momentum,
/// moments) it owns, indexed like the [`Grads`].
pub trait Optimizer {
    /// Applies one update step to every parameter of `model`, `grads[i]`
    /// being the gradient of its `i`-th parameter in visit order.
    ///
    /// # Panics
    ///
    /// Panics if `grads` or the optimizer's state were shaped for
    /// another model.
    fn step(&mut self, model: &mut dyn Params, grads: &Grads);
}

/// Calls `update(i, value, grad)` for every parameter of `model`.
fn for_each_param(
    model: &mut dyn Params,
    grads: &Grads,
    mut update: impl FnMut(usize, &mut [f32], &[f32]),
) {
    let mut i = 0;
    model.visit_params(&mut |p| {
        let grad = grads.get(i).expect("fewer gradients than parameters");
        assert_eq!(p.value.shape(), grad.shape(), "gradient {i} shape");
        update(i, p.value.as_mut_slice(), grad.as_slice());
        i += 1;
    });
    assert_eq!(i, grads.len(), "more gradients than parameters");
}

/// Optimizer state shaped like `grads`, zeros on the first step.
fn state_for<'a>(state: &'a mut Vec<Matrix>, grads: &Grads) -> &'a mut [Matrix] {
    if state.is_empty() {
        *state = grads
            .iter()
            .map(|g| Matrix::zeros(g.rows(), g.cols()))
            .collect();
    }
    assert!(
        state.len() == grads.len()
            && state
                .iter()
                .zip(grads.iter())
                .all(|(s, g)| s.shape() == g.shape()),
        "optimizer state belongs to another model"
    );
    state
}

/// Stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Params, grads: &Grads) {
        let (lr, mu) = (self.lr, self.momentum);
        if mu == 0.0 {
            for_each_param(model, grads, |_, value, grad| {
                for (w, &g) in value.iter_mut().zip(grad) {
                    *w -= lr * g;
                }
            });
            return;
        }
        let velocity = state_for(&mut self.velocity, grads);
        for_each_param(model, grads, |i, value, grad| {
            for ((w, &g), m) in value.iter_mut().zip(grad).zip(velocity[i].as_mut_slice()) {
                *m = mu * *m + g;
                *w -= lr * *m;
            }
        });
    }
}

/// Adam with bias correction (the optimizer used for both the DLRM and LLM
/// training runs in the paper's artifact).
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Params, grads: &Grads) {
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (lr, eps) = (self.lr, self.eps);
        let m = state_for(&mut self.m, grads);
        let v = state_for(&mut self.v, grads);
        for_each_param(model, grads, |i, value, grad| {
            let moments = m[i].as_mut_slice().iter_mut().zip(v[i].as_mut_slice());
            for ((w, &g), (m, v)) in value.iter_mut().zip(grad).zip(moments) {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mse_loss, Linear, Module, Param, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fit(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Linear::new(1, 1, &mut rng);
        // Learn y = 3x + 1.
        let x = Matrix::from_vec(8, 1, (0..8).map(|i| i as f32 * 0.25).collect());
        let y = x.map(|v| 3.0 * v + 1.0);
        let mut last = f64::MAX;
        for _ in 0..steps {
            let mut tape = Tape::training();
            let pred = net.forward(&x, &mut tape);
            let (loss, grad) = mse_loss(&pred, &y);
            let mut grads = Grads::zeros(&mut net);
            net.backward(&mut tape, &grad, &mut grads);
            opt.step(&mut net, &grads);
            last = loss;
        }
        last
    }

    #[test]
    fn sgd_converges() {
        assert!(fit(&mut Sgd::new(0.1), 300) < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        assert!(fit(&mut Sgd::with_momentum(0.05, 0.9), 300) < 1e-3);
    }

    #[test]
    fn adam_converges() {
        assert!(fit(&mut Adam::new(0.05), 400) < 1e-3);
    }

    /// One bare parameter, stepped by an optimizer.
    struct Bare(Param);

    impl Params for Bare {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0);
        }
    }

    #[test]
    fn zero_gradients_from_fresh_state_leave_every_value_bit_identical() {
        // Signed zeros, subnormals and large magnitudes: a zero step must
        // not so much as flip a sign bit.
        let start = Matrix::from_vec(
            2,
            3,
            vec![0.5, -1.25, f32::MIN_POSITIVE / 4.0, 0.0, -0.0, 3.5e30],
        );
        let bits = |m: &Matrix| m.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let optimizers: [fn() -> Box<dyn Optimizer>; 3] = [
            || Box::new(Adam::new(0.05)),
            || Box::new(Sgd::new(0.1)),
            || Box::new(Sgd::with_momentum(0.1, 0.9)),
        ];
        for (o, make) in optimizers.iter().enumerate() {
            let mut bare = Bare(Param::new(start.clone()));
            let grads = Grads::zeros(&mut bare);
            let mut opt = make();
            for step in 0..3 {
                opt.step(&mut bare, &grads);
                assert_eq!(
                    bits(&bare.0.value),
                    bits(&start),
                    "optimizer {o}, step {step}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "optimizer state belongs to another model")]
    fn optimizer_state_is_tied_to_one_model() {
        let mut adam = Adam::new(0.1);
        let mut a = Bare(Param::new(Matrix::zeros(2, 2)));
        let mut b = Bare(Param::new(Matrix::zeros(3, 1)));
        let ga = Grads::zeros(&mut a);
        adam.step(&mut a, &ga);
        let gb = Grads::zeros(&mut b);
        adam.step(&mut b, &gb);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step with grad g, update ≈ lr * sign(g).
        let mut l = Linear::from_parts(Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let x = Matrix::from_vec(1, 1, vec![1.0]);
        let y = Matrix::from_vec(1, 1, vec![10.0]);
        let mut tape = Tape::training();
        let pred = l.forward(&x, &mut tape);
        let (_, grad) = mse_loss(&pred, &y);
        let mut grads = Grads::zeros(&mut l);
        l.backward(&mut tape, &grad, &mut grads);
        let mut adam = Adam::new(0.01);
        adam.step(&mut l, &grads);
        // grad is negative (pred < target), so weight should increase by ~lr.
        let w = l.weight().value.get(0, 0);
        assert!((w - 0.01).abs() < 1e-4, "w = {w}");
    }
}
