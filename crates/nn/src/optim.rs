//! Optimizers.

use crate::{Module, Param};
use secemb_tensor::Matrix;

/// An optimization algorithm that updates a module's parameters in place
/// from their accumulated gradients.
pub trait Optimizer {
    /// Applies one update step to every parameter of `module`.
    fn step(&mut self, module: &mut dyn Module);
}

/// Stochastic gradient descent with optional momentum.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0 }
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, module: &mut dyn Module) {
        let lr = self.lr;
        let mu = self.momentum;
        module.visit_params(&mut |p: &mut Param| {
            // Skipping an untouched gradient is exact: it is zero, so is
            // its momentum, and so is the update.
            let Some(grad) = &p.grad else { return };
            if mu == 0.0 {
                for (w, &g) in p.value.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                    *w -= lr * g;
                }
            } else {
                let (r, c) = p.value.shape();
                let m = p.m.get_or_insert_with(|| Matrix::zeros(r, c));
                for ((w, &g), m) in p
                    .value
                    .as_mut_slice()
                    .iter_mut()
                    .zip(grad.as_slice())
                    .zip(m.as_mut_slice().iter_mut())
                {
                    *m = mu * *m + g;
                    *w -= lr * *m;
                }
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
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        module.visit_params(&mut |p: &mut Param| {
            // Skipping an untouched gradient is exact: its moments are
            // zero, so they stay zero and the update is zero.
            let Some(grad) = &p.grad else { return };
            let (r, c) = p.value.shape();
            let m = p.m.get_or_insert_with(|| Matrix::zeros(r, c));
            let v = p.v.get_or_insert_with(|| Matrix::zeros(r, c));
            for (((w, &g), m), v) in p
                .value
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(m.as_mut_slice().iter_mut())
                .zip(v.as_mut_slice().iter_mut())
            {
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
    use crate::{mse_loss, Linear, Module};
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
            let pred = net.forward(&x);
            let (loss, grad) = mse_loss(&pred, &y);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net);
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

    impl Module for Bare {
        fn forward(&mut self, input: &Matrix) -> Matrix {
            input.clone()
        }
        fn backward(&mut self, grad_output: &Matrix) -> Matrix {
            grad_output.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0);
        }
    }

    #[test]
    fn lazy_training_state_steps_bit_identically_to_eager() {
        let start = Matrix::from_vec(2, 3, vec![0.5, -1.25, 2.0, 0.0, -0.0, 3.5]);
        let grad_at = |step: usize| {
            Matrix::from_fn(2, 3, |r, c| ((step * 5 + r * 3 + c) % 7) as f32 * 0.3 - 0.9)
        };
        let optimizers: [fn() -> Box<dyn Optimizer>; 3] = [
            || Box::new(Adam::new(0.05)),
            || Box::new(Sgd::new(0.1)),
            || Box::new(Sgd::with_momentum(0.1, 0.9)),
        ];
        for (o, make) in optimizers.iter().enumerate() {
            for first in [0, 1, 4] {
                // `eager` carries explicit zero gradients from step 0, as
                // every parameter once did; `lazy` has none before `first`.
                let mut eager = Bare(Param::new(start.clone()));
                let mut lazy = Bare(Param::new(start.clone()));
                eager.0.grad_mut();
                let (mut eager_opt, mut lazy_opt) = (make(), make());
                for step in 0..8 {
                    eager.zero_grad();
                    lazy.zero_grad();
                    if step >= first {
                        eager.0.accumulate_grad(&grad_at(step));
                        lazy.0.accumulate_grad(&grad_at(step));
                    }
                    eager_opt.step(&mut eager);
                    lazy_opt.step(&mut lazy);
                    assert_eq!(lazy.0.grad().is_some(), step >= first);
                }
                let bits = |p: &Param| {
                    p.value
                        .as_slice()
                        .iter()
                        .map(|w| w.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(&lazy.0),
                    bits(&eager.0),
                    "optimizer {o}, first gradient at step {first}"
                );
                assert_ne!(
                    bits(&lazy.0),
                    bits(&Param::new(start.clone())),
                    "optimizer {o} stepped"
                );
            }
        }
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step with grad g, update ≈ lr * sign(g).
        let mut l = Linear::from_parts(Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let x = Matrix::from_vec(1, 1, vec![1.0]);
        let y = Matrix::from_vec(1, 1, vec![10.0]);
        let pred = l.forward(&x);
        let (_, grad) = mse_loss(&pred, &y);
        l.backward(&grad);
        let mut adam = Adam::new(0.01);
        adam.step(&mut l);
        // grad is negative (pred < target), so weight should increase by ~lr.
        let w = l.weight().value.get(0, 0);
        assert!((w - 0.01).abs() < 1e-4, "w = {w}");
    }
}
