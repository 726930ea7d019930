//! Neural-network layers with explicit forward/backward passes.
//!
//! Fills the role PyTorch plays in the paper's artifact: enough trainable
//! machinery to express (a) the DHE decoder MLP, (b) DLRM's bottom/top MLPs,
//! and (c) a GPT-2-style transformer block — each with hand-derived backward
//! passes verified against finite differences in the test suite.
//!
//! A layer holds its weights and nothing else, so a copy of a trained
//! layer is a serving copy:
//!
//! - **One forward per layer**, [`Module::forward`]`(&self, x, tape)`.
//!   Whatever the matching [`Module::backward`] needs it records on a
//!   caller-owned [`Tape`], a LIFO stack of matrices; serving runs the
//!   same code on [`Tape::inference`], which records and allocates
//!   nothing. The branchless ReLU of the secure serving path is the
//!   training ReLU too.
//! - **Gradients belong to the trainer.** A [`Param`] is its value.
//!   [`Grads`] holds one gradient per parameter, in
//!   [`Params::visit_params`] order; each layer's backward accumulates
//!   into its own slice of it.
//! - **Optimizer state belongs to the optimizer.** [`Sgd`]'s momentum and
//!   [`Adam`]'s moments are indexed like the gradients, so a new
//!   optimizer starts from zero moments whatever model it is given.
//!
//! The architectures in the paper are fixed, so there is no general
//! autograd graph: explicit backward code keeps every gradient auditable.
//!
//! # Example: two-layer MLP on a toy regression
//!
//! ```
//! use secemb_nn::{mse_loss, Grads, Mlp, Module, Optimizer, Sgd, Tape};
//! use secemb_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = Mlp::new(2, &[8, 1], &mut rng);
//! let x = Matrix::from_vec(4, 2, vec![0.,0., 0.,1., 1.,0., 1.,1.]);
//! let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
//! let mut opt = Sgd::new(0.1);
//! for _ in 0..50 {
//!     let mut tape = Tape::training();
//!     let pred = net.forward(&x, &mut tape);
//!     let (loss, grad) = mse_loss(&pred, &y);
//!     let mut grads = Grads::zeros(&mut net);
//!     net.backward(&mut tape, &grad, &mut grads);
//!     opt.step(&mut net, &grads);
//!     let _ = loss;
//! }
//! // Serving: the same forward, recording nothing.
//! assert_eq!(net.forward(&x, &mut Tape::inference()).shape(), (4, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activations;
mod attention;
mod checkpoint;
mod embedding;
mod layer_norm;
mod linear;
mod loss;
mod mlp;
mod module;
mod optim;
mod param;
mod tape;

pub use activations::Gelu;
pub use attention::CausalSelfAttention;
pub use checkpoint::{Checkpoint, CheckpointError};
pub use embedding::Embedding;
pub use layer_norm::LayerNorm;
pub use linear::Linear;
pub use loss::{bce_with_logits_loss, cross_entropy_loss, mse_loss, perplexity};
pub use mlp::Mlp;
pub use module::{count_params, Module, Params};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{Grads, Param};
pub use tape::Tape;
