//! A Deep Learning Recommendation Model (DLRM) with pluggable secure
//! embedding generation.
//!
//! The architecture follows Naumov et al. (Fig. 1a of the paper): a bottom
//! MLP for dense features, one embedding per sparse feature, an all-pairs
//! dot-product [`DotInteraction`] of the resulting vectors, and a top MLP
//! producing a click-through logit.
//!
//! Two layers of functionality live here:
//!
//! - [`Dlrm`] — the *trainable* model. Sparse features can be embedding
//!   tables or DHE stacks ([`SparseLayer`]); everything trains end-to-end
//!   with BCE, which is how the Table V accuracy-parity experiment runs.
//! - [`SecureDlrm`] — the *serving* model: frozen MLP weights with
//!   branchless ReLU, plus one boxed [`secemb::EmbeddingGenerator`] per
//!   sparse feature, built by [`secemb::Technique::build`] from the
//!   technique Algorithm 3 chose (linear scan, an ORAM, DHE, or the
//!   non-secure lookup baseline) — the model decides only whether a
//!   feature's weights are its trained DHE or a table materialized from
//!   it. [`colocate`] adds the multi-model contention harness behind
//!   Figs. 8, 9 and 13, its workers built the same way.
//! - [`ProtectedDlrm`] — *protected training*: sparse tables sealed in a
//!   look-ahead ORAM, with gradient scatter routed through the same
//!   oblivious Circuit ORAM accesses as the forward lookups ([`training`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colocate;
mod interaction;
pub mod metrics;
mod model;
mod secure;
pub mod training;

pub use interaction::DotInteraction;
pub use model::{Dlrm, EmbeddingKind, SparseLayer};
pub use secure::SecureDlrm;
pub use training::{ProtectedDlrm, ProtectedEmbedding};
