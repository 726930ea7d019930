//! A GPT-2-style decoder-only language model with pluggable secure token
//! embedding.
//!
//! Mirrors the paper's LLM case study (§IV-B2, §IV-D, §VI-D):
//!
//! - [`Gpt`] — the *trainable* transformer (learned positional embeddings,
//!   pre-norm blocks, GeLU feed-forward). The token embedding is either a
//!   table (with the weight-tied LM head GPT-2 uses) or a DHE (with an
//!   untied head, since no table exists to tie to). Fig. 14's fine-tuning
//!   comparison trains both.
//! - [`GptServing`] — the serving path, borrowing the trained weights, with an explicit
//!   **prefill / decode split and a KV cache**. The token embedder is a
//!   boxed [`secemb::EmbeddingGenerator`] — [`Gpt::embedder`] hands the
//!   model's weights (its trained DHE, or the token table materialized
//!   from it) to [`secemb::Technique::build`]; greedy sampling uses the
//!   oblivious argmax, so end-to-end generation has no secret-dependent
//!   access outside the embedder itself (§V-C).
//! - The paper's LLM hybrid (§IV-D): DHE for (large-batch) prefill and
//!   Circuit ORAM for (batch-1) decode, both derived from one trained
//!   model, via [`GptServing::set_embedder`] or, per call from the public
//!   batch size, [`EmbedderPolicy`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod model;
mod policy;
mod serve;

pub use blocks::{Block, FeedForward};
pub use model::{Gpt, GptConfig, TokenEmbeddingKind};
pub use policy::EmbedderPolicy;
pub use serve::{GptServing, KvCache};
