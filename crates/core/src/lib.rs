//! Secure embedding generation — the paper's primary contribution.
//!
//! ML models turn categorical features (DLRM sparse features, LLM tokens)
//! into vectors via embedding-table lookups, and the lookup *index is the
//! secret*: memory access patterns leak it through cache, page-fault and
//! DRAM side channels (§III). This crate implements every embedding
//! generation method the paper studies, behind one trait:
//!
//! | Generator | Kind | Protection |
//! |---|---|---|
//! | [`IndexLookup`] | storage | none (the vulnerable baseline) |
//! | [`LinearScan`] | storage | touches every row per query |
//! | [`OramTable`] (Path / Circuit / look-ahead) | storage | tree ORAM (via `secemb-oram`); the look-ahead table adds an oblivious write path |
//! | [`Dhe`] | compute | access pattern is input-independent by construction |
//!
//! plus the paper's **hybrid machinery** ([`hybrid`]): offline profiling
//! that finds the table-size threshold where DHE overtakes linear scan
//! (Algorithm 2), and the online per-feature allocation rule
//! (Algorithm 3). Model memory footprints (Table VI) are computed by
//! [`footprint`].
//!
//! # Quick start
//!
//! ```
//! use secemb::{Dhe, DheConfig, EmbeddingGenerator, LinearScan};
//! use rand::{rngs::StdRng, SeedableRng};
//! use secemb_tensor::Matrix;
//!
//! // A trained 100-row, dim-8 table, served securely by linear scan:
//! let table = Matrix::from_fn(100, 8, |r, c| (r * 8 + c) as f32);
//! let mut scan = LinearScan::new(table);
//! let emb = scan.generate_batch(&[42, 7]);
//! assert_eq!(emb.row(0)[0], 42.0 * 8.0);
//!
//! // Or computed on the fly by DHE (no table at all):
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut dhe = Dhe::new(DheConfig::new(8, 64, vec![32, 16]), &mut rng);
//! assert_eq!(dhe.generate_batch(&[42, 7]).shape(), (2, 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dhe;
pub mod footprint;
mod generator;
mod hash;
pub mod hybrid;
mod lookup;
mod oram_table;
mod scan_table;
pub mod security;
mod spec;
pub mod stats;

pub use dhe::{Dhe, DheConfig};
pub use generator::{EmbeddingGenerator, Technique};
pub use hash::UniversalHashFamily;
pub use lookup::IndexLookup;
pub use oram_table::OramTable;
pub use scan_table::LinearScan;
pub use spec::{
    measure_cost, median_ns, probe_indices, CostEstimate, GeneratorSpec, SpecParseError, Weights,
};
