//! Tree-based Oblivious RAM: Path ORAM and Circuit ORAM.
//!
//! A from-scratch reimplementation of the two software ORAM controllers the
//! paper adapts from ZeroTrace (§IV-A2, §V-A1):
//!
//! - [`PathOram`] — Stefanov et al.'s scheme: on every access the full path
//!   to the block's (randomly remapped) leaf is pulled into the stash, the
//!   block is served from the stash, and the path is rebuilt greedily from
//!   the stash. The stash-heavy write-back is why the paper measures Path
//!   ORAM as the slower controller.
//! - [`CircuitOram`] — Wang et al.'s scheme: the access pulls *only* the
//!   requested block into the stash and runs two metadata-prepared,
//!   single-pass evictions along deterministic reverse-lexicographic paths.
//!   It needs a much smaller stash (10 vs 150 here, the paper's 15×) and
//!   far fewer oblivious stash iterations.
//!
//! Both use a **recursive position map** (each level packs
//! [`OramConfig::posmap_fanout`] leaf labels per block, the paper's 16×
//! reduction) until the map fits under the recursion threshold, where it
//! falls back to an obliviously-scanned flat array.
//!
//! Every bucket, stash, and position-map touch is reported to
//! `secemb-trace`, so the obliviousness of the controllers is *tested*, not
//! assumed: the structural access pattern is input-independent, and fetched
//! paths are uniformly distributed regardless of the request sequence.
//!
//! Storage is a flat arena (an id array, a leaf array and one contiguous
//! payload array) per tree and per stash, plus fixed scratch per
//! controller. Controllers mutate buckets in place through borrowed views,
//! so a steady-state access performs no heap allocation
//! ([`Oram::access_into`]).
//!
//! # Example
//!
//! ```
//! use secemb_oram::{CircuitOram, Oram, OramConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let rng = StdRng::seed_from_u64(1);
//! let blocks: Vec<Vec<u32>> = (0..64).map(|i| vec![i as u32; 8]).collect();
//! let mut oram = CircuitOram::new(&blocks, OramConfig::circuit(8), rng);
//! assert_eq!(oram.read(17), vec![17u32; 8]);
//! oram.write(17, &[99; 8]);
//! assert_eq!(oram.read(17), vec![99u32; 8]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod circuit;
mod config;
mod path;
mod posmap;
mod setup;
mod stash;
#[cfg(test)]
mod stash_tail;
mod stats;
mod tree;

pub use circuit::CircuitOram;
pub use config::OramConfig;
pub use path::PathOram;
pub use stats::AccessStats;
pub use tree::{tree_buckets, tree_leaves};

/// Common interface of the ORAM controllers.
pub trait Oram {
    /// Reads block `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    fn read(&mut self, id: u64) -> Vec<u32> {
        self.access_mut(id, &mut |_| {})
    }

    /// Overwrites block `id` with `data`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `data` has the wrong length.
    fn write(&mut self, id: u64, data: &[u32]) {
        assert_eq!(
            data.len(),
            self.block_words(),
            "Oram::write: data length != block_words"
        );
        self.access_mut(id, &mut |d| d.copy_from_slice(data));
    }

    /// Reads block `id`, lets `mutate` edit it in place, and stores the
    /// result. Returns the block contents *after* mutation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    fn access_mut(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32])) -> Vec<u32> {
        let mut out = vec![0; self.block_words()];
        self.access_into(id, mutate, &mut out);
        out
    }

    /// The access primitive: reads block `id`, lets `mutate` edit it in
    /// place, stores the result, and copies the block contents *after*
    /// mutation into `out`. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `out.len() != block_words()`.
    fn access_into(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32]), out: &mut [u32]);

    /// Number of addressable blocks.
    fn len(&self) -> u64;

    /// Whether the ORAM holds zero blocks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Words (`u32`) per block.
    fn block_words(&self) -> usize;

    /// Cumulative access statistics.
    fn stats(&self) -> AccessStats;

    /// Current stash occupancy in blocks (0 for stash-less schemes).
    ///
    /// A whole-structure quantity sampled between accesses — safe to
    /// export as a gauge without leaking which block was requested.
    fn stash_occupancy(&self) -> usize {
        0
    }

    /// Resets the statistics counters.
    fn reset_stats(&mut self);

    /// Total bytes of memory this ORAM occupies (tree + stash + position
    /// map, including recursion), for the paper's footprint tables.
    fn memory_bytes(&self) -> u64;
}

/// The gradient-scatter payload arithmetic, run inside an access's
/// `mutate` callback: `data[i] += delta[i]` on `f32` bit patterns.
pub fn add_f32(data: &mut [u32], delta: &[f32]) {
    for (w, g) in data.iter_mut().zip(delta) {
        *w = (f32::from_bits(*w) + g).to_bits();
    }
}
