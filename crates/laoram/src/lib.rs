//! Look-ahead windows over Circuit ORAM: a window of reads, overwrites
//! and gradient accumulations over raw `u32` blocks.
//!
//! Served and trained `laoram:` tables do not use this crate: they are
//! `secemb::OramTable`s over the same Circuit ORAM, with the same write
//! path. The crate stays only for the repository benchmark's `laoram.*`
//! rows, which price [`LookAheadOram::process_window`] directly, until the
//! benchmark prices them through `secemb::OramTable` instead.
//!
//! Each op runs as one Circuit ORAM read-modify-write
//! ([`Oram::access_into`]), in window order, so:
//!
//! - reads, writes and gradient updates run the same access — only the
//!   untraced, constant-time payload arithmetic inside it differs;
//! - the trace is Circuit ORAM's, one access per op, whatever the indices
//!   and however many of them repeat;
//! - duplicate indices apply in order, like a sequential scatter.
//!
//! The staged look-ahead controller this replaced (LAORAM-style prefetch
//! into a 128-slot stash) cost ≈ 20× more per op at equal resident bytes
//! (EXPERIMENTS.md, "Look-ahead ORAM folded into Circuit ORAM").
//!
//! # Example
//!
//! ```
//! use secemb_laoram::{LaConfig, LookAheadOram, WindowOp};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let blocks: Vec<Vec<u32>> = (0..64).map(|i| vec![i as u32; 4]).collect();
//! let mut la = LookAheadOram::new(&blocks, LaConfig::new(4), StdRng::seed_from_u64(1));
//! let out = la.process_window(&[
//!     WindowOp::Read(9),
//!     WindowOp::Write(3, vec![7, 7, 7, 7]),
//!     WindowOp::Read(3),
//! ]);
//! assert_eq!(out[0], vec![9, 9, 9, 9]);
//! assert_eq!(out[2], vec![7, 7, 7, 7]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use secemb_oram::{add_f32, AccessStats, CircuitOram, Oram, OramConfig};

/// Configuration of a [`LookAheadOram`]; the rest is [`OramConfig::circuit`].
#[derive(Clone, Copy, Debug)]
pub struct LaConfig {
    /// Words (`u32`) per block.
    pub block_words: usize,
}

impl LaConfig {
    /// A configuration for `block_words`-wide blocks.
    pub fn new(block_words: usize) -> Self {
        LaConfig { block_words }
    }
}

/// One operation in a look-ahead window.
///
/// All three variants run the same Circuit ORAM access: a trace observer
/// cannot tell a read from a write from a gradient update.
#[derive(Clone, Debug, PartialEq)]
pub enum WindowOp {
    /// Read block `id`.
    Read(u64),
    /// Overwrite block `id` with the given words.
    Write(u64, Vec<u32>),
    /// Interpret the block's words as `f32` bit patterns and add the given
    /// deltas elementwise — the gradient-scatter primitive for protected
    /// embedding-table training.
    AddF32(u64, Vec<f32>),
}

impl WindowOp {
    /// The block id this operation targets.
    pub fn index(&self) -> u64 {
        match self {
            WindowOp::Read(id) | WindowOp::Write(id, _) | WindowOp::AddF32(id, _) => *id,
        }
    }
}

/// Window counters, on top of the shared [`AccessStats`]. Deliberately no
/// read/write counters: exporting the mix would leak what the write path
/// hides.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LaStats {
    /// Windows processed.
    pub windows: u64,
    /// Total window operations served.
    pub ops: u64,
    /// Always 0; kept for the benchmark harness.
    pub prefetch_hits: u64,
    /// Always 0; kept for the benchmark harness.
    pub evictions_saved: u64,
    /// Highest stash occupancy observed after an op (blocks).
    pub stash_high_water: usize,
}

/// A window driver over one [`CircuitOram`]. [`Self::process_window`]
/// returns each op's post-operation block; [`Self::visit_window`] hands
/// each block to a visitor in place, allocation-free. The [`Oram`] trait
/// runs windows of one.
#[derive(Debug)]
pub struct LookAheadOram {
    oram: CircuitOram,
    la: LaStats,
    /// Receives each accessed block; the visitor has already seen it.
    row: Vec<u32>,
}

impl LookAheadOram {
    /// Builds a look-ahead ORAM holding `blocks` (block `i` gets id `i`).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or any block's width differs from
    /// `config.block_words`.
    pub fn new(blocks: &[Vec<u32>], config: LaConfig, rng: StdRng) -> Self {
        LookAheadOram {
            oram: CircuitOram::new(blocks, OramConfig::circuit(config.block_words), rng),
            la: LaStats::default(),
            row: vec![0; config.block_words],
        }
    }

    /// Runs `ops` as one window and returns each block's post-operation
    /// contents, in op order.
    ///
    /// # Panics
    ///
    /// Panics, before any op runs, if an index is out of range or a
    /// payload has the wrong width.
    pub fn process_window(&mut self, ops: &[WindowOp]) -> Vec<Vec<u32>> {
        let words = self.oram.block_words();
        let fits = |op: &WindowOp| match op {
            WindowOp::Read(_) => true,
            WindowOp::Write(_, val) => val.len() == words,
            WindowOp::AddF32(_, delta) => delta.len() == words,
        };
        assert!(ops.iter().all(fits), "WindowOp: wrong payload width");
        let indices: Vec<u64> = ops.iter().map(WindowOp::index).collect();
        let mut out = Vec::with_capacity(ops.len());
        self.visit_window(&indices, &mut |k, data| {
            match &ops[k] {
                WindowOp::Read(_) => {}
                WindowOp::Write(_, val) => data.copy_from_slice(val),
                WindowOp::AddF32(_, delta) => add_f32(data, delta),
            }
            out.push(data.to_vec());
        });
        out
    }

    /// Runs the window `indices` through a visitor: `visit(k, block)` is
    /// handed the `k`-th index's block in place, and whatever it leaves
    /// there is stored. One Circuit ORAM access per index, in order; no
    /// heap allocation.
    ///
    /// # Panics
    ///
    /// Panics, before any access runs, if an index is out of range.
    pub fn visit_window(&mut self, indices: &[u64], visit: &mut dyn FnMut(usize, &mut [u32])) {
        let n = self.oram.len();
        for &id in indices {
            assert!(id < n, "LookAheadOram: id {id} out of range");
        }
        for (k, &id) in indices.iter().enumerate() {
            self.oram
                .access_into(id, &mut |data| visit(k, data), &mut self.row);
            self.la.stash_high_water = self.la.stash_high_water.max(self.oram.stash_occupancy());
        }
        self.la.windows += 1;
        self.la.ops += indices.len() as u64;
    }

    /// Window counters.
    pub fn la_stats(&self) -> LaStats {
        self.la
    }

    /// [`CircuitOram::check_invariants`]: an untraced testing aid that
    /// panics on any structural violation.
    pub fn check_invariants(&self) {
        self.oram.check_invariants();
    }
}

impl Oram for LookAheadOram {
    fn access_into(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32]), out: &mut [u32]) {
        self.visit_window(&[id], &mut |_, data| mutate(data));
        out.copy_from_slice(&self.row);
    }

    fn len(&self) -> u64 {
        self.oram.len()
    }

    fn block_words(&self) -> usize {
        self.oram.block_words()
    }

    fn stats(&self) -> AccessStats {
        self.oram.stats()
    }

    fn stash_occupancy(&self) -> usize {
        self.oram.stash_occupancy()
    }

    fn reset_stats(&mut self) {
        self.oram.reset_stats();
        self.la = LaStats {
            stash_high_water: self.la.stash_high_water,
            ..LaStats::default()
        };
    }

    fn memory_bytes(&self) -> u64 {
        self.oram.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use secemb_trace::check;
    use std::collections::HashMap;

    fn build(n: u32, words: usize, seed: u64) -> LookAheadOram {
        let blocks: Vec<Vec<u32>> = (0..n).map(|i| vec![i; words]).collect();
        LookAheadOram::new(&blocks, LaConfig::new(words), StdRng::seed_from_u64(seed))
    }

    fn reads(indices: &[u64]) -> Vec<WindowOp> {
        indices.iter().map(|&i| WindowOp::Read(i)).collect()
    }

    #[test]
    fn window_reads_initial_contents() {
        let mut la = build(64, 4, 1);
        let out = la.process_window(&reads(&[0, 13, 63, 13]));
        assert_eq!(out[0], vec![0u32; 4]);
        assert_eq!(out[1], vec![13u32; 4]);
        assert_eq!(out[2], vec![63u32; 4]);
        assert_eq!(out[3], vec![13u32; 4]);
        la.check_invariants();
    }

    #[test]
    fn writes_and_addf32_apply_in_window_order() {
        let mut la = build(32, 2, 2);
        let out = la.process_window(&[
            WindowOp::Write(5, vec![1.5f32.to_bits(), 2.0f32.to_bits()]),
            WindowOp::AddF32(5, vec![0.25, -1.0]),
            WindowOp::Read(5),
        ]);
        let read = &out[2];
        assert_eq!(f32::from_bits(read[0]), 1.75);
        assert_eq!(f32::from_bits(read[1]), 1.0);
        la.check_invariants();
    }

    #[test]
    fn random_windows_match_model() {
        let mut la = build(96, 2, 3);
        let mut model: HashMap<u64, Vec<u32>> = (0..96).map(|i| (i, vec![i as u32; 2])).collect();
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..60 {
            let w = rng.gen_range(1..=16usize);
            let mut ops = Vec::with_capacity(w);
            let mut expect = Vec::with_capacity(w);
            for _ in 0..w {
                let id = rng.gen_range(0..96u64);
                if rng.gen_bool(0.4) {
                    let val = vec![rng.gen::<u32>(), rng.gen::<u32>()];
                    model.insert(id, val.clone());
                    expect.push(val.clone());
                    ops.push(WindowOp::Write(id, val));
                } else {
                    expect.push(model.get(&id).unwrap().clone());
                    ops.push(WindowOp::Read(id));
                }
            }
            let out = la.process_window(&ops);
            for ((op, got), want) in ops.iter().zip(out.iter()).zip(expect.iter()) {
                assert_eq!(got, want, "round {round}: mismatch at id {}", op.index());
            }
        }
        la.check_invariants();
        assert!(la.la_stats().stash_high_water <= 128);
    }

    #[test]
    fn stash_stays_bounded_over_many_full_windows() {
        let mut la = build(256, 4, 4);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..120 {
            let ops = reads(
                &(0..64)
                    .map(|_| rng.gen_range(0..256u64))
                    .collect::<Vec<_>>(),
            );
            la.process_window(&ops);
        }
        la.check_invariants();
        let hw = la.la_stats().stash_high_water;
        let capacity = OramConfig::circuit(4).stash_capacity;
        assert!(hw <= capacity, "stash high-water {hw} exceeded {capacity}");
    }

    #[test]
    fn single_access_oram_trait_matches_model() {
        let mut la = build(40, 3, 6);
        assert_eq!(la.read(17), vec![17u32; 3]);
        la.write(17, &[9, 9, 9]);
        assert_eq!(la.read(17), vec![9u32; 3]);
        la.check_invariants();
    }

    #[test]
    fn write_persists_across_many_windows() {
        let mut la = build(64, 2, 7);
        la.process_window(&[WindowOp::Write(3, vec![70, 80])]);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let ops = reads(&(0..8).map(|_| rng.gen_range(0..64u64)).collect::<Vec<_>>());
            la.process_window(&ops);
        }
        let out = la.process_window(&[WindowOp::Read(3)]);
        assert_eq!(out[0], vec![70, 80]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn process_window_rejects_out_of_range() {
        build(8, 2, 0).process_window(&reads(&[1, 8]));
    }

    /// Gate: the full window trace is bit-identical between a read-only
    /// window and mixed read/write/gradient windows over the same indices
    /// — reads and writes are indistinguishable.
    #[test]
    fn gate_full_window_trace_independent_of_read_write_mix() {
        let mixes: [Vec<WindowOp>; 4] = [
            vec![
                WindowOp::Read(3),
                WindowOp::Read(17),
                WindowOp::Read(3),
                WindowOp::Read(40),
            ],
            vec![
                WindowOp::Write(3, vec![1; 4]),
                WindowOp::Write(17, vec![2; 4]),
                WindowOp::Write(3, vec![3; 4]),
                WindowOp::Write(40, vec![4; 4]),
            ],
            vec![
                WindowOp::Read(3),
                WindowOp::AddF32(17, vec![0.5; 4]),
                WindowOp::Write(3, vec![3; 4]),
                WindowOp::Read(40),
            ],
            vec![
                WindowOp::AddF32(3, vec![1.0; 4]),
                WindowOp::Read(17),
                WindowOp::AddF32(3, vec![-1.0; 4]),
                WindowOp::Write(40, vec![9; 4]),
            ],
        ];
        let verdict = check::compare_traces(&mixes, |ops| {
            let mut la = build(64, 4, 123);
            la.process_window(ops);
        });
        assert!(
            verdict.is_oblivious(),
            "read/write mix leaked: divergence at run {:?}",
            verdict.first_divergence()
        );
        assert!(verdict.is_line_oblivious(64));
        assert!(verdict.is_page_oblivious(4096));
    }

    #[test]
    fn stats_accumulate_and_memory_accounted() {
        let mut la = build(64, 4, 8);
        la.process_window(&reads(&[1, 2, 3]));
        let s = la.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.posmap_accesses, 3); // one remap per op
        assert!(s.bucket_reads > 0 && s.bucket_writes > 0);
        assert_eq!(s.evictions, 6); // Circuit ORAM: two per access
        assert!(la.memory_bytes() > 64 * 16);
        la.reset_stats();
        assert_eq!(la.stats(), AccessStats::default());
    }
}
