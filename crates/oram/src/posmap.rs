//! The (possibly recursive) position map.
//!
//! Maps block id → leaf label. Below the recursion threshold it is a flat
//! array scanned obliviously on every access (ZeroTrace does the same for
//! its terminal level). Above it, labels are packed
//! [`crate::OramConfig::posmap_fanout`] to a block and stored in a smaller
//! ORAM of the *same controller type*, recursively.

use crate::config::OramConfig;
use crate::setup::trace_len;
use crate::stats::AccessStats;
use crate::Oram;
use secemb_obliv::{cmp, select};
use secemb_trace::tracer::{self, RegionId};

/// Builds the inner ORAM of a recursive position map: `(n_blocks,
/// block_words, fill)`, where `fill(id, payload)` writes packed label
/// block `id` into its slot (see [`crate::setup::initial_layout`]).
pub type MakeInner<'a> =
    dyn FnMut(u64, usize, &mut dyn FnMut(u64, &mut [u32])) -> Box<dyn Oram + Send> + 'a;

/// A position map: either a flat obliviously-scanned array or a recursive
/// ORAM of packed labels.
pub enum PosMap {
    /// Flat array; every lookup scans all entries. Build with
    /// [`PosMap::plain`].
    Plain {
        /// `labels[id]` = current leaf of block `id`.
        labels: Vec<u64>,
        /// Trace region for the scans.
        region: RegionId,
        /// The array's byte size as a trace event length, validated once.
        scan_len: u32,
    },
    /// Labels packed `fanout` per block inside a smaller ORAM.
    Recursive {
        /// The inner ORAM holding packed label blocks. `Send` so whole
        /// controllers can move onto serving worker threads.
        inner: Box<dyn Oram + Send>,
        /// Labels per block.
        fanout: usize,
        /// Receives the inner block on every access (the label itself
        /// leaves through the access closure).
        scratch: Vec<u32>,
    },
}

impl std::fmt::Debug for PosMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PosMap::Plain { labels, .. } => write!(f, "PosMap::Plain({} labels)", labels.len()),
            PosMap::Recursive { fanout, .. } => write!(f, "PosMap::Recursive(fanout {fanout})"),
        }
    }
}

impl PosMap {
    /// A flat position map over `labels`.
    ///
    /// # Panics
    ///
    /// Panics if the array's byte size does not fit a trace event length.
    pub fn plain(labels: Vec<u64>, region: RegionId) -> Self {
        let scan_len = trace_len(labels.len() as u64 * 8);
        PosMap::Plain {
            labels,
            region,
            scan_len,
        }
    }

    /// Builds a position map for `labels`, recursing with `make_inner` when
    /// the label count exceeds `config.recursion_threshold`.
    ///
    /// `make_inner` must return an ORAM of the caller's own controller
    /// type — this is how recursion stays Path-in-Path /
    /// Circuit-in-Circuit without the position map knowing about either.
    /// The packed label blocks are written straight into the inner ORAM's
    /// arena.
    pub fn build(
        labels: Vec<u64>,
        config: &OramConfig,
        region: RegionId,
        make_inner: &mut MakeInner<'_>,
    ) -> Self {
        if (labels.len() as u64) <= config.recursion_threshold {
            return PosMap::plain(labels, region);
        }
        let fanout = config.posmap_fanout;
        let n_inner = labels.len().div_ceil(fanout) as u64;
        let inner = make_inner(n_inner, fanout, &mut |block, words| {
            let chunk = labels[block as usize * fanout..].iter().take(fanout);
            words.fill(0);
            for (w, &l) in words.iter_mut().zip(chunk) {
                *w = u32::try_from(l).expect("leaf label exceeds u32");
            }
        });
        PosMap::Recursive {
            inner,
            fanout,
            scratch: vec![0; fanout],
        }
    }

    /// Number of ids tracked.
    #[allow(dead_code)] // exercised by tests; part of the internal contract
    pub fn len(&self) -> u64 {
        match self {
            PosMap::Plain { labels, .. } => labels.len() as u64,
            PosMap::Recursive { inner, fanout, .. } => inner.len() * *fanout as u64,
        }
    }

    /// Whether the map is empty.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat label array, when this map is not recursive (invariant
    /// checks only: reading it is untraced).
    pub fn plain_labels(&self) -> Option<&[u64]> {
        match self {
            PosMap::Plain { labels, .. } => Some(labels),
            PosMap::Recursive { .. } => None,
        }
    }

    /// Obliviously reads the current leaf of `id` and replaces it with
    /// `new_leaf`, returning the old value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (the range is public).
    pub fn get_and_set(&mut self, id: u64, new_leaf: u64, stats: &mut AccessStats) -> u64 {
        match self {
            PosMap::Plain {
                labels,
                region,
                scan_len,
            } => {
                assert!((id as usize) < labels.len(), "posmap id out of range");
                stats.posmap_accesses += 1;
                tracer::read(*region, 0, *scan_len);
                tracer::write(*region, 0, *scan_len);
                let mut old = 0u64;
                for (i, slot) in labels.iter_mut().enumerate() {
                    let hit = cmp::eq_u64(i as u64, id);
                    old = select::u64(hit, *slot, old);
                    *slot = select::u64(hit, new_leaf, *slot);
                }
                old
            }
            PosMap::Recursive {
                inner,
                fanout,
                scratch,
            } => {
                stats.posmap_accesses += 1;
                let fanout = *fanout;
                let block_id = id / fanout as u64;
                let slot = id % fanout as u64;
                let mut old = 0u32;
                inner.access_into(
                    block_id,
                    &mut |words: &mut [u32]| {
                        // The in-block slot index is secret (derived from id):
                        // scan all fanout words with constant-time selection.
                        let new = u32::try_from(new_leaf).expect("leaf label exceeds u32");
                        for (w_idx, w) in words.iter_mut().enumerate() {
                            let hit = cmp::eq_u64(w_idx as u64, slot);
                            old = select::u32(hit, *w, old);
                            *w = select::u32(hit, new, *w);
                        }
                    },
                    scratch,
                );
                old as u64
            }
        }
    }

    /// Obliviously reads the current leaf of `id` without remapping it.
    ///
    /// Performs exactly one whole-region read scan (plain maps) or one
    /// inner-ORAM access (recursive maps) regardless of `id`, so the trace
    /// shape matches [`PosMap::get_and_set`] minus the write-back — used by
    /// the look-ahead ORAM's staging phase, which must learn current leaves
    /// without consuming fresh ones.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (the range is public).
    pub fn get(&mut self, id: u64, stats: &mut AccessStats) -> u64 {
        match self {
            PosMap::Plain {
                labels,
                region,
                scan_len,
            } => {
                assert!((id as usize) < labels.len(), "posmap id out of range");
                stats.posmap_accesses += 1;
                tracer::read(*region, 0, *scan_len);
                let mut out = 0u64;
                for (i, slot) in labels.iter().enumerate() {
                    let hit = cmp::eq_u64(i as u64, id);
                    out = select::u64(hit, *slot, out);
                }
                out
            }
            PosMap::Recursive {
                inner,
                fanout,
                scratch,
            } => {
                stats.posmap_accesses += 1;
                let fanout = *fanout;
                let block_id = id / fanout as u64;
                let slot = id % fanout as u64;
                let mut out = 0u32;
                inner.access_into(
                    block_id,
                    &mut |words: &mut [u32]| {
                        for (w_idx, w) in words.iter_mut().enumerate() {
                            let hit = cmp::eq_u64(w_idx as u64, slot);
                            out = select::u32(hit, *w, out);
                        }
                    },
                    scratch,
                );
                out as u64
            }
        }
    }

    /// Statistics accumulated by recursive levels (zero for plain maps).
    pub fn inner_stats(&self) -> AccessStats {
        match self {
            PosMap::Plain { .. } => AccessStats::default(),
            PosMap::Recursive { inner, .. } => inner.stats(),
        }
    }

    /// Resets recursive-level statistics.
    pub fn reset_inner_stats(&mut self) {
        if let PosMap::Recursive { inner, .. } = self {
            inner.reset_stats();
        }
    }

    /// Memory in bytes (flat array or the whole inner ORAM).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            PosMap::Plain { labels, .. } => labels.len() as u64 * 8,
            PosMap::Recursive { inner, .. } => inner.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb_trace::tracer::regions;

    fn plain(n: u64) -> PosMap {
        PosMap::plain((0..n).map(|i| i % 4).collect(), regions::oram_posmap(0))
    }

    #[test]
    fn plain_get_and_set() {
        let mut pm = plain(8);
        let mut stats = AccessStats::default();
        assert_eq!(pm.get_and_set(5, 99, &mut stats), 1);
        assert_eq!(pm.get_and_set(5, 7, &mut stats), 99);
        assert_eq!(pm.get_and_set(0, 1, &mut stats), 0);
        assert_eq!(stats.posmap_accesses, 3);
        assert_eq!(pm.len(), 8);
    }

    #[test]
    fn plain_scan_is_whole_region() {
        let mut pm = plain(8);
        let mut stats = AccessStats::default();
        let ((), trace) = tracer::record_trace(|| {
            pm.get_and_set(3, 0, &mut stats);
        });
        assert_eq!(trace.len(), 2); // read + write of the entire array
        assert_eq!(trace.events()[0].len, 64);
    }

    #[test]
    fn plain_get_reads_without_remap() {
        let mut pm = plain(8);
        let mut stats = AccessStats::default();
        assert_eq!(pm.get(5, &mut stats), 1);
        assert_eq!(pm.get(5, &mut stats), 1); // unchanged by the read
        let ((), trace) = tracer::record_trace(|| {
            pm.get(3, &mut stats);
        });
        assert_eq!(trace.len(), 1); // one whole-region read, no write-back
        assert_eq!(trace.events()[0].len, 64);
    }

    #[test]
    fn build_stays_plain_below_threshold() {
        let cfg = OramConfig::path(4);
        let pm = PosMap::build(
            vec![0; 100],
            &cfg,
            regions::oram_posmap(0),
            &mut |_, _, _| unreachable!("must not recurse below threshold"),
        );
        assert!(matches!(pm, PosMap::Plain { .. }));
    }

    #[test]
    fn build_packs_labels_into_inner_blocks() {
        let mut cfg = OramConfig::path(4);
        cfg.recursion_threshold = 4;
        cfg.posmap_fanout = 4;
        let mut packed = Vec::new();
        let pm = PosMap::build(
            (0..10).collect(),
            &cfg,
            regions::oram_posmap(0),
            &mut |n, words, fill| {
                for id in 0..n {
                    let mut block = vec![u32::MAX; words];
                    fill(id, &mut block);
                    packed.push(block);
                }
                let blocks: Vec<Vec<u32>> = packed.clone();
                Box::new(crate::PathOram::new(
                    &blocks,
                    OramConfig::path(words),
                    rand::SeedableRng::seed_from_u64(0),
                ))
            },
        );
        assert_eq!(
            packed,
            vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9, 0, 0]],
            "last block zero-padded"
        );
        let mut pm = pm;
        let mut stats = AccessStats::default();
        assert_eq!(pm.get(6, &mut stats), 6);
        assert_eq!(pm.get_and_set(9, 3, &mut stats), 9);
        assert_eq!(pm.get(9, &mut stats), 3);
        assert!(pm.plain_labels().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plain_rejects_oob() {
        let mut pm = plain(4);
        pm.get_and_set(4, 0, &mut AccessStats::default());
    }
}
