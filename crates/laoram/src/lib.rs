//! Look-ahead ORAM (LAORAM): windowed prefetch, combined evictions, and an
//! oblivious read/write path for embedding-table serving *and* training.
//!
//! The serving batcher coalesces a batch before the generator runs, so the
//! ORAM knows a **future access window** — the next batch's indices — ahead
//! of time. LAORAM (see PAPERS.md) exploits exactly this: instead of Path
//! ORAM's fetch-one-path-evict-one-path per access, a window of `W` accesses
//! is executed in three phases:
//!
//! 1. **Stage** — every requested block is prefetched into the stash up
//!    front. The window's `W` position-map reads resolve the current leaves
//!    (duplicate indices are padded with fresh uniform dummy leaves so
//!    exactly `W` paths are always fetched), the `W` paths' buckets are
//!    **deduplicated** (shared ancestors near the root are read once, not
//!    `W` times), and exactly `W` oblivious stash inserts lift the requested
//!    blocks out of the fetched buckets.
//! 2. **Serve** — each window operation is one position-map remap plus one
//!    two-scan oblivious stash visit ([`secemb_oram::stash::Stash::find_update`]),
//!    which reads, optionally mutates, and re-leaves the block in a single
//!    fixed-shape pass. Reads, overwrites, and gradient accumulations are
//!    therefore **indistinguishable by construction**: the same scans run,
//!    only the (untraced, constant-time) payload arithmetic differs.
//! 3. **Evict** — instead of one eviction per access, `ceil(W / evict_ratio)`
//!    combined evictions run along **deterministic reverse-lexicographic
//!    paths** (Circuit ORAM's schedule), amortizing write-back cost across
//!    the window. The evicted path's blocks never transit the stash: each
//!    write-back slot runs one joint constant-shape selection over the
//!    path scratch and the stash, so an eviction costs one stash scan per
//!    bucket slot instead of Path ORAM's two, and the stash needs no
//!    path-length headroom.
//!
//! # Security model: what is bit-identical and what is distributional
//!
//! A tree ORAM whose *entire* trace is a fixed function of the window size
//! cannot exist short of a linear scan: serving arbitrary requests from a
//! realization-independent set of touched addresses would require every
//! possibly-requested block to live at a deterministically-touched address,
//! i.e. Ω(n) work per window. Tree-ORAM security is therefore inherently
//! *distributional* for the path-fetch phase and the honest split is:
//!
//! - **Stage** is distributionally secure, exactly like Path/Circuit ORAM:
//!   the `W` fetched leaves are independent uniform samples whatever the
//!   requested indices (current leaves are uniform by the ORAM invariant;
//!   pad leaves are drawn fresh), and the per-window *event counts* on the
//!   position map and stash are fixed functions of `W` alone.
//! - **Serve and evict** are **bit-identical** across windows of equal
//!   shape: every position-map touch is a whole-region scan, every stash
//!   touch is a whole-stash scan, and eviction paths come from a public
//!   counter. Leaf *values* flow through as data, never as addresses, so
//!   the trace does not depend on the RNG realization either. This is the
//!   gate `secemb-trace` enforces in the tests below.
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

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::Rng;
use secemb_obliv::Choice;
use secemb_oram::block::{Block, Slots};
use secemb_oram::posmap::PosMap;
use secemb_oram::setup::{check_residency, fill_from_blocks, initial_layout};
use secemb_oram::stash::Stash;
use secemb_oram::tree::Tree;
use secemb_oram::{AccessStats, Oram, OramConfig, DUMMY_ID};
use secemb_trace::tracer::RegionId;

#[cfg(test)]
mod stash_tail;

/// Trace region of the look-ahead ORAM's bucket tree.
pub const LAORAM_TREE: RegionId = RegionId(0x200);
/// Trace region of the look-ahead ORAM's stash.
pub const LAORAM_STASH: RegionId = RegionId(0x201);
/// Trace region of the look-ahead ORAM's (flat) position map.
pub const LAORAM_POSMAP: RegionId = RegionId(0x202);

/// Configuration of a [`LookAheadOram`].
#[derive(Clone, Copy, Debug)]
pub struct LaConfig {
    /// Words (`u32`) per block.
    pub block_words: usize,
    /// Blocks per tree bucket (Path ORAM's `Z`).
    pub bucket_size: usize,
    /// Stash capacity in blocks. Sized to hold a whole staged window plus
    /// the between-window residual; eviction path blocks never transit
    /// the stash (see [`LookAheadOram`]'s eviction), so no path-length
    /// headroom is needed and the default sits *below* Path ORAM's 150 —
    /// which matters, because every oblivious stash touch is a full scan
    /// and the scan cost is linear in this capacity. With windows of 64 on
    /// a tree at the sizing rule's worst case (`Z` blocks per leaf, 33–50 %
    /// of the slots occupied, see `secemb_oram::tree_leaves`), the default
    /// 128 overflows with probability at most 2⁻³⁷ per window, measured
    /// on 1 024, 1 000 and 768 leaves (EXPERIMENTS.md, "Tree sizing"; the
    /// bound is limited by its estimator, not by the tree).
    pub stash_capacity: usize,
    /// Maximum window size accepted by [`LookAheadOram::stage_window`].
    pub max_window: usize,
    /// Combined-eviction ratio: a window of `W` ops runs
    /// `ceil(W / evict_ratio)` evictions (Path ORAM runs `W`).
    pub evict_ratio: usize,
}

impl LaConfig {
    /// Defaults for `block_words`-wide blocks: `Z = 4`, stash 128, window
    /// up to 64, one eviction per two accesses.
    pub fn new(block_words: usize) -> Self {
        LaConfig {
            block_words,
            bucket_size: 4,
            stash_capacity: 128,
            max_window: 64,
            evict_ratio: 2,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn validate(&self) {
        self.oram_config().validate();
        assert!(self.max_window > 0, "LaConfig: max_window must be > 0");
        assert!(self.evict_ratio > 0, "LaConfig: evict_ratio must be > 0");
    }

    /// The equivalent `secemb-oram` primitive configuration (flat position
    /// map: LAORAM never recurses).
    pub fn oram_config(&self) -> OramConfig {
        OramConfig {
            block_words: self.block_words,
            bucket_size: self.bucket_size,
            stash_capacity: self.stash_capacity,
            recursion_threshold: u64::MAX,
            posmap_fanout: 16,
        }
    }
}

/// One operation in a look-ahead window.
///
/// All three variants execute the identical oblivious scans — the same
/// position-map remap and the same two-pass stash visit — so an observer of
/// the memory trace cannot tell a read from a write from a gradient update.
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

/// Look-ahead-specific counters, on top of the shared [`AccessStats`].
///
/// Deliberately **no** separate read/write counters: exporting the mix as a
/// gauge would leak exactly what the oblivious write path hides.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LaStats {
    /// Windows processed.
    pub windows: u64,
    /// Total window operations served.
    pub ops: u64,
    /// Window slots served by an earlier fetch in the same window
    /// (duplicate indices that needed no extra real path). A function of
    /// the secret indices: for in-process measurement only, never exported.
    pub prefetch_hits: u64,
    /// Real (distinct-index) path fetches staged. Secret, like
    /// `prefetch_hits`.
    pub staged_fetches: u64,
    /// Bucket reads avoided by deduplicating the window's path union,
    /// versus fetching each of the `W` paths independently.
    pub bucket_reads_saved: u64,
    /// Combined eviction passes run.
    pub combined_evictions: u64,
    /// Evictions avoided versus Path ORAM's one-per-access schedule.
    pub evictions_saved: u64,
    /// Highest stash occupancy observed (blocks).
    pub stash_high_water: usize,
}

/// A look-ahead ORAM instance over `n` fixed-width blocks.
///
/// Drive it with [`LookAheadOram::process_window`] (stage + serve + evict in
/// one call) or split [`LookAheadOram::stage_window`] /
/// [`LookAheadOram::serve_window`] when the index window is known before the
/// operation payloads (the serve engine stages while the batch is still
/// being assembled). Single accesses via the [`Oram`] trait degrade to
/// windows of one.
///
/// Staging scrubs the fetched buckets in place in the tree arena; the only
/// block copies are the fixed scratch buffers below, sized once from the
/// tree depth and `max_window`.
#[derive(Debug)]
pub struct LookAheadOram {
    tree: Tree,
    stash: Stash,
    posmap: PosMap,
    config: LaConfig,
    n_blocks: u64,
    rng: StdRng,
    evict_counter: u64,
    stats: AccessStats,
    la: LaStats,
    /// Indices staged for the pending window, in request order (valid
    /// while `window_staged`).
    staged: Vec<u64>,
    window_staged: bool,
    /// Staging: distinct indices in first-occurrence order, and the set
    /// that detects repeats.
    distinct: Vec<u64>,
    seen: HashSet<u64>,
    /// Staging: the `W` leaves whose paths are fetched.
    leaves: Vec<u64>,
    /// Staging: sorted, deduplicated bucket indices of those `W` paths.
    union: Vec<usize>,
    /// Staging: the block being lifted out of the fetched buckets.
    lifted: Block,
    /// Eviction: a private copy of the evicted path (`(levels+1)·Z` slots).
    path: Slots,
    /// Eviction: the bucket being assembled for write-back (`Z` slots).
    to_write: Slots,
}

impl LookAheadOram {
    /// Builds a look-ahead ORAM holding `blocks` (block `i` gets id `i`).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, any block's width differs from
    /// `config.block_words`, or the config is invalid.
    pub fn new(blocks: &[Vec<u32>], config: LaConfig, rng: StdRng) -> Self {
        Self::from_fn(
            blocks.len() as u64,
            config,
            rng,
            &mut fill_from_blocks(blocks),
        )
    }

    /// Builds a look-ahead ORAM of `n_blocks` blocks whose contents come
    /// from `fill(id, payload)`, called once per block with the block's
    /// own arena slot — the block set is never materialised a second time.
    /// Draws from `rng` exactly as [`LookAheadOram::new`] does.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero or the config is invalid.
    pub fn from_fn(
        n_blocks: u64,
        config: LaConfig,
        rng: StdRng,
        fill: &mut dyn FnMut(u64, &mut [u32]),
    ) -> Self {
        config.validate();
        let tree = Tree::new(n_blocks, &config.oram_config(), LAORAM_TREE);
        Self::with_tree(tree, n_blocks, config, rng, fill)
    }

    /// [`Self::from_fn`] over a caller-built `tree`. The stash-tail
    /// harness hands in a tree sized for fewer than `n_blocks` blocks to
    /// measure occupancies above the sizing rule's.
    fn with_tree(
        mut tree: Tree,
        n_blocks: u64,
        config: LaConfig,
        mut rng: StdRng,
        fill: &mut dyn FnMut(u64, &mut [u32]),
    ) -> Self {
        assert!(n_blocks > 0, "LookAheadOram: empty block set");
        let oram_cfg = config.oram_config();
        let mut stash = Stash::new(&oram_cfg, LAORAM_STASH);
        let labels = initial_layout(n_blocks, &mut tree, &mut stash, &mut rng, fill);
        let posmap = PosMap::build(labels, &oram_cfg, LAORAM_POSMAP, &mut |_, _, _| {
            unreachable!("LAORAM position map never recurses")
        });
        let path_len = tree.levels() as usize + 1;
        let w = config.max_window;
        LookAheadOram {
            staged: Vec::with_capacity(w),
            window_staged: false,
            distinct: Vec::with_capacity(w),
            seen: HashSet::with_capacity(w),
            leaves: Vec::with_capacity(w),
            union: Vec::with_capacity(w * path_len),
            lifted: Block::dummy(config.block_words),
            path: Slots::dummy(path_len * config.bucket_size, config.block_words),
            to_write: Slots::dummy(config.bucket_size, config.block_words),
            tree,
            stash,
            posmap,
            config,
            n_blocks,
            rng,
            evict_counter: 0,
            stats: AccessStats::default(),
            la: LaStats::default(),
        }
    }

    /// Stages the next window: prefetches every requested block into the
    /// stash using the future access window `indices`.
    ///
    /// Exactly `indices.len()` position-map read scans and stash insert
    /// scans run whatever the indices (duplicates are padded with dummy
    /// work), so the traced event counts on those regions are a function of
    /// the window size alone. The fetched tree paths are the deduplicated
    /// union of `W` independent uniform leaves — the same distributional
    /// guarantee Path ORAM gives per access.
    ///
    /// # Panics
    ///
    /// Panics if a window is already staged, the window exceeds
    /// `max_window`, or any index is out of range.
    pub fn stage_window(&mut self, indices: &[u64]) {
        assert!(
            !self.window_staged,
            "stage_window: previous window not yet served"
        );
        assert!(
            indices.len() <= self.config.max_window,
            "stage_window: window {} exceeds max_window {}",
            indices.len(),
            self.config.max_window
        );
        for &id in indices {
            assert!(id < self.n_blocks, "stage_window: id {id} out of range");
        }
        self.staged.clear();
        self.staged.extend_from_slice(indices);
        self.window_staged = true;
        if indices.is_empty() {
            return;
        }
        let w = indices.len();
        let levels = self.tree.levels();

        // Distinct indices in first-occurrence order.
        self.distinct.clear();
        self.seen.clear();
        for &id in indices {
            if self.seen.insert(id) {
                self.distinct.push(id);
            }
        }
        let d = self.distinct.len();

        // Exactly W position-map read scans. Slots past the distinct set
        // re-scan id 0 (every Plain lookup is a whole-region scan, so which
        // id is irrelevant) and fetch a fresh uniform dummy path instead.
        self.leaves.clear();
        for &id in &self.distinct {
            self.leaves.push(self.posmap.get(id, &mut self.stats));
        }
        for _ in d..w {
            let _ = self.posmap.get(0, &mut self.stats);
            self.leaves.push(self.rng.gen_range(0..self.tree.leaves()));
        }

        // Deduplicate the W paths' buckets (sorted by bucket index so the
        // read order is a deterministic function of the leaf set).
        self.union.clear();
        for &leaf in &self.leaves {
            for level in 0..=levels {
                self.union.push(self.tree.bucket_index(level, leaf));
            }
        }
        self.union.sort_unstable();
        self.union.dedup();

        // Fetch each distinct bucket once.
        for &idx in &self.union {
            self.tree.read_bucket(idx);
            self.stats.bucket_reads += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
        }

        // Exactly W oblivious stash inserts: slot k lifts distinct[k] out of
        // the fetched buckets where they lie (constant-time scan over every
        // fetched slot); pad slots insert a dummy (a no-op that still scans
        // the whole stash) without re-scanning the buckets. That skip makes
        // this loop's untraced work a function of the duplicate count `d`,
        // which is secret: it depends on the indices, not on the window's
        // shape. The count is not exported (`LaStats::prefetch_hits` and
        // `staged_fetches` stay in-process), but the running time still
        // differs with `d` until every slot scans the buckets.
        for &target in &self.distinct {
            self.lifted.id = DUMMY_ID;
            for &idx in &self.union {
                for mut slot in self.tree.bucket_mut(idx).slots_mut() {
                    let take = slot.ct_is(target);
                    self.lifted.as_mut().ct_take_from(take, &mut slot);
                }
            }
            self.stash.insert(self.lifted.as_ref(), &mut self.stats);
        }
        self.lifted.id = DUMMY_ID;
        for _ in d..w {
            self.stash.insert(self.lifted.as_ref(), &mut self.stats);
        }

        // Report the scrubbed buckets' write-back (same deterministic
        // order; the scrubbing above already happened in place).
        for &idx in &self.union {
            self.tree.write_bucket(idx);
            self.stats.bucket_writes += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
        }

        self.la.prefetch_hits += (w - d) as u64;
        self.la.staged_fetches += d as u64;
        self.la.bucket_reads_saved += (w * (levels as usize + 1) - self.union.len()) as u64;
        self.update_high_water();
    }

    /// Serves a staged window and runs its combined evictions.
    ///
    /// `ops` must target the staged indices in the same order (the payloads
    /// may arrive later than the index window — that is the point of
    /// staging). Returns each block's post-operation contents.
    ///
    /// This phase's trace is **bit-identical** across windows of equal
    /// length: whole-region position-map scans, whole-stash scans, and
    /// public-counter eviction paths only.
    ///
    /// # Panics
    ///
    /// Panics if no window is staged or `ops` does not match the staged
    /// index sequence.
    pub fn serve_window(&mut self, ops: &[WindowOp]) -> Vec<Vec<u32>> {
        assert!(
            self.window_staged,
            "serve_window: no window staged — call stage_window first"
        );
        assert_eq!(
            self.staged.len(),
            ops.len(),
            "serve_window: ops length differs from the staged window"
        );
        let words = self.tree.block_words();
        for (op, &id) in ops.iter().zip(self.staged.iter()) {
            assert_eq!(
                op.index(),
                id,
                "serve_window: ops must target the staged indices in order"
            );
            match op {
                WindowOp::Read(_) => {}
                WindowOp::Write(_, val) => {
                    assert_eq!(val.len(), words, "WindowOp::Write: wrong width")
                }
                WindowOp::AddF32(_, delta) => {
                    assert_eq!(delta.len(), words, "WindowOp::AddF32: wrong width")
                }
            }
        }
        let mut out = Vec::with_capacity(ops.len());
        self.serve_window_with(&mut |k, data| {
            match &ops[k] {
                WindowOp::Read(_) => {}
                WindowOp::Write(_, val) => data.copy_from_slice(val),
                WindowOp::AddF32(_, delta) => add_f32(data, delta),
            }
            out.push(data.to_vec());
        });
        out
    }

    /// Serves a staged window through a visitor: `visit(k, block)` is
    /// handed the `k`-th staged index's payload in place — whatever it
    /// leaves there is stored — so callers can apply their update and copy
    /// the result wherever it is wanted without any intermediate buffer.
    /// Runs the window's combined evictions afterwards; same trace as
    /// [`Self::serve_window`].
    ///
    /// # Panics
    ///
    /// Panics if no window is staged.
    pub fn serve_window_with(&mut self, visit: &mut dyn FnMut(usize, &mut [u32])) {
        assert!(
            self.window_staged,
            "serve_window: no window staged — call stage_window first"
        );
        self.window_staged = false;
        let w = self.staged.len();
        if w == 0 {
            return;
        }
        for k in 0..w {
            self.serve_one(self.staged[k], &mut |data| visit(k, data));
        }

        // Combined evictions: ceil(W / evict_ratio) deterministic
        // reverse-lexicographic paths for the whole window.
        let e = w.div_ceil(self.config.evict_ratio).max(1);
        for _ in 0..e {
            self.evict_once();
        }

        self.la.windows += 1;
        self.la.ops += w as u64;
        self.la.combined_evictions += e as u64;
        self.la.evictions_saved += (w - e) as u64;
        self.update_high_water();
    }

    /// Stages and serves `ops` as one window. See [`Self::stage_window`]
    /// and [`Self::serve_window`].
    pub fn process_window(&mut self, ops: &[WindowOp]) -> Vec<Vec<u32>> {
        let indices: Vec<u64> = ops.iter().map(WindowOp::index).collect();
        self.stage_window(&indices);
        self.serve_window(ops)
    }

    /// One serve step: position-map remap + two-scan stash visit. The block
    /// *must* already be in the stash (staged, or retained from an earlier
    /// window and not yet evicted).
    fn serve_one(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32])) {
        self.stats.accesses += 1;
        let new_leaf = self.rng.gen_range(0..self.tree.leaves());
        let _old = self.posmap.get_and_set(id, new_leaf, &mut self.stats);
        let found = self
            .stash
            .find_update(id, new_leaf, mutate, &mut self.stats);
        assert!(
            found,
            "LookAheadOram invariant violated: block {id} not in stash at serve time"
        );
    }

    /// One combined eviction along the next reverse-lexicographic path,
    /// rebuilt greedily deepest-first from the path's own blocks plus the
    /// stash. All addresses derive from a public counter.
    ///
    /// Unlike Path ORAM's write-back, the path blocks never transit the
    /// stash: they are read into local scratch and each write-back slot
    /// runs one constant-shape joint selection — scratch scanned first,
    /// then one whole-stash scan that only takes a block when the scratch
    /// had no candidate. Scanning scratch *first* guarantees every real
    /// path block is re-placed: a block read from level `l` is legal at
    /// every level `<= deepest_legal >= l`, eligibility sets are nested
    /// intervals down to the root, and the original layout proves at most
    /// `Z` blocks per level need a slot at or above it — so deepest-first
    /// greedy placement never strands one. The stash therefore only ever
    /// *drains* during eviction, which is what lets `stash_capacity` stay
    /// near `max_window` instead of `max_window + path`.
    fn evict_once(&mut self) {
        let leaf = self.tree.eviction_leaf(&mut self.evict_counter);
        let levels = self.tree.levels();
        let z = self.tree.bucket_size();
        for level in 0..=levels {
            let bucket = self.tree.read_bucket(self.tree.bucket_index(level, leaf));
            self.stats.bucket_reads += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
            let at = level as usize * z;
            self.path.view_mut(at..at + z).copy_from(bucket);
        }
        for level in (0..=levels).rev() {
            for mut picked in self.to_write.all_mut().slots_mut() {
                // Joint selection, constant shape: every scratch slot is
                // visited, then the whole stash, whatever gets taken.
                picked.set_dummy();
                let mut done = Choice::FALSE;
                for mut slot in self.path.all_mut().slots_mut() {
                    let eligible = !slot.ct_is_dummy()
                        & Choice::from_bool(self.tree.deepest_legal(*slot.leaf, leaf) >= level);
                    let take = eligible & !done;
                    picked.ct_take_from(take, &mut slot);
                    done = done | take;
                }
                self.stash.extract_eligible_if(
                    !done,
                    level,
                    |bl| self.tree.deepest_legal(bl, leaf),
                    picked,
                    &mut self.stats,
                );
            }
            self.tree
                .write_bucket(self.tree.bucket_index(level, leaf))
                .copy_from(self.to_write.all());
            self.stats.bucket_writes += 1;
            self.stats.bytes_moved += self.tree.bucket_bytes();
        }
        assert!(
            self.path.all().slots().all(|b| b.is_dummy()),
            "eviction invariant violated: a path block was stranded"
        );
        self.stats.evictions += 1;
    }

    fn update_high_water(&mut self) {
        let occ = self.stash.occupancy();
        if occ > self.la.stash_high_water {
            self.la.stash_high_water = occ;
        }
    }

    /// Look-ahead-specific counters.
    pub fn la_stats(&self) -> LaStats {
        self.la
    }

    /// Maximum accepted window size.
    pub fn max_window(&self) -> usize {
        self.config.max_window
    }

    /// Tree depth (levels below the root).
    pub fn levels(&self) -> u32 {
        self.tree.levels()
    }

    /// Exhaustively checks the structural invariants between windows:
    /// every block exists exactly once (tree or stash), tree residents sit
    /// on the path to their mapped leaf, and every resident's leaf agrees
    /// with the position map. Untraced debugging/testing aid — linear in
    /// the tree, never called on a serving path.
    ///
    /// # Panics
    ///
    /// Panics on any violation, or if a window is currently staged (the
    /// intermediate state intentionally breaks the leaf-agreement check).
    pub fn check_invariants(&self) {
        assert!(
            !self.window_staged,
            "check_invariants: call between windows, not mid-window"
        );
        let labels = self
            .posmap
            .plain_labels()
            .expect("LAORAM posmap is always flat");
        check_residency(&self.tree, &self.stash, self.n_blocks, Some(labels));
        assert!(
            self.stash.occupancy() <= self.stash.capacity(),
            "stash over capacity"
        );
    }
}

/// [`WindowOp::AddF32`]'s payload arithmetic: `data[i] += delta[i]` on
/// `f32` bit patterns.
pub fn add_f32(data: &mut [u32], delta: &[f32]) {
    for (w, g) in data.iter_mut().zip(delta) {
        *w = (f32::from_bits(*w) + g).to_bits();
    }
}

impl Oram for LookAheadOram {
    fn access_into(&mut self, id: u64, mutate: &mut dyn FnMut(&mut [u32]), out: &mut [u32]) {
        assert_eq!(
            out.len(),
            self.config.block_words,
            "LookAheadOram: out length != block_words"
        );
        self.stage_window(&[id]);
        self.window_staged = false;
        self.serve_one(id, &mut |data| {
            mutate(data);
            out.copy_from_slice(data);
        });
        self.evict_once();
        self.la.windows += 1;
        self.la.ops += 1;
        self.la.combined_evictions += 1;
        self.update_high_water();
    }

    fn len(&self) -> u64 {
        self.n_blocks
    }

    fn block_words(&self) -> usize {
        self.config.block_words
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }

    fn stash_occupancy(&self) -> usize {
        self.stash.occupancy()
    }

    fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
        self.la = LaStats {
            stash_high_water: self.la.stash_high_water,
            ..LaStats::default()
        };
    }

    fn memory_bytes(&self) -> u64 {
        self.tree.memory_bytes() + self.stash.memory_bytes() + self.posmap.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use secemb_trace::{check, tracer};
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
                &(0..la.max_window())
                    .map(|_| rng.gen_range(0..256u64))
                    .collect::<Vec<_>>(),
            );
            la.process_window(&ops);
        }
        la.check_invariants();
        let hw = la.la_stats().stash_high_water;
        assert!(hw <= 128, "stash high-water {hw} exceeded capacity");
    }

    #[test]
    fn lookahead_saves_work_versus_per_access_paths() {
        let mut la = build(128, 4, 5);
        // A skewed window: heavy duplication, like hot embedding rows.
        la.process_window(&reads(&[7, 7, 7, 7, 9, 9, 11, 7]));
        let s = la.la_stats();
        assert_eq!(s.prefetch_hits, 5); // 8 ops, 3 distinct
        assert_eq!(s.staged_fetches, 3);
        assert!(s.bucket_reads_saved > 0, "dedup must save bucket reads");
        assert_eq!(s.combined_evictions, 4); // ceil(8 / 2)
        assert_eq!(s.evictions_saved, 4);
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
    fn stage_rejects_out_of_range() {
        build(8, 2, 0).stage_window(&[8]);
    }

    #[test]
    #[should_panic(expected = "exceeds max_window")]
    fn stage_rejects_oversized_window() {
        let mut la = build(8, 2, 0);
        la.stage_window(&vec![0u64; la.max_window() + 1]);
    }

    #[test]
    #[should_panic(expected = "must target the staged indices")]
    fn serve_rejects_mismatched_ops() {
        let mut la = build(8, 2, 0);
        la.stage_window(&[1, 2]);
        la.serve_window(&[WindowOp::Read(2), WindowOp::Read(1)]);
    }

    // ------------------------------------------------------------------
    // Trace gates (the acceptance criteria of the LAORAM subsystem).
    // ------------------------------------------------------------------

    /// Gate (i): with staging done ahead of time, the serve+evict trace is
    /// bit-identical across *different query index sets* of equal batch
    /// shape — same instance seed, different secrets.
    #[test]
    fn gate_serve_trace_bit_identical_across_index_sets() {
        let windows: [Vec<u64>; 4] = [
            vec![1, 2, 3, 4],
            vec![60, 0, 33, 12],
            vec![9, 9, 9, 9],
            vec![5, 41, 5, 63],
        ];
        let mut traces = Vec::new();
        for w in &windows {
            let mut la = build(64, 4, 77);
            la.stage_window(w);
            let (_, trace) = tracer::record_trace(|| la.serve_window(&reads(w)));
            traces.push(trace);
        }
        for (i, t) in traces.iter().enumerate().skip(1) {
            assert_eq!(
                *t, traces[0],
                "serve trace for window {i} diverged from window 0"
            );
        }
    }

    /// Gate (i), staging phase: the *event counts* per region are a fixed
    /// function of the window size, whatever the indices (the bucket
    /// addresses themselves are distributional, as for Path ORAM).
    #[test]
    fn gate_stage_event_counts_depend_only_on_window_size() {
        let windows: [Vec<u64>; 3] = [vec![1, 2, 3, 4], vec![9, 9, 9, 9], vec![0, 63, 0, 63]];
        let mut shapes = Vec::new();
        for w in &windows {
            let mut la = build(64, 4, 31);
            let (_, trace) = tracer::record_trace(|| la.stage_window(w));
            let count = |r: RegionId| trace.events().iter().filter(|e| e.region == r).count();
            shapes.push((count(LAORAM_POSMAP), count(LAORAM_STASH)));
        }
        for s in &shapes[1..] {
            assert_eq!(*s, shapes[0], "posmap/stash stage event counts varied");
        }
        // One posmap read scan and one stash insert scan per window slot.
        assert_eq!(shapes[0].0, 4);
        assert_eq!(shapes[0].1, 4);
    }

    /// Gate (ii): the full window trace (stage + serve + evict) is
    /// bit-identical between a read-only window and mixed read/write/
    /// gradient windows over the same indices — reads and writes are
    /// indistinguishable.
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

    /// The staged leaf fetches are fresh uniform draws for pad slots and
    /// posmap-invariant uniform leaves for real slots, so repeated hot-row
    /// windows must not converge to a fixed path set.
    #[test]
    fn staged_paths_vary_across_identical_hot_windows() {
        let mut la = build(256, 4, 55);
        let mut shapes = HashSet::new();
        for _ in 0..10 {
            let (_, trace) = tracer::record_trace(|| {
                la.stage_window(&[7, 7, 7, 7, 7, 7, 7, 7]);
            });
            let tree_offsets: Vec<u64> = trace
                .events()
                .iter()
                .filter(|e| e.region == LAORAM_TREE)
                .map(|e| e.offset)
                .collect();
            shapes.insert(tree_offsets);
            la.serve_window(&reads(&[7, 7, 7, 7, 7, 7, 7, 7]));
        }
        assert!(
            shapes.len() > 1,
            "repeated identical windows fetched identical tree paths"
        );
    }

    #[test]
    fn stats_accumulate_and_memory_accounted() {
        let mut la = build(64, 4, 8);
        la.process_window(&reads(&[1, 2, 3]));
        let s = la.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.posmap_accesses, 6); // 3 staged reads + 3 serve remaps
        assert!(s.bucket_reads > 0 && s.bucket_writes > 0);
        assert_eq!(s.evictions, 2); // ceil(3/2)
        assert!(la.memory_bytes() > 64 * 16);
        la.reset_stats();
        assert_eq!(la.stats(), AccessStats::default());
    }
}
