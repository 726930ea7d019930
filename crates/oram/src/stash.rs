//! The oblivious stash.
//!
//! A fixed-capacity [`Slots`] arena. Every operation visits *all* slots
//! with constant-time predicated updates, mirroring ZeroTrace's
//! `cmov`-hardened stash loops; each full pass is reported to the tracer as
//! one whole-stash access. Blocks enter and leave through borrowed views,
//! so no operation allocates.

use crate::block::{Block, BlockMut, BlockRef, BucketRef, Slots};
use crate::config::OramConfig;
use crate::setup::trace_len;
use crate::stats::AccessStats;
use secemb_obliv::Choice;
use secemb_trace::tracer::{self, RegionId};

/// A fixed-size oblivious stash.
#[derive(Clone, Debug)]
pub struct Stash {
    slots: Slots,
    /// The block being served by [`Stash::find_update`].
    found: Block,
    region: RegionId,
    /// The whole stash's byte size as a trace event length, validated once.
    scan_len: u32,
}

impl Stash {
    /// Creates a stash of `config.stash_capacity` dummy slots.
    ///
    /// # Panics
    ///
    /// Panics if the stash's byte size does not fit a trace event length.
    pub fn new(config: &OramConfig, region: RegionId) -> Self {
        let scan_len = trace_len(config.stash_capacity as u64 * config.block_bytes());
        Stash {
            slots: Slots::dummy(config.stash_capacity, config.block_words),
            found: Block::dummy(config.block_words),
            region,
            scan_len,
        }
    }

    /// Capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of real (non-dummy) blocks currently held. This declassifies
    /// occupancy, which is public in both controllers (it is bounded by the
    /// stash-overflow theorem, not by the access sequence).
    pub fn occupancy(&self) -> usize {
        self.slots().slots().filter(|b| !b.is_dummy()).count()
    }

    /// Immutable, untraced view of the slots (metadata preparation and
    /// invariant checks).
    pub fn slots(&self) -> BucketRef<'_> {
        self.slots.all()
    }

    /// Obliviously inserts `block` into some dummy slot (full scan).
    ///
    /// # Panics
    ///
    /// Panics with "stash overflow" if no slot was free — the negligible-
    /// probability failure event of the ORAM theorems, which must abort
    /// rather than silently drop a block.
    pub fn insert(&mut self, block: BlockRef<'_>, stats: &mut AccessStats) {
        self.trace_scan(stats, true);
        let placed = self.slots.all_mut().ct_place(block);
        assert!(
            placed.to_bool() || block.is_dummy(),
            "stash overflow: no free slot (capacity {})",
            self.slots.len()
        );
    }

    /// Obliviously finds block `id`, remaps it to `new_leaf`, applies
    /// `mutate` to its payload, and reports whether it was present. When
    /// it is absent `mutate` runs on a zeroed payload and nothing is
    /// stored.
    ///
    /// Performs exactly two full scans (locate+extract, then write-back)
    /// regardless of where — or whether — the block is found.
    pub fn find_update(
        &mut self,
        id: u64,
        new_leaf: u64,
        mutate: &mut dyn FnMut(&mut [u32]),
        stats: &mut AccessStats,
    ) -> bool {
        // Scan 1: extract a copy of the matching block.
        self.trace_scan(stats, true);
        let found = &mut self.found;
        found.as_mut().set_dummy();
        found.data.fill(0);
        let mut hit = Choice::FALSE;
        for slot in self.slots.all().slots() {
            let take = slot.ct_is(id);
            found.as_mut().ct_assign_from(take, slot);
            hit = hit | take;
        }
        // Mutate the copy (public-shape computation on secret data).
        found.leaf = new_leaf;
        mutate(&mut found.data);
        found.id = id;
        // Scan 2: write the mutated copy back into the matching slot.
        self.trace_scan(stats, false);
        for mut slot in self.slots.all_mut().slots_mut() {
            let take = slot.ct_is(id);
            slot.ct_assign_from(take, self.found.as_ref());
        }
        hit.to_bool()
    }

    /// Obliviously moves block `id` out of the stash into `out`; `out` is
    /// left untouched if the block is absent. One full scan.
    pub fn extract(&mut self, id: u64, mut out: BlockMut<'_>, stats: &mut AccessStats) {
        self.trace_scan(stats, true);
        for mut slot in self.slots.all_mut().slots_mut() {
            let take = slot.ct_is(id);
            out.ct_take_from(take, &mut slot);
        }
    }

    /// Obliviously moves the block that can go deepest on the path scored
    /// by `deepest_legal` (ties broken by slot order) into `out`; `out` is
    /// left untouched when the stash is empty. Used by Circuit ORAM's
    /// eviction. One full scan.
    pub fn extract_deepest(
        &mut self,
        deepest_legal: impl Fn(u64) -> u32,
        mut out: BlockMut<'_>,
        stats: &mut AccessStats,
    ) {
        self.trace_scan(stats, true);
        // Pass 1 (plain metadata, constant shape): find the winner index.
        let mut best: Option<(u32, usize)> = None;
        let view = self.slots.all();
        for (i, (&id, &leaf)) in view.ids.iter().zip(view.leaves).enumerate() {
            if id == crate::DUMMY_ID {
                continue;
            }
            let depth = deepest_legal(leaf);
            if best.is_none_or(|(d, _)| depth > d) {
                best = Some((depth, i));
            }
        }
        // Pass 2: constant-time extraction by index.
        if let Some((_, winner)) = best {
            for (i, mut slot) in self.slots.all_mut().slots_mut().enumerate() {
                let take = Choice::from_bool(i == winner);
                out.ct_take_from(take, &mut slot);
            }
        }
    }

    /// Obliviously moves the first block eligible to reside at `min_level`
    /// or deeper (per `deepest_legal`) into `out`; `out` is left untouched
    /// when none qualifies. One full scan. This is Path ORAM's write-back
    /// selection — the loop the paper singles out as Path ORAM's cost
    /// driver, since it runs once per bucket slot per level.
    pub fn extract_eligible(
        &mut self,
        min_level: u32,
        deepest_legal: impl Fn(u64) -> u32,
        out: BlockMut<'_>,
        stats: &mut AccessStats,
    ) {
        self.extract_eligible_if(Choice::TRUE, min_level, deepest_legal, out, stats)
    }

    /// As [`Stash::extract_eligible`], but only takes a block when `want`
    /// is set — the whole-stash scan (and its trace event) happens either
    /// way, so callers can fold the stash into a larger constant-shape
    /// selection. LAORAM's combined eviction scans its local path scratch
    /// first and falls through to the stash only when the scratch had no
    /// candidate, without the trace revealing which source won.
    pub fn extract_eligible_if(
        &mut self,
        want: Choice,
        min_level: u32,
        deepest_legal: impl Fn(u64) -> u32,
        mut out: BlockMut<'_>,
        stats: &mut AccessStats,
    ) {
        self.trace_scan(stats, true);
        let mut done = !want;
        for mut slot in self.slots.all_mut().slots_mut() {
            let eligible =
                !slot.ct_is_dummy() & Choice::from_bool(deepest_legal(*slot.leaf) >= min_level);
            let take = eligible & !done;
            out.ct_take_from(take, &mut slot);
            done = done | take;
        }
    }

    /// Whether any real block exists, and the deepest level reachable by a
    /// stash block on the path scored by `deepest_legal`. Reads only the
    /// dense id/leaf arrays.
    pub fn deepest_level(&self, deepest_legal: impl Fn(u64) -> u32) -> Option<u32> {
        let view = self.slots.all();
        view.ids
            .iter()
            .zip(view.leaves)
            .filter(|(&id, _)| id != crate::DUMMY_ID)
            .map(|(_, &leaf)| deepest_legal(leaf))
            .max()
    }

    /// A free slot for initial placement (setup time, untraced); the
    /// caller fills it in place.
    ///
    /// # Panics
    ///
    /// Panics if the stash is full.
    pub fn free_slot_untraced(&mut self) -> BlockMut<'_> {
        let free = self
            .slots()
            .ids
            .iter()
            .position(|&id| id == crate::DUMMY_ID)
            .expect("stash overflow during initial placement");
        self.slots.all_mut().into_slot(free)
    }

    /// Stash memory in bytes: what the arena really holds.
    pub fn memory_bytes(&self) -> u64 {
        self.slots.memory_bytes()
    }

    fn trace_scan(&self, stats: &mut AccessStats, read: bool) {
        stats.stash_scans += 1;
        stats.stash_slots_scanned += self.slots.len() as u64;
        if read {
            tracer::read(self.region, 0, self.scan_len);
        } else {
            tracer::write(self.region, 0, self.scan_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb_trace::tracer::regions;

    fn stash(cap: usize) -> (Stash, AccessStats) {
        let mut cfg = OramConfig::path(2);
        cfg.stash_capacity = cap;
        (
            Stash::new(&cfg, regions::ORAM_STASH),
            AccessStats::default(),
        )
    }

    fn blk(id: u64, leaf: u64) -> Block {
        Block {
            id,
            leaf,
            data: vec![id as u32, (id * 2) as u32],
        }
    }

    #[test]
    fn insert_find_extract() {
        let (mut s, mut st) = stash(4);
        s.insert(blk(5, 1).as_ref(), &mut st);
        s.insert(blk(9, 2).as_ref(), &mut st);
        assert_eq!(s.occupancy(), 2);

        let mut seen = Vec::new();
        let found = s.find_update(
            5,
            7,
            &mut |d| {
                d[0] += 100;
                seen = d.to_vec();
            },
            &mut st,
        );
        assert!(found);
        assert_eq!(seen, vec![105, 10]);

        let mut b = Block::dummy(2);
        s.extract(5, b.as_mut(), &mut st);
        assert_eq!(b.id, 5);
        assert_eq!(b.leaf, 7, "leaf was remapped by find_update");
        assert_eq!(b.data, vec![105, 10]);
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn find_missing_reports_absent() {
        let (mut s, mut st) = stash(4);
        s.insert(blk(1, 0).as_ref(), &mut st);
        let mut seen = vec![7, 7];
        let found = s.find_update(99, 0, &mut |d| seen = d.to_vec(), &mut st);
        assert!(!found);
        assert_eq!(seen, vec![0, 0], "an absent block reads as zeros");
        assert_eq!(s.occupancy(), 1, "missing lookups must not corrupt state");
        let mut out = blk(3, 3);
        s.extract(99, out.as_mut(), &mut st);
        assert_eq!(out, blk(3, 3), "an absent block leaves `out` untouched");
    }

    #[test]
    fn extract_deepest_prefers_depth() {
        let (mut s, mut st) = stash(4);
        s.insert(blk(1, 0b000).as_ref(), &mut st);
        s.insert(blk(2, 0b110).as_ref(), &mut st);
        // Score: common-prefix depth with path 0b111 (3 levels).
        let score = |leaf: u64| -> u32 {
            let x = leaf ^ 0b111;
            if x == 0 {
                3
            } else {
                3 - 1 - (63 - x.leading_zeros()).min(2)
            }
        };
        assert_eq!(s.deepest_level(score), Some(2));
        let mut b = Block::dummy(2);
        s.extract_deepest(score, b.as_mut(), &mut st);
        assert_eq!(b.id, 2);
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn extract_deepest_on_empty_gives_dummy() {
        let (mut s, mut st) = stash(2);
        let mut b = Block::dummy(2);
        s.extract_deepest(|_| 0, b.as_mut(), &mut st);
        assert!(b.is_dummy());
        assert_eq!(s.deepest_level(|_| 0), None);
    }

    #[test]
    fn extract_eligible_if_false_scans_but_takes_nothing() {
        let (mut s, mut st) = stash(4);
        s.insert(blk(1, 0).as_ref(), &mut st);
        let scans_before = st.stash_scans;
        let mut b = Block::dummy(2);
        s.extract_eligible_if(Choice::FALSE, 0, |_| 5, b.as_mut(), &mut st);
        assert!(b.is_dummy(), "want=FALSE must extract nothing");
        assert_eq!(s.occupancy(), 1, "stash contents must be untouched");
        assert_eq!(st.stash_scans, scans_before + 1, "the scan still runs");
        s.extract_eligible_if(Choice::TRUE, 0, |_| 5, b.as_mut(), &mut st);
        assert_eq!(b.id, 1, "want=TRUE behaves like extract_eligible");
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "stash overflow")]
    fn overflow_panics() {
        let (mut s, mut st) = stash(1);
        s.insert(blk(1, 0).as_ref(), &mut st);
        s.insert(blk(2, 0).as_ref(), &mut st);
    }

    #[test]
    fn dummy_insert_never_overflows() {
        let (mut s, mut st) = stash(1);
        s.insert(blk(1, 0).as_ref(), &mut st);
        s.insert(Block::dummy(2).as_ref(), &mut st); // no-op, must not panic
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn scans_are_whole_stash_events() {
        let (mut s, mut st) = stash(3);
        let ((), trace) = secemb_trace::tracer::record_trace(|| {
            s.insert(blk(1, 0).as_ref(), &mut st);
        });
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].len as u64, 3 * (2 * 4 + 16));
        assert_eq!(st.stash_slots_scanned, 3);
    }

    #[test]
    fn memory_bytes_is_what_the_arena_holds() {
        let cfg = OramConfig::path(64);
        let s = Stash::new(&cfg, regions::ORAM_STASH);
        assert_eq!(s.memory_bytes(), s.slots.memory_bytes());
        assert_eq!(
            s.memory_bytes(),
            cfg.stash_capacity as u64 * cfg.block_bytes(),
            "modelled footprint must equal the resident arrays"
        );
    }

    #[test]
    #[should_panic(expected = "trace event length exceeds u32")]
    fn rejects_a_stash_too_wide_for_a_trace_event() {
        // 150 slots x 64 MiB payload: validated before anything is allocated.
        Stash::new(&OramConfig::path(1 << 24), regions::ORAM_STASH);
    }
}
