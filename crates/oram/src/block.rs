//! ORAM blocks: flat struct-of-arrays storage and borrowed views.
//!
//! Every block slot — in the tree, the stash, or a controller's scratch —
//! lives in a [`Slots`] arena: one `ids` array, one `leaves` array and one
//! contiguous payload array, allocated once. Controllers never own blocks;
//! they borrow [`BlockRef`]/[`BlockMut`] views of single slots and
//! [`BucketRef`]/[`BucketMut`] views of contiguous slot runs, and move
//! blocks between them with constant-time predicated copies.

use secemb_obliv::{cmp, select, Choice};
use std::ops::Range;

/// The id carried by dummy (empty) blocks.
pub const DUMMY_ID: u64 = u64::MAX;

/// Constant-time id match that is never true for dummies.
fn ct_id_is(slot_id: u64, id: u64) -> Choice {
    cmp::eq_u64(slot_id, id) & !cmp::eq_u64(slot_id, DUMMY_ID)
}

/// One owned block: the controllers' reusable single-block scratch (the
/// block being served, Circuit ORAM's held block).
///
/// A block with [`DUMMY_ID`] is a placeholder; its leaf and data are
/// meaningless. Dummies are physically identical to real blocks so that
/// bucket reads/writes cannot reveal occupancy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Logical block id, or [`DUMMY_ID`].
    pub id: u64,
    /// Leaf label this block is mapped to.
    pub leaf: u64,
    /// Payload (`block_words` `u32`s).
    pub data: Vec<u32>,
}

impl Block {
    /// A dummy block with a zeroed payload of `words` words.
    pub fn dummy(words: usize) -> Self {
        Block {
            id: DUMMY_ID,
            leaf: 0,
            data: vec![0; words],
        }
    }

    /// Whether this block is a dummy.
    pub fn is_dummy(&self) -> bool {
        self.id == DUMMY_ID
    }

    /// Immutable view of this block.
    pub fn as_ref(&self) -> BlockRef<'_> {
        BlockRef {
            id: self.id,
            leaf: self.leaf,
            data: &self.data,
        }
    }

    /// Mutable view of this block.
    pub fn as_mut(&mut self) -> BlockMut<'_> {
        BlockMut {
            id: &mut self.id,
            leaf: &mut self.leaf,
            data: &mut self.data,
        }
    }
}

/// Immutable view of one block slot.
#[derive(Clone, Copy, Debug)]
pub struct BlockRef<'a> {
    /// Logical block id, or [`DUMMY_ID`].
    pub id: u64,
    /// Leaf label this block is mapped to.
    pub leaf: u64,
    /// Payload words.
    pub data: &'a [u32],
}

impl BlockRef<'_> {
    /// Whether this slot holds a dummy.
    pub fn is_dummy(&self) -> bool {
        self.id == DUMMY_ID
    }

    /// Constant-time id match that is never true for dummies.
    pub fn ct_is(&self, id: u64) -> Choice {
        ct_id_is(self.id, id)
    }
}

/// Mutable view of one block slot; the constant-time block operations
/// live here.
#[derive(Debug)]
pub struct BlockMut<'a> {
    /// Logical block id, or [`DUMMY_ID`].
    pub id: &'a mut u64,
    /// Leaf label this block is mapped to.
    pub leaf: &'a mut u64,
    /// Payload words.
    pub data: &'a mut [u32],
}

impl BlockMut<'_> {
    /// Immutable view of the same slot.
    pub fn as_ref(&self) -> BlockRef<'_> {
        BlockRef {
            id: *self.id,
            leaf: *self.leaf,
            data: self.data,
        }
    }

    /// Marks this slot dummy (plain store: for scratch slots whose
    /// emptiness is public).
    pub fn set_dummy(&mut self) {
        *self.id = DUMMY_ID;
    }

    /// Constant-time: overwrite this slot with `src` when `cond` is set.
    ///
    /// # Panics
    ///
    /// Panics if payload lengths differ.
    pub fn ct_assign_from(&mut self, cond: Choice, src: BlockRef<'_>) {
        *self.id = select::u64(cond, src.id, *self.id);
        *self.leaf = select::u64(cond, src.leaf, *self.leaf);
        select::assign_slice_u32(cond, self.data, src.data);
    }

    /// Constant-time: when `cond` is set, move `src` into this slot and
    /// leave a dummy behind.
    pub fn ct_take_from(&mut self, cond: Choice, src: &mut BlockMut<'_>) {
        self.ct_assign_from(cond, src.as_ref());
        src.ct_clear(cond);
    }

    /// Constant-time: mark this slot dummy when `cond` is set.
    pub fn ct_clear(&mut self, cond: Choice) {
        *self.id = select::u64(cond, DUMMY_ID, *self.id);
    }

    /// Constant-time id match that is never true for dummies.
    pub fn ct_is(&self, id: u64) -> Choice {
        ct_id_is(*self.id, id)
    }

    /// Constant-time dummy test.
    pub fn ct_is_dummy(&self) -> Choice {
        cmp::eq_u64(*self.id, DUMMY_ID)
    }
}

/// A flat arena of block slots: ids, leaves and payloads in three dense
/// arrays, so metadata passes touch only the id/leaf arrays and payload
/// moves run over contiguous words.
#[derive(Clone, Debug)]
pub struct Slots {
    ids: Vec<u64>,
    leaves: Vec<u64>,
    data: Vec<u32>,
    words: usize,
}

impl Slots {
    /// `n` dummy slots of `words` payload words each. The payload array is
    /// one zero-initialised allocation.
    pub fn dummy(n: usize, words: usize) -> Self {
        Slots {
            ids: vec![DUMMY_ID; n],
            leaves: vec![0; n],
            data: vec![0; n * words],
            words,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Immutable view of slots `range`.
    pub fn view(&self, range: Range<usize>) -> BucketRef<'_> {
        BucketRef {
            ids: &self.ids[range.clone()],
            leaves: &self.leaves[range.clone()],
            data: &self.data[range.start * self.words..range.end * self.words],
            words: self.words,
        }
    }

    /// Mutable view of slots `range`.
    pub fn view_mut(&mut self, range: Range<usize>) -> BucketMut<'_> {
        BucketMut {
            ids: &mut self.ids[range.clone()],
            leaves: &mut self.leaves[range.clone()],
            data: &mut self.data[range.start * self.words..range.end * self.words],
            words: self.words,
        }
    }

    /// Immutable view of every slot.
    pub fn all(&self) -> BucketRef<'_> {
        self.view(0..self.len())
    }

    /// Mutable view of every slot.
    pub fn all_mut(&mut self) -> BucketMut<'_> {
        self.view_mut(0..self.len())
    }

    /// Bytes actually held by the three arrays.
    pub fn memory_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.ids.as_slice())
            + std::mem::size_of_val(self.leaves.as_slice())
            + std::mem::size_of_val(self.data.as_slice())) as u64
    }
}

/// Immutable view of a contiguous run of slots (a tree bucket, the stash,
/// a scratch buffer).
#[derive(Clone, Copy, Debug)]
pub struct BucketRef<'a> {
    /// The slots' ids (dense: metadata passes read only this and
    /// `leaves`).
    pub ids: &'a [u64],
    /// The slots' leaf labels.
    pub leaves: &'a [u64],
    data: &'a [u32],
    words: usize,
}

impl<'a> BucketRef<'a> {
    /// Views of every slot, in order.
    pub fn slots(&self) -> impl Iterator<Item = BlockRef<'a>> {
        self.ids
            .iter()
            .zip(self.leaves)
            .zip(self.data.chunks_exact(self.words))
            .map(|((&id, &leaf), data)| BlockRef { id, leaf, data })
    }
}

/// Mutable view of a contiguous run of slots.
#[derive(Debug)]
pub struct BucketMut<'a> {
    ids: &'a mut [u64],
    leaves: &'a mut [u64],
    data: &'a mut [u32],
    words: usize,
}

impl<'a> BucketMut<'a> {
    /// Mutable view of slot `i`, consuming this view.
    pub fn into_slot(self, i: usize) -> BlockMut<'a> {
        BlockMut {
            id: &mut self.ids[i],
            leaf: &mut self.leaves[i],
            data: &mut self.data[i * self.words..(i + 1) * self.words],
        }
    }

    /// Mutable views of every slot, in order.
    pub fn slots_mut(&mut self) -> impl Iterator<Item = BlockMut<'_>> {
        self.ids
            .iter_mut()
            .zip(self.leaves.iter_mut())
            .zip(self.data.chunks_exact_mut(self.words))
            .map(|((id, leaf), data)| BlockMut { id, leaf, data })
    }

    /// Constant-time: copy `block` into the first dummy slot of the run
    /// (every slot is visited and rewritten). Returns whether one was free.
    pub fn ct_place(&mut self, block: BlockRef<'_>) -> Choice {
        let mut placed = Choice::FALSE;
        for mut slot in self.slots_mut() {
            let take = slot.ct_is_dummy() & !placed;
            slot.ct_assign_from(take, block);
            placed = placed | take;
        }
        placed
    }

    /// Plain whole-run copy (the run's address is public; only *which
    /// block* sits in a slot is secret, and that is decided before the
    /// copy).
    ///
    /// # Panics
    ///
    /// Panics if the two runs differ in slot count or payload width.
    pub fn copy_from(&mut self, src: BucketRef<'_>) {
        self.ids.copy_from_slice(src.ids);
        self.leaves.copy_from_slice(src.leaves);
        self.data.copy_from_slice(src.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_properties() {
        let mut d = Block::dummy(4);
        assert!(d.is_dummy());
        assert!(d.as_mut().ct_is_dummy().to_bool());
        assert!(
            !d.as_ref().ct_is(DUMMY_ID).to_bool(),
            "dummies never match an id"
        );
        assert_eq!(d.data, vec![0; 4]);
    }

    #[test]
    fn ct_assign_and_clear() {
        let src = Block {
            id: 7,
            leaf: 3,
            data: vec![1, 2],
        };
        let mut dst = Block::dummy(2);
        dst.as_mut().ct_assign_from(Choice::FALSE, src.as_ref());
        assert!(dst.is_dummy());
        dst.as_mut().ct_assign_from(Choice::TRUE, src.as_ref());
        assert_eq!(dst, src);
        assert!(dst.as_ref().ct_is(7).to_bool());
        dst.as_mut().ct_clear(Choice::FALSE);
        assert!(!dst.is_dummy());
        dst.as_mut().ct_clear(Choice::TRUE);
        assert!(dst.is_dummy());
    }

    #[test]
    fn ct_take_moves_and_leaves_a_dummy() {
        let mut arena = Slots::dummy(2, 2);
        {
            let s = arena.view_mut(1..2).into_slot(0);
            *s.id = 9;
            *s.leaf = 4;
            s.data.copy_from_slice(&[5, 6]);
        }
        let mut hold = Block::dummy(2);
        for mut slot in arena.all_mut().slots_mut() {
            let take = slot.ct_is(9);
            hold.as_mut().ct_take_from(take, &mut slot);
        }
        assert_eq!(
            (hold.id, hold.leaf, hold.data.as_slice()),
            (9, 4, &[5, 6][..])
        );
        assert!(arena.all().slots().all(|b| b.is_dummy()));
    }

    #[test]
    fn views_address_the_right_words() {
        let mut arena = Slots::dummy(6, 3);
        for (i, slot) in arena.all_mut().slots_mut().enumerate() {
            *slot.id = i as u64;
            slot.data.fill(i as u32);
        }
        let bucket = arena.view(2..4);
        assert_eq!(bucket.ids, &[2, 3]);
        assert_eq!(bucket.slots().nth(1).unwrap().data, &[3, 3, 3]);
        let mut scratch = Slots::dummy(2, 3);
        scratch.all_mut().copy_from(bucket);
        let first = scratch.all().slots().next().unwrap();
        assert_eq!((first.id, first.data), (2, &[2, 2, 2][..]));
    }

    #[test]
    fn memory_bytes_counts_the_three_arrays() {
        let arena = Slots::dummy(5, 7);
        assert_eq!(arena.memory_bytes(), 5 * (8 + 8 + 7 * 4));
    }
}
