//! Constant-time selection (`cmov`-style) between two values.
//!
//! `select::ty(cond, a, b)` returns `a` when `cond` is set and `b`
//! otherwise, using only mask arithmetic — the software analogue of the
//! x86 `cmov` instruction that ZeroTrace wraps in assembly.

use crate::Choice;

/// Selects between two `u64` values: `cond ? a : b`.
///
/// ```
/// use secemb_obliv::{select, Choice};
/// assert_eq!(select::u64(Choice::TRUE, 1, 2), 1);
/// assert_eq!(select::u64(Choice::FALSE, 1, 2), 2);
/// ```
#[inline]
pub fn u64(cond: Choice, a: u64, b: u64) -> u64 {
    let m = cond.mask();
    (a & m) | (b & !m)
}

/// Selects between two `u32` values: `cond ? a : b`.
#[inline]
pub fn u32(cond: Choice, a: u32, b: u32) -> u32 {
    let m = cond.mask() as u32;
    (a & m) | (b & !m)
}

/// Selects between two `usize` values: `cond ? a : b`.
#[inline]
pub fn usize(cond: Choice, a: usize, b: usize) -> usize {
    u64(cond, a as u64, b as u64) as usize
}

/// Selects between two `f32` values via their bit patterns.
///
/// ```
/// use secemb_obliv::{select, Choice};
/// assert_eq!(select::f32(Choice::TRUE, 1.5, -2.0), 1.5);
/// assert_eq!(select::f32(Choice::FALSE, 1.5, -2.0), -2.0);
/// ```
#[inline]
pub fn f32(cond: Choice, a: f32, b: f32) -> f32 {
    f32::from_bits(u32(cond, a.to_bits(), b.to_bits()))
}

/// Overwrites `dst` with `src` when `cond` is set; leaves it untouched (but
/// still rewritten with its own value) otherwise.
///
/// Both the read and the write to `dst` happen unconditionally, so the
/// memory trace is independent of `cond`. This is the primitive behind the
/// paper's AVX `blend`-based linear scan.
///
/// # Panics
///
/// Panics if the slices have different lengths (lengths are public).
///
/// ```
/// use secemb_obliv::{select, Choice};
/// let mut out = [0.0f32; 3];
/// select::assign_slice_f32(Choice::TRUE, &mut out, &[1.0, 2.0, 3.0]);
/// assert_eq!(out, [1.0, 2.0, 3.0]);
/// ```
#[inline]
pub fn assign_slice_f32(cond: Choice, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "assign_slice_f32: length mismatch");
    let m = cond.mask() as u32;
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        let db = d.to_bits();
        let sb = s.to_bits();
        *d = f32::from_bits((sb & m) | (db & !m));
    }
}

/// Conditional assignment of a `u32` slice, element-wise: the payload
/// kernel under every ORAM block move (tree ↔ stash ↔ eviction scratch).
/// Reads and rewrites every word of `dst` whatever `cond` is.
///
/// # Panics
///
/// Panics if the slices have different lengths (lengths are public).
///
/// ```
/// use secemb_obliv::{select, Choice};
/// let mut out = [9u32; 3];
/// select::assign_slice_u32(Choice::FALSE, &mut out, &[1, 2, 3]);
/// assert_eq!(out, [9, 9, 9]);
/// select::assign_slice_u32(Choice::TRUE, &mut out, &[1, 2, 3]);
/// assert_eq!(out, [1, 2, 3]);
/// ```
#[inline]
pub fn assign_slice_u32(cond: Choice, dst: &mut [u32], src: &[u32]) {
    assert_eq!(dst.len(), src.len(), "assign_slice_u32: length mismatch");
    let m = cond.mask() as u32;
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = (*s & m) | (*d & !m);
    }
}

/// Conditional assignment of a single `u64`: `*dst = cond ? src : *dst`.
#[inline]
pub fn assign_u64(cond: Choice, dst: &mut u64, src: u64) {
    *dst = u64(cond, src, *dst);
}

/// Conditional assignment of a byte slice, element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn assign_slice_u8(cond: Choice, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "assign_slice_u8: length mismatch");
    let m = cond.mask() as u8;
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d = (*s & m) | (*d & !m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_selects() {
        assert_eq!(u64(Choice::TRUE, 5, 9), 5);
        assert_eq!(u64(Choice::FALSE, 5, 9), 9);
        assert_eq!(u32(Choice::TRUE, 5, 9), 5);
        assert_eq!(usize(Choice::FALSE, 5, 9), 9);
        assert_eq!(f32(Choice::TRUE, -1.0, 1.0), -1.0);
    }

    #[test]
    fn slice_assign_taken() {
        let mut dst = vec![9.0f32; 4];
        assign_slice_f32(Choice::TRUE, &mut dst, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_assign_not_taken() {
        let mut dst = vec![9.0f32; 4];
        assign_slice_f32(Choice::FALSE, &mut dst, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(dst, vec![9.0; 4]);
    }

    #[test]
    fn byte_assign() {
        let mut dst = vec![0u8; 3];
        assign_slice_u8(Choice::TRUE, &mut dst, &[1, 2, 3]);
        assert_eq!(dst, vec![1, 2, 3]);
        assign_slice_u8(Choice::FALSE, &mut dst, &[7, 8, 9]);
        assert_eq!(dst, vec![1, 2, 3]);
    }

    #[test]
    fn word_assign() {
        let mut dst = vec![0u32; 3];
        assign_slice_u32(Choice::TRUE, &mut dst, &[1, 2, u32::MAX]);
        assert_eq!(dst, vec![1, 2, u32::MAX]);
        assign_slice_u32(Choice::FALSE, &mut dst, &[7, 8, 9]);
        assert_eq!(dst, vec![1, 2, u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "assign_slice_u32: length mismatch")]
    fn word_assign_len_mismatch_panics() {
        assign_slice_u32(Choice::TRUE, &mut [0u32; 2], &[1]);
    }

    #[test]
    fn assign_u64_scalar() {
        let mut x = 1u64;
        assign_u64(Choice::FALSE, &mut x, 42);
        assert_eq!(x, 1);
        assign_u64(Choice::TRUE, &mut x, 42);
        assert_eq!(x, 42);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn assign_len_mismatch_panics() {
        let mut dst = vec![0.0f32; 2];
        assign_slice_f32(Choice::TRUE, &mut dst, &[1.0]);
    }
}
