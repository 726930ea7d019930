//! Constant-time, branchless "oblivious" primitives.
//!
//! The paper's secure implementations replace secret-dependent control flow
//! with predicated execution: `cmov` on x86 for the ORAM controllers
//! (following ZeroTrace) and AVX-512 mask/blend instructions for the linear
//! scan and ReLU. This crate provides the portable Rust equivalent: every
//! operation whose inputs may be secret is expressed as straight-line mask
//! arithmetic with no secret-dependent branch and no secret-dependent memory
//! address.
//!
//! Two properties are maintained by everything in this crate:
//!
//! 1. **No secret-dependent control flow.** Conditions are carried as a
//!    [`Choice`] (an all-zeros or all-ones machine word) and applied with
//!    bitwise select, never with `if`/`match` on a secret.
//! 2. **No secret-dependent addresses.** Routines touch the same sequence of
//!    memory locations regardless of secret values (e.g.
//!    [`scan::scan_copy_rows`] reads *every* row of a table).
//!
//! The compiler is prevented from re-introducing branches by routing masks
//! through [`core::hint::black_box`], the same role the inline-assembly
//! `cmov` wrapper plays in ZeroTrace.
//!
//! # Example
//!
//! ```
//! use secemb_obliv::{Choice, select};
//!
//! let secret_cond = Choice::from_bool(true);
//! let x = select::u64(secret_cond, 7, 99);
//! assert_eq!(x, 7);
//! ```

// `deny`, not `forbid`: the one exception is the call through the cached
// ISA dispatch pointer in `scan::run`, `#[allow]`ed there.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod choice;
pub mod cmp;
pub mod isa;
pub mod scan;
pub mod select;
pub mod sort;

pub use choice::Choice;

/// Branchless conditional swap of two `u64` values.
///
/// When `cond` is set, `a` and `b` exchange values; otherwise both are left
/// unchanged. The sequence of operations is identical in both cases.
///
/// ```
/// use secemb_obliv::{ct_swap_u64, Choice};
/// let (mut a, mut b) = (1u64, 2u64);
/// ct_swap_u64(Choice::from_bool(true), &mut a, &mut b);
/// assert_eq!((a, b), (2, 1));
/// ```
pub fn ct_swap_u64(cond: Choice, a: &mut u64, b: &mut u64) {
    let diff = (*a ^ *b) & cond.mask();
    *a ^= diff;
    *b ^= diff;
}

/// Branchless conditional swap of two `f32` values (via bit patterns).
pub fn ct_swap_f32(cond: Choice, a: &mut f32, b: &mut f32) {
    let (ba, bb) = (a.to_bits(), b.to_bits());
    let diff = (ba ^ bb) & (cond.mask() as u32);
    *a = f32::from_bits(ba ^ diff);
    *b = f32::from_bits(bb ^ diff);
}

/// Branchless conditional swap of two equal-length `f32` slices.
///
/// # Panics
///
/// Panics if the slices have different lengths (lengths are public).
pub fn ct_swap_slice_f32(cond: Choice, a: &mut [f32], b: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "ct_swap_slice_f32: length mismatch");
    let mask = cond.mask() as u32;
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let (bx, by) = (x.to_bits(), y.to_bits());
        let diff = (bx ^ by) & mask;
        *x = f32::from_bits(bx ^ diff);
        *y = f32::from_bits(by ^ diff);
    }
}

/// Constant-time ReLU: `max(x, 0.0)` without a secret-dependent branch.
///
/// This mirrors the paper's AVX-512 proof-of-concept: the sign bit of the
/// IEEE-754 representation is expanded into a full mask that zeroes negative
/// lanes (negative zero included, which still compares equal to `0.0`).
///
/// ```
/// use secemb_obliv::ct_relu;
/// assert_eq!(ct_relu(3.5), 3.5);
/// assert_eq!(ct_relu(-2.0), 0.0);
/// assert_eq!(ct_relu(0.0), 0.0);
/// ```
pub fn ct_relu(x: f32) -> f32 {
    let bits = x.to_bits();
    // Arithmetic shift of the sign bit yields all-ones for negative values.
    let neg_mask = ((bits as i32) >> 31) as u32;
    let keep = core::hint::black_box(!neg_mask);
    f32::from_bits(bits & keep)
}

/// Applies [`ct_relu`] to every element of a slice in place.
pub fn ct_relu_slice(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = ct_relu(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_u64_taken_and_not() {
        let (mut a, mut b) = (10u64, 20u64);
        ct_swap_u64(Choice::from_bool(false), &mut a, &mut b);
        assert_eq!((a, b), (10, 20));
        ct_swap_u64(Choice::from_bool(true), &mut a, &mut b);
        assert_eq!((a, b), (20, 10));
    }

    #[test]
    fn swap_f32_taken_and_not() {
        let (mut a, mut b) = (1.5f32, -2.25f32);
        ct_swap_f32(Choice::from_bool(true), &mut a, &mut b);
        assert_eq!((a, b), (-2.25, 1.5));
        ct_swap_f32(Choice::from_bool(false), &mut a, &mut b);
        assert_eq!((a, b), (-2.25, 1.5));
    }

    #[test]
    fn swap_slices() {
        let mut a = vec![1.0f32, 2.0, 3.0];
        let mut b = vec![4.0f32, 5.0, 6.0];
        ct_swap_slice_f32(Choice::from_bool(true), &mut a, &mut b);
        assert_eq!(a, vec![4.0, 5.0, 6.0]);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn swap_slices_len_mismatch_panics() {
        let mut a = vec![1.0f32];
        let mut b = vec![2.0f32, 3.0];
        ct_swap_slice_f32(Choice::from_bool(true), &mut a, &mut b);
    }

    #[test]
    fn relu_matches_reference() {
        for &x in &[-1.0f32, -0.0, 0.0, 0.5, 1e30, -1e30, f32::MIN_POSITIVE] {
            assert_eq!(ct_relu(x), x.max(0.0), "x = {x}");
        }
    }

    #[test]
    fn relu_slice() {
        let mut xs = vec![-1.0f32, 2.0, -3.0, 4.0];
        ct_relu_slice(&mut xs);
        assert_eq!(xs, vec![0.0, 2.0, 0.0, 4.0]);
    }
}
