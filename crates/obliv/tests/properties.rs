//! Property-based tests: every oblivious primitive must agree with its
//! straightforward (branching) reference implementation on all inputs.

use proptest::prelude::*;
use secemb_obliv::isa::Isa;
use secemb_obliv::{cmp, scan, select, sort, Choice};

/// Bit patterns a float-typed copy could mangle: both zeros, quiet and
/// signalling NaNs of either sign with payloads, subnormals, infinities.
const AWKWARD_BITS: [u32; 10] = [
    0x0000_0000,
    0x8000_0000,
    0x7fc0_0001,
    0xffc1_2345,
    0x7f80_0001,
    0xff80_0001,
    0x0000_0001,
    0x807f_ffff,
    0x7f80_0000,
    0xff80_0000,
];

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #[test]
    fn eq_matches(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(cmp::eq_u64(a, b).to_bool(), a == b);
    }

    #[test]
    fn eq_reflexive(a in any::<u64>()) {
        prop_assert!(cmp::eq_u64(a, a).to_bool());
    }

    #[test]
    fn lt_matches(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(cmp::lt_u64(a, b).to_bool(), a < b);
        prop_assert_eq!(cmp::le_u64(a, b).to_bool(), a <= b);
        prop_assert_eq!(cmp::gt_u64(a, b).to_bool(), a > b);
        prop_assert_eq!(cmp::ge_u64(a, b).to_bool(), a >= b);
    }

    #[test]
    fn float_cmp_matches(a in -1e30f32..1e30, b in -1e30f32..1e30) {
        prop_assert_eq!(cmp::gt_f32(a, b).to_bool(), a > b);
        prop_assert_eq!(cmp::lt_f32(a, b).to_bool(), a < b);
    }

    #[test]
    fn select_matches(c in any::<bool>(), a in any::<u64>(), b in any::<u64>()) {
        let expected = if c { a } else { b };
        prop_assert_eq!(select::u64(Choice::from_bool(c), a, b), expected);
    }

    #[test]
    fn select_f32_matches(c in any::<bool>(), a in any::<f32>(), b in any::<f32>()) {
        let expected = if c { a } else { b };
        let got = select::f32(Choice::from_bool(c), a, b);
        prop_assert_eq!(got.to_bits(), expected.to_bits());
    }

    #[test]
    fn scan_copy_matches_index(
        rows in prop::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        // One-column table: each element is a row.
        let n = rows.len();
        for idx in 0..n {
            let mut out = [0.0f32];
            scan::scan_copy_row(&rows, 1, idx as u64, &mut out);
            prop_assert_eq!(out[0], rows[idx]);
        }
    }

    #[test]
    fn scan_copy_multi_dim(
        n in 1usize..20,
        dim in 1usize..9,
        seed in any::<u64>(),
    ) {
        let table: Vec<f32> = (0..n * dim)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) % 1000) as f32)
            .collect();
        let idx = (seed % n as u64) as usize;
        let mut out = vec![0.0f32; dim];
        scan::scan_copy_row(&table, dim, idx as u64, &mut out);
        prop_assert_eq!(&out[..], &table[idx * dim..(idx + 1) * dim]);
    }

    #[test]
    fn argmax_matches_reference(xs in prop::collection::vec(-1e6f32..1e6, 1..128)) {
        let expected = xs
            .iter()
            .enumerate()
            .max_by(|(i, a), (j, b)| a.partial_cmp(b).unwrap().then(j.cmp(i)))
            .map(|(i, _)| i as u64)
            .unwrap();
        prop_assert_eq!(scan::argmax_f32(&xs), expected);
        let expected_max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(scan::max_f32(&xs), expected_max);
    }

    #[test]
    fn bitonic_sorts(xs in prop::collection::vec(any::<u64>(), 0..100)) {
        let mut got = xs.clone();
        sort::bitonic(&mut got);
        let mut expected = xs;
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn bitonic_by_key_is_permutation(xs in prop::collection::vec(0u64..50, 1..60)) {
        let mut keys = xs.clone();
        let mut vals: Vec<u64> = (0..xs.len() as u64).collect();
        sort::bitonic_by_key(&mut keys, &mut vals);
        // keys sorted
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // (key, value) pairs are a permutation of the input pairing
        let mut got: Vec<(u64, u64)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        let mut expect: Vec<(u64, u64)> =
            xs.iter().copied().zip(0u64..xs.len() as u64).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn onehot_equals_scan(
        n in 1usize..16,
        dim in 1usize..6,
        seed in any::<u64>(),
    ) {
        let table: Vec<f32> = (0..n * dim).map(|i| (i as f32).sin()).collect();
        let idx = seed % n as u64;
        let mut a = vec![0.0f32; dim];
        let mut b = vec![9.0f32; dim];
        scan::onehot_matmul_row(&table, dim, idx, &mut a);
        scan::scan_copy_row(&table, dim, idx, &mut b);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    // Each case scans up to 3000 x 130 words 70 times per ISA level.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_kernels_match_direct_indexing(
        rows in 1usize..=3000,
        dim in 1usize..=130,
        batch in 0usize..=70,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let table: Vec<f32> = (0..rows * dim)
            .map(|_| {
                let word = xorshift(&mut state);
                let bits = if word & 3 == 0 {
                    AWKWARD_BITS[(word >> 8) as usize % AWKWARD_BITS.len()]
                } else {
                    (word >> 16) as u32
                };
                f32::from_bits(bits)
            })
            .collect();
        // Row 0, row n-1 and a duplicate are always in a batch that has
        // room for them.
        let mut indices: Vec<u64> =
            (0..batch).map(|_| xorshift(&mut state) % rows as u64).collect();
        for (slot, idx) in indices.iter_mut().zip([0, rows as u64 - 1, 0]) {
            *slot = idx;
        }
        let expected: Vec<u32> = indices
            .iter()
            .flat_map(|&idx| bits(&table[idx as usize * dim..(idx as usize + 1) * dim]))
            .collect();

        for isa in Isa::ALL {
            // Pre-filled: the kernel must overwrite, not merge.
            let mut out = vec![f32::from_bits(0xdead_beef); batch * dim];
            if !scan::scan_copy_rows_at(isa, &table, dim, &indices, &mut out) {
                static ONCE: [std::sync::Once; 3] =
                    [const { std::sync::Once::new() }; 3];
                ONCE[isa as usize].call_once(|| println!("host lacks {isa:?}: not tested"));
                continue;
            }
            prop_assert_eq!(&bits(&out), &expected, "{:?}", isa);
        }
        // The dispatched entry point, whichever level it picked.
        let mut out = vec![f32::from_bits(0xdead_beef); batch * dim];
        scan::scan_copy_rows(&table, dim, &indices, &mut out);
        prop_assert_eq!(bits(&out), expected);
    }
}
