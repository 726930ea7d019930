//! Property-based tests for the matrix kernels.

use proptest::prelude::*;
use secemb_obliv::isa::Isa;
use secemb_tensor::gemm::{dot, gemm_nt_at};
use secemb_tensor::{ops, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn identity_is_neutral(a in matrix(4, 6)) {
        prop_assert!(a.matmul(&Matrix::eye(6)).allclose(&a, 1e-5));
        prop_assert!(Matrix::eye(4).matmul(&a).allclose(&a, 1e-5));
    }

    #[test]
    fn transpose_is_involution(a in matrix(5, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_transpose_identities(a in matrix(3, 5), b in matrix(4, 5)) {
        // A · Bᵀ computed fused vs via explicit transpose.
        let fused = a.matmul_transpose_b(&b);
        let direct = a.matmul(&b.transpose());
        prop_assert!(fused.allclose(&direct, 1e-3));
        // (A·Bᵀ)ᵀ = B·Aᵀ
        prop_assert!(fused.transpose().allclose(&b.matmul_transpose_b(&a), 1e-3));
    }

    #[test]
    fn transpose_a_matmul_identity(a in matrix(4, 3), b in matrix(4, 2)) {
        let fused = a.transpose_a_matmul(&b);
        let direct = a.transpose().matmul(&b);
        prop_assert!(fused.allclose(&direct, 1e-3));
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 4), b in matrix(3, 4), c in matrix(4, 2)) {
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-2));
    }

    #[test]
    fn elementwise_algebra(a in matrix(2, 8), b in matrix(2, 8)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert!(a.sub(&a).allclose(&Matrix::zeros(2, 8), 0.0));
        prop_assert_eq!(a.hadamard(&b), b.hadamard(&a));
        prop_assert!(a.scale(2.0).allclose(&a.add(&a), 1e-5));
    }

    #[test]
    fn softmax_rows_are_distributions(a in matrix(3, 7)) {
        let s = ops::softmax_rows(&a);
        for r in 0..3 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn softmax_shift_invariant(a in matrix(1, 6), shift in -100.0f32..100.0) {
        let shifted = a.map(|x| x + shift);
        prop_assert!(ops::softmax_rows(&a).allclose(&ops::softmax_rows(&shifted), 1e-4));
    }

    #[test]
    fn layer_norm_output_is_normalized(a in matrix(2, 8)) {
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.0f32; 8];
        let (out, _) = ops::layer_norm_rows(&a, &gamma, &beta, 1e-5);
        for r in 0..2 {
            let mean: f32 = out.row(r).iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "row {r} mean {mean}");
        }
    }

    #[test]
    fn column_sums_match_transpose_row_sums(a in matrix(4, 3)) {
        let cs = a.column_sums();
        let t = a.transpose();
        for (c, &s) in cs.iter().enumerate() {
            let row_sum: f32 = t.row(c).iter().sum();
            prop_assert!((s - row_sum).abs() < 1e-4);
        }
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(a in matrix(2, 9)) {
        let r1 = ops::relu(&a);
        prop_assert!(r1.as_slice().iter().all(|&x| x >= 0.0));
        prop_assert_eq!(ops::relu(&r1), r1);
    }
}

/// A dimension at or beside every tile edge of every level (`MR` is 2 or
/// 4, `NR` 2, 4 or 6, a chunk is 8 lanes), or anything up to 40.
fn edge_dim() -> impl Strategy<Value = usize> {
    const EDGES: [usize; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 129];
    prop_oneof![(0..EDGES.len()).prop_map(|i| EDGES[i]), 0usize..=40,]
}

/// Values whose sums and products exercise signed zeros, subnormals and NaN
/// propagation. One quiet NaN pattern and no infinity, so that every NaN
/// result carries that pattern whichever operand order the compiler picks
/// and bit equality is well defined.
fn awkward_values(len: usize, seed: u64) -> Vec<f32> {
    const AWKWARD_BITS: [u32; 7] = [
        0x8000_0000, // -0.0
        0x0000_0000,
        0x7fc0_0000, // NaN
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest subnormal, negative
        0x0080_0000, // smallest normal
        0x3f80_0000,
    ];
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state & 7 {
                0 => f32::from_bits(AWKWARD_BITS[(state >> 8) as usize % AWKWARD_BITS.len()]),
                _ => (state >> 40) as f32 / (1u64 << 21) as f32 - 4.0,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn gemm_is_bit_identical_to_dot(
        m in edge_dim(),
        n in edge_dim(),
        k in edge_dim(),
        seed in any::<u64>(),
    ) {
        let a = awkward_values(m * k, seed);
        let b = awkward_values(n * k, !seed);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let expected: Vec<u32> = (0..m * n)
            .map(|e| dot(&a[e / n * k..][..k], &b[e % n * k..][..k]).to_bits())
            .collect();

        for isa in Isa::ALL {
            // Pre-filled: the kernel must overwrite, not accumulate.
            let mut out = vec![f32::from_bits(0xdead_beef); m * n];
            if !gemm_nt_at(isa, &a, &b, m, n, k, &mut out) {
                static ONCE: [std::sync::Once; 3] = [const { std::sync::Once::new() }; 3];
                ONCE[isa as usize].call_once(|| println!("host lacks {isa:?}: not tested"));
                continue;
            }
            prop_assert_eq!(&bits(&out), &expected, "{:?} {}x{}x{}", isa, m, n, k);
        }
        // The dispatched entry point, whichever level it picked.
        let out = Matrix::from_vec(m, k, a).matmul_transpose_b(&Matrix::from_vec(n, k, b));
        prop_assert_eq!(out.shape(), (m, n));
        prop_assert_eq!(bits(out.as_slice()), expected);
    }
}
