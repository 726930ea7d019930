//! The all-pairs dot-product feature interaction.

use secemb_tensor::Matrix;

/// DLRM's dot interaction: given the bottom-MLP output and one embedding
/// per sparse feature (all `batch × dim`), emits, per batch row, the
/// concatenation of the bottom output with every pairwise inner product of
/// the `F + 1` vectors — `dim + (F+1)·F/2` features feeding the top MLP.
///
/// The set of pairs computed depends only on the (public) feature count,
/// so the layer is data-oblivious, as §V-C argues. It has no weights and
/// keeps nothing: its backward is handed the forward's vectors again.
#[derive(Clone, Copy, Debug, Default)]
pub struct DotInteraction;

impl DotInteraction {
    /// Output width for `dim`-wide vectors and `features` sparse features.
    pub fn output_width(dim: usize, features: usize) -> usize {
        let v = features + 1;
        dim + v * (v - 1) / 2
    }

    /// Forward pass. `vectors[0]` is the bottom-MLP output; the rest are
    /// the sparse embeddings. All must be `batch × dim`.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or shapes disagree.
    pub fn apply(vectors: &[Matrix]) -> Matrix {
        assert!(!vectors.is_empty(), "DotInteraction: no vectors");
        let (batch, dim) = vectors[0].shape();
        for (i, v) in vectors.iter().enumerate() {
            assert_eq!(v.shape(), (batch, dim), "DotInteraction: vector {i} shape");
        }
        let v = vectors.len();
        let width = dim + v * (v - 1) / 2;
        let mut out = Matrix::zeros(batch, width);
        for b in 0..batch {
            let row = out.row_mut(b);
            row[..dim].copy_from_slice(vectors[0].row(b));
            let mut col = dim;
            for i in 0..v {
                for j in (i + 1)..v {
                    let dot: f32 = vectors[i]
                        .row(b)
                        .iter()
                        .zip(vectors[j].row(b))
                        .map(|(&a, &c)| a * c)
                        .sum();
                    row[col] = dot;
                    col += 1;
                }
            }
        }
        out
    }

    /// Backward pass: splits `grad_output` back into per-vector gradients
    /// (same order as the forward `vectors`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn backward(vectors: &[Matrix], grad_output: &Matrix) -> Vec<Matrix> {
        let (batch, dim) = vectors[0].shape();
        let v = vectors.len();
        assert_eq!(
            grad_output.shape(),
            (batch, dim + v * (v - 1) / 2),
            "DotInteraction: grad shape"
        );
        let mut grads: Vec<Matrix> = vectors.iter().map(|_| Matrix::zeros(batch, dim)).collect();
        for b in 0..batch {
            // Direct concat part feeds vectors[0].
            grads[0]
                .row_mut(b)
                .copy_from_slice(&grad_output.row(b)[..dim]);
            let mut col = dim;
            for i in 0..v {
                for j in (i + 1)..v {
                    let g = grad_output.row(b)[col];
                    col += 1;
                    if g == 0.0 {
                        continue;
                    }
                    for d in 0..dim {
                        let vi = vectors[i].get(b, d);
                        let vj = vectors[j].get(b, d);
                        let gi = grads[i].get(b, d);
                        let gj = grads[j].get(b, d);
                        grads[i].set(b, d, gi + g * vj);
                        grads[j].set(b, d, gj + g * vi);
                    }
                }
            }
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors() -> Vec<Matrix> {
        vec![
            Matrix::from_vec(2, 2, vec![1., 2., 0.5, -1.]),
            Matrix::from_vec(2, 2, vec![3., 4., 1., 1.]),
            Matrix::from_vec(2, 2, vec![-1., 0., 2., 2.]),
        ]
    }

    #[test]
    fn forward_values() {
        let out = DotInteraction::apply(&vectors());
        // Row 0: concat [1,2], dots: <v0,v1>=11, <v0,v2>=-1, <v1,v2>=-3.
        assert_eq!(out.row(0), &[1., 2., 11., -1., -3.]);
        assert_eq!(out.shape(), (2, DotInteraction::output_width(2, 2)));
    }

    #[test]
    fn output_width_formula() {
        assert_eq!(DotInteraction::output_width(16, 26), 16 + 27 * 26 / 2);
        assert_eq!(DotInteraction::output_width(2, 0), 2);
    }

    #[test]
    fn backward_finite_difference() {
        let vs = vectors();
        let width = DotInteraction::output_width(2, 2);
        let grads = DotInteraction::backward(&vs, &Matrix::full(2, width, 1.0));

        let objective = |vs: &[Matrix]| DotInteraction::apply(vs).sum();
        let h = 1e-3f32;
        for (vi, g) in grads.iter().enumerate() {
            for e in 0..vs[vi].len() {
                let mut p = vs.clone();
                p[vi].as_mut_slice()[e] += h;
                let mut m = vs.clone();
                m[vi].as_mut_slice()[e] -= h;
                let fd = ((objective(&p) - objective(&m)) / (2.0 * h as f64)) as f32;
                assert!(
                    (g.as_slice()[e] - fd).abs() < 1e-2,
                    "vector {vi} elem {e}: {} vs {fd}",
                    g.as_slice()[e]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "grad shape")]
    fn backward_checks_the_gradient_shape() {
        DotInteraction::backward(&vectors(), &Matrix::zeros(2, 4));
    }
}
