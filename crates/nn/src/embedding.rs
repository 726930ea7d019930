//! Trainable embedding table (the *storage-based* representation).

use crate::{Param, Params};
use rand::Rng;
use secemb_tensor::Matrix;

/// A trainable `n × dim` embedding table.
///
/// During training the forward pass gathers rows by index (the non-secure
/// lookup); inference wraps the trained table in one of the secure
/// generators from the `secemb` crate, or converts it to/from a DHE. The
/// indices are the caller's, so the layer records nothing: backward takes
/// them again.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: Param,
}

impl Embedding {
    /// Creates a table with `N(0, 0.02)`-initialized rows.
    pub fn new(num_embeddings: usize, dim: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            table: Param::new(secemb_tensor::normal_init(num_embeddings, dim, 0.02, rng)),
        }
    }

    /// Wraps an existing table.
    pub fn from_table(table: Matrix) -> Self {
        Embedding {
            table: Param::new(table),
        }
    }

    /// Number of rows.
    pub fn num_embeddings(&self) -> usize {
        self.table.value.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.value.cols()
    }

    /// The underlying table.
    pub fn table(&self) -> &Matrix {
        &self.table.value
    }

    /// Gathers rows for `indices` into a `batch × dim` matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn forward_indices(&self, indices: &[usize]) -> Matrix {
        let dim = self.dim();
        let n = self.num_embeddings();
        let mut out = Matrix::zeros(indices.len(), dim);
        for (b, &idx) in indices.iter().enumerate() {
            assert!(idx < n, "Embedding: index {idx} out of range ({n} rows)");
            out.row_mut(b).copy_from_slice(self.table.value.row(idx));
        }
        out
    }

    /// Scatter-adds `grad_output` rows into `grad` (the table's gradient)
    /// at the rows `indices` gathered.
    ///
    /// # Panics
    ///
    /// Panics if the gradient batch size differs from the index count.
    pub fn backward_indices(&self, indices: &[usize], grad_output: &Matrix, grad: &mut Matrix) {
        assert_eq!(
            grad_output.rows(),
            indices.len(),
            "Embedding: grad batch mismatch"
        );
        for (b, &idx) in indices.iter().enumerate() {
            for (gi, &go) in grad.row_mut(idx).iter_mut().zip(grad_output.row(b)) {
                *gi += go;
            }
        }
    }
}

impl Params for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gather_and_scatter() {
        let table = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let e = Embedding::from_table(table);
        let indices = [2, 0, 2];
        let out = e.forward_indices(&indices);
        assert_eq!(out.as_slice(), &[5., 6., 1., 2., 5., 6.]);

        let grad = Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let mut table_grad = Matrix::zeros(3, 2);
        e.backward_indices(&indices, &grad, &mut table_grad);
        // Row 2 accumulates from batch items 0 and 2.
        assert!((table_grad.get(2, 0) - 0.6).abs() < 1e-6);
        assert!((table_grad.get(2, 1) - 0.8).abs() < 1e-6);
        assert!((table_grad.get(0, 0) - 0.3).abs() < 1e-6);
        assert_eq!(table_grad.get(1, 0), 0.0);
    }

    #[test]
    fn shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(10, 4, &mut rng);
        assert_eq!(e.num_embeddings(), 10);
        assert_eq!(e.dim(), 4);
        let out = e.forward_indices(&[3, 7]);
        assert_eq!(out.shape(), (2, 4));
        assert_eq!(out.row(0), e.table().row(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_index_panics() {
        let e = Embedding::from_table(Matrix::zeros(2, 2));
        e.forward_indices(&[2]);
    }
}
