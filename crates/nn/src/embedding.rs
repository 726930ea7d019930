//! Trainable embedding table (the *storage-based* representation).

use crate::{Module, Param};
use rand::Rng;
use secemb_tensor::Matrix;

/// A trainable `n × dim` embedding table.
///
/// During training the forward pass gathers rows by index (the non-secure
/// lookup); inference wraps the trained table in one of the secure
/// generators from the `secemb` crate, or converts it to/from a DHE.
#[derive(Clone, Debug)]
pub struct Embedding {
    table: Param,
    indices_cache: Option<Vec<usize>>,
}

impl Embedding {
    /// Creates a table with `N(0, 0.02)`-initialized rows.
    pub fn new(num_embeddings: usize, dim: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            table: Param::new(secemb_tensor::normal_init(num_embeddings, dim, 0.02, rng)),
            indices_cache: None,
        }
    }

    /// Wraps an existing table.
    pub fn from_table(table: Matrix) -> Self {
        Embedding {
            table: Param::new(table),
            indices_cache: None,
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

    /// Gathers rows for `indices` into a `batch × dim` matrix, caching the
    /// indices for the backward pass.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn forward_indices(&mut self, indices: &[usize]) -> Matrix {
        let dim = self.dim();
        let n = self.num_embeddings();
        let mut out = Matrix::zeros(indices.len(), dim);
        for (b, &idx) in indices.iter().enumerate() {
            assert!(idx < n, "Embedding: index {idx} out of range ({n} rows)");
            out.row_mut(b).copy_from_slice(self.table.value.row(idx));
        }
        self.indices_cache = Some(indices.to_vec());
        out
    }

    /// Scatter-adds `grad_output` rows back into the table gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Embedding::forward_indices`] or if the
    /// gradient batch size differs from the cached index count.
    pub fn backward_indices(&mut self, grad_output: &Matrix) {
        let indices = self
            .indices_cache
            .as_ref()
            .expect("Embedding::backward before forward");
        assert_eq!(
            grad_output.rows(),
            indices.len(),
            "Embedding: grad batch mismatch"
        );
        let dim = self.dim();
        let grad = self.table.grad_mut();
        for (b, &idx) in indices.iter().enumerate() {
            let g = &mut grad.row_mut(idx)[..dim];
            for (gi, &go) in g.iter_mut().zip(grad_output.row(b).iter()) {
                *gi += go;
            }
        }
    }
}

impl Module for Embedding {
    /// Treats the input's first column as (already integral) indices.
    /// Prefer [`Embedding::forward_indices`] in model code.
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let indices: Vec<usize> = (0..input.rows())
            .map(|r| input.get(r, 0) as usize)
            .collect();
        self.forward_indices(&indices)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.backward_indices(grad_output);
        Matrix::zeros(grad_output.rows(), 1) // indices carry no gradient
    }

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
        let mut e = Embedding::from_table(table);
        let out = e.forward_indices(&[2, 0, 2]);
        assert_eq!(out.as_slice(), &[5., 6., 1., 2., 5., 6.]);

        let grad = Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        e.backward_indices(&grad);
        // Row 2 accumulates from batch items 0 and 2.
        assert!((e.table.grad().unwrap().get(2, 0) - 0.6).abs() < 1e-6);
        assert!((e.table.grad().unwrap().get(2, 1) - 0.8).abs() < 1e-6);
        assert!((e.table.grad().unwrap().get(0, 0) - 0.3).abs() < 1e-6);
        assert_eq!(e.table.grad().unwrap().get(1, 0), 0.0);
    }

    #[test]
    fn module_interface() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut e = Embedding::new(10, 4, &mut rng);
        assert_eq!(e.num_embeddings(), 10);
        assert_eq!(e.dim(), 4);
        let idx = Matrix::from_vec(2, 1, vec![3.0, 7.0]);
        let out = e.forward(&idx);
        assert_eq!(out.shape(), (2, 4));
        assert_eq!(out.row(0), e.table().row(3));
        let dx = e.backward(&Matrix::full(2, 4, 1.0));
        assert_eq!(dx.shape(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_index_panics() {
        let mut e = Embedding::from_table(Matrix::zeros(2, 2));
        e.forward_indices(&[2]);
    }
}
