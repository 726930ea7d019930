//! The [`Matrix`] type and its core linear-algebra kernels.

use crate::gemm;
use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// All shape arguments are validated eagerly; dimension mismatches are
/// programming errors and panic with a message naming the operation.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wraps an existing buffer as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: buffer length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds a matrix element-wise from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing buffer, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the backing buffer, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "get: index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "set: index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row: index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row_mut: index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix product `self · rhs`.
    ///
    /// Uses the ikj loop order so the inner loop streams both operands.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: inner dimensions {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue; // public sparsity fast-path (weights only)
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * b_kj;
                }
            }
        }
        out
    }

    /// Matrix product `self · rhsᵀ` without materializing the transpose.
    ///
    /// This is the product of every `Linear` forward (`rhs` is the
    /// `out × in` weight), so it runs on the register-tiled kernel of
    /// [`crate::gemm`], compiled per instruction-set level the way the
    /// paper's testbed runs AVX-512 GEMMs: `rhs` is streamed once per call,
    /// whatever `self.rows` is. Each element is the same eight-lane dot
    /// product at every level, batch size and row position, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose_b: inner dimensions mismatch"
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        gemm::gemm_nt(
            &self.data,
            &rhs.data,
            self.rows,
            rhs.rows,
            self.cols,
            &mut out.data,
        );
        out
    }

    /// Matrix product `selfᵀ · rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn transpose_a_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_a_matmul: inner dimensions mismatch"
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = rhs.row(k);
            for (i, &a_ki) in a_row.iter().enumerate() {
                if a_ki == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ki * b_kj;
                }
            }
        }
        out
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination `f(self, rhs)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_map(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip_map: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }

    /// `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Hadamard (element-wise) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// `self * scalar`.
    pub fn scale(&self, scalar: f32) -> Matrix {
        self.map(|x| x * scalar)
    }

    /// Adds `bias` (length = cols) to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "add_row_broadcast: bias length");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Sum of all elements (f64 accumulator).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Sum over rows: a length-`cols` vector of column sums.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (s, &x) in sums.iter_mut().zip(row.iter()) {
                *s += x;
            }
        }
        sums
    }

    /// True when every element differs from `rhs` by at most `tol`.
    pub fn allclose(&self, rhs: &Matrix, tol: f32) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// `self += rhs`, element-wise (how a backward pass accumulates a
/// gradient).
///
/// # Panics
///
/// Panics on shape mismatch.
impl std::ops::AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Matrix::zeros(2, 3).as_slice(), &[0.0; 6]);
        assert_eq!(Matrix::full(1, 2, 5.0).as_slice(), &[5.0, 5.0]);
        let i = Matrix::eye(2);
        assert_eq!(i.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f32);
        assert_eq!(f.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_b_matches() {
        let a = Matrix::from_fn(3, 4, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 * 0.5);
        let direct = a.matmul(&b.transpose());
        let fused = a.matmul_transpose_b(&b);
        assert!(direct.allclose(&fused, 1e-6));
    }

    #[test]
    fn transpose_a_matmul_matches() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.25);
        let b = Matrix::from_fn(4, 5, |r, c| (r * 2 + c) as f32);
        let direct = a.transpose().matmul(&b);
        let fused = a.transpose_a_matmul(&b);
        assert!(direct.allclose(&fused, 1e-6));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(a.add(&b).as_slice(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).as_slice(), &[3., 3., 3.]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).as_slice(), &[2., 4., 6.]);
    }

    #[test]
    fn broadcast_and_reductions() {
        let mut m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        m.add_row_broadcast(&[10., 20.]);
        assert_eq!(m.as_slice(), &[11., 22., 13., 24.]);
        assert_eq!(m.sum(), 70.0);
        assert_eq!(m.mean(), 17.5);
        assert_eq!(m.column_sums(), vec![24., 46.]);
    }

    #[test]
    fn rows_access() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.iter_rows().count(), 2);
        assert_eq!(m.get(0, 2), 3.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut g = Matrix::full(2, 2, 3.0);
        g += &Matrix::full(2, 2, 2.0);
        assert_eq!(g.as_slice(), &[5.0; 4]);
    }

    #[test]
    #[should_panic(expected = "add_assign: shape mismatch")]
    fn add_assign_shape_mismatch() {
        let mut g = Matrix::zeros(2, 2);
        g += &Matrix::zeros(1, 2);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_len() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Matrix::full(1, 1, 1.0);
        let b = Matrix::full(1, 1, 1.05);
        assert!(a.allclose(&b, 0.1));
        assert!(!a.allclose(&b, 0.01));
        assert!(!a.allclose(&Matrix::zeros(2, 1), 10.0));
    }
}
