//! Embedding tables behind the look-ahead window driver: batch serving
//! plus the oblivious write path that makes protected *training* possible.

use crate::oram_table::{bits_into_row, table_rows_as_bits};
use crate::{EmbeddingGenerator, Technique};
use rand::rngs::StdRng;
use secemb_laoram::{add_f32, LaConfig, LookAheadOram};
use secemb_oram::Oram;
use secemb_tensor::Matrix;

/// An embedding table stored inside a [`LookAheadOram`].
///
/// A batch of `B` indices is one window of `B` Circuit ORAM accesses, in
/// batch order. [`LaOramTable::scatter_add`] pushes gradient rows back
/// through the **same** accesses, so a trace observer cannot tell
/// training from inference.
pub struct LaOramTable {
    la: LookAheadOram,
    dim: usize,
    rows: u64,
}

impl std::fmt::Debug for LaOramTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LaOramTable({} rows x {})", self.rows, self.dim)
    }
}

impl LaOramTable {
    /// Stores `table` behind a look-ahead ORAM.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn new(table: &Matrix, rng: StdRng) -> Self {
        let config = LaConfig::new(table.cols());
        let rows = table.rows() as u64;
        Self::from_fn(rows, config, rng, &mut table_rows_as_bits(table))
    }

    /// A table of `rows` rows of `config.block_words` floats behind a
    /// look-ahead ORAM, row `id`'s `f32` bit patterns written by `fill(id,
    /// slot)` straight into the row's arena slot, once per row in id
    /// order — no copy of the table exists besides the tree.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `config.block_words` is zero.
    pub fn from_fn(
        rows: u64,
        config: LaConfig,
        rng: StdRng,
        fill: &mut dyn FnMut(u64, &mut [u32]),
    ) -> Self {
        assert!(rows > 0, "LaOramTable: empty table");
        LaOramTable {
            la: LookAheadOram::from_fn(rows, config, rng, fill),
            dim: config.block_words,
            rows,
        }
    }

    /// Adds `deltas.row(k)` to table row `indices[k]` through the oblivious
    /// write path, returning the post-update rows — the gradient-scatter
    /// step of protected embedding training. Duplicate indices accumulate
    /// in order, matching sequential scatter semantics.
    ///
    /// # Panics
    ///
    /// Panics if `deltas` is not `indices.len() × dim` or any index is out
    /// of range.
    pub fn scatter_add(&mut self, indices: &[u64], deltas: &Matrix) -> Matrix {
        assert_eq!(
            deltas.shape(),
            (indices.len(), self.dim),
            "scatter_add: deltas shape mismatch"
        );
        let updates: Vec<Option<&[f32]>> = deltas.iter_rows().map(Some).collect();
        self.generate_window(indices, &updates)
    }

    /// Serves `indices` as one window, adding `delta(k)` (when there is
    /// one) to the `k`-th accessed row in place and writing each
    /// post-operation row straight into the output matrix.
    fn run_window<'d>(
        &mut self,
        indices: &[u64],
        delta: impl Fn(usize) -> Option<&'d [f32]>,
    ) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.dim);
        self.la.visit_window(indices, &mut |k, words| {
            if let Some(delta) = delta(k) {
                add_f32(words, delta);
            }
            bits_into_row(out.row_mut(k), words);
        });
        out
    }
}

impl EmbeddingGenerator for LaOramTable {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_embeddings(&self) -> u64 {
        self.rows
    }

    fn generate_batch(&mut self, indices: &[u64]) -> Matrix {
        self.run_window(indices, |_| None)
    }

    fn generate_window(&mut self, indices: &[u64], updates: &[Option<&[f32]>]) -> Matrix {
        assert_eq!(indices.len(), updates.len(), "generate_window: shape");
        for delta in updates.iter().flatten() {
            assert_eq!(delta.len(), self.dim, "generate_window: delta width");
        }
        self.run_window(indices, |k| updates[k])
    }

    fn technique(&self) -> Technique {
        Technique::LaOram
    }

    fn memory_bytes(&self) -> u64 {
        self.la.memory_bytes()
    }

    fn access_stats(&self) -> Option<secemb_oram::AccessStats> {
        Some(self.la.stats())
    }

    fn stash_occupancy(&self) -> Option<usize> {
        Some(self.la.stash_occupancy())
    }

    fn supports_updates(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use secemb_trace::check;

    fn table() -> Matrix {
        Matrix::from_fn(48, 4, |r, c| (r as f32) * 0.5 - (c as f32))
    }

    #[test]
    fn batch_matches_plain_table() {
        let t = table();
        let mut o = LaOramTable::new(&t, StdRng::seed_from_u64(1));
        let out = o.generate_batch(&[0, 47, 13, 13]);
        for (b, &idx) in [0usize, 47, 13, 13].iter().enumerate() {
            assert_eq!(out.row(b), t.row(idx));
        }
        assert_eq!(o.technique(), Technique::LaOram);
        assert!(o.supports_updates());
    }

    #[test]
    fn large_batch_is_one_window() {
        let t = Matrix::from_fn(200, 2, |r, _| r as f32);
        let mut o = LaOramTable::new(&t, StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let indices: Vec<u64> = (0..150).map(|_| rng.gen_range(0..200u64)).collect();
        let out = o.generate_batch(&indices);
        for (b, &idx) in indices.iter().enumerate() {
            assert_eq!(out.row(b), t.row(idx as usize), "row {b}");
        }
        assert_eq!(o.access_stats().unwrap().accesses, 150);
    }

    #[test]
    fn scatter_add_accumulates_like_plain_scatter() {
        let t = table();
        let mut o = LaOramTable::new(&t, StdRng::seed_from_u64(4));
        let indices = [3u64, 7, 3, 40];
        let deltas = Matrix::from_fn(4, 4, |r, c| (r as f32) + c as f32 * 0.5);
        // Plain reference scatter.
        let mut reference = t.clone();
        for (k, &idx) in indices.iter().enumerate() {
            for (c, v) in deltas.iter_rows().nth(k).unwrap().iter().enumerate() {
                reference.row_mut(idx as usize)[c] += v;
            }
        }
        let returned = o.scatter_add(&indices, &deltas);
        // Returned rows are post-update snapshots in op order: the second
        // update of row 3 sees the first one already applied.
        assert_eq!(returned.row(2), reference.row(3));
        // And the table itself matches the reference everywhere.
        let all: Vec<u64> = (0..48).collect();
        let after = o.generate_batch(&all);
        for r in 0..48 {
            assert_eq!(after.row(r), reference.row(r), "row {r}");
        }
    }

    #[test]
    fn mixed_window_trace_matches_read_only() {
        // The generator-level restatement of the laoram gate: training
        // windows and inference windows are trace-indistinguishable.
        let t = table();
        let indices = [1u64, 9, 1, 30];
        let delta = vec![0.5f32; 4];
        let updates: [Vec<Option<Vec<f32>>>; 3] = [
            vec![None, None, None, None],
            vec![Some(delta.clone()), None, Some(delta.clone()), None],
            vec![
                Some(delta.clone()),
                Some(delta.clone()),
                Some(delta.clone()),
                Some(delta),
            ],
        ];
        let verdict = check::compare_traces(&updates, |upd| {
            let mut o = LaOramTable::new(&t, StdRng::seed_from_u64(9));
            let upd: Vec<Option<&[f32]>> = upd.iter().map(|u| u.as_deref()).collect();
            o.generate_window(&indices, &upd);
        });
        assert!(
            verdict.is_oblivious(),
            "training/inference mix leaked (divergence {:?})",
            verdict.first_divergence()
        );
    }

    #[test]
    fn default_generators_reject_updates() {
        let mut scan = crate::GeneratorSpec::Scan { rows: 8, dim: 2 }.build(0);
        assert!(!scan.supports_updates());
        // All-None updates degrade to generate_batch.
        let out = scan.generate_window(&[1, 2], &[None, None]);
        assert_eq!(out.shape(), (2, 2));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scan.generate_window(&[1], &[Some([0.0f32, 0.0].as_slice())]);
        }));
        assert!(r.is_err(), "scan must reject updates");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        let mut o = LaOramTable::new(&table(), StdRng::seed_from_u64(6));
        o.generate_batch(&[48]);
    }
}
