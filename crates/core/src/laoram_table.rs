//! Embedding tables behind the look-ahead ORAM: batch-windowed serving
//! plus the oblivious write path that makes protected *training* possible.

use crate::oram_table::{bits_into_row, table_rows_as_bits};
use crate::{EmbeddingGenerator, Technique};
use rand::rngs::StdRng;
use secemb_laoram::{add_f32, LaConfig, LaStats, LookAheadOram};
use secemb_oram::Oram;
use secemb_tensor::Matrix;

/// An embedding table stored inside a [`LookAheadOram`].
///
/// A batch of `B` indices is served as `ceil(B / max_window)` look-ahead
/// windows: each window's paths are prefetched and deduplicated up front
/// (the serving batcher's coalesced batch *is* the future access window),
/// and evictions are combined across the window. [`LaOramTable::scatter_add`]
/// pushes gradient rows back through the **same** oblivious window
/// machinery, so a trace observer cannot tell training from inference.
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
    /// Stores `table` behind a look-ahead ORAM with default parameters.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn new(table: &Matrix, rng: StdRng) -> Self {
        Self::with_config(table, LaConfig::new(table.cols()), rng)
    }

    /// Stores `table` behind a look-ahead ORAM with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or `config.block_words != table.cols()`.
    pub fn with_config(table: &Matrix, config: LaConfig, rng: StdRng) -> Self {
        assert_eq!(
            config.block_words,
            table.cols(),
            "LaOramTable: block width != dim"
        );
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
    /// Panics if `rows` is zero or the config is invalid.
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

    /// The maximum look-ahead window (batches beyond it are chunked).
    pub fn max_window(&self) -> usize {
        self.la.max_window()
    }

    /// Serves `indices` as look-ahead windows, adding `delta(k)` (when
    /// there is one) to the `k`-th accessed row in place and writing each
    /// post-operation row straight into the output matrix.
    fn run_windows<'d>(
        &mut self,
        indices: &[u64],
        delta: impl Fn(usize) -> Option<&'d [f32]>,
    ) -> Matrix {
        for &idx in indices {
            assert!(idx < self.rows, "LaOramTable: index {idx} out of range");
        }
        let mut out = Matrix::zeros(indices.len(), self.dim);
        let window = self.la.max_window();
        for (c, chunk) in indices.chunks(window).enumerate() {
            self.la.stage_window(chunk);
            self.la.serve_window_with(&mut |k, words| {
                let row = c * window + k;
                if let Some(delta) = delta(row) {
                    add_f32(words, delta);
                }
                bits_into_row(out.row_mut(row), words);
            });
        }
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
        self.run_windows(indices, |_| None)
    }

    fn generate_window(&mut self, indices: &[u64], updates: &[Option<&[f32]>]) -> Matrix {
        assert_eq!(indices.len(), updates.len(), "generate_window: shape");
        for delta in updates.iter().flatten() {
            assert_eq!(delta.len(), self.dim, "generate_window: delta width");
        }
        self.run_windows(indices, |k| updates[k])
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

    fn lookahead_stats(&self) -> Option<LaStats> {
        Some(self.la.la_stats())
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
    fn large_batch_chunks_into_windows() {
        let t = Matrix::from_fn(200, 2, |r, _| r as f32);
        let mut o = LaOramTable::new(&t, StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let indices: Vec<u64> = (0..150).map(|_| rng.gen_range(0..200u64)).collect();
        let out = o.generate_batch(&indices);
        for (b, &idx) in indices.iter().enumerate() {
            assert_eq!(out.row(b), t.row(idx as usize), "row {b}");
        }
        assert!(o.lookahead_stats().unwrap().windows >= 3);
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
