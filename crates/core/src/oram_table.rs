//! Embedding tables behind tree-based ORAM (§IV-A2), plus the oblivious
//! write path that makes protected *training* possible.

use crate::{EmbeddingGenerator, Technique};
use rand::rngs::StdRng;
use secemb_oram::{add_f32, CircuitOram, Oram, OramConfig, PathOram};
use secemb_tensor::Matrix;

/// An embedding table stored inside a Path or Circuit ORAM.
///
/// One ORAM block per table row (block size = embedding dimension, as in
/// the paper); each batch item is one sequential ORAM access, since "the
/// internal ORAM structures must be updated sequentially and parallelism is
/// not possible" (§V-A1).
///
/// A [`Technique::LaOram`] table is the Circuit ORAM table with a write
/// path: [`EmbeddingGenerator::generate_window`] adds each gradient row
/// inside the **same** access that reads the row, so a trace observer
/// cannot tell training from inference.
pub struct OramTable {
    oram: Box<dyn Oram + Send>,
    technique: Technique,
    dim: usize,
    rows: u64,
    /// Receives each accessed block before its words become output floats.
    row_words: Vec<u32>,
}

impl std::fmt::Debug for OramTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OramTable({} rows x {}, {})",
            self.rows, self.dim, self.technique
        )
    }
}

impl OramTable {
    /// Stores `table` behind Path ORAM with the paper's parameters.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn path(table: &Matrix, rng: StdRng) -> Self {
        Self::from_table(Technique::PathOram, table, rng)
    }

    /// Stores `table` behind Circuit ORAM with the paper's parameters.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn circuit(table: &Matrix, rng: StdRng) -> Self {
        Self::from_table(Technique::CircuitOram, table, rng)
    }

    /// Stores `table` behind `technique`'s ORAM; see [`Self::from_fn`].
    pub(crate) fn from_table(technique: Technique, table: &Matrix, rng: StdRng) -> Self {
        let (rows, dim) = (table.rows() as u64, table.cols());
        Self::from_fn(technique, rows, dim, rng, &mut table_rows_as_bits(table))
    }

    /// A `rows × dim` table behind `technique`'s ORAM with the paper's
    /// parameters, row `id`'s `f32` bit patterns written by `fill(id,
    /// slot)` straight into the row's arena slot, once per row in id
    /// order — no copy of the table exists besides the tree.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or `technique` is not Path, Circuit or
    /// look-ahead ORAM.
    pub fn from_fn(
        technique: Technique,
        rows: u64,
        dim: usize,
        rng: StdRng,
        fill: &mut dyn FnMut(u64, &mut [u32]),
    ) -> Self {
        assert!(rows > 0 && dim > 0, "OramTable: empty table");
        let oram: Box<dyn Oram + Send> = match technique {
            Technique::PathOram => {
                Box::new(PathOram::from_fn(rows, OramConfig::path(dim), rng, fill))
            }
            Technique::CircuitOram | Technique::LaOram => Box::new(CircuitOram::from_fn(
                rows,
                OramConfig::circuit(dim),
                rng,
                fill,
            )),
            other => panic!("OramTable: {other} is not an ORAM technique"),
        };
        OramTable {
            oram,
            technique,
            dim,
            rows,
            row_words: vec![0; dim],
        }
    }

    /// The controller's cumulative access statistics.
    pub fn stats(&self) -> secemb_oram::AccessStats {
        self.oram.stats()
    }

    /// Resets the controller's statistics.
    pub fn reset_stats(&mut self) {
        self.oram.reset_stats();
    }

    /// Serves `indices` in order, one ORAM access each, adding `delta(k)`
    /// (when there is one) to the `k`-th accessed row in place and writing
    /// each post-operation row into the output matrix.
    ///
    /// # Panics
    ///
    /// Panics, before any access runs, if an index is out of range.
    fn access_all<'d>(
        &mut self,
        indices: &[u64],
        delta: impl Fn(usize) -> Option<&'d [f32]>,
    ) -> Matrix {
        for &idx in indices {
            assert!(idx < self.rows, "OramTable: index {idx} out of range");
        }
        let mut out = Matrix::zeros(indices.len(), self.dim);
        for (k, &idx) in indices.iter().enumerate() {
            let mut mutate = |words: &mut [u32]| {
                if let Some(delta) = delta(k) {
                    add_f32(words, delta);
                }
            };
            self.oram.access_into(idx, &mut mutate, &mut self.row_words);
            bits_into_row(out.row_mut(k), &self.row_words);
        }
        out
    }
}

/// The ORAM constructors' `fill` callback for an `f32` table: row `id`'s
/// bit patterns, written straight into the block's arena slot.
fn table_rows_as_bits(table: &Matrix) -> impl FnMut(u64, &mut [u32]) + '_ {
    |id, words| {
        for (w, v) in words.iter_mut().zip(table.row(id as usize)) {
            *w = v.to_bits();
        }
    }
}

/// Writes a block's words into an output row as the floats they encode.
fn bits_into_row(row: &mut [f32], words: &[u32]) {
    for (o, &w) in row.iter_mut().zip(words) {
        *o = f32::from_bits(w);
    }
}

impl EmbeddingGenerator for OramTable {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_embeddings(&self) -> u64 {
        self.rows
    }

    fn generate_batch(&mut self, indices: &[u64]) -> Matrix {
        self.access_all(indices, |_| None)
    }

    fn generate_window(&mut self, indices: &[u64], updates: &[Option<&[f32]>]) -> Matrix {
        assert_eq!(indices.len(), updates.len(), "generate_window: shape");
        for delta in updates.iter().flatten() {
            assert!(
                self.supports_updates(),
                "{}: updates unsupported",
                self.technique
            );
            assert_eq!(delta.len(), self.dim, "generate_window: delta width");
        }
        self.access_all(indices, |k| updates[k])
    }

    fn technique(&self) -> Technique {
        self.technique
    }

    fn memory_bytes(&self) -> u64 {
        self.oram.memory_bytes()
    }

    fn access_stats(&self) -> Option<secemb_oram::AccessStats> {
        Some(self.oram.stats())
    }

    fn stash_occupancy(&self) -> Option<usize> {
        Some(self.oram.stash_occupancy())
    }

    fn supports_updates(&self) -> bool {
        self.technique == Technique::LaOram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use secemb_trace::check;
    use secemb_trace::tracer::record_trace;

    fn table() -> Matrix {
        Matrix::from_fn(48, 4, |r, c| (r as f32) * 0.5 - (c as f32))
    }

    #[test]
    fn path_matches_plain_table() {
        let t = table();
        let mut o = OramTable::path(&t, StdRng::seed_from_u64(1));
        let out = o.generate_batch(&[0, 47, 13, 13]);
        for (b, &idx) in [0usize, 47, 13, 13].iter().enumerate() {
            assert_eq!(out.row(b), t.row(idx));
        }
        assert_eq!(o.technique(), Technique::PathOram);
    }

    #[test]
    fn circuit_matches_plain_table() {
        let t = table();
        let mut o = OramTable::circuit(&t, StdRng::seed_from_u64(2));
        for idx in [5u64, 5, 30, 0] {
            assert_eq!(o.generate(idx), t.row(idx as usize).to_vec());
        }
        assert_eq!(o.technique(), Technique::CircuitOram);
    }

    #[test]
    fn memory_exceeds_raw_table() {
        let t = table();
        let raw = (t.len() * 4) as u64;
        let o = OramTable::circuit(&t, StdRng::seed_from_u64(3));
        assert!(
            o.memory_bytes() > 2 * raw,
            "tree dummies must blow up memory: {} vs {raw}",
            o.memory_bytes()
        );
    }

    #[test]
    fn traces_are_structurally_identical_across_secrets() {
        // ORAM traces differ in *which* random path is fetched but never in
        // structure: same regions, same event sizes, same event count.
        let t = table();
        let mut o = OramTable::circuit(&t, StdRng::seed_from_u64(4));
        let ((), t1) = record_trace(|| {
            o.generate(3);
        });
        let ((), t2) = record_trace(|| {
            o.generate(44);
        });
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.events().iter().zip(t2.events().iter()) {
            assert_eq!(a.region, b.region);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.len, b.len);
        }
    }

    #[test]
    fn negative_values_round_trip() {
        let t = Matrix::from_fn(8, 3, |r, c| -(r as f32) - c as f32 * 0.25);
        let mut o = OramTable::path(&t, StdRng::seed_from_u64(5));
        assert_eq!(o.generate(7), t.row(7).to_vec());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics() {
        let mut o = OramTable::circuit(&table(), StdRng::seed_from_u64(6));
        o.generate(48);
    }

    fn laoram(table: &Matrix, seed: u64) -> OramTable {
        OramTable::from_table(Technique::LaOram, table, StdRng::seed_from_u64(seed))
    }

    #[test]
    fn large_batch_is_one_access_per_index() {
        let t = Matrix::from_fn(200, 2, |r, _| r as f32);
        let mut o = laoram(&t, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let indices: Vec<u64> = (0..150).map(|_| rng.gen_range(0..200u64)).collect();
        let out = o.generate_batch(&indices);
        for (b, &idx) in indices.iter().enumerate() {
            assert_eq!(out.row(b), t.row(idx as usize), "row {b}");
        }
        assert_eq!(o.stats().accesses, 150);
    }

    #[test]
    fn window_scatter_accumulates_like_plain_scatter() {
        let t = table();
        let mut o = laoram(&t, 4);
        assert!(o.supports_updates());
        let indices = [3u64, 7, 3, 40];
        let deltas = Matrix::from_fn(4, 4, |r, c| (r as f32) + c as f32 * 0.5);
        // Plain reference scatter.
        let mut reference = t.clone();
        for (k, &idx) in indices.iter().enumerate() {
            for (c, v) in deltas.row(k).iter().enumerate() {
                reference.row_mut(idx as usize)[c] += v;
            }
        }
        let updates: Vec<Option<&[f32]>> = deltas.iter_rows().map(Some).collect();
        let returned = o.generate_window(&indices, &updates);
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
        // Training windows and inference windows are
        // trace-indistinguishable.
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
            let mut o = laoram(&t, 9);
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
    fn path_and_circuit_refuse_updates() {
        let t = table();
        for mut o in [
            OramTable::path(&t, StdRng::seed_from_u64(7)),
            OramTable::circuit(&t, StdRng::seed_from_u64(7)),
        ] {
            assert!(!o.supports_updates());
            // All-None updates are a plain batch.
            let out = o.generate_window(&[1, 2], &[None, None]);
            assert_eq!(out.row(1), t.row(2));
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                o.generate_window(&[1], &[Some([0.0f32; 4].as_slice())]);
            }));
            assert!(r.is_err(), "{} must reject updates", o.technique());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_panics_on_the_write_path() {
        let mut o = laoram(&table(), 6);
        o.generate_window(&[3, 48], &[Some([1.0f32; 4].as_slice()), None]);
    }
}
