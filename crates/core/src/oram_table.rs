//! Embedding tables behind tree-based ORAM (§IV-A2).

use crate::{EmbeddingGenerator, Technique};
use rand::rngs::StdRng;
use secemb_oram::{CircuitOram, Oram, OramConfig, PathOram};
use secemb_tensor::Matrix;

/// An embedding table stored inside a Path or Circuit ORAM.
///
/// One ORAM block per table row (block size = embedding dimension, as in
/// the paper); each batch item is one sequential ORAM access, since "the
/// internal ORAM structures must be updated sequentially and parallelism is
/// not possible" (§V-A1).
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

    fn from_table(technique: Technique, table: &Matrix, rng: StdRng) -> Self {
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
    /// Panics if the table is empty or `technique` is not Path or Circuit
    /// ORAM.
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
            Technique::CircuitOram => Box::new(CircuitOram::from_fn(
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
}

/// The ORAM constructors' `fill` callback for an `f32` table: row `id`'s
/// bit patterns, written straight into the block's arena slot.
pub(crate) fn table_rows_as_bits(table: &Matrix) -> impl FnMut(u64, &mut [u32]) + '_ {
    |id, words| {
        for (w, v) in words.iter_mut().zip(table.row(id as usize)) {
            *w = v.to_bits();
        }
    }
}

/// Writes a block's words into an output row as the floats they encode.
pub(crate) fn bits_into_row(row: &mut [f32], words: &[u32]) {
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
        let mut out = Matrix::zeros(indices.len(), self.dim);
        for (b, &idx) in indices.iter().enumerate() {
            assert!(idx < self.rows, "OramTable: index {idx} out of range");
            self.oram.access_into(idx, &mut |_| {}, &mut self.row_words);
            bits_into_row(out.row_mut(b), &self.row_words);
        }
        out
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
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
}
