//! Linear scan of the embedding table (§IV-A1, §V-A2).

use crate::{EmbeddingGenerator, Technique};
use secemb_obliv::scan;
use secemb_tensor::Matrix;
use secemb_trace::tracer::{self, regions};

/// Oblivious linear scan: every batch reads the *entire* table and keeps
/// the matching rows with constant-time masks.
///
/// `O(n)` per query — the paper's best choice for *small* tables, where a
/// full scan costs less than either an ORAM path access or DHE's matrix
/// stack (Fig. 4), and one half of the DLRM hybrid scheme.
#[derive(Clone, Debug)]
pub struct LinearScan {
    table: Matrix,
    /// Byte length of one full tile of the scan kernel, as a tracer event
    /// length.
    tile_len: u32,
}

/// Byte length of one tile of the scan kernel over `dim`-wide rows, as a
/// tracer event length. Called once at construction, so an oversized row
/// is rejected up front instead of wrapping silently in every event.
///
/// # Panics
///
/// Panics if the tile exceeds `u32::MAX` bytes.
fn tile_trace_len(dim: usize) -> u32 {
    u32::try_from(scan::tile_rows(dim) as u64 * dim as u64 * 4)
        .expect("trace event length exceeds u32")
}

impl LinearScan {
    /// Wraps a trained `n × dim` table.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn new(table: Matrix) -> Self {
        assert!(!table.is_empty(), "LinearScan: empty table");
        let tile_len = tile_trace_len(table.cols());
        LinearScan { table, tile_len }
    }

    /// The underlying table.
    pub fn table(&self) -> &Matrix {
        &self.table
    }

    /// Reports what [`scan::scan_copy_rows`] does for a batch of `batch`
    /// indices: tile by tile, one read of the tile per index. A function
    /// of `(rows, dim, batch)` only.
    fn trace_scan(&self, batch: usize) {
        if !tracer::is_active() {
            return;
        }
        let table_bytes = self.table.len() as u64 * 4;
        for offset in (0..table_bytes).step_by(self.tile_len as usize) {
            // The last tile may be short; no tile is longer than `tile_len`.
            let len = (table_bytes - offset).min(self.tile_len.into()) as u32;
            for _ in 0..batch {
                tracer::read(regions::TABLE, offset, len);
            }
        }
    }

    /// Shared-reference batch scan (for the threading harness): the whole
    /// batch shares one walk over the table.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn generate_batch_ref(&self, indices: &[u64]) -> Matrix {
        let dim = self.table.cols();
        let mut out = Matrix::zeros(indices.len(), dim);
        self.trace_scan(indices.len());
        scan::scan_copy_rows(self.table.as_slice(), dim, indices, out.as_mut_slice());
        out
    }

    /// Splits the batch across `threads` OS threads, each scanning the
    /// shared table for its share of the indices — the configuration knob
    /// behind the paper's Fig. 6 observation that more threads shift the
    /// scan/DHE threshold upward.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or any index is out of range.
    pub fn generate_batch_threaded(&self, indices: &[u64], threads: usize) -> Matrix {
        assert!(threads > 0, "threads must be positive");
        if threads == 1 || indices.len() <= 1 {
            return self.generate_batch_ref(indices);
        }
        let dim = self.table.cols();
        let mut out = Matrix::zeros(indices.len(), dim);
        let chunk = indices.len().div_ceil(threads);
        let out_slice = out.as_mut_slice();
        std::thread::scope(|s| {
            for (idx_chunk, out_chunk) in
                indices.chunks(chunk).zip(out_slice.chunks_mut(chunk * dim))
            {
                // Worker threads have no active trace session; the scan
                // itself is the single-threaded one on a sub-batch.
                s.spawn(move || {
                    scan::scan_copy_rows(self.table.as_slice(), dim, idx_chunk, out_chunk)
                });
            }
        });
        out
    }
}

impl EmbeddingGenerator for LinearScan {
    fn dim(&self) -> usize {
        self.table.cols()
    }

    fn num_embeddings(&self) -> u64 {
        self.table.rows() as u64
    }

    fn generate_batch(&mut self, indices: &[u64]) -> Matrix {
        self.generate_batch_ref(indices)
    }

    fn generate_batch_threaded(&mut self, indices: &[u64], threads: usize) -> Matrix {
        LinearScan::generate_batch_threaded(self, indices, threads)
    }

    fn technique(&self) -> Technique {
        Technique::LinearScan
    }

    fn memory_bytes(&self) -> u64 {
        (self.table.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secemb_trace::check;

    fn scan() -> LinearScan {
        LinearScan::new(Matrix::from_fn(32, 4, |r, c| (r * 10 + c) as f32))
    }

    #[test]
    fn matches_direct_lookup() {
        let mut s = scan();
        let direct = crate::IndexLookup::new(s.table().clone()).generate_batch_ref(&[7, 31, 0]);
        let scanned = s.generate_batch(&[7, 31, 0]);
        assert_eq!(direct, scanned);
    }

    #[test]
    fn trace_is_index_independent() {
        let mut s = scan();
        let verdict = check::compare_traces(&[0u64, 13, 31], |&idx| {
            s.generate_batch(&[idx]);
        });
        assert!(verdict.is_oblivious());
    }

    #[test]
    fn batched_trace_is_index_independent() {
        // 600 rows of 24 words: two full 256-row tiles and a short one.
        let (rows, dim) = (600usize, 24usize);
        let mut s = LinearScan::new(Matrix::from_fn(rows, dim, |r, c| (r * dim + c) as f32));
        let tile_rows = scan::tile_rows(dim);
        let tiles = rows.div_ceil(tile_rows);
        assert!(tiles > 1 && rows % tile_rows != 0);
        for batch in [1usize, 8, 64] {
            // Batches that start in, straddle and end on tile edges, plus
            // the two all-duplicate extremes.
            let secrets: Vec<Vec<u64>> = [0, 1, tile_rows - 1, tile_rows, rows - 1]
                .iter()
                .map(|&seed| {
                    (0..batch)
                        .map(|b| ((seed + b * 97) % rows) as u64)
                        .collect()
                })
                .chain([vec![rows as u64 - 1; batch], vec![0; batch]])
                .collect();
            let verdict = check::compare_traces(&secrets, |indices| {
                s.generate_batch(indices);
            });
            assert!(verdict.is_oblivious(), "batch = {batch}");
            // Tile-major: every tile is read once per index.
            let trace = &verdict.traces()[0];
            assert_eq!(trace.len(), tiles * batch);
            let full = (tile_rows * dim * 4) as u64;
            let (first, last) = (trace.events()[0], trace.events()[tiles * batch - 1]);
            assert_eq!((first.offset, first.len as u64), (0, full));
            let last_offset = (tiles as u64 - 1) * full;
            let table_bytes = (rows * dim * 4) as u64;
            assert_eq!(
                (last.offset, last.len as u64),
                (last_offset, table_bytes - last_offset)
            );
        }
    }

    #[test]
    fn tile_length_fits_where_the_table_length_wrapped() {
        // The paper's largest table, 4e7 x 64: its byte length does not
        // fit the event's u32, which the old whole-table event cast it to.
        let table_bytes = 40_000_000u64 * 64 * 4;
        assert_ne!(table_bytes as u32 as u64, table_bytes);
        assert_eq!(tile_trace_len(64) as usize, scan::TILE_BYTES);
    }

    #[test]
    #[should_panic(expected = "trace event length exceeds u32")]
    fn oversized_tile_is_rejected() {
        // One 4 GiB row is one tile.
        tile_trace_len(1 << 30);
    }

    #[test]
    fn threaded_matches_single() {
        let s = scan();
        let indices: Vec<u64> = (0..17).map(|i| (i * 7) % 32).collect();
        let single = s.generate_batch_ref(&indices);
        for threads in [1, 2, 3, 8] {
            let multi = s.generate_batch_threaded(&indices, threads);
            assert_eq!(single, multi, "threads = {threads}");
        }
    }

    #[test]
    fn empty_batch() {
        let mut s = scan();
        assert_eq!(s.generate_batch(&[]).shape(), (0, 4));
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn oob_panics() {
        scan().generate_batch(&[32]);
    }
}
