//! The [`EmbeddingGenerator`] trait and the [`Technique`] taxonomy.

use secemb_tensor::Matrix;

/// The embedding generation techniques studied in the paper (Fig. 2,
/// Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Technique {
    /// Direct table lookup — fast, **not** side-channel safe.
    IndexLookup,
    /// Whole-table oblivious scan, `O(n)` per query.
    LinearScan,
    /// Table behind Path ORAM, `O(log² n)` per query.
    PathOram,
    /// Table behind Circuit ORAM, `O(log² n)` per query with a small stash.
    CircuitOram,
    /// Deep Hash Embedding — compute-based, `O(k²)` per query.
    Dhe,
    /// Table behind a look-ahead ORAM: batch-windowed prefetch with
    /// combined evictions, `O(log² n)` amortized per query, plus an
    /// oblivious write path for protected training.
    LaOram,
}

impl Technique {
    /// All techniques, in the paper's presentation order (repo extensions
    /// appended last so plan serialization indices stay stable).
    pub const ALL: [Technique; 6] = [
        Technique::IndexLookup,
        Technique::LinearScan,
        Technique::PathOram,
        Technique::CircuitOram,
        Technique::Dhe,
        Technique::LaOram,
    ];

    /// Whether the technique's memory access pattern hides the index.
    pub fn is_oblivious(self) -> bool {
        !matches!(self, Technique::IndexLookup)
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Technique::IndexLookup => "Index Lookup (non-secure)",
            Technique::LinearScan => "Linear Scan",
            Technique::PathOram => "Path ORAM",
            Technique::CircuitOram => "Circuit ORAM",
            Technique::Dhe => "DHE",
            Technique::LaOram => "Look-ahead ORAM",
        }
    }

    /// Short machine-friendly key (matches the [`crate::GeneratorSpec`]
    /// CLI syntax), stable across releases — the serialization name used
    /// by allocation plans.
    pub fn key(self) -> &'static str {
        match self {
            Technique::IndexLookup => "lookup",
            Technique::LinearScan => "scan",
            Technique::PathOram => "path",
            Technique::CircuitOram => "circuit",
            Technique::Dhe => "dhe",
            Technique::LaOram => "laoram",
        }
    }

    /// Parses a [`Technique::key`] back to the technique.
    pub fn from_key(key: &str) -> Option<Technique> {
        Technique::ALL.into_iter().find(|t| t.key() == key)
    }

    /// Asymptotic computation complexity per lookup (Table I).
    pub fn computation_complexity(self) -> &'static str {
        match self {
            Technique::IndexLookup => "O(1)",
            Technique::LinearScan => "O(n)",
            Technique::PathOram | Technique::CircuitOram | Technique::LaOram => "O(log^2 n)",
            Technique::Dhe => "O(k^2)",
        }
    }

    /// Asymptotic memory complexity (Table I).
    pub fn memory_complexity(self) -> &'static str {
        match self {
            Technique::IndexLookup | Technique::LinearScan => "O(n)",
            Technique::PathOram | Technique::CircuitOram | Technique::LaOram => "O(n)",
            Technique::Dhe => "O(k^2)",
        }
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A source of embedding vectors for categorical feature values.
///
/// `generate*` takes `&mut self` because the ORAM-backed generator mutates
/// internal state on every access; the stateless generators also provide
/// shared-reference batch methods. [`Technique::build`] is the one place a
/// technique becomes a generator.
pub trait EmbeddingGenerator {
    /// Embedding dimension.
    fn dim(&self) -> usize;

    /// Number of distinct feature values (table rows / hash domain size).
    fn num_embeddings(&self) -> u64;

    /// Generates the embedding for one feature value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_embeddings()` (the bound is public).
    fn generate(&mut self, index: u64) -> Vec<f32> {
        let m = self.generate_batch(&[index]);
        m.row(0).to_vec()
    }

    /// Generates embeddings for a batch of feature values
    /// (`indices.len() × dim`).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    fn generate_batch(&mut self, indices: &[u64]) -> Matrix;

    /// [`generate_batch`](Self::generate_batch) with the batch split across
    /// `threads` OS threads — the execution-configuration knob Algorithm 2
    /// profiles (Fig. 6). Linear scan and DHE split; the ORAMs ignore
    /// `threads`, their accesses being inherently sequential (§V-A1), and
    /// the lookup baseline has nothing to parallelize.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero (where it is used) or any index is out
    /// of range.
    fn generate_batch_threaded(&mut self, indices: &[u64], threads: usize) -> Matrix {
        let _ = threads;
        self.generate_batch(indices)
    }

    /// Which technique this generator implements.
    fn technique(&self) -> Technique;

    /// Bytes of model state this generator keeps resident.
    fn memory_bytes(&self) -> u64;

    /// Cumulative ORAM access statistics, for generators backed by an
    /// oblivious RAM controller (`None` otherwise).
    ///
    /// Whole-workload aggregates only — exposing them cannot reveal
    /// which embedding indices were requested.
    fn access_stats(&self) -> Option<secemb_oram::AccessStats> {
        None
    }

    /// Current ORAM stash occupancy in blocks, for generators backed by
    /// a stash-holding controller (`None` otherwise).
    fn stash_occupancy(&self) -> Option<usize> {
        None
    }

    /// Whether this generator supports in-place row updates (the protected
    /// training write path). Only look-ahead-ORAM-backed tables do.
    fn supports_updates(&self) -> bool {
        false
    }

    /// Executes one mixed read/update window: row `k` of the result is the
    /// (post-update) embedding of `indices[k]`; when `updates[k]` is
    /// `Some(delta)`, `delta` (length `dim`) is added to the stored row
    /// first. Generators without a write path only accept all-`None`
    /// updates and degrade to [`Self::generate_batch`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range, a delta has the wrong width,
    /// or an update is passed to a generator where
    /// [`Self::supports_updates`] is `false`.
    fn generate_window(&mut self, indices: &[u64], updates: &[Option<&[f32]>]) -> Matrix {
        assert_eq!(indices.len(), updates.len(), "generate_window: shape");
        assert!(
            updates.iter().all(Option::is_none),
            "{}: updates unsupported",
            self.technique()
        );
        self.generate_batch(indices)
    }

    /// Look-ahead window statistics, for generators backed by the
    /// look-ahead ORAM (`None` otherwise). Aggregates only — never the
    /// read/write mix, which the oblivious write path exists to hide.
    fn lookahead_stats(&self) -> Option<secemb_laoram::LaStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obliviousness_classification() {
        assert!(!Technique::IndexLookup.is_oblivious());
        for t in [
            Technique::LinearScan,
            Technique::PathOram,
            Technique::CircuitOram,
            Technique::Dhe,
            Technique::LaOram,
        ] {
            assert!(t.is_oblivious(), "{t} must be oblivious");
        }
    }

    #[test]
    fn table_i_complexities() {
        assert_eq!(Technique::LinearScan.computation_complexity(), "O(n)");
        assert_eq!(
            Technique::CircuitOram.computation_complexity(),
            "O(log^2 n)"
        );
        assert_eq!(Technique::Dhe.computation_complexity(), "O(k^2)");
        assert_eq!(Technique::Dhe.memory_complexity(), "O(k^2)");
    }

    #[test]
    fn all_covers_every_variant() {
        assert_eq!(Technique::ALL.len(), 6);
        assert_eq!(format!("{}", Technique::Dhe), "DHE");
        assert_eq!(format!("{}", Technique::LaOram), "Look-ahead ORAM");
    }

    #[test]
    fn keys_round_trip() {
        for t in Technique::ALL {
            assert_eq!(Technique::from_key(t.key()), Some(t));
        }
        assert_eq!(Technique::from_key("warp"), None);
    }
}
