//! Declarative generator construction and online cost estimation — the
//! pieces a serving layer needs to stand up backends and reason about
//! their latency.

use crate::hybrid::choose_technique;
use crate::{Dhe, DheConfig, EmbeddingGenerator, IndexLookup, LinearScan, OramTable, Technique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb_tensor::Matrix;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

/// A buildable description of one embedding backend.
///
/// Specs are `Copy`-able plain data, so they can cross threads and be
/// parsed from command lines; [`GeneratorSpec::build`] materializes the
/// actual generator (synthetic weights, deterministic in `seed`) on
/// whatever thread will own it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeneratorSpec {
    /// Insecure direct lookup (baseline).
    Lookup {
        /// Table rows.
        rows: u64,
        /// Embedding dimension.
        dim: usize,
    },
    /// Oblivious linear scan.
    Scan {
        /// Table rows.
        rows: u64,
        /// Embedding dimension.
        dim: usize,
    },
    /// Path ORAM table.
    PathOram {
        /// Table rows.
        rows: u64,
        /// Embedding dimension.
        dim: usize,
    },
    /// Circuit ORAM table.
    CircuitOram {
        /// Table rows.
        rows: u64,
        /// Embedding dimension.
        dim: usize,
    },
    /// Deep hash embedding (Varied sizing, as deployed).
    Dhe {
        /// Nominal table rows (drives Varied sizing).
        rows: u64,
        /// Embedding dimension.
        dim: usize,
    },
    /// Look-ahead ORAM table: Circuit ORAM with an oblivious write path.
    LaOram {
        /// Table rows.
        rows: u64,
        /// Embedding dimension.
        dim: usize,
    },
    /// The paper's hybrid: scan below `threshold` rows, DHE at or above
    /// (Algorithm 3 applied to a single table).
    Hybrid {
        /// Table rows.
        rows: u64,
        /// Embedding dimension.
        dim: usize,
        /// Profiled scan/DHE crossover.
        threshold: u64,
    },
}

impl GeneratorSpec {
    /// Table rows the spec describes.
    pub fn rows(&self) -> u64 {
        match *self {
            GeneratorSpec::Lookup { rows, .. }
            | GeneratorSpec::Scan { rows, .. }
            | GeneratorSpec::PathOram { rows, .. }
            | GeneratorSpec::CircuitOram { rows, .. }
            | GeneratorSpec::Dhe { rows, .. }
            | GeneratorSpec::LaOram { rows, .. }
            | GeneratorSpec::Hybrid { rows, .. } => rows,
        }
    }

    /// Embedding dimension the spec describes.
    pub fn dim(&self) -> usize {
        match *self {
            GeneratorSpec::Lookup { dim, .. }
            | GeneratorSpec::Scan { dim, .. }
            | GeneratorSpec::PathOram { dim, .. }
            | GeneratorSpec::CircuitOram { dim, .. }
            | GeneratorSpec::Dhe { dim, .. }
            | GeneratorSpec::LaOram { dim, .. }
            | GeneratorSpec::Hybrid { dim, .. } => dim,
        }
    }

    /// The technique [`build`](Self::build) will produce. For `Hybrid`
    /// this resolves the threshold decision.
    pub fn technique(&self) -> Technique {
        match *self {
            GeneratorSpec::Lookup { .. } => Technique::IndexLookup,
            GeneratorSpec::Scan { .. } => Technique::LinearScan,
            GeneratorSpec::PathOram { .. } => Technique::PathOram,
            GeneratorSpec::CircuitOram { .. } => Technique::CircuitOram,
            GeneratorSpec::Dhe { .. } => Technique::Dhe,
            GeneratorSpec::LaOram { .. } => Technique::LaOram,
            GeneratorSpec::Hybrid {
                rows, threshold, ..
            } => choose_technique(rows, threshold),
        }
    }

    /// The spec serving `rows × dim` with a fixed `technique` — the
    /// inverse of [`technique`](Self::technique), used when a live
    /// reallocation pins a table to a plan-chosen technique.
    pub fn with_technique(rows: u64, dim: usize, technique: Technique) -> GeneratorSpec {
        match technique {
            Technique::IndexLookup => GeneratorSpec::Lookup { rows, dim },
            Technique::LinearScan => GeneratorSpec::Scan { rows, dim },
            Technique::PathOram => GeneratorSpec::PathOram { rows, dim },
            Technique::CircuitOram => GeneratorSpec::CircuitOram { rows, dim },
            Technique::Dhe => GeneratorSpec::Dhe { rows, dim },
            Technique::LaOram => GeneratorSpec::LaOram { rows, dim },
        }
    }

    /// Builds the generator with synthetic weights derived from `seed`
    /// ([`Weights::Drawn`]).
    ///
    /// The result is `Send`, so a worker thread can own it.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `dim` is zero.
    pub fn build(&self, seed: u64) -> Box<dyn EmbeddingGenerator + Send> {
        let (rows, dim) = (self.rows(), self.dim());
        assert!(rows > 0, "GeneratorSpec: zero rows");
        assert!(dim > 0, "GeneratorSpec: zero dim");
        self.technique()
            .build(Weights::Drawn { rows, dim }, StdRng::seed_from_u64(seed))
    }
}

/// The trained weights a generator serves. Only the caller knows where
/// they come from — a checkpoint, a DHE materialized with
/// [`Dhe::to_table`], a synthetic draw — so it picks the variant;
/// everything after that is [`Technique::build`].
#[derive(Debug)]
pub enum Weights {
    /// An `n × dim` embedding table, for every storage-based technique.
    Table(Matrix),
    /// A DHE, for [`Technique::Dhe`], served as it is: a DHE holds its
    /// weights and nothing training left behind.
    Dhe(Dhe),
    /// Synthetic weights drawn from the RNG [`Technique::build`] is
    /// handed, for every technique: a `rows × dim` table of uniform
    /// `[-1, 1)` draws in row-major order, or a Varied DHE for such a
    /// table. A tree ORAM draws each row straight into its slot, so the
    /// table never exists outside the tree, and its controller then draws
    /// from where the table's draws end — the same table and the same
    /// controller as drawing the table first.
    Drawn {
        /// Table rows.
        rows: u64,
        /// Embedding dimension.
        dim: usize,
    },
}

/// One synthetic weight.
fn draw(rng: &mut StdRng) -> f32 {
    rng.gen_range(-1.0f32..1.0)
}

/// The `fill(id, slot)` callback of a drawn `rows × dim` table: it draws
/// row `id`'s bit patterns from a copy of `rng`, rows in id order, and
/// `rng` skips the table's draws, so the controller seeded with it draws
/// from where drawing the whole table first would have left it.
fn drawn_rows(rows: u64, dim: usize, rng: &mut StdRng) -> impl FnMut(u64, &mut [u32]) {
    let mut table_rng = rng.clone();
    for _ in 0..rows * dim as u64 {
        draw(rng);
    }
    let mut next = 0;
    move |id, words| {
        assert_eq!(id, next, "drawn rows are filled in id order");
        next += 1;
        for w in words {
            *w = draw(&mut table_rng).to_bits();
        }
    }
}

impl Technique {
    /// The generator serving `weights` with this technique — the one
    /// place in the workspace where the menu of Fig. 2 becomes code.
    /// `rng` draws [`Weights::Drawn`] and seeds the ORAM controllers'
    /// position maps; it is otherwise unused.
    ///
    /// The result is `Send`, so a worker thread can own it.
    ///
    /// # Panics
    ///
    /// Panics if a storage-based technique is given a DHE or
    /// [`Technique::Dhe`] a table, or if the table is empty.
    pub fn build(self, weights: Weights, mut rng: StdRng) -> Box<dyn EmbeddingGenerator + Send> {
        match (self, weights) {
            (Technique::Dhe, Weights::Dhe(dhe)) => Box::new(dhe),
            (Technique::Dhe, Weights::Drawn { rows, dim }) => {
                Box::new(Dhe::new(DheConfig::varied(dim, rows), &mut rng))
            }
            (Technique::Dhe, Weights::Table(_)) => panic!("DHE is built from a Dhe, not a table"),
            (other, Weights::Dhe(_)) => panic!("{other} is built from a table, not a Dhe"),
            (Technique::IndexLookup, Weights::Table(t)) => Box::new(IndexLookup::new(t)),
            (Technique::LinearScan, Weights::Table(t)) => Box::new(LinearScan::new(t)),
            (
                tree @ (Technique::PathOram | Technique::CircuitOram | Technique::LaOram),
                Weights::Table(t),
            ) => Box::new(OramTable::from_table(tree, &t, rng)),
            (
                plain @ (Technique::IndexLookup | Technique::LinearScan),
                Weights::Drawn { rows, dim },
            ) => {
                let table = Matrix::from_fn(rows as usize, dim, |_, _| draw(&mut rng));
                plain.build(Weights::Table(table), rng)
            }
            (
                tree @ (Technique::PathOram | Technique::CircuitOram | Technique::LaOram),
                Weights::Drawn { rows, dim },
            ) => {
                let fill = &mut drawn_rows(rows, dim, &mut rng);
                Box::new(OramTable::from_fn(tree, rows, dim, rng, fill))
            }
        }
    }
}

impl fmt::Display for GeneratorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GeneratorSpec::Lookup { .. } => "lookup",
            GeneratorSpec::Scan { .. } => "scan",
            GeneratorSpec::PathOram { .. } => "path",
            GeneratorSpec::CircuitOram { .. } => "circuit",
            GeneratorSpec::Dhe { .. } => "dhe",
            GeneratorSpec::LaOram { .. } => "laoram",
            GeneratorSpec::Hybrid { .. } => "hybrid",
        };
        write!(f, "{name}:{}x{}", self.rows(), self.dim())?;
        if let GeneratorSpec::Hybrid { threshold, .. } = self {
            write!(f, ":{threshold}")?;
        }
        Ok(())
    }
}

/// Error from [`GeneratorSpec::from_str`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecParseError(String);

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad generator spec '{}'; expected TECH:ROWSxDIM \
             (TECH in lookup|scan|path|circuit|dhe|laoram, or hybrid:ROWSxDIM:THRESHOLD)",
            self.0
        )
    }
}

impl std::error::Error for SpecParseError {}

impl FromStr for GeneratorSpec {
    type Err = SpecParseError;

    /// Parses compact CLI syntax: `scan:4096x64`, `dhe:1000000x64`,
    /// `hybrid:100000x64:8000`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || SpecParseError(s.to_string());
        let mut parts = s.split(':');
        let tech = parts.next().ok_or_else(err)?;
        let shape = parts.next().ok_or_else(err)?;
        let (rows_s, dim_s) = shape.split_once('x').ok_or_else(err)?;
        let rows: u64 = rows_s.parse().map_err(|_| err())?;
        let dim: usize = dim_s.parse().map_err(|_| err())?;
        let spec = match tech {
            "lookup" => GeneratorSpec::Lookup { rows, dim },
            "scan" => GeneratorSpec::Scan { rows, dim },
            "path" => GeneratorSpec::PathOram { rows, dim },
            "circuit" => GeneratorSpec::CircuitOram { rows, dim },
            "dhe" => GeneratorSpec::Dhe { rows, dim },
            "laoram" => GeneratorSpec::LaOram { rows, dim },
            "hybrid" => {
                let threshold: u64 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
                GeneratorSpec::Hybrid {
                    rows,
                    dim,
                    threshold,
                }
            }
            _ => return Err(err()),
        };
        if parts.next().is_some() || rows == 0 || dim == 0 {
            return Err(err());
        }
        Ok(spec)
    }
}

/// A measured per-query cost, the basis of serving-time admission control.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Median wall-clock nanoseconds per single query, measured at the
    /// probe batch size (amortized).
    pub per_query_ns: f64,
    /// Batch size the probe ran at.
    pub probe_batch: usize,
}

impl CostEstimate {
    /// Estimated nanoseconds to generate a batch of `n` queries.
    pub fn batch_ns(&self, n: usize) -> f64 {
        self.per_query_ns * n as f64
    }
}

/// Probes `generator` with a few warm batches and returns the median
/// amortized per-query cost.
///
/// # Panics
///
/// Panics if `probe_batch` or `repeats` is zero.
pub fn measure_cost(
    generator: &mut dyn EmbeddingGenerator,
    probe_batch: usize,
    repeats: usize,
) -> CostEstimate {
    assert!(probe_batch > 0, "measure_cost: zero probe batch");
    assert!(repeats > 0, "measure_cost: zero repeats");
    let indices = probe_indices(probe_batch, generator.num_embeddings());
    // One warm-up batch to fault in lazily-touched state (ORAM paths,
    // DHE activations) before timing.
    std::hint::black_box(generator.generate_batch(&indices));
    let batch_ns = median_ns(repeats, || {
        std::hint::black_box(generator.generate_batch(&indices));
    });
    CostEstimate {
        per_query_ns: batch_ns / probe_batch as f64,
        probe_batch,
    }
}

/// Median wall-clock nanoseconds over `repeats` runs of `f` (at least
/// one) — the timing rule behind every probe and figure in the workspace.
pub fn median_ns(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// The deterministic batch of `batch` in-range indices a cost probe
/// queries on a table of `rows` rows: strided by a prime so a batch
/// spreads over the table.
pub fn probe_indices(batch: usize, rows: u64) -> Vec<u64> {
    (0..batch as u64)
        .map(|i| (i * 7919) % rows.max(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for text in [
            "lookup:100x8",
            "scan:4096x64",
            "path:64x16",
            "circuit:64x16",
            "dhe:1000000x64",
            "laoram:64x16",
            "hybrid:100000x64:8000",
        ] {
            let spec: GeneratorSpec = text.parse().unwrap();
            assert_eq!(spec.to_string(), text);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "scan",
            "scan:64",
            "scan:0x8",
            "scan:64x0",
            "scan:64x8:9",
            "hybrid:64x8",
            "warp:64x8",
            "scan:axb",
        ] {
            assert!(bad.parse::<GeneratorSpec>().is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn hybrid_resolves_by_threshold() {
        let small = GeneratorSpec::Hybrid {
            rows: 100,
            dim: 8,
            threshold: 1000,
        };
        let large = GeneratorSpec::Hybrid {
            rows: 100_000,
            dim: 8,
            threshold: 1000,
        };
        assert_eq!(small.technique(), Technique::LinearScan);
        assert_eq!(large.technique(), Technique::Dhe);
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let spec = GeneratorSpec::Scan { rows: 50, dim: 4 };
        let mut a = spec.build(7);
        let mut b = spec.build(7);
        let mut c = spec.build(8);
        let out_a = a.generate_batch(&[0, 49, 13]);
        assert_eq!(out_a, b.generate_batch(&[0, 49, 13]));
        assert_ne!(out_a, c.generate_batch(&[0, 49, 13]));
        assert_eq!(a.technique(), Technique::LinearScan);
        assert_eq!(a.num_embeddings(), 50);
        assert_eq!(a.dim(), 4);
    }

    #[test]
    fn every_variant_builds_and_serves() {
        let specs = [
            GeneratorSpec::Lookup { rows: 32, dim: 4 },
            GeneratorSpec::Scan { rows: 32, dim: 4 },
            GeneratorSpec::PathOram { rows: 32, dim: 4 },
            GeneratorSpec::CircuitOram { rows: 32, dim: 4 },
            GeneratorSpec::Dhe { rows: 32, dim: 4 },
            GeneratorSpec::LaOram { rows: 32, dim: 4 },
        ];
        for spec in specs {
            let mut g = spec.build(1);
            let out = g.generate_batch(&[0, 31, 5]);
            assert_eq!(out.shape(), (3, 4), "{spec}");
            assert_eq!(g.technique(), spec.technique(), "{spec}");
        }
    }

    #[test]
    fn with_technique_inverts_technique() {
        for t in Technique::ALL {
            let spec = GeneratorSpec::with_technique(64, 8, t);
            assert_eq!(spec.technique(), t);
            assert_eq!((spec.rows(), spec.dim()), (64, 8));
        }
    }

    #[test]
    fn workers_can_own_built_generators() {
        let spec = GeneratorSpec::CircuitOram { rows: 32, dim: 4 };
        let handle = std::thread::spawn(move || {
            let mut g = spec.build(3);
            g.generate_batch(&[1, 2, 3]).shape()
        });
        assert_eq!(handle.join().unwrap(), (3, 4));
    }

    #[test]
    fn probe_helpers_are_pinned() {
        // One stride, one zero-guard, for every cost probe.
        assert_eq!(probe_indices(4, 10), [0, 9, 8, 7]);
        assert_eq!(probe_indices(3, 1_000_000), [0, 7919, 15838]);
        assert_eq!(probe_indices(3, 0), [0, 0, 0]);
        assert!(probe_indices(0, 10).is_empty());
        // `repeats` runs, at least one; the middle sample comes back.
        for (repeats, runs) in [(0, 1), (1, 1), (5, 5)] {
            let mut calls = 0;
            let ns = median_ns(repeats, || calls += 1);
            assert_eq!(calls, runs);
            assert!(ns.is_finite() && ns >= 0.0);
        }
        let mut naps = [3u64, 0, 0].into_iter();
        let ns = median_ns(3, || {
            std::thread::sleep(std::time::Duration::from_millis(naps.next().unwrap()));
        });
        assert!(ns < 3e6, "the median of (3 ms, 0, 0) is not the slow run");
    }

    #[test]
    #[should_panic(expected = "DHE is built from a Dhe")]
    fn dhe_needs_a_dhe() {
        let table = Matrix::zeros(4, 2);
        Technique::Dhe.build(Weights::Table(table), StdRng::seed_from_u64(0));
    }

    #[test]
    #[should_panic(expected = "Circuit ORAM is built from a table")]
    fn tables_need_a_table() {
        let dhe = Dhe::new(DheConfig::new(2, 4, vec![4]), &mut StdRng::seed_from_u64(0));
        Technique::CircuitOram.build(Weights::Dhe(dhe), StdRng::seed_from_u64(0));
    }

    #[test]
    fn cost_probe_scales_with_table() {
        let mut small = GeneratorSpec::Scan { rows: 64, dim: 16 }.build(0);
        let mut large = GeneratorSpec::Scan {
            rows: 16384,
            dim: 16,
        }
        .build(0);
        let cs = measure_cost(small.as_mut(), 8, 3);
        let cl = measure_cost(large.as_mut(), 8, 3);
        assert!(cs.per_query_ns > 0.0);
        assert!(
            cl.per_query_ns > cs.per_query_ns * 10.0,
            "scan cost must track table size: {} vs {}",
            cs.per_query_ns,
            cl.per_query_ns
        );
        assert_eq!(cl.batch_ns(2), cl.per_query_ns * 2.0);
    }
}
