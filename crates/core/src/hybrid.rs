//! The hybrid scheme: offline profiling and online allocation
//! (Algorithms 2 and 3, §IV-C).
//!
//! DLRM models carry tens of tables spanning sizes from a handful of rows
//! to tens of millions, and Fig. 4 shows no single secure technique wins
//! across that range: linear scan is fastest for small tables, DHE for
//! large ones. The hybrid scheme:
//!
//! 1. **Offline** ([`Profiler`]): measures linear-scan and DHE latency
//!    across table sizes for each execution configuration (batch size ×
//!    thread count) and records the crossover threshold in a
//!    [`ThresholdTable`]. The search is written once
//!    ([`Profiler::walk`], optionally with a Circuit-ORAM middle band);
//!    an online re-profile is the same walk over a refined grid.
//! 2. **Offline**: trains one all-DHE model, then materializes plain tables
//!    (via [`crate::Dhe::to_table`]) for features that may run as scans —
//!    no per-configuration retraining.
//! 3. **Online** ([`allocate`]): picks scan or DHE per feature from the
//!    profiled threshold for the current configuration. The decision
//!    depends only on public quantities (table size, batch, threads), so
//!    the hybrid inherits the security of its parts (§V-B).

use crate::{median_ns, probe_indices, Dhe, DheConfig, Technique, Weights};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb_tensor::Matrix;
use secemb_wire::json::{self, JsonError, Value};

/// The three-way allocation boundaries: two profiled crossovers carving
/// table sizes into a linear-scan band, a Circuit-ORAM band, and a DHE
/// band.
///
/// Linear scan is `O(n)` per query, Circuit ORAM `O(log² n)` with large
/// constants, DHE roughly flat in `n` — so when ORAM beats DHE anywhere
/// it is on a *middle* band of sizes: big enough that scanning loses,
/// small enough that the ORAM tree is shallow. An empty band
/// (`scan_to == oram_to`) degenerates to the paper's two-way scan/DHE
/// split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crossovers {
    /// Table sizes strictly below this are served by linear scan.
    pub scan_to: u64,
    /// Upper edge of the Circuit-ORAM band: sizes in
    /// `[scan_to, oram_to)` are served by Circuit ORAM, sizes at or
    /// above by DHE. Never below `scan_to`.
    pub oram_to: u64,
}

impl Crossovers {
    /// A classic two-way split: scan strictly below `threshold`, DHE at
    /// or above it, no ORAM band.
    pub fn two_way(threshold: u64) -> Self {
        Crossovers {
            scan_to: threshold,
            oram_to: threshold,
        }
    }

    /// Algorithm 3's per-feature decision, extended with the ORAM band.
    pub fn choose(&self, table_size: u64) -> Technique {
        if table_size < self.scan_to {
            Technique::LinearScan
        } else if table_size < self.oram_to {
            Technique::CircuitOram
        } else {
            Technique::Dhe
        }
    }

    /// Whether the ORAM band is empty (pure scan/DHE split).
    pub fn is_two_way(&self) -> bool {
        self.oram_to <= self.scan_to
    }

    /// Clamps `oram_to` up to `scan_to` so the bands are well-ordered.
    #[must_use]
    pub fn normalized(self) -> Self {
        Crossovers {
            scan_to: self.scan_to,
            oram_to: self.oram_to.max(self.scan_to),
        }
    }
}

fn field_error(ty: &str, field: &str) -> JsonError {
    JsonError {
        message: format!("{ty}: missing or invalid field '{field}'"),
        position: 0,
    }
}

/// One profiled execution configuration and its crossover threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdEntry {
    /// Embedding-generation batch size.
    pub batch: usize,
    /// Worker thread count.
    pub threads: usize,
    /// Table sizes strictly below this use linear scan; at or above, DHE.
    pub threshold: u64,
}

impl ThresholdEntry {
    fn to_value(self) -> Value {
        Value::obj([
            ("batch", Value::Num(self.batch as f64)),
            ("threads", Value::Num(self.threads as f64)),
            ("threshold", Value::Num(self.threshold as f64)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, JsonError> {
        let field = |name| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| field_error("ThresholdEntry", name))
        };
        Ok(ThresholdEntry {
            batch: field("batch")? as usize,
            threads: field("threads")? as usize,
            threshold: field("threshold")?,
        })
    }
}

/// The profiled threshold database (Fig. 6), one entry per execution
/// configuration, for a fixed embedding dimension.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThresholdTable {
    /// Embedding dimension the profile was taken at.
    pub dim: usize,
    /// Profiled entries.
    pub entries: Vec<ThresholdEntry>,
}

impl ThresholdTable {
    /// The threshold for `(batch, threads)`, falling back to the entry with
    /// the nearest configuration (log-distance) when no exact match exists.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty.
    pub fn threshold(&self, batch: usize, threads: usize) -> u64 {
        assert!(!self.entries.is_empty(), "empty threshold table");
        let dist = |e: &ThresholdEntry| {
            let b = ((e.batch.max(1) as f64).ln() - (batch.max(1) as f64).ln()).abs();
            let t = ((e.threads.max(1) as f64).ln() - (threads.max(1) as f64).ln()).abs();
            b + t
        };
        self.entries
            .iter()
            .min_by(|a, b| dist(a).partial_cmp(&dist(b)).unwrap())
            .unwrap()
            .threshold
    }

    /// Serializes to JSON (the on-disk artifact the paper's Jupyter
    /// notebook produces).
    pub fn to_json(&self) -> String {
        Value::obj([
            ("dim", Value::Num(self.dim as f64)),
            (
                "entries",
                Value::Arr(self.entries.iter().map(|e| e.to_value()).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Parses a JSON profile.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let v = json::parse(s)?;
        let dim = v
            .get("dim")
            .and_then(Value::as_usize)
            .ok_or_else(|| field_error("ThresholdTable", "dim"))?;
        let entries = v
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or_else(|| field_error("ThresholdTable", "entries"))?
            .iter()
            .map(ThresholdEntry::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ThresholdTable { dim, entries })
    }
}

/// One table's slot in a versioned [`AllocationPlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedTable {
    /// Table rows (public).
    pub rows: u64,
    /// Technique assigned by the plan's threshold.
    pub technique: Technique,
    /// Estimated per-query cost for admission control, nanoseconds.
    /// Non-positive means "unknown — probe at apply time".
    pub per_query_ns: f64,
}

impl PlannedTable {
    fn to_value(self) -> Value {
        Value::obj([
            ("rows", Value::Num(self.rows as f64)),
            ("technique", Value::Str(self.technique.key().to_string())),
            ("per_query_ns", Value::Num(self.per_query_ns)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, JsonError> {
        let rows = v
            .get("rows")
            .and_then(Value::as_u64)
            .ok_or_else(|| field_error("PlannedTable", "rows"))?;
        let technique = v
            .get("technique")
            .and_then(Value::as_str)
            .and_then(Technique::from_key)
            .ok_or_else(|| field_error("PlannedTable", "technique"))?;
        let per_query_ns = v
            .get("per_query_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| field_error("PlannedTable", "per_query_ns"))?;
        Ok(PlannedTable {
            rows,
            technique,
            per_query_ns,
        })
    }
}

/// A versioned snapshot of Algorithm 3's output for a whole model: which
/// technique serves each table, under which profiled threshold, plus the
/// admission-control cost estimates — the artifact a serving layer swaps
/// atomically when re-profiling detects drift.
#[derive(Clone, Debug, PartialEq)]
pub struct AllocationPlan {
    /// Monotonically increasing plan version (0 = the offline plan).
    pub version: u64,
    /// Embedding dimension the plan was profiled at.
    pub dim: usize,
    /// Execution batch size the threshold was profiled for.
    pub batch: usize,
    /// Worker thread count the threshold was profiled for.
    pub threads: usize,
    /// The scan crossover: sizes strictly below it scan.
    pub threshold: u64,
    /// Upper edge of the Circuit-ORAM band (see [`Crossovers`]); equal
    /// to `threshold` for a plan with no ORAM band, in which case sizes
    /// at or above `threshold` go straight to DHE — the classic split.
    pub oram_to: u64,
    /// Per-table assignments, indexed by table id.
    pub tables: Vec<PlannedTable>,
}

impl AllocationPlan {
    /// Derives a plan from both profiled crossovers — Algorithm 3
    /// applied to every table, stamped with `version`: scan below
    /// `crossovers.scan_to`, Circuit ORAM on `[scan_to, oram_to)`, DHE
    /// at or above `oram_to`. [`Crossovers::two_way`] gives the paper's
    /// scan/DHE split.
    ///
    /// `costs[i]` is the per-query cost estimate for table `i`
    /// (non-positive = unknown, to be probed when the plan is applied).
    ///
    /// # Panics
    ///
    /// Panics if `costs.len() != table_sizes.len()`.
    pub fn derive_three_way(
        version: u64,
        dim: usize,
        crossovers: Crossovers,
        table_sizes: &[u64],
        costs: &[f64],
        batch: usize,
        threads: usize,
    ) -> Self {
        assert_eq!(
            table_sizes.len(),
            costs.len(),
            "one cost estimate per table"
        );
        let crossovers = crossovers.normalized();
        AllocationPlan {
            version,
            dim,
            batch,
            threads,
            threshold: crossovers.scan_to,
            oram_to: crossovers.oram_to,
            tables: table_sizes
                .iter()
                .zip(costs)
                .map(|(&rows, &per_query_ns)| PlannedTable {
                    rows,
                    technique: crossovers.choose(rows),
                    per_query_ns,
                })
                .collect(),
        }
    }

    /// The plan's allocation boundaries.
    pub fn crossovers(&self) -> Crossovers {
        Crossovers {
            scan_to: self.threshold,
            oram_to: self.oram_to,
        }
        .normalized()
    }

    /// Whether the assignment is monotone in table size: sorting tables
    /// by `rows` walks scan → ORAM → DHE without ever stepping back to
    /// a cheaper-per-small-table technique. Every plan produced by
    /// [`derive_three_way`](Self::derive_three_way) satisfies this by
    /// construction (the decision thresholds on a single public size), so
    /// a `false` here means the plan was corrupted in transit.
    pub fn is_monotone(&self) -> bool {
        // Band order by table size; the ORAMs share the middle band.
        fn rank(t: Technique) -> u8 {
            match t {
                Technique::IndexLookup | Technique::LinearScan => 0,
                Technique::PathOram | Technique::CircuitOram | Technique::LaOram => 1,
                Technique::Dhe => 2,
            }
        }
        let mut by_size: Vec<&PlannedTable> = self.tables.iter().collect();
        by_size.sort_by_key(|t| t.rows);
        by_size
            .windows(2)
            .all(|w| rank(w[0].technique) <= rank(w[1].technique))
    }

    /// Serializes to JSON (the persisted plan artifact).
    pub fn to_json(&self) -> String {
        Value::obj([
            ("version", Value::Num(self.version as f64)),
            ("dim", Value::Num(self.dim as f64)),
            ("batch", Value::Num(self.batch as f64)),
            ("threads", Value::Num(self.threads as f64)),
            ("threshold", Value::Num(self.threshold as f64)),
            ("oram_to", Value::Num(self.oram_to as f64)),
            (
                "tables",
                Value::Arr(self.tables.iter().map(|t| t.to_value()).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Parses a persisted plan. Plans written before the ORAM band
    /// existed carry no `oram_to` field and parse as two-way plans.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let v = json::parse(s)?;
        let field = |name| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| field_error("AllocationPlan", name))
        };
        let tables = v
            .get("tables")
            .and_then(Value::as_arr)
            .ok_or_else(|| field_error("AllocationPlan", "tables"))?
            .iter()
            .map(PlannedTable::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        let threshold = field("threshold")?;
        let oram_to = match v.get("oram_to") {
            None => threshold, // pre-ORAM-band plan
            Some(raw) => raw
                .as_u64()
                .ok_or_else(|| field_error("AllocationPlan", "oram_to"))?,
        };
        Ok(AllocationPlan {
            version: field("version")?,
            dim: field("dim")? as usize,
            batch: field("batch")? as usize,
            threads: field("threads")? as usize,
            threshold,
            oram_to,
            tables,
        })
    }
}

/// Algorithm 3's per-feature decision: linear scan below the threshold,
/// DHE at or above it (the two-way split; see [`Crossovers::choose`] for
/// the three-way decision with an ORAM band).
pub fn choose_technique(table_size: u64, threshold: u64) -> Technique {
    Crossovers::two_way(threshold).choose(table_size)
}

/// Allocates a technique to every feature of a model for the current
/// execution configuration (Algorithm 3 over a whole model).
pub fn allocate(
    profile: &ThresholdTable,
    table_sizes: &[u64],
    batch: usize,
    threads: usize,
) -> Vec<Technique> {
    let threshold = profile.threshold(batch, threads);
    table_sizes
        .iter()
        .map(|&n| choose_technique(n, threshold))
        .collect()
}

/// Latency profiler (Algorithm 2 step 1).
///
/// Measures wall-clock latency of the candidate techniques over synthetic
/// tables of increasing size and locates the crossovers. Profiling "is of
/// low effort … done once per system for each embedding dimension"
/// (§IV-C1); an online re-profile is the same walk over a refined grid
/// ([`refine_sizes`](Self::refine_sizes)).
#[derive(Clone, Debug)]
pub struct Profiler {
    /// Embedding dimension to profile.
    pub dim: usize,
    /// Table sizes to sweep (ascending).
    pub sizes: Vec<u64>,
    /// Measurement repetitions per point (median is used).
    pub repeats: usize,
    /// Whether the DHE side uses Varied sizing (as deployed) or Uniform.
    pub varied_dhe: bool,
}

/// What one crossover walk found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walk {
    /// The allocation boundaries, clamped to the grid: a crossover below
    /// the grid comes back as its low edge, one above it as one past its
    /// high edge.
    pub crossovers: Crossovers,
    /// Grid points whose costs were asked for.
    pub points_probed: usize,
}

impl Profiler {
    /// A profiler over `sizes` at dimension `dim` with sensible defaults.
    pub fn new(dim: usize, sizes: Vec<u64>) -> Self {
        Profiler {
            dim,
            sizes,
            repeats: 5,
            varied_dhe: false,
        }
    }

    /// Algorithm 2's crossover search, as a pure function of a cost
    /// oracle `cost(technique, rows)`: walks the ascending `sizes`,
    /// taking the first size where scan stops being the cheapest as
    /// `scan_to` and the first size at or past it where DHE is at least
    /// as cheap as Circuit ORAM as `oram_to`, and stops there — larger
    /// sizes are DHE's, its cost being flat in `n`. With `oram` false
    /// the ORAM candidate is never priced and the band stays empty: the
    /// paper's two-way scan/DHE threshold search. `between_points` runs
    /// before every grid point but the first (an online probe's
    /// throttle).
    ///
    /// When DHE already wins at the low edge the crossover lies below the
    /// grid and the low edge is returned (an upper bound); when scan wins
    /// everywhere both crossovers are one past the grid (a lower bound),
    /// and so is `oram_to` when ORAM still wins at the top. Either answer
    /// moves an allocation in the right direction; a later walk over a
    /// [refined grid](Self::refine_sizes) can close in.
    pub fn walk(
        sizes: &[u64],
        oram: bool,
        mut cost: impl FnMut(Technique, u64) -> f64,
        mut between_points: impl FnMut(),
    ) -> Walk {
        let past_grid = sizes.last().map_or(0, |&s| s + 1);
        let (mut scan_to, mut oram_to) = (None, None);
        let mut points_probed = 0;
        for (i, &rows) in sizes.iter().enumerate() {
            if i > 0 {
                between_points();
            }
            points_probed += 1;
            let dhe_ns = cost(Technique::Dhe, rows);
            let oram_ns = if oram {
                cost(Technique::CircuitOram, rows)
            } else {
                f64::INFINITY
            };
            if scan_to.is_none() {
                if dhe_ns.min(oram_ns) > cost(Technique::LinearScan, rows) {
                    continue; // scan still wins; neither boundary reached
                }
                scan_to = Some(rows);
            }
            if dhe_ns <= oram_ns {
                oram_to = Some(rows);
                break; // both boundaries pinned
            }
        }
        Walk {
            crossovers: Crossovers {
                scan_to: scan_to.unwrap_or(past_grid),
                oram_to: oram_to.unwrap_or(past_grid),
            }
            .normalized(),
            points_probed,
        }
    }

    /// Median wall-clock nanoseconds for one batch of `technique` over a
    /// synthetic table of `rows` rows (for DHE: sized for such a table),
    /// split across `threads` where the technique can use them. The
    /// generator comes from [`Technique::build`], so what is timed is what
    /// is served. No warm-up batch: every repeat counts.
    pub fn measure(&self, technique: Technique, rows: u64, batch: usize, threads: usize) -> f64 {
        let rows = rows.max(2); // an ORAM tree has at least two leaves
        let mut rng = StdRng::seed_from_u64(0);
        let weights = match technique {
            Technique::Dhe => {
                let config = if self.varied_dhe {
                    DheConfig::varied(self.dim, rows)
                } else {
                    DheConfig::uniform(self.dim)
                };
                Weights::Dhe(Dhe::new(config, &mut rng))
            }
            _ => Weights::Table(Matrix::from_fn(rows as usize, self.dim, |r, c| {
                (r + c) as f32 * 1e-3
            })),
        };
        let mut generator = technique.build(weights, rng);
        let indices = probe_indices(batch, rows);
        median_ns(self.repeats, || {
            std::hint::black_box(generator.generate_batch_threaded(&indices, threads));
        })
    }

    /// [`walk`](Self::walk) over this profiler's grid with measured
    /// costs for the `(batch, threads)` execution configuration.
    pub fn find_crossovers(
        &self,
        batch: usize,
        threads: usize,
        oram: bool,
        between_points: impl FnMut(),
    ) -> Walk {
        Self::walk(
            &self.sizes,
            oram,
            |technique, rows| self.measure(technique, rows, batch, threads),
            between_points,
        )
    }

    /// The two-way crossover threshold: the first grid size at which DHE
    /// is at least as fast as linear scan (or one past the largest size
    /// when scan always wins).
    pub fn find_threshold(&self, batch: usize, threads: usize) -> u64 {
        self.find_crossovers(batch, threads, false, || ())
            .crossovers
            .scan_to
    }

    /// A log-spaced size grid of `points` sizes spanning
    /// `[old / window_factor, old * window_factor]` around a previously
    /// profiled threshold — the bounded search window for online
    /// re-profiling, where the crossover is expected to have *moved*, not
    /// teleported.
    ///
    /// # Panics
    ///
    /// Panics if `window_factor <= 1.0` or `points < 2`.
    pub fn refine_sizes(old_threshold: u64, window_factor: f64, points: usize) -> Vec<u64> {
        assert!(window_factor > 1.0, "refine window must widen the search");
        assert!(points >= 2, "refinement needs at least two grid points");
        let center = (old_threshold.max(2)) as f64;
        let lo = (center / window_factor).max(2.0).ln();
        let hi = (center * window_factor).ln();
        let mut sizes: Vec<u64> = (0..points)
            .map(|i| {
                let t = i as f64 / (points - 1) as f64;
                (lo + t * (hi - lo)).exp().round() as u64
            })
            .collect();
        sizes.dedup();
        sizes
    }

    /// Profiles a full (batch × threads) grid into a [`ThresholdTable`]
    /// (the Fig. 6 artifact).
    pub fn profile_grid(&self, batches: &[usize], thread_counts: &[usize]) -> ThresholdTable {
        let mut entries = Vec::new();
        for &batch in batches {
            for &threads in thread_counts {
                entries.push(ThresholdEntry {
                    batch,
                    threads,
                    threshold: self.find_threshold(batch, threads),
                });
            }
        }
        ThresholdTable {
            dim: self.dim,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ThresholdTable {
        ThresholdTable {
            dim: 64,
            entries: vec![
                ThresholdEntry {
                    batch: 1,
                    threads: 1,
                    threshold: 8000,
                },
                ThresholdEntry {
                    batch: 32,
                    threads: 1,
                    threshold: 3300,
                },
                ThresholdEntry {
                    batch: 32,
                    threads: 8,
                    threshold: 9000,
                },
            ],
        }
    }

    #[test]
    fn exact_and_nearest_lookup() {
        let p = profile();
        assert_eq!(p.threshold(32, 1), 3300);
        assert_eq!(p.threshold(32, 8), 9000);
        // Nearest for an unseen configuration.
        assert_eq!(p.threshold(30, 1), 3300);
        assert_eq!(p.threshold(1, 2), 8000);
    }

    #[test]
    fn allocation_splits_on_threshold() {
        let p = profile();
        let sizes = [10u64, 3299, 3300, 1_000_000];
        let alloc = allocate(&p, &sizes, 32, 1);
        assert_eq!(
            alloc,
            vec![
                Technique::LinearScan,
                Technique::LinearScan,
                Technique::Dhe,
                Technique::Dhe
            ]
        );
    }

    #[test]
    fn choose_boundary() {
        assert_eq!(choose_technique(99, 100), Technique::LinearScan);
        assert_eq!(choose_technique(100, 100), Technique::Dhe);
    }

    #[test]
    fn three_way_choice_bands() {
        let c = Crossovers {
            scan_to: 100,
            oram_to: 10_000,
        };
        assert_eq!(c.choose(99), Technique::LinearScan);
        assert_eq!(c.choose(100), Technique::CircuitOram);
        assert_eq!(c.choose(9_999), Technique::CircuitOram);
        assert_eq!(c.choose(10_000), Technique::Dhe);
        assert!(!c.is_two_way());
        // An empty band degenerates to the paper's two-way split.
        let two = Crossovers::two_way(100);
        assert!(two.is_two_way());
        for size in [0, 99, 100, 1_000_000] {
            assert_eq!(two.choose(size), choose_technique(size, 100));
        }
        // Ill-ordered crossovers normalize to an empty band, not an
        // inverted one.
        let bad = Crossovers {
            scan_to: 500,
            oram_to: 10,
        }
        .normalized();
        assert_eq!(bad.oram_to, 500);
        assert!(bad.is_two_way());
    }

    #[test]
    fn three_way_plan_allocates_and_round_trips() {
        let sizes = [50u64, 5_000, 1_000_000];
        let costs = [1000.0, -1.0, 40_000.0];
        let crossovers = Crossovers {
            scan_to: 100,
            oram_to: 100_000,
        };
        let plan = AllocationPlan::derive_three_way(7, 64, crossovers, &sizes, &costs, 8, 1);
        assert_eq!(plan.tables[0].technique, Technique::LinearScan);
        assert_eq!(plan.tables[1].technique, Technique::CircuitOram);
        assert_eq!(plan.tables[2].technique, Technique::Dhe);
        assert!(plan.is_monotone());
        assert_eq!(plan.crossovers(), crossovers);
        let back = AllocationPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn pre_oram_band_plan_json_still_parses() {
        // A plan serialized before the ORAM band existed has no
        // `oram_to`; it must load as a two-way plan, not an error.
        let old = "{\"version\": 4, \"dim\": 8, \"batch\": 2, \"threads\": 1, \
                   \"threshold\": 500, \"tables\": []}";
        let plan = AllocationPlan::from_json(old).unwrap();
        assert_eq!(plan.oram_to, 500);
        assert!(plan.crossovers().is_two_way());
        // But a present-and-malformed oram_to is an error, not a default.
        let bad = old.replace("\"tables\"", "\"oram_to\": \"x\", \"tables\"");
        assert!(AllocationPlan::from_json(&bad).is_err());
    }

    #[test]
    fn oram_band_breaks_monotonicity_when_misplaced() {
        let mut plan = AllocationPlan::derive_three_way(
            0,
            8,
            Crossovers {
                scan_to: 100,
                oram_to: 10_000,
            },
            &[10, 1_000, 100_000],
            &[0.0, 0.0, 0.0],
            1,
            1,
        );
        assert!(plan.is_monotone());
        // Corrupt: the largest table claims ORAM while a smaller one
        // runs DHE — the size ordering scan -> ORAM -> DHE is broken.
        plan.tables[1].technique = Technique::Dhe;
        plan.tables[2].technique = Technique::CircuitOram;
        assert!(!plan.is_monotone());
    }

    #[test]
    fn profiler_measures_every_technique() {
        let prof = Profiler {
            dim: 8,
            sizes: vec![],
            repeats: 2,
            varied_dhe: false,
        };
        for technique in Technique::ALL {
            let ns = prof.measure(technique, 64, 4, 1);
            assert!(ns > 0.0, "{technique} batch must take measurable time");
        }
    }

    #[test]
    fn find_crossovers_is_ordered_and_in_range() {
        let prof = Profiler {
            dim: 8,
            sizes: vec![16, 128, 1024],
            repeats: 2,
            varied_dhe: false,
        };
        let walk = prof.find_crossovers(4, 1, true, || ());
        let c = walk.crossovers;
        assert!(c.scan_to <= c.oram_to, "bands must be ordered: {c:?}");
        assert!(
            c.scan_to >= 16 && c.oram_to <= 1025,
            "crossovers {c:?} escaped the grid"
        );
        assert!((1..=3).contains(&walk.points_probed));
    }

    /// Algorithm 2 without a clock: the walk over synthetic cost oracles.
    #[test]
    fn walk_over_cost_oracles() {
        use Technique::{CircuitOram, Dhe, LinearScan};
        const GRID: [u64; 5] = [10, 100, 1_000, 10_000, 100_000];
        // Scan costs a nanosecond a row; the cases set the other two.
        struct Case {
            name: &'static str,
            oram: bool,
            dhe_ns: f64,
            oram_ns: fn(u64) -> f64,
            want: (u64, u64),
            probed: usize,
        }
        let cases = [
            Case {
                name: "scan wins everywhere: both edges one past the grid",
                oram: true,
                dhe_ns: 1e9,
                oram_ns: |_| 1e9,
                want: (100_001, 100_001),
                probed: 5,
            },
            Case {
                name: "DHE wins at the low edge",
                oram: true,
                dhe_ns: 5.0,
                oram_ns: |_| 1e9,
                want: (10, 10),
                probed: 1,
            },
            Case {
                name: "a non-empty ORAM band",
                oram: true,
                dhe_ns: 5_000.0,
                oram_ns: |rows| 50.0 * (rows as f64).log2(),
                // ORAM: 166, 332, 498, 664, 830 ns. Scan loses to it
                // at 1 000 rows; DHE never catches it on this grid.
                want: (1_000, 100_001),
                probed: 5,
            },
            Case {
                name: "a band that closes inside the grid",
                oram: true,
                dhe_ns: 600.0,
                oram_ns: |rows| 50.0 * (rows as f64).log2(),
                want: (1_000, 10_000),
                probed: 4,
            },
            Case {
                name: "an empty band is the two-way answer",
                oram: true,
                dhe_ns: 600.0,
                oram_ns: |_| 1e9,
                want: (1_000, 1_000),
                probed: 3,
            },
            Case {
                name: "ORAM candidate skipped",
                oram: false,
                dhe_ns: 600.0,
                oram_ns: |_| panic!("priced a skipped candidate"),
                want: (1_000, 1_000),
                probed: 3,
            },
        ];
        for case in cases {
            let mut sleeps = 0;
            let walk = Profiler::walk(
                &GRID,
                case.oram,
                |technique, rows| match technique {
                    LinearScan => rows as f64,
                    CircuitOram => (case.oram_ns)(rows),
                    Dhe => case.dhe_ns,
                    other => panic!("{other} is not a candidate"),
                },
                || sleeps += 1,
            );
            let want = Crossovers {
                scan_to: case.want.0,
                oram_to: case.want.1,
            };
            assert_eq!(walk.crossovers, want, "{}", case.name);
            // The early stop: nothing past the pinned edges is probed,
            // and the hook runs between points only.
            assert_eq!(walk.points_probed, case.probed, "{}", case.name);
            assert_eq!(sleeps, case.probed - 1, "{}", case.name);
        }
        // An empty grid has nothing to walk.
        let empty = Profiler::walk(&[], true, |_, _| unreachable!(), || unreachable!());
        assert_eq!(empty.crossovers, Crossovers::two_way(0));
        assert_eq!(empty.points_probed, 0);
    }

    #[test]
    fn json_round_trip() {
        let p = profile();
        let back = ThresholdTable::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
        assert!(ThresholdTable::from_json("not json").is_err());
        // Well-formed JSON with the wrong shape is still an error.
        assert!(ThresholdTable::from_json("{\"dim\": 64}").is_err());
        assert!(ThresholdTable::from_json("{\"dim\": 64, \"entries\": [{\"batch\": 1}]}").is_err());
    }

    #[test]
    fn profiler_scan_grows_with_size() {
        let prof = Profiler {
            dim: 16,
            sizes: vec![64, 4096],
            repeats: 3,
            varied_dhe: false,
        };
        let small = prof.measure(Technique::LinearScan, 64, 8, 1);
        let large = prof.measure(Technique::LinearScan, 4096, 8, 1);
        assert!(
            large > small * 4.0,
            "scan must grow ~linearly: {small} -> {large}"
        );
    }

    #[test]
    fn profiler_finds_a_threshold_in_range() {
        let prof = Profiler {
            dim: 16,
            sizes: vec![16, 256, 4096, 65536, 262144],
            repeats: 3,
            varied_dhe: false,
        };
        let t = prof.find_threshold(32, 1);
        // Uniform DHE (k=1024) costs far more than scanning 16 rows and far
        // less than scanning 262144; the crossover must be interior.
        assert!(t > 16 && t <= 262144, "threshold {t} out of expected range");
    }

    #[test]
    fn plan_derivation_and_round_trip() {
        let sizes = [100u64, 5_000, 1_000_000];
        let costs = [1500.0, 72_000.5, -1.0];
        let plan = AllocationPlan::derive_three_way(
            3,
            64,
            Crossovers::two_way(8000),
            &sizes,
            &costs,
            32,
            4,
        );
        assert_eq!(plan.tables.len(), 3);
        assert_eq!(plan.tables[0].technique, Technique::LinearScan);
        assert_eq!(plan.tables[1].technique, Technique::LinearScan);
        assert_eq!(plan.tables[2].technique, Technique::Dhe);
        assert!(plan.is_monotone());
        let back = AllocationPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
        assert!(AllocationPlan::from_json("{\"version\": 1}").is_err());
        assert!(AllocationPlan::from_json("nope").is_err());
    }

    #[test]
    fn corrupted_plan_is_not_monotone() {
        let mut plan = AllocationPlan::derive_three_way(
            0,
            8,
            Crossovers::two_way(1000),
            &[10, 10_000],
            &[0.0, 0.0],
            1,
            1,
        );
        // Table id order is irrelevant; monotonicity is in *size*.
        plan.tables.swap(0, 1);
        assert!(plan.is_monotone());
        // Corrupt: the small table claims DHE while the large one scans.
        plan.tables[0].technique = Technique::LinearScan; // 10_000 rows
        plan.tables[1].technique = Technique::Dhe; // 10 rows
        assert!(!plan.is_monotone());
    }

    #[test]
    fn refine_sizes_bracket_the_old_threshold() {
        let sizes = Profiler::refine_sizes(8000, 4.0, 5);
        assert!(sizes.len() >= 2);
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "ascending: {sizes:?}"
        );
        assert_eq!(sizes[0], 2000);
        assert_eq!(*sizes.last().unwrap(), 32000);
        assert!(sizes.contains(&8000));
        // Degenerate old threshold still yields a usable grid.
        let tiny = Profiler::refine_sizes(0, 4.0, 4);
        assert!(tiny[0] >= 2);
    }

    #[test]
    #[should_panic(expected = "one cost estimate per table")]
    fn plan_rejects_mismatched_costs() {
        AllocationPlan::derive_three_way(0, 8, Crossovers::two_way(100), &[10], &[], 1, 1);
    }

    #[test]
    #[should_panic(expected = "empty threshold table")]
    fn empty_profile_panics() {
        ThresholdTable {
            dim: 16,
            entries: vec![],
        }
        .threshold(1, 1);
    }
}
