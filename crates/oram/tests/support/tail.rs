//! Stash-occupancy histograms, the exponential fit of their tail, and the
//! overflow bound derived from them, for `secemb-oram`'s stash-tail
//! harness (included with `#[path]`).
//!
//! The Path ORAM and Circuit ORAM analyses bound the stash tail
//! exponentially, `P[S ≥ s] ≤ c·2^(−b·s)`. A cell's histogram is fitted to
//! that shape by least squares on `log2 P[S ≥ s]` over every `s ≥ 1` that
//! at least [`MIN_TAIL`] samples reached, when there are at least three
//! such sizes: samples come in correlated bursts, and a two-point slope
//! from a handful of bursts swings by bits.
//!
//! A cell's load is its blocks per leaf label, in eighths of `Z`
//! ([`EIGHTHS`]): the rule's fullest tree carries `Z` per leaf
//! ([`RULE_EIGHTHS`]), and the other cells sit at fixed loads around it.
//! Blocks per leaf, not the share of the slots, is what sets the load:
//! every full subtree of a balanced tree holds the same blocks per slot
//! as the power-of-two tree at the same load per leaf, and a subtree over
//! absent leaves holds fewer. So a cell is the same load on every leaf
//! count. Its share of the slots is 50 % at `Z` per leaf on a power of
//! two and down to 33 % on a short leaf level.
//!
//! Within the sizing rule's range the Circuit ORAM stash is empty after
//! nearly every access, so there is no tail to fit there
//! (Path ORAM's has one). The bound at the rule's fullest tree therefore
//! has two factors, each measured there or conservatively above it:
//!
//! - the chance the stash holds anything at all, `P[S ≥ 1]` at the rule's
//!   cell, taken at its upper confidence limit (`3/N` when no sample of
//!   `N` held a block);
//! - a decay per extra block no slower than the fitted slope of the
//!   least-loaded cell at or above it that has a tail. The fitted slope
//!   steepens as the load falls (EXPERIMENTS.md, "Tree sizing"), so a
//!   fuller tree's slope overstates the tail of an emptier one.
//!
//! `P[overflow] = P[S > capacity] ≤ P[S ≥ 1] · 2^(−slope·capacity)`.

/// Fewest samples at or above a stash size for that size's tail
/// probability to enter the fit (relative error ≈ 1/√20 ≈ 22 %).
pub const MIN_TAIL: u64 = 20;

/// What a CI-sized run must show: no more than one overflow in 2¹² per
/// access at the rule's fullest tree. Its few samples cap the
/// resolution — with no block seen in `N` samples the anchor is still
/// `3/N` — so the full runs assert [`FULL_TARGET_LOG2`].
pub const CI_TARGET_LOG2: f64 = -12.0;

/// The bound the full runs (≥ 10⁷ accesses per cell) must show: one
/// overflow in 2³⁰ accesses at the rule's fullest tree.
/// Circuit ORAM's 10-slot stash sets it: its anchor is limited by the
/// sample count, and its decay is taken from an overfull tree
/// (EXPERIMENTS.md, "Tree sizing").
pub const FULL_TARGET_LOG2: f64 = -30.0;

/// The CI-sized cells' loads, in eighths of `Z` blocks per leaf: `Z/2`
/// and `3Z/4` (25 and 37.5 % of a power-of-two tree's slots), the rule's
/// `Z`, then `5Z/4` to `2Z` (62.5 to 100 % of a power-of-two tree,
/// overfull on purpose). A short leaf level is roomier per leaf: the
/// 160-leaf tree shows no tail in a CI-sized run below `2Z` per leaf
/// (77 % of its slots). A cell's load is also its seed.
pub const EIGHTHS: [u64; 8] = [4, 6, RULE_EIGHTHS, 10, 11, 12, 14, 16];

/// The loads of a full run: the rule's, and the overfull cells its decay
/// is fitted from. `5Z/4` is left out: Circuit ORAM has not shown a
/// fittable tail there, and Path ORAM fits at the rule's
/// cell itself.
pub const FULL_EIGHTHS: [u64; 4] = [RULE_EIGHTHS, 11, 12, 14];

/// The load of the rule's fullest tree: `Z` blocks per leaf.
pub const RULE_EIGHTHS: u64 = 8;

/// Leaf counts of the CI-sized cells: a power of two and two balanced
/// trees with a short leaf level (44 % and 39 % of the slots occupied at
/// the rule's fullest).
pub const CI_LEAVES: [u64; 3] = [256, 200, 160];

/// Blocks in a tree of `leaves` leaves at `eighths / 8` times `z` blocks
/// per leaf.
pub fn blocks(leaves: u64, z: u64, eighths: u64) -> u64 {
    leaves * z * eighths / 8
}

/// Stash-occupancy samples of one cell at one measurement point.
#[derive(Clone, Debug, Default)]
pub struct Tail {
    /// `counts[s]`: samples that saw `s` real blocks in the stash.
    counts: Vec<u64>,
}

/// The fitted line `log2 P[S ≥ s] ≈ c − slope · s`.
#[derive(Clone, Copy, Debug)]
pub struct Fit {
    /// Bits of probability lost per extra stash block.
    pub slope: f64,
    /// Stash sizes the line was fitted through.
    pub points: usize,
}

impl Tail {
    pub fn record(&mut self, occupancy: usize) {
        if occupancy >= self.counts.len() {
            self.counts.resize(occupancy + 1, 0);
        }
        self.counts[occupancy] += 1;
    }

    pub fn samples(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Largest occupancy seen (0 when empty).
    pub fn max(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Samples that saw at least `s` blocks.
    pub fn at_least(&self, s: usize) -> u64 {
        self.counts.iter().skip(s).sum()
    }

    /// Empirical `P[S ≥ s]`.
    pub fn p_at_least(&self, s: usize) -> f64 {
        self.at_least(s) as f64 / self.samples().max(1) as f64
    }

    /// Upper confidence limit of `P[S ≥ 1]`: three standard deviations
    /// above the count, and the 95 % limit `3/N` when it is zero.
    pub fn p_nonempty_upper(&self) -> f64 {
        let k = self.at_least(1) as f64;
        (k + 3.0 * k.sqrt() + 3.0) / self.samples().max(1) as f64
    }

    /// The least-squares line through `log2 P[S ≥ s]` over every `s ≥ 1`
    /// with at least [`MIN_TAIL`] samples; `None` below three such sizes
    /// or when the tail does not fall.
    pub fn fit(&self) -> Option<Fit> {
        let pts: Vec<(f64, f64)> = (1..=self.max())
            .filter(|&s| self.at_least(s) >= MIN_TAIL)
            .map(|s| (s as f64, self.p_at_least(s).log2()))
            .collect();
        if pts.len() < 3 {
            return None;
        }
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
        let slope = -sxy / sxx;
        (slope > 0.0).then_some(Fit {
            slope,
            points: pts.len(),
        })
    }
}

/// One cell of a harness: a controller over a tree at `eighths / 8` times
/// `Z` blocks per leaf, one [`Tail`] per measurement point.
pub struct Cell {
    pub eighths: u64,
    /// Blocks held, and their share of the tree's slots.
    pub n: u64,
    pub occupancy: f64,
    pub tails: Vec<Tail>,
    /// Whether the run stopped early because its next access could have
    /// overflowed the harness's own (widened) stash.
    pub saturated: bool,
}

impl Cell {
    pub fn occupancy_pct(&self) -> f64 {
        100.0 * self.occupancy
    }
}

/// Runs `cell` at each of `loads` (in eighths), one thread per cell (the
/// cells are independent and seeded by their load), in that order.
pub fn run_cells(loads: &[u64], cell: impl Fn(u64) -> Cell + Sync) -> Vec<Cell> {
    let cell = &cell;
    std::thread::scope(|s| {
        let handles: Vec<_> = loads
            .iter()
            .map(|&eighths| s.spawn(move || cell(eighths)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stash-tail cell panicked"))
            .collect()
    })
}

/// One controller's overflow bound at one load.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// Upper limit of `P[S ≥ 1]` at the cell's load.
    pub p_nonempty: f64,
    /// Decay in bits per block, and the load (eighths of `Z` per leaf)
    /// and occupancy (%) of the cell it was fitted at.
    pub slope: f64,
    pub slope_at_eighths: u64,
    pub slope_at_pct: f64,
    /// `log2 P[overflow]` per access.
    pub log2: f64,
}

/// The cells of one controller on one tree.
pub struct Sweep {
    pub controller: &'static str,
    /// Leaf count of every cell's tree.
    pub leaves: u64,
    /// Names of the measurement points, one per [`Cell::tails`] entry.
    pub points: &'static [&'static str],
    /// Index into `points` of the one whose tail decides overflow.
    pub bounded: usize,
    /// Largest value the bounded point may take without the next access
    /// overflowing the default stash.
    pub capacity: usize,
    pub cells: Vec<Cell>,
}

impl Sweep {
    /// The overflow bound at `cell`'s load (see the module docs): anchored
    /// at `cell`, decaying at the slope of the least-loaded cell at or
    /// above it that has a fittable tail; `None` when none has.
    pub fn bound(&self, cell: &Cell) -> Option<Bound> {
        let p_nonempty = cell.tails[self.bounded].p_nonempty_upper();
        let mut fuller: Vec<&Cell> = self
            .cells
            .iter()
            .filter(|c| c.eighths >= cell.eighths)
            .collect();
        fuller.sort_by_key(|c| c.eighths);
        let (fit, at) = fuller
            .iter()
            .find_map(|c| Some((c.tails[self.bounded].fit()?, c)))?;
        Some(Bound {
            p_nonempty,
            slope: fit.slope,
            slope_at_eighths: at.eighths,
            slope_at_pct: at.occupancy_pct(),
            log2: p_nonempty.log2() - fit.slope * self.capacity as f64,
        })
    }

    /// The rule's cell.
    fn rule(&self) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.eighths == RULE_EIGHTHS)
            .expect("a cell at the rule's fullest tree")
    }

    /// The cells no fuller than the rule's tree, in rising load.
    fn rule_range(&self) -> Vec<&Cell> {
        let mut cells: Vec<&Cell> = self
            .cells
            .iter()
            .filter(|c| c.eighths <= RULE_EIGHTHS)
            .collect();
        cells.sort_by_key(|c| c.eighths);
        cells
    }

    /// Prints one line per cell and measurement point, then the bound at
    /// each load of the rule's range.
    pub fn print(&self) {
        println!(
            "{} on {} leaves: overflow when `{}` exceeds {}",
            self.controller, self.leaves, self.points[self.bounded], self.capacity
        );
        println!(
            "{:>6} {:>6} {:>8} {:>17} {:>10} {:>4} {:>10} {:>10} {:>10} {:>10} {:>7} {:>4}",
            "Z/leaf",
            "occ %",
            "blocks",
            "point",
            "samples",
            "max",
            "P[S>=1]",
            "P[S>=2]",
            "P[S>=4]",
            "P[S>=8]",
            "slope",
            "pts"
        );
        for cell in &self.cells {
            for (point, tail) in self.points.iter().zip(&cell.tails) {
                let fit = tail.fit();
                println!(
                    "{:>6.3} {:>6.2} {:>8} {:>17} {:>10} {:>4} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {:>7} {:>4}{}{}",
                    cell.eighths as f64 / 8.0,
                    cell.occupancy_pct(),
                    cell.n,
                    point,
                    tail.samples(),
                    tail.max(),
                    tail.p_at_least(1),
                    tail.p_at_least(2),
                    tail.p_at_least(4),
                    tail.p_at_least(8),
                    fit.map_or("-".to_string(), |f| format!("{:.3}", f.slope)),
                    fit.map_or(0, |f| f.points),
                    if cell.eighths == RULE_EIGHTHS { "  rule" } else { "" },
                    if cell.saturated { "  saturated" } else { "" },
                );
            }
        }
        for cell in self.rule_range() {
            match self.bound(cell) {
                Some(b) => println!(
                    "{} at {:.3} Z per leaf ({:.2} %): P[overflow] ≤ {:.2e} · 2^(−{:.3} · {}) \
                     = 2^{:.1} per access (slope fitted at {:.3} Z per leaf, {:.2} %)",
                    self.controller,
                    cell.eighths as f64 / 8.0,
                    cell.occupancy_pct(),
                    b.p_nonempty,
                    b.slope,
                    self.capacity,
                    b.log2,
                    b.slope_at_eighths as f64 / 8.0,
                    b.slope_at_pct
                ),
                None => println!("{}: no fittable tail", self.controller),
            }
        }
    }

    /// The gate: no cell within the rule's range saturates or exceeds the
    /// capacity, and the bound at the rule's tree is at most
    /// `2^target_log2` per access.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn check(&self, target_log2: f64) {
        for cell in self.rule_range() {
            let max = cell.tails[self.bounded].max();
            assert!(
                !cell.saturated && max <= self.capacity,
                "{} on {} leaves at {:.2} %: stash reached {max}, capacity {}",
                self.controller,
                self.leaves,
                cell.occupancy_pct(),
                self.capacity
            );
        }
        let bound = self.bound(self.rule()).unwrap_or_else(|| {
            panic!(
                "{} on {} leaves: no fittable tail at or above the rule's tree",
                self.controller, self.leaves
            )
        });
        assert!(
            bound.log2 <= target_log2,
            "{} on {} leaves: overflow 2^{:.1} per access at the rule's tree misses 2^{target_log2}",
            self.controller,
            self.leaves,
            bound.log2
        );
    }
}
