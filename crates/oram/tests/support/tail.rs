//! Stash-occupancy histograms, the exponential fit of their tail, and the
//! overflow bound derived from them; shared by the stash-tail harnesses of
//! `secemb-oram` and `secemb-laoram` (included with `#[path]`).
//!
//! The Path ORAM and Circuit ORAM analyses bound the stash tail
//! exponentially, `P[S ≥ s] ≤ c·2^(−b·s)`. A cell's histogram is fitted to
//! that shape by least squares on `log2 P[S ≥ s]` over every `s ≥ 1` that
//! at least [`MIN_TAIL`] samples reached, when there are at least three
//! such sizes: samples come in correlated bursts, and a two-point slope
//! from a handful of bursts swings by bits.
//!
//! Within the sizing rule's range the Circuit and look-ahead stashes are
//! empty after nearly every access, so there is no tail to fit there
//! (Path ORAM's has one). The bound at the rule's worst case (50 %)
//! therefore has two factors, each measured at 50 % or conservatively
//! above it:
//!
//! - the chance the stash holds anything at all, `P[S ≥ 1]` at 50 %,
//!   taken at its upper confidence limit (`3/N` when no sample of `N`
//!   held a block);
//! - a decay per extra block no slower than the fitted slope of the
//!   least-occupied cell at or above 50 % that has a tail. The fitted
//!   slope steepens as occupancy falls (EXPERIMENTS.md, "Tree sizing"),
//!   so a fuller tree's slope overstates the tail at 50 %.
//!
//! `P[overflow] = P[S > capacity] ≤ P[S ≥ 1] · 2^(−slope·capacity)`.

/// Fewest samples at or above a stash size for that size's tail
/// probability to enter the fit (relative error ≈ 1/√20 ≈ 22 %).
pub const MIN_TAIL: u64 = 20;

/// What a CI-sized run must show: no more than one overflow in 2¹² per
/// access (or window) at 50 %. Its few samples cap the resolution — with
/// no block seen in `N` samples the anchor is still `3/N` — so the full
/// runs assert [`FULL_TARGET_LOG2`].
pub const CI_TARGET_LOG2: f64 = -12.0;

/// The bound the full runs (≥ 10⁷ accesses per cell) must show: one
/// overflow in 2³⁰ accesses (or windows) at 50 %. Circuit ORAM's 10-slot
/// stash sets it: its anchor is limited by the sample count, and its decay
/// is taken from an overfull tree (EXPERIMENTS.md, "Tree sizing").
pub const FULL_TARGET_LOG2: f64 = -30.0;

/// Occupancy of each cell in sixteenths: 25, 37.5 and 50 % (the sizing
/// rule's range), then 62.5, 68.75, 75 and 87.5 % (overfull on purpose).
pub const SIXTEENTHS: [u64; 7] = [4, 6, 8, 10, 11, 12, 14];

/// Occupancy of the rule's fullest tree, `Z` blocks per leaf, in
/// sixteenths.
const RULE_SIXTEENTHS: u64 = 8;

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

/// One cell of a harness: a controller at `sixteenths / 16` occupancy, one
/// [`Tail`] per measurement point.
pub struct Cell {
    pub sixteenths: u64,
    pub tails: Vec<Tail>,
    /// Whether the run stopped early because its next access could have
    /// overflowed the harness's own (widened) stash.
    pub saturated: bool,
}

impl Cell {
    pub fn occupancy_pct(&self) -> f64 {
        100.0 * self.sixteenths as f64 / 16.0
    }
}

/// One controller's overflow bound at one occupancy.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    /// Upper limit of `P[S ≥ 1]` at the cell's occupancy.
    pub p_nonempty: f64,
    /// Decay in bits per block, and the occupancy (%) it was fitted at.
    pub slope: f64,
    pub slope_at_pct: f64,
    /// `log2 P[overflow]` per unit.
    pub log2: f64,
}

/// The cells of one controller, in rising occupancy.
pub struct Sweep {
    pub controller: &'static str,
    /// What one sample is: "access" or "window".
    pub unit: &'static str,
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
    /// The overflow bound at `cell`'s occupancy (see the module docs):
    /// anchored at `cell`, decaying at the slope of the least-occupied
    /// cell at or above it that has a fittable tail; `None` when none has.
    pub fn bound(&self, cell: &Cell) -> Option<Bound> {
        let p_nonempty = cell.tails[self.bounded].p_nonempty_upper();
        let (fit, at) = self
            .cells
            .iter()
            .filter(|c| c.sixteenths >= cell.sixteenths)
            .find_map(|c| Some((c.tails[self.bounded].fit()?, c.occupancy_pct())))?;
        Some(Bound {
            p_nonempty,
            slope: fit.slope,
            slope_at_pct: at,
            log2: p_nonempty.log2() - fit.slope * self.capacity as f64,
        })
    }

    /// The cells within the rule's range, 50 % last.
    fn rule_range(&self) -> impl Iterator<Item = &Cell> {
        self.cells
            .iter()
            .filter(|c| c.sixteenths <= RULE_SIXTEENTHS)
    }

    /// Prints one line per cell and measurement point, then the bound at
    /// each occupancy of the rule's range.
    pub fn print(&self) {
        println!(
            "{}: overflow when `{}` exceeds {}",
            self.controller, self.points[self.bounded], self.capacity
        );
        println!(
            "{:>6} {:>17} {:>10} {:>4} {:>10} {:>10} {:>10} {:>10} {:>7} {:>4}",
            "occ %",
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
                    "{:>6.2} {:>17} {:>10} {:>4} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {:>7} {:>4}{}",
                    cell.occupancy_pct(),
                    point,
                    tail.samples(),
                    tail.max(),
                    tail.p_at_least(1),
                    tail.p_at_least(2),
                    tail.p_at_least(4),
                    tail.p_at_least(8),
                    fit.map_or("-".to_string(), |f| format!("{:.3}", f.slope)),
                    fit.map_or(0, |f| f.points),
                    if cell.saturated { "  saturated" } else { "" },
                );
            }
        }
        for cell in self.rule_range() {
            match self.bound(cell) {
                Some(b) => println!(
                    "{} at {:.2} %: P[overflow] ≤ {:.2e} · 2^(−{:.3} · {}) = 2^{:.1} per {} \
                     (slope fitted at {:.2} %)",
                    self.controller,
                    cell.occupancy_pct(),
                    b.p_nonempty,
                    b.slope,
                    self.capacity,
                    b.log2,
                    self.unit,
                    b.slope_at_pct
                ),
                None => println!("{}: no fittable tail", self.controller),
            }
        }
    }

    /// The gate: no cell within the rule's range (≤ 50 %) saturates or
    /// exceeds the capacity, and the bound at 50 % is at most
    /// `2^target_log2` per unit.
    ///
    /// # Panics
    ///
    /// Panics on any violation.
    pub fn check(&self, target_log2: f64) {
        for cell in self.rule_range() {
            let max = cell.tails[self.bounded].max();
            assert!(
                !cell.saturated && max <= self.capacity,
                "{} at {:.2} %: stash reached {max}, capacity {}",
                self.controller,
                cell.occupancy_pct(),
                self.capacity
            );
        }
        let rule = self.rule_range().last().expect("a cell at 50 %");
        assert_eq!(rule.sixteenths, RULE_SIXTEENTHS);
        let bound = self
            .bound(rule)
            .unwrap_or_else(|| panic!("{}: no fittable tail at or above 50 %", self.controller));
        assert!(
            bound.log2 <= target_log2,
            "{}: overflow 2^{:.1} per {} at 50 % misses 2^{target_log2}",
            self.controller,
            bound.log2,
            self.unit
        );
    }
}
