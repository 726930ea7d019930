//! Bounded, throttled background re-profiling.
//!
//! A full Algorithm 2 sweep is an offline luxury; online we re-measure
//! only a log window around the previous crossovers
//! ([`Profiler::refine_sizes`]) and sleep between grid points so the
//! probe's own scan/ORAM/DHE kernels never monopolize the cores the
//! serving workers need. The walk itself is the core profiler's
//! ([`Profiler::walk`]); the result is the paper's crossover search
//! re-run under *current* machine conditions, at `points × repeats`
//! measurements of total cost, off the request path.

use secemb::hybrid::{Crossovers, Profiler};
use std::time::{Duration, Instant};

/// Re-profiling budget and window.
#[derive(Clone, Debug)]
pub struct ReprofileConfig {
    /// Embedding dimension to profile at (must match the served tables).
    pub dim: usize,
    /// Half-width of the search window as a multiplier: sizes span
    /// `[old / window_factor, old * window_factor]` around each old
    /// crossover.
    pub window_factor: f64,
    /// Grid points inside each window.
    pub points: usize,
    /// Measurement repetitions per point (median is used).
    pub repeats: usize,
    /// Sleep between consecutive grid points — the throttle keeping the
    /// probe from competing with the request path.
    pub throttle: Duration,
    /// Whether the DHE side uses Varied sizing (as deployed) or Uniform.
    ///
    /// Defaults to `true`: when a re-profile flips a table to DHE, the
    /// serving engine deploys the Varied configuration
    /// ([`secemb::GeneratorSpec::build`] sizes DHE by table rows), so an
    /// online probe must measure the variant it would deploy or the
    /// resulting plan describes a generator nobody runs.
    pub varied_dhe: bool,
    /// Whether Circuit ORAM is probed as a third candidate, giving the
    /// report a real ORAM band. `false` pins the band empty (the paper's
    /// two-way scan/DHE split) and skips the ORAM measurements.
    pub oram: bool,
}

impl ReprofileConfig {
    /// A bounded probe at dimension `dim`: 5 points across a 4× window,
    /// 3 repeats, 2 ms throttle, Varied DHE sizing (as deployed), ORAM
    /// probed.
    pub fn new(dim: usize) -> Self {
        ReprofileConfig {
            dim,
            window_factor: 4.0,
            points: 5,
            repeats: 3,
            throttle: Duration::from_millis(2),
            varied_dhe: true,
            oram: true,
        }
    }
}

/// What one re-profiling round measured.
#[derive(Clone, Copy, Debug)]
pub struct ReprofileReport {
    /// The updated allocation boundaries, clamped to the probed window:
    /// a crossover that fell below it comes back as the low edge, one
    /// that rose above it as one past the high edge (see
    /// [`Profiler::walk`]) — either answer moves the allocation in the
    /// right direction and a later round can refine again.
    pub crossovers: Crossovers,
    /// The scan boundary alone (`crossovers.scan_to`) — the quantity the
    /// paper's two-way split calls *the* threshold.
    pub threshold: u64,
    /// Grid points actually measured.
    pub points_probed: usize,
    /// Wall-clock cost of the round, throttle sleeps included.
    pub elapsed: Duration,
}

/// Runs one bounded re-profiling round around the `old` crossovers for
/// the `(batch, threads)` execution configuration: refine the grid (the
/// union of the windows around both old boundaries), walk it with
/// [`Profiler::find_crossovers`] — `config.throttle` slept between grid
/// points, stopping once both boundaries are pinned — and time it. With
/// `config.oram == false` the ORAM band stays empty and the walk is the
/// two-way scan/DHE threshold search.
///
/// # Panics
///
/// Panics if `config.window_factor <= 1.0` or `config.points < 2`.
pub fn reprofile(
    config: &ReprofileConfig,
    old: Crossovers,
    batch: usize,
    threads: usize,
) -> ReprofileReport {
    let t0 = Instant::now();
    let mut sizes = Profiler::refine_sizes(old.scan_to, config.window_factor, config.points);
    if config.oram && !old.is_two_way() {
        sizes.extend(Profiler::refine_sizes(
            old.oram_to,
            config.window_factor,
            config.points,
        ));
        sizes.sort_unstable();
        sizes.dedup();
    }
    let profiler = Profiler {
        dim: config.dim,
        sizes,
        repeats: config.repeats,
        varied_dhe: config.varied_dhe,
    };
    let walk = profiler.find_crossovers(batch, threads, config.oram, || {
        std::thread::sleep(config.throttle)
    });
    ReprofileReport {
        crossovers: walk.crossovers,
        threshold: walk.crossovers.scan_to,
        points_probed: walk.points_probed,
        elapsed: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReprofileConfig {
        ReprofileConfig {
            dim: 8,
            window_factor: 2.0,
            points: 3,
            repeats: 1,
            throttle: Duration::from_micros(100),
            varied_dhe: false,
            oram: false,
        }
    }

    #[test]
    fn threshold_stays_inside_the_window() {
        let config = tiny();
        let report = reprofile(&config, Crossovers::two_way(512), 4, 1);
        let lo = (512.0 / config.window_factor) as u64;
        let hi = (512.0 * config.window_factor) as u64 + 2;
        assert!(
            (lo..=hi).contains(&report.threshold),
            "threshold {} outside [{lo}, {hi}]",
            report.threshold
        );
        assert_eq!(report.threshold, report.crossovers.scan_to);
        assert!(report.points_probed >= 1 && report.points_probed <= config.points);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn early_stop_skips_sizes_above_the_crossover() {
        // A huge window whose low edge is already far above any real
        // scan/DHE crossover at dim 8: DHE wins at the first point, so
        // exactly one point is probed.
        let config = ReprofileConfig {
            window_factor: 1.5,
            ..tiny()
        };
        let report = reprofile(&config, Crossovers::two_way(4_000_000), 4, 1);
        assert_eq!(report.points_probed, 1);
        let window_low_edge = Profiler::refine_sizes(4_000_000, 1.5, 3)[0];
        assert_eq!(report.threshold, window_low_edge);
    }

    #[test]
    fn two_way_probe_reports_an_empty_oram_band() {
        let report = reprofile(&tiny(), Crossovers::two_way(512), 4, 1);
        assert!(report.crossovers.is_two_way());
        assert_eq!(report.crossovers.oram_to, report.crossovers.scan_to);
    }

    #[test]
    fn oram_probe_reports_ordered_crossovers() {
        let config = ReprofileConfig {
            oram: true,
            ..tiny()
        };
        let report = reprofile(&config, Crossovers::two_way(512), 4, 1);
        assert!(
            report.crossovers.scan_to <= report.crossovers.oram_to,
            "bands out of order: {:?}",
            report.crossovers
        );
        assert_eq!(report.threshold, report.crossovers.scan_to);
        // The union grid around a non-empty old band is still bounded.
        let wide = reprofile(
            &config,
            Crossovers {
                scan_to: 256,
                oram_to: 1024,
            },
            4,
            1,
        );
        assert!(wide.crossovers.scan_to <= wide.crossovers.oram_to);
        assert!(wide.points_probed >= 1);
    }

    #[test]
    #[should_panic(expected = "refine window must widen")]
    fn degenerate_window_is_rejected() {
        let config = ReprofileConfig {
            window_factor: 1.0,
            ..tiny()
        };
        reprofile(&config, Crossovers::two_way(100), 1, 1);
    }
}
