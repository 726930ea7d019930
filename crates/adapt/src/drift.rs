//! Cost-drift detection over live service-time samples.
//!
//! Each served table gets one [`DriftDetector`] fed with the per-query
//! service costs its shard worker measures under real traffic. The
//! detector keeps an EWMA of the cost (the *current* estimate) and a
//! two-sided Page CUSUM on the log-ratio against the profiled baseline
//! (the *change* test): `x = ln(sample / baseline)` is ~0 while the
//! profile holds, drifts positive when neighbours inflate the cost, and
//! negative when pressure lifts. Working in log space makes the test
//! scale-free — a 2× shift trips it equally fast at 200 ns or 200 µs
//! baselines, matching how co-location moves costs by *factors* (Fig. 8).
//!
//! A table whose cost is still its technique's prior (nothing measured
//! it yet) gets a detector that *learns* its baseline from its first
//! [`DriftConfig::min_samples`] samples instead ([`DriftDetector::learning`]):
//! a prior is an estimate from shape, and a served cost that merely
//! differs from it is no drift.

/// Detector tuning.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// EWMA weight of each new sample, in `(0, 1]`.
    pub alpha: f64,
    /// CUSUM slack per sample, in log-ratio units: shifts smaller than
    /// `e^k` (≈ `1 + k` for small `k`) are treated as noise and never
    /// accumulate.
    pub k: f64,
    /// CUSUM decision threshold, in accumulated log-ratio units. With
    /// slack `k`, a sustained shift of `e^(k + d)` trips after about
    /// `h / d` samples.
    pub h: f64,
    /// Samples required before [`DriftDetector::drifted`] may fire —
    /// guards against declaring drift off a cold cache or one slow batch.
    pub min_samples: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            alpha: 0.2,
            k: 0.25,
            h: 4.0,
            min_samples: 16,
        }
    }
}

/// EWMA + two-sided Page-CUSUM change detector for one table's per-query
/// cost.
#[derive(Clone, Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    baseline_ns: f64,
    ewma_ns: f64,
    cusum_up: f64,
    cusum_down: f64,
    samples_seen: usize,
    /// While the baseline is being learned: the samples so far.
    learning: Option<Vec<f64>>,
}

impl DriftDetector {
    /// A detector against `baseline_ns` (the profiled per-query cost the
    /// active plan assumed).
    ///
    /// # Panics
    ///
    /// Panics if `baseline_ns` is not positive or `config.alpha` is
    /// outside `(0, 1]`.
    pub fn new(config: DriftConfig, baseline_ns: f64) -> Self {
        assert!(baseline_ns > 0.0, "baseline cost must be positive");
        assert!(
            config.alpha > 0.0 && config.alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        DriftDetector {
            config,
            baseline_ns,
            ewma_ns: baseline_ns,
            cusum_up: 0.0,
            cusum_down: 0.0,
            samples_seen: 0,
            learning: None,
        }
    }

    /// A detector that takes the median of its first
    /// [`DriftConfig::min_samples`] samples as its baseline and tests only
    /// the samples after them. `provisional_ns` (a prior) stands in for
    /// the baseline in [`baseline_ns`](Self::baseline_ns) and the EWMA
    /// until then; nothing is tested against it.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn learning(config: DriftConfig, provisional_ns: f64) -> Self {
        let mut detector = Self::new(config, provisional_ns);
        detector.learning = Some(Vec::new());
        detector
    }

    /// Whether the baseline is still being learned.
    pub fn is_learning(&self) -> bool {
        self.learning.is_some()
    }

    /// Feeds one per-query service-time sample (nanoseconds).
    /// Non-positive and non-finite samples are ignored.
    pub fn observe(&mut self, sample_ns: f64) {
        if !(sample_ns > 0.0 && sample_ns.is_finite()) {
            return;
        }
        if let Some(seen) = &mut self.learning {
            seen.push(sample_ns);
            if seen.len() >= self.config.min_samples.max(1) {
                seen.sort_by(f64::total_cmp);
                let median = seen[seen.len() / 2];
                self.rebase(median);
            }
            return;
        }
        let a = self.config.alpha;
        self.ewma_ns = a * sample_ns + (1.0 - a) * self.ewma_ns;
        let x = (sample_ns / self.baseline_ns).ln();
        // The statistics are capped at 1.5 * h: detection only needs
        // them to cross h, and an uncapped sum winds up inertia during a
        // long shift that then takes hundreds of clean samples to decay
        // — the verdict would outlive the disturbance itself, so an
        // oscillating neighbour would read as one long drift episode.
        let cap = 1.5 * self.config.h;
        self.cusum_up = (self.cusum_up + x - self.config.k).clamp(0.0, cap);
        self.cusum_down = (self.cusum_down - x - self.config.k).clamp(0.0, cap);
        self.samples_seen += 1;
    }

    /// Feeds a batch of samples.
    pub fn observe_all(&mut self, samples_ns: &[f64]) {
        for &s in samples_ns {
            self.observe(s);
        }
    }

    /// Whether a sustained cost shift (either direction) has been
    /// detected since the last [`rebase`](Self::rebase).
    pub fn drifted(&self) -> bool {
        self.samples_seen >= self.config.min_samples
            && (self.cusum_up > self.config.h || self.cusum_down > self.config.h)
    }

    /// Current cost estimate (EWMA of observed samples), nanoseconds.
    pub fn ewma_ns(&self) -> f64 {
        self.ewma_ns
    }

    /// The baseline the detector tests against, nanoseconds.
    pub fn baseline_ns(&self) -> f64 {
        self.baseline_ns
    }

    /// Current-cost-to-baseline ratio; ~1.0 while the profile holds.
    pub fn drift_ratio(&self) -> f64 {
        self.ewma_ns / self.baseline_ns
    }

    /// Samples observed since construction or the last rebase.
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Accumulated upward CUSUM statistic (log-ratio units); drift fires
    /// when this exceeds [`DriftConfig::h`].
    pub fn cusum_up(&self) -> f64 {
        self.cusum_up
    }

    /// Accumulated downward CUSUM statistic (log-ratio units); drift
    /// fires when this exceeds [`DriftConfig::h`].
    pub fn cusum_down(&self) -> f64 {
        self.cusum_down
    }

    /// Re-arms the detector against a fresh baseline — called after a
    /// reallocation, when the new plan's cost estimate becomes the thing
    /// to defend.
    ///
    /// # Panics
    ///
    /// Panics if `baseline_ns` is not positive.
    pub fn rebase(&mut self, baseline_ns: f64) {
        assert!(baseline_ns > 0.0, "baseline cost must be positive");
        self.baseline_ns = baseline_ns;
        self.ewma_ns = baseline_ns;
        self.cusum_up = 0.0;
        self.cusum_down = 0.0;
        self.samples_seen = 0;
        self.learning = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> DriftConfig {
        DriftConfig {
            min_samples: 4,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn stable_costs_never_trip() {
        let mut d = DriftDetector::new(quick(), 1000.0);
        for i in 0..1000 {
            // ±10% jitter around the baseline: inside the slack band.
            d.observe(1000.0 * (1.0 + 0.1 * if i % 2 == 0 { 1.0 } else { -1.0 }));
        }
        assert!(!d.drifted());
        assert!((d.drift_ratio() - 1.0).abs() < 0.15);
    }

    #[test]
    fn sustained_inflation_trips_quickly() {
        let mut d = DriftDetector::new(quick(), 1000.0);
        let mut tripped_at = None;
        for i in 1..=100 {
            d.observe(3000.0); // 3x: ln 3 - k ≈ 0.85 per sample
            if d.drifted() {
                tripped_at = Some(i);
                break;
            }
        }
        let at = tripped_at.expect("3x shift must trip");
        assert!(at <= 10, "tripped only after {at} samples");
        assert!(d.drift_ratio() > 1.5);
    }

    #[test]
    fn deflation_trips_the_down_side() {
        let mut d = DriftDetector::new(quick(), 1000.0);
        for _ in 0..20 {
            d.observe(250.0);
        }
        assert!(d.drifted());
        assert!(d.drift_ratio() < 0.7);
    }

    #[test]
    fn the_verdict_clears_promptly_after_the_shift_ends() {
        let mut d = DriftDetector::new(quick(), 1000.0);
        // An arbitrarily long 3x episode must not wind up inertia...
        for _ in 0..10_000 {
            d.observe(3000.0);
        }
        assert!(d.drifted());
        // ...so once costs return to baseline the verdict clears within
        // a bounded number of samples — (cap - h) / k = 8 here — not in
        // proportion to the episode length. Without the cap this takes
        // hundreds of clean samples and an oscillating neighbour reads
        // as one unbroken drift episode, defeating the dwell damper.
        let mut cleared_at = None;
        for i in 1..=20 {
            d.observe(1000.0);
            if !d.drifted() {
                cleared_at = Some(i);
                break;
            }
        }
        let at = cleared_at.expect("verdict must clear");
        assert!(at <= 10, "cleared only after {at} clean samples");
    }

    #[test]
    fn min_samples_gates_the_decision() {
        let mut d = DriftDetector::new(
            DriftConfig {
                min_samples: 50,
                ..DriftConfig::default()
            },
            1000.0,
        );
        for _ in 0..49 {
            d.observe(10_000.0);
        }
        assert!(!d.drifted(), "below min_samples");
        d.observe(10_000.0);
        assert!(d.drifted());
    }

    #[test]
    fn garbage_samples_are_ignored() {
        let mut d = DriftDetector::new(quick(), 1000.0);
        d.observe_all(&[0.0, -5.0, f64::NAN, f64::INFINITY]);
        assert_eq!(d.samples_seen(), 0);
        assert_eq!(d.ewma_ns(), 1000.0);
    }

    #[test]
    fn rebase_rearms() {
        let mut d = DriftDetector::new(quick(), 1000.0);
        for _ in 0..20 {
            d.observe(4000.0);
        }
        assert!(d.drifted());
        d.rebase(4000.0);
        assert!(!d.drifted());
        assert_eq!(d.baseline_ns(), 4000.0);
        assert_eq!(d.samples_seen(), 0);
        // The new baseline holds: staying at 4000 is no longer drift.
        for _ in 0..20 {
            d.observe(4000.0);
        }
        assert!(!d.drifted());
    }

    #[test]
    fn a_learning_detector_tests_only_after_its_own_baseline() {
        // A prior 100x off the served cost: a detector against it would
        // trip at once; a learning one takes the served cost as baseline.
        let mut d = DriftDetector::learning(quick(), 10.0);
        for _ in 0..3 {
            d.observe(1000.0);
        }
        assert!(d.is_learning() && !d.drifted());
        assert_eq!(d.baseline_ns(), 10.0, "the prior stands in meanwhile");
        d.observe(1100.0);
        assert!(!d.is_learning());
        assert_eq!(d.baseline_ns(), 1000.0, "the median of the first four");
        for _ in 0..100 {
            d.observe(1000.0);
        }
        assert!(!d.drifted());
        // Then real drift against the learned baseline trips as usual.
        for _ in 0..10 {
            d.observe(3000.0);
        }
        assert!(d.drifted());
    }

    #[test]
    #[should_panic(expected = "baseline cost must be positive")]
    fn zero_baseline_is_rejected() {
        DriftDetector::new(DriftConfig::default(), 0.0);
    }
}
