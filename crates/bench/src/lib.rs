//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). All run at *scaled-down* sizes —
//! the substrate is a simulator on commodity hardware, not the authors'
//! SGX testbed — so absolute numbers differ, but the comparisons the paper
//! makes (who wins, crossover locations, blow-up factors) are preserved.
//! EXPERIMENTS.md records paper-vs-measured for each.

#![forbid(unsafe_code)]

pub use secemb::median_ns;
use secemb_telemetry::RegistrySnapshot;
use secemb_tensor::Matrix;
use secemb_wire::json::Value;

/// Scaling disclaimer printed by the binaries.
pub const SCALE_NOTE: &str =
    "NOTE: sizes are scaled down from the paper's testbed (see EXPERIMENTS.md); \
compare shapes and ratios, not absolute numbers.";

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Formats a byte count with an adaptive unit.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b < 1024.0 {
        format!("{bytes} B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * cols));
    for row in rows {
        line(row);
    }
}

/// The drift-detector view of a telemetry registry snapshot, as one JSON
/// object: every `adapt_*` metric (per-table EWMA/CUSUM/drift-ratio
/// gauges plus the controller-level threshold, outcome and reallocation
/// counts), keyed `name{labels}`. Empty when no controller is attached
/// or telemetry is disabled.
pub fn drift_gauges_json(snapshot: &RegistrySnapshot) -> Value {
    match snapshot.to_json() {
        Value::Obj(map) => Value::Obj(
            map.into_iter()
                .filter(|(key, _)| key.starts_with("adapt_"))
                .collect(),
        ),
        other => other,
    }
}

/// A deterministic synthetic "trained" table.
pub fn synthetic_table(rows: usize, dim: usize) -> Matrix {
    Matrix::from_fn(rows, dim, |r, c| {
        ((r * 31 + c * 7) as f32 * 0.013).sin() * 0.1
    })
}

/// Deterministic batch of lookup indices for a table of `rows` rows.
pub fn synthetic_indices(batch: usize, rows: u64) -> Vec<u64> {
    (0..batch as u64)
        .map(|i| (i * 2654435761) % rows.max(1))
        .collect()
}

/// An ASCII bar for quick visual comparison in figure binaries.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(filled.min(width))
}

/// A measured latency-vs-size curve with log-log interpolation, used to
/// aggregate per-table costs over a whole size distribution (Table VIII's
/// "execute a few tables at a time" methodology). Extrapolates beyond the
/// measured grid on the final segment's slope.
pub struct LatencyCurve {
    points: Vec<(f64, f64)>, // (ln rows, ln ns)
}

impl LatencyCurve {
    /// Measures `f` at each grid size and stores the log-log points.
    pub fn measure(mut f: impl FnMut(u64) -> f64, sizes: &[u64]) -> Self {
        LatencyCurve {
            points: sizes
                .iter()
                .map(|&n| ((n as f64).ln(), f(n).ln()))
                .collect(),
        }
    }

    /// Interpolated (or extrapolated) latency at `rows`.
    pub fn eval(&self, rows: u64) -> f64 {
        let x = (rows.max(2) as f64).ln();
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1.exp();
        }
        for w in pts.windows(2) {
            if x <= w[1].0 {
                let t = (x - w[0].0) / (w[1].0 - w[0].0);
                return (w[0].1 + t * (w[1].1 - w[0].1)).exp();
            }
        }
        // Extrapolate from the last segment.
        let (a, b) = (pts[pts.len() - 2], pts[pts.len() - 1]);
        let t = (x - a.0) / (b.0 - a.0);
        (a.1 + t * (b.1 - a.1)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 us");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
        assert_eq!(fmt_ns(4.2e9), "4.20 s");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
    }

    #[test]
    fn bars() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn latency_curve_interpolates_linear_cost() {
        // A perfectly linear cost (ns = 10 * rows) must interpolate and
        // extrapolate exactly in log-log space.
        let curve = LatencyCurve::measure(|n| n as f64 * 10.0, &[16, 256, 4096]);
        for rows in [16u64, 64, 1024, 4096, 65536] {
            let got = curve.eval(rows);
            let expect = rows as f64 * 10.0;
            assert!(
                (got - expect).abs() / expect < 1e-6,
                "rows {rows}: {got} vs {expect}"
            );
        }
        // Below the grid: clamps to the first point.
        assert!((curve.eval(2) - 160.0).abs() < 1e-6);
    }

    #[test]
    fn latency_curve_flat_cost_stays_flat() {
        let curve = LatencyCurve::measure(|_| 42.0, &[16, 256, 4096]);
        for rows in [1u64, 100, 1_000_000] {
            assert!((curve.eval(rows) - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn drift_gauges_json_keeps_only_adapt_metrics() {
        let r = secemb_telemetry::Registry::new();
        r.gauge("adapt_drift_ratio").set(1.5);
        r.counter("adapt_reallocations_total").inc();
        r.counter("requests_completed_total").inc();
        let s = drift_gauges_json(&r.snapshot()).to_compact();
        assert!(s.contains("adapt_drift_ratio"), "{s}");
        assert!(s.contains("adapt_reallocations_total"), "{s}");
        assert!(!s.contains("requests_completed_total"), "{s}");
        // Disabled registries export nothing.
        let off = secemb_telemetry::Registry::disabled();
        off.gauge("adapt_drift_ratio").set(1.5);
        assert_eq!(drift_gauges_json(&off.snapshot()).to_compact(), "{}");
    }

    #[test]
    fn synthetic_helpers() {
        let t = synthetic_table(4, 3);
        assert_eq!(t.shape(), (4, 3));
        let idx = synthetic_indices(8, 100);
        assert_eq!(idx.len(), 8);
        assert!(idx.iter().all(|&i| i < 100));
    }
}
