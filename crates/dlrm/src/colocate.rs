//! Co-located model execution (Figs. 8, 9 and 13).
//!
//! Data centers run many model replicas on one socket; co-location causes
//! cache and memory-bandwidth contention that shifts the scan/DHE
//! trade-off. This harness runs `N` independent embedding workloads on `N`
//! OS threads simultaneously and reports per-iteration latency and
//! aggregate throughput — real contention on the host, not a model of it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use secemb::stats::LatencySummary;
use secemb::{Dhe, DheConfig, EmbeddingGenerator, Technique, Weights};
use secemb_tensor::Matrix;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Warm-up iterations each worker runs before the measurement window
/// opens (first-touch page faults and cache fills stay out of the tail).
pub const DEFAULT_WARMUP_ITERS: u32 = 3;

/// One co-located worker's workload description.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which technique the worker runs (LinearScan or Dhe).
    pub technique: Technique,
    /// Table rows (sizes the scan table).
    pub rows: u64,
    /// Embedding dimension.
    pub dim: usize,
    /// Embedding-generation batch size per iteration.
    pub batch: usize,
    /// DHE architecture for `Technique::Dhe` workers; `None` uses a scaled
    /// Uniform architecture (`k = 256`), which keeps DHE cost table-size
    /// independent — the regime where the Fig. 9 crossover exists.
    pub dhe: Option<DheConfig>,
}

impl Workload {
    /// A workload with the default (scaled Uniform) DHE sizing.
    pub fn new(technique: Technique, rows: u64, dim: usize, batch: usize) -> Self {
        Workload {
            technique,
            rows,
            dim,
            batch,
            dhe: None,
        }
    }
}

/// Aggregate results of a co-located run.
#[derive(Clone, Debug)]
pub struct ColocationResult {
    /// Per-iteration latency distribution of each worker (same
    /// percentile definition as the serving layer's `ServerStats`).
    pub latency: Vec<LatencySummary>,
    /// Mean per-iteration latency of each worker, in nanoseconds.
    pub mean_latency_ns: Vec<f64>,
    /// Completed (measured) iterations of each worker, warm-up excluded.
    pub iterations: Vec<u64>,
    /// Wall-clock length of the measurement window.
    pub elapsed: Duration,
}

impl ColocationResult {
    /// Mean latency across all workers (ns).
    pub fn overall_mean_ns(&self) -> f64 {
        if self.mean_latency_ns.is_empty() {
            return 0.0;
        }
        self.mean_latency_ns.iter().sum::<f64>() / self.mean_latency_ns.len() as f64
    }

    /// System throughput in inferences per second
    /// (`batch × iterations / elapsed`, summed over workers).
    pub fn throughput_per_sec(&self, batch: usize) -> f64 {
        let total: u64 = self.iterations.iter().sum();
        (total as f64 * batch as f64) / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Runs every workload on its own thread for `window` with
/// [`DEFAULT_WARMUP_ITERS`] warm-up iterations per worker.
///
/// See [`run_colocated_warmed`].
pub fn run_colocated(workloads: &[Workload], window: Duration) -> ColocationResult {
    run_colocated_warmed(workloads, window, DEFAULT_WARMUP_ITERS)
}

/// Runs every workload on its own thread, all workers starting together,
/// and measures per-iteration latency under contention.
///
/// Each worker first runs `warmup_iters` un-timed iterations; only once
/// every worker has warmed up does the measurement window open, so the
/// reported distributions cover steady-state contention only.
///
/// # Panics
///
/// Panics if `workloads` is empty, or a workload uses a technique other
/// than `LinearScan` / `Dhe` (the only contenders in the DLRM hybrid).
pub fn run_colocated_warmed(
    workloads: &[Workload],
    window: Duration,
    warmup_iters: u32,
) -> ColocationResult {
    assert!(!workloads.is_empty(), "no workloads");
    // Pre-build each worker's state so setup cost stays outside the window.
    let mut workers: Vec<Worker> = workloads.iter().map(Worker::build).collect();
    let stop = AtomicBool::new(false);
    // Workers + the timing thread rendezvous here after warm-up.
    let warmed = Barrier::new(workers.len() + 1);
    let mut elapsed = Duration::ZERO;
    let samples: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| {
                let (stop, warmed) = (&stop, &warmed);
                s.spawn(move || {
                    for _ in 0..warmup_iters {
                        worker.run_once();
                    }
                    warmed.wait();
                    let mut latencies_ns = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let it0 = Instant::now();
                        worker.run_once();
                        latencies_ns.push(it0.elapsed().as_nanos() as f64);
                    }
                    latencies_ns
                })
            })
            .collect();
        warmed.wait();
        let t0 = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("colocated worker panicked"))
            .collect();
        elapsed = t0.elapsed();
        results
    });
    let latency: Vec<LatencySummary> = samples.iter().map(|s| LatencySummary::from_ns(s)).collect();
    ColocationResult {
        mean_latency_ns: latency.iter().map(|l| l.mean_ns).collect(),
        iterations: samples.iter().map(|s| s.len() as u64).collect(),
        latency,
        elapsed,
    }
}

/// One co-located worker: its generator and the batch it replays.
struct Worker {
    generator: Box<dyn EmbeddingGenerator + Send>,
    indices: Vec<u64>,
}

impl Worker {
    fn build(w: &Workload) -> Self {
        let weights = match w.technique {
            Technique::LinearScan => {
                Weights::Table(Matrix::from_fn(w.rows as usize, w.dim, |r, c| {
                    (r + c) as f32 * 1e-4
                }))
            }
            Technique::Dhe => Weights::Dhe(Dhe::new(
                w.dhe
                    .clone()
                    .unwrap_or_else(|| DheConfig::new(w.dim, 256, vec![128, 64])),
                &mut rand::rngs::mock::StepRng::new(1, 7),
            )),
            other => panic!("co-location workloads are scan/DHE only, got {other}"),
        };
        Worker {
            generator: w.technique.build(weights, StdRng::seed_from_u64(0)),
            indices: (0..w.batch as u64)
                .map(|i| (i * 2654435761) % w.rows)
                .collect(),
        }
    }

    fn run_once(&mut self) {
        std::hint::black_box(self.generator.generate_batch(&self.indices));
    }
}

/// A long-running co-location disturbance: noisy-neighbour workloads on
/// their own OS threads, hammering the memory system until stopped.
///
/// Where [`run_colocated`] opens a fixed measurement window,
/// `Disturbance` is open-ended — the drift *source* rather than the
/// measurement. Start one mid-experiment to make a serving engine's
/// offline profile stale (Figs. 9 and 13), then watch the adaptive
/// controller react.
pub struct Disturbance {
    stop: Arc<AtomicBool>,
    workers: Vec<std::thread::JoinHandle<u64>>,
}

/// Starts one disturbance thread per workload, each looping its kernel
/// (scan or DHE) back-to-back with no pacing — maximum cache and
/// bandwidth pressure per thread.
///
/// # Panics
///
/// Panics if `workloads` is empty or contains a technique other than
/// `LinearScan` / `Dhe`.
pub fn start_disturbance(workloads: &[Workload]) -> Disturbance {
    assert!(!workloads.is_empty(), "no workloads");
    let stop = Arc::new(AtomicBool::new(false));
    let workers = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut worker = Worker::build(w);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("secemb-noise-{i}"))
                .spawn(move || {
                    let mut iters = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        worker.run_once();
                        iters += 1;
                    }
                    iters
                })
                .expect("spawn disturbance worker")
        })
        .collect();
    Disturbance { stop, workers }
}

impl Disturbance {
    /// Number of noise threads running.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Signals every noise thread to stop, joins them, and returns the
    /// iterations each completed.
    pub fn stop(mut self) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        self.workers
            .drain(..)
            .map(|h| h.join().expect("disturbance worker panicked"))
            .collect()
    }
}

impl Drop for Disturbance {
    fn drop(&mut self) {
        // Stopped on drop so an early test failure can't leak spinning
        // threads into later measurements.
        self.stop.store(true, Ordering::Relaxed);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Builds the Fig. 9 sweep: `total` co-located workers of which
/// `dhe_count` run DHE and the rest linear scan, all over the same table
/// size.
pub fn split_workloads(
    total: usize,
    dhe_count: usize,
    rows: u64,
    dim: usize,
    batch: usize,
) -> Vec<Workload> {
    assert!(dhe_count <= total, "dhe_count exceeds total");
    (0..total)
        .map(|i| {
            Workload::new(
                if i < dhe_count {
                    Technique::Dhe
                } else {
                    Technique::LinearScan
                },
                rows,
                dim,
                batch,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_completes_iterations() {
        let w = Workload::new(Technique::LinearScan, 256, 16, 4);
        let r = run_colocated(&[w], Duration::from_millis(50));
        assert_eq!(r.iterations.len(), 1);
        assert!(r.iterations[0] > 0);
        assert!(r.mean_latency_ns[0] > 0.0);
        assert!(r.throughput_per_sec(4) > 0.0);
    }

    #[test]
    fn latency_summaries_are_consistent() {
        let w = Workload::new(Technique::LinearScan, 512, 16, 4);
        // Explicit warm-up count, including the zero-warm-up edge case.
        for warmup in [0, 5] {
            let r =
                run_colocated_warmed(std::slice::from_ref(&w), Duration::from_millis(40), warmup);
            let l = &r.latency[0];
            assert_eq!(l.count as u64, r.iterations[0]);
            assert_eq!(l.mean_ns, r.mean_latency_ns[0]);
            assert!(l.p50_ns <= l.p95_ns && l.p95_ns <= l.p99_ns && l.p99_ns <= l.max_ns);
            assert!(l.p50_ns > 0.0);
        }
    }

    #[test]
    fn colocation_increases_latency() {
        let mk = |n: usize| vec![Workload::new(Technique::LinearScan, 4096, 64, 8); n];
        let solo = run_colocated(&mk(1), Duration::from_millis(120));
        let crowded = run_colocated(&mk(8), Duration::from_millis(120));
        // Contention cannot make the mean faster by a large margin; in
        // practice it is slower, but allow CI noise with a loose bound.
        assert!(
            crowded.overall_mean_ns() > solo.overall_mean_ns() * 0.8,
            "crowded {} vs solo {}",
            crowded.overall_mean_ns(),
            solo.overall_mean_ns()
        );
    }

    #[test]
    fn split_builds_requested_mix() {
        let ws = split_workloads(6, 2, 100, 8, 4);
        let dhe = ws.iter().filter(|w| w.technique == Technique::Dhe).count();
        assert_eq!(dhe, 2);
        assert_eq!(ws.len(), 6);
    }

    #[test]
    #[should_panic(expected = "dhe_count exceeds total")]
    fn split_rejects_bad_counts() {
        split_workloads(2, 3, 10, 4, 1);
    }

    #[test]
    fn disturbance_runs_until_stopped() {
        let ws = vec![Workload::new(Technique::LinearScan, 256, 16, 4); 2];
        let d = start_disturbance(&ws);
        assert_eq!(d.workers(), 2);
        std::thread::sleep(Duration::from_millis(30));
        let iters = d.stop();
        assert_eq!(iters.len(), 2);
        assert!(iters.iter().all(|&n| n > 0), "noise threads must spin");
    }

    #[test]
    fn disturbance_stops_on_drop() {
        let d = start_disturbance(&[Workload::new(Technique::Dhe, 64, 8, 2)]);
        drop(d); // must not hang or leak the thread
    }

    #[test]
    #[should_panic(expected = "scan/DHE only")]
    fn rejects_oram_workload() {
        let w = Workload::new(Technique::PathOram, 16, 4, 1);
        run_colocated(&[w], Duration::from_millis(1));
    }
}
