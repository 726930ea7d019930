//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one contract run
//! run.sh [--seed N] [--seconds S] [--tiny] [--sets K]    the whole suite
//! run.sh compare A.json B.json                            apply the bounds
//! ```
//!
//! `run.sh` builds the servers and this harness, then passes `--root`
//! (the checkout) and `--bin-dir` (where the release binaries are).

mod driver;
mod fleet;
mod layers;
mod measure;
mod micro;
mod oracle;
mod report;
mod workloads;

use fleet::Bins;
use measure::Plan;
use report::{Manifest, Run, SuiteEntry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Fewest fleet start-ups timed per run for `setup_s`.
const SPAWNS: usize = 9;
/// `--seconds` of a suite run when none is given (BENCHMARK.json's
/// `run_seconds`).
const SUITE_SECONDS: f64 = 25.0;
const TINY_SECONDS: f64 = 1.0;

#[derive(Default)]
struct Args {
    root: PathBuf,
    bin_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    tiny: bool,
    sets: usize,
    compare: Vec<PathBuf>,
}

fn usage() -> String {
    "usage: run.sh --workload NAME --seed N --seconds S --trace 0|1\n       \
     run.sh [--seed N] [--seconds S] [--tiny] [--sets K]\n       \
     run.sh compare A.json B.json"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        sets: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(usage);
        let number = |v: String| v.parse::<f64>().map_err(|_| usage());
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value()?),
            "--bin-dir" => args.bin_dir = PathBuf::from(value()?),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| usage())?,
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--tiny" => args.tiny = true,
            "--sets" => args.sets = value()?.parse().map_err(|_| usage())?,
            "compare" => {
                args.compare = vec![PathBuf::from(value()?), PathBuf::from(value()?)];
            }
            _ => return Err(usage()),
        }
    }
    if args.seconds.is_some_and(|s| s <= 0.0) || args.sets == 0 {
        return Err(usage());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A run whose generator ran late is discarded and repeated, this many
/// attempts at most. On the host this was built on the hypervisor
/// freezes the VM for tens of milliseconds in one 25 s run in ten, in
/// stretches of a few minutes during which every other run is hit; five
/// traced attempts still fit the contract's 180 s.
const ATTEMPTS: usize = 5;

/// One run of one workload, traced or not, repeated while the generator
/// ran late ([`Run::valid`]); the last attempt is returned as it is.
fn run_one(
    workload: &'static Workload,
    bins: &Bins,
    plan: Plan,
    trace: bool,
    attempts: usize,
    out_dir: &Path,
) -> Result<Run, String> {
    let mut attempt = 1;
    loop {
        let run = if trace {
            let spans = out_dir.join(format!("spans-{}.jsonl", workload.name));
            layers::run_traced(workload, bins, plan, &spans)?
        } else {
            measure::run_untraced(workload, bins, plan)?
        };
        if run.valid() || attempt == attempts {
            return Ok(run);
        }
        eprintln!("{} (attempt {attempt}, repeating)", invalid_line(&run));
        attempt += 1;
    }
}

/// The contract: one run, every metric printed by name and unit, the
/// result as the last line of standard output. An oracle mismatch, a
/// failed request or a self-check problem make the exit code non-zero.
///
/// So does a traced run whose generator still ran late on the last
/// attempt: its client-side numbers are flagged, not reported. The
/// end-to-end metrics do not depend on when requests left, so an
/// untraced run is made once and only warns.
fn contract(args: &Args, name: &str, bins: &Bins, out_dir: &Path) -> Result<ExitCode, String> {
    let workload = Workload::by_name(name).ok_or(format!("unknown workload '{name}'"))?;
    let manifest = Manifest::load(&args.root.join("BENCHMARK.json"))?;
    let (declared, attempts) = if args.trace {
        (&manifest.per_layer, ATTEMPTS)
    } else {
        (&manifest.end_to_end, 1)
    };
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(SUITE_SECONDS),
        spawns: SPAWNS,
    };
    let run = run_one(workload, bins, plan, args.trace, attempts, out_dir)?;
    eprintln!(
        "workload {name}, seed {}, {} s, nproc {}",
        plan.seed,
        plan.seconds,
        nproc()
    );
    let problems = report::check_against(declared, &run.result.metrics, workload);
    for p in &problems {
        eprintln!("SELF-CHECK: {p}");
    }
    if !run.valid() {
        eprintln!("{}", invalid_line(&run));
        if args.trace {
            return Ok(ExitCode::FAILURE);
        }
    }
    if !run.client.0.is_empty() {
        run.client.print(if run.valid() {
            "client side of the same run (ungated)"
        } else {
            "client side of the same run (INVALID: the generator ran late)"
        });
    }
    let mut result = run.result;
    result.metrics = report::filled(declared, &result.metrics);
    result.metrics.print(if args.trace {
        "per-layer metrics (0 where the workload lacks the layer)"
    } else {
        "end-to-end metrics"
    });
    println!("{}", result.to_json().to_compact());
    Ok(
        if result.correct && result.failed == 0 && problems.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        },
    )
}

fn invalid_line(run: &Run) -> String {
    format!(
        "INVALID: the load generator ran {:.0} us late at p99 (limit {}); \
         the run measured the generator's host, not the server",
        run.late_p99_us,
        measure::MAX_LATE_P99_US
    )
}

/// The suite: every workload, untraced then traced; one result file per
/// set; `--sets 2` compares the two. Exits non-zero on a late generator,
/// an oracle mismatch, a failed request, a self-check problem or a
/// regression between the sets.
fn suite(args: &Args, bins: &Bins, out_dir: &Path) -> Result<ExitCode, String> {
    let manifest = Manifest::load(&args.root.join("BENCHMARK.json"))?;
    let seconds = args.seconds.unwrap_or(if args.tiny {
        TINY_SECONDS
    } else {
        SUITE_SECONDS
    });
    let plan = Plan {
        seed: args.seed,
        seconds,
        spawns: if args.tiny { 1 } else { SPAWNS },
    };
    // A 1 s phase is too short for its 99th percentile to mean anything.
    let attempts = if args.tiny { 1 } else { ATTEMPTS };
    let mut files = Vec::new();
    let mut ok = true;
    for set in 1..=args.sets {
        let mut entries = BTreeMap::new();
        for workload in &WORKLOADS {
            eprintln!("== set {set}: {} ==", workload.name);
            let untraced = run_one(workload, bins, plan, false, attempts, out_dir)?;
            let traced = run_one(workload, bins, plan, true, attempts, out_dir)?;
            let valid = untraced.valid() && traced.valid();
            for run in [&untraced, &traced] {
                if !run.valid() {
                    println!("{}: {}", workload.name, invalid_line(run));
                }
            }
            let (e2e, client, layer) = (untraced.result, untraced.client, traced.result);
            e2e.metrics.print(&format!("{}: end-to-end", workload.name));
            client.print(&format!(
                "{}: client side of the untraced run (ungated)",
                workload.name
            ));
            layer
                .metrics
                .print(&format!("{}: per-layer", workload.name));
            // Self-check: exactly the metrics BENCHMARK.json names, with
            // its units, on every workload.
            let mut problems = report::check_against(&manifest.end_to_end, &e2e.metrics, workload);
            problems.extend(report::check_against(
                &manifest.per_layer,
                &layer.metrics,
                workload,
            ));
            for p in &problems {
                eprintln!("SELF-CHECK: {p}");
            }
            ok &= (valid || args.tiny)
                && problems.is_empty()
                && e2e.correct
                && layer.correct
                && e2e.failed == 0
                && layer.failed == 0;
            entries.insert(
                workload.name.to_string(),
                SuiteEntry {
                    end_to_end: e2e,
                    untraced_client: client,
                    per_layer: layer,
                    valid,
                },
            );
        }
        let declared: Vec<&str> = manifest.workloads.iter().map(String::as_str).collect();
        let run: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if declared != run {
            eprintln!("SELF-CHECK: BENCHMARK.json workloads {declared:?}, benchmark runs {run:?}");
            ok = false;
        }
        let path = out_dir.join(format!(
            "BENCH_{}seed{}_set{set}.json",
            if args.tiny { "tiny_" } else { "" },
            args.seed
        ));
        let doc = report::suite_json(args.seed, seconds, args.tiny, nproc(), &entries);
        std::fs::write(&path, doc.to_pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        files.push(path);
    }
    if args.tiny {
        println!("--tiny: every number above is meaningless; only the shape was checked");
    }
    if let [a, b] = files.as_slice() {
        ok &= !report::compare(&manifest, a, b)?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let [a, b] = args.compare.as_slice() {
        let manifest = Manifest::load(&args.root.join("BENCHMARK.json"))?;
        let regressed = report::compare(&manifest, a, b)?;
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let bins = Bins::in_dir(&args.bin_dir)?;
    let out_dir = args.root.join("benchmark").join("results");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    match &args.workload {
        Some(name) => contract(&args, name, &bins, &out_dir),
        None => suite(&args, &bins, &out_dir),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("secemb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
