//! The program under test, run the way users run it: release
//! `secemb-serve-server` / `secemb-router` child processes with default
//! flags, bound to `127.0.0.1:0`.
//!
//! The only flags passed are deployment settings (`--listen`/`--bind`,
//! `--table`, `--backend`, the pinned `--seed`) plus `--run-secs` as a
//! backstop, so a harness that is killed outright cannot leak a server
//! past [`BACKSTOP_SECS`].

use crate::workloads::{Workload, SERVER_SEED};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Children exit on their own after this long (the contract allows a run
/// 180 s).
const BACKSTOP_SECS: u64 = 170;
/// How long a child may take to print its `listening on` line.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// `sysconf(_SC_CLK_TCK)` on every Linux configuration in use; the unit
/// of `utime`/`stime` in `/proc/<pid>/stat`.
const CLK_TCK: f64 = 100.0;

/// Where the release binaries live.
pub struct Bins {
    pub server: PathBuf,
    pub router: PathBuf,
}

impl Bins {
    pub fn in_dir(dir: &Path) -> Result<Bins, String> {
        let bins = Bins {
            server: dir.join("secemb-serve-server"),
            router: dir.join("secemb-router"),
        };
        for p in [&bins.server, &bins.router] {
            if !p.is_file() {
                return Err(format!(
                    "{} not found; run benchmark/run.sh, which builds it",
                    p.display()
                ));
            }
        }
        Ok(bins)
    }
}

/// One child process. Dropping it kills and reaps the process, on every
/// exit path including a panic's unwind.
struct Proc {
    name: String,
    child: Child,
    /// Lines of the stream that carries the `listening on` line.
    lines: Receiver<String>,
    /// The thread feeding `lines`. It keeps draining after start-up so
    /// the child never blocks on a full pipe, and ends when the child's
    /// end of the pipe closes.
    drain: Option<JoinHandle<()>>,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Proc {
    /// Spawns `cmd`. The server announces its address on stderr and
    /// prints nothing on stdout; the router announces on stdout
    /// (`banner_on_stdout`) and its stderr, which only carries errors,
    /// is passed through so a start-up failure is visible.
    fn spawn(name: &str, mut cmd: Command, banner_on_stdout: bool) -> Result<Proc, String> {
        cmd.stdin(Stdio::null());
        if banner_on_stdout {
            cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        } else {
            cmd.stdout(Stdio::null()).stderr(Stdio::piped());
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {name}: {e}"))?;
        let stream: Box<dyn Read + Send> = if banner_on_stdout {
            Box::new(child.stdout.take().expect("piped stdout"))
        } else {
            Box::new(child.stderr.take().expect("piped stderr"))
        };
        let (tx, lines) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stream).lines().map_while(Result::ok) {
                // Nobody listens after start-up; keep reading regardless.
                let _ = tx.send(line);
            }
        });
        Ok(Proc {
            name: name.to_string(),
            child,
            lines,
            drain: Some(drain),
        })
    }

    /// Waits for the `listening on ADDR` line and parses `ADDR`. On a
    /// child that exits or stays silent, the error carries what it
    /// printed.
    fn listening_addr(&mut self) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + START_TIMEOUT;
        let mut seen = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        let addr = rest.split_whitespace().next().unwrap_or("");
                        return addr
                            .parse()
                            .map_err(|e| format!("{}: bad address in '{line}': {e}", self.name));
                    }
                    seen.push(line);
                }
                Err(_) => {
                    let status = match self.child.try_wait() {
                        Ok(Some(s)) => format!("exited with {s}"),
                        _ => "did not announce an address in time".to_string(),
                    };
                    return Err(format!(
                        "{} {status}; its output:\n{}",
                        self.name,
                        seen.join("\n")
                    ));
                }
            }
        }
    }

    /// CPU time the process has consumed, seconds: the scheduler's exact
    /// per-thread run time (`/proc/<pid>/task/*/schedstat`) summed over
    /// its threads, which all live as long as the process. Where the
    /// kernel does not keep it, `utime + stime` in clock ticks.
    fn cpu_seconds(&self) -> f64 {
        let pid = self.child.id();
        let run_ns: u64 = std::fs::read_dir(format!("/proc/{pid}/task"))
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum();
        if run_ns > 0 {
            return run_ns as f64 / 1e9;
        }
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let after = stat.rsplit(')').next().unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick(11) + tick(12)) / CLK_TCK
    }

    /// Peak resident set (`VmHWM`), MiB.
    fn rss_hwm_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

/// A running fleet: one server, or a router in front of two backends.
pub struct Fleet {
    procs: Vec<Proc>,
    /// What clients connect to (the router, or the lone server).
    pub front: SocketAddr,
    /// Backend addresses (one of them equals `front` when unrouted).
    pub backends: Vec<SocketAddr>,
}

impl Fleet {
    /// Starts the workload's fleet the way a deployment script would:
    /// backends first, then the router once they listen.
    pub fn spawn(bins: &Bins, workload: &Workload) -> Result<Fleet, String> {
        let n_backends = if workload.routed { 2 } else { 1 };
        let mut procs = Vec::new();
        let mut backends = Vec::new();
        for b in 0..n_backends {
            let mut cmd = Command::new(&bins.server);
            cmd.args(["--listen", "127.0.0.1:0"])
                .args(["--seed", &SERVER_SEED.to_string()])
                .args(["--run-secs", &BACKSTOP_SECS.to_string()]);
            for spec in workload.specs {
                cmd.args(["--table", &spec.to_string()]);
            }
            let mut proc = Proc::spawn(&format!("server b{b}"), cmd, false)?;
            backends.push(proc.listening_addr()?);
            procs.push(proc);
        }
        let front = if workload.routed {
            let mut cmd = Command::new(&bins.router);
            cmd.args(["--bind", "127.0.0.1:0"])
                .args(["--run-secs", &BACKSTOP_SECS.to_string()]);
            for (b, addr) in backends.iter().enumerate() {
                cmd.args(["--backend", &format!("b{b}={addr}")]);
            }
            let mut proc = Proc::spawn("router", cmd, true)?;
            let addr = proc.listening_addr()?;
            procs.push(proc);
            addr
        } else {
            backends[0]
        };
        Ok(Fleet {
            procs,
            front,
            backends,
        })
    }

    /// Summed `utime + stime` of every process in the fleet, seconds.
    pub fn cpu_seconds(&self) -> f64 {
        self.procs.iter().map(Proc::cpu_seconds).sum()
    }

    /// Summed `VmHWM` of every process in the fleet, MiB.
    pub fn rss_hwm_mib(&self) -> f64 {
        self.procs.iter().map(Proc::rss_hwm_mib).sum()
    }
}
