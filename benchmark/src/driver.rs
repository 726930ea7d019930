//! The load generator: exactly one TCP connection and two threads (the
//! caller sends, one scoped thread receives), requests pipelined by
//! request id over the public `secemb_serve::protocol` and
//! `secemb_wire::frame` API.
//!
//! Open loop: arrivals follow a schedule generated up front; latency is
//! timed from the *due* time, so a stall is charged the wait it imposes
//! on later requests, and a sender that falls behind sends the backlog
//! at once instead of dropping it. How late the sender ran is reported.
//! Closed loop: a fixed window of requests in flight, no deadline.
//!
//! Both threads run under `SCHED_FIFO` for the length of a phase (see
//! [`Realtime`]): a generator that queues behind the server's worker for
//! a time slice measures the host's scheduler, not the server.

use secemb_serve::protocol::{decode_server, ServerMsg};
use secemb_serve::{RejectReason, StageBreakdown};
use secemb_tensor::Matrix;
use secemb_wire::frame::{encode_frame_into, FrameDecoder};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// After the last send, a reply that has not arrived within this long is
/// a timeout.
const STRAGGLER_WAIT: Duration = Duration::from_secs(2);
/// Wake-up cadence of the receiver while the socket is silent.
const READ_POLL: Duration = Duration::from_millis(20);
/// The sender sleeps until this close to a due time, then spins: sleep
/// overshoots by the kernel's timer slack, spinning does not.
const SPIN_MARGIN: Duration = Duration::from_micros(300);

/// Real-time priority the generator's threads take; any value preempts
/// every time-shared thread.
const FIFO_PRIORITY: &str = "10";

/// Holds the calling thread under `SCHED_FIFO` until dropped; threads it
/// spawns meanwhile inherit the policy. Without it a generator thread
/// that wakes on the core where a server worker computes waits out the
/// worker's time slice (1 - 2 ms at the 90th percentile on the 2-vCPU
/// host this was built on, 0.02 - 0.06 ms at the 99th with it), and that
/// wait lands in the latency it reports. The generator sleeps or blocks
/// between requests, so it starves nothing.
///
/// The policy is set through util-linux `chrt`, which needs
/// `CAP_SYS_NICE`. Where that fails the thread stays time-shared, a
/// warning is printed, and `client.late_p99_us` decides whether the run
/// is valid.
struct Realtime {
    /// The elevated thread's id, `None` when `chrt` refused.
    tid: Option<String>,
}

fn chrt(policy: &str, priority: &str, tid: &str) -> bool {
    Command::new("chrt")
        .args([policy, "-p", priority, tid])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

impl Realtime {
    fn raise() -> Realtime {
        // "<pid>/task/<tid>"
        let tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| Some(p.file_name()?.to_str()?.to_string()))
            .filter(|tid| chrt("-f", FIFO_PRIORITY, tid));
        if tid.is_none() {
            eprintln!(
                "WARNING: could not give the load generator real-time priority \
                 (chrt -f needs CAP_SYS_NICE); it may run late"
            );
        }
        Realtime { tid }
    }
}

impl Drop for Realtime {
    fn drop(&mut self) {
        if let Some(tid) = &self.tid {
            chrt("-o", "0", tid);
        }
    }
}

/// How a phase paces its requests.
#[derive(Clone, Copy)]
pub enum Pace<'a> {
    /// Send request `k` at `due[k]` after the phase start.
    Open { due: &'a [Duration] },
    /// Keep `window` requests in flight for `span`.
    Closed { window: usize, span: Duration },
}

/// What came back for one request.
#[derive(Debug)]
pub enum Outcome {
    /// Embeddings; the rows are kept only for replies the oracle samples.
    Ok {
        stages: StageBreakdown,
        rows: Option<Matrix>,
    },
    Rejected(RejectReason),
    /// A frame that is not a reply to a generate/update request.
    Unexpected,
}

#[derive(Debug)]
pub struct Sent {
    /// When the request was due, from the phase start (equals `sent` in a
    /// closed loop).
    pub due: Duration,
    /// When its frame was handed to the socket.
    pub sent: Duration,
}

#[derive(Debug)]
pub struct Reply {
    pub id: u64,
    /// When the reply had been decoded, from the phase start.
    pub done: Duration,
    pub outcome: Outcome,
}

/// Everything one phase observed: `sent[k]` is request `first_id + k`,
/// `replies` are in arrival order.
#[derive(Debug)]
pub struct PhaseLog {
    pub started: Instant,
    pub first_id: u64,
    pub sent: Vec<Sent>,
    pub replies: Vec<Reply>,
    /// Transport errors on either half of the connection.
    pub io_errors: u64,
    /// Phase start to the sender's last send (closed loop: the span).
    pub send_span: Duration,
}

/// One connection to a server or router.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, payload);
    out
}

/// Sleeps, then spins, until `target`.
pub fn wait_until(target: Instant) {
    let left = target.saturating_duration_since(Instant::now());
    if left > SPIN_MARGIN {
        std::thread::sleep(left - SPIN_MARGIN);
    }
    while Instant::now() < target {
        std::hint::spin_loop();
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            decoder: FrameDecoder::new(),
        })
    }

    /// One synchronous round trip (control frames: `Tables`, `Stats`,
    /// `Metrics`, and the post-run read-back).
    pub fn call(&mut self, payload: &[u8]) -> io::Result<ServerMsg> {
        self.stream.set_read_timeout(Some(STRAGGLER_WAIT))?;
        self.stream.write_all(&framed(payload))?;
        let mut buf = [0u8; 64 * 1024];
        loop {
            let frame = self
                .decoder
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if let Some(frame) = frame {
                return decode_server(&frame)
                    .map(|(_, msg)| msg)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.extend(&buf[..n]);
        }
    }

    /// Runs one phase. `payload(id)` builds request `id`'s unframed wire
    /// payload; ids count up from `first_id`. `keep_rows(id)` selects the
    /// replies whose embeddings are kept for the oracle.
    pub fn run_phase(
        &mut self,
        first_id: u64,
        pace: Pace<'_>,
        payload: &(dyn Fn(u64) -> Vec<u8> + Sync),
        keep_rows: &(dyn Fn(u64) -> bool + Sync),
    ) -> PhaseLog {
        let _realtime = Realtime::raise();
        let t0 = Instant::now();
        // u64::MAX until the sender is done, then the number it sent.
        let total_sent = AtomicU64::new(u64::MAX);
        let (token_tx, token_rx) = mpsc::channel::<()>();
        let closed = matches!(pace, Pace::Closed { .. });
        let mut log = PhaseLog {
            started: t0,
            first_id,
            sent: Vec::new(),
            replies: Vec::new(),
            io_errors: 0,
            send_span: Duration::ZERO,
        };
        let reader = self.stream.try_clone();
        let decoder = &mut self.decoder;
        let stream = &mut self.stream;
        let total_ref = &total_sent;
        let (replies, recv_errors) = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || {
                let Ok(reader) = reader else {
                    return (Vec::new(), 1);
                };
                receive(
                    reader,
                    decoder,
                    t0,
                    total_ref,
                    closed.then_some(token_tx),
                    keep_rows,
                )
            });
            match pace {
                Pace::Open { due } => {
                    // Each frame is built before the wait for its due
                    // time, so the send itself is one write.
                    for &at in due {
                        let frame = framed(&payload(first_id + log.sent.len() as u64));
                        wait_until(t0 + at);
                        if !send_one(stream, &mut log, t0, Some(at), &frame) {
                            break;
                        }
                    }
                    log.send_span = t0.elapsed();
                }
                Pace::Closed { window, span } => {
                    let mut credit = window;
                    loop {
                        let left = span.saturating_sub(t0.elapsed());
                        if left.is_zero() {
                            break;
                        }
                        if credit == 0 {
                            match token_rx.recv_timeout(left) {
                                Ok(()) => credit += 1,
                                Err(_) => break,
                            }
                        }
                        credit -= 1;
                        let frame = framed(&payload(first_id + log.sent.len() as u64));
                        if !send_one(stream, &mut log, t0, None, &frame) {
                            break;
                        }
                    }
                    log.send_span = span;
                }
            }
            total_sent.store(log.sent.len() as u64, Ordering::SeqCst);
            receiver.join().expect("receiver thread panicked")
        });
        log.replies = replies;
        log.io_errors += recv_errors;
        log
    }
}

/// Hands one frame to the socket and logs it; `due` is `None` in a
/// closed loop, where a request is due when it is sent.
fn send_one(
    stream: &mut TcpStream,
    log: &mut PhaseLog,
    t0: Instant,
    due: Option<Duration>,
    frame: &[u8],
) -> bool {
    let sent = t0.elapsed();
    if stream.write_all(frame).is_err() {
        log.io_errors += 1;
        return false;
    }
    log.sent.push(Sent {
        due: due.unwrap_or(sent),
        sent,
    });
    true
}

/// The receiver half: reads until every sent request is answered, or the
/// sender is done and the socket has been silent for [`STRAGGLER_WAIT`].
fn receive(
    mut reader: TcpStream,
    decoder: &mut FrameDecoder,
    t0: Instant,
    total_sent: &AtomicU64,
    tokens: Option<mpsc::Sender<()>>,
    keep_rows: &(dyn Fn(u64) -> bool + Sync),
) -> (Vec<Reply>, u64) {
    let mut replies = Vec::new();
    if reader.set_read_timeout(Some(READ_POLL)).is_err() {
        return (replies, 1);
    }
    let mut buf = vec![0u8; 256 * 1024];
    let mut quiet_since: Option<Instant> = None;
    loop {
        let total = total_sent.load(Ordering::SeqCst);
        if replies.len() as u64 >= total {
            return (replies, 0);
        }
        match reader.read(&mut buf) {
            Ok(0) => return (replies, 1),
            Ok(n) => {
                quiet_since = None;
                decoder.extend(&buf[..n]);
                loop {
                    let frame = match decoder.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(_) => return (replies, 1),
                    };
                    let decoded = decode_server(&frame);
                    let done = t0.elapsed();
                    let Ok((id, msg)) = decoded else {
                        return (replies, 1);
                    };
                    let outcome = match msg {
                        ServerMsg::Embeddings(rows, stages) => Outcome::Ok {
                            stages,
                            rows: keep_rows(id).then_some(rows),
                        },
                        ServerMsg::Rejected(reason) => Outcome::Rejected(reason),
                        _ => Outcome::Unexpected,
                    };
                    replies.push(Reply { id, done, outcome });
                    if let Some(tokens) = &tokens {
                        let _ = tokens.send(());
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if total != u64::MAX {
                    let since = *quiet_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= STRAGGLER_WAIT {
                        return (replies, 0);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return (replies, 1),
        }
    }
}
