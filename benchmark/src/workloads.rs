//! The five served workloads and their seeded request streams.
//!
//! A workload fixes a fleet (which binaries, which `--table` specs), a
//! request shape and an open-loop rate. Its request stream is a pure
//! function of `(seed, request id)`, so the sender, the oracle and every
//! boundary replay of the traced run see the same inputs without storing
//! them. The program under test only ever receives the generated
//! requests; its own `--seed` stays pinned to [`SERVER_SEED`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secemb::GeneratorSpec;
use secemb_serve::protocol::{encode_generate_multi, encode_generate_traced, encode_update_traced};
use secemb_serve::TraceCtx;
use secemb_tensor::Matrix;
use std::time::Duration;

/// The `--seed` every server child is started with (the CLI default).
pub const SERVER_SEED: u64 = 42;
/// The SLA every open-loop request carries (the paper's 20 ms).
pub const DEADLINE: Duration = Duration::from_millis(20);
/// In-flight window of the closed-loop saturation phase.
pub const SAT_WINDOW: usize = 32;
/// Every n-th reply is kept and compared bit-for-bit with the oracle.
pub const ORACLE_STRIDE: u64 = 16;

/// What one request looks like on the wire.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `GenerateMulti`: one part per table, `per_part` indices each.
    Multi { per_part: usize },
    /// `Generate` against table 0; with probability `update_share` an
    /// `Update` carrying one delta row per index instead.
    Single { indices: usize, update_share: f64 },
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// What every backend process serves, one `--table` each (a spec's
    /// `Display` is its CLI syntax).
    pub specs: &'static [GeneratorSpec],
    /// Router + two backends instead of one server.
    pub routed: bool,
    pub shape: Shape,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Prefixes of the per-layer metrics of layers this workload's
    /// requests never cross. They are not measured here; a contract run
    /// prints them as 0, the suite's result file leaves them out.
    pub lacks: &'static [&'static str],
}

/// Embedding dimension of every table.
const DIM: usize = 64;

/// The DLRM hybrid tables: scan-served below 100 000 rows, DHE above.
const fn hybrid(rows: u64) -> GeneratorSpec {
    GeneratorSpec::Hybrid {
        rows,
        dim: DIM,
        threshold: 100_000,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dlrm_routed",
        specs: &[
            hybrid(2_048),
            hybrid(4_096),
            hybrid(1_048_576),
            hybrid(4_194_304),
        ],
        routed: true,
        shape: Shape::Multi { per_part: 4 },
        rate: 300.0,
        lacks: &["tensor.", "oram.", "laoram.", "trace.structure_self_us"],
    },
    Workload {
        name: "scan_heavy",
        specs: &[GeneratorSpec::Scan {
            rows: 16_384,
            dim: DIM,
        }],
        routed: false,
        shape: Shape::Single {
            indices: 8,
            update_share: 0.0,
        },
        rate: 120.0,
        lacks: &[
            "tensor.",
            "oram.",
            "laoram.",
            "router.",
            "core.dhe_us_per_query",
            "trace.structure_self_us",
        ],
    },
    Workload {
        name: "dhe_gemm",
        specs: &[GeneratorSpec::Dhe {
            rows: 10_000_000,
            dim: DIM,
        }],
        routed: false,
        shape: Shape::Single {
            indices: 16,
            update_share: 0.0,
        },
        rate: 120.0,
        lacks: &[
            "obliv.",
            "oram.",
            "laoram.",
            "router.",
            "trace.structure_self_us",
        ],
    },
    Workload {
        name: "oram_circuit",
        specs: &[GeneratorSpec::CircuitOram {
            rows: 50_257,
            dim: DIM,
        }],
        routed: false,
        shape: Shape::Single {
            indices: 16,
            update_share: 0.0,
        },
        rate: 120.0,
        lacks: &[
            "obliv.",
            "tensor.",
            "laoram.",
            "router.",
            "core.dhe_us_per_query",
            "trace.kernel_self_us",
        ],
    },
    Workload {
        name: "laoram_rw",
        specs: &[GeneratorSpec::LaOram {
            rows: 16_384,
            dim: DIM,
        }],
        routed: false,
        shape: Shape::Single {
            indices: 16,
            update_share: 0.5,
        },
        rate: 120.0,
        lacks: &[
            "obliv.",
            "tensor.",
            "oram.",
            "router.",
            "core.dhe_us_per_query",
            "trace.kernel_self_us",
        ],
    },
];

/// One generated request.
#[derive(Clone, Debug)]
pub struct Req {
    /// `(table, indices)` per part; a single part for `Generate`/`Update`.
    pub parts: Vec<(usize, Vec<u64>)>,
    /// `Some` makes the request an `Update` against `parts[0]`.
    pub deltas: Option<Matrix>,
}

impl Req {
    pub fn queries(&self) -> usize {
        self.parts.iter().map(|(_, ix)| ix.len()).sum()
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether per-layer metric `name` belongs to a layer this workload
    /// does not have.
    pub fn lacks(&self, name: &str) -> bool {
        self.lacks.iter().any(|prefix| name.starts_with(prefix))
    }

    /// Whether some requests are `Update`s.
    pub fn writes(&self) -> bool {
        matches!(self.shape, Shape::Single { update_share, .. } if update_share > 0.0)
    }

    /// Request `id` of the stream seeded by `seed`: uniform indices (the
    /// protected techniques are data-independent, so skew would change
    /// nothing the server does), small uniform deltas for updates.
    pub fn request(&self, seed: u64, id: u64) -> Req {
        let mut rng = StdRng::seed_from_u64(seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let specs = self.specs;
        let mut draw = |table: usize, n: usize| -> Vec<u64> {
            let rows = specs[table].rows();
            (0..n).map(|_| rng.gen_range(0..rows)).collect()
        };
        match self.shape {
            Shape::Multi { per_part } => Req {
                parts: (0..specs.len()).map(|t| (t, draw(t, per_part))).collect(),
                deltas: None,
            },
            Shape::Single {
                indices,
                update_share,
            } => {
                let ix = draw(0, indices);
                let deltas = (update_share > 0.0 && rng.gen_bool(update_share)).then(|| {
                    Matrix::from_fn(indices, specs[0].dim(), |_, _| {
                        rng.gen_range(-0.01f32..0.01)
                    })
                });
                Req {
                    parts: vec![(0, ix)],
                    deltas,
                }
            }
        }
    }

    /// The request's wire payload (unframed).
    pub fn encode(
        &self,
        req: &Req,
        id: u64,
        deadline: Option<Duration>,
        trace: Option<TraceCtx>,
    ) -> Vec<u8> {
        match (self.shape, &req.deltas) {
            (Shape::Multi { .. }, _) => encode_generate_multi(id, &req.parts, deadline, trace),
            (Shape::Single { .. }, Some(deltas)) => {
                let (table, ix) = &req.parts[0];
                encode_update_traced(id, *table, ix, deltas, deadline, trace)
            }
            (Shape::Single { .. }, None) => {
                let (table, ix) = &req.parts[0];
                encode_generate_traced(id, *table, ix, deadline, trace)
            }
        }
    }
}

/// The plaintext of a table-backed spec: `GeneratorSpec::build` draws
/// the synthetic table first whatever the technique, so the insecure
/// lookup over the same shape and seed returns it.
pub fn plaintext(spec: &GeneratorSpec) -> Matrix {
    let all: Vec<u64> = (0..spec.rows()).collect();
    GeneratorSpec::Lookup {
        rows: spec.rows(),
        dim: spec.dim(),
    }
    .build(SERVER_SEED)
    .generate_batch(&all)
}

/// Seeded Poisson arrivals at `rate` per second over `span`, as offsets
/// from the phase start, generated up front.
pub fn poisson_schedule(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let mut due = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 8);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= span.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}
