//! The correctness oracle: every table rebuilt in-process from the same
//! spec and seed the servers were started with, compared bit-for-bit
//! with a sample of the replies.
//!
//! Read-only workloads compare every [`ORACLE_STRIDE`]-th reply with
//! `generate_batch` on the rebuilt generator (for `GenerateMulti`, part
//! by part in part order). The read/write workload keeps a plaintext
//! shadow table instead: acknowledged `Update` deltas are applied in
//! reply order — which, on one connection into one single-replica shard,
//! is the order the server applied them — sampled replies are compared
//! with the shadow as it stood at that point, and rows read back after
//! the run must equal it.

use crate::driver::{Outcome, PhaseLog};
use crate::workloads::{plaintext, Req, Workload, ORACLE_STRIDE, SERVER_SEED};
use secemb::EmbeddingGenerator;
use secemb_tensor::Matrix;

pub struct Oracle {
    workload: &'static Workload,
    seed: u64,
    generators: Vec<Box<dyn EmbeddingGenerator + Send>>,
    /// Plaintext copy of table 0, present when the workload writes.
    shadow: Option<Matrix>,
    pub checked: u64,
    pub mismatches: u64,
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Oracle {
    pub fn build(workload: &'static Workload, seed: u64) -> Oracle {
        let specs = workload.specs;
        let writes = workload.writes();
        let shadow = writes.then(|| plaintext(&specs[0]));
        Oracle {
            workload,
            seed,
            generators: specs.iter().map(|s| s.build(SERVER_SEED)).collect(),
            shadow,
            checked: 0,
            mismatches: 0,
        }
    }

    /// What a read-only request must return: the parts' rows, in order.
    pub fn expected(&mut self, req: &Req) -> Matrix {
        let dim = self.generators[0].dim();
        let mut data = Vec::with_capacity(req.queries() * dim);
        for (table, indices) in &req.parts {
            data.extend_from_slice(self.generators[*table].generate_batch(indices).as_slice());
        }
        Matrix::from_vec(req.queries(), dim, data)
    }

    fn compare(&mut self, got: &Matrix, want: &[f32]) {
        self.checked += 1;
        if !same_bits(got.as_slice(), want) {
            self.mismatches += 1;
        }
    }

    /// Checks one phase's replies. Phases must be passed in the order
    /// they ran, since the shadow table carries over.
    pub fn check(&mut self, log: &PhaseLog) {
        for reply in &log.replies {
            let Outcome::Ok { rows, .. } = &reply.outcome else {
                continue;
            };
            let req = self.workload.request(self.seed, reply.id);
            let want = match self.shadow.as_mut() {
                None => rows.is_some().then(|| self.expected(&req).into_vec()),
                Some(shadow) => {
                    // Sequential scatter semantics: row k of the reply is
                    // the row after ops 0..=k of this request.
                    let (_, indices) = &req.parts[0];
                    let mut want = Vec::with_capacity(indices.len() * shadow.cols());
                    for (k, &idx) in indices.iter().enumerate() {
                        let row = shadow.row_mut(idx as usize);
                        if let Some(deltas) = &req.deltas {
                            for (v, d) in row.iter_mut().zip(deltas.row(k)) {
                                *v += d;
                            }
                        }
                        want.extend_from_slice(row);
                    }
                    Some(want)
                }
            };
            if let (Some(rows), Some(want)) = (rows, want) {
                self.compare(rows, &want);
            }
        }
    }

    /// Compares rows read back after the run with the shadow table.
    pub fn check_readback(&mut self, indices: &[u64], got: &Matrix) {
        let shadow = self.shadow.as_ref().expect("read-back needs a shadow");
        let want: Vec<f32> = indices
            .iter()
            .flat_map(|&i| shadow.row(i as usize).iter().copied())
            .collect();
        self.compare(got, &want);
    }

    pub fn has_shadow(&self) -> bool {
        self.shadow.is_some()
    }
}

/// Whether reply `id` is one the oracle samples.
pub fn sampled(id: u64) -> bool {
    id.is_multiple_of(ORACLE_STRIDE)
}
