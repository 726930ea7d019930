//! Model checkpoints: capture and restore every trainable parameter.
//!
//! The paper's workflow trains once and serves many configurations
//! (Algorithm 2 trains a single all-DHE model; the LLM hybrid derives both
//! representations from one fine-tune). That only works if trained weights
//! move between processes, so this module provides an architecture-
//! agnostic checkpoint: parameters are captured in `visit_params` order
//! and serialized to a small self-describing binary format.

use crate::Params;
use secemb_tensor::Matrix;
use secemb_wire::bytes::{ByteReader, ByteWriter};
use std::fmt;

/// Magic bytes identifying the format.
const MAGIC: &[u8; 4] = b"SECB";
/// Format version.
const VERSION: u32 = 1;

/// Errors produced when decoding or restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream does not start with the expected magic/version.
    BadHeader,
    /// The byte stream ended before the declared tensors were read.
    Truncated,
    /// A declared tensor shape is implausible (guards against corrupted
    /// length fields allocating absurd buffers).
    CorruptShape {
        /// Index of the offending tensor.
        tensor: usize,
    },
    /// The checkpoint's tensor count differs from the target module's.
    ParamCountMismatch {
        /// Tensors in the checkpoint.
        expected: usize,
        /// Parameters found in the module.
        found: usize,
    },
    /// A tensor's shape differs from the corresponding parameter's.
    ShapeMismatch {
        /// Index of the offending tensor.
        tensor: usize,
        /// Shape stored in the checkpoint.
        expected: (usize, usize),
        /// Shape of the module parameter.
        found: (usize, usize),
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "not a SECB v{VERSION} checkpoint"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::CorruptShape { tensor } => {
                write!(f, "tensor {tensor} has a corrupt shape")
            }
            CheckpointError::ParamCountMismatch { expected, found } => write!(
                f,
                "checkpoint has {expected} tensors but the module has {found} parameters"
            ),
            CheckpointError::ShapeMismatch {
                tensor,
                expected,
                found,
            } => write!(
                f,
                "tensor {tensor}: checkpoint shape {expected:?} vs parameter shape {found:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A captured set of parameter tensors, in `visit_params` order.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    tensors: Vec<Matrix>,
}

impl Checkpoint {
    /// Captures every parameter value of `model`.
    pub fn capture(model: &mut dyn Params) -> Self {
        let mut tensors = Vec::new();
        model.visit_params(&mut |p| tensors.push(p.value.clone()));
        Checkpoint { tensors }
    }

    /// Number of tensors captured.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the checkpoint is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total scalar parameters stored.
    pub fn param_count(&self) -> usize {
        self.tensors.iter().map(Matrix::len).sum()
    }

    /// Writes every tensor back into `model`'s parameters (visit order).
    ///
    /// # Errors
    ///
    /// Fails without modifying anything if the parameter count or any
    /// shape disagrees — restoring into the wrong architecture is a
    /// deployment bug, not a recoverable condition to paper over.
    pub fn restore(&self, model: &mut dyn Params) -> Result<(), CheckpointError> {
        // Validation pass (no writes).
        let mut shapes = Vec::new();
        model.visit_params(&mut |p| shapes.push(p.value.shape()));
        if shapes.len() != self.tensors.len() {
            return Err(CheckpointError::ParamCountMismatch {
                expected: self.tensors.len(),
                found: shapes.len(),
            });
        }
        for (i, (t, &s)) in self.tensors.iter().zip(shapes.iter()).enumerate() {
            if t.shape() != s {
                return Err(CheckpointError::ShapeMismatch {
                    tensor: i,
                    expected: t.shape(),
                    found: s,
                });
            }
        }
        // Write pass.
        let mut idx = 0;
        model.visit_params(&mut |p| {
            p.value = self.tensors[idx].clone();
            idx += 1;
        });
        Ok(())
    }

    /// Serializes to the SECB binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self.tensors.iter().map(|t| 8 + t.len() * 4).sum::<usize>();
        let mut buf = ByteWriter::with_capacity(12 + payload);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(self.tensors.len() as u32);
        for t in &self.tensors {
            buf.put_u32_le(t.rows() as u32);
            buf.put_u32_le(t.cols() as u32);
            for &v in t.as_slice() {
                buf.put_f32_le(v);
            }
        }
        buf.into_vec()
    }

    /// Parses the SECB binary format.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on a malformed stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut buf = ByteReader::new(bytes);
        if buf.remaining() < 12 {
            return Err(CheckpointError::BadHeader);
        }
        let magic = buf.get_slice(4).expect("length checked");
        if magic != MAGIC || buf.get_u32_le().expect("length checked") != VERSION {
            return Err(CheckpointError::BadHeader);
        }
        let count = buf.get_u32_le().expect("length checked") as usize;
        let mut tensors = Vec::with_capacity(count.min(1 << 16));
        for tensor in 0..count {
            if buf.remaining() < 8 {
                return Err(CheckpointError::Truncated);
            }
            let rows = buf.get_u32_le().expect("length checked") as usize;
            let cols = buf.get_u32_le().expect("length checked") as usize;
            let elems = rows
                .checked_mul(cols)
                .filter(|&e| e <= 1 << 30)
                .ok_or(CheckpointError::CorruptShape { tensor })?;
            if buf.remaining() < elems * 4 {
                return Err(CheckpointError::Truncated);
            }
            let mut data = Vec::with_capacity(elems);
            for _ in 0..elems {
                data.push(buf.get_f32_le().expect("length checked"));
            }
            tensors.push(Matrix::from_vec(rows, cols, data));
        }
        Ok(Checkpoint { tensors })
    }

    /// Convenience: capture + serialize.
    pub fn save(model: &mut dyn Params) -> Vec<u8> {
        Self::capture(model).to_bytes()
    }

    /// Convenience: parse + restore.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on a malformed stream or an
    /// architecture mismatch.
    pub fn load(bytes: &[u8], model: &mut dyn Params) -> Result<(), CheckpointError> {
        Self::from_bytes(bytes)?.restore(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gelu, Linear, Mlp, Module, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Mlp {
        Mlp::new(3, &[5, 2], &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn round_trip_restores_behaviour() {
        let mut a = net(1);
        let mut b = net(2);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.3);
        let before = a.forward(&x, &mut Tape::inference());
        let forward = |net: &Mlp| net.forward(&x, &mut Tape::inference());
        assert!(!before.allclose(&forward(&b), 1e-6), "nets must differ");

        let bytes = Checkpoint::save(&mut a);
        Checkpoint::load(&bytes, &mut b).unwrap();
        assert!(
            before.allclose(&forward(&b), 0.0),
            "restored net must match"
        );
    }

    #[test]
    fn capture_metadata() {
        let mut a = net(1);
        let ckpt = Checkpoint::capture(&mut a);
        assert_eq!(ckpt.len(), 4); // 2 weights + 2 biases
        assert_eq!(ckpt.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
        assert!(!ckpt.is_empty());
    }

    #[test]
    fn rejects_wrong_architecture() {
        let mut a = net(1);
        let ckpt = Checkpoint::capture(&mut a);
        let mut rng = StdRng::seed_from_u64(3);
        let mut wrong_shape = Mlp::new(3, &[6, 2], &mut rng);
        assert!(matches!(
            ckpt.restore(&mut wrong_shape),
            Err(CheckpointError::ShapeMismatch { tensor: 0, .. })
        ));
        let mut wrong_count = Linear::new(3, 5, &mut rng);
        assert!(matches!(
            ckpt.restore(&mut wrong_count),
            Err(CheckpointError::ParamCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_malformed_bytes() {
        assert_eq!(
            Checkpoint::from_bytes(b"xx"),
            Err(CheckpointError::BadHeader)
        );
        assert_eq!(
            Checkpoint::from_bytes(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00"),
            Err(CheckpointError::BadHeader)
        );
        // Valid header claiming one tensor, then nothing.
        let mut buf = ByteWriter::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(1);
        assert_eq!(
            Checkpoint::from_bytes(&buf.clone().into_vec()),
            Err(CheckpointError::Truncated)
        );
        // Corrupt (overflowing) shape.
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            Checkpoint::from_bytes(&buf.into_vec()),
            Err(CheckpointError::CorruptShape { tensor: 0 })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = CheckpointError::ShapeMismatch {
            tensor: 3,
            expected: (2, 2),
            found: (4, 4),
        };
        let msg = e.to_string();
        assert!(msg.contains("tensor 3"));
        assert!(msg.contains("(2, 2)"));
    }

    #[test]
    fn empty_module_round_trips() {
        let mut empty = Gelu;
        let bytes = Checkpoint::save(&mut empty);
        Checkpoint::load(&bytes, &mut empty).unwrap();
        assert!(Checkpoint::capture(&mut empty).is_empty());
    }
}
