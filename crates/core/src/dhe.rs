//! Deep Hash Embedding (Kang et al., KDD'21), repurposed as a secure
//! embedding generator (§IV-A3).

use crate::hash::UniversalHashFamily;
use crate::{EmbeddingGenerator, Technique};
use rand::{Rng, SeedableRng};
use secemb_nn::{Linear, Module, Param, Relu};
use secemb_tensor::Matrix;
use secemb_trace::tracer::{self, regions};

/// Architecture of a DHE generator: `k` hash functions feeding an MLP
/// decoder `k → hidden… → dim`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DheConfig {
    /// Output embedding dimension.
    pub dim: usize,
    /// Number of hash functions (encoder width).
    pub k: usize,
    /// Hidden layer widths of the decoder MLP.
    pub hidden: Vec<usize>,
    /// Hash bucket count `m` (the paper uses 10^6).
    pub buckets: u64,
    /// Seed of the universal hash family. The hash functions are part of
    /// the *architecture* (they must match between training and serving,
    /// and they carry no learned state), so they derive from the config
    /// rather than the weight-initialization RNG — which is what lets a
    /// weight checkpoint restore into a freshly constructed model.
    pub hash_seed: u64,
}

impl DheConfig {
    /// A fully custom configuration.
    pub fn new(dim: usize, k: usize, hidden: Vec<usize>) -> Self {
        DheConfig {
            dim,
            k,
            hidden,
            buckets: 1_000_000,
            hash_seed: 0x5EC_E4B,
        }
    }

    /// Returns the same architecture with a different hash-family seed
    /// (e.g. to decorrelate the encoders of a model's many features).
    pub fn with_hash_seed(mut self, hash_seed: u64) -> Self {
        self.hash_seed = hash_seed;
        self
    }

    /// The paper's **Uniform** DHE (Table IV): `k = 1024`, decoder
    /// `1024 → 512 → 256 → dim`, for every table regardless of size.
    pub fn uniform(dim: usize) -> Self {
        DheConfig::new(dim, 1024, vec![512, 256])
    }

    /// The paper's **Varied** DHE: the Uniform architecture scaled down
    /// 0.125× for every order of magnitude the table is smaller than 10^7
    /// rows (Table IV), with floors so tiny tables keep a working decoder.
    pub fn varied(dim: usize, table_size: u64) -> Self {
        let base = Self::uniform(dim);
        let decades_below = (1e7f64 / (table_size.max(1) as f64)).log10().max(0.0);
        let scale = 0.125f64.powf(decades_below);
        let scaled = |w: usize, floor: usize| ((w as f64 * scale).round() as usize).max(floor);
        DheConfig {
            dim,
            k: scaled(base.k, 16),
            hidden: base.hidden.iter().map(|&h| scaled(h, 8)).collect(),
            buckets: base.buckets,
            hash_seed: base.hash_seed,
        }
    }

    /// Trainable parameter count of the decoder MLP.
    pub fn param_count(&self) -> usize {
        let mut count = 0;
        let mut prev = self.k;
        for &h in self.hidden.iter().chain(std::iter::once(&self.dim)) {
            count += prev * h + h;
            prev = h;
        }
        count
    }

    /// Approximate model bytes (decoder parameters + hash coefficients).
    pub fn memory_bytes(&self) -> u64 {
        self.param_count() as u64 * 4 + self.k as u64 * 16
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `k` is zero.
    pub fn validate(&self) {
        assert!(self.dim > 0, "DheConfig: dim must be positive");
        assert!(self.k > 0, "DheConfig: k must be positive");
    }
}

/// A Deep Hash Embedding generator.
///
/// `generate` hashes the feature value with `k` universal hash functions,
/// maps the bucket indices uniformly into `[-1, 1]`, and decodes through an
/// MLP with branchless [`secemb_obliv::ct_relu`] activations. Every step
/// touches the same memory for every input, so DHE is oblivious *by
/// construction* — no table exists to leak from.
#[derive(Clone, Debug)]
pub struct Dhe {
    hash: UniversalHashFamily,
    layers: Vec<Linear>,
    relus: Vec<Relu>,
    /// Bytes of weights and bias each layer reads, as the tracer reports
    /// them.
    fc_trace_lens: Vec<u32>,
    config: DheConfig,
    /// Domain size reported through [`EmbeddingGenerator::num_embeddings`];
    /// DHE itself accepts any `u64`.
    domain: u64,
}

impl Dhe {
    /// Samples a freshly initialized (untrained) DHE.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if a layer's parameter
    /// bytes do not fit the tracer's `u32` event length.
    pub fn new(config: DheConfig, rng: &mut impl Rng) -> Self {
        config.validate();
        let hash = UniversalHashFamily::new(
            config.k,
            config.buckets,
            &mut rand::rngs::StdRng::seed_from_u64(config.hash_seed),
        );
        let outs = config.hidden.iter().chain(std::iter::once(&config.dim));
        let ins = std::iter::once(&config.k).chain(&config.hidden);
        let shapes: Vec<(usize, usize)> = ins.zip(outs).map(|(&i, &o)| (i, o)).collect();
        // Before any layer is allocated: a layer too large to report is
        // too large to build in a test.
        let fc_trace_lens = (shapes.iter())
            .map(|&(i, o)| {
                u32::try_from(i.saturating_mul(o).saturating_add(o).saturating_mul(4))
                    .expect("Dhe: layer parameter bytes exceed a u32 trace length")
            })
            .collect();
        let layers: Vec<Linear> = (shapes.iter())
            .map(|&(i, o)| Linear::new(i, o, rng))
            .collect();
        let relus = vec![Relu::new(); layers.len().saturating_sub(1)];
        Dhe {
            hash,
            layers,
            relus,
            fc_trace_lens,
            config,
            domain: u64::MAX,
        }
    }

    /// Sets the nominal domain size (used only for bounds reporting; DHE
    /// can embed any id).
    pub fn with_domain(mut self, domain: u64) -> Self {
        self.domain = domain;
        self
    }

    /// The architecture.
    pub fn config(&self) -> &DheConfig {
        &self.config
    }

    /// The hash encoding of a batch, one row per index, written straight
    /// into the decoder's input.
    fn encode(&self, indices: &[u64]) -> Matrix {
        let mut x = Matrix::zeros(indices.len(), self.config.k);
        for (&idx, row) in (indices.iter()).zip(x.as_mut_slice().chunks_exact_mut(self.config.k)) {
            self.hash.encode_into(idx, row);
        }
        x
    }

    /// Encoder + decoder inference by shared reference (thread-safe, no
    /// training caches), with branchless activations.
    pub fn infer(&self, indices: &[u64]) -> Matrix {
        let mut x = self.encode(indices);
        // Decode through the MLP; weight reads have a fixed pattern.
        let mut fc_offset = 0u64;
        for (i, (layer, &bytes)) in self.layers.iter().zip(&self.fc_trace_lens).enumerate() {
            tracer::read(regions::DHE_FC, fc_offset, bytes);
            fc_offset += bytes as u64;
            x = layer.apply(&x);
            if i + 1 < self.layers.len() {
                secemb_obliv::ct_relu_slice(x.as_mut_slice());
            }
        }
        x
    }

    /// Splits the batch across `threads` OS threads (DHE batches
    /// parallelize embarrassingly — the paper's "better batch parallelism").
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn infer_threaded(&self, indices: &[u64], threads: usize) -> Matrix {
        assert!(threads > 0, "threads must be positive");
        if threads == 1 || indices.len() <= 1 {
            return self.infer(indices);
        }
        let chunk = indices.len().div_ceil(threads);
        let chunks: Vec<&[u64]> = indices.chunks(chunk).collect();
        let results: Vec<Matrix> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|c| s.spawn(move || self.infer(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("dhe worker panicked"))
                .collect()
        });
        let mut out = Matrix::zeros(indices.len(), self.config.dim);
        let mut row = 0;
        for part in results {
            for r in 0..part.rows() {
                out.row_mut(row).copy_from_slice(part.row(r));
                row += 1;
            }
        }
        out
    }

    /// Training-mode forward: caches activations for
    /// [`Dhe::backward_indices`].
    pub fn forward_indices(&mut self, indices: &[u64]) -> Matrix {
        let mut x = self.encode(indices);
        let n = self.layers.len();
        for i in 0..n {
            x = self.layers[i].forward(&x);
            if i + 1 < n {
                x = self.relus[i].forward(&x);
            }
        }
        x
    }

    /// Back-propagates through the decoder (the hash encoder has no
    /// trainable parameters and consumes no gradient).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dhe::forward_indices`].
    pub fn backward_indices(&mut self, grad_output: &Matrix) {
        let n = self.layers.len();
        let mut g = grad_output.clone();
        for i in (0..n).rev() {
            if i + 1 < n {
                g = self.relus[i].backward(&g);
            }
            g = self.layers[i].backward(&g);
        }
    }

    /// Visits the decoder parameters (for optimizers).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    /// Clears decoder gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Materializes the DHE as a plain table over ids `0..n` — the paper's
    /// offline step that lets below-threshold features be served by linear
    /// scan from a table generated by the *trained* DHE (Algorithm 2
    /// step 2), so no retraining is needed.
    pub fn to_table(&self, n: u64) -> Matrix {
        let indices: Vec<u64> = (0..n).collect();
        self.infer(&indices)
    }
}

impl EmbeddingGenerator for Dhe {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn num_embeddings(&self) -> u64 {
        self.domain
    }

    fn generate_batch(&mut self, indices: &[u64]) -> Matrix {
        self.infer(indices)
    }

    fn generate_batch_threaded(&mut self, indices: &[u64], threads: usize) -> Matrix {
        self.infer_threaded(indices, threads)
    }

    fn technique(&self) -> Technique {
        Technique::Dhe
    }

    fn memory_bytes(&self) -> u64 {
        let params: usize = self
            .layers
            .iter()
            .map(|l| l.in_features() * l.out_features() + l.out_features())
            .sum();
        params as u64 * 4 + self.hash.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use secemb_trace::check;

    fn dhe() -> Dhe {
        Dhe::new(
            DheConfig::new(4, 16, vec![12, 8]),
            &mut StdRng::seed_from_u64(0),
        )
    }

    #[test]
    fn deterministic_outputs() {
        let mut d = dhe();
        let a = d.generate(123);
        let b = d.generate(123);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let other = d.generate(124);
        assert_ne!(a, other, "different ids should embed differently");
    }

    #[test]
    fn batch_matches_singles() {
        let mut d = dhe();
        let batch = d.generate_batch(&[5, 900, 5]);
        assert_eq!(batch.row(0), d.generate(5).as_slice());
        assert_eq!(batch.row(1), d.generate(900).as_slice());
        assert_eq!(batch.row(0), batch.row(2));
    }

    #[test]
    fn threaded_matches_single() {
        let d = dhe();
        let indices: Vec<u64> = (0..23).map(|i| i * 31).collect();
        let single = d.infer(&indices);
        for threads in [2, 3, 8] {
            assert!(single.allclose(&d.infer_threaded(&indices, threads), 0.0));
        }
    }

    #[test]
    fn rows_are_batch_and_position_invariant() {
        // The server coalesces requests into whatever batch is queued and
        // the benchmark oracle bit-compares the replies, so a row's value
        // must not depend on the batch it rode in or its position there.
        // Odd widths put every tile edge of the GEMM under the test.
        let d = Dhe::new(
            DheConfig::new(5, 19, vec![13, 7]),
            &mut StdRng::seed_from_u64(1),
        );
        let ids: Vec<u64> = (0..70u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let singles: Vec<Vec<u32>> = ids.iter().map(|&id| bits(d.infer(&[id]).row(0))).collect();
        for batch in 1..=ids.len() {
            let out = d.infer(&ids[..batch]);
            for (r, single) in singles[..batch].iter().enumerate() {
                assert_eq!(&bits(out.row(r)), single, "batch {batch} row {r}");
            }
        }
    }

    #[test]
    fn trace_is_input_independent() {
        let mut d = dhe();
        let v = check::compare_traces(&[0u64, 123456789], |&idx| {
            d.generate_batch(&[idx]);
        });
        assert!(v.is_oblivious(), "DHE must be oblivious by construction");
    }

    #[test]
    fn training_reduces_loss_toward_target_table() {
        // DHE can be fitted to reproduce a small table: the basis of the
        // paper's accuracy-parity claims (Table V).
        let mut rng = StdRng::seed_from_u64(3);
        let target = Matrix::from_fn(16, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        let mut d = Dhe::new(DheConfig::new(4, 32, vec![32]), &mut rng);
        let indices: Vec<u64> = (0..16).collect();
        let mut opt = secemb_nn::Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let pred = d.forward_indices(&indices);
            let (loss, grad) = secemb_nn::mse_loss(&pred, &target);
            d.zero_grad();
            d.backward_indices(&grad);
            // Adapter: Dhe is not a Module, so step via a shim.
            struct Shim<'a>(&'a mut Dhe);
            impl Module for Shim<'_> {
                fn forward(&mut self, x: &Matrix) -> Matrix {
                    x.clone()
                }
                fn backward(&mut self, g: &Matrix) -> Matrix {
                    g.clone()
                }
                fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
                    self.0.visit_params(f);
                }
            }
            secemb_nn::Optimizer::step(&mut opt, &mut Shim(&mut d));
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.2,
            "training failed: {} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    fn to_table_matches_inference() {
        let d = dhe();
        let t = d.to_table(10);
        assert_eq!(t.shape(), (10, 4));
        assert_eq!(t.row(7), d.infer(&[7]).row(0));
    }

    #[test]
    #[should_panic(expected = "exceed a u32 trace length")]
    fn layer_bytes_beyond_a_trace_length_are_rejected() {
        // 32768 x 32768 weights are 4 GiB: `((in * out + out) * 4) as u32`
        // wrapped to 131072. Rejected before the layer is allocated.
        Dhe::new(
            DheConfig::new(4, 1 << 15, vec![1 << 15]),
            &mut StdRng::seed_from_u64(0),
        );
    }

    #[test]
    fn varied_scales_down_with_table_size() {
        let big = DheConfig::varied(64, 10_000_000);
        let mid = DheConfig::varied(64, 1_000_000);
        let tiny = DheConfig::varied(64, 100);
        assert_eq!(big.k, 1024, "1e7 rows keeps the uniform size");
        assert_eq!(mid.k, 128, "one decade down scales 0.125x");
        assert!(tiny.k >= 16, "floor must hold");
        assert!(big.param_count() > mid.param_count());
        assert!(mid.param_count() > tiny.param_count());
    }

    #[test]
    fn uniform_matches_table_iv() {
        let c = DheConfig::uniform(16);
        assert_eq!(c.k, 1024);
        assert_eq!(c.hidden, vec![512, 256]);
        assert_eq!(c.buckets, 1_000_000);
    }

    #[test]
    fn memory_matches_config_estimate() {
        let d = dhe();
        assert_eq!(d.memory_bytes(), d.config().memory_bytes());
    }
}
