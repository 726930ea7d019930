//! Carter–Wegman universal hashing (DHE's encoder, Algorithm 1 step 1–2).

use rand::Rng;
use secemb_obliv::cmp;
use secemb_trace::tracer::{self, regions};

/// The Mersenne prime 2^61 − 1, used as the modulus `p` of every hash
/// function (comfortably above the paper's bucket count `m = 10^6`).
pub const HASH_PRIME: u64 = (1 << 61) - 1;

/// A family of `k` universal hash functions
/// `h_i(x) = ((a_i · x + b_i) mod p) mod m`, plus the uniform transform of
/// the bucket indices into `[-1, 1]` that feeds the DHE decoder.
///
/// The computation touches the same coefficients in the same order for any
/// input `x` — the property that makes DHE's access pattern secret-
/// independent.
#[derive(Clone, Debug)]
pub struct UniversalHashFamily {
    a: Vec<u64>,
    b: Vec<u64>,
    m: u64,
    /// Bytes of coefficients one encoding reads, as the tracer reports it.
    trace_len: u32,
}

impl UniversalHashFamily {
    /// Samples `k` functions with bucket count `m`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, if `m < 2`, or if the `16·k` coefficient bytes
    /// do not fit the tracer's `u32` event length.
    pub fn new(k: usize, m: u64, rng: &mut impl Rng) -> Self {
        assert!(k > 0, "UniversalHashFamily: k must be positive");
        assert!(m >= 2, "UniversalHashFamily: need at least 2 buckets");
        let trace_len = u32::try_from(k.saturating_mul(16))
            .expect("UniversalHashFamily: coefficient bytes exceed a u32 trace length");
        UniversalHashFamily {
            a: (0..k).map(|_| rng.gen_range(1..HASH_PRIME)).collect(),
            b: (0..k).map(|_| rng.gen_range(0..HASH_PRIME)).collect(),
            m,
            trace_len,
        }
    }

    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.a.len()
    }

    /// Bucket count `m`.
    pub fn buckets(&self) -> u64 {
        self.m
    }

    /// The `i`-th hash of `x`, in `[0, m)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        mod_prime(self.a[i] as u128 * x as u128 + self.b[i] as u128) % self.m
    }

    /// Encodes `x` into `k` real values in `[-1, 1]` (Algorithm 1 steps
    /// 1–2), written to `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != k`.
    pub fn encode_into(&self, x: u64, out: &mut [f32]) {
        assert_eq!(out.len(), self.k(), "encode_into: out length != k");
        tracer::read(regions::DHE_HASH, 0, self.trace_len);
        let denom = (self.m - 1) as f32;
        for (i, o) in out.iter_mut().enumerate() {
            let y = self.hash(i, x) as f32;
            *o = 2.0 * y / denom - 1.0;
        }
    }

    /// Encodes `x` into a fresh vector.
    pub fn encode(&self, x: u64) -> Vec<f32> {
        let mut out = vec![0.0; self.k()];
        self.encode_into(x, &mut out);
        out
    }

    /// Bytes of coefficient storage.
    pub fn memory_bytes(&self) -> u64 {
        (self.a.len() + self.b.len()) as u64 * 8
    }
}

/// `v mod p` for `p` = [`HASH_PRIME`] and `v < 2^125` (any `a·x + b` with
/// `a, b < p`). Since `2^61 ≡ 1 (mod p)` the bits above the low 61 fold
/// onto them by addition: no `u128 %`, which is a library call whose loop
/// count follows the secret `x`, and no branch.
fn mod_prime(v: u128) -> u64 {
    const P: u128 = HASH_PRIME as u128;
    let s = (v >> 61) + (v & P); // < 2^64 + 2^61
    let s = ((s >> 61) + (s & P)) as u64; // <= p + 8
    s - (cmp::ge_u64(s, HASH_PRIME).mask() & HASH_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn family(k: usize) -> UniversalHashFamily {
        UniversalHashFamily::new(k, 1_000_000, &mut StdRng::seed_from_u64(42))
    }

    #[test]
    fn deterministic_and_in_range() {
        let f = family(8);
        for x in [0u64, 1, 999_999_937, u64::MAX / 3] {
            for i in 0..8 {
                let h = f.hash(i, x);
                assert!(h < 1_000_000);
                assert_eq!(h, f.hash(i, x), "hashing must be deterministic");
            }
        }
    }

    #[test]
    fn hash_matches_the_u128_remainder() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut f = UniversalHashFamily::new(1, 1_000_000, &mut rng);
        for case in 0..100_000u32 {
            // Every fourth case the largest coefficients, every third the
            // largest input; otherwise uniform, `x` over every bit length.
            (f.a[0], f.b[0]) = match case % 4 {
                0 => (HASH_PRIME - 1, HASH_PRIME - 1),
                _ => (rng.gen_range(1..HASH_PRIME), rng.gen_range(0..HASH_PRIME)),
            };
            let x = match case % 3 {
                0 => u64::MAX,
                _ => rng.gen::<u64>() >> (case % 64),
            };
            let t = (f.a[0] as u128 * x as u128 + f.b[0] as u128) % HASH_PRIME as u128;
            assert_eq!(f.hash(0, x), (t % f.m as u128) as u64, "case {case}");
        }
        // Where the folds carry and where the final subtraction switches.
        let p = HASH_PRIME as u128;
        for v in [
            0,
            1,
            p - 1,
            p,
            p + 1,
            2 * p,
            (1 << 64) - 1,
            1 << 64,
            (1 << 125) - 1,
        ] {
            assert_eq!(mod_prime(v) as u128, v % p, "v = {v}");
        }
    }

    #[test]
    fn different_functions_differ() {
        let f = family(16);
        let hashes: Vec<u64> = (0..16).map(|i| f.hash(i, 12345)).collect();
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert!(distinct.len() > 8, "functions should mostly disagree");
    }

    #[test]
    fn encoding_is_bounded() {
        let f = family(32);
        let enc = f.encode(777);
        assert_eq!(enc.len(), 32);
        assert!(enc.iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn buckets_roughly_uniform() {
        // One function, many inputs: occupancy of m=10 buckets is balanced.
        let f = UniversalHashFamily::new(1, 10, &mut StdRng::seed_from_u64(7));
        let mut counts = [0u32; 10];
        for x in 0..10_000u64 {
            counts[f.hash(0, x) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn trace_is_input_independent() {
        let f = family(4);
        let v = secemb_trace::check::compare_traces(&[0u64, u64::MAX / 7], |&x| {
            f.encode(x);
        });
        assert!(v.is_oblivious());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        family(0);
    }

    #[test]
    #[should_panic(expected = "exceed a u32 trace length")]
    fn coefficient_bytes_beyond_a_trace_length_are_rejected() {
        // 2^28 functions are 4 GiB of coefficients: `(k * 16) as u32` was 0.
        // Rejected before anything that size is allocated.
        family(1 << 28);
    }
}
