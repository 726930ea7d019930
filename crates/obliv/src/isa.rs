//! The instruction-set levels the workspace's hot kernels are compiled for.
//!
//! A kernel is written once as a safe `#[inline(always)]` body and
//! instantiated once per [`Isa`] level behind a `#[target_feature]`
//! wrapper; [`Isa::available`] is the one place that asks the CPU which
//! of those instantiations it may run. [`crate::scan`] and
//! `secemb_tensor`'s GEMM both dispatch through it.

/// An instruction-set level a kernel is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Whatever the crate's target guarantees (SSE2 on x86-64).
    Baseline,
    /// 256-bit vectors, sixteen registers.
    Avx2,
    /// AVX-512 F + VL: 512-bit vectors, and thirty-two registers at every
    /// width. (Knights Landing has F without VL and runs as [`Isa::Avx2`].)
    Avx512f,
}

impl Isa {
    /// Every level, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512f];

    /// Whether the running CPU executes code compiled for this level. A
    /// `#[target_feature]` instantiation may be called only after this
    /// returned `true` for its level: the wrappers enable `avx2` for
    /// [`Isa::Avx2`] and `avx512f` (optionally with `avx512vl`) for
    /// [`Isa::Avx512f`], exactly the features tested here.
    pub fn available(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => {
                std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512f => false,
        }
    }

    /// The widest level this CPU runs.
    pub fn best() -> Isa {
        (Isa::ALL.into_iter().rev())
            .find(|isa| isa.available())
            .expect("the baseline level runs everywhere")
    }
}
