//! Shared benchmark infrastructure: the [`Benchmark`] trait, verification
//! helpers and error type.

use std::fmt;

use gpusimpow_sim::{Gpu, LaunchReport, SimError};

/// Where a benchmark originates (Table I of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The Rodinia heterogeneous-computing suite.
    Rodinia,
    /// The NVIDIA CUDA SDK samples.
    CudaSdk,
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Rodinia => write!(f, "Rodinia"),
            Origin::CudaSdk => write!(f, "CUDA SDK"),
        }
    }
}

/// Errors from running a benchmark.
#[derive(Debug)]
pub enum BenchError {
    /// The simulator rejected or aborted a launch.
    Sim(SimError),
    /// GPU results disagreed with the CPU reference.
    Verification {
        /// Benchmark name.
        benchmark: &'static str,
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Sim(e) => write!(f, "{e}"),
            BenchError::Verification { benchmark, detail } => {
                write!(f, "{benchmark} failed verification: {detail}")
            }
        }
    }
}

impl std::error::Error for BenchError {}

impl From<SimError> for BenchError {
    fn from(e: SimError) -> Self {
        BenchError::Sim(e)
    }
}

/// A runnable, self-verifying GPGPU benchmark.
///
/// `run` performs the complete host program: input generation (seeded,
/// deterministic), device allocation and copies, kernel launches, and
/// verification against a CPU reference. It returns one [`LaunchReport`]
/// per kernel *invocation* (a kernel may run several times, e.g. the BFS
/// frontier loop); reports carry the kernel name for aggregation.
pub trait Benchmark {
    /// Benchmark name as in Table I (e.g. `"backprop"`).
    fn name(&self) -> &'static str;

    /// Origin suite.
    fn origin(&self) -> Origin;

    /// One-line description (Table I).
    fn description(&self) -> &'static str;

    /// Distinct kernel names, in Fig. 6 bar order (e.g.
    /// `["backprop1", "backprop2"]`).
    fn kernel_names(&self) -> Vec<String>;

    /// Runs the benchmark on `gpu`, verifying results.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Sim`] on simulator failures and
    /// [`BenchError::Verification`] when the GPU output mismatches the
    /// CPU reference.
    fn run(&self, gpu: &mut Gpu) -> Result<Vec<LaunchReport>, BenchError>;
}

/// Verifies two f32 slices agree within a relative-plus-absolute bound.
///
/// # Errors
///
/// Returns a description of the first mismatch.
#[allow(
    clippy::neg_cmp_op_on_partial_ord,
    reason = "`!(err <= bound)` catches NaN"
)]
pub fn check_f32(
    benchmark: &'static str,
    got: &[f32],
    want: &[f32],
    tol: f32,
) -> Result<(), BenchError> {
    if got.len() != want.len() {
        return Err(BenchError::Verification {
            benchmark,
            detail: format!("length mismatch: {} vs {}", got.len(), want.len()),
        });
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let err = (g - w).abs();
        let bound = tol * (1.0 + w.abs());
        if !(err <= bound) {
            return Err(BenchError::Verification {
                benchmark,
                detail: format!("element {i}: got {g}, want {w} (|err| {err} > {bound})"),
            });
        }
    }
    Ok(())
}

/// Verifies two u32 slices agree exactly.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn check_u32(benchmark: &'static str, got: &[u32], want: &[u32]) -> Result<(), BenchError> {
    if got.len() != want.len() {
        return Err(BenchError::Verification {
            benchmark,
            detail: format!("length mismatch: {} vs {}", got.len(), want.len()),
        });
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(BenchError::Verification {
                benchmark,
                detail: format!("element {i}: got {g}, want {w}"),
            });
        }
    }
    Ok(())
}

/// A tiny deterministic xorshift generator for input data, independent of
/// external crates so kernels and tests agree byte-for-byte.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (zero is mapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Next u32 below `bound`.
    pub fn next_below(&mut self, bound: u32) -> u32 {
        (self.next_u64() % bound as u64) as u32
    }

    /// Next f32 uniform in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Next f32 uniform in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.next_f32() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_f32_accepts_close_and_rejects_far() {
        assert!(check_f32("t", &[1.0, 2.0], &[1.0, 2.0000001], 1e-4).is_ok());
        assert!(check_f32("t", &[1.0], &[2.0], 1e-4).is_err());
        assert!(check_f32("t", &[1.0], &[1.0, 2.0], 1e-4).is_err());
    }

    #[test]
    fn check_f32_rejects_nan() {
        assert!(check_f32("t", &[f32::NAN], &[1.0], 1e-3).is_err());
    }

    #[test]
    fn check_u32_exact() {
        assert!(check_u32("t", &[1, 2, 3], &[1, 2, 3]).is_ok());
        assert!(check_u32("t", &[1, 2, 3], &[1, 2, 4]).is_err());
    }

    #[test]
    fn xorshift_is_deterministic_and_in_range() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            let x = a.next_f32();
            assert_eq!(x, b.next_f32());
            assert!((0.0..1.0).contains(&x));
        }
        let mut c = XorShift::new(7);
        for _ in 0..100 {
            assert!(c.next_below(10) < 10);
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = XorShift::new(0);
        assert_ne!(z.next_u64(), 0);
    }
}
