//! Functional (value-level) semantics of the ISA.
//!
//! The simulator executes instructions functionally at issue time and
//! models timing separately; these pure helpers define the arithmetic.

use gpusimpow_isa::{CmpOp, FpOp, IntOp, SfuOp};

/// Evaluates a two-source integer operation.
pub fn eval_int(op: IntOp, a: u32, b: u32) -> u32 {
    match op {
        IntOp::Add => a.wrapping_add(b),
        IntOp::Sub => a.wrapping_sub(b),
        IntOp::Mul => a.wrapping_mul(b),
        IntOp::Min => (a as i32).min(b as i32) as u32,
        IntOp::Max => (a as i32).max(b as i32) as u32,
        IntOp::And => a & b,
        IntOp::Or => a | b,
        IntOp::Xor => a ^ b,
        IntOp::Shl => a.wrapping_shl(b),
        IntOp::Shr => a.wrapping_shr(b),
        IntOp::Sra => ((a as i32).wrapping_shr(b)) as u32,
    }
}

/// The single quiet NaN all FP results are canonicalized to, like real
/// GPU hardware.
///
/// IEEE 754 leaves NaN payload propagation implementation-defined and
/// LLVM freely commutes `fadd`/`fmul` operands, so without this the bits
/// of `NaN op NaN` would depend on which code path (scalar call vs
/// autovectorised row loop) the optimiser happened to emit.
pub const CANONICAL_NAN: u32 = 0x7FC0_0000;

#[inline]
fn canonical_bits(r: f32) -> u32 {
    if r.is_nan() {
        CANONICAL_NAN
    } else {
        r.to_bits()
    }
}

/// Evaluates a two-source floating-point operation on f32 bit patterns.
pub fn eval_fp(op: FpOp, a: u32, b: u32) -> u32 {
    let (x, y) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FpOp::Add => x + y,
        FpOp::Sub => x - y,
        FpOp::Mul => x * y,
        FpOp::Min => x.min(y),
        FpOp::Max => x.max(y),
    };
    canonical_bits(r)
}

/// Evaluates a fused multiply-add on f32 bit patterns.
pub fn eval_ffma(a: u32, b: u32, c: u32) -> u32 {
    canonical_bits(f32::from_bits(a).mul_add(f32::from_bits(b), f32::from_bits(c)))
}

/// Evaluates an integer multiply-add.
pub fn eval_imad(a: u32, b: u32, c: u32) -> u32 {
    a.wrapping_mul(b).wrapping_add(c)
}

/// Evaluates a special-function operation on an f32 bit pattern.
///
/// Real SFUs use quadratic interpolation with ~22 good mantissa bits; the
/// difference is irrelevant to power/performance, so we use full-precision
/// host math.
pub fn eval_sfu(op: SfuOp, a: u32) -> u32 {
    let x = f32::from_bits(a);
    let r = match op {
        SfuOp::Rcp => 1.0 / x,
        SfuOp::Sqrt => x.sqrt(),
        SfuOp::Rsqrt => 1.0 / x.sqrt(),
        SfuOp::Sin => x.sin(),
        SfuOp::Cos => x.cos(),
        SfuOp::Ex2 => x.exp2(),
        SfuOp::Lg2 => x.log2(),
    };
    canonical_bits(r)
}

/// Evaluates a signed integer comparison to 0/1.
pub fn eval_icmp(op: CmpOp, a: u32, b: u32) -> u32 {
    let (x, y) = (a as i32, b as i32);
    let r = match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    };
    r as u32
}

/// Evaluates an f32 comparison to 0/1 (false on NaN except `Ne`).
pub fn eval_fcmp(op: CmpOp, a: u32, b: u32) -> u32 {
    let (x, y) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    };
    r as u32
}

/// Signed int → f32.
pub fn eval_i2f(a: u32) -> u32 {
    (a as i32 as f32).to_bits()
}

/// f32 → signed int, truncating, saturating at the i32 range.
pub fn eval_f2i(a: u32) -> u32 {
    let x = f32::from_bits(a);
    if x.is_nan() {
        0
    } else {
        (x as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32 as u32
    }
}

// --- lane-array (SoA) variants ----------------------------------------------
//
// Dense structure-of-arrays forms of the scalar helpers above: each takes
// contiguous per-lane input rows and fills one output row, with the opcode
// dispatch hoisted out of the loop so every arm monomorphises into a tight
// loop over equal-length slices the compiler can autovectorise. Callers
// evaluate *every* lane of the warp — including inactive ones, whose rows
// may hold stale register values — and discard the dead results with a
// masked scatter; that is sound because every operation here is total
// (wrapping integer math, IEEE f32 arithmetic, saturating conversions).
// Each arm applies the matching scalar helper with a constant opcode, so
// per-lane bit-identity with the scalar path holds by construction.

#[inline]
fn map1(a: &[u32], out: &mut [u32], f: impl Fn(u32) -> u32) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

#[inline]
fn map2(a: &[u32], b: &[u32], out: &mut [u32], f: impl Fn(u32, u32) -> u32) {
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = f(x, y);
    }
}

#[inline]
fn map3(a: &[u32], b: &[u32], c: &[u32], out: &mut [u32], f: impl Fn(u32, u32, u32) -> u32) {
    for (o, ((&x, &y), &z)) in out.iter_mut().zip(a.iter().zip(b).zip(c)) {
        *o = f(x, y, z);
    }
}

/// Row form of [`eval_int`].
pub fn eval_int_lanes(op: IntOp, a: &[u32], b: &[u32], out: &mut [u32]) {
    match op {
        IntOp::Add => map2(a, b, out, |x, y| eval_int(IntOp::Add, x, y)),
        IntOp::Sub => map2(a, b, out, |x, y| eval_int(IntOp::Sub, x, y)),
        IntOp::Mul => map2(a, b, out, |x, y| eval_int(IntOp::Mul, x, y)),
        IntOp::Min => map2(a, b, out, |x, y| eval_int(IntOp::Min, x, y)),
        IntOp::Max => map2(a, b, out, |x, y| eval_int(IntOp::Max, x, y)),
        IntOp::And => map2(a, b, out, |x, y| eval_int(IntOp::And, x, y)),
        IntOp::Or => map2(a, b, out, |x, y| eval_int(IntOp::Or, x, y)),
        IntOp::Xor => map2(a, b, out, |x, y| eval_int(IntOp::Xor, x, y)),
        IntOp::Shl => map2(a, b, out, |x, y| eval_int(IntOp::Shl, x, y)),
        IntOp::Shr => map2(a, b, out, |x, y| eval_int(IntOp::Shr, x, y)),
        IntOp::Sra => map2(a, b, out, |x, y| eval_int(IntOp::Sra, x, y)),
    }
}

/// Row form of [`eval_fp`].
pub fn eval_fp_lanes(op: FpOp, a: &[u32], b: &[u32], out: &mut [u32]) {
    match op {
        FpOp::Add => map2(a, b, out, |x, y| eval_fp(FpOp::Add, x, y)),
        FpOp::Sub => map2(a, b, out, |x, y| eval_fp(FpOp::Sub, x, y)),
        FpOp::Mul => map2(a, b, out, |x, y| eval_fp(FpOp::Mul, x, y)),
        FpOp::Min => map2(a, b, out, |x, y| eval_fp(FpOp::Min, x, y)),
        FpOp::Max => map2(a, b, out, |x, y| eval_fp(FpOp::Max, x, y)),
    }
}

/// Row form of [`eval_ffma`].
///
/// On x86-64 hosts with AVX+FMA this dispatches to a `vfmadd`-based
/// row kernel: IEEE 754-2008 specifies `fusedMultiplyAdd` exactly (one
/// rounding of the infinitely precise `a*b + c`), so the hardware
/// instruction and the scalar `f32::mul_add` (libm `fmaf`) agree bit
/// for bit on every non-NaN result, and both paths canonicalize NaN
/// outputs to [`CANONICAL_NAN`]. The scalar fallback keeps other hosts
/// working unchanged. This matters because `f32::mul_add` compiles to
/// a per-lane libm call on baseline x86-64 — the single most expensive
/// operation in the warp hot path before this dispatch existed.
pub fn eval_ffma_lanes(a: &[u32], b: &[u32], c: &[u32], out: &mut [u32]) {
    #[cfg(target_arch = "x86_64")]
    if fma_x86::supported() {
        #[allow(
            unsafe_code,
            reason = "calls the AVX+FMA row kernel after the runtime probe"
        )]
        // SAFETY: `supported()` confirmed the avx and fma target
        // features at runtime on this CPU.
        unsafe {
            fma_x86::ffma_rows(a, b, c, out)
        };
        return;
    }
    map3(a, b, c, out, eval_ffma);
}

/// Hardware fused-multiply-add row kernel (x86-64, AVX+FMA).
#[cfg(target_arch = "x86_64")]
#[allow(
    unsafe_code,
    reason = "the AVX+FMA row kernel is unsafe to call, and its 8-lane loads take raw pointers"
)]
mod fma_x86 {
    use super::{eval_ffma, CANONICAL_NAN};
    use std::arch::x86_64::*;
    use std::sync::atomic::Ordering;

    /// Cached runtime feature probe: 0 = unknown, 1 = no, 2 = yes.
    #[allow(
        clippy::disallowed_types,
        reason = "write-once monotone probe: every thread computes the same answer from the \
                  same CPU, so racing ticks can only agree; no simulated state flows through it"
    )]
    static HW: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

    /// Whether this CPU executes the AVX+FMA row kernel.
    #[inline]
    pub fn supported() -> bool {
        match HW.load(Ordering::Relaxed) {
            0 => {
                let yes = is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma");
                HW.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
                yes
            }
            v => v == 2,
        }
    }

    /// `out[i] = canonicalize(fma(a[i], b[i], c[i]))` for equal-length
    /// rows, eight lanes per `vfmadd231ps`. NaN canonicalization is a
    /// branch-free unordered self-compare + blend, matching the scalar
    /// `canonical_bits` per lane.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX and FMA — call only after
    /// [`supported`] returned `true`.
    // SAFETY: contract above; `eval_ffma_lanes` is the only caller.
    #[target_feature(enable = "avx,fma")]
    pub unsafe fn ffma_rows(a: &[u32], b: &[u32], c: &[u32], out: &mut [u32]) {
        let n = out.len().min(a.len()).min(b.len()).min(c.len());
        let canon = _mm256_castsi256_ps(_mm256_set1_epi32(CANONICAL_NAN as i32));
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` bounds every 8-lane unaligned load
            // and store within the four slices.
            unsafe {
                let va = _mm256_loadu_ps(a.as_ptr().add(i).cast());
                let vb = _mm256_loadu_ps(b.as_ptr().add(i).cast());
                let vc = _mm256_loadu_ps(c.as_ptr().add(i).cast());
                let r = _mm256_fmadd_ps(va, vb, vc);
                let is_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(r, r);
                let res = _mm256_blendv_ps(r, canon, is_nan);
                _mm256_storeu_ps(out.as_mut_ptr().add(i).cast(), res);
            }
            i += 8;
        }
        for k in i..n {
            out[k] = eval_ffma(a[k], b[k], c[k]);
        }
    }
}

/// Row form of [`eval_imad`].
pub fn eval_imad_lanes(a: &[u32], b: &[u32], c: &[u32], out: &mut [u32]) {
    map3(a, b, c, out, eval_imad);
}

/// Row form of [`eval_sfu`].
pub fn eval_sfu_lanes(op: SfuOp, a: &[u32], out: &mut [u32]) {
    match op {
        SfuOp::Rcp => map1(a, out, |x| eval_sfu(SfuOp::Rcp, x)),
        SfuOp::Sqrt => map1(a, out, |x| eval_sfu(SfuOp::Sqrt, x)),
        SfuOp::Rsqrt => map1(a, out, |x| eval_sfu(SfuOp::Rsqrt, x)),
        SfuOp::Sin => map1(a, out, |x| eval_sfu(SfuOp::Sin, x)),
        SfuOp::Cos => map1(a, out, |x| eval_sfu(SfuOp::Cos, x)),
        SfuOp::Ex2 => map1(a, out, |x| eval_sfu(SfuOp::Ex2, x)),
        SfuOp::Lg2 => map1(a, out, |x| eval_sfu(SfuOp::Lg2, x)),
    }
}

/// Row form of [`eval_icmp`].
pub fn eval_icmp_lanes(op: CmpOp, a: &[u32], b: &[u32], out: &mut [u32]) {
    match op {
        CmpOp::Eq => map2(a, b, out, |x, y| eval_icmp(CmpOp::Eq, x, y)),
        CmpOp::Ne => map2(a, b, out, |x, y| eval_icmp(CmpOp::Ne, x, y)),
        CmpOp::Lt => map2(a, b, out, |x, y| eval_icmp(CmpOp::Lt, x, y)),
        CmpOp::Le => map2(a, b, out, |x, y| eval_icmp(CmpOp::Le, x, y)),
        CmpOp::Gt => map2(a, b, out, |x, y| eval_icmp(CmpOp::Gt, x, y)),
        CmpOp::Ge => map2(a, b, out, |x, y| eval_icmp(CmpOp::Ge, x, y)),
    }
}

/// Row form of [`eval_fcmp`].
pub fn eval_fcmp_lanes(op: CmpOp, a: &[u32], b: &[u32], out: &mut [u32]) {
    match op {
        CmpOp::Eq => map2(a, b, out, |x, y| eval_fcmp(CmpOp::Eq, x, y)),
        CmpOp::Ne => map2(a, b, out, |x, y| eval_fcmp(CmpOp::Ne, x, y)),
        CmpOp::Lt => map2(a, b, out, |x, y| eval_fcmp(CmpOp::Lt, x, y)),
        CmpOp::Le => map2(a, b, out, |x, y| eval_fcmp(CmpOp::Le, x, y)),
        CmpOp::Gt => map2(a, b, out, |x, y| eval_fcmp(CmpOp::Gt, x, y)),
        CmpOp::Ge => map2(a, b, out, |x, y| eval_fcmp(CmpOp::Ge, x, y)),
    }
}

/// Row form of [`eval_i2f`].
pub fn eval_i2f_lanes(a: &[u32], out: &mut [u32]) {
    map1(a, out, eval_i2f);
}

/// Row form of [`eval_f2i`].
pub fn eval_f2i_lanes(a: &[u32], out: &mut [u32]) {
    map1(a, out, eval_f2i);
}

/// Row select: `out[i] = if cond[i] != 0 { a[i] } else { b[i] }`.
pub fn eval_sel_lanes(cond: &[u32], a: &[u32], b: &[u32], out: &mut [u32]) {
    map3(cond, a, b, out, |c, x, y| if c != 0 { x } else { y });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ops_wrap() {
        assert_eq!(eval_int(IntOp::Add, u32::MAX, 1), 0);
        assert_eq!(eval_int(IntOp::Sub, 0, 1), u32::MAX);
        assert_eq!(eval_int(IntOp::Mul, 1 << 31, 2), 0);
    }

    #[test]
    fn signed_min_max() {
        let neg1 = (-1i32) as u32;
        assert_eq!(eval_int(IntOp::Min, neg1, 5), neg1);
        assert_eq!(eval_int(IntOp::Max, neg1, 5), 5);
    }

    #[test]
    fn shifts() {
        assert_eq!(eval_int(IntOp::Shl, 1, 4), 16);
        assert_eq!(eval_int(IntOp::Shr, 0x8000_0000, 31), 1);
        assert_eq!(eval_int(IntOp::Sra, 0x8000_0000, 31), u32::MAX);
    }

    #[test]
    fn fp_arithmetic() {
        let two = 2.0f32.to_bits();
        let three = 3.0f32.to_bits();
        assert_eq!(f32::from_bits(eval_fp(FpOp::Mul, two, three)), 6.0);
        assert_eq!(f32::from_bits(eval_ffma(two, three, two)), 8.0);
    }

    #[test]
    fn imad() {
        assert_eq!(eval_imad(3, 4, 5), 17);
    }

    #[test]
    fn sfu_functions() {
        let four = 4.0f32.to_bits();
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Sqrt, four)), 2.0);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rcp, four)), 0.25);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rsqrt, four)), 0.5);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Ex2, 3.0f32.to_bits())), 8.0);
        let s = f32::from_bits(eval_sfu(SfuOp::Sin, 0.5f32.to_bits()));
        assert!((s - 0.5f32.sin()).abs() < 1e-6);
    }

    #[test]
    fn comparisons_are_signed() {
        let neg1 = (-1i32) as u32;
        assert_eq!(eval_icmp(CmpOp::Lt, neg1, 0), 1);
        assert_eq!(eval_icmp(CmpOp::Gt, neg1, 0), 0);
        assert_eq!(eval_fcmp(CmpOp::Le, 1.0f32.to_bits(), 1.0f32.to_bits()), 1);
    }

    #[test]
    fn nan_compares_false_except_ne() {
        let nan = f32::NAN.to_bits();
        assert_eq!(eval_fcmp(CmpOp::Eq, nan, nan), 0);
        assert_eq!(eval_fcmp(CmpOp::Lt, nan, 0), 0);
        assert_eq!(eval_fcmp(CmpOp::Ne, nan, nan), 1);
    }

    #[test]
    fn nan_results_are_canonical() {
        let nan1 = 0xFFFF_FFFFu32;
        let nan2 = 0x7FFF_FFFFu32;
        assert_eq!(eval_fp(FpOp::Add, nan1, nan2), CANONICAL_NAN);
        assert_eq!(eval_fp(FpOp::Add, nan2, nan1), CANONICAL_NAN);
        assert_eq!(eval_fp(FpOp::Min, nan1, nan2), CANONICAL_NAN);
        assert_eq!(eval_ffma(nan1, nan2, 0), CANONICAL_NAN);
        assert_eq!(eval_sfu(SfuOp::Lg2, (-2.0f32).to_bits()), CANONICAL_NAN);
    }

    #[test]
    fn conversions() {
        assert_eq!(f32::from_bits(eval_i2f((-7i32) as u32)), -7.0);
        assert_eq!(eval_f2i((-7.9f32).to_bits()) as i32, -7);
        assert_eq!(eval_f2i(f32::NAN.to_bits()), 0);
        assert_eq!(eval_f2i(1e20f32.to_bits()) as i32, i32::MAX);
    }

    /// Bit patterns that stress every edge of the scalar helpers:
    /// wrap-around, signedness flips, NaN payloads of both signs
    /// (`i32::MAX`, `u32::MAX`), ±0, ±inf and subnormals.
    const SPECIALS: [u32; 16] = [
        0,
        1,
        2,
        31,
        32,
        u32::MAX,
        i32::MAX as u32,
        i32::MIN as u32,
        1.0f32.to_bits(),
        (-1.0f32).to_bits(),
        f32::NAN.to_bits(),
        f32::INFINITY.to_bits(),
        f32::NEG_INFINITY.to_bits(),
        f32::MIN_POSITIVE.to_bits() >> 1, // denormal
        0.5f32.to_bits(),
        1e20f32.to_bits(),
    ];

    /// A xorshift64 bit stream.
    fn xorshift(mut x: u64) -> impl FnMut() -> u32 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        }
    }

    /// 64-lane rows of [`SPECIALS`] and random bits.
    fn edge_rows() -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut next = xorshift(0x1234_5678);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        for i in 0..64 {
            a.push(SPECIALS[i % SPECIALS.len()]);
            b.push(SPECIALS[(i * 7 + 3) % SPECIALS.len()]);
            c.push(next());
        }
        (a, b, c)
    }

    /// [`eval_ffma_lanes`] against per-lane [`eval_ffma`] at every row
    /// length from 0 to 20 and a few longer ones, so the AVX+FMA row
    /// kernel's 8-lane body, its `i + 8 <= n` bound and its scalar tail
    /// all run. Lanes mix xorshift bit patterns, [`SPECIALS`], and
    /// addends that cancel the rounded product, where a fused and an
    /// unfused multiply-add differ.
    #[test]
    fn ffma_rows_match_scalar_at_every_length() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for n in (0..=20).chain([31, 64, 67, 100]) {
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..n {
                let cancel = next().is_multiple_of(4);
                let mut pick = || match next() % 4 {
                    0 => SPECIALS[next() as usize % SPECIALS.len()],
                    _ => next(),
                };
                let (x, y) = (pick(), pick());
                let z = if cancel {
                    (-(f32::from_bits(x) * f32::from_bits(y))).to_bits()
                } else {
                    pick()
                };
                a.push(x);
                b.push(y);
                c.push(z);
            }
            let mut out = vec![0xDEAD_BEEF; n];
            eval_ffma_lanes(&a, &b, &c, &mut out);
            for i in 0..n {
                assert_eq!(
                    out[i],
                    eval_ffma(a[i], b[i], c[i]),
                    "ffma row of {n}, lane {i}: {:#010x} * {:#010x} + {:#010x}",
                    a[i],
                    b[i],
                    c[i]
                );
            }
        }
    }

    #[test]
    fn lane_rows_match_scalar_helpers_bit_for_bit() {
        let (a, b, c) = edge_rows();
        let mut out = vec![0u32; 64];
        for op in [
            IntOp::Add,
            IntOp::Sub,
            IntOp::Mul,
            IntOp::Min,
            IntOp::Max,
            IntOp::And,
            IntOp::Or,
            IntOp::Xor,
            IntOp::Shl,
            IntOp::Shr,
            IntOp::Sra,
        ] {
            eval_int_lanes(op, &a, &b, &mut out);
            for i in 0..64 {
                assert_eq!(out[i], eval_int(op, a[i], b[i]), "{op:?} lane {i}");
            }
        }
        for op in [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Min, FpOp::Max] {
            eval_fp_lanes(op, &a, &b, &mut out);
            for i in 0..64 {
                assert_eq!(out[i], eval_fp(op, a[i], b[i]), "{op:?} lane {i}");
            }
        }
        for op in [
            SfuOp::Rcp,
            SfuOp::Sqrt,
            SfuOp::Rsqrt,
            SfuOp::Sin,
            SfuOp::Cos,
            SfuOp::Ex2,
            SfuOp::Lg2,
        ] {
            eval_sfu_lanes(op, &a, &mut out);
            for i in 0..64 {
                assert_eq!(out[i], eval_sfu(op, a[i]), "{op:?} lane {i}");
            }
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            eval_icmp_lanes(op, &a, &b, &mut out);
            for i in 0..64 {
                assert_eq!(out[i], eval_icmp(op, a[i], b[i]), "icmp {op:?} lane {i}");
            }
            eval_fcmp_lanes(op, &a, &b, &mut out);
            for i in 0..64 {
                assert_eq!(out[i], eval_fcmp(op, a[i], b[i]), "fcmp {op:?} lane {i}");
            }
        }
        eval_ffma_lanes(&a, &b, &c, &mut out);
        for i in 0..64 {
            assert_eq!(out[i], eval_ffma(a[i], b[i], c[i]), "ffma lane {i}");
        }
        eval_imad_lanes(&a, &b, &c, &mut out);
        for i in 0..64 {
            assert_eq!(out[i], eval_imad(a[i], b[i], c[i]), "imad lane {i}");
        }
        eval_i2f_lanes(&a, &mut out);
        for i in 0..64 {
            assert_eq!(out[i], eval_i2f(a[i]), "i2f lane {i}");
        }
        eval_f2i_lanes(&a, &mut out);
        for i in 0..64 {
            assert_eq!(out[i], eval_f2i(a[i]), "f2i lane {i}");
        }
        eval_sel_lanes(&a, &b, &c, &mut out);
        for i in 0..64 {
            let want = if a[i] != 0 { b[i] } else { c[i] };
            assert_eq!(out[i], want, "sel lane {i}");
        }
    }
}
