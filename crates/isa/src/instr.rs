//! Instruction set of the modelled SIMT machine.
//!
//! The real GPUSimPow consumes CUDA/OpenCL kernels through GPGPU-Sim's PTX
//! frontend. This reproduction defines a compact SIMT ISA with the same
//! *architecturally relevant* instruction classes — integer ALU, floating
//! point ALU, special-function (SFU), memory in three spaces, barriers and
//! divergent branches with explicit reconvergence PCs — because the power
//! model only distinguishes instructions at that granularity.

use std::fmt;

/// A 32-bit general-purpose register index (`r0`–`r254`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A source operand: a register or a 32-bit immediate.
///
/// Floating-point immediates are stored as their IEEE-754 bit pattern;
/// use [`Operand::imm_f32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read from a register.
    Reg(Reg),
    /// A 32-bit immediate (integer value or f32 bits).
    Imm(u32),
}

impl Operand {
    /// An integer immediate.
    pub fn imm_u32(v: u32) -> Self {
        Operand::Imm(v)
    }

    /// A signed integer immediate (stored two's-complement).
    pub fn imm_i32(v: i32) -> Self {
        Operand::Imm(v as u32)
    }

    /// A floating-point immediate (stored as IEEE-754 bits).
    pub fn imm_f32(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }

    /// The register read by this operand, if any.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

/// Two-source integer ALU operations. All arithmetic wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (modulo 32).
    Shl,
    /// Logical shift right (modulo 32).
    Shr,
    /// Arithmetic shift right (modulo 32).
    Sra,
}

/// Two-source floating-point ALU operations (f32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// IEEE minimum.
    Min,
    /// IEEE maximum.
    Max,
}

/// Single-source operations executed on the special function units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfuOp {
    /// Reciprocal `1/x`.
    Rcp,
    /// Square root.
    Sqrt,
    /// Reciprocal square root.
    Rsqrt,
    /// Sine (radians).
    Sin,
    /// Cosine (radians).
    Cos,
    /// Base-2 exponential.
    Ex2,
    /// Base-2 logarithm.
    Lg2,
}

/// Comparison predicates; the result is written as 0 or 1 to a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Memory spaces of the modelled GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Off-chip global memory (coalesced, via L1/L2/DRAM).
    Global,
    /// Per-CTA on-chip shared memory (banked).
    Shared,
    /// Read-only constant memory (broadcast-optimized, cached).
    Const,
}

/// Special (read-only) registers exposing the thread's coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Thread index within the block, x component.
    TidX,
    /// Thread index within the block, y component.
    TidY,
    /// Block index within the grid, x component.
    CtaIdX,
    /// Block index within the grid, y component.
    CtaIdY,
    /// Block dimension, x component.
    NTidX,
    /// Block dimension, y component.
    NTidY,
    /// Grid dimension, x component.
    NCtaIdX,
    /// Grid dimension, y component.
    NCtaIdY,
}

/// A program counter: an index into a kernel's instruction vector.
pub type Pc = u32;

/// One machine instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `dst = a <op> b` on the integer units.
    IAlu {
        /// Operation.
        op: IntOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Integer multiply-add `dst = a * b + c`.
    IMad {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `dst = a <op> b` on the floating-point units.
    FAlu {
        /// Operation.
        op: FpOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source.
        b: Operand,
    },
    /// Fused multiply-add `dst = a * b + c` (f32).
    FFma {
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `dst = <op>(a)` on the special-function units.
    Sfu {
        /// Operation.
        op: SfuOp,
        /// Destination register.
        dst: Reg,
        /// Source.
        a: Operand,
    },
    /// Integer comparison: `dst = (a <op> b) ? 1 : 0` (signed).
    ISetp {
        /// Predicate.
        op: CmpOp,
        /// Destination register (0/1).
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Float comparison: `dst = (a <op> b) ? 1 : 0`.
    FSetp {
        /// Predicate.
        op: CmpOp,
        /// Destination register (0/1).
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Convert signed integer to f32.
    I2F {
        /// Destination register.
        dst: Reg,
        /// Source (interpreted as i32).
        a: Operand,
    },
    /// Convert f32 to signed integer (truncating).
    F2I {
        /// Destination register.
        dst: Reg,
        /// Source (interpreted as f32).
        a: Operand,
    },
    /// Copy `src` to `dst`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Select: `dst = cond != 0 ? a : b`.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Condition register.
        cond: Reg,
        /// Value if the condition is non-zero.
        a: Operand,
        /// Value if the condition is zero.
        b: Operand,
    },
    /// Read a special register.
    S2R {
        /// Destination register.
        dst: Reg,
        /// Which special register.
        sr: SpecialReg,
    },
    /// Load: `dst = space[addr + offset]` (32-bit word).
    Ld {
        /// Memory space.
        space: MemSpace,
        /// Destination register.
        dst: Reg,
        /// Base-address register (byte address).
        addr: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Store: `space[addr + offset] = src` (32-bit word).
    St {
        /// Memory space (never [`MemSpace::Const`]).
        space: MemSpace,
        /// Source register.
        src: Reg,
        /// Base-address register (byte address).
        addr: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Conditional branch: threads with `cond != 0` (or `== 0` when
    /// `negate`) jump to `target`; `reconv` is the immediate
    /// post-dominator where diverged threads reconverge.
    Bra {
        /// Condition register.
        cond: Reg,
        /// Branch if the condition is zero instead of non-zero.
        negate: bool,
        /// Taken-path target.
        target: Pc,
        /// Reconvergence point (immediate post-dominator).
        reconv: Pc,
    },
    /// Unconditional jump.
    Jmp {
        /// Target.
        target: Pc,
    },
    /// CTA-wide barrier (`__syncthreads`).
    Bar,
    /// Terminate the thread.
    Exit,
    /// No operation.
    Nop,
}

/// Broad classes the performance and power models distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer pipeline.
    Int,
    /// Floating-point pipeline.
    Fp,
    /// Special-function pipeline.
    Sfu,
    /// Load/store pipeline.
    Mem,
    /// Branches, jumps, barriers, exit, nop.
    Control,
}

impl Instr {
    /// The execution class of this instruction.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::IAlu { .. }
            | Instr::IMad { .. }
            | Instr::ISetp { .. }
            | Instr::Mov { .. }
            | Instr::Sel { .. }
            | Instr::S2R { .. } => InstrClass::Int,
            Instr::FAlu { .. }
            | Instr::FFma { .. }
            | Instr::FSetp { .. }
            | Instr::I2F { .. }
            | Instr::F2I { .. } => InstrClass::Fp,
            Instr::Sfu { .. } => InstrClass::Sfu,
            Instr::Ld { .. } | Instr::St { .. } => InstrClass::Mem,
            Instr::Bra { .. } | Instr::Jmp { .. } | Instr::Bar | Instr::Exit | Instr::Nop => {
                InstrClass::Control
            }
        }
    }

    /// The destination register written by this instruction, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Instr::IAlu { dst, .. }
            | Instr::IMad { dst, .. }
            | Instr::FAlu { dst, .. }
            | Instr::FFma { dst, .. }
            | Instr::Sfu { dst, .. }
            | Instr::ISetp { dst, .. }
            | Instr::FSetp { dst, .. }
            | Instr::I2F { dst, .. }
            | Instr::F2I { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Sel { dst, .. }
            | Instr::S2R { dst, .. }
            | Instr::Ld { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// The registers read by this instruction (up to four).
    pub fn srcs(&self) -> Vec<Reg> {
        let mut buf = [Reg(0); 4];
        let n = self.srcs_into(&mut buf);
        buf[..n].to_vec()
    }

    /// Writes the registers read by this instruction into `out` and
    /// returns how many there are (at most four). Allocation-free
    /// variant of [`Instr::srcs`] for decode-once hot paths.
    pub fn srcs_into(&self, out: &mut [Reg; 4]) -> usize {
        fn push(out: &mut [Reg; 4], n: &mut usize, r: Reg) {
            out[*n] = r;
            *n += 1;
        }
        fn push_op(out: &mut [Reg; 4], n: &mut usize, o: &Operand) {
            if let Operand::Reg(r) = o {
                push(out, n, *r);
            }
        }
        let mut n = 0;
        match self {
            Instr::IAlu { a, b, .. }
            | Instr::FAlu { a, b, .. }
            | Instr::ISetp { a, b, .. }
            | Instr::FSetp { a, b, .. } => {
                push_op(out, &mut n, a);
                push_op(out, &mut n, b);
            }
            Instr::IMad { a, b, c, .. } | Instr::FFma { a, b, c, .. } => {
                push_op(out, &mut n, a);
                push_op(out, &mut n, b);
                push_op(out, &mut n, c);
            }
            Instr::Sfu { a, .. } | Instr::I2F { a, .. } | Instr::F2I { a, .. } => {
                push_op(out, &mut n, a)
            }
            Instr::Mov { src, .. } => push_op(out, &mut n, src),
            Instr::Sel { cond, a, b, .. } => {
                push(out, &mut n, *cond);
                push_op(out, &mut n, a);
                push_op(out, &mut n, b);
            }
            Instr::Ld { addr, .. } => push(out, &mut n, *addr),
            Instr::St { src, addr, .. } => {
                push(out, &mut n, *src);
                push(out, &mut n, *addr);
            }
            Instr::Bra { cond, .. } => push(out, &mut n, *cond),
            Instr::S2R { .. } | Instr::Jmp { .. } | Instr::Bar | Instr::Exit | Instr::Nop => {}
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_the_isa() {
        let r = Reg(0);
        let o = Operand::Reg(Reg(1));
        assert_eq!(
            Instr::IAlu {
                op: IntOp::Add,
                dst: r,
                a: o,
                b: o
            }
            .class(),
            InstrClass::Int
        );
        assert_eq!(
            Instr::FFma {
                dst: r,
                a: o,
                b: o,
                c: o
            }
            .class(),
            InstrClass::Fp
        );
        assert_eq!(
            Instr::Sfu {
                op: SfuOp::Sin,
                dst: r,
                a: o
            }
            .class(),
            InstrClass::Sfu
        );
        assert_eq!(
            Instr::Ld {
                space: MemSpace::Global,
                dst: r,
                addr: Reg(1),
                offset: 0
            }
            .class(),
            InstrClass::Mem
        );
        assert_eq!(Instr::Bar.class(), InstrClass::Control);
    }

    #[test]
    fn dst_and_srcs_are_consistent() {
        let i = Instr::IMad {
            dst: Reg(3),
            a: Operand::Reg(Reg(1)),
            b: Operand::Reg(Reg(2)),
            c: Operand::Imm(5),
        };
        assert_eq!(i.dst(), Some(Reg(3)));
        assert_eq!(i.srcs(), vec![Reg(1), Reg(2)]);
    }

    #[test]
    fn stores_read_both_registers() {
        let st = Instr::St {
            space: MemSpace::Shared,
            src: Reg(4),
            addr: Reg(5),
            offset: 8,
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs(), vec![Reg(4), Reg(5)]);
    }

    #[test]
    fn float_immediates_roundtrip() {
        let o = Operand::imm_f32(1.5);
        match o {
            Operand::Imm(bits) => assert_eq!(f32::from_bits(bits), 1.5),
            _ => panic!("expected an immediate"),
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reg(7).to_string(), "r7");
        assert_eq!(Operand::Imm(42).to_string(), "#42");
        assert_eq!(Operand::Reg(Reg(2)).to_string(), "r2");
    }
}
