//! Programmatic kernel construction with structured control flow.
//!
//! The builder emits the flat instruction stream the simulator executes,
//! and — crucially for the SIMT divergence model — computes the
//! *reconvergence PC* (immediate post-dominator) of every branch from the
//! structure of the source: [`KernelBuilder::if_then`],
//! [`KernelBuilder::if_then_else`] and [`KernelBuilder::while_loop`]
//! reconverge at their textual end, exactly as a structured-code PTX
//! compiler would annotate them.

use crate::instr::{CmpOp, FpOp, Instr, IntOp, MemSpace, Operand, Pc, Reg, SfuOp, SpecialReg};
use crate::kernel::{Kernel, KernelError};

/// A forward-referencable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Which field of a branch a fixup patches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Patch {
    Target,
    Reconv,
    JmpTarget,
}

/// Incremental builder for [`Kernel`]s.
///
/// # Examples
///
/// Build `out[i] = a[i] + b[i]` over a 1-D launch:
///
/// ```
/// use gpusimpow_isa::builder::KernelBuilder;
/// use gpusimpow_isa::instr::{Reg, Operand, SpecialReg, IntOp};
///
/// let mut b = KernelBuilder::new("vectoradd");
/// let (tid, bid, bdim) = (Reg(0), Reg(1), Reg(2));
/// b.s2r(tid, SpecialReg::TidX);
/// b.s2r(bid, SpecialReg::CtaIdX);
/// b.s2r(bdim, SpecialReg::NTidX);
/// let i = Reg(3);
/// b.imad(i, bid, bdim, tid); // i = bid*bdim+tid
/// b.exit();
/// let kernel = b.build()?;
/// assert_eq!(kernel.name(), "vectoradd");
/// # Ok::<(), gpusimpow_isa::kernel::KernelError>(())
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    code: Vec<Instr>,
    max_reg: u8,
    smem_bytes: u32,
    const_words: Vec<u32>,
    labels: Vec<Option<Pc>>,
    fixups: Vec<(usize, Label, Patch)>,
}

impl KernelBuilder {
    /// Starts a new kernel.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            code: Vec::new(),
            max_reg: 0,
            smem_bytes: 0,
            const_words: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Current emission position.
    pub fn here(&self) -> Pc {
        self.code.len() as Pc
    }

    /// Allocates `bytes` of per-CTA shared memory, returning the byte
    /// offset of the allocation (16-byte aligned).
    pub fn alloc_smem(&mut self, bytes: u32) -> u32 {
        let offset = (self.smem_bytes + 15) & !15;
        self.smem_bytes = offset + bytes;
        offset
    }

    /// Appends `words` to the constant bank, returning the *byte* offset
    /// of the first appended word.
    pub fn push_consts(&mut self, words: &[u32]) -> u32 {
        let offset = (self.const_words.len() * 4) as u32;
        self.const_words.extend_from_slice(words);
        offset
    }

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.here());
    }

    fn track(&mut self, instr: &Instr) {
        for r in instr.srcs().into_iter().chain(instr.dst()) {
            self.max_reg = self.max_reg.max(r.0);
        }
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.track(&instr);
        self.code.push(instr);
        self
    }

    // --- integer ops ------------------------------------------------------

    /// `dst = a + b` (wrapping).
    pub fn iadd(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Add, dst, a, b)
    }

    /// `dst = a - b` (wrapping).
    pub fn isub(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Sub, dst, a, b)
    }

    /// `dst = a * b` (wrapping, low 32 bits).
    pub fn imul(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Mul, dst, a, b)
    }

    /// `dst = min(a, b)` (signed).
    pub fn imin(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Min, dst, a, b)
    }

    /// `dst = max(a, b)` (signed).
    pub fn imax(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Max, dst, a, b)
    }

    /// `dst = a & b`.
    pub fn iand(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::And, dst, a, b)
    }

    /// `dst = a | b`.
    pub fn ior(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Or, dst, a, b)
    }

    /// `dst = a ^ b`.
    pub fn ixor(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Xor, dst, a, b)
    }

    /// `dst = a << b` (logical).
    pub fn shl(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Shl, dst, a, b)
    }

    /// `dst = a >> b` (logical).
    pub fn shr(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.ialu(IntOp::Shr, dst, a, b)
    }

    fn ialu(
        &mut self,
        op: IntOp,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::IAlu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `dst = a * b + c` (integer).
    pub fn imad(
        &mut self,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::IMad {
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        })
    }

    // --- floating-point ops -------------------------------------------------

    /// `dst = a + b` (f32).
    pub fn fadd(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.falu(FpOp::Add, dst, a, b)
    }

    /// `dst = a - b` (f32).
    pub fn fsub(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.falu(FpOp::Sub, dst, a, b)
    }

    /// `dst = a * b` (f32).
    pub fn fmul(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.falu(FpOp::Mul, dst, a, b)
    }

    /// `dst = min(a, b)` (f32).
    pub fn fmin(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.falu(FpOp::Min, dst, a, b)
    }

    /// `dst = max(a, b)` (f32).
    pub fn fmax(&mut self, dst: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> &mut Self {
        self.falu(FpOp::Max, dst, a, b)
    }

    fn falu(
        &mut self,
        op: FpOp,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::FAlu {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `dst = a * b + c` (fused, f32).
    pub fn ffma(
        &mut self,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
        c: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::FFma {
            dst,
            a: a.into(),
            b: b.into(),
            c: c.into(),
        })
    }

    /// `dst = op(a)` on the SFU pipeline.
    pub fn sfu(&mut self, op: SfuOp, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.emit(Instr::Sfu {
            op,
            dst,
            a: a.into(),
        })
    }

    // --- compares, converts, moves -----------------------------------------

    /// `dst = (a <op> b) ? 1 : 0` (signed integers).
    pub fn isetp(
        &mut self,
        op: CmpOp,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::ISetp {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `dst = (a <op> b) ? 1 : 0` (f32).
    pub fn fsetp(
        &mut self,
        op: CmpOp,
        dst: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::FSetp {
            op,
            dst,
            a: a.into(),
            b: b.into(),
        })
    }

    /// `dst = (f32) a` (from signed int).
    pub fn i2f(&mut self, dst: Reg, a: impl Into<Operand>) -> &mut Self {
        self.emit(Instr::I2F { dst, a: a.into() })
    }

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) -> &mut Self {
        self.emit(Instr::Mov {
            dst,
            src: src.into(),
        })
    }

    /// `dst = imm` (integer immediate).
    pub fn movi(&mut self, dst: Reg, imm: u32) -> &mut Self {
        self.mov(dst, Operand::imm_u32(imm))
    }

    /// `dst = imm` (f32 immediate).
    pub fn movf(&mut self, dst: Reg, imm: f32) -> &mut Self {
        self.mov(dst, Operand::imm_f32(imm))
    }

    /// `dst = cond != 0 ? a : b`.
    pub fn sel(
        &mut self,
        dst: Reg,
        cond: Reg,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) -> &mut Self {
        self.emit(Instr::Sel {
            dst,
            cond,
            a: a.into(),
            b: b.into(),
        })
    }

    /// Reads a special register.
    pub fn s2r(&mut self, dst: Reg, sr: SpecialReg) -> &mut Self {
        self.emit(Instr::S2R { dst, sr })
    }

    // --- memory ---------------------------------------------------------------

    /// `dst = global[addr + offset]`.
    pub fn ld_global(&mut self, dst: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::Ld {
            space: MemSpace::Global,
            dst,
            addr,
            offset,
        })
    }

    /// `global[addr + offset] = src`.
    pub fn st_global(&mut self, src: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::St {
            space: MemSpace::Global,
            src,
            addr,
            offset,
        })
    }

    /// `dst = shared[addr + offset]`.
    pub fn ld_shared(&mut self, dst: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::Ld {
            space: MemSpace::Shared,
            dst,
            addr,
            offset,
        })
    }

    /// `shared[addr + offset] = src`.
    pub fn st_shared(&mut self, src: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::St {
            space: MemSpace::Shared,
            src,
            addr,
            offset,
        })
    }

    /// `dst = const[addr + offset]`.
    pub fn ld_const(&mut self, dst: Reg, addr: Reg, offset: i32) -> &mut Self {
        self.emit(Instr::Ld {
            space: MemSpace::Const,
            dst,
            addr,
            offset,
        })
    }

    // --- control flow ------------------------------------------------------

    /// CTA-wide barrier.
    pub fn bar(&mut self) -> &mut Self {
        self.emit(Instr::Bar)
    }

    /// Thread exit.
    pub fn exit(&mut self) -> &mut Self {
        self.emit(Instr::Exit)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::Nop)
    }

    /// Unconditional jump to a label.
    pub fn jmp(&mut self, target: Label) -> &mut Self {
        let at = self.code.len();
        self.fixups.push((at, target, Patch::JmpTarget));
        self.emit(Instr::Jmp { target: u32::MAX })
    }

    /// Branch to `target` if `cond == 0`; diverged threads reconverge at
    /// `reconv`. Prefer the structured helpers, which compute `reconv`.
    pub fn bra_z(&mut self, cond: Reg, target: Label, reconv: Label) -> &mut Self {
        let at = self.code.len();
        self.fixups.push((at, target, Patch::Target));
        self.fixups.push((at, reconv, Patch::Reconv));
        self.emit(Instr::Bra {
            cond,
            negate: true,
            target: u32::MAX,
            reconv: u32::MAX,
        })
    }

    /// Structured `if (cond != 0) { body }`. The reconvergence point is
    /// the end of the body.
    pub fn if_then(&mut self, cond: Reg, body: impl FnOnce(&mut Self)) -> &mut Self {
        let end = self.new_label();
        // Threads with cond == 0 skip the body.
        self.bra_z(cond, end, end);
        body(self);
        self.bind(end);
        self
    }

    /// Structured `if (cond != 0) { then } else { otherwise }` with
    /// reconvergence at the end.
    pub fn if_then_else(
        &mut self,
        cond: Reg,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let else_l = self.new_label();
        let end = self.new_label();
        self.bra_z(cond, else_l, end);
        then_body(self);
        self.jmp(end);
        self.bind(else_l);
        else_body(self);
        self.bind(end);
        self
    }

    /// Structured `while`: `header` computes and returns the condition
    /// register each iteration; the loop runs while it is non-zero.
    /// Reconvergence is at loop exit.
    pub fn while_loop(
        &mut self,
        header: impl FnOnce(&mut Self) -> Reg,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        let top = self.new_label();
        let end = self.new_label();
        self.bind(top);
        let cond = header(self);
        self.bra_z(cond, end, end);
        body(self);
        self.jmp(top);
        self.bind(end);
        self
    }

    /// Structured counted loop: `for (i = start; i < end_op; i += step)`.
    /// `i` must be initialized by this call; the bound and step are
    /// operands so either may come from a register.
    pub fn for_range(
        &mut self,
        i: Reg,
        cond_scratch: Reg,
        start: impl Into<Operand>,
        end_op: impl Into<Operand> + Copy,
        step: u32,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.mov(i, start);
        self.while_loop(
            |b| {
                b.isetp(CmpOp::Lt, cond_scratch, i, end_op);
                cond_scratch
            },
            |b| {
                body(b);
                b.iadd(i, i, Operand::imm_u32(step));
            },
        )
    }

    /// Finalizes the kernel: resolves labels and validates.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] if validation fails.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound.
    pub fn build(mut self) -> Result<Kernel, KernelError> {
        for (at, label, patch) in std::mem::take(&mut self.fixups) {
            let pc = self.labels[label.0].expect("label referenced but never bound");
            match (&mut self.code[at], patch) {
                (Instr::Bra { target, .. }, Patch::Target) => *target = pc,
                (Instr::Bra { reconv, .. }, Patch::Reconv) => *reconv = pc,
                (Instr::Jmp { target }, Patch::JmpTarget) => *target = pc,
                _ => unreachable!("fixup does not match instruction"),
            }
        }
        Kernel::new(
            self.name,
            self.code,
            self.max_reg + 1,
            self.smem_bytes,
            self.const_words,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut b = KernelBuilder::new("t");
        let top = b.new_label();
        let end = b.new_label();
        b.bind(top);
        b.movi(Reg(0), 1);
        b.bra_z(Reg(0), end, end);
        b.jmp(top);
        b.bind(end);
        b.exit();
        let k = b.build().unwrap();
        match k.code()[1] {
            Instr::Bra { target, reconv, .. } => {
                assert_eq!(target, 3);
                assert_eq!(reconv, 3);
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
        match k.code()[2] {
            Instr::Jmp { target } => assert_eq!(target, 0),
            ref other => panic!("expected jmp, got {other:?}"),
        }
    }

    #[test]
    fn if_then_reconverges_at_end() {
        let mut b = KernelBuilder::new("t");
        b.movi(Reg(0), 1);
        b.if_then(Reg(0), |b| {
            b.movi(Reg(1), 2);
        });
        b.exit();
        let k = b.build().unwrap();
        match k.code()[1] {
            Instr::Bra {
                negate,
                target,
                reconv,
                ..
            } => {
                assert!(negate, "if_then skips the body when cond == 0");
                assert_eq!(target, 3);
                assert_eq!(reconv, 3);
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn if_then_else_layout() {
        let mut b = KernelBuilder::new("t");
        b.movi(Reg(0), 0);
        b.if_then_else(
            Reg(0),
            |b| {
                b.movi(Reg(1), 1);
            },
            |b| {
                b.movi(Reg(1), 2);
            },
        );
        b.exit();
        let k = b.build().unwrap();
        // 0: movi, 1: bra -> else(4) reconv end(5), 2: movi(then),
        // 3: jmp end(5), 4: movi(else), 5: exit
        match k.code()[1] {
            Instr::Bra { target, reconv, .. } => {
                assert_eq!(target, 4);
                assert_eq!(reconv, 5);
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
        assert_eq!(k.code().len(), 6);
    }

    #[test]
    fn while_loop_reconverges_at_exit() {
        let mut b = KernelBuilder::new("t");
        b.movi(Reg(0), 4);
        b.while_loop(
            |b| {
                b.isetp(CmpOp::Gt, Reg(1), Reg(0), Operand::imm_u32(0));
                Reg(1)
            },
            |b| {
                b.isub(Reg(0), Reg(0), Operand::imm_u32(1));
            },
        );
        b.exit();
        let k = b.build().unwrap();
        // 0: movi, 1: isetp, 2: bra.z -> end(5) reconv 5, 3: isub,
        // 4: jmp 1, 5: exit
        match k.code()[2] {
            Instr::Bra { target, reconv, .. } => {
                assert_eq!(target, 5);
                assert_eq!(reconv, 5);
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
        match k.code()[4] {
            Instr::Jmp { target } => assert_eq!(target, 1),
            ref other => panic!("expected jmp, got {other:?}"),
        }
    }

    #[test]
    fn register_count_is_tracked() {
        let mut b = KernelBuilder::new("t");
        b.movi(Reg(11), 0);
        b.exit();
        let k = b.build().unwrap();
        assert_eq!(k.num_regs(), 12);
    }

    #[test]
    fn smem_allocations_are_aligned() {
        let mut b = KernelBuilder::new("t");
        let a = b.alloc_smem(20);
        let c = b.alloc_smem(4);
        assert_eq!(a, 0);
        assert_eq!(c, 32);
        b.exit();
        assert_eq!(b.build().unwrap().smem_bytes(), 36);
    }

    #[test]
    fn consts_are_word_addressed() {
        let mut b = KernelBuilder::new("t");
        let off0 = b.push_consts(&[7, 8]);
        let off1 = b.push_consts(&[9]);
        assert_eq!(off0, 0);
        assert_eq!(off1, 8);
        b.exit();
        assert_eq!(b.build().unwrap().const_words(), &[7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics_at_build() {
        let mut b = KernelBuilder::new("t");
        let l = b.new_label();
        b.jmp(l);
        b.exit();
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = KernelBuilder::new("t");
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn for_range_emits_counted_loop() {
        let mut b = KernelBuilder::new("t");
        b.for_range(
            Reg(0),
            Reg(1),
            Operand::imm_u32(0),
            Operand::imm_u32(10),
            2,
            |b| {
                b.nop();
            },
        );
        b.exit();
        let k = b.build().unwrap();
        // mov, isetp, bra, nop, iadd, jmp, exit
        assert_eq!(k.code().len(), 7);
    }
}
