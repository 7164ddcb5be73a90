//! Instruction predecode: the per-PC metadata table the issue stage
//! reads instead of re-deriving operand lists every attempt. Runs once
//! per launch (or once per sweep), so it is the ledger's *predecode*
//! layer rather than a `Core::tick` row.

use gpusimpow_isa::{Instr, InstrClass, Kernel, Reg};

use crate::config::GpuConfig;

/// Pre-decoded instruction metadata, derived once per launch and shared
/// read-only by all cores.
///
/// Re-deriving the source-register list (a `Vec` allocation) and the
/// register-file bank conflicts on every issue attempt was the hottest
/// part of the cycle loop; everything the issue stage needs is computed
/// here exactly once per kernel instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedInstr {
    /// The architectural instruction.
    pub instr: Instr,
    /// Execution class (pipeline selector).
    pub class: InstrClass,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Number of source registers (at most four).
    pub n_srcs: u8,
    /// Scoreboard dependence mask: source ∪ destination register bits,
    /// indices clamped to 63 (the scoreboard width).
    pub dep_mask: u64,
    /// Register-file bank conflicts among the sources under the
    /// configuration's bank count.
    pub bank_conflicts: u8,
    /// `true` for instructions that drain the warp before issue
    /// (`Exit`, `Bar`).
    pub drains: bool,
}

/// Register-file bank conflicts among `srcs` under `banks` banks:
/// sources minus distinct banks touched, as the banked register file
/// serializes same-bank reads.
fn bank_conflicts(srcs: &[Reg], regfile_banks: usize) -> u8 {
    let mut banks = [0usize; 4];
    for (b, r) in banks.iter_mut().zip(srcs) {
        *b = r.index() % regfile_banks;
    }
    let n = srcs.len();
    let mut distinct = 0;
    for i in 0..n {
        if !banks[..i].contains(&banks[i]) {
            distinct += 1;
        }
    }
    (n - distinct) as u8
}

impl DecodedInstr {
    /// Configuration-independent part of the decode: everything except
    /// `bank_conflicts`, which is left at zero. Also returns the source
    /// list so callers can derive the bank conflicts for any bank count.
    fn decode_base(instr: Instr) -> (Self, [Reg; 4], usize) {
        let class = instr.class();
        let dst = instr.dst();
        let mut srcs = [Reg(0); 4];
        let n = instr.srcs_into(&mut srcs);
        let mut dep_mask: u64 = 0;
        for r in &srcs[..n] {
            dep_mask |= 1u64 << r.index().min(63);
        }
        if let Some(d) = dst {
            dep_mask |= 1u64 << d.index().min(63);
        }
        (
            DecodedInstr {
                instr,
                class,
                dst,
                n_srcs: n as u8,
                dep_mask,
                bank_conflicts: 0,
                drains: matches!(instr, Instr::Exit | Instr::Bar),
            },
            srcs,
            n,
        )
    }

    /// Decodes one instruction against `cfg` (bank conflicts depend on
    /// the register-file bank count).
    pub fn decode(instr: Instr, cfg: &GpuConfig) -> Self {
        let (mut di, srcs, n) = Self::decode_base(instr);
        di.bank_conflicts = bank_conflicts(&srcs[..n], cfg.regfile_banks);
        di
    }

    /// Decodes a whole kernel into a PC-indexed table.
    pub fn decode_kernel(kernel: &Kernel, cfg: &GpuConfig) -> Vec<DecodedInstr> {
        kernel
            .code()
            .iter()
            .map(|&i| Self::decode(i, cfg))
            .collect()
    }
}

/// Configuration-independent predecode of a whole kernel, shared across
/// the GPU configurations of a sweep.
///
/// [`DecodedInstr`] depends on the configuration through exactly one
/// field — `bank_conflicts`, a function of `cfg.regfile_banks` — so a
/// sweep decodes each kernel once with [`PredecodedKernel::new`] and
/// stamps out one PC-indexed table per *distinct bank count* with
/// [`PredecodedKernel::specialize`] (both stock presets use 16 banks,
/// so a GT240 + GTX580 sweep shares a single table).
#[derive(Debug, Clone)]
pub struct PredecodedKernel {
    /// Bank-count-independent decode (`bank_conflicts` zeroed).
    base: Vec<DecodedInstr>,
    /// Per-instruction source lists for re-deriving bank conflicts.
    srcs: Vec<([Reg; 4], u8)>,
}

impl PredecodedKernel {
    /// Pre-decodes every instruction of `kernel` once.
    pub fn new(kernel: &Kernel) -> Self {
        let mut base = Vec::with_capacity(kernel.code().len());
        let mut srcs = Vec::with_capacity(kernel.code().len());
        for &instr in kernel.code() {
            let (di, s, n) = DecodedInstr::decode_base(instr);
            base.push(di);
            srcs.push((s, n as u8));
        }
        PredecodedKernel { base, srcs }
    }

    /// Number of pre-decoded instructions.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when the kernel has no instructions.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Specializes the shared predecode for one configuration. The
    /// result is bit-identical to [`DecodedInstr::decode_kernel`] on
    /// the same kernel and configuration.
    pub fn specialize(&self, cfg: &GpuConfig) -> Vec<DecodedInstr> {
        self.base
            .iter()
            .zip(&self.srcs)
            .map(|(&di, &(srcs, n))| DecodedInstr {
                bank_conflicts: bank_conflicts(&srcs[..n as usize], cfg.regfile_banks),
                ..di
            })
            .collect()
    }
}
