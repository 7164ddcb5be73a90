//! Instruction predecode: the per-PC metadata table the issue stage
//! reads instead of re-deriving operand lists every attempt. Runs once
//! per launch, so it is the ledger's *predecode* layer rather than a
//! `Core::tick` row.

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
pub(crate) struct DecodedInstr {
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
    /// Decodes one instruction against `cfg` (bank conflicts depend on
    /// the register-file bank count).
    pub fn decode(instr: Instr, cfg: &GpuConfig) -> Self {
        let mut srcs = [Reg(0); 4];
        let n = instr.srcs_into(&mut srcs);
        let dst = instr.dst();
        let mut dep_mask: u64 = 0;
        for r in &srcs[..n] {
            dep_mask |= 1u64 << r.index().min(63);
        }
        if let Some(d) = dst {
            dep_mask |= 1u64 << d.index().min(63);
        }
        DecodedInstr {
            instr,
            class: instr.class(),
            dst,
            n_srcs: n as u8,
            dep_mask,
            bank_conflicts: bank_conflicts(&srcs[..n], cfg.regfile_banks),
            drains: matches!(instr, Instr::Exit | Instr::Bar),
        }
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
