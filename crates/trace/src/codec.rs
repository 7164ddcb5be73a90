//! Instruction (de)serialisation for the trace instruction table.
//!
//! One tag byte per [`Instr`] variant in declaration order, then the
//! fields: registers as raw bytes, operands as a reg/imm tag + payload,
//! enum operands as explicit index bytes (no `transmute`, so a flipped
//! byte decodes to a typed error instead of an invalid discriminant),
//! branch targets as varints and byte offsets zigzag-folded.

use gpusimpow_isa::{CmpOp, FpOp, Instr, IntOp, MemSpace, Operand, Reg, SfuOp, SpecialReg};

use crate::wire::{Reader, Writer};
use crate::TraceError;

const OPERAND_REG: u8 = 0;
const OPERAND_IMM: u8 = 1;

fn put_reg(w: &mut Writer, r: Reg) {
    w.put_u8(r.0);
}

fn get_reg(r: &mut Reader<'_>) -> Result<Reg, TraceError> {
    Ok(Reg(r.u8("register")?))
}

fn put_operand(w: &mut Writer, op: Operand) {
    match op {
        Operand::Reg(reg) => {
            w.put_u8(OPERAND_REG);
            put_reg(w, reg);
        }
        Operand::Imm(v) => {
            w.put_u8(OPERAND_IMM);
            w.put_varint(v as u64);
        }
    }
}

fn get_operand(r: &mut Reader<'_>) -> Result<Operand, TraceError> {
    match r.u8("operand tag")? {
        OPERAND_REG => Ok(Operand::Reg(get_reg(r)?)),
        OPERAND_IMM => Ok(Operand::Imm(r.varint_u32("immediate")?)),
        t => Err(TraceError::Malformed(format!("unknown operand tag {t}"))),
    }
}

macro_rules! enum_codec {
    ($put:ident, $get:ident, $ty:ident, $what:literal, [$($variant:ident = $idx:literal),+ $(,)?]) => {
        fn $put(w: &mut Writer, v: $ty) {
            let idx: u8 = match v {
                $($ty::$variant => $idx,)+
            };
            w.put_u8(idx);
        }

        fn $get(r: &mut Reader<'_>) -> Result<$ty, TraceError> {
            match r.u8($what)? {
                $($idx => Ok($ty::$variant),)+
                t => Err(TraceError::Malformed(format!(
                    concat!("unknown ", $what, " {}"), t
                ))),
            }
        }
    };
}

enum_codec!(
    put_int_op,
    get_int_op,
    IntOp,
    "integer op",
    [
        Add = 0,
        Sub = 1,
        Mul = 2,
        Min = 3,
        Max = 4,
        And = 5,
        Or = 6,
        Xor = 7,
        Shl = 8,
        Shr = 9,
        Sra = 10,
    ]
);
enum_codec!(
    put_fp_op,
    get_fp_op,
    FpOp,
    "float op",
    [Add = 0, Sub = 1, Mul = 2, Min = 3, Max = 4,]
);
enum_codec!(
    put_sfu_op,
    get_sfu_op,
    SfuOp,
    "sfu op",
    [
        Rcp = 0,
        Sqrt = 1,
        Rsqrt = 2,
        Sin = 3,
        Cos = 4,
        Ex2 = 5,
        Lg2 = 6,
    ]
);
enum_codec!(
    put_cmp_op,
    get_cmp_op,
    CmpOp,
    "compare op",
    [Eq = 0, Ne = 1, Lt = 2, Le = 3, Gt = 4, Ge = 5,]
);
enum_codec!(
    put_space,
    get_space,
    MemSpace,
    "memory space",
    [Global = 0, Shared = 1, Const = 2,]
);
enum_codec!(
    put_sreg,
    get_sreg,
    SpecialReg,
    "special register",
    [
        TidX = 0,
        TidY = 1,
        CtaIdX = 2,
        CtaIdY = 3,
        NTidX = 4,
        NTidY = 5,
        NCtaIdX = 6,
        NCtaIdY = 7,
    ]
);

pub(crate) fn put_instr(w: &mut Writer, instr: Instr) {
    match instr {
        Instr::IAlu { op, dst, a, b } => {
            w.put_u8(0);
            put_int_op(w, op);
            put_reg(w, dst);
            put_operand(w, a);
            put_operand(w, b);
        }
        Instr::IMad { dst, a, b, c } => {
            w.put_u8(1);
            put_reg(w, dst);
            put_operand(w, a);
            put_operand(w, b);
            put_operand(w, c);
        }
        Instr::FAlu { op, dst, a, b } => {
            w.put_u8(2);
            put_fp_op(w, op);
            put_reg(w, dst);
            put_operand(w, a);
            put_operand(w, b);
        }
        Instr::FFma { dst, a, b, c } => {
            w.put_u8(3);
            put_reg(w, dst);
            put_operand(w, a);
            put_operand(w, b);
            put_operand(w, c);
        }
        Instr::Sfu { op, dst, a } => {
            w.put_u8(4);
            put_sfu_op(w, op);
            put_reg(w, dst);
            put_operand(w, a);
        }
        Instr::ISetp { op, dst, a, b } => {
            w.put_u8(5);
            put_cmp_op(w, op);
            put_reg(w, dst);
            put_operand(w, a);
            put_operand(w, b);
        }
        Instr::FSetp { op, dst, a, b } => {
            w.put_u8(6);
            put_cmp_op(w, op);
            put_reg(w, dst);
            put_operand(w, a);
            put_operand(w, b);
        }
        Instr::I2F { dst, a } => {
            w.put_u8(7);
            put_reg(w, dst);
            put_operand(w, a);
        }
        Instr::F2I { dst, a } => {
            w.put_u8(8);
            put_reg(w, dst);
            put_operand(w, a);
        }
        Instr::Mov { dst, src } => {
            w.put_u8(9);
            put_reg(w, dst);
            put_operand(w, src);
        }
        Instr::Sel { dst, cond, a, b } => {
            w.put_u8(10);
            put_reg(w, dst);
            put_reg(w, cond);
            put_operand(w, a);
            put_operand(w, b);
        }
        Instr::S2R { dst, sr } => {
            w.put_u8(11);
            put_reg(w, dst);
            put_sreg(w, sr);
        }
        Instr::Ld {
            space,
            dst,
            addr,
            offset,
        } => {
            w.put_u8(12);
            put_space(w, space);
            put_reg(w, dst);
            put_reg(w, addr);
            w.put_varint_i32(offset);
        }
        Instr::St {
            space,
            src,
            addr,
            offset,
        } => {
            w.put_u8(13);
            put_space(w, space);
            put_reg(w, src);
            put_reg(w, addr);
            w.put_varint_i32(offset);
        }
        Instr::Bra {
            cond,
            negate,
            target,
            reconv,
        } => {
            w.put_u8(14);
            put_reg(w, cond);
            w.put_u8(negate as u8);
            w.put_varint(target as u64);
            w.put_varint(reconv as u64);
        }
        Instr::Jmp { target } => {
            w.put_u8(15);
            w.put_varint(target as u64);
        }
        Instr::Bar => w.put_u8(16),
        Instr::Exit => w.put_u8(17),
        Instr::Nop => w.put_u8(18),
    }
}

pub(crate) fn get_instr(r: &mut Reader<'_>) -> Result<Instr, TraceError> {
    Ok(match r.u8("instruction tag")? {
        0 => Instr::IAlu {
            op: get_int_op(r)?,
            dst: get_reg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        1 => Instr::IMad {
            dst: get_reg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
            c: get_operand(r)?,
        },
        2 => Instr::FAlu {
            op: get_fp_op(r)?,
            dst: get_reg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        3 => Instr::FFma {
            dst: get_reg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
            c: get_operand(r)?,
        },
        4 => Instr::Sfu {
            op: get_sfu_op(r)?,
            dst: get_reg(r)?,
            a: get_operand(r)?,
        },
        5 => Instr::ISetp {
            op: get_cmp_op(r)?,
            dst: get_reg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        6 => Instr::FSetp {
            op: get_cmp_op(r)?,
            dst: get_reg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        7 => Instr::I2F {
            dst: get_reg(r)?,
            a: get_operand(r)?,
        },
        8 => Instr::F2I {
            dst: get_reg(r)?,
            a: get_operand(r)?,
        },
        9 => Instr::Mov {
            dst: get_reg(r)?,
            src: get_operand(r)?,
        },
        10 => Instr::Sel {
            dst: get_reg(r)?,
            cond: get_reg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        11 => Instr::S2R {
            dst: get_reg(r)?,
            sr: get_sreg(r)?,
        },
        12 => Instr::Ld {
            space: get_space(r)?,
            dst: get_reg(r)?,
            addr: get_reg(r)?,
            offset: r.varint_i32("load offset")?,
        },
        13 => Instr::St {
            space: get_space(r)?,
            src: get_reg(r)?,
            addr: get_reg(r)?,
            offset: r.varint_i32("store offset")?,
        },
        14 => Instr::Bra {
            cond: get_reg(r)?,
            negate: match r.u8("branch negate flag")? {
                0 => false,
                1 => true,
                t => {
                    return Err(TraceError::Malformed(format!(
                        "branch negate flag must be 0/1, got {t}"
                    )))
                }
            },
            target: r.varint_u32("branch target")?,
            reconv: r.varint_u32("branch reconvergence pc")?,
        },
        15 => Instr::Jmp {
            target: r.varint_u32("jump target")?,
        },
        16 => Instr::Bar,
        17 => Instr::Exit,
        18 => Instr::Nop,
        t => {
            return Err(TraceError::Malformed(format!(
                "unknown instruction tag {t}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        vec![
            Instr::IAlu {
                op: IntOp::Sra,
                dst: Reg(3),
                a: Operand::Reg(Reg(1)),
                b: Operand::Imm(u32::MAX),
            },
            Instr::IMad {
                dst: Reg(0),
                a: Operand::Reg(Reg(1)),
                b: Operand::Imm(7),
                c: Operand::Reg(Reg(2)),
            },
            Instr::FAlu {
                op: FpOp::Max,
                dst: Reg(9),
                a: Operand::Imm(1.5f32.to_bits()),
                b: Operand::Reg(Reg(8)),
            },
            Instr::FFma {
                dst: Reg(4),
                a: Operand::Reg(Reg(5)),
                b: Operand::Reg(Reg(6)),
                c: Operand::Imm(0),
            },
            Instr::Sfu {
                op: SfuOp::Rsqrt,
                dst: Reg(2),
                a: Operand::Reg(Reg(2)),
            },
            Instr::ISetp {
                op: CmpOp::Le,
                dst: Reg(1),
                a: Operand::Reg(Reg(0)),
                b: Operand::Imm(42),
            },
            Instr::FSetp {
                op: CmpOp::Ne,
                dst: Reg(1),
                a: Operand::Imm(0),
                b: Operand::Reg(Reg(3)),
            },
            Instr::I2F {
                dst: Reg(7),
                a: Operand::Reg(Reg(7)),
            },
            Instr::F2I {
                dst: Reg(7),
                a: Operand::Imm(3.25f32.to_bits()),
            },
            Instr::Mov {
                dst: Reg(0),
                src: Operand::Imm(0xdead_beef),
            },
            Instr::Sel {
                dst: Reg(5),
                cond: Reg(1),
                a: Operand::Reg(Reg(2)),
                b: Operand::Reg(Reg(3)),
            },
            Instr::S2R {
                dst: Reg(0),
                sr: SpecialReg::NCtaIdY,
            },
            Instr::Ld {
                space: MemSpace::Shared,
                dst: Reg(1),
                addr: Reg(0),
                offset: -128,
            },
            Instr::St {
                space: MemSpace::Global,
                src: Reg(2),
                addr: Reg(0),
                offset: 2048,
            },
            Instr::Bra {
                cond: Reg(1),
                negate: true,
                target: 17,
                reconv: 19,
            },
            Instr::Jmp { target: 3 },
            Instr::Bar,
            Instr::Exit,
            Instr::Nop,
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        let instrs = sample_instrs();
        let mut w = Writer::new();
        for &i in &instrs {
            put_instr(&mut w, i);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &i in &instrs {
            assert_eq!(get_instr(&mut r).unwrap(), i);
        }
        r.finish("instructions").unwrap();
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        for bad in [[19u8], [200u8], [255u8]] {
            let mut r = Reader::new(&bad);
            assert!(matches!(get_instr(&mut r), Err(TraceError::Malformed(_))));
        }
    }
}
