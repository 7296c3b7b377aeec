//! Fixed-width binary instruction encoding.
//!
//! Instructions encode to a single 64-bit word:
//!
//! ```text
//!   63      56 55      48 47      40 39      32 31             0
//!  +----------+----------+----------+----------+----------------+
//!  |  opcode  |    rd    |   rs1    |   rs2    |  imm / target  |
//!  +----------+----------+----------+----------+----------------+
//! ```
//!
//! Eight-bit register fields support the paper's full scaling range of
//! logical register counts (up to L = 256). Unused fields must encode
//! as zero, which the decoder checks so that `decode(encode(i)) == i`
//! is exact and corrupted words are rejected rather than aliased.

use crate::instr::{AluOp, BranchCond, Instr, Reg};

/// Error returned by [`decode`] for malformed instruction words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode byte does not name an instruction.
    BadOpcode(u8),
    /// Fields that must be zero for this opcode are not.
    NonZeroPadding(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode byte {op:#04x}"),
            DecodeError::NonZeroPadding(w) => {
                write!(f, "non-zero padding in instruction word {w:#018x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const OP_NOP: u8 = 0x00;
const OP_HALT: u8 = 0x01;
const OP_JUMP: u8 = 0x02;
const OP_LOADIMM: u8 = 0x03;
const OP_LOAD: u8 = 0x04;
const OP_STORE: u8 = 0x05;
const OP_ALU_BASE: u8 = 0x10; // +0..12 for the 13 AluOps
const OP_ALUIMM_BASE: u8 = 0x30; // +0..12
const OP_BRANCH_BASE: u8 = 0x50; // +0..5 for the 6 BranchConds

fn alu_code(op: AluOp) -> u8 {
    AluOp::ALL.iter().position(|&o| o == op).unwrap() as u8
}

fn alu_from(code: u8) -> Option<AluOp> {
    AluOp::ALL.get(code as usize).copied()
}

fn cond_code(c: BranchCond) -> u8 {
    BranchCond::ALL.iter().position(|&x| x == c).unwrap() as u8
}

fn cond_from(code: u8) -> Option<BranchCond> {
    BranchCond::ALL.get(code as usize).copied()
}

fn pack(opcode: u8, rd: u8, rs1: u8, rs2: u8, imm: u32) -> u64 {
    (opcode as u64) << 56 | (rd as u64) << 48 | (rs1 as u64) << 40 | (rs2 as u64) << 32 | imm as u64
}

/// Encode an instruction into its 64-bit word.
pub fn encode(i: &Instr) -> u64 {
    match *i {
        Instr::Nop => pack(OP_NOP, 0, 0, 0, 0),
        Instr::Halt => pack(OP_HALT, 0, 0, 0, 0),
        Instr::Jump { target } => pack(OP_JUMP, 0, 0, 0, target),
        Instr::LoadImm { rd, imm } => pack(OP_LOADIMM, rd.0, 0, 0, imm as u32),
        Instr::Load { rd, base, offset } => pack(OP_LOAD, rd.0, base.0, 0, offset as u32),
        Instr::Store { src, base, offset } => pack(OP_STORE, 0, base.0, src.0, offset as u32),
        Instr::Alu { op, rd, rs1, rs2 } => pack(OP_ALU_BASE + alu_code(op), rd.0, rs1.0, rs2.0, 0),
        Instr::AluImm { op, rd, rs1, imm } => {
            pack(OP_ALUIMM_BASE + alu_code(op), rd.0, rs1.0, 0, imm as u32)
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => pack(OP_BRANCH_BASE + cond_code(cond), 0, rs1.0, rs2.0, target),
    }
}

/// Decode a 64-bit word back into an instruction.
///
/// Strict: any word not produced by [`encode`] is rejected.
pub fn decode(w: u64) -> Result<Instr, DecodeError> {
    let opcode = (w >> 56) as u8;
    let rd = (w >> 48) as u8;
    let rs1 = (w >> 40) as u8;
    let rs2 = (w >> 32) as u8;
    let imm = w as u32;

    // Helper: require listed fields to be zero.
    let zero = |fields: &[u8], imm_zero: bool| -> Result<(), DecodeError> {
        if fields.iter().any(|&f| f != 0) || (imm_zero && imm != 0) {
            Err(DecodeError::NonZeroPadding(w))
        } else {
            Ok(())
        }
    };

    match opcode {
        OP_NOP => {
            zero(&[rd, rs1, rs2], true)?;
            Ok(Instr::Nop)
        }
        OP_HALT => {
            zero(&[rd, rs1, rs2], true)?;
            Ok(Instr::Halt)
        }
        OP_JUMP => {
            zero(&[rd, rs1, rs2], false)?;
            Ok(Instr::Jump { target: imm })
        }
        OP_LOADIMM => {
            zero(&[rs1, rs2], false)?;
            Ok(Instr::LoadImm {
                rd: Reg(rd),
                imm: imm as i32,
            })
        }
        OP_LOAD => {
            zero(&[rs2], false)?;
            Ok(Instr::Load {
                rd: Reg(rd),
                base: Reg(rs1),
                offset: imm as i32,
            })
        }
        OP_STORE => {
            zero(&[rd], false)?;
            Ok(Instr::Store {
                src: Reg(rs2),
                base: Reg(rs1),
                offset: imm as i32,
            })
        }
        _ => {
            if let Some(op) = opcode
                .checked_sub(OP_ALU_BASE)
                .filter(|&c| c < 13)
                .and_then(alu_from)
            {
                zero(&[], true)?;
                return Ok(Instr::Alu {
                    op,
                    rd: Reg(rd),
                    rs1: Reg(rs1),
                    rs2: Reg(rs2),
                });
            }
            if let Some(op) = opcode
                .checked_sub(OP_ALUIMM_BASE)
                .filter(|&c| c < 13)
                .and_then(alu_from)
            {
                zero(&[rs2], false)?;
                return Ok(Instr::AluImm {
                    op,
                    rd: Reg(rd),
                    rs1: Reg(rs1),
                    imm: imm as i32,
                });
            }
            if let Some(cond) = opcode
                .checked_sub(OP_BRANCH_BASE)
                .filter(|&c| c < 6)
                .and_then(cond_from)
            {
                zero(&[rd], false)?;
                return Ok(Instr::Branch {
                    cond,
                    rs1: Reg(rs1),
                    rs2: Reg(rs2),
                    target: imm,
                });
            }
            Err(DecodeError::BadOpcode(opcode))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        let mut v = vec![
            Instr::Nop,
            Instr::Halt,
            Instr::Jump { target: 1234 },
            Instr::LoadImm {
                rd: Reg(5),
                imm: -42,
            },
            Instr::Load {
                rd: Reg(1),
                base: Reg(2),
                offset: -8,
            },
            Instr::Store {
                src: Reg(3),
                base: Reg(4),
                offset: 16,
            },
        ];
        for op in AluOp::ALL {
            v.push(Instr::Alu {
                op,
                rd: Reg(7),
                rs1: Reg(8),
                rs2: Reg(255),
            });
            v.push(Instr::AluImm {
                op,
                rd: Reg(7),
                rs1: Reg(8),
                imm: i32::MIN,
            });
        }
        for cond in BranchCond::ALL {
            v.push(Instr::Branch {
                cond,
                rs1: Reg(0),
                rs2: Reg(31),
                target: u32::MAX,
            });
        }
        v
    }

    #[test]
    fn roundtrip_every_form() {
        for i in sample_instrs() {
            let w = encode(&i);
            assert_eq!(decode(w), Ok(i), "word {w:#018x}");
        }
    }

    #[test]
    fn encodings_are_distinct() {
        let instrs = sample_instrs();
        let words: std::collections::HashSet<u64> = instrs.iter().map(encode).collect();
        assert_eq!(words.len(), instrs.len());
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(decode(0xFFu64 << 56), Err(DecodeError::BadOpcode(0xFF)));
    }

    #[test]
    fn nonzero_padding_rejected() {
        // HALT with a stray register byte set.
        let w = (OP_HALT as u64) << 56 | 1u64 << 48;
        assert!(matches!(decode(w), Err(DecodeError::NonZeroPadding(_))));
        // Plain ALU with a stray immediate.
        let w = encode(&Instr::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        }) | 0xFF;
        assert!(matches!(decode(w), Err(DecodeError::NonZeroPadding(_))));
    }

    #[test]
    fn negative_immediates_roundtrip() {
        let i = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(1),
            imm: -1,
        };
        assert_eq!(decode(encode(&i)), Ok(i));
    }
}

#[cfg(test)]
mod random_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{cases, Rng};

    fn reg(rng: &mut StdRng) -> Reg {
        Reg(rng.gen())
    }

    /// One of the nine instruction shapes, uniformly, with every field
    /// drawn over its whole domain.
    fn instr(rng: &mut StdRng) -> Instr {
        match rng.gen_range(0..9) {
            0 => Instr::Nop,
            1 => Instr::Halt,
            2 => Instr::Jump { target: rng.gen() },
            3 => Instr::LoadImm {
                rd: reg(rng),
                imm: rng.gen(),
            },
            4 => Instr::Load {
                rd: reg(rng),
                base: reg(rng),
                offset: rng.gen(),
            },
            5 => Instr::Store {
                src: reg(rng),
                base: reg(rng),
                offset: rng.gen(),
            },
            6 => Instr::Alu {
                op: AluOp::ALL[rng.gen_range(0usize..13)],
                rd: reg(rng),
                rs1: reg(rng),
                rs2: reg(rng),
            },
            7 => Instr::AluImm {
                op: AluOp::ALL[rng.gen_range(0usize..13)],
                rd: reg(rng),
                rs1: reg(rng),
                imm: rng.gen(),
            },
            _ => Instr::Branch {
                cond: BranchCond::ALL[rng.gen_range(0usize..6)],
                rs1: reg(rng),
                rs2: reg(rng),
                target: rng.gen(),
            },
        }
    }

    #[test]
    fn decode_inverts_encode() {
        cases(0xE2C_0001, 64, |rng, _| {
            let i = instr(rng);
            assert_eq!(decode(encode(&i)), Ok(i));
        });
    }

    #[test]
    fn decode_never_panics() {
        cases(0xE2C_0002, 64, |rng, _| {
            let _ = decode(rng.gen());
        });
    }
}
