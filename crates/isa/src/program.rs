//! The [`Program`] container shared by every processor model.

use crate::instr::Instr;

/// A compiled program: an instruction sequence plus the architectural
/// parameters it requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The instructions, addressed by absolute index (the assembler
    /// resolves labels to indices).
    pub instrs: Vec<Instr>,
    /// Number of logical registers `L` this program is compiled for.
    pub num_regs: usize,
    /// Initial register-file contents (length `num_regs`).
    pub init_regs: Vec<u32>,
    /// Initial data-memory contents (word-addressed; the machine's
    /// memory is at least this long).
    pub init_mem: Vec<u32>,
}

/// Errors reported by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// An instruction names a register `>= num_regs`.
    RegOutOfRange {
        /// Instruction index.
        at: usize,
        /// Offending register index.
        reg: u8,
        /// Register file size.
        num_regs: usize,
    },
    /// A control-flow target points past the end of the program.
    TargetOutOfRange {
        /// Instruction index.
        at: usize,
        /// Offending target.
        target: u32,
    },
    /// `init_regs.len() != num_regs`.
    InitRegsLength {
        /// Actual length supplied.
        got: usize,
        /// Required length.
        want: usize,
    },
    /// `num_regs` outside 1..=256.
    BadRegCount(usize),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::RegOutOfRange { at, reg, num_regs } => write!(
                f,
                "instruction {at} uses r{reg} but the register file has {num_regs} registers"
            ),
            ProgramError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets {target}, past end of program")
            }
            ProgramError::InitRegsLength { got, want } => {
                write!(f, "init_regs has length {got}, expected {want}")
            }
            ProgramError::BadRegCount(n) => write!(f, "register count {n} not in 1..=256"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Build a program with zeroed initial registers and no initial
    /// memory.
    pub fn new(instrs: Vec<Instr>, num_regs: usize) -> Self {
        Program {
            instrs,
            num_regs,
            init_regs: vec![0; num_regs],
            init_mem: Vec::new(),
        }
    }

    /// Builder: set the initial register file.
    ///
    /// # Panics
    /// Panics if `regs.len() != self.num_regs`.
    pub fn with_init_regs(mut self, regs: Vec<u32>) -> Self {
        assert_eq!(regs.len(), self.num_regs, "init_regs length");
        self.init_regs = regs;
        self
    }

    /// Builder: set the initial data memory image.
    pub fn with_init_mem(mut self, mem: Vec<u32>) -> Self {
        self.init_mem = mem;
        self
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True iff the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Reject a register-file size outside `1..=256` — before anything
    /// is sized by it.
    pub(crate) fn check_reg_count(num_regs: usize) -> Result<(), ProgramError> {
        if num_regs == 0 || num_regs > 256 {
            return Err(ProgramError::BadRegCount(num_regs));
        }
        Ok(())
    }

    /// Check every register index and control-flow target against the
    /// program's own parameters. Every processor model calls this before
    /// running.
    ///
    /// A branch/jump target equal to `instrs.len()` is allowed (falling
    /// off the end halts, like an implicit final `halt`).
    pub fn validate(&self) -> Result<(), ProgramError> {
        Self::check_reg_count(self.num_regs)?;
        if self.init_regs.len() != self.num_regs {
            return Err(ProgramError::InitRegsLength {
                got: self.init_regs.len(),
                want: self.num_regs,
            });
        }
        for (at, i) in self.instrs.iter().enumerate() {
            if let Some(reg) = i.max_reg() {
                if reg as usize >= self.num_regs {
                    return Err(ProgramError::RegOutOfRange {
                        at,
                        reg,
                        num_regs: self.num_regs,
                    });
                }
            }
            let target = match *i {
                Instr::Branch { target, .. } | Instr::Jump { target } => Some(target),
                _ => None,
            };
            if let Some(target) = target {
                if target as usize > self.instrs.len() {
                    return Err(ProgramError::TargetOutOfRange { at, target });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, BranchCond, Reg};

    #[test]
    fn valid_program_passes() {
        let p = Program::new(
            vec![
                Instr::LoadImm { rd: Reg(0), imm: 1 },
                Instr::Alu {
                    op: AluOp::Add,
                    rd: Reg(1),
                    rs1: Reg(0),
                    rs2: Reg(0),
                },
                Instr::Halt,
            ],
            4,
        );
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn register_out_of_range_detected() {
        let p = Program::new(vec![Instr::LoadImm { rd: Reg(7), imm: 0 }], 4);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::RegOutOfRange { at: 0, reg: 7, .. })
        ));
    }

    #[test]
    fn target_one_past_end_is_allowed_but_beyond_rejected() {
        let ok = Program::new(vec![Instr::Jump { target: 1 }], 1);
        assert_eq!(ok.validate(), Ok(()));
        let bad = Program::new(vec![Instr::Jump { target: 2 }], 1);
        assert!(matches!(
            bad.validate(),
            Err(ProgramError::TargetOutOfRange { at: 0, target: 2 })
        ));
        let bad_branch = Program::new(
            vec![Instr::Branch {
                cond: BranchCond::Eq,
                rs1: Reg(0),
                rs2: Reg(0),
                target: 9,
            }],
            1,
        );
        assert!(bad_branch.validate().is_err());
    }

    #[test]
    fn bad_reg_counts_rejected() {
        let mut p = Program::new(vec![Instr::Halt], 4);
        p.num_regs = 0;
        assert_eq!(p.validate(), Err(ProgramError::BadRegCount(0)));
        let mut p = Program::new(vec![Instr::Halt], 4);
        p.num_regs = 257;
        assert_eq!(p.validate(), Err(ProgramError::BadRegCount(257)));
    }

    #[test]
    fn init_regs_length_checked() {
        let mut p = Program::new(vec![Instr::Halt], 4);
        p.init_regs = vec![0; 3];
        assert!(matches!(
            p.validate(),
            Err(ProgramError::InitRegsLength { got: 3, want: 4 })
        ));
    }

    #[test]
    #[should_panic(expected = "init_regs length")]
    fn builder_checks_reg_length() {
        let _ = Program::new(vec![Instr::Halt], 4).with_init_regs(vec![1, 2]);
    }
}
