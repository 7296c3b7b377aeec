//! The golden sequential interpreter — the architectural oracle.
//!
//! Every processor model in `ultrascalar` must produce exactly the
//! architectural state (registers, memory, committed instruction
//! stream) that this interpreter produces. The integration tests
//! property-check that equivalence over random programs.
//!
//! Memory is word-addressed and **wraps modulo the memory size**
//! ([`effective_addr`]), so every instruction is total: speculatively
//! executed wrong-path loads and stores in the processor models can
//! never trap, matching the paper's requirement that misprediction
//! recovery needs no clean-up ("nothing needs to be done to recover
//! from misprediction except to fetch new instructions from the
//! correct program path").

use crate::image::{self, effective_addr, MemImage};
use crate::instr::Instr;
use crate::program::Program;

/// One committed instruction in the dynamic execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// Dynamic sequence number (0-based).
    pub seq: usize,
    /// Static instruction index executed.
    pub pc: usize,
    /// The instruction itself.
    pub instr: Instr,
    /// Value written to the destination register, if any.
    pub result: Option<u32>,
    /// Word address touched, for loads and stores.
    pub mem_addr: Option<usize>,
    /// For branches: was it taken?
    pub taken: Option<bool>,
    /// The next pc after this instruction.
    pub next_pc: usize,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A `halt` executed, or the pc fell off the end of the program.
    Halted {
        /// Committed dynamic instruction count.
        steps: usize,
    },
    /// The step budget ran out first.
    OutOfFuel {
        /// Committed dynamic instruction count.
        steps: usize,
    },
}

impl RunOutcome {
    /// Dynamic instructions committed.
    pub fn steps(&self) -> usize {
        match *self {
            RunOutcome::Halted { steps } | RunOutcome::OutOfFuel { steps } => steps,
        }
    }

    /// Did the program halt cleanly?
    pub fn halted(&self) -> bool {
        matches!(self, RunOutcome::Halted { .. })
    }
}

/// Interpreter state.
#[derive(Debug, Clone)]
pub struct Interp {
    /// The program's instructions.
    instrs: Vec<Instr>,
    /// Current program counter (instruction index).
    pub pc: usize,
    /// Register file, length `num_regs` of the program.
    pub regs: Vec<u32>,
    /// Word-addressed data memory. Store through [`MemImage::write`].
    pub mem: MemImage,
    /// Has a `halt` executed (or the pc fallen off the end)?
    pub halted: bool,
    steps: usize,
}

/// Default data-memory size in words when the program's image is
/// smaller: large enough for every kernel in [`crate::workload`].
pub const DEFAULT_MEM_WORDS: usize = 1 << 16;

impl Interp {
    /// Create an interpreter over a validated program.
    ///
    /// Memory is sized [`image::mem_words`]`(mem_words,
    /// &program.init_mem)` and initialised from the program's image
    /// (zero-filled beyond it).
    ///
    /// # Panics
    /// Panics if the program fails [`Program::validate`].
    pub fn new(program: &Program, mem_words: usize) -> Self {
        let mut interp = Interp {
            instrs: Vec::new(),
            pc: 0,
            regs: Vec::new(),
            mem: MemImage::default(),
            halted: false,
            steps: 0,
        };
        interp.reset(program, mem_words);
        interp
    }

    /// Rewind to the start of `program` in place. Equivalent to
    /// `*self = Interp::new(program, mem_words)`, but allocation-free
    /// once the retained buffers are large enough, and the memory costs
    /// the pages the last run wrote (see [`MemImage::reset`]), not its
    /// size.
    ///
    /// # Panics
    /// Panics if the program fails [`Program::validate`].
    pub fn reset(&mut self, program: &Program, mem_words: usize) {
        program
            .validate()
            .expect("program must validate before execution");
        self.instrs.clone_from(&program.instrs);
        self.regs.clone_from(&program.init_regs);
        self.mem.reset(
            image::mem_words(mem_words, &program.init_mem),
            &program.init_mem,
        );
        self.pc = 0;
        self.halted = false;
        self.steps = 0;
    }

    /// Dynamic instructions committed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Execute one instruction; returns its record, or `None` if the
    /// machine is already halted.
    pub fn step(&mut self) -> Option<ExecRecord> {
        if self.halted {
            return None;
        }
        let Some(&instr) = self.instrs.get(self.pc) else {
            // Fell off the end: implicit halt.
            self.halted = true;
            return None;
        };
        let pc = self.pc;
        let mut result = None;
        let mut mem_addr = None;
        let mut taken = None;
        let mut next_pc = pc + 1;
        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
            }
            Instr::Jump { target } => {
                next_pc = target as usize;
            }
            Instr::LoadImm { rd, imm } => {
                let v = imm as u32;
                self.regs[rd.index()] = v;
                result = Some(v);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.apply(self.regs[rs1.index()], self.regs[rs2.index()]);
                self.regs[rd.index()] = v;
                result = Some(v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = op.apply(self.regs[rs1.index()], imm as u32);
                self.regs[rd.index()] = v;
                result = Some(v);
            }
            Instr::Load { rd, base, offset } => {
                let addr = effective_addr(self.regs[base.index()], offset, self.mem.len());
                let v = self.mem[addr];
                self.regs[rd.index()] = v;
                result = Some(v);
                mem_addr = Some(addr);
            }
            Instr::Store { src, base, offset } => {
                let addr = effective_addr(self.regs[base.index()], offset, self.mem.len());
                self.mem.write(addr, self.regs[src.index()]);
                mem_addr = Some(addr);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let t = cond.eval(self.regs[rs1.index()], self.regs[rs2.index()]);
                taken = Some(t);
                if t {
                    next_pc = target as usize;
                }
            }
        }
        if next_pc >= self.instrs.len() {
            // Next fetch would fall off the end; treat as a clean halt
            // after this instruction commits.
            self.halted = true;
        }
        self.pc = next_pc;
        let rec = ExecRecord {
            seq: self.steps,
            pc,
            instr,
            result,
            mem_addr,
            taken,
            next_pc,
        };
        self.steps += 1;
        Some(rec)
    }

    /// Run until halt or until `max_steps` instructions have committed.
    pub fn run(&mut self, max_steps: usize) -> RunOutcome {
        while self.steps < max_steps {
            if self.step().is_none() {
                return RunOutcome::Halted { steps: self.steps };
            }
            if self.halted {
                return RunOutcome::Halted { steps: self.steps };
            }
        }
        RunOutcome::OutOfFuel { steps: self.steps }
    }

    /// Run like [`Interp::run`], collecting the full dynamic trace.
    pub fn run_traced(&mut self, max_steps: usize) -> (RunOutcome, Vec<ExecRecord>) {
        let mut trace = Vec::new();
        while self.steps < max_steps {
            match self.step() {
                None => return (RunOutcome::Halted { steps: self.steps }, trace),
                Some(rec) => trace.push(rec),
            }
            if self.halted {
                return (RunOutcome::Halted { steps: self.steps }, trace);
            }
        }
        (RunOutcome::OutOfFuel { steps: self.steps }, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, BranchCond, Instr, Reg};

    fn prog(instrs: Vec<Instr>, num_regs: usize) -> Program {
        Program::new(instrs, num_regs)
    }

    #[test]
    fn straight_line_arithmetic() {
        let p = prog(
            vec![
                Instr::LoadImm { rd: Reg(0), imm: 6 },
                Instr::LoadImm { rd: Reg(1), imm: 7 },
                Instr::Alu {
                    op: AluOp::Mul,
                    rd: Reg(2),
                    rs1: Reg(0),
                    rs2: Reg(1),
                },
                Instr::Halt,
            ],
            3,
        );
        let mut m = Interp::new(&p, 16);
        let out = m.run(100);
        assert!(out.halted());
        assert_eq!(out.steps(), 4);
        assert_eq!(m.regs[2], 42);
    }

    #[test]
    fn falling_off_the_end_halts() {
        let p = prog(vec![Instr::Nop, Instr::Nop], 1);
        let mut m = Interp::new(&p, 16);
        let out = m.run(100);
        assert!(out.halted());
        assert_eq!(out.steps(), 2);
    }

    #[test]
    fn loop_counts_down() {
        // r0 = 5; loop: r0 = r0 - 1; bne r0, r1, loop; halt
        let p = prog(
            vec![
                Instr::LoadImm { rd: Reg(0), imm: 5 },
                Instr::AluImm {
                    op: AluOp::Sub,
                    rd: Reg(0),
                    rs1: Reg(0),
                    imm: 1,
                },
                Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: Reg(0),
                    rs2: Reg(1),
                    target: 1,
                },
                Instr::Halt,
            ],
            2,
        );
        let mut m = Interp::new(&p, 16);
        let out = m.run(1000);
        assert!(out.halted());
        assert_eq!(m.regs[0], 0);
        // 1 li + 5×(sub+branch) + halt
        assert_eq!(out.steps(), 1 + 10 + 1);
    }

    #[test]
    fn memory_roundtrip_and_wrapping() {
        let p = prog(
            vec![
                Instr::LoadImm {
                    rd: Reg(0),
                    imm: 99,
                },
                Instr::LoadImm { rd: Reg(1), imm: 3 },
                Instr::Store {
                    src: Reg(0),
                    base: Reg(1),
                    offset: 1,
                },
                Instr::Load {
                    rd: Reg(2),
                    base: Reg(1),
                    offset: 1,
                },
                // Wrapping access: base 3 + offset 13 = 16 ≡ 0 (mod 16).
                Instr::Load {
                    rd: Reg(3),
                    base: Reg(1),
                    offset: 13,
                },
                Instr::Halt,
            ],
            4,
        );
        let mut m = Interp::new(&p, 16);
        m.mem.write(0, 1234);
        let out = m.run(100);
        assert!(out.halted());
        assert_eq!(m.mem[4], 99);
        assert_eq!(m.regs[2], 99);
        assert_eq!(m.regs[3], 1234);
    }

    #[test]
    fn negative_offsets() {
        let p = prog(
            vec![
                Instr::LoadImm { rd: Reg(0), imm: 5 },
                Instr::Load {
                    rd: Reg(1),
                    base: Reg(0),
                    offset: -2,
                },
                Instr::Halt,
            ],
            2,
        );
        let mut m = Interp::new(&p, 16);
        m.mem.write(3, 77);
        m.run(100);
        assert_eq!(m.regs[1], 77);
    }

    #[test]
    fn fuel_exhaustion_reports_out_of_fuel() {
        let p = prog(vec![Instr::Jump { target: 0 }], 1);
        let mut m = Interp::new(&p, 16);
        let out = m.run(50);
        assert!(!out.halted());
        assert_eq!(out.steps(), 50);
    }

    #[test]
    fn trace_records_branches_and_memory() {
        let p = prog(
            vec![
                Instr::LoadImm { rd: Reg(0), imm: 1 },
                Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: Reg(0),
                    rs2: Reg(0),
                    target: 3,
                },
                Instr::Nop, // skipped
                Instr::Store {
                    src: Reg(0),
                    base: Reg(0),
                    offset: 0,
                },
                Instr::Halt,
            ],
            1,
        );
        let mut m = Interp::new(&p, 16);
        let (out, trace) = m.run_traced(100);
        assert!(out.halted());
        let pcs: Vec<usize> = trace.iter().map(|r| r.pc).collect();
        assert_eq!(pcs, vec![0, 1, 3, 4]);
        assert_eq!(trace[1].taken, Some(true));
        assert_eq!(trace[2].mem_addr, Some(1));
        assert_eq!(trace[0].result, Some(1));
    }

    #[test]
    fn initial_state_comes_from_program() {
        let p = prog(vec![Instr::Halt], 2)
            .with_init_regs(vec![11, 22])
            .with_init_mem(vec![5, 6, 7]);
        let m = Interp::new(&p, 2);
        assert_eq!(m.regs, vec![11, 22]);
        assert_eq!(&m.mem[..3], &[5, 6, 7]);
        assert!(m.mem.len() >= 3);
    }

    /// Everything a fresh interpreter's state consists of.
    fn assert_same_state(got: &Interp, want: &Interp) {
        assert_eq!(got.instrs, want.instrs);
        assert_eq!(got.pc, want.pc);
        assert_eq!(got.regs, want.regs);
        assert_eq!(got.mem[..], want.mem[..]);
        assert_eq!(got.halted, want.halted);
        assert_eq!(got.steps, want.steps);
    }

    #[test]
    fn reset_matches_a_fresh_interpreter() {
        // Four registers, a 40-word image and a store/load loop.
        let large = prog(
            vec![
                Instr::LoadImm { rd: Reg(0), imm: 0 },
                Instr::LoadImm { rd: Reg(1), imm: 5 },
                Instr::Store {
                    src: Reg(3),
                    base: Reg(0),
                    offset: 20,
                },
                Instr::Load {
                    rd: Reg(2),
                    base: Reg(0),
                    offset: 1,
                },
                Instr::AluImm {
                    op: AluOp::Add,
                    rd: Reg(0),
                    rs1: Reg(0),
                    imm: 1,
                },
                Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: Reg(0),
                    rs2: Reg(1),
                    target: 2,
                },
                Instr::Halt,
            ],
            4,
        )
        .with_init_regs(vec![0, 0, 0, 42])
        .with_init_mem((0..40).collect());
        // One register, a 2-word image, and no halt: it falls off the
        // end.
        let small = prog(
            vec![
                Instr::Load {
                    rd: Reg(0),
                    base: Reg(0),
                    offset: 1,
                },
                Instr::Store {
                    src: Reg(0),
                    base: Reg(0),
                    offset: 0,
                },
            ],
            1,
        )
        .with_init_mem(vec![7, 8]);
        // A store to address -1, which wraps into the last word: in a
        // 64 Ki-word memory that is the last page, which the resets to a
        // smaller and then a larger memory after it must zero.
        let high = prog(
            vec![
                Instr::LoadImm {
                    rd: Reg(0),
                    imm: -1,
                },
                Instr::LoadImm { rd: Reg(1), imm: 9 },
                Instr::Store {
                    src: Reg(1),
                    base: Reg(0),
                    offset: 0,
                },
                Instr::Halt,
            ],
            2,
        );
        let mut reused = Interp::new(&large, 64);
        reused.run(1000);
        for (p, mem_words) in [
            (&small, 4),
            (&large, 16),
            (&small, 128),
            (&large, 64),
            (&high, 1 << 16),
            (&small, 4),
            (&large, 1 << 16),
        ] {
            reused.reset(p, mem_words);
            let mut fresh = Interp::new(p, mem_words);
            assert_same_state(&reused, &fresh);
            assert_eq!(reused.run_traced(1000), fresh.run_traced(1000));
            assert_same_state(&reused, &fresh);
            if std::ptr::eq(p, &high) {
                assert_eq!(reused.mem[(1 << 16) - 1], 9);
            }
        }
    }

    #[test]
    fn step_after_halt_returns_none() {
        let p = prog(vec![Instr::Halt], 1);
        let mut m = Interp::new(&p, 4);
        assert!(m.step().is_some());
        assert!(m.step().is_none());
        assert!(m.step().is_none());
    }
}
