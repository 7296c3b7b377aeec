//! Host speed calibration.
//!
//! On a shared host, each CPU's speed for the simulator's kind of code
//! flips between a fast and a slow state, about half speed, that lasts
//! from a second to many minutes, one CPU independently of the other.
//! That moves every host time the benchmark takes by far more than a
//! regression bound. So a workload interleaves short bursts of a fixed
//! reference job with its timed operations on the same thread, and
//! reports each time at reference speed: the operation's 10th
//! percentile over its repeats ([`crate::QUANTILE`]), divided by the
//! bursts' 10th percentile over the reference host's (the job's
//! [`Job::reference_ns`]). When the fast state covers a tenth of the
//! run, both percentiles come from it; when the slow state covers the
//! run, both come from that and the division cancels most of it. The
//! raw times are printed too.
//!
//! A reference job is owned by the benchmark and runs fixed inputs, so
//! nothing in it depends on the seed or on code a later change could
//! speed up. Its shape decides how closely it follows the work it
//! calibrates, because the slow state slows some code far more than
//! other code: pure arithmetic loops, table walks and a bytecode loop
//! with inlined dispatch keep their speed while the simulator halves.
//! [`Job::Interpreter`] follows the simulator's engines: each run clones
//! a program and allocates its memory, and each instruction goes
//! through an out-of-line `step` that returns a record, like the
//! repository's golden interpreter. [`Job::Codec`] follows a server's
//! request plane (request decoding and encoding around short
//! simulations), which slows about half as much as the engines.

use std::collections::HashMap;
use std::time::Instant;

use ultrascalar_isa::{AluOp, BranchCond, Instr, Program};

/// Runs of the reference job per burst.
const RUNS_PER_BURST: usize = 16;

/// The program the codec job escapes and scans.
const CODEC_TEXT: &str = "mul r3, r1, r2\nadd r4, r3, r1\nxor r5, r4, r2\nhalt\n\
                          .reg r1, 48271\n.reg r2, 16807\n";

/// A reference job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// An interpreter of one fixed program.
    Interpreter,
    /// A request line's codec: escape a fixed program into a request
    /// line and scan it back.
    Codec,
}

impl Job {
    /// The [`crate::QUANTILE`] of a burst's median run time on the
    /// reference host (see `benchmark/README.md`), in nanoseconds.
    pub fn reference_ns(self) -> f64 {
        match self {
            Job::Interpreter => 1_300.0,
            Job::Codec => 7_000.0,
        }
    }
}

/// Times bursts of a reference job on the calling thread.
pub struct HostClock {
    job: Job,
    program: Program,
    text: String,
    /// Each burst's median run time so far, in nanoseconds.
    pub bursts: Vec<f64>,
}

impl HostClock {
    pub fn new(job: Job) -> Result<HostClock, String> {
        let k = &crate::gen::SUITE[0];
        let program = crate::suite::assemble(&k.text(0, k.suite_n), k.regs)?;
        Ok(HostClock {
            job,
            program,
            text: CODEC_TEXT.to_string(),
            bursts: Vec::new(),
        })
    }

    /// Time one burst; keep and return its median run time. The median
    /// leaves out the first runs, which pay for caches the workload's
    /// own operations evicted.
    pub fn burst(&mut self) -> f64 {
        let mut runs = [0.0; RUNS_PER_BURST];
        for run in &mut runs {
            let t0 = Instant::now();
            match self.job {
                Job::Interpreter => {
                    std::hint::black_box(Machine::new(std::hint::black_box(&self.program)).run());
                }
                Job::Codec => {
                    std::hint::black_box(codec(std::hint::black_box(&self.text)));
                }
            }
            *run = t0.elapsed().as_nanos() as f64;
        }
        let median = crate::stats::median(&runs);
        self.bursts.push(median);
        median
    }

    /// How much slower than the reference host the bursts so far ran.
    pub fn slowdown(&self) -> f64 {
        slowdown(self.job, &self.bursts)
    }
}

/// How much slower than the reference host `bursts` of `job` ran: their
/// [`crate::QUANTILE`] over the reference. A host time's quantile
/// divided by it, or a rate multiplied by it, is at reference speed.
pub fn slowdown(job: Job, bursts: &[f64]) -> f64 {
    crate::stats::percentile_or_extreme(bursts, crate::QUANTILE) / job.reference_ns()
}

/// One run of the codec job: escape `text` into a request line, then
/// scan the line back, unescaping it, reading its digits as a number
/// and counting its words in a map.
fn codec(text: &str) -> usize {
    let line = crate::gen::request_line(text, "hybrid", 16);
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    let mut number = 0usize;
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(e) => out.push(e),
                None => {}
            },
            '0'..='9' => {
                number = number
                    .wrapping_mul(10)
                    .wrapping_add(c as usize - '0' as usize);
                out.push(c);
            }
            c => out.push(c),
        }
    }
    let mut words: HashMap<String, usize> = HashMap::new();
    for w in out.split(|c: char| !c.is_alphanumeric()) {
        *words.entry(w.to_string()).or_default() += 1;
    }
    out.len() ^ number ^ words.len()
}

/// The reference job's machine: one fixed program's architectural
/// state.
struct Machine {
    instrs: Vec<Instr>,
    pc: usize,
    regs: Vec<u32>,
    mem: Vec<u32>,
    halted: bool,
    steps: usize,
}

/// What one step did.
#[derive(Clone, Copy)]
struct Record {
    _seq: usize,
    _pc: usize,
    _instr: Instr,
    _result: Option<u32>,
    _mem_addr: Option<usize>,
    _taken: Option<bool>,
    _next_pc: usize,
}

impl Machine {
    fn new(p: &Program) -> Machine {
        let mut mem = vec![0u32; p.init_mem.len().max(1024)];
        mem[..p.init_mem.len()].copy_from_slice(&p.init_mem);
        Machine {
            instrs: p.instrs.clone(),
            pc: 0,
            regs: p.init_regs.clone(),
            mem,
            halted: false,
            steps: 0,
        }
    }

    /// Run to the end; returns the instructions executed.
    fn run(&mut self) -> usize {
        while self.step().is_some() && !self.halted {}
        self.steps
    }

    #[inline(never)]
    fn step(&mut self) -> Option<Record> {
        if self.halted {
            return None;
        }
        let Some(&instr) = self.instrs.get(self.pc) else {
            self.halted = true;
            return None;
        };
        let pc = self.pc;
        let words = self.mem.len();
        let (mut result, mut mem_addr, mut taken, mut next_pc) = (None, None, None, pc + 1);
        match instr {
            Instr::Nop => {}
            Instr::Halt => self.halted = true,
            Instr::Jump { target } => next_pc = target as usize,
            Instr::LoadImm { rd, imm } => {
                self.regs[rd.index()] = imm as u32;
                result = Some(imm as u32);
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = alu(op, self.regs[rs1.index()], self.regs[rs2.index()]);
                self.regs[rd.index()] = v;
                result = Some(v);
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = alu(op, self.regs[rs1.index()], imm as u32);
                self.regs[rd.index()] = v;
                result = Some(v);
            }
            Instr::Load { rd, base, offset } => {
                let at = self.regs[base.index()].wrapping_add(offset as u32) as usize % words;
                self.regs[rd.index()] = self.mem[at];
                result = Some(self.mem[at]);
                mem_addr = Some(at);
            }
            Instr::Store { src, base, offset } => {
                let at = self.regs[base.index()].wrapping_add(offset as u32) as usize % words;
                self.mem[at] = self.regs[src.index()];
                mem_addr = Some(at);
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let t = branch(cond, self.regs[rs1.index()], self.regs[rs2.index()]);
                taken = Some(t);
                if t {
                    next_pc = target as usize;
                }
            }
        }
        if next_pc >= self.instrs.len() {
            self.halted = true;
        }
        self.pc = next_pc;
        let record = Record {
            _seq: self.steps,
            _pc: pc,
            _instr: instr,
            _result: result,
            _mem_addr: mem_addr,
            _taken: taken,
            _next_pc: next_pc,
        };
        self.steps += 1;
        Some(record)
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => a.checked_rem(b).unwrap_or(a),
    }
}

fn branch(cond: BranchCond, a: u32, b: u32) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i32) < (b as i32),
        BranchCond::Ge => (a as i32) >= (b as i32),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_job_matches_the_golden_interpreter() {
        let clock = HostClock::new(Job::Interpreter).expect("reference program assembles");
        let mut m = Machine::new(&clock.program);
        let steps = m.run();
        let mut golden = ultrascalar_isa::Interp::new(&clock.program, 1024);
        assert!(golden.run(1_000_000).halted());
        assert_eq!(steps, golden.steps());
        assert_eq!(m.regs, golden.regs);
        assert_eq!(m.mem[..golden.mem.len()], golden.mem[..]);
    }

    #[test]
    fn the_codec_job_reads_back_what_it_wrote() {
        let clock = HostClock::new(Job::Codec).expect("reference program assembles");
        let line = crate::gen::request_line(&clock.text, "hybrid", 16);
        assert!(line.contains("\\n.reg r1, 48271"));
        assert_eq!(codec(&clock.text), codec(&clock.text));
    }
}
