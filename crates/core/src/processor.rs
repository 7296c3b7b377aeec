//! The common processor interface and run results.

use crate::stats::ProcStats;
use crate::timing::InstrTiming;
use ultrascalar_isa::{MemImage, Program};

/// The outcome of running a program to completion on a processor model.
///
/// `Default` is the empty (no run yet) state; it exists so callers of
/// [`Processor::run_reusing`] can hold one result buffer and let each
/// run overwrite it in place, reusing the vectors' capacity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Did the program's halt commit (vs the cycle budget expiring)?
    pub halted: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Committed architectural register file.
    pub regs: Vec<u32>,
    /// Final data-memory contents. A page-tracked image: a run copies
    /// into it, and `==` compares, only the pages either side may have
    /// written, so a reused buffer costs the memory a run touched, not
    /// the configured `mem.words`. Read it as a `[u32]` slice.
    pub mem: MemImage,
    /// Statistics.
    pub stats: ProcStats,
    /// The per-instruction timing record (the paper's Figure 3 data):
    /// one entry per committed instruction, in program order. It is a
    /// sink the caller supplies: a run fills it only when the buffer it
    /// writes into holds `Some` (see [`RunResult::recording_timings`]),
    /// and `None` records nothing, so a run's memory does not grow with
    /// its length. `Default` is `None`.
    pub timings: Option<Vec<InstrTiming>>,
}

impl RunResult {
    /// An empty result buffer that asks the run writing into it to
    /// record per-instruction timings.
    pub fn recording_timings() -> Self {
        RunResult {
            timings: Some(Vec::new()),
            ..RunResult::default()
        }
    }

    /// The recorded timings.
    ///
    /// # Panics
    /// Panics if the run was not asked to record them.
    pub fn recorded_timings(&self) -> &[InstrTiming] {
        self.timings
            .as_deref()
            .expect("the run was not asked to record timings")
    }

    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// A processor model that can run a program to completion.
pub trait Processor {
    /// Short display name ("ultrascalar-i", "hybrid(C=8)", …).
    fn name(&self) -> String;

    /// Run `program` until its halt commits or the cycle budget runs
    /// out, recording no timings.
    fn run(&mut self, program: &Program) -> RunResult {
        let mut out = RunResult::default();
        self.run_reusing(program, &mut out);
        out
    }

    /// [`Processor::run`], recording the per-instruction timings.
    fn run_timed(&mut self, program: &Program) -> RunResult {
        let mut out = RunResult::recording_timings();
        self.run_reusing(program, &mut out);
        out
    }

    /// Run `program`, writing the outcome into `out` in place. Previous
    /// contents of `out` are fully overwritten, except that
    /// `out.timings` chooses whether the run records timings (`Some`
    /// is cleared and filled, `None` stays `None`). Models reuse
    /// `out`'s buffers instead of allocating a fresh result, and those
    /// that retain working state across runs reuse that too, which is
    /// what makes a warm engine's request loop allocation-free.
    fn run_reusing(&mut self, program: &Program, out: &mut RunResult);
}

/// Compare a run result against the golden interpreter's architectural
/// state; returns a human-readable mismatch description if any.
pub fn check_against_golden(
    result: &RunResult,
    program: &Program,
    max_steps: usize,
) -> Result<(), String> {
    let mut interp = ultrascalar_isa::Interp::new(program, result.mem.len());
    let out = interp.run(max_steps);
    if !out.halted() {
        return Err("golden interpreter did not halt within fuel".into());
    }
    if !result.halted {
        return Err("processor did not halt within cycle budget".into());
    }
    if interp.regs.len() != result.regs.len() {
        return Err(format!(
            "register counts differ: golden {}, processor {}",
            interp.regs.len(),
            result.regs.len()
        ));
    }
    for (i, (a, b)) in interp.regs.iter().zip(&result.regs).enumerate() {
        if a != b {
            return Err(format!("register r{i}: golden {a}, processor {b}"));
        }
    }
    if result.stats.committed != out.steps() as u64 {
        return Err(format!(
            "committed count: golden {}, processor {}",
            out.steps(),
            result.stats.committed
        ));
    }
    if interp.mem.len() != result.mem.len() {
        return Err(format!(
            "memory sizes differ: golden {}, processor {}",
            interp.mem.len(),
            result.mem.len()
        ));
    }
    // Every word, not the page-tracked `==`: the oracle must not trust
    // the page marks of the image it is checking.
    for (addr, (a, b)) in interp.mem.iter().zip(result.mem.iter()).enumerate() {
        if a != b {
            return Err(format!("memory[{addr}]: golden {a}, processor {b}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrascalar_isa::{Instr, Interp, Reg};

    /// Four words of initial memory; stores 7 at word 2 and halts.
    fn program() -> Program {
        Program::new(
            vec![
                Instr::LoadImm { rd: Reg(0), imm: 2 },
                Instr::LoadImm { rd: Reg(1), imm: 7 },
                Instr::Store {
                    src: Reg(1),
                    base: Reg(0),
                    offset: 0,
                },
                Instr::Halt,
            ],
            2,
        )
        .with_init_mem(vec![1, 2, 3, 4])
    }

    /// The result a correct processor with 64 Ki words of memory
    /// returns for `p`.
    fn correct(p: &Program) -> RunResult {
        let mut interp = Interp::new(p, 1 << 16);
        let steps = interp.run(100).steps();
        let mut r = RunResult {
            halted: true,
            regs: interp.regs.clone(),
            mem: interp.mem.clone(),
            ..RunResult::default()
        };
        r.stats.committed = steps as u64;
        r
    }

    fn mismatch(corrupt: impl FnOnce(&mut RunResult)) -> String {
        let p = program();
        let mut r = correct(&p);
        assert_eq!(check_against_golden(&r, &p, 100), Ok(()));
        corrupt(&mut r);
        check_against_golden(&r, &p, 100).expect_err("the corrupted result passed")
    }

    #[test]
    fn a_wrong_register_is_named() {
        let e = mismatch(|r| r.regs[1] = 8);
        assert_eq!(e, "register r1: golden 7, processor 8");
    }

    #[test]
    fn a_missing_register_is_reported() {
        let e = mismatch(|r| r.regs.truncate(1));
        assert_eq!(e, "register counts differ: golden 2, processor 1");
    }

    #[test]
    fn a_wrong_committed_count_is_reported() {
        let e = mismatch(|r| r.stats.committed += 1);
        assert_eq!(e, "committed count: golden 4, processor 5");
    }

    #[test]
    fn a_wrong_memory_size_is_reported() {
        // The golden memory is sized from the result's, but never below
        // the program's four-word image.
        let e = mismatch(|r| r.mem = MemImage::new(3));
        assert_eq!(e, "memory sizes differ: golden 4, processor 3");
    }

    #[test]
    fn a_stray_store_at_a_high_address_is_named() {
        let e = mismatch(|r| r.mem.write(65_000, 9));
        assert_eq!(e, "memory[65000]: golden 0, processor 9");
    }
}
