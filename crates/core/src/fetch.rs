//! Instruction supply: one fetch unit that follows the predicted path.
//!
//! The paper connects stations to "an instruction trace cache via
//! fat-tree networks" (§2) and assumes fetch width scales with issue
//! width. Supply here is that ideal trace cache: fetch supplies up to
//! one instruction per freed station per cycle, follows the predicted
//! path, and after a misprediction redirect supplies again on the next
//! cycle. Under perfect prediction the predictor's oracle is the
//! golden interpreter, stepped once per fetched instruction: fetch
//! never leaves the committed path, so the k-th fetch is the k-th
//! golden step and no redirect ever comes.

use crate::predict::{Predictor, PredictorKind};
use ultrascalar_isa::{Instr, Program};

/// One fetched instruction.
#[derive(Debug, Clone, Copy)]
pub struct Fetched {
    /// Static index (`program.len()` for the synthetic halt).
    pub pc: usize,
    /// The instruction.
    pub instr: Instr,
    /// The pc fetch continued from (prediction for branches).
    pub predicted_next: usize,
}

/// The fetch unit.
#[derive(Debug, Clone)]
pub struct FetchUnit {
    /// The instructions being fetched.
    instrs: Vec<Instr>,
    /// Next pc to fetch, or `None` after supplying a halt.
    cur_pc: Option<usize>,
    /// The branch predictor consulted at fetch.
    predictor: Predictor,
}

impl FetchUnit {
    /// Build a fetch unit for `program` with the given predictor, over
    /// a memory of `mem_words` words (the size the processor's memory
    /// wraps addresses at, which the perfect predictor's oracle needs).
    pub fn new(program: &Program, kind: PredictorKind, mem_words: usize) -> Self {
        FetchUnit {
            instrs: program.instrs.clone(),
            cur_pc: Some(0),
            predictor: Predictor::new(kind, program, mem_words),
        }
    }

    /// Rewind to the start of `program`, keeping the predictor kind.
    /// Equivalent to building a new unit, but allocation-free once the
    /// retained buffers are large enough.
    pub fn reset(&mut self, program: &Program, mem_words: usize) {
        self.instrs.clone_from(&program.instrs);
        self.cur_pc = Some(0);
        self.predictor.reset(program, mem_words);
    }

    /// Fetch the next instruction along the (predicted) path, or `None`
    /// if fetch has stopped (a halt was supplied).
    #[allow(clippy::should_implement_trait)] // deliberate hardware name
    pub fn next(&mut self) -> Option<Fetched> {
        let pc = self.cur_pc?;
        let Some(&instr) = self.instrs.get(pc) else {
            // Synthetic halt: falling off the end stops the machine
            // (matching the golden interpreter).
            self.cur_pc = None;
            return Some(Fetched {
                pc,
                instr: Instr::Halt,
                predicted_next: pc,
            });
        };
        let predicted_next = self.predictor.next_pc(pc, instr);
        self.cur_pc = (!matches!(instr, Instr::Halt)).then_some(predicted_next);
        Some(Fetched {
            pc,
            instr,
            predicted_next,
        })
    }

    /// Has fetch run dry (halt supplied)?
    pub fn exhausted(&self) -> bool {
        self.cur_pc.is_none()
    }

    /// Redirect to the architecturally correct pc after a misprediction
    /// flush.
    ///
    /// # Panics
    /// Panics under perfect prediction (it can never mispredict).
    pub fn redirect(&mut self, pc: usize) {
        assert!(
            self.predictor.kind() != PredictorKind::Perfect,
            "perfect fetch redirected — misprediction under a perfect oracle"
        );
        self.cur_pc = Some(pc);
    }

    /// Train the predictor on a resolved branch.
    pub fn train(&mut self, pc: usize, taken: bool) {
        self.predictor.update(pc, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrascalar_isa::{workload, Interp};
    use ultrascalar_isa::{BranchCond, Reg};

    fn branchy_program() -> Program {
        // 0: beq r0, r0, 3   (always taken)
        // 1: nop
        // 2: nop
        // 3: halt
        Program::new(
            vec![
                Instr::Branch {
                    cond: BranchCond::Eq,
                    rs1: Reg(0),
                    rs2: Reg(0),
                    target: 3,
                },
                Instr::Nop,
                Instr::Nop,
                Instr::Halt,
            ],
            1,
        )
    }

    #[test]
    fn path_fetch_follows_not_taken_prediction() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        // Predicts fall-through: 0, 1, 2, 3(halt) then stops.
        assert_eq!(pcs, vec![0, 1, 2, 3]);
        assert!(f.exhausted());
    }

    #[test]
    fn path_fetch_follows_taken_prediction() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::Taken, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        assert_eq!(pcs, vec![0, 3]);
    }

    #[test]
    fn perfect_fetch_replays_golden_path() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        assert_eq!(pcs, vec![0, 3]);
    }

    #[test]
    fn redirect_resumes_on_correct_path() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1 << 16);
        assert_eq!(f.next().unwrap().pc, 0);
        assert_eq!(f.next().unwrap().pc, 1);
        // Branch resolves taken: redirect to 3.
        f.redirect(3);
        assert_eq!(f.next().unwrap().pc, 3);
        assert!(f.next().is_none());
    }

    #[test]
    fn falling_off_end_supplies_synthetic_halt() {
        let p = Program::new(vec![Instr::Nop], 1);
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1 << 16);
        assert_eq!(f.next().unwrap().pc, 0);
        let halt = f.next().unwrap();
        assert_eq!(halt.pc, 1);
        assert!(matches!(halt.instr, Instr::Halt));
        assert!(f.next().is_none());

        // Perfect prediction does the same.
        let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1 << 16);
        assert_eq!(f.next().unwrap().pc, 0);
        assert!(matches!(f.next().unwrap().instr, Instr::Halt));
        assert!(f.next().is_none());
    }

    #[test]
    fn jump_targets_are_followed_without_prediction() {
        let p = Program::new(vec![Instr::Jump { target: 2 }, Instr::Nop, Instr::Halt], 1);
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        assert_eq!(pcs, vec![0, 2]);
    }

    #[test]
    fn perfect_fetch_on_kernels_matches_interp_pc_stream() {
        for (name, p) in workload::standard_suite(1) {
            let mut interp = Interp::new(&p, 1 << 16);
            let (_, trace) = interp.run_traced(1_000_000);
            let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1 << 16);
            for rec in &trace {
                let got = f.next().expect("fetch supplies whole trace");
                assert_eq!(got.pc, rec.pc, "{name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "perfect fetch redirected")]
    fn perfect_redirect_panics() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1 << 16);
        f.redirect(0);
    }
}
