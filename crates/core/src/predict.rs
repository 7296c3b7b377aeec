//! Branch predictors.
//!
//! The paper assumes a fetch mechanism (trace cache + branch
//! prediction, §2) without fixing a predictor; we provide the standard
//! menu so the misprediction-recovery machinery ("revert from branch
//! misprediction in one clock cycle") can be exercised at any accuracy
//! point, including a *perfect* oracle for pure-dataflow studies.

use ultrascalar_isa::{wrap, Instr, Interp, Program};

/// Which predictor a processor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Oracle: the golden interpreter runs in lock-step with fetch and
    /// supplies every branch's true direction, so fetch follows the
    /// architecturally correct path (zero mispredictions).
    Perfect,
    /// Always predict not-taken (fall through).
    NotTaken,
    /// Always predict taken.
    Taken,
    /// Backward-taken / forward-not-taken.
    Btfn,
    /// Bimodal table of 2-bit saturating counters with the given number
    /// of entries (power of two recommended).
    Bimodal(usize),
}

/// Dynamic predictor state: the bimodal's counters, or the perfect
/// predictor's oracle.
#[derive(Debug, Clone)]
pub struct Predictor {
    kind: PredictorKind,
    counters: Vec<u8>,
    /// The golden interpreter, stepped once per fetched instruction
    /// (perfect prediction only).
    oracle: Option<Interp>,
}

impl Predictor {
    /// Instantiate a predictor for a run of `program`. The perfect
    /// predictor's oracle runs it over a memory of `mem_words` words,
    /// the size the processor's memory wraps addresses at; the other
    /// kinds ignore both.
    ///
    /// # Panics
    /// Panics for `Bimodal(0)`.
    pub fn new(kind: PredictorKind, program: &Program, mem_words: usize) -> Self {
        let counters = match kind {
            PredictorKind::Bimodal(entries) => {
                assert!(entries > 0, "bimodal predictor needs entries");
                vec![1u8; entries] // weakly not-taken
            }
            _ => Vec::new(),
        };
        let oracle = (kind == PredictorKind::Perfect).then(|| Interp::new(program, mem_words));
        Predictor {
            kind,
            counters,
            oracle,
        }
    }

    /// The kind this predictor was built with.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// Rewind for a new run of `program`, in place and allocation-free
    /// once the oracle's buffers are large enough: every bimodal
    /// counter returns to its power-on weakly-not-taken state and the
    /// oracle restarts, exactly as
    /// `Predictor::new(self.kind(), program, mem_words)` would start.
    pub fn reset(&mut self, program: &Program, mem_words: usize) {
        self.counters.fill(1);
        if let Some(oracle) = &mut self.oracle {
            oracle.reset(program, mem_words);
        }
    }

    /// The pc fetch continues from after `instr` at `pc`: a jump's
    /// target, the predicted direction of a conditional branch, the
    /// halt itself (fetch stops there), otherwise the next instruction.
    ///
    /// The perfect predictor steps its oracle once per call, so fetch
    /// must call this for every instruction it supplies, in order.
    pub fn next_pc(&mut self, pc: usize, instr: Instr) -> usize {
        let golden = self.oracle.as_mut().map(|oracle| {
            debug_assert_eq!(oracle.pc, pc, "perfect fetch left the golden path");
            oracle
                .step()
                .expect("perfect fetch supplies nothing past the golden halt")
        });
        match instr {
            Instr::Jump { target } => target as usize,
            Instr::Branch { target, .. } => {
                let target = target as usize;
                let taken = match self.kind {
                    PredictorKind::Perfect => golden
                        .and_then(|rec| rec.taken)
                        .expect("the oracle executed this branch"),
                    PredictorKind::NotTaken => false,
                    PredictorKind::Taken => true,
                    PredictorKind::Btfn => target <= pc,
                    PredictorKind::Bimodal(_) => self.counters[self.index(pc)] >= 2,
                };
                if taken {
                    target
                } else {
                    pc + 1
                }
            }
            Instr::Halt => pc,
            _ => pc + 1,
        }
    }

    /// The bimodal counter of the branch at `pc`: `pc` modulo the table
    /// size.
    #[inline]
    fn index(&self, pc: usize) -> usize {
        wrap(pc, self.counters.len())
    }

    /// Train on a resolved branch.
    pub fn update(&mut self, pc: usize, taken: bool) {
        if let PredictorKind::Bimodal(_) = self.kind {
            let i = self.index(pc);
            let c = &mut self.counters[i];
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrascalar_isa::{BranchCond, Reg};

    /// A heuristic predictor (its program is never read).
    fn predictor(kind: PredictorKind) -> Predictor {
        Predictor::new(kind, &Program::new(vec![Instr::Halt], 1), 1)
    }

    /// Does `p` predict the branch at `pc` to `target` taken?
    fn taken(p: &mut Predictor, pc: usize, target: usize) -> bool {
        let branch = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg(0),
            rs2: Reg(0),
            target: target as u32,
        };
        p.next_pc(pc, branch) == target
    }

    #[test]
    fn static_predictors() {
        let mut nt = predictor(PredictorKind::NotTaken);
        assert!(!taken(&mut nt, 10, 2));
        let mut t = predictor(PredictorKind::Taken);
        assert!(taken(&mut t, 10, 2));
        let mut b = predictor(PredictorKind::Btfn);
        assert!(taken(&mut b, 10, 2)); // backward: taken
        assert!(!taken(&mut b, 10, 20)); // forward: not taken
    }

    #[test]
    fn bimodal_learns_a_loop_branch() {
        let mut p = predictor(PredictorKind::Bimodal(16));
        // Initially weakly not-taken.
        assert!(!taken(&mut p, 5, 1));
        // Train taken twice → predicts taken.
        p.update(5, true);
        p.update(5, true);
        assert!(taken(&mut p, 5, 1));
        // Saturates: one not-taken doesn't flip it.
        p.update(5, true);
        p.update(5, false);
        assert!(taken(&mut p, 5, 1));
        // But repeated not-taken does.
        p.update(5, false);
        p.update(5, false);
        assert!(!taken(&mut p, 5, 1));
    }

    #[test]
    fn bimodal_entries_are_independent_mod_table() {
        let mut p = predictor(PredictorKind::Bimodal(4));
        p.update(0, true);
        p.update(0, true);
        assert!(taken(&mut p, 0, 0));
        assert!(!taken(&mut p, 1, 0)); // untrained entry
        assert!(taken(&mut p, 4, 0)); // aliases with pc 0
    }

    /// The bimodal index is `pc` modulo the table size, at every size.
    #[test]
    fn bimodal_index_is_pc_modulo_entries() {
        use rand::Rng;
        rand::cases(0x9ED1_0001, 64, |rng, i| {
            let entries = match i % 2 {
                0 => 1usize << rng.gen_range(0..12),
                _ => rng.gen_range(1..1000),
            };
            let p = predictor(PredictorKind::Bimodal(entries));
            let pcs = [0, entries - 1, entries, entries + 1, 3 * entries];
            for pc in pcs.into_iter().chain([rng.gen_range(0usize..1 << 20)]) {
                assert_eq!(p.index(pc), pc % entries, "pc {pc}, {entries} entries");
            }
        });
    }

    #[test]
    #[should_panic(expected = "needs entries")]
    fn zero_entry_bimodal_rejected() {
        let _ = predictor(PredictorKind::Bimodal(0));
    }
}
