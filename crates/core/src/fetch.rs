//! Instruction supply: a predicted-path fetch unit and a perfect-oracle
//! replay unit.
//!
//! The paper connects stations to "an instruction trace cache via
//! fat-tree networks" (§2) and assumes fetch width scales with issue
//! width; here fetch supplies up to one instruction per freed station
//! per cycle and follows the predicted path until redirected by a
//! misprediction.

use crate::predict::{Predictor, PredictorKind};
use ultrascalar_isa::{Instr, Interp, Program};

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
pub enum FetchUnit {
    /// Follow the static program along the predicted path.
    Path {
        /// The program being fetched.
        program: Program,
        /// Next pc to fetch, or `None` after supplying a halt.
        cur_pc: Option<usize>,
        /// The branch predictor consulted at fetch.
        predictor: Predictor,
    },
    /// Replay the architecturally correct path (perfect prediction).
    Replay {
        /// The program the stream was computed from (kept so
        /// [`FetchUnit::reset`] can recognise a same-program rewind and
        /// skip re-running the golden interpreter).
        program: Program,
        /// Pre-computed correct-path fetch stream.
        seq: Vec<Fetched>,
        /// Next position in `seq`.
        pos: usize,
    },
}

impl FetchUnit {
    /// Build a fetch unit for `program` with the given predictor. For
    /// [`PredictorKind::Perfect`] the golden interpreter pre-computes
    /// the correct path (up to `fuel` dynamic instructions) over a
    /// memory of `mem_words` words, the size the processor's memory
    /// wraps addresses at.
    pub fn new(program: &Program, kind: PredictorKind, fuel: usize, mem_words: usize) -> Self {
        match kind {
            PredictorKind::Perfect => {
                let mut interp = Interp::new(program, mem_words);
                let (_, trace) = interp.run_traced(fuel);
                let mut seq: Vec<Fetched> = trace
                    .iter()
                    .map(|r| Fetched {
                        pc: r.pc,
                        instr: r.instr,
                        predicted_next: r.next_pc,
                    })
                    .collect();
                // If the program ran off the end (or the trace ended
                // without an explicit halt), append the synthetic halt
                // the Path unit would supply.
                let ends_with_halt = seq.last().is_some_and(|f| matches!(f.instr, Instr::Halt));
                if !ends_with_halt {
                    let pc = seq.last().map_or(0, |f| f.predicted_next);
                    seq.push(Fetched {
                        pc,
                        instr: Instr::Halt,
                        predicted_next: pc,
                    });
                }
                FetchUnit::Replay {
                    program: program.clone(),
                    seq,
                    pos: 0,
                }
            }
            _ => FetchUnit::Path {
                program: program.clone(),
                cur_pc: Some(0),
                predictor: Predictor::new(kind),
            },
        }
    }

    /// Rewind to the start of `program` with the given predictor kind,
    /// reusing retained buffers wherever the shape allows. Equivalent
    /// to `*self = FetchUnit::new(program, kind, fuel, mem_words)` but
    /// allocation-free when `program` is the one already loaded: a
    /// replay unit rewinds its position instead of re-running the
    /// golden interpreter, and a path unit rewinds its pc and clears
    /// predictor training in place.
    pub fn reset(&mut self, program: &Program, kind: PredictorKind, fuel: usize, mem_words: usize) {
        match self {
            FetchUnit::Replay {
                program: held, pos, ..
            } if kind == PredictorKind::Perfect && held == program => {
                *pos = 0;
                return;
            }
            FetchUnit::Path {
                program: held,
                cur_pc,
                predictor,
            } if kind != PredictorKind::Perfect && predictor.kind() == kind => {
                if held != program {
                    held.instrs.clone_from(&program.instrs);
                    held.num_regs = program.num_regs;
                    held.init_regs.clone_from(&program.init_regs);
                    held.init_mem.clone_from(&program.init_mem);
                }
                *cur_pc = Some(0);
                predictor.reset();
                return;
            }
            _ => {}
        }
        *self = FetchUnit::new(program, kind, fuel, mem_words);
    }

    /// Fetch the next instruction along the (predicted) path, or `None`
    /// if fetch has stopped (a halt was supplied).
    #[allow(clippy::should_implement_trait)] // deliberate hardware name
    pub fn next(&mut self) -> Option<Fetched> {
        match self {
            FetchUnit::Replay { seq, pos, .. } => {
                let f = *seq.get(*pos)?;
                *pos += 1;
                Some(f)
            }
            FetchUnit::Path {
                program,
                cur_pc,
                predictor,
            } => {
                let pc = (*cur_pc)?;
                if pc >= program.instrs.len() {
                    // Synthetic halt: falling off the end stops the
                    // machine (matching the golden interpreter).
                    *cur_pc = None;
                    return Some(Fetched {
                        pc,
                        instr: Instr::Halt,
                        predicted_next: pc,
                    });
                }
                let instr = program.instrs[pc];
                let predicted_next = match instr {
                    Instr::Jump { target } => target as usize,
                    Instr::Branch { target, .. } => {
                        if predictor.predict(pc, target as usize) {
                            target as usize
                        } else {
                            pc + 1
                        }
                    }
                    Instr::Halt => pc, // fetch stops
                    _ => pc + 1,
                };
                *cur_pc = if matches!(instr, Instr::Halt) {
                    None
                } else {
                    Some(predicted_next)
                };
                Some(Fetched {
                    pc,
                    instr,
                    predicted_next,
                })
            }
        }
    }

    /// Has fetch run dry (halt supplied / trace exhausted)?
    pub fn exhausted(&self) -> bool {
        match self {
            FetchUnit::Replay { seq, pos, .. } => *pos >= seq.len(),
            FetchUnit::Path { cur_pc, .. } => cur_pc.is_none(),
        }
    }

    /// Redirect to the architecturally correct pc after a misprediction
    /// flush.
    ///
    /// # Panics
    /// Panics on a perfect-replay unit (it can never mispredict).
    pub fn redirect(&mut self, pc: usize) {
        match self {
            FetchUnit::Replay { .. } => {
                panic!("perfect fetch redirected — misprediction under a perfect oracle")
            }
            FetchUnit::Path { cur_pc, .. } => *cur_pc = Some(pc),
        }
    }

    /// Train the predictor on a resolved branch.
    pub fn train(&mut self, pc: usize, taken: bool) {
        if let FetchUnit::Path { predictor, .. } = self {
            predictor.update(pc, taken);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrascalar_isa::workload;
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
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1000, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        // Predicts fall-through: 0, 1, 2, 3(halt) then stops.
        assert_eq!(pcs, vec![0, 1, 2, 3]);
        assert!(f.exhausted());
    }

    #[test]
    fn path_fetch_follows_taken_prediction() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::Taken, 1000, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        assert_eq!(pcs, vec![0, 3]);
    }

    #[test]
    fn perfect_fetch_replays_golden_path() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1000, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        assert_eq!(pcs, vec![0, 3]);
    }

    #[test]
    fn redirect_resumes_on_correct_path() {
        let p = branchy_program();
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1000, 1 << 16);
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
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1000, 1 << 16);
        assert_eq!(f.next().unwrap().pc, 0);
        let halt = f.next().unwrap();
        assert_eq!(halt.pc, 1);
        assert!(matches!(halt.instr, Instr::Halt));
        assert!(f.next().is_none());

        // Perfect replay does the same.
        let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1000, 1 << 16);
        assert_eq!(f.next().unwrap().pc, 0);
        assert!(matches!(f.next().unwrap().instr, Instr::Halt));
        assert!(f.next().is_none());
    }

    #[test]
    fn jump_targets_are_followed_without_prediction() {
        let p = Program::new(vec![Instr::Jump { target: 2 }, Instr::Nop, Instr::Halt], 1);
        let mut f = FetchUnit::new(&p, PredictorKind::NotTaken, 1000, 1 << 16);
        let pcs: Vec<usize> = std::iter::from_fn(|| f.next()).map(|x| x.pc).collect();
        assert_eq!(pcs, vec![0, 2]);
    }

    #[test]
    fn perfect_fetch_on_kernels_matches_interp_pc_stream() {
        for (name, p) in workload::standard_suite(1) {
            let mut interp = Interp::new(&p, 1 << 16);
            let (_, trace) = interp.run_traced(1_000_000);
            let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1_000_000, 1 << 16);
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
        let mut f = FetchUnit::new(&p, PredictorKind::Perfect, 1000, 1 << 16);
        f.redirect(0);
    }
}

/// A simple trace cache over redirect targets (the paper's instruction
/// supply is "an instruction trace cache \[Rotenberg et al.; Yeh et
/// al.\] via fat-tree networks"). Sequential fetch along the predicted
/// path always hits (the trace under construction); a *redirect* to a
/// target whose trace is not cached pays `miss_penalty` cycles before
/// fetch resumes. LRU over `entries` trace heads.
#[derive(Debug, Clone)]
pub struct TraceCache {
    entries: usize,
    penalty: u64,
    lru: std::collections::VecDeque<usize>,
    /// Redirects that hit a cached trace head.
    pub hits: u64,
    /// Redirects that missed and paid the penalty.
    pub misses: u64,
}

impl TraceCache {
    /// Build with `entries` trace heads and `miss_penalty` stall cycles.
    ///
    /// # Panics
    /// Panics if `entries == 0`.
    pub fn new(entries: usize, miss_penalty: u64) -> Self {
        assert!(entries > 0, "trace cache needs entries");
        TraceCache {
            entries,
            penalty: miss_penalty,
            lru: std::collections::VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Rewind to the as-constructed state for a new run: traces
    /// forgotten, counters cleared, retained capacity kept.
    pub fn reset(&mut self) {
        self.lru.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Record a redirect to `pc`; returns the fetch stall in cycles
    /// (0 on a hit).
    pub fn redirect(&mut self, pc: usize) -> u64 {
        if let Some(idx) = self.lru.iter().position(|&p| p == pc) {
            self.lru.remove(idx);
            self.lru.push_front(pc);
            self.hits += 1;
            0
        } else {
            self.lru.push_front(pc);
            self.lru.truncate(self.entries);
            self.misses += 1;
            self.penalty
        }
    }
}

#[cfg(test)]
mod trace_cache_tests {
    use super::*;

    #[test]
    fn first_redirect_misses_repeat_hits() {
        let mut tc = TraceCache::new(4, 3);
        assert_eq!(tc.redirect(10), 3);
        assert_eq!(tc.redirect(10), 0);
        assert_eq!(tc.hits, 1);
        assert_eq!(tc.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut tc = TraceCache::new(2, 5);
        tc.redirect(1);
        tc.redirect(2);
        tc.redirect(3); // evicts 1
        assert_eq!(tc.redirect(2), 0);
        assert_eq!(tc.redirect(1), 5); // was evicted
    }

    #[test]
    fn touch_refreshes_lru_position() {
        let mut tc = TraceCache::new(2, 5);
        tc.redirect(1);
        tc.redirect(2);
        tc.redirect(1); // refresh 1
        tc.redirect(3); // evicts 2
        assert_eq!(tc.redirect(1), 0);
        assert_eq!(tc.redirect(2), 5);
    }

    #[test]
    #[should_panic(expected = "needs entries")]
    fn zero_entries_rejected() {
        let _ = TraceCache::new(0, 1);
    }
}
