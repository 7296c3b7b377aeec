//! Execution-station state shared by the processor models.

use ultrascalar_isa::Instr;

/// Progress of an instruction's memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPhase {
    /// Not a memory instruction, or not yet eligible.
    None,
    /// Eligible and waiting for the fat tree / bank to accept.
    Requesting,
    /// Accepted; response outstanding.
    InFlight,
}

/// One occupied execution station (paper Figure 2: "each station
/// includes its own functional units, its own register file, instruction
/// decode logic and control logic"). The per-station register file is
/// not materialised — the engine reads each operand from the producer
/// the CSPP datapath would find, linked once when the station is
/// filled (see [`crate::engine`]).
#[derive(Debug, Clone)]
pub struct StationEntry {
    /// Dynamic sequence number (program order, monotone).
    pub seq: u64,
    /// Static instruction index (`>= program.len()` marks the synthetic
    /// halt fetched when the pc falls off the end).
    pub pc: usize,
    /// The decoded instruction.
    pub instr: Instr,
    /// The next pc the fetch unit assumed when it fetched past this
    /// instruction.
    pub predicted_next: usize,
    /// First cycle at which the station may read arguments and issue.
    pub fetched_at: u64,
    /// Cycle the instruction began executing (for memory operations,
    /// the cycle its request was accepted).
    pub issued_at: Option<u64>,
    /// Cycle at whose *end* the result entered the datapath; consumers
    /// may issue from `completed_at + 1`.
    pub completed_at: Option<u64>,
    /// Register result value, if the instruction writes one.
    pub result: Option<u32>,
    /// Memory access progress.
    pub mem: MemPhase,
    /// Resolved branch direction.
    pub taken: Option<bool>,
    /// Effective memory address, recorded when a load/store first
    /// computes it (request offered, or a renaming forward/resolution).
    /// Feeds the flush replay log: wrong-path memory operations shape
    /// the schedule through their addresses, so the lane batcher must
    /// be able to compare a lane's addresses against the leader's.
    pub mem_addr: Option<usize>,
    /// Resolved architectural next pc (branches/jumps; `pc+1` others).
    pub actual_next: Option<usize>,
}

impl StationEntry {
    /// A freshly fetched entry.
    pub fn new(seq: u64, pc: usize, instr: Instr, predicted_next: usize, fetched_at: u64) -> Self {
        StationEntry {
            seq,
            pc,
            instr,
            predicted_next,
            fetched_at,
            issued_at: None,
            completed_at: None,
            result: None,
            mem: MemPhase::None,
            taken: None,
            mem_addr: None,
            actual_next: None,
        }
    }

    /// Has the result been in the datapath since before cycle `t`
    /// (i.e. may a consumer issue at `t`, may the dealloc CSPP see this
    /// station as finished at the start of `t`)?
    #[inline]
    pub fn done_before(&self, t: u64) -> bool {
        self.completed_at.is_some_and(|c| c < t)
    }

    /// Is this the synthetic halt inserted when the pc runs off the end
    /// of the program?
    #[inline]
    pub fn is_synthetic(&self, program_len: usize) -> bool {
        self.pc >= program_len
    }

    /// Did this branch resolve against its prediction?
    #[inline]
    pub fn mispredicted(&self) -> bool {
        match self.actual_next {
            Some(actual) => self.instr.is_branch() && actual != self.predicted_next,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrascalar_isa::{BranchCond, Reg};

    #[test]
    fn done_before_is_strict() {
        let mut e = StationEntry::new(0, 0, Instr::Nop, 1, 0);
        assert!(!e.done_before(5));
        e.completed_at = Some(4);
        assert!(e.done_before(5));
        assert!(!e.done_before(4));
    }

    #[test]
    fn misprediction_detection() {
        let mut e = StationEntry::new(
            0,
            3,
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1: Reg(0),
                rs2: Reg(0),
                target: 9,
            },
            4, // predicted fall-through
            0,
        );
        assert!(!e.mispredicted()); // unresolved
        e.actual_next = Some(9);
        assert!(e.mispredicted());
        e.actual_next = Some(4);
        assert!(!e.mispredicted());
    }

    #[test]
    fn non_branches_never_mispredict() {
        let mut e = StationEntry::new(0, 0, Instr::Nop, 1, 0);
        e.actual_next = Some(99);
        assert!(!e.mispredicted());
    }

    #[test]
    fn synthetic_detection() {
        let e = StationEntry::new(0, 10, Instr::Halt, 10, 0);
        assert!(e.is_synthetic(10));
        assert!(!e.is_synthetic(11));
    }
}
