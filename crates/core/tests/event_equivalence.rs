//! Cycle skip engages and stays exact on the shape it exists for: a
//! dependent chain of long divides idles the window for long spans,
//! and skipping them must change nothing. The random skip-on/off
//! differential lives in `differential.rs`.

use ultrascalar::{ProcConfig, Processor, Ultrascalar};
use ultrascalar_isa::{AluOp, Instr, Program, Reg};

/// Deterministic spot check that the skip path actually engages: a pure
/// division chain on a 4-wide machine idles for long spans, and both
/// paths must agree exactly while doing so.
#[test]
fn division_chain_exact_across_skip() {
    let prog = Program {
        instrs: vec![
            Instr::LoadImm {
                rd: Reg(1),
                imm: 1 << 20,
            },
            Instr::AluImm {
                op: AluOp::Add,
                rd: Reg(2),
                rs1: Reg(0),
                imm: 3,
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Alu {
                op: AluOp::Div,
                rd: Reg(1),
                rs1: Reg(1),
                rs2: Reg(2),
            },
            Instr::Halt,
        ],
        num_regs: 4,
        init_regs: vec![0; 4],
        init_mem: vec![0; 16],
    };
    for cfg in [
        ProcConfig::ultrascalar_i(4),
        ProcConfig::ultrascalar_ii(4),
        ProcConfig::hybrid(4, 2),
    ] {
        let fast = Ultrascalar::new(cfg.clone()).run_timed(&prog);
        let slow = Ultrascalar::new(cfg.without_cycle_skipping()).run_timed(&prog);
        assert!(fast.halted && slow.halted);
        assert_eq!(fast.cycles, slow.cycles);
        assert_eq!(fast.regs, slow.regs);
        assert_eq!(fast.recorded_timings(), slow.recorded_timings());
        assert_eq!(fast.stats, slow.stats);
        // The dependent chain of 10-cycle divides must dominate the
        // run: this is the shape where skipping pays.
        assert!(fast.cycles > 40, "divide chain should span > 40 cycles");
    }
}
