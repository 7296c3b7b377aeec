//! The lane kernels: the programs the lane differential tests, the lane
//! allocation probes and the lane pool test run.
//!
//! Each kernel pins one engine regime (blocked-station-heavy,
//! forwarding-heavy, …). The `*_seeded` variants read their working
//! value from a register they never initialise — the seed arrives via
//! `Program::init_regs` — so a lane population built with
//! [`ultrascalar_isa::workload::lane_variants`] computes genuinely
//! different values per lane while taking identical branch paths and
//! touching no memory: the lockstep-friendly shape the lane-parallel
//! batcher is tested on.

use ultrascalar_isa::Program;

/// Dependent `div` chains in a loop — the blocked-station-heavy regime:
/// most stations wait on an operand on every walked cycle.
pub fn div_chain(iters: u32) -> Program {
    let src = format!(
        r"
            li   r2, 3
            li   r3, {iters}
            li   r7, 0
            li   r1, 1000000007
        loop:
            div  r4, r1, r2
            div  r4, r4, r2
            div  r4, r4, r2
            div  r1, r4, r2     ; loop-carried: serial at any window size
            subi r3, r3, 1
            bne  r3, r7, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 8).expect("div_chain kernel assembles")
}

/// [`div_chain`] with the chain value seeded from `r1`'s *initial
/// register* instead of an `li`, and the per-lane seed in `r5`
/// re-injected every iteration (a pure `div` chain collapses any seed
/// to 0 within a few iterations of `/81`): per-lane values forever,
/// identical control flow (the loop counter is still
/// immediate-driven).
pub fn div_chain_seeded(iters: u32) -> Program {
    let src = format!(
        r"
            li   r2, 3
            li   r3, {iters}
            li   r7, 0
        loop:
            div  r4, r1, r2
            div  r4, r4, r2
            div  r4, r4, r2
            div  r1, r4, r2     ; loop-carried: serial at any window size
            add  r1, r1, r5     ; fold the lane seed back in
            subi r3, r3, 1
            bne  r3, r7, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 8).expect("div_chain_seeded kernel assembles")
}

/// The same blocked-heavy regime spread across the upper half of a
/// 128-entry register file: every live operand sits past register 64,
/// so lane batching and the engine's rename table cover wide register
/// files.
pub fn wide_div_chain(iters: u32) -> Program {
    let src = format!(
        r"
            li   r66, 3
            li   r67, {iters}
            li   r71, 0
            li   r65, 1000000007
        loop:
            div  r100, r65, r66
            div  r101, r100, r66
            div  r102, r101, r66
            div  r65, r102, r66     ; loop-carried: serial at any window size
            subi r67, r67, 1
            bne  r67, r71, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 128).expect("wide_div_chain kernel assembles")
}

/// [`wide_div_chain`] seeded from `r65`'s initial register, with the
/// lane seed in `r103` re-injected every iteration (same collapse
/// avoidance as [`div_chain_seeded`]).
pub fn wide_div_chain_seeded(iters: u32) -> Program {
    let src = format!(
        r"
            li   r66, 3
            li   r67, {iters}
            li   r71, 0
        loop:
            div  r100, r65, r66
            div  r101, r100, r66
            div  r102, r101, r66
            div  r65, r102, r66     ; loop-carried: serial at any window size
            add  r65, r65, r103     ; fold the lane seed back in
            subi r67, r67, 1
            bne  r67, r71, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 128).expect("wide_div_chain_seeded kernel assembles")
}

/// Forwarding-heavy fan: a hub register rewritten twice per loop
/// round, each rewrite feeding a fan of dependent accumulator adds.
/// Nearly every operand read in the window resolves against an
/// in-window writer, so producer-link probes dominate the walk.
pub fn forward_fan(iters: u32) -> Program {
    let src = format!(
        r"
            li   r1, 3
            li   r9, {iters}
            li   r10, 0
        loop:
            addi r1, r1, 1
            add  r2, r2, r1
            add  r3, r3, r1
            add  r4, r4, r1
            addi r1, r1, 2
            add  r5, r5, r1
            add  r6, r6, r1
            add  r7, r7, r1
            subi r9, r9, 1
            bne  r9, r10, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 16).expect("forward_fan kernel assembles")
}

/// [`forward_fan`] with the hub seeded from `r1`'s initial register
/// (accumulators already ride init_regs, so lanes fan genuinely
/// different values).
pub fn forward_fan_seeded(iters: u32) -> Program {
    let src = format!(
        r"
            li   r9, {iters}
            li   r10, 0
        loop:
            addi r1, r1, 1
            add  r2, r2, r1
            add  r3, r3, r1
            add  r4, r4, r1
            addi r1, r1, 2
            add  r5, r5, r1
            add  r6, r6, r1
            add  r7, r7, r1
            subi r9, r9, 1
            bne  r9, r10, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 16).expect("forward_fan_seeded kernel assembles")
}

/// Branch-heavy kernel with mixed-ILP phases: every loop round takes a
/// data-dependent diamond keyed on *shared* pseudo-random `init_mem`
/// words (a bimodal predictor mispredicts the minority direction, so a
/// run splits into many clean epochs), then runs a short high-ILP fan
/// of independent accumulator adds. Control flow and every memory
/// address are functions of shared data only, so a lane population
/// stays lock-step across every epoch boundary — this is the
/// epoch-segmented schedule-sharing regime with clean (peel-free)
/// wrong-path replay.
pub fn branch_gauntlet(iters: u32) -> Program {
    let src = format!(
        r"
            .word 1040187391, 40503, 374761392, 69069, 1013904222, 1664525
            .word 362436069, 521288628, 88675123, 198491317, 668265262, 915488749
            .word 1597334676, 1181783496, 1332534557, 286293354
            li   r2, 7
            li   r3, {iters}
            li   r12, 15
            li   r8, 0
        loop:
            and  r9, r8, r12
            lw   r10, (r9)
            andi r11, r10, 1
            beq  r11, r0, even  ; shared-data direction: ~50/50, unpredictable
            add  r2, r2, r10
            j    join
        even:
            sub  r2, r2, r10
        join:
            add  r4, r4, r2     ; high-ILP phase: independent accumulators
            add  r5, r5, r2
            add  r6, r6, r2
            addi r8, r8, 1
            subi r3, r3, 1
            bne  r3, r0, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 16).expect("branch_gauntlet kernel assembles")
}

/// [`branch_gauntlet`] with the diamond accumulator (and the fan
/// accumulators) seeded from initial registers instead of an `li`:
/// per-lane values in the dataflow, identical shared-data control
/// flow — the population mispredicts, flushes, and replays in
/// lock-step without a single divergence peel.
pub fn branch_gauntlet_seeded(iters: u32) -> Program {
    let src = format!(
        r"
            .word 1040187391, 40503, 374761392, 69069, 1013904222, 1664525
            .word 362436069, 521288628, 88675123, 198491317, 668265262, 915488749
            .word 1597334676, 1181783496, 1332534557, 286293354
            li   r3, {iters}
            li   r12, 15
            li   r8, 0
        loop:
            and  r9, r8, r12
            lw   r10, (r9)
            andi r11, r10, 1
            beq  r11, r0, even  ; shared-data direction: ~50/50, unpredictable
            add  r2, r2, r10
            j    join
        even:
            sub  r2, r2, r10
        join:
            add  r4, r4, r2     ; high-ILP phase: independent accumulators
            add  r5, r5, r2
            add  r6, r6, r2
            addi r8, r8, 1
            subi r3, r3, 1
            bne  r3, r0, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 16).expect("branch_gauntlet_seeded kernel assembles")
}

/// Speculation-storm kernel: committed control flow is uniform across
/// a lane population (every branch keys on shared data), but the
/// occasional mispredicted `beq` — a zero word in the shared stream —
/// sends the machine down a wrong path whose *guarded* probe branch
/// reads a per-lane value. The guard is the branchless mask idiom:
/// `r6 = (r4 != 0) - 1` is all-zeros on the committed path (the probe
/// compares `0 < threshold`, uniformly taken) and all-ones on the
/// wrong path (the probe compares the lane's `r9` against `0xF000_0000`,
/// resolving differently on ~1/16 of lanes). The flushing `beq` waits
/// on a 10-cycle `div`, so the probe resolves — and trains the
/// predictor — well before the flush: the lane batcher must replay it
/// and peel exactly the lanes whose wrong-path direction diverges from
/// the leader's (`LaneBatchStats::replay_peels`).
pub fn spec_storm(iters: u32) -> Program {
    let src = format!(
        r"
            .word 193, 0, 3626149, 41, 0, 524287, 77731, 8191
            .word 0, 2097143, 15485863, 433494437, 0, 87178291, 479001599, 6700417
            li   r9, 305419896  ; wrong-path probe value (seeded variant: init_regs)
            li   r3, {iters}
            li   r12, 15
            li   r13, -16777216 ; 0xFF00_0000: the probe threshold
            li   r15, 1
            li   r8, 0
        loop:
            and  r10, r8, r12
            lw   r4, (r10)
            div  r14, r4, r15   ; identity, but the beq now resolves 10 cycles late
            beq  r14, r0, skip  ; mispredicts whenever a zero word appears
            sltu r5, r0, r4     ; guarded block: 1 on the committed path
            subi r6, r5, 1      ; 0 committed, all-ones on the wrong path
            xor  r11, r9, r2    ; lane probe, re-rolled per epoch (r2 evolves)
            and  r7, r11, r6    ; 0 committed, the lane probe on the wrong path
            bltu r7, r13, skip  ; committed: uniformly taken; wrong path: per-lane
            add  r2, r2, r13
        skip:
            add  r2, r2, r4
            addi r8, r8, 1
            subi r3, r3, 1
            bne  r3, r0, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 16).expect("spec_storm kernel assembles")
}

/// [`spec_storm`] with the wrong-path probe value `r9` (and the
/// accumulator) seeded from initial registers: the committed schedule
/// stays uniform, but replayed wrong paths genuinely diverge per lane,
/// so a bimodal batch run produces `replay_peels > 0` while every
/// remaining lane still inherits the leader's timing.
pub fn spec_storm_seeded(iters: u32) -> Program {
    let src = format!(
        r"
            .word 193, 0, 3626149, 41, 0, 524287, 77731, 8191
            .word 0, 2097143, 15485863, 433494437, 0, 87178291, 479001599, 6700417
            li   r3, {iters}
            li   r12, 15
            li   r13, -16777216 ; 0xFF00_0000: the probe threshold
            li   r15, 1
            li   r8, 0
        loop:
            and  r10, r8, r12
            lw   r4, (r10)
            div  r14, r4, r15   ; identity, but the beq now resolves 10 cycles late
            beq  r14, r0, skip  ; mispredicts whenever a zero word appears
            sltu r5, r0, r4     ; guarded block: 1 on the committed path
            subi r6, r5, 1      ; 0 committed, all-ones on the wrong path
            xor  r11, r9, r2    ; lane probe, re-rolled per epoch (r2 evolves)
            and  r7, r11, r6    ; 0 committed, the lane probe on the wrong path
            bltu r7, r13, skip  ; committed: uniformly taken; wrong path: per-lane
            add  r2, r2, r13
        skip:
            add  r2, r2, r4
            addi r8, r8, 1
            subi r3, r3, 1
            bne  r3, r0, loop
            halt
        "
    );
    ultrascalar_isa::asm::assemble(&src, 16).expect("spec_storm_seeded kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ultrascalar_isa::{workload, Interp};

    fn final_reg(p: &Program, r: usize) -> u32 {
        let mut m = Interp::new(p, 1 << 12);
        assert!(m.run(1_000_000).halted(), "kernel must halt");
        m.regs[r]
    }

    #[test]
    fn seeded_variants_are_seed_sensitive_and_control_uniform() {
        for (name, prog, reg) in [
            ("div_chain", div_chain_seeded(8), 1),
            ("wide_div_chain", wide_div_chain_seeded(8), 65),
            ("forward_fan", forward_fan_seeded(8), 2),
            ("branch_gauntlet", branch_gauntlet_seeded(24), 2),
            ("spec_storm", spec_storm_seeded(24), 2),
        ] {
            let pop = workload::lane_variants(&prog, 4, 0xBEEF);
            let outs: Vec<u32> = pop.iter().map(|p| final_reg(p, reg)).collect();
            assert!(
                outs.windows(2).any(|w| w[0] != w[1]),
                "{name}: lanes must compute different values"
            );
            // Identical dynamic step counts: control flow is
            // seed-independent, the property lane batching relies on.
            let steps: Vec<usize> = pop
                .iter()
                .map(|p| {
                    let mut m = Interp::new(p, 1 << 12);
                    let out = m.run(1_000_000);
                    assert!(out.halted());
                    out.steps()
                })
                .collect();
            assert!(
                steps.windows(2).all(|w| w[0] == w[1]),
                "{name}: lockstep-friendly control flow"
            );
        }
    }

    #[test]
    fn unseeded_kernels_halt() {
        for p in [
            div_chain(4),
            wide_div_chain(4),
            forward_fan(4),
            branch_gauntlet(4),
            spec_storm(4),
        ] {
            let mut m = Interp::new(&p, 1 << 12);
            assert!(m.run(1_000_000).halted());
        }
    }
}
