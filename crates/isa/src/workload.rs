//! Program generators: the paper's worked example, dependency-controlled
//! random kernels, and small realistic kernels.
//!
//! The paper motivates wide-issue machines with programs whose
//! instruction-level parallelism varies; these generators provide both
//! ends of the spectrum (a serial pointer chase has ILP ≈ 1, a vector
//! scale has ILP ≈ n) plus tunable random code in between.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::instr::{AluOp, BranchCond, Instr, Reg};
use crate::program::Program;

/// The paper's running example (Figures 1, 3, 4): eight instructions,
/// shown with Station 6 oldest. In *program order* the sequence is:
///
/// ```text
/// R3 = R1 / R2      (station 6)
/// R0 = R0 + R3      (station 7)
/// R1 = R5 + R6      (station 0)
/// R1 = R0 + R1      (station 1)
/// R2 = R5 * R6      (station 2)
/// R2 = R2 + R4      (station 3)
/// R0 = R5 - R6      (station 4)
/// R4 = R0 + R7      (station 5)
/// ```
///
/// Uses 8 logical registers; initial `R0 = 10` as in the Figure 1
/// snapshot (the ring at the forefront carries `R0` with initial value
/// 10). A `halt` is appended so the program runs to completion on every
/// model.
pub fn figure1_sequence() -> Program {
    use AluOp::*;
    let alu = |op, rd, rs1, rs2| Instr::Alu {
        op,
        rd: Reg(rd),
        rs1: Reg(rs1),
        rs2: Reg(rs2),
    };
    let instrs = vec![
        alu(Div, 3, 1, 2), // R3 = R1 / R2
        alu(Add, 0, 0, 3), // R0 = R0 + R3
        alu(Add, 1, 5, 6), // R1 = R5 + R6
        alu(Add, 1, 0, 1), // R1 = R0 + R1
        alu(Mul, 2, 5, 6), // R2 = R5 * R6
        alu(Add, 2, 2, 4), // R2 = R2 + R4
        alu(Sub, 0, 5, 6), // R0 = R5 - R6
        alu(Add, 4, 0, 7), // R4 = R0 + R7
        Instr::Halt,
    ];
    Program::new(instrs, 8).with_init_regs(vec![10, 84, 2, 3, 4, 9, 6, 7])
}

/// Configuration for [`random_program`].
#[derive(Debug, Clone)]
pub struct RandomCfg {
    /// Number of non-halt instructions to generate.
    pub len: usize,
    /// Logical register count `L`.
    pub num_regs: usize,
    /// Fraction of instructions that are loads or stores.
    pub mem_frac: f64,
    /// Of the memory instructions, the fraction that are stores.
    pub store_frac: f64,
    /// Fraction of instructions that are conditional forward branches.
    pub branch_frac: f64,
    /// Fraction of ALU instructions that are long-latency (`mul`/`div`).
    pub long_op_frac: f64,
    /// Fraction of ALU instructions using an immediate operand.
    pub imm_frac: f64,
    /// Fraction of instructions that are `li` of a small constant. A
    /// lane population whose registers differ converges on them.
    pub li_frac: f64,
    /// Geometric parameter for source-dependency distance: with
    /// probability `dep_geom_p` a source register is the destination of
    /// one of the few most recent writers (short dependency chains →
    /// low ILP); otherwise sources are uniform (high ILP).
    pub dep_geom_p: f64,
    /// Word range addressed by generated loads/stores.
    pub mem_span: u32,
    /// Loads and stores take their base from `r0..base_regs`; the
    /// default 4 keeps to the low registers, which start small.
    pub base_regs: usize,
    /// `0` generates straight-line code. `k > 0` wraps the body in a
    /// counted loop that runs it `k` times: the last register counts
    /// down and `r0` stays zero (the body writes neither), and the loop
    /// closes with a backward `bne`, so the program always halts and
    /// non-oracle predictors mispredict.
    pub loop_iters: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomCfg {
    fn default() -> Self {
        RandomCfg {
            len: 200,
            num_regs: 32,
            mem_frac: 0.2,
            store_frac: 0.35,
            branch_frac: 0.1,
            long_op_frac: 0.15,
            imm_frac: 0.3,
            li_frac: 0.0,
            dep_geom_p: 0.5,
            mem_span: 64,
            base_regs: 4,
            loop_iters: 0,
            seed: 0,
        }
    }
}

/// Generate a random, always-terminating program.
///
/// Control flow in the body is restricted to short *forward* branches
/// (skipping 1–4 instructions), so every generated program terminates
/// regardless of data values; a `halt` is appended. With
/// [`RandomCfg::loop_iters`] set, the body runs inside a counted loop
/// whose counter it never writes, and the forward branches stay inside
/// the loop. Memory operands use register-indirect addressing over
/// `mem_span` words initialised with pseudo-random data.
///
/// # Panics
/// Panics unless `4 <= num_regs <= 256` (the ISA names at most 256)
/// and `1 <= base_regs <= num_regs`.
pub fn random_program(cfg: &RandomCfg) -> Program {
    assert!(
        (4..=256).contains(&cfg.num_regs),
        "random_program needs 4 to 256 registers"
    );
    assert!(
        (1..=cfg.num_regs).contains(&cfg.base_regs),
        "random_program needs 1 to num_regs base registers"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let nr = cfg.num_regs;
    let mut instrs: Vec<Instr> = Vec::with_capacity(cfg.len + 4);
    // A looped body starts after the counter's `li` and never writes
    // r0 (the exit comparand) or the counter.
    let counter = Reg((nr - 1) as u8);
    let head = usize::from(cfg.loop_iters > 0);
    if head == 1 {
        instrs.push(Instr::LoadImm {
            rd: counter,
            imm: cfg.loop_iters as i32,
        });
    }
    let dests = if head == 1 { 1..nr - 1 } else { 0..nr };
    // Track recent destination registers for dependency shaping.
    let mut recent: Vec<u8> = Vec::new();

    let pick_src = |rng: &mut StdRng, recent: &[u8]| -> Reg {
        if !recent.is_empty() && rng.gen_bool(cfg.dep_geom_p) {
            // Prefer the most recent writers: geometric walk backwards.
            let mut idx = recent.len() - 1;
            while idx > 0 && rng.gen_bool(0.5) {
                idx -= 1;
            }
            Reg(recent[idx])
        } else {
            Reg(rng.gen_range(0..nr) as u8)
        }
    };

    while instrs.len() - head < cfg.len {
        let here = instrs.len() - head;
        let roll: f64 = rng.gen();
        if roll < cfg.branch_frac && here + 2 < cfg.len {
            // Forward branch skipping 1..=4 instructions (clamped to the
            // end of the body).
            let skip = rng.gen_range(1..=4usize);
            let target = (head + here + 1 + skip).min(head + cfg.len) as u32;
            let cond = BranchCond::ALL[rng.gen_range(0..BranchCond::ALL.len())];
            instrs.push(Instr::Branch {
                cond,
                rs1: pick_src(&mut rng, &recent),
                rs2: pick_src(&mut rng, &recent),
                target,
            });
        } else if roll < cfg.branch_frac + cfg.mem_frac {
            let base = Reg(rng.gen_range(0..cfg.base_regs) as u8);
            let offset = rng.gen_range(0..cfg.mem_span) as i32;
            if rng.gen_bool(cfg.store_frac) {
                instrs.push(Instr::Store {
                    src: pick_src(&mut rng, &recent),
                    base,
                    offset,
                });
            } else {
                let rd = Reg(rng.gen_range(dests.clone()) as u8);
                instrs.push(Instr::Load { rd, base, offset });
                recent.push(rd.0);
            }
        } else if roll < cfg.branch_frac + cfg.mem_frac + cfg.li_frac {
            let rd = Reg(rng.gen_range(dests.clone()) as u8);
            instrs.push(Instr::LoadImm {
                rd,
                imm: rng.gen_range(0..64),
            });
            recent.push(rd.0);
        } else {
            let rd = Reg(rng.gen_range(dests.clone()) as u8);
            let op = if rng.gen_bool(cfg.long_op_frac) {
                if rng.gen_bool(0.5) {
                    AluOp::Mul
                } else {
                    AluOp::Div
                }
            } else {
                const SHORT: [AluOp; 8] = [
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::And,
                    AluOp::Or,
                    AluOp::Xor,
                    AluOp::Slt,
                    AluOp::Sltu,
                    AluOp::Sra,
                ];
                SHORT[rng.gen_range(0..SHORT.len())]
            };
            if rng.gen_bool(cfg.imm_frac) {
                instrs.push(Instr::AluImm {
                    op,
                    rd,
                    rs1: pick_src(&mut rng, &recent),
                    imm: rng.gen_range(-128..128),
                });
            } else {
                instrs.push(Instr::Alu {
                    op,
                    rd,
                    rs1: pick_src(&mut rng, &recent),
                    rs2: pick_src(&mut rng, &recent),
                });
            }
            recent.push(rd.0);
        }
        if recent.len() > 8 {
            recent.remove(0);
        }
    }
    if head == 1 {
        instrs.push(Instr::AluImm {
            op: AluOp::Sub,
            rd: counter,
            rs1: counter,
            imm: 1,
        });
        instrs.push(Instr::Branch {
            cond: BranchCond::Ne,
            rs1: counter,
            rs2: Reg(0),
            target: 1,
        });
    }
    instrs.push(Instr::Halt);

    let init_regs = (0..cfg.num_regs)
        .map(|i| {
            if i < 4 {
                i as u32
            } else {
                rng.gen_range(0..1000)
            }
        })
        .collect();
    let init_mem = (0..(cfg.mem_span as usize + 8))
        .map(|_| rng.gen_range(0..10_000u32))
        .collect();
    Program::new(instrs, cfg.num_regs)
        .with_init_regs(init_regs)
        .with_init_mem(init_mem)
}

/// Dot product of two `n`-element vectors stored at word addresses
/// `0..n` and `n..2n`; the result accumulates in `r4`.
/// Uses 8 registers.
pub fn dot_product(n: u32) -> Program {
    let src = format!(
        r"
            li   r1, 0          ; &a
            li   r2, {n}        ; &b
            li   r3, {n}        ; remaining
            li   r4, 0          ; acc
            li   r7, 0
        loop:
            lw   r5, (r1)
            lw   r6, (r2)
            mul  r5, r5, r6
            add  r4, r4, r5
            addi r1, r1, 1
            addi r2, r2, 1
            subi r3, r3, 1
            bne  r3, r7, loop
            halt
        "
    );
    let mut mem = Vec::with_capacity(2 * n as usize);
    for i in 0..n {
        mem.push(i + 1); // a[i] = i+1
    }
    for i in 0..n {
        mem.push(2 * i + 1); // b[i] = 2i+1
    }
    crate::asm::assemble(&src, 8)
        .expect("dot_product kernel assembles")
        .with_init_mem(mem)
}

/// Expected architectural result of [`dot_product`]: `Σ (i+1)(2i+1)`.
pub fn dot_product_expected(n: u32) -> u32 {
    (0..n).fold(0u32, |acc, i| {
        acc.wrapping_add((i + 1).wrapping_mul(2 * i + 1))
    })
}

/// Copy `n` words from address `0` to address `n`. Uses 8 registers.
pub fn memcpy(n: u32) -> Program {
    let src = format!(
        r"
            li   r1, 0
            li   r2, {n}
            li   r3, {n}
            li   r7, 0
        loop:
            lw   r4, (r1)
            sw   r4, (r2)
            addi r1, r1, 1
            addi r2, r2, 1
            subi r3, r3, 1
            bne  r3, r7, loop
            halt
        "
    );
    let mem: Vec<u32> = (0..n).map(|i| i * 3 + 7).collect();
    crate::asm::assemble(&src, 8)
        .expect("memcpy kernel assembles")
        .with_init_mem(mem)
}

/// Iterative Fibonacci: leaves `fib(k)` (mod 2³²) in `r2`.
/// A fully serial dependency chain — worst-case ILP. Uses 8 registers.
pub fn fibonacci(k: u32) -> Program {
    let src = format!(
        r"
            li   r1, 0          ; fib(i-1)
            li   r2, 1          ; fib(i)
            li   r3, {k}        ; remaining
            li   r7, 0
            beq  r3, r7, done
        loop:
            add  r4, r1, r2
            add  r1, r2, r7     ; r1 = r2
            add  r2, r4, r7     ; r2 = r4
            subi r3, r3, 1
            bne  r3, r7, loop
        done:
            halt
        "
    );
    crate::asm::assemble(&src, 8).expect("fibonacci kernel assembles")
}

/// Expected result of [`fibonacci`].
pub fn fibonacci_expected(k: u32) -> u32 {
    let (mut a, mut b) = (0u32, 1u32);
    for _ in 0..k {
        let c = a.wrapping_add(b);
        a = b;
        b = c;
    }
    b
}

/// Scale the `n`-word vector at address 0 by the constant `c` in place.
/// High ILP: every iteration is independent. Uses 8 registers.
pub fn vec_scale(n: u32, c: u32) -> Program {
    let src = format!(
        r"
            li   r1, 0
            li   r2, {n}
            li   r3, {c}
            li   r7, 0
        loop:
            lw   r4, (r1)
            mul  r4, r4, r3
            sw   r4, (r1)
            addi r1, r1, 1
            subi r2, r2, 1
            bne  r2, r7, loop
            halt
        "
    );
    let mem: Vec<u32> = (0..n).map(|i| i + 1).collect();
    crate::asm::assemble(&src, 8)
        .expect("vec_scale kernel assembles")
        .with_init_mem(mem)
}

/// Pointer chase: follow a linked list of `n` nodes starting at
/// address 0; each node is one word holding the address of the next.
/// Serial load-to-load dependency chain — the memory-latency analogue
/// of [`fibonacci`]. The final node index lands in `r1`.
pub fn pointer_chase(n: u32, seed: u64) -> Program {
    // Build a random permutation cycle over n nodes.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n as usize).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut mem = vec![0u32; n as usize];
    for w in 0..n as usize {
        mem[order[w] as usize] = order[(w + 1) % n as usize];
    }
    let start = order[0];
    let src = format!(
        r"
            li   r1, {start}
            li   r2, {n}
            li   r7, 0
        loop:
            lw   r1, (r1)
            subi r2, r2, 1
            bne  r2, r7, loop
            halt
        "
    );
    crate::asm::assemble(&src, 8)
        .expect("pointer_chase kernel assembles")
        .with_init_mem(mem)
}

/// Dense matrix–vector product `y = A·x` with `rows × cols` matrix `A`
/// at address 0 (row-major), `x` at `rows*cols`, `y` at
/// `rows*cols + cols`. Uses 16 registers.
pub fn matvec(rows: u32, cols: u32) -> Program {
    let a_base = 0u32;
    let x_base = rows * cols;
    let y_base = x_base + cols;
    let src = format!(
        r"
            li   r1, {a_base}   ; &A walker
            li   r2, {y_base}   ; &y walker
            li   r3, {rows}     ; rows remaining
            li   r7, 0
        row:
            li   r4, {x_base}   ; &x walker
            li   r5, {cols}     ; cols remaining
            li   r6, 0          ; acc
        col:
            lw   r8, (r1)
            lw   r9, (r4)
            mul  r8, r8, r9
            add  r6, r6, r8
            addi r1, r1, 1
            addi r4, r4, 1
            subi r5, r5, 1
            bne  r5, r7, col
            sw   r6, (r2)
            addi r2, r2, 1
            subi r3, r3, 1
            bne  r3, r7, row
            halt
        "
    );
    let mut mem = Vec::new();
    for i in 0..rows * cols {
        mem.push(i % 7 + 1);
    }
    for i in 0..cols {
        mem.push(i % 5 + 1);
    }
    mem.extend(std::iter::repeat_n(0, rows as usize));
    crate::asm::assemble(&src, 16)
        .expect("matvec kernel assembles")
        .with_init_mem(mem)
}

/// Expected `y` vector for [`matvec`].
pub fn matvec_expected(rows: u32, cols: u32) -> Vec<u32> {
    let a = |r: u32, c: u32| (r * cols + c) % 7 + 1;
    let x = |c: u32| c % 5 + 1;
    (0..rows)
        .map(|r| (0..cols).fold(0u32, |acc, c| acc.wrapping_add(a(r, c).wrapping_mul(x(c)))))
        .collect()
}

/// Bubble sort the `n` words at address 0, ascending, in place.
/// Branch-heavy and data-dependent — stresses misprediction recovery.
pub fn bubble_sort(n: u32, seed: u64) -> Program {
    let src = format!(
        r"
            li   r1, {n}        ; outer remaining
            li   r7, 0
            subi r1, r1, 1
            beq  r1, r7, done
        outer:
            li   r2, 0          ; index
            li   r3, {n}
            subi r3, r3, 1      ; inner limit
        inner:
            lw   r4, (r2)
            lw   r5, 1(r2)
            bltu r4, r5, noswap
            sw   r5, (r2)
            sw   r4, 1(r2)
        noswap:
            addi r2, r2, 1
            bne  r2, r3, inner
            subi r1, r1, 1
            bne  r1, r7, outer
        done:
            halt
        "
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mem: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    crate::asm::assemble(&src, 8)
        .expect("bubble_sort kernel assembles")
        .with_init_mem(mem)
}

/// Sum-reduce the `n` words at address 0 into `r4`.
pub fn sum_reduction(n: u32) -> Program {
    let src = format!(
        r"
            li   r1, 0
            li   r2, {n}
            li   r4, 0
            li   r7, 0
        loop:
            lw   r5, (r1)
            add  r4, r4, r5
            addi r1, r1, 1
            subi r2, r2, 1
            bne  r2, r7, loop
            halt
        "
    );
    let mem: Vec<u32> = (0..n).map(|i| i * i + 1).collect();
    crate::asm::assemble(&src, 8)
        .expect("sum_reduction kernel assembles")
        .with_init_mem(mem)
}

/// Sieve of Eratosthenes over `0..n`: `mem[i] = 1` iff `i` is prime
/// (for `i ≥ 2`). Nested data-dependent loops with stores.
pub fn sieve(n: u32) -> Program {
    let src = format!(
        r"
            ; initialise mem[2..n) = 1
            li   r1, 2
            li   r2, {n}
            li   r6, 1
            li   r7, 0
        init:
            sw   r6, (r1)
            addi r1, r1, 1
            bne  r1, r2, init
            ; sieve
            li   r1, 2          ; candidate p
        outer:
            mul  r3, r1, r1     ; p*p
            bgeu r3, r2, done   ; p*p >= n: finished
            lw   r4, (r1)
            beq  r4, r7, next   ; not prime: skip
        mark:
            sw   r7, (r3)       ; mem[multiple] = 0
            add  r3, r3, r1
            bltu r3, r2, mark
        next:
            addi r1, r1, 1
            j    outer
        done:
            halt
        "
    );
    crate::asm::assemble(&src, 8).expect("sieve kernel assembles")
}

/// Expected sieve output.
pub fn sieve_expected(n: u32) -> Vec<u32> {
    let mut v = vec![0u32; n as usize];
    v.iter_mut().skip(2).for_each(|x| *x = 1);
    let mut p = 2usize;
    while p * p < n as usize {
        if v[p] == 1 {
            let mut m = p * p;
            while m < n as usize {
                v[m] = 0;
                m += p;
            }
        }
        p += 1;
    }
    v
}

/// Histogram: count occurrences of each value `0..buckets` in the
/// `n`-word array at address 0; counts land at address `n`.
/// Data-dependent store addresses — an aliasing stress for memory
/// renaming and the distributed caches.
pub fn histogram(n: u32, buckets: u32, seed: u64) -> Program {
    let src = format!(
        r"
            li   r1, 0          ; &data
            li   r2, {n}        ; remaining
            li   r3, {n}        ; &counts
            li   r7, 0
        loop:
            lw   r4, (r1)
            add  r4, r4, r3     ; &counts[value]
            lw   r5, (r4)
            addi r5, r5, 1
            sw   r5, (r4)
            addi r1, r1, 1
            subi r2, r2, 1
            bne  r2, r7, loop
            halt
        "
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mem: Vec<u32> = (0..n).map(|_| rng.gen_range(0..buckets)).collect();
    crate::asm::assemble(&src, 8)
        .expect("histogram kernel assembles")
        .with_init_mem(mem)
}

/// Binary search for `needle` in the sorted `n`-word array at address
/// 0; leaves the found index (or `n`) in `r5`. Branch-heavy with
/// data-dependent, hard-to-predict directions.
pub fn binary_search(n: u32, needle: u32) -> Program {
    let src = format!(
        r"
            li   r1, 0          ; lo
            li   r2, {n}        ; hi
            li   r3, {needle}
            li   r5, {n}        ; result
            li   r7, 0
        loop:
            bgeu r1, r2, done
            add  r4, r1, r2
            srli r4, r4, 1      ; mid
            lw   r6, (r4)
            beq  r6, r3, found
            bltu r6, r3, right
            add  r2, r4, r7     ; hi = mid
            j    loop
        right:
            addi r1, r4, 1      ; lo = mid + 1
            j    loop
        found:
            add  r5, r4, r7
        done:
            halt
        "
    );
    let mem: Vec<u32> = (0..n).map(|i| i * 3 + 1).collect(); // sorted
    crate::asm::assemble(&src, 8)
        .expect("binary_search kernel assembles")
        .with_init_mem(mem)
}

/// CRC-style rolling checksum of the `n` words at address 0 (shift,
/// xor, conditional feedback) — long serial dependency with bit ops.
pub fn checksum(n: u32) -> Program {
    let src = format!(
        r"
            li   r1, 0
            li   r2, {n}
            li   r3, -1         ; acc = 0xFFFFFFFF
            li   r6, 0x04c1     ; poly (truncated)
            li   r7, 0
        loop:
            lw   r4, (r1)
            xor  r3, r3, r4
            srli r5, r3, 1
            andi r4, r3, 1
            beq  r4, r7, nofb
            xor  r5, r5, r6
        nofb:
            add  r3, r5, r7
            addi r1, r1, 1
            subi r2, r2, 1
            bne  r2, r7, loop
            halt
        "
    );
    let mem: Vec<u32> = (0..n).map(|i| i.wrapping_mul(2654435761)).collect();
    crate::asm::assemble(&src, 8)
        .expect("checksum kernel assembles")
        .with_init_mem(mem)
}

/// Expected checksum value (mirrors the assembly).
pub fn checksum_expected(n: u32) -> u32 {
    let mut acc = u32::MAX;
    for i in 0..n {
        let w = i.wrapping_mul(2654435761);
        acc ^= w;
        let mut next = acc >> 1;
        if acc & 1 == 1 {
            next ^= 0x04c1;
        }
        acc = next;
    }
    acc
}

/// In-place insertion sort of `n` words at address 0 — inner loop with
/// a data-dependent trip count and moves through memory.
pub fn insertion_sort(n: u32, seed: u64) -> Program {
    let src = format!(
        r"
            li   r1, 1          ; i
            li   r2, {n}
            li   r7, 0
        outer:
            bgeu r1, r2, done
            lw   r3, (r1)       ; key
            add  r4, r1, r7     ; j = i
        inner:
            beq  r4, r7, place
            subi r5, r4, 1
            lw   r6, (r5)
            bgeu r3, r6, place  ; key >= a[j-1]: stop
            sw   r6, (r4)       ; shift right
            add  r4, r5, r7
            j    inner
        place:
            sw   r3, (r4)
            addi r1, r1, 1
            j    outer
        done:
            halt
        "
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mem: Vec<u32> = (0..n).map(|_| rng.gen_range(0..10_000)).collect();
    crate::asm::assemble(&src, 8)
        .expect("insertion_sort kernel assembles")
        .with_init_mem(mem)
}

/// All the named kernels with small default sizes, for sweep harnesses:
/// `(name, program)` pairs.
pub fn standard_suite(seed: u64) -> Vec<(&'static str, Program)> {
    vec![
        ("figure1", figure1_sequence()),
        ("dot_product", dot_product(32)),
        ("memcpy", memcpy(32)),
        ("fibonacci", fibonacci(24)),
        ("vec_scale", vec_scale(32, 3)),
        ("pointer_chase", pointer_chase(32, seed)),
        ("matvec", matvec(6, 6)),
        ("bubble_sort", bubble_sort(12, seed)),
        ("sum_reduction", sum_reduction(32)),
        ("sieve", sieve(48)),
        ("histogram", histogram(32, 8, seed)),
        ("binary_search", binary_search(32, 46)),
        ("checksum", checksum(24)),
        ("insertion_sort", insertion_sort(16, seed)),
    ]
}

/// Deterministic per-lane initial registers: lane `lane` of a batch
/// population seeded with `seed`. Register 0 is left at zero (many
/// kernels use a low register as a hard-wired zero/base); the rest get
/// independent pseudo-random values, the low halves of a `StdRng`
/// stream, so a population is reproducible from `(seed, lane)` alone.
pub fn lane_init_regs(num_regs: usize, seed: u64, lane: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ (lane as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut regs = vec![0u32; num_regs];
    for r in regs.iter_mut().skip(1) {
        *r = rng.next_u64() as u32;
    }
    regs
}

/// Vectorize a program over `n` lanes: `n` copies sharing the same
/// instruction stream and memory image but each with its own
/// pseudo-random initial registers (lane 0's derived from `seed`, lane
/// `l`'s from `seed` ⊕ a lane spread). This is the input shape the
/// lane-parallel batch engine consumes: *same program, different
/// inputs*. Registers the program initializes itself (`li` before
/// first read) are unaffected by construction; seed-sensitive kernels
/// should read their inputs from registers they do not write first.
pub fn lane_variants(base: &Program, n: usize, seed: u64) -> Vec<Program> {
    (0..n)
        .map(|lane| {
            base.clone()
                .with_init_regs(lane_init_regs(base.num_regs, seed, lane))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;

    fn run(p: &Program) -> Interp {
        let mut m = Interp::new(p, 1 << 12);
        let out = m.run(2_000_000);
        assert!(out.halted(), "kernel must halt");
        m
    }

    #[test]
    fn lane_variants_share_code_and_differ_in_inputs() {
        let base = fibonacci(8);
        let pop = lane_variants(&base, 16, 42);
        assert_eq!(pop.len(), 16);
        for p in &pop {
            assert_eq!(p.instrs, base.instrs);
            assert_eq!(p.num_regs, base.num_regs);
            assert_eq!(p.init_mem, base.init_mem);
            assert_eq!(p.init_regs[0], 0, "r0 stays a hard-wired zero");
            p.validate().expect("variants stay valid");
        }
        assert_ne!(pop[0].init_regs, pop[1].init_regs);
        // Deterministic: same seed reproduces the same population.
        assert_eq!(lane_variants(&base, 16, 42), pop);
        assert_ne!(lane_variants(&base, 16, 43)[1].init_regs, pop[1].init_regs);
    }

    #[test]
    fn figure1_architectural_result() {
        let m = run(&figure1_sequence());
        // R1=84, R2=2 → R3 = 42; R0 = 10+42 = 52; R1 = 9+6 = 15 then
        // R1 = 52+15 = 67; R2 = 54 then 58; R0 = 3; R4 = 3+7 = 10.
        assert_eq!(m.regs[3], 42);
        assert_eq!(m.regs[1], 67);
        assert_eq!(m.regs[2], 58);
        assert_eq!(m.regs[0], 3);
        assert_eq!(m.regs[4], 10);
    }

    #[test]
    fn dot_product_matches_closed_form() {
        for n in [1u32, 2, 7, 32] {
            let m = run(&dot_product(n));
            assert_eq!(m.regs[4], dot_product_expected(n), "n={n}");
        }
    }

    #[test]
    fn memcpy_copies() {
        let n = 17;
        let m = run(&memcpy(n));
        for i in 0..n as usize {
            assert_eq!(m.mem[n as usize + i], m.mem[i]);
            assert_eq!(m.mem[i], i as u32 * 3 + 7);
        }
    }

    #[test]
    fn fibonacci_matches_closed_form() {
        for k in [0u32, 1, 2, 10, 30, 50] {
            let m = run(&fibonacci(k));
            assert_eq!(m.regs[2], fibonacci_expected(k), "k={k}");
        }
    }

    #[test]
    fn vec_scale_scales() {
        let m = run(&vec_scale(9, 5));
        for i in 0..9u32 {
            assert_eq!(m.mem[i as usize], (i + 1) * 5);
        }
    }

    #[test]
    fn pointer_chase_traverses_whole_cycle() {
        let n = 13;
        let p = pointer_chase(n, 42);
        let m = run(&p);
        // After n hops around an n-cycle we are back at the start node.
        let start = match p.instrs[0] {
            Instr::LoadImm { imm, .. } => imm as u32,
            _ => unreachable!(),
        };
        assert_eq!(m.regs[1], start);
    }

    #[test]
    fn matvec_matches_closed_form() {
        let (r, c) = (5, 4);
        let m = run(&matvec(r, c));
        let y_base = (r * c + c) as usize;
        assert_eq!(
            &m.mem[y_base..y_base + r as usize],
            &matvec_expected(r, c)[..]
        );
    }

    #[test]
    fn bubble_sort_sorts() {
        let n = 20;
        let m = run(&bubble_sort(n, 7));
        for i in 1..n as usize {
            assert!(m.mem[i - 1] <= m.mem[i], "position {i}");
        }
    }

    #[test]
    fn sum_reduction_matches_closed_form() {
        let n = 25u32;
        let m = run(&sum_reduction(n));
        let expect = (0..n).fold(0u32, |a, i| a.wrapping_add(i * i + 1));
        assert_eq!(m.regs[4], expect);
    }

    #[test]
    fn sieve_finds_primes() {
        let n = 60;
        let m = run(&sieve(n));
        assert_eq!(&m.mem[..n as usize], &sieve_expected(n)[..]);
        // Spot-check: 53 prime, 57 = 3·19 not.
        assert_eq!(m.mem[53], 1);
        assert_eq!(m.mem[57], 0);
    }

    #[test]
    fn histogram_counts_sum_to_n() {
        let (n, buckets) = (40, 8);
        let p = histogram(n, buckets, 9);
        let data = p.init_mem.clone();
        let m = run(&p);
        let mut expect = vec![0u32; buckets as usize];
        for &v in &data {
            expect[v as usize] += 1;
        }
        assert_eq!(&m.mem[n as usize..(n + buckets) as usize], &expect[..],);
        assert_eq!(expect.iter().sum::<u32>(), n);
    }

    #[test]
    fn binary_search_finds_and_misses() {
        // Present: value 3i+1.
        let m = run(&binary_search(32, 3 * 20 + 1));
        assert_eq!(m.regs[5], 20);
        // Absent value: result = n.
        let m = run(&binary_search(32, 2));
        assert_eq!(m.regs[5], 32);
        // Edges.
        let m = run(&binary_search(32, 1));
        assert_eq!(m.regs[5], 0);
        let m = run(&binary_search(32, 3 * 31 + 1));
        assert_eq!(m.regs[5], 31);
    }

    #[test]
    fn checksum_matches_closed_form() {
        for n in [1u32, 7, 24, 100] {
            let m = run(&checksum(n));
            assert_eq!(m.regs[3], checksum_expected(n), "n={n}");
        }
    }

    #[test]
    fn insertion_sort_sorts() {
        let n = 24;
        let m = run(&insertion_sort(n, 11));
        for i in 1..n as usize {
            assert!(m.mem[i - 1] <= m.mem[i], "position {i}");
        }
    }

    #[test]
    fn random_programs_validate_and_terminate() {
        for seed in 0..20 {
            let cfg = RandomCfg {
                seed,
                len: 300,
                ..RandomCfg::default()
            };
            let p = random_program(&cfg);
            assert_eq!(p.validate(), Ok(()), "seed {seed}");
            let mut m = Interp::new(&p, 1 << 10);
            let out = m.run(10_000);
            assert!(out.halted(), "seed {seed} must halt");
        }
    }

    #[test]
    fn random_programs_are_deterministic_per_seed() {
        let cfg = RandomCfg::default();
        assert_eq!(random_program(&cfg), random_program(&cfg));
        let cfg2 = RandomCfg {
            seed: 1,
            ..RandomCfg::default()
        };
        assert_ne!(random_program(&cfg), random_program(&cfg2));
    }

    #[test]
    fn random_program_respects_mix_extremes() {
        // Pure ALU.
        let p = random_program(&RandomCfg {
            mem_frac: 0.0,
            branch_frac: 0.0,
            ..RandomCfg::default()
        });
        assert!(p
            .instrs
            .iter()
            .all(|i| !i.is_load() && !i.is_store() && !i.is_control()));
        // Memory-heavy.
        let p = random_program(&RandomCfg {
            mem_frac: 1.0,
            branch_frac: 0.0,
            ..RandomCfg::default()
        });
        let mems = p
            .instrs
            .iter()
            .filter(|i| i.is_load() || i.is_store())
            .count();
        assert!(mems >= p.len() - 1);
    }

    #[test]
    fn standard_suite_all_halt() {
        for (name, p) in standard_suite(3) {
            let mut m = Interp::new(&p, 1 << 12);
            assert!(m.run(5_000_000).halted(), "{name}");
        }
    }

    /// Straight-line output is frozen: an FNV-1a digest of the encoded
    /// programs for a spread of seeds and mixes, recorded before the
    /// loop shape was added.
    #[test]
    fn straight_line_programs_are_frozen() {
        let mut bytes = Vec::new();
        for seed in 0..24 {
            for cfg in [
                RandomCfg::default(),
                RandomCfg {
                    len: 40,
                    num_regs: 6,
                    mem_frac: 0.45,
                    store_frac: 0.5,
                    mem_span: 8,
                    ..RandomCfg::default()
                },
                RandomCfg {
                    len: 120,
                    num_regs: 255,
                    branch_frac: 0.3,
                    long_op_frac: 0.6,
                    ..RandomCfg::default()
                },
            ] {
                bytes.extend(crate::write_binary(&random_program(&RandomCfg {
                    seed,
                    ..cfg
                })));
            }
        }
        assert_eq!(crate::cache::fnv1a(&bytes), 0x9ffb_ec4c_1921_a5d7);
    }

    /// A looped body never writes `r0` or the counter, so every loop
    /// program halts after exactly `loop_iters` trips, at every
    /// register-file size the ISA allows.
    #[test]
    fn loop_programs_halt_after_their_trip_count() {
        for seed in 0..40 {
            let num_regs = [4, 6, 32, 256][seed as usize % 4];
            let cfg = RandomCfg {
                seed,
                len: 30,
                num_regs,
                branch_frac: 0.2,
                loop_iters: 1 + seed as u32 % 7,
                ..RandomCfg::default()
            };
            let p = random_program(&cfg);
            assert_eq!(p.validate(), Ok(()), "seed {seed}");
            let counter = Reg((num_regs - 1) as u8);
            let body = &p.instrs[1..p.len() - 3];
            assert!(body
                .iter()
                .all(|i| i.writes() != Some(Reg(0)) && i.writes() != Some(counter)));
            assert!(matches!(
                p.instrs[p.len() - 2],
                Instr::Branch { target: 1, .. }
            ));
            let mut m = Interp::new(&p, 1 << 10);
            assert!(m.run(100_000).halted(), "seed {seed} must halt");
            assert_eq!(m.regs[counter.index()], 0, "seed {seed}");
        }
    }
}
