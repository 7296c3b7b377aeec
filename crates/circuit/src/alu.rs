//! Gate-level integer ALU — the datapath inside each execution station
//! (paper Figure 2: "each station includes its own functional units").
//!
//! Two adder implementations make the prefix theme concrete: the
//! carry chain of addition is itself an associative prefix computation
//! over (generate, propagate) pairs, so the same tree construction that
//! gives the CSPP datapath its `Θ(log n)` delay gives the station a
//! `Θ(log b)` adder ([`add_prefix`], Kogge–Stone style) versus the
//! `Θ(b)` ripple chain ([`add_ripple`]).
//!
//! Single-cycle operations (`add sub and or xor sll srl sra slt sltu`)
//! are built here and property-verified against the ISA semantics
//! ([`ultrascalar_isa::AluOp::apply`]); the multi-cycle multiplier and
//! divider are modelled behaviourally by the processor's latency model,
//! as the paper models them by their cycle counts.

use crate::build::{self, Bus};
use crate::netlist::{Netlist, NodeId};

/// Result of an adder: sum bits plus the carry out.
#[derive(Debug, Clone)]
pub struct AddOut {
    /// Sum bits, LSB first.
    pub sum: Bus,
    /// Carry out of the top bit.
    pub carry: NodeId,
}

/// Ripple-carry adder: `a + b + cin`, depth `Θ(bits)`.
///
/// # Panics
/// Panics if the buses differ in width or are empty.
pub fn add_ripple(nl: &mut Netlist, a: &[NodeId], b: &[NodeId], cin: NodeId) -> AddOut {
    assert_eq!(a.len(), b.len(), "adder width mismatch");
    assert!(!a.is_empty(), "adder needs at least one bit");
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let xy = nl.xor(x, y);
        sum.push(nl.xor(xy, carry));
        // carry' = (x & y) | (carry & (x ^ y))
        let g = nl.and(x, y);
        let p = nl.and(carry, xy);
        carry = nl.or(g, p);
    }
    AddOut { sum, carry }
}

/// Parallel-prefix (Kogge–Stone) adder: `a + b + cin`, depth
/// `Θ(log bits)`.
///
/// The carry into bit `i` is the prefix combination of the
/// (generate, propagate) pairs of bits `0..i` under the associative
/// operator `(g₂,p₂) ∘ (g₁,p₁) = (g₂ ∨ p₂g₁, p₂p₁)` — the same
/// segmented-scan machinery as the register datapath, instantiated in
/// gates.
///
/// # Panics
/// Panics if the buses differ in width or are empty.
pub fn add_prefix(nl: &mut Netlist, a: &[NodeId], b: &[NodeId], cin: NodeId) -> AddOut {
    assert_eq!(a.len(), b.len(), "adder width mismatch");
    assert!(!a.is_empty(), "adder needs at least one bit");
    let bits = a.len();
    // Per-bit generate/propagate.
    let mut g: Vec<NodeId> = Vec::with_capacity(bits);
    let mut p: Vec<NodeId> = Vec::with_capacity(bits);
    for (&x, &y) in a.iter().zip(b) {
        g.push(nl.and(x, y));
        p.push(nl.xor(x, y));
    }
    let p_orig = p.clone();
    // Kogge–Stone inclusive scan over (g, p).
    let mut dist = 1usize;
    while dist < bits {
        let (mut g2, mut p2) = (g.clone(), p.clone());
        for i in dist..bits {
            // (g,p)[i] ∘ (g,p)[i-dist]
            let t = nl.and(p[i], g[i - dist]);
            g2[i] = nl.or(g[i], t);
            p2[i] = nl.and(p[i], p[i - dist]);
        }
        g = g2;
        p = p2;
        dist *= 2;
    }
    // carry into bit i = G[i-1] | (P[i-1] & cin); carry into bit 0 = cin.
    let mut carries = Vec::with_capacity(bits + 1);
    carries.push(cin);
    for i in 0..bits {
        let t = nl.and(p[i], cin);
        carries.push(nl.or(g[i], t));
    }
    let sum: Bus = (0..bits).map(|i| nl.xor(p_orig[i], carries[i])).collect();
    AddOut {
        sum,
        carry: carries[bits],
    }
}

/// Two's-complement subtractor `a - b` via `a + !b + 1`, prefix carry
/// chain. The carry out is the *not-borrow* (i.e. `a >= b` unsigned).
pub fn sub_prefix(nl: &mut Netlist, a: &[NodeId], b: &[NodeId]) -> AddOut {
    let nb: Bus = b.iter().map(|&x| nl.not(x)).collect();
    let one = nl.constant(true);
    add_prefix(nl, a, &nb, one)
}

/// Logarithmic barrel shifter. `amount` is a bus of
/// `ceil(log2 bits)` select lines (the ISA masks shift amounts to the
/// word size, so higher bits of the amount are ignored by callers).
///
/// `right` selects direction; `arith` (only meaningful with `right`)
/// fills with the sign bit.
pub fn barrel_shift(
    nl: &mut Netlist,
    value: &[NodeId],
    amount: &[NodeId],
    right: bool,
    arith: bool,
) -> Bus {
    assert!(!value.is_empty(), "shifter needs at least one bit");
    let bits = value.len();
    let fill_sign = *value.last().expect("non-empty");
    let zero = nl.constant(false);
    let mut cur: Bus = value.to_vec();
    for (stage, &sel) in amount.iter().enumerate() {
        let shift = 1usize << stage;
        if shift >= bits {
            // Shifting by >= bits: result all-fill if selected.
            let fill = if right && arith { fill_sign } else { zero };
            cur = cur.iter().map(|&w| nl.mux(sel, w, fill)).collect();
            continue;
        }
        let mut shifted = Vec::with_capacity(bits);
        for i in 0..bits {
            let src = if right {
                if i + shift < bits {
                    cur[i + shift]
                } else if arith {
                    fill_sign
                } else {
                    zero
                }
            } else if i >= shift {
                cur[i - shift]
            } else {
                zero
            };
            shifted.push(src);
        }
        cur = (0..bits).map(|i| nl.mux(sel, cur[i], shifted[i])).collect();
    }
    cur
}

/// The station ALU's single-cycle operation selector, mirroring
/// [`ultrascalar_isa::AluOp`] for the non-multiplicative ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateAluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Set-less-than signed.
    Slt,
    /// Set-less-than unsigned.
    Sltu,
}

impl GateAluOp {
    /// All single-cycle ops.
    pub const ALL: [GateAluOp; 10] = [
        GateAluOp::Add,
        GateAluOp::Sub,
        GateAluOp::And,
        GateAluOp::Or,
        GateAluOp::Xor,
        GateAluOp::Sll,
        GateAluOp::Srl,
        GateAluOp::Sra,
        GateAluOp::Slt,
        GateAluOp::Sltu,
    ];

    /// The corresponding ISA operation.
    pub fn isa_op(self) -> ultrascalar_isa::AluOp {
        use ultrascalar_isa::AluOp as I;
        match self {
            GateAluOp::Add => I::Add,
            GateAluOp::Sub => I::Sub,
            GateAluOp::And => I::And,
            GateAluOp::Or => I::Or,
            GateAluOp::Xor => I::Xor,
            GateAluOp::Sll => I::Sll,
            GateAluOp::Srl => I::Srl,
            GateAluOp::Sra => I::Sra,
            GateAluOp::Slt => I::Slt,
            GateAluOp::Sltu => I::Sltu,
        }
    }
}

/// A complete single-cycle station ALU: fixed operation, two input
/// buses, one output bus. (The station's decode logic selects which
/// unit drives the result; building one unit per op keeps depth
/// measurements per-op.)
pub fn alu(nl: &mut Netlist, op: GateAluOp, a: &[NodeId], b: &[NodeId]) -> Bus {
    assert_eq!(a.len(), b.len(), "ALU width mismatch");
    let bits = a.len();
    let log_bits = (usize::BITS - (bits.max(2) - 1).leading_zeros()) as usize;
    match op {
        GateAluOp::Add => {
            let zero = nl.constant(false);
            add_prefix(nl, a, b, zero).sum
        }
        GateAluOp::Sub => sub_prefix(nl, a, b).sum,
        GateAluOp::And => a.iter().zip(b).map(|(&x, &y)| nl.and(x, y)).collect(),
        GateAluOp::Or => a.iter().zip(b).map(|(&x, &y)| nl.or(x, y)).collect(),
        GateAluOp::Xor => a.iter().zip(b).map(|(&x, &y)| nl.xor(x, y)).collect(),
        GateAluOp::Sll | GateAluOp::Srl | GateAluOp::Sra => {
            let amount: Bus = b[..log_bits.min(bits)].to_vec();
            barrel_shift(
                nl,
                a,
                &amount,
                !matches!(op, GateAluOp::Sll),
                matches!(op, GateAluOp::Sra),
            )
        }
        GateAluOp::Slt | GateAluOp::Sltu => {
            // a < b  ⇔  borrow out of a - b, with sign correction for
            // the signed compare: signed_lt = (a<b unsigned) ^ sa ^ sb.
            let diff = sub_prefix(nl, a, b);
            let ltu = nl.not(diff.carry); // borrow
            let bit = match op {
                GateAluOp::Sltu => ltu,
                _ => {
                    let sa = a[bits - 1];
                    let sb = b[bits - 1];
                    let x = nl.xor(sa, sb);
                    nl.xor(ltu, x)
                }
            };
            let zero = nl.constant(false);
            let mut out = vec![zero; bits];
            out[0] = bit;
            out
        }
    }
}

/// Convenience: measure the settled depth of one ALU op at a width,
/// over a given pair of operands.
pub fn measure_depth(op: GateAluOp, bits: usize, a: u64, b: u64) -> u32 {
    let mut nl = Netlist::new();
    let ab = build::input_bus(&mut nl, bits);
    let bb = build::input_bus(&mut nl, bits);
    let out = alu(&mut nl, op, &ab, &bb);
    for &w in &out {
        nl.mark_output(w);
    }
    let mut inputs = vec![false; nl.num_inputs()];
    for i in 0..bits {
        inputs[i] = a >> i & 1 == 1;
        inputs[bits + i] = b >> i & 1 == 1;
    }
    nl.evaluate(&inputs, &[]).expect("ALU settles").max_level()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{bus_value, input_bus};

    fn run_alu(op: GateAluOp, bits: usize, a: u64, b: u64) -> u64 {
        let mut nl = Netlist::new();
        let ab = input_bus(&mut nl, bits);
        let bb = input_bus(&mut nl, bits);
        let out = alu(&mut nl, op, &ab, &bb);
        let mut inputs = vec![false; 2 * bits];
        for i in 0..bits {
            inputs[i] = a >> i & 1 == 1;
            inputs[bits + i] = b >> i & 1 == 1;
        }
        let e = nl.evaluate(&inputs, &[]).unwrap();
        bus_value(&e, &out)
    }

    #[test]
    fn adders_agree_with_arithmetic() {
        for (a, b) in [(0u64, 0u64), (1, 1), (255, 1), (170, 85), (200, 99)] {
            for cin in [false, true] {
                let mut nl = Netlist::new();
                let ab = input_bus(&mut nl, 8);
                let bb = input_bus(&mut nl, 8);
                let c = nl.constant(cin);
                let r = add_ripple(&mut nl, &ab, &bb, c);
                let p = add_prefix(&mut nl, &ab, &bb, c);
                let mut inputs = vec![false; 16];
                for i in 0..8 {
                    inputs[i] = a >> i & 1 == 1;
                    inputs[8 + i] = b >> i & 1 == 1;
                }
                let e = nl.evaluate(&inputs, &[]).unwrap();
                let expect = a + b + cin as u64;
                assert_eq!(bus_value(&e, &r.sum), expect & 0xFF, "ripple {a}+{b}");
                assert_eq!(e.value(r.carry), expect > 0xFF, "ripple carry");
                assert_eq!(bus_value(&e, &p.sum), expect & 0xFF, "prefix {a}+{b}");
                assert_eq!(e.value(p.carry), expect > 0xFF, "prefix carry");
            }
        }
    }

    #[test]
    fn prefix_adder_is_logarithmic_ripple_linear() {
        // Worst-case carry propagation: a = all ones, b = 1.
        let depth = |bits: usize, prefix: bool| -> u32 {
            let mut nl = Netlist::new();
            let ab = input_bus(&mut nl, bits);
            let bb = input_bus(&mut nl, bits);
            let c = nl.constant(false);
            let out = if prefix {
                add_prefix(&mut nl, &ab, &bb, c)
            } else {
                add_ripple(&mut nl, &ab, &bb, c)
            };
            for &w in &out.sum {
                nl.mark_output(w);
            }
            nl.mark_output(out.carry);
            let mut inputs = vec![false; 2 * bits];
            inputs[..bits].fill(true); // a = all ones
            inputs[bits] = true; // b = 1
            nl.evaluate(&inputs, &[]).unwrap().max_level()
        };
        let r16 = depth(16, false);
        let r64 = depth(64, false);
        assert!(r64 >= r16 + 80, "ripple must be linear: {r16} → {r64}");
        let p16 = depth(16, true);
        let p64 = depth(64, true);
        assert!(p64 <= p16 + 8, "prefix must be logarithmic: {p16} → {p64}");
        assert!(p64 < r64 / 4, "prefix beats ripple at 64 bits");
    }

    #[test]
    fn all_ops_match_isa_semantics_samples() {
        let samples = [
            (0u32, 0u32),
            (1, 2),
            (u32::MAX, 1),
            (0x8000_0000, 31),
            (0xDEAD_BEEF, 0xFEED_FACE),
            (7, 32),
            (u32::MAX, u32::MAX),
        ];
        for op in GateAluOp::ALL {
            for &(a, b) in &samples {
                let got = run_alu(op, 32, a as u64, b as u64) as u32;
                let want = op.isa_op().apply(a, b);
                assert_eq!(got, want, "{op:?}({a:#x}, {b:#x})");
            }
        }
    }

    #[test]
    fn shifts_at_small_widths() {
        // 4-bit shifts exercise the amount-overflow stage.
        for a in 0..16u64 {
            for b in 0..4u64 {
                assert_eq!(run_alu(GateAluOp::Sll, 4, a, b), (a << b) & 0xF, "{a}<<{b}");
                assert_eq!(run_alu(GateAluOp::Srl, 4, a, b), a >> b, "{a}>>{b}");
            }
        }
    }

    #[test]
    fn comparisons_exhaustive_4bit() {
        for a in 0..16u64 {
            for b in 0..16u64 {
                let sa = ((a as i64) << 60) >> 60; // sign-extend 4 bits
                let sb = ((b as i64) << 60) >> 60;
                assert_eq!(run_alu(GateAluOp::Sltu, 4, a, b) != 0, a < b, "{a} ltu {b}");
                assert_eq!(run_alu(GateAluOp::Slt, 4, a, b) != 0, sa < sb, "{a} lt {b}");
            }
        }
    }

    #[test]
    fn measure_depth_reports_positive_depths() {
        let d = measure_depth(GateAluOp::Add, 32, u32::MAX as u64, 1);
        assert!(d > 0 && d < 40, "32-bit prefix add depth {d}");
    }
}

#[cfg(test)]
mod random_tests {
    use super::*;
    use crate::build::{bus_value, input_bus};
    use rand::{cases, Rng};

    fn eval_op(op: GateAluOp, a: u32, b: u32) -> u32 {
        let mut nl = Netlist::new();
        let ab = input_bus(&mut nl, 32);
        let bb = input_bus(&mut nl, 32);
        let out = alu(&mut nl, op, &ab, &bb);
        let mut inputs = vec![false; 64];
        for i in 0..32 {
            inputs[i] = a >> i & 1 == 1;
            inputs[32 + i] = b >> i & 1 == 1;
        }
        let e = nl.evaluate(&inputs, &[]).unwrap();
        bus_value(&e, &out) as u32
    }

    #[test]
    fn gate_alu_matches_isa() {
        cases(0xA1D0_0001, 48, |rng, _| {
            let (a, b): (u32, u32) = (rng.gen(), rng.gen());
            let op = GateAluOp::ALL[rng.gen_range(0usize..10)];
            assert_eq!(
                eval_op(op, a, b),
                op.isa_op().apply(a, b),
                "{op:?} {a:#x} {b:#x}"
            );
        });
    }

    #[test]
    fn adders_agree_with_each_other() {
        cases(0xA1D0_0002, 48, |rng, _| {
            let (a, b): (u32, u32) = (rng.gen(), rng.gen());
            let mut nl = Netlist::new();
            let ab = input_bus(&mut nl, 32);
            let bb = input_bus(&mut nl, 32);
            let z = nl.constant(false);
            let r = add_ripple(&mut nl, &ab, &bb, z);
            let p = add_prefix(&mut nl, &ab, &bb, z);
            let mut inputs = vec![false; 64];
            for i in 0..32 {
                inputs[i] = a >> i & 1 == 1;
                inputs[32 + i] = b >> i & 1 == 1;
            }
            let e = nl.evaluate(&inputs, &[]).unwrap();
            assert_eq!(
                bus_value(&e, &r.sum),
                bus_value(&e, &p.sum),
                "{a:#x} + {b:#x}"
            );
            assert_eq!(e.value(r.carry), e.value(p.carry), "{a:#x} + {b:#x}");
        });
    }
}
