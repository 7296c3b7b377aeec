//! Bus-level combinators: word muxes, comparators, reduction and
//! fan-out trees.
//!
//! A *bus* is simply an ordered slice of nodes (LSB first). All
//! combinators are balanced-tree constructions where the paper requires
//! logarithmic depth (comparators fan in through an AND tree, Figure 8
//! fans requests out through buffer trees).

use crate::netlist::{Netlist, NodeId};

/// An ordered bundle of wires, least-significant bit first.
pub type Bus = Vec<NodeId>;

/// Declare a `width`-bit input bus.
pub fn input_bus(nl: &mut Netlist, width: usize) -> Bus {
    (0..width).map(|_| nl.input()).collect()
}

/// A constant bus holding `value` (LSB first, truncated to `width`).
pub fn const_bus(nl: &mut Netlist, value: u64, width: usize) -> Bus {
    (0..width)
        .map(|i| nl.constant(value >> i & 1 == 1))
        .collect()
}

/// Bitwise two-to-one mux over buses: `sel ? b : a`.
///
/// # Panics
/// Panics if the buses differ in width.
pub fn mux_bus(nl: &mut Netlist, sel: NodeId, a: &[NodeId], b: &[NodeId]) -> Bus {
    assert_eq!(a.len(), b.len(), "mux_bus width mismatch");
    a.iter().zip(b).map(|(&x, &y)| nl.mux(sel, x, y)).collect()
}

/// Balanced AND reduction tree; depth `ceil(log2 n)`.
///
/// # Panics
/// Panics on an empty input slice.
pub fn and_tree(nl: &mut Netlist, xs: &[NodeId]) -> NodeId {
    reduce_tree(xs, &mut |a, b| nl.and(a, b))
}

/// Balanced OR reduction tree; depth `ceil(log2 n)`.
///
/// # Panics
/// Panics on an empty input slice.
pub fn or_tree(nl: &mut Netlist, xs: &[NodeId]) -> NodeId {
    reduce_tree(xs, &mut |a, b| nl.or(a, b))
}

fn reduce_tree(xs: &[NodeId], combine: &mut impl FnMut(NodeId, NodeId) -> NodeId) -> NodeId {
    assert!(!xs.is_empty(), "reduction over empty slice");
    let mut layer: Vec<NodeId> = xs.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(if pair.len() == 2 {
                combine(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    layer[0]
}

/// Bus equality comparator: XNOR per bit feeding an AND tree.
/// Depth `1 + ceil(log2 width) + 1` gates — the paper's
/// `Θ(log log L)`-after-fan-out comparator (width = `ceil(log2 L)` when
/// comparing register numbers).
///
/// # Panics
/// Panics if the buses differ in width or are empty.
pub fn eq_comparator(nl: &mut Netlist, a: &[NodeId], b: &[NodeId]) -> NodeId {
    assert_eq!(a.len(), b.len(), "comparator width mismatch");
    assert!(!a.is_empty(), "comparator over empty bus");
    let bits: Vec<NodeId> = a.iter().zip(b).map(|(&x, &y)| nl.xnor(x, y)).collect();
    and_tree(nl, &bits)
}

/// Fan a single wire out through a balanced buffer tree to `copies`
/// leaves (paper Figure 8's `F` nodes). Buffers are modelled as
/// identity gates (two serial inverters would double the constant; the
/// asymptotics are identical), implemented as OR(x, x).
pub fn fanout_tree(nl: &mut Netlist, x: NodeId, copies: usize) -> Vec<NodeId> {
    assert!(copies > 0, "fanout to zero copies");
    // Build a balanced binary tree of buffer stages: each level doubles
    // the number of drivers.
    let mut layer = vec![x];
    while layer.len() < copies {
        let mut next = Vec::with_capacity(layer.len() * 2);
        for &w in &layer {
            let b1 = nl.or(w, w);
            let b2 = nl.or(w, w);
            next.push(b1);
            next.push(b2);
            if next.len() >= copies {
                break;
            }
        }
        layer = next;
    }
    layer.truncate(copies);
    layer
}

/// Fan a whole bus out to `copies` bus replicas.
pub fn fanout_bus(nl: &mut Netlist, bus: &[NodeId], copies: usize) -> Vec<Bus> {
    let per_bit: Vec<Vec<NodeId>> = bus.iter().map(|&w| fanout_tree(nl, w, copies)).collect();
    (0..copies)
        .map(|c| per_bit.iter().map(|bits| bits[c]).collect())
        .collect()
}

/// Read a bus value from an evaluation as an integer (LSB first).
pub fn bus_value(eval: &crate::netlist::Evaluation, bus: &[NodeId]) -> u64 {
    bus.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &n)| acc | (eval.value(n) as u64) << i)
}

/// Bind a bus's input values into an input-vector under construction.
///
/// `slots` must be the positions of `bus`'s wires in the netlist input
/// order; in practice buses are created with [`input_bus`] so their
/// wires are consecutive. This helper writes `value`'s bits into
/// `inputs` at the positions corresponding to `bus`'s wires, given the
/// id of the first input node of the netlist.
pub fn set_bus_value(inputs: &mut [bool], bus_first_input_index: usize, width: usize, value: u64) {
    for i in 0..width {
        inputs[bus_first_input_index + i] = value >> i & 1 == 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_bus_and_bus_value_roundtrip() {
        let mut nl = Netlist::new();
        let b = const_bus(&mut nl, 0b1011_0010, 8);
        let e = nl.evaluate(&[]).unwrap();
        assert_eq!(bus_value(&e, &b), 0b1011_0010);
    }

    #[test]
    fn mux_bus_selects_word() {
        let mut nl = Netlist::new();
        let sel = nl.input();
        let a = const_bus(&mut nl, 0xA5, 8);
        let b = const_bus(&mut nl, 0x3C, 8);
        let m = mux_bus(&mut nl, sel, &a, &b);
        let e = nl.evaluate(&[false]).unwrap();
        assert_eq!(bus_value(&e, &m), 0xA5);
        let e = nl.evaluate(&[true]).unwrap();
        assert_eq!(bus_value(&e, &m), 0x3C);
    }

    #[test]
    fn and_or_trees_match_folds() {
        for n in 1..=17usize {
            for pattern in [0u32, !0u32, 0b1_1010_1010_1010_1010, 7] {
                let mut nl = Netlist::new();
                let xs: Vec<NodeId> = (0..n)
                    .map(|i| nl.constant(pattern >> (i % 32) & 1 == 1))
                    .collect();
                let at = and_tree(&mut nl, &xs);
                let ot = or_tree(&mut nl, &xs);
                let e = nl.evaluate(&[]).unwrap();
                let bits: Vec<bool> = (0..n).map(|i| pattern >> (i % 32) & 1 == 1).collect();
                assert_eq!(e.value(at), bits.iter().all(|&b| b), "and n={n}");
                assert_eq!(e.value(ot), bits.iter().any(|&b| b), "or n={n}");
            }
        }
    }

    #[test]
    fn reduction_tree_depth_is_logarithmic() {
        for k in 0..8u32 {
            let n = 1usize << k;
            let mut nl = Netlist::new();
            let xs: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
            let root = and_tree(&mut nl, &xs);
            nl.mark_output(root);
            let e = nl.evaluate(&vec![true; n]).unwrap();
            assert_eq!(e.max_level(), k, "n={n}");
        }
    }

    #[test]
    fn comparator_equality() {
        let mut nl = Netlist::new();
        let a = input_bus(&mut nl, 6);
        let b = input_bus(&mut nl, 6);
        let eq = eq_comparator(&mut nl, &a, &b);
        for (x, y) in [(0u64, 0u64), (5, 5), (5, 4), (63, 63), (63, 31)] {
            let mut inputs = vec![false; 12];
            set_bus_value(&mut inputs, 0, 6, x);
            set_bus_value(&mut inputs, 6, 6, y);
            let e = nl.evaluate(&inputs).unwrap();
            assert_eq!(e.value(eq), x == y, "{x} vs {y}");
        }
    }

    #[test]
    fn fanout_tree_replicates_and_has_log_depth() {
        for copies in [1usize, 2, 3, 7, 16, 33] {
            let mut nl = Netlist::new();
            let x = nl.input();
            let leaves = fanout_tree(&mut nl, x, copies);
            assert_eq!(leaves.len(), copies);
            for v in [false, true] {
                let e = nl.evaluate(&[v]).unwrap();
                for &l in &leaves {
                    assert_eq!(e.value(l), v);
                    assert!(
                        e.level(l) as usize
                            <= copies.next_power_of_two().trailing_zeros() as usize + 1
                    );
                }
            }
        }
    }

    #[test]
    fn fanout_bus_replicates_words() {
        let mut nl = Netlist::new();
        let b = const_bus(&mut nl, 0x2A, 6);
        let copies = fanout_bus(&mut nl, &b, 5);
        let e = nl.evaluate(&[]).unwrap();
        for c in &copies {
            assert_eq!(bus_value(&e, c), 0x2A);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_reduction_panics() {
        let mut nl = Netlist::new();
        let _ = and_tree(&mut nl, &[]);
    }
}
