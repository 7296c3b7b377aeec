//! Gate-level generators for the paper's circuit structures.
//!
//! | Generator | Paper figure | Expected depth |
//! |---|---|---|
//! | [`MuxRing`] | Figure 1 (linear US-I datapath) | `Θ(n)` |
//! | [`CsppTree`] | Figure 4/5 (log US-I datapath) | `Θ(log n)` |
//! | [`UsiiColumn`] (linear) | Figure 7 (US-II grid column) | `Θ(rows)` |
//! | [`UsiiColumn`] (tree) | Figure 8 (mesh-of-trees column) | `Θ(log rows + log width)` |
//! | [`UsiiDatapath`] | Figure 7/8 (full US-II register network) | per column |
//!
//! Every generator exposes its input nodes so tests can drive arbitrary
//! vectors, and is property-tested against the algorithmic models in
//! `ultrascalar-prefix`.

// Index-based loops are deliberate where node ids are predicted or
// multiple parallel vectors are built in lockstep.
#![allow(clippy::needless_range_loop)]

use crate::build::{self, Bus};
use crate::netlist::{Netlist, NodeId};

/// Which associative operator a tree circuit implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineOp {
    /// The register-forwarding operator `a ⊗ b = a` (bus payload).
    First,
    /// Bitwise AND (`a ⊗ b = a ∧ b`); with a 1-bit payload this is the
    /// paper's Figure 5 sequencing operator.
    BitAnd,
}

impl CombineOp {
    /// Build the *segmented* combination of two interval summaries
    /// `(va, sa)` and `(vb, sb)` (B follows A in ring order):
    /// `value = sb ? vb : (va ⊗ vb)`, `seg = sa ∨ sb`.
    fn combine(
        self,
        nl: &mut Netlist,
        va: &[NodeId],
        sa: NodeId,
        vb: &[NodeId],
        sb: NodeId,
    ) -> (Bus, NodeId) {
        let merged: Bus = match self {
            // First: va ⊗ vb = va, so value = sb ? vb : va.
            CombineOp::First => build::mux_bus(nl, sb, va, vb),
            // BitAnd: value = sb ? vb : (va & vb).
            CombineOp::BitAnd => {
                let anded: Bus = va.iter().zip(vb).map(|(&x, &y)| nl.and(x, y)).collect();
                build::mux_bus(nl, sb, &anded, vb)
            }
        };
        let seg = nl.or(sa, sb);
        (merged, seg)
    }
}

/// The linear mux-ring datapath of Figure 1, for one logical register.
///
/// Station `i` drives `modified[i]` and `inserted[i]`; it receives
/// `incoming[i]`, the output of station `i-1`'s multiplexer (wrapping).
/// The ring is a genuine combinational cycle; evaluation settles iff at
/// least one modified bit is raised (the oldest station always raises
/// all of its modified bits, so the processor always settles).
#[derive(Debug)]
pub struct MuxRing {
    /// Per-station modified bit (input).
    pub modified: Vec<NodeId>,
    /// Per-station inserted value bus (input).
    pub inserted: Vec<Bus>,
    /// Per-station incoming value bus (output of the ring).
    pub incoming: Vec<Bus>,
}

impl MuxRing {
    /// Build an `n`-station ring carrying a `width`-bit payload.
    ///
    /// # Panics
    /// Panics if `n == 0` or `width == 0`.
    pub fn build(nl: &mut Netlist, n: usize, width: usize) -> Self {
        assert!(n > 0 && width > 0, "MuxRing needs n, width >= 1");
        let modified: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        let inserted: Vec<Bus> = (0..n).map(|_| build::input_bus(nl, width)).collect();

        // The muxes are cyclic; predict their ids. They are pushed
        // consecutively starting at the current netlist length, station
        // by station, bit by bit.
        let first = nl.len() as u32;
        let mux_id = |station: usize, bit: usize| NodeId(first + (station * width + bit) as u32);

        for i in 0..n {
            let prev = if i == 0 { n - 1 } else { i - 1 };
            for b in 0..width {
                let m = nl.mux(modified[prev], mux_id(prev, b), inserted[prev][b]);
                debug_assert_eq!(m, mux_id(i, b));
                nl.mark_output(m);
            }
        }
        let incoming: Vec<Bus> = (0..n)
            .map(|i| (0..width).map(|b| mux_id(i, b)).collect())
            .collect();
        MuxRing {
            modified,
            inserted,
            incoming,
        }
    }
}

/// The cyclic segmented parallel-prefix tree of Figures 4/5.
///
/// Station `i` drives `values[i]` (payload) and `seg[i]` (segment /
/// modified bit); it receives `out_value[i]` and `out_seg[i]`: the
/// segmented combination of the cyclically preceding stations back to
/// the nearest raised segment bit. Depth `Θ(log n)`.
#[derive(Debug)]
pub struct CsppTree {
    /// Per-station payload bus (input).
    pub values: Vec<Bus>,
    /// Per-station segment bit (input).
    pub seg: Vec<NodeId>,
    /// Per-station incoming payload (output).
    pub out_value: Vec<Bus>,
    /// Per-station incoming segment flag: does any boundary precede?
    pub out_seg: Vec<NodeId>,
}

impl CsppTree {
    /// Build an `n`-leaf CSPP tree with a `width`-bit payload and the
    /// given operator.
    ///
    /// # Panics
    /// Panics if `n == 0` or `width == 0`.
    pub fn build(nl: &mut Netlist, n: usize, width: usize, op: CombineOp) -> Self {
        assert!(n > 0 && width > 0, "CsppTree needs n, width >= 1");
        let values: Vec<Bus> = (0..n).map(|_| build::input_bus(nl, width)).collect();
        let seg: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();

        // Up-sweep + root-tied down-sweep over the left-packed heap
        // layout, shared with the algorithmic substrate: "combining"
        // two interval summaries emits the combine block's gates into
        // the netlist. The sweep skips unoccupied nodes, so
        // non-power-of-two widths generate no dead combine blocks.
        let leaves: Vec<(Bus, NodeId)> = values
            .iter()
            .zip(&seg)
            .map(|(v, &s)| (v.clone(), s))
            .collect();
        let prefixes = ultrascalar_prefix::cspp_heap_with(&leaves, |(va, sa), (vb, sb)| {
            op.combine(nl, va, *sa, vb, *sb)
        });

        let mut out_value = Vec::with_capacity(n);
        let mut out_seg = Vec::with_capacity(n);
        for (v, s) in prefixes {
            for &b in &v {
                nl.mark_output(b);
            }
            nl.mark_output(s);
            out_value.push(v);
            out_seg.push(s);
        }
        CsppTree {
            values,
            seg,
            out_value,
            out_seg,
        }
    }
}

/// One Ultrascalar II argument column (Figures 7/8): search `rows`
/// register bindings, ordered oldest first, for the *last* one whose
/// register number matches the request; return its value.
#[derive(Debug)]
pub struct UsiiColumn {
    /// Per-row register-number bus (input).
    pub row_regnum: Vec<Bus>,
    /// Per-row binding-valid bit (input; low for stations that write no
    /// register).
    pub row_valid: Vec<NodeId>,
    /// Per-row value payload (input).
    pub row_value: Vec<Bus>,
    /// Requested register number (input).
    pub request: Bus,
    /// Selected value (output; the last matching row's payload).
    pub out_value: Bus,
    /// Did any row match? (output)
    pub found: NodeId,
}

impl UsiiColumn {
    /// Build a column over `rows` bindings with `regnum_width`-bit
    /// register numbers and `width`-bit payloads.
    ///
    /// `tree == false` builds the linear chain of Figure 7 (depth
    /// `Θ(rows)`); `tree == true` builds the fan-out + comparator +
    /// reduction-tree column of Figure 8 (depth `Θ(log rows + log
    /// regnum_width)`).
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn build(
        nl: &mut Netlist,
        rows: usize,
        regnum_width: usize,
        width: usize,
        tree: bool,
    ) -> Self {
        assert!(
            rows > 0 && regnum_width > 0 && width > 0,
            "UsiiColumn needs positive dimensions"
        );
        let row_regnum: Vec<Bus> = (0..rows)
            .map(|_| build::input_bus(nl, regnum_width))
            .collect();
        let row_valid: Vec<NodeId> = (0..rows).map(|_| nl.input()).collect();
        let row_value: Vec<Bus> = (0..rows).map(|_| build::input_bus(nl, width)).collect();
        let request = build::input_bus(nl, regnum_width);

        // Fan the request out (physically significant in the tree
        // version; harmless in the linear one).
        let requests: Vec<Bus> = if tree {
            build::fanout_bus(nl, &request, rows)
        } else {
            vec![request.clone(); rows]
        };

        // Per-row match bit.
        let matches: Vec<NodeId> = (0..rows)
            .map(|r| {
                let eq = build::eq_comparator(nl, &row_regnum[r], &requests[r]);
                nl.and(eq, row_valid[r])
            })
            .collect();

        let (out_value, found) = if tree {
            // Segmented-First reduction: last matching row wins.
            let mut layer: Vec<(Bus, NodeId)> = (0..rows)
                .map(|r| (row_value[r].clone(), matches[r]))
                .collect();
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                let mut it = layer.chunks(2);
                for pair in &mut it {
                    next.push(if pair.len() == 2 {
                        let (va, sa) = &pair[0];
                        let (vb, sb) = &pair[1];
                        CombineOp::First.combine(nl, va, *sa, vb, *sb)
                    } else {
                        pair[0].clone()
                    });
                }
                layer = next;
            }
            layer.pop().expect("non-empty reduction")
        } else {
            // Linear chain, oldest row first: acc = match ? value : acc.
            let zeros = build::const_bus(nl, 0, width);
            let fls = nl.constant(false);
            let mut acc: (Bus, NodeId) = (zeros, fls);
            for r in 0..rows {
                let v = build::mux_bus(nl, matches[r], &acc.0, &row_value[r]);
                let f = nl.or(acc.1, matches[r]);
                acc = (v, f);
            }
            acc
        };
        for &b in &out_value {
            nl.mark_output(b);
        }
        nl.mark_output(found);
        UsiiColumn {
            row_regnum,
            row_valid,
            row_value,
            request,
            out_value,
            found,
        }
    }
}

/// A complete (small) Ultrascalar II register datapath: `l` initial
/// register rows followed by `n` station result rows; two argument
/// columns per station seeing only the rows above them, plus `l`
/// outgoing register columns seeing every row (Figure 7).
#[derive(Debug)]
pub struct UsiiDatapath {
    /// Initial register values (inputs), indexed by register.
    pub init_value: Vec<Bus>,
    /// Station result register numbers (inputs).
    pub st_regnum: Vec<Bus>,
    /// Station writes-a-register bits (inputs).
    pub st_valid: Vec<NodeId>,
    /// Station result payloads (inputs).
    pub st_value: Vec<Bus>,
    /// Per-station argument-request register numbers (inputs), two per
    /// station.
    pub arg_request: Vec<[Bus; 2]>,
    /// Per-station argument values (outputs), two per station.
    pub arg_value: Vec<[Bus; 2]>,
    /// Outgoing (final) register values (outputs), indexed by register.
    pub out_value: Vec<Bus>,
}

impl UsiiDatapath {
    /// Build the datapath for `n` stations, `l` logical registers and a
    /// `width`-bit payload (callers typically use `width = bits + 1` to
    /// carry a ready bit). `tree` selects Figure 7 (linear) vs Figure 8
    /// (mesh-of-trees) column structure.
    ///
    /// # Panics
    /// Panics if any dimension is zero or `l > 2^16`.
    pub fn build(nl: &mut Netlist, n: usize, l: usize, width: usize, tree: bool) -> Self {
        assert!(n > 0 && l > 0 && width > 0, "UsiiDatapath dimensions");
        assert!(l <= 1 << 16, "register count too large");
        let rw = (usize::BITS - (l - 1).leading_zeros()).max(1) as usize;

        let init_value: Vec<Bus> = (0..l).map(|_| build::input_bus(nl, width)).collect();
        let st_regnum: Vec<Bus> = (0..n).map(|_| build::input_bus(nl, rw)).collect();
        let st_valid: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        let st_value: Vec<Bus> = (0..n).map(|_| build::input_bus(nl, width)).collect();
        let arg_request: Vec<[Bus; 2]> = (0..n)
            .map(|_| [build::input_bus(nl, rw), build::input_bus(nl, rw)])
            .collect();

        // Constant regnum buses and always-valid bits for the initial rows.
        let tru = nl.constant(true);
        let init_regnum: Vec<Bus> = (0..l).map(|r| build::const_bus(nl, r as u64, rw)).collect();

        // Helper: build one column over the first `vis` station rows.
        let column = |nl: &mut Netlist, request: &Bus, vis: usize| -> (Bus, NodeId) {
            let rows = l + vis;
            // Match bits.
            let requests: Vec<Bus> = if tree {
                build::fanout_bus(nl, request, rows)
            } else {
                vec![request.clone(); rows]
            };
            let mut entries: Vec<(Bus, NodeId)> = Vec::with_capacity(rows);
            for r in 0..l {
                let eq = build::eq_comparator(nl, &init_regnum[r], &requests[r]);
                let m = nl.and(eq, tru);
                entries.push((init_value[r].clone(), m));
            }
            for s in 0..vis {
                let eq = build::eq_comparator(nl, &st_regnum[s], &requests[l + s]);
                let m = nl.and(eq, st_valid[s]);
                entries.push((st_value[s].clone(), m));
            }
            if tree {
                while entries.len() > 1 {
                    let mut next = Vec::with_capacity(entries.len().div_ceil(2));
                    for pair in entries.chunks(2) {
                        next.push(if pair.len() == 2 {
                            let (va, sa) = &pair[0];
                            let (vb, sb) = &pair[1];
                            CombineOp::First.combine(nl, va, *sa, vb, *sb)
                        } else {
                            pair[0].clone()
                        });
                    }
                    entries = next;
                }
                entries.pop().expect("non-empty")
            } else {
                let zeros = build::const_bus(nl, 0, width);
                let fls = nl.constant(false);
                let mut acc = (zeros, fls);
                for (v, m) in entries {
                    let nv = build::mux_bus(nl, m, &acc.0, &v);
                    let nf = nl.or(acc.1, m);
                    acc = (nv, nf);
                }
                acc
            }
        };

        let mut arg_value = Vec::with_capacity(n);
        for s in 0..n {
            let a0 = column(nl, &arg_request[s][0].clone(), s).0;
            let a1 = column(nl, &arg_request[s][1].clone(), s).0;
            for &b in a0.iter().chain(&a1) {
                nl.mark_output(b);
            }
            arg_value.push([a0, a1]);
        }
        let mut out_value = Vec::with_capacity(l);
        for r in 0..l {
            let req = init_regnum[r].clone();
            let v = column(nl, &req, n).0;
            for &b in &v {
                nl.mark_output(b);
            }
            out_value.push(v);
        }
        UsiiDatapath {
            init_value,
            st_regnum,
            st_valid,
            st_value,
            arg_request,
            arg_value,
            out_value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::bus_value;
    use ultrascalar_prefix::{cspp_ring, First};

    /// Drive a netlist whose inputs were created in a known order.
    struct Driver {
        inputs: Vec<bool>,
    }

    impl Driver {
        fn new(n: usize) -> Self {
            Driver {
                inputs: vec![false; n],
            }
        }
        fn set(&mut self, id: NodeId, v: bool) {
            // Input nodes are allocated before any logic in all
            // generators here, so node id == input index.
            self.inputs[id.0 as usize] = v;
        }
        fn set_bus(&mut self, bus: &[NodeId], v: u64) {
            for (i, &b) in bus.iter().enumerate() {
                self.set(b, v >> i & 1 == 1);
            }
        }
    }

    #[test]
    fn mux_ring_forwards_nearest_writer() {
        let n = 8;
        let width = 8;
        let mut nl = Netlist::new();
        let ring = MuxRing::build(&mut nl, n, width);
        // Writers at stations 2 (value 0xAA) and 5 (value 0x55).
        let mut d = Driver::new(nl.num_inputs());
        d.set(ring.modified[2], true);
        d.set_bus(&ring.inserted[2], 0xAA);
        d.set(ring.modified[5], true);
        d.set_bus(&ring.inserted[5], 0x55);
        let e = nl.evaluate(&d.inputs, &[]).unwrap();
        // Stations 3,4,5 see 0xAA; stations 6,7,0,1,2 see 0x55.
        for i in [3usize, 4, 5] {
            assert_eq!(bus_value(&e, &ring.incoming[i]), 0xAA, "station {i}");
        }
        for i in [6usize, 7, 0, 1, 2] {
            assert_eq!(bus_value(&e, &ring.incoming[i]), 0x55, "station {i}");
        }
    }

    #[test]
    fn mux_ring_depth_is_linear() {
        for n in [4usize, 8, 16, 32] {
            let mut nl = Netlist::new();
            let ring = MuxRing::build(&mut nl, n, 1);
            // One writer: the worst-case signal traverses n-1 muxes.
            let mut d = Driver::new(nl.num_inputs());
            d.set(ring.modified[0], true);
            d.set(ring.inserted[0][0], true);
            let e = nl.evaluate(&d.inputs, &[]).unwrap();
            let lvl = e.max_level() as usize;
            assert!(lvl >= n - 1 && lvl <= n + 1, "n={n} level={lvl}");
        }
    }

    #[test]
    fn mux_ring_uncut_cycle_fails_constructively() {
        let mut nl = Netlist::new();
        let _ring = MuxRing::build(&mut nl, 4, 2);
        let d = Driver::new(nl.num_inputs());
        assert!(matches!(
            nl.evaluate(&d.inputs, &[]),
            Err(crate::netlist::EvalError::NotConstructive { .. })
        ));
    }

    #[test]
    fn cspp_tree_matches_algorithm_bus() {
        let n = 8;
        let width = 8;
        let mut nl = Netlist::new();
        let tree = CsppTree::build(&mut nl, n, width, CombineOp::First);
        let vals: Vec<u64> = vec![10, 20, 30, 40, 50, 60, 70, 80];
        let segs = [false, true, false, false, true, false, false, true];
        let mut d = Driver::new(nl.num_inputs());
        for i in 0..n {
            d.set_bus(&tree.values[i], vals[i]);
            d.set(tree.seg[i], segs[i]);
        }
        let e = nl.evaluate(&d.inputs, &[]).unwrap();
        let model = cspp_ring::<u64, First>(&vals, &segs);
        for i in 0..n {
            assert_eq!(
                bus_value(&e, &tree.out_value[i]),
                model[i].value,
                "station {i}"
            );
            assert_eq!(e.value(tree.out_seg[i]), model[i].seg, "station {i} seg");
        }
    }

    #[test]
    fn cspp_tree_depth_is_logarithmic() {
        let mut prev = 0;
        for k in [2usize, 3, 4, 5, 6, 7] {
            let n = 1usize << k;
            let mut nl = Netlist::new();
            let tree = CsppTree::build(&mut nl, n, 1, CombineOp::BitAnd);
            let mut d = Driver::new(nl.num_inputs());
            d.set(tree.seg[0], true);
            for i in 0..n {
                d.set(tree.values[i][0], true);
            }
            let e = nl.evaluate(&d.inputs, &[]).unwrap();
            let lvl = e.max_level();
            // Each tree level costs O(1) gates; total ≈ 2·log2(n)·c.
            assert!(
                lvl as usize <= 4 * k + 4,
                "n={n}: level {lvl} not logarithmic"
            );
            assert!(lvl >= prev, "depth should grow with n");
            prev = lvl;
        }
    }

    #[test]
    fn cspp_tree_figure5_semantics() {
        // The Figure 5 example through the gate-level circuit.
        let n = 8;
        let mut nl = Netlist::new();
        let tree = CsppTree::build(&mut nl, n, 1, CombineOp::BitAnd);
        let mut d = Driver::new(nl.num_inputs());
        d.set(tree.seg[6], true); // oldest
        for i in [6usize, 7, 0, 1, 3] {
            d.set(tree.values[i][0], true);
        }
        let e = nl.evaluate(&d.inputs, &[]).unwrap();
        for i in 0..n {
            let expected = matches!(i, 7 | 0 | 1 | 2);
            if i != 6 {
                assert_eq!(e.value(tree.out_value[i][0]), expected, "station {i}");
            }
        }
    }

    #[test]
    fn usii_column_linear_and_tree_agree_and_pick_last_match() {
        for tree in [false, true] {
            let rows = 6;
            let mut nl = Netlist::new();
            let col = UsiiColumn::build(&mut nl, rows, 3, 8, tree);
            let mut d = Driver::new(nl.num_inputs());
            // Rows bind: r2=11, r5=22 (invalid), r2=33, r1=44.
            let bindings = [
                (2u64, 11u64, true),
                (5, 22, false),
                (2, 33, true),
                (1, 44, true),
                (7, 55, true),
                (2, 66, false),
            ];
            for (r, (num, val, valid)) in bindings.iter().enumerate() {
                d.set_bus(&col.row_regnum[r], *num);
                d.set_bus(&col.row_value[r], *val);
                d.set(col.row_valid[r], *valid);
            }
            d.set_bus(&col.request, 2);
            let e = nl.evaluate(&d.inputs, &[]).unwrap();
            // Last *valid* row binding r2 is row 2 (value 33).
            assert_eq!(bus_value(&e, &col.out_value), 33, "tree={tree}");
            assert!(e.value(col.found));

            // Request an unbound register.
            d.set_bus(&col.request, 6);
            let e = nl.evaluate(&d.inputs, &[]).unwrap();
            assert!(!e.value(col.found), "tree={tree}");
        }
    }

    #[test]
    fn usii_column_tree_depth_is_logarithmic_linear_is_linear() {
        let mut lin_depths = Vec::new();
        let mut tree_depths = Vec::new();
        for rows in [8usize, 16, 32, 64] {
            for tree in [false, true] {
                let mut nl = Netlist::new();
                let col = UsiiColumn::build(&mut nl, rows, 6, 4, tree);
                let mut d = Driver::new(nl.num_inputs());
                // Only row 0 matches the request: in the linear chain
                // its value must then ripple through every younger mux
                // (the worst case; with ternary short-circuiting, rows
                // that match settle their mux locally).
                for r in 0..rows {
                    d.set_bus(&col.row_regnum[r], if r == 0 { 1 } else { 0 });
                    d.set_bus(&col.row_value[r], (r % 16) as u64);
                    d.set(col.row_valid[r], true);
                }
                d.set_bus(&col.request, 1);
                let e = nl.evaluate(&d.inputs, &[]).unwrap();
                assert_eq!(bus_value(&e, &col.out_value), 0);
                if tree {
                    tree_depths.push(e.max_level());
                } else {
                    lin_depths.push(e.max_level());
                }
            }
        }
        // Linear column depth grows ~linearly (x8 rows → ≥4x depth);
        // tree column depth grows ~logarithmically (x8 rows → ≤ +13).
        assert!(lin_depths[3] >= lin_depths[0] * 4, "{lin_depths:?}");
        assert!(tree_depths[3] <= tree_depths[0] + 13, "{tree_depths:?}");
    }

    #[test]
    fn usii_datapath_resolves_figure7_example() {
        // 4 stations, 4 registers, as in Figure 7. Program (paper §4):
        //   station 0: writes R2 (unfinished), reads …
        //   station 1: writes R1 = 7 (finished)
        //   station 2: writes R2 = 9 (finished)
        //   station 3: reads R2 and R1
        // Station 3's R2 argument must come from station 2 (value 9,
        // ignoring station 0's earlier unfinished write — here "not
        // ready" is a payload bit), and its R1 argument from station 1.
        let n = 4;
        let l = 4;
        let width = 9; // 8 value bits + ready bit at bit 8
        for tree in [false, true] {
            let mut nl = Netlist::new();
            let dp = UsiiDatapath::build(&mut nl, n, l, width, tree);
            let mut d = Driver::new(nl.num_inputs());
            let ready = 1u64 << 8;
            // Initial registers r0..r3 = 1..4, all ready.
            for r in 0..l {
                d.set_bus(&dp.init_value[r], (r as u64 + 1) | ready);
            }
            // Station 0 writes R2, not finished (ready bit low).
            d.set_bus(&dp.st_regnum[0], 2);
            d.set(dp.st_valid[0], true);
            d.set_bus(&dp.st_value[0], 0); // value unknown, not ready
                                           // Station 1 writes R1 = 7, ready.
            d.set_bus(&dp.st_regnum[1], 1);
            d.set(dp.st_valid[1], true);
            d.set_bus(&dp.st_value[1], 7 | ready);
            // Station 2 writes R2 = 9, ready.
            d.set_bus(&dp.st_regnum[2], 2);
            d.set(dp.st_valid[2], true);
            d.set_bus(&dp.st_value[2], 9 | ready);
            // Station 3 writes nothing.
            d.set(dp.st_valid[3], false);
            // Station 3 requests R2 and R1.
            d.set_bus(&dp.arg_request[3][0], 2);
            d.set_bus(&dp.arg_request[3][1], 1);
            // Station 1 requests R3 (initial) and R0 (initial).
            d.set_bus(&dp.arg_request[1][0], 3);
            d.set_bus(&dp.arg_request[1][1], 0);

            let e = nl.evaluate(&d.inputs, &[]).unwrap();
            assert_eq!(bus_value(&e, &dp.arg_value[3][0]), 9 | ready, "tree={tree}");
            assert_eq!(bus_value(&e, &dp.arg_value[3][1]), 7 | ready, "tree={tree}");
            assert_eq!(bus_value(&e, &dp.arg_value[1][0]), 4 | ready);
            assert_eq!(bus_value(&e, &dp.arg_value[1][1]), 1 | ready);
            // Station 0's arguments see only initial registers.
            // (requests default to register 0)
            assert_eq!(bus_value(&e, &dp.arg_value[0][0]), 1 | ready);
            // Outgoing registers: R0,R3 initial; R1 = 7; R2 = station
            // 2's (latest) write = 9… but station 0's write is *earlier*
            // than station 2's, so the final R2 is station 2's.
            assert_eq!(bus_value(&e, &dp.out_value[0]), 1 | ready);
            assert_eq!(bus_value(&e, &dp.out_value[1]), 7 | ready);
            assert_eq!(bus_value(&e, &dp.out_value[2]), 9 | ready);
            assert_eq!(bus_value(&e, &dp.out_value[3]), 4 | ready);
        }
    }

    #[test]
    fn usii_datapath_arguments_ignore_younger_writers() {
        // Station 1 requests a register written only by station 2:
        // it must fall back to the initial register file.
        let mut nl = Netlist::new();
        let dp = UsiiDatapath::build(&mut nl, 3, 4, 5, true);
        let mut d = Driver::new(nl.num_inputs());
        for r in 0..4 {
            d.set_bus(&dp.init_value[r], r as u64);
        }
        d.set(dp.st_valid[0], false);
        d.set(dp.st_valid[1], false);
        d.set_bus(&dp.st_regnum[2], 3);
        d.set(dp.st_valid[2], true);
        d.set_bus(&dp.st_value[2], 31);
        d.set_bus(&dp.arg_request[1][0], 3);
        let e = nl.evaluate(&d.inputs, &[]).unwrap();
        assert_eq!(bus_value(&e, &dp.arg_value[1][0]), 3); // initial R3
        assert_eq!(bus_value(&e, &dp.out_value[3]), 31); // final R3
    }
}

#[cfg(test)]
mod random_tests {
    use super::*;
    use crate::build::bus_value;
    use rand::{cases, Rng};
    use ultrascalar_prefix::{cspp_ring, BoolAnd, First};

    /// Gate-level CSPP tree ≡ algorithmic CSPP (bus payload, First).
    #[test]
    fn cspp_tree_gates_match_model() {
        cases(0x6E0_0001, 64, |rng, _| {
            let n = rng.gen_range(1usize..24);
            let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..256)).collect();
            let segs: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let mut nl = Netlist::new();
            let tree = CsppTree::build(&mut nl, n, 8, CombineOp::First);
            let mut inputs = vec![false; nl.num_inputs()];
            for i in 0..n {
                for (b, &w) in tree.values[i].iter().enumerate() {
                    inputs[w.0 as usize] = vals[i] >> b & 1 == 1;
                }
                inputs[tree.seg[i].0 as usize] = segs[i];
            }
            let e = nl.evaluate(&inputs, &[]).unwrap();
            let model = cspp_ring::<u64, First>(&vals, &segs);
            for i in 0..n {
                assert_eq!(
                    bus_value(&e, &tree.out_value[i]),
                    model[i].value,
                    "station {i}"
                );
                assert_eq!(e.value(tree.out_seg[i]), model[i].seg, "station {i}");
            }
        });
    }

    /// Gate-level 1-bit AND CSPP ≡ algorithmic model.
    #[test]
    fn cspp_tree_and_gates_match_model() {
        cases(0x6E0_0002, 64, |rng, _| {
            let n = rng.gen_range(1usize..32);
            let vals: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let segs: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let mut nl = Netlist::new();
            let tree = CsppTree::build(&mut nl, n, 1, CombineOp::BitAnd);
            let mut inputs = vec![false; nl.num_inputs()];
            for i in 0..n {
                inputs[tree.values[i][0].0 as usize] = vals[i];
                inputs[tree.seg[i].0 as usize] = segs[i];
            }
            let e = nl.evaluate(&inputs, &[]).unwrap();
            let model = cspp_ring::<bool, BoolAnd>(&vals, &segs);
            for i in 0..n {
                assert_eq!(e.value(tree.out_value[i][0]), model[i].value, "station {i}");
            }
        });
    }

    /// Mux ring ≡ CSPP model whenever at least one modified bit is
    /// raised.
    #[test]
    fn mux_ring_gates_match_model() {
        cases(0x6E0_0003, 64, |rng, _| {
            let n = rng.gen_range(1usize..16);
            let vals: Vec<u64> = (0..n).map(|_| rng.gen_range(0..16)).collect();
            let mut segs: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            segs[rng.gen_range(0usize..16) % n] = true; // ensure the ring is cut
            let mut nl = Netlist::new();
            let ring = MuxRing::build(&mut nl, n, 4);
            let mut inputs = vec![false; nl.num_inputs()];
            for i in 0..n {
                inputs[ring.modified[i].0 as usize] = segs[i];
                for (b, &w) in ring.inserted[i].iter().enumerate() {
                    inputs[w.0 as usize] = vals[i] >> b & 1 == 1;
                }
            }
            let e = nl.evaluate(&inputs, &[]).unwrap();
            let model = cspp_ring::<u64, First>(&vals, &segs);
            for i in 0..n {
                assert_eq!(
                    bus_value(&e, &ring.incoming[i]),
                    model[i].value,
                    "station {i}"
                );
            }
        });
    }

    /// US-II column ≡ "last valid matching row" specification.
    #[test]
    fn usii_column_matches_spec() {
        cases(0x6E0_0004, 64, |rng, _| {
            let rows = rng.gen_range(1usize..12);
            let data: Vec<(u64, u64, bool)> = (0..rows)
                .map(|_| (rng.gen_range(0..8), rng.gen_range(0..256), rng.gen()))
                .collect();
            let req = rng.gen_range(0u64..8);
            let tree: bool = rng.gen();
            let mut nl = Netlist::new();
            let col = UsiiColumn::build(&mut nl, rows, 3, 8, tree);
            let mut inputs = vec![false; nl.num_inputs()];
            let setb = |bus: &[NodeId], v: u64, inputs: &mut Vec<bool>| {
                for (i, &w) in bus.iter().enumerate() {
                    inputs[w.0 as usize] = v >> i & 1 == 1;
                }
            };
            for (r, &(num, val, valid)) in data.iter().enumerate() {
                setb(&col.row_regnum[r], num, &mut inputs);
                setb(&col.row_value[r], val, &mut inputs);
                inputs[col.row_valid[r].0 as usize] = valid;
            }
            setb(&col.request, req, &mut inputs);
            let e = nl.evaluate(&inputs, &[]).unwrap();
            let expect = data
                .iter()
                .rev()
                .find(|&&(num, _, valid)| valid && num == req)
                .map(|&(_, val, _)| val);
            assert_eq!(
                e.value(col.found),
                expect.is_some(),
                "rows {data:?}, request {req}"
            );
            if let Some(v) = expect {
                assert_eq!(
                    bus_value(&e, &col.out_value),
                    v,
                    "rows {data:?}, request {req}"
                );
            }
        });
    }
}

/// The Ultrascalar I's complete window-sequencing logic (paper §2): the
/// four 1-bit CSPP instances that, every cycle, tell each station
/// whether it may deallocate, whether it becomes the oldest, and
/// whether its memory operation may proceed.
///
/// * deallocate: "if a station has finished executing and so have all
///   the preceding stations, the station becomes deallocated";
/// * oldest-next: "if a station has not yet finished executing and all
///   preceding stations have, it becomes the oldest station on the next
///   clock cycle";
/// * may-load: "a station cannot load from memory until all preceding
///   stores have finished";
/// * may-store: "a station cannot store to memory until all preceding
///   loads and stores have finished" and "until all preceding stations
///   have committed" (confirmed their branches).
#[derive(Debug)]
pub struct WindowController {
    /// Per-station finished bit (input).
    pub finished: Vec<NodeId>,
    /// Per-station "my stores are done" bit (input; high for
    /// non-stores).
    pub store_done: Vec<NodeId>,
    /// Per-station "my loads are done" bit (input; high for non-loads).
    pub load_done: Vec<NodeId>,
    /// Per-station "my branch is confirmed" bit (input; high for
    /// non-branches).
    pub branch_ok: Vec<NodeId>,
    /// One-hot oldest-station marker (input).
    pub oldest: Vec<NodeId>,
    /// Station may deallocate this cycle (output).
    pub dealloc: Vec<NodeId>,
    /// Station becomes the oldest next cycle (output).
    pub becomes_oldest: Vec<NodeId>,
    /// Station may issue its load (output).
    pub may_load: Vec<NodeId>,
    /// Station may issue its store (output).
    pub may_store: Vec<NodeId>,
}

impl WindowController {
    /// Build the controller for `n` stations: four AND-CSPP trees plus
    /// a few glue gates per station. Depth `Θ(log n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn build(nl: &mut Netlist, n: usize) -> Self {
        assert!(n > 0, "WindowController needs stations");
        let finished: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        let store_done: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        let load_done: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        let branch_ok: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        let oldest: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();

        // Shared helper: a 1-bit AND-CSPP whose per-station payload is
        // `cond[i]` and whose segment bits are the oldest marker.
        let cspp = |nl: &mut Netlist, cond: &[NodeId]| -> Vec<NodeId> {
            // Reusing CsppTree by wiring our nodes into fresh buffers
            // is not possible (CsppTree declares its own inputs), so
            // run the shared heap walk over (value, seg) pairs with a
            // gate-emitting combine.
            let leaves: Vec<(NodeId, NodeId)> =
                cond.iter().zip(&oldest).map(|(&c, &o)| (c, o)).collect();
            ultrascalar_prefix::cspp_heap_with(&leaves, |&(va, sa), &(vb, sb)| {
                let anded = nl.and(va, vb);
                let v = nl.mux(sb, anded, vb);
                let s = nl.or(sa, sb);
                (v, s)
            })
            .into_iter()
            .map(|(v, _)| v)
            .collect()
        };

        // "All earlier finished", "all earlier stores done", "all
        // earlier loads done", "all earlier branches confirmed".
        let earlier_finished = cspp(nl, &finished);
        let earlier_stores = cspp(nl, &store_done);
        let earlier_loads = cspp(nl, &load_done);
        let earlier_branches = cspp(nl, &branch_ok);

        let mut dealloc = Vec::with_capacity(n);
        let mut becomes_oldest = Vec::with_capacity(n);
        let mut may_load = Vec::with_capacity(n);
        let mut may_store = Vec::with_capacity(n);
        for i in 0..n {
            // The oldest station ignores the wrapped prefix: its
            // "all earlier" is vacuously true.
            let ef = nl.or(earlier_finished[i], oldest[i]);
            let es = nl.or(earlier_stores[i], oldest[i]);
            let el = nl.or(earlier_loads[i], oldest[i]);
            let eb = nl.or(earlier_branches[i], oldest[i]);
            let d = nl.and(finished[i], ef);
            dealloc.push(d);
            let nf = nl.not(finished[i]);
            becomes_oldest.push(nl.and(nf, ef));
            may_load.push(es);
            let lo_st = nl.and(el, es);
            may_store.push(nl.and(lo_st, eb));
            for &o in [dealloc[i], becomes_oldest[i], may_load[i], may_store[i]].iter() {
                nl.mark_output(o);
            }
        }
        WindowController {
            finished,
            store_done,
            load_done,
            branch_ok,
            oldest,
            dealloc,
            becomes_oldest,
            may_load,
            may_store,
        }
    }
}

#[cfg(test)]
mod controller_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference semantics: walk from the oldest station.
    struct Ref {
        dealloc: Vec<bool>,
        becomes_oldest: Vec<bool>,
        may_load: Vec<bool>,
        may_store: Vec<bool>,
    }

    fn reference(
        finished: &[bool],
        store_done: &[bool],
        load_done: &[bool],
        branch_ok: &[bool],
        oldest: usize,
    ) -> Ref {
        let n = finished.len();
        let mut r = Ref {
            dealloc: vec![false; n],
            becomes_oldest: vec![false; n],
            may_load: vec![false; n],
            may_store: vec![false; n],
        };
        let mut all_f = true;
        let mut all_s = true;
        let mut all_l = true;
        let mut all_b = true;
        for step in 0..n {
            let i = (oldest + step) % n;
            r.dealloc[i] = finished[i] && all_f;
            r.becomes_oldest[i] = !finished[i] && all_f;
            r.may_load[i] = all_s;
            r.may_store[i] = all_l && all_s && all_b;
            all_f &= finished[i];
            all_s &= store_done[i];
            all_l &= load_done[i];
            all_b &= branch_ok[i];
        }
        r
    }

    #[test]
    fn controller_matches_reference_on_random_states() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [1usize, 2, 5, 8, 13, 16] {
            let mut nl = Netlist::new();
            let wc = WindowController::build(&mut nl, n);
            for trial in 0..40 {
                let finished: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                let store_done: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                let load_done: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                let branch_ok: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
                let oldest = rng.gen_range(0..n);
                let mut inputs = vec![false; nl.num_inputs()];
                for i in 0..n {
                    inputs[wc.finished[i].0 as usize] = finished[i];
                    inputs[wc.store_done[i].0 as usize] = store_done[i];
                    inputs[wc.load_done[i].0 as usize] = load_done[i];
                    inputs[wc.branch_ok[i].0 as usize] = branch_ok[i];
                    inputs[wc.oldest[i].0 as usize] = i == oldest;
                }
                let e = nl.evaluate(&inputs, &[]).expect("controller settles");
                let want = reference(&finished, &store_done, &load_done, &branch_ok, oldest);
                for i in 0..n {
                    assert_eq!(
                        e.value(wc.dealloc[i]),
                        want.dealloc[i],
                        "dealloc n={n} trial={trial} station={i}"
                    );
                    assert_eq!(
                        e.value(wc.becomes_oldest[i]),
                        want.becomes_oldest[i],
                        "oldest-next n={n} trial={trial} station={i}"
                    );
                    assert_eq!(
                        e.value(wc.may_load[i]),
                        want.may_load[i],
                        "may_load n={n} trial={trial} station={i}"
                    );
                    assert_eq!(
                        e.value(wc.may_store[i]),
                        want.may_store[i],
                        "may_store n={n} trial={trial} station={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn at_most_one_station_becomes_oldest() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 8;
        let mut nl = Netlist::new();
        let wc = WindowController::build(&mut nl, n);
        for _ in 0..100 {
            let mut inputs = vec![false; nl.num_inputs()];
            let oldest = rng.gen_range(0..n);
            for i in 0..n {
                inputs[wc.finished[i].0 as usize] = rng.gen();
                inputs[wc.store_done[i].0 as usize] = true;
                inputs[wc.load_done[i].0 as usize] = true;
                inputs[wc.branch_ok[i].0 as usize] = true;
                inputs[wc.oldest[i].0 as usize] = i == oldest;
            }
            let e = nl.evaluate(&inputs, &[]).unwrap();
            let count = (0..n).filter(|&i| e.value(wc.becomes_oldest[i])).count();
            assert!(count <= 1, "{count} stations claim oldest");
        }
    }

    #[test]
    fn controller_depth_is_logarithmic() {
        let mut depths = Vec::new();
        for k in [3u32, 5, 7] {
            let n = 1usize << k;
            let mut nl = Netlist::new();
            let wc = WindowController::build(&mut nl, n);
            let mut inputs = vec![false; nl.num_inputs()];
            inputs[wc.oldest[0].0 as usize] = true;
            for i in 0..n {
                inputs[wc.finished[i].0 as usize] = true;
                inputs[wc.store_done[i].0 as usize] = true;
                inputs[wc.load_done[i].0 as usize] = true;
                inputs[wc.branch_ok[i].0 as usize] = true;
            }
            let e = nl.evaluate(&inputs, &[]).unwrap();
            depths.push(e.max_level());
        }
        // 16x more stations: bounded extra depth.
        assert!(depths[2] <= depths[0] + 18, "{depths:?}");
    }
}
