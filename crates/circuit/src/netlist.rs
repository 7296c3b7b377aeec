//! Structural netlists with constructive three-valued evaluation.
//!
//! # Evaluation model
//!
//! Every node carries `Unknown` until its value is *forced* by its
//! fan-in. Controlling values short-circuit exactly as real gates do:
//! an AND with one settled-`false` input settles `false` regardless of
//! the other input, an OR with a settled-`true` input settles `true`,
//! and a mux whose select is settled passes only the selected leg.
//! This is the standard constructive (ternary) semantics; a circuit
//! containing combinational cycles evaluates successfully iff the cycle
//! is cut by a controlling value — which is exactly how the
//! Ultrascalar's cyclic datapaths behave (the oldest station's raised
//! modified/segment bits cut every ring).
//!
//! Each node records the unit-delay **level** at which it settled
//! (`level = 1 + max(level of the fan-ins that forced it)`), so
//! [`Evaluation::max_level`] reports the critical-path gate delay of
//! the run, and per-output levels expose which outputs settle early
//! (the paper's §7 self-timing discussion).

/// Index of a node in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One gate in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// An external input; value supplied per evaluation.
    Input,
    /// A constant.
    Const(bool),
    /// Inverter.
    Not(NodeId),
    /// Two-input AND.
    And(NodeId, NodeId),
    /// Two-input OR.
    Or(NodeId, NodeId),
    /// Two-input XOR.
    Xor(NodeId, NodeId),
    /// Two-to-one multiplexer: output = `sel ? b : a`.
    Mux {
        /// Select line (`true` picks `b`).
        sel: NodeId,
        /// Leg selected when `sel` is `false`.
        a: NodeId,
        /// Leg selected when `sel` is `true`.
        b: NodeId,
    },
}

/// A netlist under construction or evaluation.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

/// Why an evaluation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The wrong number of input values was supplied.
    InputCount {
        /// Values supplied.
        got: usize,
        /// Inputs declared.
        want: usize,
    },
    /// The circuit did not settle: a combinational cycle was not cut by
    /// any controlling value.
    NotConstructive {
        /// Number of nodes still unknown at fixpoint.
        unresolved: usize,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::InputCount { got, want } => {
                write!(f, "supplied {got} input values, circuit has {want} inputs")
            }
            EvalError::NotConstructive { unresolved } => write!(
                f,
                "circuit did not settle: {unresolved} node(s) unresolved (uncut cycle)"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// The result of a settled evaluation.
#[derive(Debug, Clone)]
pub struct Evaluation {
    values: Vec<bool>,
    levels: Vec<u32>,
    outputs: Vec<NodeId>,
}

impl Evaluation {
    /// Settled value of a node.
    #[inline]
    pub fn value(&self, n: NodeId) -> bool {
        self.values[n.idx()]
    }

    /// Unit-delay level at which a node settled (inputs and constants
    /// are level 0).
    #[inline]
    pub fn level(&self, n: NodeId) -> u32 {
        self.levels[n.idx()]
    }

    /// Critical-path gate delay of this evaluation: the maximum settle
    /// level over the declared outputs (or over all nodes if no outputs
    /// were declared).
    pub fn max_level(&self) -> u32 {
        if self.outputs.is_empty() {
            self.levels.iter().copied().max().unwrap_or(0)
        } else {
            self.outputs
                .iter()
                .map(|&n| self.level(n))
                .max()
                .unwrap_or(0)
        }
    }
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    fn push(&mut self, g: Gate) -> NodeId {
        let id = NodeId(u32::try_from(self.gates.len()).expect("netlist too large"));
        self.gates.push(g);
        id
    }

    /// Declare an external input.
    pub fn input(&mut self) -> NodeId {
        let id = self.push(Gate::Input);
        self.inputs.push(id);
        id
    }

    /// A constant node.
    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(Gate::Const(v))
    }

    /// Inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.push(Gate::Not(a))
    }

    /// Two-input AND.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::And(a, b))
    }

    /// Two-input OR.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Or(a, b))
    }

    /// Two-input XOR.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xor(a, b))
    }

    /// XNOR (equality of two bits), built from XOR + NOT.
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// Two-to-one mux: `sel ? b : a`.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Mux { sel, a, b })
    }

    /// Declare a node as a circuit output (affects
    /// [`Evaluation::max_level`]).
    pub fn mark_output(&mut self, n: NodeId) {
        self.outputs.push(n);
    }

    /// Total node count (including inputs and constants).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True iff the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of *logic* gates (excluding inputs and constants) — the
    /// paper's area-relevant count.
    pub fn logic_gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g, Gate::Input | Gate::Const(_)))
            .count()
    }

    /// Number of declared inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Structural worst-case depth via longest path, for *acyclic*
    /// netlists; `None` if the combinational graph has a cycle.
    pub fn structural_depth(&self) -> Option<u32> {
        // Kahn's algorithm over the fan-in edges.
        let n = self.gates.len();
        let mut indeg = vec![0u32; n];
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, g) in self.gates.iter().enumerate() {
            for f in fanins(g) {
                indeg[i] += 1;
                fanout[f.idx()].push(i as u32);
            }
        }
        let mut depth = vec![0u32; n];
        let mut queue: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut seen = queue.len();
        while let Some(i) = queue.pop() {
            for &j in &fanout[i as usize] {
                let j = j as usize;
                let cand = depth[i as usize] + 1;
                depth[j] = depth[j].max(cand);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j as u32);
                    seen += 1;
                }
            }
        }
        if seen < n {
            None // cycle
        } else if self.outputs.is_empty() {
            depth.iter().copied().max()
        } else {
            self.outputs.iter().map(|&o| depth[o.idx()]).max()
        }
    }

    /// Evaluate the logic for one input vector.
    ///
    /// `input_values` are matched to inputs in declaration order.
    pub fn evaluate(&self, input_values: &[bool]) -> Result<Evaluation, EvalError> {
        if input_values.len() != self.inputs.len() {
            return Err(EvalError::InputCount {
                got: input_values.len(),
                want: self.inputs.len(),
            });
        }

        let n = self.gates.len();
        let mut value: Vec<Option<bool>> = vec![None; n];
        let mut level: Vec<u32> = vec![0; n];

        // Fan-out lists for event-driven propagation.
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, g) in self.gates.iter().enumerate() {
            for f in fanins(g) {
                fanout[f.idx()].push(i as u32);
            }
        }

        let mut worklist: Vec<u32> = Vec::with_capacity(n);
        // Seed: inputs and constants.
        for (i, g) in self.gates.iter().enumerate() {
            if let Gate::Const(v) = g {
                value[i] = Some(*v);
                worklist.push(i as u32);
            }
        }
        for (k, &id) in self.inputs.iter().enumerate() {
            value[id.idx()] = Some(input_values[k]);
            worklist.push(id.0);
        }

        let mut resolved = worklist.len();
        while let Some(i) = worklist.pop() {
            for &jj in &fanout[i as usize] {
                let j = jj as usize;
                if value[j].is_some() {
                    continue;
                }
                if let Some((v, lvl)) = try_settle(&self.gates[j], &value, &level) {
                    value[j] = Some(v);
                    level[j] = lvl;
                    worklist.push(jj);
                    resolved += 1;
                }
            }
        }

        if resolved < n {
            return Err(EvalError::NotConstructive {
                unresolved: n - resolved,
            });
        }

        let values: Vec<bool> = value.into_iter().map(|v| v.expect("all settled")).collect();
        Ok(Evaluation {
            values,
            levels: level,
            outputs: self.outputs.clone(),
        })
    }
}

/// Fan-ins of a gate.
fn fanins(g: &Gate) -> impl Iterator<Item = NodeId> {
    let v: [Option<NodeId>; 3] = match *g {
        Gate::Input | Gate::Const(_) => [None, None, None],
        Gate::Not(a) => [Some(a), None, None],
        Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => [Some(a), Some(b), None],
        Gate::Mux { sel, a, b } => [Some(sel), Some(a), Some(b)],
    };
    v.into_iter().flatten()
}

/// Attempt to settle a gate from the currently known values, with
/// controlling-value short-circuits. Returns `(value, level)`.
fn try_settle(g: &Gate, value: &[Option<bool>], level: &[u32]) -> Option<(bool, u32)> {
    let val = |n: NodeId| value[n.idx()];
    let lvl = |n: NodeId| level[n.idx()];
    match *g {
        Gate::Input | Gate::Const(_) => None, // seeded, never here
        Gate::Not(a) => val(a).map(|v| (!v, lvl(a) + 1)),
        Gate::And(a, b) => match (val(a), val(b)) {
            (Some(false), _) => Some((false, lvl(a) + 1)),
            (_, Some(false)) => Some((false, lvl(b) + 1)),
            (Some(true), Some(true)) => Some((true, lvl(a).max(lvl(b)) + 1)),
            _ => None,
        },
        Gate::Or(a, b) => match (val(a), val(b)) {
            (Some(true), _) => Some((true, lvl(a) + 1)),
            (_, Some(true)) => Some((true, lvl(b) + 1)),
            (Some(false), Some(false)) => Some((false, lvl(a).max(lvl(b)) + 1)),
            _ => None,
        },
        Gate::Xor(a, b) => match (val(a), val(b)) {
            (Some(x), Some(y)) => Some((x ^ y, lvl(a).max(lvl(b)) + 1)),
            _ => None,
        },
        Gate::Mux { sel, a, b } => match val(sel) {
            Some(false) => val(a).map(|v| (v, lvl(sel).max(lvl(a)) + 1)),
            Some(true) => val(b).map(|v| (v, lvl(sel).max(lvl(b)) + 1)),
            None => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let and = nl.and(a, b);
        let or = nl.or(a, b);
        let xor = nl.xor(a, b);
        let not = nl.not(a);
        for (av, bv) in [(false, false), (false, true), (true, false), (true, true)] {
            let e = nl.evaluate(&[av, bv]).unwrap();
            assert_eq!(e.value(and), av && bv);
            assert_eq!(e.value(or), av || bv);
            assert_eq!(e.value(xor), av ^ bv);
            assert_eq!(e.value(not), !av);
        }
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new();
        let s = nl.input();
        let a = nl.input();
        let b = nl.input();
        let m = nl.mux(s, a, b);
        let e = nl.evaluate(&[false, true, false]).unwrap();
        assert!(e.value(m)); // sel=0 → a=1
        let e = nl.evaluate(&[true, true, false]).unwrap();
        assert!(!e.value(m)); // sel=1 → b=0
    }

    #[test]
    fn levels_count_unit_delays() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let mut x = a;
        for _ in 0..10 {
            x = nl.not(x);
        }
        nl.mark_output(x);
        let e = nl.evaluate(&[true]).unwrap();
        assert_eq!(e.max_level(), 10);
        assert_eq!(e.level(a), 0);
    }

    #[test]
    fn short_circuit_levels_settle_early() {
        // AND(false-input-at-level-0, deep-chain): settles at level 1.
        let mut nl = Netlist::new();
        let zero = nl.constant(false);
        let a = nl.input();
        let mut deep = a;
        for _ in 0..20 {
            deep = nl.not(deep);
        }
        let g = nl.and(zero, deep);
        let e = nl.evaluate(&[true]).unwrap();
        assert!(!e.value(g));
        assert_eq!(e.level(g), 1);
    }

    #[test]
    fn cyclic_ring_cut_by_mux_select() {
        // A 4-stage cyclic mux ring: out_i = sel_i ? ins_i : out_{i-1}.
        // With one select high the ring settles; with none it must fail.
        let n = 4;
        let mut nl = Netlist::new();
        let sels: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        let inss: Vec<NodeId> = (0..n).map(|_| nl.input()).collect();
        // A netlist cannot be rewired, so mux_0's `a` leg names
        // mux_{n-1} by id ahead of time: ids are sequential.
        let first_mux = NodeId(nl.len() as u32);
        let last_mux = NodeId(first_mux.0 + (n as u32) - 1);
        let mut prev = last_mux;
        let mut muxes = Vec::new();
        for i in 0..n {
            let m = nl.mux(sels[i], prev, inss[i]);
            muxes.push(m);
            prev = m;
        }
        assert_eq!(muxes[0], first_mux);
        assert_eq!(muxes[n - 1], last_mux);

        // sel_2 high, insert true there: every station sees true.
        let mut inputs = vec![false; 2 * n];
        inputs[2] = true; // sel_2
        inputs[n + 2] = true; // ins_2
        let e = nl.evaluate(&inputs).unwrap();
        for &m in &muxes {
            assert!(e.value(m));
        }

        // No select high: uncut cycle must be reported, not looped.
        let e = nl.evaluate(&vec![false; 2 * n]);
        assert!(matches!(e, Err(EvalError::NotConstructive { .. })));
    }

    #[test]
    fn structural_depth_acyclic_and_cyclic() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.not(a);
        let c = nl.not(b);
        nl.mark_output(c);
        assert_eq!(nl.structural_depth(), Some(2));

        // Add a cycle.
        let mut nl = Netlist::new();
        let s = nl.input();
        let first = NodeId(nl.len() as u32 + 1);
        let _x = nl.input();
        let m = nl.mux(s, first, s);
        assert_eq!(m, first);
        assert_eq!(nl.structural_depth(), None);
    }

    #[test]
    fn input_count_checked() {
        let mut nl = Netlist::new();
        let _ = nl.input();
        assert!(matches!(
            nl.evaluate(&[]),
            Err(EvalError::InputCount { got: 0, want: 1 })
        ));
    }

    #[test]
    fn gate_counts() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let c = nl.constant(true);
        let _ = nl.and(a, c);
        assert_eq!(nl.len(), 3);
        assert_eq!(nl.logic_gate_count(), 1);
        assert_eq!(nl.num_inputs(), 1);
    }
}

#[cfg(test)]
mod random_netlist_tests {
    use super::*;
    use rand::{cases, Rng};

    /// Naive reference: recursively evaluate an acyclic netlist.
    fn reference_eval(nl_gates: &[Gate], values: &mut Vec<Option<bool>>, n: NodeId) -> bool {
        if let Some(v) = values[n.idx()] {
            return v;
        }
        let v = match nl_gates[n.idx()] {
            Gate::Input | Gate::Const(_) => unreachable!("sources are pre-seeded"),
            Gate::Not(a) => !reference_eval(nl_gates, values, a),
            Gate::And(a, b) => {
                reference_eval(nl_gates, values, a) & reference_eval(nl_gates, values, b)
            }
            Gate::Or(a, b) => {
                reference_eval(nl_gates, values, a) | reference_eval(nl_gates, values, b)
            }
            Gate::Xor(a, b) => {
                reference_eval(nl_gates, values, a) ^ reference_eval(nl_gates, values, b)
            }
            Gate::Mux { sel, a, b } => {
                if reference_eval(nl_gates, values, sel) {
                    reference_eval(nl_gates, values, b)
                } else {
                    reference_eval(nl_gates, values, a)
                }
            }
        };
        values[n.idx()] = Some(v);
        v
    }

    /// The event-driven constructive evaluator agrees with a naive
    /// recursive evaluation on arbitrary random acyclic netlists.
    #[test]
    fn event_driven_matches_reference() {
        cases(0x2E7_0001, 64, |rng, _| {
            let ops: Vec<(u8, u32, u32, u32)> = (0..rng.gen_range(1..120))
                .map(|_| (rng.gen_range(0..5), rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let inputs: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
            let mut nl = Netlist::new();
            let mut nodes: Vec<NodeId> = (0..8).map(|_| nl.input()).collect();
            for (kind, x, y, z) in &ops {
                let pick = |v: u32| nodes[v as usize % nodes.len()];
                let (a, b, c) = (pick(*x), pick(*y), pick(*z));
                let id = match kind {
                    0 => nl.not(a),
                    1 => nl.and(a, b),
                    2 => nl.or(a, b),
                    3 => nl.xor(a, b),
                    _ => nl.mux(a, b, c),
                };
                nodes.push(id);
            }
            let last = *nodes.last().unwrap();
            nl.mark_output(last);
            let eval = nl.evaluate(&inputs).unwrap();

            // Reference: rebuild the same gate list as a shadow
            // structure and evaluate it recursively.
            let mut shadow = vec![Gate::Input; 8];
            shadow.reserve(ops.len());
            let mut ids: Vec<NodeId> = (0..8).map(|i| NodeId(i as u32)).collect();
            for (kind, x, y, z) in &ops {
                let pick = |v: u32| ids[v as usize % ids.len()];
                let (a, b, c) = (pick(*x), pick(*y), pick(*z));
                let g = match kind {
                    0 => Gate::Not(a),
                    1 => Gate::And(a, b),
                    2 => Gate::Or(a, b),
                    3 => Gate::Xor(a, b),
                    _ => Gate::Mux { sel: a, a: b, b: c },
                };
                ids.push(NodeId(shadow.len() as u32));
                shadow.push(g);
            }
            let mut vals: Vec<Option<bool>> = vec![None; shadow.len()];
            for (i, &v) in inputs.iter().enumerate() {
                vals[i] = Some(v);
            }
            let want = reference_eval(&shadow, &mut vals, *ids.last().unwrap());
            assert_eq!(eval.value(last), want, "ops {ops:?}, inputs {inputs:?}");
        });
    }
}
