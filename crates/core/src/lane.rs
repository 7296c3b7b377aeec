//! Lane-parallel batch execution: up to 64 independent simulations of
//! the same program advance in lock-step through one engine pass.
//!
//! # The schedule-sharing observation
//!
//! The cycle-accurate engine's *timing* is value-independent except
//! through three channels: branch outcomes (which instructions are
//! fetched), memory addresses (bank conflicts, store→load forwarding),
//! and — under mispredictions — wrong-path execution (wrong-path loads
//! issue real memory requests at value-dependent addresses, and the
//! predictor trains on value-dependent wrong-path branch outcomes). So
//! for a group of runs of the **same program** whose value-dependent
//! control facts all agree — every committed branch direction, every
//! effective address, every *resolved* wrong-path branch direction and
//! every wrong-path effective address — the cycle-by-cycle schedule —
//! cycles, stats, per-instruction timings — is *identical across the
//! whole group*, even though every register and memory **value**
//! differs per run.
//!
//! [`LaneBatcher`] exploits exactly that: lane 0 (the *leader*) runs
//! through the real engine once; the other lanes advance through an
//! architectural lock-step pass that holds each register lane-major —
//! `[u32; MAX_LANES]`, entry `l` lane `l`'s value — so every
//! instruction is one per-lane loop over [`AluOp::apply`] or
//! [`BranchCond::eval`] that the compiler vectorises. Lanes that stay
//! converged with the leader inherit the leader's timing verbatim and
//! keep their own architectural state from the lock-step registers.
//!
//! # Epoch-segmented schedule sharing
//!
//! Mispredictions no longer demote the group. The leader's run is
//! split at its mispredict/flush boundaries into *clean epochs*:
//! within an epoch the committed path carries no wrong-path work, so
//! the lock-step pass advances exactly as before. At each boundary the
//! engine's [`crate::engine::ReplayLog`] supplies the squashed
//! wrong-path suffix — every flushed station with the two
//! value-dependent facts that shaped the schedule: the branch
//! direction *iff* it resolved early enough to train the predictor,
//! and the effective address *iff* the memory operation computed one.
//! The batcher replays that segment sequentially for all lanes at once
//! (a generation-stamped register overlay plus a wrong-path store
//! overlay, both reused scratch) and peels every lane whose resolved
//! direction or address disagrees with the leader's
//! ([`LaneBatchStats::replay_peels`]). Squashed entries that resolved
//! neither fact provably left no timing trace — their consumers never
//! issued — so their values are don't-cares.
//!
//! Wrong paths speculate too: a wrong-path branch that resolves
//! against its own prediction flushes its juniors and redirects
//! wrong-path fetch, recording a *nested* flush event whose flusher
//! never commits. A committed-sequence gap is therefore tiled by the
//! union of one *outer* event (the committed flusher's) and any nested
//! events recorded — necessarily earlier — inside it. The replay
//! merges them in sequence order and scopes each event's register and
//! store writes to its own seq range with an undo journal: the engine
//! refetched from a nested flush point, so entries past an event's
//! last seq never saw that event's values. Ranges of distinct events
//! are disjoint, so the scopes are properly nested and LIFO undo is
//! exact.
//!
//! **Per-lane predictor state reduces to direction checks.** The
//! predictor trains on exactly two kinds of outcomes: committed branch
//! directions (checked lane-against-leader by the lock-step pass) and
//! wrong-path directions that resolved before their flush (checked by
//! the segment replay). A lane that matches the leader on *every*
//! checked direction feeds its predictor the identical training
//! sequence, so its bimodal tables evolve identically by induction —
//! no per-lane counter tables need materialising, which keeps the
//! whole boundary check allocation-free.
//!
//! # Divergence peel and rejoin
//!
//! The moment a lane disagrees with the leader — a branch evaluates
//! differently, or a load/store resolves to a different effective
//! address, on either the committed path or a replayed wrong-path
//! segment — it is *peeled*: dropped from the active mask and re-run
//! from its initial state on the retained scalar engine
//! ([`crate::Processor::run_reusing`]), which is trivially
//! byte-identical to a serial run. Peeled lanes rejoin at the batch
//! barrier (the next [`LaneBatcher::run_batch`] call); there is no
//! mid-run re-admission, so a peel costs exactly one serial run and
//! nothing else.
//!
//! # Self-verification
//!
//! The lock-step pass mirrors the golden interpreter's semantics, and
//! lane 0 runs through **both** paths. The leader records nothing per
//! instruction for the pass: the pass tracks the leader's committed
//! sequence numbers itself and aligns them with the leader's flush
//! log. An event is a committed flusher's (*outer*) event iff its
//! `branch_seq` is below that of every later event, because nested
//! events precede their outer one. The pass is pinned against the
//! engine at every step (the next outer event's flusher must be
//! reached exactly, at a branch), at every boundary (the events must
//! tile the gap exactly, and lane 0's replayed directions and
//! addresses must equal the logged ones), and at the end (the walk's
//! step count must equal the leader's committed count with every
//! event consumed, and lane 0's lock-step registers and memory must
//! equal the engine's). Any mismatch — or a leader run that ran out
//! of cycle budget or of flush log ([`MAX_LEADER_LOG`]), or flush
//! structure the replay cannot account for — demotes the whole group
//! to serial scalar runs, per-cause counted in [`LaneBatchStats`].
//! Correctness never depends on the lock-step pass being right — only
//! throughput does. Batch-level accounting lives in
//! [`LaneBatchStats`], *outside* [`crate::ProcStats`], so every
//! per-lane result stays bit-for-bit identical to its serial twin (a
//! lane counter inside `ProcStats` would break exactly the
//! differential guarantee this mode is pinned by).

use std::borrow::Borrow;

use crate::config::ProcConfig;
use crate::engine::{FlushedEntry, ReplayLog, Ultrascalar};
use crate::processor::{Processor, RunResult};
use ultrascalar_isa::{effective_addr, mem_words, AluOp, BranchCond, Instr, MemImage, Program};

/// Maximum lanes per batch: one simulation per bit of the `u64` lane
/// mask.
pub const MAX_LANES: usize = 64;

/// One architectural register across a batch: entry `l` is lane `l`'s
/// value. Lanes past the batch size, and peeled lanes, hold
/// don't-cares.
type Lanes = [u32; MAX_LANES];

/// Most flushed entries a group leader's [`ReplayLog`] holds (about
/// 24 MB of entries plus at most 12 MB of events). A leader whose log
/// would grow past it stops logging, and its group is served as serial
/// runs ([`LaneBatchStats::fallback_leader`]), so no lane group's
/// memory grows with the length of its run.
pub const MAX_LEADER_LOG: usize = 1 << 19;

/// Batch-level counters for lane-parallel execution. Kept separate
/// from [`crate::ProcStats`] so per-lane results remain byte-identical
/// to serial runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneBatchStats {
    /// Groups that ran the lock-step pass to completion and shared the
    /// leader's schedule.
    pub batches: u64,
    /// Lanes whose results were delivered by a lock-step pass (leader
    /// included).
    pub lane_runs: u64,
    /// Lanes peeled to the scalar engine after diverging from the
    /// leader (different branch direction or memory address, on the
    /// committed path or during a wrong-path segment replay).
    pub peels: u64,
    /// The subset of [`peels`](Self::peels) that diverged during a
    /// wrong-path segment replay at an epoch boundary (resolved branch
    /// direction or effective address differed from the leader's).
    pub replay_peels: u64,
    /// Clean epochs executed by shared batches: one more than the
    /// number of flush boundaries each, so a mispredict-free shared
    /// batch contributes exactly 1.
    pub epochs: u64,
    /// Eligible groups (size ≥ 2) demoted entirely to serial runs —
    /// the sum of the per-cause counters below.
    pub fallbacks: u64,
    /// Demotions: programs not lane-batchable (instruction streams,
    /// register-file sizes, or effective memory sizes differ).
    pub fallback_incompatible: u64,
    /// Demotions: the leader ran out of budget or log — it never
    /// halted (cycle budget), or its flush log outgrew
    /// [`MAX_LEADER_LOG`].
    pub fallback_leader: u64,
    /// Demotions: the lock-step walk could not account for the
    /// leader's schedule — committed-path or flush-boundary structure
    /// the replay does not model (e.g. flush events that do not tile
    /// their committed-sequence gap), or a lane-0 replay fact
    /// disagreeing with the engine's log.
    pub fallback_structure: u64,
    /// Demotions: lane 0's final lock-step state failed verification
    /// against the engine's result.
    pub fallback_verify: u64,
}

impl LaneBatchStats {
    /// Counter-wise accumulate `other` into `self`, for rolling the
    /// counters of several batchers (or several snapshots' deltas) into
    /// one aggregate.
    pub fn merge(&mut self, other: &Self) {
        self.batches += other.batches;
        self.lane_runs += other.lane_runs;
        self.peels += other.peels;
        self.replay_peels += other.replay_peels;
        self.epochs += other.epochs;
        self.fallbacks += other.fallbacks;
        self.fallback_incompatible += other.fallback_incompatible;
        self.fallback_leader += other.fallback_leader;
        self.fallback_structure += other.fallback_structure;
        self.fallback_verify += other.fallback_verify;
    }

    /// Counter-wise difference `self - earlier`, for reporting what one
    /// span of batches contributed between two cumulative snapshots of
    /// the same batcher. Saturating, so a mismatched snapshot shows 0
    /// instead of wrapping.
    pub fn delta_since(&self, earlier: &Self) -> Self {
        LaneBatchStats {
            batches: self.batches.saturating_sub(earlier.batches),
            lane_runs: self.lane_runs.saturating_sub(earlier.lane_runs),
            peels: self.peels.saturating_sub(earlier.peels),
            replay_peels: self.replay_peels.saturating_sub(earlier.replay_peels),
            epochs: self.epochs.saturating_sub(earlier.epochs),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            fallback_incompatible: self
                .fallback_incompatible
                .saturating_sub(earlier.fallback_incompatible),
            fallback_leader: self.fallback_leader.saturating_sub(earlier.fallback_leader),
            fallback_structure: self
                .fallback_structure
                .saturating_sub(earlier.fallback_structure),
            fallback_verify: self.fallback_verify.saturating_sub(earlier.fallback_verify),
        }
    }
}

/// Retained scratch + counters for lane-parallel batch runs. One
/// instance serves any number of batches over any engine; all working
/// buffers are reused, so a warm batch allocates nothing. The caller
/// owns the engine and passes it to every [`LaneBatcher::run_batch`]
/// (the benchmark's lane pool keeps one batcher beside each of its warm
/// engines).
#[derive(Debug, Default)]
pub struct LaneBatcher {
    /// The lock-step register file, one lane-major value per
    /// architectural register.
    regs: Vec<Lanes>,
    /// Per-lane data memory (entry `l` valid while lane `l` is active).
    /// Page-tracked, so setting a lane up, verifying lane 0 and handing
    /// a lane's image to its result (a swap) cost the pages the lanes
    /// touch, not the memory size.
    mems: Vec<MemImage>,
    /// Wrong-path register overlay for segment replay, generation-
    /// stamped so starting a new segment is one counter bump instead of
    /// a clear.
    wp_val: Vec<Lanes>,
    /// Generation stamp per overlay register (`== wp_gen_cur` ⇒ live).
    wp_gen: Vec<u32>,
    /// Current overlay generation (bumped per replayed segment).
    wp_gen_cur: u32,
    /// Wrong-path store overlay for the segment being replayed:
    /// (leader address, per-lane values), youngest last.
    wp_stores: Vec<(usize, Lanes)>,
    /// Per-gap cursor into each consumed flush event's entries (merge
    /// state for the seq-ordered replay).
    gap_cursors: Vec<usize>,
    /// Open event scopes during a gap replay: (last seq of the event's
    /// range, register-journal mark, store-overlay mark). Popping a
    /// scope undoes the event's writes — the engine refetched from the
    /// nested flush point, so younger entries never saw them.
    gap_scopes: Vec<(u64, usize, usize)>,
    /// Undo journal for overlay register writes inside event scopes:
    /// (register, previous generation stamp, previous lane values).
    journal: Vec<(usize, u32, Lanes)>,
    /// Indices of the leader's outer flush events (those of committed
    /// flushers), youngest first, so the next one is last.
    outer: Vec<usize>,
    stats: LaneBatchStats,
}

/// What the lock-step pass concluded for a compatible group.
struct Lockstep {
    /// Lanes still converged with the leader at halt.
    active: u64,
    /// Lanes peeled during wrong-path segment replay (⊆ the peeled
    /// set).
    replay_peeled: u64,
    /// Clean epochs walked: flush boundaries matched, plus one.
    epochs: u64,
}

impl LaneBatcher {
    /// A batcher with empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Batch-level counters accumulated so far.
    pub fn stats(&self) -> &LaneBatchStats {
        &self.stats
    }

    /// Run `programs[i]` into `out[i]` for every `i`, byte-identically
    /// to calling `engine.run_reusing` on each in turn — but sharing
    /// one engine pass across every lane that stays converged with
    /// lane 0. Programs may be given by reference or behind an `Arc`
    /// (anything that borrows as [`Program`]).
    ///
    /// Every slot must ask the same of timings as `out[0]`: all
    /// `Some` (record) or all `None` (record nothing). Converged lanes
    /// copy the leader's record, so a mixed group is a caller bug
    /// (checked in debug builds).
    ///
    /// # Panics
    /// Panics if `programs` and `out` differ in length, are empty, or
    /// exceed [`MAX_LANES`].
    pub fn run_batch<P: Borrow<Program>>(
        &mut self,
        engine: &mut Ultrascalar,
        programs: &[P],
        out: &mut [RunResult],
    ) {
        assert_eq!(programs.len(), out.len(), "one result slot per lane");
        let n = programs.len();
        assert!((1..=MAX_LANES).contains(&n), "batch size must be in 1..=64");
        if n == 1 {
            engine.run_reusing(programs[0].borrow(), &mut out[0]);
            return;
        }
        debug_assert!(
            out.iter()
                .all(|slot| slot.timings.is_some() == out[0].timings.is_some()),
            "every lane's timings sink must match lane 0's"
        );
        let Some(words) = compatible_words(engine.config(), programs) else {
            self.stats.fallbacks += 1;
            self.stats.fallback_incompatible += 1;
            run_serial(engine, programs, out);
            return;
        };

        // Leader pass through the real engine, logging its flushes.
        let (leader, rest) = out.split_first_mut().expect("n >= 2");
        engine.run_logging_flushes(programs[0].borrow(), leader);

        // Schedule-sharing gate: mispredictions and flushes are now
        // handled epoch-by-epoch (see module docs); only a leader that
        // ran out of cycle budget or of flush log demotes the group
        // outright.
        if !leader.halted || !engine.replay_log().is_complete() {
            self.stats.fallbacks += 1;
            self.stats.fallback_leader += 1;
            run_serial(engine, &programs[1..], rest);
            return;
        }

        let pass = self.lockstep(programs, words, leader, engine.replay_log());
        self.settle(engine, programs, leader, rest, pass);
    }

    /// Deliver a group's results from the lock-step pass's verdict:
    /// shared results if it completed and lane 0 verifies, serial runs
    /// otherwise.
    fn settle<P: Borrow<Program>>(
        &mut self,
        engine: &mut Ultrascalar,
        programs: &[P],
        leader: &RunResult,
        rest: &mut [RunResult],
        pass: Option<Lockstep>,
    ) {
        let n = programs.len();
        match pass {
            Some(pass) if self.verify_leader(leader) => {
                self.stats.batches += 1;
                self.stats.epochs += pass.epochs;
                self.stats.lane_runs += pass.active.count_ones() as u64;
                self.stats.peels += (first_lanes(n) & !pass.active).count_ones() as u64;
                self.stats.replay_peels += pass.replay_peeled.count_ones() as u64;
                self.assemble(engine, programs, leader, rest, pass.active);
            }
            Some(_) => {
                self.stats.fallbacks += 1;
                self.stats.fallback_verify += 1;
                run_serial(engine, &programs[1..], rest);
            }
            None => {
                self.stats.fallbacks += 1;
                self.stats.fallback_structure += 1;
                run_serial(engine, &programs[1..], rest);
            }
        }
    }

    /// The architectural lock-step pass: a mirror of the
    /// golden interpreter's step semantics over all lanes at once,
    /// peeling lanes that diverge from lane 0. It tracks the leader's
    /// committed sequence numbers itself and aligns them with the
    /// leader's flush log: each outer event opens a seq gap after its
    /// committed flusher, which is matched and replayed (see module
    /// docs). Returns `None` if the walk disagrees with the leader's
    /// schedule anywhere (which demotes the group to serial).
    fn lockstep<P: Borrow<Program>>(
        &mut self,
        programs: &[P],
        words: usize,
        leader: &RunResult,
        replay: &ReplayLog,
    ) -> Option<Lockstep> {
        let n = programs.len();
        let p0 = programs[0].borrow();
        let num_regs = p0.num_regs;

        // Per-lane initial registers and memory images.
        self.regs.clear();
        self.regs.resize(num_regs, [0; MAX_LANES]);
        if self.mems.len() < n {
            self.mems.resize_with(n, MemImage::default);
        }
        for (l, p) in programs.iter().enumerate() {
            let p = p.borrow();
            for (reg, &v) in self.regs.iter_mut().zip(&p.init_regs) {
                reg[l] = v;
            }
            self.mems[l].reset(words, &p.init_mem);
        }

        // Wrong-path overlay scratch for this batch's register file.
        self.wp_val.clear();
        self.wp_val.resize(num_regs, [0; MAX_LANES]);
        self.wp_gen.clear();
        self.wp_gen.resize(num_regs, 0);
        self.wp_gen_cur = 0;

        // The outer events: nested events precede their outer one, so
        // an event is outer iff its `branch_seq` is below that of every
        // later event. Youngest first, so the next one is last.
        self.outer.clear();
        let mut later = u64::MAX;
        for (i, e) in replay.events.iter().enumerate().rev() {
            if e.branch_seq < later {
                later = e.branch_seq;
                self.outer.push(i);
            }
        }

        let instrs = &p0.instrs;
        let committed = leader.stats.committed;
        let mut active = first_lanes(n);
        let mut replay_peeled = 0u64;
        let mut pc = 0usize;
        let mut seq = 0u64; // the leader's seq of this step's instruction
        let mut walked = 0u64; // committed instructions walked
        let mut ev = 0usize; // index into the leader's flush events
        let mut gaps = 0u64; // flush boundaries walked
        let mut halted = false;
        while !halted {
            let Some(&instr) = instrs.get(pc) else {
                // Fell off the end: implicit halt, no commit.
                break;
            };
            // The walk must not outrun the leader's commits. (One that
            // steps past an outer event's flusher leaves that event
            // unconsumed, which the end check catches.)
            if walked == committed {
                return None;
            }
            let mut next_pc = pc + 1;
            match instr {
                Instr::Nop => {}
                Instr::Halt => halted = true,
                Instr::Jump { target } => next_pc = target as usize,
                Instr::LoadImm { rd, imm } => self.regs[rd.index()] = [imm as u32; MAX_LANES],
                Instr::Alu { op, rd, rs1, rs2 } => {
                    let v = eval_alu(op, &self.regs[rs1.index()], &self.regs[rs2.index()]);
                    self.regs[rd.index()] = v;
                }
                Instr::AluImm { op, rd, rs1, imm } => {
                    let v = eval_alu(op, &self.regs[rs1.index()], &[imm as u32; MAX_LANES]);
                    self.regs[rd.index()] = v;
                }
                Instr::Load { rd, base, offset } => {
                    let (addr, diverged) =
                        mem_addrs(&self.regs[base.index()], offset, words, active);
                    active &= !diverged;
                    let dst = &mut self.regs[rd.index()];
                    for l in lanes_of(active) {
                        dst[l] = self.mems[l][addr];
                    }
                }
                Instr::Store { src, base, offset } => {
                    let (addr, diverged) =
                        mem_addrs(&self.regs[base.index()], offset, words, active);
                    active &= !diverged;
                    let vals = &self.regs[src.index()];
                    for l in lanes_of(active) {
                        self.mems[l].write(addr, vals[l]);
                    }
                }
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    let m = branch_mask(cond, &self.regs[rs1.index()], &self.regs[rs2.index()]);
                    let taken = m & 1 == 1; // leader's direction
                    let follow = if taken { m } else { !m };
                    active &= follow; // peel lanes that went the other way
                    if taken {
                        next_pc = target as usize;
                    }
                }
            }
            // Epoch boundary: the next outer event's flusher is this
            // branch, so it flushed wrong-path work, and the next
            // committed seq lies past that event and the nested events
            // before it. They must tile the gap exactly, and every lane
            // must agree with the leader on the replayed resolved
            // directions and addresses to stay converged across it.
            let mut next_seq = seq + 1;
            let next_outer = self.outer.last().map(|&i| &replay.events[i]);
            if let Some(e) = next_outer.filter(|e| e.branch_seq == seq) {
                if !matches!(instr, Instr::Branch { .. }) {
                    return None;
                }
                let outer = self.outer.pop().expect("next_outer is the last");
                let gap: usize = replay.events.get(ev..=outer)?.iter().map(|e| e.len).sum();
                next_seq += gap as u64;
                self.replay_gap(
                    replay,
                    &mut ev,
                    e.branch_seq,
                    next_seq,
                    words,
                    &mut active,
                    &mut replay_peeled,
                )?;
                gaps += 1;
            }
            if next_pc >= instrs.len() {
                halted = true;
            }
            pc = next_pc;
            seq = next_seq;
            walked += 1;
        }
        if walked != committed || ev != replay.events.len() {
            // The walk stopped short of the leader's commits, or left
            // flush work it could not place against a committed gap.
            return None;
        }
        Some(Lockstep {
            active,
            replay_peeled,
            epochs: gaps + 1,
        })
    }

    /// Replay one committed-sequence gap `(flusher_seq, next_seq)`:
    /// consume this gap's flush events (its nested events were all
    /// recorded before the outer one, whose `branch_seq` is the
    /// committed flusher), verify their union tiles the gap exactly,
    /// and replay the merged wrong-path work in sequence order for all
    /// lanes at once, peeling lanes whose resolved branch directions
    /// or effective addresses diverge from the leader's logged ones.
    /// Returns `None` — demoting the group — if the events cannot tile
    /// the gap or *lane 0* disagrees with the log (the replay
    /// semantics are then wrong and no shared result can be trusted).
    ///
    /// Each event's register and store writes are scoped to its own
    /// seq range via the undo journal: wrong-path fetch resumed from a
    /// nested flush point, so entries past an event's last seq never
    /// saw its values. Event ranges are pairwise disjoint, which makes
    /// the open scopes properly nested and LIFO undo exact.
    #[allow(clippy::too_many_arguments)]
    fn replay_gap(
        &mut self,
        replay: &ReplayLog,
        ev: &mut usize,
        flusher_seq: u64,
        next_seq: u64,
        words: usize,
        active: &mut u64,
        replay_peeled: &mut u64,
    ) -> Option<()> {
        // Consume events until the outer one. Everything before it is
        // a nested flush inside this gap; its flusher is a wrong-path
        // entry, so its seq must lie strictly inside the gap.
        let start = *ev;
        loop {
            let e = replay.events.get(*ev)?;
            *ev += 1;
            if e.branch_seq == flusher_seq {
                break;
            }
            if e.branch_seq <= flusher_seq || e.branch_seq >= next_seq {
                return None;
            }
        }
        let events = &replay.events[start..*ev];

        self.wp_gen_cur = self.wp_gen_cur.wrapping_add(1);
        if self.wp_gen_cur == 0 {
            self.wp_gen.fill(0);
            self.wp_gen_cur = 1;
        }
        self.wp_stores.clear();
        self.journal.clear();
        self.gap_scopes.clear();
        self.gap_cursors.clear();
        self.gap_cursors.resize(events.len(), 0);

        for expected in flusher_seq + 1..next_seq {
            // The merge step: exactly one event's cursor must sit on
            // the expected seq (events record entries in seq order).
            let j = (0..events.len()).find(|&j| {
                let seg = replay.flushed(&events[j]);
                let c = self.gap_cursors[j];
                c < seg.len() && seg[c].seq == expected
            })?;
            let seg = replay.flushed(&events[j]);
            let c = self.gap_cursors[j];
            if c == 0 {
                let last = seg.last().expect("events record at least one entry").seq;
                self.gap_scopes
                    .push((last, self.journal.len(), self.wp_stores.len()));
            }
            self.gap_cursors[j] = c + 1;
            self.replay_entry(&seg[c], words, active, replay_peeled)?;
            while let Some(&(last, jm, sm)) = self.gap_scopes.last() {
                if last != expected {
                    break;
                }
                self.gap_scopes.pop();
                self.undo_to(jm, sm);
            }
        }
        // Exact tiling: every consumed event fully merged into the gap.
        for (j, e) in events.iter().enumerate() {
            if self.gap_cursors[j] != replay.flushed(e).len() {
                return None;
            }
        }
        Some(())
    }

    /// Roll the wrong-path overlays back to a scope's marks, undoing
    /// register writes youngest-first and truncating the store overlay.
    fn undo_to(&mut self, journal_mark: usize, stores_mark: usize) {
        while self.journal.len() > journal_mark {
            let (r, gen, vals) = self.journal.pop().expect("len checked");
            self.wp_gen[r] = gen;
            self.wp_val[r] = vals;
        }
        self.wp_stores.truncate(stores_mark);
    }

    /// Replay a single squashed wrong-path entry for all lanes at
    /// once.
    ///
    /// Value semantics mirror the engine's wrong-path execution:
    /// registers start from the lock-step architectural state at the
    /// flush boundary (the generation-stamped overlay), loads forward
    /// from the youngest older wrong-path store to the same address
    /// (the store overlay — wrong-path stores never reach memory) and
    /// fall back to lane memory, and entries without a logged fact are
    /// don't-cares (their consumers never issued).
    fn replay_entry(
        &mut self,
        fe: &FlushedEntry,
        words: usize,
        active: &mut u64,
        replay_peeled: &mut u64,
    ) -> Option<()> {
        let diverged = match fe.instr {
            Instr::Nop | Instr::Halt | Instr::Jump { .. } => 0,
            Instr::LoadImm { rd, imm } => {
                self.wp_write(rd.index(), [imm as u32; MAX_LANES]);
                0
            }
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = eval_alu(op, self.wp_read(rs1.index()), self.wp_read(rs2.index()));
                self.wp_write(rd.index(), v);
                0
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = eval_alu(op, self.wp_read(rs1.index()), &[imm as u32; MAX_LANES]);
                self.wp_write(rd.index(), v);
                0
            }
            Instr::Load { rd, base, offset } => {
                let Some(addr0) = fe.mem_addr else {
                    // Never issued ⇒ no consumer of its value ever
                    // issued either; the value is a don't-care.
                    self.wp_write(rd.index(), [0; MAX_LANES]);
                    return Some(());
                };
                let (addr, diverged) =
                    mem_addrs(self.wp_read(base.index()), offset, words, *active);
                if addr != addr0 {
                    return None; // lane-0 self-check failed
                }
                let out = match self.wp_stores.iter().rev().find(|(a, _)| *a == addr0) {
                    Some(&(_, vals)) => vals,
                    None => {
                        let mut out = [0; MAX_LANES];
                        for l in lanes_of(*active & !diverged) {
                            out[l] = self.mems[l][addr0];
                        }
                        out
                    }
                };
                self.wp_write(rd.index(), out);
                diverged
            }
            Instr::Store { src, base, offset } => {
                let Some(addr0) = fe.mem_addr else {
                    // Never resolved ⇒ every younger wrong-path
                    // load was blocked behind it and never issued.
                    return Some(());
                };
                let (addr, diverged) =
                    mem_addrs(self.wp_read(base.index()), offset, words, *active);
                if addr != addr0 {
                    return None; // lane-0 self-check failed
                }
                let vals = *self.wp_read(src.index());
                self.wp_stores.push((addr0, vals));
                diverged
            }
            Instr::Branch { cond, rs1, rs2, .. } => {
                let Some(dir) = fe.resolved_taken else {
                    // Untrained (resolved no earlier than the flush
                    // cycle, or never): left no timing trace.
                    return Some(());
                };
                let taken = branch_mask(cond, self.wp_read(rs1.index()), self.wp_read(rs2.index()));
                if (taken & 1 == 1) != dir {
                    return None; // lane-0 self-check failed
                }
                *active & if dir { !taken } else { taken }
            }
        };
        *active &= !diverged;
        *replay_peeled |= diverged;
        Some(())
    }

    /// A register's per-lane values during segment replay: the overlay
    /// if this segment wrote it, the lock-step architectural state
    /// otherwise.
    fn wp_read(&self, r: usize) -> &Lanes {
        if self.wp_gen[r] == self.wp_gen_cur {
            &self.wp_val[r]
        } else {
            &self.regs[r]
        }
    }

    /// Write a register's per-lane values into the segment overlay
    /// (architectural lane state is never touched by wrong-path work),
    /// journalling the displaced state so a closing event scope can
    /// undo it. A stale displaced generation restores as stale — the
    /// next read simply sees the boundary state again.
    fn wp_write(&mut self, r: usize, vals: Lanes) {
        self.journal.push((r, self.wp_gen[r], self.wp_val[r]));
        self.wp_val[r] = vals;
        self.wp_gen[r] = self.wp_gen_cur;
    }

    /// Cross-check lane 0's lock-step state against the engine's
    /// result. Lane 0 ran both paths; if they disagree, the lock-step
    /// pass is wrong and the group must not share its results.
    fn verify_leader(&self, leader: &RunResult) -> bool {
        self.mems[0] == leader.mem
            && self
                .regs
                .iter()
                .map(|v| v[0])
                .eq(leader.regs.iter().copied())
    }

    /// Hand out results: converged lanes inherit the leader's schedule
    /// (cycles, stats, and timings if it recorded them) with their own
    /// registers and memory from the lock-step pass; peeled lanes
    /// re-run serially.
    fn assemble<P: Borrow<Program>>(
        &mut self,
        engine: &mut Ultrascalar,
        programs: &[P],
        leader: &RunResult,
        rest: &mut [RunResult],
        active: u64,
    ) {
        for (i, slot) in rest.iter_mut().enumerate() {
            let l = i + 1;
            if active >> l & 1 == 1 {
                slot.halted = true;
                slot.cycles = leader.cycles;
                slot.stats.clone_from(&leader.stats);
                slot.timings.clone_from(&leader.timings);
                slot.regs.clear();
                slot.regs.extend(self.regs.iter().map(|v| v[l]));
                std::mem::swap(&mut slot.mem, &mut self.mems[l]);
            } else {
                engine.run_reusing(programs[l].borrow(), slot);
            }
        }
    }
}

/// Serial scalar runs for a whole group (the always-correct path).
fn run_serial<P: Borrow<Program>>(engine: &mut Ultrascalar, programs: &[P], out: &mut [RunResult]) {
    for (p, o) in programs.iter().zip(out.iter_mut()) {
        engine.run_reusing(p.borrow(), o);
    }
}

/// The memory size every lane must agree on ([`mem_words`], the size
/// the engine and the interpreter both use), or `None` if the group is
/// not lane-batchable: instruction streams, register-file sizes, or
/// memory sizes differ.
fn compatible_words<P: Borrow<Program>>(cfg: &ProcConfig, programs: &[P]) -> Option<usize> {
    let p0 = programs[0].borrow();
    let words = mem_words(cfg.mem.words, &p0.init_mem);
    for p in &programs[1..] {
        let p = p.borrow();
        if p.instrs != p0.instrs
            || p.num_regs != p0.num_regs
            || mem_words(cfg.mem.words, &p.init_mem) != words
        {
            return None;
        }
    }
    Some(words)
}

/// The mask of a batch's `n` lanes (`2 <= n <= 64`).
fn first_lanes(n: usize) -> u64 {
    u64::MAX >> (MAX_LANES - n)
}

/// The lanes raised in `mask`, lowest first.
fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (l < MAX_LANES).then_some(l)
    })
}

/// A memory operation's effective address in lane 0, and the mask of
/// `active` lanes whose address differs from it. Lanes holding lane
/// 0's base share its address outright; only the rest pay the modulus.
fn mem_addrs(bases: &Lanes, offset: i32, words: usize, active: u64) -> (usize, u64) {
    let addr = |base: u32| effective_addr(base, offset, words);
    let addr0 = addr(bases[0]);
    let other_bases = active & branch_mask(BranchCond::Ne, bases, &[bases[0]; MAX_LANES]);
    let diverged = lanes_of(other_bases)
        .filter(|&l| addr(bases[l]) != addr0)
        .fold(0, |m, l| m | 1 << l);
    (addr0, diverged)
}

/// One ALU op in every lane: a per-lane loop over [`AluOp::apply`],
/// monomorphised per op so each loop vectorises.
fn eval_alu(op: AluOp, a: &Lanes, b: &Lanes) -> Lanes {
    macro_rules! per_lane {
        ($($op:ident)*) => {
            match op {
                $(AluOp::$op => {
                    let mut out = [0; MAX_LANES];
                    for l in 0..MAX_LANES {
                        out[l] = AluOp::$op.apply(a[l], b[l]);
                    }
                    out
                })*
            }
        };
    }
    per_lane!(Add Sub And Or Xor Sll Srl Sra Slt Sltu Mul Div Rem)
}

/// A branch condition in every lane, as a mask (bit `l` set iff lane
/// `l` takes): a per-lane loop over [`BranchCond::eval`], monomorphised
/// per condition.
fn branch_mask(cond: BranchCond, a: &Lanes, b: &Lanes) -> u64 {
    macro_rules! per_lane {
        ($($cond:ident)*) => {
            match cond {
                $(BranchCond::$cond => {
                    let mut taken = 0u64;
                    for l in 0..MAX_LANES {
                        taken |= (BranchCond::$cond.eval(a[l], b[l]) as u64) << l;
                    }
                    taken
                })*
            }
        };
    }
    per_lane!(Eq Ne Lt Ge Ltu Geu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::PredictorKind;
    use ultrascalar_isa::workload;

    /// A lane group whose leader's flush log holds nested events: its
    /// engine, the leader's timed result and the leader's log.
    struct Group {
        engine: Ultrascalar,
        programs: Vec<Program>,
        leader: RunResult,
        log: ReplayLog,
    }

    impl Group {
        fn find() -> Group {
            let cfg = ProcConfig::ultrascalar_i(32).with_predictor(PredictorKind::Bimodal(16));
            for (_, prog) in workload::standard_suite(11) {
                let programs = workload::lane_variants(&prog, 8, 3);
                let mut engine = Ultrascalar::new(cfg.clone());
                let mut leader = RunResult::recording_timings();
                engine.run_logging_flushes(&programs[0], &mut leader);
                let log = engine.replay_log().clone();
                let mut g = Group {
                    engine,
                    programs,
                    leader,
                    log,
                };
                if !g.nested().is_empty() && g.settle(|_, _| {}).batches == 1 {
                    return g;
                }
            }
            panic!("no suite kernel flushes inside a flush");
        }

        /// Whether event `i` is outer.
        fn is_outer(&self, i: usize) -> bool {
            let ev = &self.log.events;
            ev[i + 1..].iter().all(|e| e.branch_seq > ev[i].branch_seq)
        }

        fn outer(&self) -> Vec<usize> {
            (0..self.log.events.len())
                .filter(|&i| self.is_outer(i))
                .collect()
        }

        fn nested(&self) -> Vec<usize> {
            (0..self.log.events.len())
                .filter(|&i| !self.is_outer(i))
                .collect()
        }

        /// Plant a defect in copies of the leader's result and log, run
        /// the lock-step pass against them and deliver the group,
        /// checking every lane against its serial run; returns the
        /// batcher's counters.
        fn settle(&mut self, plant: impl FnOnce(&mut RunResult, &mut ReplayLog)) -> LaneBatchStats {
            let (mut leader, mut log) = (self.leader.clone(), self.log.clone());
            plant(&mut leader, &mut log);
            let mut batcher = LaneBatcher::new();
            let words = compatible_words(self.engine.config(), &self.programs).expect("compatible");
            let pass = batcher.lockstep(&self.programs, words, &leader, &log);
            let mut rest = vec![RunResult::recording_timings(); self.programs.len() - 1];
            batcher.settle(&mut self.engine, &self.programs, &leader, &mut rest, pass);
            let mut serial = Ultrascalar::new(self.engine.config().clone());
            for (got, p) in rest.iter().zip(&self.programs[1..]) {
                assert_eq!(
                    got,
                    &serial.run_timed(p),
                    "a lane differs from its serial run"
                );
            }
            *batcher.stats()
        }

        /// The planted defect must demote the group.
        fn assert_demotes(
            &mut self,
            what: &str,
            plant: impl FnOnce(&mut RunResult, &mut ReplayLog),
        ) {
            let s = self.settle(plant);
            assert_eq!((s.fallback_structure, s.batches), (1, 0), "{what}: {s:?}");
        }
    }

    #[test]
    fn planted_outer_event_off_by_one_demotes() {
        let mut g = Group::find();
        for i in g.outer() {
            for delta in [-1i64, 1] {
                g.assert_demotes(&format!("event {i} moved by {delta}"), |_, log| {
                    let e = &mut log.events[i];
                    e.branch_seq = e.branch_seq.wrapping_add_signed(delta);
                });
            }
        }
    }

    #[test]
    fn planted_event_past_the_last_commit_demotes() {
        let mut g = Group::find();
        g.assert_demotes("event past the last commit", |_, log| {
            let mut e = *log.events.last().expect("an event");
            e.branch_seq = u64::MAX;
            log.events.push(e);
        });
    }

    #[test]
    fn planted_gap_after_a_non_branch_demotes() {
        let mut g = Group::find();
        let timings = g.leader.recorded_timings();
        let b = g.log.events[*g.outer().last().expect("an outer event")].branch_seq;
        let k = timings
            .iter()
            .position(|t| t.seq == b)
            .expect("committed flusher");
        let prev = timings[..k]
            .iter()
            .rfind(|t| !t.instr.is_branch())
            .expect("a committed non-branch before the flusher");
        // Open the last gap after that instruction instead, keeping the
        // log self-consistent: every later seq shifts down alike.
        let shift = b - prev.seq;
        g.assert_demotes("gap after a non-branch", |_, log| {
            for e in log.events.iter_mut().filter(|e| e.branch_seq >= b) {
                e.branch_seq -= shift;
            }
            for e in log.entries.iter_mut().filter(|e| e.seq > b) {
                e.seq -= shift;
            }
        });
    }

    #[test]
    fn planted_nested_event_outside_its_gap_demotes() {
        let mut g = Group::find();
        for i in g.nested() {
            // The gap's events run from the one after the previous
            // outer event up to its own outer event, the first later
            // event with a smaller `branch_seq`; the gap runs from that
            // flusher past all their entries.
            let ev = &g.log.events;
            let o = (i + 1..ev.len())
                .find(|&j| ev[j].branch_seq < ev[i].branch_seq)
                .expect("a nested event has an outer one");
            let first = (0..i).rev().find(|&j| g.is_outer(j)).map_or(0, |j| j + 1);
            let len: usize = ev[first..=o].iter().map(|e| e.len).sum();
            let flusher = ev[o].branch_seq;
            for outside in [flusher, flusher + 1 + len as u64] {
                g.assert_demotes(&format!("nested event {i} at {outside}"), |_, log| {
                    log.events[i].branch_seq = outside;
                });
            }
        }
    }

    /// A leader whose flush log would outgrow [`MAX_LEADER_LOG`] stops
    /// logging, and its group is served serially; a shorter run of the
    /// same loop shares its schedule.
    #[test]
    fn a_leader_out_of_log_demotes() {
        // The bimodal counter on `beq` keeps missing the alternating
        // direction, and each miss squashes most of a 256-station
        // window.
        let cfg = ProcConfig::ultrascalar_i(256).with_predictor(PredictorKind::Bimodal(256));
        for (iters, shares) in [(100, true), (8000, false)] {
            let src = format!(
                "li r1, 0\nli r4, 0\nli r3, {iters}\nloop:\naddi r1, r1, 1\nandi r2, r1, 1\n\
                 beq r2, r4, skip\nnop\nskip:\nbne r1, r3, loop\nhalt\n"
            );
            let prog = ultrascalar_isa::assemble(&src, 8).expect("assembles");
            let programs = workload::lane_variants(&prog, 2, 9);
            let mut engine = Ultrascalar::new(cfg.clone());
            let mut batcher = LaneBatcher::new();
            let mut out = vec![RunResult::default(); 2];
            batcher.run_batch(&mut engine, &programs, &mut out);
            let s = *batcher.stats();
            assert_eq!(
                (s.batches == 1, s.fallback_leader == 0),
                (shares, shares),
                "{iters}: {s:?}"
            );
            assert_eq!(engine.replay_log().is_complete(), shares, "{iters}");
            if !shares {
                assert_eq!(
                    engine.replay_log().entries.capacity(),
                    0,
                    "{iters}: log kept"
                );
            }
            for (got, p) in out.iter().zip(&programs) {
                assert_eq!(got, &Ultrascalar::new(cfg.clone()).run(p), "{iters}");
            }
        }
    }

    #[test]
    fn planted_committed_count_demotes() {
        let mut g = Group::find();
        for delta in [-1i64, 1] {
            g.assert_demotes(&format!("committed count moved by {delta}"), |leader, _| {
                leader.stats.committed = leader.stats.committed.wrapping_add_signed(delta);
            });
        }
    }
}
