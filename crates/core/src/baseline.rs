//! A conventional idealized out-of-order superscalar: the baseline the
//! paper compares against ("the datapath … exploits the same
//! instruction-level parallelism as today's superscalars").
//!
//! Deliberately implemented the *conventional* way — a register rename
//! map consulted once at dispatch, reorder-buffer tags, broadcast
//! value substitution at retirement, rename-map rollback on flush —
//! rather than the Ultrascalar's continuous nearest-preceding-writer
//! search. The integration tests assert cycle-for-cycle equality
//! against [`crate::engine::Ultrascalar`] with `C = 1`, which is the
//! paper's functional-equivalence claim.

use std::collections::VecDeque;

use crate::config::ProcConfig;
use crate::fetch::FetchUnit;
use crate::processor::{Processor, RunResult};
use crate::station::{MemPhase, StationEntry};
use crate::stats::ProcStats;
use crate::timing::InstrTiming;
use ultrascalar_isa::{effective_addr, Instr, Program};
use ultrascalar_memsys::{MemRequest, MemResponse, MemSystem, ReqKind};

/// A source operand captured at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// No operand in this slot.
    None,
    /// An immediate value (from the committed register file, or
    /// substituted at the producer's retirement).
    Value(u32),
    /// Waiting on the ROB entry with this sequence number.
    Tag(u64),
}

#[derive(Debug, Clone)]
struct RobEntry {
    st: StationEntry,
    /// The station slot (fat-tree leaf), wrapped at dispatch.
    slot: usize,
    src: [Operand; 2],
}

/// Locate the ROB entry with sequence number `id` by binary search —
/// the allocation-free replacement for the per-cycle `HashMap` locator
/// and producer-snapshot map. Sequence numbers are monotone and never
/// reused, dispatch appends and flush truncates a suffix, so the ROB is
/// always sorted ascending by `seq` (with gaps after a flush).
fn rob_locate(rob: &VecDeque<RobEntry>, id: u64) -> Option<usize> {
    let i = rob.partition_point(|e| e.st.seq < id);
    (rob.get(i)?.st.seq == id).then_some(i)
}

/// The baseline processor. `window`, `latency`, `predictor`, `mem`,
/// `alus` and `max_cycles` of the configuration are used (`cluster` is
/// ignored — retirement is per-entry; `memory_renaming` and pipelined
/// forwarding are Ultrascalar-specific mechanisms and are ignored
/// here).
#[derive(Debug, Clone)]
pub struct BaselineOoO {
    cfg: ProcConfig,
}

impl BaselineOoO {
    /// Create a baseline processor.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ProcConfig) -> Self {
        cfg.validate().expect("invalid processor configuration");
        BaselineOoO { cfg }
    }
}

impl Processor for BaselineOoO {
    fn name(&self) -> String {
        format!("baseline-ooo(n={})", self.cfg.window)
    }

    fn run_reusing(&mut self, program: &Program, out: &mut RunResult) {
        program.validate().expect("program must validate");
        let n = self.cfg.window;
        let lat = self.cfg.latency;

        let words = self.cfg.mem.words;
        let mut fetch = FetchUnit::new(program, self.cfg.predictor, words);
        let mut mem = MemSystem::new(self.cfg.mem.clone(), &program.init_mem);
        // Registers, stats and timings (when the caller asked for
        // them) accumulate directly into `out`.
        let RunResult {
            halted: out_halted,
            cycles: out_cycles,
            regs: committed_regs,
            mem: out_mem,
            stats,
            timings,
        } = out;
        committed_regs.clone_from(&program.init_regs);
        let mut rename: Vec<Option<u64>> = vec![None; program.num_regs];
        let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(n);
        let mut next_seq: u64 = 0;
        let mut next_slot: usize = 0;
        // The station slot after `slot`, round the ring of `n`.
        let slot_after = |slot: usize| if slot + 1 == n { 0 } else { slot + 1 };
        stats.reset();
        let mut timings = timings.as_mut();
        if let Some(t) = timings.as_mut() {
            t.clear();
        }
        let mut halted = false;
        let mut alu_free_at: Vec<u64> = self.cfg.alus.map(|k| vec![0u64; k]).unwrap_or_default();

        // Dispatch: fill the ROB, consulting the rename map once per
        // operand (the conventional design point); at most
        // `fetch_width` instructions per cycle. How an operand arrives
        // is counted at issue, as the Ultrascalar counts it, so the
        // wrong-path instructions a flush squashes unissued count
        // nowhere.
        let fetch_budget = self.cfg.fetch_width.unwrap_or(n);
        let dispatch = |rob: &mut VecDeque<RobEntry>,
                        fetch: &mut FetchUnit,
                        rename: &mut Vec<Option<u64>>,
                        committed_regs: &Vec<u32>,
                        next_seq: &mut u64,
                        next_slot: &mut usize,
                        visible_at: u64| {
            let mut budget = fetch_budget;
            while rob.len() < n && budget > 0 {
                budget -= 1;
                let Some(f) = fetch.next() else { return };
                let st = StationEntry::new(*next_seq, f.pc, f.instr, f.predicted_next, visible_at);
                let mut src = [Operand::None; 2];
                for (slot, r) in f.instr.reads().into_iter().enumerate() {
                    if let Some(r) = r {
                        src[slot] = match rename[r.index()] {
                            Some(tag) => Operand::Tag(tag),
                            None => Operand::Value(committed_regs[r.index()]),
                        };
                    }
                }
                if let Some(rd) = f.instr.writes() {
                    rename[rd.index()] = Some(*next_seq);
                }
                rob.push_back(RobEntry {
                    st,
                    slot: *next_slot,
                    src,
                });
                *next_seq += 1;
                *next_slot = slot_after(*next_slot);
            }
        };

        dispatch(
            &mut rob,
            &mut fetch,
            &mut rename,
            committed_regs,
            &mut next_seq,
            &mut next_slot,
            0,
        );

        // Per-cycle request, accept and response buffers, reused across
        // the whole run (the scan itself is allocation-free: producer
        // lookups go through [`rob_locate`] instead of per-cycle
        // snapshot maps).
        let mut requests: Vec<MemRequest> = Vec::new();
        let mut accepted: Vec<MemRequest> = Vec::new();
        let mut responses: Vec<MemResponse> = Vec::new();

        // Producer lookup, live against the ROB. Equivalent to the
        // start-of-cycle snapshot it replaces: an entry that issues
        // during this same scan gets `completed_at >= t`, so its
        // `done_before(t)` stays false and its (unused) value is never
        // observed, and ROB positions are stable mid-scan.
        let operand = |rob: &VecDeque<RobEntry>, o: Operand, t: u64| -> (bool, u32) {
            match o {
                Operand::None => (true, 0),
                Operand::Value(v) => (true, v),
                Operand::Tag(tag) => {
                    let j =
                        rob_locate(rob, tag).expect("tag producer still in ROB until substituted");
                    (rob[j].st.done_before(t), rob[j].st.result.unwrap_or(0))
                }
            }
        };

        let mut t: u64 = 0;
        while t < self.cfg.max_cycles {
            if rob.is_empty() && fetch.exhausted() {
                break;
            }
            let occupancy = rob.len() as u64;
            stats.occupancy_sum += occupancy;

            // Event-driven cycle skipping: collect the earliest future
            // completion plus the evidence needed to decide afterwards
            // whether this cycle was silent (see the same machinery in
            // the Ultrascalar engine). The baseline has no forwarding-
            // latency model, so producer completions are the only
            // operand wake-up events.
            let mut next_completion = u64::MAX;
            let mut completes_now = false;
            let alu_stalls_before = stats.alu_stalls;

            // ---- Wakeup & select: an operand is ready when its
            // producer's result has been on the bypass network since
            // the previous cycle (same convention as the Ultrascalar).
            // The serialisation flags are computed in the same scan.
            let mut all_stores_done = true;
            let mut all_loads_done = true;
            let mut all_branches_done = true;
            requests.clear();
            let mut free_alus = alu_free_at.iter().filter(|&&f| f <= t).count();
            // Non-memory issues in the scan; memory ops issue when
            // accepted.
            let mut scan_issues = 0;

            for i in 0..rob.len() {
                let e = &rob[i];
                let leaf = e.slot;
                let eligible = e.st.issued_at.is_none() && t >= e.st.fetched_at;
                if eligible {
                    let (r0, v0) = operand(&rob, e.src[0], t);
                    let (r1, v1) = operand(&rob, e.src[1], t);
                    let e = &rob[i];
                    if r0 && r1 {
                        let (instr, seq, src) = (e.st.instr, e.st.seq, e.src);
                        // Counted at issue, or at a memory op's first
                        // offer: forwarded from a producer still in the
                        // ROB, by `seq` distance, or read from the
                        // committed register file (a retired producer's
                        // broadcast value included).
                        let record_forwards = |stats: &mut ProcStats| {
                            for o in src {
                                match o {
                                    Operand::Tag(tag) => stats.record_forward(seq - tag),
                                    Operand::Value(_) => stats.regfile_reads += 1,
                                    Operand::None => {}
                                }
                            }
                        };
                        let first_offer = e.st.mem == MemPhase::None;
                        // Shared-ALU admission (Alu/AluImm classes),
                        // oldest-first by scan order.
                        let shared_alu = self.cfg.alus.is_some()
                            && matches!(instr, Instr::Alu { .. } | Instr::AluImm { .. });
                        match instr {
                            Instr::Load { offset, .. } => {
                                if all_stores_done {
                                    let addr = effective_addr(v0, offset, mem.words());
                                    requests.push(MemRequest {
                                        id: seq,
                                        leaf,
                                        addr,
                                        kind: ReqKind::Load,
                                    });
                                    if first_offer {
                                        record_forwards(stats);
                                    }
                                    rob[i].st.mem = MemPhase::Requesting;
                                }
                            }
                            Instr::Store { offset, .. } => {
                                if all_stores_done && all_loads_done && all_branches_done {
                                    let addr = effective_addr(v0, offset, mem.words());
                                    requests.push(MemRequest {
                                        id: seq,
                                        leaf,
                                        addr,
                                        kind: ReqKind::Store(v1),
                                    });
                                    if first_offer {
                                        record_forwards(stats);
                                    }
                                    rob[i].st.mem = MemPhase::Requesting;
                                }
                            }
                            _ if shared_alu && free_alus == 0 => stats.alu_stalls += 1,
                            _ => {
                                // Every other instruction issues in one
                                // step, completing `lat.of` cycles on.
                                let (result, taken) = match instr {
                                    Instr::Alu { op, .. } => (Some(op.apply(v0, v1)), None),
                                    Instr::AluImm { op, imm, .. } => {
                                        (Some(op.apply(v0, imm as u32)), None)
                                    }
                                    Instr::LoadImm { imm, .. } => (Some(imm as u32), None),
                                    Instr::Branch { cond, .. } => (None, Some(cond.eval(v0, v1))),
                                    _ => (None, None),
                                };
                                let done_at = t + lat.of(&instr) - 1;
                                let e = &mut rob[i].st;
                                e.issued_at = Some(t);
                                e.completed_at = Some(done_at);
                                e.result = result;
                                e.taken = taken;
                                scan_issues += 1;
                                record_forwards(stats);
                                if shared_alu {
                                    free_alus -= 1;
                                    let unit = alu_free_at
                                        .iter_mut()
                                        .find(|f| **f <= t)
                                        .expect("free ALU counted");
                                    *unit = done_at + 1;
                                }
                            }
                        }
                    }
                }
                let e = &rob[i].st;
                let done = e.done_before(t);
                match e.completed_at {
                    Some(ct) if ct > t => next_completion = next_completion.min(ct),
                    Some(ct) if ct == t => completes_now = true,
                    _ => {}
                }
                if e.instr.is_load() {
                    all_loads_done &= done;
                }
                if e.instr.is_store() {
                    all_stores_done &= done;
                }
                if e.instr.is_branch() {
                    all_branches_done &= done;
                }
            }

            // ---- Memory.
            let offered_requests = !requests.is_empty();
            mem.tick_into(t, &requests, &mut accepted, &mut responses);
            let had_responses = !responses.is_empty();
            for req in &accepted {
                if let Some(i) = rob_locate(&rob, req.id) {
                    rob[i].st.issued_at = Some(t);
                    rob[i].st.mem = MemPhase::InFlight;
                }
            }
            for resp in &responses {
                if let Some(i) = rob_locate(&rob, resp.id) {
                    let e = &mut rob[i].st;
                    if e.mem == MemPhase::InFlight {
                        e.completed_at = Some(t);
                        e.result = resp.value;
                        e.mem = MemPhase::None;
                    }
                }
            }
            let issued_now = scan_issues + accepted.len();

            // ---- Branch resolution + flush with rename-map rollback.
            for i in 0..rob.len() {
                let e = &rob[i].st;
                if e.instr.is_branch() && e.completed_at == Some(t) {
                    fetch.train(e.pc, e.taken.unwrap_or(false));
                    if e.mispredicted() {
                        let correct = e.resolved_next().expect("resolved");
                        stats.flushed += (rob.len() - (i + 1)) as u64;
                        rob.truncate(i + 1);
                        next_slot = slot_after(rob[i].slot);
                        // Rollback: rebuild the rename map from the
                        // surviving ROB (hardware restores a
                        // checkpoint).
                        rename.iter_mut().for_each(|r| *r = None);
                        for e in rob.iter() {
                            if let Some(rd) = e.st.instr.writes() {
                                rename[rd.index()] = Some(e.st.seq);
                            }
                        }
                        fetch.redirect(correct);
                        break;
                    }
                }
            }

            // ---- In-order retirement (per entry), with broadcast
            // substitution of the retiring tag.
            let mut retired_any = false;
            while let Some(front) = rob.front() {
                if !front.st.done_before(t) {
                    break;
                }
                let e = rob.pop_front().expect("front exists");
                retired_any = true;
                let seq = e.st.seq;
                let result = e.st.result;
                let synthetic = e.st.is_synthetic(program.len());
                if !synthetic {
                    stats.committed += 1;
                    if let Some(timings) = timings.as_mut() {
                        timings.push(InstrTiming {
                            seq,
                            pc: e.st.pc,
                            instr: e.st.instr,
                            fetched: e.st.fetched_at,
                            issue: e.st.issued_at.expect("retired ⇒ issued"),
                            complete: e.st.completed_at.expect("retired ⇒ completed"),
                            slot: e.slot,
                        });
                    }
                    if e.st.instr.is_branch() {
                        stats.branches += 1;
                        if e.st.mispredicted() {
                            stats.mispredictions += 1;
                        }
                    }
                    if let Some(rd) = e.st.instr.writes() {
                        committed_regs[rd.index()] = result.expect("writer retired with result");
                        if rename[rd.index()] == Some(seq) {
                            rename[rd.index()] = None;
                        }
                    }
                }
                // Broadcast: outstanding consumers capture the value.
                if let Some(v) = result {
                    for waiting in rob.iter_mut() {
                        for s in &mut waiting.src {
                            if *s == Operand::Tag(seq) {
                                *s = Operand::Value(v);
                            }
                        }
                    }
                }
                if matches!(e.st.instr, Instr::Halt) {
                    halted = true;
                    break;
                }
            }
            if halted {
                t += 1;
                break;
            }

            // ---- Dispatch new instructions, visible next cycle.
            let seq_before_dispatch = next_seq;
            dispatch(
                &mut rob,
                &mut fetch,
                &mut rename,
                committed_regs,
                &mut next_seq,
                &mut next_slot,
                t + 1,
            );
            let dispatched = next_seq != seq_before_dispatch;

            // ---- Cycle skip: a provably silent cycle (nothing issued
            // or ALU-stalled, no memory traffic, no completion,
            // retirement or dispatch) repeats identically until the
            // next scheduled event; jump there, accounting occupancy in
            // closed form. (The baseline keeps no per-cycle issue
            // histogram, so occupancy is the only closed-form stat.)
            let silent = issued_now == 0
                && !offered_requests
                && !had_responses
                && !completes_now
                && !retired_any
                && !dispatched
                && stats.alu_stalls == alu_stalls_before;
            if self.cfg.cycle_skip && silent {
                let mut event = next_completion;
                if let Some(m) = mem.next_completion_at() {
                    event = event.min(m);
                }
                let target = event.min(self.cfg.max_cycles).max(t + 1);
                let skipped = target - (t + 1);
                if skipped > 0 {
                    stats.occupancy_sum += skipped * occupancy;
                    t = target - 1;
                }
            }

            t += 1;
        }

        stats.cycles = t;
        stats.mem = mem.stats();
        // The ROB retires in program order, so the record is already
        // sorted by `seq`.
        debug_assert!(timings
            .as_ref()
            .is_none_or(|t| t.windows(2).all(|w| w[0].seq < w[1].seq)));
        // Sparse: copies only the pages either image marks as written.
        out_mem.clone_from(mem.image());
        *out_cycles = t;
        *out_halted = halted;
    }
}
