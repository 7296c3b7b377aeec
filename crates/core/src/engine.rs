//! The unified Ultrascalar engine: US-I (`C = 1`), US-II (`C = n`) and
//! the hybrid (`1 < C < n`) as one cycle-accurate model.
//!
//! See the crate docs for the cycle conventions. The window is one ring
//! over the `n` physical stations: slot `s` is H-tree leaf `s` (the
//! [`InstrTiming::slot`] a committed instruction reports) and belongs
//! to cluster `s / C`. The occupied stations run in program order from
//! a cluster-aligned `head` slot, wrapping around; commit advances
//! `head` a whole cluster at a time, refill appends at the tail and a
//! flush truncates the tail.
//!
//! # Producer links
//!
//! The hardware's CSPP finds each station's nearest preceding writer of
//! every source register anew each cycle. For a station that is already
//! in the window that writer cannot change: refill only appends younger
//! stations, a flush only drops stations younger than the flushing
//! branch (and so younger than every surviving station's producers),
//! and a commit only retires the oldest stations, turning a forwarded
//! operand into a committed-register-file read. So refill gives each
//! station its producers once, as `(slot, seq)` links read from a
//! per-register rename table (the youngest in-window writer so far; a
//! flush rebuilds it from the surviving window, as a conventional
//! rename map restores its checkpoint). Resolving an operand is then
//! one probe: a producer with `seq` at or past the oldest station's is
//! still in the window and forwards from its slot — ready at
//! `done + 1 + fwd.extra(producer, consumer)` — and any other producer
//! has committed, so the operand reads the committed register file. The
//! probe reads the producer live, inside the same program-order walk
//! that issues, so a consumer sees the producer's state as of its own
//! walk step: issued earlier in this cycle's walk (then not yet ready),
//! or completed by a memory response in an earlier cycle.
//!
//! # Wake-up lists
//!
//! Each cycle one program-order walk issues and computes the running
//! all-earlier AND flags ("all earlier stores / loads / branches done,
//! store addresses resolved"), the issue count and the branches
//! completing this cycle (the only stations branch resolution visits).
//! It visits only the stations that can act: the members of an
//! `active` set over the ring slots, found from `head` with
//! trailing-zeros scans. Every other unfinished station is in a
//! `parked` set, because it
//!
//! * is blocked on an in-window producer whose completion is **not yet
//!   scheduled**, and parks on it in an intrusive waiter list. Every
//!   point that schedules a register writer's completion — an ALU,
//!   immediate or load-immediate issue, a store-forwarded load, a
//!   memory response — marks that writer's waiters **woken**. Refill
//!   parks a new station the same way before its first visit;
//! * is a ready load or store whose all-earlier lane is **clear**, and
//!   is held on that lane: a load on "stores done" (on "store addresses
//!   resolved" under renaming), a store on the first clear lane of the
//!   three its issue needs;
//! * had its memory request accepted and is **in flight** until the
//!   response arrives (a rejected request stays in the walk and is
//!   offered again); or
//! * **completes this cycle**, and is *finishing*: the visit that issues
//!   it with latency one, forwards it a store's value or finds its
//!   multi-cycle op in its last cycle, or the response that lands it,
//!   takes it out of the walk. It is unfinished during the cycle and
//!   finished from the next, so no visit ever finds it finished.
//!
//! Completions and wakes take effect at the start of the next cycle, in
//! one sweep over the ring's words from `head`: finishing stations leave
//! `parked` and every lane's *blockers* (below), woken ones rejoin the
//! walk, and so do holds whose lane has set. The sweep returns the
//! oldest station in the walk or out of it, which bounds the done
//! prefix commit retires from, and the slot past which each lane is
//! clear. Like the circuits' parallel prefix (Figure 5), it derives all
//! of this from start-of-cycle state; the walk changes only the renaming
//! lane.
//!
//! Waking next cycle is exact. A station woken at `t` has a producer
//! completing at `done ≥ t`, so its operand is usable no earlier than
//! `t + 1`, the first cycle it is visited. Until then its only effect on
//! other stations is that it is unfinished, and under memory renaming,
//! for a store, unresolved. Refill parking is exact for the same
//! reason: a station refilled at the end of `t` whose in-window producer
//! is unscheduled cannot issue before the cycle after that producer
//! schedules its completion, and that is its first visit. Only a
//! producer still in the window qualifies (`seq` at or past the oldest
//! station's): an older one has committed and its slot may hold a
//! younger station. Cycle skip needs no new event: a cycle that wakes or
//! completes anything is not silent, and a parked station's producer is
//! unscheduled, which the "covered transitively" argument at the
//! blocked-operand wake-ups already relies on; the ready time of its
//! other operand, not collected, passes while it is still blocked.
//!
//! Holding is exact because an all-earlier lane at a station only moves
//! from clear to set while the station is in the window: refill appends
//! younger stations, a flush drops younger ones, and commit retires
//! finished ones. Each lane keeps the set of its blockers: the
//! unfinished loads, branches or stores (set at refill, cleared by the
//! sweep), and under renaming the unresolved stores. A lane is set at a
//! slot exactly while no older blocker remains, so each of lanes 0–2 is
//! set up to and including its oldest blocker, which clears it only for
//! younger stations, and the sweep releases that run's holds word by
//! word. Every parked station is unfinished, so `parked ∩ blockers[k]`
//! is the set of parked stations that clear lane `k`. A held, in-flight
//! or finishing station has resolved, so the renaming lane is clear past
//! the oldest parked unresolved store and past each store the walk
//! leaves unresolved. A store resolves on its first ready visit; if the
//! lane was set there, the walk releases the holds up to and including
//! the lane's next blocker and reaches them later in the same walk. A
//! load is held at most once and a store at most three times (once per
//! lane), and every visit has exactly one outcome, which [`WalkCensus`]
//! lets tests check.
//!
//! Under memory renaming a store resolves exactly once, on the visit
//! where its operands are first ready: it writes its address and value
//! into a per-slot table and marks its slot in a `resolved` set,
//! which commit and flush clear with their ranges. A load searches the
//! table only when "store addresses resolved" is set at its slot, so
//! every older store in the window has resolved and is marked; and an
//! operand's value never changes once it is ready. The marked slots in
//! `[head, load)`, searched youngest first, therefore hold exactly the
//! stores, addresses and values a walk that recomputed every older
//! store each cycle would search, and the store can leave the walk
//! like any other station.
//!
//! Every schedule, statistic and flush trace is therefore the one a
//! walk over every station produces, and the per-cycle cost is the
//! visited stations plus `O(n / 64)` records. The circuits do the same
//! work in `Θ(log n)` gate delay. A record holds all fourteen per-slot
//! sets of one ring word of 64 slots (`active`, `parked`, `woken`,
//! `finishing`, `flying`, `resolved`, and each lane's blockers and
//! holds), so the sweep, a walk step's park, hold or flight and a
//! flush's squash reach every set of a word through one index. A
//! waiter's `next` and `prev` links sit together in the same way.
//!
//! Three of the paper's extension mechanisms are implemented behind
//! configuration switches (all off by default):
//!
//! * **shared ALUs** (`ProcConfig::alus`): the Memo 2 prioritised
//!   prefix scheduler — at most `k` `Alu`/`AluImm` instructions hold a
//!   functional unit at once, granted oldest-first (§1, §7);
//! * **memory renaming** (`ProcConfig::memory_renaming`): loads
//!   forward from the nearest older in-window store to the same
//!   address and bypass the conservative serialisation once all older
//!   store addresses are known to differ (§7);
//! * **pipelined forwarding** (`ProcConfig::forward`): result delivery
//!   costs extra cycles proportional to the H-tree distance between
//!   producer and consumer stations (§7's pipelining/self-timing
//!   study).

// Index-based window loops are deliberate throughout: entries are
// mutated mid-walk, which iterator borrows cannot express.
#![allow(clippy::needless_range_loop)]

use crate::config::{ForwardModel, ProcConfig};
use crate::fetch::FetchUnit;
use crate::lane::MAX_LEADER_LOG;
use crate::processor::{Processor, RunResult};
use crate::station::{MemPhase, StationEntry};
use crate::stats::ProcStats;
use crate::timing::InstrTiming;
use ultrascalar_isa::{effective_addr, Instr, Program};
use ultrascalar_memsys::{MemRequest, MemResponse, MemSystem, ReqKind};
use ultrascalar_prefix::packed::{self, BitWords};

// Lanes of the all-earlier flag word: the paper's side-by-side 1-bit
// AND networks (Figure 5, plus the renaming variant), narrowed as the
// walk passes each station. Lane `k` is bit `k`; a load, branch or
// store clears lane [`lane_of`] while unfinished.
const F_STORES_DONE: u64 = 1 << 0;
const F_LOADS_DONE: u64 = 1 << 1;
const F_BRANCHES_DONE: u64 = 1 << 2;
const F_STORES_RESOLVED: u64 = 1 << 3;
/// Lanes gating a store issue: every older store, load and branch done.
const F_STORE_ISSUE: u64 = F_STORES_DONE | F_LOADS_DONE | F_BRANCHES_DONE;
/// The renaming lane's index.
const RESOLVED_LANE: usize = 3;

/// The done lane (flag bit index) the instruction clears while it is
/// unfinished, if its doneness feeds an all-earlier flag.
fn lane_of(instr: &Instr) -> Option<usize> {
    match instr {
        Instr::Store { .. } => Some(0),
        Instr::Load { .. } => Some(1),
        Instr::Branch { .. } => Some(2),
        _ => None,
    }
}

/// What the per-cycle walk did over a run: the cost it paid (visits),
/// the outcome of each visit, and every way a station left or
/// re-entered it. Counted in the engine's retained scratch, never in
/// [`RunResult`], so no result or digest depends on it; see
/// [`Ultrascalar::walk_census`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCensus {
    /// Cycles the engine executed; spans cycle skip jumped are not
    /// counted.
    pub cycles: u64,
    /// Stations the walk visited, summed over the executed cycles.
    pub visits: u64,
    /// Stations that began execution or had a memory request accepted.
    pub issues: u64,
    /// Visits that offered a memory request, counting every re-offer
    /// after a rejection.
    pub requests: u64,
    /// Visits blocked only on operands whose producers have scheduled
    /// their completion.
    pub operand_waits: u64,
    /// Visits to an issued multi-cycle op still executing.
    pub executing: u64,
    /// Visits to a ready ALU op that found every shared ALU busy.
    pub alu_stalls: u64,
    /// Ready loads and stores taken out of the walk until an
    /// all-earlier lane sets at their slot.
    pub holds: u64,
    /// Holds ended by their lane setting.
    pub releases: u64,
    /// Holds ended by a flush squashing the held station.
    pub squashed_holds: u64,
    /// Stations still held when the run ended.
    pub held_at_end: u64,
    /// Stations the walk parked on a producer with no scheduled
    /// completion.
    pub walk_parks: u64,
    /// Stations refill parked before their first visit.
    pub refill_parks: u64,
    /// Parks ended by the producer scheduling its completion.
    pub wakes: u64,
    /// Parks ended by a flush squashing the parked station.
    pub squashed_parks: u64,
    /// Stations still parked on a producer when the run ended.
    pub parked_at_end: u64,
    /// Memory ops taken out of the walk when their request was
    /// accepted.
    pub flights: u64,
    /// Flights ended by the memory response.
    pub landings: u64,
    /// Flights ended by a flush squashing the station.
    pub squashed_flights: u64,
    /// Stations still in flight when the run ended.
    pub flying_at_end: u64,
}

/// The station sets of ring word `w`: bit `b` of each field is slot
/// `64·w + b`. Every set holds only occupied slots; an occupied station
/// in neither `active` nor `parked` is finished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SetWord {
    /// Stations the walk visits.
    active: u64,
    /// Stations out of the walk and unfinished: parked on a producer,
    /// woken, held on a lane, in flight or finishing.
    parked: u64,
    /// Parked stations whose producer scheduled its completion this
    /// cycle: back in the walk from the next.
    woken: u64,
    /// Parked stations that complete this cycle: finished from the next.
    finishing: u64,
    /// The memory ops whose request was accepted and whose response
    /// has not arrived.
    flying: u64,
    /// Under memory renaming, the resolved stores: their slots in
    /// [`EngineScratch::stores`] hold their address and value.
    resolved: u64,
    /// Per flag lane, the stations that may still clear it: the
    /// unfinished loads, branches and stores, and under memory renaming
    /// the unresolved stores. Every parked station is unfinished, so
    /// `parked & blockers[k]` holds those that clear lane `k`.
    blockers: [u64; 4],
    /// Per flag lane, the ready memory ops waiting for it to set at
    /// their slot.
    held: [u64; 4],
}

impl SetWord {
    /// Lower the slots of `mask` in every set.
    fn clear(&mut self, mask: u64) {
        let sets = [
            &mut self.active,
            &mut self.parked,
            &mut self.woken,
            &mut self.finishing,
            &mut self.flying,
            &mut self.resolved,
        ];
        for set in sets
            .into_iter()
            .chain(&mut self.blockers)
            .chain(&mut self.held)
        {
            *set &= !mask;
        }
    }
}

/// Which stations the per-cycle walk visits, and who wakes the rest
/// (see "Wake-up lists" in the module docs), over a window of `n`
/// stations: one [`SetWord`] per ring word, and the waiter lists, which
/// are circular doubly-linked lists over one array of `[next, prev]`
/// links. Nodes `0..n` are the stations, node `n + p` heads the list of
/// stations parked on producer slot `p`, and an unlinked node points at
/// itself. Everything is sized once per window, so parking, holding,
/// flying, waking and flushing never allocate.
#[derive(Debug, Default)]
struct WakeLists {
    n: usize,
    sets: Vec<SetWord>,
    /// Per flag lane, how many stations `held` marks.
    held_count: [u64; 4],
    links: Vec<[u32; 2]>,
    census: WalkCensus,
}

impl WakeLists {
    /// Empty sets and lists for a window of `n` stations.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.sets.clear();
        self.sets.resize(n.div_ceil(64), SetWord::default());
        self.held_count = [0; 4];
        self.links.clear();
        self.links.extend((0..2 * n as u32).map(|i| [i; 2]));
        self.census = WalkCensus::default();
    }

    /// Slot `s`'s record and its bit there.
    ///
    /// # Panics
    /// Panics if `s` is past the window.
    #[inline]
    fn slot(&mut self, s: usize) -> (&mut SetWord, u64) {
        assert!(s < self.n, "station slot out of range");
        (&mut self.sets[s / 64], 1 << (s % 64))
    }

    /// Is slot `s` in the set `set` reads?
    fn has(&self, s: usize, set: impl Fn(&SetWord) -> u64) -> bool {
        assert!(s < self.n, "station slot out of range");
        set(&self.sets[s / 64]) >> (s % 64) & 1 == 1
    }

    /// The first slot in `from..to` of the set `set` reads.
    #[inline]
    fn next_in(&self, set: impl Fn(&SetWord) -> u64, from: usize, to: usize) -> Option<usize> {
        packed::next_set_in(|w| set(&self.sets[w]), from, to)
    }

    /// The last slot in `from..to` of the set `set` reads.
    fn prev_in(&self, set: impl Fn(&SetWord) -> u64, from: usize, to: usize) -> Option<usize> {
        packed::prev_set_in(|w| set(&self.sets[w]), from, to)
    }

    /// Is station `w` on no waiter list?
    fn unlinked(&self, w: usize) -> bool {
        self.links[w][0] as usize == w
    }

    /// Take station `w` out of the walk into the parked set; returns
    /// its record and bit.
    fn leave(&mut self, w: usize) -> (&mut SetWord, u64) {
        let (r, bit) = self.slot(w);
        r.active &= !bit;
        r.parked |= bit;
        (r, bit)
    }

    /// Take station `w` out of the walk until producer slot `p`
    /// schedules its completion.
    fn park(&mut self, w: usize, p: usize) {
        let h = self.n + p;
        let first = self.links[h][0];
        self.links[w] = [first, h as u32];
        self.links[first as usize][1] = w as u32;
        self.links[h][0] = w as u32;
        self.leave(w);
    }

    /// Producer slot `p` has scheduled its completion: mark every
    /// station parked on it woken. Its operand is usable no earlier
    /// than the next cycle, so the station rejoins the walk then.
    #[inline]
    fn wake(&mut self, p: usize) {
        let h = self.n + p;
        let mut w = self.links[h][0] as usize;
        while w != h {
            debug_assert!(
                self.has(w, |r| r.parked & !r.woken),
                "waking station {w}, which is not parked or already woken"
            );
            let after = self.links[w][0] as usize;
            self.links[w] = [w as u32; 2];
            let (r, bit) = self.slot(w);
            r.woken |= bit;
            self.census.wakes += 1;
            w = after;
        }
        self.links[h] = [h as u32; 2];
    }

    /// Take the ready memory op `w` out of the walk until flag lane
    /// `lane` sets at its slot.
    fn hold(&mut self, w: usize, lane: usize) {
        debug_assert!(
            self.unlinked(w),
            "holding station {w}, parked on a producer"
        );
        let (r, bit) = self.leave(w);
        r.held[lane] |= bit;
        self.held_count[lane] += 1;
        self.census.holds += 1;
    }

    /// The memory op `w` had its request accepted: out of the walk
    /// until its response arrives. It has issued, so it is resolved
    /// and clears only its own [`lane_of`].
    fn fly(&mut self, w: usize) {
        debug_assert!(
            self.unlinked(w) && !self.has(w, |r| r.blockers[RESOLVED_LANE]),
            "station {w} flies parked or unresolved"
        );
        let (r, bit) = self.leave(w);
        r.flying |= bit;
        self.census.flights += 1;
    }

    /// The response for the in-flight station `w` arrived: it completes
    /// this cycle.
    fn land(&mut self, w: usize) {
        let (r, bit) = self.slot(w);
        r.flying &= !bit;
        r.finishing |= bit;
        self.census.landings += 1;
    }

    /// Under memory renaming the walk has resolved store `b`. If the
    /// renaming lane was set at `b`'s slot, it is now set from the slot
    /// after `b` up to and including the lane's next blocker, which
    /// clears it only for younger stations: move that run's holds back
    /// into the walk, which reaches them later this cycle. `head` is
    /// the oldest occupied slot.
    fn resolve(&mut self, b: usize, lane_set: bool, head: usize) {
        let (r, bit) = self.slot(b);
        r.resolved |= bit;
        r.blockers[RESOLVED_LANE] &= !bit;
        if !lane_set || self.held_count[RESOLVED_LANE] == 0 {
            return;
        }
        // The slots after `b` in ring order, to the window's end.
        for (w, mask) in ring_run(self.n, b + 1, (head + self.n - b - 1) % self.n) {
            // The run ends at the next blocker, inclusive.
            let next = self.sets[w].blockers[RESOLVED_LANE] & mask;
            self.release(RESOLVED_LANE, w, mask & (next ^ next.wrapping_sub(1)));
            if next != 0 {
                break;
            }
        }
    }

    /// Move the holds on `lane` among the slots `mask` of word `w` back
    /// into the walk.
    fn release(&mut self, lane: usize, w: usize, mask: u64) {
        let bits = self.sets[w].held[lane] & mask;
        if bits == 0 {
            return;
        }
        debug_assert!(
            (0..64)
                .filter(|k| bits >> k & 1 == 1)
                .all(|k| self.unlinked(w * 64 + k)),
            "releasing a station parked on a producer"
        );
        let r = &mut self.sets[w];
        r.held[lane] &= !bits;
        r.active |= bits;
        r.parked &= !bits;
        self.held_count[lane] -= u64::from(bits.count_ones());
        self.census.releases += u64::from(bits.count_ones());
    }

    /// The start of a cycle, in one pass over the ring's words from
    /// `head`: the stations that finished last cycle leave `parked` and
    /// every lane's blockers, the woken ones rejoin the walk, and each
    /// hold on lanes 0–2 up to and including its lane's oldest blocker,
    /// where the lane is now set, rejoins it too. Returns each lane's
    /// drop slot, past which the lane is clear (its oldest blocker, and
    /// for the renaming lane its oldest parked one: the walk narrows that
    /// lane at the stores it visits), then the oldest unfinished slot.
    /// `usize::MAX` stands for none. Each word is read and merged once:
    /// the head word's slots below `head` are the ring's youngest, so
    /// their bits wait in a local and are searched last.
    fn sweep(&mut self, head: usize) -> [usize; 5] {
        let mut found = [usize::MAX; 5];
        let (hw, young) = (head / 64, (1u64 << (head % 64)) - 1);
        let mut head_bits = [0; 5];
        for w in (hw..self.sets.len()).chain(0..hw) {
            let r = &mut self.sets[w];
            let (fin, woken) = (r.finishing, r.woken);
            if fin | woken != 0 {
                r.finishing = 0;
                r.woken = 0;
                r.parked &= !(fin | woken);
                r.active |= woken;
                for b in &mut r.blockers {
                    *b &= !fin;
                }
            }
            let b = r.blockers;
            let bits = [b[0], b[1], b[2], r.parked & b[3], r.active | r.parked];
            let mask = if w == hw { !young } else { !0 };
            head_bits = if w == hw { bits } else { head_bits };
            self.search(w, mask, bits, &mut found);
        }
        self.search(hw, young, head_bits, &mut found);
        found
    }

    /// [`WakeLists::sweep`] over slots `mask` of word `w`, younger than
    /// every slot searched before: `found` records the first of each of
    /// `bits` and holds are released through their lane's first blocker.
    fn search(&mut self, w: usize, mask: u64, bits: [u64; 5], found: &mut [usize; 5]) {
        // An index loop: a zip/enumerate/filter form of this loop made
        // the whole engine about 5% slower on usbench's suite programs.
        for k in 0..5 {
            if found[k] != usize::MAX {
                continue;
            }
            let b = bits[k] & mask;
            if k < RESOLVED_LANE && self.held_count[k] > 0 {
                // The lane is set through its first blocker.
                self.release(k, w, mask & (b ^ b.wrapping_sub(1)));
            }
            if b != 0 {
                found[k] = w * 64 + b.trailing_zeros() as usize;
            }
        }
    }

    /// Drop the `count` slots from `from` in ring order from every set
    /// and list, one record at a time (a flush squashed them, or under
    /// renaming commit retired them: then only `resolved` still marks
    /// them). Any station parked on a squashed producer is younger than
    /// it, so squashed too: unlinking the squashed waiters empties the
    /// squashed producers' lists.
    fn vacate(&mut self, from: usize, count: usize) {
        for (w, mask) in ring_run(self.n, from, count) {
            let r = self.sets[w];
            let mut parked = r.parked & mask;
            while parked != 0 {
                let s = w * 64 + parked.trailing_zeros() as usize;
                parked &= parked - 1;
                if !self.unlinked(s) {
                    let [next, prev] = self.links[s];
                    self.links[prev as usize][0] = next;
                    self.links[next as usize][1] = prev;
                    self.links[s] = [s as u32; 2];
                    self.census.squashed_parks += 1;
                }
            }
            for (held, held_count) in r.held.iter().zip(&mut self.held_count) {
                let squashed = u64::from((held & mask).count_ones());
                *held_count -= squashed;
                self.census.squashed_holds += squashed;
            }
            self.census.squashed_flights += u64::from((r.flying & mask).count_ones());
            self.sets[w].clear(mask);
        }
    }

    /// Count the stations still out of the walk when a run ends.
    fn settle_census(&mut self) {
        let count = |set: &dyn Fn(&SetWord) -> u64| -> u64 {
            self.sets
                .iter()
                .map(|r| u64::from(set(r).count_ones()))
                .sum()
        };
        let held = (0..4).map(|k| count(&|r| r.held[k])).sum();
        debug_assert_eq!(held, self.held_count.iter().sum(), "hold count drifted");
        let (flying, passing) = (count(&|r| r.flying), count(&|r| r.woken | r.finishing));
        self.census.held_at_end = held;
        self.census.flying_at_end = flying;
        self.census.parked_at_end = count(&|r| r.parked) - held - flying - passing;
    }
}

/// The words of the `count` slots of an `n`-slot ring that follow slot
/// `from` (wrapping to slot 0), each as `(word, mask)`, in ring order.
///
/// # Panics
/// Panics if `from` or `count` exceeds `n`.
fn ring_run(n: usize, from: usize, count: usize) -> impl Iterator<Item = (usize, u64)> {
    assert!(from <= n && count <= n, "station slot out of range");
    let to = from + count;
    BitWords::range_masks(from, to.min(n)).chain(BitWords::range_masks(0, to.saturating_sub(n)))
}

/// A decode-time producer link: the station that held the nearest
/// preceding writer of a source register when the consumer entered the
/// window.
#[derive(Debug, Clone, Copy)]
struct Link {
    seq: u64,
    slot: usize,
}

/// One physical station: its occupant and the occupant's producer
/// links, aligned with `Instr::reads` (`None` where the operand is
/// absent or no in-window writer preceded it at refill).
#[derive(Debug, Clone)]
struct Station {
    e: StationEntry,
    src: [Option<Link>; 2],
}

/// Slot of the station `j` places younger than the one at `head`.
#[inline(always)]
fn ring_slot(head: usize, j: usize, n: usize) -> usize {
    let s = head + j;
    if s >= n {
        s - n
    } else {
        s
    }
}

/// The resolved value of one source operand.
enum Source {
    /// From an in-window producer (`dist` = seq distance).
    Forwarded {
        value: u32,
        ready: bool,
        /// First cycle at which the forwarded value is usable
        /// (producer completion plus forwarding latency), if the
        /// producer has a scheduled completion. Feeds the event-driven
        /// cycle skip: an unready source with a known `ready_at` is a
        /// future event the engine may jump to.
        ready_at: Option<u64>,
        dist: u64,
    },
    /// From the committed register file (always ready).
    Committed { value: u32 },
}

impl Source {
    fn ready(&self) -> bool {
        match self {
            Source::Forwarded { ready, .. } => *ready,
            Source::Committed { .. } => true,
        }
    }
    fn value(&self) -> u32 {
        match self {
            Source::Forwarded { value, .. } | Source::Committed { value } => *value,
        }
    }
}

/// Resolve operand `k` of the station in `slot` at cycle `t`: one probe
/// of its producer link. A producer whose `seq` is at or past the
/// oldest occupied station's (`front_seq`) is still in the window and
/// forwards; otherwise it has committed and the committed register
/// file holds its value.
#[inline(always)]
fn operand(
    ring: &[Station],
    slot: usize,
    k: usize,
    front_seq: u64,
    t: u64,
    fwd: ForwardModel,
    committed: &[u32],
) -> Option<Source> {
    let st = &ring[slot];
    let r = st.e.instr.reads()[k]?;
    Some(match st.src[k] {
        Some(p) if p.seq >= front_seq => {
            let w = &ring[p.slot].e;
            // `done + 1` first, then the saturating hop cost.
            let ready_at = w
                .completed_at
                .map(|done| (done + 1).saturating_add(fwd.extra(p.slot, slot)));
            Source::Forwarded {
                value: w.result.unwrap_or(0),
                ready: ready_at.is_some_and(|ra| ra <= t),
                ready_at,
                dist: st.e.seq - p.seq,
            }
        }
        _ => Source::Committed {
            value: committed[r.index()],
        },
    })
}

/// A resolved store's address and data, for the loads' forwarding
/// search under memory renaming.
#[derive(Debug, Clone, Copy)]
struct StoreInfo {
    addr: usize,
    value: u32,
}

/// One misprediction flush, as seen by the lane batcher: the committed
/// flusher's sequence number and the contiguous run of flushed
/// (wrong-path) entries it squashed, recorded oldest-first.
#[derive(Debug, Clone, Copy)]
pub struct FlushEvent {
    /// `seq` of the mispredicted branch that caused the flush.
    pub branch_seq: u64,
    /// Index of this event's first entry in [`ReplayLog::entries`].
    pub start: usize,
    /// Number of flushed entries (always ≥ 1; flushes that squash
    /// nothing leave no wrong-path trace and are not recorded).
    pub len: usize,
}

/// One squashed wrong-path station, with exactly the value-dependent
/// facts that shaped the schedule: the branch direction if it resolved
/// early enough to train the predictor, and the effective address if
/// the memory operation got far enough to compute one. Entries that
/// resolved neither provably left no timing trace (their consumers
/// never issued), so their values are don't-cares during replay.
#[derive(Debug, Clone, Copy)]
pub struct FlushedEntry {
    /// Dynamic sequence number of the squashed station.
    pub seq: u64,
    /// Static instruction index (`>= program.len()` marks a synthetic
    /// halt fetched past the end of the program).
    pub pc: usize,
    /// The squashed instruction.
    pub instr: Instr,
    /// `Some(direction)` iff the branch completed strictly before the
    /// flush cycle — exactly the condition under which Phase C trained
    /// the predictor on it.
    pub resolved_taken: Option<bool>,
    /// Effective address, if the load/store computed one.
    pub mem_addr: Option<usize>,
}

/// Wrong-path trace of a run: every misprediction flush with its
/// squashed entries, in flush order. Filled only by
/// [`Ultrascalar::run_logging_flushes`], the run the lane batcher
/// starts as a group leader (a flush pushes one entry per squashed
/// station, up to `n - 1`, into retained buffers), and consumed by its
/// epoch-segmented replay. Every other run leaves it empty. The log
/// holds at most [`MAX_LEADER_LOG`] entries: a run that would exceed
/// that stops logging, frees the buffers and reports the log
/// incomplete.
#[derive(Debug, Clone, Default)]
pub struct ReplayLog {
    /// Flush events, in flush (time) order.
    pub events: Vec<FlushEvent>,
    /// Flushed entries, grouped by event (see [`FlushEvent::start`]).
    pub entries: Vec<FlushedEntry>,
    /// Did the most recent run log every flush?
    complete: bool,
}

impl ReplayLog {
    fn clear(&mut self) {
        self.events.clear();
        self.entries.clear();
        self.complete = false;
    }

    /// Whether the most recent run logged every flush: it was asked to
    /// log and stayed within [`MAX_LEADER_LOG`] entries.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The entries squashed by one flush event.
    pub fn flushed(&self, ev: &FlushEvent) -> &[FlushedEntry] {
        &self.entries[ev.start..ev.start + ev.len]
    }

    fn push_entry(&mut self, e: &StationEntry, t_flush: u64) {
        self.entries.push(FlushedEntry {
            seq: e.seq,
            pc: e.pc,
            instr: e.instr,
            resolved_taken: e
                .taken
                .filter(|_| e.completed_at.is_some_and(|ct| ct < t_flush)),
            mem_addr: e.mem_addr,
        });
    }
}

/// The unified Ultrascalar processor model.
///
/// The engine retains its allocation-heavy working state — fetch unit
/// (with its predictor), memory system, station ring, rename table,
/// walk buffers — across runs. [`Processor::run_reusing`] rewinds all
/// of it in place, so a warm engine serving its second and later
/// requests for a same-shape program performs **zero** allocations
/// (the serve-mode probe pins this); [`Processor::run`] produces
/// identical results and merely pays for a fresh [`RunResult`].
/// Retention is invisible to results: the reuse-equivalence tests pin a
/// warm engine cycle-exact against a freshly constructed one.
#[derive(Debug)]
pub struct Ultrascalar {
    cfg: ProcConfig,
    scratch: EngineScratch,
}

/// Working state retained across runs. Everything here is rewound (not
/// rebuilt) at the top of each run.
#[derive(Debug, Default)]
struct EngineScratch {
    fetch: Option<FetchUnit>,
    mem: Option<MemSystem>,
    /// The `n` physical stations, indexed by slot.
    ring: Vec<Station>,
    /// Per architectural register, the youngest writer refill has
    /// placed in the window (possibly since committed — the operand
    /// probe tells).
    rename: Vec<Option<Link>>,
    /// The walk's station sets and waiter lists.
    wake: WakeLists,
    /// Program-order indices of the branches completing this cycle.
    resolving: Vec<usize>,
    /// Per slot, the address and value of the store there if
    /// [`WakeLists::resolved`] marks it (memory renaming only; searched
    /// only while every older store is resolved).
    stores: Vec<StoreInfo>,
    /// Memory requests offered to the arbiter this cycle.
    requests: Vec<MemRequest>,
    /// Wrong-path trace of the most recent run (see [`ReplayLog`]).
    replay: ReplayLog,
    alu_free_at: Vec<u64>,
    /// Caller-side buffers for [`MemSystem::tick_into`].
    accepted: Vec<MemRequest>,
    responses: Vec<MemResponse>,
}

impl Ultrascalar {
    /// Create a processor with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ProcConfig) -> Self {
        cfg.validate().expect("invalid processor configuration");
        Ultrascalar {
            cfg,
            scratch: EngineScratch::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ProcConfig {
        &self.cfg
    }

    /// The wrong-path trace of the most recent run: every misprediction
    /// flush with its squashed entries, in flush order. Empty unless
    /// that run was [`Ultrascalar::run_logging_flushes`].
    pub fn replay_log(&self) -> &ReplayLog {
        &self.scratch.replay
    }

    /// [`Processor::run_reusing`], also logging every misprediction
    /// flush into [`Ultrascalar::replay_log`] (up to
    /// [`MAX_LEADER_LOG`] entries). The lane batcher runs each group
    /// leader this way; the schedule and result are the same as an
    /// unlogged run's.
    pub fn run_logging_flushes(&mut self, program: &Program, out: &mut RunResult) {
        self.run_inner(program, out, true);
    }

    /// What the per-cycle walk did in the most recent run (all zero
    /// before the first).
    pub fn walk_census(&self) -> WalkCensus {
        self.scratch.wake.census
    }
}

impl Clone for Ultrascalar {
    /// Clones the configuration only: the clone starts cold, with no
    /// retained working state (warm buffers are an optimisation, never
    /// part of an engine's observable identity).
    fn clone(&self) -> Self {
        Ultrascalar::new(self.cfg.clone())
    }
}

impl Processor for Ultrascalar {
    fn name(&self) -> String {
        let n = self.cfg.window;
        let c = self.cfg.cluster;
        if c == 1 {
            format!("ultrascalar-i(n={n})")
        } else if c == n {
            format!("ultrascalar-ii(n={n})")
        } else {
            format!("hybrid(n={n},C={c})")
        }
    }

    fn run_reusing(&mut self, program: &Program, out: &mut RunResult) {
        self.run_inner(program, out, false);
    }
}

impl Ultrascalar {
    /// One run into `out`; `log_flushes` fills the replay log.
    fn run_inner(&mut self, program: &Program, out: &mut RunResult, mut log_flushes: bool) {
        program.validate().expect("program must validate");
        let n = self.cfg.window;
        let c = self.cfg.cluster;
        let lat = self.cfg.latency;
        let fwd = self.cfg.forward;
        let renaming = self.cfg.memory_renaming;
        let (predictor, words) = (self.cfg.predictor, self.cfg.mem.words);

        // Rewind the retained working state in place. The engine's
        // configuration is fixed at construction, so each component's
        // shape (predictor kind, memory config, ALU pool size, ring
        // size) never changes between runs — reset, not rebuild, except
        // on the very first run.
        let EngineScratch {
            fetch,
            mem,
            ring,
            rename,
            wake,
            resolving,
            stores,
            requests,
            replay,
            alu_free_at,
            accepted,
            responses,
        } = &mut self.scratch;
        replay.clear();
        match fetch {
            Some(f) => f.reset(program, words),
            None => *fetch = Some(FetchUnit::new(program, predictor, words)),
        }
        let fetch = fetch.as_mut().expect("fetch unit initialised above");
        match mem {
            Some(m) => m.reset(&program.init_mem),
            None => *mem = Some(MemSystem::new(self.cfg.mem.clone(), &program.init_mem)),
        }
        let mem = mem.as_mut().expect("memory system initialised above");
        if ring.len() != n {
            let vacant = Station {
                e: StationEntry::new(u64::MAX, 0, Instr::Nop, 0, 0),
                src: [None; 2],
            };
            *ring = vec![vacant; n];
            *stores = vec![StoreInfo { addr: 0, value: 0 }; n];
        }
        rename.clear();
        rename.resize(program.num_regs, None);
        wake.reset(n);
        resolving.clear();
        requests.clear();
        // The occupied run: `len` stations in program order from the
        // cluster-aligned slot `head`.
        let mut head: usize = 0;
        let mut len: usize = 0;
        let mut next_seq: u64 = 0;

        // The caller's result buffer is the working state: committed
        // registers, and timings when the caller asked for them,
        // accumulate directly into `out`, so finishing a run writes
        // nothing it would have to copy.
        let RunResult {
            halted: out_halted,
            cycles: out_cycles,
            regs: committed_regs,
            mem: out_mem,
            stats,
            timings,
        } = out;
        stats.reset();
        let mut timings = timings.as_mut();
        if let Some(t) = timings.as_mut() {
            t.clear();
        }
        committed_regs.clone_from(&program.init_regs);
        let mut halted = false;
        // Shared-ALU pool: first cycle each unit is free again.
        alu_free_at.clear();
        if let Some(pool) = self.cfg.alus {
            alu_free_at.resize(pool, 0u64);
        }
        // Refill: append fetched instructions at the tail — filling the
        // youngest partial cluster, then fresh ones — stations becoming
        // live at `visible_at`; at most `fetch_width` per cycle. Each
        // station links its sources to their producers here, once, and
        // parks on the first in-window one with no scheduled completion
        // instead of entering the walk.
        let fetch_budget = self.cfg.fetch_width.unwrap_or(n);
        let refill = |ring: &mut [Station],
                      rename: &mut [Option<Link>],
                      wake: &mut WakeLists,
                      head: usize,
                      len: &mut usize,
                      fetch: &mut FetchUnit,
                      next_seq: &mut u64,
                      visible_at: u64| {
            let mut budget = fetch_budget;
            while *len < n && budget > 0 {
                let Some(f) = fetch.next() else { return };
                budget -= 1;
                let seq = *next_seq;
                *next_seq += 1;
                let slot = ring_slot(head, *len, n);
                let reads = f.instr.reads();
                let src = [
                    reads[0].and_then(|r| rename[r.index()]),
                    reads[1].and_then(|r| rename[r.index()]),
                ];
                if let Some(rd) = f.instr.writes() {
                    rename[rd.index()] = Some(Link { seq, slot });
                }
                ring[slot] = Station {
                    e: StationEntry::new(seq, f.pc, f.instr, f.predicted_next, visible_at),
                    src,
                };
                *len += 1;
                let (r, bit) = wake.slot(slot);
                if let Some(k) = lane_of(&f.instr) {
                    r.blockers[k] |= bit;
                }
                if renaming && f.instr.is_store() {
                    r.blockers[RESOLVED_LANE] |= bit;
                }
                debug_assert!(
                    r.resolved & bit == 0,
                    "refilled slot {slot} is still marked resolved"
                );
                // A producer at or past the oldest station's `seq` is in
                // the window; an older one has committed (its slot may
                // hold a younger station by now).
                let front_seq = ring[head].e.seq;
                let unscheduled = src
                    .iter()
                    .flatten()
                    .find(|p| p.seq >= front_seq && ring[p.slot].e.completed_at.is_none());
                match unscheduled {
                    Some(p) => {
                        wake.park(slot, p.slot);
                        wake.census.refill_parks += 1;
                    }
                    _ => wake.slot(slot).0.active |= bit,
                }
            }
        };

        // Initial fill: the window starts filling at cycle 0.
        refill(ring, rename, wake, head, &mut len, fetch, &mut next_seq, 0);

        let mut t: u64 = 0;
        while t < self.cfg.max_cycles {
            if len == 0 && fetch.exhausted() {
                // Nothing in flight and nothing left to fetch.
                break;
            }
            let occupancy = len as u64;
            stats.occupancy_sum += occupancy;
            wake.census.cycles += 1;

            // Event-driven cycle skipping: while the cycle executes we
            // collect the earliest future event (a completion, a
            // forwarded operand becoming usable) and enough evidence to
            // decide afterwards whether the cycle was silent — i.e.
            // whether fast-forwarding to that event is observationally
            // exact.
            let mut next_completion = u64::MAX;
            let mut next_source_ready = u64::MAX;
            let mut completes_now = false;
            let alu_stalls_before = stats.alu_stalls;

            // ---- Phase A: the program-order walk over the active
            // stations; issue & collect memory requests. Prefix flags
            // mirror the CSPP circuits, computed on start-of-cycle
            // state.
            let mut flags: u64 = F_STORES_DONE | F_LOADS_DONE | F_BRANCHES_DONE | F_STORES_RESOLVED;
            let front_seq = ring[head].e.seq;
            let mut issued_now = 0usize;
            resolving.clear();
            requests.clear();
            let mut free_alus = alu_free_at.iter().filter(|&&f| f <= t).count();
            // Program-order position of an occupied slot.
            let at = |slot: usize| {
                if slot >= head {
                    slot - head
                } else {
                    slot + n - head
                }
            };
            // The start-of-cycle sweep. Leading stations finished
            // before this cycle are commit's input: the oldest station
            // in the walk or out of it bounds them. Past its lane's
            // drop every younger station sees a clear lane.
            let [d0, d1, d2, d3, first] = wake.sweep(head);
            let mut done_prefix = if first == usize::MAX { len } else { at(first) };
            let drops = [d0, d1, d2, d3].map(|d| if d == usize::MAX { d } else { at(d) });
            debug_assert!(
                (0..n).all(|s| {
                    let e = &ring[s].e;
                    let live = at(s) < len && !e.done_before(t);
                    let lane = lane_of(&e.instr).filter(|_| live);
                    (wake.has(s, |r| r.active) as u8 + wake.has(s, |r| r.parked) as u8
                        == live as u8)
                        && (0..RESOLVED_LANE).all(|k| {
                            wake.has(s, |r| r.blockers[k]) == (lane == Some(k))
                                && (!wake.has(s, |r| r.held[k]) || at(s) > drops[k])
                        })
                }) && {
                    // The sweep's positions by brute force, in program order.
                    let oldest = |f: &dyn Fn(usize) -> bool| {
                        let mut slots = (0..len).map(|j| ring_slot(head, j, n));
                        slots
                            .position(|s| !ring[s].e.done_before(t) && f(s))
                            .unwrap_or(usize::MAX)
                    };
                    let lane = |s: usize| lane_of(&ring[s].e.instr);
                    let unresolved = |s| {
                        renaming && lane(s) == Some(0) && !wake.has(s, |r| r.active | r.resolved)
                    };
                    oldest(&|_| true).min(len) == done_prefix
                        && (0..RESOLVED_LANE).all(|k| oldest(&|s| lane(s) == Some(k)) == drops[k])
                        && oldest(&unresolved) == drops[RESOLVED_LANE]
                },
                "the walk's sets or the sweep's positions disagree with the stations"
            );

            // Active slots in ring order from `head`: `[head, n)`, then
            // `[0, head)`. Each step re-reads the set, so a hold the
            // renaming lane releases is visited when the walk reaches it.
            let (mut cursor, mut end) = (head, n);
            loop {
                let Some(pos) = wake.next_in(|r| r.active, cursor, end) else {
                    if end == n && head > 0 {
                        (cursor, end) = (0, head);
                        continue;
                    }
                    break;
                };
                cursor = pos + 1;
                let j = at(pos);
                debug_assert!(j < len, "active slot {pos} is vacant");
                debug_assert!(
                    !wake.has(pos, |r| r.held.iter().fold(0, |a, h| a | h)),
                    "visiting slot {pos}, which is held"
                );
                debug_assert!(
                    ring[pos].e.mem != MemPhase::InFlight,
                    "visiting slot {pos}, which is in flight"
                );
                debug_assert!(
                    !wake.has(pos, |r| r.resolved) || renaming && ring[pos].e.instr.is_store(),
                    "slot {pos} is marked resolved but holds no store under renaming"
                );
                wake.census.visits += 1;
                for (k, &d) in drops.iter().enumerate() {
                    if j > d {
                        flags &= !(1 << k);
                    }
                }
                let entry = &ring[pos].e;
                debug_assert!(
                    t >= entry.fetched_at && !entry.done_before(t),
                    "visiting slot {pos}, which is not yet visible or finished"
                );
                let seq = entry.seq;
                let eligible = entry.issued_at.is_none();
                // A memory op may spend several cycles re-offering a
                // rejected request; record its forwardings only on
                // the first attempt.
                let first_attempt = entry.mem == MemPhase::None;
                if eligible {
                    let s0 = operand(ring, pos, 0, front_seq, t, fwd, committed_regs);
                    let s1 = operand(ring, pos, 1, front_seq, t, fwd, committed_regs);
                    let ready = s0.as_ref().is_none_or(Source::ready)
                        && s1.as_ref().is_none_or(Source::ready);
                    if ready {
                        let record_fw = |stats: &mut ProcStats, s: &Option<Source>| match s {
                            Some(Source::Forwarded { dist, .. }) => stats.record_forward(*dist),
                            Some(Source::Committed { .. }) => stats.regfile_reads += 1,
                            None => {}
                        };
                        let (v0, v1) = (
                            s0.as_ref().map_or(0, Source::value),
                            s1.as_ref().map_or(0, Source::value),
                        );
                        let e = &mut ring[pos].e;
                        let instr = e.instr;
                        let shared_alu = self.cfg.alus.is_some()
                            && matches!(instr, Instr::Alu { .. } | Instr::AluImm { .. });
                        match instr {
                            Instr::Load { offset, .. } => {
                                let addr = effective_addr(v0, offset, mem.words());
                                // Memory renaming: once every older
                                // store's address is known, either
                                // forward from the nearest match or go
                                // to memory immediately. Without it, a
                                // load waits for every older store.
                                let go = if renaming {
                                    flags & F_STORES_RESOLVED != 0
                                } else {
                                    flags & F_STORES_DONE != 0
                                };
                                let hit = (renaming && go)
                                    .then(|| forward_from(wake, stores, head, pos, addr))
                                    .flatten();
                                if !go {
                                    // Held until its lane sets here.
                                    let lane = if renaming { RESOLVED_LANE } else { 0 };
                                    wake.hold(pos, lane);
                                } else if let Some(s) = hit {
                                    e.issued_at = Some(t);
                                    e.completed_at = Some(t);
                                    e.result = Some(s.value);
                                    e.mem_addr = Some(addr);
                                    stats.store_forwards += 1;
                                    record_fw(stats, &s0);
                                } else if go {
                                    requests.push(MemRequest {
                                        id: seq,
                                        leaf: pos,
                                        addr,
                                        kind: ReqKind::Load,
                                    });
                                    e.mem = MemPhase::Requesting;
                                    e.mem_addr = Some(addr);
                                    wake.census.requests += 1;
                                    if first_attempt {
                                        record_fw(stats, &s0);
                                    }
                                }
                            }
                            Instr::Store { offset, .. } => {
                                let addr = effective_addr(v0, offset, mem.words());
                                if wake.has(pos, |r| r.blockers[RESOLVED_LANE]) {
                                    // Memory renaming: the store resolves
                                    // on this first ready visit, for good.
                                    // Its address shapes the schedule
                                    // (younger loads forward from it) even
                                    // if it never issues — wrong-path
                                    // stores never do — so the flush
                                    // replay log needs it.
                                    stores[pos] = StoreInfo { addr, value: v1 };
                                    wake.resolve(pos, flags & F_STORES_RESOLVED != 0, head);
                                    e.mem_addr = Some(addr);
                                }
                                if flags & F_STORE_ISSUE == F_STORE_ISSUE {
                                    requests.push(MemRequest {
                                        id: seq,
                                        leaf: pos,
                                        addr,
                                        kind: ReqKind::Store(v1),
                                    });
                                    e.mem = MemPhase::Requesting;
                                    e.mem_addr = Some(addr);
                                    wake.census.requests += 1;
                                    if first_attempt {
                                        record_fw(stats, &s0);
                                        record_fw(stats, &s1);
                                    }
                                } else {
                                    // Held until the first clear lane of
                                    // the three sets here.
                                    let lane = (!flags & F_STORE_ISSUE).trailing_zeros();
                                    wake.hold(pos, lane as usize);
                                }
                            }
                            _ if shared_alu && free_alus == 0 => {
                                stats.alu_stalls += 1;
                                wake.census.alu_stalls += 1;
                            }
                            _ => {
                                // Every other instruction issues in one
                                // step: its result or branch direction,
                                // complete `lat.of` cycles on (a jump,
                                // nop or halt within this cycle), and a
                                // shared ALU held through completion.
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
                                e.issued_at = Some(t);
                                e.completed_at = Some(done_at);
                                e.result = result;
                                e.taken = taken;
                                record_fw(stats, &s0);
                                record_fw(stats, &s1);
                                if shared_alu {
                                    free_alus -= 1;
                                    let unit = alu_free_at
                                        .iter_mut()
                                        .find(|f| **f <= t)
                                        .expect("a free ALU was counted");
                                    *unit = done_at + 1;
                                }
                            }
                        }
                        // An eligible station had no completion, so one
                        // set here was scheduled just now: wake its
                        // waiters (none unless it writes a register).
                        if ring[pos].e.completed_at.is_some() {
                            wake.wake(pos);
                        }
                    } else {
                        // Blocked on operands. Each pending forwarded
                        // source whose producer already has a scheduled
                        // completion becomes usable at a known future
                        // cycle — a wake-up event for the cycle skip.
                        // (Sources whose producers have not even issued
                        // are covered transitively: the oldest blocked
                        // entry in the window always reduces to an
                        // issued producer or an in-flight memory op.)
                        next_source_ready = next_source_ready.min(wake_up(&s0, &s1, t));
                        // Blocked on a producer that has not scheduled
                        // its completion: park on it until it does.
                        let unscheduled = |s: &&Option<Source>| {
                            matches!(s, Some(Source::Forwarded { ready_at: None, .. }))
                        };
                        if let Some(k) = [&s0, &s1].iter().position(unscheduled) {
                            let p = ring[pos].src[k].expect("a forwarded operand is linked");
                            wake.park(pos, p.slot);
                            wake.census.walk_parks += 1;
                        } else {
                            wake.census.operand_waits += 1;
                        }
                    }
                } else {
                    wake.census.executing += 1;
                }

                // A station completing this cycle leaves the walk. The
                // sweep already counted every visited station unfinished
                // in the done prefix and its lane; an unresolved store
                // under renaming also clears the renaming lane.
                let entry = &ring[pos].e;
                if entry.issued_at == Some(t) {
                    issued_now += 1;
                }
                match entry.completed_at {
                    Some(ct) if ct > t => next_completion = next_completion.min(ct),
                    Some(ct) if ct == t => {
                        completes_now = true;
                        if entry.instr.is_branch() {
                            resolving.push(j);
                        }
                        let (r, bit) = wake.leave(pos);
                        r.finishing |= bit;
                    }
                    _ => {}
                }
                if renaming && wake.has(pos, |r| r.blockers[RESOLVED_LANE]) {
                    flags &= !F_STORES_RESOLVED;
                }
            }

            // ---- Phase B: memory arbitration and responses, through
            // the retained accept/response buffers (the memory system
            // clears them first) — no per-cycle allocation.
            let offered_requests = !requests.is_empty();
            mem.tick_into(t, requests, accepted, responses);
            let had_responses = !responses.is_empty();
            // Every request names its station's slot as its leaf. An
            // acceptance is for a request offered in this cycle's walk,
            // whose station is still in place; a response may find its
            // slot vacated or refilled by a flush since it flew, so it
            // lands only on an occupied slot that still holds its seq
            // (seqs are never reused).
            for req in accepted.iter() {
                let s = req.leaf;
                debug_assert!(
                    at(s) < len && ring[s].e.seq == req.id,
                    "accepted slot {s} moved"
                );
                let e = &mut ring[s].e;
                e.issued_at = Some(t);
                e.mem = MemPhase::InFlight;
                issued_now += 1;
                wake.fly(s);
            }
            for resp in responses.iter() {
                let s = resp.leaf;
                let e = &mut ring[s].e;
                if at(s) < len && e.seq == resp.id && e.mem == MemPhase::InFlight {
                    e.completed_at = Some(t);
                    e.result = resp.value;
                    e.mem = MemPhase::None;
                    wake.land(s);
                    wake.wake(s);
                }
            }

            // Issue-rate histogram: stations that began execution (or
            // had a memory request accepted) this cycle.
            stats.record_issue_count(issued_now);
            wake.census.issues += issued_now as u64;

            // ---- Phase C: branch resolution, training and the paper's
            // one-cycle misprediction recovery, over this cycle's
            // completing branches in program order.
            for &j in resolving.iter() {
                let e = &ring[ring_slot(head, j, n)].e;
                fetch.train(e.pc, e.taken.unwrap_or(false));
                if !e.mispredicted() {
                    continue;
                }
                let correct = e.resolved_next().expect("a completed branch has resolved");
                let flusher_seq = e.seq;
                // Log the wrong-path suffix before it is squashed, or
                // stop logging if it would overflow the log.
                let start = replay.entries.len();
                if log_flushes && start + (len - (j + 1)) > MAX_LEADER_LOG {
                    log_flushes = false;
                    *replay = ReplayLog::default();
                } else if log_flushes && j + 1 < len {
                    for k in j + 1..len {
                        replay.push_entry(&ring[ring_slot(head, k, n)].e, t);
                    }
                    replay.events.push(FlushEvent {
                        branch_seq: flusher_seq,
                        start,
                        len: len - (j + 1),
                    });
                }
                // Flush everything younger; refill reuses the flushed
                // slots (hardware overwrites the squashed stations in
                // place).
                stats.flushed += (len - (j + 1)) as u64;
                wake.vacate(ring_slot(head, j + 1, n), len - (j + 1));
                len = j + 1;
                done_prefix = done_prefix.min(len);
                // Roll the rename table back to the surviving window.
                rename.fill(None);
                for k in 0..len {
                    let slot = ring_slot(head, k, n);
                    let e = &ring[slot].e;
                    if let Some(rd) = e.instr.writes() {
                        rename[rd.index()] = Some(Link { seq: e.seq, slot });
                    }
                }
                fetch.redirect(correct);
                break;
            }

            // ---- Phase D: in-order commit at cluster granularity
            // (the oldest-station CSPP, evaluated on start-of-cycle
            // state): the oldest cluster retires once it is complete
            // and inside the done prefix.
            let mut committed_any = false;
            while len > 0 {
                let cl_len = len.min(c);
                let complete_cluster = cl_len == c || fetch.exhausted();
                if !(complete_cluster && done_prefix >= cl_len) {
                    break;
                }
                committed_any = true;
                // `head` is cluster-aligned and `C` divides `n`, so a
                // cluster never wraps.
                for slot in head..head + cl_len {
                    let e = &ring[slot].e;
                    if !e.is_synthetic(program.len()) {
                        stats.committed += 1;
                        if let Some(timings) = timings.as_mut() {
                            timings.push(InstrTiming {
                                seq: e.seq,
                                pc: e.pc,
                                instr: e.instr,
                                fetched: e.fetched_at,
                                issue: e.issued_at.expect("committed ⇒ issued"),
                                complete: e.completed_at.expect("committed ⇒ completed"),
                                slot,
                            });
                        }
                        if e.instr.is_branch() {
                            stats.branches += 1;
                            if e.mispredicted() {
                                stats.mispredictions += 1;
                            }
                        }
                        if let Some(rd) = e.instr.writes() {
                            committed_regs[rd.index()] =
                                e.result.expect("writer committed with result");
                        }
                    }
                    if matches!(e.instr, Instr::Halt) {
                        halted = true;
                    }
                }
                // The sweep let every retiring station go.
                debug_assert!(
                    wake.next_in(
                        |r| r.active | r.parked | r.blockers.iter().fold(0, |a, b| a | b),
                        head,
                        head + cl_len
                    )
                    .is_none(),
                    "a retiring cluster is still visited, parked or blocking a lane"
                );
                if renaming {
                    wake.vacate(head, cl_len);
                }
                head = ring_slot(head, c, n);
                len -= cl_len;
                done_prefix -= cl_len;
                if halted {
                    break;
                }
            }
            if halted {
                t += 1;
                break;
            }

            // ---- Phase E: refill freed stations, live next cycle.
            let seq_before_refill = next_seq;
            refill(
                ring,
                rename,
                wake,
                head,
                &mut len,
                fetch,
                &mut next_seq,
                t + 1,
            );
            let refilled = next_seq != seq_before_refill;

            // ---- Cycle skip: if this cycle was provably silent —
            // nothing issued or stalled on an ALU, no memory traffic in
            // either direction, no completion, no commit and no refill
            // — then every cycle up to the next scheduled event is an
            // identical no-op: the walk re-derives the same blocked
            // state (operand readiness and prefix flags depend only on
            // completion times, all in the future), commit and refill
            // stay ineligible, and a memory tick with no request before
            // its next due response returns at once, so skipping it is
            // free. Jump straight to the event, accounting the skipped
            // span in closed form.
            let silent = issued_now == 0
                && !offered_requests
                && !had_responses
                && !completes_now
                && !committed_any
                && !refilled
                && stats.alu_stalls == alu_stalls_before;
            if self.cfg.cycle_skip && silent {
                let mut event = next_completion.min(next_source_ready);
                if let Some(m) = mem.next_completion_at() {
                    event = event.min(m);
                }
                // No event at all (a genuinely wedged machine) spins to
                // the deadlock guard exactly like the naive loop.
                let target = event.min(self.cfg.max_cycles).max(t + 1);
                let skipped = target - (t + 1);
                if skipped > 0 {
                    stats.occupancy_sum += skipped * occupancy;
                    stats.record_idle_cycles(skipped);
                    t = target - 1;
                }
            }

            t += 1;
        }

        wake.settle_census();
        stats.cycles = t;
        stats.mem = mem.stats();
        // Commit retires in program order, so the record is already
        // sorted by `seq`.
        debug_assert!(timings
            .as_ref()
            .is_none_or(|t| t.windows(2).all(|w| w[0].seq < w[1].seq)));
        replay.complete = log_flushes;
        // Sparse: copies only the pages either image marks as written.
        out_mem.clone_from(mem.image());
        *out_cycles = t;
        *out_halted = halted;
    }
}

/// The youngest resolved store to `addr` older than the load in slot
/// `pos`: a search of the marked slots in ring order `[head, pos)`,
/// youngest first. Kept out of line: only loads under renaming search,
/// and inlined into the walk it slowed the walk of every configuration.
#[inline(never)]
fn forward_from(
    wake: &WakeLists,
    stores: &[StoreInfo],
    head: usize,
    pos: usize,
    addr: usize,
) -> Option<StoreInfo> {
    let search = |from: usize, mut to: usize| {
        while let Some(s) = wake.prev_in(|r| r.resolved, from, to) {
            if stores[s].addr == addr {
                return Some(stores[s]);
            }
            to = s;
        }
        None
    };
    if pos >= head {
        search(head, pos)
    } else {
        search(0, pos).or_else(|| search(head, wake.n))
    }
}

/// The earliest future cycle at which a blocked station's pending
/// forwarded operands become usable (`u64::MAX` if none has a scheduled
/// producer completion).
fn wake_up(s0: &Option<Source>, s1: &Option<Source>, t: u64) -> u64 {
    let mut at = u64::MAX;
    for s in [s0, s1] {
        if let Some(Source::Forwarded {
            ready: false,
            ready_at: Some(ra),
            ..
        }) = s
        {
            if *ra > t {
                at = at.min(*ra);
            }
        }
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A 130-slot window: three words, the last one partial.
    const N: usize = 130;

    /// Case `i`'s lists: each station parked on a random producer, held
    /// on a random lane or neither, and in each other set with a
    /// density that varies by case; the slots `vacant` picks left out.
    fn lists(i: u64, vacant: impl Fn(usize) -> bool) -> WakeLists {
        let rng = &mut rand::case_rng(0x5E7_0001, i);
        let density = [0.5, 0.1, 0.02][i as usize % 3];
        let mut wl = WakeLists::default();
        wl.reset(N);
        for s in 0..N {
            let (op, p) = (rng.gen_range(0..3), rng.gen_range(0..N));
            let bits: Vec<u64> = (0..9).map(|_| u64::from(rng.gen_bool(density))).collect();
            match op {
                _ if vacant(s) => continue,
                0 => wl.park(s, p),
                1 => wl.hold(s, p % 4),
                _ => {}
            }
            let (r, bit) = wl.slot(s);
            let sets = [&mut r.active, &mut r.woken, &mut r.finishing];
            for (set, b) in sets.into_iter().chain(&mut r.blockers).zip(&bits) {
                *set |= bit * b;
            }
            r.flying |= bit * bits[7];
            r.resolved |= bit * bits[8];
        }
        wl
    }

    #[test]
    fn scans_match_a_brute_force_scan() {
        for i in 0..12 {
            let wl = lists(i, |_| false);
            for from in 0..=N {
                for to in from..=N {
                    let next = (from..to).find(|&s| wl.has(s, |r| r.active));
                    let prev = (from..to).rev().find(|&s| wl.has(s, |r| r.resolved));
                    let got = wl.next_in(|r| r.active, from, to);
                    assert_eq!(got, next, "case {i}: next {from}..{to}");
                    let got = wl.prev_in(|r| r.resolved, from, to);
                    assert_eq!(got, prev, "case {i}: prev {from}..{to}");
                }
            }
        }
    }

    /// Vacating a ring run leaves the records and links of the same
    /// lists built without those slots: every field of every touched
    /// record cleared, every vacated waiter unlinked and its list
    /// closed around it. The hold counts match the held bits.
    #[test]
    fn vacate_clears_every_field_and_unlinks_its_waiters() {
        rand::cases(0x5E7_0002, 64, |rng, i| {
            // At least 65 slots: the run crosses a word boundary.
            let (from, count) = (rng.gen_range(0..N), rng.gen_range(65..=N));
            let mut wl = lists(i, |_| false);
            wl.vacate(from, count);
            let want = lists(i, |s| (s + N - from) % N < count);
            assert_eq!(wl.sets, want.sets, "records, {count} from {from}");
            assert_eq!(wl.links, want.links, "waiter links, {count} from {from}");
            for k in 0..4 {
                let held: u32 = wl.sets.iter().map(|r| r.held[k].count_ones()).sum();
                assert_eq!(wl.held_count[k], u64::from(held), "lane {k}'s hold count");
            }
        });
    }
}
