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
//! # One cycle
//!
//! A run's state lives in one `RunState`, built on an engine's first
//! run and rewound on later ones. Each cycle calls its phase methods in
//! DESIGN §5's order:
//!
//! 1. `sweep`: last cycle's completions and wakes take effect;
//! 2. `walk`: the program-order walk over the active stations, where
//!    `visit` issues a ready station, offers its memory request, or
//!    holds, parks or leaves it waiting; the first ready load or store
//!    finds each lane's drop position;
//! 3. `memory`: the arbiter accepts requests and responses land;
//! 4. `resolve`: the done prefix is found, completing branches train
//!    the predictor, and the oldest mispredicted one flushes every
//!    younger station;
//! 5. `commit`: the oldest clusters retire, once complete and done;
//! 6. `refill`: fetched instructions fill the freed stations, live
//!    from the next cycle;
//! 7. `skip`: after a silent cycle, jump to the next scheduled event.
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
//! Each cycle one program-order walk issues, reads the all-earlier AND
//! flags ("all earlier stores / loads / branches done, store addresses
//! resolved") and collects the branches completing this cycle (the only
//! stations branch resolution visits). It visits only the members of an
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
//! one sweep over the ring's words: finishing stations leave `parked`
//! and every lane's *blockers* (below), woken ones rejoin the walk, and
//! so do holds whose lane has set. The positions the circuits' parallel
//! prefix (Figure 5) derives from start-of-cycle state are found where
//! they are read, and are the same there (`RunState::drops`,
//! `RunState::done_prefix`): each lane's drop at the walk's first ready
//! load or store, and the done prefix commit retires from after `memory`.
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
//! finished ones. A lane's blockers are its unfinished loads, branches
//! or stores (set at refill, cleared by the sweep), and under renaming
//! the unresolved stores. A lane is set at a slot exactly while no
//! older blocker remains, so each of lanes 0–2 is set through its
//! oldest blocker. That blocker moves only when a blocker finishes, and
//! only then does the sweep release the lane's holds through the new
//! one. A held, in-flight or finishing store has resolved, so the
//! renaming lane is clear past the oldest store in
//! `parked ∩ blockers[3]` (every parked station is unfinished) and
//! past each store the walk leaves unresolved. A store resolves on its
//! first ready visit; if the lane was set there, the walk releases the
//! holds through the lane's next blocker and reaches them later in the
//! same walk. A load is held at most once and a store at most three times
//! (once per lane), and every visit has exactly one outcome, which
//! [`WalkCensus`] lets tests check.
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

use crate::config::ProcConfig;
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
// AND networks (Figure 5, plus the renaming variant), each clear past
// its drop position. Lane `k` is bit `k`; a load, branch or store
// clears lane [`lane_of`] while unfinished.
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
/// the outcome of each visit, every way a station left or re-entered
/// it, and every way a station entered or left the window. Counted only
/// when [`Ultrascalar::count_walk`] asks, in the engine's retained run
/// state and never in [`RunResult`]; see [`Ultrascalar::walk_census`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCensus {
    /// Cycles the engine executed; spans cycle skip jumped are not
    /// counted.
    pub cycles: u64,
    /// Stations the walk visited, summed over the executed cycles.
    pub visits: u64,
    /// Executed cycles whose walk found the lane drop positions: it
    /// reached a ready load or store, the only stations that read the
    /// all-earlier flags.
    pub flag_scans: u64,
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
    /// Stations refill placed in the window.
    pub refills: u64,
    /// Stations commit retired, counting the synthetic halt that
    /// [`ProcStats::committed`] leaves out.
    pub retired: u64,
    /// Stations still in the window when the run ended. Each placed
    /// station retired, was flushed ([`ProcStats::flushed`]) or is
    /// resident.
    pub resident_at_end: u64,
}

impl WalkCensus {
    /// Apply `f` in a counted run (`C`); an uncounted one compiles it out.
    #[inline(always)]
    fn count<const C: bool>(&mut self, f: impl FnOnce(&mut Self)) {
        if C {
            f(self);
        }
    }
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
    /// [`RunState::stores`] hold their address and value.
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

    /// Put station `w` on producer slot `p`'s waiter list: parked until
    /// `p` schedules its completion, once out of the walk.
    fn link(&mut self, w: usize, p: usize) {
        let h = self.n + p;
        let first = self.links[h][0];
        self.links[w] = [first, h as u32];
        self.links[first as usize][1] = w as u32;
        self.links[h][0] = w as u32;
    }

    /// Producer slot `p` has scheduled its completion: mark every
    /// station parked on it woken. Its operand is usable no earlier
    /// than the next cycle, so the station rejoins the walk then.
    #[inline]
    fn wake<const C: bool>(&mut self, p: usize) {
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
            self.census.count::<C>(|c| c.wakes += 1);
            w = after;
        }
        self.links[h] = [h as u32; 2];
    }

    /// Take the ready memory op `w` out of the walk until flag lane
    /// `lane` sets at its slot.
    fn hold<const C: bool>(&mut self, w: usize, lane: usize) {
        debug_assert!(
            self.unlinked(w),
            "holding station {w}, parked on a producer"
        );
        let (r, bit) = self.leave(w);
        r.held[lane] |= bit;
        self.held_count[lane] += 1;
        self.census.count::<C>(|c| c.holds += 1);
    }

    /// The memory op `w` had its request accepted: out of the walk
    /// until its response arrives. It has issued, so it is resolved
    /// and clears only its own [`lane_of`].
    fn fly<const C: bool>(&mut self, w: usize) {
        debug_assert!(
            self.unlinked(w) && !self.has(w, |r| r.blockers[RESOLVED_LANE]),
            "station {w} flies parked or unresolved"
        );
        let (r, bit) = self.leave(w);
        r.flying |= bit;
        self.census.count::<C>(|c| c.flights += 1);
    }

    /// The response for the in-flight station `w` arrived: it completes
    /// this cycle.
    fn land<const C: bool>(&mut self, w: usize) {
        let (r, bit) = self.slot(w);
        r.flying &= !bit;
        r.finishing |= bit;
        self.census.count::<C>(|c| c.landings += 1);
    }

    /// Under memory renaming the walk has resolved store `b`. If the
    /// renaming lane was set at `b`'s slot, it is now set from the slot
    /// after `b` up to and including the lane's next blocker, which
    /// clears it only for younger stations: move that run's holds back
    /// into the walk, which reaches them later this cycle. `head` is
    /// the oldest occupied slot.
    fn resolve<const C: bool>(&mut self, b: usize, lane_set: bool, head: usize) {
        let (r, bit) = self.slot(b);
        r.resolved |= bit;
        r.blockers[RESOLVED_LANE] &= !bit;
        if lane_set && self.held_count[RESOLVED_LANE] > 0 {
            // The slots after `b` in ring order, to the window's end.
            let count = ring_slot(head, self.n - b - 1, self.n);
            self.release_through::<C>(RESOLVED_LANE, b + 1, count);
        }
    }

    /// Move the holds on `lane` among the `count` slots from `from`, in
    /// ring order, up to and including the lane's first blocker there,
    /// back into the walk.
    fn release_through<const C: bool>(&mut self, lane: usize, from: usize, count: usize) {
        for (w, mask) in ring_run(self.n, from, count) {
            let next = self.sets[w].blockers[lane] & mask;
            self.release::<C>(lane, w, mask & (next ^ next.wrapping_sub(1)));
            if next != 0 {
                break;
            }
        }
    }

    /// Move the holds on `lane` among the slots `mask` of word `w` back
    /// into the walk.
    fn release<const C: bool>(&mut self, lane: usize, w: usize, mask: u64) {
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
        self.census
            .count::<C>(|c| c.releases += u64::from(bits.count_ones()));
    }

    /// The start of a cycle: the stations that finished last cycle leave
    /// `parked` and every lane's blockers, and the woken ones rejoin the
    /// walk, one record at a time. A lane's oldest blocker moves only
    /// when one of its blockers finishes, so only then does each of
    /// lanes 0–2 release its holds through its new oldest blocker, in
    /// ring order from `head`, the oldest occupied slot.
    fn sweep<const C: bool>(&mut self, head: usize) {
        let mut lost = [0; 4];
        for r in &mut self.sets {
            let (fin, woken) = (r.finishing, r.woken);
            if fin | woken != 0 {
                r.finishing = 0;
                r.woken = 0;
                r.parked &= !(fin | woken);
                r.active |= woken;
                for (b, lost) in r.blockers.iter_mut().zip(&mut lost) {
                    *lost |= *b & fin;
                    *b &= !fin;
                }
            }
        }
        for k in 0..RESOLVED_LANE {
            if lost[k] != 0 && self.held_count[k] > 0 {
                self.release_through::<C>(k, head, self.n);
            }
        }
    }

    /// Drop the `count` slots from `from` in ring order from every set
    /// and list, one record at a time (a flush squashed them, or under
    /// renaming commit retired them: then only `resolved` still marks
    /// them). Any station parked on a squashed producer is younger than
    /// it, so squashed too: unlinking the squashed waiters empties the
    /// squashed producers' lists.
    fn vacate<const C: bool>(&mut self, from: usize, count: usize) {
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
                    self.census.count::<C>(|c| c.squashed_parks += 1);
                }
            }
            for (held, held_count) in r.held.iter().zip(&mut self.held_count) {
                let squashed = u64::from((held & mask).count_ones());
                *held_count -= squashed;
                self.census.count::<C>(|c| c.squashed_holds += squashed);
            }
            let flying = u64::from((r.flying & mask).count_ones());
            self.census.count::<C>(|c| c.squashed_flights += flying);
            self.sets[w].clear(mask);
        }
    }

    /// Count the stations still out of the walk when a counted run ends.
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

/// One resolved source operand: its value, the first cycle it is
/// usable and, if an in-window producer forwards it, the `seq` distance
/// to that producer. A committed-register read is usable at once
/// (`ready_at` 0); a forwarded value from its producer's completion
/// plus the forwarding latency, or never known (`None`) while the
/// producer has no scheduled completion. A known `ready_at` still
/// ahead is an event the cycle skip may jump to.
#[derive(Clone, Copy)]
struct Source {
    value: u32,
    ready_at: Option<u64>,
    dist: Option<u64>,
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
    /// flush cycle — exactly the condition under which `resolve` trained
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
/// walk buffers — across runs: the first run builds it and every later
/// one rewinds it in place, so a warm engine serving its second and
/// later requests for a same-shape program performs **zero**
/// allocations (the serve-mode probe pins this); [`Processor::run`]
/// produces identical results and merely pays for a fresh
/// [`RunResult`]. Retention is invisible to results: the
/// reuse-equivalence tests pin a warm engine cycle-exact against a
/// freshly constructed one.
#[derive(Debug)]
pub struct Ultrascalar {
    cfg: ProcConfig,
    state: Option<RunState>,
    /// Do runs count the walk census?
    count_walk: bool,
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
            state: None,
            count_walk: false,
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
        static EMPTY: ReplayLog = ReplayLog {
            events: Vec::new(),
            entries: Vec::new(),
            complete: false,
        };
        self.state.as_ref().map_or(&EMPTY, |s| &s.replay)
    }

    /// [`Processor::run_reusing`], also logging every misprediction
    /// flush into [`Ultrascalar::replay_log`] (up to
    /// [`MAX_LEADER_LOG`] entries). The lane batcher runs each group
    /// leader this way; the schedule and result are the same as an
    /// unlogged run's.
    pub fn run_logging_flushes(&mut self, program: &Program, out: &mut RunResult) {
        self.run_with(program, out, true);
    }

    /// Count the walk census in this engine's later runs, or not (the
    /// default): the results are the same, and uncounted runs are faster.
    pub fn count_walk(&mut self, on: bool) {
        self.count_walk = on;
    }

    /// What the per-cycle walk did in the most recent counted run (all
    /// zero before the first); see [`Ultrascalar::count_walk`].
    pub fn walk_census(&self) -> WalkCensus {
        self.state
            .as_ref()
            .map_or_else(WalkCensus::default, |s| s.wake.census)
    }

    /// One run into `out`; `log_flushes` fills the replay log.
    fn run_with(&mut self, program: &Program, out: &mut RunResult, log_flushes: bool) {
        program.validate().expect("program must validate");
        if let Some(state) = &mut self.state {
            state.fetch.reset(program, self.cfg.mem.words);
            state.mem.reset(&program.init_mem);
        }
        let state = self
            .state
            .get_or_insert_with(|| RunState::new(&self.cfg, program));
        state.rewind(program, out, log_flushes);
        if self.count_walk {
            state.execute::<true>(program, out);
        } else {
            state.execute::<false>(program, out);
        }
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
        self.run_with(program, out, false);
    }
}

/// Everything that outlives one cycle of a run (see "One cycle" in the
/// module docs). The committed register file, statistics and timings
/// accumulate directly in the caller's [`RunResult`], so finishing a
/// run writes nothing it would have to copy.
#[derive(Debug)]
struct RunState {
    cfg: ProcConfig,
    fetch: FetchUnit,
    mem: MemSystem,
    /// The `n` physical stations, indexed by slot.
    ring: Vec<Station>,
    /// The occupied run: `len` stations in program order from the
    /// cluster-aligned slot `head`.
    head: usize,
    len: usize,
    /// The `seq` refill gives its next station.
    next_seq: u64,
    /// Per architectural register, the youngest writer refill has
    /// placed in the window (possibly since committed — the operand
    /// probe tells).
    rename: Vec<Option<Link>>,
    /// The walk's station sets and waiter lists.
    wake: WakeLists,
    /// Per slot, the address and value of the store there if
    /// [`SetWord::resolved`] marks it (memory renaming only; searched
    /// only while every older store is resolved).
    stores: Vec<StoreInfo>,
    /// Memory requests offered to the arbiter this cycle, and the
    /// caller-side buffers for [`MemSystem::tick_into`].
    requests: Vec<MemRequest>,
    accepted: Vec<MemRequest>,
    responses: Vec<MemResponse>,
    /// Program-order positions of the branches completing this cycle.
    resolving: Vec<usize>,
    /// Shared-ALU pool: first cycle each unit is free again.
    alu_free_at: Vec<u64>,
    /// Wrong-path trace of the most recent run (see [`ReplayLog`]), and
    /// whether this run still logs into it.
    replay: ReplayLog,
    log_flushes: bool,
}

/// What the walk did in one cycle, as far as the cycle skip needs.
struct Walked {
    /// Stations that began execution.
    issued: usize,
    /// Did a visited station complete this cycle?
    completed: bool,
    /// Did a ready ALU op find every shared ALU busy?
    stalled: bool,
    /// The earliest later cycle at which a visited station completes or
    /// a blocked one's operand becomes usable (`u64::MAX` for none).
    next_event: u64,
    /// The lane drop positions, found at the first ready load or store.
    drops: Option<[usize; 4]>,
    /// The oldest unresolved store the walk visited (`usize::MAX` for
    /// none), past which the renaming lane is clear too.
    unresolved: usize,
}

/// One cycle's memory traffic, as far as the cycle skip needs.
struct Traffic {
    offered: bool,
    /// Requests accepted: their stations issued.
    accepted: usize,
    responded: bool,
}

impl RunState {
    /// The state for runs under `cfg`, with `program`'s fetch unit and
    /// memory loaded.
    fn new(cfg: &ProcConfig, program: &Program) -> Self {
        let vacant = Station {
            e: StationEntry::new(u64::MAX, 0, Instr::Nop, 0, 0),
            src: [None; 2],
        };
        RunState {
            cfg: cfg.clone(),
            fetch: FetchUnit::new(program, cfg.predictor, cfg.mem.words),
            mem: MemSystem::new(cfg.mem.clone(), &program.init_mem),
            ring: vec![vacant; cfg.window],
            head: 0,
            len: 0,
            next_seq: 0,
            rename: Vec::new(),
            wake: WakeLists::default(),
            stores: vec![StoreInfo { addr: 0, value: 0 }; cfg.window],
            requests: Vec::new(),
            accepted: Vec::new(),
            responses: Vec::new(),
            resolving: Vec::new(),
            alu_free_at: vec![0; cfg.alus.unwrap_or(0)],
            replay: ReplayLog::default(),
            log_flushes: false,
        }
    }

    /// Rewind everything but the fetch unit and memory system for a run
    /// of `program` into `out`, in place.
    fn rewind(&mut self, program: &Program, out: &mut RunResult, log_flushes: bool) {
        self.replay.clear();
        self.log_flushes = log_flushes;
        self.rename.clear();
        self.rename.resize(program.num_regs, None);
        self.wake.reset(self.cfg.window);
        self.alu_free_at.fill(0);
        (self.head, self.len, self.next_seq) = (0, 0, 0);
        out.stats.reset();
        out.halted = false;
        if let Some(t) = out.timings.as_mut() {
            t.clear();
        }
        out.regs.clone_from(&program.init_regs);
    }

    /// The run: an initial fill at cycle 0, then DESIGN §5's cycle until
    /// the halt commits, the machine drains or the cycle budget ends.
    /// `C` counts the walk census. Kept out of line: with both
    /// compilations inlined into one caller, the uncounted loop lost
    /// inlining inside it and ran slower than the parent's single loop.
    #[inline(never)]
    fn execute<const C: bool>(&mut self, program: &Program, out: &mut RunResult) {
        self.wake.census.count::<C>(|c| *c = WalkCensus::default());
        self.refill::<C>(0);
        let mut t = 0;
        while t < self.cfg.max_cycles && !(self.len == 0 && self.fetch.exhausted()) {
            let occupancy = self.len as u64;
            out.stats.occupancy_sum += occupancy;
            self.wake.census.count::<C>(|c| c.cycles += 1);
            let eager = self.sweep::<C>(t);
            let walked = self.walk::<C>(t, out);
            let traffic = self.memory::<C>(t);
            // Issue-rate histogram: stations that began execution (or
            // had a memory request accepted) this cycle.
            let issued = walked.issued + traffic.accepted;
            out.stats.record_issue_count(issued);
            self.wake.census.count::<C>(|c| c.issues += issued as u64);
            let done = self.done_prefix();
            // A store the walk parked can be the renaming lane's drop
            // only if the walk visited it unresolved.
            let cut = |[a, b, c, r]: [usize; 4]| [a, b, c, r.min(walked.unresolved)];
            debug_assert!(
                eager.is_none_or(|(d, e)| (d, cut(e)) == (done, cut(walked.drops.unwrap_or(e)))),
                "positions found during the cycle differ from its start's"
            );
            let done = self.resolve::<C>(t, done, &mut out.stats);
            let committed = self.commit::<C>(done, program.len(), out);
            t += 1;
            if out.halted {
                break;
            }
            let refilled = self.refill::<C>(t);
            let silent = issued == 0
                && !(traffic.offered || traffic.responded)
                && !(walked.completed || walked.stalled || committed || refilled);
            if silent && self.cfg.cycle_skip {
                t = self.skip(t, walked.next_event, occupancy, &mut out.stats);
            }
        }
        if C {
            self.wake.settle_census();
            self.wake.census.resident_at_end = self.len as u64;
        }
        out.stats.cycles = t;
        out.stats.mem = self.mem.stats();
        // Commit retires in program order, so the record is already
        // sorted by `seq`.
        debug_assert!(out
            .timings
            .as_ref()
            .is_none_or(|t| t.windows(2).all(|w| w[0].seq < w[1].seq)));
        self.replay.complete = self.log_flushes;
        // Sparse: copies only the pages either image marks as written.
        out.mem.clone_from(self.mem.image());
        out.cycles = t;
    }

    /// Program-order position of the occupied slot `slot`.
    #[inline]
    fn order(&self, slot: usize) -> usize {
        if slot >= self.head {
            slot - self.head
        } else {
            slot + self.cfg.window - self.head
        }
    }

    /// Is producer `p` still in the window (`seq` at or past the oldest
    /// station's)? An older one has committed, and its slot may hold a
    /// younger station by now.
    #[inline]
    fn in_window(&self, p: Link) -> bool {
        p.seq >= self.ring[self.head].e.seq
    }

    /// The start of cycle `t` ([`WakeLists::sweep`]). Debug builds also
    /// find the cycle's positions here, check them by brute force and
    /// return them, to check those found later against.
    fn sweep<const C: bool>(&mut self, t: u64) -> Option<(usize, [usize; 4])> {
        self.wake.sweep::<C>(self.head);
        let eager = cfg!(debug_assertions).then(|| (self.done_prefix(), self.drops()));
        debug_assert!(
            eager.is_none_or(|(done, drops)| self.sets_agree(t, done, drops)),
            "the walk's sets or the cycle's positions disagree with the stations"
        );
        eager
    }

    /// Program-order position of the oldest station in the set `set`
    /// reads (`usize::MAX` for none).
    fn oldest(&self, set: impl Fn(&SetWord) -> u64 + Copy) -> usize {
        let (wake, head) = (&self.wake, self.head);
        let first = wake
            .next_in(set, head, self.cfg.window)
            .or_else(|| wake.next_in(set, 0, head));
        first.map_or(usize::MAX, |s| self.order(s))
    }

    /// Each lane's drop position, past which younger stations see the
    /// lane clear: its oldest blocker, and for the renaming lane its
    /// oldest parked one. The walk finds them at its first ready load or
    /// store, as they were at the cycle's start: only the sweep changes
    /// lanes 0–2's blockers, and a store the walk parked unresolved
    /// before then has cleared the renaming lane past it.
    fn drops(&self) -> [usize; 4] {
        std::array::from_fn(|k| match k {
            RESOLVED_LANE if !self.cfg.memory_renaming => usize::MAX,
            RESOLVED_LANE => self.oldest(|r| r.parked & r.blockers[k]),
            _ => self.oldest(|r| r.blockers[k]),
        })
    }

    /// The done prefix: the leading stations finished before this cycle,
    /// which commit may retire (the oldest station in the walk or out of
    /// it bounds them). Found after `memory`: from the sweep until then,
    /// stations only move between `active` and `parked`, never out.
    fn done_prefix(&self) -> usize {
        self.oldest(|r| r.active | r.parked).min(self.len)
    }

    /// The cycle's positions checked by brute force over the stations:
    /// each occupied unfinished station is in exactly one of `active` and
    /// `parked`, each of lanes 0–2 has its unfinished stations as
    /// blockers and holds only stations past its drop, and `done` and
    /// `drops` are the oldest matching stations. Only debug builds call
    /// it.
    fn sets_agree(&self, t: u64, done: usize, drops: [usize; 4]) -> bool {
        let (n, len, wake, ring) = (self.cfg.window, self.len, &self.wake, &self.ring);
        (0..n).all(|s| {
            let e = &ring[s].e;
            let live = self.order(s) < len && !e.done_before(t);
            let lane = lane_of(&e.instr).filter(|_| live);
            (wake.has(s, |r| r.active) as u8 + wake.has(s, |r| r.parked) as u8 == live as u8)
                && (0..RESOLVED_LANE).all(|k| {
                    wake.has(s, |r| r.blockers[k]) == (lane == Some(k))
                        && (!wake.has(s, |r| r.held[k]) || self.order(s) > drops[k])
                })
        }) && {
            // The sweep's positions by brute force, in program order.
            let oldest = |f: &dyn Fn(usize) -> bool| {
                let mut slots = (0..len).map(|j| ring_slot(self.head, j, n));
                slots
                    .position(|s| !ring[s].e.done_before(t) && f(s))
                    .unwrap_or(usize::MAX)
            };
            let lane = |s: usize| lane_of(&ring[s].e.instr);
            let unresolved = |s| {
                self.cfg.memory_renaming
                    && lane(s) == Some(0)
                    && !wake.has(s, |r| r.active | r.resolved)
            };
            oldest(&|_| true).min(len) == done
                && (0..RESOLVED_LANE).all(|k| oldest(&|s| lane(s) == Some(k)) == drops[k])
                && oldest(&unresolved) == drops[RESOLVED_LANE]
        }
    }

    /// The program-order walk over the active stations. Each unissued
    /// station takes its [`RunState::visit`] step, where a ready load or
    /// store reads the all-earlier flags ([`RunState::flags`]). A station
    /// completing this cycle leaves the walk (finishing), and a
    /// completing branch is queued for [`RunState::resolve`].
    fn walk<const C: bool>(&mut self, t: u64, out: &mut RunResult) -> Walked {
        let (n, head) = (self.cfg.window, self.head);
        let mut walked = Walked {
            issued: 0,
            completed: false,
            stalled: false,
            next_event: u64::MAX,
            drops: None,
            unresolved: usize::MAX,
        };
        self.resolving.clear();
        self.requests.clear();
        // Active slots in ring order from `head`: `[head, n)`, then
        // `[0, head)`. Each step re-reads the set, so a hold the
        // renaming lane releases is visited when the walk reaches it.
        let (mut cursor, mut end) = (head, n);
        loop {
            let Some(pos) = self.wake.next_in(|r| r.active, cursor, end) else {
                if end == n && head > 0 {
                    (cursor, end) = (0, head);
                    continue;
                }
                break;
            };
            cursor = pos + 1;
            let j = self.order(pos);
            debug_assert!(j < self.len, "active slot {pos} is vacant");
            debug_assert!(
                !self.wake.has(pos, |r| r.held.iter().fold(0, |a, h| a | h)),
                "visiting slot {pos}, which is held"
            );
            debug_assert!(
                self.ring[pos].e.mem != MemPhase::InFlight,
                "visiting slot {pos}, which is in flight"
            );
            debug_assert!(
                !self.wake.has(pos, |r| r.resolved)
                    || self.cfg.memory_renaming && self.ring[pos].e.instr.is_store(),
                "slot {pos} is marked resolved but holds no store under renaming"
            );
            self.wake.census.count::<C>(|c| c.visits += 1);
            let e = &self.ring[pos].e;
            debug_assert!(
                t >= e.fetched_at && !e.done_before(t),
                "visiting slot {pos}, which is not yet visible or finished"
            );
            if e.issued_at.is_none() {
                self.visit::<C>(pos, t, &mut walked, out);
            } else {
                self.wake.census.count::<C>(|c| c.executing += 1);
            }

            // A station completing this cycle leaves the walk; a store
            // left unresolved clears the renaming lane past it.
            let e = &self.ring[pos].e;
            walked.issued += usize::from(e.issued_at == Some(t));
            match e.completed_at {
                Some(ct) if ct > t => walked.next_event = walked.next_event.min(ct),
                Some(ct) if ct == t => {
                    walked.completed = true;
                    if e.instr.is_branch() {
                        self.resolving.push(j);
                    }
                    let (r, bit) = self.wake.leave(pos);
                    r.finishing |= bit;
                }
                _ => {}
            }
            if self.cfg.memory_renaming && self.wake.has(pos, |r| r.blockers[RESOLVED_LANE]) {
                walked.unresolved = walked.unresolved.min(j);
            }
        }
        let scanned = u64::from(walked.drops.is_some());
        self.wake.census.count::<C>(|c| c.flag_scans += scanned);
        walked
    }

    /// One step of the walk `walk`: the unissued station in `pos`
    /// issues, offers its memory request, is held on a lane or parked on
    /// a producer, or waits. The first cycle its pending operands become
    /// usable, if their producers have scheduled completions, is a
    /// wake-up event for the cycle skip. (Sources whose producers have
    /// not even issued are covered transitively: the oldest blocked
    /// entry in the window always reduces to an issued producer or an
    /// in-flight memory op.)
    #[inline(always)]
    fn visit<const C: bool>(&mut self, pos: usize, t: u64, walk: &mut Walked, out: &mut RunResult) {
        let operand = |k| self.operand(pos, k, &out.regs);
        let srcs = [operand(0), operand(1)];
        // Usable from: 0 for no source, never for a producer that has
        // not scheduled its completion.
        let [r0, r1] = srcs.map(|s| s.map_or(0, |s| s.ready_at.unwrap_or(u64::MAX)));
        if r0.max(r1) > t {
            // Blocked on a producer that has not scheduled its
            // completion: park on it until it does.
            let unscheduled = |s: &Option<Source>| s.is_some_and(|s| s.ready_at.is_none());
            if let Some(k) = srcs.iter().position(unscheduled) {
                let p = self.ring[pos].src[k].expect("a forwarded operand is linked");
                self.wake.link(pos, p.slot);
                self.wake.leave(pos);
                self.wake.census.count::<C>(|c| c.walk_parks += 1);
            } else {
                self.wake.census.count::<C>(|c| c.operand_waits += 1);
            }
            let pending = |r: u64| if r > t { r } else { u64::MAX };
            walk.next_event = walk.next_event.min(pending(r0)).min(pending(r1));
            return;
        }
        let [v0, v1] = srcs.map(|s| s.map_or(0, |s| s.value));
        let renaming = self.cfg.memory_renaming;
        let instr = self.ring[pos].e.instr;
        let shared_alu =
            self.cfg.alus.is_some() && matches!(instr, Instr::Alu { .. } | Instr::AluImm { .. });
        match instr {
            Instr::Load { offset, .. } => {
                let flags = self.flags(pos, walk);
                let addr = effective_addr(v0, offset, self.mem.words());
                // Memory renaming: once every older store's address is
                // known, either forward from the nearest match or go to
                // memory immediately. Without it, a load waits for
                // every older store.
                let lane = if renaming { RESOLVED_LANE } else { 0 };
                if flags >> lane & 1 == 0 {
                    // Held until its lane sets here.
                    self.wake.hold::<C>(pos, lane);
                } else if let Some(s) = renaming.then(|| self.forward_from(pos, addr)).flatten() {
                    let e = &mut self.ring[pos].e;
                    (e.issued_at, e.completed_at) = (Some(t), Some(t));
                    (e.result, e.mem_addr) = (Some(s.value), Some(addr));
                    out.stats.store_forwards += 1;
                    record_forwards(&mut out.stats, &srcs);
                } else {
                    self.offer::<C>(pos, addr, ReqKind::Load, &srcs, &mut out.stats);
                }
            }
            Instr::Store { offset, .. } => {
                let flags = self.flags(pos, walk);
                let addr = effective_addr(v0, offset, self.mem.words());
                if self.wake.has(pos, |r| r.blockers[RESOLVED_LANE]) {
                    // Memory renaming: the store resolves on this first
                    // ready visit, for good. Its address shapes the
                    // schedule (younger loads forward from it) even if
                    // it never issues — wrong-path stores never do — so
                    // the flush replay log needs it.
                    self.stores[pos] = StoreInfo { addr, value: v1 };
                    self.wake
                        .resolve::<C>(pos, flags & F_STORES_RESOLVED != 0, self.head);
                    self.ring[pos].e.mem_addr = Some(addr);
                }
                if flags & F_STORE_ISSUE == F_STORE_ISSUE {
                    self.offer::<C>(pos, addr, ReqKind::Store(v1), &srcs, &mut out.stats);
                } else {
                    // Held until the first clear lane of the three sets
                    // here.
                    let lane = (!flags & F_STORE_ISSUE).trailing_zeros();
                    self.wake.hold::<C>(pos, lane as usize);
                }
            }
            _ if shared_alu && !self.alu_free_at.iter().any(|&f| f <= t) => {
                out.stats.alu_stalls += 1;
                walk.stalled = true;
                self.wake.census.count::<C>(|c| c.alu_stalls += 1);
            }
            _ => {
                // Every other instruction issues in one step: its
                // result or branch direction, complete `lat.of` cycles
                // on (a jump, nop or halt within this cycle), and a
                // shared ALU held through completion.
                let (result, taken) = match instr {
                    Instr::Alu { op, .. } => (Some(op.apply(v0, v1)), None),
                    Instr::AluImm { op, imm, .. } => (Some(op.apply(v0, imm as u32)), None),
                    Instr::LoadImm { imm, .. } => (Some(imm as u32), None),
                    Instr::Branch { cond, .. } => (None, Some(cond.eval(v0, v1))),
                    _ => (None, None),
                };
                let done_at = t + self.cfg.latency.of(&instr) - 1;
                let e = &mut self.ring[pos].e;
                (e.issued_at, e.completed_at) = (Some(t), Some(done_at));
                (e.result, e.taken) = (result, taken);
                record_forwards(&mut out.stats, &srcs);
                if shared_alu {
                    let unit = self.alu_free_at.iter_mut().find(|f| **f <= t);
                    *unit.expect("a free ALU was found") = done_at + 1;
                }
            }
        }
        // An unissued station had no completion, so one set here was
        // scheduled just now: wake its waiters (none unless it writes a
        // register).
        if self.ring[pos].e.completed_at.is_some() {
            self.wake.wake::<C>(pos);
        }
    }

    /// The all-earlier flags at slot `pos` in the walk `walked`, whose
    /// drop positions the first call finds.
    #[inline(always)]
    fn flags(&self, pos: usize, walked: &mut Walked) -> u64 {
        let j = self.order(pos);
        let [a, b, c, r] = *walked.drops.get_or_insert_with(|| self.drops());
        let drops = [a, b, c, r.min(walked.unresolved)];
        (0..4).fold(0, |flags, k| flags | u64::from(j <= drops[k]) << k)
    }

    /// Resolve operand `k` of the station in `slot`: one probe of its
    /// producer link. A producer still in the window forwards; otherwise
    /// it has committed and the committed register file `committed`
    /// holds its value.
    #[inline(always)]
    fn operand(&self, slot: usize, k: usize, committed: &[u32]) -> Option<Source> {
        let st = &self.ring[slot];
        let r = st.e.instr.reads()[k]?;
        Some(match st.src[k] {
            Some(p) if self.in_window(p) => {
                let w = &self.ring[p.slot].e;
                // `done + 1` first, then the saturating hop cost.
                let hops = self.cfg.forward.extra(p.slot, slot);
                Source {
                    value: w.result.unwrap_or(0),
                    ready_at: w.completed_at.map(|done| (done + 1).saturating_add(hops)),
                    dist: Some(st.e.seq - p.seq),
                }
            }
            _ => Source {
                value: committed[r.index()],
                ready_at: Some(0),
                dist: None,
            },
        })
    }

    /// Offer the memory request of the ready load or store in `pos` to
    /// the arbiter. A rejected request is offered again on later
    /// visits; the operands' forwardings count on the first offer only.
    fn offer<const C: bool>(
        &mut self,
        pos: usize,
        addr: usize,
        kind: ReqKind,
        srcs: &[Option<Source>; 2],
        stats: &mut ProcStats,
    ) {
        let e = &mut self.ring[pos].e;
        self.requests.push(MemRequest {
            id: e.seq,
            leaf: pos,
            addr,
            kind,
        });
        if e.mem == MemPhase::None {
            record_forwards(stats, srcs);
        }
        (e.mem, e.mem_addr) = (MemPhase::Requesting, Some(addr));
        self.wake.census.count::<C>(|c| c.requests += 1);
    }

    /// The youngest resolved store to `addr` older than the load in slot
    /// `pos`: a search of the marked slots in ring order `[head, pos)`,
    /// youngest first. Kept out of line: only loads under renaming
    /// search, and inlined into the walk it slowed the walk of every
    /// configuration.
    #[inline(never)]
    fn forward_from(&self, pos: usize, addr: usize) -> Option<StoreInfo> {
        let search = |from: usize, mut to: usize| {
            while let Some(s) = self.wake.prev_in(|r| r.resolved, from, to) {
                if self.stores[s].addr == addr {
                    return Some(self.stores[s]);
                }
                to = s;
            }
            None
        };
        if pos >= self.head {
            search(self.head, pos)
        } else {
            search(0, pos).or_else(|| search(self.head, self.cfg.window))
        }
    }

    /// The arbiter takes this cycle's requests, oldest first,
    /// through the retained accept and response buffers (the memory
    /// system clears them first). Every request names its station's
    /// slot as its leaf. An acceptance is for a request offered in this
    /// cycle's walk, whose station is still in place: it issues and
    /// flies. A response may find its slot vacated or refilled by a
    /// flush since it flew, so it lands only on an occupied slot that
    /// still holds its seq (seqs are never reused).
    fn memory<const C: bool>(&mut self, t: u64) -> Traffic {
        self.mem
            .tick_into(t, &self.requests, &mut self.accepted, &mut self.responses);
        for req in &self.accepted {
            let s = req.leaf;
            debug_assert!(
                self.order(s) < self.len && self.ring[s].e.seq == req.id,
                "accepted slot {s} moved"
            );
            let e = &mut self.ring[s].e;
            (e.issued_at, e.mem) = (Some(t), MemPhase::InFlight);
            self.wake.fly::<C>(s);
        }
        for resp in &self.responses {
            let s = resp.leaf;
            let occupied = self.order(s) < self.len;
            let e = &mut self.ring[s].e;
            if occupied && e.seq == resp.id && e.mem == MemPhase::InFlight {
                (e.completed_at, e.result, e.mem) = (Some(t), resp.value, MemPhase::None);
                self.wake.land::<C>(s);
                self.wake.wake::<C>(s);
            }
        }
        Traffic {
            offered: !self.requests.is_empty(),
            accepted: self.accepted.len(),
            responded: !self.responses.is_empty(),
        }
    }

    /// This cycle's completing branches, in program order,
    /// train the predictor, and the oldest mispredicted one flushes
    /// every younger station, rolls the rename table back to the
    /// surviving window and redirects fetch: the paper's one-cycle
    /// recovery. Returns the done prefix `done`, cut at the flush.
    fn resolve<const C: bool>(&mut self, t: u64, done: usize, stats: &mut ProcStats) -> usize {
        let n = self.cfg.window;
        for i in 0..self.resolving.len() {
            let j = self.resolving[i];
            let e = &self.ring[ring_slot(self.head, j, n)].e;
            self.fetch.train(e.pc, e.taken.unwrap_or(false));
            if !e.mispredicted() {
                continue;
            }
            let correct = e.resolved_next().expect("a completed branch has resolved");
            if self.log_flushes {
                self.log_flush(j, t);
            }
            // Flush everything younger; refill reuses the flushed
            // slots (hardware overwrites the squashed stations in
            // place).
            let squashed = self.len - (j + 1);
            stats.flushed += squashed as u64;
            self.wake
                .vacate::<C>(ring_slot(self.head, j + 1, n), squashed);
            self.len = j + 1;
            // Roll the rename table back to the surviving window.
            self.rename.fill(None);
            for k in 0..self.len {
                let slot = ring_slot(self.head, k, n);
                let e = &self.ring[slot].e;
                if let Some(rd) = e.instr.writes() {
                    self.rename[rd.index()] = Some(Link { seq: e.seq, slot });
                }
            }
            self.fetch.redirect(correct);
            return done.min(self.len);
        }
        done
    }

    /// Log the wrong-path stations younger than the mispredicted branch
    /// at position `j` before its flush at `t` squashes them, or stop
    /// logging if they would overflow the log.
    fn log_flush(&mut self, j: usize, t: u64) {
        let (start, len) = (self.replay.entries.len(), self.len - (j + 1));
        if start + len > MAX_LEADER_LOG {
            self.log_flushes = false;
            self.replay = ReplayLog::default();
        } else if len > 0 {
            let n = self.cfg.window;
            for k in j + 1..self.len {
                self.replay
                    .push_entry(&self.ring[ring_slot(self.head, k, n)].e, t);
            }
            let branch_seq = self.ring[ring_slot(self.head, j, n)].e.seq;
            self.replay.events.push(FlushEvent {
                branch_seq,
                start,
                len,
            });
        }
    }

    /// In-order commit at cluster granularity (the
    /// oldest-station CSPP, evaluated on start-of-cycle state): the
    /// oldest cluster retires once it is complete and inside the done
    /// prefix `done`, then the next. Returns whether a cluster retired;
    /// a retiring halt sets `out.halted`. A station at or past pc `end`,
    /// the program's length, is the synthetic halt.
    fn commit<const C: bool>(&mut self, mut done: usize, end: usize, out: &mut RunResult) -> bool {
        let (c, n) = (self.cfg.cluster, self.cfg.window);
        let mut committed = false;
        while self.len > 0 {
            let cl_len = self.len.min(c);
            if !((cl_len == c || self.fetch.exhausted()) && done >= cl_len) {
                break;
            }
            committed = true;
            // `head` is cluster-aligned and `C` divides `n`, so a
            // cluster never wraps.
            for slot in self.head..self.head + cl_len {
                let e = &self.ring[slot].e;
                out.halted |= matches!(e.instr, Instr::Halt);
                if e.is_synthetic(end) {
                    continue;
                }
                out.stats.committed += 1;
                if let Some(timings) = out.timings.as_mut() {
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
                    out.stats.branches += 1;
                    out.stats.mispredictions += u64::from(e.mispredicted());
                }
                if let Some(rd) = e.instr.writes() {
                    out.regs[rd.index()] = e.result.expect("writer committed with result");
                }
            }
            // The sweep let every retiring station go.
            debug_assert!(
                self.wake
                    .next_in(
                        |r| r.active | r.parked | r.blockers.iter().fold(0, |a, b| a | b),
                        self.head,
                        self.head + cl_len
                    )
                    .is_none(),
                "a retiring cluster is still visited, parked or blocking a lane"
            );
            self.wake.census.count::<C>(|c| c.retired += cl_len as u64);
            if self.cfg.memory_renaming {
                self.wake.vacate::<C>(self.head, cl_len);
            }
            self.head = ring_slot(self.head, c, n);
            self.len -= cl_len;
            done -= cl_len;
            if out.halted {
                return true;
            }
        }
        committed
    }

    /// Append fetched instructions at the tail — filling the
    /// youngest partial cluster, then fresh ones — as stations live at
    /// `visible_at`, at most `fetch_width` of them. Each station links
    /// its sources to their producers here, once, and parks on the
    /// first in-window one with no scheduled completion instead of
    /// entering the walk. Returns whether it placed any.
    fn refill<const C: bool>(&mut self, visible_at: u64) -> bool {
        let (n, before) = (self.cfg.window, self.len);
        // The oldest in-window seq: the first placed, if the window is empty.
        let oldest = if before == 0 {
            self.next_seq
        } else {
            self.ring[self.head].e.seq
        };
        for _ in 0..(n - before).min(self.cfg.fetch_width.unwrap_or(n)) {
            let Some(f) = self.fetch.next() else { break };
            let (seq, slot) = (self.next_seq, ring_slot(self.head, self.len, n));
            self.next_seq += 1;
            let [r0, r1] = f.instr.reads();
            let src = [r0, r1].map(|r| r.and_then(|r| self.rename[r.index()]));
            if let Some(rd) = f.instr.writes() {
                self.rename[rd.index()] = Some(Link { seq, slot });
            }
            self.ring[slot] = Station {
                e: StationEntry::new(seq, f.pc, f.instr, f.predicted_next, visible_at),
                src,
            };
            self.len += 1;
            debug_assert!(
                !self.wake.has(slot, |r| r.resolved),
                "refilled slot {slot} is still marked resolved"
            );
            let unscheduled = src
                .iter()
                .flatten()
                .find(|p| p.seq >= oldest && self.ring[p.slot].e.completed_at.is_none());
            if let Some(p) = unscheduled {
                self.wake.link(slot, p.slot);
                self.wake.census.count::<C>(|c| c.refill_parks += 1);
            }
            let (r, bit) = self.wake.slot(slot);
            if let Some(k) = lane_of(&f.instr) {
                r.blockers[k] |= bit;
            }
            if self.cfg.memory_renaming && f.instr.is_store() {
                r.blockers[RESOLVED_LANE] |= bit;
            }
            match unscheduled {
                Some(_) => r.parked |= bit,
                None => r.active |= bit,
            }
        }
        let placed = (self.len - before) as u64;
        self.wake.census.count::<C>(|c| c.refills += placed);
        self.len != before
    }

    /// Cycle skip, after a silent cycle ending at `t`: nothing issued or
    /// stalled on an ALU, no memory traffic in either direction, no
    /// completion, no commit and no refill. Every cycle up to the next
    /// scheduled event is then an identical no-op: the walk re-derives
    /// the same blocked state (operand readiness and prefix flags
    /// depend only on completion times, all in the future), commit and
    /// refill stay ineligible, and a memory tick with no request before
    /// its next due response returns at once, so skipping it is free.
    /// Returns the cycle to go on from: the earlier of the walk's
    /// `event` and the next memory response, with the skipped span's
    /// statistics in closed form. No event at all (a genuinely wedged
    /// machine) runs to the deadlock guard exactly like the naive loop.
    fn skip(&self, t: u64, event: u64, occupancy: u64, stats: &mut ProcStats) -> u64 {
        let due = self.mem.next_completion_at().unwrap_or(u64::MAX);
        let target = event.min(due).min(self.cfg.max_cycles).max(t);
        stats.occupancy_sum += (target - t) * occupancy;
        stats.record_idle_cycles(target - t);
        target
    }
}

/// Count how a ready station's operands arrived: forwarded, by `seq`
/// distance, or read from the committed register file.
fn record_forwards(stats: &mut ProcStats, srcs: &[Option<Source>; 2]) {
    for s in srcs.iter().flatten() {
        match s.dist {
            Some(d) => stats.record_forward(d),
            None => stats.regfile_reads += 1,
        }
    }
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
                0 => {
                    wl.link(s, p);
                    wl.leave(s);
                }
                1 => wl.hold::<true>(s, p % 4),
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
            wl.vacate::<true>(from, count);
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
