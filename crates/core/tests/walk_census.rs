//! The walk census (`Ultrascalar::walk_census`) balances: every hold
//! ends in exactly one release or squash, every park in exactly one
//! wake or squash, every flight in exactly one landing or squash, and
//! whatever is left is still in the window when the run ends — counted
//! there from the engine's sets, not derived from the other counters. A load waits on one lane that sets once, so it
//! is held at most once; a store waits on three, so at most three
//! times. A release that runs past its lane's next blocker, or fires
//! while an older station still clears the lane, re-holds stations and
//! breaks that bound. Every visit has exactly one outcome: an issue, a
//! memory request (offered again after a rejection), a hold, a park,
//! a wait on a producer whose completion is scheduled, a multi-cycle
//! op still executing, or a shared-ALU stall. A finished station
//! visited again has none of them and breaks the sum. Every station
//! refill places retires, is flushed or is still resident at the end.
//! A walk finds the lane positions at most once a cycle, at a ready load
//! or store. In a halted run without flushes, the forwardings and
//! register-file reads add up to the committed instructions' source
//! operands, in the engine and in the baseline alike. The census is
//! counted only when asked for: an uncounted run gives the same result
//! and leaves the last counted run's census in place.

use ultrascalar::{
    BaselineOoO, ForwardModel, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar,
    WalkCensus,
};
use ultrascalar_isa::workload::{self, RandomCfg};
use ultrascalar_isa::{Instr, Program};
use ultrascalar_memsys::{CacheConfig, MemConfig, NetworkKind};

fn configs() -> Vec<(&'static str, ProcConfig)> {
    let bimodal = PredictorKind::Bimodal(16);
    vec![
        (
            "us1-w8",
            ProcConfig::ultrascalar_i(8).with_predictor(bimodal),
        ),
        (
            "us1-w64-memnet",
            ProcConfig::ultrascalar_i(64)
                .with_predictor(bimodal)
                .with_mem(MemConfig::realistic(64, 1 << 12)),
        ),
        (
            "us1-w200-memnet-noskip",
            ProcConfig::ultrascalar_i(200)
                .with_predictor(bimodal)
                .with_mem(MemConfig::realistic(200, 1 << 12))
                .without_cycle_skipping(),
        ),
        (
            "us2-w128-butterfly",
            ProcConfig::ultrascalar_ii(128)
                .with_predictor(bimodal)
                .with_mem(MemConfig::realistic(128, 1 << 12).with_network(NetworkKind::Butterfly)),
        ),
        (
            "hybrid-w256-c64-renaming-cache",
            ProcConfig::hybrid(256, 64)
                .with_predictor(bimodal)
                .with_memory_renaming()
                .with_mem(
                    MemConfig::realistic(256, 1 << 12).with_cluster_cache(CacheConfig::small(4)),
                ),
        ),
        (
            "hybrid-w16-c4-renaming-pipelined",
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::NotTaken)
                .with_memory_renaming()
                .with_shared_alus(2)
                .with_fetch_width(3)
                .with_forwarding(ForwardModel::Pipelined { per_hop: 2 }),
        ),
    ]
}

fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = workload::standard_suite(7)
        .into_iter()
        .map(|(name, p)| (name.to_string(), p))
        .collect();
    for seed in 0..12u64 {
        let cfg = RandomCfg {
            len: 120,
            num_regs: 16,
            mem_frac: 0.5,
            store_frac: 0.4,
            branch_frac: if seed % 3 == 0 { 0.0 } else { 0.1 },
            long_op_frac: 0.3,
            mem_span: 16,
            loop_iters: (seed % 4) as u32,
            seed,
            ..RandomCfg::default()
        };
        out.push((format!("random-{seed}"), workload::random_program(&cfg)));
    }
    out
}

/// The bound on holds: one per fetched load and three per fetched
/// store. Every fetched station either commits or is squashed by a
/// flush, so the run must have recorded its timings and logged its
/// flushes.
fn hold_bound(engine: &Ultrascalar, r: &RunResult) -> u64 {
    assert!(
        engine.replay_log().is_complete(),
        "the flush log is partial"
    );
    let committed = r.recorded_timings().iter().map(|x| x.instr);
    let flushed = engine.replay_log().entries.iter().map(|e| e.instr);
    committed
        .chain(flushed)
        .map(|i| match i {
            Instr::Load { .. } => 1,
            Instr::Store { .. } => 3,
            _ => 0,
        })
        .sum()
}

fn check(key: &str, c: &WalkCensus, r: &RunResult, bound: u64, window: usize, skip: bool) {
    assert_eq!(
        c.holds,
        c.releases + c.squashed_holds + c.held_at_end,
        "{key}: holds unbalanced: {c:?}"
    );
    assert_eq!(
        c.walk_parks + c.refill_parks,
        c.wakes + c.squashed_parks + c.parked_at_end,
        "{key}: parks unbalanced: {c:?}"
    );
    assert_eq!(
        c.flights,
        c.landings + c.squashed_flights + c.flying_at_end,
        "{key}: flights unbalanced: {c:?}"
    );
    assert!(
        c.holds <= bound,
        "{key}: {} holds, bound {bound}: {c:?}",
        c.holds
    );
    // An accepted request issues in the memory phase, not in the walk.
    let walk_issues = c.issues - c.flights;
    let outcomes = walk_issues
        + c.requests
        + c.holds
        + c.walk_parks
        + c.operand_waits
        + c.executing
        + c.alu_stalls;
    assert_eq!(c.visits, outcomes, "{key}: visits unaccounted for: {c:?}");
    assert!(
        c.flights <= c.requests,
        "{key}: more flights than requests: {c:?}"
    );
    // A walk finds the lane positions at most once, at a ready load or
    // store, whose visit issues (a store-forwarded load), offers a
    // request or holds.
    assert!(
        c.flag_scans <= c.cycles.min(walk_issues + c.requests + c.holds),
        "{key}: more flag scans than cycles or ready memory ops: {c:?}"
    );
    assert!(
        c.visits <= c.cycles * window as u64,
        "{key}: more visits than stations: {c:?}"
    );
    assert!(c.cycles <= r.cycles, "{key}: executed more cycles than ran");
    // Every station refill placed retired, was squashed by a flush or
    // is still in the window; of the retired, only a synthetic halt
    // goes uncounted in `committed`.
    assert_eq!(
        c.refills,
        c.retired + r.stats.flushed + c.resident_at_end,
        "{key}: window stations unbalanced: {c:?}"
    );
    assert!(
        c.retired - r.stats.committed <= 1,
        "{key}: {} retired, {} committed: {c:?}",
        c.retired,
        r.stats.committed
    );
    if !skip {
        assert_eq!(
            c.cycles, r.cycles,
            "{key}: no skip, yet cycles were skipped"
        );
    }
    operands_balance(key, r);
}

/// Each source operand of an issued instruction is counted once, as a
/// forwarding or a committed-register-file read. With no flush and a
/// committed halt, the issued instructions are the committed ones.
fn operands_balance(key: &str, r: &RunResult) {
    if r.halted && r.stats.flushed == 0 {
        let sources: usize = r
            .recorded_timings()
            .iter()
            .map(|x| x.instr.reads().iter().flatten().count())
            .sum();
        let forwards: u64 = r.stats.forward_dist.iter().sum();
        assert_eq!(
            r.stats.regfile_reads + forwards,
            sources as u64,
            "{key}: {} register-file reads and {forwards} forwardings for {sources} operands",
            r.stats.regfile_reads
        );
    }
}

#[test]
fn walk_census_balances_and_bounds_holds() {
    let mut total = WalkCensus::default();
    for (corner, cfg) in configs() {
        let (window, skip) = (cfg.window, cfg.cycle_skip);
        let mut engine = Ultrascalar::new(cfg.clone());
        engine.count_walk(true);
        assert_eq!(engine.walk_census(), WalkCensus::default());
        let mut baseline = BaselineOoO::new(cfg.clone());
        let (mut r, mut u) = (
            RunResult::recording_timings(),
            RunResult::recording_timings(),
        );
        for (name, p) in programs() {
            let key = format!("{corner} {name}");
            engine.run_logging_flushes(&p, &mut r);
            let c = engine.walk_census();
            check(&key, &c, &r, hold_bound(&engine, &r), window, skip);
            // The census is the run's own: a cold engine, logging and
            // recording nothing, counts the same.
            let mut cold = Ultrascalar::new(cfg.clone());
            cold.count_walk(true);
            cold.run(&p);
            assert_eq!(
                cold.walk_census(),
                c,
                "{key}: warm and cold censuses differ"
            );
            // Counting changes nothing a run reports, and an uncounted
            // run leaves the census alone.
            engine.count_walk(false);
            engine.run_logging_flushes(&p, &mut u);
            engine.count_walk(true);
            assert_eq!(u, r, "{key}: counted and uncounted results differ");
            assert_eq!(engine.walk_census(), c, "{key}: an uncounted run counted");
            baseline.run_reusing(&p, &mut u);
            operands_balance(&format!("{key} (baseline)"), &u);
            for (sum, n) in [
                (&mut total.holds, c.holds),
                (&mut total.releases, c.releases),
                (&mut total.squashed_holds, c.squashed_holds),
                (&mut total.held_at_end, c.held_at_end),
                (&mut total.walk_parks, c.walk_parks),
                (&mut total.refill_parks, c.refill_parks),
                (&mut total.wakes, c.wakes),
                (&mut total.squashed_parks, c.squashed_parks),
                (&mut total.parked_at_end, c.parked_at_end),
                (&mut total.flights, c.flights),
                (&mut total.landings, c.landings),
                (&mut total.squashed_flights, c.squashed_flights),
                (&mut total.requests, c.requests),
                (&mut total.operand_waits, c.operand_waits),
                (&mut total.executing, c.executing),
                (&mut total.alu_stalls, c.alu_stalls),
                (&mut total.flag_scans, c.flag_scans),
            ] {
                *sum += n;
            }
        }
    }
    // Every way in and out of the walk occurred somewhere.
    for (what, n) in [
        ("holds", total.holds),
        ("releases", total.releases),
        ("squashed holds", total.squashed_holds),
        ("walk parks", total.walk_parks),
        ("refill parks", total.refill_parks),
        ("wakes", total.wakes),
        ("squashed parks", total.squashed_parks),
        ("flights", total.flights),
        ("landings", total.landings),
        ("squashed flights", total.squashed_flights),
        ("memory requests", total.requests),
        ("operand waits", total.operand_waits),
        ("executing visits", total.executing),
        ("shared-ALU stalls", total.alu_stalls),
        ("flag scans", total.flag_scans),
    ] {
        assert!(n > 0, "no run produced {what}: {total:?}");
    }
}
