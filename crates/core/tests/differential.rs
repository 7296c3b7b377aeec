//! One differential harness: seeded (program, configuration) pairs,
//! each checked five ways.
//!
//! Case `i` draws from `rand::case_rng(SEED, i)`, the workspace's one
//! seeded-case generator, so it is a pure function of [`SEED`] and `i`
//! and replays alone. It is one program drawn from `isa::workload` (a
//! random straight-line program, a random counted loop, or a
//! standard-suite kernel) and one [`ProcConfig`] from a sampler that
//! draws every field, with `validate()` as its only filter. Each pair
//! must pass:
//!
//! 1. **golden** — a halted run's architectural state equals the
//!    golden interpreter's; a run that did not halt used its whole
//!    cycle budget, and only a tight budget or saturated forwarding
//!    may stop it;
//! 2. **cycle skip** — skipping on equals skipping off, field for
//!    field, for both `Ultrascalar` and `BaselineOoO`; a window wedged
//!    by saturated forwarding must jump straight to a 2^40-cycle
//!    budget, which no tick-every-cycle loop reaches;
//! 3. **lanes** — a `LaneBatcher` batch of `lane_variants` (2 to 64
//!    lanes) equals serial runs, field for field. The lanes differ in
//!    every register but r0, or only in registers whose initial value
//!    the committed path never reads: those lanes share the committed
//!    path, so only wrong-path replay can tell them apart;
//! 4. **warm** — an engine that has just run the previous case's
//!    program, and then this one, equals a cold engine, field for field;
//! 5. **baseline** — US-I equals `BaselineOoO` in halting, cycles,
//!    state and timings where the paper claims it extracts exactly a
//!    conventional superscalar's ILP: on the config's projection to
//!    C = 1, no memory renaming and single-cycle forwarding.
//!
//! Nothing shrinks a failing case, so a failure prints what a replay
//! needs: seed and case index, the config (`Debug`), an `.asm`
//! dump that reassembles to the same `Program` (asserted for every
//! case), and the `usim run` line when every sampled field is a `usim`
//! flag (asserted to parse back to the same config). A case still
//! running after [`DEADLINE`] fails the same way. After the last
//! case the harness asserts it tested something: every sampler value
//! was drawn and `validate()` rejected some draws, lanes batched,
//! peeled and peeled in replay, cycle skip jumped, some drawn config
//! lay in the baseline check's domain as drawn, and mispredictions,
//! store forwards, ALU stalls, bank conflicts, link rejections and
//! cluster-cache hits all occurred.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::Rng;
use ultrascalar::processor::check_against_golden;
use ultrascalar::{
    BaselineOoO, ForwardModel, LaneBatcher, LatencyModel, PredictorKind, ProcConfig, ProcStats,
    Processor, RunResult, Ultrascalar,
};
use ultrascalar_bench::cli::{build_config, parse_run, ArchChoice, RunOptions};
use ultrascalar_isa::workload::{self, RandomCfg};
use ultrascalar_isa::{assemble, Interp, Program};
use ultrascalar_memsys::{Bandwidth, CacheConfig, MemConfig, NetworkKind};

mod common;
use common::{program_source, replay, usim_args, usim_options};

const SEED: u64 = 0x0D1F_F5EE_D000_0001;
const CASES: u64 = 120;
/// Golden-interpreter step limit.
const FUEL: usize = 5_000_000;
/// A budget every finite-forwarding case must halt within.
const GENEROUS: u64 = 1_000_000;
/// The skip probe's budget: no tick-every-cycle loop reaches it.
const PROBE_BUDGET: u64 = 1 << 40;
/// A case still running after this long has hung (the slowest case
/// takes well under a second in the dev profile).
const DEADLINE: Duration = Duration::from_secs(30);

/// The sampler: an RNG plus the record of every named choice it
/// offered and drew, so the harness can prove it drew them all.
struct Sampler {
    rng: StdRng,
    offered: BTreeSet<(&'static str, &'static str)>,
    drawn: Vec<(&'static str, &'static str)>,
}

impl Sampler {
    fn new(rng: StdRng) -> Self {
        Sampler {
            rng,
            offered: BTreeSet::new(),
            drawn: Vec::new(),
        }
    }

    /// Draw one of `options` for `knob`, uniformly.
    fn pick(&mut self, knob: &'static str, options: &[&'static str]) -> &'static str {
        self.offered.extend(options.iter().map(|&o| (knob, o)));
        let o = options[self.rng.gen_range(0..options.len())];
        self.drawn.push((knob, o));
        o
    }

    fn program(&mut self) -> (String, Program) {
        let shape = self.pick("program", &["straight", "loop", "kernel"]);
        if shape == "kernel" {
            let mut suite = workload::standard_suite(self.rng.gen());
            let (name, p) = suite.swap_remove(self.rng.gen_range(0..suite.len()));
            return (format!("standard_suite kernel {name}"), p);
        }
        let num_regs = match self.pick("regs", &["4..=8", "9..=64", "65..=256"]) {
            "4..=8" => self.rng.gen_range(4..=8),
            "9..=64" => self.rng.gen_range(9..=64),
            _ => self.rng.gen_range(65..=256),
        };
        let looped = shape == "loop";
        let cfg = RandomCfg {
            len: if looped {
                self.rng.gen_range(4..=24)
            } else {
                self.rng.gen_range(8..=80)
            },
            num_regs,
            mem_frac: self.rng.gen_range(0.0..0.6),
            store_frac: self.rng.gen_range(0.0..1.0),
            branch_frac: self.rng.gen_range(0.0..0.3),
            long_op_frac: self.rng.gen_range(0.0..0.5),
            imm_frac: self.rng.gen_range(0.0..0.7),
            li_frac: self.rng.gen_range(0.0..0.3),
            dep_geom_p: self.rng.gen_range(0.0..1.0),
            mem_span: self.rng.gen_range(1..=16),
            base_regs: match self.pick("bases", &["r0..r3", "any"]) {
                "r0..r3" => 4,
                _ => num_regs,
            },
            loop_iters: if looped { self.rng.gen_range(1..=8) } else { 0 },
            seed: self.rng.gen(),
        };
        (
            format!("workload::random_program({cfg:?})"),
            workload::random_program(&cfg),
        )
    }

    /// Draw configurations until one passes `validate()`; returns it
    /// with the number of rejected draws.
    fn config(&mut self) -> (ProcConfig, u64) {
        let mut rejected = 0;
        loop {
            let mark = self.drawn.len();
            let cfg = self.draw_config();
            if cfg.validate().is_ok() {
                return (cfg, rejected);
            }
            self.drawn.truncate(mark);
            rejected += 1;
        }
    }

    fn draw_config(&mut self) -> ProcConfig {
        let window = match self.pick("window", &["1", "2..=16", "17..=64", "65..=256"]) {
            "1" => 1,
            "2..=16" => self.rng.gen_range(2..=16),
            "17..=64" => self.rng.gen_range(17..=64),
            _ => self.rng.gen_range(65..=256),
        };
        let cluster = match self.pick("arch", &["usi", "usii", "hybrid"]) {
            "usi" => 1,
            "usii" => window,
            _ => {
                let divisors: Vec<usize> = (1..=window).filter(|c| window % c == 0).collect();
                divisors[self.rng.gen_range(0..divisors.len())]
            }
        };
        let latency = match self.pick("latency", &["paper", "unit", "slow-branch", "random"]) {
            "paper" => LatencyModel::default(),
            "unit" => LatencyModel::unit(),
            "slow-branch" => LatencyModel {
                branch: 2,
                ..LatencyModel::default()
            },
            _ => LatencyModel {
                alu: self.rng.gen_range(1..=2),
                mul: self.rng.gen_range(1..=5),
                div: self.rng.gen_range(1..=12),
                branch: self.rng.gen_range(1..=3),
                imm: self.rng.gen_range(1..=2),
            },
        };
        let predictor = match self.pick(
            "predictor",
            &["perfect", "nottaken", "taken", "btfn", "bimodal"],
        ) {
            "perfect" => PredictorKind::Perfect,
            "nottaken" => PredictorKind::NotTaken,
            "taken" => PredictorKind::Taken,
            "btfn" => PredictorKind::Btfn,
            // 0 is drawn on purpose: `validate()` must reject it.
            _ => PredictorKind::Bimodal(match self.rng.gen_range(0..=9) {
                0 => 0,
                e => 1 << (e - 1),
            }),
        };
        let alus = match self.pick("alus", &["per-station", "shared"]) {
            "per-station" => None,
            _ => Some(self.rng.gen_range(0..=4)),
        };
        let memory_renaming = self.pick("renaming", &["off", "on"]) == "on";
        let forward = match self.pick("forwarding", &["single-cycle", "pipelined"]) {
            "single-cycle" => ForwardModel::SingleCycle,
            _ => ForwardModel::Pipelined {
                per_hop: match self.pick("per_hop", &["0", "1..=3", "u64::MAX"]) {
                    "0" => 0,
                    "1..=3" => self.rng.gen_range(1..=3),
                    _ => u64::MAX,
                },
            },
        };
        let fetch_width = match self.pick("fetch_width", &["issue-width", "capped"]) {
            "issue-width" => None,
            _ => Some(self.rng.gen_range(0..=8)),
        };
        // Saturated forwarding can wedge the window, and a wedged run
        // ticks its whole budget with cycle skip off: keep it short.
        let tight = self.pick("budget", &["generous", "tight"]) == "tight"
            || forward == ForwardModel::Pipelined { per_hop: u64::MAX };
        let max_cycles = if tight {
            self.rng.gen_range(1..=300)
        } else {
            GENEROUS
        };
        let mem = self.memory(window, cluster);
        ProcConfig {
            window,
            cluster,
            latency,
            predictor,
            mem,
            max_cycles,
            alus,
            memory_renaming,
            forward,
            fetch_width,
            cycle_skip: true,
        }
    }

    fn memory(&mut self, window: usize, cluster: usize) -> MemConfig {
        let flavour = self.pick("memory", &["ideal", "usim", "custom"]);
        if flavour == "ideal" {
            return MemConfig::ideal(window, 1usize << self.rng.gen_range(8..=12));
        }
        let network = match self.pick("network", &["fat-tree", "butterfly"]) {
            "fat-tree" => NetworkKind::FatTree,
            _ => NetworkKind::Butterfly,
        };
        let cached = self.pick("cluster_cache", &["none", "per-cluster"]) == "per-cluster";
        let exponent = match self.rng.gen_range(0..4) {
            0 => 0.0,
            1 => 0.5,
            2 => 1.0,
            _ => self.rng.gen_range(0.0..1.0),
        };
        if flavour == "usim" {
            // Exactly the memory `usim run --mem-exp P [--butterfly]
            // [--cache]` builds for this topology.
            let o = RunOptions {
                arch: ArchChoice::Hybrid,
                window,
                cluster: Some(cluster),
                mem_exp: exponent,
                network,
                cache: cached,
                ..RunOptions::default()
            };
            return build_config(&o).expect("sampled topology is valid").mem;
        }
        MemConfig {
            n_leaves: window,
            bandwidth: Bandwidth::new(1.0, exponent),
            banks: self.rng.gen_range(1..=window.min(16)),
            bank_occupancy: self.rng.gen_range(1..=4),
            hop_latency: self.rng.gen_range(0..=2),
            base_latency: self.rng.gen_range(0..=2),
            words: 1usize << self.rng.gen_range(8..=12),
            network,
            cluster_cache: cached.then(|| CacheConfig {
                groups: window / cluster,
                lines: 1usize << self.rng.gen_range(0..=6),
                hit_latency: self.rng.gen_range(1..=3),
            }),
        }
    }
}

/// One (program, configuration) pair plus its lane-batch shape.
#[derive(Clone)]
struct Case {
    index: u64,
    origin: String,
    program: Program,
    cfg: ProcConfig,
    rejected: u64,
    lanes: usize,
    lane_seed: u64,
    /// Lanes differ only in registers whose initial value the
    /// committed path never reads, so only wrong-path replay can tell
    /// them apart; otherwise in every register but r0.
    wrong_path_only: bool,
    drawn: Vec<(&'static str, &'static str)>,
    offered: BTreeSet<(&'static str, &'static str)>,
}

fn case(index: u64) -> Case {
    let mut s = Sampler::new(rand::case_rng(SEED, index));
    let (origin, program) = s.program();
    let (cfg, rejected) = s.config();
    let lanes = match s.pick("lanes", &["2..=4", "5..=16", "17..=64"]) {
        "2..=4" => s.rng.gen_range(2..=4),
        "5..=16" => s.rng.gen_range(5..=16),
        _ => s.rng.gen_range(17..=64),
    };
    let lane_seed = s.rng.gen();
    let wrong_path_only =
        s.pick("lane_inputs", &["all-registers", "wrong-path-only"]) == "wrong-path-only";
    Case {
        index,
        origin,
        program,
        cfg,
        rejected,
        lanes,
        lane_seed,
        wrong_path_only,
        drawn: s.drawn,
        offered: s.offered,
    }
}

/// Field-for-field equality, naming the first field that differs.
fn same(what: &str, got: &RunResult, want: &RunResult) -> Result<(), String> {
    let field = if got.halted != want.halted {
        "halted"
    } else if got.cycles != want.cycles {
        "cycles"
    } else if got.regs != want.regs {
        "regs"
    } else if got.mem != want.mem {
        "mem"
    } else if got.stats != want.stats {
        "stats"
    } else if got.timings.is_none() || got.timings != want.timings {
        "timings"
    } else {
        return Ok(());
    };
    Err(format!(
        "{what}: `{field}` differs (cycles {} vs {}, halted {} vs {})",
        got.cycles, want.cycles, got.halted, want.halted
    ))
}

/// What the harness observed across the case set.
#[derive(Default)]
struct Tally {
    rejected: u64,
    baseline_native: u64,
    usim_expressible: u64,
    skip_probes: u64,
    budget_expired: u64,
    stats: ProcStats,
}

impl Tally {
    fn add(&mut self, s: &ProcStats) {
        self.stats.mispredictions += s.mispredictions;
        self.stats.store_forwards += s.store_forwards;
        self.stats.alu_stalls += s.alu_stalls;
        self.stats.mem.bank_conflicts += s.mem.bank_conflicts;
        self.stats.mem.link_rejections += s.mem.link_rejections;
        self.stats.mem.cache_hits += s.mem.cache_hits;
    }
}

/// The five checks for one case; `prev` is the program the warm
/// engine runs first.
fn check(c: &Case, prev: &Program, batcher: &mut LaneBatcher, t: &mut Tally) -> Result<(), String> {
    let (cfg, p) = (&c.cfg, &c.program);

    // The replay aids must reproduce the case.
    if assemble(&program_source(p), p.num_regs).as_ref() != Ok(p) {
        return Err("the .asm dump does not reassemble to the program".into());
    }
    if let Some(o) = usim_options(cfg, p.num_regs) {
        let replayed = parse_run(&usim_args(&o, "case.asm")).and_then(|o| build_config(&o));
        if replayed.as_ref() != Ok(cfg) {
            return Err("the usim replay line builds another config".into());
        }
        t.usim_expressible += 1;
    }

    // 1. Golden interpreter.
    let cold = Ultrascalar::new(cfg.clone()).run_timed(p);
    t.add(&cold.stats);
    // Recording the timings changes nothing else.
    let mut untimed = Ultrascalar::new(cfg.clone()).run(p);
    if untimed.timings.is_some() {
        return Err("an untimed run recorded timings".into());
    }
    untimed.timings.clone_from(&cold.timings);
    same("untimed vs timed run", &untimed, &cold)?;
    let saturated = cfg.forward == ForwardModel::Pipelined { per_hop: u64::MAX };
    if cold.halted {
        check_against_golden(&cold, p, FUEL).map_err(|e| format!("golden: {e}"))?;
    } else if cold.cycles != cfg.max_cycles {
        return Err(format!(
            "golden: stopped at cycle {} without halting, budget {}",
            cold.cycles, cfg.max_cycles
        ));
    } else if cfg.max_cycles == GENEROUS && !saturated {
        return Err(format!("golden: did not halt within {GENEROUS} cycles"));
    } else {
        t.budget_expired += 1;
    }

    // 2. Cycle skip on against off, both engines.
    let no_skip = cfg.clone().without_cycle_skipping();
    let naive = Ultrascalar::new(no_skip.clone()).run_timed(p);
    same("cycle skip on vs off (Ultrascalar)", &cold, &naive)?;
    let base = BaselineOoO::new(cfg.clone()).run_timed(p);
    let naive = BaselineOoO::new(no_skip).run_timed(p);
    same("cycle skip on vs off (BaselineOoO)", &base, &naive)?;
    if saturated && !cold.halted {
        // A wedged window has no next event: skipping jumps straight
        // to the budget, which no tick-every-cycle loop could reach.
        let probe = ProcConfig {
            max_cycles: PROBE_BUDGET,
            ..cfg.clone()
        };
        let r = Ultrascalar::new(probe).run(p);
        if !r.halted {
            if r.cycles != PROBE_BUDGET {
                return Err(format!("skip probe stopped at cycle {}", r.cycles));
            }
            t.skip_probes += 1;
        }
    }

    // 3. Lane batch against serial runs.
    let mut lanes = workload::lane_variants(p, c.lanes, c.lane_seed);
    if c.wrong_path_only {
        // Registers whose initial value the committed path reads.
        let mut read = vec![false; p.num_regs];
        let mut written = read.clone();
        let (_, trace) = Interp::new(p, cfg.mem.words).run_traced(FUEL);
        for i in trace.iter().map(|rec| rec.instr) {
            for r in i.reads().into_iter().flatten() {
                read[r.index()] |= !written[r.index()];
            }
            if let Some(w) = i.writes() {
                written[w.index()] = true;
            }
        }
        for lane in &mut lanes {
            for (r, &live_in) in read.iter().enumerate() {
                if live_in {
                    lane.init_regs[r] = p.init_regs[r];
                }
            }
        }
    }
    let mut out = vec![RunResult::recording_timings(); lanes.len()];
    batcher.run_batch(&mut Ultrascalar::new(cfg.clone()), &lanes, &mut out);
    // Serial truth on one reused engine; check 4 pins reuse to cold.
    let mut serial = Ultrascalar::new(cfg.clone());
    let mut want = RunResult::recording_timings();
    for (l, (got, lane)) in out.iter().zip(&lanes).enumerate() {
        serial.run_reusing(lane, &mut want);
        same(
            &format!("lane {l} of {} vs serial", lanes.len()),
            got,
            &want,
        )?;
    }

    // 4. Warm engine against cold, after another program and again.
    let mut warm = Ultrascalar::new(cfg.clone());
    let mut out = RunResult::recording_timings();
    warm.run_reusing(prev, &mut out);
    warm.run_reusing(p, &mut out);
    same("warm engine after another program vs cold", &out, &cold)?;
    warm.run_reusing(p, &mut out);
    same(
        "warm engine rerunning the same program vs cold",
        &out,
        &cold,
    )?;

    // 5. US-I against the conventional baseline where E9 claims
    // identity: on the sampled config's projection to C = 1, no memory
    // renaming and single-cycle forwarding (the config itself when it
    // already lies there).
    let e9 = ProcConfig {
        cluster: 1,
        memory_renaming: false,
        forward: ForwardModel::SingleCycle,
        ..cfg.clone()
    };
    let (us, base) = if &e9 == cfg {
        t.baseline_native += 1;
        (cold, base)
    } else {
        (
            Ultrascalar::new(e9.clone()).run_timed(p),
            BaselineOoO::new(e9).run_timed(p),
        )
    };
    let differs = [
        ("halted", us.halted != base.halted),
        ("cycles", us.cycles != base.cycles),
        ("regs", us.regs != base.regs),
        ("mem", us.mem != base.mem),
        ("timings", us.recorded_timings() != base.recorded_timings()),
    ];
    if let Some((field, _)) = differs.iter().find(|(_, d)| *d) {
        return Err(format!(
            "US-I vs BaselineOoO at C = 1, no renaming, single-cycle \
             forwarding: `{field}` differs (cycles {} vs {})",
            us.cycles, base.cycles
        ));
    }
    Ok(())
}

/// Everything a replay needs, with the `.asm` dump written out.
fn failure_report(c: &Case, msg: &str) -> String {
    let (written, replay) = replay(
        &format!("differential-case-{}", c.index),
        &c.cfg,
        &c.program,
    );
    format!(
        "differential case {} (SEED {SEED:#x}) failed: {msg}\n\
         program: {}\nasm dump: {written}\nusim: {replay}\n\
         lanes: workload::lane_variants(program, {}, {:#x}), differing {}\n\
         config: {:#?}",
        c.index,
        c.origin,
        c.lanes,
        c.lane_seed,
        if c.wrong_path_only {
            "only in registers the committed path never reads"
        } else {
            "in every register but r0"
        },
        c.cfg
    )
}

/// Run [`check`] on a worker thread and wait at most [`DEADLINE`] for
/// it, so a case that hangs fails with its replay report instead of
/// stalling the suite. The batcher and tally travel to the worker and
/// back. A hung worker is left running (it cannot be joined) and keeps
/// them; the harness fails anyway, and the process exit ends it.
fn with_deadline(
    c: &Case,
    prev: &Program,
    mut batcher: LaneBatcher,
    mut tally: Tally,
) -> (Option<String>, LaneBatcher, Tally) {
    let (c, prev) = (c.clone(), prev.clone());
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            check(&c, &prev, &mut batcher, &mut tally)
        }));
        let msg = match outcome {
            Ok(result) => result.err(),
            Err(panic) => Some(format!(
                "panicked: {}",
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            )),
        };
        // The receiver is gone only if the deadline passed first.
        let _ = tx.send((msg, batcher, tally));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(done) => {
            worker
                .join()
                .expect("the worker catches the case's panics itself");
            done
        }
        Err(_) => (
            Some(format!("still running after {DEADLINE:?}: a hang")),
            LaneBatcher::new(),
            Tally::default(),
        ),
    }
}

#[test]
fn differential_harness() {
    let mut batcher = LaneBatcher::new();
    let mut tally = Tally::default();
    let mut offered = BTreeSet::new();
    let mut drawn = BTreeSet::new();
    let mut prev = case(CASES).program;
    for i in 0..CASES {
        let c = case(i);
        offered.extend(c.offered.iter().copied());
        drawn.extend(c.drawn.iter().copied());
        tally.rejected += c.rejected;
        let msg;
        (msg, batcher, tally) = with_deadline(&c, &prev, batcher, tally);
        if let Some(msg) = msg {
            panic!("{}", failure_report(&c, &msg));
        }
        prev = c.program;
    }

    // Proof that the fixed case set tested something.
    let missing: Vec<_> = offered.difference(&drawn).collect();
    assert!(
        missing.is_empty(),
        "sampler values never drawn: {missing:?}"
    );
    assert!(tally.rejected > 0, "validate() never filtered a draw");
    let lanes = *batcher.stats();
    assert!(lanes.batches > 0, "no group lane-batched: {lanes:?}");
    // A lock-step pass that lane 0 cannot verify, or that cannot place
    // the leader's schedule, demotes its group to correct serial runs,
    // which would hide a wrong lane engine from every check above.
    assert_eq!(lanes.fallback_verify, 0, "{lanes:?}");
    assert_eq!(lanes.fallback_structure, 0, "{lanes:?}");
    assert!(lanes.peels > 0, "no lane peeled: {lanes:?}");
    assert!(
        lanes.replay_peels > 0,
        "no lane peeled in replay: {lanes:?}"
    );
    assert!(tally.skip_probes > 0, "cycle skip never jumped a span");
    assert!(
        tally.baseline_native > 0,
        "no sampled config was one the baseline check applies to as drawn"
    );
    assert!(tally.usim_expressible > 0, "no case had a usim replay");
    assert!(tally.budget_expired > 0, "no run used its whole budget");
    let s = &tally.stats;
    for (what, n) in [
        ("mispredictions", s.mispredictions),
        ("store forwards", s.store_forwards),
        ("shared-ALU stalls", s.alu_stalls),
        ("bank conflicts", s.mem.bank_conflicts),
        ("link rejections", s.mem.link_rejections),
        ("cluster-cache hits", s.mem.cache_hits),
    ] {
        assert!(n > 0, "no case produced {what}");
    }
}
