//! Frozen schedules: every observable field of a run — cycles, halt,
//! registers, memory, every `ProcStats` counter and histogram, every
//! per-instruction timing — folded into one FNV-64 digest per
//! (configuration corner, program) and compared against digests
//! recorded in `data/frozen_schedules.txt`.
//!
//! The corners are the feature interactions the engine's program-order
//! walk has to get right: memory-renaming store resolution, shared
//! ALUs, latency-bearing memory, fetch caps, no cycle skipping, and
//! pipelined forwarding across windows (1 to 7 H-tree hop levels) and
//! per-hop costs from 0 to the saturating `u64` extremes, plus windows
//! of 64 to 256 stations, as wide as or wider than one 64-bit word.
//! Four of those wide corners put the window on a memory network (US-II
//! w128 on the butterfly; the hybrid w256/C = 64 with renaming and
//! cluster caches on the fat tree; US-I w128 with renaming on the
//! butterfly; US-II w64 with renaming, two shared ALUs and one-cycle
//! hops on the fat tree), so memory ops wait on all-earlier lanes
//! across bitset words and requests are rejected and re-offered, also
//! outside the hybrid under renaming. Two window-24 corners size every
//! table that is indexed by a remainder or quotient off a power of two
//! (bimodal entries, banks, memory words, cache lines and groups,
//! butterfly ports). Each of the 46 corners runs 20
//! seeded random programs at every register-file width regime (6, 65,
//! 128 and 256 registers) plus the 14 standard kernels: 4324 cases. A
//! schedule change anywhere — a cycle, a slot, a forwarding distance —
//! changes a digest.
//!
//! Each line also records the case's cycle and committed-instruction
//! counts, printed beside the digests when a case drifts. The first
//! drifts also print the case's `.asm` dump and the `usim run` line
//! that replays it, or that its corner has no `usim` equivalent. A
//! case runs with a cycle budget of twice its recorded cycles plus
//! [`BUDGET_MARGIN`] (capped by its corner's own `max_cycles`): a run
//! that halted before ends the same way under that budget, and a change
//! that deadlocks stops there instead of running to the corner's
//! budget. A change that loops inside one cycle never reaches a budget:
//! a watchdog names the case and ends the test binary after [`HANG`].
//!
//! The two path-selection diagnostics `packed_fallbacks` and
//! `packed_shape_gated` are not schedule data; they are kept out of the
//! digest and pinned at zero instead.

use std::collections::HashMap;
use std::io::Write;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use ultrascalar::{
    ForwardModel, LatencyModel, PredictorKind, ProcConfig, ProcStats, Processor, RunResult,
    Ultrascalar,
};
use ultrascalar_isa::{workload, AluOp, BranchCond, Instr, Program, Reg};
use ultrascalar_memsys::{CacheConfig, MemConfig, MemStats, NetworkKind};

mod common;
use common::replay;

const FROZEN: &str = include_str!("data/frozen_schedules.txt");

/// Register-file widths: one lane word, the first lane of a second
/// word, an exact two-word boundary and the ISA's maximum.
const WIDTHS: [usize; 4] = [6, 65, 128, 256];

/// Random programs per (corner, width).
const PROGRAMS: u32 = 20;

/// Cycles a case may run past twice its recorded count.
const BUDGET_MARGIN: u64 = 1000;

/// Drifted cases a failure prints, each with its replay line.
const REPLAYED: usize = 8;

/// Wall time one case may run before its group's watchdog ends the
/// test binary: a change that loops inside one cycle never reaches the
/// cycle budget.
const HANG: Duration = Duration::from_secs(60);

/// Until `stop` disconnects, check every second how long the group's
/// current case (`running`: its key, and when it started) has run; past
/// [`HANG`], print its key and end the process.
fn watchdog(running: &Mutex<(String, Instant)>, stop: mpsc::Receiver<()>) {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(Duration::from_secs(1)) {
        let (key, since) = &*running.lock().expect("no case panics holding the lock");
        if since.elapsed() > HANG {
            // Past the test harness's output capture, which `exit` drops.
            let msg = format!("{key}: still running after {HANG:?}, a hang inside a cycle\n");
            let _ = std::io::stderr().write_all(msg.as_bytes());
            std::process::exit(101);
        }
    }
}

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_program(rng: &mut Rng, nregs: usize) -> Program {
    let len = 12 + rng.below(20) as usize;
    let mut instrs = Vec::new();
    for i in 0..len {
        let r = |rng: &mut Rng| Reg(rng.below(nregs as u64) as u8);
        match rng.below(10) {
            0..=2 => instrs.push(Instr::AluImm {
                op: [AluOp::Add, AluOp::Sub, AluOp::Xor][rng.below(3) as usize],
                rd: r(rng),
                rs1: r(rng),
                imm: rng.below(32) as i32,
            }),
            3..=4 => instrs.push(Instr::Alu {
                op: [AluOp::Add, AluOp::Mul, AluOp::And, AluOp::Div][rng.below(4) as usize],
                rd: r(rng),
                rs1: r(rng),
                rs2: r(rng),
            }),
            5 => instrs.push(Instr::Load {
                rd: r(rng),
                base: r(rng),
                offset: rng.below(16) as i32,
            }),
            6 => instrs.push(Instr::Store {
                src: r(rng),
                base: r(rng),
                offset: rng.below(16) as i32,
            }),
            7 => instrs.push(Instr::LoadImm {
                rd: r(rng),
                imm: rng.below(64) as i32,
            }),
            8 => {
                // Forward branch only (termination guaranteed).
                let tgt = (i as u64 + 1 + rng.below(4)).min(len as u64) as u32;
                instrs.push(Instr::Branch {
                    cond: [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt][rng.below(3) as usize],
                    rs1: r(rng),
                    rs2: r(rng),
                    target: tgt,
                });
            }
            _ => instrs.push(Instr::Nop),
        }
    }
    instrs.push(Instr::Halt);
    Program {
        instrs,
        num_regs: nregs,
        init_regs: (0..nregs as u32).map(|x| x * 3 + 1).collect(),
        init_mem: (0..32).map(|x| x as u32 * 7 + 2).collect(),
    }
}

/// The feature-interaction corners.
fn feature_corners() -> Vec<(String, ProcConfig)> {
    let lat = LatencyModel {
        branch: 2,
        ..LatencyModel::default()
    };
    vec![
        (
            "us1-plain".into(),
            ProcConfig::ultrascalar_i(8)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_latency(lat),
        ),
        (
            "us1-renaming-realmem".into(),
            ProcConfig::ultrascalar_i(8)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_mem(MemConfig::realistic(8, 1 << 16))
                .with_latency(lat),
        ),
        (
            "hybrid-all".into(),
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_shared_alus(2)
                .with_fetch_width(3)
                .with_latency(lat),
        ),
        (
            "us2-pipelined".into(),
            ProcConfig::ultrascalar_ii(8)
                .with_predictor(PredictorKind::NotTaken)
                .with_forwarding(ForwardModel::Pipelined { per_hop: 2 })
                .with_memory_renaming()
                .with_latency(lat),
        ),
        (
            "us1-noskip".into(),
            ProcConfig::ultrascalar_i(8)
                .with_predictor(PredictorKind::Taken)
                .with_shared_alus(1)
                .without_cycle_skipping()
                .with_latency(lat),
        ),
        (
            "hybrid-cache-butterfly".into(),
            ProcConfig::hybrid(16, 4)
                .with_predictor(PredictorKind::Btfn)
                .with_mem(
                    MemConfig::realistic(16, 1 << 12)
                        .with_network(NetworkKind::Butterfly)
                        .with_cluster_cache(CacheConfig::small(4)),
                ),
        ),
    ]
}

/// Pipelined-forwarding corners: windows spanning 1 to 7 hop levels
/// × per-hop costs, the saturating extremes (a huge hop cost must pin
/// the readiness horizon at "never", not wrap it into the past), and
/// renaming under US-II and the hybrid.
fn pipelined_corners() -> Vec<(String, ProcConfig)> {
    let lat = LatencyModel {
        branch: 2,
        ..LatencyModel::default()
    };
    let mut out = Vec::new();
    for window in [1usize, 2, 8, 16, 64] {
        for per_hop in [0u64, 1, 2, 7] {
            out.push((
                format!("us1-w{window}-hop{per_hop}"),
                ProcConfig::ultrascalar_i(window)
                    .with_predictor(PredictorKind::Bimodal(16))
                    .with_forwarding(ForwardModel::Pipelined { per_hop })
                    .with_latency(lat),
            ));
        }
    }
    for per_hop in [u64::MAX, u64::MAX / 2, u64::MAX / 3, 1u64 << 62] {
        for window in [2usize, 8] {
            let cfg = ProcConfig {
                max_cycles: 20_000,
                ..ProcConfig::ultrascalar_i(window)
            };
            out.push((
                format!("sat-w{window}-hop{per_hop:x}"),
                cfg.with_forwarding(ForwardModel::Pipelined { per_hop }),
            ));
        }
    }
    out.push((
        "us2-renaming-hop3".into(),
        ProcConfig::ultrascalar_ii(8)
            .with_memory_renaming()
            .with_forwarding(ForwardModel::Pipelined { per_hop: 3 }),
    ));
    for per_hop in [1u64, 4] {
        out.push((
            format!("hybrid-renaming-hop{per_hop}"),
            ProcConfig::hybrid(16, 4)
                .with_memory_renaming()
                .with_forwarding(ForwardModel::Pipelined { per_hop }),
        ));
    }
    out
}

/// Windows wider than one 64-bit word, so a per-slot bitset over the
/// ring spans several words and the program-order walk wraps around
/// the ring across a word boundary. The non-power-of-two window leaves
/// the last word partial. The last four run on a memory network: held
/// loads and stores, link rejections, and under renaming loads held on
/// unresolved store addresses and in-flight stores under renaming.
fn wide_corners() -> Vec<(String, ProcConfig)> {
    let lat = LatencyModel {
        branch: 2,
        ..LatencyModel::default()
    };
    vec![
        (
            "us1-w200".into(),
            ProcConfig::ultrascalar_i(200)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_mem(MemConfig::realistic(200, 1 << 16))
                .with_latency(lat),
        ),
        (
            "hybrid-w96-c32".into(),
            ProcConfig::hybrid(96, 32)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_shared_alus(2)
                .with_latency(lat),
        ),
        (
            "us2-w256".into(),
            ProcConfig::ultrascalar_ii(256)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_forwarding(ForwardModel::Pipelined { per_hop: 1 })
                .with_memory_renaming()
                .with_latency(lat),
        ),
        (
            "us2-w128-butterfly".into(),
            ProcConfig::ultrascalar_ii(128)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_mem(MemConfig::realistic(128, 1 << 16).with_network(NetworkKind::Butterfly))
                .with_latency(lat),
        ),
        (
            "hybrid-w256-c64-cache".into(),
            ProcConfig::hybrid(256, 64)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_mem(
                    MemConfig::realistic(256, 1 << 16).with_cluster_cache(CacheConfig::small(4)),
                )
                .with_latency(lat),
        ),
        (
            "us1-w128-renaming-butterfly".into(),
            ProcConfig::ultrascalar_i(128)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_mem(MemConfig::realistic(128, 1 << 16).with_network(NetworkKind::Butterfly))
                .with_latency(lat),
        ),
        (
            "us2-w64-renaming-alus-hop1".into(),
            ProcConfig::ultrascalar_ii(64)
                .with_predictor(PredictorKind::Bimodal(16))
                .with_memory_renaming()
                .with_shared_alus(2)
                .with_forwarding(ForwardModel::Pipelined { per_hop: 1 })
                .with_mem(MemConfig::realistic(64, 1 << 16))
                .with_latency(lat),
        ),
    ]
}

/// Sizes that are not powers of two, so an index a mask computes in
/// place of a remainder or quotient moves a schedule: a 13-entry
/// bimodal table, 12 banks over 1 000 words, a 48-line cluster cache in
/// 3 groups, and a window-24 butterfly, whose √n bandwidth gives 5
/// ports over 32 padded positions.
fn odd_corners() -> Vec<(String, ProcConfig)> {
    // √n bandwidth and 24 / 2 = 12 banks.
    let mem = |network| MemConfig::realistic(24, 1000).with_network(network);
    let cache = CacheConfig {
        groups: 3,
        lines: 48,
        hit_latency: 1,
    };
    vec![
        (
            "hybrid-w24-c6-odd-cache".into(),
            ProcConfig::hybrid(24, 6)
                .with_predictor(PredictorKind::Bimodal(13))
                .with_memory_renaming()
                .with_mem(mem(NetworkKind::FatTree).with_cluster_cache(cache)),
        ),
        (
            "us1-w24-odd-butterfly".into(),
            ProcConfig::ultrascalar_i(24)
                .with_predictor(PredictorKind::Bimodal(13))
                .with_mem(mem(NetworkKind::Butterfly)),
        ),
    ]
}

fn corners() -> Vec<(String, ProcConfig)> {
    let mut out = feature_corners();
    out.extend(pipelined_corners());
    out.extend(wide_corners());
    out.extend(odd_corners());
    out
}

/// The programs of one group: `PROGRAMS` seeded random programs at one
/// register width, or (`None`) the standard kernel suite.
fn programs(width: Option<usize>) -> Vec<(String, Program)> {
    match width {
        Some(nregs) => {
            let mut rng = Rng(0xF02E_5EED ^ nregs as u64);
            let mut out = Vec::new();
            let mut i = 0u32;
            while i < PROGRAMS {
                let p = random_program(&mut rng, nregs);
                if p.validate().is_ok() {
                    out.push((format!("L{nregs}-{i}"), p));
                    i += 1;
                }
            }
            out
        }
        None => workload::standard_suite(6)
            .into_iter()
            .map(|(name, p)| (name.to_string(), p))
            .collect(),
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);
impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }
}

/// Digest of every schedule-bearing field of a run. The destructuring
/// is exhaustive, so a new result field fails to compile here until it
/// is either folded in or explicitly excluded.
fn digest(r: &RunResult) -> u64 {
    let RunResult {
        halted,
        cycles,
        regs,
        mem,
        stats,
        timings,
    } = r;
    let ProcStats {
        cycles: stat_cycles,
        committed,
        branches,
        mispredictions,
        flushed,
        occupancy_sum,
        forward_dist,
        regfile_reads,
        issue_hist,
        store_forwards,
        alu_stalls,
        packed_fallbacks: _,
        packed_shape_gated: _,
        mem: mem_stats,
    } = stats;
    let MemStats {
        admitted,
        link_rejections,
        bank_conflicts,
        loads,
        stores,
        cache_hits,
        cache_misses,
    } = *mem_stats;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(*halted as u64);
    h.word(*cycles);
    h.words(regs.iter().map(|&v| v as u64));
    h.words(mem.iter().map(|&v| v as u64));
    for w in [
        *stat_cycles,
        *committed,
        *branches,
        *mispredictions,
        *flushed,
        *occupancy_sum,
        *regfile_reads,
        *store_forwards,
        *alu_stalls,
        admitted,
        link_rejections,
        bank_conflicts,
        loads,
        stores,
        cache_hits,
        cache_misses,
    ] {
        h.word(w);
    }
    h.words(forward_dist.iter().copied());
    h.words(issue_hist.iter().copied());
    let timings = timings.as_deref().expect("frozen runs record timings");
    h.word(timings.len() as u64);
    for x in timings {
        for w in [
            x.seq,
            x.pc as u64,
            ultrascalar_isa::encode(&x.instr),
            x.fetched,
            x.issue,
            x.complete,
            x.slot as u64,
        ] {
            h.word(w);
        }
    }
    h.0
}

/// A case's recorded or current outcome: cycles, committed
/// instructions and digest.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Outcome {
    cycles: u64,
    committed: u64,
    digest: u64,
}

impl Outcome {
    fn of(r: &RunResult) -> Self {
        Outcome {
            cycles: r.cycles,
            committed: r.stats.committed,
            digest: digest(r),
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        let (d, c, k) = (self.digest, self.cycles, self.committed);
        write!(f, "{d:016x} ({c} cycles, {k} committed)")
    }
}

/// Run every corner × program of one group, with the path-selection
/// diagnostics pinned at zero, and report each case whose outcome is
/// not the one in `frozen`. A frozen case runs with a budget of twice
/// its recorded cycles plus [`BUDGET_MARGIN`]; the first
/// [`REPLAYED`] drifts also name the `usim run` line that replays them.
/// A case that runs for [`HANG`] ends the test binary.
fn drifts(width: Option<usize>, frozen: &HashMap<&str, Outcome>) -> Vec<String> {
    let running = Mutex::new(("(setup)".to_string(), Instant::now()));
    let (stop, stopped) = mpsc::channel();
    thread::scope(|scope| {
        scope.spawn(|| watchdog(&running, stopped));
        // Dropped on return or unwind, which ends the watchdog.
        let _stop = stop;
        run_cases(width, frozen, &running)
    })
}

/// [`drifts`] without its watchdog: `running` names each case as it
/// starts.
fn run_cases(
    width: Option<usize>,
    frozen: &HashMap<&str, Outcome>,
    running: &Mutex<(String, Instant)>,
) -> Vec<String> {
    let progs = programs(width);
    let mut out = Vec::new();
    for (corner, cfg) in corners() {
        let mut r = RunResult::recording_timings();
        for (name, p) in &progs {
            let key = format!("{corner} {name}");
            *running.lock().expect("the watchdog only reads") = (key.clone(), Instant::now());
            let want = frozen.get(key.as_str()).copied();
            let budget = want.map_or(u64::MAX, |o| 2 * o.cycles + BUDGET_MARGIN);
            let cfg = ProcConfig {
                max_cycles: cfg.max_cycles.min(budget),
                ..cfg.clone()
            };
            Ultrascalar::new(cfg.clone()).run_reusing(p, &mut r);
            assert_eq!(r.stats.packed_fallbacks, 0, "{key}: packed_fallbacks");
            assert_eq!(r.stats.packed_shape_gated, 0, "{key}: packed_shape_gated");
            let now = Outcome::of(&r);
            let Some(want) = want else {
                out.push(format!("{key}: missing from the frozen file"));
                continue;
            };
            if want != now {
                let mut report = format!("{key}: frozen {want}, now {now}");
                if out.len() < REPLAYED {
                    let (asm, usim) = replay(&format!("frozen-{corner}-{name}"), &cfg, p);
                    report += &format!("\n  asm dump: {asm}\n  usim: {usim}");
                }
                out.push(report);
            }
        }
    }
    out
}

fn frozen() -> HashMap<&'static str, Outcome> {
    FROZEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut fields = l.rsplitn(4, ' ');
            let mut next = || {
                fields
                    .next()
                    .expect("`<corner> <program> <cycles> <committed> <digest>`")
            };
            let digest = u64::from_str_radix(next(), 16).expect("hex digest");
            let committed = next().parse().expect("committed count");
            let cycles = next().parse().expect("cycle count");
            (
                next(),
                Outcome {
                    cycles,
                    committed,
                    digest,
                },
            )
        })
        .collect()
}

fn check_group(width: Option<usize>) {
    let drifted = drifts(width, &frozen());
    assert!(
        drifted.is_empty(),
        "{} schedules drifted, first:\n{}",
        drifted.len(),
        drifted[..drifted.len().min(REPLAYED)].join("\n")
    );
}

#[test]
fn frozen_random_programs_6_regs() {
    check_group(Some(6));
}

#[test]
fn frozen_random_programs_65_regs() {
    check_group(Some(65));
}

#[test]
fn frozen_random_programs_128_regs() {
    check_group(Some(128));
}

#[test]
fn frozen_random_programs_256_regs() {
    check_group(Some(256));
}

#[test]
fn frozen_standard_suite() {
    check_group(None);
}

/// The frozen file holds exactly the cases the groups above check — no
/// stale entries that nothing compares any more.
#[test]
fn frozen_file_matches_the_case_list() {
    let cases = corners().len() * (WIDTHS.len() * PROGRAMS as usize + programs(None).len());
    assert_eq!(frozen().len(), cases);
}
