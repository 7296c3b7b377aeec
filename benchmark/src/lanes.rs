//! `lane_pop`: a config-major design-space sweep through
//! `sweep::LanePool`, closed loop.
//!
//! Five kernels run under four configurations in populations of 64 and
//! of 32 seeds. Lock-step, epoch replay, the transpose escape and peels
//! do most of the work and the engine runs only each batch's leader.
//! The 32/64 split exposes batch-size effects, `spec_storm` under a
//! bimodal predictor shows divergence (replay peels), and the kernels
//! range from sharing all of their schedule to sharing part of it.
//!
//! The timed passes run the cells one after another on one thread, so a
//! cell's batch time does not depend on which cell another worker runs
//! beside it. The traced run adds a sweep of the same cells over
//! `parallel_map_with` workers, one per CPU, for `sweep.busy_frac`.

use std::time::Instant;

use ultrascalar::processor::check_against_golden;
use ultrascalar::{LaneBatchStats, PredictorKind, ProcConfig, Processor, RunResult, Ultrascalar};
use ultrascalar_bench::parallel_map_with;
use ultrascalar_bench::sweep::LanePool;
use ultrascalar_isa::Program;

use crate::calib::{HostClock, Job};
use crate::report::{frac, Outcome};
use crate::stats::{geomean, median, Digest};
use crate::suite::{self, Counts, WindowCost, MAX_STEPS};
use crate::{gen, timed_passes, trace, Opts, Setups};

/// Population sizes.
pub const SIZES: [usize; 2] = [64, 32];

/// Times over each cell is swept in the traced run's parallel sweep.
const SWEEP_REPEATS: usize = 3;

/// usi64 perfect, usi64 bimodal(64), usii64, hybrid64/C=16 bimodal(64).
pub fn configs() -> Vec<ProcConfig> {
    let bimodal = PredictorKind::Bimodal(64);
    let mut cfgs = vec![
        ProcConfig::ultrascalar_i(64),
        ProcConfig::ultrascalar_i(64).with_predictor(bimodal),
        ProcConfig::ultrascalar_ii(64),
        ProcConfig::hybrid(64, 16).with_predictor(bimodal),
    ];
    for c in &mut cfgs {
        c.mem.words = 1024;
    }
    cfgs
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    index: usize,
    kernel: usize,
    cfg: usize,
    size: usize,
}

struct Inputs {
    populations: Vec<Vec<Program>>,
    configs: Vec<ProcConfig>,
}

/// A sweep worker's engines.
struct Worker {
    pool: LanePool,
    results: Vec<RunResult>,
    /// One plain engine per configuration, for timing batch leaders alone.
    solo: Vec<Ultrascalar>,
}

impl Worker {
    fn new(configs: &[ProcConfig]) -> Worker {
        Worker {
            pool: LanePool::new(),
            results: vec![RunResult::default(); SIZES[0]],
            solo: configs.iter().cloned().map(Ultrascalar::new).collect(),
        }
    }
}

/// The inputs, and a worker warmed on every configuration.
fn setup(seed: u64) -> Result<(Inputs, Worker), String> {
    let mut populations = Vec::new();
    for k in &gen::LANE {
        let base = suite::assemble(&k.text(seed, 0), k.regs)?;
        let mut rng = gen::Rng::new(seed, &format!("lanes.{}", k.name));
        let pop: Vec<Program> = (0..SIZES[0])
            .map(|lane| {
                base.clone()
                    .with_init_regs(gen::lane_regs(k.regs, lane, &mut rng))
            })
            .collect();
        populations.push(pop);
    }
    let configs = configs();
    let mut w = Worker::new(&configs);
    let refs: Vec<&Program> = populations[0].iter().collect();
    for (c, cfg) in configs.iter().enumerate() {
        w.pool.run_population(cfg, &refs, &mut w.results);
        w.solo[c].run_reusing(&populations[0][0], &mut w.results[0]);
    }
    Ok((
        Inputs {
            populations,
            configs,
        },
        w,
    ))
}

/// What one cell of one pass produced.
#[derive(Default)]
struct CellOut {
    batch_ns: f64,
    leader_ns: f64,
    leader_cycles: u64,
    instrs: u64,
    leader_instrs: u64,
    digest: u64,
    lanes: LaneBatchStats,
    counts: Counts,
    ipcs: Vec<f64>,
    golden_ns: f64,
    failures: Vec<String>,
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (mut setups, (inputs, mut worker)) = Setups::first(opts, || setup(opts.seed))?;
    let mut clock = HostClock::new(Job::Interpreter)?;
    let mut out = Outcome::default();
    let mut cells = Vec::new();
    for cfg in 0..inputs.configs.len() {
        for kernel in 0..gen::LANE.len() {
            for size in SIZES {
                cells.push(Cell {
                    index: cells.len(),
                    kernel,
                    cfg,
                    size,
                });
            }
        }
    }
    let mut cell_digests: Vec<u64> = Vec::new();
    let mut cell_instrs = Vec::new();
    let mut cell_ns: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut mips = [Vec::new(), Vec::new()];
    let mut batch_ms = Vec::new();
    let mut first = CellOut::default();
    let mut traced_cells: Vec<(usize, CellOut)> = Vec::new();
    let mut attempted = 0u64;
    let passes = timed_passes(opts, |pass| {
        let traced = trace::active();
        let pass_span = trace::begin("bench.pass", 0);
        let (mut pass_ns, mut pass_instrs) = (0.0, 0u64);
        for (i, cell) in cells.iter().enumerate() {
            let mut o = run_cell(&mut worker, &inputs, cell, pass, traced, pass_span.id());
            clock.burst();
            pass_ns += o.batch_ns;
            pass_instrs += o.instrs;
            attempted += cell.size as u64;
            cell_ns[i].push(o.batch_ns);
            batch_ms.push(o.batch_ns / 1e6);
            for f in o.failures.drain(..) {
                out.fail(f);
            }
            if pass == 0 {
                cell_digests.push(o.digest);
                cell_instrs.push(o.instrs as f64);
                first.lanes.merge(&o.lanes);
                first.counts.merge(&o.counts);
                first.ipcs.append(&mut o.ipcs);
                first.golden_ns += o.golden_ns;
            } else if o.digest != cell_digests[i] {
                out.fail(format!("cell {i} of pass {pass} differs from pass 0"));
            }
            if traced {
                traced_cells.push((i, o));
            }
        }
        pass_span.end();
        mips[traced as usize].push(pass_instrs as f64 * 1e3 / pass_ns);
        setups.again_if_due(|| setup(opts.seed))
    })?;

    out.attempted = attempted;
    let mut digest = Digest::default();
    for d in &cell_digests {
        digest.word(*d);
    }
    out.digest = digest.0;
    let untraced = &mips[0];
    let slowdown = clock.slowdown();
    out.put("host.slowdown", slowdown, "x", clock.bursts.len());
    setups.put(&mut out);
    let typical = crate::typical(opts, &cell_ns)?;
    let sim_mips = cell_instrs.iter().sum::<f64>() / typical.iter().sum::<f64>() * 1e3;
    out.put_host(
        "sim_mips",
        sim_mips,
        true,
        slowdown,
        "Minstr/s",
        batch_ms.len(),
    );
    let lat_ms = geomean(&typical) / 1e6;
    out.put_host("lat_ms", lat_ms, false, slowdown, "ms", batch_ms.len());
    out.put("peak_rss_mb", crate::stats::peak_rss_mb("self")?, "MB", 1);
    out.put(
        "ipc_geomean",
        geomean(&first.ipcs),
        "instr/cycle",
        first.ipcs.len(),
    );
    out.put_tail("sim_mips_p10", untraced, 10.0, "Minstr/s");
    out.put("lat_p50_ms", median(&batch_ms), "ms", batch_ms.len());
    out.put_tail("lat_p99_ms", &batch_ms, 99.0, "ms");
    out.notes
        .push(format!("{passes} passes of {} cells", cells.len()));
    if opts.trace {
        let busy = sweep_busy_frac(&inputs, &cells, &cell_digests, &mut out);
        let (spans, _) = trace::snapshot();
        suite::put_engine_times(opts, &mut out, &spans)?;
        first.counts.put(&mut out);
        let (leader_ns, leader_cycles): (f64, u64) =
            traced_cells.iter().fold((0.0, 0), |(n, c), (_, o)| {
                (n + o.leader_ns, c + o.leader_cycles)
            });
        suite::put_window_costs(
            &mut out,
            &[(
                64,
                WindowCost {
                    ns: leader_ns,
                    cycles: leader_cycles,
                },
            )],
        );
        suite::put_isa(&mut out, &spans, first.golden_ns);
        suite::put_overhead(&mut out, &mips);
        put_lane_metrics(
            &mut out,
            &inputs,
            &cells,
            &cell_ns,
            &traced_cells,
            &first.lanes,
        );
        out.put("sweep.busy_frac", busy, "frac", SWEEP_REPEATS * cells.len());
    }
    out.bypassed = &["pool.", "isa.cache", "serve.", "loadgen."];
    Ok(out)
}

/// Sweep every cell [`SWEEP_REPEATS`] times over `parallel_map_with`
/// workers (one per CPU, each starting cold), checking each result
/// against pass 0; returns Σ batch time / (wall time × workers).
fn sweep_busy_frac(inputs: &Inputs, cells: &[Cell], digests: &[u64], out: &mut Outcome) -> f64 {
    let items: Vec<&Cell> = (0..SWEEP_REPEATS).flat_map(|_| cells).collect();
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    trace::set_active(true);
    let span = trace::begin("bench.sweep", 0);
    let t0 = Instant::now();
    let outs = parallel_map_with(
        &items,
        || Worker::new(&inputs.configs),
        |w, cell| run_cell(w, inputs, cell, 1, false, span.id()),
    );
    let wall = t0.elapsed().as_nanos() as f64;
    span.end();
    trace::set_active(false);
    for (cell, o) in items.iter().zip(&outs) {
        out.attempted += cell.size as u64;
        if o.digest != digests[cell.index] {
            out.fail(format!(
                "cell {} of the parallel sweep differs from pass 0",
                cell.index
            ));
        }
    }
    let busy: f64 = outs.iter().map(|o| o.batch_ns).sum();
    frac(busy, wall * workers as f64)
}

fn run_cell(
    w: &mut Worker,
    s: &Inputs,
    cell: &Cell,
    pass: usize,
    traced: bool,
    parent: u64,
) -> CellOut {
    let item = trace::begin_req("bench.sweep.item", parent, cell.index as u64);
    let cfg = &s.configs[cell.cfg];
    let programs: Vec<&Program> = s.populations[cell.kernel][..cell.size].iter().collect();
    let results = &mut w.results[..cell.size];
    let before = w.pool.stats();
    let span = trace::begin("bench.sweep.run_population", item.id());
    let t0 = Instant::now();
    w.pool.run_population(cfg, &programs, results);
    let batch_ns = t0.elapsed().as_nanos() as f64;
    span.end();
    let mut o = CellOut {
        batch_ns,
        lanes: w.pool.stats().delta_since(&before),
        ..CellOut::default()
    };

    let verify = trace::begin("bench.verify", item.id());
    let mut digest = Digest::default();
    for (lane, r) in results.iter().enumerate() {
        digest.run(r);
        o.instrs += r.stats.committed;
        if pass == 0 {
            o.counts.add(r);
            o.ipcs.push(r.ipc());
            let t0 = Instant::now();
            let g = trace::begin("isa.golden", verify.id());
            let golden = check_against_golden(r, programs[lane], MAX_STEPS);
            g.end();
            o.golden_ns += t0.elapsed().as_nanos() as f64;
            if let Err(e) = golden {
                o.failures.push(format!(
                    "{} lane {lane} on config {}: {e}",
                    gen::LANE[cell.kernel].name,
                    cell.cfg
                ));
            }
        }
    }
    o.leader_instrs = results[0].stats.committed;
    o.digest = digest.0;
    verify.end();

    if traced {
        let span = trace::begin("core.engine.run", item.id());
        let t0 = Instant::now();
        w.solo[cell.cfg].run_reusing(programs[0], &mut w.results[0]);
        o.leader_ns = t0.elapsed().as_nanos() as f64;
        span.end();
        o.leader_cycles = w.results[0].cycles;
    }
    item.end();
    o
}

fn put_lane_metrics(
    out: &mut Outcome,
    s: &Inputs,
    cells: &[Cell],
    cell_ns: &[Vec<f64>],
    traced: &[(usize, CellOut)],
    first: &LaneBatchStats,
) {
    let (leader, batch) = traced.iter().fold((0.0, 0.0), |(l, b), (_, o)| {
        (l + o.leader_ns, b + o.batch_ns)
    });
    out.put(
        "lane.leader_share",
        frac(leader, batch),
        "frac",
        traced.len(),
    );
    for size in SIZES.iter().rev() {
        let (instrs, ns) = traced.iter().filter(|(i, _)| cells[*i].size == *size).fold(
            (0.0, 0.0),
            |(n, t), (_, o)| {
                (
                    n + (o.instrs - o.leader_instrs) as f64,
                    t + (o.batch_ns - o.leader_ns),
                )
            },
        );
        out.put(
            &format!("lane.lockstep_mips.b{size}"),
            frac(instrs * 1e3, ns),
            "Minstr/s",
            traced.len(),
        );
        out.put(
            &format!("lane.lockstep_ns_per_lane_instr.b{size}"),
            frac(ns, instrs),
            "ns",
            traced.len(),
        );
    }
    let lanes = (first.lane_runs + first.peels) as f64;
    out.put(
        "lane.useful_frac",
        frac(first.lane_runs as f64, lanes),
        "frac",
        1,
    );
    out.put("lane.replay_peels", first.replay_peels as f64, "count", 1);
    out.put(
        "lane.epochs_per_batch",
        frac(first.epochs as f64, first.batches as f64),
        "count",
        1,
    );
    out.put("lane.fallbacks", first.fallbacks as f64, "count", 1);

    // One serial population per cell, untimed by the sweep, against the
    // median batch time of the same cell.
    let mut engines: Vec<Ultrascalar> = s.configs.iter().cloned().map(Ultrascalar::new).collect();
    let mut r = RunResult::default();
    for e in &mut engines {
        e.run_reusing(&s.populations[0][0], &mut r);
    }
    let (mut serial, mut batched) = (0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        let t0 = Instant::now();
        for p in &s.populations[cell.kernel][..cell.size] {
            engines[cell.cfg].run_reusing(p, &mut r);
        }
        serial += t0.elapsed().as_nanos() as f64;
        batched += median(&cell_ns[i]);
    }
    out.put(
        "lane.speedup_vs_serial",
        frac(serial, batched),
        "x",
        cells.len(),
    );
}
