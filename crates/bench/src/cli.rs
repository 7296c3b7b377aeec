//! Argument parsing and execution for the `usim` command-line driver.
//!
//! Hand-rolled parsing (no CLI dependency): `usim run prog.asm
//! --arch hybrid --window 32 --cluster 8 --predictor bimodal:64
//! --diagram`. The parser lives in the library so it is unit-testable;
//! the binary is a thin wrapper.

use ultrascalar::{
    render_station_occupancy, render_timing_diagram, ForwardModel, PredictorKind, ProcConfig,
    Processor, RunResult, Ultrascalar,
};
use ultrascalar_isa::{assemble, disassemble, read_binary, write_binary, Program};
use ultrascalar_memsys::{Bandwidth, CacheConfig, MemConfig, NetworkKind};

/// Which processor topology to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchChoice {
    /// Ultrascalar I (`C = 1`).
    UsI,
    /// Ultrascalar II (`C = n`).
    UsII,
    /// Hybrid with an explicit cluster size.
    Hybrid,
}

/// Parsed `usim run` options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Assembly source path.
    pub path: String,
    /// Topology.
    pub arch: ArchChoice,
    /// Window size `n`.
    pub window: usize,
    /// Cluster size (hybrid only; defaults to `max(1, n/4)`).
    pub cluster: Option<usize>,
    /// Branch predictor.
    pub predictor: PredictorKind,
    /// Shared-ALU pool.
    pub alus: Option<usize>,
    /// Memory bandwidth exponent `p` in `M(s) = s^p`.
    pub mem_exp: f64,
    /// Interconnect.
    pub network: NetworkKind,
    /// Memory renaming.
    pub renaming: bool,
    /// Distributed cluster caches.
    pub cache: bool,
    /// Fetch-width cap.
    pub fetch_width: Option<usize>,
    /// Pipelined forwarding per-hop cost.
    pub per_hop: Option<u64>,
    /// Logical register count the program is assembled for.
    pub regs: usize,
    /// Print the Figure 3 timing diagram.
    pub diagram: bool,
    /// Print the station-occupancy trace.
    pub occupancy: bool,
    /// Print final register values.
    pub show_regs: bool,
    /// Cycle budget.
    pub max_cycles: u64,
}

/// The default `--max-cycles` budget (`usim run` takes any larger one;
/// `usim serve` caps requests at it).
pub const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            path: String::new(),
            arch: ArchChoice::UsI,
            window: 16,
            cluster: None,
            predictor: PredictorKind::Bimodal(256),
            alus: None,
            mem_exp: 1.0,
            network: NetworkKind::FatTree,
            renaming: false,
            cache: false,
            fetch_width: None,
            per_hop: None,
            regs: 32,
            diagram: false,
            occupancy: false,
            show_regs: false,
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }
}

/// Parse an `--arch` value (shared by `usim run` and `usim serve`
/// request options).
pub fn parse_arch(v: &str) -> Result<ArchChoice, String> {
    match v {
        "usi" | "ultrascalar-i" | "i" => Ok(ArchChoice::UsI),
        "usii" | "ultrascalar-ii" | "ii" => Ok(ArchChoice::UsII),
        "hybrid" => Ok(ArchChoice::Hybrid),
        x => Err(format!("unknown arch `{x}` (usi|usii|hybrid)")),
    }
}

/// Parse a `--predictor` value (shared by `usim run` and `usim serve`
/// request options).
pub fn parse_predictor(v: &str) -> Result<PredictorKind, String> {
    match v {
        "perfect" => Ok(PredictorKind::Perfect),
        "nottaken" | "not-taken" => Ok(PredictorKind::NotTaken),
        "taken" => Ok(PredictorKind::Taken),
        "btfn" => Ok(PredictorKind::Btfn),
        other => match other.strip_prefix("bimodal:") {
            Some(k) => Ok(PredictorKind::Bimodal(
                k.parse().map_err(|_| "bad bimodal size".to_string())?,
            )),
            None => Err(format!("unknown predictor `{v}`")),
        },
    }
}

/// Parse `usim run` arguments (everything after the subcommand).
pub fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut o = RunOptions::default();
    let mut it = args.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                 flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--arch" => o.arch = parse_arch(&value(&mut it, "--arch")?)?,
            "--window" | "-n" => {
                o.window = value(&mut it, "--window")?
                    .parse()
                    .map_err(|_| "bad --window".to_string())?
            }
            "--cluster" | "-c" => {
                o.cluster = Some(
                    value(&mut it, "--cluster")?
                        .parse()
                        .map_err(|_| "bad --cluster".to_string())?,
                )
            }
            "--predictor" => o.predictor = parse_predictor(&value(&mut it, "--predictor")?)?,
            "--alus" => {
                o.alus = Some(
                    value(&mut it, "--alus")?
                        .parse()
                        .map_err(|_| "bad --alus".to_string())?,
                )
            }
            "--mem-exp" => {
                o.mem_exp = value(&mut it, "--mem-exp")?
                    .parse()
                    .map_err(|_| "bad --mem-exp".to_string())?
            }
            "--butterfly" => o.network = NetworkKind::Butterfly,
            "--renaming" => o.renaming = true,
            "--cache" => o.cache = true,
            "--fetch-width" => {
                o.fetch_width = Some(
                    value(&mut it, "--fetch-width")?
                        .parse()
                        .map_err(|_| "bad --fetch-width".to_string())?,
                )
            }
            "--per-hop" => {
                o.per_hop = Some(
                    value(&mut it, "--per-hop")?
                        .parse()
                        .map_err(|_| "bad --per-hop".to_string())?,
                )
            }
            "--regs" => {
                o.regs = value(&mut it, "--regs")?
                    .parse()
                    .map_err(|_| "bad --regs".to_string())?
            }
            "--max-cycles" => {
                o.max_cycles = value(&mut it, "--max-cycles")?
                    .parse()
                    .map_err(|_| "bad --max-cycles".to_string())?
            }
            "--diagram" => o.diagram = true,
            "--occupancy" => o.occupancy = true,
            "--show-regs" => o.show_regs = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => {
                if o.path.is_empty() {
                    o.path = path.to_string();
                } else {
                    return Err(format!("unexpected positional argument `{path}`"));
                }
            }
        }
    }
    if o.path.is_empty() {
        return Err("missing assembly file".into());
    }
    Ok(o)
}

/// Parsed `usim asm` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmOptions {
    /// Assembly source path.
    pub path: String,
    /// Logical register count the program is assembled for.
    pub regs: usize,
    /// Output `.ubin` path (`--emit`); listing mode when absent.
    pub emit: Option<String>,
}

/// Parse `usim asm` arguments (everything after the subcommand) with
/// the same strict error style as [`parse_run`]: a malformed `--regs`,
/// an unknown flag, or a second positional argument is an error, not a
/// silent fallback.
pub fn parse_asm(args: &[String]) -> Result<AsmOptions, String> {
    let mut o = AsmOptions {
        path: String::new(),
        regs: 32,
        emit: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--regs" => {
                o.regs = value(&mut it, "--regs")?
                    .parse()
                    .map_err(|_| "bad --regs".to_string())?
            }
            "--emit" => o.emit = Some(value(&mut it, "--emit")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => {
                if o.path.is_empty() {
                    o.path = path.to_string();
                } else {
                    return Err(format!("unexpected positional argument `{path}`"));
                }
            }
        }
    }
    if o.path.is_empty() {
        return Err("missing assembly file".into());
    }
    Ok(o)
}

/// Parsed `usim serve` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Unix socket path to listen on; serve stdin→stdout when absent.
    pub socket: Option<String>,
    /// Assembled-program cache capacity, shared by every worker.
    pub program_cache: usize,
    /// Warm-engine pool capacity, shared by every worker.
    pub engines: usize,
    /// Serving threads in socket mode, started with the server and
    /// each serving one connection at a time.
    pub workers: usize,
}

/// The default `--workers`: the host's available parallelism (1 when
/// the host won't say), at most [`MAX_WORKERS`].
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_WORKERS))
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: None,
            program_cache: 64,
            engines: 8,
            workers: default_workers(),
        }
    }
}

/// A `usim serve` argument error, found before anything is allocated
/// or started; `usim` reports it as a usage error (exit status 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeArgError {
    /// A flag with no value after it.
    MissingValue(&'static str),
    /// A flag whose value is not a count.
    BadValue(&'static str),
    /// A count outside `1..=max`.
    OutOfRange {
        /// The flag.
        flag: &'static str,
        /// The value given.
        value: usize,
        /// The largest value accepted.
        max: usize,
    },
    /// A flag `usim serve` does not know.
    UnknownFlag(String),
    /// A positional argument (`usim serve` takes none).
    Positional(String),
}

impl std::fmt::Display for ServeArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ServeArgError::BadValue(flag) => write!(f, "bad {flag}"),
            ServeArgError::OutOfRange { flag, value, max } => {
                write!(f, "{flag} {value} not in 1..={max}")
            }
            ServeArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ServeArgError::Positional(a) => write!(f, "unexpected positional argument `{a}`"),
        }
    }
}

/// Parse `usim serve` arguments (everything after the subcommand).
pub fn parse_serve(args: &[String]) -> Result<ServeOptions, ServeArgError> {
    let mut o = ServeOptions::default();
    let mut it = args.iter();
    let count = |it: &mut std::slice::Iter<String>, flag: &'static str, max: usize| {
        let v = it.next().ok_or(ServeArgError::MissingValue(flag))?;
        let value = v.parse().map_err(|_| ServeArgError::BadValue(flag))?;
        if (1..=max).contains(&value) {
            Ok(value)
        } else {
            Err(ServeArgError::OutOfRange { flag, value, max })
        }
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => {
                let path = it.next().ok_or(ServeArgError::MissingValue("--socket"))?;
                o.socket = Some(path.clone());
            }
            "--program-cache" => {
                o.program_cache = count(&mut it, "--program-cache", MAX_PROGRAM_CACHE)?
            }
            "--engines" => o.engines = count(&mut it, "--engines", MAX_ENGINES)?,
            "--workers" => o.workers = count(&mut it, "--workers", MAX_WORKERS)?,
            flag if flag.starts_with("--") => {
                return Err(ServeArgError::UnknownFlag(flag.to_string()))
            }
            extra => return Err(ServeArgError::Positional(extra.to_string())),
        }
    }
    Ok(o)
}

/// Largest `usim serve --program-cache` accepted: the program cache
/// reserves an entry per program up front.
pub const MAX_PROGRAM_CACHE: usize = 1 << 16;

/// Largest `usim serve --engines` accepted: the engine pool reserves a
/// slot per engine up front, and each pooled engine keeps its whole
/// working state warm.
pub const MAX_ENGINES: usize = 1 << 10;

/// Largest `usim serve --workers` accepted: each worker is an
/// operating-system thread, all started with the server.
pub const MAX_WORKERS: usize = 1 << 10;

/// Largest `--window` (and serve `options.window`) accepted. The engine
/// and the memory network allocate per-station state for the whole
/// window up front, so an unbounded window would let one request
/// exhaust memory.
pub const MAX_WINDOW: usize = 1 << 16;

/// Largest `--alus` (and serve `options.alus`) accepted: the shared-ALU
/// pool is allocated up front, and a pool wider than the widest window
/// could never be busy.
pub const MAX_ALUS: usize = MAX_WINDOW;

/// Largest bimodal table (`--predictor bimodal:K`) accepted; the
/// counter table is allocated up front. The experiments use at most
/// 256 entries.
pub const MAX_BIMODAL_ENTRIES: usize = 1 << 16;

/// Build the processor configuration from parsed options.
pub fn build_config(o: &RunOptions) -> Result<ProcConfig, String> {
    if o.window > MAX_WINDOW {
        return Err(format!(
            "--window {} exceeds the maximum of {MAX_WINDOW} stations",
            o.window
        ));
    }
    if let Some(k) = o.alus.filter(|&k| k > MAX_ALUS) {
        return Err(format!(
            "--alus {k} exceeds the maximum of {MAX_ALUS} shared ALUs"
        ));
    }
    if let PredictorKind::Bimodal(k) = o.predictor {
        if k > MAX_BIMODAL_ENTRIES {
            return Err(format!(
                "bimodal:{k} exceeds the maximum of {MAX_BIMODAL_ENTRIES} counters"
            ));
        }
    }
    if !(0.0..=1.0).contains(&o.mem_exp) {
        return Err(format!(
            "--mem-exp {} out of range (the bandwidth exponent p in M(s) = s^p \
             must lie within [0, 1])",
            o.mem_exp
        ));
    }
    let cluster = match o.arch {
        ArchChoice::UsI => 1,
        ArchChoice::UsII => o.window,
        ArchChoice::Hybrid => o.cluster.unwrap_or((o.window / 4).max(1)),
    };
    let mut mem = MemConfig {
        n_leaves: o.window,
        bandwidth: Bandwidth::new(1.0, o.mem_exp),
        banks: (o.window / 2).max(1),
        bank_occupancy: 1,
        hop_latency: 1,
        base_latency: 0,
        words: 1 << 16,
        network: o.network,
        cluster_cache: None,
    };
    if o.cache {
        mem = mem.with_cluster_cache(CacheConfig::small((o.window / cluster).max(1)));
    }
    let mut cfg = ProcConfig {
        window: o.window,
        cluster,
        mem,
        max_cycles: o.max_cycles,
        ..ProcConfig::ultrascalar_i(o.window)
    }
    .with_predictor(o.predictor);
    if let Some(k) = o.alus {
        cfg = cfg.with_shared_alus(k);
    }
    if o.renaming {
        cfg = cfg.with_memory_renaming();
    }
    if let Some(f) = o.fetch_width {
        cfg = cfg.with_fetch_width(f);
    }
    if let Some(h) = o.per_hop {
        cfg = cfg.with_forwarding(ForwardModel::Pipelined { per_hop: h });
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Load a program from raw file bytes: `.ubin` object files are
/// decoded, anything else is treated as assembly text.
pub fn load_program(path: &str, bytes: &[u8], regs: usize) -> Result<Program, String> {
    if path.ends_with(".ubin") {
        read_binary(bytes).map_err(|e| e.to_string())
    } else {
        let src = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
        assemble(src, regs).map_err(|e| e.to_string())
    }
}

/// Serialise a program to `.ubin` bytes (for `usim asm --emit`).
pub fn emit_binary(source: &str, regs: usize) -> Result<Vec<u8>, String> {
    let program = assemble(source, regs).map_err(|e| e.to_string())?;
    Ok(write_binary(&program))
}

/// Execute a parsed run against assembly source text; returns the
/// report that the binary prints.
pub fn execute_run(o: &RunOptions, source: &str) -> Result<(RunResult, String), String> {
    let program: Program = assemble(source, o.regs).map_err(|e| e.to_string())?;
    execute_program(o, &program)
}

/// Execute a parsed run against an already-loaded program.
pub fn execute_program(o: &RunOptions, program: &Program) -> Result<(RunResult, String), String> {
    let cfg = build_config(o)?;
    let mut proc = Ultrascalar::new(cfg);
    let name = proc.name();
    // Only the timing diagram and the occupancy grid read the
    // per-instruction record.
    let r = if o.diagram || o.occupancy {
        proc.run_timed(program)
    } else {
        proc.run(program)
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{name}: {} — {} instructions in {} cycles (IPC {:.2})\n",
        if r.halted {
            "halted"
        } else {
            "CYCLE BUDGET EXPIRED"
        },
        r.stats.committed,
        r.cycles,
        r.ipc()
    ));
    out.push_str(&format!(
        "branches {} (mispredicted {}), flushed {}, mean occupancy {:.1}\n",
        r.stats.branches,
        r.stats.mispredictions,
        r.stats.flushed,
        r.stats.mean_occupancy()
    ));
    out.push_str(&format!(
        "memory: {} loads, {} stores, {} link rejections, {} bank conflicts",
        r.stats.mem.loads,
        r.stats.mem.stores,
        r.stats.mem.link_rejections,
        r.stats.mem.bank_conflicts
    ));
    if r.stats.mem.cache_hits + r.stats.mem.cache_misses > 0 {
        out.push_str(&format!(
            ", cache {}/{} hits",
            r.stats.mem.cache_hits,
            r.stats.mem.cache_hits + r.stats.mem.cache_misses
        ));
    }
    if r.stats.store_forwards > 0 {
        out.push_str(&format!(", {} store→load forwards", r.stats.store_forwards));
    }
    out.push('\n');
    if o.show_regs {
        out.push_str("registers:\n");
        for (i, v) in r.regs.iter().enumerate() {
            if *v != 0 {
                out.push_str(&format!("  r{i} = {v} ({v:#x})\n"));
            }
        }
    }
    if o.diagram {
        out.push('\n');
        out.push_str(&render_timing_diagram(r.recorded_timings()));
    }
    if o.occupancy {
        out.push('\n');
        out.push_str(&render_station_occupancy(r.recorded_timings(), o.window));
    }
    Ok((r, out))
}

/// `usim asm`: assemble and list a program.
pub fn execute_asm(source: &str, regs: usize) -> Result<String, String> {
    let program = assemble(source, regs).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (i, instr) in program.instrs.iter().enumerate() {
        out.push_str(&format!(
            "{i:>4}: {:016x}  {}\n",
            ultrascalar_isa::encode(instr),
            disassemble(instr)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse_run(&args("prog.asm")).unwrap();
        assert_eq!(o.path, "prog.asm");
        assert_eq!(o.arch, ArchChoice::UsI);
        assert_eq!(o.window, 16);
    }

    #[test]
    fn parse_full_flag_set() {
        let o = parse_run(&args(
            "k.asm --arch hybrid --window 32 --cluster 8 --predictor bimodal:64 \
             --alus 4 --mem-exp 0.5 --butterfly --renaming --cache \
             --fetch-width 8 --per-hop 1 --regs 16 --diagram --occupancy \
             --show-regs --max-cycles 1000",
        ))
        .unwrap();
        assert_eq!(o.arch, ArchChoice::Hybrid);
        assert_eq!(o.window, 32);
        assert_eq!(o.cluster, Some(8));
        assert_eq!(o.predictor, PredictorKind::Bimodal(64));
        assert_eq!(o.alus, Some(4));
        assert_eq!(o.mem_exp, 0.5);
        assert_eq!(o.network, NetworkKind::Butterfly);
        assert!(o.renaming && o.cache && o.diagram && o.occupancy && o.show_regs);
        assert_eq!(o.fetch_width, Some(8));
        assert_eq!(o.per_hop, Some(1));
        assert_eq!(o.regs, 16);
        assert_eq!(o.max_cycles, 1000);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_run(&args("")).is_err());
        assert!(parse_run(&args("a.asm --arch quantum")).is_err());
        assert!(parse_run(&args("a.asm --window")).is_err());
        assert!(parse_run(&args("a.asm --bogus")).is_err());
        assert!(parse_run(&args("a.asm b.asm")).is_err());
        assert!(parse_run(&args("a.asm --predictor bimodal:x")).is_err());
    }

    #[test]
    fn parse_asm_defaults_and_flags() {
        let o = parse_asm(&args("prog.asm")).unwrap();
        assert_eq!(o.path, "prog.asm");
        assert_eq!(o.regs, 32);
        assert_eq!(o.emit, None);
        let o = parse_asm(&args("prog.asm --regs 64 --emit out.ubin")).unwrap();
        assert_eq!(o.regs, 64);
        assert_eq!(o.emit.as_deref(), Some("out.ubin"));
    }

    #[test]
    fn parse_asm_rejects_bad_input() {
        // Malformed --regs used to fall back silently to 32.
        assert!(parse_asm(&args("prog.asm --regs abc")).is_err());
        assert!(parse_asm(&args("prog.asm --regs")).is_err());
        // Unknown flags used to be swallowed as the positional path.
        assert!(parse_asm(&args("prog.asm --bogus")).is_err());
        // A second positional used to replace the first silently.
        assert!(parse_asm(&args("a.asm b.asm")).is_err());
        assert!(parse_asm(&args("")).is_err());
        assert!(parse_asm(&args("prog.asm --emit")).is_err());
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        let o = parse_serve(&args("")).unwrap();
        assert_eq!(o, ServeOptions::default());
        assert_eq!(o.workers, default_workers());
        let o = parse_serve(&args(
            "--socket /tmp/u.sock --program-cache 4 --engines 2 --workers 3",
        ))
        .unwrap();
        assert_eq!(o.socket.as_deref(), Some("/tmp/u.sock"));
        assert_eq!((o.program_cache, o.engines), (4, 2));
        assert_eq!(o.workers, 3);
    }

    #[test]
    fn parse_serve_rejects_bad_input() {
        use ServeArgError::*;
        for (line, want) in [
            ("--bogus", UnknownFlag("--bogus".into())),
            ("stray.asm", Positional("stray.asm".into())),
            ("--socket", MissingValue("--socket")),
            ("--engines", MissingValue("--engines")),
            ("--engines x", BadValue("--engines")),
            ("--workers -1", BadValue("--workers")),
        ] {
            assert_eq!(parse_serve(&args(line)), Err(want), "{line}");
        }
    }

    /// Zero and oversized start-up sizes are rejected by the parser
    /// alone: nothing here builds a cache or pool or starts a thread.
    #[test]
    fn parse_serve_bounds_start_up_sizes() {
        for (flag, max) in [
            ("--program-cache", MAX_PROGRAM_CACHE),
            ("--engines", MAX_ENGINES),
            ("--workers", MAX_WORKERS),
        ] {
            let o = parse_serve(&args(&format!("{flag} {max}"))).unwrap();
            let got = match flag {
                "--program-cache" => o.program_cache,
                "--engines" => o.engines,
                _ => o.workers,
            };
            assert_eq!(got, max, "{flag}");
            for value in [0, max + 1, 1_000_000_000_000_000] {
                let e = parse_serve(&args(&format!("{flag} {value}"))).unwrap_err();
                assert_eq!(e, ServeArgError::OutOfRange { flag, value, max });
                assert_eq!(e.to_string(), format!("{flag} {value} not in 1..={max}"));
            }
        }
        assert!(default_workers() <= MAX_WORKERS);
    }

    #[test]
    fn build_config_rejects_out_of_range_mem_exp() {
        let mut o = parse_run(&args("a.asm")).unwrap();
        for bad in [-0.1, 1.5, f64::NAN] {
            o.mem_exp = bad;
            let err = build_config(&o).unwrap_err();
            assert!(err.contains("[0, 1]"), "error names the range: {err}");
        }
        o.mem_exp = 1.0;
        assert!(build_config(&o).is_ok());
        o.mem_exp = 0.0;
        assert!(build_config(&o).is_ok());
    }

    #[test]
    fn build_config_maps_arch() {
        let mut o = parse_run(&args("a.asm --arch usii --window 8")).unwrap();
        assert_eq!(build_config(&o).unwrap().cluster, 8);
        o.arch = ArchChoice::UsI;
        assert_eq!(build_config(&o).unwrap().cluster, 1);
        o.arch = ArchChoice::Hybrid;
        o.cluster = None;
        assert_eq!(build_config(&o).unwrap().cluster, 2);
    }

    #[test]
    fn build_config_rejects_bad_cluster() {
        let o = parse_run(&args("a.asm --arch hybrid --window 8 --cluster 3")).unwrap();
        assert!(build_config(&o).is_err());
    }

    #[test]
    fn execute_run_end_to_end() {
        let o = parse_run(&args("mem.asm --window 8 --show-regs --diagram")).unwrap();
        let src = "
            li r1, 6
            li r2, 7
            mul r3, r1, r2
            halt
        ";
        let (r, report) = execute_run(&o, src).unwrap();
        assert!(r.halted);
        assert_eq!(r.regs[3], 42);
        assert!(report.contains("IPC"));
        assert!(report.contains("r3 = 42"));
        assert!(report.contains("mul"));
    }

    #[test]
    fn execute_run_with_every_feature() {
        let o = parse_run(&args(
            "k.asm --arch hybrid --window 8 --cluster 4 --alus 2 --renaming \
             --cache --fetch-width 4 --per-hop 1 --mem-exp 0.5 --butterfly",
        ))
        .unwrap();
        let src = "
            li r1, 3
            li r2, 50
            sw r2, (r1)
            lw r3, (r1)
            addi r3, r3, 1
            halt
        ";
        let (r, _) = execute_run(&o, src).unwrap();
        assert!(r.halted);
        assert_eq!(r.regs[3], 51);
    }

    #[test]
    fn oversized_window_is_a_config_error() {
        let o = parse_run(&args(&format!("k.asm --window {MAX_WINDOW}"))).unwrap();
        assert!(build_config(&o).is_ok());
        for w in [MAX_WINDOW + 1, 1 << 40] {
            let o = parse_run(&args(&format!("k.asm --window {w}"))).unwrap();
            let e = build_config(&o).unwrap_err();
            assert!(e.contains("exceeds the maximum"), "{e}");
        }
    }

    #[test]
    fn oversized_or_zero_pools_are_config_errors() {
        for (flags, needle) in [
            (format!("--alus {MAX_ALUS}"), None),
            (format!("--predictor bimodal:{MAX_BIMODAL_ENTRIES}"), None),
            ("--alus 100000000000".into(), Some("exceeds the maximum")),
            (
                format!("--alus {}", MAX_ALUS + 1),
                Some("exceeds the maximum"),
            ),
            (
                "--predictor bimodal:100000000000".into(),
                Some("exceeds the maximum"),
            ),
            ("--predictor bimodal:0".into(), Some("at least one counter")),
            ("--alus 0".into(), Some("at least one ALU")),
        ] {
            let o = parse_run(&args(&format!("k.asm {flags}"))).unwrap();
            match needle {
                None => assert!(build_config(&o).is_ok(), "{flags}"),
                Some(n) => {
                    let e = build_config(&o).unwrap_err();
                    assert!(e.contains(n), "{flags}: {e}");
                }
            }
        }
    }

    #[test]
    fn execute_asm_lists_encodings() {
        let out = execute_asm("li r1, 5\nhalt", 8).unwrap();
        assert!(out.contains("li   r1, 5"));
        assert!(out.contains("halt"));
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn bad_assembly_is_reported() {
        let o = parse_run(&args("x.asm")).unwrap();
        assert!(execute_run(&o, "frobnicate r1").is_err());
    }
}
