//! Replay aids shared by the differential harness and the frozen
//! schedules: a program's assembly source and the `usim run` line that
//! reproduces a run.

use ultrascalar::{ForwardModel, PredictorKind, ProcConfig};
use ultrascalar_bench::cli::{build_config, ArchChoice, RunOptions};
use ultrascalar_isa::{disassemble, Program};
use ultrascalar_memsys::NetworkKind;

/// Assembly text that reassembles to `p` with `p.num_regs` registers.
pub fn program_source(p: &Program) -> String {
    let mut out = String::new();
    for (r, &v) in p.init_regs.iter().enumerate() {
        if v != 0 {
            out += &format!(".reg r{r}, {}\n", v as i32);
        }
    }
    for chunk in p.init_mem.chunks(16) {
        let words: Vec<String> = chunk.iter().map(|&w| (w as i32).to_string()).collect();
        out += &format!(".word {}\n", words.join(", "));
    }
    for i in &p.instrs {
        out += &disassemble(i);
        out.push('\n');
    }
    out
}

/// The `usim run` options that reproduce `cfg`, if every field of it
/// is a `usim` flag.
pub fn usim_options(cfg: &ProcConfig, regs: usize) -> Option<RunOptions> {
    let o = RunOptions {
        arch: match cfg.cluster {
            1 => ArchChoice::UsI,
            c if c == cfg.window => ArchChoice::UsII,
            _ => ArchChoice::Hybrid,
        },
        window: cfg.window,
        cluster: Some(cfg.cluster),
        predictor: cfg.predictor,
        alus: cfg.alus,
        mem_exp: cfg.mem.bandwidth.exponent,
        network: cfg.mem.network,
        renaming: cfg.memory_renaming,
        cache: cfg.mem.cluster_cache.is_some(),
        fetch_width: cfg.fetch_width,
        per_hop: match cfg.forward {
            ForwardModel::SingleCycle => None,
            ForwardModel::Pipelined { per_hop } => Some(per_hop),
        },
        regs,
        max_cycles: cfg.max_cycles,
        ..RunOptions::default()
    };
    (build_config(&o).as_ref() == Ok(cfg)).then_some(o)
}

/// The `usim run` arguments for `o`, reading the program from `path`.
pub fn usim_args(o: &RunOptions, path: &str) -> Vec<String> {
    let mut args = format!("{path} --regs {} --window {}", o.regs, o.window);
    args += &match o.arch {
        ArchChoice::UsI => " --arch usi".to_string(),
        ArchChoice::UsII => " --arch usii".to_string(),
        ArchChoice::Hybrid => format!(" --arch hybrid --cluster {}", o.cluster.unwrap_or(1)),
    };
    args += " --predictor ";
    args += &match o.predictor {
        PredictorKind::Perfect => "perfect".to_string(),
        PredictorKind::NotTaken => "nottaken".to_string(),
        PredictorKind::Taken => "taken".to_string(),
        PredictorKind::Btfn => "btfn".to_string(),
        PredictorKind::Bimodal(k) => format!("bimodal:{k}"),
    };
    if let Some(k) = o.alus {
        args += &format!(" --alus {k}");
    }
    args += &format!(" --mem-exp {}", o.mem_exp);
    for (on, flag) in [
        (o.network == NetworkKind::Butterfly, " --butterfly"),
        (o.renaming, " --renaming"),
        (o.cache, " --cache"),
    ] {
        if on {
            args += flag;
        }
    }
    if let Some(f) = o.fetch_width {
        args += &format!(" --fetch-width {f}");
    }
    if let Some(h) = o.per_hop {
        args += &format!(" --per-hop {h}");
    }
    args += &format!(" --max-cycles {} --show-regs", o.max_cycles);
    args.split_whitespace().map(str::to_string).collect()
}

/// Write `p`'s source to `<name>.asm` in the test target's scratch
/// directory. Returns the dump's path (or why it could not be written)
/// and the `usim run` line that replays `cfg` on it, or a note that no
/// `usim` flags express `cfg`.
pub fn replay(name: &str, cfg: &ProcConfig, p: &Program) -> (String, String) {
    let path = format!("{}/{name}.asm", env!("CARGO_TARGET_TMPDIR"));
    let written = std::fs::write(&path, program_source(p))
        .map(|()| path.clone())
        .unwrap_or_else(|e| format!("(could not write {path}: {e})"));
    let line = match usim_options(cfg, p.num_regs) {
        Some(o) => format!(
            "cargo run --release -p ultrascalar-bench --bin usim -- run {}",
            usim_args(&o, &path).join(" ")
        ),
        None => "no usim equivalent: usim has no latency flags and always builds its \
                 memory network from --mem-exp"
            .into(),
    };
    (written, line)
}
