//! `usim` — the Ultrascalar command-line driver.
//!
//! `usim help` prints every subcommand and option (the `HELP` text at
//! the end of this file).
//!
//! Example:
//! ```text
//! cargo run -p ultrascalar-bench --bin usim -- \
//!     run asm/dot_product.asm --arch hybrid --window 32 --cluster 8 --diagram
//! ```

use std::process::ExitCode;
use ultrascalar_bench::cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: usim run|asm|serve [options]   (usim help for details)");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run" => cli::parse_run(rest).and_then(|o| {
            let bytes =
                std::fs::read(&o.path).map_err(|e| format!("cannot read {}: {e}", o.path))?;
            let program = cli::load_program(&o.path, &bytes, o.regs)?;
            cli::execute_program(&o, &program).map(|(_, report)| report)
        }),
        "asm" => cli::parse_asm(rest).and_then(|o| {
            let src = std::fs::read_to_string(&o.path)
                .map_err(|e| format!("cannot read {}: {e}", o.path))?;
            match &o.emit {
                Some(out) => {
                    let bytes = cli::emit_binary(&src, o.regs)?;
                    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
                    Ok(format!("wrote {} bytes to {out}", bytes.len()))
                }
                None => cli::execute_asm(&src, o.regs),
            }
        }),
        "serve" => {
            let o = match cli::parse_serve(rest) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("usim: {e}");
                    return ExitCode::from(2);
                }
            };
            return match ultrascalar_bench::serve::serve(&o) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("usim: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "help" | "--help" | "-h" => {
            println!("{}", HELP);
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand `{other}` (run|asm|serve|help)")),
    };
    match result {
        Ok(report) => {
            // Write directly and ignore EPIPE so `usim … | head` exits
            // quietly instead of panicking on the closed pipe.
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("usim: {e}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "usim — Ultrascalar command-line driver

  usim run  <file.asm> [options]    run a program on a processor model
  usim asm  <file.asm> [--regs N] [--emit out.ubin]
                                    assemble; list encodings or write a .ubin
  usim serve [--socket PATH] [--program-cache N] [--engines N]
             [--workers N]
                                    batch mode: newline-delimited JSON requests
                                    on stdin (or the socket), one JSON response
                                    per line; programs are cached and engines
                                    pooled so repeated requests are allocation-
                                    free
  usim run also accepts .ubin object files

serve options (a bad one exits with status 2 before anything starts):
  --socket PATH            listen on a Unix socket (default: stdin→stdout);
                           socket mode serves many clients at once;
                           `program_path` requests are refused there
  --workers N              socket serving threads, started with the server
                           (default: the host's available parallelism; at
                           most 1024); each serves one connection at a time,
                           and further clients wait in the listen backlog
  --program-cache N        assembled-program LRU capacity (default 64; at
                           most 65536)
  --engines N              warm-engine LRU capacity (default 8; at most
                           1024), shared by every worker; each run checks
                           an engine out and back in

run options:
  --arch usi|usii|hybrid   topology (default usi)
  --window N / -n N        stations (default 16)
  --cluster C / -c C       hybrid cluster size (default n/4)
  --predictor P            perfect|nottaken|taken|btfn|bimodal:K
  --alus K                 shared-ALU pool (Memo 2 scheduler)
  --mem-exp P              memory bandwidth M(s) = s^P (default 1)
  --butterfly              butterfly interconnect instead of fat tree
  --renaming               memory renaming (store→load forwarding)
  --cache                  distributed per-cluster caches
  --fetch-width F          cap instruction fetch per cycle
  --per-hop H              pipelined forwarding, H cycles per tree hop
  --regs N                 logical registers (default 32)
  --diagram                print the Figure 3 timing diagram
  --occupancy              print the station-occupancy trace
  --show-regs              print non-zero final registers
  --max-cycles N           cycle budget";
