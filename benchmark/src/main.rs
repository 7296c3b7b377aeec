//! `usbench` command line.
//!
//! ```text
//! usbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! usbench serve-child --socket PATH --workers N
//! ```
//!
//! `run` without `--workload` runs every workload, each in a fresh
//! child process so that peak memory belongs to one workload. A traced
//! run writes each workload's Chrome trace to a file of its own. The
//! exit code is non-zero if any output was wrong.

use std::process::ExitCode;

use usbench::{run_workload, Opts, Workload};

const USAGE: &str = "usage: usbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick]\n       usbench serve-child --socket PATH --workers N";

/// Seconds measured when `--seconds` is not given (`run_seconds` in
/// the repository's `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("serve-child") => serve_child(&args[1..]).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("usbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut opts = Opts {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        expect_digest: None,
    };
    let mut workload = None;
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(value(&mut it, a)?)?),
            "--seed" => opts.seed = value(&mut it, a)?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                let s: f64 = value(&mut it, a)?.parse().map_err(|_| "bad --seconds")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie within [0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                opts.trace = match value(&mut it, a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    opts.seconds = seconds.unwrap_or(if opts.quick { 1.0 } else { DEFAULT_SECONDS });
    match workload {
        Some(w) => run_workload(w, &opts),
        None => {
            let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
            let mut all_ok = true;
            for w in Workload::ALL {
                let status = std::process::Command::new(&exe)
                    .arg("run")
                    .args(args)
                    .args(["--workload", w.name()])
                    .status()
                    .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
                all_ok &= status.success();
            }
            Ok(all_ok)
        }
    }
}

fn serve_child(args: &[String]) -> Result<(), String> {
    let mut o = ultrascalar_bench::cli::ServeOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => o.socket = Some(value(&mut it, a)?.clone()),
            "--workers" => {
                o.workers = value(&mut it, a)?.parse().map_err(|_| "bad --workers")?;
                if o.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if o.socket.is_none() {
        return Err("serve-child needs --socket".into());
    }
    ultrascalar_bench::serve::serve(&o)
}
