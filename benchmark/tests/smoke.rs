//! A `--quick` run of every workload, untraced and traced: every metric
//! `BENCHMARK.json` declares is printed exactly once, names are
//! well-formed, outputs are correct and digests match; and a corrupted
//! expected digest fails the run.

use std::process::Command;

use usbench::{run_workload, Opts, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `name` values of one array in `BENCHMARK.json` (the file is
/// flat enough that scanning for `"name": "` within the array's span is
/// exact).
fn declared(array: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{array}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {array}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_usbench"))
        .arg("run")
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("usbench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("UTF-8 output"),
    )
}

#[test]
fn quick_runs_print_every_declared_metric_once() {
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 4);
    for (trace, array) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = declared(array);
        assert!(!names.is_empty());
        for name in &names {
            assert!(well_formed(name), "{array} name {name:?}");
        }
        for w in &workloads {
            let (ok, stdout) = run(&["--workload", w, "--quick", "--seed", "1", "--trace", trace]);
            assert!(ok, "{w} --trace {trace} failed:\n{stdout}");
            assert!(
                stdout.contains("matches the recorded digest"),
                "{w}: digest\n{stdout}"
            );
            let last = stdout.lines().last().expect("output");
            assert!(last.starts_with("{\"correct\": true, "), "{w}: {last}");
            for name in &names {
                let lines = stdout
                    .lines()
                    .filter(|l| l.split(' ').take(2).eq([w.as_str(), name.as_str()]))
                    .count();
                assert_eq!(lines, 1, "{w} prints {name} once\n{stdout}");
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w}: {name} in JSON"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_expected_digest_fails_the_run() {
    let opts = Opts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: true,
        expect_digest: Some(0x123),
    };
    assert_eq!(run_workload(Workload::SuiteIdeal, &opts), Ok(false));
    let recorded = Opts {
        expect_digest: None,
        ..opts
    };
    assert_eq!(run_workload(Workload::SuiteIdeal, &recorded), Ok(true));
}
