//! Byte-identical figure output: every deterministic experiment binary
//! is run and an FNV-64 digest of its stdout is compared against the
//! digest recorded in `data/figure_digests.txt`.
//!
//! A refactor that changes a printed figure, table or fitted exponent
//! fails here, naming the binary. When a change to a figure is
//! intended, replace that binary's line with the digest the failure
//! prints and say why in the change's notes.
//!
//! `usim` (a CLI) and `serve_bench` (wall-clock timings) are not
//! figures and are left out.

use std::collections::HashMap;
use std::process::Command;

const DIGESTS: &str = include_str!("data/figure_digests.txt");

/// Binaries under `src/bin` whose output is not a deterministic figure.
const NOT_FIGURES: [&str; 2] = ["usim", "serve_bench"];

macro_rules! figures {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// Every figure binary and the path cargo built it at.
const FIGURES: [(&str, &str); 19] = figures![
    "distributed_cache",
    "eq_baseline",
    "fig01_datapath",
    "fig03_timing",
    "fig05_cspp",
    "fig06_floorplan",
    "fig07_usii",
    "fig10_hybrid_floorplan",
    "fig11_complexity_table",
    "fig12_empirical_layouts",
    "ipc_ablation",
    "locality",
    "mem_renaming",
    "networks",
    "opt_cluster",
    "selftimed",
    "shared_alus",
    "threed_bounds",
    "throughput",
];

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn recorded() -> HashMap<&'static str, u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("`name digest` line");
            let digest = u64::from_str_radix(hex.trim(), 16).expect("hex digest");
            (name, digest)
        })
        .collect()
}

#[test]
fn every_binary_is_a_figure_or_listed_as_not_one() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("read src/bin")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| Some(p.file_stem()?.to_str()?.to_owned()))
        .filter(|n| !NOT_FIGURES.contains(&n.as_str()))
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
    assert_eq!(on_disk, listed);
    let mut digested: Vec<&str> = recorded().into_keys().collect();
    digested.sort();
    assert_eq!(digested, listed, "figure_digests.txt lists other binaries");
}

#[test]
fn figure_output_matches_the_recorded_digests() {
    let want = recorded();
    let mut wrong = Vec::new();
    for (name, path) in FIGURES {
        let out = Command::new(path)
            .output()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        assert!(
            out.status.success(),
            "{name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let got = fnv64(&out.stdout);
        if want.get(name) != Some(&got) {
            wrong.push(format!("{name} {got:016x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "figure output changed (binary, new digest):\n{}",
        wrong.join("\n")
    );
}
