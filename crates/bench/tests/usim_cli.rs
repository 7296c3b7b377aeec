//! Process-level checks of the `usim` binary's error contract: a bad
//! input exits 1 (a bad `usim serve` flag 2) with a one-line message,
//! never an abort.

use std::process::Command;

/// A register count of 2^53 - 1 must be range-checked before the
/// register file (36 PB) is allocated, not abort the process.
#[test]
fn run_with_huge_regs_exits_1_with_a_one_line_error() {
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/../../asm/fib.asm");
    let out = Command::new(env!("CARGO_BIN_EXE_usim"))
        .args(["run", fib, "--regs", "9007199254740991"])
        .output()
        .expect("spawn usim");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(
        err.contains("register count 9007199254740991 not in 1..=256"),
        "{err}"
    );
}

/// Pool sizes the engine would assert on or fail to allocate — a
/// zero-entry bimodal table, a hundred-billion-entry one, a
/// hundred-billion-ALU pool — are typed configuration errors: exit 1,
/// one line, no panic (exit 101) or allocation abort (exit 134).
#[test]
fn run_with_zero_or_huge_pools_exits_1_with_a_one_line_error() {
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/../../asm/fib.asm");
    for (flag, value, needle) in [
        ("--predictor", "bimodal:0", "at least one counter"),
        ("--predictor", "bimodal:100000000000", "exceeds the maximum"),
        ("--alus", "100000000000", "exceeds the maximum"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_usim"))
            .args(["run", fib, flag, value])
            .output()
            .expect("spawn usim");
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains(needle), "{flag} {value}: {err}");
    }
}

/// `usim serve` start-up sizes too large to allocate are usage errors
/// found by the parser: exit 2 and one line naming the flag, before any
/// cache, pool or worker thread exists (they once aborted with exit
/// 134, "memory allocation of … bytes failed").
#[test]
fn serve_with_huge_start_up_sizes_exits_2_naming_the_flag() {
    for flag in ["--engines", "--program-cache", "--workers"] {
        let out = Command::new(env!("CARGO_BIN_EXE_usim"))
            .args(["serve", flag, "1000000000000000"])
            .output()
            .expect("spawn usim");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(
            err.contains(&format!("{flag} 1000000000000000 not in 1..=")),
            "{err}"
        );
    }
}
