//! End-to-end tests for the `usim serve` request loop: response shape,
//! byte-identical repeats, cache/pool accounting, strict error
//! handling, and the stream driver.

use std::io::BufReader;
use std::time::Duration;

use ultrascalar_bench::cli::RunOptions;
use ultrascalar_bench::serve::{
    self, final_summary, serve_stream, ServeCounters, Server, MAX_LINE_BYTES,
};

const PROG: &str =
    r#"{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"window":8}}"#;

#[test]
fn repeated_request_is_byte_identical_and_hits_caches() {
    let mut s = Server::new(8, 4);
    let first = s.handle_line(PROG).to_string();
    assert!(first.starts_with("{\"ok\":true,"), "{first}");
    assert!(first.contains("\"halted\":true"), "{first}");
    assert!(first.contains("\"instructions\":4"), "{first}");
    assert_eq!(
        (
            s.shared().program_stats().hits,
            s.shared().program_stats().misses
        ),
        (0, 1)
    );
    assert_eq!(
        (
            s.shared().engine_stats().hits,
            s.shared().engine_stats().misses
        ),
        (0, 1)
    );
    for _ in 0..3 {
        let again = s.handle_line(PROG).to_string();
        assert_eq!(again, first, "identical request, identical response");
    }
    assert_eq!(
        (
            s.shared().program_stats().hits,
            s.shared().program_stats().misses
        ),
        (3, 1)
    );
    // Each repeat checks the warm engine out of the pool again.
    assert_eq!(
        (
            s.shared().engine_stats().hits,
            s.shared().engine_stats().misses
        ),
        (3, 1)
    );
    assert_eq!(s.shared().counters().runs, 4);
    assert_eq!(s.shared().counters().errors, 0);
}

#[test]
fn registers_and_timing_are_opt_in() {
    let mut s = Server::new(8, 4);
    let bare = s.handle_line(PROG).to_string();
    assert!(!bare.contains("registers"), "{bare}");
    assert!(!bare.contains("wall_us"), "{bare}");
    let full = s
        .handle_line(
            r#"{"id":"q1","registers":true,"timing":true,"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"window":8}}"#,
        )
        .to_string();
    assert!(full.contains("\"id\":\"q1\""), "{full}");
    // r3 = 42 in the committed register file.
    assert!(full.contains("\"registers\":[0,6,7,42,"), "{full}");
    assert!(full.contains("\"wall_us\":"), "{full}");
}

#[test]
fn options_map_to_the_configured_engine() {
    let mut s = Server::new(8, 4);
    let resp = s
        .handle_line(
            r#"{"program":"li r1, 1\nhalt\n","options":{"arch":"hybrid","window":16,"cluster":4,"predictor":"bimodal:64","renaming":true,"regs":16}}"#,
        )
        .to_string();
    assert!(resp.contains("\"arch\":\"hybrid\""), "{resp}");
    assert!(resp.contains("\"window\":16"), "{resp}");
    assert!(resp.contains("\"cluster\":4"), "{resp}");
    let usii = s
        .handle_line(r#"{"program":"li r1, 1\nhalt\n","options":{"arch":"usii","window":8}}"#)
        .to_string();
    assert!(usii.contains("\"arch\":\"usii\""), "{usii}");
    // Both engines went back to the pool after their runs: both are
    // warm.
    assert_eq!(
        s.shared().engine_stats().entries,
        2,
        "two distinct configs warmed"
    );
}

#[test]
fn errors_are_reported_not_fatal() {
    let mut s = Server::new(8, 4);
    for (req, needle) in [
        ("not json at all", "bad JSON"),
        (r#"{"program":"li r1, 1\nhalt\n""#, "bad JSON"),
        (r#"{"frobnicate":1}"#, "unknown request field"),
        (r#"{"cmd":"dance"}"#, "unknown cmd"),
        (r#"{"options":{}}"#, "needs a `program`"),
        (
            r#"{"program":"li r1, 1\nhalt\n","program_path":"x"}"#,
            "not both",
        ),
        (r#"{"program":"frobnicate r1\n"}"#, "unknown mnemonic"),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"mem_exp":2.5}}"#,
            "[0, 1]",
        ),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"window":-3}}"#,
            "non-negative integer",
        ),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"quantum":true}}"#,
            "unknown option",
        ),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"max_cycles":50000001}}"#,
            "max_cycles 50000001 exceeds the serve cap of 50000000 cycles",
        ),
        (
            r#"{"program":"li r1, 1\nhalt\n","options":{"max_cycles":9007199254740992}}"#,
            "exceeds the serve cap of 50000000 cycles",
        ),
    ] {
        let resp = s.handle_line(req).to_string();
        assert!(resp.starts_with("{\"ok\":false,"), "{req} -> {resp}");
        assert!(resp.contains(needle), "{req} -> {resp}");
    }
    assert_eq!(s.shared().counters().errors, 12);
    // The server still works after every failure, and the cycle cap
    // is the `usim run` default, accepted.
    let ok = s.handle_line(PROG).to_string();
    assert!(ok.starts_with("{\"ok\":true,"), "{ok}");
    assert_eq!(serve::MAX_CYCLES, RunOptions::default().max_cycles);
    let at_cap = r#"{"program":"li r1, 1\nhalt\n","options":{"max_cycles":50000000}}"#;
    assert!(s.handle_line(at_cap).starts_with("{\"ok\":true,"));
}

/// A window far past `cli::MAX_WINDOW` would make the engine and the
/// memory network allocate per-station state for all of it; it must
/// come back as an error response, and the server must keep serving.
#[test]
fn oversized_window_is_rejected_and_serving_continues() {
    let mut s = Server::new(8, 4);
    let huge = 1u64 << 53;
    let req = format!(r#"{{"program":"li r1, 1\nhalt\n","options":{{"window":{huge}}}}}"#);
    let resp = s.handle_line(&req).to_string();
    assert!(resp.starts_with("{\"ok\":false,"), "{resp}");
    assert!(resp.contains("exceeds the maximum"), "{resp}");
    let edge = ultrascalar_bench::cli::MAX_WINDOW + 1;
    let req = format!(r#"{{"program":"li r1, 1\nhalt\n","options":{{"window":{edge}}}}}"#);
    assert!(s.handle_line(&req).starts_with("{\"ok\":false,"));
    assert_eq!(s.shared().counters().errors, 2);
    let ok = s.handle_line(PROG).to_string();
    assert!(ok.starts_with("{\"ok\":true,"), "{ok}");
}

/// A register count of 2^53 - 1 must be refused before the register
/// file (36 PB) is allocated: on one connection, it gets an error line
/// and the next request an answer.
#[test]
fn huge_regs_is_rejected_and_the_connection_keeps_serving() {
    let mut s = Server::new(8, 4);
    let huge = r#"{"program":"li r1, 6\nhalt\n","options":{"regs":9007199254740991}}"#;
    let input = format!("{huge}\n{PROG}\n");
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].starts_with("{\"ok\":false,"), "{}", lines[0]);
    assert!(
        lines[0].contains("register count 9007199254740991 not in 1..=256"),
        "{}",
        lines[0]
    );
    assert!(lines[1].starts_with("{\"ok\":true,"), "{}", lines[1]);
    assert!(lines[1].contains("\"halted\":true"), "{}", lines[1]);
}

/// Pool sizes that used to panic the predictor constructor or abort
/// the process on allocation each get exactly one error line, and the
/// request after each is answered byte-identically to a fresh server.
#[test]
fn zero_or_huge_pools_get_one_error_each_and_the_stream_keeps_serving() {
    let mut s = Server::new(8, 4);
    let bad = [
        (r#""predictor":"bimodal:0""#, "at least one counter"),
        (
            r#""predictor":"bimodal:100000000000""#,
            "exceeds the maximum",
        ),
        (r#""alus":100000000000"#, "exceeds the maximum"),
    ];
    let mut input = String::new();
    for (opt, _) in bad {
        input.push_str(&format!(
            "{{\"program\":\"li r1, 6\\nhalt\\n\",\"options\":{{{opt}}}}}\n{PROG}\n"
        ));
    }
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 2 * bad.len(), "{lines:?}");
    let answer = Server::new(8, 4).handle_line(PROG).to_string();
    for (pair, (opt, needle)) in lines.chunks(2).zip(bad) {
        assert!(pair[0].starts_with("{\"ok\":false,"), "{opt}: {}", pair[0]);
        assert!(pair[0].contains(needle), "{opt}: {}", pair[0]);
        assert_eq!(pair[1], answer, "{opt}");
    }
    assert_eq!(s.shared().counters().errors, bad.len() as u64);
}

/// A line twice [`MAX_LINE_BYTES`] long gets exactly one error line,
/// and the request after it its normal answer from the same server.
#[test]
fn over_long_line_gets_one_error_and_the_stream_keeps_serving() {
    let mut s = Server::new(8, 4);
    let mut input = vec![b'x'; 2 * MAX_LINE_BYTES];
    input.push(b'\n');
    input.extend_from_slice(PROG.as_bytes());
    input.push(b'\n');
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, BufReader::new(&input[..]), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(
        lines[0],
        format!("{{\"ok\":false,\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}")
    );
    assert_eq!(lines[1], Server::new(8, 4).handle_line(PROG));
    let c = s.shared().counters();
    assert_eq!((c.requests, c.errors, c.runs, c.disconnects), (2, 1, 1, 0));
}

/// A `program_path` file one byte over [`MAX_LINE_BYTES`] gets an error
/// that names the limit, read no further than that, and the request
/// after it its normal answer from the same server.
#[test]
fn over_long_program_file_gets_one_error_and_the_stream_keeps_serving() {
    let path = std::env::temp_dir().join(format!("usim-serve-long-{}.asm", std::process::id()));
    std::fs::write(&path, vec![b'x'; MAX_LINE_BYTES + 1]).expect("write temp program");
    let mut s = Server::new(8, 4);
    let answer = s
        .handle_line(&format!(r#"{{"program_path":"{}"}}"#, path.display()))
        .to_string();
    std::fs::remove_file(&path).ok();
    assert_eq!(
        answer,
        format!(
            "{{\"ok\":false,\"error\":\"{} is longer than {MAX_LINE_BYTES} bytes\"}}",
            path.display()
        )
    );
    assert_eq!(s.handle_line(PROG), Server::new(8, 4).handle_line(PROG));
    let c = s.shared().counters();
    assert_eq!((c.requests, c.errors, c.runs), (2, 1, 1));
}

#[test]
fn failed_assembly_is_not_cached() {
    let mut s = Server::new(8, 4);
    s.handle_line(r#"{"program":"frobnicate r1\n"}"#);
    assert_eq!(s.shared().program_stats().entries, 0);
    s.handle_line(r#"{"program":"frobnicate r1\n"}"#);
    assert_eq!(
        s.shared().program_stats().misses,
        2,
        "errors re-assemble every time"
    );
}

#[test]
fn stats_and_shutdown_commands() {
    let mut s = Server::new(8, 4);
    s.handle_line(PROG);
    s.handle_line(PROG);
    let stats = s.handle_line(r#"{"cmd":"stats"}"#).to_string();
    assert!(stats.contains("\"requests\":3"), "{stats}");
    assert!(stats.contains("\"runs\":2"), "{stats}");
    assert!(stats.contains("\"program_cache_hits\":1"), "{stats}");
    assert!(stats.contains("\"engine_pool_hits\":1"), "{stats}");
    assert!(stats.contains("\"program_cache_evictions\":0"), "{stats}");
    assert!(stats.contains("\"engine_pool_evictions\":0"), "{stats}");
    assert!(stats.contains("\"disconnects\":0"), "{stats}");
    assert!(stats.contains("\"workers\":1"), "{stats}");
    assert!(stats.contains("\"worker_requests\":[3]"), "{stats}");
    assert!(stats.contains("\"cycles_simulated\":"), "{stats}");
    assert!(!s.shared().is_shutdown());
    let bye = s.handle_line(r#"{"cmd":"shutdown"}"#).to_string();
    assert_eq!(bye, "{\"ok\":true,\"shutdown\":true}");
    assert!(s.shared().is_shutdown());
    let line = final_summary(s.shared());
    assert!(
        line.contains("4 requests (2 runs, 0 errors, 0 disconnects)"),
        "{line}"
    );
}

#[test]
fn json_escapes_round_trip() {
    let mut s = Server::new(8, 4);
    // h = 'h', \t in the id comes back escaped in the response.
    let resp = s
        .handle_line(
            "{\"id\":\"tab\\there \\u2192 done\",\"program\":\"li r1, 1\\n\\u0068alt\\n\"}",
        )
        .to_string();
    assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
    assert!(
        resp.contains("\"id\":\"tab\\there \u{2192} done\""),
        "{resp}"
    );
}

#[test]
fn stream_driver_answers_each_line_and_stops_on_shutdown() {
    let mut s = Server::new(8, 4);
    let input = format!("{PROG}\n\n{PROG}\n{{\"cmd\":\"shutdown\"}}\n{PROG}\n");
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    // Blank line skipped; the request after shutdown never runs.
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert_eq!(lines[0], lines[1]);
    assert_eq!(lines[2], "{\"ok\":true,\"shutdown\":true}");
    assert_eq!(s.shared().counters().runs, 2);
}

#[test]
fn partial_final_line_counts_as_disconnect_and_is_not_run() {
    let mut s = Server::new(8, 4);
    // The stream ends mid-request: no trailing newline on the second
    // line. The complete first request is served; the fragment is not.
    let input = format!("{PROG}\n{{\"program\":\"li r1, 1");
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].starts_with("{\"ok\":true,"));
    assert_eq!(s.shared().counters().runs, 1);
    assert_eq!(
        s.shared().counters().errors,
        0,
        "a disconnect is not an error"
    );
    assert_eq!(s.shared().counters().disconnects, 1);
}

#[test]
fn broken_pipe_on_write_counts_as_disconnect() {
    struct BrokenPipe;
    impl std::io::Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut s = Server::new(8, 4);
    let input = format!("{PROG}\n{PROG}\n");
    serve_stream(&mut s, input.as_bytes(), BrokenPipe);
    // Both requests arrived pipelined, but each line is answered before
    // the next is read: the first response hits the broken pipe and the
    // stream stops before the second line runs.
    assert_eq!(s.shared().counters().runs, 1);
    assert_eq!(s.shared().counters().disconnects, 1);
}

/// A branchy countdown loop under the perfect predictor.
const LOOP_PERFECT: &str = r#"{"program":"li r1, 5\nli r2, 0\nli r3, 0\nloop:\nadd r3, r3, r1\nsubi r1, r1, 1\nbne r1, r2, loop\nhalt\n","options":{"window":8,"predictor":"perfect"}}"#;

/// The same loop under the default bimodal predictor, which
/// mispredicts and flushes.
const LOOP_BIMODAL: &str = r#"{"program":"li r1, 5\nli r2, 0\nli r3, 0\nloop:\nadd r3, r3, r1\nsubi r1, r1, 1\nbne r1, r2, loop\nhalt\n","options":{"window":8}}"#;

/// Pipelined identical requests get the response a lone request gets,
/// each from one engine checkout and one program-cache lookup.
#[test]
fn pipelined_identical_requests_match_serial_serving() {
    for req in [LOOP_PERFECT, LOOP_BIMODAL] {
        let baseline = Server::new(8, 4).handle_line(req).to_string();
        assert!(baseline.starts_with("{\"ok\":true,"), "{baseline}");

        let mut s = Server::new(8, 4);
        let input = format!("{req}\n").repeat(4);
        let mut out: Vec<u8> = Vec::new();
        serve_stream(&mut s, input.as_bytes(), &mut out);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4, "{lines:?}");
        for l in &lines {
            assert_eq!(*l, baseline, "pipelined response must be byte-identical");
        }
        let c = s.shared().counters();
        assert_eq!((c.requests, c.runs, c.errors), (4, 4, 0));
        let pool = s.shared().engine_stats();
        assert_eq!((pool.hits, pool.misses), (3, 1), "one checkout per run");
        let cache = s.shared().program_stats();
        assert_eq!((cache.hits, cache.misses), (3, 1), "one lookup per run");
    }
}

#[test]
fn commands_and_errors_are_served_in_stream_order() {
    let input = format!(
        "{LOOP_PERFECT}\n{LOOP_PERFECT}\n{{\"cmd\":\"stats\"}}\n{LOOP_PERFECT}\n\
         nonsense\n{LOOP_PERFECT}\n{{\"cmd\":\"shutdown\"}}\n"
    );
    let mut s = Server::new(8, 4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 7, "{lines:?}");
    // The four run responses are identical wherever a command or a
    // malformed line sits between them.
    assert_eq!(lines[0], lines[1]);
    assert_eq!(lines[0], lines[3]);
    assert_eq!(lines[0], lines[5]);
    // Stats, the malformed line's error and shutdown answer in stream
    // order.
    assert!(lines[2].contains("\"requests\":3"), "{}", lines[2]);
    assert!(lines[4].starts_with("{\"ok\":false,"), "{}", lines[4]);
    assert_eq!(lines[6], "{\"ok\":true,\"shutdown\":true}");
    let c = s.shared().counters();
    assert_eq!(c.runs, 4);
    assert_eq!(c.errors, 1);
}

#[test]
fn alternating_configs_are_answered_per_config() {
    let a = PROG;
    let b = r#"{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{"window":16}}"#;
    let mut s = Server::new(8, 4);
    let input = format!("{a}\n{b}\n{a}\n{b}\n");
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut s, input.as_bytes(), &mut out);
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert_eq!(lines[0], lines[2]);
    assert_eq!(lines[1], lines[3]);
    assert!(lines[0].contains("\"window\":8"), "{}", lines[0]);
    assert!(lines[1].contains("\"window\":16"), "{}", lines[1]);
    assert_eq!(s.shared().counters().runs, 4);
}

/// A stats response with its wall time, the one value that differs
/// between two servings of the same lines, blanked out.
fn mask_wall(line: &str) -> String {
    line.split(',')
        .map(|field| match field.split_once(':') {
            Some((key, _)) if key == "\"wall_s\"" => format!("{key}:_"),
            _ => field.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Streaming the lines and serving them one at a time through
/// `handle_line` must give the same responses and the same accounting:
/// every counter but wall time, and the program-cache and engine-pool
/// statistics. The stream covers identical lines, lines differing only
/// in `id`, `registers` or `timing: false`, one differing in its
/// configuration, a `program_path` request, an invalid-config request
/// and an assembly-error request with lines buffered behind them, a
/// malformed line, a blank line and `stats`.
#[test]
fn pipelined_and_one_at_a_time_serving_account_identically() {
    let asm =
        std::env::temp_dir().join(format!("usim-serve-accounting-{}.asm", std::process::id()));
    std::fs::write(
        &asm,
        "li r1, 5\nli r2, 0\nli r3, 0\nloop:\nadd r3, r3, r1\nsubi r1, r1, 1\nbne r1, r2, loop\nhalt\n",
    )
    .expect("write temp program");
    let from_path = format!(
        r#"{{"program_path":"{}","options":{{"window":8,"predictor":"perfect"}}}}"#,
        asm.display()
    );
    let variant = |field: &str| format!("{{{field},{}", &LOOP_PERFECT[1..]);
    let bad_config = r#"{"program":"li r1, 1\nhalt\n","options":{"mem_exp":2.5}}"#;
    let bad_asm = r#"{"id":"asm","program":"frobnicate r1\n"}"#;
    let lines: Vec<String> = vec![
        LOOP_PERFECT.into(),
        LOOP_PERFECT.into(),
        LOOP_PERFECT.into(),
        variant(r#""id":"member""#),
        variant(r#""registers":true"#),
        variant(r#""timing":false"#),
        LOOP_PERFECT.replace(r#""window":8"#, r#""window":16"#),
        PROG.into(),
        from_path,
        LOOP_PERFECT.into(),
        bad_config.into(),
        LOOP_PERFECT.into(),
        LOOP_PERFECT.into(),
        bad_asm.into(),
        bad_asm.into(),
        LOOP_PERFECT.into(),
        "nonsense".into(),
        String::new(),
        PROG.into(),
        r#"{"cmd":"stats"}"#.into(),
        PROG.into(),
    ];
    let input: String = lines.iter().map(|l| format!("{l}\n")).collect();

    let mut streamed = Server::new(8, 4);
    let mut out: Vec<u8> = Vec::new();
    serve_stream(&mut streamed, input.as_bytes(), &mut out);
    let streamed_lines: Vec<String> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(mask_wall)
        .collect();

    let mut single = Server::new(8, 4);
    let single_lines: Vec<String> = lines
        .iter()
        .filter(|l| !l.trim().is_empty())
        .map(|l| mask_wall(single.handle_line(l)))
        .collect();
    std::fs::remove_file(&asm).ok();

    assert_eq!(streamed_lines.len(), 20, "{streamed_lines:?}");
    assert_eq!(streamed_lines, single_lines);
    let (g, s) = (streamed.shared(), single.shared());
    let unwalled = |c: ServeCounters| ServeCounters {
        wall: Duration::ZERO,
        ..c
    };
    assert_eq!(unwalled(g.counters()), unwalled(s.counters()));
    assert_eq!(g.program_stats(), s.program_stats());
    assert_eq!(g.engine_stats(), s.engine_stats());
    assert_eq!(g.worker_request_counts(), s.worker_request_counts());
    for shared in [g, s] {
        let pool = shared.engine_stats();
        assert_eq!(pool.hits + pool.misses, shared.counters().runs);
    }
}
