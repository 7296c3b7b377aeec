//! Integration tests for the concurrent `usim serve` socket mode:
//! byte-identical responses under concurrency, client-disconnect
//! containment, shard eviction under contention, and graceful
//! shutdown with idle clients.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use ultrascalar::config_shard_hash;
use ultrascalar_bench::cli::{self, RunOptions, ServeOptions};
use ultrascalar_bench::serve::{serve_socket, ServeShared, Server};

fn sock_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("usim-serve-test-{}-{tag}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn connect(path: &str) -> UnixStream {
    for _ in 0..400 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("could not connect to {path}");
}

fn spawn_server(
    tag: &str,
    o: ServeOptions,
) -> (String, Arc<ServeShared>, std::thread::JoinHandle<()>) {
    let path = sock_path(tag);
    let _ = std::fs::remove_file(&path);
    let shared = Arc::new(ServeShared::new(&o));
    let handle = {
        let shared = Arc::clone(&shared);
        let path = path.clone();
        std::thread::spawn(move || serve_socket(&shared, &path).expect("serve_socket"))
    };
    (path, shared, handle)
}

fn shutdown_server(path: &str, handle: std::thread::JoinHandle<()>) {
    let mut stop = connect(path);
    stop.write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut ack = String::new();
    BufReader::new(stop).read_line(&mut ack).expect("read ack");
    assert_eq!(ack.trim_end(), "{\"ok\":true,\"shutdown\":true}");
    handle.join().expect("server thread joins after shutdown");
}

/// Each client's request sequence: its own program (plus two shared
/// ones) under two configurations, interleaved.
fn client_script(client: usize) -> Vec<String> {
    let own = format!("li r9, {client}\\nli r1, 6\\nli r2, 7\\nmul r3, r1, r2\\nhalt\\n");
    let shared_a = "li r1, 0\\nli r2, 8\\nli r3, 0\\nloop:\\nsw r1, (r1)\\nlw r4, (r1)\\nadd r3, r3, r4\\naddi r1, r1, 1\\nblt r1, r2, loop\\nhalt\\n";
    let shared_b = "li r1, 5\\nli r2, 9\\nsw r2, (r1)\\nlw r3, (r1)\\nadd r4, r3, r2\\nhalt\\n";
    let cfg_a = r#"{"arch":"usi","window":8,"predictor":"bimodal:64"}"#;
    let cfg_b =
        r#"{"arch":"hybrid","window":16,"cluster":4,"predictor":"bimodal:64","renaming":true}"#;
    let mut reqs = Vec::new();
    for _ in 0..6 {
        for cfg in [cfg_a, cfg_b] {
            for prog in [own.as_str(), shared_a, shared_b] {
                reqs.push(format!(r#"{{"program":"{prog}","options":{cfg}}}"#));
            }
        }
    }
    reqs.push(
        r#"{"id":"tail","registers":true,"program":"li r1, 41\naddi r1, r1, 1\nhalt\n"}"#
            .to_string(),
    );
    reqs
}

#[test]
fn concurrent_clients_get_byte_identical_responses() {
    const CLIENTS: usize = 6;
    // Serial baseline: each client's script through a fresh
    // single-threaded server, in order.
    let baselines: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            let mut s = Server::new(64, 16);
            client_script(c)
                .iter()
                .map(|req| s.handle_line(req).to_string())
                .collect()
        })
        .collect();

    let (path, shared, handle) = spawn_server(
        "roundtrip",
        ServeOptions {
            socket: None,
            program_cache: 64,
            engines: 16,
            workers: 4,
        },
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || {
                let script = client_script(c);
                let stream = connect(&path);
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut responses = Vec::with_capacity(script.len());
                for req in &script {
                    writer.write_all(req.as_bytes()).expect("send");
                    writer.write_all(b"\n").expect("send newline");
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("response");
                    responses.push(line.trim_end().to_string());
                }
                responses
            })
        })
        .collect();
    for (c, t) in clients.into_iter().enumerate() {
        let responses = t.join().expect("client thread");
        assert_eq!(
            responses, baselines[c],
            "client {c}: concurrent responses must be byte-identical to the serial baseline"
        );
    }
    let c = shared.counters();
    assert_eq!(c.errors, 0);
    assert_eq!(c.disconnects, 0);
    assert_eq!(c.runs, (CLIENTS * client_script(0).len()) as u64);
    shutdown_server(&path, handle);
}

#[test]
fn disconnect_mid_line_closes_only_that_connection() {
    let (path, shared, handle) = spawn_server(
        "disconnect",
        ServeOptions {
            socket: None,
            program_cache: 8,
            engines: 4,
            workers: 2,
        },
    );

    // A well-behaved client first, to warm the caches.
    let good = connect(&path);
    let mut good_r = BufReader::new(good.try_clone().expect("clone"));
    let mut good_w = good;
    good_w
        .write_all(b"{\"program\":\"li r1, 1\\nhalt\\n\"}\n")
        .expect("send");
    let mut line = String::new();
    good_r.read_line(&mut line).expect("response");
    assert!(line.starts_with("{\"ok\":true,"), "{line}");

    // A client that dies mid-request: partial line, no newline, then
    // the connection drops.
    {
        let mut rude = connect(&path);
        rude.write_all(b"{\"program\":\"li r1, ")
            .expect("send partial");
        // Dropping the stream closes it with the request unfinished.
    }
    // And one that vanishes between requests (clean EOF): no
    // disconnect counted.
    {
        let mut quiet = connect(&path);
        quiet
            .write_all(b"{\"program\":\"li r1, 2\\nhalt\\n\"}\n")
            .expect("send");
        let mut r = BufReader::new(quiet.try_clone().expect("clone"));
        let mut resp = String::new();
        r.read_line(&mut resp).expect("response");
        assert!(resp.starts_with("{\"ok\":true,"), "{resp}");
    }

    // Wait until the rude client's disconnect is recorded.
    for _ in 0..400 {
        if shared.counters().disconnects >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(shared.counters().disconnects, 1);
    assert_eq!(shared.counters().errors, 0, "a disconnect is not an error");

    // The first client's connection is still alive and serving.
    line.clear();
    good_w
        .write_all(b"{\"program\":\"li r1, 1\\nhalt\\n\"}\n")
        .expect("send after disconnect");
    good_r
        .read_line(&mut line)
        .expect("response after disconnect");
    assert!(line.starts_with("{\"ok\":true,"), "{line}");

    drop(good_w);
    shutdown_server(&path, handle);
}

#[test]
fn contended_pool_evicts_and_recovers() {
    // Engine capacity 2 over 4 workers leaves one engine per pool
    // shard. Client 0 alternates two configurations whose shard hashes
    // collide, so from its second switch on, each check-in lands in a
    // full shard and evicts: the eviction is forced by construction,
    // whatever the other clients do. Clients 1..4 cycle through four
    // more configurations for contention; every response must still
    // be correct.
    const WORKERS: usize = 4;
    let shard = |window: usize| {
        let o = RunOptions {
            window,
            ..RunOptions::default()
        };
        config_shard_hash(&cli::build_config(&o).expect("valid config")) % WORKERS as u64
    };
    let candidates: Vec<usize> = (9..64usize).filter(|w| !w.is_power_of_two()).collect();
    let (a, b) = candidates
        .iter()
        .flat_map(|&a| candidates.iter().map(move |&b| (a, b)))
        .find(|&(a, b)| a < b && shard(a) == shard(b))
        .expect("more windows than shards must collide");
    let (path, shared, handle) = spawn_server(
        "evict",
        ServeOptions {
            socket: None,
            program_cache: 8,
            engines: 2,
            workers: WORKERS,
        },
    );
    let clients: Vec<_> = (0..WORKERS)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || {
                let stream = connect(&path);
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                for i in 0..12 {
                    let window = match c {
                        0 if i % 2 == 0 => a,
                        0 => b,
                        _ => 8 << ((c + i) % 4),
                    };
                    let req = format!(
                        r#"{{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{{"arch":"usi","window":{window}}}}}"#
                    );
                    writer.write_all(req.as_bytes()).expect("send");
                    writer.write_all(b"\n").expect("send newline");
                    line.clear();
                    reader.read_line(&mut line).expect("response");
                    assert!(line.starts_with("{\"ok\":true,"), "{line}");
                    assert!(line.contains(&format!("\"window\":{window}")), "{line}");
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }
    assert!(
        shared.engine_stats().evictions > 0,
        "windows {a} and {b} share a one-engine shard, so switching between them must evict"
    );
    assert_eq!(shared.counters().errors, 0);
    shutdown_server(&path, handle);
}

#[test]
fn shutdown_drains_and_unblocks_idle_clients() {
    let (path, shared, handle) = spawn_server(
        "shutdown",
        ServeOptions {
            socket: None,
            program_cache: 8,
            engines: 4,
            workers: 3,
        },
    );

    // An idle client: connected, mid-session, sending nothing. Its
    // worker is parked in read_line.
    let idle = connect(&path);
    let mut idle_r = BufReader::new(idle.try_clone().expect("clone"));
    let mut idle_w = idle;
    idle_w
        .write_all(b"{\"program\":\"li r1, 3\\nhalt\\n\"}\n")
        .expect("send");
    let mut line = String::new();
    idle_r.read_line(&mut line).expect("response");
    assert!(line.starts_with("{\"ok\":true,"), "{line}");

    // Another client asks for shutdown; the server must drain, kick
    // the idle reader, join every worker, and return.
    shutdown_server(&path, handle);
    assert!(shared.is_shutdown());

    // The idle client's connection was closed by the drain: EOF.
    line.clear();
    let n = idle_r.read_line(&mut line).expect("EOF read");
    assert_eq!(n, 0, "idle connection closed on shutdown: {line:?}");

    // The socket file is gone; new connections are refused.
    assert!(UnixStream::connect(&path).is_err(), "socket removed");
}
