//! Integration tests for the concurrent `usim serve` socket mode:
//! byte-identical responses under concurrency, client-disconnect
//! containment, pool eviction under contention, refusal of
//! `program_path`, and graceful shutdown with idle clients.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Duration;

use ultrascalar_bench::cli::ServeOptions;
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

/// One client connection: request lines out, response lines in.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn new(path: &str) -> Client {
        let writer = connect(path);
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { reader, writer }
    }

    /// Send one request line and return its response line, trimmed.
    fn ask(&mut self, req: &str) -> String {
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .expect("send");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response");
        line.trim_end().to_string()
    }
}

/// Start `serve_socket` with the given cache and pool capacities and
/// worker count on its own thread.
fn spawn_server(
    tag: &str,
    program_cache: usize,
    engines: usize,
    workers: usize,
) -> (String, Arc<ServeShared>, std::thread::JoinHandle<()>) {
    let path = sock_path(tag);
    let _ = std::fs::remove_file(&path);
    let shared = Arc::new(ServeShared::new(&ServeOptions {
        socket: None,
        program_cache,
        engines,
        workers,
    }));
    let handle = {
        let shared = Arc::clone(&shared);
        let path = path.clone();
        std::thread::spawn(move || serve_socket(&shared, &path).expect("serve_socket"))
    };
    (path, shared, handle)
}

fn shutdown_server(path: &str, handle: std::thread::JoinHandle<()>) {
    let ack = Client::new(path).ask("{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":true,\"shutdown\":true}");
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

    let (path, shared, handle) = spawn_server("roundtrip", 64, 16, 4);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(&path);
                let script = client_script(c);
                script.iter().map(|req| client.ask(req)).collect::<Vec<_>>()
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
    let (path, shared, handle) = spawn_server("disconnect", 8, 4, 2);

    // A well-behaved client first, to warm the caches.
    let mut good = Client::new(&path);
    let line = good.ask("{\"program\":\"li r1, 1\\nhalt\\n\"}");
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
    let resp = Client::new(&path).ask("{\"program\":\"li r1, 2\\nhalt\\n\"}");
    assert!(resp.starts_with("{\"ok\":true,"), "{resp}");

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
    let line = good.ask("{\"program\":\"li r1, 1\\nhalt\\n\"}");
    assert!(line.starts_with("{\"ok\":true,"), "{line}");

    drop(good);
    shutdown_server(&path, handle);
}

#[test]
fn contended_pool_evicts_and_recovers() {
    // Client 0 alternates two configurations and clients 1..4 cycle
    // through four more, all through one pool of two engines. Each of
    // the six configurations misses at least once and at most two
    // engines survive the last check-in, so at least four are evicted,
    // whatever the interleaving. Every response must still be correct.
    const WORKERS: usize = 4;
    let (a, b) = (12, 24);
    let (path, shared, handle) = spawn_server("evict", 8, 2, WORKERS);
    let clients: Vec<_> = (0..WORKERS)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(&path);
                for i in 0..12 {
                    let window = match c {
                        0 if i % 2 == 0 => a,
                        0 => b,
                        _ => 8 << ((c + i) % 4),
                    };
                    let line = client.ask(&format!(
                        r#"{{"program":"li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt\n","options":{{"arch":"usi","window":{window}}}}}"#
                    ));
                    assert!(line.starts_with("{\"ok\":true,"), "{line}");
                    assert!(line.contains(&format!("\"window\":{window}")), "{line}");
                }
            })
        })
        .collect();
    for t in clients {
        t.join().expect("client thread");
    }
    let pool = shared.engine_stats();
    assert!(
        pool.evictions >= 4,
        "six configurations, two engines: {pool:?}"
    );
    assert_eq!(pool.hits + pool.misses, shared.counters().runs);
    assert_eq!(shared.counters().errors, 0);
    shutdown_server(&path, handle);
}

/// A socket client cannot make the server read a file: `program_path`
/// gets an error line, counted as an error, and the connection keeps
/// serving.
#[test]
fn program_path_is_refused_on_sockets() {
    let asm = std::env::temp_dir().join(format!("usim-serve-test-{}.asm", std::process::id()));
    std::fs::write(&asm, "li r1, 1\nhalt\n").expect("write temp program");
    let (path, shared, handle) = spawn_server("paths", 8, 4, 2);
    let mut client = Client::new(&path);
    let refused = client.ask(&format!(
        r#"{{"id":"p","program_path":"{}"}}"#,
        asm.display()
    ));
    std::fs::remove_file(&asm).ok();
    assert!(
        refused.starts_with("{\"ok\":false,\"id\":\"p\",")
            && refused.contains("`program_path` is not accepted on socket connections"),
        "{refused}"
    );
    let inline = r#"{"program":"li r1, 1\nhalt\n"}"#;
    assert_eq!(client.ask(inline), Server::new(8, 4).handle_line(inline));
    let c = shared.counters();
    assert_eq!((c.requests, c.errors, c.runs), (2, 1, 1));
    drop(client);
    shutdown_server(&path, handle);
}

#[test]
fn shutdown_drains_and_unblocks_idle_clients() {
    let (path, shared, handle) = spawn_server("shutdown", 8, 4, 3);

    // An idle client: connected, mid-session, sending nothing. Its
    // worker is parked in read_line.
    let mut idle = Client::new(&path);
    let line = idle.ask("{\"program\":\"li r1, 3\\nhalt\\n\"}");
    assert!(line.starts_with("{\"ok\":true,"), "{line}");

    // Another client asks for shutdown; the server must drain, kick
    // the idle reader, join every worker, and return.
    shutdown_server(&path, handle);
    assert!(shared.is_shutdown());

    // The idle client's connection was closed by the drain: EOF.
    let mut line = String::new();
    let n = idle.reader.read_line(&mut line).expect("EOF read");
    assert_eq!(n, 0, "idle connection closed on shutdown: {line:?}");

    // The socket file is gone; new connections are refused.
    assert!(UnixStream::connect(&path).is_err(), "socket removed");
}
