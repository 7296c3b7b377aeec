//! `serve_bench` — load generator and throughput curve for the
//! concurrent `usim serve` socket mode.
//!
//! For each (clients, workers) cell of a grid, the bench runs the real
//! serving stack in-process — [`serve_socket`] on a Unix socket, one
//! OS thread per client — and drives a mixed program × configuration
//! working set shaped like a design-space sweep: each client sends
//! config-grouped blocks (several programs under one configuration
//! before switching). Clients wait for each response before sending
//! the next request. Per cell it reports
//! requests/sec, p50/p99 round-trip latency, and the cache/pool hit
//! rates read straight from the shared serving state, then writes the
//! grid to `BENCH_serve.json`.
//!
//! The host's CPU count is recorded in the artifact: multi-worker
//! *throughput* scaling is only physically available when the host has
//! cores to scale onto, so the scaling curve must be read against
//! `host_cpus` (on a 1-CPU host every cell shares one core, so the
//! curve measures lock and scheduling overhead, not parallel speedup).
//!
//! ```text
//! cargo run --release -p ultrascalar-bench --bin serve_bench            full grid
//! cargo run --release -p ultrascalar-bench --bin serve_bench -- --quick   CI grid
//! ```

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ultrascalar_bench::cli::ServeOptions;
use ultrascalar_bench::serve::{serve_socket, ServeShared};
use ultrascalar_bench::Table;

/// The program side of the working set: four kernels with distinct
/// sources (so the program cache serves a real working set).
const PROGRAMS: [&str; 4] = [
    "li r1, 6\\nli r2, 7\\nmul r3, r1, r2\\nhalt\\n",
    "li r1, 0\\nli r2, 8\\nli r3, 0\\nloop:\\nsw r1, (r1)\\nlw r4, (r1)\\nadd r3, r3, r4\\naddi r1, r1, 1\\nblt r1, r2, loop\\nhalt\\n",
    "li r1, 3\\naddi r1, r1, 1\\nadd r2, r2, r1\\nadd r3, r3, r1\\nadd r4, r4, r1\\naddi r1, r1, 2\\nadd r5, r5, r1\\nadd r6, r6, r1\\nhalt\\n",
    "li r1, 5\\nli r2, 9\\nsw r2, (r1)\\nlw r3, (r1)\\nadd r4, r3, r2\\nhalt\\n",
];

/// The configuration side: four topologies, so the engine pool serves a
/// working set too.
const CONFIGS: [&str; 4] = [
    r#"{"arch":"usi","window":8,"predictor":"bimodal:64"}"#,
    r#"{"arch":"usi","window":16,"predictor":"bimodal:64"}"#,
    r#"{"arch":"hybrid","window":16,"cluster":4,"predictor":"bimodal:64","renaming":true}"#,
    r#"{"arch":"usii","window":8,"predictor":"bimodal:64"}"#,
];

/// One grid cell's measurements.
struct Cell {
    workers: usize,
    clients: usize,
    requests: u64,
    wall: Duration,
    p50_us: f64,
    p99_us: f64,
    program_hit_rate: f64,
    engine_warm_rate: f64,
    pool_evictions: u64,
    errors: u64,
    disconnects: u64,
}

impl Cell {
    fn rps(&self) -> f64 {
        self.requests as f64 / self.wall.as_secs_f64()
    }
}

/// Build one client's request script: `rounds` passes over the four
/// configurations, each a config-grouped block of the four programs.
/// Clients start at different configurations so the shards see
/// simultaneous distinct working sets.
fn client_script(client: usize, rounds: usize) -> Vec<String> {
    let mut reqs = Vec::with_capacity(rounds * CONFIGS.len() * PROGRAMS.len());
    for _ in 0..rounds {
        for c in 0..CONFIGS.len() {
            let cfg = CONFIGS[(client + c) % CONFIGS.len()];
            for prog in PROGRAMS {
                reqs.push(format!(r#"{{"program":"{prog}","options":{cfg}}}"#));
            }
        }
    }
    reqs
}

/// Connect with retries: the serving thread binds the socket
/// asynchronously to this one.
fn connect(path: &str) -> UnixStream {
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("serve_bench: could not connect to {path}");
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1_000.0
}

/// Run one (clients, workers) cell and measure it.
fn run_cell(workers: usize, clients: usize, rounds: usize) -> Cell {
    let path = std::env::temp_dir()
        .join(format!(
            "usim-serve-bench-{}-w{workers}c{clients}.sock",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let shared = Arc::new(ServeShared::new(&ServeOptions {
        socket: Some(path.clone()),
        program_cache: 64,
        engines: 16,
        workers,
    }));
    let server = {
        let shared = Arc::clone(&shared);
        let path = path.clone();
        std::thread::spawn(move || serve_socket(&shared, &path).expect("serve_socket"))
    };

    let started = Instant::now();
    let client_threads: Vec<_> = (0..clients)
        .map(|c| {
            let path = path.clone();
            std::thread::spawn(move || {
                let script = client_script(c, rounds);
                let stream = connect(&path);
                let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
                let mut writer = stream;
                let mut line = String::new();
                let mut latencies: Vec<u64> = Vec::with_capacity(script.len());
                for req in &script {
                    let t0 = Instant::now();
                    writer.write_all(req.as_bytes()).expect("send request");
                    writer.write_all(b"\n").expect("send newline");
                    line.clear();
                    reader.read_line(&mut line).expect("read response");
                    latencies.push(t0.elapsed().as_nanos() as u64);
                    assert!(
                        line.starts_with("{\"ok\":true,"),
                        "request failed: {req} -> {line}"
                    );
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for t in client_threads {
        latencies.extend(t.join().expect("client thread"));
    }
    let wall = started.elapsed();

    // Stop the serving loop the way a client would.
    let mut stop = connect(&path);
    stop.write_all(b"{\"cmd\":\"shutdown\"}\n")
        .expect("shutdown");
    let mut ack = String::new();
    BufReader::new(stop).read_line(&mut ack).expect("ack");
    server.join().expect("server thread");

    latencies.sort_unstable();
    let c = shared.counters();
    let pc = shared.program_stats();
    let ep = shared.engine_stats();
    Cell {
        workers,
        clients,
        requests: latencies.len() as u64,
        wall,
        p50_us: percentile_us(&latencies, 0.50),
        p99_us: percentile_us(&latencies, 0.99),
        program_hit_rate: pc.hits as f64 / (pc.hits + pc.misses).max(1) as f64,
        engine_warm_rate: ep.hits as f64 / (ep.hits + ep.misses).max(1) as f64,
        pool_evictions: ep.evictions,
        errors: c.errors,
        disconnects: c.disconnects,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    if let Some(bad) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            a.as_str() != "--quick" && a.as_str() != "--out" && !(*i > 0 && args[i - 1] == "--out")
        })
        .map(|(_, a)| a)
    {
        eprintln!("serve_bench: unknown argument `{bad}` (--quick, --out PATH)");
        std::process::exit(2);
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (worker_grid, client_grid, rounds): (&[usize], &[usize], usize) = if quick {
        (&[1, 2], &[1, 4], 3)
    } else {
        (&[1, 2, 4], &[1, 4, 8], 8)
    };
    eprintln!(
        "serve_bench: host has {host_cpus} CPU{}; workers {:?} x clients {:?}, \
         {} requests per client",
        if host_cpus == 1 { "" } else { "s" },
        worker_grid,
        client_grid,
        rounds * CONFIGS.len() * PROGRAMS.len(),
    );

    let mut cells: Vec<Cell> = Vec::new();
    for &w in worker_grid {
        for &c in client_grid {
            let cell = run_cell(w, c, rounds);
            eprintln!(
                "  workers={w} clients={c}: {:.0} req/s (p50 {:.1} us, p99 {:.1} us)",
                cell.rps(),
                cell.p50_us,
                cell.p99_us
            );
            cells.push(cell);
        }
    }

    let mut t = Table::new(vec![
        "workers",
        "clients",
        "req/s",
        "p50 us",
        "p99 us",
        "prog hit",
        "engine warm",
        "evictions",
    ]);
    for cell in &cells {
        t.row(vec![
            cell.workers.to_string(),
            cell.clients.to_string(),
            format!("{:.0}", cell.rps()),
            format!("{:.1}", cell.p50_us),
            format!("{:.1}", cell.p99_us),
            format!("{:.1}%", cell.program_hit_rate * 100.0),
            format!("{:.1}%", cell.engine_warm_rate * 100.0),
            cell.pool_evictions.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut json = String::from("{\n  \"benchmark\": \"serve\",\n");
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"clients\": {}, \"requests\": {}, \
             \"wall_s\": {:.6}, \"rps\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
             \"program_cache_hit_rate\": {:.4}, \"engine_warm_rate\": {:.4}, \
             \"pool_evictions\": {}, \"errors\": {}, \
             \"disconnects\": {}}}{}\n",
            cell.workers,
            cell.clients,
            cell.requests,
            cell.wall.as_secs_f64(),
            cell.rps(),
            cell.p50_us,
            cell.p99_us,
            cell.program_hit_rate,
            cell.engine_warm_rate,
            cell.pool_evictions,
            cell.errors,
            cell.disconnects,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("wrote {out_path} ({} cells)", cells.len());
}
