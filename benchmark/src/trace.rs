//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, the id of the span that caused it
//! and, for serve requests, a request id. Spans go into one
//! preallocated in-memory buffer and are written at exit as Chrome
//! trace-event JSON (Perfetto and `chrome://tracing` open it). Recording
//! is off unless [`enable`] was called, and a workload switches it on
//! only for its traced passes ([`set_active`]), so the untraced passes
//! of the same run measure the tracing overhead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub tid: u64,
    pub start: u64,
    pub end: u64,
}

struct Recorder {
    spans: Mutex<Vec<Span>>,
    capacity: usize,
    dropped: AtomicU64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static RECORDER: OnceLock<Recorder> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the trace epoch (the first call in the process).
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Allocate the span buffer; recording still waits for [`set_active`].
pub fn enable(capacity: usize) {
    now();
    RECORDER.get_or_init(|| Recorder {
        spans: Mutex::new(Vec::with_capacity(capacity)),
        capacity,
        dropped: AtomicU64::new(0),
    });
}

/// Record spans from now on (`true`) or not (`false`).
pub fn set_active(on: bool) {
    ACTIVE.store(on && RECORDER.get().is_some(), Ordering::SeqCst);
}

/// Is a span begun now recorded?
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// An open span; [`Open::end`] records it. Id 0 means "not recorded".
#[must_use]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: u64,
    req: u64,
    start: u64,
}

impl Open {
    /// This span's id, to pass as the parent of its children.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span now.
    pub fn end(self) {
        if self.id != 0 {
            push(Span {
                name: self.name,
                id: self.id,
                parent: self.parent,
                req: self.req,
                tid: TID.with(|t| *t),
                start: self.start,
                end: now(),
            });
        }
    }
}

/// Begin a span under `parent` (0 for a root).
pub fn begin(name: &'static str, parent: u64) -> Open {
    begin_req(name, parent, 0)
}

/// Begin a span that belongs to serve request `req`.
pub fn begin_req(name: &'static str, parent: u64, req: u64) -> Open {
    if !active() {
        return Open {
            name,
            id: 0,
            parent,
            req,
            start: 0,
        };
    }
    Open {
        name,
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        req,
        start: now(),
    }
}

/// Record a finished span with explicit times; returns its id (0 when
/// not recording).
pub fn record(name: &'static str, parent: u64, req: u64, start: u64, end: u64) -> u64 {
    if !active() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span {
        name,
        id,
        parent,
        req,
        tid: TID.with(|t| *t),
        start,
        end,
    });
    id
}

fn push(span: Span) {
    let Some(r) = RECORDER.get() else { return };
    let mut spans = r.spans.lock().expect("span buffer lock");
    if spans.len() < r.capacity {
        spans.push(span);
    } else {
        r.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// Every recorded span, and how many were dropped because the buffer
/// was full.
pub fn snapshot() -> (Vec<Span>, u64) {
    match RECORDER.get() {
        None => (Vec::new(), 0),
        Some(r) => (
            r.spans.lock().expect("span buffer lock").clone(),
            r.dropped.load(Ordering::Relaxed),
        ),
    }
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect()
}

/// Per span name: total duration, total self time (duration minus the
/// part of it that child spans cover) and count, in first-seen order;
/// plus the number of children that lie partly outside their parent.
pub fn self_times(spans: &[Span]) -> (Vec<(&'static str, u64, u64, u64)>, u64) {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut escaped = 0;
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            if s.start < p.start || s.end > p.end {
                escaped += 1;
            }
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for s in spans {
        let dur = s.end - s.start;
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let own = dur - covered;
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += dur;
                e.2 += own;
                e.3 += 1;
            }
            None => out.push((s.name, dur, own, 1)),
        }
    }
    (out, escaped)
}

/// Write `spans` as Chrome trace-event JSON.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"usbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.id,
            s.parent,
            s.req,
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name: if parent == 0 { "parent" } else { "child" },
            id,
            parent,
            req: 0,
            tid: 1,
            start,
            end,
        }
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two workers' children overlap inside one parent.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90)];
        let (t, escaped) = self_times(&spans);
        assert_eq!(escaped, 0);
        let parent = t.iter().find(|e| e.0 == "parent").unwrap();
        assert_eq!(parent.2, 100 - 80);
    }
}
