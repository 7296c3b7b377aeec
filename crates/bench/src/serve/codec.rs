//! The request codec of `usim serve`: the JSON request parser and the
//! response writers.
//!
//! The codec is hand-rolled: this workspace takes no serde dependency.
//! Requests parse into a worker-owned [`Request`] whose string buffers
//! are reused across lines, and responses serialise into a
//! worker-owned line buffer, so a well-formed request is decoded and
//! answered without touching the allocator. The parser scans a line
//! once: a string value is copied in whole runs up to its next quote
//! or backslash, and only escapes are decoded byte by byte.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use super::{ServeShared, MAX_CYCLES};
use crate::cli::{self, RunOptions};
use ultrascalar::{ProcConfig, RunResult};
use ultrascalar_memsys::NetworkKind;

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum Cmd {
    /// Simulate a program (the default when `cmd` is absent).
    #[default]
    Run,
    /// Report aggregate serving counters.
    Stats,
    /// Acknowledge and stop the serving loop.
    Shutdown,
}

/// One parsed request. Lives inside a [`super::Worker`] and is rewound per
/// line so its string buffers are reused across requests.
#[derive(Debug, Default)]
pub(super) struct Request {
    pub(super) cmd: Cmd,
    pub(super) id: String,
    pub(super) has_id: bool,
    /// The inline program text; for a run with a `program_path`, the
    /// file's text once it is read.
    pub(super) program: String,
    pub(super) has_program: bool,
    pub(super) program_path: String,
    pub(super) has_program_path: bool,
    pub(super) timing: bool,
    pub(super) registers: bool,
    pub(super) opts: RunOptions,
}

impl Request {
    fn reset(&mut self) {
        self.cmd = Cmd::Run;
        self.id.clear();
        self.has_id = false;
        self.program.clear();
        self.has_program = false;
        self.program_path.clear();
        self.has_program_path = false;
        self.timing = false;
        self.registers = false;
        // `RunOptions::default()` holds only plain data and an empty
        // (unallocated) path string, so this rewinds without touching
        // the allocator.
        self.opts = RunOptions::default();
    }
}

/// Append the `{"ok":false,…}` error response for `req`.
pub(super) fn write_error_line(out: &mut String, req: &Request, err: &str) {
    out.push_str("{\"ok\":false,");
    if req.has_id {
        out.push_str("\"id\":\"");
        escape_into(out, &req.id);
        out.push_str("\",");
    }
    out.push_str("\"error\":\"");
    escape_into(out, err);
    out.push_str("\"}");
}

/// Serialise a run response. Identical requests must produce
/// byte-identical responses, so per-request wall time appears only
/// when the request opted in with `"timing": true` (and `wall_us` is
/// `Some`).
pub(super) fn write_run(
    out: &mut String,
    req: &Request,
    cfg: &ProcConfig,
    r: &RunResult,
    wall_us: Option<u64>,
) {
    out.push_str("{\"ok\":true,");
    if req.has_id {
        out.push_str("\"id\":\"");
        escape_into(out, &req.id);
        out.push_str("\",");
    }
    let arch = if cfg.cluster == 1 {
        "usi"
    } else if cfg.cluster == cfg.window {
        "usii"
    } else {
        "hybrid"
    };
    let _ = write!(
        out,
        "\"arch\":\"{arch}\",\"window\":{},\"cluster\":{},\"halted\":{},\
         \"cycles\":{},\"instructions\":{},\"ipc\":{:.4},\"branches\":{},\
         \"mispredictions\":{},\"flushed\":{},\"loads\":{},\"stores\":{},\
         \"store_forwards\":{},\"packed_fallbacks\":{}",
        cfg.window,
        cfg.cluster,
        r.halted,
        r.cycles,
        r.stats.committed,
        r.ipc(),
        r.stats.branches,
        r.stats.mispredictions,
        r.stats.flushed,
        r.stats.mem.loads,
        r.stats.mem.stores,
        r.stats.store_forwards,
        r.stats.packed_fallbacks,
    );
    if req.registers {
        out.push_str(",\"registers\":[");
        for (i, v) in r.regs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    if let Some(us) = wall_us {
        let _ = write!(out, ",\"wall_us\":{us}");
    }
    out.push('}');
}

pub(super) fn write_stats(out: &mut String, shared: &ServeShared) {
    let c = shared.counters();
    let pc = shared.program_stats();
    let ep = shared.engine_stats();
    let _ = write!(
        out,
        "{{\"ok\":true,\"stats\":{{\"requests\":{},\"runs\":{},\"errors\":{},\
         \"disconnects\":{},\"program_cache_hits\":{},\"program_cache_misses\":{},\
         \"program_cache_evictions\":{},\"programs_cached\":{},\
         \"engine_pool_hits\":{},\"engine_pool_misses\":{},\
         \"engine_pool_evictions\":{},\"engines_warm\":{},\
         \"cycles_simulated\":{},\"instructions_committed\":{},\"packed_fallbacks\":{},\
         \"wall_s\":{:.6},\"workers\":{}",
        c.requests,
        c.runs,
        c.errors,
        c.disconnects,
        pc.hits,
        pc.misses,
        pc.evictions,
        pc.entries,
        ep.hits,
        ep.misses,
        ep.evictions,
        ep.entries,
        c.cycles_simulated,
        c.instructions_committed,
        c.packed_fallbacks,
        c.wall.as_secs_f64(),
        shared.workers,
    );
    out.push_str(",\"worker_requests\":[");
    for (i, w) in shared.worker_requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", w.load(Ordering::Relaxed));
    }
    out.push_str("]}}");
}

/// Append `s` to `out` as the body of a JSON string: quotes,
/// backslashes and every control character are escaped.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A byte cursor over one request line. All string values parse into
/// caller-owned buffers, so a well-formed request allocates nothing.
struct P<'a> {
    /// The line, for copying string runs out as `&str` slices.
    s: &'a str,
    /// The same line as bytes, for the cursor.
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn new(s: &'a str) -> Self {
        P {
            s,
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.i += 1;
        }
    }

    /// The whole character starting at byte `i`, for error texts.
    fn char_at(&self, i: usize) -> char {
        self.s
            .get(i..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(&c) if c == want => {
                self.i += 1;
                Ok(())
            }
            Some(_) => Err(format!(
                "bad JSON: expected `{}` at byte {}, found `{}`",
                want as char,
                self.i,
                self.char_at(self.i)
            )),
            None => Err(format!(
                "bad JSON: expected `{}` at byte {}, found end of line",
                want as char, self.i
            )),
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.i >= self.b.len()
    }

    /// Parse a JSON string into `out` (cleared first), decoding all
    /// escapes including `\uXXXX` surrogate pairs. Each run of bytes up
    /// to the next `"` or `\` is copied with one `push_str`: both stop
    /// bytes are ASCII, so every run starts and ends on a char boundary
    /// of the line, which is already valid UTF-8.
    fn string_into(&mut self, out: &mut String) -> Result<(), String> {
        out.clear();
        self.eat(b'"')?;
        loop {
            let run = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\');
            let end = run.map_or(self.b.len(), |k| self.i + k);
            out.push_str(&self.s[self.i..end]);
            self.i = end;
            let Some(&c) = self.b.get(self.i) else {
                return Err("bad JSON: unterminated string".into());
            };
            self.i += 1;
            if c == b'"' {
                return Ok(());
            }
            let Some(&e) = self.b.get(self.i) else {
                return Err("bad JSON: unterminated escape".into());
            };
            let escape_at = self.i;
            self.i += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: a second \uXXXX must follow
                        // with the low half.
                        if self.b.get(self.i) != Some(&b'\\')
                            || self.b.get(self.i + 1) != Some(&b'u')
                        {
                            return Err("bad JSON: lone high surrogate".into());
                        }
                        self.i += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err("bad JSON: invalid low surrogate".into());
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    match char::from_u32(code) {
                        Some(ch) => out.push(ch),
                        None => return Err("bad JSON: invalid \\u escape".into()),
                    }
                }
                _ => {
                    let other = self.char_at(escape_at);
                    return Err(format!("bad JSON: unknown escape `\\{other}`"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(&c) = self.b.get(self.i) else {
                return Err("bad JSON: truncated \\u escape".into());
            };
            self.i += 1;
            v = v * 16
                + match c {
                    b'0'..=b'9' => (c - b'0') as u32,
                    b'a'..=b'f' => (c - b'a') as u32 + 10,
                    b'A'..=b'F' => (c - b'A') as u32 + 10,
                    _ => return Err("bad JSON: non-hex digit in \\u escape".into()),
                };
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("bad JSON: expected a number at byte {start}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        if self.b[self.i..].starts_with(b"true") {
            self.i += 4;
            Ok(true)
        } else if self.b[self.i..].starts_with(b"false") {
            self.i += 5;
            Ok(false)
        } else {
            Err(format!("bad JSON: expected true/false at byte {}", self.i))
        }
    }
}

fn as_int(x: f64, what: &str) -> Result<u64, String> {
    if x >= 0.0 && x.fract() == 0.0 && x <= (1u64 << 53) as f64 {
        Ok(x as u64)
    } else {
        Err(format!("{what} must be a non-negative integer"))
    }
}

fn as_usize(x: f64, what: &str) -> Result<usize, String> {
    Ok(as_int(x, what)? as usize)
}

/// Parse one request line into `req` (rewound first). `key` and `sval`
/// are caller-owned scratch buffers so parsing is allocation-free.
pub(super) fn parse_request(
    line: &str,
    req: &mut Request,
    key: &mut String,
    sval: &mut String,
) -> Result<(), String> {
    req.reset();
    let mut p = P::new(line);
    p.eat(b'{')?;
    if p.peek() == Some(b'}') {
        p.eat(b'}')?;
    } else {
        loop {
            p.string_into(key)?;
            p.eat(b':')?;
            match key.as_str() {
                "cmd" => {
                    p.string_into(sval)?;
                    req.cmd = match sval.as_str() {
                        "run" => Cmd::Run,
                        "stats" => Cmd::Stats,
                        "shutdown" => Cmd::Shutdown,
                        other => return Err(format!("unknown cmd `{other}` (run|stats|shutdown)")),
                    };
                }
                "id" => {
                    p.string_into(&mut req.id)?;
                    req.has_id = true;
                }
                "program" => {
                    p.string_into(&mut req.program)?;
                    req.has_program = true;
                }
                "program_path" => {
                    p.string_into(&mut req.program_path)?;
                    req.has_program_path = true;
                }
                "timing" => req.timing = p.boolean()?,
                "registers" => req.registers = p.boolean()?,
                "options" => parse_options(&mut p, &mut req.opts, key, sval)?,
                other => return Err(format!("unknown request field `{other}`")),
            }
            match p.peek() {
                Some(b',') => p.eat(b',')?,
                _ => break,
            }
        }
        p.eat(b'}')?;
    }
    if !p.at_end() {
        return Err("bad JSON: trailing characters after request object".into());
    }
    Ok(())
}

/// Parse the nested `options` object. Field names mirror the `usim run`
/// flags; values go through the same validation as the CLI parser.
fn parse_options(
    p: &mut P,
    o: &mut RunOptions,
    key: &mut String,
    sval: &mut String,
) -> Result<(), String> {
    p.eat(b'{')?;
    if p.peek() == Some(b'}') {
        return p.eat(b'}');
    }
    loop {
        p.string_into(key)?;
        p.eat(b':')?;
        match key.as_str() {
            "arch" => {
                p.string_into(sval)?;
                o.arch = cli::parse_arch(sval)?;
            }
            "predictor" => {
                p.string_into(sval)?;
                o.predictor = cli::parse_predictor(sval)?;
            }
            "window" => o.window = as_usize(p.number()?, "window")?,
            "cluster" => o.cluster = Some(as_usize(p.number()?, "cluster")?),
            "alus" => o.alus = Some(as_usize(p.number()?, "alus")?),
            "mem_exp" => o.mem_exp = p.number()?,
            "network" => {
                p.string_into(sval)?;
                o.network = match sval.as_str() {
                    "fattree" | "fat-tree" => NetworkKind::FatTree,
                    "butterfly" => NetworkKind::Butterfly,
                    other => return Err(format!("unknown network `{other}` (fattree|butterfly)")),
                };
            }
            "butterfly" => {
                if p.boolean()? {
                    o.network = NetworkKind::Butterfly;
                }
            }
            "renaming" => o.renaming = p.boolean()?,
            "cache" => o.cache = p.boolean()?,
            "fetch_width" => o.fetch_width = Some(as_usize(p.number()?, "fetch_width")?),
            "per_hop" => o.per_hop = Some(as_int(p.number()?, "per_hop")?),
            "regs" => o.regs = as_usize(p.number()?, "regs")?,
            "max_cycles" => {
                o.max_cycles = as_int(p.number()?, "max_cycles")?;
                if o.max_cycles > MAX_CYCLES {
                    return Err(format!(
                        "max_cycles {} exceeds the serve cap of {MAX_CYCLES} cycles",
                        o.max_cycles
                    ));
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        match p.peek() {
            Some(b',') => p.eat(b',')?,
            _ => break,
        }
    }
    p.eat(b'}')
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Every ASCII character and one non-BMP character survive
    /// `escape_into` followed by the request parser's string decoder,
    /// and no control character reaches the output unescaped.
    #[test]
    fn escape_round_trips_through_the_string_parser() {
        let all: String = (0..=0x7Fu8).map(char::from).chain(['\u{1F600}']).collect();
        let (mut json, mut back) = (String::new(), String::new());
        let singles = all.chars().map(String::from);
        for s in singles.chain([all.clone()]) {
            json.clear();
            json.push('"');
            escape_into(&mut json, &s);
            json.push('"');
            assert!(json.chars().all(|c| c >= ' '), "{s:?} escaped as {json:?}");
            P::new(&json)
                .string_into(&mut back)
                .expect("escaped string parses");
            assert_eq!(back, s, "{s:?} escaped as {json:?}");
        }
    }

    /// A string of the pieces that stress the string decoder: a plain
    /// ASCII run of at least 4 KiB (in about half the strings), quotes,
    /// backslashes, every control byte, and 2-, 3- and 4-byte UTF-8
    /// characters.
    fn codec_string(rng: &mut impl Rng) -> String {
        const PLAIN: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 ,.:;/{}[]";
        // The smallest code point of each UTF-8 length from 2 up, and
        // one past the largest.
        const WIDE: [(u32, u32); 3] = [(0x80, 0x800), (0x800, 0x1_0000), (0x1_0000, 0x11_0000)];
        let mut s = String::new();
        let pieces = rng.gen_range(1..12usize);
        let long_at = rng.gen_range(0..2 * pieces);
        for i in 0..pieces {
            let plain = if i == long_at {
                rng.gen_range(4096..4608usize)
            } else {
                rng.gen_range(0..8usize)
            };
            s.extend((0..plain).map(|_| char::from(PLAIN[rng.gen_range(0..PLAIN.len())])));
            match rng.gen_range(0..5u8) {
                0 => s.push(if rng.gen_bool(0.5) { '"' } else { '\\' }),
                1 => s.extend((0..0x20u8).map(char::from)),
                2 => s.push(char::from(rng.gen_range(0..0x20u8))),
                _ => {
                    let (lo, hi) = WIDE[rng.gen_range(0..3usize)];
                    // Surrogate code points are no chars: draw again.
                    let c = std::iter::repeat_with(|| char::from_u32(rng.gen_range(lo..hi)))
                        .flatten()
                        .next()
                        .expect("a char");
                    s.push(c);
                }
            }
        }
        s
    }

    /// `s` as a JSON string literal with every character written as
    /// `\uXXXX` escapes (surrogate pairs beyond the BMP), except `/`,
    /// written `\/`: the decoder's escape path on the same text.
    fn u_escaped(s: &str) -> String {
        let mut json = String::from("\"");
        for c in s.chars() {
            if c == '/' {
                json.push_str("\\/");
            } else {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    let _ = write!(json, "\\u{unit:04X}");
                }
            }
        }
        json.push('"');
        json
    }

    /// Seeded strings survive `escape_into`, and the `\u` escaping of
    /// every character, through the decoder. Every truncation of an
    /// `escape_into` string, and the last 64 and 64 random ones of a
    /// `\u`-escaped string, fail with one of the decoder's end-of-line
    /// errors rather than panicking.
    #[test]
    fn seeded_strings_round_trip_and_truncations_fail() {
        let ends = [
            "bad JSON: unterminated string",
            "bad JSON: unterminated escape",
            "bad JSON: truncated \\u escape",
            "bad JSON: lone high surrogate",
        ];
        let mut back = String::new();
        rand::cases(0x5EED_C0DE, 24, |rng, _| {
            let s = codec_string(rng);
            let mut json = String::from("\"");
            escape_into(&mut json, &s);
            json.push('"');
            let u = u_escaped(&s);
            let random: Vec<usize> = (0..64).map(|_| rng.gen_range(1..u.len())).collect();
            let u_cuts = (u.len().saturating_sub(64).max(1)..u.len()).chain(random);
            for (form, cuts) in [
                (&json, (1..json.len()).collect()),
                (&u, u_cuts.collect::<Vec<_>>()),
            ] {
                P::new(form)
                    .string_into(&mut back)
                    .expect("escaped string parses");
                assert!(
                    back == s,
                    "round trip changed a string of {} bytes",
                    s.len()
                );
                for k in cuts.into_iter().filter(|&k| form.is_char_boundary(k)) {
                    let err = P::new(&form[..k])
                        .string_into(&mut back)
                        .expect_err("a truncated string literal is an error");
                    assert!(ends.contains(&err.as_str()), "cut at {k}: {err}");
                }
            }
        });
    }

    /// The decoder's error texts, which `usim serve` clients see.
    #[test]
    fn string_error_texts_are_pinned() {
        let cases = [
            (r#""abc"#, "bad JSON: unterminated string"),
            (r#""abc\"#, "bad JSON: unterminated escape"),
            (r#""\u12"#, "bad JSON: truncated \\u escape"),
            (r#""\u12G4""#, "bad JSON: non-hex digit in \\u escape"),
            (r#""\ud83d""#, "bad JSON: lone high surrogate"),
            (r#""\ud83dx""#, "bad JSON: lone high surrogate"),
            (r#""\udc00""#, "bad JSON: invalid \\u escape"),
            (r#""\ud83d\u0041""#, "bad JSON: invalid low surrogate"),
            (r#""\ud83d\ud83d""#, "bad JSON: invalid low surrogate"),
            (r#""\x""#, "bad JSON: unknown escape `\\x`"),
            (r#""\é""#, "bad JSON: unknown escape `\\é`"),
            (r#""\😀""#, "bad JSON: unknown escape `\\😀`"),
            ("abc", "bad JSON: expected `\"` at byte 0, found `a`"),
            ("  é", "bad JSON: expected `\"` at byte 2, found `é`"),
        ];
        let mut out = String::new();
        for (json, want) in cases {
            let err = P::new(json).string_into(&mut out).expect_err(json);
            assert_eq!(err, want, "{json}");
        }
    }
}
