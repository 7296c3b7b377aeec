//! The benchmark's own inputs, all derived from `--seed`.
//!
//! Program sources live in `benchmark/programs/`; memory images, lane
//! initial registers, the serve request mix and its arrival times come
//! from the generator here. Nothing calls the repository's own kernel
//! or workload generators, so a change to those cannot change what the
//! benchmark measures.

use std::collections::HashMap;

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one input of one seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut s = crate::stats::Digest::default();
        s.bytes(stream.as_bytes());
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One benchmark kernel: its source and how its memory image is drawn.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    pub name: &'static str,
    pub source: &'static str,
    pub regs: usize,
    /// Input size `n` in the `suite_*` workloads and in `serve_open`,
    /// where simulation must stay short (lane kernels ignore it).
    pub suite_n: usize,
    pub serve_n: usize,
    image: fn(usize, &mut Rng) -> Vec<u32>,
}

macro_rules! kernel {
    ($name:literal, $regs:expr, [$suite_n:expr, $serve_n:expr], $image:expr) => {
        Kernel {
            name: $name,
            source: include_str!(concat!("../programs/", $name, ".asm")),
            regs: $regs,
            suite_n: $suite_n,
            serve_n: $serve_n,
            image: $image,
        }
    };
}

/// `count` words uniform below `below`.
fn random(count: usize, below: u32, rng: &mut Rng) -> Vec<u32> {
    (0..count).map(|_| rng.below(below as u64) as u32).collect()
}

/// The size header every suite kernel reads from word 0, then `payload`.
fn sized(n: usize, payload: Vec<u32>) -> Vec<u32> {
    let mut mem = vec![n as u32];
    mem.extend(payload);
    mem
}

/// A random cyclic linked list over `n` nodes at words 1..=n (each
/// holding the address of the next), entered at word 1.
fn cycle(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut order: Vec<u32> = (1..n as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut mem = vec![1u32; n];
    let mut at = 0usize;
    for &next in &order {
        mem[at] = next + 1;
        at = next as usize;
    }
    mem
}

/// `count` words uniform below 2^30 with the low bit set on exactly
/// half of them, in seeded positions: the parity-keyed branches of
/// `branch_gauntlet` go each way equally often for every seed.
fn half_odd(count: usize, rng: &mut Rng) -> Vec<u32> {
    let odd = shuffled_flags(count, count / 2, rng);
    odd.into_iter()
        .map(|o| (rng.below(1 << 30) as u32 & !1) | o as u32)
        .collect()
}

/// `count` words of which exactly a quarter, in seeded positions, are
/// zero and the rest uniform in 1..=2^30: `spec_storm` mispredicts
/// equally often for every seed.
fn quarter_zero(count: usize, rng: &mut Rng) -> Vec<u32> {
    let zero = shuffled_flags(count, count / 4, rng);
    zero.into_iter()
        .map(|z| if z { 0 } else { rng.below(1 << 30) as u32 + 1 })
        .collect()
}

/// `count` flags of which exactly `set` are true, in seeded order.
fn shuffled_flags(count: usize, set: usize, rng: &mut Rng) -> Vec<bool> {
    let mut flags: Vec<bool> = (0..count).map(|i| i < set).collect();
    for i in (1..count).rev() {
        flags.swap(i, rng.below(i as u64 + 1) as usize);
    }
    flags
}

/// The twelve kernels of the `suite_*` workloads and of the hot set of
/// `serve_open`. Each reads its input size from word 0.
pub const SUITE: [Kernel; 12] = [
    kernel!("dot_product", 8, [24, 6], |n, r| sized(
        n,
        random(2 * n, 1000, r)
    )),
    kernel!("memcpy", 8, [32, 8], |n, r| sized(n, random(n, 100_000, r))),
    kernel!("fibonacci", 8, [40, 12], |n, r| sized(
        n,
        random(2, 1000, r)
    )),
    kernel!("pointer_chase", 8, [48, 12], |n, r| sized(n, cycle(n, r))),
    kernel!("matvec", 16, [6, 3], |n, r| sized(
        n,
        random(n * n + n, 100, r)
    )),
    kernel!("bubble_sort", 8, [12, 5], |n, r| sized(
        n,
        random(n, 1000, r)
    )),
    kernel!("insertion_sort", 16, [14, 6], |n, r| sized(
        n,
        random(n, 10_000, r)
    )),
    kernel!("sieve", 8, [64, 24], |n, _| sized(n, Vec::new())),
    kernel!("histogram", 8, [32, 8], |n, r| sized(n, random(n, 16, r))),
    kernel!("checksum", 8, [24, 6], |n, r| sized(
        n,
        random(n, 1 << 30, r)
    )),
    kernel!("sum_reduction", 8, [32, 10], |n, r| sized(
        n,
        random(n, 100_000, r)
    )),
    kernel!("vec_scale", 8, [32, 8], |n, r| sized(
        n,
        random(n + 1, 1000, r)
    )),
];

/// The five kernels of `lane_pop`. Lanes share the program and its
/// memory image and differ in their initial registers.
pub const LANE: [Kernel; 5] = [
    kernel!("div_chain", 8, [0, 0], |_, _| Vec::new()),
    kernel!("wide_div_chain", 128, [0, 0], |_, _| Vec::new()),
    kernel!("forward_fan", 16, [0, 0], |_, _| Vec::new()),
    kernel!("branch_gauntlet", 16, [0, 0], |_, r| half_odd(16, r)),
    kernel!("spec_storm", 16, [0, 0], |_, r| quarter_zero(16, r)),
];

/// The tiny program of `serve_open`, whose operands come as `.reg`
/// directives.
pub const TINY: &str = include_str!("../programs/tiny.asm");

impl Kernel {
    /// The full program text for `seed` at input size `n`: the source
    /// followed by the seeded memory image as data directives.
    pub fn text(&self, seed: u64, n: usize) -> String {
        let mut rng = Rng::new(seed, self.name);
        let image = (self.image)(n, &mut rng);
        let mut text = String::from(self.source);
        if !image.is_empty() {
            text.push_str(".org 0\n");
            for chunk in image.chunks(16) {
                let words: Vec<String> = chunk.iter().map(u32::to_string).collect();
                text.push_str(&format!(".word {}\n", words.join(", ")));
            }
        }
        text
    }
}

/// Initial registers for lane `lane` of a population: r0 stays zero
/// (the kernels use it as the zero register), every other register is
/// random within the quarter of the range that `lane % 4` selects. So
/// the leader (lane 0) and every fourth lane after it agree on which
/// quarter a value lies in, and a kernel that branches on it (as
/// `spec_storm`'s wrong-path probe does) diverges on the same quarter
/// of the lanes for every seed.
pub fn lane_regs(num_regs: usize, lane: usize, rng: &mut Rng) -> Vec<u32> {
    let quarter = ((lane % 4) as u32) << 30;
    let mut regs = vec![0u32; num_regs];
    for r in regs.iter_mut().skip(1) {
        *r = quarter | (rng.next_u64() as u32 >> 2);
    }
    regs
}

/// The configurations a `serve_open` request can name: the `usim serve`
/// defaults at two small windows and three architectures.
pub const SERVE_CONFIGS: [(&str, usize); 6] = [
    ("usi", 8),
    ("hybrid", 8),
    ("usii", 8),
    ("usi", 16),
    ("hybrid", 16),
    ("usii", 16),
];

/// Lines per burst: written back to back so the server lane-batches
/// them.
pub const BURST: usize = 16;

/// What kind of arrival an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One of the 12 hot programs under one of the 6 configurations.
    Hot,
    /// A tiny program: request decoding and encoding dominate.
    Tiny,
    /// A never-seen program text, which misses the program cache.
    Unique,
    /// [`BURST`] identical hot lines written back to back.
    Burst,
}

/// One scheduled arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Ladder step it belongs to.
    pub step: usize,
    /// Due time, nanoseconds after the step starts.
    pub due_ns: u64,
    pub kind: Kind,
    /// Index into [`Mix::lines`].
    pub line: usize,
    /// Connection (0 or 1) it is sent on.
    pub conn: usize,
}

impl Event {
    /// Request lines this arrival sends.
    pub fn requests(&self) -> usize {
        lines_per_arrival(self.kind)
    }
}

/// The request mix and open-loop schedule of `serve_open`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix {
    /// Distinct request lines (no trailing newline).
    pub lines: Vec<String>,
    /// Per line: its program text, architecture and window.
    pub specs: Vec<(String, &'static str, usize)>,
    /// The hot lines (12 programs × 6 configurations) and one line per
    /// tiny program: the fixed composition of the in-process replay.
    pub hot: Vec<usize>,
    pub tiny: Vec<usize>,
    pub events: Vec<Event>,
}

/// Share of request lines of each kind.
pub const KIND_SHARES: [(Kind, f64); 4] = [
    (Kind::Hot, 0.70),
    (Kind::Tiny, 0.20),
    (Kind::Unique, 0.05),
    (Kind::Burst, 0.05),
];

/// Lines per arrival of each kind.
fn lines_per_arrival(kind: Kind) -> usize {
    if kind == Kind::Burst {
        BURST
    } else {
        1
    }
}

/// A `usim serve` run request for `program` under the given options.
pub fn request_line(program: &str, arch: &str, window: usize) -> String {
    let mut escaped = String::with_capacity(program.len() + 16);
    for c in program.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\t' => escaped.push_str("\\t"),
            c => escaped.push(c),
        }
    }
    format!("{{\"program\":\"{escaped}\",\"options\":{{\"arch\":\"{arch}\",\"window\":{window}}}}}")
}

/// Number of distinct tiny programs (operand pairs).
const TINY_PROGRAMS: u64 = 16;

/// Build the mix for `seed`: in ladder step `i`, with `steps[i]` =
/// (rate, seconds), Poisson arrivals at `rate` request lines per second
/// for `seconds` seconds.
pub fn mix(seed: u64, steps: &[(f64, f64)]) -> Mix {
    let mut rng = Rng::new(seed, "serve.mix");
    let mut lines = Vec::new();
    let mut specs = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut intern = |text: String, (arch, window): (&'static str, usize)| -> usize {
        let line = request_line(&text, arch, window);
        *index.entry(line).or_insert_with_key(|l| {
            lines.push(l.clone());
            specs.push((text, arch, window));
            lines.len() - 1
        })
    };
    let mut hot = Vec::new();
    for k in &SUITE {
        let text = k.text(seed, k.serve_n);
        for &cfg in &SERVE_CONFIGS {
            hot.push(intern(text.clone(), cfg));
        }
    }
    let mut tiny_rng = Rng::new(seed, "serve.tiny");
    let mut tiny = Vec::new();
    for _ in 0..TINY_PROGRAMS {
        let (a, b) = (tiny_rng.below(1 << 20), tiny_rng.below(1 << 20));
        let text = format!("{TINY}.reg r1, {a}\n.reg r2, {b}\n");
        for &cfg in &SERVE_CONFIGS {
            tiny.push(intern(text.clone(), cfg));
        }
    }

    // Arrival probabilities that give KIND_SHARES of the lines.
    let arrivals: Vec<(Kind, f64)> = KIND_SHARES
        .iter()
        .map(|&(k, share)| (k, share / lines_per_arrival(k) as f64))
        .collect();
    let per_line: f64 = arrivals.iter().map(|a| a.1).sum();
    let mut events = Vec::new();
    let mut unique = 0u64;
    for (step, &(rate, seconds)) in steps.iter().enumerate() {
        let arrivals_per_ns = rate * per_line / 1e9;
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.unit()).ln() / arrivals_per_ns;
            if t >= seconds * 1e9 {
                break;
            }
            let u = rng.unit() * per_line;
            let mut acc = 0.0;
            let kind = arrivals
                .iter()
                .find(|&&(_, p)| {
                    acc += p;
                    u < acc
                })
                .map_or(Kind::Hot, |&(k, _)| k);
            let line = match kind {
                Kind::Hot | Kind::Burst => hot[rng.below(hot.len() as u64) as usize],
                Kind::Tiny => tiny[rng.below(tiny.len() as u64) as usize],
                Kind::Unique => {
                    unique += 1;
                    let k = &SUITE[rng.below(SUITE.len() as u64) as usize];
                    let fresh = seed ^ unique.wrapping_mul(0xA076_1D64_78BD_642F);
                    let mut text = k.text(fresh, k.serve_n);
                    text.push_str(&format!("; unique {unique}\n"));
                    intern(text, SERVE_CONFIGS[rng.below(6) as usize])
                }
            };
            events.push(Event {
                step,
                due_ns: t as u64,
                kind,
                line,
                conn: rng.below(2) as usize,
            });
        }
    }
    let replay_tiny = (0..TINY_PROGRAMS as usize)
        .map(|i| tiny[i * SERVE_CONFIGS.len() + i % SERVE_CONFIGS.len()])
        .collect();
    Mix {
        lines,
        specs,
        hot,
        tiny: replay_tiny,
        events,
    }
}
