//! Small numeric helpers: percentiles that refuse unsupported tails,
//! the result digest, and the process's peak resident memory.

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`th percentile of `samples` (0 < p < 100).
///
/// The median is always defined. Any other percentile is refused
/// unless at least [`MIN_BEYOND`] samples lie beyond it — below it for
/// p < 50, above it for p > 50 — so a p99 needs 1000 samples and a p10
/// needs 100.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{p} of no samples"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if p == 50.0 {
        return Ok(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        });
    }
    let (idx, beyond) = if p < 50.0 {
        let idx = ((p / 100.0) * n as f64).floor() as usize;
        (idx.min(n - 1), idx)
    } else {
        let idx = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
        (idx, n - 1 - idx)
    };
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; {MIN_BEYOND} are needed"
        ));
    }
    Ok(sorted[idx])
}

/// The `p`th percentile, or — when too few samples support it — the
/// most extreme sample on that side (the `--quick` smoke run's
/// fallback; a full run never needs it).
pub fn percentile_or_extreme(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or_else(|_| {
        let it = samples.iter().copied();
        if p < 50.0 {
            it.fold(f64::INFINITY, f64::min)
        } else {
            it.fold(f64::NEG_INFINITY, f64::max)
        }
    })
}

/// Median of a non-empty sample set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(f64::NAN)
}

/// Geometric mean of positive values (NaN for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a folded over 64-bit words: the digest of simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a byte string in (one word per byte, as FNV-1a).
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.word(x as u64);
        }
    }

    /// Fold a run's cycles, committed count, registers and memory in.
    pub fn run(&mut self, r: &ultrascalar::RunResult) {
        self.word(r.cycles);
        self.word(r.stats.committed);
        for &v in &r.regs {
            self.word(v as u64);
        }
        for &v in &r.mem {
            self.word(v as u64);
        }
    }
}

/// The digest of one run on its own.
pub fn run_digest(r: &ultrascalar::RunResult) -> u64 {
    let mut d = Digest::default();
    d.run(r);
    d.0
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB, read from
/// `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }
}
