//! Metric lines and the closing JSON object.

/// The end-to-end metrics every workload reports, with their units
/// (mirrored in the repository's `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("lat_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ipc_geomean", "instr/cycle"),
];

/// The per-layer metrics every workload reports from its traced run,
/// with their units (mirrored in `BENCHMARK.json`). A layer a workload
/// bypasses reports 0; times appear here only when every workload
/// measures them, and layer-specific times are printed as extra lines.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("engine.run_ms_p50", "ms"),
    ("engine.run_ms_p90", "ms"),
    ("engine.ns_per_cycle", "ns"),
    ("engine.mcycles_per_s.w16", "Mcycles/s"),
    ("engine.mcycles_per_s.w64", "Mcycles/s"),
    ("engine.mcycles_per_s.w256", "Mcycles/s"),
    ("engine.idle_cycle_frac", "frac"),
    ("engine.useful_frac", "frac"),
    ("engine.packed_gated_frac", "frac"),
    ("engine.mean_occupancy", "stations"),
    ("memsys.reject_frac", "frac"),
    ("memsys.loads_per_kinstr", "1/kinstr"),
    ("memsys.cache_hit_frac", "frac"),
    ("memsys.store_fwd_frac", "frac"),
    ("lane.leader_share", "frac"),
    ("lane.lockstep_mips.b32", "Minstr/s"),
    ("lane.lockstep_mips.b64", "Minstr/s"),
    ("lane.useful_frac", "frac"),
    ("lane.replay_peels", "count"),
    ("lane.epochs_per_batch", "count"),
    ("lane.fallbacks", "count"),
    ("lane.speedup_vs_serial", "x"),
    ("sweep.busy_frac", "frac"),
    ("pool.hit_frac", "frac"),
    ("pool.evictions", "count"),
    ("isa.cache_hit_frac", "frac"),
    ("isa.assemble_ms_p50", "ms"),
    ("isa.golden_s", "s"),
    ("serve.busy_frac", "frac"),
    ("serve.queue_frac", "frac"),
    ("serve.codec_frac", "frac"),
    ("serve.affinity_frac", "frac"),
    ("serve.lane_batched_frac", "frac"),
    ("loadgen.late_frac", "frac"),
    ("loadgen.achieved_rps", "req/s"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.max_rps", "req/s"),
    ("trace_overhead_frac", "frac"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a ratio of totals).
    pub samples: usize,
}

/// A workload run's result: what was attempted, what failed, and every
/// metric measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every simulated result (for `serve_open`, of the hot and
    /// tiny reference responses).
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Name prefixes of the per-layer metrics of layers this workload
    /// never reaches; they report 0.
    pub bypassed: &'static [&'static str],
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Add a host-time metric at reference speed (see [`crate::calib`]):
    /// `raw` divided by `slowdown` for a time (`rate` false) or
    /// multiplied by it for a rate; the raw value is added as
    /// `<name>.raw`.
    pub fn put_host(
        &mut self,
        name: &str,
        raw: f64,
        rate: bool,
        slowdown: f64,
        unit: &'static str,
        samples: usize,
    ) {
        let at_reference = if rate { raw * slowdown } else { raw / slowdown };
        self.put(name, at_reference, unit, samples);
        self.put(&format!("{name}.raw"), raw, unit, samples);
    }

    /// Add the `p`th percentile of `samples`, or a note if too few
    /// samples support it.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        match crate::stats::percentile(samples, p) {
            Ok(v) => self.put(name, v, unit, samples.len()),
            Err(e) => self.notes.push(format!("{name} not reported: {e}")),
        }
    }

    /// Count one failure, keeping the first few reasons as notes.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("FAIL {why}"));
        }
    }

    /// Print one line per metric and the closing JSON object, whose
    /// metrics are the end-to-end set (`trace` false) or the per-layer
    /// set (`trace` true). Returns an error if a declared metric is
    /// missing, measured twice, in another unit or not a finite number.
    pub fn print(&mut self, workload: &str, correct: bool, trace: bool) -> Result<(), String> {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in declared {
            let bypassed = self.bypassed.iter().any(|p| name.starts_with(p));
            if bypassed && !self.metrics.iter().any(|m| m.name == name) {
                self.put(name, 0.0, unit, 0);
            }
        }
        for n in &self.notes {
            println!("# {workload} {n}");
        }
        for m in &self.metrics {
            println!(
                "{workload} {} {} {} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let mut json = Vec::new();
        for &(name, unit) in declared {
            let mut found = self.metrics.iter().filter(|m| m.name == name);
            let m = found
                .next()
                .ok_or_else(|| format!("{workload}: metric {name} was not measured"))?;
            if found.next().is_some() {
                return Err(format!("{workload}: metric {name} was measured twice"));
            }
            if m.unit != unit || !m.value.is_finite() {
                return Err(format!(
                    "{workload}: metric {name} is {} {}",
                    m.value, m.unit
                ));
            }
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn frac(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
