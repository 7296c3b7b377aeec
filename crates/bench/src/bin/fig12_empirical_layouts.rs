//! E8 (Figure 12): the empirical layout comparison — a 64-wide
//! Ultrascalar I register datapath vs a 128-wide 4-cluster hybrid, in
//! the calibrated 0.35 µm technology, with the paper's measured numbers
//! beside the model's.
//!
//! ```text
//! cargo run -p ultrascalar-bench --bin fig12_empirical_layouts
//! ```

use ultrascalar_bench::Table;
use ultrascalar_vlsi::empirical::figure12;
use ultrascalar_vlsi::floorplan::{hybrid_floorplan, usi_floorplan};
use ultrascalar_vlsi::metrics::ArchParams;
use ultrascalar_vlsi::{hybrid, usi, Tech};

fn main() {
    println!("Figure 12 — empirical layouts, 0.35 µm CMOS, 3 metal layers,");
    println!("32 × 32-bit logical registers, M(n) = Θ(1) memory datapath\n");

    let f = figure12(&Tech::cmos_035());
    let mut t = Table::new(vec![
        "datapath",
        "stations",
        "model size",
        "paper size",
        "model dens (proc/m²)",
        "paper dens",
    ]);
    t.row(vec![
        "Ultrascalar I (64-wide)".to_string(),
        format!("{}", f.ultrascalar_i.stations),
        format!(
            "{:.1} cm × {:.1} cm",
            f.ultrascalar_i.width_cm, f.ultrascalar_i.height_cm
        ),
        "7 cm × 7 cm".to_string(),
        format!("{:.0}", f.ultrascalar_i.stations_per_m2),
        "≈13,000".to_string(),
    ]);
    t.row(vec![
        "Hybrid (128-wide, 4 clusters)".to_string(),
        format!("{}", f.hybrid.stations),
        format!("{:.1} cm × {:.1} cm", f.hybrid.width_cm, f.hybrid.height_cm),
        "3.2 cm × 2.7 cm".to_string(),
        format!("{:.0}", f.hybrid.stations_per_m2),
        "≈150,000".to_string(),
    ]);
    println!("{t}");
    println!(
        "density ratio hybrid/US-I: model {:.1}× — paper: \"about 11.5 times denser\"",
        f.density_ratio
    );
    println!(
        "\ncalibration note: the technology constants are fitted once to the\n\
         paper's 7 cm Ultrascalar I measurement; the hybrid's size and the\n\
         density ratio are then model outputs (see EXPERIMENTS.md)."
    );

    // Scaling the *placed* floorplans (every station, cluster and
    // channel strip an explicit rectangle) well past the paper's
    // measured points, to n = 4096.
    println!("\nplaced floorplans at scale (0.35 µm):");
    let tech = Tech::cmos_035();
    let mut t = Table::new(vec![
        "n",
        "US-I rects",
        "US-I side (cm)",
        "hybrid rects",
        "hybrid side (cm)",
        "util US-I",
        "util hybrid",
    ]);
    for n in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let p = ArchParams::paper_empirical(n);
        let f_usi = usi_floorplan(&p, &tech);
        let f_hy = hybrid_floorplan(&p, 32, &tech);
        // Placement and recurrence are one doubling loop; the placed
        // bounding boxes must land on the side it returns.
        let bb_usi = f_usi.bounding();
        let side_usi = usi::side_um(&p, &tech);
        assert!(
            (bb_usi.w.max(bb_usi.h) - side_usi).abs() / side_usi < 1e-9,
            "n={n}: US-I placement disagrees with recurrence"
        );
        let bb_hy = f_hy.bounding();
        let side_hy = hybrid::side_um(&p, 32, &tech);
        assert!(
            (bb_hy.w.max(bb_hy.h) - side_hy).abs() / side_hy < 1e-9,
            "n={n}: hybrid placement disagrees with recurrence"
        );
        assert_eq!(f_usi.leaves(), n);
        assert_eq!(f_hy.leaves(), n / 32);
        t.row(vec![
            format!("{n}"),
            format!("{}", f_usi.rects.len()),
            format!("{:.1}", side_usi / 1e4),
            format!("{}", f_hy.rects.len()),
            format!("{:.1}", side_hy / 1e4),
            format!("{:.3}", f_usi.leaf_utilisation()),
            format!("{:.3}", f_hy.leaf_utilisation()),
        ]);
    }
    println!("{t}");

    println!("\nprojection to 0.1 µm (the paper's closing claim):");
    let f10 = figure12(&Tech::cmos_010());
    println!(
        "128-window hybrid: {:.2} cm × {:.2} cm — the paper predicts a\n\
         window-128, 16-shared-ALU hybrid \"fits easily within a chip 1 cm\n\
         on a side\" (ours keeps all 128 per-station ALUs and still lands\n\
         close to 1 cm).",
        f10.hybrid.width_cm, f10.hybrid.height_cm
    );
}
