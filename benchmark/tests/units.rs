//! Unit checks of the benchmark's own helpers.

use usbench::gen::{self, Kind};
use usbench::stats::percentile;

#[test]
fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond_it() {
    let samples: Vec<f64> = (0..1000).map(f64::from).collect();
    assert_eq!(
        percentile(&samples, 99.0),
        Ok(989.0),
        "ten samples above p99"
    );
    assert!(percentile(&samples[..999], 99.0).is_err(), "nine above");
    assert_eq!(
        percentile(&samples[..100], 10.0),
        Ok(10.0),
        "ten samples below p10"
    );
    assert!(percentile(&samples[..99], 10.0).is_err(), "nine below");
    assert_eq!(
        percentile(&samples[..3], 50.0),
        Ok(1.0),
        "a median needs no tail"
    );
    assert!(percentile(&[], 50.0).is_err());
}

#[test]
fn request_mix_and_schedule_are_pure_functions_of_the_seed() {
    let steps = [(2000.0, 0.5), (4000.0, 0.5)];
    let a = gen::mix(7, &steps);
    assert_eq!(a, gen::mix(7, &steps), "same seed, same mix and arrivals");
    let b = gen::mix(8, &steps);
    assert_ne!(a.events, b.events, "another seed draws other arrivals");
    assert_ne!(a.lines, b.lines, "and other inputs");

    assert!(a
        .events
        .windows(2)
        .all(|w| w[0].step < w[1].step || w[0].due_ns <= w[1].due_ns));
    let requests = |step| -> usize {
        a.events
            .iter()
            .filter(|e| e.step == step)
            .map(|e| e.requests())
            .sum()
    };
    let (lo, hi) = (requests(0) as f64, requests(1) as f64);
    assert!(
        (700.0..1300.0).contains(&lo),
        "about 1000 requests at 2000/s for 0.5 s: {lo}"
    );
    assert!((1500.0..2500.0).contains(&hi), "about 2000 at 4000/s: {hi}");
    for kind in [Kind::Hot, Kind::Tiny, Kind::Unique, Kind::Burst] {
        assert!(
            a.events.iter().any(|e| e.kind == kind),
            "{kind:?} arrivals occur"
        );
    }
}

#[test]
fn kernel_inputs_are_pure_functions_of_the_seed_and_assemble() {
    for k in gen::SUITE.iter().chain(&gen::LANE) {
        let text = k.text(3, k.suite_n);
        assert_eq!(text, k.text(3, k.suite_n), "{}", k.name);
        ultrascalar_isa::assemble(&text, k.regs).expect("kernel assembles");
    }
    let k = &gen::SUITE[0];
    assert_ne!(
        k.text(3, k.suite_n),
        k.text(4, k.suite_n),
        "seeded data differs"
    );
}
