//! Work spread across each workload's seed list.
//!
//! `eff_per_s` divides by the work each sample does, so the work itself
//! may vary from seed to seed; but a workload whose work spreads widely
//! makes a run's figures depend on which seeds it drew. The limits below
//! (largest over smallest effective-interaction count, minus one) record
//! why each workload is shaped as it is. Full torus stabilization spreads
//! 2.7x across three seeds at n = 65 536, so `torus-coarsen` runs a fixed
//! horizon instead, whose work varies by well under 1 %.
//!
//! Full-size samples take about 80 s of optimized CPU time, so the test
//! runs only in release builds: `cargo test --release`.

use usd_perfbench::sample::run_e2e;
use usd_perfbench::workload::{sample_seeds, Workload, RUN_SECONDS};

fn spread(w: Workload, seed: u64) -> f64 {
    let inst = w.instance();
    let effective: Vec<f64> = sample_seeds(seed, w.samples(RUN_SECONDS))
        .into_iter()
        .map(|s| run_e2e(&inst, s, 1).telemetry.effective as f64)
        .collect();
    let max = effective.iter().cloned().fold(f64::MIN, f64::max);
    let min = effective.iter().cloned().fold(f64::MAX, f64::min);
    max / min - 1.0
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-size samples; run with --release")]
fn work_spread_across_each_seed_list_stays_under_its_limit() {
    sim_stats::threads::set_thread_override(Some(1));
    for (w, limit) in [
        (Workload::CliqueE6, 0.40),
        (Workload::Reg8Dense, 0.30),
        (Workload::TorusCoarsen, 0.02),
        (Workload::TorusEndgame, 0.30),
    ] {
        let s = spread(w, 1);
        println!(
            "{}: effective-interaction spread {s:.4} (limit {limit})",
            w.name()
        );
        assert!(s < limit, "{}: spread {s} exceeds {limit}", w.name());
    }
}
