//! E12: distributional equivalence and throughput of the three exact engines.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::comparisons::ablation_report(&args);
    report.finish(args.csv.as_deref());
}
