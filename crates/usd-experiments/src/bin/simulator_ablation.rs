//! E12: equivalence in law (pairwise two-sample KS) and throughput of the exact clique engines.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env(&["k", "seeds"]);
    let report = usd_experiments::comparisons::ablation_report(&args);
    report.finish(args.csv.as_deref());
}
