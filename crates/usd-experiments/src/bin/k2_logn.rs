//! E10: the k = 2 special case — O(log n) stabilization.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env(&["seeds", "backend"]);
    let report = usd_experiments::scaling::k2_report(&args);
    report.finish(args.csv.as_deref());
}
