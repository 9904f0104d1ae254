//! E8: majority win rate and stabilization time across the initial-bias grid.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::comparisons::bias_report(&args);
    report.finish(args.csv.as_deref());
}
