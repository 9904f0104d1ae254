//! E11: USD vs four-state exact majority, voter, 3-majority, and synchronized USD.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::comparisons::baseline_report(&args);
    report.finish(args.csv.as_deref());
}
