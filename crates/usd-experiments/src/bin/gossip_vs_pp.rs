//! E9: population-protocol vs Gossip-model USD, with per-node flip statistics.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env(&["k", "seeds"]);
    let report = usd_experiments::comparisons::gossip_report(&args);
    report.finish(args.csv.as_deref());
}
