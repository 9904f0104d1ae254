//! E1: regenerate Figure 1 (left) — trajectory of majority, minorities (×k) and undecided count.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::fig1::fig1_left_report(&args);
    report.finish(args.csv.as_deref());
}
