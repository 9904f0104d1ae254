//! E2: regenerate Figure 1 (right) — zoom until the majority doubles, with the max difference.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::fig1::fig1_right_report(&args);
    report.finish(args.csv.as_deref());
}
