//! E6: Theorem 3.5 stabilization-time scaling vs the lower-bound curve.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env(&["k", "seeds", "backend"]);
    let report = usd_experiments::scaling::thm35_report(&args);
    report.finish(args.csv.as_deref());
}
