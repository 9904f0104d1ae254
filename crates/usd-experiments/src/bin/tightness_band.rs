//! E7: tightness band — measured time between the lower bound and the Amir et al. upper bound.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env(&["k", "seeds", "backend"]);
    let report = usd_experiments::scaling::tightness_report(&args);
    report.finish(args.csv.as_deref());
}
