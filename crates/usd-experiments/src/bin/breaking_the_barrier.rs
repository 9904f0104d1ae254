//! E13: plain USD vs the idealized synchronized elimination tournament —
//! the paper's §4 "break the lower bound barrier" open question.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env(&["k", "seeds", "backend"]);
    let report = usd_experiments::barrier::barrier_report(&args);
    report.finish(args.csv.as_deref());
}
