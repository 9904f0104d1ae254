//! E4: verify Lemma 3.3 — opinion growth 3n/2k → 2n/k needs ≥ kn/25 interactions.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env(&["k", "seeds", "backend"]);
    let report = usd_experiments::lemmas::lemma33_report(&args);
    report.finish(args.csv.as_deref());
}
