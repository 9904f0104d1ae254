//! E5: verify Lemma 3.4 — max-gap doubling needs ≥ kn/24 interactions.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::lemmas::lemma34_report(&args);
    report.finish(args.csv.as_deref());
}
