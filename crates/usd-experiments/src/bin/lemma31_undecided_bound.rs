//! E3: verify the Lemma 3.1 ceiling on the undecided count.
//!
//! README.md's "Experiments × backends" table lists the engines it runs on.

fn main() {
    let args = usd_experiments::ExpArgs::from_env();
    let report = usd_experiments::lemmas::lemma31_report(&args);
    report.finish(args.csv.as_deref());
}
