//! E14: USD stabilization time across interaction-graph families × n.
//!
//! ```text
//! cargo run --release -p usd-experiments --bin topology_sweep -- \
//!     [--n <max>] [--k <opinions>] [--seeds <reps>] [--seed <u64>]
//!     [--topology <family>] [--backend <graph|batchgraph|agent|replica>]
//!     [--threads <t>] [--quick] [--csv out.csv] [--timeline-dir <dir>]
//!     [--resume-dir <dir>]
//! ```
//!
//! Runs a topology-capable backend over the sparse family grid
//! (cycle, torus, hypercube, random regular, Erdős–Rényi) — see the
//! `usd_experiments::topology` module docs for the measured columns.
//! `--timeline-dir` additionally writes one flight-recorder JSONL per
//! sweep cell (from the cell's representative run) into the directory.
//! `--topology regular:d` and `er:avg` carry the degree (default 8).
//! Invalid flag combinations (an unwritable `--timeline-dir`, and any cell
//! `Backend::check` refuses: a clique-only `--backend`, a `--k` past the
//! transition-table budget or past a cell's population) exit with status
//! 2 before any work runs.

/// The optional flags E14 reads, beyond the ones every experiment takes.
const TAKES: &[&str] = &[
    "k",
    "seeds",
    "backend",
    "topology",
    "timeline-dir",
    "resume-dir",
];

fn main() {
    let args = usd_experiments::ExpArgs::from_env(TAKES);
    if let Err(msg) = usd_experiments::topology::validate_args(&args) {
        eprintln!("{msg}");
        std::process::exit(2);
    }
    let report = usd_experiments::topology::topology_report(&args);
    report.finish(args.csv.as_deref());
}

#[cfg(test)]
mod tests {
    use super::TAKES;
    use usd_experiments::topology::validate_args;
    use usd_experiments::ExpArgs;

    /// The binary's pre-flight check: the combinations the sweep used to
    /// accept by panicking (or by silently ignoring a flag) are errors.
    #[test]
    fn preflight_rejects_invalid_backend_and_degree_combinations() {
        let parse_args = |flags: &[&str]| {
            let flags: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
            ExpArgs::parse(&flags, TAKES)
        };
        let parse = |flags: &[&str]| parse_args(flags).unwrap();
        assert!(validate_args(&parse(&[])).is_ok());
        assert!(validate_args(&parse(&["--backend", "graph"])).is_ok());
        assert!(validate_args(&parse(&["--backend", "batch"])).is_err());
        let err = validate_args(&parse(&["--backend", "count"])).unwrap_err();
        assert!(
            err.contains("(topology-capable: agent, graph, batchgraph, replica)"),
            "{err}"
        );
        for name in ["skip", "pargraph"] {
            let removed = parse_args(&["--backend", name]);
            assert!(removed.is_err(), "removed backend {name} must not parse");
        }
        // The degree is part of the family's name; there is no --degree.
        assert!(parse_args(&["--degree", "4"]).is_err());
        assert!(validate_args(&parse(&["--topology", "regular:4"])).is_ok());
        assert!("cycle:4".parse::<pop_proto::TopologyFamily>().is_err());
        // Every cell is checked before the first runs: k = 300 fits the
        // quick grid's n = 1,024 cells but not its n = 256 ones, and
        // k = 70,000 (past the transition-table budget too) fits no cell.
        for flags in [
            "--quick --k 300 --seeds 1",
            "--k 70000 --backend graph",
            "--k 70000 --backend agent",
        ] {
            let flags: Vec<&str> = flags.split_whitespace().collect();
            let err = validate_args(&parse(&flags)).unwrap_err();
            assert!(err.contains("invalid instance n = "), "{err}");
        }
        assert!(validate_args(&parse(&["--quick", "--k", "200"])).is_ok());
    }
}
