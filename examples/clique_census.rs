//! Clique engine census: nanoseconds per interaction of each clique
//! engine, run to silence on the paper's instance family.
//!
//! ```text
//! cargo run --release --example clique_census [backend ...]
//! ```
//!
//! Every cell starts from the maximum-admissible-bias family at (n, k),
//! runs `RunSpec::run` to silence, and reports wall time per scheduled
//! interaction as the median of 5 seeds. The backends default to `agent`,
//! `count` and `batch`; the engine `Backend::clique_default` resolves for
//! a run without an observer is marked `*`. The README's "Clique engine
//! census" table is this program's output, and the crossover constant of
//! `Backend::clique_default` is read off it.

use plurality_consensus::prelude::*;
use std::time::Instant;

const GRID: [(u64, usize); 9] = [
    (1_000, 2),
    (1_000, 4),
    (10_000, 2),
    (10_000, 10),
    (100_000, 2),
    (100_000, 27),
    (1_000_000, 2),
    (1_000_000, 27),
    (10_000_000, 12),
];
const SEEDS: u64 = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let backends: Vec<Backend> = if args.is_empty() {
        vec![Backend::Agent, Backend::Count, Backend::Batch]
    } else {
        args.iter()
            .map(|a| {
                a.parse().unwrap_or_else(|e| {
                    eprintln!("clique_census: {e}");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    println!("| n | k | {} |", names.join(" | "));
    println!("|---|---|{}", "---|".repeat(backends.len()));
    for (n, k) in GRID {
        let config = InitialConfigBuilder::new(n, k).max_admissible_bias();
        let resolved = Backend::clique_default(n, ObservationGranularity::Block);
        let cells: Vec<String> = backends
            .iter()
            .map(|&backend| {
                let mut ns: Vec<f64> = (0..SEEDS)
                    .map(|seed| {
                        let start = Instant::now();
                        let result = RunSpec::new(&config)
                            .backend(backend)
                            .run(&mut SimRng::new(seed));
                        start.elapsed().as_nanos() as f64 / result.interactions as f64
                    })
                    .collect();
                ns.sort_by(f64::total_cmp);
                let mark = if backend == resolved { "*" } else { "" };
                format!("{:.1}{mark}", ns[ns.len() / 2])
            })
            .collect();
        println!("| {n} | {k} | {} |", cells.join(" | "));
    }
}
