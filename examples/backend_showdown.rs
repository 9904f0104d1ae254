//! Backend showdown: one USD instance, every simulation backend.
//!
//! ```text
//! cargo run --release --example backend_showdown [n]
//! ```
//!
//! Runs the same Figure-1 instance to stabilization on each backend the
//! workspace provides — per-agent, countwise, batch-leaping, the graph
//! engines (which run the clique as `--topology complete`), and the
//! replica ensemble engine — and prints interactions, winner, and wall
//! clock per backend. With the default n = 2 000 000 the batch
//! backend's sub-constant-per-interaction leaping is already visible; pass
//! a larger n (it alone handles 10⁸+ comfortably) to watch the gap widen.
//! A backend `Backend::check` refuses prints a "skipped" row with its
//! reason: the graph-engine rows (`graph`, `batchgraph`) materialize all
//! C(n, 2) clique edges, so they sit out past the complete graph's
//! n = 10 000 cap (run with n ≤ 10 000 to see them; their real habitat is
//! sparse topologies via `usd-sim run --topology`). The replica row packs
//! 64 lanes into one pass: its interaction count sums the lanes, and its
//! parallel time is the lane mean. An n too small for the instance (the
//! Figure-1 bias plus 4 opinions must fit) exits 2 with one line.

use plurality_consensus::prelude::*;
use usd_core::backend::Backend;
use usd_core::theory;
use usd_core::{EnsembleOutcome, RunSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: u64 = match args.as_slice() {
        [] => Some(2_000_000),
        [v] => v.parse().ok(),
        _ => None,
    }
    .unwrap_or_else(|| {
        eprintln!("usage: backend_showdown [n]");
        std::process::exit(2);
    });
    let k = 4usize;
    if let Err(e) = InitialConfigBuilder::check_bias(n, k, theory::sqrt_n_log_n(n)) {
        eprintln!("backend_showdown: {e}");
        std::process::exit(2);
    }
    let config = InitialConfigBuilder::new(n, k).figure1();
    println!("instance: {config}");
    println!(
        "{:<8} {:>16} {:>12} {:>12} winner",
        "backend", "interactions", "par. time", "wall"
    );

    for backend in Backend::ALL {
        let spec = RunSpec::new(&config).backend(backend);
        let lanes = spec.lanes();
        if let Err(e) = backend.check(n, k, lanes, None) {
            println!("{:<8} (skipped: {e})", backend.name());
            continue;
        }
        // The per-agent engines allocate O(n) state; skip them once n
        // makes that silly in a demo.
        if backend.per_agent_memory() && n > 20_000_000 {
            println!("{:<8} {:>16}", backend.name(), "(skipped: O(n) memory)");
            continue;
        }
        let mut rng = SimRng::new(7);
        let start = std::time::Instant::now();
        let (result, sim) = spec.run_keeping(&mut rng);
        let wall = start.elapsed();
        let winner = match (result.outcome, sim.filter(|_| lanes > 1)) {
            // Lane-summed counts read as frozen whenever the lanes disagree.
            (ConsensusOutcome::Frozen, Some(sim)) => {
                EnsembleOutcome::from_simulator(sim.as_ref(), k, config.plurality()).describe()
            }
            (ConsensusOutcome::Winner(w), _) => format!("opinion {}", w + 1),
            (ConsensusOutcome::AllUndecided, _) => "all-undecided".to_string(),
            (ConsensusOutcome::Frozen, None) => "frozen".to_string(),
            (ConsensusOutcome::Timeout, _) => "timeout".to_string(),
        };
        let summed = if lanes > 1 {
            format!(" (interactions summed over {lanes} lanes, time per lane)")
        } else {
            String::new()
        };
        println!(
            "{:<8} {:>16} {:>12.2} {:>12.2?} {winner}{summed}",
            backend.name(),
            result.interactions,
            result.interactions as f64 / (f64::from(lanes) * n as f64),
            wall,
        );
    }
}
