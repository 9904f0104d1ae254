//! The USD as a chemical reaction network (CRN).
//!
//! ```text
//! cargo run --release --example chemical_reactions
//! ```
//!
//! Population protocols are equivalent to stochastically simulated CRNs
//! with unit rates (Soloveichik et al.; Chen et al. built them from DNA
//! strand displacement). The Undecided State Dynamics is the network
//!
//! ```text
//!     Xi + Xj  ->  U + U      (i ≠ j: annihilation to the undecided species)
//!     Xi + U   ->  Xi + Xi    (catalytic conversion)
//! ```
//!
//! over species X1…Xk and U in a well-mixed solution of n molecules.
//! This example runs the Gillespie-equivalent exact simulation (each
//! "interaction" = one reaction event over a uniformly random molecule
//! pair) and prints the species time course — including the undecided
//! species' plateau at n/2 − n/4k that the paper characterizes.

use plurality_consensus::prelude::*;
use sim_stats::timeseries::sparkline;

fn main() {
    let n: u64 = 30_000;
    let k: usize = 4;
    let config = InitialConfigBuilder::new(n, k).figure1();

    println!("CRN: {k} opinion species + undecided, n = {n} molecules");
    println!("reactions: Xi+Xj -> 2U (i != j), Xi+U -> 2Xi");
    println!("initial counts: {:?}", config.opinions());
    println!();

    // Record each species once per parallel unit of time.
    let mut recorder = TraceRecorder::new(&config);
    let mut rng = SimRng::new(11);
    let (result, sim) = RunSpec::new(&config)
        .ticker(&mut recorder)
        .run_keeping(&mut rng);
    let trace = recorder.finish(sim.expect("clique runs keep their engine").as_ref());
    let trajectories: Vec<Vec<f64>> = (0..=k)
        .map(|i| {
            let count = |c: &UsdConfig| if i < k { c.x(i) } else { c.u() };
            trace
                .snapshots
                .iter()
                .map(|(_, c)| count(c) as f64)
                .collect()
        })
        .collect();

    for (i, traj) in trajectories.iter().enumerate() {
        let name = if i < k {
            format!("X{}", i + 1)
        } else {
            "U ".to_string()
        };
        let last = *traj.last().unwrap() as u64;
        println!("{name} {} final={last}", sparkline(traj));
    }

    let plateau = undecided_plateau(n, k);
    println!();
    println!(
        "undecided plateau predicted at n/2 - n/4k = {:.0}; \
         observed max U = {:.0}",
        plateau,
        trajectories[k].iter().cloned().fold(0.0, f64::max)
    );
    let winner = match result.outcome {
        ConsensusOutcome::Winner(w) => w + 1,
        _ => 0,
    };
    println!(
        "consensus species: X{winner} after {:.1} parallel time",
        result.parallel_time(n)
    );
}
