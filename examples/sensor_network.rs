//! Sensor-network plurality voting — the motivating scenario of Angluin
//! et al.'s original population-protocol work.
//!
//! ```text
//! cargo run --release --example sensor_network
//! ```
//!
//! A swarm of cheap sensors each classifies a phenomenon into one of k
//! classes; readings are noisy, so individual sensors disagree, but the
//! true class gets a plurality of the votes. The sensors are anonymous,
//! have k + 1 states of memory, and communicate only when two of them
//! happen to meet (the random clique scheduler). Running the Undecided
//! State Dynamics makes the whole swarm converge on the plurality reading.
//!
//! This example also demonstrates the *bias threshold*: we sweep the
//! sensor noise level and show that once the plurality's lead drops to
//! O(√n), the swarm may lock in a wrong answer — exactly the
//! approximate-consensus guarantee boundary discussed in the paper.

use plurality_consensus::prelude::*;

/// Simulate noisy sensing: each of `n` sensors observes the true class
/// correctly with probability `accuracy`, otherwise picks a uniformly
/// random wrong class.
fn sense(n: u64, k: usize, true_class: usize, accuracy: f64, rng: &mut SimRng) -> UsdConfig {
    let mut votes = vec![0u64; k];
    for _ in 0..n {
        if rng.bernoulli(accuracy) {
            votes[true_class] += 1;
        } else {
            let mut wrong = rng.index(k - 1);
            if wrong >= true_class {
                wrong += 1;
            }
            votes[wrong] += 1;
        }
    }
    UsdConfig::decided(votes)
}

fn main() {
    let n: u64 = 20_000;
    let k: usize = 5;
    let true_class = 2usize;
    let mut rng = SimRng::new(7);

    println!("sensor swarm: n={n} sensors, k={k} classes, true class = {true_class}");
    println!();
    println!(
        "{:>10} {:>12} {:>12} {:>16} {:>10}",
        "accuracy", "lead", "lead/sqrt(n)", "parallel time", "correct?"
    );

    // Accuracy 1/k is pure noise; accuracy 1.0 is perfect sensing.
    for accuracy in [0.22, 0.25, 0.30, 0.40, 0.60] {
        let config = sense(n, k, true_class, accuracy, &mut rng);
        let sorted = config.sorted_desc();
        let lead = sorted[0] - sorted[1];
        let plurality = config.plurality().unwrap();

        let result = RunSpec::new(&config).run(&mut rng);
        let correct = matches!(result.outcome, ConsensusOutcome::Winner(w) if w == true_class);
        println!(
            "{:>10.2} {:>12} {:>12.2} {:>16.1} {:>10}",
            accuracy,
            lead,
            lead as f64 / (n as f64).sqrt(),
            result.parallel_time(n),
            if correct {
                "yes"
            } else if plurality != true_class {
                "no (noisy plurality!)"
            } else {
                "no"
            }
        );
    }

    println!();
    println!(
        "note: the swarm is reliable once the plurality's lead clears the \
         Theta(sqrt(n log n)) threshold (~{} here); near-tied readings are \
         a coin flip — the regime the paper's lower bound lives in.",
        ((n as f64) * (n as f64).ln()).sqrt().round()
    );
}
