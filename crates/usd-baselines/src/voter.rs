//! Voter dynamics: the no-undecided-state control.
//!
//! When two agents meet, the responder adopts the initiator's opinion.
//! Always reaches consensus, but the consensus opinion is a martingale
//! draw proportional to initial support (each opinion wins with
//! probability xᵢ(0)/n), and the expected stabilization time is Θ(n²)
//! interactions — both in sharp contrast with USD. The experiment suite
//! uses it to show what the undecided state buys.

use pop_proto::Protocol;

/// Voter dynamics over `k` opinions (no undecided state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoterDynamics {
    k: usize,
}

impl VoterDynamics {
    /// Voter dynamics with `k ≥ 1` opinions.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one opinion");
        VoterDynamics { k }
    }

    /// Number of opinions.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Protocol for VoterDynamics {
    type State = usize;
    type Output = usize;

    fn num_states(&self) -> usize {
        self.k
    }

    fn index_of(&self, s: usize) -> usize {
        assert!(s < self.k, "opinion {s} out of range");
        s
    }

    fn state_of(&self, index: usize) -> usize {
        assert!(index < self.k, "opinion {index} out of range");
        index
    }

    fn transition(&self, initiator: usize, _responder: usize) -> (usize, usize) {
        // Responder adopts the initiator's opinion.
        (initiator, initiator)
    }

    fn output(&self, s: usize) -> usize {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_proto::{CountConfig, CountSimulator, Simulator};
    use sim_stats::rng::SimRng;

    #[test]
    fn always_reaches_consensus() {
        for seed in 0..5 {
            let mut sim = CountSimulator::new(
                VoterDynamics::new(3),
                &CountConfig::from_counts(vec![20, 15, 15]),
            );
            let mut rng = SimRng::new(seed);
            sim.run_to_silence(&mut rng, 10_000_000);
            assert!(sim.is_silent());
            assert!(sim.config().consensus_state().is_some());
        }
    }

    #[test]
    fn win_probability_proportional_to_initial_support() {
        // Opinion 0 holds 3/4 of the population: it should win ≈ 75% of
        // runs (martingale property of voter dynamics).
        let reps = 400u64;
        let mut wins = 0u64;
        for seed in 0..reps {
            let mut sim = CountSimulator::new(
                VoterDynamics::new(2),
                &CountConfig::from_counts(vec![30, 10]),
            );
            let mut rng = SimRng::new(seed);
            sim.run_to_silence(&mut rng, 10_000_000);
            if sim.config().consensus_state() == Some(0) {
                wins += 1;
            }
        }
        let frac = wins as f64 / reps as f64;
        assert!((frac - 0.75).abs() < 0.07, "win fraction {frac}");
    }

    #[test]
    fn transition_is_initiator_wins() {
        let p = VoterDynamics::new(4);
        assert_eq!(p.transition(2, 3), (2, 2));
        assert_eq!(p.transition(3, 3), (3, 3));
    }

    #[test]
    fn minority_can_win() {
        // Unlike exact majority: with 25% support, opinion 1 must win a
        // noticeable fraction of runs.
        let reps = 300u64;
        let mut minority_wins = 0u64;
        for seed in 0..reps {
            let mut sim = CountSimulator::new(
                VoterDynamics::new(2),
                &CountConfig::from_counts(vec![30, 10]),
            );
            let mut rng = SimRng::new(seed + 1_000);
            sim.run_to_silence(&mut rng, 10_000_000);
            if sim.config().consensus_state() == Some(1) {
                minority_wins += 1;
            }
        }
        let frac = minority_wins as f64 / reps as f64;
        assert!(frac > 0.1, "minority win fraction {frac} suspiciously low");
    }

    #[test]
    fn single_opinion_is_silent_immediately() {
        let sim = CountSimulator::new(
            VoterDynamics::new(2),
            &CountConfig::from_counts(vec![10, 0]),
        );
        assert!(sim.is_silent());
    }
}
