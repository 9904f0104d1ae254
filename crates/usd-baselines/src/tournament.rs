//! Elimination-tournament USD: an idealized answer to the paper's open
//! question.
//!
//! The conclusion (§4) asks: *"it would be interesting to explore
//! scenarios where (slightly) more memory is available at the nodes and
//! where synchronization is possible to some extent: at which point can
//! we break the lower bound barrier?"*
//!
//! This module implements the natural candidate with **perfect phase
//! synchronization** and O(log k) extra bits per node: a binary
//! elimination tournament. The surviving opinions are paired up; in each
//! phase, every pair (a, b) runs a *two-opinion* USD among the agents
//! currently assigned to that pair (supporters of a, supporters of b, and
//! an equal share of previously eliminated agents acting as undecided
//! helpers). Pairs are disjoint, so all matches of a phase run in
//! parallel; each two-opinion match stabilizes in O(log n) parallel time
//! (Clementi et al.), giving **O(log k · log n)** total parallel time —
//! asymptotically below the Ω(k·log(√n/(k log n))) barrier that holds
//! without synchronization. Empirically (experiment E13) the *growth law*
//! in k is indeed logarithmic, but the Θ(log n) dead-heat cost per phase
//! means plain USD's small constants win at simulable scales; the
//! asymptotic crossover requires k ≫ log² n inside the admissible regime.
//!
//! The synchronization is deliberately idealized (a global phase barrier;
//! in reality one would pay a phase-clock overhead as in Bankhamer et
//! al., SODA '22) — the point of experiment E13 is to quantify what
//! synchronization + memory buy, not to give a new protocol.

use sim_stats::rng::SimRng;
use usd_core::{ConsensusOutcome, RunSpec, UsdConfig};

/// Result of one tournament run.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentResult {
    /// The winning opinion (0-based index into the original k).
    pub winner: Option<usize>,
    /// Number of elimination phases run (⌈log₂ k⌉ for a full bracket).
    pub phases: u64,
    /// Parallel time consumed, defined as the sum over phases of the
    /// maximum match parallel-time in that phase (matches run in
    /// parallel on disjoint agents).
    pub parallel_time: f64,
    /// Total interactions across all matches (work, not span).
    pub total_interactions: u64,
}

/// Idealized synchronized elimination-tournament USD.
#[derive(Debug, Clone)]
pub struct TournamentUsd {
    config: UsdConfig,
    /// Per-match interaction budget factor (× sub-population · ln n).
    budget_factor: f64,
}

impl TournamentUsd {
    /// Set up a tournament from a fully decided configuration.
    pub fn new(config: UsdConfig) -> Self {
        assert_eq!(config.u(), 0, "tournament starts fully decided");
        assert!(config.n() >= 2);
        TournamentUsd {
            config,
            budget_factor: 200.0,
        }
    }

    /// Run the tournament to completion.
    pub fn run(&self, rng: &mut SimRng) -> TournamentResult {
        let n = self.config.n();
        // Survivors: (original opinion index, supporter count).
        let mut survivors: Vec<(usize, u64)> = self
            .config
            .opinions()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        // Pool of agents whose opinion has been eliminated; they join
        // matches as undecided helpers.
        let mut eliminated_pool: u64 = 0;
        let mut phases = 0u64;
        let mut parallel_time = 0.0f64;
        let mut total_interactions = 0u64;

        while survivors.len() > 1 {
            phases += 1;
            let matches = survivors.len() / 2;
            let byes = survivors.len() % 2;
            // Split the eliminated pool evenly across this phase's matches.
            let pool_share = if matches > 0 {
                eliminated_pool / matches as u64
            } else {
                0
            };
            let mut next_round: Vec<(usize, u64)> = Vec::with_capacity(matches + byes);
            let mut next_pool = eliminated_pool - pool_share * matches as u64;
            let mut phase_span = 0.0f64;

            for m in 0..matches {
                let (op_a, count_a) = survivors[2 * m];
                let (op_b, count_b) = survivors[2 * m + 1];
                let sub_n = count_a + count_b + pool_share;
                if sub_n < 2 {
                    // Degenerate micro-match: larger side advances.
                    let winner = if count_a >= count_b {
                        (op_a, count_a + count_b + pool_share)
                    } else {
                        (op_b, count_a + count_b + pool_share)
                    };
                    next_round.push(winner);
                    continue;
                }
                // Two-opinion USD on the sub-population.
                let sub_config = UsdConfig::new(vec![count_a, count_b], pool_share);
                let budget =
                    (self.budget_factor * sub_n as f64 * (n as f64).ln()).max(1_000.0) as u64;
                let (result, sim) = RunSpec::new(&sub_config).budget(budget).run_keeping(rng);
                let t = result.interactions;
                total_interactions += t;
                phase_span = phase_span.max(t as f64 / sub_n as f64);

                match result.outcome {
                    ConsensusOutcome::Winner(0) => next_round.push((op_a, sub_n)),
                    ConsensusOutcome::Winner(_) => next_round.push((op_b, sub_n)),
                    _ => {
                        // All-undecided absorption or timeout: advance the
                        // currently larger side; its supporters keep their
                        // opinion, the rest feed the pool.
                        let counts = sim
                            .expect("clique runs keep their engine")
                            .counts()
                            .to_vec();
                        let (op, keep) = if counts[0] >= counts[1] {
                            (op_a, counts[0])
                        } else {
                            (op_b, counts[1])
                        };
                        next_round.push((op, keep.max(1)));
                        next_pool += sub_n - keep.max(1);
                    }
                }
            }
            if byes == 1 {
                next_round.push(survivors[survivors.len() - 1]);
            }
            parallel_time += phase_span;
            eliminated_pool = next_pool;
            survivors = next_round;
        }

        TournamentResult {
            winner: survivors.first().map(|&(op, _)| op),
            phases,
            parallel_time,
            total_interactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usd_core::init::InitialConfigBuilder;

    #[test]
    fn tournament_elects_the_plurality_with_bias() {
        let mut wins = 0;
        for seed in 0..10 {
            let config = InitialConfigBuilder::new(4_000, 8).figure1();
            let t = TournamentUsd::new(config);
            let mut rng = SimRng::new(seed);
            let result = t.run(&mut rng);
            assert_eq!(result.phases, 3); // ⌈log2 8⌉
            if result.winner == Some(0) {
                wins += 1;
            }
        }
        assert!(wins >= 8, "plurality won only {wins}/10 tournaments");
    }

    #[test]
    fn parallel_time_scales_as_log_k_log_n_not_k() {
        // The headline: at fixed n, doubling k adds one phase (~log n
        // parallel time) instead of multiplying the time by 2.
        let n = 4_000u64;
        let run_mean = |k: usize| {
            let mut total = 0.0;
            for seed in 0..5 {
                let config = InitialConfigBuilder::new(n, k).figure1();
                let t = TournamentUsd::new(config);
                let mut rng = SimRng::new(seed + 100);
                total += t.run(&mut rng).parallel_time;
            }
            total / 5.0
        };
        let t4 = run_mean(4);
        let t16 = run_mean(16);
        // Unsynchronized USD would scale ~4x from k=4 to k=16; the
        // tournament should scale ~2x (phases 2 → 4).
        let ratio = t16 / t4;
        assert!(
            ratio < 3.0,
            "tournament scaled by {ratio:.2} from k=4 to k=16; expected ~2"
        );
    }

    #[test]
    fn single_opinion_is_immediate() {
        let config = UsdConfig::decided(vec![100]);
        let t = TournamentUsd::new(config);
        let mut rng = SimRng::new(1);
        let result = t.run(&mut rng);
        assert_eq!(result.winner, Some(0));
        assert_eq!(result.phases, 0);
        assert_eq!(result.total_interactions, 0);
    }

    #[test]
    fn zero_support_opinions_never_win() {
        let config = UsdConfig::decided(vec![0, 500, 0, 300]);
        let t = TournamentUsd::new(config);
        let mut rng = SimRng::new(2);
        let result = t.run(&mut rng);
        assert!(matches!(result.winner, Some(1) | Some(3)));
    }

    #[test]
    fn odd_bracket_handles_byes() {
        let config = UsdConfig::decided(vec![400, 300, 300]);
        let t = TournamentUsd::new(config);
        let mut rng = SimRng::new(3);
        let result = t.run(&mut rng);
        assert!(result.winner.is_some());
        assert_eq!(result.phases, 2); // 3 → 2 → 1
    }

    #[test]
    #[should_panic(expected = "fully decided")]
    fn undecided_start_rejected() {
        TournamentUsd::new(UsdConfig::new(vec![5, 5], 2));
    }
}
