//! Stabilization outcomes: [`StabilizationResult`] reports how a run to
//! silence ended — winner, interaction count, and whether the plurality
//! won (the correctness criterion of approximate plurality consensus).
//! [`RunSpec::run`](crate::RunSpec::run) produces it on every backend.

/// How a stabilization run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusOutcome {
    /// Consensus on the given opinion (0-based).
    Winner(usize),
    /// The degenerate all-undecided absorbing state.
    AllUndecided,
    /// Silent without consensus: the dynamics froze in a mixed
    /// configuration. Impossible under the clique scheduler (and on any
    /// connected interaction graph), but disconnected topologies can
    /// strand opinions in separate components.
    Frozen,
    /// The interaction budget ran out first.
    Timeout,
}

/// Result of running an initial configuration to stabilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizationResult {
    /// Outcome of the run.
    pub outcome: ConsensusOutcome,
    /// Interactions at the stopping point.
    pub interactions: u64,
    /// The initial plurality opinion (for correctness accounting).
    pub initial_plurality: Option<usize>,
}

impl StabilizationResult {
    /// Whether the run reached a silent configuration (consensus,
    /// all-undecided, or a disconnected-topology freeze).
    pub fn stabilized(&self) -> bool {
        !matches!(self.outcome, ConsensusOutcome::Timeout)
    }

    /// Whether the initial plurality opinion won.
    pub fn plurality_won(&self) -> bool {
        match (self.outcome, self.initial_plurality) {
            (ConsensusOutcome::Winner(w), Some(p)) => w == p,
            _ => false,
        }
    }

    /// Parallel time at the stopping point.
    pub fn parallel_time(&self, n: u64) -> f64 {
        self.interactions as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_time_conversion() {
        let r = StabilizationResult {
            outcome: ConsensusOutcome::Winner(0),
            interactions: 5_000,
            initial_plurality: Some(0),
        };
        assert!((r.parallel_time(1_000) - 5.0).abs() < 1e-12);
    }
}
