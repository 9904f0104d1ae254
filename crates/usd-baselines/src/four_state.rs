//! The 4-state exact-majority population protocol.
//!
//! Studied (in nearly identical form) by Draief & Vojnović (INFOCOM '10)
//! and Mertzios et al. (ICALP '14). States: two *strong* opinions `A`, `B`
//! and two *weak* ones `a`, `b`. Writing the signed token value
//! v(A) = +1, v(B) = −1, v(a) = v(b) = 0, the transitions are
//!
//! * `A + B → a + b` — opposite strong tokens **cancel**;
//! * `A + b → A + a`, `B + a → B + b` — a strong token **converts** weak
//!   agents to its side;
//! * everything else is a no-op.
//!
//! Σv is conserved, so with #A > #B initially the B tokens are eventually
//! exhausted, after which the surviving A tokens convert every weak agent
//! to `a` and the population stabilizes with every agent outputting the A
//! side — *regardless of how small the initial margin was* (exact
//! majority). The price is speed: with margin δ the cancellation phase
//! takes Θ(n²/δ · log n)-ish interactions, which is the slow-without-bias
//! behaviour the experiment suite contrasts with USD.
//!
//! A tie (#A = #B) cancels every token; the all-weak configurations are
//! then stable but mixed — the protocol cannot decide ties (known
//! limitation of the 4-state protocol).

use pop_proto::Protocol;

/// States of the four-state exact-majority protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FourState {
    /// Strong A token (+1).
    StrongA,
    /// Strong B token (−1).
    StrongB,
    /// Weak agent currently on the A side.
    WeakA,
    /// Weak agent currently on the B side.
    WeakB,
}

/// The side an agent outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MajoritySide {
    /// The A side.
    A,
    /// The B side.
    B,
}

/// The protocol object (stateless; all information is in agent states).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FourStateMajority;

impl FourStateMajority {
    /// Dense index of [`FourState::StrongA`].
    pub const STRONG_A: usize = 0;
    /// Dense index of [`FourState::StrongB`].
    pub const STRONG_B: usize = 1;
    /// Dense index of [`FourState::WeakA`].
    pub const WEAK_A: usize = 2;
    /// Dense index of [`FourState::WeakB`].
    pub const WEAK_B: usize = 3;

    /// The conserved signed token sum of a count configuration.
    pub fn signed_sum(counts: &[u64]) -> i64 {
        counts[Self::STRONG_A] as i64 - counts[Self::STRONG_B] as i64
    }

    /// The output tally `(a_side, b_side)` of a count configuration.
    pub fn sides(counts: &[u64]) -> (u64, u64) {
        (
            counts[Self::STRONG_A] + counts[Self::WEAK_A],
            counts[Self::STRONG_B] + counts[Self::WEAK_B],
        )
    }
}

impl Protocol for FourStateMajority {
    type State = FourState;
    type Output = MajoritySide;

    fn num_states(&self) -> usize {
        4
    }

    fn index_of(&self, s: FourState) -> usize {
        match s {
            FourState::StrongA => Self::STRONG_A,
            FourState::StrongB => Self::STRONG_B,
            FourState::WeakA => Self::WEAK_A,
            FourState::WeakB => Self::WEAK_B,
        }
    }

    fn state_of(&self, index: usize) -> FourState {
        match index {
            Self::STRONG_A => FourState::StrongA,
            Self::STRONG_B => FourState::StrongB,
            Self::WEAK_A => FourState::WeakA,
            Self::WEAK_B => FourState::WeakB,
            _ => panic!("four-state protocol has 4 states, got {index}"),
        }
    }

    fn transition(&self, x: FourState, y: FourState) -> (FourState, FourState) {
        use FourState::*;
        match (x, y) {
            // Cancellation.
            (StrongA, StrongB) => (WeakA, WeakB),
            (StrongB, StrongA) => (WeakB, WeakA),
            // Conversion.
            (StrongA, WeakB) => (StrongA, WeakA),
            (WeakB, StrongA) => (WeakA, StrongA),
            (StrongB, WeakA) => (StrongB, WeakB),
            (WeakA, StrongB) => (WeakB, StrongB),
            other => other,
        }
    }

    fn output(&self, s: FourState) -> MajoritySide {
        match s {
            FourState::StrongA | FourState::WeakA => MajoritySide::A,
            FourState::StrongB | FourState::WeakB => MajoritySide::B,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_proto::{CountConfig, CountSimulator, Simulator};
    use sim_stats::rng::SimRng;

    fn initial(a: u64, b: u64) -> CountConfig {
        CountConfig::from_counts(vec![a, b, 0, 0])
    }

    #[test]
    fn signed_sum_conserved_under_all_transitions() {
        let p = FourStateMajority;
        for x in 0..4 {
            for y in 0..4 {
                let mut counts = [5u64, 5, 5, 5];
                let (tx, ty) = p.transition_indices(x, y);
                counts[x] -= 1;
                counts[y] -= 1;
                counts[tx] += 1;
                counts[ty] += 1;
                assert_eq!(
                    FourStateMajority::signed_sum(&counts),
                    0,
                    "pair ({x},{y}) broke conservation"
                );
            }
        }
    }

    #[test]
    fn exact_majority_with_tiny_margin() {
        // Margin of exactly 1: USD would fail w.c.p., the 4-state protocol
        // must always get it right (given enough time).
        for seed in 0..5 {
            let mut sim = CountSimulator::new(FourStateMajority, &initial(26, 25));
            let mut rng = SimRng::new(seed);
            sim.run_to_silence(&mut rng, 50_000_000);
            assert!(sim.is_silent(), "did not stabilize (seed {seed})");
            let counts = sim.counts();
            let (a_side, b_side) = FourStateMajority::sides(counts);
            assert_eq!(a_side, 51, "A side must win (seed {seed})");
            assert_eq!(b_side, 0);
            // One surviving strong A token.
            assert_eq!(counts[FourStateMajority::STRONG_A], 1);
            assert_eq!(counts[FourStateMajority::STRONG_B], 0);
        }
    }

    #[test]
    fn b_majority_wins_symmetrically() {
        let mut sim = CountSimulator::new(FourStateMajority, &initial(10, 40));
        let mut rng = SimRng::new(42);
        sim.run_to_silence(&mut rng, 50_000_000);
        let (a_side, b_side) = FourStateMajority::sides(sim.counts());
        assert_eq!(b_side, 50);
        assert_eq!(a_side, 0);
    }

    #[test]
    fn tie_cancels_all_tokens() {
        let mut sim = CountSimulator::new(FourStateMajority, &initial(20, 20));
        let mut rng = SimRng::new(7);
        // Run until no strong tokens remain (the tie endpoint).
        sim.run_until(&mut rng, 50_000_000, &mut |c| {
            c[FourStateMajority::STRONG_A] == 0 && c[FourStateMajority::STRONG_B] == 0
        });
        assert_eq!(sim.counts()[FourStateMajority::STRONG_A], 0);
        assert_eq!(sim.counts()[FourStateMajority::STRONG_B], 0);
        // All-weak configurations are silent (no rule applies).
        assert!(sim.is_silent());
    }

    #[test]
    fn conversion_rules() {
        use FourState::*;
        let p = FourStateMajority;
        assert_eq!(p.transition(StrongA, WeakB), (StrongA, WeakA));
        assert_eq!(p.transition(WeakB, StrongA), (WeakA, StrongA));
        assert_eq!(p.transition(StrongB, WeakA), (StrongB, WeakB));
        // Weak agents never convert each other.
        assert_eq!(p.transition(WeakA, WeakB), (WeakA, WeakB));
    }

    #[test]
    fn outputs() {
        let p = FourStateMajority;
        assert_eq!(p.output(FourState::StrongA), MajoritySide::A);
        assert_eq!(p.output(FourState::WeakA), MajoritySide::A);
        assert_eq!(p.output(FourState::StrongB), MajoritySide::B);
        assert_eq!(p.output(FourState::WeakB), MajoritySide::B);
    }

    #[test]
    fn index_roundtrip() {
        let p = FourStateMajority;
        for i in 0..4 {
            assert_eq!(p.index_of(p.state_of(i)), i);
        }
    }
}
