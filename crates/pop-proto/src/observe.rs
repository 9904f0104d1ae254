//! Backend-agnostic observation of simulation trajectories.
//!
//! Every engine behind the [`Simulator`](crate::Simulator) trait can drive
//! an observer through
//! [`Simulator::advance_observed`](crate::Simulator::advance_observed): the
//! observer receives an [`Observation`] at every *advancement boundary that
//! changed the counts* — the current count configuration (a state
//! checkpoint), the cumulative scheduled/effective interaction counters,
//! and the deltas since the previous observation.
//!
//! # Exact vs checkpoint semantics
//!
//! The observation granularity is the backend's advancement granularity:
//!
//! | backend | boundary | `delta_effective` |
//! |---------|----------|-------------------|
//! | `agent`, `count` | every interaction | always ≤ 1 (**exact**) |
//! | `graph` | every effective event (dense and sparse phase; `batchgraph`'s per-event policy) | always 1 (**exact**) |
//! | `batch` | block boundary (~√n draws) | ≥ 1 (**checkpoint**) |
//! | `batchgraph` | block boundary in *both* phases (~√n draws dense, ≤ 64 events sparse) | ≥ 1 (**checkpoint**) |
//!
//! On the exact backends an observer sees every effective event
//! individually, so first-crossing times and running extrema are exact to
//! the interaction. On the leaping engines (`batch`, `batchgraph`) a
//! boundary summarizes a whole block of ~√n interactions — and, since the
//! sparse phase is block-leaping too, a `batchgraph` sparse boundary
//! summarizes up to 64 effective events; crossing times measured through
//! them are accurate to one block, and an intra-block excursion that
//! retreats before the boundary is invisible. `graph` is the same engine
//! under its per-event policy: it runs the `batchgraph` trajectory
//! bit-identically and reports every one of its effective events, in the
//! sparse phase too — the skipper's pool updates are O(1) per event, so
//! exactness costs no throughput there. [`Observation::is_exact`] tells
//! the two regimes apart per boundary.
//!
//! An observer that returns `false` ends the call at that boundary. Run
//! drivers use this to stop a run on any quantity the observation carries:
//! `usd_core::RunSpec` ends the run there, and the topology sweep (E14)
//! meters its effective-work budget this way.
//!
//! # Timeline sampling cadence
//!
//! The flight recorder
//! ([`TimelineRecorder`](crate::telemetry::timeline::TimelineRecorder))
//! is the third view of the same clocks, and unlike observations its
//! boundaries are *not* backend granularity: drivers clamp every
//! advancement to [`horizon`](crate::telemetry::timeline::TimelineRecorder::horizon),
//! so each sample lands exactly on a cadence mark of the **scheduled**
//! clock on every backend (which is what makes a timeline
//! bit-reproducible under a fixed seed). What differs per backend is what
//! the clamp costs — the stride the engine would naturally have taken
//! across the mark:
//!
//! | backend | natural stride | cost of hitting a cadence mark |
//! |---------|----------------|--------------------------------|
//! | `agent`, `count` | 1 interaction | none (already per-interaction) |
//! | `graph` | one effective event, in both phases | dense: none (one draw at a time); sparse: truncates ≤ 1 geometric skip per mark |
//! | `batch` | ~√n-draw block | truncates ≤ 1 block per mark |
//! | `batchgraph` | ~√n-draw chunk dense, ≤ 64 events sparse | truncates ≤ 1 chunk or sparse block per mark |
//!
//! At the recorder's default cadence (`max(n, 65 536)` scheduled
//! interactions per sample) one truncated block per mark is a vanishing
//! fraction of the window, which is how the CLI's `--timeline` surface
//! keeps its documented ≤ 2% effective-throughput overhead budget.

/// A view of the simulator state at one observation boundary.
///
/// Boundaries are reported only when the counts changed, so
/// `delta_effective ≥ 1` always holds; scheduled no-ops between boundaries
/// (skipped geometrically by the leaping engines) are folded into
/// `delta_interactions`.
#[derive(Debug, Clone, Copy)]
pub struct Observation<'a> {
    /// Current per-state counts (dense state indexing, length |Σ|).
    pub counts: &'a [u64],
    /// Cumulative scheduled interactions (including no-ops).
    pub interactions: u64,
    /// Cumulative effective interactions.
    pub effective: u64,
    /// Scheduled interactions since the previous observation (or since the
    /// start of the `advance_observed` call for the first one).
    pub delta_interactions: u64,
    /// Effective interactions since the previous observation (≥ 1).
    pub delta_effective: u64,
}

impl Observation<'_> {
    /// Whether this boundary is a single effective event (exact semantics)
    /// rather than a multi-event block checkpoint.
    pub fn is_exact(&self) -> bool {
        self.delta_effective <= 1
    }

    /// Parallel time at this boundary (= interactions / n, with n read off
    /// the counts).
    pub fn parallel_time(&self) -> f64 {
        let n: u64 = self.counts.iter().sum();
        self.interactions as f64 / n as f64
    }
}

/// Receiver of [`Observation`]s during an observed advancement.
///
/// Implemented by any `FnMut(&Observation) -> bool` closure (return `true`
/// to keep running, `false` to stop the advancement early).
pub trait SimObserver {
    /// Offered at every advancement boundary that changed the counts.
    /// Return `false` to end the `advance_observed` call early (budget and
    /// silence end it regardless).
    fn observe(&mut self, obs: &Observation<'_>) -> bool;
}

impl<F: FnMut(&Observation<'_>) -> bool> SimObserver for F {
    fn observe(&mut self, obs: &Observation<'_>) -> bool {
        self(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_exactness_and_parallel_time() {
        let counts = [3u64, 5, 2];
        let obs = Observation {
            counts: &counts,
            interactions: 20,
            effective: 4,
            delta_interactions: 5,
            delta_effective: 1,
        };
        assert!(obs.is_exact());
        assert!((obs.parallel_time() - 2.0).abs() < 1e-12);
        let block = Observation {
            delta_effective: 7,
            ..obs
        };
        assert!(!block.is_exact());
    }

    #[test]
    fn closures_are_observers() {
        let mut seen = 0u64;
        let counts = [1u64, 1];
        let view = Observation {
            counts: &counts,
            interactions: 1,
            effective: 1,
            delta_interactions: 1,
            delta_effective: 1,
        };
        {
            let mut obs = |o: &Observation<'_>| {
                seen += o.delta_effective;
                true
            };
            assert!(SimObserver::observe(&mut obs, &view));
        }
        assert_eq!(seen, 1);
    }
}
