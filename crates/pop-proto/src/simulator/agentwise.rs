//! Per-agent exact simulator.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::observe::SimObserver;
use crate::protocol::Protocol;
use crate::scheduler::Scheduler;
use crate::simulator::{observe_loop, snapshot_tags, Simulator};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::rng::SimRng;

/// Full account of one interaction: who was scheduled and the dense state
/// indices of both agents before and after the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InteractionRecord {
    /// Scheduled initiator agent index.
    pub initiator: usize,
    /// Scheduled responder agent index.
    pub responder: usize,
    /// `(initiator_state, responder_state)` before the transition.
    pub before: (usize, usize),
    /// `(initiator_state, responder_state)` after the transition.
    pub after: (usize, usize),
}

impl InteractionRecord {
    /// Whether the interaction changed any agent's state.
    pub fn changed(&self) -> bool {
        self.before != self.after
    }

    /// Whether the initiator's state changed.
    pub fn initiator_changed(&self) -> bool {
        self.before.0 != self.after.0
    }

    /// Whether the responder's state changed.
    pub fn responder_changed(&self) -> bool {
        self.before.1 != self.after.1
    }
}

/// Exact per-agent simulator: the literal population-protocol model.
///
/// Keeps a state index per agent; each step asks the scheduler for an
/// ordered pair and applies the protocol's transition. Works with any
/// [`Scheduler`], clique or graph-restricted; on a graph it is the
/// literal reference the graph engines are tested against.
///
/// Silence is exact on a graph too. On a disconnected interaction graph a
/// configuration can freeze with mixed counts, which the count-level test
/// cannot see. The engine therefore rescans the graph's edges for one that
/// can still change a state at construction, in `restore_state` and at
/// the end of every
/// [`advance_observed`](crate::Simulator::advance_observed) call (which
/// `run_until` and `run_to_silence` go through). The scan stops at the
/// first active edge. A freeze is absorbing, so [`is_silent`] may lag
/// behind a freeze between those points but never reports one that has
/// not happened.
///
/// [`is_silent`]: Simulator::is_silent
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)): **exact** —
/// every advancement is one scheduled interaction, so observers see every
/// effective event individually.
#[derive(Debug, Clone)]
pub struct AgentSimulator<P: Protocol, S: Scheduler> {
    protocol: P,
    scheduler: S,
    /// Dense state index per agent.
    states: Vec<usize>,
    /// Per-state counts, kept in sync with `states`.
    counts: Vec<u64>,
    interactions: u64,
    /// Interactions that changed at least one agent's state.
    effective_interactions: u64,
    /// Engine telemetry. A per-event engine: the live counters are
    /// `scheduled`/`effective` (mirroring the clocks), `dense_steps`, and
    /// `pair_draws` — one per scheduled interaction. No phases, no spans.
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): the literally-counted no-op run
    /// before each effective interaction lands in `skip_len`.
    hist: Option<Box<EventHistograms>>,
    /// Consecutive no-op interactions (histogram recording only).
    noop_run: u64,
    /// No edge of the scheduler's interaction graph can change a state, as
    /// of the last [`rescan`](Self::rescan). Always `false` on the clique.
    frozen: bool,
}

impl<P: Protocol, S: Scheduler> AgentSimulator<P, S> {
    /// Create a simulator with explicit initial per-agent states (dense
    /// indices). The scheduler's population must match.
    pub fn new(protocol: P, scheduler: S, states: Vec<usize>) -> Self {
        assert_eq!(
            states.len(),
            scheduler.population(),
            "agent count does not match scheduler population"
        );
        let mut counts = vec![0u64; protocol.num_states()];
        for &s in &states {
            assert!(s < protocol.num_states(), "state index {s} out of range");
            counts[s] += 1;
        }
        let mut sim = AgentSimulator {
            protocol,
            scheduler,
            states,
            counts,
            interactions: 0,
            effective_interactions: 0,
            telemetry: EngineTelemetry::new(),
            hist: None,
            noop_run: 0,
            frozen: false,
        };
        sim.rescan();
        sim
    }

    /// Create from a count configuration, assigning agents to states in
    /// blocks (agent order is irrelevant to the dynamics on a clique; for
    /// graph schedulers callers may prefer [`AgentSimulator::new`] with a
    /// shuffled layout).
    pub fn from_config(protocol: P, scheduler: S, config: &CountConfig) -> Self {
        assert_eq!(config.num_states(), protocol.num_states());
        let mut states = Vec::with_capacity(config.n() as usize);
        for (idx, &c) in config.counts().iter().enumerate() {
            states.extend(std::iter::repeat_n(idx, c as usize));
        }
        Self::new(protocol, scheduler, states)
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Per-agent state indices.
    pub fn states(&self) -> &[usize] {
        &self.states
    }

    /// Run one interaction and report exactly what happened (which agents
    /// were scheduled and their state indices before/after). Used by
    /// experiments that track per-agent statistics such as opinion-flip
    /// counts per parallel round.
    pub fn step_recorded(&mut self, rng: &mut SimRng) -> InteractionRecord {
        let (i, j) = self.scheduler.next_pair(rng);
        debug_assert_ne!(i, j);
        self.interactions += 1;
        self.telemetry.scheduled += 1;
        self.telemetry.dense_steps += 1;
        self.telemetry.pair_draws += 1;
        let (si, sj) = (self.states[i], self.states[j]);
        let (ti, tj) = self.protocol.transition_indices(si, sj);
        if (ti, tj) != (si, sj) {
            self.counts[si] -= 1;
            self.counts[sj] -= 1;
            self.counts[ti] += 1;
            self.counts[tj] += 1;
            self.states[i] = ti;
            self.states[j] = tj;
            self.effective_interactions += 1;
            self.telemetry.effective += 1;
            if let Some(h) = &mut self.hist {
                // The completed no-op run before this effective event —
                // the quantity the leaping engines sample geometrically.
                h.skip_len.add_u64(self.noop_run);
            }
            self.noop_run = 0;
        } else if self.hist.is_some() {
            self.noop_run += 1;
        }
        InteractionRecord {
            initiator: i,
            responder: j,
            before: (si, sj),
            after: (ti, tj),
        }
    }

    /// Re-derive `frozen` by scanning the interaction graph for an edge
    /// that can change a state in either orientation.
    fn rescan(&mut self) {
        let (protocol, states) = (&self.protocol, &self.states);
        self.frozen = self.scheduler.interaction_graph().is_some_and(|graph| {
            graph.edges().all(|(a, b)| {
                let (sa, sb) = (states[a as usize], states[b as usize]);
                protocol.is_noop(sa, sb) && protocol.is_noop(sb, sa)
            })
        });
    }
}

impl<P: Protocol, S: Scheduler> Simulator for AgentSimulator<P, S> {
    fn population(&self) -> u64 {
        self.states.len() as u64
    }

    fn num_states(&self) -> usize {
        self.counts.len()
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    fn step(&mut self, rng: &mut SimRng) -> bool {
        self.step_recorded(rng).changed()
    }

    /// Silent counts, or a frozen interaction graph as of the last rescan
    /// (see the type docs).
    fn is_silent(&self) -> bool {
        self.frozen || self.protocol.is_silent(&self.counts)
    }

    fn advance_observed(
        &mut self,
        rng: &mut SimRng,
        budget: u64,
        observer: &mut dyn SimObserver,
    ) -> u64 {
        let ran = observe_loop(self, rng, budget, observer);
        self.rescan();
        ran
    }

    fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    fn set_histograms(&mut self, enabled: bool) {
        self.hist = if enabled {
            Some(Box::new(EventHistograms::new()))
        } else {
            None
        };
        self.noop_run = 0;
    }

    fn histograms(&self) -> Option<EventHistograms> {
        self.hist.as_deref().cloned()
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(snapshot_tags::AGENT);
        snapshot_tags::write_config(w, self.states.len() as u64, self.counts.len());
        w.put_u64(self.states.len() as u64);
        for &s in &self.states {
            w.put_u32(s as u32);
        }
        w.put_u64(self.interactions);
        w.put_u64(self.effective_interactions);
        self.telemetry.write_snapshot(w);
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.noop_run);
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        snapshot_tags::expect(r, snapshot_tags::AGENT, "agent")?;
        snapshot_tags::expect_config(r, self.states.len() as u64, self.counts.len())?;
        let count = r.get_u64()? as usize;
        if count != self.states.len() {
            return Err(CheckpointError::Corrupt(format!(
                "agent snapshot has {count} agents (engine has {})",
                self.states.len()
            )));
        }
        let k = self.counts.len();
        let mut states = Vec::with_capacity(count);
        let mut counts = vec![0u64; k];
        for _ in 0..count {
            let s = r.get_u32()? as usize;
            if s >= k {
                return Err(CheckpointError::Corrupt(format!(
                    "agent state index {s} out of range ({k} states)"
                )));
            }
            counts[s] += 1;
            states.push(s);
        }
        let interactions = r.get_u64()?;
        let effective_interactions = r.get_u64()?;
        let telemetry = EngineTelemetry::read_snapshot(r)?;
        let hist = if r.get_bool()? {
            Some(Box::new(EventHistograms::read_snapshot(r)?))
        } else {
            None
        };
        let noop_run = r.get_u64()?;
        self.states = states;
        self.counts = counts;
        self.interactions = interactions;
        self.effective_interactions = effective_interactions;
        self.telemetry = telemetry;
        self.hist = hist;
        self.noop_run = noop_run;
        self.rescan();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::protocol::OneWayEpidemic;
    use crate::scheduler::{CliqueScheduler, GraphScheduler};

    fn epidemic_sim(n: usize, infected: usize) -> AgentSimulator<OneWayEpidemic, CliqueScheduler> {
        let mut states = vec![1usize; n];
        for s in states.iter_mut().take(infected) {
            *s = 0;
        }
        AgentSimulator::new(OneWayEpidemic, CliqueScheduler::new(n), states)
    }

    #[test]
    fn counts_track_states() {
        let sim = epidemic_sim(10, 3);
        assert_eq!(sim.counts(), &[3, 7]);
        assert_eq!(sim.population(), 10);
    }

    #[test]
    fn epidemic_is_monotone_and_completes() {
        let mut sim = epidemic_sim(50, 1);
        let mut rng = SimRng::new(42);
        let mut last_infected = 1u64;
        for _ in 0..200_000 {
            sim.step(&mut rng);
            let infected = sim.counts()[0];
            assert!(infected >= last_infected, "epidemic went backwards");
            last_infected = infected;
            if infected == 50 {
                break;
            }
        }
        assert_eq!(sim.counts(), &[50, 0]);
        assert!(sim.is_silent());
        assert_eq!(sim.config().consensus_state(), Some(0));
    }

    #[test]
    fn effective_interactions_counted() {
        let mut sim = epidemic_sim(10, 5);
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            sim.step(&mut rng);
        }
        assert_eq!(sim.interactions(), 1000);
        // Exactly 5 infections can ever happen.
        assert_eq!(sim.effective_interactions(), 5);
    }

    #[test]
    fn run_with_stop_condition() {
        let mut sim = epidemic_sim(20, 1);
        let mut rng = SimRng::new(3);
        let ran = sim.run_until(&mut rng, 1_000_000, &mut |c| c[0] >= 10);
        assert!(sim.counts()[0] >= 10);
        assert!(ran < 1_000_000);
    }

    #[test]
    fn parallel_time_is_interactions_over_n() {
        let mut sim = epidemic_sim(10, 0);
        let mut rng = SimRng::new(5);
        for _ in 0..25 {
            sim.step(&mut rng);
        }
        assert!((sim.parallel_time() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn step_recorded_reports_exact_changes() {
        let mut sim = epidemic_sim(10, 5);
        let mut rng = SimRng::new(11);
        for _ in 0..500 {
            let before: Vec<usize> = sim.states().to_vec();
            let rec = sim.step_recorded(&mut rng);
            assert_ne!(rec.initiator, rec.responder);
            assert_eq!(rec.before.0, before[rec.initiator]);
            assert_eq!(rec.before.1, before[rec.responder]);
            assert_eq!(rec.after.0, sim.states()[rec.initiator]);
            assert_eq!(rec.after.1, sim.states()[rec.responder]);
            for (idx, (&b, &a)) in before.iter().zip(sim.states()).enumerate() {
                if idx != rec.initiator && idx != rec.responder {
                    assert_eq!(b, a, "agent {idx} changed without interacting");
                }
            }
            assert_eq!(
                rec.changed(),
                rec.initiator_changed() || rec.responder_changed()
            );
        }
    }

    #[test]
    fn from_config_matches_counts() {
        let cfg = CountConfig::from_counts(vec![4, 6]);
        let sim = AgentSimulator::from_config(OneWayEpidemic, CliqueScheduler::new(10), &cfg);
        assert_eq!(sim.counts(), &[4, 6]);
    }

    #[test]
    #[should_panic(expected = "scheduler population")]
    fn population_mismatch_panics() {
        AgentSimulator::new(OneWayEpidemic, CliqueScheduler::new(3), vec![0, 1]);
    }

    /// An epidemic on `graph` with agent 0 infected and everyone else
    /// susceptible.
    fn graph_epidemic(graph: Graph) -> AgentSimulator<OneWayEpidemic, GraphScheduler> {
        let mut states = vec![1usize; graph.n()];
        states[0] = 0;
        AgentSimulator::new(OneWayEpidemic, GraphScheduler::new(graph), states)
    }

    /// Two disjoint 10-cycles: vertices 0–9 and 10–19.
    fn two_cycles() -> Graph {
        let edges = (0..20u32)
            .map(|v| (v, v / 10 * 10 + (v + 1) % 10))
            .collect();
        Graph::from_edges(20, edges)
    }

    /// The infection fills the first cycle and can never reach the second,
    /// so the configuration freezes with mixed counts. Count silence cannot
    /// see that; the edge scan at the end of the call does, and a restored
    /// or freshly constructed engine on the frozen layout sees it before
    /// any call.
    #[test]
    fn frozen_disconnected_graph_reports_silence() {
        let mut sim = graph_epidemic(two_cycles());
        assert!(!sim.is_silent());
        let mut rng = SimRng::new(1);
        assert_eq!(sim.run_to_silence(&mut rng, 1 << 16), (1 << 16, true));
        assert_eq!(sim.counts(), &[10, 10]);

        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = graph_epidemic(two_cycles());
        assert!(!restored.is_silent());
        restored
            .restore_state(&mut SnapshotReader::new(&bytes))
            .unwrap();
        assert!(restored.is_silent());

        let frozen = sim.states().to_vec();
        let built = AgentSimulator::new(OneWayEpidemic, GraphScheduler::new(two_cycles()), frozen);
        assert!(built.is_silent());
    }

    /// On a connected graph the scan never fires early: silence is reported
    /// only once the infection has reached every agent, however often the
    /// engine rescans.
    #[test]
    fn connected_graph_reports_silence_only_at_consensus() {
        for seed in 0..20 {
            let mut sim = graph_epidemic(Graph::cycle(20));
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.run_until(&mut rng, 3, &mut |_| false);
                assert!(
                    !sim.is_silent() || sim.counts() == [20, 0],
                    "seed {seed}: silent with counts {:?}",
                    sim.counts()
                );
            }
        }
    }
}
