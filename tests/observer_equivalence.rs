//! Equivalence of the observation layer across backends.
//!
//! Every backend drives a `SimObserver` through
//! `Simulator::advance_observed`; these tests pin the layer's contract:
//!
//! * **self-consistency** (exact, per backend): the observer's accumulated
//!   effective/scheduled deltas must equal the simulator's own counters,
//!   the final observed counts must equal the simulator's counts, and the
//!   population must be conserved at every observation;
//! * **granularity**: the single-event engines report `delta_effective ==
//!   1` at every boundary (exact semantics), the leaping engines report
//!   block checkpoints — and `batchgraph`'s checkpoints sit exactly on the
//!   per-event path of `graph`, its per-event policy, under one seed;
//! * **cross-backend agreement** (distributional): the mean effective-event
//!   count to stabilization and the mean final majority seen *through the
//!   observer* agree between the literal `agent` reference and each other
//!   clique backend (fixed seeds, generous tolerances — no flaky assertions);
//! * **frozen topologies**: all graph-capable backends classify a
//!   disconnected topology as `ConsensusOutcome::Frozen`.

use plurality_consensus::pop_proto::{Observation, TopologyFamily};
use plurality_consensus::sim_stats::rng::SimRng;
use plurality_consensus::usd_core::backend::{make_simulator, Backend};
use plurality_consensus::usd_core::init::InitialConfigBuilder;
use plurality_consensus::usd_core::stabilization::ConsensusOutcome;
use plurality_consensus::usd_core::RunSpec;

/// What one observed run accumulated.
struct ObservedRun {
    observations: u64,
    sum_delta_effective: u64,
    sum_delta_interactions: u64,
    final_counts: Vec<u64>,
    all_exact: bool,
    effective_counter: u64,
    interactions_counter: u64,
    /// `(interactions, counts)` at every observation.
    path: Vec<(u64, Vec<u64>)>,
}

/// Run `backend` to silence from the Figure-1 configuration, observing the
/// whole trajectory and checking per-observation invariants.
fn observed_run(backend: Backend, n: u64, k: usize, seed: u64) -> ObservedRun {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut sim = make_simulator(backend, &config);
    // Lane-aggregate engines (replica) hold `lanes × n` agents; observation
    // conserves the engine's population, not the per-lane one.
    let population = sim.population();
    let mut rng = SimRng::new(seed);
    let mut out = ObservedRun {
        observations: 0,
        sum_delta_effective: 0,
        sum_delta_interactions: 0,
        final_counts: Vec::new(),
        all_exact: true,
        effective_counter: 0,
        interactions_counter: 0,
        path: Vec::new(),
    };
    sim.advance_observed(&mut rng, u64::MAX / 2, &mut |obs: &Observation<'_>| {
        assert_eq!(
            obs.counts.iter().sum::<u64>(),
            population,
            "{backend}: population not conserved"
        );
        assert!(obs.delta_effective >= 1, "{backend}: unchanged boundary");
        assert!(obs.delta_interactions >= obs.delta_effective);
        assert!(obs.effective >= obs.delta_effective);
        assert!(obs.interactions >= obs.delta_interactions);
        out.observations += 1;
        out.sum_delta_effective += obs.delta_effective;
        out.sum_delta_interactions += obs.delta_interactions;
        out.all_exact &= obs.is_exact();
        out.final_counts = obs.counts.to_vec();
        out.effective_counter = obs.effective;
        out.interactions_counter = obs.interactions;
        out.path.push((obs.interactions, obs.counts.to_vec()));
        true
    });
    assert!(sim.is_silent(), "{backend}: run did not stabilize");
    // The observer's accumulated deltas are the simulator's counters.
    assert_eq!(
        out.sum_delta_effective,
        sim.effective_interactions(),
        "{backend}: effective deltas drifted from the counter"
    );
    assert_eq!(out.effective_counter, sim.effective_interactions());
    assert_eq!(
        out.sum_delta_interactions,
        sim.interactions(),
        "{backend}: scheduled deltas drifted from the clock"
    );
    assert_eq!(out.interactions_counter, sim.interactions());
    // The last observation *is* the final configuration: silence ends the
    // advancement at the boundary that reached it.
    assert_eq!(
        out.final_counts,
        sim.counts(),
        "{backend}: final observation is not the final state"
    );
    out
}

#[test]
fn observer_counters_are_self_consistent_on_every_backend() {
    for backend in Backend::ALL {
        let run = observed_run(backend, 600, 3, 42);
        assert!(run.observations > 0, "{backend}: no observations");
    }
}

#[test]
fn single_event_backends_are_exact_and_leaping_backends_checkpoint() {
    for backend in [Backend::Agent, Backend::Count, Backend::Graph] {
        let run = observed_run(backend, 600, 3, 7);
        assert!(run.all_exact, "{backend}: reported a multi-event boundary");
        assert_eq!(
            run.observations, run.sum_delta_effective,
            "{backend}: observations != effective events"
        );
    }
    // The batch engine must actually leap on this instance (otherwise the
    // checkpoint-semantics distinction is vacuous).
    let run = observed_run(Backend::Batch, 600, 3, 7);
    assert!(
        !run.all_exact,
        "batch: never produced a multi-event checkpoint"
    );
    assert!(run.observations < run.sum_delta_effective);
    // `graph` and `batchgraph` are the per-event and block policies of one
    // engine on one stream: under one seed, every `batchgraph` checkpoint
    // shows the counts of the `graph` path at the last event at or before
    // its clock.
    let exact = observed_run(Backend::Graph, 600, 3, 7);
    let blocks = observed_run(Backend::BatchGraph, 600, 3, 7);
    assert!(
        !blocks.all_exact,
        "batchgraph: never produced a multi-event checkpoint"
    );
    assert_eq!(blocks.interactions_counter, exact.interactions_counter);
    assert_eq!(blocks.final_counts, exact.final_counts);
    for (clock, counts) in &blocks.path {
        let at = exact.path.partition_point(|(c, _)| c <= clock);
        assert!(
            at > 0,
            "batchgraph checkpoint at {clock} precedes every event"
        );
        assert_eq!(
            &exact.path[at - 1].1,
            counts,
            "batchgraph checkpoint at clock {clock} is off the graph path"
        );
    }
}

#[test]
fn effective_counts_and_final_states_agree_across_backends() {
    // Distributional agreement between the literal agent reference and
    // the count and leaping backends, seen entirely through the
    // observation layer: mean effective events to stabilization and
    // majority win rate.
    let reps = 60u64;
    let stats = |backend: Backend| -> (f64, f64) {
        let mut eff = 0.0;
        let mut wins = 0.0;
        for seed in 0..reps {
            let run = observed_run(backend, 500, 3, 1_000 + seed);
            eff += run.sum_delta_effective as f64;
            // Figure-1 bias: opinion 0 should win; count consensus states.
            let k = 3;
            if run.final_counts[k] == 0
                && run.final_counts[0] == run.final_counts.iter().sum::<u64>()
            {
                wins += 1.0;
            }
        }
        (eff / reps as f64, wins / reps as f64)
    };
    let (eff_ref, wins_ref) = stats(Backend::Agent);
    assert!(wins_ref >= 0.8, "agent majority win rate {wins_ref}");
    for backend in [Backend::Count, Backend::Batch, Backend::BatchGraph] {
        let (eff, wins) = stats(backend);
        let rel = (eff - eff_ref).abs() / eff_ref;
        assert!(
            rel < 0.15,
            "{backend}: mean effective events diverge from agent: \
             {eff} vs {eff_ref} ({rel:.3})"
        );
        assert!(
            (wins - wins_ref).abs() <= 0.2,
            "{backend}: win rate {wins} vs agent {wins_ref}"
        );
    }
}

#[test]
fn frozen_outcome_is_reported_identically_by_all_graph_backends() {
    // A very sparse Erdős–Rényi graph strands both opinions in separate
    // components; every topology-capable backend must classify the silent
    // mixed configuration as Frozen (not Winner, not Timeout).
    let config = plurality_consensus::usd_core::UsdConfig::decided(vec![150, 150]);
    let family = TopologyFamily::ErdosRenyi { avg_degree: 0.8 };
    let mut outcomes = Vec::new();
    for backend in [Backend::Agent, Backend::Graph, Backend::BatchGraph] {
        let mut rng = SimRng::new(9);
        let r = RunSpec::new(&config)
            .backend(backend)
            .topology(family)
            .topo_seed(3)
            .run(&mut rng);
        assert!(r.stabilized(), "{backend} did not detect the freeze");
        outcomes.push((backend, r.outcome));
    }
    for (backend, outcome) in &outcomes {
        assert_eq!(
            *outcome,
            ConsensusOutcome::Frozen,
            "{backend} classified the disconnected freeze as {outcome:?}"
        );
    }
}
