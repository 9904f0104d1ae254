//! Graph-engine vs agentwise throughput across topology regimes.
//!
//! Every row simulates the identical graph-restricted chain; what differs
//! is the cost model. The agentwise engine pays O(1) per **scheduled**
//! interaction; the graph engine (`graph` = its per-event policy,
//! `batchgraph` = its block policy, on one stream) pays O(1) per scheduled
//! draw while the configuration is effective-dominated and escalates to
//! its sparse skipper (O(d) per **effective** interaction) once no-ops
//! dominate. The benches therefore measure *scheduled interactions
//! per second* in the two regimes:
//!
//! * `expander` — USD bulk phase on a random 8-regular graph: effective
//!   fraction 30–50%, nothing to skip, the engines should be comparable;
//! * `noop-dominated` — USD endgame on a cycle (a lone undecided pocket in
//!   an otherwise-converged ring): activity fraction ~1/m, where the
//!   graph engine's skipper advances the clock geometrically and the agentwise
//!   engine grinds through every scheduled no-op. This is the regime behind
//!   the order-of-magnitude wins on low-conductance topology sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pop_proto::{AgentSimulator, BatchGraphSimulator, GraphScheduler, Simulator, TopologyFamily};
use sim_stats::rng::SimRng;
use std::hint::black_box;
use usd_core::protocol::UndecidedStateDynamics;

/// Per-agent states for the frontier instance: two opinion domains filling
/// half the ring each. Only the two domain boundaries are active (W = 4 of
/// 2m orientations), and boundary random walks persist for ~n² parallel
/// time — the stable no-op-dominated configuration low-conductance
/// topology runs spend almost their whole schedule in.
fn frontier_states(n: usize) -> Vec<usize> {
    let mut states = vec![0usize; n];
    for s in states.iter_mut().skip(n / 2) {
        *s = 1;
    }
    states
}

/// Drive a simulator through `target` scheduled interactions (or silence).
fn drive<S: Simulator>(sim: &mut S, rng: &mut SimRng, target: u64) -> u64 {
    loop {
        let done = sim.interactions();
        if done >= target || sim.is_silent() {
            return done;
        }
        if sim.advance_changed(rng, target - done).0 == 0 {
            return done;
        }
    }
}

fn bench_expander(c: &mut Criterion) {
    let n = 100_000usize;
    let graph = TopologyFamily::Regular { d: 8 }.build(n, 7);
    let config = usd_bench::bench_config(n as u64, 2).to_count_config();
    // Well short of stabilization (~20n scheduled for this family), so the
    // workload is the same bulk-phase dynamics on both engines.
    let target = 1_000_000u64;

    let mut group = c.benchmark_group("graphwise_expander");
    group.throughput(Throughput::Elements(target));
    group.bench_with_input(BenchmarkId::new("agent", "reg8-1e5"), &graph, |b, g| {
        b.iter(|| {
            let mut rng = SimRng::new(1);
            let states = pop_proto::simulator::shuffled_layout(&config, &mut rng);
            let mut sim = AgentSimulator::new(
                UndecidedStateDynamics::new(2),
                GraphScheduler::new(g.clone()),
                states,
            );
            black_box(drive(&mut sim, &mut rng, target))
        })
    });
    group.bench_with_input(BenchmarkId::new("graph", "reg8-1e5"), &graph, |b, g| {
        b.iter(|| {
            let mut rng = SimRng::new(1);
            let states = pop_proto::simulator::shuffled_layout(&config, &mut rng);
            let mut sim =
                BatchGraphSimulator::new(UndecidedStateDynamics::new(2), g, states).per_event();
            black_box(drive(&mut sim, &mut rng, target))
        })
    });
    group.bench_with_input(
        BenchmarkId::new("batchgraph", "reg8-1e5"),
        &graph,
        |b, g| {
            b.iter(|| {
                let mut rng = SimRng::new(1);
                let states = pop_proto::simulator::shuffled_layout(&config, &mut rng);
                let mut sim = BatchGraphSimulator::new(UndecidedStateDynamics::new(2), g, states);
                black_box(drive(&mut sim, &mut rng, target))
            })
        },
    );
    group.finish();
}

fn bench_noop_dominated(c: &mut Criterion) {
    let n = 65_536usize;
    let graph = TopologyFamily::Cycle.build(n, 0);
    let target = 20_000_000u64;

    let mut group = c.benchmark_group("graphwise_noop_dominated");
    group.throughput(Throughput::Elements(target));
    group.bench_with_input(
        BenchmarkId::new("agent", "cycle-frontier"),
        &graph,
        |b, g| {
            b.iter(|| {
                let mut rng = SimRng::new(2);
                let mut sim = AgentSimulator::new(
                    UndecidedStateDynamics::new(2),
                    GraphScheduler::new(g.clone()),
                    frontier_states(n),
                );
                black_box(drive(&mut sim, &mut rng, target))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("graph", "cycle-frontier"),
        &graph,
        |b, g| {
            b.iter(|| {
                let mut rng = SimRng::new(2);
                let mut sim =
                    BatchGraphSimulator::new(UndecidedStateDynamics::new(2), g, frontier_states(n))
                        .per_event();
                black_box(drive(&mut sim, &mut rng, target))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batchgraph", "cycle-frontier"),
        &graph,
        |b, g| {
            b.iter(|| {
                let mut rng = SimRng::new(2);
                let mut sim =
                    BatchGraphSimulator::new(UndecidedStateDynamics::new(2), g, frontier_states(n));
                black_box(drive(&mut sim, &mut rng, target))
            })
        },
    );
    group.finish();
}

/// Sparse-phase *effective-event* throughput: full stabilization from the
/// frontier configuration, so every measured event goes through the shared
/// sparse skipper (O(1) active-edge pool updates, cached-log geometric
/// skips). The gated `bench_backends` rows measure the same regime at
/// n = 4096; this
/// micro-bench keeps a small instance in the Criterion suite for quick
/// A/B runs.
fn bench_sparse_stabilize(c: &mut Criterion) {
    let n = 512usize;
    let graph = TopologyFamily::Cycle.build(n, 0);

    let mut group = c.benchmark_group("graphwise_sparse_stabilize");
    group.bench_with_input(
        BenchmarkId::new("graph", "cycle-frontier-512"),
        &graph,
        |b, g| {
            b.iter(|| {
                let mut rng = SimRng::new(3);
                let mut sim =
                    BatchGraphSimulator::new(UndecidedStateDynamics::new(2), g, frontier_states(n))
                        .per_event();
                sim.run_to_silence(&mut rng, u64::MAX / 2);
                black_box(sim.effective_interactions())
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batchgraph", "cycle-frontier-512"),
        &graph,
        |b, g| {
            b.iter(|| {
                let mut rng = SimRng::new(3);
                let mut sim =
                    BatchGraphSimulator::new(UndecidedStateDynamics::new(2), g, frontier_states(n));
                sim.run_to_silence(&mut rng, u64::MAX / 2);
                black_box(sim.effective_interactions())
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_expander,
    bench_noop_dominated,
    bench_sparse_stabilize
);
criterion_main!(benches);
