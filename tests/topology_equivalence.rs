//! The graph engine simulates exactly the same graph-restricted Markov
//! chain as the agentwise engine driven by a `GraphScheduler` — these tests
//! compare the two engines' USD stabilization-time *distributions* by
//! two-sample Kolmogorov–Smirnov at α = 0.01 on the complete graph (the
//! degenerate clique topology), a random 8-regular graph, the torus and the
//! torus endgame, plus winner-rate agreement. Fixed seeds, no flaky
//! assertions: the KS thresholds are distribution-level with 120+ samples
//! per engine.
//!
//! Where streams are shared, the pins are bit-identity instead: the graph
//! engine's two policies (`graph` per event, `batchgraph` per block) run
//! the same trajectory under one seed (and so also agree in law on
//! disjoint seeds, which the `batchgraph_vs_graphwise_*_ks` tests check),
//! and every graph engine runs the same trajectory on an implicit lattice
//! and on its stored edge-list copy. `agent`'s stop clocks under `RunSpec`
//! are pinned seed by seed against the dedicated edge-scan driver it used
//! before the engine certified frozen graphs itself.

use plurality_consensus::prelude::*;
use pop_proto::TopologyFamily;
use sim_stats::ks::{ks_critical_value, ks_statistic};
use usd_core::backend::Backend;
use usd_core::RunSpec;

/// Stabilization-time samples (interactions) for one backend on one
/// topology. Each repetition draws its own layout and trajectory from a
/// per-rep generator; the graph is rebuilt per rep from a rep-dependent
/// seed so the samples marginalize over the random families too.
fn samples(
    backend: Backend,
    family: TopologyFamily,
    n: u64,
    k: usize,
    reps: u64,
    seed_base: u64,
) -> Vec<f64> {
    let config = InitialConfigBuilder::new(n, k).figure1();
    (0..reps)
        .map(|rep| {
            let mut rng = SimRng::new(seed_base + rep);
            let result = RunSpec::new(&config)
                .backend(backend)
                .topology(family)
                .topo_seed(0xBEEF ^ rep)
                .run(&mut rng);
            assert!(
                result.stabilized(),
                "{backend} rep {rep} did not stabilize on {family}"
            );
            result.interactions as f64
        })
        .collect()
}

fn assert_ks_equivalent(
    reference: Backend,
    candidate: Backend,
    family: TopologyFamily,
    n: u64,
    k: usize,
    reps: u64,
) {
    let a = samples(reference, family, n, k, reps, 40_000);
    let b = samples(candidate, family, n, k, reps, 80_000);
    let d = ks_statistic(&a, &b);
    let crit = ks_critical_value(a.len(), b.len(), 0.01);
    assert!(
        d < crit,
        "{family}: {candidate} vs {reference} stabilization-time KS {d:.4} >= critical {crit:.4}"
    );
}

/// KS equivalence on the complete graph: the graph engine's degenerate
/// clique instance must reproduce the agentwise stabilization-time law.
#[test]
fn graphwise_vs_agentwise_complete_graph_ks() {
    assert_ks_equivalent(
        Backend::Agent,
        Backend::Graph,
        TopologyFamily::Complete,
        400,
        3,
        150,
    );
}

/// KS equivalence on a random 8-regular graph — the issue's headline
/// correctness criterion for the topology subsystem.
#[test]
fn graphwise_vs_agentwise_random_8_regular_ks() {
    assert_ks_equivalent(
        Backend::Agent,
        Backend::Graph,
        TopologyFamily::Regular { d: 8 },
        512,
        2,
        150,
    );
}

/// `graph` and `batchgraph` are the per-event and block policies of one
/// engine on one random stream, so under a fixed seed they run the same
/// trajectory: equal `RunSpec::run` results (interactions and outcome), and
/// equal counts at every chunk boundary of a chunked drive. The instances
/// cover the complete graph (dense clique states: matching collisions and
/// fallbacks fire constantly), a random 8-regular graph (the
/// effective-dominated regime), the torus (repeated dense ↔ sparse
/// hand-offs) and the cycle (the run lives in the sparse skipper, whose
/// blocks apply up to 64 events per advancement).
#[test]
fn graph_and_batchgraph_runs_are_bit_identical() {
    const SEEDS: u64 = 50;
    const CHUNK: u64 = 1_000;
    let policies = [Backend::Graph, Backend::BatchGraph];
    for (family, n, k) in [
        (TopologyFamily::Complete, 400, 3),
        (TopologyFamily::Regular { d: 8 }, 512, 2),
        (TopologyFamily::Torus, 441, 2),
        (TopologyFamily::Cycle, 96, 2),
    ] {
        let config = InitialConfigBuilder::new(n, k).figure1();
        let spec = |backend: Backend, rep: u64| {
            RunSpec::new(&config)
                .backend(backend)
                .topology(family)
                .topo_seed(0xBEEF ^ rep)
        };
        for rep in 0..SEEDS {
            let seed = 40_000 + rep;
            let [graph, batchgraph] = policies.map(|backend| {
                let result = spec(backend, rep).run(&mut SimRng::new(seed));
                assert!(result.stabilized(), "{backend} rep {rep} on {family}");
                (result.interactions, result.outcome)
            });
            assert_eq!(graph, batchgraph, "{family} rep {rep}: run results differ");
            let [graph, batchgraph] = policies.map(|backend| {
                let mut rng = SimRng::new(seed);
                let mut sim = spec(backend, rep).build_simulator(&mut rng);
                drive_chunks(sim.as_mut(), &mut rng, u64::MAX, CHUNK, |_| false)
            });
            assert!(!graph.is_empty(), "{family} rep {rep}: nothing ran");
            assert_eq!(graph, batchgraph, "{family} rep {rep}: chunk paths differ");
        }
    }
}

// The two policies' in-law agreement on disjoint seed sets (`graph` on
// seeds 40 000+, `batchgraph` on 80 000+), one test per instance of the
// bit-identity pin above, which implies it.

/// KS equivalence of the block policy against the per-event policy on the
/// complete graph.
#[test]
fn batchgraph_vs_graphwise_complete_graph_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Complete,
        400,
        3,
        150,
    );
}

/// KS equivalence of the block policy against the per-event policy on a
/// random 8-regular graph.
#[test]
fn batchgraph_vs_graphwise_random_8_regular_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Regular { d: 8 },
        512,
        2,
        150,
    );
}

/// KS equivalence of the block policy against the per-event policy on the
/// torus.
#[test]
fn batchgraph_vs_graphwise_torus_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Torus,
        441,
        2,
        150,
    );
}

/// KS equivalence of the block policy against the per-event policy on the
/// cycle.
#[test]
fn batchgraph_vs_graphwise_cycle_ks() {
    assert_ks_equivalent(
        Backend::Graph,
        Backend::BatchGraph,
        TopologyFamily::Cycle,
        96,
        2,
        150,
    );
}

/// KS equivalence of the graph engine against the literal agentwise
/// engine on the torus: the run crosses the dense ↔ sparse hand-off, and
/// this pins that the induced chain — and the skip-accounted interaction
/// clock — still match the engine that simulates every scheduled draw.
#[test]
fn graphwise_vs_agentwise_torus_ks() {
    assert_ks_equivalent(
        Backend::Agent,
        Backend::Graph,
        TopologyFamily::Torus,
        196,
        2,
        120,
    );
}

/// KS equivalence of the sparse-skipper engine against the literal
/// agentwise engine on the **torus endgame** — one 4 × 4 minority patch on
/// an otherwise-converged 128 × 128 torus, the benched scenario's shape.
/// The initial activity fraction (≈ 32 of 65 536 orientations) trips the
/// sparse trigger within a few thousand draws, so nearly every effective
/// event is drawn by the sparse skipper. `batchgraph` runs on `graph`'s
/// seeds and must reproduce its sample exactly (one engine, two policies);
/// that sample is then compared against the agentwise one at α = 0.01: the
/// skipper's active-edge pool may only change the cost of a draw, never
/// the sampled trajectory law.
#[test]
fn graphwise_vs_agentwise_torus_endgame_ks() {
    use plurality_consensus::pop_proto::{
        AgentSimulator, BatchGraphSimulator, GraphScheduler, Simulator,
    };
    use plurality_consensus::usd_core::protocol::UndecidedStateDynamics;

    let n = TopologyFamily::Torus.snap_n(16_384);
    let side = (n as f64).sqrt() as usize;
    let patch = 4usize;
    let reps = 120u64;
    let endgame_states = || {
        let mut states = vec![0usize; n];
        for r in 0..patch {
            for c in 0..patch {
                states[r * side + c] = 1;
            }
        }
        states
    };
    let samples = |backend: Backend, seed_base: u64| -> Vec<f64> {
        let graph = TopologyFamily::Torus.build(n, 0);
        (0..reps)
            .map(|rep| {
                let mut rng = SimRng::new(seed_base + rep);
                let proto = UndecidedStateDynamics::new(2);
                let mut sim: Box<dyn Simulator> = match backend {
                    Backend::Agent => Box::new(AgentSimulator::new(
                        proto,
                        GraphScheduler::new(graph.clone()),
                        endgame_states(),
                    )),
                    Backend::Graph => Box::new(
                        BatchGraphSimulator::new(proto, &graph, endgame_states()).per_event(),
                    ),
                    Backend::BatchGraph => {
                        Box::new(BatchGraphSimulator::new(proto, &graph, endgame_states()))
                    }
                    other => unreachable!("{other} is not compared here"),
                };
                let (interactions, silent) = sim.run_to_silence(&mut rng, u64::MAX / 2);
                assert!(silent, "{backend} endgame rep {rep} did not stabilize");
                interactions as f64
            })
            .collect()
    };
    let reference = samples(Backend::Agent, 120_000);
    let candidate = samples(Backend::Graph, 220_000);
    assert!(
        samples(Backend::BatchGraph, 220_000) == candidate,
        "torus endgame: batchgraph and graph samples differ on the same seeds"
    );
    let d = ks_statistic(&reference, &candidate);
    let crit = ks_critical_value(reference.len(), candidate.len(), 0.01);
    assert!(
        d < crit,
        "torus endgame: graph/batchgraph vs agent stabilization-time KS {d:.4} >= critical {crit:.4}"
    );
}

/// Winner distributions agree under a strong bias: both engines elect the
/// plurality at essentially the same high rate on a sparse topology.
#[test]
fn graphwise_and_agentwise_agree_on_winner_rate() {
    let n = 512u64;
    let k = 2usize;
    let reps = 80u64;
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut rates = [0.0f64; 2];
    for (slot, backend) in [Backend::Agent, Backend::Graph].into_iter().enumerate() {
        let mut wins = 0u64;
        for rep in 0..reps {
            let mut rng = SimRng::new(rep + 7_000 * slot as u64);
            let result = RunSpec::new(&config)
                .backend(backend)
                .topology(TopologyFamily::Regular { d: 8 })
                .topo_seed(0xABCD ^ rep)
                .run(&mut rng);
            if result.plurality_won() {
                wins += 1;
            }
        }
        rates[slot] = wins as f64 / reps as f64;
    }
    assert!(rates[0] > 0.85, "agentwise win rate {}", rates[0]);
    assert!(rates[1] > 0.85, "graphwise win rate {}", rates[1]);
    assert!(
        (rates[0] - rates[1]).abs() < 0.12,
        "win rates diverge: {rates:?}"
    );
}

/// The graph engine's clock is calibrated: mean stabilization interactions on a
/// no-op-heavy topology (the cycle) match the agentwise engine, which
/// counts every scheduled interaction one by one. This exercises the
/// sparse-phase geometric skip accounting specifically — the cycle spends
/// > 99% of its schedule in skipped no-op runs.
#[test]
fn graphwise_skip_clock_matches_agentwise_on_cycle() {
    let n = 96u64;
    let k = 2usize;
    let reps = 200u64;
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut means = [0.0f64; 2];
    for (slot, backend) in [Backend::Agent, Backend::Graph].into_iter().enumerate() {
        for rep in 0..reps {
            let mut rng = SimRng::new(rep + 11_000 * slot as u64);
            let result = RunSpec::new(&config)
                .backend(backend)
                .topology(TopologyFamily::Cycle)
                .topo_seed(1)
                .run(&mut rng);
            assert!(result.stabilized());
            means[slot] += result.interactions as f64;
        }
        means[slot] /= reps as f64;
    }
    let rel = (means[0] - means[1]).abs() / means[0];
    assert!(
        rel < 0.12,
        "interaction clocks diverge: agent {} vs graph {}",
        means[0],
        means[1]
    );
}

/// Reference for `agent`'s stop clock on a graph: whether no edge of
/// `graph` can change a state, from explicit per-agent states. This and
/// [`reference_agent_graph_drive`] are the dedicated agent-on-graph driver
/// `RunSpec` used before `AgentSimulator` certified graph silence itself.
fn reference_graph_silent(
    proto: &UndecidedStateDynamics,
    graph: &pop_proto::Graph,
    states: &[usize],
) -> bool {
    use pop_proto::Protocol;
    graph.edges().all(|(a, b)| {
        let (sa, sb) = (states[a as usize], states[b as usize]);
        proto.is_noop(sa, sb) && proto.is_noop(sb, sa)
    })
}

/// The `~max(4n, 2¹⁶)`-chunked drive with the O(m) edge scan interleaved
/// at every chunk boundary (no observer).
fn reference_agent_graph_drive(
    sim: &mut pop_proto::AgentSimulator<UndecidedStateDynamics, pop_proto::GraphScheduler>,
    k: usize,
    rng: &mut SimRng,
    budget: u64,
    initial_plurality: Option<usize>,
    mut ticker: Option<&mut dyn usd_core::backend::RunTicker>,
) -> StabilizationResult {
    use pop_proto::Simulator;
    let chunk = (4 * Simulator::population(sim)).max(1 << 16);
    let (interactions, stabilized) = loop {
        let done = Simulator::interactions(sim);
        if Simulator::is_silent(sim)
            || reference_graph_silent(sim.protocol(), sim.scheduler().graph(), sim.states())
        {
            break (done, true);
        }
        if done >= budget {
            break (done, false);
        }
        let horizon = ticker.as_deref().map_or(u64::MAX, |t| t.horizon(done));
        let step = chunk.min(budget - done).min(horizon).max(1);
        sim.run_to_silence(rng, step);
        if let Some(t) = ticker.as_deref_mut() {
            t.tick(sim);
        }
    };
    usd_core::backend::classify_counts(
        Simulator::counts(sim),
        k,
        interactions,
        stabilized,
        initial_plurality,
    )
}

/// `RunSpec` drives `agent` on a graph through the chunked loop every
/// engine shares, trusting the engine's own frozen-graph silence. It must
/// stop exactly where the dedicated edge-scan driver above stops, seed by
/// seed: the same result (outcome and clock) and the same final counts.
/// The instances are disconnected (`er:0.8`, `er:1.5`, which freeze mixed)
/// and connected (`regular:8`, `torus`) graphs at n = 600 on the CLI's
/// default topology seed, each driven with and without a ticker that cuts
/// chunks to 5,000 interactions. The budget of 2²² interactions bounds
/// the heavy-tailed `er:1.5` freezes (a few seeds run past 10⁷), so the
/// pin covers the budget stop as well as freezes and consensus.
#[test]
fn agent_graph_stop_clocks_match_the_edge_scan_driver() {
    use pop_proto::simulator::shuffled_layout;
    use pop_proto::{AgentSimulator, GraphScheduler, Simulator};
    use usd_core::backend::RunTicker;

    struct Every5000;
    impl RunTicker for Every5000 {
        fn horizon(&self, _scheduled: u64) -> u64 {
            5_000
        }
        fn tick(&mut self, _sim: &dyn Simulator) {}
    }
    const BUDGET: u64 = 1 << 22;
    let mut frozen = 0;
    for family in [
        TopologyFamily::ErdosRenyi { avg_degree: 0.8 },
        TopologyFamily::ErdosRenyi { avg_degree: 1.5 },
        TopologyFamily::Regular { d: 8 },
        TopologyFamily::Torus,
    ] {
        let n = family.snap_n(600);
        let config = InitialConfigBuilder::new(n as u64, 2).figure1();
        for seed in 1..=20 {
            for ticked in [false, true] {
                let what = format!("{family} seed {seed} ticked {ticked}");
                let mut rng = SimRng::new(seed);
                let mut ticker = Every5000;
                let spec = RunSpec::new(&config)
                    .backend(Backend::Agent)
                    .topology(family)
                    .topo_seed(7)
                    .budget(BUDGET);
                let spec = if ticked {
                    spec.ticker(&mut ticker)
                } else {
                    spec
                };
                let (result, sim) = spec.run_keeping(&mut rng);
                let sim = sim.expect("the pinned instances have edges");

                let mut rng = SimRng::new(seed);
                let states = shuffled_layout(&config.to_count_config(), &mut rng);
                let mut reference = AgentSimulator::new(
                    UndecidedStateDynamics::new(2),
                    GraphScheduler::new(family.build(n, 7)),
                    states,
                );
                let mut ticker = Every5000;
                let expected = reference_agent_graph_drive(
                    &mut reference,
                    2,
                    &mut rng,
                    BUDGET,
                    config.plurality(),
                    ticked.then_some(&mut ticker as &mut dyn RunTicker),
                );
                assert_eq!(result, expected, "{what}");
                assert_eq!(sim.counts(), Simulator::counts(&reference), "{what}");
                frozen += u32::from(result.outcome == ConsensusOutcome::Frozen);
            }
        }
    }
    assert!(frozen > 0, "no pinned run froze in a mixed configuration");
}

/// The engine under test on `graph`, started from per-agent `states`
/// (`replica` runs three lanes whose layouts are rotations of `states`).
fn lattice_engine(
    backend: Backend,
    graph: &pop_proto::Graph,
    states: &[usize],
) -> Box<dyn pop_proto::Simulator> {
    use pop_proto::{AgentSimulator, BatchGraphSimulator, GraphScheduler, ReplicaSimulator};
    let proto = UndecidedStateDynamics::new(2);
    let states = states.to_vec();
    match backend {
        Backend::Agent => Box::new(AgentSimulator::new(
            proto,
            GraphScheduler::new(graph.clone()),
            states,
        )),
        Backend::Graph => Box::new(BatchGraphSimulator::new(proto, graph, states).per_event()),
        Backend::BatchGraph => Box::new(BatchGraphSimulator::new(proto, graph, states)),
        Backend::Replica => {
            let layouts: Vec<Vec<usize>> = (0..3)
                .map(|lane| {
                    let mut layout = states.clone();
                    layout.rotate_left(lane * 17);
                    layout
                })
                .collect();
            Box::new(ReplicaSimulator::new_graph(proto, graph.clone(), &layouts))
        }
        other => unreachable!("{other} does not run on graphs"),
    }
}

fn snapshot_bytes(sim: &dyn pop_proto::Simulator) -> Vec<u8> {
    let mut w = pop_proto::SnapshotWriter::new();
    sim.snapshot_state(&mut w).expect("snapshot_state failed");
    w.into_bytes()
}

/// Drive `sim` in `chunk`-interaction calls up to the absolute clock
/// `target` (or silence), stopping early at the first chunk boundary where
/// `pause` holds. Chunk boundaries are a pure function of the clock, so a
/// run resumed from a paused one meets the same boundaries.
fn drive_chunks(
    sim: &mut dyn pop_proto::Simulator,
    rng: &mut SimRng,
    target: u64,
    chunk: u64,
    pause: impl Fn(&dyn pop_proto::Simulator) -> bool,
) -> Vec<(u64, Vec<u64>)> {
    let mut path = Vec::new();
    while sim.interactions() < target && !sim.is_silent() {
        let step = chunk.min(target - sim.interactions());
        if sim.run_until(rng, step, &mut |_| false) == 0 {
            break;
        }
        path.push((sim.interactions(), sim.counts().to_vec()));
        if pause(&*sim) {
            break;
        }
    }
    path
}

/// Whether a graph engine's sparse skipper is live (entered more often
/// than exited).
fn skipper_live(sim: &dyn pop_proto::Simulator) -> bool {
    let t = sim.telemetry();
    t.sparse_enters > t.sparse_exits
}

/// The three lattice instances of the implicit-vs-stored pins: a shuffled
/// two-opinion torus (dense phase), a minority patch on a 64² torus (enters
/// the sparse skipper), and a two-front cycle (lives in the skipper).
fn lattice_instances() -> Vec<(&'static str, pop_proto::Graph, Vec<usize>)> {
    use pop_proto::simulator::shuffled_layout;
    use pop_proto::CountConfig;
    let shuffled = shuffled_layout(
        &CountConfig::from_counts(vec![1_100, 925, 0]),
        &mut SimRng::new(45),
    );
    let mut patch = vec![0usize; 64 * 64];
    for row in patch.chunks_mut(64).take(8) {
        row[..8].fill(1);
    }
    let mut fronts = vec![0usize; 4_096];
    fronts[..2_048].fill(1);
    vec![
        (
            "shuffled torus 45x45",
            pop_proto::Graph::torus(45),
            shuffled,
        ),
        (
            "torus 64x64 with an 8x8 patch",
            pop_proto::Graph::torus(64),
            patch,
        ),
        (
            "cycle 4096 with two fronts",
            pop_proto::Graph::cycle(4_096),
            fronts,
        ),
    ]
}

/// The implicit torus and cycle compute edge endpoints and incident lists
/// from the index, numbered exactly like the stored generators. Every graph
/// engine must therefore run the same trajectory on an implicit graph and
/// on its stored `Graph::from_edges` copy: identical clocks, counts at every
/// chunk boundary, telemetry, and final snapshot bytes. A snapshot taken
/// from the stored-graph engine while its sparse skipper is live must also
/// resume on the implicit graph to a byte-identical finish, and a snapshot
/// taken under one policy of the graph engine (`graph`, `batchgraph`)
/// while its skipper is live must finish with the same clocks and counts
/// under the other.
#[test]
fn implicit_vs_explicit_lattice_bit_identical() {
    const BUDGET: u64 = 1_500_000;
    const CHUNK: u64 = 10_000;
    let engines = [
        Backend::Agent,
        Backend::Graph,
        Backend::BatchGraph,
        Backend::Replica,
    ];
    for (label, implicit, states) in lattice_instances() {
        let stored = pop_proto::Graph::from_edges(implicit.n(), implicit.edges().collect());
        assert!(implicit.is_implicit() && !stored.is_implicit());
        for backend in engines {
            let seed = 0x1A77 ^ backend as u64;
            let run = |graph: &pop_proto::Graph| {
                let mut sim = lattice_engine(backend, graph, &states);
                let mut rng = SimRng::new(seed);
                let path = drive_chunks(sim.as_mut(), &mut rng, BUDGET, CHUNK, |_| false);
                (path, *sim.telemetry(), snapshot_bytes(sim.as_ref()))
            };
            let (path, telemetry, bytes) = run(&implicit);
            let (stored_path, stored_telemetry, stored_bytes) = run(&stored);
            let what = format!("{label}: {backend}");
            assert!(!path.is_empty(), "{what}: nothing ran");
            assert_eq!(path, stored_path, "{what}: clocks or counts diverged");
            assert_eq!(telemetry, stored_telemetry, "{what}: telemetry diverged");
            assert!(bytes == stored_bytes, "{what}: final snapshots differ");
            let has_skipper = matches!(backend, Backend::Graph | Backend::BatchGraph);
            if label.starts_with("torus 64") && has_skipper {
                assert!(
                    telemetry.sparse_enters > 0,
                    "{what}: never entered the skipper"
                );
            }
        }
    }

    // Cross-form resume: split the stored-graph run at the first chunk
    // boundary where its skipper is live, and finish it on the implicit
    // graph. Short chunks put the split well before the patch's end.
    const RESUME_CHUNK: u64 = 2_000;
    for (label, implicit, states) in lattice_instances().into_iter().skip(1) {
        let stored = pop_proto::Graph::from_edges(implicit.n(), implicit.edges().collect());
        for backend in [Backend::Graph, Backend::BatchGraph] {
            let seed = 0x5EED ^ backend as u64;
            let what = format!("{label}: {backend}");
            let mut reference = lattice_engine(backend, &implicit, &states);
            let mut rng = SimRng::new(seed);
            drive_chunks(reference.as_mut(), &mut rng, BUDGET, RESUME_CHUNK, |_| {
                false
            });

            let mut first = lattice_engine(backend, &stored, &states);
            let mut rng = SimRng::new(seed);
            drive_chunks(first.as_mut(), &mut rng, BUDGET, RESUME_CHUNK, skipper_live);
            assert!(
                skipper_live(first.as_ref()) && first.interactions() < reference.interactions(),
                "{what}: no split point with a live skipper before the run ended"
            );
            let bytes = snapshot_bytes(first.as_ref());
            let mut resumed = lattice_engine(backend, &implicit, &states);
            resumed
                .restore_state(&mut pop_proto::SnapshotReader::new(&bytes))
                .expect("restore across forms");
            drive_chunks(resumed.as_mut(), &mut rng, BUDGET, RESUME_CHUNK, |_| false);
            assert_eq!(resumed.interactions(), reference.interactions(), "{what}");
            assert!(
                snapshot_bytes(resumed.as_ref()) == snapshot_bytes(reference.as_ref()),
                "{what}: stored-to-implicit resume finished differently"
            );
        }
    }

    // Cross-policy resume: both policies write one payload, so a run split
    // while the skipper is live finishes identically under the other
    // policy, in both directions. (Telemetry differs by design: block
    // counters under one policy, dense steps under the other.)
    for (label, implicit, states) in lattice_instances().into_iter().skip(1) {
        for (from, to) in [
            (Backend::Graph, Backend::BatchGraph),
            (Backend::BatchGraph, Backend::Graph),
        ] {
            let seed = 0xC805 ^ from as u64;
            let what = format!("{label}: {from} resumed as {to}");
            let mut reference = lattice_engine(from, &implicit, &states);
            let mut rng = SimRng::new(seed);
            drive_chunks(reference.as_mut(), &mut rng, BUDGET, RESUME_CHUNK, |_| {
                false
            });

            let mut first = lattice_engine(from, &implicit, &states);
            let mut rng = SimRng::new(seed);
            drive_chunks(first.as_mut(), &mut rng, BUDGET, RESUME_CHUNK, skipper_live);
            assert!(
                skipper_live(first.as_ref()) && first.interactions() < reference.interactions(),
                "{what}: no split point with a live skipper before the run ended"
            );
            let bytes = snapshot_bytes(first.as_ref());
            let mut resumed = lattice_engine(to, &implicit, &states);
            resumed
                .restore_state(&mut pop_proto::SnapshotReader::new(&bytes))
                .expect("restore across policies");
            drive_chunks(resumed.as_mut(), &mut rng, BUDGET, RESUME_CHUNK, |_| false);
            assert_eq!(resumed.interactions(), reference.interactions(), "{what}");
            assert_eq!(
                resumed.effective_interactions(),
                reference.effective_interactions(),
                "{what}"
            );
            assert_eq!(resumed.counts(), reference.counts(), "{what}");
        }
    }
}
