//! Property-based tests for the population-protocol substrate.
//!
//! The central property: for any protocol (here: arbitrary random transition
//! tables) and any initial configuration, both simulators conserve the
//! population and agree with each other on reachable support, and the
//! Fenwick sampler agrees with a linear scan on arbitrary weight vectors.

use pop_proto::{
    AgentSimulator, CliqueScheduler, CountConfig, CountSimulator, Protocol, Simulator,
};
use proptest::prelude::*;
use sim_stats::rng::SimRng;

/// A protocol defined by an arbitrary transition table over `m` states —
/// proptest generates the table, giving us "for all protocols" coverage.
#[derive(Debug, Clone)]
struct TableProtocol {
    m: usize,
    /// table[a * m + b] = (a', b')
    table: Vec<(usize, usize)>,
}

impl Protocol for TableProtocol {
    type State = usize;
    type Output = usize;

    fn num_states(&self) -> usize {
        self.m
    }
    fn index_of(&self, s: usize) -> usize {
        s
    }
    fn state_of(&self, i: usize) -> usize {
        assert!(i < self.m);
        i
    }
    fn transition(&self, a: usize, b: usize) -> (usize, usize) {
        self.table[a * self.m + b]
    }
    fn output(&self, s: usize) -> usize {
        s
    }
}

fn table_protocol(m: usize) -> impl Strategy<Value = TableProtocol> {
    proptest::collection::vec((0..m, 0..m), m * m).prop_map(move |table| TableProtocol { m, table })
}

fn config_counts(m: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..30, m)
        .prop_filter("need n >= 2", |c| c.iter().sum::<u64>() >= 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both simulators conserve the population under any protocol.
    #[test]
    fn simulators_conserve_population(
        (proto, counts) in (2usize..5).prop_flat_map(|m| (table_protocol(m), config_counts(m))),
        seed in any::<u64>(),
    ) {
        let n: u64 = counts.iter().sum();
        let cfg = CountConfig::from_counts(counts);

        let mut count_sim = CountSimulator::new(proto.clone(), &cfg);
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            count_sim.step(&mut rng);
            prop_assert_eq!(count_sim.counts().iter().sum::<u64>(), n);
        }

        let mut agent_sim = AgentSimulator::from_config(
            proto,
            CliqueScheduler::new(n as usize),
            &cfg,
        );
        let mut rng2 = SimRng::new(seed ^ 0xABCD);
        for _ in 0..200 {
            agent_sim.step(&mut rng2);
            prop_assert_eq!(agent_sim.counts().iter().sum::<u64>(), n);
        }
        // Derived counts always match the per-agent ground truth.
        let mut derived = vec![0u64; agent_sim.protocol().num_states()];
        for &s in agent_sim.states() {
            derived[s] += 1;
        }
        prop_assert_eq!(derived.as_slice(), agent_sim.counts());
    }

    /// A silent configuration stays fixed forever in both simulators.
    #[test]
    fn silent_configurations_are_fixed_points(
        (proto, counts) in (2usize..5).prop_flat_map(|m| (table_protocol(m), config_counts(m))),
        seed in any::<u64>(),
    ) {
        let cfg = CountConfig::from_counts(counts);
        if !proto.is_silent(cfg.counts()) {
            return Ok(());
        }
        let before = cfg.counts().to_vec();
        let mut sim = CountSimulator::new(proto, &cfg);
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let changed = sim.step(&mut rng);
            prop_assert!(!changed);
        }
        prop_assert_eq!(sim.counts(), before.as_slice());
        prop_assert_eq!(sim.effective_interactions(), 0);
    }

    /// Fenwick `find` agrees with a linear prefix-sum scan on any weights.
    #[test]
    fn fenwick_find_matches_linear(
        weights in proptest::collection::vec(0u64..100, 1..40),
    ) {
        use pop_proto::FenwickSampler;
        let total: u64 = weights.iter().sum();
        prop_assume!(total > 0);
        let f = FenwickSampler::new(&weights);
        // Check every boundary target plus interior points.
        let mut acc = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            if w == 0 { continue; }
            prop_assert_eq!(f.find(acc), i, "first target of category {}", i);
            prop_assert_eq!(f.find(acc + w - 1), i, "last target of category {}", i);
            acc += w;
        }
    }

    /// Fenwick updates keep totals and `find` consistent.
    #[test]
    fn fenwick_updates_consistent(
        weights in proptest::collection::vec(1u64..50, 2..20),
        updates in proptest::collection::vec((0usize..20, 0u64..60), 1..30),
    ) {
        use pop_proto::FenwickSampler;
        let mut f = FenwickSampler::new(&weights);
        let mut reference = weights.clone();
        for (i, w) in updates {
            let i = i % reference.len();
            f.set(i, w);
            reference[i] = w;
        }
        prop_assert_eq!(f.total(), reference.iter().sum::<u64>());
        prop_assert_eq!(f.weights(), reference.as_slice());
        if f.total() > 0 {
            let mut acc = 0u64;
            for (i, &w) in reference.iter().enumerate() {
                if w == 0 { continue; }
                prop_assert_eq!(f.find(acc), i);
                acc += w;
            }
        }
    }

    /// The output tally of a configuration partitions the population.
    #[test]
    fn output_tally_partitions(
        (proto, counts) in (2usize..5).prop_flat_map(|m| (table_protocol(m), config_counts(m))),
    ) {
        let cfg = CountConfig::from_counts(counts);
        let tally = cfg.output_tally(&proto);
        let total: u64 = tally.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, cfg.n());
    }

    /// Every topology family builds a simple graph with the promised
    /// degree structure: no self-loops, no multi-edges, handshake identity
    /// (Σ deg = 2m), exact degrees for the structured families and the
    /// configuration model, and deterministic seeded construction.
    #[test]
    fn topology_families_build_simple_graphs(
        n in 8usize..120,
        d in 2usize..6,
        seed in any::<u64>(),
    ) {
        use pop_proto::TopologyFamily;
        use std::collections::HashSet;
        let families = [
            TopologyFamily::Complete,
            TopologyFamily::Cycle,
            TopologyFamily::Torus,
            TopologyFamily::Hypercube,
            TopologyFamily::Regular { d },
            TopologyFamily::ErdosRenyi { avg_degree: d as f64 },
        ];
        for fam in families {
            let n = fam.snap_n(n);
            let g = fam.build(n, seed);
            prop_assert_eq!(g.n(), n, "{} changed n", fam);

            // Simplicity: no self-loops, no multi-edges.
            let mut seen = HashSet::new();
            for (a, b) in g.edges() {
                prop_assert_ne!(a, b, "{}: self-loop", fam);
                let key = ((a.min(b) as u64) << 32) | a.max(b) as u64;
                prop_assert!(seen.insert(key), "{}: duplicate edge ({},{})", fam, a, b);
            }

            // Handshake: Σ deg = 2m.
            let degrees = g.degrees();
            prop_assert_eq!(
                degrees.iter().sum::<usize>(),
                2 * g.num_edges(),
                "{}: handshake sum broken", fam
            );

            // Exact degree sequences where the family promises one.
            match fam {
                TopologyFamily::Complete =>
                    prop_assert!(degrees.iter().all(|&x| x == n - 1)),
                TopologyFamily::Cycle =>
                    prop_assert!(degrees.iter().all(|&x| x == 2)),
                TopologyFamily::Torus =>
                    prop_assert!(degrees.iter().all(|&x| x == 4)),
                TopologyFamily::Hypercube => {
                    let dim = n.trailing_zeros() as usize;
                    prop_assert!(degrees.iter().all(|&x| x == dim));
                }
                TopologyFamily::Regular { d } =>
                    prop_assert!(degrees.iter().all(|&x| x == d), "{}: not {}-regular", fam, d),
                TopologyFamily::ErdosRenyi { .. } => {}
            }

            // Seeded determinism.
            prop_assert_eq!(g, fam.build(n, seed), "{} not deterministic", fam);
        }
    }

    /// The graph engine under its per-event policy (the `graph` backend)
    /// conserves the population and keeps its silence flag consistent
    /// under arbitrary protocols on arbitrary sparse random graphs (both
    /// the dense stepping and, via tiny populations with frozen stretches,
    /// the sparse escalation path).
    #[test]
    fn graphwise_conserves_population_on_random_graphs(
        (proto, counts) in (2usize..5).prop_flat_map(|m| (table_protocol(m), config_counts(m))),
        seed in any::<u64>(),
    ) {
        use pop_proto::simulator::shuffled_layout;
        use pop_proto::{BatchGraphSimulator, TopologyFamily};
        let n: u64 = counts.iter().sum();
        let cfg = CountConfig::from_counts(counts);
        let fam = TopologyFamily::Cycle;
        let graph = fam.build(fam.snap_n(n as usize), 1);
        prop_assume!(graph.n() as u64 == n);
        let mut rng = SimRng::new(seed);
        let states = shuffled_layout(&cfg, &mut rng);
        let mut sim = BatchGraphSimulator::new(proto, &graph, states).per_event();
        for _ in 0..100 {
            let before = sim.interactions();
            let (advanced, _) = sim.advance_changed(&mut rng, 50);
            // The clock only stalls once silence is certified (advance
            // returns 0 and the silence flag is exact from then on).
            if advanced == 0 {
                prop_assert!(sim.is_silent());
                prop_assert_eq!(sim.interactions(), before);
            } else {
                prop_assert!(sim.interactions() > before);
            }
            prop_assert_eq!(sim.counts().iter().sum::<u64>(), n);
        }
        // active_weight and is_silent agree (sparse phase is exact; the
        // dense count criterion may under-report silence but never
        // over-report it).
        if sim.is_silent() {
            prop_assert_eq!(sim.active_weight(), 0);
        }
    }
}

/// Deterministic cross-simulator distributional check for the epidemic
/// protocol: mean completion interactions of the two simulators agree
/// within noise. (Exact per-step equality is not expected — they consume
/// randomness differently — but the induced chain is identical.)
#[test]
fn agentwise_and_countwise_epidemic_distributions_agree() {
    use pop_proto::OneWayEpidemic;
    let n = 100u64;
    let reps = 200;
    let mut agent_mean = 0.0;
    let mut count_mean = 0.0;
    for seed in 0..reps {
        let cfg = CountConfig::from_counts(vec![1, n - 1]);
        let mut a =
            AgentSimulator::from_config(OneWayEpidemic, CliqueScheduler::new(n as usize), &cfg);
        let mut rng = SimRng::new(seed);
        a.run_until(&mut rng, 10_000_000, &mut |counts| counts[1] == 0);
        agent_mean += a.interactions() as f64;

        let mut c = CountSimulator::new(OneWayEpidemic, &cfg);
        let mut rng = SimRng::new(seed + 10_000);
        c.run_until(&mut rng, 10_000_000, &mut |counts| counts[1] == 0);
        count_mean += c.interactions() as f64;
    }
    agent_mean /= reps as f64;
    count_mean /= reps as f64;
    let rel = (agent_mean - count_mean).abs() / agent_mean;
    assert!(
        rel < 0.08,
        "distribution mismatch: agent {agent_mean} vs count {count_mean} (rel {rel})"
    );
}
