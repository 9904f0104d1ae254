//! The exact USD clique engines — agentwise, countwise, batch-leaping,
//! and the active-edge graph engine on the complete graph — simulate the
//! same Markov chain. These tests compare their
//! *distributions* (fixed seeds, generous tolerances; no flaky
//! assertions), including two-sample Kolmogorov–Smirnov equivalence of the
//! batch backend's stabilization-time law against the countwise reference.

use plurality_consensus::prelude::*;
use pop_proto::{
    AgentSimulator, BatchSimulator, CliqueScheduler, CountSimulator, OneWayEpidemic, Simulator,
};
use sim_stats::ks::{ks_critical_value, ks_statistic};

fn usd_silent_counts(counts: &[u64], k: usize) -> bool {
    let n: u64 = counts.iter().sum();
    counts[k] == n || (counts[k] == 0 && counts[..k].iter().filter(|&&c| c > 0).count() <= 1)
}

/// Mean stabilization interactions for each engine on the same instance.
fn engine_means(n: u64, k: usize, reps: u64) -> [f64; 4] {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut means = [0.0f64; 4];

    for seed in 0..reps {
        // Engine 0: per-agent simulation (the literal model).
        {
            let proto = UndecidedStateDynamics::new(k);
            let mut sim = AgentSimulator::from_config(
                proto,
                CliqueScheduler::new(n as usize),
                &config.to_count_config(),
            );
            let mut rng = SimRng::new(seed * 4);
            while !usd_silent_counts(sim.counts(), k) {
                sim.step(&mut rng);
            }
            means[0] += sim.interactions() as f64;
        }
        // Engine 1: generic count simulator.
        {
            let proto = UndecidedStateDynamics::new(k);
            let mut sim = CountSimulator::new(proto, &config.to_count_config());
            let mut rng = SimRng::new(seed * 4 + 1);
            sim.run_until(&mut rng, u64::MAX / 2, &mut |c| usd_silent_counts(c, k));
            means[1] += sim.interactions() as f64;
        }
        // Engines 2 and 3: the batch-leaping engine and the graph engine
        // on the complete graph, through `RunSpec`.
        for (slot, backend) in [(2, Backend::Batch), (3, Backend::Graph)] {
            let mut rng = SimRng::new(seed * 4 + slot as u64);
            let r = RunSpec::new(&config).backend(backend).run(&mut rng);
            assert!(r.stabilized());
            means[slot] += r.interactions as f64;
        }
    }
    for m in &mut means {
        *m /= reps as f64;
    }
    means
}

#[test]
fn all_four_engines_agree_on_mean_stabilization_time() {
    let means = engine_means(400, 3, 120);
    let max = means.iter().cloned().fold(f64::MIN, f64::max);
    let min = means.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        (max - min) / max < 0.12,
        "engines diverge beyond tolerance: {means:?}"
    );
}

#[test]
fn engines_agree_on_winner_distribution() {
    // With a strong bias every engine must elect the plurality at
    // essentially the same (high) rate.
    let n = 500u64;
    let k = 3usize;
    let config = InitialConfigBuilder::new(n, k).figure1();
    let reps = 60u64;

    let mut wins = [0u64; 2];
    for seed in 0..reps {
        for (slot, backend, offset) in [(0, Backend::Agent, 0), (1, Backend::Count, 1_000_000)] {
            let mut rng = SimRng::new(seed + offset);
            let r = RunSpec::new(&config).backend(backend).run(&mut rng);
            if r.plurality_won() {
                wins[slot] += 1;
            }
        }
    }
    let rate0 = wins[0] as f64 / reps as f64;
    let rate1 = wins[1] as f64 / reps as f64;
    assert!(rate0 > 0.8, "agent win rate {rate0}");
    assert!(rate1 > 0.8, "count win rate {rate1}");
    assert!((rate0 - rate1).abs() < 0.15, "{rate0} vs {rate1}");
}

/// Stabilization-time samples (in interactions) for a generic-substrate
/// simulator on the USD instance `(n, k)` with the Figure-1 bias.
fn usd_stabilization_samples<S, F>(n: u64, k: usize, reps: u64, seed_base: u64, make: F) -> Vec<f64>
where
    S: Simulator,
    F: Fn(&pop_proto::CountConfig) -> S,
{
    let config = InitialConfigBuilder::new(n, k).figure1().to_count_config();
    (0..reps)
        .map(|seed| {
            let mut sim = make(&config);
            let mut rng = SimRng::new(seed_base + seed);
            let (t, stable) = sim.run_to_silence(&mut rng, u64::MAX / 2);
            assert!(stable, "run {seed} did not stabilize");
            t as f64
        })
        .collect()
}

/// KS-equivalence of the batch backend against the countwise reference on
/// the USD stabilization-time distribution, k ∈ {2, 3, 20}, n = 10⁴,
/// α = 0.01, 200 runs per backend — the batch simulator's headline
/// correctness criterion. At k = 2 and 3 most batches take the
/// hypergeometric pairing table; at k = 20 every batch is short next to
/// the 21² state pairs and is drawn agent by agent in schedule order.
#[test]
fn batch_vs_count_usd_stabilization_ks() {
    let n = 10_000u64;
    let reps = 200u64;
    for k in [2usize, 3, 20] {
        let count = usd_stabilization_samples(n, k, reps, 10_000, |cfg| {
            CountSimulator::new(UndecidedStateDynamics::new(k), cfg)
        });
        let batch = usd_stabilization_samples(n, k, reps, 20_000, |cfg| {
            BatchSimulator::new(UndecidedStateDynamics::new(k), cfg)
        });
        let d = ks_statistic(&count, &batch);
        let crit = ks_critical_value(count.len(), batch.len(), 0.01);
        assert!(
            d < crit,
            "k={k}: batch vs count stabilization-time KS {d:.4} >= critical {crit:.4}"
        );
    }
}

/// Same KS criterion on the one-way epidemic (monotone pure-birth chain):
/// completion-time distributions of batch and count backends agree.
#[test]
fn batch_vs_count_epidemic_completion_ks() {
    let n = 10_000u64;
    let reps = 200u64;
    let config = pop_proto::CountConfig::from_counts(vec![1, n - 1]);
    let sample = |seed_base: u64, batch: bool| -> Vec<f64> {
        (0..reps)
            .map(|seed| {
                let mut rng = SimRng::new(seed_base + seed);
                let (t, stable) = if batch {
                    let mut sim = BatchSimulator::new(OneWayEpidemic, &config);
                    sim.run_to_silence(&mut rng, u64::MAX / 2)
                } else {
                    let mut sim = CountSimulator::new(OneWayEpidemic, &config);
                    sim.run_to_silence(&mut rng, u64::MAX / 2)
                };
                assert!(stable);
                t as f64
            })
            .collect()
    };
    let count = sample(40_000, false);
    let batch = sample(50_000, true);
    let d = ks_statistic(&count, &batch);
    let crit = ks_critical_value(count.len(), batch.len(), 0.01);
    assert!(
        d < crit,
        "epidemic completion-time KS {d:.4} >= critical {crit:.4}"
    );
}

/// The batch backend's winner distribution matches the reference under a
/// strong initial bias.
#[test]
fn batch_elects_plurality_at_reference_rate() {
    let n = 2_000u64;
    let k = 3usize;
    let reps = 80u64;
    let mut wins = 0u64;
    for seed in 0..reps {
        let config = InitialConfigBuilder::new(n, k).figure1();
        let mut rng = SimRng::new(seed + 3_000_000);
        let result = usd_core::RunSpec::new(&config)
            .backend(usd_core::Backend::Batch)
            .run(&mut rng);
        assert!(result.stabilized());
        if result.plurality_won() {
            wins += 1;
        }
    }
    let rate = wins as f64 / reps as f64;
    assert!(rate > 0.8, "batch win rate {rate}");
}

/// Run the batch engine on a k = 20 figure-1 instance at each worker-thread
/// cap in {1, 2, 8} for `budget` interactions, through the flag-facing
/// `RunSpec::threads` setter, assert the runs are bit-identical, and
/// return the telemetry they share.
fn batch_runs_across_thread_counts(n: u64, budget: u64) -> pop_proto::EngineTelemetry {
    let k = 20usize;
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let (_, sim) = RunSpec::new(&config)
            .backend(Backend::Batch)
            .threads(threads)
            .budget(budget)
            .run_keeping(&mut SimRng::new(42));
        let sim = sim.expect("a clique run keeps its engine");
        runs.push((
            sim.counts().to_vec(),
            sim.interactions(),
            sim.effective_interactions(),
            *sim.telemetry(),
        ));
        assert!(runs[0].2 > 0, "no effective interactions simulated");
    }
    assert_eq!(runs[0], runs[1], "threads=2 diverged from threads=1");
    assert_eq!(runs[0], runs[2], "threads=8 diverged from threads=1");
    runs[0].3
}

/// The batch engine's per-batch pairing is bit-neutral in the worker-thread
/// cap: identical trajectories for any thread count. Which sampler draws a
/// batch — the schedule-order agent draws for short batches, the
/// position-derived tree-stream table (k ≥ 16) for long ones — depends
/// only on the batch, never on the thread count. At n = 2·10⁵ every batch
/// is short next to the 21² state pairs, so this leg pins the short path:
/// no hypergeometric draw at all.
#[test]
fn batch_pairing_rows_bit_identical_across_thread_counts() {
    let t = batch_runs_across_thread_counts(200_000, 30_000_000);
    assert!(t.blocks > 0);
    assert_eq!(t.table_draws, 0, "a batch left the short path");
}

/// The same bit-identity where the crossover picks the table: at n = 4·10⁸
/// collision horizons (median ≈ 11 800 interactions) lie far above the
/// crossover 2L = 8·21², so batches take the tree-stream rows, and most
/// are large enough that the rows fan out over the worker pool when
/// threads are offered.
#[test]
fn batch_tree_table_rows_bit_identical_across_thread_counts() {
    let t = batch_runs_across_thread_counts(400_000_000, 2_000_000);
    assert!(t.blocks > 0);
    assert!(
        t.table_draws > 2 * t.blocks,
        "{} table draws over {} batches: the tree path never ran",
        t.table_draws,
        t.blocks
    );
}
