//! Baseline-protocol throughput: what one synchronous round (Gossip
//! models) or a fixed block of interactions (PP models) costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pop_proto::{CountConfig, CountSimulator, Simulator};
use sim_stats::rng::SimRng;
use std::hint::black_box;
use usd_baselines::{FourStateMajority, GossipUsd, SynchronizedUsd, ThreeMajority, VoterDynamics};
use usd_bench::bench_config;

const INTERACTIONS: u64 = 100_000;
const ROUNDS: u64 = 10;

fn bench_pp_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_pp_interactions");
    group.throughput(Throughput::Elements(INTERACTIONS));
    let n = 10_000u64;

    group.bench_function(BenchmarkId::new("four_state", n), |b| {
        b.iter(|| {
            let init = CountConfig::from_counts(vec![n / 2 + 100, n / 2 - 100, 0, 0]);
            let mut sim = CountSimulator::new(FourStateMajority, &init);
            let mut rng = SimRng::new(1);
            for _ in 0..INTERACTIONS {
                sim.step(&mut rng);
            }
            black_box(sim.counts()[0])
        })
    });

    group.bench_function(BenchmarkId::new("voter", n), |b| {
        b.iter(|| {
            let init = CountConfig::from_counts(vec![n / 2, n / 2]);
            let mut sim = CountSimulator::new(VoterDynamics::new(2), &init);
            let mut rng = SimRng::new(1);
            for _ in 0..INTERACTIONS {
                sim.step(&mut rng);
            }
            black_box(sim.counts()[0])
        })
    });
    group.finish();
}

fn bench_gossip_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_gossip_rounds");
    let n = 10_000u64;
    let k = 8usize;
    let config = bench_config(n, k);
    group.throughput(Throughput::Elements(ROUNDS * n));

    group.bench_function(BenchmarkId::new("gossip_usd", format!("n{n}_k{k}")), |b| {
        b.iter(|| {
            let mut sim = GossipUsd::new(&config);
            let mut rng = SimRng::new(1);
            for _ in 0..ROUNDS {
                sim.round(&mut rng);
            }
            black_box(sim.config().u())
        })
    });

    group.bench_function(
        BenchmarkId::new("three_majority", format!("n{n}_k{k}")),
        |b| {
            b.iter(|| {
                let mut sim = ThreeMajority::new(&config);
                let mut rng = SimRng::new(1);
                for _ in 0..ROUNDS {
                    sim.round(&mut rng);
                }
                black_box(sim.config().x(0))
            })
        },
    );

    group.bench_function(
        BenchmarkId::new("synchronized_usd", format!("n{n}_k{k}")),
        |b| {
            b.iter(|| {
                let mut sim = SynchronizedUsd::new(&config);
                let mut rng = SimRng::new(1);
                for _ in 0..ROUNDS {
                    sim.round(&mut rng);
                }
                black_box(sim.config().u())
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_pp_baselines, bench_gossip_baselines);
criterion_main!(benches);
