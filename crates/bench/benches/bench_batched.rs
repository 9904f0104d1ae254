//! Backend throughput across population scales: agent vs count vs batch.
//!
//! Measures interactions per second on the same Figure-1 USD instance at
//! n ∈ {10⁴, 10⁶, 10⁸}. The agent and count backends pay O(1)–O(log k)
//! *per interaction*, so their throughput is flat in n; the batch backend
//! leaps ~√n interactions per O(k²) block, so its throughput *grows* with
//! n — the headline claim of the batched simulation engine. The agentwise
//! backend sits out n = 10⁸ (it would allocate 8 × 10⁸ bytes of per-agent
//! state for a throughput number that is flat in n anyway).
//!
//! Each measured iteration simulates a fixed slice of interactions from a
//! fresh instance (well short of stabilization, so the workload is the
//! same mixing-phase dynamics on every backend).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pop_proto::{AgentSimulator, BatchSimulator, CliqueScheduler, CountSimulator, Simulator};
use sim_stats::rng::SimRng;
use std::hint::black_box;
use usd_bench::bench_config;
use usd_core::protocol::UndecidedStateDynamics;
use usd_core::UsdConfig;

const K: usize = 2;

/// Interactions to simulate per measured iteration, scaled so small-n
/// cells stay sub-second on the slow backends and comfortably short of
/// stabilization (~20n interactions for this instance family).
fn workload(n: u64) -> u64 {
    (n * 5).min(20_000_000)
}

/// Drive a backend through `target` interactions via the trait. Stops at
/// silence instead of letting the batch backend free-charge the remaining
/// horizon as no-ops (which would inflate its throughput cell relative to
/// the backends that honestly step them); the workloads below are sized to
/// stay short of stabilization, so this is a guard, not the common path.
fn drive<S: Simulator>(mut sim: S, rng: &mut SimRng, target: u64) -> u64 {
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

fn backend_bench(c: &mut Criterion, name: &str, n: u64, config: &UsdConfig) {
    let mut group = c.benchmark_group("backend_throughput");
    let target = workload(n);
    group.throughput(Throughput::Elements(target));

    if n <= 1_000_000 {
        group.bench_with_input(BenchmarkId::new("agent", name), config, |b, config| {
            b.iter(|| {
                let sim = AgentSimulator::from_config(
                    UndecidedStateDynamics::new(K),
                    CliqueScheduler::new(n as usize),
                    &config.to_count_config(),
                );
                black_box(drive(sim, &mut SimRng::new(1), target))
            })
        });
    }

    group.bench_with_input(BenchmarkId::new("count", name), config, |b, config| {
        b.iter(|| {
            let sim =
                CountSimulator::new(UndecidedStateDynamics::new(K), &config.to_count_config());
            black_box(drive(sim, &mut SimRng::new(2), target))
        })
    });

    group.bench_with_input(BenchmarkId::new("batch", name), config, |b, config| {
        b.iter(|| {
            let sim =
                BatchSimulator::new(UndecidedStateDynamics::new(K), &config.to_count_config());
            black_box(drive(sim, &mut SimRng::new(3), target))
        })
    });

    group.finish();
}

fn bench_backends(c: &mut Criterion) {
    for n in [10_000u64, 1_000_000, 100_000_000] {
        let config = bench_config(n, K);
        backend_bench(c, &format!("n1e{}", (n as f64).log10() as u32), n, &config);
    }
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
