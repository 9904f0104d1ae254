//! Cost of one E6 sweep cell: stabilization from the maximum-admissible-
//! bias family, across k — how the lower bound's Θ(k log(·)) shows up as
//! wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, SamplingMode};
use sim_stats::rng::SimRng;
use std::hint::black_box;
use usd_core::init::InitialConfigBuilder;
use usd_core::RunSpec;

fn bench_stabilization(c: &mut Criterion) {
    let mut group = c.benchmark_group("stabilization_sweep_cell");
    group.sampling_mode(SamplingMode::Flat);
    group.sample_size(10);
    let n = 10_000u64;
    for &k in &[4usize, 8, 16] {
        let config = InitialConfigBuilder::new(n, k).max_admissible_bias();
        group.bench_with_input(
            BenchmarkId::new("max_admissible_bias", format!("n{n}_k{k}")),
            &config,
            |b, config| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut rng = SimRng::new(seed);
                    let budget = (40.0 * k as f64 * n as f64 * (n as f64).ln()) as u64;
                    let result = RunSpec::new(config).budget(budget).run(&mut rng);
                    assert!(result.stabilized());
                    black_box(result.interactions)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stabilization);
criterion_main!(benches);
