//! Categorical-sampling structures: Fenwick vs linear scan vs alias table.
//!
//! The simulation hot path samples from mutating count distributions, so
//! the Fenwick tree's O(log k) update+sample is the design point; the
//! alias table (O(1) sample, O(k) rebuild) only wins for static
//! distributions — exactly the crossover this bench shows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pop_proto::{AliasTable, FenwickSampler};
use sim_stats::multinomial::{
    categorical_index, hypergeometric_pairing_table, multivariate_hypergeometric,
    multivariate_hypergeometric_streams, ScheduleSampler,
};
use sim_stats::rng::SimRng;
use std::hint::black_box;

const SAMPLES: u64 = 100_000;

fn weights(k: usize) -> Vec<u64> {
    (0..k).map(|i| 1 + (i as u64 * 37) % 100).collect()
}

fn bench_static_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("static_sampling");
    group.throughput(Throughput::Elements(SAMPLES));
    for &k in &[8usize, 64, 512] {
        let w = weights(k);
        group.bench_with_input(BenchmarkId::new("linear_scan", k), &w, |b, w| {
            b.iter(|| {
                let mut rng = SimRng::new(1);
                let mut acc = 0usize;
                for _ in 0..SAMPLES {
                    acc ^= categorical_index(&mut rng, w);
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("fenwick", k), &w, |b, w| {
            let f = FenwickSampler::new(w);
            b.iter(|| {
                let mut rng = SimRng::new(1);
                let mut acc = 0usize;
                for _ in 0..SAMPLES {
                    acc ^= f.sample(&mut rng);
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("alias", k), &w, |b, w| {
            let wf: Vec<f64> = w.iter().map(|&x| x as f64).collect();
            let t = AliasTable::new(&wf);
            b.iter(|| {
                let mut rng = SimRng::new(1);
                let mut acc = 0usize;
                for _ in 0..SAMPLES {
                    acc ^= t.sample(&mut rng);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_dynamic_sampling(c: &mut Criterion) {
    // The simulation workload: sample, then update the sampled weight.
    let mut group = c.benchmark_group("dynamic_sampling");
    group.throughput(Throughput::Elements(SAMPLES));
    for &k in &[8usize, 64, 512] {
        let w = weights(k);
        group.bench_with_input(BenchmarkId::new("fenwick_sample_update", k), &w, |b, w| {
            b.iter(|| {
                let mut f = FenwickSampler::new(w);
                let mut rng = SimRng::new(1);
                for _ in 0..SAMPLES {
                    let i = f.sample(&mut rng);
                    // Move one unit around the circle: the shape of a USD
                    // transition's bookkeeping.
                    f.add(i, -1);
                    f.add((i + 1) % f.len(), 1);
                }
                black_box(f.total())
            })
        });
        group.bench_with_input(BenchmarkId::new("alias_rebuild", k), &w, |b, w| {
            b.iter(|| {
                let mut wf: Vec<f64> = w.iter().map(|&x| x as f64).collect();
                let mut rng = SimRng::new(1);
                // Rebuilding per update is the honest alias-table cost in a
                // dynamic setting; cap iterations to keep the bench sane.
                for _ in 0..(SAMPLES / 100).max(1) {
                    let t = AliasTable::new(&wf);
                    let i = t.sample(&mut rng);
                    wf[i] += 1.0;
                }
                black_box(wf[0])
            })
        });
    }
    group.finish();
}

fn bench_hypergeometric_splits(c: &mut Criterion) {
    // The batch simulators' per-batch cost is dominated by multivariate
    // hypergeometric splits; k = 2 is the epidemic/voter case, 32 the USD
    // paper scale, 256 the blocked-walk regime (chunks of 32 categories
    // skipped whole when the draw misses them).
    let mut group = c.benchmark_group("hypergeometric_splits");
    const DRAWS_PER_CALL: u64 = 2_000;
    const CALLS: u64 = 2_000;
    group.throughput(Throughput::Elements(CALLS));
    for &k in &[2usize, 32, 256] {
        let pop: Vec<u64> = (0..k).map(|i| 50_000 + (i as u64 * 97) % 1_000).collect();
        group.bench_with_input(BenchmarkId::new("chain_walk", k), &pop, |b, pop| {
            b.iter(|| {
                let mut rng = SimRng::new(1);
                let mut acc = 0u64;
                for _ in 0..CALLS {
                    acc ^= multivariate_hypergeometric(&mut rng, pop, DRAWS_PER_CALL)[k / 2];
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("tree_streams", k), &pop, |b, pop| {
            b.iter(|| {
                let mut acc = 0u64;
                for master in 0..CALLS {
                    acc ^=
                        multivariate_hypergeometric_streams(master, pop, DRAWS_PER_CALL, 1)[k / 2];
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// The batch engine's table path after its participant draw: the
/// initiator split, then the pairing table — row by row through the
/// chain rule for k < 16, through the tree-stream sampler for k ≥ 16.
fn table_path(rng: &mut SimRng, participants: &[u64], length: u64) -> u64 {
    let initiators = multivariate_hypergeometric(rng, participants, length);
    let mut responders: Vec<u64> = participants
        .iter()
        .zip(&initiators)
        .map(|(p, a)| p - a)
        .collect();
    if participants.len() >= 16 {
        return hypergeometric_pairing_table(rng.next(), &initiators, &responders, 1)[0];
    }
    let (mut acc, mut remaining) = (0, length);
    for &a in &initiators {
        if a == 0 {
            continue;
        }
        if a == remaining {
            // The last row takes the remaining responders undrawn.
            return acc ^ responders[0];
        }
        let row = multivariate_hypergeometric(rng, &responders, a);
        for (r, &m) in responders.iter_mut().zip(&row) {
            *r -= m;
        }
        acc ^= row[0];
        remaining -= a;
    }
    acc
}

fn bench_pairing_paths(c: &mut Criterion) {
    // The batch engine's two exact ways to draw a whole block of L
    // interactions from a population of 10⁶ agents: the participant
    // hypergeometric plus the table path, against the schedule sampler's
    // 2L ordered draws. The engine takes the schedule path when 2L ≤ 8k²:
    // k = 2 at L = 16 sits on that crossover, L = 666 is the `clique-e6`
    // block length, and k = 32 is the paper's large-k grid.
    let mut group = c.benchmark_group("pairing_paths");
    const CALLS: u64 = 500;
    const N: u64 = 1_000_000;
    group.throughput(Throughput::Elements(CALLS));
    for &k in &[2usize, 32] {
        // An undecided-heavy plateau: half the agents in the last state,
        // the rest spread over the others.
        let mut pop = vec![N / 2 / (k as u64 - 1); k];
        pop[k - 1] = N - pop[..k - 1].iter().sum::<u64>();
        for &length in &[16u64, 666] {
            let id = format!("k{k}/L{length}");
            group.bench_with_input(BenchmarkId::new("pairing_table", &id), &pop, |b, pop| {
                b.iter(|| {
                    let mut rng = SimRng::new(1);
                    let mut acc = 0u64;
                    for _ in 0..CALLS {
                        let participants = multivariate_hypergeometric(&mut rng, pop, 2 * length);
                        acc ^= table_path(&mut rng, &participants, length);
                    }
                    black_box(acc)
                })
            });
            group.bench_with_input(BenchmarkId::new("schedule", &id), &pop, |b, pop| {
                let (mut sampler, mut slots) = (ScheduleSampler::new(), Vec::new());
                b.iter(|| {
                    let mut rng = SimRng::new(1);
                    let mut acc = 0u64;
                    for _ in 0..CALLS {
                        acc ^= sampler.sample(&mut rng, pop, 2 * length as usize, &mut slots)[0];
                    }
                    black_box(acc)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_static_sampling,
    bench_dynamic_sampling,
    bench_hypergeometric_splits,
    bench_pairing_paths
);
criterion_main!(benches);
