//! Sampler micro-timings, taken from outside the engine on
//! `clique-e6`-shaped inputs: 28 states and one 666-interaction batch.
//!
//! One block of the clique batch engine at k >= 16 draws its participants
//! and its initiator split with two `multivariate_hypergeometric` calls
//! and its pair table with one `hypergeometric_pairing_table` call;
//! `multinomial.block_us` times exactly that triple. `rng.below_ns` times
//! the bounded draw every engine leans on and doubles as a same-run
//! reference of host speed.

use crate::report::median;
use crate::workload::{CLIQUE_K, CLIQUE_N};
use sim_stats::multinomial::{hypergeometric_pairing_table, multivariate_hypergeometric};
use sim_stats::rng::SimRng;
use std::hint::black_box;
use std::time::Instant;
use usd_core::InitialConfigBuilder;

/// Interactions in the timed batch.
const BATCH: u64 = 666;
/// Timed repetitions of each sampler call (medians are reported).
const REPS: usize = 1001;
/// `SimRng::below` calls per timed batch.
const BELOW_CALLS: usize = 1 << 16;
/// Timed batches of `SimRng::below` calls.
const BELOW_BATCHES: usize = 101;
/// The bound `SimRng::below` draws under: `reg8-dense`'s 2m, the
/// oriented-edge range of its dense draws (not a power of two, so the
/// rejection step runs).
const BELOW_BOUND: u64 = 8_000_000;

/// Medians of the sampler micro-timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerTimings {
    /// Two `multivariate_hypergeometric` calls plus one
    /// `hypergeometric_pairing_table` call, in microseconds.
    pub block_us: f64,
    /// One `multivariate_hypergeometric` call (the participant draw), in
    /// microseconds.
    pub mvhg_us: f64,
    /// One `SimRng::below` call, in nanoseconds.
    pub below_ns: f64,
}

/// The 28 state counts of `clique-e6` on its undecided plateau: every
/// opinion at half its initial support, the rest undecided.
fn plateau_counts() -> Vec<u64> {
    let config = InitialConfigBuilder::new(CLIQUE_N, CLIQUE_K).max_admissible_bias();
    let mut counts: Vec<u64> = config.opinions().iter().map(|&x| x / 2).collect();
    let decided: u64 = counts.iter().sum();
    counts.push(CLIQUE_N - decided);
    counts
}

/// Time the samplers (single-threaded) from a seeded stream.
pub fn sampler_timings(seed: u64) -> SamplerTimings {
    let pop = plateau_counts();
    let mut rng = SimRng::new(seed);
    let mut block = Vec::with_capacity(REPS);
    let mut mvhg = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let participants = multivariate_hypergeometric(&mut rng, black_box(&pop), 2 * BATCH);
        let mid = Instant::now();
        let initiators = multivariate_hypergeometric(&mut rng, &participants, BATCH);
        let responders: Vec<u64> = participants
            .iter()
            .zip(&initiators)
            .map(|(m, a)| m - a)
            .collect();
        let table = hypergeometric_pairing_table(rng.next(), &initiators, &responders, 1);
        black_box(table);
        let end = Instant::now();
        block.push((end - start).as_secs_f64() * 1e6);
        mvhg.push((mid - start).as_secs_f64() * 1e6);
    }
    let mut below = Vec::with_capacity(BELOW_BATCHES);
    for _ in 0..BELOW_BATCHES {
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..BELOW_CALLS {
            acc = acc.wrapping_add(rng.below(black_box(BELOW_BOUND)));
        }
        black_box(acc);
        below.push(start.elapsed().as_secs_f64() * 1e9 / BELOW_CALLS as f64);
    }
    SamplerTimings {
        block_us: median(&block),
        mvhg_us: median(&mvhg),
        below_ns: median(&below),
    }
}
