//! Categorical, multinomial, and hypergeometric sampling.
//!
//! These primitives back the initial-configuration builders (randomized
//! opinion assignments), the Gossip-model round simulation, and the hot
//! loop of the clique batch engine (`pop_proto::BatchSimulator`), which
//! draws every batch's participants with [`multivariate_hypergeometric`]
//! and pairs them with [`shuffle_pairing_table`] or
//! [`hypergeometric_pairing_table`]. All samplers take a [`SimRng`] (or a
//! master seed for the position-derived streams) and are exact: no normal
//! approximations. The O(n) reference samplers ([`multinomial_counts`],
//! [`sample_hypergeometric`]) stay out of the hot loop.

use crate::rng::SimRng;

/// Sample a category index proportional to `weights` (linear scan).
///
/// Panics if all weights are zero or any weight is negative.
pub fn categorical_index(rng: &mut SimRng, weights: &[u64]) -> usize {
    let total: u64 = weights.iter().sum();
    assert!(total > 0, "categorical with all-zero weights");
    let mut r = rng.below(total);
    for (i, &w) in weights.iter().enumerate() {
        if r < w {
            return i;
        }
        r -= w;
    }
    unreachable!("categorical scan exhausted weights");
}

/// Sample a category index proportional to float `weights` (linear scan).
///
/// Panics on negative weights or a non-positive total.
pub fn categorical_index_f64(rng: &mut SimRng, weights: &[f64]) -> usize {
    let mut total = 0.0;
    for &w in weights {
        assert!(w >= 0.0, "negative weight {w}");
        total += w;
    }
    assert!(total > 0.0, "categorical with non-positive total weight");
    let r = rng.f64() * total;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if r < acc {
            return i;
        }
    }
    // Floating point edge: return last category with positive weight.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("positive total implies a positive weight")
}

/// Exact multinomial sample: distribute `n` trials over categories with the
/// given integer `weights`, by O(n) repeated categorical draws.
///
/// This is intentionally the simple exact algorithm: it is used only for
/// building initial configurations (once per run), never in the interaction
/// loop.
pub fn multinomial_counts(rng: &mut SimRng, n: u64, weights: &[u64]) -> Vec<u64> {
    let mut counts = vec![0u64; weights.len()];
    for _ in 0..n {
        counts[categorical_index(rng, weights)] += 1;
    }
    counts
}

/// Exact hypergeometric sample: number of "successes" when drawing `draws`
/// items without replacement from a population of `total` items of which
/// `successes` are successes. O(draws) urn simulation.
///
/// Panics if `draws > total` or `successes > total`.
pub fn sample_hypergeometric(rng: &mut SimRng, total: u64, successes: u64, draws: u64) -> u64 {
    assert!(draws <= total, "cannot draw more than the population");
    assert!(successes <= total, "successes exceed population");
    let mut remaining_total = total;
    let mut remaining_succ = successes;
    let mut got = 0u64;
    for _ in 0..draws {
        if rng.below(remaining_total) < remaining_succ {
            got += 1;
            remaining_succ -= 1;
        }
        remaining_total -= 1;
    }
    got
}

/// Exact multinomial sample in O(k) binomial draws instead of O(n)
/// categorical draws: category `i` receives
/// `Binomial(remaining trials, wᵢ / remaining weight)` conditioned on the
/// earlier categories — the standard conditional-binomial decomposition.
///
/// Identical in distribution to [`multinomial_counts`]; use this for large
/// `n` (the batch simulator and bulk initial configurations).
pub fn multinomial_counts_fast(rng: &mut SimRng, n: u64, weights: &[u64]) -> Vec<u64> {
    let mut total: u64 = weights.iter().sum();
    assert!(total > 0, "multinomial with all-zero weights");
    let mut counts = vec![0u64; weights.len()];
    let mut remaining = n;
    for (i, &w) in weights.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if w == 0 {
            continue;
        }
        if w == total {
            counts[i] = remaining;
            break;
        }
        let draw = crate::binomial::sample_binomial(rng, remaining, w as f64 / total as f64);
        counts[i] = draw;
        remaining -= draw;
        total -= w;
    }
    counts
}

/// Chunk width for the blocked chain-rule walk in
/// [`multivariate_hypergeometric`]: categories are grouped 32 at a time and
/// a whole chunk is skipped with one hypergeometric draw when it receives
/// nothing.
const MVH_CHUNK: usize = 32;
/// Category count above which the blocked walk pays for its chunk-sum pass.
const MVH_CHUNK_MIN_K: usize = 64;

/// Chain-rule walk over `pop[range]`: allocate `draws` items category by
/// category, writing into `counts[range]`. `total` must equal the sum of
/// `pop[range]`.
fn mvh_walk(rng: &mut SimRng, pop: &[u64], counts: &mut [u64], mut total: u64, mut remaining: u64) {
    debug_assert_eq!(pop.len(), counts.len());
    for (slot, &p) in counts.iter_mut().zip(pop.iter()) {
        if remaining == 0 {
            break;
        }
        if p == 0 {
            continue;
        }
        if p == total {
            *slot = remaining;
            break;
        }
        let draw = crate::binomial::sample_hypergeometric_fast(rng, total, p, remaining);
        *slot = draw;
        remaining -= draw;
        total -= p;
    }
}

/// Exact multivariate hypergeometric sample: the per-category counts of
/// `draws` items drawn **without replacement** from a population with
/// `pop[i]` items of category `i`. O(k) hypergeometric draws via the chain
/// rule; each draw uses the O(sd) mode-centered sampler in
/// [`binomial`](crate::binomial).
///
/// For k ≥ 64 the walk is *blocked*: categories are grouped into chunks of
/// 32, one chain-rule pass allocates `draws` among the chunk totals, and
/// only chunks that received something are walked internally — the chain
/// rule at coarser granularity followed by refinement, identical in
/// distribution to the flat walk but skipping 32 categories per draw on
/// the (common, when draws ≪ Σpop) empty chunks.
///
/// Panics if `draws` exceeds the population size.
pub fn multivariate_hypergeometric(rng: &mut SimRng, pop: &[u64], draws: u64) -> Vec<u64> {
    let total: u64 = pop.iter().sum();
    assert!(draws <= total, "cannot draw more than the population");
    let mut counts = vec![0u64; pop.len()];
    if pop.len() < MVH_CHUNK_MIN_K {
        mvh_walk(rng, pop, &mut counts, total, draws);
        return counts;
    }
    // Blocked walk: allocate among chunk totals, then refine within the
    // nonzero chunks.
    let chunk_sums: Vec<u64> = pop.chunks(MVH_CHUNK).map(|c| c.iter().sum()).collect();
    let mut remaining = draws;
    let mut grand = total;
    for (ci, &cs) in chunk_sums.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if cs == 0 {
            continue;
        }
        let chunk_draw = if cs == grand {
            remaining
        } else {
            crate::binomial::sample_hypergeometric_fast(rng, grand, cs, remaining)
        };
        if chunk_draw > 0 {
            let lo = ci * MVH_CHUNK;
            let hi = (lo + MVH_CHUNK).min(pop.len());
            mvh_walk(rng, &pop[lo..hi], &mut counts[lo..hi], cs, chunk_draw);
        }
        remaining -= chunk_draw;
        grand -= cs;
    }
    counts
}

/// Minimum `draws · categories` product below which
/// [`multivariate_hypergeometric_streams`] and
/// [`hypergeometric_pairing_table`] stay sequential even when offered
/// threads: a scoped-thread spawn costs tens of microseconds, which only
/// repays on genuinely large splits.
const PAR_MIN_WORK: u128 = 1 << 22;

/// Stream tag mixed into a node's master seed for its own draw (vs its
/// children's subtrees). Arbitrary distinct constants; see
/// [`multivariate_hypergeometric_streams`].
const TAG_SELF: u64 = 0;
const TAG_LEFT: u64 = 1;
const TAG_RIGHT: u64 = 2;

/// Whether a subtree of this size is worth a thread spawn.
#[inline]
fn par_worthwhile(threads: usize, draws: u64, len: usize) -> bool {
    threads > 1 && len >= 2 && (draws as u128) * (len as u128) >= PAR_MIN_WORK
}

/// Recursive half of [`multivariate_hypergeometric_streams`]: allocate
/// `draws` over `pop` (whose sum is `total`) into `counts`, all randomness
/// derived from `master`.
fn mvh_streams_rec(
    master: u64,
    pop: &[u64],
    counts: &mut [u64],
    total: u64,
    draws: u64,
    threads: usize,
) {
    if draws == 0 || total == 0 {
        return;
    }
    if pop.len() == 1 {
        counts[0] = draws;
        return;
    }
    let mid = pop.len() / 2;
    let left_sum: u64 = pop[..mid].iter().sum();
    let left_draw = if left_sum == 0 {
        0
    } else if left_sum == total {
        draws
    } else {
        let mut rng = SimRng::new(crate::rng::derive_seed(master, TAG_SELF));
        crate::binomial::sample_hypergeometric_fast(&mut rng, total, left_sum, draws)
    };
    let (lpop, rpop) = pop.split_at(mid);
    let (lcounts, rcounts) = counts.split_at_mut(mid);
    let lmaster = crate::rng::derive_seed(master, TAG_LEFT);
    let rmaster = crate::rng::derive_seed(master, TAG_RIGHT);
    if par_worthwhile(threads, draws, pop.len()) {
        let (lt, rt) = (threads / 2 + threads % 2, threads / 2);
        crate::threads::WorkerPool::global().join(
            || mvh_streams_rec(lmaster, lpop, lcounts, left_sum, left_draw, lt),
            || {
                mvh_streams_rec(
                    rmaster,
                    rpop,
                    rcounts,
                    total - left_sum,
                    draws - left_draw,
                    rt.max(1),
                )
            },
        );
    } else {
        mvh_streams_rec(lmaster, lpop, lcounts, left_sum, left_draw, 1);
        mvh_streams_rec(
            rmaster,
            rpop,
            rcounts,
            total - left_sum,
            draws - left_draw,
            1,
        );
    }
}

/// [`multivariate_hypergeometric`] with **deterministic per-subtree RNG
/// streams** instead of one sequential generator: the category range is
/// split recursively, each split draws its left-half total from a stream
/// derived from `(master, path)` alone, and the two halves recurse
/// independently. Because every draw's stream is a pure function of its
/// position in the recursion — never of execution order — the result is
/// **bit-identical for any thread count**, and subtrees above a work
/// threshold are fanned out over scoped threads (`threads` is a cap, not a
/// demand; pass [`crate::threads::resolve_threads`] to honor
/// `USD_THREADS`/`--threads`).
///
/// This is the parallel row-sampling primitive behind the batch
/// simulators' per-batch pair tables. Identical in distribution to
/// [`multivariate_hypergeometric`] (chain rule regrouped as a binary
/// tree); a different bitstream, so seeded runs differ from the sequential
/// sampler run-for-run but not in law.
///
/// Panics if `draws` exceeds the population size.
pub fn multivariate_hypergeometric_streams(
    master: u64,
    pop: &[u64],
    draws: u64,
    threads: usize,
) -> Vec<u64> {
    let total: u64 = pop.iter().sum();
    assert!(draws <= total, "cannot draw more than the population");
    let mut counts = vec![0u64; pop.len()];
    mvh_streams_rec(master, pop, &mut counts, total, draws, threads.max(1));
    counts
}

/// Recursive half of [`hypergeometric_pairing_table`]: fill the row window
/// `out` (rows `initiators.len() × k`, row-major) given the responder
/// population `resp` available to this row range.
fn pairing_rec(
    master: u64,
    initiators: &[u64],
    resp: Vec<u64>,
    out: &mut [u64],
    k: usize,
    threads: usize,
) {
    let range_draws: u64 = initiators.iter().sum();
    if range_draws == 0 {
        return;
    }
    if initiators.len() == 1 {
        let row = multivariate_hypergeometric_streams(master, &resp, range_draws, threads);
        out[..k].copy_from_slice(&row);
        return;
    }
    let mid = initiators.len() / 2;
    let left_draws: u64 = initiators[..mid].iter().sum();
    // Aggregate responder counts consumed by the first half of the rows,
    // then refine each half recursively (chain rule over row blocks).
    let left_resp = multivariate_hypergeometric_streams(
        crate::rng::derive_seed(master, TAG_SELF),
        &resp,
        left_draws,
        threads,
    );
    let right_resp: Vec<u64> = resp
        .iter()
        .zip(left_resp.iter())
        .map(|(&r, &l)| r - l)
        .collect();
    let lmaster = crate::rng::derive_seed(master, TAG_LEFT);
    let rmaster = crate::rng::derive_seed(master, TAG_RIGHT);
    let (linit, rinit) = initiators.split_at(mid);
    let (lout, rout) = out.split_at_mut(mid * k);
    if par_worthwhile(threads, range_draws, initiators.len() * k) {
        let (lt, rt) = (threads / 2 + threads % 2, threads / 2);
        crate::threads::WorkerPool::global().join(
            || pairing_rec(lmaster, linit, left_resp, lout, k, lt),
            || pairing_rec(rmaster, rinit, right_resp, rout, k, rt.max(1)),
        );
    } else {
        pairing_rec(lmaster, linit, left_resp, lout, k, 1);
        pairing_rec(rmaster, rinit, right_resp, rout, k, 1);
    }
}

/// Sample the **pairing table** of a collision-free interaction batch: a
/// `k × k` row-major table `M` where `M[i][j]` counts the batch's ordered
/// interactions between an initiator in state `i` and a responder in state
/// `j`, given the batch's initiator counts (`initiators[i]` agents
/// initiate from state `i`) and responder counts (`responders[j]` agents
/// respond from state `j`). This is the uniform random bipartite matching
/// of initiators to responders marginalized onto states — the law the
/// batch simulators need — sampled by the chain rule over a binary tree of
/// row blocks with the same deterministic per-subtree streams as
/// [`multivariate_hypergeometric_streams`]: bit-identical for any thread
/// count, parallel above the work threshold.
///
/// Panics unless `Σ initiators == Σ responders`.
pub fn hypergeometric_pairing_table(
    master: u64,
    initiators: &[u64],
    responders: &[u64],
    threads: usize,
) -> Vec<u64> {
    let a: u64 = initiators.iter().sum();
    let r: u64 = responders.iter().sum();
    assert_eq!(a, r, "initiator and responder totals must match");
    let k = responders.len();
    let mut out = vec![0u64; initiators.len() * k];
    if a > 0 {
        pairing_rec(
            master,
            initiators,
            responders.to_vec(),
            &mut out,
            k,
            threads.max(1),
        );
    }
    out
}

/// Sample the same `k × k` row-major pairing table as
/// [`hypergeometric_pairing_table`], starting one step earlier: from the
/// batch's `participants` (`participants[s]` agents in state `s`, `2L` in
/// all) before they are split into initiators and responders.
///
/// The participants' states are written into `slots`, Fisher–Yates
/// shuffled, and slot `t` (an initiator) is paired with slot `L + t` (its
/// responder). Conditional on the participant multiset, the slot
/// assignment is a uniform permutation, so the table has exactly the law
/// of a hypergeometric initiator split followed by the hypergeometric
/// pairing table — the two draws this one O(L) pass replaces. It beats
/// the O(k²) table whenever the batch is short next to the alphabet; see
/// the batch simulator for the crossover.
///
/// `slots` is scratch space: cleared, grown as needed, and left holding
/// the shuffled states. Panics if the participant total is odd.
pub fn shuffle_pairing_table(
    rng: &mut SimRng,
    participants: &[u64],
    slots: &mut Vec<u32>,
) -> Vec<u64> {
    let total: u64 = participants.iter().sum();
    assert!(
        total.is_multiple_of(2),
        "participants must pair up (odd total {total})"
    );
    let k = participants.len();
    slots.clear();
    for (state, &m) in participants.iter().enumerate() {
        slots.extend(std::iter::repeat_n(state as u32, m as usize));
    }
    for i in (1..slots.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        slots.swap(i, j);
    }
    let (initiators, responders) = slots.split_at(slots.len() / 2);
    let mut out = vec![0u64; k * k];
    for (&a, &b) in initiators.iter().zip(responders) {
        out[a as usize * k + b as usize] += 1;
    }
    out
}

/// Draw an ordered pair of **distinct** indices uniformly from `[0, n)`,
/// i.e. the population-protocol scheduler's choice of (initiator, responder).
///
/// Panics if `n < 2`.
pub fn distinct_pair(rng: &mut SimRng, n: u64) -> (u64, u64) {
    assert!(n >= 2, "need at least two agents for an interaction");
    let a = rng.below(n);
    let mut b = rng.below(n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_respects_weights() {
        let mut rng = SimRng::new(1);
        let weights = [1u64, 0, 3];
        let mut counts = [0u64; 3];
        for _ in 0..40_000 {
            counts[categorical_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn categorical_f64_respects_weights() {
        let mut rng = SimRng::new(2);
        let weights = [0.25, 0.75];
        let mut counts = [0u64; 2];
        for _ in 0..40_000 {
            counts[categorical_index_f64(&mut rng, &weights)] += 1;
        }
        let frac = counts[1] as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn categorical_zero_weights_panics() {
        let mut rng = SimRng::new(3);
        categorical_index(&mut rng, &[0, 0]);
    }

    #[test]
    fn multinomial_conserves_total_and_matches_proportions() {
        let mut rng = SimRng::new(4);
        let counts = multinomial_counts(&mut rng, 60_000, &[1, 2, 3]);
        assert_eq!(counts.iter().sum::<u64>(), 60_000);
        assert!((counts[0] as f64 - 10_000.0).abs() < 600.0);
        assert!((counts[1] as f64 - 20_000.0).abs() < 800.0);
        assert!((counts[2] as f64 - 30_000.0).abs() < 900.0);
    }

    #[test]
    fn multinomial_fast_conserves_total_and_matches_proportions() {
        let mut rng = SimRng::new(14);
        let counts = multinomial_counts_fast(&mut rng, 600_000, &[1, 0, 2, 3]);
        assert_eq!(counts.iter().sum::<u64>(), 600_000);
        assert_eq!(counts[1], 0);
        assert!((counts[0] as f64 - 100_000.0).abs() < 2_500.0, "{counts:?}");
        assert!((counts[2] as f64 - 200_000.0).abs() < 3_500.0, "{counts:?}");
        assert!((counts[3] as f64 - 300_000.0).abs() < 4_000.0, "{counts:?}");
    }

    #[test]
    fn multinomial_fast_matches_slow_distribution() {
        // Compare first-category marginals of the two algorithms via KS.
        let reps = 30_000;
        let mut fast = Vec::with_capacity(reps);
        let mut slow = Vec::with_capacity(reps);
        let mut rng = SimRng::new(15);
        for _ in 0..reps {
            fast.push(multinomial_counts_fast(&mut rng, 200, &[2, 3, 5])[0] as f64);
            slow.push(multinomial_counts(&mut rng, 200, &[2, 3, 5])[0] as f64);
        }
        let d = crate::ks::ks_statistic(&fast, &slow);
        let crit = crate::ks::ks_critical_value(reps, reps, 0.001);
        assert!(d < crit, "KS {d} >= crit {crit}");
    }

    #[test]
    fn multivariate_hypergeometric_invariants() {
        let mut rng = SimRng::new(16);
        let pop = [500u64, 0, 1_200, 300];
        for _ in 0..200 {
            let c = multivariate_hypergeometric(&mut rng, &pop, 800);
            assert_eq!(c.iter().sum::<u64>(), 800);
            for (got, cap) in c.iter().zip(pop.iter()) {
                assert!(got <= cap, "{c:?} exceeds {pop:?}");
            }
        }
        // Drawing the whole population returns it exactly.
        let all = multivariate_hypergeometric(&mut rng, &pop, 2_000);
        assert_eq!(all, pop.to_vec());
    }

    #[test]
    fn multivariate_hypergeometric_marginal_mean() {
        let mut rng = SimRng::new(17);
        let pop = [30_000u64, 70_000];
        let reps = 5_000;
        let mut sum = 0.0;
        for _ in 0..reps {
            sum += multivariate_hypergeometric(&mut rng, &pop, 10_000)[0] as f64;
        }
        let mean = sum / reps as f64;
        assert!((mean - 3_000.0).abs() < 3_000.0 * 0.01, "mean {mean}");
    }

    #[test]
    fn hypergeometric_mean_matches_theory() {
        let mut rng = SimRng::new(5);
        let (total, succ, draws) = (100u64, 30u64, 20u64);
        let reps = 20_000;
        let mut sum = 0u64;
        for _ in 0..reps {
            let got = sample_hypergeometric(&mut rng, total, succ, draws);
            assert!(got <= draws.min(succ));
            sum += got;
        }
        let mean = sum as f64 / reps as f64;
        let expect = draws as f64 * succ as f64 / total as f64; // 6.0
        assert!((mean - expect).abs() < 0.1, "mean {mean} vs {expect}");
    }

    #[test]
    fn hypergeometric_degenerate_cases() {
        let mut rng = SimRng::new(6);
        assert_eq!(sample_hypergeometric(&mut rng, 10, 10, 5), 5);
        assert_eq!(sample_hypergeometric(&mut rng, 10, 0, 5), 0);
        assert_eq!(sample_hypergeometric(&mut rng, 10, 3, 10), 3);
    }

    #[test]
    fn blocked_walk_matches_flat_walk_distribution() {
        // k = 256 engages the chunked path; compare a marginal against the
        // flat chain-rule walk via KS.
        let k = 256usize;
        let pop: Vec<u64> = (0..k).map(|i| 1 + (i as u64 * 13) % 40).collect();
        let total: u64 = pop.iter().sum();
        let reps = 20_000;
        let mut blocked = Vec::with_capacity(reps);
        let mut flat = Vec::with_capacity(reps);
        let mut rng = SimRng::new(31);
        for _ in 0..reps {
            let b = multivariate_hypergeometric(&mut rng, &pop, 500);
            assert_eq!(b.iter().sum::<u64>(), 500);
            blocked.push(b[17] as f64);
            let mut counts = vec![0u64; k];
            mvh_walk(&mut rng, &pop, &mut counts, total, 500);
            assert_eq!(counts.iter().sum::<u64>(), 500);
            flat.push(counts[17] as f64);
        }
        let d = crate::ks::ks_statistic(&blocked, &flat);
        let crit = crate::ks::ks_critical_value(reps, reps, 0.001);
        assert!(d < crit, "KS {d} >= crit {crit}");
    }

    #[test]
    fn blocked_walk_small_draws_sparse_result() {
        let pop = vec![1_000u64; 512];
        let mut rng = SimRng::new(32);
        let c = multivariate_hypergeometric(&mut rng, &pop, 3);
        assert_eq!(c.iter().sum::<u64>(), 3);
    }

    #[test]
    fn streams_invariants_and_caps() {
        let pop = [500u64, 0, 1_200, 300, 7, 0, 90];
        for master in 0..200u64 {
            let c = multivariate_hypergeometric_streams(master, &pop, 800, 1);
            assert_eq!(c.iter().sum::<u64>(), 800);
            for (got, cap) in c.iter().zip(pop.iter()) {
                assert!(got <= cap, "{c:?} exceeds {pop:?}");
            }
        }
        let all = multivariate_hypergeometric_streams(1, &pop, 2_097, 1);
        assert_eq!(all, pop.to_vec());
        assert_eq!(
            multivariate_hypergeometric_streams(1, &pop, 0, 1),
            vec![0; 7]
        );
    }

    #[test]
    fn streams_bit_identical_across_thread_counts() {
        // The regression the parallel sampler must never fail: results are
        // a pure function of (master, pop, draws), independent of the
        // thread budget. Use draws large enough to engage the spawn path.
        let pop: Vec<u64> = (0..64).map(|i| 100_000 + i * 7).collect();
        for master in [0u64, 1, 0xDEAD_BEEF] {
            let one = multivariate_hypergeometric_streams(master, &pop, 3_000_000, 1);
            let two = multivariate_hypergeometric_streams(master, &pop, 3_000_000, 2);
            let eight = multivariate_hypergeometric_streams(master, &pop, 3_000_000, 8);
            assert_eq!(one, two, "threads=2 diverged at master {master}");
            assert_eq!(one, eight, "threads=8 diverged at master {master}");
        }
    }

    #[test]
    fn streams_matches_sequential_distribution() {
        let pop = [300u64, 500, 200];
        let reps = 30_000;
        let mut tree = Vec::with_capacity(reps);
        let mut seq = Vec::with_capacity(reps);
        let mut rng = SimRng::new(33);
        for rep in 0..reps {
            tree.push(multivariate_hypergeometric_streams(rep as u64, &pop, 400, 1)[1] as f64);
            seq.push(multivariate_hypergeometric(&mut rng, &pop, 400)[1] as f64);
        }
        let d = crate::ks::ks_statistic(&tree, &seq);
        let crit = crate::ks::ks_critical_value(reps, reps, 0.001);
        assert!(d < crit, "KS {d} >= crit {crit}");
    }

    #[test]
    fn pairing_table_margins_and_determinism() {
        let initiators = [40u64, 0, 25, 35];
        let responders = [10u64, 60, 30];
        for master in 0..100u64 {
            let t = hypergeometric_pairing_table(master, &initiators, &responders, 1);
            assert_eq!(t.len(), 12);
            for (i, &a) in initiators.iter().enumerate() {
                let row: u64 = t[i * 3..(i + 1) * 3].iter().sum();
                assert_eq!(row, a, "row {i} margin");
            }
            for (j, &r) in responders.iter().enumerate() {
                let col: u64 = (0..4).map(|i| t[i * 3 + j]).sum();
                assert_eq!(col, r, "col {j} margin");
            }
            let again = hypergeometric_pairing_table(master, &initiators, &responders, 4);
            assert_eq!(t, again, "thread count changed the table");
        }
    }

    #[test]
    fn pairing_table_cell_mean_matches_theory() {
        // E M[i][j] = a_i r_j / L for the uniform bipartite pairing.
        let initiators = [30u64, 70];
        let responders = [40u64, 60];
        let reps = 20_000u64;
        let mut sum = 0.0;
        for master in 0..reps {
            sum += hypergeometric_pairing_table(master, &initiators, &responders, 1)[0] as f64;
        }
        let mean = sum / reps as f64;
        let expect = 30.0 * 40.0 / 100.0; // = 12
        assert!((mean - expect).abs() < 0.15, "mean {mean} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "totals must match")]
    fn pairing_table_margin_mismatch_panics() {
        hypergeometric_pairing_table(1, &[3], &[2], 1);
    }

    #[test]
    fn shuffle_pairing_margins_and_scratch_reuse() {
        let participants = [40u64, 0, 25, 35, 100];
        let mut rng = SimRng::new(41);
        let mut slots = Vec::new();
        for _ in 0..100 {
            let t = shuffle_pairing_table(&mut rng, &participants, &mut slots);
            assert_eq!(t.len(), 25);
            assert_eq!(t.iter().sum::<u64>(), 100);
            // Every participant is exactly one initiator or one responder.
            for (s, &p) in participants.iter().enumerate() {
                let row: u64 = t[s * 5..(s + 1) * 5].iter().sum();
                let col: u64 = (0..5).map(|i| t[i * 5 + s]).sum();
                assert_eq!(row + col, p, "state {s} margin");
            }
            assert_eq!(slots.len(), 200);
        }
        // The scratch is reused, never required to be empty on entry.
        assert_eq!(
            shuffle_pairing_table(&mut rng, &[0, 2, 0], &mut slots),
            vec![0, 0, 0, 0, 1, 0, 0, 0, 0]
        );
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn shuffle_pairing_odd_total_panics() {
        shuffle_pairing_table(&mut SimRng::new(1), &[2, 1], &mut Vec::new());
    }

    /// Every pairing table of a batch whose participants hold
    /// `participants[s]` agents in state `s`, with its exact probability
    /// `L!·∏ pₛ! / ((2L)!·∏ Mᵢⱼ!)`: the number of slot sequences with
    /// pair types `M`, times the agent orders within each state, over all
    /// `(2L)!` permutations.
    fn exact_table_law(participants: &[u64]) -> Vec<(Vec<u64>, f64)> {
        fn fill(
            cell: usize,
            left: u64,
            participants: &[u64],
            used: &mut [u64],
            table: &mut Vec<u64>,
            out: &mut Vec<Vec<u64>>,
        ) {
            let k = participants.len();
            if cell == k * k {
                if left == 0 && used == participants {
                    out.push(table.clone());
                }
                return;
            }
            let (i, j) = (cell / k, cell % k);
            let mut m = 0;
            // `m` pairs (i, j) use m agents of state i and m of state j.
            while m <= left
                && used[i] + m + if i == j { m } else { 0 } <= participants[i]
                && used[j] + m <= participants[j]
            {
                used[i] += m;
                used[j] += m;
                table[cell] = m;
                fill(cell + 1, left - m, participants, used, table, out);
                used[i] -= m;
                used[j] -= m;
                m += 1;
            }
            table[cell] = 0;
        }
        let k = participants.len();
        let l = participants.iter().sum::<u64>() / 2;
        let mut tables = Vec::new();
        fill(
            0,
            l,
            participants,
            &mut vec![0; k],
            &mut vec![0; k * k],
            &mut tables,
        );
        let ln = crate::binomial::ln_factorial;
        let base = ln(l) - ln(2 * l) + participants.iter().map(|&p| ln(p)).sum::<f64>();
        tables
            .into_iter()
            .map(|t| {
                let p = (base - t.iter().map(|&m| ln(m)).sum::<f64>()).exp();
                (t, p)
            })
            .collect()
    }

    /// Pearson chi-square of `samples` against the exact `law`, with
    /// cells of expectation below 5 pooled; panics on a table outside the
    /// law's support. Returns `(statistic, critical value at α = 0.001)`,
    /// the critical value from the Wilson–Hilferty approximation.
    fn chi_square_vs_law(law: &[(Vec<u64>, f64)], samples: &[Vec<u64>]) -> (f64, f64) {
        let index: std::collections::HashMap<&[u64], usize> = law
            .iter()
            .enumerate()
            .map(|(i, (t, _))| (t.as_slice(), i))
            .collect();
        let mut observed = vec![0u64; law.len()];
        for s in samples {
            let i = index
                .get(s.as_slice())
                .unwrap_or_else(|| panic!("table {s:?} is outside the law's support"));
            observed[*i] += 1;
        }
        let n = samples.len() as f64;
        let (mut buckets, mut pool) = (Vec::new(), (0.0, 0u64));
        for ((_, p), &o) in law.iter().zip(&observed) {
            let e = p * n;
            if e < 5.0 {
                pool = (pool.0 + e, pool.1 + o);
            } else {
                buckets.push((e, o));
            }
        }
        if pool.0 > 0.0 {
            buckets.push(pool);
        }
        let stat: f64 = buckets
            .iter()
            .map(|&(e, o)| (o as f64 - e).powi(2) / e)
            .sum();
        let df = (buckets.len() - 1) as f64;
        let z = 3.090_232; // standard-normal 0.999 quantile
        let h = 2.0 / (9.0 * df);
        (stat, df * (1.0 - h + z * h.sqrt()).powi(3))
    }

    #[test]
    fn pairing_samplers_match_the_exact_table_law() {
        // Tiny 3-state margins (2L ≤ 10), where every table can be listed:
        // the shuffle sampler and the hypergeometric initiator split plus
        // pairing table must both follow the enumerated law.
        let reps = 40_000;
        for (case, participants) in [[2u64, 3, 5], [1, 2, 1], [0, 4, 2], [3, 3, 2]]
            .iter()
            .enumerate()
        {
            let law = exact_table_law(participants);
            let mass: f64 = law.iter().map(|(_, p)| p).sum();
            assert!((mass - 1.0).abs() < 1e-9, "{participants:?}: mass {mass}");
            let l = participants.iter().sum::<u64>() / 2;
            let mut rng = SimRng::new(900 + case as u64);
            let mut slots = Vec::new();
            let shuffled: Vec<Vec<u64>> = (0..reps)
                .map(|_| shuffle_pairing_table(&mut rng, participants, &mut slots))
                .collect();
            let tabled: Vec<Vec<u64>> = (0..reps)
                .map(|_| {
                    let initiators = multivariate_hypergeometric(&mut rng, participants, l);
                    let responders: Vec<u64> = participants
                        .iter()
                        .zip(&initiators)
                        .map(|(p, a)| p - a)
                        .collect();
                    hypergeometric_pairing_table(rng.next(), &initiators, &responders, 1)
                })
                .collect();
            for (name, samples) in [("shuffle", &shuffled), ("table", &tabled)] {
                let (stat, crit) = chi_square_vs_law(&law, samples);
                assert!(
                    stat < crit,
                    "{name} sampler on {participants:?}: chi-square {stat:.2} >= {crit:.2}"
                );
            }
        }
    }

    #[test]
    fn distinct_pair_is_distinct_and_uniform() {
        let mut rng = SimRng::new(7);
        let n = 5u64;
        let mut counts = vec![0u64; (n * n) as usize];
        for _ in 0..100_000 {
            let (a, b) = distinct_pair(&mut rng, n);
            assert_ne!(a, b);
            assert!(a < n && b < n);
            counts[(a * n + b) as usize] += 1;
        }
        // 20 ordered distinct pairs, each expecting 5000.
        for a in 0..n {
            for b in 0..n {
                let c = counts[(a * n + b) as usize];
                if a == b {
                    assert_eq!(c, 0);
                } else {
                    assert!((4_400..=5_600).contains(&c), "pair ({a},{b}) count {c}");
                }
            }
        }
    }
}
