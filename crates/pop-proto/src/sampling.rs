//! Weighted sampling structures for the simulation hot path.
//!
//! [`FenwickSampler`] is a Fenwick (binary indexed) tree over integer
//! weights supporting O(log m) point updates and O(log m) inverse-CDF
//! sampling. This is what makes the count-based simulator's interaction
//! step O(log |Σ|) even while counts change on every step.

use sim_stats::rng::SimRng;

/// Fenwick-tree-backed categorical sampler over `m` integer weights.
///
/// Supports point updates (`set`, `add`) and weighted sampling in
/// O(log m). Weights are `u64` counts; the total must stay ≤ `u64::MAX / 2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenwickSampler {
    /// 1-based Fenwick array; `tree[i]` covers a dyadic block ending at `i`.
    tree: Vec<u64>,
    /// Mirror of the raw weights for O(1) reads.
    weights: Vec<u64>,
    total: u64,
}

impl FenwickSampler {
    /// Build from initial weights.
    pub fn new(weights: &[u64]) -> Self {
        let m = weights.len();
        let mut s = FenwickSampler {
            tree: vec![0; m + 1],
            weights: weights.to_vec(),
            total: 0,
        };
        for (i, &w) in weights.iter().enumerate() {
            s.tree_add(i, w);
            s.total += w;
        }
        s
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are zero categories.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight of category `i`.
    #[inline]
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// Sum of all weights.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All current weights (slice view).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    #[inline]
    fn tree_add(&mut self, i: usize, delta: u64) {
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] = self.tree[idx].wrapping_add(delta);
            idx += idx & idx.wrapping_neg();
        }
    }

    #[inline]
    fn tree_sub(&mut self, i: usize, delta: u64) {
        let mut idx = i + 1;
        while idx < self.tree.len() {
            self.tree[idx] = self.tree[idx].wrapping_sub(delta);
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Set the weight of category `i`.
    pub fn set(&mut self, i: usize, w: u64) {
        let old = self.weights[i];
        if w >= old {
            let d = w - old;
            self.tree_add(i, d);
            self.total += d;
        } else {
            let d = old - w;
            self.tree_sub(i, d);
            self.total -= d;
        }
        self.weights[i] = w;
    }

    /// Add a signed delta to category `i`'s weight. Panics on underflow.
    #[inline]
    pub fn add(&mut self, i: usize, delta: i64) {
        if delta >= 0 {
            let d = delta as u64;
            self.weights[i] = self.weights[i].checked_add(d).expect("weight overflow");
            self.tree_add(i, d);
            self.total += d;
        } else {
            let d = delta.unsigned_abs();
            self.weights[i] = self.weights[i].checked_sub(d).expect("weight underflow");
            self.tree_sub(i, d);
            self.total -= d;
        }
    }

    /// Find the smallest `i` such that the prefix sum through `i` exceeds
    /// `target` (0-based). Precondition: `target < total()`.
    #[inline]
    pub fn find(&self, mut target: u64) -> usize {
        debug_assert!(target < self.total, "find target out of range");
        let mut pos = 0usize;
        // Largest power of two ≤ len.
        let mut step = self.tree.len().next_power_of_two() >> 1;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // pos is the count of categories fully skipped; index = pos
    }

    /// Sample a category index with probability proportional to its weight.
    /// Panics if the total weight is zero.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        assert!(self.total > 0, "sampling from empty distribution");
        self.find(rng.below(self.total))
    }

    /// Sample an ordered pair of **distinct items** (two different agents)
    /// where each category's weight is its agent count: the first item is
    /// drawn from all `total()` agents, the second from the remaining
    /// `total() − 1`. Returns the pair of category indices, which may be
    /// equal (two distinct agents in the same state).
    ///
    /// This is exactly the population-protocol scheduler marginalized onto
    /// state counts. Panics if `total() < 2`.
    #[inline]
    pub fn sample_distinct_pair(&mut self, rng: &mut SimRng) -> (usize, usize) {
        assert!(self.total >= 2, "need at least two agents");
        let a = self.sample(rng);
        self.add(a, -1);
        let b = self.sample(rng);
        self.add(a, 1);
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenwick_total_and_weights() {
        let f = FenwickSampler::new(&[3, 0, 7, 5]);
        assert_eq!(f.total(), 15);
        assert_eq!(f.weight(2), 7);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn fenwick_find_matches_linear_scan() {
        let weights = [3u64, 0, 7, 5, 1, 0, 4];
        let f = FenwickSampler::new(&weights);
        for target in 0..f.total() {
            // Linear reference.
            let mut acc = 0u64;
            let mut expect = 0usize;
            for (i, &w) in weights.iter().enumerate() {
                acc += w;
                if target < acc {
                    expect = i;
                    break;
                }
            }
            assert_eq!(f.find(target), expect, "target {target}");
        }
    }

    #[test]
    fn fenwick_updates() {
        let mut f = FenwickSampler::new(&[1, 1, 1]);
        f.add(0, 5);
        f.set(1, 0);
        f.add(2, -1);
        assert_eq!(f.weights(), &[6, 0, 0]);
        assert_eq!(f.total(), 6);
        for target in 0..6 {
            assert_eq!(f.find(target), 0);
        }
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn fenwick_underflow_panics() {
        let mut f = FenwickSampler::new(&[1]);
        f.add(0, -2);
    }

    #[test]
    fn fenwick_sampling_distribution() {
        let mut rng = SimRng::new(9);
        let f = FenwickSampler::new(&[1, 2, 3, 4]);
        let mut counts = [0u64; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[f.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = (i + 1) as f64 / 10.0 * n as f64;
            assert!(
                (c as f64 - expect).abs() < expect * 0.06 + 50.0,
                "cat {i}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn distinct_pair_leaves_weights_intact_and_respects_hypergeometry() {
        let mut rng = SimRng::new(10);
        let mut f = FenwickSampler::new(&[1, 1]);
        // With one agent in each of two states, the pair must always be the
        // two different states (in either order).
        for _ in 0..1000 {
            let (a, b) = f.sample_distinct_pair(&mut rng);
            assert_ne!(a, b);
        }
        assert_eq!(f.weights(), &[1, 1]);

        // With 2 agents in one state only, the pair is always (0,0).
        let mut g = FenwickSampler::new(&[2, 0]);
        for _ in 0..100 {
            assert_eq!(g.sample_distinct_pair(&mut rng), (0, 0));
        }
    }

    #[test]
    fn distinct_pair_second_marginal() {
        // counts = [2, 2]: P(second in same category as first) = 1/3.
        let mut rng = SimRng::new(11);
        let mut f = FenwickSampler::new(&[2, 2]);
        let n = 60_000;
        let mut same = 0u64;
        for _ in 0..n {
            let (a, b) = f.sample_distinct_pair(&mut rng);
            if a == b {
                same += 1;
            }
        }
        let frac = same as f64 / n as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn fenwick_large_sparse() {
        let mut weights = vec![0u64; 1000];
        weights[123] = 1;
        weights[999] = 3;
        let f = FenwickSampler::new(&weights);
        let mut rng = SimRng::new(12);
        let mut counts = [0u64; 2];
        for _ in 0..10_000 {
            match f.sample(&mut rng) {
                123 => counts[0] += 1,
                999 => counts[1] += 1,
                other => panic!("sampled zero-weight category {other}"),
            }
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.35, "ratio {ratio}");
    }
}
