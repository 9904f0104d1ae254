//! Interaction schedulers.
//!
//! A scheduler picks, at each discrete time step, an ordered pair of distinct
//! agents for interaction. The paper's model is [`CliqueScheduler`]: the
//! pair is chosen uniformly at random without replacement, independently of
//! previous steps (§1.1). [`GraphScheduler`] covers the general
//! graph-restricted model of Angluin et al.: a uniformly random edge with a
//! uniformly random orientation.

use crate::graph::Graph;
use sim_stats::multinomial::distinct_pair;
use sim_stats::rng::SimRng;

/// Chooses an ordered pair of distinct agent indices.
pub trait Scheduler {
    /// The number of agents this scheduler schedules.
    fn population(&self) -> usize;

    /// Pick the next ordered (initiator, responder) pair.
    fn next_pair(&mut self, rng: &mut SimRng) -> (usize, usize);
}

/// Uniform random scheduler on the clique — the paper's communication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CliqueScheduler {
    n: usize,
}

impl CliqueScheduler {
    /// Scheduler over `n ≥ 2` agents.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least 2 agents");
        CliqueScheduler { n }
    }
}

impl Scheduler for CliqueScheduler {
    fn population(&self) -> usize {
        self.n
    }

    #[inline]
    fn next_pair(&mut self, rng: &mut SimRng) -> (usize, usize) {
        let (a, b) = distinct_pair(rng, self.n as u64);
        (a as usize, b as usize)
    }
}

/// Uniform random edge scheduler over a fixed interaction graph: picks an
/// edge uniformly, then orients it uniformly at random.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphScheduler {
    graph: Graph,
}

impl GraphScheduler {
    /// Build from a graph with at least one edge.
    pub fn new(graph: Graph) -> Self {
        assert!(graph.num_edges() > 0, "graph scheduler needs edges");
        GraphScheduler { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

impl Scheduler for GraphScheduler {
    fn population(&self) -> usize {
        self.graph.n()
    }

    #[inline]
    fn next_pair(&mut self, rng: &mut SimRng) -> (usize, usize) {
        let (a, b) = self.graph.endpoints(rng.index(self.graph.num_edges()));
        if rng.bernoulli(0.5) {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_pairs_are_distinct_and_in_range() {
        let mut s = CliqueScheduler::new(10);
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let (a, b) = s.next_pair(&mut rng);
            assert_ne!(a, b);
            assert!(a < 10 && b < 10);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn clique_pair_distribution_uniform() {
        let mut s = CliqueScheduler::new(4);
        let mut rng = SimRng::new(2);
        let mut counts = [[0u64; 4]; 4];
        let n = 120_000;
        for _ in 0..n {
            let (a, b) = s.next_pair(&mut rng);
            counts[a][b] += 1;
        }
        // 12 ordered pairs, each expecting n/12 = 10000.
        for a in 0..4 {
            for b in 0..4 {
                if a == b {
                    assert_eq!(counts[a][b], 0);
                } else {
                    let c = counts[a][b];
                    assert!((9_300..=10_700).contains(&c), "pair ({a},{b}): {c}");
                }
            }
        }
    }

    #[test]
    fn graph_scheduler_respects_edges() {
        let g = Graph::path(3); // edges (0,1), (1,2)
        let mut s = GraphScheduler::new(g);
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let (a, b) = s.next_pair(&mut rng);
            let unordered = if a < b { (a, b) } else { (b, a) };
            assert!(unordered == (0, 1) || unordered == (1, 2), "pair {a},{b}");
        }
    }

    #[test]
    fn graph_scheduler_orientation_is_symmetric() {
        let g = Graph::path(2);
        let mut s = GraphScheduler::new(g);
        let mut rng = SimRng::new(4);
        let mut forward = 0u64;
        let n = 40_000;
        for _ in 0..n {
            let (a, _) = s.next_pair(&mut rng);
            if a == 0 {
                forward += 1;
            }
        }
        let frac = forward as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "needs edges")]
    fn empty_graph_rejected() {
        GraphScheduler::new(Graph::from_edges(3, vec![]));
    }
}
