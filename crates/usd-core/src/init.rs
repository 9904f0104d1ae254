//! Initial-configuration families.
//!
//! The lower-bound proof (§3) fixes a specific family: all minority opinions
//! start with the same support and the majority opinion starts with an
//! additive bias of at most O((√n/(k log n))^¼ · √(n log n)); Figure 1 uses
//! the same family with bias exactly √(n ln n). [`InitialConfigBuilder`]
//! produces these plus the auxiliary families the experiments use.
//!
//! All logarithms are natural, matching the convention under which the
//! paper's Figure 1 parameters (n = 10⁶ → k = 27) come out right.

use crate::backend::SpecError;
use crate::config::UsdConfig;
use crate::theory;
use sim_stats::rng::SimRng;

/// Builder for USD initial configurations (always with `u(0) = 0`,
/// as the paper assumes).
#[derive(Debug, Clone, Copy)]
pub struct InitialConfigBuilder {
    n: u64,
    k: usize,
}

impl InitialConfigBuilder {
    /// Configurations over `n ≥ 2` agents and `k ≥ 1` opinions.
    pub fn new(n: u64, k: usize) -> Self {
        assert!(n >= 2, "need at least 2 agents");
        assert!(k >= 1, "need at least 1 opinion");
        assert!(k as u64 <= n, "more opinions than agents");
        InitialConfigBuilder { n, k }
    }

    /// Population size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Opinion count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The paper's lower-bound family: minorities share the floor count
    /// exactly; opinion 0 receives the `bias` plus any divisibility
    /// remainder.
    ///
    /// Precisely: with `base = (n − bias) / k` and
    /// `rem = (n − bias) mod k`, produces
    /// x₀ = base + bias + rem, x₁ = … = x_{k−1} = base.
    ///
    /// Panics with [`InitialConfigBuilder::check_bias`]'s message if
    /// `bias + k > n` (no room for nonempty minorities).
    pub fn equal_minorities(&self, bias: u64) -> UsdConfig {
        if let Err(e) = Self::check_bias(self.n, self.k, bias) {
            panic!("{e}");
        }
        let base = (self.n - bias) / self.k as u64;
        let rem = (self.n - bias) % self.k as u64;
        let mut x = vec![base; self.k];
        x[0] = base + bias + rem;
        UsdConfig::decided(x)
    }

    /// Whether [`equal_minorities`](Self::equal_minorities)`(bias)` can
    /// build over `n` agents and `k` opinions: the bias must leave every
    /// minority at least one agent (`bias + k ≤ n`). It takes plain inputs,
    /// so a binary can call it once [`Backend::check`](crate::Backend::check)
    /// admits `(n, k)` and exit 2 on `Err`; [`figure1`](Self::figure1)
    /// needs it at `bias = theory::sqrt_n_log_n(n)`.
    pub fn check_bias(n: u64, k: usize, bias: u64) -> Result<(), SpecError> {
        if bias > n || n - bias < k as u64 {
            return Err(SpecError(format!(
                "bias {bias} leaves no room for {k} nonempty opinions at n = {n} \
                 (a run needs bias + k <= n)"
            )));
        }
        Ok(())
    }

    /// The Figure 1 configuration: equal minorities with bias √(n ln n).
    pub fn figure1(&self) -> UsdConfig {
        self.equal_minorities(theory::sqrt_n_log_n(self.n))
    }

    /// The Theorem 3.5 configuration: equal minorities with the **maximum
    /// admissible bias** (√n/(k ln n))^¼ · √(n ln n). Note this is
    /// ω(√(n log n)) — the lower bound holds even with a bias this large.
    pub fn max_admissible_bias(&self) -> UsdConfig {
        let bias = theory::max_admissible_bias(self.n, self.k);
        self.equal_minorities(bias.min(self.n - self.k as u64))
    }

    /// Perfectly balanced configuration (bias 0, remainder to opinion 0).
    pub fn balanced(&self) -> UsdConfig {
        self.equal_minorities(0)
    }

    /// Every agent draws an opinion independently and uniformly; the
    /// resulting bias is Θ(√n) in expectation.
    pub fn random_uniform(&self, rng: &mut SimRng) -> UsdConfig {
        let mut x = vec![0u64; self.k];
        for _ in 0..self.n {
            x[rng.index(self.k)] += 1;
        }
        UsdConfig::decided(x)
    }

    /// Geometric support profile: opinion i gets weight `ratio^i`, a
    /// heavy-skew family used by the robustness experiments.
    pub fn geometric_profile(&self, ratio: f64) -> UsdConfig {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        let weights: Vec<f64> = (0..self.k).map(|i| ratio.powi(i as i32)).collect();
        let total: f64 = weights.iter().sum();
        let mut x: Vec<u64> = weights
            .iter()
            .map(|w| ((w / total) * self.n as f64).floor() as u64)
            .collect();
        let assigned: u64 = x.iter().sum();
        x[0] += self.n - assigned; // dump rounding remainder on the plurality
        UsdConfig::decided(x)
    }

    /// Exact custom counts (must sum to `n` and have length `k`).
    pub fn custom(&self, x: Vec<u64>) -> UsdConfig {
        assert_eq!(x.len(), self.k, "expected {} opinions", self.k);
        assert_eq!(
            x.iter().sum::<u64>(),
            self.n,
            "counts must sum to n={}",
            self.n
        );
        UsdConfig::decided(x)
    }
}

/// Convenience: the full Figure 1 setup — for a given `n`, choose
/// k = ⌊√n / (ln n · ln ln n)⌋ (the paper's choice) and the √(n ln n) bias.
/// Returns `(k, config)`.
pub fn figure1_setup(n: u64) -> (usize, UsdConfig) {
    let k = theory::figure1_k(n);
    let cfg = InitialConfigBuilder::new(n, k).figure1();
    (k, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_minorities_shape() {
        let b = InitialConfigBuilder::new(1000, 4);
        let c = b.equal_minorities(100);
        assert_eq!(c.n(), 1000);
        assert_eq!(c.k(), 4);
        assert_eq!(c.u(), 0);
        // Minorities all equal.
        assert_eq!(c.x(1), c.x(2));
        assert_eq!(c.x(2), c.x(3));
        // Majority carries bias + remainder.
        assert!(c.x(0) >= c.x(1) + 100);
        assert_eq!(c.plurality(), Some(0));
    }

    #[test]
    fn equal_minorities_exact_when_divisible() {
        // n - bias divisible by k: no remainder, bias is exact.
        let b = InitialConfigBuilder::new(1020, 4);
        let c = b.equal_minorities(20);
        assert_eq!(c.opinions(), &[270, 250, 250, 250]);
        assert_eq!(c.bias(), 20);
    }

    #[test]
    fn balanced_has_minimal_gap() {
        let b = InitialConfigBuilder::new(1003, 4);
        let c = b.balanced();
        assert_eq!(c.n(), 1003);
        // Remainder (3) goes to opinion 0.
        assert!(c.max_gap() <= 3);
    }

    #[test]
    fn figure1_bias_is_sqrt_n_ln_n() {
        let n = 1_000_000u64;
        let b = InitialConfigBuilder::new(n, 27);
        let c = b.figure1();
        let expect = ((n as f64) * (n as f64).ln()).sqrt().round() as u64;
        // Bias includes the divisibility remainder (< k).
        assert!(c.bias() >= expect && c.bias() < expect + 27);
        assert_eq!(c.n(), n);
    }

    #[test]
    fn figure1_setup_matches_paper_parameters() {
        let (k, c) = figure1_setup(1_000_000);
        // √n / (ln n · ln ln n) = 1000 / (13.8155 · 2.6259) ≈ 27.56 → 27.
        assert_eq!(k, 27);
        assert_eq!(c.n(), 1_000_000);
        assert_eq!(c.k(), 27);
    }

    #[test]
    fn max_admissible_bias_is_larger_than_figure1_bias() {
        let n = 1_000_000u64;
        let b = InitialConfigBuilder::new(n, 27);
        let fig1 = b.figure1();
        let max = b.max_admissible_bias();
        assert!(max.bias() > fig1.bias());
        assert_eq!(max.n(), n);
    }

    #[test]
    fn random_uniform_covers_opinions() {
        let mut rng = SimRng::new(1);
        let b = InitialConfigBuilder::new(10_000, 5);
        let c = b.random_uniform(&mut rng);
        assert_eq!(c.n(), 10_000);
        // Each opinion expects 2000; all should be within ±300.
        for i in 0..5 {
            let v = c.x(i) as f64;
            assert!((v - 2000.0).abs() < 300.0, "opinion {i}: {v}");
        }
    }

    #[test]
    fn geometric_profile_is_skewed_and_conserves_n() {
        let b = InitialConfigBuilder::new(10_000, 6);
        let c = b.geometric_profile(0.5);
        assert_eq!(c.n(), 10_000);
        for i in 1..6 {
            assert!(c.x(i - 1) >= c.x(i), "profile not monotone at {i}");
        }
        assert_eq!(c.plurality(), Some(0));
    }

    #[test]
    fn custom_validates_totals() {
        let b = InitialConfigBuilder::new(10, 2);
        let c = b.custom(vec![7, 3]);
        assert_eq!(c.opinions(), &[7, 3]);
    }

    #[test]
    #[should_panic(expected = "sum to n")]
    fn custom_wrong_total_rejected() {
        InitialConfigBuilder::new(10, 2).custom(vec![7, 4]);
    }

    #[test]
    #[should_panic(expected = "bias")]
    fn oversized_bias_rejected() {
        InitialConfigBuilder::new(10, 3).equal_minorities(9);
    }

    #[test]
    fn check_bias_admits_exactly_the_biases_that_build() {
        for n in 2..12u64 {
            for k in 1..=n as usize {
                for bias in 0..=n + 1 {
                    let admitted = InitialConfigBuilder::check_bias(n, k, bias).is_ok();
                    assert_eq!(admitted, bias + k as u64 <= n, "n={n} k={k} bias={bias}");
                    if admitted {
                        let c = InitialConfigBuilder::new(n, k).equal_minorities(bias);
                        assert!(c.opinions().iter().all(|&x| x >= 1), "n={n} k={k}");
                    }
                }
            }
        }
        assert!(InitialConfigBuilder::check_bias(u64::MAX, 2, u64::MAX).is_err());
    }

    #[test]
    #[should_panic(expected = "more opinions than agents")]
    fn k_exceeding_n_rejected() {
        InitialConfigBuilder::new(3, 4);
    }
}
