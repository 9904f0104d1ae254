//! Two-sample Kolmogorov–Smirnov statistics.
//!
//! The simulator-equivalence experiment (E12) and the engine-equivalence
//! tests compare engines' stabilization-time samples with the two-sample
//! KS statistic D against its asymptotic critical value. Unlike a binned
//! χ², D needs no bin range, so it still checks the laws at the handful
//! of samples a `--quick` run draws.

/// The two-sample KS statistic D = sup_x |F₁(x) − F₂(x)|.
///
/// Panics if either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "KS of empty sample");
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    xs.sort_by(|p, q| p.partial_cmp(q).expect("NaN in KS input"));
    ys.sort_by(|p, q| p.partial_cmp(q).expect("NaN in KS input"));
    let (n, m) = (xs.len(), ys.len());
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d = 0.0f64;
    while i < n && j < m {
        let x = xs[i].min(ys[j]);
        while i < n && xs[i] <= x {
            i += 1;
        }
        while j < m && ys[j] <= x {
            j += 1;
        }
        let f1 = i as f64 / n as f64;
        let f2 = j as f64 / m as f64;
        d = d.max((f1 - f2).abs());
    }
    d
}

/// Asymptotic two-sample KS critical value at significance `alpha`
/// (two-sided): c(α)·√((n+m)/(n·m)) with
/// c(α) = √(−ln(α/2)/2). Reject equality when D exceeds this.
pub fn ks_critical_value(n: usize, m: usize, alpha: f64) -> f64 {
    assert!(n > 0 && m > 0, "need nonempty samples");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c * (((n + m) as f64) / ((n * m) as f64)).sqrt()
}

/// Convenience: whether two samples are distinguishable at level `alpha`.
pub fn ks_reject(a: &[f64], b: &[f64], alpha: f64) -> bool {
    ks_statistic(a, b) > ks_critical_value(a.len(), b.len(), alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn identical_samples_have_zero_statistic() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn statistic_is_symmetric() {
        let a = [1.0, 5.0, 3.0, 9.0, 2.0];
        let b = [2.0, 4.0, 8.0];
        assert!((ks_statistic(&a, &b) - ks_statistic(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_small_case() {
        // a = {1, 3}, b = {2}: after 1, F1=1/2, F2=0 (gap 1/2);
        // after 2, F1=1/2, F2=1 (gap 1/2); after 3, gap 0. D = 1/2.
        assert!((ks_statistic(&[1.0, 3.0], &[2.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_distribution_rarely_rejected() {
        let mut rng = SimRng::new(1);
        let mut rejections = 0;
        let trials = 200;
        for _ in 0..trials {
            let a: Vec<f64> = (0..80).map(|_| rng.f64()).collect();
            let b: Vec<f64> = (0..80).map(|_| rng.f64()).collect();
            if ks_reject(&a, &b, 0.01) {
                rejections += 1;
            }
        }
        // Nominal level 1%; allow up to 4%.
        assert!(rejections <= 8, "{rejections}/{trials} false rejections");
    }

    #[test]
    fn shifted_distribution_reliably_rejected() {
        let mut rng = SimRng::new(2);
        let a: Vec<f64> = (0..300).map(|_| rng.f64()).collect();
        let b: Vec<f64> = (0..300).map(|_| rng.f64() + 0.4).collect();
        assert!(ks_reject(&a, &b, 0.01));
    }

    #[test]
    fn critical_value_shrinks_with_samples() {
        let small = ks_critical_value(20, 20, 0.05);
        let large = ks_critical_value(2_000, 2_000, 0.05);
        assert!(large < small);
        assert!(small < 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        ks_statistic(&[], &[1.0]);
    }
}
