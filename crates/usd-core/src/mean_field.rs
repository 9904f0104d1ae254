//! Mean-field (fluid-limit) approximation of the Undecided State Dynamics.
//!
//! Dividing the exact one-step drifts of [`crate::analysis`] by n and
//! rescaling time so one unit = n interactions (parallel time) yields the
//! ODE system over opinion fractions aᵢ = xᵢ/n and the undecided fraction
//! υ = u/n:
//!
//! ```text
//! daᵢ/dt = 2aᵢ(2υ − 1 + aᵢ)
//! dυ/dt  = 2((1 − υ)² − Σⱼaⱼ²) − 2υ(1 − υ)
//! ```
//!
//! This is the deterministic skeleton behind the paper's §2 intuition:
//! the plateau, the per-opinion thresholds, and the endgame collapse are
//! all visible in the flow. The module integrates the system with a
//! classical RK4 stepper and is tested against both conservation laws and
//! the stochastic simulation at large n (where the fluid limit is tight).
//!
//! Note what the ODE *cannot* show — and why the paper needs probability:
//! with exactly equal minorities the flow keeps them equal forever, while
//! the stochastic system breaks the tie by random drift. The lower bound
//! is precisely about how slowly that stochastic tie-breaking compounds.

/// Mean-field state: opinion fractions plus the undecided fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanFieldState {
    /// Opinion fractions a₁…a_k.
    pub a: Vec<f64>,
    /// Undecided fraction υ.
    pub u: f64,
}

impl MeanFieldState {
    /// Build from a concrete configuration.
    pub fn from_config(config: &crate::config::UsdConfig) -> Self {
        let n = config.n() as f64;
        MeanFieldState {
            a: config.opinions().iter().map(|&x| x as f64 / n).collect(),
            u: config.u() as f64 / n,
        }
    }

    /// Total mass (must stay 1 under the flow).
    pub fn total(&self) -> f64 {
        self.a.iter().sum::<f64>() + self.u
    }

    /// The right-hand side of the ODE system.
    pub fn derivative(&self) -> MeanFieldState {
        let sum_sq: f64 = self.a.iter().map(|&x| x * x).sum();
        let decided = 1.0 - self.u;
        let da: Vec<f64> = self
            .a
            .iter()
            .map(|&ai| 2.0 * ai * (2.0 * self.u - 1.0 + ai))
            .collect();
        let du = 2.0 * (decided * decided - sum_sq) - 2.0 * self.u * decided;
        MeanFieldState { a: da, u: du }
    }

    fn axpy(&self, scale: f64, d: &MeanFieldState) -> MeanFieldState {
        MeanFieldState {
            a: self
                .a
                .iter()
                .zip(&d.a)
                .map(|(&x, &dx)| x + scale * dx)
                .collect(),
            u: self.u + scale * d.u,
        }
    }

    /// One classical RK4 step of size `h` (in parallel-time units).
    pub fn rk4_step(&self, h: f64) -> MeanFieldState {
        let k1 = self.derivative();
        let k2 = self.axpy(h / 2.0, &k1).derivative();
        let k3 = self.axpy(h / 2.0, &k2).derivative();
        let k4 = self.axpy(h, &k3).derivative();
        MeanFieldState {
            a: (0..self.a.len())
                .map(|i| self.a[i] + h / 6.0 * (k1.a[i] + 2.0 * k2.a[i] + 2.0 * k3.a[i] + k4.a[i]))
                .collect(),
            u: self.u + h / 6.0 * (k1.u + 2.0 * k2.u + 2.0 * k3.u + k4.u),
        }
    }
}

/// Integrate the mean-field flow from `initial` for `t_end` parallel-time
/// units with step `h`, recording every `record_every`-th step.
/// Returns `(times, states)`.
pub fn integrate(
    initial: MeanFieldState,
    t_end: f64,
    h: f64,
    record_every: usize,
) -> (Vec<f64>, Vec<MeanFieldState>) {
    assert!(h > 0.0 && t_end >= 0.0);
    assert!(record_every >= 1);
    let mut times = vec![0.0];
    let mut states = vec![initial.clone()];
    let mut state = initial;
    let steps = (t_end / h).ceil() as usize;
    for s in 1..=steps {
        state = state.rk4_step(h);
        if s % record_every == 0 || s == steps {
            times.push(s as f64 * h);
            states.push(state.clone());
        }
    }
    (times, states)
}

/// The mean-field undecided plateau for equal opinions: the positive root
/// of dυ/dt = 0 with aᵢ = (1−υ)/k, which the paper approximates as
/// 1/2 − 1/4k + O(1/k²).
pub fn plateau_fraction(k: usize) -> f64 {
    assert!(k >= 1);
    // dυ/dt = 0 with σ2 = (1−υ)²/k:
    // 2(1−υ)²(1 − 1/k) = 2υ(1−υ)  ⇒  (1−υ)(1−1/k) = υ
    // ⇒ υ = (1 − 1/k) / (2 − 1/k)
    let kf = k as f64;
    (1.0 - 1.0 / kf) / (2.0 - 1.0 / kf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UsdConfig;
    use crate::init::InitialConfigBuilder;

    #[test]
    fn mass_is_conserved_by_the_flow() {
        let initial = MeanFieldState::from_config(&UsdConfig::new(vec![300, 200, 100], 400));
        let (_, states) = integrate(initial, 20.0, 0.01, 100);
        for s in &states {
            assert!(
                (s.total() - 1.0).abs() < 1e-9,
                "mass drifted: {}",
                s.total()
            );
        }
    }

    #[test]
    fn plateau_matches_papers_approximation() {
        for &k in &[8usize, 27, 100] {
            let exact = plateau_fraction(k);
            let paper = 0.5 - 1.0 / (4.0 * k as f64);
            assert!(
                (exact - paper).abs() < 1.0 / (k as f64 * k as f64),
                "k={k}: exact {exact} vs paper approx {paper}"
            );
        }
    }

    #[test]
    fn flow_settles_on_the_plateau_from_balanced_start() {
        let k = 10;
        let initial = MeanFieldState::from_config(&UsdConfig::decided(vec![100; 10]));
        let (_, states) = integrate(initial, 30.0, 0.005, 1000);
        let last = states.last().unwrap();
        let plateau = plateau_fraction(k);
        assert!(
            (last.u - plateau).abs() < 0.01,
            "υ settled at {} vs plateau {}",
            last.u,
            plateau
        );
    }

    #[test]
    fn equal_minorities_stay_equal_in_the_flow() {
        // The deterministic flow cannot break ties — the reason the paper's
        // analysis is genuinely probabilistic.
        let initial = MeanFieldState::from_config(&UsdConfig::decided(vec![260, 250, 250, 240]));
        let (_, states) = integrate(initial, 10.0, 0.01, 100);
        for s in &states {
            assert!(
                (s.a[1] - s.a[2]).abs() < 1e-12,
                "tied opinions diverged deterministically"
            );
        }
    }

    #[test]
    fn majority_eventually_dominates_in_the_flow() {
        let initial = MeanFieldState::from_config(&UsdConfig::decided(vec![300, 240, 230, 230]));
        let (_, states) = integrate(initial, 200.0, 0.01, 1000);
        let last = states.last().unwrap();
        assert!(
            last.a[0] > 0.9,
            "majority fraction only reached {}",
            last.a[0]
        );
        for i in 1..4 {
            assert!(last.a[i] < 0.01, "minority {i} survived: {}", last.a[i]);
        }
    }

    #[test]
    fn threshold_sign_structure() {
        // daᵢ/dt > 0 iff υ > (1 − aᵢ)/2 — the per-opinion threshold of §2.
        let mk = |ai: f64, u: f64| {
            let rest = 1.0 - ai - u;
            MeanFieldState {
                a: vec![ai, rest],
                u,
            }
        };
        let above = mk(0.2, 0.45); // threshold = 0.4
        assert!(above.derivative().a[0] > 0.0);
        let below = mk(0.2, 0.35);
        assert!(below.derivative().a[0] < 0.0);
        let at = mk(0.2, 0.4);
        assert!(at.derivative().a[0].abs() < 1e-12);
    }

    #[test]
    fn mean_field_tracks_stochastic_simulation_at_large_n() {
        use crate::backend::{make_simulator, Backend};
        use sim_stats::rng::SimRng;
        // Integrate 5 parallel-time units and compare υ with one stochastic
        // run at n = 200k (fluid limit error is O(1/√n) ≈ 0.002).
        let n = 200_000u64;
        let k = 5usize;
        let config = InitialConfigBuilder::new(n, k).figure1();
        let initial = MeanFieldState::from_config(&config);
        let horizon = 5.0;
        let (_, states) = integrate(initial, horizon, 0.001, usize::MAX);
        let fluid_u = states.last().unwrap().u;

        let mut sim = make_simulator(Backend::Batch, &config);
        let mut rng = SimRng::new(12);
        sim.run_to_silence(&mut rng, (horizon * n as f64) as u64);
        let stochastic_u = sim.counts()[k] as f64 / n as f64;
        assert!(
            (fluid_u - stochastic_u).abs() < 0.01,
            "fluid υ {fluid_u} vs stochastic {stochastic_u}"
        );
    }

    #[test]
    fn integrate_records_requested_cadence() {
        let initial = MeanFieldState::from_config(&UsdConfig::decided(vec![50, 50]));
        let (times, states) = integrate(initial, 1.0, 0.1, 2);
        assert_eq!(times.len(), states.len());
        assert_eq!(times[0], 0.0);
        assert!((times.last().unwrap() - 1.0).abs() < 1e-9);
    }
}
