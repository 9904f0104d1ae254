//! E1/E2 — regeneration of **Figure 1** (both panels).
//!
//! Paper setup: n = 1,000,000 agents, k = ⌊√n/(ln n · ln ln n)⌋ = 27
//! opinions, k − 1 equal minorities, majority bias √(n ln n). The left
//! panel plots the trajectories of the majority, the (×k-scaled)
//! minorities, and the undecided count together with the line
//! y = n/2 − n/4k; the right panel zooms into the window until x₁ doubles
//! and adds the maximum majority–minority difference.
//!
//! Defaults here use n = 100,000 so the binaries finish in seconds; pass
//! `--n 1000000` for the paper's exact setup.

use crate::cli::{require_figure1, ExpArgs};
use crate::report::Report;
use pop_proto::Observation;
use sim_stats::plot::AsciiChart;
use sim_stats::rng::RngFactory;
use sim_stats::tables::{fmt_sig, fmt_thousands, TextTable};
use sim_stats::timeseries::{Series, TimeSeries};
use usd_core::analysis::undecided_plateau;
use usd_core::backend::{Backend, ObservationGranularity};
use usd_core::init::InitialConfigBuilder;
use usd_core::stabilization::ConsensusOutcome;
use usd_core::{theory, RunSpec, TraceRecorder, UsdConfig};

/// One recorded Figure-1 style run.
#[derive(Debug, Clone)]
pub struct Fig1Run {
    /// Population size.
    pub n: u64,
    /// Number of opinions.
    pub k: usize,
    /// Initial majority bias.
    pub bias: u64,
    /// Snapshots: (interactions, majority, highlighted minority,
    /// mean minority, undecided, max majority–minority difference).
    pub snapshots: Vec<Fig1Snapshot>,
    /// Winner opinion if stabilized.
    pub winner: Option<usize>,
    /// Interactions at stabilization (or budget).
    pub stabilization: u64,
    /// Whether the run stabilized within budget.
    pub stabilized: bool,
    /// First interaction at which x₁ reached 2·x₁(0), if it did.
    pub majority_doubling: Option<u64>,
    /// Maximum undecided count observed at any snapshot.
    pub max_undecided: u64,
}

/// One snapshot of the tracked quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Snapshot {
    /// Interactions elapsed.
    pub interactions: u64,
    /// Majority opinion count x₁.
    pub majority: u64,
    /// The highlighted minority's count (opinion 1).
    pub minority_sample: u64,
    /// Mean over all minority counts.
    pub minority_mean: f64,
    /// Undecided count u.
    pub undecided: u64,
    /// max_{j≥2}(x₁ − x_j).
    pub max_difference: i64,
}

impl Fig1Snapshot {
    /// The tracked quantities of configuration `c` at clock `interactions`.
    fn of(interactions: u64, c: &UsdConfig) -> Self {
        let xs = c.opinions();
        let k = xs.len();
        let majority = xs[0];
        let (sum, min) = xs[1..]
            .iter()
            .fold((0u64, u64::MAX), |(s, m), &v| (s + v, m.min(v)));
        let (minority_sample, minority_mean, max_difference) = if k > 1 {
            (
                xs[1],
                sum as f64 / (k - 1) as f64,
                majority as i64 - min as i64,
            )
        } else {
            (majority, 0.0, 0)
        };
        Fig1Snapshot {
            interactions,
            majority,
            minority_sample,
            minority_mean,
            undecided: c.u(),
            max_difference,
        }
    }
}

/// Simulate one Figure-1 run on the resolved default engine — the
/// trackers read every effective event, so
/// [`Backend::clique_default`] at event granularity — recording roughly
/// once per parallel round.
pub fn simulate_fig1_run(n: u64, k: usize, seed: u64, budget: u64) -> Fig1Run {
    let backend = Backend::clique_default(n, ObservationGranularity::Event);
    simulate_fig1_run_with(n, k, seed, budget, backend)
}

/// Simulate one Figure-1 run on any [`Backend`] through [`RunSpec`]: a
/// [`TraceRecorder`] snapshots the configuration at clock 0, at every
/// multiple of n (one parallel round) and at the end, and an observer
/// tracks the maximum undecided count and the instant x₁ first reaches
/// 2·x₁(0) at the backend's observation granularity — every effective
/// event on the per-event engines (agent, count, graph), block boundaries
/// on the leaping ones.
pub fn simulate_fig1_run_with(
    n: u64,
    k: usize,
    seed: u64,
    budget: u64,
    backend: Backend,
) -> Fig1Run {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let initial_majority = config.x(0);
    let mut majority_doubling = None;
    let mut max_undecided = 0u64;
    let mut observer = |obs: &Observation<'_>| {
        max_undecided = max_undecided.max(obs.counts[k]);
        if majority_doubling.is_none() && obs.counts[0] >= 2 * initial_majority {
            majority_doubling = Some(obs.interactions);
        }
        true
    };
    let mut trace = TraceRecorder::new(&config);
    let (result, sim) = RunSpec::new(&config)
        .backend(backend)
        .budget(budget)
        .ticker(&mut trace)
        .observer(&mut observer)
        .run_keeping(&mut RngFactory::new(seed).stream(0));
    let trajectory = trace.finish(sim.expect("a clique run keeps its engine").as_ref());
    Fig1Run {
        n,
        k,
        bias: config.bias(),
        snapshots: trajectory
            .snapshots
            .iter()
            .map(|(t, c)| Fig1Snapshot::of(*t, c))
            .collect(),
        winner: match result.outcome {
            ConsensusOutcome::Winner(w) => Some(w),
            _ => None,
        },
        stabilization: result.interactions,
        stabilized: result.stabilized(),
        majority_doubling,
        max_undecided,
    }
}

/// Default interaction budget: a ×40 safety factor over the Amir et al.
/// upper bound k·n·ln n.
pub fn default_budget(n: u64, k: usize) -> u64 {
    (40.0 * k as f64 * n as f64 * (n as f64).ln()) as u64
}

/// Build the left-panel time series (minorities scaled ×k, as the paper
/// does for visibility), plus the plateau line.
pub fn left_panel_series(run: &Fig1Run) -> TimeSeries {
    let n = run.n as f64;
    let kf = run.k as f64;
    let time: Vec<f64> = run
        .snapshots
        .iter()
        .map(|s| s.interactions as f64 / n)
        .collect();
    let mut ts = TimeSeries::with_time(time);
    ts.push_series(Series::new(
        "undecided",
        run.snapshots.iter().map(|s| s.undecided as f64).collect(),
    ));
    ts.push_series(Series::new(
        "minority x k",
        run.snapshots
            .iter()
            .map(|s| s.minority_sample as f64 * kf)
            .collect(),
    ));
    ts.push_series(Series::new(
        "majority",
        run.snapshots.iter().map(|s| s.majority as f64).collect(),
    ));
    let plateau = undecided_plateau(run.n, run.k);
    ts.push_series(Series::new(
        "n/2 - n/4k",
        vec![plateau; run.snapshots.len()],
    ));
    ts
}

/// Build the right-panel time series (unscaled), cut at the majority
/// doubling point (the paper's zoom window).
pub fn right_panel_series(run: &Fig1Run) -> TimeSeries {
    let n = run.n as f64;
    let cut = run.majority_doubling.unwrap_or(run.stabilization);
    let snaps: Vec<&Fig1Snapshot> = run
        .snapshots
        .iter()
        .filter(|s| s.interactions <= cut)
        .collect();
    let time: Vec<f64> = snaps.iter().map(|s| s.interactions as f64 / n).collect();
    let mut ts = TimeSeries::with_time(time);
    ts.push_series(Series::new(
        "minority",
        snaps.iter().map(|s| s.minority_sample as f64).collect(),
    ));
    ts.push_series(Series::new(
        "majority",
        snaps.iter().map(|s| s.majority as f64).collect(),
    ));
    ts.push_series(Series::new(
        "max difference",
        snaps.iter().map(|s| s.max_difference as f64).collect(),
    ));
    ts
}

fn summary_table(run: &Fig1Run) -> TextTable {
    let mut t = TextTable::new(&["quantity", "value"]);
    let n = run.n;
    t.row_owned(vec!["n".into(), fmt_thousands(n)]);
    t.row_owned(vec!["k".into(), run.k.to_string()]);
    t.row_owned(vec!["initial bias".into(), fmt_thousands(run.bias)]);
    t.row_owned(vec![
        "stabilized".into(),
        if run.stabilized { "yes" } else { "NO (budget)" }.into(),
    ]);
    t.row_owned(vec![
        "winner opinion (1-based)".into(),
        run.winner
            .map(|w| (w + 1).to_string())
            .unwrap_or("-".into()),
    ]);
    t.row_owned(vec![
        "stabilization parallel time".into(),
        fmt_sig(run.stabilization as f64 / n as f64, 4),
    ]);
    if let Some(d) = run.majority_doubling {
        t.row_owned(vec![
            "x1 doubling parallel time".into(),
            fmt_sig(d as f64 / n as f64, 4),
        ]);
        t.row_owned(vec![
            "doubling / stabilization".into(),
            fmt_sig(d as f64 / run.stabilization as f64, 3),
        ]);
    }
    let plateau = undecided_plateau(n, run.k);
    t.row_owned(vec!["plateau n/2 - n/4k".into(), fmt_sig(plateau, 6)]);
    t.row_owned(vec![
        "max u(t) observed".into(),
        fmt_thousands(run.max_undecided),
    ]);
    t.row_owned(vec![
        "max u(t) - plateau".into(),
        fmt_sig(run.max_undecided as f64 - plateau, 4),
    ]);
    t.row_owned(vec![
        "Lemma 3.1 slack sqrt(n ln n)".into(),
        fmt_thousands(theory::sqrt_n_log_n(n)),
    ]);
    t
}

/// E1: the Figure 1 (left) report.
pub fn fig1_left_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n, args.n.min(20_000));
    let k = args.k_or(theory::figure1_k(n));
    let default = Backend::clique_default(n, ObservationGranularity::Event);
    let backend = args.clique_backend_or(default, n, &[k]);
    require_figure1(n, &[k]);
    let run = simulate_fig1_run_with(n, k, args.seed, default_budget(n, k), backend);
    let mut report = Report::new();
    report.heading(format!(
        "E1 / Figure 1 (left): USD evolution, n={}, k={k}, backend={backend}",
        fmt_thousands(n)
    ));
    report.text(
        "Paper: minorities (scaled x k) spread while u(t) hugs n/2 - n/4k; \
         the majority stays low for most of the run, then wins late.",
    );
    let ts = left_panel_series(&run).downsample(120);
    let chart = AsciiChart::new(100, 24)
        .title(format!("Evolution for n={}, k={k}", fmt_thousands(n)))
        .x_label("parallel time")
        .y_label("number of nodes");
    report.chart(chart.render(&ts));
    report.table("fig1_left_summary", summary_table(&run));
    let mut traj = TextTable::new(&[
        "parallel_time",
        "majority",
        "minority_sample",
        "minority_mean",
        "undecided",
        "max_difference",
    ]);
    for s in &run.snapshots {
        traj.row_owned(vec![
            fmt_sig(s.interactions as f64 / n as f64, 5),
            s.majority.to_string(),
            s.minority_sample.to_string(),
            fmt_sig(s.minority_mean, 6),
            s.undecided.to_string(),
            s.max_difference.to_string(),
        ]);
    }
    report.table("fig1_left_trajectory", traj);
    report
}

/// E2: the Figure 1 (right) report.
pub fn fig1_right_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n, args.n.min(20_000));
    let k = args.k_or(theory::figure1_k(n));
    let default = Backend::clique_default(n, ObservationGranularity::Event);
    let backend = args.clique_backend_or(default, n, &[k]);
    require_figure1(n, &[k]);
    let run = simulate_fig1_run_with(n, k, args.seed, default_budget(n, k), backend);
    let mut report = Report::new();
    report.heading(format!(
        "E2 / Figure 1 (right): zoom until x1 doubles, n={}, k={k}, backend={backend}",
        fmt_thousands(n)
    ));
    report.text(
        "Paper observation: reaching 2*x1(0) consumes most of the \
         stabilization time (about 70 of 90 parallel-time units at n=1M); \
         only a short endgame remains afterwards.",
    );
    let ts = right_panel_series(&run).downsample(120);
    let chart = AsciiChart::new(100, 24)
        .title(format!(
            "Window until majority doubling, n={}, k={k}",
            fmt_thousands(n)
        ))
        .x_label("parallel time")
        .y_label("number of nodes");
    report.chart(chart.render(&ts));
    report.table("fig1_right_summary", summary_table(&run));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run() -> Fig1Run {
        simulate_fig1_run(3_000, 4, 1, default_budget(3_000, 4))
    }

    #[test]
    fn run_stabilizes_and_majority_wins() {
        let run = tiny_run();
        assert!(run.stabilized);
        assert_eq!(run.winner, Some(0), "majority should win with fig1 bias");
        assert!(run.stabilization > 0);
        assert!(!run.snapshots.is_empty());
    }

    #[test]
    fn undecided_stays_near_plateau() {
        let run = tiny_run();
        let plateau = undecided_plateau(run.n, run.k);
        let slack = 3.0 * theory::sqrt_n_log_n(run.n) as f64 + 10.0 * run.n as f64 / 9.0;
        assert!(
            (run.max_undecided as f64) < plateau + slack,
            "max u {} vs plateau {plateau} + slack {slack}",
            run.max_undecided
        );
    }

    #[test]
    fn doubling_happens_before_stabilization() {
        let run = tiny_run();
        let d = run.majority_doubling.expect("x1 must double en route");
        assert!(d <= run.stabilization);
        // And it must consume a nontrivial fraction of the run (the paper's
        // point); be loose: at least 10%.
        assert!(
            d as f64 / run.stabilization as f64 > 0.1,
            "doubling at {d} of {}",
            run.stabilization
        );
    }

    #[test]
    fn snapshots_are_causally_ordered_and_conserving() {
        let run = tiny_run();
        let mut last = 0u64;
        for s in &run.snapshots {
            assert!(s.interactions >= last);
            last = s.interactions;
            assert!(s.majority + s.undecided <= run.n);
            assert!(s.max_difference >= 0 || s.interactions == 0);
        }
    }

    #[test]
    fn panel_series_shapes() {
        let run = tiny_run();
        let left = left_panel_series(&run);
        assert_eq!(left.series.len(), 4);
        assert_eq!(left.get("n/2 - n/4k").unwrap().values.len(), left.len());
        let right = right_panel_series(&run);
        assert_eq!(right.series.len(), 3);
        assert!(right.len() <= left.len());
    }

    #[test]
    fn generic_backends_reproduce_the_run_shape() {
        // The port onto the Simulator trait must preserve the experiment's
        // qualitative content for every clique backend.
        for backend in [Backend::Agent, Backend::Count, Backend::Batch] {
            let run = simulate_fig1_run_with(3_000, 4, 1, default_budget(3_000, 4), backend);
            assert!(run.stabilized, "{backend} did not stabilize");
            assert_eq!(run.winner, Some(0), "{backend}: majority should win");
            assert!(
                run.majority_doubling.is_some(),
                "{backend}: x1 never doubled"
            );
            assert!(run.snapshots.len() > 3, "{backend}: too few snapshots");
            let plateau = undecided_plateau(run.n, run.k);
            let slack = 3.0 * theory::sqrt_n_log_n(run.n) as f64 + 10.0 * run.n as f64 / 9.0;
            assert!(
                (run.max_undecided as f64) < plateau + slack,
                "{backend}: max u {} vs plateau {plateau} + slack {slack}",
                run.max_undecided
            );
        }
    }

    #[test]
    fn reports_render_quick() {
        let args = ExpArgs {
            n: 2_000,
            quick: true,
            seeds: 1,
            ..ExpArgs::default()
        };
        let left = fig1_left_report(&args).render();
        assert!(left.contains("Figure 1 (left)"));
        assert!(left.contains("legend"));
        let right = fig1_right_report(&args).render();
        assert!(right.contains("Figure 1 (right)"));
    }
}
