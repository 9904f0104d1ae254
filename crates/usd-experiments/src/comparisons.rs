//! E8/E9/E11/E12 — robustness, model, baseline, and engine comparisons.
//!
//! * **E8 (bias sensitivity)**: how the majority's win probability and the
//!   stabilization time depend on the initial bias, sweeping from 0
//!   through √n to the maximum admissible ω(√(n log n)) bias — the
//!   regime boundary the paper's conclusion discusses.
//! * **E9 (population protocol vs Gossip)**: the same initial
//!   configurations run in both models, with the per-node opinion-change
//!   statistics that §1.2 argues make the models qualitatively different.
//! * **E11 (baseline comparison)**: USD vs the four-state exact-majority
//!   protocol, voter dynamics, 3-majority, and synchronized USD.
//! * **E12 (simulator ablation)**: distributional equivalence and relative
//!   speed of the `count`, `batch`, `graph` and `batchgraph` engines on the
//!   clique.
//!
//! The USD measurements in E8 and E11 run through the generic backend
//! layer and honor `--backend`; E12 is the engine comparison, so it runs
//! its four engines through [`RunSpec`] itself, and E9 needs the literal
//! per-agent model for its per-node flip statistic, so it builds its own
//! `agent` engine.

use crate::cli::{require_figure1, ExpArgs};
use crate::report::Report;
use crate::runner;
use pop_proto::{AgentSimulator, CliqueScheduler, CountSimulator, Simulator};
use sim_stats::ks::{ks_critical_value, ks_statistic};
use sim_stats::summary::Summary;
use sim_stats::tables::{fmt_sig, fmt_thousands, TextTable};
use usd_baselines::{FourStateMajority, GossipUsd, SynchronizedUsd, ThreeMajority, VoterDynamics};
use usd_core::analysis::monochromatic_distance;
use usd_core::backend::{Backend, ObservationGranularity::Block};
use usd_core::init::InitialConfigBuilder;
use usd_core::protocol::UndecidedStateDynamics;
use usd_core::theory;
use usd_core::RunSpec;
use usd_core::UsdConfig;

// ---------------------------------------------------------------------------
// E8: bias sensitivity
// ---------------------------------------------------------------------------

/// One bias-sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct BiasCell {
    /// The initial bias.
    pub bias: u64,
    /// Bias expressed in √(n ln n) units.
    pub bias_units: f64,
    /// Majority win rate across seeds.
    pub win_rate: f64,
    /// Mean parallel stabilization time.
    pub parallel_mean: f64,
}

/// The default bias grid for E8 at `(n, k)`.
pub fn bias_grid(n: u64, k: usize) -> Vec<u64> {
    let sqrt_n = (n as f64).sqrt();
    let unit = theory::sqrt_n_log_n(n) as f64;
    let max_adm = theory::max_admissible_bias(n, k) as f64;
    let mut grid: Vec<u64> = [
        0.0,
        sqrt_n / 4.0,
        sqrt_n / 2.0,
        sqrt_n,
        unit / 2.0,
        unit,
        2.0 * unit,
        max_adm,
    ]
    .iter()
    .map(|&b| b.round() as u64)
    .collect();
    grid.sort_unstable();
    grid.dedup();
    grid.retain(|&b| InitialConfigBuilder::check_bias(n, k, b).is_ok());
    grid
}

/// Run E8 for one bias value on the chosen backend.
pub fn bias_cell(
    backend: Backend,
    n: u64,
    k: usize,
    bias: u64,
    seeds: u64,
    master_seed: u64,
) -> BiasCell {
    let config = InitialConfigBuilder::new(n, k).equal_minorities(bias);
    let outcomes: Vec<(bool, f64)> = runner::repeat(master_seed ^ bias, seeds, |_rep, rng| {
        let result = RunSpec::new(&config)
            .backend(backend)
            .budget(crate::fig1::default_budget(n, k))
            .run(rng);
        (result.plurality_won(), result.parallel_time(n))
    });
    let wins = outcomes.iter().filter(|o| o.0).count() as f64;
    let times: Vec<f64> = outcomes.iter().map(|o| o.1).collect();
    BiasCell {
        bias,
        bias_units: bias as f64 / theory::sqrt_n_log_n(n) as f64,
        win_rate: wins / outcomes.len() as f64,
        parallel_mean: Summary::of(&times).mean(),
    }
}

/// E8 report.
pub fn bias_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n, args.n.min(8_000));
    let k = args.k_or(8.min((n / 100) as usize).max(2));
    let seeds = args.unless_quick(args.seeds.max(10), 3);
    let backend = args.clique_backend_or(Backend::clique_default(n, Block), n, &[k]);
    let grid = bias_grid(n, k);
    let cells = runner::sweep(args.seed, grid, |_, &b, _| {
        bias_cell(backend, n, k, b, seeds, args.seed)
    });

    let mut report = Report::new();
    report.heading(format!(
        "E8 / Bias sensitivity, n={}, k={k}, backend={backend}",
        fmt_thousands(n)
    ));
    report.text(
        "With bias O(sqrt n) the minority can win with noticeable \
         probability [Clementi et al.]; from Omega(sqrt(n ln n)) the \
         majority wins w.h.p. [Amir et al.] — and per this paper, even \
         biases omega(sqrt(n ln n)) do not make stabilization fast.",
    );
    let mut t = TextTable::new(&[
        "bias",
        "bias/sqrt(n ln n)",
        "majority win rate",
        "T parallel",
    ]);
    for c in &cells {
        t.row_owned(vec![
            fmt_thousands(c.bias),
            fmt_sig(c.bias_units, 3),
            fmt_sig(c.win_rate, 3),
            fmt_sig(c.parallel_mean, 4),
        ]);
    }
    report.table("bias_sensitivity", t);
    report
}

// ---------------------------------------------------------------------------
// E9: population protocol vs Gossip
// ---------------------------------------------------------------------------

/// One PP-vs-Gossip cell.
#[derive(Debug, Clone, Copy)]
pub struct GossipCell {
    /// Number of opinions.
    pub k: usize,
    /// Monochromatic distance of the initial configuration.
    pub md: f64,
    /// Mean PP parallel stabilization time.
    pub pp_parallel: f64,
    /// Max per-node state flips within any one parallel round (PP model).
    pub pp_max_flips: u64,
    /// Mean Gossip rounds to stabilization.
    pub gossip_rounds: f64,
    /// Gossip bound scale md(c)·ln n.
    pub gossip_bound_scale: f64,
}

/// Run E9 for one k.
pub fn gossip_cell(n: u64, k: usize, seeds: u64, master_seed: u64) -> GossipCell {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let md = monochromatic_distance(&config);

    // PP side: agent-level simulation counting, per parallel round (a
    // window of n interactions), how many times each node changed state —
    // the §1.2 statistic. A node can interact several times within one
    // window, so flips per round can exceed 1 (impossible in Gossip).
    let pp: Vec<(f64, u64)> = runner::repeat(master_seed ^ 0x99, seeds, |_rep, rng| {
        let proto = UndecidedStateDynamics::new(k);
        let mut sim = AgentSimulator::from_config(
            proto,
            CliqueScheduler::new(n as usize),
            &config.to_count_config(),
        );
        let mut flips = vec![0u32; n as usize];
        let mut max_flips = 0u32;
        let budget = crate::fig1::default_budget(n, k);
        while sim.interactions() < budget && !sim.is_usd_silent(k) {
            for _ in 0..n {
                let rec = sim.step_recorded(rng);
                if rec.initiator_changed() {
                    flips[rec.initiator] += 1;
                    max_flips = max_flips.max(flips[rec.initiator]);
                }
                if rec.responder_changed() {
                    flips[rec.responder] += 1;
                    max_flips = max_flips.max(flips[rec.responder]);
                }
            }
            flips.iter_mut().for_each(|f| *f = 0);
        }
        (sim.parallel_time(), max_flips as u64)
    });

    // Gossip side.
    let gossip: Vec<f64> = runner::repeat(master_seed ^ 0xAA, seeds, |_rep, rng| {
        let mut sim = GossipUsd::new(&config);
        let (rounds, _) = sim.run(rng, 100_000);
        rounds as f64
    });

    GossipCell {
        k,
        md,
        pp_parallel: Summary::of(&pp.iter().map(|x| x.0).collect::<Vec<_>>()).mean(),
        pp_max_flips: pp.iter().map(|x| x.1).max().unwrap_or(0),
        gossip_rounds: Summary::of(&gossip).mean(),
        gossip_bound_scale: md * (n as f64).ln(),
    }
}

/// Helper trait: USD silence check for the generic agent simulator.
trait UsdSilence {
    fn is_usd_silent(&self, k: usize) -> bool;
}

impl UsdSilence for AgentSimulator<UndecidedStateDynamics, CliqueScheduler> {
    fn is_usd_silent(&self, k: usize) -> bool {
        let counts = self.counts();
        let n: u64 = counts.iter().sum();
        counts[k] == n || (counts[k] == 0 && counts[..k].iter().filter(|&&c| c > 0).count() <= 1)
    }
}

/// E9 report.
pub fn gossip_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n.min(20_000), 3_000);
    let seeds = args.unless_quick(args.seeds, 2);
    let ks = match args.k {
        Some(k) => vec![k],
        None => vec![2, 4, 8],
    };
    require_figure1(n, &ks);
    let cells = runner::sweep(args.seed, ks, |_, &k, _| {
        gossip_cell(n, k, seeds, args.seed)
    });

    let mut report = Report::new();
    report.heading(format!(
        "E9 / Population protocol vs Gossip model, n={}",
        fmt_thousands(n)
    ));
    report.text(
        "Section 1.2: in the Gossip model every node updates once per \
         round, while in the PP model a node can change state several \
         times within n interactions ('max flips' column — values > 1 are \
         impossible in Gossip by construction). Gossip stabilization obeys \
         the O(md(c) log n) bound of Becchetti et al.",
    );
    let mut t = TextTable::new(&[
        "k",
        "md(c)",
        "PP T parallel",
        "PP max flips/round",
        "Gossip rounds",
        "md ln n",
        "Gossip/(md ln n)",
    ]);
    for c in &cells {
        t.row_owned(vec![
            c.k.to_string(),
            fmt_sig(c.md, 4),
            fmt_sig(c.pp_parallel, 4),
            c.pp_max_flips.to_string(),
            fmt_sig(c.gossip_rounds, 4),
            fmt_sig(c.gossip_bound_scale, 4),
            fmt_sig(c.gossip_rounds / c.gossip_bound_scale, 3),
        ]);
    }
    report.table("gossip_vs_pp", t);
    report
}

// ---------------------------------------------------------------------------
// E11: baseline comparison
// ---------------------------------------------------------------------------

/// One baseline-protocol row.
#[derive(Debug, Clone)]
pub struct BaselineRow {
    /// Protocol name.
    pub name: &'static str,
    /// Time unit: parallel time or synchronous rounds.
    pub unit: &'static str,
    /// Mean time to stabilization.
    pub time_mean: f64,
    /// Fraction of runs in which the initial plurality won.
    pub correct_rate: f64,
}

/// Run E11 at `(n, k)` with the Figure-1 bias; the USD row runs on the
/// chosen generic backend.
pub fn baseline_rows(
    backend: Backend,
    n: u64,
    k: usize,
    seeds: u64,
    master_seed: u64,
) -> Vec<BaselineRow> {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut rows = Vec::new();

    // USD (population protocol).
    let usd: Vec<(f64, bool)> = runner::repeat(master_seed ^ 1, seeds, |_r, rng| {
        let result = RunSpec::new(&config)
            .backend(backend)
            .budget(crate::fig1::default_budget(n, k))
            .run(rng);
        (result.parallel_time(n), result.plurality_won())
    });
    rows.push(summarize_baseline("USD (PP)", "parallel", &usd));

    // Voter dynamics.
    let voter: Vec<(f64, bool)> = runner::repeat(master_seed ^ 2, seeds, |_r, rng| {
        let mut sim = CountSimulator::new(VoterDynamics::new(k), &config.to_count_config_no_u());
        sim.run_to_silence(rng, 500 * n * n);
        let won = sim.config().consensus_state() == Some(0);
        (sim.parallel_time(), won)
    });
    rows.push(summarize_baseline("Voter (PP)", "parallel", &voter));

    // 3-majority (Gossip).
    let three: Vec<(f64, bool)> = runner::repeat(master_seed ^ 3, seeds, |_r, rng| {
        let mut sim = ThreeMajority::new(&config);
        let (rounds, _) = sim.run(rng, 1_000_000);
        (rounds as f64, sim.winner() == Some(0))
    });
    rows.push(summarize_baseline("3-majority (Gossip)", "rounds", &three));

    // Synchronized USD.
    let sync: Vec<(f64, bool)> = runner::repeat(master_seed ^ 4, seeds, |_r, rng| {
        let mut sim = SynchronizedUsd::new(&config);
        let (rounds, _) = sim.run(rng, 1_000_000);
        (rounds as f64, sim.winner() == Some(0))
    });
    rows.push(summarize_baseline("Synchronized USD", "rounds", &sync));

    // Four-state exact majority (k = 2 only).
    if k == 2 {
        let four: Vec<(f64, bool)> = runner::repeat(master_seed ^ 5, seeds, |_r, rng| {
            let init = pop_proto::CountConfig::from_counts(vec![config.x(0), config.x(1), 0, 0]);
            let mut sim = CountSimulator::new(FourStateMajority, &init);
            sim.run_to_silence(rng, 500 * n * n);
            let (a, b) = FourStateMajority::sides(sim.counts());
            (sim.parallel_time(), a == n && b == 0)
        });
        rows.push(summarize_baseline("4-state exact (PP)", "parallel", &four));
    }
    rows
}

fn summarize_baseline(
    name: &'static str,
    unit: &'static str,
    outcomes: &[(f64, bool)],
) -> BaselineRow {
    let times: Vec<f64> = outcomes.iter().map(|o| o.0).collect();
    let correct = outcomes.iter().filter(|o| o.1).count() as f64;
    BaselineRow {
        name,
        unit,
        time_mean: Summary::of(&times).mean(),
        correct_rate: correct / outcomes.len() as f64,
    }
}

/// Extension helper: a `UsdConfig` without the undecided slot (for
/// protocols that have no ⊥ state).
trait NoU {
    fn to_count_config_no_u(&self) -> pop_proto::CountConfig;
}

impl NoU for UsdConfig {
    fn to_count_config_no_u(&self) -> pop_proto::CountConfig {
        assert_eq!(self.u(), 0, "undecided agents present");
        pop_proto::CountConfig::from_counts(self.opinions().to_vec())
    }
}

/// E11 report.
pub fn baseline_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n.min(10_000), 2_000);
    let seeds = args.unless_quick(args.seeds, 2);
    let ks = match args.k {
        Some(k) => vec![k],
        None => [2, 5].into_iter().filter(|&k| k as u64 * 4 <= n).collect(),
    };
    let backend = args.clique_backend_or(Backend::clique_default(n, Block), n, &ks);
    require_figure1(n, &ks);
    let mut report = Report::new();
    report.heading(format!(
        "E11 / Baseline comparison at the Figure-1 bias, n={}, backend={backend}",
        fmt_thousands(n)
    ));
    report.text(
        "USD solves approximate plurality consensus fast given the bias; \
         voter dynamics is near-chance on the winner and Theta(n) parallel \
         time; the 4-state protocol is always-correct but slow; \
         Gossip-model dynamics stabilize in rounds (n interactions each).",
    );
    for k in ks {
        let rows = baseline_rows(backend, n, k, seeds, args.seed ^ (k as u64));
        let mut t = TextTable::new(&["protocol", "unit", "mean time", "plurality wins"]);
        for r in &rows {
            t.row_owned(vec![
                r.name.to_string(),
                r.unit.to_string(),
                fmt_sig(r.time_mean, 4),
                fmt_sig(r.correct_rate, 3),
            ]);
        }
        report.text(format!("k = {k}:"));
        report.table(format!("baselines_k{k}"), t);
    }
    report
}

// ---------------------------------------------------------------------------
// E12: simulator ablation
// ---------------------------------------------------------------------------

/// One engine's ablation measurements.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Engine name.
    pub name: &'static str,
    /// Stabilization-time summary (interactions).
    pub time: Summary,
    /// Each run's stabilization time (interactions), for the pairwise
    /// two-sample KS test.
    pub times: Vec<f64>,
    /// Drive throughput, interactions per second of `run_to_silence`
    /// (engine construction excluded).
    pub throughput: f64,
}

/// Run E12: the exact engines on the same clique instance. Each run builds
/// its engine with [`RunSpec::build_simulator`] (`graph` and `batchgraph`
/// on the complete graph) and drives it with `run_to_silence`; the
/// throughput is the drive's alone, total interactions over total drive
/// time of the same runs.
pub fn ablation_rows(n: u64, k: usize, seeds: u64, master_seed: u64) -> Vec<AblationRow> {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let budget = crate::fig1::default_budget(n, k);
    [
        ("CountSimulator (generic)", Backend::Count, 0xE3),
        ("BatchSimulator (generic)", Backend::Batch, 0xE4),
        (
            "BatchGraphSimulator per-event (complete)",
            Backend::Graph,
            0xE5,
        ),
        ("BatchGraphSimulator (complete)", Backend::BatchGraph, 0xE6),
    ]
    .into_iter()
    .map(|(name, backend, stream)| {
        let runs = runner::repeat(master_seed ^ stream, seeds, |_r, rng| {
            let mut sim = RunSpec::new(&config).backend(backend).build_simulator(rng);
            let start = std::time::Instant::now();
            let (t, _) = sim.run_to_silence(rng, budget);
            (t, start.elapsed().as_secs_f64())
        });
        make_ablation_row(name, &runs)
    })
    .collect()
}

/// One row from `(interactions, drive seconds)` per run.
fn make_ablation_row(name: &'static str, runs: &[(u64, f64)]) -> AblationRow {
    let times: Vec<f64> = runs.iter().map(|&(t, _)| t as f64).collect();
    let (interactions, seconds) = runs
        .iter()
        .fold((0.0, 0.0), |(i, s), &(t, d)| (i + t as f64, s + d));
    AblationRow {
        name,
        time: Summary::of(&times),
        times,
        throughput: interactions / seconds.max(1e-9),
    }
}

/// Significance level of E12's pairwise two-sample KS test.
const ABLATION_KS_ALPHA: f64 = 0.01;

/// E12 report.
pub fn ablation_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n.min(5_000), 1_500);
    let k = args.k_or(4);
    let seeds = args.unless_quick(args.seeds.max(40), 10);
    require_figure1(n, &[k]);
    let rows = ablation_rows(n, k, seeds, args.seed);

    let mut report = Report::new();
    report.heading(format!(
        "E12 / Simulator ablation, n={}, k={k}, {seeds} seeds",
        fmt_thousands(n)
    ));
    report.text(
        "All engines simulate the exact same Markov chain (the two \
         BatchGraphSimulator rows, its per-event and block policies, run \
         the clique as the complete graph, capped at n = 10000); their \
         stabilization-time distributions must agree (two-sample KS per \
         pair: D at most its critical value at alpha = 0.01) while \
         throughputs differ (the point of the batch-leaping and \
         active-edge designs). Each run is built through RunSpec; \
         interactions/s times only its drive to silence, not the engine's \
         construction.",
    );
    let mut t = TextTable::new(&["engine", "mean interactions", "stderr", "interactions/s"]);
    for r in &rows {
        t.row_owned(vec![
            r.name.to_string(),
            fmt_sig(r.time.mean(), 5),
            fmt_sig(r.time.stderr(), 3),
            fmt_sig(r.throughput, 3),
        ]);
    }
    report.table("ablation", t);
    let mut pairs = TextTable::new(&["pair", "KS D", "critical D (alpha 0.01)", "verdict"]);
    for i in 0..rows.len() {
        for j in (i + 1)..rows.len() {
            let (a, b) = (&rows[i].times, &rows[j].times);
            let d = ks_statistic(a, b);
            let critical = ks_critical_value(a.len(), b.len(), ABLATION_KS_ALPHA);
            pairs.row_owned(vec![
                format!("{} vs {}", rows[i].name, rows[j].name),
                fmt_sig(d, 3),
                fmt_sig(critical, 3),
                if d > critical { "differs" } else { "same law" }.to_string(),
            ]);
        }
    }
    report.table("ablation_ks", pairs);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_grid_is_sorted_feasible() {
        let g = bias_grid(10_000, 8);
        assert!(g.len() >= 4);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g[0], 0);
    }

    #[test]
    fn bias_zero_is_near_chance_and_big_bias_wins() {
        let n = 3_000u64;
        let k = 4usize;
        let lo = bias_cell(Backend::Agent, n, k, 0, 30, 1);
        let hi = bias_cell(
            Backend::Agent,
            n,
            k,
            theory::max_admissible_bias(n, k).min(n / 2),
            30,
            1,
        );
        assert!(
            lo.win_rate < 0.7,
            "zero bias should be near chance (1/k..), got {}",
            lo.win_rate
        );
        assert!(
            hi.win_rate >= 0.95,
            "admissible bias should win w.h.p., got {}",
            hi.win_rate
        );
    }

    #[test]
    fn gossip_cell_shows_model_difference() {
        let c = gossip_cell(1_000, 2, 2, 3);
        // The PP model lets a node flip more than once within a parallel
        // round — the paper's §1.2 point. At n=1000 this is essentially
        // guaranteed at some point of the run.
        assert!(
            c.pp_max_flips >= 2,
            "expected multi-flip rounds in PP, got {}",
            c.pp_max_flips
        );
        assert!(c.gossip_rounds > 0.0);
        // Biased two-opinion start: md = 1 + (x2/x1)^2 lies strictly
        // between 1 (monochromatic) and 2 (balanced).
        assert!(c.md > 1.0 && c.md < 2.0, "md {}", c.md);
    }

    #[test]
    fn baseline_rows_cover_protocols() {
        let rows = baseline_rows(Backend::Agent, 500, 2, 3, 4);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert!(names.contains(&"USD (PP)"));
        assert!(names.contains(&"4-state exact (PP)"));
        assert!(names.contains(&"Voter (PP)"));
        // The 4-state protocol must be perfectly correct at this bias.
        let four = rows
            .iter()
            .find(|r| r.name == "4-state exact (PP)")
            .unwrap();
        assert_eq!(four.correct_rate, 1.0);
        // USD with the fig1 bias must also win.
        let usd = rows.iter().find(|r| r.name == "USD (PP)").unwrap();
        assert!(usd.correct_rate >= 0.5);
    }

    #[test]
    fn ablation_distributions_agree() {
        let rows = ablation_rows(800, 3, 60, 5);
        assert_eq!(rows.len(), 4);
        assert!(rows
            .iter()
            .any(|r| r.name == "BatchGraphSimulator per-event (complete)"));
        assert!(rows
            .iter()
            .any(|r| r.name == "BatchGraphSimulator (complete)"));
        // Means within 15% of each other.
        let means: Vec<f64> = rows.iter().map(|r| r.time.mean()).collect();
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min) / max < 0.15, "engine means diverge: {means:?}");
        for (i, a) in rows.iter().enumerate() {
            assert!(a.throughput > 0.0);
            assert_eq!(a.times.len(), 60);
            // The report's verdict: every pair of exact engines reads "same law".
            for b in &rows[i + 1..] {
                let rejected = sim_stats::ks::ks_reject(&a.times, &b.times, ABLATION_KS_ALPHA);
                assert!(!rejected, "{} vs {} differ in law", a.name, b.name);
            }
        }
    }

    #[test]
    fn reports_render_quick() {
        let args = ExpArgs {
            quick: true,
            seeds: 2,
            n: 2_000,
            ..ExpArgs::default()
        };
        assert!(bias_report(&args).render().contains("Bias sensitivity"));
        assert!(gossip_report(&args).render().contains("Gossip"));
        assert!(baseline_report(&args).render().contains("Baseline"));
        assert!(ablation_report(&args).render().contains("ablation"));
        // E11 reports the `--k` it is given and no other.
        let k7 = baseline_report(&ExpArgs { k: Some(7), ..args }).render();
        let ks: Vec<&str> = k7.lines().filter(|l| l.starts_with("k = ")).collect();
        assert_eq!(ks, ["k = 7:"], "{k7}");
    }
}
