//! E13 — probing the lower-bound barrier with synchronization + memory.
//!
//! The paper's conclusion (§4) asks at which point slightly more memory
//! and some synchronization break the Ω(k·log(√n/(k log n))) barrier.
//! This experiment runs the plain (unsynchronized) USD head to head with
//! the idealized elimination-tournament USD
//! ([`usd_baselines::TournamentUsd`]: perfect phase barriers, O(log k)
//! extra state) across a k sweep.
//!
//! **Finding (the honest answer at simulable scales):** the tournament's
//! *scaling* in k is indeed logarithmic (⌈log₂ k⌉ phases — the barrier
//! shape is broken), but its *absolute* time does not beat plain USD at
//! practical (n, k): every non-majority match is a dead heat costing
//! Θ(log n) parallel time per phase, while plain USD's measured constant
//! per opinion is small (≈ 3, cf. Figure 1's 90 parallel-time units at
//! k = 27). The asymptotic crossover needs k ≫ log² n *inside* the
//! admissible regime k = o(√n/log n), i.e. populations far beyond
//! simulation. So synchronization + O(log k) memory change the growth
//! law immediately, but pay a multiplicative log n toll that dominates
//! at realistic sizes — a quantitative sharpening of the open question.

use crate::cli::{require_figure1, ExpArgs};
use crate::report::Report;
use crate::runner;
use sim_stats::regression::loglog_fit;
use sim_stats::summary::Summary;
use sim_stats::tables::{fmt_sig, fmt_thousands, TextTable};
use usd_baselines::TournamentUsd;
use usd_core::backend::{Backend, ObservationGranularity::Block};
use usd_core::init::InitialConfigBuilder;
use usd_core::theory::Bounds;
use usd_core::RunSpec;

/// One E13 sweep cell.
#[derive(Debug, Clone, Copy)]
pub struct BarrierCell {
    /// Number of opinions.
    pub k: usize,
    /// Plain USD mean parallel time.
    pub usd_parallel: f64,
    /// Tournament mean parallel time (span: phases overlap on disjoint
    /// agents).
    pub tournament_parallel: f64,
    /// Tournament plurality win rate.
    pub tournament_win_rate: f64,
    /// Plain USD plurality win rate.
    pub usd_win_rate: f64,
}

/// Measure one (n, k) cell for both protocols; the plain-USD side runs on
/// the chosen generic backend.
pub fn barrier_cell(
    backend: Backend,
    n: u64,
    k: usize,
    seeds: u64,
    master_seed: u64,
) -> BarrierCell {
    let config = InitialConfigBuilder::new(n, k).figure1();

    let usd: Vec<(f64, bool)> = runner::repeat(master_seed ^ 0xB1, seeds, |_r, rng| {
        let result = RunSpec::new(&config)
            .backend(backend)
            .budget(crate::fig1::default_budget(n, k))
            .run(rng);
        (result.parallel_time(n), result.plurality_won())
    });

    let tournament: Vec<(f64, bool)> = runner::repeat(master_seed ^ 0xB2, seeds, |_r, rng| {
        let t = TournamentUsd::new(config.clone());
        let result = t.run(rng);
        (result.parallel_time, result.winner == Some(0))
    });

    let mean = |v: &[(f64, bool)]| Summary::of(&v.iter().map(|x| x.0).collect::<Vec<_>>()).mean();
    let wins = |v: &[(f64, bool)]| v.iter().filter(|x| x.1).count() as f64 / v.len() as f64;
    BarrierCell {
        k,
        usd_parallel: mean(&usd),
        tournament_parallel: mean(&tournament),
        tournament_win_rate: wins(&tournament),
        usd_win_rate: wins(&usd),
    }
}

/// E13 report.
pub fn barrier_report(args: &ExpArgs) -> Report {
    let n = args.unless_quick(args.n.min(20_000), 4_000);
    let seeds = args.unless_quick(args.seeds, 2);
    let ks = match args.k {
        Some(k) => vec![k],
        None => {
            let mut ks = vec![4usize, 8, 16, 32];
            ks.retain(|&k| (k as u64) * 8 <= n);
            ks
        }
    };
    let backend = args.clique_backend_or(Backend::clique_default(n, Block), n, &ks);
    require_figure1(n, &ks);
    let cells = runner::sweep(args.seed, ks, |_, &k, _| {
        barrier_cell(backend, n, k, seeds, args.seed)
    });

    let mut report = Report::new();
    report.heading(format!(
        "E13 / Breaking the barrier (paper §4 open question), n={}, backend={backend}",
        fmt_thousands(n)
    ));
    report.text(
        "Plain USD (no synchronization, k+1 states) vs an idealized \
         elimination tournament (perfect phase barriers, O(log k) extra \
         state per node). The tournament needs only ceil(log2 k) phases, \
         so its growth in k is logarithmic — the barrier's *shape* is \
         broken — but each phase costs Theta(log n) (dead-heat matches), \
         and at simulable scales that toll exceeds plain USD's small \
         constants. Watch the scaling exponents, not the absolute times.",
    );
    let mut t = TextTable::new(&[
        "k",
        "USD T parallel",
        "tournament T parallel",
        "speedup",
        "lower bound (USD)",
        "USD wins",
        "tournament wins",
    ]);
    let mut k_vals = Vec::new();
    let mut usd_vals = Vec::new();
    let mut tour_vals = Vec::new();
    for c in &cells {
        k_vals.push(c.k as f64);
        usd_vals.push(c.usd_parallel);
        tour_vals.push(c.tournament_parallel);
        t.row_owned(vec![
            c.k.to_string(),
            fmt_sig(c.usd_parallel, 4),
            fmt_sig(c.tournament_parallel, 4),
            fmt_sig(c.usd_parallel / c.tournament_parallel.max(1e-9), 3),
            fmt_sig(Bounds::new(n, c.k).lower_bound_parallel(), 4),
            fmt_sig(c.usd_win_rate, 3),
            fmt_sig(c.tournament_win_rate, 3),
        ]);
    }
    report.table("barrier", t);
    if k_vals.len() >= 2 {
        let usd_fit = loglog_fit(&k_vals, &usd_vals);
        let tour_fit = loglog_fit(&k_vals, &tour_vals);
        let phases_small = (k_vals[0]).log2().ceil();
        let phases_large = (k_vals[k_vals.len() - 1]).log2().ceil();
        report.text(format!(
            "measured scaling exponents in k: plain USD {:.2}, tournament \
             {:.2}. Structurally the tournament runs {} -> {} phases over \
             this k range while plain USD contends with k times more \
             opinions; at simulable n the admissible-k window is narrow \
             (the theorem needs k = o(sqrt n/log n)), compressing both \
             exponents, and the tournament's Theta(log n) per-phase toll \
             keeps its absolute time above plain USD's. The barrier \
             question's answer at these scales: synchronization + O(log k) \
             memory change the phase structure but do not yet pay off.",
            usd_fit.slope, tour_fit.slope, phases_small, phases_large
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_protocols_correct_and_comparable_at_moderate_k() {
        let cell = barrier_cell(Backend::Agent, 8_000, 16, 3, 7);
        assert!(cell.usd_win_rate > 0.5, "{cell:?}");
        assert!(cell.tournament_win_rate > 0.5, "{cell:?}");
        // The E13 finding: at simulable scales the tournament does not
        // beat plain USD outright, but stays within a constant factor
        // (its log n per-phase toll vs USD's small constants).
        let ratio = cell.tournament_parallel / cell.usd_parallel;
        assert!(
            (0.2..=20.0).contains(&ratio),
            "unexpected tournament/USD ratio {ratio}: {cell:?}"
        );
    }

    #[test]
    fn tournament_growth_in_k_is_sublinear() {
        // The structural claim that survives at simulable scales: going
        // from k = 8 to k = 48 multiplies plain USD's opinion count by 6
        // but only adds 3 tournament phases (3 → 6, a factor of 2 in the
        // phase count). The tournament's time must therefore grow by far
        // less than the 6x opinion-count factor.
        let c8 = barrier_cell(Backend::Agent, 8_000, 8, 3, 8);
        let c48 = barrier_cell(Backend::Agent, 8_000, 48, 3, 8);
        let growth = c48.tournament_parallel / c8.tournament_parallel;
        assert!(
            growth < 3.5,
            "tournament time grew {growth:.2}x from k=8 to k=48; expected ~2x (phase count)"
        );
        assert!(c48.tournament_win_rate > 0.5);
    }

    #[test]
    fn report_renders_quick() {
        let args = ExpArgs {
            quick: true,
            seeds: 2,
            ..ExpArgs::default()
        };
        let s = barrier_report(&args).render();
        assert!(s.contains("Breaking the barrier"));
        assert!(s.contains("speedup"));
    }
}
