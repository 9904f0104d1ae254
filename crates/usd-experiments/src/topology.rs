//! E14 — USD stabilization across interaction-graph topologies.
//!
//! The paper proves the Ω(kn log n) stabilization barrier for the uniform
//! *clique* scheduler. This experiment probes how stabilization behaves on
//! restricted topologies: for each graph family × population size it runs
//! the active-edge `graph` backend to graph silence and reports parallel
//! stabilization time, the effective-interaction fraction (how no-op
//! dominated the trajectory was — the quantity the graph engine's sparse
//! skipper skips over), the engine-telemetry rates of a representative run (the
//! retired sparse-sidecar cancel rate, now always 0, and the block
//! engines' literal-fallback rate),
//! and the plurality win rate. The `T / (k ln n)` column normalizes
//! by the clique barrier scale, making departures from the complete-graph
//! regime directly visible (expander-like families track the clique;
//! low-conductance families like the cycle pay a polynomial factor).
//!
//! Cells sweep on the deterministic [`runner`] so results are reproducible
//! for any `--threads` setting; each family snaps the nominal n to its
//! nearest feasible size (perfect square, power of two, parity).

use crate::cli::ExpArgs;
use crate::report::Report;
use crate::runner;
use pop_proto::telemetry::EngineTelemetry;
use pop_proto::topology::TopologyFamily;
use pop_proto::{Observation, Simulator, TimelineRecorder};
use sim_stats::summary::Summary;
use sim_stats::tables::{fmt_sig, fmt_thousands, TextTable};
use usd_core::backend::{Backend, RunTicker};
use usd_core::init::InitialConfigBuilder;
use usd_core::stabilization::ConsensusOutcome;
use usd_core::theory;
use usd_core::{EnsembleOutcome, RunIdentity, RunSpec};

/// One (family, n) sweep cell.
#[derive(Debug, Clone)]
pub struct TopologyCell {
    /// The graph family.
    pub family: TopologyFamily,
    /// Population after snapping to the family's feasibility constraint.
    pub n: u64,
    /// Number of opinions.
    pub k: usize,
    /// Mean parallel stabilization time over seeds (silent runs only).
    pub parallel_mean: f64,
    /// Mean effective-interaction fraction (effective / scheduled).
    pub effective_fraction: f64,
    /// Fraction of runs the initial plurality won.
    pub win_rate: f64,
    /// Fraction of runs that froze (disconnected topology) or timed out.
    pub degenerate_rate: f64,
    /// Retired sparse-sidecar cancel rate from the representative run's
    /// engine telemetry: always 0 since the skipper became an active-edge
    /// pool (the column is kept until the report schema next changes).
    pub cancel_rate: f64,
    /// Block fallback rate from the representative run's engine telemetry
    /// (dirty-draw literal re-simulations; 0 on non-block engines).
    pub fallback_rate: f64,
    /// Flight-recorder JSONL of the representative run (recorded only when
    /// the sweep was asked for timelines; written per cell by
    /// `--timeline-dir`).
    pub timeline: Option<String>,
}

/// Validate an E14 flag combination before running anything:
/// [`Backend::check`] and the Figure-1 bias ([`InitialConfigBuilder::check_bias`]) must admit
/// every cell of the sweep. Binaries call this up front and exit
/// non-zero on `Err` instead of silently falling back (or panicking deep
/// inside the sweep).
pub fn validate_args(args: &ExpArgs) -> Result<(), String> {
    let backend = args.backend_or(Backend::BatchGraph);
    let k = args.k_or(2);
    for (family, n) in grid(args) {
        let n = family.snap_n(n as usize) as u64;
        // A replica cell packs seeds.clamp(1, 64) lanes: always admitted.
        backend
            .check(n, k, 1, Some(family))
            .and_then(|()| InitialConfigBuilder::check_bias(n, k, theory::sqrt_n_log_n(n)))
            .map_err(|e| e.to_string())?;
    }
    for (flag, dir) in [
        ("--timeline-dir", &args.timeline_dir),
        ("--resume-dir", &args.resume_dir),
    ] {
        let Some(dir) = dir else { continue };
        // Fail before any work runs: create the directory and probe that
        // it is actually writable (a read-only mount or permission problem
        // would otherwise surface only after the whole sweep finished).
        let path = std::path::Path::new(dir);
        std::fs::create_dir_all(path)
            .map_err(|e| format!("{flag} {dir}: cannot create directory: {e}"))?;
        let probe = path.join(".usd_write_probe");
        std::fs::write(&probe, b"")
            .and_then(|()| std::fs::remove_file(&probe))
            .map_err(|e| format!("{flag} {dir}: directory not writable: {e}"))?;
    }
    Ok(())
}

/// The family grid for a run: `--topology` restricts to one family;
/// the default is the sparse sweep set at degree
/// [`DEFAULT_DEGREE`](pop_proto::topology::DEFAULT_DEGREE).
pub fn families(args: &ExpArgs) -> Vec<TopologyFamily> {
    let d = pop_proto::topology::DEFAULT_DEGREE;
    match args.topology {
        Some(f) => vec![f],
        None => {
            if args.quick {
                // CI smoke grid: two cheap families.
                vec![TopologyFamily::Cycle, TopologyFamily::Regular { d }]
            } else {
                TopologyFamily::sweep_set(d)
            }
        }
    }
}

/// Default per-run work budget for sweep cells, in *engine work units*:
/// effective interactions for the graph engines (`graph`/`batchgraph` skip
/// scheduled no-ops for free, so their scheduled cap stays at the
/// astronomically generous n³ — in effect the cap escalates whenever the
/// sparse skipper is active; both policies drive the *shared* sparse
/// engine, whose cost is O(1) per effective event and per changed edge,
/// so the effective meter is a tight proxy for wall time on the
/// no-op-dominated families), scheduled interactions for `agent` and for
/// the `replica` ensemble pass (which pay O(1) per scheduled draw, so
/// metering anything else would not bound their wall time). This replaces
/// the old hard
/// `default_n_cap` that silently dropped cycle and torus cells above
/// 4k/16k: every family now runs at every sweep size and a cell that
/// cannot stabilize within the budget reports an honest timeout instead
/// of vanishing from the table. ~5·10⁷ work units is tens of seconds of
/// engine work per run.
pub const DEFAULT_EFFECTIVE_BUDGET: u64 = 50_000_000;

/// Run one sweep cell: `seeds` independent stabilization runs of a
/// topology-capable backend on fresh seeded graphs, under the phase-aware
/// work budget. With `record_timeline` the representative run also
/// carries a flight recorder at the default cadence and the cell returns
/// its JSONL.
///
/// Every run goes through [`RunSpec::run_keeping`], to graph silence or
/// the budget. The effective budget is an observer that ends the run at
/// the first observation boundary at or past `eff_budget` effective
/// interactions. Only the scheduled budget depends on the backend:
/// `eff_budget` itself for `agent` (whose effective clock cannot pass its
/// scheduled one) and the n³ ceiling otherwise. A `replica` cell runs one
/// ensemble pass for its samples, metered on the scheduled clock.
#[allow(clippy::too_many_arguments)]
pub fn topology_cell(
    backend: Backend,
    family: TopologyFamily,
    n: u64,
    k: usize,
    seeds: u64,
    master_seed: u64,
    eff_budget: u64,
    record_timeline: bool,
) -> TopologyCell {
    /// The optional flight recorder behind the [`RunTicker`] interface.
    struct RecorderTick<'a>(Option<&'a mut TimelineRecorder>);
    impl RunTicker for RecorderTick<'_> {
        fn horizon(&self, scheduled: u64) -> u64 {
            self.0.as_ref().map_or(u64::MAX, |r| r.horizon(scheduled))
        }
        fn tick(&mut self, sim: &dyn Simulator) {
            if let Some(r) = self.0.as_mut() {
                r.record_if_due(sim);
            }
        }
    }
    let n = family.snap_n(n as usize) as u64;
    let config = InitialConfigBuilder::new(n, k).figure1();
    // Scheduled ceiling: low-conductance families pay up to ~n² parallel
    // time (n³ interactions) over the clique's ~kn ln n; the graph engines
    // only pay per effective interaction, so this enormous cap costs
    // nothing on no-op stretches (the effective budget is the real meter).
    let sched_budget = n.saturating_mul(n).saturating_mul(n).max(1 << 26);
    let budget = if backend == Backend::Agent {
        eff_budget.min(sched_budget)
    } else {
        sched_budget
    };
    let run_one = |rep: u64,
                   rng: &mut sim_stats::rng::SimRng,
                   recorder: Option<&mut TimelineRecorder>|
     -> (ConsensusOutcome, u64, EngineTelemetry) {
        let mut tick = RecorderTick(recorder);
        let mut meter = |obs: &Observation<'_>| obs.effective < eff_budget;
        let (result, sim) = RunSpec::new(&config)
            .backend(backend)
            .topology(family)
            .topo_seed(master_seed ^ rep)
            .budget(budget)
            .ticker(&mut tick)
            .observer(&mut meter)
            .run_keeping(rng);
        if let (Some(r), Some(s)) = (tick.0, &sim) {
            r.finish(s.as_ref());
        }
        let telemetry = sim.map_or(EngineTelemetry::new(), |s| *s.telemetry());
        (result.outcome, result.interactions, telemetry)
    };
    let outcomes = if backend.capabilities().replicas > 1 {
        // One bit-parallel ensemble pass replaces the per-seed scalar
        // runs: each of the (up to 64) lanes is an independent replica of
        // the cell, so the per-lane outcomes are the per-seed samples. A
        // lane still live at the budget classifies as a timeout, exactly
        // like an exhausted scalar run.
        let lanes = seeds.clamp(1, 64) as u32;
        let mut rng = sim_stats::rng::SimRng::new(master_seed);
        let (_, sim) = RunSpec::new(&config)
            .backend(backend)
            .topology(family)
            .topo_seed(master_seed)
            .replicas(lanes)
            .budget(eff_budget.min(sched_budget))
            .run_keeping(&mut rng);
        let sim = sim.expect("sweep families always have edges");
        EnsembleOutcome::from_simulator(sim.as_ref(), k, config.plurality())
            .lanes
            .iter()
            .map(|l| (l.result.outcome, l.result.interactions as f64 / n as f64))
            .collect()
    } else {
        runner::repeat(master_seed, seeds, |rep, rng| {
            let (outcome, interactions, _) = run_one(rep, rng, None);
            let parallel = interactions as f64 / n as f64;
            (outcome, parallel)
        })
    };
    // Engine-telemetry rates — and, when asked for, the flight-recorder
    // timeline — from one representative run (cheap statistics; the
    // stabilization outcomes above are the measured quantity): the
    // effective fraction, the retired sidecar cancel rate (always 0),
    // and the block fallback rate.
    let mut recorder = record_timeline.then(|| TimelineRecorder::with_default_cadence(n));
    let (effective_fraction, cancel_rate, fallback_rate) = {
        let mut rng = sim_stats::rng::SimRng::new(master_seed ^ 0xF00D);
        let (_, _, telemetry) = run_one(u64::MAX, &mut rng, recorder.as_mut());
        (
            telemetry.effective_fraction(),
            telemetry.cancel_rate(),
            telemetry.fallback_rate(),
        )
    };
    let silent: Vec<f64> = outcomes
        .iter()
        .filter(|(o, _)| !matches!(o, ConsensusOutcome::Timeout))
        .map(|&(_, t)| t)
        .collect();
    let wins = outcomes
        .iter()
        .filter(|(o, _)| matches!(o, ConsensusOutcome::Winner(0)))
        .count();
    let degenerate = outcomes
        .iter()
        .filter(|(o, _)| matches!(o, ConsensusOutcome::Frozen | ConsensusOutcome::Timeout))
        .count();
    TopologyCell {
        family,
        n,
        k,
        parallel_mean: if silent.is_empty() {
            f64::NAN
        } else {
            Summary::of(&silent).mean()
        },
        effective_fraction,
        win_rate: wins as f64 / outcomes.len() as f64,
        degenerate_rate: degenerate as f64 / outcomes.len() as f64,
        cancel_rate,
        fallback_rate,
        timeline: recorder.map(|r| r.to_jsonl()),
    }
}

/// File stem identifying one sweep cell's artifacts under `--resume-dir`.
/// Uses the *snapped* population so the name is stable no matter which
/// nominal n the grid asked for.
fn cell_stem(family: TopologyFamily, snapped_n: u64) -> String {
    format!("cell_{}_n{}", family.name().replace(':', "-"), snapped_n)
}

/// Identity line pinning the sweep parameters a persisted cell is valid
/// for. A resumed run with *any* differing parameter (backend, topology,
/// n, k, seeds, per-cell seed, work budget, thread count, timeline ask)
/// must not reuse the cell, so the whole line is compared verbatim on
/// load. The (backend, n, k, seed, topology) core is rendered by the same
/// [`RunIdentity`] helper that guards `RunCheckpoint` resumes, so the two
/// persistence surfaces can never drift apart in what they pin.
///
/// `threads` is the sweep's resolved worker-thread count. Trajectories
/// are thread-count invariant on every engine, but the recorded
/// wall-clock-adjacent artifacts (timeline cadence boundaries interact
/// with driving-chunk horizons, and future thread-sensitive columns) must
/// not silently mix resolutions across a resume — v2 lines omitted it and
/// a sweep resumed under a different `--threads` reused stale cells.
#[allow(clippy::too_many_arguments)]
fn cell_identity(
    backend: Backend,
    family: TopologyFamily,
    snapped_n: u64,
    k: usize,
    seeds: u64,
    cell_seed: u64,
    eff_budget: u64,
    threads: usize,
    record_timeline: bool,
) -> String {
    let core = RunIdentity::new(
        backend.name(),
        snapped_n,
        k as u32,
        cell_seed,
        family.name(),
    );
    format!(
        "# topology_sweep cell v3: {} seeds={seeds} eff_budget={eff_budget} threads={threads} \
         timeline={}",
        core.describe(),
        if record_timeline { "yes" } else { "no" }
    )
}

/// The CSV header of a persisted cell (matched verbatim on load).
const CELL_HEADER: &str = "family,n,k,parallel_mean,effective_fraction,\
                           win_rate,degenerate_rate,cancel_rate,fallback_rate";

/// Write `data` to `path` atomically (temp file + rename), so an
/// interrupted sweep never leaves a torn cell file behind.
fn write_atomic(path: &std::path::Path, data: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, data)?;
    std::fs::rename(&tmp, path)
}

/// Persist a completed cell under `--resume-dir`: the optional timeline
/// JSONL first, then the CSV row — the CSV is the commit marker a resumed
/// sweep looks for, so a crash between the two writes just recomputes the
/// cell. Failures warn and continue (persistence is an optimization; the
/// sweep's own result is already in hand).
fn store_cell(dir: &str, cell: &TopologyCell, identity: &str) {
    let stem = cell_stem(cell.family, cell.n);
    let base = std::path::Path::new(dir);
    if let Some(jsonl) = &cell.timeline {
        let path = base.join(format!("{stem}.jsonl"));
        if let Err(e) = write_atomic(&path, jsonl.as_bytes()) {
            eprintln!("topology_sweep: writing {}: {e}", path.display());
            return; // without the timeline the CSV must not commit
        }
    }
    let row = format!(
        "{identity}\n{CELL_HEADER}\n{},{},{},{},{},{},{},{},{}\n",
        cell.family.name(),
        cell.n,
        cell.k,
        cell.parallel_mean,
        cell.effective_fraction,
        cell.win_rate,
        cell.degenerate_rate,
        cell.cancel_rate,
        cell.fallback_rate,
    );
    let path = base.join(format!("{stem}.csv"));
    if let Err(e) = write_atomic(&path, row.as_bytes()) {
        eprintln!("topology_sweep: writing {}: {e}", path.display());
    }
}

/// Try to load a previously persisted cell from `--resume-dir`. Returns
/// `None` — recompute — unless the file exists, the identity line and
/// header match verbatim, the (family, n, k) echo matches the requested
/// cell, every numeric field parses, and (when the sweep asks for
/// timelines) the sibling JSONL is present. Never panics on torn or
/// stale files: any mismatch simply costs a recompute.
fn load_cell(
    dir: &str,
    family: TopologyFamily,
    snapped_n: u64,
    k: usize,
    identity: &str,
    record_timeline: bool,
) -> Option<TopologyCell> {
    let stem = cell_stem(family, snapped_n);
    let base = std::path::Path::new(dir);
    let text = std::fs::read_to_string(base.join(format!("{stem}.csv"))).ok()?;
    if !text.ends_with('\n') {
        return None; // truncated tail: the row may have lost digits
    }
    let mut lines = text.lines();
    if lines.next() != Some(identity) || lines.next() != Some(CELL_HEADER) {
        return None;
    }
    let fields: Vec<&str> = lines.next()?.split(',').collect();
    if lines.next().is_some() || fields.len() != 9 {
        return None;
    }
    if fields[0] != family.name()
        || fields[1].parse::<u64>().ok()? != snapped_n
        || fields[2].parse::<usize>().ok()? != k
    {
        return None;
    }
    let num: Vec<f64> = fields[3..]
        .iter()
        .map(|s| s.parse::<f64>())
        .collect::<Result<_, _>>()
        .ok()?;
    let timeline = if record_timeline {
        Some(std::fs::read_to_string(base.join(format!("{stem}.jsonl"))).ok()?)
    } else {
        None
    };
    Some(TopologyCell {
        family,
        n: snapped_n,
        k,
        parallel_mean: num[0],
        effective_fraction: num[1],
        win_rate: num[2],
        degenerate_rate: num[3],
        cancel_rate: num[4],
        fallback_rate: num[5],
        timeline,
    })
}

/// The sweep's (family, nominal n) cells in report order: families ×
/// population sizes.
fn grid(args: &ExpArgs) -> Vec<(TopologyFamily, u64)> {
    let single_family = args.topology.is_some();
    let ns: Vec<u64> = if args.quick {
        vec![256, 1024]
    } else {
        let top = if single_family {
            args.n.clamp(1024, 1 << 20)
        } else {
            // The full sweep now runs every family — including cycle and
            // torus — to 65 536; the phase-aware effective budget (not a
            // hard per-family cap) is what keeps the low-conductance
            // cells' wall time bounded.
            args.n.clamp(1024, 65_536)
        };
        let mut ns = vec![];
        let mut n = 1024u64;
        while n <= top {
            ns.push(n);
            n *= 4;
        }
        ns
    };
    families(args)
        .into_iter()
        .flat_map(|f| ns.iter().map(move |&n| (f, n)))
        .collect()
}

/// E14 report: families × population sizes. Call [`validate_args`] first:
/// a cell it would refuse panics inside the sweep.
pub fn topology_report(args: &ExpArgs) -> Report {
    let k = args.k_or(2);
    let backend = args.backend_or(Backend::BatchGraph);
    let single_family = args.topology.is_some();
    let seeds = args.unless_quick(args.seeds.max(5), 3);
    // An explicit --topology is an explicit ask: uncapped effective work.
    let eff_budget = if single_family {
        u64::MAX / 2
    } else {
        args.unless_quick(DEFAULT_EFFECTIVE_BUDGET, 1 << 22)
    };
    let cells = grid(args);
    let record_timeline = args.timeline_dir.is_some();
    // Resolved once for the whole sweep, exactly as the runner resolves
    // its worker count — persisted cells are valid only for this value.
    let threads = runner::resolve_threads();
    let loaded = std::sync::atomic::AtomicUsize::new(0);
    let total = cells.len();
    let results = runner::sweep(args.seed, cells, |i, &(f, n), _| {
        let cell_seed = args.seed ^ ((i as u64) << 32);
        let snapped = f.snap_n(n as usize) as u64;
        let identity = args.resume_dir.as_ref().map(|_| {
            cell_identity(
                backend,
                f,
                snapped,
                k,
                seeds,
                cell_seed,
                eff_budget,
                threads,
                record_timeline,
            )
        });
        if let (Some(dir), Some(id)) = (&args.resume_dir, &identity) {
            if let Some(cell) = load_cell(dir, f, snapped, k, id, record_timeline) {
                loaded.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return cell;
            }
        }
        let cell = topology_cell(
            backend,
            f,
            n,
            k,
            seeds,
            cell_seed,
            eff_budget,
            record_timeline,
        );
        if let (Some(dir), Some(id)) = (&args.resume_dir, &identity) {
            store_cell(dir, &cell, id);
        }
        cell
    });
    if let Some(dir) = &args.resume_dir {
        let reused = loaded.into_inner();
        println!(
            "resume-dir: {reused} of {total} cells reused from {dir}, \
             {} computed and persisted",
            total - reused
        );
    }
    if let Some(dir) = &args.timeline_dir {
        // One flight-recorder JSONL per cell, from the representative run.
        // `validate_args` probed writability up front, so failures here are
        // races (disk full, concurrent removal) worth surfacing loudly.
        for c in &results {
            let Some(jsonl) = &c.timeline else { continue };
            let file = format!("{}_n{}.jsonl", c.family.name().replace(':', "-"), c.n);
            let path = std::path::Path::new(dir).join(&file);
            if let Err(e) = std::fs::write(&path, jsonl) {
                eprintln!("topology_sweep: writing {}: {e}", path.display());
            }
        }
        println!("timelines: one JSONL per cell in {dir}");
    }

    let mut report = Report::new();
    report.heading(format!(
        "E14 / USD stabilization across topologies, k={k}, {seeds} seeds/cell, \
         backend={backend}"
    ));
    let budget_note = if single_family {
        "uncapped work budget (explicit --topology)".to_string()
    } else {
        format!(
            "phase-aware budget of {eff_budget} work units per run \
             (effective interactions for the leaping backends, whose \
             scheduled no-ops are unmetered under the sparse skipper; \
             scheduled interactions for agent — restrict with --topology \
             to lift the cap)"
        )
    };
    report.text(format!(
        "Graph-restricted USD on the {backend} backend. \
         T/(k ln n) normalizes by the clique barrier scale: values near the \
         clique's constant indicate expander-like behaviour (hypercube, \
         random regular), while low-conductance families (cycle, torus) pay \
         polynomial slowdowns. 'eff. frac', 'cancel' and 'fallback' come \
         from one run's engine telemetry: the effective-interaction \
         fraction (the no-op dominance the engine skips), the retired \
         sparse-sidecar cancel rate (always 0; the skipper now updates \
         an active-edge pool in place), and the block engines' dirty-draw \
         literal-fallback rate. \
         'degenerate' counts frozen (disconnected er) runs plus runs that \
         exhausted the {budget_note}."
    ));
    let mut t = TextTable::new(&[
        "family",
        "n",
        "T parallel",
        "T/(k ln n)",
        "eff. frac",
        "cancel",
        "fallback",
        "win rate",
        "degenerate",
    ]);
    for c in &results {
        let norm = c.parallel_mean / (c.k as f64 * (c.n as f64).ln());
        t.row_owned(vec![
            c.family.name(),
            fmt_thousands(c.n),
            fmt_sig(c.parallel_mean, 4),
            fmt_sig(norm, 3),
            fmt_sig(c.effective_fraction, 3),
            fmt_sig(c.cancel_rate, 3),
            fmt_sig(c.fallback_rate, 3),
            fmt_sig(c.win_rate, 3),
            fmt_sig(c.degenerate_rate, 3),
        ]);
    }
    report.table("topology_sweep", t);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_args_rejects_bad_combinations() {
        let ok = ExpArgs::default();
        assert!(validate_args(&ok).is_ok());
        let bad_backend = ExpArgs {
            backend: Some(Backend::Batch),
            ..ExpArgs::default()
        };
        assert!(validate_args(&bad_backend).is_err());
        let degree_on_regular = ExpArgs {
            topology: Some(TopologyFamily::Regular { d: 4 }),
            backend: Some(Backend::Graph),
            ..ExpArgs::default()
        };
        assert!(validate_args(&degree_on_regular).is_ok());
    }

    #[test]
    fn families_respect_restriction_and_degree() {
        let mut args = ExpArgs {
            topology: Some(TopologyFamily::Regular { d: 4 }),
            ..ExpArgs::default()
        };
        assert_eq!(families(&args), vec![TopologyFamily::Regular { d: 4 }]);
        args.topology = None;
        args.quick = true;
        assert_eq!(families(&args).len(), 2);
        args.quick = false;
        assert_eq!(families(&args).len(), 5);
    }

    #[test]
    fn cycle_cell_stabilizes_and_is_slower_than_clique_scale() {
        for backend in [Backend::Graph, Backend::BatchGraph] {
            let c = topology_cell(
                backend,
                TopologyFamily::Cycle,
                128,
                2,
                4,
                9,
                u64::MAX / 2,
                false,
            );
            assert_eq!(c.n, 128);
            assert!(c.degenerate_rate < 1.0, "every cycle run degenerated");
            assert!(c.parallel_mean > 0.0);
            // The cycle's effective fraction is tiny (no-op dominated) —
            // the regime the sparse skipper exists for.
            assert!(c.effective_fraction < 0.5);
        }
    }

    #[test]
    fn regular_cell_elects_plurality_mostly() {
        let c = topology_cell(
            Backend::BatchGraph,
            TopologyFamily::Regular { d: 8 },
            256,
            2,
            6,
            11,
            u64::MAX / 2,
            false,
        );
        assert!(c.win_rate >= 0.5, "win rate {}", c.win_rate);
        assert_eq!(c.degenerate_rate, 0.0);
    }

    #[test]
    fn replica_cell_consumes_one_ensemble_pass() {
        // One 64-lane bit-parallel run replaces the per-seed scalar runs;
        // the per-lane outcomes must look like a healthy cell's samples.
        let c = topology_cell(
            Backend::Replica,
            TopologyFamily::Regular { d: 8 },
            256,
            2,
            6,
            11,
            u64::MAX / 2,
            false,
        );
        assert_eq!(c.n, 256);
        assert!(c.win_rate >= 0.5, "win rate {}", c.win_rate);
        assert_eq!(c.degenerate_rate, 0.0);
        assert!(c.parallel_mean > 0.0);
    }

    #[test]
    fn exhausted_effective_budget_reports_degenerate_timeouts() {
        // A dead-heat cycle with a tiny work budget cannot stabilize; the
        // cell must say so instead of spinning. `agent` meters the budget
        // in scheduled draws, the graph engines through the effective
        // observer.
        for backend in [Backend::Agent, Backend::Graph, Backend::BatchGraph] {
            let c = topology_cell(backend, TopologyFamily::Cycle, 512, 2, 3, 5, 64, false);
            assert_eq!(
                c.degenerate_rate, 1.0,
                "{backend}: budget exhaustion not reported"
            );
            assert!(c.parallel_mean.is_nan(), "{backend}");
        }
    }

    #[test]
    fn representative_run_records_a_timeline_when_asked() {
        for backend in [Backend::Agent, Backend::Graph, Backend::BatchGraph] {
            let c = topology_cell(
                backend,
                TopologyFamily::Regular { d: 8 },
                256,
                2,
                2,
                21,
                u64::MAX / 2,
                true,
            );
            let jsonl = c
                .timeline
                .unwrap_or_else(|| panic!("{backend}: no timeline"));
            assert!(!jsonl.is_empty(), "{backend}: empty timeline");
            for line in jsonl.lines() {
                assert!(line.starts_with("{\"sample\":"), "{backend}: {line}");
                assert!(line.contains("\"phase\":"), "{backend}: {line}");
            }
        }
        // Off by default: no timeline payload rides along.
        let c = topology_cell(
            Backend::Graph,
            TopologyFamily::Cycle,
            128,
            2,
            2,
            3,
            u64::MAX / 2,
            false,
        );
        assert!(c.timeline.is_none());
    }

    #[test]
    fn validate_args_probes_timeline_dir_writability() {
        let dir = std::env::temp_dir().join("usd_timeline_dir_test");
        let ok = ExpArgs {
            timeline_dir: Some(dir.to_str().unwrap().to_string()),
            ..ExpArgs::default()
        };
        assert!(validate_args(&ok).is_ok());
        assert!(dir.is_dir(), "validate_args should create the directory");
        let _ = std::fs::remove_dir_all(&dir);
        // A path that cannot be a directory (parent is a file) is rejected.
        let file = std::env::temp_dir().join("usd_timeline_blocker");
        std::fs::write(&file, b"x").unwrap();
        let bad = ExpArgs {
            timeline_dir: Some(file.join("sub").to_str().unwrap().to_string()),
            ..ExpArgs::default()
        };
        assert!(validate_args(&bad).is_err());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn resume_dir_cells_round_trip_and_invalidate() {
        let dir = std::env::temp_dir().join(format!("usd_resume_cells_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap();
        let cell = topology_cell(
            Backend::Graph,
            TopologyFamily::Cycle,
            128,
            2,
            2,
            7,
            u64::MAX / 2,
            false,
        );
        let ident = |seed: u64, threads: usize, timeline: bool| {
            cell_identity(
                Backend::Graph,
                TopologyFamily::Cycle,
                cell.n,
                2,
                2,
                seed,
                u64::MAX / 2,
                threads,
                timeline,
            )
        };
        let id = ident(7, 4, false);
        store_cell(d, &cell, &id);
        let back = load_cell(d, TopologyFamily::Cycle, cell.n, 2, &id, false)
            .expect("persisted cell should load");
        assert_eq!(back.parallel_mean.to_bits(), cell.parallel_mean.to_bits());
        assert_eq!(back.win_rate, cell.win_rate);
        assert_eq!(back.degenerate_rate, cell.degenerate_rate);
        assert!(back.timeline.is_none());
        // The shared RunIdentity core renders the cell's full coordinates.
        assert!(id.contains("backend=graph"), "identity line: {id}");
        assert!(id.contains("topology='cycle'"), "identity line: {id}");
        assert!(id.contains("threads=4"), "identity line: {id}");
        // Any differing sweep parameter (here: the cell seed) invalidates.
        let other = ident(8, 4, false);
        assert!(load_cell(d, TopologyFamily::Cycle, cell.n, 2, &other, false).is_none());
        // Regression: v2 identity lines omitted the thread count, so a
        // sweep resumed under a different --threads silently reused cells
        // recorded at another resolution. A differing count must now
        // invalidate exactly like any other parameter.
        let other_threads = ident(7, 8, false);
        assert!(
            load_cell(d, TopologyFamily::Cycle, cell.n, 2, &other_threads, false).is_none(),
            "a cell stored at threads=4 was reused by a threads=8 sweep"
        );
        // A sweep that wants timelines cannot reuse a cell stored without.
        let with_tl = ident(7, 4, true);
        assert!(load_cell(d, TopologyFamily::Cycle, cell.n, 2, &with_tl, true).is_none());
        // A torn (truncated) file is recomputed, never trusted or panicked on.
        let path = dir.join(format!("{}.csv", cell_stem(cell.family, cell.n)));
        let text = std::fs::read_to_string(&path).unwrap();
        for cut in [0, text.len() / 3, text.len() / 2, text.len() - 1] {
            std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            assert!(
                load_cell(d, TopologyFamily::Cycle, cell.n, 2, &id, false).is_none(),
                "truncation at {cut} bytes was accepted"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_dir_reuses_completed_cells_across_reports() {
        let dir = std::env::temp_dir().join(format!("usd_resume_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = ExpArgs {
            quick: true,
            n: 512,
            resume_dir: Some(dir.to_str().unwrap().to_string()),
            ..ExpArgs::default()
        };
        validate_args(&args).unwrap();
        let first = topology_report(&args).render();
        // Quick grid: 2 families × 2 sizes, one committed CSV per cell.
        let csvs = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("csv")
            })
            .count();
        assert_eq!(csvs, 4, "one persisted CSV per completed cell");
        // A resumed run reuses every cell and reproduces the report exactly.
        let second = topology_report(&args).render();
        assert_eq!(first, second);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_args_probes_resume_dir_writability() {
        let file = std::env::temp_dir().join("usd_resume_blocker");
        std::fs::write(&file, b"x").unwrap();
        let bad = ExpArgs {
            resume_dir: Some(file.join("sub").to_str().unwrap().to_string()),
            ..ExpArgs::default()
        };
        assert!(validate_args(&bad).is_err());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn report_renders_quick() {
        let args = ExpArgs {
            quick: true,
            seeds: 2,
            n: 512,
            ..ExpArgs::default()
        };
        let rendered = topology_report(&args).render();
        assert!(rendered.contains("topologies"));
        assert!(rendered.contains("cycle"));
        assert!(rendered.contains("regular:8"));
    }
}
