//! Measured backend × topology × n throughput grid, with machine-readable
//! output for tracking the perf trajectory across PRs.
//!
//! ```text
//! cargo run --release -p usd-bench --bin bench_backends -- \
//!     [--quick] [--json <path>]
//!     [--backend <name>]
//!     [--topology <clique|clique-k27|cycle-frontier|regular:8|torus>]
//! ```
//!
//! `--backend`/`--topology` restrict the pinned scenario grid to matching
//! rows; a combination that selects nothing (e.g. `--backend batch
//! --topology regular:8` — the clique-only engine on a graph family) is an
//! error and the binary exits with status 2 instead of silently running
//! the full grid. So is an unknown, repeated or stray flag: every workload
//! pins its own seed, so rows are comparable between commits and there is
//! no `--seed`.
//!
//! Unlike the Criterion micro-benches, every row here is one *honest
//! workload*: either a full stabilization run (clique and expander rows —
//! wall time to silence, with scheduled/effective interaction throughput
//! derived from the same run) or a fixed scheduled-interaction drive (the
//! cycle-frontier row, whose stabilization is Θ(n²) parallel time and
//! which exists to measure the no-op-dominated regime the sparse skippers
//! leap over). `--json <path>` writes the rows in the `BENCH_backends.json`
//! layout (hand-rolled JSON, no dependencies) so CI can archive the numbers and
//! regressions are visible in review diffs. Every row embeds the engine's
//! telemetry block plus its per-event histogram quantiles
//! (`EventHistograms::to_json`), so `bench_compare` can trend p50/p90/p99
//! of skip lengths, block totals, and flush sizes across PRs, not just
//! aggregate throughput.

use pop_proto::{
    AgentSimulator, BatchGraphSimulator, Graph, GraphScheduler, Simulator, TopologyFamily,
};
use sim_stats::flags::Flags;
use sim_stats::rng::SimRng;
use usd_core::backend::Backend;
use usd_core::init::InitialConfigBuilder;
use usd_core::protocol::UndecidedStateDynamics;
use usd_core::RunSpec;

/// One measured cell.
struct Row {
    backend: &'static str,
    topology: String,
    n: u64,
    mode: &'static str,
    wall_s: f64,
    scheduled: u64,
    effective: u64,
    /// The engine's event histograms as a schema-stable JSON object
    /// (`EventHistograms::to_json` — p50/p90/p99/n per per-event
    /// quantity), embedded verbatim in `Row::json` immediately before
    /// the telemetry block. Every bench run enables the histograms, so
    /// the overhead they add is part of the measured wall time (one
    /// predictable branch per event — see the pop-proto timeline docs).
    histograms: String,
    /// The engine's telemetry run report as a schema-stable JSON object
    /// (`EngineTelemetry::to_json`), embedded verbatim in `Row::json` as
    /// its LAST field so first-occurrence key scanners keep finding the
    /// row's own top-level keys first (the nested blocks repeat names
    /// like `n` and `scheduled`).
    telemetry: String,
}

impl Row {
    fn sched_per_s(&self) -> f64 {
        self.scheduled as f64 / self.wall_s
    }

    fn eff_per_s(&self) -> f64 {
        self.effective as f64 / self.wall_s
    }

    fn json(&self) -> String {
        format!(
            "{{\"backend\":\"{}\",\"topology\":\"{}\",\"n\":{},\"mode\":\"{}\",\
             \"wall_s\":{:.6},\"scheduled\":{},\"effective\":{},\
             \"scheduled_per_s\":{:.1},\"effective_per_s\":{:.1},\
             \"histograms\":{},\"telemetry\":{}}}",
            self.backend,
            self.topology,
            self.n,
            self.mode,
            self.wall_s,
            self.scheduled,
            self.effective,
            self.sched_per_s(),
            self.eff_per_s(),
            self.histograms,
            self.telemetry,
        )
    }
}

/// One row: enable `sim`'s event histograms, time `drive` on it, and read
/// the clocks, histograms and telemetry off the driven engine.
fn measure(
    backend: Backend,
    topology: String,
    n: u64,
    mode: &'static str,
    mut sim: Box<dyn Simulator>,
    drive: impl FnOnce(&mut dyn Simulator),
) -> Row {
    sim.set_histograms(true);
    let start = std::time::Instant::now();
    drive(sim.as_mut());
    Row {
        backend: backend.name(),
        topology,
        n,
        mode,
        wall_s: start.elapsed().as_secs_f64(),
        scheduled: sim.interactions(),
        effective: sim.effective_interactions(),
        // `{}` for an engine that reports no histograms, so the row still
        // parses.
        histograms: sim
            .histograms()
            .map_or_else(|| "{}".to_string(), |h| h.to_json()),
        telemetry: sim.telemetry().to_json(),
    }
}

/// The drive of every stabilization row: run to silence.
fn stabilize(sim: &mut dyn Simulator, rng: &mut SimRng) {
    sim.run_to_silence(rng, u64::MAX / 2);
}

/// Build a topology simulator for one of the graph-capable backends.
fn topo_sim(
    backend: Backend,
    family: TopologyFamily,
    n: u64,
    k: usize,
    rng: &mut SimRng,
) -> Box<dyn Simulator> {
    let config = InitialConfigBuilder::new(n, k).figure1();
    usd_core::backend::make_topology_simulator(backend, &config, family, 7, rng)
}

/// Stabilization run on a topology: wall time to graph silence.
fn topo_stabilize_row(backend: Backend, family: TopologyFamily, n: u64, k: usize) -> Row {
    let n = family.snap_n(n as usize) as u64;
    let mut rng = SimRng::new(1);
    let sim = topo_sim(backend, family, n, k, &mut rng);
    measure(backend, family.name(), n, "stabilize", sim, |sim| {
        stabilize(sim, &mut rng)
    })
}

/// Build a graph-engine simulator over explicit per-agent states.
fn explicit_sim(backend: Backend, graph: &Graph, states: Vec<usize>) -> Box<dyn Simulator> {
    let proto = UndecidedStateDynamics::new(2);
    match backend {
        Backend::Agent => Box::new(AgentSimulator::new(
            proto,
            GraphScheduler::new(graph.clone()),
            states,
        )),
        Backend::Graph => Box::new(BatchGraphSimulator::new(proto, graph, states).per_event()),
        Backend::BatchGraph => Box::new(BatchGraphSimulator::new(proto, graph, states)),
        other => panic!("{other} cannot run graph topologies"),
    }
}

/// Cycle-frontier states: two opinion domains filling half the ring each,
/// so only the two domain boundaries are active (W ≤ 8 of 2m
/// orientations) — the canonical no-op-dominated configuration.
fn frontier_states(n: usize) -> Vec<usize> {
    let mut states = vec![0usize; n];
    for s in states.iter_mut().skip(n / 2) {
        *s = 1;
    }
    states
}

/// Fixed scheduled-interaction drive on the cycle frontier (two opinion
/// domains, only the two boundaries active): the no-op-dominated regime.
fn cycle_frontier_row(backend: Backend, n: usize, target: u64) -> Row {
    let graph = TopologyFamily::Cycle.build(n, 0);
    let mut rng = SimRng::new(2);
    let sim = explicit_sim(backend, &graph, frontier_states(n));
    let label = "cycle-frontier".to_string();
    measure(backend, label, n as u64, "target", sim, |sim| loop {
        let done = sim.interactions();
        if done >= target || sim.is_silent() {
            break;
        }
        if sim.advance_changed(&mut rng, target - done).0 == 0 {
            break;
        }
    })
}

/// Full stabilization from the cycle-frontier configuration: the boundary
/// random walks must meet, so the whole run is sparse-phase work — the
/// scenario the shared block-leaping skipper (PR 5) is gated on.
fn frontier_stabilize_row(backend: Backend, n: usize) -> Row {
    let graph = TopologyFamily::Cycle.build(n, 0);
    let mut rng = SimRng::new(4);
    let sim = explicit_sim(backend, &graph, frontier_states(n));
    let label = "cycle-frontier".to_string();
    measure(backend, label, n as u64, "stabilize", sim, |sim| {
        stabilize(sim, &mut rng)
    })
}

/// Torus endgame stabilization: one minority square patch on an
/// otherwise-converged torus. Eliminating the patch is boundary-driven
/// coarsening — activity stays collapsed at the patch perimeter, so the
/// run lives almost entirely in the sparse skipper (the other gated
/// no-op-dominated scenario).
fn torus_endgame_row(backend: Backend, n: usize, patch: usize) -> Row {
    let n = TopologyFamily::Torus.snap_n(n);
    let side = (n as f64).sqrt() as usize;
    let graph = TopologyFamily::Torus.build(n, 0);
    let mut states = vec![0usize; n];
    for r in 0..patch.min(side) {
        for c in 0..patch.min(side) {
            states[r * side + c] = 1;
        }
    }
    let mut rng = SimRng::new(5);
    let sim = explicit_sim(backend, &graph, states);
    let label = "torus-endgame".to_string();
    measure(backend, label, n as u64, "stabilize", sim, |sim| {
        stabilize(sim, &mut rng)
    })
}

/// Bit-parallel replica ensemble stabilization: `lanes` independent runs
/// packed one bit-plane word per agent (clique when `family` is `None`),
/// run until every lane retires. The engine's `scheduled`/`effective`
/// counters are **lane-weighted aggregates** (each draw advances every
/// still-live lane), so this row's sched/s is the *effective-replica*
/// throughput — directly comparable against a scalar backend's row on the
/// same instance, whose sched/s is what `lanes` sequential runs would
/// sustain.
fn replica_ensemble_row(family: Option<TopologyFamily>, n: u64, k: usize, lanes: u32) -> Row {
    let n = family.map_or(n, |f| f.snap_n(n as usize) as u64);
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut rng = SimRng::new(6);
    let mut spec = RunSpec::new(&config)
        .backend(Backend::Replica)
        .replicas(lanes);
    if let Some(f) = family {
        spec = spec.topology(f).topo_seed(7);
    }
    let sim = spec.build_simulator(&mut rng);
    let label = family.map_or_else(|| "clique".to_string(), |f| f.name());
    measure(Backend::Replica, label, n, "stabilize", sim, |sim| {
        stabilize(sim, &mut rng)
    })
}

/// Clique stabilization through the generic simulator entry point (every
/// clique backend benched here is a generic-substrate engine, so
/// scheduled *and* effective counts are real).
/// `label` is the row's topology label.
fn clique_row(backend: Backend, n: u64, k: usize, label: &str) -> Row {
    let config = InitialConfigBuilder::new(n, k).figure1();
    let mut rng = SimRng::new(3);
    let sim = usd_core::backend::make_simulator(backend, &config);
    measure(backend, label.to_string(), n, "stabilize", sim, |sim| {
        stabilize(sim, &mut rng)
    })
}

/// One planned (not yet run) scenario of the pinned grid.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    /// Stabilization to graph silence on a sparse family.
    TopoStabilize {
        family: TopologyFamily,
        n: u64,
        k: usize,
    },
    /// Fixed scheduled-interaction drive on the cycle frontier.
    Frontier { n: usize, target: u64 },
    /// Stabilization from the cycle-frontier configuration (pure
    /// sparse-phase work; gated).
    FrontierStabilize { n: usize },
    /// Stabilization of a torus endgame: one minority patch on an
    /// otherwise-converged torus (sparse-phase dominated; gated).
    TorusEndgame { n: usize, patch: usize },
    /// Clique stabilization through the generic entry point. `label` is
    /// the row's topology label: `bench_compare` keys rows by backend,
    /// topology and n, so two alphabets at one n need distinct labels.
    Clique {
        n: u64,
        k: usize,
        label: &'static str,
    },
    /// Bit-parallel replica ensemble stabilization (`lanes` runs per
    /// pass; clique when `family` is `None`). Lane-weighted counters, so
    /// the row's throughput is effective-replica throughput.
    ReplicaEnsemble {
        family: Option<TopologyFamily>,
        n: u64,
        k: usize,
        lanes: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scenario {
    backend: Backend,
    work: Work,
}

impl Scenario {
    /// The topology label the row will carry (and `--topology` matches).
    fn topology_label(&self) -> String {
        match self.work {
            Work::TopoStabilize { family, .. } => family.name(),
            Work::Frontier { .. } | Work::FrontierStabilize { .. } => "cycle-frontier".to_string(),
            Work::TorusEndgame { .. } => "torus-endgame".to_string(),
            Work::Clique { label, .. } => label.to_string(),
            Work::ReplicaEnsemble { family, .. } => {
                family.map_or_else(|| "clique".to_string(), |f| f.name())
            }
        }
    }

    fn run(&self) -> Row {
        // Every scenario is seeded, so repeated passes do identical work
        // and differ only in wall time; short rows (tens of ms) are
        // re-timed up to twice more and the fastest pass kept — best-of-N
        // strips scheduler-preemption noise that single-shot timings of
        // sub-second workloads otherwise inherit.
        let mut best = self.run_once();
        let mut reps = 1;
        while best.wall_s < 0.6 && reps < 3 {
            let again = self.run_once();
            if again.wall_s < best.wall_s {
                best = again;
            }
            reps += 1;
        }
        best
    }

    fn run_once(&self) -> Row {
        match self.work {
            Work::TopoStabilize { family, n, k } => topo_stabilize_row(self.backend, family, n, k),
            Work::Frontier { n, target } => cycle_frontier_row(self.backend, n, target),
            Work::FrontierStabilize { n } => frontier_stabilize_row(self.backend, n),
            Work::TorusEndgame { n, patch } => torus_endgame_row(self.backend, n, patch),
            Work::Clique { n, k, label } => clique_row(self.backend, n, k, label),
            Work::ReplicaEnsemble {
                family,
                n,
                k,
                lanes,
            } => replica_ensemble_row(family, n, k, lanes),
        }
    }
}

/// The pinned scenario grid (the comparison surface of the CI perf gate —
/// keep it stable across PRs, or regenerate the committed baseline).
fn scenario_set(quick: bool) -> Vec<Scenario> {
    let reg8 = TopologyFamily::Regular { d: 8 };
    let mut set = Vec::new();
    if quick {
        for backend in [Backend::Agent, Backend::Graph, Backend::BatchGraph] {
            set.push(Scenario {
                backend,
                work: Work::TopoStabilize {
                    family: reg8,
                    n: 20_000,
                    k: 2,
                },
            });
            set.push(Scenario {
                backend,
                work: Work::Frontier {
                    n: 16_384,
                    target: 2_000_000,
                },
            });
        }
        for backend in [Backend::Graph, Backend::BatchGraph] {
            set.push(Scenario {
                backend,
                work: Work::FrontierStabilize { n: 512 },
            });
            set.push(Scenario {
                backend,
                work: Work::TorusEndgame { n: 4_096, patch: 8 },
            });
        }
        set.push(Scenario {
            backend: Backend::Batch,
            work: Work::Clique {
                n: 200_000,
                k: 4,
                label: "clique",
            },
        });
        // The bit-parallel ensemble row: 64 lanes per word on the same
        // expander instance as the scalar rows above, so the amortization
        // ratio (replica sched/s over agent sched/s) is measured in-grid.
        set.push(Scenario {
            backend: Backend::Replica,
            work: Work::ReplicaEnsemble {
                family: Some(reg8),
                n: 20_000,
                k: 2,
                lanes: 64,
            },
        });
    } else {
        // The acceptance regime: random 8-regular at n = 10⁶, the
        // effective-dominated expander where PR 2 measured parity.
        for backend in [Backend::Agent, Backend::Graph, Backend::BatchGraph] {
            for n in [100_000u64, 1_000_000] {
                set.push(Scenario {
                    backend,
                    work: Work::TopoStabilize {
                        family: reg8,
                        n,
                        k: 2,
                    },
                });
            }
            set.push(Scenario {
                backend,
                work: Work::Frontier {
                    n: 65_536,
                    target: 20_000_000,
                },
            });
        }
        for backend in [Backend::Graph, Backend::BatchGraph] {
            set.push(Scenario {
                backend,
                work: Work::TopoStabilize {
                    family: TopologyFamily::Torus,
                    n: 65_536,
                    k: 2,
                },
            });
            // The no-op-dominated *stabilization* rows (PR 5): pure
            // sparse-phase runs, so the shared block-leaping skipper is
            // inside the >40% regression gate, not just the ungated
            // target-mode frontier drive.
            set.push(Scenario {
                backend,
                work: Work::FrontierStabilize { n: 4_096 },
            });
            set.push(Scenario {
                backend,
                work: Work::TorusEndgame {
                    n: 65_536,
                    patch: 64,
                },
            });
        }
        for backend in [Backend::Count, Backend::Batch] {
            set.push(Scenario {
                backend,
                work: Work::Clique {
                    n: 1_000_000,
                    k: 4,
                    label: "clique",
                },
            });
        }
        // The paper's large-alphabet regime (a cell of E6's k grid): every
        // batch is short next to the 28² state pairs, so the batch row
        // gates the participant-shuffle pairing path, and count is its
        // single-event reference on the same instance.
        for backend in [Backend::Count, Backend::Batch] {
            set.push(Scenario {
                backend,
                work: Work::Clique {
                    n: 1_000_000,
                    k: 27,
                    label: "clique-k27",
                },
            });
        }
        // The bit-parallel ensemble rows (the replica engine's acceptance
        // regime): 64 lanes per word on the reg8 n=10⁵ instance the agent
        // row above pins — replica sched/s over agent sched/s is the
        // amortization factor vs 64 sequential agentwise runs — plus a
        // bit-sliced clique ensemble (k = 4 engages the multi-plane path).
        set.push(Scenario {
            backend: Backend::Replica,
            work: Work::ReplicaEnsemble {
                family: Some(reg8),
                n: 100_000,
                k: 2,
                lanes: 64,
            },
        });
        set.push(Scenario {
            backend: Backend::Replica,
            work: Work::ReplicaEnsemble {
                family: None,
                n: 200_000,
                k: 4,
                lanes: 64,
            },
        });
    }
    set
}

/// Whether a scenario's topology label matches a `--topology` filter
/// (exact label, or the family name before the `:` parameter).
fn topology_matches(label: &str, filter: &str) -> bool {
    label == filter || label.split(':').next() == Some(filter)
}

/// Apply `--backend`/`--topology` filters to the grid. An empty selection
/// is an invalid combination and errors.
fn select_scenarios(
    set: Vec<Scenario>,
    backend: Option<Backend>,
    topology: Option<&str>,
) -> Result<Vec<Scenario>, String> {
    if let Some(filter) = topology {
        let known = set
            .iter()
            .any(|s| topology_matches(&s.topology_label(), filter));
        if !known {
            let mut available: Vec<String> = set.iter().map(|s| s.topology_label()).collect();
            available.sort();
            available.dedup();
            return Err(format!(
                "--topology '{filter}' names no scenario in this grid \
                 (available: {})",
                available.join(", ")
            ));
        }
    }
    let selected: Vec<Scenario> = set
        .into_iter()
        .filter(|s| backend.is_none_or(|b| s.backend == b))
        .filter(|s| topology.is_none_or(|t| topology_matches(&s.topology_label(), t)))
        .collect();
    if selected.is_empty() {
        let b = backend.expect("an unfiltered grid is never empty");
        return Err(match topology {
            Some(t) => format!(
                "no scenario combines --backend {b} with --topology {t}: {} \
                 graph families; the clique rows pin count/batch/replica \
                 and the clique-k27 rows count/batch",
                if b.capabilities().topologies {
                    "that backend runs"
                } else {
                    "it cannot run"
                }
            ),
            None => format!(
                "--backend {b} appears in no scenario of this grid (graph \
                 rows pin agent/graph/batchgraph/replica; clique \
                 rows pin count/batch, or batch in quick mode, \
                 plus the replica ensemble rows)"
            ),
        });
    }
    Ok(selected)
}

/// The scenarios `args` select, whether they ask for the `--quick` grid,
/// and the `--json` path; or the one-line error naming the flag at fault.
fn parse_args(args: &[String]) -> Result<(Vec<Scenario>, bool, Option<String>), String> {
    let flags = Flags::parse(args, &["json", "backend", "topology"], &["quick"])?;
    let quick = flags.has("quick")?;
    let topology: Option<String> = flags.get("topology")?;
    let scenarios = select_scenarios(
        scenario_set(quick),
        flags.get("backend")?,
        topology.as_deref(),
    )?;
    Ok((scenarios, quick, flags.get("json")?))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scenarios, quick, json) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let rows: Vec<Row> = scenarios.iter().map(Scenario::run).collect();

    println!(
        "{:<11} {:<14} {:>9} {:>10} {:>9} {:>13} {:>12} {:>12} {:>12}",
        "backend", "topology", "n", "mode", "wall s", "scheduled", "effective", "sched/s", "eff/s"
    );
    for r in &rows {
        println!(
            "{:<11} {:<14} {:>9} {:>10} {:>9.3} {:>13} {:>12} {:>12.3e} {:>12.3e}",
            r.backend,
            r.topology,
            r.n,
            r.mode,
            r.wall_s,
            r.scheduled,
            r.effective,
            r.sched_per_s(),
            r.eff_per_s()
        );
    }

    // Headline ratio the README tracks: batchgraph vs agent effective
    // throughput on the expander rows.
    let eff = |name: &str| {
        rows.iter()
            .filter(|r| r.backend == name && r.topology.starts_with("regular"))
            .map(|r| (r.n, r.eff_per_s()))
            .collect::<Vec<_>>()
    };
    for ((n, agent), (_, bg)) in eff("agent").iter().zip(eff("batchgraph").iter()) {
        println!(
            "speedup batchgraph/agent on regular:8 n={n}: {:.2}x effective throughput",
            bg / agent
        );
    }

    // Ensemble amortization the README tracks: the replica engine's
    // lane-weighted scheduled throughput over the agentwise engine's on
    // the same expander instance — i.e. the speedup over running the
    // 64 lanes as sequential scalar runs.
    let sched = |name: &str| {
        rows.iter()
            .filter(|r| r.backend == name && r.topology.starts_with("regular"))
            .map(|r| (r.n, r.sched_per_s()))
            .collect::<Vec<_>>()
    };
    for (n, rep) in sched("replica") {
        if let Some((_, agent)) = sched("agent").iter().find(|(an, _)| *an == n) {
            println!(
                "amortization replica(64 lanes)/agent on regular:8 n={n}: \
                 {:.2}x effective-replica throughput",
                rep / agent
            );
        }
    }

    if let Some(path) = json {
        let body: Vec<String> = rows.iter().map(|r| format!("  {}", r.json())).collect();
        let doc = format!(
            "{{\n\"workload\": \"bench_backends\",\n\"quick\": {},\n\"rows\": [\n{}\n]\n}}\n",
            quick,
            body.join(",\n")
        );
        std::fs::write(&path, doc).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_grids_cover_both_modes() {
        let quick = scenario_set(true);
        let full = scenario_set(false);
        assert!(!quick.is_empty() && !full.is_empty());
        // The full grid is the gate's comparison surface: it must contain
        // the acceptance-regime rows.
        assert!(full.iter().any(|s| s.backend == Backend::BatchGraph
            && matches!(s.work, Work::TopoStabilize { n: 1_000_000, .. })));
        assert!(full
            .iter()
            .any(|s| matches!(s.work, Work::Clique { .. }) && s.backend == Backend::Batch));
        // The large-alphabet clique rows (the batch engine's shuffle path)
        // carry their own label, so the gate never pairs them with the
        // k = 4 rows at the same n.
        for backend in [Backend::Count, Backend::Batch] {
            assert!(full.iter().any(|s| s.backend == backend
                && s.work
                    == Work::Clique {
                        n: 1_000_000,
                        k: 27,
                        label: "clique-k27"
                    }));
        }
        // The no-op-dominated stabilization rows (PR 5) must be pinned in
        // both grids for both graph engines — they are what puts the
        // shared sparse skipper inside the regression gate.
        for set in [&quick, &full] {
            for backend in [Backend::Graph, Backend::BatchGraph] {
                assert!(set
                    .iter()
                    .any(|s| s.backend == backend
                        && matches!(s.work, Work::FrontierStabilize { .. })));
                assert!(set
                    .iter()
                    .any(|s| s.backend == backend && matches!(s.work, Work::TorusEndgame { .. })));
            }
            // The bit-parallel ensemble row must be pinned in both grids,
            // on the same reg8 instance as an agent row so the in-grid
            // amortization ratio has its scalar denominator.
            let ensemble_n = set.iter().find_map(|s| match s.work {
                Work::ReplicaEnsemble {
                    family: Some(TopologyFamily::Regular { .. }),
                    n,
                    lanes: 64,
                    ..
                } => Some(n),
                _ => None,
            });
            let n = ensemble_n.expect("a 64-lane reg8 replica ensemble row is pinned");
            assert!(set.iter().any(|s| s.backend == Backend::Agent
                && matches!(s.work, Work::TopoStabilize { n: an, .. } if an == n)));
        }
    }

    #[test]
    fn filters_select_matching_scenarios() {
        let sel = select_scenarios(scenario_set(false), Some(Backend::Graph), None).unwrap();
        assert!(!sel.is_empty());
        assert!(sel.iter().all(|s| s.backend == Backend::Graph));
        let sel = select_scenarios(scenario_set(false), None, Some("regular")).unwrap();
        assert!(!sel.is_empty());
        assert!(sel.iter().all(|s| s.topology_label() == "regular:8"));
        let sel =
            select_scenarios(scenario_set(false), Some(Backend::Batch), Some("clique")).unwrap();
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn invalid_backend_topology_combinations_error() {
        // Clique-only engine on a graph family: nothing to run.
        assert!(
            select_scenarios(scenario_set(false), Some(Backend::Batch), Some("regular:8")).is_err()
        );
        // Graph engine on the clique rows (those pin count/batch).
        assert!(
            select_scenarios(scenario_set(false), Some(Backend::Graph), Some("clique")).is_err()
        );
        // Unknown topology label.
        assert!(select_scenarios(scenario_set(false), None, Some("moebius")).is_err());
        // A backend absent from the (quick) grid entirely.
        assert!(select_scenarios(scenario_set(true), Some(Backend::Count), None).is_err());
    }

    #[test]
    fn flags_are_strict() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(&args)
        };
        let (selected, quick, json) =
            parse("--quick --backend batch --topology clique --json b.json").unwrap();
        assert_eq!(selected.len(), 1);
        assert!(quick);
        assert_eq!(json.as_deref(), Some("b.json"));
        for (line, why) in [
            (
                "--quick --seed 1 --backend batch --topology clique",
                "unknown flag --seed",
            ),
            ("--quick --json", "--json needs a value"),
            ("--quick --quick", "--quick given twice"),
            ("--quick b.json", "unexpected argument 'b.json'"),
        ] {
            assert_eq!(parse(line).err().as_deref(), Some(why), "{line}");
        }
    }
}
