//! Generic backend selection for USD runs.
//!
//! Six exact backends can run the Undecided State Dynamics:
//!
//! | backend | engine | cost model |
//! |---------|--------|------------|
//! | `agent` | [`pop_proto::AgentSimulator`] | O(1)/interaction, O(n) memory |
//! | `count` | [`pop_proto::CountSimulator`] | O(log k)/interaction |
//! | `batch` | [`pop_proto::BatchSimulator`] | O(k²+log n) per ~√n interactions |
//! | `graph` | [`pop_proto::BatchGraphSimulator`], per-event policy | dense O(1)/draw, one draw at a time; sparse O(d)/**effective** interaction |
//! | `batchgraph` | [`pop_proto::BatchGraphSimulator`], block policy | dense O(1)/draw in matching blocks; sparse O(d)/**effective** interaction |
//! | `replica` | [`pop_proto::ReplicaSimulator`] | r ≤ 64 packed lanes, O(⌈log₂(k+1)⌉)/draw for **all** lanes |
//!
//! `graph` and `batchgraph` are two policies of one engine on one random
//! stream: under a fixed seed they run bit-identical trajectories, and
//! `graph` returns at every effective event where `batchgraph` returns
//! per block.
//!
//! [`Backend`] names them (with `FromStr` for CLI flags);
//! [`RunSpec`] runs any of them to stabilization behind
//! one entry point, so experiments, the CLI, examples, and benches select
//! an engine generically. What each backend can do — graph topologies,
//! packed replica lanes, multi-thread execution, observation granularity,
//! checkpointing — is declared in one place,
//! [`Backend::capabilities`], which the argument-validation and
//! construction paths consult. The `agent`, `graph`, `batchgraph`, and
//! `replica` backends run on non-clique interaction
//! graphs ([`RunSpec::topology`](crate::RunSpec::topology) builds a
//! [`TopologyFamily`] graph, places the initial configuration uniformly at
//! random on its vertices, and runs the engine to graph silence, which
//! every one of them certifies itself through
//! [`Simulator::is_silent`] — frozen mixed configurations on disconnected
//! graphs included — so one chunked loop drives them all). The
//! `replica` backend is the ensemble engine: one pass advances up to 64
//! independent replicas of the same configuration, with per-lane outcomes
//! read back through [`EnsembleOutcome`](crate::EnsembleOutcome).
//!
//! A run that names no backend gets a resolved one:
//! [`Backend::clique_default`] on the clique (a pure function of n and the
//! observation granularity the caller needs) and `batchgraph` on a
//! topology. Callers that only need an engine built, not driven, use
//! [`make_simulator`] / [`make_topology_simulator`], which delegate to
//! [`RunSpec::build_simulator`](crate::RunSpec::build_simulator).
//!
//! # Telemetry availability
//!
//! Every backend populates [`pop_proto::telemetry::EngineTelemetry`];
//! counters a backend has no mechanism for stay zero. Mirroring the
//! observation-granularity table in [`pop_proto::observe`]:
//!
//! | backend | live counters |
//! |---------|---------------|
//! | `agent` | `scheduled`/`effective`, `dense_steps`, `pair_draws` |
//! | `count` | `scheduled`/`effective`, `dense_steps`, `pair_draws` |
//! | `batch` | clocks, `blocks`/`block_draws`/`block_applied`, `fallback_literal` (collision steps), `table_draws` (multivariate hypergeometric draws: 0 per short batch, drawn agent by agent; 2 + pairing rows per table-paired batch), `skip_draws`, `dense_steps`/`pair_draws` |
//! | `graph` | clocks, `dense_steps`, `pair_draws`, `sparse_enters`/`sparse_exits`, the live `sparse.*` skipper stats, spans `dense`/`sparse` |
//! | `batchgraph` | clocks, `blocks`/`block_draws`/`block_applied`, `fallback_literal` (dirty draws), `pair_draws`, `sparse_enters`/`sparse_exits`, the live `sparse.*`, spans `dense`/`gather`/`apply`/`sparse` |
//! | `replica` | `scheduled`/`effective` (*lane-aggregate*: +popcount(live)/+popcount(changed) per draw), `dense_steps`/`pair_draws` (per *draw*) |
//!
//! `scheduled`/`effective` equal the engine's interaction clocks on every
//! backend — the identity `tests/telemetry_equivalence.rs` pins; for
//! `replica` both sides of the identity are lane-aggregates (observation
//! is at lane-aggregate granularity; per-lane state is exposed through the
//! [`Simulator`] lane accessors instead). Spans stay zero unless the
//! `span-timing` feature is compiled in *and*
//! [`set_span_timing`](pop_proto::Simulator::set_span_timing) was called.
//!
//! # Event histograms
//!
//! With [`set_histograms`](pop_proto::Simulator::set_histograms) enabled,
//! every backend additionally harvests per-event quantities into
//! [`pop_proto::EventHistograms`] (log-bucketed, read back through
//! [`histograms`](pop_proto::Simulator::histograms)); fields a backend has
//! no mechanism for stay empty:
//!
//! | backend | populated histograms |
//! |---------|----------------------|
//! | `agent` | `skip_len` (literally-counted no-op runs) |
//! | `count` | `skip_len` (literally-counted no-op runs) |
//! | `batch` | `skip_len` (geometric draws), `block_size` (applied per batch), `fallback_run` (collision literals) |
//! | `graph` | `skip_len` (dense no-op runs + sparse geometric draws), `block_total` (sparse skipper) |
//! | `batchgraph` | `skip_len`, `block_size` (matching blocks), `fallback_run` (dirty draws), `block_total` (sparse skipper) |
//! | `replica` | `skip_len` (runs of draws effective in **no** lane) |
//!
//! The live `sparse.*` stats are `events`, `skip_draws`, `event_draws`,
//! `updates_immediate` (pool updates) and the log-cache hits/misses. The
//! retired deferred-update counters (`flushes`, `updates_deferred`,
//! `entries_*`, `bypass_*`) and the `flush_size`/`flush_occupancy`
//! histograms are kept for the schema and stay zero/empty on every
//! backend.

use crate::config::UsdConfig;
use crate::runspec::RunSpec;
use crate::stabilization::{ConsensusOutcome, StabilizationResult};
use pop_proto::{Simulator, TopologyFamily};
use sim_stats::rng::SimRng;

/// A named USD simulation backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Per-agent generic simulator (the literal model).
    Agent,
    /// Count-based generic simulator.
    Count,
    /// Batch-leaping generic simulator (large n).
    Batch,
    /// The graph simulator under its per-event policy (graph topologies;
    /// the complete graph is its degenerate clique instance): the
    /// `batchgraph` trajectory, observed at every effective event.
    Graph,
    /// The graph simulator under its block policy (matching-based
    /// multi-event blocks; the fast engine for graph topologies).
    BatchGraph,
    /// Bit-parallel replica engine: up to 64 independent replica runs
    /// packed one bit-plane word per agent, advanced together by one
    /// shared (pair, orientation) schedule — the ensemble engine.
    Replica,
}

impl Backend {
    /// All backends, in display order.
    pub const ALL: [Backend; 6] = [
        Backend::Agent,
        Backend::Count,
        Backend::Batch,
        Backend::Graph,
        Backend::BatchGraph,
        Backend::Replica,
    ];

    /// The flag-friendly name (`agent`, `count`, `batch`, `graph`,
    /// `batchgraph`, `replica`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Agent => "agent",
            Backend::Count => "count",
            Backend::Batch => "batch",
            Backend::Graph => "graph",
            Backend::BatchGraph => "batchgraph",
            Backend::Replica => "replica",
        }
    }

    /// Whether the backend's memory footprint scales with n (the agentwise
    /// and graph engines allocate per-agent — and, for the graph engine,
    /// per-edge — state; the replica engine allocates ⌈log₂(k+1)⌉ words
    /// per agent).
    pub fn per_agent_memory(&self) -> bool {
        matches!(
            self,
            Backend::Agent | Backend::Graph | Backend::BatchGraph | Backend::Replica
        )
    }

    /// The names of the backends whose [`capabilities`](Backend::capabilities)
    /// satisfy `pred`, comma-separated in display order: the lists error
    /// messages print, derived from the capabilities table so they cannot
    /// drift from it.
    pub fn names_where(pred: impl Fn(&Capabilities) -> bool) -> String {
        Backend::ALL
            .iter()
            .filter(|b| pred(&b.capabilities()))
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// What this backend can do — the single declaration the validation
    /// and construction paths consult. See [`Capabilities`].
    pub fn capabilities(&self) -> Capabilities {
        let granularity = match self {
            Backend::Agent | Backend::Count | Backend::Graph => ObservationGranularity::Event,
            Backend::Batch | Backend::BatchGraph | Backend::Replica => {
                ObservationGranularity::Block
            }
        };
        Capabilities {
            topologies: matches!(
                self,
                Backend::Agent | Backend::Graph | Backend::BatchGraph | Backend::Replica
            ),
            replicas: if matches!(self, Backend::Replica) {
                pop_proto::simulator::MAX_LANES
            } else {
                1
            },
            threads: matches!(self, Backend::Batch),
            observation: granularity,
            checkpointing: true,
        }
    }

    /// The clique engine a run that names no backend gets: a pure function
    /// of the population `n` and the `observation` granularity the caller
    /// needs, so a fixed seed reproduces the same run.
    ///
    /// `agent` (the literal model) up to n = 10⁵, where its state array
    /// is cache-resident; above that `count` when every effective event
    /// must be observed individually and `batch` otherwise. The crossover
    /// is the README's "Clique engine census" (`cargo run --release
    /// --example clique_census`: ns per interaction from maximum
    /// admissible bias to silence, median of 5 seeds): `agent` is the
    /// fastest engine in every measured cell up to n = 10⁵ but
    /// (10⁵, k = 2), and `batch` in every cell above. The constant has no
    /// k term.
    pub fn clique_default(n: u64, observation: ObservationGranularity) -> Backend {
        const AGENT_MAX_N: u64 = 100_000;
        if n <= AGENT_MAX_N {
            Backend::Agent
        } else {
            match observation {
                ObservationGranularity::Event => Backend::Count,
                ObservationGranularity::Block => Backend::Batch,
            }
        }
    }
}

/// How a backend's [`advance_observed`](pop_proto::Simulator::advance_observed)
/// boundaries land (see the granularity table in [`pop_proto::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservationGranularity {
    /// Observers see every effective event individually (**exact**).
    Event,
    /// Observers see block checkpoints summarizing ≥ 1 events.
    Block,
}

/// What a [`Backend`] can do, declared in one place.
///
/// Argument validation (the CLI's exit-2 paths) and the [`RunSpec`]
/// construction panics all route through this struct, so adding a
/// backend means filling in one table instead of auditing call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capabilities {
    /// Runs on non-clique interaction graphs
    /// ([`RunSpec::topology`](crate::RunSpec::topology)).
    pub topologies: bool,
    /// Maximum independent replica lanes packed into one engine pass
    /// (1 = single-lane only; the ensemble engine packs up to 64).
    pub replicas: u32,
    /// Uses multi-thread execution — [`RunSpec::threads`](crate::RunSpec::threads)
    /// changes its wall-clock (never its trajectory).
    pub threads: bool,
    /// Observation granularity of
    /// [`advance_observed`](pop_proto::Simulator::advance_observed).
    pub observation: ObservationGranularity,
    /// Supports [`snapshot_state`](pop_proto::Simulator::snapshot_state) /
    /// [`restore_state`](pop_proto::Simulator::restore_state) round-trips
    /// (all current backends do; declared so a future backend without
    /// them fails validation instead of corrupting a resume).
    pub checkpointing: bool,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "agent" => Ok(Backend::Agent),
            "count" => Ok(Backend::Count),
            "batch" => Ok(Backend::Batch),
            "graph" | "graphwise" => Ok(Backend::Graph),
            "batchgraph" | "batch-graph" => Ok(Backend::BatchGraph),
            "replica" | "ensemble" => Ok(Backend::Replica),
            "seq" | "sequential" | "skip" | "skip-ahead" => Err(format!(
                "backend '{s}' was removed: use count for per-event runs, batch otherwise"
            )),
            "pargraph" | "par-graph" => {
                Err("backend 'pargraph' was removed: use batchgraph".to_string())
            }
            other => Err(format!(
                "unknown backend '{other}' (expected {})",
                Backend::ALL.map(|b| b.name()).join("|")
            )),
        }
    }
}

/// Largest population for which [`make_simulator`] will materialize the
/// complete graph for [`Backend::Graph`] (~10⁸/2 edges ≈ 1.2 GB of edge
/// list + adjacency at the cap).
pub const COMPLETE_GRAPH_MAX_N: u64 = 10_000;

/// Construct a generic-substrate simulator for `config` as a trait object.
///
/// Every backend is a generic-substrate engine (the replica ensemble
/// engine with its default 64 lanes), so observer-driven experiments
/// select any of the six interchangeably.
/// Delegates to [`RunSpec::build_simulator`](crate::RunSpec::build_simulator)
/// — the one place backends register; clique construction draws no RNG
/// (replica lane layouts come from an internal fixed-seed stream).
/// [`Backend::Graph`] and [`Backend::BatchGraph`] here mean the
/// *complete* graph (their degenerate clique instance) and are capped at
/// [`COMPLETE_GRAPH_MAX_N`] agents.
pub fn make_simulator(backend: Backend, config: &UsdConfig) -> Box<dyn Simulator> {
    // Clique construction is RNG-free for every backend; the throwaway
    // stream is never drawn from.
    RunSpec::new(config)
        .backend(backend)
        .build_simulator(&mut SimRng::new(0))
}

/// Construct a topology-capable simulator over a [`TopologyFamily`] graph.
///
/// The graph is built deterministically from `(family, n, topo_seed)` and
/// the initial configuration is placed uniformly at random on its vertices
/// (drawing from `rng`; one shuffled layout per lane for
/// [`Backend::Replica`], lane 0 first). Only the topology-capable backends
/// are accepted (see [`Backend::capabilities`]); the population
/// must already be feasible for the family (see
/// [`TopologyFamily::snap_n`]). Delegates to
/// [`RunSpec::build_simulator`](crate::RunSpec::build_simulator).
pub fn make_topology_simulator(
    backend: Backend,
    config: &UsdConfig,
    family: TopologyFamily,
    topo_seed: u64,
    rng: &mut SimRng,
) -> Box<dyn Simulator> {
    RunSpec::new(config)
        .backend(backend)
        .topology(family)
        .topo_seed(topo_seed)
        .build_simulator(rng)
}

/// Classify a stabilized generic-substrate run from its final counts.
///
/// A silent configuration is consensus (one opinion, no ⊥), all-undecided,
/// or — reachable only on disconnected interaction graphs — a frozen mixed
/// configuration. Public so callers that drive a simulator themselves
/// (keeping it to read telemetry) can produce the same
/// [`StabilizationResult`] the packaged drivers report. Replica aggregate
/// counts are lane sums, so an ensemble whose lanes elected *different*
/// winners classifies as frozen here — use
/// [`EnsembleOutcome`](crate::EnsembleOutcome) for the per-lane verdicts.
pub fn classify_counts(
    counts: &[u64],
    k: usize,
    interactions: u64,
    stabilized: bool,
    initial_plurality: Option<usize>,
) -> StabilizationResult {
    let outcome = if !stabilized {
        ConsensusOutcome::Timeout
    } else if counts[..k].iter().all(|&c| c == 0) {
        ConsensusOutcome::AllUndecided
    } else if counts[k] == 0 && counts[..k].iter().filter(|&&c| c > 0).count() == 1 {
        let winner = counts[..k]
            .iter()
            .position(|&c| c > 0)
            .expect("a decided silent configuration has a winner");
        ConsensusOutcome::Winner(winner)
    } else {
        ConsensusOutcome::Frozen
    };
    StabilizationResult {
        outcome,
        interactions,
        initial_plurality,
    }
}

/// Chunk-boundary observer for `RunSpec`'s chunked drive loop.
///
/// The loop calls [`RunTicker::tick`] with the live engine after every
/// driving chunk, so observers can read the clocks *and* the engine's
/// [`telemetry`](pop_proto::Simulator::telemetry) (the CLI's
/// `--progress-every` heartbeat and the `--timeline` flight recorder both
/// hang off this). [`RunTicker::horizon`] additionally lets an observer
/// bound the next chunk so boundaries land exactly where it needs them —
/// the timeline recorder uses it to hit its sampling cadence marks.
///
/// Any `FnMut(&dyn Simulator)` closure is a ticker with an unbounded
/// horizon via the blanket impl.
pub trait RunTicker {
    /// Upper bound on the next driving chunk, given the scheduled
    /// interaction clock. Defaults to no bound; implementations must
    /// return at least 1.
    fn horizon(&self, _scheduled: u64) -> u64 {
        u64::MAX
    }

    /// Observe the engine at a chunk boundary.
    fn tick(&mut self, sim: &dyn Simulator);

    /// Observe the engine *and the driver RNG* at a chunk boundary — the
    /// checkpointing hook. Called by the chunked loop immediately after
    /// [`tick`](RunTicker::tick) with the RNG positioned exactly where the
    /// next chunk will resume, so an implementation can persist a
    /// bit-identical resume point ([`snapshot_state`] plus the RNG stream
    /// position). Defaults to a no-op; implementations must not draw from
    /// state they observe (the hook hands out shared references only).
    ///
    /// [`snapshot_state`]: pop_proto::Simulator::snapshot_state
    fn checkpoint_tick(&mut self, _sim: &dyn Simulator, _rng: &SimRng) {}
}

impl<F: FnMut(&dyn Simulator)> RunTicker for F {
    fn tick(&mut self, sim: &dyn Simulator) {
        self(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitialConfigBuilder;

    #[test]
    fn backend_names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!("graphwise".parse::<Backend>().unwrap(), Backend::Graph);
        assert_eq!("ensemble".parse::<Backend>().unwrap(), Backend::Replica);
        let unknown = "warp".parse::<Backend>().unwrap_err();
        assert!(
            unknown.contains("agent|count|batch|graph|batchgraph|replica"),
            "{unknown}"
        );
        assert!(Backend::Agent.per_agent_memory());
        assert!(Backend::Graph.per_agent_memory());
        assert!(!Backend::Batch.per_agent_memory());
        assert!(Backend::BatchGraph.per_agent_memory());
        assert!(Backend::Replica.per_agent_memory());
        assert_eq!(
            "batch-graph".parse::<Backend>().unwrap(),
            Backend::BatchGraph
        );
    }

    #[test]
    fn removed_backend_names_point_at_their_replacements() {
        for name in ["seq", "sequential", "skip", "skip-ahead"] {
            let err = name.parse::<Backend>().unwrap_err();
            assert!(err.contains("removed"), "{name}: {err}");
            assert!(
                err.contains("count for per-event runs") && err.contains("batch otherwise"),
                "{name}: {err}"
            );
        }
        for name in ["pargraph", "par-graph"] {
            let err = name.parse::<Backend>().unwrap_err();
            assert_eq!(err, "backend 'pargraph' was removed: use batchgraph");
        }
    }

    #[test]
    fn clique_default_is_agent_up_to_1e5_then_count_or_batch() {
        use ObservationGranularity::{Block, Event};
        for n in [2, 1_000, 100_000] {
            assert_eq!(Backend::clique_default(n, Event), Backend::Agent);
            assert_eq!(Backend::clique_default(n, Block), Backend::Agent);
        }
        for n in [100_001, 1_000_000, 10_000_000_000] {
            assert_eq!(Backend::clique_default(n, Event), Backend::Count);
            assert_eq!(Backend::clique_default(n, Block), Backend::Batch);
        }
        // An event-granularity request resolves to an event-exact engine.
        for n in [1_000, 1_000_000] {
            let b = Backend::clique_default(n, Event);
            assert_eq!(b.capabilities().observation, Event, "{b}");
        }
    }

    #[test]
    fn capabilities_declare_the_probe_truth_in_one_place() {
        for b in Backend::ALL {
            let caps = b.capabilities();
            assert_eq!(
                caps.topologies,
                matches!(
                    b,
                    Backend::Agent | Backend::Graph | Backend::BatchGraph | Backend::Replica
                ),
                "{b}"
            );
            assert_eq!(caps.replicas > 1, b == Backend::Replica, "{b}");
            assert!(caps.checkpointing, "{b}: every current engine snapshots");
            assert!(caps.replicas >= 1, "{b}");
        }
        assert_eq!(Backend::Replica.capabilities().replicas, 64);
        assert_eq!(Backend::Agent.capabilities().replicas, 1);
        // The one thread-capable engine: the clique batch engine fans its
        // hypergeometric streams out.
        for b in Backend::ALL {
            assert_eq!(b.capabilities().threads, b == Backend::Batch, "{b}");
        }
        assert_eq!(Backend::names_where(|c| c.threads), "batch");
        assert_eq!(
            Backend::names_where(|c| c.topologies),
            "agent, graph, batchgraph, replica"
        );
        // Observation granularity mirrors the table in pop_proto::observe.
        for b in [Backend::Agent, Backend::Count, Backend::Graph] {
            assert_eq!(
                b.capabilities().observation,
                ObservationGranularity::Event,
                "{b}"
            );
        }
        for b in [Backend::Batch, Backend::BatchGraph, Backend::Replica] {
            assert_eq!(
                b.capabilities().observation,
                ObservationGranularity::Block,
                "{b}"
            );
        }
    }

    #[test]
    fn all_backends_elect_the_plurality_under_strong_bias() {
        let config = UsdConfig::decided(vec![800, 200]);
        for b in Backend::ALL {
            let mut rng = SimRng::new(11);
            let result = RunSpec::new(&config).backend(b).run(&mut rng);
            assert!(result.stabilized(), "{b} did not stabilize");
            assert_eq!(
                result.outcome,
                ConsensusOutcome::Winner(0),
                "{b} elected the wrong opinion"
            );
            assert!(result.plurality_won(), "{b}");
            assert!(result.interactions > 0, "{b}");
        }
    }

    #[test]
    fn all_backends_report_all_undecided_absorption() {
        let config = UsdConfig::decided(vec![1, 1]);
        for b in Backend::ALL {
            let mut rng = SimRng::new(5);
            let result = RunSpec::new(&config)
                .backend(b)
                .budget(100_000)
                .run(&mut rng);
            assert!(result.stabilized(), "{b}");
            assert_eq!(result.outcome, ConsensusOutcome::AllUndecided, "{b}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_timeout() {
        let config = UsdConfig::decided(vec![500, 500]);
        for b in Backend::ALL {
            let mut rng = SimRng::new(7);
            let result = RunSpec::new(&config).backend(b).budget(50).run(&mut rng);
            assert_eq!(result.outcome, ConsensusOutcome::Timeout, "{b}");
            assert!(!result.stabilized(), "{b}");
        }
    }

    #[test]
    fn generic_backends_match_figure1_means() {
        // Cross-backend mean stabilization times on a small Figure-1
        // instance must agree within a generous tolerance.
        let config = InitialConfigBuilder::new(300, 3).figure1();
        let reps = 60u64;
        let mut means = [0.0f64; 4];
        for (slot, b) in [
            Backend::Agent,
            Backend::Count,
            Backend::Batch,
            Backend::Graph,
        ]
        .into_iter()
        .enumerate()
        {
            for seed in 0..reps {
                let mut rng = SimRng::new(seed * 13 + slot as u64);
                let r = RunSpec::new(&config).backend(b).run(&mut rng);
                assert!(r.stabilized());
                means[slot] += r.interactions as f64;
            }
            means[slot] /= reps as f64;
        }
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - min) / max < 0.15, "backends diverge: {means:?}");
    }

    #[test]
    fn replica_backend_packs_64_lanes_through_make_simulator() {
        let config = UsdConfig::decided(vec![60, 20]);
        let mut sim = make_simulator(Backend::Replica, &config);
        assert_eq!(sim.lanes(), 64);
        assert_eq!(sim.population(), 64 * 80);
        assert_eq!(sim.counts().iter().sum::<u64>(), 64 * 80);
        let mut rng = SimRng::new(17);
        let (t, silent) = sim.run_to_silence(&mut rng, u64::MAX / 2);
        assert!(silent);
        assert!(t > 0);
        for lane in 0..64 {
            assert!(sim.lane_stabilized_at(lane).is_some(), "lane {lane}");
            assert_eq!(sim.lane_counts(lane).iter().sum::<u64>(), 80);
        }
    }

    #[test]
    fn frozen_classification_of_silent_mixed_counts() {
        // Silent with two opinions stranded (disconnected topology): frozen.
        let r = classify_counts(&[3, 2, 1], 2, 100, true, Some(0));
        assert_eq!(r.outcome, ConsensusOutcome::Frozen);
        assert!(r.stabilized());
        assert!(!r.plurality_won());
        // Winner with leftover ⊥ is likewise frozen, not consensus.
        let r = classify_counts(&[5, 0, 1], 2, 100, true, Some(0));
        assert_eq!(r.outcome, ConsensusOutcome::Frozen);
    }

    #[test]
    fn topology_backends_stabilize_on_a_regular_graph() {
        let config = UsdConfig::decided(vec![120, 40]);
        for b in [
            Backend::Agent,
            Backend::Graph,
            Backend::BatchGraph,
            Backend::Replica,
        ] {
            let mut rng = SimRng::new(3);
            let r = RunSpec::new(&config)
                .backend(b)
                .topology(TopologyFamily::Regular { d: 4 })
                .topo_seed(7)
                .run(&mut rng);
            assert!(r.stabilized(), "{b} did not stabilize");
            assert!(r.interactions > 0, "{b}");
        }
    }

    #[test]
    fn batchgraph_runs_k_300_through_the_wide_fallback() {
        // k = 300 opinions means 301 USD states — past the one-byte
        // packing. The backend routes to the u16 fallback and stabilizes
        // instead of panicking (the old exit path told users to switch
        // engines).
        let k = 300usize;
        let counts: Vec<u64> = (0..k).map(|i| if i == 0 { 1_000 } else { 2 }).collect();
        let config = UsdConfig::decided(counts);
        let mut rng = SimRng::new(13);
        let r = RunSpec::new(&config)
            .backend(Backend::BatchGraph)
            .topology(TopologyFamily::Regular { d: 8 })
            .topo_seed(5)
            .run(&mut rng);
        assert!(r.stabilized(), "k = 300 run did not stabilize");
        assert!(r.interactions > 0);
        // The strong bias makes opinion 0 the overwhelming favourite; any
        // silent outcome is acceptable here, the point is the routing.
        let mut rng = SimRng::new(14);
        let sim = make_topology_simulator(
            Backend::BatchGraph,
            &config,
            TopologyFamily::Regular { d: 8 },
            5,
            &mut rng,
        );
        assert_eq!(sim.num_states(), k + 1);
    }

    #[test]
    fn agent_backend_terminates_on_frozen_disconnected_topologies() {
        // A very sparse ER graph strands opinions in separate components;
        // every topology backend must detect the freeze (agent through
        // the edge scan it runs after each observed advancement)
        // instead of grinding to the budget (the budget here would take
        // hours if the scan failed).
        let config = UsdConfig::decided(vec![150, 150]);
        for b in [Backend::Agent, Backend::Graph, Backend::BatchGraph] {
            let mut rng = SimRng::new(9);
            let r = RunSpec::new(&config)
                .backend(b)
                .topology(TopologyFamily::ErdosRenyi { avg_degree: 0.8 })
                .topo_seed(3)
                .run(&mut rng);
            assert!(r.stabilized(), "{b} did not detect the freeze");
            assert_eq!(r.outcome, ConsensusOutcome::Frozen, "{b}");
            assert!(
                r.interactions < 200_000_000,
                "{b} reported an inflated freeze clock: {}",
                r.interactions
            );
        }
    }

    #[test]
    fn edgeless_topology_classifies_without_simulating() {
        let config = UsdConfig::decided(vec![10, 10]);
        let mut rng = SimRng::new(2);
        let r = RunSpec::new(&config)
            .backend(Backend::Graph)
            .topology(TopologyFamily::ErdosRenyi {
                avg_degree: 1.0e-12,
            })
            .topo_seed(1)
            .budget(1_000)
            .run(&mut rng);
        assert_eq!(r.outcome, ConsensusOutcome::Frozen);
        assert_eq!(r.interactions, 0);
    }

    /// A spec that names no backend runs the resolved engine: `batchgraph`
    /// on a topology (the old clique-only default panicked there), and on
    /// the clique `clique_default` at the granularity the run needs.
    #[test]
    fn unnamed_backend_resolves_per_instance() {
        use pop_proto::checkpoint::SnapshotWriter;
        use pop_proto::simulator::snapshot_tags;
        use pop_proto::Observation;
        let engine_tag = |sim: Option<Box<dyn Simulator>>| {
            let mut w = SnapshotWriter::new();
            sim.expect("an engine ran").snapshot_state(&mut w).unwrap();
            w.into_bytes()[0]
        };
        let config = UsdConfig::decided(vec![600, 424]);
        let (r, sim) = RunSpec::new(&config)
            .topology(TopologyFamily::Torus)
            .run_keeping(&mut SimRng::new(1));
        assert!(r.stabilized());
        assert_eq!(engine_tag(sim), snapshot_tags::BATCH_GRAPH);
        for (n, observed, tag) in [
            (1_000, false, snapshot_tags::AGENT),
            (1_000, true, snapshot_tags::AGENT),
            (200_000, false, snapshot_tags::BATCH),
            (200_000, true, snapshot_tags::COUNT),
        ] {
            let config = UsdConfig::decided(vec![n / 2 + 50, n / 2 - 50]);
            let mut observer = |_: &Observation<'_>| true;
            let mut spec = RunSpec::new(&config).budget(10_000);
            if observed {
                spec = spec.observer(&mut observer);
            }
            let (_, sim) = spec.run_keeping(&mut SimRng::new(2));
            assert_eq!(engine_tag(sim), tag, "n = {n}, observed = {observed}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn complete_graph_backend_rejects_huge_populations() {
        make_simulator(
            Backend::Graph,
            &UsdConfig::decided(vec![COMPLETE_GRAPH_MAX_N, 1]),
        );
    }

    #[test]
    #[should_panic(expected = "cannot run graph topologies \
                               (topology-capable: agent, graph, batchgraph, replica)")]
    fn topology_rejects_clique_only_backends() {
        let config = UsdConfig::decided(vec![4, 4]);
        let mut rng = SimRng::new(1);
        RunSpec::new(&config)
            .backend(Backend::Batch)
            .topology(TopologyFamily::Cycle)
            .budget(1_000)
            .run(&mut rng);
    }

    #[test]
    #[should_panic(expected = "cannot pack")]
    fn scalar_backends_reject_multiple_replica_lanes() {
        let config = UsdConfig::decided(vec![4, 4]);
        let mut rng = SimRng::new(1);
        RunSpec::new(&config)
            .backend(Backend::Count)
            .replicas(8)
            .build_simulator(&mut rng);
    }
}
