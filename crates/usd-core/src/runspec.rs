//! The unified run entrypoint: [`RunSpec`].
//!
//! Every way of driving a USD run — clique or topology, fire-and-forget or
//! keeping the engine, with or without a progress ticker or observer —
//! goes through one builder:
//!
//! ```
//! use sim_stats::rng::SimRng;
//! use usd_core::{Backend, RunSpec, UsdConfig};
//!
//! let config = UsdConfig::decided(vec![800, 200]);
//! let mut rng = SimRng::new(11);
//! let result = RunSpec::new(&config)
//!     .backend(Backend::Batch)
//!     .budget(u64::MAX / 2)
//!     .run(&mut rng);
//! assert!(result.stabilized());
//! ```
//!
//! A spec that names no [`backend`](RunSpec::backend) resolves one when it
//! runs: `batchgraph` on a topology, and on the clique
//! [`Backend::clique_default`] at the observation granularity the run
//! needs — [`Event`](crate::ObservationGranularity::Event) when an
//! [`observer`](RunSpec::observer) is attached,
//! [`Block`](crate::ObservationGranularity::Block) otherwise.
//!
//! Optional knobs compose instead of multiplying entrypoints:
//! [`topology`](RunSpec::topology) switches the run to a
//! [`TopologyFamily`] graph, [`replicas`](RunSpec::replicas) packs r ≤ 64
//! independent lanes into one [`ReplicaSimulator`] pass
//! ([`Backend::Replica`] only — see
//! [`Backend::capabilities`]), [`threads`](RunSpec::threads) caps the
//! worker threads of the thread-capable engines (resolved **once** at
//! builder construction from the process-wide override > the
//! `USD_THREADS` environment variable > available parallelism, then
//! carried as plain data — engines never consult the environment),
//! [`ticker`](RunSpec::ticker) attaches a chunk-boundary
//! [`RunTicker`] (heartbeats, flight recorders, checkpoint hooks), and
//! [`observer`](RunSpec::observer) streams count-change
//! [`Observation`]s to a
//! [`SimObserver`]. [`run`](RunSpec::run) returns the classified
//! [`StabilizationResult`]; [`run_keeping`](RunSpec::run_keeping) also
//! hands back the engine so telemetry, histograms, and — for replica runs
//! — the per-lane outcome survive the drive
//! ([`EnsembleOutcome::from_simulator`] reads them off the kept engine).
//!
//! Construction without driving is [`RunSpec::build_simulator`] — the one
//! place every backend (including [`Backend::Replica`]) registers; the
//! [`make_simulator`](crate::backend::make_simulator) /
//! [`make_topology_simulator`](crate::backend::make_topology_simulator)
//! helpers delegate here. Resumed runs (engine restored from a
//! [`RunCheckpoint`](crate::checkpoint::RunCheckpoint), clock mid-flight)
//! re-enter the identical chunked drive loop through [`RunSpec::drive`].
//!
//! # Admission
//!
//! The setters never panic. [`Backend::check`] decides whether a spec can
//! be built, and holds every rule: instance shape, lane count, state
//! packing, topology capability, the complete graph's
//! [`COMPLETE_GRAPH_MAX_N`](crate::backend::COMPLETE_GRAPH_MAX_N) cap,
//! feasible size and the graph's `u32` id width.
//! [`build_simulator`](RunSpec::build_simulator) and
//! [`run_keeping`](RunSpec::run_keeping) (so [`run`](RunSpec::run) too)
//! call it with the resolved backend, lane count and interaction graph —
//! `graph` and `batchgraph` on the clique resolve to the complete graph
//! ([`Backend::resolve_topology`]) — before building anything, and panic
//! with its message on `Err`; [`drive`](RunSpec::drive)
//! takes an engine already built. The binaries call [`Backend::check`] on
//! their plain inputs first and exit 2 on `Err`, so no flag reaches these
//! panics.
//!
//! # Drive loops
//!
//! Two loops drive every run. A clique run with no ticker and no observer
//! is a single `run_to_silence` call. Every other run — instrumented,
//! on a topology (the complete graph `graph` and `batchgraph` resolve on
//! the clique included), or resumed through [`RunSpec::drive`] — uses the
//! `~max(4n, 2¹⁶)`-chunked loop, which ends the run at the first chunk
//! boundary where [`Simulator::is_silent`] holds. Each engine certifies
//! graph silence itself (a frozen mixed configuration on a disconnected
//! graph counts): the graph engine and the replica engine's frozen-lane
//! scan natively, and [`AgentSimulator`] by rescanning its interaction
//! graph at the end of every observed advancement, so the chunk boundary
//! after a freeze sees it.

use crate::backend::{classify_counts, Backend, ObservationGranularity, RunTicker};
use crate::config::UsdConfig;
use crate::protocol::UndecidedStateDynamics;
use crate::stabilization::{ConsensusOutcome, StabilizationResult};
use pop_proto::simulator::shuffled_layout;
use pop_proto::{
    AgentSimulator, BatchGraphSimulator, BatchSimulator, CliqueScheduler, CountSimulator, Graph,
    GraphScheduler, Observation, Protocol, ReplicaSimulator, SimObserver, Simulator, StateWord,
    TopologyFamily,
};
use sim_stats::rng::SimRng;
use sim_stats::threads::resolve_threads;

/// Lane count a [`Backend::Replica`] run packs when
/// [`RunSpec::replicas`] is not called: one full machine word.
pub const DEFAULT_REPLICAS: u32 = 64;

/// Seed of the *internal* RNG that lays out replica lanes on the clique.
///
/// Clique replica construction must not draw from the caller's RNG so that
/// `make_simulator(backend, config)` — which has no RNG parameter — works
/// uniformly across `Backend::ALL`. Lanes still need *distinct* layouts
/// (lanes sharing one schedule from identical states would evolve
/// identically), so they come from a fixed-seed internal stream: lane
/// layouts are deterministic in `(config, lanes)` alone. On the clique the
/// stabilization law is layout-independent (agents are exchangeable), so
/// this costs no statistical generality; lane 0 keeps the canonical block
/// layout shuffled first, matching what a scalar run under the same
/// scheduler stream would hold.
const REPLICA_CLIQUE_LAYOUT_SEED: u64 = 0x5EED_1A9E_C0DE_D001;

/// A declarative description of one USD run: configuration, engine,
/// optional topology, optional replica lanes, budget, and attached
/// instrumentation. See the [module docs](self) for the routing rules.
///
/// The builder is consumed by [`run`](RunSpec::run) /
/// [`run_keeping`](RunSpec::run_keeping) /
/// [`drive`](RunSpec::drive) (the mutable ticker/observer borrows end with
/// the run); [`build_simulator`](RunSpec::build_simulator) borrows it.
pub struct RunSpec<'a> {
    config: &'a UsdConfig,
    backend: Option<Backend>,
    topology: Option<TopologyFamily>,
    topo_seed: u64,
    replicas: Option<u32>,
    threads: usize,
    budget: u64,
    span_timing: bool,
    histograms: bool,
    ticker: Option<&'a mut dyn RunTicker>,
    observer: Option<&'a mut dyn SimObserver>,
}

impl<'a> RunSpec<'a> {
    /// A run of `config` on the resolved default engine (see the
    /// [module docs](self)) with an effectively unbounded budget and no
    /// instrumentation.
    pub fn new(config: &'a UsdConfig) -> Self {
        RunSpec {
            config,
            backend: None,
            topology: None,
            topo_seed: 0,
            replicas: None,
            threads: resolve_threads(),
            budget: u64::MAX / 2,
            span_timing: false,
            histograms: false,
            ticker: None,
            observer: None,
        }
    }

    /// Select the engine (default: resolved when the run starts, see the
    /// [module docs](self)).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The engine this spec runs: the [`backend`](RunSpec::backend) set,
    /// else `batchgraph` on a topology and [`Backend::clique_default`] on
    /// the clique (event granularity when an observer is attached).
    fn engine(&self) -> Backend {
        self.backend.unwrap_or_else(|| match self.topology {
            Some(_) => Backend::BatchGraph,
            None if self.observer.is_some() => {
                Backend::clique_default(self.config.n(), ObservationGranularity::Event)
            }
            None => Backend::clique_default(self.config.n(), ObservationGranularity::Block),
        })
    }

    /// Run on a [`TopologyFamily`] graph instead of the clique. The graph
    /// is deterministic in `(family, n, topo_seed)`; the initial layout is
    /// placed uniformly at random on its vertices (drawing from the run
    /// RNG). [`Backend::check`] admits topology-capable backends only.
    pub fn topology(mut self, family: TopologyFamily) -> Self {
        self.topology = Some(family);
        self
    }

    /// Seed for the topology generator (default 0; ignored on the clique).
    pub fn topo_seed(mut self, seed: u64) -> Self {
        self.topo_seed = seed;
        self
    }

    /// Pack `replicas` independent lanes of the same configuration into
    /// one engine pass (1 ≤ r ≤ 64). Only [`Backend::Replica`] packs
    /// lanes (`capabilities().replicas`); [`Backend::check`] admits
    /// exactly 1 on every other backend. Defaults to [`DEFAULT_REPLICAS`]
    /// for the replica backend and 1 otherwise.
    pub fn replicas(mut self, replicas: u32) -> Self {
        self.replicas = Some(replicas);
        self
    }

    /// Cap the worker threads of the thread-capable engines
    /// (`capabilities().threads`: the clique batch engine's
    /// hypergeometric-stream fan-out). Defaults to the process-wide
    /// resolution at builder construction — override > `USD_THREADS` >
    /// available parallelism — so engines receive the value as plain data
    /// and never read the environment themselves. Thread count is
    /// **bit-neutral**: any value produces identical trajectories; only
    /// wall-clock changes. Values are clamped to ≥ 1; thread-incapable
    /// backends ignore it.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Interaction budget: the run ends at silence or once the scheduled
    /// interaction clock reaches this (default `u64::MAX / 2`). Replica
    /// runs advance the aggregate clock by `popcount(live)` per draw and
    /// may overshoot by at most `lanes - 1`.
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Turn the engine's span clock on before the run (no-op unless the
    /// `span-timing` feature is compiled in).
    pub fn span_timing(mut self, on: bool) -> Self {
        self.span_timing = on;
        self
    }

    /// Turn the engine's per-event histograms on before the run.
    pub fn histograms(mut self, on: bool) -> Self {
        self.histograms = on;
        self
    }

    /// Attach a chunk-boundary [`RunTicker`] (heartbeat / flight-recorder
    /// / checkpoint hook). Forces the chunked drive loop.
    pub fn ticker(mut self, ticker: &'a mut dyn RunTicker) -> Self {
        self.ticker = Some(ticker);
        self
    }

    /// Attach a count-change [`SimObserver`]: the run drives through
    /// [`Simulator::advance_observed`], so the observer sees every
    /// counts-changing boundary at the engine's granularity. An observer
    /// that returns `false` ends the run at that boundary (the ticker
    /// still ticks there); if the engine is not silent there, the result
    /// classifies as a timeout at the stopping clock.
    pub fn observer(mut self, observer: &'a mut dyn SimObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The resolved lane count: [`replicas`](RunSpec::replicas) if set,
    /// else [`DEFAULT_REPLICAS`] for [`Backend::Replica`] and 1 otherwise.
    pub fn lanes(&self) -> u32 {
        match self.replicas {
            Some(r) => r,
            None if self.engine() == Backend::Replica => DEFAULT_REPLICAS,
            None => 1,
        }
    }

    /// The resolved engine, lane count and interaction graph
    /// ([`Backend::resolve_topology`]), admitted by [`Backend::check`]:
    /// panics with the check's message on a run the engines cannot build.
    fn admit(&self) -> (Backend, u32, Option<TopologyFamily>) {
        let (backend, lanes) = (self.engine(), self.lanes());
        let topology = backend.resolve_topology(self.topology);
        let (n, k) = (self.config.n(), self.config.k());
        if let Err(e) = backend.check(n, k, lanes, topology) {
            panic!("{e}");
        }
        (backend, lanes, topology)
    }

    /// Construct the engine this spec describes, without driving it — the
    /// single registration point for every backend, clique or topology,
    /// scalar or replica. Clique construction draws nothing from `rng`
    /// (replica lane layouts come from an internal fixed-seed stream, see
    /// `REPLICA_CLIQUE_LAYOUT_SEED`'s docs); topology construction —
    /// `graph` and `batchgraph` on the clique included, which run the
    /// complete graph — draws the shuffled initial layout(s), lane 0 first
    /// for replica runs, so a scalar run from the same stream starts
    /// identically. Panics unless [`Backend::check`] admits the spec.
    pub fn build_simulator(&self, rng: &mut SimRng) -> Box<dyn Simulator> {
        let (backend, lanes, topology) = self.admit();
        match topology {
            None => self.build_clique(backend, lanes),
            Some(family) => {
                let graph = family.build(self.config.n() as usize, self.topo_seed);
                self.build_on_graph(backend, lanes, graph, rng)
            }
        }
    }

    fn build_clique(&self, backend: Backend, lanes: u32) -> Box<dyn Simulator> {
        let proto = UndecidedStateDynamics::new(self.config.k());
        let counts = self.config.to_count_config();
        match backend {
            Backend::Agent => Box::new(AgentSimulator::from_config(
                proto,
                CliqueScheduler::new(self.config.n() as usize),
                &counts,
            )),
            Backend::Count => Box::new(CountSimulator::new(proto, &counts)),
            Backend::Batch => {
                Box::new(BatchSimulator::new(proto, &counts).with_threads(self.threads))
            }
            Backend::Replica => {
                let mut layout_rng = SimRng::new(REPLICA_CLIQUE_LAYOUT_SEED);
                let layouts: Vec<Vec<usize>> = (0..lanes)
                    .map(|_| shuffled_layout(&counts, &mut layout_rng))
                    .collect();
                Box::new(ReplicaSimulator::new_clique(
                    proto,
                    self.config.n() as usize,
                    &layouts,
                ))
            }
            _ => unreachable!("Backend::resolve_topology runs {backend} on a graph"),
        }
    }

    fn build_on_graph(
        &self,
        backend: Backend,
        lanes: u32,
        graph: Graph,
        rng: &mut SimRng,
    ) -> Box<dyn Simulator> {
        let proto = UndecidedStateDynamics::new(self.config.k());
        let counts = self.config.to_count_config();
        match backend {
            Backend::Agent => Box::new(AgentSimulator::new(
                proto,
                GraphScheduler::new(graph),
                shuffled_layout(&counts, rng),
            )),
            Backend::Graph | Backend::BatchGraph => {
                graph_engine(backend, proto, &graph, shuffled_layout(&counts, rng))
            }
            Backend::Replica => {
                let layouts: Vec<Vec<usize>> =
                    (0..lanes).map(|_| shuffled_layout(&counts, rng)).collect();
                Box::new(ReplicaSimulator::new_graph(proto, graph, &layouts))
            }
            _ => unreachable!("Backend::check admitted {backend} on a topology"),
        }
    }

    /// Build the engine, drive it to stabilization, classify, and drop it.
    pub fn run(self, rng: &mut SimRng) -> StabilizationResult {
        self.run_keeping(rng).0
    }

    /// [`run`](RunSpec::run), returning the engine too, so per-engine
    /// state — telemetry, histograms, per-lane outcomes — survives the
    /// drive. The engine slot is `None` only for an edgeless topology
    /// graph (very sparse `er`): trivially silent, nothing to construct.
    /// Panics unless [`Backend::check`] admits the spec.
    pub fn run_keeping(
        mut self,
        rng: &mut SimRng,
    ) -> (StabilizationResult, Option<Box<dyn Simulator>>) {
        let k = self.config.k();
        let plurality = self.config.plurality();
        let budget = self.budget;
        // Resolve before the observer is taken: it decides the default.
        let (backend, lanes, topology) = self.admit();
        let ticker = self.ticker.take();
        let observer = self.observer.take();
        let mut sim = match topology {
            Some(family) => {
                let graph = family.build(self.config.n() as usize, self.topo_seed);
                if graph.num_edges() == 0 {
                    // Edgeless graph: nothing can ever interact.
                    let counts = self.config.to_count_config();
                    let result = classify_counts(counts.counts(), k, 0, true, plurality);
                    return (result, None);
                }
                self.build_on_graph(backend, lanes, graph, rng)
            }
            None => self.build_clique(backend, lanes),
        };
        if self.span_timing {
            sim.set_span_timing(true);
        }
        if self.histograms {
            sim.set_histograms(true);
        }
        let result = if topology.is_none() && ticker.is_none() && observer.is_none() {
            // No instrumentation on the clique: a single uninterrupted
            // `run_to_silence` (chunk boundaries can truncate the leaping
            // backends' geometric skip draws, so this distinction is
            // observable).
            drive_plain(sim.as_mut(), k, rng, budget, plurality)
        } else {
            drive_chunked(sim.as_mut(), k, rng, budget, plurality, ticker, observer)
        };
        (result, Some(sim))
    }

    /// Drive an *already-constructed* engine through the chunked loop this
    /// spec describes — the resume path: restore a simulator from a
    /// checkpoint, rebuild the spec, and drive. Chunk boundaries are a
    /// pure function of the absolute interaction clock, so a resumed drive
    /// re-enters the identical loop; the budget compares against the
    /// absolute clock.
    pub fn drive(mut self, sim: &mut dyn Simulator, rng: &mut SimRng) -> StabilizationResult {
        let k = self.config.k();
        let plurality = self.config.plurality();
        let ticker = self.ticker.take();
        let observer = self.observer.take();
        drive_chunked(sim, k, rng, self.budget, plurality, ticker, observer)
    }
}

/// The graph engine behind [`Backend::Graph`] (its per-event policy) and
/// [`Backend::BatchGraph`] (its block policy) over explicit per-agent
/// states. USD with k opinions has k + 1 states; alphabets past one byte
/// route to the u16 state-packing fallback instead of being rejected
/// (twice the state-array footprint, same engine).
fn graph_engine(
    backend: Backend,
    proto: UndecidedStateDynamics,
    graph: &Graph,
    states: Vec<usize>,
) -> Box<dyn Simulator> {
    fn build<S: StateWord>(
        per_event: bool,
        proto: UndecidedStateDynamics,
        graph: &Graph,
        states: Vec<usize>,
    ) -> Box<dyn Simulator> {
        let sim = BatchGraphSimulator::<_, S>::with_states(proto, graph, states);
        Box::new(if per_event { sim.per_event() } else { sim })
    }
    let per_event = backend == Backend::Graph;
    if proto.num_states() <= <u8 as StateWord>::LIMIT {
        build::<u8>(per_event, proto, graph, states)
    } else {
        build::<u16>(per_event, proto, graph, states)
    }
}

/// Records whether the wrapped observer asked to end the run, so the
/// chunked drivers can break instead of re-offering boundaries forever.
struct StopWatch<'o, 'p> {
    inner: &'o mut (dyn SimObserver + 'p),
    stopped: bool,
}

impl SimObserver for StopWatch<'_, '_> {
    fn observe(&mut self, obs: &Observation<'_>) -> bool {
        let keep = self.inner.observe(obs);
        if !keep {
            self.stopped = true;
        }
        keep
    }
}

/// Single uninterrupted `run_to_silence` + classification.
fn drive_plain(
    sim: &mut dyn Simulator,
    k: usize,
    rng: &mut SimRng,
    budget: u64,
    initial_plurality: Option<usize>,
) -> StabilizationResult {
    let (interactions, stabilized) = sim.run_to_silence(rng, budget);
    classify_counts(sim.counts(), k, interactions, stabilized, initial_plurality)
}

/// The `~max(4n, 2¹⁶)`-chunked drive loop with an optional ticker and
/// observer.
fn drive_chunked(
    sim: &mut dyn Simulator,
    k: usize,
    rng: &mut SimRng,
    budget: u64,
    initial_plurality: Option<usize>,
    mut ticker: Option<&mut (dyn RunTicker + '_)>,
    mut observer: Option<&mut (dyn SimObserver + '_)>,
) -> StabilizationResult {
    let chunk = (4 * sim.population()).max(1 << 16);
    let mut stopped = false;
    let (interactions, stabilized) = loop {
        let done = sim.interactions();
        if sim.is_silent() {
            break (done, true);
        }
        if done >= budget || stopped {
            break (done, false);
        }
        let horizon = ticker.as_deref().map_or(u64::MAX, |t| t.horizon(done));
        let step = chunk.min(budget - done).min(horizon).max(1);
        match observer.as_deref_mut() {
            Some(obs) => {
                let mut watch = StopWatch {
                    inner: obs,
                    stopped: false,
                };
                sim.advance_observed(rng, step, &mut watch);
                stopped = watch.stopped;
            }
            None => {
                sim.run_to_silence(rng, step);
            }
        }
        if let Some(t) = ticker.as_deref_mut() {
            t.tick(sim);
            t.checkpoint_tick(sim, rng);
        }
    };
    classify_counts(sim.counts(), k, interactions, stabilized, initial_plurality)
}

/// The outcome of one replica lane, classified exactly as a scalar run
/// would be: counts at the end of the drive, stabilization clock in the
/// lane's *private* interaction clock (the shared draw clock — directly
/// comparable to a scalar run's interaction count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneOutcome {
    /// The lane index (bit position in the packed words).
    pub lane: u32,
    /// The lane's classified result. For a lane still running at the end
    /// of the drive the outcome is a timeout at the current draw clock.
    pub result: StabilizationResult,
}

/// Per-lane results of a replica ensemble run, read off a kept engine.
///
/// The *aggregate* [`StabilizationResult`] a replica drive returns
/// classifies the lane-summed counts: it is consensus only when every lane
/// elected the *same* winner, and otherwise reports a frozen mixture even
/// though each individual lane stabilized cleanly. This type recovers what
/// the ensemble actually measured — one classified outcome per lane —
/// which is what the statistical consumers (KS suites, `topology_sweep`
/// cells, `sim_stats` summaries) want.
///
/// Built generically from the [`Simulator`] lane accessors, so it also
/// works on scalar engines (a 1-lane ensemble).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleOutcome {
    /// One classified outcome per lane, in lane order.
    pub lanes: Vec<LaneOutcome>,
}

impl EnsembleOutcome {
    /// Read the per-lane outcomes off a driven engine. `k` is the opinion
    /// count; `initial_plurality` feeds each lane's plurality bookkeeping
    /// (every lane starts from a permutation of the same configuration, so
    /// one value serves all lanes).
    pub fn from_simulator(
        sim: &dyn Simulator,
        k: usize,
        initial_plurality: Option<usize>,
    ) -> EnsembleOutcome {
        let lanes = (0..sim.lanes())
            .map(|lane| {
                let counts = sim.lane_counts(lane);
                let stabilized_at = sim.lane_stabilized_at(lane);
                let clock = stabilized_at.unwrap_or_else(|| sim.lane_clock());
                LaneOutcome {
                    lane,
                    result: classify_counts(
                        &counts,
                        k,
                        clock,
                        stabilized_at.is_some(),
                        initial_plurality,
                    ),
                }
            })
            .collect();
        EnsembleOutcome { lanes }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the ensemble has no lanes (it never does when read off an
    /// engine, but `Vec`-like types carry the pair).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// How many lanes ended with `outcome`.
    fn tally(&self, outcome: ConsensusOutcome) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.result.outcome == outcome)
            .count()
    }

    /// The lanes that stabilized within the budget: reached consensus or
    /// all-undecided absorption. A frozen lane is silent but is not among
    /// them ([`frozen_lanes`](Self::frozen_lanes) counts it).
    fn stabilized(&self) -> impl Iterator<Item = &LaneOutcome> {
        self.lanes.iter().filter(|l| {
            matches!(
                l.result.outcome,
                ConsensusOutcome::Winner(_) | ConsensusOutcome::AllUndecided
            )
        })
    }

    /// How many lanes stabilized within the budget (consensus or
    /// all-undecided absorption).
    pub fn stabilized_lanes(&self) -> usize {
        self.stabilized().count()
    }

    /// How many lanes froze in a mixed configuration (reachable only on a
    /// disconnected graph).
    pub fn frozen_lanes(&self) -> usize {
        self.tally(ConsensusOutcome::Frozen)
    }

    /// Whether every lane stabilized within the budget.
    pub fn all_stabilized(&self) -> bool {
        self.stabilized_lanes() == self.lanes.len()
    }

    /// The stabilization clocks of the lanes that stabilized (consensus or
    /// all-undecided absorption, not a freeze), in lane order, as `f64` —
    /// the sample the `sim_stats` summaries and KS comparisons consume.
    pub fn stabilization_times(&self) -> Vec<f64> {
        self.stabilized()
            .map(|l| l.result.interactions as f64)
            .collect()
    }

    /// How many lanes elected `opinion`.
    pub fn wins_for(&self, opinion: usize) -> usize {
        self.tally(ConsensusOutcome::Winner(opinion))
    }

    /// How many lanes the initial plurality opinion won.
    pub fn plurality_wins(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.result.plurality_won())
            .count()
    }

    /// How the lanes ended, in one phrase. The lane-summed aggregate
    /// reads as frozen whenever the lanes disagree; this says "froze" only
    /// when a lane froze.
    pub fn describe(&self) -> String {
        let lanes = self.len();
        let (unfinished, frozen) = (self.tally(ConsensusOutcome::Timeout), self.frozen_lanes());
        if unfinished > 0 {
            return format!("{unfinished} of {lanes} lanes exhausted the budget");
        }
        if frozen > 0 {
            return format!("{frozen} of {lanes} lanes froze in a mixed configuration");
        }
        let unanimous = self.lanes.first().map(|l| l.result.outcome);
        match unanimous.filter(|&o| self.tally(o) == lanes) {
            Some(ConsensusOutcome::Winner(w)) => {
                format!("all {lanes} lanes stabilized on opinion {}", w + 1)
            }
            Some(_) => format!("all {lanes} lanes absorbed in the all-undecided state"),
            None => format!("all {lanes} lanes stabilized; they elected different winners"),
        }
    }
}
