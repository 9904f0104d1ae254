//! Generic population-protocol substrate.
//!
//! This crate implements the computational model of Angluin et al.
//! (Distributed Computing 2006/2008) exactly as formalized in §1.1 of
//! El-Hayek–Elsässer–Schmid (PODC 2025):
//!
//! * a population of `n` anonymous agents, each holding a state from a
//!   finite state set Σ;
//! * a deterministic transition function `f : Σ² → Σ²` applied to an ordered
//!   pair of interacting agents ([`Protocol`]);
//! * an output function `γ : Σ → Γ` mapping states to output values;
//! * a scheduler selecting, at each discrete time step, an ordered pair of
//!   distinct agents — uniformly at random on the clique in the paper's
//!   model ([`scheduler::CliqueScheduler`]), or restricted to the edges of an
//!   interaction graph in the general model ([`scheduler::GraphScheduler`]).
//!
//! # Simulation backends and their cost models
//!
//! Five exact engines simulate the same Markov chain, unified behind the
//! [`simulator::Simulator`] trait so drivers, experiments, the CLI
//! (`--backend agent|count|batch|graph|batchgraph|replica`) and benches
//! choose one generically:
//!
//! * [`simulator::AgentSimulator`] tracks every individual agent — the
//!   literal model: O(1) work per interaction, O(n) memory. It runs under
//!   any [`Scheduler`], clique or graph-restricted, and is the ground-truth
//!   oracle in equivalence tests, on graphs too.
//! * [`simulator::CountSimulator`] tracks only the count of agents per state
//!   and samples interacting *states* instead of interacting *agents*.
//!   Because agents are anonymous and the scheduler is uniform, the induced
//!   Markov chain on count configurations is identical; each interaction
//!   costs O(log |Σ|) via Fenwick-tree sampling and memory is O(|Σ|).
//!   Clique only.
//! * [`simulator::BatchSimulator`] leaps over whole collision-free blocks
//!   of ~√n interactions at once: it samples the multinomial split of
//!   ordered state-pairs for the block (multivariate hypergeometric
//!   chains), applies transitions count-wise, and simulates the first
//!   colliding interaction exactly; no-op-dominated phases fall back to
//!   geometric skip-ahead. Work is O(|Σ|² + log n) per block — amortized
//!   **sub-constant time per interaction** — which is what makes n = 10⁸
//!   and beyond feasible. Exact in distribution; stabilization times are
//!   exact to the interaction for protocols whose silent configurations
//!   are monochromatic (see the `simulator::batched` module docs), while
//!   arbitrary stop predicates are evaluated at batch boundaries. Clique
//!   only.
//! * [`simulator::BatchGraphSimulator`] extends the leaping idea to
//!   graph-restricted schedulers: per-agent states, the dense phase applied
//!   as vertex-disjoint matchings of pre-drawn chunks (or one draw at a
//!   time under its per-event policy, which reproduces the same trajectory
//!   with exact per-event observation), and a sparse phase that skips
//!   geometrically over no-op-dominated stretches through a pool of each
//!   edge's *active* (non-no-op) orientations, paying O(d) per
//!   **effective** interaction — the fast exact engine for [`topology`]
//!   experiments.
//! * [`simulator::ReplicaSimulator`] packs up to 64 independent replicas
//!   of one instance into one bit-plane word per agent and advances them
//!   all with one shared schedule, on the clique or on a graph.
//!
//! Rule of thumb: `agent` for per-agent statistics and as the graph-topology
//! ground truth, `count` for mid-size exact runs and exact stop predicates,
//! `batch` for large-n clique stabilization measurements, `batchgraph` for
//! non-clique topologies at scale (`graph` when every effective event must
//! be observed), `replica` for ensembles.
//!
//! Supporting modules: [`sampling`] (weighted samplers), [`graph`]
//! (interaction graphs), [`topology`] (seeded graph family generators:
//! cycle, torus, hypercube, random regular, Erdős–Rényi, complete),
//! [`observe`] (the backend-agnostic observation layer behind
//! [`Simulator::advance_observed`]), [`telemetry`] (always-on engine
//! counters, gated timing spans and the flight recorder behind
//! [`Simulator::telemetry`]), and [`checkpoint`] (the sealed snapshot
//! format behind [`Simulator::snapshot_state`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod graph;
pub mod observe;
pub mod protocol;
pub mod sampling;
pub mod scheduler;
pub mod simulator;
pub mod telemetry;
pub mod topology;

pub use checkpoint::{CheckpointError, FaultPlan, SnapshotReader, SnapshotWriter};
pub use config::CountConfig;
pub use graph::Graph;
pub use observe::{Observation, SimObserver};
pub use protocol::{OneWayEpidemic, Protocol};
pub use sampling::FenwickSampler;
pub use scheduler::{CliqueScheduler, GraphScheduler, Scheduler};
pub use simulator::{
    AgentSimulator, BatchGraphSimulator, BatchSimulator, BitwiseProtocol, CountSimulator,
    InteractionRecord, ReplicaSimulator, Simulator, StateWord, WideBatchGraphSimulator,
};
pub use telemetry::timeline::{EventHistograms, TimelineRecorder, TimelineSample};
pub use telemetry::{EngineTelemetry, SpanClock, SpanSet, SparseStats};
pub use topology::TopologyFamily;
