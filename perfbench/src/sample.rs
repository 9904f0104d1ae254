//! One sample of a workload, run two ways.
//!
//! * [`run_e2e`] is what a user of the library runs:
//!   `RunSpec::build_simulator` plus the drive `RunSpec` itself uses (a
//!   single `run_to_silence` on the clique, `RunSpec::drive` on graphs).
//!   Only wall time around those two calls is read.
//! * [`run_traced`] makes the same sample from the public layer calls —
//!   `TopologyFamily::build`, `shuffled_layout`, the engine constructors,
//!   `Simulator::advance_changed` and `Simulator::telemetry` — and records
//!   a span around each. Its drive loop replays `RunSpec`'s call sequence
//!   exactly, so both runs consume one RNG stream and end with the same
//!   [`Fingerprint`]; a mismatch fails the traced run.

use crate::trace::{CallClass, Recorder};
use crate::workload::{Instance, Placement, SampleSeeds};
use pop_proto::simulator::shuffled_layout;
use pop_proto::{BatchGraphSimulator, BatchSimulator, EngineTelemetry, Graph, Simulator};
use sim_stats::rng::SimRng;
use std::time::Instant;
use usd_core::backend::classify_counts;
use usd_core::{Backend, RunSpec, StabilizationResult, UndecidedStateDynamics};

/// The work a sample did, as the engine counted it. Two runs of one
/// commit with one seed print identical fingerprints, so timing
/// differences between them come from the host, not from the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Scheduled interactions (the interaction clock).
    pub scheduled: u64,
    /// Effective (configuration-changing) interactions.
    pub effective: u64,
    /// Dense blocks launched.
    pub blocks: u64,
    /// Batched table draws.
    pub table_draws: u64,
    /// Sparse-skipper effective events.
    pub sparse_events: u64,
}

impl Fingerprint {
    /// The fingerprint of an engine's final telemetry.
    pub fn of(t: &EngineTelemetry) -> Fingerprint {
        Fingerprint {
            scheduled: t.scheduled,
            effective: t.effective,
            blocks: t.blocks,
            table_draws: t.table_draws,
            sparse_events: t.sparse.events,
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduled={} effective={} blocks={} table_draws={} sparse_events={}",
            self.scheduled, self.effective, self.blocks, self.table_draws, self.sparse_events
        )
    }
}

/// What the output checks look at: the classified result and the final
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleOutcome {
    /// The classified stabilization result.
    pub result: StabilizationResult,
    /// Final per-state counts.
    pub counts: Vec<u64>,
}

/// An end-to-end sample: set-up timings, drive time, outcome, work.
#[derive(Debug, Clone)]
pub struct E2eSample {
    /// Wall time of every set-up performed (only the last was driven).
    pub setup_s: Vec<f64>,
    /// Wall time of the drive.
    pub drive_s: f64,
    /// The outcome the checks judge.
    pub outcome: SampleOutcome,
    /// The engine's final telemetry.
    pub telemetry: EngineTelemetry,
}

/// A traced sample: per-span self times and the engine's counters.
#[derive(Debug, Clone)]
pub struct TracedSample {
    /// The whole set-up span.
    pub setup_s: f64,
    /// `topology.build` child span (0 on the clique).
    pub topology_s: f64,
    /// `simulator.placement` child span (0 on the clique).
    pub placement_s: f64,
    /// `simulator.new` child span.
    pub new_s: f64,
    /// The whole drive span.
    pub drive_s: f64,
    /// Summed `advance_changed` spans per class.
    pub class_s: [f64; 3],
    /// `advance_changed` calls per class.
    pub class_calls: [u64; 3],
    /// The outcome the checks judge.
    pub outcome: SampleOutcome,
    /// The engine's final telemetry.
    pub telemetry: EngineTelemetry,
}

impl TracedSample {
    /// Set-up time no child span covers: `RunSpec`'s own glue (count
    /// conversion, protocol construction, boxing, dropping the graph).
    pub fn setup_unattributed_s(&self) -> f64 {
        self.setup_s - self.topology_s - self.placement_s - self.new_s
    }

    /// Drive time no `advance_changed` span covers: the drive loop itself
    /// (silence checks, budget arithmetic, reading telemetry).
    pub fn drive_unattributed_s(&self) -> f64 {
        self.drive_s - self.class_s.iter().sum::<f64>()
    }
}

fn spec<'a>(inst: &'a Instance, seeds: SampleSeeds) -> RunSpec<'a> {
    let spec = RunSpec::new(&inst.config)
        .backend(inst.backend)
        .budget(inst.stop.budget());
    match inst.topology {
        Some(family) => spec.topology(family).topo_seed(seeds.topo),
        None => spec,
    }
}

/// Opinion 0 everywhere except a `side x side` opinion-1 square in the
/// corner of an `n`-vertex torus (row-major vertex order).
fn patch_states(n: usize, side: usize) -> Vec<usize> {
    let width = n.isqrt();
    let mut states = vec![0usize; n];
    for row in states.chunks_mut(width).take(side) {
        row[..side].fill(1);
    }
    states
}

/// The engine `RunSpec` builds on a graph for these instances: batchgraph
/// with one-byte states.
fn graph_engine(inst: &Instance, graph: &Graph, states: Vec<usize>) -> Box<dyn Simulator> {
    assert_eq!(
        inst.backend,
        Backend::BatchGraph,
        "graph instances run on batchgraph"
    );
    Box::new(BatchGraphSimulator::new(
        UndecidedStateDynamics::new(inst.k()),
        graph,
        states,
    ))
}

/// Build the sample's engine the way a user would.
fn build_e2e(inst: &Instance, seeds: SampleSeeds, rng: &mut SimRng) -> Box<dyn Simulator> {
    match inst.placement {
        Placement::Clique | Placement::Shuffled => spec(inst, seeds).build_simulator(rng),
        Placement::Patch { side } => {
            let family = inst.topology.expect("a patch needs a topology");
            let graph = family.build(inst.n() as usize, seeds.topo);
            graph_engine(inst, &graph, patch_states(inst.n() as usize, side))
        }
    }
}

fn outcome(sim: &dyn Simulator, result: StabilizationResult) -> SampleOutcome {
    SampleOutcome {
        result,
        counts: sim.counts().to_vec(),
    }
}

/// Run one end-to-end sample. Set-up runs `setup_reps` times from the
/// same RNG state (each timed); the last engine is driven.
pub fn run_e2e(inst: &Instance, seeds: SampleSeeds, setup_reps: usize) -> E2eSample {
    let reps = setup_reps.max(1);
    let mut setup_s = Vec::with_capacity(reps);
    let mut driven = None;
    for rep in 0..reps {
        let mut rng = SimRng::new(seeds.run);
        let start = Instant::now();
        let sim = build_e2e(inst, seeds, &mut rng);
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 == reps {
            driven = Some((sim, rng));
        } else {
            drop(sim);
        }
    }
    let (mut sim, mut rng) = driven.expect("at least one set-up");
    let budget = inst.stop.budget();
    let start = Instant::now();
    let result = match inst.topology {
        // RunSpec's uninstrumented clique drive: one run_to_silence.
        None => {
            let (interactions, stabilized) = sim.run_to_silence(&mut rng, budget);
            classify_counts(
                sim.counts(),
                inst.k(),
                interactions,
                stabilized,
                inst.config.plurality(),
            )
        }
        Some(_) => spec(inst, seeds).drive(sim.as_mut(), &mut rng),
    };
    let drive_s = start.elapsed().as_secs_f64();
    E2eSample {
        setup_s,
        drive_s,
        outcome: outcome(sim.as_ref(), result),
        telemetry: *sim.telemetry(),
    }
}

/// Run one traced sample, appending its spans to `rec` under span id
/// `sample`.
pub fn run_traced(
    inst: &Instance,
    seeds: SampleSeeds,
    sample: u32,
    threads: usize,
    rec: &mut Recorder,
) -> TracedSample {
    let mut rng = SimRng::new(seeds.run);
    let n = inst.n() as usize;
    let setup = Instant::now();
    let (mut sim, topology_s, placement_s, new_s) = {
        let counts = inst.config.to_count_config();
        match inst.topology {
            None => {
                assert_eq!(
                    inst.backend,
                    Backend::Batch,
                    "clique instances run on batch"
                );
                let proto = UndecidedStateDynamics::new(inst.k());
                let t = Instant::now();
                let sim: Box<dyn Simulator> =
                    Box::new(BatchSimulator::new(proto, &counts).with_threads(threads));
                let new_s = rec.close(sample, "simulator.new", "setup", t, 0, 0);
                (sim, 0.0, 0.0, new_s)
            }
            Some(family) => {
                let t = Instant::now();
                let graph = family.build(n, seeds.topo);
                let topology_s = rec.close(sample, "topology.build", "setup", t, 0, 0);
                let t = Instant::now();
                let states = match inst.placement {
                    Placement::Patch { side } => patch_states(n, side),
                    _ => shuffled_layout(&counts, &mut rng),
                };
                let placement_s = rec.close(sample, "simulator.placement", "setup", t, 0, 0);
                let t = Instant::now();
                let sim = graph_engine(inst, &graph, states);
                let new_s = rec.close(sample, "simulator.new", "setup", t, 0, 0);
                (sim, topology_s, placement_s, new_s)
            }
        }
    };
    let setup_s = rec.close(sample, "setup", "", setup, 0, 0);

    let budget = inst.stop.budget();
    let drive = Instant::now();
    let mut calls = CallStats::default();
    let (interactions, stabilized) = match inst.topology {
        None => traced_run_to_silence(sim.as_mut(), &mut rng, budget, sample, rec, &mut calls),
        Some(_) => {
            // RunSpec::drive's chunked loop.
            let chunk = (4 * sim.population()).max(1 << 16);
            loop {
                let done = sim.interactions();
                if sim.is_silent() {
                    break (done, true);
                }
                if done >= budget {
                    break (done, false);
                }
                let step = chunk.min(budget - done).max(1);
                traced_run_to_silence(sim.as_mut(), &mut rng, step, sample, rec, &mut calls);
            }
        }
    };
    let result = classify_counts(
        sim.counts(),
        inst.k(),
        interactions,
        stabilized,
        inst.config.plurality(),
    );
    let t = *sim.telemetry();
    let drive_s = rec.close(sample, "drive", "", drive, t.scheduled, t.effective);
    TracedSample {
        setup_s,
        topology_s,
        placement_s,
        new_s,
        drive_s,
        class_s: calls.seconds,
        class_calls: calls.calls,
        outcome: outcome(sim.as_ref(), result),
        telemetry: t,
    }
}

#[derive(Default)]
struct CallStats {
    seconds: [f64; 3],
    calls: [u64; 3],
}

/// `Simulator::run_to_silence` (the trait's default `advance_observed`
/// loop with a never-stopping observer), one span per
/// `advance_changed` call.
fn traced_run_to_silence(
    sim: &mut dyn Simulator,
    rng: &mut SimRng,
    budget: u64,
    sample: u32,
    rec: &mut Recorder,
    calls: &mut CallStats,
) -> (u64, bool) {
    let start = sim.interactions();
    if !sim.is_silent() {
        loop {
            let done = sim.interactions() - start;
            if done >= budget {
                break;
            }
            let before = *sim.telemetry();
            let t = Instant::now();
            let (advanced, changed) = sim.advance_changed(rng, budget - done);
            let dur = t.elapsed();
            let after = sim.telemetry();
            let class = CallClass::of(&before, after);
            let seconds = rec.close_call(
                sample,
                class,
                t,
                dur,
                after.scheduled - before.scheduled,
                after.effective - before.effective,
            );
            calls.seconds[class as usize] += seconds;
            calls.calls[class as usize] += 1;
            if advanced == 0 || (changed && sim.is_silent()) {
                break;
            }
        }
    }
    (sim.interactions(), sim.is_silent())
}
