//! The four pinned workloads and the instances they run.
//!
//! Every workload runs a fixed list of samples derived from the run's
//! seed; the list length is a pure function of `--seconds` and the
//! workload's nominal per-sample cost (measured on a 2-core x86-64 host),
//! never of how long the samples actually take.

use pop_proto::TopologyFamily;
use sim_stats::rng::derive_seed;
use usd_core::{Backend, InitialConfigBuilder, UsdConfig};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own experiment (E6's k grid, Theorem 3.5 family) on the
    /// clique batch engine: hypergeometric row draws dominate, no graph
    /// layer runs.
    CliqueE6,
    /// Random 8-regular graph built through `RunSpec` every sample: dense
    /// matching blocks bound by DRAM, plus the heaviest set-up.
    Reg8Dense,
    /// The torus over a fixed horizon of 100 parallel time: the same dense
    /// applier, cache-resident and lattice-local, never entering the
    /// sparse phase. (Full torus stabilization varies 2.7x in work across
    /// seeds, so it is not a workload.)
    TorusCoarsen,
    /// One opinion-1 patch on an otherwise opinion-0 torus: every
    /// effective event runs in the shared sparse skipper.
    TorusEndgame,
}

/// How a sample's initial states are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Count configuration on the clique (no per-agent layout).
    Clique,
    /// Count configuration shuffled uniformly onto the graph's vertices,
    /// built through `RunSpec::build_simulator`.
    Shuffled,
    /// Explicit states: opinion 0 everywhere except one `side x side`
    /// opinion-1 square in the torus corner.
    Patch {
        /// Side of the square patch.
        side: usize,
    },
}

/// When a sample's drive ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Run to silence within this many scheduled interactions.
    Silence {
        /// Interaction budget.
        budget: u64,
    },
    /// Run exactly this many scheduled interactions.
    Horizon {
        /// Scheduled interactions.
        interactions: u64,
    },
}

impl Stop {
    /// The interaction budget handed to the drive loop.
    pub fn budget(&self) -> u64 {
        match *self {
            Stop::Silence { budget } => budget,
            Stop::Horizon { interactions } => interactions,
        }
    }
}

/// Everything one sample of a workload needs: the configuration, engine,
/// graph family, placement and stop rule. Workloads pin one instance
/// each; tests build small ones.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Initial configuration (its counts, plurality and opinion count).
    pub config: UsdConfig,
    /// The engine.
    pub backend: Backend,
    /// Graph family, or `None` for the clique.
    pub topology: Option<TopologyFamily>,
    /// How the initial states are laid out.
    pub placement: Placement,
    /// When the drive ends.
    pub stop: Stop,
}

impl Instance {
    /// Population size.
    pub fn n(&self) -> u64 {
        self.config.n()
    }

    /// Opinion count.
    pub fn k(&self) -> usize {
        self.config.k()
    }
}

/// Seeds of one sample: the run RNG and the topology generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSeeds {
    /// Seed of the run RNG (placement draws and the drive).
    pub run: u64,
    /// Seed of the topology generator (ignored by deterministic families).
    pub topo: u64,
}

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` every benchmark run
/// is given, which sizes each workload's sample list.
pub const RUN_SECONDS: u64 = 20;
/// Population of the clique workload (the paper's Figure 1 size).
pub(crate) const CLIQUE_N: u64 = 1_000_000;
/// Opinion count of the clique workload: a cell of E6's k grid.
pub(crate) const CLIQUE_K: usize = 27;
/// Population of the regular-graph workload.
pub(crate) const REG8_N: u64 = 1_000_000;
/// Degree of the regular-graph workload.
pub(crate) const REG8_D: usize = 8;
/// Population of the torus workloads (a 1024 x 1024 torus).
pub(crate) const TORUS_N: u64 = 1 << 20;
/// Horizon of `torus-coarsen`, in parallel time.
pub(crate) const COARSEN_PARALLEL_TIME: u64 = 100;
/// Side of `torus-endgame`'s opinion-1 patch.
pub(crate) const ENDGAME_PATCH: usize = 128;
/// Budget of the graph stabilization workloads: far above any sample's
/// stabilization time, so a sample that hits it has failed.
pub(crate) const GRAPH_SILENCE_BUDGET: u64 = 1 << 40;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CliqueE6,
        Workload::Reg8Dense,
        Workload::TorusCoarsen,
        Workload::TorusEndgame,
    ];

    /// The workload's name on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::CliqueE6 => "clique-e6",
            Workload::Reg8Dense => "reg8-dense",
            Workload::TorusCoarsen => "torus-coarsen",
            Workload::TorusEndgame => "torus-endgame",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pinned instance this workload runs.
    pub fn instance(&self) -> Instance {
        match self {
            Workload::CliqueE6 => Instance {
                config: InitialConfigBuilder::new(CLIQUE_N, CLIQUE_K).max_admissible_bias(),
                backend: Backend::Batch,
                topology: None,
                placement: Placement::Clique,
                stop: Stop::Silence {
                    budget: usd_experiments::fig1::default_budget(CLIQUE_N, CLIQUE_K),
                },
            },
            Workload::Reg8Dense => Instance {
                config: InitialConfigBuilder::new(REG8_N, 2).figure1(),
                backend: Backend::BatchGraph,
                topology: Some(TopologyFamily::Regular { d: REG8_D }),
                placement: Placement::Shuffled,
                stop: Stop::Silence {
                    budget: GRAPH_SILENCE_BUDGET,
                },
            },
            Workload::TorusCoarsen => Instance {
                config: InitialConfigBuilder::new(TORUS_N, 2).figure1(),
                backend: Backend::BatchGraph,
                topology: Some(TopologyFamily::Torus),
                placement: Placement::Shuffled,
                stop: Stop::Horizon {
                    interactions: COARSEN_PARALLEL_TIME * TORUS_N,
                },
            },
            Workload::TorusEndgame => {
                let patch = (ENDGAME_PATCH * ENDGAME_PATCH) as u64;
                Instance {
                    config: UsdConfig::decided(vec![TORUS_N - patch, patch]),
                    backend: Backend::BatchGraph,
                    topology: Some(TopologyFamily::Torus),
                    placement: Placement::Patch {
                        side: ENDGAME_PATCH,
                    },
                    stop: Stop::Silence {
                        budget: GRAPH_SILENCE_BUDGET,
                    },
                }
            }
        }
    }

    /// Nominal wall time of one sample (set-up plus drive) on the
    /// reference host; sizes the sample list for a `--seconds` budget.
    pub fn nominal_sample_s(&self) -> f64 {
        match self {
            Workload::CliqueE6 => 10.0,
            Workload::Reg8Dense => 3.3,
            Workload::TorusCoarsen => 5.0,
            Workload::TorusEndgame => 3.0,
        }
    }

    /// Set-ups timed per sample. `setup_s` is the median of all of them;
    /// cheap set-ups repeat so the median never rests on a few
    /// microsecond-scale readings. Only the last set-up of a sample is
    /// driven; the earlier ones replay the same RNG state and are dropped.
    pub fn setup_reps(&self) -> usize {
        match self {
            Workload::CliqueE6 => 255,
            Workload::Reg8Dense => 1,
            Workload::TorusCoarsen | Workload::TorusEndgame => 3,
        }
    }

    /// Samples a run of `seconds` seconds draws: a pure function of the
    /// arguments, at least one.
    pub fn samples(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_sample_s()).round() as usize).max(1)
    }
}

/// The fixed seed list of a run: sample `i` of seed `seed`.
pub fn sample_seeds(seed: u64, samples: usize) -> Vec<SampleSeeds> {
    (0..samples as u64)
        .map(|i| {
            let run = derive_seed(seed, i);
            SampleSeeds {
                run,
                topo: derive_seed(run, 0x7090),
            }
        })
        .collect()
}
