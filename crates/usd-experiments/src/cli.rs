//! Command-line argument handling for the experiment binaries.
//!
//! Every binary takes the flags every experiment reads:
//!
//! ```text
//! --n <u64>        population size
//! --seed <u64>     master seed (default 42)
//! --csv <path>     also write results as CSV next to the stdout report
//! --quick          shrink everything for a fast smoke run
//! --threads <t>    worker-thread count for sweeps (default: USD_THREADS
//!                  env, else available parallelism)
//! --help           list the flags this binary takes (exits 2)
//! ```
//!
//! and, from this list, the flags its report reads (each binary names
//! them in its call to [`ExpArgs::from_env`]; README.md's "Experiments ×
//! backends" table lists them per binary):
//!
//! ```text
//! --k <usize>      number of opinions (default: experiment-specific)
//! --seeds <u64>    number of independent runs per cell
//! --backend <b>    simulation backend (any single-lane backend on the
//!                  clique; topology_sweep: any topology-capable backend —
//!                  agent, graph, batchgraph, replica)
//! --topology <f>   interaction-graph family (regular:d and er:avg carry
//!                  the degree)
//! --timeline-dir <dir>
//!                  write one flight-recorder JSONL per sweep cell from
//!                  the cell's representative run
//! --resume-dir <dir>
//!                  persist each completed sweep cell in <dir> and skip
//!                  cells already completed by a previous interrupted run
//!                  with the same parameters
//! ```
//!
//! Parsing goes through the strict [`Flags`] parser: a flag the binary
//! does not take, a flag given twice and a stray argument exit 2 naming
//! it, so a typo never silently runs the default experiment.

use pop_proto::topology::TopologyFamily;
use sim_stats::flags::Flags;
use usd_core::backend::Backend;
use usd_core::init::InitialConfigBuilder;
use usd_core::theory;

/// Parsed experiment arguments with per-experiment defaults filled in by
/// the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Population size.
    pub n: u64,
    /// Number of opinions (`None` → experiment picks, e.g. the paper's k).
    pub k: Option<usize>,
    /// Independent repetitions per sweep cell.
    pub seeds: u64,
    /// Master seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Shrink parameters for a smoke run.
    pub quick: bool,
    /// Sweep worker-thread override (`None` → `USD_THREADS` env, else
    /// available parallelism).
    pub threads: Option<usize>,
    /// Restrict topology experiments to one graph family.
    pub topology: Option<TopologyFamily>,
    /// Simulation backend, for the experiments that honor it (`None` →
    /// experiment default).
    pub backend: Option<Backend>,
    /// Directory for per-cell flight-recorder JSONL files (experiments
    /// that sample timelines; currently topology_sweep).
    pub timeline_dir: Option<String>,
    /// Directory for idempotent per-cell result files: completed cells
    /// are persisted there as they finish and skipped on a re-run
    /// (currently topology_sweep).
    pub resume_dir: Option<String>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            n: 100_000,
            k: None,
            seeds: 5,
            seed: 42,
            csv: None,
            quick: false,
            threads: None,
            topology: None,
            backend: None,
            timeline_dir: None,
            resume_dir: None,
        }
    }
}

impl ExpArgs {
    /// Parse `args` (excluding `argv[0]`): the flags every experiment
    /// reads plus the value flags in `takes` (names without the leading
    /// `--`). Any other flag is an error naming it, as is `--help`, whose
    /// error lists the flags this parse accepts.
    pub fn parse(args: &[String], takes: &[&str]) -> Result<Self, String> {
        let values: Vec<&str> = ["n", "seed", "csv", "threads"]
            .into_iter()
            .chain(takes.iter().copied())
            .collect();
        let flags = Flags::parse(args, &values, &["quick", "help"])?;
        if flags.has("help")? {
            return Err(format!("flags: --{} --quick", values.join(" --")));
        }
        let d = ExpArgs::default();
        let out = ExpArgs {
            n: flags.get("n")?.unwrap_or(d.n),
            k: flags.get("k")?,
            seeds: flags.get("seeds")?.unwrap_or(d.seeds),
            seed: flags.get("seed")?.unwrap_or(d.seed),
            csv: flags.get("csv")?,
            quick: flags.has("quick")?,
            threads: flags.get("threads")?,
            topology: flags.get("topology")?,
            backend: flags.get("backend")?,
            timeline_dir: flags.get("timeline-dir")?,
            resume_dir: flags.get("resume-dir")?,
        };
        if out.n < 2 {
            return Err("--n must be at least 2".to_string());
        }
        if out.k == Some(0) {
            return Err("--k must be at least 1".to_string());
        }
        if out.seeds == 0 {
            return Err("--seeds must be positive".to_string());
        }
        if out.threads == Some(0) {
            return Err("--threads must be positive".to_string());
        }
        Ok(out)
    }

    /// [`ExpArgs::parse`] over the process arguments, for `fn main`: prints
    /// the error and exits 2 on failure. Applies `--threads` to the sweep
    /// runner as a process-wide override.
    pub fn from_env(takes: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args, takes) {
            Ok(args) => {
                crate::runner::set_thread_override(args.threads);
                args
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The k to use: explicit `--k` or the experiment's default.
    pub fn k_or(&self, default: usize) -> usize {
        self.k.unwrap_or(default)
    }

    /// The backend to use: explicit `--backend` or the experiment's
    /// default.
    pub fn backend_or(&self, default: Backend) -> Backend {
        self.backend.unwrap_or(default)
    }

    /// [`ExpArgs::backend_or`] for a clique experiment over `n` agents at
    /// each opinion count in `ks`. Exits 2 with a one-line message — the
    /// [`ExpArgs::from_env`] convention for flag errors, intended for the
    /// binary-backed report entry points — before any run starts, when
    /// [`Backend::check`] refuses one of the runs or when the backend packs
    /// replica lanes: these reports read one run's clock and counts per
    /// sample, and an ensemble pass sums its lanes. Library embedders that
    /// must not have their process terminated call [`Backend::check`] (and,
    /// for a Figure-1 report, [`InitialConfigBuilder::check_bias`]) before a
    /// report function.
    pub fn clique_backend_or(&self, default: Backend, n: u64, ks: &[usize]) -> Backend {
        let backend = self.backend_or(default);
        exit_on(if backend.capabilities().replicas > 1 {
            Err(format!(
                "--backend {backend} sums its lanes into one pass, and this experiment reads \
                 one run per sample; ensemble lanes are read by `usd-sim run --backend \
                 replica` and topology_sweep"
            ))
        } else {
            ks.iter()
                .try_for_each(|&k| backend.check(n, k, 1, None))
                .map_err(|e| e.to_string())
        });
        backend
    }

    /// Quick-mode reduction helper: `value` normally, `quick` when --quick.
    pub fn unless_quick<T>(&self, value: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            value
        }
    }
}

/// Exit 2 with a one-line message, before any run starts, unless the
/// Figure-1 configuration (equal minorities, bias √(n ln n)) builds over `n`
/// agents at every opinion count in `ks`
/// ([`InitialConfigBuilder::check_bias`]). Reports that take a backend call
/// it after [`ExpArgs::clique_backend_or`].
pub fn require_figure1(n: u64, ks: &[usize]) {
    let bias = theory::sqrt_n_log_n(n);
    exit_on(
        ks.iter()
            .try_for_each(|&k| InitialConfigBuilder::check_bias(n, k, bias))
            .map_err(|e| e.to_string()),
    );
}

/// Print `verdict`'s message and exit 2 on `Err`: the
/// [`ExpArgs::from_env`] convention for flag errors.
fn exit_on(verdict: Result<(), String>) {
    if let Err(msg) = verdict {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parse with every optional flag taken (topology_sweep's list).
    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        let takes = [
            "k",
            "seeds",
            "backend",
            "topology",
            "timeline-dir",
            "resume-dir",
        ];
        ExpArgs::parse(&strings(args), &takes)
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.n, 100_000);
        assert_eq!(a.k, None);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.seed, 42);
        assert!(!a.quick);
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--n",
            "5000",
            "--k",
            "7",
            "--seeds",
            "3",
            "--seed",
            "9",
            "--csv",
            "/tmp/x.csv",
            "--quick",
            "--threads",
            "2",
            "--topology",
            "regular:6",
            "--timeline-dir",
            "/tmp/timelines",
            "--resume-dir",
            "/tmp/cells",
        ])
        .unwrap();
        assert_eq!(a.n, 5000);
        assert_eq!(a.k, Some(7));
        assert_eq!(a.seeds, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
        assert!(a.quick);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.topology, Some(TopologyFamily::Regular { d: 6 }));
        assert_eq!(a.timeline_dir.as_deref(), Some("/tmp/timelines"));
        assert_eq!(a.resume_dir.as_deref(), Some("/tmp/cells"));
    }

    #[test]
    fn topology_and_threads_validation() {
        assert!(parse(&["--topology", "moebius"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        let err = parse(&["--degree", "4"]).unwrap_err();
        assert_eq!(err, "unknown flag --degree");
        let a = parse(&["--topology", "hypercube"]).unwrap();
        assert_eq!(a.topology, Some(TopologyFamily::Hypercube));
    }

    #[test]
    fn backend_flag_parses_and_rejects_unknown() {
        let a = parse(&["--backend", "batchgraph"]).unwrap();
        assert_eq!(a.backend, Some(Backend::BatchGraph));
        assert_eq!(a.backend_or(Backend::Agent), Backend::BatchGraph);
        assert_eq!(
            parse(&[]).unwrap().backend_or(Backend::Count),
            Backend::Count
        );
        assert!(parse(&["--backend", "warp9"]).is_err());
        let removed = parse(&["--backend", "skip"]).unwrap_err();
        assert!(removed.contains("batch otherwise"), "{removed}");
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
    }

    /// A binary takes only the optional flags it lists: one it does not
    /// read is refused like a typo, and a repeated flag is refused too.
    #[test]
    fn takes_gates_the_optional_flags() {
        let k5 = strings(&["--quick", "--k", "5"]);
        assert_eq!(
            ExpArgs::parse(&k5, &["seeds", "backend"]).unwrap_err(),
            "unknown flag --k"
        );
        assert_eq!(ExpArgs::parse(&k5, &["k"]).unwrap().k, Some(5));
        let twice = strings(&["--n", "3000", "--n", "2000"]);
        assert_eq!(ExpArgs::parse(&twice, &[]).unwrap_err(), "--n given twice");
        let help = ExpArgs::parse(&strings(&["--help"]), &["k"]).unwrap_err();
        assert_eq!(help, "flags: --n --seed --csv --threads --k --quick");
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["--n"]).is_err());
    }

    #[test]
    fn bad_number_rejected() {
        assert!(parse(&["--n", "abc"]).is_err());
        assert!(parse(&["--n", "1"]).is_err());
        assert!(parse(&["--k", "0"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
    }

    #[test]
    fn helpers() {
        let a = parse(&["--k", "4", "--quick"]).unwrap();
        assert_eq!(a.k_or(9), 4);
        assert_eq!(a.unless_quick(100, 5), 5);
        let b = parse(&[]).unwrap();
        assert_eq!(b.k_or(9), 9);
        assert_eq!(b.unless_quick(100, 5), 100);
    }
}
