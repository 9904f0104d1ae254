//! Uniform command-line argument handling for the experiment binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --n <u64>        population size
//! --k <usize>      number of opinions (default: experiment-specific)
//! --seeds <u64>    number of independent runs per cell
//! --seed <u64>     master seed (default 42)
//! --csv <path>     also write results as CSV next to the stdout report
//! --quick          shrink everything for a fast smoke run
//! --threads <t>    worker-thread count for sweeps (default: USD_THREADS
//!                  env, else available parallelism)
//! --topology <f>   interaction-graph family (topology experiments only;
//!                  regular:d and er:avg carry the degree)
//! --backend <b>    simulation backend, where the experiment honors it
//!                  (fig1, the lemma probes E3/E4/E5, the scaling sweeps
//!                  E6/E7/E10, E8, E11, and E13: any single-lane backend;
//!                  topology_sweep: any topology-capable backend — agent,
//!                  graph, batchgraph, replica)
//! --timeline-dir <dir>
//!                  write one flight-recorder JSONL per sweep cell from
//!                  the cell's representative run (topology_sweep only)
//! --resume-dir <dir>
//!                  persist each completed sweep cell in <dir> and skip
//!                  cells already completed by a previous interrupted run
//!                  with the same parameters (topology_sweep only)
//! ```
//!
//! Parsing is by hand (no external dependency) and strict: unknown flags
//! are errors, so typos do not silently run the default experiment.

use pop_proto::topology::TopologyFamily;
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
    /// Parse from an iterator of argument strings (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = ExpArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match flag.as_str() {
                "--n" => {
                    out.n = take("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
                }
                "--k" => {
                    out.k = Some(take("--k")?.parse().map_err(|e| format!("--k: {e}"))?);
                }
                "--seeds" => {
                    out.seeds = take("--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}"))?;
                }
                "--seed" => {
                    out.seed = take("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--csv" => {
                    out.csv = Some(take("--csv")?);
                }
                "--quick" => {
                    out.quick = true;
                }
                "--threads" => {
                    out.threads = Some(
                        take("--threads")?
                            .parse()
                            .map_err(|e| format!("--threads: {e}"))?,
                    );
                }
                "--topology" => {
                    out.topology = Some(take("--topology")?.parse()?);
                }
                "--backend" => {
                    out.backend = Some(take("--backend")?.parse()?);
                }
                "--timeline-dir" => {
                    out.timeline_dir = Some(take("--timeline-dir")?);
                }
                "--resume-dir" => {
                    out.resume_dir = Some(take("--resume-dir")?);
                }
                "--help" | "-h" => {
                    return Err("flags: --n <u64> --k <usize> --seeds <u64> --seed <u64> \
                         --csv <path> --quick --threads <usize> \
                         --topology <family> --backend <name> \
                         --timeline-dir <dir> --resume-dir <dir>"
                        .to_string());
                }
                other => return Err(format!("unknown flag '{other}' (try --help)")),
            }
        }
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

    /// Parse from the process environment; print the error and exit(2) on
    /// failure (for use in `fn main`). Applies `--threads` to the sweep
    /// runner as a process-wide override.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
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

    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse(args.iter().map(|s| s.to_string()))
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
        assert_eq!(err, "unknown flag '--degree' (try --help)");
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
