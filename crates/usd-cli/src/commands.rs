//! Subcommand implementations for `usd-sim`.

use pop_proto::checkpoint::{SnapshotReader, SnapshotWriter};
use pop_proto::telemetry::timeline::phase_tag;
use pop_proto::telemetry::EngineTelemetry;
use pop_proto::topology::TopologyFamily;
use pop_proto::{EventHistograms, Simulator, TimelineRecorder};
use sim_stats::flags::Flags;
use sim_stats::rng::SimRng;
use sim_stats::summary::Summary;
use sim_stats::tables::{fmt_sig, fmt_thousands, TextTable};
use std::path::{Path, PathBuf};
use usd_core::backend::{Backend, ObservationGranularity, RunTicker};
use usd_core::checkpoint::{RunCheckpoint, RunIdentity};
use usd_core::encode::{Trajectory, MAX_K};
use usd_core::init::InitialConfigBuilder;
use usd_core::stabilization::ConsensusOutcome;
use usd_core::theory::{self, Bounds};
use usd_core::{EnsembleOutcome, RunSpec, TraceRecorder, DEFAULT_REPLICAS};

/// CLI usage text.
pub const USAGE: &str = "\
usd-sim — Undecided State Dynamics simulator

commands:
  run    --n <u64> --k <usize> [--bias <u64> | --max-bias] [--seed <u64>]
         [--backend agent|count|batch|graph|batchgraph|replica]
         [--replicas <1..=64>] [--threads <t>]
         [--trace <file.usdt>]
         [--topology complete|cycle|torus|hypercube|regular[:d]|er[:avg]]
         [--topo-seed <u64>]
         [--telemetry[=table|json]] [--progress-every <secs>]
         [--timeline <out.jsonl>] [--timeline-cadence <interactions>]
         [--histograms]
         [--checkpoint <file.ckpt>] [--checkpoint-every <interactions>]
         [--resume <file.ckpt>]
           one exact run to stabilization; optionally record a trajectory
           with one snapshot per parallel time unit (any clique backend,
           single lane). Backend default: agent for n <= 10^5, batch above
           (count is the event-exact engine at large n).
           --backend replica packs up to 64 independent replica runs of
           the same instance into one bit-parallel engine pass (one lane
           per bit of a machine word) and prints a per-lane ensemble
           summary; --replicas sets the lane count (default 64, replica
           backend only). Checkpoints of ensemble runs carry the lane
           count in their identity (backend 'replica:<lanes>'), and runs
           on regular/er graphs carry --topo-seed (a resume onto another
           graph is refused).
           --threads caps the worker threads of the batch engine's
           hypergeometric fan-out (default: USD_THREADS env, else all
           cores); trajectories are bit-identical for any thread count.
           --topology runs on an interaction graph instead of the clique
           (backend default becomes batchgraph — the block-leaping engine;
           graph, agent, and replica also work); regular:d and er:avg set
           the degree (default 8); the population is snapped to the
           nearest feasible size for the family; complete is capped at
           n = 10000, and graph and batchgraph with no --topology run on
           it. --telemetry prints the engine's run report (counters,
           timing spans, derived rates) as a table or one JSON object;
           --progress-every emits a stderr heartbeat for long runs (phase
           tag, effective fraction, instantaneous effective rate).
           --timeline writes a flight-recorder sample (telemetry deltas +
           phase tag) every cadence interactions to schema-stable JSONL
           (cadence default: max(n, 65536) — deterministic in the
           interaction clock, so fixed seeds reproduce bit-identical
           files); --histograms prints log-bucketed per-event histograms
           (skip lengths, block totals, block sizes; p50/p90/p99).
           --checkpoint persists a crash-safe resume point (engine state,
           RNG stream position, flight recorder) every --checkpoint-every
           interactions (default max(16n, 2^22)): temp file + fsync +
           atomic rename, with the previous checkpoint rotated to
           <file>.prev as a fallback; --resume restarts a run from such a
           file bit-identically (same flags required — the checkpoint
           echoes the run identity and mismatches are rejected); output
           directories for --checkpoint/--timeline are probed for
           writability before the run starts. Resumed runs drive through
           the same chunked loop as checkpointed runs, so an interrupted +
           resumed run reproduces the uninterrupted run byte-for-byte
           (final state and timeline)
  sweep  --n <u64> [--seeds <u64>] [--seed <u64>]
         [--backend agent|count|batch|graph|batchgraph]
           stabilization time across the admissible k grid vs the bounds
           (same backend default as run; one run per seed, so the replica
           ensemble engine is refused)
  bounds --n <u64> --k <usize>
           print the paper's bound curves for (n, k)
  trace  <file.usdt>
           inspect a trajectory recorded by `run --trace`
  help

a flag the command does not take, a flag given twice or a stray argument
exits 2 naming it
";

/// A fatal CLI error (message printed to stderr, exit code 2).
#[derive(Debug)]
pub struct CliError(pub String);

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

/// Output format for the `run --telemetry` engine report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelemetryFormat {
    Table,
    Json,
}

/// Stderr progress heartbeat for long runs (`run --progress-every`):
/// prints at most once per period, fed the engine's clocks and telemetry
/// by the chunked stabilization drivers. Each line carries the phase tag
/// (dense/sparse), the cumulative effective fraction, and the
/// instantaneous effective-event rate since the previous line.
struct Heartbeat {
    period: std::time::Duration,
    started: std::time::Instant,
    last_printed: std::time::Instant,
    n: u64,
    /// Effective clock at the previous printed line (instantaneous rate).
    last_effective: u64,
}

impl Heartbeat {
    fn new(period: std::time::Duration, n: u64) -> Self {
        let now = std::time::Instant::now();
        Heartbeat {
            period,
            started: now,
            last_printed: now,
            n,
            last_effective: 0,
        }
    }

    fn tick(&mut self, interactions: u64, telemetry: &EngineTelemetry) {
        let since_last = self.last_printed.elapsed();
        if since_last < self.period {
            return;
        }
        let eff_per_sec =
            (telemetry.effective - self.last_effective) as f64 / since_last.as_secs_f64().max(1e-9);
        eprintln!(
            "usd-sim: {} interactions (~{} parallel time) [{} phase, eff {:.1}%, {}/s effective], {:.1?} elapsed",
            fmt_thousands(interactions),
            fmt_sig(interactions as f64 / self.n as f64, 4),
            phase_tag(telemetry),
            telemetry.effective_fraction() * 100.0,
            fmt_thousands(eff_per_sec as u64),
            self.started.elapsed(),
        );
        self.last_effective = telemetry.effective;
        self.last_printed = std::time::Instant::now();
    }
}

/// Periodic crash-safe checkpoint writes (`run --checkpoint`), driven from
/// the [`RunTicker::checkpoint_tick`] hook at chunk boundaries. Writes are
/// pure observation — no RNG draws, no horizon bounds — so a checkpointed
/// run's trajectory is identical to the same ticked run without the flag.
/// A failed write warns on stderr and the run continues; the previous
/// checkpoint (if any) survives untouched thanks to the atomic-rename
/// persistence chain.
struct CheckpointSink {
    path: PathBuf,
    every: u64,
    /// Next scheduled-clock mark to persist at; `None` until the first
    /// boundary initializes it from the live clock (which on resumed runs
    /// is mid-flight).
    next: Option<u64>,
    /// The run identity every checkpoint carries.
    identity: RunIdentity,
    written: u64,
}

/// Chunk-boundary observer combining the optional stderr heartbeat, the
/// optional `--timeline` flight recorder, the optional `--trace`
/// trajectory recorder, and the optional `--checkpoint` sink behind one
/// [`RunTicker`]. The two recorders bound driving chunks via their
/// horizons so samples land exactly on their marks.
struct RunMonitor {
    heartbeat: Option<Heartbeat>,
    recorder: Option<TimelineRecorder>,
    trace: Option<TraceRecorder>,
    checkpoint: Option<CheckpointSink>,
}

impl RunTicker for RunMonitor {
    fn horizon(&self, scheduled: u64) -> u64 {
        let timeline = self
            .recorder
            .as_ref()
            .map_or(u64::MAX, |r| r.horizon(scheduled));
        let trace = self
            .trace
            .as_ref()
            .map_or(u64::MAX, |t| t.horizon(scheduled));
        timeline.min(trace)
    }

    fn tick(&mut self, sim: &dyn Simulator) {
        if let Some(r) = &mut self.recorder {
            r.record_if_due(sim);
        }
        if let Some(t) = &mut self.trace {
            t.tick(sim);
        }
        if let Some(hb) = &mut self.heartbeat {
            hb.tick(sim.interactions(), sim.telemetry());
        }
    }

    fn checkpoint_tick(&mut self, sim: &dyn Simulator, rng: &SimRng) {
        let Some(c) = self.checkpoint.as_mut() else {
            return;
        };
        let clock = sim.interactions();
        let due = match c.next {
            Some(mark) => clock >= mark,
            None => {
                // First boundary: schedule the next cadence mark past the
                // live clock without writing (the engine state at the
                // clock's current mark is already on disk or trivial).
                c.next = Some((clock / c.every + 1).saturating_mul(c.every));
                false
            }
        };
        if !due {
            return;
        }
        c.next = Some((clock / c.every + 1).saturating_mul(c.every));
        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w);
        let ckpt = RunCheckpoint {
            identity: c.identity.clone(),
            rng: rng.state(),
            recorder: self.recorder.clone(),
            engine: w.into_bytes(),
        };
        match ckpt.save(&c.path) {
            Ok(()) => c.written += 1,
            Err(e) => eprintln!(
                "usd-sim: checkpoint write failed ({}): {e}",
                c.path.display()
            ),
        }
    }
}

/// Preflight an output path: verify its parent directory exists and is
/// writable *before* the run starts, so a multi-hour run cannot die at the
/// final write (or, for checkpoints, silently never persist). Probes with
/// a uniquely named scratch file, mirroring the topology sweep's
/// timeline-dir preflight.
fn preflight_writable(path: &str, flag: &str) -> Result<(), CliError> {
    let parent = Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    if !parent.is_dir() {
        return Err(CliError(format!(
            "{flag} {path}: directory {} does not exist",
            parent.display()
        )));
    }
    let probe = parent.join(format!(".usd_write_probe.{}", std::process::id()));
    std::fs::write(&probe, b"usd-sim write probe").map_err(|e| {
        CliError(format!(
            "{flag} {path}: {} is not writable: {e}",
            parent.display()
        ))
    })?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Print the per-event histogram quantile table (`run --histograms`).
fn print_histograms(backend: Backend, hist: &EventHistograms) {
    println!("event histograms ({backend}):");
    let mut t = TextTable::new(&["histogram", "p50", "p90", "p99", "events"]);
    for (name, h) in hist.fields() {
        t.row_owned(vec![
            name.to_string(),
            fmt_sig(h.p50(), 4),
            fmt_sig(h.p90(), 4),
            fmt_sig(h.p99(), 4),
            fmt_thousands(h.total()),
        ]);
    }
    print!("{t}");
}

/// One-line schema-stable JSON run report (`run --telemetry=json`): the
/// instance, the outcome, the optional `--histograms` quantiles, and the
/// engine's telemetry object (always the last key). An ensemble run's
/// `interactions` sums its `lanes` lane clocks, so `parallel_time` divides
/// by lanes × n: the lane mean, as on the outcome line.
#[allow(clippy::too_many_arguments)]
fn run_report_json(
    backend: Backend,
    n: u64,
    k: usize,
    seed: u64,
    lanes: u32,
    result: &usd_core::stabilization::StabilizationResult,
    elapsed: std::time::Duration,
    histograms: Option<&EventHistograms>,
    telemetry: &EngineTelemetry,
) -> String {
    let outcome = match result.outcome {
        ConsensusOutcome::Winner(w) => format!("winner:{w}"),
        ConsensusOutcome::AllUndecided => "all-undecided".to_string(),
        ConsensusOutcome::Frozen => "frozen".to_string(),
        ConsensusOutcome::Timeout => "timeout".to_string(),
    };
    let histograms = histograms.map_or(String::new(), |h| {
        format!("\"histograms\":{},", h.to_json())
    });
    format!(
        "{{\"backend\":\"{}\",\"n\":{},\"k\":{},\"seed\":{},\
         \"outcome\":\"{}\",\"lanes\":{lanes},\"interactions\":{},\"parallel_time\":{:.6},\
         \"wall_ms\":{:.3},{}\"telemetry\":{}}}",
        backend.name(),
        n,
        k,
        seed,
        outcome,
        result.interactions,
        result.interactions as f64 / (f64::from(lanes) * n as f64),
        elapsed.as_secs_f64() * 1e3,
        histograms,
        telemetry.to_json(),
    )
}

/// The outcome line of `usd-sim run`. An ensemble run's interaction clock
/// is summed over its lanes, so the line says so and divides by
/// lanes × n: its parallel time is the lane mean the ensemble line
/// reports.
fn outcome_line(
    result: &usd_core::stabilization::StabilizationResult,
    n: u64,
    ensemble: Option<&EnsembleOutcome>,
    elapsed: std::time::Duration,
) -> String {
    let (clock, parallel) = if let Some(ens) = ensemble {
        let lanes = ens.len();
        let per_lane = result.interactions as f64 / (lanes as f64 * n as f64);
        (
            format!(
                "{} interactions summed over {lanes} lanes",
                fmt_thousands(result.interactions)
            ),
            format!("{per_lane:.2} parallel time per lane"),
        )
    } else {
        (
            format!("{} interactions", fmt_thousands(result.interactions)),
            format!("{:.2} parallel time", result.parallel_time(n)),
        )
    };
    match result.outcome {
        ConsensusOutcome::Winner(w) => format!(
            "stabilized on opinion {} after {clock} ({parallel}); plurality won: {}; wall clock {elapsed:.2?}",
            w + 1,
            result.plurality_won(),
        ),
        ConsensusOutcome::AllUndecided => format!(
            "absorbed in the all-undecided state after {clock}; wall clock {elapsed:.2?}"
        ),
        // Lane-summed replica counts are a mixture whenever lanes disagree,
        // even when no lane froze, so an ensemble says what its lanes did.
        ConsensusOutcome::Frozen => match ensemble {
            Some(ens) => format!(
                "{} after {clock} ({parallel}); wall clock {elapsed:.2?}",
                ens.describe()
            ),
            None => format!(
                "froze in a mixed configuration (disconnected topology) after {clock}; wall clock {elapsed:.2?}"
            ),
        },
        ConsensusOutcome::Timeout => "budget exhausted".to_string(),
    }
}

/// The ensemble line of a replica `usd-sim run`: the per-lane tallies
/// beside the aggregate outcome line, which classifies the lane-summed
/// counts (a mixture unless every lane agreed). Frozen lanes are counted
/// apart from stabilized ones, and the T statistics cover only the lanes
/// that reached consensus or all-undecided absorption.
fn ensemble_line(ens: &EnsembleOutcome, n: u64) -> String {
    let times = ens.stabilization_times();
    let lane_line = if times.is_empty() {
        "no lane reached consensus or all-undecided absorption".to_string()
    } else {
        let s = Summary::of(&times);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        format!(
            "T parallel mean {} (min {}, max {})",
            fmt_sig(s.mean() / n as f64, 4),
            fmt_sig(min / n as f64, 4),
            fmt_sig(max / n as f64, 4),
        )
    };
    let frozen = match ens.frozen_lanes() {
        0 => String::new(),
        f => format!(", {f} froze"),
    };
    format!(
        "ensemble: {} lanes, {} stabilized{frozen}, plurality won {}/{}, {lane_line}",
        ens.len(),
        ens.stabilized_lanes(),
        ens.plurality_wins(),
        ens.len(),
    )
}

/// `usd-sim run`.
pub fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        args,
        &[
            "n",
            "k",
            "bias",
            "seed",
            "backend",
            "replicas",
            "threads",
            "trace",
            "topology",
            "topo-seed",
            "progress-every",
            "timeline",
            "timeline-cadence",
            "checkpoint",
            "checkpoint-every",
            "resume",
        ],
        &["max-bias", "telemetry", "histograms"],
    )?;
    let mut n: u64 = flags.get("n")?.unwrap_or(100_000);
    let k: usize = flags.get("k")?.unwrap_or_else(|| theory::figure1_k(n));
    let seed: u64 = flags.get("seed")?.unwrap_or(42);
    let topology: Option<TopologyFamily> = flags.get("topology")?;
    let topo_seed: u64 = flags.get("topo-seed")?.unwrap_or(7);
    let backend: Backend = flags.get("backend")?.unwrap_or(if topology.is_some() {
        Backend::BatchGraph
    } else {
        Backend::clique_default(n, ObservationGranularity::Block)
    });
    let caps = backend.capabilities();
    let lanes: u32 = flags.get("replicas")?.unwrap_or(if caps.replicas > 1 {
        DEFAULT_REPLICAS
    } else {
        1
    });
    let threads: Option<usize> = match flags.get::<usize>("threads")? {
        Some(0) => {
            return Err(CliError("--threads must be at least 1".to_string()));
        }
        Some(t) if !caps.threads => {
            return Err(CliError(format!(
                "--threads {t} has no effect on the {backend} backend \
                 (thread-capable backends: {})",
                Backend::names_where(|c| c.threads)
            )));
        }
        t => t,
    };
    // The run identity persisted in checkpoints and echoed on resume.
    // Ensemble runs append the lane count to the backend, so a checkpoint
    // from a 64-lane run can never resume a 32-lane one; the families
    // whose graph is drawn from --topo-seed append it to the topology, so
    // a checkpoint never resumes onto another graph.
    let backend_id = if lanes > 1 {
        format!("{}:{lanes}", backend.name())
    } else {
        backend.name().to_string()
    };
    let topo_id = match topology {
        Some(f @ (TopologyFamily::Regular { .. } | TopologyFamily::ErdosRenyi { .. })) => {
            format!("{f}, topo-seed {topo_seed}")
        }
        Some(f) => f.name(),
        None => String::new(),
    };
    let identity = RunIdentity::new(backend_id, n, k as u32, seed, topo_id);
    let trace_path: Option<String> = flags.get("trace")?;
    let telemetry_format = match flags.get_opt("telemetry") {
        None => None,
        Some(None) | Some(Some("table")) => Some(TelemetryFormat::Table),
        Some(Some("json")) => Some(TelemetryFormat::Json),
        Some(Some(other)) => {
            return Err(CliError(format!(
                "--telemetry: unknown format '{other}' (use table or json)"
            )));
        }
    };
    let heartbeat_period = match flags.get::<f64>("progress-every")? {
        Some(s) if s > 0.0 && s.is_finite() => Some(std::time::Duration::from_secs_f64(s)),
        Some(s) => {
            return Err(CliError(format!(
                "--progress-every needs a positive number of seconds, got {s}"
            )));
        }
        None => None,
    };
    let timeline_path: Option<String> = flags.get("timeline")?;
    let timeline_cadence = match flags.get::<u64>("timeline-cadence")? {
        Some(0) => {
            return Err(CliError(
                "--timeline-cadence must be at least 1 interaction".to_string(),
            ));
        }
        Some(c) if timeline_path.is_none() => {
            return Err(CliError(format!(
                "--timeline-cadence {c} requires --timeline"
            )));
        }
        c => c,
    };
    let checkpoint_path: Option<String> = flags.get("checkpoint")?;
    let checkpoint_every = match flags.get::<u64>("checkpoint-every")? {
        Some(0) => {
            return Err(CliError(
                "--checkpoint-every must be at least 1 interaction".to_string(),
            ));
        }
        Some(c) if checkpoint_path.is_none() => {
            return Err(CliError(format!(
                "--checkpoint-every {c} requires --checkpoint"
            )));
        }
        c => c,
    };
    let resume_path: Option<String> = flags.get("resume")?;
    let want_histograms = flags.has("histograms")?;
    if let Some(family) = topology {
        if trace_path.is_some() {
            return Err(CliError(
                "trace recording is clique-only (drop --topology)".to_string(),
            ));
        }
        let snapped = family.snap_n(n as usize) as u64;
        if snapped != n {
            println!("note: n snapped to {snapped} for the {family} family");
            n = snapped;
        }
    }
    backend
        .check(n, k, lanes, topology)
        .map_err(|e| CliError(e.to_string()))?;
    if trace_path.is_some() && k > MAX_K {
        return Err(CliError(format!(
            "--trace records at most {MAX_K} opinions (the .usdt header stores k in 16 bits), \
             not {k}"
        )));
    }
    if trace_path.is_some() && lanes > 1 {
        return Err(CliError(format!(
            "--trace records one trajectory; the {backend} run packs {lanes} lanes \
             (pass --replicas 1)"
        )));
    }
    if trace_path.is_some() && (checkpoint_path.is_some() || resume_path.is_some()) {
        return Err(CliError(
            "--checkpoint/--resume do not carry the --trace trajectory (drop --trace)".to_string(),
        ));
    }
    // Preflight output directories now: a run can take hours, and the
    // final timeline write — or every checkpoint along the way — would
    // otherwise be the first time an unwritable path surfaces.
    if let Some(p) = &timeline_path {
        preflight_writable(p, "--timeline")?;
    }
    if let Some(p) = &checkpoint_path {
        preflight_writable(p, "--checkpoint")?;
    }

    let builder = InitialConfigBuilder::new(n, k);
    let requested_bias = if flags.has("max-bias")? {
        None // max_admissible_bias clamps internally
    } else if let Some(b) = flags.get::<u64>("bias")? {
        Some(b)
    } else {
        Some(theory::sqrt_n_log_n(n)) // the figure1 default
    };
    let config = match requested_bias {
        None => builder.max_admissible_bias(),
        Some(b) => {
            InitialConfigBuilder::check_bias(n, k, b)
                .map_err(|e| CliError(format!("{e}; try --bias 0 or a larger --n")))?;
            builder.equal_minorities(b)
        }
    };
    match topology {
        Some(family) => println!("initial: {config} (backend: {backend}, topology: {family})"),
        None => println!("initial: {config} (backend: {backend})"),
    }

    // Load and validate the resume point up front: header, checksum, and
    // the run-identity echo against the flags (a checkpoint from a
    // different run is rejected before any simulation happens).
    let resumed: Option<(RunCheckpoint, PathBuf)> = match &resume_path {
        Some(p) => {
            let (ckpt, from) = RunCheckpoint::load(Path::new(p))
                .map_err(|e| CliError(format!("--resume {p}: {e}")))?;
            ckpt.check_identity(&identity)
                .map_err(|e| CliError(format!("--resume {p}: {e}")))?;
            Some((ckpt, from))
        }
        None => None,
    };

    let mut rng = SimRng::new(seed);
    let started = std::time::Instant::now();
    // The flight recorder: fresh from the flags, or — on resume — the
    // checkpoint's restored recorder, mid-samples, so the rewritten JSONL
    // is byte-for-byte the uninterrupted run's. The recorder also bounds
    // driving chunks, so its presence must follow the checkpoint (not the
    // flags) for the resumed trajectory to line up.
    let recorder = match &resumed {
        Some((ckpt, _)) => {
            if ckpt.recorder.is_none() && timeline_path.is_some() {
                return Err(CliError(
                    "--timeline on a resumed run needs a checkpoint carrying the flight \
                     recorder (the original run did not pass --timeline)"
                        .to_string(),
                ));
            }
            if let (Some(rec), Some(c)) = (&ckpt.recorder, timeline_cadence) {
                if rec.cadence() != c {
                    return Err(CliError(format!(
                        "--timeline-cadence {c} conflicts with the checkpoint's recorded \
                         cadence {}",
                        rec.cadence()
                    )));
                }
            }
            ckpt.recorder.clone()
        }
        None => timeline_path.as_ref().map(|_| match timeline_cadence {
            Some(c) => TimelineRecorder::new(c),
            None => TimelineRecorder::with_default_cadence(n),
        }),
    };
    let mut monitor = RunMonitor {
        heartbeat: heartbeat_period.map(|p| Heartbeat::new(p, n)),
        recorder,
        trace: trace_path.as_ref().map(|_| TraceRecorder::new(&config)),
        checkpoint: checkpoint_path.as_ref().map(|p| CheckpointSink {
            path: PathBuf::from(p),
            every: checkpoint_every.unwrap_or_else(|| (16 * n).max(1 << 22)),
            next: None,
            identity,
            written: 0,
        }),
    };
    // One spec for every run. A monitor forces the chunked drive loop;
    // without one a clique run is a single uninterrupted `run_to_silence`.
    let monitored = monitor.heartbeat.is_some()
        || monitor.recorder.is_some()
        || monitor.trace.is_some()
        || monitor.checkpoint.is_some();
    let mut spec = RunSpec::new(&config)
        .backend(backend)
        .replicas(lanes)
        .span_timing(telemetry_format.is_some())
        .histograms(want_histograms);
    if let Some(t) = threads {
        spec = spec.threads(t);
    }
    if let Some(family) = topology {
        spec = spec.topology(family).topo_seed(topo_seed);
    }
    if monitored {
        spec = spec.ticker(&mut monitor);
    }
    let (result, sim) = match &resumed {
        // Rebuild the simulator exactly as the original run did (the
        // constructors consume the same RNG draws — e.g. the shuffled
        // initial layout on topologies), restore the engine payload,
        // reposition the RNG at the saved stream position, and drive
        // through the chunked loop a checkpointed run uses: chunk
        // boundaries are a pure function of the absolute interaction
        // clock, so the resumed trajectory is the uninterrupted one.
        Some((ckpt, from)) => {
            let bad = |e: String| CliError(format!("--resume {}: {e}", from.display()));
            let saved_rng = SimRng::from_state(ckpt.rng)
                .ok_or_else(|| bad("checkpoint RNG state is all-zero".to_string()))?;
            let mut sim = spec.build_simulator(&mut rng);
            sim.restore_state(&mut SnapshotReader::new(&ckpt.engine))
                .map_err(|e| bad(e.to_string()))?;
            rng = saved_rng;
            if telemetry_format.is_some() {
                sim.set_span_timing(true);
            }
            if want_histograms && sim.histograms().is_none() {
                return Err(bad(
                    "--histograms needs a checkpoint recorded with --histograms".to_string(),
                ));
            }
            println!(
                "resumed from {} at {} interactions",
                from.display(),
                fmt_thousands(sim.interactions()),
            );
            (spec.drive(sim.as_mut(), &mut rng), Some(sim))
        }
        None => spec.run_keeping(&mut rng),
    };
    // Every report reads the kept engine (there is none on an edgeless
    // graph, where nothing ran).
    let mut telemetry = EngineTelemetry::new();
    let mut histograms: Option<EventHistograms> = None;
    let mut trajectory: Option<Trajectory> = None;
    // Per-lane outcomes of an ensemble run.
    let mut ensemble: Option<EnsembleOutcome> = None;
    if let Some(sim) = &sim {
        if let Some(rec) = monitor.recorder.as_mut() {
            rec.finish(sim.as_ref());
        }
        trajectory = monitor.trace.take().map(|t| t.finish(sim.as_ref()));
        histograms = sim.histograms();
        telemetry = *sim.telemetry();
        if lanes > 1 {
            ensemble = Some(EnsembleOutcome::from_simulator(
                sim.as_ref(),
                k,
                config.plurality(),
            ));
        }
    }
    let elapsed = started.elapsed();

    println!("{}", outcome_line(&result, n, ensemble.as_ref(), elapsed));

    if let Some(ens) = &ensemble {
        println!("{}", ensemble_line(ens, n));
    }

    if let Some(format) = telemetry_format {
        match format {
            TelemetryFormat::Table => {
                println!("telemetry ({backend}):");
                print!("{}", telemetry.table());
            }
            TelemetryFormat::Json => {
                println!(
                    "{}",
                    run_report_json(
                        backend,
                        n,
                        k,
                        seed,
                        lanes,
                        &result,
                        elapsed,
                        histograms.as_ref(),
                        &telemetry
                    )
                );
            }
        }
    }

    if want_histograms && telemetry_format != Some(TelemetryFormat::Json) {
        print_histograms(backend, &histograms.clone().unwrap_or_default());
    }

    if let (Some(path), Some(rec)) = (&timeline_path, &monitor.recorder) {
        std::fs::write(path, rec.to_jsonl())
            .map_err(|e| CliError(format!("writing {path}: {e}")))?;
        println!(
            "timeline: {} samples (cadence {}) -> {path}",
            rec.samples().len(),
            fmt_thousands(rec.cadence()),
        );
    }

    if let Some(c) = &monitor.checkpoint {
        println!(
            "checkpoints: {} written (every {} interactions) -> {}",
            c.written,
            fmt_thousands(c.every),
            c.path.display(),
        );
    }

    if let (Some(path), Some(trajectory)) = (trace_path, trajectory) {
        let blob = trajectory.encode();
        std::fs::write(&path, &blob).map_err(|e| CliError(format!("writing {path}: {e}")))?;
        println!(
            "trace: {} snapshots, {} bytes -> {path}",
            trajectory.snapshots.len(),
            blob.len()
        );
    }
    Ok(())
}

/// `usd-sim sweep`.
pub fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["n", "seeds", "seed", "backend"], &[])?;
    let n: u64 = flags.get("n")?.unwrap_or(50_000);
    let seeds: u64 = flags.get("seeds")?.unwrap_or(5);
    let seed: u64 = flags.get("seed")?.unwrap_or(42);
    let backend: Backend = flags
        .get("backend")?
        .unwrap_or(Backend::clique_default(n, ObservationGranularity::Block));
    if n < 16 {
        return Err(CliError("need --n >= 16".into()));
    }
    if backend.capabilities().replicas > 1 {
        return Err(CliError(format!(
            "sweep reads one run per seed, and --backend {backend} sums its lanes into one \
             pass; ensemble lanes are read by `usd-sim run --backend replica` and topology_sweep"
        )));
    }
    let max_k = ((n as f64).sqrt() / (n as f64).ln()).floor().max(3.0) as usize;
    backend
        .check(n, max_k, 1, None)
        .map_err(|e| CliError(e.to_string()))?;

    let mut t = TextTable::new(&["k", "T parallel", "lower", "T/lower", "upper", "T/upper"]);
    let mut k = 3usize;
    while k <= max_k {
        let config = InitialConfigBuilder::new(n, k).max_admissible_bias();
        let mut times = Vec::new();
        for s in 0..seeds {
            let mut rng = SimRng::new(seed ^ (k as u64) << 32 ^ s);
            let result = RunSpec::new(&config).backend(backend).run(&mut rng);
            times.push(result.parallel_time(n));
        }
        let mean = Summary::of(&times).mean();
        let b = Bounds::new(n, k);
        let lower = b.lower_bound_parallel();
        let upper = b.upper_bound_parallel();
        t.row_owned(vec![
            k.to_string(),
            fmt_sig(mean, 4),
            fmt_sig(lower, 4),
            if lower > 0.0 {
                fmt_sig(mean / lower, 3)
            } else {
                "-".into()
            },
            fmt_sig(upper, 4),
            fmt_sig(mean / upper, 3),
        ]);
        k = (k * 3).div_ceil(2);
    }
    println!(
        "stabilization sweep at n={} ({} seeds/cell, backend {backend})",
        fmt_thousands(n),
        seeds
    );
    print!("{t}");
    Ok(())
}

/// `usd-sim bounds`.
pub fn cmd_bounds(args: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(args, &["n", "k"], &[])?;
    let n: u64 = flags.get("n")?.unwrap_or(1_000_000);
    let k: usize = flags.get("k")?.unwrap_or_else(|| theory::figure1_k(n));
    let b = Bounds::new(n, k);
    let mut t = TextTable::new(&["quantity", "value"]);
    t.row_owned(vec!["n".into(), fmt_thousands(n)]);
    t.row_owned(vec!["k".into(), k.to_string()]);
    t.row_owned(vec![
        "k admissible (<= sqrt n/ln n)".into(),
        theory::k_is_admissible(n, k).to_string(),
    ]);
    t.row_owned(vec![
        "sqrt(n ln n)".into(),
        fmt_thousands(theory::sqrt_n_log_n(n)),
    ]);
    t.row_owned(vec![
        "max admissible bias".into(),
        fmt_thousands(theory::max_admissible_bias(n, k)),
    ]);
    t.row_owned(vec![
        "lower bound (parallel)".into(),
        fmt_sig(b.lower_bound_parallel(), 5),
    ]);
    t.row_owned(vec![
        "upper bound k ln n (parallel)".into(),
        fmt_sig(b.upper_bound_parallel(), 5),
    ]);
    t.row_owned(vec![
        "undecided plateau n/2-n/4k".into(),
        fmt_sig(usd_core::analysis::undecided_plateau(n, k), 6),
    ]);
    t.row_owned(vec![
        "Lemma 3.1 ceiling".into(),
        fmt_sig(b.undecided_ceiling(), 6),
    ]);
    t.row_owned(vec![
        "Lemma 3.3 time kn/25".into(),
        fmt_sig(b.opinion_growth_time(), 5),
    ]);
    t.row_owned(vec![
        "Lemma 3.4 time kn/24".into(),
        fmt_sig(b.gap_doubling_time(), 5),
    ]);
    print!("{t}");
    Ok(())
}

/// `usd-sim trace`.
pub fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let path = match args {
        [path] if !path.starts_with("--") => path,
        [] => return Err(CliError("trace: need a file path".into())),
        _ => {
            return Err(CliError(format!(
                "trace takes one file path and no flags, not '{}'",
                args.join(" ")
            )))
        }
    };
    let blob = std::fs::read(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    let traj = Trajectory::decode(&blob[..]).map_err(|e| CliError(format!("decoding: {e}")))?;
    println!(
        "trajectory: n={}, k={}, {} snapshots",
        fmt_thousands(traj.n),
        traj.k,
        traj.snapshots.len()
    );
    let mut t = TextTable::new(&["parallel time", "x1", "max gap", "u"]);
    // Print at most 20 evenly spaced snapshots.
    let step = (traj.snapshots.len() / 20).max(1);
    for (i, (ticks, cfg)) in traj.snapshots.iter().enumerate() {
        if i % step != 0 && i != traj.snapshots.len() - 1 {
            continue;
        }
        t.row_owned(vec![
            fmt_sig(*ticks as f64 / traj.n as f64, 4),
            cfg.sorted_desc()[0].to_string(),
            cfg.max_gap().to_string(),
            cfg.u().to_string(),
        ]);
    }
    print!("{t}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// A typo, a repeated flag or a stray value exits 2 naming it instead
    /// of running another experiment.
    #[test]
    fn commands_refuse_unknown_repeated_and_stray_arguments() {
        let args = |line: &str| s(&line.split_whitespace().collect::<Vec<_>>());
        for (cmd, line, why) in [
            (
                cmd_run as fn(&[String]) -> Result<(), CliError>,
                "--n 1000 --k 2 --topolgy cycle",
                "unknown flag --topolgy",
            ),
            (
                cmd_sweep,
                "--n 2000 --seeds 1 --backnd count",
                "unknown flag --backnd",
            ),
            (cmd_run, "--n 1000 --n 2000", "--n given twice"),
            (
                cmd_run,
                "--n 1000 --k 2 --max-bias 5",
                "unexpected argument '5'",
            ),
            (
                cmd_run,
                "--n 1000 --topology regular --degree 4",
                "unknown flag --degree",
            ),
            (cmd_bounds, "--n 1000 --seed 3", "unknown flag --seed"),
            (
                cmd_trace,
                "t.usdt --n 3",
                "trace takes one file path and no flags",
            ),
        ] {
            let err = cmd(&args(line)).unwrap_err().0;
            assert!(err.contains(why), "{line}: {err}");
        }
    }

    #[test]
    fn run_accepts_telemetry_and_heartbeat_on_every_backend() {
        for b in ["agent", "count", "batch", "graph", "batchgraph"] {
            cmd_run(&s(&[
                "--n",
                "500",
                "--k",
                "2",
                "--seed",
                "3",
                "--backend",
                b,
                "--telemetry=json",
            ]))
            .unwrap_or_else(|e| panic!("backend {b}: {}", e.0));
        }
        // Table form (bare and explicit), topology runs, a heartbeat run,
        // and the trace path all accept the report flags.
        cmd_run(&s(&["--n", "500", "--k", "2", "--telemetry"])).unwrap();
        cmd_run(&s(&["--n", "500", "--k", "2", "--telemetry=table"])).unwrap();
        cmd_run(&s(&[
            "--n",
            "256",
            "--k",
            "2",
            "--topology",
            "torus",
            "--telemetry=json",
        ]))
        .unwrap();
        cmd_run(&s(&[
            "--n",
            "256",
            "--k",
            "2",
            "--topology",
            "cycle",
            "--backend",
            "agent",
            "--telemetry",
        ]))
        .unwrap();
        cmd_run(&s(&["--n", "500", "--k", "2", "--progress-every", "1000"])).unwrap();
    }

    #[test]
    fn run_rejects_bad_telemetry_and_heartbeat_values() {
        assert!(cmd_run(&s(&["--n", "500", "--telemetry=yaml"])).is_err());
        assert!(cmd_run(&s(&["--n", "500", "--progress-every", "0"])).is_err());
        assert!(cmd_run(&s(&["--n", "500", "--progress-every", "-2"])).is_err());
    }

    #[test]
    fn run_and_trace_roundtrip_through_a_file() {
        let dir = std::env::temp_dir().join("usd_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.usdt");
        let path_str = path.to_str().unwrap().to_string();

        cmd_run(&s(&[
            "--n", "2000", "--k", "3", "--seed", "5", "--trace", &path_str,
        ]))
        .unwrap();
        cmd_trace(&s(&[&path_str])).unwrap();
        // And the file decodes through the library too.
        let blob = std::fs::read(&path).unwrap();
        let traj = Trajectory::decode(&blob[..]).unwrap();
        assert_eq!(traj.n, 2000);
        assert_eq!(traj.k, 3);
        assert!(traj.snapshots.len() >= 2);
        // Final snapshot is silent (consensus or all-undecided).
        let (_, last) = traj.snapshots.last().unwrap();
        assert!(last.is_silent());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_refuses_malformed_files() {
        let dir = std::env::temp_dir().join("usd_cli_test_malformed_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.usdt");
        let path_str = path.to_str().unwrap().to_string();
        cmd_run(&s(&[
            "--n", "2000", "--k", "3", "--seed", "5", "--trace", &path_str,
        ]))
        .unwrap();
        let recorded = std::fs::read(&path).unwrap();
        // Header fields: k at bytes 6..8, the snapshot count at 16..24.
        for (at, bytes, why) in [
            (23, vec![recorded[23] | 0x80], "truncated"),
            (16, (1u64 << 61).to_le_bytes().to_vec(), "truncated"),
            (6, vec![0, 0], "k = 0"),
        ] {
            let mut blob = recorded.clone();
            blob[at..at + bytes.len()].copy_from_slice(&bytes);
            std::fs::write(&path, &blob).unwrap();
            let err = cmd_trace(&s(&[&path_str])).unwrap_err();
            assert!(err.0.contains(why), "{}", err.0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bounds_command_runs() {
        cmd_bounds(&s(&["--n", "100000", "--k", "8"])).unwrap();
    }

    #[test]
    fn run_accepts_topologies() {
        for t in ["cycle", "torus", "hypercube", "regular:4", "er:6"] {
            cmd_run(&s(&[
                "--n",
                "256",
                "--k",
                "2",
                "--seed",
                "3",
                "--topology",
                t,
            ]))
            .unwrap_or_else(|e| panic!("topology {t}: {}", e.0));
        }
        // The agent backend, with the degree in the family's name.
        cmd_run(&s(&[
            "--n",
            "100",
            "--k",
            "2",
            "--topology",
            "regular:6",
            "--backend",
            "agent",
        ]))
        .unwrap();
    }

    #[test]
    fn run_rejects_bad_topology_combinations() {
        // Clique-only backend on a topology.
        assert!(cmd_run(&s(&[
            "--n",
            "256",
            "--topology",
            "cycle",
            "--backend",
            "batch"
        ]))
        .is_err());
        // Trace needs the clique.
        assert!(cmd_run(&s(&[
            "--n",
            "256",
            "--topology",
            "cycle",
            "--trace",
            "/tmp/x.usdt"
        ]))
        .is_err());
        // And a k past the .usdt header's 16 bits, refused before the run.
        let wide = "--n 140000 --k 70000 --bias 0 --backend count --trace /tmp/x.usdt";
        let err = cmd_run(&s(&wide.split_whitespace().collect::<Vec<_>>())).unwrap_err();
        assert!(err.0.contains("at most 65535 opinions"), "{}", err.0);
        // The degree is part of the family's name; there is no --degree.
        let err = cmd_run(&s(&["--n", "256", "--degree", "8"])).unwrap_err();
        assert_eq!(err.0, "unknown flag --degree");
        // Unknown family.
        assert!(cmd_run(&s(&["--n", "256", "--topology", "moebius"])).is_err());
    }

    #[test]
    fn run_accepts_every_backend() {
        for b in ["agent", "count", "batch", "graph", "batchgraph", "replica"] {
            cmd_run(&s(&[
                "--n",
                "500",
                "--k",
                "2",
                "--seed",
                "3",
                "--backend",
                b,
            ]))
            .unwrap_or_else(|e| panic!("backend {b}: {}", e.0));
        }
    }

    #[test]
    fn run_rejects_unknown_backend_and_trace_combination() {
        assert!(cmd_run(&s(&["--n", "500", "--backend", "warp"])).is_err());
        // The thread-capable list comes from the capabilities table.
        let err = cmd_run(&s(&["--n", "500", "--backend", "count", "--threads", "2"])).unwrap_err();
        assert!(
            err.0.contains("(thread-capable backends: batch)"),
            "{}",
            err.0
        );
        // The trace recorder is a ticker, so every clique backend records.
        let dir = std::env::temp_dir().join("usd_cli_test_batch_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.usdt");
        let path_str = path.to_str().unwrap().to_string();
        cmd_run(&s(&[
            "--n",
            "500",
            "--backend",
            "batch",
            "--trace",
            &path_str,
        ]))
        .unwrap();
        let traj = Trajectory::decode(&std::fs::read(&path).unwrap()[..]).unwrap();
        assert!(traj.snapshots.len() >= 2);
        let _ = std::fs::remove_file(&path);
        // A multi-lane ensemble has no single trajectory to record.
        let err = cmd_run(&s(&[
            "--n",
            "500",
            "--backend",
            "replica",
            "--trace",
            &path_str,
        ]))
        .unwrap_err();
        assert!(err.0.contains("--replicas 1"), "{}", err.0);
    }

    #[test]
    fn removed_backend_names_exit_with_their_replacement() {
        for b in ["seq", "sequential", "skip", "skip-ahead"] {
            for cmd in [cmd_run, cmd_sweep] {
                let err = cmd(&s(&["--n", "500", "--backend", b])).unwrap_err();
                assert!(
                    err.0.contains("count for per-event runs, batch otherwise"),
                    "{b}: {}",
                    err.0
                );
            }
        }
        for b in ["pargraph", "par-graph"] {
            for cmd in [cmd_run, cmd_sweep] {
                let err = cmd(&s(&["--n", "500", "--backend", b])).unwrap_err();
                assert!(err.0.contains("removed: use batchgraph"), "{b}: {}", err.0);
            }
        }
    }

    /// A checkpoint whose identity names a removed backend, or whose
    /// engine payload carries a removed engine's snapshot tag, is refused
    /// with an error (exit 2), never a panic.
    #[test]
    fn resume_refuses_checkpoints_of_removed_backends() {
        use pop_proto::simulator::snapshot_tags;
        let dir = std::env::temp_dir().join("usd_cli_test_removed_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("removed.ckpt");
        let path_str = path.to_str().unwrap().to_string();
        let payload = |tag: u8| {
            let mut w = SnapshotWriter::new();
            w.put_u8(tag);
            snapshot_tags::write_config(&mut w, 2_000, 4);
            w.into_bytes()
        };
        let write = |backend: &str, tag: u8| {
            RunCheckpoint {
                identity: RunIdentity::new(backend, 2_000, 3, 5, ""),
                rng: SimRng::new(1).state(),
                recorder: None,
                engine: payload(tag),
            }
            .save(&path)
            .unwrap();
        };
        let run = |extra: &[&str]| {
            let mut args = vec!["--n", "2000", "--k", "3", "--seed", "5", "--resume"];
            args.push(&path_str);
            args.extend_from_slice(extra);
            cmd_run(&s(&args)).unwrap_err().0
        };
        for (name, tag) in [
            ("seq", snapshot_tags::USD_SEQ),
            ("skip", snapshot_tags::USD_SKIP),
            ("pargraph", snapshot_tags::PAR_GRAPH),
        ] {
            // A run on the old default wrote identity `skip`; the
            // resolved default no longer matches it.
            write(name, tag);
            let err = run(&[]);
            assert!(err.contains(&format!("backend {name}")), "{err}");
            let err = run(&["--backend", name]);
            assert!(err.contains("removed"), "{err}");
            // A stray payload under a live identity fails the tag check.
            write("count", tag);
            let err = run(&["--backend", "count"]);
            assert!(
                err.contains(&format!("snapshot is for engine '{name}'")),
                "{err}"
            );
        }
        // Tag 4 belonged to the retired stand-alone per-event engine; the
        // `graph` backend runs the batch-graph engine's per-event policy,
        // which refuses the payload by name.
        write("graph", snapshot_tags::GRAPH);
        let err = run(&["--backend", "graph"]);
        assert!(err.contains("snapshot is for engine 'graphwise'"), "{err}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("removed.ckpt.prev"));
    }

    /// `regular` and `er` graphs are drawn from --topo-seed, so a
    /// checkpoint refuses to resume onto a graph drawn from another seed.
    #[test]
    fn resume_refuses_a_different_topology_seed() {
        let dir = std::env::temp_dir().join(format!("usd_cli_topo_seed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("c.ckpt");
        let path = ckpt.to_str().unwrap();
        let run = "--n 40000 --k 2 --seed 5 --topology regular:4 --backend agent";
        let args = |extra: &str| {
            s(&format!("{run} {extra}")
                .split_whitespace()
                .collect::<Vec<_>>())
        };
        cmd_run(&args(&format!(
            "--checkpoint {path} --checkpoint-every 200000"
        )))
        .unwrap();
        cmd_run(&args(&format!("--resume {path}"))).unwrap();
        let err = cmd_run(&args(&format!("--resume {path} --topo-seed 8")))
            .unwrap_err()
            .0;
        assert!(
            err.contains("topology 'regular:4, topo-seed 7' (flags say 'regular:4, topo-seed 8')"),
            "{err}"
        );
        // The file is intact: only the flags differ.
        assert!(
            err.contains("checkpoint was written by a different run"),
            "{err}"
        );
        assert!(!err.contains("corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_command_runs_small() {
        cmd_sweep(&s(&["--n", "2000", "--seeds", "1"])).unwrap();
        // A 64-lane pass sums its lanes' clocks: not one run per seed.
        let err = cmd_sweep(&s(&["--n", "5000", "--seeds", "1", "--backend", "replica"]))
            .unwrap_err()
            .0;
        assert!(
            err.contains("`usd-sim run --backend replica` and topology_sweep"),
            "{err}"
        );
        let err = cmd_sweep(&s(&["--n", "20000", "--backend", "graph"])).unwrap_err();
        assert!(err.0.contains("exceeds the 10000 cap"), "{}", err.0);
    }

    #[test]
    fn run_rejects_bad_instance() {
        assert!(cmd_run(&s(&["--n", "1"])).is_err());
        assert!(cmd_run(&s(&["--n", "10", "--k", "11"])).is_err());
        // Default figure1 bias does not fit tiny populations: clean error,
        // not a panic.
        assert!(cmd_run(&s(&["--n", "2", "--k", "2"])).is_err());
        assert!(cmd_run(&s(&["--n", "10", "--k", "2", "--bias", "9"])).is_err());
        // Alphabets past the transition-table budget: exit 2 naming the
        // budget, on the named and on the resolved backend, on a graph and
        // on the clique (where `batch` is resolved).
        for args in [
            "--n 70002 --k 70000 --bias 0 --topology cycle --backend graph",
            "--n 70002 --k 70000 --bias 0 --topology cycle --backend batchgraph",
            "--n 70002 --k 70000 --bias 0 --topology cycle",
            "--n 140000 --k 70000 --bias 0",
        ] {
            let args: Vec<&str> = args.split_whitespace().collect();
            let err = cmd_run(&s(&args)).unwrap_err().0;
            assert!(err.contains("over its table budget of 8192"), "{err}");
        }
        // Refused before anything is built: a cycle past the u32 edge ids,
        // a replica alphabet past 16 bit planes, and complete graphs past
        // their cap (the first's edge list alone would take 40 GB).
        for (args, why) in [
            (
                "--n 3000000000 --k 2 --topology cycle --backend graph",
                "past the u32 id ceiling",
            ),
            (
                "--n 200000 --k 70000 --backend replica --bias 0 --replicas 2",
                "over the limit of 65536",
            ),
            (
                "--n 100000 --k 2 --topology complete",
                "exceeds the 10000 cap",
            ),
            (
                "--n 10001 --k 2 --bias 0 --topology complete --backend agent",
                "agent on the complete graph materializes its n(n-1)/2 edges",
            ),
        ] {
            let err = cmd_run(&s(&args.split_whitespace().collect::<Vec<_>>()))
                .unwrap_err()
                .0;
            assert!(err.contains(why), "{args}: {err}");
        }
    }

    #[test]
    fn run_reports_a_replica_clock_as_the_lane_mean() {
        // A 64-lane pass's aggregate clock is the sum of its lane clocks,
        // so the line's per-lane parallel time must be the lane mean.
        let args = "--n 20000 --k 2 --backend replica --max-bias --seed 4";
        cmd_run(&s(&args.split_whitespace().collect::<Vec<_>>())).unwrap();
        let n = 20_000;
        let config = InitialConfigBuilder::new(n, 2).max_admissible_bias();
        let (result, sim) = RunSpec::new(&config)
            .backend(Backend::Replica)
            .replicas(DEFAULT_REPLICAS)
            .run_keeping(&mut SimRng::new(4));
        let ens = EnsembleOutcome::from_simulator(sim.unwrap().as_ref(), 2, config.plurality());
        let times = ens.stabilization_times();
        assert_eq!(times.len(), 64, "every lane stabilizes");
        assert_eq!(times.iter().sum::<f64>(), result.interactions as f64);
        let lane_mean = Summary::of(&times).mean() / n as f64;
        let line = outcome_line(&result, n, Some(&ens), std::time::Duration::ZERO);
        let expect = format!(
            "after {} interactions summed over 64 lanes ({lane_mean:.2} parallel time per lane)",
            fmt_thousands(result.interactions)
        );
        assert!(line.contains(&expect), "{line}");
        // The JSON report names the lane count and carries the lane mean.
        let telemetry = EngineTelemetry::new();
        let zero = std::time::Duration::ZERO;
        let json = run_report_json(
            Backend::Replica,
            n,
            2,
            4,
            64,
            &result,
            zero,
            None,
            &telemetry,
        );
        let field = json.split("\"parallel_time\":").nth(1).unwrap();
        let parallel: f64 = field.split(',').next().unwrap().parse().unwrap();
        assert!((parallel - lane_mean).abs() < 1e-5, "{json}");
        assert!(json.contains(",\"lanes\":64,"), "{json}");
        // A single-lane run keeps the plain clock.
        let line = outcome_line(&result, n, None, std::time::Duration::ZERO);
        assert!(line.contains(&format!("({:.2} parallel time)", result.parallel_time(n))));
    }

    #[test]
    fn a_lane_mixture_reads_as_frozen_only_when_a_lane_froze() {
        use usd_core::stabilization::StabilizationResult;
        use ConsensusOutcome::{AllUndecided, Frozen, Timeout, Winner};
        let result = |outcome, interactions| StabilizationResult {
            outcome,
            interactions,
            initial_plurality: Some(0),
        };
        let ensemble = |a, b| EnsembleOutcome {
            lanes: vec![
                usd_core::LaneOutcome {
                    lane: 0,
                    result: result(a, 1_000),
                },
                usd_core::LaneOutcome {
                    lane: 1,
                    result: result(b, 1_000),
                },
            ],
        };
        // The lane-summed counts of two lanes that elected different
        // winners classify as frozen.
        let aggregate = result(Frozen, 2_000);
        let zero = std::time::Duration::ZERO;
        let line = outcome_line(&aggregate, 100, Some(&ensemble(Winner(0), Winner(1))), zero);
        assert!(
            line.starts_with(
                "all 2 lanes stabilized; they elected different winners after 2,000 \
                 interactions summed over 2 lanes (10.00 parallel time per lane)"
            ),
            "{line}"
        );
        let line = outcome_line(&aggregate, 100, Some(&ensemble(Winner(0), Frozen)), zero);
        assert!(
            line.starts_with("1 of 2 lanes froze in a mixed configuration after 2,000"),
            "{line}"
        );
        let line = outcome_line(&aggregate, 100, None, zero);
        assert!(line.starts_with("froze in a mixed configuration (disconnected topology)"));
        for (a, b, text) in [
            (Winner(1), Winner(1), "all 2 lanes stabilized on opinion 2"),
            (
                AllUndecided,
                AllUndecided,
                "all 2 lanes absorbed in the all-undecided state",
            ),
            (
                Winner(0),
                AllUndecided,
                "all 2 lanes stabilized; they elected different winners",
            ),
            (Frozen, Timeout, "1 of 2 lanes exhausted the budget"),
        ] {
            assert_eq!(ensemble(a, b).describe(), text);
        }
    }

    #[test]
    fn ensemble_line_counts_frozen_lanes_apart() {
        use usd_core::stabilization::StabilizationResult;
        use usd_core::LaneOutcome;
        use ConsensusOutcome::{Frozen, Timeout, Winner};
        let ensemble = |outcomes: [(ConsensusOutcome, u64); 2]| EnsembleOutcome {
            lanes: (0..2)
                .map(|lane| LaneOutcome {
                    lane,
                    result: StabilizationResult {
                        outcome: outcomes[lane as usize].0,
                        interactions: outcomes[lane as usize].1,
                        initial_plurality: Some(0),
                    },
                })
                .collect(),
        };
        // The frozen lane's clock stays out of the T statistics.
        let line = ensemble_line(&ensemble([(Winner(0), 1_000), (Frozen, 9_000)]), 100);
        assert_eq!(
            line,
            "ensemble: 2 lanes, 1 stabilized, 1 froze, plurality won 1/2, \
             T parallel mean 10.00 (min 10.00, max 10.00)"
        );
        let line = ensemble_line(&ensemble([(Frozen, 1_000), (Timeout, 2_000)]), 100);
        assert_eq!(
            line,
            "ensemble: 2 lanes, 0 stabilized, 1 froze, plurality won 0/2, \
             no lane reached consensus or all-undecided absorption"
        );
        let line = ensemble_line(&ensemble([(Winner(0), 1_000), (Winner(1), 3_000)]), 100);
        assert_eq!(
            line,
            "ensemble: 2 lanes, 2 stabilized, plurality won 1/2, \
             T parallel mean 20.00 (min 10.00, max 30.00)"
        );
    }

    #[test]
    fn trace_rejects_missing_file() {
        assert!(cmd_trace(&s(&["/nonexistent/file.usdt"])).is_err());
        assert!(cmd_trace(&s(&[])).is_err());
    }
}
