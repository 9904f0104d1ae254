use std::path::Path;
use std::process::ExitCode;
use usd_perfbench::checks::{check_fingerprint, check_run, check_sample};
use usd_perfbench::manifest::Manifest;
use usd_perfbench::micro::sampler_timings;
use usd_perfbench::report::{
    eff_per_s, end_to_end, fingerprint_digest, median, peak_rss_mb, per_layer, result_line, Metric,
};
use usd_perfbench::sample::{run_e2e, run_traced, Fingerprint, SampleOutcome};
use usd_perfbench::trace::Recorder;
use usd_perfbench::workload::{sample_seeds, Workload, RUN_SECONDS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, RUN_SECONDS, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Whether a check passed; a failure is reported on stderr.
fn passes(what: &str, r: Result<(), String>) -> bool {
    match r {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: {what}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The experiments' `--threads 1`: every engine is bit-neutral in its
    // thread count, so pinning changes wall time only, and RunSpec never
    // probes the host for its parallelism inside a timed set-up.
    sim_stats::threads::set_thread_override(Some(1));
    let threads = sim_stats::threads::resolve_threads();
    let workload = args.workload;
    let inst = workload.instance();
    let samples = workload.samples(args.seconds);
    let seeds = sample_seeds(args.seed, samples);
    let manifest = Manifest::collect(
        threads,
        workload.name(),
        args.seed,
        samples,
        args.seconds,
        args.trace,
    );
    println!("manifest {}", manifest.to_json());
    let mut correct = passes(
        "threads",
        if threads == 1 {
            Ok(())
        } else {
            Err(format!("resolved {threads} threads, not 1"))
        },
    );
    let mut failed = vec![false; samples];

    // With --trace 1 each sample runs untraced and then traced, back to
    // back, so both passes see the same host conditions and the same
    // allocator state.
    let mut e2e = Vec::with_capacity(samples);
    let mut traced = Vec::new();
    let mut rec = Recorder::new();
    for (i, &s) in seeds.iter().enumerate() {
        let sample = run_e2e(&inst, s, workload.setup_reps());
        let fp = Fingerprint::of(&sample.telemetry);
        println!(
            "sample {i} seed {} setup_s {:.6} drive_s {:.6} parallel_time {:.3} {:?} fingerprint {fp}",
            s.run,
            median(&sample.setup_s),
            sample.drive_s,
            sample.outcome.result.parallel_time(inst.n()),
            sample.outcome.result.outcome,
        );
        failed[i] |= !passes(&format!("sample {i}"), check_sample(&inst, &sample.outcome));
        e2e.push(sample);
        if !args.trace {
            continue;
        }
        let t = run_traced(&inst, s, i as u32, threads, &mut rec);
        let traced_fp = Fingerprint::of(&t.telemetry);
        println!(
            "traced sample {i}: setup {:.6} s = topology.build {:.6} + simulator.placement {:.6} \
             + simulator.new {:.6} + unattributed {:.6}; drive {:.6} s = block {:.6} + sparse {:.6} \
             + other {:.6} + unattributed {:.6} over {} calls; fingerprint {traced_fp}",
            t.setup_s,
            t.topology_s,
            t.placement_s,
            t.new_s,
            t.setup_unattributed_s(),
            t.drive_s,
            t.class_s[0],
            t.class_s[1],
            t.class_s[2],
            t.drive_unattributed_s(),
            t.class_calls.iter().sum::<u64>(),
        );
        failed[i] |= !passes(
            &format!("traced sample {i}"),
            check_sample(&inst, &t.outcome),
        );
        failed[i] |= !passes(
            &format!("traced sample {i}"),
            check_fingerprint(&fp, &traced_fp),
        );
        traced.push(t);
    }
    let outcomes: Vec<SampleOutcome> = e2e.iter().map(|s| s.outcome.clone()).collect();
    let mut run_ok = passes("run", check_run(&inst, &outcomes));
    let fingerprints: Vec<Fingerprint> =
        e2e.iter().map(|s| Fingerprint::of(&s.telemetry)).collect();
    println!(
        "fingerprint-digest {:016x}",
        fingerprint_digest(&fingerprints)
    );

    let metrics: Vec<Metric> = if !args.trace {
        match peak_rss_mb() {
            Ok(rss) => end_to_end(&e2e, rss),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let outcomes: Vec<SampleOutcome> = traced.iter().map(|s| s.outcome.clone()).collect();
        run_ok &= passes("traced run", check_run(&inst, &outcomes));
        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.tsv", workload.name(), args.seed));
        match rec.write_tsv(&spans, &format!("manifest {}", manifest.to_json())) {
            Ok(()) => println!("spans {} written to {}", rec.len(), spans.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", spans.display());
                return ExitCode::FAILURE;
            }
        }
        let untraced = eff_per_s(e2e.iter().map(|s| (&s.telemetry, s.drive_s)));
        per_layer(&inst, &traced, untraced, sampler_timings(args.seed))
    };
    correct &= passes(
        "metrics",
        match metrics.iter().find(|m| !m.value.is_finite()) {
            None => Ok(()),
            Some(m) => Err(format!("{} is not finite", m.name)),
        },
    );
    let failed = if run_ok {
        failed.iter().filter(|&&f| f).count()
    } else {
        samples
    };
    println!(
        "{}",
        result_line(correct && failed == 0, samples, failed, &metrics)
    );
    ExitCode::SUCCESS
}
