//! The host record printed at the head of every benchmark output.

use crate::report::json_str;
use std::path::Path;
use std::process::Command;

/// What a run's figures depend on besides the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Worker threads the run resolved (the benchmark pins 1).
    pub threads: usize,
    /// `nproc`'s answer, or `unknown`.
    pub nproc: String,
    /// `std::thread::available_parallelism`, or `unknown`.
    pub available_parallelism: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo profile and optimization level of the build.
    pub profile: String,
    /// `git rev-parse HEAD` of the repository, when it is a git checkout.
    pub git_head: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Samples per workload in this run.
    pub samples: usize,
    /// `--seconds` the sample list was sized for.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Manifest {
    /// Record the host, build and run parameters.
    pub fn collect(
        threads: usize,
        workload: &str,
        seed: u64,
        samples: usize,
        seconds: u64,
        trace: bool,
    ) -> Manifest {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives inside the repository");
        // Only ask git inside a checkout of its own, so git never walks up
        // into an enclosing repository.
        let git_head = if root.join(".git").exists() {
            command_line(
                Command::new("git")
                    .arg("-C")
                    .arg(root)
                    .args(["rev-parse", "HEAD"]),
            )
        } else {
            None
        };
        Manifest {
            threads,
            nproc: command_line(&mut Command::new("nproc")).unwrap_or_else(|| "unknown".into()),
            available_parallelism: std::thread::available_parallelism()
                .map_or_else(|_| "unknown".into(), |p| p.get().to_string()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            git_head: git_head.unwrap_or_else(|| "none (not a git checkout)".into()),
            workload: workload.to_string(),
            seed,
            samples,
            seconds,
            trace,
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"threads\": {}, \"nproc\": {}, \"available_parallelism\": {}, \"rustc\": {}, \
             \"profile\": {}, \"git_head\": {}, \"workload\": {}, \"seed\": {}, \
             \"samples\": {}, \"seconds\": {}, \"trace\": {}}}",
            self.threads,
            json_str(&self.nproc),
            json_str(&self.available_parallelism),
            json_str(&self.rustc),
            json_str(&self.profile),
            json_str(&self.git_head),
            json_str(&self.workload),
            self.seed,
            self.samples,
            self.seconds,
            self.trace
        )
    }
}
