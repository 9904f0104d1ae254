//! Fixed-work, work-normalized benchmark of the USD simulators.
//!
//! One process runs one workload over a fixed list of samples derived
//! from `--seed`, on one thread, and prints `eff_per_s`, `setup_s` and
//! `peak_rss_mb` (untraced, `--trace 0`) or the per-layer metrics
//! (`--trace 1`: an untraced pass, then a traced pass of the same
//! samples). Every output is checked; the last stdout line is the JSON
//! result. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload clique-e6 --seed 1 --seconds 20 --trace 0
//! ```

pub mod checks;
pub mod manifest;
pub mod micro;
pub mod report;
pub mod sample;
pub mod trace;
pub mod workload;
