//! Experiment harness for the PODC 2025 lower-bound reproduction.
//!
//! Every figure and quantitative claim in the paper's evaluation maps to
//! one module here and one binary in `src/bin/` (README.md's "Experiments
//! × backends" table lists the engines each runs on):
//!
//! | id  | artifact                         | module / binary              |
//! |-----|----------------------------------|------------------------------|
//! | E1  | Figure 1 (left)                  | [`fig1`] / `fig1_left`       |
//! | E2  | Figure 1 (right)                 | [`fig1`] / `fig1_right`      |
//! | E3  | Lemma 3.1 u(t) ceiling           | [`lemmas`] / `lemma31_undecided_bound` |
//! | E4  | Lemma 3.3 opinion growth         | [`lemmas`] / `lemma33_opinion_growth`  |
//! | E5  | Lemma 3.4 gap doubling           | [`lemmas`] / `lemma34_gap_doubling`    |
//! | E6  | Theorem 3.5 scaling              | [`scaling`] / `thm35_scaling`          |
//! | E7  | Tightness band (vs Amir et al.)  | [`scaling`] / `tightness_band`         |
//! | E8  | Bias sensitivity                 | [`comparisons`] / `bias_sensitivity`   |
//! | E9  | Population-protocol vs Gossip    | [`comparisons`] / `gossip_vs_pp`       |
//! | E10 | k = 2 special case O(log n)      | [`scaling`] / `k2_logn`                |
//! | E11 | Baseline protocol comparison     | [`comparisons`] / `baseline_comparison`|
//! | E12 | Simulator ablation               | [`comparisons`] / `simulator_ablation` |
//! | E13 | Breaking the barrier (§4)        | [`barrier`] / `breaking_the_barrier`   |
//! | E14 | Topology sweep (off-clique USD)  | [`topology`] / `topology_sweep`        |
//!
//! Shared infrastructure: [`cli`] (uniform `--n/--k/--seeds/--csv/--threads`
//! flag parsing), [`runner`] (deterministic multi-threaded sweeps with
//! `USD_THREADS`/`--threads` thread-count control), and [`report`] (stdout
//! tables/charts plus optional CSV output).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod cli;
pub mod comparisons;
pub mod fig1;
pub mod lemmas;
pub mod report;
pub mod runner;
pub mod scaling;
pub mod topology;

pub use cli::ExpArgs;
pub use report::Report;
