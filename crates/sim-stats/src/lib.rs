//! Statistics, RNG, and reporting substrate for the plurality-consensus
//! reproduction.
//!
//! This crate contains everything the simulation and experiment crates need
//! that is not specific to population protocols:
//!
//! * [`rng`] — deterministic, splittable random number generation
//!   (Xoshiro256++ seeded through SplitMix64) so every experiment is
//!   reproducible from a single master seed;
//! * [`summary`] — streaming and batch summary statistics (Welford mean and
//!   variance, quantiles, confidence intervals);
//! * [`histogram`] — fixed-width and logarithmic histograms;
//! * [`ks`] — two-sample Kolmogorov–Smirnov statistics for the
//!   simulator-equivalence experiments;
//! * [`regression`] — ordinary least squares and log–log scaling fits, used
//!   to extract empirical exponents from stabilization-time sweeps;
//! * [`multinomial`] — hypergeometric sampling
//!   (an O(draws) urn sampler plus the batch engine's block samplers);
//! * [`binomial`] — exact binomial and hypergeometric samplers with
//!   inverse-CDF and BTPE-style rejection paths, the statistical substrate
//!   of the batch-leaping simulator;
//! * [`timeseries`] — trajectory containers with downsampling;
//! * [`plot`] — ASCII line charts for terminal experiment output;
//! * [`tables`] — plain-text table formatting for experiment reports.
//!
//! All functionality is dependency-light and deterministic under a fixed
//! seed, which the test suites across the workspace rely on.

// `deny` rather than `forbid`: the one sanctioned exception is the
// type-erased job handoff inside [`threads`] (the persistent worker pool),
// which carries stack-borrowed closures to pool workers and is annotated
// item-by-item with its safety contract. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod histogram;
pub mod ks;
pub mod multinomial;
pub mod plot;
pub mod regression;
pub mod rng;
pub mod summary;
pub mod tables;
pub mod threads;
pub mod timeseries;

pub use binomial::{
    ln_binomial, ln_factorial, ln_gamma, sample_binomial, sample_hypergeometric_fast,
};
pub use histogram::{Histogram, LogHistogram};
pub use ks::{ks_critical_value, ks_reject, ks_statistic};
pub use multinomial::{
    hypergeometric_pairing_table, multivariate_hypergeometric, multivariate_hypergeometric_streams,
    sample_hypergeometric, ScheduleSampler,
};
pub use plot::AsciiChart;
pub use regression::{loglog_fit, ols_fit, LinearFit};
pub use rng::{RngFactory, SimRng};
pub use summary::{quantile, Summary};
pub use tables::TextTable;
pub use timeseries::{Series, TimeSeries};
