//! Output checks. A sample that fails one counts as failed; it is never
//! dropped from the run.

use crate::sample::{Fingerprint, SampleOutcome};
use crate::workload::{Instance, Placement, Stop};
use usd_core::{Bounds, ConsensusOutcome};

/// Check one sample's outcome against its instance:
///
/// * the final counts sum to `n`;
/// * a stabilization sample is silent within its budget and ends with a
///   winner (not all-undecided, frozen or timed out);
/// * the explicit-patch endgame is won by opinion 0;
/// * a horizon sample stops at exactly its horizon.
pub fn check_sample(inst: &Instance, o: &SampleOutcome) -> Result<(), String> {
    let total: u64 = o.counts.iter().sum();
    if total != inst.n() {
        return Err(format!("counts sum to {total}, not n = {}", inst.n()));
    }
    match inst.stop {
        Stop::Silence { budget } => {
            if !o.result.stabilized() || o.result.interactions > budget {
                return Err(format!(
                    "not silent within the budget of {budget} interactions ({:?} at {})",
                    o.result.outcome, o.result.interactions
                ));
            }
            let ConsensusOutcome::Winner(winner) = o.result.outcome else {
                return Err(format!("ended {:?}, not with a winner", o.result.outcome));
            };
            if matches!(inst.placement, Placement::Patch { .. }) && winner != 0 {
                return Err(format!("the opinion-1 patch won (winner {winner})"));
            }
        }
        Stop::Horizon { interactions } => {
            if o.result.interactions != interactions {
                return Err(format!(
                    "stopped at {} scheduled interactions, not at the horizon {interactions}",
                    o.result.interactions
                ));
            }
        }
    }
    Ok(())
}

/// Check the run as a whole: on the clique, the mean parallel
/// stabilization time lies strictly inside the E7 band, above Theorem
/// 3.5's lower bound and below the O(k ln n) upper bound.
pub fn check_run(inst: &Instance, outcomes: &[SampleOutcome]) -> Result<(), String> {
    if inst.topology.is_some() || !matches!(inst.stop, Stop::Silence { .. }) {
        return Ok(());
    }
    if outcomes.is_empty() {
        return Err("no samples".into());
    }
    let n = inst.n();
    let mean = outcomes
        .iter()
        .map(|o| o.result.parallel_time(n))
        .sum::<f64>()
        / outcomes.len() as f64;
    let bounds = Bounds::new(n, inst.k());
    let (lo, hi) = (bounds.lower_bound_parallel(), bounds.upper_bound_parallel());
    if mean > lo && mean < hi {
        Ok(())
    } else {
        Err(format!(
            "mean parallel stabilization time {mean:.3} outside the E7 band ({lo:.3}, {hi:.3})"
        ))
    }
}

/// The traced run must do exactly the untraced run's work: a differing
/// fingerprint means the traced drive loop left `RunSpec`'s call sequence
/// (or the engine is not deterministic), and the traced sample fails.
pub fn check_fingerprint(untraced: &Fingerprint, traced: &Fingerprint) -> Result<(), String> {
    if untraced == traced {
        Ok(())
    } else {
        Err(format!(
            "traced fingerprint {traced} differs from the untraced {untraced}"
        ))
    }
}
