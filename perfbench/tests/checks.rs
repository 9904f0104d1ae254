//! Every output check rejects a doctored outcome and accepts the honest
//! one.

use usd_core::{ConsensusOutcome, StabilizationResult};
use usd_perfbench::checks::{check_fingerprint, check_run, check_sample};
use usd_perfbench::sample::{Fingerprint, SampleOutcome};
use usd_perfbench::workload::{Instance, Workload};

fn outcome(outcome: ConsensusOutcome, interactions: u64, counts: Vec<u64>) -> SampleOutcome {
    SampleOutcome {
        result: StabilizationResult {
            outcome,
            interactions,
            initial_plurality: Some(0),
        },
        counts,
    }
}

/// All of `n` agents on opinion `winner` of a `k`-opinion instance.
fn consensus(inst: &Instance, winner: usize, interactions: u64) -> SampleOutcome {
    let mut counts = vec![0; inst.k() + 1];
    counts[winner] = inst.n();
    outcome(ConsensusOutcome::Winner(winner), interactions, counts)
}

#[test]
fn stabilization_checks_reject_doctored_outcomes() {
    for w in [
        Workload::CliqueE6,
        Workload::Reg8Dense,
        Workload::TorusEndgame,
    ] {
        let inst = w.instance();
        let budget = inst.stop.budget();
        let n = inst.n();
        let honest = consensus(&inst, 0, 60 * n);
        assert_eq!(check_sample(&inst, &honest), Ok(()), "{}", w.name());

        let mut lost_agent = honest.clone();
        lost_agent.counts[0] -= 1;
        assert!(check_sample(&inst, &lost_agent).is_err(), "{}", w.name());

        let timeout = outcome(ConsensusOutcome::Timeout, budget, honest.counts.clone());
        assert!(check_sample(&inst, &timeout).is_err(), "{}", w.name());

        let over_budget = consensus(&inst, 0, budget + 1);
        assert!(check_sample(&inst, &over_budget).is_err(), "{}", w.name());

        let mut all_undecided = vec![0; inst.k() + 1];
        all_undecided[inst.k()] = n;
        let undecided = outcome(ConsensusOutcome::AllUndecided, 60 * n, all_undecided);
        assert!(check_sample(&inst, &undecided).is_err(), "{}", w.name());

        let mut split = vec![0; inst.k() + 1];
        split[0] = n - 1;
        split[1] = 1;
        let frozen = outcome(ConsensusOutcome::Frozen, 60 * n, split);
        assert!(check_sample(&inst, &frozen).is_err(), "{}", w.name());
    }
}

#[test]
fn the_endgame_patch_must_lose() {
    let inst = Workload::TorusEndgame.instance();
    assert_eq!(check_sample(&inst, &consensus(&inst, 0, 1 << 30)), Ok(()));
    assert!(check_sample(&inst, &consensus(&inst, 1, 1 << 30)).is_err());
}

#[test]
fn the_horizon_must_be_hit_exactly() {
    let inst = Workload::TorusCoarsen.instance();
    let horizon = inst.stop.budget();
    let n = inst.n();
    let mixed = vec![n / 2, n / 4, n - n / 2 - n / 4];
    let at = |interactions| outcome(ConsensusOutcome::Timeout, interactions, mixed.clone());
    assert_eq!(check_sample(&inst, &at(horizon)), Ok(()));
    assert!(check_sample(&inst, &at(horizon - 1)).is_err());
    assert!(check_sample(&inst, &at(horizon + 1)).is_err());
    let silent_early = consensus(&inst, 0, horizon / 2);
    assert!(check_sample(&inst, &silent_early).is_err());
    let mut lost_agent = at(horizon);
    lost_agent.counts[2] += 1;
    assert!(check_sample(&inst, &lost_agent).is_err());
}

#[test]
fn the_clique_mean_must_lie_inside_the_e7_band() {
    let inst = Workload::CliqueE6.instance();
    let n = inst.n();
    // The band is (~1.06, ~373) parallel time; runs measure 64-67.
    let run = |times: &[f64]| -> Vec<SampleOutcome> {
        times
            .iter()
            .map(|&t| consensus(&inst, 0, (t * n as f64) as u64))
            .collect()
    };
    assert_eq!(check_run(&inst, &run(&[64.0, 67.0])), Ok(()));
    assert!(check_run(&inst, &run(&[0.5, 1.0])).is_err());
    assert!(check_run(&inst, &run(&[400.0, 380.0])).is_err());
    assert!(check_run(&inst, &[]).is_err());
    // The band is the clique's: graph workloads have none.
    let graph = Workload::TorusEndgame.instance();
    assert_eq!(check_run(&graph, &run(&[0.5])), Ok(()));
}

#[test]
fn a_traced_fingerprint_must_match_the_untraced_one() {
    let fp = Fingerprint {
        scheduled: 100,
        effective: 40,
        blocks: 3,
        table_draws: 90,
        sparse_events: 0,
    };
    assert_eq!(check_fingerprint(&fp, &fp), Ok(()));
    for doctored in [
        Fingerprint {
            scheduled: 101,
            ..fp
        },
        Fingerprint {
            effective: 39,
            ..fp
        },
        Fingerprint { blocks: 4, ..fp },
        Fingerprint {
            table_draws: 91,
            ..fp
        },
        Fingerprint {
            sparse_events: 1,
            ..fp
        },
    ] {
        assert!(check_fingerprint(&fp, &doctored).is_err());
    }
}
