//! Trajectory recording: a [`RunTicker`] that snapshots the configuration
//! once per parallel time unit into the binary-encodable [`Trajectory`]
//! of [`crate::encode`].
//!
//! [`TraceRecorder`] bounds the driving chunks through
//! [`horizon`](RunTicker::horizon) so the scheduled clock lands on every
//! multiple of n, as the timeline recorder does for its cadence marks.
//! It therefore records on every clique backend, leaping ones included:
//! attach it with [`RunSpec::ticker`](crate::RunSpec::ticker), run with
//! [`run_keeping`](crate::RunSpec::run_keeping), and call
//! [`finish`](TraceRecorder::finish) with the kept engine.

use crate::backend::RunTicker;
use crate::config::UsdConfig;
use crate::encode::Trajectory;
use pop_proto::Simulator;

/// Records a snapshot at clock 0, at every multiple of n on the scheduled
/// interaction clock, and at the end of the run.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    trajectory: Trajectory,
    next_mark: u64,
}

impl TraceRecorder {
    /// A recorder for a run starting from `config`, holding its initial
    /// snapshot.
    pub fn new(config: &UsdConfig) -> Self {
        let mut trajectory = Trajectory::new(config.n(), config.k());
        trajectory.push(0, config.clone());
        TraceRecorder {
            trajectory,
            next_mark: config.n(),
        }
    }

    fn push(&mut self, sim: &dyn Simulator) {
        let k = self.trajectory.k;
        let counts = sim.counts();
        let clock = sim.interactions();
        self.trajectory
            .push(clock, UsdConfig::new(counts[..k].to_vec(), counts[k]));
        self.next_mark = (clock / self.trajectory.n + 1) * self.trajectory.n;
    }

    /// Add the final configuration (unless the last snapshot already is
    /// it) and hand back the trajectory.
    pub fn finish(mut self, sim: &dyn Simulator) -> Trajectory {
        if self.trajectory.snapshots.last().map(|&(t, _)| t) != Some(sim.interactions()) {
            self.push(sim);
        }
        self.trajectory
    }
}

impl RunTicker for TraceRecorder {
    fn horizon(&self, scheduled: u64) -> u64 {
        self.next_mark.saturating_sub(scheduled).max(1)
    }

    fn tick(&mut self, sim: &dyn Simulator) {
        if sim.interactions() >= self.next_mark {
            self.push(sim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::init::InitialConfigBuilder;
    use crate::RunSpec;
    use sim_stats::rng::SimRng;

    fn record(config: &UsdConfig, backend: Backend, budget: u64, seed: u64) -> (Trajectory, bool) {
        let mut rec = TraceRecorder::new(config);
        let (result, sim) = RunSpec::new(config)
            .backend(backend)
            .budget(budget)
            .ticker(&mut rec)
            .run_keeping(&mut SimRng::new(seed));
        let sim = sim.expect("clique runs keep their engine");
        (rec.finish(sim.as_ref()), result.stabilized())
    }

    #[test]
    fn records_initial_and_final_snapshots() {
        let config = InitialConfigBuilder::new(1_000, 3).figure1();
        let (traj, stabilized) = record(&config, Backend::Agent, u64::MAX / 2, 1);
        assert!(stabilized);
        assert!(traj.snapshots.len() >= 2);
        assert_eq!(traj.snapshots[0], (0, config));
        let (_, final_cfg) = traj.snapshots.last().unwrap();
        assert!(final_cfg.is_silent());
    }

    #[test]
    fn snapshots_land_on_multiples_of_n_on_every_clique_backend() {
        let n = 500;
        let config = InitialConfigBuilder::new(n, 2).figure1();
        for backend in [Backend::Agent, Backend::Count, Backend::Batch] {
            let (traj, stabilized) = record(&config, backend, u64::MAX / 2, 2);
            assert!(stabilized, "{backend}");
            let inner = &traj.snapshots[1..traj.snapshots.len() - 1];
            assert!(!inner.is_empty(), "{backend}: no snapshot between the ends");
            for (i, (t, cfg)) in inner.iter().enumerate() {
                assert_eq!(*t, (i as u64 + 1) * n, "{backend}: snapshot off the grid");
                assert_eq!(cfg.n(), n);
            }
            let last = traj.snapshots.last().unwrap().0;
            assert!(last > inner.last().unwrap().0, "{backend}");
        }
    }

    #[test]
    fn budget_limits_recording() {
        let config = InitialConfigBuilder::new(2_000, 2).balanced();
        let (traj, stabilized) = record(&config, Backend::Batch, 4_000, 3);
        assert!(!stabilized, "a dead heat cannot stabilize in 2 rounds");
        let clocks: Vec<u64> = traj.snapshots.iter().map(|&(t, _)| t).collect();
        assert_eq!(clocks, [0, 2_000, 4_000]);
    }

    #[test]
    fn roundtrips_through_the_binary_format() {
        let config = InitialConfigBuilder::new(800, 4).figure1();
        let (traj, _) = record(&config, Backend::Count, u64::MAX / 2, 4);
        let decoded = Trajectory::decode(&traj.encode()).unwrap();
        assert_eq!(decoded, traj);
    }
}
