//! Count-based exact simulator.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::protocol::Protocol;
use crate::sampling::FenwickSampler;
use crate::simulator::{snapshot_tags, Simulator};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::rng::SimRng;

/// Count-based exact simulator for the uniform clique scheduler.
///
/// Agents are anonymous, so under the uniform scheduler the pair of
/// *states* selected for interaction is distributed as: first state drawn
/// with probability `count/n`, second state drawn from the remaining `n−1`
/// agents. Sampling state pairs directly therefore induces exactly the same
/// Markov chain on count configurations as per-agent simulation — this is
/// verified against [`AgentSimulator`](crate::simulator::AgentSimulator) in
/// the cross-crate property tests.
///
/// Memory is O(|Σ|) and each interaction costs O(log |Σ|) via a Fenwick
/// sampler, which is what makes the paper's n = 10⁶ runs cheap.
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)): **exact** —
/// every advancement is one scheduled interaction, so observers see every
/// effective event individually.
#[derive(Debug, Clone)]
pub struct CountSimulator<P: Protocol> {
    protocol: P,
    sampler: FenwickSampler,
    n: u64,
    interactions: u64,
    effective_interactions: u64,
    /// Engine telemetry. A per-event engine: the live counters are
    /// `scheduled`/`effective` (mirroring the clocks), `dense_steps`, and
    /// `pair_draws` — one per scheduled state-pair draw. No phases, no
    /// spans.
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): the literally-counted no-op run
    /// before each effective interaction lands in `skip_len`.
    hist: Option<Box<EventHistograms>>,
    /// Consecutive no-op interactions (histogram recording only).
    noop_run: u64,
}

impl<P: Protocol> CountSimulator<P> {
    /// Create from a count configuration. Requires n ≥ 2.
    pub fn new(protocol: P, config: &CountConfig) -> Self {
        assert_eq!(
            config.num_states(),
            protocol.num_states(),
            "configuration does not match protocol state count"
        );
        assert!(config.n() >= 2, "need at least 2 agents");
        CountSimulator {
            protocol,
            sampler: FenwickSampler::new(config.counts()),
            n: config.n(),
            interactions: 0,
            effective_interactions: 0,
            telemetry: EngineTelemetry::new(),
            hist: None,
            noop_run: 0,
        }
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }
}

impl<P: Protocol> Simulator for CountSimulator<P> {
    fn population(&self) -> u64 {
        self.n
    }

    fn num_states(&self) -> usize {
        self.sampler.len()
    }

    fn counts(&self) -> &[u64] {
        self.sampler.weights()
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    fn step(&mut self, rng: &mut SimRng) -> bool {
        self.interactions += 1;
        self.telemetry.scheduled += 1;
        self.telemetry.dense_steps += 1;
        self.telemetry.pair_draws += 1;
        let (si, sj) = self.sampler.sample_distinct_pair(rng);
        let (ti, tj) = self.protocol.transition_indices(si, sj);
        if (ti, tj) == (si, sj) {
            if self.hist.is_some() {
                self.noop_run += 1;
            }
            return false;
        }
        self.sampler.add(si, -1);
        self.sampler.add(sj, -1);
        self.sampler.add(ti, 1);
        self.sampler.add(tj, 1);
        self.effective_interactions += 1;
        self.telemetry.effective += 1;
        if let Some(h) = &mut self.hist {
            // The completed no-op run before this effective event — the
            // quantity the leaping engines sample geometrically.
            h.skip_len.add_u64(self.noop_run);
            self.noop_run = 0;
        }
        true
    }

    fn is_silent(&self) -> bool {
        self.protocol.is_silent(self.counts())
    }

    fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    fn set_histograms(&mut self, enabled: bool) {
        self.hist = if enabled {
            Some(Box::new(EventHistograms::new()))
        } else {
            None
        };
        self.noop_run = 0;
    }

    fn histograms(&self) -> Option<EventHistograms> {
        self.hist.as_deref().cloned()
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_u8(snapshot_tags::COUNT);
        w.put_u64(self.n);
        w.put_u32(self.sampler.len() as u32);
        w.put_u64_slice(self.counts());
        w.put_u64(self.interactions);
        w.put_u64(self.effective_interactions);
        self.telemetry.write_snapshot(w);
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.noop_run);
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        snapshot_tags::expect(r, snapshot_tags::COUNT, "count")?;
        snapshot_tags::expect_config(r, self.n, self.sampler.len())?;
        let counts = r.get_u64_vec()?;
        if counts.len() != self.sampler.len() {
            return Err(CheckpointError::Corrupt(format!(
                "count snapshot has {} states (engine has {})",
                counts.len(),
                self.sampler.len()
            )));
        }
        if counts.iter().sum::<u64>() != self.n {
            return Err(CheckpointError::Corrupt(
                "count snapshot does not sum to the population".into(),
            ));
        }
        let interactions = r.get_u64()?;
        let effective_interactions = r.get_u64()?;
        let telemetry = EngineTelemetry::read_snapshot(r)?;
        let hist = if r.get_bool()? {
            Some(Box::new(EventHistograms::read_snapshot(r)?))
        } else {
            None
        };
        let noop_run = r.get_u64()?;
        self.sampler = FenwickSampler::new(&counts);
        self.interactions = interactions;
        self.effective_interactions = effective_interactions;
        self.telemetry = telemetry;
        self.hist = hist;
        self.noop_run = noop_run;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OneWayEpidemic;

    fn epidemic(n: u64, infected: u64) -> CountSimulator<OneWayEpidemic> {
        CountSimulator::new(
            OneWayEpidemic,
            &CountConfig::from_counts(vec![infected, n - infected]),
        )
    }

    #[test]
    fn population_conserved_over_many_steps() {
        let mut sim = epidemic(100, 10);
        let mut rng = SimRng::new(6);
        for _ in 0..10_000 {
            sim.step(&mut rng);
            assert_eq!(sim.counts().iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn epidemic_reaches_silence() {
        let mut sim = epidemic(200, 1);
        let mut rng = SimRng::new(7);
        sim.run_to_silence(&mut rng, 10_000_000);
        assert_eq!(sim.counts(), &[200, 0]);
    }

    #[test]
    fn epidemic_completion_time_is_theta_n_log_n() {
        // Coupon-collector style: completion in ~n ln n / 2 * 2 interactions;
        // just sanity-check the order of magnitude across seeds.
        let n = 500u64;
        let mut total = 0u64;
        for seed in 0..10 {
            let mut sim = epidemic(n, 1);
            let mut rng = SimRng::new(seed);
            sim.run_until(&mut rng, 100_000_000, &mut |c| c[1] == 0);
            total += sim.interactions();
        }
        let mean = total as f64 / 10.0;
        let nf = n as f64;
        let theory = nf * nf.ln(); // Θ reference point
        assert!(
            mean > theory * 0.3 && mean < theory * 3.0,
            "mean {mean} vs theory {theory}"
        );
    }

    #[test]
    fn effective_interactions_bounded_by_changes() {
        let mut sim = epidemic(50, 25);
        let mut rng = SimRng::new(8);
        for _ in 0..5_000 {
            sim.step(&mut rng);
        }
        assert_eq!(sim.effective_interactions(), 25);
    }

    #[test]
    fn stop_predicate_halts_run() {
        let mut sim = epidemic(100, 1);
        let mut rng = SimRng::new(9);
        sim.run_until(&mut rng, u64::MAX, &mut |c| c[0] >= 50);
        assert!(sim.counts()[0] >= 50);
        assert!(sim.counts()[0] < 100, "should stop well before completion");
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn tiny_population_rejected() {
        CountSimulator::new(OneWayEpidemic, &CountConfig::from_counts(vec![1, 0]));
    }

    #[test]
    #[should_panic(expected = "state count")]
    fn wrong_state_count_rejected() {
        CountSimulator::new(OneWayEpidemic, &CountConfig::from_counts(vec![1, 1, 1]));
    }
}
