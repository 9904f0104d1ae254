//! Flight recorder: time-resolved telemetry and per-event histograms.
//!
//! A cumulative [`EngineTelemetry`] snapshot shows
//! *what* an engine did over a whole run but not *when* — exactly the
//! dense→sparse hysteresis transitions, frontier collapse, and endgame
//! behavior the parallel-time framing is about. This module adds the two
//! missing time-resolved views:
//!
//! * [`TimelineRecorder`] — samples telemetry **deltas** at a deterministic
//!   scheduled-clock cadence (never wall clock, so a timeline is
//!   bit-reproducible under a fixed seed), each sample tagged with the
//!   engine phase and the window's rates. Renders as schema-stable JSONL
//!   (the `usd-sim run --timeline` surface) or as a
//!   [`TimeSeries`] for plotting.
//! * [`EventHistograms`] — log-bucketed distributions of per-event engine
//!   quantities (geometric skip lengths, sparse block totals, dense block
//!   sizes, literal-fallback runs; the retired sidecar flush fields stay
//!   empty), harvested at the engines' existing telemetry increment
//!   sites and summarized by p50/p90/p99 quantiles. Recording is opt-in
//!   ([`Simulator::set_histograms`]);
//!   with it off the harvest sites cost one branch on a `None`.
//!
//! The histograms double as correctness checks: at constant active weight
//! the skipper's skip lengths are geometric and its per-block scheduled
//! totals negative-binomial, and the KS tests in `simulator::sparse` pin
//! the recorded distributions against those closed forms.
//!
//! # Sampling cadence
//!
//! The recorder does not drive the simulation; drivers call
//! [`TimelineRecorder::record_if_due`] at their advancement boundaries and
//! may bound each advancement with [`TimelineRecorder::horizon`] so
//! samples land exactly on the cadence marks. The default cadence
//! ([`TimelineRecorder::default_cadence`]) is `max(n, 65 536)` scheduled
//! interactions — one sample per parallel-time unit, floored so tiny
//! populations do not sample per-interaction — which keeps recorder
//! overhead within the ≤ 2% acceptance envelope on the pinned grid.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::simulator::Simulator;
use crate::telemetry::EngineTelemetry;
use sim_stats::histogram::LogHistogram;
use sim_stats::timeseries::{Series, TimeSeries};
use std::fmt::Write as _;

/// Logarithmic base of every event histogram (powers of two).
pub const EVENT_HISTOGRAM_BASE: f64 = 2.0;
/// Scale of every event histogram (bin `i` covers `[2^i, 2^{i+1})`).
pub const EVENT_HISTOGRAM_SCALE: f64 = 1.0;
/// Bin count: 48 power-of-two bins cover every u64 quantity the engines
/// record (values past `2^47` clamp into the last bin).
pub const EVENT_HISTOGRAM_BINS: usize = 48;

fn event_histogram() -> LogHistogram {
    LogHistogram::new(
        EVENT_HISTOGRAM_BASE,
        EVENT_HISTOGRAM_SCALE,
        EVENT_HISTOGRAM_BINS,
    )
}

/// Log-bucketed distributions of per-event engine quantities, one
/// histogram per quantity. All histograms share the power-of-two binning
/// (`EVENT_HISTOGRAM_*`), so instances merge freely — the graph engines
/// merge the sparse skipper's histograms into their own at phase
/// boundaries, and [`Simulator::histograms`]
/// returns the merged view.
///
/// Which fields are live mirrors the telemetry counter availability: a
/// per-event engine records only `skip_len` (its no-op run lengths), the
/// clique batch engine adds `block_size`/`fallback_run`, and the graph
/// engines add the sparse `block_total`. An empty histogram means "not
/// applicable", never "measured empty"; `flush_size` and
/// `flush_occupancy` are always empty (kept for the schema).
#[derive(Debug, Clone, PartialEq)]
pub struct EventHistograms {
    /// No-op run lengths before an effective interaction: the geometric
    /// skip lengths drawn by the leaping engines (`skip`, `batch`, the
    /// sparse skipper), or the literally-counted no-op runs of the
    /// per-event engines. At constant active weight this is geometric —
    /// KS-pinned in `simulator::sparse`.
    pub skip_len: LogHistogram,
    /// Sparse-phase per-block no-op totals (no-ops skipped over one block
    /// of `SPARSE_BLOCK_EVENTS` = 64 events). Negative-binomial at
    /// constant weight — KS-pinned in `simulator::sparse`.
    pub block_total: LogHistogram,
    /// Dense block sizes: clean applications per batch/matching block.
    pub block_size: LogHistogram,
    /// Retired, always empty: sidecar flush sizes (the sparse skipper no
    /// longer has a deferred-update sidecar).
    pub flush_size: LogHistogram,
    /// Retired, always empty: sidecar occupancy at flush time.
    pub flush_occupancy: LogHistogram,
    /// Literal-fallback run lengths: fallback applications per dense
    /// block (dirty-endpoint re-reads, batch collisions).
    pub fallback_run: LogHistogram,
}

impl EventHistograms {
    /// Empty histograms with the shared power-of-two binning.
    pub fn new() -> Self {
        EventHistograms {
            skip_len: event_histogram(),
            block_total: event_histogram(),
            block_size: event_histogram(),
            flush_size: event_histogram(),
            flush_occupancy: event_histogram(),
            fallback_run: event_histogram(),
        }
    }

    /// The fields in schema order, with their JSON names.
    pub fn fields(&self) -> [(&'static str, &LogHistogram); 6] {
        [
            ("skip_len", &self.skip_len),
            ("block_total", &self.block_total),
            ("block_size", &self.block_size),
            ("flush_size", &self.flush_size),
            ("flush_occupancy", &self.flush_occupancy),
            ("fallback_run", &self.fallback_run),
        ]
    }

    /// Merge another instance's counts into this one (same binning by
    /// construction).
    pub fn merge(&mut self, other: &EventHistograms) {
        self.skip_len.merge(&other.skip_len);
        self.block_total.merge(&other.block_total);
        self.block_size.merge(&other.block_size);
        self.flush_size.merge(&other.flush_size);
        self.flush_occupancy.merge(&other.flush_occupancy);
        self.fallback_run.merge(&other.fallback_run);
    }

    /// Total observations across all fields (0 iff nothing was recorded).
    pub fn total(&self) -> u64 {
        self.fields().iter().map(|(_, h)| h.total()).sum()
    }

    /// Serialize every histogram's bucket counts into a checkpoint body
    /// (schema field order; binning parameters are implied by the shared
    /// `EVENT_HISTOGRAM_*` constants and validated on read).
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        for (_, h) in self.fields() {
            w.put_u64_slice(h.counts());
            w.put_u64(h.non_positive());
        }
    }

    /// Deserialize histograms written by
    /// [`EventHistograms::write_snapshot`], rejecting bucket vectors that
    /// do not match the shared binning.
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<EventHistograms, CheckpointError> {
        let mut out = EventHistograms::new();
        let names: [&'static str; 6] = out.fields().map(|(name, _)| name);
        for name in names {
            let bins = r.get_u64_vec()?;
            let non_positive = r.get_u64()?;
            if bins.len() != EVENT_HISTOGRAM_BINS {
                return Err(CheckpointError::Corrupt(format!(
                    "histogram {name}: {} bins (expected {EVENT_HISTOGRAM_BINS})",
                    bins.len()
                )));
            }
            let h = LogHistogram::from_parts(
                EVENT_HISTOGRAM_BASE,
                EVENT_HISTOGRAM_SCALE,
                bins,
                non_positive,
            )
            .ok_or_else(|| CheckpointError::Corrupt(format!("histogram {name}: invalid parts")))?;
            match name {
                "skip_len" => out.skip_len = h,
                "block_total" => out.block_total = h,
                "block_size" => out.block_size = h,
                "flush_size" => out.flush_size = h,
                "flush_occupancy" => out.flush_occupancy = h,
                _ => out.fallback_run = h,
            }
        }
        Ok(out)
    }

    /// Schema-stable JSON object: every field in [`EventHistograms::fields`]
    /// order as `{"p50":…,"p90":…,"p99":…,"n":…}`. Quantiles are bin
    /// lower edges (exact powers of two), so they print as integers and
    /// diff cleanly across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, h)) in self.fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"n\":{}}}",
                h.p50(),
                h.p90(),
                h.p99(),
                h.total()
            );
        }
        out.push('}');
        out
    }
}

impl Default for EventHistograms {
    fn default() -> Self {
        EventHistograms::new()
    }
}

/// The phase tag of a telemetry snapshot: `"sparse"` while the engine
/// holds a live sparse skipper (strictly more phase entries than exits),
/// `"dense"` otherwise — which is also correct for engines without phases.
pub fn phase_tag(t: &EngineTelemetry) -> &'static str {
    if t.sparse_enters > t.sparse_exits {
        "sparse"
    } else {
        "dense"
    }
}

/// One flight-recorder sample: the cumulative clocks at the sample point,
/// the engine phase, and the telemetry **delta** since the previous
/// sample (rates computed on the delta describe the window).
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// Zero-based sample index.
    pub index: u64,
    /// Cumulative scheduled interactions at the sample point.
    pub scheduled: u64,
    /// Cumulative effective interactions at the sample point.
    pub effective: u64,
    /// Engine phase at the sample point (`"dense"` / `"sparse"`).
    pub phase: &'static str,
    /// Counter deltas over the window since the previous sample.
    pub delta: EngineTelemetry,
}

impl TimelineSample {
    /// One schema-stable JSONL record (fixed key order: cumulative
    /// clocks, phase, windowed counter deltas, then the window's rates).
    pub fn to_json(&self) -> String {
        let d = &self.delta;
        format!(
            "{{\"sample\":{},\"scheduled\":{},\"effective\":{},\
             \"phase\":\"{}\",\"d_scheduled\":{},\"d_effective\":{},\
             \"d_dense_steps\":{},\"d_blocks\":{},\"d_block_applied\":{},\
             \"d_fallback_literal\":{},\"d_sparse_enters\":{},\
             \"d_sparse_exits\":{},\"d_sparse_events\":{},\
             \"d_sparse_flushes\":{},\
             \"rates\":{{\"effective_fraction\":{:.6},\"cancel_rate\":{:.6},\
             \"fallback_rate\":{:.6}}}}}",
            self.index,
            self.scheduled,
            self.effective,
            self.phase,
            d.scheduled,
            d.effective,
            d.dense_steps,
            d.blocks,
            d.block_applied,
            d.fallback_literal,
            d.sparse_enters,
            d.sparse_exits,
            d.sparse.events,
            d.sparse.flushes,
            d.effective_fraction(),
            d.cancel_rate(),
            d.fallback_rate(),
        )
    }
}

/// Samples [`EngineTelemetry`] deltas at a fixed scheduled-clock cadence.
///
/// The recorder is passive: a driver calls
/// [`record_if_due`](TimelineRecorder::record_if_due) at each advancement
/// boundary (and [`finish`](TimelineRecorder::finish) at run end), and may
/// bound its advancements with [`horizon`](TimelineRecorder::horizon) so
/// the scheduled clock lands exactly on the cadence marks. Because the
/// cadence is measured on the simulation's own clock, two runs with the
/// same seed and driver produce byte-identical timelines.
#[derive(Debug, Clone)]
pub struct TimelineRecorder {
    cadence: u64,
    next_mark: u64,
    last: EngineTelemetry,
    samples: Vec<TimelineSample>,
}

impl TimelineRecorder {
    /// A recorder sampling every `cadence` scheduled interactions
    /// (`cadence > 0`).
    pub fn new(cadence: u64) -> Self {
        assert!(cadence > 0, "timeline cadence must be positive");
        TimelineRecorder {
            cadence,
            next_mark: cadence,
            last: EngineTelemetry::new(),
            samples: Vec::new(),
        }
    }

    /// The default cadence for a population of `n`: one sample per
    /// parallel-time unit, floored at 65 536 scheduled interactions so
    /// small populations do not sample per-interaction.
    pub fn default_cadence(n: u64) -> u64 {
        n.max(65_536)
    }

    /// A recorder at the default cadence for population `n`.
    pub fn with_default_cadence(n: u64) -> Self {
        Self::new(Self::default_cadence(n))
    }

    /// The sampling cadence (scheduled interactions per sample).
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Interactions remaining until the next cadence mark, given the
    /// current scheduled clock — the advancement bound that makes samples
    /// land exactly on marks. Never 0 (a clock sitting on a mark is due
    /// for sampling, after which the mark moves).
    pub fn horizon(&self, scheduled: u64) -> u64 {
        self.next_mark.saturating_sub(scheduled).max(1)
    }

    /// Take a sample if the scheduled clock has reached the next cadence
    /// mark; returns whether one was taken. When a driver overshoots
    /// several marks in one advancement, one sample summarizes the whole
    /// window (the delta absorbs it) and the mark realigns to the grid.
    pub fn record_if_due(&mut self, sim: &dyn Simulator) -> bool {
        if sim.telemetry().scheduled < self.next_mark {
            return false;
        }
        self.sample_now(sim);
        true
    }

    /// Take a sample unconditionally and realign the next mark to the
    /// cadence grid past the current clock.
    pub fn sample_now(&mut self, sim: &dyn Simulator) {
        let t = *sim.telemetry();
        let delta = t.delta(&self.last);
        self.samples.push(TimelineSample {
            index: self.samples.len() as u64,
            scheduled: t.scheduled,
            effective: t.effective,
            phase: phase_tag(&t),
            delta,
        });
        self.last = t;
        self.next_mark = (t.scheduled / self.cadence + 1) * self.cadence;
    }

    /// Record the final partial window (if the clock advanced past the
    /// last sample). Call once at run end so the sample deltas always sum
    /// to the engine's cumulative counters.
    pub fn finish(&mut self, sim: &dyn Simulator) {
        if *sim.telemetry() != self.last {
            self.sample_now(sim);
        }
    }

    /// The samples taken so far.
    pub fn samples(&self) -> &[TimelineSample] {
        &self.samples
    }

    /// The next cadence mark (absolute scheduled clock) a sample is due at.
    pub fn next_mark(&self) -> u64 {
        self.next_mark
    }

    /// Serialize the full recorder state — cadence, mark, last-sampled
    /// telemetry, and every sample taken so far — into a checkpoint body.
    /// A restored recorder continues producing byte-identical JSONL.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cadence);
        w.put_u64(self.next_mark);
        self.last.write_snapshot(w);
        w.put_u64(self.samples.len() as u64);
        for s in &self.samples {
            w.put_u64(s.index);
            w.put_u64(s.scheduled);
            w.put_u64(s.effective);
            w.put_u8((s.phase == "sparse") as u8);
            s.delta.write_snapshot(w);
        }
    }

    /// Deserialize a recorder written by
    /// [`TimelineRecorder::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<TimelineRecorder, CheckpointError> {
        let cadence = r.get_u64()?;
        if cadence == 0 {
            return Err(CheckpointError::Corrupt("timeline cadence is 0".into()));
        }
        let next_mark = r.get_u64()?;
        let last = EngineTelemetry::read_snapshot(r)?;
        let count = r.get_u64()?;
        let mut samples = Vec::new();
        for i in 0..count {
            let index = r.get_u64()?;
            if index != i {
                return Err(CheckpointError::Corrupt(format!(
                    "timeline sample index {index} at position {i}"
                )));
            }
            let scheduled = r.get_u64()?;
            let effective = r.get_u64()?;
            let phase = match r.get_u8()? {
                0 => "dense",
                1 => "sparse",
                b => {
                    return Err(CheckpointError::Corrupt(format!(
                        "timeline sample phase byte {b}"
                    )))
                }
            };
            let delta = EngineTelemetry::read_snapshot(r)?;
            samples.push(TimelineSample {
                index,
                scheduled,
                effective,
                phase,
                delta,
            });
        }
        Ok(TimelineRecorder {
            cadence,
            next_mark,
            last,
            samples,
        })
    }

    /// The cumulative telemetry at the last sample point.
    pub fn last_sampled(&self) -> &EngineTelemetry {
        &self.last
    }

    /// Render as JSONL: one schema-stable record per sample, each on its
    /// own line (see [`TimelineSample::to_json`]), trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// Convert to a [`TimeSeries`] over parallel time (`scheduled / n`):
    /// windowed effective fraction, cancel rate, fallback rate, and the
    /// phase as 0 (dense) / 1 (sparse) — the plot-ready view of the run's
    /// regime structure.
    pub fn to_timeseries(&self, n: u64) -> TimeSeries {
        assert!(n > 0, "population must be positive");
        let time: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.scheduled as f64 / n as f64)
            .collect();
        let mut ts = TimeSeries::with_time(time);
        let pull = |f: &dyn Fn(&TimelineSample) -> f64| -> Vec<f64> {
            self.samples.iter().map(f).collect()
        };
        ts.push_series(Series::new(
            "effective_fraction",
            pull(&|s| s.delta.effective_fraction()),
        ));
        ts.push_series(Series::new("cancel_rate", pull(&|s| s.delta.cancel_rate())));
        ts.push_series(Series::new(
            "fallback_rate",
            pull(&|s| s.delta.fallback_rate()),
        ));
        ts.push_series(Series::new(
            "sparse_phase",
            pull(&|s| (s.phase == "sparse") as u64 as f64),
        ));
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OneWayEpidemic;
    use crate::simulator::BatchGraphSimulator;
    use crate::Graph;
    use sim_stats::rng::SimRng;

    fn frontier_sim(n: usize) -> BatchGraphSimulator<OneWayEpidemic> {
        let g = Graph::cycle(n);
        let mut states = vec![1usize; n];
        states[0] = 0;
        BatchGraphSimulator::new(OneWayEpidemic, &g, states).per_event()
    }

    /// Drive a run with the recorder, bounding each advancement with the
    /// recorder's horizon so samples land on marks.
    fn record_run(n: usize, cadence: u64, seed: u64) -> (TimelineRecorder, EngineTelemetry) {
        let mut sim = frontier_sim(n);
        let mut rec = TimelineRecorder::new(cadence);
        let mut rng = SimRng::new(seed);
        while !sim.is_silent() {
            let horizon = rec.horizon(sim.interactions());
            sim.advance_changed(&mut rng, horizon);
            rec.record_if_due(&sim);
        }
        rec.finish(&sim);
        let t = *sim.telemetry();
        (rec, t)
    }

    #[test]
    fn deltas_sum_to_cumulative_counters() {
        let (rec, t) = record_run(512, 1_000, 3);
        let sum_sched: u64 = rec.samples().iter().map(|s| s.delta.scheduled).sum();
        let sum_eff: u64 = rec.samples().iter().map(|s| s.delta.effective).sum();
        let sum_sparse: u64 = rec.samples().iter().map(|s| s.delta.sparse.events).sum();
        assert_eq!(sum_sched, t.scheduled);
        assert_eq!(sum_eff, t.effective);
        assert_eq!(sum_sparse, t.sparse.events);
        let last = rec.samples().last().expect("nonempty timeline");
        assert_eq!(last.scheduled, t.scheduled);
        assert_eq!(last.effective, t.effective);
    }

    #[test]
    fn samples_land_on_cadence_marks() {
        let (rec, _) = record_run(512, 1_000, 4);
        assert!(rec.samples().len() > 2, "run too short to sample");
        // Every sample except the final partial one sits on a mark.
        for s in &rec.samples()[..rec.samples().len() - 1] {
            assert_eq!(
                s.scheduled % 1_000,
                0,
                "sample {} off the cadence grid at {}",
                s.index,
                s.scheduled
            );
        }
        // Indices are dense.
        for (i, s) in rec.samples().iter().enumerate() {
            assert_eq!(s.index, i as u64);
        }
    }

    #[test]
    fn timelines_are_bit_reproducible() {
        let (a, _) = record_run(512, 1_000, 7);
        let (b, _) = record_run(512, 1_000, 7);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        let (c, _) = record_run(512, 1_000, 8);
        assert_ne!(a.to_jsonl(), c.to_jsonl(), "seed must matter");
    }

    #[test]
    fn jsonl_records_are_schema_stable() {
        let (rec, _) = record_run(512, 1_000, 5);
        let jsonl = rec.to_jsonl();
        assert!(jsonl.ends_with('\n'));
        for line in jsonl.lines() {
            for key in [
                "\"sample\":",
                "\"scheduled\":",
                "\"effective\":",
                "\"phase\":\"",
                "\"d_scheduled\":",
                "\"d_effective\":",
                "\"d_sparse_events\":",
                "\"rates\":{\"effective_fraction\":",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
            assert!(line.starts_with('{') && line.ends_with('}'));
            // Phase tag is one of the two values.
            assert!(
                line.contains("\"phase\":\"dense\"") || line.contains("\"phase\":\"sparse\""),
                "bad phase in {line}"
            );
        }
    }

    #[test]
    fn cycle_frontier_shows_the_sparse_phase() {
        // An epidemic frontier on a large cycle lives in the sparse
        // skipper: the timeline must tag sparse samples.
        let (rec, t) = record_run(2_048, 4_096, 11);
        assert!(t.sparse_enters > 0, "run never escalated");
        assert!(
            rec.samples().iter().any(|s| s.phase == "sparse"),
            "no sparse-tagged sample in a skipper-dominated run"
        );
    }

    #[test]
    fn timeseries_carries_the_expected_series() {
        let (rec, _) = record_run(512, 1_000, 6);
        let ts = rec.to_timeseries(512);
        assert_eq!(ts.len(), rec.samples().len());
        for name in [
            "effective_fraction",
            "cancel_rate",
            "fallback_rate",
            "sparse_phase",
        ] {
            let s = ts.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.values.len(), ts.len());
        }
        // Parallel-time axis is monotone.
        for w in ts.time.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn event_histograms_merge_and_serialize() {
        let mut a = EventHistograms::new();
        let mut b = EventHistograms::new();
        for i in 1..=100u64 {
            a.skip_len.add_u64(i);
            b.flush_size.add_u64(i % 7);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        let j = merged.to_json();
        for key in [
            "\"skip_len\":{\"p50\":",
            "\"block_total\":",
            "\"block_size\":",
            "\"flush_size\":",
            "\"flush_occupancy\":",
            "\"fallback_run\":",
            "\"n\":100",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Quantiles are bin lower edges: powers of two, printed as
        // integers.
        assert!(j.contains("\"skip_len\":{\"p50\":32,"), "{j}");
    }

    #[test]
    fn phase_tag_tracks_enter_exit_balance() {
        let mut t = EngineTelemetry::new();
        assert_eq!(phase_tag(&t), "dense");
        t.sparse_enters = 1;
        assert_eq!(phase_tag(&t), "sparse");
        t.sparse_exits = 1;
        assert_eq!(phase_tag(&t), "dense");
    }

    #[test]
    fn finish_is_idempotent_and_records_partial_windows() {
        let mut sim = frontier_sim(128);
        let mut rec = TimelineRecorder::new(1 << 30);
        let mut rng = SimRng::new(9);
        sim.advance_changed(&mut rng, 500);
        assert!(!rec.record_if_due(&sim), "mark not reached yet");
        rec.finish(&sim);
        assert_eq!(rec.samples().len(), 1, "partial window recorded");
        rec.finish(&sim);
        assert_eq!(rec.samples().len(), 1, "idempotent when clock is still");
    }
}
