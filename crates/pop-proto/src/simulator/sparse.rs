//! Sparse-phase engine of the graph simulator.
//!
//! [`BatchGraphSimulator`](super::BatchGraphSimulator) hands
//! no-op-dominated stretches (endgames, low-conductance frontiers) to a
//! [`SparseSkipper`] under both of its policies: exact geometric skips
//! over the no-op runs, and each effective event drawn from the exact
//! conditional law, O(1) per draw and per weight change.
//!
//! # The active-edge pool
//!
//! Edge `e` has `w_e ∈ {0, 1, 2}` *active* orientations (those that change
//! the configuration). The pool stores `e` once per active orientation, as
//! the **copy ids** `2e + c` for `c < w_e`; `slot` (length `2m`) maps each
//! copy to its pool position, or `u32::MAX` when absent. `W` is the pool
//! length, and a weight change pushes or swap-removes copies in O(1)
//! ([`SparseSkipper::set_weight`]). Building the pool at sparse entry is
//! one O(m) pass.
//!
//! # Exactness
//!
//! The scheduler picks one of the `2m` orientations uniformly per step,
//! and a step is effective iff its orientation is active. So:
//!
//! * **Skip.** The no-op run before the next effective step is geometric
//!   with success probability `W / 2m`, drawn by inversion with
//!   `ln(1 − W/2m)` cached per distinct `W`. A moving frontier usually
//!   keeps `W`, so one constant serves a whole block, whose aggregate skip
//!   is then negative-binomial (pinned against
//!   [`SimRng::negative_binomial`] by the tests below).
//! * **Event.** Given that a step is effective, its orientation is uniform
//!   over the `W` active ones. The pool holds one copy of `e` per active
//!   orientation, so the single draw `pool[below(W)] >> 1` picks `e` with
//!   probability exactly `w_e / W`, and [`orient_event`] then picks one of
//!   its `w_e` active orientations uniformly: `1 / W` each.
//!
//! Later draws index into the pool, so its order is trajectory state:
//! snapshots carry it verbatim. Measured costs (about 220 ns per sparse
//! event on the `torus-endgame` benchmark, against about 540 ns for the
//! Fenwick-tree skipper the pool replaced) are tabled in the README's
//! "Sparse-phase batching" section.
//!
//! The phase-hysteresis constants ([`SPARSE_TRIGGER_NOOPS`],
//! [`DENSE_ENTER_INV`]) live here too, beside the skipper they gate, and
//! the skipper counts its draws and pool updates in [`SparseStats`],
//! harvested by the owning engine via [`SparseSkipper::take_stats`].

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::SparseStats;
use sim_stats::rng::SimRng;

/// Consecutive no-op draws in the dense phase that trigger the switch
/// to the sparse skipper. At activity fraction `f` the probability of this
/// many consecutive no-ops is `(1 − f)^1024` — negligible above `f ≈ 1/64`,
/// near-certain once the fraction truly collapses, so spurious O(m)
/// rebuilds are rare and real collapses are caught within ~1k steps.
pub(crate) const SPARSE_TRIGGER_NOOPS: u32 = 1024;

/// Activity fraction at which the sparse phase drops its pool and returns
/// to dense stepping: skipping `< 32` no-ops per event no longer repays
/// the sparse bookkeeping. The wide hysteresis band versus
/// [`SPARSE_TRIGGER_NOOPS`] (~1/1024) prevents rebuild thrash.
pub(crate) const DENSE_ENTER_INV: u64 = 32;

/// Maximum effective events [`BatchGraphSimulator`](super::BatchGraphSimulator)
/// applies per sparse advancement under its block policy (the sparse-phase
/// observation granularity — one block checkpoint summarizes up to this
/// many events). The per-event policy keeps its exact granularity by
/// advancing one event at a time. It is also the block length of the
/// `block_total` histogram.
pub(crate) const SPARSE_BLOCK_EVENTS: u64 = 64;

/// `slot` value of a copy that is not in the pool.
const ABSENT: u32 = u32::MAX;

/// Outcome of one sparse advancement attempt against a horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseStep {
    /// The next effective event lands beyond the horizon: the first `max`
    /// scheduled interactions are conditionally all no-ops (truncated
    /// geometric — still exact). The caller charges the full horizon.
    Horizon,
    /// An effective event: `consumed` scheduled interactions (the geometric
    /// no-op run plus the event itself) and the event's edge, drawn from
    /// the exact conditional law (∝ current active-orientation weight).
    Event {
        /// Scheduled interactions consumed (skipped no-ops + 1).
        consumed: u64,
        /// The effective edge index.
        edge: usize,
    },
}

/// The shared sparse-phase engine: an active-edge pool over per-edge
/// active-orientation weights. See the module docs for the pool and its
/// exactness argument.
#[derive(Debug, Clone)]
pub(crate) struct SparseSkipper {
    /// Active copies `2e + c` (`c < w_e`), in trajectory order.
    pool: Vec<u32>,
    /// Copy id → position in `pool` ([`ABSENT`] when absent); length `2m`.
    slot: Vec<u32>,
    /// `W` value the cached inversion constant corresponds to
    /// (`u64::MAX` = none cached).
    cached_w: u64,
    /// Cached `ln(1 − W/2m)` for the geometric inversion.
    cached_ln_q: f64,
    /// Telemetry counters, harvested via [`SparseSkipper::take_stats`].
    stats: SparseStats,
    /// Per-event histograms (skip lengths, block totals), recorded only
    /// when the owning engine enabled them — `None` costs one branch per
    /// harvest site.
    hist: Option<Box<EventHistograms>>,
    /// No-ops skipped in the current histogram block (hist enabled only).
    block_noops: u64,
    /// Events in the current histogram block (hist enabled only).
    block_events: u32,
}

impl SparseSkipper {
    /// Build the pool from the current per-edge active-orientation weights,
    /// streamed in edge order (entering the sparse phase; no m-entry weight
    /// vector is collected beside the pool). O(m). Panics if a weight
    /// exceeds 2.
    pub(crate) fn new(weights: impl ExactSizeIterator<Item = u64>) -> Self {
        let mut s = Self::empty(weights.len());
        for (e, w) in weights.enumerate() {
            assert!(w <= 2, "edge {e} has {w} active orientations");
            for c in 0..w as u32 {
                s.push(2 * e as u32 + c);
            }
        }
        s
    }

    /// An empty pool over `m` edges. Panics if the `2m` copy ids do not
    /// fit `u32` (every `Graph` constructor already enforces that bound).
    fn empty(m: usize) -> Self {
        let copies = 2 * m;
        assert!(
            u32::try_from(copies).is_ok(),
            "2m = {copies} copy ids do not fit u32"
        );
        SparseSkipper {
            pool: Vec::new(),
            slot: vec![ABSENT; copies],
            cached_w: u64::MAX,
            cached_ln_q: 0.0,
            stats: SparseStats::new(),
            hist: None,
            block_noops: 0,
            block_events: 0,
        }
    }

    /// Enable or disable per-event histogram recording (fresh histograms
    /// on enable, dropped on disable). The owning engine mirrors its own
    /// histogram flag onto every skipper it creates.
    pub(crate) fn set_histograms(&mut self, enabled: bool) {
        self.hist = if enabled {
            Some(Box::new(EventHistograms::new()))
        } else {
            None
        };
        self.block_noops = 0;
        self.block_events = 0;
    }

    /// The histograms recorded since [`SparseSkipper::set_histograms`]
    /// enabled them (`None` when recording is off). The owning engine
    /// merges these into its own at phase exits and boundary reads.
    pub(crate) fn histograms(&self) -> Option<&EventHistograms> {
        self.hist.as_deref()
    }

    /// Exact total active weight `W` (0 iff silent). O(1).
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.pool.len() as u64
    }

    /// Total scheduled orientations `2m` (the skip denominator).
    #[inline]
    fn two_m(&self) -> u64 {
        self.slot.len() as u64
    }

    /// Current weight of edge `e`: its copies are `2e + c` for `c < w_e`,
    /// so the weight is the number of its copies in the pool.
    #[inline]
    fn weight(&self, e: usize) -> u64 {
        (self.slot[2 * e] != ABSENT) as u64 + (self.slot[2 * e + 1] != ABSENT) as u64
    }

    /// Whether activity has recovered past the hysteresis threshold and
    /// the engine should drop the pool and re-enter its dense phase.
    #[inline]
    pub(crate) fn should_exit_to_dense(&self) -> bool {
        self.total() * DENSE_ENTER_INV >= self.two_m()
    }

    /// Zero-and-return the accumulated telemetry counters. The owning
    /// engine calls this at every advancement boundary (and before
    /// dropping the skipper on a sparse → dense exit) and absorbs the
    /// batch into its [`EngineTelemetry`](crate::telemetry::EngineTelemetry).
    #[inline]
    pub(crate) fn take_stats(&mut self) -> SparseStats {
        std::mem::take(&mut self.stats)
    }

    /// Append copy `c` to the pool.
    #[inline]
    fn push(&mut self, c: u32) {
        self.slot[c as usize] = self.pool.len() as u32;
        self.pool.push(c);
    }

    /// Swap-remove copy `c` from the pool: the last copy moves into its
    /// position.
    #[inline]
    fn remove(&mut self, c: u32) {
        let pos = std::mem::replace(&mut self.slot[c as usize], ABSENT);
        let last = self.pool.pop().expect("removing from an empty pool");
        if last != c {
            self.pool[pos as usize] = last;
            self.slot[last as usize] = pos;
        }
    }

    /// Record edge `e`'s new weight (`≤ 2`): push the copies it gains or
    /// swap-remove the ones it loses, top copy first. O(1).
    #[inline]
    pub(crate) fn set_weight(&mut self, e: usize, new_w: u64) {
        debug_assert!(new_w <= 2, "edge {e} weight {new_w} > 2");
        let old = self.weight(e);
        if old == new_w {
            return;
        }
        self.stats.updates_immediate += 1;
        let base = 2 * e as u32;
        for c in old..new_w {
            self.push(base + c as u32);
        }
        for c in (new_w..old).rev() {
            self.remove(base + c as u32);
        }
    }

    /// Count a finished effective event (the caller has reported its
    /// weight changes through [`SparseSkipper::set_weight`]).
    #[inline]
    pub(crate) fn end_event(&mut self) {
        self.stats.events += 1;
    }

    /// Exact geometric no-op run length before the next effective event
    /// (`p = W/2m`), with the inversion constant cached per distinct `W` —
    /// across a block whose events leave `W` unchanged this makes the
    /// aggregate skip one negative-binomial-style total (see the module
    /// docs). Precondition: `W > 0`.
    #[inline]
    fn skip_len(&mut self, rng: &mut SimRng) -> u64 {
        let w = self.total();
        debug_assert!(w > 0, "skip from a silent configuration");
        if w >= self.two_m() {
            return 0; // every orientation active: p = 1
        }
        if self.cached_w != w {
            self.cached_ln_q = ln_q(w, self.two_m());
            self.cached_w = w;
            self.stats.log_cache_misses += 1;
        } else {
            self.stats.log_cache_hits += 1;
        }
        self.stats.skip_draws += 1;
        let u = loop {
            let u = rng.f64();
            if u > 0.0 {
                break u;
            }
        };
        let g = (u.ln() / self.cached_ln_q).floor();
        if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// Sample an edge with probability `w_e / W` from a single uniform
    /// draw below `W`: the drawn copy's edge. Precondition: `W > 0`.
    #[inline]
    fn sample_edge(&mut self, rng: &mut SimRng) -> usize {
        debug_assert!(
            !self.pool.is_empty(),
            "sampling from a silent configuration"
        );
        self.stats.event_draws += 1;
        (self.pool[rng.below(self.total()) as usize] >> 1) as usize
    }

    /// One sparse advancement against a horizon of `max` scheduled
    /// interactions: geometrically skip the no-op run and either hand back
    /// the effective edge (drawn from the exact conditional law) or report
    /// that the event lands beyond the horizon. The caller applies the
    /// transition, reports weight changes via [`SparseSkipper::set_weight`],
    /// and closes the event with [`SparseSkipper::end_event`].
    /// Precondition: `W > 0`, `max > 0`.
    #[inline]
    pub(crate) fn next_event(&mut self, rng: &mut SimRng, max: u64) -> SparseStep {
        debug_assert!(max > 0);
        let skipped = self.skip_len(rng);
        if let Some(h) = &mut self.hist {
            // Every geometric draw is a genuine Geom(W/2m) sample, horizon
            // truncation included (memorylessness makes the redraw exact).
            h.skip_len.add_u64(skipped);
        }
        if skipped >= max {
            return SparseStep::Horizon;
        }
        if let Some(h) = self.hist.as_mut() {
            // Per-block scheduled no-op totals: the sum of
            // SPARSE_BLOCK_EVENTS consecutive skip runs — negative-binomial
            // at constant W.
            self.block_noops += skipped;
            self.block_events += 1;
            if u64::from(self.block_events) >= SPARSE_BLOCK_EVENTS {
                h.block_total.add_u64(self.block_noops);
                self.block_noops = 0;
                self.block_events = 0;
            }
        }
        SparseStep::Event {
            consumed: skipped + 1,
            edge: self.sample_edge(rng),
        }
    }

    /// Verify the pool against ground-truth per-edge weights: every pool
    /// entry's slot points back at it, and edge `e`'s present copies are
    /// exactly `2e + c` for `c < truth[e]`. O(m); used by the property
    /// tests and by snapshot restore.
    pub(crate) fn check_consistent(&self, truth: &[u64]) -> Result<(), String> {
        if 2 * truth.len() != self.slot.len() {
            return Err(format!(
                "edge count mismatch: {} vs {}",
                truth.len(),
                self.slot.len() / 2
            ));
        }
        for (i, &c) in self.pool.iter().enumerate() {
            if self.slot.get(c as usize) != Some(&(i as u32)) {
                return Err(format!(
                    "pool entry {i} (copy {c}) has no slot pointing back"
                ));
            }
        }
        for (e, &w) in truth.iter().enumerate() {
            let present = [0, 1].map(|c| self.slot[2 * e + c] != ABSENT);
            if present != [w > 0, w > 1] || w > 2 {
                return Err(format!(
                    "edge {e}: copies present {present:?}, true weight {w}"
                ));
            }
        }
        // The pool entries own distinct present slots; with exactly |pool|
        // slots present, no slot points anywhere else.
        let w: u64 = truth.iter().sum();
        if w != self.total() {
            return Err(format!("{w} copies present, pool holds {}", self.total()));
        }
        Ok(())
    }

    /// Serialize the skipper into a checkpoint body: the cached `W`, the
    /// histogram block, telemetry, the pool **in order** (later draws
    /// index into it, so the order is trajectory state), and the
    /// histograms. `slot` and the cached logarithm are functions of these
    /// and are rebuilt by [`SparseSkipper::read_snapshot`].
    pub(crate) fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.cached_w);
        w.put_u64(self.block_noops);
        w.put_u32(self.block_events);
        let mut stats = self.stats;
        for v in stats_fields(&mut stats) {
            w.put_u64(*v);
        }
        w.put_u32_slice(&self.pool);
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
    }

    /// Rebuild a skipper from a snapshot plus the ground-truth per-edge
    /// active-orientation weights (recomputed by the owning engine from
    /// its restored states): `slot` is rebuilt from the pool and the
    /// result validated against `truth` — a duplicate, out-of-range or
    /// weight-mismatched pool entry is [`CheckpointError::Corrupt`], never
    /// a panic or a wrong trajectory.
    pub(crate) fn read_snapshot(
        truth: &[u64],
        r: &mut SnapshotReader<'_>,
    ) -> Result<SparseSkipper, CheckpointError> {
        let mut s = Self::empty(truth.len());
        s.cached_w = r.get_u64()?;
        // A pure function of `cached_w`, read only while it equals the
        // live `W < 2m` (so a stale or sentinel value is never used).
        s.cached_ln_q = ln_q(s.cached_w, s.two_m());
        s.block_noops = r.get_u64()?;
        s.block_events = r.get_u32()?;
        for v in stats_fields(&mut s.stats) {
            *v = r.get_u64()?;
        }
        s.pool = r.get_u32_vec()?;
        if r.get_bool()? {
            s.hist = Some(Box::new(EventHistograms::read_snapshot(r)?));
        }
        for (i, &c) in s.pool.iter().enumerate() {
            let copies = s.slot.len();
            let entry = s.slot.get_mut(c as usize).ok_or_else(|| {
                CheckpointError::Corrupt(format!("pool copy {c} out of range ({copies} copies)"))
            })?;
            if *entry != ABSENT {
                return Err(CheckpointError::Corrupt(format!(
                    "pool copy {c} appears twice"
                )));
            }
            *entry = i as u32;
        }
        s.check_consistent(truth)
            .map_err(CheckpointError::Corrupt)?;
        Ok(s)
    }
}

/// The geometric inversion constant `ln(1 − w/2m)`.
fn ln_q(w: u64, two_m: u64) -> f64 {
    (-(w as f64 / two_m as f64)).ln_1p()
}

/// The twelve [`SparseStats`] counters in snapshot order.
fn stats_fields(s: &mut SparseStats) -> [&mut u64; 12] {
    [
        &mut s.events,
        &mut s.skip_draws,
        &mut s.event_draws,
        &mut s.flushes,
        &mut s.updates_deferred,
        &mut s.updates_immediate,
        &mut s.entries_applied,
        &mut s.entries_cancelled,
        &mut s.log_cache_hits,
        &mut s.log_cache_misses,
        &mut s.bypass_enters,
        &mut s.bypass_exits,
    ]
}

/// Orient an effective event on edge `(a, b)`: when both orientations are
/// active pick one uniformly, otherwise take the single active one.
/// `a_active` / `b_active` report whether `(a → b)` / `(b → a)` change the
/// configuration; at least one must hold.
#[inline]
pub(crate) fn orient_event(
    rng: &mut SimRng,
    a: usize,
    b: usize,
    a_active: bool,
    b_active: bool,
) -> (usize, usize) {
    debug_assert!(a_active || b_active, "orienting an inactive edge");
    if a_active && b_active {
        if rng.bernoulli(0.5) {
            (a, b)
        } else {
            (b, a)
        }
    } else if a_active {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_stats::histogram::LogHistogram;
    use sim_stats::ks::{ks_critical_value, ks_statistic};

    /// Two-sample KS statistic over identically-binned histograms: the
    /// max CDF gap evaluated at the bin boundaries. A lower bound on the
    /// unbinned statistic, so rejecting against the standard critical
    /// value keeps the nominal α (the test only loses power, never size).
    fn binned_ks(a: &LogHistogram, b: &LogHistogram) -> f64 {
        assert_eq!(a.counts().len(), b.counts().len());
        let (na, nb) = (a.total() as f64, b.total() as f64);
        let mut ca = a.non_positive() as f64;
        let mut cb = b.non_positive() as f64;
        let mut d = (ca / na - cb / nb).abs();
        for (&x, &y) in a.counts().iter().zip(b.counts()) {
            ca += x as f64;
            cb += y as f64;
            d = d.max((ca / na - cb / nb).abs());
        }
        d
    }

    /// A weight vector with the sparse-phase shape: mostly zeros, a few
    /// active edges of weight 1 or 2.
    fn sparse_weights(m: usize, active: &[(usize, u64)]) -> Vec<u64> {
        let mut w = vec![0u64; m];
        for &(e, v) in active {
            w[e] = v;
        }
        w
    }

    fn snapshot_bytes(s: &SparseSkipper) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        s.write_snapshot(&mut w);
        w.into_bytes()
    }

    #[test]
    fn skipper_tracks_totals_and_weights() {
        let w = sparse_weights(16, &[(3, 2), (7, 1), (12, 2)]);
        let mut s = SparseSkipper::new(w.iter().copied());
        assert_eq!(s.total(), 5);
        assert_eq!(s.weight(3), 2);
        assert_eq!(s.weight(0), 0);
        s.set_weight(3, 0);
        s.set_weight(0, 1);
        s.set_weight(7, 1); // unchanged: no pool update
        assert_eq!(s.total(), 4);
        assert_eq!(s.weight(3), 0);
        assert_eq!(s.weight(0), 1);
        let truth = sparse_weights(16, &[(0, 1), (7, 1), (12, 2)]);
        s.check_consistent(&truth).unwrap();
        // Telemetry counts the two pool updates.
        let stats = s.take_stats();
        assert_eq!(stats.updates_immediate, 2);
        // take_stats zeroes.
        assert_eq!(s.take_stats(), SparseStats::new());
    }

    /// A randomized walk over every weight transition within {0, 1, 2}:
    /// after every `set_weight` the pool must match a truth vector
    /// exactly (pool and slot mutually inverse, prefix-shaped copies).
    #[test]
    fn random_weight_walk_keeps_the_pool_consistent() {
        let m = 40usize;
        let mut truth = sparse_weights(m, &[(1, 1), (9, 2), (20, 1), (33, 2)]);
        let mut s = SparseSkipper::new(truth.iter().copied());
        s.check_consistent(&truth).unwrap();
        let mut rng = SimRng::new(77);
        let mut seen = [[0u32; 3]; 3];
        for step in 0..20_000u32 {
            let e = rng.index(m);
            let nw = rng.below(3);
            seen[truth[e] as usize][nw as usize] += 1;
            s.set_weight(e, nw);
            truth[e] = nw;
            s.check_consistent(&truth)
                .unwrap_or_else(|msg| panic!("step {step}: {msg}"));
            assert_eq!(s.total(), truth.iter().sum::<u64>(), "step {step}");
        }
        for (from, row) in seen.iter().enumerate() {
            for (to, &n) in row.iter().enumerate() {
                assert!(n > 100, "transition {from} -> {to} exercised {n} times");
            }
        }
    }

    /// After heavy swap-remove churn the pool must still sample edge `e`
    /// with probability `w_e / W`: Pearson chi-square over the active
    /// edges at α = 0.001 (Wilson–Hilferty critical value).
    #[test]
    fn sampled_edges_follow_weights_after_churn() {
        let m = 64usize;
        let mut truth = vec![0u64; m];
        let mut s = SparseSkipper::new(truth.iter().copied());
        let mut rng = SimRng::new(4242);
        for _ in 0..50_000 {
            let e = rng.index(m);
            let nw = rng.below(3);
            s.set_weight(e, nw);
            truth[e] = nw;
        }
        s.check_consistent(&truth).unwrap();
        let total = s.total();
        assert!(total > 0);
        let draws = 200_000u64;
        let mut counts = vec![0u64; m];
        for _ in 0..draws {
            counts[s.sample_edge(&mut rng)] += 1;
        }
        let mut stat = 0.0;
        let mut cells = 0usize;
        for e in 0..m {
            if truth[e] == 0 {
                assert_eq!(counts[e], 0, "sampled zero-weight edge {e}");
                continue;
            }
            let expected = draws as f64 * truth[e] as f64 / total as f64;
            stat += (counts[e] as f64 - expected).powi(2) / expected;
            cells += 1;
        }
        let df = (cells - 1) as f64;
        let z = 3.090_232; // standard-normal 0.999 quantile
        let h = 2.0 / (9.0 * df);
        let crit = df * (1.0 - h + z * h.sqrt()).powi(3);
        assert!(
            stat < crit,
            "chi-square {stat:.2} >= critical {crit:.2} (df {df})"
        );
    }

    /// Satellite property test: a block's aggregated skip total must match
    /// the sum of per-event geometric draws distributionally. The
    /// reference is [`SimRng::negative_binomial`] — by construction the
    /// sum of `r` independent geometric inversions — compared by
    /// two-sample KS at α = 0.01.
    #[test]
    fn block_skip_totals_match_negative_binomial_ks() {
        let m = 64usize;
        let active: Vec<(usize, u64)> = vec![(5, 2), (17, 1), (30, 2), (44, 1), (60, 2)];
        let w = sparse_weights(m, &active);
        let p = 8.0 / (2 * m) as f64; // W = 8, 2m = 128
        let blocks = 400usize;
        let r = 16u64;

        let mut s = SparseSkipper::new(w.iter().copied());
        let mut rng = SimRng::new(1234);
        let engine: Vec<f64> = (0..blocks)
            .map(|_| {
                let mut total = 0u64;
                for _ in 0..r {
                    match s.next_event(&mut rng, u64::MAX / 2) {
                        SparseStep::Event { consumed, .. } => total += consumed - 1,
                        SparseStep::Horizon => unreachable!("horizon at u64::MAX/2"),
                    }
                    // Weights never change: the whole block runs at one W,
                    // the regime where the aggregate is negative binomial.
                    s.end_event();
                }
                total as f64
            })
            .collect();

        let mut ref_rng = SimRng::new(98_765);
        let reference: Vec<f64> = (0..blocks)
            .map(|_| ref_rng.negative_binomial(r, p) as f64)
            .collect();

        let d = ks_statistic(&engine, &reference);
        let crit = ks_critical_value(engine.len(), reference.len(), 0.01);
        assert!(
            d < crit,
            "block skip totals vs NB({r}, {p}): KS {d:.4} >= critical {crit:.4}"
        );
        // Constant W across the whole run: the inversion constant was
        // computed once and reused for every remaining draw.
        let stats = s.take_stats();
        assert_eq!(stats.log_cache_misses, 1);
        assert_eq!(stats.skip_draws, stats.log_cache_hits + 1);
    }

    /// The skip-length histogram the flight recorder exposes must be
    /// distributed Geom(W/2m) at constant W — the recorded samples are
    /// compared against directly-inverted geometric draws by binned
    /// two-sample KS at α = 0.01.
    #[test]
    fn recorded_skip_lengths_match_geometric_ks() {
        let m = 64usize;
        let w = sparse_weights(m, &[(5, 2), (17, 1), (30, 2), (44, 1), (60, 2)]);
        let p = 8.0 / (2 * m) as f64; // W = 8, 2m = 128
        let draws = 4_000usize;
        let mut s = SparseSkipper::new(w.iter().copied());
        s.set_histograms(true);
        let mut rng = SimRng::new(2024);
        for _ in 0..draws {
            match s.next_event(&mut rng, u64::MAX / 2) {
                SparseStep::Event { .. } => s.end_event(),
                SparseStep::Horizon => unreachable!("horizon at u64::MAX/2"),
            }
        }
        let recorded = s.histograms().expect("histograms enabled");
        assert_eq!(recorded.skip_len.total(), draws as u64);

        let mut reference = EventHistograms::new();
        let mut ref_rng = SimRng::new(55_555);
        for _ in 0..draws {
            reference.skip_len.add_u64(ref_rng.geometric(p));
        }
        let d = binned_ks(&recorded.skip_len, &reference.skip_len);
        let crit = ks_critical_value(draws, draws, 0.01);
        assert!(
            d < crit,
            "recorded skip lengths vs Geom({p}): KS {d:.4} >= critical {crit:.4}"
        );
    }

    /// The per-block no-op totals recorded into the `block_total`
    /// histogram (SPARSE_BLOCK_EVENTS consecutive skips at constant W)
    /// must be negative-binomial — compared against
    /// [`SimRng::negative_binomial`] by binned two-sample KS at α = 0.01.
    #[test]
    fn recorded_block_totals_match_negative_binomial_ks() {
        let m = 64usize;
        let w = sparse_weights(m, &[(5, 2), (17, 1), (30, 2), (44, 1), (60, 2)]);
        let p = 8.0 / (2 * m) as f64;
        let blocks = 300usize;
        let mut s = SparseSkipper::new(w.iter().copied());
        s.set_histograms(true);
        let mut rng = SimRng::new(31_415);
        for _ in 0..blocks * SPARSE_BLOCK_EVENTS as usize {
            match s.next_event(&mut rng, u64::MAX / 2) {
                SparseStep::Event { .. } => s.end_event(),
                SparseStep::Horizon => unreachable!("horizon at u64::MAX/2"),
            }
        }
        let recorded = s.histograms().expect("histograms enabled");
        assert_eq!(recorded.block_total.total(), blocks as u64);

        let mut reference = EventHistograms::new();
        let mut ref_rng = SimRng::new(27_182);
        for _ in 0..blocks {
            reference
                .block_total
                .add_u64(ref_rng.negative_binomial(SPARSE_BLOCK_EVENTS, p));
        }
        let d = binned_ks(&recorded.block_total, &reference.block_total);
        let crit = ks_critical_value(blocks, blocks, 0.01);
        assert!(
            d < crit,
            "recorded block totals vs NB({SPARSE_BLOCK_EVENTS}, {p}): KS {d:.4} >= critical {crit:.4}"
        );
    }

    /// Drive a frontier-ish walk from `init`: each event toggles its edge
    /// between weights 1 and 2. Returns the event stream plus one trailing
    /// RNG draw, so the streams must line up exactly, not just the events.
    fn toggle_walk(
        s: &mut SparseSkipper,
        init: &[u64],
        seed: u64,
        events: usize,
    ) -> Vec<(u64, usize)> {
        let mut truth = init.to_vec();
        let mut rng = SimRng::new(seed);
        let mut out = Vec::new();
        for _ in 0..events {
            let (consumed, edge) = match s.next_event(&mut rng, u64::MAX / 2) {
                SparseStep::Event { consumed, edge } => (consumed, edge),
                SparseStep::Horizon => unreachable!(),
            };
            out.push((consumed, edge));
            truth[edge] = 3 - truth[edge];
            s.set_weight(edge, truth[edge]);
            s.end_event();
        }
        out.push((rng.below(1 << 30), 0));
        out
    }

    /// Histogram recording must not perturb the trajectory: identical
    /// seeds with and without histograms produce identical event streams,
    /// and disabled recording leaves no histogram behind.
    #[test]
    fn histograms_do_not_perturb_the_trajectory() {
        let m = 64usize;
        let init = sparse_weights(m, &[(3, 1), (17, 2), (30, 1), (51, 2)]);
        let run = |record: bool| -> Vec<(u64, usize)> {
            let mut s = SparseSkipper::new(init.iter().copied());
            s.set_histograms(record);
            let events = toggle_walk(&mut s, &init, 777, 2_000);
            if record {
                let h = s.histograms().expect("enabled");
                assert_eq!(h.skip_len.total(), 2_000);
            } else {
                assert!(s.histograms().is_none());
            }
            events
        };
        assert_eq!(run(true), run(false));
    }

    /// The counters and histograms of the retired deferred-update sidecar
    /// keep their keys but read zero: no flushes, no deferred updates,
    /// no coalesced entries, no bypass transitions, and empty flush
    /// histograms. Every weight change is an immediate pool update.
    #[test]
    fn retired_sidecar_telemetry_stays_zero() {
        let m = 64usize;
        let init = sparse_weights(m, &[(3, 1), (17, 2), (30, 1), (51, 2)]);
        let mut s = SparseSkipper::new(init.iter().copied());
        s.set_histograms(true);
        toggle_walk(&mut s, &init, 9, 1_000);
        let h = s.histograms().expect("enabled");
        assert_eq!(h.flush_size.total(), 0);
        assert_eq!(h.flush_occupancy.total(), 0);
        let stats = s.take_stats();
        assert_eq!(stats.events, 1_000);
        assert_eq!(stats.updates_immediate, 1_000);
        for (name, v) in [
            ("flushes", stats.flushes),
            ("updates_deferred", stats.updates_deferred),
            ("entries_applied", stats.entries_applied),
            ("entries_cancelled", stats.entries_cancelled),
            ("bypass_enters", stats.bypass_enters),
            ("bypass_exits", stats.bypass_exits),
        ] {
            assert_eq!(v, 0, "{name}");
        }
        assert_eq!(stats.cancel_rate(), 0.0);
    }

    /// A snapshot taken mid-walk restores to a skipper whose future
    /// trajectory and re-snapshot are byte-identical to the original's —
    /// the pool order is carried verbatim.
    #[test]
    fn snapshot_round_trip_continues_the_trajectory() {
        let m = 64usize;
        let init = sparse_weights(m, &[(3, 1), (17, 2), (30, 1), (51, 2)]);
        let mut s = SparseSkipper::new(init.iter().copied());
        s.set_histograms(true);
        let mut truth = init.clone();
        let mut rng = SimRng::new(5);
        for _ in 0..500 {
            let e = rng.index(m);
            let nw = rng.below(3);
            s.set_weight(e, nw);
            truth[e] = nw;
        }
        if s.total() > 0 {
            // Warm the inversion cache so it is part of the snapshot.
            let _ = s.next_event(&mut rng, u64::MAX / 2);
        }
        let bytes = snapshot_bytes(&s);
        let mut back =
            SparseSkipper::read_snapshot(&truth, &mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(snapshot_bytes(&back), bytes);
        assert_eq!(
            toggle_walk(&mut s, &truth, 11, 300),
            toggle_walk(&mut back, &truth, 11, 300)
        );
        assert_eq!(snapshot_bytes(&back), snapshot_bytes(&s));
    }

    /// Restore rejects a duplicate, an out-of-range, and a
    /// weight-mismatched pool entry as `Corrupt` instead of panicking or
    /// resuming a wrong trajectory.
    #[test]
    fn restore_rejects_corrupt_pools() {
        let m = 16usize;
        let truth = sparse_weights(m, &[(2, 2), (5, 1), (11, 1)]);
        let s = SparseSkipper::new(truth.iter().copied());
        // Re-encode the snapshot with a doctored pool (the pool is the
        // only length-prefixed u32 sequence in the payload).
        let doctored = |pool: &[u32]| -> Vec<u8> {
            let mut t = s.clone();
            t.pool = pool.to_vec();
            snapshot_bytes(&t)
        };
        let restore =
            |bytes: &[u8]| SparseSkipper::read_snapshot(&truth, &mut SnapshotReader::new(bytes));
        assert!(restore(&snapshot_bytes(&s)).is_ok());
        let good = s.pool.clone();
        let mut dup = good.clone();
        dup[1] = dup[0];
        let mut out_of_range = good.clone();
        out_of_range[0] = 2 * m as u32;
        let mut mismatched = good.clone();
        mismatched[0] = 2 * 7; // edge 7 has weight 0
        let mut missing = good.clone();
        missing.pop();
        let mut gapped = good.clone();
        let i = gapped.iter().position(|&c| c == 2 * 5).unwrap();
        gapped[i] = 2 * 5 + 1; // edge 5 holds copy 1 without copy 0
        for (name, pool) in [
            ("duplicate", dup),
            ("out of range", out_of_range),
            ("weight mismatch", mismatched),
            ("missing copy", missing),
            ("copy gap", gapped),
        ] {
            match restore(&doctored(&pool)) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("{name}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn hysteresis_thresholds() {
        let w = sparse_weights(64, &[(0, 2)]); // 2m = 128
        let mut s = SparseSkipper::new(w.iter().copied());
        assert!(!s.should_exit_to_dense()); // W = 2: 2·32 < 128
        s.set_weight(1, 2);
        assert!(s.should_exit_to_dense()); // W = 4: 4·32 ≥ 128
    }

    #[test]
    fn orientation_respects_active_sides() {
        let mut rng = SimRng::new(9);
        assert_eq!(orient_event(&mut rng, 1, 2, true, false), (1, 2));
        assert_eq!(orient_event(&mut rng, 1, 2, false, true), (2, 1));
        let mut a_first = 0;
        for _ in 0..1000 {
            if orient_event(&mut rng, 1, 2, true, true) == (1, 2) {
                a_first += 1;
            }
        }
        assert!((350..=650).contains(&a_first), "two-sided split {a_first}");
    }

    #[test]
    fn saturated_weight_skips_nothing() {
        // Every orientation active: p = 1, no no-ops to skip.
        let mut s = SparseSkipper::new([2u64; 8].into_iter());
        let mut rng = SimRng::new(3);
        for _ in 0..100 {
            match s.next_event(&mut rng, 10) {
                SparseStep::Event { consumed, .. } => assert_eq!(consumed, 1),
                SparseStep::Horizon => panic!("horizon at p = 1"),
            }
        }
    }
}
