//! Bit-parallel replica simulator: 64 independent runs per word.
//!
//! The scheduled (pair, orientation) draw sequence of the exact engines is
//! configuration-independent — which agents interact never depends on what
//! states they hold. [`ReplicaSimulator`] exploits this by running up to 64
//! independent *replicas* (lanes) of the same topology against **one shared
//! schedule**: per agent, bit `l` of each of `B = ⌈log₂|codes|⌉` plane
//! words holds bit `p` of lane `l`'s state code. Each scheduled interaction
//! draws the pair once, gathers two `B`-word columns, and applies the
//! protocol's transition to all live lanes simultaneously with a handful of
//! bitwise ops ([`BitwiseProtocol::apply_lanes`]) — the per-draw RNG and
//! gather cost, the documented irreducible floor of the scalar engines, is
//! paid once per 64 runs.
//!
//! # Lane retirement
//!
//! Lanes stabilize independently. After every effective draw the changed
//! lanes' count vectors are checked for silence; a silent lane is *retired*
//! — cleared from the `live` bitmap with its stabilization time (the shared
//! draw clock, which is exactly the scalar run's interaction clock)
//! recorded — and the transition mask excludes it from then on. On
//! disconnected graphs a lane can freeze without ever becoming
//! count-silent; a periodic non-mutating edge scan
//! ([`BitwiseProtocol::active_lanes`] per edge) retires those too. The scan
//! is skipped entirely when the graph is connected and the protocol's
//! no-op pairs are exactly the equal-state pairs
//! ([`BitwiseProtocol::noops_are_equal_pairs`]) — then graph silence,
//! uniformity, and count silence coincide and the per-lane count check is
//! already exact.
//!
//! # Clock and telemetry semantics (per-lane aggregate)
//!
//! One scheduled draw advances every live lane by one interaction, so the
//! [`Simulator`] clocks are **lane-aggregates**: `interactions()` grows by
//! `popcount(live)` per draw and `effective_interactions()` by the number
//! of changed lanes. `population()` is `lanes × n`, keeping
//! `parallel_time` the mean per-lane parallel time. Telemetry mirrors the
//! clocks (`scheduled`/`effective` aggregates) while `pair_draws` and
//! `dense_steps` count engine actions — one per shared draw. Per-lane
//! observation goes through [`Simulator::lanes`],
//! [`Simulator::lane_counts`], and [`Simulator::lane_stabilized_at`];
//! aggregate observation (the `observe` layer) sees lane-summed counts at
//! per-draw granularity. Budgets are aggregate interactions; because one
//! draw is atomic across lanes, a driver can overshoot its budget by at
//! most `lanes − 1` interactions.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::graph::Graph;
use crate::protocol::{OneWayEpidemic, Protocol};
use crate::simulator::snapshot_tags;
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::multinomial::distinct_pair;
use sim_stats::rng::SimRng;

/// Largest plane count the engine supports (state codes up to 2¹⁶ — far
/// beyond the u16 packing cap of the scalar engines).
pub const MAX_PLANES: usize = 16;

/// Hard lane cap: one bit per lane in a `u64`.
pub const MAX_LANES: u32 = 64;

/// State-count ceiling for the bit-parallel count bookkeeping in
/// [`ReplicaSimulator::draw_step`]: up to this many states, per-state
/// lane-equality masks (O(states × planes) bitwise ops per draw) beat the
/// per-changed-lane gather/decode loop; beyond it the engine falls back
/// to the scalar path, whose cost does not scale with the state count.
const MASK_STATES: usize = 16;

/// Field width of the packed per-lane counter fast path: one `u64` holds a
/// lane's (up to) three state counts in 21-bit fields, so a changed lane
/// costs one table-driven add plus a branchless per-field zero test instead
/// of per-state indexed memory updates.
const PACKED_FIELD_BITS: usize = 21;
const PACKED_FIELD_MASK: u64 = (1 << PACKED_FIELD_BITS) - 1;

/// The packed path needs all three fields in one word…
const PACKED_MAX_STATES: usize = 3;

/// …codes that index a 16-entry transition table (`old << 2 | new`)…
const PACKED_MAX_PLANES: usize = 2;

/// …and counts whose 21-bit fields keep the top bit free for the zero
/// test (`count + 2^20 − 1 < 2^21`), i.e. `n < 2^20` agents per lane.
const PACKED_MAX_N: usize = 1 << 20;

/// A [`Protocol`] that can apply its transition to 64 packed replicas at
/// once.
///
/// States are carried as **codes** (`encode`/`decode` need not be the
/// identity on dense indices — protocols pick the encoding that makes the
/// transition cheap, e.g. USD encodes ⊥ as 0 so "decided" is a plane-OR),
/// bit-sliced across [`BitwiseProtocol::planes`] `u64` words: bit `l` of
/// plane word `p` is bit `p` of lane `l`'s code.
pub trait BitwiseProtocol: Protocol {
    /// Number of bit planes `B` (with every code `< 2^B`; `B ≤`
    /// [`MAX_PLANES`]).
    fn planes(&self) -> usize;

    /// Encode a dense state index as a plane code.
    fn encode(&self, state: usize) -> u64;

    /// Decode a plane code back to the dense state index
    /// (`decode(encode(s)) == s`).
    fn decode(&self, code: u64) -> usize;

    /// Apply the transition to every lane in `live` at once: `a`/`b` are
    /// the two interacting agents' plane words (ordered initiator,
    /// responder), mutated in place; lanes outside `live` must be left
    /// untouched. Returns the mask of lanes whose configuration changed
    /// (a subset of `live`).
    fn apply_lanes(&self, a: &mut [u64], b: &mut [u64], live: u64) -> u64;

    /// Non-mutating twin of [`BitwiseProtocol::apply_lanes`]: the mask of
    /// lanes for which an interaction between these two agents would
    /// change something (in either orientation). Drives the frozen-lane
    /// edge scan.
    fn active_lanes(&self, a: &[u64], b: &[u64]) -> u64;

    /// Whether the protocol's no-op pairs are **exactly** the equal-state
    /// pairs. When true, graph silence on a connected graph is equivalent
    /// to a uniform (hence count-silent) configuration, and the engine
    /// skips the frozen-lane edge scan on connected graphs. Defaults to
    /// the conservative `false`.
    fn noops_are_equal_pairs(&self) -> bool {
        false
    }

    /// Whether a configuration can become count-silent **only** at an
    /// interaction where one of its state counts decrements to zero.
    /// When true, the engine checks [`Protocol::is_silent`] only for
    /// lanes where a count just emptied (rare) instead of for every
    /// changed lane (every effective draw) — the dominant bookkeeping
    /// saving on dense ensembles. Holds for USD (all-⊥ silence empties
    /// the last two opinion counts; winner silence empties ⊥) and the
    /// epidemic (completion empties the susceptible count). Defaults to
    /// the conservative `false`.
    fn silence_needs_zeroed_count(&self) -> bool {
        false
    }
}

impl BitwiseProtocol for OneWayEpidemic {
    fn planes(&self) -> usize {
        1
    }

    fn encode(&self, state: usize) -> u64 {
        state as u64 // 0 = infected, 1 = susceptible
    }

    fn decode(&self, code: u64) -> usize {
        code as usize
    }

    fn apply_lanes(&self, a: &mut [u64], b: &mut [u64], live: u64) -> u64 {
        // Infected is code 0, so AND merges the infection into both agents.
        let (ap, bp) = (a[0], b[0]);
        let changed = (ap ^ bp) & live;
        let merged = ap & bp;
        a[0] = (ap & !changed) | (merged & changed);
        b[0] = (bp & !changed) | (merged & changed);
        changed
    }

    fn active_lanes(&self, a: &[u64], b: &[u64]) -> u64 {
        a[0] ^ b[0]
    }

    fn noops_are_equal_pairs(&self) -> bool {
        true // no-ops are (I,I) and (S,S) only
    }

    fn silence_needs_zeroed_count(&self) -> bool {
        true // completion is exactly "susceptible count hit zero"
    }
}

/// Pack one lane's per-state counts into [`PACKED_FIELD_BITS`]-bit fields.
fn pack_lane(counts: &[u64]) -> u64 {
    counts
        .iter()
        .enumerate()
        .fold(0u64, |acc, (st, &c)| acc | c << (PACKED_FIELD_BITS * st))
}

/// Bit-parallel replica engine: up to 64 independent replicas of one
/// topology advanced by a single shared schedule (see the module docs).
///
/// Clique replicas draw pairs exactly like
/// [`CliqueScheduler`](crate::scheduler::CliqueScheduler); graph replicas
/// draw (edge, orientation) exactly like
/// [`GraphScheduler`](crate::scheduler::GraphScheduler) — the streams are
/// interchangeable draw-for-draw with a scalar
/// [`AgentSimulator`](super::AgentSimulator) run, which is what makes
/// lane-level bit-identity testable.
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)): per shared
/// draw — exact at lane-aggregate level, with per-lane state exposed
/// through the lane accessors rather than the observation stream.
#[derive(Debug, Clone)]
pub struct ReplicaSimulator<P: BitwiseProtocol> {
    protocol: P,
    /// `None` = clique (uniform distinct pairs), `Some` = graph-restricted.
    graph: Option<Graph>,
    /// Whether frozen-lane edge scans are required (graph mode, and only
    /// when connectivity + the protocol's no-op structure don't already
    /// make the per-lane count check exact).
    needs_scan: bool,
    /// Draw-clock cadence of the frozen-lane scan.
    scan_period: u64,
    next_scan: u64,
    n: usize,
    lanes: u32,
    planes: usize,
    /// Agent-major bit-sliced state: `words[agent * planes + p]` bit `l`
    /// is bit `p` of lane `l`'s code for `agent`.
    words: Vec<u64>,
    /// Lane-retirement bitmap: bit `l` set while lane `l` is running.
    live: u64,
    /// Per-lane per-state counts, lane-major (`lanes × num_states`).
    /// Empty when the packed fast path is on (`packed_counts` is then the
    /// canonical representation).
    lane_counts: Vec<u64>,
    /// Whether the packed per-lane counter fast path is active
    /// (`states ≤ 3`, `planes ≤ 2`, `n < 2^20` — USD `k = 2` and the
    /// epidemic land here).
    packed: bool,
    /// Packed per-lane counts: `packed_counts[l]` holds lane `l`'s state
    /// counts in [`PACKED_FIELD_BITS`]-bit fields, field `st` = dense
    /// state `st`'s count. All-zero when `packed` is off. Fixed-size so
    /// hot-loop indexing (`lane & 63`) provably never bounds-checks.
    packed_counts: Box<[u64; 64]>,
    /// Pair transition table:
    /// `packed_delta[oa << 6 | na << 4 | ob << 2 | nb]` is the packed
    /// count delta (`+1` in each new state's field, `−1` in each old's,
    /// two's-complement-wrapped) of the initiator moving `oa → na` and
    /// the responder `ob → nb` (plane codes). One load covers both
    /// endpoints; entries for invalid codes are unused.
    packed_delta: Box<[u64; 256]>,
    /// `1` in the low bit of every **active** state field.
    packed_lo: u64,
    /// `1` in the top bit of every active state field.
    packed_hi: u64,
    /// Lane-summed counts (the aggregate the [`Simulator`] trait reports).
    counts: Vec<u64>,
    /// Shared-draw clock at each lane's retirement; `u64::MAX` = running.
    stab_time: Vec<u64>,
    /// Shared scheduled draws (= every lane's private interaction clock).
    draws: u64,
    /// Lane-aggregate interaction clock (`+= popcount(live)` per draw).
    interactions: u64,
    /// Lane-aggregate effective clock (`+= popcount(changed)` per draw).
    effective: u64,
    telemetry: EngineTelemetry,
    hist: Option<Box<EventHistograms>>,
    /// Consecutive all-lane-no-op draws (histogram recording only).
    noop_run: u64,
}

impl<P: BitwiseProtocol> ReplicaSimulator<P> {
    /// Clique replicas: one layout (dense state indices, length `n`) per
    /// lane. Layouts of lanes sharing a schedule **must differ as
    /// permutations** or the lanes evolve identically; callers draw each
    /// from an independent shuffle.
    pub fn new_clique(protocol: P, n: usize, layouts: &[Vec<usize>]) -> Self {
        assert!(n >= 2, "need at least 2 agents");
        Self::new_inner(protocol, None, n, layouts)
    }

    /// Graph-restricted replicas: one layout per lane on `graph`'s
    /// vertices. The graph must have at least one edge (mirroring
    /// [`GraphScheduler`](crate::scheduler::GraphScheduler)).
    pub fn new_graph(protocol: P, graph: Graph, layouts: &[Vec<usize>]) -> Self {
        assert!(graph.num_edges() > 0, "graph scheduler needs edges");
        let n = graph.n();
        Self::new_inner(protocol, Some(graph), n, layouts)
    }

    fn new_inner(protocol: P, graph: Option<Graph>, n: usize, layouts: &[Vec<usize>]) -> Self {
        let lanes = layouts.len() as u32;
        assert!(
            (1..=MAX_LANES).contains(&lanes),
            "need 1..=64 replica lanes, got {lanes}"
        );
        let planes = protocol.planes();
        assert!(
            (1..=MAX_PLANES).contains(&planes),
            "protocol needs {planes} planes (supported: 1..={MAX_PLANES})"
        );
        let states = protocol.num_states();
        let mut words = vec![0u64; n * planes];
        let mut lane_counts = vec![0u64; lanes as usize * states];
        let mut counts = vec![0u64; states];
        for (lane, layout) in layouts.iter().enumerate() {
            assert_eq!(layout.len(), n, "lane {lane} layout has wrong length");
            for (agent, &st) in layout.iter().enumerate() {
                assert!(st < states, "state index {st} out of range");
                let code = protocol.encode(st);
                debug_assert!(code < (1u64 << planes) || planes == 64);
                for p in 0..planes {
                    words[agent * planes + p] |= ((code >> p) & 1) << lane;
                }
                lane_counts[lane * states + st] += 1;
                counts[st] += 1;
            }
        }
        let needs_scan = match &graph {
            None => false, // clique: connected, uniform pair scheduler
            Some(g) => !(protocol.noops_are_equal_pairs() && g.is_connected()),
        };
        let scan_period = (4 * n as u64).max(1 << 16);
        // Lanes whose initial configuration is already silent retire at
        // draw 0 — they have nothing to run.
        let mut live = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let mut stab_time = vec![u64::MAX; lanes as usize];
        for lane in 0..lanes as usize {
            if protocol.is_silent(&lane_counts[lane * states..(lane + 1) * states]) {
                live &= !(1u64 << lane);
                stab_time[lane] = 0;
            }
        }
        let packed = states <= PACKED_MAX_STATES && planes <= PACKED_MAX_PLANES && n < PACKED_MAX_N;
        let mut packed_delta = Box::new([0u64; 256]);
        let (mut packed_lo, mut packed_hi) = (0u64, 0u64);
        let mut packed_counts = Box::new([0u64; 64]);
        if packed {
            for st in 0..states {
                packed_lo |= 1u64 << (PACKED_FIELD_BITS * st);
                packed_hi |= 1u64 << (PACKED_FIELD_BITS * (st + 1) - 1);
            }
            let delta = |from: usize, to: usize| {
                (1u64 << (PACKED_FIELD_BITS * to)).wrapping_sub(1u64 << (PACKED_FIELD_BITS * from))
            };
            for fa in 0..states {
                for ta in 0..states {
                    for fb in 0..states {
                        for tb in 0..states {
                            let idx = (protocol.encode(fa) << 6
                                | protocol.encode(ta) << 4
                                | protocol.encode(fb) << 2
                                | protocol.encode(tb))
                                as usize;
                            packed_delta[idx] = delta(fa, ta).wrapping_add(delta(fb, tb));
                        }
                    }
                }
            }
            for (l, chunk) in lane_counts.chunks_exact(states).enumerate() {
                packed_counts[l] = pack_lane(chunk);
            }
            lane_counts = Vec::new();
        }
        ReplicaSimulator {
            protocol,
            graph,
            needs_scan,
            scan_period,
            next_scan: scan_period,
            n,
            lanes,
            planes,
            words,
            live,
            lane_counts,
            packed,
            packed_counts,
            packed_delta,
            packed_lo,
            packed_hi,
            counts,
            stab_time,
            draws: 0,
            interactions: 0,
            effective: 0,
            telemetry: EngineTelemetry::new(),
            hist: None,
            noop_run: 0,
        }
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of replica lanes.
    pub fn lane_count(&self) -> u32 {
        self.lanes
    }

    /// Agents per replica (`population()` is `lanes × n`).
    pub fn agents_per_lane(&self) -> usize {
        self.n
    }

    /// The lane-retirement bitmap: bit `l` set while lane `l` runs.
    pub fn live_mask(&self) -> u64 {
        self.live
    }

    /// Shared scheduled draws so far — every lane's private interaction
    /// clock (live or retired-at-that-time).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Lane `l`'s per-state counts (dense state indexing).
    pub fn counts_of_lane(&self, lane: u32) -> Vec<u64> {
        let states = self.counts.len();
        let l = lane as usize;
        if self.packed {
            self.unpack_lane(l)[..states].to_vec()
        } else {
            self.lane_counts[l * states..(l + 1) * states].to_vec()
        }
    }

    /// Unpack lane `l`'s packed counts into a dense array (packed path
    /// only; fields beyond the active states are zero).
    #[inline]
    fn unpack_lane(&self, l: usize) -> [u64; PACKED_MAX_STATES] {
        let c = self.packed_counts[l];
        let mut out = [0u64; PACKED_MAX_STATES];
        for (st, o) in out.iter_mut().enumerate() {
            *o = (c >> (PACKED_FIELD_BITS * st)) & PACKED_FIELD_MASK;
        }
        out
    }

    /// The shared-draw clock at which lane `l` stabilized (count-silent or
    /// frozen-retired), or `None` while it runs. Comparable one-to-one
    /// with a scalar run's interaction clock.
    pub fn stabilized_at(&self, lane: u32) -> Option<u64> {
        let t = self.stab_time[lane as usize];
        (t != u64::MAX).then_some(t)
    }

    /// Decode lane `l`'s full per-agent state vector (dense indices).
    pub fn lane_states(&self, lane: u32) -> Vec<usize> {
        let s = self.planes;
        let l = lane as usize;
        (0..self.n)
            .map(|agent| {
                let mut code = 0u64;
                for p in 0..s {
                    code |= ((self.words[agent * s + p] >> l) & 1) << p;
                }
                self.protocol.decode(code)
            })
            .collect()
    }

    /// One scheduled pair from the shared stream — exactly
    /// `GraphScheduler::next_pair` on graphs (uniform edge, then a
    /// uniform orientation, consumed even for symmetric protocols), and
    /// `CliqueScheduler::next_pair` (uniform distinct agents) on the
    /// clique. That is stream parity with the scalar `agent` engine only:
    /// the graph engine draws one `below(2m)` per interaction, a
    /// different stream.
    #[inline]
    fn draw_pair(&self, rng: &mut SimRng) -> (usize, usize) {
        match &self.graph {
            None => {
                let (a, b) = distinct_pair(rng, self.n as u64);
                (a as usize, b as usize)
            }
            Some(g) => {
                let (a, b) = g.endpoints(rng.index(g.num_edges()));
                if rng.bernoulli(0.5) {
                    (a as usize, b as usize)
                } else {
                    (b as usize, a as usize)
                }
            }
        }
    }

    /// One shared scheduled draw: advances every live lane by one
    /// interaction. Returns whether any lane changed.
    pub fn draw_step(&mut self, rng: &mut SimRng) -> bool {
        let (i, j) = self.draw_pair(rng);
        debug_assert_ne!(i, j);
        self.draws += 1;
        let live = self.live;
        let live_lanes = live.count_ones() as u64;
        self.interactions += live_lanes;
        self.telemetry.scheduled += live_lanes;
        self.telemetry.dense_steps += 1;
        self.telemetry.pair_draws += 1;
        // Lanes where a state count decremented to zero this draw — the
        // only lanes that can have newly become silent, for protocols
        // with `silence_needs_zeroed_count`.
        let mut zero_hit = 0u64;
        // Plane-count dispatch: the const-width paths keep both agents'
        // columns in registers, unroll every plane loop, and skip the
        // write-back on all-lane no-op draws (the common case).
        let changed = match self.planes {
            1 => self.apply_draw::<1>(i, j, live, &mut zero_hit),
            2 => self.apply_draw::<2>(i, j, live, &mut zero_hit),
            3 => self.apply_draw::<3>(i, j, live, &mut zero_hit),
            4 => self.apply_draw::<4>(i, j, live, &mut zero_hit),
            _ => self.apply_draw_wide(i, j, live, &mut zero_hit),
        };
        if changed != 0 {
            let ch = changed.count_ones() as u64;
            self.effective += ch;
            self.telemetry.effective += ch;
            if let Some(h) = &mut self.hist {
                h.skip_len.add_u64(self.noop_run);
            }
            self.noop_run = 0;
            // Only a changed lane can have newly become count-silent —
            // and for protocols where silence needs a freshly emptied
            // count, only a lane that zeroed a count this draw.
            let mut rest = if self.protocol.silence_needs_zeroed_count() {
                zero_hit & self.live
            } else {
                changed
            };
            let states = self.counts.len();
            while rest != 0 {
                let l = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let silent = if self.packed {
                    let buf = self.unpack_lane(l);
                    self.protocol.is_silent(&buf[..states])
                } else {
                    self.protocol
                        .is_silent(&self.lane_counts[l * states..(l + 1) * states])
                };
                if silent {
                    self.live &= !(1u64 << l);
                    self.stab_time[l] = self.draws;
                }
            }
        } else if self.hist.is_some() {
            self.noop_run += 1;
        }
        if self.needs_scan && self.draws >= self.next_scan {
            self.frozen_scan();
        }
        changed != 0
    }

    /// Const-width transition + bookkeeping for one drawn pair: gather
    /// both agents' `S` plane words into registers, apply the protocol to
    /// all live lanes, and — only when some lane changed — write back and
    /// maintain the count vectors with per-state lane-equality masks
    /// (`states ≤ 2^S ≤ 16`, so the mask path always applies). Returns
    /// the changed-lane mask and accumulates freshly emptied counts into
    /// `zero_hit`.
    #[inline(always)]
    fn apply_draw<const S: usize>(
        &mut self,
        i: usize,
        j: usize,
        live: u64,
        zero_hit: &mut u64,
    ) -> u64 {
        let (ia, ib) = (i * S, j * S);
        let mut wa = [0u64; S];
        let mut wb = [0u64; S];
        wa.copy_from_slice(&self.words[ia..ia + S]);
        wb.copy_from_slice(&self.words[ib..ib + S]);
        let (old_a, old_b) = (wa, wb);
        let changed = self.protocol.apply_lanes(&mut wa, &mut wb, live);
        debug_assert_eq!(changed & !live, 0, "changed lanes must be live");
        if changed == 0 {
            return 0;
        }
        self.words[ia..ia + S].copy_from_slice(&wa);
        self.words[ib..ib + S].copy_from_slice(&wb);
        if self.packed {
            self.apply_packed::<S>(&old_a, &wa, &old_b, &wb, changed, zero_hit);
            return changed;
        }
        let states = self.counts.len();
        debug_assert!(states <= MASK_STATES, "codes fit in S planes");
        // Bit-parallel bookkeeping: per endpoint, the lanes whose code
        // actually moved, then per state an equality mask over the
        // planes. Aggregate counts are popcount deltas; per-lane counts
        // touch exactly one from- and one to-state per moved endpoint,
        // so the scalar work left is ~4 indexed adds per changed lane
        // instead of a gather/decode per lane.
        let (mut a_diff, mut b_diff) = (0u64, 0u64);
        for p in 0..S {
            a_diff |= old_a[p] ^ wa[p];
            b_diff |= old_b[p] ^ wb[p];
        }
        for st in 0..states {
            let code = self.protocol.encode(st);
            let (mut oa, mut na) = (a_diff, a_diff);
            let (mut ob, mut nb) = (b_diff, b_diff);
            for p in 0..S {
                let sel = ((code >> p) & 1).wrapping_neg();
                oa &= !(old_a[p] ^ sel);
                na &= !(wa[p] ^ sel);
                ob &= !(old_b[p] ^ sel);
                nb &= !(wb[p] ^ sel);
            }
            let gained = (na.count_ones() + nb.count_ones()) as u64;
            let lost = (oa.count_ones() + ob.count_ones()) as u64;
            self.counts[st] += gained;
            self.counts[st] -= lost;
            // One pass over every lane whose `st`-count moved, with a
            // branchless body: the delta is read out of the four masks
            // (∈ -2..=2) and zero-crossings are flagged with a compare,
            // not a branch — twelve data-dependent loops collapsed into
            // one per state keeps the mispredict cost off the hot path.
            let mut m = na | nb | oa | ob;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                let inc = ((na >> l) & 1) + ((nb >> l) & 1);
                let dec = ((oa >> l) & 1) + ((ob >> l) & 1);
                let c = &mut self.lane_counts[l * states + st];
                *c = c.wrapping_add(inc).wrapping_sub(dec);
                *zero_hit |= u64::from(*c == 0) << l;
            }
        }
        changed
    }

    /// Packed-counter bookkeeping for one changed draw: one loop over the
    /// changed lanes, each costing two code gathers, two transition-table
    /// loads, one packed add, and a branchless per-field zero test —
    /// replacing both the per-state equality-mask pass and the per-state
    /// lane loops of the generic path. Aggregate count deltas fall out of
    /// the same loop via a bias-packed accumulator, so the whole
    /// bookkeeping is O(changed lanes), not O(states × lanes).
    ///
    /// Arithmetic safety: a lane's packed word always decomposes uniquely
    /// into its true counts because every field stays in `[0, n]` with
    /// `n < 2^20` (decrements only fire for a state the agent actually
    /// occupied, so no field underflows and no borrow crosses a field
    /// boundary in the *result*; intermediate wrapped representations are
    /// exact because `u64` addition is exact integer arithmetic mod 2^64).
    /// The accumulator adds a `+2` bias per field per lane so its fields
    /// are also non-negative (bounded by `4 × 64 < 2^21`).
    #[inline(always)]
    fn apply_packed<const S: usize>(
        &mut self,
        old_a: &[u64; S],
        new_a: &[u64; S],
        old_b: &[u64; S],
        new_b: &[u64; S],
        changed: u64,
        zero_hit: &mut u64,
    ) {
        let lo = self.packed_lo;
        let hi = self.packed_hi;
        let bias = lo << 1; // +2 in every active field
                            // Walk the changed-lane bits into an index buffer first: the body
                            // below then runs as a counted loop free of the serial
                            // `trailing_zeros` dependency chain.
        let mut idx = [0u8; 64];
        let mut cnt = 0usize;
        let mut m = changed;
        while m != 0 {
            idx[cnt] = m.trailing_zeros() as u8;
            cnt += 1;
            m &= m - 1;
        }
        let mut agg = 0u64;
        for &l in &idx[..cnt] {
            let l = l as usize & 63;
            // Gather both endpoints' old and new codes (four independent
            // short chains), then combine into the table index (layout
            // `oa:na:ob:nb`, 2 bits each) with a balanced tree so the
            // load's address is ready as early as possible.
            let (mut oa, mut na, mut ob, mut nb) = (0u64, 0u64, 0u64, 0u64);
            for p in 0..S {
                oa |= ((old_a[p] >> l) & 1) << p;
                na |= ((new_a[p] >> l) & 1) << p;
                ob |= ((old_b[p] >> l) & 1) << p;
                nb |= ((new_b[p] >> l) & 1) << p;
            }
            let t = ((oa << 2 | na) << 4) | (ob << 2 | nb);
            let d = self.packed_delta[t as usize];
            let c_old = self.packed_counts[l];
            let c_new = c_old.wrapping_add(d);
            self.packed_counts[l] = c_new;
            // Exact per-field zero flags: `(v | top) − 1` keeps the top
            // bit set iff `v ≥ 1` (no cross-field borrow since the top
            // bits are forced on), so a cleared top bit marks `v == 0`.
            let zf_old = !((c_old | hi).wrapping_sub(lo)) & hi;
            let zf_new = !((c_new | hi).wrapping_sub(lo)) & hi;
            *zero_hit |= u64::from(zf_new & !zf_old != 0) << l;
            agg = agg.wrapping_add(d).wrapping_add(bias);
        }
        for (st, c) in self.counts.iter_mut().enumerate() {
            let f = (agg >> (PACKED_FIELD_BITS * st)) & PACKED_FIELD_MASK;
            *c = c.wrapping_add(f).wrapping_sub(2 * cnt as u64);
        }
    }

    /// Slice-width twin of [`ReplicaSimulator::apply_draw`] for protocols
    /// with more than 4 planes, including the per-changed-lane
    /// gather/decode fallback for state counts past [`MASK_STATES`].
    fn apply_draw_wide(&mut self, i: usize, j: usize, live: u64, zero_hit: &mut u64) -> u64 {
        let s = self.planes;
        let (ia, ib) = (i * s, j * s);
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        let (left, right) = self.words.split_at_mut(hi);
        let (wl, wr) = (&mut left[lo..lo + s], &mut right[..s]);
        let (wa, wb) = if ia < ib { (wl, wr) } else { (wr, wl) };
        let mut old_a = [0u64; MAX_PLANES];
        let mut old_b = [0u64; MAX_PLANES];
        old_a[..s].copy_from_slice(wa);
        old_b[..s].copy_from_slice(wb);
        let changed = self.protocol.apply_lanes(wa, wb, live);
        debug_assert_eq!(changed & !live, 0, "changed lanes must be live");
        if changed == 0 {
            return 0;
        }
        // Copy the updated columns into locals so the `words` borrow ends
        // before the counter bookkeeping below re-borrows `self`.
        let mut new_a = [0u64; MAX_PLANES];
        let mut new_b = [0u64; MAX_PLANES];
        new_a[..s].copy_from_slice(wa);
        new_b[..s].copy_from_slice(wb);
        let states = self.counts.len();
        if states <= MASK_STATES {
            let (mut a_diff, mut b_diff) = (0u64, 0u64);
            for p in 0..s {
                a_diff |= old_a[p] ^ new_a[p];
                b_diff |= old_b[p] ^ new_b[p];
            }
            for st in 0..states {
                let code = self.protocol.encode(st);
                let (mut oa, mut na) = (a_diff, a_diff);
                let (mut ob, mut nb) = (b_diff, b_diff);
                for p in 0..s {
                    let sel = ((code >> p) & 1).wrapping_neg();
                    oa &= !(old_a[p] ^ sel);
                    na &= !(new_a[p] ^ sel);
                    ob &= !(old_b[p] ^ sel);
                    nb &= !(new_b[p] ^ sel);
                }
                let gained = (na.count_ones() + nb.count_ones()) as u64;
                let lost = (oa.count_ones() + ob.count_ones()) as u64;
                self.counts[st] += gained;
                self.counts[st] -= lost;
                // Branchless single pass per state — see apply_draw.
                let mut m = na | nb | oa | ob;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let inc = ((na >> l) & 1) + ((nb >> l) & 1);
                    let dec = ((oa >> l) & 1) + ((ob >> l) & 1);
                    let c = &mut self.lane_counts[l * states + st];
                    *c = c.wrapping_add(inc).wrapping_sub(dec);
                    *zero_hit |= u64::from(*c == 0) << l;
                }
            }
        } else {
            // Wide-state fallback: decode each changed lane's old and new
            // codes and update the count vectors per lane.
            let mut rest = changed;
            while rest != 0 {
                let l = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let (mut oa, mut ob, mut na, mut nb) = (0u64, 0u64, 0u64, 0u64);
                for p in 0..s {
                    oa |= ((old_a[p] >> l) & 1) << p;
                    ob |= ((old_b[p] >> l) & 1) << p;
                    na |= ((new_a[p] >> l) & 1) << p;
                    nb |= ((new_b[p] >> l) & 1) << p;
                }
                let base = l * states;
                if oa != na {
                    let (from, to) = (self.protocol.decode(oa), self.protocol.decode(na));
                    self.lane_counts[base + from] -= 1;
                    self.lane_counts[base + to] += 1;
                    self.counts[from] -= 1;
                    self.counts[to] += 1;
                    if self.lane_counts[base + from] == 0 {
                        *zero_hit |= 1u64 << l;
                    }
                }
                if ob != nb {
                    let (from, to) = (self.protocol.decode(ob), self.protocol.decode(nb));
                    self.lane_counts[base + from] -= 1;
                    self.lane_counts[base + to] += 1;
                    self.counts[from] -= 1;
                    self.counts[to] += 1;
                    if self.lane_counts[base + from] == 0 {
                        *zero_hit |= 1u64 << l;
                    }
                }
            }
        }
        changed
    }

    /// Frozen-lane edge scan: retire every live lane for which **no** edge
    /// is active (graph-silent lanes that never became count-silent —
    /// stranded components on disconnected graphs). Non-mutating on the
    /// state planes; O(m · planes).
    fn frozen_scan(&mut self) {
        self.next_scan = self.draws + self.scan_period;
        if self.live == 0 {
            return;
        }
        let mut active = 0u64;
        if let Some(g) = &self.graph {
            let s = self.planes;
            for (x, y) in g.edges() {
                let a = &self.words[x as usize * s..x as usize * s + s];
                let b = &self.words[y as usize * s..y as usize * s + s];
                active |= self.protocol.active_lanes(a, b);
                if self.live & !active == 0 {
                    return; // every live lane has an active edge
                }
            }
        }
        let mut frozen = self.live & !active;
        while frozen != 0 {
            let l = frozen.trailing_zeros() as usize;
            frozen &= frozen - 1;
            self.live &= !(1u64 << l);
            self.stab_time[l] = self.draws;
        }
    }
}

impl<P: BitwiseProtocol> crate::simulator::Simulator for ReplicaSimulator<P> {
    fn population(&self) -> u64 {
        self.lanes as u64 * self.n as u64
    }

    fn num_states(&self) -> usize {
        self.counts.len()
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.effective
    }

    fn step(&mut self, rng: &mut SimRng) -> bool {
        self.draw_step(rng)
    }

    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        if max == 0 || self.live == 0 {
            return (0, false);
        }
        let before = self.interactions;
        let changed = self.draw_step(rng);
        (self.interactions - before, changed)
    }

    fn is_silent(&self) -> bool {
        self.live == 0
    }

    /// Monomorphic stabilization loop: `run_to_silence` has no observer to
    /// feed, so drive [`ReplicaSimulator::draw_step`] directly instead of
    /// going through the generic observation driver — on a boxed simulator
    /// that skips two dynamic dispatches per draw plus the per-changed-draw
    /// `Observation` plumbing, a measurable share of a ~150 ns draw.
    fn run_to_silence(&mut self, rng: &mut SimRng, budget: u64) -> (u64, bool) {
        let start = self.interactions;
        while self.live != 0 && self.interactions - start < budget {
            self.draw_step(rng);
        }
        (self.interactions, self.live == 0)
    }

    fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    fn set_histograms(&mut self, enabled: bool) {
        self.hist = enabled.then(|| Box::new(EventHistograms::new()));
        self.noop_run = 0;
    }

    fn histograms(&self) -> Option<EventHistograms> {
        self.hist.as_deref().cloned()
    }

    fn lanes(&self) -> u32 {
        self.lanes
    }

    fn lane_counts(&self, lane: u32) -> Vec<u64> {
        self.counts_of_lane(lane)
    }

    fn lane_stabilized_at(&self, lane: u32) -> Option<u64> {
        self.stabilized_at(lane)
    }

    fn lane_clock(&self) -> u64 {
        self.draws
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) -> Result<(), CheckpointError> {
        w.put_u8(snapshot_tags::REPLICA);
        snapshot_tags::write_config(w, self.population(), self.counts.len());
        w.put_u32(self.lanes);
        w.put_u32(self.planes as u32);
        w.put_u64(self.n as u64);
        for &word in &self.words {
            w.put_u64(word);
        }
        w.put_u64(self.live);
        // Lane counts are serialized in the scalar lane-major layout
        // regardless of the in-memory representation, keeping the snapshot
        // format independent of the packed fast path.
        if self.packed {
            let states = self.counts.len();
            for l in 0..self.lanes as usize {
                let buf = self.unpack_lane(l);
                for &c in &buf[..states] {
                    w.put_u64(c);
                }
            }
        } else {
            for &c in &self.lane_counts {
                w.put_u64(c);
            }
        }
        for &t in &self.stab_time {
            w.put_u64(t);
        }
        w.put_u64(self.draws);
        w.put_u64(self.interactions);
        w.put_u64(self.effective);
        w.put_u64(self.next_scan);
        self.telemetry.write_snapshot(w);
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.noop_run);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        snapshot_tags::expect(r, snapshot_tags::REPLICA, "replica")?;
        snapshot_tags::expect_config(r, self.population(), self.counts.len())?;
        let lanes = r.get_u32()?;
        let planes = r.get_u32()? as usize;
        let n = r.get_u64()? as usize;
        if lanes != self.lanes || planes != self.planes || n != self.n {
            return Err(CheckpointError::Corrupt(format!(
                "replica snapshot geometry (lanes={lanes}, planes={planes}, n={n}) \
                 does not match the simulator (lanes={}, planes={}, n={})",
                self.lanes, self.planes, self.n
            )));
        }
        let states = self.counts.len();
        let mut words = Vec::with_capacity(n * planes);
        for _ in 0..n * planes {
            words.push(r.get_u64()?);
        }
        let live = r.get_u64()?;
        if lanes < 64 && live >> lanes != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "replica live bitmap {live:#x} has bits beyond lane {lanes}"
            )));
        }
        let mut lane_counts = Vec::with_capacity(lanes as usize * states);
        for _ in 0..lanes as usize * states {
            lane_counts.push(r.get_u64()?);
        }
        let mut counts = vec![0u64; states];
        for (i, &c) in lane_counts.iter().enumerate() {
            counts[i % states] += c;
        }
        let total: u64 = counts.iter().sum();
        if total != self.population() {
            return Err(CheckpointError::Corrupt(format!(
                "replica snapshot counts sum to {total}, expected {}",
                self.population()
            )));
        }
        for (lane, chunk) in lane_counts.chunks_exact(states).enumerate() {
            let lane_total: u64 = chunk.iter().sum();
            if lane_total != n as u64 {
                return Err(CheckpointError::Corrupt(format!(
                    "replica snapshot lane {lane} counts sum to {lane_total}, expected {n}"
                )));
            }
        }
        let mut stab_time = Vec::with_capacity(lanes as usize);
        for _ in 0..lanes {
            stab_time.push(r.get_u64()?);
        }
        let draws = r.get_u64()?;
        let interactions = r.get_u64()?;
        let effective = r.get_u64()?;
        let next_scan = r.get_u64()?;
        let telemetry = EngineTelemetry::read_snapshot(r)?;
        let hist = if r.get_bool()? {
            Some(Box::new(EventHistograms::read_snapshot(r)?))
        } else {
            None
        };
        let noop_run = r.get_u64()?;
        self.words = words;
        self.live = live;
        if self.packed {
            for (l, chunk) in lane_counts.chunks_exact(states).enumerate() {
                self.packed_counts[l] = pack_lane(chunk);
            }
        } else {
            self.lane_counts = lane_counts;
        }
        self.counts = counts;
        self.stab_time = stab_time;
        self.draws = draws;
        self.interactions = interactions;
        self.effective = effective;
        self.next_scan = next_scan;
        self.telemetry = telemetry;
        self.hist = hist;
        self.noop_run = noop_run;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::CliqueScheduler;
    use crate::simulator::{AgentSimulator, Simulator};

    /// `lanes` distinct epidemic layouts over `n` agents.
    fn epidemic_layouts(n: usize, infected: usize, lanes: u32, seed: u64) -> Vec<Vec<usize>> {
        let mut rng = SimRng::new(seed);
        (0..lanes)
            .map(|_| {
                let mut layout = vec![1usize; n];
                for s in layout.iter_mut().take(infected) {
                    *s = 0;
                }
                rng.shuffle(&mut layout);
                layout
            })
            .collect()
    }

    #[test]
    fn lane_zero_is_bit_identical_to_a_scalar_run() {
        let n = 40;
        let layouts = epidemic_layouts(n, 3, 8, 5);
        let mut replica = ReplicaSimulator::new_clique(OneWayEpidemic, n, &layouts);
        let mut scalar =
            AgentSimulator::new(OneWayEpidemic, CliqueScheduler::new(n), layouts[0].clone());
        let mut rng_r = SimRng::new(77);
        let mut rng_s = SimRng::new(77);
        for _ in 0..5_000 {
            replica.draw_step(&mut rng_r);
            scalar.step(&mut rng_s);
            assert_eq!(replica.lane_states(0), scalar.states());
            assert_eq!(replica.counts_of_lane(0), scalar.counts());
            if replica.is_silent() {
                break;
            }
        }
    }

    #[test]
    fn lanes_complete_and_retire_monotonically() {
        let n = 30;
        let layouts = epidemic_layouts(n, 1, 16, 9);
        let mut sim = ReplicaSimulator::new_clique(OneWayEpidemic, n, &layouts);
        let mut rng = SimRng::new(3);
        let mut prev_live = sim.live_mask();
        while !sim.is_silent() {
            sim.draw_step(&mut rng);
            let live = sim.live_mask();
            assert_eq!(live & !prev_live, 0, "a retired lane came back");
            prev_live = live;
        }
        for lane in 0..16 {
            assert_eq!(sim.counts_of_lane(lane), &[n as u64, 0]);
            let t = sim.stabilized_at(lane).expect("lane stabilized");
            assert!(t > 0 && t <= sim.draws());
        }
        assert_eq!(sim.counts(), &[16 * n as u64, 0]);
        assert_eq!(sim.lane_stabilized_at(0), sim.stabilized_at(0));
    }

    #[test]
    fn retired_lane_counts_are_frozen() {
        let n = 20;
        let layouts = epidemic_layouts(n, 2, 4, 21);
        let mut sim = ReplicaSimulator::new_clique(OneWayEpidemic, n, &layouts);
        let mut rng = SimRng::new(8);
        let mut frozen: Vec<Option<Vec<u64>>> = vec![None; 4];
        for _ in 0..200_000 {
            sim.draw_step(&mut rng);
            for lane in 0..4u32 {
                if sim.stabilized_at(lane).is_some() {
                    let counts = sim.counts_of_lane(lane).to_vec();
                    match &frozen[lane as usize] {
                        None => frozen[lane as usize] = Some(counts),
                        Some(expect) => assert_eq!(&counts, expect, "lane {lane} moved"),
                    }
                }
            }
            if sim.is_silent() {
                break;
            }
        }
        assert!(sim.is_silent());
    }

    #[test]
    fn aggregate_clocks_are_lane_sums() {
        let n = 25;
        let layouts = epidemic_layouts(n, 5, 3, 2);
        let mut sim = ReplicaSimulator::new_clique(OneWayEpidemic, n, &layouts);
        let mut rng = SimRng::new(4);
        for _ in 0..50 {
            sim.draw_step(&mut rng);
        }
        // All three lanes live for 50 draws (infection can't finish in 50
        // draws from 5 infected here, and can't die out).
        assert_eq!(Simulator::interactions(&sim), 150);
        assert_eq!(sim.telemetry().scheduled, Simulator::interactions(&sim));
        assert_eq!(
            sim.telemetry().effective,
            Simulator::effective_interactions(&sim)
        );
        assert_eq!(sim.telemetry().pair_draws, 50);
        assert_eq!(Simulator::population(&sim), 75);
    }

    #[test]
    fn graph_mode_matches_scalar_draw_stream() {
        let g = Graph::path(12);
        let mut layouts = epidemic_layouts(12, 2, 4, 11);
        // Make lane 0's layout the scalar reference.
        let reference = layouts[0].clone();
        layouts[0] = reference.clone();
        let mut replica = ReplicaSimulator::new_graph(OneWayEpidemic, g.clone(), &layouts);
        let mut scalar = AgentSimulator::new(
            OneWayEpidemic,
            crate::scheduler::GraphScheduler::new(g),
            reference,
        );
        let mut rng_r = SimRng::new(19);
        let mut rng_s = SimRng::new(19);
        for _ in 0..2_000 {
            replica.draw_step(&mut rng_r);
            scalar.step(&mut rng_s);
            assert_eq!(replica.lane_states(0), scalar.states());
        }
    }

    #[test]
    fn disconnected_graph_lanes_freeze_and_retire() {
        // Two disjoint triangles: infected agents stranded in one
        // component leave the other susceptible forever — the lane is
        // graph-silent but never count-silent, so only the edge scan can
        // retire it.
        let edges = vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
        let g = Graph::from_edges(6, edges);
        let layouts: Vec<Vec<usize>> = vec![
            vec![0, 1, 1, 1, 1, 1], // infection confined to component {0,1,2}
            vec![1, 1, 1, 0, 1, 1], // confined to {3,4,5}
        ];
        let mut sim = ReplicaSimulator::new_graph(OneWayEpidemic, g, &layouts);
        assert!(sim.needs_scan, "disconnected graph must scan");
        let mut rng = SimRng::new(6);
        let mut steps = 0u64;
        while !sim.is_silent() && steps < 10_000_000 {
            sim.draw_step(&mut rng);
            steps += 1;
        }
        assert!(sim.is_silent(), "frozen lanes were never retired");
        for lane in 0..2 {
            assert_eq!(sim.counts_of_lane(lane), &[3, 3], "lane {lane}");
            assert!(sim.stabilized_at(lane).is_some());
        }
    }

    #[test]
    fn connected_graph_skips_the_scan() {
        let g = Graph::path(8);
        let layouts = epidemic_layouts(8, 1, 2, 3);
        let sim = ReplicaSimulator::new_graph(OneWayEpidemic, g, &layouts);
        assert!(!sim.needs_scan);
    }

    #[test]
    fn initially_silent_lanes_retire_at_draw_zero() {
        let layouts: Vec<Vec<usize>> = vec![
            vec![0, 0, 0, 0], // all infected: silent
            vec![1, 0, 1, 1], // mixed: live
        ];
        let sim = ReplicaSimulator::new_clique(OneWayEpidemic, 4, &layouts);
        assert_eq!(sim.stabilized_at(0), Some(0));
        assert_eq!(sim.stabilized_at(1), None);
        assert_eq!(sim.live_mask(), 0b10);
    }

    #[test]
    fn snapshot_round_trip_resumes_bit_identically() {
        let n = 30;
        let layouts = epidemic_layouts(n, 3, 8, 13);
        let mut sim = ReplicaSimulator::new_clique(OneWayEpidemic, n, &layouts);
        let mut rng = SimRng::new(31);
        for _ in 0..500 {
            sim.draw_step(&mut rng);
        }
        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut fresh = ReplicaSimulator::new_clique(OneWayEpidemic, n, &layouts);
        let mut r = SnapshotReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        // Drive both forward with the same stream: identical trajectories.
        let mut rng2 = rng.clone();
        for _ in 0..500 {
            sim.draw_step(&mut rng);
            fresh.draw_step(&mut rng2);
        }
        assert_eq!(sim.live_mask(), fresh.live_mask());
        assert_eq!(sim.counts(), fresh.counts());
        assert_eq!(
            Simulator::interactions(&sim),
            Simulator::interactions(&fresh)
        );
        for lane in 0..8 {
            assert_eq!(sim.lane_states(lane), fresh.lane_states(lane));
            assert_eq!(sim.stabilized_at(lane), fresh.stabilized_at(lane));
        }
    }

    #[test]
    fn snapshot_into_wrong_geometry_is_rejected() {
        let layouts = epidemic_layouts(10, 2, 4, 1);
        let mut sim = ReplicaSimulator::new_clique(OneWayEpidemic, 10, &layouts);
        let mut rng = SimRng::new(2);
        sim.draw_step(&mut rng);
        let mut w = SnapshotWriter::new();
        sim.snapshot_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let other_layouts = epidemic_layouts(10, 2, 8, 1);
        let mut other = ReplicaSimulator::new_clique(OneWayEpidemic, 10, &other_layouts);
        let mut r = SnapshotReader::new(&bytes);
        assert!(other.restore_state(&mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "1..=64 replica lanes")]
    fn too_many_lanes_rejected() {
        let layouts = epidemic_layouts(4, 1, 64, 1);
        let mut too_many = layouts;
        too_many.push(vec![1, 1, 1, 1]);
        ReplicaSimulator::new_clique(OneWayEpidemic, 4, &too_many);
    }
}
