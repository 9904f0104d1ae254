//! Exact simulator for graph-restricted schedulers: one engine, two
//! execution policies, one random stream.
//!
//! # The scheduled stream
//!
//! Under [`GraphScheduler`](crate::scheduler::GraphScheduler) every
//! scheduled interaction picks a uniform edge and a uniform orientation.
//! The engine draws both with a single [`SimRng::below`]`(2m)`: the edge
//! is `v >> 1` and the low bit is the orientation. The draws are **i.i.d.
//! regardless of the configuration** — only the *transitions* depend on
//! states — and both policies below consume exactly one draw per
//! scheduled interaction, in schedule order.
//!
//! # Policies
//!
//! The policy is fixed at construction. It decides when
//! [`advance_changed`](BatchGraphSimulator::advance_changed) returns and
//! what bookkeeping it keeps, never what it samples:
//!
//! * **block** ([`BatchGraphSimulator::new`], the `batchgraph` backend):
//!   the dense phase scans pre-drawn chunks of ~√n draws as matchings
//!   (below) and the sparse phase applies up to
//!   [`SPARSE_BLOCK_EVENTS`](super::sparse) events per advancement.
//!   Observers see block checkpoints.
//! * **per-event** ([`BatchGraphSimulator::per_event`], the `graph`
//!   backend): the dense phase applies one draw at a time through
//!   [`step`](BatchGraphSimulator::step) and returns at the first
//!   effective one, and the sparse phase applies one event per
//!   advancement. Observers see every effective event.
//!
//! Under one seed the two policies apply the same draws in the same order,
//! so their trajectories are **bit-identical**: equal clocks and counts at
//! every boundary both report, the same sparse hand-off draw, and
//! snapshots that resume under either policy. `tests/topology_equivalence.rs`
//! pins this run by run.
//!
//! # The block scan
//!
//! While no scheduled edge touches a vertex already changed by an earlier
//! *effective* interaction of the chunk, every interaction's participants
//! still hold their chunk-start states, so the chunk's effective edges form
//! a **matching** (pairwise vertex-disjoint active edges) whose transitions
//! commute and can be applied from chunk-start states. The scan:
//!
//! 1. one tight loop draws the raw schedule (pure RNG), a second derives
//!    the oriented endpoints — loads from a stored edge list, or pure index
//!    arithmetic on the implicit cycle and torus, with the form matched
//!    once per chunk — and a third gathers their states: independent loads
//!    the CPU overlaps, the memory-level parallelism a draw-at-a-time loop
//!    cannot express (its next address depends on the previous load);
//! 2. a scan applies the chunk in schedule order against a **dirty
//!    bitmap** (vertex hashed to one bit, cleared at chunk end in
//!    O(changed vertices) time) that tracks every vertex changed since the
//!    gather: draws with no dirty endpoint use their gathered chunk-start
//!    states — provably current — while dirty (or hash-colliding) draws
//!    re-read current states and are simulated literally, marking whatever
//!    they change.
//!
//! The bitmap has **no false negatives** (a changed vertex's bit is always
//! set), so clean-classified draws are genuinely clean and every draw is
//! applied to exactly the states the per-event policy would apply it to;
//! hash false positives merely demote a clean draw to the literal
//! fallback, which costs one re-read and nothing else. No-op draws never
//! dirty their endpoints — a no-op leaves its participants' states
//! untouched, so only *effective* interactions bound the matching.
//!
//! # Phases
//!
//! The dense phase is the *effective-dominated* workhorse (USD bulk phase
//! on expanders: 30–55 % of draws effective). When activity collapses —
//! endgames, low-conductance frontiers — almost every draw is a no-op; a
//! run of [`SPARSE_TRIGGER_NOOPS`](super::sparse) consecutive no-op draws
//! escalates to the **sparse phase**: the engine scans the graph once and
//! hands the per-edge active-orientation weights (0, 1, or 2) to the
//! [`SparseSkipper`](super::sparse). It skips each no-op run exactly and
//! geometrically (success probability `W / 2m`, `W` the number of active
//! orientations), draws the effective edge from the exact weighted law by
//! one uniform pick from an active-edge pool, and updates the pool in O(1)
//! per changed edge. When the activity fraction recovers past a hysteresis
//! threshold the pool is dropped and the dense phase resumes. Both phases
//! simulate the same chain; the switch is purely a cost-model decision.
//!
//! **The chunk cap.** The trigger counts consecutive no-op draws across
//! chunks, and the skipper samples its own draws once it is live, so the
//! hand-off must happen at the draw where the run reaches the trigger — a
//! chunk that fired mid-scan would throw its remaining pre-drawn draws
//! away and desynchronize the block policy from the per-event one. A chunk
//! therefore holds at most `SPARSE_TRIGGER_NOOPS − noop_run` draws. If it
//! has no effective draw, the run can reach the trigger only on its last
//! draw; if it has one, the run restarts there with fewer than
//! `SPARSE_TRIGGER_NOOPS` draws left. Either way no drawn draw is
//! discarded, and both policies hand off at the same draw. The cap only
//! shortens chunks that follow a long no-op run.
//!
//! # Exactness
//!
//! Every scanned or stepped draw is a literal scheduled interaction, and
//! the sparse phase's geometric skip and conditional edge law are the
//! exact laws of the embedded chain (see the `sparse` module). The induced
//! chain on agent states is therefore identical to driving
//! [`AgentSimulator`](crate::simulator::AgentSimulator) with a
//! [`GraphScheduler`](crate::scheduler::GraphScheduler) — pinned by KS
//! tests against `agent` in `tests/topology_equivalence.rs` and by the
//! property tests below.
//!
//! # Silence on graphs
//!
//! A configuration is silent for a graph-restricted scheduler iff `W = 0`
//! — a *weaker* condition than clique silence (two clashing opinions that
//! are not adjacent cannot interact), so on disconnected topologies the
//! dynamics can freeze in a mixed configuration.
//! [`is_silent`](BatchGraphSimulator::is_silent) is exact in the sparse
//! phase and uses the sufficient count-level criterion in the dense phase;
//! a frozen configuration that criterion misses trips the no-op trigger,
//! which escalates to the sparse phase and certifies `W = 0`. Silence
//! stops the clock: a chunk whose last effective interaction silences the
//! configuration discards its trailing (provably no-op) draws from the
//! clock, so stabilization times report the interaction *at which silence
//! was reached* under both policies.
//!
//! # State packing
//!
//! The per-agent state array — the scan's hottest random-access target —
//! is stored through the [`StateWord`] packing parameter: one byte for
//! protocols with ≤ 256 states (the default, cache-resident for any
//! population the per-agent engines can hold), or the
//! [`WideBatchGraphSimulator`] u16 fallback for alphabets up to 65 536
//! states at twice the footprint. [`make_topology_simulator`] routes on
//! `k` automatically, so large-alphabet protocols run instead of being
//! rejected.
//!
//! [`make_topology_simulator`]: ../../usd_core/backend/fn.make_topology_simulator.html

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::graph::{Adjacency, Graph};
use crate::protocol::Protocol;
use crate::simulator::sparse::{
    orient_event, SparseSkipper, SparseStep, SPARSE_BLOCK_EVENTS, SPARSE_TRIGGER_NOOPS,
};
use crate::simulator::{snapshot_tags, Simulator};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::rng::SimRng;

/// Packed storage width for the batch-graph engine's per-agent state array.
///
/// The scan gathers endpoint states by random access, so the array's cache
/// footprint is the engine's hottest constant: `u8` (the default) keeps it
/// to one byte per agent for protocols with at most 256 states, and `u16`
/// (see [`WideBatchGraphSimulator`]) lifts the alphabet cap to 65 536
/// states at twice the footprint.
pub trait StateWord: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Largest protocol alphabet this width can index.
    const LIMIT: usize;

    /// Pack a dense state index (caller guarantees `s < Self::LIMIT`).
    fn pack(s: usize) -> Self;

    /// Unpack back to the dense state index.
    fn unpack(self) -> usize;
}

impl StateWord for u8 {
    const LIMIT: usize = 256;

    #[inline(always)]
    fn pack(s: usize) -> Self {
        s as u8
    }

    #[inline(always)]
    fn unpack(self) -> usize {
        self as usize
    }
}

impl StateWord for u16 {
    const LIMIT: usize = 65_536;

    #[inline(always)]
    fn pack(s: usize) -> Self {
        s as u16
    }

    #[inline(always)]
    fn unpack(self) -> usize {
        self as usize
    }
}

/// Bounds on the pre-generated chunk length. The target is the birthday
/// scale √n (blocks rarely survive much longer), clamped so tiny graphs
/// still amortize the pass overhead and huge ones bound buffer memory and
/// stop-predicate latency.
const CHUNK_MIN: usize = 64;
const CHUNK_MAX: usize = 4096;

/// The u16 state-packing fallback of [`BatchGraphSimulator`] for protocols
/// with more than 256 (and up to 65 536) states — same engine, twice the
/// state-array footprint. Construct via
/// [`BatchGraphSimulator::with_states`] through this alias.
pub type WideBatchGraphSimulator<P> = BatchGraphSimulator<P, u16>;

/// Exact simulator for graph-restricted schedulers, under the block or
/// the per-event policy (see the module docs).
///
/// Memory is O(n + m) plus O(√n) scan buffers on stored graphs. The
/// implicit cycle and torus store no edges, so there the dense phase holds
/// O(n) and the skipper's O(m) pool exists only while the sparse phase is
/// live. The dense phase costs O(1) per scheduled interaction — under the
/// block policy with the per-draw constant driven down by batched RNG and
/// overlapped gathers — and the sparse phase O(d) per **effective**
/// interaction, where `d` is the degree of the two agents that changed.
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)): under the
/// block policy, **checkpoint** in both phases — one observation
/// summarizes every effective event of a ~√n-draw chunk (dense phase) or
/// of an up-to-64-event sparse block (`SPARSE_BLOCK_EVENTS` in the private
/// `sparse` module). Under the [`per_event`](Self::per_event) policy,
/// **exact**: every advancement that changes the counts applies exactly
/// one effective event, with the preceding no-op run folded into the
/// scheduled delta.
#[derive(Debug, Clone)]
pub struct BatchGraphSimulator<P: Protocol, S: StateWord = u8> {
    protocol: P,
    /// Edge endpoints and incident edges: a stored graph's edge list and
    /// CSR, or an implicit lattice's index arithmetic.
    adjacency: Adjacency,
    /// Packed dense state index per agent (see [`StateWord`]).
    states: Vec<S>,
    /// Per-state counts, kept in sync with `states`.
    counts: Vec<u64>,
    /// Sparse-phase engine (`SparseSkipper`) over per-edge
    /// active-orientation weights; live only in the sparse phase.
    sparse: Option<SparseSkipper>,
    /// Consecutive no-op draws of the dense phase (sparse trigger).
    noop_run: u32,
    /// Execution policy: `true` returns at every effective event (the
    /// `graph` backend), `false` leaps blocks (`batchgraph`). Set at
    /// construction and not snapshotted, so a snapshot resumes under
    /// either policy.
    per_event: bool,
    k: usize,
    interactions: u64,
    effective_interactions: u64,
    /// Cached `transition_indices` for all ordered state pairs
    /// (`table[i * k + j]`).
    table: Vec<(S, S)>,
    /// Whether `(i, j)` is a no-op (`noop[i * k + j]`).
    noop: Vec<bool>,
    /// Chunk length for this population (≈ √n, clamped).
    chunk: usize,
    /// Reusable buffer: raw oriented draws of the current chunk.
    draws: Vec<u64>,
    /// Dirty bitmap over hashed vertices (64 bits per word); `bit_mask` is
    /// the power-of-two bit-count minus one. A bit is set for every vertex
    /// changed since the current chunk's state gather and cleared at chunk
    /// end from `dirty_list`, so the map stays O(chunk)-sparse and
    /// cache-resident.
    bitmap: Vec<u64>,
    bit_mask: usize,
    /// Vertices marked dirty in the current chunk (bitmap clearing).
    dirty_list: Vec<u32>,
    /// Reusable buffer: gathered oriented endpoints of the current chunk.
    ends: Vec<(u32, u32)>,
    /// Reusable buffer: gathered endpoint states of the current chunk.
    pair_states: Vec<(S, S)>,
    /// Oriented endpoints of the current block's matching (bitmap clearing,
    /// diagnostics, and property tests; see
    /// [`BatchGraphSimulator::last_block_matching`]).
    block_events: Vec<(u32, u32)>,
    /// Engine telemetry: live counters here are `scheduled`/`effective`
    /// (mirroring the interaction clocks, *including* the silence rewind),
    /// `pair_draws`, `sparse_enters`/`sparse_exits`, the harvested skipper
    /// stats and the spans; the block policy adds
    /// `blocks`/`block_draws`/`block_applied` and `fallback_literal`
    /// (dirty draws applied literally), the per-event policy
    /// `dense_steps`. Block-policy spans follow the convention
    /// `dense ⊇ gather + apply` (gather = passes 1–3, apply = the matching
    /// scan, dense = the whole chunk, so `dense − gather − apply` is the
    /// scan's bookkeeping overhead).
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): dense no-op runs, and under the
    /// block policy matching block sizes and per-chunk fallback runs,
    /// recorded here; sparse fields merged in from each skipper at phase
    /// exits and boundary reads.
    hist: Option<Box<EventHistograms>>,
}

impl<P: Protocol, S: StateWord> BatchGraphSimulator<P, S> {
    /// Create from explicit per-agent states (dense indices) with this
    /// packing width. The graph must have at least one edge and as many
    /// vertices as there are states, and the protocol's alphabet must fit
    /// the width (`k ≤ S::LIMIT`; use [`WideBatchGraphSimulator`] past
    /// 256 states).
    pub fn with_states(protocol: P, graph: &Graph, states: Vec<usize>) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "agent count does not match graph vertex count"
        );
        assert!(graph.num_edges() > 0, "batch-graph engine needs edges");
        let k = protocol.num_states();
        assert!(
            k <= S::LIMIT,
            "protocol alphabet k = {k} exceeds this packing width's limit {}",
            S::LIMIT
        );
        let mut table = Vec::with_capacity(k * k);
        let mut noop = Vec::with_capacity(k * k);
        for i in 0..k {
            for j in 0..k {
                let (a, b) = protocol.transition_indices(i, j);
                table.push((S::pack(a), S::pack(b)));
                noop.push((a, b) == (i, j));
            }
        }
        let mut counts = vec![0u64; k];
        let states: Vec<S> = states
            .into_iter()
            .map(|s| {
                assert!(s < k, "state index {s} out of range");
                counts[s] += 1;
                S::pack(s)
            })
            .collect();
        let chunk = ((graph.n() as f64).sqrt() as usize).clamp(CHUNK_MIN, CHUNK_MAX);
        // ~64 bitmap bits per possible dirty vertex of a chunk keeps the
        // hash false-positive rate (which only shortens blocks) below ~3%
        // even for a fully effective chunk, at ≤ 32 KiB of cache footprint.
        let bits = (chunk * 64).next_power_of_two();
        BatchGraphSimulator {
            protocol,
            adjacency: Adjacency::new(graph),
            states,
            counts,
            sparse: None,
            noop_run: 0,
            per_event: false,
            k,
            interactions: 0,
            effective_interactions: 0,
            table,
            noop,
            chunk,
            bitmap: vec![0u64; bits / 64],
            bit_mask: bits - 1,
            dirty_list: Vec::new(),
            draws: Vec::with_capacity(chunk),
            ends: Vec::with_capacity(chunk),
            pair_states: Vec::with_capacity(chunk),
            block_events: Vec::new(),
            telemetry: EngineTelemetry::new(),
            hist: None,
        }
    }

    /// Switch to the **per-event** policy: the dense phase steps one
    /// scheduled draw at a time and returns at the first effective one,
    /// and the sparse phase applies one event per advancement, so
    /// observers see every effective event. The stream and the trajectory
    /// are the block policy's (see the module docs).
    pub fn per_event(mut self) -> Self {
        self.per_event = true;
        self
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.num_edges()
    }

    /// The state index of one agent.
    pub fn state_of_agent(&self, v: usize) -> usize {
        self.states[v].unpack()
    }

    /// Oriented `(initiator, responder)` endpoint pairs of the most recent
    /// block's effective interactions. By construction these form a
    /// matching of active edges: pairwise vertex-disjoint, each active at
    /// block start — the invariant the property tests assert.
    pub fn last_block_matching(&self) -> &[(u32, u32)] {
        &self.block_events
    }

    /// Total number of active orientations `W` (0 iff silent). O(1) in the
    /// sparse phase; scans the edges in the dense phase, where `W` is not
    /// maintained.
    pub fn active_weight(&self) -> u64 {
        match &self.sparse {
            Some(s) => s.total(),
            None => (0..self.num_edges()).map(|e| self.edge_weight(e)).sum(),
        }
    }

    /// Current weight (active orientations) of edge `e` from its endpoint
    /// states.
    #[inline]
    fn edge_weight(&self, e: usize) -> u64 {
        let (a, b) = self.adjacency.endpoints(e);
        let sa = self.states[a as usize].unpack();
        let sb = self.states[b as usize].unpack();
        (!self.noop[sa * self.k + sb]) as u64 + (!self.noop[sb * self.k + sa]) as u64
    }

    /// Verify the sparse skipper (if live) against per-edge weights
    /// recomputed from the states — the pool invariants the property
    /// tests pin. O(m); `Ok` when the dense phase is active.
    #[doc(hidden)]
    pub fn validate_sparse_invariants(&self) -> Result<(), String> {
        match &self.sparse {
            None => Ok(()),
            Some(s) => {
                let truth: Vec<u64> = (0..self.num_edges()).map(|e| self.edge_weight(e)).collect();
                s.check_consistent(&truth)
            }
        }
    }

    /// End the current chunk: clear its dirty bits (O(changed vertices),
    /// no memset).
    fn clear_chunk(&mut self) {
        for idx in 0..self.dirty_list.len() {
            let h = self.dirty_list[idx] as usize & self.bit_mask;
            self.bitmap[h >> 6] &= !(1 << (h & 63));
        }
        self.dirty_list.clear();
    }

    /// Re-weight the incident edges of vertex `v` in the sparse skipper
    /// after its state changed from `old` (the state array already holds
    /// the new value). Unchanged edges are filtered with pure
    /// transition-table math before the skipper is touched; changed ones
    /// report their new weight to the pool. Sparse phase only.
    fn refresh_incident(&mut self, v: usize, old: usize) {
        let t = self.states[v].unpack();
        let sparse = self
            .sparse
            .as_mut()
            .expect("sparse-phase refresh without a skipper");
        for &(nb, e) in self.adjacency.incident(v, &mut [(0, 0); 4]) {
            debug_assert_ne!(nb as usize, v, "self-loop");
            let y = self.states[nb as usize].unpack();
            let was = (!self.noop[old * self.k + y]) as u64 + (!self.noop[y * self.k + old]) as u64;
            let now = (!self.noop[t * self.k + y]) as u64 + (!self.noop[y * self.k + t]) as u64;
            if was != now {
                sparse.set_weight(e as usize, now);
            }
        }
    }

    /// Apply `f` to the oriented pair `(i → j)` from **current** states;
    /// returns whether any state changed (reporting new incident weights
    /// to the skipper when it is live). Used by the literal single step
    /// and the sparse phase — not by the block scan, which inlines both
    /// its clean and its dirty path.
    fn apply_oriented(&mut self, i: usize, j: usize) -> bool {
        let (si, sj) = (self.states[i].unpack(), self.states[j].unpack());
        if self.noop[si * self.k + sj] {
            return false;
        }
        let (ti, tj) = self.table[si * self.k + sj];
        self.counts[si] -= 1;
        self.counts[sj] -= 1;
        self.counts[ti.unpack()] += 1;
        self.counts[tj.unpack()] += 1;
        self.effective_interactions += 1;
        self.telemetry.effective += 1;
        if self.sparse.is_none() {
            self.states[i] = ti;
            self.states[j] = tj;
            return true;
        }
        // Refresh one endpoint at a time so each new weight is computed
        // against a consistent snapshot: flip i first (j still old),
        // refresh i's edges; then flip j and refresh. The shared edge
        // (i, j) is seen by both refreshes and settles on its final weight
        // with the second one.
        if ti.unpack() != si {
            self.states[i] = ti;
            self.refresh_incident(i, si);
        }
        if tj.unpack() != sj {
            self.states[j] = tj;
            self.refresh_incident(j, sj);
        }
        true
    }

    /// Enter the sparse phase: scan the graph once and hand the per-edge
    /// active-orientation weights to a fresh [`SparseSkipper`].
    fn enter_sparse(&mut self) {
        let mut skipper = SparseSkipper::new((0..self.num_edges()).map(|e| self.edge_weight(e)));
        skipper.set_histograms(self.hist.is_some());
        self.sparse = Some(skipper);
        self.noop_run = 0;
        self.telemetry.sparse_enters += 1;
    }

    /// Drop the sparse skipper (activity recovered), harvesting its
    /// telemetry first so no counters are lost with the phase.
    fn exit_sparse(&mut self) {
        if let Some(mut s) = self.sparse.take() {
            self.telemetry.sparse.absorb(s.take_stats());
            if let (Some(h), Some(sh)) = (&mut self.hist, s.histograms()) {
                h.merge(sh);
            }
            self.telemetry.sparse_exits += 1;
        }
        self.noop_run = 0;
    }

    /// Sparse-phase advancement: apply up to `limit` effective events
    /// (each preceded by its exact geometric no-op skip) before returning,
    /// charging the interaction clock once for the whole block. Stops
    /// early at the horizon, at silence (the clock stops *at* the
    /// silencing event, with no trailing skips drawn), or when activity
    /// recovers past the hysteresis threshold — the checks the caller
    /// makes before the next call, so a block draws exactly what `limit`
    /// one-event calls would. Returns (interactions advanced, whether the
    /// counts changed). Precondition: skipper live, `W > 0`, `max > 0`.
    fn sparse_block(&mut self, rng: &mut SimRng, max: u64, limit: u64) -> (u64, bool) {
        let mut advanced = 0u64;
        let mut events = 0u64;
        while events < limit && advanced < max {
            let sparse = self.sparse.as_mut().expect("sparse block without skipper");
            if sparse.total() == 0 || sparse.should_exit_to_dense() {
                break;
            }
            let e = match sparse.next_event(rng, max - advanced) {
                SparseStep::Horizon => {
                    advanced = max;
                    break;
                }
                SparseStep::Event { consumed, edge } => {
                    advanced += consumed;
                    edge
                }
            };
            let (a, b) = self.adjacency.endpoints(e);
            let sa = self.states[a as usize].unpack();
            let sb = self.states[b as usize].unpack();
            let (i, j) = orient_event(
                rng,
                a as usize,
                b as usize,
                !self.noop[sa * self.k + sb],
                !self.noop[sb * self.k + sa],
            );
            let changed = self.apply_oriented(i, j);
            debug_assert!(changed, "sampled active orientation was a no-op");
            events += 1;
            self.sparse
                .as_mut()
                .expect("sparse block without skipper")
                .end_event();
        }
        self.interactions += advanced;
        self.telemetry.scheduled += advanced;
        (advanced, events > 0)
    }

    /// Per-event dense phase: literal draws through
    /// [`step`](Self::step) until the first effective one, the horizon
    /// `max`, or the no-op trigger. Returns `(advanced, changed, trigger)`
    /// like [`chunk_scan`](Self::chunk_scan).
    fn step_scan(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool, bool) {
        let t0 = self.telemetry.clock.start();
        let mut advanced = 0u64;
        let (mut changed, mut trigger) = (false, false);
        while advanced < max && !changed && !trigger {
            advanced += 1;
            if self.step(rng) {
                if let Some(h) = &mut self.hist {
                    h.skip_len.add_u64(self.noop_run as u64);
                }
                self.noop_run = 0;
                changed = true;
            } else {
                self.noop_run += 1;
                trigger = self.noop_run >= SPARSE_TRIGGER_NOOPS;
            }
        }
        self.telemetry.spans.dense_ns += self.telemetry.clock.elapsed_ns(t0);
        (advanced, changed, trigger)
    }

    /// Scan one pre-generated chunk of at most `max` scheduled draws,
    /// capped so the no-op trigger can fire only on its last draw (see the
    /// module docs). Returns `(advanced, changed, trigger)` where
    /// `trigger` reports that the consecutive-no-op escalation fired (the
    /// caller builds the sparse skipper).
    fn chunk_scan(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool, bool) {
        debug_assert!(max > 0);
        debug_assert!(self.sparse.is_none(), "chunk scan with a live skipper");
        let m2 = 2 * self.num_edges() as u64;
        let k = self.k;
        let want = (self.chunk as u64)
            .min(max)
            .min(u64::from(SPARSE_TRIGGER_NOOPS - self.noop_run)) as usize;
        self.telemetry.blocks += 1;
        self.telemetry.block_draws += want as u64;
        self.telemetry.pair_draws += want as u64;
        let t_chunk = self.telemetry.clock.start();
        let t_gather = self.telemetry.clock.start();
        // The buffers move out of `self` for the passes so the tight loops
        // borrow disjoint data (no `&mut self` aliasing, no re-loads).
        let mut draws = std::mem::take(&mut self.draws);
        let mut ends = std::mem::take(&mut self.ends);
        let mut pair_states = std::mem::take(&mut self.pair_states);
        // Pass 1: raw scheduled draws — pure RNG, no memory traffic. One
        // below() per interaction carries the orientation in its low bit.
        draws.clear();
        for _ in 0..want {
            draws.push(rng.below(m2));
        }
        // Pass 2: the oriented endpoints — independent loads from a stored
        // edge list, or pure index arithmetic on an implicit lattice. The
        // form is matched once here, so each arm is a monomorphic loop.
        match &self.adjacency {
            Adjacency::Stored(csr) => gather_ends(&draws, &mut ends, |e| csr.endpoints(e)),
            Adjacency::Torus(t) => gather_ends(&draws, &mut ends, |e| t.endpoints(e)),
            Adjacency::Cycle(c) => gather_ends(&draws, &mut ends, |e| c.endpoints(e)),
        }
        // Pass 3: gather block-start endpoint states (independent loads).
        pair_states.clear();
        for &(a, b) in &ends {
            pair_states.push((self.states[a as usize], self.states[b as usize]));
        }
        self.telemetry.spans.gather_ns += self.telemetry.clock.elapsed_ns(t_gather);
        let t_apply = self.telemetry.clock.start();
        // Pass 4: the matching scan, in schedule order. Everything the
        // loop touches is a local or a disjoint field borrow — per-draw
        // `&mut self` method calls would force the compiler to reload
        // fields on every iteration.
        let mut states = std::mem::take(&mut self.states);
        let mut bitmap = std::mem::take(&mut self.bitmap);
        let mut dirty_list = std::mem::take(&mut self.dirty_list);
        let mut block_events = std::mem::take(&mut self.block_events);
        let mut hist = std::mem::take(&mut self.hist);
        block_events.clear();
        let bit_mask = self.bit_mask;
        let noop = &self.noop;
        let table = &self.table;
        let counts = &mut self.counts;
        let mut effective = 0u64;
        let mut noop_run = self.noop_run;
        let mut advanced = 0u64;
        let mut changed = false;
        // Clock value (within this scan) of the last effective interaction,
        // for the silence rewind below.
        let mut last_change = 0u64;
        let mut trigger = false;
        let mut fallback = 0u64;
        for idx in 0..want {
            let (iv, jv) = ends[idx];
            advanced += 1;
            let ha = iv as usize & bit_mask;
            let hb = jv as usize & bit_mask;
            let was_dirty =
                ((bitmap[ha >> 6] >> (ha & 63)) | (bitmap[hb >> 6] >> (hb & 63))) & 1 == 1;
            let (si, sj) = if was_dirty {
                // A dirty (or hash-colliding) endpoint: gathered states may
                // be stale. All earlier interactions are already applied,
                // so simulate this draw literally from re-read current
                // states — the exact fallback.
                (states[iv as usize], states[jv as usize])
            } else {
                // Clean draw: the gathered chunk-start states are current.
                pair_states[idx]
            };
            let cell = si.unpack() * k + sj.unpack();
            if noop[cell] {
                noop_run += 1;
                if noop_run >= SPARSE_TRIGGER_NOOPS {
                    // Only ever on the chunk's last draw (the cap above).
                    debug_assert_eq!(idx + 1, want, "trigger before the chunk's end");
                    trigger = true;
                    break;
                }
                continue;
            }
            // Apply the transition and mark both endpoints dirty, so later
            // draws of the chunk reject their stale gathered states.
            let (ti, tj) = table[cell];
            states[iv as usize] = ti;
            states[jv as usize] = tj;
            counts[si.unpack()] -= 1;
            counts[sj.unpack()] -= 1;
            counts[ti.unpack()] += 1;
            counts[tj.unpack()] += 1;
            effective += 1;
            bitmap[ha >> 6] |= 1 << (ha & 63);
            bitmap[hb >> 6] |= 1 << (hb & 63);
            dirty_list.push(iv);
            dirty_list.push(jv);
            if let Some(h) = hist.as_deref_mut() {
                // The literally-counted no-op run before this effective
                // draw — the quantity the sparse phase samples
                // geometrically.
                h.skip_len.add_u64(noop_run as u64);
            }
            noop_run = 0;
            changed = true;
            last_change = advanced;
            if !was_dirty {
                // Only clean applications belong to the block's matching —
                // a fallback draw may legitimately reuse a matched vertex.
                block_events.push((iv, jv));
            } else {
                fallback += 1;
            }
        }
        self.telemetry.block_applied += block_events.len() as u64;
        self.telemetry.fallback_literal += fallback;
        if let Some(h) = hist.as_deref_mut() {
            h.block_size.add_u64(block_events.len() as u64);
            h.fallback_run.add_u64(fallback);
        }
        self.hist = hist;
        self.telemetry.spans.apply_ns += self.telemetry.clock.elapsed_ns(t_apply);
        self.states = states;
        self.bitmap = bitmap;
        self.dirty_list = dirty_list;
        self.block_events = block_events;
        self.noop_run = noop_run;
        self.effective_interactions += effective;
        self.telemetry.effective += effective;
        self.draws = draws;
        self.ends = ends;
        self.pair_states = pair_states;
        self.clear_chunk();
        self.interactions += advanced;
        self.telemetry.scheduled += advanced;
        // Silence rewind: if the chunk's last effective interaction
        // silenced the configuration, its trailing draws are provably
        // no-ops that postdate silence; drop them from the clock so the
        // stabilization convention (clock stops at silence) matches the
        // per-event engines exactly. The telemetry mirror follows the
        // rewind too — `scheduled` stays identical to `interactions()`.
        if changed && advanced > last_change && self.is_silent() {
            self.interactions -= advanced - last_change;
            self.telemetry.scheduled -= advanced - last_change;
            advanced = last_change;
        }
        self.telemetry.spans.dense_ns += self.telemetry.clock.elapsed_ns(t_chunk);
        (advanced, changed, trigger)
    }

    fn advance_changed_impl(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        if max == 0 {
            return (0, false);
        }
        let mut advanced = 0u64;
        let mut changed = false;
        loop {
            if let Some(s) = &self.sparse {
                if s.total() == 0 {
                    // Silent: nothing can ever change. Stop the clock
                    // instead of charging the horizon, so stabilization
                    // times report when silence was *reached* — drivers
                    // treat a short advancement as termination and confirm
                    // via `is_silent`, which is exact here.
                    return (advanced, changed);
                }
                if s.should_exit_to_dense() {
                    // Activity recovered: hand back to the dense phase.
                    self.exit_sparse();
                } else {
                    let limit = if self.per_event {
                        1
                    } else {
                        SPARSE_BLOCK_EVENTS
                    };
                    let t0 = self.telemetry.clock.start();
                    let (leapt, ch) = self.sparse_block(rng, max - advanced, limit);
                    self.telemetry.spans.sparse_ns += self.telemetry.clock.elapsed_ns(t0);
                    return (advanced + leapt, changed || ch);
                }
            }
            let (leapt, ch, trigger) = if self.per_event {
                self.step_scan(rng, max - advanced)
            } else {
                self.chunk_scan(rng, max - advanced)
            };
            advanced += leapt;
            changed |= ch;
            if trigger {
                // Collapsed activity certified by the no-op run: escalate
                // to the sparse skipper. If the blocks already changed the
                // counts, return so drivers re-evaluate their predicates
                // first.
                self.enter_sparse();
                if changed || advanced >= max {
                    return (advanced, changed);
                }
            } else if ch || advanced >= max {
                return (advanced, changed);
            }
            // All-no-op chunk without a trigger yet: keep scanning so the
            // escalation (or the horizon) is reached within this call.
        }
    }
}

/// Pass 2 of a chunk: the oriented endpoints of each raw draw (edge
/// `v >> 1`, swapped when the low bit is set). The orientation select is
/// branchless (a 50/50 branch here would mispredict every other draw).
#[inline(always)]
fn gather_ends(draws: &[u64], ends: &mut Vec<(u32, u32)>, endpoints: impl Fn(usize) -> (u32, u32)) {
    ends.clear();
    for &v in draws {
        let (a, b) = endpoints((v >> 1) as usize);
        let swap = 0u32.wrapping_sub((v & 1) as u32) & (a ^ b);
        ends.push((a ^ swap, b ^ swap));
    }
}

impl<P: Protocol> BatchGraphSimulator<P> {
    /// Create from explicit per-agent states (dense indices) with the
    /// default one-byte packing. The graph must have at least one edge and
    /// as many vertices as there are states; protocols with more than 256
    /// states construct through the [`WideBatchGraphSimulator`] alias
    /// instead (`make_topology_simulator` routes on `k` automatically).
    pub fn new(protocol: P, graph: &Graph, states: Vec<usize>) -> Self {
        Self::with_states(protocol, graph, states)
    }
}

impl<P: Protocol, S: StateWord> Simulator for BatchGraphSimulator<P, S> {
    fn population(&self) -> u64 {
        self.states.len() as u64
    }

    fn num_states(&self) -> usize {
        self.k
    }

    fn counts(&self) -> &[u64] {
        &self.counts
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    /// Simulate exactly one scheduled interaction (uniform edge, uniform
    /// orientation — the literal scheduler law); returns whether it changed
    /// the configuration.
    fn step(&mut self, rng: &mut SimRng) -> bool {
        self.interactions += 1;
        self.telemetry.scheduled += 1;
        self.telemetry.dense_steps += 1;
        self.telemetry.pair_draws += 1;
        let v = rng.below(2 * self.num_edges() as u64);
        let (a, b) = self.adjacency.endpoints((v >> 1) as usize);
        let (i, j) = if v & 1 == 0 {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        };
        self.apply_oriented(i, j)
    }

    /// Advance by at most `max` interactions using the cheapest exact
    /// mechanism for the current activity level (the dense phase or the
    /// sparse skipper), returning at the policy's granularity. Returns
    /// interactions advanced and whether the counts changed. Once silence
    /// is *certified* (sparse phase, `W = 0`) the clock stops: further
    /// calls return `(0, false)`. In the dense phase a
    /// silent-but-uncertified configuration still draws genuine scheduled
    /// no-ops until the no-op-run trigger escalates and certifies it, so
    /// the first call on such a configuration can advance the clock by up
    /// to `SPARSE_TRIGGER_NOOPS` interactions — drivers check
    /// `is_silent()` before advancing, which both `run_until` and the
    /// stabilization entry points do.
    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let out = self.advance_changed_impl(rng, max);
        // Harvest the skipper's telemetry at every advancement boundary so
        // the engine's totals are current even while the sparse phase is
        // live (runs routinely *end* inside it).
        if let Some(s) = &mut self.sparse {
            self.telemetry.sparse.absorb(s.take_stats());
        }
        out
    }

    /// Whether the configuration is silent *for this graph* (`W = 0`).
    /// Sparse phase: exact. Dense phase: the sufficient count-level
    /// criterion (clique silence implies graph silence); a frozen
    /// configuration on a disconnected graph is caught by the no-op-run
    /// escalation instead (see the module docs).
    fn is_silent(&self) -> bool {
        match &self.sparse {
            Some(s) => s.total() == 0,
            None => self.protocol.is_silent(&self.counts),
        }
    }

    fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    fn set_span_timing(&mut self, enabled: bool) {
        self.telemetry.clock.enabled = enabled;
    }

    fn set_histograms(&mut self, enabled: bool) {
        self.hist = if enabled {
            Some(Box::new(EventHistograms::new()))
        } else {
            None
        };
        if let Some(s) = &mut self.sparse {
            s.set_histograms(enabled);
        }
    }

    fn histograms(&self) -> Option<EventHistograms> {
        let mut h = self.hist.as_deref()?.clone();
        if let Some(sh) = self.sparse.as_ref().and_then(|s| s.histograms()) {
            h.merge(sh);
        }
        Some(h)
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        // Graph structure, transition tables, the policy, and the
        // chunk/bitmap scratch are constructor-derived (the scratch buffers
        // are empty between advancements — chunk_scan always clears them);
        // the mutable state is the packed agent states, clocks, no-op run,
        // and the skipper (whose ordered pool is validated against the
        // states on restore). Both policies write the same payload.
        let tag = if S::LIMIT <= 256 {
            snapshot_tags::BATCH_GRAPH
        } else {
            snapshot_tags::WIDE_BATCH_GRAPH
        };
        w.put_u8(tag);
        snapshot_tags::write_config(w, self.states.len() as u64, self.k);
        w.put_u64(self.states.len() as u64);
        for &s in &self.states {
            w.put_u32(s.unpack() as u32);
        }
        w.put_u64(self.interactions);
        w.put_u64(self.effective_interactions);
        w.put_u32(self.noop_run);
        self.telemetry.write_snapshot(w);
        match &self.hist {
            Some(h) => {
                w.put_bool(true);
                h.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
        match &self.sparse {
            Some(s) => {
                w.put_bool(true);
                s.write_snapshot(w);
            }
            None => w.put_bool(false),
        }
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        let tag = if S::LIMIT <= 256 {
            snapshot_tags::BATCH_GRAPH
        } else {
            snapshot_tags::WIDE_BATCH_GRAPH
        };
        snapshot_tags::expect(r, tag, snapshot_tags::name(tag))?;
        snapshot_tags::expect_config(r, self.states.len() as u64, self.k)?;
        let count = r.get_u64()? as usize;
        if count != self.states.len() {
            return Err(CheckpointError::Corrupt(format!(
                "batchgraph snapshot has {count} agents (engine has {})",
                self.states.len()
            )));
        }
        let mut states = Vec::with_capacity(count);
        let mut counts = vec![0u64; self.k];
        for _ in 0..count {
            let s = r.get_u32()? as usize;
            if s >= self.k {
                return Err(CheckpointError::Corrupt(format!(
                    "agent state index {s} out of range ({} states)",
                    self.k
                )));
            }
            counts[s] += 1;
            states.push(S::pack(s));
        }
        let interactions = r.get_u64()?;
        let effective_interactions = r.get_u64()?;
        let noop_run = r.get_u32()?;
        // Every advancement ends below the trigger (reaching it enters the
        // sparse phase and resets the run); a larger value would underflow
        // the chunk cap.
        if noop_run >= SPARSE_TRIGGER_NOOPS {
            return Err(CheckpointError::Corrupt(format!(
                "no-op run {noop_run} is not below the sparse trigger {SPARSE_TRIGGER_NOOPS}"
            )));
        }
        let telemetry = EngineTelemetry::read_snapshot(r)?;
        let hist = if r.get_bool()? {
            Some(Box::new(EventHistograms::read_snapshot(r)?))
        } else {
            None
        };
        self.states = states;
        self.counts = counts;
        let sparse = if r.get_bool()? {
            let truth: Vec<u64> = (0..self.num_edges()).map(|e| self.edge_weight(e)).collect();
            Some(SparseSkipper::read_snapshot(&truth, r)?)
        } else {
            None
        };
        self.interactions = interactions;
        self.effective_interactions = effective_interactions;
        self.noop_run = noop_run;
        self.telemetry = telemetry;
        self.hist = hist;
        self.sparse = sparse;
        self.block_events.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CountConfig;
    use crate::protocol::OneWayEpidemic;
    use crate::scheduler::GraphScheduler;
    use crate::simulator::shuffled_layout;

    fn epidemic_on(graph: &Graph, infected: usize) -> BatchGraphSimulator<OneWayEpidemic> {
        let mut states = vec![1usize; graph.n()];
        for s in states.iter_mut().take(infected) {
            *s = 0;
        }
        BatchGraphSimulator::new(OneWayEpidemic, graph, states)
    }

    /// `sim` under both policies: block first, then per-event.
    fn both<P: Protocol + Clone>(sim: BatchGraphSimulator<P>) -> [BatchGraphSimulator<P>; 2] {
        [sim.clone(), sim.per_event()]
    }

    fn policy<P: Protocol>(sim: &BatchGraphSimulator<P>) -> &'static str {
        if sim.per_event {
            "per-event"
        } else {
            "block"
        }
    }

    /// Every boundary of a run to silence that changed the counts:
    /// `(clock, counts)`.
    fn boundaries<P: Protocol>(
        sim: &mut BatchGraphSimulator<P>,
        rng: &mut SimRng,
    ) -> Vec<(u64, Vec<u64>)> {
        let mut path = Vec::new();
        while !sim.is_silent() {
            let (advanced, changed) = sim.advance_changed(rng, u64::MAX / 2);
            if changed {
                path.push((sim.interactions(), sim.counts().to_vec()));
            }
            if advanced == 0 {
                break;
            }
        }
        path
    }

    #[test]
    fn initial_active_weight_counts_boundary_orientations() {
        // Path 0-1-2-3 with agent 0 infected: only edge (0,1) is active,
        // in both orientations (epidemic is symmetric in effect).
        let g = Graph::path(4);
        for sim in both(epidemic_on(&g, 1)) {
            assert_eq!(sim.active_weight(), 2, "{}", policy(&sim));
            assert!(!sim.is_silent());
        }
    }

    #[test]
    fn epidemic_on_cycle_completes_and_counts_events() {
        let g = Graph::cycle(50);
        for mut sim in both(epidemic_on(&g, 1)) {
            let mut rng = SimRng::new(1);
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
            }
            assert_eq!(sim.counts(), &[50, 0]);
            // One infection per susceptible agent.
            assert_eq!(sim.effective_interactions(), 49);
            assert_eq!(sim.active_weight(), 0);
        }
    }

    /// Under one seed the two policies apply the same draws in the same
    /// order: equal final clocks and counts, every per-event advancement
    /// one event, and every block boundary showing the per-event path's
    /// counts at the last event at or before its clock. Covers the dense
    /// matching regime, the sparse skipper, and the hand-off between them.
    #[test]
    fn policies_run_bit_identical_trajectories() {
        let mut patch = vec![1usize; 32 * 32];
        for row in patch.chunks_mut(32).take(6) {
            row[..6].fill(0);
        }
        let instances = [
            ("cycle 2048", Graph::cycle(2_048), {
                let mut s = vec![1usize; 2_048];
                s[0] = 0;
                s
            }),
            ("grid 6x6", Graph::grid(6, 6), {
                let mut s = vec![1usize; 36];
                s[..2].fill(0);
                s
            }),
            ("torus 32x32 patch", Graph::torus(32), patch),
            (
                "regular:8 4096",
                crate::topology::TopologyFamily::Regular { d: 8 }.build(4_096, 3),
                (0..4_096).map(|v| (v % 3 == 0) as usize).collect(),
            ),
        ];
        for (label, g, states) in instances {
            let sim = BatchGraphSimulator::new(OneWayEpidemic, &g, states);
            for seed in 0..20 {
                let [mut block, mut event] = both(sim.clone());
                let block_path = boundaries(&mut block, &mut SimRng::new(seed));
                let event_path = boundaries(&mut event, &mut SimRng::new(seed));
                let what = format!("{label}, seed {seed}");
                assert_eq!(block.interactions(), event.interactions(), "{what}");
                assert_eq!(block.counts(), event.counts(), "{what}");
                assert_eq!(event_path.len() as u64, event.effective_interactions());
                assert_eq!(
                    block.effective_interactions(),
                    event.effective_interactions(),
                    "{what}"
                );
                for (clock, counts) in &block_path {
                    let at = event_path.partition_point(|(c, _)| c <= clock);
                    assert!(at > 0, "{what}: block boundary {clock} before any event");
                    assert_eq!(&event_path[at - 1].1, counts, "{what}: clock {clock}");
                }
            }
        }
    }

    #[test]
    fn step_matches_scheduler_law_on_interaction_counts() {
        // Driving with single steps must give the same infection law as an
        // AgentSimulator over the same GraphScheduler (here: compare mean
        // completion interactions on a small cycle).
        let reps = 200u64;
        let mut step_mean = 0.0;
        let mut agentwise_mean = 0.0;
        for seed in 0..reps {
            let g = Graph::cycle(16);
            let mut sim = epidemic_on(&g, 1).per_event();
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.step(&mut rng);
            }
            step_mean += sim.interactions() as f64;

            let mut states = vec![1usize; 16];
            states[0] = 0;
            let mut reference = crate::simulator::AgentSimulator::new(
                OneWayEpidemic,
                GraphScheduler::new(g),
                states,
            );
            let mut rng = SimRng::new(seed + 10_000);
            while reference.counts()[0] < 16 {
                reference.step(&mut rng);
            }
            agentwise_mean += reference.interactions() as f64;
        }
        step_mean /= reps as f64;
        agentwise_mean /= reps as f64;
        let rel = (step_mean - agentwise_mean).abs() / agentwise_mean;
        assert!(rel < 0.06, "step {step_mean} vs agentwise {agentwise_mean}");
    }

    #[test]
    fn advance_clock_matches_single_step_clock_in_distribution() {
        // Block leaping and the per-event policy's geometric skips must
        // preserve the total-interaction law: compare mean completion
        // interactions via advance_changed() and via step().
        let reps = 300u64;
        let mut advance_mean = [0.0f64; 2];
        let mut step_mean = 0.0;
        for seed in 0..reps {
            let g = Graph::cycle(24);
            for (slot, mut sim) in both(epidemic_on(&g, 1)).into_iter().enumerate() {
                let mut rng = SimRng::new(seed);
                while !sim.is_silent() {
                    sim.advance_changed(&mut rng, u64::MAX / 2);
                }
                advance_mean[slot] += sim.interactions() as f64;
            }

            let mut sim = epidemic_on(&g, 1);
            let mut rng = SimRng::new(seed + 777_777);
            while !sim.is_silent() {
                sim.step(&mut rng);
            }
            step_mean += sim.interactions() as f64;
        }
        step_mean /= reps as f64;
        for mean in advance_mean {
            let mean = mean / reps as f64;
            let rel = (mean - step_mean).abs() / step_mean;
            assert!(rel < 0.06, "advance {mean} vs step {step_mean}");
        }
    }

    #[test]
    fn blocks_are_matchings_of_active_edges() {
        // The structural invariant behind the leap: every recorded block
        // is a set of vertex-disjoint edges, each active at block start.
        let g = crate::topology::TopologyFamily::Regular { d: 8 }.build(4_096, 3);
        let mut states = vec![1usize; 4_096];
        for s in states.iter_mut().take(2_048) {
            *s = 0;
        }
        let mut sim = BatchGraphSimulator::new(OneWayEpidemic, &g, states);
        let mut rng = SimRng::new(9);
        let mut blocks_seen = 0u64;
        while !sim.is_silent() && blocks_seen < 400 {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            let block = sim.last_block_matching();
            if block.is_empty() {
                continue;
            }
            blocks_seen += 1;
            let mut seen = std::collections::HashSet::new();
            for &(a, b) in block {
                assert!(seen.insert(a), "vertex {a} appears twice in a block");
                assert!(seen.insert(b), "vertex {b} appears twice in a block");
            }
        }
        assert!(blocks_seen > 50, "only {blocks_seen} nonempty blocks");
    }

    #[test]
    fn advance_respects_max_and_truncates_exactly() {
        let g = Graph::cycle(1000);
        for mut sim in both(epidemic_on(&g, 1)) {
            let mut rng = SimRng::new(3);
            for max in [1u64, 7, 100, 10_000] {
                let before = sim.interactions();
                let (advanced, _) = sim.advance_changed(&mut rng, max);
                assert!(advanced >= 1 && advanced <= max, "advanced {advanced}");
                assert_eq!(sim.interactions() - before, advanced);
            }
        }
    }

    #[test]
    fn silent_configuration_stops_the_clock() {
        let g = Graph::cycle(10);
        // Everyone infected: silent.
        for mut sim in both(epidemic_on(&g, 10)) {
            assert!(sim.is_silent());
            let mut rng = SimRng::new(4);
            // The dense phase draws genuine (no-op) scheduled interactions
            // until the trigger certifies silence; after that the clock
            // stops for good, so repeated calls cannot inflate
            // stabilization times.
            let (first, changed) = sim.advance_changed(&mut rng, 5_000);
            assert!(!changed);
            assert!(first <= 5_000);
            let clock = sim.interactions();
            let (second, changed) = sim.advance_changed(&mut rng, 5_000);
            assert_eq!((second, changed), (0, false), "{}", policy(&sim));
            assert_eq!(sim.interactions(), clock);
            assert_eq!(sim.effective_interactions(), 0);
        }
    }

    #[test]
    fn disconnected_graph_freezes_with_mixed_counts() {
        // Two components, infection only in one: the run must go silent
        // with susceptibles remaining — the graph notion of silence.
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        for mut sim in both(epidemic_on(&g, 1)) {
            let mut rng = SimRng::new(5);
            let mut guard = 0;
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
                guard += 1;
                assert!(guard < 100, "{}", policy(&sim));
            }
            assert_eq!(sim.counts(), &[2, 2]);
        }
    }

    #[test]
    fn population_and_counts_conserved_across_blocks() {
        let g = crate::topology::TopologyFamily::Regular { d: 4 }.build(1_024, 1);
        for mut sim in both(epidemic_on(&g, 16)) {
            let mut rng = SimRng::new(6);
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
                assert_eq!(sim.counts().iter().sum::<u64>(), 1_024);
                let mut recount = vec![0u64; 2];
                for v in 0..1_024 {
                    recount[sim.state_of_agent(v)] += 1;
                }
                assert_eq!(recount, sim.counts(), "states out of sync with counts");
            }
            assert_eq!(sim.effective_interactions(), 1_024 - 16);
        }
    }

    #[test]
    fn bitmap_is_fully_cleared_between_advancements() {
        // After any advancement the dirty map must be empty — a leaked bit
        // would silently shorten every later block.
        let g = crate::topology::TopologyFamily::Regular { d: 8 }.build(2_048, 2);
        let mut states = vec![0usize; 2_048];
        for s in states.iter_mut().take(1_024) {
            *s = 1;
        }
        let mut sim = BatchGraphSimulator::new(OneWayEpidemic, &g, states);
        let mut rng = SimRng::new(8);
        for _ in 0..50 {
            if sim.is_silent() {
                break;
            }
            sim.advance_changed(&mut rng, 10_000);
            assert!(
                sim.bitmap.iter().all(|&w| w == 0),
                "dirty bits leaked across blocks"
            );
        }
    }

    #[test]
    fn sparse_phase_invariants_hold_across_advancements() {
        // Drive a no-op-dominated instance (an epidemic frontier creeping
        // around a large cycle: W ≤ 4 of 2m orientations) so the run lives
        // in the sparse skipper, and verify the pool invariants after every
        // advancement — after every event under the per-event policy.
        let g = Graph::cycle(2_048);
        for mut sim in both(epidemic_on(&g, 1)) {
            let mut rng = SimRng::new(11);
            let mut sparse_advancements = 0u32;
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
                sim.validate_sparse_invariants().unwrap();
                if sim.sparse.is_some() {
                    sparse_advancements += 1;
                }
            }
            // The block policy leaps ~64 events per sparse advancement,
            // so a 2047-event epidemic crosses it tens of times; the
            // per-event policy checks nearly every event.
            let want = if sim.per_event { 1_500 } else { 10 };
            assert!(
                sparse_advancements > want,
                "{}: only {sparse_advancements} sparse advancements exercised",
                policy(&sim)
            );
        }
    }

    /// A k-state one-way "maximum spreads" protocol for exercising wide
    /// alphabets: the responder adopts the larger of the two values.
    /// Consensus on the global maximum is the unique silent outcome on a
    /// connected graph.
    #[derive(Debug, Clone, Copy)]
    struct MaxConsensus {
        k: usize,
    }

    impl crate::protocol::Protocol for MaxConsensus {
        type State = usize;
        type Output = usize;

        fn num_states(&self) -> usize {
            self.k
        }

        fn index_of(&self, state: usize) -> usize {
            state
        }

        fn state_of(&self, index: usize) -> usize {
            assert!(index < self.k);
            index
        }

        fn transition(&self, a: usize, b: usize) -> (usize, usize) {
            (a.max(b), a.max(b))
        }

        fn output(&self, state: usize) -> usize {
            state
        }
    }

    #[test]
    fn wide_engine_runs_k_300_to_consensus() {
        // The u16 fallback lifts the one-byte alphabet cap: k = 300 states
        // on a torus, stabilizing to consensus on the maximum.
        let proto = MaxConsensus { k: 300 };
        let g = crate::topology::TopologyFamily::Torus.build(256, 2);
        let states: Vec<usize> = (0..256).map(|v| (v * 7) % 300).collect();
        let expect_max = states.iter().copied().max().unwrap();
        let mut sim: WideBatchGraphSimulator<MaxConsensus> =
            WideBatchGraphSimulator::with_states(proto, &g, states);
        let mut rng = SimRng::new(21);
        let mut guard = 0u32;
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            sim.validate_sparse_invariants().unwrap();
            guard += 1;
            assert!(guard < 100_000, "k = 300 run did not stabilize");
        }
        assert_eq!(sim.counts()[expect_max], 256, "consensus on the maximum");
        assert_eq!(sim.counts().iter().sum::<u64>(), 256);
    }

    #[test]
    fn wide_and_narrow_engines_agree_in_distribution() {
        // For a small alphabet the two packings must be the same engine:
        // identical seeds give identical trajectories.
        let g = Graph::cycle(64);
        let mut states = vec![1usize; 64];
        states[0] = 0;
        let mut narrow = BatchGraphSimulator::new(OneWayEpidemic, &g, states.clone());
        let mut wide: WideBatchGraphSimulator<OneWayEpidemic> =
            WideBatchGraphSimulator::with_states(OneWayEpidemic, &g, states);
        let mut rng_a = SimRng::new(31);
        let mut rng_b = SimRng::new(31);
        while !narrow.is_silent() {
            narrow.advance_changed(&mut rng_a, u64::MAX / 2);
        }
        while !wide.is_silent() {
            wide.advance_changed(&mut rng_b, u64::MAX / 2);
        }
        assert_eq!(narrow.interactions(), wide.interactions());
        assert_eq!(
            narrow.effective_interactions(),
            wide.effective_interactions()
        );
        assert_eq!(narrow.counts(), wide.counts());
    }

    #[test]
    fn telemetry_mirrors_clocks_across_phases_and_the_silence_rewind() {
        // A cycle epidemic crosses dense blocks, the silence rewind, and a
        // long sparse phase; the telemetry mirrors must track the clocks
        // exactly through all of it — including the rewind, which
        // *subtracts* trailing post-silence draws from both.
        let g = Graph::cycle(2_048);
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(41);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        let t = sim.telemetry();
        assert_eq!(t.scheduled, sim.interactions());
        assert_eq!(t.effective, sim.effective_interactions());
        assert!(t.blocks >= 1, "no dense blocks scanned");
        assert!(t.block_draws >= t.blocks, "blocks without draws");
        assert!(t.sparse_enters >= 1, "never escalated to sparse");
        assert!(t.sparse.events > 0, "skipper stats were not harvested");
        // Every effective interaction is a clean block application, a
        // dirty literal fallback, or a sparse-phase event.
        assert_eq!(
            t.block_applied + t.fallback_literal + t.sparse.events,
            t.effective
        );
        // Span timing is off by default: no clock reads, zero spans.
        assert_eq!(t.spans, crate::telemetry::SpanSet::new());
    }

    #[test]
    fn per_event_telemetry_mirrors_clocks_and_harvests_the_sparse_phase() {
        // A creeping frontier spends nearly the whole run inside the
        // sparse skipper; the telemetry must mirror the interaction clocks
        // exactly and must have harvested the skipper's counters even
        // though the run *ends* while the sparse phase is live. The
        // per-event dense phase steps literally: no blocks.
        let g = Graph::cycle(1_024);
        let mut sim = epidemic_on(&g, 1).per_event();
        let mut rng = SimRng::new(21);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        let t = sim.telemetry();
        assert_eq!(t.scheduled, sim.interactions());
        assert_eq!(t.effective, sim.effective_interactions());
        assert!(t.sparse_enters >= 1, "never escalated to sparse");
        assert!(t.sparse.events > 0, "skipper stats were not harvested");
        assert_eq!(t.sparse.event_draws, t.sparse.events);
        assert!(t.sparse.updates_immediate > 0);
        assert_eq!((t.blocks, t.block_draws), (0, 0));
        assert_eq!(t.dense_steps, t.pair_draws, "every dense draw is a step");
        assert!(t.dense_steps >= u64::from(SPARSE_TRIGGER_NOOPS));
        assert_eq!(t.spans, crate::telemetry::SpanSet::new());
    }

    #[test]
    fn telemetry_block_accounting_matches_on_an_effective_dominated_run() {
        // An expander bulk phase is where the matching engine lives: most
        // applications must be clean (block matching), with the literal
        // fallback a small minority, and the identity with `effective`
        // must hold exactly.
        let g = crate::topology::TopologyFamily::Regular { d: 8 }.build(4_096, 7);
        let mut states = vec![1usize; 4_096];
        for s in states.iter_mut().take(2_048) {
            *s = 0;
        }
        let mut sim = BatchGraphSimulator::new(OneWayEpidemic, &g, states);
        let mut rng = SimRng::new(43);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        let t = sim.telemetry();
        assert_eq!(t.scheduled, sim.interactions());
        assert_eq!(t.effective, sim.effective_interactions());
        assert_eq!(
            t.block_applied + t.fallback_literal + t.sparse.events,
            t.effective
        );
        assert!(t.block_applied > 0, "no clean matching applications");
        assert!(
            t.block_applied > t.fallback_literal,
            "matching rejected more than it applied: {} clean vs {} fallback",
            t.block_applied,
            t.fallback_literal
        );
        assert_eq!(t.pair_draws, t.block_draws, "all draws come from blocks");
    }

    /// A payload with the no-op run at the trigger is corrupt: every
    /// advancement ends below it, and restoring it would underflow the
    /// chunk cap. One below the trigger restores.
    #[test]
    fn restore_rejects_a_noop_run_at_the_trigger() {
        let g = Graph::cycle(8);
        let payload = |noop_run: u32| {
            let mut w = SnapshotWriter::new();
            w.put_u8(snapshot_tags::BATCH_GRAPH);
            snapshot_tags::write_config(&mut w, 8, 2);
            w.put_u64(8);
            for _ in 0..8 {
                w.put_u32(1);
            }
            w.put_u64(5_000); // interactions
            w.put_u64(0); // effective
            w.put_u32(noop_run);
            EngineTelemetry::new().write_snapshot(&mut w);
            w.put_bool(false); // no histograms
            w.put_bool(false); // no skipper
            w.into_bytes()
        };
        for mut sim in both(epidemic_on(&g, 0)) {
            let bytes = payload(SPARSE_TRIGGER_NOOPS);
            let err = sim.restore_state(&mut SnapshotReader::new(&bytes));
            assert!(
                matches!(&err, Err(CheckpointError::Corrupt(m)) if m.contains("sparse trigger")),
                "{err:?}"
            );
            let bytes = payload(SPARSE_TRIGGER_NOOPS - 1);
            sim.restore_state(&mut SnapshotReader::new(&bytes)).unwrap();
            assert_eq!(sim.interactions(), 5_000);
            // One more no-op draw reaches the trigger and certifies silence.
            let mut rng = SimRng::new(1);
            assert_eq!(sim.advance_changed(&mut rng, 10), (1, false));
            assert!(sim.sparse.is_some() && sim.is_silent(), "{}", policy(&sim));
        }
    }

    #[test]
    fn trait_object_usable() {
        let g = Graph::cycle(100);
        for sim in both(epidemic_on(&g, 5)) {
            let mut sim: Box<dyn Simulator> = Box::new(sim);
            let mut rng = SimRng::new(7);
            let ran = sim.run_until(&mut rng, u64::MAX / 2, &mut |_| false);
            assert!(ran > 0);
            assert!(sim.is_silent());
            assert_eq!(sim.counts(), &[100, 0]);
        }
    }

    #[test]
    fn shuffled_layout_preserves_counts() {
        let cfg = CountConfig::from_counts(vec![10, 30, 60]);
        let mut rng = SimRng::new(7);
        let layout = shuffled_layout(&cfg, &mut rng);
        assert_eq!(layout.len(), 100);
        let mut counts = [0u64; 3];
        for &s in &layout {
            counts[s] += 1;
        }
        assert_eq!(&counts, &[10, 30, 60]);
        // And it actually shuffles (block layout is astronomically
        // unlikely to survive).
        assert_ne!(layout, shuffled_layout(&cfg, &mut SimRng::new(8)));
    }

    #[test]
    #[should_panic(expected = "needs edges")]
    fn empty_graph_rejected() {
        let g = Graph::from_edges(3, vec![]);
        BatchGraphSimulator::new(OneWayEpidemic, &g, vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "vertex count")]
    fn state_count_mismatch_rejected() {
        let g = Graph::cycle(3);
        BatchGraphSimulator::new(OneWayEpidemic, &g, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds this packing width's limit")]
    fn narrow_engine_rejects_oversized_alphabets() {
        let g = Graph::cycle(4);
        BatchGraphSimulator::<MaxConsensus, u8>::with_states(
            MaxConsensus { k: 300 },
            &g,
            vec![0, 1, 2, 3],
        );
    }
}
