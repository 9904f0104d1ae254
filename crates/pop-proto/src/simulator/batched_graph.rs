//! Batch-leaping exact simulator for graph-restricted schedulers.
//!
//! # The matching-based multi-event idea
//!
//! Under [`GraphScheduler`](crate::scheduler::GraphScheduler) the scheduled
//! sequence of (edge, orientation) draws is **i.i.d. uniform regardless of
//! the configuration** — only the *transitions* depend on states. So, as in
//! the clique engine ([`BatchSimulator`](crate::simulator::BatchSimulator)),
//! whole blocks of the schedule can be sampled up front: as long as no
//! scheduled edge touches a vertex already changed by an earlier *effective*
//! interaction of the block, every interaction's participants still hold
//! their block-start states, so the block's effective edges form a
//! **matching** (pairwise vertex-disjoint active edges) whose transitions
//! all commute and can be applied from block-start states. A draw that
//! touches a changed vertex is instead simulated literally from the
//! then-current states — the rejection-on-shared-endpoints fallback that
//! keeps the law exactly the scheduler's.
//!
//! The engine exploits this by processing the schedule in pre-generated
//! blocks of ~√n draws (the birthday scale, at which the rejections are
//! still rare):
//!
//! 1. one tight loop draws the raw schedule (pure RNG; a single
//!    [`SimRng::below`] yields both the edge index and, in its low bit, the
//!    orientation), a second derives the oriented endpoints — loads from a
//!    stored edge list, or pure index arithmetic on the implicit cycle and
//!    torus, with the form matched once per chunk — and a third gathers
//!    their states: independent loads the CPU overlaps, the memory-level
//!    parallelism a draw-at-a-time engine cannot express (its next address
//!    depends on the previous load);
//! 2. a scan applies the block in schedule order against a **dirty
//!    bitmap** (vertex hashed to one bit, cleared at block end in
//!    O(changed vertices) time) that tracks every vertex changed since the
//!    gather: draws with no dirty endpoint use their gathered block-start
//!    states — provably current — while dirty (or hash-colliding) draws
//!    re-read current states and are simulated literally, marking whatever
//!    they change.
//!
//! The bitmap has **no false negatives** (a changed vertex's bit is always
//! set), so clean-classified draws are genuinely clean and the law is
//! exact; hash false positives merely demote a clean draw to the literal
//! fallback, which costs one re-read and nothing else. No-op draws never
//! dirty their endpoints — a no-op leaves its participants' states
//! untouched, so only *effective* interactions bound the matching.
//!
//! # Phases
//!
//! The block engine is the *effective-dominated* workhorse (USD bulk phase
//! on expanders: 30–55 % of draws effective). When activity collapses —
//! endgames, low-conductance frontiers — almost every scanned draw is a
//! no-op and scanning stops paying; a run of
//! [`SPARSE_TRIGGER_NOOPS`](super::sparse) consecutive no-op draws
//! escalates to the shared block-leaping sparse engine
//! ([`SparseSkipper`](super::sparse)) that [`GraphSimulator`] uses too:
//! exact geometric skips over no-op runs, effective events drawn from the
//! exact weighted law by one uniform pick from an active-edge pool, and
//! O(1) pool updates per changed edge. This engine drives the skipper a
//! **block of effective events at a time** (up to
//! [`SPARSE_BLOCK_EVENTS`](super::sparse) per advancement, the sparse
//! twin of its dense block leaping), and the same hysteresis
//! band hands control back to the dense block engine when the activity
//! fraction recovers. Both phases simulate the same chain; the switch is
//! purely a cost-model decision.
//!
//! # Exactness
//!
//! Every scanned draw is a literal scheduled interaction: clean draws use
//! block-start states that provably equal current states, dirty draws use
//! re-read current states, and the sparse phase inherits the shared
//! skipper's exact geometric/conditional machinery. The induced chain on
//! agent states is identical to [`GraphSimulator`]'s — verified by KS
//! equivalence on the complete graph, a random 8-regular graph, the
//! cycle, the torus, and the torus endgame in
//! `tests/topology_equivalence.rs`, and by the matching property tests
//! below.
//!
//! One clock convention is inherited from the graphwise engine: silence
//! stops the clock. A chunk whose last effective interaction silences the
//! configuration discards its trailing (provably no-op) draws from the
//! clock, so stabilization times report the interaction *at which silence
//! was reached*, exactly as the per-event engines do.
//!
//! # State packing
//!
//! The per-agent state array — the scan's hottest random-access target —
//! is stored through the [`StateWord`] packing parameter: one byte for
//! protocols with ≤ 256 states (the default, cache-resident for any
//! population the per-agent engines can hold), or the
//! [`WideBatchGraphSimulator`] u16 fallback for alphabets up to 65 536
//! states at twice the footprint. [`make_topology_simulator`] routes on
//! `k` automatically, so large-alphabet protocols batch instead of being
//! rejected.
//!
//! [`make_topology_simulator`]: ../../usd_core/backend/fn.make_topology_simulator.html

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::graph::{Adjacency, Graph};
use crate::protocol::Protocol;
use crate::simulator::sparse::{
    orient_event, SparseSkipper, SparseStep, SPARSE_BLOCK_EVENTS, SPARSE_TRIGGER_NOOPS,
};
use crate::simulator::{shuffled_layout, snapshot_tags, Simulator};
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
/// [`BatchGraphSimulator::with_states`] /
/// [`BatchGraphSimulator::with_config_shuffled`] through this alias.
pub type WideBatchGraphSimulator<P> = BatchGraphSimulator<P, u16>;

/// Batch-leaping simulator for graph-restricted schedulers.
///
/// Memory is O(n + m) plus O(√n) scan buffers on stored graphs. The
/// implicit cycle and torus store no edges, so there the block phase holds
/// O(n) and the skipper's O(m) pool exists only while the sparse phase is
/// live. The block phase costs O(1) per scheduled interaction with the
/// per-draw constant driven down by batched RNG and overlapped gathers,
/// and the sparse phase costs the shared skipper's O(d) per **effective**
/// interaction.
/// See the module docs for the block machinery and its exactness argument.
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)):
/// **checkpoint** in both phases — one observation summarizes every
/// effective event of a ~√n-draw block (dense phase) or of an up-to-64-
/// event sparse block (`SPARSE_BLOCK_EVENTS` in the private `sparse`
/// module). Use the `graph` engine when exact per-event observation
/// matters.
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
    /// Shared sparse-phase engine (`SparseSkipper`); live only in the
    /// sparse phase.
    sparse: Option<SparseSkipper>,
    /// Consecutive no-op draws (sparse trigger, shared with graphwise).
    noop_run: u32,
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
    /// `blocks`/`block_draws`/`block_applied`, `fallback_literal` (dirty
    /// draws applied literally), `pair_draws`, `sparse_enters`/
    /// `sparse_exits`, the harvested skipper stats, and the spans — with
    /// the batch-specific convention `dense ⊇ gather + apply` (gather =
    /// passes 1–3, apply = the matching scan, dense = the whole chunk, so
    /// `dense − gather − apply` is the scan's bookkeeping overhead).
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): dense no-op runs, matching block
    /// sizes, and per-chunk fallback runs recorded here; sparse fields
    /// merged in from each skipper at phase exits and boundary reads.
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

    /// Create from a count configuration with a uniformly shuffled agent
    /// layout — the canonical initial law on non-clique topologies (see
    /// [`GraphSimulator::from_config_shuffled`](super::GraphSimulator::from_config_shuffled)).
    pub fn with_config_shuffled(
        protocol: P,
        graph: &Graph,
        config: &CountConfig,
        rng: &mut SimRng,
    ) -> Self {
        let states = shuffled_layout(config, rng);
        Self::with_states(protocol, graph, states)
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of agents.
    pub fn population(&self) -> usize {
        self.states.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.num_edges()
    }

    /// The state index of one agent.
    pub fn state_of_agent(&self, v: usize) -> usize {
        self.states[v].unpack()
    }

    /// Per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Current count configuration (copies counts).
    pub fn config(&self) -> CountConfig {
        CountConfig::from_counts(self.counts.clone())
    }

    /// Total interactions simulated (including no-ops).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Interactions that changed the configuration.
    pub fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    /// Parallel time elapsed (= interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.states.len() as f64
    }

    /// Oriented `(initiator, responder)` endpoint pairs of the most recent
    /// block's effective interactions. By construction these form a
    /// matching of active edges: pairwise vertex-disjoint, each active at
    /// block start — the invariant the property tests assert.
    pub fn last_block_matching(&self) -> &[(u32, u32)] {
        &self.block_events
    }

    /// Total number of active orientations `W` (0 iff silent). O(1) in the
    /// sparse phase; scans the edges in the block phase, where `W` is not
    /// maintained.
    pub fn active_weight(&self) -> u64 {
        match &self.sparse {
            Some(s) => s.total(),
            None => (0..self.num_edges()).map(|e| self.edge_weight(e)).sum(),
        }
    }

    /// Whether the configuration is silent *for this graph* (`W = 0`).
    /// Sparse phase: exact. Block phase: the sufficient count-level
    /// criterion, with frozen disconnected configurations caught by the
    /// no-op-run escalation exactly as in
    /// [`GraphSimulator::is_silent`](super::GraphSimulator::is_silent).
    pub fn is_silent(&self) -> bool {
        match &self.sparse {
            Some(s) => s.total() == 0,
            None => self.protocol.is_silent(&self.counts),
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
    /// tests pin. O(m); `Ok` when the block phase is active.
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
    /// to the skipper when it is live). Used by the literal single step,
    /// the dirty-endpoint fallback, and the sparse phase — not by the
    /// block scan, which inlines the clean-draw fast path.
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
        // One endpoint at a time so each new weight is computed against a
        // consistent snapshot (same argument as the graphwise engine).
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

    /// Simulate exactly one scheduled interaction (uniform edge, uniform
    /// orientation — the literal scheduler law); returns whether it changed
    /// the configuration.
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
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

    /// Sparse-phase advancement, block-leaping: apply up to
    /// [`SPARSE_BLOCK_EVENTS`] effective events (each preceded by its
    /// exact geometric no-op skip) before returning, charging the
    /// interaction clock once for the whole block. Stops early at the
    /// horizon, at silence (the clock stops *at* the silencing event — the
    /// per-event engines' convention, with no trailing skips drawn), or
    /// when activity recovers past the hysteresis threshold. Returns
    /// (interactions advanced, whether the counts changed). Precondition:
    /// skipper live, `W > 0`, `max > 0`.
    fn sparse_block(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let mut advanced = 0u64;
        let mut events = 0u64;
        while events < SPARSE_BLOCK_EVENTS && advanced < max {
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

    /// Scan one pre-generated chunk of at most `max` scheduled draws.
    /// Returns `(advanced, changed, trigger)` where `trigger` reports that
    /// the consecutive-no-op escalation fired (the caller builds the
    /// sparse skipper).
    fn chunk_scan(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool, bool) {
        debug_assert!(max > 0);
        debug_assert!(self.sparse.is_none(), "chunk scan with a live skipper");
        let m2 = 2 * self.num_edges() as u64;
        let k = self.k;
        let want = (self.chunk as u64).min(max) as usize;
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

    /// Advance by at most `max` interactions using the cheapest exact
    /// mechanism for the current activity level (block leaping or the
    /// shared sparse skipper, itself block-leaping). Returns interactions
    /// advanced and whether the counts changed. Once silence is
    /// *certified* (sparse phase, `W = 0`) the clock stops: further calls
    /// return `(0, false)`. In the block phase a silent-but-uncertified
    /// configuration still draws genuine scheduled no-ops until the
    /// no-op-run trigger escalates and certifies it (the same behaviour as
    /// the graphwise dense phase), so the first call on such a
    /// configuration can advance the clock by up to
    /// ~`SPARSE_TRIGGER_NOOPS` interactions — drivers check `is_silent()`
    /// before advancing, which both `run_until` and the stabilization
    /// entry points do.
    pub fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let out = self.advance_changed_impl(rng, max);
        // Harvest the skipper's telemetry at every advancement boundary so
        // the engine's totals are current even while the sparse phase is
        // live (runs routinely *end* inside it).
        if let Some(s) = &mut self.sparse {
            self.telemetry.sparse.absorb(s.take_stats());
        }
        out
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
                    // Silent: stop the clock (see the graphwise engine).
                    return (advanced, changed);
                }
                if s.should_exit_to_dense() {
                    // Activity recovered: hand back to the block engine.
                    self.exit_sparse();
                } else {
                    let t0 = self.telemetry.clock.start();
                    let (leapt, ch) = self.sparse_block(rng, max - advanced);
                    self.telemetry.spans.sparse_ns += self.telemetry.clock.elapsed_ns(t0);
                    return (advanced + leapt, changed || ch);
                }
            }
            let (leapt, ch, trigger) = self.chunk_scan(rng, max - advanced);
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
            // All-no-op block without a trigger yet: keep scanning so the
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

    /// Create from a count configuration with a uniformly shuffled agent
    /// layout (one-byte packing) — the canonical initial law on non-clique
    /// topologies.
    pub fn from_config_shuffled(
        protocol: P,
        graph: &Graph,
        config: &CountConfig,
        rng: &mut SimRng,
    ) -> Self {
        Self::with_config_shuffled(protocol, graph, config, rng)
    }

    /// Create from a count configuration with a block layout. Only
    /// appropriate when the layout is irrelevant (the complete graph);
    /// prefer [`BatchGraphSimulator::from_config_shuffled`] otherwise.
    pub fn from_config(protocol: P, graph: &Graph, config: &CountConfig) -> Self {
        let mut states = Vec::with_capacity(config.n() as usize);
        for (idx, &c) in config.counts().iter().enumerate() {
            states.extend(std::iter::repeat_n(idx, c as usize));
        }
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

    fn step(&mut self, rng: &mut SimRng) -> bool {
        BatchGraphSimulator::step(self, rng)
    }

    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        BatchGraphSimulator::advance_changed(self, rng, max)
    }

    fn is_silent(&self) -> bool {
        BatchGraphSimulator::is_silent(self)
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

    fn snapshot_state(&self, w: &mut SnapshotWriter) -> Result<(), CheckpointError> {
        // Graph structure, transition tables, and the chunk/bitmap scratch
        // are constructor-derived (the scratch buffers are empty between
        // advancements — chunk_scan always clears them); the mutable state
        // is the packed agent states, clocks, no-op run, and the skipper.
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
        Ok(())
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
    use crate::protocol::OneWayEpidemic;

    fn epidemic_on(graph: &Graph, infected: usize) -> BatchGraphSimulator<OneWayEpidemic> {
        let mut states = vec![1usize; graph.n()];
        for s in states.iter_mut().take(infected) {
            *s = 0;
        }
        BatchGraphSimulator::new(OneWayEpidemic, graph, states)
    }

    #[test]
    fn epidemic_on_cycle_completes_and_counts_events() {
        let g = Graph::cycle(50);
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(1);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        assert_eq!(sim.counts(), &[50, 0]);
        assert_eq!(sim.effective_interactions(), 49);
        assert_eq!(sim.active_weight(), 0);
    }

    #[test]
    fn block_clock_matches_single_step_clock_in_distribution() {
        // Block leaping must preserve the total-interaction law: compare
        // mean completion interactions via advance() and via step().
        let reps = 300u64;
        let mut block_mean = 0.0;
        let mut step_mean = 0.0;
        for seed in 0..reps {
            let g = Graph::cycle(24);
            let mut sim = epidemic_on(&g, 1);
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
            }
            block_mean += sim.interactions() as f64;

            let g = Graph::cycle(24);
            let mut sim = epidemic_on(&g, 1);
            let mut rng = SimRng::new(seed + 777_777);
            while !sim.is_silent() {
                sim.step(&mut rng);
            }
            step_mean += sim.interactions() as f64;
        }
        block_mean /= reps as f64;
        step_mean /= reps as f64;
        let rel = (block_mean - step_mean).abs() / step_mean;
        assert!(rel < 0.06, "block {block_mean} vs step {step_mean}");
    }

    #[test]
    fn matches_graphwise_engine_in_distribution() {
        // Same chain as GraphSimulator: compare mean completion clocks on
        // a sparse graph.
        let reps = 250u64;
        let g = Graph::grid(6, 6);
        let mut batch_mean = 0.0;
        let mut graph_mean = 0.0;
        for seed in 0..reps {
            let mut sim = epidemic_on(&g, 2);
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
            }
            batch_mean += sim.interactions() as f64;

            let mut states = vec![1usize; 36];
            states[0] = 0;
            states[1] = 0;
            let mut reference = crate::simulator::GraphSimulator::new(OneWayEpidemic, &g, states);
            let mut rng = SimRng::new(seed + 555_555);
            while !reference.is_silent() {
                reference.advance_changed(&mut rng, u64::MAX / 2);
            }
            graph_mean += reference.interactions() as f64;
        }
        batch_mean /= reps as f64;
        graph_mean /= reps as f64;
        let rel = (batch_mean - graph_mean).abs() / graph_mean;
        assert!(rel < 0.06, "batch {batch_mean} vs graphwise {graph_mean}");
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
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(3);
        for max in [1u64, 7, 100, 10_000] {
            let before = sim.interactions();
            let (advanced, _) = sim.advance_changed(&mut rng, max);
            assert!(advanced >= 1 && advanced <= max, "advanced {advanced}");
            assert_eq!(sim.interactions() - before, advanced);
        }
    }

    #[test]
    fn silent_configuration_stops_the_clock() {
        let g = Graph::cycle(10);
        let mut sim = epidemic_on(&g, 10); // everyone infected: silent
        assert!(sim.is_silent());
        let mut rng = SimRng::new(4);
        let (first, changed) = sim.advance_changed(&mut rng, 5_000);
        assert!(!changed);
        assert!(first <= 5_000);
        let clock = sim.interactions();
        let (second, changed) = sim.advance_changed(&mut rng, 5_000);
        assert_eq!((second, changed), (0, false));
        assert_eq!(sim.interactions(), clock);
        assert_eq!(sim.effective_interactions(), 0);
    }

    #[test]
    fn disconnected_graph_freezes_with_mixed_counts() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        let mut states = vec![1usize; 4];
        states[0] = 0;
        let mut sim = BatchGraphSimulator::new(OneWayEpidemic, &g, states);
        let mut rng = SimRng::new(5);
        let mut guard = 0;
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            guard += 1;
            assert!(guard < 100);
        }
        assert_eq!(sim.counts(), &[2, 2]);
    }

    #[test]
    fn population_and_counts_conserved_across_blocks() {
        let g = crate::topology::TopologyFamily::Regular { d: 4 }.build(1_024, 1);
        let mut sim = epidemic_on(&g, 16);
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
        // advancement.
        let g = Graph::cycle(2_048);
        let mut sim = epidemic_on(&g, 1);
        let mut rng = SimRng::new(11);
        let mut sparse_advancements = 0u32;
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            sim.validate_sparse_invariants().unwrap();
            if sim.sparse.is_some() {
                sparse_advancements += 1;
            }
        }
        // The sparse phase leaps ~64 events per advancement, so a
        // 2047-event epidemic crosses it tens of times.
        assert!(
            sparse_advancements > 10,
            "only {sparse_advancements} sparse advancements exercised"
        );
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
        let t = Simulator::telemetry(&sim);
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
        let t = Simulator::telemetry(&sim);
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

    #[test]
    fn trait_object_usable() {
        let g = Graph::cycle(100);
        let mut sim: Box<dyn Simulator> = Box::new(epidemic_on(&g, 5));
        let mut rng = SimRng::new(7);
        let ran = sim.run_until(&mut rng, u64::MAX / 2, &mut |_| false);
        assert!(ran > 0);
        assert!(sim.is_silent());
        assert_eq!(sim.counts(), &[100, 0]);
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
