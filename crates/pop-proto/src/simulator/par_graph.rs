//! Sharded multi-core exact simulator for graph-restricted schedulers.
//!
//! # Position-derived draws
//!
//! The scalar [`GraphSimulator`](super::GraphSimulator) consumes its RNG
//! sequentially: draw `j` depends on draws `0..j` having been made. That
//! serial dependency is the whole obstacle to parallel application, so
//! this engine removes it at the source. A dense **block** of `B`
//! scheduled interactions takes *one* word from the driver RNG (the
//! `block_seed`) and derives draw `j` as a pure function of
//! `(block_seed, j)`: a fresh [`SimRng`] seeded with
//! `derive_seed(block_seed, j)` yields the uniform edge index and the
//! uniform orientation bit. Every position's draw can therefore be
//! computed by any thread, in any order, and the result is a fixed
//! function of the driver RNG stream — **bit-identical for any thread
//! count**, including one. The induced law is exactly the
//! [`GraphScheduler`](crate::scheduler::GraphScheduler) law (uniform
//! edge, then uniform orientation, independently per position); only the
//! bitstream differs from the scalar engine, the same "identical in law,
//! different stream" contract the batch engines already carry, pinned by
//! KS tests.
//!
//! # Domain decomposition
//!
//! At construction the vertices are renumbered by BFS order from vertex 0
//! (a BFS forest on disconnected graphs) and cut into `D` contiguous
//! **domains** — BFS order makes the ranges spatially coherent, so cycle
//! arcs and torus tiles fall out of the same machinery that hash/BFS-cuts
//! d-regular and G(n, p) graphs. `D` is a pure function of `n` (never of
//! the thread count) and every cut point is a multiple of 64, so a
//! domain's vertices occupy whole words of the dirty bitmap below. Edges
//! are reordered interior-per-domain-contiguous with the cross-domain
//! **boundary** edges last, so a drawn edge index classifies into its
//! domain by a binary search over `D + 1` offsets.
//!
//! # Block execution
//!
//! Each dense block runs four phases on the persistent
//! [`WorkerPool`](sim_stats::threads::WorkerPool):
//!
//! 1. **bucket** (parallel): `D` position chunks derive their draws and
//!    bucket them per domain, boundary draws aside;
//! 2. **pre-mark** (sequential): every boundary draw marks both endpoints
//!    in the dirty bitmap — interior draws that touch them must not be
//!    applied out of schedule order;
//! 3. **interior** (parallel, one task per domain): each domain applies
//!    its draws *in position order* against the shared state array. A
//!    draw touching a dirty vertex is **deferred** and marks its own
//!    endpoints dirty (transitive contamination), so nothing applied in
//!    this phase shares a vertex with any earlier-position deferred or
//!    boundary draw. Per-domain count deltas and effective counts
//!    accumulate in per-domain scratch;
//! 4. **replay** (sequential): deferred and boundary draws are merged,
//!    sorted by position, and replayed literally in schedule order — the
//!    batched-graph matching/dirty-bitmap conflict idea, applied across
//!    domains instead of within a block.
//!
//! Phase 3 applies only draws that commute (vertex-disjointness) with
//! every replayed draw scheduled before them, and both phases preserve
//! position order among draws that share a vertex, so the block's final
//! configuration — and each draw's effectiveness — is identical to
//! applying the derived draw sequence one by one. The observation
//! granularity is the block boundary (like the other leaping engines);
//! within a domain, bits of the dirty bitmap are touched by exactly one
//! worker (boundary pre-marking happens before the parallel phase), so
//! the phases are race-free by construction, not by locking.
//!
//! # Sparse endgame
//!
//! A dense block that applies zero effective draws counts its whole
//! length as a no-op run; once [`SPARSE_TRIGGER_NOOPS`] accumulate, the
//! engine scans the per-edge active-orientation weights and hands off to
//! the shared [`SparseSkipper`](super::sparse) exactly as the scalar
//! graph engines do (an active-edge pool: O(1) per event draw and per
//! changed edge) — low-activity endgames are a serial workload and get
//! the serial machinery, with the same hysteresis exit back to dense
//! blocks. Silence certification (`W = 0`) and the clock-stop contract
//! are inherited unchanged.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::RwLock;

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::graph::{Adjacency, Csr, Graph};
use crate::protocol::Protocol;
use crate::simulator::graphwise::shuffled_layout;
use crate::simulator::sparse::{orient_event, SparseSkipper, SparseStep, SPARSE_TRIGGER_NOOPS};
use crate::simulator::{snapshot_tags, Simulator};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::rng::{derive_seed, SimRng};
use sim_stats::threads::WorkerPool;

/// One derived scheduled interaction: its position in the block, the
/// drawn edge (index into the reordered edge array), and the drawn
/// orientation (`fwd` = stored endpoint order).
#[derive(Debug, Clone, Copy)]
struct Draw {
    pos: u32,
    edge: u32,
    fwd: bool,
}

/// Per-chunk bucketing scratch (phase 1 output), reused across blocks.
#[derive(Debug, Default)]
struct ChunkScratch {
    /// Interior draws bucketed per domain, positions ascending.
    per_dom: Vec<Vec<Draw>>,
    /// Boundary draws, positions ascending.
    boundary: Vec<Draw>,
}

impl ChunkScratch {
    fn clear(&mut self, domains: usize) {
        self.per_dom.resize_with(domains, Vec::new);
        for v in &mut self.per_dom {
            v.clear();
        }
        self.boundary.clear();
    }
}

/// Per-domain application scratch (phase 3 output), reused across blocks.
#[derive(Debug, Default)]
struct DomScratch {
    /// Draws deferred to the replay phase, positions ascending.
    deferred: Vec<Draw>,
    /// Signed per-state count delta of the draws applied here.
    delta: Vec<i64>,
    /// Effective draws applied here.
    effective: u64,
    /// Draws applied here (effective or not).
    applied: u64,
    /// Block position of the last *effective* draw applied here (−1 if
    /// none) — feeds the terminal-block clock truncation.
    last_eff: i64,
}

impl DomScratch {
    fn clear(&mut self, k: usize) {
        self.deferred.clear();
        self.delta.clear();
        self.delta.resize(k, 0);
        self.effective = 0;
        self.applied = 0;
        self.last_eff = -1;
    }
}

/// Number of domains for an `n`-vertex graph: one per ~4096 vertices,
/// capped at 64 — a pure function of `n`, never of the thread count, so
/// the draw→domain assignment (and with it the trajectory) is identical
/// however many workers participate.
fn domain_count(n: usize) -> usize {
    (n / 4096).clamp(1, 64)
}

/// Dense block length for an `m`-edge graph. Larger blocks amortize the
/// fan-out; smaller ones bound the conflict (replay) fraction, which
/// grows with the square of the block length over the edge count.
fn block_len_for(m: usize) -> usize {
    (m / 16).clamp(256, 16_384)
}

/// Apply one oriented pair `(i → j)` against the shared state array,
/// accumulating into a scratch delta; returns whether it was effective.
/// Positions applied concurrently are vertex-disjoint by the deferral
/// invariant, so the relaxed loads see exactly the values this domain's
/// own earlier draws stored.
#[inline]
fn apply_scratch(
    states: &[AtomicU32],
    table: &[(u32, u32)],
    noop: &[bool],
    k: usize,
    i: usize,
    j: usize,
    delta: &mut [i64],
) -> bool {
    let si = states[i].load(Ordering::Relaxed) as usize;
    let sj = states[j].load(Ordering::Relaxed) as usize;
    if noop[si * k + sj] {
        return false;
    }
    let (ti, tj) = table[si * k + sj];
    states[i].store(ti, Ordering::Relaxed);
    states[j].store(tj, Ordering::Relaxed);
    delta[si] -= 1;
    delta[sj] -= 1;
    delta[ti as usize] += 1;
    delta[tj as usize] += 1;
    true
}

/// Derive the scheduled draw at `pos` of the block seeded `block_seed`:
/// a uniform edge index in `0..m` and a uniform orientation — the
/// [`GraphScheduler`](crate::scheduler::GraphScheduler) law, as a pure
/// function of `(block_seed, pos)`.
#[inline]
fn derive_draw(block_seed: u64, pos: u32, m: usize) -> Draw {
    let mut r = SimRng::new(derive_seed(block_seed, pos as u64));
    let edge = r.index(m) as u32;
    let fwd = r.bernoulli(0.5);
    Draw { pos, edge, fwd }
}

/// Sharded multi-core exact simulator for a fixed interaction graph.
///
/// Identical in law to [`GraphSimulator`](super::GraphSimulator) (uniform
/// edge + uniform orientation per scheduled interaction) with a different
/// bitstream: dense stretches advance in position-derived blocks applied
/// across `D` spatial domains on the persistent
/// [`WorkerPool`](sim_stats::threads::WorkerPool), with cross-domain
/// conflicts replayed in schedule order; low-activity stretches hand off
/// to the shared sparse skipper. Trajectories are **bit-identical for any
/// thread count** — see the module docs for the phase machinery and the
/// exactness argument.
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)): **block
/// checkpoints** in the dense phase (observers see configurations every
/// ≤ `B` scheduled interactions), exact per effective event in the sparse
/// phase.
#[derive(Debug)]
pub struct ParGraphSimulator<P: Protocol> {
    protocol: P,
    /// Worker-pool participants for the parallel phases (≥ 1; 1 = fully
    /// inline). Never affects the trajectory.
    threads: usize,
    /// Reordered edge list (interior edges grouped per domain, boundary
    /// edges last) over internal (BFS-renumbered) vertex ids, with its CSR
    /// incidence for the sparse-phase refresh.
    csr: Csr,
    /// Domain vertex-range cuts (`D + 1` entries, each a multiple of 64
    /// except the last).
    dom_start: Vec<u32>,
    /// Interior-edge spans per domain (`D + 1` entries); boundary edges
    /// occupy `edge_off[D]..m`.
    edge_off: Vec<u32>,
    /// Agent states in internal (BFS) order, shared with the parallel
    /// interior phase. Relaxed atomics: the deferral invariant makes all
    /// concurrent accesses vertex-disjoint.
    states: Vec<AtomicU32>,
    counts: Vec<u64>,
    /// Shared sparse-phase engine (see [`GraphSimulator`]); `None` while
    /// dense blocks run.
    sparse: Option<SparseSkipper>,
    /// Accumulated zero-effective dense draws (sparse trigger).
    noop_run: u32,
    k: usize,
    interactions: u64,
    effective_interactions: u64,
    table: Vec<(u32, u32)>,
    noop: Vec<bool>,
    /// Dense block length (pure function of the graph).
    block: usize,
    /// Phase-1 scratch, one slot per chunk (write-locked by its own
    /// chunk, read-locked by every domain in phase 3).
    chunk_scratch: Vec<RwLock<ChunkScratch>>,
    /// Phase-3 scratch, one slot per domain.
    dom_scratch: Vec<RwLock<DomScratch>>,
    /// Dirty vertex bitmap (one bit per internal vertex). Cleared
    /// per-block by walking the replay list, not the whole bitmap.
    dirty: Vec<AtomicU64>,
    /// Replay-phase merge buffer, reused across blocks.
    replay: Vec<Draw>,
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in). The dense phase records block
    /// aggregates only (applied sizes, replay runs) — per-draw no-op runs
    /// are not observable from the parallel application, and recording
    /// them would force a serial path; `skip_len` is populated by the
    /// sparse phase alone.
    hist: Option<Box<EventHistograms>>,
}

impl<P: Protocol> ParGraphSimulator<P> {
    /// Create from explicit per-agent states (dense indices, in the
    /// graph's own vertex order) and a worker count. The graph must have
    /// at least one edge and as many vertices as there are states.
    pub fn new(protocol: P, graph: &Graph, states: Vec<usize>, threads: usize) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "agent count does not match graph vertex count"
        );
        assert!(graph.num_edges() > 0, "pargraph engine needs edges");
        let n = graph.n();
        let k = protocol.num_states();
        let mut table = Vec::with_capacity(k * k);
        let mut noop = Vec::with_capacity(k * k);
        for i in 0..k {
            for j in 0..k {
                let (a, b) = protocol.transition_indices(i, j);
                table.push((a as u32, b as u32));
                noop.push((a, b) == (i, j));
            }
        }

        // BFS renumbering (forest order on disconnected graphs): makes
        // contiguous id ranges spatially coherent, so the domain cuts
        // below are cycle arcs / torus tiles / BFS cuts by construction.
        let order = bfs_order(n, &Adjacency::new(graph));
        let mut perm = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as u32;
        }

        let domains = domain_count(n);
        let mut dom_start = Vec::with_capacity(domains + 1);
        for d in 0..domains {
            // Cuts at multiples of 64 so a domain owns whole words of the
            // dirty bitmap. Domains hold ≥ 4096 vertices, so rounding
            // down keeps the cuts strictly increasing.
            dom_start.push(((n * d / domains) / 64 * 64) as u32);
        }
        dom_start.push(n as u32);

        // Classify and reorder edges: interior per domain, boundary last.
        let dom_of = |v: u32| dom_start.partition_point(|&s| s <= v) - 1;
        let mut interior: Vec<Vec<(u32, u32)>> = vec![Vec::new(); domains];
        let mut boundary: Vec<(u32, u32)> = Vec::new();
        for (a, b) in graph.edges() {
            let (pa, pb) = (perm[a as usize], perm[b as usize]);
            let (da, db) = (dom_of(pa), dom_of(pb));
            if da == db {
                interior[da].push((pa, pb));
            } else {
                boundary.push((pa, pb));
            }
        }
        let mut edges = Vec::with_capacity(graph.num_edges());
        let mut edge_off = Vec::with_capacity(domains + 1);
        edge_off.push(0u32);
        for dom_edges in &interior {
            edges.extend_from_slice(dom_edges);
            edge_off.push(edges.len() as u32);
        }
        edges.extend_from_slice(&boundary);
        let block = block_len_for(edges.len());
        // CSR incidence over internal ids and reordered edge indices (the
        // sparse phase's incident-edge refresh needs it).
        let csr = Csr::new(n, edges);

        let mut counts = vec![0u64; k];
        for &s in &states {
            assert!(s < k, "state index {s} out of range");
            counts[s] += 1;
        }
        let atomic_states: Vec<AtomicU32> = order
            .iter()
            .map(|&old| AtomicU32::new(states[old as usize] as u32))
            .collect();

        ParGraphSimulator {
            protocol,
            threads: threads.max(1),
            csr,
            dom_start,
            edge_off,
            states: atomic_states,
            counts,
            sparse: None,
            noop_run: 0,
            k,
            interactions: 0,
            effective_interactions: 0,
            table,
            noop,
            block,
            chunk_scratch: (0..domains)
                .map(|_| RwLock::new(ChunkScratch::default()))
                .collect(),
            dom_scratch: (0..domains)
                .map(|_| RwLock::new(DomScratch::default()))
                .collect(),
            dirty: (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            replay: Vec::new(),
            telemetry: EngineTelemetry::new(),
            hist: None,
        }
    }

    /// Create from a count configuration with a uniformly shuffled agent
    /// layout — the canonical initial law on real topologies (see
    /// [`GraphSimulator::from_config_shuffled`]).
    ///
    /// [`GraphSimulator::from_config_shuffled`]:
    ///     super::GraphSimulator::from_config_shuffled
    pub fn from_config_shuffled(
        protocol: P,
        graph: &Graph,
        config: &CountConfig,
        rng: &mut SimRng,
        threads: usize,
    ) -> Self {
        let states = shuffled_layout(config, rng);
        Self::new(protocol, graph, states, threads)
    }

    /// Number of spatial domains the graph was cut into.
    pub fn domains(&self) -> usize {
        self.dom_start.len() - 1
    }

    /// Worker-pool participants for the parallel phases.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of boundary (cross-domain) edges — the draws that always
    /// take the sequential replay path.
    pub fn boundary_edges(&self) -> usize {
        self.num_edges() - self.edge_off[self.domains()] as usize
    }

    /// Number of agents.
    pub fn population(&self) -> usize {
        self.states.len()
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

    /// Total number of active orientations `W` (0 iff silent). O(1) in
    /// the sparse phase; scans the edges in the dense phase.
    pub fn active_weight(&self) -> u64 {
        match &self.sparse {
            Some(s) => s.total(),
            None => (0..self.num_edges()).map(|e| self.edge_weight(e)).sum(),
        }
    }

    /// Whether the configuration is silent *for this graph* (`W = 0`);
    /// same phase split as [`GraphSimulator::is_silent`].
    ///
    /// [`GraphSimulator::is_silent`]: super::GraphSimulator::is_silent
    pub fn is_silent(&self) -> bool {
        match &self.sparse {
            Some(s) => s.total() == 0,
            None => self.protocol.is_silent(&self.counts),
        }
    }

    #[inline]
    fn state_of(&self, v: usize) -> usize {
        self.states[v].load(Ordering::Relaxed) as usize
    }

    fn num_edges(&self) -> usize {
        self.csr.edges().len()
    }

    #[inline]
    fn edge_weight(&self, e: usize) -> u64 {
        let (a, b) = self.csr.endpoints(e);
        let sa = self.state_of(a as usize);
        let sb = self.state_of(b as usize);
        (!self.noop[sa * self.k + sb]) as u64 + (!self.noop[sb * self.k + sa]) as u64
    }

    /// Verify the sparse skipper (if live) against recomputed per-edge
    /// weights; `Ok` in the dense phase. O(m).
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

    /// Sequential oriented application with sparse-phase re-weighting —
    /// the literal-step path (mirrors [`GraphSimulator`]'s).
    ///
    /// [`GraphSimulator`]: super::GraphSimulator
    fn apply_oriented(&mut self, i: usize, j: usize) -> bool {
        let (si, sj) = (self.state_of(i), self.state_of(j));
        if self.noop[si * self.k + sj] {
            return false;
        }
        let (ti, tj) = self.table[si * self.k + sj];
        self.counts[si] -= 1;
        self.counts[sj] -= 1;
        self.counts[ti as usize] += 1;
        self.counts[tj as usize] += 1;
        self.effective_interactions += 1;
        self.telemetry.effective += 1;
        if self.sparse.is_none() {
            self.states[i].store(ti, Ordering::Relaxed);
            self.states[j].store(tj, Ordering::Relaxed);
            return true;
        }
        // One endpoint at a time so each refresh sees a consistent
        // pre/post snapshot (same protocol as the scalar engine).
        if ti as usize != si {
            self.states[i].store(ti, Ordering::Relaxed);
            self.refresh_incident(i, si);
        }
        if tj as usize != sj {
            self.states[j].store(tj, Ordering::Relaxed);
            self.refresh_incident(j, sj);
        }
        true
    }

    fn refresh_incident(&mut self, v: usize, old: usize) {
        let t = self.state_of(v);
        for &(nb, e) in self.csr.incident(v) {
            let y = self.state_of(nb as usize);
            let was = (!self.noop[old * self.k + y]) as u64 + (!self.noop[y * self.k + old]) as u64;
            let now = (!self.noop[t * self.k + y]) as u64 + (!self.noop[y * self.k + t]) as u64;
            if was != now {
                self.sparse
                    .as_mut()
                    .expect("sparse-phase refresh without a skipper")
                    .set_weight(e as usize, now);
            }
        }
    }

    fn enter_sparse(&mut self) {
        let mut skipper = SparseSkipper::new((0..self.num_edges()).map(|e| self.edge_weight(e)));
        skipper.set_histograms(self.hist.is_some());
        self.sparse = Some(skipper);
        self.noop_run = 0;
        self.telemetry.sparse_enters += 1;
    }

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

    /// Simulate exactly one scheduled interaction literally (uniform
    /// edge, uniform orientation from the driver RNG). The trait's
    /// single-step entry point; dense bulk advancement goes through the
    /// block machinery instead.
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        self.interactions += 1;
        self.telemetry.scheduled += 1;
        self.telemetry.dense_steps += 1;
        self.telemetry.pair_draws += 1;
        let (a, b) = self.csr.endpoints(rng.index(self.num_edges()));
        let (i, j) = if rng.bernoulli(0.5) {
            (a as usize, b as usize)
        } else {
            (b as usize, a as usize)
        };
        self.apply_oriented(i, j)
    }

    /// One sparse-phase advancement (identical to the scalar engines').
    fn sparse_advance(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let sparse = self
            .sparse
            .as_mut()
            .expect("sparse advance without skipper");
        let (consumed, e) = match sparse.next_event(rng, max) {
            SparseStep::Horizon => {
                self.interactions += max;
                self.telemetry.scheduled += max;
                return (max, false);
            }
            SparseStep::Event { consumed, edge } => {
                self.interactions += consumed;
                self.telemetry.scheduled += consumed;
                (consumed, edge)
            }
        };
        let (a, b) = self.csr.endpoints(e);
        let sa = self.state_of(a as usize);
        let sb = self.state_of(b as usize);
        let (i, j) = orient_event(
            rng,
            a as usize,
            b as usize,
            !self.noop[sa * self.k + sb],
            !self.noop[sb * self.k + sa],
        );
        let changed = self.apply_oriented(i, j);
        debug_assert!(changed, "sampled active orientation was a no-op");
        self.sparse
            .as_mut()
            .expect("sparse advance without skipper")
            .end_event();
        (consumed, true)
    }

    /// Execute one dense block of `len` position-derived draws across the
    /// worker pool; returns the number of effective draws.
    fn dense_block(&mut self, block_seed: u64, len: usize) -> u64 {
        let domains = self.domains();
        let chunks = domains;
        let interior_end = self.edge_off[domains];
        let m = self.num_edges();

        // Phase 1 — bucket: chunk c derives positions [len·c/C, len·(c+1)/C)
        // and buckets them per domain. Field-borrow captures keep the
        // closure `Sync` without demanding it of the protocol type.
        {
            let chunk_scratch = &self.chunk_scratch;
            let edge_off = &self.edge_off;
            WorkerPool::global().run(self.threads, chunks, |c| {
                let mut sc = chunk_scratch[c].write().expect("chunk scratch poisoned");
                sc.clear(domains);
                let (lo, hi) = (len * c / chunks, len * (c + 1) / chunks);
                for pos in lo..hi {
                    let draw = derive_draw(block_seed, pos as u32, m);
                    if draw.edge < interior_end {
                        let d = edge_off.partition_point(|&s| s <= draw.edge) - 1;
                        sc.per_dom[d].push(draw);
                    } else {
                        sc.boundary.push(draw);
                    }
                }
            });
        }

        // Phase 2 — pre-mark: every boundary draw contaminates both its
        // endpoints before any interior application starts.
        for c in 0..chunks {
            let sc = self.chunk_scratch[c]
                .get_mut()
                .expect("chunk scratch poisoned");
            for draw in &sc.boundary {
                let (a, b) = self.csr.endpoints(draw.edge as usize);
                self.dirty[a as usize / 64].fetch_or(1 << (a % 64), Ordering::Relaxed);
                self.dirty[b as usize / 64].fetch_or(1 << (b % 64), Ordering::Relaxed);
            }
        }

        // Phase 3 — interior: each domain applies its draws in position
        // order, deferring (and contaminating) anything that touches a
        // dirty vertex. A domain's dirty bits are written only by phase 2
        // (already done) and by its own worker, so the phase is race-free.
        {
            let chunk_scratch = &self.chunk_scratch;
            let dom_scratch = &self.dom_scratch;
            let dirty = &self.dirty;
            let edges = self.csr.edges();
            let states = &self.states;
            let table = &self.table;
            let noop = &self.noop;
            let k = self.k;
            WorkerPool::global().run(self.threads, domains, |d| {
                let mut ds = dom_scratch[d].write().expect("domain scratch poisoned");
                ds.clear(k);
                let ds = &mut *ds;
                for chunk in chunk_scratch.iter().take(chunks) {
                    let sc = chunk.read().expect("chunk scratch poisoned");
                    for &draw in &sc.per_dom[d] {
                        let (a, b) = edges[draw.edge as usize];
                        let (wa, ba) = (a as usize / 64, 1u64 << (a % 64));
                        let (wb, bb) = (b as usize / 64, 1u64 << (b % 64));
                        if dirty[wa].load(Ordering::Relaxed) & ba != 0
                            || dirty[wb].load(Ordering::Relaxed) & bb != 0
                        {
                            dirty[wa].fetch_or(ba, Ordering::Relaxed);
                            dirty[wb].fetch_or(bb, Ordering::Relaxed);
                            ds.deferred.push(draw);
                            continue;
                        }
                        let (i, j) = if draw.fwd {
                            (a as usize, b as usize)
                        } else {
                            (b as usize, a as usize)
                        };
                        ds.applied += 1;
                        if apply_scratch(states, table, noop, k, i, j, &mut ds.delta) {
                            ds.effective += 1;
                            ds.last_eff = ds.last_eff.max(draw.pos as i64);
                        }
                    }
                }
            });
        }

        // Phase 4 — replay: merge deferred + boundary draws, sort by
        // position, apply literally in schedule order, and clear exactly
        // the dirty bits those draws set.
        self.replay.clear();
        for d in 0..domains {
            let ds = self.dom_scratch[d]
                .get_mut()
                .expect("domain scratch poisoned");
            self.replay.extend_from_slice(&ds.deferred);
        }
        for c in 0..chunks {
            let sc = self.chunk_scratch[c]
                .get_mut()
                .expect("chunk scratch poisoned");
            self.replay.extend_from_slice(&sc.boundary);
        }
        self.replay.sort_unstable_by_key(|d| d.pos);
        let replay_len = self.replay.len() as u64;
        let mut applied = 0u64;
        let mut effective = 0u64;
        let mut last_eff: i64 = -1;
        let mut replay = std::mem::take(&mut self.replay);
        {
            let mut delta = vec![0i64; self.k];
            for draw in &replay {
                let (a, b) = self.csr.endpoints(draw.edge as usize);
                self.dirty[a as usize / 64].fetch_and(!(1 << (a % 64)), Ordering::Relaxed);
                self.dirty[b as usize / 64].fetch_and(!(1 << (b % 64)), Ordering::Relaxed);
                let (i, j) = if draw.fwd {
                    (a as usize, b as usize)
                } else {
                    (b as usize, a as usize)
                };
                if apply_scratch(
                    &self.states,
                    &self.table,
                    &self.noop,
                    self.k,
                    i,
                    j,
                    &mut delta,
                ) {
                    effective += 1;
                    last_eff = last_eff.max(draw.pos as i64);
                }
            }
            for (c, d) in self.counts.iter_mut().zip(&delta) {
                *c = c.wrapping_add_signed(*d);
            }
        }
        replay.clear();
        self.replay = replay;

        // Merge the per-domain scratches into the engine totals.
        for d in 0..domains {
            let ds = self.dom_scratch[d]
                .get_mut()
                .expect("domain scratch poisoned");
            for (c, delta) in self.counts.iter_mut().zip(&ds.delta) {
                *c = c.wrapping_add_signed(*delta);
            }
            applied += ds.applied;
            effective += ds.effective;
            last_eff = last_eff.max(ds.last_eff);
        }

        // Clock exactness at stabilization: when the block leaves the
        // configuration silent, every draw after the final effective one
        // is a no-op with probability 1 and the scalar engines never
        // schedule them — charge the clock only up to that draw, so the
        // recorded stabilization time is exact to the interaction (not
        // rounded up to the block boundary). The position of the last
        // effective draw is trajectory-determined, so the truncation is
        // thread-count invariant like everything else here. Work counters
        // (`block_draws`, `block_applied`, `fallback_literal`) keep the
        // full block — those draws were derived and applied.
        let charged = if effective > 0 && self.protocol.is_silent(&self.counts) {
            (last_eff + 1) as u64
        } else {
            len as u64
        };
        self.interactions += charged;
        self.effective_interactions += effective;
        self.telemetry.scheduled += charged;
        self.telemetry.effective += effective;
        self.telemetry.blocks += 1;
        self.telemetry.block_draws += len as u64;
        self.telemetry.pair_draws += len as u64;
        self.telemetry.block_applied += applied;
        self.telemetry.fallback_literal += replay_len;
        if let Some(h) = &mut self.hist {
            h.block_size.add_u64(applied);
            h.fallback_run.add_u64(replay_len);
        }
        effective
    }

    /// Advance by at most `max` interactions: one position-derived dense
    /// block (taking one `block_seed` word from the driver RNG) or one
    /// sparse-phase advancement. Same clock-stop-on-silence contract as
    /// the scalar graph engines.
    pub fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        let out = self.advance_changed_impl(rng, max);
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
        loop {
            if let Some(s) = &self.sparse {
                if s.total() == 0 {
                    // Certified silent: the clock stops (see GraphSimulator).
                    return (advanced, false);
                }
                if s.should_exit_to_dense() {
                    self.exit_sparse();
                } else {
                    let t0 = self.telemetry.clock.start();
                    let (leapt, changed) = self.sparse_advance(rng, max - advanced);
                    self.telemetry.spans.sparse_ns += self.telemetry.clock.elapsed_ns(t0);
                    return (advanced + leapt, changed);
                }
            }
            // Dense phase: one position-derived block per loop turn, each
            // taking exactly one seed word from the driver RNG — the RNG
            // position stays a pure function of the trajectory, which is
            // what checkpoint/resume repositioning relies on.
            let len = (self.block as u64).min(max - advanced) as usize;
            let block_seed = rng.next();
            let t0 = self.telemetry.clock.start();
            let effective = self.dense_block(block_seed, len);
            self.telemetry.spans.dense_ns += self.telemetry.clock.elapsed_ns(t0);
            self.telemetry.dense_steps += len as u64;
            advanced += len as u64;
            if effective > 0 {
                self.noop_run = 0;
                return (advanced, true);
            }
            self.noop_run = self.noop_run.saturating_add(len as u32);
            if self.noop_run >= SPARSE_TRIGGER_NOOPS {
                // Escalate: the next loop turn skips geometrically (or
                // certifies silence).
                self.enter_sparse();
            }
            if advanced >= max {
                return (advanced, false);
            }
        }
    }
}

/// BFS visitation order from vertex 0 (continuing from the smallest
/// unvisited vertex on disconnected graphs), neighbours in incidence order:
/// `order[new_id] = old_id`.
fn bfs_order(n: usize, adjacency: &Adjacency) -> Vec<u32> {
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut head = 0usize;
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        order.push(root as u32);
        while head < order.len() {
            let v = order[head] as usize;
            head += 1;
            for &(nb, _) in adjacency.incident(v, &mut [(0, 0); 4]) {
                if !seen[nb as usize] {
                    seen[nb as usize] = true;
                    order.push(nb);
                }
            }
        }
    }
    order
}

impl<P: Protocol> Simulator for ParGraphSimulator<P> {
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
        ParGraphSimulator::step(self, rng)
    }

    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        ParGraphSimulator::advance_changed(self, rng, max)
    }

    fn is_silent(&self) -> bool {
        ParGraphSimulator::is_silent(self)
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
        // Graph structure, decomposition, and tables are
        // constructor-derived (the BFS renumbering is deterministic, so a
        // restored engine reproduces them); the mutable state is the
        // internal-order agent states, the clocks, the no-op accumulator,
        // and the live skipper. Scratch buffers are per-block transient —
        // snapshots only happen at block boundaries, where they are empty.
        w.put_u8(snapshot_tags::PAR_GRAPH);
        snapshot_tags::write_config(w, self.states.len() as u64, self.k);
        let states: Vec<u32> = self
            .states
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();
        w.put_u32_slice(&states);
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
        snapshot_tags::expect(r, snapshot_tags::PAR_GRAPH, "pargraph")?;
        snapshot_tags::expect_config(r, self.states.len() as u64, self.k)?;
        let states = r.get_u32_vec()?;
        if states.len() != self.states.len() {
            return Err(CheckpointError::Corrupt(format!(
                "pargraph snapshot has {} agents (engine has {})",
                states.len(),
                self.states.len()
            )));
        }
        let mut counts = vec![0u64; self.k];
        for &s in &states {
            if (s as usize) >= self.k {
                return Err(CheckpointError::Corrupt(format!(
                    "agent state index {s} out of range ({} states)",
                    self.k
                )));
            }
            counts[s as usize] += 1;
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
        for (slot, &s) in self.states.iter().zip(&states) {
            slot.store(s, Ordering::Relaxed);
        }
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OneWayEpidemic;

    fn epidemic_on(
        graph: &Graph,
        infected: usize,
        threads: usize,
    ) -> ParGraphSimulator<OneWayEpidemic> {
        let mut states = vec![1usize; graph.n()];
        for s in states.iter_mut().take(infected) {
            *s = 0;
        }
        ParGraphSimulator::new(OneWayEpidemic, graph, states, threads)
    }

    fn counts_trajectory(
        graph: &Graph,
        threads: usize,
        seed: u64,
        max_calls: usize,
        hist: bool,
    ) -> Vec<Vec<u64>> {
        let mut sim = epidemic_on(graph, graph.n() / 10 + 1, threads);
        Simulator::set_histograms(&mut sim, hist);
        let mut rng = SimRng::new(seed);
        let mut traj = vec![sim.counts().to_vec()];
        for _ in 0..max_calls {
            if sim.is_silent() {
                break;
            }
            let (advanced, _) = sim.advance_changed(&mut rng, u64::MAX / 2);
            traj.push(sim.counts().to_vec());
            if advanced == 0 {
                break;
            }
        }
        traj
    }

    #[test]
    fn trajectories_bit_identical_across_thread_counts() {
        for graph in [Graph::cycle(600), Graph::grid(24, 25)] {
            let reference = counts_trajectory(&graph, 1, 99, 400, false);
            for threads in [2usize, 8] {
                assert_eq!(
                    counts_trajectory(&graph, threads, 99, 400, false),
                    reference,
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn renumbering_preserves_initial_counts_and_layout_multiset() {
        let g = Graph::grid(10, 10);
        let mut states = vec![1usize; 100];
        states[37] = 0;
        states[62] = 0;
        let sim = ParGraphSimulator::new(OneWayEpidemic, &g, states, 4);
        assert_eq!(sim.counts(), &[2, 98]);
        // The BFS renumbering permutes, never duplicates or drops.
        let internal: u64 = (0..100).map(|v| (sim.state_of(v) == 0) as u64).sum();
        assert_eq!(internal, 2);
    }

    #[test]
    fn domains_are_aligned_and_cover_the_vertex_range() {
        let g = Graph::cycle(20_000);
        let sim = epidemic_on(&g, 1, 4);
        let cuts = &sim.dom_start;
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().unwrap() as usize, 20_000);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &cuts[..cuts.len() - 1] {
            assert_eq!(c % 64, 0, "unaligned cut {c}");
        }
        assert_eq!(sim.domains(), domain_count(20_000));
        // BFS order walks the cycle outward from vertex 0, so domains are
        // one or two contiguous arcs each: a handful of boundary edges, a
        // vanishing fraction of the 20 000.
        assert!(sim.boundary_edges() > 0);
        assert!(sim.boundary_edges() <= 2 * sim.domains());
    }

    #[test]
    fn epidemic_completes_and_counts_events() {
        let g = Graph::cycle(500);
        let mut sim = epidemic_on(&g, 1, 4);
        let mut rng = SimRng::new(1);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        assert_eq!(sim.counts(), &[500, 0]);
        assert_eq!(sim.effective_interactions(), 499);
        assert_eq!(sim.active_weight(), 0);
    }

    #[test]
    fn effective_clock_matches_scalar_graph_engine_in_distribution() {
        // Same law as the scalar engine: mean completion interactions of
        // the epidemic agree within a few percent across seeds.
        let reps = 60u64;
        let mut par_mean = 0.0;
        let mut scalar_mean = 0.0;
        for seed in 0..reps {
            let g = Graph::cycle(64);
            let mut sim = epidemic_on(&g, 1, 4);
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
            }
            par_mean += sim.interactions() as f64;

            let g = Graph::cycle(64);
            let mut states = vec![1usize; 64];
            states[0] = 0;
            let mut sim = crate::simulator::GraphSimulator::new(OneWayEpidemic, &g, states);
            let mut rng = SimRng::new(seed + 55_000);
            while !sim.is_silent() {
                sim.advance_changed(&mut rng, u64::MAX / 2);
            }
            scalar_mean += sim.interactions() as f64;
        }
        par_mean /= reps as f64;
        scalar_mean /= reps as f64;
        let rel = (par_mean - scalar_mean).abs() / scalar_mean;
        assert!(rel < 0.08, "pargraph {par_mean} vs graph {scalar_mean}");
    }

    #[test]
    fn advance_respects_max_and_truncates_exactly() {
        let g = Graph::cycle(1000);
        let mut sim = epidemic_on(&g, 1, 4);
        let mut rng = SimRng::new(3);
        for max in [1u64, 7, 100, 10_000] {
            let before = sim.interactions();
            let (advanced, _) = sim.advance_changed(&mut rng, max);
            assert!(advanced >= 1 && advanced <= max, "advanced {advanced}");
            assert_eq!(sim.interactions() - before, advanced);
        }
    }

    #[test]
    fn telemetry_mirrors_clocks_and_counts_blocks() {
        let g = Graph::grid(20, 20);
        let mut sim = epidemic_on(&g, 4, 4);
        let mut rng = SimRng::new(21);
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        let t = Simulator::telemetry(&sim);
        assert_eq!(t.scheduled, sim.interactions());
        assert_eq!(t.effective, sim.effective_interactions());
        assert!(t.blocks > 0, "no dense blocks ran");
        assert_eq!(t.block_draws, t.block_applied + t.fallback_literal);
        assert_eq!(t.spans, crate::telemetry::SpanSet::new());
    }

    #[test]
    fn histograms_do_not_perturb_the_trajectory() {
        let g = Graph::cycle(600);
        let bare = counts_trajectory(&g, 4, 7, 400, false);
        assert_eq!(counts_trajectory(&g, 4, 7, 400, true), bare);
    }

    #[test]
    fn sparse_phase_invariants_hold_across_advancements() {
        let g = Graph::cycle(2_048);
        let mut sim = epidemic_on(&g, 1, 4);
        let mut rng = SimRng::new(13);
        let mut entered = false;
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            sim.validate_sparse_invariants().unwrap();
            entered |= sim.sparse.is_some();
        }
        assert!(entered, "creeping frontier never reached the sparse phase");
    }

    #[test]
    fn silent_configuration_stops_the_clock() {
        let g = Graph::cycle(640);
        let mut sim = epidemic_on(&g, 640, 4); // everyone infected: silent
        assert!(sim.is_silent());
        let mut rng = SimRng::new(4);
        let (first, changed) = sim.advance_changed(&mut rng, 50_000);
        assert!(!changed);
        assert!(first <= 50_000);
        let clock = sim.interactions();
        let (second, changed) = sim.advance_changed(&mut rng, 50_000);
        assert_eq!((second, changed), (0, false));
        assert_eq!(sim.interactions(), clock);
        assert_eq!(sim.effective_interactions(), 0);
    }

    #[test]
    fn disconnected_graph_freezes_with_mixed_counts() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        let mut states = vec![1usize; 4];
        states[0] = 0;
        let mut sim = ParGraphSimulator::new(OneWayEpidemic, &g, states, 2);
        let mut rng = SimRng::new(5);
        let mut guard = 0;
        while !sim.is_silent() {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            guard += 1;
            assert!(guard < 1000);
        }
        assert_eq!(sim.counts(), &[2, 2]);
    }

    #[test]
    fn snapshot_roundtrip_resumes_bit_identically() {
        let g = Graph::grid(24, 25);
        let mut sim = epidemic_on(&g, 6, 4);
        let mut rng = SimRng::new(17);
        for _ in 0..5 {
            sim.advance_changed(&mut rng, u64::MAX / 2);
        }
        let mut w = SnapshotWriter::new();
        Simulator::snapshot_state(&sim, &mut w).unwrap();
        let bytes = w.into_bytes();
        let rng_state = rng.state();

        // Continue the original.
        let mut expect = Vec::new();
        for _ in 0..10 {
            sim.advance_changed(&mut rng, u64::MAX / 2);
            expect.push(sim.counts().to_vec());
        }

        // Restore into a fresh engine (different thread count, same
        // trajectory) and replay.
        let mut fresh = epidemic_on(&g, 6, 8);
        let mut r = SnapshotReader::new(&bytes);
        Simulator::restore_state(&mut fresh, &mut r).unwrap();
        let mut rng2 = SimRng::from_state(rng_state).unwrap();
        for want in &expect {
            fresh.advance_changed(&mut rng2, u64::MAX / 2);
            assert_eq!(&fresh.counts().to_vec(), want);
        }
    }

    #[test]
    fn restore_rejects_wrong_engine_tag() {
        let g = Graph::cycle(64);
        let scalar = {
            let mut states = vec![1usize; 64];
            states[0] = 0;
            crate::simulator::GraphSimulator::new(OneWayEpidemic, &g, states)
        };
        let mut w = SnapshotWriter::new();
        Simulator::snapshot_state(&scalar, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut sim = epidemic_on(&g, 1, 2);
        let mut r = SnapshotReader::new(&bytes);
        assert!(Simulator::restore_state(&mut sim, &mut r).is_err());
    }

    #[test]
    #[should_panic(expected = "needs edges")]
    fn empty_graph_rejected() {
        let g = Graph::from_edges(3, vec![]);
        ParGraphSimulator::new(OneWayEpidemic, &g, vec![0, 1, 1], 2);
    }

    #[test]
    #[should_panic(expected = "vertex count")]
    fn state_count_mismatch_rejected() {
        let g = Graph::cycle(3);
        ParGraphSimulator::new(OneWayEpidemic, &g, vec![0, 1], 2);
    }
}
