//! Batch-leaping exact simulator.
//!
//! # The collision-aware batching idea
//!
//! Under the uniform clique scheduler the sequence of ordered agent pairs
//! is i.i.d. As long as no agent appears twice — a *collision-free* run of
//! interactions — the interacting agents' states at interaction time equal
//! their states at the start of the run, so the whole block can be sampled
//! at once from the initial counts and applied count-wise (disjoint agents
//! ⇒ commuting updates). The algorithm, per batch:
//!
//! 1. **Collision horizon.** The index `T` of the first interaction that
//!    reuses an agent follows the birthday-style law
//!    `P[T > t] = n! / ((n−2t)! · (n(n−1))^t)`, sampled exactly by
//!    inverse-CDF bisection on the log-survival function (log-gamma from
//!    `sim-stats`). The horizon is truncated at a cap (see *Exactness*).
//! 2. **Drawing the block.** The `2L` distinct agents of the
//!    collision-free prefix are a uniform ordered draw without replacement
//!    from the population. One of two exact samplers of that law is chosen
//!    from the block alone (`2L` against `c·k²`, see [`SHORT_BLOCK_C`]):
//!    * *short blocks* draw the agents one by one in schedule order
//!      (initiator, responder, …) with [`ScheduleSampler`]: a uniform agent
//!      index maps to its block-start state through a guide table over the
//!      cumulative counts and is redrawn if that agent was already drawn —
//!      O(L) draws, no hypergeometric split and no table;
//!    * *long blocks* draw the participants' per-state counts (a
//!      multivariate hypergeometric), which `L` of them initiate (another
//!      hypergeometric split), and then the table `M[i][j]` of ordered
//!      state-pair counts — the "multinomial split" of the batch — row by
//!      row: the sequential chain rule for k < 16, position-derived tree
//!      streams (optionally threaded) for k ≥ 16 — O(k²) cells, cheap next
//!      to a long block.
//! 3. **Transitions.** A short block applies `f(i, j)` to each drawn
//!    pair; a long block applies each `(i, j)` with `M[i][j] = m` `m`
//!    times. Either way the updates go to the counts, and no-op pairs only
//!    advance the clock.
//! 4. **Collision interaction.** If `T` landed inside the cap, the
//!    colliding interaction is simulated individually from the exact
//!    conditional law (at least one participant among the batch's agents,
//!    whose post-transition states are known as counts).
//!
//! Each batch therefore costs O(min(L, k²)) draws, an O(k²)-addition
//! effective-weight scan and an O(log n) horizon bisection for a block of
//! L ≈ √n interactions: sub-constant work per interaction, and never more
//! draws than the block has agents.
//!
//! # No-op-dominated phases
//!
//! Near absorbing boundaries almost every interaction is a no-op and a
//! batch of √n interactions contains barely any events, so leaping stops
//! paying. There the simulator switches to *geometric skip-ahead*: the
//! number of no-ops before the next effective interaction is geometric
//! with the exact effective-pair probability of the current configuration,
//! and the effective interaction is drawn from the exact conditional
//! pair law, for any protocol. The switch is purely a cost-model decision — both engines
//! simulate the same chain.
//!
//! # Exactness
//!
//! Every sampling step above follows the exact conditional law of the
//! agent-level chain (up to `f64` evaluation of log-gamma CDFs, the same
//! class of rounding as any geometric inversion), so the
//! induced chain on count configurations is the `CountSimulator` chain —
//! verified distributionally in `tests/simulator_equivalence.rs`.
//!
//! Stop predicates are evaluated at batch boundaries. For *stabilization*
//! the timing is nevertheless exact for any protocol whose silent
//! configurations are monochromatic (USD, epidemics, majority dynamics…):
//! reaching silence from a configuration with `r = n − max_count` active
//! agents requires changing at least `r` agents, and the batch length is
//! capped so a batch plus its collision interaction touches at most `r − 1`
//! agents — silence can therefore never happen strictly inside a batch,
//! only at its boundary, where it is observed immediately. For exotic
//! protocols with non-monochromatic silent configurations, silence may be
//! reported up to one batch (~√n interactions) late.

use crate::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};
use crate::config::CountConfig;
use crate::protocol::Protocol;
use crate::simulator::{snapshot_tags, Simulator};
use crate::telemetry::timeline::EventHistograms;
use crate::telemetry::EngineTelemetry;
use sim_stats::binomial::ln_factorial;
use sim_stats::multinomial::{
    hypergeometric_pairing_table, multivariate_hypergeometric, ScheduleSampler,
};
use sim_stats::rng::SimRng;

/// Smallest batch worth the fixed sampling cost; below this the simulator
/// steps exactly.
const MIN_BATCH: u64 = 16;

/// State count from which the per-batch pairing table is sampled through
/// [`hypergeometric_pairing_table`]'s position-derived streams (tree-wise,
/// optionally threaded) instead of the sequential chain rule. Below this
/// the table is so small that the stream setup costs more than the rows;
/// the threshold depends only on `k`, so runs stay bit-identical for any
/// thread count either way.
const PAIR_TABLE_MIN_K: usize = 16;

/// Short-block crossover `c`: a batch of `L` interactions over `k` states
/// is drawn agent by agent in schedule order ([`ScheduleSampler`], O(L))
/// when `2L ≤ c·k²`, and through the participant hypergeometric, the
/// initiator split and the pairing table (O(k²) cells) above.
///
/// Measured on a 2-vCPU x86-64 VM (`--release`): `bench_sampling`'s
/// `pairing_paths` group draws whole blocks from a 10⁶-agent population,
/// the participants plus the table path against the schedule sampler,
/// per block: 0.48 vs 0.20 µs at k = 2, L = 16 (2L = 8k², the rule's
/// edge); 1.4 vs 7.2 µs at k = 2, L = 666 (a long block, where the table
/// wins); 15 vs 0.43 µs at k = 32, L = 16; 90 vs 7.8 µs at k = 32,
/// L = 666. The participants plus a Fisher–Yates shuffle of their slots,
/// the short path this sampler replaced, took 0.45, 5.6, 5.3 and 16 µs on
/// the same cells, so the short path got faster on every cell the rule
/// sends to it. `c = 8` is unchanged: the k = 2 cells put the crossover
/// somewhere in 8 < 2L/k² < 333, and a retune waits for an in-regime
/// benchmark workload. The rule reads only the block, so runs stay
/// bit-identical for any thread count.
const SHORT_BLOCK_C: u64 = 8;

/// Whether a batch of `length` interactions over `k` states takes the
/// short path (see [`SHORT_BLOCK_C`]).
#[inline]
fn short_block(length: u64, k: usize) -> bool {
    2 * length <= SHORT_BLOCK_C * (k * k) as u64
}

/// Batch-leaping simulator for the uniform clique scheduler.
///
/// See the module docs for the algorithm. Construction mirrors
/// [`CountSimulator`](crate::simulator::CountSimulator); memory is O(k²)
/// for the cached transition table, plus the short path's scratch once a
/// batch takes it: at most 8k² schedule slots (`2L ≤ 8k²`) and O(k)
/// cumulative and guide entries.
///
/// Observation granularity
/// ([`advance_observed`](crate::Simulator::advance_observed)):
/// **checkpoint** — each advancement leaps a whole collision-free batch
/// (~√n interactions, shrinking near silence), so one observation
/// summarizes every effective event of the batch; intra-batch extrema and
/// crossing instants are resolved to the batch boundary.
#[derive(Debug, Clone)]
pub struct BatchSimulator<P: Protocol> {
    protocol: P,
    counts: Vec<u64>,
    n: u64,
    k: usize,
    interactions: u64,
    effective_interactions: u64,
    /// Cached `transition_indices` for all ordered state pairs
    /// (`table[i * k + j]`).
    table: Vec<(u32, u32)>,
    /// Whether `(i, j)` is a no-op (`noop[i * k + j]`).
    noop: Vec<bool>,
    /// Cached `ln(n!)` for the collision-horizon CDF.
    ln_fact_n: f64,
    /// Cached `ln(n(n−1))`.
    ln_pairs: f64,
    /// Worker-thread cap for the per-batch pairing-table rows (resolved
    /// once at construction from the process-wide `--threads`/`USD_THREADS`
    /// discipline; see [`BatchSimulator::with_threads`]). Never changes
    /// results — the row sampler's streams are position-derived — only
    /// wall clock.
    threads: usize,
    /// Engine telemetry: live counters here are `scheduled`/`effective`
    /// (mirroring the clocks), `blocks`/`block_draws` (batches leapt and
    /// the scheduled draws they covered), `block_applied` (effective
    /// interactions applied count-wise inside batches),
    /// `fallback_literal` (effective collision interactions simulated
    /// individually), `table_draws` (multivariate hypergeometric draws:
    /// none on a short batch, two plus the pairing rows on a long one),
    /// `skip_draws` (geometric skip-ahead draws), `dense_steps` and
    /// `pair_draws` (single-step and conditional-pair draws). No spans.
    telemetry: EngineTelemetry,
    /// Per-event histograms (opt-in): geometric skip lengths, per-batch
    /// effective block sizes, and collision fallbacks.
    hist: Option<Box<EventHistograms>>,
    /// The short-block sampler's cumulative and guide buffers: empty
    /// until the first short block grows them, and meaningless between
    /// blocks.
    schedule: ScheduleSampler,
    /// A short block's 2L agent states in schedule order (initiator,
    /// responder, …): scratch like `schedule`.
    pair_slots: Vec<u32>,
}

impl<P: Protocol> BatchSimulator<P> {
    /// Create from a count configuration. Requires n ≥ 2.
    pub fn new(protocol: P, config: &CountConfig) -> Self {
        assert_eq!(
            config.num_states(),
            protocol.num_states(),
            "configuration does not match protocol state count"
        );
        assert!(config.n() >= 2, "need at least 2 agents");
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
        let n = config.n();
        let nf = n as f64;
        BatchSimulator {
            protocol,
            counts: config.counts().to_vec(),
            n,
            k,
            interactions: 0,
            effective_interactions: 0,
            table,
            noop,
            ln_fact_n: ln_factorial(n),
            ln_pairs: nf.ln() + (nf - 1.0).ln(),
            threads: sim_stats::threads::resolve_threads(),
            telemetry: EngineTelemetry::new(),
            hist: None,
            schedule: ScheduleSampler::new(),
            pair_slots: Vec::new(),
        }
    }

    /// Cap the worker threads used for the per-batch pairing-table rows
    /// (default: the process-wide resolution at construction time).
    /// Thread count is bit-neutral: any value produces identical runs.
    /// `RunSpec::threads` resolves the value once and passes it here.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Per-state counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Current count configuration (copies counts).
    pub fn config(&self) -> CountConfig {
        CountConfig::from_counts(self.counts.clone())
    }

    /// Total interactions simulated.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Interactions that changed the configuration.
    pub fn effective_interactions(&self) -> u64 {
        self.effective_interactions
    }

    /// Parallel time elapsed (= interactions / n).
    pub fn parallel_time(&self) -> f64 {
        self.interactions as f64 / self.n as f64
    }

    /// Whether the configuration is silent.
    pub fn is_silent(&self) -> bool {
        for (i, &ci) in self.counts.iter().enumerate() {
            if ci == 0 {
                continue;
            }
            for (j, &cj) in self.counts.iter().enumerate() {
                if cj == 0 || (i == j && ci < 2) {
                    continue;
                }
                if !self.noop[i * self.k + j] {
                    return false;
                }
            }
        }
        true
    }

    /// Sample a state index ∝ `weights` by linear scan (k is small).
    #[inline]
    fn pick_state(weights: &[u64], rng: &mut SimRng, total: u64) -> usize {
        debug_assert!(total > 0);
        let mut r = rng.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        unreachable!("categorical scan exhausted weights");
    }

    /// Apply `f(si, sj)` to the counts; returns whether anything changed.
    #[inline]
    fn apply_pair(&mut self, si: usize, sj: usize) -> bool {
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
        true
    }

    /// Simulate exactly one interaction (the `CountSimulator` law, via
    /// linear-scan sampling); returns whether it changed the configuration.
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        self.interactions += 1;
        self.telemetry.scheduled += 1;
        self.telemetry.dense_steps += 1;
        self.telemetry.pair_draws += 1;
        let si = Self::pick_state(&self.counts, rng, self.n);
        self.counts[si] -= 1;
        let sj = Self::pick_state(&self.counts, rng, self.n - 1);
        self.counts[si] += 1;
        self.apply_pair(si, sj)
    }

    /// Total weight of ordered *effective* (non-no-op) agent pairs, and of
    /// all ordered pairs, as exact 128-bit integers: per row `i`, `cᵢ`
    /// times the row's effective column total, less the `cᵢ` self-pairs an
    /// effective diagonal `(i, i)` cannot form.
    fn effective_pair_weight(&self) -> (u128, u128) {
        let k = self.k;
        let mut eff: u128 = 0;
        for (i, &ci) in self.counts.iter().enumerate() {
            if ci == 0 {
                continue;
            }
            let noop = &self.noop[i * k..(i + 1) * k];
            let row: u64 = self
                .counts
                .iter()
                .zip(noop)
                .map(|(&cj, &skip)| if skip { 0 } else { cj })
                .sum();
            eff += ci as u128 * row as u128;
            if !noop[i] {
                eff -= ci as u128;
            }
        }
        let total = self.n as u128 * (self.n as u128 - 1);
        (eff, total)
    }

    /// Geometric skip-ahead: jump over the no-ops preceding the next
    /// effective interaction and simulate that interaction from the exact
    /// conditional pair law. Advances at most `max` interactions; if the
    /// skip overshoots `max`, the clock advances by exactly `max` no-ops
    /// (a truncated geometric — still exact). Returns interactions
    /// advanced and whether the counts changed. Must not be called on a
    /// silent configuration.
    ///
    /// `(eff, total)` is the caller's already-computed
    /// [`effective_pair_weight`](Self::effective_pair_weight) — the caller
    /// always has it (it decided to skip rather than batch with it), and
    /// re-scanning here would double the O(k²) cost of the hot fallback.
    fn skip_step(&mut self, rng: &mut SimRng, max: u64, eff: u128, total: u128) -> (u64, bool) {
        debug_assert!(eff > 0, "skip_step on a silent configuration");
        let p_eff = (eff as f64 / total as f64).min(1.0);
        self.telemetry.skip_draws += 1;
        let skipped = rng.geometric(p_eff);
        if let Some(h) = &mut self.hist {
            // Every draw is a genuine Geom(p_eff) sample, horizon
            // truncation included (memorylessness makes the redraw exact).
            h.skip_len.add_u64(skipped);
        }
        if skipped >= max {
            // The effective interaction lands beyond the horizon: the
            // first `max` interactions are conditionally all no-ops.
            self.interactions += max;
            self.telemetry.scheduled += max;
            return (max, false);
        }
        self.interactions += skipped + 1;
        self.telemetry.scheduled += skipped + 1;
        self.telemetry.pair_draws += 1;

        // Sample the effective ordered pair (i, j) ∝ cᵢ(cⱼ − [i=j]) over
        // non-no-op pairs.
        let mut r = rng.below_u128(eff);
        for (i, &ci) in self.counts.iter().enumerate() {
            if ci == 0 {
                continue;
            }
            for (j, &cj) in self.counts.iter().enumerate() {
                if self.noop[i * self.k + j] {
                    continue;
                }
                let pairs = if i == j {
                    ci as u128 * (cj as u128 - 1)
                } else {
                    ci as u128 * cj as u128
                };
                if r < pairs {
                    self.apply_pair(i, j);
                    return (skipped + 1, true);
                }
                r -= pairs;
            }
        }
        unreachable!("effective-pair scan exhausted weights");
    }

    /// Log-survival `ln P[first t interactions are collision-free]`.
    #[inline]
    fn ln_survival(&self, t: u64) -> f64 {
        self.ln_fact_n - ln_factorial(self.n - 2 * t) - t as f64 * self.ln_pairs
    }

    /// Sample the truncated collision horizon: returns the number of
    /// collision-free interactions `L ≤ cap` and whether a collision
    /// occurs at interaction `L + 1` (false means the horizon was clear
    /// through `cap`).
    fn sample_collision_horizon(&self, rng: &mut SimRng, cap: u64) -> (u64, bool) {
        debug_assert!(2 * cap < self.n);
        let ln_u = loop {
            let u = rng.f64();
            if u > 0.0 {
                break u.ln();
            }
        };
        if ln_u <= self.ln_survival(cap) {
            return (cap, false);
        }
        // First collision index T = min { t ≥ 1 : ln P[T > t] < ln u }.
        // P[T > 1] = 1 (two distinct agents never self-collide), so T ≥ 2.
        let (mut lo, mut hi) = (1u64, cap); // invariant: G(lo) ≥ u > G(hi)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if ln_u <= self.ln_survival(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (hi - 1, true)
    }

    /// Sample and apply one collision-free batch of `length` interactions.
    /// Returns the batch participants' post-transition state counts (the
    /// `2·length` agents involved).
    fn apply_batch(&mut self, rng: &mut SimRng, length: u64) -> Vec<u64> {
        let k = self.k;
        let applied_before = self.telemetry.block_applied;
        self.telemetry.blocks += 1;
        self.telemetry.block_draws += length;
        let mut post = vec![0u64; k];
        if short_block(length, k) {
            // 2–3. A block short next to the k² state pairs: draw its 2L
            // agents one by one in schedule order (initiator, responder,
            // …), then apply each drawn pair's transition — O(L) draws,
            // no participant split and no table.
            let drawn =
                self.schedule
                    .sample(rng, &self.counts, 2 * length as usize, &mut self.pair_slots);
            for (c, &m) in self.counts.iter_mut().zip(drawn) {
                *c -= m;
            }
            let mut effective = 0;
            for pair in self.pair_slots.chunks_exact(2) {
                let cell = pair[0] as usize * k + pair[1] as usize;
                let (ti, tj) = self.table[cell];
                post[ti as usize] += 1;
                post[tj as usize] += 1;
                effective += u64::from(!self.noop[cell]);
            }
            self.effective_interactions += effective;
            self.telemetry.effective += effective;
            self.telemetry.block_applied += effective;
        } else {
            // 2. A long block: the per-state counts of its 2L distinct
            // agents, drawn without replacement.
            let participants = multivariate_hypergeometric(rng, &self.counts, 2 * length);
            self.telemetry.table_draws += 1;
            // Remove all participants; they re-enter with post-transition
            // states.
            for (c, &m) in self.counts.iter_mut().zip(participants.iter()) {
                *c -= m;
            }
            // Initiator / responder split, then the pairing-table rows.
            let initiators = multivariate_hypergeometric(rng, &participants, length);
            self.telemetry.table_draws += 1;
            let mut responders: Vec<u64> = participants
                .iter()
                .zip(initiators.iter())
                .map(|(&m, &a)| m - a)
                .collect();
            if k >= PAIR_TABLE_MIN_K {
                // Large alphabets: sample the whole table from
                // position-derived streams under a master drawn here — the
                // rows dominate the batch cost at this size, and the tree
                // decomposition fans them out over `self.threads` workers
                // with bit-identical results for any thread count.
                let pairing = hypergeometric_pairing_table(
                    rng.next(),
                    &initiators,
                    &responders,
                    self.threads,
                );
                self.telemetry.table_draws += k as u64;
                self.apply_cells(0, &pairing, &mut post);
            } else {
                // Small alphabets: the sequential chain rule row by row —
                // the same law with cheaper constants (no per-subtree
                // stream setup) at a size where parallelism could never
                // pay.
                let mut remaining = length;
                for (i, &a_i) in initiators.iter().enumerate() {
                    if a_i == 0 {
                        continue;
                    }
                    let row = if a_i == remaining {
                        std::mem::take(&mut responders)
                    } else {
                        self.telemetry.table_draws += 1;
                        let row = multivariate_hypergeometric(rng, &responders, a_i);
                        for (b, &r) in responders.iter_mut().zip(row.iter()) {
                            *b -= r;
                        }
                        row
                    };
                    remaining -= a_i;
                    self.apply_cells(i * k, &row, &mut post);
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        for (c, &p) in self.counts.iter_mut().zip(post.iter()) {
            *c += p;
        }
        self.interactions += length;
        self.telemetry.scheduled += length;
        if let Some(h) = &mut self.hist {
            h.block_size
                .add_u64(self.telemetry.block_applied - applied_before);
        }
        post
    }

    /// Step 3 of a long block: apply `f(i, j)` count-wise to a run of
    /// pairing-table cells starting at row-major cell `first` — `cells[c]`
    /// interactions of the ordered state pair at cell `first + c`, whose
    /// post-transition states are added to `post`.
    fn apply_cells(&mut self, first: usize, cells: &[u64], post: &mut [u64]) {
        for (cell, &m) in (first..).zip(cells) {
            if m == 0 {
                continue;
            }
            let (ti, tj) = self.table[cell];
            post[ti as usize] += m;
            post[tj as usize] += m;
            if !self.noop[cell] {
                self.effective_interactions += m;
                self.telemetry.effective += m;
                self.telemetry.block_applied += m;
            }
        }
    }

    /// Simulate the colliding interaction that ended a batch whose
    /// participants now hold the states counted by `post`.
    fn apply_collision(&mut self, rng: &mut SimRng, post: &[u64]) {
        let used: u64 = post.iter().sum();
        let fresh = self.n - used;
        debug_assert!(used >= 2);
        // Ordered pair categories, excluding fresh–fresh (no collision):
        // used–used, used–fresh, fresh–used.
        let w_uu = used as u128 * (used as u128 - 1);
        let w_uf = used as u128 * fresh as u128;
        let draw = rng.below_u128(w_uu + 2 * w_uf);

        // Fresh agents' states: current counts minus the batch
        // participants' post states.
        let fresh_state = |counts: &[u64], rng: &mut SimRng| {
            let weights: Vec<u64> = counts
                .iter()
                .zip(post.iter())
                .map(|(&c, &p)| c - p)
                .collect();
            Self::pick_state(&weights, rng, fresh)
        };
        let (si, sj) = if draw < w_uu {
            // Two distinct used agents, without replacement from `post`.
            let mut post_minus = post.to_vec();
            let si = Self::pick_state(&post_minus, rng, used);
            post_minus[si] -= 1;
            let sj = Self::pick_state(&post_minus, rng, used - 1);
            (si, sj)
        } else if draw < w_uu + w_uf {
            let si = Self::pick_state(post, rng, used);
            let sj = fresh_state(&self.counts, rng);
            (si, sj)
        } else {
            let si = fresh_state(&self.counts, rng);
            let sj = Self::pick_state(post, rng, used);
            (si, sj)
        };
        self.interactions += 1;
        self.telemetry.scheduled += 1;
        self.telemetry.pair_draws += 1;
        if self.apply_pair(si, sj) {
            // The colliding interaction is the batch engine's literal
            // single-event fallback.
            self.telemetry.fallback_literal += 1;
            if let Some(h) = &mut self.hist {
                h.fallback_run.add_u64(1);
            }
        }
    }

    /// Advance by at most `max` interactions using the cheapest exact
    /// mechanism for the current configuration (batch leap, geometric
    /// skip, or a single step). Returns interactions advanced.
    pub fn advance(&mut self, rng: &mut SimRng, max: u64) -> u64 {
        self.advance_changed(rng, max).0
    }

    /// [`BatchSimulator::advance`], additionally reporting whether the
    /// counts changed — run drivers use the flag to skip stop/silence
    /// re-evaluation after provably-no-op advancements.
    pub fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        if max == 0 {
            return (0, false);
        }
        let (eff, total) = self.effective_pair_weight();
        if eff == 0 {
            // Silent: every remaining interaction is provably a no-op, so
            // the whole horizon can be charged to the clock at once.
            self.interactions += max;
            self.telemetry.scheduled += max;
            return (max, false);
        }
        // Distance guard: a batch of length L plus its collision touches
        // ≤ 2(L+1) agents, while monochromatic silence needs ≥ r changes.
        let r = self.n - self.counts.iter().max().copied().unwrap_or(0);
        let cap = ((r.saturating_sub(3)) / 2)
            .min(max.saturating_sub(1))
            .min((self.n - 1) / 2);
        if cap < MIN_BATCH {
            return self.skip_step(rng, max, eff, total);
        }
        // Cost model: a batch advances ≈ min(cap, 0.6√n) interactions; a
        // geometric skip advances ≈ total/eff. Prefer the bigger leap.
        let expected_skip = (total / eff.max(1)) as u64;
        let horizon = (0.6 * (self.n as f64).sqrt()) as u64;
        if expected_skip > cap.min(horizon.max(1)) {
            return self.skip_step(rng, max, eff, total);
        }
        let effective_before = self.effective_interactions;
        let (length, collided) = self.sample_collision_horizon(rng, cap);
        let post = self.apply_batch(rng, length);
        let advanced = if collided {
            self.apply_collision(rng, &post);
            length + 1
        } else {
            length
        };
        (advanced, self.effective_interactions > effective_before)
    }

    /// Run until `stop` returns true on the counts, silence, or `budget`
    /// interactions; returns interactions simulated by this call. See
    /// [`Simulator::run_until`] for the boundary-evaluation contract.
    pub fn run(
        &mut self,
        rng: &mut SimRng,
        budget: u64,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> u64 {
        let start = self.interactions;
        if stop(self) || self.is_silent() {
            return 0;
        }
        loop {
            let done = self.interactions - start;
            if done >= budget {
                return done;
            }
            let (advanced, changed) = self.advance_changed(rng, budget - done);
            if advanced == 0 {
                return done;
            }
            if changed && (stop(self) || self.is_silent()) {
                return self.interactions - start;
            }
        }
    }
}

impl<P: Protocol> Simulator for BatchSimulator<P> {
    fn population(&self) -> u64 {
        self.n
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
        BatchSimulator::step(self, rng)
    }

    fn advance_changed(&mut self, rng: &mut SimRng, max: u64) -> (u64, bool) {
        BatchSimulator::advance_changed(self, rng, max)
    }

    fn is_silent(&self) -> bool {
        BatchSimulator::is_silent(self)
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
    }

    fn histograms(&self) -> Option<EventHistograms> {
        self.hist.as_deref().cloned()
    }

    fn snapshot_state(&self, w: &mut SnapshotWriter) -> Result<(), CheckpointError> {
        // Everything else in the struct (transition table, no-op mask,
        // log-factorial constants, thread count) is a pure function of the
        // constructor arguments, and the schedule sampler and its slots are
        // per-batch scratch, so counts + clocks + telemetry are the
        // complete mutable state.
        w.put_u8(snapshot_tags::BATCH);
        snapshot_tags::write_config(w, self.n, self.k);
        w.put_u64_slice(&self.counts);
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
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), CheckpointError> {
        snapshot_tags::expect(r, snapshot_tags::BATCH, "batch")?;
        snapshot_tags::expect_config(r, self.n, self.k)?;
        let counts = r.get_u64_vec()?;
        if counts.len() != self.k {
            return Err(CheckpointError::Corrupt(format!(
                "batch snapshot has {} states (engine has {})",
                counts.len(),
                self.k
            )));
        }
        if counts.iter().sum::<u64>() != self.n {
            return Err(CheckpointError::Corrupt(
                "batch snapshot does not sum to the population".into(),
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
        self.counts = counts;
        self.interactions = interactions;
        self.effective_interactions = effective_interactions;
        self.telemetry = telemetry;
        self.hist = hist;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OneWayEpidemic;

    fn epidemic(n: u64, infected: u64) -> BatchSimulator<OneWayEpidemic> {
        BatchSimulator::new(
            OneWayEpidemic,
            &CountConfig::from_counts(vec![infected, n - infected]),
        )
    }

    #[test]
    fn population_conserved_across_batches() {
        let mut sim = epidemic(10_000, 100);
        let mut rng = SimRng::new(1);
        while !sim.is_silent() {
            sim.advance(&mut rng, u64::MAX / 2);
            assert_eq!(sim.counts().iter().sum::<u64>(), 10_000);
            assert!(sim.interactions() < 100_000_000, "runaway epidemic");
        }
        assert_eq!(sim.counts(), &[10_000, 0]);
    }

    #[test]
    fn exact_step_matches_count_law_invariants() {
        let mut sim = epidemic(50, 25);
        let mut rng = SimRng::new(2);
        for _ in 0..5_000 {
            sim.step(&mut rng);
        }
        assert_eq!(sim.interactions(), 5_000);
        // Exactly 25 infections can ever happen.
        assert_eq!(sim.effective_interactions(), 25);
        assert_eq!(sim.counts(), &[50, 0]);
    }

    #[test]
    fn advance_respects_max() {
        let mut sim = epidemic(100_000, 1_000);
        let mut rng = SimRng::new(3);
        for max in [1u64, 7, 100, 1_000] {
            let before = sim.interactions();
            let advanced = sim.advance(&mut rng, max);
            assert!(
                advanced >= 1 && advanced <= max,
                "advanced {advanced} vs max {max}"
            );
            assert_eq!(sim.interactions() - before, advanced);
        }
    }

    #[test]
    fn silent_configuration_charges_clock_without_events() {
        let mut sim = epidemic(100, 100); // all infected: silent
        assert!(sim.is_silent());
        let mut rng = SimRng::new(4);
        let advanced = sim.advance(&mut rng, 12_345);
        assert_eq!(advanced, 12_345);
        assert_eq!(sim.interactions(), 12_345);
        assert_eq!(sim.effective_interactions(), 0);
    }

    #[test]
    fn effective_interactions_bounded_by_infections() {
        let mut sim = epidemic(100_000, 10);
        let mut rng = SimRng::new(5);
        while !sim.is_silent() {
            sim.advance(&mut rng, u64::MAX / 2);
        }
        // Each infection is one effective interaction.
        assert_eq!(sim.effective_interactions(), 100_000 - 10);
    }

    #[test]
    fn epidemic_completion_time_is_theta_n_log_n() {
        let n = 100_000u64;
        let mut total = 0.0;
        let reps = 5;
        for seed in 0..reps {
            let mut sim = epidemic(n, 1);
            let mut rng = SimRng::new(seed);
            while !sim.is_silent() {
                sim.advance(&mut rng, u64::MAX / 2);
            }
            total += sim.interactions() as f64;
        }
        let mean = total / reps as f64;
        let nf = n as f64;
        let theory = nf * nf.ln();
        assert!(
            mean > theory * 0.3 && mean < theory * 3.0,
            "mean {mean} vs theory {theory}"
        );
    }

    #[test]
    fn run_stops_at_predicate_boundary() {
        let mut sim = epidemic(10_000, 1);
        let mut rng = SimRng::new(6);
        sim.run(&mut rng, u64::MAX / 2, |s| s.counts()[0] >= 5_000);
        assert!(sim.counts()[0] >= 5_000);
        assert!(sim.counts()[0] < 10_000, "stop must fire before completion");
    }

    /// A k-state "maximum spreads" protocol (both agents leave with the
    /// larger state): the wide-alphabet counterpart of the epidemic,
    /// silent once every agent holds the largest present state.
    #[derive(Debug, Clone, Copy)]
    struct MaxSpread {
        k: usize,
    }

    impl Protocol for MaxSpread {
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

    /// Advance `sim` up to `advances` times (stopping at silence),
    /// checking every batch's multivariate hypergeometric draws against
    /// the path the crossover rule sends it to: none on the short path,
    /// the participants, the initiator split and the pairing rows on the
    /// table path. Returns the `(short, tabled)` batch counts.
    fn drive_checking_table_draws<P: Protocol>(
        sim: &mut BatchSimulator<P>,
        rng: &mut SimRng,
        advances: u64,
    ) -> (u64, u64) {
        let k = sim.k as u64;
        let (mut short, mut tabled) = (0, 0);
        for _ in 0..advances {
            if sim.is_silent() {
                break;
            }
            let before = sim.telemetry;
            sim.advance(rng, u64::MAX / 2);
            let after = sim.telemetry;
            let draws = after.table_draws - before.table_draws;
            if after.blocks == before.blocks {
                assert_eq!(draws, 0, "a skip or step drew a table");
                continue;
            }
            assert_eq!(after.blocks, before.blocks + 1);
            let length = after.block_draws - before.block_draws;
            if short_block(length, sim.k) {
                // The schedule sampler draws agents, not tables.
                assert_eq!(draws, 0, "short batch of {length}");
                short += 1;
            } else {
                if sim.k >= PAIR_TABLE_MIN_K {
                    // Participants, initiators, one tree row per state.
                    assert_eq!(draws, 2 + k, "tree-table batch of {length}");
                } else {
                    // Participants, initiators, every chain row but the
                    // last (which takes the remaining responders).
                    assert!((2..=1 + k).contains(&draws), "chain batch: {draws}");
                }
                tabled += 1;
            }
        }
        (short, tabled)
    }

    #[test]
    fn telemetry_mirrors_clocks_and_accounts_for_batches_and_skips() {
        // A full epidemic crosses batch leaping (bulk) and geometric
        // skip-ahead (endgame); the telemetry mirrors must track the
        // clocks exactly and the mechanism counters must account for the
        // run's structure.
        let mut sim = epidemic(100_000, 100);
        let mut rng = SimRng::new(23);
        let (short, tabled) = drive_checking_table_draws(&mut sim, &mut rng, u64::MAX);
        assert!(sim.is_silent());
        let t = Simulator::telemetry(&sim);
        assert_eq!(t.scheduled, sim.interactions());
        assert_eq!(t.effective, sim.effective_interactions());
        assert!(t.blocks >= 1, "no batches leapt");
        assert_eq!(t.blocks, short + tabled);
        assert!(tabled >= 1, "two states: long batches take the table");
        assert!(t.block_draws >= t.blocks);
        assert!(t.skip_draws >= 1, "endgame never skipped");
        // A short batch draws no table; a table batch draws participants
        // and initiators before any pairing rows.
        assert!(t.table_draws >= 2 * tabled);
        // Every effective interaction is a count-wise batch application, a
        // literal collision fallback, or a skip-ahead event.
        assert!(t.block_applied + t.fallback_literal <= t.effective);
        assert_eq!(t.spans, crate::telemetry::SpanSet::new());
    }

    #[test]
    fn each_pairing_path_draws_exactly_its_tables() {
        // Sixteen states at n = 10⁷: collision horizons (median ≈ 1870)
        // straddle the crossover 2L = 8·16², so one run takes both the
        // short path and the tree table.
        let k = 16;
        let n = 10_000_000u64;
        let mut sim = BatchSimulator::new(
            MaxSpread { k },
            &CountConfig::from_counts(vec![n / k as u64; k]),
        );
        let mut rng = SimRng::new(24);
        let (short, tabled) = drive_checking_table_draws(&mut sim, &mut rng, 300);
        assert!(short > 0 && tabled > 0, "{short} short, {tabled} tabled");
        let t = Simulator::telemetry(&sim);
        assert_eq!(t.table_draws, (2 + k as u64) * tabled);

        // At n = 10⁵ every batch is short next to k²: a whole run to
        // silence draws no table at all.
        let mut sim = BatchSimulator::new(
            MaxSpread { k },
            &CountConfig::from_counts(vec![100_000 / k as u64; k]),
        );
        let (short, tabled) = drive_checking_table_draws(&mut sim, &mut rng, u64::MAX);
        assert!(sim.is_silent());
        assert_eq!(sim.counts()[k - 1], 100_000);
        assert_eq!(tabled, 0);
        let t = Simulator::telemetry(&sim);
        assert_eq!(t.table_draws, 0);
        assert_eq!(t.blocks, short);
        assert!(short > 100, "only {short} batches");
    }

    /// The undecided state dynamics on `k` opinions (state `k` undecided),
    /// as `usd-core` defines it: a clash of two opinions leaves both
    /// undecided, and an undecided agent adopts its partner's opinion.
    #[derive(Debug, Clone, Copy)]
    struct Usd {
        k: usize,
    }

    impl Protocol for Usd {
        type State = usize;
        type Output = usize;

        fn num_states(&self) -> usize {
            self.k + 1
        }

        fn index_of(&self, state: usize) -> usize {
            state
        }

        fn state_of(&self, index: usize) -> usize {
            index
        }

        fn transition(&self, a: usize, b: usize) -> (usize, usize) {
            match (a == self.k, b == self.k) {
                _ if a == b => (a, b),
                (true, _) => (b, b),
                (_, true) => (a, a),
                _ => (self.k, self.k),
            }
        }

        fn output(&self, state: usize) -> usize {
            state
        }
    }

    /// Equal states rotate the responder (`(a, a) → (a, a + 1 mod k)`),
    /// everything else is a no-op: every diagonal pair is effective.
    #[derive(Debug, Clone, Copy)]
    struct Rotate {
        k: usize,
    }

    impl Protocol for Rotate {
        type State = usize;
        type Output = usize;

        fn num_states(&self) -> usize {
            self.k
        }

        fn index_of(&self, state: usize) -> usize {
            state
        }

        fn state_of(&self, index: usize) -> usize {
            index
        }

        fn transition(&self, a: usize, b: usize) -> (usize, usize) {
            if a == b {
                (a, (a + 1) % self.k)
            } else {
                (a, b)
            }
        }

        fn output(&self, state: usize) -> usize {
            state
        }
    }

    /// The effective pair weight as the plain double loop over ordered
    /// state pairs, `cᵢ(cⱼ − [i = j])` for every effective `(i, j)`.
    fn pair_weight_by_cells<P: Protocol>(sim: &BatchSimulator<P>) -> u128 {
        let mut eff = 0u128;
        for (i, &ci) in sim.counts.iter().enumerate() {
            for (j, &cj) in sim.counts.iter().enumerate() {
                if ci > 0 && !sim.noop[i * sim.k + j] {
                    eff += ci as u128 * (cj as u128 - u128::from(i == j));
                }
            }
        }
        eff
    }

    /// Check the row-sum weight against the double loop on `trials`
    /// random configurations of `proto`: counts drawn from
    /// {0, 1, 2, 7, 10⁹, random}, some forced to 1, so zeros, single
    /// agents on effective diagonals and products past `u64` all occur.
    fn check_pair_weight<P: Protocol + Clone>(proto: P, rng: &mut SimRng, trials: usize) {
        let k = proto.num_states();
        for _ in 0..trials {
            let mut counts: Vec<u64> = (0..k)
                .map(|_| match rng.below(6) {
                    0 => 0,
                    1 => 1,
                    2 => 2,
                    3 => 7,
                    4 => 1_000_000_000,
                    _ => rng.below(1 << 40),
                })
                .collect();
            if counts.iter().sum::<u64>() < 2 {
                counts[0] += 2;
            }
            let sim = BatchSimulator::new(proto.clone(), &CountConfig::from_counts(counts));
            let (eff, total) = sim.effective_pair_weight();
            assert_eq!(eff, pair_weight_by_cells(&sim), "{:?}", sim.counts);
            assert_eq!(total, sim.n as u128 * (sim.n as u128 - 1));
        }
    }

    #[test]
    fn row_sum_pair_weight_matches_the_cell_loop() {
        let mut rng = SimRng::new(25);
        check_pair_weight(OneWayEpidemic, &mut rng, 200);
        check_pair_weight(Usd { k: 2 }, &mut rng, 500);
        check_pair_weight(Usd { k: 9 }, &mut rng, 500);
        check_pair_weight(MaxSpread { k: 6 }, &mut rng, 500);
        check_pair_weight(Rotate { k: 5 }, &mut rng, 500);
        // A single agent on an effective diagonal forms no self-pair.
        let sim = BatchSimulator::new(Rotate { k: 3 }, &CountConfig::from_counts(vec![1, 1, 0]));
        assert_eq!(sim.effective_pair_weight().0, 0);
        assert!(sim.is_silent());
    }

    #[test]
    fn trait_object_usable() {
        let mut sim: Box<dyn Simulator> = Box::new(epidemic(1_000, 10));
        let mut rng = SimRng::new(7);
        let ran = sim.run_until(&mut rng, u64::MAX / 2, &mut |_| false);
        assert!(ran > 0);
        assert!(sim.is_silent());
        assert_eq!(sim.counts(), &[1_000, 0]);
        assert!(sim.parallel_time() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn tiny_population_rejected() {
        BatchSimulator::new(OneWayEpidemic, &CountConfig::from_counts(vec![1, 0]));
    }

    #[test]
    #[should_panic(expected = "state count")]
    fn wrong_state_count_rejected() {
        BatchSimulator::new(OneWayEpidemic, &CountConfig::from_counts(vec![1, 1, 1]));
    }
}
