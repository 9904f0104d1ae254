//! Interaction graphs for the general population-protocol model.
//!
//! The paper's results are for the clique (any two agents may interact), but
//! Angluin et al.'s original model restricts interactions to the edges of a
//! graph; we provide the standard topologies so the substrate covers the
//! general model and the experiment suite can contrast clique behaviour with
//! restricted topologies.
//!
//! # Stored and implicit forms
//!
//! A [`Graph`] numbers its edges `0..m`. Most families store that numbering
//! as an edge list. The cycle ([`Graph::cycle`]) and the torus
//! ([`Graph::torus`]) are **implicit**: their edges are a pure function of
//! the index, so they keep only `n` (and the torus side) and compute
//! endpoints and incident edges on demand — O(1) memory instead of O(m),
//! and no edge-list load per scheduled draw. The implicit forms number
//! edges exactly as their stored generators did, so an engine runs the
//! same trajectory on an implicit graph and on its
//! [`Graph::from_edges`] copy.
//!
//! The graph engines read a graph through one crate-internal adjacency
//! value built from it: the stored edge list with its CSR incidence, or
//! the implicit lattice itself.

use sim_stats::rng::SimRng;

/// An undirected interaction graph on `n` vertices with indexed edges
/// `0..m`; [`Graph::endpoints`] gives edge `e`'s endpoints in stored order.
///
/// The cycle and the torus are implicit (see the module docs); every other
/// constructor stores an edge list. The clique is deliberately *not*
/// materialized as an edge list (that would be Θ(n²) memory); use
/// [`crate::scheduler::CliqueScheduler`] for the paper's model instead.
///
/// Every constructor enforces one width ceiling: vertex ids, edge ids, CSR
/// offsets and the sparse skipper's `2e + c` copy ids are all `u32`, so a
/// graph needs `n ≤ 2³²` and `2m ≤ u32::MAX`. Equality compares `n` and
/// the numbered edge sequence, so an implicit graph equals its
/// [`Graph::from_edges`] copy.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    form: Form,
}

/// How a [`Graph`] holds its edges.
#[derive(Debug, Clone)]
enum Form {
    Stored(Vec<(u32, u32)>),
    Torus(Torus),
    Cycle(Cycle),
}

/// Panic unless `n` vertices and `m` edges fit the engines' `u32` ids.
fn check_width(n: usize, m: usize) {
    assert!(
        Graph::ids_fit(n as u64, m as u64),
        "graph too large for u32 ids: n = {n}, m = {m} (needs n <= 2^32 and 2m <= {})",
        u32::MAX
    );
}

impl Graph {
    /// Whether `n` vertices and `m` edges fit the width ceiling every
    /// constructor enforces (`n ≤ 2³²`, `2m ≤ u32::MAX`), so a caller can
    /// refuse a graph before allocating it.
    pub fn ids_fit(n: u64, m: u64) -> bool {
        n <= 1 << 32 && m.saturating_mul(2) <= u64::from(u32::MAX)
    }

    /// Build from an explicit edge list. Self-loops and out-of-range
    /// endpoints are rejected; duplicate edges are kept (they bias the
    /// scheduler toward that pair, which callers may intend).
    pub fn from_edges(n: usize, edges: Vec<(u32, u32)>) -> Self {
        for &(a, b) in &edges {
            assert!(a != b, "self-loop ({a},{b})");
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge ({a},{b}) out of range for n={n}"
            );
        }
        Self::stored(n, edges)
    }

    /// A stored-form graph from generator output (no endpoint validation).
    fn stored(n: usize, edges: Vec<(u32, u32)>) -> Self {
        check_width(n, edges.len());
        Graph {
            n,
            form: Form::Stored(edges),
        }
    }

    /// Cycle C_n (ring), implicit: edge `i` is `(i, i + 1 mod n)`.
    /// Requires n ≥ 3.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 vertices");
        check_width(n, n);
        Graph {
            n,
            form: Form::Cycle(Cycle { n: n as u32 }),
        }
    }

    /// The `side × side` torus (4-regular, wrap-around in both dimensions)
    /// in row-major vertex order, implicit: edge `2v` joins `v` to its
    /// right neighbour and edge `2v + 1` to the one below. Requires
    /// side ≥ 3.
    pub fn torus(side: usize) -> Self {
        assert!(side >= 3, "torus needs side >= 3, got {side}");
        let n = side.saturating_mul(side);
        check_width(n, n.saturating_mul(2));
        Graph {
            n,
            form: Form::Torus(Torus::new(side as u32)),
        }
    }

    /// Path P_n. Requires n ≥ 2.
    pub fn path(n: usize) -> Self {
        assert!(n >= 2, "path needs at least 2 vertices");
        let edges = (0..n - 1).map(|i| (i as u32, (i + 1) as u32)).collect();
        Self::stored(n, edges)
    }

    /// Star K_{1,n−1} with vertex 0 at the center. Requires n ≥ 2.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "star needs at least 2 vertices");
        let edges = (1..n).map(|i| (0u32, i as u32)).collect();
        Self::stored(n, edges)
    }

    /// rows × cols grid with 4-neighbour connectivity.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows * cols >= 2, "grid needs at least 2 vertices");
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Self::stored(rows * cols, edges)
    }

    /// Erdős–Rényi G(n, p): each of the C(n,2) edges present independently
    /// with probability `p`.
    pub fn erdos_renyi(n: usize, p: f64, rng: &mut SimRng) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if rng.bernoulli(p) {
                    edges.push((a as u32, b as u32));
                }
            }
        }
        Self::stored(n, edges)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        match &self.form {
            Form::Stored(edges) => edges.len(),
            Form::Torus(t) => t.num_edges(),
            Form::Cycle(c) => c.num_edges(),
        }
    }

    /// Endpoints of edge `e` in stored order. O(1) in both forms.
    #[inline]
    pub fn endpoints(&self, e: usize) -> (u32, u32) {
        match &self.form {
            Form::Stored(edges) => edges[e],
            Form::Torus(t) => t.endpoints(e),
            Form::Cycle(c) => c.endpoints(e),
        }
    }

    /// The edges in index order (computed on the fly for implicit graphs).
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (u32, u32)> + Clone + '_ {
        (0..self.num_edges()).map(move |e| self.endpoints(e))
    }

    /// Whether the graph computes its edges from the index instead of
    /// storing them (the cycle and the torus).
    pub fn is_implicit(&self) -> bool {
        !matches!(self.form, Form::Stored(_))
    }

    /// Compressed-sparse-row adjacency: returns `(offsets, entries)` where
    /// vertex `v` owns `entries[offsets[v]..offsets[v + 1]]`, each entry a
    /// `(neighbor, edge index)` pair, in ascending edge index. The graph
    /// engines keep this for stored graphs (implicit ones compute the same
    /// lists in the same order) to re-weight the ≤ d edges incident to a
    /// changed agent without scanning the edge list.
    pub fn csr_adjacency(&self) -> (Vec<u32>, Vec<(u32, u32)>) {
        csr(self.n, self.edges())
    }

    /// Per-vertex degrees.
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n];
        for (a, b) in self.edges() {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg
    }

    /// Connectivity check (union-find over the edges). The empty and
    /// single-vertex graphs count as connected.
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut parent: Vec<u32> = (0..self.n as u32).collect();
        let mut components = self.n;
        for (a, b) in self.edges() {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra as usize] = rb;
                components -= 1;
            }
        }
        components == 1
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.num_edges() == other.num_edges() && self.edges().eq(other.edges())
    }
}

impl Eq for Graph {}

/// CSR incidence of `edges` over `n` vertices: each vertex's
/// `(neighbor, edge)` entries in ascending edge index.
fn csr(
    n: usize,
    edges: impl ExactSizeIterator<Item = (u32, u32)> + Clone,
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let mut offsets = vec![0u32; n + 1];
    for (a, b) in edges.clone() {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut cursor = offsets.clone();
    let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
    for (e, (a, b)) in edges.enumerate() {
        adj[cursor[a as usize] as usize] = (b, e as u32);
        cursor[a as usize] += 1;
        adj[cursor[b as usize] as usize] = (a, e as u32);
        cursor[b as usize] += 1;
    }
    (offsets, adj)
}

/// The implicit `side × side` torus (`n = side²`, row-major): edge `2v`
/// is `v →` right neighbour, edge `2v + 1` is `v →` the one below.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Torus {
    side: u32,
    n: u32,
    /// `⌈2⁶⁴ / side⌉`, for [`Torus::divides`].
    inv_side: u64,
}

impl Torus {
    fn new(side: u32) -> Self {
        Torus {
            side,
            n: side * side,
            inv_side: u64::MAX / u64::from(side) + 1,
        }
    }

    fn num_edges(self) -> usize {
        2 * self.n as usize
    }

    /// Whether `side` divides `x`: one multiply instead of a division,
    /// exact for every `u32` x and side ≥ 2 (Lemire, Kaser and Kurz,
    /// "Faster remainder by direct computation", 2019). It keeps the
    /// endpoint computation cheaper than the edge-list load it replaces
    /// even on tori small enough for that list to stay in cache.
    #[inline(always)]
    fn divides(self, x: u32) -> bool {
        u64::from(x).wrapping_mul(self.inv_side) < self.inv_side
    }

    /// Endpoints of edge `e`. Branchless: the parity of a uniform edge
    /// index is a coin flip, so a branch on it would mispredict every
    /// other draw of the dense gather.
    #[inline(always)]
    pub(crate) fn endpoints(self, e: usize) -> (u32, u32) {
        let v = (e >> 1) as u32;
        let right = v + 1 - self.side * u32::from(self.divides(v + 1));
        let down = v + self.side - self.n * u32::from(v + self.side >= self.n);
        let odd = 0u32.wrapping_sub((e & 1) as u32);
        (v, (right & !odd) | (down & odd))
    }

    /// The four `(neighbor, edge)` pairs at `v` in ascending edge index
    /// (the CSR order). The up and left edges belong to the neighbours, so
    /// they come before `v`'s own pair `2v, 2v + 1` except where the
    /// neighbour wraps around (row 0, column 0).
    #[inline]
    fn incident(self, v: usize) -> [(u32, u32); 4] {
        let (v, side, n) = (v as u32, self.side, self.n);
        let (top_row, left_col) = (v < side, self.divides(v));
        let up = if top_row { v + n - side } else { v - side };
        let left = if left_col { v + side - 1 } else { v - 1 };
        let (up, left) = ((up, 2 * up + 1), (left, 2 * left));
        let right = (self.endpoints(2 * v as usize).1, 2 * v);
        let down = (self.endpoints(2 * v as usize + 1).1, 2 * v + 1);
        match (top_row, left_col) {
            (false, false) => [up, left, right, down],
            (false, true) => [up, right, down, left],
            (true, false) => [left, right, down, up],
            (true, true) => [right, down, left, up],
        }
    }
}

/// The implicit cycle on `n` vertices: edge `i` is `(i, i + 1 mod n)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cycle {
    n: u32,
}

impl Cycle {
    fn num_edges(self) -> usize {
        self.n as usize
    }

    #[inline(always)]
    pub(crate) fn endpoints(self, e: usize) -> (u32, u32) {
        let a = e as u32;
        (a, if a + 1 == self.n { 0 } else { a + 1 })
    }

    /// The two `(neighbor, edge)` pairs at `v` in ascending edge index:
    /// edge `v − 1` then edge `v`, except at vertex 0, whose other edge is
    /// the last one.
    #[inline]
    fn incident(self, v: usize) -> [(u32, u32); 2] {
        let v = v as u32;
        let next = (self.endpoints(v as usize).1, v);
        if v == 0 {
            [next, (self.n - 1, self.n - 1)]
        } else {
            [(v - 1, v - 1), next]
        }
    }
}

/// A stored edge list with its CSR incidence.
#[derive(Debug, Clone)]
pub(crate) struct Csr {
    edges: Vec<(u32, u32)>,
    offsets: Vec<u32>,
    adj: Vec<(u32, u32)>,
}

impl Csr {
    /// Build the CSR incidence of `edges` over `n` vertices.
    pub(crate) fn new(n: usize, edges: Vec<(u32, u32)>) -> Self {
        let (offsets, adj) = csr(n, edges.iter().copied());
        Csr {
            edges,
            offsets,
            adj,
        }
    }

    #[inline(always)]
    pub(crate) fn endpoints(&self, e: usize) -> (u32, u32) {
        self.edges[e]
    }

    /// The `(neighbor, edge)` pairs at `v`, in ascending edge index.
    #[inline]
    pub(crate) fn incident(&self, v: usize) -> &[(u32, u32)] {
        &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The incidence structure a graph engine reads, built once from a
/// [`Graph`]: a stored graph's edge list and CSR, or an implicit lattice,
/// which computes both from the index. Hot loops match on the form once
/// and run a monomorphic loop over its `endpoints`.
#[derive(Debug, Clone)]
pub(crate) enum Adjacency {
    Stored(Csr),
    Torus(Torus),
    Cycle(Cycle),
}

impl Adjacency {
    /// The adjacency of `graph` (copies a stored graph's edge list).
    pub(crate) fn new(graph: &Graph) -> Self {
        match &graph.form {
            Form::Stored(edges) => Adjacency::Stored(Csr::new(graph.n, edges.clone())),
            Form::Torus(t) => Adjacency::Torus(*t),
            Form::Cycle(c) => Adjacency::Cycle(*c),
        }
    }

    /// Number of edges.
    pub(crate) fn num_edges(&self) -> usize {
        match self {
            Adjacency::Stored(csr) => csr.edges.len(),
            Adjacency::Torus(t) => t.num_edges(),
            Adjacency::Cycle(c) => c.num_edges(),
        }
    }

    /// Endpoints of edge `e` in stored order.
    #[inline]
    pub(crate) fn endpoints(&self, e: usize) -> (u32, u32) {
        match self {
            Adjacency::Stored(csr) => csr.endpoints(e),
            Adjacency::Torus(t) => t.endpoints(e),
            Adjacency::Cycle(c) => c.endpoints(e),
        }
    }

    /// The `(neighbor, edge)` pairs at `v` in ascending edge index — the
    /// same entries in the same order on both forms (the sparse skipper's
    /// pool layout follows this order). Implicit forms write them into
    /// `buf`.
    #[inline]
    pub(crate) fn incident<'a>(
        &'a self,
        v: usize,
        buf: &'a mut [(u32, u32); 4],
    ) -> &'a [(u32, u32)] {
        match self {
            Adjacency::Stored(csr) => csr.incident(v),
            Adjacency::Torus(t) => {
                *buf = t.incident(v);
                &buf[..]
            }
            Adjacency::Cycle(c) => {
                buf[..2].copy_from_slice(&c.incident(v));
                &buf[..2]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stored generator loop the implicit torus replaced: the numbering
    /// reference.
    fn torus_reference(side: usize) -> Vec<(u32, u32)> {
        let idx = |r: usize, c: usize| (r * side + c) as u32;
        let mut edges = Vec::with_capacity(2 * side * side);
        for r in 0..side {
            for c in 0..side {
                edges.push((idx(r, c), idx(r, (c + 1) % side)));
                edges.push((idx(r, c), idx((r + 1) % side, c)));
            }
        }
        edges
    }

    /// The stored generator loop the implicit cycle replaced.
    fn cycle_reference(n: usize) -> Vec<(u32, u32)> {
        (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect()
    }

    /// An implicit graph against its stored reference: every edge's
    /// endpoints, and every vertex's incident list entry for entry in the
    /// stored copy's CSR order (the sparse pool's layout follows it).
    fn assert_matches_reference(g: &Graph, reference: Vec<(u32, u32)>) {
        assert!(g.is_implicit());
        assert_eq!(g.num_edges(), reference.len());
        for (e, &want) in reference.iter().enumerate() {
            assert_eq!(g.endpoints(e), want, "edge {e}");
        }
        let stored = Graph::from_edges(g.n(), reference);
        assert!(!stored.is_implicit());
        assert_eq!(g, &stored);
        let (offsets, adj) = stored.csr_adjacency();
        let implicit = Adjacency::new(g);
        assert!(!matches!(implicit, Adjacency::Stored(_)));
        for v in 0..g.n() {
            let got = implicit.incident(v, &mut [(0, 0); 4]).to_vec();
            let want = &adj[offsets[v] as usize..offsets[v + 1] as usize];
            assert_eq!(got, want, "vertex {v} of n = {}", g.n());
        }
    }

    #[test]
    fn implicit_torus_matches_the_stored_numbering() {
        for side in 3..=33 {
            assert_matches_reference(&Graph::torus(side), torus_reference(side));
        }
    }

    #[test]
    fn implicit_cycle_matches_the_stored_numbering() {
        for n in 3..=64 {
            assert_matches_reference(&Graph::cycle(n), cycle_reference(n));
        }
    }

    #[test]
    fn torus_column_test_matches_the_remainder() {
        for side in [3u32, 7, 1_000, 1_024, 32_767] {
            let t = Torus::new(side);
            for x in (0..100_000).chain(u32::MAX - 100_000..=u32::MAX) {
                assert_eq!(t.divides(x), x % side == 0, "x = {x}, side = {side}");
            }
        }
    }

    #[test]
    fn width_ceiling_admits_the_largest_torus() {
        // 4 · 32 767² ≤ u32::MAX orientations; implicit, so nothing is
        // allocated.
        let g = Graph::torus(32_767);
        assert_eq!(g.num_edges(), 2 * 32_767 * 32_767);
    }

    #[test]
    #[should_panic(expected = "too large for u32 ids")]
    fn width_ceiling_rejects_a_torus_past_u32_edge_ids() {
        crate::topology::TopologyFamily::Torus.build(32_769 * 32_769, 0);
    }

    #[test]
    fn cycle_structure() {
        let g = Graph::cycle(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.num_edges(), 5);
        assert!(g.degrees().iter().all(|&d| d == 2));
        assert!(g.is_connected());
    }

    #[test]
    fn path_structure() {
        let g = Graph::path(4);
        assert_eq!(g.num_edges(), 3);
        let deg = g.degrees();
        assert_eq!(deg[0], 1);
        assert_eq!(deg[3], 1);
        assert_eq!(deg[1], 2);
        assert!(g.is_connected());
    }

    #[test]
    fn star_structure() {
        let g = Graph::star(6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degrees()[0], 5);
        assert!(g.degrees()[1..].iter().all(|&d| d == 1));
        assert!(g.is_connected());
    }

    #[test]
    fn grid_structure() {
        let g = Graph::grid(3, 4);
        assert_eq!(g.n(), 12);
        // Edge count: 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8.
        assert_eq!(g.num_edges(), 17);
        assert!(g.is_connected());
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SimRng::new(8);
        let empty = Graph::erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        assert!(!empty.is_connected());
        let full = Graph::erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 45);
        assert!(full.is_connected());
    }

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let mut rng = SimRng::new(9);
        let g = Graph::erdos_renyi(100, 0.3, &mut rng);
        let expect = 0.3 * 4950.0;
        assert!(
            (g.num_edges() as f64 - expect).abs() < 160.0,
            "edges {}",
            g.num_edges()
        );
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Graph::from_edges(3, vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        Graph::from_edges(3, vec![(0, 3)]);
    }
}
