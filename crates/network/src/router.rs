//! Routing algorithms, split out of [`Topology`].
//!
//! The seed fused "what the network looks like" and "how packets pick
//! their next hop" into one trait, which made it impossible to compare
//! routing *policies* on a fixed topology or to give the simulation engine
//! a load-aware router. This module separates the two:
//!
//! * [`EcubeRouter`] — dimension-ordered routing on the hypercube, pure
//!   bit arithmetic, `O(1)` per hop;
//! * [`CanonicalRouter`] — the Proposition 3.1 canonical-path rule on
//!   `Q_d(1^k)`, with the per-hop label binary search of the seed replaced
//!   by a precomputed `node × position → node` flip table, `O(1)` per hop;
//! * [`AdaptiveMinimal`] — a minimal *adaptive* router for
//!   Hamming-addressed topologies (hypercube and the isometric `Q_d(1^k)`):
//!   among all neighbors strictly closer to the destination it forwards to
//!   the least-loaded output link, using the live queue occupancies the
//!   engine exposes through [`LinkLoad`];
//! * [`NextHopRouter`] — adapter running any topology's built-in
//!   distributed rule, so ring/mesh (and external `Topology` impls) plug
//!   into the same engine;
//! * [`FaultMaskingRouter`] — adapter wrapping any of the above so it
//!   routes around a [`FaultSet`]: surviving inner hops pass through,
//!   dead ones detour (misroute) on the healthy adjacency.
//!
//! Every router here is *progressive* — each hop strictly decreases the
//! distance to the destination — which the property tests in
//! `tests/proptest_network.rs` verify against BFS ground truth.
//!
//! For declarative configuration (CLI flags, experiment builders),
//! [`RouterSpec`] names a policy and [`RouterSpec::resolve`] builds it
//! for a concrete topology with a typed capability check.

use core::fmt;
use core::str::FromStr;

use fibcube_graph::csr::{CsrGraph, SlotTable};
use fibcube_words::word::Word;

use crate::dist::DistanceTable;
use crate::experiment::ExperimentError;
use crate::fault::{ChurnEvent, ChurnTarget, FaultMasks, FaultSet};
use crate::topology::{FibonacciNet, Hypercube, Topology};

/// A declarative routing-policy choice, the router half of an
/// [`Experiment`](crate::experiment::Experiment). A spec is resolved
/// against a concrete topology by [`RouterSpec::resolve`]; policies a
/// topology cannot run (e-cube off the hypercube, canonical-path off
/// `Q_d(1^k)`, adaptive without Hamming addressing) yield a typed
/// [`ExperimentError::UnsupportedRouter`] instead of a panic.
///
/// `Display`/`FromStr` round-trip (`"preferred"`, `"builtin"`,
/// `"e-cube"`, `"canonical"`, `"adaptive"`; parsing also accepts
/// `"ecube"` and `"auto"`), so the choice is CLI/JSON-friendly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterSpec {
    /// The topology's preferred policy ([`Topology::router`]) — e-cube on
    /// hypercubes, precomputed canonical-path on Fibonacci networks, the
    /// built-in rule elsewhere. The default of an `Experiment`.
    Preferred,
    /// The topology's built-in distributed rule via [`NextHopRouter`] —
    /// available everywhere.
    Builtin,
    /// Dimension-ordered [`EcubeRouter`] — hypercubes only.
    Ecube,
    /// Precomputed canonical-path [`CanonicalRouter`] — Fibonacci
    /// networks only.
    Canonical,
    /// Load-aware [`AdaptiveMinimal`] — Hamming-addressed topologies
    /// (hypercube and `Q_d(1^k)`).
    Adaptive,
}

impl RouterSpec {
    /// Resolves the spec against `topo`, building the concrete router or
    /// reporting that the topology cannot run this policy.
    pub fn resolve<T: Topology + ?Sized>(
        self,
        topo: &T,
    ) -> Result<Box<dyn Router + Send + Sync + '_>, ExperimentError> {
        topo.resolve_router(self)
            .ok_or_else(|| ExperimentError::UnsupportedRouter {
                router: self,
                topology: topo.name(),
            })
    }
}

impl fmt::Display for RouterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RouterSpec::Preferred => "preferred",
            RouterSpec::Builtin => "builtin",
            RouterSpec::Ecube => "e-cube",
            RouterSpec::Canonical => "canonical",
            RouterSpec::Adaptive => "adaptive",
        })
    }
}

impl FromStr for RouterSpec {
    type Err = ExperimentError;

    fn from_str(s: &str) -> Result<RouterSpec, ExperimentError> {
        match s.trim() {
            "preferred" | "auto" => Ok(RouterSpec::Preferred),
            "builtin" => Ok(RouterSpec::Builtin),
            "e-cube" | "ecube" => Ok(RouterSpec::Ecube),
            "canonical" => Ok(RouterSpec::Canonical),
            "adaptive" => Ok(RouterSpec::Adaptive),
            other => Err(ExperimentError::ParseSpec {
                what: "router",
                input: other.to_string(),
                reason: "expected preferred, builtin, e-cube, canonical, or adaptive".to_string(),
            }),
        }
    }
}

/// Live occupancy of the deciding node's output links, as exposed by the
/// simulation engine. `load(slot)` is the number of packets currently
/// queued on the output link at `slot` (an index into the node's sorted
/// neighbor list). Deterministic routers ignore it.
pub trait LinkLoad {
    /// Queued packets on output slot `slot` of the current node.
    fn load(&self, slot: usize) -> usize;
}

/// The all-idle view, for route computation outside a simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoLoad;

impl LinkLoad for NoLoad {
    fn load(&self, _slot: usize) -> usize {
        0
    }
}

/// A distributed routing policy: given the current node, the destination,
/// and (optionally) the local link loads, pick the output neighbor.
pub trait Router {
    /// Short policy name (`"e-cube"`, `"canonical"`, `"adaptive"`, …).
    fn name(&self) -> String;

    /// The neighbor to forward to on the way from `cur` to `dst`, or
    /// `None` when `cur == dst`. Must be progressive: the hop strictly
    /// decreases the distance to `dst`.
    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32>;

    /// The policy's routes as a dense [`NextHopTable`], or `None` (the
    /// default) when the policy cannot be tabulated — because it is
    /// load-dependent ([`AdaptiveMinimal`], [`FaultMaskingRouter`]), has
    /// no per-entry-cheap closed form, or the `4n²`-byte table would
    /// exceed [`TABLE_BYTE_BUDGET`] (the engine then routes per hop,
    /// which the implicit routers make `O(d)`/lookup). A returned table must agree
    /// with [`next_hop`](Router::next_hop) under [`NoLoad`] on every
    /// `(cur, dst)` pair.
    ///
    /// The simulation engine calls this once per run *when the workload
    /// amortises the `O(n²)` build* (see [`NextHopTable`] for the
    /// trade-off) and then routes each hop with one table load instead of
    /// a (possibly virtual) policy call.
    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        let _ = graph;
        None
    }
}

impl<R: Router + ?Sized> Router for &R {
    fn name(&self) -> String {
        (**self).name()
    }

    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32> {
        (**self).next_hop(cur, dst, load)
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        (**self).precompute(graph)
    }
}

/// A dense precomputed routing table: `[node × destination] → output
/// directed edge`, built once per `(graph, policy)` and indexed per hop
/// with a single load — no virtual dispatch, no per-hop arithmetic, no
/// neighbor-list search.
///
/// # When precomputation pays off
///
/// Building the table costs `O(n²)` policy evaluations and `4n²` bytes;
/// each per-hop route lookup it replaces costs one (often virtual) call.
/// A run performs roughly `packets × average distance` lookups, so the
/// table wins once `packets × d̄ ≳ n²` — all-to-all workloads (`n²`
/// packets) and long saturation sweeps qualify; a few thousand packets on
/// a 2 500-node network do not, which is why the engine's
/// [`precompute`](Router::precompute) heuristic skips the build for
/// light fixed-load runs. Load-aware policies can never be tabulated:
/// their choices depend on live queue state.
#[derive(Clone, Debug)]
pub struct NextHopTable {
    n: usize,
    /// `edges[cur * n + dst]` — CSR directed-edge index of the link to
    /// take, or [`INVALID`] (`cur == dst`, or no route).
    edges: Vec<u32>,
}

/// Ceiling on any dense `O(n²)` table allocation ([`NextHopTable`],
/// [`DistanceTable`]): 1 GiB, enough for every shipped small topology
/// (`4n²` bytes crosses it at n ≈ 16 384) while refusing the terabyte
/// tables a Γ_30-scale network would imply. Builders return
/// [`ExperimentError::TableTooLarge`] instead of attempting the
/// allocation; `Router::precompute` degrades to per-hop (implicit)
/// routing.
pub const TABLE_BYTE_BUDGET: usize = 1 << 30;

/// Checks an `n × n × 4`-byte dense table against [`TABLE_BYTE_BUDGET`].
pub(crate) fn check_table_budget(n: usize) -> Result<(), ExperimentError> {
    let bytes = (n as u128) * (n as u128) * 4;
    if bytes > TABLE_BYTE_BUDGET as u128 {
        Err(ExperimentError::TableTooLarge { nodes: n, bytes })
    } else {
        Ok(())
    }
}

impl NextHopTable {
    /// Tabulates `next` (a `(cur, dst) → neighbor` rule, `None` meaning
    /// "arrived") over all ordered pairs of `g`'s nodes.
    ///
    /// Refuses with [`ExperimentError::TableTooLarge`] when the `4n²`-byte
    /// table would exceed [`TABLE_BYTE_BUDGET`] — callers fall back to
    /// per-hop (implicit) routing rather than allocating multiple GiB.
    pub fn build(
        g: &CsrGraph,
        mut next: impl FnMut(u32, u32) -> Option<u32>,
    ) -> Result<NextHopTable, ExperimentError> {
        let n = g.num_vertices();
        check_table_budget(n)?;
        let slots = SlotTable::new(g);
        let mut edges = vec![INVALID; n * n];
        for cur in 0..n as u32 {
            let base = g.edge_range(cur).start;
            let row = &mut edges[cur as usize * n..][..n];
            for dst in 0..n as u32 {
                if let Some(hop) = next(cur, dst) {
                    let slot = slots.slot(cur, hop).expect("next hop must be a neighbor");
                    row[dst as usize] = (base + slot as usize) as u32;
                }
            }
        }
        Ok(NextHopTable { n, edges })
    }

    /// Number of nodes the table covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// The directed-edge index of the output link from `cur` toward
    /// `dst`, or `None` when `cur == dst` (or the pair is unroutable).
    #[inline]
    pub fn next_edge(&self, cur: u32, dst: u32) -> Option<usize> {
        let e = self.edges[cur as usize * self.n + dst as usize];
        (e != INVALID).then_some(e as usize)
    }

    /// The next-hop *node* from `cur` toward `dst` on `g` (which must be
    /// the graph the table was built for).
    #[inline]
    pub fn next_hop(&self, g: &CsrGraph, cur: u32, dst: u32) -> Option<u32> {
        self.next_edge(cur, dst).map(|e| g.target(e))
    }
}

/// E-cube (dimension-ordered) routing on the binary hypercube: correct the
/// lowest differing dimension first. Node ids are the addresses, so the
/// policy needs no state at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct EcubeRouter;

impl EcubeRouter {
    /// The e-cube hop, usable without constructing a router value.
    #[inline]
    pub fn hop(cur: u32, dst: u32) -> Option<u32> {
        let diff = cur ^ dst;
        if diff == 0 {
            return None;
        }
        Some(cur ^ (diff & diff.wrapping_neg()))
    }
}

impl Router for EcubeRouter {
    fn name(&self) -> String {
        "e-cube".into()
    }

    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        EcubeRouter::hop(cur, dst)
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        NextHopTable::build(graph, EcubeRouter::hop).ok()
    }
}

/// Canonical-path routing on `Q_d(1^k)` (Proposition 3.1): flip the
/// leftmost `1 → 0` correction first, else the leftmost `0 → 1`.
///
/// The seed recomputed the flipped word and binary-searched the full label
/// list on **every hop** (`O(d + log n)`); this router precomputes the
/// `node × position → node` flip table once (`O(n·d·log n)` at build) and
/// then routes each hop with two bit operations and one table load.
#[derive(Clone, Debug)]
pub struct CanonicalRouter {
    d: usize,
    /// Raw label bits per node (`b₁` at bit `d−1`).
    bits: Vec<u64>,
    /// `flip[i·d + (p−1)]` — node id of `labels[i].flip(p)`, or `INVALID`
    /// when the flipped word leaves the network.
    flip: Vec<u32>,
}

const INVALID: u32 = u32::MAX;

impl CanonicalRouter {
    /// Builds the router for a label set of `d`-bit Zeckendorf addresses
    /// (sorted, as produced by [`FibonacciNet::labels`]).
    pub fn new(d: usize, labels: &[Word]) -> CanonicalRouter {
        let bits: Vec<u64> = labels.iter().map(Word::bits).collect();
        let mut flip = vec![INVALID; labels.len() * d];
        for (i, w) in labels.iter().enumerate() {
            for p in 1..=d {
                if let Ok(j) = labels.binary_search(&w.flip(p)) {
                    flip[i * d + (p - 1)] = j as u32;
                }
            }
        }
        CanonicalRouter { d, bits, flip }
    }

    /// Builds the router for a Fibonacci-cube network in `O(n·d + m)`:
    /// every valid flip is already materialised as a link, so the flip
    /// table is read straight off the adjacency lists instead of binary
    /// searching per (node, position) as [`CanonicalRouter::new`] must.
    pub fn for_net(net: &FibonacciNet) -> CanonicalRouter {
        let d = net.d();
        let labels = net.labels();
        let bits: Vec<u64> = labels.iter().map(Word::bits).collect();
        let mut flip = vec![INVALID; labels.len() * d];
        let g = net.graph();
        for u in 0..g.num_vertices() as u32 {
            for &v in g.neighbors(u) {
                // Each link flips exactly one position.
                let diff = bits[u as usize] ^ bits[v as usize];
                let p = d - diff.trailing_zeros() as usize;
                flip[u as usize * d + (p - 1)] = v;
            }
        }
        CanonicalRouter { d, bits, flip }
    }
}

impl Router for CanonicalRouter {
    fn name(&self) -> String {
        "canonical".into()
    }

    #[inline]
    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        let c = self.bits[cur as usize];
        let t = self.bits[dst as usize];
        if c == t {
            return None;
        }
        // Leftmost position = highest bit (b₁ lives at bit d−1).
        let down = c & !t;
        let chosen = if down != 0 { down } else { t & !c };
        let p = self.d - (63 - chosen.leading_zeros() as usize);
        let hop = self.flip[cur as usize * self.d + (p - 1)];
        debug_assert_ne!(hop, INVALID, "canonical flips stay 1^k-free (Prop 3.1)");
        Some(hop)
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        NextHopTable::build(graph, |cur, dst| self.next_hop(cur, dst, &NoLoad)).ok()
    }
}

/// Topologies whose node addresses realise graph distance as Hamming
/// distance — true for the hypercube and for `Q_d(1^k)`, which is an
/// isometric subgraph of `Q_d` (the 1993 line's "good codes" property).
pub trait HammingAddressed: Topology {
    /// The binary address of node `v`.
    fn address(&self, v: u32) -> u64;
}

impl HammingAddressed for Hypercube {
    fn address(&self, v: u32) -> u64 {
        v as u64
    }
}

impl HammingAddressed for FibonacciNet {
    fn address(&self, v: u32) -> u64 {
        self.label(v).bits()
    }
}

/// Minimal adaptive routing: among the neighbors strictly closer to the
/// destination (by address Hamming distance = graph distance), forward on
/// the least-loaded output link; ties break toward the smallest slot, so
/// the router stays deterministic under equal load.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveMinimal<'a, T: HammingAddressed + ?Sized> {
    topo: &'a T,
}

impl<'a, T: HammingAddressed + ?Sized> AdaptiveMinimal<'a, T> {
    /// Wraps a Hamming-addressed topology.
    pub fn new(topo: &'a T) -> AdaptiveMinimal<'a, T> {
        AdaptiveMinimal { topo }
    }
}

impl<T: HammingAddressed + ?Sized> Router for AdaptiveMinimal<'_, T> {
    fn name(&self) -> String {
        "adaptive".into()
    }

    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32> {
        let target = self.topo.address(dst);
        let cur_dist = (self.topo.address(cur) ^ target).count_ones();
        if cur_dist == 0 {
            return None;
        }
        let mut best: Option<(usize, u32)> = None;
        for (slot, &v) in self.topo.graph().neighbors(cur).iter().enumerate() {
            if (self.topo.address(v) ^ target).count_ones() < cur_dist {
                let l = load.load(slot);
                if best.is_none_or(|(bl, _)| l < bl) {
                    best = Some((l, v));
                }
            }
        }
        let (_, hop) = best.expect("isometric addressing guarantees a closer neighbor");
        Some(hop)
    }
}

/// Adapter running a topology's built-in distributed rule
/// ([`Topology::next_hop`]) as a [`Router`], ignoring link load. This is
/// what the preferred router falls back to for topologies without a
/// dedicated split-out router (ring, mesh).
#[derive(Clone, Copy, Debug)]
pub struct NextHopRouter<'a, T: Topology + ?Sized> {
    topo: &'a T,
}

impl<'a, T: Topology + ?Sized> NextHopRouter<'a, T> {
    /// Wraps a topology's own routing rule.
    pub fn new(topo: &'a T) -> NextHopRouter<'a, T> {
        NextHopRouter { topo }
    }
}

impl<T: Topology + ?Sized> Router for NextHopRouter<'_, T> {
    fn name(&self) -> String {
        "builtin".into()
    }

    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        self.topo.next_hop(cur, dst)
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        // Built-in rules are deterministic and load-blind, so they
        // tabulate; `graph` must be the wrapped topology's own graph.
        debug_assert_eq!(graph.num_vertices(), self.topo.len());
        NextHopTable::build(graph, |cur, dst| self.topo.next_hop(cur, dst)).ok()
    }
}

/// Fault-masking adapter: wraps any [`Router`] and routes around a
/// [`FaultSet`] on the *healthy adjacency* — the degraded-network
/// rerouting the 1993 line's robustness claims are about.
///
/// Per hop the adapter first asks the wrapped policy; the inner hop is
/// taken verbatim whenever its link survives and it still makes progress
/// toward the destination *in the healthy subgraph*, so a zero-fault
/// masked router reproduces the wrapped router hop for hop. When the
/// inner hop is dead (or would walk into a region the faults cut off),
/// the adapter misroutes relative to the original network: among the
/// surviving neighbor links whose healthy-subgraph distance to the
/// destination strictly decreases it forwards on the least-loaded one
/// (ties toward the smallest slot). Healthy distances come from a
/// [`DistanceTable`] built **eagerly** at construction over the masked
/// adjacency, so the per-hop path is a plain slice index — no interior
/// mutability, no lazy-initialisation check. (The first version cached
/// per-destination BFS rows in a `RefCell`, which borrow-checked on every
/// hop and made the router `!Sync`; the eager table restores `Send +
/// Sync`, which the parallel batch runner relies on.) The trade: the
/// constructor pays one BFS per node and `4n²` bytes up front even when
/// the run routes toward few destinations — cheap against the fault
/// sweeps' Bernoulli/all-to-all workloads, which touch essentially every
/// destination and previously filled the lazy cache to the same size
/// anyway, but worth knowing for one-shot single-destination queries.
///
/// Every hop strictly decreases the healthy distance, so routes on the
/// degraded network remain livelock-free; packets whose destination is
/// unreachable must be dropped by the engine *before* routing
/// (the engine's injection admission does), and
/// [`FaultMaskingRouter::reachable`] is the query it uses.
///
/// The adapter never tabulates ([`Router::precompute`] stays `None`):
/// both the inner-policy consult and the detour rule read live link
/// loads, which a static table cannot capture.
pub struct FaultMaskingRouter<'a, R: Router + ?Sized> {
    graph: &'a CsrGraph,
    inner: &'a R,
    /// Per-node / per-directed-edge liveness.
    masks: FaultMasks,
    /// Pure per-directed-edge link failure state, independent of
    /// endpoint deaths, so recovering a node under churn does not
    /// resurrect a link that failed on its own. The composite mask is
    /// `node_dead(u) || node_dead(v) || link_down[e]`.
    link_down: Vec<bool>,
    /// Healthy-subgraph distances toward every destination (`INFINITY`
    /// marks unreachable or dead nodes), shared-form
    /// [`DistanceTable`], built once up front and patched incrementally
    /// under churn ([`apply_event`](FaultMaskingRouter::apply_event)).
    dist: DistanceTable,
}

impl<'a, R: Router + ?Sized> FaultMaskingRouter<'a, R> {
    /// Wraps `inner` so it routes on `graph` degraded by `faults`,
    /// building the masked distance table eagerly. Fault entries outside
    /// the graph are ignored.
    pub fn new(graph: &'a CsrGraph, inner: &'a R, faults: &FaultSet) -> FaultMaskingRouter<'a, R> {
        let masks = faults.masks(graph);
        let dist = DistanceTable::degraded(graph, &masks);
        FaultMaskingRouter::with_table(graph, inner, faults, masks, dist)
    }

    /// [`new`](FaultMaskingRouter::new) against a caller-provided
    /// degraded table (which must match `graph` + `faults`), so sweeps
    /// that revisit the same fault set skip the `O(n·m)` rebuild.
    pub(crate) fn with_table(
        graph: &'a CsrGraph,
        inner: &'a R,
        faults: &FaultSet,
        masks: FaultMasks,
        dist: DistanceTable,
    ) -> FaultMaskingRouter<'a, R> {
        let mut link_down = vec![false; graph.num_directed_edges()];
        for &(u, v) in faults.failed_links() {
            for (a, b) in [(u, v), (v, u)] {
                if let Some(slot) = graph.slot_of(a, b) {
                    link_down[graph.edge_range(a).start + slot] = true;
                }
            }
        }
        FaultMaskingRouter {
            graph,
            inner,
            masks,
            link_down,
            dist,
        }
    }

    /// `true` when node `v` survived the faults.
    pub fn node_alive(&self, v: u32) -> bool {
        self.masks.node_alive(v)
    }

    /// `true` when `src` can still reach `dst` through surviving nodes
    /// and links (both endpoints must be alive).
    pub fn reachable(&self, src: u32, dst: u32) -> bool {
        self.node_alive(src) && self.node_alive(dst) && self.dist.reachable(src, dst)
    }

    /// The healthy-subgraph distance table the adapter routes by.
    pub fn distances(&self) -> &DistanceTable {
        &self.dist
    }

    /// The current liveness masks (post any applied churn events).
    pub fn masks(&self) -> &FaultMasks {
        &self.masks
    }

    /// Applies one churn event: flips the liveness masks, then patches
    /// the distance table *incrementally*
    /// ([`DistanceTable::apply_event`]) instead of rebuilding it — the
    /// masked-BFS work is limited to the affected frontier, and the
    /// table's epoch tags record exactly which rows changed.
    pub fn apply_event(&mut self, event: &ChurnEvent) {
        match event.target {
            ChurnTarget::Node(x) => self.set_node(x, event.failed),
            ChurnTarget::Link(u, v) => self.set_link(u, v, event.failed),
        }
        self.dist.apply_event(self.graph, &self.masks, event);
    }

    /// Flips the pure link state of `u–v` (both directions) and
    /// refreshes the composite edge masks.
    fn set_link(&mut self, u: u32, v: u32, down: bool) {
        let g = self.graph;
        for (a, b) in [(u, v), (v, u)] {
            if let Some(slot) = g.slot_of(a, b) {
                let e = g.edge_range(a).start + slot;
                self.link_down[e] = down;
                self.refresh_edge(e, a, b);
            }
        }
    }

    /// Flips node `x`'s liveness and refreshes the composite masks of
    /// every incident directed edge, both directions.
    fn set_node(&mut self, x: u32, dead: bool) {
        let g = self.graph;
        self.masks.set_node(x, dead);
        let base = g.edge_range(x).start;
        for slot in 0..g.neighbors(x).len() {
            let y = g.neighbors(x)[slot];
            self.refresh_edge(base + slot, x, y);
            if let Some(back) = g.slot_of(y, x) {
                self.refresh_edge(g.edge_range(y).start + back, y, x);
            }
        }
    }

    fn refresh_edge(&mut self, e: usize, a: u32, b: u32) {
        let dead = self.link_down[e] || !self.masks.node_alive(a) || !self.masks.node_alive(b);
        self.masks.set_edge(e, dead);
    }
}

/// The display name of a [`FaultMaskingRouter`] wrapping a policy named
/// `inner` — shared with the experiment layer so a degraded run's
/// [`Report`](crate::report::Report) names the router that actually ran.
pub(crate) fn masked_router_name(inner: &str) -> String {
    format!("fault-masked({inner})")
}

impl<R: Router + ?Sized> Router for FaultMaskingRouter<'_, R> {
    fn name(&self) -> String {
        masked_router_name(&self.inner.name())
    }

    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let dist = self.dist.to_dst(dst);
        let dc = dist[cur as usize];
        debug_assert_ne!(
            dc,
            fibcube_graph::bfs::INFINITY,
            "engine must drop unreachable packets before routing"
        );
        let base = self.graph.edge_range(cur).start;
        // Honour the wrapped policy while its hop survives and still
        // approaches dst within the healthy subgraph.
        if let Some(hop) = self.inner.next_hop(cur, dst, load) {
            if let Some(slot) = self.graph.slot_of(cur, hop) {
                if self.masks.edge_alive(base + slot) && dist[hop as usize] < dc {
                    return Some(hop);
                }
            }
        }
        // Detour: least-loaded surviving link that makes progress.
        let mut best: Option<(usize, u32)> = None;
        for (slot, &v) in self.graph.neighbors(cur).iter().enumerate() {
            if self.masks.edge_alive(base + slot) && dist[v as usize] < dc {
                let l = load.load(slot);
                if best.is_none_or(|(bl, _)| l < bl) {
                    best = Some((l, v));
                }
            }
        }
        let (_, hop) = best.expect("reachable destinations always have a progressive hop");
        Some(hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Ring;
    use fibcube_graph::bfs::bfs_distances;

    fn assert_progressive(topo: &dyn Topology, router: &dyn Router) {
        let g = topo.graph();
        for dst in 0..topo.len() as u32 {
            let dist = bfs_distances(g, dst);
            for src in 0..topo.len() as u32 {
                let mut cur = src;
                while let Some(hop) = router.next_hop(cur, dst, &NoLoad) {
                    assert!(
                        g.has_edge(cur, hop),
                        "{}: {cur}→{hop} not a link",
                        router.name()
                    );
                    assert_eq!(
                        dist[hop as usize] + 1,
                        dist[cur as usize],
                        "{}: hop {cur}→{hop} toward {dst} not progressive",
                        router.name()
                    );
                    cur = hop;
                }
                assert_eq!(cur, dst);
            }
        }
    }

    #[test]
    fn ecube_router_matches_hypercube_rule() {
        let q = Hypercube::new(5);
        assert_progressive(&q, &EcubeRouter);
        for cur in 0..32u32 {
            for dst in 0..32u32 {
                assert_eq!(
                    EcubeRouter.next_hop(cur, dst, &NoLoad),
                    q.next_hop(cur, dst)
                );
            }
        }
    }

    #[test]
    fn canonical_router_matches_seed_rule() {
        for (d, k) in [(7usize, 2usize), (6, 3), (5, 4)] {
            let net = FibonacciNet::new(d, k);
            let router = CanonicalRouter::for_net(&net);
            assert_progressive(&net, &router);
            for cur in 0..net.len() as u32 {
                for dst in 0..net.len() as u32 {
                    assert_eq!(
                        router.next_hop(cur, dst, &NoLoad),
                        net.next_hop(cur, dst),
                        "d={d} k={k} {cur}→{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn for_net_fast_build_matches_label_build() {
        for (d, k) in [(0usize, 2usize), (1, 2), (8, 2), (6, 3)] {
            let net = FibonacciNet::new(d, k);
            let fast = CanonicalRouter::for_net(&net);
            let slow = CanonicalRouter::new(net.d(), net.labels());
            for cur in 0..net.len() as u32 {
                for dst in 0..net.len() as u32 {
                    assert_eq!(
                        fast.next_hop(cur, dst, &NoLoad),
                        slow.next_hop(cur, dst, &NoLoad),
                        "d={d} k={k} {cur}→{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_minimal_is_progressive() {
        let q = Hypercube::new(4);
        assert_progressive(&q, &AdaptiveMinimal::new(&q));
        let net = FibonacciNet::classical(8);
        assert_progressive(&net, &AdaptiveMinimal::new(&net));
    }

    #[test]
    fn adaptive_minimal_avoids_loaded_links() {
        // At node 0000 of Q_4 heading to 0011, slots for nodes 0001 and
        // 0010 are both minimal; loading one must steer to the other.
        let q = Hypercube::new(4);
        let router = AdaptiveMinimal::new(&q);
        struct OneBusy(usize);
        impl LinkLoad for OneBusy {
            fn load(&self, slot: usize) -> usize {
                usize::from(slot == self.0)
            }
        }
        let slot_of = |v: u32| q.graph().slot_of(0, v).unwrap();
        assert_eq!(
            router.next_hop(0, 0b0011, &OneBusy(slot_of(0b0001))),
            Some(0b0010)
        );
        assert_eq!(
            router.next_hop(0, 0b0011, &OneBusy(slot_of(0b0010))),
            Some(0b0001)
        );
    }

    #[test]
    fn next_hop_router_wraps_any_topology() {
        let ring = Ring::new(9);
        assert_progressive(&ring, &NextHopRouter::new(&ring));
    }

    #[test]
    fn router_spec_round_trips_and_resolves() {
        for spec in [
            RouterSpec::Preferred,
            RouterSpec::Builtin,
            RouterSpec::Ecube,
            RouterSpec::Canonical,
            RouterSpec::Adaptive,
        ] {
            assert_eq!(spec.to_string().parse::<RouterSpec>().unwrap(), spec);
        }
        assert_eq!("ecube".parse::<RouterSpec>().unwrap(), RouterSpec::Ecube);
        assert_eq!("auto".parse::<RouterSpec>().unwrap(), RouterSpec::Preferred);
        assert!("dijkstra".parse::<RouterSpec>().is_err());

        let q = Hypercube::new(3);
        assert_eq!(RouterSpec::Ecube.resolve(&q).unwrap().name(), "e-cube");
        assert_eq!(RouterSpec::Preferred.resolve(&q).unwrap().name(), "e-cube");
        assert_eq!(RouterSpec::Adaptive.resolve(&q).unwrap().name(), "adaptive");
        let err = RouterSpec::Canonical
            .resolve(&q)
            .map(|r| r.name())
            .unwrap_err();
        assert!(err.to_string().contains("canonical"), "{err}");
        assert!(err.to_string().contains("Q_3"), "{err}");

        let net = FibonacciNet::classical(5);
        assert_eq!(
            RouterSpec::Canonical.resolve(&net).unwrap().name(),
            "canonical"
        );
        assert!(RouterSpec::Ecube.resolve(&net).is_err());

        let ring = Ring::new(5);
        assert_eq!(
            RouterSpec::Builtin.resolve(&ring).unwrap().name(),
            "builtin"
        );
        assert!(RouterSpec::Adaptive.resolve(&ring).is_err());
    }

    #[test]
    fn fault_mask_with_no_faults_is_the_inner_router_verbatim() {
        let q = Hypercube::new(4);
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &FaultSet::empty());
        for cur in 0..16u32 {
            for dst in 0..16u32 {
                assert_eq!(
                    masked.next_hop(cur, dst, &NoLoad),
                    EcubeRouter.next_hop(cur, dst, &NoLoad),
                    "{cur}→{dst}"
                );
            }
        }
        assert_eq!(masked.name(), "fault-masked(e-cube)");
    }

    #[test]
    fn fault_mask_detours_around_a_dead_node() {
        // e-cube 0→3 on Q_3 goes via node 1; kill it and the mask must
        // take the surviving shortest path via node 2.
        let q = Hypercube::new(3);
        let faults = FaultSet::new([1u32], []);
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &faults);
        assert_eq!(masked.next_hop(0, 3, &NoLoad), Some(2));
        assert_eq!(masked.next_hop(2, 3, &NoLoad), Some(3));
        assert!(!masked.node_alive(1));
        assert!(masked.reachable(0, 3));
        assert!(!masked.reachable(0, 1), "dead destination is unreachable");
    }

    #[test]
    fn fault_mask_detours_around_a_dead_link() {
        // Cut 0–1 on a 4-ring: 0→1 must go the long way round.
        let ring = Ring::new(4);
        let inner = NextHopRouter::new(&ring);
        let faults = FaultSet::new([], [(0u32, 1u32)]);
        let masked = FaultMaskingRouter::new(ring.graph(), &inner, &faults);
        assert_eq!(masked.next_hop(0, 1, &NoLoad), Some(3));
        assert_eq!(masked.next_hop(3, 1, &NoLoad), Some(2));
        assert_eq!(masked.next_hop(2, 1, &NoLoad), Some(1));
    }

    #[test]
    fn fault_mask_routes_are_shortest_on_the_healthy_subgraph() {
        // Every masked walk terminates in exactly healthy-BFS distance
        // hops — the progressivity that keeps degraded runs livelock-free.
        let net = FibonacciNet::classical(7);
        let inner = CanonicalRouter::for_net(&net);
        let faults = FaultSet::new([2u32, 9, 17], [(0u32, 1u32)]);
        let masked = FaultMaskingRouter::new(net.graph(), &inner, &faults);
        let (healthy, survivors) = faults.healthy_subgraph(net.graph());
        let mut old_of = survivors.clone();
        old_of.sort_unstable();
        assert_eq!(old_of, survivors, "survivor map is sorted");
        for (hi, &dst) in survivors.iter().enumerate() {
            let dist = bfs_distances(&healthy, hi as u32);
            for (hj, &src) in survivors.iter().enumerate() {
                if dist[hj] == fibcube_graph::bfs::INFINITY {
                    assert!(!masked.reachable(src, dst));
                    continue;
                }
                let mut cur = src;
                let mut hops = 0u32;
                while let Some(hop) = masked.next_hop(cur, dst, &NoLoad) {
                    assert!(net.graph().has_edge(cur, hop));
                    cur = hop;
                    hops += 1;
                    assert!(hops as usize <= net.len(), "runaway masked route");
                }
                assert_eq!(cur, dst);
                assert_eq!(hops, dist[hj], "masked route {src}→{dst} not shortest");
            }
        }
    }

    #[test]
    fn precomputed_tables_match_per_hop_routing() {
        // Every tabulable policy must tabulate to exactly its per-hop
        // choices — the invariant that lets the engine switch paths
        // without changing the event stream.
        let net = FibonacciNet::classical(8);
        let canonical = CanonicalRouter::for_net(&net);
        let q = Hypercube::new(5);
        let ring = Ring::new(11);
        let ring_router = NextHopRouter::new(&ring);
        for (topo, router) in [
            (&net as &dyn Topology, &canonical as &dyn Router),
            (&q, &EcubeRouter),
            (&ring, &ring_router),
        ] {
            let g = topo.graph();
            let table = router
                .precompute(g)
                .expect("deterministic policies tabulate");
            assert_eq!(table.nodes(), topo.len());
            for cur in 0..topo.len() as u32 {
                for dst in 0..topo.len() as u32 {
                    assert_eq!(
                        table.next_hop(g, cur, dst),
                        router.next_hop(cur, dst, &NoLoad),
                        "{} {cur}→{dst}",
                        router.name()
                    );
                    if let Some(e) = table.next_edge(cur, dst) {
                        assert!(g.edge_range(cur).contains(&e), "edge leaves cur");
                    }
                }
            }
        }
    }

    #[test]
    fn load_dependent_policies_refuse_to_tabulate() {
        let q = Hypercube::new(4);
        assert!(AdaptiveMinimal::new(&q).precompute(q.graph()).is_none());
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &FaultSet::new([1u32], []));
        assert!(masked.precompute(q.graph()).is_none());
        // The &R blanket impl forwards precompute.
        assert!(<&EcubeRouter as Router>::precompute(&&EcubeRouter, q.graph()).is_some());
    }

    #[test]
    fn masked_router_is_send_and_sync_for_the_batch_runner() {
        // Regression guard: the RefCell distance cache made this router
        // !Sync; the eager DistanceTable restores Send + Sync, which the
        // parallel batch runner (run_batch / sweep cells) relies on.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let q = Hypercube::new(3);
        let faults = FaultSet::new([1u32], []);
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &faults);
        assert_send_sync(&masked);
        // And it still routes after the eager build.
        assert_eq!(masked.next_hop(0, 3, &NoLoad), Some(2));
        assert_eq!(masked.distances().distance(0, 3), 2);
    }

    #[test]
    fn churn_events_keep_masked_router_consistent() {
        // After every applied event the live router must equal one
        // rebuilt from scratch for the same net fault state — masks,
        // liveness and distances alike. Covers the node-recovery case
        // where an independently failed link must stay down.
        let q = Hypercube::new(4);
        let g = q.graph();
        let mut live = FaultMaskingRouter::new(g, &EcubeRouter, &FaultSet::empty());
        let ev = |target, failed| ChurnEvent {
            cycle: 0,
            target,
            failed,
        };
        let seq = [
            (
                ev(ChurnTarget::Link(0, 1), true),
                FaultSet::new([], [(0u32, 1u32)]),
            ),
            (
                ev(ChurnTarget::Node(3), true),
                FaultSet::new([3u32], [(0u32, 1u32)]),
            ),
            (
                ev(ChurnTarget::Node(3), false),
                FaultSet::new([], [(0u32, 1u32)]),
            ),
            (ev(ChurnTarget::Link(0, 1), false), FaultSet::empty()),
        ];
        for (event, set) in seq {
            live.apply_event(&event);
            let fresh = FaultMaskingRouter::new(g, &EcubeRouter, &set);
            for v in 0..16u32 {
                assert_eq!(live.node_alive(v), fresh.node_alive(v), "{event:?}");
                assert_eq!(
                    live.distances().to_dst(v),
                    fresh.distances().to_dst(v),
                    "{event:?} dst {v}"
                );
            }
            for e in 0..g.num_directed_edges() {
                assert_eq!(
                    live.masks().edge_alive(e),
                    fresh.masks().edge_alive(e),
                    "{event:?} edge {e}"
                );
            }
        }
    }

    #[test]
    fn oversized_tables_are_refused_not_allocated() {
        // 20 000 nodes → 1.6 GB dense table, over the 1 GiB budget: the
        // builder must return the typed error before touching the heap.
        let g = CsrGraph::empty(20_000);
        match NextHopTable::build(&g, |_, _| None) {
            Err(ExperimentError::TableTooLarge { nodes, bytes }) => {
                assert_eq!(nodes, 20_000);
                assert_eq!(bytes, 20_000u128 * 20_000 * 4);
            }
            other => panic!("expected TableTooLarge, got {other:?}"),
        }
        // And precompute degrades to per-hop routing instead of erroring.
        assert!(EcubeRouter.precompute(&g).is_none());
        assert!(check_table_budget(16_384).is_ok());
        assert!(check_table_budget(16_385).is_err());
    }

    #[test]
    fn router_names() {
        let q = Hypercube::new(3);
        assert_eq!(EcubeRouter.name(), "e-cube");
        assert_eq!(AdaptiveMinimal::new(&q).name(), "adaptive");
        assert_eq!(NextHopRouter::new(&q).name(), "builtin");
        assert_eq!(
            CanonicalRouter::for_net(&FibonacciNet::classical(4)).name(),
            "canonical"
        );
    }
}
