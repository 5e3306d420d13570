//! The flit-level wormhole workload of the unified stepper — the lane
//! type the engine's one door (`engine::run`) builds for a
//! [`SwitchingSpec::Wormhole`](crate::switching::SwitchingSpec) run.
//!
//! Like the store-and-forward core, the cycle body lives in stage
//! methods driven by [`run_lane`](super::stepper::run_lane); a one-lane
//! run is the `Solo` monomorphization and a sharded run executes the
//! identical stages under the pooled protocol.
//!
//! ## The model
//!
//! Each packet is [`SwitchingSpec::flits_per_packet`] flits. The head
//! flit claims a chain of (directed link × virtual channel) buffers of
//! `buf_flits` capacity, routing one hop per cycle exactly like the
//! store-and-forward engine; body flits stream behind it through the
//! same chain (one injected per cycle at the source) and the tail
//! releases each buffer as it passes — so a blocked packet occupies
//! buffers along its whole path, the defining wormhole behaviour.
//! Advancement is credit-based (a flit moves only when the next buffer
//! has space, counting same-cycle reservations) and each directed link
//! still moves at most one flit per cycle, scanning VCs lowest-first.
//! Virtual channels are keyed to [`Topology::channel_class`]: a hop
//! whose class does not increase bumps the packet to the next VC level
//! (clamped to `vcs − 1`), which on order-based routes makes the
//! channel-dependency graph acyclic — see [`switching`](crate::switching)
//! for the argument. Fault detours are not order-based, so on degraded
//! networks the VC level can clamp and deadlock freedom is best-effort;
//! `offered == delivered + dropped + still-in-flight` holds either way.
//!
//! Packet-level accounting ([`SimStats`](super::SimStats),
//! [`SimObserver::on_hop`], hop counts) follows the **head** flit, so a
//! degenerate configuration (one flit per packet, one VC, effectively
//! unbounded buffers) reproduces the store-and-forward run exactly.
//! Flit-level movement is observable through
//! [`SimObserver::on_flit_hop`].
//!
//! [`SwitchingSpec::flits_per_packet`]: crate::switching::SwitchingSpec::flits_per_packet

//! ## Sharding model: replicated arbitration
//!
//! Wormhole advancement is a global arbitration: whether a flit may
//! move depends on claims, credits and (for adaptive routers) link
//! loads that earlier moves of the *same* cycle just changed, anywhere
//! in the network. Instead of exchanging that state, every lane keeps a
//! full **mirror** of it (`link_load`, per-buffer occupancy, claims,
//! reservations, the packet slab and worm chains, the pending/stream
//! FIFOs and the injection cursor) and updates the mirror identically:
//!
//! - the **begin** stage (streaming, head retries, injection) runs the
//!   same deterministic decisions on every lane, touching real flit
//!   queues, per-node occupancy, statistics and the observer only on
//!   the lane that owns the node;
//! - the **propose** stage snapshots the front flit of every non-empty
//!   (edge × VC) buffer of the lane's own active nodes — the only state
//!   a lane alone knows — in ascending node/edge/VC order;
//! - the **commit** stage replays the serial forward scan over the
//!   concatenated snapshots (lane order == node order, so the replay
//!   order *is* the serial scan order) on **every** lane, deciding each
//!   move against the mirror exactly as the serial scan decides it
//!   against live state, which keeps the mirrors in lockstep — adaptive
//!   routers included, because the mirror loads evolve move by move in
//!   serial order;
//! - the **end** stage applies the deferred arrival list (identical on
//!   every lane) at the `cycle + 1` boundary, again gating real effects
//!   on ownership.
//!
//! Front-flit snapshots equal what the serial scan would read because a
//! scan pops only from the buffer it is currently serving (each edge is
//! served once per cycle) and every push is deferred to the arrival
//! boundary. The result is **bit-identical** [`SimStats`] and observer
//! output at any thread count. The mirrors cost O(E · vcs) per lane —
//! the trade the replicated-arbitration design makes for running the
//! serial decision procedure unchanged.

use std::collections::VecDeque;

use fibcube_graph::csr::CsrGraph;

use crate::arena::{FlitQueues, PacketSlab};
use crate::observer::SimObserver;
use crate::router::Router;
use crate::topology::Topology;
use crate::traffic::Packet;

use super::core::{route_edge, Routing};
use super::parallel::LaneSet;
use super::policy::FaultPolicy;
use super::stats::StatsAcc;
use super::stepper::LaneWorkload;

/// Head-flit flag in a packed flit record (bit 56).
const FLIT_HEAD: u64 = 1 << 56;
/// Tail-flit flag in a packed flit record (bit 57). Single-flit packets
/// carry both flags.
const FLIT_TAIL: u64 = 1 << 57;
/// No packet claims this (edge × VC) buffer.
const NO_CLAIM: u32 = u32::MAX;
/// Arrival-list sentinel: the flit leaves the network at its destination
/// instead of entering a buffer.
const EJECT: u32 = u32::MAX;
/// Replay-cursor sentinel: no edge arbitrated yet this cycle.
const NO_EDGE: u32 = u32::MAX;

/// Packs one flit: packet id in the low 32 bits, the index of the buffer
/// it occupies within its packet's reserved chain in bits 32..56, flags
/// above. Everything the forward phase needs travels in the queue word.
#[inline]
fn flit(id: u32, idx: usize, head: bool, tail: bool) -> u64 {
    debug_assert!(idx < (1 << 24), "path longer than 16M hops");
    let mut f = id as u64 | ((idx as u64) << 32);
    if head {
        f |= FLIT_HEAD;
    }
    if tail {
        f |= FLIT_TAIL;
    }
    f
}

/// The chain index of a packed flit.
#[inline]
fn flit_idx(f: u64) -> usize {
    ((f >> 32) & 0xFF_FFFF) as usize
}

/// One forward-scan candidate: the front flit of one (edge × VC) buffer
/// of an active node, snapshotted at propose time. The commit replay
/// consumes these in ascending (node, edge, VC) order — the serial scan
/// order — granting at most one move per directed edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WormProbe {
    /// The scanning node (the edge's source); grants gate real effects
    /// on its owner lane.
    node: u32,
    /// Global directed edge id.
    edge: u32,
    /// Virtual channel of the snapshotted buffer.
    vc: u32,
    /// The buffer's front flit record.
    flit: u64,
}

/// Per-packet wormhole state in parallel columns indexed by slab id
/// (recycled with the slab's freelist, reset on allocation): the source,
/// the chain of buffer indices the head has reserved, the VC level and
/// last channel class driving VC selection, and the source-side streaming
/// progress.
#[derive(Default)]
struct WormState {
    src: Vec<u32>,
    /// Buffer indices (`edge * vcs + vc`) the head has claimed, in hop
    /// order — body flits follow this chain by their flit index.
    path: Vec<Vec<u32>>,
    level: Vec<u32>,
    last_class: Vec<u32>,
    flits_total: Vec<u32>,
    flits_sent: Vec<u32>,
    head_ejected: Vec<bool>,
}

impl WormState {
    fn reset(&mut self, id: u32, src: u32, flits: u32) {
        let i = id as usize;
        if self.src.len() <= i {
            let n = i + 1;
            self.src.resize(n, 0);
            self.path.resize_with(n, Vec::new);
            self.level.resize(n, 0);
            self.last_class.resize(n, 0);
            self.flits_total.resize(n, 0);
            self.flits_sent.resize(n, 0);
            self.head_ejected.resize(n, false);
        }
        self.src[i] = src;
        self.path[i].clear();
        self.level[i] = 0;
        self.last_class[i] = 0;
        self.flits_total[i] = flits;
        self.flits_sent[i] = 0;
        self.head_ejected[i] = false;
    }
}

/// [`Topology::channel_class`] tabulated per directed edge, so lanes
/// consult a shared plain slice instead of the topology object.
pub(crate) fn edge_classes<T: Topology + ?Sized>(topology: &T) -> Vec<u32> {
    let g = topology.graph();
    let mut classes = vec![0u32; g.num_directed_edges()];
    for u in 0..topology.len() as u32 {
        for e in g.edge_range(u) {
            classes[e] = topology.channel_class(u, g.target(e));
        }
    }
    classes
}

/// One lane of the wormhole workload — see the [module docs](self) for
/// the replicated-arbitration sharding model. A one-lane run over
/// `[0, n)` is the whole engine.
pub(crate) struct WormLane<'a, R: Router + ?Sized, F: FaultPolicy, O: SimObserver> {
    // Static, shared across lanes.
    g: &'a CsrGraph,
    edge_class: &'a [u32],
    routing: Routing<'a, R>,
    admission: &'a F,
    vcs: usize,
    buf_flits: u64,
    fpp: u32,
    max_level: u32,
    // Ownership: nodes `[lo, hi)`, whose out-edge buffers start at
    // global buffer index `buf_lo`.
    lo: u32,
    hi: u32,
    buf_lo: usize,
    /// Lane 0 alone reports `in_flight` through `queued()`, so the
    /// exchanged global sum equals the serial count.
    lead: bool,
    // Real, lane-owned state.
    queues: FlitQueues,
    occupancy: Vec<u32>,
    on_list: Vec<bool>,
    active: Vec<u32>,
    scanned: Vec<u32>,
    lat_scratch: Vec<u64>,
    acc: StatsAcc,
    observer: O,
    // Replicated mirrors — identical on every lane at every stage edge.
    link_load: Vec<u32>,
    occ_b: Vec<u32>,
    claimed: Vec<u32>,
    reserved: Vec<u32>,
    slab: PacketSlab,
    worm: WormState,
    arrivals: Vec<(u64, u32, u32)>,
    pending: VecDeque<u32>,
    streams: Vec<u32>,
    inj: Vec<&'a Packet>,
    next_inject: usize,
    in_flight: usize,
    progressed: bool,
    // Replay cursor: the edge currently arbitrated and whether it
    // already granted its one move this cycle.
    replay_edge: u32,
    replay_done: bool,
}

/// Builds [`WormLane`]s for one run: the static configuration every
/// lane shares.
pub(crate) struct WormLanes<'a, R: Router + ?Sized, F: FaultPolicy> {
    pub(crate) g: &'a CsrGraph,
    pub(crate) edge_class: &'a [u32],
    pub(crate) routing: Routing<'a, R>,
    pub(crate) admission: &'a F,
    /// Flits per packet, virtual channels per link, flits per buffer.
    pub(crate) fpp: u32,
    pub(crate) vcs: u32,
    pub(crate) buf_flits: u32,
    pub(crate) packets: &'a [Packet],
}

impl<'a, R: Router + ?Sized, F: FaultPolicy> LaneSet for WormLanes<'a, R, F> {
    type Lane<O: SimObserver> = WormLane<'a, R, F, O>;
    type Out = ();

    fn lane<O: SimObserver>(&mut self, lo: u32, hi: u32, observer: O) -> WormLane<'a, R, F, O> {
        let g = self.g;
        let vcs = self.vcs.max(1) as usize;
        let edge_lo = if hi > lo { g.edge_range(lo).start } else { 0 };
        let edge_hi = if hi > lo { g.edge_range(hi - 1).end } else { 0 };
        let links = g.num_directed_edges();
        let mut inj: Vec<&Packet> = self.packets.iter().collect();
        inj.sort_by_key(|p| p.inject_time);
        WormLane {
            g,
            edge_class: self.edge_class,
            routing: self.routing,
            admission: self.admission,
            vcs,
            buf_flits: self.buf_flits.max(1) as u64,
            fpp: self.fpp.max(1),
            max_level: vcs as u32 - 1,
            lo,
            hi,
            buf_lo: edge_lo * vcs,
            lead: lo == 0,
            queues: FlitQueues::new(edge_hi - edge_lo, vcs),
            occupancy: vec![0; (hi - lo) as usize],
            on_list: vec![false; (hi - lo) as usize],
            active: Vec::new(),
            scanned: Vec::new(),
            lat_scratch: Vec::new(),
            acc: StatsAcc::for_network(g.num_vertices()),
            observer,
            link_load: vec![0; links],
            occ_b: vec![0; links * vcs],
            claimed: vec![NO_CLAIM; links * vcs],
            reserved: vec![0; links * vcs],
            slab: PacketSlab::new(),
            worm: WormState::default(),
            arrivals: Vec::new(),
            pending: VecDeque::new(),
            streams: Vec::new(),
            inj,
            next_inject: 0,
            in_flight: 0,
            progressed: false,
            replay_edge: NO_EDGE,
            replay_done: false,
        }
    }
}

impl<R: Router + ?Sized, F: FaultPolicy, O: SimObserver> WormLane<'_, R, F, O> {
    #[inline]
    fn owns(&self, node: u32) -> bool {
        self.lo <= node && node < self.hi
    }

    /// Tries to place packet `id`'s head flit into VC 0 of its first
    /// output link: routes the first hop against the mirror loads,
    /// checks the buffer's claim and credit (multi-flit packets need
    /// exclusive worm occupancy), and on success starts the packet's
    /// chain. Every decision reads replicated state, so all lanes
    /// agree; the real queue push, occupancy, worklist and observer
    /// event happen on the source's owner only. A `false` return leaves
    /// the packet unplaced (its state untouched) for retry next cycle.
    fn try_place_head(&mut self, cycle: u64, id: u32) -> bool {
        let i = id as usize;
        let src = self.worm.src[i];
        let dst = self.slab.dst(id);
        let e0 = route_edge(self.g, self.routing, &self.link_load[..], 0, src, dst);
        let b0 = e0 * self.vcs;
        let multi = self.worm.flits_total[i] > 1;
        if multi && self.claimed[b0] != NO_CLAIM {
            return false;
        }
        if self.occ_b[b0] as u64 + self.reserved[b0] as u64 >= self.buf_flits {
            return false;
        }
        self.worm.level[i] = 0;
        self.worm.last_class[i] = self.edge_class[e0];
        self.worm.path[i].push(b0 as u32);
        self.worm.flits_sent[i] = 1;
        if multi {
            self.claimed[b0] = id;
            self.streams.push(id);
        }
        self.occ_b[b0] += 1;
        self.link_load[e0] += 1;
        if self.owns(src) {
            self.queues
                .push(b0 - self.buf_lo, flit(id, 0, true, !multi));
            let s = (src - self.lo) as usize;
            self.occupancy[s] += 1;
            self.observer.on_flit_hop(cycle, e0, 0, self.occ_b[b0]);
            if !self.on_list[s] {
                self.on_list[s] = true;
                self.active.push(src);
            }
        }
        true
    }

    /// Removes a granted flit from its buffer: mirror decrements on
    /// every lane; the real pop (which must yield exactly the
    /// snapshotted flit) and node occupancy, plus — for head moves
    /// (`hop`) — the hop statistics and observer event, on the scanning
    /// node's owner.
    fn pop_flit(&mut self, cycle: u64, u: u32, e: usize, vc: u32, f: u64, hop: bool) {
        let b = e * self.vcs + vc as usize;
        self.occ_b[b] -= 1;
        self.link_load[e] -= 1;
        if hop {
            self.slab.record_hop(f as u32);
        }
        if self.owns(u) {
            let popped = self.queues.pop(b - self.buf_lo);
            debug_assert_eq!(popped, Some(f), "replayed flit must front its buffer");
            self.occupancy[(u - self.lo) as usize] -= 1;
            if hop {
                self.observer.on_hop(cycle, u, self.g.target(e), e);
                self.acc.total_hops += 1;
            }
        }
    }
}

impl<R: Router + ?Sized, F: FaultPolicy, O: SimObserver> LaneWorkload for WormLane<'_, R, F, O> {
    type Msg = WormProbe;
    type Observer = O;
    type Out = ();

    fn queued(&self) -> u64 {
        // `in_flight` is replicated; only the lead lane reports it so
        // the exchanged sum equals the serial count.
        if self.lead {
            self.in_flight as u64
        } else {
            0
        }
    }

    fn next_pending(&mut self) -> Option<u64> {
        self.inj.get(self.next_inject).map(|p| p.inject_time)
    }

    /// Streaming continuation, head retries, then injection — all three
    /// run the identical decision sequence on every lane against the
    /// mirrors (keeping claims, credits, slab ids and the FIFOs in
    /// lockstep); flit pushes, statistics and observer events fire on
    /// the owning lane only.
    fn begin(&mut self, cycle: u64) {
        self.progressed = false;
        self.replay_edge = NO_EDGE;
        self.replay_done = false;

        // Streaming continuation: each multi-flit packet feeds at most
        // one body flit per cycle into its claimed first buffer. The
        // claim is released once the tail has entered the network.
        let mut streams = std::mem::take(&mut self.streams);
        streams.retain(|&id| {
            let i = id as usize;
            let b0 = self.worm.path[i][0] as usize;
            if self.occ_b[b0] as u64 + self.reserved[b0] as u64 >= self.buf_flits {
                return true;
            }
            let sent = self.worm.flits_sent[i];
            let is_tail = sent + 1 == self.worm.flits_total[i];
            let e0 = b0 / self.vcs;
            self.occ_b[b0] += 1;
            self.link_load[e0] += 1;
            let src = self.worm.src[i];
            if self.owns(src) {
                self.queues
                    .push(b0 - self.buf_lo, flit(id, 0, false, is_tail));
                let s = (src - self.lo) as usize;
                self.occupancy[s] += 1;
                self.observer
                    .on_flit_hop(cycle, e0, (b0 % self.vcs) as u32, self.occ_b[b0]);
                if !self.on_list[s] {
                    self.on_list[s] = true;
                    self.active.push(src);
                }
            }
            self.worm.flits_sent[i] = sent + 1;
            self.progressed = true;
            if is_tail {
                if self.claimed[b0] == id {
                    self.claimed[b0] = NO_CLAIM;
                }
                false
            } else {
                true
            }
        });
        self.streams = streams;

        // Retry heads that failed to claim their first buffer, oldest
        // first; failures keep their order without blocking later ones.
        for _ in 0..self.pending.len() {
            let id = self.pending.pop_front().expect("iteration is len-bounded");
            if self.try_place_head(cycle, id) {
                self.progressed = true;
            } else {
                self.pending.push_back(id);
            }
        }

        // Inject everything due this cycle (same admission and
        // self-addressed handling as the store-and-forward engine).
        while self.next_inject < self.inj.len() && self.inj[self.next_inject].inject_time <= cycle {
            let p = self.inj[self.next_inject];
            self.next_inject += 1;
            let (src, dst) = (p.src, p.dst);
            let own = self.owns(src);
            if own {
                self.observer.on_inject(cycle, src, dst);
            }
            if let Some(reason) = self.admission.verdict(src, dst) {
                if own {
                    self.acc.drop_packet(reason);
                    self.observer.on_drop(cycle, src, dst, reason);
                }
                continue;
            }
            if src == dst {
                if own {
                    self.acc.deliver_instant();
                    self.observer.on_deliver(cycle, dst, 0);
                }
                continue;
            }
            let id = self.slab.alloc(dst, p.inject_time);
            self.worm.reset(id, src, self.fpp);
            self.in_flight += 1;
            if self.try_place_head(cycle, id) {
                self.progressed = true;
            } else {
                self.pending.push_back(id);
            }
        }
    }

    /// Snapshots the front flit of every non-empty (edge × VC) buffer
    /// of this lane's active nodes, in ascending node/edge/VC order.
    /// Pure reads — every mutation waits for the commit replay — so the
    /// snapshots equal what the serial scan would read live (a scan
    /// pops only from the buffer it is currently serving, and pushes
    /// are deferred to the arrival boundary).
    fn propose(&mut self, _cycle: u64, out: &mut Vec<WormProbe>) {
        self.active.sort_unstable();
        std::mem::swap(&mut self.active, &mut self.scanned);
        let mut k = 0;
        while k < self.scanned.len() {
            let u = self.scanned[k];
            k += 1;
            self.on_list[(u - self.lo) as usize] = false;
            for e in self.g.edge_range(u) {
                if self.link_load[e] == 0 {
                    continue;
                }
                for vc in 0..self.vcs {
                    let b = e * self.vcs + vc;
                    if let Some(f) = self.queues.front(b - self.buf_lo) {
                        out.push(WormProbe {
                            node: u,
                            edge: e as u32,
                            vc: vc as u32,
                            flit: f,
                        });
                    }
                }
            }
        }
    }

    /// Replays the serial forward scan, one candidate at a time, on
    /// **every** lane: per directed edge the first candidate (lowest
    /// VC) that can advance — claim and credit checks against the
    /// mirror, which evolves move by move in serial order — wins the
    /// edge's one move per cycle; later VCs of a granted edge are
    /// skipped. Mirror updates run everywhere; the real pop and hop
    /// accounting fire on the scanning node's owner only.
    fn commit(&mut self, now: u64, m: &WormProbe) {
        if m.edge != self.replay_edge {
            self.replay_edge = m.edge;
            self.replay_done = false;
        }
        if self.replay_done {
            return;
        }
        let cycle = now - 1;
        let e = m.edge as usize;
        let f = m.flit;
        let id = f as u32;
        let i = id as usize;
        if f & FLIT_HEAD != 0 {
            let v = self.g.target(e);
            let dst = self.slab.dst(id);
            if v == dst {
                self.pop_flit(cycle, m.node, e, m.vc, f, true);
                self.arrivals.push((f, EJECT, v));
            } else {
                let e2 = route_edge(self.g, self.routing, &self.link_load[..], 0, v, dst);
                let c2 = self.edge_class[e2];
                let mut lvl = self.worm.level[i];
                if c2 <= self.worm.last_class[i] {
                    // Class order broken (a ring dateline or a fault
                    // detour): escape one VC level up.
                    lvl = (lvl + 1).min(self.max_level);
                }
                let b2 = e2 * self.vcs + lvl as usize;
                let multi = self.worm.flits_total[i] > 1;
                if multi && self.claimed[b2] != NO_CLAIM && self.claimed[b2] != id {
                    return;
                }
                if self.occ_b[b2] as u64 + self.reserved[b2] as u64 >= self.buf_flits {
                    return;
                }
                self.pop_flit(cycle, m.node, e, m.vc, f, true);
                if multi {
                    self.claimed[b2] = id;
                }
                self.reserved[b2] += 1;
                self.worm.level[i] = lvl;
                self.worm.last_class[i] = c2;
                self.worm.path[i].push(b2 as u32);
                self.arrivals.push((
                    flit(id, flit_idx(f) + 1, true, f & FLIT_TAIL != 0),
                    b2 as u32,
                    v,
                ));
            }
        } else {
            // Body/tail flit: follow the head's reserved chain.
            let idx = flit_idx(f);
            if idx + 1 < self.worm.path[i].len() {
                let b2 = self.worm.path[i][idx + 1] as usize;
                if self.occ_b[b2] as u64 + self.reserved[b2] as u64 >= self.buf_flits {
                    return;
                }
                self.pop_flit(cycle, m.node, e, m.vc, f, false);
                self.reserved[b2] += 1;
                self.arrivals.push((
                    flit(id, idx + 1, false, f & FLIT_TAIL != 0),
                    b2 as u32,
                    self.g.target(e),
                ));
            } else if self.worm.head_ejected[i] {
                // End of the chain with the head gone: this flit
                // crosses the final link into the destination.
                self.pop_flit(cycle, m.node, e, m.vc, f, false);
                self.arrivals.push((f, EJECT, self.g.target(e)));
            } else {
                // Head still parked one buffer ahead: wait.
                return;
            }
        }
        self.replay_done = true;
        self.progressed = true;
    }

    /// Re-activates scanned nodes that still hold flits (before
    /// arrivals, matching the serial order), then applies the
    /// replicated arrival list at the `cycle + 1` boundary: flits enter
    /// their reserved buffers or leave the network at the destination.
    /// Mirror credits, claims and the in-flight count update on every
    /// lane; queue pushes, worklists, observer events and the batched
    /// latency accounting ([`StatsAcc::deliver_batch`]) fire on the
    /// owning lane only.
    fn end_cycle(&mut self, now: u64) {
        let mut k = 0;
        while k < self.scanned.len() {
            let u = self.scanned[k];
            k += 1;
            let s = (u - self.lo) as usize;
            if self.occupancy[s] > 0 {
                self.on_list[s] = true;
                self.active.push(u);
            }
        }
        self.scanned.clear();

        let mut arrivals = std::mem::take(&mut self.arrivals);
        for &(f, buf, node) in &arrivals {
            let id = f as u32;
            if buf == EJECT {
                if f & FLIT_TAIL != 0 {
                    self.in_flight -= 1;
                    let inject_time = self.slab.inject(id);
                    if self.owns(node) {
                        self.lat_scratch.push(now - inject_time);
                        self.observer.on_deliver(now, node, now - inject_time);
                    }
                    self.slab.release(id);
                } else if f & FLIT_HEAD != 0 {
                    self.worm.head_ejected[id as usize] = true;
                }
                // Body flits between head and tail vanish at dst.
            } else {
                let b = buf as usize;
                let e = b / self.vcs;
                self.reserved[b] -= 1;
                self.occ_b[b] += 1;
                self.link_load[e] += 1;
                if f & FLIT_TAIL != 0 && self.claimed[b] == id {
                    self.claimed[b] = NO_CLAIM;
                }
                if self.owns(node) {
                    self.queues.push(b - self.buf_lo, f);
                    let s = (node - self.lo) as usize;
                    self.occupancy[s] += 1;
                    self.observer
                        .on_flit_hop(now, e, (b % self.vcs) as u32, self.occ_b[b]);
                    if !self.on_list[s] {
                        self.on_list[s] = true;
                        self.active.push(node);
                    }
                }
            }
        }
        arrivals.clear();
        self.arrivals = arrivals;
        self.acc.deliver_batch(now, &self.lat_scratch);
        self.lat_scratch.clear();
    }

    fn observe(&mut self, cycle: u64, in_flight: u64) {
        self.observer.on_cycle_end(cycle, in_flight as usize);
    }

    /// Replicates the serial deadlock handling: when nothing moved with
    /// flits still in flight, jump to the next injection (new packets
    /// may place on other links) or stop on a genuine deadlock — only
    /// reachable off the order-based configurations; the stranded
    /// packets surface as `offered − delivered − dropped`. All inputs
    /// (`progressed`, `in_flight`, the injection cursor) are
    /// replicated, so every lane decides identically.
    fn advance(&mut self, cycle: u64, max_cycles: u64) -> Option<u64> {
        if !self.progressed && self.in_flight > 0 {
            return match self.inj.get(self.next_inject) {
                Some(p) if p.inject_time >= max_cycles => None,
                Some(p) => Some(p.inject_time.max(cycle + 1)),
                None => None,
            };
        }
        Some(cycle + 1)
    }

    fn finish(self) -> (StatsAcc, O, ()) {
        (self.acc, self.observer, ())
    }
}
