//! The dynamic-fault (churn) store-and-forward workload: the same
//! unified stepper and store-and-forward lane as the static engine, with a
//! [`ChurnTimeline`](crate::fault::ChurnTimeline) of fail/recover events applied in the event-commit
//! stage and an optional closed-loop request/reply workload with
//! timeout-and-retry delivery.
//!
//! ## Event semantics
//!
//! Events commit **between cycles**: all events with `cycle <= c` are
//! applied at the top of cycle `c` (the [`ReplicationPolicy::
//! commit_events`] stage), after the previous cycle's arrivals and
//! before cycle `c`'s injections — so every admission verdict and
//! routing decision within one cycle sees one consistent fault epoch
//! (the stability contract of
//! [`ChurnAdmission`](super::policy::ChurnAdmission)). Applying an event
//! flips the [`FaultMaskingRouter`]'s masks and **incrementally patches**
//! its distance table ([`FaultMaskingRouter::apply_event`]); packets
//! queued on a dying link or node are flushed as typed drops
//! ([`DropReason::LinkDied`] / [`DropReason::NodeDied`]). Deliveries at
//! the `c + 1` arrival boundary precede deaths at cycle `c + 1`.
//!
//! ## Sharding
//!
//! Each lane owns a **replica** of the masked router, built from the
//! same timeline and patched by the same deterministic
//! [`FaultMaskingRouter::apply_event`] calls — so every lane's routing
//! and admission decisions agree without any shared lock (this replaced
//! the old worker-0 `RwLock`'d event application). Queue flushes and
//! drop accounting are gated on node ownership; the closed-loop session
//! machine is replicated the same way, with every RNG draw executing on
//! every lane and only the owning lane touching real packets.
//!
//! ## Equivalence gates
//!
//! - An **empty timeline** delegates to the healthy engine (the
//!   engine's one door, `engine::run`, checks) — the zero-churn run is
//!   packet-for-packet identical to a healthy run.
//! - A timeline whose failures all commit at cycle 0 and never recover
//!   is packet-for-packet identical to the static degraded run: both
//!   route per-hop through the same [`FaultMaskingRouter`] state, with
//!   the same injection admission and the same cycle skeleton.
//!
//! ## Closed-loop delivery
//!
//! The request/reply workload ([`RequestReplyLoad`]) replaces the
//! open-loop packet list with
//! `clients` sessions. Each session thinks (seeded exponential holding
//! time), then issues a request to a fresh random destination; the
//! destination answers with a reply packet, and the transaction
//! completes when the reply returns. A reply that misses its deadline
//! triggers a retry with seeded exponential backoff (jittered delay,
//! doubling window, fresh destination — a failover probe); an exhausted
//! retry budget is a typed [`DropReason::RetriesExhausted`] drop.
//! `SimStats` counts **transactions**, not packets: `offered` is
//! transactions started, a delivery's latency spans first request to
//! final reply (retries included), and request/reply hops contribute to
//! `total_hops` and link contention like any other traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fibcube_graph::csr::CsrGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arena::PacketSlab;
use crate::fault::{ChurnEvent, ChurnTarget, FaultSet};
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, Router};
use crate::traffic::Packet;

use super::core::{Core, Routing, SafMsg};
use super::policy::{ChurnAdmission, FaultPolicy, ReplicationPolicy};
use super::stats::DropReason;

/// The closed-loop request/reply workload: `clients` sessions cycling
/// think → request → reply with timeout-and-retry delivery. Built from
/// [`TrafficSpec::RequestReply`](crate::traffic::TrafficSpec) and the
/// experiment seed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RequestReplyLoad {
    /// Concurrent client sessions.
    pub(crate) clients: usize,
    /// Mean think time between transactions (cycles, exponential).
    pub(crate) think: f64,
    /// Base reply deadline (cycles); doubles per retry attempt.
    pub(crate) timeout: u64,
    /// Retry budget beyond the first attempt.
    pub(crate) retries: u32,
    /// Seed for session placement, destinations, think times, backoff.
    pub(crate) seed: u64,
}

/// Traffic side of the churn workload: the open-loop time-sorted packet
/// list (this lane's sources only), or the closed-loop session machine
/// (replicated on every lane).
enum Mode<'p> {
    Open {
        inj: Vec<&'p Packet>,
        next_inject: usize,
    },
    Closed(Sessions),
}

/// The churn workload: a [`ReplicationPolicy`] owning a lane-local
/// **replica** of the masked router, so fault events can flip its masks
/// and patch its distance table mid-run without any cross-lane lock —
/// every lane applies the same deterministic event stream, so the
/// replicas never diverge.
pub(crate) struct ChurnUnicast<'g, 'p, R: Router + ?Sized> {
    router: FaultMaskingRouter<'g, R>,
    events: &'p [ChurnEvent],
    next_event: usize,
    mode: Mode<'p>,
}

impl<'g, 'p, R: Router + ?Sized> ChurnUnicast<'g, 'p, R> {
    /// The open-loop churn workload for one lane: injects the packets
    /// sourced in `[lo, hi)`, time-sorted (stable — the serial order
    /// restricted to the lane).
    pub(crate) fn open(
        g: &'g CsrGraph,
        inner: &'g R,
        events: &'p [ChurnEvent],
        packets: &'p [Packet],
        lo: u32,
        hi: u32,
    ) -> ChurnUnicast<'g, 'p, R> {
        let mut inj: Vec<&Packet> = packets
            .iter()
            .filter(|p| lo <= p.src && p.src < hi)
            .collect();
        inj.sort_by_key(|p| p.inject_time);
        ChurnUnicast {
            router: FaultMaskingRouter::new(g, inner, &FaultSet::empty()),
            events,
            next_event: 0,
            mode: Mode::Open {
                inj,
                next_inject: 0,
            },
        }
    }

    /// The closed-loop churn workload for one lane: the full session
    /// machine, replicated identically on every lane (same seed, same
    /// draws); the lane bounds live in the [`Core`] it runs against.
    pub(crate) fn closed(
        g: &'g CsrGraph,
        inner: &'g R,
        events: &'p [ChurnEvent],
        load: &RequestReplyLoad,
        n: u32,
    ) -> ChurnUnicast<'g, 'p, R> {
        ChurnUnicast {
            router: FaultMaskingRouter::new(g, inner, &FaultSet::empty()),
            events,
            next_event: 0,
            mode: Mode::Closed(Sessions::new(load, n)),
        }
    }

    /// Transactions started — the closed loop's `offered` (0 for open).
    pub(crate) fn offered(&self) -> usize {
        match &self.mode {
            Mode::Open { .. } => 0,
            Mode::Closed(sessions) => sessions.offered,
        }
    }
}

impl<R: Router + ?Sized> ReplicationPolicy for ChurnUnicast<'_, '_, R> {
    fn next_pending(&mut self) -> Option<u64> {
        // Traffic actions only: pending fault events between here and
        // the next action commit late, at the jumped-to cycle — with no
        // packets anywhere they cannot change any statistic, only the
        // mask state future injections see.
        match &mut self.mode {
            Mode::Open { inj, next_inject } => inj.get(*next_inject).map(|p| p.inject_time),
            Mode::Closed(sessions) => sessions.next_action_cycle(),
        }
    }

    /// Applies every event due at or before `cycle`, in timeline order:
    /// router masks and distance rows on **every** lane's replica, then
    /// the queue flushes for failures at the lanes owning the affected
    /// queues. Flushes only ever find packets when `event.cycle` is the
    /// current cycle — the engine fast-forwards only over empty
    /// networks.
    fn commit_events<O: SimObserver>(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        while self.next_event < self.events.len() && self.events[self.next_event].cycle <= cycle {
            let ev = self.events[self.next_event];
            self.next_event += 1;
            self.router.apply_event(&ev);
            if ev.failed {
                // In the closed loop, stranded packets vanish silently:
                // the session's timeout observes the loss and the
                // transaction-level accounting stays conserved.
                let silent = matches!(self.mode, Mode::Closed(_));
                match ev.target {
                    ChurnTarget::Link(u, v) => {
                        // u < v, so the u→v directed edge flushes first —
                        // ascending directed-edge order.
                        for (a, b) in [(u, v), (v, u)] {
                            if !core.owns(a) {
                                continue;
                            }
                            let g = core.g;
                            if let Some(slot) = g.slot_of(a, b) {
                                let e = g.edge_range(a).start + slot;
                                core.flush_directed_edge(
                                    a,
                                    e,
                                    ev.cycle,
                                    DropReason::LinkDied,
                                    silent,
                                );
                            }
                        }
                    }
                    ChurnTarget::Node(x) => {
                        let g = core.g;
                        if core.owns(x) {
                            for e in g.edge_range(x) {
                                core.flush_directed_edge(
                                    x,
                                    e,
                                    ev.cycle,
                                    DropReason::NodeDied,
                                    silent,
                                );
                            }
                        }
                        for &y in g.neighbors(x) {
                            if !core.owns(y) {
                                continue;
                            }
                            if let Some(back) = g.slot_of(y, x) {
                                let e = g.edge_range(y).start + back;
                                core.flush_directed_edge(
                                    y,
                                    e,
                                    ev.cycle,
                                    DropReason::NodeDied,
                                    silent,
                                );
                            }
                        }
                    }
                }
            }
            // Every lane's observer fork sees the (global) fault event;
            // the merge hook deduplicates.
            core.observer.on_fault_event(ev.cycle, ev.failed);
        }
    }

    fn inject<O: SimObserver>(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        let ChurnUnicast { router, mode, .. } = self;
        match mode {
            Mode::Open { inj, next_inject } => {
                while *next_inject < inj.len() && inj[*next_inject].inject_time <= cycle {
                    let p = inj[*next_inject];
                    *next_inject += 1;
                    core.observer.on_inject(cycle, p.src, p.dst);
                    if let Some(reason) = ChurnAdmission::new(router).verdict(p.src, p.dst) {
                        core.acc.drop_packet(reason);
                        core.observer.on_drop(cycle, p.src, p.dst, reason);
                        continue;
                    }
                    if p.src == p.dst {
                        core.acc.deliver_instant();
                        core.observer.on_deliver(cycle, p.dst, 0);
                        continue;
                    }
                    let id = core.slab.alloc(p.dst, p.inject_time);
                    core.route_and_enqueue(Routing::PerHop(&*router), p.src, id, p.dst);
                }
            }
            Mode::Closed(sessions) => sessions.process_due(cycle, router, core),
        }
    }

    /// The closed loop tags each departing packet with its transaction
    /// identity (session, txn, attempt, direction) so the committing
    /// lane can reconstruct the [`Meta`] sidecar without shared state.
    #[inline]
    fn depart(&mut self, _u: u32, id: u32, _slab: &PacketSlab, msg: &mut SafMsg) {
        if let Mode::Closed(sessions) = &self.mode {
            let m = sessions.meta[id as usize];
            msg.inject = m.txn;
            msg.hops = m.attempt;
            msg.tag = m.session | if m.reply { REPLY_BIT } else { 0 };
        }
    }

    fn commit<O: SimObserver>(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O>) {
        let ChurnUnicast { router, mode, .. } = self;
        match mode {
            Mode::Open { .. } => {
                if !core.owns(msg.node) {
                    return;
                }
                if msg.node == msg.dst {
                    core.deliver(now, msg.node, now - msg.inject);
                } else if !router.node_alive(msg.dst) {
                    // The destination died while the packet was in flight.
                    core.acc.drop_packet(DropReason::NodeDied);
                    core.observer
                        .on_drop(now, msg.node, msg.dst, DropReason::NodeDied);
                } else if !router.reachable(msg.node, msg.dst) {
                    // Churn partitioned the network under the packet.
                    core.acc.drop_packet(DropReason::Unreachable);
                    core.observer
                        .on_drop(now, msg.node, msg.dst, DropReason::Unreachable);
                } else {
                    let id = core.slab.alloc(msg.dst, msg.inject);
                    core.slab.set_hops(id, msg.hops);
                    core.route_and_enqueue(Routing::PerHop(&*router), msg.node, id, msg.dst);
                }
            }
            Mode::Closed(sessions) => sessions.commit(now, msg, router, core),
        }
    }
}

/// What a session is waiting for (exactly one pending action each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// Thinking; start the next transaction when due.
    Start,
    /// Waiting for a reply; fire the timeout when due.
    Timeout,
    /// Backing off; inject the retry attempt when due.
    Retry,
}

#[derive(Clone, Copy, Debug)]
struct Session {
    src: u32,
    dst: u32,
    /// Current transaction number (0 before the first).
    txn: u64,
    /// Attempt within the current transaction (0 = first request).
    attempt: u32,
    /// Inject cycle of the transaction's *first* request — the latency
    /// baseline a successful reply is measured against.
    t0: u64,
    pending: Action,
    /// Sequence stamp of the live heap entry; older entries are stale.
    pending_seq: u64,
}

/// Per-packet transaction tag, indexed by slab id (ids recycle; the
/// entry is overwritten at alloc time). Lane-local: only the lane that
/// holds the packet writes or reads its entry, and the identity rides
/// across lane hops in the [`SafMsg`]'s overloaded fields.
#[derive(Clone, Copy, Debug, Default)]
struct Meta {
    session: u32,
    txn: u64,
    attempt: u32,
    reply: bool,
}

/// Reply-direction flag packed into [`SafMsg::tag`]'s top bit, above
/// the session id.
const REPLY_BIT: u32 = 1 << 31;

/// The closed-loop session machine. All scheduling goes through one
/// min-heap of `(cycle, seq, session)` entries; a session transition
/// bumps its `pending_seq`, implicitly cancelling any earlier entry
/// (e.g. the timeout of a reply that did arrive).
///
/// Sharded, the whole machine is **replicated on every lane**: every
/// heap transition and every RNG draw executes identically everywhere
/// (so the replicas never diverge), while real packet effects —
/// allocations, routing, drop/delivery accounting, observer events —
/// are gated on the lane owning the acting node.
struct Sessions {
    rng: StdRng,
    n: u32,
    think: f64,
    timeout: u64,
    retries: u32,
    sessions: Vec<Session>,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    meta: Vec<Meta>,
    /// Transactions started — the run's `offered`.
    offered: usize,
}

/// 53 random bits → uniform in (0, 1], so `ln` stays finite.
fn exp_draw(rng: &mut StdRng, mean: f64) -> u64 {
    if mean.is_nan() || mean <= 0.0 {
        return 0;
    }
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    (-u.ln() * mean).ceil() as u64
}

impl Sessions {
    fn new(load: &RequestReplyLoad, n: u32) -> Sessions {
        let mut s = Sessions {
            rng: StdRng::seed_from_u64(load.seed),
            n,
            think: load.think,
            timeout: load.timeout.max(1),
            retries: load.retries,
            sessions: Vec::with_capacity(load.clients),
            heap: BinaryHeap::new(),
            seq: 0,
            meta: Vec::new(),
            offered: 0,
        };
        for i in 0..load.clients {
            let src = s.rng.gen_range(0..n);
            s.sessions.push(Session {
                src,
                dst: src,
                txn: 0,
                attempt: 0,
                t0: 0,
                pending: Action::Start,
                pending_seq: 0,
            });
            // Stagger the first transactions with think-time draws.
            let start = exp_draw(&mut s.rng, s.think);
            s.schedule(i as u32, start, Action::Start);
        }
        s
    }

    fn schedule(&mut self, session: u32, cycle: u64, action: Action) {
        self.seq += 1;
        let s = &mut self.sessions[session as usize];
        s.pending = action;
        s.pending_seq = self.seq;
        self.heap.push(Reverse((cycle, self.seq, session)));
    }

    /// Earliest live scheduled action, discarding stale heap entries.
    fn next_action_cycle(&mut self) -> Option<u64> {
        while let Some(&Reverse((cycle, seq, session))) = self.heap.peek() {
            if self.sessions[session as usize].pending_seq == seq {
                return Some(cycle);
            }
            self.heap.pop();
        }
        None
    }

    /// The attempt's reply deadline window: the base timeout doubling
    /// per retry (shift capped — the window saturates, never wraps).
    fn window(&self, attempt: u32) -> u64 {
        self.timeout.saturating_mul(1u64 << attempt.min(16))
    }

    fn sample_dst(&mut self, src: u32) -> u32 {
        loop {
            let d = self.rng.gen_range(0..self.n);
            if d != src {
                return d;
            }
        }
    }

    /// Injects the current attempt's request, if admission permits. A
    /// rejected attempt (dead or disconnected endpoints) is simply a
    /// lost request: the pending timeout observes it. The verdict is
    /// evaluated on every lane (replicated router — same answer); the
    /// packet itself exists only at the lane owning the client.
    fn try_inject_request<O: SimObserver, R: Router + ?Sized>(
        &mut self,
        session: u32,
        cycle: u64,
        router: &FaultMaskingRouter<'_, R>,
        core: &mut Core<'_, O>,
    ) {
        let s = self.sessions[session as usize];
        if ChurnAdmission::new(router).verdict(s.src, s.dst).is_some() {
            return;
        }
        if !core.owns(s.src) {
            return;
        }
        let id = core.slab.alloc(s.dst, cycle);
        set_meta(
            &mut self.meta,
            id,
            Meta {
                session,
                txn: s.txn,
                attempt: s.attempt,
                reply: false,
            },
        );
        core.route_and_enqueue(Routing::PerHop(router), s.src, id, s.dst);
    }

    /// Fires every session action due at `cycle`: transaction starts,
    /// reply timeouts (retry or give up), and backoff-delayed retries.
    /// Heap order `(cycle, seq)` makes the firing order deterministic,
    /// and every lane fires every action (the RNG must advance in
    /// lockstep); only the owning lane touches packets and statistics.
    fn process_due<O: SimObserver, R: Router + ?Sized>(
        &mut self,
        cycle: u64,
        router: &FaultMaskingRouter<'_, R>,
        core: &mut Core<'_, O>,
    ) {
        loop {
            let Some(&Reverse((due, seq, session))) = self.heap.peek() else {
                return;
            };
            if due > cycle {
                return;
            }
            self.heap.pop();
            if self.sessions[session as usize].pending_seq != seq {
                continue; // cancelled by a reply or a state change
            }
            let action = self.sessions[session as usize].pending;
            match action {
                Action::Start => {
                    let (src, dst) = {
                        let src = self.sessions[session as usize].src;
                        (src, self.sample_dst(src))
                    };
                    {
                        let s = &mut self.sessions[session as usize];
                        s.txn += 1;
                        s.attempt = 0;
                        s.t0 = cycle;
                        s.dst = dst;
                    }
                    self.offered += 1;
                    if core.owns(src) {
                        core.observer.on_inject(cycle, src, dst);
                    }
                    self.try_inject_request(session, cycle, router, core);
                    let deadline = cycle + self.window(0);
                    self.schedule(session, deadline, Action::Timeout);
                }
                Action::Timeout => {
                    let (src, dst, attempt) = {
                        let s = &self.sessions[session as usize];
                        (s.src, s.dst, s.attempt)
                    };
                    if attempt >= self.retries {
                        // Budget exhausted: the transaction is a typed
                        // drop, and the session thinks before retrying
                        // with a fresh transaction.
                        if core.owns(src) {
                            core.acc.drop_packet(DropReason::RetriesExhausted);
                            core.observer
                                .on_drop(cycle, src, dst, DropReason::RetriesExhausted);
                        }
                        let start = cycle + 1 + exp_draw(&mut self.rng, self.think);
                        self.schedule(session, start, Action::Start);
                    } else {
                        // Seeded exponential backoff: a uniform jitter
                        // inside the attempt's (doubling) window.
                        self.sessions[session as usize].attempt = attempt + 1;
                        let window = self.window(attempt);
                        let delay = self.rng.gen_range(0..window.max(1));
                        self.schedule(session, cycle + delay, Action::Retry);
                    }
                }
                Action::Retry => {
                    let src = self.sessions[session as usize].src;
                    let dst = self.sample_dst(src);
                    self.sessions[session as usize].dst = dst;
                    self.try_inject_request(session, cycle, router, core);
                    let attempt = self.sessions[session as usize].attempt;
                    let deadline = cycle + self.window(attempt);
                    self.schedule(session, deadline, Action::Timeout);
                }
            }
        }
    }

    /// One packet committing at `msg.node`: route it onward, complete
    /// the request→reply turn at its destination, or finish the
    /// transaction at the client. Stale packets (their session moved
    /// on) vanish silently; mid-flight losses are covered by the
    /// session timeout. Session-state transitions (including their RNG
    /// draws) run on **every** lane; packet and statistic effects only
    /// at the owner.
    fn commit<O: SimObserver, R: Router + ?Sized>(
        &mut self,
        now: u64,
        msg: &SafMsg,
        router: &FaultMaskingRouter<'_, R>,
        core: &mut Core<'_, O>,
    ) {
        let m = Meta {
            session: msg.tag & !REPLY_BIT,
            txn: msg.inject,
            attempt: msg.hops,
            reply: msg.tag & REPLY_BIT != 0,
        };
        if msg.node != msg.dst {
            // Mid-route: owner-only, no session transition. A packet
            // whose destination died or was partitioned away vanishes
            // silently (the pop already discounted it).
            if !core.owns(msg.node) {
                return;
            }
            if router.node_alive(msg.dst) && router.reachable(msg.node, msg.dst) {
                let id = core.slab.alloc(msg.dst, now);
                set_meta(&mut self.meta, id, m);
                core.route_and_enqueue(Routing::PerHop(router), msg.node, id, msg.dst);
            }
            return;
        }
        let s = self.sessions[m.session as usize];
        let current = s.txn == m.txn && s.attempt == m.attempt && s.pending == Action::Timeout;
        if !current {
            return; // the session retried or gave up: stale packet
        }
        if !m.reply {
            // Request reached the server: turn it around as a reply, if
            // the client is still there to receive it.
            if msg.node != s.src
                && router.node_alive(s.src)
                && router.reachable(msg.node, s.src)
                && core.owns(msg.node)
            {
                let rid = core.slab.alloc(s.src, now);
                set_meta(&mut self.meta, rid, Meta { reply: true, ..m });
                core.route_and_enqueue(Routing::PerHop(router), msg.node, rid, s.src);
            }
        } else {
            // Reply reached the client: the transaction completes, with
            // latency measured from the transaction's first request.
            if core.owns(msg.node) {
                core.deliver(now, msg.node, now - s.t0);
            }
            let start = now + exp_draw(&mut self.rng, self.think);
            self.schedule(m.session, start, Action::Start);
        }
    }
}

fn set_meta(meta: &mut Vec<Meta>, id: u32, m: Meta) {
    let i = id as usize;
    if meta.len() <= i {
        meta.resize(i + 1, Meta::default());
    }
    meta[i] = m;
}
