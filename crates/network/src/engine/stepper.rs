//! The **one** cycle stepper behind every engine variant, serial or
//! sharded.
//!
//! A simulation run is a [`LaneWorkload`]: the per-cycle stages of one
//! *lane* (a contiguous shard of nodes, or the whole network), wired
//! together by [`run_lane`] under a [`Protocol`] that decides how lanes
//! exchange cross-shard effects:
//!
//! - [`Solo`] — one lane covering every node, outbox kept in a local
//!   `RefCell`, no synchronization at all. A one-lane run is a `Solo`
//!   monomorphization, so it compiles to the same straight-line loop a
//!   dedicated serial engine would.
//! - `Pooled` (in [`parallel`](super::parallel)) — `k` lanes on a
//!   scoped thread pool with per-lane `RwLock` outboxes, published
//!   queue counters, and a barrier per phase boundary.
//!
//! [`run_lanes`](super::parallel::run_lanes) picks between them from
//! the lane count alone.
//!
//! Because both protocols drive the *same* stage methods in the *same*
//! order, and every stage only reads its own lane's arena state while
//! appending cross-lane effects to an outbox that is committed in
//! ascending lane order, the full [`SimStats`](super::SimStats) (and
//! any forked observer state) is bit-identical at every lane count.
//!
//! ## The cycle skeleton
//!
//! ```text
//! exchange  — publish (queued, next-pending), read global (Σ, min):
//!             the lockstep idle-skip / termination decision
//! begin     — event-commit (churn) + inject (admission, sessions,
//!             flit streams) on this lane's own nodes
//! propose   — forward scan over this lane's active nodes; each popped
//!             packet/flit becomes an outbox message
//! commit    — visit *all* lanes' messages in ascending lane order
//!             (== the serial scan order); consume the ones this lane
//!             owns, mirror the ones it must replicate
//! end_cycle — deferred effects (chained copies, flit arrivals) and
//!             batched latency accounting
//! observe   — `on_cycle_end` with the *global* in-flight count
//! advance   — next cycle (or a workload-specific jump / stop)
//! ```
//!
//! Every decision that steers control flow — the idle fast-forward, the
//! termination test, a wormhole deadlock jump — is taken from data that
//! is identical on every lane (the exchanged global counters, or state
//! each lane replicates deterministically), so all lanes execute the
//! same number of cycles in lockstep and no lane can block on a barrier
//! another lane already left for good.

use std::cell::RefCell;

use super::stats::StatsAcc;

/// One lane's view of a simulation run: the per-cycle stage methods the
/// unified stepper ([`run_lane`]) drives. See the [module docs](self)
/// for the stage order and the determinism argument.
///
/// # Invariants
///
/// - `queued` / `next_pending` feed the lockstep idle/termination
///   decision; summed (resp. min-folded) over lanes they must equal the
///   serial engine's in-flight count and next-traffic cycle.
/// - `begin` and `propose` may touch **only this lane's own** arena
///   state; cross-lane effects go into the outbox.
/// - `commit` is called for **every** message of **every** lane, in
///   ascending lane order — the concatenation is exactly the serial
///   forward scan's pop order. Implementations filter by ownership
///   (and may additionally replicate lane-invariant mirror state, e.g.
///   the request/reply session machine, on every lane).
/// - `advance` must return the same value on every lane (it may only
///   consult replicated or exchanged state).
pub(crate) trait LaneWorkload {
    /// One cross-lane effect: a packet arrival, a flit grant, a credit.
    type Msg;

    /// The observer this lane reports to.
    type Observer;

    /// What the finished lane hands back besides statistics and
    /// observer (the workload itself, for its run tallies).
    type Out;

    /// Packets/flits this lane currently holds (the lockstep drain
    /// check sums this across lanes).
    fn queued(&self) -> u64;

    /// The earliest future cycle at which this lane can add new traffic
    /// (next injection / session action), or `None` if it never will.
    fn next_pending(&mut self) -> Option<u64>;

    /// Start-of-cycle stage: event-commit (churn) then injection, on
    /// this lane's own nodes only.
    fn begin(&mut self, cycle: u64);

    /// Forward/propose stage: scan this lane's active nodes in
    /// ascending node/edge order, appending each popped packet (or
    /// proposed flit move) to `out`.
    fn propose(&mut self, cycle: u64, out: &mut Vec<Self::Msg>);

    /// Arrival-commit stage: one message, presented to every lane in
    /// ascending lane order at the `cycle + 1` boundary.
    fn commit(&mut self, now: u64, msg: &Self::Msg);

    /// End-of-cycle stage: deferred effects that must not act before
    /// every arrival of this cycle has committed.
    fn end_cycle(&mut self, now: u64);

    /// Cycle observer event; `in_flight` is the exchanged *global*
    /// count, so forked observers see exactly the serial value.
    fn observe(&mut self, cycle: u64, in_flight: u64);

    /// Picks the next cycle (default `cycle + 1`); `None` terminates
    /// the run. Must decide identically on every lane.
    fn advance(&mut self, cycle: u64, max_cycles: u64) -> Option<u64> {
        let _ = max_cycles;
        Some(cycle + 1)
    }

    /// Takes the finished lane apart for the ordered merge in
    /// [`run_lanes`](super::parallel::run_lanes): its statistics
    /// accumulator, its observer, and its output.
    fn finish(self) -> (StatsAcc, Self::Observer, Self::Out);
}

/// How lanes exchange outbox messages and global counters: [`Solo`]
/// (one lane, no sync) or `Pooled` (scoped pool, barriers) — the only
/// two implementations, chosen at monomorphization time.
pub(crate) trait Protocol<M> {
    /// Publishes this lane's `(queued, next_pending)` and returns the
    /// global `(sum, min)` — the same pair on every lane.
    fn exchange(&self, me: usize, queued: u64, next: Option<u64>) -> (u64, Option<u64>);

    /// Runs `fill` on this lane's (cleared) outbox.
    fn propose(&self, me: usize, fill: impl FnOnce(&mut Vec<M>));

    /// Visits every lane's proposed messages in ascending lane order.
    fn commit(&self, me: usize, visit: impl FnMut(&M));
}

/// The one-lane protocol: the serial engine. The outbox lives in a
/// `RefCell` so `propose` can fill it while the lane is borrowed
/// mutably; `exchange` just echoes the lane's own counters.
pub(crate) struct Solo<M> {
    outbox: RefCell<Vec<M>>,
}

impl<M> Default for Solo<M> {
    fn default() -> Solo<M> {
        Solo {
            outbox: RefCell::new(Vec::new()),
        }
    }
}

impl<M> Protocol<M> for Solo<M> {
    #[inline]
    fn exchange(&self, _me: usize, queued: u64, next: Option<u64>) -> (u64, Option<u64>) {
        (queued, next)
    }

    #[inline]
    fn propose(&self, _me: usize, fill: impl FnOnce(&mut Vec<M>)) {
        let mut out = self.outbox.borrow_mut();
        out.clear();
        fill(&mut out);
    }

    #[inline]
    fn commit(&self, _me: usize, mut visit: impl FnMut(&M)) {
        for msg in self.outbox.borrow().iter() {
            visit(msg);
        }
    }
}

/// Drives one lane through the unified cycle skeleton until the run
/// drains, hits `max_cycles`, or the workload's `advance` stops it.
/// This is the **only** stepper in the engine: its `Solo`
/// monomorphizations are the one-lane runs, its `Pooled` ones the
/// sharded runs — there is no second copy of the cycle loop to drift.
pub(crate) fn run_lane<W, P>(lane: &mut W, proto: &P, me: usize, max_cycles: u64)
where
    W: LaneWorkload,
    P: Protocol<W::Msg>,
{
    let mut cycle: u64 = 0;
    let (mut queued, mut next) = proto.exchange(me, lane.queued(), lane.next_pending());
    while cycle < max_cycles {
        if queued == 0 {
            // Idle fast-forward: jump to the next traffic action, or
            // stop when there is none (or it lies past the cap). The
            // exchanged pair is identical on every lane, so the jump is
            // lockstep.
            match next {
                None => break,
                Some(t) if t >= max_cycles => break,
                Some(t) => cycle = cycle.max(t),
            }
        }
        lane.begin(cycle);
        proto.propose(me, |out| lane.propose(cycle, out));
        proto.commit(me, |msg| lane.commit(cycle + 1, msg));
        lane.end_cycle(cycle + 1);
        let (q, n) = proto.exchange(me, lane.queued(), lane.next_pending());
        queued = q;
        next = n;
        lane.observe(cycle, q);
        match lane.advance(cycle, max_cycles) {
            None => break,
            Some(t) => cycle = t,
        }
    }
}

/// Contiguous node shard bounds: lane `s` owns `[s·n/k, (s+1)·n/k)`.
/// With `k <= n` every lane is non-empty.
pub(crate) fn lane_bounds(n: usize, lanes: usize) -> Vec<(u32, u32)> {
    (0..lanes)
        .map(|s| ((s * n / lanes) as u32, ((s + 1) * n / lanes) as u32))
        .collect()
}
