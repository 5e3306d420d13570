//! The lane runner of the unified stepper: one lane under the no-sync
//! [`Solo`] protocol on the calling thread, or `k` lanes on a scoped
//! thread pool exchanging outbox messages under the [`Pooled`] barrier
//! protocol — and the one ordered merge of their results.
//!
//! This module contains **no cycle logic**: the per-cycle stages live on
//! the workloads ([`LaneWorkload`]), and the one stepper driving them,
//! [`run_lane`], runs under either protocol. [`run_lanes`] is the only
//! place that picks the lane count, builds the lanes (a [`LaneSet`]
//! makes one per node shard around its observer), and merges statistics
//! accumulators and observer forks back in ascending lane order — for
//! store-and-forward and wormhole lanes alike.
//!
//! Under [`Pooled`] every lane has an `RwLock`'d outbox and published
//! atomic counters, with two [`Barrier`] waits per cycle — one after
//! **propose** (every outbox is filled, so commit may read them all in
//! ascending lane order, exactly the one-lane scan order) and one inside
//! **exchange** (every lane has published its queued/next-pending pair;
//! the wait fences this cycle's commit reads from the next cycle's
//! propose writes). Every control-flow decision derives from the
//! exchanged global pair or from deterministically replicated state, so
//! all lanes hit the same barriers the same number of times, and
//! blocking waits make oversubscription safe — slower, never wrong.
//! Lane `s` owns the node shard `[s·n/k, (s+1)·n/k)`, stages touch only
//! lane-local arena state, and cross-lane effects travel as typed
//! outbox messages committed in lane order, so merged statistics and
//! observer output are **bit-identical at any lane count** — the
//! property the proptests and `sweep --check-threads` pin down for
//! every policy combination.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};

use crate::observer::SimObserver;

use super::stats::{SimStats, StatsAcc};
use super::stepper::{lane_bounds, run_lane, LaneWorkload, Protocol, Solo};

/// Sentinel for "no pending traffic" in the published atomic.
const NO_PENDING: u64 = u64::MAX;

/// One lane's published counters: its queued packet count and the cycle
/// of its next pending traffic action (`NO_PENDING` if none).
struct ShardSlot {
    queued: AtomicU64,
    next: AtomicU64,
}

/// The pooled lane protocol — see the module docs for the barrier
/// schedule and the determinism argument.
struct Pooled<'a, M> {
    outboxes: &'a [RwLock<Vec<M>>],
    slots: &'a [ShardSlot],
    barrier: &'a Barrier,
}

impl<M> Protocol<M> for Pooled<'_, M> {
    fn exchange(&self, me: usize, queued: u64, next: Option<u64>) -> (u64, Option<u64>) {
        let slot = &self.slots[me];
        slot.queued.store(queued, Ordering::Relaxed);
        slot.next
            .store(next.unwrap_or(NO_PENDING), Ordering::Relaxed);
        self.barrier.wait();
        let mut sum = 0u64;
        let mut min = NO_PENDING;
        for s in self.slots {
            sum += s.queued.load(Ordering::Relaxed);
            min = min.min(s.next.load(Ordering::Relaxed));
        }
        (sum, (min != NO_PENDING).then_some(min))
    }

    fn propose(&self, me: usize, fill: impl FnOnce(&mut Vec<M>)) {
        let mut out = self.outboxes[me].write().unwrap();
        out.clear();
        fill(&mut out);
        drop(out);
        self.barrier.wait();
    }

    fn commit(&self, _me: usize, mut visit: impl FnMut(&M)) {
        for outbox in self.outboxes {
            for msg in outbox.read().unwrap().iter() {
                visit(msg);
            }
        }
    }
}

/// Runs the given lanes to completion on a scoped thread pool (one OS
/// thread per lane) and hands them back for the caller's ordered merge.
fn run_pool<W>(mut lanes: Vec<W>, max_cycles: u64) -> Vec<W>
where
    W: LaneWorkload + Send,
    W::Msg: Send + Sync,
{
    let k = lanes.len();
    let outboxes: Vec<RwLock<Vec<W::Msg>>> = (0..k).map(|_| RwLock::new(Vec::new())).collect();
    let slots: Vec<ShardSlot> = (0..k)
        .map(|_| ShardSlot {
            queued: AtomicU64::new(0),
            next: AtomicU64::new(NO_PENDING),
        })
        .collect();
    let barrier = Barrier::new(k);
    std::thread::scope(|scope| {
        for (me, lane) in lanes.iter_mut().enumerate() {
            let proto = Pooled {
                outboxes: &outboxes,
                slots: &slots,
                barrier: &barrier,
            };
            scope.spawn(move || run_lane(lane, &proto, me, max_cycles));
        }
    });
    lanes
}

/// The lanes of one run: builds the lane owning nodes `[lo, hi)` around
/// the observer it reports to — the caller's own (`&mut O`) in a
/// one-lane run, a [`SimObserver::fork`] in a sharded one — so one
/// lane type serves both protocols.
pub(crate) trait LaneSet {
    /// One lane, reporting to an observer of type `O`.
    type Lane<O: SimObserver>: LaneWorkload<Observer = O, Out = Self::Out>;
    /// What a finished lane hands back besides statistics and observer.
    type Out;

    /// Builds the lane owning nodes `[lo, hi)`.
    fn lane<O: SimObserver>(&mut self, lo: u32, hi: u32, observer: O) -> Self::Lane<O>;
}

/// The lane count a run over `n` nodes actually uses: `threads` clamped
/// to `[1, n]`, so every lane owns at least one node.
pub(crate) fn lane_count(n: usize, threads: usize) -> usize {
    threads.clamp(1, n.max(1))
}

/// Runs a workload over `n` nodes on [`lane_count`]`(n, threads)` lanes
/// and returns the finished statistics (with `offered` filled in) plus
/// every lane's output in lane order. One lane runs on the calling
/// thread under [`Solo`] with `observer` itself attached; `k > 1` lanes
/// each run a fork under [`Pooled`], and the accumulators and forks
/// merge back in ascending lane order.
///
/// # Panics
///
/// Panics if the run shards and `observer` does not support forking
/// ([`SimObserver::fork`] returns `None`); the experiment layer
/// pre-checks and reports a typed error instead.
pub(crate) fn run_lanes<S, O>(
    mut set: S,
    n: usize,
    threads: usize,
    offered: usize,
    max_cycles: u64,
    observer: &mut O,
) -> (SimStats, Vec<S::Out>)
where
    S: LaneSet,
    O: SimObserver + Send,
    S::Lane<O>: Send,
    <S::Lane<O> as LaneWorkload>::Msg: Send + Sync,
{
    let k = lane_count(n, threads);
    if k == 1 {
        let mut lane = set.lane(0, n as u32, &mut *observer);
        run_lane(&mut lane, &Solo::default(), 0, max_cycles);
        let (acc, _, out) = lane.finish();
        return (acc.finish(offered), vec![out]);
    }
    let lanes: Vec<S::Lane<O>> = lane_bounds(n, k)
        .into_iter()
        .map(|(lo, hi)| {
            let fork = O::fork(observer).expect(
                "this observer does not implement SimObserver::fork/merge; \
                 it cannot attach to a sharded run (use threads = 1)",
            );
            set.lane(lo, hi, fork)
        })
        .collect();
    let mut acc: Option<StatsAcc> = None;
    let mut outs = Vec::with_capacity(k);
    for lane in run_pool(lanes, max_cycles) {
        let (lane_acc, fork, out) = lane.finish();
        observer.merge(fork);
        match &mut acc {
            None => acc = Some(lane_acc),
            Some(a) => a.merge(lane_acc),
        }
        outs.push(out);
    }
    (acc.expect("at least one lane").finish(offered), outs)
}
