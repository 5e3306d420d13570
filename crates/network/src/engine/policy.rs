//! The compile-time policy axes of the store-and-forward lane.
//!
//! Two orthogonal policies (plus the [`SimObserver`] event axis):
//!
//! - [`FaultPolicy`] — injection admission: admit everything
//!   ([`AdmitAll`]) or drop packets whose endpoints are dead or
//!   disconnected, with typed reasons ([`MaskedAdmission`],
//!   [`ChurnAdmission`]).
//! - [`ReplicationPolicy`] — what happens to a packet at the far end of
//!   a hop: unicast routing toward a destination, or tree replication at
//!   intermediate nodes (the collective path).
//!
//! The switching model is not a trait: [`SwitchingSpec`] picks the
//! store-and-forward or the wormhole lane type at the engine's one
//! door. Every policy is a zero-sized or reference-carrying struct
//! resolved at compile time, so each combination monomorphizes to its
//! own specialized loop — the "zero-cost gate" the equivalence tests
//! pin down.
//!
//! [`SwitchingSpec`]: crate::switching::SwitchingSpec

use crate::arena::PacketSlab;
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, Router};

use super::core::{Core, SafMsg};
use super::stats::DropReason;

/// Injection-time admission policy: decides per packet whether the
/// engine routes it or drops it with a typed reason.
///
/// # Invariants
///
/// - `verdict` must be **pure and stable between fault-epoch
///   boundaries**: the same `(src, dst)` pair always gets the same
///   answer while the fault state is unchanged (the parallel engine
///   calls it from several threads and the serial/parallel equivalence
///   depends on it). Policies over static fault sets ([`AdmitAll`],
///   [`MaskedAdmission`]) are stable for the whole run; under churn the
///   engine applies fault events only at cycle boundaries, between the
///   arrival phase and the next injection phase, so every verdict
///   within one cycle sees one consistent epoch ([`ChurnAdmission`]).
/// - A `Some(reason)` verdict means the packet never enters the network:
///   it is counted under the matching typed-drop statistic at its inject
///   cycle and no link state changes.
/// - Healthy runs use [`AdmitAll`], which monomorphizes the drop branch
///   away entirely — attaching a fault policy must cost nothing when
///   there are no faults.
pub(crate) trait FaultPolicy {
    /// `Some(reason)` to drop the packet at injection, `None` to route.
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason>;
}

/// Admits everything — monomorphizes the drop branch away entirely.
pub(crate) struct AdmitAll;

impl FaultPolicy for AdmitAll {
    #[inline]
    fn verdict(&self, _src: u32, _dst: u32) -> Option<DropReason> {
        None
    }
}

/// Admission against a [`FaultMaskingRouter`]'s masks and healthy-BFS
/// reachability: dead endpoints drop as
/// [`DropReason::DeadEndpoint`], surviving-but-disconnected pairs as
/// [`DropReason::Unreachable`].
pub(crate) struct MaskedAdmission<'a, 'b, R: Router + ?Sized> {
    masked: &'a FaultMaskingRouter<'b, R>,
}

impl<'a, 'b, R: Router + ?Sized> MaskedAdmission<'a, 'b, R> {
    /// Admission checked against `masked`'s node liveness and
    /// reachability — the same masked router the degraded run routes
    /// through, so admitted packets are guaranteed routable.
    pub(crate) fn new(masked: &'a FaultMaskingRouter<'b, R>) -> MaskedAdmission<'a, 'b, R> {
        MaskedAdmission { masked }
    }
}

impl<R: Router + ?Sized> FaultPolicy for MaskedAdmission<'_, '_, R> {
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason> {
        if !self.masked.node_alive(src) || !self.masked.node_alive(dst) {
            Some(DropReason::DeadEndpoint)
        } else if src != dst && !self.masked.reachable(src, dst) {
            Some(DropReason::Unreachable)
        } else {
            None
        }
    }
}

/// Epoch-scoped admission for churned runs: the same liveness and
/// reachability checks as [`MaskedAdmission`], but against a
/// [`FaultMaskingRouter`] whose masks change mid-run as churn events
/// apply. The churn engine constructs one per borrow *after* the
/// cycle's events commit, so every verdict in a cycle sees the same
/// fault epoch — the weakest stability [`FaultPolicy`] permits.
pub(crate) struct ChurnAdmission<'a, 'b, R: Router + ?Sized> {
    masked: &'a FaultMaskingRouter<'b, R>,
}

impl<'a, 'b, R: Router + ?Sized> ChurnAdmission<'a, 'b, R> {
    /// Admission against `masked`'s *current* epoch. The borrow must not
    /// outlive the cycle that created it: the next event application
    /// invalidates its verdicts.
    pub(crate) fn new(masked: &'a FaultMaskingRouter<'b, R>) -> ChurnAdmission<'a, 'b, R> {
        ChurnAdmission { masked }
    }
}

impl<R: Router + ?Sized> FaultPolicy for ChurnAdmission<'_, '_, R> {
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason> {
        if !self.masked.node_alive(src) || !self.masked.node_alive(dst) {
            Some(DropReason::DeadEndpoint)
        } else if src != dst && !self.masked.reachable(src, dst) {
            Some(DropReason::Unreachable)
        } else {
            None
        }
    }
}

/// The workload half of the store-and-forward engine: the per-cycle
/// *stages* the unified stepper (`engine/stepper.rs`)
/// drives against one lane's [`Core`]. A lane is a contiguous node
/// shard — the whole network in a serial run, one of `k` shards in a
/// sharded one — and the **same** monomorphized stage code runs either
/// way; only the outbox protocol between stages differs. Impls cover
/// unicast routing, collective tree replication, and the
/// churn/request-reply workloads. The stage methods are generic over
/// the lane's observer, so one workload type serves the caller's own
/// observer in a one-lane run and the forks of a sharded one.
///
/// # Invariants (the sharding contract)
///
/// - `next_pending` feeds the lockstep idle-skip/termination decision:
///   min-folded over lanes it must equal the serial engine's
///   next-traffic cycle. It must not touch arena state.
/// - `commit_events` (the churn event-commit stage) runs first each
///   executed cycle. Event *decisions* must be lane-invariant
///   (replicated deterministic state); event *effects* (queue flushes,
///   drop accounting) must be gated on node ownership.
/// - `inject` may create packets only at nodes the lane owns
///   (`Core::owns`); admission verdicts must be identical on every
///   lane that evaluates them (same fault epoch — see [`FaultPolicy`]).
/// - `depart` observes each packet the forward scan pops **before** its
///   slab slot is released, and may fill the workload-overloaded
///   `SafMsg` fields; it must not touch link state.
/// - `commit` is called for **every** lane's messages in ascending lane
///   order — the serial pop order. Real effects (delivery, re-enqueue,
///   drop accounting) must be gated on `core.owns(msg.node)`; mirror
///   state that every lane replicates (the request/reply session
///   machine) updates unconditionally and identically on every lane.
/// - `end_cycle` runs after all of the cycle's commits and before the
///   `on_cycle_end` event (the one-port collective uses it to spawn
///   follow-up copies that must not depart until the next cycle).
pub(crate) trait ReplicationPolicy {
    /// The earliest future cycle at which this lane can add new traffic,
    /// or `None` if it never will. Drives the idle fast-forward and the
    /// drained-run termination check.
    fn next_pending(&mut self) -> Option<u64>;

    /// Event-commit stage: applies due fault/repair events (churn).
    /// Default: no events.
    fn commit_events<O: SimObserver>(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        let _ = (cycle, core);
    }

    /// Injection stage: admits due traffic at this lane's own nodes.
    fn inject<O: SimObserver>(&mut self, cycle: u64, core: &mut Core<'_, O>);

    /// Pop-time hook: fills workload-specific `SafMsg` fields before
    /// the slab slot is released. Default: the unicast fields stand.
    fn depart(&mut self, u: u32, id: u32, slab: &PacketSlab, msg: &mut SafMsg) {
        let _ = (u, id, slab, msg);
    }

    /// Arrival-commit stage: one message, presented to every lane in
    /// the serial pop order at the `cycle + 1` boundary.
    fn commit<O: SimObserver>(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O>);

    /// End-of-cycle stage, after every commit of cycle `now` resolved.
    /// Default: nothing deferred.
    fn end_cycle<O: SimObserver>(&mut self, now: u64, core: &mut Core<'_, O>) {
        let _ = (now, core);
    }
}
