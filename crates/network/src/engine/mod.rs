//! The unified simulation engine: one crate-internal door, `run`,
//! behind every simulation the crate performs.
//!
//! Model: time advances in cycles. Every node has one FIFO output queue
//! per neighbor (store-and-forward) or a set of flit buffers per
//! (link × virtual channel) (wormhole); each directed link moves at most
//! one packet — or flit — per cycle. Arriving packets are re-enqueued
//! toward their next hop (computed by a [`Router`]) or retired with
//! their latency recorded. The model is deliberately simple — the
//! experiments compare *topologies under identical rules*, which is the
//! shape of the 1993-era evaluations.
//!
//! ## One door, one lane runner, one stepper
//!
//! The public entry point is [`Experiment`](crate::Experiment): it
//! validates the configuration, materialises the workload and calls
//! `run` once. `run` takes a `Plan` — topology, resolved router, a
//! `Workload` (packets, churned packets, closed-loop request/reply
//! sessions, or a tree [`CopyPlan`]), the [`SwitchingSpec`], the faults
//! and a cycle cap — plus the lane count as plain data and the
//! observer. It resolves the policy axes in one place:
//!
//! - **switching** — [`SwitchingSpec`] picks the store-and-forward lane
//!   (`engine/core.rs`) or the flit-level wormhole lane
//!   (`engine/wormhole.rs`);
//! - **faults** — an empty fault set runs the healthy engine (the
//!   zero-fault run is packet-for-packet identical to it); a non-empty
//!   one wraps the router in a [`FaultMaskingRouter`] so live packets
//!   detour while unroutable ones become typed drops at injection
//!   ([`DropReason`]), and nothing is silently stranded:
//!   `offered == delivered + dropped + still-in-flight` always holds;
//! - **replication** — unicast routing, churn with incremental route
//!   repair (`engine/churn.rs`), or tree replication at intermediate
//!   nodes (the collective path);
//!
//! plus the [`SimObserver`] event axis. Every combination
//! monomorphizes: a healthy unicast run compiles to the same hot loop a
//! dedicated engine would, and the equivalence tests gate
//! packet-for-packet on that.
//!
//! Under `run`, one lane runner (`engine/parallel.rs`) clamps the lane
//! count to `[1, n]`, runs one lane on the calling thread or `k` lanes
//! on a scoped thread pool, and merges statistics and observer forks in
//! lane order. Every lane executes the *same* cycle stepper
//! (`engine/stepper.rs`): a `LaneWorkload` advances through fixed stages
//! (begin → propose → commit → end-cycle → observe → advance) under the
//! no-sync `Solo` protocol or the barrier-synchronized `Pooled` one —
//! **bit-identical at any lane count**, for every policy combination.
//!
//! ## The arena core
//!
//! The store-and-forward core is an **arena-backed active-set** engine.
//! All per-packet and per-link state lives in flat arrays (see
//! [`arena`](crate::arena)): in-flight packets sit in a struct-of-arrays
//! [`PacketSlab`](crate::arena::PacketSlab) and are referred to by `u32`
//! id, and the [`LinkQueues`](crate::arena::LinkQueues) give every
//! directed link (by the graph's directed-edge index) a 4-byte handle
//! into a freelisted pool of ring-buffer FIFO entries, held only while
//! the link has packets queued; a queue deeper than its ring spills to
//! a pooled deque. Queue memory is thus 4 B per link plus O(occupied
//! links and spilled packets), not a per-link arena. Each cycle touches
//! only the worklist of nodes that actually hold packets, and empty
//! stretches between injections are skipped entirely.
//!
//! Routing takes one of two monomorphized paths: when the workload
//! amortises the build, deterministic policies are tabulated once into a
//! dense [`NextHopTable`](crate::router::NextHopTable)
//! ([`Router::precompute`]) and each hop is a single load; otherwise the
//! policy is called per hop with the live link-load view.
//!
//! The seed's original engine — full node scan every cycle, binary
//! search per hop — is preserved as [`simulate_reference`] and
//! [`simulate_faulted_reference`], the behavioural oracle the property
//! tests compare against and the baseline the sweep binary measures
//! speedups over.

mod churn;
mod core;
mod parallel;
mod policy;
mod reference;
pub mod stats;
mod stepper;
mod wormhole;

pub use self::reference::{simulate_faulted_reference, simulate_reference};
pub use self::stats::{DropReason, LogHistogram, SimStats, DENSE_HISTOGRAM_NODE_LIMIT};

pub(crate) use self::churn::RequestReplyLoad;
pub(crate) use self::parallel::lane_count;

use crate::collective::CopyPlan;
use crate::fault::{ChurnTimeline, FaultSet};
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, Router};
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::Packet;

use self::churn::ChurnUnicast;
use self::core::{routing_for, Replicate, SafLanes, Unicast};
use self::parallel::run_lanes;
use self::policy::{AdmitAll, FaultPolicy, MaskedAdmission};
use self::wormhole::{edge_classes, WormLanes};

/// What a run feeds through the network.
pub(crate) enum Workload {
    /// Open-loop packets, each injected at its `inject_time`.
    Packets(Vec<Packet>),
    /// Open-loop packets under a fail/recover timeline applied at cycle
    /// boundaries. An empty timeline is the healthy network.
    Churn {
        timeline: ChurnTimeline,
        packets: Vec<Packet>,
    },
    /// Closed-loop request/reply sessions under a timeline (which may be
    /// empty). Needs at least 2 nodes and a finite cycle cap.
    RequestReply {
        timeline: ChurnTimeline,
        load: RequestReplyLoad,
    },
    /// A tree collective executed by replication at intermediate nodes.
    Tree(CopyPlan),
}

/// The static fault state a [`Workload::Packets`] run routes around.
pub(crate) enum Faults<'a, R: Router + ?Sized> {
    /// A fault set; the empty set is the healthy network.
    Set(&'a FaultSet),
    /// A masked router the caller built once to replay many runs through
    /// (sweeps pay its `O(n·m)` degraded distance table per fault set,
    /// not per run).
    Masked(&'a FaultMaskingRouter<'a, R>),
}

/// Everything one run needs except its lane count and observer.
pub(crate) struct Plan<'a, T: ?Sized, R: Router + ?Sized> {
    pub(crate) topology: &'a T,
    pub(crate) router: &'a R,
    pub(crate) workload: Workload,
    /// Honoured by [`Workload::Packets`]; the other workloads run
    /// store-and-forward only.
    pub(crate) switching: SwitchingSpec,
    /// Honoured by [`Workload::Packets`]: a timeline carries the churn
    /// workloads' faults, and a [`CopyPlan`] was compiled against them.
    pub(crate) faults: Faults<'a, R>,
    pub(crate) max_cycles: u64,
}

/// Runs `plan` on `threads` lanes (clamped to `[1, nodes]`) with
/// `observer` attached, returning the run's [`SimStats`] and the number
/// of intended targets reached: a tree collective's reached recipients
/// (relay deliveries count toward `delivered` but not here), or the
/// delivered count for every routed workload.
///
/// A run is bit-identical at every lane count. Uncapped,
/// `offered == delivered + dropped`; under a cycle cap the remainder is
/// still in flight (or, for one-port trees, not yet spawned).
///
/// # Panics
///
/// Panics if the run shards and `observer` cannot fork
/// ([`SimObserver::fork`] returns `None`), and on a request/reply
/// workload over fewer than 2 nodes; the experiment layer rejects both
/// with typed errors first.
pub(crate) fn run<T, R, O>(
    plan: &Plan<'_, T, R>,
    threads: usize,
    observer: &mut O,
) -> (SimStats, usize)
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
    O: SimObserver + Send,
{
    let g = plan.topology.graph();
    let n = plan.topology.len();
    let cap = plan.max_cycles;
    let stats = match &plan.workload {
        Workload::Packets(packets) => match plan.faults {
            Faults::Set(set) if set.is_empty() => {
                routed(plan, plan.router, packets, &AdmitAll, threads, observer)
            }
            Faults::Set(set) => {
                let masked = FaultMaskingRouter::new(g, plan.router, set);
                let admission = MaskedAdmission::new(&masked);
                routed(plan, &masked, packets, &admission, threads, observer)
            }
            Faults::Masked(masked) => {
                let admission = MaskedAdmission::new(masked);
                routed(plan, masked, packets, &admission, threads, observer)
            }
        },
        Workload::Churn { timeline, packets } if timeline.is_empty() => {
            // Zero churn is the healthy network: skip the replica builds.
            routed(plan, plan.router, packets, &AdmitAll, threads, observer)
        }
        Workload::Churn { timeline, packets } => {
            let make = &mut |lo, hi| {
                ChurnUnicast::open(g, plan.router, timeline.events(), packets, lo, hi)
            };
            let offered = packets.len();
            run_lanes(SafLanes { g, make }, n, threads, offered, cap, observer).0
        }
        Workload::RequestReply { timeline, load } => {
            assert!(n >= 2, "request/reply needs a peer to talk to (>= 2 nodes)");
            let make =
                &mut |_, _| ChurnUnicast::closed(g, plan.router, timeline.events(), load, n as u32);
            let (mut stats, lanes) = run_lanes(SafLanes { g, make }, n, threads, 0, cap, observer);
            // Every lane replicates the session machine; lane 0's tally
            // is the transaction count.
            stats.offered = lanes[0].offered();
            stats
        }
        Workload::Tree(copies) => {
            let make = &mut |_, _| Replicate::new(copies);
            let offered = copies.offered();
            let (stats, lanes) =
                run_lanes(SafLanes { g, make }, n, threads, offered, cap, observer);
            return (stats, lanes.iter().map(|w| w.reached_targets).sum());
        }
    };
    let reached = stats.delivered;
    (stats, reached)
}

/// The routed-packet half of [`run`]: one routing plan for the whole
/// run (so every lane takes the path a one-lane run would), then the
/// store-and-forward or wormhole lanes under `router` and `admission`.
fn routed<T, P, R, F, O>(
    plan: &Plan<'_, T, P>,
    router: &R,
    packets: &[Packet],
    admission: &F,
    threads: usize,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    P: Router + ?Sized,
    R: Router + Sync + ?Sized,
    F: FaultPolicy + Sync,
    O: SimObserver + Send,
{
    let topology = plan.topology;
    let (g, n, cap) = (topology.graph(), topology.len(), plan.max_cycles);
    let routing = routing_for(topology, router, packets.len());
    match plan.switching {
        SwitchingSpec::StoreAndForward => {
            let make =
                &mut |lo, hi| Unicast::for_range(routing.as_ref(), packets, lo, hi, admission);
            run_lanes(
                SafLanes { g, make },
                n,
                threads,
                packets.len(),
                cap,
                observer,
            )
            .0
        }
        SwitchingSpec::Wormhole { vcs, buf_flits, .. } => {
            let classes = edge_classes(topology);
            let lanes = WormLanes {
                g,
                edge_class: &classes,
                routing: routing.as_ref(),
                admission,
                fpp: plan.switching.flits_per_packet(),
                vcs,
                buf_flits,
                packets,
            };
            run_lanes(lanes, n, threads, packets.len(), cap, observer).0
        }
    }
}

#[cfg(test)]
mod tests {
    //! The engine through its one door with explicit packet lists, copy
    //! plans and churn timelines — the cases an [`Experiment`] cannot
    //! spell. Spec-driven equivalence (lane counts, oracles) lives in
    //! the integration tests.
    //!
    //! [`Experiment`]: crate::Experiment

    use super::*;
    use crate::broadcast::{broadcast_all_port, broadcast_one_port};
    use crate::collective::TreeForward;
    use crate::fault::{ChurnEvent, ChurnTarget, FaultSpec};
    use crate::implicit::ImplicitRouter;
    use crate::observer::{DeliveryTracker, LatencyHistogram, LinkHeatmap, NoopObserver};
    use crate::router::{AdaptiveMinimal, CanonicalRouter, EcubeRouter};
    use crate::switching::{VcOccupancy, PACKET_LENGTH_UNITS};
    use crate::topology::{FibonacciNet, Hypercube, Mesh, Ring};
    use crate::traffic::TrafficSpec;
    use proptest::prelude::*;

    const SAF: SwitchingSpec = SwitchingSpec::StoreAndForward;

    fn uniform(n: usize, count: usize, window: u64, seed: u64) -> Vec<Packet> {
        TrafficSpec::Uniform { count, window }.generate(n, seed)
    }

    fn all_to_all(n: usize) -> Vec<Packet> {
        TrafficSpec::AllToAll.generate(n, 0)
    }

    /// One lane of `packets` under `router`, `switching` and `faults`.
    fn sim_run<T, R, O>(
        topology: &T,
        router: &R,
        switching: &SwitchingSpec,
        faults: &FaultSet,
        packets: &[Packet],
        max_cycles: u64,
        observer: &mut O,
    ) -> SimStats
    where
        T: Topology + ?Sized,
        R: Router + Sync + ?Sized,
        O: SimObserver + Send,
    {
        let plan = Plan {
            topology,
            router,
            workload: Workload::Packets(packets.to_vec()),
            switching: switching.clone(),
            faults: Faults::Set(faults),
            max_cycles,
        };
        run(&plan, 1, observer).0
    }

    /// A healthy store-and-forward run under `router`, unobserved.
    fn sim_with<T, R>(topology: &T, router: &R, packets: &[Packet], max_cycles: u64) -> SimStats
    where
        T: Topology + ?Sized,
        R: Router + Sync + ?Sized,
    {
        let none = FaultSet::empty();
        sim_run(
            topology,
            router,
            &SAF,
            &none,
            packets,
            max_cycles,
            &mut NoopObserver,
        )
    }

    /// [`sim_with`] under the topology's preferred router.
    fn sim<T: Topology + ?Sized>(topology: &T, packets: &[Packet], max_cycles: u64) -> SimStats {
        sim_with(topology, &*topology.router(), packets, max_cycles)
    }

    /// One lane of the tree collective `copies`; returns the stats and
    /// the reached-target tally.
    fn sim_tree<T, O>(
        topology: &T,
        copies: &CopyPlan,
        max_cycles: u64,
        observer: &mut O,
    ) -> (SimStats, usize)
    where
        T: Topology + ?Sized,
        O: SimObserver + Send,
    {
        let none = FaultSet::empty();
        let plan = Plan {
            topology,
            router: &TreeForward,
            workload: Workload::Tree(copies.clone()),
            switching: SAF,
            faults: Faults::Set(&none),
            max_cycles,
        };
        run(&plan, 1, observer)
    }

    #[test]
    fn single_packet_latency_is_distance() {
        let q = Hypercube::new(4);
        let pkts = vec![Packet {
            src: 0b0000,
            dst: 0b1111,
            inject_time: 0,
        }];
        let stats = sim(&q, &pkts, 1000);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.mean_latency, 4.0);
        assert_eq!(stats.total_hops, 4);
        assert_eq!(stats.makespan, 4);
    }

    #[test]
    fn all_packets_delivered_uniform() {
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
            &Ring::new(21),
        ] {
            let pkts = uniform(topo.len(), 300, 100, 42);
            let stats = sim(topo, &pkts, 50_000);
            assert_eq!(stats.delivered, stats.offered, "{}", topo.name());
            assert!(stats.mean_latency >= 1.0);
            assert!(stats.p99_latency as f64 >= stats.mean_latency.floor());
        }
    }

    #[test]
    fn contention_raises_latency_above_distance() {
        // Many packets into one node: queueing must show up.
        let q = Hypercube::new(3);
        let pkts: Vec<Packet> = (1..8)
            .map(|s| Packet {
                src: s,
                dst: 0,
                inject_time: 0,
            })
            .collect();
        let stats = sim(&q, &pkts, 1000);
        assert_eq!(stats.delivered, 7);
        // Node 0 has 3 in-links; 7 packets need ≥ ⌈7/3⌉ = 3 cycles.
        assert!(stats.makespan >= 3);
    }

    #[test]
    fn zero_time_cap_delivers_nothing() {
        let q = Hypercube::new(3);
        let pkts = vec![Packet {
            src: 0,
            dst: 7,
            inject_time: 0,
        }];
        let stats = sim(&q, &pkts, 0);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.offered, 1);
    }

    #[test]
    fn all_to_all_mean_latency_at_least_average_distance() {
        let net = FibonacciNet::classical(6);
        let pkts = all_to_all(net.len());
        let stats = sim(&net, &pkts, 100_000);
        assert_eq!(stats.delivered, stats.offered);
        let avg_dist = fibcube_graph::distance::average_distance(net.graph());
        assert!(
            stats.mean_latency + 1e-9 >= avg_dist,
            "latency {} < average distance {avg_dist}",
            stats.mean_latency
        );
    }

    #[test]
    fn self_addressed_packets_count_as_delivered() {
        let q = Hypercube::new(2);
        let pkts = vec![Packet {
            src: 1,
            dst: 1,
            inject_time: 5,
        }];
        let stats = sim(&q, &pkts, 100);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.mean_latency, 0.0);
        assert_eq!(
            stats.makespan, 0,
            "a packet that never used a link leaves no makespan"
        );
    }

    #[test]
    fn active_set_engine_agrees_with_reference() {
        // Deterministic routers and matching same-cycle service order ⇒
        // the two engines must agree packet for packet: same deliveries,
        // hops, latency distribution, and makespan.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(13),
        ] {
            for (count, window, seed) in [(50usize, 20u64, 1u64), (400, 60, 2), (1, 0, 3)] {
                let pkts = uniform(topo.len(), count, window, seed);
                let fast = sim(topo, &pkts, 100_000);
                let slow = simulate_reference(topo, &pkts, 100_000);
                assert_eq!(fast.delivered, slow.delivered, "{}", topo.name());
                assert_eq!(fast.total_hops, slow.total_hops, "{}", topo.name());
                assert_eq!(fast.offered, slow.offered);
                assert_eq!(
                    fast.latency_histogram,
                    slow.latency_histogram,
                    "{}",
                    topo.name()
                );
                assert_eq!(fast.mean_latency, slow.mean_latency, "{}", topo.name());
                assert_eq!(fast.makespan, slow.makespan, "{}", topo.name());
                assert_eq!(fast.p99_latency, slow.p99_latency, "{}", topo.name());
            }
        }
    }

    #[test]
    fn explicit_routers_deliver_everything() {
        let q = Hypercube::new(5);
        let pkts = uniform(q.len(), 400, 80, 9);
        for stats in [
            sim_with(&q, &EcubeRouter, &pkts, 100_000),
            sim_with(&q, &AdaptiveMinimal::new(&q), &pkts, 100_000),
        ] {
            assert_eq!(stats.delivered, stats.offered);
        }
        let net = FibonacciNet::classical(9);
        let pkts = uniform(net.len(), 400, 80, 9);
        let canonical = CanonicalRouter::for_net(&net);
        for stats in [
            sim_with(&net, &canonical, &pkts, 100_000),
            sim_with(&net, &AdaptiveMinimal::new(&net), &pkts, 100_000),
        ] {
            assert_eq!(stats.delivered, stats.offered);
        }
    }

    #[test]
    fn adaptive_router_no_worse_under_hotspot() {
        // Adaptive minimal routing must still deliver everything when one
        // node draws concentrated traffic.
        let q = Hypercube::new(5);
        let pkts = TrafficSpec::HotSpot {
            count: 600,
            window: 150,
            hot_fraction: 0.4,
        }
        .generate(q.len(), 11);
        let stats = sim_with(&q, &AdaptiveMinimal::new(&q), &pkts, 200_000);
        assert_eq!(stats.delivered, stats.offered);
    }

    #[test]
    fn observers_see_every_event_and_match_engine_accounting() {
        let net = FibonacciNet::classical(9);
        let pkts = uniform(net.len(), 500, 120, 21);
        let router = CanonicalRouter::for_net(&net);
        let baseline = sim_with(&net, &router, &pkts, 100_000);

        let mut obs = (LatencyHistogram::new(), LinkHeatmap::new());
        let observed = sim_run(
            &net,
            &router,
            &SAF,
            &FaultSet::empty(),
            &pkts,
            100_000,
            &mut obs,
        );
        assert_eq!(observed, baseline, "observer must not perturb the run");
        let (hist, heat) = obs;
        assert_eq!(hist.histogram(), &baseline.latency_histogram[..]);
        assert_eq!(hist.delivered() as usize, baseline.delivered);
        assert_eq!(hist.mean(), baseline.mean_latency);
        assert_eq!(hist.p99(), baseline.p99_latency);
        assert_eq!(heat.total_hops(), baseline.total_hops);
    }

    #[test]
    fn observer_sees_self_addressed_delivery_and_sparse_cycles() {
        #[derive(Default)]
        struct Trace {
            injects: Vec<(u64, u32, u32)>,
            delivers: Vec<(u64, u32, u64)>,
            cycle_ends: Vec<(u64, usize)>,
        }
        impl SimObserver for Trace {
            fn on_inject(&mut self, cycle: u64, src: u32, dst: u32) {
                self.injects.push((cycle, src, dst));
            }
            fn on_deliver(&mut self, cycle: u64, dst: u32, latency: u64) {
                self.delivers.push((cycle, dst, latency));
            }
            fn on_cycle_end(&mut self, cycle: u64, in_flight: usize) {
                self.cycle_ends.push((cycle, in_flight));
            }
        }

        let q = Hypercube::new(3);
        let pkts = vec![
            Packet {
                src: 2,
                dst: 2,
                inject_time: 0,
            },
            Packet {
                src: 0,
                dst: 7,
                inject_time: 1_000,
            },
        ];
        let mut trace = Trace::default();
        let stats = sim_run(
            &q,
            &EcubeRouter,
            &SAF,
            &FaultSet::empty(),
            &pkts,
            1_000_000,
            &mut trace,
        );
        assert_eq!(stats.delivered, 2);
        assert_eq!(trace.injects, vec![(0, 2, 2), (1_000, 0, 7)]);
        // Self-addressed at latency 0, then the real packet at distance 3.
        assert_eq!(trace.delivers, vec![(0, 2, 0), (1_003, 7, 3)]);
        // The idle gap 1..1000 is fast-forwarded: no cycle-end events there.
        assert!(trace.cycle_ends.iter().all(|&(c, _)| c == 0 || c >= 1_000));
        assert_eq!(trace.cycle_ends.last(), Some(&(1_002, 0)));
    }

    #[test]
    fn empty_fault_set_is_packet_for_packet_identical() {
        // An empty fault set takes the healthy path: no masking, no
        // drops, and the run equals both reference oracles.
        let net = FibonacciNet::classical(9);
        let pkts = uniform(net.len(), 400, 100, 13);
        let router = CanonicalRouter::for_net(&net);
        let empty = FaultSet::empty();
        let faulted = sim_run(
            &net,
            &router,
            &SAF,
            &empty,
            &pkts,
            100_000,
            &mut NoopObserver,
        );
        assert_eq!(faulted, simulate_reference(&net, &pkts, 100_000));
        assert_eq!(
            faulted,
            simulate_faulted_reference(&net, &router, &empty, &pkts, 100_000)
        );
        assert_eq!(faulted.dropped(), 0);
    }

    #[test]
    fn dead_endpoints_are_typed_drops_and_survivors_deliver() {
        // Kill node 0 of Q_3 under all-to-all traffic: the 14 ordered
        // pairs touching node 0 drop as DeadEndpoint, the other 42
        // deliver via detours where e-cube would have crossed node 0.
        let q = Hypercube::new(3);
        let faults = FaultSet::new([0u32], []);
        let pkts = all_to_all(q.len());
        let mut tracker = DeliveryTracker::new();
        let stats = sim_run(
            &q,
            &EcubeRouter,
            &SAF,
            &faults,
            &pkts,
            100_000,
            &mut tracker,
        );
        assert_eq!(stats.offered, 56);
        assert_eq!(stats.dropped_dead_endpoint, 14);
        assert_eq!(stats.dropped_unreachable, 0);
        assert_eq!(stats.delivered, 42);
        assert_eq!(tracker.delivered(), 42);
        assert_eq!(tracker.dropped_dead_endpoint(), 14);
        assert_eq!(tracker.in_flight(), 0, "nothing silently stranded");
    }

    #[test]
    fn disconnected_survivors_drop_as_unreachable() {
        // Cut links 0–1 and 3–4 of a 6-ring: components {1,2,3} and
        // {4,5,0}. Cross-component pairs (2·3·3 = 18) drop Unreachable;
        // within-component pairs (2·3·2 = 12) deliver.
        let ring = Ring::new(6);
        let faults = FaultSet::new([], [(0u32, 1u32), (3u32, 4u32)]);
        let pkts = all_to_all(ring.len());
        let router = ring.router();
        let stats = sim_run(
            &ring,
            &*router,
            &SAF,
            &faults,
            &pkts,
            100_000,
            &mut NoopObserver,
        );
        assert_eq!(stats.offered, 30);
        assert_eq!(stats.dropped_unreachable, 18);
        assert_eq!(stats.dropped_dead_endpoint, 0);
        assert_eq!(stats.delivered, 12);
    }

    #[test]
    fn faulted_runs_conserve_packets_under_a_cycle_cap() {
        let net = FibonacciNet::classical(8);
        let faults = FaultSet::new([3u32, 11, 40], [(0u32, 1u32)]);
        let pkts = uniform(net.len(), 500, 50, 7);
        let router = CanonicalRouter::for_net(&net);
        for cap in [0u64, 3, 10, 100_000] {
            let mut tracker = DeliveryTracker::new();
            let stats = sim_run(&net, &router, &SAF, &faults, &pkts, cap, &mut tracker);
            assert!(
                stats.delivered + stats.dropped() <= stats.offered,
                "cap {cap}"
            );
            // Observer and engine accounting agree; the remainder is the
            // in-flight truncation, never a silent strand.
            assert_eq!(tracker.delivered() as usize, stats.delivered, "cap {cap}");
            assert_eq!(tracker.dropped() as usize, stats.dropped(), "cap {cap}");
            if cap == 100_000 {
                assert_eq!(stats.delivered + stats.dropped(), stats.offered);
                assert_eq!(tracker.in_flight(), 0);
            }
        }
    }

    #[test]
    fn ring_overflow_preserves_fifo_against_reference() {
        // Funnel far more packets through single links than the ring
        // stride holds: 40 same-direction packets on a 4-ring, plus a
        // hot-spot drain on Q_3. The spill/promote path must stay
        // packet-for-packet identical to the reference engine.
        let ring = Ring::new(4);
        let pkts: Vec<Packet> = (0..40)
            .map(|i| Packet {
                src: 0,
                dst: 1,
                inject_time: i % 3,
            })
            .collect();
        let fast = sim(&ring, &pkts, 100_000);
        let slow = simulate_reference(&ring, &pkts, 100_000);
        assert_eq!(fast, slow);
        assert_eq!(fast.delivered, 40);

        let q = Hypercube::new(3);
        let pkts: Vec<Packet> = (0..60)
            .map(|i| Packet {
                src: (1 + i % 7) as u32,
                dst: 0,
                inject_time: i / 14,
            })
            .collect();
        let fast = sim(&q, &pkts, 100_000);
        let slow = simulate_reference(&q, &pkts, 100_000);
        assert_eq!(fast, slow);
    }

    #[test]
    fn table_routing_path_agrees_with_reference() {
        // All-to-all workloads trip the precompute heuristic
        // (packets ≈ n² ≫ n²/d̄), so this exercises the NextHopTable hop
        // path end to end against the per-hop reference engine.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(9),
        ] {
            let pkts = all_to_all(topo.len());
            let fast = sim(topo, &pkts, 1_000_000);
            let slow = simulate_reference(topo, &pkts, 1_000_000);
            assert_eq!(fast, slow, "{}", topo.name());
        }
    }

    #[test]
    fn faulted_engine_agrees_with_faulted_reference() {
        // The arena engine under faults ≡ the full-scan faulted oracle,
        // with node faults, link faults, and a cycle cap in the mix.
        let net = FibonacciNet::classical(8);
        let router = CanonicalRouter::for_net(&net);
        let faults = FaultSet::new([3u32, 11, 40], [(0u32, 1u32)]);
        for (count, window, cap) in [(400usize, 80u64, 100_000u64), (300, 50, 25)] {
            let pkts = uniform(net.len(), count, window, 5);
            let fast = sim_run(&net, &router, &SAF, &faults, &pkts, cap, &mut NoopObserver);
            let slow = simulate_faulted_reference(&net, &router, &faults, &pkts, cap);
            assert_eq!(fast, slow, "count={count} cap={cap}");
        }
        // And with no faults the oracle degenerates to the healthy
        // reference engine.
        let pkts = uniform(net.len(), 200, 60, 9);
        let empty = crate::fault::FaultSet::empty();
        let oracle = simulate_faulted_reference(&net, &router, &empty, &pkts, 100_000);
        assert_eq!(oracle, sim_with(&net, &router, &pkts, 100_000));
    }

    #[test]
    fn collective_one_port_completion_equals_static_rounds() {
        // The gating oracle of the collective path, small scale: the live
        // replication engine must complete a one-port broadcast in
        // exactly the static schedule's round count (no cross-traffic, so
        // the serialization chain is the only latency source).
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
            &Ring::new(12),
        ] {
            for src in [0u32, (topo.len() / 2) as u32] {
                let schedule = broadcast_one_port(topo, src).expect("connected");
                let plan = CopyPlan::from_schedule(topo.graph(), &schedule, true);
                let (stats, reached) = sim_tree(topo, &plan, 1_000_000, &mut NoopObserver);
                assert_eq!(stats.offered, topo.len() - 1, "{}", topo.name());
                assert_eq!(stats.delivered, topo.len() - 1, "{}", topo.name());
                assert_eq!(reached, topo.len() - 1);
                assert_eq!(
                    stats.makespan,
                    schedule.rounds as u64,
                    "{} src={src}: live one-port completion must equal static rounds",
                    topo.name()
                );
                assert_eq!(
                    stats.total_hops,
                    (topo.len() - 1) as u64,
                    "one hop per copy"
                );
            }
        }
    }

    #[test]
    fn collective_all_port_completion_equals_source_eccentricity() {
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
        ] {
            let schedule = broadcast_all_port(topo, 0).expect("connected");
            let plan = CopyPlan::from_schedule(topo.graph(), &schedule, false);
            let (stats, _) = sim_tree(topo, &plan, 1_000_000, &mut NoopObserver);
            let ecc = fibcube_graph::bfs::bfs_distances(topo.graph(), 0)
                .iter()
                .copied()
                .max()
                .unwrap() as u64;
            assert_eq!(stats.makespan, ecc, "{}", topo.name());
            assert_eq!(stats.delivered, topo.len() - 1);
            assert_eq!(stats.mean_latency, 1.0, "uncontended copies take one cycle");
        }
    }

    #[test]
    fn collective_copies_conserve_under_a_cycle_cap() {
        let net = FibonacciNet::classical(8);
        let schedule = broadcast_one_port(&net, 0).unwrap();
        let plan = CopyPlan::from_schedule(net.graph(), &schedule, true);
        for cap in [0u64, 1, 3, schedule.rounds as u64, 1_000] {
            let mut tracker = DeliveryTracker::new();
            let (stats, reached) = sim_tree(&net, &plan, cap, &mut tracker);
            assert_eq!(stats.offered, net.len() - 1, "cap {cap}");
            assert!(stats.delivered + stats.dropped() <= stats.offered);
            assert!(reached <= stats.delivered);
            // Observer and engine accounting agree copy for copy; spawned
            // copies not yet delivered are the tracker's in-flight.
            assert_eq!(tracker.delivered() as usize, stats.delivered, "cap {cap}");
            assert_eq!(
                tracker.injected() - tracker.delivered(),
                tracker.in_flight(),
                "cap {cap}"
            );
            if cap >= schedule.rounds as u64 {
                assert_eq!(stats.delivered, stats.offered, "cap {cap}: drained");
                assert_eq!(tracker.in_flight(), 0);
            }
        }
    }

    #[test]
    fn collective_observer_sees_replication_events_in_order() {
        // Q_2 one-port from 0. Verify the event stream shape rather than
        // one hard-coded tree: every inject names a real link out of an
        // informed node, and every copy is delivered exactly one cycle
        // after it was injected (uncontended tree edges).
        #[derive(Default)]
        struct Trace {
            injects: Vec<(u64, u32, u32)>,
            delivers: Vec<(u64, u32)>,
        }
        impl SimObserver for Trace {
            fn on_inject(&mut self, cycle: u64, src: u32, dst: u32) {
                self.injects.push((cycle, src, dst));
            }
            fn on_deliver(&mut self, cycle: u64, dst: u32, _latency: u64) {
                self.delivers.push((cycle, dst));
            }
        }
        let q = Hypercube::new(2);
        let schedule = broadcast_one_port(&q, 0).unwrap();
        let plan = CopyPlan::from_schedule(q.graph(), &schedule, true);
        let mut trace = Trace::default();
        let (stats, _) = sim_tree(&q, &plan, 1_000, &mut trace);
        assert_eq!(stats.delivered, 3);
        assert_eq!(trace.injects.len(), 3);
        let mut informed_at = [u64::MAX; 4];
        informed_at[0] = 0;
        // Injects are causal: the caller was informed strictly earlier.
        for &(cycle, src, dst) in &trace.injects {
            assert!(q.graph().has_edge(src, dst));
            assert!(
                informed_at[src as usize] <= cycle,
                "caller must already hold the message"
            );
            let (dcycle, _) = *trace
                .delivers
                .iter()
                .find(|&&(_, d)| d == dst)
                .expect("every copy is delivered");
            assert_eq!(dcycle, cycle + 1, "uncontended copies take one cycle");
            informed_at[dst as usize] = dcycle;
        }
        assert_eq!(stats.makespan, schedule.rounds as u64);
    }

    #[test]
    fn idle_gap_fast_forward_preserves_semantics() {
        // Two packets separated by a huge idle gap: the active-set engine
        // must skip the gap, not simulate it, and still report identical
        // latencies to the reference engine.
        let q = Hypercube::new(3);
        let pkts = vec![
            Packet {
                src: 0,
                dst: 7,
                inject_time: 0,
            },
            Packet {
                src: 7,
                dst: 0,
                inject_time: 1_000_000,
            },
        ];
        let fast = sim(&q, &pkts, 2_000_000);
        let slow = simulate_reference(&q, &pkts, 2_000_000);
        assert_eq!(fast.delivered, 2);
        assert_eq!(fast.delivered, slow.delivered);
        assert_eq!(fast.mean_latency, slow.mean_latency);
        assert_eq!(fast.makespan, slow.makespan);
    }

    #[test]
    fn log_histogram_buckets_by_powers_of_two() {
        let mut h = LogHistogram::new();
        for lat in [0, 1, 2, 3, 4, 6, 7, 100, u64::MAX] {
            h.record(lat);
        }
        // Bucket i covers [2^i − 1, 2^{i+1} − 2].
        assert_eq!(h.buckets()[0], 1); // latency 0
        assert_eq!(h.buckets()[1], 2); // 1, 2
        assert_eq!(h.buckets()[2], 3); // 3, 4, 6
        assert_eq!(h.buckets()[3], 1); // 7
        assert_eq!(h.buckets()[6], 1); // 100 ∈ [63, 126]
        assert_eq!(h.buckets()[63], 1); // saturates, no overflow
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn log_histogram_ranges_tile_the_latency_axis() {
        let mut expected_lo = 0u64;
        for i in 0..64 {
            let (lo, hi) = LogHistogram::bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} starts where {} ended", i);
            assert!(hi >= lo);
            if i < 63 {
                expected_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn log_percentile_upper_bound_never_underestimates() {
        let mut h = LogHistogram::new();
        let mut exact = Vec::new();
        for lat in [0u64, 1, 1, 3, 5, 9, 9, 9, 20, 70] {
            h.record(lat);
            exact.push(lat);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let idx = ((exact.len() as f64 * q).ceil() as usize).max(1) - 1;
            let truth = exact[idx];
            let bound = h.percentile_upper_bound(q);
            assert!(bound >= truth, "q={q}: bound {bound} < exact {truth}");
        }
        assert_eq!(LogHistogram::new().percentile_upper_bound(0.99), 0);
    }

    #[test]
    fn log_histogram_matches_dense_histogram_on_a_real_run() {
        // Below DENSE_HISTOGRAM_NODE_LIMIT both forms are filled; the
        // log buckets must be exactly the dense vector folded by log₂.
        let net = FibonacciNet::classical(8);
        let pkts = uniform(net.len(), 400, 64, 9);
        let stats = sim(&net, &pkts, 100_000);
        assert_eq!(
            stats.latency_buckets.count() as usize,
            stats.delivered,
            "every delivery lands in exactly one bucket"
        );
        let mut folded = LogHistogram::new();
        for (lat, &c) in stats.latency_histogram.iter().enumerate() {
            for _ in 0..c {
                folded.record(lat as u64);
            }
        }
        assert_eq!(stats.latency_buckets, folded);
        // The bucketed p99 upper bound dominates the exact dense p99.
        assert!(stats.latency_buckets.percentile_upper_bound(0.99) >= stats.p99_latency);
    }

    /// Degenerate wormhole: one flit per packet, one VC, effectively
    /// unbounded buffers — structurally the store-and-forward engine.
    fn degenerate() -> SwitchingSpec {
        SwitchingSpec::Wormhole {
            flit_size: PACKET_LENGTH_UNITS,
            vcs: 1,
            buf_flits: 1_000_000,
        }
    }

    #[test]
    fn store_and_forward_spec_matches_the_reference_engine() {
        let q = Hypercube::new(4);
        let pkts = TrafficSpec::Uniform {
            count: 200,
            window: 50,
        }
        .generate(q.len(), 5);
        let via_spec = sim_with(&q, &EcubeRouter, &pkts, 100_000);
        assert_eq!(via_spec, simulate_reference(&q, &pkts, 100_000));
    }

    #[test]
    fn degenerate_wormhole_matches_store_and_forward_on_small_topologies() {
        let spec = degenerate();
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(13),
            &Mesh::new(4, 3),
        ] {
            for (count, window, seed) in [(60usize, 20u64, 1u64), (300, 80, 2), (1, 0, 3)] {
                let pkts = TrafficSpec::Uniform { count, window }.generate(topo.len(), seed);
                let router = topo.router();
                let saf = sim_with(topo, &*router, &pkts, 100_000);
                let worm = sim_run(
                    topo,
                    &*router,
                    &spec,
                    &FaultSet::empty(),
                    &pkts,
                    100_000,
                    &mut NoopObserver,
                );
                assert_eq!(worm, saf, "{} count={count} seed={seed}", topo.name());
            }
        }
    }

    #[test]
    fn degenerate_wormhole_matches_faulted_engine() {
        // The masked router's detour rule is load-aware (least-loaded
        // progressive link), and the wormhole engine routes heads when
        // they leave a buffer (credit needs the output known before
        // crossing) while the packet engine routes on arrival — so the
        // two can break detour ties differently and shift queueing
        // latencies by a cycle. The equivalence oracle is therefore the
        // packet-set one: identical delivered set, identical typed
        // drops, identical per-packet hop counts. Hops are pinned
        // exactly: every masked hop strictly decreases the degraded
        // distance, so each packet's hop count is at least that
        // distance, and matching both totals against the distance-sum
        // oracle forces per-packet equality in both engines.
        #[derive(Default)]
        struct DeliveryCensus {
            per_node: Vec<u64>,
        }
        impl SimObserver for DeliveryCensus {
            fn on_deliver(&mut self, _cycle: u64, node: u32, _latency: u64) {
                let i = node as usize;
                if self.per_node.len() <= i {
                    self.per_node.resize(i + 1, 0);
                }
                self.per_node[i] += 1;
            }
        }
        let net = FibonacciNet::classical(7);
        let faults = FaultSet::new([1u32, 5], [(0u32, 2u32)]);
        let pkts = TrafficSpec::Uniform {
            count: 250,
            window: 60,
        }
        .generate(net.len(), 9);
        let router = net.router();
        let spec = degenerate();
        let mut saf_census = DeliveryCensus::default();
        let saf = sim_run(
            &net,
            &*router,
            &SAF,
            &faults,
            &pkts,
            100_000,
            &mut saf_census,
        );
        let mut worm_census = DeliveryCensus::default();
        let worm = sim_run(
            &net,
            &*router,
            &spec,
            &faults,
            &pkts,
            100_000,
            &mut worm_census,
        );
        assert!(worm.dropped() > 0, "faults must actually bite");
        assert_eq!(worm.offered, saf.offered);
        assert_eq!(worm.delivered, saf.delivered);
        assert_eq!(worm.dropped_dead_endpoint, saf.dropped_dead_endpoint);
        assert_eq!(worm.dropped_unreachable, saf.dropped_unreachable);
        assert_eq!(
            worm_census.per_node, saf_census.per_node,
            "same delivered packet set"
        );
        // Per-packet hop oracle: admitted packets cost exactly their
        // degraded-graph distance.
        let masks = faults.masks(net.graph());
        let dist = crate::dist::DistanceTable::degraded(net.graph(), &masks);
        let expected: u64 = pkts
            .iter()
            .filter(|p| {
                p.src != p.dst
                    && masks.node_alive(p.src)
                    && masks.node_alive(p.dst)
                    && dist.reachable(p.src, p.dst)
            })
            .map(|p| dist.distance(p.src, p.dst) as u64)
            .sum();
        assert_eq!(saf.total_hops, expected);
        assert_eq!(worm.total_hops, expected);
    }

    #[test]
    fn empty_fault_set_delegates_to_the_healthy_wormhole_engine() {
        // Every spelling of "no faults" runs the healthy flit engine under
        // the bare policy — never the fault-masking detour path.
        let q = Hypercube::new(3);
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8,
            vcs: 2,
            buf_flits: 2,
        };
        let run = |faults: FaultSpec| {
            crate::Experiment::on(&q)
                .router(crate::RouterSpec::Ecube)
                .traffic(TrafficSpec::Uniform {
                    count: 40,
                    window: 10,
                })
                .switching(spec.clone())
                .faults(faults)
                .seed(3)
                .cycles(100_000)
                .run()
                .expect("e-cube wormhole on Q_3")
        };
        let healthy = run(FaultSpec::None);
        for empty in [FaultSpec::NodeList(vec![]), FaultSpec::Nodes { count: 0 }] {
            let report = run(empty);
            assert_eq!(report.stats, healthy.stats);
            assert_eq!(report.router, "e-cube");
        }
    }

    #[test]
    fn multi_flit_packet_pipelines_at_distance_plus_serialization() {
        // One 4-flit packet over 4 hops: the tail leaves the source at
        // cycle 3 and crosses 4 links — latency dist + flits − 1 = 7.
        let q = Hypercube::new(4);
        let pkts = vec![Packet {
            src: 0b0000,
            dst: 0b1111,
            inject_time: 0,
        }];
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8, // 32 / 8 = 4 flits
            vcs: 1,
            buf_flits: 4,
        };
        let stats = sim_run(
            &q,
            &EcubeRouter,
            &spec,
            &FaultSet::empty(),
            &pkts,
            1000,
            &mut NoopObserver,
        );
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.mean_latency, 7.0);
        assert_eq!(stats.makespan, 7);
        assert_eq!(stats.total_hops, 4, "hops count the head flit only");
    }

    #[test]
    fn tight_buffers_drain_on_order_based_topologies() {
        // buf_flits = 1 with multi-flit packets is the hardest blocking
        // regime; order-based VC selection must still drain everything.
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8,
            vcs: 2,
            buf_flits: 1,
        };
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(12),
            &Mesh::new(4, 3),
        ] {
            let pkts = TrafficSpec::Uniform {
                count: 200,
                window: 60,
            }
            .generate(topo.len(), 11);
            let router = topo.router();
            let stats = sim_run(
                topo,
                &*router,
                &spec,
                &FaultSet::empty(),
                &pkts,
                4_000_000,
                &mut NoopObserver,
            );
            assert_eq!(
                stats.delivered + stats.dropped(),
                stats.offered,
                "{} must drain under tight buffers",
                topo.name()
            );
        }
    }

    #[test]
    fn self_addressed_and_zero_cap_match_packet_engine_conventions() {
        let q = Hypercube::new(3);
        let spec = degenerate();
        let selfed = vec![Packet {
            src: 2,
            dst: 2,
            inject_time: 5,
        }];
        let stats = sim_run(
            &q,
            &EcubeRouter,
            &spec,
            &FaultSet::empty(),
            &selfed,
            100,
            &mut NoopObserver,
        );
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.makespan, 0);
        let capped = sim_run(
            &q,
            &EcubeRouter,
            &spec,
            &FaultSet::empty(),
            &[Packet {
                src: 0,
                dst: 7,
                inject_time: 0,
            }],
            0,
            &mut NoopObserver,
        );
        assert_eq!(capped.delivered, 0);
        assert_eq!(capped.offered, 1);
    }

    #[test]
    fn vc_occupancy_observer_profiles_wormhole_runs() {
        let r = Ring::new(12);
        let pkts = TrafficSpec::Uniform {
            count: 150,
            window: 40,
        }
        .generate(r.len(), 7);
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8,
            vcs: 2,
            buf_flits: 2,
        };
        let router = r.router();
        let mut occ = VcOccupancy::new();
        let stats = sim_run(
            &r,
            &*router,
            &spec,
            &FaultSet::empty(),
            &pkts,
            1_000_000,
            &mut occ,
        );
        assert_eq!(stats.delivered, stats.offered);
        assert!(occ.total_flit_hops() > 0);
        assert!(
            occ.total_flit_hops() >= stats.total_hops,
            "every packet hop moves at least its head flit"
        );
        // The ring's dateline forces some traffic onto VC level 1.
        assert!(occ.flit_hops(0) > 0);
        assert!(occ.flit_hops(1) > 0, "wrap routes must escape to VC 1");
        // Store-and-forward runs emit no flit events at all.
        let mut saf_occ = VcOccupancy::new();
        sim_run(
            &r,
            &*router,
            &SAF,
            &FaultSet::empty(),
            &pkts,
            1_000_000,
            &mut saf_occ,
        );
        assert_eq!(saf_occ.total_flit_hops(), 0);
    }

    #[test]
    fn adaptive_routing_still_drains_with_enough_vcs_and_credit() {
        // Adaptive hops are not order-based; with roomy buffers the run
        // must still complete (deadlock freedom is best-effort there,
        // but ample credit keeps the network live).
        let q = Hypercube::new(4);
        let pkts = TrafficSpec::Uniform {
            count: 150,
            window: 40,
        }
        .generate(q.len(), 13);
        let spec = SwitchingSpec::Wormhole {
            flit_size: 16,
            vcs: 3,
            buf_flits: 64,
        };
        let stats = sim_run(
            &q,
            &AdaptiveMinimal::new(&q),
            &spec,
            &FaultSet::empty(),
            &pkts,
            4_000_000,
            &mut NoopObserver,
        );
        assert_eq!(stats.delivered, stats.offered);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn single_packet_latency_equals_distance(src_seed in 0u64..10_000, dst_seed in 0u64..10_000) {
            // Without contention the engine must deliver in exactly
            // distance(src, dst) cycles on every topology family.
            for topo in [
                &FibonacciNet::classical(8) as &dyn Topology,
                &Hypercube::new(5),
                &Ring::new(13),
                &Mesh::new(5, 4),
            ] {
                let n = topo.len() as u64;
                let src = (src_seed % n) as u32;
                let dst = (dst_seed % n) as u32;
                let d = fibcube_graph::bfs::bfs_distances(topo.graph(), src)[dst as usize] as u64;
                let stats = sim(topo, &[Packet { src, dst, inject_time: 3 }], 1_000_000);
                prop_assert_eq!(stats.delivered, 1, "{}", topo.name());
                prop_assert_eq!(stats.mean_latency, d as f64, "{}", topo.name());
                prop_assert_eq!(stats.total_hops, d, "{}", topo.name());
            }
        }
    }

    /// The implicit e-cube arm on a hypercube is the dense
    /// [`EcubeRouter`] itself: full `SimStats` equality on Q_11 at
    /// acceptance scale.
    #[test]
    fn implicit_ecube_run_equals_dense_ecube_run_on_q11() {
        let q = Hypercube::new(11);
        let pkts = TrafficSpec::Mixed(vec![
            TrafficSpec::Uniform {
                count: 400,
                window: 100,
            },
            TrafficSpec::HotSpot {
                count: 100,
                window: 100,
                hot_fraction: 0.3,
            },
        ])
        .generate(q.len(), 2026);
        let implicit = sim_with(&q, &ImplicitRouter::ecube(), &pkts, 1_000_000);
        let dense = sim_with(&q, &EcubeRouter, &pkts, 1_000_000);
        assert_eq!(implicit, dense, "Q_11");
    }

    /// Acceptance criterion of the churn engine: a timeline that fails a
    /// static fault set's nodes and links at cycle 0 and never recovers
    /// them is *packet-for-packet* identical to the static fault run on
    /// the Γ_16 / Q_11 acceptance pair — full `SimStats` equality,
    /// histograms and typed drops included. Events commit at the cycle-0
    /// boundary before any injection, so the churn workload sees exactly
    /// the degraded network the static run builds up front.
    #[test]
    fn cycle_zero_permanent_churn_equals_the_static_fault_engine() {
        let gamma = FibonacciNet::classical(16);
        let q = Hypercube::new(11);
        let mix = TrafficSpec::Mixed(vec![
            TrafficSpec::Uniform {
                count: 400,
                window: 100,
            },
            TrafficSpec::HotSpot {
                count: 100,
                window: 100,
                hot_fraction: 0.3,
            },
        ]);
        let dead_nodes: Vec<u32> = (1..=60u32).map(|i| i * 31).collect();
        for topo in [&gamma as &dyn Topology, &q] {
            let g = topo.graph();
            // A real link of each graph, so the link fault actually bites.
            let (lu, lv) = g
                .edges()
                .find(|&(u, v)| !dead_nodes.contains(&u) && !dead_nodes.contains(&v))
                .expect("a live link exists");
            let faults = FaultSet::new(dead_nodes.clone(), [(lu, lv)]);
            let pkts = mix.generate(topo.len(), 2026);
            let router = topo.router();
            let static_run = sim_run(
                topo,
                &*router,
                &SAF,
                &faults,
                &pkts,
                1_000_000,
                &mut NoopObserver,
            );
            assert!(static_run.dropped() > 0, "faults must bite {}", topo.name());

            let timeline = ChurnTimeline::from_events(
                dead_nodes
                    .iter()
                    .map(|&x| ChurnEvent {
                        cycle: 0,
                        target: ChurnTarget::Node(x),
                        failed: true,
                    })
                    .chain(std::iter::once(ChurnEvent {
                        cycle: 0,
                        target: ChurnTarget::Link(lu.min(lv), lu.max(lv)),
                        failed: true,
                    })),
            );
            let none = FaultSet::empty();
            let plan = Plan {
                topology: topo,
                router: &*router,
                workload: Workload::Churn {
                    timeline,
                    packets: pkts,
                },
                switching: SAF,
                faults: Faults::Set(&none),
                max_cycles: 1_000_000,
            };
            let (churned, _) = run(&plan, 1, &mut NoopObserver);
            assert_eq!(
                churned,
                static_run,
                "cycle-0 permanent churn ≡ static faults on {}",
                topo.name()
            );
        }
    }
}
