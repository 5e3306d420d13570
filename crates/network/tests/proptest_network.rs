//! Property-based tests for the routing/simulation engine: every router is
//! progressive (each hop strictly decreases BFS distance), the simulator
//! conserves packets (`delivered ≤ offered`, per-packet latency bounded
//! below by graph distance) across topology families, and degraded runs
//! never deliver more than the static reachability of their fault set
//! allows. Runs go through the one public door, [`Experiment`], and are
//! checked against the reference oracles (`simulate_reference`,
//! `simulate_faulted_reference` on `spec.generate(n, seed)`) and against
//! themselves at other thread counts.

use fibcube_graph::bfs::bfs_distances;
use fibcube_network::broadcast::{broadcast_all_port, broadcast_one_port, verify_schedule};
use fibcube_network::fault::{
    fault_set_trial, ChurnEvent, ChurnTarget, ChurnTimeline, FaultSet, FaultSpec,
};
use fibcube_network::observer::SimObserver;
use fibcube_network::observer::{LatencyHistogram, LinkHeatmap, SloTracker};
use fibcube_network::router::{
    AdaptiveMinimal, CanonicalRouter, EcubeRouter, FaultMaskingRouter, NextHopRouter, NoLoad,
    Router,
};
use fibcube_network::switching::{SwitchingSpec, PACKET_LENGTH_UNITS};
use fibcube_network::topology::{FibonacciNet, Hypercube, Mesh, Ring, Topology};
use fibcube_network::traffic::{Packet, TrafficSpec};
use fibcube_network::{
    simulate_faulted_reference, simulate_reference, CollectiveSpec, DistanceTable, Experiment,
    ImplicitFibonacciNet, ImplicitRouter, JsonValue, Port, Report, RouterSpec,
};
use proptest::prelude::*;

fn uniform(n: usize, count: usize, window: u64, seed: u64) -> Vec<Packet> {
    TrafficSpec::Uniform { count, window }.generate(n, seed)
}

/// The experiment of `traffic` (seeded with `seed`) on `topo` under the
/// preferred router, capped at `cycles` — the starting point every test
/// below refines with faults, switching, observers or threads.
fn experiment<T: Topology + ?Sized>(
    topo: &T,
    traffic: TrafficSpec,
    seed: u64,
    cycles: u64,
) -> Experiment<'_, T> {
    Experiment::on(topo)
        .traffic(traffic)
        .seed(seed)
        .cycles(cycles)
}

/// Runs a configuration the test knows to be valid.
fn report<T: Topology + ?Sized, O: SimObserver + Send>(e: Experiment<'_, T, O>) -> Report {
    e.run().expect("valid experiment configuration")
}

/// The report of `e` at `threads` with a latency histogram and a link
/// heatmap attached, as JSON: the merged observer output rides in the
/// report's sections, so whole-report equality compares both.
fn paired<T: Topology + ?Sized>(e: Experiment<'_, T>, threads: usize) -> JsonValue {
    let observed = e.observe((LatencyHistogram::new(), LinkHeatmap::new()));
    report(observed.threads(threads)).to_json_value()
}

/// The explicit-list spelling of a sampled fault set, so an experiment
/// runs exactly the set an oracle is handed.
fn pinned(set: &FaultSet) -> FaultSpec {
    FaultSpec::Mixed(vec![
        FaultSpec::NodeList(set.failed_nodes().to_vec()),
        FaultSpec::LinkList(set.failed_links().to_vec()),
    ])
}

/// Walk `router` from every source toward `dst`, asserting strict distance
/// decrease at each hop (the progressivity property routing correctness
/// and simulator termination both rest on).
fn assert_progressive(topo: &dyn Topology, router: &dyn Router, dst: u32) {
    let g = topo.graph();
    let dist = bfs_distances(g, dst);
    for src in 0..topo.len() as u32 {
        let mut cur = src;
        let mut hops = 0usize;
        while let Some(hop) = router.next_hop(cur, dst, &NoLoad) {
            assert!(
                g.has_edge(cur, hop),
                "{}: {cur}→{hop} is not a link",
                router.name()
            );
            assert_eq!(
                dist[hop as usize] + 1,
                dist[cur as usize],
                "{} on {}: hop {cur}→{hop} toward {dst} does not decrease distance",
                router.name(),
                topo.name()
            );
            cur = hop;
            hops += 1;
            assert!(hops <= topo.len(), "runaway route");
        }
        assert_eq!(cur, dst, "route must terminate at the destination");
        assert_eq!(hops as u32, dist[src as usize], "progressive ⇒ shortest");
    }
}

/// Conservation invariants of one simulation run: nothing is created,
/// nothing delivered faster than the shortest path allows.
fn assert_conservation(topo: &dyn Topology, traffic: &TrafficSpec, seed: u64, max_cycles: u64) {
    let packets = &traffic.generate(topo.len(), seed);
    let stats = report(experiment(topo, traffic.clone(), seed, max_cycles)).stats;
    assert_eq!(stats.offered, packets.len());
    assert!(stats.delivered <= stats.offered, "{}", topo.name());
    let hist_total: u64 = stats.latency_histogram.iter().sum();
    assert_eq!(
        hist_total as usize, stats.delivered,
        "histogram counts deliveries"
    );
    // Latency floor: every delivered packet took at least distance cycles,
    // so the *minimum* histogram latency is ≥ the packet set's minimum
    // distance and the mean is ≥ the mean distance of delivered packets
    // when everything was delivered.
    if stats.delivered == stats.offered && !packets.is_empty() {
        let mut dist_sum = 0u64;
        for p in packets {
            let d = bfs_distances(topo.graph(), p.src)[p.dst as usize] as u64;
            dist_sum += d;
        }
        let mean_dist = dist_sum as f64 / packets.len() as f64;
        assert!(
            stats.mean_latency + 1e-9 >= mean_dist,
            "{}: mean latency {} below mean distance {mean_dist}",
            topo.name(),
            stats.mean_latency
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fibonacci_routers_progressive(d in 2usize..=8, k in 2usize..=3, dst_seed in 0u64..1000) {
        let net = FibonacciNet::new(d, k);
        let dst = (dst_seed % net.len() as u64) as u32;
        let canonical = CanonicalRouter::for_net(&net);
        assert_progressive(&net, &canonical, dst);
        assert_progressive(&net, &AdaptiveMinimal::new(&net), dst);
        assert_progressive(&net, &NextHopRouter::new(&net), dst);
    }

    #[test]
    fn hypercube_routers_progressive(d in 1usize..=6, dst_seed in 0u64..1000) {
        let q = Hypercube::new(d);
        let dst = (dst_seed % q.len() as u64) as u32;
        assert_progressive(&q, &EcubeRouter, dst);
        assert_progressive(&q, &AdaptiveMinimal::new(&q), dst);
    }

    #[test]
    fn ring_and_mesh_builtin_progressive(n in 3usize..=24, w in 2usize..=5, h in 2usize..=5, s in 0u64..1000) {
        let ring = Ring::new(n);
        assert_progressive(&ring, &NextHopRouter::new(&ring), (s % n as u64) as u32);
        let mesh = Mesh::new(w, h);
        assert_progressive(&mesh, &NextHopRouter::new(&mesh), (s % (w * h) as u64) as u32);
    }

    #[test]
    fn simulator_conserves_packets(count in 1usize..200, window in 0u64..100, seed in 0u64..10_000) {
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
        ] {
            let traffic = TrafficSpec::Uniform { count, window };
            // Generous cap: everything must arrive …
            assert_conservation(topo, &traffic, seed, 1_000_000);
            // … and a tight cap must only truncate, never create.
            assert_conservation(topo, &traffic, seed, 5);
        }
    }

    #[test]
    fn engines_agree_under_deterministic_routing(count in 1usize..150, window in 0u64..80, seed in 0u64..10_000) {
        // Same router ⇒ same per-packet paths ⇒ both engines must deliver
        // the same packet count over the same number of link traversals.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Mesh::new(4, 4),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            let fast = report(experiment(topo, TrafficSpec::Uniform { count, window }, seed, 1_000_000)).stats;
            let slow = simulate_reference(topo, &pkts, 1_000_000);
            prop_assert_eq!(fast.delivered, slow.delivered, "{}", topo.name());
            prop_assert_eq!(fast.total_hops, slow.total_hops, "{}", topo.name());
        }
    }

    #[test]
    fn experiment_matches_the_reference_engine_at_any_thread_count(count in 1usize..150, window in 0u64..80, seed in 0u64..10_000) {
        // The builder surface is sugar, not semantics: for any uniform
        // workload the Experiment path equals the reference oracle on the
        // same packet stream, and a thread budget changes nothing.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
        ] {
            let spec = TrafficSpec::Uniform { count, window };
            let oracle = simulate_reference(topo, &spec.generate(topo.len(), seed), 1_000_000);
            for threads in [1usize, 4] {
                let stats = report(experiment(topo, spec.clone(), seed, 1_000_000).threads(threads)).stats;
                prop_assert_eq!(&stats, &oracle, "{} at {} threads", topo.name(), threads);
            }
        }
    }

    #[test]
    fn faulted_delivery_never_exceeds_static_reachability(d in 3usize..=7, faults in 0usize..6, seed in 0u64..10_000) {
        // All-to-all traffic offers every ordered pair exactly once, so
        // the delivered fraction under a fault set is bounded by that
        // set's static reachable-pair fraction (scaled by the survivor
        // share) — the live engine can never beat the static bound.
        let net = FibonacciNet::classical(d);
        // Keep at least two survivors so the static fraction is defined.
        let faults = faults.min(net.len() - 2);
        let set = FaultSpec::Nodes { count: faults }
            .sample(net.graph(), seed)
            .expect("validated fault count");
        // Pin the sampled set as an explicit list so the experiment runs
        // exactly the set the static analysis sees.
        let report = fibcube_network::Experiment::on(&net)
            .traffic(TrafficSpec::AllToAll)
            .faults(FaultSpec::NodeList(set.failed_nodes().to_vec()))
            .seed(seed)
            .run()
            .expect("all-to-all under explicit node faults");
        let s = &report.stats;
        // Conservation: uncapped, everything is delivered or typed-dropped.
        prop_assert_eq!(s.delivered + s.dropped(), s.offered);
        let delivered_fraction = s.delivered as f64 / s.offered as f64;
        let n = net.len() as f64;
        let m = n - faults as f64;
        let static_bound = fault_set_trial(&net, &set)
            .expect("a sampled fault set is always valid for its own graph")
            .reachable_pair_fraction
            .unwrap_or(0.0)
            * (m * (m - 1.0))
            / (n * (n - 1.0));
        prop_assert!(
            delivered_fraction <= static_bound + 1e-9,
            "delivered {delivered_fraction} beats static bound {static_bound} (d={d}, faults={faults})"
        );
        // With no cycle cap the bound is tight: the engine delivers every
        // statically reachable pair.
        prop_assert!((delivered_fraction - static_bound).abs() < 1e-9);
    }

    #[test]
    fn faulted_runs_only_strand_under_a_cap(count in 1usize..150, faults in 1usize..6, seed in 0u64..10_000) {
        // Random uniform traffic over a degraded Q_4: typed drops plus
        // deliveries always account for every packet once drained, and a
        // tight cap only truncates — it never invents packets.
        let q = Hypercube::new(4);
        let pkts = uniform(q.len(), count, 40, seed);
        let spec = FaultSpec::Nodes { count: faults };
        for cap in [1_000_000u64, 4] {
            let report = fibcube_network::Experiment::on(&q)
                .traffic(TrafficSpec::Uniform { count, window: 40 })
                .faults(spec.clone())
                .seed(seed)
                .cycles(cap)
                .run()
                .expect("degraded uniform run");
            let s = report.stats;
            prop_assert_eq!(s.offered, pkts.len());
            prop_assert!(s.delivered + s.dropped() <= s.offered);
            if cap > 1_000 {
                prop_assert_eq!(s.delivered + s.dropped(), s.offered);
            }
        }
    }

    #[test]
    fn arena_engine_equals_reference_packet_for_packet(count in 1usize..200, window in 0u64..80, seed in 0u64..10_000, faults in 0usize..5) {
        // The gating invariant of the arena refactor: the SoA-slab /
        // ring-queue engine is *packet-for-packet* identical to the
        // full-scan reference — full SimStats equality (histogram,
        // makespan, hops, p99, everything), healthy and faulted, on
        // random mixed traffic (uniform + hot-spot superposition).
        let mix = TrafficSpec::Mixed(vec![
            TrafficSpec::Uniform { count, window },
            TrafficSpec::HotSpot { count: count / 2, window: window.max(1), hot_fraction: 0.4 },
        ]);
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
        ] {
            let pkts = mix.generate(topo.len(), seed);
            let healthy_fast = report(experiment(topo, mix.clone(), seed, 1_000_000)).stats;
            let healthy_slow = simulate_reference(topo, &pkts, 1_000_000);
            prop_assert_eq!(&healthy_fast, &healthy_slow, "healthy {}", topo.name());

            let set = FaultSpec::Nodes { count: faults }
                .sample(topo.graph(), seed ^ 0xF00D)
                .expect("fault count below node count");
            let router = topo.router();
            let faulted_fast =
                report(experiment(topo, mix.clone(), seed, 1_000_000).faults(pinned(&set))).stats;
            let faulted_slow =
                simulate_faulted_reference(topo, &*router, &set, &pkts, 1_000_000);
            prop_assert_eq!(&faulted_fast, &faulted_slow, "faulted {}", topo.name());
        }
    }

    #[test]
    fn run_batch_is_order_independent(seed_a in 0u64..1_000, seed_b in 0u64..1_000, seed_c in 0u64..1_000) {
        // Same seeds in any order ⇒ identical per-seed reports, so every
        // order-independent aggregate (sums, means) is byte-stable.
        let net = FibonacciNet::classical(7);
        let template = Experiment::on(&net)
            .router(RouterSpec::Canonical)
            .traffic(TrafficSpec::Uniform { count: 120, window: 40 })
            .cycles(100_000);
        let fwd = template.run_batch(&[seed_a, seed_b, seed_c]).unwrap();
        let rev = template.run_batch(&[seed_c, seed_b, seed_a]).unwrap();
        prop_assert_eq!(&fwd[0].stats, &rev[2].stats);
        prop_assert_eq!(&fwd[1].stats, &rev[1].stats);
        prop_assert_eq!(&fwd[2].stats, &rev[0].stats);
        let total_hops: u64 = fwd.iter().map(|r| r.stats.total_hops).sum();
        let total_rev: u64 = rev.iter().map(|r| r.stats.total_hops).sum();
        prop_assert_eq!(total_hops, total_rev);
    }

    #[test]
    fn verify_schedule_accepts_schedulers_and_rejects_mutations(
        d in 2usize..=7,
        n in 4usize..=16,
        w in 2usize..=4,
        h in 2usize..=4,
        src_seed in 0u64..1000,
        mutation_seed in 0usize..1000,
    ) {
        // Both schedulers' output verifies on every shipped topology
        // family, and a schedule corrupted in any of the classic ways —
        // round off-by-one, duplicate inform, non-edge call — is caught.
        for topo in [
            &FibonacciNet::classical(d) as &dyn Topology,
            &Hypercube::new(d.min(5)),
            &Ring::new(n.max(3)),
            &Mesh::new(w, h),
        ] {
            let src = (src_seed % topo.len() as u64) as u32;
            for (schedule, one_port) in [
                (broadcast_all_port(topo, src).expect("connected"), false),
                (broadcast_one_port(topo, src).expect("connected"), true),
            ] {
                prop_assert!(
                    verify_schedule(topo, &schedule, one_port),
                    "{} src={src} one_port={one_port}",
                    topo.name()
                );
                if schedule.calls.is_empty() {
                    continue;
                }
                let pick = mutation_seed % schedule.calls.len();
                // Round off-by-one: pull the child's round down to its
                // caller's — one earlier than the minimum legal round, so
                // the call happens before the caller holds the message.
                let mut off = schedule.clone();
                let (u, v) = off.calls[pick];
                off.round[v as usize] = off.round[u as usize];
                prop_assert!(
                    !verify_schedule(topo, &off, one_port),
                    "{}: round mutation must be rejected",
                    topo.name()
                );
                // Duplicate inform: the same node informed twice.
                let mut dup = schedule.clone();
                let extra = dup.calls[pick];
                dup.calls.push(extra);
                prop_assert!(
                    !verify_schedule(topo, &dup, one_port),
                    "{}: duplicate inform must be rejected",
                    topo.name()
                );
                // Non-edge call: reroute a call through a non-neighbor.
                let (u, v) = schedule.calls[pick];
                if let Some(far) = (0..topo.len() as u32)
                    .find(|&w| w != u && w != v && !topo.graph().has_edge(w, v))
                {
                    let mut wire = schedule.clone();
                    wire.calls[pick] = (far, v);
                    prop_assert!(
                        !verify_schedule(topo, &wire, one_port),
                        "{}: non-edge call must be rejected",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn wormhole_with_single_flit_buffers_always_drains(
        count in 1usize..120,
        window in 0u64..60,
        seed in 0u64..10_000,
        flit_size in 1u32..=PACKET_LENGTH_UNITS,
    ) {
        // The deadlock-freedom acceptance property: with the *minimum*
        // buffer (one flit per link × VC — the configuration where cyclic
        // credit waits would wedge first), every healthy run drains
        // completely under a generous cap on all four topology families.
        // The order-based channel classes make the channel-dependency
        // graph acyclic, so no drop and no strand is possible.
        let spec = SwitchingSpec::Wormhole { flit_size, vcs: 2, buf_flits: 1 };
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(9),
            &Mesh::new(4, 3),
        ] {
            let traffic = TrafficSpec::Uniform { count, window };
            let stats = report(experiment(topo, traffic, seed, 5_000_000).switching(spec.clone())).stats;
            prop_assert_eq!(stats.offered, count, "{}", topo.name());
            prop_assert_eq!(stats.dropped(), 0, "healthy {}", topo.name());
            prop_assert_eq!(
                stats.delivered, stats.offered,
                "wormhole deadlock/strand on {} (flit_size={}, buf=1)",
                topo.name(), flit_size
            );
        }
    }

    #[test]
    fn every_spec_display_round_trips_through_its_parser(
        sel in 0u64..100_000,
        a in 0u64..5_000,
        b in 1u64..5_000,
        c in 1u64..100,
    ) {
        // One shared harness over all five spec families: the canonical
        // text form (`Display`) must parse back (`FromStr`) to exactly
        // the value it came from. Each family picks its variant from an
        // independent slice of `sel`.
        fn round_trip<T>(x: &T)
        where
            T: std::fmt::Display + std::str::FromStr + PartialEq + std::fmt::Debug,
            T::Err: std::fmt::Debug,
        {
            let text = x.to_string();
            let back: T = text.parse().unwrap_or_else(|e| {
                panic!("`{text}` must parse back: {e:?}")
            });
            assert_eq!(&back, x, "`{text}` round-trips");
        }

        let traffic = match sel % 7 {
            0 => TrafficSpec::Uniform { count: a as usize, window: b },
            1 => TrafficSpec::HotSpot {
                count: a as usize,
                window: b,
                hot_fraction: c as f64 / 100.0,
            },
            2 => TrafficSpec::Bernoulli { rate: c as f64 / 100.0, cycles: b },
            3 => TrafficSpec::ComplementPermutation { window: b },
            4 => TrafficSpec::AllToAll,
            5 => TrafficSpec::RequestReply {
                clients: a as usize,
                think: a as f64 / 4.0,
                timeout: b,
                retries: c as u32,
            },
            _ => TrafficSpec::Mixed(vec![
                TrafficSpec::Uniform { count: a as usize, window: b },
                TrafficSpec::ComplementPermutation { window: b },
            ]),
        };
        round_trip(&traffic);

        let fault = match (sel / 7) % 7 {
            0 => FaultSpec::None,
            1 => FaultSpec::Nodes { count: a as usize },
            2 => FaultSpec::Links { count: a as usize },
            3 => FaultSpec::NodeList(vec![a as u32, (a + c) as u32]),
            4 => FaultSpec::LinkList(vec![(a as u32, (a + 1) as u32), (c as u32, 0)]),
            5 => FaultSpec::Churn {
                node_rate: a as f64 / 1000.0,
                link_rate: c as f64 / 100.0,
                mttr: if sel & 1 == 0 { b as f64 } else { f64::INFINITY },
            },
            _ => FaultSpec::Mixed(vec![
                FaultSpec::Nodes { count: a as usize },
                FaultSpec::Links { count: c as usize },
            ]),
        };
        round_trip(&fault);

        let port = if sel & 1 == 0 { Port::One } else { Port::All };
        let collective = match (sel / 49) % 3 {
            0 => CollectiveSpec::Broadcast { source: a as u32, port },
            1 => CollectiveSpec::Multicast { source: a as u32, count: c as usize, port },
            _ => CollectiveSpec::AllToAllPersonalized,
        };
        round_trip(&collective);

        let router = match (sel / 147) % 5 {
            0 => RouterSpec::Preferred,
            1 => RouterSpec::Builtin,
            2 => RouterSpec::Ecube,
            3 => RouterSpec::Canonical,
            _ => RouterSpec::Adaptive,
        };
        round_trip(&router);

        let switching = match (sel / 735) % 2 {
            0 => SwitchingSpec::StoreAndForward,
            _ => SwitchingSpec::Wormhole {
                flit_size: 1 + (a % 64) as u32,
                vcs: 1 + (c % 8) as u32,
                buf_flits: 1 + (b % 64) as u32,
            },
        };
        round_trip(&switching);
    }

    #[test]
    fn parallel_engine_is_thread_count_independent(count in 1usize..100, window in 0u64..60, seed in 0u64..10_000, faults in 0usize..5) {
        // Acceptance property of the sharded engine: the propose/commit
        // cycle makes the run a pure function of the workload — one, two,
        // four, or eight shards produce *identical* `SimStats` (histograms
        // included), healthy and faulted, across all five topology
        // families. Wormhole runs shard through the same pooled stepper
        // via the builder, so thread count must be invisible there too.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
            &ImplicitFibonacciNet::classical(7),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let fault_sets = [
                FaultSet::default(),
                FaultSpec::Nodes { count: faults.min(topo.len() - 2) }
                    .sample(topo.graph(), seed ^ 0xBEEF)
                    .expect("fault count below node count"),
            ];
            for set in &fault_sets {
                let oracle = simulate_faulted_reference(topo, &*router, set, &pkts, 1_000_000);
                for t in [1usize, 2, 4, 8] {
                    let traffic = TrafficSpec::Uniform { count, window };
                    let e = experiment(topo, traffic, seed, 1_000_000).faults(pinned(set));
                    let sharded = report(e.threads(t)).stats;
                    prop_assert_eq!(
                        &sharded, &oracle,
                        "{} with {} faults at {t} threads",
                        topo.name(), set.failed_nodes().len()
                    );
                }
            }
            // Wormhole through the builder: a thread budget shards the
            // flit engine under replicated arbitration — reports must be
            // bit-identical to the serial run.
            let worm = |threads: usize| {
                Experiment::on(topo)
                    .traffic(TrafficSpec::Uniform { count, window })
                    .switching(SwitchingSpec::Wormhole { flit_size: 4, vcs: 2, buf_flits: 2 })
                    .seed(seed)
                    .cycles(1_000_000)
                    .threads(threads)
                    .run()
                    .expect("wormhole experiment resolves")
            };
            let worm_serial = worm(1);
            prop_assert_eq!(&worm(4).stats, &worm_serial.stats, "wormhole {}", topo.name());
        }
    }

    #[test]
    fn adaptive_routing_conserves_and_stays_minimal(count in 1usize..150, seed in 0u64..10_000) {
        // Adaptive minimal routing may pick different links under load but
        // every path is still shortest, so total hops equal the distance sum.
        let net = FibonacciNet::classical(8);
        let traffic = TrafficSpec::Uniform { count, window: 40 };
        let pkts = traffic.generate(net.len(), seed);
        let stats = report(experiment(&net, traffic, seed, 1_000_000).router(RouterSpec::Adaptive)).stats;
        prop_assert_eq!(stats.delivered, stats.offered);
        let mut dist_sum = 0u64;
        for p in &pkts {
            dist_sum += bfs_distances(net.graph(), p.src)[p.dst as usize] as u64;
        }
        prop_assert_eq!(stats.total_hops, dist_sum, "minimal ⇒ hop count = Σ distance");
    }

    #[test]
    fn zero_rate_churn_equals_the_healthy_engine(count in 1usize..150, window in 0u64..80, seed in 0u64..10_000) {
        // Equivalence gate of the churn engine, quiet end: zero failure
        // rates generate an empty timeline, and running the churn engine
        // with it must be *identical* to the healthy engine — full
        // SimStats equality against the reference oracle on every
        // topology family, and the report names the bare policy.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
        ] {
            let timeline =
                ChurnTimeline::generate(topo.graph(), 0.0, 0.0, 100.0, seed, 1_000_000);
            prop_assert!(timeline.is_empty(), "zero rates must generate no events");
            let traffic = TrafficSpec::Uniform { count, window };
            let quiet = FaultSpec::Churn { node_rate: 0.0, link_rate: 0.0, mttr: 100.0 };
            let churned = report(experiment(topo, traffic.clone(), seed, 1_000_000).faults(quiet));
            let healthy = simulate_reference(topo, &traffic.generate(topo.len(), seed), 1_000_000);
            prop_assert_eq!(&churned.stats, &healthy, "{}", topo.name());
            prop_assert_eq!(churned.router, topo.router().name());
        }
    }

    #[test]
    fn parallel_churn_is_thread_count_independent(count in 1usize..100, window in 0u64..60, seed in 0u64..10_000) {
        // The churned extension of the sharded-engine determinism gate:
        // with a live mid-run fail/recover timeline, two, four, or eight
        // shards must produce SimStats identical to the one-lane churn
        // run — histograms, typed drops, makespan, everything.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
        ] {
            let churn = FaultSpec::Churn { node_rate: 0.01, link_rate: 0.01, mttr: 40.0 };
            let run = |t: usize| {
                let traffic = TrafficSpec::Uniform { count, window };
                report(experiment(topo, traffic, seed, 2_000).faults(churn.clone()).threads(t))
            };
            let serial = run(1);
            prop_assert!(serial.router.starts_with("fault-masked("), "the timeline must not be empty");
            for t in [2usize, 4, 8] {
                prop_assert_eq!(&run(t).stats, &serial.stats, "{} at {t} threads", topo.name());
            }
        }
    }

    #[test]
    fn incremental_repair_matches_from_scratch_rebuild(d in 3usize..=7, steps in 1usize..20, seed in 0u64..10_000) {
        // The incremental-repair invariant (see `dist.rs`): after *every*
        // applied churn event, the patched distance table must equal a
        // from-scratch masked BFS over the current liveness masks, on all
        // pairs — and the epoch counter must advance once per event.
        let net = FibonacciNet::classical(d);
        let g = net.graph();
        let router = net.router();
        let mut masked = FaultMaskingRouter::new(g, &*router, &FaultSet::empty());
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let n = g.num_vertices();
        let mut node_down = vec![false; n];
        let mut link_down = vec![false; edges.len()];
        // Small xorshift so the event sequence is a pure function of the
        // proptest seed (state must be nonzero).
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..steps {
            // Flip a random element: fail it if up, recover it if down —
            // the strict alternation `apply_event` is specified against.
            let (target, failed) = if next() & 1 == 0 {
                let idx = (next() % n as u64) as usize;
                node_down[idx] = !node_down[idx];
                (ChurnTarget::Node(idx as u32), node_down[idx])
            } else {
                let idx = (next() % edges.len() as u64) as usize;
                link_down[idx] = !link_down[idx];
                let (u, v) = edges[idx];
                (ChurnTarget::Link(u, v), link_down[idx])
            };
            masked.apply_event(&ChurnEvent { cycle: step as u64, target, failed });
            for v in 0..n as u32 {
                prop_assert_eq!(masked.node_alive(v), !node_down[v as usize]);
            }
            let fresh = DistanceTable::degraded(g, masked.masks());
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    prop_assert_eq!(
                        masked.distances().distance(u, v),
                        fresh.distance(u, v),
                        "Γ_{d}: {u}→{v} diverges after event {step} ({target:?}, failed={failed})"
                    );
                }
            }
            prop_assert_eq!(masked.distances().epoch(), step as u64 + 1);
        }
    }
}

// The sharded-determinism gates below run every policy combination at
// four thread counts against its serial oracle — each case is ~40
// simulation runs, so the case budget is smaller than the block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_wormhole_is_thread_count_independent(count in 1usize..60, window in 0u64..40, seed in 0u64..10_000, faults in 0usize..4) {
        // The flit-level extension of the sharded-engine determinism
        // gate: under replicated arbitration every lane replays the
        // global wormhole allocation in serial probe order, so one, two,
        // four, or eight shards must produce `SimStats` identical to the
        // serial flit engine — multi-flit packets, multiple virtual
        // channels, healthy and statically faulted, across all five
        // topology families.
        let spec = SwitchingSpec::Wormhole {
            flit_size: 4,
            vcs: 1 + (seed % 3) as u32,
            buf_flits: 1 + (seed % 4) as u32,
        };
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
            &ImplicitFibonacciNet::classical(7),
        ] {
            for fault_spec in [
                FaultSpec::None,
                FaultSpec::Nodes { count: faults.min(topo.len() - 2) },
            ] {
                let run = |t: usize| {
                    let traffic = TrafficSpec::Uniform { count, window };
                    let e = experiment(topo, traffic, seed, 1_000_000).switching(spec.clone());
                    report(e.faults(fault_spec.clone()).threads(t)).stats
                };
                let serial = run(1);
                for t in [2usize, 4, 8] {
                    prop_assert_eq!(
                        &run(t), &serial,
                        "wormhole {} under {} at {t} threads",
                        topo.name(), fault_spec
                    );
                }
            }
        }
        // Load-adaptive routing is the hard case: its next-hop choice
        // reads live link loads, so bit-equality holds only because the
        // sharded commit replay routes against the same mirror state the
        // serial scan saw.
        let net = FibonacciNet::classical(8);
        let run = |t: usize| {
            let traffic = TrafficSpec::Uniform { count, window };
            let e = experiment(&net, traffic, seed, 1_000_000).switching(spec.clone());
            report(e.router(RouterSpec::Adaptive).threads(t)).stats
        };
        let serial = run(1);
        for t in [2usize, 4, 8] {
            prop_assert_eq!(&run(t), &serial, "adaptive wormhole at {} threads", t);
        }
    }

    #[test]
    fn parallel_request_reply_is_thread_count_independent(clients in 1usize..16, seed in 0u64..10_000) {
        // Closed-loop traffic shards by replicating the session machine
        // on every lane (identical RNG streams) and gating packet
        // effects on node ownership — so the sharded run must reproduce
        // the serial one exactly, healthy and under live churn.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
        ] {
            let load = TrafficSpec::RequestReply { clients, think: 3.0, timeout: 64, retries: 2 };
            for faults in [
                FaultSpec::None,
                FaultSpec::Churn { node_rate: 0.005, link_rate: 0.005, mttr: 60.0 },
            ] {
                let run = |t: usize| {
                    let e = experiment(topo, load.clone(), seed, 20_000).faults(faults.clone());
                    report(e.threads(t)).stats
                };
                let serial = run(1);
                for t in [2usize, 4, 8] {
                    prop_assert_eq!(
                        &run(t), &serial,
                        "request/reply on {} under {} at {t} threads",
                        topo.name(), faults
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_collective_is_thread_count_independent(source in 0u32..13, seed in 0u64..10_000, faults in 0usize..4) {
        // Collectives shard too: tree replication spawns copies at the
        // lane owning the spawning node, the personalized exchange runs
        // as sharded unicasts. Reports (stats *and* collective outcome)
        // must be bit-identical at any thread count, healthy and faulted,
        // under both switching models where the grid allows.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Mesh::new(4, 3),
        ] {
            let source = source % topo.len() as u32;
            // Healthy and faulted broadcasts and the personalized exchange
            // through `Experiment` — the full compile-and-dispatch path.
            for (collective, fault_spec, switching) in [
                (
                    CollectiveSpec::Broadcast { source, port: Port::One },
                    FaultSpec::None,
                    SwitchingSpec::StoreAndForward,
                ),
                (
                    CollectiveSpec::Broadcast { source, port: Port::One },
                    FaultSpec::Nodes { count: faults.min(topo.len() - 2) },
                    SwitchingSpec::StoreAndForward,
                ),
                (
                    CollectiveSpec::AllToAllPersonalized,
                    FaultSpec::None,
                    SwitchingSpec::StoreAndForward,
                ),
                (
                    CollectiveSpec::AllToAllPersonalized,
                    FaultSpec::None,
                    SwitchingSpec::Wormhole { flit_size: 4, vcs: 2, buf_flits: 2 },
                ),
            ] {
                let run = |threads: usize| {
                    Experiment::on(topo)
                        .collective(collective.clone())
                        .faults(fault_spec.clone())
                        .switching(switching.clone())
                        .seed(seed)
                        .cycles(1_000_000)
                        .threads(threads)
                        .run()
                        .expect("valid collective configuration")
                };
                let serial = run(1);
                for t in [2usize, 4, 8] {
                    let sharded = run(t);
                    prop_assert_eq!(
                        &sharded.stats, &serial.stats,
                        "{collective} on {} under {switching} at {t} threads",
                        topo.name()
                    );
                    prop_assert_eq!(
                        &sharded.collective, &serial.collective,
                        "{collective} outcome on {} at {t} threads",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn observed_parallel_runs_merge_to_serial_output(count in 1usize..80, window in 0u64..60, seed in 0u64..10_000) {
        // Observer fork/merge exactness: a sharded run gives every lane a
        // fork and folds them back in lane order, and the merged output
        // must equal the serial observer's bit for bit — latency
        // histograms, link heatmaps, and SLO windows alike, on static
        // faults, under churn, and through the flit engine.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Mesh::new(4, 3),
        ] {
            let traffic = TrafficSpec::Uniform { count, window };
            let faults = FaultSpec::Nodes { count: 2.min(topo.len() - 2) };
            let wormhole = SwitchingSpec::Wormhole { flit_size: 4, vcs: 2, buf_flits: 2 };
            let slo = |t: usize| {
                let e = experiment(topo, traffic.clone(), seed, 100_000);
                let churn = FaultSpec::Churn { node_rate: 0.01, link_rate: 0.01, mttr: 40.0 };
                report(e.faults(churn).observe(SloTracker::new(100)).threads(t)).to_json_value()
            };
            let faulted = |t: usize| {
                paired(experiment(topo, traffic.clone(), seed, 1_000_000).faults(faults.clone()), t)
            };
            let flits = |t: usize| {
                let e = experiment(topo, traffic.clone(), seed, 1_000_000);
                paired(e.faults(faults.clone()).switching(wormhole.clone()), t)
            };
            let (faulted_serial, slo_serial, flits_serial) = (faulted(1), slo(1), flits(1));
            for t in [2usize, 4, 8] {
                prop_assert_eq!(&faulted(t), &faulted_serial, "faulted {} at {t} threads", topo.name());
                prop_assert_eq!(&slo(t), &slo_serial, "churned {} at {t} threads", topo.name());
                prop_assert_eq!(&flits(t), &flits_serial, "wormhole {} at {t} threads", topo.name());
            }
        }
    }
}

/// Acceptance criterion of the implicit-routing tentpole, part 1: the
/// table-free [`ImplicitRouter`] agrees with the dense per-node routers
/// on *every* (current, destination) pair of every Γ_d up to d = 12 —
/// the address arithmetic (rank ± weight) must reproduce the flip-row
/// lookup exactly.
#[test]
fn implicit_router_agrees_with_dense_canonical_on_every_gamma_up_to_12() {
    for d in 0..=12usize {
        let net = FibonacciNet::classical(d);
        let dense = CanonicalRouter::for_net(&net);
        let implicit = ImplicitRouter::for_cube(d, 2);
        let n = net.len() as u32;
        for cur in 0..n {
            for dst in 0..n {
                assert_eq!(
                    implicit.next_hop(cur, dst, &NoLoad),
                    dense.next_hop(cur, dst, &NoLoad),
                    "Γ_{d}: {cur}→{dst}"
                );
            }
        }
    }
}

/// … and on every hypercube up to Q_8, where the identity addressing
/// makes the implicit e-cube arm the dense [`EcubeRouter`] itself.
#[test]
fn implicit_router_agrees_with_ecube_on_every_hypercube_up_to_8() {
    for k in 0..=8usize {
        let q = Hypercube::new(k);
        let implicit = ImplicitRouter::ecube();
        let n = q.len() as u32;
        for cur in 0..n {
            for dst in 0..n {
                assert_eq!(
                    implicit.next_hop(cur, dst, &NoLoad),
                    EcubeRouter.next_hop(cur, dst, &NoLoad),
                    "Q_{k}: {cur}→{dst}"
                );
            }
        }
    }
}

/// Acceptance criterion of the implicit-routing tentpole, part 2: a full
/// [`Experiment`] on the lazily-materialised [`ImplicitFibonacciNet`]
/// (implicit canonical routing, streamed CSR) is *packet-for-packet*
/// identical — full `SimStats` equality, histograms included — to the
/// dense-table run on the classic [`FibonacciNet`] at acceptance scale
/// (Γ_16). (The implicit e-cube arm's Q_11 run against the dense router
/// is an in-crate engine test: no `RouterSpec` names it on a hypercube.)
#[test]
fn implicit_experiment_equals_dense_table_run_at_acceptance_scale() {
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

    let implicit_net = ImplicitFibonacciNet::classical(16);
    let dense_net = FibonacciNet::classical(16);
    assert_eq!(implicit_net.graph(), dense_net.graph(), "identical Γ_16");
    let implicit_report = Experiment::on(&implicit_net)
        .traffic(mix.clone())
        .seed(2026)
        .cycles(1_000_000)
        .run()
        .expect("implicit canonical resolves");
    let dense_report = Experiment::on(&dense_net)
        .router(RouterSpec::Canonical)
        .traffic(mix.clone())
        .seed(2026)
        .cycles(1_000_000)
        .run()
        .expect("dense canonical resolves");
    assert_eq!(implicit_report.router, dense_report.router, "same policy");
    assert_eq!(implicit_report.stats, dense_report.stats, "Γ_16");
}

/// Acceptance criterion at full scale: on the Γ_16 / Q_11 pair the arena
/// engine is packet-for-packet identical to the reference engines, with
/// and without faults, on mixed traffic. One deterministic workload per
/// topology (the reference engines are too slow to property-test at this
/// size — the randomized sweep above covers the small topologies).
#[test]
fn arena_engine_equals_reference_on_the_acceptance_pair() {
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
    for topo in [&gamma as &dyn Topology, &q] {
        let pkts = mix.generate(topo.len(), 2026);
        let fast = report(experiment(topo, mix.clone(), 2026, 1_000_000)).stats;
        let slow = simulate_reference(topo, &pkts, 1_000_000);
        assert_eq!(fast, slow, "healthy {}", topo.name());

        let faults = FaultSet::new([1u32, 17, 100, 901], [(0u32, 1u32)]);
        let router = topo.router();
        let e = experiment(topo, mix.clone(), 2026, 1_000_000);
        let fast = report(e.faults(pinned(&faults))).stats;
        let slow = simulate_faulted_reference(topo, &*router, &faults, &pkts, 1_000_000);
        assert_eq!(fast, slow, "faulted {}", topo.name());
        assert_eq!(
            fast.delivered + fast.dropped(),
            fast.offered,
            "uncapped degraded runs conserve packets"
        );
    }
}

/// Malformed spec text is rejected by every parser — the flip side of the
/// round-trip property (which only exercises canonical forms).
#[test]
fn every_spec_parser_rejects_malformed_input() {
    for bad in [
        "",
        "uniform",
        "uniform(count=10",
        "uniform(count=ten,window=5)",
        "uniform(count=10,window=5,extra=1)",
        "warp(count=10)",
        "request_reply(clients=4)",
        "request_reply(clients=4,think=1,timeout=2,retries=nope)",
    ] {
        assert!(bad.parse::<TrafficSpec>().is_err(), "traffic `{bad}`");
    }
    for bad in ["", "ecube3", "e cube", "canonical(x=1)"] {
        assert!(bad.parse::<RouterSpec>().is_err(), "router `{bad}`");
    }
    for bad in [
        "",
        "nodes",
        "nodes(count=-1)",
        "node_list(1,two)",
        "link_list(3)",
        "mix(nodes(count=1)+)",
        "churn(node_rate=0.1)",
        "churn(node_rate=x,link_rate=0,mttr=1)",
    ] {
        assert!(bad.parse::<FaultSpec>().is_err(), "fault `{bad}`");
    }
    for bad in [
        "",
        "broadcast",
        "broadcast(source=x)",
        "broadcast(source=0,port=two)",
        "multicast(source=0)",
        "alltoallp(n=1)",
    ] {
        assert!(bad.parse::<CollectiveSpec>().is_err(), "collective `{bad}`");
    }
    for bad in [
        "",
        "wormhole",
        "store_and_forward(x=1)",
        "wormhole(flit_size=8)",
        "wormhole(flit_size=8,vcs=2,buf_flits=nope)",
        "wormhole(flit_size=8,vcs=2,buf_flits=4,extra=1)",
        "cut_through(flit_size=8)",
    ] {
        assert!(bad.parse::<SwitchingSpec>().is_err(), "switching `{bad}`");
    }
}

/// Per-node delivery census: which destinations received how many
/// packets — the packet-*set* fingerprint the degenerate-equivalence
/// oracle compares across engines.
#[derive(Default)]
struct DeliveryCensus {
    per_node: Vec<u64>,
}

impl SimObserver for DeliveryCensus {
    fn on_deliver(&mut self, _cycle: u64, dst: u32, _latency: u64) {
        if self.per_node.len() <= dst as usize {
            self.per_node.resize(dst as usize + 1, 0);
        }
        self.per_node[dst as usize] += 1;
    }
}

/// Acceptance criterion of the switching tentpole: wormhole switching in
/// its degenerate configuration (one flit per packet, one VC, effectively
/// unbounded buffers) collapses to store-and-forward on the Γ_16 / Q_11
/// acceptance pair.
///
/// Healthy runs use deterministic routers, where pop-time routing
/// (wormhole) and arrival-time routing (store-and-forward) pick identical
/// paths — so full `SimStats` equality holds, histograms included.
#[test]
fn degenerate_wormhole_equals_store_and_forward_on_the_acceptance_pair() {
    let gamma = FibonacciNet::classical(16);
    let q = Hypercube::new(11);
    let degenerate = SwitchingSpec::Wormhole {
        flit_size: PACKET_LENGTH_UNITS,
        vcs: 1,
        buf_flits: 1_000_000,
    };
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
    for topo in [&gamma as &dyn Topology, &q] {
        let pkts = mix.generate(topo.len(), 2026);
        let saf = report(experiment(topo, mix.clone(), 2026, 1_000_000)).stats;
        assert_eq!(saf, simulate_reference(topo, &pkts, 1_000_000));
        let e = experiment(topo, mix.clone(), 2026, 1_000_000);
        let worm = report(e.switching(degenerate.clone())).stats;
        assert_eq!(
            saf,
            worm,
            "healthy degenerate wormhole ≡ SAF on {}",
            topo.name()
        );
        assert_eq!(
            saf.delivered,
            saf.offered,
            "healthy runs drain {}",
            topo.name()
        );
    }
}

/// … and under faults, where the load-aware [`FaultMaskingRouter`] detour
/// rule may legally pick different (equally progressive) links at the two
/// engines' different routing instants, the oracle is the packet-set one:
/// the same packets are delivered to the same destinations with the same
/// typed drops, and both engines' per-packet hop counts equal the
/// degraded-graph distance (every masked hop strictly decreases it, so
/// `Σ hops = Σ distance` forces per-packet equality through the
/// shortest-path lower bound).
#[test]
fn degenerate_wormhole_matches_faulted_packet_set_on_the_acceptance_pair() {
    let gamma = FibonacciNet::classical(16);
    let q = Hypercube::new(11);
    let degenerate = SwitchingSpec::Wormhole {
        flit_size: PACKET_LENGTH_UNITS,
        vcs: 1,
        buf_flits: 1_000_000,
    };
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
    // 60 dead nodes (all ids valid on both Γ_16's 2584 and Q_11's 2048
    // nodes) plus one dead link — enough for the mixed workload to hit
    // dead endpoints and force detours on both topologies.
    let dead_nodes: Vec<u32> = (1..=60u32).map(|i| i * 31).collect();
    let faults = FaultSet::new(dead_nodes, [(0u32, 1u32)]);
    for topo in [&gamma as &dyn Topology, &q] {
        let pkts = mix.generate(topo.len(), 2026);
        let degraded = || experiment(topo, mix.clone(), 2026, 1_000_000).faults(pinned(&faults));

        let mut saf_census = DeliveryCensus::default();
        let saf = report(degraded().observe(&mut saf_census)).stats;
        let mut worm_census = DeliveryCensus::default();
        let e = degraded().switching(degenerate.clone());
        let worm = report(e.observe(&mut worm_census)).stats;

        assert!(
            saf.dropped() > 0,
            "the fault set must bite on {}",
            topo.name()
        );
        assert_eq!(saf.offered, worm.offered, "{}", topo.name());
        assert_eq!(saf.delivered, worm.delivered, "{}", topo.name());
        assert_eq!(
            saf.dropped_dead_endpoint,
            worm.dropped_dead_endpoint,
            "{}",
            topo.name()
        );
        assert_eq!(
            saf.dropped_unreachable,
            worm.dropped_unreachable,
            "{}",
            topo.name()
        );
        assert_eq!(
            saf_census.per_node,
            worm_census.per_node,
            "same packet set delivered on {}",
            topo.name()
        );

        // Hop oracle: every surviving packet takes exactly its
        // degraded-graph distance in both engines.
        let masks = faults.masks(topo.graph());
        let dist = DistanceTable::degraded(topo.graph(), &masks);
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
        assert_eq!(saf.total_hops, expected, "SAF hops on {}", topo.name());
        assert_eq!(
            worm.total_hops,
            expected,
            "wormhole hops on {}",
            topo.name()
        );
    }
}
