//! Experiments E-N1…E-N6: the interconnection-network layer end to end.

use fibcube::network::broadcast::{broadcast_all_port, broadcast_one_port, verify_schedule};
use fibcube::network::fault::{fault_sweep, FaultError};
use fibcube::network::hamilton::{hamiltonian_path, verify_hamiltonian, HamiltonResult};
use fibcube::network::metrics::metrics;
use fibcube::network::{DeliveryTracker, Mesh};
use fibcube::prelude::*;

#[test]
fn orders_follow_kbonacci_and_zeckendorf_addressing_roundtrips() {
    for k in 2..=4usize {
        for d in 1..=11usize {
            let net = FibonacciNet::new(d, k);
            assert_eq!(
                net.len() as u128,
                fibcube::words::zeckendorf::count_k_free(k, d),
                "order k={k} d={d}"
            );
            // Node i ↔ k-Zeckendorf code i.
            for i in 0..net.len() as u32 {
                let w = net.label(i);
                assert_eq!(
                    fibcube::words::zeckendorf::kzeckendorf_decode(k, &w),
                    Some(i as u128),
                    "address of node {i}"
                );
            }
        }
    }
}

#[test]
fn distributed_routing_is_bfs_shortest_on_all_topologies() {
    let topos: Vec<Box<dyn Topology>> = vec![
        Box::new(FibonacciNet::classical(8)),
        Box::new(FibonacciNet::new(7, 3)),
        Box::new(Hypercube::new(5)),
        Box::new(fibcube::network::Ring::new(11)),
        Box::new(Mesh::new(5, 4)),
    ];
    for t in &topos {
        let dist = fibcube::graph::distance_matrix(t.graph());
        for s in 0..t.len() as u32 {
            for d in 0..t.len() as u32 {
                let route = t.route(s, d).expect("routing converges");
                assert_eq!(
                    route.len() as u32 - 1,
                    dist[s as usize][d as usize],
                    "{} {s}→{d}",
                    t.name()
                );
            }
        }
    }
}

#[test]
fn simulator_delivers_everything_on_every_topology() {
    let topos: Vec<Box<dyn Topology>> = vec![
        Box::new(FibonacciNet::classical(9)),
        Box::new(Hypercube::new(6)),
        Box::new(Mesh::new(8, 8)),
    ];
    for t in &topos {
        for spec in [
            "uniform(count=1500,window=300)",
            "hotspot(count=800,window=300,hot=0.25)",
            "complement(window=10)",
        ] {
            let traffic: TrafficSpec = spec.parse().expect("scenario specs parse");
            let report = Experiment::on(t.as_ref())
                .traffic(traffic)
                .seed(99)
                .cycles(500_000)
                .run()
                .expect("preferred router resolves everywhere");
            let stats = &report.stats;
            assert_eq!(stats.delivered, stats.offered, "{} {spec}", t.name());
            assert!(stats.mean_latency >= 1.0, "{} {spec}", t.name());
        }
    }
}

#[test]
fn experiment_api_round_trips_through_the_facade() {
    // The facade prelude carries the whole experiment surface: build a
    // scenario from text, attach observers, get a JSON report.
    use fibcube::network::{LatencyHistogram, LinkHeatmap};
    let net = FibonacciNet::classical(9);
    let mut hist = LatencyHistogram::new();
    let mut heat = LinkHeatmap::new();
    let report = Experiment::on(&net)
        .router("adaptive".parse::<RouterSpec>().unwrap())
        .traffic(
            "uniform(count=1000,window=200)"
                .parse::<TrafficSpec>()
                .unwrap(),
        )
        .seed(13)
        .observe((&mut hist, &mut heat))
        .run()
        .expect("adaptive routing on Γ_9");
    assert_eq!(report.stats.delivered, 1000);
    assert_eq!(hist.delivered(), 1000);
    assert_eq!(heat.total_hops(), report.stats.total_hops);
    assert_eq!(hist.histogram(), &report.stats.latency_histogram[..]);
    let json = report.to_json();
    assert!(json.contains("\"topology\": \"Γ_9\""));
    assert!(json.contains("\"router\": \"adaptive\""));

    // Capability errors surface as typed values through `?`.
    let err = Experiment::on(&net)
        .router(RouterSpec::Ecube)
        .run()
        .expect_err("no e-cube routing on a Fibonacci net");
    assert!(err.to_string().contains("e-cube"), "{err}");
}

#[test]
fn latency_ordering_matches_topology_quality() {
    // Uniform traffic: hypercube ≤ fibonacci < mesh < ring (comparable n).
    let gamma = FibonacciNet::classical(8); // 55
    let q = Hypercube::new(6); // 64
    let mesh = Mesh::new(7, 8); // 56
    let ring = fibcube::network::Ring::new(55);
    let lat = |t: &dyn Topology| {
        Experiment::on(t)
            .traffic(TrafficSpec::Uniform {
                count: 1200,
                window: 600,
            })
            .seed(4242)
            .cycles(500_000)
            .run()
            .expect("preferred router resolves everywhere")
            .stats
            .mean_latency
    };
    let (lg, lq, lm, lr) = (lat(&gamma), lat(&q), lat(&mesh), lat(&ring));
    assert!(lq <= lg + 0.5, "hypercube {lq} ≲ fibonacci {lg}");
    assert!(lg < lm, "fibonacci {lg} < mesh {lm}");
    assert!(lm < lr, "mesh {lm} < ring {lr}");
}

#[test]
fn broadcast_bounds_hold() {
    let net = FibonacciNet::classical(8);
    let zero = net.node_of(&fibcube::words::Word::zeros(8)).unwrap();
    let ap = broadcast_all_port(&net, zero).expect("Γ_8 is connected");
    assert!(verify_schedule(&net, &ap, false));
    assert_eq!(ap.rounds, 4, "ecc(0^8) = ⌈8/2⌉");
    let op = broadcast_one_port(&net, zero).expect("Γ_8 is connected");
    assert!(verify_schedule(&net, &op, true));
    let floor = (net.len() as f64).log2().ceil() as u32;
    assert!(op.rounds >= floor && op.rounds <= 8 + 2);
}

#[test]
fn collectives_run_live_through_the_facade() {
    // Broadcast as a simulated workload reproduces the static schedule,
    // and its spec round-trips through text like every other spec.
    let net = FibonacciNet::classical(8);
    let spec: CollectiveSpec = "broadcast(source=0,port=one)".parse().unwrap();
    assert_eq!(spec.to_string(), "broadcast(source=0,port=one)");
    let report = Experiment::on(&net)
        .collective(spec)
        .run()
        .expect("healthy broadcast runs");
    let op = broadcast_one_port(&net, 0).unwrap();
    let outcome = report.collective.expect("collective outcome");
    assert_eq!(outcome.completion_cycles, op.rounds as u64);
    assert_eq!(outcome.reached, net.len() - 1);
    assert_eq!(report.stats.delivered, report.stats.offered);
}

#[test]
fn fibonacci_cubes_have_hamiltonian_paths_through_d8() {
    for d in 1..=8usize {
        let net = FibonacciNet::classical(d);
        match hamiltonian_path(net.graph()) {
            HamiltonResult::Found(p) => {
                assert!(verify_hamiltonian(net.graph(), &p, false), "d={d}")
            }
            other => panic!("Γ_{d} must have a Hamiltonian path, got {other:?}"),
        }
    }
}

#[test]
fn metrics_shape_vs_hypercube() {
    // E-N1's qualitative claims on the metric table.
    let gamma = metrics(&FibonacciNet::classical(8)).unwrap();
    let q = metrics(&Hypercube::new(6)).unwrap();
    assert!(gamma.nodes < q.nodes);
    assert!((gamma.links as f64 / gamma.nodes as f64) < (q.links as f64 / q.nodes as f64));
    assert!(gamma.average_distance < 1.25 * q.average_distance);
    assert_eq!(gamma.diameter, 8);
}

#[test]
fn fault_tolerance_shape() {
    // Cubes degrade gracefully; rings shatter.
    let gamma = FibonacciNet::classical(8);
    let ring = fibcube::network::Ring::new(55);
    let g_rows = fault_sweep(&gamma, &[2, 5], 6).expect("valid sweep");
    let r_rows = fault_sweep(&ring, &[2, 5], 6).expect("valid sweep");
    let frac = |rows: &[fibcube::network::FaultSweepRow], i: usize| {
        rows[i]
            .mean_reachable_fraction
            .expect("survivor pairs exist")
    };
    assert!(frac(&g_rows, 0) > frac(&r_rows, 0), "Γ beats ring at k=2");
    assert!(frac(&g_rows, 1) > frac(&r_rows, 1), "Γ beats ring at k=5");
    assert!(
        frac(&g_rows, 1) > 0.9,
        "Γ_8 keeps >90% pairs after 5 faults"
    );
    // Hardened edge cases stay typed errors end to end.
    assert!(matches!(
        fault_sweep(&gamma, &[2], 0),
        Err(FaultError::ZeroTrials)
    ));
    assert!(fault_sweep(&gamma, &[gamma.len()], 3).is_err());
}

#[test]
fn fault_aware_experiment_on_the_acceptance_topology() {
    // Acceptance: a FaultSpec experiment on Γ_16 completes with
    // delivered + dropped + in-flight packet conservation, and the
    // zero-fault path is packet-for-packet identical to the healthy
    // engine.
    let gamma = FibonacciNet::classical(16);
    let traffic: TrafficSpec = "uniform(count=2000,window=400)".parse().unwrap();

    let healthy = Experiment::on(&gamma)
        .traffic(traffic.clone())
        .seed(9)
        .run()
        .expect("healthy run");
    let zero_fault = Experiment::on(&gamma)
        .traffic(traffic.clone())
        .faults("nodes(count=0)".parse::<FaultSpec>().unwrap())
        .seed(9)
        .run()
        .expect("zero-fault run");
    assert_eq!(zero_fault.stats, healthy.stats, "zero faults ≡ healthy");

    let mut tracker = DeliveryTracker::new();
    let degraded = Experiment::on(&gamma)
        .traffic(traffic)
        .faults(
            "mix(nodes(count=120)+links(count=40))"
                .parse::<FaultSpec>()
                .unwrap(),
        )
        .seed(9)
        .observe(&mut tracker)
        .run()
        .expect("degraded run");
    let s = &degraded.stats;
    assert_eq!(
        s.delivered + s.dropped(),
        s.offered,
        "uncapped: every packet delivered or typed-dropped"
    );
    assert!(s.dropped_dead_endpoint > 0, "120 dead nodes must show up");
    assert!(s.delivered > 0, "survivors still communicate");
    assert!(
        s.delivered < healthy.stats.delivered,
        "faults cost throughput"
    );
    // Observer and engine agree on every packet's fate.
    assert_eq!(tracker.injected() as usize, s.offered);
    assert_eq!(tracker.delivered() as usize, s.delivered);
    assert_eq!(tracker.dropped() as usize, s.dropped());
    assert_eq!(tracker.in_flight(), 0);
    // The report is self-describing about the scenario.
    assert_eq!(degraded.failed_nodes, 120);
    let json = degraded.to_json();
    assert!(json.contains("\"faults\": \"mix(nodes(count=120)+links(count=40))\""));
}
