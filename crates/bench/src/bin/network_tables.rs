//! Regenerates the `[ICPP93]`-style interconnection evaluation
//! (experiments E-N1…E-N6): order/size tables, routing validation,
//! broadcast rounds, traffic simulation, Hamiltonicity, fault tolerance.
//!
//! `cargo run --release -p fibcube-bench --bin network_tables`

use fibcube_bench::header;
use fibcube_network::broadcast::{broadcast_all_port, broadcast_one_port};
use fibcube_network::fault::{fault_sweep, FaultSpec};
use fibcube_network::hamilton::{hamiltonian_path, verify_hamiltonian, HamiltonResult};
use fibcube_network::metrics::metrics;
use fibcube_network::{
    CollectiveSpec, Experiment, FibonacciNet, Hypercube, Mesh, Port, Ring, Topology, TrafficSpec,
};

fn main() {
    header("E-N1 — orders of Q_d(1^k) are the k-bonacci numbers");
    println!("{:>3} {:>10} {:>10} {:>10}", "d", "k=2", "k=3", "k=4");
    for d in 1..=20usize {
        let row: Vec<u128> = (2..=4)
            .map(|k| fibcube_words::zeckendorf::count_k_free(k, d))
            .collect();
        println!("{d:>3} {:>10} {:>10} {:>10}", row[0], row[1], row[2]);
        if d <= 12 {
            for (k, &expected) in (2..=4).zip(&row) {
                assert_eq!(FibonacciNet::new(d, k).len() as u128, expected);
            }
        }
    }

    header("E-N1 — static figures of merit (comparable orders)");
    let gamma = FibonacciNet::classical(8);
    let g3 = FibonacciNet::new(7, 3);
    let q = Hypercube::new(6);
    let mesh = Mesh::new(7, 8);
    let ring = Ring::new(55);
    let topos: Vec<&(dyn Topology + Sync)> = vec![&gamma, &g3, &q, &mesh, &ring];
    println!(
        "{:<10} {:>6} {:>7} {:>8} {:>9} {:>10} {:>6}",
        "network", "nodes", "links", "deg", "diameter", "avg dist", "cost"
    );
    for t in &topos {
        let m = metrics(*t).expect("benchmark topologies fit the table budget");
        println!(
            "{:<10} {:>6} {:>7} {:>8} {:>9} {:>10.3} {:>6}",
            m.name,
            m.nodes,
            m.links,
            format!("{}–{}", m.min_degree, m.max_degree),
            m.diameter,
            m.average_distance,
            m.cost
        );
    }

    header("E-N2 — distributed routing = BFS shortest paths (full validation)");
    for t in &topos {
        let dist = fibcube_graph::distance_matrix(t.graph());
        let mut checked = 0usize;
        for s in 0..t.len() as u32 {
            for d in 0..t.len() as u32 {
                assert_eq!(
                    t.route(s, d).expect("routing converges").len() as u32 - 1,
                    dist[s as usize][d as usize]
                );
                checked += 1;
            }
        }
        println!("{:<10} all {checked} pairs optimal ✓", t.name());
    }

    header("E-N3 — one-to-all broadcast rounds from node 0 (static vs live)");
    println!(
        "{:<10} {:>14} {:>14} {:>10} {:>14}",
        "network", "all-port", "one-port", "⌈log2 n⌉", "live one-port"
    );
    for t in &topos {
        let ap = broadcast_all_port(*t, 0).expect("shipped topologies are connected");
        let op = broadcast_one_port(*t, 0).expect("shipped topologies are connected");
        let floor = (t.len() as f64).log2().ceil() as u32;
        // The live collective path must reproduce the static schedule's
        // round count exactly on the healthy network.
        let live = Experiment::on(*t)
            .collective(CollectiveSpec::Broadcast {
                source: 0,
                port: Port::One,
            })
            .run()
            .expect("healthy broadcast runs everywhere");
        let outcome = live.collective.expect("collective outcome");
        assert_eq!(outcome.completion_cycles, op.rounds as u64, "{}", t.name());
        assert_eq!(outcome.reached, t.len() - 1, "{}", t.name());
        println!(
            "{:<10} {:>14} {:>14} {:>10} {:>14}",
            t.name(),
            ap.rounds,
            op.rounds,
            floor,
            outcome.completion_cycles
        );
    }

    header("E-N4 — simulated traffic (uniform / hot-spot, 2000 packets)");
    println!(
        "{:<10} {:>12} {:>9} {:>14} {:>11}",
        "network", "uni mean", "uni p99", "hotspot mean", "hotspot p99"
    );
    for t in &topos {
        let run = |traffic: TrafficSpec, seed: u64| {
            Experiment::on(*t)
                .traffic(traffic)
                .seed(seed)
                .cycles(500_000)
                .run()
                .expect("preferred router resolves on every topology")
                .stats
        };
        let uni = run(
            TrafficSpec::Uniform {
                count: 2000,
                window: 400,
            },
            1,
        );
        let hot = run(
            TrafficSpec::HotSpot {
                count: 2000,
                window: 400,
                hot_fraction: 0.3,
            },
            2,
        );
        assert_eq!(uni.delivered, uni.offered);
        assert_eq!(hot.delivered, hot.offered);
        println!(
            "{:<10} {:>12.2} {:>9} {:>14.2} {:>11}",
            t.name(),
            uni.mean_latency,
            uni.p99_latency,
            hot.mean_latency,
            hot.p99_latency
        );
    }

    header("E-N5 — Hamiltonian paths (\"mostly Hamiltonian\")");
    for d in 2..=8usize {
        let net = FibonacciNet::classical(d);
        let res = hamiltonian_path(net.graph());
        let found = match &res {
            HamiltonResult::Found(p) => {
                assert!(verify_hamiltonian(net.graph(), p, false));
                true
            }
            _ => false,
        };
        println!("Γ_{d} ({} nodes): Hamiltonian path: {}", net.len(), found);
        assert!(found);
    }

    header("E-N6 — fault tolerance (reachable-pair fraction, 8 trials)");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "network", "k=1", "k=2", "k=5", "k=8"
    );
    for t in &topos {
        let rows = fault_sweep(*t, &[1, 2, 5, 8], 8).expect("valid fault counts and trials");
        let cell = |i: usize| {
            rows[i]
                .mean_reachable_fraction
                .map_or_else(|| "n/a".to_string(), |x| format!("{x:.4}"))
        };
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>8}",
            t.name(),
            cell(0),
            cell(1),
            cell(2),
            cell(3)
        );
    }

    header("E-N6b — live traffic on the degraded network (5 node faults, mean of 3 fault draws)");
    println!(
        "{:<10} {:>10} {:>9} {:>12} {:>12}",
        "network", "delivered", "dropped", "deliv frac", "mean lat"
    );
    for t in &topos {
        // One batch per topology: the seeds vary both the traffic stream
        // and the (decorrelated) fault placement, run in parallel with
        // reports back in seed order.
        let seeds = [3u64, 4, 5];
        let reports = Experiment::on(*t)
            .traffic(TrafficSpec::Uniform {
                count: 2000,
                window: 400,
            })
            .faults(FaultSpec::Nodes { count: 5 })
            .run_batch(&seeds)
            .expect("uniform traffic under node faults runs everywhere");
        for report in &reports {
            let s = &report.stats;
            assert_eq!(
                s.delivered + s.dropped(),
                s.offered,
                "{}: uncapped degraded runs deliver or typed-drop everything",
                t.name()
            );
        }
        let m = reports.len() as f64;
        let delivered = reports
            .iter()
            .map(|r| r.stats.delivered as f64)
            .sum::<f64>()
            / m;
        let dropped = reports
            .iter()
            .map(|r| r.stats.dropped() as f64)
            .sum::<f64>()
            / m;
        let offered = reports[0].stats.offered as f64;
        let mean_lat = reports.iter().map(|r| r.stats.mean_latency).sum::<f64>() / m;
        println!(
            "{:<10} {:>10.0} {:>9.0} {:>11.1}% {:>12.2}",
            t.name(),
            delivered,
            dropped,
            100.0 * delivered / offered,
            mean_lat
        );
    }
    println!("\nShape: the Fibonacci cubes sit between hypercube and mesh on every");
    println!("dynamic metric while using fewer links per node than the hypercube —");
    println!("the qualitative claim of the interconnection-network papers.");
}
