//! Bench: the store-and-forward simulator (experiment E-N4) — the
//! active-set engine, run through `Experiment` (traffic generation and
//! router resolution included), vs the seed's full-scan reference engine
//! across topologies under uniform load, and one large-scale
//! sweep-shaped run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fibcube_network::{
    simulate_reference, Experiment, FibonacciNet, Hypercube, Mesh, Topology, TrafficSpec,
};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    let topos: Vec<Box<dyn Topology>> = vec![
        Box::new(FibonacciNet::classical(10)),
        Box::new(Hypercube::new(7)),
        Box::new(Mesh::new(12, 12)),
    ];
    let traffic = TrafficSpec::Uniform {
        count: 5_000,
        window: 1_000,
    };
    for t in &topos {
        let pkts = traffic.generate(t.len(), 11);
        group.bench_function(BenchmarkId::new("active_set", t.name()), |b| {
            // The one door: traffic generation + router resolution +
            // engine; the no-op observer monomorphizes away.
            b.iter(|| {
                let report = Experiment::on(t.as_ref())
                    .traffic(traffic.clone())
                    .seed(11)
                    .cycles(1_000_000)
                    .run()
                    .expect("preferred router resolves");
                assert_eq!(report.stats.delivered, report.stats.offered);
                std::hint::black_box(report.stats.mean_latency)
            })
        });
        group.bench_function(BenchmarkId::new("reference", t.name()), |b| {
            b.iter(|| {
                let s = simulate_reference(t.as_ref(), &pkts, 1_000_000);
                assert_eq!(s.delivered, s.offered);
                std::hint::black_box(s.mean_latency)
            })
        });
    }
    group.finish();
}

fn bench_simulator_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator_large");
    group.sample_size(10);
    // The acceptance-scale pair: Γ_16 (2584 nodes) vs Q_11 (2048 nodes).
    let gamma = FibonacciNet::classical(16);
    let q = Hypercube::new(11);
    for t in [&gamma as &dyn Topology, &q] {
        let traffic = TrafficSpec::Bernoulli {
            rate: 0.05,
            cycles: 400,
        };
        group.bench_function(BenchmarkId::new("bernoulli_0.05", t.name()), |b| {
            b.iter(|| {
                let s = Experiment::on(t)
                    .traffic(traffic.clone())
                    .seed(3)
                    .cycles(100_000)
                    .run()
                    .expect("preferred router resolves")
                    .stats;
                assert_eq!(s.delivered, s.offered);
                std::hint::black_box(s.mean_latency)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_simulator_large);
criterion_main!(benches);
