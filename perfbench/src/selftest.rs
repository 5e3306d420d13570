//! Self-test of the benchmark on the tiny size of every workload:
//! pinned fingerprints, the oracles' ability to reject a wrong output,
//! the sharded run's thread independence, and the `fail_frac`
//! arithmetic. `perfbench/selftest.py` checks the printed schema.

use fibcube_network::{FibonacciNet, ImplicitFibonacciNet, SloTracker, Topology};

use crate::workload::{
    self, check_oracles, fail_frac, failed_packets, Addressed, Fingerprint, Net, Size, Workload,
    NAMES,
};
use crate::{check, open_loop_min_hops, DEFAULT_SEED};

fn tiny(name: &str) -> Workload {
    Workload::named(name, Size::Tiny).expect("known workload")
}

/// Runs `w` once at `seed` on `lanes` lanes; returns its fingerprint and
/// the shortest-path sum of its packet list.
fn run<T: Addressed>(
    w: &Workload,
    d: usize,
    seed: u64,
    lanes: usize,
) -> (Fingerprint, Option<u64>) {
    let specs = w.specs().expect("spec strings parse");
    let topo = workload::build_topology::<T>(d);
    let mut slo = w.slo_window.map(SloTracker::new);
    let report = workload::run_once(&topo, w, &specs, seed, lanes, slo.as_mut())
        .expect("tiny workloads run");
    (
        Fingerprint::of(&report.stats),
        open_loop_min_hops(&topo, w, &specs, seed),
    )
}

fn run_any(w: &Workload, seed: u64, lanes: usize) -> (Fingerprint, Option<u64>) {
    match w.net {
        Net::Implicit(d) => run::<ImplicitFibonacciNet>(w, d, seed, lanes),
        Net::Dense(d) => run::<FibonacciNet>(w, d, seed, lanes),
    }
}

fn errors(w: &Workload, seed: u64, fp: &Fingerprint, min_hops: Option<u64>) -> Vec<String> {
    let specs = w.specs().expect("spec strings parse");
    let mut errors = Vec::new();
    check(w, &specs, Size::Tiny, seed, fp, min_hops, &mut errors);
    errors
}

#[test]
fn every_workload_matches_its_pin_and_oracles() {
    for name in NAMES {
        let w = tiny(name);
        let (fp, min_hops) = run_any(&w, DEFAULT_SEED, w.lanes);
        assert!(
            workload::pinned(&w, Size::Tiny, DEFAULT_SEED).is_some(),
            "{name} has a pin"
        );
        assert_eq!(
            errors(&w, DEFAULT_SEED, &fp, min_hops),
            Vec::<String>::new(),
            "{name}"
        );
    }
}

#[test]
fn unpinned_seeds_pass_the_oracles() {
    for name in NAMES {
        let w = tiny(name);
        for seed in [1, 7] {
            let (fp, min_hops) = run_any(&w, seed, w.lanes);
            assert_eq!(
                errors(&w, seed, &fp, min_hops),
                Vec::<String>::new(),
                "{name}@{seed}"
            );
        }
    }
}

#[test]
fn a_changed_statistic_is_rejected() {
    for name in NAMES {
        let w = tiny(name);
        let (fp, min_hops) = run_any(&w, DEFAULT_SEED, w.lanes);
        let mutants = [
            Fingerprint {
                total_hops: fp.total_hops + 1,
                ..fp
            },
            Fingerprint {
                makespan: fp.makespan + 1,
                ..fp
            },
            Fingerprint {
                delivered: fp.delivered - 1,
                ..fp
            },
            Fingerprint {
                dropped_retries_exhausted: fp.dropped_retries_exhausted + 1,
                ..fp
            },
            Fingerprint {
                p99_latency: fp.p99_latency + 1,
                ..fp
            },
        ];
        for m in mutants {
            assert!(
                !errors(&w, DEFAULT_SEED, &m, min_hops).is_empty(),
                "{name}: {m}"
            );
        }
    }
}

#[test]
fn the_shortest_path_oracle_needs_no_pin() {
    // At a seed with no pin, an open-loop store-and-forward run is still
    // held to hops == shortest-path sum.
    let w = tiny("scale_uniform");
    let specs = w.specs().expect("spec strings parse");
    let (fp, min_hops) = run_any(&w, 11, 1);
    let wrong = Fingerprint {
        total_hops: fp.total_hops + 2,
        ..fp
    };
    assert!(check_oracles(&w, &specs, &fp, min_hops).is_empty());
    assert!(!check_oracles(&w, &specs, &wrong, min_hops).is_empty());
}

#[test]
fn sharded_run_is_bit_identical_to_one_lane() {
    let w = tiny("scale_sharded");
    let Net::Implicit(d) = w.net else {
        panic!("scale_sharded runs on the implicit network")
    };
    let specs = w.specs().expect("spec strings parse");
    let topo = ImplicitFibonacciNet::classical(d);
    assert!(topo.len() > 1);
    let one = workload::run_once(&topo, &w, &specs, DEFAULT_SEED, 1, None).expect("runs");
    let two = workload::run_once(&topo, &w, &specs, DEFAULT_SEED, 2, None).expect("runs");
    assert_eq!(one.stats, two.stats);
}

#[test]
fn fail_frac_counts_stranded_open_loop_packets_only() {
    let stranded = Fingerprint {
        offered: 70_000,
        delivered: 62_099,
        total_hops: 398_821,
        makespan: 4_919,
        p99_latency: 1_136,
        ..Fingerprint::default()
    };
    let open = tiny("wormhole_hotspot");
    assert_eq!(failed_packets(&open, &stranded), 7_901);
    assert!((fail_frac(7_901, 70_000) - 0.112_871_428_571_428_57).abs() < 1e-15);

    // Modelled drops are outcomes, not failures.
    let dropped = Fingerprint {
        offered: 100,
        delivered: 90,
        dropped_link_died: 4,
        dropped_retries_exhausted: 6,
        ..Fingerprint::default()
    };
    assert_eq!(failed_packets(&open, &dropped), 0);

    // A closed loop's transactions open at the horizon are not failures.
    let closed = tiny("churn_closed_loop");
    let in_flight = Fingerprint {
        offered: 7_963,
        delivered: 7_921,
        ..Fingerprint::default()
    };
    assert_eq!(failed_packets(&closed, &in_flight), 0);
    assert_eq!(fail_frac(0, 0), 0.0);
}
