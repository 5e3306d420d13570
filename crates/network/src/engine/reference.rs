//! The seed's original full-scan engines, kept verbatim as behavioural
//! oracles: the property tests compare the arena engines against them
//! packet for packet, and the sweep binary measures speedups over them.

use std::collections::VecDeque;

use crate::fault::FaultSet;
use crate::router::{FaultMaskingRouter, LinkLoad, Router};
use crate::topology::Topology;
use crate::traffic::Packet;

use super::stats::{SimStats, StatsAcc};

/// The reference engines' per-packet record (the arena engine keeps this
/// state in the [`PacketSlab`](crate::arena::PacketSlab) columns
/// instead).
#[derive(Clone, Debug)]
struct InFlight {
    dst: u32,
    inject_time: u64,
}

/// The seed's original engine, kept verbatim as a behavioural oracle and
/// speedup baseline: scans every node every cycle and binary-searches the
/// neighbor list on every hop, routing through `Topology::next_hop`.
pub fn simulate_reference(
    topology: &dyn Topology,
    packets: &[Packet],
    max_cycles: u64,
) -> SimStats {
    let n = topology.len();
    let graph = topology.graph();
    let mut queues: Vec<Vec<VecDeque<InFlight>>> = (0..n)
        .map(|u| vec![VecDeque::new(); graph.degree(u as u32)])
        .collect();
    let mut inj: Vec<&Packet> = packets.iter().collect();
    inj.sort_by_key(|p| p.inject_time);
    let mut next_inject = 0usize;

    let slot_of = |u: u32, v: u32| -> usize {
        graph
            .neighbors(u)
            .binary_search(&v)
            .expect("next_hop must return a neighbor")
    };

    let mut acc = StatsAcc::for_network(n);
    let mut in_flight = 0usize;

    let mut cycle: u64 = 0;
    while cycle < max_cycles {
        while next_inject < inj.len() && inj[next_inject].inject_time <= cycle {
            let p = inj[next_inject];
            next_inject += 1;
            if p.src == p.dst {
                acc.deliver_instant();
                continue;
            }
            let hop = topology.next_hop(p.src, p.dst).expect("src ≠ dst");
            queues[p.src as usize][slot_of(p.src, hop)].push_back(InFlight {
                dst: p.dst,
                inject_time: p.inject_time,
            });
            in_flight += 1;
        }
        if in_flight == 0 && next_inject >= inj.len() {
            break;
        }
        let mut arrivals: Vec<(u32, InFlight)> = Vec::new();
        for u in 0..n as u32 {
            for (slot, &v) in graph.neighbors(u).iter().enumerate() {
                if let Some(pkt) = queues[u as usize][slot].pop_front() {
                    arrivals.push((v, pkt));
                    acc.total_hops += 1;
                }
            }
        }
        let now = cycle + 1;
        for (node, pkt) in arrivals {
            if node == pkt.dst {
                in_flight -= 1;
                acc.deliver(now, pkt.inject_time);
            } else {
                let hop = topology.next_hop(node, pkt.dst).expect("progressive");
                queues[node as usize][slot_of(node, hop)].push_back(pkt);
            }
        }
        cycle += 1;
    }

    acc.finish(packets.len())
}

/// Full-scan oracle for **degraded** runs, mirroring
/// [`simulate_reference`]: the same admission rules (dead or disconnected
/// endpoints become typed drops at injection) and the same
/// [`FaultMaskingRouter`] policy as a degraded
/// [`Experiment`](crate::Experiment) run, but run through the
/// seed-style engine — per-node `VecDeque`s, every node scanned every
/// cycle, routing consulted per hop with the live queue lengths. A test
/// harness, far too slow for experiments: the property tests compare the
/// arena engine against it packet for packet.
pub fn simulate_faulted_reference(
    topology: &dyn Topology,
    router: &dyn Router,
    faults: &FaultSet,
    packets: &[Packet],
    max_cycles: u64,
) -> SimStats {
    let n = topology.len();
    let graph = topology.graph();
    let masked = FaultMaskingRouter::new(graph, &router, faults);
    let mut queues: Vec<Vec<VecDeque<InFlight>>> = (0..n)
        .map(|u| vec![VecDeque::new(); graph.degree(u as u32)])
        .collect();
    let mut inj: Vec<&Packet> = packets.iter().collect();
    inj.sort_by_key(|p| p.inject_time);
    let mut next_inject = 0usize;

    struct RefLoad<'a> {
        queues: &'a [VecDeque<InFlight>],
    }
    impl LinkLoad for RefLoad<'_> {
        fn load(&self, slot: usize) -> usize {
            self.queues[slot].len()
        }
    }
    let route = |queues: &mut Vec<Vec<VecDeque<InFlight>>>, node: u32, pkt: InFlight| {
        let hop = {
            let load = RefLoad {
                queues: &queues[node as usize],
            };
            masked
                .next_hop(node, pkt.dst, &load)
                .expect("routing a packet not yet at dst")
        };
        let slot = graph
            .slot_of(node, hop)
            .expect("next_hop must return a neighbor");
        queues[node as usize][slot].push_back(pkt);
    };

    let mut acc = StatsAcc::for_network(n);
    let mut in_flight = 0usize;

    let mut cycle: u64 = 0;
    while cycle < max_cycles {
        while next_inject < inj.len() && inj[next_inject].inject_time <= cycle {
            let p = inj[next_inject];
            next_inject += 1;
            if !masked.node_alive(p.src) || !masked.node_alive(p.dst) {
                acc.dropped_dead_endpoint += 1;
                continue;
            }
            if p.src != p.dst && !masked.reachable(p.src, p.dst) {
                acc.dropped_unreachable += 1;
                continue;
            }
            if p.src == p.dst {
                acc.deliver_instant();
                continue;
            }
            route(
                &mut queues,
                p.src,
                InFlight {
                    dst: p.dst,
                    inject_time: p.inject_time,
                },
            );
            in_flight += 1;
        }
        if in_flight == 0 && next_inject >= inj.len() {
            break;
        }
        let mut arrivals: Vec<(u32, InFlight)> = Vec::new();
        for u in 0..n as u32 {
            for (slot, &v) in graph.neighbors(u).iter().enumerate() {
                if let Some(pkt) = queues[u as usize][slot].pop_front() {
                    arrivals.push((v, pkt));
                    acc.total_hops += 1;
                }
            }
        }
        let now = cycle + 1;
        for (node, pkt) in arrivals {
            if node == pkt.dst {
                in_flight -= 1;
                acc.deliver(now, pkt.inject_time);
            } else {
                route(&mut queues, node, pkt);
            }
        }
        cycle += 1;
    }

    acc.finish(packets.len())
}
