//! The traced run: per-layer metrics, measured from outside the library
//! by timing calls into each layer's public functions on the workload's
//! own generated inputs, with a span around every call.
//!
//! The fault and distance layers (`fault.*`, `dist.*`,
//! `router.masked_ns_per_hop`) are measured on the workload's own
//! network when it has churn, and otherwise on the `churn_closed_loop`
//! configuration's network, built inside every pass, so every workload
//! reports them. Other metrics a workload does not exercise report 0
//! (for example `router.implicit_ns_per_hop` on the dense network).

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use fibcube_graph::csr::CsrGraph;
use fibcube_network::arena::FlitQueues;
use fibcube_network::{
    ChurnTimeline, DistanceTable, ExperimentError, FaultMaskingRouter, FaultSet, FaultSpec,
    FibonacciNet, LinkQueues, NoLoad, PacketSlab, Report, Router, RouterSpec, SloTracker,
    SwitchingSpec, Topology, TrafficSpec, PACKET_LENGTH_UNITS,
};

use crate::host::{self, Counters};
use crate::trace::Tracer;
use crate::workload::{self, Addressed, Fingerprint, Net, Size, Specs, Workload};
use crate::{median, Metric, Outcome};

/// Packet pairs routed through the fault-masking router when the
/// workload is closed-loop and has no packet list of its own, and on the
/// side network of a workload without faults.
const MASKED_REPLAY_PAIRS: usize = 100_000;

/// Window of the `SloTracker` attached to measure the observer's cost on
/// a workload that runs without one (the closed-loop workload's window).
const SLO_PROBE_WINDOW: u64 = 500;

/// Packet pairs replayed through the adaptive router when the workload
/// routes otherwise: enough for a steady per-hop figure, few enough that
/// its `O(degree · d)` hop does not dominate the pass at 317,811 nodes.
const ADAPTIVE_REPLAY_PAIRS: usize = 20_000;

/// One recorded routing step: at `cur` heading for `dst`, the router
/// chose `next`.
#[derive(Clone, Copy)]
struct Hop {
    cur: u32,
    dst: u32,
    next: u32,
}

/// Walks every pair's route through `router`, recording each step.
/// Pairs the router cannot route (`reachable` false) are skipped.
fn record_routes(
    router: &dyn Router,
    pairs: impl Iterator<Item = (u32, u32)>,
    reachable: impl Fn(u32, u32) -> bool,
) -> Vec<Hop> {
    let mut hops = Vec::new();
    for (src, dst) in pairs {
        if !reachable(src, dst) {
            continue;
        }
        let mut cur = src;
        while let Some(next) = router.next_hop(cur, dst, &NoLoad) {
            hops.push(Hop { cur, dst, next });
            cur = next;
        }
    }
    hops
}

/// Replays the recorded decisions through `router`; ns per call.
fn time_routes(router: &dyn Router, hops: &[Hop]) -> f64 {
    let t = Instant::now();
    let mut sum = 0u64;
    for h in hops {
        sum += u64::from(
            router
                .next_hop(black_box(h.cur), h.dst, &NoLoad)
                .unwrap_or(0),
        );
    }
    black_box(sum);
    per(t, hops.len())
}

fn per(t: Instant, ops: usize) -> f64 {
    t.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// Directed-edge id of each recorded hop.
fn edge_ids(g: &CsrGraph, hops: &[Hop]) -> Vec<usize> {
    hops.iter()
        .map(|h| g.edge_range(h.cur).start + g.slot_of(h.cur, h.next).expect("hop is a link"))
        .collect()
}

/// `CsrGraph::slot_of` per recorded hop; ns per lookup.
fn time_slot_lookup(g: &CsrGraph, hops: &[Hop]) -> f64 {
    let t = Instant::now();
    let mut sum = 0usize;
    for h in hops {
        sum += g.slot_of(black_box(h.cur), h.next).unwrap_or(0);
    }
    black_box(sum);
    per(t, hops.len())
}

/// One push and one pop per hop on the hop's link: occupancy stays in
/// the ring; ns per queue operation.
fn time_link_ring(links: usize, edges: &[usize]) -> f64 {
    let mut q = LinkQueues::new(links);
    let t = Instant::now();
    for (i, &e) in edges.iter().enumerate() {
        q.push(e, i as u32);
        black_box(q.pop(e));
    }
    per(t, 2 * edges.len())
}

/// Queue depth pushed per link in the spill measurement, twice the ring
/// stride, so half of every burst goes through the spill list.
const SPILL_DEPTH: u32 = 8;

/// Bursts of `SPILL_DEPTH` pushes then pops on each hop's link: the
/// backlog regime of a congested hub; ns per queue operation.
fn time_link_spill(links: usize, edges: &[usize]) -> f64 {
    let mut q = LinkQueues::new(links);
    let t = Instant::now();
    for &e in edges {
        for k in 0..SPILL_DEPTH {
            q.push(e, k);
        }
        for _ in 0..SPILL_DEPTH {
            black_box(q.pop(e));
        }
    }
    per(t, 2 * SPILL_DEPTH as usize * edges.len())
}

/// A packet's flits pushed then popped through one virtual-channel
/// buffer of each hop's link; ns per flit operation.
fn time_flits(links: usize, vcs: usize, flits: u32, edges: &[usize]) -> f64 {
    let mut q = FlitQueues::new(links, vcs);
    let t = Instant::now();
    for (i, &e) in edges.iter().enumerate() {
        let b = e * vcs + i % vcs;
        for f in 0..flits {
            q.push(b, u64::from(f));
        }
        for _ in 0..flits {
            black_box(q.pop(b));
        }
    }
    per(t, 2 * flits as usize * edges.len())
}

/// Admits every packet, records its hops, and retires it; ns per slab
/// operation.
fn time_slab(pairs: &[(u32, u32)], hops_per_packet: &[u32]) -> f64 {
    let mut slab = PacketSlab::new();
    let t = Instant::now();
    let mut ops = 0usize;
    let mut live = Vec::with_capacity(256);
    for (i, (&(_, dst), &hops)) in pairs.iter().zip(hops_per_packet).enumerate() {
        let id = slab.alloc(dst, i as u64);
        for _ in 0..hops {
            slab.record_hop(id);
        }
        live.push(id);
        ops += 1 + hops as usize;
        // Retire in batches so ids recycle through the freelist, as in
        // a run where packets deliver while others inject.
        if live.len() == live.capacity() {
            for id in live.drain(..) {
                slab.release(id);
                ops += 1;
            }
        }
    }
    black_box(slab.live());
    per(t, ops)
}

/// What the fault and distance layers cost on one network.
struct FaultLayers {
    timeline_s: f64,
    events: usize,
    degraded_s: f64,
    repair_ns_per_event: f64,
    /// ns per `FaultMaskingRouter::next_hop` on the network as the
    /// timeline leaves it.
    masked_ns: f64,
    /// The masked routes' recorded decisions.
    hops: Vec<Hop>,
}

/// The churn timeline of `faults` over `horizon` cycles, the degraded
/// distance table, its incremental repair per event, and the masked
/// router's next hop on `pairs`. `None` when `faults` is not churn.
fn fault_layers(
    tr: &mut Tracer,
    g: &CsrGraph,
    router: &dyn Router,
    pairs: &[(u32, u32)],
    faults: &FaultSpec,
    horizon: u64,
    seed: u64,
) -> Option<FaultLayers> {
    let FaultSpec::Churn {
        node_rate,
        link_rate,
        mttr,
    } = *faults
    else {
        return None;
    };
    let (timeline, timeline_s) = tr.span("fault.timeline", |_| {
        ChurnTimeline::generate(g, node_rate, link_rate, mttr, seed, horizon)
    });
    let (_, degraded_s) = tr.span("dist.degraded_build", |_| {
        black_box(DistanceTable::degraded(g, &FaultSet::empty().masks(g)))
    });
    let mut masked = FaultMaskingRouter::new(g, router, &FaultSet::empty());
    let (_, repair_s) = tr.span("dist.repair", |_| {
        for ev in timeline.events() {
            masked.apply_event(ev);
        }
    });
    let hops = record_routes(&masked, pairs.iter().copied(), |s, t| {
        masked.reachable(s, t)
    });
    let (masked_ns, _) = tr.span("router.masked_next_hop", |_| time_routes(&masked, &hops));
    Some(FaultLayers {
        timeline_s,
        events: timeline.len(),
        degraded_s,
        repair_ns_per_event: repair_s * 1e9 / timeline.len().max(1) as f64,
        masked_ns,
        hops,
    })
}

/// The fault layers of a workload without faults, measured on the
/// network, router, churn and horizon of the `churn_closed_loop`
/// configuration at `size`, with uniform packet pairs drawn from `seed`.
fn side_fault_layers(
    tr: &mut Tracer,
    size: Size,
    seed: u64,
    tally: &mut Tally,
) -> Option<FaultLayers> {
    let w = Workload::named("churn_closed_loop", size).expect("a defined workload");
    let (specs, Net::Dense(d), Some(horizon)) = (w.specs(), w.net, w.cycles) else {
        unreachable!("churn_closed_loop is a dense network with a cycle cap")
    };
    let specs = match specs {
        Ok(s) => s,
        Err(e) => {
            tally.errors.push(e);
            return None;
        }
    };
    let (net, _) = tr.span("fault.side_net", |_| {
        workload::build_topology::<FibonacciNet>(d)
    });
    let router = match specs.router.resolve(&net) {
        Ok(r) => r,
        Err(e) => {
            tally.fail(e);
            return None;
        }
    };
    let pairs: Vec<(u32, u32)> = TrafficSpec::Uniform {
        count: MASKED_REPLAY_PAIRS,
        window: 1,
    }
    .generate(net.len(), seed)
    .iter()
    .map(|p| (p.src, p.dst))
    .collect();
    fault_layers(
        tr,
        net.graph(),
        &*router,
        &pairs,
        &specs.faults,
        horizon,
        seed,
    )
}

/// Runs attempted and failed, and every error seen, over a traced run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    /// Counts one `Experiment::run` and passes its report on, recording
    /// the error if it failed.
    fn run<R>(&mut self, result: Result<R, ExperimentError>) -> Option<R> {
        self.attempted += 1;
        result.map_err(|e| self.fail(e)).ok()
    }

    fn fail(&mut self, e: ExperimentError) {
        self.failed += 1;
        self.errors.push(format!("ExperimentError: {e}"));
    }
}

/// One timed `Experiment::run`, checked; returns the report and seconds.
#[allow(clippy::too_many_arguments)]
fn run_checked<T: Addressed>(
    topo: &T,
    w: &Workload,
    specs: &Specs,
    size: Size,
    seed: u64,
    lanes: usize,
    slo: Option<&mut SloTracker>,
    min_hops: Option<u64>,
    tally: &mut Tally,
) -> Option<(Report, f64, Counters)> {
    let before = Counters::now();
    let t = Instant::now();
    let result = workload::run_once(topo, w, specs, seed, lanes, slo);
    let secs = t.elapsed().as_secs_f64();
    let counters = Counters::now().since(&before);
    let report = tally.run(result)?;
    let fp = Fingerprint::of(&report.stats);
    crate::check(w, specs, size, seed, &fp, min_hops, &mut tally.errors);
    Some((report, secs, counters))
}

/// The thread-independence oracle: a run's statistics must not depend on
/// its lane count.
fn check_lanes(a: &Report, b: &Report, tally: &mut Tally) {
    if a.stats != b.stats {
        tally.errors.push(format!(
            "1 lane and 2 lanes differ:\n  {}\n  {}",
            Fingerprint::of(&a.stats),
            Fingerprint::of(&b.stats)
        ));
    }
}

#[allow(clippy::too_many_arguments)]
fn pass<T: Addressed>(
    tr: &mut Tracer,
    w: &Workload,
    specs: &Specs,
    d: usize,
    seed: u64,
    size: Size,
    tally: &mut Tally,
) -> Option<Vec<Metric>> {
    let mut m: Vec<Metric> = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| m.push((name, value, unit));

    let mut build_times = Vec::new();
    let (topo, _) = tr.span("setup", |_| crate::set_up::<T>(d, 3, 0.0, &mut build_times));
    push("topology.build_s", median(&build_times), "s");
    push("topology.rss_mb", host::rss_mb(), "MiB");
    // The implicit network's constructor is O(d); its link graph is
    // streamed from the codec on first use.
    let implicit = matches!(w.net, Net::Implicit(_));
    let graph_build_s = if implicit {
        let fresh = T::build(d);
        let (_, secs) = tr.span("implicit.graph_build", |_| {
            black_box(fresh.graph().num_directed_edges())
        });
        secs
    } else {
        0.0
    };
    push("implicit.graph_build_s", graph_build_s, "s");
    let g = topo.graph();
    let n = topo.len();
    let links = g.num_directed_edges();

    // traffic: the open-loop packet list the experiment generates.
    let (packets, generate_s) = tr.span("traffic.generate", |_| {
        (!w.closed_loop()).then(|| specs.traffic.generate(n, seed))
    });
    push(
        "traffic.generate_s",
        if w.closed_loop() { 0.0 } else { generate_s },
        "s",
    );
    let pairs: Vec<(u32, u32)> = match &packets {
        Some(p) => p.iter().map(|p| (p.src, p.dst)).collect(),
        None => TrafficSpec::Uniform {
            count: MASKED_REPLAY_PAIRS,
            window: 1,
        }
        .generate(n, seed)
        .iter()
        .map(|p| (p.src, p.dst))
        .collect(),
    };
    let min_hops = packets
        .as_ref()
        .map(|_| workload::distance_sum(&topo, pairs.iter().copied()));

    // router: resolve, then replay every packet's route decisions.
    let (router, resolve_s) = tr.span("router.resolve", |_| specs.router.resolve(&topo));
    let router = match router {
        Ok(r) => r,
        Err(e) => {
            tally.fail(e);
            return None;
        }
    };
    push("router.resolve_s", resolve_s, "s");

    // engine: the same run untraced, then traced. It runs before the
    // layer replays so that the first pass's peak RSS is the run's own.
    let mut slo = w.slo_window.map(SloTracker::new);
    let (base, base_s, _) = run_checked(
        &topo,
        w,
        specs,
        size,
        seed,
        w.lanes,
        slo.as_mut(),
        min_hops,
        tally,
    )?;
    let mut slo = w.slo_window.map(SloTracker::new);
    let (traced, (run_s, counters)) = {
        let (out, _) = tr.span("engine.run", |_| {
            run_checked(
                &topo,
                w,
                specs,
                size,
                seed,
                w.lanes,
                slo.as_mut(),
                min_hops,
                tally,
            )
        });
        let (report, secs, counters) = out?;
        (report, (secs, counters))
    };
    if traced.stats != base.stats {
        tally
            .errors
            .push("traced run differs from the untraced run".to_string());
    }
    let engine_peak_rss_mb = host::peak_rss_mb();

    // fault / dist: the churn timeline, the degraded distance table and
    // its incremental repair per event; the masked router then routes on
    // the network as the timeline leaves it. A workload with churn
    // replays its own pairs through the masked router, the router its
    // run uses; any other measures the layers on the side network.
    // Churn runs always have a cycle cap; `fault_layers` reads the
    // horizon only for churn.
    let horizon = w.cycles.unwrap_or(0);
    let own = fault_layers(tr, g, &*router, &pairs, &specs.faults, horizon, seed);
    let (faults, hops, route_ns) = match own {
        Some(mut f) => {
            let hops = std::mem::take(&mut f.hops);
            let ns = f.masked_ns;
            (f, hops, ns)
        }
        None => {
            // The side network's recorded routes are not replayed.
            let mut f = side_fault_layers(tr, size, seed, tally)?;
            f.hops = Vec::new();
            let hops = record_routes(&*router, pairs.iter().copied(), |_, _| true);
            let (ns, _) = tr.span("router.next_hop", |_| time_routes(&*router, &hops));
            (f, hops, ns)
        }
    };
    push("fault.timeline_s", faults.timeline_s, "s");
    push("fault.events", faults.events as f64, "count");
    push("dist.degraded_build_s", faults.degraded_s, "s");
    push("dist.repair_ns_per_event", faults.repair_ns_per_event, "ns");
    push("router.route_calls", hops.len() as f64, "count");
    let adaptive = specs.router == RouterSpec::Adaptive;
    push(
        "router.implicit_ns_per_hop",
        if implicit && !adaptive { route_ns } else { 0.0 },
        "ns",
    );
    // The load-aware adaptive router on the workload's packet pairs,
    // replayed when the workload routes otherwise, so its per-hop cost is
    // measured on every network.
    let adaptive_ns = if adaptive {
        route_ns
    } else {
        let Ok(adaptive_router) = RouterSpec::Adaptive.resolve(&topo) else {
            tally
                .errors
                .push("adaptive routing does not resolve".to_string());
            return None;
        };
        let sample = pairs.iter().take(ADAPTIVE_REPLAY_PAIRS).copied();
        let hops = record_routes(&*adaptive_router, sample, |_, _| true);
        let (ns, _) = tr.span("router.adaptive_next_hop", |_| {
            time_routes(&*adaptive_router, &hops)
        });
        ns
    };
    push("router.adaptive_ns_per_hop", adaptive_ns, "ns");
    push("router.masked_ns_per_hop", faults.masked_ns, "ns");

    // graph: the edge lookup the engine makes for every hop.
    let (slot_ns, _) = tr.span("graph.slot_of", |_| time_slot_lookup(g, &hops));
    push("graph.slot_lookup_ns_per_hop", slot_ns, "ns");

    // arena: queue regimes over the hops' own links, the slab, and the
    // per-run allocation of the link queues.
    let edges = edge_ids(g, &hops);
    let (ring_ns, _) = tr.span("arena.link_ring", |_| time_link_ring(links, &edges));
    let (spill_ns, _) = tr.span("arena.link_spill", |_| time_link_spill(links, &edges));
    let (vcs, flits) = match specs.switching {
        SwitchingSpec::Wormhole { vcs, .. } => (vcs as usize, specs.switching.flits_per_packet()),
        SwitchingSpec::StoreAndForward => (2, PACKET_LENGTH_UNITS / 8),
    };
    let (flit_ns, _) = tr.span("arena.flit", |_| time_flits(links, vcs, flits, &edges));
    let mut hops_per_packet = vec![0u32; pairs.len()];
    if packets.is_some() {
        for (h, (s, t)) in hops_per_packet.iter_mut().zip(&pairs) {
            *h = topo.address(*s).hamming(&topo.address(*t));
        }
    }
    let (slab_ns, _) = tr.span("arena.slab", |_| time_slab(&pairs, &hops_per_packet));
    let before = Counters::now();
    let (_, alloc_s) = tr.span("arena.alloc", |_| {
        let mut q = LinkQueues::new(links);
        for e in 0..links {
            q.push(e, e as u32);
        }
        black_box(q.load(links / 2));
    });
    let alloc = Counters::now().since(&before);
    push("arena.link_ring_ns_per_op", ring_ns, "ns");
    push("arena.link_spill_ns_per_op", spill_ns, "ns");
    push("arena.flit_ns_per_op", flit_ns, "ns");
    push("arena.slab_ns_per_op", slab_ns, "ns");
    push("arena.alloc_s", alloc_s, "s");
    push("arena.alloc_minflt", alloc.minflt as f64, "count");
    drop(edges);
    drop(hops);

    let fp = Fingerprint::of(&traced.stats);
    let ns_per_hop = run_s * 1e9 / fp.total_hops.max(1) as f64;
    let queue_ns = if specs.switching.is_wormhole() {
        2.0 * f64::from(flits) * flit_ns
    } else {
        2.0 * ring_ns
    };
    push("engine.run_s", run_s, "s");
    push("engine.ns_per_hop", ns_per_hop, "ns");
    push(
        "engine.ns_per_cycle",
        run_s * 1e9 / fp.makespan.max(1) as f64,
        "ns",
    );
    push(
        "engine.self_ns_per_hop",
        ns_per_hop - route_ns - slot_ns - queue_ns,
        "ns",
    );
    push("engine.route_ns_per_hop", route_ns, "ns");
    push("engine.queue_ns_per_hop", queue_ns, "ns");
    push("engine.minflt", counters.minflt as f64, "count");
    push("engine.sys_s", counters.sys_s, "s");
    push("engine.runq_wait_s", counters.runq_wait_s, "s");
    push("engine.sim_cycles", fp.makespan as f64, "count");
    push("engine.hops", fp.total_hops as f64, "count");
    push("engine.peak_rss_mb", engine_peak_rss_mb, "MiB");
    push("trace.overhead_s", run_s - base_s, "s");

    // engine::parallel: the workload on one lane and on two, which must
    // be bit-identical. The run already traced is one of the pair.
    let (lane1_s, lane2_s) = if w.lanes > 1 {
        let (out, _) = tr.span("parallel.lane1", |_| {
            run_checked(&topo, w, specs, size, seed, 1, None, min_hops, tally)
        });
        let (other, secs, _) = out?;
        check_lanes(&traced, &other, tally);
        (secs, run_s)
    } else {
        // An owned tracker, so that each lane can fork it.
        let (out, secs) = tr.span("parallel.lane2", |_| match w.slo_window {
            Some(window) => {
                workload::run_observed(&topo, w, specs, seed, 2, SloTracker::new(window))
            }
            None => workload::run_once(&topo, w, specs, seed, 2, None),
        });
        check_lanes(&traced, &tally.run(out)?, tally);
        (run_s, secs)
    };
    push("parallel.lane1_run_s", lane1_s, "s");
    push("parallel.speedup_2v1", lane1_s / lane2_s, "ratio");
    push(
        "parallel.overhead_ns_per_cycle",
        (lane2_s - lane1_s / 2.0) * 1e9 / fp.makespan.max(1) as f64,
        "ns",
    );

    // observer: the SloTracker's cost against the no-op observer. A
    // workload that runs without one gets one attached for this run.
    let (other, other_s) = if w.slo_window.is_some() {
        let (out, _) = tr.span("observer.noop_run", |_| {
            run_checked(&topo, w, specs, size, seed, w.lanes, None, min_hops, tally)
        });
        let (report, secs, _) = out?;
        (report, secs)
    } else {
        // Owned, so that each lane of a sharded run can fork it.
        let slo = SloTracker::new(SLO_PROBE_WINDOW);
        let (out, secs) = tr.span("observer.slo_run", |_| {
            workload::run_observed(&topo, w, specs, seed, w.lanes, slo)
        });
        (tally.run(out)?, secs)
    };
    if other.stats != traced.stats {
        tally
            .errors
            .push("the SloTracker changed the simulated statistics".to_string());
    }
    let slo_overhead_s = if w.slo_window.is_some() {
        run_s - other_s
    } else {
        other_s - run_s
    };
    push("observer.slo_overhead_s", slo_overhead_s, "s");

    // engine: the fixed per-run cost. The same uniform load at half the
    // packet count (and window) puts a line through two points of
    // run time against hops; its intercept is what a run costs before
    // it moves a packet.
    if let TrafficSpec::Uniform { count, window } = specs.traffic {
        let half = Specs {
            traffic: TrafficSpec::Uniform {
                count: count / 2,
                window: window / 2,
            },
            ..specs.clone()
        };
        let (out, half_s) = tr.span("engine.half_run", |_| {
            workload::run_once(&topo, w, &half, seed, w.lanes, None)
        });
        let report = tally.run(out)?;
        let hfp = Fingerprint::of(&report.stats);
        let half_min = crate::open_loop_min_hops(&topo, w, &half, seed);
        tally
            .errors
            .extend(workload::check_oracles(w, &half, &hfp, half_min));
        let slope = (run_s - half_s) / (fp.total_hops - hfp.total_hops).max(1) as f64;
        push(
            "engine.fixed_cost_s",
            run_s - slope * fp.total_hops as f64,
            "s",
        );
    } else {
        push("engine.fixed_cost_s", 0.0, "s");
    }

    // report: JSON rendering of the run's report.
    let (json, to_json_s) = tr.span("report.to_json", |_| traced.to_json());
    black_box(json.len());
    push("report.to_json_s", to_json_s, "s");
    Some(m)
}

/// The traced run: repeated passes until `seconds` elapse (at least
/// one), each metric reported as the median over passes.
pub fn traced<T: Addressed>(
    w: &Workload,
    specs: &Specs,
    d: usize,
    seed: u64,
    size: Size,
    seconds: f64,
) -> Outcome {
    let mut tr = Tracer::new(w.name);
    let mut tally = Tally::default();
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        tr.set_pass(passes.len());
        let (p, _) = tr.span("pass", |tr| {
            pass::<T>(tr, w, specs, d, seed, size, &mut tally)
        });
        match p {
            Some(p) if tally.errors.is_empty() => passes.push(p),
            _ => break,
        }
    }
    let path = PathBuf::from("perfbench/out").join(format!("trace-{}-{seed}.jsonl", w.name));
    match tr.write(&path) {
        Ok(()) => println!("# spans: {} written to {}", tr.len(), path.display()),
        Err(e) => tally
            .errors
            .push(format!("writing {}: {e}", path.display())),
    }
    let mut metrics: Vec<Metric> = match passes.first() {
        Some(first) => first
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                let values: Vec<f64> = passes.iter().map(|p| p[i].1).collect();
                (name, median(&values), unit)
            })
            .collect(),
        None => Vec::new(),
    };
    // Resident memory only grows over a process's life, so the memory
    // figures come from the first pass, before later passes add theirs.
    for (name, value, _) in metrics.iter_mut() {
        if *name == "topology.rss_mb" || *name == "engine.peak_rss_mb" {
            if let Some(first) = passes[0].iter().find(|m| m.0 == *name) {
                *value = first.1;
            }
        }
    }
    Outcome {
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        printed: Vec::new(),
    }
}
