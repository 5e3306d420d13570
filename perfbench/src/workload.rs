//! The four benchmark workloads: their spec strings, how one run is
//! executed through the public `Experiment` API, the simulated-output
//! fingerprint, and the oracles every run is checked against.

use std::fmt;

use fibcube_network::{
    Experiment, ExperimentError, FaultSpec, FibonacciNet, ImplicitFibonacciNet, NoopObserver,
    Report, RouterSpec, SimObserver, SimStats, SloTracker, SwitchingSpec, Topology, TrafficSpec,
};
use fibcube_words::word::Word;

/// Workload sizes: `Full` is what the benchmark times, `Tiny` runs the
/// same four configurations in milliseconds for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// How the network is represented: the implicit Zeckendorf network
/// (routes by address arithmetic) or the dense one (precomputed
/// canonical-path table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    Implicit(usize),
    Dense(usize),
}

/// One workload, as the spec strings a user would pass.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub net: Net,
    pub router: &'static str,
    pub switching: &'static str,
    pub traffic: String,
    pub faults: &'static str,
    /// Cycle cap; `None` runs until drained.
    pub cycles: Option<u64>,
    pub lanes: usize,
    /// Window of the attached `SloTracker`, when one is attached.
    pub slo_window: Option<u64>,
}

pub const NAMES: [&str; 4] = [
    "scale_uniform",
    "scale_sharded",
    "wormhole_hotspot",
    "churn_closed_loop",
];

impl Workload {
    pub fn named(name: &str, size: Size) -> Option<Workload> {
        let full = size == Size::Full;
        let w = match name {
            "scale_uniform" => Workload {
                name: "scale_uniform",
                net: Net::Implicit(if full { 26 } else { 12 }),
                router: "preferred",
                switching: "store_and_forward",
                traffic: if full {
                    "uniform(count=200000,window=8000)"
                } else {
                    "uniform(count=2000,window=80)"
                }
                .to_string(),
                faults: "none",
                cycles: None,
                lanes: 1,
                slo_window: None,
            },
            "scale_sharded" => Workload {
                name: "scale_sharded",
                lanes: 2,
                traffic: if full {
                    "uniform(count=200000,window=2000)"
                } else {
                    "uniform(count=2000,window=20)"
                }
                .to_string(),
                ..Workload::named("scale_uniform", size)?
            },
            "wormhole_hotspot" => Workload {
                name: "wormhole_hotspot",
                net: Net::Dense(if full { 16 } else { 10 }),
                router: "adaptive",
                switching: "wormhole(flit_size=8,vcs=2,buf_flits=4)",
                traffic: if full {
                    "hotspot(count=70000,window=4000,hot=0.2)"
                } else {
                    "hotspot(count=1400,window=80,hot=0.2)"
                }
                .to_string(),
                faults: "none",
                cycles: Some(4_000_000),
                lanes: 1,
                slo_window: None,
            },
            "churn_closed_loop" => Workload {
                name: "churn_closed_loop",
                net: Net::Dense(if full { 16 } else { 10 }),
                router: "preferred",
                switching: "store_and_forward",
                traffic: if full {
                    "request_reply(clients=2000,think=4,timeout=64,retries=3)"
                } else {
                    "request_reply(clients=60,think=4,timeout=64,retries=3)"
                }
                .to_string(),
                faults: "churn(node_rate=0.0002,link_rate=0.001,mttr=200)",
                cycles: Some(if full { 20_000 } else { 2_000 }),
                lanes: 1,
                slo_window: Some(500),
            },
            _ => return None,
        };
        Some(w)
    }

    /// Open-loop workloads inject a fixed packet list; the closed loop
    /// issues requests only as replies come back.
    pub fn closed_loop(&self) -> bool {
        self.traffic.starts_with("request_reply")
    }

    /// Parses the spec strings through the library's `FromStr`
    /// implementations, so a spec the library rejects fails up front.
    pub fn specs(&self) -> Result<Specs, String> {
        let err = |e: &dyn fmt::Display| e.to_string();
        Ok(Specs {
            router: self.router.parse::<RouterSpec>().map_err(|e| err(&e))?,
            switching: self
                .switching
                .parse::<SwitchingSpec>()
                .map_err(|e| err(&e))?,
            traffic: self.traffic.parse::<TrafficSpec>().map_err(|e| err(&e))?,
            faults: self.faults.parse::<FaultSpec>().map_err(|e| err(&e))?,
        })
    }

    /// One line describing the configuration, printed with each result.
    pub fn describe(&self) -> String {
        let net = match self.net {
            Net::Implicit(d) => format!("ImplicitFibonacciNet::classical({d})"),
            Net::Dense(d) => format!("FibonacciNet::classical({d})"),
        };
        let cycles = self.cycles.map_or("none".to_string(), |c| c.to_string());
        let load = if self.closed_loop() { "closed" } else { "open" };
        format!(
            "net={net} router={} switching={} traffic={} faults={} cycles={cycles} lanes={} \
             slo_window={:?} loop={load}",
            self.router, self.switching, self.traffic, self.faults, self.lanes, self.slo_window
        )
    }
}

/// The parsed form of a workload's spec strings.
#[derive(Clone, Debug)]
pub struct Specs {
    pub router: RouterSpec,
    pub switching: SwitchingSpec,
    pub traffic: TrafficSpec,
    pub faults: FaultSpec,
}

/// A topology whose node addresses are binary words, so the benchmark
/// can compute shortest-path distances (Hamming distance, by
/// isometry into the hypercube) without asking the router.
pub trait Addressed: Topology + Sized {
    fn build(d: usize) -> Self;
    fn address(&self, v: u32) -> Word;
}

impl Addressed for ImplicitFibonacciNet {
    fn build(d: usize) -> Self {
        ImplicitFibonacciNet::classical(d)
    }
    fn address(&self, v: u32) -> Word {
        self.label(v)
    }
}

impl Addressed for FibonacciNet {
    fn build(d: usize) -> Self {
        FibonacciNet::classical(d)
    }
    fn address(&self, v: u32) -> Word {
        self.label(v)
    }
}

/// Builds the topology the way a user pays for it before a run: the
/// constructor plus the link graph.
pub fn build_topology<T: Addressed>(d: usize) -> T {
    let topo = T::build(d);
    std::hint::black_box(topo.graph().num_directed_edges());
    topo
}

/// Runs the workload once through `Experiment::run` with `lanes` lanes,
/// with `slo` attached as the observer when given. A borrowed observer
/// cannot fork across lanes, so this serves single-lane runs and runs
/// without an observer.
pub fn run_once<T: Topology>(
    topo: &T,
    w: &Workload,
    specs: &Specs,
    seed: u64,
    lanes: usize,
    slo: Option<&mut SloTracker>,
) -> Result<Report, ExperimentError> {
    match slo {
        Some(slo) => run_observed(topo, w, specs, seed, lanes, slo),
        None => run_observed(topo, w, specs, seed, lanes, NoopObserver),
    }
}

/// Runs the workload once with `observer` attached.
pub fn run_observed<T: Topology, O: SimObserver + Send>(
    topo: &T,
    w: &Workload,
    specs: &Specs,
    seed: u64,
    lanes: usize,
    observer: O,
) -> Result<Report, ExperimentError> {
    let mut e = Experiment::on(topo)
        .router(specs.router)
        .switching(specs.switching.clone())
        .traffic(specs.traffic.clone())
        .faults(specs.faults.clone())
        .seed(seed)
        .threads(lanes);
    if let Some(c) = w.cycles {
        e = e.cycles(c);
    }
    e.observe(observer).run()
}

/// The simulated statistics a run is identified by. Simulated time is
/// deterministic in (workload, seed), so any change here means the
/// program simulated something different.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub offered: usize,
    pub delivered: usize,
    pub dropped_dead_endpoint: usize,
    pub dropped_unreachable: usize,
    pub dropped_link_died: usize,
    pub dropped_node_died: usize,
    pub dropped_retries_exhausted: usize,
    pub total_hops: u64,
    pub makespan: u64,
    pub p99_latency: u64,
}

impl Fingerprint {
    pub fn of(s: &SimStats) -> Fingerprint {
        Fingerprint {
            offered: s.offered,
            delivered: s.delivered,
            dropped_dead_endpoint: s.dropped_dead_endpoint,
            dropped_unreachable: s.dropped_unreachable,
            dropped_link_died: s.dropped_link_died,
            dropped_node_died: s.dropped_node_died,
            dropped_retries_exhausted: s.dropped_retries_exhausted,
            total_hops: s.total_hops,
            makespan: s.makespan,
            p99_latency: s.p99_latency,
        }
    }

    pub fn dropped(&self) -> usize {
        self.dropped_dead_endpoint
            + self.dropped_unreachable
            + self.dropped_link_died
            + self.dropped_node_died
            + self.dropped_retries_exhausted
    }

    /// Packets (transactions, for the closed loop) neither delivered nor
    /// dropped for a modelled reason when the run ended. `None` when the
    /// counts do not add up, which no correct run produces.
    pub fn unfinished(&self) -> Option<usize> {
        self.offered.checked_sub(self.delivered + self.dropped())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offered={} delivered={} dropped(dead_endpoint={},unreachable={},link_died={},\
             node_died={},retries_exhausted={}) total_hops={} makespan={} p99={}",
            self.offered,
            self.delivered,
            self.dropped_dead_endpoint,
            self.dropped_unreachable,
            self.dropped_link_died,
            self.dropped_node_died,
            self.dropped_retries_exhausted,
            self.total_hops,
            self.makespan,
            self.p99_latency
        )
    }
}

/// Packet-granularity failures of one run: an open-loop packet fails
/// when the run ends with it neither delivered nor dropped for a
/// modelled reason. Modelled drops are outcomes, not failures, and a
/// closed loop's requests still in flight at its horizon are where the
/// horizon cut the sessions, so a closed loop never fails a packet.
pub fn failed_packets(w: &Workload, fp: &Fingerprint) -> usize {
    if w.closed_loop() {
        0
    } else {
        fp.unfinished().unwrap_or(fp.offered)
    }
}

/// `failed / offered`, 0 for an empty run.
pub fn fail_frac(failed: usize, offered: usize) -> f64 {
    if offered == 0 {
        0.0
    } else {
        failed as f64 / offered as f64
    }
}

/// Builds a pinned fingerprint from `[offered, delivered, dropped
/// dead-endpoint, unreachable, link-died, node-died, retries-exhausted,
/// total hops, makespan, p99]`.
const fn pin(v: [u64; 10]) -> Fingerprint {
    Fingerprint {
        offered: v[0] as usize,
        delivered: v[1] as usize,
        dropped_dead_endpoint: v[2] as usize,
        dropped_unreachable: v[3] as usize,
        dropped_link_died: v[4] as usize,
        dropped_node_died: v[5] as usize,
        dropped_retries_exhausted: v[6] as usize,
        total_hops: v[7],
        makespan: v[8],
        p99_latency: v[9],
    }
}

/// Fingerprints pinned from the program for every instance of the
/// default seed: `(workload, size, instance, fingerprint)`. A run of one
/// of these must reproduce its fingerprint exactly. Instance 0 of
/// `wormhole_hotspot` strands 7,901 of 70,000 packets in the adaptive
/// wormhole deadlock; a change that removes the deadlock changes these
/// pins.
const PINNED: &[(&str, Size, u64, Fingerprint)] = &[
    (
        "scale_uniform",
        Size::Full,
        0,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_098_636, 8_015, 30]),
    ),
    (
        "scale_uniform",
        Size::Full,
        1,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_097_200, 8_016, 30]),
    ),
    (
        "scale_uniform",
        Size::Full,
        2,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_098_049, 8_014, 30]),
    ),
    (
        "scale_uniform",
        Size::Full,
        3,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_096_696, 8_015, 30]),
    ),
    (
        "scale_uniform",
        Size::Full,
        4,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_096_349, 8_016, 30]),
    ),
    (
        "scale_uniform",
        Size::Full,
        5,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_097_972, 8_021, 30]),
    ),
    (
        "scale_uniform",
        Size::Full,
        6,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_098_167, 8_016, 30]),
    ),
    (
        "scale_uniform",
        Size::Full,
        7,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_095_983, 8_015, 30]),
    ),
    (
        "scale_sharded",
        Size::Full,
        0,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_098_636, 6_418, 4_094]),
    ),
    (
        "scale_sharded",
        Size::Full,
        1,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_097_200, 6_400, 4_094]),
    ),
    (
        "scale_sharded",
        Size::Full,
        2,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_098_049, 6_247, 4_094]),
    ),
    (
        "scale_sharded",
        Size::Full,
        3,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_096_696, 6_444, 4_094]),
    ),
    (
        "scale_sharded",
        Size::Full,
        4,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_096_349, 6_287, 4_094]),
    ),
    (
        "scale_sharded",
        Size::Full,
        5,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_097_972, 6_238, 4_094]),
    ),
    (
        "scale_sharded",
        Size::Full,
        6,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_098_167, 6_413, 4_094]),
    ),
    (
        "scale_sharded",
        Size::Full,
        7,
        pin([200_000, 200_000, 0, 0, 0, 0, 0, 2_095_983, 6_343, 4_094]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        0,
        pin([70_000, 62_099, 0, 0, 0, 0, 0, 398_821, 4_919, 1_136]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        1,
        pin([70_000, 66_138, 0, 0, 0, 0, 0, 414_836, 5_760, 1_838]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        2,
        pin([70_000, 65_862, 0, 0, 0, 0, 0, 413_890, 6_870, 2_757]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        3,
        pin([70_000, 66_004, 0, 0, 0, 0, 0, 414_032, 5_321, 1_440]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        4,
        pin([70_000, 66_568, 0, 0, 0, 0, 0, 416_337, 5_426, 1_789]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        5,
        pin([70_000, 61_632, 0, 0, 0, 0, 0, 396_776, 4_942, 939]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        6,
        pin([70_000, 59_576, 0, 0, 0, 0, 0, 389_668, 5_071, 1_913]),
    ),
    (
        "wormhole_hotspot",
        Size::Full,
        7,
        pin([70_000, 61_694, 0, 0, 0, 0, 0, 399_022, 5_307, 3_022]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        0,
        pin([550_898, 544_452, 0, 0, 0, 0, 4_592, 8_025_561, 20_000, 653]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        1,
        pin([554_324, 547_931, 0, 0, 0, 0, 4_523, 8_049_094, 20_000, 653]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        2,
        pin([545_092, 538_595, 0, 0, 0, 0, 4_656, 7_937_755, 20_000, 656]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        3,
        pin([545_772, 539_233, 0, 0, 0, 0, 4_686, 7_949_695, 20_000, 659]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        4,
        pin([549_437, 542_973, 0, 0, 0, 0, 4_623, 7_984_138, 20_000, 657]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        5,
        pin([548_287, 541_816, 0, 0, 0, 0, 4_629, 7_989_403, 20_000, 654]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        6,
        pin([548_732, 542_116, 0, 0, 0, 0, 4_777, 7_992_211, 20_000, 654]),
    ),
    (
        "churn_closed_loop",
        Size::Full,
        7,
        pin([551_275, 544_729, 0, 0, 0, 0, 4_698, 8_018_991, 20_000, 655]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        0,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_856, 197, 122]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        1,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_796, 215, 132]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        2,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_822, 208, 119]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        3,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_665, 198, 117]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        4,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_852, 195, 116]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        5,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_898, 212, 133]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        6,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_714, 202, 120]),
    ),
    (
        "scale_uniform",
        Size::Tiny,
        7,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_890, 214, 130]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        0,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_856, 195, 171]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        1,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_796, 213, 179]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        2,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_822, 210, 179]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        3,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_665, 196, 168]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        4,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_852, 195, 166]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        5,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_898, 211, 183]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        6,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_714, 202, 171]),
    ),
    (
        "scale_sharded",
        Size::Tiny,
        7,
        pin([2_000, 2_000, 0, 0, 0, 0, 0, 9_890, 215, 176]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        0,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_482, 173, 126]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        1,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_430, 159, 113]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        2,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_444, 167, 117]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        3,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_488, 169, 123]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        4,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_401, 181, 138]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        5,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_444, 191, 147]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        6,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_488, 166, 105]),
    ),
    (
        "wormhole_hotspot",
        Size::Tiny,
        7,
        pin([1_400, 1_400, 0, 0, 0, 0, 0, 5_482, 152, 114]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        0,
        pin([7_963, 7_921, 0, 0, 0, 0, 0, 65_796, 1_999, 27]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        1,
        pin([7_858, 7_824, 0, 0, 0, 0, 0, 64_098, 2_000, 28]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        2,
        pin([7_950, 7_907, 0, 0, 0, 0, 0, 64_891, 2_000, 27]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        3,
        pin([8_006, 7_964, 0, 0, 0, 0, 0, 64_948, 2_000, 27]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        4,
        pin([8_036, 8_000, 0, 0, 0, 0, 0, 66_160, 2_000, 26]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        5,
        pin([7_646, 7_609, 0, 0, 0, 0, 0, 61_841, 2_000, 29]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        6,
        pin([7_822, 7_780, 0, 0, 0, 0, 0, 63_046, 2_000, 28]),
    ),
    (
        "churn_closed_loop",
        Size::Tiny,
        7,
        pin([8_128, 8_086, 0, 0, 0, 0, 0, 65_270, 2_000, 26]),
    ),
];

pub fn pinned(w: &Workload, size: Size, seed: u64) -> Option<Fingerprint> {
    PINNED
        .iter()
        .find(|(name, s, i, _)| {
            *name == w.name && *s == size && crate::instance_seed(crate::DEFAULT_SEED, *i) == seed
        })
        .map(|(.., fp)| *fp)
}

/// Sum of shortest-path distances over `pairs`, from addresses alone.
pub fn distance_sum<T: Addressed>(topo: &T, pairs: impl Iterator<Item = (u32, u32)>) -> u64 {
    pairs
        .map(|(s, t)| u64::from(topo.address(s).hamming(&topo.address(t))))
        .sum()
}

/// Seed-independent oracles on one run's output. `min_hops` is the sum
/// of shortest-path distances of the open-loop packet list (`None` for
/// the closed loop, whose destinations the session machine draws).
pub fn check_oracles(
    w: &Workload,
    specs: &Specs,
    fp: &Fingerprint,
    min_hops: Option<u64>,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            errors.push(what);
        }
    };
    let Some(unfinished) = fp.unfinished() else {
        return vec![format!("delivered + dropped exceeds offered: {fp}")];
    };
    expect(
        fp.p99_latency <= fp.makespan,
        format!("p99 {} beyond makespan {}", fp.p99_latency, fp.makespan),
    );
    match &specs.traffic {
        TrafficSpec::RequestReply { clients, .. } => {
            // Each session has at most one transaction outstanding.
            expect(
                unfinished <= *clients,
                format!("{unfinished} transactions open with {clients} clients"),
            );
            expect(
                fp.delivered > 0,
                "closed loop delivered nothing".to_string(),
            );
        }
        TrafficSpec::Uniform { count, .. } | TrafficSpec::HotSpot { count, .. } => {
            expect(
                fp.offered == *count,
                format!("offered {} of {count} packets", fp.offered),
            );
            expect(
                fp.dropped() == 0,
                format!("{} drops on a healthy network", fp.dropped()),
            );
        }
        other => expect(false, format!("no oracle for traffic {other}")),
    }
    if let Some(min_hops) = min_hops {
        if w.switching == "store_and_forward" {
            // Minimal routing, every packet delivered: hops are exactly
            // the shortest-path distances.
            expect(unfinished == 0, format!("{unfinished} packets undelivered"));
            expect(
                fp.total_hops == min_hops,
                format!(
                    "total_hops {} != shortest-path sum {min_hops}",
                    fp.total_hops
                ),
            );
        } else {
            // Minimal adaptive routing: header hops never exceed the
            // shortest-path sum, stranded packets having covered part
            // of it.
            expect(
                fp.total_hops <= min_hops,
                format!(
                    "total_hops {} > shortest-path sum {min_hops}",
                    fp.total_hops
                ),
            );
        }
    }
    errors
}
