//! Injection-rate sweeps: the saturation-throughput and latency-vs-load
//! experiments the 1993-era evaluations report per topology.
//!
//! A sweep runs an *injection-rate ladder*: for each offered rate
//! (packets per node per cycle) it runs one [`Experiment`] with
//! open-loop Bernoulli traffic ([`TrafficSpec::Bernoulli`]) under a fixed
//! [`RouterSpec`] across several seeds, in parallel on the workspace's
//! scoped-thread pool ([`fibcube_graph::parallel`]), and averages the
//! resulting throughput/latency into one [`LoadPoint`] per rate. The
//! resulting curve exposes the two numbers the comparisons care about:
//! where latency departs from the zero-load value, and the saturation
//! throughput where accepted traffic stops tracking offered traffic.
//!
//! [`fault_load_sweep`] extends the ladder into a grid: every rate is
//! additionally run under increasing node-fault counts
//! ([`FaultSpec::Nodes`]), exposing how delivered throughput degrades as
//! the network loses processors — the fault-resilience comparison the
//! 1993 line makes between `Γ_n` and the hypercube.
//!
//! [`collective_sweep`] runs the same fault grid under a *collective*
//! workload ([`CollectiveSpec`]): per fault count it measures broadcast
//! completion time and target coverage, the live counterpart of the
//! static round-count tables.
//!
//! [`switching_sweep`] crosses the injection ladder with a set of
//! [`SwitchingSpec`]s — store-and-forward against one or more wormhole
//! configurations — exposing where flit-level serialization and
//! credit-based backpressure move the latency knee relative to the
//! packet-atomic engine.
//!
//! [`churn_sweep`] leaves the static-fault world entirely: it runs
//! [`FaultSpec::Churn`] experiments across a ladder of
//! mean-time-to-repair values with an [`SloTracker`] attached, producing
//! the recovery-time-vs-MTTR grid — how long after each fail event the
//! network takes to meet its delivered-fraction target again, and what
//! the churn costs in typed drops and tail latency.

use fibcube_graph::parallel::par_map;

use crate::collective::{CollectiveOutcome, CollectiveSpec};
use crate::dist::DistanceTable;
use crate::engine::{self, Faults, Plan, SimStats, Workload};
use crate::experiment::{fault_seed, run_cells, Experiment, ExperimentError};
use crate::fault::FaultSpec;
use crate::observer::{NoopObserver, SloRecovery, SloTracker, SloWindow};
use crate::report::JsonValue;
use crate::router::{FaultMaskingRouter, RouterSpec};
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::TrafficSpec;

/// Aggregated simulation outcome at one offered rate.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered injection rate (packets per node per cycle).
    pub rate: f64,
    /// Mean packets offered per run.
    pub offered: f64,
    /// Mean packets delivered per run.
    pub delivered: f64,
    /// `delivered / offered` — 1.0 until the network saturates.
    pub delivered_fraction: f64,
    /// Accepted rate: delivered packets per node per *injection* cycle
    /// (directly comparable to `rate`).
    pub accepted_rate: f64,
    /// Mean end-to-end latency of delivered packets.
    pub mean_latency: f64,
    /// Mean 99th-percentile latency across seeds.
    pub p99_latency: f64,
}

impl LoadPoint {
    /// The point as a JSON object (for `BENCH_sim.json`-style artifacts).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("rate", JsonValue::Num(self.rate)),
            ("offered", JsonValue::Num(self.offered)),
            ("delivered", JsonValue::Num(self.delivered)),
            (
                "delivered_fraction",
                JsonValue::Num(self.delivered_fraction),
            ),
            ("accepted_rate", JsonValue::Num(self.accepted_rate)),
            ("mean_latency", JsonValue::Num(self.mean_latency)),
            ("p99_latency", JsonValue::Num(self.p99_latency)),
        ])
    }
}

/// A full latency-vs-load / throughput-vs-load curve for one
/// (topology, router) pair.
#[derive(Clone, Debug)]
pub struct SweepCurve {
    /// Topology name (`"Γ_16"`, `"Q_11"`, …).
    pub topology: String,
    /// Router policy name.
    pub router: String,
    /// Node count (for normalising across topologies).
    pub nodes: usize,
    /// One point per offered rate, in ladder order.
    pub points: Vec<LoadPoint>,
}

impl SweepCurve {
    /// The curve as a JSON object, points included.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("topology", JsonValue::Str(self.topology.clone())),
            ("router", JsonValue::Str(self.router.clone())),
            ("nodes", JsonValue::Int(self.nodes as u64)),
            (
                "points",
                JsonValue::Arr(self.points.iter().map(LoadPoint::to_json_value).collect()),
            ),
        ])
    }
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Number of cycles during which traffic is injected.
    pub inject_cycles: u64,
    /// Extra cycles granted after injection stops, for queues to drain.
    pub drain_cycles: u64,
    /// Seeds; each rung of the ladder runs once per seed.
    pub seeds: Vec<u64>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            inject_cycles: 400,
            drain_cycles: 4_000,
            seeds: vec![1, 2, 3],
        }
    }
}

/// Decorrelates the traffic streams of different ladder rungs.
fn rung_seed(base: u64, rung: usize) -> u64 {
    base ^ ((rung as u64) << 32)
}

/// Averages the per-(rate, seed) runs into one [`LoadPoint`] per rate.
fn aggregate(rates: &[f64], runs: &[SimStats], n: usize, config: &SweepConfig) -> Vec<LoadPoint> {
    let seeds = config.seeds.len();
    rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let chunk = &runs[ri * seeds..(ri + 1) * seeds];
            let m = chunk.len() as f64;
            let offered = chunk.iter().map(|s| s.offered as f64).sum::<f64>() / m;
            let delivered = chunk.iter().map(|s| s.delivered as f64).sum::<f64>() / m;
            let mean_latency = chunk.iter().map(|s| s.mean_latency).sum::<f64>() / m;
            let p99_latency = chunk.iter().map(|s| s.p99_latency as f64).sum::<f64>() / m;
            LoadPoint {
                rate,
                offered,
                delivered,
                delivered_fraction: if offered > 0.0 {
                    delivered / offered
                } else {
                    1.0
                },
                accepted_rate: delivered / (n as f64 * config.inject_cycles as f64),
                mean_latency,
                p99_latency,
            }
        })
        .collect()
}

/// Runs the injection-rate ladder `rates` (packets/node/cycle) under the
/// declarative `router` policy, one [`Experiment`] per (rate, seed) run,
/// parallel across runs. The capability check happens once up front, so
/// an unsupported policy fails fast with a typed error instead of
/// panicking mid-sweep.
///
/// Each parallel job resolves its own router instance: sharing one
/// would serialize construction order into the sweep's cell fan-out,
/// and a rebuild (`O(n·d)` for the canonical flip table, the most
/// expensive case) is microseconds against the milliseconds each
/// simulation run costs.
pub fn injection_sweep<T>(
    topo: &T,
    router: RouterSpec,
    rates: &[f64],
    config: &SweepConfig,
) -> Result<SweepCurve, ExperimentError>
where
    T: Topology + Sync + ?Sized,
{
    assert!(!config.seeds.is_empty(), "sweep needs at least one seed");
    let router_name = router.resolve(topo)?.name();
    for &rate in rates {
        TrafficSpec::Bernoulli {
            rate,
            cycles: config.inject_cycles,
        }
        .validate(topo.len())?;
    }
    let seeds = &config.seeds;
    // The (rate, seed) cells fan out through the shared experiment batch
    // runner — same machinery as `Experiment::run_batch`, reports in cell
    // order regardless of thread scheduling.
    let reports = run_cells(rates.len() * seeds.len(), |j| {
        let rung = j / seeds.len();
        Experiment::on(topo)
            .router(router)
            .traffic(TrafficSpec::Bernoulli {
                rate: rates[rung],
                cycles: config.inject_cycles,
            })
            .seed(rung_seed(seeds[j % seeds.len()], rung))
            .cycles(config.inject_cycles + config.drain_cycles)
    })?;
    let runs: Vec<SimStats> = reports.into_iter().map(|r| r.stats).collect();
    Ok(SweepCurve {
        topology: topo.name(),
        router: router_name,
        nodes: topo.len(),
        points: aggregate(rates, &runs, topo.len(), config),
    })
}

/// One cell of a [`fault_load_sweep`] grid: the aggregated outcome at
/// one (offered rate, node-fault count) combination.
#[derive(Clone, Debug)]
pub struct FaultLoadPoint {
    /// Offered injection rate (packets per node per cycle, counting every
    /// provisioned node — dead ones still attempt injection and drop).
    pub rate: f64,
    /// Node faults injected per run.
    pub faults: usize,
    /// Mean packets offered per run.
    pub offered: f64,
    /// Mean packets delivered per run.
    pub delivered: f64,
    /// `delivered / offered` — the delivered-throughput degradation
    /// measure — or `None` when the runs offered nothing (the ratio is
    /// undefined, matching the `Option` convention of
    /// [`FaultTrial`](crate::fault::FaultTrial)).
    pub delivered_fraction: Option<f64>,
    /// Mean packets dropped per run with a dead source or destination.
    pub dropped_dead_endpoint: f64,
    /// Mean packets dropped per run whose surviving endpoints the faults
    /// disconnect.
    pub dropped_unreachable: f64,
    /// Accepted rate: delivered packets per provisioned node per
    /// injection cycle (directly comparable to `rate`).
    pub accepted_rate: f64,
    /// Mean end-to-end latency of delivered packets.
    pub mean_latency: f64,
    /// Mean 99th-percentile latency across seeds.
    pub p99_latency: f64,
}

impl FaultLoadPoint {
    /// The cell as a JSON object (for `BENCH_sim.json`-style artifacts).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("rate", JsonValue::Num(self.rate)),
            ("faults", JsonValue::Int(self.faults as u64)),
            ("offered", JsonValue::Num(self.offered)),
            ("delivered", JsonValue::Num(self.delivered)),
            (
                "delivered_fraction",
                match self.delivered_fraction {
                    Some(f) => JsonValue::Num(f),
                    None => JsonValue::Null,
                },
            ),
            (
                "dropped_dead_endpoint",
                JsonValue::Num(self.dropped_dead_endpoint),
            ),
            (
                "dropped_unreachable",
                JsonValue::Num(self.dropped_unreachable),
            ),
            ("accepted_rate", JsonValue::Num(self.accepted_rate)),
            ("mean_latency", JsonValue::Num(self.mean_latency)),
            ("p99_latency", JsonValue::Num(self.p99_latency)),
        ])
    }
}

/// A full injection-rate × fault-count grid for one (topology, router)
/// pair, produced by [`fault_load_sweep`]. Points are stored rate-major:
/// all fault counts of the first rate, then the second rate, …
#[derive(Clone, Debug)]
pub struct FaultLoadGrid {
    /// Topology name (`"Γ_16"`, `"Q_11"`, …).
    pub topology: String,
    /// Router policy name.
    pub router: String,
    /// Node count (for normalising across topologies).
    pub nodes: usize,
    /// The injection-rate ladder swept.
    pub rates: Vec<f64>,
    /// The node-fault counts swept.
    pub fault_counts: Vec<usize>,
    /// One cell per (rate, fault count), rate-major.
    pub points: Vec<FaultLoadPoint>,
}

impl FaultLoadGrid {
    /// The cell at `(rate index, fault index)`.
    pub fn point(&self, rate_idx: usize, fault_idx: usize) -> &FaultLoadPoint {
        &self.points[rate_idx * self.fault_counts.len() + fault_idx]
    }

    /// The grid as a JSON object, cells included.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("topology", JsonValue::Str(self.topology.clone())),
            ("router", JsonValue::Str(self.router.clone())),
            ("nodes", JsonValue::Int(self.nodes as u64)),
            (
                "rates",
                JsonValue::Arr(self.rates.iter().map(|&r| JsonValue::Num(r)).collect()),
            ),
            (
                "fault_counts",
                JsonValue::Arr(
                    self.fault_counts
                        .iter()
                        .map(|&k| JsonValue::Int(k as u64))
                        .collect(),
                ),
            ),
            (
                "points",
                JsonValue::Arr(
                    self.points
                        .iter()
                        .map(FaultLoadPoint::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs the injection-rate ladder `rates` against every node-fault count
/// in `fault_counts` — the fault-resilience grid behind the paper's
/// graceful-degradation claims. Fault placement derives from the
/// (fault count, seed) column alone: each column draws its
/// [`FaultSpec::Nodes`] set once, builds one
/// [`FaultMaskingRouter`] — including the `O(n·m)` degraded
/// [`DistanceTable`] — and replays every rate of the ladder through it,
/// so the table cost is paid per column rather than per
/// (rate, fault count, seed) run. Traffic streams stay decorrelated per
/// cell exactly as before; the columns fan out in parallel like
/// [`injection_sweep`]. Configuration problems (unsupported router,
/// degenerate traffic, fault counts the topology cannot express) fail
/// fast with a typed error before anything runs.
pub fn fault_load_sweep<T>(
    topo: &T,
    router: RouterSpec,
    rates: &[f64],
    fault_counts: &[usize],
    config: &SweepConfig,
) -> Result<FaultLoadGrid, ExperimentError>
where
    T: Topology + Sync + ?Sized,
{
    assert!(!config.seeds.is_empty(), "sweep needs at least one seed");
    let router_name = router.resolve(topo)?.name();
    for &rate in rates {
        TrafficSpec::Bernoulli {
            rate,
            cycles: config.inject_cycles,
        }
        .validate(topo.len())?;
    }
    let g = topo.graph();
    let n = topo.len();
    let seeds = &config.seeds;
    // One fault draw per (fault count, seed) column, sampled up front so
    // the parallel section below is infallible — `sample` revalidates
    // each count, keeping the fail-fast contract.
    let mut fault_sets = Vec::with_capacity(fault_counts.len() * seeds.len());
    for (fi, &count) in fault_counts.iter().enumerate() {
        for &seed in seeds.iter() {
            fault_sets.push(FaultSpec::Nodes { count }.sample(g, fault_seed(rung_seed(seed, fi)))?);
        }
    }
    let cap = config.inject_cycles + config.drain_cycles;
    // (fault count, seed) columns fan out across the workspace pool; the
    // rate ladder replays serially inside each column against its cached
    // masked router. Empty columns (zero faults) run the healthy engine,
    // exactly as the engine treats an empty fault set.
    let runs: Vec<Vec<SimStats>> = par_map(fault_sets.len(), |j| {
        let fi = j / seeds.len();
        let faults = &fault_sets[j];
        let router = router
            .resolve(topo)
            .expect("router capability was checked above");
        let masked = (!faults.is_empty()).then(|| {
            let masks = faults.masks(g);
            let dist = DistanceTable::degraded(g, &masks);
            FaultMaskingRouter::with_table(g, &*router, faults, masks, dist)
        });
        (0..rates.len())
            .map(|ri| {
                let cell = ri * fault_counts.len() + fi;
                let packets = TrafficSpec::Bernoulli {
                    rate: rates[ri],
                    cycles: config.inject_cycles,
                }
                .generate(n, rung_seed(seeds[j % seeds.len()], cell));
                let plan = Plan {
                    topology: topo,
                    router: &*router,
                    workload: Workload::Packets(packets),
                    switching: SwitchingSpec::StoreAndForward,
                    faults: match &masked {
                        Some(masked) => Faults::Masked(masked),
                        None => Faults::Set(faults),
                    },
                    max_cycles: cap,
                };
                engine::run(&plan, 1, &mut NoopObserver).0
            })
            .collect()
    });
    let m = seeds.len() as f64;
    let mut points = Vec::with_capacity(rates.len() * fault_counts.len());
    for (ri, &rate) in rates.iter().enumerate() {
        for (fi, &faults) in fault_counts.iter().enumerate() {
            let chunk: Vec<&SimStats> = (0..seeds.len())
                .map(|sj| &runs[fi * seeds.len() + sj][ri])
                .collect();
            let offered = chunk.iter().map(|s| s.offered as f64).sum::<f64>() / m;
            let delivered = chunk.iter().map(|s| s.delivered as f64).sum::<f64>() / m;
            points.push(FaultLoadPoint {
                rate,
                faults,
                offered,
                delivered,
                delivered_fraction: (offered > 0.0).then(|| delivered / offered),
                dropped_dead_endpoint: chunk
                    .iter()
                    .map(|s| s.dropped_dead_endpoint as f64)
                    .sum::<f64>()
                    / m,
                dropped_unreachable: chunk
                    .iter()
                    .map(|s| s.dropped_unreachable as f64)
                    .sum::<f64>()
                    / m,
                accepted_rate: delivered / (n as f64 * config.inject_cycles as f64),
                mean_latency: chunk.iter().map(|s| s.mean_latency).sum::<f64>() / m,
                p99_latency: chunk.iter().map(|s| s.p99_latency as f64).sum::<f64>() / m,
            });
        }
    }
    Ok(FaultLoadGrid {
        topology: topo.name(),
        router: router_name,
        nodes: topo.len(),
        rates: rates.to_vec(),
        fault_counts: fault_counts.to_vec(),
        points,
    })
}

/// One cell of a [`collective_sweep`] grid: the aggregated outcome of a
/// collective at one node-fault count.
#[derive(Clone, Debug)]
pub struct CollectivePoint {
    /// Node faults injected per run.
    pub faults: usize,
    /// Intended recipients per run (constant across seeds for broadcast;
    /// multicast draws may hit dead nodes, so this is the intended count
    /// regardless of liveness).
    pub targets: f64,
    /// Mean intended recipients actually reached per run.
    pub reached: f64,
    /// `reached / targets`, or `None` when the collective had no targets.
    pub reached_fraction: Option<f64>,
    /// Mean completion time (cycles until the last copy was delivered).
    pub completion_cycles: f64,
    /// Mean static schedule rounds across seeds (`None` when the spec has
    /// no static oracle — multicast and `alltoallp`). For a healthy
    /// one-port broadcast this equals `completion_cycles` exactly.
    pub schedule_rounds: Option<f64>,
    /// Mean copies dropped per run with a dead endpoint.
    pub dropped_dead_endpoint: f64,
    /// Mean copies dropped per run because the faults disconnect them.
    pub dropped_unreachable: f64,
}

impl CollectivePoint {
    /// The cell as a JSON object (for `BENCH_sim.json`-style artifacts).
    pub fn to_json_value(&self) -> JsonValue {
        let opt = |x: Option<f64>| match x {
            Some(v) => JsonValue::Num(v),
            None => JsonValue::Null,
        };
        JsonValue::obj([
            ("faults", JsonValue::Int(self.faults as u64)),
            ("targets", JsonValue::Num(self.targets)),
            ("reached", JsonValue::Num(self.reached)),
            ("reached_fraction", opt(self.reached_fraction)),
            ("completion_cycles", JsonValue::Num(self.completion_cycles)),
            ("schedule_rounds", opt(self.schedule_rounds)),
            (
                "dropped_dead_endpoint",
                JsonValue::Num(self.dropped_dead_endpoint),
            ),
            (
                "dropped_unreachable",
                JsonValue::Num(self.dropped_unreachable),
            ),
        ])
    }
}

/// A collective's degradation curve over a node-fault grid for one
/// topology, produced by [`collective_sweep`].
#[derive(Clone, Debug)]
pub struct CollectiveGrid {
    /// Topology name (`"Γ_16"`, `"Q_11"`, …).
    pub topology: String,
    /// The [`CollectiveSpec`] swept, in canonical text form.
    pub spec: String,
    /// Node count.
    pub nodes: usize,
    /// The node-fault counts swept.
    pub fault_counts: Vec<usize>,
    /// One cell per fault count, in `fault_counts` order.
    pub points: Vec<CollectivePoint>,
}

impl CollectiveGrid {
    /// The grid as a JSON object, cells included.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("topology", JsonValue::Str(self.topology.clone())),
            ("spec", JsonValue::Str(self.spec.clone())),
            ("nodes", JsonValue::Int(self.nodes as u64)),
            (
                "fault_counts",
                JsonValue::Arr(
                    self.fault_counts
                        .iter()
                        .map(|&k| JsonValue::Int(k as u64))
                        .collect(),
                ),
            ),
            (
                "points",
                JsonValue::Arr(
                    self.points
                        .iter()
                        .map(CollectivePoint::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs `spec` against every node-fault count in `fault_counts`, one
/// [`Experiment`] per (fault count, seed) cell in parallel on the
/// workspace pool — the collective-resilience grid behind the
/// `collectives` section of `BENCH_sim.json`: how broadcast completion
/// and coverage degrade as processors die. Fault placement and multicast
/// destinations both derive from the per-cell seed. Configuration
/// problems fail fast with a typed error before anything runs.
pub fn collective_sweep<T>(
    topo: &T,
    spec: &CollectiveSpec,
    fault_counts: &[usize],
    config: &SweepConfig,
) -> Result<CollectiveGrid, ExperimentError>
where
    T: Topology + Sync + ?Sized,
{
    assert!(!config.seeds.is_empty(), "sweep needs at least one seed");
    spec.validate(topo.len())?;
    for &k in fault_counts {
        FaultSpec::Nodes { count: k }.validate(topo.graph())?;
    }
    let seeds = &config.seeds;
    let reports = run_cells(fault_counts.len() * seeds.len(), |j| {
        let fi = j / seeds.len();
        Experiment::on(topo)
            .collective(spec.clone())
            .faults(FaultSpec::Nodes {
                count: fault_counts[fi],
            })
            .seed(rung_seed(seeds[j % seeds.len()], fi))
            .cycles(config.inject_cycles + config.drain_cycles)
    })?;
    let m = seeds.len() as f64;
    // A collective experiment without an outcome would be an internal
    // invariant violation; surface it as a typed error rather than a
    // mid-aggregation panic.
    let outcomes: Vec<&CollectiveOutcome> = reports
        .iter()
        .map(|r| {
            r.collective
                .as_ref()
                .ok_or_else(|| ExperimentError::MissingCollectiveOutcome {
                    topology: r.topology.clone(),
                })
        })
        .collect::<Result<_, _>>()?;
    let points = fault_counts
        .iter()
        .enumerate()
        .map(|(fi, &faults)| {
            let start = fi * seeds.len();
            let chunk = &reports[start..start + seeds.len()];
            let outs = &outcomes[start..start + seeds.len()];
            let targets = outs.iter().map(|o| o.targets as f64).sum::<f64>() / m;
            let reached = outs.iter().map(|o| o.reached as f64).sum::<f64>() / m;
            let rounds: Vec<f64> = outs
                .iter()
                .filter_map(|o| o.schedule_rounds.map(|x| x as f64))
                .collect();
            CollectivePoint {
                faults,
                targets,
                reached,
                reached_fraction: (targets > 0.0).then(|| reached / targets),
                completion_cycles: outs.iter().map(|o| o.completion_cycles as f64).sum::<f64>() / m,
                schedule_rounds: (rounds.len() == chunk.len())
                    .then(|| rounds.iter().sum::<f64>() / m),
                dropped_dead_endpoint: chunk
                    .iter()
                    .map(|r| r.stats.dropped_dead_endpoint as f64)
                    .sum::<f64>()
                    / m,
                dropped_unreachable: chunk
                    .iter()
                    .map(|r| r.stats.dropped_unreachable as f64)
                    .sum::<f64>()
                    / m,
            }
        })
        .collect();
    Ok(CollectiveGrid {
        topology: topo.name(),
        spec: spec.to_string(),
        nodes: topo.len(),
        fault_counts: fault_counts.to_vec(),
        points,
    })
}

/// One cell of a [`switching_sweep`] grid: the aggregated outcome at one
/// (offered rate, switching model) combination.
#[derive(Clone, Debug)]
pub struct SwitchingPoint {
    /// Offered injection rate (packets per node per cycle).
    pub rate: f64,
    /// The [`SwitchingSpec`] this cell ran under, in canonical text form.
    pub switching: String,
    /// Mean packets offered per run.
    pub offered: f64,
    /// Mean packets delivered per run.
    pub delivered: f64,
    /// `delivered / offered` — 1.0 until the network saturates.
    pub delivered_fraction: f64,
    /// Accepted rate: delivered packets per node per injection cycle
    /// (directly comparable to `rate`).
    pub accepted_rate: f64,
    /// Mean end-to-end latency of delivered packets. Under wormhole this
    /// counts head injection to tail arrival, so multi-flit packets pay
    /// their serialization latency here.
    pub mean_latency: f64,
    /// Mean 99th-percentile latency across seeds.
    pub p99_latency: f64,
    /// Mean cycles until the network drained (or the cap struck).
    pub makespan: f64,
}

impl SwitchingPoint {
    /// The cell as a JSON object (for `BENCH_sim.json`-style artifacts).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("rate", JsonValue::Num(self.rate)),
            ("switching", JsonValue::Str(self.switching.clone())),
            ("offered", JsonValue::Num(self.offered)),
            ("delivered", JsonValue::Num(self.delivered)),
            (
                "delivered_fraction",
                JsonValue::Num(self.delivered_fraction),
            ),
            ("accepted_rate", JsonValue::Num(self.accepted_rate)),
            ("mean_latency", JsonValue::Num(self.mean_latency)),
            ("p99_latency", JsonValue::Num(self.p99_latency)),
            ("makespan", JsonValue::Num(self.makespan)),
        ])
    }
}

/// An injection-rate × switching-model grid for one (topology, router)
/// pair, produced by [`switching_sweep`]. Points are stored rate-major:
/// every switching model of the first rate, then the second rate, …
#[derive(Clone, Debug)]
pub struct SwitchingGrid {
    /// Topology name (`"Γ_16"`, `"Q_11"`, …).
    pub topology: String,
    /// Router policy name.
    pub router: String,
    /// Node count (for normalising across topologies).
    pub nodes: usize,
    /// The injection-rate ladder swept.
    pub rates: Vec<f64>,
    /// The switching models swept, in canonical text form and sweep order.
    pub switching: Vec<String>,
    /// One cell per (rate, switching model), rate-major.
    pub points: Vec<SwitchingPoint>,
}

impl SwitchingGrid {
    /// The cell at `(rate index, switching-model index)`.
    pub fn point(&self, rate_idx: usize, spec_idx: usize) -> &SwitchingPoint {
        &self.points[rate_idx * self.switching.len() + spec_idx]
    }

    /// The grid as a JSON object, cells included.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("topology", JsonValue::Str(self.topology.clone())),
            ("router", JsonValue::Str(self.router.clone())),
            ("nodes", JsonValue::Int(self.nodes as u64)),
            (
                "rates",
                JsonValue::Arr(self.rates.iter().map(|&r| JsonValue::Num(r)).collect()),
            ),
            (
                "switching",
                JsonValue::Arr(
                    self.switching
                        .iter()
                        .map(|s| JsonValue::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "points",
                JsonValue::Arr(
                    self.points
                        .iter()
                        .map(SwitchingPoint::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs the injection-rate ladder `rates` under every switching model in
/// `specs` — the wormhole-vs-store-and-forward comparison behind the
/// `switching` section of `BENCH_sim.json`. One [`Experiment`] per
/// (rate, switching model, seed) run with open-loop Bernoulli traffic,
/// parallel across runs like [`injection_sweep`]. Wormhole cells run the
/// flit-level engine with virtual channels and credit backpressure, so the grid exposes
/// both the serialization cost at light load and the earlier saturation
/// knee under finite flit buffering. Configuration problems (unsupported
/// router, degenerate traffic or switching specs) fail fast with a typed
/// error before anything runs.
pub fn switching_sweep<T>(
    topo: &T,
    router: RouterSpec,
    rates: &[f64],
    specs: &[SwitchingSpec],
    config: &SweepConfig,
) -> Result<SwitchingGrid, ExperimentError>
where
    T: Topology + Sync + ?Sized,
{
    assert!(!config.seeds.is_empty(), "sweep needs at least one seed");
    let router_name = router.resolve(topo)?.name();
    for &rate in rates {
        TrafficSpec::Bernoulli {
            rate,
            cycles: config.inject_cycles,
        }
        .validate(topo.len())?;
    }
    for spec in specs {
        spec.validate()?;
    }
    let seeds = &config.seeds;
    let per_rate = specs.len() * seeds.len();
    // (rate, switching, seed) cells through the shared batch runner.
    let reports = run_cells(rates.len() * per_rate, |j| {
        let ri = j / per_rate;
        let si = (j % per_rate) / seeds.len();
        let cell = ri * specs.len() + si;
        Experiment::on(topo)
            .router(router)
            .traffic(TrafficSpec::Bernoulli {
                rate: rates[ri],
                cycles: config.inject_cycles,
            })
            .switching(specs[si].clone())
            .seed(rung_seed(seeds[j % seeds.len()], cell))
            .cycles(config.inject_cycles + config.drain_cycles)
    })?;
    let runs: Vec<SimStats> = reports.into_iter().map(|r| r.stats).collect();
    let m = seeds.len() as f64;
    let mut points = Vec::with_capacity(rates.len() * specs.len());
    for (ri, &rate) in rates.iter().enumerate() {
        for (si, spec) in specs.iter().enumerate() {
            let start = ri * per_rate + si * seeds.len();
            let chunk = &runs[start..start + seeds.len()];
            let offered = chunk.iter().map(|s| s.offered as f64).sum::<f64>() / m;
            let delivered = chunk.iter().map(|s| s.delivered as f64).sum::<f64>() / m;
            points.push(SwitchingPoint {
                rate,
                switching: spec.to_string(),
                offered,
                delivered,
                delivered_fraction: if offered > 0.0 {
                    delivered / offered
                } else {
                    1.0
                },
                accepted_rate: delivered / (topo.len() as f64 * config.inject_cycles as f64),
                mean_latency: chunk.iter().map(|s| s.mean_latency).sum::<f64>() / m,
                p99_latency: chunk.iter().map(|s| s.p99_latency as f64).sum::<f64>() / m,
                makespan: chunk.iter().map(|s| s.makespan as f64).sum::<f64>() / m,
            });
        }
    }
    Ok(SwitchingGrid {
        topology: topo.name(),
        router: router_name,
        nodes: topo.len(),
        rates: rates.to_vec(),
        switching: specs.iter().map(|s| s.to_string()).collect(),
        points,
    })
}

/// One cell of a [`churn_sweep`] grid: the aggregated outcome at one
/// mean-time-to-repair value. Fractions follow the `Option` convention
/// of [`FaultLoadPoint`]: `None` means the denominator was zero (no
/// traffic offered, no fail events, nothing recovered), serialised as
/// JSON `null` rather than a misleading number.
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// Mean time to repair swept at this cell (cycles;
    /// `f64::INFINITY` = failures never heal, serialised as `null`).
    pub mttr: f64,
    /// Mean churn events committed per run (fail + recover).
    pub events: f64,
    /// Mean fail events committed per run.
    pub fail_events: f64,
    /// Mean packets offered per run.
    pub offered: f64,
    /// Mean packets delivered per run.
    pub delivered: f64,
    /// `delivered / offered`, or `None` when nothing was offered.
    pub delivered_fraction: Option<f64>,
    /// Mean packets dropped per run on a link that died under them.
    pub dropped_link_died: f64,
    /// Mean packets dropped per run on a node that died holding them.
    pub dropped_node_died: f64,
    /// Mean packets dropped per run with a dead source or destination
    /// at injection.
    pub dropped_dead_endpoint: f64,
    /// Mean packets dropped per run whose endpoints the current fault
    /// state disconnects.
    pub dropped_unreachable: f64,
    /// Mean end-to-end latency of delivered packets.
    pub mean_latency: f64,
    /// Mean 99th-percentile latency across seeds.
    pub p99_latency: f64,
    /// Mean (across seeds) of the worst per-window p99.9 latency the
    /// run's [`SloTracker`] recorded — the tail during the churn, not
    /// the whole-run tail.
    pub worst_window_p999: f64,
    /// Fraction of fail events after which service met
    /// [`SLO_DELIVERED_TARGET`](crate::observer::SLO_DELIVERED_TARGET)
    /// again before the run ended, or `None` with no fail events.
    pub recovered_fraction: Option<f64>,
    /// Mean cycles from a fail event to the close of the first
    /// SLO-meeting window, over the recovered fail events — `None` when
    /// none recovered.
    pub mean_time_to_recover: Option<f64>,
}

impl ChurnPoint {
    /// The cell as a JSON object (for `BENCH_sim.json`-style artifacts).
    pub fn to_json_value(&self) -> JsonValue {
        let opt = |x: Option<f64>| match x {
            Some(v) => JsonValue::Num(v),
            None => JsonValue::Null,
        };
        JsonValue::obj([
            ("mttr", JsonValue::Num(self.mttr)),
            ("events", JsonValue::Num(self.events)),
            ("fail_events", JsonValue::Num(self.fail_events)),
            ("offered", JsonValue::Num(self.offered)),
            ("delivered", JsonValue::Num(self.delivered)),
            ("delivered_fraction", opt(self.delivered_fraction)),
            ("dropped_link_died", JsonValue::Num(self.dropped_link_died)),
            ("dropped_node_died", JsonValue::Num(self.dropped_node_died)),
            (
                "dropped_dead_endpoint",
                JsonValue::Num(self.dropped_dead_endpoint),
            ),
            (
                "dropped_unreachable",
                JsonValue::Num(self.dropped_unreachable),
            ),
            ("mean_latency", JsonValue::Num(self.mean_latency)),
            ("p99_latency", JsonValue::Num(self.p99_latency)),
            ("worst_window_p999", JsonValue::Num(self.worst_window_p999)),
            ("recovered_fraction", opt(self.recovered_fraction)),
            ("mean_time_to_recover", opt(self.mean_time_to_recover)),
        ])
    }
}

/// A recovery-vs-MTTR grid for one (topology, router) pair under
/// dynamic fault churn, produced by [`churn_sweep`].
#[derive(Clone, Debug)]
pub struct ChurnGrid {
    /// Topology name (`"Γ_16"`, `"Q_11"`, …).
    pub topology: String,
    /// Router policy name (the inner policy; churn wraps it in the
    /// fault-masking adapter at run time).
    pub router: String,
    /// Node count.
    pub nodes: usize,
    /// Offered injection rate (packets per node per cycle).
    pub rate: f64,
    /// Per-cycle node-failure intensity of the churn process.
    pub node_rate: f64,
    /// Per-cycle link-failure intensity of the churn process.
    pub link_rate: f64,
    /// Cycles per [`SloTracker`] aggregation window (the granularity of
    /// the recovery-time figures).
    pub slo_window: u64,
    /// The mean-time-to-repair ladder swept.
    pub mttrs: Vec<f64>,
    /// One cell per MTTR value, in `mttrs` order.
    pub points: Vec<ChurnPoint>,
}

impl ChurnGrid {
    /// The grid as a JSON object, cells included.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("topology", JsonValue::Str(self.topology.clone())),
            ("router", JsonValue::Str(self.router.clone())),
            ("nodes", JsonValue::Int(self.nodes as u64)),
            ("rate", JsonValue::Num(self.rate)),
            ("node_rate", JsonValue::Num(self.node_rate)),
            ("link_rate", JsonValue::Num(self.link_rate)),
            ("slo_window", JsonValue::Int(self.slo_window)),
            (
                "mttrs",
                JsonValue::Arr(self.mttrs.iter().map(|&x| JsonValue::Num(x)).collect()),
            ),
            (
                "points",
                JsonValue::Arr(self.points.iter().map(ChurnPoint::to_json_value).collect()),
            ),
        ])
    }
}

/// Per-run churn outcome carried from the parallel cells to the
/// aggregation pass.
struct ChurnRun {
    stats: SimStats,
    events: u64,
    fail_events: u64,
    recovered: u64,
    recover_cycles: u64,
    worst_window_p999: u64,
}

/// Runs the dynamic-churn engine across a ladder of mean-time-to-repair
/// values — the recovery-vs-MTTR grid behind the `churn` section of
/// `BENCH_sim.json`. Each (MTTR, seed) cell is one [`Experiment`] with a
/// [`FaultSpec::Churn`] scenario — a seeded
/// [`ChurnTimeline`](crate::fault::ChurnTimeline) at the given per-cycle
/// node/link failure intensities — driving open-loop Bernoulli traffic
/// at `rate` with an [`SloTracker`] attached, and reports
/// SLO-grade aggregates: per-fail-event time-to-recover, the fraction
/// of fail events service recovered from, windowed worst-case tail
/// latency, and the typed drop taxonomy (packets lost on dying
/// links/nodes vs. rejected at injection). Cells fan out in parallel on
/// the workspace pool; configuration problems (unsupported router,
/// degenerate traffic or churn parameters) fail fast with a typed error
/// before anything runs.
pub fn churn_sweep<T>(
    topo: &T,
    router: RouterSpec,
    rate: f64,
    node_rate: f64,
    link_rate: f64,
    mttrs: &[f64],
    config: &SweepConfig,
) -> Result<ChurnGrid, ExperimentError>
where
    T: Topology + Sync + ?Sized,
{
    assert!(!config.seeds.is_empty(), "sweep needs at least one seed");
    let router_name = router.resolve(topo)?.name();
    TrafficSpec::Bernoulli {
        rate,
        cycles: config.inject_cycles,
    }
    .validate(topo.len())?;
    let g = topo.graph();
    for &mttr in mttrs {
        FaultSpec::Churn {
            node_rate,
            link_rate,
            mttr,
        }
        .validate(g)?;
    }
    let seeds = &config.seeds;
    let cap = config.inject_cycles + config.drain_cycles;
    // Recovery times are measured at window granularity; an eighth of
    // the injection phase keeps several windows inside it without
    // starving each of traffic.
    let slo_window = (config.inject_cycles / 8).max(1);
    let runs = par_map(mttrs.len() * seeds.len(), |j| {
        let mi = j / seeds.len();
        let mut slo = SloTracker::new(slo_window);
        let stats = Experiment::on(topo)
            .router(router)
            .traffic(TrafficSpec::Bernoulli {
                rate,
                cycles: config.inject_cycles,
            })
            .faults(FaultSpec::Churn {
                node_rate,
                link_rate,
                mttr: mttrs[mi],
            })
            .seed(rung_seed(seeds[j % seeds.len()], mi))
            .cycles(cap)
            .observe(&mut slo)
            .run()?
            .stats;
        let fails: Vec<SloRecovery> = slo.recoveries().into_iter().filter(|r| r.failed).collect();
        Ok(ChurnRun {
            stats,
            events: slo.fault_events().len() as u64,
            fail_events: fails.len() as u64,
            recovered: fails.iter().filter(|r| r.time_to_recover.is_some()).count() as u64,
            recover_cycles: fails.iter().filter_map(|r| r.time_to_recover).sum(),
            worst_window_p999: slo.windows().iter().map(SloWindow::p999).max().unwrap_or(0),
        })
    })
    .into_iter()
    .collect::<Result<Vec<ChurnRun>, ExperimentError>>()?;
    let m = seeds.len() as f64;
    let points = mttrs
        .iter()
        .enumerate()
        .map(|(mi, &mttr)| {
            let chunk = &runs[mi * seeds.len()..(mi + 1) * seeds.len()];
            let offered = chunk.iter().map(|r| r.stats.offered as f64).sum::<f64>() / m;
            let delivered = chunk.iter().map(|r| r.stats.delivered as f64).sum::<f64>() / m;
            let fail_events: u64 = chunk.iter().map(|r| r.fail_events).sum();
            let recovered: u64 = chunk.iter().map(|r| r.recovered).sum();
            let recover_cycles: u64 = chunk.iter().map(|r| r.recover_cycles).sum();
            let mean_drop = |f: fn(&SimStats) -> usize| {
                chunk.iter().map(|r| f(&r.stats) as f64).sum::<f64>() / m
            };
            ChurnPoint {
                mttr,
                events: chunk.iter().map(|r| r.events as f64).sum::<f64>() / m,
                fail_events: fail_events as f64 / m,
                offered,
                delivered,
                delivered_fraction: (offered > 0.0).then(|| delivered / offered),
                dropped_link_died: mean_drop(|s| s.dropped_link_died),
                dropped_node_died: mean_drop(|s| s.dropped_node_died),
                dropped_dead_endpoint: mean_drop(|s| s.dropped_dead_endpoint),
                dropped_unreachable: mean_drop(|s| s.dropped_unreachable),
                mean_latency: chunk.iter().map(|r| r.stats.mean_latency).sum::<f64>() / m,
                p99_latency: chunk
                    .iter()
                    .map(|r| r.stats.p99_latency as f64)
                    .sum::<f64>()
                    / m,
                worst_window_p999: chunk
                    .iter()
                    .map(|r| r.worst_window_p999 as f64)
                    .sum::<f64>()
                    / m,
                recovered_fraction: (fail_events > 0)
                    .then(|| recovered as f64 / fail_events as f64),
                mean_time_to_recover: (recovered > 0)
                    .then(|| recover_cycles as f64 / recovered as f64),
            }
        })
        .collect();
    Ok(ChurnGrid {
        topology: topo.name(),
        router: router_name,
        nodes: topo.len(),
        rate,
        node_rate,
        link_rate,
        slo_window,
        mttrs: mttrs.to_vec(),
        points,
    })
}

/// A geometric-ish default ladder from light load up to `max_rate`:
/// `rungs` evenly spaced rates ending at `max_rate`. Degenerate requests
/// are handled gracefully — 0 rungs is an empty ladder, 1 rung is just
/// `max_rate` (no division by `rungs − 1` anywhere).
pub fn rate_ladder(max_rate: f64, rungs: usize) -> Vec<f64> {
    (1..=rungs)
        .map(|i| max_rate * i as f64 / rungs as f64)
        .collect()
}

/// The saturation point of a curve: the last rung whose delivered
/// fraction stays at least `threshold` (conventionally 0.95). Returns
/// `None` when even the lightest rung saturates — and on an empty curve,
/// which has no rungs at all.
pub fn saturation_point(curve: &SweepCurve, threshold: f64) -> Option<&LoadPoint> {
    curve
        .points
        .iter()
        .rev()
        .find(|p| p.delivered_fraction >= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FibonacciNet, Hypercube, Ring};

    fn quick_config() -> SweepConfig {
        SweepConfig {
            inject_cycles: 120,
            drain_cycles: 2_000,
            seeds: vec![7, 8],
        }
    }

    #[test]
    fn light_load_delivers_everything_at_distance_latency() {
        let q = Hypercube::new(5);
        let curve = injection_sweep(&q, RouterSpec::Ecube, &[0.01], &quick_config()).unwrap();
        assert_eq!(curve.topology, "Q_5");
        assert_eq!(curve.router, "e-cube");
        let p = &curve.points[0];
        assert!(p.delivered_fraction > 0.999, "light load must not saturate");
        let avg = fibcube_graph::distance::average_distance(q.graph());
        assert!(
            p.mean_latency >= avg * 0.5,
            "latency {} ≪ avg distance {avg}",
            p.mean_latency
        );
        assert!(
            p.mean_latency <= avg * 2.0 + 2.0,
            "light load ≈ zero-load latency"
        );
    }

    #[test]
    fn latency_is_monotone_ish_in_load_and_saturation_detected() {
        let net = FibonacciNet::classical(8);
        let rates = rate_ladder(0.6, 4);
        let mut config = quick_config();
        // Short drain so the saturated rungs visibly drop packets.
        config.drain_cycles = 200;
        let curve = injection_sweep(&net, RouterSpec::Canonical, &rates, &config).unwrap();
        assert_eq!(curve.points.len(), 4);
        let first = &curve.points[0];
        let last = &curve.points[curve.points.len() - 1];
        assert!(
            last.mean_latency >= first.mean_latency,
            "latency must not fall as load rises: {} vs {}",
            last.mean_latency,
            first.mean_latency
        );
        // Γ_8 (55 nodes, max degree 8) cannot accept 0.6 pkt/node/cycle of
        // uniform traffic: the top rung must saturate.
        assert!(last.delivered_fraction < 0.95, "top rung should saturate");
        let sat = saturation_point(&curve, 0.95);
        if let Some(p) = sat {
            assert!(p.rate < last.rate);
        }
    }

    #[test]
    fn spec_sweep_matches_the_reference_engine_cell_by_cell() {
        // Every (rate, seed) cell of the declarative sweep is an
        // `Experiment`; replaying the same cell streams through the
        // full-scan reference engine must give the same curve.
        let net = FibonacciNet::classical(7);
        let rates = [0.02, 0.1];
        let config = quick_config();
        let curve = injection_sweep(&net, RouterSpec::Canonical, &rates, &config).unwrap();
        let seeds = &config.seeds;
        let runs: Vec<SimStats> = (0..rates.len() * seeds.len())
            .map(|j| {
                let rung = j / seeds.len();
                let packets = TrafficSpec::Bernoulli {
                    rate: rates[rung],
                    cycles: config.inject_cycles,
                }
                .generate(net.len(), rung_seed(seeds[j % seeds.len()], rung));
                let cap = config.inject_cycles + config.drain_cycles;
                crate::engine::simulate_reference(&net, &packets, cap)
            })
            .collect();
        let oracle = aggregate(&rates, &runs, net.len(), &config);
        for (a, b) in curve.points.iter().zip(&oracle) {
            assert_eq!(a.delivered, b.delivered);
            assert_eq!(a.mean_latency, b.mean_latency);
            assert_eq!(a.p99_latency, b.p99_latency);
        }
    }

    #[test]
    fn unsupported_router_fails_the_sweep_up_front() {
        let ring = Ring::new(9);
        let err = injection_sweep(&ring, RouterSpec::Canonical, &[0.1], &quick_config())
            .expect_err("no canonical routing on a ring");
        assert!(err.to_string().contains("Ring_9"), "{err}");
        let err = injection_sweep(&ring, RouterSpec::Builtin, &[1.5], &quick_config())
            .expect_err("rate 1.5 is not a probability");
        assert!(err.to_string().contains("1.5"), "{err}");
    }

    #[test]
    fn ladder_shape() {
        let l = rate_ladder(0.8, 4);
        assert_eq!(l, vec![0.2, 0.4, 0.6000000000000001, 0.8]);
    }

    #[test]
    fn ladder_degenerate_rung_counts() {
        // Satellite hardening: 0 and 1 rungs must not panic or divide
        // degenerately.
        assert!(rate_ladder(0.5, 0).is_empty());
        assert_eq!(rate_ladder(0.5, 1), vec![0.5]);
    }

    #[test]
    fn saturation_point_of_empty_curve_is_none() {
        let empty = SweepCurve {
            topology: "Q_3".into(),
            router: "e-cube".into(),
            nodes: 8,
            points: Vec::new(),
        };
        assert!(saturation_point(&empty, 0.95).is_none());
        // And an empty ladder sweeps to an empty curve without running.
        let q = Hypercube::new(3);
        let curve = injection_sweep(&q, RouterSpec::Ecube, &[], &quick_config()).unwrap();
        assert!(curve.points.is_empty());
        assert!(saturation_point(&curve, 0.95).is_none());
    }

    #[test]
    fn fault_load_sweep_shows_graceful_degradation() {
        let net = FibonacciNet::classical(7); // 34 nodes
        let grid = fault_load_sweep(
            &net,
            RouterSpec::Adaptive,
            &[0.05],
            &[0, 8],
            &quick_config(),
        )
        .unwrap();
        assert_eq!(grid.points.len(), 2);
        assert_eq!(grid.router, "adaptive");
        let healthy = grid.point(0, 0);
        let degraded = grid.point(0, 1);
        assert_eq!(healthy.faults, 0);
        assert_eq!(degraded.faults, 8);
        // The healthy column never drops; the degraded one must (8 of 34
        // nodes dead ⇒ ~40% of uniform pairs touch a dead endpoint).
        assert_eq!(healthy.dropped_dead_endpoint, 0.0);
        let healthy_frac = healthy.delivered_fraction.expect("packets were offered");
        let degraded_frac = degraded.delivered_fraction.expect("packets were offered");
        assert!(healthy_frac > 0.999, "light load delivers");
        assert!(degraded.dropped_dead_endpoint > 0.0);
        assert!(
            degraded_frac < healthy_frac,
            "faults must degrade delivered throughput: {degraded_frac} vs {healthy_frac}"
        );
        let json = grid.to_json_value().to_string();
        assert!(json.contains("\"fault_counts\": [0, 8]"), "{json}");
        assert!(json.contains("\"delivered_fraction\""), "{json}");
        // A rate-0 cell offers nothing: the fraction is undefined, not a
        // misleading 1.0 (serialised as null).
        let idle =
            fault_load_sweep(&net, RouterSpec::Adaptive, &[0.0], &[0], &quick_config()).unwrap();
        assert_eq!(idle.point(0, 0).delivered_fraction, None);
        assert!(idle
            .to_json_value()
            .to_string()
            .contains("\"delivered_fraction\": null"));
    }

    #[test]
    fn fault_load_sweep_rejects_bad_grids_up_front() {
        let net = FibonacciNet::classical(6); // 21 nodes
        let err = fault_load_sweep(&net, RouterSpec::Ecube, &[0.1], &[0], &quick_config())
            .expect_err("no e-cube on a Fibonacci net");
        assert!(matches!(err, ExperimentError::UnsupportedRouter { .. }));
        let err = fault_load_sweep(&net, RouterSpec::Adaptive, &[0.1], &[21], &quick_config())
            .expect_err("failing every node is rejected");
        assert!(
            err.to_string().contains("at least one must survive"),
            "{err}"
        );
        // An empty grid runs nothing and returns no points.
        let grid = fault_load_sweep(&net, RouterSpec::Adaptive, &[], &[], &quick_config()).unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn fault_load_grid_cells_are_stable_under_ladder_extension() {
        // Satellite regression for the cached-table restructure: a
        // column's fault draw depends only on (fault count, seed), and a
        // cell's traffic only on its own (rate, fault) indices — so
        // extending the rate ladder must not perturb existing cells.
        let net = FibonacciNet::classical(7); // 34 nodes
        let short = fault_load_sweep(
            &net,
            RouterSpec::Adaptive,
            &[0.05],
            &[0, 6],
            &quick_config(),
        )
        .unwrap();
        let long = fault_load_sweep(
            &net,
            RouterSpec::Adaptive,
            &[0.05, 0.2],
            &[0, 6],
            &quick_config(),
        )
        .unwrap();
        for fi in 0..2 {
            let a = short.point(0, fi);
            let b = long.point(0, fi);
            assert_eq!(a.offered, b.offered, "fault column {fi}");
            assert_eq!(a.delivered, b.delivered, "fault column {fi}");
            assert_eq!(a.dropped_dead_endpoint, b.dropped_dead_endpoint);
            assert_eq!(a.mean_latency, b.mean_latency);
            assert_eq!(a.p99_latency, b.p99_latency);
        }
    }

    #[test]
    fn churn_sweep_reports_recovery_grid() {
        let net = FibonacciNet::classical(8); // 55 nodes
        let grid = churn_sweep(
            &net,
            RouterSpec::Canonical,
            0.05,
            0.005,
            0.005,
            &[50.0, f64::INFINITY],
            &quick_config(),
        )
        .unwrap();
        assert_eq!(grid.topology, "Γ_8");
        assert_eq!(grid.router, "canonical");
        assert_eq!(grid.mttrs.len(), 2);
        assert_eq!(grid.points.len(), 2);
        assert_eq!(grid.slo_window, 15); // inject_cycles 120 / 8
        let healing = &grid.points[0];
        let permanent = &grid.points[1];
        // ~0.005/cycle over 2120 cycles: both cells must see failures.
        assert!(healing.fail_events > 0.0, "{}", healing.fail_events);
        assert!(permanent.fail_events > 0.0, "{}", permanent.fail_events);
        // Finite MTTR commits recover events on top of the fails;
        // mttr = ∞ never heals, so every committed event is a fail.
        assert!(
            healing.events > healing.fail_events,
            "{} vs {}",
            healing.events,
            healing.fail_events
        );
        assert_eq!(permanent.events, permanent.fail_events);
        assert!(permanent.mttr.is_infinite());
        // Traffic flowed and the SLO machinery produced figures.
        let frac = healing.delivered_fraction.expect("packets were offered");
        assert!(frac > 0.0 && frac <= 1.0, "{frac}");
        assert!(
            healing.recovered_fraction.is_some(),
            "fail events exist, so the fraction is defined"
        );
        if let Some(ttr) = healing.mean_time_to_recover {
            assert!(ttr > 0.0, "recovery takes at least one window: {ttr}");
        }
        let json = grid.to_json_value().to_string();
        assert!(json.contains("\"mttrs\""), "{json}");
        assert!(json.contains("\"mean_time_to_recover\""), "{json}");
        assert!(json.contains("\"worst_window_p999\""), "{json}");
        // Infinite MTTR serialises as null, keeping the artifact valid
        // JSON.
        assert!(json.contains("\"mttrs\": [50, null]"), "{json}");
    }

    #[test]
    fn churn_sweep_with_zero_rates_matches_the_quiet_network() {
        // node_rate = link_rate = 0 generates an empty timeline: no
        // events, nothing to recover from, full delivery at light load.
        let q = Hypercube::new(4);
        let grid = churn_sweep(
            &q,
            RouterSpec::Ecube,
            0.02,
            0.0,
            0.0,
            &[100.0],
            &quick_config(),
        )
        .unwrap();
        let p = &grid.points[0];
        assert_eq!(p.events, 0.0);
        assert_eq!(p.fail_events, 0.0);
        assert_eq!(p.recovered_fraction, None);
        assert_eq!(p.mean_time_to_recover, None);
        assert_eq!(p.dropped_link_died, 0.0);
        assert_eq!(p.dropped_node_died, 0.0);
        let frac = p.delivered_fraction.expect("packets were offered");
        assert!(frac > 0.999, "quiet light load delivers everything: {frac}");
        assert!(grid
            .to_json_value()
            .to_string()
            .contains("\"recovered_fraction\": null"));
    }

    #[test]
    fn churn_sweep_rejects_bad_grids_up_front() {
        let net = FibonacciNet::classical(6);
        let err = churn_sweep(
            &net,
            RouterSpec::Canonical,
            0.05,
            0.001,
            0.0,
            &[0.0],
            &quick_config(),
        )
        .expect_err("zero MTTR is degenerate");
        assert!(err.to_string().contains("mttr"), "{err}");
        let err = churn_sweep(
            &net,
            RouterSpec::Ecube,
            0.05,
            0.001,
            0.0,
            &[50.0],
            &quick_config(),
        )
        .expect_err("no e-cube on a Fibonacci net");
        assert!(matches!(err, ExperimentError::UnsupportedRouter { .. }));
        // An empty MTTR ladder runs nothing.
        let grid = churn_sweep(
            &net,
            RouterSpec::Canonical,
            0.05,
            0.001,
            0.001,
            &[],
            &quick_config(),
        )
        .unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn collective_sweep_degrades_coverage_not_correctness() {
        use crate::collective::{CollectiveSpec, Port};
        let net = FibonacciNet::classical(8); // 55 nodes
        let spec = CollectiveSpec::Broadcast {
            source: 0,
            port: Port::One,
        };
        let grid = collective_sweep(&net, &spec, &[0, 10], &quick_config()).unwrap();
        assert_eq!(grid.topology, "Γ_8");
        assert_eq!(grid.spec, "broadcast(source=0,port=one)");
        assert_eq!(grid.points.len(), 2);
        let healthy = &grid.points[0];
        let degraded = &grid.points[1];
        // Healthy column: full coverage, completion == the static rounds
        // oracle (averaged over seeds, but every seed matches exactly).
        assert_eq!(healthy.faults, 0);
        assert_eq!(healthy.reached_fraction, Some(1.0));
        assert_eq!(healthy.dropped_dead_endpoint, 0.0);
        assert_eq!(
            Some(healthy.completion_cycles),
            healthy.schedule_rounds,
            "healthy one-port completion equals the static oracle"
        );
        // Degraded column: 10 of 55 nodes dead ⇒ coverage must drop, and
        // every missing target is a typed drop.
        assert_eq!(degraded.faults, 10);
        let frac = degraded.reached_fraction.expect("targets exist");
        assert!(frac < 1.0, "10 dead nodes must cost coverage: {frac}");
        assert!(degraded.dropped_dead_endpoint > 0.0);
        assert_eq!(
            degraded.reached + degraded.dropped_dead_endpoint + degraded.dropped_unreachable,
            degraded.targets,
            "copy conservation survives aggregation"
        );
        let json = grid.to_json_value().to_string();
        assert!(
            json.contains("\"spec\": \"broadcast(source=0,port=one)\""),
            "{json}"
        );
        assert!(json.contains("\"completion_cycles\""), "{json}");
        assert!(json.contains("\"reached_fraction\""), "{json}");
    }

    #[test]
    fn collective_sweep_rejects_bad_grids_up_front() {
        use crate::collective::{CollectiveSpec, Port};
        let net = FibonacciNet::classical(6); // 21 nodes
        let bad_spec = CollectiveSpec::Broadcast {
            source: 21,
            port: Port::One,
        };
        let err = collective_sweep(&net, &bad_spec, &[0], &quick_config())
            .expect_err("source outside the network");
        assert!(matches!(err, ExperimentError::InvalidCollective { .. }));
        let spec = CollectiveSpec::Broadcast {
            source: 0,
            port: Port::All,
        };
        let err = collective_sweep(&net, &spec, &[21], &quick_config())
            .expect_err("failing every node is rejected");
        assert!(
            err.to_string().contains("at least one must survive"),
            "{err}"
        );
        // An empty grid runs nothing.
        let grid = collective_sweep(&net, &spec, &[], &quick_config()).unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn switching_sweep_compares_wormhole_to_store_and_forward() {
        let net = FibonacciNet::classical(8); // 55 nodes
        let specs = [
            SwitchingSpec::StoreAndForward,
            SwitchingSpec::Wormhole {
                flit_size: 8,
                vcs: 2,
                buf_flits: 4,
            },
        ];
        let grid = switching_sweep(
            &net,
            RouterSpec::Canonical,
            &[0.02, 0.08],
            &specs,
            &quick_config(),
        )
        .unwrap();
        assert_eq!(grid.points.len(), 4);
        assert_eq!(
            grid.switching,
            vec![
                "store_and_forward".to_string(),
                "wormhole(flit_size=8,vcs=2,buf_flits=4)".to_string()
            ]
        );
        let saf = grid.point(0, 0);
        let worm = grid.point(0, 1);
        assert_eq!(saf.switching, "store_and_forward");
        // Light load: both models deliver everything …
        assert!(saf.delivered_fraction > 0.999, "{}", saf.delivered_fraction);
        assert!(
            worm.delivered_fraction > 0.999,
            "{}",
            worm.delivered_fraction
        );
        // … but a 4-flit worm pays serialization latency the
        // packet-atomic engine never sees.
        assert!(
            worm.mean_latency > saf.mean_latency,
            "wormhole {} vs SAF {}",
            worm.mean_latency,
            saf.mean_latency
        );
        let json = grid.to_json_value().to_string();
        assert!(json.contains("\"switching\""), "{json}");
        assert!(json.contains("wormhole(flit_size=8"), "{json}");
        assert!(json.contains("\"makespan\""), "{json}");
    }

    #[test]
    fn switching_sweep_rejects_bad_specs_up_front() {
        let q = Hypercube::new(4);
        let bad = SwitchingSpec::Wormhole {
            flit_size: 0,
            vcs: 1,
            buf_flits: 1,
        };
        let err = switching_sweep(&q, RouterSpec::Ecube, &[0.05], &[bad], &quick_config())
            .expect_err("zero flit size is degenerate");
        assert!(matches!(err, ExperimentError::InvalidSwitching { .. }));
        assert!(err.to_string().contains("switching"), "{err}");
        // An empty grid runs nothing and returns no points.
        let grid = switching_sweep(&q, RouterSpec::Ecube, &[], &[], &quick_config()).unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn curve_serialises_to_json() {
        let q = Hypercube::new(3);
        let curve = injection_sweep(&q, RouterSpec::Ecube, &[0.05], &quick_config()).unwrap();
        let json = curve.to_json_value().to_string();
        assert!(json.contains("\"topology\": \"Q_3\""), "{json}");
        assert!(json.contains("\"rate\": 0.05"), "{json}");
    }
}
