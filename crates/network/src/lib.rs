//! # fibcube-network
//!
//! The interconnection-network reading of "Generalized Fibonacci Cubes"
//! (the ICPP'93 Hsu–Liu–Chung lineage, which the 2012 Discrete Mathematics
//! paper cites as its own motivation [10, 11, 15]): `Q_d(1^k)` as a
//! processor network with Zeckendorf addressing, plus the machinery to
//! evaluate it against the classic baselines:
//!
//! * [`experiment`] — **start here**: the [`Experiment`] builder is the
//!   one composable entry point —
//!   `Experiment::on(&topo).router(..).traffic(..).observe(..).run()`
//!   returns a structured [`Report`];
//! * [`topology`] — `Q_d(1^k)`, hypercube, ring, mesh, each with its
//!   distributed shortest-path rule (canonical-path routing on the
//!   Fibonacci cubes, justified by Proposition 3.1's argument);
//! * [`router`] — routing *policies* split out of the topologies: e-cube,
//!   precomputed canonical-path, and load-aware adaptive minimal routing,
//!   named declaratively by [`RouterSpec`];
//! * [`engine`] — the unified simulation engine behind
//!   [`Experiment::run`]: one crate-internal door taking the workload,
//!   the switching spec, the faults and the lane count as plain data,
//!   one lane runner (one lane on the calling thread, or `k` on a scoped
//!   thread pool with a propose/commit outbox protocol — bit-identical
//!   at any lane count), and **one cycle stepper** every lane executes,
//!   with compile-time policy traits (switching × faults × replication ×
//!   observer) covering store-and-forward and wormhole switching,
//!   static faults, seeded mid-run fault churn with incremental route
//!   repair, closed-loop request/reply clients, and collectives. The
//!   original full-scan engines stay public as reference oracles
//!   ([`simulate_reference`], [`simulate_faulted_reference`]);
//! * [`arena`] — the engine's storage core: the struct-of-arrays
//!   [`PacketSlab`] and the occupancy-sized ring-buffer [`LinkQueues`]
//!   (4 B per directed link plus O(occupied links + spilled packets));
//! * [`implicit`] — million-node scale: [`ImplicitRouter`] computes
//!   canonical-path and e-cube hops straight from Zeckendorf address
//!   arithmetic (`O(d)` time, `O(d)` total state — no `O(n²)` table,
//!   no per-node flip rows) and [`ImplicitFibonacciNet`] materialises
//!   `Q_d(1^k)` lazily from rank↔word codecs, streaming its CSR graph;
//! * [`dist`] — the shared [`DistanceTable`] (healthy or degraded by a
//!   fault set) behind metrics, survivability analysis, and the
//!   fault-masking router, plus the sampled [`DistanceSample`]
//!   estimator for networks past the dense-table byte budget;
//! * [`observer`] — pluggable [`SimObserver`] hooks compiled into the
//!   engine (zero-cost when absent), with [`LatencyHistogram`],
//!   [`LinkHeatmap`], and the SLO-grade [`SloTracker`] (windowed
//!   delivered fraction, windowed tail latency, time-to-recover after
//!   each fault event) shipped;
//! * [`report`] — the [`Report`] type and the dependency-free
//!   [`JsonValue`] document model behind `to_json()`;
//! * [`switching`] — the switching model as a first-class spec
//!   ([`SwitchingSpec`]): store-and-forward, or flit-level wormhole
//!   switching with virtual channels and credit-based backpressure,
//!   deadlock-free by construction against the topologies' order-based
//!   channel classes;
//! * [`sweep`] — injection-rate ladders producing saturation-throughput
//!   and latency-vs-load curves, parallel across (rate, seed) runs, plus
//!   the [`fault_load_sweep`] rate × fault-count resilience grid, the
//!   [`switching_sweep`] wormhole-vs-store-and-forward comparison, and
//!   the [`churn_sweep`] recovery-time-vs-MTTR grid under dynamic
//!   fault churn;
//! * [`traffic`] — declarative, seeded workload specs ([`TrafficSpec`]:
//!   uniform, hot-spot, complement permutation, all-to-all, open-loop
//!   Bernoulli, mixes — all CLI/JSON-parseable);
//! * [`broadcast`] — one-to-all broadcast schedules in the all-port and
//!   one-port models (typed [`BroadcastError`] on disconnected networks);
//! * [`collective`] — collectives as *live* workloads: a
//!   [`CollectiveSpec`] (broadcast / multicast / all-to-all personalized)
//!   compiles to a [`CopyPlan`] the engine executes by packet replication
//!   at intermediate nodes, healthy or faulted, reporting
//!   completion-time/round statistics ([`CollectiveOutcome`]);
//! * [`metrics`](mod@metrics) — the static figure-of-merit table (degree, diameter,
//!   average distance, cost);
//! * [`hamilton`] — Hamiltonian paths/cycles ("mostly Hamiltonian");
//! * [`embedding`] — hosting paths/rings/hypercubes in Fibonacci cubes
//!   with measured dilation (`Q_k ↪ Γ_{2k−1}` isometrically);
//! * [`fault`] — failure scenarios as first-class specs ([`FaultSpec`] /
//!   [`FaultSet`]): live fault-aware simulation through
//!   [`Experiment::faults`](Experiment::faults) (dead packets become
//!   typed drops, survivors detour via the
//!   [`FaultMaskingRouter`]), dynamic fault churn as a precomputed
//!   seeded event timeline ([`ChurnTimeline`]) with incremental route
//!   repair, plus the static survivability/dilation analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod broadcast;
pub mod collective;
pub mod dist;
pub mod embedding;
pub mod engine;
pub mod experiment;
pub mod fault;
pub mod hamilton;
pub mod implicit;
pub mod metrics;
pub mod observer;
pub mod report;
pub mod router;
pub mod sweep;
pub mod switching;
pub mod topology;
pub mod traffic;

pub use arena::{LinkQueues, PacketSlab};
pub use broadcast::{
    broadcast_all_port, broadcast_one_port, verify_schedule, BroadcastError, BroadcastSchedule,
};
pub use collective::{CollectiveOutcome, CollectiveSpec, CopyPlan, Port};
pub use dist::{DistanceSample, DistanceTable};
pub use embedding::{embed_hypercube, embed_path, embed_ring, Embedding};
pub use engine::{
    simulate_faulted_reference, simulate_reference, DropReason, LogHistogram, SimStats,
    DENSE_HISTOGRAM_NODE_LIMIT,
};
pub use experiment::{Experiment, ExperimentError};
pub use fault::{
    fault_set_trial, fault_sweep, fault_trial, ChurnEvent, ChurnTarget, ChurnTimeline, FaultError,
    FaultMasks, FaultSet, FaultSpec, FaultSweepRow, FaultTrial,
};
pub use hamilton::{hamiltonian_cycle, hamiltonian_path, HamiltonResult};
pub use implicit::{ImplicitFibonacciNet, ImplicitRouter};
pub use metrics::{metrics, metrics_sampled, metrics_with, TopologyMetrics};
pub use observer::{
    DeliveryTracker, LatencyHistogram, LinkHeatmap, NoopObserver, SimObserver, SloRecovery,
    SloTracker, SloWindow, SLO_DELIVERED_TARGET,
};
pub use report::{JsonValue, Report};
pub use router::{
    AdaptiveMinimal, CanonicalRouter, EcubeRouter, FaultMaskingRouter, LinkLoad, NextHopRouter,
    NextHopTable, NoLoad, Router, RouterSpec, TABLE_BYTE_BUDGET,
};
pub use sweep::{
    churn_sweep, collective_sweep, fault_load_sweep, injection_sweep, rate_ladder,
    saturation_point, switching_sweep, ChurnGrid, ChurnPoint, CollectiveGrid, CollectivePoint,
    FaultLoadGrid, FaultLoadPoint, LoadPoint, SweepConfig, SweepCurve, SwitchingGrid,
    SwitchingPoint,
};
pub use switching::{SwitchingSpec, VcOccupancy, PACKET_LENGTH_UNITS};
pub use topology::{FibonacciNet, Hypercube, Mesh, Ring, RouteError, Topology};
pub use traffic::{Packet, TrafficSpec};
