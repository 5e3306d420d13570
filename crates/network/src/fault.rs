//! Fault injection: declarative failure scenarios ([`FaultSpec`]), their
//! materialised form ([`FaultSet`]), and the *static* survivability
//! analysis — connectivity of the healthy part and the dilation of
//! rerouted paths (cf. Gregor, *Recursive fault-tolerance of Fibonacci
//! cubes in hypercubes*, and the robustness claims of the 1993 line).
//!
//! A [`FaultSpec`] is the fault half of an
//! [`Experiment`](crate::experiment::Experiment): seeded random node
//! faults, seeded random link faults, explicit lists, or mixes, all
//! round-tripping through `Display`/`FromStr`
//! (`nodes(count=4)`, `links(count=8)`, `node_list(0,3,9)`,
//! `link_list(0-1,4-7)`, `mix(nodes(count=2)+links(count=3))`, `none`)
//! so a failure scenario lives on a CLI flag or in a JSON report exactly
//! like a [`TrafficSpec`](crate::traffic::TrafficSpec). Sampling a spec
//! against a concrete graph yields a [`FaultSet`], which the *live*
//! simulation path (the fault-masking router behind
//! [`Experiment::faults`](crate::experiment::Experiment::faults)) routes
//! around and the static path ([`fault_set_trial`]) analyses.
//!
//! Degenerate inputs are typed [`FaultError`]s, not panics: asking to
//! fail every node, naming a node outside the network, or sweeping with
//! zero trials all return `Err`.

use core::fmt;
use core::str::FromStr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use fibcube_graph::bfs::INFINITY;
use fibcube_graph::csr::{CsrGraph, GraphBuilder};

use crate::topology::Topology;
use crate::traffic::{num, parse_kv, split_call, split_mix};

/// A fault configuration the module rejected — every failure mode that
/// used to be an `assert!` at a call site, as a typed, `?`-friendly
/// error (mirroring [`ExperimentError`](crate::experiment::ExperimentError)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// Node faults must leave at least one survivor.
    TooManyNodeFaults {
        /// Distinct node failures requested.
        requested: usize,
        /// Nodes in the network.
        nodes: usize,
    },
    /// More link faults requested than the network has links.
    TooManyLinkFaults {
        /// Link failures requested.
        requested: usize,
        /// Undirected links in the network.
        links: usize,
    },
    /// An explicit node id outside the network.
    UnknownNode {
        /// The offending id.
        node: u32,
        /// Nodes in the network.
        nodes: usize,
    },
    /// An explicit link that is not an edge of the network.
    UnknownLink {
        /// One endpoint.
        from: u32,
        /// The other endpoint.
        to: u32,
    },
    /// A sweep over zero trials has no mean to report.
    ZeroTrials,
    /// A churn scenario with unusable parameters (negative or non-finite
    /// rates, non-positive MTTR, or churn nested inside `mix`).
    InvalidChurn {
        /// What made the scenario unusable.
        reason: String,
    },
    /// A static analysis needs an all-pairs distance table and the
    /// topology exceeds the table byte budget
    /// ([`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET)).
    TableTooLarge {
        /// Nodes in the network.
        nodes: usize,
        /// Bytes the all-pairs table would need.
        bytes: u128,
    },
    /// A spec string failed to parse (`FromStr` for [`FaultSpec`]).
    ParseSpec {
        /// The rejected input.
        input: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::TooManyNodeFaults { requested, nodes } => write!(
                f,
                "cannot fail {requested} of {nodes} nodes: at least one must survive"
            ),
            FaultError::TooManyLinkFaults { requested, links } => {
                write!(f, "cannot fail {requested} links: the network has {links}")
            }
            FaultError::UnknownNode { node, nodes } => {
                write!(f, "node {node} does not exist (network has {nodes} nodes)")
            }
            FaultError::UnknownLink { from, to } => {
                write!(f, "link {from}-{to} is not an edge of the network")
            }
            FaultError::ZeroTrials => write!(f, "a fault sweep needs at least one trial"),
            FaultError::InvalidChurn { reason } => {
                write!(f, "invalid churn scenario: {reason}")
            }
            FaultError::TableTooLarge { nodes, bytes } => write!(
                f,
                "static fault analysis needs an all-pairs table: {nodes} nodes would take \
                 {bytes} bytes, over the table byte budget"
            ),
            FaultError::ParseSpec { input, reason } => {
                write!(f, "cannot parse fault spec `{input}`: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

fn parse_err(input: &str, reason: impl Into<String>) -> FaultError {
    FaultError::ParseSpec {
        input: input.to_string(),
        reason: reason.into(),
    }
}

/// Maps the experiment-layer table-budget refusal into the fault
/// vocabulary. [`DistanceTable::healthy`](crate::dist::DistanceTable::healthy)
/// fails only on the byte budget; any other variant is passed through
/// rendered so no information is lost.
fn table_err(e: crate::experiment::ExperimentError) -> FaultError {
    match e {
        crate::experiment::ExperimentError::TableTooLarge { nodes, bytes } => {
            FaultError::TableTooLarge { nodes, bytes }
        }
        other => FaultError::ParseSpec {
            input: "distance table".to_string(),
            reason: other.to_string(),
        },
    }
}

/// A declarative failure scenario, the fault half of an
/// [`Experiment`](crate::experiment::Experiment). Sampled against a
/// concrete graph (with a seed) by [`FaultSpec::sample`] to produce the
/// materialised [`FaultSet`].
///
/// Canonical text forms (round-tripping through `Display`/`FromStr`):
///
/// | Variant | Text |
/// |---|---|
/// | `None` | `none` |
/// | `Nodes` | `nodes(count=4)` |
/// | `Links` | `links(count=8)` |
/// | `NodeList` | `node_list(0,3,9)` |
/// | `LinkList` | `link_list(0-1,4-7)` |
/// | `Mixed` | `mix(nodes(count=2)+links(count=3))` |
/// | `Churn` | `churn(node_rate=0.001,link_rate=0.002,mttr=500)` |
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// No faults: the healthy network. An `Experiment` with this spec is
    /// packet-for-packet identical to one without a spec at all.
    None,
    /// `count` distinct nodes fail, chosen uniformly at random (seeded).
    Nodes {
        /// Number of node failures.
        count: usize,
    },
    /// `count` distinct undirected links fail, chosen uniformly at
    /// random (seeded). Endpoints stay alive.
    Links {
        /// Number of link failures.
        count: usize,
    },
    /// Exactly these nodes fail.
    NodeList(Vec<u32>),
    /// Exactly these undirected links fail (each pair must be an edge).
    LinkList(Vec<(u32, u32)>),
    /// Union of component scenarios; random components draw from
    /// decorrelated seeds.
    Mixed(Vec<FaultSpec>),
    /// Dynamic churn: failures arrive *during* the run as a seeded
    /// Poisson-like event stream and (when `mttr` is finite) heal after
    /// an exponentially distributed repair time. Materialised not as a
    /// static [`FaultSet`] but as a [`ChurnTimeline`] of fail/recover
    /// events the churn engine commits at cycle boundaries.
    Churn {
        /// Expected node failures per cycle, network-wide.
        node_rate: f64,
        /// Expected link failures per cycle, network-wide.
        link_rate: f64,
        /// Mean time to repair, cycles. `f64::INFINITY` (spelled `inf`
        /// in the text form) means failures never heal.
        mttr: f64,
    },
}

impl FaultSpec {
    /// Checks the spec against `g`, returning a typed error for scenarios
    /// the graph cannot express (failing every node, more link faults
    /// than links, ids outside the network, non-edges).
    pub fn validate(&self, g: &CsrGraph) -> Result<(), FaultError> {
        let n = g.num_vertices();
        match self {
            FaultSpec::None => Ok(()),
            FaultSpec::Nodes { count } => {
                if *count >= n {
                    Err(FaultError::TooManyNodeFaults {
                        requested: *count,
                        nodes: n,
                    })
                } else {
                    Ok(())
                }
            }
            FaultSpec::Links { count } => {
                if *count > g.num_edges() {
                    Err(FaultError::TooManyLinkFaults {
                        requested: *count,
                        links: g.num_edges(),
                    })
                } else {
                    Ok(())
                }
            }
            FaultSpec::NodeList(nodes) => {
                for &v in nodes {
                    if v as usize >= n {
                        return Err(FaultError::UnknownNode { node: v, nodes: n });
                    }
                }
                let mut distinct: Vec<u32> = nodes.clone();
                distinct.sort_unstable();
                distinct.dedup();
                if distinct.len() >= n {
                    return Err(FaultError::TooManyNodeFaults {
                        requested: distinct.len(),
                        nodes: n,
                    });
                }
                Ok(())
            }
            FaultSpec::LinkList(links) => {
                for &(u, v) in links {
                    if u as usize >= n {
                        return Err(FaultError::UnknownNode { node: u, nodes: n });
                    }
                    if v as usize >= n {
                        return Err(FaultError::UnknownNode { node: v, nodes: n });
                    }
                    if !g.has_edge(u, v) {
                        return Err(FaultError::UnknownLink { from: u, to: v });
                    }
                }
                Ok(())
            }
            FaultSpec::Mixed(parts) => {
                for p in parts {
                    if matches!(p, FaultSpec::Churn { .. }) {
                        return Err(FaultError::InvalidChurn {
                            reason: "churn cannot be a `mix` component; use it standalone"
                                .to_string(),
                        });
                    }
                    p.validate(g)?;
                }
                Ok(())
            }
            FaultSpec::Churn {
                node_rate,
                link_rate,
                mttr,
            } => {
                for (name, rate) in [("node_rate", *node_rate), ("link_rate", *link_rate)] {
                    if !rate.is_finite() || rate < 0.0 {
                        return Err(FaultError::InvalidChurn {
                            reason: format!("`{name}` must be finite and ≥ 0, got {rate}"),
                        });
                    }
                }
                if mttr.is_nan() || *mttr <= 0.0 {
                    return Err(FaultError::InvalidChurn {
                        reason: format!("`mttr` must be > 0 (or inf), got {mttr}"),
                    });
                }
                Ok(())
            }
        }
    }

    /// `true` for the dynamic [`Churn`](FaultSpec::Churn) scenario, whose
    /// faults materialise as a [`ChurnTimeline`] rather than a static
    /// [`FaultSet`].
    pub fn is_churn(&self) -> bool {
        matches!(self, FaultSpec::Churn { .. })
    }

    /// Materialises the spec against `g`: random variants draw from
    /// `seed` (deterministic in `(self, g, seed)`), explicit lists pass
    /// through. The combined set must still leave a survivor.
    pub fn sample(&self, g: &CsrGraph, seed: u64) -> Result<FaultSet, FaultError> {
        self.validate(g)?;
        let mut nodes = Vec::new();
        let mut links = Vec::new();
        self.collect(g, seed, &mut nodes, &mut links);
        let set = FaultSet::new(nodes, links);
        if !set.failed_nodes().is_empty() && set.failed_nodes().len() >= g.num_vertices() {
            return Err(FaultError::TooManyNodeFaults {
                requested: set.failed_nodes().len(),
                nodes: g.num_vertices(),
            });
        }
        Ok(set)
    }

    fn collect(&self, g: &CsrGraph, seed: u64, nodes: &mut Vec<u32>, links: &mut Vec<(u32, u32)>) {
        match self {
            FaultSpec::None => {}
            FaultSpec::Nodes { count } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut ids: Vec<u32> = (0..g.num_vertices() as u32).collect();
                ids.shuffle(&mut rng);
                nodes.extend_from_slice(&ids[..*count]);
            }
            FaultSpec::Links { count } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut edges: Vec<(u32, u32)> = g.edges().collect();
                edges.shuffle(&mut rng);
                links.extend_from_slice(&edges[..*count]);
            }
            FaultSpec::NodeList(list) => nodes.extend_from_slice(list),
            FaultSpec::LinkList(list) => links.extend_from_slice(list),
            // Churn contributes no *static* faults: its failures live on
            // the timeline (`ChurnTimeline::generate`), not in the set.
            FaultSpec::Churn { .. } => {}
            FaultSpec::Mixed(parts) => {
                for (i, part) in parts.iter().enumerate() {
                    // Golden-ratio stride decorrelates component draws.
                    let part_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    part.collect(g, part_seed, nodes, links);
                }
            }
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::None => write!(f, "none"),
            FaultSpec::Nodes { count } => write!(f, "nodes(count={count})"),
            FaultSpec::Links { count } => write!(f, "links(count={count})"),
            FaultSpec::NodeList(nodes) => {
                write!(f, "node_list(")?;
                for (i, v) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            FaultSpec::LinkList(links) => {
                write!(f, "link_list(")?;
                for (i, (u, v)) in links.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{u}-{v}")?;
                }
                write!(f, ")")
            }
            FaultSpec::Mixed(parts) => {
                write!(f, "mix(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            FaultSpec::Churn {
                node_rate,
                link_rate,
                mttr,
            } => write!(
                f,
                "churn(node_rate={node_rate},link_rate={link_rate},mttr={mttr})"
            ),
        }
    }
}

impl FromStr for FaultSpec {
    type Err = FaultError;

    fn from_str(s: &str) -> Result<FaultSpec, FaultError> {
        let s = s.trim();
        let (name, body) = split_call(s).map_err(|e| parse_err(s, e))?;
        let body_or = |kind: &str| {
            body.ok_or_else(|| {
                parse_err(s, format!("`{kind}` needs arguments, e.g. `{kind}(...)`"))
            })
        };
        match name {
            "none" => match body {
                None | Some("") => Ok(FaultSpec::None),
                Some(extra) => Err(parse_err(
                    s,
                    format!("`none` takes no arguments: `{extra}`"),
                )),
            },
            "nodes" => {
                let v = parse_kv(body_or("nodes")?, &["count"]).map_err(|e| parse_err(s, e))?;
                Ok(FaultSpec::Nodes {
                    count: num(v[0], "count").map_err(|e| parse_err(s, e))?,
                })
            }
            "links" => {
                let v = parse_kv(body_or("links")?, &["count"]).map_err(|e| parse_err(s, e))?;
                Ok(FaultSpec::Links {
                    count: num(v[0], "count").map_err(|e| parse_err(s, e))?,
                })
            }
            "node_list" => {
                let body = body_or("node_list")?;
                let mut nodes = Vec::new();
                if !body.trim().is_empty() {
                    for part in body.split(',') {
                        nodes.push(num(part.trim(), "node").map_err(|e| parse_err(s, e))?);
                    }
                }
                Ok(FaultSpec::NodeList(nodes))
            }
            "link_list" => {
                let body = body_or("link_list")?;
                let mut links = Vec::new();
                if !body.trim().is_empty() {
                    for part in body.split(',') {
                        let (u, v) = part.trim().split_once('-').ok_or_else(|| {
                            parse_err(s, format!("expected `from-to`, got `{part}`"))
                        })?;
                        links.push((
                            num(u.trim(), "from").map_err(|e| parse_err(s, e))?,
                            num(v.trim(), "to").map_err(|e| parse_err(s, e))?,
                        ));
                    }
                }
                Ok(FaultSpec::LinkList(links))
            }
            "mix" => {
                let body = body_or("mix")?;
                if body.trim().is_empty() {
                    return Err(parse_err(s, "mix needs at least one component"));
                }
                let parts = split_mix(body)
                    .into_iter()
                    .map(FaultSpec::from_str)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(FaultSpec::Mixed(parts))
            }
            "churn" => {
                let v = parse_kv(body_or("churn")?, &["node_rate", "link_rate", "mttr"])
                    .map_err(|e| parse_err(s, e))?;
                Ok(FaultSpec::Churn {
                    node_rate: num(v[0], "node_rate").map_err(|e| parse_err(s, e))?,
                    link_rate: num(v[1], "link_rate").map_err(|e| parse_err(s, e))?,
                    mttr: num(v[2], "mttr").map_err(|e| parse_err(s, e))?,
                })
            }
            other => Err(parse_err(
                s,
                format!(
                    "unknown scenario `{other}` (expected none, nodes, links, node_list, \
                     link_list, mix, churn)"
                ),
            )),
        }
    }
}

/// A materialised set of failures: the failed node ids and failed
/// undirected links, normalised (sorted, deduplicated, links stored as
/// `(min, max)`). Produced by [`FaultSpec::sample`]; consumed by the
/// live engine (via the
/// [`FaultMaskingRouter`](crate::router::FaultMaskingRouter))
/// and the static analysis ([`fault_set_trial`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSet {
    failed_nodes: Vec<u32>,
    failed_links: Vec<(u32, u32)>,
}

impl FaultSet {
    /// The empty set: nothing failed.
    pub fn empty() -> FaultSet {
        FaultSet::default()
    }

    /// Builds a set from explicit failures, normalising as it goes
    /// (orientation, order, duplicates).
    pub fn new(
        nodes: impl IntoIterator<Item = u32>,
        links: impl IntoIterator<Item = (u32, u32)>,
    ) -> FaultSet {
        let mut failed_nodes: Vec<u32> = nodes.into_iter().collect();
        failed_nodes.sort_unstable();
        failed_nodes.dedup();
        let mut failed_links: Vec<(u32, u32)> = links
            .into_iter()
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        failed_links.sort_unstable();
        failed_links.dedup();
        FaultSet {
            failed_nodes,
            failed_links,
        }
    }

    /// `true` when nothing failed.
    pub fn is_empty(&self) -> bool {
        self.failed_nodes.is_empty() && self.failed_links.is_empty()
    }

    /// Failed node ids, sorted.
    pub fn failed_nodes(&self) -> &[u32] {
        &self.failed_nodes
    }

    /// Failed undirected links as `(min, max)` pairs, sorted.
    pub fn failed_links(&self) -> &[(u32, u32)] {
        &self.failed_links
    }

    /// `true` when node `v` did not fail.
    pub fn node_alive(&self, v: u32) -> bool {
        self.failed_nodes.binary_search(&v).is_err()
    }

    /// `true` when the undirected link `u–v` and both its endpoints are
    /// alive.
    pub fn link_alive(&self, u: u32, v: u32) -> bool {
        self.node_alive(u)
            && self.node_alive(v)
            && self
                .failed_links
                .binary_search(&(u.min(v), u.max(v)))
                .is_err()
    }

    /// Materialises the per-node / per-directed-link liveness masks of
    /// this set against `g` — the form the live engine, the
    /// [`DistanceTable`](crate::dist::DistanceTable), and the
    /// fault-masking router all index in their hot paths. Fault entries
    /// outside the graph are ignored.
    pub fn masks(&self, g: &CsrGraph) -> FaultMasks {
        let n = g.num_vertices();
        let mut node_dead = vec![false; n];
        for &v in self.failed_nodes() {
            if (v as usize) < n {
                node_dead[v as usize] = true;
            }
        }
        let mut edge_dead = vec![false; g.num_directed_edges()];
        for u in 0..n as u32 {
            let base = g.edge_range(u).start;
            for (slot, &v) in g.neighbors(u).iter().enumerate() {
                edge_dead[base + slot] =
                    node_dead[u as usize] || node_dead[v as usize] || !self.link_alive(u, v);
            }
        }
        FaultMasks {
            node_dead,
            edge_dead,
        }
    }

    /// The subgraph of `g` induced by the alive nodes, minus the failed
    /// links, with an id map back to the original network
    /// (`new id → old id`).
    pub fn healthy_subgraph(&self, g: &CsrGraph) -> (CsrGraph, Vec<u32>) {
        let n = g.num_vertices();
        let survivors: Vec<u32> = (0..n as u32).filter(|&v| self.node_alive(v)).collect();
        let mut new_id = vec![u32::MAX; n];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let mut builder = GraphBuilder::new(survivors.len());
        for &v in &survivors {
            for &w in g.neighbors(v) {
                if v < w && self.link_alive(v, w) {
                    builder.add_edge(new_id[v as usize], new_id[w as usize]);
                }
            }
        }
        (builder.build(), survivors)
    }
}

/// Boolean liveness masks of a degraded network: one flag per node and
/// one per CSR *directed* edge (dead when the undirected link failed or
/// either endpoint did). Produced by [`FaultSet::masks`]; consumed by the
/// masked BFS of [`DistanceTable::degraded`](crate::dist::DistanceTable::degraded)
/// and by the [`FaultMaskingRouter`](crate::router::FaultMaskingRouter)'s
/// per-hop surviving-link checks.
#[derive(Clone, Debug)]
pub struct FaultMasks {
    node_dead: Vec<bool>,
    edge_dead: Vec<bool>,
}

impl FaultMasks {
    /// `true` when node `v` survived the faults.
    #[inline]
    pub fn node_alive(&self, v: u32) -> bool {
        !self.node_dead[v as usize]
    }

    /// `true` when the directed edge with CSR index `e` survived (its
    /// undirected link and both endpoints are alive).
    #[inline]
    pub fn edge_alive(&self, e: usize) -> bool {
        !self.edge_dead[e]
    }

    /// Flips node `v`'s liveness — churn support. The caller (the
    /// fault-masking router) is responsible for refreshing the composite
    /// per-edge flags of `v`'s incident links afterwards.
    pub(crate) fn set_node(&mut self, v: u32, dead: bool) {
        self.node_dead[v as usize] = dead;
    }

    /// Flips the composite liveness of directed edge `e` — churn support.
    pub(crate) fn set_edge(&mut self, e: usize, dead: bool) {
        self.edge_dead[e] = dead;
    }
}

/// Backstop on the number of events one timeline may carry — far above
/// any realistic run, so a runaway rate cannot allocate unboundedly.
pub const MAX_CHURN_EVENTS: usize = 1 << 16;

/// What a single churn event fails or recovers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChurnTarget {
    /// A node; its incident links die and revive with it.
    Node(u32),
    /// An undirected link, stored as `(min, max)`. Endpoints stay alive.
    Link(u32, u32),
}

/// One scheduled churn event: at the boundary of `cycle` (before that
/// cycle's injections), `target` fails (`failed`) or recovers
/// (`!failed`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Cycle boundary at which the event commits.
    pub cycle: u64,
    /// The node or link affected.
    pub target: ChurnTarget,
    /// `true` to fail the target, `false` to bring it back.
    pub failed: bool,
}

/// A precomputed per-run timeline of fail/recover events — the
/// materialised form of [`FaultSpec::Churn`], playing the role
/// [`FaultSet`] plays for static scenarios. Events are sorted by cycle
/// (recoveries due at a cycle precede failures at the same cycle) and
/// alternate fail/recover per target, so replaying them in order keeps
/// every mask consistent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnTimeline {
    events: Vec<ChurnEvent>,
}

impl ChurnTimeline {
    /// A timeline from explicit events (sorted by cycle, stably, so
    /// same-cycle events keep their given order). The caller is
    /// responsible for per-target fail/recover alternation.
    pub fn from_events(events: impl IntoIterator<Item = ChurnEvent>) -> ChurnTimeline {
        let mut events: Vec<ChurnEvent> = events.into_iter().collect();
        events.sort_by_key(|e| e.cycle);
        ChurnTimeline { events }
    }

    /// Samples a timeline for `g` over `[0, horizon)` cycles,
    /// deterministic in `(g, rates, mttr, seed)`. Failures arrive as a
    /// Poisson-like process with `node_rate + link_rate` expected events
    /// per cycle (exponential inter-arrival, rounded up to ≥ 1 cycle),
    /// targets drawn uniformly; each finite-`mttr` failure schedules a
    /// recovery an exponential(`mttr`) time later. Already-down targets
    /// are skipped (strict per-target alternation), the last alive node
    /// never fails, and generation stops at [`MAX_CHURN_EVENTS`].
    pub fn generate(
        g: &CsrGraph,
        node_rate: f64,
        link_rate: f64,
        mttr: f64,
        seed: u64,
        horizon: u64,
    ) -> ChurnTimeline {
        let n = g.num_vertices();
        let total = node_rate + link_rate;
        if n == 0 || total.is_nan() || total <= 0.0 || horizon == 0 {
            return ChurnTimeline::default();
        }
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // 53 random bits → uniform in (0, 1], so `ln` stays finite.
        fn unit(rng: &mut StdRng) -> f64 {
            ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        }
        let mut node_down = vec![false; n];
        let mut link_down = vec![false; edges.len()];
        let mut alive_nodes = n;
        let mut events: Vec<ChurnEvent> = Vec::new();
        // Pending recoveries, earliest first; `seq` breaks ties
        // deterministically. Entries are `(cycle, seq, index, is_node)`.
        let mut pending: BinaryHeap<Reverse<(u64, u64, usize, bool)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let commit_recovery =
            |events: &mut Vec<ChurnEvent>,
             node_down: &mut Vec<bool>,
             link_down: &mut Vec<bool>,
             alive_nodes: &mut usize,
             (cycle, _, idx, is_node): (u64, u64, usize, bool)| {
                let target = if is_node {
                    node_down[idx] = false;
                    *alive_nodes += 1;
                    ChurnTarget::Node(idx as u32)
                } else {
                    link_down[idx] = false;
                    let (u, v) = edges[idx];
                    ChurnTarget::Link(u, v)
                };
                events.push(ChurnEvent {
                    cycle,
                    target,
                    failed: false,
                });
            };
        let mut cycle = 0u64;
        loop {
            let dt = ((-unit(&mut rng).ln() / total).ceil() as u64).max(1);
            cycle = cycle.saturating_add(dt);
            if cycle >= horizon || events.len() >= MAX_CHURN_EVENTS {
                break;
            }
            // Recoveries due at or before this failure commit first.
            while let Some(&Reverse(entry)) = pending.peek() {
                if entry.0 > cycle || events.len() >= MAX_CHURN_EVENTS {
                    break;
                }
                pending.pop();
                commit_recovery(
                    &mut events,
                    &mut node_down,
                    &mut link_down,
                    &mut alive_nodes,
                    entry,
                );
            }
            let pick_node = rng.gen_bool(node_rate / total);
            let (idx, is_node) = if pick_node {
                (rng.gen_range(0..n), true)
            } else if edges.is_empty() {
                continue;
            } else {
                (rng.gen_range(0..edges.len()), false)
            };
            let down = if is_node {
                node_down[idx] || alive_nodes <= 1
            } else {
                link_down[idx]
            };
            if down {
                continue; // already failed (or last survivor): no event
            }
            let target = if is_node {
                node_down[idx] = true;
                alive_nodes -= 1;
                ChurnTarget::Node(idx as u32)
            } else {
                link_down[idx] = true;
                let (u, v) = edges[idx];
                ChurnTarget::Link(u, v)
            };
            events.push(ChurnEvent {
                cycle,
                target,
                failed: true,
            });
            if mttr.is_finite() {
                let repair = ((-unit(&mut rng).ln() * mttr).ceil() as u64).max(1);
                pending.push(Reverse((cycle.saturating_add(repair), seq, idx, is_node)));
                seq += 1;
            }
        }
        // Recoveries still pending inside the horizon.
        while let Some(Reverse(entry)) = pending.pop() {
            if entry.0 >= horizon || events.len() >= MAX_CHURN_EVENTS {
                break;
            }
            commit_recovery(
                &mut events,
                &mut node_down,
                &mut link_down,
                &mut alive_nodes,
                entry,
            );
        }
        ChurnTimeline { events }
    }

    /// The events, sorted by commit cycle.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// `true` when the timeline holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Outcome of one fault-injection trial (static analysis).
#[derive(Clone, Debug)]
pub struct FaultTrial {
    /// Failed node ids.
    pub failed: Vec<u32>,
    /// Failed undirected links.
    pub failed_links: Vec<(u32, u32)>,
    /// Number of connected components among surviving nodes.
    pub surviving_components: usize,
    /// Fraction of surviving ordered pairs that remain mutually
    /// reachable, or `None` when fewer than two nodes survive (no pairs
    /// exist, so no fraction is defined).
    pub reachable_pair_fraction: Option<f64>,
    /// Mean ratio (rerouted distance / original distance) over surviving
    /// reachable pairs that were connected before, or `None` when no
    /// such pair exists.
    pub mean_dilation: Option<f64>,
}

/// The subgraph induced by the healthy nodes, with an id map back to the
/// original network (`new id → old id`).
pub fn healthy_subgraph(g: &CsrGraph, failed: &[u32]) -> (CsrGraph, Vec<u32>) {
    FaultSet::new(failed.iter().copied(), []).healthy_subgraph(g)
}

/// Static survivability analysis of one explicit [`FaultSet`]:
/// component count, reachable-pair fraction, and mean dilation of the
/// rerouted shortest paths. Distances come from one
/// [`DistanceTable`](crate::dist::DistanceTable) per (graph, fault set) —
/// the same type the live fault-masking router and the metrics table
/// share. `O(n²)` — meant for the static comparisons, not the live
/// engine.
///
/// The static analysis is inherently dense, so there is no implicit
/// fallback: topologies over the table byte budget
/// ([`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET)) are a
/// typed [`FaultError::TableTooLarge`], not a panic.
pub fn fault_set_trial(t: &dyn Topology, set: &FaultSet) -> Result<FaultTrial, FaultError> {
    let before = crate::dist::DistanceTable::healthy(t.graph()).map_err(table_err)?;
    Ok(fault_set_trial_with(t, set, &before))
}

/// [`fault_set_trial`] against a caller-provided healthy (pre-fault)
/// distance table, so repeated trials on the same topology —
/// [`fault_sweep`] runs `trials × fault_counts` of them — build the
/// fault-invariant table once instead of per trial.
fn fault_set_trial_with(
    t: &dyn Topology,
    set: &FaultSet,
    before: &crate::dist::DistanceTable,
) -> FaultTrial {
    let g = t.graph();
    let (healthy, survivors) = set.healthy_subgraph(g);
    let components = fibcube_graph::distance::component_count(&healthy);
    let after = crate::dist::DistanceTable::degraded(g, &set.masks(g));
    let mut reachable = 0u64;
    let mut pairs = 0u64;
    let mut dilation_sum = 0.0f64;
    let mut dilation_count = 0u64;
    for &u in &survivors {
        let after_row = after.to_dst(u);
        let before_row = before.to_dst(u);
        for &v in &survivors {
            if u == v {
                continue;
            }
            pairs += 1;
            let d_after = after_row[v as usize];
            if d_after != INFINITY {
                reachable += 1;
                let d_before = before_row[v as usize];
                if d_before != 0 && d_before != INFINITY {
                    dilation_sum += d_after as f64 / d_before as f64;
                    dilation_count += 1;
                }
            }
        }
    }
    FaultTrial {
        failed: set.failed_nodes().to_vec(),
        failed_links: set.failed_links().to_vec(),
        surviving_components: components,
        reachable_pair_fraction: (pairs > 0).then(|| reachable as f64 / pairs as f64),
        mean_dilation: (dilation_count > 0).then(|| dilation_sum / dilation_count as f64),
    }
}

/// Runs one fault trial: fail `faults` random distinct nodes (seeded),
/// then analyse the survivors. `Err` when `faults` would leave no
/// survivor.
pub fn fault_trial(t: &dyn Topology, faults: usize, seed: u64) -> Result<FaultTrial, FaultError> {
    let set = FaultSpec::Nodes { count: faults }.sample(t.graph(), seed)?;
    fault_set_trial(t, &set)
}

/// One aggregated row of a [`fault_sweep`].
#[derive(Clone, Debug)]
pub struct FaultSweepRow {
    /// Node faults injected per trial.
    pub faults: usize,
    /// Mean reachable-pair fraction over the trials that had survivor
    /// pairs (`None` when none did).
    pub mean_reachable_fraction: Option<f64>,
    /// Mean dilation over the trials that had rerouted pairs (`None`
    /// when none did).
    pub mean_dilation: Option<f64>,
}

/// Sweep: average reachable-pair fraction over `trials` seeds for each
/// fault count in `fault_counts`. `Err` on zero trials (no mean exists)
/// or on fault counts the topology cannot express.
pub fn fault_sweep(
    t: &dyn Topology,
    fault_counts: &[usize],
    trials: u64,
) -> Result<Vec<FaultSweepRow>, FaultError> {
    if trials == 0 {
        return Err(FaultError::ZeroTrials);
    }
    // The pre-fault distance table depends only on the graph: build it
    // once for the whole trials × fault_counts grid.
    let before = crate::dist::DistanceTable::healthy(t.graph()).map_err(table_err)?;
    fault_counts
        .iter()
        .map(|&k| {
            let mut frac = (0.0, 0u64);
            let mut dil = (0.0, 0u64);
            for s in 0..trials {
                let set = FaultSpec::Nodes { count: k }.sample(t.graph(), s * 7919 + k as u64)?;
                let tr = fault_set_trial_with(t, &set, &before);
                if let Some(x) = tr.reachable_pair_fraction {
                    frac = (frac.0 + x, frac.1 + 1);
                }
                if let Some(x) = tr.mean_dilation {
                    dil = (dil.0 + x, dil.1 + 1);
                }
            }
            Ok(FaultSweepRow {
                faults: k,
                mean_reachable_fraction: (frac.1 > 0).then(|| frac.0 / frac.1 as f64),
                mean_dilation: (dil.1 > 0).then(|| dil.0 / dil.1 as f64),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FibonacciNet, Hypercube, Ring};

    #[test]
    fn no_faults_changes_nothing() {
        let q = Hypercube::new(4);
        let tr = fault_trial(&q, 0, 1).unwrap();
        assert_eq!(tr.surviving_components, 1);
        assert_eq!(tr.reachable_pair_fraction, Some(1.0));
        assert_eq!(tr.mean_dilation, Some(1.0));
    }

    #[test]
    fn healthy_subgraph_structure() {
        let q = Hypercube::new(3);
        let (h, survivors) = healthy_subgraph(q.graph(), &[0]);
        assert_eq!(h.num_vertices(), 7);
        assert_eq!(survivors.len(), 7);
        // Q3 minus a vertex loses exactly its 3 incident edges.
        assert_eq!(h.num_edges(), 12 - 3);
    }

    #[test]
    fn single_fault_keeps_hypercube_connected() {
        // Q_d is d-connected: one failure never disconnects (d ≥ 2).
        for seed in 0..10 {
            let q = Hypercube::new(4);
            let tr = fault_trial(&q, 1, seed).unwrap();
            assert_eq!(tr.surviving_components, 1, "seed={seed}");
            assert_eq!(tr.reachable_pair_fraction, Some(1.0));
            assert!(tr.mean_dilation.unwrap() >= 1.0);
        }
    }

    #[test]
    fn fibonacci_cube_degrades_gracefully() {
        let net = FibonacciNet::classical(8); // 55 nodes
        let rows = fault_sweep(&net, &[0, 1, 4], 5).unwrap();
        assert_eq!(rows.len(), 3);
        let frac = |i: usize| rows[i].mean_reachable_fraction.unwrap();
        assert_eq!(frac(0), 1.0);
        // More faults never improve mean reachability.
        assert!(frac(0) >= frac(1));
        assert!(frac(1) >= frac(2) - 1e-9);
        // Γ_8 survives a single fault overwhelmingly: > 90% pairs reachable.
        assert!(frac(1) > 0.90, "{}", frac(1));
    }

    #[test]
    fn ring_splits_after_two_faults() {
        // Two failures cut a ring into ≤ 2 arcs; with random placement some
        // seeds must produce 2 components among survivors.
        let r = Ring::new(16);
        let mut saw_split = false;
        for seed in 0..20 {
            let tr = fault_trial(&r, 2, seed).unwrap();
            assert!(tr.surviving_components <= 2);
            if tr.surviving_components == 2 {
                saw_split = true;
            }
        }
        assert!(saw_split, "some seed must split the ring");
    }

    #[test]
    fn dilation_grows_with_detours() {
        // Failing a cut-ish vertex of Γ_5 forces longer reroutes.
        let net = FibonacciNet::classical(5);
        let tr = fault_trial(&net, 2, 3).unwrap();
        assert!(tr.mean_dilation.unwrap() >= 1.0);
    }

    #[test]
    fn over_large_fault_counts_are_typed_errors_not_panics() {
        // Satellite: `fault_trial` used to `assert!(faults < n)`.
        let q = Hypercube::new(3);
        assert_eq!(
            fault_trial(&q, 8, 0).unwrap_err(),
            FaultError::TooManyNodeFaults {
                requested: 8,
                nodes: 8
            }
        );
        assert!(fault_trial(&q, 100, 0).is_err());
        // And the error propagates through the sweep.
        let err = fault_sweep(&q, &[1, 8], 3).unwrap_err();
        assert!(
            err.to_string().contains("at least one must survive"),
            "{err}"
        );
    }

    #[test]
    fn zero_trial_sweep_is_an_error_not_nan() {
        // Satellite regression: trials == 0 used to divide by zero.
        let q = Hypercube::new(3);
        assert_eq!(
            fault_sweep(&q, &[1], 0).unwrap_err(),
            FaultError::ZeroTrials
        );
    }

    #[test]
    fn degenerate_survivor_counts_report_none() {
        // Satellite: n − 1 faults leave one survivor — zero pairs, so the
        // fractions are undefined, not a misleading 1.0.
        let q = Hypercube::new(2);
        let tr = fault_trial(&q, 3, 5).unwrap();
        assert_eq!(tr.failed.len(), 3);
        assert_eq!(tr.surviving_components, 1);
        assert_eq!(tr.reachable_pair_fraction, None);
        assert_eq!(tr.mean_dilation, None);
        // An all-degenerate sweep row carries the None through.
        let rows = fault_sweep(&q, &[3], 4).unwrap();
        assert_eq!(rows[0].mean_reachable_fraction, None);
        assert_eq!(rows[0].mean_dilation, None);
    }

    #[test]
    fn link_faults_remove_exactly_those_links() {
        let q = Hypercube::new(3);
        let set = FaultSpec::Links { count: 4 }.sample(q.graph(), 9).unwrap();
        assert_eq!(set.failed_links().len(), 4);
        assert!(set.failed_nodes().is_empty());
        let (h, survivors) = set.healthy_subgraph(q.graph());
        assert_eq!(survivors.len(), 8, "link faults keep every node");
        assert_eq!(h.num_edges(), 12 - 4);
        for &(u, v) in set.failed_links() {
            assert!(q.graph().has_edge(u, v));
            assert!(!h.has_edge(u, v));
            assert!(!set.link_alive(u, v));
        }
    }

    #[test]
    fn sampling_is_deterministic_and_in_bounds() {
        let net = FibonacciNet::classical(7);
        let spec = FaultSpec::Mixed(vec![
            FaultSpec::Nodes { count: 3 },
            FaultSpec::Links { count: 2 },
        ]);
        let a = spec.sample(net.graph(), 42).unwrap();
        assert_eq!(a, spec.sample(net.graph(), 42).unwrap());
        assert_ne!(a, spec.sample(net.graph(), 43).unwrap());
        assert_eq!(a.failed_nodes().len(), 3);
        assert_eq!(a.failed_links().len(), 2);
        for &v in a.failed_nodes() {
            assert!((v as usize) < net.len());
        }
    }

    #[test]
    fn explicit_lists_validate_against_the_graph() {
        let q = Hypercube::new(3);
        assert!(FaultSpec::NodeList(vec![0, 5]).validate(q.graph()).is_ok());
        assert_eq!(
            FaultSpec::NodeList(vec![9])
                .validate(q.graph())
                .unwrap_err(),
            FaultError::UnknownNode { node: 9, nodes: 8 }
        );
        // 0–3 differ in two bits: not a hypercube edge.
        assert_eq!(
            FaultSpec::LinkList(vec![(0, 3)])
                .validate(q.graph())
                .unwrap_err(),
            FaultError::UnknownLink { from: 0, to: 3 }
        );
        // Duplicates don't dodge the survivor check.
        let all = FaultSpec::NodeList((0..8).chain(0..8).collect());
        assert!(matches!(
            all.validate(q.graph()).unwrap_err(),
            FaultError::TooManyNodeFaults { requested: 8, .. }
        ));
    }

    #[test]
    fn fault_spec_round_trips_through_text() {
        let specs = [
            FaultSpec::None,
            FaultSpec::Nodes { count: 4 },
            FaultSpec::Links { count: 8 },
            FaultSpec::NodeList(vec![0, 3, 9]),
            FaultSpec::NodeList(vec![]),
            FaultSpec::LinkList(vec![(0, 1), (4, 7)]),
            FaultSpec::Mixed(vec![
                FaultSpec::Nodes { count: 2 },
                FaultSpec::Links { count: 3 },
            ]),
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: FaultSpec = text.parse().unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(parsed, spec, "round-trip of `{text}`");
        }
        // Whitespace tolerance.
        assert_eq!(
            " node_list( 1 , 2 ) ".parse::<FaultSpec>().unwrap(),
            FaultSpec::NodeList(vec![1, 2])
        );
    }

    #[test]
    fn fault_spec_rejects_malformed_text() {
        for bad in [
            "nonsense",
            "nodes",
            "nodes(count=three)",
            "nodes(n=3)",
            "links(count=1,count=2)",
            "link_list(1)",
            "link_list(1-)",
            "none(3)",
            "mix()",
            "",
        ] {
            let err = bad.parse::<FaultSpec>().expect_err(bad);
            assert!(err.to_string().contains("fault spec"), "{bad}: {err}");
        }
    }

    #[test]
    fn churn_spec_round_trips_and_validates() {
        let q = Hypercube::new(3);
        for spec in [
            FaultSpec::Churn {
                node_rate: 0.001,
                link_rate: 0.002,
                mttr: 500.0,
            },
            FaultSpec::Churn {
                node_rate: 0.0,
                link_rate: 0.0,
                mttr: f64::INFINITY,
            },
        ] {
            let text = spec.to_string();
            let parsed: FaultSpec = text.parse().unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(parsed, spec, "round-trip of `{text}`");
            assert!(spec.validate(q.graph()).is_ok(), "{text}");
            assert!(spec.is_churn());
            // Churn carries no static faults: sampling yields the empty set.
            assert!(spec.sample(q.graph(), 7).unwrap().is_empty());
        }
        assert!("churn(node_rate=0,link_rate=0.01,mttr=inf)"
            .parse::<FaultSpec>()
            .is_ok());
        for (bad, why) in [
            (
                FaultSpec::Churn {
                    node_rate: -0.1,
                    link_rate: 0.0,
                    mttr: 1.0,
                },
                "node_rate",
            ),
            (
                FaultSpec::Churn {
                    node_rate: 0.0,
                    link_rate: f64::NAN,
                    mttr: 1.0,
                },
                "link_rate",
            ),
            (
                FaultSpec::Churn {
                    node_rate: 0.1,
                    link_rate: 0.0,
                    mttr: 0.0,
                },
                "mttr",
            ),
        ] {
            let err = bad.validate(q.graph()).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
        }
        // Churn is standalone: nesting it in `mix` is a typed error.
        let nested = FaultSpec::Mixed(vec![FaultSpec::Churn {
            node_rate: 0.1,
            link_rate: 0.0,
            mttr: 1.0,
        }]);
        assert!(matches!(
            nested.validate(q.graph()).unwrap_err(),
            FaultError::InvalidChurn { .. }
        ));
        // Malformed text forms are parse errors.
        for bad in [
            "churn",
            "churn(node_rate=1)",
            "churn(node_rate=x,link_rate=0,mttr=1)",
        ] {
            assert!(bad.parse::<FaultSpec>().is_err(), "{bad}");
        }
    }

    #[test]
    fn churn_timeline_is_seeded_ordered_and_alternating() {
        let net = FibonacciNet::classical(8);
        let g = net.graph();
        let gen = |seed| ChurnTimeline::generate(g, 0.01, 0.02, 50.0, seed, 4_000);
        let a = gen(42);
        assert_eq!(a, gen(42), "deterministic in the seed");
        assert_ne!(a, gen(43), "distinct seeds decorrelate");
        assert!(!a.is_empty(), "these rates over 4k cycles must fire");
        assert!(a.len() <= MAX_CHURN_EVENTS);
        // Sorted by cycle, inside the horizon, strictly alternating per
        // target, starting with a failure.
        let mut last = 0u64;
        let mut state: std::collections::HashMap<ChurnTarget, bool> = Default::default();
        for e in a.events() {
            assert!(e.cycle >= last, "events out of order");
            assert!(e.cycle < 4_000);
            last = e.cycle;
            let down = state.entry(e.target).or_insert(false);
            assert_ne!(*down, e.failed, "fail/recover must alternate: {e:?}");
            *down = e.failed;
        }
        // Finite MTTR heals: some recoveries appear.
        assert!(a.events().iter().any(|e| !e.failed), "no recoveries");
        // Infinite MTTR never heals.
        let forever = ChurnTimeline::generate(g, 0.01, 0.02, f64::INFINITY, 42, 4_000);
        assert!(forever.events().iter().all(|e| e.failed));
        // Zero rate → empty timeline.
        assert!(ChurnTimeline::generate(g, 0.0, 0.0, 50.0, 1, 4_000).is_empty());
    }

    #[test]
    fn oversized_static_analyses_are_typed_errors() {
        // Satellite: `fault_set_trial`/`fault_sweep` used to `expect` on
        // the table budget. 20 000 isolated nodes → 1.6 GB dense table.
        struct Big(CsrGraph);
        impl Topology for Big {
            fn name(&self) -> String {
                "big".to_string()
            }
            fn len(&self) -> usize {
                self.0.num_vertices()
            }
            fn graph(&self) -> &CsrGraph {
                &self.0
            }
            fn next_hop(&self, _cur: u32, _dst: u32) -> Option<u32> {
                None
            }
        }
        let big = Big(CsrGraph::empty(20_000));
        let err = fault_set_trial(&big, &FaultSet::empty()).unwrap_err();
        assert!(matches!(err, FaultError::TableTooLarge { .. }), "{err}");
        assert!(err.to_string().contains("byte budget"), "{err}");
        let err = fault_sweep(&big, &[1], 2).unwrap_err();
        assert!(matches!(err, FaultError::TableTooLarge { .. }), "{err}");
    }

    #[test]
    fn fault_set_normalises_and_answers_queries() {
        let set = FaultSet::new([5, 1, 5], [(4, 2), (2, 4), (0, 1)]);
        assert_eq!(set.failed_nodes(), &[1, 5]);
        assert_eq!(set.failed_links(), &[(0, 1), (2, 4)]);
        assert!(!set.node_alive(1));
        assert!(set.node_alive(0));
        // Link 0–1 failed explicitly; 0–2 dies with neither endpoint.
        assert!(!set.link_alive(0, 1));
        assert!(set.link_alive(0, 2));
        // A link incident to a dead node is dead regardless of the list.
        assert!(!set.link_alive(5, 0));
        assert!(FaultSet::empty().is_empty());
        assert!(!set.is_empty());
    }
}
