//! Switching-model selection: store-and-forward vs flit-level wormhole
//! with virtual channels.
//!
//! [`SwitchingSpec`] is the switching half of an
//! [`Experiment`](crate::experiment::Experiment), parallel to
//! [`TrafficSpec`](crate::traffic::TrafficSpec) /
//! [`FaultSpec`](crate::fault::FaultSpec): a declarative, round-tripping
//! description of how packets occupy the network while they move.
//!
//! Canonical text forms ([`Display`](core::fmt::Display) /
//! [`FromStr`] round-trip):
//!
//! | Variant | Text |
//! |---|---|
//! | `StoreAndForward` | `store_and_forward` |
//! | `Wormhole` | `wormhole(flit_size=8,vcs=2,buf_flits=4)` |
//!
//! Under store-and-forward (the model of the '93 paper) a packet is an
//! indivisible unit that fully leaves one link queue before entering the
//! next. Under wormhole switching each packet of
//! [`PACKET_LENGTH_UNITS`] phits is split into
//! `ceil(PACKET_LENGTH_UNITS / flit_size)` flits that advance as a
//! pipelined *worm*: the head flit allocates a chain of per-(link ×
//! virtual-channel) buffers and the body follows it, so one blocked
//! packet holds buffer space on every link it spans — the
//! characteristic coupling that makes wormhole latency
//! distance-insensitive at low load and makes deadlock a real hazard at
//! high load. The engine runs it (through
//! [`Experiment::switching`](crate::experiment::Experiment::switching))
//! with credit-based backpressure (a flit only advances when the next buffer
//! has a free slot) and one flit crossing per physical link per cycle.
//!
//! # Deadlock freedom: order-based routing ⇒ acyclic channel dependencies
//!
//! A wormhole deadlock is a cycle in the *channel-dependency graph*
//! (CDG): buffer `(e₁,v₁)` depends on `(e₂,v₂)` when a packet holding a
//! flit in the former must wait for space in the latter. Dally & Seitz:
//! if the CDG restricted to the dependencies routing can actually
//! generate is acyclic, no deadlocked configuration exists.
//!
//! The repo's deterministic routers are **order-based**:
//! [`Topology::channel_class`](crate::topology::Topology::channel_class)
//! assigns every directed link a class such that the classes visited
//! along any route are strictly increasing — e-cube on `Q_d` fixes bit
//! positions in ascending order, the canonical `Γ_d` router clears 1→0
//! positions left-to-right and then sets 0→1 positions left-to-right
//! (two disjoint ascending phases), X-then-Y on the mesh and the
//! direction-split ring are classed the same way. The engine gives each
//! packet a VC *level*, starting at 0, and bumps it (saturating at
//! `vcs − 1`) exactly when the next hop's class does not exceed the
//! previous hop's class. A flit in buffer `(e, v)` therefore only ever
//! waits for a buffer `(e', v')` with `(v', class(e'))` strictly greater
//! than `(v, class(e))` in lexicographic order — as long as the level
//! never saturates, every CDG edge increases that key, so no cycle can
//! close and blocking always resolves. For strictly order-based routes
//! the level never moves at all on `Γ_d`/`Q_d`/mesh (one VC suffices)
//! and moves at most once on the ring (the wrap-around link is the
//! dateline; two VCs suffice). Adaptive and fault-masked detours are
//! *not* order-based: they may burn levels until the clamp, after which
//! the construction is best-effort — the equivalence and deadlock gates
//! therefore run on the deterministic routers, and faulted wormhole
//! runs are validated through the degenerate single-flit configuration.
//!
//! # Degenerate equivalence
//!
//! `wormhole(flit_size ≥ PACKET_LENGTH_UNITS, vcs=1, buf_flits ≫ 1)`
//! collapses to store-and-forward: one flit per packet, no worm ever
//! spans two links, and ample buffers never exert backpressure. The
//! engine is constructed so this configuration is packet-for-packet
//! identical to the store-and-forward arena engine — the oracle that
//! gates the whole subsystem.

use core::fmt;
use core::str::FromStr;

use crate::experiment::ExperimentError;
use crate::observer::SimObserver;
use crate::report::JsonValue;
use crate::traffic::{num, parse_kv, split_call};

/// Fixed packet length in phits: every packet carries this much payload,
/// so `flit_size` alone decides how many flits a packet splits into.
/// Chosen to match a 32-byte header+word message on a phit-wide channel.
pub const PACKET_LENGTH_UNITS: u32 = 32;

/// A declarative switching-model description, attached to an experiment
/// with [`Experiment::switching`](crate::experiment::Experiment::switching).
/// See the [module docs](self) for the semantics of each model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SwitchingSpec {
    /// Whole packets hop queue-to-queue — the synchronous
    /// store-and-forward model of the '93 paper (the default).
    #[default]
    StoreAndForward,
    /// Flit-level wormhole switching with virtual channels and
    /// credit-based backpressure.
    Wormhole {
        /// Flit payload in phits; packets split into
        /// `ceil(PACKET_LENGTH_UNITS / flit_size)` flits.
        flit_size: u32,
        /// Virtual channels per physical link (VC levels available for
        /// the deadlock-avoidance scheme).
        vcs: u32,
        /// Buffer capacity per (link × VC) in flits — the credit pool
        /// backpressure is counted against.
        buf_flits: u32,
    },
}

impl SwitchingSpec {
    /// Checks the spec's parameters, returning a typed error instead of
    /// a downstream panic: every wormhole figure must be at least 1.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if let SwitchingSpec::Wormhole {
            flit_size,
            vcs,
            buf_flits,
        } = *self
        {
            let invalid = |reason: String| {
                Err(ExperimentError::InvalidSwitching {
                    spec: self.to_string(),
                    reason,
                })
            };
            if flit_size == 0 {
                return invalid("flit_size must be at least 1 phit".to_string());
            }
            if vcs == 0 {
                return invalid("vcs must be at least 1".to_string());
            }
            if buf_flits == 0 {
                return invalid("buf_flits must be at least 1".to_string());
            }
        }
        Ok(())
    }

    /// `true` for the wormhole variant.
    pub fn is_wormhole(&self) -> bool {
        matches!(self, SwitchingSpec::Wormhole { .. })
    }

    /// Flits per packet under this model: 1 for store-and-forward (the
    /// packet is the unit), `ceil(PACKET_LENGTH_UNITS / flit_size)` for
    /// wormhole — so `flit_size ≥ PACKET_LENGTH_UNITS` is the degenerate
    /// single-flit configuration.
    pub fn flits_per_packet(&self) -> u32 {
        match *self {
            SwitchingSpec::StoreAndForward => 1,
            SwitchingSpec::Wormhole { flit_size, .. } => {
                PACKET_LENGTH_UNITS.div_ceil(flit_size.max(1))
            }
        }
    }
}

impl fmt::Display for SwitchingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchingSpec::StoreAndForward => write!(f, "store_and_forward"),
            SwitchingSpec::Wormhole {
                flit_size,
                vcs,
                buf_flits,
            } => write!(
                f,
                "wormhole(flit_size={flit_size},vcs={vcs},buf_flits={buf_flits})"
            ),
        }
    }
}

fn parse_err(input: &str, reason: impl Into<String>) -> ExperimentError {
    ExperimentError::ParseSpec {
        what: "switching",
        input: input.to_string(),
        reason: reason.into(),
    }
}

impl FromStr for SwitchingSpec {
    type Err = ExperimentError;

    fn from_str(s: &str) -> Result<SwitchingSpec, ExperimentError> {
        let s = s.trim();
        let (name, body) = split_call(s).map_err(|e| parse_err(s, e))?;
        match name {
            "store_and_forward" => match body {
                None | Some("") => Ok(SwitchingSpec::StoreAndForward),
                Some(extra) => Err(parse_err(
                    s,
                    format!("`store_and_forward` takes no arguments: `{extra}`"),
                )),
            },
            "wormhole" => {
                let body = body.ok_or_else(|| {
                    parse_err(
                        s,
                        "`wormhole` needs arguments, e.g. \
                         `wormhole(flit_size=8,vcs=2,buf_flits=4)`",
                    )
                })?;
                let v = parse_kv(body, &["flit_size", "vcs", "buf_flits"])
                    .map_err(|e| parse_err(s, e))?;
                let spec = SwitchingSpec::Wormhole {
                    flit_size: num(v[0], "flit_size").map_err(|e| parse_err(s, e))?,
                    vcs: num(v[1], "vcs").map_err(|e| parse_err(s, e))?,
                    buf_flits: num(v[2], "buf_flits").map_err(|e| parse_err(s, e))?,
                };
                spec.validate()?;
                Ok(spec)
            }
            other => Err(parse_err(
                s,
                format!("unknown switching model `{other}` (expected store_and_forward, wormhole)"),
            )),
        }
    }
}

/// Observer that aggregates the wormhole engine's
/// [`on_flit_hop`](SimObserver::on_flit_hop) stream into a per-VC
/// profile: flit-buffer entries and peak buffer occupancy per virtual
/// channel. Attach with
/// [`Experiment::observe`](crate::experiment::Experiment::observe); the
/// report gains a `vc_occupancy` section. Under store-and-forward (no
/// flit events) the section is empty but present.
#[derive(Clone, Debug, Default)]
pub struct VcOccupancy {
    flit_hops: Vec<u64>,
    peak_occupancy: Vec<u32>,
}

impl VcOccupancy {
    /// Creates an empty profile; VC lanes appear as flits touch them.
    pub fn new() -> VcOccupancy {
        VcOccupancy::default()
    }

    /// Flit-buffer entries observed on virtual channel `vc` (0 for lanes
    /// never touched).
    pub fn flit_hops(&self, vc: u32) -> u64 {
        self.flit_hops.get(vc as usize).copied().unwrap_or(0)
    }

    /// Highest buffer occupancy observed on virtual channel `vc`.
    pub fn peak_occupancy(&self, vc: u32) -> u32 {
        self.peak_occupancy.get(vc as usize).copied().unwrap_or(0)
    }

    /// Total flit-buffer entries across all VCs.
    pub fn total_flit_hops(&self) -> u64 {
        self.flit_hops.iter().sum()
    }
}

impl SimObserver for VcOccupancy {
    fn on_flit_hop(&mut self, _cycle: u64, _edge: usize, vc: u32, occupancy: u32) {
        let lane = vc as usize;
        if lane >= self.flit_hops.len() {
            self.flit_hops.resize(lane + 1, 0);
            self.peak_occupancy.resize(lane + 1, 0);
        }
        self.flit_hops[lane] += 1;
        self.peak_occupancy[lane] = self.peak_occupancy[lane].max(occupancy);
    }

    fn sections(&self) -> Vec<(String, JsonValue)> {
        vec![(
            "vc_occupancy".to_string(),
            JsonValue::obj([
                ("vcs_touched", JsonValue::Int(self.flit_hops.len() as u64)),
                ("total_flit_hops", JsonValue::Int(self.total_flit_hops())),
                (
                    "flit_hops",
                    JsonValue::Arr(self.flit_hops.iter().map(|&h| JsonValue::Int(h)).collect()),
                ),
                (
                    "peak_occupancy",
                    JsonValue::Arr(
                        self.peak_occupancy
                            .iter()
                            .map(|&p| JsonValue::Int(p as u64))
                            .collect(),
                    ),
                ),
            ]),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_from_str_round_trips() {
        let specs = [
            SwitchingSpec::StoreAndForward,
            SwitchingSpec::Wormhole {
                flit_size: 8,
                vcs: 2,
                buf_flits: 4,
            },
            SwitchingSpec::Wormhole {
                flit_size: PACKET_LENGTH_UNITS,
                vcs: 1,
                buf_flits: 1,
            },
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: SwitchingSpec = text.parse().unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(parsed, spec, "round-trip of `{text}`");
        }
    }

    #[test]
    fn from_str_accepts_whitespace_and_key_order() {
        let spec: SwitchingSpec = " wormhole(vcs=2, buf_flits=4, flit_size=8) "
            .parse()
            .unwrap();
        assert_eq!(
            spec,
            SwitchingSpec::Wormhole {
                flit_size: 8,
                vcs: 2,
                buf_flits: 4
            }
        );
    }

    #[test]
    fn from_str_rejects_malformed_specs() {
        for bad in [
            "cut_through",
            "wormhole",
            "wormhole()",
            "wormhole(flit_size=8)",
            "wormhole(flit_size=8,vcs=2,buf_flits=4,extra=1)",
            "wormhole(flit_size=eight,vcs=2,buf_flits=4)",
            "wormhole(flit_size=8,flit_size=8,vcs=2)",
            "wormhole(flit_size=8,vcs=2,buf_flits=4",
            "wormhole(flit_size=0,vcs=2,buf_flits=4)",
            "wormhole(flit_size=8,vcs=0,buf_flits=4)",
            "wormhole(flit_size=8,vcs=2,buf_flits=0)",
            "store_and_forward(1)",
            "",
        ] {
            let err = bad.parse::<SwitchingSpec>().expect_err(bad);
            assert!(err.to_string().contains("switching"), "{bad}: {err}");
        }
    }

    #[test]
    fn flit_count_tracks_flit_size() {
        let worm = |flit_size| SwitchingSpec::Wormhole {
            flit_size,
            vcs: 1,
            buf_flits: 1,
        };
        assert_eq!(SwitchingSpec::StoreAndForward.flits_per_packet(), 1);
        assert_eq!(worm(PACKET_LENGTH_UNITS).flits_per_packet(), 1);
        assert_eq!(worm(PACKET_LENGTH_UNITS + 9).flits_per_packet(), 1);
        assert_eq!(worm(PACKET_LENGTH_UNITS / 2).flits_per_packet(), 2);
        assert_eq!(worm(1).flits_per_packet(), PACKET_LENGTH_UNITS);
        assert_eq!(worm(5).flits_per_packet(), 7); // ceil(32 / 5)
    }

    #[test]
    fn validate_rejects_zero_parameters() {
        for (flit_size, vcs, buf_flits) in [(0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            let err = SwitchingSpec::Wormhole {
                flit_size,
                vcs,
                buf_flits,
            }
            .validate()
            .expect_err("zero parameter");
            assert!(matches!(err, ExperimentError::InvalidSwitching { .. }));
            assert!(err.to_string().contains("switching"), "{err}");
        }
        assert!(SwitchingSpec::StoreAndForward.validate().is_ok());
    }

    #[test]
    fn vc_occupancy_profiles_flit_hops() {
        let mut vc = VcOccupancy::new();
        vc.on_flit_hop(0, 3, 0, 1);
        vc.on_flit_hop(1, 3, 0, 3);
        vc.on_flit_hop(1, 7, 2, 2);
        assert_eq!(vc.flit_hops(0), 2);
        assert_eq!(vc.flit_hops(1), 0);
        assert_eq!(vc.flit_hops(2), 1);
        assert_eq!(vc.peak_occupancy(0), 3);
        assert_eq!(vc.peak_occupancy(2), 2);
        assert_eq!(vc.total_flit_hops(), 3);
        let sections = vc.sections();
        assert_eq!(sections[0].0, "vc_occupancy");
        let text = format!("{}", sections[0].1);
        assert!(text.contains("\"vcs_touched\": 3"), "{text}");
        assert!(text.contains("\"total_flit_hops\": 3"), "{text}");
    }
}
