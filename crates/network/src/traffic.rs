//! Workload generation for the network simulator (seeded, reproducible).
//!
//! The one type to know is [`TrafficSpec`]: a declarative, parseable
//! description of a workload (`uniform(count=2000,window=400)`,
//! `bernoulli(rate=0.05,cycles=400)`, …) that
//! [`Experiment`](crate::experiment::Experiment) turns into packets.
//! [`TrafficSpec::generate`] is deterministic in `(spec, n, seed)`, and
//! [`Display`](core::fmt::Display)/[`FromStr`]
//! round-trip, so scenarios can live on a CLI flag or in a JSON report
//! and reproduce exactly. (The pre-`Experiment` free functions —
//! `uniform`, `hot_spot`, `complement_permutation`, `bernoulli`,
//! `all_to_all` — were deprecated for one release and are now gone;
//! the corresponding [`TrafficSpec`] variant generates the identical
//! packet stream.)

use core::fmt;
use core::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::experiment::ExperimentError;

/// One message to deliver.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Cycle at which the packet enters the source's injection queue.
    pub inject_time: u64,
}

// ---------------------------------------------------------------------------
// Generator implementations
// ---------------------------------------------------------------------------

fn gen_uniform(n: usize, count: usize, window: u64, seed: u64) -> Vec<Packet> {
    assert!(n >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let src = rng.gen_range(0..n) as u32;
            let mut dst = rng.gen_range(0..n) as u32;
            while dst == src {
                dst = rng.gen_range(0..n) as u32;
            }
            let inject_time = if window == 0 {
                0
            } else {
                rng.gen_range(0..window)
            };
            Packet {
                src,
                dst,
                inject_time,
            }
        })
        .collect()
}

fn gen_hot_spot(n: usize, count: usize, window: u64, hot_fraction: f64, seed: u64) -> Vec<Packet> {
    assert!((0.0..=1.0).contains(&hot_fraction));
    let mut packets = gen_uniform(n, count, window, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    for p in packets.iter_mut() {
        if rng.gen_bool(hot_fraction) && p.src != 0 {
            p.dst = 0;
        }
    }
    packets
}

fn gen_complement(n: usize, window: u64) -> Vec<Packet> {
    (0..n)
        .filter(|&i| n - 1 - i != i)
        .map(|i| Packet {
            src: i as u32,
            dst: (n - 1 - i) as u32,
            inject_time: (i as u64) % window.max(1),
        })
        .collect()
}

fn gen_bernoulli(n: usize, rate: f64, cycles: u64, seed: u64) -> Vec<Packet> {
    assert!(n >= 2, "need at least two nodes");
    assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::with_capacity((n as f64 * cycles as f64 * rate) as usize + 16);
    for src in 0..n as u32 {
        for t in 0..cycles {
            if rng.gen_bool(rate) {
                let mut dst = rng.gen_range(0..n) as u32;
                while dst == src {
                    dst = rng.gen_range(0..n) as u32;
                }
                packets.push(Packet {
                    src,
                    dst,
                    inject_time: t,
                });
            }
        }
    }
    packets
}

fn gen_all_to_all(n: usize) -> Vec<Packet> {
    let mut packets = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s != d {
                packets.push(Packet {
                    src: s,
                    dst: d,
                    inject_time: 0,
                });
            }
        }
    }
    packets
}

// ---------------------------------------------------------------------------
// TrafficSpec
// ---------------------------------------------------------------------------

/// A declarative workload description, the traffic half of an
/// [`Experiment`](crate::experiment::Experiment).
///
/// Canonical text forms (round-tripping through `Display`/`FromStr`):
///
/// | Variant | Text |
/// |---|---|
/// | `Uniform` | `uniform(count=2000,window=400)` |
/// | `HotSpot` | `hotspot(count=2000,window=400,hot=0.3)` |
/// | `Bernoulli` | `bernoulli(rate=0.05,cycles=400)` |
/// | `ComplementPermutation` | `complement(window=8)` |
/// | `AllToAll` | `alltoall` |
/// | `RequestReply` | `request_reply(clients=64,think=50,timeout=200,retries=3)` |
/// | `Mixed` | `mix(uniform(count=100,window=50)+alltoall)` |
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficSpec {
    /// `count` packets, sources and destinations uniform (src ≠ dst),
    /// injection times uniform in `0..window` (all at 0 when `window` is
    /// 0).
    Uniform {
        /// Number of packets.
        count: usize,
        /// Injection window in cycles.
        window: u64,
    },
    /// Like `Uniform`, but each packet is redirected to the hot node
    /// (node 0) with probability `hot_fraction` — the classic contention
    /// stressor.
    HotSpot {
        /// Number of packets.
        count: usize,
        /// Injection window in cycles.
        window: u64,
        /// Probability that a packet aims at node 0.
        hot_fraction: f64,
    },
    /// Open-loop Bernoulli injection: during each cycle in `0..cycles`
    /// every node independently injects with probability `rate`
    /// (packets per node per cycle) toward a uniform random other node —
    /// the workload of saturation sweeps.
    Bernoulli {
        /// Injection probability per node per cycle.
        rate: f64,
        /// Number of injection cycles.
        cycles: u64,
    },
    /// Node `i` sends to node `n − 1 − i` (rank complement — on
    /// hypercubes with in-order ranks, the classic bit-complement
    /// adversary for dimension-ordered routing).
    ComplementPermutation {
        /// Injection window in cycles (staggers the permutation).
        window: u64,
    },
    /// Every ordered pair once, all at cycle 0 (quadratic — small nets).
    AllToAll,
    /// Closed-loop request–reply clients with timeout-and-retry
    /// delivery: `clients` sessions each run think → request → reply
    /// transactions, re-sending after `timeout` cycles of silence with
    /// seeded exponential backoff until the `retries` budget is spent
    /// (then the transaction drops as `retries_exhausted`). Closed-loop
    /// sources react to the network, so this variant has no finite
    /// packet list — [`generate`](TrafficSpec::generate) panics and
    /// [`Experiment`](crate::experiment::Experiment) runs it as a
    /// closed-loop session workload.
    RequestReply {
        /// Number of concurrent client sessions.
        clients: usize,
        /// Mean think time between transactions (cycles, exponential).
        think: f64,
        /// Cycles of silence before a transaction attempt is retried.
        timeout: u64,
        /// Retry budget per transaction (0 = fail on first timeout).
        retries: u32,
    },
    /// Superposition of component workloads; component `i` draws from a
    /// decorrelated seed, and the packet streams concatenate.
    Mixed(Vec<TrafficSpec>),
}

impl TrafficSpec {
    /// Checks the spec against a network of `n` nodes, returning a typed
    /// error instead of the panic [`generate`](TrafficSpec::generate)
    /// would raise.
    pub fn validate(&self, n: usize) -> Result<(), ExperimentError> {
        let invalid = |reason: String| {
            Err(ExperimentError::InvalidTraffic {
                spec: self.to_string(),
                reason,
            })
        };
        match self {
            TrafficSpec::Uniform { .. } | TrafficSpec::Bernoulli { .. } if n < 2 => {
                invalid(format!("needs at least 2 nodes, topology has {n}"))
            }
            TrafficSpec::HotSpot { hot_fraction, .. } => {
                if n < 2 {
                    invalid(format!("needs at least 2 nodes, topology has {n}"))
                } else if !(0.0..=1.0).contains(hot_fraction) {
                    invalid(format!("hot fraction {hot_fraction} is not a probability"))
                } else {
                    Ok(())
                }
            }
            TrafficSpec::Bernoulli { rate, .. } if !(0.0..=1.0).contains(rate) => {
                invalid(format!("rate {rate} is not a probability"))
            }
            TrafficSpec::RequestReply {
                clients,
                think,
                timeout,
                ..
            } => {
                if n < 2 {
                    invalid(format!("needs at least 2 nodes, topology has {n}"))
                } else if *clients == 0 {
                    invalid("needs at least one client session".to_string())
                } else if !think.is_finite() || *think < 0.0 {
                    invalid(format!("think time {think} must be finite and ≥ 0"))
                } else if *timeout == 0 {
                    invalid("timeout must be at least 1 cycle".to_string())
                } else {
                    Ok(())
                }
            }
            TrafficSpec::Mixed(parts) => {
                if parts.is_empty() {
                    return invalid("mix needs at least one component".to_string());
                }
                if parts
                    .iter()
                    .any(|p| matches!(p, TrafficSpec::RequestReply { .. }))
                {
                    return invalid(
                        "request_reply is closed-loop and cannot be a mix component".to_string(),
                    );
                }
                parts.iter().try_for_each(|p| p.validate(n))
            }
            _ => Ok(()),
        }
    }

    /// Generates the packet stream for a network of `n` nodes.
    /// Deterministic in `(self, n, seed)`; patterned variants
    /// (`ComplementPermutation`, `AllToAll`) ignore the seed.
    ///
    /// # Panics
    ///
    /// On specs that [`validate`](TrafficSpec::validate) would reject,
    /// and on [`RequestReply`](TrafficSpec::RequestReply), whose
    /// closed-loop sources react to the network and therefore have no
    /// precomputable packet list (the experiment layer runs it as a
    /// closed-loop session workload).
    pub fn generate(&self, n: usize, seed: u64) -> Vec<Packet> {
        match *self {
            TrafficSpec::Uniform { count, window } => gen_uniform(n, count, window, seed),
            TrafficSpec::HotSpot {
                count,
                window,
                hot_fraction,
            } => gen_hot_spot(n, count, window, hot_fraction, seed),
            TrafficSpec::Bernoulli { rate, cycles } => gen_bernoulli(n, rate, cycles, seed),
            TrafficSpec::ComplementPermutation { window } => gen_complement(n, window),
            TrafficSpec::AllToAll => gen_all_to_all(n),
            TrafficSpec::RequestReply { .. } => {
                panic!("request_reply is closed-loop: no packet list exists before the run")
            }
            TrafficSpec::Mixed(ref parts) => {
                assert!(!parts.is_empty(), "mix needs at least one component");
                let mut packets = Vec::new();
                for (i, part) in parts.iter().enumerate() {
                    // Golden-ratio stride decorrelates component streams.
                    let part_seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    packets.extend(part.generate(n, part_seed));
                }
                packets
            }
        }
    }
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficSpec::Uniform { count, window } => {
                write!(f, "uniform(count={count},window={window})")
            }
            TrafficSpec::HotSpot {
                count,
                window,
                hot_fraction,
            } => write!(
                f,
                "hotspot(count={count},window={window},hot={hot_fraction})"
            ),
            TrafficSpec::Bernoulli { rate, cycles } => {
                write!(f, "bernoulli(rate={rate},cycles={cycles})")
            }
            TrafficSpec::ComplementPermutation { window } => {
                write!(f, "complement(window={window})")
            }
            TrafficSpec::AllToAll => write!(f, "alltoall"),
            TrafficSpec::RequestReply {
                clients,
                think,
                timeout,
                retries,
            } => write!(
                f,
                "request_reply(clients={clients},think={think},timeout={timeout},retries={retries})"
            ),
            TrafficSpec::Mixed(parts) => {
                write!(f, "mix(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

fn parse_err(input: &str, reason: impl Into<String>) -> ExperimentError {
    ExperimentError::ParseSpec {
        what: "traffic",
        input: input.to_string(),
        reason: reason.into(),
    }
}

/// Splits `name(body)` into `(name, Some(body))`, or `(s, None)` for a
/// bare name. The closing parenthesis must be the final character.
/// Shared with the [`FaultSpec`](crate::fault::FaultSpec) parser.
pub(crate) fn split_call(s: &str) -> Result<(&str, Option<&str>), String> {
    match s.find('(') {
        None => Ok((s, None)),
        Some(open) => {
            if !s.ends_with(')') {
                return Err("missing closing `)`".to_string());
            }
            Ok((&s[..open], Some(&s[open + 1..s.len() - 1])))
        }
    }
}

/// Parses `key=value` pairs separated by commas, checking that exactly
/// the expected keys appear (in any order).
pub(crate) fn parse_kv<'a>(body: &'a str, keys: &[&str]) -> Result<Vec<&'a str>, String> {
    let (required, _) = parse_kv_opt(body, keys, &[])?;
    Ok(required)
}

/// Like [`parse_kv`], but with a second set of keys that may be omitted:
/// returns the required values in `required` order and the optional
/// values (`None` when absent) in `optional` order. Shared with the
/// [`CollectiveSpec`](crate::collective::CollectiveSpec) parser, whose
/// `port` key defaults when left out.
pub(crate) fn parse_kv_opt<'a>(
    body: &'a str,
    required: &[&str],
    optional: &[&str],
) -> Result<(Vec<&'a str>, Vec<Option<&'a str>>), String> {
    let mut req: Vec<Option<&str>> = vec![None; required.len()];
    let mut opt: Vec<Option<&str>> = vec![None; optional.len()];
    for part in body.split(',') {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("expected `key=value`, got `{part}`"))?;
        let (k, v) = (k.trim(), v.trim());
        let slot = if let Some(i) = required.iter().position(|&want| want == k) {
            &mut req[i]
        } else if let Some(i) = optional.iter().position(|&want| want == k) {
            &mut opt[i]
        } else {
            let known: Vec<&str> = required.iter().chain(optional).copied().collect();
            return Err(format!("unknown key `{k}` (expected {})", known.join(", ")));
        };
        if slot.replace(v).is_some() {
            return Err(format!("duplicate key `{k}`"));
        }
    }
    let req = req
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.ok_or_else(|| format!("missing key `{}`", required[i])))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((req, opt))
}

pub(crate) fn num<T: FromStr>(value: &str, key: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{key}` has invalid value `{value}`"))
}

/// Splits the body of `mix(...)` on `+` at parenthesis depth 0.
pub(crate) fn split_mix(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            '+' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

impl FromStr for TrafficSpec {
    type Err = ExperimentError;

    fn from_str(s: &str) -> Result<TrafficSpec, ExperimentError> {
        let s = s.trim();
        let (name, body) = split_call(s).map_err(|e| parse_err(s, e))?;
        let body_or = |kind: &str| {
            body.ok_or_else(|| {
                parse_err(s, format!("`{kind}` needs arguments, e.g. `{kind}(...)`"))
            })
        };
        match name {
            "uniform" => {
                let v = parse_kv(body_or("uniform")?, &["count", "window"])
                    .map_err(|e| parse_err(s, e))?;
                Ok(TrafficSpec::Uniform {
                    count: num(v[0], "count").map_err(|e| parse_err(s, e))?,
                    window: num(v[1], "window").map_err(|e| parse_err(s, e))?,
                })
            }
            "hotspot" => {
                let v = parse_kv(body_or("hotspot")?, &["count", "window", "hot"])
                    .map_err(|e| parse_err(s, e))?;
                Ok(TrafficSpec::HotSpot {
                    count: num(v[0], "count").map_err(|e| parse_err(s, e))?,
                    window: num(v[1], "window").map_err(|e| parse_err(s, e))?,
                    hot_fraction: num(v[2], "hot").map_err(|e| parse_err(s, e))?,
                })
            }
            "bernoulli" => {
                let v = parse_kv(body_or("bernoulli")?, &["rate", "cycles"])
                    .map_err(|e| parse_err(s, e))?;
                Ok(TrafficSpec::Bernoulli {
                    rate: num(v[0], "rate").map_err(|e| parse_err(s, e))?,
                    cycles: num(v[1], "cycles").map_err(|e| parse_err(s, e))?,
                })
            }
            "complement" => {
                let v =
                    parse_kv(body_or("complement")?, &["window"]).map_err(|e| parse_err(s, e))?;
                Ok(TrafficSpec::ComplementPermutation {
                    window: num(v[0], "window").map_err(|e| parse_err(s, e))?,
                })
            }
            "alltoall" => match body {
                None | Some("") => Ok(TrafficSpec::AllToAll),
                Some(extra) => Err(parse_err(
                    s,
                    format!("`alltoall` takes no arguments: `{extra}`"),
                )),
            },
            "request_reply" => {
                let v = parse_kv(
                    body_or("request_reply")?,
                    &["clients", "think", "timeout", "retries"],
                )
                .map_err(|e| parse_err(s, e))?;
                Ok(TrafficSpec::RequestReply {
                    clients: num(v[0], "clients").map_err(|e| parse_err(s, e))?,
                    think: num(v[1], "think").map_err(|e| parse_err(s, e))?,
                    timeout: num(v[2], "timeout").map_err(|e| parse_err(s, e))?,
                    retries: num(v[3], "retries").map_err(|e| parse_err(s, e))?,
                })
            }
            "mix" => {
                let body = body_or("mix")?;
                if body.trim().is_empty() {
                    return Err(parse_err(s, "mix needs at least one component"));
                }
                let parts = split_mix(body)
                    .into_iter()
                    .map(TrafficSpec::from_str)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(TrafficSpec::Mixed(parts))
            }
            other => Err(parse_err(
                s,
                format!(
                    "unknown generator `{other}` (expected uniform, hotspot, bernoulli, \
                     complement, alltoall, request_reply, mix)"
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_spec(count: usize, window: u64) -> TrafficSpec {
        TrafficSpec::Uniform { count, window }
    }

    #[test]
    fn uniform_is_deterministic_and_valid() {
        let spec = uniform_spec(100, 50);
        let a = spec.generate(10, 7);
        assert_eq!(a, spec.generate(10, 7));
        assert_ne!(a, spec.generate(10, 8));
        for p in &a {
            assert_ne!(p.src, p.dst);
            assert!(p.src < 10 && p.dst < 10);
            assert!(p.inject_time < 50);
        }
    }

    #[test]
    fn hot_spot_skew_matches_hot_fraction() {
        // With hot = 0.4 over n = 64 nodes, the expected fraction of
        // packets addressed to node 0 is hot · P(src ≠ 0) plus the
        // uniform background ≈ 0.4 · 63/64 + 0.6/63 ≈ 0.403. Fixed seed
        // ⇒ deterministic, so a ±0.04 band is a real check, not a flake.
        let n = 64;
        let count = 5000;
        let hot = 0.4;
        let packets = TrafficSpec::HotSpot {
            count,
            window: 100,
            hot_fraction: hot,
        }
        .generate(n, 3);
        let to_zero = packets.iter().filter(|p| p.dst == 0).count() as f64 / count as f64;
        let expected = hot * (n as f64 - 1.0) / n as f64 + (1.0 - hot) / (n as f64 - 1.0);
        assert!(
            (to_zero - expected).abs() < 0.04,
            "hot-spot skew {to_zero:.4} vs expected {expected:.4}"
        );
        // And hot = 0 must stay uniform.
        let cold = TrafficSpec::HotSpot {
            count,
            window: 100,
            hot_fraction: 0.0,
        }
        .generate(n, 3);
        let cold_zero = cold.iter().filter(|p| p.dst == 0).count() as f64 / count as f64;
        assert!(
            cold_zero < 0.05,
            "no skew without a hot fraction: {cold_zero}"
        );
    }

    #[test]
    fn no_generator_emits_self_addressed_packets() {
        let specs = [
            uniform_spec(500, 40),
            TrafficSpec::HotSpot {
                count: 500,
                window: 40,
                hot_fraction: 0.5,
            },
            TrafficSpec::Bernoulli {
                rate: 0.2,
                cycles: 50,
            },
            TrafficSpec::ComplementPermutation { window: 10 },
            TrafficSpec::AllToAll,
            TrafficSpec::Mixed(vec![uniform_spec(100, 10), TrafficSpec::AllToAll]),
        ];
        for n in [2usize, 9, 32] {
            for spec in &specs {
                for p in spec.generate(n, 11) {
                    assert_ne!(p.src, p.dst, "{spec} on n={n} self-addressed {p:?}");
                    assert!((p.src as usize) < n && (p.dst as usize) < n, "{spec}");
                }
            }
        }
    }

    #[test]
    fn bernoulli_count_within_binomial_bounds() {
        // n·cycles Bernoulli(rate) trials: the packet count must sit
        // within 6σ of the mean for the fixed seed (σ = √(μ(1−rate))).
        let n = 64;
        let cycles = 500;
        let rate = 0.05;
        let spec = TrafficSpec::Bernoulli { rate, cycles };
        let a = spec.generate(n, 17);
        assert_eq!(a, spec.generate(n, 17), "seeded ⇒ reproducible");
        let mean = n as f64 * cycles as f64 * rate;
        let sigma = (mean * (1.0 - rate)).sqrt();
        assert!(
            ((a.len() as f64) - mean).abs() < 6.0 * sigma,
            "offered {} outside {mean} ± 6·{sigma:.1}",
            a.len()
        );
        for p in &a {
            assert!(p.inject_time < cycles);
        }
        assert!(TrafficSpec::Bernoulli {
            rate: 0.0,
            cycles: 100
        }
        .generate(10, 1)
        .is_empty());
    }

    #[test]
    fn complement_covers_everyone_once() {
        let spec = TrafficSpec::ComplementPermutation { window: 1 };
        let packets = spec.generate(8, 0);
        assert_eq!(packets.len(), 8);
        for p in &packets {
            assert_eq!(p.dst, 7 - p.src);
        }
        // Odd n: the middle node maps to itself and is skipped.
        assert_eq!(spec.generate(7, 0).len(), 6);
    }

    #[test]
    fn all_to_all_count() {
        assert_eq!(TrafficSpec::AllToAll.generate(5, 0).len(), 20);
    }

    #[test]
    fn mixed_concatenates_decorrelated_components() {
        let mix = TrafficSpec::Mixed(vec![uniform_spec(50, 10), uniform_spec(50, 10)]);
        let packets = mix.generate(16, 9);
        assert_eq!(packets.len(), 100);
        // Different component seeds ⇒ the two halves differ.
        assert_ne!(packets[..50], packets[50..]);
        assert_eq!(packets[..50], uniform_spec(50, 10).generate(16, 9)[..]);
    }

    #[test]
    fn display_from_str_round_trips() {
        let specs = [
            uniform_spec(2000, 400),
            TrafficSpec::HotSpot {
                count: 100,
                window: 50,
                hot_fraction: 0.3,
            },
            TrafficSpec::Bernoulli {
                rate: 0.05,
                cycles: 400,
            },
            TrafficSpec::ComplementPermutation { window: 8 },
            TrafficSpec::AllToAll,
            TrafficSpec::RequestReply {
                clients: 64,
                think: 50.0,
                timeout: 200,
                retries: 3,
            },
            TrafficSpec::Mixed(vec![
                uniform_spec(10, 5),
                TrafficSpec::AllToAll,
                TrafficSpec::Mixed(vec![TrafficSpec::Bernoulli {
                    rate: 0.5,
                    cycles: 2,
                }]),
            ]),
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: TrafficSpec = text.parse().unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(parsed, spec, "round-trip of `{text}`");
        }
    }

    #[test]
    fn from_str_accepts_whitespace_and_key_order() {
        let spec: TrafficSpec = " uniform(window=400, count=2000) ".parse().unwrap();
        assert_eq!(spec, uniform_spec(2000, 400));
    }

    #[test]
    fn from_str_rejects_malformed_specs() {
        for bad in [
            "unknown(x=1)",
            "uniform",
            "uniform(count=10)",
            "uniform(count=10,window=5,extra=1)",
            "uniform(count=ten,window=5)",
            "uniform(count=10,count=10)",
            "uniform(count=10,window=5",
            "hotspot(count=10,window=5)",
            "alltoall(3)",
            "request_reply",
            "request_reply(clients=2)",
            "request_reply(clients=2,think=1,timeout=0x,retries=1)",
            "mix()",
            "",
        ] {
            let err = bad.parse::<TrafficSpec>().expect_err(bad);
            assert!(err.to_string().contains("traffic"), "{bad}: {err}");
        }
    }

    #[test]
    fn validate_catches_degenerate_configs() {
        assert!(uniform_spec(10, 5).validate(1).is_err());
        assert!(uniform_spec(10, 5).validate(2).is_ok());
        assert!(TrafficSpec::Bernoulli {
            rate: 1.5,
            cycles: 10
        }
        .validate(8)
        .is_err());
        assert!(TrafficSpec::HotSpot {
            count: 10,
            window: 5,
            hot_fraction: -0.1
        }
        .validate(8)
        .is_err());
        assert!(TrafficSpec::Mixed(vec![]).validate(8).is_err());
        assert!(TrafficSpec::Mixed(vec![TrafficSpec::Bernoulli {
            rate: 2.0,
            cycles: 1
        }])
        .validate(8)
        .is_err());
        assert!(TrafficSpec::AllToAll.validate(1).is_ok());
    }

    #[test]
    fn request_reply_validation_and_closed_loop_gating() {
        let good = TrafficSpec::RequestReply {
            clients: 8,
            think: 20.0,
            timeout: 100,
            retries: 2,
        };
        assert!(good.validate(4).is_ok());
        assert!(good.validate(1).is_err(), "needs two nodes");
        for bad in [
            TrafficSpec::RequestReply {
                clients: 0,
                think: 20.0,
                timeout: 100,
                retries: 2,
            },
            TrafficSpec::RequestReply {
                clients: 8,
                think: -1.0,
                timeout: 100,
                retries: 2,
            },
            TrafficSpec::RequestReply {
                clients: 8,
                think: f64::INFINITY,
                timeout: 100,
                retries: 2,
            },
            TrafficSpec::RequestReply {
                clients: 8,
                think: 20.0,
                timeout: 0,
                retries: 2,
            },
        ] {
            assert!(bad.validate(8).is_err(), "{bad}");
        }
        // Closed-loop sources cannot superpose with open-loop streams.
        assert!(TrafficSpec::Mixed(vec![uniform_spec(10, 5), good])
            .validate(8)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "closed-loop")]
    fn request_reply_generate_panics() {
        TrafficSpec::RequestReply {
            clients: 8,
            think: 20.0,
            timeout: 100,
            retries: 2,
        }
        .generate(8, 1);
    }
}
