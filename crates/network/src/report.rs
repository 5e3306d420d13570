//! Structured experiment results: the [`Report`] returned by
//! [`Experiment::run`](crate::experiment::Experiment::run) and the
//! hand-rolled [`JsonValue`] tree it serialises to.
//!
//! The build environment has no registry access, so there is no `serde`;
//! instead the crate ships a deliberately small JSON document model —
//! enough to echo an experiment's configuration, its [`SimStats`], and
//! whatever sections the attached observers contribute, and to write
//! artifacts like `BENCH_sim.json` without string splicing at call sites.

use core::fmt;

use crate::collective::CollectiveOutcome;
use crate::engine::SimStats;

/// A JSON document node. Numbers are split into unsigned integers and
/// floats so counters print exactly (`42`, not `42.0`).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (all counters in this crate are unsigned).
    Int(u64),
    /// A float; non-finite values serialise as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An ordered array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for object nodes from `(&str, value)` pairs.
    pub fn obj<const N: usize>(pairs: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialises with two-space indentation and a trailing newline —
    /// the format the benchmark artifacts are written in.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            JsonValue::Num(x) => {
                if x.is_finite() {
                    // `{}` prints the shortest round-tripping decimal.
                    let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                    items[i].write(out, ind)
                })
            }
            JsonValue::Obj(pairs) => {
                write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                    write_escaped(out, &pairs[i].0);
                    out.push_str(": ");
                    pairs[i].1.write(out, ind);
                })
            }
        }
    }
}

/// Shared array/object writer: compact when `indent` is `None`, one
/// element per line otherwise.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        match inner {
            Some(d) => {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            }
            None => {
                if i > 0 {
                    out.push(' ');
                }
            }
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for JsonValue {
    /// Compact (single-line) JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// The [`SimStats`] block of a report as a JSON object (histogram
/// included — it is the raw data behind the latency percentiles).
pub fn stats_to_json(stats: &SimStats) -> JsonValue {
    JsonValue::obj([
        ("offered", JsonValue::Int(stats.offered as u64)),
        ("delivered", JsonValue::Int(stats.delivered as u64)),
        (
            "dropped_dead_endpoint",
            JsonValue::Int(stats.dropped_dead_endpoint as u64),
        ),
        (
            "dropped_unreachable",
            JsonValue::Int(stats.dropped_unreachable as u64),
        ),
        (
            "dropped_link_died",
            JsonValue::Int(stats.dropped_link_died as u64),
        ),
        (
            "dropped_node_died",
            JsonValue::Int(stats.dropped_node_died as u64),
        ),
        (
            "dropped_retries_exhausted",
            JsonValue::Int(stats.dropped_retries_exhausted as u64),
        ),
        ("makespan", JsonValue::Int(stats.makespan)),
        ("mean_latency", JsonValue::Num(stats.mean_latency)),
        ("p99_latency", JsonValue::Int(stats.p99_latency)),
        ("total_hops", JsonValue::Int(stats.total_hops)),
        ("throughput", JsonValue::Num(stats.throughput)),
        (
            "latency_histogram",
            JsonValue::Arr(
                stats
                    .latency_histogram
                    .iter()
                    .map(|&c| JsonValue::Int(c))
                    .collect(),
            ),
        ),
        (
            // Sparse `[bucket, count]` pairs of the streaming log₂
            // histogram — the only latency distribution present past
            // `DENSE_HISTOGRAM_NODE_LIMIT`, where the dense vector above
            // is empty.
            "latency_log2_buckets",
            JsonValue::Arr(
                stats
                    .latency_buckets
                    .buckets()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        JsonValue::Arr(vec![JsonValue::Int(i as u64), JsonValue::Int(c)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The structured result of one [`Experiment`](crate::experiment::Experiment)
/// run: the configuration echo (so a report is self-describing), the
/// engine's [`SimStats`], and one JSON section per attached observer.
#[derive(Clone, Debug)]
pub struct Report {
    /// Topology name (`"Γ_16"`, `"Q_11"`, …).
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// The requested [`RouterSpec`](crate::router::RouterSpec), as text.
    pub router_spec: String,
    /// The policy that actually ran (`"e-cube"`, `"canonical"`, …;
    /// `"fault-masked(adaptive)"` etc. on degraded runs).
    pub router: String,
    /// The workload spec in its canonical parseable form — a
    /// [`TrafficSpec`](crate::traffic::TrafficSpec), or the
    /// [`CollectiveSpec`](crate::collective::CollectiveSpec) when the
    /// experiment ran a collective.
    pub traffic: String,
    /// The [`SwitchingSpec`](crate::switching::SwitchingSpec) in its
    /// canonical parseable form (`"store_and_forward"` or
    /// `"wormhole(flit_size=…,vcs=…,buf_flits=…)"`). Collective
    /// experiments echo the spec but execute by packet replication
    /// regardless of it.
    pub switching: String,
    /// The [`FaultSpec`](crate::fault::FaultSpec) in its canonical
    /// parseable form, or `"none"` for a healthy run.
    pub faults: String,
    /// Node failures actually materialised from the fault spec.
    pub failed_nodes: usize,
    /// Link failures actually materialised from the fault spec.
    pub failed_links: usize,
    /// Traffic seed.
    pub seed: u64,
    /// Cycle cap (`u64::MAX` means "run until drained").
    pub max_cycles: u64,
    /// Aggregate simulation statistics.
    pub stats: SimStats,
    /// Completion-time/round statistics of the collective workload, when
    /// the experiment ran one (`None` for point-to-point traffic).
    pub collective: Option<CollectiveOutcome>,
    /// Named JSON sections contributed by the observers, in attachment
    /// order.
    pub sections: Vec<(String, JsonValue)>,
}

impl Report {
    /// The full report as a JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        let cap = if self.max_cycles == u64::MAX {
            JsonValue::Null
        } else {
            JsonValue::Int(self.max_cycles)
        };
        JsonValue::obj([
            ("topology", JsonValue::Str(self.topology.clone())),
            ("nodes", JsonValue::Int(self.nodes as u64)),
            ("router_spec", JsonValue::Str(self.router_spec.clone())),
            ("router", JsonValue::Str(self.router.clone())),
            ("traffic", JsonValue::Str(self.traffic.clone())),
            ("switching", JsonValue::Str(self.switching.clone())),
            ("faults", JsonValue::Str(self.faults.clone())),
            ("failed_nodes", JsonValue::Int(self.failed_nodes as u64)),
            ("failed_links", JsonValue::Int(self.failed_links as u64)),
            ("seed", JsonValue::Int(self.seed)),
            ("max_cycles", cap),
            ("stats", stats_to_json(&self.stats)),
            (
                "collective",
                match &self.collective {
                    Some(c) => c.to_json_value(),
                    None => JsonValue::Null,
                },
            ),
            ("observers", JsonValue::Obj(self.sections.clone())),
        ])
    }

    /// The full report as pretty-printed JSON (the `BENCH_sim.json`
    /// format).
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }
}

impl fmt::Display for Report {
    /// A one-paragraph human summary (the JSON form carries the detail).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} · {} · {}: delivered {}/{} in {} cycles, mean latency {:.2}, p99 {}, throughput {:.3}",
            self.topology,
            self.router,
            self.traffic,
            self.stats.delivered,
            self.stats.offered,
            self.stats.makespan,
            self.stats.mean_latency,
            self.stats.p99_latency,
            self.stats.throughput
        )?;
        if self.stats.dropped() > 0 {
            write!(
                f,
                ", dropped {} (dead endpoint {}, unreachable {}, link died {}, node died {}, \
                 retries exhausted {}) under faults {}",
                self.stats.dropped(),
                self.stats.dropped_dead_endpoint,
                self.stats.dropped_unreachable,
                self.stats.dropped_link_died,
                self.stats.dropped_node_died,
                self.stats.dropped_retries_exhausted,
                self.faults
            )?;
        }
        if let Some(c) = &self.collective {
            write!(
                f,
                ", collective reached {}/{} targets in {} cycles",
                c.reached, c.targets, c.completion_cycles
            )?;
            if let Some(r) = c.schedule_rounds {
                write!(f, " (static schedule: {r} rounds)")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_json_escapes_and_formats() {
        let v = JsonValue::obj([
            ("name", JsonValue::Str("Γ_8 \"quoted\"\n".into())),
            ("count", JsonValue::Int(42)),
            ("rate", JsonValue::Num(0.25)),
            ("bad", JsonValue::Num(f64::NAN)),
            ("flag", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
            ),
            ("empty", JsonValue::Arr(vec![])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"name\": \"Γ_8 \\\"quoted\\\"\\n\", \"count\": 42, \"rate\": 0.25, \
             \"bad\": null, \"flag\": true, \"none\": null, \"arr\": [1, 2], \"empty\": []}"
        );
    }

    #[test]
    fn pretty_json_indents_and_terminates() {
        let v = JsonValue::obj([("a", JsonValue::Arr(vec![JsonValue::Int(1)]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
    }

    #[test]
    fn stats_json_carries_the_histogram() {
        let mut buckets = crate::engine::LogHistogram::new();
        buckets.record(1);
        buckets.record(3);
        let stats = SimStats {
            offered: 3,
            delivered: 2,
            dropped_dead_endpoint: 1,
            dropped_unreachable: 0,
            dropped_link_died: 0,
            dropped_node_died: 0,
            dropped_retries_exhausted: 0,
            makespan: 7,
            mean_latency: 3.5,
            latency_histogram: vec![0, 1, 0, 1],
            latency_buckets: buckets,
            p99_latency: 3,
            total_hops: 7,
            throughput: 2.0 / 7.0,
        };
        let json = stats_to_json(&stats).to_string();
        assert!(
            json.contains("\"latency_histogram\": [0, 1, 0, 1]"),
            "{json}"
        );
        assert!(
            json.contains("\"latency_log2_buckets\": [[1, 1], [2, 1]]"),
            "{json}"
        );
        assert!(json.contains("\"delivered\": 2"), "{json}");
        assert!(json.contains("\"dropped_dead_endpoint\": 1"), "{json}");
        assert!(json.contains("\"dropped_unreachable\": 0"), "{json}");
    }
}
