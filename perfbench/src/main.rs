//! Benchmark of the Fibonacci-cube network simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed 2026] [--seconds 50] [--trace 0|1] [--size full|tiny]
//! ```
//!
//! Untraced (`--trace 0`), it sets the workload up several times, then
//! times `Experiment::run` repeatedly for `--seconds`, cycling through
//! `INSTANCES` traffic draws derived from the seed, and reports the
//! end-to-end metrics as medians. Traced (`--trace 1`), it times calls
//! into each layer's public functions on the workload's own inputs and
//! reports the per-layer metrics; spans go to `perfbench/out/`. Every
//! run checks the simulated statistics against the oracles in
//! `workload.rs` and, at a pinned seed, against the pinned fingerprint.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong output or an
//! `ExperimentError` exits with status 1.

mod host;
mod layers;
#[cfg(test)]
mod selftest;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use fibcube_network::{FibonacciNet, ImplicitFibonacciNet, SloTracker};

use host::{Counters, Stamp};
use workload::{Addressed, Fingerprint, Net, Size, Specs, Workload};

pub const DEFAULT_SEED: u64 = 2026;

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 50.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad(&"expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One metric as printed: value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run reports: `metrics` go into the result object, `printed`
/// only into the `# name = value unit` lines above it.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    pub printed: Vec<Metric>,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Builds the topology at least `min_builds` times and for at least
/// `min_seconds`, appending each build's time to `times`, and returns
/// the last build. Each build is dropped before the next starts, so
/// memory holds one network at a time.
pub fn set_up<T: Addressed>(
    d: usize,
    min_builds: usize,
    min_seconds: f64,
    times: &mut Vec<f64>,
) -> T {
    let start = Instant::now();
    let mut topo = None;
    for n in 0.. {
        if n >= min_builds && start.elapsed().as_secs_f64() >= min_seconds {
            break;
        }
        drop(topo.take());
        let t = Instant::now();
        let built = workload::build_topology::<T>(d);
        times.push(t.elapsed().as_secs_f64());
        topo = Some(built);
    }
    topo.expect("at least one build")
}

/// Shortest-path distance sum of the open-loop packet list the
/// experiment generates from `seed`.
pub fn open_loop_min_hops<T: Addressed>(
    topo: &T,
    w: &Workload,
    specs: &Specs,
    seed: u64,
) -> Option<u64> {
    (!w.closed_loop()).then(|| {
        let packets = specs.traffic.generate(topo.len(), seed);
        workload::distance_sum(topo, packets.iter().map(|p| (p.src, p.dst)))
    })
}

/// Checks `fp` against the oracles and, at a pinned seed, the pinned
/// fingerprint; appends any mismatch to `errors`.
pub fn check(
    w: &Workload,
    specs: &Specs,
    size: Size,
    seed: u64,
    fp: &Fingerprint,
    min_hops: Option<u64>,
    errors: &mut Vec<String>,
) {
    errors.extend(workload::check_oracles(w, specs, fp, min_hops));
    if let Some(pin) = workload::pinned(w, size, seed) {
        if pin != *fp {
            errors.push(format!(
                "fingerprint mismatch at seed {seed}:\n  got  {fp}\n  want {pin}"
            ));
        }
    }
}

/// Traffic draws per run. Timed repetitions cycle through them, so a
/// run's median covers several independent instances of the workload
/// and the work a single draw happens to carry (for example how many
/// packets a wormhole deadlock strands) does not set the whole result.
pub const INSTANCES: u64 = 8;

/// Seed of instance `i` of the run seeded `seed`; instance 0 is `seed`
/// itself.
pub fn instance_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One timed repetition.
struct Rep {
    run_s: f64,
    hops: u64,
    counters: Counters,
}

/// The untraced timed run: one untimed warm-up, then repetitions cycling
/// through the instances until `seconds` elapse and every instance ran
/// at least once.
fn timed<T: Addressed>(w: &Workload, specs: &Specs, d: usize, args: &Args) -> Outcome {
    // Set-up is sampled before the runs and again after every timed
    // repetition, so its median spans the whole run, as `run_s` does.
    let mut setup_times = Vec::new();
    let topo = set_up::<T>(d, 5, 0.5, &mut setup_times);

    let mut errors = Vec::new();
    let mut seen: Vec<Option<Fingerprint>> = vec![None; INSTANCES as usize];
    let (mut attempted, mut failed) = (0, 0);
    let mut reps: Vec<Rep> = Vec::new();
    let mut start = None;
    while reps.len() < INSTANCES as usize
        || start.is_none_or(|s: Instant| s.elapsed().as_secs_f64() < args.seconds)
    {
        let i = reps.len() as u64 % INSTANCES;
        let seed = instance_seed(args.seed, i);
        let mut slo = w.slo_window.map(SloTracker::new);
        let before = Counters::now();
        let t = Instant::now();
        let result = workload::run_once(&topo, w, specs, seed, w.lanes, slo.as_mut());
        let run_s = t.elapsed().as_secs_f64();
        let counters = Counters::now().since(&before);
        attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                errors.push(format!("ExperimentError at seed {seed}: {e}"));
                break;
            }
        };
        let fp = Fingerprint::of(&report.stats);
        match seen[i as usize] {
            None => {
                let min_hops = open_loop_min_hops(&topo, w, specs, seed);
                check(w, specs, args.size, seed, &fp, min_hops, &mut errors);
                seen[i as usize] = Some(fp);
            }
            Some(f) if f != fp => {
                errors.push(format!("seed {seed} did not repeat:\n  {fp}\n  {f}"));
            }
            Some(_) => {}
        }
        if !errors.is_empty() {
            break;
        }
        match start {
            // The first run was the warm-up.
            None => start = Some(Instant::now()),
            Some(_) => {
                reps.push(Rep {
                    run_s,
                    hops: fp.total_hops,
                    counters,
                });
                set_up::<T>(d, 1, 0.05, &mut setup_times);
            }
        }
    }

    let (mut stranded, mut offered) = (0, 0);
    for (i, fp) in seen.iter().enumerate() {
        if let Some(fp) = fp {
            let failed = workload::failed_packets(w, fp);
            stranded += failed;
            offered += fp.offered;
            println!(
                "# instance {i} seed {}: {fp} fail_frac={}",
                instance_seed(args.seed, i as u64),
                workload::fail_frac(failed, fp.offered)
            );
        }
    }
    println!(
        "# {stranded} of {offered} packets failed over {} instances",
        seen.iter().flatten().count()
    );
    let list = |f: &dyn Fn(&Rep) -> String| reps.iter().map(f).collect::<Vec<_>>().join(",");
    println!(
        "{{\"timed_runs\":{{\"run_s\":[{}],\"user_s\":[{}],\"sys_s\":[{}],\"thread_cpu_s\":[{}],\"minflt\":[{}],\"runq_wait_s\":[{}]}}}}",
        list(&|r| format!("{:.4}", r.run_s)),
        list(&|r| format!("{:.2}", r.counters.user_s)),
        list(&|r| format!("{:.2}", r.counters.sys_s)),
        list(&|r| format!("{:.4}", r.counters.thread_cpu_s)),
        list(&|r| r.counters.minflt.to_string()),
        list(&|r| format!("{:.4}", r.counters.runq_wait_s))
    );
    let times: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.hops as f64 / r.run_s).collect();
    Outcome {
        attempted,
        failed,
        errors,
        metrics: vec![
            ("run_s", median(&times), "s"),
            ("setup_s", median(&setup_times), "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ],
        // Both follow from `run_s` and the deterministic simulated
        // counts, so they are reported but not gated a second time.
        printed: vec![
            ("hops_per_s", median(&rates), "1/s"),
            (
                "fail_frac",
                workload::fail_frac(stranded, offered),
                "fraction",
            ),
        ],
    }
}

fn dispatch<T: Addressed>(w: &Workload, specs: &Specs, d: usize, args: &Args) -> Outcome {
    if args.trace {
        layers::traced::<T>(w, specs, d, args.seed, args.size, args.seconds)
    } else {
        timed::<T>(w, specs, d, args)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::named(&args.workload, args.size) else {
        eprintln!(
            "perfbench: unknown workload `{}` (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let specs = match w.specs() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    let stamp = Stamp::collect();
    println!(
        "{{\"stamp\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":\"{:?}\",\
         \"nproc\":{},\"kernel\":\"{}\",\"git_rev\":\"{}\",\"config\":\"{}\"}}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size,
        stamp.nproc,
        stamp.kernel,
        stamp.git_rev,
        w.describe()
    );
    let out = match w.net {
        Net::Implicit(d) => dispatch::<ImplicitFibonacciNet>(&w, &specs, d, &args),
        Net::Dense(d) => dispatch::<FibonacciNet>(&w, &specs, d, &args),
    };
    for e in &out.errors {
        eprintln!("perfbench: {}: {e}", w.name);
    }
    for (name, value, unit) in out.metrics.iter().chain(&out.printed) {
        println!("# {name} = {value} {unit}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
