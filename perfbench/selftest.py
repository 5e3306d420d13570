#!/usr/bin/env python3
"""Schema self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Runs every workload (the gated ones in BENCHMARK.json and the two
runnable by hand) at the tiny size, untraced and traced, and checks
that the last line of output is the result object with exactly the keys
`correct`, `attempted`, `failed` and `metrics`; that the metric names and
units are exactly the `end_to_end` (untraced) or `per_layer` (traced)
lists of BENCHMARK.json, in order; that every value is a finite number;
and that an unknown workload exits non-zero without printing a result. The
fingerprint and fail_frac logic is covered by
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import math
import subprocess
import sys

UNGATED = ["wormhole_hotspot", "churn_closed_loop"]

BENCH = ["cargo", "run", "--release", "--quiet", "--offline",
         "--manifest-path", "perfbench/Cargo.toml", "--"]


def run(*args):
    return subprocess.run(BENCH + list(args), capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and result["failed"] == 0, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    assert list(got) == names, f"{where}: metric names {list(got)}"
    for m in wanted:
        value = got[m["name"]]
        assert sorted(value) == ["unit", "value"], f"{where}: {m['name']}"
        assert value["unit"] == m["unit"], f"{where}: {m['name']} unit {value['unit']}"
        v = value["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), f"{where}: {m['name']}={v}"
        if not trace:
            assert v > 0, f"{where}: end-to-end {m['name']} is {v}"


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for name in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace in (0, 1):
            proc = run("--workload", name, "--size", "tiny", "--seconds", "0.2",
                       "--trace", str(trace))
            check_result(spec, name, trace, proc)
            print(f"ok {name} --trace {trace}")
    proc = run("--workload", "no_such_workload", "--seconds", "1")
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, "unknown workload"
    print("ok unknown workload rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
