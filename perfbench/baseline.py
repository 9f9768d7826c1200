"""Measures the benchmark's baseline; run from the repository root:

    python3 perfbench/baseline.py --sets 2 --runs 10

Makes ``--sets`` sets of ``--runs`` untraced runs of every workload in
``BENCHMARK.json``, each run on its own seed (set 1 takes seeds 1..runs,
set 2 the next ``--runs``, and so on) and with the file's ``run_seconds``.
Writes every run's result line, and for each set, workload and end-to-end
metric the median, the quartiles and the spread (quartile distance ÷
median, from ``statistics.quantiles(values, n=4)``).  Each later set's
median is compared with the first set's against the metric's bound.

Before every run it also records the host's speed: the loop turns per
second of one spin loop per core.  The benchmark does not use it; it shows
how much of a difference between runs came from the host, whose speed
drifts when the machine is shared.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPIN_S = 2.0


def _spin(_) -> int:
    n, end = 0, time.monotonic() + SPIN_S
    while time.monotonic() < end:
        n += 1
    return n


def host_speed() -> float:
    """Million loop turns per second of one spin loop per core."""
    cores = os.cpu_count() or 1
    with multiprocessing.get_context("spawn").Pool(cores) as pool:
        return sum(pool.map(_spin, range(cores))) / SPIN_S / 1e6


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    d = (first - later) if metric["better"] == "higher" else (later - first)
    return d / first


def run_once(command: list, workload: str, seed: int, seconds: int) -> dict:
    speed = host_speed()
    t0 = time.monotonic()
    p = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["seed"] = seed
    res["run_s"] = round(time.monotonic() - t0, 1)
    res["host_mturns_per_s"] = speed
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench",
                                                  "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]

    versions = {"python": platform.python_version(),
                **{p: version(p) for p in ("ray", "pyarrow", "pandas", "numpy")}}
    out = {
        "host": {
            "cpu_count": os.cpu_count(),
            "memory_gib": round(os.sysconf("SC_PAGE_SIZE")
                                * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
            **versions,
        },
        "run_seconds": bench["run_seconds"],
        "sets": [],
    }
    for k in range(args.sets):
        seeds = range(k * args.runs + 1, (k + 1) * args.runs + 1)
        one = {"seeds": [seeds[0], seeds[-1]], "workloads": {}}
        for wl in bench["workloads"]:
            runs = []
            for seed in seeds:
                r = run_once(bench["command"], wl["name"], seed,
                             bench["run_seconds"])
                runs.append(r)
                print(f"set {k + 1} {wl['name']} seed {seed}: "
                      f"{r['run_s']}s correct={r['correct']} "
                      f"host={r['host_mturns_per_s']:.1f}M/s "
                      + " ".join(f"{m}={v['value']:.5g}"
                                 for m, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
            one["workloads"][wl["name"]] = {
                "runs": runs,
                "metrics": {m["name"]: summary(
                    [r["metrics"][m["name"]]["value"] for r in runs])
                    for m in metrics},
                "host_mturns_per_s": summary(
                    [r["host_mturns_per_s"] for r in runs]),
            }
        out["sets"].append(one)

    # the acceptance rule: every spread but set-up's within the bound, and
    # no later median worse than the first set's by more than the bound
    first = out["sets"][0]["workloads"]
    for k, one in enumerate(out["sets"]):
        for name, w in one["workloads"].items():
            for m in metrics:
                s = w["metrics"][m["name"]]
                s["spread_within_bound"] = (m["name"] == "setup_s"
                                            or s["spread"] <= m["bound"])
                if k:
                    s["worse_than_set1_by"] = worse_by(
                        m, first[name]["metrics"][m["name"]]["median"],
                        s["median"])
                    s["median_within_bound"] = (s["worse_than_set1_by"]
                                                <= m["bound"])
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for k, one in enumerate(out["sets"]):
        for name, w in one["workloads"].items():
            for m, s in w["metrics"].items():
                print(f"set {k + 1} {name} {m}: median={s['median']:.5g} "
                      f"spread={s['spread']:.4f}"
                      + (f" worse_than_set1_by={s['worse_than_set1_by']:+.4f}"
                         if "worse_than_set1_by" in s else ""))
            print(f"set {k + 1} {name} host speed: "
                  f"median={w['host_mturns_per_s']['median']:.4g}M/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
