#!/usr/bin/env python3
"""Measure the baseline: two sets of seeds on every workload, plus one traced run each.

Usage, from the root of the repository:

    python3 perfbench/suite.py --seeds 10 --out perfbench/baseline.json

Set a runs seeds ``--first-seed`` .. ``--first-seed + --seeds - 1``, set b
the next ``--seeds`` seeds.  Within a set, each seed in turn runs every
workload of BENCHMARK.json once with tracing off, at BENCHMARK.json's
``run_seconds``, so slow drift of the machine spreads over all workloads
alike.  Then each workload runs once with tracing on, at the first seed.

It prints every run's end-to-end metrics by name with their unit, then
per set, workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound, and finally the
agreement of the two sets' medians, ``(median b - median a) / median a``.
``--out`` writes all of it, with the environment, each run's
workload-specific figures (set a) and the traced metrics, as JSON.
Exits 1 if a run fails or reports a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
ABOUT = ("Baseline of the tmsim benchmark, made by perfbench/suite.py: two sets of untraced runs per "
         "workload (set_a, then set_b), one traced run per workload (traced), and the workload-specific "
         "figures of set a (figures). 'agreement' is (median of set b - median of set a) / median of "
         "set a. Times are reference seconds (host time corrected for the host's speed, see "
         "perfbench/hostspeed.py); compare only against a parent measured on the same host.")


def run(spec: dict, workload: str, seed: int, trace: int) -> dict | None:
    """One run of the benchmark; its result line plus the record run.py wrote, or None."""
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}\n{done.stderr[-500:]}")
        return None
    result = json.loads(lines[-1])
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-s{seed}-t{trace}.json").read_text())
    shown = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    return {"result": result, "record": record}


def spreads(spec: dict, values: dict[str, dict[str, list[float]]]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict[str, dict] = {}
    for workload, metrics in values.items():
        for name, series in metrics.items():
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            med = statistics.median(series)
            out.setdefault(workload, {})[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                                  "bound": bounds[name], "values": series}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set (default %(default)s)")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, help="write the baseline here as JSON")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    ok, environment = True, None
    sets, figures = {}, {w: {} for w in names}
    for label, first in (("set_a", args.first_seed), ("set_b", args.first_seed + args.seeds)):
        values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
        for seed in range(first, first + args.seeds):
            for workload in names:
                done = run(spec, workload, seed, 0)
                if done is None:
                    ok = False
                    continue
                result, record = done["result"], done["record"]
                ok = ok and result["correct"] and result["failed"] == 0
                environment = environment or record["environment"]
                for name, metric in result["metrics"].items():
                    values[workload][name].append(metric["value"])
                if label == "set_a":
                    for name, fig in record["summary"].items():
                        entry = figures[workload].setdefault(name, {"unit": fig["unit"], "values": []})
                        entry["values"].append(fig["value"])
        sets[label] = {"seeds": [first, first + args.seeds - 1], "workloads": spreads(spec, values)}

    traced = {}
    for workload in names:
        done = run(spec, workload, args.first_seed, 1)
        if done is None:
            ok = False
            continue
        ok = ok and done["result"]["correct"]
        traced[workload] = {"seed": args.first_seed,
                            "metrics": {k: v["value"] for k, v in done["result"]["metrics"].items()}}
    for entry in (e for w in figures.values() for e in w.values()):
        present = [v for v in entry["values"] if v is not None]
        entry["median"] = statistics.median(present) if present else None

    agreement: dict[str, dict] = {}
    for label, summary in sets.items():
        for workload, metrics in summary["workloads"].items():
            for name, e in metrics.items():
                print(f"{label} {workload:6s} {name:12s} median={e['median']:.6g} q1={e['q1']:.6g} "
                      f"q3={e['q3']:.6g} spread={e['spread']:.4f} bound={e['bound']} "
                      f"{'ok' if e['spread'] < e['bound'] / 3 else 'WIDE'}")
    for workload, metrics in sets["set_a"]["workloads"].items():
        for name, a in metrics.items():
            b = sets["set_b"]["workloads"].get(workload, {}).get(name)
            if b is None:
                continue
            change = (b["median"] - a["median"]) / a["median"]
            agreement.setdefault(workload, {})[name] = change
            print(f"agreement {workload:6s} {name:12s} {change:+.4f} bound={a['bound']} "
                  f"{'ok' if abs(change) <= a['bound'] else 'APART'}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"about": ABOUT, "environment": environment,
                                        "run_seconds": spec["run_seconds"], **sets, "agreement": agreement,
                                        "figures": figures, "traced": traced}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
