#!/usr/bin/env python3
"""Run one tmsim benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep|infer|nodal --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tmsim untouched.  It
runs set-up and passes in fresh worker processes, one after another (this
script with ``--worker-seconds``), until the passes add up to
``--seconds``.  Each worker measures a quarter of that, or one pass.
Identical work runs up to about a tenth faster or slower in one
interpreter process than in the next, so a median pooled over several
processes is steadier than one process measured for longer.  Times are
reported in reference seconds: wall time corrected for the host's speed,
which ``hostspeed.py`` probes while the work runs.
``--trace 1`` runs in this process, wraps tmsim's public functions in
spans and reports the per-layer metrics instead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every metric is also
printed as ``name = value unit`` above it, and the full record
(environment, simulated statistics, samples) goes to
``.bench_out/result-<workload>-s<seed>-t<trace>.json``.

tmsim is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here: numpy and tmsim load after

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = (ROOT / "src").resolve()
OUT = ROOT / ".bench_out"
SUBPROCESS_TIMEOUT_S = 170
WORKER_SHARE = 4  # a worker measures this share of --seconds, or one pass
# a set-up shorter than a second is noisy: repeat it until this much set-up time is spent
SETUP_BUDGET_S = 2.5
SETUP_MAX_SAMPLES = 11

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
NO_REFERENCE = ("tmsim has no reference hardware measurements to compare against, "
                "so the simulated statistics carry no error figure")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "infer", "nodal"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="min runs the smallest inputs, for the harness self-check")
    # internal: run as one measuring worker of an untraced run (0 seconds: set-up only)
    parser.add_argument("--worker-seconds", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--first-pass", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_revision() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "git_revision": git_revision(),
        "time_base": "host wall time (time.perf_counter)",
    }


def spawn_worker(args, seconds: float, first_pass: int) -> dict:
    """Set-up plus passes for ``seconds`` (none if 0) in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--worker-seconds", str(seconds), "--first-pass", str(first_pass)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(wl, args, min_setups: int) -> dict[str, list[float]]:
    """Pass and set-up times from workers, in wall and reference seconds.

    The workers' samples and checks are pooled into ``wl``.  Set-up-only
    workers follow until there are ``min_setups`` set-up samples and
    SETUP_BUDGET_S of set-up has been timed.
    """
    timing: dict[str, list[float]] = {"pass_s": [], "pass_ref_s": [], "setup_s": [], "setup_ref_s": [],
                                      "probe_s": []}

    def pool(report: dict) -> None:
        for name, values in report["timing"].items():
            timing[name] += values

    while not timing["pass_s"] or sum(timing["pass_s"]) < args.seconds:
        report = spawn_worker(args, args.seconds / WORKER_SHARE, len(timing["pass_s"]))
        wl.absorb(report)
        pool(report)
    while len(timing["setup_s"]) < min_setups or (
            sum(timing["setup_s"]) < SETUP_BUDGET_S and len(timing["setup_s"]) < SETUP_MAX_SAMPLES):
        pool(spawn_worker(args, 0.0, 0))
    return timing


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_passes(wl, probe: hostspeed.HostSpeed, first: int, seconds: float) -> tuple[list[float], list[float]]:
    """Passes from index ``first`` until ``seconds`` have elapsed; at least one.

    Returns each pass's wall seconds and reference seconds.
    """
    walls: list[float] = []
    refs: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t0, t1 = wl.run_pass(first + len(walls))
        walls.append(t1 - t0)
        refs.append(probe.reference_s(t0, t1))
    return walls, refs


def traced_layers(wl, tracer: spans.Tracer, probe: hostspeed.HostSpeed, seconds: float) -> tuple[dict, dict]:
    """Set-up (already traced) plus one pass, averaged over the traced passes.

    Untraced passes fill the first half of the run, traced passes the second;
    the ratio of their median reference seconds is the tracing overhead.
    """
    def totals(span_slice, counts, work) -> dict[str, dict]:
        out = spans.summarize(span_slice)
        for name, value in {**counts, **work}.items():
            out[name] = {"value": value}
        return out

    setup = totals(tracer.spans, dict(tracer.counts), {})
    untraced_walls, untraced = run_passes(wl, probe, 0, seconds / 2)
    traced, traced_walls, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        k = len(untraced) + len(traced)
        mark, counts_before = tracer.mark(), dict(tracer.counts)
        undo = spans.install(tracer, layers.TARGETS)
        try:
            t0, t1 = wl.run_pass(k)
        finally:
            spans.uninstall(undo)
        traced_walls.append(t1 - t0)
        traced.append(probe.reference_s(t0, t1))
        counts = {name: n - counts_before.get(name, 0) for name, n in tracer.counts.items()}
        per_pass.append(totals(tracer.spans[mark:], counts, wl.pass_counts.get(k, {})))

    pass_sums: dict[str, dict] = {}
    for one in per_pass:
        for name, fields in one.items():
            entry = pass_sums.setdefault(name, {})
            for field, value in fields.items():
                entry[field] = entry.get(field, 0.0) + value
    combined = {name: dict(fields) for name, fields in setup.items()}
    for name, fields in pass_sums.items():
        entry = combined.setdefault(name, {})
        for field, value in fields.items():
            entry[field] = entry.get(field, 0.0) + value / len(per_pass)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    walls = {"untraced_pass_s": untraced_walls, "untraced_pass_ref_s": untraced,
             "traced_pass_s": traced_walls, "traced_pass_ref_s": traced}
    return layers.per_layer_metrics(combined, overhead), walls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tmsim" / "__init__.py").is_file():
        print(f"error: no tmsim sources under {SRC}; run from a tmsim checkout", file=sys.stderr)
        return 2
    probe = hostspeed.HostSpeed().install() if args.trace or args.worker_seconds is not None else None
    sys.path.insert(0, str(SRC))
    import tmsim
    import workloads

    if not Path(tmsim.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tmsim from {tmsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    size = workloads.SIZES[args.size]
    cfg_path = None
    if size.config is not None:
        cfg_path = OUT / f"{args.size}.cfg"
        cfg_path.write_text(size.config)
    workload = workloads.WORKLOADS[args.workload]
    if args.worker_seconds is not None:
        wl = workload(args.seed, size, OUT, cfg_path, None)
        wl.setup()
        setup_end = time.perf_counter()
        walls, refs = [], []
        if args.worker_seconds > 0:
            walls, refs = run_passes(wl, probe, args.first_pass, args.worker_seconds)
        probe.uninstall()
        if walls:
            wl.finish()
        print(json.dumps(wl.report({
            "setup_s": [setup_end - T_START], "setup_ref_s": [probe.reference_s(T_START, setup_end)],
            "pass_s": walls, "pass_ref_s": refs, "probe_s": probe.probe_s(T_START, time.perf_counter())})))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "size": args.size, "environment": environment(), "validation": NO_REFERENCE}
    if args.trace:
        tracer = spans.Tracer()
        wl = workload(args.seed, size, OUT, cfg_path, tracer)
        undo = spans.install(tracer, layers.TARGETS)
        try:
            wl.setup()
        finally:
            spans.uninstall(undo)
        values, record["walls"] = traced_layers(wl, tracer, probe, args.seconds)
        probe.uninstall()
        units = layers.UNITS
        wall_figures = {}
        wl.finish()
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
    else:
        wl = workload(args.seed, size, OUT, cfg_path, None)  # pools the workers' reports
        timing = measure(wl, args, size.setup_samples)
        values = {"setup_s": statistics.median(timing["setup_ref_s"]),
                  "job_s": statistics.median(timing["pass_ref_s"]), "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END_UNITS
        record["walls"] = timing
        wall_figures = {  # as measured, not corrected for the host's speed
            "setup_wall_s": workloads.figure(statistics.median(timing["setup_s"]), "s", timing["setup_s"]),
            "job_wall_s": workloads.figure(statistics.median(timing["pass_s"]), "s", timing["pass_s"]),
            "probe_ms": workloads.figure(1e3 * statistics.median(timing["probe_s"]), "ms", timing["probe_s"]),
        }

    tally = wl.tally
    record.update(summary={**wl.summary(), **wall_figures}, simulated=wl.sim,
                  attempted=tally.attempted, failed=tally.failed, failed_frac=tally.failed / max(tally.attempted, 1), errors=tally.errors)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record["metrics"] = metrics
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    for name, fig in record["summary"].items():
        value = "n/a" if fig["value"] is None else f"{fig['value']:.6g}"
        print(f"{name} = {value} {fig['unit']} (n={fig['n']})")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio (n={tally.attempted})")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
