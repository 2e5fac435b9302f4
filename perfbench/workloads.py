"""The three benchmark workloads: ``sweep``, ``infer`` and ``nodal``.

Each workload drives tmsim from outside through its public functions, in
one process with one caller (a closed loop: the next call starts when the
previous one returned).  A workload has a set-up, a pass that is repeated
until the run's time is spent, and final checks.  Inputs come from the
workload seed only.  Every function is looked up on its module at call
time (``self.pipeline.train``), so the traced run's wrappers see the call.

Operations that raise or fail a correctness check count as failed; see
README.md for the checks and for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import shutil
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from spans import Tracer

# evaluate grid of the infer workload; sigma2 = 0 feeds the forward cross-check
INFER_SIGMA2 = (0.0, 0.02, 0.05, 0.1, 0.5)
INFER_TRAIN_SIGMA2 = 0.1
# the parasitic scales of `tmsim leakage`
LEAKAGE_SCALES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
# calibrated band of the all-pressed reference leakage (acceptance gate)
LEAKAGE_BAND = (0.12, 0.20)
HOLDOUT_COPIES = 5  # copies per symbol in the training datasets, as the CLI uses
SOLVE_TOLERANCE = 1e-9  # relative agreement of nodal and ideal readouts
PROB_TOLERANCE = 1e-9  # softmax outputs sum to 1 within this
MAX_ERRORS = 20  # failure reasons kept per run


@dataclass(frozen=True)
class Size:
    """Work per pass.  ``full`` is the benchmark; ``min`` is the self-check."""

    sweep_args: tuple[str, ...]  # extra `tmsim sweep` flags; () keeps the default grid
    sweep_cells: int  # accuracy cells the sweep must report
    config: str | None  # config file text; None keeps the defaults
    eval_copies: int  # copies per symbol in the infer evaluation dataset
    forwards: int  # single-pattern forward calls per network per pass
    masks: int | None  # symbol masks per nodal pass; None means all 125
    arrays: tuple[tuple[int, int], ...]  # (side, count) random arrays per nodal pass
    setup_samples: int  # fewest set-up repetitions behind the setup_s median


SIZES = {
    "full": Size((), 40, None, 40, 1000, None, ((16, 2), (32, 1)), 3),
    "min": Size(("--groups", "group2", "--sigma2", "0.1"), 2, "train.epochs = 2\n", 2, 20, 10, ((16, 1),), 2),
}


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(what)
        return ok


def percentile(values, q: float, beyond: int = 10) -> float | None:
    """q-th percentile, or None unless at least ``beyond`` samples lie above it."""
    n = len(values)
    if n == 0 or n * (1.0 - q / 100.0) < beyond:
        return None
    return float(np.percentile(values, q))


def median(values) -> float | None:
    return float(np.median(values)) if len(values) else None


def mean(values) -> float | None:
    return float(np.mean(values)) if len(values) else None


def figure(value: float | None, unit: str, samples) -> dict:
    return {"value": value, "unit": unit, "n": len(samples)}


class Workload:
    """Shared state of one run: seed, size, tally, samples and statistics."""

    name = ""

    def __init__(self, seed: int, size: Size, work_dir: Path, cfg_path: Path | None,
                 tracer: Tracer | None) -> None:
        self.seed, self.size, self.work_dir = seed, size, work_dir
        self.cfg_path, self.tracer = cfg_path, tracer
        self.tally = Tally()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)  # seconds
        self.sim: dict = {}  # simulated statistics of pass 0
        self.pass_counts: dict[int, dict[str, float]] = {}  # pass -> work counters
        for module in ("config", "braille", "devices", "crossbar", "pipeline", "cli"):
            setattr(self, module, importlib.import_module(f"tmsim.{module}"))

    def report(self, timing: dict[str, list[float]]) -> dict:
        """What a worker process sends back to the run that started it."""
        return {"timing": timing, "samples": self.samples, "sim": self.sim,
                "attempted": self.tally.attempted, "failed": self.tally.failed,
                "errors": self.tally.errors, "pass_counts": self.pass_counts}

    def absorb(self, report: dict) -> None:
        """Pool a worker's samples, tally and statistics into this run."""
        for name, values in report["samples"].items():
            self.samples[name] += values
        self.tally.attempted += report["attempted"]
        self.tally.failed += report["failed"]
        self.tally.errors = (self.tally.errors + report["errors"])[:MAX_ERRORS]
        for name, value in report["sim"].items():
            self.sim.setdefault(name, value)  # pass 0 runs in the first worker
        self.pass_counts.update({int(k): v for k, v in report["pass_counts"].items()})

    def scope(self, name: str, root: bool = False):
        return self.tracer.span(name, root) if self.tracer else contextlib.nullcontext()

    def attempt(self, what: str, fn):
        """Run one operation; an exception counts it as failed."""
        try:
            return fn()
        except Exception as exc:  # the run must go on and report the failure
            self.tally.record(False, f"{what}: {exc!r}")
            return None

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, k: int) -> tuple[float, float]:
        """Run pass ``k``; return the ``time.perf_counter`` start and end of its timed part."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the timed passes."""

    def summary(self) -> dict[str, dict]:
        """The workload's own figures, each with its unit and sample count.

        They are printed and recorded with every run but not gated: the
        gated end-to-end metrics have to exist on every workload.
        """
        return {}


# ---------------------------------------------------------------------------
# sweep


def _is_accuracy_cell(value: float, n_test: int) -> bool:
    """A held-out accuracy is 100 * k / n_test for an integer k in [0, n_test]."""
    k = value * n_test / 100.0
    return 0.0 <= value <= 100.0 and abs(k - round(k)) <= 1e-9 * n_test


class Sweep(Workload):
    """One in-process `tmsim sweep` per pass, default grid."""

    name = "sweep"

    def setup(self) -> None:
        self.config.load_config(self.cfg_path)  # validates it; `tmsim sweep` loads it again per pass
        self.n_test = {g.value: len(self.braille.symbols(g)) for g in self.braille.BrailleGroup}
        self.n_test["fusion"] = sum(self.n_test.values())
        self.argv = ["sweep", "--seed", str(self.seed), *self.size.sweep_args]
        if self.cfg_path is not None:
            self.argv += ["--config", str(self.cfg_path)]

    def run_pass(self, k: int) -> float:
        out = self.work_dir / f"sweep-s{self.seed}-p{k}"
        shutil.rmtree(out, ignore_errors=True)
        with self.scope("bench.sweep", root=True):
            start = time.perf_counter()
            with contextlib.redirect_stdout(sys.stderr):
                rc = self.attempt("sweep", lambda: self.cli.main(self.argv + ["--out", str(out)]))
            end = time.perf_counter()
        self.samples["sweep"].append(end - start)
        if rc is not None:
            self.attempt("sweep outputs", lambda: self._check(out, rc, k))
        shutil.rmtree(out, ignore_errors=True)
        return start, end

    def _check(self, out: Path, rc: int, k: int) -> None:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        manifest_bytes = (out / "sweep.manifest.json").read_bytes()
        manifest = json.loads(manifest_bytes)
        for name, record in manifest["outputs"].items():
            data = (out / name).read_bytes()
            if hashlib.sha256(data).hexdigest() != record["sha256"] or len(data) != record["bytes"]:
                problems.append(f"{name} does not match its manifest sha256")
        accuracy = manifest["params"]["accuracy"]
        if len(accuracy) != self.size.sweep_cells:
            problems.append(f"{len(accuracy)} accuracy cells, expected {self.size.sweep_cells}")
        for key, value in accuracy.items():
            group = key.split("/")[0]
            if not _is_accuracy_cell(value, self.n_test[group]):
                problems.append(f"accuracy {key}={value!r} is not a multiple of 100/{self.n_test[group]}")
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()
                if not line.startswith("#")]
        header = rows[0]
        for row in rows[1:]:
            for column, cell in zip(header[1:], row[1:]):
                mode, _, sigma2 = column.partition("_sigma2=")
                if cell != f"{accuracy[f'{row[0]}/{mode}/{sigma2}']:.2f}":
                    problems.append(f"sweep.csv {row[0]} {column}={cell} disagrees with the manifest")
        self.tally.record(not problems, "; ".join(problems))
        self.pass_counts[k] = {
            "cli.files_written": len(manifest["outputs"]) + 1,
            "cli.bytes_written": sum(r["bytes"] for r in manifest["outputs"].values()) + len(manifest_bytes),
        }
        if k == 0:
            self.sim["accuracy_pct"] = dict(sorted(accuracy.items()))

    def summary(self) -> dict[str, dict]:
        acc = list(self.sim.get("accuracy_pct", {}).values())
        return {"sweep_s": figure(median(self.samples["sweep"]), "s", self.samples["sweep"]),
                "accuracy_pct": figure(mean(acc), "%", acc)}


# ---------------------------------------------------------------------------
# infer


class Infer(Workload):
    """evaluate() at batch size N and forward() at batch size 1, on two trained networks."""

    name = "infer"
    modes = ("analog", "binary")

    def setup(self) -> None:
        cfg = self.config.load_config(self.cfg_path)
        pipeline, braille = self.pipeline, self.braille
        self.patterns = [(braille.symbol_to_forces(sym, cfg.f_press), sym.label)
                         for g in braille.BrailleGroup for sym in braille.symbols(g)]
        dataset = braille.build_dataset("fusion", copies=HOLDOUT_COPIES, seed=self.seed, f_press=cfg.f_press)
        train_items, _ = pipeline.split_holdout(dataset, copies=HOLDOUT_COPIES)
        arch = pipeline.NetworkArch(labels=tuple(label for _, label in self.patterns))
        self.hw = {}
        for mode in self.modes:
            hyper = pipeline.TrainHyper.from_config(cfg, seed=self.seed, sigma2=INFER_TRAIN_SIGMA2, mode=mode)
            with self.scope("bench.train", root=True):
                tn = pipeline.train(train_items, arch, hyper, cfg)
                self.hw[mode] = pipeline.map_network(tn, cfg)
        self.eval_set = braille.build_dataset("fusion", copies=self.size.eval_copies,
                                              seed=self.seed + 1, f_press=cfg.f_press)
        self.labels = arch.labels

    def run_pass(self, k: int) -> tuple[float, float]:
        rng = np.random.default_rng([self.seed, 1, k])
        picks = rng.integers(0, len(self.patterns), self.size.forwards)
        self.next_noise_seed = (self.seed * 2**24 + k) * 2**20  # fresh noise streams per pass
        start = time.perf_counter()
        eval_s = 0.0
        for mode in self.modes:
            with self.scope("bench.evaluate", root=True):
                t0 = time.perf_counter()
                report = self.attempt(f"evaluate {mode}", lambda: self.pipeline.evaluate(
                    self.hw[mode], self.eval_set, INFER_SIGMA2, seed=self.seed + k))
                eval_s += time.perf_counter() - t0
            if report is not None:
                self._check_report(report, mode, k)
        for mode in self.modes:
            for i in picks:
                self._forward(mode, *self.patterns[i])
        end = time.perf_counter()
        self.samples["eval_items_per_s"].append(
            len(self.modes) * len(self.eval_set) * len(INFER_SIGMA2) / eval_s)
        return start, end

    def _check_report(self, report, mode: str, k: int) -> None:
        n = len(self.eval_set)
        overall = [e for e in report.entries if e.group == "overall"]
        ok = (len(overall) == len(INFER_SIGMA2)
              and all(e.n_items == n for e in overall)
              and all(_is_accuracy_cell(e.accuracy, e.n_items) for e in report.entries))
        self.tally.record(ok, f"evaluate {mode}: malformed accuracy entries")
        if k == 0:
            self.sim.setdefault("accuracy_pct", {}).update(
                {f"{mode}/{e.sigma2:g}": e.accuracy for e in overall})

    def _forward(self, mode: str, forces, label: str) -> None:
        noise = self.pipeline.NoiseSpec(sigma2=INFER_TRAIN_SIGMA2, seed=self.next_noise_seed)
        self.next_noise_seed += 1
        t0 = time.perf_counter()
        out = self.attempt(f"forward {mode} {label}", lambda: self.pipeline.forward(self.hw[mode], forces, noise))
        dt = time.perf_counter() - t0
        if out is None:
            return
        probs, predicted = out
        ok = (bool(np.all(np.isfinite(probs))) and abs(float(probs.sum()) - 1.0) <= PROB_TOLERANCE
              and predicted == self.labels[int(np.argmax(probs))])
        if self.tally.record(ok, f"forward {mode} {label}: probabilities sum to {probs.sum()!r}"):
            self.samples["forward"].append(dt)

    def finish(self) -> None:
        # evaluate at sigma2 = 0 must reproduce the argmax of single-pattern forwards
        for mode in self.modes:
            self.attempt(f"evaluate/forward agreement {mode}", lambda: self._agreement(mode))

    def _agreement(self, mode: str) -> None:
        hw = self.hw[mode]
        predicted = [self.pipeline.forward(hw, forces)[1] for forces, _ in self.patterns]
        truth = [label for _, label in self.patterns]
        n_right = sum(p == t for p, t in zip(predicted, truth))
        expected = Counter((t, p) for t, p in zip(truth, predicted) if t != p)
        report = self.pipeline.evaluate(hw, self.patterns, [0.0], seed=self.seed)
        entry = next(e for e in report.entries if e.group == "overall")
        ok = entry.accuracy == 100.0 * n_right / len(truth) and dict(entry.confusions) == dict(expected)
        self.tally.record(ok, f"{mode}: evaluate at sigma2=0 reports {entry.accuracy}%, "
                              f"forward argmax gives {100.0 * n_right / len(truth)}%")

    def summary(self) -> dict[str, dict]:
        rate, fwd_us = self.samples["eval_items_per_s"], [1e6 * s for s in self.samples["forward"]]
        acc = list(self.sim.get("accuracy_pct", {}).values())
        return {"eval_items_per_s": figure(median(rate), "1/s", rate),
                "forward_p50_us": figure(percentile(fwd_us, 50), "us", fwd_us),
                "forward_p90_us": figure(percentile(fwd_us, 90), "us", fwd_us),
                "accuracy_pct": figure(mean(acc), "%", acc)}


# ---------------------------------------------------------------------------
# nodal


class Nodal(Workload):
    """Parasitic nodal solves: every symbol mask at seven scales, plus large random arrays."""

    name = "nodal"

    def setup(self) -> None:
        cfg = self.cfg = self.config.load_config(self.cfg_path)
        items = self.braille.build_dataset("fusion", copies=1, seed=self.seed, f_press=cfg.f_press)
        self.masks = [forces for forces, _ in items][: self.size.masks]
        base = cfg.parasitics
        self.scale_cfgs = [
            (scale, replace(cfg, parasitics=replace(base, switch_g_off=base.switch_g_off * scale,
                                                    wire_resistance=base.wire_resistance * scale)))
            for scale in LEAKAGE_SCALES
        ]
        self.v = cfg.sensor.v_supply

    def run_pass(self, k: int) -> tuple[float, float]:
        rng = np.random.default_rng([self.seed, 2, k])
        leakage = defaultdict(list)
        start = time.perf_counter()
        for forces in self.masks:
            states = rng.uniform(0.0, 1.0, (4, 2))
            for scale, cfg in self.scale_cfgs:
                with self.scope("bench.pattern", root=True):
                    value = self.attempt("4x2 solve", lambda: self._pattern(forces, states, scale, cfg))
                if value is not None:
                    leakage[f"4x2/{scale:g}"].append(value)
        for side, count in self.size.arrays:
            for _ in range(count):
                spec = self._random_array(side, rng)
                with self.scope("bench.array", root=True):
                    value = self.attempt(f"{side}x{side} solve", lambda: self._array(spec, side))
                if value is not None:
                    leakage[f"{side}x{side}"].append(value)
        end = time.perf_counter()
        if k == 0:
            self.sim["mean_leakage"] = {key: float(np.mean(v)) for key, v in leakage.items()}
        return start, end

    def _pattern(self, forces, states, scale: float, cfg) -> float:
        t0 = time.perf_counter()
        spec = self.pipeline.build_sensor_crossbar(forces, states, cfg, parasitic=True)
        actual = self.crossbar.solve_nodal(spec, self.v)
        dt = time.perf_counter() - t0
        ideal = self.crossbar.ideal_dual_readout(self.v, spec)
        value = self.crossbar.leakage_fraction(ideal, actual)
        ok = math.isfinite(value) and 0.0 <= value < 1.0
        if scale == 0.0:  # no parasitics: the nodal solve must reproduce the ideal readout
            ideal_i, actual_i = ideal.concatenated(), actual.concatenated()
            ok = ok and float(np.abs(actual_i - ideal_i).max()) <= SOLVE_TOLERANCE * float(np.abs(ideal_i).max())
        if self.tally.record(ok, f"4x2 scale {scale:g}: leakage {value!r}"):
            self.samples["4x2"].append(dt)
        return value

    def _random_array(self, side: int, rng):
        """Dual-readout side x side array, random forces and states, default parasitics."""
        devices, cfg = self.devices, self.cfg
        switch = devices.SwitchModel(g_on=cfg.switch_g_on, g_off=cfg.parasitics.switch_g_off, selected=True)
        states = rng.uniform(0.0, 1.0, (side, side))
        forces = rng.uniform(0.0, cfg.f_press, (side, side))
        cells = tuple(
            tuple(devices.CellState(config=devices.CellConfig.TWO_T1M1S,
                                    memristor=replace(cfg.memristor, state_w=float(states[k, l])),
                                    vl_switch=switch, hl_switch=switch, sensor=cfg.sensor,
                                    force_f=float(forces[k, l]))
                  for l in range(side))
            for k in range(side))
        return self.crossbar.CrossbarSpec(
            m=side, n=side, cells=cells, wire_resistance_per_segment=cfg.parasitics.wire_resistance,
            readout=self.crossbar.Readout.VL_AND_HL,
            termination_conductance=cfg.parasitics.termination_conductance)

    def _array(self, spec, side: int) -> float:
        t0 = time.perf_counter()
        actual = self.crossbar.solve_nodal(spec, self.v)
        dt = time.perf_counter() - t0
        value = self.crossbar.leakage_fraction(self.crossbar.ideal_dual_readout(self.v, spec), actual)
        if self.tally.record(math.isfinite(value) and 0.0 <= value < 1.0,
                             f"{side}x{side}: leakage {value!r}"):
            self.samples[f"{side}x{side}"].append(dt)
        return value

    def finish(self) -> None:
        default_cfg = dict(self.scale_cfgs)[1.0]
        pressed, full_states = np.full((4, 2), self.cfg.f_press), np.ones((4, 2))
        for scale, cfg in self.scale_cfgs:
            self.attempt(f"current balance, scale {scale:g}",
                         lambda: self._balance(pressed, full_states, cfg, f"scale {scale:g}"))
        for i, forces in enumerate(self.masks[:10]):
            self.attempt(f"current balance, mask {i}",
                         lambda: self._balance(forces, full_states, default_cfg, f"mask {i}"))
        self.attempt("all-pressed leakage", lambda: self._reference_leakage(pressed, full_states, default_cfg))

    def _balance(self, forces, states, cfg, what: str) -> None:
        spec = self.pipeline.build_sensor_crossbar(forces, states, cfg, parasitic=True)
        _, detail = self.crossbar.solve_nodal_detail(spec, self.v)
        balanced = abs(detail.injected - detail.absorbed) <= SOLVE_TOLERANCE * abs(detail.injected)
        self.tally.record(balanced, f"{what}: injected {detail.injected!r} A, absorbed {detail.absorbed!r} A")

    def _reference_leakage(self, forces, states, cfg) -> None:
        spec = self.pipeline.build_sensor_crossbar(forces, states, cfg, parasitic=True)
        value = self.crossbar.leakage_fraction(self.crossbar.ideal_dual_readout(self.v, spec),
                                               self.crossbar.solve_nodal(spec, self.v))
        self.sim["default_all_pressed_leakage"] = value
        self.tally.record(LEAKAGE_BAND[0] <= value <= LEAKAGE_BAND[1],
                          f"all-pressed leakage {value!r} outside {LEAKAGE_BAND}")

    def summary(self) -> dict[str, dict]:
        small_ms = [1e3 * s for s in self.samples["4x2"]]
        out = {"nodal_4x2_p50_ms": figure(percentile(small_ms, 50), "ms", small_ms),
               "nodal_4x2_p90_ms": figure(percentile(small_ms, 90), "ms", small_ms)}
        for side, _ in self.size.arrays:
            solves = self.samples[f"{side}x{side}"]
            out[f"nodal_{side}x{side}_s"] = figure(median(solves), "s", solves)
        return out


WORKLOADS = {cls.name: cls for cls in (Sweep, Infer, Nodal)}
