"""What the traced run wraps, and the per-layer metrics it reports.

``TARGETS`` lists every wrapped tmsim function with each namespace where a
caller looks it up.  ``per_layer_metrics`` turns the spans and counters of
the set-up plus one pass (the mean over the traced passes) into the
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import math


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _train_attrs(args, kwargs, result):
    dataset, hyper = _arg(args, kwargs, 0, "dataset"), _arg(args, kwargs, 2, "hyper")
    return {"steps": hyper.epochs * math.ceil(len(dataset) / hyper.batch_size)}


def _evaluate_attrs(args, kwargs, result):
    return {"item_levels": len(_arg(args, kwargs, 1, "dataset")) * len(_arg(args, kwargs, 2, "sigma2_grid"))}


def _dataset_attrs(args, kwargs, result):
    return {"items": len(result)}


def _solve_attrs(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return {"bucket": f"{spec.m}x{spec.n}"}


TARGETS = [
    ("cli.main", [("tmsim.cli", "main")], {}),
    ("config.load_config", [("tmsim.config", "load_config"), ("tmsim.cli", "load_config")], {}),
    ("braille.build_dataset", [("tmsim.braille", "build_dataset"), ("tmsim.cli", "build_dataset")],
     {"attrs": _dataset_attrs}),
    ("pipeline.sweep_point", [("tmsim.cli", "sweep_point"), ("tmsim.pipeline", "sweep_point")],
     {"root": True}),
    ("pipeline.train", [("tmsim.pipeline", "train"), ("tmsim.cli", "train")], {"attrs": _train_attrs}),
    ("pipeline.map_network", [("tmsim.pipeline", "map_network")], {}),
    ("pipeline.evaluate", [("tmsim.pipeline", "evaluate"), ("tmsim.cli", "evaluate")],
     {"attrs": _evaluate_attrs}),
    ("pipeline.forward", [("tmsim.pipeline", "forward")], {"root": True}),
    ("pipeline.sensor_layer_forward", [("tmsim.pipeline", "sensor_layer_forward")], {}),
    ("pipeline.build_sensor_crossbar",
     [("tmsim.pipeline", "build_sensor_crossbar"), ("tmsim.cli", "build_sensor_crossbar")], {}),
    ("crossbar.ideal_dual_readout",
     [("tmsim.crossbar", "ideal_dual_readout"), ("tmsim.pipeline", "ideal_dual_readout"),
      ("tmsim.cli", "ideal_dual_readout")], {}),
    ("crossbar.solve_nodal",
     [("tmsim.crossbar", "solve_nodal"), ("tmsim.pipeline", "solve_nodal"), ("tmsim.cli", "solve_nodal")],
     {"attrs": _solve_attrs}),
    ("crossbar.leakage_fraction", [("tmsim.crossbar", "leakage_fraction"), ("tmsim.cli", "leakage_fraction")],
     {}),
    # called per cell, thousands of times per operation: counted, not spanned
    ("devices.cell_conductance", [("tmsim.crossbar", "cell_conductance"), ("tmsim.devices", "cell_conductance")],
     {"count_only": True}),
    ("devices.series_conductance",
     [("tmsim.crossbar", "series_conductance"), ("tmsim.devices", "series_conductance")],
     {"count_only": True}),
]

# (metric, unit, span or counter name, field); see per_layer_metrics for the derived ones
_PLAIN = [
    ("pipeline.train.calls", "count", "pipeline.train", "calls"),
    ("pipeline.train.steps", "count", "pipeline.train", "steps"),
    ("pipeline.train.busy_s", "s", "pipeline.train", "busy_s"),
    ("pipeline.evaluate.calls", "count", "pipeline.evaluate", "calls"),
    ("pipeline.evaluate.item_levels", "count", "pipeline.evaluate", "item_levels"),
    ("pipeline.evaluate.busy_s", "s", "pipeline.evaluate", "busy_s"),
    ("pipeline.forward.calls", "count", "pipeline.forward", "calls"),
    ("pipeline.sensor_layer_forward.busy_s", "s", "pipeline.sensor_layer_forward", "busy_s"),
    ("crossbar.ideal_dual_readout.calls", "count", "crossbar.ideal_dual_readout", "calls"),
    ("crossbar.ideal_dual_readout.busy_s", "s", "crossbar.ideal_dual_readout", "busy_s"),
    ("devices.cell_conductance.calls", "count", "devices.cell_conductance", "value"),
    ("devices.series_conductance.calls", "count", "devices.series_conductance", "value"),
    ("pipeline.build_sensor_crossbar.calls", "count", "pipeline.build_sensor_crossbar", "calls"),
    ("pipeline.build_sensor_crossbar.busy_s", "s", "pipeline.build_sensor_crossbar", "busy_s"),
    ("crossbar.solve_nodal.4x2.calls", "count", "crossbar.solve_nodal.4x2", "calls"),
    ("crossbar.solve_nodal.4x2.busy_s", "s", "crossbar.solve_nodal.4x2", "busy_s"),
    ("crossbar.solve_nodal.16x16.calls", "count", "crossbar.solve_nodal.16x16", "calls"),
    ("crossbar.solve_nodal.16x16.busy_s", "s", "crossbar.solve_nodal.16x16", "busy_s"),
    ("crossbar.solve_nodal.32x32.calls", "count", "crossbar.solve_nodal.32x32", "calls"),
    ("crossbar.solve_nodal.32x32.busy_s", "s", "crossbar.solve_nodal.32x32", "busy_s"),
    ("crossbar.leakage_fraction.calls", "count", "crossbar.leakage_fraction", "calls"),
    ("pipeline.map_network.calls", "count", "pipeline.map_network", "calls"),
    ("pipeline.map_network.busy_s", "s", "pipeline.map_network", "busy_s"),
    ("braille.build_dataset.calls", "count", "braille.build_dataset", "calls"),
    ("braille.build_dataset.items", "count", "braille.build_dataset", "items"),
    ("braille.build_dataset.busy_s", "s", "braille.build_dataset", "busy_s"),
    ("config.load_config.busy_s", "s", "config.load_config", "busy_s"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.files_written", "count", "cli.files_written", "value"),
    ("cli.bytes_written", "bytes", "cli.bytes_written", "value"),
]

_DERIVED = [
    ("pipeline.train.us_per_step", "us"),
    ("pipeline.evaluate.us_per_item", "us"),
    ("pipeline.forward.self_us", "us"),
    ("trace.overhead_frac", "ratio"),
]

UNITS = {name: unit for name, unit, *_ in _PLAIN} | dict(_DERIVED)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer_metrics(layers: dict[str, dict], overhead_frac: float) -> dict[str, float]:
    """Metric values from per-name totals: ``spans.summarize`` entries, and
    ``{"value": n}`` for plain counters."""
    def get(name: str, field: str) -> float:
        return float(layers.get(name, {}).get(field, 0.0))

    out = {metric: get(name, field) for metric, _, name, field in _PLAIN}
    out["pipeline.train.us_per_step"] = _ratio(get("pipeline.train", "busy_s"), get("pipeline.train", "steps"), 1e6)
    out["pipeline.evaluate.us_per_item"] = _ratio(
        get("pipeline.evaluate", "busy_s"), get("pipeline.evaluate", "item_levels"), 1e6)
    out["pipeline.forward.self_us"] = _ratio(get("pipeline.forward", "self_s"), get("pipeline.forward", "calls"), 1e6)
    out["trace.overhead_frac"] = overhead_frac
    return out
