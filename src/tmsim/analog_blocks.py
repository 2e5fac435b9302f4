"""Analog computing blocks built around op-amp/BJT current mapping.

The exponential block converts an input voltage into a current through a
diode-connected transistor and reads it back through a feedback resistor,
giving ``r_f * i_s * exp(a / v_t)``.  A summation block accumulates such
voltages, and a translinear division block forms ratios.  Chained together
they evaluate a softmax entirely in the analog domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SoftmaxParams",
    "EXP_ARGUMENT_LIMIT",
    "exp_block",
    "summation_block",
    "division_block",
    "softmax_circuit",
]

# exp() overflows float64 just above exp(709); reject a safe distance before.
EXP_ARGUMENT_LIMIT = 700.0


@dataclass(frozen=True)
class SoftmaxParams:
    """Component values shared by the exponential/summation/division blocks."""

    r_f: float = 1.0e5  # Ohm, feedback resistor
    i_s: float = 1.0e-9  # A, transistor saturation current
    v_t: float = 0.026  # V, thermal voltage
    r_sum: float = 1.0e5  # Ohm, input resistors of the summation block

    def __post_init__(self) -> None:
        for name in ("r_f", "i_s", "v_t", "r_sum"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


def exp_block(a: float, params: SoftmaxParams = SoftmaxParams()) -> float:
    """Exponential current generator output, r_f * i_s * exp(a / v_t).

    Args:
        a: input voltage in volts.
        params: block component values.

    Raises:
        ValueError: if a / v_t exceeds the float64 overflow guard.
    """
    ratio = a / params.v_t
    if ratio > EXP_ARGUMENT_LIMIT:
        raise ValueError(
            f"exp_block argument {ratio:.3g} exceeds overflow limit {EXP_ARGUMENT_LIMIT:g}; "
            "normalize inputs before exponentiation"
        )
    return params.r_f * params.i_s * math.exp(ratio)


def summation_block(x: Sequence[float], params: SoftmaxParams = SoftmaxParams()) -> float:
    """Inverting summer output, (r_f / r_sum) * sum(x)."""
    if len(x) == 0:
        raise ValueError("summation_block needs at least one input")
    return (params.r_f / params.r_sum) * math.fsum(x)


def division_block(v1: float, v2: float, params: SoftmaxParams = SoftmaxParams()) -> float:
    """Translinear divider output, r_f * i_s * (v1 / v2); v2 must be positive."""
    if v2 <= 0.0:
        raise ValueError(f"division_block denominator must be positive, got {v2}")
    return params.r_f * params.i_s * (v1 / v2)


def softmax_circuit(a: Sequence[float], params: SoftmaxParams = SoftmaxParams()) -> np.ndarray:
    """Analog softmax over a vector of input voltages.

    The largest input is subtracted from every channel before the
    exponential stage; that keeps every exp argument non-positive so the
    overflow guard can never trip, without changing the ratios.  Outputs
    are the per-channel division-block voltages: they are proportional to
    softmax(a / v_t) and sum to r_f * i_s.

    Args:
        a: input voltages; at least two channels.
        params: shared component values.

    Returns:
        Array of output voltages, one per channel.
    """
    values = [float(v) for v in a]
    if len(values) < 2:
        raise ValueError(f"softmax_circuit needs at least two channels, got {len(values)}")
    shift = max(values)
    x = [exp_block(v - shift, params) for v in values]
    total = summation_block(x, params)
    return np.array([division_block(xi, total, params) for xi in x])
