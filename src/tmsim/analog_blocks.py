"""Analog computing blocks built around op-amp/BJT current mapping.

The exponential block converts an input voltage into a current through a
diode-connected transistor and reads it back through a feedback resistor,
giving ``r_f * i_s * exp(a / v_t)``.  A summation block accumulates such
voltages, and a translinear division block forms ratios.  Chained together
they evaluate a softmax entirely in the analog domain.

The blocks take floats or arrays (exponential elementwise, summation over
the last axis, division broadcast), so one chain call runs a whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.r_f * self.i_s * (self.r_f / self.r_sum) > 0.0:
            raise ValueError(f"r_f * i_s * r_f / r_sum must not underflow to 0, got r_f={self.r_f}, "
                             f"i_s={self.i_s}, r_sum={self.r_sum}")


def exp_block(a, params: SoftmaxParams = SoftmaxParams()):
    """Exponential current generator output, r_f * i_s * exp(a / v_t), elementwise.

    Args:
        a: input voltage(s) in volts.
        params: block component values.

    Raises:
        ValueError: if some a / v_t is NaN or exceeds the float64 overflow guard.
    """
    # the largest a / v_t: v_t > 0 and rounding keep the order; NaN propagates
    peak = np.maximum.reduce(a, axis=None) / params.v_t
    if not peak <= EXP_ARGUMENT_LIMIT:
        raise ValueError(
            f"exp_block argument must be at most the overflow limit {EXP_ARGUMENT_LIMIT:g}, "
            f"got {peak:.3g}; normalize inputs before exponentiation"
        )
    return _exp(a, params)


def summation_block(x, params: SoftmaxParams = SoftmaxParams()):
    """Inverting summer output, (r_f / r_sum) * sum(x), over the last axis."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("summation_block needs at least one input")
    return _sum(x, params)


def division_block(v1, v2, params: SoftmaxParams = SoftmaxParams()):
    """Translinear divider output, r_f * i_s * (v1 / v2), broadcast; v2 must be positive."""
    low = np.minimum.reduce(v2, axis=None)  # NaN propagates
    if not low > 0.0:
        raise ValueError(f"division_block denominator must be positive, got {low}")
    return _divide(v1, v2, params)


# The block formulas, for arguments the caller has checked.


def _exp(a, params: SoftmaxParams):
    out = np.exp(np.divide(a, params.v_t))
    out *= params.r_f * params.i_s
    return out


def _sum(x: np.ndarray, params: SoftmaxParams):
    out = np.add.reduce(x, axis=-1)
    gain = params.r_f / params.r_sum
    if gain != 1.0:  # equal resistors: multiplying by 1.0 would change no value
        out *= gain
    return out


def _divide(v1, v2, params: SoftmaxParams):
    out = np.divide(v1, v2)
    out *= params.r_f * params.i_s
    return out


def softmax_circuit(a, params: SoftmaxParams = SoftmaxParams()) -> np.ndarray:
    """Analog softmax over the last axis of input voltages (..., n).

    Each row's largest input is subtracted from every channel before the
    exponential stage; that keeps every exp argument non-positive, so the
    overflow guard never trips, without changing the ratios.  A row whose
    largest input is NaN or infinite is rejected.  Outputs are the
    per-channel division-block voltages: they are proportional to
    softmax(a / v_t) and each row sums to r_sum * i_s.

    Args:
        a: input voltages; at least two channels per row.
        params: shared component values.

    Returns:
        Array of output voltages, the shape of ``a``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1] if a.ndim else 1
    if n < 2:
        raise ValueError(f"softmax_circuit needs at least two channels, got {n}")
    shift = np.maximum.reduce(a, axis=-1, keepdims=True)
    # an infinite row maximum would leave inf - inf = NaN; NaN propagates into the bound
    bound = np.maximum.reduce(np.abs(shift), axis=None)
    if not bound < np.inf:
        raise ValueError(f"softmax_circuit needs a finite maximum in every row, got |max| = {bound}")
    # This check covers the blocks' own: after the shift every exp argument is
    # at most 0, and every row sum is at least its top channel's output,
    # r_f * i_s * (r_f / r_sum), which SoftmaxParams keeps positive.
    x = _exp(a - shift, params)
    return _divide(x, _sum(x, params)[..., None], params)
