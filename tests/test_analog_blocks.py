"""Analog softmax chain tests.

Point values are frozen from scalar evaluation of the block transfer
functions; the chain-level checks compare the composed circuit against the
mathematical softmax it should realize.
"""

import math

import numpy as np
import pytest

from tmsim.analog_blocks import (
    EXP_ARGUMENT_LIMIT,
    SoftmaxParams,
    division_block,
    exp_block,
    softmax_circuit,
    summation_block,
)

P = SoftmaxParams()
FULL_SCALE = P.r_f * P.i_s  # 1e-4 V


def _reference_softmax(a, v_t):
    z = np.asarray(a, dtype=float) / v_t
    e = np.exp(z - z.max())
    return e / e.sum()


class TestExpBlock:
    def test_zero_input_gives_full_scale(self):
        assert exp_block(0.0) == pytest.approx(1e-4, rel=1e-12)

    def test_unit_exponent(self):
        assert exp_block(P.v_t) == pytest.approx(1e-4 * math.e, rel=1e-12)

    def test_tenth_volt(self):
        assert exp_block(0.1) == pytest.approx(0.004681266781732767, rel=1e-12)

    def test_overflow_guard(self):
        limit_volts = EXP_ARGUMENT_LIMIT * P.v_t
        exp_block(limit_volts)  # at the limit: allowed
        with pytest.raises(ValueError):
            exp_block(limit_volts * 1.01)


class TestSummationBlock:
    def test_equal_resistors_plain_sum(self):
        assert summation_block([1e-4, 1e-4]) == pytest.approx(2e-4, rel=1e-12)

    def test_half_gain(self):
        half = SoftmaxParams(r_sum=2 * P.r_f)
        assert summation_block([2e-4], half) == pytest.approx(1e-4, rel=1e-12)

    def test_composition_with_exp(self):
        x = [exp_block(0.0), exp_block(P.v_t)]
        assert summation_block(x) == pytest.approx(1e-4 * (1 + math.e), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summation_block([])


class TestDivisionBlock:
    def test_unity_ratio(self):
        assert division_block(3.3e-3, 3.3e-3) == pytest.approx(1e-4, rel=1e-12)

    def test_zero_numerator(self):
        assert division_block(0.0, 1e-3) == 0.0

    def test_half_ratio(self):
        assert division_block(4.6813e-3, 9.3626e-3) == pytest.approx(5e-5, rel=1e-12)

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ValueError):
            division_block(1e-4, 0.0)
        with pytest.raises(ValueError):
            division_block(1e-4, -1e-4)


class TestSoftmaxCircuit:
    def test_equal_inputs_split_evenly(self):
        out = softmax_circuit([0.3, 0.3])
        np.testing.assert_allclose(out, 5e-5, rtol=1e-12)
        out4 = softmax_circuit([0.0] * 4)
        np.testing.assert_allclose(out4, FULL_SCALE / 4, rtol=1e-12)

    def test_winner_takes_nearly_all(self):
        out = softmax_circuit([0.1, 0.2])
        np.testing.assert_allclose(
            out, [2.09149592702207e-06, 9.790850407297795e-05], rtol=1e-12
        )
        assert out[1] > 40 * out[0]

    def test_outputs_sum_to_full_scale(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, rng.integers(2, 12))
            total = softmax_circuit(a).sum()
            assert total == pytest.approx(FULL_SCALE, rel=1e-9)

    def test_matches_reference_softmax(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.uniform(-1.0, 1.0, rng.integers(2, 12))
            out = softmax_circuit(a) / FULL_SCALE
            np.testing.assert_allclose(out, _reference_softmax(a, P.v_t), rtol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-0.5, 0.5, 9)
        np.testing.assert_allclose(
            softmax_circuit(a), softmax_circuit(a + 0.37), rtol=1e-9
        )

    def test_argmax_matches_input_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            a = rng.uniform(-1.0, 1.0, rng.integers(2, 12))
            assert int(np.argmax(softmax_circuit(a))) == int(np.argmax(a))

    def test_large_inputs_do_not_overflow(self):
        # raw exp of 100 V / 26 mV would overflow; internal shift must not
        out = softmax_circuit([100.0, 100.0 + P.v_t])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(), FULL_SCALE, rtol=1e-9)

    def test_lower_thermal_voltage_sharpens(self):
        rng = np.random.default_rng(10)
        sharp = SoftmaxParams(v_t=0.013)
        for _ in range(50):
            a = rng.uniform(-0.3, 0.3, 6)
            assert softmax_circuit(a, sharp).max() >= softmax_circuit(a).max()

    def test_single_channel_rejected(self):
        with pytest.raises(ValueError):
            softmax_circuit([0.1])


class TestArrays:
    """Array calls compute exactly what the scalar and single-vector calls do."""

    def test_blocks_equal_elementwise_scalar_calls(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0.0, 0.5, (7, 5))
        x = exp_block(a)
        assert np.array_equal(x, [[exp_block(float(v)) for v in row] for row in a])
        total = summation_block(x)
        assert np.array_equal(total, [summation_block(row.tolist()) for row in x])
        out = division_block(x, total[:, None])
        assert np.array_equal(
            out, [[division_block(float(v), float(t)) for v in row] for row, t in zip(x, total)]
        )

    @pytest.mark.parametrize("n", [2, 9, 125])
    def test_rows_of_a_2d_call_equal_1d_calls(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(0.0, 0.5, (40, n))
        out = softmax_circuit(a)
        assert out.shape == a.shape
        assert np.array_equal(out, [softmax_circuit(row) for row in a])
        stacked = softmax_circuit(a.reshape(4, 10, n))
        assert np.array_equal(stacked, out.reshape(4, 10, n))

    @pytest.mark.parametrize("params", [P, SoftmaxParams(v_t=0.013, r_sum=2 * P.r_f)])
    def test_chain_equals_the_checked_blocks_composed(self, params):
        rng = np.random.default_rng(12)
        a = rng.normal(0.0, 0.5, (40, 9))
        a[5, 2] = -np.inf  # below a finite maximum: a zero channel
        shifted = a - a.max(axis=-1, keepdims=True)
        x = exp_block(shifted, params)
        want = division_block(x, summation_block(x, params)[:, None], params)
        assert np.array_equal(softmax_circuit(a, params), want)

    def test_empty_last_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one input"):
            summation_block(np.empty((3, 0)))


class TestNonFiniteRejected:
    @pytest.mark.parametrize("a, got", [([np.nan, 0.0], "nan"), ([0.0, np.nan], "nan"),
                                        ([np.inf, 0.0], "inf"), ([-np.inf, -np.inf], "inf")])
    def test_chain(self, a, got):
        with pytest.raises(ValueError, match=f"finite maximum in every row, got \\|max\\| = {got}"):
            softmax_circuit(a)

    def test_chain_rejects_one_bad_row_of_many(self):
        a = np.zeros((5, 3))
        a[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite maximum in every row"):
            softmax_circuit(a)

    def test_negative_infinity_below_a_finite_maximum_gives_zero(self):
        out = softmax_circuit([-np.inf, 0.0])
        assert out[0] == 0.0 and out[1] == FULL_SCALE

    def test_exp_block(self):
        with pytest.raises(ValueError, match="exp_block .* got nan"):
            exp_block(np.nan)
        with pytest.raises(ValueError, match="exp_block .* got inf"):
            exp_block(np.inf)

    def test_division_block_denominator(self):
        with pytest.raises(ValueError, match="division_block .* got nan"):
            division_block(1.0, np.nan)
        with pytest.raises(ValueError, match="division_block .* got nan"):
            division_block(np.ones(3), np.array([1.0, np.nan, 1.0]))


def test_params_validation():
    with pytest.raises(ValueError):
        SoftmaxParams(r_f=0.0)
    with pytest.raises(ValueError):
        SoftmaxParams(v_t=-0.026)
    with pytest.raises(ValueError, match="v_t .* got nan"):
        SoftmaxParams(v_t=np.nan)
    with pytest.raises(ValueError, match="r_f .* got inf"):
        SoftmaxParams(r_f=np.inf)


def test_params_reject_an_underflowing_row_sum():
    with pytest.raises(ValueError, match="must not underflow to 0"):
        SoftmaxParams(r_f=1e-160, i_s=1e-160)
    with pytest.raises(ValueError, match="must not underflow to 0"):
        SoftmaxParams(r_f=1e-10, r_sum=1e300)
