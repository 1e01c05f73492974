"""Bit-exactness of the shared sigmoid and of the bracketed calibration.

:func:`calibrate_intercept` must return exactly the float that plain
bisection returns.  :class:`ReferenceBisection` is that bisection, kept
here as the reference; the property test compares the two over random
logits, weights and targets, and the fallback cases pin inputs for which
the Newton bracket cannot be confirmed, asserting the fallback ran.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.synthetic as synthetic
from repro.data.synthetic import calibrate_intercept
from repro.utils.numeric import stable_sigmoid


def masked_sigmoid(x):
    """The masked two-branch sigmoid :func:`stable_sigmoid` replaced."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class ReferenceBisection:
    """Plain bisection on ``[-30, 30]``: the loop :func:`calibrate_intercept`
    replaced, kept as its bit-exact reference.  Every midpoint is
    evaluated, and the evaluation multiplies by a vector of ones when
    ``weights`` is ``None``."""

    def __init__(self, tolerance=1e-6):
        self.tolerance = tolerance
        self.evaluations = 0

    def __call__(self, logits, target_rate, weights=None):
        if weights is None:
            weights = np.ones_like(logits)
        total = weights.sum()
        if total <= 0:
            raise ValueError("calibration weights sum to zero")

        def rate(b):
            self.evaluations += 1
            return float((weights * masked_sigmoid(logits + b)).sum() / total)

        low, high = -30.0, 30.0
        for _ in range(200):
            mid = 0.5 * (low + high)
            if rate(mid) < target_rate:
                low = mid
            else:
                high = mid
            if high - low < self.tolerance:
                break
        return 0.5 * (low + high)


@pytest.fixture
def brackets(monkeypatch):
    """Records what every :func:`_root_bracket` call returned."""
    seen = []
    real = synthetic._root_bracket

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(synthetic, "_root_bracket", spy)
    return seen


def _fallback_ran(bracket):
    return bracket == (-math.inf, math.inf)


def _bits(value):
    return float(value).hex()


class TestStableSigmoid:
    SPECIAL = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
        745.0, -745.0, 745.2, -745.2, 709.8, -709.8, 36.7, -36.7, 1e300, -1e300,
    ]

    def _assert_identical(self, x):
        # Bytes, not values: NaN payloads and the sign of zero count too.
        assert stable_sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_special_values(self):
        self._assert_identical(np.array(self.SPECIAL))

    def test_random_data(self, rng):
        x = np.concatenate(
            [
                rng.normal(size=20_000) * 12,
                rng.uniform(-760, 760, size=5_000),
                rng.normal(size=1_000) * 1e-310,
            ]
        )
        self._assert_identical(x)

    def test_in_place_and_shapes(self, rng):
        x = rng.normal(size=(40, 25)) * 20
        expected = masked_sigmoid(x)
        assert stable_sigmoid(x).shape == (40, 25)
        stable_sigmoid(x, out=x)
        assert x.tobytes() == expected.tobytes()
        assert stable_sigmoid(np.array([])).shape == (0,)


class TestCalibrateIntercept:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3_000),
        scale=st.sampled_from([0.0, 0.3, 1.0, 2.2, 6.0, 15.0]),
        offset=st.floats(-12.0, 12.0),
        weighting=st.sampled_from(["none", "uniform", "propensity", "sparse"]),
        target=st.one_of(
            st.floats(1e-9, 1.0 - 1e-9),
            st.sampled_from([1e-9, 1e-6, 0.04, 0.5, 0.72, 1.0 - 1e-9]),
        ),
    )
    def test_bit_equal_to_reference_bisection(
        self, seed, n, scale, offset, weighting, target
    ):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=n) * scale + offset
        weights = {
            "none": None,
            "uniform": rng.random(n),
            "propensity": masked_sigmoid(rng.normal(size=n) * 2 - 3),
            "sparse": rng.random(n) * (rng.random(n) < 0.1),
        }[weighting]
        if weights is not None and weights.sum() <= 0:
            weights[0] = 1.0
        expected = ReferenceBisection()(logits, target, weights)
        assert _bits(calibrate_intercept(logits, target, weights)) == _bits(expected)

    @pytest.mark.parametrize(
        "case",
        [
            "target_1e-9",
            "target_1-1e-9",
            "target_0",
            "target_1",
            "constant_logits_root_outside",
            "one_subnormal_weight",
            "negative_weight",
            "nan_logit",
        ],
    )
    def test_fallback_cases_are_bit_equal(self, case, rng, brackets):
        logits = rng.normal(size=5_000) * 2.0
        weights = None
        target = 0.1
        if case == "target_1e-9":
            target = 1e-9  # the rate moves less than the margin over 1e-5
        elif case == "target_1-1e-9":
            target = 1.0 - 1e-9
        elif case in ("target_0", "target_1"):
            target = float(case[-1])  # no root: the bisection pins an end
        elif case == "constant_logits_root_outside":
            logits = np.full(5_000, 40.0)  # root at -41.4, outside [-30, 30]
            target = 0.3
        elif case == "one_subnormal_weight":
            weights = np.zeros(5_000)
            weights[17] = 5e-324  # weighted products underflow
        elif case == "negative_weight":
            weights = rng.random(5_000)
            weights[3] = -0.5  # the weighted mean need not be monotone
        elif case == "nan_logit":
            logits[11] = np.nan
        expected = ReferenceBisection()(logits, target, weights)
        assert _bits(calibrate_intercept(logits, target, weights)) == _bits(expected)
        assert len(brackets) == 1 and _fallback_ran(brackets[0])

    @pytest.mark.parametrize(
        "weighted,target", [(False, 0.04), (True, 0.25), (False, 0.72), (True, 0.35)]
    )
    def test_typical_calibration_takes_the_bracket(
        self, weighted, target, rng, brackets, monkeypatch
    ):
        logits = rng.normal(size=50_000) * 2.2 - 1.0
        weights = masked_sigmoid(logits - 2.0) if weighted else None
        calls = [0]
        real = synthetic.stable_sigmoid

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(synthetic, "stable_sigmoid", counting)
        reference = ReferenceBisection()
        expected = reference(logits, target, weights)
        assert _bits(calibrate_intercept(logits, target, weights)) == _bits(expected)
        assert len(brackets) == 1 and not _fallback_ran(brackets[0])
        below, above = brackets[0]
        assert below < expected < above
        # Newton steps plus two confirmations plus the in-bracket tail.
        assert calls[0] < reference.evaluations - 5

    def test_constant_logits_inside_range(self):
        logits = np.full(1_000, 0.5)
        expected = ReferenceBisection()(logits, 0.3)
        assert _bits(calibrate_intercept(logits, 0.3)) == _bits(expected)
