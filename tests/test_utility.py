"""Utility families, conjugates, and the asymptotic-elasticity check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcdl.errors import DomainError
from tcdl import utility as ut

FAMILIES = ["log", "power:0.5", "power:-1", "power:0.9"]

specs = st.sampled_from([ut.parse_utility(text) for text in FAMILIES])
positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


def test_parse_round_trip():
    for text in FAMILIES:
        spec = ut.parse_utility(text)
        assert ut.parse_utility(spec.label()) == spec


def test_parse_rejects_garbage():
    for bad in ["exp", "power:", "power:1", "power:0", "power:2", "log:0.5",
                "power:.", "power:e", "power:-", "power:1e5e5", "power:-1e400"]:
        with pytest.raises(DomainError):
            ut.parse_utility(bad)


@pytest.mark.parametrize("alpha", [float("nan"), float("-inf"), -1e-320, 1e-320])
def test_power_utility_refuses_an_exponent_whose_utility_is_not_finite(alpha):
    # NaN passes no comparison; at |alpha| < 1/DBL_MAX, 1/alpha (and, for
    # alpha < 0, the shift 1 - 2^alpha / alpha) overflow
    with pytest.raises(DomainError, match=f"alpha={alpha}"):
        ut.make_utility("power", alpha)


def test_u_is_minus_infinity_off_domain():
    for text in FAMILIES:
        spec = ut.parse_utility(text)
        assert ut.u_eval(spec, 0.0) == -np.inf
        assert ut.u_eval(spec, -1.0) == -np.inf
        with pytest.raises(DomainError):
            ut.u_prime(spec, 0.0)
        with pytest.raises(DomainError):
            ut.v_eval(spec, -1.0)


def test_log_closed_forms():
    spec = ut.make_utility("log")
    assert ut.u_eval(spec, np.e) == pytest.approx(1.0)
    assert ut.v_eval(spec, 1.0) == pytest.approx(-1.0)
    assert ut.i_eval(spec, 4.0) == pytest.approx(0.25)


def test_negative_alpha_normalization():
    # U(2) = 1 by the additive lift chosen for alpha < 0
    spec = ut.make_utility("power", -1.0)
    assert ut.u_eval(spec, 2.0) == pytest.approx(1.0)


@given(specs, positive)
@settings(max_examples=200, deadline=None)
def test_fenchel_young_at_conjugate_point(spec, y):
    # V(y) = U(I(y)) - y I(y): the sup is attained at x = I(y)
    x = ut.i_eval(spec, y)
    lhs = ut.v_eval(spec, y)
    rhs = ut.u_eval(spec, x) - y * x
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@given(specs, positive, positive)
@settings(max_examples=200, deadline=None)
def test_fenchel_young_inequality(spec, x, y):
    assert ut.u_eval(spec, x) <= ut.v_eval(spec, y) + x * y + 1e-9 * (
        1.0 + abs(ut.v_eval(spec, y)) + x * y)


@given(specs, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_v_prime_matches_finite_difference(spec, y):
    h = 1e-6 * y
    fd = (ut.v_eval(spec, y + h) - ut.v_eval(spec, y - h)) / (2 * h)
    assert -ut.i_eval(spec, y) == pytest.approx(fd, rel=1e-6, abs=1e-8)


@given(specs, st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_v_convex_and_decreasing(spec, y1, y2):
    mid = 0.5 * (y1 + y2)
    chord = 0.5 * (ut.v_eval(spec, y1) + ut.v_eval(spec, y2))
    assert ut.v_eval(spec, mid) <= chord + 1e-12 * (1.0 + abs(chord))
    lo, hi = min(y1, y2), max(y1, y2)
    if hi > lo:
        assert ut.v_eval(spec, hi) <= ut.v_eval(spec, lo) + 1e-12


@given(specs, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_i_inverts_marginal_utility(spec, y):
    assert ut.u_prime(spec, ut.i_eval(spec, y)) == pytest.approx(y, rel=1e-12)


def test_log_marginals_are_the_reciprocal_bit_for_bit():
    # log is the exponent a = 0, and x ** -1 must round as 1 / x does: the
    # dual under log then computes the same numbers as a reciprocal would
    spec = ut.make_utility("log")
    x = np.logspace(-300, 300, 6001)
    assert np.array_equal(ut.u_prime(spec, x), 1.0 / x)
    assert np.array_equal(ut.i_eval(spec, x), 1.0 / x)
    for scalar in (3.0, 0.1, 7e-300, 1.7e300):
        assert ut.u_prime(spec, scalar) == 1.0 / scalar
        assert ut.i_eval(spec, scalar) == 1.0 / scalar


def test_asymptotic_elasticity():
    rec = ut.check_rae(ut.make_utility("log"))
    assert rec["value"] == pytest.approx(0.0)
    assert rec["pass"]
    rec = ut.check_rae(ut.make_utility("power", 0.5))
    assert rec["value"] == pytest.approx(0.5)
    assert rec["pass"]
    rec = ut.check_rae(ut.make_utility("power", -1.0))
    assert rec["pass"]
    assert rec["numeric_limsup"] < 1.0


def test_inada_conditions():
    for text in FAMILIES:
        assert ut.check_inada(ut.parse_utility(text))


def test_vectorized_evaluation():
    spec = ut.make_utility("power", 0.5)
    x = np.array([1.0, 4.0, 9.0])
    assert np.allclose(ut.u_eval(spec, x), 2.0 * np.sqrt(x))
    assert np.allclose(ut.u_prime(spec, x), 1.0 / np.sqrt(x))
