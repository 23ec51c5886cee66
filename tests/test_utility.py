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
    for bad in ["exp", "power:", "power:1", "power:0", "power:2", "log:0.5"]:
        with pytest.raises(DomainError):
            ut.parse_utility(bad)


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
    assert ut.v_prime_closed(spec, y) == pytest.approx(fd, rel=1e-6, abs=1e-8)


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


def test_u_double_prime_is_the_derivative_of_u_prime():
    # the primal Hessian's U'' against a central difference of U', on the
    # wealths I(y) of a y grid
    for text in FAMILIES:
        spec = ut.parse_utility(text)
        for y in (0.1, 1.0, 7.0):
            x = ut.i_eval(spec, y)
            h = 1e-5 * x
            fd = (ut.u_prime(spec, x + h) - ut.u_prime(spec, x - h)) / (2.0 * h)
            assert ut.u_double_prime(spec, x) == pytest.approx(fd, rel=1e-7)


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
