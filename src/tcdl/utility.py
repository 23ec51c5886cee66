"""Utility families, their convex conjugates, and inverse marginal utility.

Two families are shipped: ``log`` (U(x) = ln x) and ``power`` (U(x) = x^a / a,
0 != a < 1).  Both are strictly increasing, strictly concave on (0, inf) with
U = -inf on the nonpositive half line, satisfy the Inada conditions, and have
asymptotic elasticity strictly below one, so the duality machinery applies
without extra hypotheses.

For a < 0 the raw power utility is negative everywhere; an additive constant
is chosen so that U(2) = 1 > 0 (the analysis assumes a utility positive at
infinity).  The constant shifts U and its conjugate V equally and changes
neither marginal utilities nor optimizers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_RAE_GRID = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8]


@dataclass(frozen=True)
class UtilitySpec:
    family: str                # "log" | "power"
    alpha: float | None = None
    shift: float = 0.0         # additive normalization constant

    def label(self) -> str:
        return "log" if self.family == "log" else f"power:{self.alpha:g}"


def make_utility(family: str, alpha: float | None = None) -> UtilitySpec:
    if family == "log":
        return UtilitySpec("log")
    if family == "power":
        if alpha is None or alpha >= 1 or alpha == 0:
            raise DomainError(f"power utility needs alpha < 1, alpha != 0, got {alpha}")
        shift = 0.0
        if alpha < 0:
            # x^a/a < 0 everywhere; lift so that U(2) = 1.
            shift = 1.0 - 2.0 ** alpha / alpha
        return UtilitySpec("power", float(alpha), shift)
    raise DomainError(f"unknown utility family {family!r}")


def parse_utility(text: str) -> UtilitySpec:
    """Parse a CLI utility spec: ``log`` or ``power:<alpha>``."""
    if text == "log":
        return make_utility("log")
    m = re.fullmatch(r"power:([-+0-9.eE]+)", text)
    if m:
        return make_utility("power", float(m.group(1)))
    raise DomainError(f"cannot parse utility spec {text!r}")


def u_eval(spec: UtilitySpec, x) -> float | np.ndarray:
    """U(x); -inf for x <= 0.  Accepts scalars or arrays."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    pos = x > 0
    if spec.family == "log":
        out[pos] = np.log(x[pos])
    else:
        a = spec.alpha
        out[pos] = x[pos] ** a / a + spec.shift
    return out if out.shape else float(out)


def u_prime(spec: UtilitySpec, x) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("u_prime requires x > 0")
    out = 1.0 / x if spec.family == "log" else x ** (spec.alpha - 1.0)
    return out if out.shape else float(out)


def u_double_prime(spec: UtilitySpec, x) -> float | np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("u_double_prime requires x > 0")
    if spec.family == "log":
        out = -1.0 / x ** 2
    else:
        a = spec.alpha
        out = (a - 1.0) * x ** (a - 2.0)
    return out if out.shape else float(out)


def v_eval(spec: UtilitySpec, y) -> float | np.ndarray:
    """Convex conjugate V(y) = sup_{x>0} {U(x) - x y}, closed form."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("v_eval requires y > 0")
    if spec.family == "log":
        out = -np.log(y) - 1.0
    else:
        a = spec.alpha
        out = (1.0 / a - 1.0) * y ** (a / (a - 1.0)) + spec.shift
    return out if out.shape else float(out)


def i_eval(spec: UtilitySpec, y) -> float | np.ndarray:
    """Inverse marginal utility I = (U')^{-1} = -V'."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("i_eval requires y > 0")
    out = 1.0 / y if spec.family == "log" else y ** (1.0 / (spec.alpha - 1.0))
    return out if out.shape else float(out)


def v_prime_closed(spec: UtilitySpec, y) -> float | np.ndarray:
    return -i_eval(spec, y)


def check_rae(spec: UtilitySpec) -> dict:
    """Asymptotic elasticity AE(U) = limsup x U'(x)/U(x), plus a numeric check.

    Returns the closed-form family value (0 for log, alpha for power) and the
    elasticity ratio sampled on a wide grid; ``pass`` requires both below 1.
    """
    value = 0.0 if spec.family == "log" else float(spec.alpha)
    ratios = []
    for x in _RAE_GRID:
        u = u_eval(spec, x)
        ratios.append(x * u_prime(spec, x) / u)
    numeric = max(ratios)
    return {
        "value": value,
        "numeric_limsup": float(numeric),
        "pass": bool(value < 1.0 and numeric < 1.0),
    }


def check_inada(spec: UtilitySpec) -> bool:
    """Numeric Inada check: U' diverges geometrically at 0+ and decays at infinity.

    A scale-free test (ratios along a log-spaced grid) rather than fixed
    thresholds, so it certifies every admissible power exponent, including
    those close to 1 where U' diverges slowly.
    """
    xs = np.logspace(-10, 10, 21)
    up = u_prime(spec, xs)
    ratios = up[:-1] / up[1:]
    return bool(np.all(ratios >= 1.05))
