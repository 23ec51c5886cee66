"""Independent oracles used to freeze expected values in the test suite.

These deliberately avoid the library's own solvers: linear programs are
checked by enumerating basic feasible points of the constraint polytope,
and one-dimensional concave problems by golden-section search.  The
reference builders at the end keep the straightforward form of code the
library now does faster, so the tests can require equal results.
"""

from itertools import combinations

import numpy as np
from scipy.optimize import brentq

from tcdl import dual as du
from tcdl import utility as ut
from tcdl.errors import MarketError
from tcdl.market import build_market


def vertex_enumerate(A_eq, b_eq, G, h, tol=1e-9):
    """All vertices of {z : A_eq z = b_eq, G z <= h} by basis enumeration."""
    A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    b_eq = np.asarray(b_eq, dtype=float)
    h = np.asarray(h, dtype=float)
    n = A_eq.shape[1]
    need = n - A_eq.shape[0]
    vertices = []
    for rows in combinations(range(G.shape[0]), max(need, 0)):
        M = np.vstack([A_eq, G[list(rows)]])
        rhs = np.concatenate([b_eq, h[list(rows)]])
        if np.linalg.matrix_rank(M) < n:
            continue
        z, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.abs(M @ z - rhs).max() > tol:
            continue
        if (G @ z - h).max() > tol and G.shape[0]:
            continue
        if np.abs(A_eq @ z - b_eq).max() > tol:
            continue
        if not any(np.abs(z - v).max() < 1e-8 for v in vertices):
            vertices.append(z)
    return vertices


def lp_max_by_vertices(c, A_eq, b_eq, G, h):
    """Maximum of c.z over the polytope, by vertex enumeration."""
    vertices = vertex_enumerate(A_eq, b_eq, G, h)
    assert vertices, "oracle polytope is empty"
    return max(float(np.dot(c, v)) for v in vertices)


def golden_section_max(f, lo, hi, iters=200):
    """Maximum of a concave scalar function on [lo, hi]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def binomial_cps_polytope_matrices(s0, s_up, s_down, lam, p_up=0.5):
    """Equality and inequality matrices of the one-period CPS polytope.

    Variables ordered [z0_root, z0_down, z0_up, z1_root, z1_down, z1_up],
    matching the library's node ordering (root, down, up).
    """
    p_down = 1.0 - p_up
    A_eq = np.array([
        [1, 0, 0, 0, 0, 0],                     # z0 at the root is 1
        [1, -p_down, -p_up, 0, 0, 0],           # z0 martingale
        [0, 0, 0, 1, -p_down, -p_up],           # z1 martingale
    ], dtype=float)
    b_eq = np.array([1.0, 0.0, 0.0])
    rows = []
    rhs = []
    for i, s in enumerate((s0, s_down, s_up)):
        low = np.zeros(6)
        low[3 + i] = -1.0
        low[i] = (1.0 - lam) * s
        rows.append(low)
        rhs.append(0.0)
        high = np.zeros(6)
        high[3 + i] = 1.0
        high[i] = -s
        rows.append(high)
        rhs.append(0.0)
    for i in range(6):
        nn = np.zeros(6)
        nn[i] = -1.0
        rows.append(nn)
        rhs.append(0.0)
    return A_eq, b_eq, np.array(rows), np.array(rhs)


def tree_matrices_by_rows(model):
    """CPS polytope rows (A, b, G, h) and trade maps (C, D) built one row at a time.

    The reference for ``dual.cps_polytope`` and ``primal._trade_matrices``:
    equality rows are the root normalisation, then per internal node its z0
    and z1 martingale rows (z0 and S z0 at lam = 0, the second only where
    some child's price differs from the node's); inequality rows are per
    node z0 >= 0 and, for lam > 0, z1 >= 0, (1 - lam) S z0 <= z1 and
    z1 <= S z0; leaf rows of C and D walk the path from the root.
    """
    tree, s, lam = model.tree, model.ask(), model.lam
    n = tree.n_nodes
    nv = n if lam == 0.0 else 2 * n
    A, G = [np.eye(1, nv)[0]], []
    for k in range(n):
        ch = list(tree.children[k])
        if ch:
            cp = np.array(tree.cond_prob[k])
            r0, r1 = np.zeros(nv), np.zeros(nv)
            r0[k], r0[ch] = 1.0, -cp
            if lam == 0.0:
                r1[k], r1[ch] = s[k], -cp * s[ch]
            else:
                r1[k + n], r1[np.array(ch) + n] = 1.0, -cp
            A += [r0] if lam == 0.0 and all(s[ch] == s[k]) else [r0, r1]
        rows = [{k: -1.0}]
        if lam > 0.0:
            rows += [{k + n: -1.0}, {k: (1.0 - lam) * s[k], k + n: -1.0},
                     {k: -s[k], k + n: 1.0}]
        for entries in rows:
            r = np.zeros(nv)
            r[list(entries)] = list(entries.values())
            G.append(r)
    C = np.zeros((len(tree.leaves), 2 * n))
    D = np.zeros((len(tree.leaves), 2 * n))
    for i, leaf in enumerate(tree.leaves):
        for m in tree.path(leaf):
            C[i, m], C[i, m + n] = -s[m], (1.0 - lam) * s[m]
            D[i, m], D[i, m + n] = 1.0, -1.0
    b = np.zeros(len(A))
    b[0] = 1.0
    return np.array(A), b, np.array(G), np.zeros(len(G)), C, D


def random_instance_by_lp(seed, depth, branching, lam, rho, max_attempts=100):
    """``harness.random_instance`` deciding every draw by the CPS phase-1 LP.

    Returns the market and its attempt count.  The reference for the
    library's generator, which rejects a draw by one pass over its bid-ask
    spreads before any LP and must return the same market after the same
    number of attempts.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(1, max_attempts + 1):
        nodes = [{"id": "r", "parent": None, "time": 0}]
        prices = {"r": 1.0}
        cond = {}
        frontier = ["r"]
        for t in range(1, depth + 1):
            nxt = []
            for nid in frontier:
                w = rng.uniform(size=branching)
                ps = 0.05 + (1.0 - 0.05 * branching) * w / w.sum()
                row = {}
                for j in range(branching):
                    cid = f"{nid}{j}"
                    nodes.append({"id": cid, "parent": nid, "time": t})
                    prices[cid] = prices[nid] * rng.uniform(0.5, 2.0)
                    row[cid] = float(ps[j])
                    nxt.append(cid)
                cond[nid] = row
            frontier = nxt
        endow = {nid: float(rng.uniform(-rho, rho)) if rho > 0 else 0.0 for nid in frontier}
        model = build_market({
            "nodes": nodes, "cond_prob": cond, "prices": prices,
            "lambda": lam, "endowment": endow,
        })
        poly = du.cps_polytope(model)
        if poly.nonempty and poly.interior is not None:
            return model, attempt
    raise MarketError(f"no CPS-feasible instance after {max_attempts} attempts (seed {seed})")


def find_yhat_by_brentq(model, spec, x, x0):
    """Root of v'(y) + x = 0 by a bracketed brentq in the wealth t = I(y).

    The reference for ``harness.find_yhat``: the bracket starts at y in
    [1e-2, 1e2] and widens tenfold, to at most [1e-8, 1e8], until v'(y) + x
    changes sign on it.  Each evaluation solves the dual at y = U'(t) twice:
    from the polytope's interior point at the default tolerance, then at
    tolerance 1e-10 from 0.9 times that solve's point plus 0.1 times the
    interior point, whose v'(y) it reads.  Returns the y at brentq's root.
    """
    assert x > x0
    interior = du.cps_polytope(model).interior

    def g(t):
        y = ut.u_prime(spec, t)
        cold = du.solve_dual(model, spec, y)
        return du.solve_dual(model, spec, y, tol=1e-10,
                             start=0.9 * cold.z + 0.1 * interior).derivative + x

    lo, hi = 1e-2, 1e2
    while g(ut.i_eval(spec, lo)) >= 0.0:
        lo /= 10.0
        assert lo >= 1e-8, "no bracket below 1e-8"
    while g(ut.i_eval(spec, hi)) <= 0.0:
        hi *= 10.0
        assert hi <= 1e8, "no bracket above 1e8"
    t = brentq(g, ut.i_eval(spec, hi), ut.i_eval(spec, lo), xtol=1e-14, rtol=1e-12)
    return float(ut.u_prime(spec, t))
