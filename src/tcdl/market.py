"""Finite scenario trees and bid-ask market data.

A scenario tree is a rooted tree whose nodes carry integer trading dates;
all leaves sit at the terminal date T.  Probabilities can be given either
per leaf or as conditional transition probabilities; the two encodings are
derived from each other and cross-checked.  A market adds a strictly
positive ask price per node, a proportional cost level ``lam`` (selling at
the bid ``(1 - lam) * S``), and a terminal endowment per leaf.

The fields of ``ScenarioTree`` and ``MarketModel`` are frozen after
construction.  ``MarketModel._phase1`` is not: it is a per-object store of
solves that fills on first use, in the process that uses the object, and a
pickled copy carries what it held then.  A selftest worker process receives
only its seed and output directory and builds its own market, so no store
crosses processes there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import MarketError, TcdlError

# Tolerances for probability bookkeeping: sums to one, and given conditionals
# versus those derived from the leaf probabilities.
PROB_SUM_TOL = 1e-12
CHAIN_TOL = 1e-10


def _number(value, what: str) -> float:
    """``float(value)``, or MarketError naming the field when it is no number.

    JSON booleans are no numbers, although Python reads ``true`` as 1.
    """
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise MarketError(f"{what} is not a number: {value!r}")


def _integer(value, what: str) -> int:
    """``value`` as an int, or MarketError when it is no integer (``1.7``, ``true``)."""
    if not isinstance(value, bool):
        if isinstance(value, int):
            return value
        number = _number(value, what)
        if number.is_integer():
            return int(number)
    raise MarketError(f"{what} is not an integer: {value!r}")


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise MarketError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class ScenarioTree:
    """Validated event tree.

    Nodes are indexed 0..n-1 in (time, id) order, so index 0 is the root and
    children always have larger indices than their parent.
    """

    node_ids: tuple[str, ...]
    parent: tuple[int, ...]          # -1 for the root
    time: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    cond_prob: tuple[tuple[float, ...], ...]   # aligned with children
    leaves: tuple[int, ...]
    prob: tuple[float, ...]          # aligned with leaves
    node_prob: tuple[float, ...]     # unconditional probability of each node

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def horizon(self) -> int:
        return self.time[self.leaves[0]]

    @property
    def root(self) -> int:
        return 0

    def index_of(self, node_id: str) -> int:
        try:
            return self.node_ids.index(node_id)
        except ValueError:
            raise MarketError(f"unknown node id {node_id!r}") from None

    def is_leaf(self, node: int) -> bool:
        return not self.children[node]

    def path(self, node: int) -> list[int]:
        """Indices from the root down to ``node`` (inclusive)."""
        out = [node]
        while self.parent[out[-1]] >= 0:
            out.append(self.parent[out[-1]])
        return out[::-1]

    def leaf_prob(self) -> np.ndarray:
        return np.array(self.prob)

    def children_first(self, n_vars: int) -> np.ndarray:
        """An elimination order for variables in node-indexed blocks (column
        c belongs to node c mod n): one row per node, holding its columns,
        from the last index to the root, so children precede their parents."""
        return np.arange(n_vars).reshape(-1, self.n_nodes).T[::-1]


def build_tree(spec: Mapping) -> ScenarioTree:
    """Build and validate a scenario tree from a plain-dict description.

    ``spec["nodes"]`` lists ``{"id", "parent", "time"}`` records (parent absent
    or None for the root).  Probabilities come either as ``spec["probabilities"]``
    (leaf id -> p) or ``spec["cond_prob"]`` (node id -> {child id: p}); when both
    are present they must agree.
    """
    raw_nodes = _mapping(spec, "market spec").get("nodes")
    if not raw_nodes:
        raise MarketError("tree spec has no nodes")
    if not isinstance(raw_nodes, list):
        raise MarketError(f"'nodes' must be a list of node records, got {type(raw_nodes).__name__}")

    ids: list[str] = []
    parent_of: dict[str, str | None] = {}
    time_of: dict[str, int] = {}
    for rec in raw_nodes:
        _mapping(rec, "node record")
        absent = [key for key in ("id", "time") if key not in rec]
        if absent:
            raise MarketError(f"node record {rec!r} has no {absent}")
        nid = str(rec["id"])
        if nid in parent_of:
            raise MarketError(f"duplicate node id {nid!r}")
        ids.append(nid)
        par = rec.get("parent")
        parent_of[nid] = None if par is None else str(par)
        t = _integer(rec["time"], f"time of node {nid!r}")
        if t < 0:
            raise MarketError(f"node {nid!r} has negative time index")
        time_of[nid] = t

    roots = [nid for nid in ids if parent_of[nid] is None]
    if len(roots) != 1:
        raise MarketError(f"expected exactly one root, found {len(roots)}")
    for nid in ids:
        par = parent_of[nid]
        if par is None:
            continue
        if par not in parent_of:
            raise MarketError(f"orphan node {nid!r}: parent {par!r} does not exist")
        if par == nid:
            raise MarketError(f"cycle detected at node {nid!r}")
        if time_of[nid] != time_of[par] + 1:
            raise MarketError(
                f"node {nid!r} has time {time_of[nid]}, parent has {time_of[par]};"
                " children must be one step after their parent"
            )

    # Every parent exists and sits one date before its child, so each parent
    # chain is finite and ends at a node without a parent: the one root.  The
    # tree is connected, and the root comes first in (time, id) order.
    order = sorted(ids, key=lambda nid: (time_of[nid], nid))
    index = {nid: k for k, nid in enumerate(order)}

    n = len(order)
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for nid in order:
        par = parent_of[nid]
        if par is not None:
            parent[index[nid]] = index[par]
            children[index[par]].append(index[nid])
    for ch in children:
        ch.sort()

    leaves = [k for k in range(n) if not children[k]]
    t_max = max(time_of[nid] for nid in ids)
    for k in leaves:
        if time_of[order[k]] != t_max:
            raise MarketError(
                f"leaf {order[k]!r} at time {time_of[order[k]]} but terminal date is {t_max}"
            )

    leaf_probs = spec.get("probabilities")
    cond = spec.get("cond_prob")
    if leaf_probs is None and cond is None:
        raise MarketError("tree spec needs 'probabilities' or 'cond_prob'")

    cond_in = {} if cond is None else _parse_cond_prob(cond)
    stray = []
    for a, row in cond_in.items():
        if a not in index:
            stray.append(a)
            continue
        kids = {order[c] for c in children[index[a]]}
        stray.extend(f"{a}->{b}" for b in row if b not in kids)
    if stray:
        raise MarketError(f"cond_prob keys name no node or no child of their row's node: {stray}")

    node_prob = np.zeros(n)
    cond_out: list[list[float]] = [[] for _ in range(n)]

    if leaf_probs is not None:
        probs = {str(k): _number(v, f"probability of {k!r}")
                 for k, v in _mapping(leaf_probs, "probabilities").items()}
        missing = [order[k] for k in leaves if order[k] not in probs]
        if missing:
            raise MarketError(f"missing leaf probabilities for {missing}")
        for k in leaves:
            p = probs[order[k]]
            if not p > 0:
                raise MarketError(f"nonpositive probability at leaf {order[k]!r}")
            node_prob[k] = p
        total = node_prob[leaves].sum()
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise MarketError(f"leaf probabilities sum to {total!r}, not 1")
        # Aggregate upward, then read off conditionals.
        for k in reversed(range(n)):
            if children[k]:
                node_prob[k] = sum(node_prob[c] for c in children[k])
        for k in range(n):
            if children[k]:
                cond_out[k] = [node_prob[c] / node_prob[k] for c in children[k]]
    else:
        node_prob[0] = 1.0
        for k in range(n):
            if not children[k]:
                continue
            row = cond_in.get(order[k])
            if row is None:
                raise MarketError(f"missing conditional probabilities at node {order[k]!r}")
            ps = []
            for c in children[k]:
                if order[c] not in row:
                    raise MarketError(f"missing conditional probability {order[k]!r}->{order[c]!r}")
                p = row[order[c]]
                if not p > 0:
                    raise MarketError(f"nonpositive probability {order[k]!r}->{order[c]!r}")
                ps.append(p)
            if abs(sum(ps) - 1.0) > PROB_SUM_TOL:
                raise MarketError(f"conditional probabilities at {order[k]!r} sum to {sum(ps)!r}")
            cond_out[k] = ps
            for c, p in zip(children[k], ps):
                node_prob[c] = node_prob[k] * p

    if leaf_probs is not None and cond is not None:
        for k in range(n):
            for c, p in zip(children[k], cond_out[k]):
                given = cond_in.get(order[k], {}).get(order[c])
                if given is not None and abs(given - p) > CHAIN_TOL:
                    raise MarketError(
                        f"conditional probability {order[k]!r}->{order[c]!r} inconsistent with leaf probabilities"
                    )

    tree = ScenarioTree(
        node_ids=tuple(order),
        parent=tuple(parent),
        time=tuple(time_of[nid] for nid in order),
        children=tuple(tuple(ch) for ch in children),
        cond_prob=tuple(tuple(cs) for cs in cond_out),
        leaves=tuple(leaves),
        prob=tuple(float(node_prob[k]) for k in leaves),
        node_prob=tuple(float(p) for p in node_prob),
    )
    return tree


def _parse_cond_prob(cond) -> dict[str, dict[str, float]]:
    return {
        str(a): {str(b): _number(p, f"conditional probability {a!r}->{b!r}")
                 for b, p in _mapping(row, f"cond_prob of {a!r}").items()}
        for a, row in _mapping(cond, "cond_prob").items()
    }


def tree_to_spec(tree: ScenarioTree) -> dict:
    """Inverse of :func:`build_tree` (round-trips on validated trees)."""
    nodes = []
    for k, nid in enumerate(tree.node_ids):
        par = tree.parent[k]
        nodes.append({
            "id": nid,
            "parent": None if par < 0 else tree.node_ids[par],
            "time": tree.time[k],
        })
    probs = {tree.node_ids[leaf]: tree.prob[k] for k, leaf in enumerate(tree.leaves)}
    return {"nodes": nodes, "probabilities": probs}


@dataclass(frozen=True)
class MarketModel:
    """Scenario tree with ask prices, proportional cost level, and endowment.

    ``lam = 0`` is allowed as a frictionless baseline.  ``rho`` is the sup
    norm of the terminal endowment.  ``_phase1`` keeps per object the outcomes
    of ``primal.max_min_wealth``'s and ``dual.cps_polytope``'s phase-1 LPs, an
    empty polytope's verdict and its matrices included, and the last one-x
    primal solve; a solve that raises keeps nothing.  It takes no part in
    equality, hashing or repr, and a new object starts without it.
    """

    tree: ScenarioTree
    ask_price: tuple[float, ...]     # per node
    lam: float
    endowment: tuple[float, ...]     # per leaf, aligned with tree.leaves
    rho: float = field(init=False)
    _phase1: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "rho", float(max(abs(e) for e in self.endowment)))

    def ask(self) -> np.ndarray:
        return np.array(self.ask_price)

    def bid(self) -> np.ndarray:
        return (1.0 - self.lam) * self.ask()

    def endowment_vector(self) -> np.ndarray:
        return np.array(self.endowment)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]
    rho: float


def build_market(spec: Mapping) -> MarketModel:
    """Assemble a market from the JSON schema (nodes/prices/lambda/endowment/probabilities)."""
    tree = build_tree(spec)
    prices = {str(k): _number(v, f"price at node {k!r}")
              for k, v in _mapping(spec.get("prices", {}), "prices").items()}
    endow_raw = {str(k): _number(v, f"endowment at node {k!r}")
                 for k, v in _mapping(spec.get("endowment", {}), "endowment").items()}
    unknown = []
    for field, keys in (("prices", prices),
                        ("probabilities", spec.get("probabilities") or {}),
                        ("endowment", endow_raw)):
        names = sorted(set(map(str, keys)) - set(tree.node_ids))
        if names:
            unknown.append(f"{field} keys name no node: {names}")
    if unknown:
        raise MarketError("; ".join(unknown))
    missing = [nid for nid in tree.node_ids if nid not in prices]
    if missing:
        raise MarketError(f"missing prices for nodes {missing}")
    if "lambda" not in spec:
        raise MarketError("market spec missing 'lambda'")
    lam = _number(spec["lambda"], "lambda")
    endow = tuple(endow_raw.get(tree.node_ids[leaf], 0.0) for leaf in tree.leaves)
    model = MarketModel(
        tree=tree,
        ask_price=tuple(prices[nid] for nid in tree.node_ids),
        lam=lam,
        endowment=endow,
    )
    report = validate_market(model)
    if not report.ok:
        raise MarketError("invalid market: " + "; ".join(report.violations))
    return model


def validate_market(model: MarketModel) -> ValidationReport:
    """Check that prices are finite and positive and the cost range admissible.

    Returns the full list of violations instead of stopping at the first.
    """
    violations: list[str] = []
    for k, s in enumerate(model.ask_price):
        if not np.isfinite(s):
            violations.append(f"non-finite price {s} at node {model.tree.node_ids[k]!r}")
        elif not s > 0:
            violations.append(f"nonpositive price {s} at node {model.tree.node_ids[k]!r}")
    if not (0.0 <= model.lam < 1.0):
        violations.append(f"lambda {model.lam} outside [0, 1)")
    if len(model.endowment) != len(model.tree.leaves):
        violations.append("endowment not aligned with leaves")
    for e in model.endowment:
        if not np.isfinite(e):
            violations.append(f"non-finite endowment value {e}")
    return ValidationReport(ok=not violations, violations=tuple(violations), rho=model.rho)


def market_to_dict(model: MarketModel) -> dict:
    spec = tree_to_spec(model.tree)
    spec["prices"] = {nid: model.ask_price[k] for k, nid in enumerate(model.tree.node_ids)}
    spec["lambda"] = model.lam
    spec["endowment"] = {
        model.tree.node_ids[leaf]: model.endowment[k]
        for k, leaf in enumerate(model.tree.leaves)
    }
    return spec


def read_json(path: str, error: type[TcdlError] = MarketError):
    """The JSON document in the file at ``path``.

    A file that cannot be opened, is no UTF-8 text, is no JSON or nests
    deeper than the parser's recursion limit raises ``error`` naming the
    file, so every input file ends in a typed input error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read JSON file {path!r}: {exc}") from None


def load_market(path: str) -> MarketModel:
    return build_market(read_json(path))


def save_market(model: MarketModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(market_to_dict(model), fh, indent=2, sort_keys=True)


def binomial_market(s0: float, s_up: float, s_down: float, lam: float,
                    p_up: float = 0.5,
                    endowment: Sequence[float] = (0.0, 0.0)) -> MarketModel:
    """One-period two-state market, the workhorse of hand-checkable cases."""
    return build_market({
        "nodes": [
            {"id": "root", "parent": None, "time": 0},
            {"id": "up", "parent": "root", "time": 1},
            {"id": "down", "parent": "root", "time": 1},
        ],
        "probabilities": {"up": p_up, "down": 1.0 - p_up},
        "prices": {"root": s0, "up": s_up, "down": s_down},
        "lambda": lam,
        "endowment": {"up": endowment[0], "down": endowment[1]},
    })


def single_node_market(price: float = 1.0, lam: float = 0.0,
                       endowment: float = 0.0) -> MarketModel:
    """Degenerate T = 0 market: the root is the only (leaf) node."""
    return build_market({
        "nodes": [{"id": "root", "parent": None, "time": 0}],
        "probabilities": {"root": 1.0},
        "prices": {"root": price},
        "lambda": lam,
        "endowment": {"root": endowment},
    })
