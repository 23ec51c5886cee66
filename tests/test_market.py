"""Scenario tree and market model construction, validation, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcdl.errors import MarketError
from tcdl.market import (
    binomial_market,
    build_market,
    build_tree,
    load_market,
    market_to_dict,
    save_market,
    single_node_market,
    tree_to_spec,
    validate_market,
)


def binomial_spec():
    return {
        "nodes": [
            {"id": "root", "parent": None, "time": 0},
            {"id": "up", "parent": "root", "time": 1},
            {"id": "down", "parent": "root", "time": 1},
        ],
        "probabilities": {"up": 0.5, "down": 0.5},
        "prices": {"root": 4.0, "up": 8.0, "down": 2.0},
        "lambda": 0.1,
        "endowment": {"up": 0.0, "down": 0.0},
    }


def test_tree_structure():
    tree = build_tree(binomial_spec())
    assert tree.n_nodes == 3
    assert tree.horizon == 1
    # nodes sort by (time, id): root, then down before up
    assert tree.node_ids == ("root", "down", "up")
    assert tree.parent[0] == -1
    assert set(tree.children[0]) == {1, 2}
    assert tree.leaves == (1, 2)
    assert tree.is_leaf(1) and tree.is_leaf(2)
    assert not tree.is_leaf(0)
    assert tree.path(2) == [0, 2]


def test_leaf_probabilities_chain_rule():
    spec = binomial_spec()
    spec["probabilities"] = {"up": 0.25, "down": 0.75}
    tree = build_tree(spec)
    p = tree.leaf_prob()
    assert np.isclose(p.sum(), 1.0)
    assert tree.node_prob[tree.index_of("up")] == pytest.approx(0.25)
    assert tree.node_prob[tree.index_of("down")] == pytest.approx(0.75)
    assert tree.node_prob[tree.root] == pytest.approx(1.0)


def test_cond_prob_must_agree_with_leaf_probabilities():
    spec = binomial_spec()
    spec["cond_prob"] = {"root": {"up": 0.5, "down": 0.5}}
    assert build_tree(spec).prob == (0.5, 0.5)
    spec["cond_prob"] = {"root": {"up": 0.6, "down": 0.4}}
    with pytest.raises(MarketError, match="inconsistent with leaf probabilities"):
        build_tree(spec)


@st.composite
def _skewed_tree_specs(draw):
    """Trees of depth 1 to 6 with leaf probabilities from 1 down to about
    1e-300 before normalisation."""
    depth = draw(st.integers(1, 6))
    nodes = [{"id": "n0", "parent": None, "time": 0}]
    frontier = ["n0"]
    for t in range(1, depth + 1):
        fanout = st.integers(1, 3 if len(frontier) <= 20 else 1)
        children = []
        for parent in frontier:
            for _ in range(draw(fanout)):
                children.append(f"n{len(nodes)}")
                nodes.append({"id": children[-1], "parent": parent, "time": t})
        frontier = children
    weights = np.array(draw(st.lists(
        st.one_of(st.floats(1e-300, 1e-280), st.floats(1e-12, 1.0)),
        min_size=len(frontier), max_size=len(frontier))))
    return {"nodes": nodes,
            "probabilities": dict(zip(frontier, (weights / weights.sum()).tolist()))}


def _chained(tree, leaf):
    chained = 1.0
    for node in tree.path(leaf)[1:]:
        par = tree.parent[node]
        chained *= tree.cond_prob[par][tree.children[par].index(node)]
    return chained


@settings(max_examples=300, deadline=None)
@given(_skewed_tree_specs())
def test_chained_conditionals_reproduce_leaf_probabilities(spec):
    # Leaf probabilities given: the chained ratios telescope to p_leaf / total,
    # with one rounding per ratio and product and at most one per leaf in
    # each of the two sums to the total, so they agree far inside the 1e-10
    # a chain check would allow.  Conditionals given: the leaf probabilities
    # are those same products, so the two agree bit for bit.
    by_leaf = build_tree(spec)
    cond = {by_leaf.node_ids[k]: {by_leaf.node_ids[c]: p
                                  for c, p in zip(by_leaf.children[k], by_leaf.cond_prob[k])}
            for k in range(by_leaf.n_nodes) if by_leaf.children[k]}
    by_cond = build_tree({"nodes": spec["nodes"], "cond_prob": cond})
    roundings = 2 * (by_leaf.horizon + len(by_leaf.leaves))
    for k, leaf in enumerate(by_leaf.leaves):
        p = by_leaf.prob[k]
        assert abs(_chained(by_leaf, leaf) - p) <= roundings * np.finfo(float).eps * p
        assert _chained(by_cond, leaf) == by_cond.prob[k]


@st.composite
def _shuffled_tree_specs(draw):
    """Random trees whose dates step by one, every non-terminal node with a
    child, listed in shuffled order under shuffled ids."""
    sizes = [1]
    for _ in range(draw(st.integers(1, 5))):
        sizes.append(sizes[-1] + draw(st.integers(0, 3)))
    labels = draw(st.permutations(range(sum(sizes))))
    levels, nodes = [], []
    for t, size in enumerate(sizes):
        ids = [f"v{labels[len(nodes) + k]}" for k in range(size)]
        if t == 0:
            parents = [None]
        else:
            # each node of the date before gets one child, the rest any parent
            above = levels[-1]
            parents = draw(st.permutations(above)) + [
                draw(st.sampled_from(above)) for _ in range(size - len(above))]
        nodes += [{"id": nid, "parent": par, "time": t} for nid, par in zip(ids, parents)]
        levels.append(ids)
    return {"nodes": draw(st.permutations(nodes)),
            "probabilities": {nid: 1.0 / sizes[-1] for nid in levels[-1]}}


@settings(max_examples=200, deadline=None)
@given(_shuffled_tree_specs(), st.data())
def test_dated_parent_links_connect_every_node_to_the_root(spec, data):
    # parents that exist one date earlier, with one root, leave nothing to
    # check for connectivity: every path starts at the root
    tree = build_tree(spec)
    assert tree.n_nodes == len(spec["nodes"])
    for k in range(tree.n_nodes):
        path = tree.path(k)
        assert path[0] == tree.root
        assert len(path) == tree.time[k] + 1
    # a self-parent, a skipped date or an orphan is still rejected
    k = data.draw(st.sampled_from([k for k, rec in enumerate(spec["nodes"])
                                   if rec["parent"] is not None]))
    rec = spec["nodes"][k]
    for bad in ({**rec, "parent": rec["id"]}, {**rec, "time": rec["time"] + 1},
                {**rec, "parent": "ghost"}):
        with pytest.raises(MarketError):
            build_tree({**spec, "nodes": spec["nodes"][:k] + [bad] + spec["nodes"][k + 1:]})


def test_tree_spec_round_trip():
    tree = build_tree(binomial_spec())
    again = build_tree(tree_to_spec(tree))
    assert again == tree


def test_duplicate_node_id_rejected():
    spec = binomial_spec()
    spec["nodes"].append({"id": "up", "parent": "root", "time": 1})
    with pytest.raises(MarketError):
        build_tree(spec)


def test_orphan_parent_rejected():
    spec = binomial_spec()
    spec["nodes"][1]["parent"] = "ghost"
    with pytest.raises(MarketError):
        build_tree(spec)


def test_nonpositive_probability_rejected():
    spec = binomial_spec()
    spec["probabilities"]["up"] = 0.0
    spec["probabilities"]["down"] = 1.0
    with pytest.raises(MarketError):
        build_tree(spec)


def test_sibling_probabilities_must_sum_to_one():
    spec = binomial_spec()
    spec["probabilities"] = {"up": 0.5, "down": 0.4}
    with pytest.raises(MarketError):
        build_tree(spec)


def test_market_validation_happy_path():
    model = build_market(binomial_spec())
    report = validate_market(model)
    assert report.ok
    assert report.violations == ()
    assert report.rho == 0.0


def test_market_rho_is_endowment_bound():
    spec = binomial_spec()
    spec["endowment"] = {"up": 0.25, "down": -0.5}
    model = build_market(spec)
    assert validate_market(model).rho == pytest.approx(0.5)


def test_negative_price_rejected():
    spec = binomial_spec()
    spec["prices"]["up"] = -8.0
    with pytest.raises(MarketError):
        build_market(spec)


def test_nonfinite_price_rejected():
    # 1e400 is what a JSON file's overflowing price literal parses to
    spec = binomial_spec()
    spec["prices"]["up"] = 1e400
    with pytest.raises(MarketError, match="non-finite price inf at node 'up'"):
        build_market(spec)


def test_lambda_out_of_range_rejected():
    spec = binomial_spec()
    for bad in (-0.1, 1.0, 1.5):
        spec["lambda"] = bad
        with pytest.raises(MarketError):
            build_market(spec)


def test_endowment_keyed_by_leaf_ids_only():
    # non-leaf endowment keys are ignored; only terminal payments enter
    spec = binomial_spec()
    spec["endowment"] = {"root": 1.0, "up": 0.25, "down": -0.5}
    model = build_market(spec)
    assert model.rho == pytest.approx(0.5)
    assert np.allclose(model.endowment_vector(), [-0.5, 0.25])


def test_endowment_key_naming_no_node_rejected():
    # a misspelt leaf id must not turn its payment into zero
    spec = binomial_spec()
    spec["endowment"] = {"upp": 5.0, "down": 0.0, "ghost": 1.0}
    with pytest.raises(MarketError, match=r"\['ghost', 'upp'\]"):
        build_market(spec)


def test_price_and_probability_keys_naming_no_node_rejected():
    spec = binomial_spec()
    spec["prices"]["qq"] = 1.0
    spec["probabilities"]["zzz"] = 0.3
    with pytest.raises(MarketError) as info:
        build_market(spec)
    assert "prices keys name no node: ['qq']" in str(info.value)
    assert "probabilities keys name no node: ['zzz']" in str(info.value)


def test_market_json_round_trip(tmp_path):
    spec = binomial_spec()
    spec["endowment"] = {"up": 0.25, "down": -0.5}
    model = build_market(spec)
    path = tmp_path / "market.json"
    save_market(model, str(path))
    again = load_market(str(path))
    assert market_to_dict(again) == market_to_dict(model)
    # the file is plain JSON
    with open(path) as fh:
        raw = json.load(fh)
    assert raw["lambda"] == 0.1


def test_binomial_helper_matches_spec():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1, endowment=(0.25, -0.5))
    built = build_market({**binomial_spec(), "endowment": {"up": 0.25, "down": -0.5}})
    assert market_to_dict(model) == market_to_dict(built)


def test_single_node_market():
    model = single_node_market(price=2.0, endowment=0.5)
    assert model.tree.n_nodes == 1
    assert model.tree.leaves == (0,)
    assert model.endowment_vector()[0] == 0.5
    assert validate_market(model).ok


def test_bid_below_ask():
    model = binomial_market(4.0, 8.0, 2.0, lam=0.1)
    ask = model.ask()
    bid = model.bid()
    assert np.all(bid <= ask)
    assert np.allclose(bid, 0.9 * ask)
