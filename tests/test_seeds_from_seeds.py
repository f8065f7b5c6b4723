"""Seeds made from seeds: full subseeds (and so components and image seeds),
opposite seeds and coproducts are laid out on positions and run no check.
Each must equal its twin, the same seed built by the checking constructor
from the label form, as these operations built it before. A seed the
constructor built stores only its positional form and keeps no dict of its
caller's."""

from contextlib import contextmanager

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import clusterlab.seeds  # noqa: E402
from clusterlab.cli import seed_to_data  # noqa: E402
from clusterlab.laurent import parse_poly  # noqa: E402
from clusterlab.morphisms import ClusterMap, image_seed  # noqa: E402
from clusterlab.seeds import (  # noqa: E402
    Seed,
    connected_components,
    coproduct,
    exchangeably_connected_components,
    full_subseed,
    mutate_seed,
    opposite_seed,
)

from test_colimits import skew_symmetrizable_seeds  # noqa: E402
from test_disc import label_form  # noqa: E402
from test_seed_class import finite_type_root  # noqa: E402


# -- the twins: each operation on the label form, through the constructor ---------


def label_subseed(seed, keep, exchangeable=None):
    """full_subseed by labels: the restricted matrix and values, handed to
    the constructor, which checks them. With `exchangeable`, image_seed."""
    keep = set(keep)
    if exchangeable is None:
        exchangeable = seed.exchangeable & keep
    matrix = {
        v: r for v, row in seed.matrix.items() if v in keep and (r := {w: b for w, b in row.items() if w in keep})
    }
    values = {v: seed.values[v] for v in keep}
    return Seed(tuple(v for v in seed.labels if v in keep), frozenset(exchangeable), matrix, values)


def label_opposite(seed):
    matrix = {v: {w: -b for w, b in row.items()} for v, row in seed.matrix.items()}
    return Seed(seed.labels, seed.exchangeable, matrix, dict(seed.values))


def label_coproduct(seeds):
    return Seed(
        tuple(v for s in seeds for v in s.labels),
        frozenset().union(*(s.exchangeable for s in seeds)),
        {v: dict(row) for s in seeds for v, row in s.matrix.items()},
        {v: p for s in seeds for v, p in s.values.items()},
    )


def assert_is_twin(made, twin, parent=None):
    """made against its constructor twin: the same label form, canonical
    key and positional form, and no exchange table; with `parent`, each
    value is one of the parent's own objects."""
    assert label_form(made) == label_form(twin)
    assert made.canonical_key() == twin.canonical_key()
    assert (made._rows, made._ex, made._vals) == (twin._rows, twin._ex, twin._vals)
    assert "_exchanges" not in made.__dict__
    if parent is not None:
        own = set(map(id, parent._vals))
        assert all(id(p) in own for p in made._vals)


@contextmanager
def counting():
    """The calls made to Seed.__init__, _check_matrix and _symmetrizer."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        init = Seed.__init__
        mp.setattr(Seed, "__init__", lambda *a, **k: calls.append("__init__") or init(*a, **k))
        for name in ("_check_matrix", "_symmetrizer"):
            f = getattr(clusterlab.seeds, name)
            mp.setattr(clusterlab.seeds, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        yield calls


def renamed(seed, prefix):
    """The initial seed of seed's content with each label prefixed."""
    matrix = {prefix + v: {prefix + w: b for w, b in row.items()} for v, row in seed.matrix.items()}
    return Seed.initial([prefix + v for v in seed.labels], [prefix + v for v in seed.exchangeable], matrix)


def assert_made_from_seeds_are_twins(seed, keep, to_one, source_ex, other):
    """Every operation on `seed` against its twin: the full subseed on
    `keep`; the components; the opposite; the image seed of the map from
    the initial seed on `keep` (exchangeable on `source_ex`) that sends the
    labels of `to_one` to 1 and every other label to itself; the coproduct
    of the components, which share the seed's ambient; and the coproduct
    with `other`, whose values are on another ambient. None runs the
    constructor or a check."""
    m = ClusterMap(Seed.initial(sorted(keep), source_ex, []), seed, {x: 1 if x in to_one else x for x in keep})
    with counting() as calls:
        sub = full_subseed(seed, keep)
        parts = connected_components(seed)
        ex_parts = exchangeably_connected_components(seed)
        opposite = opposite_seed(seed)
        image = image_seed(m)
        glued = coproduct(parts)
        both = coproduct([seed, other])
    assert calls == []
    assert_is_twin(sub, label_subseed(seed, keep), seed)
    for part in parts + ex_parts:
        assert_is_twin(part, label_subseed(seed, part.labels), seed)
    assert_is_twin(opposite, label_opposite(seed), seed)
    images = keep - to_one
    assert_is_twin(image, label_subseed(m.target, images, m.target.exchangeable & (source_ex - to_one)), m.target)
    assert_is_twin(glued, label_coproduct(parts), seed)
    assert_is_twin(both, label_coproduct([seed, other]))


def subsets(data, labels):
    return data.draw(st.sets(st.sampled_from(sorted(labels)))) if labels else set()


@settings(max_examples=80, deadline=None)
@given(skew_symmetrizable_seeds(), skew_symmetrizable_seeds(max_rank=3), st.data())
def test_seeds_made_from_drawn_and_mutated_seeds_equal_their_twins(seed, other, data):
    # the drawn matrices are skew-symmetrizable, mostly not skew-symmetric
    for _ in range(data.draw(st.integers(0, 3))):
        if seed.exchangeable:
            seed = mutate_seed(seed, data.draw(st.sampled_from(sorted(seed.exchangeable))))
    keep = subsets(data, seed.labels)
    to_one, source_ex = subsets(data, keep), subsets(data, keep)
    assert_made_from_seeds_are_twins(seed, keep, to_one, source_ex, renamed(other, "w"))


@pytest.mark.parametrize("kind", ["A5", "D5", "B4", "G2"])
def test_seeds_made_from_finite_type_seeds_equal_their_twins(kind):
    root = finite_type_root(kind)
    child = mutate_seed(root, root.labels[-1])
    for seed in (root, child):
        keep = set(seed.labels[1:])
        assert_made_from_seeds_are_twins(seed, keep, {seed.labels[1]}, keep, renamed(root, "w"))


# -- the constructor keeps the positional form, and no dict of its caller's -------


def test_a_seed_keeps_no_dict_of_its_caller():
    m = {"a": {"b": 1}, "b": {"a": -1}}
    x, y = parse_poly("x"), parse_poly("y")
    values = {"a": x, "b": y}
    s = Seed(("a", "b"), frozenset({"a"}), m, values)
    assert not {"matrix", "values", "exchangeable"} & s.__dict__.keys()
    ref = Seed(("a", "b"), frozenset({"a"}), {"a": {"b": 1}, "b": {"a": -1}}, {"a": x, "b": y})
    data = seed_to_data(ref)
    # the caller edits its dicts: 5 against -1 was never checked
    m["a"]["b"] = 5
    m["b"]["c"] = 2
    values["a"] = parse_poly("z")
    assert s.b("a", "b") == 1 and s.row("a") == {"b": 1}
    assert s.matrix == {"a": {"b": 1}, "b": {"a": -1}}
    assert s.values == {"a": x, "b": y}
    assert seed_to_data(s) == data
    assert s.canonical_key() == ref.canonical_key()
    assert mutate_seed(s, "a").same_seed(mutate_seed(ref, "a"))


def test_a_copy_through_the_constructor_shares_no_dict():
    s = Seed(("a", "b"), frozenset({"a"}), {"a": {"b": 2}, "b": {"a": -1}}, {"a": parse_poly("x"), "b": parse_poly("y")})
    c = Seed(s.labels, s.exchangeable, s.matrix, s.values)
    assert c.matrix is not s.matrix and c.matrix["a"] is not s.matrix["a"]
    assert c.values is not s.values
    with pytest.raises(TypeError):
        c.values["a"] = parse_poly("z")
    with pytest.raises(TypeError):
        c.matrix["a"]["b"] = 7
    assert s.values["a"] == parse_poly("x") and s._vals[0] == parse_poly("x")
    assert s.b("a", "b") == 2


def test_the_label_form_is_read_only():
    # a write to the derived label form would change `b` but not the
    # positional form that mutation and canonical_key read
    s = Seed.initial(["a", "b"], ["a"], [("a", "b", 1), ("b", "a", -1)])
    ref = Seed.initial(["a", "b"], ["a"], [("a", "b", 1), ("b", "a", -1)])
    with pytest.raises(TypeError):
        s.matrix["a"]["b"] = 5
    with pytest.raises(TypeError):
        s.matrix["a"] = {"b": 5}
    with pytest.raises(TypeError):
        s.values["a"] = parse_poly("z")
    assert s.b("a", "b") == 1 and s._rows[0] == {1: 1}
    assert s.values["a"] == parse_poly("a") and s._vals[0] == parse_poly("a")
    assert mutate_seed(s, "a").same_seed(mutate_seed(ref, "a"))
    # the views still compare equal to plain dicts and feed the constructor
    assert s.matrix == {"a": {"b": 1}, "b": {"a": -1}}
    assert Seed(s.labels, s.exchangeable, s.matrix, s.values).same_seed(s)
