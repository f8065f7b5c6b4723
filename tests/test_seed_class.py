"""The keyed seed-class walk behind `enumerate_seeds` and
`enumerate_cluster_variables`: it crosses each exchange-graph edge once,
and yields what a walk that mutates every exchangeable of every seed
yields, in the same order and under the same budget."""

from math import comb

import pytest

import clusterlab.seeds
from clusterlab.errors import ClusterLabError, ResourceLimit
from clusterlab.seeds import (
    Seed,
    _seed_class,
    enumerate_cluster_variables,
    enumerate_seeds,
    mutate_seed,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def key(seed):
    """Seed identity from values and matrix, built here, not read from the seed."""
    val = seed.values
    return (
        frozenset(val.values()),
        frozenset(val[v] for v in seed.exchangeable),
        frozenset((val[v], val[w], b) for v, row in seed.matrix.items() for w, b in row.items()),
    )


def plain_walk(seed, depth, max_nodes):
    """Breadth-first to the depth, mutating every exchangeable of every seed
    and skipping a seed whose key was seen; every yield, the root included,
    counts against max_nodes."""
    exceeded = f"seed frontier exceeded the node budget of {max_nodes}"
    if max_nodes < 1:
        raise ResourceLimit(exceeded)
    seen = {key(seed)}
    yield seed
    level, nodes = [seed], 1
    for _ in range(depth):
        below = []
        for s in level:
            for x in sorted(s.exchangeable):
                t = mutate_seed(s, x)
                k = key(t)
                if k in seen:
                    continue
                seen.add(k)
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceLimit(exceeded)
                yield t
                below.append(t)
        level = below


def run(walk):
    """The seeds a walk yields, then the error it ends with (None if none)."""
    seeds = []
    try:
        for s in walk:
            seeds.append(s)
    except ClusterLabError as err:
        return seeds, (type(err), str(err))
    return seeds, None


def fields(seeds):
    return [(s.labels, s.exchangeable, s.matrix, s.values) for s in seeds]


def assert_same_walks(root, depth):
    # One copy of the root for the plain walks and one for the keyed walks,
    # so neither reads the other's table. A wild class re-walked cold once
    # per budget takes minutes, so each side walks again from its own copy,
    # whose table the full walk filled; the keyed walk still starts from a
    # fresh copy at budgets 0, 1, 2, 4, 8, ... and at the last one.
    copy = lambda: Seed(root.labels, root.exchangeable, root.matrix, dict(root.values))
    plain_root, keyed_root = copy(), copy()
    seeds, end = run(plain_walk(plain_root, depth, 10**6))
    got, got_end = run(_seed_class(keyed_root, depth, 10**6))
    assert fields(got) == fields(seeds) and got_end == end
    if end is None:
        assert fields(enumerate_seeds(keyed_root, depth)) == fields(seeds)
        values = list(dict.fromkeys(s.values[v] for s in seeds for v in s.labels))
        assert enumerate_cluster_variables(keyed_root, depth) == values
    # every budget below the class size stops both walks after the same
    # yields with the same text
    for budget in range(len(seeds)):
        fresh = budget & (budget - 1) == 0 or budget == len(seeds) - 1
        plain, plain_end = run(plain_walk(plain_root, depth, budget))
        got, got_end = run(_seed_class(copy() if fresh else keyed_root, depth, budget))
        assert fields(got) == fields(plain) == fields(seeds[:budget])
        assert got_end == plain_end == (
            ResourceLimit, f"seed frontier exceeded the node budget of {budget}"
        )


@st.composite
def small_seeds(draw):
    """A seed on up to four labels: skew-symmetric with entries up to 2, or
    skew-symmetrizable, with mirrored entries b_vw = s d_w and b_wv = -s d_v
    for a drawn symmetrizer d."""
    rank = draw(st.integers(1, 4))
    labels = [f"v{i}" for i in range(rank)]
    pairs = [(v, w) for i, v in enumerate(labels) for w in labels[i + 1:]]
    entries = []
    if draw(st.booleans()):
        for v, w in pairs:
            b = draw(st.integers(-2, 2))
            entries += [(v, w, b), (w, v, -b)]
    else:
        d = {v: draw(st.integers(1, 2)) for v in labels}
        for v, w in pairs:
            s = draw(st.integers(-1, 1))
            entries += [(v, w, s * d[w]), (w, v, -s * d[v])]
    return Seed.initial(labels, draw(st.sets(st.sampled_from(labels), min_size=1)), entries)


@st.composite
def small_walks(draw):
    """A small seed and a depth up to 4, or up to 3 on three or more labels
    with an entry of 2: values four mutations deep in such a class run to
    over a hundred terms, and one walk there takes seconds (rank 3) or tens
    of seconds (rank 4)."""
    root = draw(small_seeds())
    entries = [b for row in root.matrix.values() for b in row.values()]
    wild = len(root.labels) >= 3 and 2 in map(abs, entries)
    return root, draw(st.integers(0, 3 if wild else 4))


@settings(max_examples=100, deadline=None)
@given(small_walks())
def test_walk_matches_the_plain_walk(walk):
    assert_same_walks(*walk)


@pytest.mark.parametrize(
    "entries",
    [
        [("a", "b", 3), ("b", "a", -1)],
        [("a", "b", -3), ("b", "a", 1)],
        [("a", "b", 2), ("b", "c", 2), ("c", "a", 2),  # the Markov quiver
         ("b", "a", -2), ("c", "b", -2), ("a", "c", -2)],
        [("a", "b", -1), ("a", "c", -1), ("a", "d", 1), ("b", "c", 1), ("b", "d", 1),
         ("c", "d", 1), ("b", "a", 1), ("c", "a", 1), ("d", "a", -1), ("c", "b", -1),
         ("d", "b", -1), ("d", "c", -1)],  # rank 4 with entries of 1, infinite type
    ],
    ids=["rank2-b3", "rank2-b-3", "markov", "rank4-b1"],
)
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_infinite_type_walk_matches_the_plain_walk(entries, depth):
    labels = sorted({v for v, _, _ in entries})
    assert_same_walks(Seed.initial(labels, labels, entries), depth)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_acyclic_rank3_walk_matches_the_plain_walk(depth):
    # v1 -> v0, v2 -> v0, v2 -> v1, every entry 2: the rank-3 class small_walks
    # caps at depth 3, since one walk at depth 4 takes seconds; the Markov
    # quiver above keeps a rank-3 class at depth 4
    labels = ["v0", "v1", "v2"]
    entries = [("v1", "v0", 2), ("v0", "v1", -2), ("v2", "v0", 2), ("v0", "v2", -2),
               ("v2", "v1", 2), ("v1", "v2", -2)]
    assert_same_walks(Seed.initial(labels, labels, entries), depth)


# (rank, bonds (i, j, p, q) meaning b_ij = p, b_ji = -q, number of seeds)
FINITE_TYPES = {
    **{f"A{n}": (n, [(i, i + 1, 1, 1) for i in range(n - 1)], comb(2 * n + 2, n + 1) // (n + 2))
       for n in range(1, 7)},
    **{f"B{n}": (n, [(i, i + 1, 1, 1) for i in range(n - 2)] + [(n - 2, n - 1, 2, 1)], comb(2 * n, n))
       for n in range(2, 5)},
    **{f"C{n}": (n, [(i, i + 1, 1, 1) for i in range(n - 2)] + [(n - 2, n - 1, 1, 2)], comb(2 * n, n))
       for n in range(3, 5)},
    **{f"D{n}": (n, [(i, i + 1, 1, 1) for i in range(n - 2)] + [(n - 3, n - 1, 1, 1)],
                 (3 * n - 2) * comb(2 * n - 2, n - 1) // n)
       for n in range(4, 6)},
    "G2": (2, [(0, 1, 3, 1)], 8),
}


def finite_type_root(kind, orientation="same"):
    n, bonds, _ = FINITE_TYPES[kind]
    labels = [f"v{i}" for i in range(n)]
    entries = []
    for k, (i, j, p, q) in enumerate(bonds):
        sign = -1 if orientation == "alternating" and k % 2 == 0 else 1
        entries += [(labels[i], labels[j], sign * p), (labels[j], labels[i], -sign * q)]
    return Seed.initial(labels, labels, entries)


@pytest.mark.parametrize("orientation", ["same", "alternating"])
@pytest.mark.parametrize("kind", sorted(FINITE_TYPES))
def test_closed_class_crosses_each_edge_once(kind, orientation, monkeypatch):
    # The exchange graph of a finite type is n-regular (the 1-skeleton of
    # its generalized associahedron), so it has n * |V| / 2 edges, and the
    # walk mutates once per edge.
    n, _, count = FINITE_TYPES[kind]
    calls = []

    def counting(seed, x):
        calls.append(x)
        return mutate_seed(seed, x)

    monkeypatch.setattr(clusterlab.seeds, "mutate_seed", counting)
    assert len(enumerate_seeds(finite_type_root(kind, orientation), 40)) == count
    assert len(calls) * 2 == n * count


@pytest.mark.parametrize("kind", ["A3", "B3", "G2"])
def test_walk_keys_agree_with_same_seed(kind):
    # The walk keys seeds by the ids of their values in the table they
    # share. Each seed of the closed class and each of its neighbours (a
    # seed of the class again, under other labels) is compared with every
    # other: equal walk keys exactly when same_seed holds.
    seeds = enumerate_seeds(finite_type_root(kind), 40)
    seeds += [mutate_seed(s, x) for s in list(seeds) for x in sorted(s.exchangeable)]
    equal = 0
    for a in seeds:
        for b in seeds:
            assert (a._walk_key == b._walk_key) == a.same_seed(b)
            equal += a is not b and a.same_seed(b)
    assert equal > 0
