"""The exchange table of `mutate_seed`: a walk whose table interns values
divides each exchange relation once, a plain lineage divides it once per set
of value objects and hashes no value, and a value read from the table equals
the value a fresh division gives."""

import random
from math import comb

import pytest

import clusterlab.laurent
from clusterlab.errors import ClusterLabError, Inconclusive, NotDivisible
from clusterlab.laurent import LaurentPoly, format_poly, parse_poly
from clusterlab.morphisms import ClusterMap, check_cm3, check_no_specialization_conditions, image_seed
from clusterlab.seeds import (
    _PLAIN,
    Seed,
    _mutated_form,
    connected_components,
    coproduct,
    enumerate_seeds,
    exchangeably_connected_components,
    full_subseed,
    mutate_seed,
    opposite_seed,
)

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def linear_a(n):
    labels = [f"x{i}" for i in range(1, n + 1)]
    entries = []
    for v, w in zip(labels, labels[1:]):
        entries += [(v, w, 1), (w, v, -1)]
    return Seed.initial(labels, labels, entries)


@pytest.fixture
def divisions(monkeypatch):
    """The divisions made while the test runs, one entry each. The wrapper
    also pins that mutation reaches the division through the module."""
    calls = []
    exact_div = clusterlab.laurent.lp_exact_div

    def counting(num, den):
        calls.append(1)
        return exact_div(num, den)

    monkeypatch.setattr(clusterlab.laurent, "lp_exact_div", counting)
    return calls


@pytest.fixture
def hashes(monkeypatch):
    """The LaurentPoly hashes taken while the test runs, one entry each."""
    calls = []
    hash_ = LaurentPoly.__hash__

    def counting(p):
        calls.append(1)
        return hash_(p)

    monkeypatch.setattr(LaurentPoly, "__hash__", counting)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_linear_a_divides_once_per_quadrilateral(n, divisions):
    # The n(n+3)/2 cluster variables of A_n are the diagonals of an
    # (n+3)-gon and each exchange is a Ptolemy relation of one
    # quadrilateral, so the class needs C(n+3, 4) divisions, not one per
    # mutation (n * Catalan(n+1)).
    enumerate_seeds(linear_a(n), 40)
    assert len(divisions) == comb(n + 3, 4) == [5, 15, 35, 70, 126][n - 2]


def test_cm3_source_and_target_walks_share_one_table(divisions):
    # The source and the target are built apart, as check-morphism loads
    # them; with a table each, identity CM3 on A5 at depth 4 divides 86
    # times, with the source's table shared by both walks 43.
    source, target = linear_a(5), linear_a(5)
    report = check_cm3(ClusterMap(source, target, {v: v for v in source.labels}), 4)
    assert (len(divisions), report.nodes, report.cm3_verified_to) == (43, 781, 4)
    assert report.counterexample is None and report.cm1 and report.cm2
    assert "_exchanges" not in target.__dict__


def test_the_condition2_search_divides_nothing(divisions):
    # linear A3 with two same-sign coefficients of different size on x2,
    # both sent to c: the rows differ on x2, so condition (2) searches, and
    # no sign conflict shows in the 40 sequences to depth 3. b[c][x2] = 3
    # passes condition (3), so the search's Inconclusive is the verdict. The
    # search reads rows only, so it builds no value and leaves no table entry.
    a3 = [("x1", "x2", 1), ("x2", "x1", -1), ("x2", "x3", 1), ("x3", "x2", -1)]
    ex = ["x1", "x2", "x3"]
    coefficients = [("c1", "x2", 1), ("x2", "c1", -1), ("c2", "x2", 2), ("x2", "c2", -2)]
    source = Seed.initial(ex + ["c1", "c2"], ex, a3 + coefficients)
    target = Seed.initial(ex + ["c"], ex, a3 + [("c", "x2", 3), ("x2", "c", -3)])
    m = ClusterMap(source, target, {"x1": "x1", "x2": "x2", "x3": "x3", "c1": "c", "c2": "c"})
    with pytest.raises(Inconclusive) as exc:
        check_no_specialization_conditions(m, 3)
    assert str(exc.value) == (
        "condition (2): the sufficient criterion fails for [('c1', 'c2')] "
        "and no sign conflict was found to depth 3"
    )
    assert divisions == []
    assert "_exchanges" not in m.source.__dict__


def test_a_failed_division_stores_nothing(monkeypatch):
    # Every exchange of a seed divides, so a failed division is made here:
    # the division by a value that is not a monomial, the third step's,
    # raises NotDivisible. It stores no table entry, and a second walk from
    # the same root, which now carries the table, makes that division again
    # and fails at the same step with the same text.
    divide, failed = clusterlab.laurent.lp_exact_div, []

    def fail_on_a_sum(num, den):
        if len(den.terms) > 1:
            failed.append(den)
            raise NotDivisible(f"{format_poly(num)} is not divisible by {format_poly(den)}")
        return divide(num, den)

    monkeypatch.setattr(clusterlab.laurent, "lp_exact_div", fail_on_a_sum)
    root = linear_a(2)
    for walk in (1, 2):
        cur = root
        with pytest.raises(NotDivisible) as exc:
            for position in (0, 1, 0):
                stored = len(root._exchanges)
                cur = mutate_seed(cur, cur.labels[position])
        assert str(exc.value) == "1 + x2^-1 + x1^-1 + x1^-1*x2^-1 is not divisible by x1^-1*x2 + x1^-1"
        assert cur.labels == ("x1'1", "x2'1")
        assert len(root._exchanges) == stored
        assert len(failed) == walk


def test_the_numerator_is_made_on_the_values_own_ambient(monkeypatch):
    # Along this A3 walk every exchange divides, and every row it mutates at
    # has one sign. The numerator's empty side is 1 on the other side's
    # ambient, so no operand is re-encoded from another ambient; a 1 made
    # with no names was re-encoded once per step, five times.
    on, moved = clusterlab.laurent.LaurentPoly._on, []

    def counting(p, amb):
        if p._amb.ident != amb.ident:
            moved.append(format_poly(p))
        return on(p, amb)

    monkeypatch.setattr(clusterlab.laurent.LaurentPoly, "_on", counting)
    seed = linear_a(3)
    for x in ("x1", "x2", "x1'1", "x3", "x2'1"):
        seed = mutate_seed(seed, x)
    monkeypatch.undo()
    assert moved == []
    assert clusterlab.laurent.LaurentPoly._on is on
    assert seed.labels == ("x1'2", "x2'2", "x3'1")


def test_around_the_pentagon_the_values_are_the_roots_objects():
    # A2's exchange graph is a pentagon: five mutations at alternating
    # positions give the root's seed back. On a plain lineage the last two
    # quotients come from divisions that no table interns, so they are
    # equal to the root's values, not the root's objects. The class walk's
    # table interns: there the five seeds hold five value objects, the
    # root's two among them.
    root = linear_a(2)
    cur = root
    for position in (0, 1, 0, 1, 0):
        cur = mutate_seed(cur, cur.labels[position])
    assert cur.same_seed(root)
    assert set(cur._vals) == set(root._vals)
    root = linear_a(2)
    seeds = enumerate_seeds(root, 40)
    objects = {id(p) for s in seeds for p in s._vals}
    assert (len(seeds), len(objects)) == (5, 5)
    assert objects >= set(map(id, root._vals))


def random_root(rng, rank):
    """An initial seed on `rank` labels, all exchangeable, whose matrix has
    mirrored entries b_vw = s d_w and b_wv = -s d_v for a drawn symmetrizer
    d and signs s in {0, 1, -1}."""
    labels = [f"v{i}" for i in range(rank)]
    d = [rng.choice([1, 1, 2]) for _ in labels]
    entries = []
    for i in range(rank):
        for j in range(i + 1, rank):
            if s := rng.choice([0, 1, -1]):
                entries += [(labels[i], labels[j], s * d[j]), (labels[j], labels[i], -s * d[i])]
    return Seed.initial(labels, labels, entries)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_plain_lineage_hashes_no_value_and_a_class_walk_interns(seed, hashes):
    # A lineage begun by plain mutate_seed calls stores no value as a key of
    # its table, so no value is hashed along it, however often it meets a
    # value again; the class walk's table interns, which hashes.
    rng = random.Random(seed)
    for _ in range(30):
        root = random_root(rng, rng.randint(2, 5))
        made = len(hashes)
        cur = root
        for _ in range(rng.randint(1, 8)):
            cur = mutate_seed(cur, cur.labels[rng.randrange(len(cur.labels))])
        assert len(hashes) == made
        enumerate_seeds(root, 2)
        assert len(hashes) > made


def test_a_class_walk_replaces_a_plain_table_and_a_cm3_walk_interns_in_it():
    root = linear_a(3)
    child = mutate_seed(root, "x1")
    plain = root._exchanges
    assert child._exchanges is plain
    enumerate_seeds(root, 1)
    interning = root._exchanges
    assert interning is not plain and all(interning[p] is p for p in root._vals)
    # a seed mutated from the plain table keeps it; seeds mutated from the
    # root now share the interning one, which a CM3 walk from the root uses
    assert child._exchanges is plain
    assert mutate_seed(root, "x2")._exchanges is interning
    check_cm3(ClusterMap(root, linear_a(3), {v: v for v in root.labels}), 1)
    assert root._exchanges is interning


def test_a_seed_built_by_hand_starts_without_a_table():
    seed = linear_a(3)
    assert "_exchanges" not in seed.__dict__
    child = mutate_seed(seed, "x1")
    assert child.__dict__["_exchanges"] is seed.__dict__["_exchanges"]
    copy = Seed(child.labels, child.exchangeable, child.matrix, dict(child.values))
    assert "_exchanges" not in copy.__dict__
    # seeds made from a walk's seed hold its table's objects, not its table
    m = ClusterMap(Seed.initial(["x1", "x2"], ["x2"], []), child, {"x1": "x2", "x2": "x3"})
    made = [
        full_subseed(child, child.labels[1:]),
        *connected_components(child),
        *exchangeably_connected_components(child),
        opposite_seed(child),
        image_seed(m),
        coproduct([child, Seed.initial(["z"], ["z"], [])]),
    ]
    for seed in made:
        assert "_exchanges" not in seed.__dict__
    # the image seed is of the re-rooted target, the coproduct's values are
    # re-encoded on the summands' joint ambient
    own = set(map(id, child._vals))
    assert all(id(p) in own for seed in made[:-2] for p in seed._vals)


# (p, q) bonds b_ij = p, b_ji = -q along a path of the given rank
DYNKIN = {
    "A1": [],
    "A2": [(1, 1)],
    "A3": [(1, 1)] * 2,
    "A4": [(1, 1)] * 3,
    "B2": [(2, 1)],
    "B3": [(1, 1), (2, 1)],
    "B4": [(1, 1), (1, 1), (2, 1)],
    "C2": [(1, 2)],
    "C3": [(1, 1), (1, 2)],
    "C4": [(1, 1), (1, 1), (1, 2)],
    "G2": [(3, 1)],
}


@st.composite
def dynkin_seeds(draw):
    kind = draw(st.sampled_from(sorted(DYNKIN) + ["D4"]))
    if kind == "D4":
        edges = [(0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)]
    else:
        edges = [(i, i + 1, p, q) for i, (p, q) in enumerate(DYNKIN[kind])]
    rank = int(kind[1])
    labels = [f"v{i}" for i in range(rank)]
    entries = []
    for i, j, p, q in edges:
        sign = draw(st.sampled_from((1, -1)))
        entries += [(labels[i], labels[j], sign * p), (labels[j], labels[i], -sign * q)]
    return Seed.initial(labels, labels, entries)


@st.composite
def skew_symmetric_seeds(draw):
    rank = draw(st.integers(1, 4))
    labels = [f"v{i}" for i in range(rank)]
    entries = []
    for i in range(rank):
        for j in range(i + 1, rank):
            b = draw(st.integers(-1, 1))
            if b:
                entries += [(labels[i], labels[j], b), (labels[j], labels[i], -b)]
    return Seed.initial(labels, draw(st.sets(st.sampled_from(labels), min_size=1)), entries)


BACK = -1  # mutate again where the last step mutated


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(dynkin_seeds(), skew_symmetric_seeds()),
    st.lists(st.one_of(st.just(BACK), st.integers(0, 3)), max_size=8),
)
def test_table_values_equal_a_fresh_division(root, steps):
    cur, last = root, None
    exchangeable = [i for i, v in enumerate(root.labels) if v in root.exchangeable]
    for step in steps:
        if step == BACK:
            if last is None:
                continue
            position = last
        else:
            position = exchangeable[step % len(exchangeable)]
        x = cur.labels[position]
        fresh = mutate_seed(Seed(cur.labels, cur.exchangeable, cur.matrix, dict(cur.values)), x)
        cur = mutate_seed(cur, x)
        assert cur.labels == fresh.labels
        # the same entries in the same order
        assert [(v, list(r.items())) for v, r in cur.matrix.items()] == [
            (v, list(r.items())) for v, r in fresh.matrix.items()
        ]
        assert [format_poly(cur.values[v]) for v in cur.labels] == [
            format_poly(fresh.values[v]) for v in fresh.labels
        ]
        last = position


# Laurent texts for explicit values: the five values of A2's pentagon on a
# and b, so that a walk on two labels that hold neighbouring ones makes a
# value a third label may hold, and a constant, by which some divisions fail.
POOL = ["a", "b", "a^-1*b + a^-1", "a^-1 + b^-1 + a^-1*b^-1", "a*b^-1 + b^-1", "2"]


@st.composite
def valued_seeds(draw):
    """A skew-symmetric seed on two to four labels, with sparse entries of
    +-1, whose values are distinct texts of POOL."""
    rank = draw(st.integers(2, 4))
    labels = [f"v{i}" for i in range(rank)]
    matrix = {v: {} for v in labels}
    for i in range(rank):
        for j in range(i + 1, rank):
            if b := draw(st.sampled_from([0, 0, 0, 1, -1])):
                matrix[labels[i]][labels[j]], matrix[labels[j]][labels[i]] = b, -b
    texts = draw(st.lists(st.sampled_from(POOL), min_size=rank, max_size=rank, unique=True))
    exchangeable = draw(st.sets(st.sampled_from(labels), min_size=1))
    values = {v: parse_poly(t) for v, t in zip(labels, texts)}
    return Seed(tuple(labels), frozenset(exchangeable), {v: r for v, r in matrix.items() if r}, values)


SHARED = Seed(
    ("p", "q", "r"), frozenset({"p"}), {"p": {"q": 1}, "q": {"p": -1}},
    {"p": parse_poly("x"), "q": parse_poly("y"), "r": parse_poly("x^-1*y + x^-1")},
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(dynkin_seeds(), valued_seeds()), st.lists(st.one_of(st.just(BACK), st.integers(0, 3)), max_size=8))
@example(SHARED, [0])
@example(linear_a(2), [0, 1, 0, 1, 0, 1])
def test_a_plain_lineage_walks_as_an_interning_one(root, steps):
    # The same walk from two copies of the root, one on a plain table and
    # one on an interning table: at every step both give equal values, or
    # the same error with the same text.
    plain, interning = (Seed._from_positions(root.labels, root._ex, root._rows, root._vals) for _ in range(2))
    interning._interning_exchanges()
    exchangeable, last = sorted(root._ex), None
    for step in steps:
        if step == BACK:
            if last is None:
                continue
            position = last
        else:
            position = exchangeable[step % len(exchangeable)]
        x, outcomes = plain.labels[position], []
        for seed in (plain, interning):
            try:
                outcomes.append(mutate_seed(seed, x))
            except ClusterLabError as exc:
                outcomes.append(exc)
        plain, interning = outcomes
        if isinstance(plain, Exception) or isinstance(interning, Exception):
            assert (type(interning), str(interning)) == (type(plain), str(plain))
            return
        assert plain.labels == interning.labels and plain._rows == interning._rows
        assert plain._vals == interning._vals
        assert _PLAIN in plain._exchanges and _PLAIN not in interning._exchanges
        last = position


def textbook_mutation(b, k):
    """b'_ij = -b_ij where i or j is k, else b_ij + sgn(b_ik) [b_ik b_kj]_+,
    on a dense matrix."""
    n = len(b)
    return [
        [
            -b[i][j] if k in (i, j) else b[i][j] + (1 if b[i][k] > 0 else -1) * max(b[i][k] * b[k][j], 0)
            for j in range(n)
        ]
        for i in range(n)
    ]


def dense(rows):
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.one_of(dynkin_seeds(), skew_symmetric_seeds()), st.lists(st.integers(0, 3), max_size=8))
def test_the_kernel_walks_as_mutate_seed_does(root, steps):
    # walked on its own output, _mutated_form gives mutate_seed's labels and
    # rows, and the rows follow the textbook rule
    ex = sorted(root._ex)
    seed, labels, rows = root, root.labels, root._rows
    for step in steps:
        k = ex[step % len(ex)]
        expected = textbook_mutation(dense(rows), k)
        seed = mutate_seed(seed, seed.labels[k])
        labels, rows = _mutated_form(labels, rows, k)
        assert (labels, rows) == (seed.labels, seed._rows)
        assert dense(rows) == expected
        assert 0 not in (b for row in rows for b in row.values())


@st.composite
def symmetrizable_seeds(draw):
    """A seed on up to five labels whose matrix has any skew-symmetrizable
    support, mirrored entries b_vw = s d_w and b_wv = -s d_v for a drawn
    symmetrizer d, then up to two mutations."""
    rank = draw(st.integers(1, 5))
    labels = [f"v{i}" for i in range(rank)]
    d = {v: draw(st.sampled_from([1, 1, 2])) for v in labels}
    entries = []
    for i, v in enumerate(labels):
        for w in labels[i + 1:]:
            if s := draw(st.sampled_from([0, 0, 1, -1])):
                entries += [(v, w, s * d[w]), (w, v, -s * d[v])]
    seed = Seed.initial(labels, draw(st.sets(st.sampled_from(labels), min_size=1)), entries)
    for step in draw(st.lists(st.integers(0, 4), max_size=2)):
        ex = sorted(seed.exchangeable)
        seed = mutate_seed(seed, ex[step % len(ex)])
    return seed


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(symmetrizable_seeds(), st.integers(0, 4))
def test_mutation_is_an_involution_read_from_the_table(divisions, seed, pick):
    # mutating at x and then at the new label gives the seed back, and the
    # way back reads the reverse table entry
    ex = sorted(seed.exchangeable)
    x = ex[pick % len(ex)]
    there = mutate_seed(seed, x)
    made = len(divisions)
    back = mutate_seed(there, there.labels[seed.labels.index(x)])
    assert len(divisions) == made
    assert back.canonical_key() == seed.canonical_key()
