"""Seed mutation, enumeration, components, coproducts, similarity."""

import hashlib
import random
import sys
from dataclasses import FrozenInstanceError
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterlab.laurent
import clusterlab.seeds
from clusterlab.errors import (
    InvalidSeed,
    LabelCollision,
    NotAdmissible,
    NotExchangeable,
    NotSkewSymmetrizable,
    ResourceLimit,
    SearchBudgetExceeded,
)
from clusterlab.laurent import LaurentPoly, format_poly, parse_poly
from clusterlab.seeds import (
    Memo,
    Seed,
    check_similar,
    check_skew_symmetrizable,
    connected_components,
    coproduct,
    enumerate_cluster_variables,
    enumerate_seeds,
    exchangeably_connected_components,
    full_subseed,
    grow,
    is_admissible,
    mutate_seed,
    mutate_sequence,
    opposite_seed,
    verify_similarity_bijection,
)


def a2_seed():
    return Seed.initial(["y1", "y2"], ["y1", "y2"], [("y1", "y2", 1), ("y2", "y1", -1)])


def example_seed():
    # x1 -> x2 <- x3 with x1 a coefficient
    return Seed.initial(
        ["x1", "x2", "x3"],
        ["x2", "x3"],
        [("x1", "x2", 1), ("x2", "x1", -1), ("x3", "x2", 1), ("x2", "x3", -1)],
    )


def random_seed(rng, max_rank=5, ex_prob=0.7, span=1):
    rank = rng.randint(1, max_rank)
    labels = [f"v{i}" for i in range(rank)]
    entries = []
    for i in range(rank):
        for j in range(i + 1, rank):
            b = rng.randint(-span, span)
            if b:
                entries += [(labels[i], labels[j], b), (labels[j], labels[i], -b)]
    ex = [l for l in labels if rng.random() < ex_prob]
    return Seed.initial(labels, ex, entries)


class TestSkewSymmetrizable:
    def test_skew_symmetric_identity(self):
        d = check_skew_symmetrizable(Seed.initial(["a", "b"], [], {"a": {"b": 1}, "b": {"a": -1}}))
        assert d == {"a": 1, "b": 1}

    def test_b2_symmetrizer(self):
        d = check_skew_symmetrizable(Seed.initial(["a", "b"], [], {"a": {"b": 1}, "b": {"a": -2}}))
        assert d == {"a": 2, "b": 1}

    def test_sign_violation(self):
        with pytest.raises(NotSkewSymmetrizable) as err:
            check_skew_symmetrizable(Seed.initial(["a", "b"], [], {"a": {"b": 1}, "b": {"a": 1}}))
        assert set(err.value.witness) == {"a", "b"}

    def test_one_sided_entry(self):
        with pytest.raises(NotSkewSymmetrizable) as err:
            Seed.initial(["a", "b"], [], {"a": {"b": 1}})
        assert str(err.value) == "sign violation at ('a', 'b'): b=1, b'=0"

    def test_diagonal_entry(self):
        with pytest.raises(NotSkewSymmetrizable):
            check_skew_symmetrizable(Seed.initial(["a"], [], {"a": {"a": 1}}))

    def test_inconsistent_cycle(self):
        matrix = {
            "a": {"b": 1, "c": -1},
            "b": {"a": -2, "c": 1},
            "c": {"a": 1, "b": -1},
        }
        with pytest.raises(NotSkewSymmetrizable) as err:
            check_skew_symmetrizable(Seed.initial(["a", "b", "c"], [], matrix))
        assert err.value.witness == ("b", "a", "c")
        assert str(err.value) == "inconsistent symmetrizer ratios on cycle ('b', 'a', 'c')"

    def test_witnesses_follow_the_breadth_first_walk(self):
        # The cycle witness depends on the order in which the walk finds
        # vertices. The digest pins the outcomes of 300 seeded matrices
        # under the first-in, first-out walk; a depth-first walk changes it.
        rng = random.Random(12)
        outcomes = []
        for _ in range(300):
            n = rng.randint(3, 7)
            labels = [f"v{i}" for i in range(n)]
            rng.shuffle(labels)
            matrix = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        s = rng.choice((1, -1))
                        matrix.setdefault(labels[i], {})[labels[j]] = s * rng.randint(1, 3)
                        matrix.setdefault(labels[j], {})[labels[i]] = -s * rng.randint(1, 3)
            try:
                outcomes.append(sorted(check_skew_symmetrizable(Seed.initial(labels, [], matrix)).items()))
            except NotSkewSymmetrizable as exc:
                outcomes.append(exc.witness)
        assert sum(isinstance(x, tuple) for x in outcomes) == 184
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == "8e48e24cdf7093a1371719a0d38a69aaf374b2742b4f733e0b4e12ad4f2efdb3"


    @pytest.mark.parametrize(
        "matrix, labels, text",
        [
            ({"a": {"z": 1}}, ["a"], "matrix column 'z' not in cluster"),
            ({"a": {"b": 1}, "b": {"a": -1}}, ["a"], "matrix column 'b' not in cluster"),
            # the Seed reads rows in the matrix's order, not in label order
            ({"b": {"y": 1}, "a": {"z": 1}}, ["b", "a"], "matrix column 'y' not in cluster"),
            ({"a": {}, "z": {"a": 1}}, ["a"], "matrix row 'z' not in cluster"),
            ({"z": {"a": 1}, "y": {"a": -1}, "a": {}}, ["a"], "matrix row 'z' not in cluster"),
        ],
        ids=["unknown-column", "dropped-label", "label-order", "unknown-row", "row-order"],
    )
    def test_an_entry_outside_the_labels_is_an_invalid_seed(self, matrix, labels, text):
        # the Seed refuses these before any symmetrizer is asked of it
        with pytest.raises(InvalidSeed) as err:
            Seed.initial(labels, [], matrix)
        assert type(err.value) is InvalidSeed and str(err.value) == text

    def test_an_empty_row_outside_the_labels_is_no_entry(self):
        # zeros go before empty rows, so a row of zeros is no row
        seed = Seed.initial(["a"], [], {"a": {}, "z": {}, "y": {"a": 0}})
        assert seed.matrix == {} and check_skew_symmetrizable(seed) == {"a": 1}
        assert Seed.initial(["a", "b"], [], {"a": {"b": 0}}).matrix == {}


class TestMemoAndGrow:
    def test_a_memo_computes_each_key_once(self):
        calls = []
        memo = Memo(lambda k: calls.append(k) or 2 * k)
        assert [memo[3], memo[3], memo[4], memo[3]] == [6, 6, 8, 6]
        assert calls == [3, 4] and memo == {3: 6, 4: 8}

    def test_a_computation_that_raises_stores_nothing(self):
        calls = []
        memo = Memo(lambda k: calls.append(k) or 1 // k)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                memo[0]
        assert calls == [0, 0] and memo == {}

    def test_grow_asks_each_vertex_once_and_ends_with_an_empty_shell(self):
        # the path 0 - 1 - 2 - 3
        asked = []
        near = lambda v: asked.append(v) or {w for w in (v - 1, v + 1) if 0 <= w <= 3}
        balls = [(set(b), set(s)) for b, s in islice(grow(1, near), 4)]
        assert balls == [
            ({1}, {1}), ({0, 1, 2}, {0, 2}), ({0, 1, 2, 3}, {3}), ({0, 1, 2, 3}, set())
        ]
        assert asked == [1, 0, 2, 3]


class TestMutation:
    def test_a2_exchange(self):
        s = mutate_seed(a2_seed(), "y1")
        new = next(l for l in s.labels if l not in ("y1", "y2"))
        assert s.values[new] == parse_poly("y1^-1*y2 + y1^-1")
        assert new in s.exchangeable

    def test_example_exchange(self):
        s = mutate_seed(example_seed(), "x2")
        new = next(l for l in s.labels if l not in ("x1", "x2", "x3"))
        assert s.values[new] == parse_poly("x1*x2^-1*x3 + x2^-1")

    def test_matrix_sign_flip(self):
        s = mutate_seed(a2_seed(), "y1")
        new = next(l for l in s.labels if l != "y2")
        assert s.b(new, "y2") == -1
        assert s.b("y2", new) == 1

    def test_not_exchangeable(self):
        with pytest.raises(NotExchangeable):
            mutate_seed(example_seed(), "x1")

    def test_diagonal_entry_refused(self):
        # A seed with b_xx != 0 is never built, so mutation never meets one:
        # the constructor refuses it, naming the diagonal entry.
        with pytest.raises(NotSkewSymmetrizable) as err:
            Seed(("v0", "v1"), frozenset({"v0"}), {"v0": {"v0": 1, "v1": 1}},
                 Seed.initial(["v0", "v1"], [], {}).values)
        assert str(err.value) == "sign violation at ('v0', 'v0'): b=1, b'=1"
        assert err.value.witness == ("v0", "v0")

    def test_a_one_way_entry_into_x_is_refused(self):
        # b_vx = 1 while b_xv = 0: the constructor refuses the seed, reading
        # the entry from x's column
        with pytest.raises(NotSkewSymmetrizable) as err:
            Seed.initial(["v", "x", "w"], ["x"], [("v", "x", 1), ("x", "w", 1), ("w", "x", -1)])
        assert str(err.value) == "sign violation at ('v', 'x'): b=1, b'=0"

    def test_coefficients_never_mutated(self):
        s = mutate_seed(example_seed(), "x2")
        assert s.values["x1"] == LaurentPoly.var("x1")
        assert "x1" not in s.exchangeable


class TestAdmissibility:
    def test_single_step(self):
        assert is_admissible(a2_seed(), ["y1"])

    def test_stale_label(self):
        assert not is_admissible(a2_seed(), ["y1", "y1"])

    def test_coefficient_step(self):
        assert not is_admissible(example_seed(), ["x1"])

    def test_empty_sequence_identity(self):
        s = example_seed()
        assert mutate_sequence(s, []) is s

    def test_involution(self):
        s = a2_seed()
        t = mutate_seed(s, "y1")
        new = next(l for l in t.labels if l != "y2")
        assert mutate_seed(t, new).same_seed(s)

    def test_not_admissible_error_indexes_first_failure(self):
        with pytest.raises(NotAdmissible) as err:
            mutate_sequence(a2_seed(), ["y1", "y1"])
        assert err.value.index == 1

    def test_a2_zigzag_returns_to_initial_cluster(self):
        # oracle: the exchange graph of the A2 seed has exactly 5 seeds
        assert len(enumerate_seeds(a2_seed(), 6)) == 5
        s = a2_seed()
        step = "y1"
        for _ in range(5):
            t = mutate_seed(s, step)
            new = next(l for l in t.labels if l not in s.labels)
            step = next(l for l in t.exchangeable if l != new)
            s = t
        values = {format_poly(v) for v in s.values.values()}
        assert values == {"y1", "y2"}


class TestEnumeration:
    def test_a2_census(self):
        values = enumerate_cluster_variables(a2_seed(), 5)
        expected = {
            "y1",
            "y2",
            "y1^-1*y2 + y1^-1",
            "y1*y2^-1 + y2^-1",
            "y2^-1 + y1^-1 + y1^-1*y2^-1",
        }
        assert {format_poly(v) for v in values} == expected

    def test_example_census(self):
        values = enumerate_cluster_variables(example_seed(), 6)
        expected = {
            "x1",
            "x2",
            "x3",
            "x1*x2^-1*x3 + x2^-1",
            "x2*x3^-1 + x3^-1",
            "x1*x2^-1 + x3^-1 + x2^-1*x3^-1",
        }
        assert {format_poly(v) for v in values} == expected

    def test_frozen_seed_census(self):
        s = Seed.initial(["a", "b"], [], [("a", "b", 1), ("b", "a", -1)])
        values = enumerate_cluster_variables(s, 5)
        assert {format_poly(v) for v in values} == {"a", "b"}
        assert len(enumerate_seeds(s, 5)) == 1

    def test_node_budget(self):
        s = Seed.initial(
            ["a", "b", "c"],
            ["a", "b", "c"],
            [
                ("a", "b", 1),
                ("b", "a", -1),
                ("b", "c", 1),
                ("c", "b", -1),
            ],
        )
        with pytest.raises(ResourceLimit):
            enumerate_cluster_variables(s, 6, max_nodes=3)

    def test_empty_seed(self):
        assert enumerate_cluster_variables(Seed.empty(), 4) == []


class TestComponents:
    def test_block_diagonal(self):
        s = Seed.initial(
            ["a", "b", "c", "d"],
            ["a", "c"],
            [("a", "b", 1), ("b", "a", -1), ("c", "d", 1), ("d", "c", -1)],
        )
        parts = connected_components(s)
        assert [sorted(p.labels) for p in parts] == [["a", "b"], ["c", "d"]]

    def test_path_connected(self):
        s = Seed.initial(
            ["a", "b", "c"],
            ["b"],
            [("a", "b", 1), ("b", "a", -1), ("b", "c", 1), ("c", "b", -1)],
        )
        assert len(connected_components(s)) == 1

    def test_coproduct_roundtrip(self):
        s1, s2 = a2_seed(), example_seed()
        parts = connected_components(coproduct([s1, s2]))
        keys = {p.canonical_key() for p in parts}
        assert keys == {s1.canonical_key(), s2.canonical_key()}

    def test_a_foreign_label_is_no_subseed(self):
        with pytest.raises(InvalidSeed) as err:
            full_subseed(a2_seed(), ["y1", "z"])
        assert str(err.value) == "subseed labels must belong to the seed"


class TestExchangeablyConnected:
    def test_example_single_component(self):
        comps = exchangeably_connected_components(example_seed())
        assert len(comps) == 1
        assert sorted(comps[0].labels) == ["x1", "x2", "x3"]

    def test_frozen_neighbours_have_no_component(self):
        s = Seed.initial(["a", "b"], [], [("a", "b", 1), ("b", "a", -1)])
        assert exchangeably_connected_components(s) == []

    def test_coefficient_adjacent_to_exchangeable(self):
        s = Seed.initial(["c", "e"], ["e"], [("c", "e", 1), ("e", "c", -1)])
        comps = exchangeably_connected_components(s)
        assert len(comps) == 1
        assert sorted(comps[0].labels) == ["c", "e"]

    def test_shared_coefficient_between_components(self):
        # c neighbours two exchangeables that are not exchangeably connected
        s = Seed.initial(
            ["c", "e1", "e2"],
            ["e1", "e2"],
            [("e1", "c", 1), ("c", "e1", -1), ("e2", "c", 1), ("c", "e2", -1)],
        )
        comps = exchangeably_connected_components(s)
        assert len(comps) == 2
        assert all("c" in comp.labels for comp in comps)


class TestCoproduct:
    def test_unit(self):
        s = example_seed()
        assert coproduct([s, Seed.empty()]).same_seed(s)

    def test_two_a2(self):
        t = Seed.initial(["z1", "z2"], ["z1", "z2"], [("z1", "z2", 1), ("z2", "z1", -1)])
        c = coproduct([a2_seed(), t])
        assert len(c.labels) == 4
        assert len(connected_components(c)) == 2

    def test_collision(self):
        with pytest.raises(LabelCollision):
            coproduct([a2_seed(), a2_seed()])

    @pytest.mark.parametrize("y_first", [True, False])
    def test_summands_sharing_a_value(self, y_first):
        # distinct labels, one value: the union would not be a seed, and the
        # pair is named in label order
        x = Seed.initial(["x"], ["x"], [])
        y = Seed(("y",), frozenset({"y"}), {}, {"y": parse_poly("x")})
        pair, text = ([y, x], "'y' and 'x'") if y_first else ([x, y], "'x' and 'y'")
        with pytest.raises(InvalidSeed, match=f"^labels {text} share the value x$"):
            coproduct(pair)


class TestOpposite:
    def test_involution(self):
        s = example_seed()
        assert opposite_seed(opposite_seed(s)).same_seed(s)

    def test_arrow_reversal(self):
        s = opposite_seed(a2_seed())
        assert s.b("y1", "y2") == -1

    def test_zero_matrix(self):
        s = Seed.initial(["a", "b"], ["a"], [])
        assert opposite_seed(s).same_seed(s)


def similarity_pair(rng):
    """A skew-symmetrizable seed of rank <= 8 and a shuffled, relabelled,
    possibly opposite copy of it: unchanged, with one arrow reversed, with
    one exchangeability flipped, or replaced by an unrelated seed."""
    rank = rng.randint(1, 8)
    names = [f"v{i}" for i in range(rank)]
    d = {v: rng.choice((1, 1, 2)) for v in names}
    entries = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() < 0.4:
                v, w, c = names[i], names[j], rng.choice((-1, 1))
                entries[v, w], entries[w, v] = c * d[w], -c * d[v]
    ex = {v for v in names if rng.random() < 0.6}
    s = Seed.initial(names, ex, [(v, w, b) for (v, w), b in entries.items()])
    mode = rng.randrange(4)
    rename = dict(zip(names, rng.sample([f"w{i}" for i in range(rank)], rank)))
    if mode == 1 and entries:
        v, w = rng.choice(sorted(entries))
        entries[v, w] = -entries[v, w]
        entries[w, v] = -entries[w, v]
    elif mode == 2:
        ex ^= {rng.choice(names)}
    elif mode == 3:
        return s, similarity_pair(rng)[0]
    sign = rng.choice((1, -1))
    t = Seed.initial(
        [rename[v] for v in rng.sample(names, rank)],
        {rename[v] for v in ex},
        [(rename[v], rename[w], sign * b) for (v, w), b in entries.items()],
    )
    return s, t


def similarity_outcome(s, t, budget):
    try:
        bij = check_similar(s, t, budget)
    except SearchBudgetExceeded as exc:
        return f"budget: {exc}"
    return "None" if bij is None else repr(sorted(bij.items()))


class TestSimilarity:
    def test_opposite_seed(self):
        s = example_seed()
        bij = check_similar(s, opposite_seed(s))
        assert bij is not None
        assert verify_similarity_bijection(s, opposite_seed(s), bij)

    def test_a2_label_swap(self):
        s = a2_seed()
        t = Seed.initial(["y1", "y2"], ["y1", "y2"], [("y2", "y1", 1), ("y1", "y2", -1)])
        bij = check_similar(s, t)
        assert bij is not None
        assert verify_similarity_bijection(s, t, bij)

    def test_a_failed_final_verify_gives_none(self, monkeypatch):
        # the search checks its bijection once more before returning it; that
        # check fails only on a defect of the search, made here by patching it
        s, t = a2_seed(), Seed.initial(["y1", "y2"], ["y1", "y2"], [("y2", "y1", 1), ("y1", "y2", -1)])
        assert check_similar(s, t) is not None
        monkeypatch.setattr(clusterlab.seeds, "verify_similarity_bijection", lambda *args: False)
        assert check_similar(s, t) is None

    def test_not_similar_zero_matrix(self):
        t = Seed.initial(["z1", "z2"], ["z1", "z2"], [])
        assert check_similar(a2_seed(), t) is None

    def test_symmetric(self):
        rng = random.Random(5)
        for _ in range(30):
            s = random_seed(rng)
            t = random_seed(rng)
            assert (check_similar(s, t) is None) == (check_similar(t, s) is None)

    def test_outcomes_pinned(self):
        # 1200 seeded pairs, each at the default budget and at one of 1-40:
        # every bijection, every None and every exhausted budget, as the
        # recursive search found them
        digest = hashlib.sha256()
        for i in range(1200):
            rng = random.Random(i)
            s, t = similarity_pair(rng)
            for budget in (200_000, rng.randint(1, 40)):
                digest.update(similarity_outcome(s, t, budget).encode() + b"\n")
        assert digest.hexdigest() == (
            "8a3c838c0914eef41d9037f747a924c88c3326b3356df1986565f2b102e38adb"
        )

    def test_star_deeper_than_the_recursion_limit(self):
        # the search keeps its choices on a stack of its own, so a seed
        # larger than the interpreter's recursion limit allows is searched
        leaves = [f"x{i:03d}" for i in range(400)]
        arrows = [e for v in leaves for e in (("c", v, 1), (v, "c", -1))]
        star = Seed.initial(["c", *leaves], ["c", *leaves], arrows)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            bij = check_similar(star, star)
        finally:
            sys.setrecursionlimit(limit)
        assert bij == {v: v for v in star.labels}
        assert verify_similarity_bijection(star, star, bij)

    def test_budget_exhausted(self):
        # twelve loose variables match in 12! * 2^12 ways before the one
        # pair, b = (2, -1) against (1, -1), is found never to match
        loose = [f"a{i:02d}" for i in range(12)]
        s, t = (
            Seed.initial([*loose, "z1", "z2"], [*loose, "z1", "z2"], [("z1", "z2", b), ("z2", "z1", -1)])
            for b in (2, 1)
        )
        with pytest.raises(SearchBudgetExceeded, match="exceeded budget of 200000"):
            check_similar(s, t)

    def test_verify_rejects_a_map_that_is_not_injective(self):
        # c is a coefficient in no component, so only injectivity rules out c -> q
        s = Seed.initial(["a", "b", "c"], ["a", "b"], [("a", "b", 1), ("b", "a", -1)])
        t = Seed.initial(["p", "q"], ["p", "q"], [("p", "q", 1), ("q", "p", -1)])
        assert not verify_similarity_bijection(s, t, {"a": "p", "b": "q", "c": "q"})
        assert verify_similarity_bijection(s, s, {"a": "a", "b": "b", "c": "c"})

    def test_verify_rejects_a_map_that_misses_a_source_label(self):
        s = Seed.initial(["a", "b"], ["a", "b"], [("a", "b", 1), ("b", "a", -1)])
        t = Seed.initial(["p", "q"], ["p", "q"], [("p", "q", 1), ("q", "p", -1)])
        assert not verify_similarity_bijection(s, t, {"a": "p"})
        assert verify_similarity_bijection(s, t, {"a": "p", "b": "q"})

    def test_verify_rejects_an_exchangeable_sent_to_a_coefficient(self):
        s = Seed.initial(["a", "b"], ["a", "b"], [("a", "b", 1), ("b", "a", -1)])
        t = Seed.initial(["p", "q"], ["p"], [("p", "q", 1), ("q", "p", -1)])
        assert not verify_similarity_bijection(s, t, {"a": "p", "b": "q"})

    def test_verify_rejects_rows_that_match_neither_sign(self):
        # one component each, on matching labels, but b_pq = 2 is neither 1 nor -1
        s = Seed.initial(["a", "b"], ["a", "b"], [("a", "b", 1), ("b", "a", -1)])
        t = Seed.initial(["p", "q"], ["p", "q"], [("p", "q", 2), ("q", "p", -1)])
        assert not verify_similarity_bijection(s, t, {"a": "p", "b": "q"})
        assert verify_similarity_bijection(s, opposite_seed(s), {"a": "a", "b": "b"})


class TestSeedIdentity:
    def test_same_seed_is_blind_to_labels(self):
        s = mutate_seed(example_seed(), "x2")
        # same values, flags and matrix under new labels in reversed order
        names = {v: f"z{i}" for i, v in enumerate(s.labels)}
        t = Seed(
            tuple(names[v] for v in reversed(s.labels)),
            frozenset(names[v] for v in s.exchangeable),
            {names[v]: {names[w]: b for w, b in row.items()} for v, row in s.matrix.items()},
            {names[v]: s.values[v] for v in s.labels},
        )
        assert t.canonical_key() == s.canonical_key()
        assert t.same_seed(s)

    def test_flag_or_sign_changes_the_key(self):
        s = mutate_seed(example_seed(), "x2")
        flipped = Seed(s.labels, s.exchangeable - {"x3"}, s.matrix, s.values)
        assert not flipped.same_seed(s)
        v, row = next(iter(s.matrix.items()))
        w = next(iter(row))
        matrix = {a: dict(r) for a, r in s.matrix.items()}
        matrix[v][w], matrix[w][v] = -matrix[v][w], -matrix[w][v]
        reversed_arrow = Seed(s.labels, s.exchangeable, matrix, s.values)
        assert not reversed_arrow.same_seed(s)


class TestSeedInvariants:
    def test_fields_cannot_be_assigned_or_deleted(self):
        s = example_seed()
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'labels'"):
            s.labels = ("z",)
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'labels'"):
            del s.labels
        assert s.same_seed(example_seed())

    def test_value_distinctness_enforced(self):
        with pytest.raises(InvalidSeed):
            Seed(
                ("a", "b"),
                frozenset(),
                {},
                {"a": LaurentPoly.var("a"), "b": LaurentPoly.var("a")},
            )

    @pytest.mark.parametrize(
        "change, text",
        [
            (dict(exchangeable=frozenset({"a", "z"})), "exchangeable labels not in cluster: ['z']"),
            (dict(matrix={"z": {"a": 1}}), "matrix row 'z' not in cluster"),
            (dict(matrix={"a": {"z": 1}}), "matrix column 'z' not in cluster"),
            (dict(matrix={"a": {"b": 0}}), "zero entries must not be stored"),
            (dict(values={"a": LaurentPoly.var("a")}), "values must be given for exactly the cluster labels"),
        ],
        ids=["exchangeable", "row", "column", "zero", "values"],
    )
    def test_structural_checks_name_what_is_wrong(self, change, text):
        fields = dict(
            labels=("a", "b"),
            exchangeable=frozenset({"a"}),
            matrix={"a": {"b": 1}, "b": {"a": -1}},
            values={"a": LaurentPoly.var("a"), "b": LaurentPoly.var("b")},
        )
        Seed(**fields)  # the unchanged fields pass
        with pytest.raises(InvalidSeed) as err:
            Seed(**{**fields, **change})
        assert str(err.value) == text

    def test_duplicate_labels_are_an_invalid_seed(self):
        with pytest.raises(InvalidSeed) as err:
            Seed.initial(["a", "a"], [], [])
        assert str(err.value) == "duplicate labels in cluster"

    def test_mutation_keeps_the_distinct_values_check(self):
        # mutation skips the structural checks it preserves, not this one:
        # x'1 = (1 + 1) / x takes the value y already has
        s = Seed(
            ("x", "y"),
            frozenset({"x"}),
            {},
            {"x": LaurentPoly.var("x"), "y": parse_poly("2*x^-1")},
        )
        with pytest.raises(InvalidSeed) as exc:
            mutate_seed(s, "x")
        assert str(exc.value) == """labels "x'1" and 'y' share the value 2*x^-1"""

    def test_mutated_seed_equals_a_checked_construction(self):
        rng = random.Random(31)
        for _ in range(100):
            s = random_seed(rng)
            for x in sorted(s.exchangeable):
                t = mutate_seed(s, x)
                checked = Seed(t.labels, t.exchangeable, t.matrix, t.values)
                assert (t.labels, t.exchangeable, t.matrix, t.values) == (
                    checked.labels, checked.exchangeable, checked.matrix, checked.values
                )
                assert t.same_seed(checked)

    def test_involution_randomized(self):
        rng = random.Random(17)
        done = 0
        while done < 200:
            s = random_seed(rng)
            if not s.exchangeable:
                continue
            x = rng.choice(sorted(s.exchangeable))
            t = mutate_seed(s, x)
            back = next(l for l in t.labels if l not in s.labels)
            assert mutate_seed(t, back).same_seed(s)
            done += 1

    def test_symmetrizer_stability_randomized(self):
        rng = random.Random(19)
        done = 0
        while done < 200:
            s = random_seed(rng, span=2)
            if not s.exchangeable:
                continue
            d = check_skew_symmetrizable(s)
            x = rng.choice(sorted(s.exchangeable))
            t = mutate_seed(s, x)
            new = next(l for l in t.labels if l not in s.labels)
            d2 = dict(d)
            d2[new] = d2.pop(x)
            for v in t.labels:
                for w in t.labels:
                    assert d2[v] * t.b(v, w) == -d2[w] * t.b(w, v)
            done += 1

    def test_component_preservation_randomized(self):
        rng = random.Random(23)
        done = 0
        while done < 200:
            s = random_seed(rng)
            if not s.exchangeable:
                continue
            x = rng.choice(sorted(s.exchangeable))
            t = mutate_seed(s, x)
            new = next(l for l in t.labels if l not in s.labels)
            before = {
                frozenset(p.labels) for p in connected_components(s)
            }
            after = {
                frozenset(x if l == new else l for l in p.labels)
                for p in connected_components(t)
            }
            assert before == after
            done += 1

    def test_coproduct_locality_randomized(self):
        rng = random.Random(29)
        done = 0
        while done < 200:
            s1 = random_seed(rng, max_rank=3)
            if not s1.exchangeable:
                continue
            s2 = random_seed(rng, max_rank=3)
            s2 = Seed.initial(
                [f"w{l}" for l in s2.labels],
                [f"w{l}" for l in s2.exchangeable],
                [
                    (f"w{v}", f"w{w}", b)
                    for v, row in s2.matrix.items()
                    for w, b in row.items()
                ],
            )
            both = coproduct([s1, s2])
            x = rng.choice(sorted(s1.exchangeable))
            t = mutate_seed(both, x)
            for v in s2.labels:
                assert t.values[v] == both.values[v]
                for w in t.labels:
                    if w in s2.labels:
                        assert t.b(v, w) == both.b(v, w)
                    elif w not in s1.labels:  # the fresh label
                        assert t.b(v, w) == 0 and t.b(w, v) == 0
            done += 1

    def test_laurent_phenomenon_on_fixture_corpus(self):
        for seed in (a2_seed(), example_seed()):
            enumerate_cluster_variables(seed, 6)  # must not raise NotDivisible


class TestFreshLabels:
    def test_primed_counter_scheme(self):
        from clusterlab.seeds import fresh_label

        assert fresh_label("x", ["x"]) == "x'1"
        assert fresh_label("x'1", ["x", "x'1"]) == "x'2"
        assert fresh_label("x", ["x", "x'1", "x'2"]) == "x'3"

    def test_repeated_mutation_labels(self):
        s = a2_seed()
        s = mutate_seed(s, "y1")
        assert "y1'1" in s.labels
        s = mutate_seed(s, "y1'1")
        assert "y1'2" in s.labels


class TestEmptySeed:
    def test_every_operation_accepts_empty(self):
        from clusterlab.seeds import check_similar, opposite_seed

        e = Seed.empty()
        assert enumerate_cluster_variables(e, 3) == []
        assert connected_components(e) == []
        assert exchangeably_connected_components(e) == []
        assert coproduct([e, e]).same_seed(e)
        assert opposite_seed(e).same_seed(e)
        assert check_similar(e, e) == {}
        assert check_skew_symmetrizable(e) == {}


class TestIsolatedExchangeable:
    def test_empty_products_give_constant_two(self):
        s = Seed.initial(["a"], ["a"], [])
        t = mutate_seed(s, "a")
        assert format_poly(t.values["a'1"]) == "2*a^-1"
        assert mutate_seed(t, "a'1").same_seed(s)



# -- neighbours read from a row --------------------------------------------------------


@st.composite
def any_support_seeds(draw):
    """A seed built with Seed(...) on up to six labels whose matrix has any
    skew-symmetrizable support: b_vw = s d_w and b_wv = -s d_v for a drawn
    symmetrizer d and sign s per pair, then now and then one mutation."""
    labels = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    exchangeable = frozenset(draw(st.sets(st.sampled_from(labels))))
    d = {v: draw(st.sampled_from([1, 1, 2])) for v in labels}
    matrix = {}
    for i, v in enumerate(labels):
        for w in labels[i + 1:]:
            if s := draw(st.sampled_from([0, 0, 1, -1])):
                matrix.setdefault(v, {})[w] = s * d[w]
                matrix.setdefault(w, {})[v] = -s * d[v]
    seed = Seed(tuple(labels), exchangeable, matrix, Seed.initial(labels, [], {}).values)
    if exchangeable and draw(st.booleans()):
        seed = mutate_seed(seed, draw(st.sampled_from(sorted(exchangeable))))
    return seed


@settings(max_examples=300, deadline=None)
@given(any_support_seeds())
def test_neighbours_match_the_definition(seed):
    for v in seed.labels:
        brute = {w for w in seed.labels if w != v and (seed.b(v, w) or seed.b(w, v))}
        got = seed.neighbours(v)
        assert got == brute
        got.add("intruder")  # each call returns a fresh set
        assert seed.neighbours(v) == brute


# -- one mutation is matrix mutation ----------------------------------------------------


def matrix_mutation(b, labels, x):
    """mu_x(B) on a dense matrix: b'_ij = -b_ij when i or j is x, else
    b_ij + (|b_ix| b_xj + b_ix |b_xj|) / 2; zero entries dropped."""
    out = {}
    for i in labels:
        for j in labels:
            if x in (i, j):
                e = -b[i, j]
            else:
                e = b[i, j] + (abs(b[i, x]) * b[x, j] + b[i, x] * abs(b[x, j])) // 2
            if e:
                out[i, j] = e
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_mutation_is_matrix_mutation(data):
    # mirrored entries, b_vw = s d_w and b_wv = -s d_v: any skew-symmetrizable support
    labels = [f"v{i}" for i in range(data.draw(st.integers(1, 5)))]
    d = {v: data.draw(st.integers(1, 3)) for v in labels}
    b = {(v, v): 0 for v in labels}
    for i, v in enumerate(labels):
        for w in labels[i + 1:]:
            s = data.draw(st.integers(-2, 2))
            b[v, w], b[w, v] = s * d[w], -s * d[v]
    x = data.draw(st.sampled_from(labels))
    t = mutate_seed(Seed.initial(labels, [x], [(v, w, e) for (v, w), e in b.items()]), x)
    new = t.labels[labels.index(x)]
    name = lambda v: x if v == new else v
    got = {(name(v), name(w)): e for v, row in t.matrix.items() for w, e in row.items()}
    assert got == matrix_mutation(b, labels, x)
