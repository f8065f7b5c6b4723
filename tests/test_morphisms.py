"""Rooted cluster morphism checking: the worked examples and the
counterexamples, plus the randomized soundness properties."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterlab.errors import (
    Inconclusive,
    InvalidSeed,
    NonLaurentImage,
    NotDivisible,
    NotSimilar,
    ResourceLimit,
    SeedMismatch,
)
from clusterlab.laurent import Ambient, LaurentPoly, format_poly, lp_exact_div, monomial, parse_poly
from clusterlab.morphisms import (
    ClusterMap,
    IdealReport,
    NoSpecReport,
    biadmissible_descendant,
    check_cm1_cm2,
    check_cm3,
    check_ideal_witness,
    check_no_specialization_conditions,
    compose,
    enumerate_biadmissible,
    identity_map,
    image_seed,
    morphism_from_similarity,
)
from clusterlab.seeds import (
    DEFAULT_NODE_BUDGET,
    Seed,
    derived,
    check_similar,
    connected_components,
    coproduct,
    enumerate_cluster_variables,
    exchangeably_connected_components,
    explore,
    full_subseed,
    is_admissible,
    mutate_seed,
    opposite_seed,
    verify_similarity_bijection,
)
from test_colimits import skew_symmetrizable_seeds

try:  # an independent route where the image is defined
    import sympy
except ImportError:
    sympy = None


def a2_seed():
    return Seed.initial(["y1", "y2"], ["y1", "y2"], [("y1", "y2", 1), ("y2", "y1", -1)])


def example_seed():
    return Seed.initial(
        ["x1", "x2", "x3"],
        ["x2", "x3"],
        [("x1", "x2", 1), ("x2", "x1", -1), ("x3", "x2", 1), ("x2", "x3", -1)],
    )


def example_map():
    return ClusterMap(example_seed(), a2_seed(), {"x1": "y1", "x2": "y2", "x3": 1})


def ideal_counterexample_map():
    src = Seed.initial(
        ["a1", "x", "a2"],
        ["x"],
        [("a1", "x", 1), ("x", "a1", -1), ("x", "a2", 1), ("a2", "x", -1)],
    )
    return ClusterMap(
        src,
        a2_seed(),
        {"a1": 1, "a2": -1, "x": 0},
        extra={parse_poly("a1*x^-1 + a2*x^-1"): "y1"},
    )


def sign_stable_collision_map(b_wc=-3):
    # rows of the colliding coefficients differ in magnitude but never in
    # sign; e's row sums to -3 on c, so w's row {c: -3} passes condition (3)
    # and any other b_wc fails it
    src = Seed.initial(
        ["c1", "c2", "e"],
        ["e"],
        [("c1", "e", 1), ("e", "c1", -1), ("c2", "e", 2), ("e", "c2", -2)],
    )
    dst = Seed.initial(["c", "w"], ["w"], [("c", "w", 1), ("w", "c", b_wc)])
    return ClusterMap(src, dst, {"c1": "c", "c2": "c", "e": "w"})


def a3_coefficient_merge_map(b_cx2):
    """Linear A3 with coefficients c1, c2 on x2 (b = 1 and 2), both sent to
    c, into linear A3 with b[c][x2] = b_cx2: the rows of c1 and c2 differ on
    x2, so condition (2) searches, and no sign conflict shows to depth 3.
    x2's row sums to -3 on c, so condition (3) holds for b_cx2 = 3 only."""
    a3 = [("x1", "x2", 1), ("x2", "x1", -1), ("x2", "x3", 1), ("x3", "x2", -1)]
    ex = ["x1", "x2", "x3"]
    coefficients = [("c1", "x2", 1), ("x2", "c1", -1), ("c2", "x2", 2), ("x2", "c2", -2)]
    source = Seed.initial(ex + ["c1", "c2"], ex, a3 + coefficients)
    target = Seed.initial(ex + ["c"], ex, a3 + [("c", "x2", b_cx2), ("x2", "c", -b_cx2)])
    return ClusterMap(source, target, {"x1": "x1", "x2": "x2", "x3": "x3", "c1": "c", "c2": "c"})


def composition_counterexample():
    s1 = Seed.initial(
        ["x1", "x2", "x3"],
        ["x2"],
        [("x1", "x2", 1), ("x2", "x1", -1), ("x2", "x3", 1), ("x3", "x2", -1)],
    )
    s2 = Seed.initial(["z"], [], [])
    f = ClusterMap(s1, s2, {"x1": "z", "x2": "z", "x3": "z"})
    g = ClusterMap(s2, a2_seed(), {"z": "y1"})
    return f, g


class TestClusterMapChecks:
    @pytest.mark.parametrize(
        "assignment, extra, text",
        [
            ({"x1": "y1"}, {}, "assignment must be total on the source labels"),
            ({"x1": "y1", "x2": "y2", "x3": True}, {}, "image of 'x3' must be a label or an integer"),
            ({"x1": "y1", "x2": "y2", "x3": 1.5}, {}, "image of 'x3' must be a label or an integer"),
            ({"x1": "y1", "x2": "y2", "x3": "q"}, {}, "image label 'q' is not a target label"),
            ({"x1": "y1", "x2": "y2", "x3": 1}, {"x1": "q"}, "extra image label 'q' is not a target label"),
            (
                {"x1": "y1", "x2": "y2", "x3": 1},
                {"z": "y1"},
                "extra generators must be Laurent polynomials in the source cluster",
            ),
            (
                {"x1": "y1", "x2": "y2", "x3": 1},
                {"x1*x2": "y1"},
                "extra generator image is inconsistent: f(x1*x2) cannot be 'y1'",
            ),
        ],
    )
    def test_construction_names_what_is_wrong(self, assignment, extra, text):
        extra = {parse_poly(gen): img for gen, img in extra.items()}
        with pytest.raises(InvalidSeed) as err:
            ClusterMap(example_seed(), a2_seed(), assignment, extra)
        assert str(err.value) == text


class TestCm1Cm2:
    def test_example_map_passes(self):
        cm1, cm2, wit = check_cm1_cm2(example_map())
        assert cm1 and cm2 and not wit

    def test_defreezing_target_fails_cm2(self):
        f, _ = composition_counterexample()
        cm1, cm2, wit = check_cm1_cm2(f)
        assert cm1 and not cm2 and wit == ("x2",)

    def test_empty_source(self):
        m = ClusterMap(Seed.empty(), a2_seed(), {})
        assert check_cm1_cm2(m) == (True, True, ())


class TestBiadmissible:
    def test_example_depth_one(self):
        assert enumerate_biadmissible(example_map(), 1) == [(), ("x2",)]

    def test_ideal_counterexample_has_none(self):
        assert enumerate_biadmissible(ideal_counterexample_map(), 5) == [()]

    def test_no_specialization_equals_all_admissible(self):
        m = identity_map(example_seed())
        for depth in (1, 2, 3):
            sequences = enumerate_biadmissible(m, depth)
            assert all(is_admissible(m.source, s) for s in sequences)
            # count all admissible sequences directly
            def count(seed, d):
                if d == 0:
                    return 1
                return 1 + sum(
                    count(mutate_seed(seed, x), d - 1) - (1 if d > 1 else 0)
                    for x in sorted(seed.exchangeable)
                )
            # direct enumeration of admissible sequences
            def walk(seed, d):
                yield ()
                if d:
                    for x in sorted(seed.exchangeable):
                        for tail in walk(mutate_seed(seed, x), d - 1):
                            yield (x,) + tail
            expected = sorted(set(walk(m.source, depth)), key=lambda s: (len(s), s))
            assert sorted(sequences, key=lambda s: (len(s), s)) == expected

    def test_alternating_structure(self):
        seqs = enumerate_biadmissible(example_map(), 3)
        for s in seqs:
            if len(s) >= 1:
                assert s[0] == "x2"


class TestCm3:
    def test_example_map_verified(self):
        report = check_cm3(example_map(), 4)
        assert report.passed
        assert report.cm3_verified_to == 4

    def test_exchange_value_transported(self):
        m = example_map()
        lhs = m.apply(parse_poly("x1*x2^-1*x3 + x2^-1"))
        assert lhs == parse_poly("y1*y2^-1 + y2^-1")

    def test_composition_counterexample(self):
        f, g = composition_counterexample()
        gf = compose(g, f)
        report = check_cm3(gf, 1)
        assert not report.passed
        ce = report.counterexample
        assert ce.sequence == ("x2",)
        assert ce.lhs == LaurentPoly.const(2)
        assert ce.rhs == parse_poly("y1^-1*y2 + y1^-1")

    def test_identity_verified(self):
        for seed in (a2_seed(), example_seed()):
            assert check_cm3(identity_map(seed), 3).passed

    def test_counterexample_replays(self):
        f, g = composition_counterexample()
        gf = compose(g, f)
        ce = check_cm3(gf, 1).counterexample
        mutated = mutate_seed(gf.source, ce.sequence[0])
        new = next(l for l in mutated.labels if l not in gf.source.labels)
        assert gf.apply(mutated.values[new]) == ce.lhs
        tgt = mutate_seed(gf.target, "y1")
        tnew = next(l for l in tgt.labels if l not in gf.target.labels)
        assert tgt.values[tnew] == ce.rhs


def a5_seed():
    labels = ["x1", "x2", "x3", "x4", "x5"]
    entries = [(labels[k], labels[k + 1], 1) for k in range(4)]
    entries += [(w, v, -b) for v, w, b in entries]
    return Seed.initial(labels, labels, entries)


class TestCm3Work:
    """CM3 applies the map once per distinct value and checks only the
    pairs that the last step changed."""

    @pytest.fixture
    def applied(self, monkeypatch):
        calls = []
        apply = ClusterMap.apply

        def counted(self, p):
            calls.append(p)
            return apply(self, p)

        monkeypatch.setattr(ClusterMap, "apply", counted)
        return calls

    def test_identity_a5_applies_each_value_once(self, applied):
        report = check_cm3(identity_map(a5_seed()), 3)
        assert report.passed and report.nodes == 1 + 5 + 25 + 125
        # 17 distinct values are reached; checking every tracked pair at
        # every node made 780 calls
        assert len(applied) == len(set(applied)) <= 17

    def test_composite_counterexample_unchanged(self, applied):
        f, g = composition_counterexample()
        report = check_cm3(compose(g, f), 1)
        ce = report.counterexample
        assert (ce.sequence, ce.variable) == (("x2",), "x2")
        assert format_poly(ce.lhs) == "2"
        assert format_poly(ce.rhs) == "y1^-1*y2 + y1^-1"
        assert report.nodes == 2


class TestNoSpecializationConditions:
    def test_full_subseed_inclusion_passes(self):
        outer = example_seed()
        inner = full_subseed(outer, ["x1", "x2"])
        inner = Seed(inner.labels, frozenset(), inner.matrix, dict(inner.values))
        m = ClusterMap(inner, outer, {"x1": "x1", "x2": "x2"})
        report = check_no_specialization_conditions(m)
        assert report.passed

    def test_opposite_seed_sign(self):
        s = example_seed()
        m = ClusterMap(s, opposite_seed(s), {l: l for l in s.labels})
        report = check_no_specialization_conditions(m)
        assert report.passed
        assert report.component_signs == (-1,)

    def test_merging_exchangeables_fails_condition1(self):
        s = coproduct([a2_seed(), Seed.initial(["z"], ["z"], [])])
        m = ClusterMap(s, a2_seed(), {"y1": "y1", "y2": "y2", "z": "y1"})
        report = check_no_specialization_conditions(m)
        assert not report.condition1

    def test_specialization_rejected(self):
        with pytest.raises(InvalidSeed):
            check_no_specialization_conditions(example_map())

    def test_an_exchangeable_sent_to_a_coefficient_fails_condition1(self):
        src = Seed.initial(["x1", "x2"], ["x1", "x2"], [("x1", "x2", 1), ("x2", "x1", -1)])
        dst = Seed.initial(["y1", "y2"], ["y1"], [("y1", "y2", 1), ("y2", "y1", -1)])
        report = check_no_specialization_conditions(ClusterMap(src, dst, {"x1": "y1", "x2": "y2"}))
        assert not report.condition1
        assert report.witnesses == ("condition1: x2 -> y2 is not exchangeable",)

    def test_coefficient_merge_via_sufficient_criterion(self):
        # two coefficient clones with identical rows merge cleanly
        src = Seed.initial(
            ["c1", "c2", "e"],
            ["e"],
            [("c1", "e", 1), ("e", "c1", -1), ("c2", "e", 1), ("e", "c2", -1)],
        )
        dst = Seed.initial(["c", "w"], ["w"], [("c", "w", 2), ("w", "c", -2)])
        m = ClusterMap(src, dst, {"c1": "c", "c2": "c", "e": "w"})
        report = check_no_specialization_conditions(m)
        assert report.passed
        assert check_cm3(m, 3).passed

    def test_sign_conflict_is_definitive(self):
        src = Seed.initial(
            ["c1", "c2", "e"],
            ["e"],
            [("c1", "e", 1), ("e", "c1", -1), ("c2", "e", -1), ("e", "c2", 1)],
        )
        dst = Seed.initial(["c", "w"], ["w"], [])
        m = ClusterMap(src, dst, {"c1": "c", "c2": "c", "e": "w"})
        report = check_no_specialization_conditions(m, depth=2)
        assert not report.condition2
        assert report.witnesses == ("condition2: sequence () gives opposite signs b[e][c1]=-1 vs b[e][c2]=1",)

    def test_inconclusive_condition2(self):
        with pytest.raises(Inconclusive) as exc:
            check_no_specialization_conditions(sign_stable_collision_map(), depth=3)
        assert exc.value.condition == "condition2"
        assert str(exc.value) == (
            "condition (2): the sufficient criterion fails for [('c1', 'c2')] "
            "and no sign conflict was found to depth 3"
        )

    def test_the_search_derives_no_label_form(self, monkeypatch):
        # passes (1) and (2) and the search read rows by position, so no
        # Seed.matrix is derived before the search gives up; (3), which
        # runs before its Inconclusive is raised, reads the image seed's
        import clusterlab.morphisms as morphisms

        m = sign_stable_collision_map()
        derive = Seed.__dict__["matrix"].derive
        derived_for, at_the_search_end = [], []

        def counted(seed):
            derived_for.append(seed)
            return derive(seed)

        search = morphisms._condition2_search

        def watched(*args):
            conflict = search(*args)
            at_the_search_end.append(list(derived_for))
            return conflict

        counted.__name__ = "matrix"
        monkeypatch.setattr(Seed, "matrix", derived(counted))
        monkeypatch.setattr(morphisms, "_condition2_search", watched)
        with pytest.raises(Inconclusive):
            check_no_specialization_conditions(m, depth=3)
        assert at_the_search_end == [[]]

    def test_condition2_search_stops_at_depth(self):
        # one exchangeable: the root and one sequence per length 1..3 are
        # four nodes; no budget is spent on sequences of length 4 (a
        # ResourceLimit, also an Inconclusive, would carry no condition)
        with pytest.raises(Inconclusive) as exc:
            check_no_specialization_conditions(
                sign_stable_collision_map(), depth=3, max_nodes=4
            )
        assert exc.value.condition == "condition2"

    def test_a_map_condition3_refutes_is_decided(self):
        # no sign conflict to depth 3, but (3) has a witness: the map is
        # refuted, as CM3 finds at (x2,), so the report is decided and (2),
        # with no witness, holds
        m = a3_coefficient_merge_map(1)
        report = check_no_specialization_conditions(m, depth=3)
        assert (report.condition1, report.condition2, report.condition3) == (True, True, False)
        assert report.witnesses == (
            "condition3: row of x2 is not the signed image sum of the row of x2 (component of x1)",
        )
        assert check_cm3(m, 3).counterexample.sequence == ("x2",)
        # the same holds when the search runs out of budget
        assert check_no_specialization_conditions(m, depth=3, max_nodes=2) == report

    def test_a_map_condition3_passes_stays_undecided(self):
        m = a3_coefficient_merge_map(3)
        with pytest.raises(Inconclusive) as exc:
            check_no_specialization_conditions(m, depth=3)
        assert exc.value.condition == "condition2"
        assert str(exc.value) == (
            "condition (2): the sufficient criterion fails for [('c1', 'c2')] "
            "and no sign conflict was found to depth 3"
        )
        assert check_cm3(m, 3).passed
        with pytest.raises(ResourceLimit, match="condition-2 search exceeded 2 nodes"):
            check_no_specialization_conditions(m, depth=3, max_nodes=2)

    def test_a_map_condition1_refutes_is_decided(self):
        # z goes to a coefficient, and the search finds no conflict: decided
        m = sign_stable_collision_map()
        src = coproduct([m.source, Seed.initial(["z"], ["z"], [])])
        dst = coproduct([m.target, Seed.initial(["u"], [], [])])
        report = check_no_specialization_conditions(ClusterMap(src, dst, {**m.assignment, "z": "u"}), 3)
        assert (report.condition1, report.condition2, report.condition3) == (False, True, True)
        assert report.witnesses == ("condition1: z -> u is not exchangeable",)
        assert check_no_specialization_conditions(sign_stable_collision_map(-1), 3).witnesses == (
            "condition3: row of w is not the signed image sum of the row of e (component of c)",
        )

    def test_soundness_on_verified_maps(self):
        # every map passing the characterization passes CM3 to depth
        s = example_seed()
        cases = [
            identity_map(s),
            ClusterMap(s, opposite_seed(s), {l: l for l in s.labels}),
        ]
        for m in cases:
            assert check_no_specialization_conditions(m).passed
            assert check_cm3(m, 3).passed

    def test_condition3_violations_fail_cm3(self):
        # flipping one arrow of a two-arrow component cannot be fixed by a
        # global component sign, and CM3 detects it at depth 1
        src = Seed.initial(
            ["x1", "x2", "x3"],
            ["x1", "x2", "x3"],
            [("x1", "x2", 1), ("x2", "x1", -1), ("x2", "x3", 1), ("x3", "x2", -1)],
        )
        dst = Seed.initial(
            ["x1", "x2", "x3"],
            ["x1", "x2", "x3"],
            [("x1", "x2", 1), ("x2", "x1", -1), ("x2", "x3", -1), ("x3", "x2", 1)],
        )
        m = ClusterMap(src, dst, {l: l for l in src.labels})
        report = check_no_specialization_conditions(m)
        assert not report.condition3
        assert not check_cm3(m, 1).passed

    def test_condition1_violations_fail_cm3(self):
        src = Seed.initial(
            ["x1", "x2", "x3"],
            ["x1", "x2", "x3"],
            [("x1", "x2", 1), ("x2", "x1", -1), ("x2", "x3", 1), ("x3", "x2", -1)],
        )
        m = ClusterMap(src, a2_seed(), {"x1": "y1", "x2": "y2", "x3": "y1"})
        report = check_no_specialization_conditions(m)
        assert not report.condition1
        assert not check_cm3(m, 2).passed


class TestImageSeed:
    def test_ideal_counterexample_empty_image(self):
        img = image_seed(ideal_counterexample_map())
        assert img.labels == ()

    def test_example_image(self):
        img = image_seed(example_map())
        assert set(img.labels) == {"y1", "y2"}
        assert set(img.exchangeable) == {"y2"}
        assert img.b("y1", "y2") == 1

    def test_identity_image(self):
        s = example_seed()
        assert image_seed(identity_map(s)).same_seed(s)


class TestIdealWitness:
    def test_ideal_counterexample_witness(self):
        m = ideal_counterexample_map()
        assert check_cm3(m, 4).passed
        report = check_ideal_witness(m, 4)
        assert report.is_witness
        assert report.witness == LaurentPoly.var("y1")

    def test_no_specialization_is_ideal(self):
        s = example_seed()
        for m in (identity_map(s), ClusterMap(s, opposite_seed(s), {l: l for l in s.labels})):
            for depth in (2, 3, 4):
                assert check_ideal_witness(m, depth).status == "ideal-to-depth"

    def test_example_map_ideal_to_depth(self):
        assert check_ideal_witness(example_map(), 4).status == "ideal-to-depth"

    def test_only_the_source_and_the_target_are_walked(self, monkeypatch):
        # the image seed's class is its root when membership is decided, and
        # the target is walked only then: with an image exchangeable the
        # report is ideal-to-depth whatever the target's walk finds
        import clusterlab.morphisms as morphisms

        walked = []
        enumerate_values = morphisms.enumerate_cluster_variables

        def counted(seed, depth, max_nodes):
            walked.append(seed.labels)
            return enumerate_values(seed, depth, max_nodes)

        monkeypatch.setattr(morphisms, "enumerate_cluster_variables", counted)
        for m, target_walked in [
            (example_map(), False),
            (ideal_counterexample_map(), True),
            (identity_map(example_seed()), False),
        ]:
            walked.clear()
            check_ideal_witness(m, 3)
            assert walked == [m.source.labels] + [m.target.labels] * target_walked


class TestApply:
    def test_integer_quotient(self):
        m = ClusterMap(a2_seed(), Seed.empty(), {"y1": 2, "y2": 1})
        assert m.apply(parse_poly("y1^-1*y2 + y1^-1")) == LaurentPoly.one()

    def test_non_laurent_image(self):
        m = ClusterMap(a2_seed(), Seed.empty(), {"y1": 2, "y2": 2})
        with pytest.raises(NonLaurentImage):
            m.apply(parse_poly("y1^-1*y2 + y1^-1 + 1"))

    def test_inverted_zero(self):
        m = ClusterMap(a2_seed(), Seed.empty(), {"y1": 0, "y2": 1})
        with pytest.raises(NonLaurentImage):
            m.apply(parse_poly("y1^-1*y2"))

    @pytest.mark.parametrize(
        "assignment, text, message",
        [
            ({"x1": 0, "x2": 0}, "x2*x1^-1",
             "image of x1^-1*x2 is 0/0-indeterminate and no extra generator image is declared"),
            ({"x1": 0, "x2": 0}, "x1^-1", "image of x1^-1 inverts a variable specialized to 0"),
            ({"x1": 2, "x2": 1}, "x2*x1^-1", "image of x1^-1*x2 leaves the integer Laurent ring"),
        ],
    )
    def test_non_laurent_image_texts(self, assignment, text, message):
        src = Seed.initial(["x1", "x2"], ["x1", "x2"], [("x1", "x2", 1), ("x2", "x1", -1)])
        m = ClusterMap(src, Seed.initial(["y"], [], []), assignment)
        with pytest.raises(NonLaurentImage) as err:
            m.apply(parse_poly(text))
        assert str(err.value) == message

    def test_names_no_term_uses_need_no_image(self):
        # p keeps z in its ambient, though no term of p uses it
        m = ClusterMap(a2_seed(), a2_seed(), {"y1": "y2", "y2": 3})
        p = parse_poly("y1^-1*y2 + z") - parse_poly("z")
        assert m.apply(p) == parse_poly("3*y2^-1")
        with pytest.raises(KeyError):
            m.apply(parse_poly("y1 + z"))

    def test_extra_consistency_enforced(self):
        src = ideal_counterexample_map().source
        with pytest.raises(InvalidSeed):
            ClusterMap(
                src,
                a2_seed(),
                {"a1": 1, "a2": 1, "x": 0},  # a1 + a2 maps to 2, not 0
                extra={parse_poly("a1*x^-1 + a2*x^-1"): "y1"},
            )



# -- the polynomial route, the reference for ClusterMap.apply -------------------


def reference_substitute(assignment, target, p):
    """(f(N), f(D)) for p = N / D, D the monomial of p's negative floor, each
    built as sum(const(c) * prod resolve(img) ** e) on the target's ambient."""
    amb = Ambient(target.labels)

    def resolve(img):
        return target.values[img] if isinstance(img, str) else amb.const(img)

    def subst(q):
        out = amb.const(0)
        for mono, coeff in q.terms.items():
            term = amb.const(coeff)
            for v, e in mono:
                term = term * resolve(assignment[v]) ** e
            out = out + term
        return out

    floor = {}
    for mono in p.terms:
        for v, e in mono:
            floor[v] = min(floor.get(v, 0), e)
    denom = LaurentPoly({monomial({v: -e for v, e in floor.items()}): 1})
    return subst(p * denom), subst(denom), resolve


def reference_apply(assignment, extra, target, p):
    f_num, f_den, resolve = reference_substitute(assignment, target, p)
    if f_den.is_zero():
        if f_num.is_zero():
            if p in extra:
                return resolve(extra[p])
            raise NonLaurentImage(
                f"image of {format_poly(p)} is 0/0-indeterminate and no "
                "extra generator image is declared"
            )
        raise NonLaurentImage(f"image of {format_poly(p)} inverts a variable specialized to 0")
    try:
        return lp_exact_div(f_num, f_den)
    except NotDivisible:
        raise NonLaurentImage(f"image of {format_poly(p)} leaves the integer Laurent ring")


def reference_consistent(assignment, target, gen, img):
    """__post_init__'s check of one extra generator: f(gen) may be img."""
    f_num, f_den, resolve = reference_substitute(assignment, target, gen)
    return f_num == resolve(img) * f_den


def outcome(f, *args):
    """('value', the canonical text) or (error class, error text)."""
    try:
        return "value", format_poly(f(*args))
    except Exception as exc:
        return type(exc), str(exc)


REF_SOURCE = ("x1", "x2", "x3", "x4")
REF_TARGET = Seed.initial(["y1", "y2", "y3"], ["y1"], [])
# labels (three of them, so four source labels share some image) and integers
REF_IMAGES = ("y1", "y2", "y3", 0, 1, -1, 2, -2, 3)

ref_monomials = st.dictionaries(
    st.sampled_from(REF_SOURCE), st.integers(-3, 3).filter(bool), max_size=3
).map(monomial)
ref_polys = st.dictionaries(ref_monomials, st.integers(-4, 4), max_size=4).map(LaurentPoly)


def ref_map(assignment, extra):
    return ClusterMap(Seed.initial(list(REF_SOURCE), [], []), REF_TARGET, assignment, extra)


def sympy_image(assignment, p):
    """f(p) by sympy substitution, or None where an inverted variable goes to 0."""
    xs = {v: sympy.Symbol(v) for v in REF_SOURCE}
    images = {xs[v]: sympy.Symbol(i) if isinstance(i, str) else sympy.Integer(i) for v, i in assignment.items()}
    expr = sympy.Add(*(c * sympy.Mul(*(xs[v] ** e for v, e in m)) for m, c in p.terms.items()))
    value = expr.subs(images, simultaneous=True)
    return None if value.has(sympy.zoo, sympy.nan) else sympy.expand(value)


def laurent_to_sympy(q):
    return sympy.Add(*(c * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in m)) for m, c in q.terms.items()))


class TestApplyAgainstReference:
    """ClusterMap.apply maps p term by term; the polynomial route it
    replaced, and sympy where the image is defined, are its references."""

    @settings(max_examples=250, deadline=None)
    @given(
        st.fixed_dictionaries({x: st.sampled_from(REF_IMAGES) for x in REF_SOURCE}),
        st.dictionaries(ref_polys, st.sampled_from(REF_IMAGES), max_size=2),
        ref_polys,
        st.sampled_from((None, *REF_IMAGES)),
    )
    # terms that cancel and 0/0 are rare in the draws; 0/0 with and without
    # an extra image for p
    @example({"x1": "y1", "x2": "y1", "x3": 2, "x4": 1}, {}, parse_poly("x1 - x2 + x3^-1*x4 + x1^-1"), None)
    @example({"x1": "y1", "x2": "y2", "x3": 2, "x4": -2}, {}, parse_poly("x3^2 + x4^2*x1 - 2*x3*x1"), None)
    @example({"x1": 0, "x2": 0, "x3": 1, "x4": "y1"}, {}, parse_poly("x1^-1*x2 + x4"), None)
    @example({"x1": 0, "x2": 0, "x3": 1, "x4": "y1"}, {}, parse_poly("x1^-1*x2"), "y2")
    def test_apply_matches_the_polynomial_route(self, assignment, extra, p, p_image):
        if p_image is not None:  # p itself may be an extra generator
            extra = {**extra, p: p_image}
        # construction refuses exactly the entries the reference refuses
        kept = {}
        for gen, img in extra.items():
            consistent = reference_consistent(assignment, REF_TARGET, gen, img)
            if consistent:
                kept[gen] = img
            else:
                with pytest.raises(InvalidSeed, match="extra generator image is inconsistent"):
                    ref_map(assignment, {gen: img})
        m = ref_map(assignment, kept)
        got = outcome(m.apply, p)
        assert got == outcome(reference_apply, assignment, kept, REF_TARGET, p)
        if sympy is None or p in kept:
            return
        value = sympy_image(assignment, p)
        if got[0] == "value":
            assert sympy.expand(laurent_to_sympy(m.apply(p)) - value) == 0
        elif "leaves the integer Laurent ring" in got[1]:
            coeffs = [t.as_coeff_Mul()[0] for t in sympy.Add.make_args(value)]
            assert not all(c.is_integer for c in coeffs)
        else:
            assert value is None or value == 0 and "0/0" in got[1]

    @pytest.mark.parametrize(
        "assignment, text, image",
        [
            # p fits 20-bit fields, its image does not: two fields add up
            ({"x1": "y1", "x2": "y1", "x3": 1, "x4": 1}, "x1^200000*x2^200000*x3^-200000 + 1",
             {(("y1", 400000),): 1, (): 1}),
            # p itself is past the 20-bit field
            ({"x1": "y2", "x2": 2, "x3": 1, "x4": "y2"}, "2*x1^300000*x2^-1 + 4*x4*x2^-1",
             {(("y2", 300000),): 1, (("y2", 1),): 2}),
            ({"x1": "y3", "x2": -1, "x3": 1, "x4": "y3"}, "x1^300000*x4^-300000 - x2^3",
             {(): 2}),
            # a negative field past what 20 bits hold would borrow from y2's
            ({"x1": "y3", "x2": "y3", "x3": 1, "x4": "y2"}, "x1^-200000*x2^-200000*x3^200000 + x4",
             {(("y3", -400000),): 1, (("y2", 1),): 1}),
        ],
    )
    def test_wide_exponents_do_not_wrap(self, assignment, text, image):
        p = parse_poly(text)
        got = ref_map(assignment, {}).apply(p)
        assert got.terms == image
        assert got == reference_apply(assignment, {}, REF_TARGET, p)

# -- the label-keyed characterization and check-ideal, the references ------------
#
# check_no_specialization_conditions and its condition-2 search read positions,
# and check_ideal_witness walks the source and the target only; these are the
# bodies they replaced, which read the label form, and whose check-ideal also
# walks the image seed. Both check-ideals walk the target (and the reference
# the image seed) only when the image seed has no exchangeable, the one
# verdict that reads them.


def reference_no_specialization_conditions(m, depth=4, max_nodes=DEFAULT_NODE_BUDGET):
    if not m.is_without_specializations():
        raise InvalidSeed("the characterization applies to maps without specializations")
    witnesses = []

    # (1) injective on exchangeables, into the target exchangeables
    cond1 = True
    seen = {}
    for x in sorted(m.source.exchangeable):
        img = m.assignment[x]
        if img not in m.target.exchangeable:
            cond1 = False
            witnesses.append(f"condition1: {x} -> {img} is not exchangeable")
        if img in seen:
            cond1 = False
            witnesses.append(
                f"condition1: {seen[img]} and {x} share the image {img}"
            )
        seen[img] = x

    # (2) collisions only between coefficients, with stable neighbour signs
    cond2 = True
    collisions = []
    by_image = {}
    for x in m.source.labels:
        by_image.setdefault(m.assignment[x], []).append(x)
    for img, xs in sorted(by_image.items()):
        if len(xs) < 2:
            continue
        for x in xs:
            if x in m.source.exchangeable:
                cond2 = False
                witnesses.append(
                    f"condition2: exchangeable {x} shares image {img}"
                )
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                collisions.append((xs[i], xs[j]))
    needs_search = []
    if cond2:
        for x, y in collisions:
            if all(
                m.source.b(x, v) == m.source.b(y, v)
                for v in m.source.exchangeable
            ):
                continue
            needs_search.append((x, y))
    undecided = None  # raised after (3) only if (1) and (3) hold
    if cond2 and needs_search:
        try:
            conflict = reference_condition2_search(m.source, needs_search, depth, max_nodes)
        except ResourceLimit as exc:
            conflict, undecided = None, exc
        if conflict is not None:
            cond2 = False
            witnesses.append(
                "condition2: sequence {} gives opposite signs b[{}][{}]={} "
                "vs b[{}][{}]={}".format(*conflict)
            )
        elif undecided is None:
            undecided = Inconclusive(
                "condition (2): the sufficient criterion fails for "
                f"{needs_search} and no sign conflict was found to depth {depth}",
                condition="condition2",
            )

    # (3) signed-sum matrix condition per exchangeably connected component
    img_seed = image_seed(m)
    cond3 = True
    signs = []
    for comp in exchangeably_connected_components(img_seed):
        members = [
            x
            for x in sorted(m.source.exchangeable)
            if m.assignment[x] in comp.exchangeable
        ]
        allowed = {1, -1}
        for y in members:
            fy = m.assignment[y]
            sums = {}
            for v, b in m.source.matrix.get(y, {}).items():
                sums[m.assignment[v]] = sums.get(m.assignment[v], 0) + b
            sums = {v: s for v, s in sums.items() if s}
            row = {w: b for w, b in m.target.row(fy).items() if b}
            ok = set()
            if row == sums:
                ok.add(1)
            if row == {v: -s for v, s in sums.items()}:
                ok.add(-1)
            allowed &= ok
            if not allowed:
                cond3 = False
                witnesses.append(
                    f"condition3: row of {fy} is not the signed image sum of "
                    f"the row of {y} (component of {comp.labels[0]})"
                )
                break
        signs.append(max(allowed) if allowed else 0)
    if undecided is not None and cond1 and cond3:
        raise undecided
    return NoSpecReport(cond1, cond2, cond3, tuple(witnesses), tuple(signs))


def reference_condition2_search(seed, pairs, depth, max_nodes):
    walk = explore(
        ((), seed),
        lambda node: (
            (node[0] + (step,), mutate_seed(node[1], step))
            for step in sorted(node[1].exchangeable)
        ),
        depth,
        max_nodes,
        f"condition-2 search exceeded {max_nodes} nodes",
    )
    for seq, s in walk:
        for x, y in pairs:
            for z in sorted(s.exchangeable):
                bx, by = s.b(z, x), s.b(z, y)
                if bx * by < 0:
                    return (seq, z, x, bx, z, y, by)
    return None


def reference_check_ideal_witness(m, depth=4, max_nodes=DEFAULT_NODE_BUDGET):
    images = []
    for p in enumerate_cluster_variables(m.source, depth, max_nodes):
        images.append(m.apply(p))
    img_seed = image_seed(m)
    if not img_seed.exchangeable:
        generators = set(enumerate_cluster_variables(img_seed, depth, max_nodes)) if img_seed.labels else set()
        target_vars = set(enumerate_cluster_variables(m.target, depth, max_nodes))
        coeffs = set(img_seed.labels)
        for img in images:
            if img not in target_vars or img in generators:
                continue
            inside = all(
                e > 0 and v in coeffs for mono in img.terms for v, e in mono
            )
            if not inside:
                return IdealReport("witness", img, depth)
    return IdealReport("ideal-to-depth", None, depth)


def verdict(check, *args):
    """The whole report, or the error's class, text and condition."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "condition", None)


# source names whose sorted order is not the order they are listed in
SHUFFLED_NAMES = ("e2", "c", "e10", "a", "e1", "b2", "z", "b10")


def random_entries(rng, labels):
    """Matrix entries on the labels that a drawn d symmetrizes."""
    d = [rng.choice((1, 1, 2)) for _ in labels]
    entries = []
    for i, j in combinations(range(len(labels)), 2):
        c = rng.choice((0, 0, 1, -1, 2, -1))
        if c:
            entries += [(labels[i], labels[j], c * d[j]), (labels[j], labels[i], -c * d[i])]
    return entries


def random_seed(rng, labels, ex_share):
    """An initial seed on the labels, in the order given, each label
    exchangeable with probability ex_share."""
    entries = random_entries(rng, labels)
    return Seed.initial(labels, [v for v in labels if rng.random() < ex_share], entries)


def sign_flipped_twin(rng, s):
    """s relabelled u0, u1, ..., listed in a drawn order, with a drawn sign
    on each connected component; and the relabelling."""
    relabel = {v: f"u{i}" for i, v in enumerate(s.labels)}
    sign = {}
    for comp in connected_components(s):
        sign.update(dict.fromkeys(comp.labels, rng.choice((1, -1))))
    order = list(s.labels)
    rng.shuffle(order)
    t = Seed.initial(
        [relabel[v] for v in order],
        [relabel[v] for v in s.exchangeable],
        [(relabel[v], relabel[w], sign[v] * b) for v, row in s.matrix.items() for w, b in row.items()],
    )
    return t, relabel


def random_nospec_map(rng):
    """A map without specializations from a seed listed out of label order:
    into a random seed, or into its sign-flipped twin with up to two labels
    sent elsewhere."""
    labels = rng.sample(SHUFFLED_NAMES, rng.randint(2, 5))
    s = random_seed(rng, labels, 0.6)
    if rng.random() < 0.5:
        t = random_seed(rng, [f"y{i}" for i in rng.sample(range(4), rng.randint(1, 4))], 0.6)
        return ClusterMap(s, t, {v: rng.choice(t.labels) for v in labels})
    t, assignment = sign_flipped_twin(rng, s)
    for v in rng.sample(labels, rng.randint(0, 2)):
        assignment[v] = rng.choice(t.labels)
    return ClusterMap(s, t, assignment)


def collision_map(rng):
    """Two or three coefficients sent to one label beside two or three
    exchangeables, listed in a drawn order, so that position order and
    label order differ; the coefficients' drawn rows mostly differ, and
    condition (2) then reaches its search."""
    k = rng.randint(2, 3)
    ex = rng.sample(("e3", "e1", "d", "e2", "b"), rng.randint(2, 3))
    labels = ex + [f"c{i}" for i in range(k)]
    rng.shuffle(labels)
    s = Seed.initial(labels, ex, random_entries(rng, labels))
    images = {e: f"w{i}" for i, e in enumerate(ex)}
    t_labels = ["c", *images.values()]
    t = Seed.initial(t_labels, t_labels[1:], random_entries(rng, t_labels))
    return ClusterMap(s, t, {v: images.get(v, "c") for v in labels})


def random_ideal_map(rng):
    """A map that may specialize: each label goes to a target label or to
    one of 0, 1, -1, 2. One in five is the ideal counterexample's source
    into a random target, its extra generator sent to a drawn label, so
    that it has a witness."""
    t = random_seed(rng, [f"y{i}" for i in rng.sample(range(4), rng.randint(1, 4))], 0.5)
    if rng.random() < 0.2:
        m = ideal_counterexample_map()
        return ClusterMap(m.source, t, m.assignment, {gen: rng.choice(t.labels) for gen in m.extra})
    s = random_seed(rng, rng.sample(SHUFFLED_NAMES, rng.randint(1, 4)), 0.5)
    images = list(t.labels) + [0, 1, -1, 2]
    return ClusterMap(s, t, {v: rng.choice(images) for v in s.labels})


BUDGETS = [(1, 3), (2, 10), (2, 100), (3, 40), (3, DEFAULT_NODE_BUDGET)]


class TestCharacterizationAgainstReference:
    """The positional characterization and search, and check-ideal without
    the image seed's walk, give the reports and errors of the label-keyed
    references, witness texts and their order included."""

    def test_random_maps(self):
        rng = random.Random(35)
        for _ in range(800):
            m = random_nospec_map(rng)
            depth, max_nodes = rng.choice(BUDGETS)
            assert verdict(check_no_specialization_conditions, m, depth, max_nodes) == verdict(
                reference_no_specialization_conditions, m, depth, max_nodes
            )

    def test_colliding_coefficients_reach_the_search(self):
        rng = random.Random(36)
        searched = 0
        for _ in range(600):
            m = collision_map(rng)
            depth, max_nodes = rng.choice(BUDGETS)
            got = verdict(check_no_specialization_conditions, m, depth, max_nodes)
            assert got == verdict(reference_no_specialization_conditions, m, depth, max_nodes)
            searched += isinstance(got, tuple) or any("sequence" in w for w in got.witnesses)
        assert searched > 300

    def test_check_ideal(self):
        rng = random.Random(37)
        outcomes = set()
        for _ in range(300):
            m = random_ideal_map(rng)
            depth, max_nodes = rng.choice([(1, 1), (1, 4), (2, 6), (2, 20), (3, 12), (3, DEFAULT_NODE_BUDGET)])
            got = verdict(check_ideal_witness, m, depth, max_nodes)
            assert got == verdict(reference_check_ideal_witness, m, depth, max_nodes)
            outcomes.add(got.status if isinstance(got, IdealReport) else got[0])
        assert outcomes == {"witness", "ideal-to-depth", ResourceLimit, NonLaurentImage}


class TestCompose:
    def test_identity_unit(self):
        m = example_map()
        assert compose(identity_map(a2_seed()), m).assignment == m.assignment
        assert compose(m, identity_map(example_seed())).assignment == m.assignment

    def test_mismatch(self):
        with pytest.raises(SeedMismatch):
            compose(example_map(), example_map())

    def test_extra_tables_do_not_compose(self):
        with pytest.raises(SeedMismatch) as err:
            compose(identity_map(a2_seed()), ideal_counterexample_map())
        assert str(err.value) == "maps with extra generator images do not compose"

    def test_inclusion_composition_is_inclusion(self):
        s = example_seed()
        sub1 = full_subseed(s, ["x1"])
        sub1 = Seed(sub1.labels, frozenset(), sub1.matrix, dict(sub1.values))
        sub2 = full_subseed(s, ["x1", "x2"])
        sub2 = Seed(sub2.labels, frozenset(), sub2.matrix, dict(sub2.values))
        f12 = ClusterMap(sub1, sub2, {"x1": "x1"})
        f23 = ClusterMap(sub2, s, {"x1": "x1", "x2": "x2"})
        f13 = compose(f23, f12)
        assert f13.assignment == {"x1": "x1"}
        assert f13.target.same_seed(s)


def assert_characterized(fwd, inv):
    assert check_no_specialization_conditions(fwd).passed
    assert check_no_specialization_conditions(inv).passed


@settings(max_examples=60, deadline=None)
@given(skew_symmetrizable_seeds(max_rank=5), st.data())
def test_similarity_maps_pass_the_characterization(s, data):
    # t is s relabelled, in a drawn order, with one drawn sign per
    # connected component; morphism_from_similarity trusts the verify, and
    # the characterization is the reference that this is sound
    relabel = dict(zip(s.labels, data.draw(st.permutations([f"u{i}" for i in range(len(s.labels))]))))
    sign = {}
    for comp in connected_components(s):
        sign.update(dict.fromkeys(comp.labels, data.draw(st.sampled_from([1, -1]))))
    t = Seed.initial(
        [relabel[v] for v in data.draw(st.permutations(s.labels))],
        [relabel[v] for v in s.exchangeable],
        [(relabel[v], relabel[w], sign[v] * b) for v, row in s.matrix.items() for w, b in row.items()],
    )
    witness = check_similar(s, t)
    assert witness is not None
    fwd, inv = morphism_from_similarity(witness, s, t)
    assert_characterized(fwd, inv)
    for p in enumerate_cluster_variables(s, 2):
        assert inv.apply(fwd.apply(p)) == p
    # verify implies the characterization both ways: for the relabelling,
    # which verifies, and for a bijection drawn at random, which may not
    assert verify_similarity_bijection(s, t, relabel)
    for bijection in (relabel, dict(zip(s.labels, data.draw(st.permutations(t.labels))))):
        if verify_similarity_bijection(s, t, bijection):
            assert_characterized(*morphism_from_similarity(bijection, s, t))


class TestSimilarityMorphisms:
    def test_opposite_pair(self):
        s = example_seed()
        bij = check_similar(s, opposite_seed(s))
        fwd, inv = morphism_from_similarity(bij, s, opposite_seed(s))
        assert check_no_specialization_conditions(fwd).passed
        assert check_no_specialization_conditions(inv).passed
        # composites act as the identity on cluster variables
        for p in enumerate_cluster_variables(s, 3):
            assert inv.apply(fwd.apply(p)) == p

    def test_a2_swap(self):
        s = a2_seed()
        t = Seed.initial(["y1", "y2"], ["y1", "y2"], [("y2", "y1", 1), ("y1", "y2", -1)])
        bij = check_similar(s, t)
        fwd, inv = morphism_from_similarity(bij, s, t)
        for p in enumerate_cluster_variables(s, 3):
            assert inv.apply(fwd.apply(p)) == p

    def test_not_similar(self):
        t = Seed.initial(["z1", "z2"], ["z1", "z2"], [])
        with pytest.raises(NotSimilar):
            morphism_from_similarity({"y1": "z1", "y2": "z2"}, a2_seed(), t)


class TestMorphismProperties:
    def test_stability_under_biadmissible_mutation(self):
        m = example_map()
        depth = 4
        assert check_cm3(m, depth).passed
        for seq in enumerate_biadmissible(m, 2):
            induced = biadmissible_descendant(m, seq)
            assert check_cm3(induced, depth - len(seq)).passed

    def test_almost_injective_on_verified_maps(self):
        rng = random.Random(31)
        verified = 0
        for _ in range(250):
            s = example_seed() if rng.random() < 0.5 else a2_seed()
            targets = [s, opposite_seed(s)]
            t = targets[rng.randrange(2)]
            m = ClusterMap(s, t, {l: l for l in s.labels})
            if not check_cm3(m, 2).passed:
                continue
            verified += 1
            for x in m.source.exchangeable:
                img = m.assignment[x]
                if isinstance(img, int):
                    continue
                for y in m.source.labels:
                    if y != x:
                        assert m.assignment[y] != img
        assert verified >= 200

    def test_matrix_restriction_law(self):
        # for verified morphisms, b'_{f(x)f(y)} = +/- b_{xy} on surviving
        # exchangeables
        cases = []
        s = example_seed()
        cases.append(identity_map(s))
        cases.append(ClusterMap(s, opposite_seed(s), {l: l for l in s.labels}))
        cases.append(example_map())
        for m in cases:
            assert check_cm3(m, 3).passed
            for x in m.source.exchangeable:
                for y in m.source.exchangeable:
                    fx, fy = m.assignment[x], m.assignment[y]
                    if isinstance(fx, int) or isinstance(fy, int):
                        continue
                    if fx in m.target.exchangeable and fy in m.target.exchangeable:
                        assert abs(m.target.b(fx, fy)) == abs(m.source.b(x, y))


    def test_descendant_along_a_non_biadmissible_sequence(self):
        # x3 is exchangeable but maps to the integer 1
        with pytest.raises(SeedMismatch) as err:
            biadmissible_descendant(example_map(), ["x2", "x3"])
        assert str(err.value) == "sequence ['x2', 'x3'] is not biadmissible at 'x3'"

    def test_descendant_follows_a_shared_image(self):
        # exchangeable x and coefficient a share the image y, so the step
        # at x moves both images to y's descendant
        src = Seed.initial(["a", "x"], ["x"], [("a", "x", 1), ("x", "a", -1)])
        m = ClusterMap(src, Seed.initial(["y"], ["y"], []), {"a": "y", "x": "y"})
        d = biadmissible_descendant(m, ["x"])
        assert d.assignment == {"a": "y'1", "x'1": "y'1"}
        assert d.target.labels == ("y'1",)


class TestBudgets:
    def test_biadmissible_resource_limit(self):
        from clusterlab.errors import ResourceLimit

        m = identity_map(example_seed())
        with pytest.raises(ResourceLimit):
            enumerate_biadmissible(m, 6, max_nodes=4)

    def test_cm3_counts_sequences_not_states(self):
        a3 = Seed.initial(
            ["y1", "y2", "y3"],
            ["y1", "y2", "y3"],
            [("y1", "y2", 1), ("y2", "y1", -1), ("y2", "y3", 1), ("y3", "y2", -1)],
        )
        m = identity_map(a3)
        assert check_cm3(m, 3).nodes == len(enumerate_biadmissible(m, 3)) == 1 + 3 + 9 + 27

    def test_cm3_budget_of_zero_visits_nothing(self):
        from clusterlab.errors import ResourceLimit

        # the root is a node too, so a budget of 0 admits not even depth 0
        with pytest.raises(ResourceLimit, match="exceeded 0 nodes"):
            check_cm3(identity_map(example_seed()), 0, max_nodes=0)


class TestRandomizedSoundness:
    def test_random_condition1_violators_fail_cm3(self):
        rng = random.Random(61)
        failed = 0
        for _ in range(60):
            rank = rng.randint(2, 4)
            labels = [f"v{i}" for i in range(rank)]
            entries = []
            for i in range(rank):
                for j in range(i + 1, rank):
                    b = rng.choice([-1, 0, 1])
                    if b:
                        entries += [
                            (labels[i], labels[j], b),
                            (labels[j], labels[i], -b),
                        ]
            src = Seed.initial(labels, labels, entries)
            # merge two exchangeables onto one target exchangeable
            tgt = Seed.initial(labels, labels, entries)
            assignment = {l: l for l in labels}
            assignment[labels[1]] = labels[0]
            m = ClusterMap(src, tgt, assignment)
            report = check_no_specialization_conditions(m)
            assert not report.condition1
            if not check_cm3(m, 2).passed:
                failed += 1
        assert failed == 60
