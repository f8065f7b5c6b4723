"""Oracles, neighbourhood balls, filtrations, stable mutation, colimits."""

import gc
import json
import os
import tempfile
import weakref
from fractions import Fraction as F
from itertools import combinations, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clusterlab.cli
import clusterlab.colimits
import clusterlab.seeds
from clusterlab.cli import load_seed_file, load_triangulation_file, save_seed_file, seed_to_data
from clusterlab.colimits import (
    COMPONENT_WINDOW,
    ORACLES,
    Filtration,
    _interleave,
    _mutate_tracking,
    _oracle_balls,
    FiniteSeedOracle,
    PathQuiverOracle,
    TriangulationOracle,
    build_filtration,
    check_only_coefficients,
    fan_oracle,
    inclusion_morphism,
    materialize_ball,
    mediating_morphism,
    nest_oracle,
    oracle_tower,
    split_fountain_oracle,
    stable_mutation,
    triangulation_filtration,
)
from clusterlab.disc import (
    Arc,
    FiniteTriangulation,
    InfiniteTriangulation,
    _arc,
    all_triangulations,
    arcs_cross,
    chord_of,
    fan_triangulation,
    first_crossing,
    parse_arc_label,
    seed_from_triangulation,
    triangulation_components,
    validate_triangulation,
)
from clusterlab.errors import (
    ClusterLabError,
    CrossingPair,
    IncompatibleCone,
    InputError,
    InvalidFamily,
    NotAdmissibleAtStage,
    NotAnArc,
    NotFullSubseed,
    NotMaximal,
    NotOnlyCoefficients,
    OracleInconsistent,
    ParseError,
    ResourceLimit,
    SeedMismatch,
    UnknownVertex,
)
from clusterlab.laurent import LaurentPoly, format_poly, parse_poly
from clusterlab.morphisms import ClusterMap, check_cm3, check_no_specialization_conditions
from clusterlab.errors import NotSkewSymmetrizable
from clusterlab.seeds import (
    Seed,
    connected_components,
    coproduct,
    full_subseed,
    grow,
    mutate_seed,
    mutate_sequence,
    opposite_seed,
)
from test_cli import PENTAGON, SPLIT_TRI
from test_disc import label_form
from test_seed_class import finite_type_root
from test_tri_fuzz import ANGLES, TEMPLATES, polygon_files, rotated_templates


def path_seed(lo, hi):
    labels = [f"x{i}" for i in range(lo, hi + 1)]
    entries = []
    for i in range(lo, hi):
        entries += [(f"x{i}", f"x{i+1}", 1), (f"x{i+1}", f"x{i}", -1)]
    return Seed.initial(labels, labels, entries)


def wrapper_seed():
    return Seed.initial(
        ["a", "b", "c", "d"],
        ["b", "c"],
        [
            ("a", "b", 1),
            ("b", "a", -1),
            ("b", "c", 1),
            ("c", "b", -1),
            ("c", "d", 1),
            ("d", "c", -1),
        ],
    )


def two_component_seed():
    return Seed.initial(
        ["a", "b", "c", "p", "q", "r"],
        ["a", "b", "c", "p", "q", "r"],
        [
            ("a", "b", 1), ("b", "a", -1), ("b", "c", 1), ("c", "b", -1),
            ("p", "q", 1), ("q", "p", -1), ("q", "r", 1), ("r", "q", -1),
        ],
    )


def seed_parts(seed):
    """Labels in order, exchangeables and matrix entries of a seed."""
    entries = {(v, w): b for v, row in seed.matrix.items() for w, b in row.items()}
    return seed.labels, seed.exchangeable, entries


class TestBalls:
    def test_path_radius_one(self):
        ball = materialize_ball(PathQuiverOracle(), "x0", 1)
        assert set(ball.labels) == {"x0", "x1", "xm1"}
        assert set(ball.exchangeable) == {"x0"}

    def test_path_radius_two(self):
        ball = materialize_ball(PathQuiverOracle(), "x0", 2)
        assert set(ball.labels) == {"xm2", "xm1", "x0", "x1", "x2"}
        assert set(ball.exchangeable) == {"x0", "x1", "xm1"}

    def test_wrapper_saturates(self):
        oracle = FiniteSeedOracle(wrapper_seed())
        ball = materialize_ball(oracle, "a", 5)
        assert ball.same_seed(wrapper_seed())

    def test_radius_zero(self):
        ball = materialize_ball(PathQuiverOracle(), "x3", 0)
        assert ball.labels == ("x3",)
        assert not ball.exchangeable
        assert ball.matrix == {}

    def test_inconsistent_oracle(self):
        class Broken:
            def neighbor_row(self, v):
                return {"b": 1} if v == "a" else {}

            def is_exchangeable(self, v):
                return True

            def representatives(self):
                return ["a"]

        with pytest.raises(OracleInconsistent) as err:
            materialize_ball(Broken(), "a", 1)
        assert "ball at 'a' is not skew-symmetrizable: " in str(err.value)
        assert "sign violation at ('a', 'b')" in str(err.value)


    @pytest.mark.parametrize(
        "make, rows",
        [
            (PathQuiverOracle, ["x0", "x1", "xm1", "x2", "xm2", "x3", "xm3"]),
            (
                split_fountain_oracle,
                [
                    "1/8~1/4", "1/10~1/4", "1/10~1/8", "1/6~1/4", "1/8~1/6",
                    "1/12~1/10", "1/12~1/4", "1/14~1/12", "1/14~1/4",
                ],
            ),
        ],
    )
    def test_each_row_is_fetched_once_in_sorted_shell_order(self, make, rows):
        class Counting:
            def __init__(self):
                self.inner, self.rows, self.flags = make(), [], []

            def neighbor_row(self, v):
                self.rows.append(v)
                return self.inner.neighbor_row(v)

            def is_exchangeable(self, v):
                self.flags.append(v)
                return self.inner.is_exchangeable(v)

        oracle = Counting()
        center = oracle.inner.representatives()[0]
        balls = list(islice(_oracle_balls(oracle, center), 4))
        assert oracle.rows == rows
        # the flags of the first three shells, asked as each is left
        assert oracle.flags == rows[: len(balls[2].labels)]
        assert balls[3].labels == tuple(sorted(rows))


# the four built-in oracles and four finite types, by name
TEST_ORACLES = {
    **ORACLES,
    **{kind: lambda kind=kind: FiniteSeedOracle(finite_type_root(kind)) for kind in ["A5", "D5", "B4", "G2"]},
}


def assert_inclusions_pass(fil):
    for inc in fil.inclusions:
        assert check_no_specialization_conditions(inc).passed


@st.composite
def skew_symmetrizable_seeds(draw, max_rank=6):
    """An initial seed of rank 1 to max_rank whose matrix d symmetrizes:
    b_ij = c d_j and b_ji = -c d_i for a drawn symmetrizer d and bond c,
    with a drawn set of exchangeables."""
    n = draw(st.integers(1, max_rank))
    d = [draw(st.integers(1, 3)) for _ in range(n)]
    labels = [f"v{i}" for i in range(n)]
    entries = []
    for i, j in combinations(range(n), 2):
        c = draw(st.sampled_from([0, 0, 1, -1, 2, -2]))
        if c:
            entries += [(labels[i], labels[j], c * d[j]), (labels[j], labels[i], -c * d[i])]
    return Seed.initial(labels, draw(st.sets(st.sampled_from(labels))), entries)


class TestFiltration:
    def test_path_stage_sizes(self):
        fil = build_filtration(PathQuiverOracle(), 3)
        assert [len(s.labels) for s in fil.stages] == [1, 3, 5]

    def test_two_component_interleaving(self):
        fil = build_filtration(FiniteSeedOracle(two_component_seed()), 3)
        # stage 2 holds the radius-2 ball of component 0 and radius-1 of 1
        assert set(fil.stages[2].labels) == {"a", "b", "c", "p", "q"}

    @pytest.mark.parametrize("name", list(TEST_ORACLES))
    def test_split_fountain_only_coefficients(self, name):
        # the reference for the lemma the filtrations rest on: no stage
        # meets the next but through its coefficients
        fil = build_filtration(TEST_ORACLES[name](), 6)
        for inner, outer in zip(fil.stages, fil.stages[1:]):
            assert check_only_coefficients(inner, outer) == (True, None)

    @pytest.mark.parametrize("name", list(TEST_ORACLES))
    def test_consecutive_inclusions_verified(self, name):
        # the inclusions hold by construction; the characterization is the
        # reference that each is a morphism
        assert_inclusions_pass(build_filtration(TEST_ORACLES[name](), 5))

    @settings(max_examples=50, deadline=None)
    @given(rotated_templates())
    def test_consecutive_inclusions_verified_on_generated_files(self, data):
        assert_inclusions_pass(triangulation_filtration(tri_from_data(data), 4))

    def test_triangulation_freed_without_the_cycle_collector(self):
        # its memo tables reach it through a proxy, so dropping the oracle
        # frees it at once rather than at the next cyclic collection
        oracle = split_fountain_oracle()
        tri = weakref.ref(oracle.tri)
        gc.disable()
        try:
            build_filtration(oracle, 4)
            del oracle
            assert tri() is None
        finally:
            gc.enable()


def test_components_that_meet_are_rejected():
    class TwoRepresentatives(PathQuiverOracle):
        def representatives(self):
            return ["x0", "x3"]

    tower = oracle_tower(TwoRepresentatives())
    assert list(islice(tower, 2))[1].labels == ("x0", "x1", "xm1", "x3")
    with pytest.raises(OracleInconsistent) as exc:
        next(tower)  # stage 2: the x0 ball of radius 2 and the x3 ball of radius 1 share x2
    assert str(exc.value) == (
        "component representatives are not disconnected: "
        "label 'x2' occurs in more than one summand"
    )


class TestTower:
    """Stages of the tower against balls grown here, radius by radius from
    scratch, without the library's generator."""

    @staticmethod
    def reference_stage(oracle, i, rows):
        labels, exchangeable, entries = [], set(), {}
        reps = oracle.representatives()
        for j in range(min(i + 1, len(reps))):
            ball, inner, frontier = {reps[j]}, set(), [reps[j]]
            for _ in range(i - j):
                inner |= set(frontier)
                nxt = []
                for v in frontier:
                    for w in rows(v):
                        if w not in ball:
                            ball.add(w)
                            nxt.append(w)
                frontier = nxt
            labels += sorted(ball)
            exchangeable |= {v for v in inner if oracle.is_exchangeable(v)}
            for v in ball:
                entries.update({(v, w): b for w, b in rows(v).items() if w in ball and b})
        return tuple(labels), frozenset(exchangeable), entries

    @pytest.mark.parametrize(
        "make",
        [
            PathQuiverOracle,
            fan_oracle,
            split_fountain_oracle,
            nest_oracle,
            lambda: FiniteSeedOracle(two_component_seed()),
        ],
        ids=["path-quiver", "fan", "split-fountain", "nest", "two-components"],
    )
    def test_stages_match_reference_balls(self, make):
        oracle = make()
        cache = {}

        def rows(v):
            if v not in cache:
                cache[v] = oracle.neighbor_row(v)
            return cache[v]

        for i, stage in enumerate(islice(oracle_tower(oracle), 13)):
            assert seed_parts(stage) == self.reference_stage(oracle, i, rows), i

    class Counting:
        """Forwards to an oracle and records every row and flag asked for."""

        def __init__(self, oracle):
            self.oracle, self.rows, self.flags = oracle, [], []

        def neighbor_row(self, v):
            self.rows.append(v)
            return self.oracle.neighbor_row(v)

        def is_exchangeable(self, v):
            self.flags.append(v)
            return self.oracle.is_exchangeable(v)

        def is_vertex(self, v):
            return self.oracle.is_vertex(v)

        def representatives(self):
            return self.oracle.representatives()

    def test_each_row_and_flag_asked_once(self):
        oracle = self.Counting(split_fountain_oracle())
        fil = build_filtration(oracle, 6)
        assert sorted(oracle.rows) == sorted(fil.stages[-1].labels)
        assert len(set(oracle.flags)) == len(oracle.flags)
        mid = Arc.of(F(1, 4), F(3, 4)).label
        oracle = self.Counting(split_fountain_oracle())
        with pytest.raises(NotAdmissibleAtStage):
            stable_mutation(oracle, [mid], mid)
        assert len(set(oracle.rows)) == len(oracle.rows)
        assert len(set(oracle.flags)) == len(oracle.flags)

    @pytest.mark.parametrize(
        "make", [fan_oracle, split_fountain_oracle, nest_oracle], ids=["fan", "split-fountain", "nest"]
    )
    def test_triangulation_route_agrees(self, make):
        oracle = make()
        assert_glued_stages(oracle.tri, 6)
        assert_glued_stages(oracle.tri, 6, [parse_arc_label(v) for v in oracle.representatives()])


# -- the glueing route: the reference for triangulation_filtration -----------------


def triangle_sides(corners):
    """The sides {p,q}, {q,r}, {r,p} of a triangle with corners (p, q, r)."""
    p, q, r = corners
    return Arc.of(p, q), Arc.of(q, r), Arc.of(r, p)


def glued_stages(tri, steps, base_arcs=None):
    """The first stages of a triangulation's tower built without its seed
    oracle: each component grows by glueing the triangles on its outer
    shell, and every component stage is validated as a finite triangulation
    and converted to its seed. The stage joins them with coproduct, which
    shares _interleave's layout; the stage reference that does not is
    assert_stages_are_initial_seeds_of_their_balls."""

    def neighbours(a):
        return {side for corners in tri.triangles_of(a) for side in triangle_sides(corners)} - {a}

    def component(base):
        for arcs, _ in grow(base, neighbours):
            points = {p for a in arcs for p in a.endpoints()}
            yield seed_from_triangulation(validate_triangulation(points, arcs))

    if base_arcs is None:
        base_arcs = [p[0] for p in triangulation_components(tri, COMPONENT_WINDOW)]
    components = [component(base) for base in base_arcs]
    return [coproduct([next(c) for c in components[: i + 1]]) for i in range(steps)]


def assert_glued_stages(tri, steps, base_arcs=None):
    """triangulation_filtration's stages have the glued stages' label sets,
    exchangeables and matrices."""
    fil = triangulation_filtration(tri, steps, base_arcs)
    assert fil.provenance == "triangulation-glueing"
    for a, b in zip(fil.stages, glued_stages(tri, steps, base_arcs), strict=True):
        labels_a, ex_a, entries_a = seed_parts(a)
        labels_b, ex_b, entries_b = seed_parts(b)
        assert set(labels_a) == set(labels_b)
        assert (ex_a, entries_a) == (ex_b, entries_b)


def tri_from_data(data):
    """The triangulation a `.tri` file holding this JSON reads as."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.tri")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return load_triangulation_file(path)


@settings(max_examples=50, deadline=None)
@given(rotated_templates())
def test_triangulation_route_agrees_on_generated_files(data):
    assert_glued_stages(tri_from_data(data), 5)


@settings(max_examples=40, deadline=None)
@given(polygon_files(), st.data())
def test_triangulation_route_agrees_on_polygons(data, draw):
    try:
        tri = tri_from_data(data)
    except (CrossingPair, NotMaximal, InputError):
        assume(False)  # a polygon file with an arc dropped or one added
    assert isinstance(tri, FiniteTriangulation)
    assert_glued_stages(tri, 6)
    assert_glued_stages(tri, 6, [draw.draw(st.sampled_from(sorted(tri.arcs)))])


@settings(max_examples=100, deadline=None)
@given(skew_symmetrizable_seeds(), st.data())
def test_only_coefficients_decides_the_inclusion_conditions(outer, data):
    # the full subseed on L with exchangeables E, E among outer's on L
    labels = data.draw(st.sets(st.sampled_from(outer.labels), min_size=1))
    sub = full_subseed(outer, labels)
    exchangeable = data.draw(st.sets(st.sampled_from(sorted(sub.exchangeable)))) if sub.exchangeable else set()
    inner = Seed(sub.labels, frozenset(exchangeable), sub.matrix, dict(sub.values))
    identity = ClusterMap(inner, outer, {v: v for v in inner.labels})
    assert check_only_coefficients(inner, outer)[0] == check_no_specialization_conditions(identity).passed


class TestOnlyCoefficients:
    def test_pass(self):
        inner = materialize_ball(PathQuiverOracle(), "x0", 1)
        outer = materialize_ball(PathQuiverOracle(), "x0", 2)
        assert check_only_coefficients(inner, outer) == (True, None)

    def test_fail_with_witness(self):
        outer = materialize_ball(PathQuiverOracle(), "x0", 2)
        bad = Seed.initial(
            ["x0", "x1", "xm1"],
            ["x0", "x1"],
            [
                ("xm1", "x0", 1), ("x0", "xm1", -1),
                ("x0", "x1", 1), ("x1", "x0", -1),
            ],
        )
        ok, witness = check_only_coefficients(bad, outer)
        assert not ok and witness == "x1"

    def test_transitivity_fixture(self):
        oracle = PathQuiverOracle()
        inner = materialize_ball(oracle, "x0", 1)
        mid = materialize_ball(oracle, "x0", 2)
        outer = materialize_ball(oracle, "x0", 3)
        assert check_only_coefficients(inner, mid)[0]
        assert check_only_coefficients(mid, outer)[0]
        assert check_only_coefficients(inner, outer)[0]

    def test_not_full_subseed(self):
        outer = materialize_ball(PathQuiverOracle(), "x0", 2)
        stranger = Seed.initial(["z"], [], [])
        with pytest.raises(NotFullSubseed):
            check_only_coefficients(stranger, outer)

    def test_an_inner_exchangeable_must_be_an_outer_one(self):
        inner = materialize_ball(PathQuiverOracle(), "x0", 2)
        frozen = Seed.initial(inner.labels, [], inner.matrix)
        with pytest.raises(NotFullSubseed) as exc:
            check_only_coefficients(inner, frozen)
        assert str(exc.value) == "inner exchangeables are not outer exchangeables"

    def test_mismatch_text_names_the_first_entry_in_label_order(self):
        # rows x0 and x1 agree; row x2 differs at x1 and x3 but not at x0,
        # and lists x3 first in the outer seed; row x3 differs too: the text
        # names (x2, x1)
        inner = Seed.initial(
            ["x0", "x1", "x2", "x3"],
            [],
            [("x0", "x1", 1), ("x1", "x0", -1), ("x1", "x2", -1), ("x2", "x1", 2),
             ("x0", "x3", -1), ("x3", "x0", 1)],
        )
        outer = Seed.initial(
            ["x0", "x1", "x2", "x3", "y"],
            [],
            [
                ("x0", "x1", 1), ("x1", "x0", -1), ("x1", "y", 1), ("y", "x1", -1),
                ("x1", "x2", -1), ("x2", "x3", 1), ("x2", "x1", 1), ("x3", "x2", -1),
                ("x0", "x3", -1), ("x3", "x0", 1),
            ],
        )
        with pytest.raises(NotFullSubseed) as exc:
            check_only_coefficients(inner, outer)
        assert str(exc.value) == "matrix entry ('x2', 'x1') is not the outer restriction"


class TestInclusionMorphism:
    def test_stage_into_wrapper(self):
        oracle = FiniteSeedOracle(wrapper_seed())
        fil = build_filtration(oracle, 3)
        for stage in fil.stages:
            m = inclusion_morphism(stage, wrapper_seed())
            assert check_no_specialization_conditions(m).passed

    def test_violating_pair_rejected(self):
        outer = materialize_ball(PathQuiverOracle(), "x0", 2)
        bad = Seed.initial(
            ["x0", "x1", "xm1"],
            ["x0", "x1"],
            [
                ("xm1", "x0", 1), ("x0", "xm1", -1),
                ("x0", "x1", 1), ("x1", "x0", -1),
            ],
        )
        with pytest.raises(NotOnlyCoefficients):
            inclusion_morphism(bad, outer)


class TestStableMutation:
    def test_path_single_step(self):
        value, stage = stable_mutation(PathQuiverOracle(), ["x0"], "x0")
        assert value == parse_poly("xm1*x0^-1 + x0^-1*x1")
        assert stage == 1
        # independent oracle: brute force on the radius-2 ball
        ball = materialize_ball(PathQuiverOracle(), "x0", 2)
        mutated = mutate_sequence(ball, ["x0"])
        new = next(l for l in mutated.labels if l not in ball.labels)
        assert mutated.values[new] == value

    def test_empty_sequence(self):
        value, stage = stable_mutation(PathQuiverOracle(), [], "x0")
        assert value == parse_poly("x0")
        assert stage == 0

    def test_spread_sequence_grows_certificate(self):
        v1, s1 = stable_mutation(PathQuiverOracle(), ["x0"], "x0")
        v2, s2 = stable_mutation(PathQuiverOracle(), ["x0", "x1", "x2"], "x2")
        assert s2 > s1
        ball = materialize_ball(PathQuiverOracle(), "x0", s2 + 1)
        mutated = mutate_sequence(ball, ["x0", "x1", "x2"])
        new = [l for l in mutated.labels if l not in ball.labels]
        assert mutated.values[[l for l in new if l.startswith("x2")][0]] == v2

    def test_a_target_outside_every_stage_hits_the_stage_limit(self):
        with pytest.raises(ResourceLimit) as exc:
            stable_mutation(PathQuiverOracle(), ["x5"], "x5", max_stages=3)
        assert str(exc.value) == "no stage up to 3 admits the sequence ('x5',) with target 'x5'"

    def test_never_admissible(self):
        mid = Arc.of(F(1, 4), F(3, 4)).label
        with pytest.raises(NotAdmissibleAtStage):
            stable_mutation(split_fountain_oracle(), [mid], mid)

    @pytest.mark.parametrize(
        "max_stages, error", [(3, ResourceLimit), (4, NotAdmissibleAtStage), (5, NotAdmissibleAtStage)]
    )
    def test_never_admissible_at_the_stage_budget(self, max_stages, error):
        # the arc enters at stage 2 and is inner, never exchangeable, from
        # stage 3 on: a budget of three stages does not reach that verdict
        mid = Arc.of(F(1, 4), F(3, 4)).label
        with pytest.raises(error):
            stable_mutation(split_fountain_oracle(), [mid], mid, max_stages=max_stages)

    def test_positivity_on_oracles(self):
        probes = [
            (PathQuiverOracle(), ["x0", "x1"], "x1"),
            (PathQuiverOracle(), ["x0", "xm1"], "x0"),
            (fan_oracle(), [Arc.of(F(0), F(1, 3)).label], Arc.of(F(0), F(1, 3)).label),
        ]
        for oracle, seq, target in probes:
            value, _ = stable_mutation(oracle, seq, target)
            assert value.has_nonnegative_coefficients()


@st.composite
def oracle_walks(draw, oracle):
    """A radius-3 ball around a representative, a walk of one to four of
    its exchangeable current labels, the seed the walk reaches, and up to
    three targets of the ball, the first step first. Four steps keep every
    value small (at most 7 terms on G2, the largest seen in 1600 draws)."""
    balls = [materialize_ball(oracle, rep, 3) for rep in oracle.representatives()]
    ball = draw(st.sampled_from([b for b in balls if b.exchangeable]))
    seed, sequence = ball, []
    for _ in range(draw(st.integers(1, 4))):
        step = draw(st.sampled_from(sorted(seed.exchangeable)))
        seed = mutate_seed(seed, step)
        sequence.append(step)
    others = draw(st.lists(st.sampled_from(ball.labels), max_size=2))
    return ball, seed, sequence, list(dict.fromkeys([sequence[0], *others]))


@settings(max_examples=100, deadline=None)
@given(rotated_templates(), st.data())
def test_positivity_on_generated_triangulations(data, draw):
    """Positivity at infinite rank (Gratz, from Lee-Schiffler on the finite
    stages) on valid generated triangulations: the stable value of a few
    targets along a drawn walk has nonnegative coefficients and is the
    value the walk gives in its ball, which is a full subseed holding the
    rows of every exchangeable it mutates."""
    oracle = TriangulationOracle(tri_from_data(data))
    ball, seed, sequence, targets = draw.draw(oracle_walks(oracle))
    for target in targets:
        value, _ = stable_mutation(oracle, sequence, target)
        assert value.has_nonnegative_coefficients()
        assert value == seed.values[seed.labels[ball.labels.index(target)]]


# -- the two-stage comparison: the reference for stable_mutation ---------------------


def assert_stable_in_later_stages(make, sequence, target):
    """stable_mutation's value, found in stage i, is the value the sequence
    gives in stages i + 1 and i + 3 of a fresh oracle's tower."""
    value, i = stable_mutation(make(), sequence, target)
    stages = list(islice(oracle_tower(make()), i + 4))
    for later in (stages[i + 1], stages[i + 3]):
        assert _mutate_tracking(later, sequence, target) == (value, True, None)


@pytest.mark.parametrize("name", list(TEST_ORACLES))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_stable_value_holds_in_later_stages(name, data):
    make = TEST_ORACLES[name]
    _, _, sequence, targets = data.draw(oracle_walks(make()))
    for target in targets:
        assert_stable_in_later_stages(make, sequence, target)


@settings(max_examples=50, deadline=None)
@given(rotated_templates(), st.data())
def test_stable_value_holds_in_later_stages_of_generated_triangulations(data, draw):
    tri = tri_from_data(data)
    make = lambda: TriangulationOracle(tri)
    _, _, sequence, targets = draw.draw(oracle_walks(make()))
    for target in targets:
        assert_stable_in_later_stages(make, sequence, target)


@pytest.mark.parametrize(
    "make, sequence, target",
    [
        (PathQuiverOracle, ["x0", "x1", "x2"], "x2"),
        (fan_oracle, ["0/1~1/3"], "0/1~1/3"),
        (nest_oracle, ["3/8~5/8"], "3/8~5/8"),
        (split_fountain_oracle, ["1/8~1/4"], "1/8~1/4"),
    ],
    ids=["path-quiver", "fan", "nest", "split-fountain"],
)
def test_stable_mutation_fetches_the_rows_of_its_stage_only(make, sequence, target):
    oracle = TestTower.Counting(make())
    _, i = stable_mutation(oracle, sequence, target)
    stage = next(islice(oracle_tower(make()), i, None))
    assert sorted(oracle.rows) == sorted(stage.labels)


class TestSequenceNames:
    """Steps are named once against the oracle, before any stage is built."""

    class Silent(PathQuiverOracle):
        def neighbor_row(self, v):
            raise AssertionError("a stage was built")

    def test_unknown_step(self):
        with pytest.raises(UnknownVertex):
            stable_mutation(self.Silent(), ["y"], "x0")

    def test_step_mutated_away(self):
        with pytest.raises(NotAdmissibleAtStage) as err:
            stable_mutation(self.Silent(), ["x0", "x1", "x0"], "x0")
        assert err.value.step == "x0"

    def test_made_labels_are_named_as_in_every_stage(self):
        seq = ["x0", "x1", "x0'1"]
        value, _ = stable_mutation(PathQuiverOracle(), seq, "x0")
        ball = materialize_ball(PathQuiverOracle(), "x0", 4)
        mutated = mutate_sequence(ball, seq)
        assert value == mutated.values[mutated.labels[ball.labels.index("x0")]]

    def test_fresh_label_on_a_vertex(self):
        seed = Seed.initial(
            ["x", "y", "x'1"],
            ["x", "y", "x'1"],
            [("x", "y", 1), ("y", "x", -1), ("y", "x'1", 1), ("x'1", "y", -1)],
        )
        with pytest.raises(ParseError) as err:
            stable_mutation(FiniteSeedOracle(seed), ["x", "x'1"], "y")
        assert str(err.value) == """mutating 'x' makes "x'1", also a vertex of the oracle's seed"""

    def test_a_made_label_is_no_arc_and_is_not_parsed(self, monkeypatch):
        # no arc label holds a prime, so a made label is answered before
        # the label reader, which would raise and catch a ParseError per call
        parsed = []
        read = clusterlab.colimits._chord_from_label
        monkeypatch.setattr(clusterlab.colimits, "_chord_from_label", lambda v: parsed.append(v) or read(v))
        oracle = fan_oracle()
        for made in ["0/1~1/4'1", "0/1~3/8'1'1", "x0'1", "'"]:
            assert not oracle.is_vertex(made)
        assert parsed == []
        assert oracle.is_vertex("0/1~1/4") and not oracle.is_vertex("0/1~1/5")
        assert not oracle.is_vertex("x0") and parsed == ["0/1~1/4", "0/1~1/5", "x0"]
        # each label is read once per oracle, and the labels of a row are not read back
        row = oracle.neighbor_row("0/1~1/4")
        assert all(oracle.is_vertex(v) for v in row) and parsed == ["0/1~1/4", "0/1~1/5", "x0"]

    @pytest.mark.parametrize(
        "label",
        ["0/2~1/4", "1/4~0/1", "0/1~2/8", " 0/1~1/4", "+0/1~1/4", "00/1~1/4", "0/1~1/٤",
         "0/1~1_0/11", "0/1~1/4~1/2", "0/1", "1/1~1/4", "0/1~" + "1" * 5000 + "/" + "3" * 5000],
    )
    def test_a_label_in_another_form_is_no_vertex_and_has_no_row(self, label):
        oracle = fan_oracle()
        assert not oracle.is_vertex(label)
        for ask in (oracle.neighbor_row, oracle.is_exchangeable):
            with pytest.raises(ParseError) as err:
                ask(label)
            assert str(err.value) == (
                f"bad arc label {label!r} (expected n/d~n/d, reduced, in [0, 1), increasing)"
            )


class TestMediating:
    def test_inclusion_cone(self):
        big = wrapper_seed()
        fil = build_filtration(FiniteSeedOracle(big), 4)
        cone = [ClusterMap(s, big, {l: l for l in s.labels}) for s in fil.stages]
        med, report = mediating_morphism(fil, cone)
        assert report.passed
        assert med.assignment == {l: l for l in fil.stages[-1].labels}

    def test_perturbed_cone_rejected(self):
        big = wrapper_seed()
        fil = build_filtration(FiniteSeedOracle(big), 4)
        cone = [ClusterMap(s, big, {l: l for l in s.labels}) for s in fil.stages]
        bad = dict(cone[2].assignment)
        bad["a"] = "d"
        cone[2] = ClusterMap(fil.stages[2], big, bad)
        with pytest.raises(IncompatibleCone) as err:
            mediating_morphism(fil, cone)
        assert err.value.label == "a"

    def test_similarity_precomposed_cone(self):
        big = wrapper_seed()
        fil = build_filtration(FiniteSeedOracle(big), 4)
        target = opposite_seed(big)
        cone = [ClusterMap(s, target, {l: l for l in s.labels}) for s in fil.stages]
        med, report = mediating_morphism(fil, cone)
        assert report.passed
        assert med.assignment == {l: l for l in big.labels}
        assert check_no_specialization_conditions(med).component_signs == (-1,)

    def test_uniqueness(self):
        big = wrapper_seed()
        fil = build_filtration(FiniteSeedOracle(big), 4)
        cone = [ClusterMap(s, big, {l: l for l in s.labels}) for s in fil.stages]
        med, _ = mediating_morphism(fil, cone)
        other = ClusterMap(fil.stages[-1], big, dict(med.assignment))
        assert other.assignment == med.assignment


    @staticmethod
    def inclusion_cone(fil, target):
        return [ClusterMap(s, target, {l: l for l in s.labels}) for s in fil.stages]

    def test_a_cone_needs_one_map_per_stage(self):
        fil = build_filtration(FiniteSeedOracle(wrapper_seed()), 4)
        with pytest.raises(IncompatibleCone) as err:
            mediating_morphism(fil, self.inclusion_cone(fil, wrapper_seed())[:3])
        assert str(err.value) == "cone maps disagree on label '<arity>' between stages (3, 4)"

    def test_each_cone_map_is_rooted_at_its_stage(self):
        fil = build_filtration(FiniteSeedOracle(wrapper_seed()), 4)
        cone = self.inclusion_cone(fil, wrapper_seed())
        cone[1] = cone[2]
        with pytest.raises(SeedMismatch) as err:
            mediating_morphism(fil, cone)
        assert str(err.value) == "cone map 1 is not rooted at stage 1"

    def test_cone_maps_share_one_target(self):
        fil = build_filtration(FiniteSeedOracle(wrapper_seed()), 4)
        cone = self.inclusion_cone(fil, wrapper_seed())
        cone[2] = self.inclusion_cone(fil, opposite_seed(wrapper_seed()))[2]
        with pytest.raises(SeedMismatch) as err:
            mediating_morphism(fil, cone)
        assert str(err.value) == "cone maps must share one target seed"

    def test_a_mediating_map_failing_cm2_is_rejected(self):
        # into the wrapper with every variable frozen: b and c lose exchangeability
        big = wrapper_seed()
        fil = build_filtration(FiniteSeedOracle(big), 4)
        cone = self.inclusion_cone(fil, Seed.initial(big.labels, [], big.matrix))
        with pytest.raises(IncompatibleCone) as err:
            mediating_morphism(fil, cone)
        assert str(err.value) == "cone maps disagree on label 'b' between stages ('cm2', None)"


class TestExhaustion:
    def test_wrapped_finite_seed_exhausts(self):
        big = wrapper_seed()
        fil = build_filtration(FiniteSeedOracle(big), 6)
        union = set()
        for s in fil.stages:
            union |= set(s.labels)
        assert union == set(big.labels)
        assert fil.stages[-1].same_seed(big)


class TestTriangulationFiltration:
    def test_fan_stage_sizes(self):
        fil = triangulation_filtration(fan_oracle().tri, 4)
        assert [len(s.labels) for s in fil.stages] == [1, 3, 5, 7]
        assert fil.provenance == "triangulation-glueing"

    def test_split_fountain_component_containment(self):
        tri = split_fountain_oracle().tri
        mid_base = Arc.of(F(1, 4), F(1, 2))
        fil = triangulation_filtration(tri, 4, base_arcs=[mid_base])
        middle = {
            Arc.of(F(1, 4), F(1, 2)).label,
            Arc.of(F(1, 2), F(3, 4)).label,
            Arc.of(F(1, 4), F(3, 4)).label,
        }
        for stage in fil.stages:
            assert set(stage.labels) <= middle
        assert set(fil.stages[-1].labels) == middle

    def test_finite_exhaustion(self):
        t = fan_triangulation(6)
        fil = triangulation_filtration(t, 8)
        assert fil.stages[-1].same_seed(seed_from_triangulation(t))

    def test_stages_verified(self):
        fil = triangulation_filtration(fan_oracle().tri, 4)
        for inc in fil.inclusions:
            assert check_no_specialization_conditions(inc).passed

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_a_base_that_is_no_arc_is_rejected_at_any_steps(self, steps):
        outside = Arc.of(F(1, 12), F(5, 12))
        for tri in (fan_triangulation(6), fan_oracle().tri):
            with pytest.raises(NotAnArc) as exc:
                triangulation_filtration(tri, steps, base_arcs=[outside])
            assert str(exc.value) == "{1/12, 5/12} is not an arc of the triangulation"


class TestOracleFixtures:
    def test_nest_is_connected(self):
        oracle = nest_oracle()
        fil = build_filtration(oracle, 4)
        assert len(oracle.representatives()) == 1
        assert [len(s.labels) for s in fil.stages][0] == 1

    def test_split_fountain_three_components(self):
        assert len(split_fountain_oracle().representatives()) == 3


# -- rows pinned across representations ----------------------------------------------

HALF_NEST_TRI = {
    "points": [],
    "arcs": [],
    "families": [
        {"kind": "half-nest", "limit": "1/8", "limit2": "5/8", "scale": "1/8", "scale2": "1/8"}
    ],
}


def _pinned_oracles(tmp_path):
    import json

    from clusterlab.cli import load_triangulation_file

    path = tmp_path / "half-nest.tri"
    path.write_text(json.dumps(HALF_NEST_TRI))
    return {
        "fan": fan_oracle(),
        "split-fountain": split_fountain_oracle(),
        "nest": nest_oracle(),
        "half-nest": TriangulationOracle(load_triangulation_file(str(path))),
    }


def test_radius_five_rows_are_pinned(tmp_path):
    """neighbor_row and is_exchangeable over every label of the radius-5
    balls of four triangulation oracles, digested; the digest was taken
    when the triangulations ran on Fractions, and must not move."""
    import hashlib
    import json

    digest = hashlib.sha256()
    for name, oracle in sorted(_pinned_oracles(tmp_path).items()):
        for rep in oracle.representatives():
            for v in materialize_ball(oracle, rep, 5).labels:
                row = sorted(oracle.neighbor_row(v).items())
                digest.update(json.dumps([name, rep, v, row, oracle.is_exchangeable(v)]).encode())
    assert digest.hexdigest() == "419a805a1db24cb9e1c2b8d6d3fe70fd0f691eac706c46e47ed8f5b6fd7ee088"



# -- stages on positions: the initial seed of their balls ---------------------------


def assert_stages_are_initial_seeds_of_their_balls(oracle, stages):
    """Stage i against Seed.initial of its balls' labels and exchangeables
    and the union of their matrices, each ball materialized afresh."""
    centers = oracle.representatives()
    for i, stage in enumerate(stages):
        balls = [materialize_ball(oracle, c, i - j) for j, c in enumerate(centers[: i + 1])]
        ref = Seed.initial(
            [v for ball in balls for v in ball.labels],
            [v for ball in balls for v in ball.exchangeable],
            {v: row for ball in balls for v, row in ball.matrix.items()},
        )
        assert label_form(stage) == label_form(ref), i
        assert (stage._rows, stage._ex) == (ref._rows, ref._ex), i


@pytest.mark.parametrize("name", list(TEST_ORACLES))
def test_stages_are_initial_seeds_of_their_balls(name):
    oracle = TEST_ORACLES[name]()
    assert_stages_are_initial_seeds_of_their_balls(oracle, list(islice(oracle_tower(oracle), 6)))


@settings(max_examples=30, deadline=None)
@given(rotated_templates())
def test_stages_are_initial_seeds_of_their_balls_on_generated_files(data):
    tri = tri_from_data(data)
    centers = [part[0].label for part in triangulation_components(tri, COMPONENT_WINDOW)]
    stages = triangulation_filtration(tri, 4).stages
    assert_stages_are_initial_seeds_of_their_balls(TriangulationOracle(tri, centers), stages)


@pytest.mark.parametrize("name", list(TEST_ORACLES))
def test_a_stage_runs_no_check_of_its_own(name, monkeypatch):
    # each ball's matrix is checked once; a stage joins checked balls, and
    # neither runs the constructor nor checks again
    oracle = TEST_ORACLES[name]()
    centers = oracle.representatives()
    checked, inits = [], []
    check, init = clusterlab.colimits._check_matrix, Seed.__init__
    monkeypatch.setattr(clusterlab.colimits, "_check_matrix", lambda *a: checked.append(a) or check(*a))
    monkeypatch.setattr(Seed, "__init__", lambda *a, **k: inits.append(a) or init(*a, **k))
    stages = list(islice(_interleave([_oracle_balls(oracle, c) for c in centers]), 6))
    assert len(checked) == sum(min(i + 1, len(centers)) for i in range(len(stages)))
    assert inits == []


def _fan_ball():
    oracle = fan_oracle()
    return materialize_ball(oracle, oracle.representatives()[0], 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: seed_from_triangulation(fan_triangulation(7)),
        _fan_ball,
        lambda: next(islice(oracle_tower(FiniteSeedOracle(finite_type_root("B4"))), 3, None)),
    ],
    ids=["triangulation", "ball", "stage"],
)
def test_initial_values_are_made_on_first_read(make):
    seed = make()
    twin = Seed.initial(seed.labels, seed.exchangeable, seed.matrix)
    assert "_vals" not in seed.__dict__ and seed.exchangeable
    assert seed.values == {v: LaurentPoly.var(v) for v in seed.labels}
    assert "_vals" in seed.__dict__
    for x in sorted(seed.exchangeable):
        assert label_form(mutate_seed(seed, x)) == label_form(mutate_seed(twin, x))
    # a seed whose values were never read makes them for its first mutation
    fresh = make()
    x = min(fresh.exchangeable)
    assert label_form(mutate_seed(fresh, x)) == label_form(mutate_seed(twin, x))


# -- the ball check: the constructor walks only a ball that is not skew-symmetric --------


@pytest.fixture
def ratio_walks(monkeypatch):
    """(labels, rows) of each call of seeds._symmetrizer, the ratio walk the
    Seed constructor makes on a matrix that is not skew-symmetric."""
    calls = []
    walk = clusterlab.seeds._symmetrizer
    counting = lambda labels, rows: calls.append((set(labels), rows)) or walk(labels, rows)
    monkeypatch.setattr(clusterlab.seeds, "_symmetrizer", counting)
    return calls


def skew_symmetric(rows) -> bool:
    return all(rows[j].get(i) == -b for i, r in enumerate(rows) for j, b in r.items())


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_skew_symmetric_oracle_balls_skip_the_ratio_walk(name, ratio_walks):
    oracle = ORACLES[name]()
    for rep in oracle.representatives():
        assert len(materialize_ball(oracle, rep, 6).labels) > 1
    assert ratio_walks == []


@pytest.mark.parametrize("kind", ["A5", "D5", "B4", "G2"])
def test_finite_stages_walk_only_what_is_not_skew_symmetric(kind, ratio_walks):
    fil = build_filtration(FiniteSeedOracle(finite_type_root(kind)), 6)
    assert len(fil.stages[-1].labels) == int(kind[1])
    assert all(not skew_symmetric(rows) for _, rows in ratio_walks)
    assert (ratio_walks == []) == (kind in ("A5", "D5"))


class RawRows:
    """An oracle on the given rows, which need not be skew-symmetrizable:
    a seed on them would not be built. Every vertex is exchangeable."""

    def __init__(self, labels, entries):
        self.rows = {v: {} for v in labels}
        for v, w, b in entries:
            self.rows[v][w] = b

    def neighbor_row(self, v):
        return dict(self.rows[v])

    def is_exchangeable(self, v):
        return True

    def is_vertex(self, v):
        return v in self.rows

    def representatives(self):
        return [min(self.rows)]


def first_rejected(oracle, center, radii):
    """(radius, text) of the first ball _oracle_balls rejects, or None."""
    balls = _oracle_balls(oracle, center)
    for r in range(radii):
        try:
            next(balls)
        except OracleInconsistent as exc:
            return r, str(exc)
    return None


def first_rejected_by_fresh_checks(oracle, center, radii):
    """The same, building a seed afresh on each ball grown by grow."""
    for r, (ball, _) in zip(range(radii), grow(center, lambda v: oracle.neighbor_row(v))):
        labels = sorted(ball)
        rows = {v: {w: b for w, b in oracle.neighbor_row(v).items() if w in ball} for v in labels}
        try:
            Seed.initial(labels, [], rows)
        except NotSkewSymmetrizable as exc:
            return r, f"ball at {center!r} is not skew-symmetrizable: {exc}"
    return None


@st.composite
def perturbed_matrices(draw):
    """A skew-symmetrizable matrix on at most seven labels, from a random
    symmetrizer and support, with up to two entries then negated, dropped
    or scaled: sign violations, and cycles whose ratios disagree."""
    n = draw(st.integers(1, 7))
    d = [draw(st.integers(1, 3)) for _ in range(n)]
    entries = {}
    for i, j in combinations(range(n), 2):
        if draw(st.booleans()):
            s = draw(st.sampled_from([1, -1, 2, -2]))
            entries[i, j], entries[j, i] = s * d[j], -s * d[i]
    for _ in range(draw(st.integers(0, 2))):
        if entries:
            key = draw(st.sampled_from(sorted(entries)))
            how = draw(st.sampled_from(["negate", "drop", "scale"]))
            if how == "negate":
                entries[key] = -entries[key]
            elif how == "drop":
                del entries[key]
            else:
                entries[key] *= draw(st.integers(2, 3))
    labels = [f"v{i}" for i in range(n)]
    return labels, [(labels[i], labels[j], b) for (i, j), b in entries.items()]


@settings(max_examples=300, deadline=None)
@given(perturbed_matrices(), st.data())
def test_ball_check_matches_a_fresh_check_of_each_ball(matrix, data):
    labels, entries = matrix
    oracle = RawRows(labels, entries)
    center = data.draw(st.sampled_from(labels))
    radii = len(labels) + 2
    assert first_rejected(oracle, center, radii) == first_rejected_by_fresh_checks(oracle, center, radii)


@pytest.mark.parametrize(
    "cycle, radius",
    [
        # ratios d1/d0 = 1, d2/d1 = 1, d3/d2 = 1 but d0/d3 = 2: the
        # 4-cycle closes when v2 enters, at radius 2
        ([("v0", "v1", 1, -1), ("v1", "v2", 1, -1), ("v2", "v3", 1, -1), ("v3", "v0", 2, -1)], 2),
        # a 6-cycle through the center closes at radius 3
        ([(f"v{i}", f"v{(i + 1) % 6}", 1, -1) for i in range(5)] + [("v5", "v0", 1, -2)], 3),
        # a sign violation between the two vertices of the second shell
        ([("v0", "v1", 1, -1), ("v0", "v2", 1, -1), ("v1", "v3", 1, -1), ("v2", "v4", 1, -1), ("v3", "v4", 1, 1)], 2),
    ],
)
def test_late_inconsistencies_fail_at_their_radius(cycle, radius, ratio_walks):
    labels = sorted({v for v, w, _, _ in cycle} | {w for v, w, _, _ in cycle})
    entries = [e for v, w, b, c in cycle for e in ((v, w, b), (w, v, c))]
    oracle = RawRows(labels, entries)
    found = first_rejected(oracle, "v0", len(labels) + 2)
    assert found is not None and found[0] == radius
    # the balls up to the failing one were each checked once, and only those
    # that are not skew-symmetric were walked, the failing one last
    balls = [ball for ball, _ in islice(grow("v0", lambda v: oracle.neighbor_row(v)), radius + 1)]
    at = lambda ball: {v: i for i, v in enumerate(sorted(ball))}
    positional = lambda ball: [{at(ball)[w]: b for w, b in oracle.rows[v].items() if w in ball} for v in sorted(ball)]
    walked = [ball for ball in balls if not skew_symmetric(positional(ball))]
    assert [labels for labels, _ in ratio_walks] == walked and walked[-1] == balls[-1]
    assert found == first_rejected_by_fresh_checks(oracle, "v0", len(labels) + 2)


def test_a_zero_entry_gives_the_ball_without_it():
    # v2's row names v0 with a zero entry; v0 is the center, so the balls
    # hold the same labels, and the zero is not stored
    labels = ["v0", "v1", "v2"]
    entries = [("v0", "v1", 1), ("v1", "v0", -1), ("v1", "v2", 2), ("v2", "v1", -2)]
    with_zero = RawRows(labels, entries + [("v2", "v0", 0)])
    assert with_zero.neighbor_row("v2") == {"v1": -2, "v0": 0}
    for a, b in zip(islice(_oracle_balls(with_zero, "v0"), 4), islice(_oracle_balls(RawRows(labels, entries), "v0"), 4)):
        assert label_form(a) == label_form(b)
        assert a._rows == b._rows


# -- re-rooting on positions: the initial seed of the same content -------------------


def assert_reroot_is_initial(seed):
    """seed.reroot() against Seed.initial of its labels, exchangeables and
    matrix: the same label form and canonical key, its values made only
    when read."""
    rerooted = seed.reroot()
    ref = Seed.initial(seed.labels, seed.exchangeable, seed.matrix)
    assert "_vals" not in rerooted.__dict__
    assert label_form(rerooted) == label_form(ref)
    assert rerooted.canonical_key() == ref.canonical_key()
    assert (rerooted._rows, rerooted._ex) == (ref._rows, ref._ex)


def seed_from_data(data):
    """The seed a `.seed` file holding this JSON reads as."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "generated.seed")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return load_seed_file(path)


@st.composite
def shuffled_seed_files(draw):
    """A skew-symmetrizable seed's file with its variables and matrix
    entries listed in a drawn order, so its rows come out of label order."""
    data = seed_to_data(draw(skew_symmetrizable_seeds()))
    del data["values"]
    data["variables"] = draw(st.permutations(data["variables"]))
    data["matrix"] = draw(st.permutations(data["matrix"]))
    return data


@settings(max_examples=60, deadline=None)
@given(shuffled_seed_files(), st.data())
def test_reroot_is_the_initial_seed_of_loaded_and_mutated_seeds(data, draw):
    seed = seed_from_data(data)
    assert_reroot_is_initial(seed)
    for _ in range(draw.draw(st.integers(1, 3))):
        if not seed.exchangeable:
            break
        seed = mutate_seed(seed, draw.draw(st.sampled_from(sorted(seed.exchangeable))))
        assert_reroot_is_initial(seed)


def test_reroot_is_the_initial_seed_of_triangulation_seeds():
    for t in all_triangulations(8):
        assert_reroot_is_initial(seed_from_triangulation(t))


@pytest.mark.parametrize("name", list(TEST_ORACLES))
def test_reroot_is_the_initial_seed_of_tower_stages(name):
    for stage in islice(oracle_tower(TEST_ORACLES[name]()), 6):
        assert_reroot_is_initial(stage)


@settings(max_examples=20, deadline=None)
@given(rotated_templates())
def test_reroot_is_the_initial_seed_of_tower_stages_of_generated_files(data):
    for stage in triangulation_filtration(tri_from_data(data), 4).stages:
        assert_reroot_is_initial(stage)


def test_inclusions_and_wraps_run_no_constructor_and_no_check(monkeypatch):
    # every seed re-rooted here passed its check when it was built
    towers = [list(islice(oracle_tower(make()), 5)) for make in TEST_ORACLES.values()]
    roots = [finite_type_root(kind) for kind in ["A5", "D5", "B4", "G2"]]
    calls = []
    init, check = Seed.__init__, clusterlab.seeds._check_matrix
    monkeypatch.setattr(Seed, "__init__", lambda *a, **k: calls.append("init") or init(*a, **k))
    for module in (clusterlab.seeds, clusterlab.colimits):
        monkeypatch.setattr(module, "_check_matrix", lambda *a: calls.append("check") or check(*a))
    for stages in towers:
        for inner, outer in zip(stages, stages[1:]):
            inclusion_morphism(inner, outer)
            ClusterMap(inner, outer, {v: v for v in inner.labels})
    for seed in roots:
        FiniteSeedOracle(seed).representatives()
    assert calls == []
    Seed.initial(["a"], [], {})  # the counters count
    assert calls == ["init", "check"]


def test_filtration_verb_checks_no_inclusion_and_builds_no_map(monkeypatch, tmp_path, capsys):
    # the tower's inclusions hold by construction: the verb neither checks
    # a pair nor builds a map, and the maps are built when they are read
    save_seed_file(finite_type_root("G2"), str(tmp_path / "g2.seed"))
    runs = [["--oracle", name] for name in ORACLES] + [["--oracle", f"wrap:{tmp_path / 'g2.seed'}"]]
    for name, data in [("split.tri", SPLIT_TRI), ("pent.tri", PENTAGON)]:
        (tmp_path / name).write_text(json.dumps(data))
        runs.append(["--tri", str(tmp_path / name)])
    calls, fils = [], []
    for name in ("check_only_coefficients", "inclusion_morphism"):
        f = getattr(clusterlab.colimits, name)
        monkeypatch.setattr(clusterlab.colimits, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    for name in ("build_filtration", "triangulation_filtration"):
        f = getattr(clusterlab.cli, name)
        monkeypatch.setattr(clusterlab.cli, name, lambda *a, f=f: fils.append(f(*a)) or fils[-1])
    post = ClusterMap.__post_init__
    monkeypatch.setattr(ClusterMap, "__post_init__", lambda self: calls.append("map") or post(self))
    for run in runs:
        assert clusterlab.cli.main(["filtration", *run, "--steps", "6"]) == 0
    capsys.readouterr()
    assert len(fils) == len(runs)
    assert calls == []
    for fil in fils:
        assert len(fil.inclusions) == 5
        for inc, inner, outer in zip(fil.inclusions, fil.stages, fil.stages[1:]):
            assert inc.source.same_seed(inner) and inc.target.same_seed(outer)
            assert inc.assignment == {v: v for v in inner.labels}
        assert fil.inclusions is fil.inclusions
    assert calls == ["map"] * 5 * len(runs)  # the counters count


def test_a_long_filtration_makes_no_values():
    fil = build_filtration(PathQuiverOracle(), 40)
    rerooted = [s for m in fil.inclusions for s in (m.source, m.target)]
    assert all("_vals" not in s.__dict__ for s in [*fil.stages, *rerooted])


@settings(max_examples=60, deadline=None)
@given(skew_symmetrizable_seeds())
def test_wrap_representatives_are_the_least_labels_of_the_components(seed):
    # the list connected_components gave, read from the classes alone
    expected = [min(c.labels) for c in connected_components(seed)]
    assert FiniteSeedOracle(seed).representatives() == expected


# -- the window sweep: edges cross no family or exceptional arc ------------------------


EDGE_WINDOWS = (1, 2, 3, 5, 10, 20, 40)


def assert_no_edge_crosses_the_sweep(tri, windows=EDGE_WINDOWS):
    """Each edge of a window's chords, against each family and exceptional
    chord of that window, crossed on Arcs (the Fraction route)."""
    for w in windows:
        swept = [_arc(c) for c in set(tri._extra).union(*(f._chords(w) for f in tri.families))]
        edges = [_arc(c) for c in tri._window_chords(w) if tri._is_edge(c)]
        assert edges, w
        for e in edges:
            for a in swept:
                assert not arcs_cross(e, a), (w, e, a)


@pytest.mark.parametrize("make", [fan_oracle, split_fountain_oracle, nest_oracle])
def test_no_edge_crosses_the_sweep_of_the_oracles(make):
    assert_no_edge_crosses_the_sweep(make().tri)


@settings(max_examples=20, deadline=None)
@given(rotated_templates())
def test_no_edge_crosses_the_sweep_of_generated_files(data):
    assert_no_edge_crosses_the_sweep(tri_from_data(data), (3, 40))


@settings(max_examples=20, deadline=None)
@given(polygon_files())
def test_no_edge_crosses_the_sweep_of_polygons(data):
    try:
        t = tri_from_data(data)
    except (CrossingPair, NotMaximal, InputError):
        assume(False)  # a polygon file with an arc dropped or one added
    # the polygon as an infinite triangulation with no family: its arcs exceptional
    assert_no_edge_crosses_the_sweep(InfiniteTriangulation((), t.arcs, t.points), (40,))


def test_building_a_triangulation_decides_no_edge(monkeypatch):
    calls = []
    is_edge = InfiniteTriangulation._is_edge
    monkeypatch.setattr(InfiniteTriangulation, "_is_edge", lambda *a: calls.append(a) or is_edge(*a))
    tris = [make().tri for make in (fan_oracle, split_fountain_oracle, nest_oracle)]
    tris += [tri_from_data(data) for data in TEMPLATES]
    assert calls == []
    tris[0].window_arcs(10)  # the counter counts
    assert calls


@settings(max_examples=60, deadline=None)
@given(rotated_templates(), st.lists(st.sampled_from(ANGLES), min_size=2, max_size=2, unique=True))
def test_a_crossing_pair_is_the_first_of_the_sweep_with_the_edges(data, ends):
    # the edges of the same point set, without the drawn arc, are put back
    try:
        same_points = tri_from_data({**data, "points": data.get("points", []) + ends})
    except ClusterLabError:
        assume(False)
    chords = same_points._window_chords(10) | {chord_of(Arc.of(*map(F, ends)))}
    expected = first_crossing(sorted(map(_arc, chords)))
    try:
        tri_from_data({**data, "arcs": data.get("arcs", []) + [ends]})
    except CrossingPair as exc:
        assert expected is not None and str(exc) == str(CrossingPair(*expected))
    except InvalidFamily:
        assert expected is None  # the arc crosses a limit arc, which the sweep comes before
    else:
        assert expected is None
