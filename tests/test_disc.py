"""Disc triangulations: crossing, validation, seeds, flips, arc families."""

import hashlib
import random
from fractions import Fraction as F
from functools import partial
from math import comb

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import clusterlab.seeds
from clusterlab.colimits import fan_oracle, nest_oracle
from clusterlab.disc import (
    Arc,
    ArcFamily,
    FiniteTriangulation,
    InfiniteTriangulation,
    _KINDS,
    _arc,
    _by_angle,
    _chord,
    _gap,
    _in_open,
    _lt,
    _non_crossing,
    _pt,
    _TipSequence,
    _exchangeable_pairs,
    _triangle_arrows,
    all_triangulations,
    arcs_cross,
    chord_label,
    chord_of,
    classify_arc,
    exchangeable_arcs,
    fan_triangulation,
    first_crossing,
    flip_arc,
    limit_arcs,
    norm_angle,
    seed_from_triangulation,
    triangles,
    triangulation_components,
    validate_triangulation,
)
from clusterlab.errors import (
    ClusterLabError,
    CrossingPair,
    InvalidFamily,
    NotAnArc,
    NotFlippable,
    NotMaximal,
    TooFewPoints,
    UnmarkedPoint,
)
from clusterlab.seeds import (
    Seed,
    check_skew_symmetrizable,
    connected_components,
    mutate_seed,
)


def square():
    pts = [F(0), F(1, 4), F(1, 2), F(3, 4)]
    arcs = {Arc.of(pts[i], pts[(i + 1) % 4]) for i in range(4)}
    arcs.add(Arc.of(F(0), F(1, 2)))
    return validate_triangulation(pts, arcs)


def split_fountain():
    return InfiniteTriangulation(
        families=(
            ArcFamily("left-fountain", limit=F(0), scale=F(1, 2), start=4, base=F(1, 4)),
            ArcFamily("right-fountain", limit=F(0), scale=F(1, 2), start=4, base=F(3, 4)),
        ),
        extra_arcs=frozenset({Arc.of(F(1, 4), F(3, 4))}),
        finite_points=(F(1, 2), F(1, 6), F(5, 6)),
    )


def half_nest():
    return InfiniteTriangulation(
        families=(
            ArcFamily(
                "half-nest",
                limit=F(1, 8),
                scale=F(1, 8),
                start=1,
                limit2=F(5, 8),
                scale2=F(1, 8),
            ),
        ),
    )


class TestCrossing:
    def test_interleaved(self):
        assert arcs_cross(Arc.of(F(0), F(1, 2)), Arc.of(F(1, 4), F(3, 4)))

    def test_nested(self):
        assert not arcs_cross(Arc.of(F(0), F(1, 4)), Arc.of(F(1, 2), F(3, 4)))

    def test_shared_endpoint(self):
        assert not arcs_cross(Arc.of(F(0), F(1, 2)), Arc.of(F(0), F(1, 4)))


class TestClassify:
    def test_square_edge(self):
        assert classify_arc(square(), Arc.of(F(0), F(1, 4))) == "edge"

    def test_square_diagonal(self):
        assert classify_arc(square(), Arc.of(F(0), F(1, 2))) == "internal"

    def test_two_points(self):
        t = validate_triangulation([F(0), F(1, 2)], [Arc.of(F(0), F(1, 2))])
        assert classify_arc(t, Arc.of(F(0), F(1, 2))) == "edge"


class TestValidation:
    def test_pentagon_fan_valid(self):
        t = fan_triangulation(5)
        assert len(t.arcs) == 7

    def test_edges_only_not_maximal(self):
        pts = [F(k, 5) for k in range(5)]
        arcs = {Arc.of(pts[i], pts[(i + 1) % 5]) for i in range(5)}
        with pytest.raises(NotMaximal) as err:
            validate_triangulation(pts, arcs)
        assert classify_arc(fan_triangulation(5), err.value.witness) == "internal"

    def test_crossing_pair(self):
        pts = [F(k, 5) for k in range(5)]
        arcs = {Arc.of(pts[i], pts[(i + 1) % 5]) for i in range(5)}
        arcs |= {Arc.of(F(0), F(2, 5)), Arc.of(F(1, 5), F(3, 5))}
        with pytest.raises(CrossingPair):
            validate_triangulation(pts, arcs)


class TestExchangeableArcs:
    def test_square_diagonal_only(self):
        assert exchangeable_arcs(square()) == {Arc.of(F(0), F(1, 2))}

    def test_pentagon_fan_both_diagonals(self):
        t = fan_triangulation(5)
        # independent oracle: direct quadrilateral condition
        expected = set()
        for a in t.arcs:
            sides = 0
            for y in t.points:
                if y in (a.p, a.q):
                    continue
                if Arc.of(a.p, y) in t.arcs and Arc.of(y, a.q) in t.arcs:
                    sides += 1 if reference_in_open(a.p, a.q, y) else 0
            other = 0
            for y in t.points:
                if y in (a.p, a.q):
                    continue
                if Arc.of(a.p, y) in t.arcs and Arc.of(y, a.q) in t.arcs:
                    other += 1 if reference_in_open(a.q, a.p, y) else 0
            if sides and other:
                expected.add(a)
        assert exchangeable_arcs(t) == expected
        assert expected == {Arc.of(F(0), F(2, 5)), Arc.of(F(0), F(3, 5))}

    def test_triangle_has_none(self):
        t = fan_triangulation(3)
        assert exchangeable_arcs(t) == set()


class TestSeedFromTriangulation:
    def test_triangle_three_cycle(self):
        s = seed_from_triangulation(fan_triangulation(3))
        assert len(s.labels) == 3
        assert not s.exchangeable
        outgoing = sorted(sum(1 for b in s.row(l).values() if b > 0) for l in s.labels)
        incoming = sorted(sum(1 for b in s.row(l).values() if b < 0) for l in s.labels)
        assert outgoing == [1, 1, 1] and incoming == [1, 1, 1]

    def test_square_diagonal_degrees(self):
        s = seed_from_triangulation(square())
        d = Arc.of(F(0), F(1, 2)).label
        assert set(s.exchangeable) == {d}
        row = s.row(d)
        assert sorted(row.values()) == [-1, -1, 1, 1]

    def test_hexagon_zigzag_is_a3_path(self):
        pts = [F(k, 6) for k in range(6)]
        arcs = {Arc.of(pts[i], pts[(i + 1) % 6]) for i in range(6)}
        diagonals = [Arc.of(pts[0], pts[2]), Arc.of(pts[2], pts[5]), Arc.of(pts[2], pts[4])]
        arcs |= set(diagonals)
        t = validate_triangulation(pts, arcs)
        s = seed_from_triangulation(t)
        labels = [a.label for a in diagonals]
        sub = {
            v: {w: b for w, b in s.row(v).items() if w in labels}
            for v in labels
        }
        degrees = sorted(len(r) for r in sub.values())
        assert degrees == [1, 1, 2]
        assert set(s.exchangeable) == set(labels)

    def test_skew_symmetric_with_identity_symmetrizer(self):
        for n in (4, 5, 6):
            s = seed_from_triangulation(fan_triangulation(n))
            assert set(check_skew_symmetrizable(s).values()) == {1}

    def test_local_finiteness(self):
        for n in (5, 7, 9):
            s = seed_from_triangulation(fan_triangulation(n))
            assert all(len(s.row(l)) <= 4 for l in s.labels)

    def test_edges_never_exchangeable(self):
        for n in (4, 6):
            t = fan_triangulation(n)
            for a in exchangeable_arcs(t):
                assert classify_arc(t, a) == "internal"


class TestFlip:
    def test_square_flip(self):
        t2 = flip_arc(square(), Arc.of(F(0), F(1, 2)))
        assert Arc.of(F(1, 4), F(3, 4)) in t2.arcs
        assert Arc.of(F(0), F(1, 2)) not in t2.arcs

    def test_flip_involutive(self):
        t = square()
        t2 = flip_arc(flip_arc(t, Arc.of(F(0), F(1, 2))), Arc.of(F(1, 4), F(3, 4)))
        assert t2 == t

    def test_triangle_not_flippable(self):
        t = fan_triangulation(3)
        with pytest.raises(NotFlippable):
            flip_arc(t, next(iter(t.arcs)))

    def test_flip_mutation_compatibility_small(self):
        for n in (4, 5, 6):
            for t in all_triangulations(n):
                s = seed_from_triangulation(t)
                for a in sorted(exchangeable_arcs(t)):
                    u = flip_arc(t, a)
                    su = seed_from_triangulation(u)
                    sm = mutate_seed(s, a.label)
                    new = next(l for l in sm.labels if l not in s.labels)
                    fl = next(iter(u.arcs - t.arcs)).label
                    relabeled = {
                        (fl if v == new else v): {
                            (fl if w == new else w): b for w, b in row.items()
                        }
                        for v, row in sm.matrix.items()
                    }
                    assert relabeled == su.matrix
                    assert {fl if v == new else v for v in sm.exchangeable} == set(
                        su.exchangeable
                    )


class TestFaceModel:
    """The per-arc face index of a finite triangulation and what is built
    on it: flips, count-based maximality and the flip closure."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_not_maximal_witness(self, n):
        # dropping an edge leaves it as the only arc crossing nothing;
        # dropping a diagonal leaves it and the opposite diagonal of its
        # quadrilateral, and the first of the two in (p, q) order is named
        for t in all_triangulations(n):
            for a in sorted(t.arcs):
                if classify_arc(t, a) == "edge":
                    expected = a
                else:
                    (opposite,) = flip_arc(t, a).arcs - t.arcs
                    expected = min(a, opposite)
                with pytest.raises(NotMaximal) as exc:
                    validate_triangulation(t.points, t.arcs - {a})
                assert exc.value.witness == expected
                assert str(exc.value) == (
                    f"not maximal: arc {expected} crosses nothing in the set"
                )

    def test_flip_of_non_arc_not_flippable(self):
        t = square()
        for a in (Arc.of(F(1, 4), F(3, 4)), Arc.of(F(0), F(1, 8))):
            with pytest.raises(NotFlippable):
                flip_arc(t, a)

    def test_triangles_of_non_arc_raises(self):
        with pytest.raises(ValueError):
            square().triangles_of(Arc.of(F(1, 4), F(3, 4)))

    def test_triangles_of_flanks_each_arc(self):
        for n in (3, 4, 5, 6):
            for t in all_triangulations(n):
                for a in t.arcs:
                    faces = t.triangles_of(a)
                    assert len(faces) == (1 if classify_arc(t, a) == "edge" else 2)
                    for tri in faces:
                        assert list(tri) == sorted(tri)
                        assert {a.p, a.q} <= set(tri)
                        assert tri in triangles(t)

    def test_first_crossing_keeps_the_given_order(self):
        a = Arc.of(F(0), F(1, 2))
        b = Arc.of(F(1, 4), F(3, 4))
        c = Arc.of(F(3, 8), F(5, 8))
        assert first_crossing([a, c, b]) == (a, c)
        assert first_crossing([b, c, a]) == (b, a)
        assert first_crossing([c, b]) is None

    @pytest.mark.parametrize("n", range(3, 9))
    def test_flip_closure_is_catalan_and_sorted(self, n):
        found = all_triangulations(n)
        assert len(found) == comb(2 * (n - 2), n - 2) // (n - 1)
        keys = [sorted(t.arcs) for t in found]
        assert keys == sorted(keys)
        assert len({t.arcs for t in found}) == len(found)


class TestArcFamilies:
    def test_fountain_arcs_share_base(self):
        fam = ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0))
        arcs = list(map(_arc, fam._chords(6)))
        assert all(F(0) in a.endpoints() for a in arcs)
        tips = sorted(a.other(F(0)) for a in arcs)
        assert tips == sorted(F(1, 2) - F(1, 2) / k for k in range(2, 8))

    def test_family_membership(self):
        fam = ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0))
        tri = InfiniteTriangulation(families=(fam,))
        assert tri.chord_in(chord_of(Arc.of(F(0), F(1, 4))))
        assert tri.chord_in(chord_of(Arc.of(F(0), F(1, 2) - F(1, 2) / 97)))
        assert not tri.chord_in(chord_of(Arc.of(F(0), F(1, 3) + F(1, 97))))

    def test_nest_zigzag_non_crossing(self):
        fam = ArcFamily("nest", limit=F(1, 2), scale=F(1, 4), start=1)
        arcs = list(map(_arc, fam._chords(10)))
        for i, a in enumerate(arcs):
            for b in arcs[i + 1 :]:
                assert not arcs_cross(a, b)

    def test_bad_kind(self):
        with pytest.raises(InvalidFamily):
            ArcFamily("spiral", limit=F(0), scale=F(1, 2))

    def test_fountain_needs_base(self):
        with pytest.raises(InvalidFamily):
            ArcFamily("fountain", limit=F(0), scale=F(1, 4))

    @pytest.mark.parametrize("k", [2, 100])
    def test_fountain_base_on_its_own_tips(self, k):
        # tip k of the fan at limit 1/2 is 1/2 - 1/(2k); tip 100 lies
        # beyond any window the constructor materializes
        base = F(1, 2) - F(1, 2 * k)
        with pytest.raises(InvalidFamily, match=f"base {base.numerator}/{base.denominator} is one"):
            ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=base)


    @pytest.mark.parametrize(
        "raw, twin",
        [
            (
                dict(kind="right-fountain", limit=F(3, 2), scale=F(1, 2), start=2, base=F(-1)),
                dict(kind="right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0)),
            ),
            (
                dict(kind="half-nest", limit=F(3, 2), limit2=F(5, 4), scale=F(1, 8)),
                dict(kind="half-nest", limit=F(1, 2), limit2=F(1, 4), scale=F(1, 8)),
            ),
            (
                dict(kind="nest", limit=F(-3, 2), scale=F(1, 4)),
                dict(kind="nest", limit=F(1, 2), scale=F(1, 4)),
            ),
        ],
    )
    def test_angles_are_normalized_once(self, raw, twin):
        fam, fam_twin = ArcFamily(**raw), ArcFamily(**twin)
        assert fam == fam_twin
        tri = InfiniteTriangulation(families=(fam,))
        tri_twin = InfiniteTriangulation(families=(fam_twin,))
        arcs = tri.window_arcs(12)
        assert arcs == tri_twin.window_arcs(12)
        assert limit_arcs(tri) == limit_arcs(tri_twin)
        for a in arcs:
            assert tri.triangles_of(a) == tri_twin.triangles_of(a)
        pts = tri._window_points(12)
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                a = _chord(p, q)
                assert tri.chord_in(a) == tri_twin.chord_in(a)

    @pytest.mark.parametrize("kind", ["nest", "half-nest"])
    def test_zigzag_takes_no_base(self, kind):
        # a base would be a marked point that none of the family's arcs reach
        with pytest.raises(InvalidFamily, match=f"^{kind} takes no base point$"):
            ArcFamily(kind, limit=F(1, 4), limit2=F(3, 4), scale=F(1, 8), base=F(0))

    def test_nest_sequences_on_one_side_meet(self):
        # a negative scale2 puts b_k = a_k on the same side of the limit
        with pytest.raises(InvalidFamily, match="tip sequences meet"):
            ArcFamily("nest", limit=F(1, 2), scale=F(1, 4), scale2=F(-1, 4))

    def test_half_nest_meeting_late_is_found(self):
        # a_20 = b_20 = 1/60, beyond any fixed window of arcs
        with pytest.raises(InvalidFamily, match="tip sequences meet"):
            ArcFamily("half-nest", limit=F(0), limit2=F(1, 30), scale=F(1, 3))
        # a_101 = b_100: the second arc shape, found from its quadratic
        a_limit, scale = F(0), F(1, 4)
        b_limit = a_limit + scale / 101 + scale / 100
        with pytest.raises(InvalidFamily, match="tip sequences meet"):
            ArcFamily("half-nest", limit=a_limit, limit2=b_limit, scale=scale)

    def test_meeting_decided_for_every_k_matches_a_scan(self):
        # Half the families are half-nests built to meet at a seeded k up to
        # 200, in either arc shape; the others have limits in 120ths and
        # steps in 24ths, so they meet, if at all, at k <= 110 (the steps'
        # difference over the limits' gap). A scan to 250 decides each one,
        # and the family must agree.
        rng = random.Random(15)
        late = 0
        for i in range(300):
            kind = "half-nest" if i % 2 else rng.choice(["nest", "half-nest"])
            scale, scale2 = F(rng.randint(1, 11), 24), F(rng.randint(1, 11), 24)
            fields = dict(limit=F(rng.randint(0, 119), 120), scale=scale, start=rng.randint(1, 3))
            if i % 2:  # a_k = b_k or a_(k+1) = b_k at k
                k = rng.randint(fields["start"], 200)
                late += k > 32
                gap = scale2 / k + scale / (k + rng.randint(0, 1))
                fields.update(scale2=scale2, limit2=fields["limit"] + gap)
            else:
                fields["scale2"] = rng.choice([-1, 1]) * scale2
                if kind == "half-nest":
                    fields["limit2"] = F(rng.randint(0, 119), 120)
            if "limit2" in fields and fields["limit2"] % 1 == fields["limit"]:
                continue  # no limit arc, rejected before its tips are looked at
            a, b = (
                _TipSequence(fields.get(limit, fields["limit"]), sign * step, fields["start"])
                for (limit, sign), step in zip(_KINDS[kind][1], (scale, fields["scale2"]))
            )
            start = fields["start"]
            scan = any(
                ref_tip(a, k) == ref_tip(b, k) or ref_tip(a, k + 1) == ref_tip(b, k)
                for k in range(start, 250)
            )
            try:
                ArcFamily(kind, **fields)
            except InvalidFamily as exc:
                assert scan == ("tip sequences meet" in str(exc)), (kind, fields)
            else:
                assert not scan, (kind, fields)
        assert late > 100

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("left-fountain", dict(base=F(1, 2), scale2=F(1, 8)), "left-fountain takes no scale2"),
            ("right-fountain", dict(base=F(1, 2), scale2=F(0)), "right-fountain takes no scale2"),
            ("fountain", dict(base=F(1, 2), limit2=F(1, 8)), "fountain takes no second limit"),
            ("nest", dict(limit2=F(1, 8)), "nest takes no second limit"),
            ("right-fountain", dict(base=F(1, 2), limit2=F(1, 8)),
             "right-fountain takes no second limit"),
            ("fountain", dict(base=F(1, 2), scale2=F(-1, 8)), "scale2 must be positive"),
            ("fountain", dict(base=F(1, 2), scale2=F(0)), "scale2 must be positive"),
        ],
    )
    def test_fields_a_kind_ignores_are_rejected(self, kind, fields, message):
        with pytest.raises(InvalidFamily, match=f"^{message}$"):
            ArcFamily(kind, limit=F(0), scale=F(1, 4), **fields)


class TestLimitArcs:
    def test_right_fountain(self):
        tri = InfiniteTriangulation(
            families=(
                ArcFamily(
                    "right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0)
                ),
            )
        )
        assert limit_arcs(tri) == {Arc.of(F(0), F(1, 2))}

    def test_split_fountain(self):
        assert limit_arcs(split_fountain()) == {
            Arc.of(F(0), F(1, 4)),
            Arc.of(F(0), F(3, 4)),
        }

    def test_no_families(self):
        tri = InfiniteTriangulation(
            families=(),
            extra_arcs=frozenset({Arc.of(F(0), F(1, 2))}),
            finite_points=(F(0), F(1, 2)),
        )
        assert limit_arcs(tri) == set()

    def test_one_point_is_like_none(self):
        for pts in ((), (F(0),)):
            tri = InfiniteTriangulation(families=(), finite_points=pts)
            assert tri.window_arcs(3) == []
            assert limit_arcs(tri) == set()

    def test_nest_contributes_none(self):
        tri = InfiniteTriangulation(
            families=(ArcFamily("nest", limit=F(1, 2), scale=F(1, 4), start=1),)
        )
        assert limit_arcs(tri) == set()

    def test_an_extra_arc_crossing_a_limit_arc_is_refused(self):
        # {49/100, 3/5} crosses {0, t_k} for every k >= 7, so infinitely many
        # arcs of the fan; the 10-arc window sees none of them cross it
        fan = ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0))
        with pytest.raises(InvalidFamily) as exc:
            InfiniteTriangulation(families=(fan,), extra_arcs=frozenset({Arc.of(F(49, 100), F(3, 5))}))
        assert str(exc.value) == (
            "arc {49/100, 3/5} crosses the limit arc {0/1, 1/2}; inconsistent triangulation"
        )
        # the limit arc itself shares its endpoints, so it crosses nothing
        limit = Arc.of(F(0), F(1, 2))
        tri = InfiniteTriangulation(families=(fan,), extra_arcs=frozenset({limit}))
        assert limit_arcs(tri) == {limit}


class TestSplitFountainStructure:
    def test_middle_arc_internal_but_not_exchangeable(self):
        tri = split_fountain()
        mid = Arc.of(F(1, 4), F(3, 4))
        assert tri.chord_in(chord_of(mid))
        assert not tri._is_edge(chord_of(mid))
        assert not tri.chord_exchangeable(chord_of(mid))

    def test_fan_arcs_exchangeable(self):
        tri = split_fountain()
        assert tri.chord_exchangeable(chord_of(Arc.of(F(1, 4), F(1, 8))))
        assert tri.chord_exchangeable(chord_of(Arc.of(F(3, 4), F(7, 8))))

    def test_components(self):
        parts = triangulation_components(split_fountain(), window=6)
        assert len(parts) == 3
        mid_part = next(p for p in parts if Arc.of(F(1, 4), F(3, 4)) in p)
        assert set(mid_part) == {
            Arc.of(F(1, 4), F(1, 2)),
            Arc.of(F(1, 2), F(3, 4)),
            Arc.of(F(1, 4), F(3, 4)),
        }

    def test_single_fountain_two_parts(self):
        # fountain at 0 converging to 1/2, which is not a marked point
        tri = InfiniteTriangulation(
            families=(
                ArcFamily(
                    "fountain", limit=F(1, 2), scale=F(1, 4), start=2, base=F(0)
                ),
            )
        )
        parts = triangulation_components(tri, window=6)
        assert len(parts) == 2

    def test_finite_agrees_with_seed_components(self):
        for n in range(4, 13):
            t = fan_triangulation(n)
            parts = triangulation_components(t)
            assert len(parts) == 1
            seed_parts = connected_components(seed_from_triangulation(t))
            assert len(seed_parts) == 1
            assert {a.label for a in parts[0]} == set(seed_parts[0].labels)


class TestInfiniteMachinery:
    def test_nearest_points(self):
        tri = split_fountain()
        assert tri.nearest(_pt(F(1, 4)), ccw=True) == _pt(F(1, 2))
        assert tri.nearest(_pt(F(1, 4)), ccw=False) == _pt(F(1, 6))
        # points accumulate at 0 from both sides: no neighbour across it
        assert tri.nearest(_pt(F(5, 6)), ccw=True) == _pt(F(7, 8))
        assert tri.nearest(_pt(F(1, 6)), ccw=False) == _pt(F(1, 8))

    def test_no_neighbour_at_accumulation(self):
        tri = InfiniteTriangulation(
            families=(
                ArcFamily(
                    "right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0)
                ),
            )
        )
        # going ccw from the last materialized tip there are always more tips
        assert tri.nearest(_pt(F(0)), ccw=False) is None

    def test_edges_certified_exactly(self):
        tri = split_fountain()
        assert tri._is_edge(chord_of(Arc.of(F(1, 6), F(1, 4))))
        assert tri._is_edge(chord_of(Arc.of(F(1, 4), F(1, 2))))
        assert not tri._is_edge(chord_of(Arc.of(F(1, 6), F(1, 2))))

    def test_window_arcs_pairwise_non_crossing(self):
        for tri in (split_fountain(),):
            arcs = tri.window_arcs(8)
            for i, a in enumerate(arcs):
                for b in arcs[i + 1 :]:
                    assert not arcs_cross(a, b)


# -- the interval search, kept as a reference for the neighbour rule ---------------


def _floor(q):
    return q.numerator // q.denominator


def has_tip_in(seq, lo, hi):
    """Any tip of the sequence in the open cyclic interval (lo, hi)? Tips
    live at limit + step/k; unwrap the interval and test three shifts of
    one turn, each by solving lo < limit + step/k < hi for k >= start."""
    if lo == hi:
        return False
    if hi < lo:
        hi += 1
    return any(_has_tip_linear(seq, lo + s, hi + s) for s in (-1, 0, 1))


def _has_tip_linear(seq, a, b):
    """Any k >= start with a < limit + step/k < b (no wrapping)?"""
    lo, hi = a - seq.limit, b - seq.limit
    if seq.step < 0:  # -u/k in (lo, hi) iff u/k in (-hi, -lo)
        lo, hi = -hi, -lo
    u = abs(seq.step)
    if hi <= 0:
        return False
    kmin = max(seq.start, _floor(u / hi) + 1)
    if lo <= 0:
        return True  # any k >= kmin works; k unbounded above
    kmax = -_floor(-(u / lo)) - 1
    return kmin <= kmax


def ref_tip(seq, k):
    """tip(k) of the sequence from its definition, on Fractions."""
    return (seq.limit + seq.step / k) % 1


def index_of_shifts(seq, p):
    """The k with tip(k) == p, if any, tried at three shifts of one turn."""
    for shift in (0, -1, 1):
        delta = p + shift - seq.limit
        if delta == 0:
            continue
        ratio = seq.step / delta
        if ratio.denominator == 1 and ratio >= seq.start and ref_tip(seq, int(ratio)) == p:
            return int(ratio)
    return None


def has_point_in(tri, lo, hi):
    """Any marked point of the infinite triangulation in the open cyclic
    interval (lo, hi)?"""
    return any(reference_in_open(lo, hi, p) for p in tri.finite_points) or any(
        has_tip_in(seq, lo, hi) for f in tri.families for seq in f.sequences()
    )


def marked(tri, p):
    return p in tri.finite_points or any(
        index_of_shifts(seq, p) is not None for f in tri.families for seq in f.sequences()
    )


class TestTipSequenceBruteForce:
    """Cross-check the exact interval and nearest-point solvers against
    direct enumeration over a large index range."""

    def brute_tips(self, seq, kmax=400):
        return [ref_tip(seq, k) for k in range(seq.start, kmax)]

    def test_has_tip_in_matches_enumeration(self):
        import random
        from clusterlab.disc import _TipSequence

        rng = random.Random(101)
        seqs = [
            _TipSequence(F(0), F(1, 2), 4),
            _TipSequence(F(0), F(-1, 2), 4),
            _TipSequence(F(1, 2), F(1, 4), 2),
            _TipSequence(F(1, 2), F(-1, 4), 2),
            _TipSequence(F(7, 8), F(1, 3), 3),
        ]
        for seq in seqs:
            tips = set(self.brute_tips(seq))
            for _ in range(300):
                lo = F(rng.randint(0, 40), 40)
                hi = F(rng.randint(0, 40), 40)
                if lo == hi:
                    continue
                lo, hi = lo % 1, hi % 1
                expected = any(reference_in_open(lo, hi, t) for t in tips)
                got = has_tip_in(seq, lo, hi)
                # enumeration is truncated: a positive answer beyond the
                # brute window can only happen very close to the limit
                if got != expected:
                    assert got and not expected
                    assert reference_in_open(lo, hi, seq.limit) or seq.limit in (lo, hi)

    def test_nearest_matches_enumeration(self):
        import random
        from clusterlab.disc import _TipSequence

        rng = random.Random(202)
        seqs = [
            _TipSequence(F(0), F(1, 2), 4),
            _TipSequence(F(0), F(-1, 2), 4),
            _TipSequence(F(1, 2), F(1, 4), 2),
            _TipSequence(F(1, 2), F(-1, 4), 2),
        ]
        for seq in seqs:
            tips = self.brute_tips(seq, kmax=2000)
            # the probes take at most 60 distinct values: enumerate each once
            brute: dict = {}
            for _ in range(200):
                p = F(rng.randint(0, 60), 60) % 1
                kind, val = seq._nearest(_pt(p), True)
                if p not in brute:
                    brute[p] = min(pair for pair in (((t - p) % 1, t) for t in tips) if pair[0])
                dist, tip = brute[p]
                if kind == "point":
                    assert val == _pt(tip)
                else:
                    # accumulation: brute distances approach val from above
                    assert dist > F(*val)
                    assert dist - F(*val) < F(1, 100)

    def test_index_of_roundtrip(self):
        from clusterlab.disc import _TipSequence

        # limit + 9/1000 is a tip only if step / (9/1000) is an integer k
        # >= start; it is not for any of these, nor with a shift of one turn
        for seq, off_tip in (
            (_TipSequence(F(0), F(1, 2), 4), None),
            (_TipSequence(F(1, 2), F(-1, 4), 2), None),
            (_TipSequence(F(7, 8), F(1, 3), 3), None),
            (_TipSequence(F(0), F(9, 250), 1), 4),
            (_TipSequence(F(1, 2), F(9, 1000), 2), None),
        ):
            for k in range(seq.start, seq.start + 50):
                assert F(*seq._tip(k)) == ref_tip(seq, k)
                assert seq._index(seq._tip(k)) == k
            assert seq._index(_pt(F(9, 1000) + seq.limit)) == off_tip


class TestHalfNest:
    def test_limit_arc(self):
        assert limit_arcs(half_nest()) == {Arc.of(F(1, 8), F(5, 8))}

    def test_one_sided_single_part(self):
        # all arcs lie on one side of the limit arc
        assert len(triangulation_components(half_nest(), window=6)) == 1

    def test_innermost_arc_is_an_edge(self):
        hn = half_nest()
        inner = Arc.of(F(1, 4), F(1, 2))
        assert hn._is_edge(chord_of(inner))
        assert len(hn.triangles_of(inner)) == 1

    def test_zigzag_arcs_exchangeable(self):
        hn = half_nest()
        zig = Arc.of(F(1, 8) + F(1, 16), F(1, 2))
        assert hn.chord_in(chord_of(zig))
        assert hn.chord_exchangeable(chord_of(zig))


class TestNestStructure:
    def test_outer_arc_is_coefficient(self):
        from clusterlab.colimits import nest_oracle

        oracle = nest_oracle()
        outer = Arc.of(F(1, 4), F(3, 4))
        assert not oracle.is_exchangeable(outer.label)
        assert len(oracle.neighbor_row(outer.label)) == 2

    def test_zigzag_locally_finite(self):
        from clusterlab.colimits import nest_oracle

        oracle = nest_oracle()
        zig = Arc.of(F(1, 2) - F(1, 8), F(3, 4))
        row = oracle.neighbor_row(zig.label)
        assert len(row) == 4
        assert oracle.is_exchangeable(zig.label)


class TestFlipMutationLargerPolygons:
    def test_sampled_up_to_twelve_points(self):
        # the exhaustive sweep covers n <= 9; sample the larger sizes
        import random

        rng = random.Random(55)
        for n in (10, 11, 12):
            t = fan_triangulation(n)
            for _ in range(8):
                arc = rng.choice(sorted(exchangeable_arcs(t)))
                t = flip_arc(t, arc)
            s = seed_from_triangulation(t)
            for a in sorted(exchangeable_arcs(t))[:4]:
                u = flip_arc(t, a)
                su = seed_from_triangulation(u)
                sm = mutate_seed(s, a.label)
                new = next(l for l in sm.labels if l not in s.labels)
                fl = next(iter(u.arcs - t.arcs)).label
                relabeled = {
                    (fl if v == new else v): {
                        (fl if w == new else w): b for w, b in row.items()
                    }
                    for v, row in sm.matrix.items()
                }
                assert relabeled == su.matrix


class TestFlipGraphBijection:
    """The mutation class of a polygon seed matches the flip class: the
    number of reachable seeds is the Catalan number counting the polygon's
    triangulations, and the cluster-variable census counts one variable
    per diagonal plus one coefficient per edge."""

    def test_pentagon(self):
        from clusterlab.seeds import enumerate_cluster_variables, enumerate_seeds

        seed = seed_from_triangulation(fan_triangulation(5))
        assert len(enumerate_seeds(seed, 10)) == 5
        assert len(enumerate_cluster_variables(seed, 10)) == 10

    def test_hexagon(self):
        from clusterlab.seeds import enumerate_cluster_variables, enumerate_seeds

        seed = seed_from_triangulation(fan_triangulation(6))
        assert len(enumerate_seeds(seed, 10)) == 14
        assert len(enumerate_cluster_variables(seed, 10)) == 15


class TestMarkedLimitFountain:
    def test_limit_arc_in_point_set_is_singleton_component(self):
        # when the accumulation point is itself marked, the limit arc is an
        # arc of the triangulation and forms its own component
        tri = InfiniteTriangulation(
            families=(
                ArcFamily(
                    "fountain", limit=F(1, 2), scale=F(1, 8), start=2, base=F(0)
                ),
            ),
            finite_points=(F(1, 2),),
            extra_arcs=frozenset({Arc.of(F(0), F(1, 2))}),
        )
        parts = triangulation_components(tri, window=8)
        assert [Arc.of(F(0), F(1, 2))] in parts
        assert len(parts) == 3


# -- the crossing pass --------------------------------------------------------------


def reference_first_crossing(arcs):
    """Nested loops over the list, with crossing written out as interval
    interleaving of p < q endpoints."""
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            a, b = arcs[i], arcs[j]
            if {a.p, a.q} & {b.p, b.q}:
                continue
            if (a.p < b.p < a.q) != (a.p < b.q < a.q):
                return a, b
    return None


# few points, 0 among them, so that shared endpoints, duplicate arcs and
# arcs through angle 0 are common
ANGLES = sorted({F(k, d) for d in (6, 8) for k in range(d)})
random_arcs = st.tuples(st.sampled_from(ANGLES), st.sampled_from(ANGLES)).filter(
    lambda pq: pq[0] != pq[1]
).map(lambda pq: Arc.of(*pq))
HEPTAGON_TRIANGULATIONS = all_triangulations(7)


@st.composite
def arc_lists(draw):
    """0-12 arcs: drawn freely, or drawn from one triangulation (so that
    non-crossing lists are common) with at most one free arc added."""
    if draw(st.booleans()):
        return draw(st.lists(random_arcs, max_size=12))
    t = draw(st.sampled_from(HEPTAGON_TRIANGULATIONS))
    arcs = draw(st.lists(st.sampled_from(sorted(t.arcs)), max_size=11))
    extra = draw(st.lists(random_arcs, max_size=1))
    at = draw(st.integers(0, len(arcs)))
    return arcs[:at] + extra + arcs[at:]


class TestCrossingPass:
    @settings(max_examples=300, deadline=None)
    @given(arc_lists())
    def test_first_crossing_matches_nested_loops(self, arcs):
        expected = reference_first_crossing(arcs)
        assert first_crossing(arcs) == expected
        # the sorted pass alone, over endpoint pairs, decides that nothing crosses
        assert _non_crossing([a.endpoints() for a in arcs]) == (expected is None)

    def test_crossing_pair_text(self):
        err = CrossingPair(Arc.of(F(0), F(1, 2)), Arc.of(F(1, 4), F(3, 4)))
        assert str(err) == "arcs {0/1, 1/2} and {1/4, 3/4} cross"

    def test_validate_names_the_first_pair_in_arc_order(self):
        pts = [F(k, 5) for k in range(5)]
        arcs = {Arc.of(pts[i], pts[(i + 1) % 5]) for i in range(5)}
        arcs |= {Arc.of(F(3, 5), F(0)), Arc.of(F(1, 5), F(3, 5)), Arc.of(F(0), F(2, 5))}
        with pytest.raises(CrossingPair) as exc:
            validate_triangulation(pts, arcs)
        assert str(exc.value) == "arcs {0/1, 2/5} and {1/5, 3/5} cross"

    def test_family_crossing_text(self):
        with pytest.raises(InvalidFamily) as exc:
            ArcFamily(
                "half-nest", limit=F(1, 4), scale=F(1, 8), start=1,
                limit2=F(1, 2), scale2=F(1, 4),
            )
        assert str(exc.value) == (
            "family generates crossing arcs {1/4, 3/8} and {7/24, 5/12}"
        )

    def test_infinite_window_crossing_text(self):
        fan = ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0))
        with pytest.raises(CrossingPair) as exc:
            InfiniteTriangulation(
                families=(fan,), extra_arcs=frozenset({Arc.of(F(1, 8), F(3, 4))})
            )
        assert str(exc.value) == "arcs {0/1, 1/4} and {1/8, 3/4} cross"


# -- answers memoized per infinite triangulation ---------------------------------------


LONG_LIVED = {
    "fan": lambda: fan_oracle().tri,
    "split-fountain": split_fountain,
    "nest": lambda: nest_oracle().tri,
    "half-nest": half_nest,
}

# arcs with an endpoint off every marked point set below
OFF_POINTS = [
    Arc.of(F(1, 97), F(2, 97)),
    Arc.of(F(1, 4), F(3, 4) + F(1, 97)),
]


def answer(tri, method, arc):
    """One query's answer, or the type and text of the error it raises."""
    try:
        return getattr(tri, method)(chord_of(arc) if method.startswith("chord_") else arc)
    except (ValueError, InvalidFamily) as exc:
        return type(exc), str(exc)


class TestInfiniteMemos:
    METHODS = ("triangles_of", "chord_in", "arc_neighbour_row", "chord_exchangeable")

    @pytest.mark.parametrize("name", sorted(LONG_LIVED))
    def test_long_lived_answers_match_fresh_instances(self, name):
        make = LONG_LIVED[name]
        tri = make()
        # the chords between four marked points: arcs, and non-arcs that
        # cross some arc
        points = tri._window_points(3)[:4]
        chords = [_arc(_chord(p, q)) for i, p in enumerate(points) for q in points[i + 1 :]]
        assert not all(make().chord_in(chord_of(c)) for c in chords)
        arcs = tri.window_arcs(12) + chords + OFF_POINTS
        queries = [(m, a) for m in self.METHODS for a in arcs]
        expected = {(m, a): answer(make(), m, a) for m, a in queries}
        # asked twice, so the second round reads what the first stored
        for _ in range(2):
            for m, a in queries:
                assert answer(tri, m, a) == expected[m, a], (m, a)

    def test_mutating_a_face_list_does_not_reach_the_memo(self):
        tri = fan_oracle().tri
        arc = Arc.of(F(0), F(1, 3))
        faces = tri.triangles_of(arc)
        assert len(faces) == 2
        faces.clear()
        faces.append((F(0), F(1, 8), F(1, 4)))
        assert tri.triangles_of(arc) == fan_oracle().tri.triangles_of(arc)

    def test_a_non_arc_leaves_no_face_entry(self):
        tri = nest_oracle().tri
        arc = Arc.of(F(1, 4), F(5, 8))
        texts = []
        for _ in range(2):
            with pytest.raises(NotAnArc) as exc:
                tri.triangles_of(arc)
            texts.append(str(exc.value))
        assert texts == ["{1/4, 5/8} is not an arc of the triangulation"] * 2
        # the face memo is keyed by chords, so an Arc would never be found there
        assert chord_of(arc) not in tri._faces
        assert chord_of(Arc.of(F(3, 8), F(5, 8))) not in tri._faces
        tri.triangles_of(Arc.of(F(3, 8), F(5, 8)))
        assert chord_of(Arc.of(F(3, 8), F(5, 8))) in tri._faces

    def test_non_arc_raises_on_every_call(self):
        tri = nest_oracle().tri
        for _ in range(3):
            for arc in OFF_POINTS + [Arc.of(F(1, 4), F(5, 8))]:
                with pytest.raises(ValueError, match="is not an arc of the triangulation"):
                    tri.triangles_of(arc)
                assert not tri.chord_in(chord_of(arc))

    def test_two_apexes_raise_on_every_call(self):
        # the exceptional arcs close the triangle {0, tip(30), 499/1000} over
        # fountain arcs beyond every window the constructor checks, without
        # crossing the limit arc, so {0, tip(30)} has two apexes on one side
        fan = ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0))
        tip30, p = F(1, 2) - F(1, 60), F(499, 1000)
        tri = InfiniteTriangulation(
            families=(fan,), extra_arcs=frozenset({Arc.of(tip30, p), Arc.of(F(0), p)})
        )
        for _ in range(3):
            with pytest.raises(InvalidFamily, match="has two apexes"):
                tri.triangles_of(Arc.of(F(0), tip30))

    def test_sequences_built_once(self):
        for make in LONG_LIVED.values():
            for fam in make().families:
                assert fam.sequences() is fam.sequences()

    def test_equality_ignores_filled_memos(self):
        for make in LONG_LIVED.values():
            used, unused = make(), make()
            for arc in used.window_arcs(6):
                used.arc_neighbour_row(arc)
            assert used == unused and hash(used) == hash(unused)
            assert used.families == unused.families
            assert [hash(f) for f in used.families] == [hash(f) for f in unused.families]


# -- flips derived on ranks ---------------------------------------------------------


def opposite_diagonal(t, a):
    """The other diagonal of the quadrilateral around a, read from the arc
    set: the two points joined to both endpoints of a."""
    apexes = [
        c
        for c in t.points
        if c not in a.endpoints() and Arc.of(a.p, c) in t.arcs and Arc.of(a.q, c) in t.arcs
    ]
    assert len(apexes) == 2
    return Arc.of(*apexes)


class TestFlipEquivalence:
    """A flip derived from its parent equals the triangulation validated
    from scratch on the same arcs, in every answer it gives."""

    @staticmethod
    def assert_flips_match(triangulations):
        for t in triangulations:
            for a in sorted(exchangeable_arcs(t)):
                u = flip_arc(t, a)
                v = validate_triangulation(t.points, (t.arcs - {a}) | {opposite_diagonal(t, a)})
                assert (u.points, u.arcs) == (v.points, v.arcs)
                assert u == v and hash(u) == hash(v)
                assert triangles(u) == triangles(v)
                for b in sorted(v.arcs):
                    assert u.triangles_of(b) == v.triangles_of(b)
                assert exchangeable_arcs(u) == exchangeable_arcs(v)
                su, sv = seed_from_triangulation(u), seed_from_triangulation(v)
                assert (su.labels, su.exchangeable, su.matrix, su.values) == (
                    sv.labels, sv.exchangeable, sv.matrix, sv.values,
                )

    @pytest.mark.parametrize("n", range(4, 9))
    def test_flip_equals_validation_from_scratch(self, n):
        self.assert_flips_match(all_triangulations(n))

    @settings(max_examples=2, deadline=None)
    @given(st.lists(st.integers(0, 96), min_size=8, max_size=8, unique=True))
    def test_flip_equals_validation_on_drawn_points(self, ks):
        self.assert_flips_match(carried_octagon(ks))


def carried_octagon(ks):
    """The octagon's triangulations carried by rank onto the eight points k/97."""
    points = sorted(F(k, 97) for k in ks)
    octagon = all_triangulations(8)
    rank = {p: i for i, p in enumerate(octagon[0].points)}
    return [
        validate_triangulation(points, {Arc(points[rank[a.p]], points[rank[a.q]]) for a in t.arcs})
        for t in octagon
    ]


# -- the triangulation seed on positions against the label-keyed construction -------


def reference_seed_from_triangulation(t):
    """seed_from_triangulation as it was built by labels: a label-keyed
    entries dict, handed to Seed.initial, whose constructor re-keys and
    checks it."""
    label = {pair: t._pairs[pair].label for pair in sorted(t._pairs)}
    entries = {}
    for i, j, k in t._rank_triangles:
        for src, dst in _triangle_arrows((label[i, j], label[j, k], label[i, k])):
            entries.setdefault(src, {})[dst] = 1
            entries.setdefault(dst, {})[src] = -1
    ex = [label[pair] for pair in _exchangeable_pairs(t)]
    return Seed.initial(list(label.values()), ex, entries)


def label_form(seed):
    return seed.labels, seed.exchangeable, seed.matrix, seed.values


class TestPositionalTriangulationSeed:
    """seed_from_triangulation writes its rows on positions and runs no
    check; it must give the seed the label-keyed construction gives."""

    @staticmethod
    def assert_seeds_match(triangulations):
        for t in triangulations:
            s, ref = seed_from_triangulation(t), reference_seed_from_triangulation(t)
            assert label_form(s) == label_form(ref)
            for x in sorted(ref.exchangeable):
                assert label_form(mutate_seed(s, x)) == label_form(mutate_seed(ref, x))

    def test_octagon_matches_the_label_keyed_seed(self):
        self.assert_seeds_match(all_triangulations(8))

    @settings(max_examples=2, deadline=None)
    @given(st.lists(st.integers(0, 96), min_size=8, max_size=8, unique=True))
    def test_drawn_points_match_the_label_keyed_seed(self, ks):
        self.assert_seeds_match(carried_octagon(ks))

    def test_no_constructor_and_no_ratio_walk(self, monkeypatch):
        octagon = all_triangulations(8)
        calls = []
        init, walk = Seed.__init__, clusterlab.seeds._symmetrizer
        monkeypatch.setattr(Seed, "__init__", lambda *a, **k: calls.append("init") or init(*a, **k))
        monkeypatch.setattr(clusterlab.seeds, "_symmetrizer", lambda *a: calls.append("walk") or walk(*a))
        for t in octagon:
            s = seed_from_triangulation(t)
            label_form(s)
            for x in sorted(s.exchangeable):
                label_form(mutate_seed(s, x))
        assert calls == []
        Seed.initial(["a"], [], {})  # the counters count
        assert calls == ["init"]


# -- flips against the Plücker relations --------------------------------------------


def delta(label):
    """Delta of the arc {p, q}, p < q, read from its label: q - p, the
    Plücker coordinate of two points on a line."""
    p, q = (F(x) for x in label.split("~"))
    return q - p


def at_deltas(value):
    """The Laurent polynomial evaluated with every variable x_tau = Delta(tau)."""
    total = F(0)
    for monomial, coeff in value.terms.items():
        term = F(coeff)
        for v, e in monomial:
            term *= delta(v) ** e
        total += term
    return total


class TestPluckerOracle:
    """Polygon flips against the Plücker relations of Gr(2, n) (Fomin and
    Zelevinsky, Cluster algebras II, 12): with x_tau = Delta(tau) for every
    arc, the value that mutation gives at the flipped position is Delta of
    the new diagonal, by the Ptolemy relation. Endpoints are read from the
    labels alone."""

    @pytest.mark.parametrize("n", range(4, 10))
    def test_mutated_value_is_delta_of_the_new_diagonal(self, n):
        import random

        rng = random.Random(1000 + n)
        t = fan_triangulation(n)  # then a seeded random walk of flips
        for _ in range(30):
            s = seed_from_triangulation(t)
            arcs = sorted(exchangeable_arcs(t))
            for a in arcs:
                k = s.labels.index(a.label)
                mutated = mutate_seed(s, a.label)
                (new,) = flip_arc(t, a).arcs - t.arcs
                assert at_deltas(mutated.values[mutated.labels[k]]) == delta(new.label)
            t = flip_arc(t, rng.choice(arcs))


# -- points located once, edges read from neighbours --------------------------------


def marked_limit_fountain():
    return InfiniteTriangulation(
        families=(ArcFamily("fountain", limit=F(1, 2), scale=F(1, 8), start=2, base=F(0)),),
        finite_points=(F(1, 2),),
        extra_arcs=frozenset({Arc.of(F(0), F(1, 2))}),
    )


def marked_limit_left_fountain():
    # going counterclockwise from 0, the marked limit 1/2 comes first, as
    # near as the tips accumulating beyond it
    return InfiniteTriangulation(
        families=(ArcFamily("left-fountain", limit=F(1, 2), scale=F(1, 8), start=2, base=F(0)),),
        finite_points=(F(1, 2),),
    )


# long-lived, so later examples read what earlier ones stored
PROBED = {
    name: make()
    for name, make in {
        **LONG_LIVED,
        "fountain": marked_limit_fountain,
        "left-fountain": marked_limit_left_fountain,
    }.items()
}


@st.composite
def probe_points(draw, tri):
    """A window point, a sequence limit, or any angle of a few
    denominators: marked points, unmarked points, and limits."""
    limits = sorted({seq.limit for f in tri.families for seq in f.sequences()})
    k = draw(st.integers(0, 200))
    d = draw(st.sampled_from([7, 12, 16, 48, 97]))
    return draw(st.sampled_from([*(F(*p) for p in tri._window_points(12)), *limits, F(k % d, d)]))


def accumulates_before_any_point(tri, p, ccw):
    """Marked points accumulate going one way from p, with none closest:
    some sequence's tips approach its limit from beyond, and the limit is
    p itself, or unmarked with no marked point before it."""
    for f in tri.families:
        for seq in f.sequences():
            if (seq.step > 0) != ccw:
                continue
            lim = seq.limit
            between = (p, lim) if ccw else (lim, p)
            if lim == p or (not marked(tri, lim) and not has_point_in(tri, *between)):
                return True
    return False


class TestNeighbourRule:
    """Locations, neighbours and the edge rule against the interval search
    and the three-shift index search."""

    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_matches_the_interval_search(self, data):
        tri = PROBED[data.draw(st.sampled_from(sorted(PROBED)))]
        p = data.draw(probe_points(tri))
        q = data.draw(probe_points(tri))
        for f in tri.families:
            for seq in f.sequences():
                assert seq._index(_pt(p)) == index_of_shifts(seq, p)
        finite, tips = tri._where[_pt(p)]
        assert (finite or any(tips)) == marked(tri, p)
        for ccw in (True, False):
            n = tri.nearest(_pt(p), ccw)
            assert (n is None) == accumulates_before_any_point(tri, p, ccw)
            if n is not None:
                n = F(*n)
                assert n != p and marked(tri, n)
                assert not has_point_in(tri, *((p, n) if ccw else (n, p)))
        if p != q:
            a = Arc.of(p, q)
            expected = not has_point_in(tri, a.p, a.q) or not has_point_in(tri, a.q, a.p)
            assert tri._is_edge(chord_of(a)) == expected

    def test_unmarked_endpoint_beside_an_accumulation(self):
        # no marked point lies in (3/4, 1/8) going round through 0, but the
        # half-nest's tips accumulate just past 1/8: there is no nearest
        # point, and the arc is an edge
        hn = half_nest()
        assert hn.nearest(_pt(F(3, 4)), ccw=True) is None
        assert hn._is_edge(chord_of(Arc.of(F(1, 8), F(3, 4))))
        assert not has_point_in(hn, F(3, 4), F(1, 8))

    def test_a_marked_limit_is_nearer_than_the_tips_beyond_it(self):
        tri = marked_limit_left_fountain()
        assert tri.nearest(_pt(F(0)), ccw=True) == _pt(F(1, 2))
        assert tri._is_edge(chord_of(Arc.of(F(0), F(1, 2))))


# -- components and windows pinned ---------------------------------------------------


# SHA-256 of every part of triangulation_components, in order, and of
# window_arcs, one arc label per line (a part's labels joined by spaces)
PINNED = {
    ("fan", 6): (
        "0f3008533b29f2bd790849743c4806090ad8285d565233c47914a8d6fcdf9fbe",
        "845640ce4d9dde1fa74a9007c8ea4b18f11096da9e4748323fca4b5318b59fec",
    ),
    ("fan", 12): (
        "d7d5dd0dd456fb6a505f5be7f8be18101bf273e1653d520aa40de0c3b490c47f",
        "69ad46604b38a95ebf9c810f71bc97c8b18318578f332f368585e22ab1a2d609",
    ),
    ("fountain", 6): (
        "76de298555d8a9cb4a11d688e21662819f8702ba15e344979c315c9c379b3070",
        "b78ed5c109f59f5f45dd8583120e830ed1d5e7e9106acf8e72559809cbce9839",
    ),
    ("fountain", 12): (
        "b228bdde18a24b06f8a7e5693deb1e8f762324f9c40bbcd4faef62163418e207",
        "e7e0cc7cb9dc3599e1509b872ad5127aeadd3179c69eafb5cb8e5c88d7f5efe3",
    ),
    ("half-nest", 6): (
        "7553ad111751ba4ebbf1bf10c01d8fc8a0905c78dbd233c4d365e0792cbdd990",
        "efe5049ffc1dc2583c6fa1561313a8b3630b862d270e18ccbe0ef8b634eb34c4",
    ),
    ("half-nest", 12): (
        "a2da7e07c66d89676778dd6f3dd871d7a641643fc40f9d1d651bd73cdd583fa2",
        "bd8f5027a1ccd2c056431eae1747a5a4d2f56416129b329e037e249af7934a5f",
    ),
    ("left-fountain", 6): (
        "08cb2182484825d2a7c3d403c75c6caae72f1171e4c7f88186c7e85fe0482cbb",
        "642c37805b6389e30ab94606a81530d6a4674a71003992b3f20006e907223d46",
    ),
    ("left-fountain", 12): (
        "4580fb94a081b1952b34f9db5efb88850a73c8f7bf45bd838fac43cee040182e",
        "ca9657ab2e6b7cd773ae63d8329a51eaf4d6bb62121232f1b28d6b17a3513f70",
    ),
    ("nest", 6): (
        "55d4c4c0821dfd0ef87d0392d78d1efa1957aa13d77655fd1e731fa7ca7cefb5",
        "2e72d6ea01d62bec7a101ba78cf9485aef65d22b96db872fea33fba3a3774293",
    ),
    ("nest", 12): (
        "8b867b098fc3e21954ae2a311cfcc1bb5e7d82c1c94fe3f03a7130317e10e64b",
        "97b06cc21f450f12aa007086c4f2e7c9fd58fcf01eb65defd3b90b7080aadfd4",
    ),
    ("split-fountain", 6): (
        "3480d928e7d4529d3a9e6f9850008d6da2b8fa183280dfdd52ddbccebbffef90",
        "3480b16ebc804137e3af595449de8a191d8a4f62601c7dbe9e370ef8b0922aa7",
    ),
    ("split-fountain", 12): (
        "2f4bd8daff6324b70dc953fe8b617dd583d40b645e77517fb9e0be1762a2345f",
        "d1cebf84c30f48a61fc39e0d6de400c2f530e5ef3eda22725e90215fd6b18318",
    ),
}


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name, window", sorted(PINNED))
def test_components_and_window_arcs_are_pinned(name, window):
    tri = PROBED[name]
    parts = triangulation_components(tri, window)
    assert digest(" ".join(a.label for a in part) for part in parts) == PINNED[name, window][0]
    assert digest(a.label for a in tri.window_arcs(window)) == PINNED[name, window][1]


# -- flanking triangles in closed form, from tip indices ---------------------------


def closed_form_faces(fam):
    """(endpoints, apexes) of the family's arcs away from the first index:
    a fountain arc {base, tip(k)} is flanked by tip(k - 1) and tip(k + 1);
    a zigzag arc {a_k, b_k} by a_{k+1} and b_{k-1}, and {a_{k+1}, b_k} by
    a_k and b_{k+1}."""
    ks = range(fam.start + 1, fam.start + 12)
    if fam.base is not None:
        for seq in fam.sequences():
            for k in ks:
                yield (fam.base, ref_tip(seq, k)), (ref_tip(seq, k - 1), ref_tip(seq, k + 1))
        return
    sa, sb = fam.sequences()
    for k in ks:
        yield (ref_tip(sa, k), ref_tip(sb, k)), (ref_tip(sa, k + 1), ref_tip(sb, k - 1))
        yield (ref_tip(sa, k + 1), ref_tip(sb, k)), (ref_tip(sa, k), ref_tip(sb, k + 1))


class TestClosedFormFaces:
    def test_each_form_on_one_case(self):
        fan = fan_oracle().tri  # tips 1/2 - 1/(2k): 1/4, 1/3, 3/8 at k = 2, 3, 4
        assert fan.triangles_of(Arc.of(F(0), F(1, 3))) == [
            (F(0), F(1, 4), F(1, 3)), (F(0), F(1, 3), F(3, 8))
        ]
        nest = nest_oracle().tri  # a_k = 1/2 - 1/(4k), b_k = 1/2 + 1/(4k)
        assert nest.triangles_of(Arc.of(F(3, 8), F(5, 8))) == [  # {a_2, b_2}
            (F(3, 8), F(5, 12), F(5, 8)), (F(3, 8), F(5, 8), F(3, 4))
        ]
        assert nest.triangles_of(Arc.of(F(5, 12), F(5, 8))) == [  # {a_3, b_2}
            (F(5, 12), F(7, 12), F(5, 8)), (F(3, 8), F(5, 12), F(5, 8))
        ]

    @pytest.mark.parametrize("name", sorted(LONG_LIVED))
    def test_window_family_arcs_match_the_closed_form(self, name):
        tri = LONG_LIVED[name]()
        window = set(tri.window_arcs(12))
        checked = 0
        for fam in tri.families:
            for (p, q), apexes in closed_form_faces(fam):
                arc = Arc.of(p, q)
                if arc not in window:
                    continue
                expected = {tuple(sorted((arc.p, arc.q, z))) for z in apexes}
                faces = tri.triangles_of(arc)
                assert len(faces) == 2 and set(faces) == expected, arc
                checked += 1
        assert checked >= 10


# -- faces against the candidate search -----------------------------------------------


def reference_partners(fam, i, k):
    """Apex candidates at tip(k) of sequence i: a fountain's base and tips
    k - 1 and k + 1, a zigzag's other endpoints of its arcs at the tip."""
    if fam.base is not None:
        seq = fam.sequences()[i]
        return [_pt(fam.base), seq._tip(k + 1)] + ([seq._tip(k - 1)] if k > fam.start else [])
    sa, sb = fam.sequences()
    if i == 1:
        return [sa._tip(k), sa._tip(k + 1)]
    return [sb._tip(k)] + ([sb._tip(k - 1)] if k > fam.start else [])


def reference_member(tri, c):
    """A chord is an arc when both endpoints are marked and it is an
    exceptional arc, a family's arc, or an edge."""
    (finite_p, tips_p), (finite_q, tips_q) = tri._where[c[0]], tri._where[c[1]]
    if not ((finite_p or any(tips_p)) and (finite_q or any(tips_q))):
        return False
    if c in tri._extra or any(f._joins(c, *at) for f, *at in zip(tri.families, tips_p, tips_q)):
        return True
    return tri._is_edge(c)


def reference_faces(tri, c):
    """The candidate search: every possible apex over the chord, read from
    the neighbours, tip indices and exceptional arcs of both endpoints, is
    kept on a side when both its chords to the endpoints are arcs."""
    if not reference_member(tri, c):
        raise NotAnArc(f"{_arc(c)} is not an arc of the triangulation")
    p, q = c
    candidates = set()
    for x in c:
        candidates.update(z for ccw in (True, False) if (z := tri.nearest(x, ccw)) is not None)
        for f, at in zip(tri.families, tri._where[x][1]):
            for i, k in at.items():
                candidates.update(reference_partners(f, i, k))
        candidates.update(e[1] if x == e[0] else e[0] for e in tri._extra if x in e)
    candidates -= {p, q}
    out = []
    for lo, hi in (c, (q, p)):
        found = [
            z for z in candidates
            if _in_open(lo, hi, z) and reference_member(tri, _chord(lo, z)) and reference_member(tri, _chord(z, hi))
        ]
        if len(found) > 1:
            raise InvalidFamily(
                f"arc {_arc(c)} has two apexes {sorted(F(*z) for z in found)} on one side; "
                "the described arc set is not a triangulation"
            )
        if found:
            z = found[0]
            out.append((p, z, q) if lo == p else (z, p, q) if _lt(z, p) else (p, q, z))
    return out


def reference_answers(tri, c):
    """What chord_in, chord_row, chord_exchangeable and triangles_of answer
    for the chord by the candidate search, an error as its type and text."""
    member = reference_member(tri, c)
    try:
        faces = reference_faces(tri, c)
    except (NotAnArc, InvalidFamily) as exc:
        error = (type(exc), str(exc))
        return [member, error, error, error]
    row = {}
    for p, q, r in faces:
        for src, dst in _triangle_arrows(((p, q), (q, r), (p, r))):
            if src == c:
                row[dst] = row.get(dst, 0) + 1
            elif dst == c:
                row[src] = row.get(src, 0) - 1
    corners = [tuple(F(*x) for x in face) for face in faces]
    return [member, {a: v for a, v in row.items() if v}, len(faces) == 2, corners]


def assert_faces_match_the_search(make, window=8):
    """Every chord among the first window points gets the candidate
    search's answers, errors included, from the partner sets; returns the
    number of answers compared."""
    tri, ref = make(), make()
    points = tri._window_points(window)
    chords = [_chord(p, q) for i, p in enumerate(points) for q in points[i + 1 :]]
    for c in chords:
        got = []
        for method, arg in (("chord_in", c), ("chord_row", c), ("chord_exchangeable", c), ("triangles_of", _arc(c))):
            try:
                got.append(getattr(tri, method)(arg))
            except (NotAnArc, InvalidFamily) as exc:
                got.append((type(exc), str(exc)))
        assert got == reference_answers(ref, c), (make, c)
    return 4 * len(chords)


def two_bases():
    """The chord {0, 1/8} joins two fountain bases; its apex 1/4 is a tip
    of the family at 0 and the neighbour of 1/8."""
    return InfiniteTriangulation(
        families=(
            ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0)),
            ArcFamily("left-fountain", limit=F(0), scale=F(1, 16), start=1, base=F(1, 8)),
        ),
        extra_arcs=frozenset({Arc.of(F(0), F(1, 8))}),
    )


def two_bases_turned():
    """two_bases turned by 7/8: the chord {0, 7/8} joins two bases, and its
    apex 1/8 is a tip of the family at 7/8, the later endpoint."""
    return InfiniteTriangulation(
        families=(
            ArcFamily("right-fountain", limit=F(3, 8), scale=F(1, 2), start=2, base=F(7, 8)),
            ArcFamily("left-fountain", limit=F(7, 8), scale=F(1, 16), start=1, base=F(0)),
        ),
        extra_arcs=frozenset({Arc.of(F(0), F(7, 8))}),
    )


def base_on_a_tip():
    """The fan's tip 1/3 is the base of a second fountain, so the chord
    {0, 1/3} joins two bases and is the fan's arc."""
    return InfiniteTriangulation(
        families=(
            ArcFamily("right-fountain", limit=F(1, 2), scale=F(1, 2), start=2, base=F(0)),
            ArcFamily("left-fountain", limit=F(7, 24), scale=F(1, 48), start=1, base=F(1, 3)),
        ),
    )


FACE_CASES = {
    **LONG_LIVED,
    "fountain": marked_limit_fountain,
    "left-fountain": marked_limit_left_fountain,
    "two-bases": two_bases,
    "two-bases-turned": two_bases_turned,
    "base-on-a-tip": base_on_a_tip,
}

ANGLES = sorted({F(n, d) for d in (2, 3, 4, 5, 6, 8, 12, 16) for n in range(d)})


@st.composite
def drawn_triangulations(draw):
    """1-2 families of any kind, 0-2 exceptional arcs among their first
    points and the angles, and 0-3 finite points; a draw the constructors
    refuse is rejected."""
    angle = st.sampled_from(ANGLES)
    specs = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(sorted(_KINDS)))
        fountain, seqs = _KINDS[kind]
        spec = {
            "kind": kind,
            "limit": draw(angle),
            "scale": F(1, draw(st.integers(2, 16))),
            "start": draw(st.integers(1, 4)),
        }
        if fountain:
            spec["base"] = draw(angle)
        if kind == "half-nest":
            spec["limit2"] = draw(angle)
        if len(seqs) == 2 and draw(st.booleans()):
            spec["scale2"] = F(1, draw(st.integers(2, 16)))
        specs.append(spec)
    finite = draw(st.lists(angle, max_size=3))
    try:
        families = tuple(ArcFamily(**spec) for spec in specs)
        points = sorted({F(*x) for f in families for x in f._tips(6)} | {f.base for f in families if f.base is not None})
        ends = st.sampled_from(points + ANGLES)
        extra = frozenset(Arc.of(draw(ends), draw(ends)) for _ in range(draw(st.integers(0, 2))))
        InfiniteTriangulation(families, extra, tuple(finite))
    except (ClusterLabError, ValueError):
        reject()
    return partial(InfiniteTriangulation, families, extra, tuple(finite))


class TestFacesFromPartners:
    """chord_in, chord_row, chord_exchangeable and triangles_of, with their
    errors, against the candidate search on every chord of a window."""

    @pytest.mark.parametrize("name", sorted(FACE_CASES))
    def test_named_triangulations(self, name):
        assert assert_faces_match_the_search(FACE_CASES[name]) > 100

    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(drawn_triangulations())
    def test_drawn_triangulations(self, make):
        assert_faces_match_the_search(make, window=6)


# -- typed errors -------------------------------------------------------------------


def test_typed_errors_keep_their_texts_and_stay_value_errors():
    pentagon = fan_triangulation(5)
    cases = [
        (
            lambda: validate_triangulation([F(0), F(1, 4), F(1, 2)], [Arc.of(F(0), F(1, 3))]),
            UnmarkedPoint,
            "arc {0/1, 1/3} uses a point outside the marked set",
        ),
        (
            lambda: validate_triangulation([F(0)], []),
            TooFewPoints,
            "a triangulation needs at least two marked points",
        ),
        (
            lambda: classify_arc(pentagon, Arc.of(F(0), F(1, 3))),
            UnmarkedPoint,
            "arc endpoints must be marked points",
        ),
        (
            lambda: pentagon.triangles_of(Arc.of(F(1, 5), F(3, 5))),
            NotAnArc,
            "{1/5, 3/5} is not an arc of the triangulation",
        ),
        (
            lambda: split_fountain().triangles_of(Arc.of(F(1, 6), F(1, 2))),
            NotAnArc,
            "{1/6, 1/2} is not an arc of the triangulation",
        ),
    ]
    for call, cls, text in cases:
        with pytest.raises(cls) as exc:
            call()
        assert type(exc.value) is cls and str(exc.value) == text
        assert isinstance(exc.value, ClusterLabError) and isinstance(exc.value, ValueError)


# -- canonical arcs -----------------------------------------------------------------


class TestCanonicalArcs:
    """An Arc holds 0 <= p < q < 1 from construction; Arc.of normalizes and
    orders. Each non-canonical Arc below used to be accepted."""

    @pytest.mark.parametrize(
        "p, q",
        [(F(3, 4), F(1, 4)), (F(1, 4), F(5, 4)), (F(1, 4), F(1, 4)), (F(-1, 4), F(1, 4))],
        ids=["descending", "past-one-turn", "equal", "negative"],
    )
    def test_a_non_canonical_arc_is_refused(self, p, q):
        with pytest.raises(ValueError, match="^arc endpoints must be distinct"):
            Arc(p, q)

    def test_the_refusal_names_the_endpoints(self):
        with pytest.raises(ValueError) as exc:
            Arc(F(3, 4), F(1, 4))
        assert str(exc.value) == "arc endpoints must be distinct, with 0 <= p < q < 1: p=3/4, q=1/4"

    def test_arc_of_orders_and_normalizes_but_refuses_one_point(self):
        assert Arc.of(F(5, 4), F(0)) == Arc(F(0), F(1, 4))
        with pytest.raises(ValueError, match="^arc endpoints must be distinct"):
            Arc.of(F(1, 4), F(5, 4))

    @staticmethod
    def split_fountain_with(extra):
        return InfiniteTriangulation(
            split_fountain().families, frozenset({extra}), (F(1, 2), F(1, 6), F(5, 6))
        )

    def test_a_descending_extra_arc_is_refused_not_a_type_error(self):
        with pytest.raises(ValueError, match="^arc endpoints must be distinct"):
            self.split_fountain_with(Arc(F(3, 4), F(1, 4)))

    def test_an_extra_arc_past_one_turn_is_refused_not_dropped(self):
        # it was accepted in place of {1/4, 3/4}, and then chord_in(((1, 4), (3, 4))) was False
        with pytest.raises(ValueError, match="^arc endpoints must be distinct"):
            self.split_fountain_with(Arc(F(1, 4), F(5, 4)))

    def test_a_descending_arc_is_not_reported_as_unmarked(self):
        pts = [F(0), F(1, 4), F(1, 2), F(3, 4)]
        sides = [Arc.of(pts[k], pts[(k + 1) % 4]) for k in range(3)]
        with pytest.raises(ValueError, match="^arc endpoints must be distinct"):
            validate_triangulation(pts, [*sides, Arc(F(3, 4), F(0)), Arc.of(F(0), F(1, 2))])


# -- points and chords on integers ---------------------------------------------------


def reference_in_open(a, b, z):
    """The open cyclic interval test on Fractions: the reference for _in_open."""
    if a == b:
        return False
    if a < b:
        return a < z < b
    return z > a or z < b


@st.composite
def rationals(draw, unit=False):
    """(Fraction, (n, d) pair) for a random rational: an angle in [0, 1) in
    lowest terms when `unit`, otherwise any rational, with the pair scaled
    by a random factor so that it is often not reduced."""
    d = draw(st.integers(1, 60))
    if unit:
        x = F(draw(st.integers(0, d - 1)), d)
        return x, (x.numerator, x.denominator)
    n = draw(st.integers(-130, 130))
    m = draw(st.integers(1, 4))
    return F(n, d), (n * m, d * m)


class TestPointHelpers:
    """The integer point helpers against Fraction arithmetic and Arc."""

    @settings(max_examples=400, deadline=None)
    @given(rationals(), rationals(), rationals())
    def test_order_interval_and_gap_take_any_pair(self, a, b, z):
        (fa, pa), (fb, pb), (fz, pz) = a, b, z
        assert _lt(pa, pb) == (fa < fb)
        assert _in_open(pa, pb, pz) == reference_in_open(fa, fb, fz)
        gap = _gap(pa, pb)
        assert 0 <= gap[0] < gap[1] and F(*gap) == norm_angle(fb - fa)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(rationals(unit=True), min_size=2, max_size=6))
    def test_chords_labels_and_sorting_on_reduced_points(self, points):
        (fa, pa), (fb, pb) = points[:2]
        if fa == fb:
            with pytest.raises(ValueError, match="arc endpoints must be distinct"):
                _chord(pa, pb)
            with pytest.raises(ValueError, match="arc endpoints must be distinct"):
                Arc.of(fa, fb)
        else:
            arc = Arc.of(fa, fb)
            c = _chord(pa, pb)
            assert c == _chord(pb, pa) == chord_of(arc)
            assert _arc(c) == arc
            assert chord_label(c) == arc.label
        if len({f for f, _ in points[:4]}) == 4:
            (fa, _), (fb, _), (fc, _), (fd, _) = points[:4]
            crossed = reference_in_open(fa, fb, fc) != reference_in_open(fa, fb, fd)
            assert arcs_cross(Arc.of(fa, fb), Arc.of(fc, fd)) == crossed
        pts = [p for _, p in points]
        assert [F(*p) for p in sorted(pts, key=_by_angle)] == sorted(f for f, _ in points)
