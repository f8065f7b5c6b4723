"""Triangulations of the closed disc with marked points on the circle.

All geometry is exact: a marked point is a rational fraction of a full
turn in [0, 1). Finite triangulations are validated and flipped on the
ranks of their sorted points, with Fractions read only at input and when
arcs are named. Infinite triangulations are described by finitely many
arc families (fountains, nests, half-nests) with tip sequences of the form
limit +/- scale/k, plus finitely many exceptional arcs, with all edges of
the marked point set implied. Inside one, a point is the pair (n, d) of
its angle n/d in lowest terms and an arc a chord, its points in angle
order, compared by cross-multiplying; Fractions and Arcs are met only at
input and where arcs are named. It locates each point once (whether it is
a finite point, and its tip index k in each sequence), finds each point's
neighbour once per direction, an edge being an arc with no marked point
strictly between its endpoints on one side, and from those each point's
arc partners once; arc membership and the faces on a chord are read from
the partners of its endpoints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, partial
from itertools import combinations, count, islice, product
from math import gcd, isqrt
from typing import Iterable, Sequence, TypeVar
import weakref

from .errors import (
    CrossingPair,
    InvalidFamily,
    NotAnArc,
    NotFlippable,
    NotMaximal,
    ParseError,
    TooFewPoints,
    UnmarkedPoint,
)
from .laurent import VarId
from .seeds import DEFAULT_NODE_BUDGET, Memo, Seed, derived, explore

T = TypeVar("T")


def norm_angle(x: Fraction) -> Fraction:
    # most angles are already in [0, 1): return those as they are
    if 0 <= x.numerator < x.denominator:
        return x
    return x % 1


def parse_frac(text: str) -> Fraction:
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad fraction {text!r}", expected="p/q") from exc
    return norm_angle(f)


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- points and chords on integers --------------------------------------------------

Pt = tuple[int, int]  # angle or gap n/d as (n, d), d > 0; a point has 0 <= n < d, reduced
Chord = tuple[Pt, Pt]  # an arc's endpoints in increasing angle order


def _pt(x: Fraction) -> Pt:
    return x.numerator, x.denominator


def _lt(a: Pt, b: Pt) -> bool:
    """Angle order, by one cross-multiplication; also for gaps."""
    return a[0] * b[1] < b[0] * a[1]


_by_angle = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])  # sorts points by angle


def _in_open(a: Pt, b: Pt, z: Pt) -> bool:
    """z lies in the open cyclic interval (a, b), counterclockwise from a to b."""
    if _lt(a, b):
        return _lt(a, z) and _lt(z, b)
    return _lt(b, a) and (_lt(a, z) or _lt(z, b))


def _gap(p: Pt, q: Pt) -> Pt:
    """norm_angle(q - p): how far q lies counterclockwise from p."""
    den = p[1] * q[1]
    return (q[0] * p[1] - p[0] * q[1]) % den, den


def _chord(a: Pt, b: Pt) -> Chord:
    """Arc.of on points in [0, 1)."""
    if a == b:
        raise ValueError("arc endpoints must be distinct")
    return (a, b) if _lt(a, b) else (b, a)


def chord_of(arc: "Arc") -> Chord:
    return _pt(arc.p), _pt(arc.q)


def _arc(c: Chord) -> "Arc":
    return Arc(Fraction(*c[0]), Fraction(*c[1]))


def chord_label(c: Chord) -> VarId:
    """Arc.label of the chord's arc."""
    return "{}/{}~{}/{}".format(*c[0], *c[1])


def _chord_from_label(label: VarId) -> Chord:
    """The chord whose chord_label is the label, read on integers: n/d~n/d,
    each fraction reduced and in [0, 1), the two increasing. Any other text
    is a ParseError, a field int cannot read among them."""
    try:
        (a, b), (c, d) = chord = tuple(tuple(map(int, end.split("/"))) for end in label.split("~"))
        if not (0 <= a < b and 0 <= c < d and a * d < c * b and gcd(a, b) == gcd(c, d) == 1):
            raise ValueError
        if chord_label(chord) != label:  # int also reads signs, spaces, "_" and other digits
            raise ValueError
    except ValueError:
        raise ParseError(f"bad arc label {label!r}", expected="n/d~n/d, reduced, in [0, 1), increasing") from None
    return chord


@dataclass(frozen=True, order=True)
class Arc:
    """Unordered pair of distinct marked points, stored with 0 <= p < q < 1."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        if not 0 <= self.p < self.q < 1:
            raise ValueError(f"arc endpoints must be distinct, with 0 <= p < q < 1: p={self.p}, q={self.q}")

    @staticmethod
    def of(a: Fraction, b: Fraction) -> "Arc":
        a, b = norm_angle(a), norm_angle(b)
        return Arc(min(a, b), max(a, b))

    @derived
    def label(self) -> VarId:
        return f"{frac_str(self.p)}~{frac_str(self.q)}"

    def endpoints(self) -> tuple[Fraction, Fraction]:
        return (self.p, self.q)

    def other(self, x: Fraction) -> Fraction:
        return self.q if x == self.p else self.p

    def __str__(self):
        return "{" + f"{frac_str(self.p)}, {frac_str(self.q)}" + "}"


def parse_arc_label(label: VarId) -> Arc:
    try:
        left, right = label.split("~")
        return Arc.of(parse_frac(left), parse_frac(right))
    except ValueError as exc:
        raise ParseError(f"bad arc label {label!r}", expected="p/q~r/s") from exc


def arcs_cross(a: Arc, b: Arc) -> bool:
    """True iff the chords properly cross; shared endpoints never cross."""
    (p, q), (r, s) = chord_of(a), chord_of(b)
    if {p, q} & {r, s}:
        return False
    return _in_open(p, q, r) != _in_open(p, q, s)


Corners = tuple[Fraction, Fraction, Fraction]
Pair = tuple[int, int]  # ranks (i, j), i < j, of an arc's endpoints among sorted points
Ranks = tuple[int, int, int]  # a triangle's corners as increasing ranks


def _non_crossing(pairs: Iterable[tuple]) -> bool:
    """True when no two of the chords (p, q), p < q, cross, decided in one
    pass over the sorted endpoints; endpoints may be angles or ranks.
    Chords cross exactly when their intervals interleave, so they are
    non-crossing iff their endpoints nest like balanced parentheses. At one
    endpoint, closings come before openings (chords meeting end to start do
    not cross), inner closings first (descending p) and outer openings
    first (descending q). A pair with p >= q closes before it opens, so the
    pass answers False."""
    events = []
    for pq in pairs:
        p, q = pq
        events.append((q, 0, -p, pq))
        events.append((p, 1, -q, pq))
    events.sort()
    stack: list[tuple] = []
    for _, opening, _, pq in events:
        if opening:
            stack.append(pq)
        elif not stack or stack.pop() != pq:
            return False
    return True


def _chords_non_crossing(chords: Iterable[Chord]) -> bool:
    """_non_crossing over the ranks of the chords' endpoints among them."""
    chords = list(chords)
    rank = {x: i for i, x in enumerate(sorted({x for c in chords for x in c}, key=_by_angle))}
    return _non_crossing((rank[p], rank[q]) for p, q in chords)


def first_crossing(arcs: Sequence[Arc]) -> tuple[Arc, Arc] | None:
    """The first crossing pair (a, b) with a before b in the given order:
    a in order, then b in order after it; callers sweep (_non_crossing) first."""
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            if arcs_cross(a, b):
                return a, b
    return None


@dataclass(frozen=True)
class FiniteTriangulation:
    """A maximal set of pairwise non-crossing arcs on a finite point set.
    Construct through validate_triangulation or flip_arc.

    The geometry runs on ranks: the arc {points[i], points[j]} is the rank
    pair (i, j) with i < j, and a triangle is its increasing rank triple.
    The Fractions are read only to name arcs and corners to the caller."""

    points: tuple[Fraction, ...]
    arcs: frozenset[Arc]

    # rank data and memos in the instance __dict__, beside the frozen
    # fields; flip_arc fills a child's from its parent's
    @derived
    def _rank(self) -> dict[Fraction, int]:
        return {p: k for k, p in enumerate(self.points)}

    @derived
    def _pairs(self) -> dict[Pair, Arc]:
        """Each arc under its rank pair."""
        rank = self._rank
        return {(rank[a.p], rank[a.q]): a for a in self.arcs}

    @derived
    def _rank_triangles(self) -> list[Ranks]:
        """Sorted triples of points pairwise joined by arcs; in a
        triangulation every such triple bounds a face."""
        adj: list[set[int]] = [set() for _ in self.points]
        for i, j in self._pairs:
            adj[i].add(j)
            adj[j].add(i)
        return sorted((i, j, k) for i, j in self._pairs for k in adj[i] & adj[j] if k > j)

    @derived
    def _faces(self) -> dict[Pair, list[Ranks]]:
        faces: dict[Pair, list[Ranks]] = {pair: [] for pair in self._pairs}
        for tri in self._rank_triangles:
            i, j, k = tri
            for side in ((i, j), (j, k), (i, k)):
                faces[side].append(tri)
        return faces

    def _pair_of(self, arc: Arc) -> tuple[int | None, int | None]:
        return self._rank.get(arc.p), self._rank.get(arc.q)

    def _corners(self, tri: Ranks) -> Corners:
        pts = self.points
        return pts[tri[0]], pts[tri[1]], pts[tri[2]]

    def triangles_of(self, arc: Arc) -> list[Corners]:
        """The at most two triangles having this arc as a side, each as an
        increasing-angle corner triple."""
        faces = self._faces.get(self._pair_of(arc))
        if faces is None:
            raise NotAnArc(f"{arc} is not an arc of the triangulation")
        return [self._corners(tri) for tri in faces]


def classify_arc(t: FiniteTriangulation, a: Arc) -> str:
    """'edge' iff one open side contains no marked point, else 'internal'."""
    i, j = t._pair_of(a)
    if i is None or j is None:
        raise UnmarkedPoint("arc endpoints must be marked points")
    # j - i - 1 marked points lie on one side, n - (j - i) - 1 on the other
    return "edge" if j - i in (1, len(t.points) - 1) else "internal"


def validate_triangulation(
    points: Iterable[Fraction], arcs: Iterable[Arc]
) -> FiniteTriangulation:
    """Reads the points and arcs, then checks them on ranks, whose pairs
    (i, j) have i < j as Arcs are ordered: no two arcs cross (one pass),
    and, as points on a circle are in convex position, the non-crossing set
    is maximal iff it has 2n - 3 arcs. Errors name arcs: the first crossing
    pair in (p, q) order, or the first free arc that crosses nothing."""
    pts = tuple(sorted({norm_angle(p) for p in points}))
    if len(pts) < 2:
        raise TooFewPoints("a triangulation needs at least two marked points")
    t = FiniteTriangulation(pts, frozenset(arcs))
    for a in t.arcs:
        if None in t._pair_of(a):
            raise UnmarkedPoint(f"arc {a} uses a point outside the marked set")
    n = len(pts)
    pairs = t._pairs
    if not _non_crossing(pairs):
        raise CrossingPair(*first_crossing(sorted(t.arcs)))
    if len(pairs) < 2 * n - 3:
        for i, j in combinations(range(n), 2):
            if (i, j) in pairs:
                continue
            cand = Arc(pts[i], pts[j])
            if not any(arcs_cross(cand, a) for a in t.arcs):
                raise NotMaximal(cand)
    # consequence of maximality: all edges of the point set are present
    assert all((k, k + 1) in pairs for k in range(n - 1)) and (0, n - 1) in pairs
    return t


def triangles(t: FiniteTriangulation) -> list[Corners]:
    """Triples of points pairwise joined by arcs, in increasing angle order.
    In a triangulation every such triple bounds a face."""
    return [t._corners(tri) for tri in t._rank_triangles]


def _triangle_arrows(sides: tuple[T, T, T]) -> list[tuple[T, T]]:
    """Arrow pairs contributed by one triangle, given its sides {p,q},
    {q,r}, {r,p} for corners p < q < r.

    Orientation convention, fixed once and validated by the flip/mutation
    compatibility property: {p,q} -> {q,r} -> {r,p} -> {p,q}.
    """
    s1, s2, s3 = sides
    return [(s1, s2), (s2, s3), (s3, s1)]


def _exchangeable_pairs(t: FiniteTriangulation) -> list[Pair]:
    """Rank pairs flanked by triangles on both sides, sorted."""
    return sorted(pair for pair, faces in t._faces.items() if len(faces) == 2)


def exchangeable_arcs(t: FiniteTriangulation) -> set[Arc]:
    """Arcs that are the diagonal of a quadrilateral in t, i.e. flanked by
    triangles on both sides."""
    return {t._pairs[pair] for pair in _exchangeable_pairs(t)}


def seed_from_triangulation(t: FiniteTriangulation) -> Seed:
    """One cluster variable per arc, labelled in sorted rank-pair order;
    exchangeables are the quadrilateral diagonals; skew-symmetric matrix
    from the triangle orientation rule, written straight into rows on
    positions. The seed passes the constructor's checks by construction,
    so it is built without them: two arcs share at most one triangle, so
    each entry is written once, as a +1/-1 pair, and the matrix is
    skew-symmetric; a triangle's three sides are distinct arcs, so the
    diagonal is zero; distinct arcs have distinct labels."""
    pairs = sorted(t._pairs)
    at = {pair: i for i, pair in enumerate(pairs)}
    rows: list[dict[int, int]] = [{} for _ in pairs]
    for i, j, k in t._rank_triangles:
        for src, dst in _triangle_arrows((at[i, j], at[j, k], at[i, k])):
            rows[src][dst] = 1
            rows[dst][src] = -1
    labels = tuple(t._pairs[pair].label for pair in pairs)
    ex = frozenset(at[pair] for pair in _exchangeable_pairs(t))
    return Seed._from_positions(labels, ex, tuple(rows))


def flip_arc(t: FiniteTriangulation, a: Arc) -> FiniteTriangulation:
    """Replace an exchangeable arc by the opposite diagonal of its
    quadrilateral. The result is derived from the parent on ranks: the new
    diagonal joins the apexes of the two flanking triangles, and those two
    triangles give way to the two on the new diagonal. The child needs no
    validation: the flanking triangles form a convex quadrilateral, whose
    other diagonal crosses no arc of the parent but the one removed, and
    the child still has 2n - 3 arcs."""
    pair = t._pair_of(a)
    if len(t._faces.get(pair, ())) != 2:
        raise NotFlippable(a)
    return _flip(t, pair)


def _flip(t: FiniteTriangulation, pair: Pair) -> FiniteTriangulation:
    i, j = pair
    faces = t._faces[pair]
    # the apex of a flanking triangle is its corner off the diagonal
    k1, k2 = sorted(sum(tri) - i - j for tri in faces)
    new_arc = Arc(t.points[k1], t.points[k2])
    pairs = dict(t._pairs)
    del pairs[pair]
    pairs[k1, k2] = new_arc
    tris = [tri for tri in t._rank_triangles if tri not in faces]
    tris += (tuple(sorted((i, k1, k2))), tuple(sorted((j, k1, k2))))
    u = FiniteTriangulation(t.points, t.arcs - {t._pairs[pair]} | {new_arc})
    u.__dict__.update(_rank=t._rank, _pairs=pairs, _rank_triangles=sorted(tris))
    return u


def fan_triangulation(n: int) -> FiniteTriangulation:
    """Fan of the regular n-gon {k/n} from the point 0."""
    pts = [Fraction(k, n) for k in range(n)]
    arcs = {Arc.of(pts[i], pts[(i + 1) % n]) for i in range(n)}
    arcs |= {Arc.of(pts[0], pts[k]) for k in range(2, n - 1)}
    return validate_triangulation(pts, arcs)


def all_triangulations(n: int) -> list[FiniteTriangulation]:
    """All triangulations of the convex n-gon, sorted by arcs: the flip
    closure of the fan at 0. Each is within n - 3 flips of the fan, since
    a flip can raise the degree of 0 by one."""
    found = explore(
        fan_triangulation(n),
        lambda t: (_flip(t, pair) for pair in _exchangeable_pairs(t)),
        n - 3,
        DEFAULT_NODE_BUDGET,
        f"flip closure exceeded the node budget of {DEFAULT_NODE_BUDGET}",
        key=lambda t: t.arcs,
    )
    # one point set, so rank pairs sort as the arcs do
    return sorted(found, key=lambda t: sorted(t._pairs))


# -- infinite triangulations ---------------------------------------------------


@dataclass(frozen=True)
class _TipSequence:
    """Endpoint sequence tip(k) = (limit + step/k) mod 1 for k >= start."""

    limit: Fraction
    step: Fraction  # nonzero; positive means tips approach the limit from above
    start: int

    def __post_init__(self):
        c, d = _pt(self.step)
        self.__dict__["_ints"] = _pt(self.limit) + (c, d)  # what every query reads
        if c == 0:
            raise InvalidFamily("tip sequence needs a nonzero step")
        if self.start < 1:
            raise InvalidFamily("tip index range must start at k >= 1")
        if 2 * abs(c) >= d * self.start:  # |step| / start >= 1/2
            raise InvalidFamily("tip sequence must stay within half a turn of its limit")

    def _tip(self, k: int) -> Pt:
        # (limit + step/k) mod 1: a/b + c/(dk) = (adk + bc)/(bdk)
        a, b, c, d = self._ints
        den = b * d * k
        num = (a * d * k + b * c) % den
        g = gcd(num, den)
        return num // g, den // g

    def _index(self, p: Pt) -> int | None:
        """The k with tip(k) == p, if any. A tip lies within half a turn of
        the limit on the side of the step, so p - limit taken on that side
        is step/k itself. p is a point, reduced and in [0, 1), as every
        caller passes it: `_where` keys come from chord_of, _tip and _chord,
        and an ArcFamily normalizes its base."""
        pn, pd = p
        a, b, c, d = self._ints
        # p - limit = dn/dd, in [0, 1), then in [-1, 0) for a negative step
        dd = pd * b
        dn = (pn * b - a * pd) % dd
        if c < 0:
            dn -= dd
        if dn == 0:
            return None
        k, rem = divmod(c * dd, d * dn)
        return k if rem == 0 and k >= self.start else None

    def _nearest(self, p: Pt, ccw: bool) -> tuple[str, Pt]:
        """Closest tip strictly after p going counterclockwise (ccw) or
        clockwise; clockwise is the mirror image, with angles and the step
        negated and the tip(k) found mirrored back. Returns ("point", tip)
        when attained, ("accum", distance) when the infimum is an
        accumulation value that no tip attains."""
        a, b, c, d = self._ints
        pn, pd = p
        # p is at distance D = Dn/Dd before the limit, the tips at offset s/k beyond it
        Dd = b * pd
        Dn = (a * pd - pn * b if ccw else pn * b - a * pd) % Dd
        sn = c if ccw else -c
        if sn > 0:
            # tips beyond the point, D + s/k >= 1, wrap round to just after
            # it; the nearest is the largest such k, unless it is the point
            kw, rem = divmod(sn * Dd, d * (Dd - Dn))
            if rem == 0:
                kw -= 1
            if kw >= self.start:
                return ("point", self._tip(kw))
            return ("accum", (Dn, Dd))
        if Dn == 0:
            return ("point", self._tip(self.start))
        # the first tip short of the limit and past the point: s/k < D
        return ("point", self._tip(max(self.start, -sn * Dd // (d * Dn) + 1)))


def _zigzag_meets(a: _TipSequence, b: _TipSequence) -> bool:
    """Whether a_k = b_k or a_(k+1) = b_k for some k >= start, for every k
    at once: with e = a.limit - b.limit - m, the first is e*k + a.step -
    b.step = 0 and the second e*k^2 + (e + a.step - b.step)*k - b.step = 0,
    for an integer m with |m| <= 1, as each step/k is within half a turn."""
    for m in (-1, 0, 1):
        e, ds = a.limit - b.limit - m, a.step - b.step
        ks = _rational_roots(Fraction(0), e, ds) + _rational_roots(e, e + ds, -b.step)
        if (e == 0 and ds == 0) or any(k.denominator == 1 and k >= a.start for k in ks):
            return True
    return False


def _rational_roots(a: Fraction, b: Fraction, c: Fraction) -> list[Fraction]:
    """The rational roots of a*k^2 + b*k + c, which is not identically 0."""
    if a == 0:
        return [-c / b] if b else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    rn, rd = isqrt(disc.numerator), isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        return []
    return [(-b + s * Fraction(rn, rd)) / (2 * a) for s in (1, -1)]


# kind -> (whether its arcs join a base to each tip, its tip sequences as
# (limit field, sign of the step)): the first steps by `scale`, a second by
# `scale2` (default `scale`); kinds without a base zigzag between the two.
_KINDS = {
    "fountain": (True, (("limit", -1), ("limit", 1))),
    "left-fountain": (True, (("limit", 1),)),
    "right-fountain": (True, (("limit", -1),)),
    "nest": (False, (("limit", -1), ("limit", 1))),
    "half-nest": (False, (("limit", 1), ("limit2", -1))),
}
FAMILY_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class ArcFamily:
    """A convergent infinite family of arcs.

    Fountain kinds keep one endpoint at `base` while tips approach `limit`
    (right-fountain: from below/the right, step < 0 in the tip sequence;
    left-fountain: from above/the left). Nest and half-nest kinds zigzag:
    arcs {a_k, b_k} and {a_{k+1}, b_k} with both endpoint sequences moving.

    The constructor normalizes `limit`, `base` and `limit2` to [0, 1),
    builds the tip sequences once and makes every check about the family
    alone; below it, `base is None` means the family zigzags.
    """

    kind: str
    limit: Fraction
    scale: Fraction
    start: int = 1
    base: Fraction | None = None
    limit2: Fraction | None = None
    scale2: Fraction | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidFamily(f"unknown family kind {self.kind!r}")
        if self.scale <= 0:
            raise InvalidFamily("scale must be positive")
        fountain, specs = _KINDS[self.kind]
        if fountain and self.base is None:
            raise InvalidFamily(f"{self.kind} needs a base point")
        if not fountain and self.base is not None:
            raise InvalidFamily(f"{self.kind} takes no base point")
        takes_limit2 = any(limit == "limit2" for limit, _ in specs)
        if takes_limit2 and self.limit2 is None:
            raise InvalidFamily(f"{self.kind} needs a second limit")
        if not takes_limit2 and self.limit2 is not None:
            raise InvalidFamily(f"{self.kind} takes no second limit")
        if len(specs) == 1 and self.scale2 is not None:
            raise InvalidFamily(f"{self.kind} takes no scale2")
        if fountain and self.scale2 is not None and self.scale2 <= 0:
            raise InvalidFamily("scale2 must be positive")
        for name in ("limit", "base", "limit2"):
            if (x := getattr(self, name)) is not None:
                object.__setattr__(self, name, norm_angle(x))
        try:
            self.limit_arc()
        except ValueError:
            raise InvalidFamily("the family's limit arc joins a point to itself") from None
        # in the instance __dict__ beside the frozen fields; built once
        steps = (self.scale, self.scale if self.scale2 is None else self.scale2)
        self.__dict__["_sequences"] = tuple(
            _TipSequence(getattr(self, limit), sign * step, self.start)
            for (limit, sign), step in zip(specs, steps)
        )
        self.__dict__["_base"] = None if self.base is None else _pt(self.base)
        if fountain and any(seq._index(self._base) is not None for seq in self._sequences):
            raise InvalidFamily(
                f"{self.kind} base {frac_str(self.base)} is one of its own tips"
            )
        # a zigzag's sequences may meet: a half-nest's limits differ, and a
        # negative scale2 puts a nest's two on one side of its limit
        if not fountain and _zigzag_meets(*self._sequences):
            raise InvalidFamily("a family's tip sequences meet, joining a point to itself")
        if not _chords_non_crossing(self._chords(12)):
            a, b = first_crossing(list(map(_arc, self._chords(12))))
            raise InvalidFamily(f"family generates crossing arcs {a} and {b}")

    def sequences(self) -> tuple[_TipSequence, ...]:
        return self._sequences

    def _ends(self, window: int) -> list[tuple[Pt, Pt]]:
        """The endpoints of the first `window` arcs, deterministically, read
        from tip(k) of each sequence in turn: a fountain joins its base to
        each tip, a zigzag joins a_k to b_k and a_{k+1} to b_k."""
        base, seqs = self._base, self._sequences
        ends = (
            (base, seq._tip(k)) if base is not None
            else (seq._tip(k), seqs[1]._tip(k)) if i == 0
            else (seqs[0]._tip(k + 1), seq._tip(k))
            for k in count(self.start)
            for i, seq in enumerate(seqs)
        )
        return list(islice(ends, window))

    def _chords(self, window: int) -> list[Chord]:
        return [_chord(p, q) for p, q in self._ends(window)]

    def _tips(self, window: int) -> set[Pt]:
        """The moving endpoints of the first `window` arcs."""
        return {x for ends in self._ends(window) for x in ends} - {self._base}

    def _tips_at(self, p: Pt) -> dict[int, int]:
        """Sequence index -> k, for each of the family's sequences with
        tip(k) == p."""
        found = ((i, seq._index(p)) for i, seq in enumerate(self._sequences))
        return {i: k for i, k in found if k is not None}

    def _joins(self, c: Chord, at_p: dict[int, int], at_q: dict[int, int]) -> bool:
        """Whether the chord is the family's, given where its endpoints are
        tips (as _tips_at gives them)."""
        base = self._base
        if base is not None:
            return bool(at_q) if c[0] == base else c[1] == base and bool(at_p)
        # zigzag arcs {a_k, b_k} and {a_{k+1}, b_k}
        for at_a, at_b in ((at_p, at_q), (at_q, at_p)):
            if 0 in at_a and 1 in at_b and at_a[0] - at_b[1] in (0, 1):
                return True
        return False

    def _partners(self, i: int, k: int) -> list[Pt]:
        """The other endpoints of the family's arcs at tip(k) of sequence i:
        a fountain's base; for a zigzag, a_k meets b_k and b_{k-1}, and b_k
        meets a_k and a_{k+1}."""
        if self._base is not None:
            return [self._base]
        sa, sb = self._sequences
        if i == 1:
            return [sa._tip(k), sa._tip(k + 1)]
        return [sb._tip(k)] + ([sb._tip(k - 1)] if k > self.start else [])

    def limit_arc(self) -> Arc | None:
        """Half-nests and fountains converge to an arc of the closure; a
        nest's endpoint limits coincide, so it contributes none."""
        if self.base is not None:
            return Arc.of(self.base, self.limit)
        return Arc.of(self.limit, self.limit2) if self.kind == "half-nest" else None


@dataclass(frozen=True)
class InfiniteTriangulation:
    """Finitely described countable triangulation: declared arc families,
    finitely many exceptional internal arcs, finitely many standalone
    points, and all edges of the full marked point set implied.

    Maximality of the described set is the modeler's responsibility; the
    family and exceptional arcs of a finite window are validated pairwise
    non-crossing, and the implied edges need no check (see __post_init__).

    Inside, points are integer pairs and arcs are chords, so every memo key
    is small ints; each query is one method, on Arcs only where it names arcs.
    Each point is located once per instance (the finite points and the
    tip indices it has), each point's neighbours once per direction, and
    from those each point's arc partners once: the points it is joined to
    by an edge, a family arc at it as a tip, or an exceptional arc. Only a
    fountain base has more, every tip of its family, so its set is marked
    partial. A chord is an arc when one endpoint that is not a base lists
    the other, and the apex of a face, joined to both endpoints, is a
    partner of each endpoint that is not a base.
    """

    families: tuple[ArcFamily, ...]
    extra_arcs: frozenset[Arc] = frozenset()
    finite_points: tuple[Fraction, ...] = ()

    def __post_init__(self):
        """Gather the finite points, set up the memos and check what spans
        families (each family has checked itself). The crossing sweep reads
        the first 10 arcs of each family and the exceptional arcs, and
        leaves the implied edges out: an edge has a side with no marked
        point on it, and every swept chord has marked endpoints, so no edge
        can cross one, nor change the first pair. A lone family with no
        exceptional arcs is not swept again: its constructor swept its
        first 12 arcs."""
        pts = {norm_angle(p) for p in self.finite_points}
        pts.update(f.base for f in self.families if f.base is not None)
        for a in self.extra_arcs:
            pts.update(a.endpoints())
        object.__setattr__(self, "finite_points", tuple(sorted(pts)))
        # points, chords and memos in the instance __dict__, beside the
        # frozen fields: each answer is computed once, errors are never
        # stored, and the memos reach their owner through a proxy, so the
        # owner sits in no reference cycle and is freed with its last user.
        owner, cls = weakref.proxy(self), type(self)
        points = tuple(map(_pt, self.finite_points))  # in angle order
        extra = frozenset(map(chord_of, self.extra_arcs))
        extra_at: dict[Pt, list[Pt]] = {}
        for p, q in sorted(extra):
            extra_at.setdefault(p, []).append(q)
            extra_at.setdefault(q, []).append(p)
        self.__dict__.update(
            _points=points,
            _point_set=frozenset(points),
            _bases=frozenset(f._base for f in self.families if f._base is not None),
            _extra=extra,
            _extra_at=extra_at,
            _where=Memo(partial(cls._place, owner)),
            _near=Memo(partial(cls._find_neighbour, owner)),
            _partners=Memo(partial(cls._find_partners, owner)),
            _arc_in=Memo(partial(cls._member, owner)),
            _faces=Memo(partial(cls._search_faces, owner)),
        )
        if extra or len(self.families) > 1:
            chords = set(extra).union(*(f._chords(10) for f in self.families))
            if not _chords_non_crossing(chords):
                raise CrossingPair(*first_crossing(sorted(map(_arc, chords))))
        # no two families may share a tip among their first 32 arcs
        if len(self.families) > 1:
            pools = [f._tips(32) for f in self.families]
            if any(a & b for a, b in combinations(pools, 2)):
                raise InvalidFamily("families must not share moving endpoints")
        # an arc crossing a limit arc crosses infinitely many of its family's arcs
        for a, ell in product(sorted(self.extra_arcs), sorted(limit_arcs(self))):
            if arcs_cross(a, ell):
                raise InvalidFamily(f"arc {a} crosses the limit arc {ell}; inconsistent triangulation")

    # -- point set ------------------------------------------------------

    def _place(self, p: Pt) -> tuple[bool, tuple[dict[int, int], ...]]:
        """Where the point p lies: whether it is a finite point, and for
        each family, sequence index -> k for its sequences with tip(k) == p."""
        return p in self._point_set, tuple(f._tips_at(p) for f in self.families)

    def nearest(self, p: Pt, ccw: bool) -> Pt | None:
        """The neighbouring marked point of p in the given direction, or
        None when marked points accumulate there without a closest one."""
        return self._near[p, ccw][0]

    def _find_neighbour(self, key: tuple[Pt, bool]) -> tuple[Pt | None, Pt | None]:
        """For key (p, ccw): the nearest marked point that way, and the
        infimum of the distances that way from p of the marked points other
        than p (None if there are none)."""
        p, ccw = key
        dist = (lambda x: _gap(p, x)) if ccw else (lambda x: _gap(x, p))
        near: tuple[Pt, Pt] | None = None  # (distance, point)
        pts = self._points
        if pts:
            # the next finite point that way, cyclically; the key has the sign of q - p
            n, d = p
            at = (bisect_right if ccw else bisect_left)(pts, 0, key=lambda q: q[0] * d - n * q[1])
            q = pts[(at if ccw else at - 1) % len(pts)]
            if q != p:
                near = (dist(q), q)
        accum: Pt | None = None
        for f in self.families:
            for seq in f.sequences():
                kind, val = seq._nearest(p, ccw)
                if kind == "point":
                    g = dist(val)
                    if near is None or _lt(g, near[0]):
                        near = (g, val)
                elif accum is None or _lt(val, accum):
                    accum = val
        if near is None or (accum is not None and _lt(accum, near[0])):
            return None, accum
        return near[1], near[0]

    def _find_partners(self, x: Pt) -> tuple[frozenset[Pt], bool]:
        """The points x is joined to by an arc, and whether the set is
        partial: its neighbours (the edges at it), its partners in each
        family where it is a tip, and its exceptional-arc partners. A
        fountain base is also joined to every tip of its family, which the
        set leaves out, so a base's set is partial. An unmarked point has
        none."""
        finite, tips = self._where[x]
        if not (finite or any(tips)):
            return frozenset(), False
        out = {self._near[x, True][0], self._near[x, False][0]}
        out.discard(None)
        for f, at in zip(self.families, tips):
            for i, k in at.items():
                out.update(f._partners(i, k))
        out.update(self._extra_at.get(x, ()))
        return frozenset(out), x in self._bases

    # -- arc membership ----------------------------------------------------

    def _is_edge(self, c: Chord) -> bool:
        """No marked point lies strictly between the endpoints on one side:
        going counterclockwise from p (or from q), the marked points come
        no nearer than the other endpoint. For marked endpoints, q is p's
        counterclockwise neighbour or p is q's."""
        return self._clear(*c) or self._clear(c[1], c[0])

    def _clear(self, lo: Pt, hi: Pt) -> bool:
        """No marked point in the open counterclockwise interval (lo, hi)."""
        gap = self._near[lo, True][1]
        return gap is None or not _lt(gap, _gap(lo, hi))

    def chord_in(self, c: Chord) -> bool:
        return self._arc_in[c]

    def _member(self, c: Chord) -> bool:
        """Read from the partners of an endpoint that is not a base. Between
        two bases the chord is also a family's arc when one is a tip of a
        family the other is the base of."""
        p, q = c
        at_p, base_p = self._partners[p]
        if not base_p:
            return q in at_p
        at_q, base_q = self._partners[q]
        if not base_q:
            return p in at_q
        tips_p, tips_q = self._where[p][1], self._where[q][1]
        return q in at_p or any(f._joins(c, *at) for f, *at in zip(self.families, tips_p, tips_q))

    # -- triangles -----------------------------------------------------------

    def triangles_of(self, arc: Arc) -> list[Corners]:
        """The at most two triangles of the triangulation having this arc
        as a side, each as an increasing-angle corner triple."""
        return [tuple(Fraction(*p) for p in tri) for tri in self._faces[chord_of(arc)]]

    def _search_faces(self, c: Chord) -> list[tuple[Pt, Pt, Pt]]:
        """The apex of a face is joined to both endpoints, so it is a
        partner of each endpoint that is not a base: the apexes are the
        common partners when neither endpoint is a base. A base's set leaves
        out its family's tips, so where an endpoint is a base the apexes are
        drawn from the other endpoint's partners (from both sets, between
        two bases) and the chords to the bases are tested."""
        if not self._arc_in[c]:
            raise NotAnArc(f"{_arc(c)} is not an arc of the triangulation")
        p, q = c
        at_p, base_p = self._partners[p]
        at_q, base_q = self._partners[q]
        if base_p and base_q:
            apexes = (at_p | at_q) - {p, q}
        elif base_p or base_q:
            apexes = (at_p if base_q else at_q) - {p, q}
        else:
            apexes = at_p & at_q
        for x, base in ((p, base_p), (q, base_q)):
            if base:
                apexes = [z for z in apexes if self._arc_in[_chord(x, z)]]
        out = []
        for lo, hi in (c, (q, p)):
            found = [z for z in apexes if _in_open(lo, hi, z)]
            if len(found) > 1:
                raise InvalidFamily(
                    f"arc {_arc(c)} has two apexes {sorted(Fraction(*z) for z in found)} on one side; "
                    "the described arc set is not a triangulation"
                )
            if found:
                z = found[0]
                # corners in angle order: z between p and q, or before p, or after q
                out.append((p, z, q) if lo == p else (z, p, q) if _lt(z, p) else (p, q, z))
        return out

    def arc_neighbour_row(self, arc: Arc) -> dict[Arc, int]:
        """chord_row on Arcs; bench/tracing.py wraps this method by name."""
        return {_arc(c): s for c, s in self.chord_row(chord_of(arc)).items()}

    def chord_row(self, c: Chord) -> dict[Chord, int]:
        """Signed quiver row of the chord: entries to the other sides of its
        flanking triangles under the fixed orientation convention."""
        row: dict[Chord, int] = {}
        for p, q, r in self._faces[c]:
            for src, dst in _triangle_arrows(((p, q), (q, r), (p, r))):
                if src == c:
                    row[dst] = row.get(dst, 0) + 1
                elif dst == c:
                    row[src] = row.get(src, 0) - 1
        return {a: v for a, v in row.items() if v}

    def chord_exchangeable(self, c: Chord) -> bool:
        return len(self._faces[c]) == 2

    # -- materialization -----------------------------------------------------

    def _window_points(self, window: int) -> list[Pt]:
        # the finite points, the bases among them, and the window's tips
        return sorted(set(self._points).union(*(f._tips(window) for f in self.families)), key=_by_angle)

    def window_arcs(self, window: int) -> list[Arc]:
        """Family arcs of the window, exceptional arcs, and those edges of
        the FULL point set whose endpoints are materialized."""
        return sorted(map(_arc, self._window_chords(window)))

    def _window_chords(self, window: int) -> set[Chord]:
        chords = set(self._extra).union(*(f._chords(window) for f in self.families))
        # each point and the next, cyclically; a lone point has no edge
        pts = self._window_points(window)
        for p, q in zip(pts, pts[1:] + pts[:1]):
            if p != q and self._is_edge(c := _chord(p, q)):
                chords.add(c)
        return chords


def limit_arcs(it: InfiniteTriangulation) -> set[Arc]:
    """The limit arcs of the families: half-nests and fountains have one."""
    return {la for f in it.families if (la := f.limit_arc()) is not None}


def triangulation_components(
    it: InfiniteTriangulation | FiniteTriangulation, window: int = 12
) -> list[list[Arc]]:
    """Partition of the materialized arcs by limit-arc separation: arcs
    share a part iff no limit arc has them on opposite closed sides; a
    limit arc that is itself an arc of the point set is its own part."""
    if isinstance(it, FiniteTriangulation):
        return [[it._pairs[pair] for pair in sorted(it._pairs)]]
    arcs = it.window_arcs(window)
    limits = sorted(limit_arcs(it))

    def side(a: Arc, ell: Arc) -> str:
        if a == ell:
            return "self"
        p, q = chord_of(ell)
        for name, (lo, hi) in (("a", (p, q)), ("b", (q, p))):
            if all(x in (lo, hi) or _in_open(lo, hi, x) for x in chord_of(a)):
                return name
        raise InvalidFamily(
            f"arc {a} crosses the limit arc {ell}; inconsistent triangulation"
        )

    groups: dict[tuple, list[Arc]] = {}
    for i, a in enumerate(arcs):
        key = tuple(side(a, ell) for ell in limits)
        if "self" in key:
            key = key + ("own", i)
        groups.setdefault(key, []).append(a)
    return [sorted(g) for g in sorted(groups.values(), key=lambda g: g[0])]
