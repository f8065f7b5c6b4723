"""Lazy infinite seeds and their finite full-subseed filtrations.

A SeedOracle answers local questions (matrix row, exchangeability) about a
possibly infinite seed; filtrations interleave neighbourhood balls across
connected components exactly as the colimit construction prescribes, with
every stage a finite full subseed connected to the next only by its own
coefficients. There is one such tower: a triangulation's filtration is the
tower of its seed, grown from one base arc per component. A mutation in the
infinite seed is computed on the least stage that admits it; the stage's
inclusion into the colimit is a cluster morphism that keeps the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import count, islice, pairwise
from typing import Iterator, Protocol, Sequence

from .disc import (
    Arc,
    ArcFamily,
    FiniteTriangulation,
    InfiniteTriangulation,
    _chord_from_label,
    chord_label,
    seed_from_triangulation,
    triangulation_components,
)
from .errors import (
    IncompatibleCone,
    LabelCollision,
    NotAdmissible,
    NotAdmissibleAtStage,
    NotAnArc,
    NotFullSubseed,
    NotOnlyCoefficients,
    NotSkewSymmetrizable,
    OracleInconsistent,
    ParseError,
    ResourceLimit,
    SeedMismatch,
    UnknownVertex,
)
from .laurent import LaurentPoly, VarId
from .morphisms import (
    ClusterMap,
    VerificationReport,
    check_cm1_cm2,
    check_cm3,
)
from .seeds import (
    Memo,
    Seed,
    _check_matrix,
    _classes,
    _disjoint_union,
    fresh_label,
    grow,
    mutate_sequence,
)

DEFAULT_MAX_STAGES = 64
# Arcs per family materialized to find one base arc per connected component.
COMPONENT_WINDOW = 8


class SeedOracle(Protocol):
    """Pure, locally finite view of a (possibly infinite) seed."""

    def neighbor_row(self, v: VarId) -> dict[VarId, int]:
        """The nonzero matrix row of v."""
        ...

    def is_exchangeable(self, v: VarId) -> bool:
        ...

    def is_vertex(self, v: VarId) -> bool:
        """Whether v labels a vertex of the seed."""
        ...

    def representatives(self) -> list[VarId]:
        """One base vertex per connected component, in stage entry order."""
        ...


# -- built-in oracles -----------------------------------------------------------


class FiniteSeedOracle:
    """Wraps a finite seed; radius past the diameter reproduces it whole."""

    def __init__(self, seed: Seed):
        self.seed = seed.reroot()

    def neighbor_row(self, v: VarId) -> dict[VarId, int]:
        return dict(self.seed.matrix.get(v, {}))

    def is_exchangeable(self, v: VarId) -> bool:
        return v in self.seed.exchangeable

    def is_vertex(self, v: VarId) -> bool:
        return v in self.seed.labels

    def representatives(self) -> list[VarId]:
        """The least label of each component, read from its class."""
        return [min(c) for c in _classes(self.seed, self.seed.labels)]


class PathQuiverOracle:
    """Doubly infinite path quiver ... -> xm1 -> x0 -> x1 -> ..., every
    variable exchangeable. Negative positions are written xm1, xm2, ...
    ('m' for minus: the '-' sign is a term separator in Laurent text)."""

    @staticmethod
    def label(i: int) -> VarId:
        return f"x{i}" if i >= 0 else f"xm{-i}"

    def _index(self, v: VarId) -> int:
        """The position v names; a label whose digits int cannot read (x²,
        or past int's length limit) names none."""
        negative = v.startswith("xm")
        body = v[2:] if negative else v[1:]
        if v.startswith("x") and body.isdigit():
            try:
                i = int(body)
            except ValueError:
                i = -1
            if i > 0 or (i == 0 and not negative):
                return -i if negative else i
        raise OracleInconsistent(f"unknown path-quiver label {v!r}")

    def neighbor_row(self, v: VarId) -> dict[VarId, int]:
        i = self._index(v)
        return {self.label(i + 1): 1, self.label(i - 1): -1}

    def is_exchangeable(self, v: VarId) -> bool:
        self._index(v)
        return True

    def is_vertex(self, v: VarId) -> bool:
        try:
            return self.label(self._index(v)) == v
        except OracleInconsistent:
            return False

    def representatives(self) -> list[VarId]:
        return ["x0"]


class TriangulationOracle:
    """Seed oracle of a finitely described infinite triangulation. Its
    labels are canonical arc labels (chord_label's n/d~n/d), each read to
    its chord on integers once per oracle; a label in any other form names
    no vertex, and a row or exchangeability asked for one is a ParseError."""

    def __init__(
        self,
        tri: InfiniteTriangulation,
        representatives: Sequence[VarId] | None = None,
    ):
        self.tri = tri
        if representatives is None:
            representatives = [p[0].label for p in triangulation_components(tri, COMPONENT_WINDOW)]
        self._reps = list(representatives)
        self._chords = Memo(_chord_from_label)

    def neighbor_row(self, v: VarId) -> dict[VarId, int]:
        """The row of v; each chord it names is recorded under its label, so
        no label the oracle made is parsed back."""
        row = {}
        for c, s in self.tri.chord_row(self._chords[v]).items():
            label = chord_label(c)
            self._chords.setdefault(label, c)
            row[label] = s
        return row

    def is_exchangeable(self, v: VarId) -> bool:
        return self.tri.chord_exchangeable(self._chords[v])

    def is_vertex(self, v: VarId) -> bool:
        if "'" in v:  # a label mutation made: no arc label holds a prime
            return False
        try:
            c = self._chords[v]
        except ParseError:
            return False
        return self.tri.chord_in(c)

    def representatives(self) -> list[VarId]:
        return list(self._reps)


def fan_oracle() -> TriangulationOracle:
    """One-sided infinite fan: base 0, tips 1/2 - 1/(2k) accumulating at
    1/2 from the right."""
    tri = InfiniteTriangulation(
        families=(
            ArcFamily(
                "right-fountain",
                limit=Fraction(1, 2),
                scale=Fraction(1, 2),
                start=2,
                base=Fraction(0),
            ),
        )
    )
    return TriangulationOracle(
        tri, representatives=[Arc.of(Fraction(0), Fraction(1, 4)).label]
    )


def split_fountain_oracle() -> TriangulationOracle:
    """The split fountain: fans at 1/4 and 3/4 converging to the limit
    point 0 from either side, with the non-exchangeable internal arc
    {1/4, 3/4} in the middle."""
    tri = InfiniteTriangulation(
        families=(
            ArcFamily(
                "left-fountain",
                limit=Fraction(0),
                scale=Fraction(1, 2),
                start=4,
                base=Fraction(1, 4),
            ),
            ArcFamily(
                "right-fountain",
                limit=Fraction(0),
                scale=Fraction(1, 2),
                start=4,
                base=Fraction(3, 4),
            ),
        ),
        extra_arcs=frozenset({Arc.of(Fraction(1, 4), Fraction(3, 4))}),
        finite_points=(Fraction(1, 2), Fraction(1, 6), Fraction(5, 6)),
    )
    return TriangulationOracle(
        tri,
        representatives=[
            Arc.of(Fraction(1, 4), Fraction(1, 8)).label,
            Arc.of(Fraction(1, 4), Fraction(1, 2)).label,
            Arc.of(Fraction(3, 4), Fraction(7, 8)).label,
        ],
    )


def nest_oracle() -> TriangulationOracle:
    """A nest around 1/2: zigzag arcs between a_k = 1/2 - 1/(4k) and
    b_k = 1/2 + 1/(4k); connected (a nest has no limit arc)."""
    tri = InfiniteTriangulation(
        families=(
            ArcFamily(
                "nest",
                limit=Fraction(1, 2),
                scale=Fraction(1, 4),
                start=1,
            ),
        )
    )
    return TriangulationOracle(
        tri, representatives=[Arc.of(Fraction(1, 4), Fraction(3, 4)).label]
    )


ORACLES = {
    "path-quiver": PathQuiverOracle,
    "fan": fan_oracle,
    "split-fountain": split_fountain_oracle,
    "nest": nest_oracle,
}


# -- the colimit tower: balls, stages, filtrations -----------------------------------


def _oracle_balls(oracle: SeedOracle, center: VarId) -> Iterator[Seed]:
    """materialize_ball(oracle, center, r) for r = 0, 1, 2, ...: a row is
    fetched when its vertex enters the ball, exchangeability is asked when
    the vertex leaves the outer shell. A ball's rows are built on positions
    from the oracle rows, restricted to the ball and without zero entries,
    and only its matrix is left to check (its labels are distinct and its
    exchangeables lie in it): a ball that _check_matrix finds not
    skew-symmetrizable makes the oracle inconsistent."""
    rows = Memo(oracle.neighbor_row)
    exchangeable: set[VarId] = set()
    for ball, shell in grow(center, rows.__getitem__):
        labels = tuple(sorted(ball))  # so the rows of the shell are fetched in sorted order
        at = {v: i for i, v in enumerate(labels)}
        ball_rows = tuple({at[w]: b for w, b in rows[v].items() if b and w in at} for v in labels)
        try:
            _check_matrix(labels, ball_rows)
        except NotSkewSymmetrizable as exc:
            raise OracleInconsistent(f"ball at {center!r} is not skew-symmetrizable: {exc}")
        yield Seed._from_positions(labels, frozenset(map(at.__getitem__, exchangeable)), ball_rows)
        exchangeable |= {v for v in sorted(shell) if oracle.is_exchangeable(v)}


def materialize_ball(oracle: SeedOracle, center: VarId, radius: int) -> Seed:
    """The neighbourhood ball of the colimit construction: the radius-0
    ball is ({center}, {}, [0]); each step adds all neighbours, and the
    exchangeables of the radius-(i+1) ball are the radius-i cluster
    intersected with the oracle's exchangeables."""
    return next(islice(_oracle_balls(oracle, center), radius, None))


def _interleave(components: Sequence[Iterator[Seed]]) -> Iterator[Seed]:
    """The colimit tower: stage i is the coproduct of component j's
    (i-j)-th seed, so component j enters at stage j and every component
    grows by one radius per stage. A stage is the initial seed of its
    balls' positional forms laid end to end by _disjoint_union, which
    checks nothing but that no label is shared by two components."""
    for i in count():
        try:
            labels, ex, rows = _disjoint_union([next(c) for c in components[: i + 1]])
        except LabelCollision as exc:
            raise OracleInconsistent(f"component representatives are not disconnected: {exc}")
        yield Seed._from_positions(labels, ex, rows)


def oracle_tower(oracle: SeedOracle) -> Iterator[Seed]:
    """Stage i holds the radius-(i-j) ball of each component j <= i."""
    return _interleave([_oracle_balls(oracle, r) for r in oracle.representatives()])


@dataclass(frozen=True)
class Filtration:
    """Tower of finite full subseeds whose consecutive inclusions are rooted
    cluster morphisms by construction, built as identity maps when
    `inclusions` is first read. Each exchangeable of a ball is a label of
    the ball before it, so its whole oracle row lies in the ball; rows come
    from one Memo, so they agree between radii; every stage is built before
    any pair is read, and a label shared by two components raises in
    _interleave. So stage i is a full subseed of stage i + 1, met only
    through its coefficients."""

    stages: tuple[Seed, ...]
    provenance: str

    @cached_property
    def inclusions(self) -> tuple[ClusterMap, ...]:
        return tuple(ClusterMap(a, b, {l: l for l in a.labels}) for a, b in pairwise(self.stages))


def check_only_coefficients(
    inner: Seed, outer: Seed
) -> tuple[bool, VarId | None]:
    """Pass iff every inner label with an outside neighbour is a
    coefficient of inner. Raises NotFullSubseed if inner is not a full
    subseed of outer."""
    inner_labels = set(inner.labels)
    outer_labels = set(outer.labels)
    if not inner_labels <= outer_labels:
        raise NotFullSubseed("inner cluster is not contained in the outer cluster")
    if not inner.exchangeable <= outer.exchangeable:
        raise NotFullSubseed("inner exchangeables are not outer exchangeables")
    for v in inner.labels:
        row = outer.matrix.get(v, {})
        if inner.matrix.get(v, {}) != {w: b for w, b in row.items() if w in inner_labels}:
            # the first differing entry in label order names the mismatch
            w = next(w for w in inner.labels if inner.b(v, w) != outer.b(v, w))
            raise NotFullSubseed(f"matrix entry ({v!r}, {w!r}) is not the outer restriction")
    for v in sorted(inner.exchangeable):
        for w in outer.neighbours(v):
            if w not in inner_labels:
                return False, v
    return True, None


def inclusion_morphism(inner: Seed, outer: Seed) -> ClusterMap:
    """Identity-on-labels morphism of a full subseed connected only by its
    coefficients. check_only_coefficients decides the morphism conditions
    for this map: (1) is inner.exchangeable <= outer.exchangeable, (2)
    holds as no two labels share an image, and (3) asks that each
    exchangeable's outer row equal its inner row, that is, that its
    neighbours lie in inner."""
    ok, witness = check_only_coefficients(inner, outer)
    if not ok:
        raise NotOnlyCoefficients(witness)
    return ClusterMap(inner, outer, {l: l for l in inner.labels})


def build_filtration(oracle: SeedOracle, steps: int) -> Filtration:
    """The first `steps` stages of the oracle's tower (component j enters
    at stage j, radius growing by one per stage), each a full subseed of
    the next met only through its coefficients (see Filtration)."""
    return Filtration(tuple(islice(oracle_tower(oracle), steps)), "oracle-balls")


# -- stable mutation ---------------------------------------------------------------


def _mutate_tracking(seed: Seed, sequence: Sequence[VarId], target: VarId):
    """Mutate along the sequence; returns (value, ok, blocking_step). The
    target's descendant sits at the target's position (see mutate_seed)."""
    try:
        mutated = mutate_sequence(seed, sequence)
    except NotAdmissible as exc:
        return None, False, sequence[exc.index]
    return mutated._vals[seed.labels.index(target)], True, None


def _check_steps(oracle: SeedOracle, sequence: Sequence[VarId]) -> None:
    """Each step names a vertex no earlier step mutated away, or a live label
    an earlier step made: fresh_label over the live made labels, as in every
    stage, unless that is a vertex still present, which makes it ambiguous."""
    gone, made = set(), set()
    for step in sequence:
        if step in made:
            made.remove(step)
        elif step in gone:
            raise NotAdmissibleAtStage(step)
        elif oracle.is_vertex(step):
            gone.add(step)
        else:
            raise UnknownVertex(step)
        fresh = fresh_label(step, made)
        if fresh not in gone and oracle.is_vertex(fresh):
            raise ParseError(
                f"mutating {step!r} makes {fresh!r}, also a vertex of the oracle's seed"
            )
        made.add(fresh)


def stable_mutation(
    oracle: SeedOracle,
    sequence: Sequence[VarId],
    target: VarId,
    max_stages: int = DEFAULT_MAX_STAGES,
) -> tuple[LaurentPoly, int]:
    """Value of the mutated target in the least stage where the sequence is
    admissible and the target is present, and that stage's index; no later
    stage is built. Each stage's inclusion is a rooted cluster morphism
    (see Filtration). The sequence is biadmissible for it, and CM3 gives
    the same value in every later stage and in the colimit. The target and
    the step names are checked against the oracle before any stage is
    built; a step blocked at a vertex of the stage before (inner here, so
    flagged as in the oracle) can never become admissible."""
    if not oracle.is_vertex(target):
        raise UnknownVertex(target)
    _check_steps(oracle, sequence)
    inner = ()  # the stage before: its vertices are inner here
    for i, stage in zip(range(max_stages), oracle_tower(oracle)):
        if target in stage.labels:
            value, ok, blocker = _mutate_tracking(stage, sequence, target)
            if ok:
                return value, i
            if blocker in inner and blocker not in stage.exchangeable:
                raise NotAdmissibleAtStage(blocker)
        inner = stage.labels
    raise ResourceLimit(
        f"no stage up to {max_stages} admits the sequence {tuple(sequence)!r} "
        f"with target {target!r}"
    )


# -- mediating morphism ---------------------------------------------------------------


def mediating_morphism(
    fil: Filtration, cone: Sequence[ClusterMap], depth: int = 4
) -> tuple[ClusterMap, VerificationReport]:
    """The unique map out of the filtration's top stage agreeing with a
    compatible cone; well-definedness is verified labelwise, CM1/CM2 must
    hold, and CM3 is checked to the given depth."""
    if len(cone) != len(fil.stages):
        raise IncompatibleCone("<arity>", (len(cone), len(fil.stages)))
    target = cone[0].target
    for i, (stage, g) in enumerate(zip(fil.stages, cone)):
        if not g.source.same_seed(stage):
            raise SeedMismatch(f"cone map {i} is not rooted at stage {i}")
        if not g.target.same_seed(target):
            raise SeedMismatch("cone maps must share one target seed")
    for i in range(len(cone)):
        for j in range(i + 1, len(cone)):
            for x in fil.stages[i].labels:
                if cone[j].assignment[x] != cone[i].assignment[x]:
                    raise IncompatibleCone(x, (i, j))
    assignment = dict(cone[-1].assignment)
    med = ClusterMap(fil.stages[-1], target, assignment)
    _, cm2, wit = check_cm1_cm2(med)  # CM1 holds by the shape of the map
    if not cm2:  # and CM2 fails only with a witness
        raise IncompatibleCone(wit[0], ("cm2", None))
    report = check_cm3(med, depth)
    return med, report


# -- triangulation filtrations -----------------------------------------------------------


def triangulation_filtration(
    tri: InfiniteTriangulation | FiniteTriangulation,
    steps: int,
    base_arcs: Sequence[Arc] | None = None,
) -> Filtration:
    """The colimit tower of a triangulation's seed, grown from one base arc
    per component (by default the first arc of each triangulation_components
    part): stage i holds component j's radius-(i-j) ball, as in
    oracle_tower, each a full subseed of the next (see Filtration). A
    finite triangulation is read through its seed."""
    if base_arcs is None:
        base_arcs = [p[0] for p in triangulation_components(tri, COMPONENT_WINDOW)]
    centers = [a.label for a in base_arcs]
    if isinstance(tri, FiniteTriangulation):
        oracle: SeedOracle = FiniteSeedOracle(seed_from_triangulation(tri))
    else:
        oracle = TriangulationOracle(tri, centers)
    for a, v in zip(base_arcs, centers):
        if not oracle.is_vertex(v):
            raise NotAnArc(f"{a} is not an arc of the triangulation")
    tower = _interleave([_oracle_balls(oracle, v) for v in centers])
    return Filtration(tuple(islice(tower, steps)), "triangulation-glueing")
