"""Candidate maps between rooted cluster algebras and their verification.

A ClusterMap assigns each source cluster label a target label or an
integer. Its algebra-level extension substitutes the assignment into
Laurent expansions over the source initial cluster; an optional table of
extra generator images covers ring generators whose substitution image is
0/0-indeterminate (the ideal-morphism counterexample needs one). All
CM3-style verification is depth-bounded and says so; nothing is claimed
globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    Inconclusive,
    InvalidSeed,
    NonLaurentImage,
    NotDivisible,
    NotSimilar,
    SeedMismatch,
)
from .laurent import Ambient, LaurentPoly, VarId, format_poly, lp_exact_div, substitute
from .seeds import (
    DEFAULT_NODE_BUDGET,
    Memo,
    Seed,
    _mutated_form,
    _subseed,
    enumerate_cluster_variables,
    exchangeably_connected_components,
    explore,
    mutate_seed,
    verify_similarity_bijection,
)

Image = VarId | int

DEFAULT_CM3_DEPTH = 4


@dataclass(frozen=True)
class ClusterMap:
    """A candidate rooted cluster morphism, given on the initial cluster.

    Both endpoint seeds are re-rooted on construction (each label's value
    becomes its own monomial): a rooted cluster algebra depends only on
    (cluster, exchangeables, matrix). Seed.reroot shares each seed's
    positional form and checks nothing, and no value is made until one is
    read.
    """

    source: Seed
    target: Seed
    assignment: dict[VarId, Image]
    extra: dict[LaurentPoly, Image] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "source", self.source.reroot())
        object.__setattr__(self, "target", self.target.reroot())
        # images are built on the target's ambient, as its values are
        object.__setattr__(self, "_ambient", Ambient(self.target.labels))
        src_labels = set(self.source.labels)
        tgt_labels = set(self.target.labels)
        if set(self.assignment) != src_labels:
            raise InvalidSeed("assignment must be total on the source labels")
        for x, img in self.assignment.items():
            if isinstance(img, bool) or not isinstance(img, (int, str)):
                raise InvalidSeed(f"image of {x!r} must be a label or an integer")
            if isinstance(img, str) and img not in tgt_labels:
                raise InvalidSeed(f"image label {img!r} is not a target label")
        for gen, img in self.extra.items():
            if isinstance(img, bool) or not isinstance(img, (int, str)):
                raise InvalidSeed(f"extra image of {format_poly(gen)} must be a label or an integer")
            if isinstance(img, str) and img not in tgt_labels:
                raise InvalidSeed(f"extra image label {img!r} is not a target label")
            if not gen.variables() <= src_labels:
                raise InvalidSeed(
                    "extra generators must be Laurent polynomials in the "
                    "source cluster"
                )
            scaled, k = substitute(gen, self.assignment, self._ambient)
            if scaled != self._resolve(img) * self._ambient.const(k):
                raise InvalidSeed(
                    f"extra generator image is inconsistent: f({format_poly(gen)}) "
                    f"cannot be {img!r}"
                )

    # -- algebra-level extension -------------------------------------------

    def _resolve(self, img: Image) -> LaurentPoly:
        if isinstance(img, str):
            return self.target.values[img]  # re-rooted: the variable itself
        return self._ambient.const(img)

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        """Image of a Laurent polynomial over the source initial cluster.

        Substitution; on a 0/0-indeterminate quotient, the extra generator
        table is consulted for the exact value. Raises NonLaurentImage when
        the image leaves the target Laurent ring (inverted zero, or an
        inexact integer division).
        """
        scaled, k = substitute(p, self.assignment, self._ambient)
        if not k:
            if scaled.is_zero():
                hit = self.extra.get(p)
                if hit is not None:
                    return self._resolve(hit)
                raise NonLaurentImage(
                    f"image of {format_poly(p)} is 0/0-indeterminate and no "
                    "extra generator image is declared"
                )
            raise NonLaurentImage(
                f"image of {format_poly(p)} inverts a variable specialized to 0"
            )
        if k == 1:
            return scaled
        try:
            return lp_exact_div(scaled, self._ambient.const(k))
        except NotDivisible as exc:
            raise NonLaurentImage(
                f"image of {format_poly(p)} leaves the integer Laurent ring"
            ) from exc

    def is_without_specializations(self) -> bool:
        return all(isinstance(i, str) for i in self.assignment.values())


# -- CM1 / CM2 ----------------------------------------------------------------


@dataclass(frozen=True)
class Cm3Counterexample:
    sequence: tuple[VarId, ...]
    variable: VarId
    lhs: LaurentPoly
    rhs: LaurentPoly


@dataclass(frozen=True)
class VerificationReport:
    cm1: bool
    cm2: bool
    cm2_witnesses: tuple[VarId, ...]
    cm3_verified_to: int | None
    counterexample: Cm3Counterexample | None
    depth: int
    nodes: int

    @property
    def passed(self) -> bool:
        return self.cm1 and self.cm2 and self.counterexample is None


def check_cm1_cm2(m: ClusterMap) -> tuple[bool, bool, tuple[VarId, ...]]:
    """CM1 holds by the shape of the assignment; CM2 fails with witnesses
    when an exchangeable variable maps to a non-exchangeable target label."""
    witnesses = tuple(
        x
        for x in sorted(m.source.exchangeable)
        if isinstance(m.assignment[x], str)
        and m.assignment[x] not in m.target.exchangeable
    )
    return True, not witnesses, witnesses


# -- biadmissible enumeration ---------------------------------------------------


class _PairState(NamedTuple):
    src: Seed
    tgt: Seed
    sequence: tuple[VarId, ...]
    last: int | None  # source position mutated last


def _image_slots(m: ClusterMap) -> tuple[int | None, ...]:
    """For each source position, the target position of its label image
    (None for an integer image). Mutation keeps positions, so the table
    holds in every pair of seeds along a biadmissible sequence."""
    where = {l: j for j, l in enumerate(m.target.labels)}
    images = (m.assignment[x] for x in m.source.labels)
    return tuple(where[img] if isinstance(img, str) else None for img in images)


def _in_label_order(s: Seed) -> list[int]:
    return sorted(s._ex, key=s.labels.__getitem__)


def _biadmissible_steps(state: _PairState, slots: Sequence[int | None]) -> list[int]:
    """The source positions a biadmissible step may mutate at, in label
    order: exchangeable, with an exchangeable target image."""
    return [i for i in _in_label_order(state.src) if slots[i] in state.tgt._ex]


def _advance(state: _PairState, i: int, slots: Sequence[int | None]) -> _PairState:
    # The target mutates at the image's position, so every source variable
    # whose image is that element follows the mutation, not only the one at i.
    x = state.src.labels[i]
    src = mutate_seed(state.src, x)
    tgt = mutate_seed(state.tgt, state.tgt.labels[slots[i]])
    return _PairState(src, tgt, state.sequence + (x,), i)


def _walk_biadmissible(
    m: ClusterMap, slots: Sequence[int | None], depth: int, max_nodes: int
) -> Iterable[_PairState]:
    """Breadth-first over biadmissible sequences, shortest first and
    lexicographic within a length; yields every visited state including
    the root. Sequences are counted, not states. Both walks use the
    source's exchange table, made an interning one: the target root's
    values are interned there, so a value both walks reach is one object
    and is divided once."""
    t, table = m.target, m.source._interning_exchanges()
    vals = tuple(table.setdefault(p, p) for p in t._vals)
    tgt = Seed._from_positions(t.labels, t._ex, t._rows, vals, table)
    return explore(
        _PairState(m.source, tgt, (), None),
        lambda st: (_advance(st, i, slots) for i in _biadmissible_steps(st, slots)),
        depth,
        max_nodes,
        f"biadmissible enumeration exceeded {max_nodes} nodes",
    )


def enumerate_biadmissible(
    m: ClusterMap, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> list[tuple[VarId, ...]]:
    """All biadmissible sequences of length <= depth (the empty sequence
    included), shortest first."""
    return [st.sequence for st in _walk_biadmissible(m, _image_slots(m), depth, max_nodes)]


# -- CM3 -----------------------------------------------------------------------


def check_cm3(
    m: ClusterMap, depth: int = DEFAULT_CM3_DEPTH, max_nodes: int = DEFAULT_NODE_BUDGET
) -> VerificationReport:
    """Verify f(mu_seq(y)) == mu_f(seq)(f(y)) for every biadmissible
    sequence up to the depth and every initial variable with non-integer
    image; exact equality of Laurent polynomials.

    The recorded counterexample is deterministic: sequences in BFS order
    (shortest, then lexicographically least); within a sequence, the
    variable mutated by its last step is checked first (the exchange
    relation itself), then the remaining initial labels in label order.
    A pair that the last step left unchanged passed at the parent, so it
    is not checked again; the map is applied once per distinct value.
    """
    cm1, cm2, cm2_wit = check_cm1_cm2(m)
    slots = _image_slots(m)
    tracked = [i for i, j in enumerate(slots) if j is not None]
    images = Memo(m.apply)  # by value; errors propagate
    nodes = 0
    counterexample = None
    for st in _walk_biadmissible(m, slots, depth, max_nodes):
        nodes += 1
        order = tracked
        if st.last is not None:
            # the step changed the source value at `last` and the target
            # value at its slot; every other pair passed at the parent
            last = st.last
            order = [last] + [i for i in tracked if i != last and slots[i] == slots[last]]
        for i in order:
            lhs = images[st.src._vals[i]]
            rhs = st.tgt._vals[slots[i]]
            if lhs != rhs:
                counterexample = Cm3Counterexample(st.sequence, m.source.labels[i], lhs, rhs)
                break
        if counterexample:
            break
    return VerificationReport(
        cm1=cm1,
        cm2=cm2,
        cm2_witnesses=cm2_wit,
        cm3_verified_to=depth if counterexample is None else None,
        counterexample=counterexample,
        depth=depth,
        nodes=nodes,
    )


def biadmissible_descendant(m: ClusterMap, sequence: Sequence[VarId]) -> ClusterMap:
    """The induced map between the seeds mutated along a biadmissible
    sequence and its image sequence."""
    slots = _image_slots(m)
    st = _PairState(m.source, m.target, (), None)
    for x in sequence:
        labels = st.src.labels
        if x not in labels or (i := labels.index(x)) not in _biadmissible_steps(st, slots):
            raise SeedMismatch(f"sequence {sequence!r} is not biadmissible at {x!r}")
        st = _advance(st, i, slots)
    position = {y: i for i, y in enumerate(m.source.labels)}
    assignment: dict[VarId, Image] = {}
    for y, img in m.assignment.items():
        i = position[y]
        assignment[st.src.labels[i]] = img if slots[i] is None else st.tgt.labels[slots[i]]
    return ClusterMap(st.src, st.tgt, assignment)


# -- Theorem classification for maps without specializations --------------------


@dataclass(frozen=True)
class NoSpecReport:
    condition1: bool
    condition2: bool
    condition3: bool
    witnesses: tuple[str, ...]
    component_signs: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3


def check_no_specialization_conditions(
    m: ClusterMap, depth: int = DEFAULT_CM3_DEPTH, max_nodes: int = DEFAULT_NODE_BUDGET
) -> NoSpecReport:
    """The characterization of the maps without specializations whose
    algebraic extension is a rooted cluster morphism, in three passes over
    positions; a condition holds when it records no witness. (2) falls back
    from the sufficient row-equality criterion to a depth-bounded search for
    a replayable sign conflict. If neither settles it, Inconclusive is raised
    only when (1) and (3) record no witness; else the map is refuted, and (2) holds."""
    if not m.is_without_specializations():
        raise InvalidSeed("the characterization applies to maps without specializations")
    src, tgt, f = m.source, m.target, m.assignment
    labels, rows = src.labels, src._rows
    ex = _in_label_order(src)
    witnesses: list[str] = []

    # (1) injective on exchangeables, into the target exchangeables
    seen: dict[VarId, VarId] = {}  # a third sharer is named against the one before it
    for x in map(labels.__getitem__, ex):
        if f[x] not in tgt.exchangeable:
            witnesses.append(f"condition1: {x} -> {f[x]} is not exchangeable")
        if f[x] in seen:
            witnesses.append(f"condition1: {seen[f[x]]} and {x} share the image {f[x]}")
        seen[f[x]] = x
    n1 = len(witnesses)  # the witnesses of (1)

    # (2) collisions only between coefficients, with stable neighbour signs
    by_image: dict[VarId, list[int]] = {}
    for i, x in enumerate(labels):
        by_image.setdefault(f[x], []).append(i)
    pairs = []  # colliding pairs whose rows differ on an exchangeable
    for img, at in sorted(by_image.items()):
        for i in at:
            if len(at) > 1 and i in src._ex:
                witnesses.append(f"condition2: exchangeable {labels[i]} shares image {img}")
        for i, j in combinations(at, 2):
            if any(rows[i].get(v, 0) != rows[j].get(v, 0) for v in src._ex):
                pairs.append((i, j))
    undecided = None  # raised after (3), unless (1) or (3) records a witness
    if pairs and len(witnesses) == n1:
        try:
            conflict = _condition2_search(src, pairs, depth, max_nodes)
            if conflict is None:
                raise Inconclusive(
                    "condition (2): the sufficient criterion fails for "
                    f"{[(labels[i], labels[j]) for i, j in pairs]} and no sign conflict "
                    f"was found to depth {depth}",
                    condition="condition2",
                )
            text = "condition2: sequence {} gives opposite signs b[{}][{}]={} vs b[{}][{}]={}"
            witnesses.append(text.format(*conflict))
        except Inconclusive as exc:  # no conflict to depth, or over budget (a ResourceLimit)
            undecided = exc
    cond2 = len(witnesses) == n1

    # (3) per exchangeably connected component of the image seed, one sign s
    # with each member's target row == s * its row's sum on target positions
    slots, signs = _image_slots(m), []
    for comp in exchangeably_connected_components(image_seed(m)):
        allowed = {1, -1}
        for i in [i for i in ex if f[labels[i]] in comp.exchangeable]:
            sums: dict[int, int] = {}
            for j, b in rows[i].items():
                sums[slots[j]] = sums.get(slots[j], 0) + b
            row = tgt._rows[slots[i]]  # stored rows hold no zero; only the sums drop theirs
            allowed &= {s for s in (1, -1) if row == {k: s * b for k, b in sums.items() if b}}
            if not allowed:
                witnesses.append(
                    f"condition3: row of {f[labels[i]]} is not the signed image sum of "
                    f"the row of {labels[i]} (component of {comp.labels[0]})"
                )
                break
        signs.append(max(allowed, default=0))
    if undecided is not None and not witnesses:
        raise undecided
    return NoSpecReport(n1 == 0, cond2, 0 not in signs, tuple(witnesses), tuple(signs))


def _condition2_search(seed: Seed, pairs: list[tuple[int, int]], depth: int, max_nodes: int):
    """The first admissible sequence, with its entries, after which some
    exchangeable z neighbours both positions of a colliding coefficient pair
    with opposite signs, or None; `max_nodes` counts sequences. Mutation
    keeps positions, and coefficients keep their labels, so the walk reads
    positions; steps and each z come in label order, as in _seed_class.
    The walk reads rows only, so it mutates them with _mutated_form and
    builds no value, and no error path of mutate_seed is lost: the seed is
    re-rooted and skew-symmetrizable, so by the Laurent phenomenon no
    exchange division could raise NotDivisible, and a cluster's variables
    are distinct, so no two positions could share a value (InvalidSeed)."""
    def children(node):
        seq, s = node
        for k in _in_label_order(s):
            labels, rows = _mutated_form(s.labels, s._rows, k)
            yield seq + (s.labels[k],), Seed._from_positions(labels, s._ex, rows)

    exceeded = f"condition-2 search exceeded {max_nodes} nodes"
    for seq, s in explore(((), seed), children, depth, max_nodes, exceeded):
        for x, y in pairs:
            for z in _in_label_order(s):
                bx, by = s._rows[z].get(x, 0), s._rows[z].get(y, 0)
                if bx * by < 0:
                    return (seq, s.labels[z], s.labels[x], bx, s.labels[z], s.labels[y], by)
    return None


# -- image seed and ideal witnesses ---------------------------------------------


def image_seed(m: ClusterMap) -> Seed:
    """(f(X) n X', f(ex) n ex', restricted matrix): the full subseed of the
    target on the image labels, whose exchangeables are images of source
    exchangeables that land in target exchangeables."""
    t, ex_images = m.target, {m.assignment[x] for x in m.source.exchangeable}
    ex = [i for i in t._ex if t.labels[i] in ex_images]
    return _subseed(t, set(m.assignment.values()), ex)


@dataclass(frozen=True)
class IdealReport:
    status: str  # "witness" | "ideal-to-depth"
    witness: LaurentPoly | None
    depth: int

    @property
    def is_witness(self) -> bool:
        return self.status == "witness"


def check_ideal_witness(
    m: ClusterMap, depth: int = DEFAULT_CM3_DEPTH, max_nodes: int = DEFAULT_NODE_BUDGET
) -> IdealReport:
    """Search for an image value provably outside the cluster algebra of
    the image seed. Membership is decidable only when the image seed has no
    exchangeable variables: its class is then its root, a polynomial ring on
    its labels; otherwise the report is 'ideal-to-depth', meaning no provable
    witness at this depth. The source is walked and its values mapped
    first, whatever the verdict; the target is walked only when membership
    is decided, the one verdict that reads its values, and the image seed,
    whose class is then its root, never. The caller is responsible for
    having verified m as a rooted cluster morphism to the same depth."""
    images = [m.apply(p) for p in enumerate_cluster_variables(m.source, depth, max_nodes)]
    img_seed = image_seed(m)
    if not img_seed.exchangeable:
        target_vars = set(enumerate_cluster_variables(m.target, depth, max_nodes))
        coeffs = set(img_seed.labels)
        for img in images:
            if img not in target_vars:
                continue
            inside = all(
                e > 0 and v in coeffs for mono in img.terms for v, e in mono
            )
            if not inside:
                return IdealReport("witness", img, depth)
    return IdealReport("ideal-to-depth", None, depth)


# -- composition and similarity ---------------------------------------------------


def compose(g: ClusterMap, f: ClusterMap) -> ClusterMap:
    """g after f; integer images absorb (a unital ring homomorphism fixes
    the integers). Extra generator tables do not compose and must be empty."""
    if f.extra or g.extra:
        raise SeedMismatch("maps with extra generator images do not compose")
    if not f.target.same_seed(g.source):
        raise SeedMismatch("target of f must equal the source of g")
    by_value = {g.source.values[l]: l for l in g.source.labels}
    translate = {l: by_value[f.target.values[l]] for l in f.target.labels}
    assignment: dict[VarId, Image] = {}
    for x, img in f.assignment.items():
        if isinstance(img, int):
            assignment[x] = img
        else:
            assignment[x] = g.assignment[translate[img]]
    return ClusterMap(f.source, g.target, assignment)


def identity_map(seed: Seed) -> ClusterMap:
    return ClusterMap(seed, seed, {l: l for l in seed.labels})


def morphism_from_similarity(
    bijection: Mapping[VarId, VarId], s: Seed, t: Seed
) -> tuple[ClusterMap, ClusterMap]:
    """Forward and inverse ClusterMaps induced by a similarity bijection.
    verify_similarity_bijection decides the morphism conditions for both:
    a bijection that sends exchangeables onto exchangeables satisfies (1)
    and (2), and one that sends each component's rows onto one
    component's rows up to one sign satisfies (3), and so does its
    inverse."""
    if not verify_similarity_bijection(s, t, bijection):
        raise NotSimilar("the bijection is not a similarity witness")
    forward = ClusterMap(s, t, dict(bijection))
    inverse = ClusterMap(t, s, {w: v for v, w in bijection.items()})
    return forward, inverse
