"""Seeds, mutation, admissible sequences, components, coproducts, similarity.

A seed is a cluster of labelled variables (each carrying its value as a
Laurent polynomial over some ambient variable set), an exchangeable subset,
and a sparse skew-symmetrizable exchange matrix indexed by the labels.
Seeds are immutable; mutation returns a new seed. Equality of seeds is
decided through the value-preserving label correspondence: labels are
bookkeeping, values are not.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import count
from math import gcd, lcm
from types import MappingProxyType
from typing import Callable, Container, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
    InvalidSeed,
    LabelCollision,
    NotAdmissible,
    NotExchangeable,
    NotSkewSymmetrizable,
    ResourceLimit,
    SearchBudgetExceeded,
)
from . import laurent
from .laurent import Ambient, LaurentPoly, VarId, format_poly, on_one_ambient

Matrix = dict[VarId, dict[VarId, int]]

DEFAULT_NODE_BUDGET = 100_000

T = TypeVar("T")


class derived:
    """An attribute computed on its first read and kept in the instance
    `__dict__`, where every later read finds it first: a non-data
    descriptor, as functools.cached_property is, without the lock that one
    takes on each first read before Python 3.12. So an attribute already
    in `__dict__` is never derived."""

    def __init__(self, derive: Callable):
        self.derive, self.name, self.__doc__ = derive, derive.__name__, derive.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.derive(obj)
        return value


# the key of a plain exchange table's root values: its presence marks the
# table plain (see Seed._exchanges)
_PLAIN = object()


def _shared_value(first: VarId, second: VarId, value: LaurentPoly):
    raise InvalidSeed(f"labels {first!r} and {second!r} share the value {format_poly(value)}")


def _distinct_values(labels: Sequence[VarId], values: Mapping[VarId, LaurentPoly]) -> tuple[LaurentPoly, ...]:
    """The values by position in `labels`, on one ambient so mutation never
    re-encodes; raises InvalidSeed at the first value two labels share,
    naming them in label order."""
    values = on_one_ambient(values)
    seen: dict[LaurentPoly, VarId] = {}
    for v in labels:
        first = seen.setdefault(values[v], v)
        if first != v:
            _shared_value(first, v, values[v])
    return tuple(map(values.__getitem__, labels))


def _freeze_matrix(entries: Mapping[VarId, Mapping[VarId, int]]) -> Matrix:
    # zeros go first, so a row of zeros is no row
    return {v: r for v, row in entries.items() if (r := {w: b for w, b in row.items() if b})}


class Seed:
    """Triple (cluster, exchangeable subset, exchange matrix) with values.

    A seed stores one form, the positional one mutation reads and writes:
    `labels`, `_vals` (the values by position), `_rows` (each row as
    {position: b}) and `_ex` (the exchangeable positions); `values`,
    `matrix` and `exchangeable` are derived from it on first read, and are
    read-only (`values`, `matrix` and its rows are mapping proxies), as a
    write to them would reach neither the positional form nor mutation. The
    constructor is the one route that checks: it checks the label form,
    last that the matrix is skew-symmetrizable (_check_matrix, raising
    NotSkewSymmetrizable with its witness), so every seed has a zero
    diagonal and sign-skew support; it keeps no dict of the caller's. A
    seed built from seeds (by mutation, reroot, full_subseed, opposite_seed
    or coproduct), a triangulation or an oracle passes these checks by
    construction, and `_from_positions` builds it with none."""

    def __init__(
        self,
        labels: tuple[VarId, ...],
        exchangeable: frozenset[VarId],
        matrix: Matrix,
        values: dict[VarId, LaurentPoly],
    ):
        at = {v: i for i, v in enumerate(labels)}
        if len(at) != len(labels):
            raise InvalidSeed("duplicate labels in cluster")
        if not at.keys() >= exchangeable:
            extra = sorted(exchangeable - at.keys())
            raise InvalidSeed(f"exchangeable labels not in cluster: {extra}")
        rows: list[dict[int, int]] = [{} for _ in labels]
        for v, row in matrix.items():
            if v not in at:
                raise InvalidSeed(f"matrix row {v!r} not in cluster")
            r = rows[at[v]]
            for w, b in row.items():
                if w not in at:
                    raise InvalidSeed(f"matrix column {w!r} not in cluster")
                if b == 0:
                    raise InvalidSeed("zero entries must not be stored")
                r[at[w]] = b
        if values.keys() != at.keys():
            raise InvalidSeed("values must be given for exactly the cluster labels")
        vals = _distinct_values(labels, values)
        rows = tuple(rows)
        _check_matrix(labels, rows)
        self.__dict__.update(labels=labels, _ex=frozenset(map(at.__getitem__, exchangeable)), _rows=rows, _vals=vals)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # -- the label form, derived from the positional form ---------------------

    @derived
    def values(self) -> Mapping[VarId, LaurentPoly]:
        return MappingProxyType(dict(zip(self.labels, self._vals)))

    @derived
    def matrix(self) -> Mapping[VarId, Mapping[VarId, int]]:
        labels = self.labels
        return MappingProxyType({
            labels[i]: MappingProxyType({labels[j]: b for j, b in row.items()})
            for i, row in enumerate(self._rows) if row
        })

    @derived
    def exchangeable(self) -> frozenset[VarId]:
        return frozenset(map(self.labels.__getitem__, self._ex))

    @derived
    def _vals(self) -> tuple[LaurentPoly, ...]:
        """An initial seed's values, each label's own variable: the objects
        Seed.initial makes. A seed built any other way holds its values."""
        ambient = Ambient(self.labels)
        return tuple(map(ambient.var, self.labels))

    @derived
    def _exchanges(self) -> dict:
        """mutate_seed's table, beside the seed's content: a plain one,
        made on the first mutation of a seed that has none. It holds this
        seed's values under the one key _PLAIN, which marks it plain and
        keeps alive every value whose id() its exchange keys name (the
        others are its quotients). It stores no value as a key, so a plain
        lineage hashes no value; equal values from two divisions stay two
        objects. The walks that key values by identity replace it with an
        interning table (_interning_exchanges)."""
        return {_PLAIN: self._vals}

    def _interning_exchanges(self) -> dict:
        """The seed's exchange table as an interning one, made now unless
        the seed already has one: it holds each value as itself, this
        seed's from the start. A plain table is replaced; the seeds already
        mutated from it keep it. In an interning table equal values are one
        object, so id() tells values apart: _seed_class and the CM3 walk
        key values by identity, and pay one hash per value for it."""
        table = self.__dict__.get("_exchanges")
        if table is None or _PLAIN in table:
            table = self.__dict__["_exchanges"] = {p: p for p in self._vals}
        return table

    @derived
    def _walk_key(self):
        """canonical_key on the values' ids: equal within one exchange table
        exactly when canonical_key is."""
        return self._key_on(tuple(map(id, self._vals)))

    # -- construction -----------------------------------------------------

    @classmethod
    def _from_positions(cls, labels, ex, rows, vals=None, exchanges=None) -> "Seed":
        """A seed in positional form that passes every check of the
        constructor by construction, so it runs none: `labels` a tuple of
        distinct labels, `ex` a frozenset of positions, `rows` a tuple of
        {position: b} with no zero entry and a skew-symmetrizable matrix,
        `vals` distinct values on one ambient. With `exchanges` the seed
        holds `vals` on that table, whose own objects they must be, as
        mutation's seeds do; with `vals` alone it starts without a table;
        without either it is the initial seed of its labels, whose `_vals`
        are derived on first read."""
        seed = object.__new__(cls)
        # mutation's path comes first, one update: a second update on it cost
        # mutation walks about 5% of their throughput (CPython 3.11)
        if exchanges is not None:
            seed.__dict__.update(labels=labels, _ex=ex, _rows=rows, _vals=vals, _exchanges=exchanges)
        elif vals is not None:
            seed.__dict__.update(labels=labels, _ex=ex, _rows=rows, _vals=vals)
        else:
            seed.__dict__.update(labels=labels, _ex=ex, _rows=rows)
        return seed

    @classmethod
    def initial(
        cls,
        labels: Sequence[VarId],
        exchangeable: Iterable[VarId],
        entries: Iterable[tuple[VarId, VarId, int]] | Mapping[VarId, Mapping[VarId, int]],
    ) -> "Seed":
        """Seed whose values are the label monomials themselves."""
        if isinstance(entries, Mapping):
            matrix = _freeze_matrix(entries)
        else:
            matrix: Matrix = {}
            for v, w, b in entries:
                if b:
                    matrix.setdefault(v, {})[w] = b
        ambient = Ambient(labels)
        values = {v: ambient.var(v) for v in labels}
        return cls(tuple(labels), frozenset(exchangeable), matrix, values)

    @classmethod
    def empty(cls) -> "Seed":
        return cls((), frozenset(), {}, {})

    # -- queries ------------------------------------------------------------

    def b(self, v: VarId, w: VarId) -> int:
        return self.matrix.get(v, {}).get(w, 0)

    def row(self, v: VarId) -> dict[VarId, int]:
        return dict(self.matrix.get(v, {}))

    def neighbours(self, v: VarId) -> set[VarId]:
        """The labels of v's row: the support is sign-skew, so its column
        holds the same ones."""
        return set(self.matrix.get(v, ()))

    def reroot(self) -> "Seed":
        """Forget values: the initial seed on this seed's positional form,
        each label its own variable, made on first read. A rooted cluster
        algebra depends only on (cluster, exchangeables, matrix), and this
        matrix passed _check_matrix or is skew-symmetrizable by
        construction, so nothing is checked again."""
        return Seed._from_positions(self.labels, self._ex, self._rows)

    def canonical_key(self):
        """Equality key under the value-preserving label correspondence: the
        values, the exchangeable values and the matrix entries between
        values. Values in a seed are distinct, so labels play no part. The
        key is built once per seed and kept on it."""
        return self._key

    @derived
    def _key(self):
        return self._key_on(self._vals)

    def _key_on(self, val: Sequence[Hashable]):
        """The three sets of canonical_key with position i read as val[i]."""
        return (
            frozenset(val),
            frozenset(map(val.__getitem__, self._ex)),
            frozenset([(val[i], val[j], b) for i, row in enumerate(self._rows) for j, b in row.items()]),
        )

    def same_seed(self, other: "Seed") -> bool:
        return self.canonical_key() == other.canonical_key()

    def __repr__(self):
        ex = ",".join(sorted(self.exchangeable))
        return f"Seed(labels={list(self.labels)!r}, ex={{{ex}}})"


# -- skew-symmetrizability ----------------------------------------------------


def check_skew_symmetrizable(seed: Seed) -> dict[VarId, int]:
    """Least positive integral symmetrizer per connected component: the
    walk of _symmetrizer on the seed's rows. Every seed's matrix passed
    _check_matrix or is skew-symmetrizable by construction, so for a seed
    it never raises."""
    return _symmetrizer(seed.labels, seed._rows)


def _check_matrix(labels: Sequence[VarId], rows: Sequence[Mapping[int, int]]) -> None:
    """Raise NotSkewSymmetrizable, with _symmetrizer's witness, unless the
    matrix with the given rows is skew-symmetrizable. Each entry is compared
    with its transpose; a skew-symmetric matrix needs no ratio walk, and
    only any other is walked."""
    if any(rows[j].get(i) != -b for i, r in enumerate(rows) for j, b in r.items()):
        _symmetrizer(labels, rows)


def _symmetrizer(labels: Sequence[VarId], rows: Sequence[Mapping[int, int]]) -> dict[VarId, int]:
    """Least positive integral symmetrizer per connected component of the
    matrix with the given rows, by label.

    A sign pass over each position's row and column support, then
    _ratio_step propagated along nonzero entries, first in, first out,
    with denominators cleared componentwise; raises NotSkewSymmetrizable
    with a witness pair (sign violation, a diagonal entry at (v, v)
    included) or cycle (inconsistent ratios). Positions are visited in
    label order, so the witness follows label order, not string hashes.
    """
    order = sorted(range(len(labels)), key=labels.__getitem__)
    support: list[set[int]] = [set() for _ in labels]
    for i, r in enumerate(rows):
        for j in r:
            support[i].add(j)
            support[j].add(i)
    neighbours = [sorted(s, key=labels.__getitem__) for s in support]
    b = lambda i, j: rows[i].get(j, 0)
    for v in order:
        for w in neighbours[v]:
            bvw, bwv = b(v, w), b(w, v)
            if bvw * bwv > 0 or (bvw == 0) != (bwv == 0):
                raise NotSkewSymmetrizable(
                    f"sign violation at ({labels[v]!r}, {labels[w]!r}): b={bvw}, b'={bwv}",
                    witness=(labels[v], labels[w]),
                )

    d: dict[int, tuple[int, int]] = {}
    parent: dict[int, int] = {}
    result: dict[VarId, int] = {}
    for root in order:
        if root in d:
            continue
        d[root] = (1, 1)
        parent[root] = root
        component = [root]  # first in, first out: read while it grows
        for v in component:
            for w in neighbours[v]:
                dw = _ratio_step(d[v], b(v, w), b(w, v))
                if d.setdefault(w, dw) != dw:
                    cycle = tuple(labels[u] for u in _trace_cycle(parent, v, w))
                    raise NotSkewSymmetrizable(
                        f"inconsistent symmetrizer ratios on cycle {cycle}",
                        witness=cycle,
                    )
                if w not in parent:  # found just now
                    parent[w] = v
                    component.append(w)
        # the gcd of reduced fractions n / m is gcd(n) / lcm(m); divide by it
        top = gcd(*(d[v][0] for v in component))
        bottom = lcm(*(d[v][1] for v in component))
        for v in component:
            result[labels[v]] = d[v][0] // top * (bottom // d[v][1])
    return result


def _ratio_step(dv: tuple[int, int], bvw: int, bwv: int) -> tuple[int, int]:
    """d_w from d_v by d_w / d_v = -b_vw / b_wv, for entries of opposite
    signs; each d is a reduced pair (n, m), m > 0, standing for n / m."""
    n, m = dv[0] * abs(bvw), dv[1] * abs(bwv)
    g = gcd(n, m)
    return n // g, m // g


def _trace_cycle(parent: Mapping[int, int], v: int, w: int) -> tuple[int, ...]:
    path_v = [v]
    while parent[path_v[-1]] != path_v[-1]:
        path_v.append(parent[path_v[-1]])
    path_w = [w]
    while parent[path_w[-1]] != path_w[-1]:
        path_w.append(parent[path_w[-1]])
    common = set(path_v) & set(path_w)
    cut_v = [x for x in path_v if x not in common]
    cut_w = [x for x in path_w if x not in common]
    meet = next(x for x in path_v if x in common)
    return tuple(cut_v + [meet] + list(reversed(cut_w)))


# -- mutation --------------------------------------------------------------


def fresh_label(old: VarId, taken: Container[VarId]) -> VarId:
    """Primed-counter label scheme: x, x'1, x'2, ... A suffix after the
    last prime is a counter only when int reads it: x'² (a digit int does
    not read) or a suffix past int's length limit is part of the base."""
    base, n = old, 0
    if "'" in old:
        stem, _, suffix = old.rpartition("'")
        if suffix.isdigit():
            try:
                base, n = stem, int(suffix)
            except ValueError:
                pass
    while True:
        n += 1
        candidate = f"{base}'{n}"
        if candidate not in taken:
            return candidate


def _exchangeable_at(seed: Seed, x: VarId) -> int | None:
    """x's position in seed.labels if x is an exchangeable label, else None."""
    labels = seed.labels
    if x in labels and (at := labels.index(x)) in seed._ex:
        return at
    return None


def mutate_seed(seed: Seed, x: VarId) -> Seed:
    """Mutation at an exchangeable variable: exchange relation for the value,
    standard matrix mutation, fresh primed label for the mutated variable.

    Every label keeps its position in `labels`, and the fresh label takes
    the position of x; so a variable's descendant along any sequence sits
    at the variable's position, and callers track variables by position.
    Mutation reads and writes only the positional form of a seed (`_vals`,
    `_rows`, `_ex`), its labels and the exchange table, so it builds no
    label-keyed dict; the exchangeable positions never change. A seed's
    matrix is skew-symmetrizable, with a zero diagonal and sign-skew
    support: so b_vx and b_xv never share a sign, the 2-path update never
    writes b_vv, and mutation keeps the matrix skew-symmetrizable, with
    the same symmetrizer, and is an involution.

    The exchange table is shared by every seed of a lineage. The new value
    comes from the table before any division. An exchange key is the id of
    x's value with the frozenset of (neighbour's value id, b_xv) over x's
    row: that fixes the numerator N = P + Q, so it fixes the quotient
    x' = N / x. A division stores that entry and the reverse one,
    (x', {(v, -b_xv)}) -> x, which is exact because N = x * x'; a failed
    division stores no entry. The table is created in the `__dict__` of the
    seed a lineage starts from, on its first mutation, and a seed built any
    other way starts without one, except the target root of a CM3 walk,
    which shares the source's.

    A table is plain or interning (see Seed._exchanges). A plain table,
    the one a plain mutate_seed call creates, stores no value as a key, so
    no quotient is hashed: a lineage divides each exchange relation once
    per set of value objects, and the distinct-value check compares the
    new value with the other positions' values by equality, term count
    first. An interning table, which _seed_class and the CM3 walk create,
    holds each value as itself, the root's from the start and each
    quotient when it is divided, and every seed of its lineage holds the
    table's own objects: so equal values are one object, each exchange
    relation is divided once, and the walk's bookkeeping hashes id() of
    values, integers. There a quotient stored as a new key is no value of
    the seed, so only a value that was a key is tested against the other
    positions, by identity.

    Labels and rows come from _mutated_form, and values by slicing."""
    at = _exchangeable_at(seed, x)
    if at is None:
        raise NotExchangeable(x)
    vals = seed._vals
    row = seed._rows[at]
    table, old = seed._exchanges, vals[at]
    interning = _PLAIN not in table
    key = (id(old), frozenset([(id(vals[j]), e) for j, e in row.items()]))
    new_value, quotient = table.get(key), None
    if new_value is None:
        pos = neg = None
        for j, e in row.items():
            v, a = vals[j], abs(e)
            f = v if a == 1 else v * v if a == 2 else v ** a
            if e > 0:
                pos = f if pos is None else pos * f
            else:
                neg = f if neg is None else neg * f
        if pos is None or neg is None:  # an empty side is 1, on the other's ambient or x's
            one = (old if pos is neg else pos if neg is None else neg)._amb.const(1)
            pos, neg = one if pos is None else pos, one if neg is None else neg
        # Looked up on the module per call, so a rebinding there applies here too.
        new_value = quotient = laurent.lp_exact_div(pos + neg, old)
        if interning:
            new_value = table.setdefault(quotient, quotient)
        table[key] = new_value
        table[id(new_value), frozenset([(i, -e) for i, e in key[1]])] = old

    labels, rows = _mutated_form(seed.labels, seed._rows, at)
    if interning:
        if new_value is not quotient and new_value is not old and id(new_value) in map(id, vals):
            j = [*map(id, vals)].index(id(new_value))
            _shared_value(labels[min(j, at)], labels[max(j, at)], new_value)
    else:
        n = len(new_value._keys)
        for j, v in enumerate(vals):
            if len(v._keys) == n and j != at and v == new_value:
                _shared_value(labels[min(j, at)], labels[max(j, at)], new_value)
    vals = vals[:at] + (new_value,) + vals[at + 1:]
    return Seed._from_positions(labels, seed._ex, rows, vals, table)


def _mutated_form(labels: tuple[VarId, ...], rows: tuple[dict[int, int], ...], at: int):
    """The labels and rows after mutation at x, the variable at position
    `at`; the whole of matrix mutation (Fomin-Zelevinsky): the fresh label
    takes `at`, x's row and column change sign, and b_vw gains |b_vx| b_xw
    where b_vx and b_xw agree in sign. Only x's row and the rows holding x
    are rebuilt; every other row is shared, since no code edits a seed's
    row in place. The support is sign-skew, so x's column holds the
    positions of x's row: the rows holding x are found from x's row, with
    no scan over every row. Labels stay distinct (the fresh label is new),
    and no zero is stored."""
    labels = labels[:at] + (fresh_label(labels[at], labels),) + labels[at + 1:]
    row = rows[at]
    new_rows = list(rows)
    if row:
        new_rows[at] = {j: -e for j, e in row.items()}
    for i in row:
        new_rows[i] = r = dict(rows[i])
        c = r[at]
        r[at] = -c
        for w, e in row.items():
            if (c > 0) == (e > 0):
                n = r.get(w, 0) + abs(c) * e
                if n:
                    r[w] = n
                else:
                    del r[w]
    return labels, tuple(new_rows)


def mutate_sequence(seed: Seed, sequence: Sequence[VarId]) -> Seed:
    current = seed
    for i, step in enumerate(sequence):
        if _exchangeable_at(current, step) is None:
            cause = "is not exchangeable" if step in current.labels else "is not a label of the seed"
            raise NotAdmissible(sequence, i, cause)
        current = mutate_seed(current, step)
    return current


def is_admissible(seed: Seed, sequence: Sequence[VarId]) -> bool:
    try:
        mutate_sequence(seed, sequence)
    except NotAdmissible:
        return False
    return True


def explore(
    root: T,
    children: Callable[[T], Iterable[T]],
    depth: int,
    max_nodes: int,
    exceeded: str,
    key: Callable[[T], Hashable] | None = None,
) -> Iterator[T]:
    """Breadth-first walk to the given depth: the root, then each level in
    the order `children` produces it. With `key`, a node whose key was
    already seen is skipped. Every yielded node, the root included, counts
    against `max_nodes`; a node that takes the count over it raises
    ResourceLimit(exceeded), so a budget below 1 admits not even the root."""
    if max_nodes < 1:
        raise ResourceLimit(exceeded)
    seen = {key(root)} if key is not None else None
    yield root
    frontier = [root]
    nodes = 1
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for child in children(node):
                if seen is not None:
                    k = key(child)
                    if k in seen:
                        continue
                    seen.add(k)
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceLimit(exceeded)
                yield child
                nxt.append(child)
        frontier = nxt
        if not frontier:
            break


class Memo(dict):
    """A table that computes each absent key once: a miss stores and returns
    compute(key), and a computation that raises stores nothing. A hit is a
    plain dict lookup."""

    def __init__(self, compute: Callable[[Hashable], object]):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def grow(center: T, neighbours: Callable[[T], Iterable[T]]) -> Iterator[tuple[set, set]]:
    """Balls around center, radius by radius, each with its outer shell:
    the radius-(r+1) ball is the radius-r ball plus the neighbours of its
    outer shell, so each vertex's neighbours are asked for once, when the
    vertex leaves the outer shell. The shell is empty once the ball is the
    center's whole class."""
    ball, shell = {center}, {center}
    while True:
        yield ball, shell
        shell = {w for v in sorted(shell) for w in neighbours(v)} - ball
        ball = ball | shell


def _seed_class(seed: Seed, depth: int, max_nodes: int) -> Iterator[Seed]:
    """The seed's mutation class, breadth first to `depth`: each seed once,
    keyed by _walk_key, the root included.

    The root's exchange table is made an interning one (replacing a plain
    one), so the walk's seeds hold its objects, one per value: seeds and
    values are then keyed by _walk_key and id() of values, on integers,
    and each exchange relation is divided once. Mutation is an involution:
    when mutate_seed(s, x) gives t, mutating t at its new value gives s
    back. So `back` records (key of t, new value), and a seed with that key
    skips the mutation at that value: it could only lead to s, a seed
    already seen. Each exchange-graph edge is then crossed once. `back`
    holds value ids, not positions or labels, since seeds with one key may
    hold their values at different positions. mutate_seed is looked up per
    call, so a rebinding on the module applies here too."""
    seed._interning_exchanges()
    back: set = set()

    def children(s: Seed) -> Iterator[Seed]:
        key, vals, labels = s._walk_key, s._vals, s.labels
        for i in sorted(s._ex, key=labels.__getitem__):  # in label order
            if (key, id(vals[i])) not in back:
                t = mutate_seed(s, labels[i])
                back.add((t._walk_key, id(t._vals[i])))
                yield t

    return explore(
        seed,
        children,
        depth,
        max_nodes,
        f"seed frontier exceeded the node budget of {max_nodes}",
        key=lambda s: s._walk_key,
    )


def enumerate_cluster_variables(
    seed: Seed, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> list[LaurentPoly]:
    """All values occurring in seeds reachable by admissible sequences of
    length <= depth; deduplicated by value, in deterministic BFS order.
    The walk's seeds hold one object per value, so ids tell values apart."""
    values = {id(p): p for s in _seed_class(seed, depth, max_nodes) for p in s._vals}
    return list(values.values())


def enumerate_seeds(
    seed: Seed, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> list[Seed]:
    """Distinct seeds reachable within depth, BFS order (the mutation class,
    truncated)."""
    return list(_seed_class(seed, depth, max_nodes))


# -- components ---------------------------------------------------------------


def full_subseed(seed: Seed, labels: Iterable[VarId]) -> Seed:
    """Full subseed on the given labels, laid out by _subseed: restricted
    matrix, exchangeables inherited, the seed's value objects kept."""
    keep = set(labels)
    if not keep <= set(seed.labels):
        raise InvalidSeed("subseed labels must belong to the seed")
    return _subseed(seed, keep, seed._ex)


def _subseed(seed: Seed, keep: Container[VarId], ex: Iterable[int]) -> Seed:
    """The full subseed on the labels in `keep`, exchangeable at the
    positions of `ex` among them, with the seed's value objects. A principal
    submatrix is skew-symmetrizable with the symmetrizer restricted, and
    distinct values stay distinct, so nothing is checked."""
    at = [i for i, v in enumerate(seed.labels) if v in keep]
    new = {i: k for k, i in enumerate(at)}
    rows, vals = seed._rows, seed._vals
    return Seed._from_positions(
        tuple(seed.labels[i] for i in at),
        frozenset(new[i] for i in ex if i in new),
        tuple({new[j]: b for j, b in rows[i].items() if j in new} for i in at),
        tuple(vals[i] for i in at),
    )


def _classes(seed: Seed, members: Iterable[VarId]) -> list[set[VarId]]:
    """Classes of members connected through members under the neighbour
    relation, ordered by their least member."""
    members = set(members)
    near = lambda v: seed.neighbours(v) & members
    classes: list[set[VarId]] = []
    placed: set[VarId] = set()
    for v in sorted(members):
        if v not in placed:
            # the class is the last ball grown from its least member
            cls = next(ball for ball, shell in grow(v, near) if not shell)
            placed |= cls
            classes.append(cls)
    return classes


def connected_components(seed: Seed) -> list[Seed]:
    """Partition under the neighbour relation, each part a full subseed.
    Parts are ordered by their least label."""
    return [full_subseed(seed, c) for c in _classes(seed, seed.labels)]


def exchangeably_connected_components(seed: Seed) -> list[Seed]:
    """Exchangeably connected components, one per class of exchangeable
    variables connected through exchangeable interior vertices; each
    component also contains the coefficients reachable by a length-1 path
    from one of its exchangeable members. Coefficients may belong to
    several components; coefficients adjacent to no exchangeable variable
    belong to none."""
    components = []
    for cls in _classes(seed, seed.exchangeable):
        labels = set(cls)
        for x in cls:
            labels |= seed.neighbours(x)
        components.append(full_subseed(seed, labels))
    return components


def _disjoint_union(seeds: Iterable[Seed]) -> tuple[tuple, frozenset[int], tuple[dict[int, int], ...]]:
    """(labels, exchangeable positions, rows) of the seeds' disjoint union,
    each seed's positions shifted by the count of labels before it. Blocks
    that are skew-symmetrizable make a skew-symmetrizable block-diagonal
    matrix, so only labels are checked: LabelCollision at the first repeat."""
    labels: list[VarId] = []
    ex: list[int] = []
    rows: list[dict[int, int]] = []
    for s in seeds:
        offset = len(labels)
        labels += s.labels
        ex += [offset + j for j in s._ex]
        # the first seed's rows are shared: no code edits a row in place
        rows += [{offset + j: b for j, b in r.items()} for r in s._rows] if offset else s._rows
    if len(set(labels)) < len(labels):
        raise LabelCollision(next(v for i, v in enumerate(labels) if v in labels[:i]))
    return tuple(labels), frozenset(ex), tuple(rows)


def coproduct(seeds: Sequence[Seed]) -> Seed:
    """Disjoint union of clusters, exchangeable sets, and matrices, laid out
    by _disjoint_union. Values of different summands may coincide, so they
    are checked as the constructor checks them; the matrix is not."""
    labels, ex, rows = _disjoint_union(seeds)
    values = dict(zip(labels, (p for s in seeds for p in s._vals)))
    return Seed._from_positions(labels, ex, rows, _distinct_values(labels, values))


def opposite_seed(seed: Seed) -> Seed:
    """The seed with matrix -B: it is skew-symmetrizable with B's
    symmetrizer, so nothing is checked."""
    rows = tuple({j: -b for j, b in r.items()} for r in seed._rows)
    return Seed._from_positions(seed.labels, seed._ex, rows, seed._vals)


# -- similarity ---------------------------------------------------------------


def verify_similarity_bijection(
    s: Seed, t: Seed, bijection: Mapping[VarId, VarId]
) -> bool:
    """Re-verify a similarity witness directly against the definition: a
    bijection of labels that keeps exchangeability and maps the rows of
    each exchangeably connected component of s onto the rows of one of t,
    up to one sign per component."""
    if set(bijection) != set(s.labels) or set(bijection.values()) != set(t.labels):
        return False
    if len(s.labels) != len(t.labels):  # two labels share an image
        return False
    if {bijection[x] for x in s.exchangeable} != set(t.exchangeable):
        return False
    t_components = {
        frozenset(c.labels): c for c in exchangeably_connected_components(t)
    }
    for comp in exchangeably_connected_components(s):
        target = t_components.get(frozenset(bijection[v] for v in comp.labels))
        if target is None:
            return False
        rows = {
            bijection[v]: {bijection[w]: b for w, b in row.items()}
            for v, row in comp.matrix.items()
        }
        if rows != target.matrix and rows != opposite_seed(target).matrix:
            return False
    return True


def check_similar(
    s: Seed, t: Seed, budget: int = 200_000
) -> dict[VarId, VarId] | None:
    """Search for a similarity bijection; None is a definitive 'not similar',
    SearchBudgetExceeded means the search space was not exhausted.

    Depth first over a stack of choice levels: each source component chooses
    a free target component of its size and a sign, then each of its labels,
    most neighbours first, an image consistent with the labels placed before
    it. A level makes its choice when it yields and undoes it when resumed;
    each component, sign and image tried counts one node of the budget."""
    s_comps = exchangeably_connected_components(s)
    t_comps = exchangeably_connected_components(t)
    if len(s_comps) != len(t_comps):
        return None
    if len(s.labels) != len(t.labels) or len(s.exchangeable) != len(t.exchangeable):
        return None
    nodes = count(1)

    def spend():
        if next(nodes) > budget:
            raise SearchBudgetExceeded(f"similarity search exceeded budget of {budget}")

    # Components may share coefficient labels, so all component isos extend
    # one global partial bijection.
    assignment: dict[VarId, VarId] = {}
    used: set[VarId] = set()
    t_used = [False] * len(t_comps)
    chosen: list[tuple[int, int]] = [(0, 0)] * len(s_comps)  # (target component, sign)
    orders = [sorted(a.labels, key=lambda v: (-len(a.neighbours(v)), v)) for a in s_comps]
    pools = [dict.fromkeys(sorted(b.labels)) for b in t_comps]  # ordered, with O(1) membership

    def component(i: int) -> Iterator[bool]:
        a = s_comps[i]
        for j, b in enumerate(t_comps):
            if t_used[j] or len(a.labels) != len(b.labels) or len(a.exchangeable) != len(b.exchangeable):
                continue
            t_used[j] = True
            for sign in (1, -1):
                spend()
                chosen[i] = j, sign
                yield True
            t_used[j] = False

    def image(i: int, k: int) -> Iterator[bool]:
        a, order, (j, sign) = s_comps[i], orders[i], chosen[i]
        b, v, pool = t_comps[j], order[k], pools[j]
        fixed = assignment.get(v)  # a coefficient an earlier component placed
        candidates = [w for w in pool if w not in used] if fixed is None else [fixed]
        for w in candidates:
            if w not in pool or (w in b.exchangeable) != (v in a.exchangeable):
                continue  # outside this component, or of the other kind
            spend()
            if any(b.b(w, assignment[u]) != sign * a.b(v, u) or b.b(assignment[u], w) != sign * a.b(u, v)
                   for u in order[:k]):
                continue
            if fixed is None:
                assignment[v] = w
                used.add(w)
            yield True
            if fixed is None:
                del assignment[v]
                used.remove(w)

    plan = [(i, k) for i, order in enumerate(orders) for k in range(-1, len(order))]
    stack: list[Iterator[bool]] = []
    while len(stack) < len(plan):
        i, k = plan[len(stack)]
        stack.append(component(i) if k < 0 else image(i, k))
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                return None

    bijection = dict(assignment)
    # Coefficients in no exchangeably connected component: unconstrained,
    # matched in canonical order.
    s_rest = sorted(set(s.labels) - set(bijection))
    t_rest = sorted(set(t.labels) - set(bijection.values()))  # as many as s_rest
    bijection.update(zip(s_rest, t_rest))
    if not verify_similarity_bijection(s, t, bijection):
        return None
    return bijection
