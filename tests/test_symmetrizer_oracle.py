"""Differential oracle: skew-symmetrizability against sympy.

Integer matrices of rank at most six with any support (one-way entries,
entries of equal sign both ways, diagonal entries) go to `Seed.initial` and
to sympy. The seed must be built exactly when the matrix has a zero
diagonal, sign-skew support and a positive solution d of the linear system
d_i b_ij + d_j b_ji = 0; its symmetrizer must then be sympy's least positive
integral solution on each connected component, and mutation must keep
D B skew-symmetric with the root's D.
"""

from math import gcd, lcm

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterlab.errors import NotSkewSymmetrizable  # noqa: E402
from clusterlab.seeds import Seed, check_skew_symmetrizable, mutate_seed  # noqa: E402


@st.composite
def any_support_matrices(draw):
    """A dense matrix on 1-6 positions: mostly a skew-symmetrizable one
    (b_ij = s d_j, b_ji = -s d_i) with up to two entries then negated,
    dropped, scaled or set, the diagonal included; now and then one with
    every entry drawn on its own."""
    n = draw(st.integers(1, 6))
    b = [[0] * n for _ in range(n)]
    if draw(st.integers(0, 4)) == 0:
        for i in range(n):
            for j in range(n):
                b[i][j] = draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
        return b
    d = [draw(st.integers(1, 3)) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = draw(st.sampled_from([0, 0, 1, -1]))
            b[i][j], b[j][i] = s * d[j], -s * d[i]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(["negate", "drop", "scale", "set"]))
        if how == "negate":
            b[i][j] = -b[i][j]
        elif how == "drop":
            b[i][j] = 0
        elif how == "scale":
            b[i][j] *= draw(st.integers(2, 3))
        else:
            b[i][j] = draw(st.sampled_from([1, -1, 2]))
    return b


def sympy_symmetrizer(b) -> list[int] | None:
    """The least positive integral solution d of d_i b_ij + d_j b_ji = 0 on
    each connected component of the support, by position, or None when
    the diagonal is not zero, the support is not sign-skew or sympy finds
    no positive solution."""
    n = len(b)
    if any(b[i][i] for i in range(n)):
        return None
    if any(b[i][j] * b[j][i] > 0 or (b[i][j] == 0) != (b[j][i] == 0) for i in range(n) for j in range(n)):
        return None
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if b[i][j]]
    d = [0] * n
    placed: set[int] = set()
    for root in range(n):
        if root in placed:
            continue
        component, k = [root], 0
        while k < len(component):
            v = component[k]
            k += 1
            for w in range(n):
                if b[v][w] and w not in component:
                    component.append(w)
        placed |= set(component)
        rows = [[b[i][j] if u == i else b[j][i] if u == j else 0 for u in component]
                for i, j in pairs if i in component]
        if not rows:
            d[root] = 1
            continue
        space = sympy.Matrix(rows).nullspace()
        # sign-skew support ties every entry of a component's solution to one
        assert len(space) <= 1
        if not space:
            return None
        x = list(space[0])
        x = [-e for e in x] if x[0] < 0 else x
        if not all(e > 0 for e in x):
            return None
        scale = lcm(*(sympy.fraction(e)[1] for e in x))
        ints = [int(e * scale) for e in x]
        g = gcd(*ints)
        for u, e in zip(component, ints):
            d[u] = e // g
    return d


@settings(max_examples=150, deadline=None)
@given(any_support_matrices(), st.lists(st.integers(0, 5), max_size=4))
def test_the_constructor_agrees_with_sympy(b, walk):
    n = len(b)
    labels = [f"v{i}" for i in range(n)]
    entries = [(labels[i], labels[j], b[i][j]) for i in range(n) for j in range(n)]
    expected = sympy_symmetrizer(b)
    try:
        seed = Seed.initial(labels, labels, entries)
    except NotSkewSymmetrizable:
        assert expected is None
        return
    assert expected is not None
    d = check_skew_symmetrizable(seed)
    assert d == dict(zip(labels, expected))
    # mutation keeps D B skew-symmetric with the root's D, position by position
    for step in walk:
        seed = mutate_seed(seed, seed.labels[step % n])
        bb = [[seed.b(v, w) for w in seed.labels] for v in seed.labels]
        assert all(expected[i] * bb[i][j] == -expected[j] * bb[j][i] for i in range(n) for j in range(n))
