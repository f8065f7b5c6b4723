"""Independent references for the benchmark's verdicts.

Nothing here calls clusterlab. Values are checked by evaluating the
canonical Laurent text a verdict carries at a rational point and comparing
with the exchange relation run directly on Fractions; counts are checked
against closed forms for the finite types.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import comb


class Mismatch(Exception):
    """A verdict disagrees with its reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# -- exchange relation on Fractions -------------------------------------------


def mutate(labels: list, matrix: list, values: list, k: int, new_label: str):
    """Mutation at position k: x_k' = (prod_{b_ki>0} x_i^b_ki +
    prod_{b_ki<0} x_i^-b_ki) / x_k and the matrix-mutation rule, on a dense
    integer matrix. Returns new (labels, matrix, values); inputs are kept."""
    n = len(labels)
    row = matrix[k]
    pos = neg = Fraction(1)
    for i, b in enumerate(row):
        if b > 0:
            pos *= values[i] ** b
        elif b < 0:
            neg *= values[i] ** -b
    values = list(values)
    values[k] = (pos + neg) / values[k]
    matrix = [
        [
            -matrix[i][j]
            if k in (i, j)
            else matrix[i][j]
            + (abs(matrix[i][k]) * matrix[k][j] + matrix[i][k] * abs(matrix[k][j])) // 2
            for j in range(n)
        ]
        for i in range(n)
    ]
    labels = list(labels)
    labels[k] = new_label
    return labels, matrix, values


def walk_values(matrix: list, point: list, walk: list) -> list:
    """Values of every position after mutating along `walk` (positions)."""
    labels = list(range(len(point)))
    values = list(point)
    for k in walk:
        labels, matrix, values = mutate(labels, matrix, values, k, k)
    return values


# -- exchange matrices in closed form --------------------------------------------------


def path_quiver_matrix(labels: list) -> list:
    """The path ... -> x_{i-1} -> x_i -> x_{i+1} -> ... on labels x<i> and
    xm<i> (for x_{-i})."""
    index = [-int(l[2:]) if l.startswith("xm") else int(l[1:]) for l in labels]
    return [[(w - v) if abs(w - v) == 1 else 0 for w in index] for v in index]


def triangulation_matrix(labels: list) -> list:
    """Exchange matrix of arcs of a disc triangulation, labelled "p~q" by
    their endpoints on the circle [0, 1): each triangle with corners
    a < b < c whose three sides are all labels gives the arrows
    {a,b} -> {b,c} -> {a,c} -> {a,b}. Three arcs of a triangulation that
    close up always bound one of its triangles. Triangles with a side
    outside the labels are missed, so a row is complete only for an arc
    whose two triangles are both among the labels (four nonzero entries)."""
    index = {}
    for i, label in enumerate(labels):
        p, q = label.split("~")
        index[frozenset((Fraction(p), Fraction(q)))] = i
    n = len(labels)
    matrix = [[0] * n for _ in range(n)]
    for a, b, c in combinations(sorted(set().union(*index)), 3):
        sides = [index.get(frozenset(side)) for side in ((a, b), (b, c), (a, c))]
        if None in sides:
            continue
        for i, j in zip(sides, sides[1:] + sides[:1]):
            matrix[i][j] += 1
            matrix[j][i] -= 1
    return matrix


# -- canonical Laurent text -------------------------------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")


def _signed_terms(text: str):
    parts = _TERM_SPLIT.split(text)
    first = parts[0]
    sign = 1
    if first.startswith("-"):
        sign, first = -1, first[1:]
    yield sign, first
    for op, term in zip(parts[1::2], parts[2::2]):
        yield (1 if op == "+" else -1), term


def evaluate(text: str, point: dict) -> Fraction:
    """Value of canonical Laurent text ("c*v^e*w + ...") at a point given as
    a label -> Fraction map."""
    if text == "0":
        return Fraction(0)
    total = Fraction(0)
    powers: dict = {}
    for sign, term in _signed_terms(text):
        value = Fraction(sign)
        for factor in term.split("*"):
            if factor.isdigit():
                value *= int(factor)
                continue
            name, _, exp = factor.partition("^")
            key = (name, exp)
            if key not in powers:
                powers[key] = point[name] ** (int(exp) if exp else 1)
            value *= powers[key]
        total += value
    return total


def has_negative_coefficient(text: str) -> bool:
    return any(sign < 0 for sign, _ in _signed_terms(text))


# -- closed forms for the finite types -----------------------------------------------


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def seed_count(kind: str, n: int) -> int:
    """Clusters of a finite type: A_n C(n+1), B_n/C_n binom(2n, n),
    D_n (3n-2)/n binom(2n-2, n-1), G2 8."""
    if kind == "A":
        return catalan(n + 1)
    if kind in "BC":
        return comb(2 * n, n)
    if kind == "D":
        return (3 * n - 2) * comb(2 * n - 2, n - 1) // n
    return 8


def variable_count(kind: str, n: int) -> int:
    """Cluster variables: A_n n(n+3)/2, B_n/C_n n(n+1), D_n n^2, G2 8."""
    if kind == "A":
        return n * (n + 3) // 2
    if kind in "BC":
        return n * (n + 1)
    if kind == "D":
        return n * n
    return 8


def sequence_count(n: int, depth: int) -> int:
    """Sequences of length <= depth over n exchangeables: sum_k n^k, the
    CM3 node count of a map all of whose sequences are biadmissible."""
    return sum(n**k for k in range(depth + 1))
