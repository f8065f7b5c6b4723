"""The canonical text lists terms in graded-lex order, written out here by brute force.

Rule: compare total degree first; on a tie, go variable by variable in
ascending plain-string name order (so `x10` comes before `x2`), the larger
exponent winning and an absent variable counting as exponent 0.
"""

import random
import re
from functools import cmp_to_key
from itertools import permutations

import pytest

from clusterlab.laurent import LaurentPoly, format_poly, parse_poly

NAMES = ("x1", "x2", "x10", "y", "y'1")


def grlex_cmp(a, b) -> int:
    """-1, 0 or 1 as monomial a is below, equal to or above monomial b."""
    ea, eb = dict(a), dict(b)
    da, db = sum(ea.values()), sum(eb.values())
    if da != db:
        return -1 if da < db else 1
    for v in sorted(set(ea) | set(eb)):
        x, y = ea.get(v, 0), eb.get(v, 0)
        if x != y:
            return -1 if x < y else 1
    return 0


def printed_terms(text: str) -> list[tuple]:
    """The (monomial, coefficient) terms of a canonical text, in printed order."""
    out = []
    for chunk in re.split(r" (?=[+-] )", text):
        ((mono, coeff),) = parse_poly(chunk.replace(" ", "")).terms.items()
        out.append((mono, coeff))
    return out


def random_poly(rng: random.Random) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, 8)):
        mono = tuple(
            sorted(
                (v, e)
                for v in rng.sample(NAMES, rng.randint(0, 4))
                if (e := rng.randint(-3, 3))
            )
        )
        terms[mono] = rng.choice([-7, -2, -1, 1, 1, 3])
    return LaurentPoly(terms)


def test_format_order_matches_brute_force_rule():
    rng = random.Random(20240601)
    for _ in range(500):
        p = random_poly(rng)
        text = format_poly(p)
        terms = printed_terms(text)
        assert dict(terms) == p.terms, text
        monos = [m for m, _ in terms]
        assert monos == sorted(monos, key=cmp_to_key(grlex_cmp), reverse=True), text
        assert all(grlex_cmp(a, b) == 1 for a, b in zip(monos, monos[1:])), text


@pytest.mark.parametrize(
    "text",
    [
        "x10 + x2",
        "x2 + x1*x2^-1 + 1 + x1^-1",
        "y^-2 + x^-1*y^-1 + x^-2",
    ],
)
def test_pinned_texts(text):
    assert format_poly(parse_poly(text)) == text
    for terms in permutations(printed_terms(text)):
        assert format_poly(LaurentPoly(dict(terms))) == text
