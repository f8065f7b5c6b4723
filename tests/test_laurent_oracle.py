"""Differential oracle: Laurent multiplication and exact division against sympy.

Random integer Laurent polynomials with negative exponents are multiplied and
divided both here and in sympy. A quotient must exist exactly when sympy's
reduced num/den is a Laurent polynomial with integer coefficients.
"""

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clusterlab.errors import NotDivisible  # noqa: E402
from clusterlab.laurent import (  # noqa: E402
    Ambient,
    LaurentPoly,
    format_poly,
    lp_exact_div,
    parse_poly,
)

NAMES = ("x1", "x2", "x10", "y")
SYMBOLS = sympy.symbols(NAMES)
TO_SYMBOL = dict(zip(NAMES, SYMBOLS))

monomials = st.dictionaries(
    st.sampled_from(NAMES), st.integers(-3, 3).filter(bool), max_size=3
).map(lambda exps: tuple(sorted(exps.items())))
polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=4).map(LaurentPoly)
nonzero_polys = polys.filter(bool)


def to_sympy(p: LaurentPoly):
    return sympy.Add(
        *(c * sympy.Mul(*(TO_SYMBOL[v] ** e for v, e in m)) for m, c in p.terms.items())
    )


def reference_hash(p: LaurentPoly) -> int:
    """The hash from p.terms alone: the term count, the coefficient sum, the
    coefficients of the leading and trailing terms in graded-lex order
    (total degree, then the exponents variable by variable in name order,
    absent ones 0), and the weights sum(e_v * hash(v)) of their monomials."""
    terms = p.terms
    if not terms:
        return hash((0, 0))
    names = sorted({v for m in terms for v, _ in m})
    order = lambda m: (sum(e for _, e in m), [dict(m).get(v, 0) for v in names])
    lead, trail = max(terms, key=order), min(terms, key=order)
    weight = lambda m: sum(e * hash(v) for v, e in m)
    return hash((len(terms), sum(terms.values()), terms[lead], terms[trail], weight(lead), weight(trail)))


def same(p: LaurentPoly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def laurent_quotient(num: LaurentPoly, den: LaurentPoly):
    """num/den as a sympy expression if it is a Laurent polynomial with
    integer coefficients, else None."""
    # Each operand is an integer polynomial over a monomial.
    num_top, num_bottom = sympy.fraction(sympy.together(to_sympy(num)))
    den_top, den_bottom = sympy.fraction(sympy.together(to_sympy(den)))
    p = sympy.Poly(num_top * den_bottom, *SYMBOLS, domain="ZZ")
    q = sympy.Poly(num_bottom * den_top, *SYMBOLS, domain="ZZ")
    g = p.gcd(q)
    p, q = p.exquo(g), q.exquo(g)
    if len(q.terms()) != 1:
        return None  # a non-monomial factor of den is left over
    ((_, c),) = q.terms()
    if any(coeff % c for coeff in p.coeffs()):
        return None
    return p.as_expr() / q.as_expr()


@settings(max_examples=100, deadline=None)
@given(polys, polys)
def test_mul_matches_sympy(a, b):
    assert same(a * b, sympy.expand(to_sympy(a) * to_sympy(b)))


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys)
def test_product_divides_back_to_cofactor(a, b):
    q = lp_exact_div(a * b, b)
    assert q == a
    assert laurent_quotient(a * b, b) is not None


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys)
def test_division_defined_exactly_when_sympy_quotient_is_laurent(num, den):
    expected = laurent_quotient(num, den)
    if expected is None:
        with pytest.raises(NotDivisible):
            lp_exact_div(num, den)
    else:
        assert same(lp_exact_div(num, den), expected)


@settings(max_examples=100, deadline=None)
@given(nonzero_polys, nonzero_polys, st.integers(2, 5))
def test_coefficient_obstruction(a, b, k):
    # (a*b) / (k*b) = a/k is Laurent over the integers iff k divides a.
    den = LaurentPoly.const(k) * b
    if all(c % k == 0 for c in a.terms.values()):
        assert same(lp_exact_div(a * b, den), to_sympy(a) / k)
        assert laurent_quotient(a * b, den) is not None
    else:
        with pytest.raises(NotDivisible, match="^coefficient "):
            lp_exact_div(a * b, den)
        assert laurent_quotient(a * b, den) is None


@settings(max_examples=150, deadline=None)
@given(polys, monomials, st.sampled_from((1, -1, 2, -2, 3)))
def test_division_by_a_monomial(p, m, c):
    # a monomial divisor takes no heap; the quotient and the text of a
    # coefficient that does not divide are those of the heap route: the
    # leading such term of the numerator is named
    den = LaurentPoly({m: c})
    assert lp_exact_div(p * den, den) == p
    assert same(lp_exact_div(p * den, den), sympy.expand(to_sympy(p * den) / to_sympy(den)))
    bad = [k for _, k in p.sorted_terms() if k % c]
    if bad:
        with pytest.raises(NotDivisible) as info:
            lp_exact_div(p, den)
        assert str(info.value) == f"coefficient {bad[0]} not divisible by {c} over the integers"
    else:
        assert same(lp_exact_div(p, den), sympy.expand(to_sympy(p) / to_sympy(den)))


@pytest.mark.parametrize(
    "num, den, message",
    [
        ("x1 + x2", "x1 + 1", "x1 + x2 is not divisible by x1 + 1"),
        ("x10^-1*y + 1", "y^-1 + 1", "1 + x10^-1*y is not divisible by 1 + y^-1"),
        ("x1 + 1", "2", "coefficient 1 not divisible by 2 over the integers"),
        ("3*x2 + 6", "2*x2^-1", "coefficient 3 not divisible by 2 over the integers"),
    ],
)
def test_obstruction_examples(num, den, message):
    assert laurent_quotient(parse_poly(num), parse_poly(den)) is None
    with pytest.raises(NotDivisible) as info:
        lp_exact_div(parse_poly(num), parse_poly(den))
    assert str(info.value) == message


@settings(max_examples=100, deadline=None)
@given(polys, nonzero_polys)
def test_values_on_two_ambients_agree(a, b):
    # each value on the ambient of its own variables and on one with every
    # name and some it never uses; results must not depend on which
    wide = Ambient(NAMES + ("a0", "x0", "zz"))
    wa, wb = wide.encode(a), wide.encode(b)
    for p, wp in ((a, wa), (b, wb)):
        assert wp == p and p == wp
        assert hash(wp) == hash(p) == reference_hash(p)
        assert wp.terms == p.terms and format_poly(wp) == format_poly(p)
    product, total = wa * wb, wa + wb
    assert a * b == wa * b == a * wb == product
    assert a + b == wa + b == a + wb == total
    assert hash(a * b) == hash(product) and hash(a - b) == hash(wa - wb)
    assert lp_exact_div(a * b, b) == lp_exact_div(wa * b, b) == lp_exact_div(product, wb) == a
    assert same(product, sympy.expand(to_sympy(a) * to_sympy(b)))
