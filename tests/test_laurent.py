"""Exact Laurent arithmetic: ring axioms, exact division, serialization,
packed monomials."""

import hashlib
import random

import pytest

from clusterlab.errors import DivisionByZero, LaurentParseError, NotDivisible
from clusterlab.laurent import (
    WIDTH,
    Ambient,
    LaurentPoly,
    format_poly,
    lp_exact_div,
    parse_poly,
)
from clusterlab.seeds import Seed, mutate_seed

x1, x2, x3 = (LaurentPoly.var(v) for v in ("x1", "x2", "x3"))
y1, y2 = (LaurentPoly.var(v) for v in ("y1", "y2"))
one = LaurentPoly.one()
zero = LaurentPoly.zero()


def inv(v):
    return LaurentPoly.var(v, -1)


def random_poly(rng, nvars=3, nterms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        mono = tuple(
            sorted(
                (f"v{i}", e)
                for i in rng.sample(range(nvars), rng.randint(0, nvars))
                if (e := rng.randint(-span, span)) != 0
            )
        )
        terms[mono] = terms.get(mono, 0) + rng.randint(-5, 5)
    return LaurentPoly(terms)


class TestAdd:
    def test_additive_inverse(self):
        assert x1 + -x1 == zero

    def test_disjoint_supports(self):
        p = x1 * inv("x2") + one
        assert p == parse_poly("x1*x2^-1 + 1")

    def test_coefficient_merge(self):
        lhs = (LaurentPoly.const(2) * x1 + x2) + LaurentPoly.const(3) * x1
        assert lhs == parse_poly("5*x1 + x2")


class TestMul:
    def test_monomial_scaling(self):
        assert (x1 + x2) * inv("x2") == parse_poly("x1*x2^-1 + 1")

    def test_expansion(self):
        assert (y1 + one) * (y2 + one) == parse_poly("y1*y2 + y1 + y2 + 1")

    def test_absorbing_zero(self):
        p = parse_poly("3*x1^2 - x2")
        assert p * zero == zero

    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError) as err:
            LaurentPoly.var("x") ** -1
        assert str(err.value) == (
            "negative powers of polynomials are not defined; invert monomials explicitly"
        )


class TestExactDiv:
    def test_factored_product(self):
        num = parse_poly("y1*y2 + y1 + y2 + 1")
        assert lp_exact_div(num, y1 + one) == parse_poly("y2 + 1")

    def test_monomial_divisor_always_exact(self):
        num = x1 * x3 + one
        assert lp_exact_div(num, x2) == parse_poly("x1*x2^-1*x3 + x2^-1")

    def test_coprime_fails(self):
        with pytest.raises(NotDivisible):
            lp_exact_div(x1 + x2, x1 + one)

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            lp_exact_div(x1, zero)

    def test_zero_numerator(self):
        assert lp_exact_div(zero, x1 + one) == zero

    def test_integer_coefficient_exactness(self):
        assert lp_exact_div(parse_poly("2*x1 + 2"), LaurentPoly.const(2)) == x1 + one
        with pytest.raises(NotDivisible):
            lp_exact_div(x1 + one, LaurentPoly.const(2))

    def test_laurent_shift(self):
        # a shift is a product with a monomial, and a quotient by its inverse
        num = parse_poly("x1^-2 + x1^-1*x2")
        shifted = parse_poly("x1^-1 + x2")
        assert num * LaurentPoly.var("x1") == shifted
        assert num * parse_poly("x1^2*x2^-1") == parse_poly("x2^-1 + x1")
        assert lp_exact_div(num, LaurentPoly.var("x1", -1)) == shifted

    def test_mul_then_div_roundtrip_randomized(self):
        rng = random.Random(7)
        done = 0
        while done < 300:
            p = random_poly(rng)
            q = random_poly(rng)
            if q.is_zero():
                continue
            assert lp_exact_div(p * q, q) == p
            done += 1


class TestNonnegative:
    def test_positive(self):
        assert parse_poly("x1*x2^-1 + 1").has_nonnegative_coefficients()

    def test_negative(self):
        assert not (x1 - x2).has_nonnegative_coefficients()

    def test_expanded_cluster_variable(self):
        # the third generator of the worked morphism example's source algebra
        p = (x1 * x3 + x2 + one) * (inv("x2") * inv("x3"))
        assert p.has_nonnegative_coefficients()


class TestRingAxioms:
    def test_axioms_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + zero == p
            assert p * one == p


class TestSerialization:
    def test_roundtrip_randomized(self):
        rng = random.Random(13)
        for _ in range(300):
            p = random_poly(rng, nvars=4, nterms=6, span=4)
            text = format_poly(p)
            assert parse_poly(text) == p
            assert format_poly(parse_poly(text)) == text

    def test_zero(self):
        assert format_poly(zero) == "0"
        assert parse_poly("0") == zero

    def test_canonical_order_is_graded_lex(self):
        p = parse_poly("x2 + x1 + x1*x2 + 1")
        assert format_poly(p) == "x1*x2 + x1 + x2 + 1"

    def test_arc_style_identifiers(self):
        p = parse_poly("1/4~3/4^-1 + 2*0/1~1/2")
        assert p == LaurentPoly.var("1/4~3/4", -1) + LaurentPoly.const(2) * LaurentPoly.var("0/1~1/2")
        assert parse_poly(format_poly(p)) == p

    def test_parse_errors(self):
        for bad, message, position in [
            ("", "empty polynomial text", None),
            ("x1 +", "unexpected end of input", None),
            ("x1^", "unexpected end of input", None),
            ("2*", "unexpected end of input", None),
            ("x1^x2", "expected integer, found 'x2'", 3),
            ("&", "unexpected character '&'", 0),
            ("x1*2", "integer factor only allowed first", 3),
            ("x1 x2", "expected '+' or '-', found 'x2'", 3),
            ("x + *", "expected atom, found '*'", 4),
        ]:
            with pytest.raises(LaurentParseError) as err:
                parse_poly(bad)
            assert (str(err.value), err.value.position) == (message, position), bad

    def test_a_polynomial_never_equals_a_non_polynomial(self):
        assert (parse_poly("x") == 1) is False
        assert (parse_poly("1") == 1) is False


CAP = (1 << (WIDTH - 2)) - 1  # the largest absolute value a default field holds


class TestPackedFields:
    """A monomial is one integer of fixed-width fields; a value that would
    not fit them moves to wider fields, and no field wraps."""

    def test_exponents_at_the_largest_field_value_and_one_beyond(self):
        for e in (CAP, -CAP, CAP + 1, -CAP - 1):
            p = LaurentPoly.var("x", e)
            assert p.terms == {(("x", e),): 1}
            assert format_poly(p) == f"x^{e}"
            assert parse_poly(f"x^{e}") == p
        x, top = LaurentPoly.var("x"), LaurentPoly.var("x", CAP)
        assert (top * x).terms == {(("x", CAP + 1),): 1}
        assert (LaurentPoly.var("x", -CAP) * inv("x")).terms == {(("x", -CAP - 1),): 1}
        assert lp_exact_div(top * x, x) == top
        assert lp_exact_div(top, LaurentPoly.var("x", -1)).terms == {(("x", CAP + 1),): 1}

    def test_the_degree_field_fills_first(self):
        # each exponent fits, the total degree 2 * CAP does not
        x, top = LaurentPoly.var("x"), LaurentPoly.var("x", CAP)
        xy = top * LaurentPoly.var("y", CAP)
        assert xy.terms == {(("x", CAP), ("y", CAP)): 1}
        assert format_poly(xy + x + LaurentPoly.var("y", 2 * CAP + 1)) == (
            f"y^{2 * CAP + 1} + x^{CAP}*y^{CAP} + x"
        )
        assert lp_exact_div(xy * (x + one), x + one) == xy
        assert lp_exact_div(xy, LaurentPoly.var("y", CAP)) == top
        with pytest.raises(NotDivisible, match=f"^x\\^{CAP}\\*y\\^{CAP} is not divisible by x \\+ 1$"):
            lp_exact_div(xy, x + one)

    def test_an_ambient_too_narrow_raises(self):
        with pytest.raises(OverflowError):
            Ambient(["x"]).encode(LaurentPoly.var("x", CAP + 1))
        assert Ambient(["x", "y"]).encode(LaurentPoly.var("x", CAP)) == LaurentPoly.var("x", CAP)

    def test_one_variable_hashes_as_its_terms(self):
        # the hash of one term: count 1, coefficient sum 1, that coefficient
        # leading and trailing, and the weight sum(e_v * hash(v)) of that
        # monomial leading and trailing, computed here from the terms alone
        a = Ambient(["a", "b", "c"]).var("b")
        assert a == LaurentPoly.var("b") == parse_poly("b")
        ((term, coeff),) = a.terms.items()
        weight = sum(e * hash(v) for v, e in term)
        assert hash(a) == hash(LaurentPoly.var("b")) == hash((1, coeff, coeff, coeff, weight, weight))

    def test_the_initial_variables_of_a_star_hash_apart(self):
        # a hash that ignored which variable a monomial holds would put all
        # of a 1201-variable star seed's values in one bucket; the hashes
        # the star's ambient gives its variables are those computed for
        # each variable on its own
        leaves = [f"x{i:04d}" for i in range(1200)]
        star = Seed.initial(["c", *leaves], ["c"], [e for v in leaves for e in (("c", v, 1), (v, "c", -1))])
        hashes = [hash(star.values[v]) for v in leaves]
        assert len(set(hashes)) == 1200
        assert hashes == [hash(LaurentPoly.var(v)) for v in leaves]

    def test_a_constant_built_before_a_seed_meets_its_values(self):
        early = LaurentPoly.one()
        seed = Seed.initial(["a", "b"], ["a", "b"], [("a", "b", 1), ("b", "a", -1)])
        value = mutate_seed(seed, "a").values["a'1"]
        assert format_poly(value + early) == "1 + a^-1*b + a^-1"
        assert format_poly(value * LaurentPoly.const(-2)) == "-2*a^-1*b - 2*a^-1"
        assert (value - value).is_zero()


def seeded_walks(count: int, seed: int):
    """Labels, matrix entries and walk of `count` seeded walks of 1-4
    mutations, no position twice in a row, on rank 2-5 skew-symmetric or
    (three in ten) skew-symmetrizable seeds."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(2, 5)
        d = [rng.choice((1, 2)) for _ in range(rank)] if rng.random() < 0.3 else [1] * rank
        labels = [f"x{i}" for i in range(rank)]
        entries = []
        for i in range(rank):
            for j in range(i + 1, rank):
                s = rng.choice((-1, 0, 1))
                if s:
                    entries += [(labels[i], labels[j], s * d[j]), (labels[j], labels[i], -s * d[i])]
        walk: list[int] = []
        for _ in range(rng.randint(1, 4)):
            walk.append(rng.choice([p for p in range(rank) if not walk or p != walk[-1]]))
        yield labels, entries, walk


def test_seeded_walk_values_are_pinned():
    # the canonical text of every value at the end of 300 seeded walks
    digest = hashlib.sha256()
    for labels, entries, walk in seeded_walks(300, 2015):
        seed = Seed.initial(labels, labels, entries)
        for p in walk:
            seed = mutate_seed(seed, seed.labels[p])
        for label in seed.labels:
            digest.update(format_poly(seed.values[label]).encode() + b"\n")
    assert digest.hexdigest() == "5004daafb3927dcd4e00b360846d2c5f1dede5e9addd226913ff4bdeadaefc53"
