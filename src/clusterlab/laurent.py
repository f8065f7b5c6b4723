"""Sparse multivariate Laurent polynomials over the integers.

At the API, terms are stored as a map from monomials to nonzero
arbitrary-precision integer coefficients; a monomial is a sorted tuple of
(variable, nonzero exponent) pairs. The zero polynomial is the empty map, the
unit monomial is the empty tuple.

Terms are ordered graded-lexicographically: total degree first, then
variable by variable in ascending plain-string name order, the larger
exponent winning and an absent variable counting as exponent 0. Inside the
term sort and the exact-division kernel a monomial is encoded once as a
dense exponent tuple over the sorted names of the variables involved, so
this order is the native tuple order of (degree, exponents). Exact division
reduces the remainder in that order with a heap of its monomials (Johnson
1974; Monagan and Pearce, "Sparse polynomial division using a heap",
J. Symb. Comput. 46 (2011)).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, gt, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DivisionByZero, LaurentParseError, NotDivisible

VarId = str
Monomial = tuple[tuple[VarId, int], ...]
Exponents = tuple[int, ...]

UNIT_MONOMIAL: Monomial = ()


def monomial(exponents: Mapping[VarId, int]) -> Monomial:
    """Build a monomial from a var -> exponent map, dropping zero exponents."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e != 0))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        n = exps.get(v, 0) + e
        if n:
            exps[v] = n
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


def _vectors(monomials: Iterable[Monomial], names: Sequence[VarId]) -> list[Exponents]:
    """Dense exponent tuples over `names`, sorted and covering every variable."""
    index = {v: i for i, v in enumerate(names)}
    zeros = [0] * len(names)
    out = []
    for m in monomials:
        exps = zeros.copy()
        for v, e in m:
            exps[index[v]] = e
        out.append(tuple(exps))
    return out


def _floor(vectors: Iterable[Exponents]) -> Exponents:
    """Coordinatewise minimum of equal-length exponent tuples."""
    return tuple(map(min, zip(*vectors)))


def min_exponents(p: "LaurentPoly") -> Monomial:
    """Per-variable minimum exponent over the terms of p (absent = 0)."""
    names = sorted(p.variables())
    return tuple((v, e) for v, e in zip(names, _floor(_vectors(p.terms, names))) if e)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({UNIT_MONOMIAL: 1})

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({UNIT_MONOMIAL: n}) if n else cls()

    @classmethod
    def var(cls, v: VarId, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return cls.one()
        return cls({((v, exp),): 1})

    # -- basic queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def as_int(self) -> int | None:
        """The constant value if this is a constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and UNIT_MONOMIAL in self.terms:
            return self.terms[UNIT_MONOMIAL]
        return None

    def variables(self) -> set[VarId]:
        return {v for m in self.terms for v, _ in m}

    def has_nonnegative_coefficients(self) -> bool:
        """True iff every stored coefficient is positive (none are zero)."""
        return all(c > 0 for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending graded-lex order (leading term first)."""
        names = sorted(self.variables())
        keys = ((sum(exps), exps) for exps in _vectors(self.terms, names))
        return [t for _, t in sorted(zip(keys, self.terms.items()), reverse=True)]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        big, small = (self.terms, other.terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for m, c in small.items():
            n = out.get(m, 0) + c
            if n:
                out[m] = n
            else:
                del out[m]
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_mul(ma, mb)
                n = out.get(m, 0) + ca * cb
                if n:
                    out[m] = n
                else:
                    del out[m]
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined; "
                             "invert monomials explicitly")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return LaurentPoly.one() if result is None else result

    def shift(self, m: Monomial) -> "LaurentPoly":
        """Multiply by the (unit) monomial m."""
        if not m:
            return self
        return LaurentPoly({monomial_mul(t, m): c for t, c in self.terms.items()})

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def lp_add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return a + b


def lp_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return a * b


def lp_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring over the integers.

    Both operands are encoded as dense exponent tuples over the sorted union
    of their variables, and the per-variable minimum exponent is factored out
    of each so they become ordinary polynomials. The numerator is then
    reduced by leading terms of the remainder, taken in descending graded-lex
    order from a heap; any non-divisible step raises NotDivisible.
    """
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()

    names = sorted(num.variables() | den.variables())
    num_v = _vectors(num.terms, names)
    den_v = _vectors(den.terms, names)
    g_num = _floor(num_v)
    g_den = _floor(den_v)

    def key(exps: Exponents, low: Exponents) -> Exponents:
        # Negated (degree, exponents) of the shifted monomial: the smallest
        # key on the min-heap is the graded-lex leading monomial, and keys
        # of a product add up.
        neg = tuple(map(sub, low, exps))
        return (sum(neg),) + neg

    rem = {key(e, g_num): c for e, c in zip(num_v, num.terms.values())}
    den_terms = sorted((key(e, g_den), c) for e, c in zip(den_v, den.terms.values()))
    lead_d, lc_d = den_terms[0]
    tail_d = den_terms[1:]
    heap = list(rem)
    heapify(heap)
    quot: dict[Exponents, int] = {}
    while heap:
        lead_r = heappop(heap)
        lc_r = rem.pop(lead_r, 0)
        if not lc_r:
            continue  # cancelled after it was pushed
        if any(map(gt, lead_r, lead_d)):
            raise NotDivisible(f"{format_poly(num)} is not divisible by {format_poly(den)}")
        if lc_r % lc_d != 0:
            raise NotDivisible(
                f"coefficient {lc_r} not divisible by {lc_d} over the integers"
            )
        t = tuple(map(sub, lead_r, lead_d))
        q = lc_r // lc_d
        quot[t] = q
        for k_d, c_d in tail_d:
            k = tuple(map(add, t, k_d))
            c = rem.get(k)
            if c is None:
                rem[k] = -q * c_d
                heappush(heap, k)
            elif c == q * c_d:
                del rem[k]
            else:
                rem[k] = c - q * c_d

    shift = tuple(map(sub, g_num, g_den))
    out: dict[Monomial, int] = {}
    for t, q in quot.items():
        exps = map(sub, shift, t[1:])
        out[tuple((v, e) for v, e in zip(names, exps) if e)] = q
    return LaurentPoly(out)


def lp_has_nonnegative_coefficients(p: LaurentPoly) -> bool:
    return p.has_nonnegative_coefficients()


# -- canonical text form ----------------------------------------------------

_IDENT_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'/~.()"
)


def _is_int(tok: str) -> bool:
    t = tok[1:] if tok[:1] == "-" else tok
    return t.isdigit()


def format_poly(p: LaurentPoly) -> str:
    """Canonical text: terms in descending graded-lex order."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i, (m, c) in enumerate(p.sorted_terms()):
        mag = abs(c)
        factors = [f"{v}^{e}" if e != 1 else v for v, e in m]
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            yield (ch, ch, i)
            i += 1
            continue
        if ch in _IDENT_CHARS:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            yield ("atom", text[i:j], i)
            i = j
            continue
        raise LaurentParseError(f"unexpected character {ch!r}", position=i)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical textual form (tolerant of extra whitespace)."""
    tokens = list(_tokenize(text))
    if not tokens:
        raise LaurentParseError("empty polynomial text")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise LaurentParseError("unexpected end of input")
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise LaurentParseError(
                f"expected {kind}, found {tok[1]!r}", position=tok[2]
            )
        pos += 1
        return tok

    def parse_int_atom() -> int:
        tok = take("atom")
        if not _is_int(tok[1]):
            raise LaurentParseError(f"expected integer, found {tok[1]!r}", position=tok[2])
        return int(tok[1])

    def parse_term(sign: int) -> tuple[Monomial, int]:
        coef = sign
        exps: dict[VarId, int] = {}
        first = True
        while True:
            tok = take("atom")
            name = tok[1]
            if _is_int(name):
                if not first:
                    raise LaurentParseError(
                        "integer factor only allowed first", position=tok[2]
                    )
                coef *= int(name)
            else:
                # an atom is made of _IDENT_CHARS: if not an integer, a name
                exp = 1
                nxt = peek()
                if nxt is not None and nxt[0] == "^":
                    take("^")
                    neg = False
                    nxt2 = peek()
                    if nxt2 is not None and nxt2[0] == "-":
                        take("-")
                        neg = True
                    exp = parse_int_atom()
                    if neg:
                        exp = -exp
                exps[name] = exps.get(name, 0) + exp
            first = False
            nxt = peek()
            if nxt is not None and nxt[0] == "*":
                take("*")
                continue
            break
        return monomial(exps), coef

    total = LaurentPoly.zero()
    sign = 1
    tok = peek()
    if tok is not None and tok[0] in "+-":
        take()
        sign = -1 if tok[0] == "-" else 1
    while True:
        m, c = parse_term(sign)
        total = total + LaurentPoly({m: c})
        tok = peek()
        if tok is None:
            break
        if tok[0] not in "+-":
            raise LaurentParseError(
                f"expected '+' or '-', found {tok[1]!r}", position=tok[2]
            )
        take()
        sign = -1 if tok[0] == "-" else 1
    return total


def poly_product(factors: Iterable[LaurentPoly]) -> LaurentPoly:
    factors = iter(factors)
    out = next(factors, None)
    if out is None:
        return LaurentPoly.one()
    for f in factors:
        out = out * f
    return out
