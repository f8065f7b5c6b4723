"""Sparse multivariate Laurent polynomials over the integers.

A polynomial maps monomials to nonzero integer coefficients over an
ambient, the sorted names of the variables it may use, shared by all the
values of a seed. A monomial is one integer of biased fixed-width fields
(degree, e_1, ..., e_n), the degree highest, each field's top bit a guard.
So integer order is the graded-lex term order (total degree first, then
variable by variable in ascending plain-string name order, the larger
exponent winning, an absent variable counting as 0), a product of monomials
is `a + b - unit`, and exact division reduces the remainder in that order
with a heap of integers (Johnson 1974; Monagan and Pearce, J. Symb. Comput.
46 (2011)); a monomial divisor needs no heap. At the API, `terms` maps
monomials, sorted tuples of (variable, nonzero exponent) pairs, to
coefficients. Equality and hash do not depend on the ambient: one ambient
compares packed maps, two compare terms, and the hash is taken from the term
count, the coefficient sum, the leading and trailing coefficients and the
weights sum(e_v * hash(v)) of the leading and trailing monomials, which are
the same on every ambient and read from the packed fields, so no monomial is
decoded. Operands on two ambients meet on the union of their names. Each
value bounds its fields, a product or quotient by the sum of its operands'
bounds; an operation that might not fit takes exact bounds and, if still too
large, moves to wider fields: no field wraps.
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping

from .errors import DivisionByZero, LaurentParseError, NotDivisible

VarId = str
Monomial = tuple[tuple[VarId, int], ...]
WIDTH = 20  # bits per packed field, the top one a guard


def monomial(exponents: Mapping[VarId, int]) -> Monomial:
    """Build a monomial from a var -> exponent map, dropping zero exponents."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e != 0))


def _bound(monomials: Iterable[Monomial]) -> int:
    """The largest absolute exponent or total degree of the monomials."""
    return max((abs(x) for m in monomials for x in (sum(e for _, e in m), *(e for _, e in m))),
               default=0)


class Ambient:
    """Sorted variable names and the packing of monomials over them: the
    field of name v starts at bit place[v], the degree's at bit `top`. A
    floor (the per-variable minimum exponents) is packed with degree 0."""

    __slots__ = (
        "names", "ident", "width", "place", "top", "mask", "bias", "unit", "guard", "cap", "_weights",
    )

    def __init__(self, names: Iterable[VarId], width: int = WIDTH):
        self.names = names = tuple(sorted(set(names)))
        self.ident, self.width, n = (names, width), width, len(names)
        self.place = {v: width * (n - 1 - i) for i, v in enumerate(names)}
        self.top, self.mask, self.bias = width * n, (1 << width) - 1, 1 << (width - 2)
        self.unit = self.bias * (((1 << (width * (n + 1))) - 1) // self.mask)
        # every field's top bit, and the largest absolute value a field holds
        self.guard, self.cap = self.unit << 1, self.bias - 1
        self._weights = None  # (place, hash of name) per field, made when a hash first needs it

    def key(self, m: Monomial) -> int:
        place = self.place
        return self.unit + sum(e << place[v] for v, e in m) + (sum(e for _, e in m) << self.top)

    def monomials(self, keys: Iterable[int]) -> list[Monomial]:
        fields, mask, bias = self.place.items(), self.mask, self.bias
        return [tuple([(v, e) for v, s in fields if (e := (k >> s & mask) - bias)]) for k in keys]

    def weight(self, k: int) -> int:
        """Sum of e_v * hash(v) over the monomial of key k: the same on every
        ambient, read from the fields without decoding the monomial."""
        weights = self._weights
        if weights is None:
            weights = self._weights = list(zip(self.place.values(), map(hash, self.names)))
        mask, bias, total = self.mask, self.bias, 0
        for s, w in weights:
            total += ((k >> s & mask) - bias) * w
        return total

    def floor(self, keys: Iterable[int]) -> int:
        """The floor of the (nonempty) keys."""
        mask, places = self.mask, self.place.values()
        lows = [mask] * len(places)
        for k in keys:
            for i, s in enumerate(places):
                if k >> s & mask < lows[i]:
                    lows[i] = k >> s & mask
        return sum(low << s for low, s in zip(lows, places)) + (self.bias << self.top)

    def meet(self, x: int, y: int) -> int:
        """The fieldwise minimum of two floors, read from the guard bits."""
        less = self.guard & ~((x | self.guard) - y)  # the fields where x < y
        pick = (less >> (self.width - 1)) * self.mask
        return x & pick | y & ~pick

    def const(self, n: int) -> "LaurentPoly":
        return _poly(self, {self.unit: n}, 0, self.unit) if n else _poly(self, {}, 0, None)

    def var(self, v: VarId) -> "LaurentPoly":
        """The variable v, its hash given: one term, coefficient 1, weight hash(v)."""
        low = self.unit + (1 << self.place[v])
        return _poly(self, {low + (1 << self.top): 1}, 1, low, hash((1, 1, 1, 1, hash(v), hash(v))))

    def encode(self, p: "LaurentPoly") -> "LaurentPoly":
        """p on this ambient, whose names must cover p's variables."""
        if p._bound > self.cap and _bound(p.terms) > self.cap:
            raise OverflowError(f"{format_poly(p)} does not fit fields of width {self.width}")
        return _poly(self, p._on(self), p._bound, None, p._hash)


def on_one_ambient(values: dict) -> dict:
    """The values as given if they share an ambient, else each re-encoded on
    the union of their names, in fields wide enough for all of them."""
    ambients = {p._amb for p in values.values()}
    if len({a.ident for a in ambients}) <= 1:
        return values
    amb = Ambient({v for a in ambients for v in a.names}, max(a.width for a in ambients))
    return {k: amb.encode(p) for k, p in values.items()}


def _poly(amb: Ambient, keys: dict[int, int], bound: int, low: int | None, h=None) -> "LaurentPoly":
    p = object.__new__(LaurentPoly)
    p._amb, p._keys, p._bound, p._low, p._hash = amb, keys, bound, low, h
    return p


def _align(a: "LaurentPoly", b: "LaurentPoly", division: bool = False):
    """(ambient, a's keys, b's keys) on one ambient whose fields hold a + b
    and a * b, or (n + 1) times the bounds' sum, which holds each step of a / b."""
    amb, grow = a._amb, len(a._amb.names) + 1 if division else 1
    if (amb is b._amb or amb.ident == b._amb.ident) and (a._bound + b._bound) * grow <= amb.cap:
        return amb, a._keys, b._keys
    if not (amb.names and b._amb.names):  # a constant takes the other's ambient
        host = amb if amb.names else b._amb
        if (a._bound + b._bound) * (len(host.names) + 1 if division else 1) <= host.cap:
            return host, a._on(host), b._on(host)
    names = set(amb.names).union(b._amb.names)
    grow = len(names) + 1 if division else 1
    if (a._bound + b._bound) * grow >= 1 << (WIDTH - 2):  # wider fields, unless exact bounds fit
        a._bound, b._bound = _bound(a.terms), _bound(b.terms)
    need = (a._bound + b._bound) * grow
    fits = [x for x in (amb, b._amb) if len(x.names) == len(names) and need <= x.cap]
    amb = fits[0] if fits else Ambient(names, max(WIDTH, need.bit_length() + 2))
    return amb, a._on(amb), b._on(amb)


def _floor_on(p: "LaurentPoly", amb: Ambient, keys: dict[int, int] | None = None) -> int | None:
    """p's floor on amb if known; else, given p's keys there, found once."""
    low = p._low if p._amb is amb else amb.unit if p._keys and not p._amb.names else None
    if low is None and keys is not None:
        low = amb.floor(keys)
        if p._amb is amb:
            p._low = low
    return low


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_amb", "_keys", "_bound", "_low", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        terms = {m: c for m, c in terms.items() if c} if terms else {}
        self._bound = bound = _bound(terms)
        self._amb = amb = Ambient({v for m in terms for v, _ in m}, max(WIDTH, bound.bit_length() + 2))
        self._keys, self._low, self._hash = {amb.key(m): c for m, c in terms.items()}, None, None

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(zip(self._amb.monomials(self._keys), self._keys.values()))

    def _on(self, amb: Ambient) -> dict[int, int]:
        if self._amb.ident == amb.ident:
            return self._keys
        if not self._amb.names:
            return {amb.unit: c for c in self._keys.values()}
        return {amb.key(m): c for m, c in self.terms.items()}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _NO_NAMES.const(0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _NO_NAMES.const(1)

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return _NO_NAMES.const(n)

    @classmethod
    def var(cls, v: VarId, exp: int = 1) -> "LaurentPoly":
        return cls({((v, exp),): 1}) if exp else cls.one()

    def is_zero(self) -> bool:
        return not self._keys

    def variables(self) -> set[VarId]:
        return {v for m in self.terms for v, _ in m}

    def has_nonnegative_coefficients(self) -> bool:
        """True iff every stored coefficient is positive (none are zero)."""
        return all(c > 0 for c in self._keys.values())

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in descending graded-lex order (leading term first)."""
        keys = sorted(self._keys, reverse=True)
        return list(zip(self._amb.monomials(keys), map(self._keys.get, keys)))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        amb, big, small = _align(self, other)
        low, other_low = _floor_on(self, amb), _floor_on(other, amb)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for k, c in small.items():
            n = out.get(k, 0) + c
            if n:
                out[k] = n
            else:
                del out[k]
                low = None  # a term cancelled: the floor may have risen
        low = None if low is None or other_low is None else amb.meet(low, other_low)
        return _poly(amb, out, max(self._bound, other._bound), low)

    def __neg__(self) -> "LaurentPoly":
        return _poly(self._amb, {k: -c for k, c in self._keys.items()}, self._bound, self._low)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other) if isinstance(other, LaurentPoly) else NotImplemented

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        amb, a, b = _align(self, other)
        unit, out = amb.unit, {}
        for ka, ca in a.items():
            ka -= unit
            for kb, cb in b.items():
                k = ka + kb
                n = out.get(k, 0) + ca * cb
                if n:
                    out[k] = n
                else:
                    del out[k]
        low, other_low = _floor_on(self, amb), _floor_on(other, amb)
        low = None if low is None or other_low is None else low + other_low - unit
        return _poly(amb, out, self._bound + other._bound, low)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined; "
                             "invert monomials explicitly")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return LaurentPoly.one() if result is None else result

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return False
        if self._amb is other._amb or self._amb.ident == other._amb.ident:
            return self._keys == other._keys
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            keys = self._keys
            if keys:  # the leading and trailing coefficients and monomial weights
                lead, trail, weight = max(keys), min(keys), self._amb.weight
                h = hash((len(keys), sum(keys.values()), keys[lead], keys[trail],
                          weight(lead), weight(trail)))
            else:
                h = hash((0, 0))
            self._hash = h
        return h

    def __bool__(self):
        return bool(self._keys)

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


_NO_NAMES = Ambient(())


def min_exponents(p: LaurentPoly) -> Monomial:
    """Per-variable minimum exponent over the terms of p (absent = 0)."""
    return p._amb.monomials([_floor_on(p, p._amb, p._keys)])[0] if p._keys else ()


def substitute(p: LaurentPoly, images: Mapping[VarId, VarId | int], amb: Ambient) -> tuple[LaurentPoly, int]:
    """p under the ring map f sending each variable v to images[v], a name
    of amb or an integer, as (s, k) with f(p) = s / k where k is not 0.

    With D the monomial of p's negative floor, p = N / D for a polynomial N,
    and f(D) is the single term k * y^D: k is the product of n_v^D_v over
    the integer images n_v, and y^D the product of the label images' powers.
    Then s = f(N) / y^D, made in one pass over p's terms: c * x^m goes to
    c * prod n_v^(m_v + D_v) * prod y_v^m_v. A field of s sums at most as
    many fields of p as there are label images; when that might not fit, s
    is made on wider fields over amb's names, so no field wraps."""
    src, keys = p._amb, p._keys
    mask, bias = src.mask, src.bias
    labels, ints = [], []
    for v, s in src.place.items():
        img = images.get(v)
        if img is None:  # a name that no term uses needs no image
            if any(key >> s & mask != bias for key in keys):
                raise KeyError(v)
        elif isinstance(img, str):
            labels.append((s, img))
        elif img != 1:
            ints.append((s, img, v))
    if ints:
        floor = dict(min_exponents(p))
        ints = [(s, n, max(-floor.get(v, 0), 0)) for s, n, v in ints]  # (place, n_v, D_v)
    k = 1
    for _, n, d in ints:
        k *= n ** d
    need = len(labels) * p._bound
    if need > amb.cap:  # wider fields, unless p's exact bound fits
        p._bound = _bound(p.terms)
        need = len(labels) * p._bound
        if need > amb.cap:
            amb = Ambient(amb.names, need.bit_length() + 2)
    place, top, out = amb.place, amb.top, {}
    labels = [(s, place[y]) for s, y in labels]
    for key, c in keys.items():
        for s, n, d in ints:
            c *= n ** ((key >> s & mask) - bias + d)
        if not c:
            continue
        t, deg = amb.unit, 0
        for s, y in labels:
            e = (key >> s & mask) - bias
            if e:
                t += e << y
                deg += e
        t += deg << top
        c += out.get(t, 0)
        if c:
            out[t] = c
        else:
            del out[t]
    return _poly(amb, out, need, None), k


def lp_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring over the integers: num is reduced by
    the leading term of the remainder, taken from a heap in descending order;
    a step whose quotient term is below g_num / g_den in some variable, for
    the floors g (a borrow out of a guard bit), or whose coefficient does not
    divide raises NotDivisible. A monomial divisor shifts every term at once:
    no term is below the floors, so only a coefficient can fail, and the
    leading one that does is named, as the heap would meet it first."""
    if den.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    amb, rem, dk = _align(num, den, division=True)
    unit, guard = amb.unit, amb.guard
    lc_d = dk[lead_d := max(dk)]
    tail_d = [(k, c) for k, c in dk.items() if k != lead_d]
    shift = _floor_on(num, amb, rem) - _floor_on(den, amb, dk)
    if not tail_d:
        bad = [k for k, c in rem.items() if c % lc_d]
        if bad:
            raise NotDivisible(f"coefficient {rem[max(bad)]} not divisible by {lc_d} over the integers")
        t = lead_d - unit
        return _poly(amb, {k - t: c // lc_d for k, c in rem.items()}, num._bound + den._bound, shift + unit)
    # a term divides when no field is below bar's (its degree field is 0)
    bar = (lead_d + shift) & ((1 << amb.top) - 1)
    rem = dict(rem)
    heap = [-k for k in rem]  # a max-heap of the remainder's keys
    heapify(heap)
    quot: dict[int, int] = {}
    while heap:
        lead_r = -heappop(heap)
        lc_r = rem.pop(lead_r, 0)
        if not lc_r:
            continue  # cancelled after it was pushed
        if (lead_r | guard) - bar & guard != guard:
            raise NotDivisible(f"{format_poly(num)} is not divisible by {format_poly(den)}")
        if lc_r % lc_d != 0:
            raise NotDivisible(f"coefficient {lc_r} not divisible by {lc_d} over the integers")
        t = lead_r - lead_d  # the quotient term's key, less the unit
        q = lc_r // lc_d
        quot[t + unit] = q
        for k_d, c_d in tail_d:
            k = t + k_d
            c = rem.get(k)
            if c is None:
                rem[k] = -q * c_d
                heappush(heap, -k)
            elif c == q * c_d:
                del rem[k]
            else:
                rem[k] = c - q * c_d
    return _poly(amb, quot, num._bound + den._bound, shift + unit)


# -- canonical text form ----------------------------------------------------


def format_poly(p: LaurentPoly) -> str:
    """Canonical text: terms in descending graded-lex order."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in p.sorted_terms():
        factors = [f"{v}^{e}" if e != 1 else v for v, e in m]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + "*".join(factors))
    return " ".join(parts)


# a sign or operator, an atom (an integer or a name), or a character neither may hold
_TOKEN = re.compile(r"\s*(?:([-+*^])|([A-Za-z0-9_'/~.()]+)|(\S))")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    for match in _TOKEN.finditer(text):
        op, atom, bad = match.groups()
        if bad:
            raise LaurentParseError(f"unexpected character {bad!r}", position=match.start(3))
        yield (op, op, match.start(1)) if op else ("atom", atom, match.start(2))


def _integer(digits: str, at: int) -> int:
    """The integer atom at `at`; one past int's limit on the length of
    integer text is a parse error, not a ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise LaurentParseError(f"integer of {len(digits)} digits is too long", position=at) from None


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical textual form (tolerant of extra whitespace)."""
    tokens = list(_tokenize(text))
    if not tokens:
        raise LaurentParseError("empty polynomial text")
    pos = 0

    def skip(kind: str) -> bool:
        nonlocal pos
        found = pos < len(tokens) and tokens[pos][0] == kind
        pos += found
        return found

    def atom() -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            raise LaurentParseError("unexpected end of input")
        kind, value, at = tokens[pos]
        if kind != "atom":
            raise LaurentParseError(f"expected atom, found {value!r}", position=at)
        pos += 1
        return value, at

    terms: dict[Monomial, int] = {}
    sign = -1 if skip("-") else 1
    if sign == 1:
        skip("+")
    while True:
        coef, exps, first = sign, {}, True
        while first or skip("*"):
            name, at = atom()
            if name.isdigit():  # an atom holds no sign
                if not first:
                    raise LaurentParseError("integer factor only allowed first", position=at)
                coef *= _integer(name, at)
            else:
                exp = 1
                if skip("^"):
                    neg = skip("-")
                    digits, at = atom()
                    if not digits.isdigit():
                        raise LaurentParseError(f"expected integer, found {digits!r}", position=at)
                    exp = _integer(digits, at)
                    exp = -exp if neg else exp
                exps[name] = exps.get(name, 0) + exp
            first = False
        m = monomial(exps)
        terms[m] = terms.get(m, 0) + coef
        if pos == len(tokens):
            return LaurentPoly(terms)
        kind, value, at = tokens[pos]
        if kind not in "+-":
            raise LaurentParseError(f"expected '+' or '-', found {value!r}", position=at)
        pos += 1
        sign = -1 if kind == "-" else 1
